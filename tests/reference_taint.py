"""Test-only oracle: the naive fixpoint drivers the sparse solver replaced.

These are the bodies ``TaintEngine.closure_facts`` / ``forward_facts`` had
before the worklist solver, moved here verbatim (``self`` became
``engine``; the closure memo is dropped).  They re-apply the engine's own
``_fwd`` / ``_bwd`` to every node until nothing changes — slow, and
obviously the least fixed point the solver must reproduce.
``tests/test_taint_solver.py`` compares the two on every query.
"""

from typing import Dict, FrozenSet, Set

from repro.analysis.taint import FactMap, MethodInfo, TaintEngine
from repro.lang.cfg import Node


def forward_facts(
    engine: TaintEngine,
    info: MethodInfo,
    seeds: Dict[int, FrozenSet[str]],
) -> FactMap:
    """Forward-only propagation; ``seeds`` maps node index -> vars
    injected into that node's IN set."""
    ins: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    outs: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    for index, vars_ in seeds.items():
        ins[index] |= vars_
    changed = True
    while changed:
        changed = False
        for node in info.cfg.nodes:
            in_set = set(ins[node.index])
            for pred in node.preds:
                in_set |= outs[pred.index]
            if in_set != ins[node.index]:
                ins[node.index] = in_set
                changed = True
            out_set = set(engine._fwd(info, node, frozenset(in_set)))
            if out_set != outs[node.index]:
                outs[node.index] = out_set
                changed = True
    return FactMap(
        {k: frozenset(v) for k, v in ins.items()},
        {k: frozenset(v) for k, v in outs.items()},
    )


def closure_facts(
    engine: TaintEngine, info: MethodInfo, seed_var: str, seed_node: Node
) -> FactMap:
    """Bidirectional may-overlap closure for seed (var at entry of node)."""
    ins: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    outs: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    ins[seed_node.index].add(seed_var)
    changed = True
    while changed:
        changed = False
        for node in info.cfg.nodes:
            in_set = set(ins[node.index])
            for pred in node.preds:
                in_set |= outs[pred.index]  # forward along edges
            in_set |= engine._bwd(info, node, frozenset(outs[node.index]))
            if in_set != ins[node.index]:
                ins[node.index] = in_set
                changed = True
            out_set = set(outs[node.index])
            out_set |= engine._fwd(info, node, frozenset(in_set))
            for succ in node.succs:
                out_set |= ins[succ.index]  # backward along edges
            if out_set != outs[node.index]:
                outs[node.index] = out_set
                changed = True
    return FactMap(
        {k: frozenset(v) for k, v in ins.items()},
        {k: frozenset(v) for k, v in outs.items()},
    )


class ReferenceEngine(TaintEngine):
    """A taint engine that answers every query with the naive drivers, so
    a whole analysis (summaries, gives-up, verdicts) can be run on the
    oracle and compared with the real one."""

    def forward_facts(self, info, seeds):
        return forward_facts(self, info, seeds)

    def closure_facts(self, info, seed_var, seed_node):
        return closure_facts(self, info, seed_var, seed_node)
