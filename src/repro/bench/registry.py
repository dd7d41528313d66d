"""Benchmark registry: the 12 protocol implementations + AsyncSystem.

Mirrors the paper's two suites (Section 7.2):

* **PSharpBench** — BoundedAsync, German, BasicPaxos, TwoPhaseCommit,
  Chord, MultiPaxos, Raft, ChainReplication.  Each has a *correct*
  (non-racy) variant used for Table 1's precision columns, a *racy*
  variant with deliberately seeded ownership races ("Found all data
  races?"), and a *buggy* variant with an interleaving-dependent safety
  bug for Table 2.
* **SOTER-P#** — Leader, Pi, Chameneos, Swordfish: ports of the four
  worst-performing SOTER benchmarks, used for the precision comparison
  (our analyzer verifies all four; the SOTER-style baseline reports
  false positives).

Plus the Section 7.1 case study stand-in, AsyncSystem, with its five
seeded bugs.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..core.machine import Machine, program_statistics
from ..core.source import class_lines
from ..errors import PSharpError


@dataclass
class Variant:
    """One runnable/analyzable configuration of a benchmark."""

    machines: List[Type[Machine]]
    main: Type[Machine]
    payload: Any = None
    helpers: Tuple[type, ...] = ()
    # Specification monitors (repro.testing.monitors) for this variant:
    # pass to the engine/runtime ``monitors=`` parameter to test the
    # program against its specifications.
    monitors: Tuple[type, ...] = ()
    # Default fault-injection config (repro.testing.faults.FaultConfig)
    # for this variant — fault-enabled benchmarks (suite "faults") carry
    # the fault environment their seeded bug needs; None everywhere else.
    # TestConfig.resolved_faults() picks this up for registry targets.
    faults: Optional[Any] = None


@dataclass
class Benchmark:
    name: str
    suite: str  # "psharpbench" | "soter" | "case-study" | "liveness"
    correct: Variant
    racy: Optional[Variant] = None
    buggy: Optional[Variant] = None
    seeded_races: int = 0  # give-up sites seeded racy in the racy variant
    bug_kind: str = "assertion-failure"
    notes: str = ""

    def loc(self) -> int:
        """Lines of benchmark source (Table 1's LoC column), counting each
        class in the machines' inheritance chains once."""
        seen = set()
        total = 0
        for cls in list(self.correct.machines) + list(self.correct.helpers):
            for klass in cls.__mro__:
                if klass in seen or klass in (Machine, object):
                    continue
                if klass.__module__.startswith("repro.core"):
                    continue
                seen.add(klass)
                total += class_lines(klass)[0]
        return total

    def statistics(self) -> Dict[str, int]:
        """#M / #ST / #AB of the correct variant (Table 1)."""
        return program_statistics(self.correct.machines)


_REGISTRY: Dict[str, Benchmark] = {}

#: Canonical name -> the module that registers it, in the order
#: :func:`all_benchmarks` lists the programs.  A lookup by name imports
#: that one module; listing the registry imports them all.
_MODULE_OF: Dict[str, str] = {
    "AsyncSystem": "async_system",
    "BasicPaxos": "basic_paxos",
    "BoundedAsync": "bounded_async",
    "ChainReplication": "chain_replication",
    "Chord": "chord",
    "Raft": "raft",
    "TwoPhaseCommit": "two_phase_commit",
    "RaftLossy": "fault_variants",
    "TwoPhaseCommitCrash": "fault_variants",
    "German": "german",
    "MultiPaxos": "multi_paxos",
    "ProcessScheduler": "process_scheduler",
    "Leader": "soter_suite",
    "Pi": "soter_suite",
    "Chameneos": "soter_suite",
    "Swordfish": "soter_suite",
    "TokenRing": "token_ring",
}

# The paper's tables abbreviate two benchmark names; accept both spellings
# everywhere a benchmark is looked up by name.
ALIASES: Dict[str, str] = {
    "2PhaseCommit": "TwoPhaseCommit",
    "ChReplication": "ChainReplication",
}


def resolve(name: str) -> str:
    """Canonical registry name for ``name`` (resolves table aliases)."""
    return ALIASES.get(name, name)


def register(benchmark: Benchmark) -> Benchmark:
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def all_benchmarks() -> List[Benchmark]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def get(name: str) -> Benchmark:
    canonical = resolve(name)
    _load(canonical)
    return _REGISTRY[canonical]


def suite(name: str) -> List[Benchmark]:
    _ensure_loaded()
    return [b for b in _REGISTRY.values() if b.suite == name]


def names() -> List[str]:
    """Canonical registry names, sorted (CLI ``bench --list`` material)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def resolve_target(target: Union[str, Type[Machine]]) -> Variant:
    """Resolve a campaign target specification into a runnable
    :class:`Variant` — the single resolution path behind
    :class:`repro.testing.config.TestConfig` and the ``python -m repro``
    CLI.  Three spellings are accepted:

    * a :class:`Machine` subclass — wrapped as a bare variant;
    * a registry benchmark name or table alias (``"Raft"``,
      ``"2PhaseCommit"``) — its *buggy* variant when one exists (the
      tester hunts bugs; registry monitors and payload ride along),
      otherwise the correct variant;
    * ``"module:Class"`` — imported and wrapped, so any user program on
      the path is targetable without registry plumbing.
    """
    if isinstance(target, type) and issubclass(target, Machine):
        return Variant(machines=[target], main=target)
    if not isinstance(target, str):
        raise PSharpError(
            f"campaign target must be a Machine subclass, a benchmark "
            f"name, or 'module:Class', got {target!r}"
        )
    if ":" in target:
        module_name, _, class_name = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise PSharpError(
                f"cannot import module {module_name!r} for target "
                f"{target!r}: {exc}"
            ) from exc
        cls = getattr(module, class_name, None)
        if cls is None:
            raise PSharpError(
                f"module {module_name!r} has no attribute {class_name!r}"
            )
        if not (isinstance(cls, type) and issubclass(cls, Machine)):
            raise PSharpError(
                f"{target!r} resolved to {cls!r}, which is not a Machine "
                "subclass"
            )
        return Variant(machines=[cls], main=cls)
    canonical = resolve(target)
    _load(canonical)
    if canonical not in _REGISTRY:
        raise PSharpError(
            f"unknown benchmark {target!r}; known: {', '.join(names())} "
            "(or pass 'module:Class')"
        )
    benchmark = _REGISTRY[canonical]
    return benchmark.buggy if benchmark.buggy is not None else benchmark.correct


def buggy_main(name: str) -> Type[Machine]:
    """The entry machine of ``name``'s buggy (Table 2) variant."""
    benchmark = get(name)
    if benchmark.buggy is None:
        raise KeyError(f"benchmark {benchmark.name!r} has no buggy variant")
    return benchmark.buggy.main


def table2_suite() -> List[Benchmark]:
    """The PSharpBench programs with a seeded Table 2 bug."""
    return [b for b in suite("psharpbench") if b.buggy is not None]


def liveness_suite() -> List[Benchmark]:
    """Benchmarks whose buggy variant is a livelock/starvation found via
    liveness-monitor temperature under a fair strategy (Section 7.2's
    hot/cold specification machines)."""
    return suite("liveness")


#: A small, fast, structurally diverse slice of the registry used to
#: smoke-check activity coverage: a leader-election protocol with
#: monitors (Raft), a protocol driven by a coherence directory (German),
#: a liveness benchmark with hot/cold monitor states (ProcessScheduler),
#: and a ring topology (TokenRing).
COVERAGE_SMOKE_NAMES = ("Raft", "German", "ProcessScheduler", "TokenRing")


def coverage_smoke_suite() -> List[Benchmark]:
    """The benchmarks CI drives with ``--coverage`` enabled.

    Kept deliberately small — coverage smoke runs on every backend, so
    each entry costs three campaigns — while still exercising ordinary
    machines, safety monitors, and hot/cold liveness monitors."""
    _ensure_loaded()
    return [_REGISTRY[name] for name in COVERAGE_SMOKE_NAMES]


_LOADED = False


def _load(canonical: str) -> None:
    """Import the module that registers ``canonical`` — every module
    when the table names none, so an unknown name is looked up in the
    whole registry."""
    if canonical in _REGISTRY:
        return
    module = _MODULE_OF.get(canonical)
    if module is None:
        _ensure_loaded()
    else:
        importlib.import_module(f".{module}", __package__)


def _ensure_loaded() -> None:
    """Import every program module, then list the registry in the
    table's order, whichever programs were looked up first."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for module in dict.fromkeys(_MODULE_OF.values()):
        importlib.import_module(f".{module}", __package__)
    rank = {name: index for index, name in enumerate(_MODULE_OF)}
    ordered = sorted(_REGISTRY.items(), key=lambda item: rank.get(item[0], len(rank)))
    _REGISTRY.clear()
    _REGISTRY.update(ordered)
