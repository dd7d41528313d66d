"""The strategy portfolio: specs, the strategy registry, the default mix
and the merge of per-shard reports.

The paper's Table 2 measures single-strategy, single-process campaigns.
Two observations push beyond that:

* No single search heuristic dominates — DFS exhausts shallow corners,
  random sampling finds the deep rare bugs, PCT and delay-bounding carry
  probabilistic guarantees for bounded-depth bugs.  Running a *portfolio*
  of diverse strategies hedges across bug depths, the same way portfolio
  SAT/SMT solvers combine complementary heuristics.
* One schedule-controlled execution serializes everything on purpose, so
  a campaign's schedules/sec is capped by one core.  Sharding workers
  across processes recovers the hardware's parallelism.

This module holds what a portfolio *is*: a plain-data
:class:`StrategySpec` per shard, the factory registry workers build
strategies from, :func:`default_portfolio` (the diverse default mix) and
:func:`merge_shard_reports`.  *Running* one is the fleet coordinator's
job (:func:`repro.testing.fleet.run_fleet`): ``Campaign.portfolio()``
starts it with one worker process per spec.  Every worker runs the same
iteration loop as a plain single-strategy campaign
(:func:`~repro.testing.engine.run_campaign`) and reports its
:class:`~repro.testing.engine.TestReport` back as a JSON document; the first
shard to find a bug wins and cancels the others, and the winner's
:class:`~repro.testing.trace.ScheduleTrace` replays deterministically
in the parent via ``Campaign.replay()``.
"""

from __future__ import annotations

import ast
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PSharpError
from .engine import TestReport
from .record import TEXT, Declared, Rule, field, keep, name_keyed, plain, record
from .strategies import (
    DelayBoundingStrategy,
    DfsStrategy,
    FairRandomStrategy,
    IterativeDeepeningDfsStrategy,
    PctStrategy,
    RandomStrategy,
    SchedulingStrategy,
)


# ---------------------------------------------------------------------------
# Strategy specs + factory registry
# ---------------------------------------------------------------------------
@record(frozen=True)
class StrategySpec(Declared):
    """A plain-data recipe for constructing a scheduling strategy.

    Workers build strategies from specs instead of receiving live strategy
    objects: strategies hold RNGs and mutable search state that must start
    fresh in the worker, and some (DFS stacks) are not meaningfully
    serializable anyway.
    """

    name: str = field(keep(TEXT), required=True)
    params: Dict[str, Any] = field(Rule(
        decode=lambda data: {} if data is None else name_keyed(data),
        encode=plain("strategy params"), fresh=dict, wire="object or null",
    ))

    def __hash__(self) -> int:
        # The auto-generated frozen-dataclass hash would raise on the dict
        # field; specs are natural set/dict-key material, so hash by value.
        return hash((self.name, tuple(sorted(self.params.items()))))

    def build(self) -> SchedulingStrategy:
        return make_strategy(self)

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse ``"name"`` or ``"name,kw=value,..."`` into a spec — the
        ``--strategy`` syntax of the ``python -m repro`` CLI.  Values go
        through ``ast.literal_eval`` (so ``seed=7`` is an int and
        ``bias=0.7`` a float) and fall back to the raw string."""
        name, _, rest = text.partition(",")
        name = name.strip()
        if not name:
            raise PSharpError(f"empty strategy name in {text!r}")
        params: Dict[str, Any] = {}
        if rest.strip():
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise PSharpError(
                        f"malformed strategy parameter {pair.strip()!r} in "
                        f"{text!r} (expected kw=value)"
                    )
                try:
                    params[key] = ast.literal_eval(value.strip())
                except (ValueError, SyntaxError):
                    params[key] = value.strip()
        return cls(name, params)

    #: The one wire form of a spec — campaign JSON, ``work`` frames and
    #: checkpoints all carry ``{"name", "params"}``.
    to_obj = Declared.encode

    @classmethod
    def decode(cls, value: Any) -> "StrategySpec":
        """The spec any of its spellings describes: the ``{"name",
        "params"}`` object (``params`` may be null or absent), the CLI
        string (``"pct,depth=10"``), a ``(name, params)`` pair, a spec."""
        if isinstance(value, str):
            return cls.parse(value)
        if type(value) is tuple and len(value) == 2:
            return cls(*value)
        return super().decode(value)


StrategyFactory = Callable[..., SchedulingStrategy]

_STRATEGY_FACTORIES: Dict[str, StrategyFactory] = {
    "random": RandomStrategy,
    "fair-random": FairRandomStrategy,
    "dfs": DfsStrategy,
    "iddfs": IterativeDeepeningDfsStrategy,
    "pct": PctStrategy,
    "delay-bounding": DelayBoundingStrategy,
}


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register a custom strategy factory under ``name`` so portfolio specs
    can refer to it."""
    _STRATEGY_FACTORIES[name] = factory


def strategy_names() -> List[str]:
    return sorted(_STRATEGY_FACTORIES)


def make_strategy(spec: StrategySpec) -> SchedulingStrategy:
    try:
        factory = _STRATEGY_FACTORIES[spec.name]
    except KeyError:
        raise PSharpError(
            f"unknown strategy {spec.name!r}; known: {', '.join(strategy_names())}"
        ) from None
    try:
        return factory(**spec.params)
    except TypeError as exc:
        # A misspelled/extra parameter is a configuration error, not a
        # crash: surface it as the library's error type so callers (the
        # CLI's exit-2 path, the coordinator's fail-fast check) report it
        # cleanly.
        raise PSharpError(
            f"invalid parameters for strategy {spec.label()!r}: {exc}"
        ) from exc


# The diverse default mix the portfolio cycles through: a fair random
# sampler, PCT at several priority-change budgets, delay-bounding at
# several delay budgets, and iterative-deepening DFS for the systematic
# shallow sweep (ISSUE: "random, PCT with varied priority-change budgets,
# delay-bounding with varied delay budgets, iterative-deepening DFS").
_DEFAULT_TEMPLATES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("random", {}),
    ("pct", {"depth": 3}),
    ("delay-bounding", {"delays": 2}),
    ("iddfs", {}),
    ("pct", {"depth": 10}),
    ("delay-bounding", {"delays": 4}),
    ("pct", {"depth": 20}),
    ("delay-bounding", {"delays": 8}),
    # The fair scheduler rides at the end of the cycle: wide portfolios
    # gain a worker whose long executions stay meaningful, which is what
    # liveness-monitor temperature detection needs.
    ("fair-random", {}),
)

_SEEDED = {"random", "fair-random", "pct", "delay-bounding"}


def default_portfolio(workers: int, seed: Optional[int] = None) -> List[StrategySpec]:
    """``workers`` specs cycling through the default strategy mix, with
    distinct derived seeds so same-named workers explore differently."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # An unseeded portfolio must vary across runs (like an unseeded
    # RandomStrategy), not silently behave as seed=0.
    base_seed = seed if seed is not None else random.randrange(2**31)
    specs = []
    for index in range(workers):
        name, params = _DEFAULT_TEMPLATES[index % len(_DEFAULT_TEMPLATES)]
        params = dict(params)
        if name in _SEEDED:
            params["seed"] = base_seed * 10_007 + index
        specs.append(StrategySpec(name, params))
    return specs


# ---------------------------------------------------------------------------
# Merging shard reports
# ---------------------------------------------------------------------------
def merge_shard_reports(
    specs: Sequence[StrategySpec],
    collected: Dict[int, TestReport],
    *,
    strategy: str = "portfolio",
    winner_index: Optional[int] = None,
    elapsed: Optional[float] = None,
    interrupted: bool = False,
) -> TestReport:
    """Fold per-shard reports into one campaign report, in shard order.

    The one merge path of every sharded campaign — the coordinator
    (:mod:`repro.testing.fleet`) ends here, so "what does a merged
    report mean" has a single answer.  Shards missing from ``collected``
    (worker died, missed the flush window, never assigned) contribute an
    empty report so the merge arithmetic stays honest; distinct-bug
    dedup by trace fingerprint happens inside
    :meth:`TestReport.merged`."""
    ordered = []
    for index, spec in enumerate(specs):
        report = collected.get(index)
        if report is None:
            report = TestReport(strategy=spec.label())
        if report.strategy != spec.label():
            report.strategy = spec.label()
        ordered.append(report)
    campaign = TestReport.merged(ordered, strategy=strategy)
    if elapsed is not None:
        campaign.elapsed = elapsed
    if interrupted:
        campaign.interrupted = True
    if winner_index is not None and winner_index in collected:
        winning = collected[winner_index]
        campaign.first_bug = winning.first_bug
    return campaign
