"""Schedule-space reduction: DPOR, state caching, learned prefix clauses.

Raw schedule throughput stopped being the bottleneck once the inline
backend landed; the next multiplier is exploring *fewer* schedules.  The
P#-style tester (Section 6.2) enumerates interleavings whose vast
majority are equivalent, because the only visible effects of a scheduling
step are the messages it enqueues — and sends targeting distinct inboxes
commute.  This module shrinks the schedule tree itself, in three
cooperating layers:

**Independence oracle.**  The runtime reports, per scheduling step, the
set of *objects* the step touched: the stepping machine itself (its
program counter and inbox), every inbox it enqueued into (sends — with or
without an injected fault: a fault decision never commutes with its own
send, so the target stays in the footprint either way), every machine it
created, and every specification monitor that observed one of its events
(monitor state is order-sensitive, so two sends observed by the same
monitor do not commute even when their targets differ).  Two steps
commute iff their object footprints are disjoint.  Footprints are derived
from trace-visible facts only, so the oracle is identical on the inline
and pool carriers.

**Dynamic partial-order reduction** (:class:`~repro.testing.strategies
.DfsStrategy` / ``IterativeDeepeningDfsStrategy``).  Machine-choice
stack frames carry an explicit backtrack list instead of enumerating
every enabled machine: a frame starts with a single branch, and after
each execution the engine scans the step log for *races* — a step whose
footprint intersects the footprint of the last earlier step by a
different machine touching the same object — and inserts the racing
machine as a backtrack point at that earlier decision (falling back to
the whole enabled set when the racer was not yet enabled there, the
classic conservative case).  A frame's explored prefix ``values[:pos+1]``
is its sleep set: a branch that has been explored (or deliberately
skipped) at this node is never re-added.  Branches never materialized are
counted as ``branches_pruned`` when the frame pops.  Pruning decisions
never touch recorded schedule decisions, so a bug trace found under
reduction replays bit-identically — on any back-end — via
``ReplayStrategy``.

**State caching.**  :meth:`BugFindingRuntime.state_fingerprint` hashes
the complete observable program state (per machine: current state, inbox
event names + payload hashes, user fields; plus monitor states, the step
count and the fault budget) into a stable digest; the engine keeps an
LRU-bounded seen-set across the campaign and the runtime abandons an
execution (status ``"pruned"``, trace kind ``"reduction"``) when it
reaches a state the campaign has already explored.  Two guards make this
sound for DFS-order search:

* *Divergence gating* — a DFS iteration re-executes the previous
  iteration's schedule prefix decision-for-decision, and every prefix
  state is by construction already cached; fingerprints are therefore
  only checked (and inserted) once the current trace has diverged from
  the previous iteration's.  Under depth-first order every reachable
  cache hit then refers to a node strictly left of the current path,
  whose subtree is fully explored — pruning it drops only redundant
  work.
* *Step-count inclusion* — the fingerprint includes the step counter, so
  a state reached by a longer path (different remaining ``max_steps``
  budget) or a cycle within one execution never aliases a cached entry.

For randomized strategies the cache is a redundancy heuristic, not an
equivalence argument; see ``docs/reduction.md`` for the caveats
(liveness temperature, fairness) and when to use which mode.

**Learned prefix clauses** (the opt-in CDCL-flavored stretch,
``"dpor+state-cache+clauses"``).  Every state-cache prune learns the
implication "from fingerprint *F*, scheduling machine *m* re-enters
explored territory" — a blocked edge, the one-step analogue of a learned
clause over schedule prefixes.  On later visits to *F* the runtime
consults the store right after the decision and prunes *before*
executing the step, saving the step plus the child fingerprint.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from ..core.events import Event, MachineId
from ..errors import PSharpError
from .trace import ScheduleTrace

__all__ = [
    "REDUCTION_MODES",
    "REASON_STATE",
    "REASON_CLAUSE",
    "ReductionEngine",
    "normalize_reduction",
    "stable_update",
]

#: Reduction modes a campaign may name.  "dpor" arms the race analysis
#: for DFS-family strategies; "+state-cache" additionally prunes
#: revisited states for *every* strategy; "+clauses" opts into the
#: learned blocked-edge store on top.
REDUCTION_MODES = ("none", "dpor", "dpor+state-cache", "dpor+state-cache+clauses")

#: Trace-record reason codes for ``"reduction"`` entries.
REASON_STATE = 1   # state-cache hit: this exact state was already explored
REASON_CLAUSE = 2  # learned clause: this edge re-enters explored territory

#: Default LRU bound of the campaign-level seen-set.
DEFAULT_STATE_CACHE_SIZE = 1 << 16


def normalize_reduction(mode: Optional[str]) -> str:
    """Validate a reduction mode name, loudly."""
    if mode is None:
        return "none"
    if mode not in REDUCTION_MODES:
        raise PSharpError(
            f"reduction must be one of {', '.join(REDUCTION_MODES)}, "
            f"got {mode!r}"
        )
    return mode


# ----------------------------------------------------------------------
# Stable hashing of machine state
# ----------------------------------------------------------------------
def stable_update(update: Callable[[bytes], None], obj: object) -> None:
    """Feed a stable byte encoding of ``obj`` into a hash ``update``.

    Stability contract: equal values produce equal byte streams across
    processes, back-ends and ``PYTHONHASHSEED`` values — which is why
    this never goes through built-in ``hash()``.  Containers are length-
    prefixed and type-tagged so ``[1, 2]`` / ``(1, 2)`` / ``"12"`` cannot
    collide; dicts and sets are hashed order-independently by digesting
    each element and sorting the digests.  Objects with a default
    ``repr`` (which embeds a memory address) degrade to their class name
    — coarse, but deterministic.
    """
    if obj is None:
        update(b"\x00N")
    elif obj is True:
        update(b"\x00T")
    elif obj is False:
        update(b"\x00F")
    else:
        t = type(obj)
        if t is int:
            update(b"\x00i%d" % obj)
        elif t is str:
            data = obj.encode("utf-8", "surrogatepass")
            update(b"\x00s%d:" % len(data))
            update(data)
        elif t is float:
            update(b"\x00f")
            update(repr(obj).encode("ascii"))
        elif t is bytes:
            update(b"\x00b%d:" % len(obj))
            update(obj)
        elif t is MachineId:
            update(b"\x00m%d" % obj.value)
        elif t is tuple or t is list:
            update(b"\x00l" if t is list else b"\x00t")
            update(b"%d:" % len(obj))
            for item in obj:
                stable_update(update, item)
        elif t is dict:
            update(b"\x00d%d:" % len(obj))
            _update_unordered(update, obj.items())
        elif t is set or t is frozenset:
            update(b"\x00S%d:" % len(obj))
            _update_unordered(update, obj)
        elif isinstance(obj, Event):
            update(b"\x00E")
            stable_update(update, type(obj).__name__)
            stable_update(update, getattr(obj, "payload", None))
        elif isinstance(obj, type):
            update(b"\x00C")
            update(f"{obj.__module__}:{obj.__qualname__}".encode("utf-8"))
        else:
            r = repr(obj)
            if " at 0x" in r:  # default repr: address is not stable
                r = f"<{type(obj).__name__}>"
            update(b"\x00r")
            update(r.encode("utf-8", "replace"))


def _update_unordered(update: Callable[[bytes], None], items) -> None:
    """Hash an unordered collection: digest each element independently,
    then feed the sorted digests — order-independent and key-order-proof
    without requiring the elements to be comparable."""
    from hashlib import blake2b

    digests = []
    for item in items:
        h = blake2b(digest_size=8)
        stable_update(h.update, item)
        digests.append(h.digest())
    digests.sort()
    for d in digests:
        update(d)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ReductionEngine:
    """Campaign-lifetime reduction state shared by the runtime (step
    footprints, state cache) and the DFS-family strategies (race
    analysis, backtrack insertion).

    One engine serves one campaign loop: :func:`repro.testing.engine
    .run_campaign` constructs it next to the coverage map, hands it to the
    runtime (``BugFindingRuntime(reduction=...)``) and attaches it to the
    strategy (:meth:`~repro.testing.strategies.SchedulingStrategy
    .attach_reduction`).  The ``workers="auto"`` inline→pool restart
    re-enters the loop and builds a fresh engine, so a restarted
    campaign's pruning decisions are bit-identical to an explicit pooled
    run — exactly the coverage-map contract.

    The step log (``_points``/``_bounds``/``effects``) covers the most
    recent execution only; the seen-set, the clause store and the
    counters span the campaign.
    """

    def __init__(
        self,
        mode: str = "dpor",
        state_cache_size: int = DEFAULT_STATE_CACHE_SIZE,
    ) -> None:
        mode = normalize_reduction(mode)
        if mode == "none":
            raise PSharpError(
                "ReductionEngine is only constructed for an active "
                "reduction mode; pass reduction='none' to the campaign "
                "instead"
            )
        if state_cache_size < 1:
            raise PSharpError(
                f"state_cache_size must be >= 1, got {state_cache_size!r}"
            )
        self.mode = mode
        self.dpor = True  # every active mode includes the race analysis
        self.cache_on = mode != "dpor"
        self.clauses_on = mode == "dpor+state-cache+clauses"
        self.state_cache_size = state_cache_size
        # Campaign-level counters (telemetry; see TestReport).
        self.distinct_states = 0
        self.state_prunes = 0
        self.clause_prunes = 0
        self.branches_pruned = 0
        self.clauses_learned = 0
        # Campaign-level stores.
        self._seen: "OrderedDict[bytes, bool]" = OrderedDict()
        self._blocked: dict = {}  # fingerprint -> set of blocked machine values
        self.prev_trace: Optional[ScheduleTrace] = None
        # Per-execution step log (see begin_execution).
        self.effects: List[int] = []
        self._points: List[Tuple[int, Tuple[int, ...], int]] = []
        self._bounds: List[int] = []
        self._pending_depth = -1
        self.diverged = False
        self.checked = 0
        self.cur_blocked: Optional[set] = None
        self._cur_fp: Optional[bytes] = None

    @property
    def schedules_pruned(self) -> int:
        """Schedules the reduction avoided exploring: DPOR branches never
        materialized plus executions cut short by the state cache or a
        learned clause."""
        return self.branches_pruned + self.state_prunes + self.clause_prunes

    # -- per-execution lifecycle ---------------------------------------
    def begin_execution(self) -> None:
        """Reset the step log for a fresh execution (campaign-level
        stores and counters persist)."""
        self.effects.clear()
        self._points.clear()
        self._bounds.clear()
        self._pending_depth = -1
        # The first execution (no previous trace) has nothing to stay
        # aligned with: every point checks the (initially empty) cache.
        self.diverged = self.prev_trace is None
        self.checked = 0
        self.cur_blocked = None
        self._cur_fp = None

    def end_execution(self, trace: Optional[ScheduleTrace]) -> None:
        """Record the completed execution's trace as the prefix-alignment
        reference for the next one."""
        if trace is not None:
            self.prev_trace = trace

    def reset_search(self) -> None:
        """Forget everything tied to the *current* systematic search
        (seen states, learned clauses, the alignment trace) while keeping
        the campaign counters.  Iterative deepening calls this at every
        depth increase: the deepened DFS re-explores the whole tree, and
        states cached by the shallower pass would otherwise prune it to
        nothing."""
        self._seen.clear()
        self._blocked.clear()
        self.prev_trace = None

    # -- step log (runtime side) ---------------------------------------
    def bind_frame(self, depth: int) -> None:
        """Called by a DPOR strategy inside ``pick_machine``: associate
        the decision being made with its stack-frame depth, so the race
        analysis can insert backtrack points at it."""
        self._pending_depth = depth

    def chose(self, value: int, enabled: Tuple[int, ...]) -> None:
        """A scheduling decision was recorded: machine ``value`` starts a
        new step at a point whose enabled set was ``enabled``.  The
        stepping machine itself is always part of the step's footprint
        (its program counter and inbox advance)."""
        depth, self._pending_depth = self._pending_depth, -1
        self._bounds.append(len(self.effects))
        self.effects.append(value)
        self._points.append((value, enabled, depth))

    # -- DPOR analysis (strategy side) ---------------------------------
    def analyze(self, add_backtrack: Callable[[int, Optional[int]], None]) -> None:
        """Scan the last execution's step log for races and insert
        backtrack points via ``add_backtrack(frame_depth, machine_value
        or None)``.

        For each object a step touched, the *last* earlier step by a
        different machine touching the same object is a race: the racing
        machine is added as a backtrack branch at that step's decision
        frame (or the whole enabled set when it was not enabled there).
        Races shadowed by a nearer access are found transitively over
        subsequent iterations, the standard last-access argument.  Steps
        whose decision was forced (``depth == -1``) had no alternative to
        insert, so they are skipped."""
        points = self._points
        if not points:
            return
        effects = self.effects
        bounds = self._bounds
        n = len(points)
        total = len(effects)
        last: dict = {}
        for i in range(n):
            chosen, _enabled, _depth = points[i]
            start = bounds[i]
            stop = bounds[i + 1] if i + 1 < n else total
            for obj in effects[start:stop]:
                j = last.get(obj)
                if j is not None:
                    prev_chosen, prev_enabled, prev_depth = points[j]
                    if prev_chosen != chosen and prev_depth >= 0:
                        add_backtrack(
                            prev_depth,
                            chosen if chosen in prev_enabled else None,
                        )
                last[obj] = i

    def count_skipped(self, count: int) -> None:
        """A DPOR frame was exhausted and popped with ``count`` enabled
        branches never materialized: the race analysis proved no
        dependent transition needed them."""
        if count > 0:
            self.branches_pruned += count

    # -- state cache (runtime side) ------------------------------------
    def check_state(self, fingerprint: bytes) -> int:
        """Consult (and update) the seen-set for the state at the current
        scheduling point.  Returns a prune reason code (0: fresh state,
        keep executing).  On a hit with clause learning armed, the edge
        that led here — (previous point's fingerprint, last scheduled
        machine) — is recorded as blocked."""
        seen = self._seen
        if fingerprint in seen:
            seen.move_to_end(fingerprint)
            self.state_prunes += 1
            if self.clauses_on and self._cur_fp is not None and self._points:
                blocked = self._blocked.setdefault(self._cur_fp, set())
                edge = self._points[-1][0]
                if edge not in blocked:
                    blocked.add(edge)
                    self.clauses_learned += 1
            return REASON_STATE
        seen[fingerprint] = True
        if len(seen) > self.state_cache_size:
            seen.popitem(last=False)
        self.distinct_states += 1
        if self.clauses_on:
            self._cur_fp = fingerprint
            self.cur_blocked = self._blocked.get(fingerprint)
        return 0
