"""Schedule-space reduction for the DFS family: DPOR and state caching.

Raw schedule throughput stopped being the bottleneck once the inline
backend landed; the next multiplier is exploring *fewer* schedules.  The
P#-style tester (Section 6.2) enumerates interleavings whose vast
majority are equivalent, because the only visible effects of a scheduling
step are the messages it enqueues — and sends targeting distinct inboxes
commute.  This module shrinks the DFS schedule tree itself, in two
cooperating layers on one independence oracle.  Both are arguments about
depth-first order, so only :class:`~repro.testing.strategies.DfsStrategy`
(and ``IterativeDeepeningDfsStrategy``, which is one) accepts an engine:
every other strategy refuses it in ``attach_reduction``, before the
campaign's first execution.

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
and threaded carriers.

**Dynamic partial-order reduction.**  A machine-choice frame of the DFS
stack carries an explicit backtrack list instead of enumerating every
enabled machine: it starts with a single branch, and after each execution
the engine scans the step log — the chosen machine and the frame depth of
every decision, and the objects each step touched — for *races*: a step
whose footprint intersects the footprint of the last earlier step by a
different machine touching the same object.  The racing machine is
offered to that earlier decision's frame, the one record of what was
enabled there, which adds it, or the whole enabled set when the racer was
not yet enabled (the classic conservative case).  A frame's explored
prefix ``values[:pos+1]`` is its sleep set: a branch that has been
explored (or deliberately skipped) at this node is never re-added.
Branches never materialized are counted as ``branches_pruned`` when the
frame pops.  Pruning decisions never touch recorded schedule decisions,
so a bug trace found under reduction replays bit-identically — on any
back-end — via ``ReplayStrategy``.

**State caching.**  A program state is a product of machine-local
states (machines own their heap and affect each other only through the
events they enqueue), so its fingerprint is composed: one BLAKE2b-128
digest per machine (:func:`machine_update`: identity, state, inbox,
fields, consumed nondeterminism) and per monitor, and a hash over those
digests plus the step count and the fault count
(:func:`state_fingerprint`).  :meth:`ReductionEngine.fingerprint` keeps
the digests of the current execution and recomputes only those whose
machine the step log above names since the last consultation — the same
value, about two digests a point instead of all of them.  The engine
keeps an LRU-bounded seen-set across the search and the runtime abandons
an execution (status ``"pruned"``, trace kind ``"reduction"``) when it
reaches a state the search has already explored.  Two guards make this
sound in DFS order:

* *Divergence gating* — a DFS iteration re-executes the previous
  iteration's schedule prefix decision-for-decision, and every prefix
  state is by construction already cached.  The DFS stack knows where
  that prefix ends: ``prepare_iteration`` clears :attr:`ReductionEngine
  .diverged` when it advances a frame, and the strategy sets it again
  when the decision at that frame is taken (a fresh search starts with
  it set).  The runtime consults the cache only while it is set.  Under
  depth-first order every reachable cache hit then refers to a node
  strictly left of the current path, whose subtree is fully explored —
  pruning it drops only redundant work.
* *Step-count inclusion* — the fingerprint includes the step counter, so
  a state reached by a longer path (different remaining ``max_steps``
  budget) or a cycle within one execution never aliases a cached entry.

A random walk has neither guard: a state it passed through is not an
explored subtree, and a cache fed by walks prunes almost every later
execution after a few points (``docs/reduction.md``).  That is why the
refusal exists.
"""

from __future__ import annotations

from array import array
from collections import deque
from _blake2 import blake2b  # what hashlib.blake2b is, without OpenSSL
from threading import get_ident
from types import MemberDescriptorType
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.events import Event, MachineId
from ..errors import PSharpError
from .trace import REASON_STATE

__all__ = [
    "DIGEST_SIZE",
    "REDUCTION_MODES",
    "REASON_STATE",
    "ReductionEngine",
    "machine_digest",
    "machine_update",
    "monitor_digest",
    "monitor_update",
    "normalize_reduction",
    "stable_update",
    "state_fingerprint",
]

#: Reduction modes a campaign may name, each for the DFS family only.
#: "dpor" arms the race analysis; "+state-cache" additionally prunes
#: revisited states.  "+clauses" is another name for
#: "dpor+state-cache": its learned-clause store never pruned a schedule
#: and is gone, the name stays because benchmark configurations pass it.
REDUCTION_MODES = ("none", "dpor", "dpor+state-cache", "dpor+state-cache+clauses")

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
# Stable encoding of values
# ----------------------------------------------------------------------
Update = Callable[[bytes], None]
Encoder = Callable[[Update, Any], None]


def stable_update(update: Update, obj: object) -> None:
    """Feed a stable byte encoding of ``obj`` into ``update`` — a hash's
    ``update``, or a list's ``append`` to capture the stream.

    Stability contract: equal values produce equal byte streams across
    processes, back-ends and ``PYTHONHASHSEED`` values — which is why
    this never goes through built-in ``hash()``.  Every value is
    type-tagged and self-delimiting (counts and lengths are prefixed), so
    ``[1, 2]`` / ``(1, 2)`` / ``"12"`` cannot collide and the stream is
    an injective code of the value; dicts and sets are made
    order-independent by encoding each element on its own and emitting
    the encodings sorted.  The encoder of a value is looked up by its
    *exact* type in :data:`_ENCODERS`; a type met for the first time is
    resolved once (:func:`_resolve_encoder`) and cached there.
    """
    _ENCODERS[type(obj)](update, obj)


def _encode_none(update: Update, obj: None) -> None:
    update(b"\x00N")


def _encode_bool(update: Update, obj: bool) -> None:
    update(b"\x00T" if obj else b"\x00F")


def _encode_int(update: Update, obj: int) -> None:
    update(b"\x00i%d" % obj)


def _encode_str(update: Update, obj: str) -> None:
    data = obj.encode("utf-8", "surrogatepass")
    update(b"\x00s%d:%b" % (len(data), data))


def _encode_float(update: Update, obj: float) -> None:
    update(b"\x00f%b" % repr(obj).encode("ascii"))


def _encode_bytes(update: Update, obj: bytes) -> None:
    update(b"\x00b%d:%b" % (len(obj), obj))


def _encode_machine_id(update: Update, obj: MachineId) -> None:
    update(b"\x00m%d" % obj.value)


def _sequence_encoder(tag: bytes) -> Encoder:
    head = b"\x00%b%%d:" % tag

    def encode(update: Update, obj: "list | tuple") -> None:
        update(head % len(obj))
        for item in obj:
            _ENCODERS[type(item)](update, item)

    return encode


def _encode_dict(update: Update, obj: dict) -> None:
    update(b"\x00d%d:" % len(obj))
    _update_unordered(update, obj.items())


def _encode_set(update: Update, obj: "set | frozenset") -> None:
    update(b"\x00S%d:" % len(obj))
    _update_unordered(update, obj)


def _update_unordered(update: Update, items: Iterable[Any]) -> None:
    """Encode an unordered collection: each element on its own, then the
    encodings sorted — order-independent and key-order-proof without
    requiring the elements to be comparable, and, each encoding being
    self-delimiting, still injective."""
    encoded = []
    for item in items:
        parts: List[bytes] = []
        _ENCODERS[type(item)](parts.append, item)
        encoded.append(b"".join(parts))
    encoded.sort()
    update(b"".join(encoded))


def _update_fields(update: Update, fields: Dict[str, Any]) -> None:
    """Named attributes (of a machine, a monitor, a plain object): the
    names sorted, then the values in that order.  An attribute name holds
    no NUL, so the joined names parse back."""
    names = sorted(fields)
    update(b"\x00a%d:%b" % (len(names), "\x00".join(names).encode()))
    for name in names:
        value = fields[name]
        _ENCODERS[type(value)](update, value)


def _class_tag(tag: bytes, cls: type) -> bytes:
    name = f"{cls.__module__}:{cls.__qualname__}".encode("utf-8", "surrogatepass")
    return b"\x00%b%d:%b" % (tag, len(name), name)


def _encode_class(update: Update, obj: type) -> None:
    update(_class_tag(b"C", obj))


def _event_encoder(cls: type) -> Encoder:
    """An event is its class name (what a state's dispatch is declared
    over) and its payload; the tag and name bytes are fixed per class."""
    name = cls.__name__.encode("utf-8", "surrogatepass")
    head = b"\x00E%d:%b" % (len(name), name)
    bare = head + b"\x00N"

    def encode(update: Update, obj: Event) -> None:
        payload = getattr(obj, "payload", None)
        if payload is None:
            update(bare)
        else:
            update(head)
            _ENCODERS[type(payload)](update, payload)

    return encode


#: ``(id, thread)`` of every object whose attributes are being encoded
#: right now: the cycle guard of :func:`_object_encoder`, after
#: ``reprlib.recursive_repr``.  Empty between calls.
_encoding: Set[Tuple[int, int]] = set()


def _object_encoder(cls: type) -> Encoder:
    """A plain object — default ``repr``, which embeds an address — is
    its class and its instance attributes: ``__dict__`` sorted by name,
    then the assigned ``__slots__`` of every class in the MRO.  An object
    met again while its own attributes are being encoded is emitted as a
    back-reference, so a cycle terminates."""
    head = _class_tag(b"o", cls)
    slots = [
        (name, member)
        for klass in cls.__mro__
        for name, member in vars(klass).items()
        if type(member) is MemberDescriptorType
    ]

    def encode(update: Update, obj: object) -> None:
        guard = (id(obj), get_ident())
        if guard in _encoding:
            update(b"\x00^")
            return
        _encoding.add(guard)
        try:
            update(head)
            _update_fields(update, getattr(obj, "__dict__", {}))
            assigned = {}
            for name, member in slots:
                try:
                    assigned[name] = member.__get__(obj)
                except AttributeError:  # declared, never assigned
                    pass
            _update_fields(update, assigned)
        finally:
            _encoding.discard(guard)

    return encode


def _repr_encoder(cls: type) -> Encoder:
    """A type with a ``repr`` of its own (enums, dataclasses, subclasses
    of the built-in containers) is that text — unless the text embeds an
    address after all (a function, a dataclass holding a plain object),
    in which case it is encoded by its attributes."""
    by_attributes = _object_encoder(cls)

    def encode(update: Update, obj: object) -> None:
        text = repr(obj)
        if " at 0x" in text:
            by_attributes(update, obj)
        else:
            data = text.encode("utf-8", "replace")
            update(b"\x00r%d:%b" % (len(data), data))

    return encode


def _resolve_encoder(cls: type) -> Encoder:
    """The encoder of a type with no entry of its own in the table: the
    one place that tests a type, run once per type."""
    if issubclass(cls, Event):
        return _event_encoder(cls)
    if issubclass(cls, type):
        return _encode_class
    if cls.__repr__ is object.__repr__:
        return _object_encoder(cls)
    return _repr_encoder(cls)


class _EncoderTable(dict):
    """Exact type -> encoder; a miss resolves the type and keeps it."""

    def __missing__(self, cls: type) -> Encoder:
        encoder = self[cls] = _resolve_encoder(cls)
        return encoder


#: Exact type -> encoder.  Holds functions, never values: one entry per
#: type the process has ever encoded.
_ENCODERS = _EncoderTable({
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    str: _encode_str,
    float: _encode_float,
    bytes: _encode_bytes,
    MachineId: _encode_machine_id,
    list: _sequence_encoder(b"l"),
    tuple: _sequence_encoder(b"t"),
    dict: _encode_dict,
    set: _encode_set,
    frozenset: _encode_set,
})


# ----------------------------------------------------------------------
# State fingerprints: one digest per machine and monitor, composed
# ----------------------------------------------------------------------
#: Bytes of every digest below: BLAKE2b-128.  A digest starts as a copy
#: of one blank hash, a quarter of the cost of constructing one.
DIGEST_SIZE = 16
_BLANK = blake2b(digest_size=DIGEST_SIZE)


def machine_update(update: Update, machine: Any, consumed: Optional[List[int]]) -> None:
    """Feed everything one machine contributes to the program state:
    identity, halted flag, class, current state, the raised-event slot,
    the event being handled, the inbox, the user-defined fields
    (``__dict__``) sorted by name, and ``consumed`` — the log of
    nondeterministic outcomes the machine has consumed this execution
    (two executions in the same visible state but holding different
    ``nondet()`` results have different futures; the log is what makes
    the encoding sound for a handler suspended mid-way)."""
    state = machine._current_state
    update(b"\x00M%d:%d:%b\x00%b" % (
        machine._id.value,
        machine._halted,
        type(machine).__name__.encode(),
        b"" if state is None else state.name.encode(),
    ))
    event = machine._raised
    _ENCODERS[type(event)](update, event)
    event = machine._current_event
    _ENCODERS[type(event)](update, event)
    inbox = machine._inbox
    update(b"\x00q%d:" % len(inbox))
    for event in inbox:
        _ENCODERS[type(event)](update, event)
    _update_fields(update, machine.__dict__)
    _ENCODERS[type(consumed)](update, consumed)


def monitor_update(update: Update, monitor: Any) -> None:
    """Feed everything one specification monitor contributes: its
    registration index, current state (which fixes its temperature) and
    fields.  Not the event it handled last: a monitor runs each handler
    to completion, so no later handler can read it."""
    update(b"\x00O%d" % monitor._monitor_index)
    state = monitor.current_state
    _ENCODERS[type(state)](update, state)
    _update_fields(update, monitor.__dict__)


def machine_digest(machine: Any, consumed: Optional[List[int]]) -> bytes:
    """The digest of :func:`machine_update`'s stream."""
    h = _BLANK.copy()
    machine_update(h.update, machine, consumed)
    return h.digest()


def monitor_digest(monitor: Any) -> bytes:
    """The digest of :func:`monitor_update`'s stream."""
    h = _BLANK.copy()
    monitor_update(h.update, monitor)
    return h.digest()


def compose_fingerprint(digests: List[bytes], steps: int, faults: int) -> bytes:
    """The fingerprint of a program state from the digests of its parts
    (machines in creation order, then monitors) and the two execution
    counters.  The step budget spent is part of the state: two merged
    states with different step counts have different remaining budgets
    under ``max_steps``, so treating them as equal would be unsound —
    ditto the fault budget."""
    h = _BLANK.copy()
    h.update(b"%b\x00#%d:%d" % (b"".join(digests), steps, faults))
    return h.digest()


def state_fingerprint(
    machines: Iterable[Any],
    monitors: Iterable[Any],
    consumed: Optional[Dict[int, List[int]]],
    steps: int,
    faults: int,
) -> bytes:
    """The fingerprint computed from scratch: every machine and monitor
    digested.  What :meth:`ReductionEngine.fingerprint` must always equal
    (``tests/test_fingerprint.py`` holds it to that at every cache
    consultation), and what runs when no engine is attached."""
    log = consumed or {}
    digests = [machine_digest(m, log.get(m._id.value)) for m in machines]
    digests += [monitor_digest(m) for m in monitors]
    return compose_fingerprint(digests, steps, faults)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ReductionEngine:
    """Campaign-lifetime reduction state shared by the runtime (step
    footprints, state cache) and the DFS-family strategies (race
    analysis, backtrack insertion, prefix gating).

    One engine serves one campaign loop: :func:`repro.testing.engine
    .run_campaign` constructs it next to the coverage map, attaches it to
    the strategy (:meth:`~repro.testing.strategies.SchedulingStrategy
    .attach_reduction`, which refuses it off the DFS family) and hands it
    to the runtime (``BugFindingRuntime(reduction=...)``).

    The step log covers the most recent execution only: ``effects``, the
    objects every step touched, with the machine a decision chose at the
    offset ``_bounds`` keeps for it, and ``_depths``, the DFS frame depth
    of each decision a frame bound, by decision index.  The seen-set
    (``_seen``, ``_uses``) and the counters span the campaign.
    ``diverged`` — whether the cache may be consulted at the current
    scheduling point — is the DFS strategy's to set; it starts set, as a
    fresh search has no prefix to replay.
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
        self.cache_on = mode != "dpor"
        self.state_cache_size = state_cache_size
        # Campaign-level counters (telemetry; see TestReport).
        self.distinct_states = 0
        self.state_prunes = 0
        self.branches_pruned = 0
        # Exact cost counters of the state cache: consultations that
        # hashed, and machine/monitor digests actually computed for them
        # (reused = parts x fingerprints - computed).
        self.fingerprints = 0
        self.machine_digests = 0
        # Campaign-level store, an exact LRU: every consultation of a
        # state appends a use of its fingerprint to ``_uses``, and
        # ``_seen`` counts the uses of each fingerprint still queued
        # there (see check_state).
        self._seen: Dict[bytes, int] = {}
        self._uses: "deque[bytes]" = deque()
        # Past the replayed prefix of a DFS iteration (see the module
        # docstring's divergence gating).
        self.diverged = True
        # Per-execution step log (see begin_execution).
        self.effects: List[int] = []
        # Scheduling points of the execution where a DPOR frame offered
        # one branch while more machines were enabled: the runtime
        # consulted the strategy, but the reduction had decided.  The
        # runtime subtracts them from its consulted count, so that the
        # telemetry keeps counting real branching.
        self.forced = 0
        # Decision i chose effects[_bounds[i]]; its frame depth is
        # _depths[i] if a DFS frame bound it (see bind_frame).
        self._bounds = array("i")
        self._depths: Dict[int, int] = {}
        # Per-execution digest memo (see fingerprint): effects key ->
        # (digest, inbox length when digested), current up to
        # effects[:_digested].
        self._digests: Dict[int, Tuple[bytes, int]] = {}
        self._digested = 0

    def counters(self) -> Dict[str, int]:
        """The campaign counters a :class:`TestReport` (and its
        ``shard_end`` event) carries, by field name."""
        return dict(
            distinct_states=self.distinct_states,
            branches_pruned=self.branches_pruned,
            state_prunes=self.state_prunes,
            fingerprints=self.fingerprints,
            machine_digests=self.machine_digests,
        )

    # -- per-execution lifecycle ---------------------------------------
    def begin_execution(self) -> None:
        """Reset the step log for a fresh execution (campaign-level
        stores and counters persist)."""
        self.effects.clear()
        self.forced = 0
        del self._bounds[:]
        self._depths.clear()
        self._digests.clear()
        self._digested = 0

    def reset_search(self) -> None:
        """Forget the seen states of the *current* systematic search
        while keeping the campaign counters.  Iterative deepening calls
        this at every depth increase, from its one ``prepare_iteration``:
        the deepened DFS re-explores the whole tree, and states cached by
        the shallower pass would otherwise prune it to nothing."""
        self._seen.clear()
        self._uses.clear()

    # -- step log (runtime side) ---------------------------------------
    def bind_frame(self, depth: int) -> None:
        """Called by a DPOR strategy inside ``pick_machine``: associate
        the decision being made — the next one :meth:`chose` logs — with
        its stack-frame depth, so the race analysis can insert backtrack
        points at it.  A decision no frame bound (forced, or past the
        depth cap) stores no depth."""
        self._depths[len(self._bounds)] = depth

    def chose(self, value: int) -> None:
        """A scheduling decision was recorded: machine ``value`` starts a
        new step.  The stepping machine itself is always part of the
        step's footprint (its program counter and inbox advance).  What
        was enabled there is the strategy's frame's to know."""
        effects = self.effects
        self._bounds.append(len(effects))
        effects.append(value)

    # -- DPOR analysis (strategy side) ---------------------------------
    def analyze(self, add_backtrack: Callable[[int, int], None]) -> None:
        """Scan the last execution's step log for races and insert
        backtrack points via ``add_backtrack(frame_depth, racer)``.

        For each object a step touched, the *last* earlier step by a
        different machine touching the same object is a race: the racing
        machine is offered as a backtrack branch to that step's decision
        frame, which holds the enabled set and adds the racer if it was
        enabled there, else every machine that was.  Races shadowed by a
        nearer access are found transitively over subsequent iterations,
        the standard last-access argument.  Steps whose decision was
        forced (no frame depth stored) had no alternative to insert, so
        they are skipped."""
        bounds = self._bounds
        n = len(bounds)
        if not n:
            return
        effects = self.effects
        depths = self._depths
        last: dict = {}
        i = -1
        # What _spawn logged for the main machine precedes decision 0.
        stop = bounds[0]
        for k in range(stop, len(effects)):
            obj = effects[k]
            if k == stop:
                # Step i + 1 starts with the machine its decision chose.
                i += 1
                chosen = obj
                stop = bounds[i + 1] if i + 1 < n else -1
            j = last.get(obj)
            if j is not None:
                prev_depth = depths.get(j)
                if prev_depth is not None and effects[bounds[j]] != chosen:
                    add_backtrack(prev_depth, chosen)
            last[obj] = i

    def count_skipped(self, count: int) -> None:
        """A DPOR frame was exhausted and popped with ``count`` enabled
        branches never materialized: the race analysis proved no
        dependent transition needed them."""
        if count > 0:
            self.branches_pruned += count

    # -- state cache (runtime side) ------------------------------------
    def fingerprint(
        self,
        machines: Iterable[Any],
        monitors: Iterable[Any],
        consumed: Dict[int, List[int]],
        steps: int,
        faults: int,
    ) -> bytes:
        """:func:`state_fingerprint` of the current scheduling point,
        re-digesting only what changed since the previous call.

        The one invalidation rule: a machine's or monitor's digest is
        reused iff nothing touched it since it was computed.  Two things
        can touch a machine that is not stepping.  A step of another
        machine: every such touch is an entry of ``effects`` — the log
        DPOR's race analysis is only sound if complete — so the entries
        appended since the last call name exactly the stale digests.
        And the scheduler's idle drain (``_schedulable``), which runs
        *after* the check at a scheduling point and deletes events the
        parked machine's state ignores: it can only shorten the inbox,
        and every enqueue is in the log, so an inbox as long as when it
        was digested has not been drained.  Exact for programs that
        respect ownership (a payload is not written after it is sent),
        which is what DPOR's footprints already assume."""
        memo = self._digests
        if memo:
            for key in self.effects[self._digested:]:
                memo.pop(key, None)
        self._digested = len(self.effects)
        digests = []
        computed = 0
        for machine in machines:
            key = machine._id.value
            size = len(machine._inbox)
            entry = memo.get(key)
            if entry is None or entry[1] != size:
                entry = memo[key] = (machine_digest(machine, consumed.get(key)), size)
                computed += 1
            digests.append(entry[0])
        for monitor in monitors:
            key = monitor._id.value  # -(registration index + 1)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = (monitor_digest(monitor), 0)
                computed += 1
            digests.append(entry[0])
        self.fingerprints += 1
        self.machine_digests += computed
        return compose_fingerprint(digests, steps, faults)

    def check_state(self, fingerprint: bytes) -> int:
        """Consult (and update) the seen-set for the state at the current
        scheduling point.  Returns a prune reason code (0: fresh state,
        keep executing)."""
        seen = self._seen
        uses = self._uses
        uses.append(fingerprint)
        queued = seen.get(fingerprint)
        if queued is not None:
            seen[fingerprint] = queued + 1
            self.state_prunes += 1
            if len(uses) > 2 * len(seen):
                self._compact_uses()
            return REASON_STATE
        seen[fingerprint] = 1
        if len(seen) > self.state_cache_size:
            # Evict the least recently used state: the leftmost use that
            # is the last queued use of its fingerprint.  Uses left of it
            # are stale (their fingerprint was used again since).
            while True:
                old = uses.popleft()
                queued = seen[old] - 1
                if not queued:
                    del seen[old]
                    break
                seen[old] = queued
        self.distinct_states += 1
        return 0

    def _compact_uses(self) -> None:
        """Drop every stale use, keeping each fingerprint's last in
        order, so cache hits cannot grow the queue past twice the
        seen-set."""
        seen = self._seen
        kept: "deque[bytes]" = deque()
        for fingerprint in self._uses:
            queued = seen[fingerprint]
            if queued == 1:
                kept.append(fingerprint)
            else:
                seen[fingerprint] = queued - 1
        self._uses = kept
