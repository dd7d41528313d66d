"""Operational semantics of the core language (Figures 3 and 4).

The interpreter executes system configurations ``(h, M)`` where ``h`` is a
heap shared between machines and ``M`` maps machine identifiers to machine
configurations ``(m, q, E, l, S, ss)`` — machine, current state, event
queue, local store, call stack and statements left to execute.

Transitions follow the paper's three rules:

INTERNAL
    execute one statement of one machine (Figure 3's small-step rules);
SEND
    append the event to the destination's queue (including self-sends);
RECEIVE
    when a machine has no statement left, use the transition function
    ``T_m`` to find the first handleable queued event, move to the next
    state and invoke its method with the payload.

The interleaving of machines is decided by a pluggable ``chooser`` — a
step-granularity scheduler used by the systematic explorer and by the
dynamic race detector tests.  The race detector implements the paper's
Section 5 definition via vector clocks: two accesses to the same
``(object, field)`` from different machines race when they are causally
unordered (no chain of send/receive or creation edges between them) and
at least one is a write.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from .ir import (
    Assert,
    Assign,
    Call,
    Const,
    CreateMachine,
    External,
    If,
    LoadField,
    MethodDecl,
    New,
    Nondet,
    Op,
    Program,
    Return,
    Send,
    StoreField,
    Stmt,
    While,
)


class InterpreterError(Exception):
    """A genuine bug in the interpreted program (assertion failure etc.)."""


@dataclass(frozen=True)
class Ref:
    """A heap reference (the paper's ``ref``)."""

    id: int
    cls: str

    def __repr__(self) -> str:
        return f"&{self.cls}#{self.id}"


@dataclass(frozen=True)
class MachineVal:
    """A machine identifier value (member of the paper's ``ID`` set)."""

    id: int
    name: str = ""

    def __repr__(self) -> str:
        return f"#{self.name}{self.id}"


@dataclass
class RaceReport:
    """Two causally-unordered conflicting accesses to the same field."""

    label: Any  # names the accessed object: its Ref, or a CHESS machine
    field: str
    first_machine: int
    first_stmt: str
    second_machine: int
    second_stmt: str
    second_is_write: bool

    def __str__(self) -> str:
        kind = "write" if self.second_is_write else "read"
        return (
            f"race on {self.label}.{self.field}: machine {self.first_machine} "
            f"({self.first_stmt}) vs machine {self.second_machine} "
            f"{kind} ({self.second_stmt})"
        )


class _VectorClock:
    __slots__ = ("clocks",)

    def __init__(self, clocks: Optional[Dict[int, int]] = None) -> None:
        self.clocks: Dict[int, int] = dict(clocks or {})

    def tick(self, mid: int) -> None:
        self.clocks[mid] = self.clocks.get(mid, 0) + 1

    def join(self, other: "_VectorClock") -> None:
        for mid, clock in other.clocks.items():
            if clock > self.clocks.get(mid, 0):
                self.clocks[mid] = clock

    def copy(self) -> "_VectorClock":
        return _VectorClock(self.clocks)

    def happens_before(self, other: "_VectorClock") -> bool:
        """self <= other componentwise."""
        return all(clock <= other.clocks.get(mid, 0) for mid, clock in self.clocks.items())


class RaceDetector:
    """Vector-clock based detector for the paper's data race definition.

    The core-calculus interpreter drives it, and so does the CHESS
    baseline (:class:`repro.chess.ChessRuntime`) with race detection on.
    """

    def __init__(self) -> None:
        self._clocks: Dict[int, _VectorClock] = {}
        self.races: List[RaceReport] = []
        # (object key, field) -> (last write, reads since then)
        self._writes: Dict[Tuple[Hashable, str], Tuple[int, _VectorClock, str]] = {}
        self._reads: Dict[Tuple[Hashable, str], List[Tuple[int, _VectorClock, str]]] = {}

    def clock_of(self, mid: int) -> _VectorClock:
        if mid not in self._clocks:
            self._clocks[mid] = _VectorClock({mid: 0})
        return self._clocks[mid]

    def on_send(self, sender: int) -> _VectorClock:
        clock = self.clock_of(sender)
        clock.tick(sender)
        return clock.copy()

    def on_receive(self, receiver: int, snapshot: Optional[_VectorClock]) -> None:
        clock = self.clock_of(receiver)
        if snapshot is not None:
            clock.join(snapshot)
        clock.tick(receiver)

    def on_create(self, creator: int, created: int) -> None:
        snapshot = self.clock_of(creator)
        snapshot.tick(creator)
        self.clock_of(created).join(snapshot)

    def on_access(
        self, mid: int, obj: Hashable, label: Any, field: str, is_write: bool, stmt: str
    ) -> None:
        """Machine ``mid`` accesses ``field`` of the object ``obj``
        identifies and reports name ``label``."""
        key = (obj, field)
        clock = self.clock_of(mid)
        last_write = self._writes.get(key)
        if last_write is not None:
            write_mid, write_clock, write_stmt = last_write
            if write_mid != mid and not write_clock.happens_before(clock):
                self.races.append(
                    RaceReport(label, field, write_mid, write_stmt, mid, stmt, is_write)
                )
        if is_write:
            for read_mid, read_clock, read_stmt in self._reads.get(key, []):
                if read_mid != mid and not read_clock.happens_before(clock):
                    self.races.append(
                        RaceReport(label, field, read_mid, read_stmt, mid, stmt, True)
                    )
            self._writes[key] = (mid, clock.copy(), stmt)
            self._reads[key] = []
        else:
            self._reads.setdefault(key, []).append((mid, clock.copy(), stmt))


@dataclass
class _Frame:
    method: MethodDecl
    locals: Dict[str, Any]
    todo: List[Stmt]
    dst: Optional[str] = None  # caller variable receiving the return value


class _MachineConfig:
    """The paper's machine configuration ``(m, q, E, l, S, ss)``."""

    def __init__(self, interp: "Interpreter", mid: MachineVal, decl_name: str) -> None:
        self.interp = interp
        self.mid = mid
        self.decl = interp.program.machines[decl_name]
        self.state = self.decl.initial_state
        self.queue: List[Tuple[str, Any, Any]] = []  # (event, value, vc snapshot)
        self.frames: List[_Frame] = []
        self.self_ref = interp.allocate(self.decl.class_name)
        self.halted = False

    # -- enabledness ----------------------------------------------------
    def receivable_index(self) -> Optional[int]:
        """Index of the first queued event ``T_m`` is willing to handle."""
        for index, (event, _value, _vc) in enumerate(self.queue):
            if self.decl.transition(self.state, event) is not None:
                return index
        return None

    def enabled(self) -> bool:
        if self.halted:
            return False
        if self.frames and self.frames[-1].todo:
            return True
        return not self.frames and self.receivable_index() is not None

    # -- frame management -------------------------------------------------
    def push_method(
        self, method: MethodDecl, args: List[Any], dst: Optional[str], this: Any
    ) -> None:
        if len(args) != len(method.params):
            raise InterpreterError(
                f"{method.name} expects {len(method.params)} args, got {len(args)}"
            )
        locals_: Dict[str, Any] = {"this": this, "me": self.mid}
        for param, arg in zip(method.params, args):
            locals_[param.name] = arg
        for local in method.locals:
            locals_[local.name] = None
        self.frames.append(_Frame(method, locals_, list(method.body), dst))


class Interpreter:
    """Executes a :class:`Program` under a controllable schedule.

    Parameters
    ----------
    program:
        The parsed program.
    instances:
        Names of machine declarations to instantiate initially (defaults
        to every declared machine, in declaration order — the paper's
        initial system configuration over the identifier set ``ID``).
    chooser:
        ``chooser(options: int, kind: str) -> int`` — the scheduling /
        nondeterminism oracle.  Defaults to uniform random.
    detect_races:
        Attach a :class:`RaceDetector` and monitor every heap access.
    """

    def __init__(
        self,
        program: Program,
        instances: Optional[List[str]] = None,
        chooser: Optional[Callable[[int, str], int]] = None,
        detect_races: bool = True,
        max_steps: int = 100_000,
        seed: int = 0,
    ) -> None:
        self.program = program
        self.heap: Dict[Tuple[int, str], Any] = {}
        self._next_ref = itertools.count()
        self._rng = random.Random(seed)
        self.chooser = chooser or (lambda n, kind: self._rng.randrange(n))
        self.detector = RaceDetector() if detect_races else None
        self.max_steps = max_steps
        self.steps = 0
        self.machines: List[_MachineConfig] = []
        self.error: Optional[str] = None
        for name in instances if instances is not None else list(program.machines):
            self._create_machine(name, creator=None, payload=None)

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def allocate(self, cls: str) -> Ref:
        ref = Ref(next(self._next_ref), cls)
        klass = self.program.classes.get(cls)
        if klass is not None:
            for fld in klass.fields:
                self.heap[(ref.id, fld.name)] = None
        return ref

    def _create_machine(
        self, decl_name: str, creator: Optional[_MachineConfig], payload: Any
    ) -> MachineVal:
        mid = MachineVal(len(self.machines), decl_name)
        config = _MachineConfig(self, mid, decl_name)
        self.machines.append(config)
        if self.detector is not None and creator is not None:
            self.detector.on_create(creator.mid.id, mid.id)
        init = self.program.method(config.decl.class_name, config.decl.initial)
        if init is None:
            raise InterpreterError(
                f"machine {decl_name} lacks initial method {config.decl.initial!r}"
            )
        args: List[Any] = []
        if len(init.params) == 1:
            args = [payload]
        config.push_method(init, args, None, config.self_ref)
        return mid

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def enabled_machines(self) -> List[_MachineConfig]:
        return [m for m in self.machines if m.enabled()]

    def run(self) -> Optional[str]:
        """Run until quiescence, error, or the step bound.  Returns the
        error message (assertion failure etc.) or None."""
        while self.error is None:
            enabled = self.enabled_machines()
            if not enabled:
                break
            self.steps += 1
            if self.steps > self.max_steps:
                self.error = "step bound exceeded (potential livelock)"
                break
            choice = self.chooser(len(enabled), "sched")
            machine = enabled[choice % len(enabled)]
            try:
                self._step(machine)
            except InterpreterError as exc:
                self.error = str(exc)
        return self.error

    @property
    def races(self) -> List[RaceReport]:
        return self.detector.races if self.detector is not None else []

    def _step(self, machine: _MachineConfig) -> None:
        if machine.frames and machine.frames[-1].todo:
            stmt = machine.frames[-1].todo.pop(0)
            self._execute(machine, machine.frames[-1], stmt)
            # Implicit return at end of a void method body.
            while machine.frames and not machine.frames[-1].todo:
                finished = machine.frames.pop()
                if machine.frames and finished.dst is not None:
                    machine.frames[-1].locals[finished.dst] = None
            return
        # RECEIVE rule.
        index = machine.receivable_index()
        assert index is not None
        event, value, snapshot = machine.queue.pop(index)
        handler = machine.decl.transition(machine.state, event)
        assert handler is not None
        if self.detector is not None:
            self.detector.on_receive(machine.mid.id, snapshot)
        machine.state = handler.next_state
        method = self.program.method(machine.decl.class_name, handler.method)
        if method is None:
            raise InterpreterError(
                f"machine {machine.decl.name} lacks method {handler.method!r}"
            )
        args = [value] if len(method.params) == 1 else []
        machine.push_method(method, args, None, machine.self_ref)

    # ------------------------------------------------------------------
    # Statement execution (Figure 3)
    # ------------------------------------------------------------------
    def _value(self, frame: _Frame, name: str) -> Any:
        if name in frame.locals:
            return frame.locals[name]
        # Numeric / boolean literals appearing as operands.
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "null":
            return None
        try:
            return int(name)
        except ValueError:
            pass
        try:
            return float(name)
        except ValueError:
            pass
        raise InterpreterError(f"unbound variable {name!r} in {frame.method.name}")

    def _execute(self, machine: _MachineConfig, frame: _Frame, stmt: Stmt) -> None:
        locals_ = frame.locals

        if isinstance(stmt, Assign):
            locals_[stmt.dst] = self._value(frame, stmt.src)
        elif isinstance(stmt, Const):
            locals_[stmt.dst] = stmt.value
        elif isinstance(stmt, Op):
            locals_[stmt.dst] = self._apply_op(
                stmt.op, self._value(frame, stmt.left), self._value(frame, stmt.right)
            )
        elif isinstance(stmt, StoreField):
            this = locals_["this"]
            if not isinstance(this, Ref):
                raise InterpreterError(f"this is not a reference: {this!r}")
            self._access(machine, this, stmt.field, True, stmt)
            self.heap[(this.id, stmt.field)] = self._value(frame, stmt.src)
        elif isinstance(stmt, LoadField):
            this = locals_["this"]
            if not isinstance(this, Ref):
                raise InterpreterError(f"this is not a reference: {this!r}")
            self._access(machine, this, stmt.field, False, stmt)
            locals_[stmt.dst] = self.heap.get((this.id, stmt.field))
        elif isinstance(stmt, New):
            locals_[stmt.dst] = self.allocate(stmt.cls)
        elif isinstance(stmt, Call):
            self._call(machine, frame, stmt)
        elif isinstance(stmt, Send):
            self._send(machine, frame, stmt)
        elif isinstance(stmt, Return):
            value = self._value(frame, stmt.var) if stmt.var is not None else None
            frame.todo.clear()
            machine.frames.pop()
            if machine.frames and frame.dst is not None:
                machine.frames[-1].locals[frame.dst] = value
        elif isinstance(stmt, If):
            branch = stmt.then_body if self._value(frame, stmt.cond) else stmt.else_body
            frame.todo[:0] = branch
        elif isinstance(stmt, While):
            if self._value(frame, stmt.cond):
                frame.todo[:0] = list(stmt.body) + [stmt]
        elif isinstance(stmt, Assert):
            if not self._value(frame, stmt.var):
                raise InterpreterError(
                    f"assertion failed in {machine.decl.name}.{frame.method.name}"
                    f" at {stmt.loc or '?'}: {stmt.message}"
                )
        elif isinstance(stmt, Nondet):
            locals_[stmt.dst] = bool(self.chooser(2, "bool"))
        elif isinstance(stmt, External):
            # An opaque, freshly-allocated object of unknown class.
            locals_[stmt.dst] = self.allocate("$external")
        elif isinstance(stmt, CreateMachine):
            payload = self._value(frame, stmt.arg) if stmt.arg is not None else None
            locals_[stmt.dst] = self._create_machine(stmt.machine, machine, payload)
        else:  # pragma: no cover
            raise InterpreterError(f"unknown statement {stmt!r}")

    def _apply_op(self, op: str, left: Any, right: Any) -> Any:
        table: Dict[str, Callable[[Any, Any], Any]] = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
            "%": lambda a, b: a % b,
            "<": lambda a, b: a < b,
            ">": lambda a, b: a > b,
            "<=": lambda a, b: a <= b,
            ">=": lambda a, b: a >= b,
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "&&": lambda a, b: bool(a) and bool(b),
            "||": lambda a, b: bool(a) or bool(b),
        }
        if op not in table:
            raise InterpreterError(f"unknown operator {op!r}")
        return table[op](left, right)

    def _access(
        self,
        machine: _MachineConfig,
        ref: Ref,
        field: str,
        is_write: bool,
        stmt: Stmt,
    ) -> None:
        if self.detector is not None:
            self.detector.on_access(
                machine.mid.id, ref.id, ref, field, is_write, f"{stmt} @{stmt.loc or '?'}"
            )

    def _call(self, machine: _MachineConfig, frame: _Frame, stmt: Call) -> None:
        recv = self._value(frame, stmt.recv)
        if not isinstance(recv, Ref):
            raise InterpreterError(
                f"receiver {stmt.recv!r} is not an object: {recv!r}"
            )
        method = self.program.method(recv.cls, stmt.method)
        if method is None:
            raise InterpreterError(f"{recv.cls} has no method {stmt.method!r}")
        args = [self._value(frame, a) for a in stmt.args]
        machine.push_method(method, args, stmt.dst, recv)

    def _send(self, machine: _MachineConfig, frame: _Frame, stmt: Send) -> None:
        dst = self._value(frame, stmt.dst)
        if not isinstance(dst, MachineVal):
            raise InterpreterError(f"send target {stmt.dst!r} is not a machine: {dst!r}")
        value = self._value(frame, stmt.arg) if stmt.arg is not None else None
        snapshot = None
        if self.detector is not None:
            snapshot = self.detector.on_send(machine.mid.id)
        target = self.machines[dst.id]
        if not target.halted:
            target.queue.append((stmt.event, value, snapshot))


# ---------------------------------------------------------------------------
# Systematic exploration (used to cross-validate the static analysis)
# ---------------------------------------------------------------------------
@dataclass
class ExplorationResult:
    schedules: int
    races: List[RaceReport]
    errors: List[str]
    exhausted: bool

    @property
    def race_free(self) -> bool:
        return not self.races


def explore(
    program: Program,
    instances: Optional[List[str]] = None,
    max_schedules: int = 2_000,
    max_steps: int = 2_000,
    detect_races: bool = True,
) -> ExplorationResult:
    """Systematically explore the statement-level interleavings of a
    program, collecting dynamic races and errors across all schedules.

    This is the ground truth against which the static analysis of
    Section 5 is validated: if the analysis claims race-freedom, no
    explored schedule may exhibit a race (Theorem 5.1).

    The choices are enumerated by the tester's DFS stack: every
    scheduling and ``nondet`` choice is one value frame.  A step makes at
    most two choices, so a depth cap of ``2 * max_steps`` never binds.
    """
    # Deferred: importing the core calculus loads no part of the tester.
    from ..testing.strategies import DfsStrategy

    dfs = DfsStrategy(max_depth=2 * max_steps)
    races: List[RaceReport] = []
    errors: List[str] = []
    schedules = 0
    exhausted = False
    while schedules < max_schedules:
        if not dfs.prepare_iteration():
            exhausted = True
            break
        interp = Interpreter(
            program,
            instances=instances,
            chooser=lambda options, kind: dfs.pick_int(options),
            detect_races=detect_races,
            max_steps=max_steps,
        )
        error = interp.run()
        schedules += 1
        races.extend(interp.races)
        if error is not None:
            errors.append(error)
    return ExplorationResult(schedules, races, errors, exhausted)
