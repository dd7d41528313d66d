"""Machine programs compiled from generated source text.

The text is registered in ``linecache`` under a name of its own, so
``inspect.getsource``, the frontend's source cut and the inline compiler
read it as they read a file on disk.  Two generators use it: the machine
chain the frontend's settling test runs, and a Hypothesis strategy for
small programs (``tests/test_corpus.py``).
"""

import hashlib
import linecache

import hypothesis.strategies as st

from repro import Event, Machine, State
from repro.testing import FaultConfig, Monitor


def compile_source(source, label="generated"):
    """The namespace ``source`` defines, executed as the file ``<label ...>``."""
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    filename = f"<{label} {digest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": f"{__name__}.{label}"}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def chain_source(n):
    """``n`` machines in a line: ``M0`` sends itself a list; each ``Mi``
    but the last keeps the payload in a field, sends it on to a new
    ``M(i+1)`` and then appends to it — a write after send, ``n - 1`` in
    all.  Lowered last class first, each link's payload type arrives a
    pass after the previous link's."""
    lines = ["from repro import Event, Machine, State", ""]
    for i in range(n):
        lines += [f"class E{i}(Event):", "    pass", ""]
    for i in range(n):
        lines += [
            f"class M{i}(Machine):",
            "    class Init(State):",
            "        initial = True",
            *(['        entry = "start"'] if i == 0 else []),
            f'        actions = {{E{i}: "on_item"}}',
            "",
        ]
        if i == 0:
            lines += ["    def start(self):", "        self.send(self.id, E0([1]))", ""]
        lines += ["    def on_item(self):", "        self.kept = self.payload"]
        if i < n - 1:
            lines += [
                f"        nxt = self.create_machine(M{i + 1})",
                f"        self.send(nxt, E{i + 1}(self.kept))",
                "        self.kept.append(2)",
            ]
        lines.append("")
    return "\n".join(lines)


def chain(n):
    """The machine classes of :func:`chain_source`, ``M0`` first."""
    namespace = compile_source(chain_source(n), f"chain{n}")
    return [namespace[f"M{i}"] for i in range(n)]


# ----------------------------------------------------------------------
# A Hypothesis strategy for small machine programs
# ----------------------------------------------------------------------
#
# A program is plain data, so a counterexample Hypothesis prints can be
# pasted back as a regression:
#
#   program   ::= (machines, faults, monitor)   machines[0] is the main machine
#   machine   ::= (value or None, (state, ...))
#   state     ::= (body or None, (handling of E0, E1, E2))   entry, actions
#   handling  ::= ("do", body) | ("goto", state index) | ("ignore",)
#   body      ::= (stmt, ...)
#   stmt      ::= ("send", "self" | "peer", event index, value)
#               | ("store", field index, value) | ("append",)
#               | ("nondet", body) | ("assert",)    assert under nondet only
#               | ("loop", body)                    at the top only
#               | ("halt",)                         last, at the top only
#   value     ::= "int" | "list" | "id" | "payload"
#   faults    ::= None | (drop, duplicate, delay, crash)
#   monitor   ::= None | (event index, bound)
#
# State 0 is initial and always has an entry.  It starts with
# ``self.peers = [self.id]`` and, in every machine but the last, creates
# the next one with the machine's value as payload and appends its id:
# the machines come up as a line, each once (a crash-restart re-runs the
# entry; ``goto`` never targets state 0).  A "peer" send goes to
# ``self.peers[-1]``.  Every body starts with ``buf = [0]``: a "list"
# value is ``buf`` and ``("append",)`` is ``buf.append(1)``, so a list
# sent and then appended to is a write after send.  A loop runs its body
# twice, as ``while n < 2:`` with the counter stepped by ``n += 1``, so
# the frontend lowers a ``While`` and an augmented assignment.  The monitor
# (``programs()`` always draws one, on an event the program sends if it
# sends any; ``None`` leaves it out) is a safety specification ``Spec``:
# it observes every send of its event and asserts that it has seen at
# most ``bound`` of them.

EVENTS = 3
VALUES = ("int", "list", "id", "payload")
RENDER = {"int": "1", "list": "buf", "id": "self.id", "payload": "self.payload"}


#: The compound statements a body may hold, by the statement enclosing it.
NESTED = {None: ("nondet", "loop"), "nondet": ("assert",), "loop": ()}


def _body(draw, block=None):
    """A body inside the compound statement ``block`` (None: at the top)."""
    stmts = []
    for _ in range(draw(st.integers(0 if block is None else 1, 3))):
        kind = draw(st.sampled_from(["send", "store", "append", *NESTED[block]]))
        if kind == "send":
            stmts.append((
                "send",
                draw(st.sampled_from(["self", "peer"])),
                draw(st.integers(0, EVENTS - 1)),
                draw(st.sampled_from(VALUES)),
            ))
        elif kind == "store":
            stmts.append(("store", draw(st.integers(0, 1)), draw(st.sampled_from(VALUES))))
        elif kind in ("nondet", "loop"):
            stmts.append((kind, _body(draw, kind)))
        else:
            stmts.append((kind,))
    if block is None and draw(st.integers(0, 3)) == 3:  # a quarter of bodies halt
        stmts.append(("halt",))
    return tuple(stmts)


@st.composite
def programs(draw):
    """A program of at most 4 machines with at most 3 states each."""
    count = draw(st.integers(1, 4))
    machines = []
    for index in range(count):
        value = draw(st.sampled_from(VALUES)) if index + 1 < count else None
        state_count = draw(st.integers(1, 3))
        handlings = ["do", "ignore"] + (["goto"] if state_count > 1 else [])
        states = []
        for position in range(state_count):
            entry = _body(draw) if position == 0 or draw(st.booleans()) else None
            handling = []
            for _event in range(EVENTS):
                how = draw(st.sampled_from(handlings))
                if how == "do":
                    handling.append(("do", _body(draw)))
                elif how == "goto":
                    handling.append(("goto", draw(st.integers(1, state_count - 1))))
                else:
                    handling.append(("ignore",))
            states.append((entry, tuple(handling)))
        machines.append((value, tuple(states)))
    faults = None
    if draw(st.booleans()):
        rate = st.sampled_from([0.0, 0.1, 0.3])
        faults = (draw(rate), draw(rate), draw(rate), draw(rate))
    sent = sorted(_sent(machines)) or [0]
    monitor = (draw(st.sampled_from(sent)), draw(st.integers(0, 3)))
    return tuple(machines), faults, monitor


def _sent(node):
    """The events a send statement anywhere inside ``node`` sends."""
    if isinstance(node, tuple):
        if node and node[0] == "send":
            return {node[2]}
        return set().union(*map(_sent, node))
    return set()


def _render(stmt, indent):
    pad = " " * indent
    kind = stmt[0]
    if kind == "send":
        _, target, event, value = stmt
        to = "self.id" if target == "self" else "self.peers[-1]"
        return [f"{pad}self.send({to}, E{event}({RENDER[value]}))"]
    if kind == "store":
        return [f"{pad}self.f{stmt[1]} = {RENDER[stmt[2]]}"]
    if kind == "append":
        return [f"{pad}buf.append(1)"]
    if kind == "nondet":
        lines = [f"{pad}if self.nondet():"]
        for inner in stmt[1]:
            lines += _render(inner, indent + 4)
        return lines
    if kind == "loop":
        lines = [f"{pad}n = 0", f"{pad}while n < 2:"]
        for inner in stmt[1]:
            lines += _render(inner, indent + 4)
        return lines + [f"{pad}    n += 1"]
    if kind == "assert":
        return [f'{pad}self.assert_that(False, "reached")']
    assert kind == "halt", stmt
    return [f"{pad}self.halt()"]


def program_source(program):
    """The handler source of ``program``: one top-level function per
    entry or action, named ``M<machine>_<state>_<entry|E<event>>``."""
    machines, _faults, monitor = program
    lines = []
    for m, (value, states) in enumerate(machines):
        for s, (entry, handling) in enumerate(states):
            bodies = [("entry", entry)] + [
                (f"E{e}", how[1]) for e, how in enumerate(handling) if how[0] == "do"
            ]
            for label, body in bodies:
                if body is None:
                    continue
                lines += [f"def M{m}_{s}_{label}(self):", "    buf = [0]"]
                if s == 0 and label == "entry":
                    lines.append("    self.peers = [self.id]")
                    if value is not None:
                        lines.append(
                            f"    self.peers.append(self.create_machine(M{m + 1}, {RENDER[value]}))"
                        )
                for stmt in body:
                    lines += _render(stmt, 4)
                lines.append("")
    if monitor is not None:
        event, bound = monitor
        lines += [
            "def Spec_start(self):", "    self.seen = 0", "",
            "def Spec_count(self):", "    self.seen += 1",
            f'    self.assert_that(self.seen <= {bound}, "more than {bound} E{event}")', "",
        ]
    return "\n".join(lines)


def build(program):
    """``(machine classes, main first; FaultConfig or None; monitor
    classes)`` of ``program``: events, states, machines and the monitor
    made with ``type()`` over handlers compiled from
    :func:`program_source`."""
    machines, faults, monitor = program
    namespace = compile_source(program_source(program), "program")
    module = namespace["__name__"]
    events = [type(f"E{e}", (Event,), {"__module__": module}) for e in range(EVENTS)]
    namespace.update((event.__name__, event) for event in events)
    classes = []
    for m, (_value, states) in enumerate(machines):
        body = {"__module__": module}
        for s, (entry, handling) in enumerate(states):
            declared = {"initial": s == 0, "actions": {}, "transitions": {}, "ignored": ()}
            if entry is not None:
                declared["entry"] = name = f"M{m}_{s}_entry"
                body[name] = namespace[name]
            for e, how in enumerate(handling):
                if how[0] == "do":
                    declared["actions"][events[e]] = name = f"M{m}_{s}_E{e}"
                    body[name] = namespace[name]
                elif how[0] == "goto":
                    declared["transitions"][events[e]] = f"S{how[1]}"
                else:
                    declared["ignored"] += (events[e],)
            body[f"S{s}"] = type(f"S{s}", (State,), declared)
        classes.append(type(f"M{m}", (Machine,), body))
    namespace.update((cls.__name__, cls) for cls in classes)
    if faults is not None:
        drop, duplicate, delay, crash = faults
        faults = FaultConfig(
            drop=drop, duplicate=duplicate, delay=delay, crash=crash, max_faults=2
        )
    monitors = ()
    if monitor is not None:
        observed = events[monitor[0]]
        watching = type("Counting", (State,), {
            "initial": True, "entry": "Spec_start", "actions": {observed: "Spec_count"},
        })
        monitors = (type("Spec", (Monitor,), {
            "__module__": module, "observes": (observed,), "Counting": watching,
            "Spec_start": namespace["Spec_start"], "Spec_count": namespace["Spec_count"],
        }),)
    return classes, faults, monitors
