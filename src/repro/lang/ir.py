"""Abstract syntax of the paper's core object-oriented language (Figure 2).

The statement forms mirror the paper's grammar::

    stmt s ::= send_dst evt(v) | return v | v := v | v := c
             | v := v op v | this.v := v | v := this.v
             | v := new class | v := v.m(v...)
             | if (v) ss else ss | while (v) ss

plus a few extensions used by the implementation, all of which the paper's
implementation also supports: ``assert``, controlled nondeterminism,
dynamic machine creation ("our implementation ... does allow for dynamic
machine instantiation", Section 4), and ``External`` — an opaque value
used by the cross-state analysis when lifting handler payloads.

Member variables of *other* objects are only accessible through method
calls, exactly as in the paper ("a member of another class is only
accessible via appropriate method calls"); the Python frontend desugars
``obj.field`` accesses into synthetic accessor methods to satisfy this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SCALAR_TYPES = frozenset({"int", "bool", "float", "str", "void", "scalar"})


def is_scalar(type_name: str) -> bool:
    return type_name in SCALAR_TYPES


#: The operands the Python frontend writes where a statement holds a
#: variable but the source holds a literal: any number, string, constant
#: name or ``self.id`` (``SCALAR_LITERAL``), the two booleans and ``None``.
#: They name no variable, so a statement's ``vars_*`` leave them out.
SCALAR_LITERAL = "0"
TRUE_LITERAL = "true"
FALSE_LITERAL = "false"
NULL_LITERAL = "null"
LITERALS = frozenset({SCALAR_LITERAL, TRUE_LITERAL, FALSE_LITERAL, NULL_LITERAL})


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: str  # a SCALAR_TYPES member, "machine", or a class name

    @property
    def is_reference(self) -> bool:
        return not is_scalar(self.type)


class Stmt:
    """Base class of all statements; ``loc`` is a human-readable source tag.

    ``DEFS`` and ``USES`` name the fields that hold the variables the
    statement writes and reads — the one declaration of them every reader
    (the ownership checks, xSA's renaming clone, the read-only walk) goes
    through.  A field may hold one variable, ``None`` or a list of them;
    ``"this"`` stands for the receiver, which a field load reads and a
    field store writes into.  A literal operand (``LITERALS``) is not a
    variable, and no reader sees it."""

    loc: str = ""
    DEFS: Tuple[str, ...] = ()
    USES: Tuple[str, ...] = ()

    def _named(self, fields: Tuple[str, ...]) -> List[str]:
        named: List[str] = []
        for name in fields:
            value = "this" if name == "this" else getattr(self, name)
            if isinstance(value, list):
                named.extend(v for v in value if v not in LITERALS)
            elif value is not None and value not in LITERALS:
                named.append(value)
        return named

    def vars_defined(self) -> List[str]:
        """Variables this statement writes."""
        return self._named(self.DEFS)

    def vars_used(self) -> List[str]:
        """Variables whose *values* this statement reads."""
        return self._named(self.USES)

    def vars_occurring(self) -> List[str]:
        """All variables syntactically occurring in the statement
        (the paper's ``vars(N)``)."""
        return self._named(self.DEFS + self.USES)


@dataclass
class Assign(Stmt):
    """``dst := src``"""

    dst: str
    src: str
    loc: str = ""
    DEFS = ("dst",)
    USES = ("src",)

    def __str__(self):
        return f"{self.dst} := {self.src}"


@dataclass
class Const(Stmt):
    """``dst := c`` (also covers ``null`` via value None)"""

    dst: str
    value: object
    loc: str = ""
    DEFS = ("dst",)

    def __str__(self):
        return f"{self.dst} := {self.value!r}"


@dataclass
class Op(Stmt):
    """``dst := left op right`` — scalars only."""

    dst: str
    left: str
    op: str
    right: str
    loc: str = ""
    DEFS = ("dst",)
    USES = ("left", "right")

    def __str__(self):
        return f"{self.dst} := {self.left} {self.op} {self.right}"


@dataclass
class StoreField(Stmt):
    """``this.field := src``"""

    field: str
    src: str
    loc: str = ""
    DEFS = ("this",)
    USES = ("src",)

    def __str__(self):
        return f"this.{self.field} := {self.src}"


@dataclass
class LoadField(Stmt):
    """``dst := this.field``"""

    dst: str
    field: str
    loc: str = ""
    DEFS = ("dst",)
    USES = ("this",)

    def __str__(self):
        return f"{self.dst} := this.{self.field}"


@dataclass
class New(Stmt):
    """``dst := new cls``"""

    dst: str
    cls: str
    loc: str = ""
    DEFS = ("dst",)

    def __str__(self):
        return f"{self.dst} := new {self.cls}"


@dataclass
class Call(Stmt):
    """``dst := recv.method(args)`` (dst may be None for void calls)."""

    dst: Optional[str]
    recv: str
    method: str
    args: List[str] = field(default_factory=list)
    loc: str = ""
    DEFS = ("dst",)
    USES = ("recv", "args")

    def __str__(self):
        prefix = f"{self.dst} := " if self.dst else ""
        return f"{prefix}{self.recv}.{self.method}({', '.join(self.args)})"


@dataclass
class Send(Stmt):
    """``send dst evt(arg)`` — transfers ownership of ``arg``'s reachable heap."""

    dst: str
    event: str
    arg: Optional[str] = None
    loc: str = ""
    USES = ("dst", "arg")

    def __str__(self):
        arg = self.arg if self.arg is not None else ""
        return f"send {self.dst} {self.event}({arg})"


@dataclass
class Return(Stmt):
    """``return v`` (v may be None for void)."""

    var: Optional[str] = None
    loc: str = ""
    USES = ("var",)

    def __str__(self):
        return f"return {self.var or ''}"


@dataclass
class If(Stmt):
    cond: str
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)
    loc: str = ""
    USES = ("cond",)

    def __str__(self):
        return f"if ({self.cond}) ..."


@dataclass
class While(Stmt):
    cond: str
    body: List[Stmt] = field(default_factory=list)
    loc: str = ""
    USES = ("cond",)

    def __str__(self):
        return f"while ({self.cond}) ..."


@dataclass
class Assert(Stmt):
    """``assert v`` — scalar condition; a bug when false (extension)."""

    var: str
    message: str = "assertion failed"
    loc: str = ""
    USES = ("var",)

    def __str__(self):
        return f"assert {self.var}"


@dataclass
class Nondet(Stmt):
    """``dst := nondet`` — controlled nondeterministic boolean (extension)."""

    dst: str
    loc: str = ""
    DEFS = ("dst",)

    def __str__(self):
        return f"{self.dst} := nondet"


@dataclass
class CreateMachine(Stmt):
    """``dst := create machine_name(arg)`` — dynamic instantiation."""

    dst: str
    machine: str
    arg: Optional[str] = None
    loc: str = ""
    DEFS = ("dst",)
    USES = ("arg",)

    def __str__(self):
        return f"{self.dst} := create {self.machine}({self.arg or ''})"


@dataclass
class External(Stmt):
    """``dst := external`` — an opaque value from outside the method.

    Used when the cross-state analysis lifts a handler payload into the
    overarching machine CFG: each handler invocation receives a fresh,
    unknown payload.
    """

    dst: str
    loc: str = ""
    DEFS = ("dst",)

    def __str__(self):
        return f"{self.dst} := external"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------
@dataclass
class MethodDecl:
    """``type m(vd) { vd ss }`` of Figure 2."""

    name: str
    params: List[VarDecl] = field(default_factory=list)
    locals: List[VarDecl] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    ret_type: str = "void"

    def reference_params(self) -> List[str]:
        return [p.name for p in self.params if p.is_reference]

    def var_type(self, name: str) -> Optional[str]:
        for v in self.params:
            if v.name == name:
                return v.type
        for v in self.locals:
            if v.name == name:
                return v.type
        return None


@dataclass
class ClassDecl:
    """``class class { vd md }`` of Figure 2.

    ``taint_summary`` — when set, the class is *summary-only* (a built-in
    like ``list``): each method maps input roles to the output roles its
    taint flows into (see :mod:`repro.analysis.taint`), and has no body.
    """

    name: str
    fields: List[VarDecl] = field(default_factory=list)
    methods: Dict[str, MethodDecl] = field(default_factory=dict)
    taint_summary: Optional[Dict[str, Dict[str, frozenset]]] = None


@dataclass
class StateHandler:
    """One row of a machine's transition function ``Tm``: in state
    ``state``, event ``event`` is handled by invoking ``method`` (with the
    payload as its argument) and moving to ``next_state``."""

    state: str
    event: str
    method: str
    next_state: str


@dataclass
class MachineDecl:
    """A machine: a class, an initial state, and a transition function
    (the ``(class_m, q_m, Q_m, T_m)`` tuple of Section 4).

    ``initial`` names the method that runs on startup.  In the core
    calculus states *are* methods, so the initial state name coincides
    with it; frontends whose state names differ from their entry-method
    names (the Python embedding) set ``initial_state`` explicitly.
    """

    name: str
    class_name: str
    initial: str  # the 0/1-argument startup method
    handlers: List[StateHandler] = field(default_factory=list)
    initial_state: str = ""

    def __post_init__(self) -> None:
        if not self.initial_state:
            self.initial_state = self.initial

    def transition(self, state: str, event: str) -> Optional[StateHandler]:
        for handler in self.handlers:
            if handler.state == state and handler.event == event:
                return handler
        return None

    def states(self) -> List[str]:
        names = [self.initial_state]
        for handler in self.handlers:
            for state in (handler.state, handler.next_state):
                if state not in names:
                    names.append(state)
        return names


@dataclass
class Program:
    """A whole system: classes, machines, and the initial machine set."""

    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    machines: Dict[str, MachineDecl] = field(default_factory=dict)
    name: str = "program"

    def method(self, class_name: str, method_name: str) -> Optional[MethodDecl]:
        klass = self.classes.get(class_name)
        if klass is None:
            return None
        return klass.methods.get(method_name)


def flatten(body: List[Stmt]) -> List[Stmt]:
    """All statements in a body, recursing into if/while blocks."""
    out: List[Stmt] = []
    for stmt in body:
        out.append(stmt)
        if isinstance(stmt, If):
            out.extend(flatten(stmt.then_body))
            out.extend(flatten(stmt.else_body))
        elif isinstance(stmt, While):
            out.extend(flatten(stmt.body))
    return out
