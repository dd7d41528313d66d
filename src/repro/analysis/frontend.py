"""Lowering Python ``Machine`` classes to the core-language IR.

The paper's analyzer is built "on top of Microsoft's Roslyn compiler
framework", querying the C# AST to build per-method CFGs (Section 5.4).
This frontend plays the same role for the Python embedding: it parses the
source of each machine class with :mod:`ast` and lowers actions into the
Figure 2 IR, on which the taint / gives-up / respects-ownership / xSA
analyses run unchanged.

Lowering is *reference-exact, scalar-sloppy*: the analysis only tracks
reference-typed variables, so arithmetic, string formatting and boolean
logic are lowered to inert scalar constants, while every flow that can
alias heap objects (assignments, field access, container operations,
method calls, payload construction, sends) is lowered precisely.
Container operations resolve against the summary-only builtin classes of
:mod:`repro.analysis.builtins`.

Types are tracked as recursive *ftypes* so that scalars and machine ids
survive round trips through containers and event payloads::

    ftype ::= "int" | "machine" | "object" | <class name> | "none"
            | ("list"|"set"|"dict", ftype-or-None)     # element type
            | ("tuple", (ftype, ...))                  # positional

Positional tuple types are what let ``proposer = msg[0]`` come back as a
``machine`` id rather than an opaque heap reference — without this, every
protocol payload would look racy.  Element types are also propagated
through machine fields, event payloads (sender-to-handler, computed over
two lowering passes) and method return values.

Supported subset (enforced loudly — a ``FrontendError`` names the
construct and location): assignments (tuple unpacking, subscripts,
augmented assignment), ``if``/``while``/``for`` over containers and
ranges, ``return``, ``assert``, method calls, container literals and
comprehensions, and the P# runtime API (``send``, ``create_machine``,
``raise_event``, ``assert_that``, ``nondet``, ``nondet_int``, ``halt``,
``payload``, ``log``).  ``copy.deepcopy`` lowers to an opaque fresh value
— deep-copying before a send is the ownership-preserving idiom the paper
contrasts with reference payloads.  ``try``/``with``/``lambda``/
``break``/``continue`` are outside the subset.

Like the paper's implementation, "calls to libraries of which the source
code is not available are handled in a conservative manner" — unresolved
calls havoc every involved variable.
"""

from __future__ import annotations

import ast
import inspect
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type, Union

from ..core.events import Event
from ..core.machine import Machine
from ..core.source import function_def
from ..errors import PSharpError
from ..lang.ir import (
    FALSE_LITERAL,
    NULL_LITERAL,
    SCALAR_LITERAL,
    TRUE_LITERAL,
    Assert,
    Assign,
    Call,
    ClassDecl,
    Const,
    CreateMachine,
    External,
    If,
    LoadField,
    MachineDecl,
    MethodDecl,
    New,
    Nondet,
    Program,
    Return,
    Send,
    StateHandler,
    Stmt,
    StoreField,
    VarDecl,
    While,
)
from .builtins import CONTAINER_TYPES, builtin_classes


class FrontendError(PSharpError):
    """A machine uses a Python construct outside the analyzable subset."""


SCALAR_FUNCS = {
    "len", "abs", "int", "float", "bool", "str", "ord", "chr", "sum",
    "isinstance", "print", "hash", "round", "repr", "id", "any", "all",
    "divmod", "pow", "format",
}

_SCALAR_BASES = frozenset({"int", "bool", "float", "str", "none"})

FType = Union[str, tuple]


def base_of(ft: Optional[FType]) -> str:
    if ft is None:
        return "object"
    return ft if isinstance(ft, str) else ft[0]


def elem_of(ft: Optional[FType]) -> Optional[FType]:
    """Element ftype of a container (joined, for positional tuples)."""
    if isinstance(ft, tuple):
        if ft[0] == "tuple":
            parts = ft[1]
            return join_many(parts) if parts else None
        return ft[1]
    return None


def is_scalar_ft(ft: Optional[FType]) -> bool:
    return base_of(ft) in _SCALAR_BASES


def join_many(parts: Sequence[Optional[FType]]) -> Optional[FType]:
    out: Optional[FType] = None
    for part in parts:
        out = ftjoin(out, part)
    return out


def ftjoin(a: Optional[FType], b: Optional[FType]) -> Optional[FType]:
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    abase, bbase = base_of(a), base_of(b)
    if abase == "none":
        return b
    if bbase == "none":
        return a
    if abase in _SCALAR_BASES and bbase in _SCALAR_BASES:
        return "int"
    if "$container" in (abase, bbase):
        # An unknown-kind container adopts the other side's kind.
        other = b if abase == "$container" else a
        obase = base_of(other)
        if obase in CONTAINER_TYPES or obase == "$container":
            return (obase, ftjoin(elem_of(a), elem_of(b)))
        if obase == "tuple":
            return ("tuple", ())
        return "object" if obase not in _SCALAR_BASES else "object"
    if abase == bbase:
        if abase == "tuple":
            aparts = a[1] if isinstance(a, tuple) else ()
            bparts = b[1] if isinstance(b, tuple) else ()
            if (
                isinstance(a, tuple)
                and isinstance(b, tuple)
                and len(aparts) == len(bparts)
            ):
                return ("tuple", tuple(ftjoin(x, y) for x, y in zip(aparts, bparts)))
            return ("tuple", ())
        if abase in CONTAINER_TYPES:
            return (abase, ftjoin(elem_of(a), elem_of(b)))
        return abase
    if abase == "machine" and bbase == "machine":
        return "machine"
    if (abase == "machine") != (bbase == "machine"):
        other = bbase if abase == "machine" else abase
        return "machine" if other in _SCALAR_BASES else "object"
    return "object"


def _vardecl_type(ft: Optional[FType]) -> str:
    base = base_of(ft)
    if base == "none":
        return "int"  # a pure-None variable can reach no heap
    if base == "$container":
        return "object"
    return base


class _Lowerer:
    """Lowers one Python method body to an IR statement list."""

    def __init__(
        self,
        frontend: "PythonFrontend",
        owner: str,
        func_def: ast.FunctionDef,
        func_globals: Dict[str, Any],
        *,
        is_handler: bool,
        payload_type: Optional[FType] = None,
    ) -> None:
        self.frontend = frontend
        self.owner = owner
        self.func = func_def
        self.globals = func_globals
        self.is_handler = is_handler
        self.env: Dict[str, FType] = {}
        self.var_types: Dict[str, FType] = {}
        self.params: List[VarDecl] = []
        # provenance: temp holding a field load -> field name (for element
        # type refinement when the temp is mutated in place)
        self.field_alias: Dict[str, str] = {}
        self._temp = 0
        if is_handler:
            ptype = payload_type if payload_type is not None else "none"
            self.params.append(VarDecl("$payload", _vardecl_type(ptype)))
            self.env["$payload"] = ptype
        else:
            for index, arg in enumerate(func_def.args.args[1:]):  # skip self
                ptype = (
                    frontend.lookup(("param", owner, func_def.name, index))
                    or self._annotation_type(arg.annotation)
                    or "none"  # optimistic bottom, widened by call sites
                )
                self.params.append(VarDecl(arg.arg, _vardecl_type(ptype)))
                self.env[arg.arg] = ptype

    # ------------------------------------------------------------------
    def lower(self) -> MethodDecl:
        body = self.block(self.func.body)
        locals_ = [
            VarDecl(name, _vardecl_type(ft))
            for name, ft in sorted(self.var_types.items())
            if all(p.name != name for p in self.params)
        ]
        return MethodDecl(
            name=self.func.name,
            params=self.params,
            locals=locals_,
            body=body,
            ret_type="object",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def fail(self, node: ast.AST, reason: str) -> FrontendError:
        line = getattr(node, "lineno", "?")
        return FrontendError(f"{self.owner}.{self.func.name} line {line}: {reason}")

    def loc(self, node: ast.AST) -> str:
        return f"L{getattr(node, 'lineno', 0)}"

    def temp(self, ft: Optional[FType]) -> str:
        self._temp += 1
        name = f"$t{self._temp}"
        self.bind(name, ft if ft is not None else "object")
        return name

    def bind(self, name: str, ft: FType) -> None:
        self.env[name] = ft
        self.var_types[name] = ftjoin(self.var_types.get(name), ft) or ft
        self.field_alias.pop(name, None)

    def _annotation_type(self, annotation: Optional[ast.expr]) -> Optional[FType]:
        if isinstance(annotation, ast.Name):
            name = annotation.id
            if name in ("int", "float", "bool", "str"):
                return "int"
            if name in CONTAINER_TYPES:
                return (name, None)
            if name in self.frontend.helper_names:
                return name
            if name == "MachineId":
                return "machine"
            return "object"
        return None

    def _global(self, name: str) -> Any:
        return self.globals.get(name)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def block(self, stmts: Sequence[ast.stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in stmts:
            out.extend(self.stmt(stmt))
        return out

    def stmt(self, node: ast.stmt) -> List[Stmt]:
        if isinstance(node, ast.Assign):
            return self._assign(node)
        if isinstance(node, ast.AugAssign):
            return self._aug_assign(node)
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return []
            fake = ast.Assign(targets=[node.target], value=node.value)
            ast.copy_location(fake, node)
            return self._assign(fake)
        if isinstance(node, ast.Expr):
            return self._expr_stmt(node)
        if isinstance(node, ast.If):
            return self._if(node)
        if isinstance(node, ast.While):
            return self._while(node)
        if isinstance(node, ast.For):
            return self._for(node)
        if isinstance(node, ast.Return):
            return self._return(node)
        if isinstance(node, ast.Assert):
            out, (operand, _t) = self._expr_into([], node.test)
            out.append(Assert(operand, loc=self.loc(node)))
            return out
        if isinstance(node, ast.Pass):
            return []
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)):
            return []
        if isinstance(node, (ast.Break, ast.Continue)):
            raise self.fail(
                node,
                "break/continue are outside the analyzable subset — "
                "use a loop flag instead",
            )
        if isinstance(node, ast.Delete):
            out: List[Stmt] = []
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    out, (container, _ct) = self._expr_into(out, target.value)
                    out, (key, _kt) = self._expr_into(out, target.slice)
                    out.append(Call(None, container, "$del", [key], loc=self.loc(node)))
                else:
                    raise self.fail(node, "only `del container[key]` is supported")
            return out
        raise self.fail(node, f"unsupported statement {type(node).__name__}")

    def _expr_into(
        self, out: List[Stmt], node: ast.expr
    ) -> Tuple[List[Stmt], Tuple[str, Optional[FType]]]:
        operand, ft, stmts = self.expr(node)
        out.extend(stmts)
        return out, (operand, ft)

    def _assign(self, node: ast.Assign) -> List[Stmt]:
        out: List[Stmt] = []
        out, (value, vtype) = self._expr_into(out, node.value)
        for target in node.targets:
            out.extend(self._store(target, value, vtype, node))
        return out

    def _store(
        self, target: ast.expr, value: str, vtype: Optional[FType], node: ast.stmt
    ) -> List[Stmt]:
        loc = self.loc(node)
        vtype = vtype if vtype is not None else "object"
        if isinstance(target, ast.Name):
            self.bind(target.id, vtype)
            return [Assign(target.id, value, loc=loc)]
        if isinstance(target, ast.Attribute) and self._is_self(target.value):
            self.frontend.note(("field", self.owner, target.attr), vtype)
            return [StoreField(target.attr, value, loc=loc)]
        if isinstance(target, ast.Attribute):
            out, (obj, _ot) = self._expr_into([], target.value)
            out.append(Call(None, obj, f"$set_{target.attr}", [value], loc=loc))
            return out
        if isinstance(target, ast.Subscript):
            out, (container, ctype) = self._expr_into([], target.value)
            out, (key, _kt) = self._expr_into(out, target.slice)
            out.append(Call(None, container, "$set", [key, value], loc=loc))
            self._refine_container(container, vtype)
            return out
        if isinstance(target, (ast.Tuple, ast.List)):
            out = []
            parts = None
            if isinstance(vtype, tuple) and vtype[0] == "tuple":
                parts = vtype[1]
            for index, element in enumerate(target.elts):
                if parts is not None and index < len(parts):
                    ft = parts[index]
                else:
                    ft = elem_of(vtype) or "object"
                item = self.temp(ft)
                out.append(Call(item, value, "$item", [], loc=loc))
                out.extend(self._store(element, item, ft, node))
            return out
        raise self.fail(node, f"unsupported assignment target {type(target).__name__}")

    def _refine_container(self, container: str, added: Optional[FType]) -> None:
        """Record that ``added`` flows into ``container``'s elements, both
        in the local environment and — through load provenance — in the
        owning machine's field type."""
        current = self.env.get(container)
        base = base_of(current) if current is not None else "$container"
        if base not in CONTAINER_TYPES:
            # Unknown kind: record the element type without guessing the
            # container kind; a later pass supplies it via ftjoin.
            base = "$container"
        refined = (base, ftjoin(elem_of(current), added))
        self.env[container] = refined
        self.var_types[container] = ftjoin(self.var_types.get(container), refined) or refined
        field = self.field_alias.get(container)
        if field is not None:
            self.frontend.note(("field", self.owner, field), refined)

    def _aug_assign(self, node: ast.AugAssign) -> List[Stmt]:
        binop = ast.BinOp(left=_target_as_expr(node.target), op=node.op, right=node.value)
        ast.copy_location(binop, node)
        assign = ast.Assign(targets=[node.target], value=binop)
        ast.copy_location(assign, node)
        return self._assign(assign)

    def _if(self, node: ast.If) -> List[Stmt]:
        out, (cond, _t) = self._expr_into([], node.test)
        cond_var = self.temp("bool")
        out.append(Assign(cond_var, cond, loc=self.loc(node)))
        before = dict(self.env)
        then_body = self.block(node.body)
        after_then = dict(self.env)
        self.env = before
        else_body = self.block(node.orelse)
        for name, ft in after_then.items():
            self.env[name] = ftjoin(self.env.get(name), ft) or ft
        out.append(If(cond_var, then_body, else_body, loc=self.loc(node)))
        return out

    def _while(self, node: ast.While) -> List[Stmt]:
        if node.orelse:
            raise self.fail(node, "while/else is not supported")
        out, (cond, _t) = self._expr_into([], node.test)
        cond_var = self.temp("bool")
        out.append(Assign(cond_var, cond, loc=self.loc(node)))
        body = self.block(node.body)
        retest, (cond2, _t2) = self._expr_into([], node.test)
        body.extend(retest)
        body.append(Assign(cond_var, cond2, loc=self.loc(node)))
        out.append(While(cond_var, body, loc=self.loc(node)))
        return out

    def _for(self, node: ast.For) -> List[Stmt]:
        if node.orelse:
            raise self.fail(node, "for/else is not supported")
        out: List[Stmt] = []
        loc = self.loc(node)
        iter_node = node.iter
        scalar_iter = False
        item_source: Optional[str] = None
        item_ft: Optional[FType] = None
        enumerate_mode = False

        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
            fname = iter_node.func.id
            if fname == "range":
                for arg in iter_node.args:
                    out, _ = self._expr_into(out, arg)
                scalar_iter = True
            elif fname == "enumerate":
                out, (container, ctype) = self._expr_into(out, iter_node.args[0])
                item_source, item_ft = container, elem_of(ctype)
                enumerate_mode = True
            elif fname in ("sorted", "reversed", "list", "set", "tuple"):
                out, (container, ctype) = self._expr_into(out, iter_node.args[0])
                item_source, item_ft = container, elem_of(ctype)
            else:
                out, (container, ctype) = self._expr_into(out, iter_node)
                item_source, item_ft = container, elem_of(ctype)
        else:
            out, (container, ctype) = self._expr_into(out, iter_node)
            if is_scalar_ft(ctype):
                scalar_iter = True
            else:
                item_source, item_ft = container, elem_of(ctype)

        body: List[Stmt] = []
        target = node.target
        if item_ft is None:
            source_ft = self.env.get(item_source) if item_source in self.env else None
            bottom = isinstance(source_ft, tuple) or base_of(source_ft) == "none"
            item_ft = "none" if bottom else "object"
        if scalar_iter:
            if not isinstance(target, ast.Name):
                raise self.fail(node, "range loops must bind a single name")
            self.bind(target.id, "int")
            body.append(Const(target.id, 0, loc=loc))
        elif enumerate_mode:
            if not (isinstance(target, ast.Tuple) and len(target.elts) == 2):
                raise self.fail(node, "enumerate loops must bind (index, item)")
            index_t, item_t = target.elts
            if isinstance(index_t, ast.Name):
                self.bind(index_t.id, "int")
                body.append(Const(index_t.id, 0, loc=loc))
            assert item_source is not None
            item = self.temp(item_ft)
            body.append(Call(item, item_source, "$item", [], loc=loc))
            body.extend(self._store(item_t, item, item_ft, node))
        else:
            assert item_source is not None
            item = self.temp(item_ft)
            body.append(Call(item, item_source, "$item", [], loc=loc))
            body.extend(self._store(target, item, item_ft, node))

        body.extend(self.block(node.body))
        cond_var = self.temp("bool")
        body.append(Nondet(cond_var, loc=loc))
        out.append(Nondet(cond_var, loc=loc))
        out.append(While(cond_var, body, loc=loc))
        return out

    def _return(self, node: ast.Return) -> List[Stmt]:
        if node.value is None:
            return [Return(None, loc=self.loc(node))]
        out, (value, vtype) = self._expr_into([], node.value)
        if value not in self.env:  # literal: materialize for the Return var
            tmp = self.temp("int")
            out.append(Const(tmp, 0, loc=self.loc(node)))
            value = tmp
            vtype = "int"
        self.frontend.note(("return", self.owner, self.func.name), vtype)
        out.append(Return(value, loc=self.loc(node)))
        return out

    # ------------------------------------------------------------------
    # Expression statements: the P# API surface
    # ------------------------------------------------------------------
    def _expr_stmt(self, node: ast.Expr) -> List[Stmt]:
        value = node.value
        if isinstance(value, ast.Constant):
            return []  # docstring
        if isinstance(value, ast.Call):
            call = value
            func = call.func
            if isinstance(func, ast.Attribute) and self._is_self(func.value):
                name = func.attr
                if name == "send":
                    return self._lower_send(call)
                if name == "raise_event":
                    return self._lower_raise(call)
                if name == "assert_that":
                    out, (cond, _t) = self._expr_into([], call.args[0])
                    out.append(Assert(cond, loc=self.loc(call)))
                    return out
                if name in ("halt", "log", "goto"):
                    out: List[Stmt] = []
                    for arg in call.args:
                        out, _ = self._expr_into(out, arg)
                    return out
            out, (_operand, _t) = self._expr_into([], call)
            return out
        out, _ = self._expr_into([], value)
        return out

    def _event_of(self, node: ast.expr) -> Tuple[Optional[str], Optional[ast.expr]]:
        """Recognize ``EventCls(payload?)``; returns (event name, payload)."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = self._global(node.func.id)
            if isinstance(target, type) and issubclass(target, Event):
                payload = node.args[0] if node.args else None
                return node.func.id, payload
        return None, None

    def _lower_send(self, call: ast.Call) -> List[Stmt]:
        out, (target, _ttype) = self._expr_into([], call.args[0])
        if target not in self.env:
            tmp = self.temp("machine")
            out.append(Const(tmp, 0, loc=self.loc(call)))
            target = tmp
        event, payload = self._event_of(call.args[1])
        if event is not None:
            arg = None
            if payload is not None:
                out, (arg, atype) = self._expr_into(out, payload)
                if arg not in self.env:
                    arg = None  # literal payload: nothing to give up
                else:
                    self.frontend.note(("payload", event), atype)
            out.append(Send(target, event, arg, loc=self.loc(call)))
            return out
        # Event held in a variable: give up whatever it reaches.
        out, (ev, _et) = self._expr_into(out, call.args[1])
        out.append(
            Send(target, "$dynamic", ev if ev in self.env else None, loc=self.loc(call))
        )
        return out

    def _lower_raise(self, call: ast.Call) -> List[Stmt]:
        # A raised event is handled by this same machine: ownership never
        # leaves it, so only the payload expression's lowering effects
        # remain.  Record the payload type for the handler's benefit.
        event, payload = self._event_of(call.args[0])
        out: List[Stmt] = []
        if payload is not None:
            out, (arg, atype) = self._expr_into(out, payload)
            if event is not None and arg in self.env:
                self.frontend.note(("payload", event), atype)
        elif event is None:
            out, _ = self._expr_into(out, call.args[0])
        return out

    # ------------------------------------------------------------------
    # Expressions: returns (operand, ftype, stmts)
    # ------------------------------------------------------------------
    def expr(self, node: ast.expr) -> Tuple[str, Optional[FType], List[Stmt]]:
        loc = self.loc(node)

        if isinstance(node, ast.Constant):
            if node.value is None:
                return NULL_LITERAL, "none", []
            if isinstance(node.value, bool):
                return (TRUE_LITERAL if node.value else FALSE_LITERAL), "bool", []
            if isinstance(node.value, (int, float)):
                return SCALAR_LITERAL, "int", []
            return SCALAR_LITERAL, "str", []

        if isinstance(node, ast.Name):
            if node.id in self.env:
                return node.id, self.env[node.id], []
            value = self._global(node.id)
            if isinstance(value, (int, float, str, bool)) or value is None:
                return SCALAR_LITERAL, "int", []
            raise self.fail(node, f"unknown name {node.id!r}")

        if isinstance(node, ast.Attribute):
            if self._is_self(node.value):
                if node.attr == "payload":
                    if not self.is_handler:
                        raise self.fail(node, "self.payload outside a handler")
                    return "$payload", self.env["$payload"], []
                if node.attr == "id":
                    return SCALAR_LITERAL, "machine", []
                field_ft = self.frontend.lookup(("field", self.owner, node.attr), "none")
                tmp = self.temp(field_ft)
                self.field_alias[tmp] = node.attr
                return tmp, field_ft, [LoadField(tmp, node.attr, loc=loc)]
            obj, _otype, stmts = self.expr(node.value)
            tmp = self.temp("object")
            stmts.append(Call(tmp, obj, f"$get_{node.attr}", [], loc=loc))
            return tmp, "object", stmts

        if isinstance(node, ast.Call):
            return self._call_expr(node)

        if isinstance(node, (ast.BinOp, ast.Compare, ast.BoolOp, ast.UnaryOp)):
            return self._scalar_or_concat(node)

        if isinstance(node, ast.Subscript):
            container, ctype, stmts = self.expr(node.value)
            if isinstance(node.slice, ast.Slice):
                for part in (node.slice.lower, node.slice.upper, node.slice.step):
                    if part is not None:
                        _o, _t, extra = self.expr(part)
                        stmts.extend(extra)
                tmp = self.temp(ctype if base_of(ctype) in CONTAINER_TYPES else "object")
                stmts.append(Call(tmp, container, "$copy", [], loc=loc))
                return tmp, self.env[tmp], stmts
            # Positional tuple access with a literal index.
            result_ft: Optional[FType] = None
            if (
                isinstance(ctype, tuple)
                and ctype[0] == "tuple"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, int)
                and 0 <= node.slice.value < len(ctype[1])
            ):
                result_ft = ctype[1][node.slice.value]
            else:
                result_ft = elem_of(ctype)
            if result_ft is None:
                # A tracked-but-never-filled container (or a still-bottom
                # value) has no elements to return; an opaque object does.
                bottom = isinstance(ctype, tuple) or base_of(ctype) == "none"
                result_ft = "none" if bottom else "object"
            key, _ktype, key_stmts = self.expr(node.slice)
            stmts.extend(key_stmts)
            if key not in self.env:
                lit = self.temp("int")
                stmts.append(Const(lit, 0, loc=loc))
                key = lit
            tmp = self.temp(result_ft)
            stmts.append(Call(tmp, container, "$get", [key], loc=loc))
            return tmp, result_ft, stmts

        if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
            kind = {"List": "list", "Set": "set", "Tuple": "tuple"}[type(node).__name__]
            stmts: List[Stmt] = []
            operands: List[Tuple[str, Optional[FType]]] = []
            for element in node.elts:
                operand, etype, extra = self.expr(element)
                stmts.extend(extra)
                operands.append((operand, etype))
            if kind == "tuple":
                ft: FType = ("tuple", tuple(t if t is not None else "object" for _o, t in operands))
            else:
                ft = (kind, join_many([t for _o, t in operands]))
            tmp = self.temp(ft)
            stmts.insert(0, New(tmp, kind, loc=loc))
            for operand, etype in operands:
                if operand in self.env and not is_scalar_ft(etype):
                    stmts.append(Call(None, tmp, "$add", [operand], loc=loc))
            return tmp, ft, stmts

        if isinstance(node, ast.Dict):
            value_fts: List[Optional[FType]] = []
            stmts = []
            pairs: List[Tuple[str, str]] = []
            for key, value in zip(node.keys, node.values):
                key_parts = self.expr(key) if key is not None else (SCALAR_LITERAL, "int", [])
                val_operand, vt, val_stmts = self.expr(value)
                stmts.extend(key_parts[2])
                stmts.extend(val_stmts)
                value_fts.append(vt)
                key_operand = key_parts[0]
                if key_operand not in self.env:
                    lit = self.temp("int")
                    stmts.append(Const(lit, 0, loc=loc))
                    key_operand = lit
                if val_operand not in self.env:
                    lit = self.temp("int")
                    stmts.append(Const(lit, 0, loc=loc))
                    val_operand = lit
                pairs.append((key_operand, val_operand))
            ft = ("dict", join_many(value_fts))
            tmp = self.temp(ft)
            stmts.insert(0, New(tmp, "dict", loc=loc))
            for key_operand, val_operand in pairs:
                stmts.append(Call(None, tmp, "$set", [key_operand, val_operand], loc=loc))
            return tmp, ft, stmts

        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension(node)

        if isinstance(node, ast.IfExp):
            cond, _ct, stmts = self.expr(node.test)
            a, at, a_stmts = self.expr(node.body)
            b, bt, b_stmts = self.expr(node.orelse)
            joined = ftjoin(at, bt) or "object"
            tmp = self.temp(joined)
            then_body = a_stmts + [Assign(tmp, a, loc=loc)]
            else_body = b_stmts + [Assign(tmp, b, loc=loc)]
            cond_var = self.temp("bool")
            stmts.append(Assign(cond_var, cond, loc=loc))
            stmts.append(If(cond_var, then_body, else_body, loc=loc))
            return tmp, joined, stmts

        if isinstance(node, ast.JoinedStr):
            stmts = []
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    _o, _t, extra = self.expr(value.value)
                    stmts.extend(extra)
            return SCALAR_LITERAL, "str", stmts

        if isinstance(node, ast.Starred):
            return self.expr(node.value)

        raise self.fail(node, f"unsupported expression {type(node).__name__}")

    def _scalar_or_concat(self, node: ast.expr) -> Tuple[str, Optional[FType], List[Stmt]]:
        """Arithmetic is scalar — except container concatenation, where
        the result shares both operands' elements."""
        loc = self.loc(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, ltype, stmts = self.expr(node.left)
            right, rtype, r_stmts = self.expr(node.right)
            stmts.extend(r_stmts)
            if base_of(ltype) in CONTAINER_TYPES or base_of(rtype) in CONTAINER_TYPES:
                kind = base_of(ltype) if base_of(ltype) in CONTAINER_TYPES else base_of(rtype)
                ft = (kind, ftjoin(elem_of(ltype), elem_of(rtype)))
                tmp = self.temp(ft)
                stmts.append(New(tmp, kind, loc=loc))
                for operand in (left, right):
                    if operand in self.env:
                        stmts.append(Call(None, tmp, "extend", [operand], loc=loc))
                return tmp, ft, stmts
            return SCALAR_LITERAL, "int", stmts
        stmts = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                _o, _t, extra = self.expr(child)
                stmts.extend(extra)
        return SCALAR_LITERAL, "int", stmts

    def _comprehension(self, node: ast.expr) -> Tuple[str, Optional[FType], List[Stmt]]:
        loc = self.loc(node)
        kind = "set" if isinstance(node, ast.SetComp) else "list"
        if len(node.generators) != 1:
            raise self.fail(node, "only single-generator comprehensions supported")
        gen = node.generators[0]
        stmts: List[Stmt] = []
        container, ctype, c_stmts = self.expr(gen.iter)
        stmts.extend(c_stmts)
        body: List[Stmt] = []
        if is_scalar_ft(ctype):
            if isinstance(gen.target, ast.Name):
                self.bind(gen.target.id, "int")
                body.append(Const(gen.target.id, 0, loc=loc))
        else:
            item_ft = elem_of(ctype) or "object"
            item = self.temp(item_ft)
            body.append(Call(item, container, "$item", [], loc=loc))
            body.extend(self._store(gen.target, item, item_ft, node))
        for condition in gen.ifs:
            _o, _t, extra = self.expr(condition)
            body.extend(extra)
        element, etype, e_stmts = self.expr(node.elt)
        body.extend(e_stmts)
        ft = (kind, etype)
        out_var = self.temp(ft)
        stmts.insert(0, New(out_var, kind, loc=loc))
        if element in self.env and not is_scalar_ft(etype):
            body.append(Call(None, out_var, "$add", [element], loc=loc))
        cond_var = self.temp("bool")
        body.append(Nondet(cond_var, loc=loc))
        stmts.append(Nondet(cond_var, loc=loc))
        stmts.append(While(cond_var, body, loc=loc))
        return out_var, ft, stmts

    # ------------------------------------------------------------------
    def _call_expr(self, node: ast.Call) -> Tuple[str, Optional[FType], List[Stmt]]:
        loc = self.loc(node)
        func = node.func

        if isinstance(func, ast.Attribute) and self._is_self(func.value):
            name = func.attr
            if name == "create_machine":
                machine_cls = node.args[0]
                if not isinstance(machine_cls, ast.Name):
                    raise self.fail(node, "create_machine needs a class name")
                stmts: List[Stmt] = []
                arg = None
                if len(node.args) > 1:
                    stmts, (arg, atype) = self._expr_into(stmts, node.args[1])
                    if arg not in self.env:
                        arg = None
                    else:
                        self.frontend.note(("creation", machine_cls.id), atype)
                tmp = self.temp("machine")
                stmts.append(CreateMachine(tmp, machine_cls.id, arg, loc=loc))
                return tmp, "machine", stmts
            if name == "nondet":
                tmp = self.temp("bool")
                return tmp, "bool", [Nondet(tmp, loc=loc)]
            if name == "nondet_int":
                stmts = []
                for arg_node in node.args:
                    stmts, _ = self._expr_into(stmts, arg_node)
                tmp = self.temp("int")
                stmts.append(Const(tmp, 0, loc=loc))
                return tmp, "int", stmts
            return self._method_call(node, "this", name, self.owner)

        if isinstance(func, ast.Attribute):
            obj, otype, stmts = self.expr(func.value)
            recv_class = base_of(otype)
            operand, ft, call_stmts = self._method_call(node, obj, func.attr, recv_class)
            return operand, ft, stmts + call_stmts

        if isinstance(func, ast.Name):
            fname = func.id
            if fname in SCALAR_FUNCS or fname == "range":
                stmts = []
                for arg_node in node.args:
                    stmts, _ = self._expr_into(stmts, arg_node)
                return SCALAR_LITERAL, "int", stmts
            if fname in ("min", "max"):
                stmts = []
                refs: List[Tuple[str, Optional[FType]]] = []
                for arg_node in node.args:
                    stmts, (operand, otype) = self._expr_into(stmts, arg_node)
                    if not is_scalar_ft(otype) and operand in self.env:
                        refs.append((operand, otype))
                if len(node.args) == 1 and refs:
                    operand, otype = refs[0]
                    item_ft = elem_of(otype) or "object"
                    tmp = self.temp(item_ft)
                    stmts.append(Call(tmp, operand, "$item", [], loc=loc))
                    return tmp, item_ft, stmts
                return SCALAR_LITERAL, "int", stmts
            if fname in ("list", "set", "tuple", "dict", "sorted", "reversed", "frozenset"):
                kind = {"sorted": "list", "reversed": "list", "frozenset": "set"}.get(
                    fname, fname
                )
                stmts = []
                source_ft: Optional[FType] = None
                source = None
                if node.args:
                    stmts, (source, source_ft) = self._expr_into(stmts, node.args[0])
                ft = (kind, elem_of(source_ft))
                tmp = self.temp(ft)
                stmts.insert(0, New(tmp, kind, loc=loc))
                if source is not None and source in self.env and not is_scalar_ft(source_ft):
                    stmts.append(
                        Call(None, tmp, "extend" if kind == "list" else "$add", [source], loc=loc)
                    )
                return tmp, ft, stmts
            if fname == "deepcopy":
                stmts = []
                src_ft: Optional[FType] = "object"
                for arg_node in node.args:
                    stmts, (_operand, src_ft) = self._expr_into(stmts, arg_node)
                tmp = self.temp("object")
                stmts.append(External(tmp, loc=loc))
                # A deep copy is disjoint heap with the same shape.
                self.env[tmp] = src_ft if src_ft is not None else "object"
                return tmp, self.env[tmp], stmts
            if fname in self.frontend.helper_names:
                stmts = []
                args = []
                for arg_node in node.args:
                    stmts, (operand, _at) = self._expr_into(stmts, arg_node)
                    if operand not in self.env:
                        lit = self.temp("int")
                        stmts.append(Const(lit, 0, loc=loc))
                        operand = lit
                    args.append(operand)
                tmp = self.temp(fname)
                stmts.append(New(tmp, fname, loc=loc))
                if self.frontend.helper_has_init(fname):
                    stmts.append(Call(None, tmp, "__init__", args, loc=loc))
                return tmp, fname, stmts
            event, payload = self._event_of(node)
            if event is not None:
                stmts = []
                tmp = self.temp("$event")
                stmts.append(New(tmp, "$event", loc=loc))
                if payload is not None:
                    stmts, (operand, atype) = self._expr_into(stmts, payload)
                    if operand in self.env:
                        stmts.append(Call(None, tmp, "$add", [operand], loc=loc))
                        self.frontend.note(("payload", event), atype)
                return tmp, "$event", stmts
            raise self.fail(node, f"unsupported function {fname!r}")

        raise self.fail(node, f"unsupported call form {ast.dump(func)[:60]}")

    _CONTAINER_GETTERS = {"pop", "$get", "$item", "get"}
    _CONTAINER_SAME = {"copy", "$copy"}
    _CONTAINER_ADDERS = {"append": 0, "add": 0, "insert": 1, "$add": 0}

    def _method_call(
        self, node: ast.Call, recv: str, method: str, recv_class: str
    ) -> Tuple[str, Optional[FType], List[Stmt]]:
        loc = self.loc(node)
        stmts: List[Stmt] = []
        args: List[str] = []
        arg_fts: List[Optional[FType]] = []
        for arg_node in node.args:
            stmts, (operand, atype) = self._expr_into(stmts, arg_node)
            if operand not in self.env:
                lit = self.temp("int")
                stmts.append(Const(lit, 0, loc=loc))
                operand = lit
            args.append(operand)
            arg_fts.append(atype)
        for keyword in node.keywords:
            stmts, (operand, atype) = self._expr_into(stmts, keyword.value)
            if operand in self.env:
                args.append(operand)
                arg_fts.append(atype)

        recv_ft = self.env.get(recv) if recv != "this" else self.owner
        ret_ft: Optional[FType] = None
        if base_of(recv_ft) in CONTAINER_TYPES or base_of(recv_ft) in ("$event", "$container"):
            if method in self._CONTAINER_ADDERS:
                index = self._CONTAINER_ADDERS[method]
                if index < len(arg_fts):
                    self._refine_container(recv, arg_fts[index])
            elif method in ("extend", "update"):
                if arg_fts and arg_fts[0] is not None:
                    self._refine_container(recv, elem_of(arg_fts[0]))
            if method in self._CONTAINER_GETTERS:
                ret_ft = elem_of(self.env.get(recv)) or "none"
            elif method in self._CONTAINER_SAME:
                ret_ft = self.env.get(recv)
            elif method in ("keys", "values", "items"):
                ret_ft = ("list", elem_of(self.env.get(recv)))
        else:
            ret_ft = self.frontend.lookup(("return", recv_class, method))
            for index, ft in enumerate(arg_fts):
                self.frontend.note(("param", recv_class, method, index), ft)

        tmp = self.temp(ret_ft or "object")
        stmts.append(Call(tmp, recv, method, args, loc=loc))
        return tmp, ret_ft or "object", stmts

    @staticmethod
    def _is_self(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "self"


def _target_as_expr(target: ast.expr) -> ast.expr:
    """Re-interpret an assignment target as a load expression."""
    clone = ast.parse(ast.unparse(target), mode="eval").body
    return ast.copy_location(clone, target)


# ---------------------------------------------------------------------------
# The frontend proper
# ---------------------------------------------------------------------------
# A log entry is ``(key, ft, default)``: a lookup that answered ``ft``, or,
# with ``_NOTE`` for a default, a note of ``ft``.
_NOTE = object()

# A guard, not a budget: a chain of machines lowered last to first settles
# a pass per link; the 22 Table 1 programs settle in at most 4.
MAX_PASSES = 100


class PythonFrontend:
    """Lowers a set of ``Machine`` subclasses (plus helper classes) to a
    :class:`Program` ready for :func:`repro.analysis.analyze_program`."""

    def __init__(
        self,
        machine_classes: Sequence[Type[Machine]],
        helpers: Sequence[type] = (),
        name: str = "program",
    ) -> None:
        self.machine_classes = list(machine_classes)
        self.helpers = list(helpers)
        self.helper_names: Set[str] = {h.__name__ for h in helpers}
        self.name = name
        # One fact per key: ``("field", owner, field)``, ``("payload",
        # event)``, ``("creation", machine)``, ``("return", owner, method)``
        # and ``("param", owner, method, index)``.  Notes join into this
        # pass's table; lookups prefer it and fall back to the previous
        # pass's.  Recomputing (rather than joining across passes) lets types
        # *narrow* as payload information propagates — a pass-1 'object'
        # must not pollute the fixpoint.
        self._types: Dict[tuple, FType] = {}
        self._prev_types: Dict[tuple, FType] = {}
        # Everything below is per-call memory: it lives on this object and
        # dies with it, so two lower_machines() calls share nothing.
        # Parsed once; lowerers only read the shared tree.
        self._function_defs: Dict[Any, ast.FunctionDef] = {}
        self._members: Dict[type, List[Tuple[str, Any]]] = {}
        # Per (owner, function): what the lowerer was built with, the log
        # of every lookup and note it made, and the MethodDecl that came
        # out — enough to tell on a later pass, without walking the AST,
        # whether lowering it again could come out any different.
        self._lowered: Dict[Tuple[str, Any], Tuple[tuple, list, MethodDecl]] = {}
        self._log: Optional[list] = None  # of the method being lowered
        self._undo: Optional[list] = None  # of the replay in flight
        # Exact: the same classes give the same counts on every run.
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "passes",
                "methods_lowered",
                "methods_replayed",
                "functions_parsed",
                "source_fallbacks",
            ),
            0,
        )

    # -- the type table lowerers read and write ---------------------------
    def note(self, key: tuple, ft: Optional[FType]) -> None:
        """Join ``ft`` (None: "object") into this pass's fact at ``key``;
        remembered while a replay is in flight, logged while a method is
        being lowered."""
        if self._log is not None:
            self._log.append((key, ft, _NOTE))
        old = self._types.get(key)
        if self._undo is not None:
            self._undo.append((key, old))
        self._types[key] = ftjoin(old, "object" if ft is None else ft)

    def lookup(self, key: tuple, default: Optional[FType] = None) -> Optional[FType]:
        """The fact at ``key`` as this pass has it, else as the previous
        pass left it, else ``default`` — logged as answered."""
        ft = self._types.get(key)
        if ft is None:
            ft = self._prev_types.get(key, default)
        if self._log is not None:
            self._log.append((key, ft, default))
        return ft

    def helper_has_init(self, name: str) -> bool:
        for helper in self.helpers:
            if helper.__name__ == name:
                return "__init__" in helper.__dict__
        return False

    # --------------------------------------------------------------------
    def build(self) -> Program:
        """Iterated lowering: each pass refines field, payload, parameter
        and return types discovered by the previous one; types flow across
        machine boundaries (sender -> handler -> field -> next sender), so
        a chain of machines can take a pass per link.  The IR returned is a
        pass that left the table unchanged, never an unsettled one."""
        program = self._lower_all()
        for _settling in range(MAX_PASSES - 1):
            program = self._lower_all()
            if self._types == self._prev_types:
                return program
        raise FrontendError(
            f"{self.name}: types did not settle in {MAX_PASSES} lowering passes"
        )

    def _lower_all(self) -> Program:
        self.counters["passes"] += 1
        self._prev_types, self._types = self._types, {}
        program = Program(name=self.name)
        program.classes.update(builtin_classes())
        tuple_summary = program.classes["tuple"].taint_summary
        program.classes["$event"] = ClassDecl(
            name="$event", taint_summary=dict(tuple_summary or {})
        )

        for helper in self.helpers:
            program.classes[helper.__name__] = self._lower_helper(helper)

        for machine_cls in self.machine_classes:
            decl, klass = self._lower_machine(machine_cls)
            program.machines[decl.name] = decl
            program.classes[klass.name] = klass
        return program

    # --------------------------------------------------------------------
    def _function_def(self, func: Any) -> ast.FunctionDef:
        node = self._function_defs.get(func)
        if node is None:
            node, cut = function_def(func)
            assert isinstance(node, ast.FunctionDef)
            self._function_defs[func] = node
            self.counters["functions_parsed"] += 1
            if not cut:
                self.counters["source_fallbacks"] += 1
        return node

    def _functions_of(self, cls: type) -> List[Tuple[str, Any]]:
        members = self._members.get(cls)
        if members is None:
            members = self._members[cls] = inspect.getmembers(cls, inspect.isfunction)
        return members

    def _lower_method(
        self,
        owner: str,
        func: Any,
        *,
        is_handler: bool,
        payload_type: Optional[FType] = None,
    ) -> MethodDecl:
        """``func`` lowered as a method of ``owner`` — semi-naively.

        A lowering is a deterministic function of the (immutable) AST,
        what the lowerer is built with, and the answers to its type
        lookups.  So when a method was lowered on an earlier pass and
        replaying its log finds every answer unchanged, lowering it again
        would emit the same notes and the same ``MethodDecl``: the replay
        has already re-applied the former, and the latter is reused.
        """
        built_with = (is_handler, payload_type)
        memo = self._lowered.get((owner, func))
        if memo is not None and memo[0] == built_with and self._replay(memo[1]):
            self.counters["methods_replayed"] += 1
            return memo[2]
        self._log = log = []
        try:
            decl = _Lowerer(
                self,
                owner,
                self._function_def(func),
                func.__globals__,
                is_handler=is_handler,
                payload_type=payload_type,
            ).lower()
        finally:
            self._log = None
        self._lowered[owner, func] = (built_with, log, decl)
        self.counters["methods_lowered"] += 1
        return decl

    def _replay(self, log: list) -> bool:
        """Repeat a logged lowering's lookups and notes, in order, against
        the tables as this pass has them so far (a method can read a field
        it has just noted).  True when every lookup answers as logged; the
        notes are then applied, exactly as lowering would have.  On the
        first different answer the notes applied so far are taken back."""
        self._undo = undo = []
        try:
            for key, ft, default in log:
                if default is _NOTE:
                    self.note(key, ft)
                elif self.lookup(key, default) != ft:
                    break
            else:
                return True
        finally:
            self._undo = None
        for key, old in reversed(undo):
            if old is None:
                del self._types[key]
            else:
                self._types[key] = old
        return False

    def _lower_helper(self, helper: type) -> ClassDecl:
        name = helper.__name__
        methods: Dict[str, MethodDecl] = {}
        for method_name, func in self._functions_of(helper):
            if method_name.startswith("__") and method_name != "__init__":
                continue
            methods[method_name] = self._lower_method(name, func, is_handler=False)
        fields = self._fields_of(name)
        klass = ClassDecl(name=name, fields=fields, methods=methods)
        self._add_accessors(klass)
        return klass

    def _add_accessors(self, klass: ClassDecl) -> None:
        """Synthesize ``$get_f``/``$set_f`` so machine code can read/write
        helper fields precisely (the paper's language only reaches other
        objects' members through method calls)."""
        for field in klass.fields:
            getter = f"$get_{field.name}"
            setter = f"$set_{field.name}"
            if getter not in klass.methods:
                klass.methods[getter] = MethodDecl(
                    name=getter,
                    params=[],
                    locals=[VarDecl("$r", field.type)],
                    body=[LoadField("$r", field.name), Return("$r")],
                    ret_type=field.type,
                )
            if setter not in klass.methods:
                klass.methods[setter] = MethodDecl(
                    name=setter,
                    params=[VarDecl("$v", field.type)],
                    locals=[],
                    body=[StoreField(field.name, "$v")],
                    ret_type="void",
                )

    def _lower_machine(self, machine_cls: Type[Machine]) -> Tuple[MachineDecl, ClassDecl]:
        name = machine_cls.__name__
        handler_methods: Set[str] = set()
        for info in machine_cls._state_infos.values():
            if info.entry:
                handler_methods.add(info.entry)
            if info.exit:
                handler_methods.add(info.exit)
            handler_methods.update(info.actions.values())

        methods: Dict[str, MethodDecl] = {}
        for method_name, func in self._functions_of(machine_cls):
            if method_name.startswith("_"):
                continue
            if self._is_runtime_method(func):
                continue
            methods[method_name] = self._lower_method(
                name,
                func,
                is_handler=method_name in handler_methods,
                payload_type=self._payload_type_for(machine_cls, method_name),
            )

        methods["$noop"] = MethodDecl(
            name="$noop", params=[VarDecl("$payload", "object")], locals=[], body=[]
        )

        fields = self._fields_of(name)
        klass = ClassDecl(name=name, fields=fields, methods=methods)

        handlers: List[StateHandler] = []
        for state_name, info in machine_cls._state_infos.items():
            for event_cls, target in info.transitions.items():
                target_info = machine_cls._state_infos[target]
                handlers.append(
                    StateHandler(
                        state=state_name,
                        event=event_cls.__name__,
                        method=target_info.entry or "$noop",
                        next_state=target,
                    )
                )
            for event_cls, action in info.actions.items():
                handlers.append(
                    StateHandler(
                        state=state_name,
                        event=event_cls.__name__,
                        method=action,
                        next_state=state_name,
                    )
                )

        initial_state = machine_cls._initial_state
        initial_info = machine_cls._state_infos[initial_state]
        decl = MachineDecl(
            name=name,
            class_name=name,
            initial=initial_info.entry or "$noop",
            handlers=handlers,
            initial_state=initial_state,
        )
        return decl, klass

    def _fields_of(self, owner: str) -> List[VarDecl]:
        fields = sorted(
            (key[2], ft)
            for key, ft in self._types.items()
            if key[0] == "field" and key[1] == owner
        )
        return [VarDecl(field, _vardecl_type(ft)) for field, ft in fields]

    def _is_runtime_method(self, func: Any) -> bool:
        qualname = getattr(func, "__qualname__", "")
        return qualname.startswith("Machine.")

    def _payload_type_for(
        self, machine_cls: Type[Machine], method_name: str
    ) -> Optional[FType]:
        """Payload ftype for a handler: join of the payload types of every
        event the handler is bound to (discovered in pass one)."""
        joined: Optional[FType] = None
        for info in machine_cls._state_infos.values():
            bound_events: List[str] = []
            if info.entry == method_name:
                for other in machine_cls._state_infos.values():
                    for event_cls, target in other.transitions.items():
                        if target == info.name:
                            bound_events.append(event_cls.__name__)
            for event_cls, action in info.actions.items():
                if action == method_name:
                    bound_events.append(event_cls.__name__)
            for event in bound_events:
                ptype = self.lookup(("payload", event))
                if ptype is not None:
                    joined = ftjoin(joined, ptype)
        if machine_cls._state_infos[machine_cls._initial_state].entry == method_name:
            ctype = self.lookup(("creation", machine_cls.__name__))
            if ctype is not None:
                joined = ftjoin(joined, ctype)
        return joined


def lower_machines(
    machine_classes: Sequence[Type[Machine]],
    helpers: Sequence[type] = (),
    name: str = "program",
) -> Program:
    """Lower Python machines to the analyzable core-language IR."""
    return PythonFrontend(machine_classes, helpers, name).build()


def analyze_machines(
    machine_classes: Sequence[Type[Machine]],
    helpers: Sequence[type] = (),
    name: str = "program",
    xsa: bool = True,
    readonly: bool = False,
):
    """One-call static race analysis of Python machines (lower + analyze)."""
    from .engine import analyze_program

    program = lower_machines(machine_classes, helpers, name)
    return analyze_program(program, xsa=xsa, readonly=readonly)
