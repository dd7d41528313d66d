"""A statement's variables, read off its declarations, against the
per-kind oracle in ``tests/reference_ir.py``.

Every IR statement class declares the fields holding the variables it
writes (``DEFS``) and reads (``USES``); ``Stmt.vars_used()`` /
``vars_occurring()`` and xSA's renaming clone read those declarations.
Checked on the lowered IR of the 22 Table 1 programs, on every machine's
xSA driver, on generated programs (``tests/generated.py``), whose loops
lower to ``While`` and ``+=``, and on the core-language programs of
``tests/lang_programs.py`` (the Python frontend emits no ``Op``; the
parser does):

- (a) the declared variable sets equal the reference ones, per statement;
- (b) ``build_driver`` yields the same statements (dataclass ``==``) and
  the same driver locals as a build through the reference clone;
- (c) a literal operand the frontend writes (``ir.LITERALS``) is never
  reported as a variable.
"""

import pytest
from hypothesis import given

from repro.analysis import build_driver
from repro.analysis.frontend import PythonFrontend
from repro.lang import parse_program
from repro.lang.ir import LITERALS, Assign, Op, While, flatten

from . import lang_programs
from . import reference_ir as reference
from .generated import build, programs
from .test_corpus import CORPUS
from .test_golden_table1 import cases, lower


def statements(program):
    """Every statement of every method of ``program``, nested ones too."""
    for klass in program.classes.values():
        for method in klass.methods.values():
            yield from flatten(method.body)


def driver_statements(driver):
    return [node.stmt for node in driver.info.cfg.nodes if node.stmt is not None]


def assert_declared_equal_reference(stmts):
    for stmt in stmts:
        assert set(stmt.vars_used()) == set(reference.vars_used(stmt)), stmt
        assert set(stmt.vars_occurring()) == set(reference.vars_occurring(stmt)), stmt
        assert set(stmt.vars_defined()) | set(stmt.vars_used()) == set(
            stmt.vars_occurring()
        ), stmt


def check(program):
    """(a) on ``program`` and on every machine's driver, and (b): each
    driver is built twice, the second time through the reference clone.
    Returns the drivers."""
    assert_declared_equal_reference(statements(program))
    declared = {name: build_driver(program, name) for name in program.machines}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.analysis.xsa._clone_stmts", reference.clone_stmts)
        referenced = {name: build_driver(program, name) for name in program.machines}
    drivers = []
    for name, driver in declared.items():
        other = referenced[name]
        if driver is None or other is None:
            assert driver is other, name
            continue
        assert driver_statements(driver) == driver_statements(other), name
        assert driver.info.decl.locals == other.info.decl.locals, name
        assert_declared_equal_reference(flatten(driver_statements(driver)))
        drivers.append(driver)
    return drivers


@pytest.mark.parametrize("case", cases(), ids="/".join)
def test_table1_programs_and_their_drivers(case):
    assert check(lower(*case))


CORE_PROGRAMS = ("LIST_MANAGER", "LIST_MANAGER_FIXED", "COUNTER", "ASSERT_FAIL", "NONDET_ASSERT")


def test_core_language_programs_and_their_drivers():
    kinds = set()
    for name in CORE_PROGRAMS:
        program = parse_program(getattr(lang_programs, name))
        kinds.update(type(stmt) for stmt in statements(program))
        check(program)
    assert Op in kinds


@CORPUS
@given(program=programs())
def test_generated_programs_and_their_drivers(program):
    machines, _faults, _monitors = build(program)
    check(PythonFrontend(machines, name="generated").build())


def test_the_corpus_reaches_while_loops():
    # A loop statement lowers to a `While` that reaches an xSA driver.
    loop = ("loop", (("send", "self", 0, "int"),))
    program = (((None, (((loop,), (("ignore",),) * 3),)),), None, None)
    machines, _faults, _monitors = build(program)
    lowered = PythonFrontend(machines, name="generated").build()
    assert any(isinstance(stmt, While) for stmt in statements(lowered))
    driver = build_driver(lowered, "M0")
    assert any(isinstance(stmt, While) for stmt in flatten(driver_statements(driver)))


def test_the_corpus_loop_reports_no_literal_as_a_variable():
    # `n = 0; while n < 2: ... n += 1` lowers `n = 0`, the condition and
    # `n += 1` to assignments from the scalar literal "0".
    loop = ("loop", (("send", "self", 0, "int"),))
    program = (((None, (((loop,), (("ignore",),) * 3),)),), None, None)
    machines, _faults, _monitors = build(program)
    lowered = PythonFrontend(machines, name="generated").build()
    body = list(flatten(lowered.method("M0", "M0_0_entry").body))
    from_literal = [s for s in body if isinstance(s, Assign) and s.src in LITERALS]
    assert {s.dst for s in from_literal} >= {"n"}
    for stmt in from_literal:
        assert stmt.vars_used() == []
        assert stmt.vars_occurring() == [stmt.dst]
    driver = build_driver(lowered, "M0")
    for stmt in [*body, *flatten(driver_statements(driver))]:
        assert not LITERALS & {*stmt.vars_used(), *stmt.vars_occurring()}, stmt
