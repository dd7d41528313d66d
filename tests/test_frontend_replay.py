"""Semi-naive lowering and the indentation source cut, against the
frontend they replaced.

``tests/reference_frontend.py`` keeps the parent's behaviour: every method
lowered by a fresh ``_Lowerer`` on every refinement pass, every function's
tree from ``inspect.getsource``.  This module asserts that the replaying
frontend builds the same ``Program`` — ``repr`` equality, which spells out
every statement, type and location — on the 22 analysed registry programs
in both machine orders (the order within a pass decides what a lookup
sees), on the machines of ``tests/test_frontend.py`` and on the ``faults``
suite; that mutants of the replay rule are caught; that the source cut
parses every function the repo analyses or compiles, and every layout in
``tests/source_shapes.py``, to the tree ``inspect.getsource`` gives; that
the class index counts every registry class and every class layout there
as ``inspect.getsource`` does, parsing each file once; and it pins the
frontend's exact counters.
"""

import ast
import importlib.util
import inspect
import sys

import pytest

import repro.analysis.frontend as frontend_module
import repro.core.machine
import repro.core.source as source_module
import repro.testing.runtime
import repro.testing.strategies
from repro import Event, Machine, State
from repro.analysis import analyze_program
from repro.analysis.frontend import (
    FrontendError,
    PythonFrontend,
    analyze_machines,
    lower_machines,
)
from repro.bench import registry
from repro.core.source import class_lines, function_def

from . import source_shapes, test_frontend
from .reference_frontend import ReferenceFrontend, getsource_function_def
from .test_golden_table1 import cases


def variant_of(name, variant):
    return getattr(registry.get(name), variant)


def built(frontend_cls, machines, helpers=(), name="program"):
    """``repr`` of the lowered program, or the ``FrontendError`` text."""
    try:
        return repr(frontend_cls(machines, helpers, name).build())
    except FrontendError as error:
        return f"FrontendError: {error}"


# ----------------------------------------------------------------------
# Bit-identical IR
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["given", "reversed"])
@pytest.mark.parametrize("name,variant", cases())
def test_registry_programs_lower_as_the_reference_does(name, variant, order):
    chosen = variant_of(name, variant)
    machines = list(chosen.machines)
    if order == "reversed":
        machines.reverse()
    assert built(PythonFrontend, machines, chosen.helpers, name) == built(
        ReferenceFrontend, machines, chosen.helpers, name
    )


@pytest.mark.parametrize(
    "machines",
    [
        [test_frontend.RacySender, test_frontend.ReadingPeer],
        [test_frontend.SafeSender, test_frontend.ReadingPeer],
        [test_frontend.StagedSender, test_frontend.ReadingPeer],
        [test_frontend.ReadingPeer, test_frontend.StagedSender],
    ],
    ids=lambda machines: machines[0].__name__,
)
def test_frontend_test_machines_lower_as_the_reference_does(machines):
    assert built(PythonFrontend, machines) == built(ReferenceFrontend, machines)


def test_faults_suite_has_the_same_outcome():
    outcomes = {}
    for benchmark in registry.suite("faults"):
        for variant in ("correct", "buggy"):
            chosen = getattr(benchmark, variant)
            ours = built(PythonFrontend, chosen.machines, chosen.helpers, benchmark.name)
            assert ours == built(
                ReferenceFrontend, chosen.machines, chosen.helpers, benchmark.name
            )
            outcomes[benchmark.name, variant] = ours
    assert outcomes["RaftLossy", "correct"].startswith("Program(")
    # Line numbers stay relative to the function's first source line.
    assert outcomes["TwoPhaseCommitCrash", "correct"] == (
        "FrontendError: RecoverableCoordinator.boot_or_recover line 2: "
        "unsupported function 'getattr'"
    )


# ----------------------------------------------------------------------
# The replay rule has teeth: a program where every kind of lookup decides
# ----------------------------------------------------------------------
class EStep(Event):
    pass


class Chain(Machine):
    """Types reach each method a pass late, each by a different road:
    ``a_take`` through its parameter, ``b_step`` through its payload,
    ``c_start`` through a return value, ``d_peek`` through a field."""

    class Init(State):
        initial = True
        entry = "c_start"
        actions = {EStep: "b_step"}

    def a_take(self, item):
        self.kept = item

    def b_step(self):
        got = self.payload
        got.append(self.id)

    def c_start(self):
        made = self.z_make()
        self.a_take(made)
        self.send(self.id, EStep(made))
        self.d_peek()

    def d_peek(self):
        held = self.kept
        held.append(self.id)

    def z_make(self):
        return [self.id]


# Mutants: one kind of lookup leaves no trace in the log, so a method that
# depends on it replays although its answer changed.
class FieldLookupNotLogged(PythonFrontend):
    field_type = PythonFrontend.field_type.__wrapped__


class ReturnLookupNotLogged(PythonFrontend):
    return_type = PythonFrontend.return_type.__wrapped__


class ParamLookupNotLogged(PythonFrontend):
    param_type = PythonFrontend.param_type.__wrapped__


class BuiltWithIgnored(PythonFrontend):
    """Mutant: a changed payload type does not invalidate the memo."""

    def _lower_method(self, owner, func, *, is_handler, payload_type=None):
        memo = self._lowered.get((owner, func))
        if memo is not None:
            self._lowered[owner, func] = ((is_handler, payload_type),) + memo[1:]
        return super()._lower_method(
            owner, func, is_handler=is_handler, payload_type=payload_type
        )


def test_chain_lowers_as_the_reference_does_and_replays():
    frontend = PythonFrontend([Chain])
    assert repr(frontend.build()) == built(ReferenceFrontend, [Chain])
    # 5 methods a pass; the list type needs three passes to arrive and a
    # fourth to be seen unchanged.
    assert frontend.counters == {
        "passes": 4,
        "methods_lowered": 12,
        "methods_replayed": 8,
        "functions_parsed": 5,
        "source_fallbacks": 0,
    }


@pytest.mark.parametrize(
    "mutant,program",
    [
        (FieldLookupNotLogged, "Chain"),
        (ReturnLookupNotLogged, "Chain"),
        (ParamLookupNotLogged, "Chain"),
        (BuiltWithIgnored, "Chain"),
        (FieldLookupNotLogged, "BasicPaxos"),  # the registry comparison bites too
    ],
)
def test_a_replay_that_misses_a_changed_input_is_caught(mutant, program):
    if program == "Chain":
        machines, helpers = [Chain], ()
    else:
        chosen = variant_of(program, "correct")
        machines, helpers = chosen.machines, chosen.helpers
    assert built(mutant, machines, helpers) != built(ReferenceFrontend, machines, helpers)


def test_failed_replay_takes_its_notes_back():
    """A replay that applied notes before a lookup disagreed must leave the
    tables exactly as it found them — key order included, since the
    convergence test reads ``repr`` of the tables."""
    frontend = PythonFrontend([])
    frontend.note_field("M", "first", "int")
    frontend.note_return("M", "made", ("list", None))
    before = repr(vars(frontend))
    log = [
        (PythonFrontend.note_field.__wrapped__, ("M", "first", ("list", "machine")), None),
        (PythonFrontend.note_field.__wrapped__, ("M", "second", "machine"), None),
        (PythonFrontend.note_field.__wrapped__, ("N", "third", "object"), None),
        (PythonFrontend.note_event_payload.__wrapped__, ("EStep", "machine"), None),
        (PythonFrontend.note_creation_payload.__wrapped__, ("M", "int"), None),
        (PythonFrontend.note_return.__wrapped__, ("M", "made", ("list", "int")), None),
        (PythonFrontend.note_arg_types.__wrapped__, ("M", "take", ["int", None]), None),
        (PythonFrontend.field_type.__wrapped__, ("M", "second"), "machine"),  # sees the note
        (PythonFrontend.field_type.__wrapped__, ("M", "first"), "int"),  # no longer true
    ]
    assert frontend._replay(log) is False
    assert repr(vars(frontend)) == before
    # The same log up to the disagreement replays, and its notes stay.
    assert frontend._replay(log[:-1]) is True
    assert frontend._field_types == {
        "M": {"first": "object", "second": "machine"},
        "N": {"third": "object"},
    }
    assert frontend._return_types == {("M", "made"): ("list", "int")}
    assert frontend._param_types == {("M", "take", 0): "int", ("M", "take", 1): "object"}
    assert frontend._undo is None and frontend._log is None


# ----------------------------------------------------------------------
# Exact counters, and nothing that outlives a call
# ----------------------------------------------------------------------
def counters_of(frontend_cls, name, variant):
    chosen = variant_of(name, variant)
    frontend = frontend_cls(chosen.machines, chosen.helpers, name)
    frontend.build()
    return frontend.counters


def test_counters_are_exact_and_pinned():
    assert counters_of(PythonFrontend, "MultiPaxos", "correct") == {
        "passes": 3,
        "methods_lowered": 26,
        "methods_replayed": 16,
        "functions_parsed": 14,
        "source_fallbacks": 0,
    }
    total = dict.fromkeys(PythonFrontend([]).counters, 0)
    reference_lowerings = 0
    for name, variant in cases():
        for counter, count in counters_of(PythonFrontend, name, variant).items():
            total[counter] += count
        reference_lowerings += counters_of(ReferenceFrontend, name, variant)["methods_lowered"]
    assert total == {
        "passes": 68,
        "methods_lowered": 457,
        "methods_replayed": 416,
        "functions_parsed": 266,
        "source_fallbacks": 0,
    }
    # Every lowering the reference does is either done or replayed here.
    assert reference_lowerings == 873 == total["methods_lowered"] + total["methods_replayed"]


def mutable_module_state():
    """``repr`` of every dict, list and set held by the two modules and
    their classes — the places a cross-call cache could hide."""
    holders = [frontend_module, source_module, PythonFrontend, frontend_module._Lowerer]
    return repr(
        [
            (holder.__name__, name, value)
            for holder in holders
            for name, value in sorted(vars(holder).items())
            if isinstance(value, (dict, list, set)) and name != "__builtins__"
        ]
    )


def test_a_second_call_does_all_the_work_again():
    state = mutable_module_state()
    first = counters_of(PythonFrontend, "Raft", "correct")
    second = counters_of(PythonFrontend, "Raft", "correct")
    assert first == second and first["functions_parsed"] > 0
    assert mutable_module_state() == state


def test_no_new_parameter():
    signatures = {
        call.__qualname__: str(inspect.signature(call))
        for call in (lower_machines, analyze_machines, analyze_program, PythonFrontend.__init__)
    }
    assert signatures == {
        "lower_machines": "(machine_classes: 'Sequence[Type[Machine]]', "
        "helpers: 'Sequence[type]' = (), name: 'str' = 'program') -> 'Program'",
        "analyze_machines": "(machine_classes: 'Sequence[Type[Machine]]', "
        "helpers: 'Sequence[type]' = (), name: 'str' = 'program', "
        "xsa: 'bool' = True, readonly: 'bool' = False)",
        "analyze_program": "(program: 'Program', xsa: 'bool' = True, "
        "readonly: 'bool' = False, taint: 'Optional[TaintEngine]' = None) "
        "-> 'ProgramAnalysis'",
        "PythonFrontend.__init__": "(self, machine_classes: 'Sequence[Type[Machine]]', "
        "helpers: 'Sequence[type]' = (), name: 'str' = 'program') -> 'None'",
    }


# ----------------------------------------------------------------------
# The source cut
# ----------------------------------------------------------------------
def outcome(route, func):
    """The tree a route parses ``func`` to, with every position — or the
    exception it raises."""
    try:
        node = route(func)
    except (OSError, TypeError, SyntaxError) as error:
        return f"{type(error).__name__}: {error}"
    return None if node is None else ast.dump(node, include_attributes=True)


def by_cut(func):
    return function_def(func)[0]


def functions_of(*owners):
    """Plain functions of modules (top level and methods of their own
    classes) and of classes (their whole MRO, ``object`` aside)."""
    found = {}
    for owner in owners:
        if inspect.ismodule(owner):
            members = [m for _n, m in inspect.getmembers(owner)]
            classes = [m for m in members if inspect.isclass(m) and m.__module__ == owner.__name__]
            found.update(
                (m, None)
                for m in members
                if inspect.isfunction(m) and m.__module__ == owner.__name__
            )
        else:
            classes = [klass for klass in owner.__mro__ if klass is not object]
        for klass in classes:
            found.update((m, None) for _n, m in inspect.getmembers(klass, inspect.isfunction))
    return list(found)


def registry_classes():
    for benchmark in registry.all_benchmarks():
        for variant in (benchmark.correct, benchmark.racy, benchmark.buggy):
            if variant is not None:
                yield from variant.machines
                yield from variant.helpers
                yield from variant.monitors


def registry_class_mros():
    """Every class reachable from a registry variant: its machines,
    helpers and monitors, and their bases (``object`` aside)."""
    return list(dict.fromkeys(
        klass for cls in registry_classes() for klass in cls.__mro__ if klass is not object
    ))


def test_cut_parses_what_getsource_parses_across_the_repo():
    functions = functions_of(
        *registry_classes(),
        repro.core.machine,
        repro.testing.runtime,
        repro.testing.strategies,
        frontend_module,
    )
    assert len(functions) > 400
    cut = 0
    for func in functions:
        assert outcome(by_cut, func) == outcome(getsource_function_def, func), func
        try:
            cut += function_def(func)[1]
        except OSError:
            pass  # dataclass-generated methods have no source on either route
    # The fallback is for the odd ones, not the rule.
    assert cut > 0.95 * len(functions)


SHAPES = functions_of(source_shapes)


@pytest.mark.parametrize("func", SHAPES, ids=lambda func: func.__qualname__)
def test_cut_parses_every_hand_written_shape_as_getsource_does(func):
    assert outcome(by_cut, func) == outcome(getsource_function_def, func)


def test_the_shapes_cover_both_roads():
    by_name = {func.__qualname__: func for func in SHAPES}
    assert len(by_name) == len(SHAPES) > 25
    # Cut, with the retry that a line at the def's own indent forces.
    for name in (
        "Shapes.black_style_signature",
        "Shapes.lambda_last",
        "Shapes.wrapped",
        "Tabbed.tab_indented_too",
        "module_level_string_text_at_column_zero",
        "module_level_black_signature",
    ):
        node, cut = function_def(by_name[name])
        assert cut and node.name == name.rpartition(".")[2]
    # Not a plain def: inspect decides, and says None.
    for name in ("Shapes.coroutine", "Shapes.<lambda>"):
        assert function_def(by_name[name]) == (None, False)
    # textwrap.dedent loses the margin: the same error as before.
    with pytest.raises(IndentationError):
        function_def(by_name["Shapes.string_text_at_column_zero"])


def test_function_at_end_of_file_without_newline(tmp_path):
    path = tmp_path / "no_newline_at_eof.py"
    path.write_text("import os\n\n\nclass Last:\n    def method(self):\n        return os.sep")
    spec = importlib.util.spec_from_file_location("no_newline_at_eof", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    func = module.Last.method
    assert outcome(by_cut, func) == outcome(getsource_function_def, func)
    assert function_def(func)[1]


def test_exec_defined_function_has_no_source_on_either_route():
    namespace = {}
    exec("def ghost(self):\n    return 1\n", namespace)
    message = outcome(getsource_function_def, namespace["ghost"])
    assert message.startswith("OSError: ")
    assert outcome(by_cut, namespace["ghost"]) == message
    # ...which the frontend reports as it always did.
    class Haunted(Machine):
        class Init(State):
            initial = True
            entry = "ghost"

        ghost = namespace["ghost"]

    with pytest.raises(OSError):
        lower_machines([Haunted])


def test_stale_line_number_falls_back(tmp_path):
    """A file edited after import: ``co_firstlineno`` points at some other
    def.  The cut finds the wrong name there and defers to inspect."""
    path = tmp_path / "edited_after_import.py"
    path.write_text("def first():\n    return 1\n\n\ndef second():\n    return 2\n")
    spec = importlib.util.spec_from_file_location("edited_after_import", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path.write_text("# swapped\ndef second():\n    return 2\n\n\ndef first():\n    return 1\n")
    assert source_module._cut(module.second) is None
    assert outcome(by_cut, module.second) == outcome(getsource_function_def, module.second)


# ----------------------------------------------------------------------
# The class index
# ----------------------------------------------------------------------
def getsource_lines(cls):
    """Table 1's count of a class, as ``Benchmark.loc`` made it before."""
    return len(inspect.getsource(cls).splitlines())


def by_index(cls):
    return class_lines(cls)[0]


def counted(route, cls):
    """What a route counts for ``cls`` — or the exception it raises."""
    try:
        return route(cls)
    except (OSError, TypeError, SyntaxError) as error:
        return f"{type(error).__name__}: {error}"


@pytest.fixture
def fresh_index(monkeypatch):
    """The class index as a new process has it: empty, nothing counted."""
    monkeypatch.setattr(source_module, "_class_index", {})
    monkeypatch.setattr(source_module, "counters", dict.fromkeys(source_module.counters, 0))
    return source_module


def test_index_counts_what_getsource_counts_on_every_registry_class(fresh_index):
    classes = registry_class_mros()
    # Machines, helpers and monitors of every variant, with the framework
    # bases (Machine, Monitor) they share.
    assert len(classes) == 96
    files = {inspect.getsourcefile(cls) for cls in classes}
    for cls in classes:
        assert class_lines(cls) == (getsource_lines(cls), True), cls
    assert fresh_index.counters == {"class_files_parsed": len(files), "class_fallbacks": 0}


def test_loc_parses_each_file_once(fresh_index):
    before = {b.name: b.loc() for b in registry.all_benchmarks()}
    parsed = fresh_index.counters["class_files_parsed"]
    assert parsed == len(fresh_index._class_index)
    assert fresh_index.counters["class_fallbacks"] == 0
    # Answered from the index from then on: no file is parsed again.
    assert {b.name: b.loc() for b in registry.all_benchmarks()} == before
    assert fresh_index.counters == {"class_files_parsed": parsed, "class_fallbacks": 0}


CLASS_SHAPES = [
    source_shapes.DecoratedClass,
    source_shapes.Outer,
    source_shapes.Outer.Inner,
    source_shapes.Outer.Inner.Innermost,
    source_shapes.LocalClass,
    source_shapes.TrailingCommentKept,
    source_shapes.TrailingCommentDropped,
    source_shapes.TrailingCommentsMixed,
    source_shapes.TrailingBlankLines,
    source_shapes.OneLineBody,
    source_shapes.SpreadHeader,
    source_shapes.DefinedTwice,
    source_shapes.Shapes,
    source_shapes.Tabbed,
    source_shapes.Tabbed2,
]


@pytest.mark.parametrize("cls", CLASS_SHAPES, ids=lambda cls: cls.__qualname__)
def test_index_counts_every_hand_written_class_as_getsource_does(cls):
    assert counted(by_index, cls) == counted(getsource_lines, cls)


def test_the_class_shapes_cover_both_roads(fresh_index):
    assert source_shapes.LocalClass.__qualname__ == "make_local_class.<locals>.Local"
    # The comment rule, both ways.
    assert by_index(source_shapes.TrailingCommentKept) == 4
    assert by_index(source_shapes.TrailingCommentDropped) == 2
    assert by_index(source_shapes.TrailingCommentsMixed) == 4
    assert by_index(source_shapes.OneLineBody) == 1
    for cls in CLASS_SHAPES:
        assert class_lines(cls)[1] is (cls is not source_shapes.DefinedTwice), cls
    # Defined twice: the index does not guess, inspect answers (its first).
    assert class_lines(source_shapes.DefinedTwice) == (2, False)
    assert fresh_index.counters["class_files_parsed"] == 1


def test_a_class_without_source_raises_what_inspect_raises():
    built_by_type = type("BuiltByType", (), {})
    namespace = {}
    exec("class BuiltByExec:\n    value = 1\n", namespace)
    for cls in (built_by_type, namespace["BuiltByExec"]):
        message = counted(getsource_lines, cls)
        assert isinstance(message, str)  # no source on either route
        assert counted(by_index, cls) == message


def imported(path, monkeypatch):
    """The module at ``path``, in ``sys.modules`` (where ``inspect`` looks
    a class's file up) for the test's duration."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_class_at_end_of_file_with_comments_and_no_newline(tmp_path, monkeypatch):
    path = tmp_path / "class_at_eof.py"
    path.write_text("class Last:\n    value = 1\n\n    # kept\n# dropped\n    # kept")
    module = imported(path, monkeypatch)
    assert class_lines(module.Last) == (getsource_lines(module.Last), True) == (6, True)


def test_a_file_edited_after_import_is_indexed_again(tmp_path, monkeypatch, fresh_index):
    path = tmp_path / "class_edited_after_import.py"
    path.write_text("class First:\n    value = 1\n\n\nclass Second:\n    value = 2\n")
    module = imported(path, monkeypatch)
    assert class_lines(module.Second) == (2, True)
    path.write_text("class Second:\n    value = 2\n    more = 3\n    # and more\n")
    assert counted(by_index, module.Second) == counted(getsource_lines, module.Second) == 4
    assert fresh_index.counters["class_files_parsed"] == 2
