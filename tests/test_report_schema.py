"""The report schema, declared once (:mod:`repro.testing.record`).

``TestReport``, ``CoverageMap``, ``MachineCoverage``, ``Histogram`` and
``TelemetryStats`` name each field and its merge rule on one line and
inherit ``merge`` / ``copy`` / ``==`` / ``encode`` / ``decode``.  Held
here against the hand-written methods they replaced
(``tests/reference_report.py``) on Hypothesis-generated and on real
reports, field for field — through a snapshot that reads *every*
attribute of every object, not the field tables; then the algebra the
coordinator relies on (merging shards is associative and commutative on
every counter, on coverage and telemetry and on the distinct-bug set);
then the wire: ``decode(encode(r)) == r``, one document in a ``result``
frame, a checkpoint and a report file; and the point of the design: a
counter added in one line merges, copies, compares and ships with no
other line written.

Settings are bounded and derandomized so the fast CI lane is
reproducible and reads no clock.
"""

import copy
import dataclasses
import inspect
import json
import socket
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import BugReport
from repro.testing import (
    Campaign,
    Connection,
    CoverageMap,
    Histogram,
    MachineCoverage,
    StrategySpec,
    TelemetryStats,
    TestConfig,
    TestReport,
    load_campaign,
    load_checkpoint,
    save_checkpoint,
    save_report,
)
from repro.testing import checkpoint, engine, fleet, reporting
from repro.testing.fleet import decode_report, encode_report, worker_loop
from repro.testing.record import SUM, Record, field, record
from repro.testing.trace import _KIND_OF, ScheduleTrace

from . import reference_report as reference

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
RECORDS = (TestReport, CoverageMap, MachineCoverage, Histogram, TelemetryStats)


# ---------------------------------------------------------------------------
# Snapshot: every attribute of every object, independent of the tables
# ---------------------------------------------------------------------------
def snapshot(value):
    if isinstance(value, RECORDS + (BugReport,)):
        names = getattr(type(value), "__slots__", None) or vars(value)
        return {
            "": type(value).__name__,
            **{
                name: snapshot(getattr(value, name))
                for name in names if not name.startswith("_")
            },
        }
    if isinstance(value, ScheduleTrace):
        return ("trace", value.decisions)
    if isinstance(value, dict):
        return {key: snapshot(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [snapshot(item) for item in value])
    if isinstance(value, LiveMachine):
        return ("live", value.name)
    if isinstance(value, BaseException):
        return ("exception", repr(value))  # deepcopy breaks identity
    return value


class LiveMachine:
    """Stands in for the machine object an undetached bug points at."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return f"{self.name}(7)"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
COUNT = st.integers(0, 10_000)
NAME = st.sampled_from(["Server", "Client", "Timer", "ESync", "EAck", "Idle"])
#: A small pool, so two operands of a merge find the same schedule.
TRACES = st.lists(
    st.tuples(st.sampled_from(_KIND_OF), st.integers(0, 3)), max_size=3
).map(ScheduleTrace)


def counts(keys):
    return st.dictionaries(keys, COUNT, max_size=4)


@st.composite
def histograms(draw):
    histogram = Histogram()
    for value in draw(st.lists(st.integers(0, 1 << 20), max_size=6)):
        histogram.record(value)
    return histogram


@st.composite
def telemetries(draw):
    stats = TelemetryStats()
    stats.iterations = draw(COUNT)
    stats.steps, stats.iteration_us = draw(histograms()), draw(histograms())
    stats.rate = draw(counts(st.integers(0, 5)))
    stats.fault_kinds = draw(counts(st.sampled_from(["drop", "delay", "crash"])))
    stats.consulted, stats.forced = draw(COUNT), draw(COUNT)
    return stats


TRIPLE = st.tuples(NAME, NAME, NAME)


@st.composite
def machine_coverages(draw):
    # Differing declared universes under one class name are the point of
    # the union rule: draw them freely, in any order.
    record = MachineCoverage(
        tuple(draw(st.lists(NAME, max_size=3, unique=True))),
        tuple(draw(st.lists(TRIPLE, max_size=3, unique=True))),
        draw(st.booleans()),
    )
    record.instances, record.halts = draw(COUNT), draw(COUNT)
    record.states_visited = draw(counts(NAME))
    record.transitions_taken = draw(counts(TRIPLE))
    return record


@st.composite
def coverages(draw):
    cov = CoverageMap()
    cov.machines = draw(st.dictionaries(NAME, machine_coverages(), max_size=3))
    cov.events_sent = draw(counts(NAME))
    cov.events_dequeued = draw(counts(NAME))
    cov.events_dropped = draw(counts(NAME))
    return cov


@st.composite
def bugs(draw):
    return BugReport(
        kind=draw(st.sampled_from(["assertion-failure", "monitor", "liveness"])),
        message=draw(st.sampled_from(["boom", "x != y", ""])),
        machine=draw(st.one_of(
            st.none(), NAME.map(str), NAME.map(LiveMachine),
        )),
        trace=draw(st.one_of(st.none(), TRACES)),
        exception=draw(st.one_of(st.none(), st.just(ValueError("live")))),
        iteration=draw(st.integers(-1, 50)),
        step=draw(st.integers(-1, 500)),
    )


@st.composite
def reports(draw, nest=True):
    report = TestReport(strategy=draw(st.sampled_from(["random", "pct(depth=3)", "dfs"])))
    for name in (
        "iterations", "buggy_iterations", "depth_bound_hits", "watchdog_hits",
        "total_steps", "total_scheduling_points", "max_machines",
        "faults_injected", "consulted_decisions", "distinct_states",
        "schedules_pruned", "fingerprints", "machine_digests",
    ):
        setattr(report, name, draw(COUNT))
    report.elapsed = draw(st.floats(0, 1e6, allow_nan=False))
    report.bugs = draw(st.lists(bugs(), max_size=3))
    if report.bugs and draw(st.booleans()):
        report.first_bug = draw(st.sampled_from(report.bugs))
        report.first_bug_iteration = draw(st.integers(0, 50))
    for name in ("exhausted", "timed_out", "interrupted"):
        setattr(report, name, draw(st.booleans()))
    report.effective_backend = draw(st.sampled_from([None, "inline", "threads"]))
    report.fault_kinds = draw(counts(st.sampled_from(["drop", "delay", "crash"])))
    report.coverage = draw(st.one_of(st.none(), coverages()))
    report.telemetry = draw(st.one_of(st.none(), telemetries()))
    if nest:
        report.sub_reports = draw(st.lists(reports(nest=False), max_size=2))
    return report


@pytest.fixture(scope="module")
def real_shards():
    """Raft and German shard reports, coverage on, straight from campaigns."""
    return [
        Campaign(TestConfig(
            program, strategy=f"random,seed={seed}", max_iterations=40,
            max_steps=2_000, stop_on_first_bug=False, coverage=True,
        )).run()
        for program in ("Raft", "German") for seed in (1, 2)
    ]


# ---------------------------------------------------------------------------
# The oracle: table-driven == hand-written, field for field
# ---------------------------------------------------------------------------
def assert_same(actual, expected):
    assert snapshot(actual) == snapshot(expected)


@SETTINGS
@given(mine=reports(), theirs=reports())
def test_merge_matches_the_hand_written_merge(mine, theirs):
    expected = reference.merge_report(copy.deepcopy(mine), theirs)
    assert_same(copy.deepcopy(mine).merge(theirs), expected)


@SETTINGS
@given(shards=st.lists(reports(), max_size=4))
def test_merged_matches_the_hand_written_fold(shards):
    assert_same(TestReport.merged(shards), reference.merged_reports(shards))


@SETTINGS
@given(report=reports())
def test_detached_matches_the_hand_written_detached(report):
    assert_same(report.detached(), reference.detached_report(report))


@SETTINGS
@given(a=coverages(), b=coverages(), s=telemetries(), t=telemetries())
def test_coverage_and_telemetry_match_their_hand_written_methods(a, b, s, t):
    assert_same(a.copy(), reference.copy_coverage(a))
    assert_same(s.copy(), reference.copy_telemetry(s))
    assert_same(a.copy().merge(b), reference.merge_coverage(copy.deepcopy(a), b))
    assert_same(s.copy().merge(t), reference.merge_telemetry(copy.deepcopy(s), t))


def test_real_shard_reports_match_the_oracle(real_shards):
    assert any(shard.bugs for shard in real_shards)
    assert all(shard.coverage for shard in real_shards)
    assert_same(TestReport.merged(real_shards), reference.merged_reports(real_shards))
    for shard in real_shards:
        assert_same(shard.detached(), reference.detached_report(shard))
        assert shard.detached() == shard.detached()


def test_effective_backend_none_equal_differing():
    def backend(*names):
        return TestReport.merged(
            [TestReport(strategy="s", effective_backend=name) for name in names]
        ).effective_backend

    assert backend() is None and backend(None, None) is None
    assert backend(None, "inline", None) == backend("inline", "inline") == "inline"
    assert backend("inline", "threads") == backend("threads", None, "inline") == "mixed"
    assert backend("inline", "threads", "inline") == "mixed"


def test_first_bug_precedence_is_fold_order():
    early = BugReport(kind="assertion-failure", message="early")
    late = BugReport(kind="assertion-failure", message="late")
    a = TestReport(strategy="a", first_bug=early, first_bug_iteration=9, bugs=[early])
    b = TestReport(strategy="b", first_bug=late, first_bug_iteration=2, bugs=[late])
    empty = TestReport(strategy="c")
    merged = TestReport.merged([empty, a, b])
    assert (merged.first_bug, merged.first_bug_iteration) == (early, 9)
    merged = TestReport.merged([b, empty, a])
    assert (merged.first_bug, merged.first_bug_iteration) == (late, 2)


# ---------------------------------------------------------------------------
# Algebra: what the coordinator's fold order cannot change
# ---------------------------------------------------------------------------
#: Fields whose rule is "the receiver's" (and the bug list, whose *order*
#: is the fold's) are what fold order legitimately decides.
ORDERED = {
    "strategy", "first_bug", "first_bug_iteration", "bugs", "exhausted",
    "sub_reports",
}


def order_free(report):
    view = snapshot(report)
    for name in ORDERED:
        del view[name]
    view["distinct bugs"] = sorted(
        ("trace", bug.trace.fingerprint()) if bug.trace is not None
        else ("traceless", bug.kind, bug.message)
        for bug in report.bugs
    )
    return view


def fold(*shards):
    campaign = TestReport(strategy="fold")
    for shard in shards:
        campaign.merge(shard)
    return campaign


@SETTINGS
@given(a=reports(nest=False), b=reports(nest=False), c=reports(nest=False))
def test_merge_is_associative_and_commutative(a, b, c):
    left = fold(fold(a, b), c)
    right = fold(a, fold(b, c))
    assert order_free(left) == order_free(right)
    assert order_free(fold(c, a, b)) == order_free(left)
    assert order_free(fold(b, a)) == order_free(fold(a, b))
    # Left to right, nothing of the operands was touched or is shared.
    assert_same(a, copy.deepcopy(a))
    assert not shared_mutables(left.detached(), left)


def test_every_field_is_either_order_free_or_named_as_ordered():
    receivers = {
        name for name, rule in TestReport.FIELDS if rule.merged.startswith("the receiver's")
    }
    assert receivers | {"bugs"} == ORDERED


# ---------------------------------------------------------------------------
# Copies share nothing
# ---------------------------------------------------------------------------
def mutables(value, found):
    """ids of every mutable part reachable from ``value`` (a trace is
    frozen once its execution ended and is shared on purpose)."""
    if isinstance(value, RECORDS + (BugReport,)):
        found[id(value)] = value
        names = getattr(type(value), "__slots__", None) or vars(value)
        for name in names:
            mutables(getattr(value, name), found)
    elif isinstance(value, dict):
        found[id(value)] = value
        for item in value.values():
            mutables(item, found)
    elif isinstance(value, (list, tuple)):
        if isinstance(value, list):
            found[id(value)] = value
        for item in value:
            mutables(item, found)
    return found


def shared_mutables(a, b):
    return mutables(a, {}).keys() & mutables(b, {}).keys()


@SETTINGS
@given(report=reports())
def test_detached_shares_no_mutable_part_with_its_source(report):
    clone = report.detached()
    assert not shared_mutables(clone, report)
    for bug in [clone.first_bug, *clone.bugs]:
        assert bug is None or (bug.exception is None and (
            bug.machine is None or type(bug.machine) is str
        ))


# ---------------------------------------------------------------------------
# The wire
# ---------------------------------------------------------------------------
@SETTINGS
@given(report=reports())
def test_decode_inverts_encode(report):
    plain = report.detached()
    document = report.encode()  # an undetached report encodes detached
    assert document == plain.encode()
    assert json.loads(json.dumps(document)) == document  # plain JSON data
    decoded = TestReport.decode(document)
    assert decoded == plain and snapshot(decoded) == snapshot(plain)
    assert decoded.encode() == document
    text = encode_report(report)
    assert decode_report(text) == plain == decode_report(json.loads(text))
    assert encode_report(decode_report(text)) == text


def test_real_reports_round_trip(real_shards):
    campaign = TestReport.merged(real_shards)
    for report in [campaign, *real_shards]:
        text = encode_report(report)
        assert decode_report(text) == report.detached()
        assert encode_report(decode_report(text)) == text
    restored = decode_report(encode_report(campaign))
    assert restored.coverage.fingerprint() == campaign.coverage.fingerprint()
    assert restored.summary() == campaign.summary()
    assert restored.distinct_bugs == campaign.distinct_bugs
    assert reporting.report_json(restored) == reporting.report_json(campaign)


def run_one_shard_over_the_wire(config, spec):
    """A real worker (:func:`worker_loop` on a thread) driven by a
    hand-rolled coordinator half; returns the ``result`` frame."""
    near, far = socket.socketpair()
    coordinator = Connection.from_socket(near, "worker")
    worker = threading.Thread(
        target=worker_loop, args=(Connection.from_socket(far, "coordinator"),),
        daemon=True,
    )
    worker.start()
    try:
        assert coordinator.recv(timeout=30.0)["protocol"] == fleet.PROTOCOL_VERSION == 2
        coordinator.send({
            "type": "welcome", "protocol": fleet.PROTOCOL_VERSION,
            "config": config.to_json_obj(), "events": False,
        })
        coordinator.send({
            "type": "work", "shard": 0, "spec": spec.to_obj(), "time_limit": None,
        })
        while True:
            frame = coordinator.recv(timeout=60.0)
            if frame["type"] != "heartbeat":
                break
        coordinator.send({"type": "shutdown"})
        assert coordinator.recv(timeout=30.0) == {"type": "goodbye"}
    finally:
        worker.join(timeout=30.0)
        coordinator.close()
    return frame


def test_frame_checkpoint_and_report_file_hold_the_same_document(tmp_path):
    spec = StrategySpec("random", {"seed": 3})
    config = TestConfig(
        "Raft", specs=(spec,), max_iterations=30, max_steps=2_000,
        stop_on_first_bug=False, coverage=True,
    )
    frame = run_one_shard_over_the_wire(config, spec)
    assert frame["type"] == "result" and frame["shard"] == 0
    document = frame["report"]
    assert type(document) is dict, "nested JSON, not text in a string"
    assert document["bugs"] and document["coverage"]["machines"]
    report = decode_report(document)

    save_checkpoint(
        tmp_path / "c.ckpt", fingerprint=checkpoint.config_fingerprint(config),
        specs=[spec], completed={0: report},
    )
    save_report(tmp_path / "c.report", report)
    on_disk = json.loads((tmp_path / "c.ckpt").read_text(encoding="utf-8"))
    assert on_disk["version"] == checkpoint.CHECKPOINT_VERSION == 2
    assert on_disk["specs"] == [{"name": "random", "params": {"seed": 3}}]
    saved = json.loads((tmp_path / "c.report").read_text(encoding="utf-8"))
    assert saved["version"] == reporting.REPORT_VERSION == 2
    assert on_disk["completed"]["0"] == saved["report"] == document

    state = load_checkpoint(tmp_path / "c.ckpt")
    assert state["specs"] == [spec] and state["completed"] == {0: report}
    assert load_campaign(tmp_path / "c.report") == report
    # The in-process shard is the same shard: same bugs, same coverage.
    local = Campaign(config.with_overrides(specs=None, strategy=spec)).run()
    assert report.coverage == local.coverage
    assert [b.trace.fingerprint() for b in report.bugs] == [
        b.trace.fingerprint() for b in local.bugs
    ]


# ---------------------------------------------------------------------------
# Declared once
# ---------------------------------------------------------------------------
def test_no_record_hand_writes_an_operation_over_its_fields():
    inherited = ("copy", "__eq__", "encode", "decode", "__getstate__", "__setstate__")
    for cls in RECORDS:
        for name in inherited:
            assert name not in vars(cls) or name.startswith("__") and (
                # dataclass(slots=True) generates these two; nobody wrote them
                vars(cls)[name].__qualname__.startswith("_dataclass_")
            ), f"{cls.__name__} defines {name}"
        if cls is not TestReport:
            assert "merge" not in vars(cls)
    # TestReport.merge is the first-bug precedence and nothing else.
    source = inspect.getsource(TestReport.merge)
    assert "first_bug_iteration" in source and "iterations +=" not in source


def test_the_field_table_is_the_dataclass_declaration():
    for cls in RECORDS:
        declared = [f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")]
        assert [name for name, _ in cls.FIELDS] == declared
    assert len(TestReport.FIELDS) == 26
    assert [f.name for f in dataclasses.fields(CoverageMap)][-1] == "_classes"
    assert "_classes" not in dict(CoverageMap.FIELDS)


@record
class CountedReport(TestReport):
    """The whole cost of a new counter: this one line."""

    widgets: int = field(SUM)


def test_a_counter_added_in_one_line_merges_copies_compares_and_ships(
    tmp_path, monkeypatch
):
    # Everything that builds a report names the class once.
    for module in (engine, fleet, checkpoint, reporting):
        monkeypatch.setattr(module, "TestReport", CountedReport)
    a = CountedReport(strategy="a", iterations=1, widgets=3)
    b = CountedReport(strategy="b", iterations=2, widgets=4, sub_reports=[])
    merged = CountedReport.merged([a, b])
    assert (merged.iterations, merged.widgets) == (3, 7)
    clone = merged.detached()
    assert type(clone) is CountedReport and clone == merged and clone.widgets == 7
    assert clone.sub_reports[0] is not a and clone.sub_reports[0].widgets == 3
    clone.widgets += 1
    assert clone != merged

    near, far = socket.socketpair()
    sender, receiver = Connection.from_socket(near), Connection.from_socket(far)
    try:
        sender.send({"type": "result", "shard": 0, "report": merged.encode()})
        frame = receiver.recv(timeout=10.0)
    finally:
        sender.close(), receiver.close()
    assert frame["report"]["widgets"] == 7
    assert decode_report(frame["report"]) == merged

    save_checkpoint(
        tmp_path / "w.ckpt", fingerprint="f",
        specs=[StrategySpec("random")], completed={0: merged},
    )
    assert load_checkpoint(tmp_path / "w.ckpt")["completed"][0] == merged
    save_report(tmp_path / "w.report", merged)
    assert load_campaign(tmp_path / "w.report") == merged
    assert load_campaign(tmp_path / "w.ckpt").widgets == 7

    # ...and a campaign's own reports are of the class, end to end.
    report = Campaign(TestConfig("tests.machines:Ping", max_iterations=3)).run()
    assert type(report) is CountedReport and report.widgets == 0
    # The stock schema refuses the document: a field it does not declare.
    monkeypatch.undo()
    with pytest.raises(fleet.ProtocolError, match="unknown field.*widgets"):
        decode_report(merged.encode())


def test_record_base_is_what_they_all_inherit():
    assert all(issubclass(cls, Record) for cls in RECORDS)
    for cls in RECORDS:
        assert cls.__hash__ is None
