"""Hostile input at every boundary a report or campaign document crosses.

A document is data from another process — a fleet peer that completed the
handshake, a file someone edited or an older build wrote.  Whatever it
holds, the outcome is one of two: the boundary's *typed* error
(:class:`~repro.errors.DocumentError` from ``TestReport.decode``,
``ProtocolError`` from ``decode_report`` and the frame parser — the
coordinator then drops the peer, requeues its shard and completes —
``PSharpError`` and exit 2 from a file reader), or a value that re-encodes
to the very document that was read.  Never another exception, a hang, an
import, or code execution.  (A campaign file is the one reader that does
import, by design: the classes its ``monitors`` / ``crash_classes`` name.)

The same two outcomes hold on the worker's side of the wire: a live
``worker_loop`` fed ``welcome`` / ``work`` / ``error`` frames by a scripted
hostile coordinator ends in a ``ProtocolError`` naming the field.

Hypothesis mutates valid documents (drop / add / retype at any depth,
truncate the text, break the UTF-8); the named cases are the leaks the
first decoder written for this schema actually had.  Settings are bounded
and derandomized: the fast CI lane runs this module on three interpreters.
"""

import copy
import json
import pickle
import re
import socket
import struct
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import PSharpError, StrategySpec, TestConfig
from repro.bench import buggy_main
from repro.errors import DocumentError
from repro.testing import (
    BugFindingRuntime,
    Campaign,
    FaultConfig,
    RandomStrategy,
    ScheduleTrace,
    TestReport,
    load_campaign,
    load_checkpoint,
    save_checkpoint,
    save_report,
)
from repro.testing.fleet import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    _encode_frame,
    decode_report,
    worker_loop,
)
from repro.testing.record import dumps

from .test_cli import run_cli
from .test_fleet import (
    FOUR_SHARDS,
    HELLO,
    HELLO_FRAME,
    await_work,
    events_of,
    expect_dropped,
    fingerprints,
    finish_fleet,
    fleet_config,
    read_events,
    socket_pair,
    start_fleet_with_clients,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def real_report():
    report = Campaign(TestConfig(
        "Raft", strategy="random,seed=2", max_iterations=12, max_steps=2_000,
        stop_on_first_bug=False, coverage=True,
    )).run()
    assert report.bugs and report.coverage
    shards = [report.detached(), TestReport(strategy="idle")]
    return TestReport.merged(shards)  # sub-reports included


DOCUMENT = json.loads(dumps(real_report().encode()))
TEXT = dumps(DOCUMENT)
SPECS = [{"name": "random", "params": {"seed": 1}}, {"name": "dfs", "params": {}}]
CHECKPOINT = {
    "version": 2, "fingerprint": "f" * 64, "specs": SPECS,
    "completed": {"0": DOCUMENT["sub_reports"][0], "1": DOCUMENT["sub_reports"][1]},
}
REPORT_FILE = {"version": 2, "kind": "campaign-report", "report": DOCUMENT}
TRACE = DOCUMENT["first_bug"]["trace"]
#: Every field off its default (tests/test_campaign_schema.py).
CAMPAIGN_TEXT = (Path(__file__).parent / "golden_campaign.json").read_text("utf-8")
CAMPAIGN = json.loads(CAMPAIGN_TEXT)


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------
def paths(node, prefix=()):
    yield prefix
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from paths(child, prefix + (key,))


JUNK = st.sampled_from([
    None, True, False, -5, 0, 7, 1.5, "", "x", "07", [], {}, [[]], {"a": 1},
    ["sched", 1.5], ["Leader"], 2 ** 70, -1,
])


def mutations(document):
    """Strategy of ``document`` with one node dropped, replaced by junk
    of another type, or grown by a junk member."""
    every = list(paths(document))

    @st.composite
    def mutated(draw):
        tree = copy.deepcopy(document)
        path = draw(st.sampled_from(every))
        how = draw(st.sampled_from(["drop", "retype", "add"]))
        junk = draw(JUNK)
        if not path:
            return junk
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if how == "drop":
            del parent[path[-1]]
        elif how == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["zz", "iterations", "7"]))] = junk
        elif how == "add" and isinstance(node, list):
            node.append(junk)
        else:
            parent[path[-1]] = junk
        return tree

    return mutated()


def broken_bytes(text):
    """Strategy of ``text`` truncated, or with a byte that is not UTF-8."""
    data = text.encode("utf-8")
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda cut: data[:cut]),
        st.integers(0, len(data)).map(lambda at: data[:at] + b"\xff" + data[at:]),
    )


# ---------------------------------------------------------------------------
# The two outcomes
# ---------------------------------------------------------------------------
def decoded_or_typed(document):
    """``TestReport.decode``: DocumentError, or the same document back."""
    try:
        report = TestReport.decode(document)
    except DocumentError as exc:
        assert "\n" not in str(exc) and len(str(exc)) < 400
        with pytest.raises(ProtocolError, match="undecodable shard report"):
            decode_report(document)
        return None
    assert report.encode() == document
    assert dumps(report.encode()) == dumps(document)  # the same bytes
    assert decode_report(document) == report
    return report


def parse_frame(payload):
    """What the frame parser makes of ``payload`` (bytes after the length
    prefix), without a socket in between: a peer's frame may be larger
    than a socket buffer, and nobody is reading the other end here."""
    near, far, _ = socket_pair()
    try:
        near._buffer.extend(struct.pack(">I", len(payload)) + payload)
        return near._parse_frame()
    finally:
        near.close(), far.close()


def loaded_or_typed(loader, path):
    try:
        return loader(path)
    except PSharpError as exc:
        assert type(exc) is PSharpError and "\n" not in str(exc)
        return None


@SETTINGS
@given(document=mutations(DOCUMENT))
def test_mutated_report_documents(document):
    decoded_or_typed(document)


@SETTINGS
@given(cut=st.integers(0, len(TEXT) - 1))
def test_truncated_report_text(cut):
    with pytest.raises(ProtocolError, match="undecodable shard report"):
        decode_report(TEXT[:cut])


@SETTINGS
@given(document=mutations(CHECKPOINT))
def test_mutated_checkpoint_files(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
    path.write_text(dumps(document), encoding="utf-8")
    state = loaded_or_typed(load_checkpoint, path)
    if state is not None:
        assert all(type(spec) is StrategySpec for spec in state["specs"])
        save_checkpoint(
            path, fingerprint=state["fingerprint"], specs=state["specs"],
            completed=state["completed"],
        )
        rewritten = json.loads(path.read_text(encoding="utf-8"))
        # (A spec's CLI spelling and a null params are read, not written.)
        rewritten["specs"], document["specs"] = [], []
        assert rewritten == document
    loaded_or_typed(load_campaign, path)


@SETTINGS
@given(document=mutations(REPORT_FILE))
def test_mutated_report_files(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("report") / "c.report"
    path.write_text(dumps(document), encoding="utf-8")
    report = loaded_or_typed(load_campaign, path)
    if report is not None and isinstance(document, dict) and "kind" in document:
        save_report(path, report)
        assert json.loads(path.read_text(encoding="utf-8")) == document


@SETTINGS
@given(pairs=mutations(TRACE))
def test_mutated_trace_files(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("trace") / "bug.trace"
    path.write_text(json.dumps(pairs), encoding="utf-8")
    trace = loaded_or_typed(ScheduleTrace.load, path)
    if trace is not None:
        assert trace.to_pairs() == pairs


@SETTINGS
@given(data=st.one_of(
    broken_bytes(dumps(CHECKPOINT)), broken_bytes(dumps(REPORT_FILE)),
    broken_bytes(json.dumps(TRACE)),
))
def test_broken_file_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("broken") / "file"
    path.write_bytes(data)
    for loader in (load_checkpoint, load_campaign, ScheduleTrace.load):
        assert loaded_or_typed(loader, path) is None


@SETTINGS
@given(data=broken_bytes(TEXT))
def test_broken_frames(data):
    with pytest.raises(ProtocolError, match="undecodable frame"):
        parse_frame(data)


# ---------------------------------------------------------------------------
# Campaign documents: the typed error, or the very config the file spells
# ---------------------------------------------------------------------------
def spelled(document):
    """``document`` with every strategy in the one spelling written."""
    out = dict(document)
    if out.get("strategy") is not None:
        out["strategy"] = StrategySpec.decode(out["strategy"]).to_obj()
    if out.get("specs") is not None:
        out["specs"] = [StrategySpec.decode(spec).to_obj() for spec in out["specs"]]
    return out


def campaign_or_typed(document):
    """``TestConfig.from_json_obj``: a one-line PSharpError, or a config
    holding exactly what the document says — nothing coerced."""
    try:
        config = TestConfig.from_json_obj(document)
    except PSharpError as exc:
        assert "\n" not in str(exc) and len(str(exc)) < 400
        return None
    written = config.to_json_obj()
    assert TestConfig.from_json_obj(written) == config
    faults = document.get("faults")
    if faults is not None:  # an object that may leave defaults out
        assert written["faults"].items() >= faults.items()
        written = {**written, "faults": faults}
    assert {name: written[name] for name in document} == spelled(document)
    return config


@SETTINGS
@given(document=mutations(CAMPAIGN))
def test_mutated_campaign_documents(document):
    campaign_or_typed(document)


@SETTINGS
@given(data=broken_bytes(CAMPAIGN_TEXT.rstrip()))
def test_broken_campaign_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("campaign") / "c.json"
    path.write_bytes(data)
    assert loaded_or_typed(TestConfig.load, path) is None
    with pytest.raises(PSharpError, match="does not parse"):
        TestConfig.from_json(data)


@pytest.mark.parametrize("name", ["100000-open-brackets", "not-an-object", "empty"])
def test_named_text_is_not_a_campaign(name, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(NAMED_TEXT[name], encoding="utf-8")
    with pytest.raises(PSharpError, match="does not parse|must be an object"):
        TestConfig.load(path)
    proc = run_cli("test", "--config", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr


def test_a_campaign_with_nan_is_refused():
    text = CAMPAIGN_TEXT.replace('"time_limit": 45.5', '"time_limit": NaN')
    assert text != CAMPAIGN_TEXT
    with pytest.raises(PSharpError, match="does not parse: NaN is not JSON"):
        TestConfig.from_json(text)


# ---------------------------------------------------------------------------
# Named cases: what the first decoder for this schema let through
# ---------------------------------------------------------------------------
def edited(*path, value, document=DOCUMENT):
    tree = copy.deepcopy(document)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


def chain(depth):
    """A ``sub_reports`` chain ``depth`` reports deep."""
    leaf = edited("sub_reports", value=[])
    node = leaf
    for _ in range(depth):
        node = edited("sub_reports", value=[node], document=leaf)
    return node


BUCKETS = ("telemetry", "steps", "buckets")
SERVER = ("coverage", "machines", "BuggyRaftServer")
NAMED = {
    "negative-counter": edited("iterations", value=-5),
    "true-as-a-counter": edited("total_steps", value=True),
    "float-as-a-counter": edited("total_steps", value=5.0),
    "counter-beyond-64-bits-in-a-trace": edited("bugs", 0, "trace", 0, value=["sched", 2 ** 70]),
    "two-name-transition-triple": edited(
        *SERVER, "declared_transitions", 0, value=["Leader", "Follower"]
    ),
    "transition-row-with-one-part": edited(
        *SERVER, "transitions_taken", 0, value=["Leader", 3]
    ),
    "empty-transition-row": edited(*SERVER, "transitions_taken", 0, value=[]),
    "transition-listed-twice": edited(
        *SERVER, "transitions_taken",
        value=DOCUMENT["coverage"]["machines"]["BuggyRaftServer"]["transitions_taken"][:1] * 2,
    ),
    "float-in-a-trace": edited("first_bug", "trace", 0, value=["sched", 1.5]),
    "true-in-a-trace": edited("first_bug", "trace", 0, value=["sched", True]),
    "unknown-decision-kind": edited("first_bug", "trace", 0, value=["jump", 1]),
    "three-part-decision": edited("first_bug", "trace", 0, value=["sched", 1, 2]),
    "non-canonical-bucket-key": edited(*BUCKETS, value={"07": 1}),
    "negative-bucket-key": edited(*BUCKETS, value={"-1": 1}),
    "sub-reports-two-levels-deep": chain(2),
    "sub-reports-3000-deep": chain(3000),
    "null-histogram": edited("telemetry", "steps", value=None),
    "negative-elapsed": edited("elapsed", value=-0.5),
    "string-for-a-flag": edited("timed_out", value="yes"),
    "unknown-field": edited("widgets", value=1),
    "machine-that-is-not-text": edited("first_bug", "machine", value={"id": 3}),
}
#: A decision its kind cannot hold, each one past a boundary.
OUT_OF_RANGE = {
    "fault-outcome-past-crash": ["fault", 5],
    "negative-fault-outcome": ["fault", -1],
    "bool-of-two": ["bool", 2],
    "negative-machine-id": ["sched", -1],
    "reduction-reason-zero": ["reduction", 0],
    "reduction-reason-two": ["reduction", 2],  # the learned clause's, gone
}
NAMED.update(
    (name, edited("first_bug", "trace", 0, value=pair)) for name, pair in OUT_OF_RANGE.items()
)
NAMED_TEXT = {
    "100000-open-brackets": "[" * 100_000,
    "3000-deep-sub-reports-as-text": None,  # built below: dumps recurses
    "nan-elapsed": TEXT.replace('"elapsed":', '"elapsed":NaN,"x":', 1),
    "infinity-elapsed": TEXT.replace('"elapsed":', '"elapsed":Infinity,"x":', 1),
    "minus-infinity": TEXT.replace('"elapsed":', '"elapsed":-Infinity,"x":', 1),
    "not-an-object": "[1, 2, 3]",
    "empty": "",
}
_leaf = dumps(edited("sub_reports", value=[]))
NAMED_TEXT["3000-deep-sub-reports-as-text"] = (
    _leaf.replace('"sub_reports":[]', '"sub_reports":[') * 3000 + _leaf + "]}" * 3000
)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_document_is_refused_with_the_typed_error(name):
    with pytest.raises(DocumentError, match=r"^(TestReport|BugReport)\b") as info:
        TestReport.decode(NAMED[name])
    assert len(str(info.value)) < 400, "the message never echoes the document"
    with pytest.raises(ProtocolError, match="undecodable shard report"):
        decode_report(NAMED[name])


@pytest.mark.parametrize("name", sorted(NAMED_TEXT))
def test_named_text_is_refused_with_the_typed_error(name, tmp_path):
    text = NAMED_TEXT[name]
    with pytest.raises(ProtocolError, match="undecodable shard report"):
        decode_report(text)
    for wrap, loader in (
        ('{"version":2,"kind":"campaign-report","report":%s}', load_campaign),
        ('{"version":2,"fingerprint":"f","specs":[{"name":"dfs"}],"completed":{"0":%s}}',
         load_checkpoint),
        ("%s", ScheduleTrace.load),
    ):
        path = tmp_path / "hostile"
        path.write_text(wrap % text, encoding="utf-8")
        with pytest.raises(PSharpError, match="corrupt|neither a campaign"):
            loader(path)
    try:
        frame = parse_frame(('{"type":"result","shard":0,"report":%s}' % text).encode())
    except ProtocolError:
        return  # refused by the frame parser already
    with pytest.raises(ProtocolError):
        decode_report(frame.get("report"))


#: Documents the schema accepts that a renderer once died on.
RENDERED = {
    # Sends recorded, no machine row: the coverage table had no widths.
    "coverage-with-no-machine-rows": edited(*SERVER[:2], value={}),
}


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_named_document_is_rendered_without_a_traceback(name, tmp_path):
    assert decoded_or_typed(RENDERED[name]) is not None
    path = tmp_path / "odd.report"
    path.write_text(dumps({**REPORT_FILE, "report": RENDERED[name]}), encoding="utf-8")
    for args in ((), ("--json",), ("--dot", "-")):
        proc = run_cli("report", str(path), *args)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout and ("total: 0/0 states" in proc.stdout or args)


def faulty_german_trace():
    """One German execution under every fault kind: its trace pairs."""
    strategy = RandomStrategy(seed=3)
    strategy.prepare_iteration()
    runtime = BugFindingRuntime(
        strategy, faults=FaultConfig(drop=0.05, duplicate=0.05, delay=0.1, crash=0.01),
    )
    pairs = runtime.execute(buggy_main("German")).trace.to_pairs()
    assert ["fault", 0] in pairs
    return pairs


@pytest.mark.parametrize("value", [99, 7, 5, -1])
def test_a_fault_outcome_with_no_code_is_refused_not_replayed(tmp_path, value):
    pairs = faulty_german_trace()
    pairs[pairs.index(["fault", 0])] = ["fault", value]
    path = tmp_path / "edited.trace"
    path.write_text(json.dumps(pairs), encoding="utf-8")
    with pytest.raises(PSharpError, match=r"corrupt schedule trace: decision \d+ \('fault'\)"):
        ScheduleTrace.load(path)


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_a_value_out_of_its_kind_range_is_a_corrupt_trace(tmp_path, name):
    path = tmp_path / "edited.trace"
    path.write_text(json.dumps([["sched", 0], OUT_OF_RANGE[name]]), encoding="utf-8")
    with pytest.raises(PSharpError, match=r"decision 1 \(.*\) holds a value outside"):
        ScheduleTrace.load(path)


def test_the_error_names_the_field_and_the_path_to_it():
    with pytest.raises(DocumentError) as info:
        TestReport.decode(edited(*SERVER, "halts", value=-1))
    assert str(info.value) == (
        "TestReport.coverage: CoverageMap.machines: MachineCoverage.halts: "
        "expected integer >= 0, got -1"
    )
    with pytest.raises(DocumentError, match=r"TestReport: field 'bugs' is missing"):
        document = copy.deepcopy(DOCUMENT)
        del document["bugs"]
        TestReport.decode(document)


def test_decoding_imports_nothing():
    before = set(sys.modules)
    for document in NAMED.values():
        with pytest.raises(DocumentError):
            TestReport.decode(document)
    decoded_or_typed(DOCUMENT)
    for text in NAMED_TEXT.values():
        with pytest.raises(ProtocolError):
            decode_report(text)
    assert set(sys.modules) == before


# ---------------------------------------------------------------------------
# Files of older builds: reported as such, never unpickled
# ---------------------------------------------------------------------------
class Bomb:
    """Unpickling this would create ``marker``: nothing may."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


def parent_format_files(tmp_path):
    """What the previous build wrote: version-1 pickles."""
    marker = str(tmp_path / "unpickled")
    report = TestReport(strategy="random", iterations=5)
    checkpoint = {
        "version": 1, "fingerprint": "f", "bomb": Bomb(marker),
        "specs": [StrategySpec("random", {"seed": 1})], "completed": {0: report},
    }
    saved = {
        "version": 1, "kind": "campaign-report", "report": report,
        "bomb": Bomb(marker),
    }
    files = {}
    for name, payload in (("old.ckpt", checkpoint), ("old.report", saved)):
        files[name] = tmp_path / name
        files[name].write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    return files, tmp_path / "unpickled"


def test_parent_format_pickles_are_named_as_such_and_never_loaded(tmp_path):
    files, marker = parent_format_files(tmp_path)
    for loader, name in (
        (load_checkpoint, "old.ckpt"), (load_campaign, "old.ckpt"),
        (load_campaign, "old.report"),
    ):
        with pytest.raises(PSharpError, match="corrupt .* file .*older build"):
            loader(files[name])
    config = TestConfig("tests.machines:Ping", max_iterations=5)
    with pytest.raises(PSharpError, match="older build"):
        Campaign(config).portfolio(resume=files["old.ckpt"])
    assert not marker.exists()


@pytest.mark.parametrize("content", ["pickle", b"not a pickle at all", b"\xff\xfe\x00"],
                         ids=["parent-format-pickle", "not-a-pickle", "not-utf-8"])
def test_cli_refuses_unreadable_files_with_one_line_and_exit_2(tmp_path, content):
    files, marker = parent_format_files(tmp_path)
    if content != "pickle":
        for path in files.values():
            path.write_bytes(content)
    for args in (
        ("test", "tests.machines:Ping", "--resume", str(files["old.ckpt"])),
        ("report", str(files["old.report"])),
        ("report", str(files["old.ckpt"]), "--json"),
        ("replay", "tests.machines:Ping", "--trace", str(files["old.report"])),
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        if content == "pickle" and args[0] != "replay":
            assert "older build" in proc.stderr
    assert not marker.exists()


def test_version_1_documents_are_refused_with_the_version_message(tmp_path):
    path = tmp_path / "v1"
    path.write_text(dumps({**CHECKPOINT, "version": 1}), encoding="utf-8")
    with pytest.raises(PSharpError, match="has version 1; this build reads version 2"):
        load_checkpoint(path)
    path.write_text(dumps({**REPORT_FILE, "version": 1}), encoding="utf-8")
    with pytest.raises(PSharpError, match="has version 1; this build reads version 2"):
        load_campaign(path)


# ---------------------------------------------------------------------------
# A coordinator fed the frame: peer dropped, shard requeued, campaign whole
# ---------------------------------------------------------------------------
def result_frame(work, report):
    return _encode_frame(
        {"type": "result", "shard": work["shard"], "canceled": False, "report": report}
    )


def raw_result(work, report_text):
    payload = (
        '{"type":"result","shard":%d,"canceled":false,"report":%s}'
        % (work["shard"], report_text)
    )
    return struct.pack(">I", len(payload)) + payload.encode()


HOSTILE_FRAMES = {
    "3000-deep-sub-reports": lambda work: raw_result(
        work, NAMED_TEXT["3000-deep-sub-reports-as-text"]
    ),
    "sub-reports-two-levels-deep": lambda work: result_frame(work, chain(2)),
    "negative-counter": lambda work: result_frame(work, NAMED["negative-counter"]),
    "float-in-a-trace": lambda work: result_frame(work, NAMED["float-in-a-trace"]),
    "report-as-text-in-a-string": lambda work: result_frame(work, TEXT),
    "nan-in-the-frame": lambda work: raw_result(work, NAMED_TEXT["nan-elapsed"]),
    "100000-open-brackets": lambda work: raw_result(work, "[" * 100_000),
    "frame-beyond-16-MiB": lambda work: struct.pack(">I", MAX_FRAME + 1),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_coordinator_drops_the_peer_requeues_and_completes(tmp_path, name):
    events_path = tmp_path / "fleet.events.jsonl"
    config = fleet_config(max_iterations=20, events_path=str(events_path))
    thread, box, (sock,) = start_fleet_with_clients(
        config, [HELLO], local_workers=1
    )
    imposter, work = await_work(sock)
    sock.sendall(HOSTILE_FRAMES[name](work))
    expect_dropped(imposter)
    fleet = finish_fleet(thread, box)

    local = Campaign(fleet_config(max_iterations=20)).portfolio()
    assert fleet.iterations == local.iterations == 20 * len(FOUR_SHARDS)
    assert fingerprints(fleet) == fingerprints(local)
    requeued = events_of(events_path, "fleet_shard_requeued")
    assert [event["shard"] for event in requeued] == [work["shard"]]
    (lost,) = events_of(events_path, "fleet_worker_lost")
    assert "\n" not in lost["reason"] and len(lost["reason"]) < 400


def without(frame, name):
    return {key: value for key, value in frame.items() if key != name}


#: What a worker sends, field by field (``WORKER_FRAMES``): name -> (the
#: frame, sent in place of the hello or — ``work`` is the shard the peer
#: holds by then — after it; the reason the peer is dropped with).
FORGED = {"type": "fleet_shard_done", "shard": 0, "forged": True}
HOSTILE_HELLOS = {
    "hello-without-a-protocol": (without(HELLO_FRAME, "protocol"), "hello: field 'protocol' is missing"),
    "hello-protocol-as-text": ({**HELLO_FRAME, "protocol": "2"}, "hello.protocol: expected integer, got '2'"),
    "hello-without-a-pid": (without(HELLO_FRAME, "pid"), "hello: field 'pid' is missing"),
    "hello-pid-an-object": ({**HELLO_FRAME, "pid": FORGED}, "hello.pid: expected integer >= 0, got a dict"),
    "hello-pid-true": ({**HELLO_FRAME, "pid": True}, "hello.pid: expected integer >= 0, got True"),
    "hello-without-a-host": (without(HELLO_FRAME, "host"), "hello: field 'host' is missing"),
    "hello-host-a-list": ({**HELLO_FRAME, "host": ["forged"]}, "hello.host: expected string, got a list"),
    "hello-with-an-unknown-field": ({**HELLO_FRAME, "forged": 1}, "hello: unknown field.*'forged'"),
}
HOSTILE_WORKERS = {
    "heartbeat-without-a-shard": (lambda work: {"type": "heartbeat"}, "heartbeat: field 'shard' is missing"),
    "heartbeat-shard-as-text": (lambda work: {"type": "heartbeat", "shard": "forged"}, "heartbeat.shard: expected integer >= 0, got 'forged'"),
    "event-without-a-record": (lambda work: {"type": "event"}, "event: field 'record' is missing"),
    "event-record-as-text": (lambda work: {"type": "event", "record": "forged"}, "event.record: expected an object with a string 'type', got 'forged'"),
    "event-record-a-list": (lambda work: {"type": "event", "record": [FORGED]}, "event.record: expected an object .*, got a list"),
    "event-record-without-a-type": (lambda work: {"type": "event", "record": without(FORGED, "type")}, "event.record: expected an object .*, got a dict"),
    "event-record-type-a-number": (lambda work: {"type": "event", "record": {**FORGED, "type": 7}}, "event.record: expected an object .*, got a dict"),
    "event-with-an-unknown-field": (lambda work: {"type": "event", "record": FORGED, "zz": 1}, "event: unknown field.*'zz'"),
    "result-without-a-shard": (lambda work: without(forged_result(work), "shard"), "result: field 'shard' is missing"),
    "result-shard-true": (lambda work: {**forged_result(work), "shard": True}, "result.shard: expected integer >= 0, got True"),
    "result-without-canceled": (lambda work: without(forged_result(work), "canceled"), "result: field 'canceled' is missing"),
    "result-canceled-as-text": (lambda work: {**forged_result(work), "canceled": "no"}, "result.canceled: expected boolean, got 'no'"),
    "result-without-a-report": (lambda work: without(forged_result(work), "report"), "result: field 'report' is missing"),
    "result-report-as-text": (lambda work: {**forged_result(work), "report": TEXT}, "result.report: TestReport: expected an object"),
    "result-for-another-shard": (lambda work: {**forged_result(work), "shard": work["shard"] + 1}, "which it was not assigned"),
    "goodbye-with-a-field": (lambda work: {"type": "goodbye", "forged": 1}, "goodbye: unknown field.*'forged'"),
    "a-second-hello": (lambda work: HELLO_FRAME, "unexpected 'hello' frame"),
    "a-coordinator-frame": (lambda work: {**WORK, "shard": work["shard"]}, "unexpected 'work' frame"),
}


def forged_result(work):
    return {
        "type": "result", "shard": work["shard"], "canceled": False,
        "report": TestReport(strategy="forged").encode(),
    }


def assert_whole_and_nothing_forged(fleet, events_path, message, requeued):
    local = Campaign(fleet_config(max_iterations=20)).portfolio()
    assert fleet.iterations == local.iterations == 20 * len(FOUR_SHARDS)
    assert fingerprints(fleet) == fingerprints(local)
    assert [
        event["shard"] for event in events_of(events_path, "fleet_shard_requeued")
    ] == requeued
    (lost,) = events_of(events_path, "fleet_worker_lost")
    assert "\n" not in lost["reason"] and len(lost["reason"]) < 400
    assert re.search(message, lost["reason"]), lost["reason"]
    # Only the coordinator's own account of the drop may quote the peer.
    others = [event for event in read_events(events_path) if event != lost]
    assert "forged" not in json.dumps(others)
    assert all(
        type(event["pid"]) is int
        for event in others if event["type"] == "fleet_worker_ready"
    )


@pytest.mark.parametrize("name", sorted(HOSTILE_HELLOS))
def test_coordinator_reads_the_hello_field_by_field(tmp_path, name):
    frame, message = HOSTILE_HELLOS[name]
    events_path = tmp_path / "fleet.events.jsonl"
    config = fleet_config(max_iterations=20, events_path=str(events_path))
    thread, box, (sock,) = start_fleet_with_clients(
        config, [_encode_frame(frame)], local_workers=1
    )
    expect_dropped(Connection.from_socket(sock, label="imposter"))
    # Never welcomed, so never given a shard: nothing to requeue.
    assert_whole_and_nothing_forged(finish_fleet(thread, box), events_path, message, [])


@pytest.mark.parametrize("name", sorted(HOSTILE_WORKERS))
def test_coordinator_reads_worker_frames_field_by_field(tmp_path, name):
    forge, message = HOSTILE_WORKERS[name]
    events_path = tmp_path / "fleet.events.jsonl"
    config = fleet_config(max_iterations=20, events_path=str(events_path))
    thread, box, (sock,) = start_fleet_with_clients(
        config, [HELLO], local_workers=1
    )
    imposter, work = await_work(sock)
    imposter.send(forge(work))
    expect_dropped(imposter)
    assert_whole_and_nothing_forged(
        finish_fleet(thread, box), events_path, message, [work["shard"]]
    )


# ---------------------------------------------------------------------------
# The other direction: a live worker fed frames by a hostile coordinator
# ---------------------------------------------------------------------------
WELCOME = {
    "type": "welcome", "protocol": PROTOCOL_VERSION, "events": False,
    "config": TestConfig("tests.machines:Ping", max_iterations=3).to_json_obj(),
}
WORK = {
    "type": "work", "shard": 0, "time_limit": None,
    "spec": {"name": "random", "params": {"seed": 1}},
}


#: name -> (frames the coordinator sends after the hello, the error's text)
HOSTILE_COORDINATORS = {
    "welcome-without-a-protocol": ([without(WELCOME, "protocol")], "welcome: field 'protocol' is missing"),
    "welcome-protocol-as-text": ([{**WELCOME, "protocol": "2"}], "welcome.protocol: expected 2 "),
    "welcome-protocol-true": ([{**WELCOME, "protocol": True}], "welcome.protocol: expected 2 "),
    "welcome-of-another-protocol": ([{**WELCOME, "protocol": 3}], r"welcome.protocol: expected 2 \(.*\), got 3"),
    "welcome-config-not-an-object": ([{**WELCOME, "config": "Raft"}], "welcome.config: campaign JSON must be an object"),
    "welcome-config-mistyped-inside": (
        [{**WELCOME, "config": {**WELCOME["config"], "max_iterations": 5.5}}],
        "welcome.config: TestConfig.max_iterations: expected integer >= 1, got 5.5",
    ),
    "welcome-config-without-a-version": (
        [{**WELCOME, "config": without(WELCOME["config"], "version")}],
        "welcome.config: campaign JSON carries no 'version'",
    ),
    "welcome-with-a-version-1-config": (
        [{**WELCOME, "config": {**WELCOME["config"], "version": 1}}],
        "welcome.config: campaign JSON is schema version 1; this build reads version 2$",
    ),
    "welcome-without-a-config": ([without(WELCOME, "config")], "welcome: field 'config' is missing"),
    "welcome-null-config-and-none-held": ([{**WELCOME, "config": None}], "carries no config"),
    "welcome-events-as-text": ([{**WELCOME, "events": "yes"}], "welcome.events: expected boolean, got 'yes'"),
    "welcome-with-an-unknown-field": ([{**WELCOME, "zz": 1}], "welcome: unknown field.*'zz'"),
    "error-without-a-message": ([{"type": "error"}], "error: field 'message' is missing"),
    "error-message-not-text": ([{"type": "error", "message": {"a": 1}}], "error.message: expected string, got a dict"),
    "error-said-politely": ([{"type": "error", "message": "go away"}], "coordinator rejected this worker: go away"),
    "work-before-welcome": ([WORK], "expected a welcome frame, got 'work'"),
    "work-without-a-shard": ([WELCOME, without(WORK, "shard")], "work: field 'shard' is missing"),
    "work-shard-as-text": ([WELCOME, {**WORK, "shard": "1"}], "work.shard: expected integer >= 0, got '1'"),
    "work-shard-true": ([WELCOME, {**WORK, "shard": True}], "work.shard: expected integer >= 0, got True"),
    "work-shard-a-float": ([WELCOME, {**WORK, "shard": 1.0}], "work.shard: expected integer >= 0, got 1.0"),
    "work-shard-negative": ([WELCOME, {**WORK, "shard": -1}], "work.shard: expected integer >= 0, got -1"),
    "work-without-a-spec": ([WELCOME, without(WORK, "spec")], "work: field 'spec' is missing"),
    "work-spec-not-an-object": ([WELCOME, {**WORK, "spec": 7}], "work.spec: StrategySpec: expected an object, got 7"),
    "work-spec-name-not-text": ([WELCOME, {**WORK, "spec": {"name": 7}}], "work.spec: StrategySpec.name: expected string, got 7"),
    "work-spec-params-a-list": (
        [WELCOME, {**WORK, "spec": {"name": "dfs", "params": [1]}}],
        "work.spec: StrategySpec.params: expected an object",
    ),
    "work-time-limit-as-text": ([WELCOME, {**WORK, "time_limit": "3"}], "work.time_limit: expected finite number >= 0 or null, got '3'"),
    "work-without-a-time-limit": ([WELCOME, without(WORK, "time_limit")], "work: field 'time_limit' is missing"),
    "work-with-an-unknown-field": ([WELCOME, {**WORK, "zz": 1}], "work: unknown field.*'zz'"),
    "welcome-twice": ([WELCOME, WELCOME], "expected a work frame, got 'welcome'"),
    "a-frame-with-no-type": ([WELCOME, {"shard": 0}], "not a typed message object"),
    "a-frame-whose-type-is-a-number": ([{"type": 7}], "not a typed message object"),
}


def drive_worker(frames):
    """Run :func:`worker_loop` on a thread over a socketpair, the
    transport a forked local worker has; play the coordinator: read the
    hello, write ``frames``, answer a result with shutdown.  Returns what
    the worker returned or raised, and the frames it sent."""
    worker_end, coordinator_end = socket.socketpair()
    worker_side = Connection(worker_end, "coordinator")
    coordinator = Connection(coordinator_end, "worker")
    outcome = {}

    def work():
        try:
            outcome["returned"] = worker_loop(worker_side, handshake_timeout=30.0)
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            outcome["raised"] = exc
        finally:
            worker_side.close()

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    sent = []
    try:
        sent.append(coordinator.recv(timeout=30.0))
        for frame in frames:
            payload = json.dumps(frame).encode()
            coordinator_end.sendall(struct.pack(">I", len(payload)) + payload)
        while True:
            sent.append(coordinator.recv(timeout=30.0))
            if sent[-1] is None or sent[-1]["type"] == "result":
                coordinator.send({"type": "shutdown"})
    except ProtocolError:
        pass  # the worker hung up: it is done, one way or the other
    finally:
        thread.join(timeout=30.0)
        coordinator.close()
    assert not thread.is_alive()
    return outcome, sent


@pytest.mark.parametrize("name", sorted(HOSTILE_COORDINATORS))
def test_a_hostile_coordinator_gets_a_protocol_error_naming_the_field(name):
    frames, message = HOSTILE_COORDINATORS[name]
    outcome, sent = drive_worker(frames)
    error = outcome.get("raised")
    assert isinstance(error, ProtocolError), outcome
    assert "\n" not in str(error) and len(str(error)) < 400
    assert re.search(message, str(error)), str(error)
    assert [frame["type"] for frame in sent] == ["hello"]


def test_the_same_worker_runs_a_well_formed_shard():
    outcome, sent = drive_worker([WELCOME, WORK])
    assert outcome == {"returned": 1}
    types = [frame["type"] for frame in sent if frame["type"] != "heartbeat"]
    assert types == ["hello", "result", "goodbye"]
    (result,) = [frame for frame in sent if frame["type"] == "result"]
    assert decode_report(result["report"]).iterations == 3
