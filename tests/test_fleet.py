"""Tests for the distributed campaign fleet (:mod:`repro.testing.fleet`).

The wire format under test is specified normatively in docs/protocol.md;
the section references below (§2 framing, §3 handshake, §5 work
lifecycle, §6 failure handling, §7 checkpointing) point there.

The acceptance property: a campaign sharded over ≥2 worker processes via
``serve``/``submit`` merges to the same distinct-bug fingerprint set as
``Campaign.portfolio()`` of the same config + seed (the same coordinator
with one local worker per spec) and as the shards run one by one in
this process — and killing a worker mid-campaign changes neither
completion nor that set (the shard is re-queued, §6).  What the sets
*are* is pinned across commits by the ``portfolio`` section of
``tests/golden_traces.json``.
"""

import collections
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import Campaign, PSharpError, StrategySpec, TestConfig
from repro.testing.checkpoint import (
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.testing import fleet
from repro.testing.engine import TestReport
from repro.testing.fleet import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    ProtocolError,
    _encode_frame,
    connect_worker,
    run_fleet,
    worker_loop,
)

ROOT = Path(__file__).resolve().parents[1]

#: Explicitly seeded shards: every run of the campaign must explore
#: *identical* schedules, so nothing may draw a fresh seed.
FOUR_SHARDS = (
    StrategySpec("random", {"seed": 1}),
    StrategySpec("random", {"seed": 2}),
    StrategySpec("pct", {"depth": 10, "seed": 3}),
    StrategySpec("delay-bounding", {"delays": 2, "seed": 4}),
)


def fleet_config(**overrides):
    """A deterministic run-to-completion campaign: every shard burns its
    full iteration budget (stop_on_first_bug off), so merged totals and
    fingerprint sets are exactly reproducible."""
    defaults = dict(
        program="BoundedAsync",
        specs=FOUR_SHARDS,
        max_iterations=60,
        time_limit=120.0,
        stop_on_first_bug=False,
    )
    defaults.update(overrides)
    return TestConfig(**defaults)


def fingerprints(report):
    return {
        bug.trace.fingerprint() for bug in report.bugs if bug.trace is not None
    }


def start_fleet(config, **kwargs):
    """Run the coordinator on a thread; returns (thread, result box)."""
    box = {}

    def target():
        try:
            box["report"] = run_fleet(config, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def start_fleet_with_clients(config, openers, **kwargs):
    """:func:`start_fleet` on an ephemeral port, with one raw TCP client
    per entry of ``openers`` connected — and those opening bytes sent —
    from inside ``on_listen``: before the coordinator starts its first
    worker, so a campaign that warm local workers finish in milliseconds
    cannot be over before a test's hand-rolled peer is in.  Returns
    ``(thread, box, sockets)``."""
    socks = []

    def dial(host, port):
        for opener in openers:
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.sendall(opener)
            socks.append(sock)

    thread, box = start_fleet(config, port=0, on_listen=dial, **kwargs)
    wait_for(
        lambda: len(socks) == len(openers) or "error" in box,
        message="clients connected",
    )
    return thread, box, socks


def finish_fleet(thread, box, timeout=90.0):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "coordinator did not finish in time"
    if "error" in box:
        raise box["error"]
    return box["report"]


def wait_for(predicate, timeout=20.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"{message} not met within {timeout}s")


def read_events(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spawn_tcp_worker(port):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--host", "127.0.0.1", "--port", str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )


# ---------------------------------------------------------------------------
# Framing (protocol.md §2)
# ---------------------------------------------------------------------------
def socket_pair():
    left, right = socket.socketpair()
    return (
        Connection.from_socket(left, label="left"),
        Connection.from_socket(right, label="right"),
        right,
    )


class TestFraming:
    def test_round_trip_preserves_message(self):
        a, b, _ = socket_pair()
        a.send({"type": "work", "shard": 3, "spec": {"name": "random"}})
        message = b.recv(timeout=5.0)
        assert message == {"type": "work", "shard": 3, "spec": {"name": "random"}}
        a.close(), b.close()

    def test_partial_frames_reassemble(self):
        # §2: a frame split across arbitrary write boundaries must
        # reassemble; bytes after it belong to the next frame.
        a, b, right_sock = socket_pair()
        frame = _encode_frame({"type": "heartbeat", "shard": 1})
        right_sock.sendall(frame[:3])
        assert a.poll() is None  # incomplete: not a message yet
        right_sock.sendall(frame[3:] + _encode_frame({"type": "goodbye"}))
        assert a.recv(timeout=5.0) == {"type": "heartbeat", "shard": 1}
        assert a.recv(timeout=5.0) == {"type": "goodbye"}
        a.close(), b.close()

    def test_oversized_frame_is_protocol_error_not_allocation(self):
        # §2: the length prefix is validated before any allocation.
        a, b, right_sock = socket_pair()
        right_sock.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            a.recv(timeout=5.0)
        a.close(), b.close()

    def test_garbage_payload_is_protocol_error(self):
        a, b, right_sock = socket_pair()
        payload = b"\xff\xfenot json"
        right_sock.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="undecodable"):
            a.recv(timeout=5.0)
        a.close(), b.close()

    def test_untyped_message_is_protocol_error(self):
        # §2: every frame is a JSON object with a string "type".
        a, b, right_sock = socket_pair()
        payload = json.dumps([1, 2, 3]).encode()
        right_sock.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="typed message"):
            a.recv(timeout=5.0)
        a.close(), b.close()

    def test_eof_raises_connection_closed(self):
        a, b, _ = socket_pair()
        b.close()
        with pytest.raises(ConnectionClosed):
            a.recv(timeout=5.0)
        a.close()

    def test_recv_timeout_returns_none(self):
        a, b, _ = socket_pair()
        start = time.monotonic()
        assert a.recv(timeout=0.1) is None
        assert time.monotonic() - start < 2.0
        a.close(), b.close()

    def test_a_read_after_close_raises_connection_closed(self):
        # The coordinator drops a peer for its own `goodbye` in the middle
        # of a pump, then polls it once more: that poll must end the pump
        # the way any lost connection does, not with select's ValueError.
        a, b, _ = socket_pair()
        b.send({"type": "goodbye"})
        b.send({"type": "heartbeat", "shard": 0})
        assert a.recv(timeout=5.0) == {"type": "goodbye"}
        a.close()
        a.close()  # idempotent
        for read in (a.poll, lambda: a.recv(timeout=None)):
            with pytest.raises(ConnectionClosed, match="is closed"):
                read()
        with pytest.raises(ConnectionClosed, match="is closed"):
            a.send({"type": "heartbeat", "shard": 0})
        b.close()


# ---------------------------------------------------------------------------
# Transport parity + the acceptance property
# ---------------------------------------------------------------------------
class TestFleetMatchesPortfolio:
    def test_forked_fleet_equals_local_portfolio(self):
        config = fleet_config()
        fleet = run_fleet(config, local_workers=2)
        local = Campaign(config).portfolio()
        assert fleet.iterations == local.iterations
        assert fingerprints(fleet) == fingerprints(local)
        assert len(fleet.sub_reports) == len(FOUR_SHARDS)
        assert fleet.strategy == "fleet"

    def test_tcp_fleet_equals_forked_fleet(self):
        # The same campaign over TCP workers and over forked workers on
        # socketpairs merges identically (§1).
        config = fleet_config()
        ports = []
        thread, box = start_fleet(
            config, port=0, on_listen=lambda host, port: ports.append(port)
        )
        wait_for(lambda: ports, message="listener bound")
        workers = [spawn_tcp_worker(ports[0]) for _ in range(2)]
        try:
            socket_report = finish_fleet(thread, box)
        finally:
            for proc in workers:
                proc.communicate(timeout=30)
        forked_report = run_fleet(config, local_workers=2)
        assert fingerprints(socket_report) == fingerprints(forked_report)
        assert socket_report.iterations == forked_report.iterations
        assert all(proc.returncode == 0 for proc in workers)

    def test_first_bug_wins_cancels_fleet(self):
        # stop_on_first_bug on: the campaign ends early with a winner
        # and the merged first_bug is the winning shard's.
        config = fleet_config(stop_on_first_bug=True, max_iterations=5_000)
        report = run_fleet(config, local_workers=2)
        assert report.bug_found
        assert report.first_bug is not None


class TestFleetFailureModes:
    def test_worker_killed_mid_shard_requeues_and_completes(self, tmp_path):
        # §6: a lost worker's shard is re-queued and re-run from
        # scratch, so the campaign completes with the full merged
        # report — same totals, same fingerprint set — as if nothing
        # had died.
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(
            max_iterations=4_000, events_path=str(events_path)
        )
        ports = []
        thread, box = start_fleet(
            config, port=0, on_listen=lambda host, port: ports.append(port)
        )
        wait_for(lambda: ports, message="listener bound")
        workers = [spawn_tcp_worker(ports[0]) for _ in range(2)]

        def two_assigned():
            assigned = [
                event for event in read_events(events_path)
                if event["type"] == "fleet_work_assigned"
            ]
            return len(assigned) >= 2

        wait_for(two_assigned, message="two shards assigned")
        time.sleep(0.2)  # let the victim get into the middle of a shard
        workers[0].kill()
        try:
            report = finish_fleet(thread, box)
        finally:
            for proc in workers:
                proc.kill()
                proc.communicate(timeout=30)

        local = Campaign(fleet_config(max_iterations=4_000)).portfolio()
        assert report.iterations == local.iterations
        assert fingerprints(report) == fingerprints(local)
        types = {event["type"] for event in read_events(events_path)}
        assert "fleet_worker_lost" in types
        assert "fleet_shard_requeued" in types

    def test_version_mismatch_is_rejected_with_error_frame(self):
        # §3: a hello announcing a foreign protocol version gets an
        # error frame and a closed connection; the campaign is
        # unaffected.
        config = fleet_config(max_iterations=20)
        hello = {**HELLO_FRAME, "protocol": 999}
        thread, box, (sock,) = start_fleet_with_clients(
            config, [_encode_frame(hello)], local_workers=1
        )
        imposter = Connection.from_socket(sock, label="imposter")
        reply = imposter.recv(timeout=10.0)
        assert reply["type"] == "error"
        assert "protocol version" in reply["message"]
        with pytest.raises(ConnectionClosed):
            while True:
                imposter.recv(timeout=10.0)
        imposter.close()
        report = finish_fleet(thread, box)
        assert report.iterations == 20 * len(FOUR_SHARDS)

    def test_garbage_client_does_not_kill_campaign(self):
        # §6: an undecodable frame drops that connection, nothing else.
        config = fleet_config(max_iterations=20)
        thread, box, (sock,) = start_fleet_with_clients(
            config, [b"\x00\x00\x00\x04spam"], local_workers=1
        )
        report = finish_fleet(thread, box)
        sock.close()
        assert report.iterations == 20 * len(FOUR_SHARDS)

    def test_fleet_without_worker_sources_is_rejected(self):
        with pytest.raises(PSharpError, match="worker source"):
            run_fleet(fleet_config())


HELLO_FRAME = {
    "type": "hello", "protocol": PROTOCOL_VERSION, "pid": os.getpid(),
    "host": "imposter",
}
HELLO = _encode_frame(HELLO_FRAME)


def await_work(sock):
    """The rest of the §3 handshake for a hand-rolled peer that already
    sent :data:`HELLO`: welcome, then a batch of shards.  Returns
    ``(connection, work frame)``."""
    imposter = Connection.from_socket(sock, label="imposter")
    assert imposter.recv(timeout=10.0)["type"] == "welcome"
    work = imposter.recv(timeout=10.0)
    assert work["type"] == "work"
    return imposter, work


def running(work):
    """The shard a worker given ``work`` runs first (§5)."""
    return work["units"][0][0]


def expect_dropped(imposter):
    with pytest.raises(ConnectionClosed):
        while True:
            assert imposter.recv(timeout=10.0) is not None, "not dropped"
    imposter.close()


def events_of(path, *types):
    return [event for event in read_events(path) if event["type"] in types]


class TestHostileResults:
    """§6: a peer that completed the handshake and then sends a malformed
    or unsolicited ``result`` is dropped and its shard re-queued — the
    coordinator survives and the merge is complete."""

    @pytest.mark.parametrize(
        "forge",
        [
            lambda work, report: {
                "type": "result", "canceled": False, "report": report,
                "events": [],
            },
            lambda work, report: {
                "type": "result", "shard": str(running(work)),
                "canceled": False, "report": report, "events": [],
            },
            lambda work, report: {
                "type": "result", "shard": running(work), "canceled": False,
                "events": [],
            },
            lambda work, report: {
                "type": "result", "shard": work["units"][-1][0] + 1,
                "canceled": False, "report": report, "events": [],
            },
            # The only peer of a 4-shard campaign holds a batch of two
            # (§5); it may not answer for the queued one first.
            lambda work, report: {
                "type": "result", "shard": work["units"][1][0],
                "canceled": False, "report": report, "events": [],
            },
        ],
        ids=[
            "no-shard", "non-integer-shard", "no-report", "unassigned-shard",
            "queued-shard",
        ],
    )
    def test_bad_result_frame_drops_peer_and_requeues(self, tmp_path, forge):
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(max_iterations=20, events_path=str(events_path))
        thread, box, (sock,) = start_fleet_with_clients(config, [HELLO])
        port = sock.getpeername()[1]
        imposter, work = await_work(sock)
        # A well-formed report, so only the frame around it is at fault.
        imposter.send(forge(work, TestReport(strategy="forged").encode()))
        expect_dropped(imposter)

        worker = spawn_tcp_worker(port)
        try:
            fleet = finish_fleet(thread, box)
        finally:
            worker.communicate(timeout=30)
        local = Campaign(fleet_config(max_iterations=20)).portfolio()
        assert fleet.iterations == local.iterations == 20 * len(FOUR_SHARDS)
        assert fingerprints(fleet) == fingerprints(local)
        requeued = events_of(events_path, "fleet_shard_requeued")
        # Only the shard in flight counts as requeued; the rest of its
        # batch was never started (§6).
        assert [event["shard"] for event in requeued] == [running(work)]
        assert len(events_of(events_path, "fleet_worker_lost")) == 1


class TestHeartbeatClock:
    """§6: a shard's heartbeat clock starts with the shard, and a busy
    worker's silence clock with the assignment of its shard."""

    def test_a_shard_shorter_than_the_interval_sends_no_heartbeat(self, monkeypatch):
        # An interval no shard reaches: any heartbeat would be one sent at
        # the shard's start.
        monkeypatch.setattr("repro.testing.fleet.HEARTBEAT_INTERVAL", 3600.0)
        coordinator, worker_side, _ = socket_pair()
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(done=worker_loop(worker_side)), daemon=True
        )
        thread.start()
        try:
            sent = [coordinator.recv(timeout=30.0)]
            coordinator.send({
                "type": "welcome", "protocol": PROTOCOL_VERSION, "events": False,
                "config": TestConfig("tests.machines:Ping", max_iterations=3).to_json_obj(),
            })
            coordinator.send({
                "type": "work", "time_limit": None,
                "units": [[0, {"name": "random", "params": {"seed": 1}}]],
            })
            while sent[-1]["type"] != "result":
                sent.append(coordinator.recv(timeout=30.0))
            coordinator.send({"type": "shutdown"})
            sent.append(coordinator.recv(timeout=30.0))
            thread.join(timeout=30.0)
        finally:
            coordinator.close()
            worker_side.close()
        assert outcome == {"done": 1}
        assert [frame["type"] for frame in sent] == ["hello", "result", "goodbye"]
        assert TestReport.decode(sent[1]["report"]).iterations == 3

    def test_a_worker_idle_past_the_timeout_is_not_stale_when_given_a_shard(
        self, monkeypatch
    ):
        # The real worker idles three times the worker timeout behind a
        # heartbeating peer that holds the only shard, then inherits it
        # when that peer hangs up.  Its first frame on that shard is a
        # heartbeat one interval in (no event log: no event frames),
        # after the coordinator's next liveness pass — only the stamp at
        # assignment keeps it from being dropped as stale, which would
        # leave the campaign with no worker to finish it.
        worker_timeout = 1.2
        monkeypatch.setattr("repro.testing.fleet.HEARTBEAT_INTERVAL", 0.4)
        config = fleet_config(specs=FOUR_SHARDS[:1], max_iterations=3_000)
        thread, box, (sock,) = start_fleet_with_clients(
            config, [HELLO], worker_timeout=worker_timeout
        )
        port = sock.getpeername()[1]
        holder, work = await_work(sock)
        worker = threading.Thread(
            target=lambda: worker_loop(connect_worker("127.0.0.1", port)), daemon=True
        )
        worker.start()
        started = time.monotonic()
        while time.monotonic() - started < 3 * worker_timeout:
            holder.send({"type": "heartbeat", "shard": running(work), "events": []})
            time.sleep(0.1)
        holder.close()
        report = finish_fleet(thread, box, timeout=30.0)
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert report.iterations == 3_000


def batches(path):
    """The batches the coordinator handed out, in order, as lists of
    shards: a batch is a run of ``fleet_work_assigned`` records to one
    worker with no other record between them."""
    handed, previous = [], None
    for event in read_events(path):
        if event["type"] != "fleet_work_assigned":
            previous = None
            continue
        if previous is not None and previous["worker"] == event["worker"]:
            handed[-1].append(event["shard"])
        else:
            handed.append([event["shard"]])
        previous = event
    return handed


def seeded(count):
    return tuple(StrategySpec("random", {"seed": seed}) for seed in range(count))


class TestGuidedBatches:
    """§5: an idle worker is handed the next ``max(1, pending // (2 ×
    peers))`` pending shards in one ``work`` frame and answers each with
    its own ``result``."""

    def test_300_shards_on_2_workers_shrink_to_single_shards(self, tmp_path):
        events_path = tmp_path / "fleet.events.jsonl"
        specs = seeded(300)
        config = TestConfig(
            "tests.machines:Ping", specs=specs, max_iterations=1,
            events_path=str(events_path),
        )
        report = run_fleet(config, local_workers=2)
        handed = batches(events_path)
        # No worker was lost, so the shards go out once each, in order.
        assert [shard for batch in handed for shard in batch] == list(range(300))
        pending = 300
        for batch in handed:
            assert len(batch) == max(1, pending // (2 * 2))
            pending -= len(batch)
        assert len(handed[0]) == 75
        assert len(handed[-1]) == len(handed[-2]) == 1
        results = events_of(events_path, "fleet_shard_result")
        assert sorted(event["shard"] for event in results) == list(range(300))
        in_process = [
            Campaign(config.with_overrides(specs=None, strategy=spec, events_path=None)).run()
            for spec in specs
        ]
        assert [sub.total_steps for sub in report.sub_reports] == [
            run.total_steps for run in in_process
        ]
        assert [sub.iterations for sub in report.sub_reports] == [1] * 300

    @pytest.mark.parametrize("shards, workers", [(4, 2), (3, 2), (4, 4)])
    def test_at_most_two_shards_per_worker_go_one_by_one(self, tmp_path, shards, workers):
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(
            specs=FOUR_SHARDS[:shards], max_iterations=20, events_path=str(events_path)
        )
        if workers == shards:  # one local worker per spec
            report = Campaign(config).portfolio()
        else:
            report = run_fleet(config, local_workers=workers)
        assert sorted(map(len, batches(events_path))) == [1] * shards
        assert report.iterations == 20 * shards

    def test_the_event_log_counts_each_record_once(self, tmp_path):
        # The counts a log held when every worker record was a frame of
        # its own: one assignment, one start, one end and one result per
        # shard, each bug once — and per shard in that order.
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(
            specs=FOUR_SHARDS * 10, max_iterations=20, events_path=str(events_path)
        )
        report = run_fleet(config, local_workers=2)
        log = read_events(events_path)
        assert collections.Counter(event["type"] for event in log) == {
            "fleet_start": 1, "fleet_worker_spawn": 2, "fleet_worker_ready": 2,
            "fleet_work_assigned": 40, "shard_start": 40,
            "bug_found": report.buggy_iterations, "shard_end": 40,
            "fleet_shard_result": 40, "fleet_worker_exit": 2, "fleet_end": 1,
        }
        assert report.buggy_iterations > 0
        for shard in range(40):
            kinds = [
                event["type"] for event in log
                if event.get("shard") == shard and event["type"] != "bug_found"
            ]
            assert kinds == [
                "fleet_work_assigned", "shard_start", "shard_end", "fleet_shard_result",
            ]

    def test_first_bug_wins_starts_no_shard_behind_the_cancel(self, tmp_path):
        # Every shard that started delivered its result, every other one
        # is empty in the merge, and the coordinator returned without
        # waiting for the units the cancel overtook: with an hour of
        # grace, waiting for them would not finish in time.
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(
            specs=seeded(40), stop_on_first_bug=True, max_iterations=200,
            events_path=str(events_path),
        )
        thread, box = start_fleet(config, local_workers=2, grace=3600.0)
        report = finish_fleet(thread, box)
        assert report.first_bug is not None
        started = {event["shard"] for event in events_of(events_path, "shard_start")}
        delivered = {event["shard"] for event in events_of(events_path, "fleet_shard_result")}
        assert started == delivered
        for shard, sub in enumerate(report.sub_reports):
            if shard not in started:
                assert sub.iterations == 0
        assert events_of(events_path, "fleet_worker_lost", "fleet_shard_requeued") == []
        assert [e["exitcode"] for e in events_of(events_path, "fleet_worker_exit")] == [0, 0]


WELCOME_PING = {
    "type": "welcome", "protocol": PROTOCOL_VERSION, "events": True,
    "config": TestConfig("tests.machines:Ping", max_iterations=3).to_json_obj(),
}


def work_of(*shards):
    return {
        "type": "work", "time_limit": None,
        "units": [[shard, {"name": "random", "params": {"seed": shard}}] for shard in shards],
    }


class ScriptedCoordinator:
    """The coordinator half of the protocol, played by the test against a
    real :func:`worker_loop` on a thread, over a socketpair."""

    def __init__(self):
        near, far = socket.socketpair()
        self.sock = near
        self.conn = Connection(near, "worker")
        self.outcome = {}
        worker_side = Connection(far, "coordinator")
        self.thread = threading.Thread(
            target=lambda: self.outcome.update(done=worker_loop(worker_side)),
            daemon=True,
        )
        self.thread.start()
        assert self.conn.recv(timeout=30.0)["type"] == "hello"

    def send(self, *frames):
        """``frames`` in one write: the worker finds them all buffered."""
        self.sock.sendall(b"".join(map(_encode_frame, frames)))

    def next_frame(self):
        while True:
            frame = self.conn.recv(timeout=30.0)
            assert frame is not None, "the worker went quiet"
            if frame["type"] != "heartbeat":
                return frame

    def shutdown(self):
        """Say shutdown; returns the frames the worker sent until goodbye."""
        self.send({"type": "shutdown"})
        sent = [self.next_frame()]
        while sent[-1]["type"] != "goodbye":
            sent.append(self.next_frame())
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()
        self.conn.close()
        return sent


class TestWorkerBatches:
    """§5 on the worker's side: the units of a batch run in order, one
    result each, and a cancel or shutdown ends the batch."""

    def test_a_batch_runs_in_order_with_one_result_per_shard(self):
        coordinator = ScriptedCoordinator()
        coordinator.send(WELCOME_PING, work_of(4, 2, 7))
        results = [coordinator.next_frame() for _ in range(3)]
        assert [result["shard"] for result in results] == [4, 2, 7]
        for result in results:
            assert result["canceled"] is False
            assert TestReport.decode(result["report"]).iterations == 3
            # The shard's records ride its result, stamped with its index.
            assert [r["type"] for r in result["events"]] == ["shard_start", "shard_end"]
            assert {r["shard"] for r in result["events"]} == {result["shard"]}
        assert [frame["type"] for frame in coordinator.shutdown()] == ["goodbye"]
        assert coordinator.outcome == {"done": 3}

    def test_a_cancel_behind_the_work_frame_ends_the_batch_at_its_first_shard(self):
        coordinator = ScriptedCoordinator()
        coordinator.send(WELCOME_PING, work_of(0, 1, 2), {"type": "cancel"})
        result = coordinator.next_frame()
        assert (result["type"], result["shard"], result["canceled"]) == ("result", 0, True)
        assert TestReport.decode(result["report"]).iterations == 0
        assert {record["shard"] for record in result["events"]} == {0}
        # Shards 1 and 2 never start: no result, no record.
        assert [frame["type"] for frame in coordinator.shutdown()] == ["goodbye"]
        assert coordinator.outcome == {"done": 1}

    def test_a_cancel_that_arrives_as_a_shard_ends_starts_no_other(self, monkeypatch):
        coordinator = ScriptedCoordinator()
        run_campaign = fleet.run_campaign

        def run_then_cancel(*args, **kwargs):
            report = run_campaign(*args, **kwargs)
            coordinator.send({"type": "cancel"})
            return report

        monkeypatch.setattr(fleet, "run_campaign", run_then_cancel)
        coordinator.send(WELCOME_PING, work_of(0, 1, 2))
        result = coordinator.next_frame()
        # Shard 0 ran in full; the cancel came in before its result left,
        # so the result says so and the coordinator expects no other.
        assert (result["shard"], result["canceled"]) == (0, True)
        assert TestReport.decode(result["report"]).iterations == 3
        assert [frame["type"] for frame in coordinator.shutdown()] == ["goodbye"]
        assert coordinator.outcome == {"done": 1}

    def test_a_shutdown_mid_batch_sends_one_result_then_goodbye(self):
        coordinator = ScriptedCoordinator()
        coordinator.send(WELCOME_PING, work_of(5, 6), {"type": "shutdown"})
        sent = [coordinator.next_frame(), coordinator.next_frame()]
        assert [(f["type"], f.get("shard"), f.get("canceled")) for f in sent] == [
            ("result", 5, True), ("goodbye", None, None),
        ]
        coordinator.thread.join(timeout=30.0)
        assert coordinator.outcome == {"done": 1}


def open_descriptors():
    return set(os.listdir("/proc/self/fd"))


def reapable_child():
    """Pid of an exited-but-unreaped child of this process, else 0."""
    try:
        return os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:
        return 0


class TestLocalWorkers:
    """§1: local workers are forked from the coordinator, each onto a
    socketpair of its own."""

    def test_forked_fleet_equals_in_process_run(self):
        specs = tuple(
            StrategySpec("random", {"seed": seed}) for seed in range(40)
        )
        config = fleet_config(specs=specs, max_iterations=5)
        forked = run_fleet(config, local_workers=2)
        in_process = [
            Campaign(config.with_overrides(specs=None, strategy=spec)).run()
            for spec in specs
        ]
        reference = set().union(*map(fingerprints, in_process))
        assert reference, "the comparison needs bugs to compare"
        assert forked.iterations == 40 * 5
        assert forked.iterations == sum(r.iterations for r in in_process)
        assert fingerprints(forked) == reference
        assert [sub.iterations for sub in forked.sub_reports] == [5] * 40

    def test_run_fleet_leaves_no_descriptor_child_or_output(
        self, tmp_path, capfd
    ):
        # Library use: whatever the coordinator opened or started it has
        # closed, joined and kept quiet by the time it returns.
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(max_iterations=20, events_path=str(events_path))
        assert reapable_child() == 0
        before = open_descriptors()
        report = run_fleet(config, port=0, local_workers=2)
        assert open_descriptors() == before
        assert reapable_child() == 0
        captured = capfd.readouterr()
        assert (captured.out, captured.err) == ("", "")
        assert report.iterations == 20 * len(FOUR_SHARDS)
        # One exit row per local worker; together they ran every shard.
        exits = events_of(events_path, "fleet_worker_exit")
        spawns = events_of(events_path, "fleet_worker_spawn")
        assert [e["slot"] for e in exits] == [0, 1]
        assert [e["pid"] for e in exits] == [e["pid"] for e in spawns]
        assert [e["exitcode"] for e in exits] == [0, 0]
        assert sum(e["shards"] for e in exits) == len(FOUR_SHARDS)

    def test_respawned_worker_holds_no_other_peers_connection(self, tmp_path):
        # A respawned worker is forked while TCP peers are connected.  It
        # must close its inherited copies of their sockets, or a peer
        # would not see the coordinator hang up on it while that worker
        # lives.  A second peer sits on a shard so that the campaign (and
        # with it the worker) cannot finish before the first has looked.
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(max_iterations=500, events_path=str(events_path))
        thread, box, socks = start_fleet_with_clients(
            config, [HELLO, HELLO], local_workers=1
        )
        (dropped, _), (holdout, _) = map(await_work, socks)
        (spawn,) = wait_for(
            lambda: events_of(events_path, "fleet_worker_spawn"),
            message="local worker spawned",
        )

        def local_ready():
            return {
                event["pid"]
                for event in events_of(events_path, "fleet_worker_ready")
                if event["worker"].startswith("local-")
            }

        # Kill the worker only once it has said hello: a kill that lands
        # before its handshake leaves no ready event to count, and what
        # is asked for is a *replacement* forked with both peers attached.
        wait_for(
            lambda: spawn["pid"] in local_ready(),
            message="first local worker ready",
        )
        os.kill(spawn["pid"], signal.SIGKILL)
        wait_for(
            lambda: local_ready() - {spawn["pid"]},
            message="replacement worker ready",
        )
        dropped.send({"type": "result"})
        expect_dropped(dropped)
        # (Not a plain close(): this process is the coordinator's too, so
        # the forked worker holds a copy of the imposters' own ends.)
        holdout.send({"type": "result"})
        expect_dropped(holdout)
        report = finish_fleet(thread, box)
        local = Campaign(fleet_config(max_iterations=500)).portfolio()
        assert report.iterations == local.iterations
        assert fingerprints(report) == fingerprints(local)

    def test_stopped_workers_are_killed_and_joined_on_the_way_out(
        self, tmp_path, monkeypatch
    ):
        # SIGSTOPped workers answer neither shutdown nor SIGTERM: the
        # heartbeat check replaces them, and teardown escalates to
        # SIGKILL for all of them at once and still joins every child.
        # The live replacements heartbeat well inside the short timeout
        # (their telemetry rides their heartbeats, §4, so it keeps no
        # worker alive by itself).
        monkeypatch.setattr("repro.testing.fleet.HEARTBEAT_INTERVAL", 0.1)
        events_path = tmp_path / "fleet.events.jsonl"
        config = fleet_config(
            max_iterations=1_500, events_path=str(events_path)
        )
        thread, box = start_fleet(
            config, local_workers=2, worker_timeout=0.5, grace=0.2
        )
        wait_for(
            lambda: len(events_of(events_path, "fleet_work_assigned")) >= 2,
            message="both workers busy",
        )
        stopped = [
            event["pid"]
            for event in events_of(events_path, "fleet_worker_spawn")
        ]
        for pid in stopped:
            os.kill(pid, signal.SIGSTOP)
        report = finish_fleet(thread, box)
        assert report.iterations == 1_500 * len(FOUR_SHARDS)
        exits = {
            event["pid"]: event["exitcode"]
            for event in events_of(events_path, "fleet_worker_exit")
        }
        assert len(exits) == 4  # two stopped, two replacements
        assert [exits[pid] for pid in stopped] == [-signal.SIGKILL] * 2
        assert reapable_child() == 0


def drop_shards(ckpt, *shards):
    """Rewrite a checkpoint as if the campaign had been killed before
    ``shards`` completed."""
    state = load_checkpoint(ckpt)
    for shard in shards:
        del state["completed"][shard]
    save_checkpoint(
        ckpt,
        fingerprint=state["fingerprint"],
        specs=state["specs"],
        completed=state["completed"],
    )


class TestFleetCheckpoint:
    def test_resume_skips_checkpointed_shards(self, tmp_path):
        # §7: completed shards persist as they land; a resumed campaign
        # re-runs only the rest.  The sentinel iteration count proves
        # shard 0's report was loaded, not re-computed.
        config = fleet_config()
        ckpt = tmp_path / "fleet.ckpt"
        report = run_fleet(config, local_workers=2, checkpoint=str(ckpt))
        full_fingerprints = fingerprints(report)
        state = load_checkpoint(ckpt)
        assert sorted(state["completed"]) == [0, 1, 2, 3]

        state["completed"][0].iterations = 123_456  # sentinel
        del state["completed"][2]
        save_checkpoint(
            ckpt,
            fingerprint=state["fingerprint"],
            specs=state["specs"],
            completed=state["completed"],
        )

        events_path = tmp_path / "resume.events.jsonl"
        resumed = run_fleet(
            config.with_overrides(events_path=str(events_path)),
            local_workers=2,
            resume=str(ckpt),
        )
        # Shard 0 was not re-run (sentinel survived); shard 2 was.
        assert resumed.sub_reports[0].iterations == 123_456
        assert resumed.sub_reports[2].iterations == config.max_iterations
        assigned = [
            event["shard"] for event in read_events(events_path)
            if event["type"] == "fleet_work_assigned"
        ]
        assert 0 not in assigned and 1 not in assigned and 3 not in assigned
        assert 2 in assigned
        assert fingerprints(resumed) == full_fingerprints

    def test_each_shard_is_encoded_once(self, tmp_path, monkeypatch):
        # The coordinator keeps a completed shard's document, encoded on
        # acceptance, and every later checkpoint write reuses it: N
        # encodes for N shards, not one per shard per write.  Forked
        # workers encode in their own processes and are not counted.
        encodes = []
        encode = TestReport.encode

        def counted(report):
            encodes.append(report.strategy)
            return encode(report)

        monkeypatch.setattr(TestReport, "encode", counted)
        config = fleet_config()
        ckpt = tmp_path / "fleet.ckpt"
        events_path = tmp_path / "fleet.events.jsonl"
        first = Campaign(
            config.with_overrides(events_path=str(events_path))
        ).portfolio(checkpoint=str(ckpt))
        assert len(encodes) == len(FOUR_SHARDS)
        assert len(events_of(events_path, "checkpoint")) == len(FOUR_SHARDS) + 1
        # Resuming writes the loaded documents back and re-runs nothing.
        resume_events = tmp_path / "resume.events.jsonl"
        resumed = Campaign(
            config.with_overrides(events_path=str(resume_events))
        ).portfolio(resume=str(ckpt))
        assert len(encodes) == len(FOUR_SHARDS)
        assert events_of(
            resume_events, "fleet_worker_spawn", "fleet_work_assigned"
        ) == []
        assert resumed.iterations == first.iterations
        assert fingerprints(resumed) == fingerprints(first)
        assert sorted(load_checkpoint(ckpt)["completed"]) == [0, 1, 2, 3]

    def test_resume_keeps_checkpointing_to_the_resume_file(self, tmp_path):
        # §7: `resume=` without `checkpoint=` persists the re-run shards
        # to the file it resumed from — a campaign killed a second time
        # must not lose them.
        config = fleet_config()
        ckpt = tmp_path / "fleet.ckpt"
        run_fleet(config, local_workers=2, checkpoint=str(ckpt))
        drop_shards(ckpt, 1, 3)
        run_fleet(config, local_workers=2, resume=str(ckpt))
        assert sorted(load_checkpoint(ckpt)["completed"]) == [0, 1, 2, 3]

    def test_fully_resumed_campaign_starts_no_worker(self, tmp_path):
        config = fleet_config()
        ckpt = tmp_path / "fleet.ckpt"
        first = run_fleet(config, local_workers=2, checkpoint=str(ckpt))
        events_path = tmp_path / "resume.events.jsonl"
        resumed = run_fleet(
            config.with_overrides(events_path=str(events_path)),
            local_workers=2,
            resume=str(ckpt),
        )
        assert resumed.iterations == first.iterations
        assert fingerprints(resumed) == fingerprints(first)
        assert events_of(events_path, "fleet_worker_spawn") == []
        assert len(events_of(events_path, "fleet_start", "fleet_end")) == 2

    def test_resume_with_a_checkpointed_winner_runs_nothing(self, tmp_path):
        # stop_on_first_bug: shard 3 found the bug before the campaign was
        # killed.  The resumed campaign is over — the other shards must
        # not be started just to be cancelled, let alone run in full.
        hunting = fleet_config(stop_on_first_bug=True, max_iterations=9)
        ckpt = tmp_path / "fleet.ckpt"
        run_fleet(
            hunting.with_overrides(stop_on_first_bug=False),
            local_workers=2, checkpoint=str(ckpt),
        )
        state = load_checkpoint(ckpt)
        winner = state["completed"][3].first_bug
        assert winner is not None
        save_checkpoint(
            ckpt,
            fingerprint=config_fingerprint(hunting),
            specs=state["specs"],
            completed={3: state["completed"][3]},
        )
        events_path = tmp_path / "resume.events.jsonl"
        resumed = run_fleet(
            hunting.with_overrides(events_path=str(events_path)),
            local_workers=2,
            resume=str(ckpt),
        )
        assert [sub.iterations for sub in resumed.sub_reports] == [0, 0, 0, 9]
        assert resumed.first_bug.trace.fingerprint() == winner.trace.fingerprint()
        assert events_of(
            events_path, "fleet_worker_spawn", "fleet_work_assigned"
        ) == []
        # The shards that never ran stay pending in the checkpoint.
        assert sorted(load_checkpoint(ckpt)["completed"]) == [3]

    def test_a_timed_out_shard_is_not_checkpointed_and_resume_reruns_it(
        self, tmp_path
    ):
        # §5: a report its own time limit cut short is partial however
        # early it lands — here long before the coordinator's deadline.
        # A hand-rolled peer answers its shard with such a report.
        config = fleet_config(max_iterations=20)
        ckpt = tmp_path / "fleet.ckpt"
        events_path = tmp_path / "fleet.events.jsonl"
        thread, box, (sock,) = start_fleet_with_clients(
            config.with_overrides(events_path=str(events_path)), [HELLO],
            local_workers=1, checkpoint=str(ckpt),
        )
        imposter, work = await_work(sock)
        shard = running(work)
        cut = TestReport(strategy="cut", iterations=3, timed_out=True)
        imposter.send({
            "type": "result", "shard": shard, "canceled": False,
            "report": cut.encode(), "events": [],
        })
        imposter.send({"type": "goodbye"})
        finish_fleet(thread, box)
        imposter.close()
        (result,) = [
            event for event in events_of(events_path, "fleet_shard_result")
            if event["shard"] == shard
        ]
        assert result["partial"] is True and result["iterations"] == 3
        others = sorted(set(range(len(FOUR_SHARDS))) - {shard})
        assert sorted(load_checkpoint(ckpt)["completed"]) == others

        resume_events = tmp_path / "resume.events.jsonl"
        resumed = run_fleet(
            config.with_overrides(events_path=str(resume_events)),
            local_workers=1, resume=str(ckpt),
        )
        assert [
            event["shard"]
            for event in events_of(resume_events, "fleet_work_assigned")
        ] == [shard]
        rerun = resumed.sub_reports[shard]
        assert rerun.iterations == 20 and not rerun.timed_out
        assert sorted(load_checkpoint(ckpt)["completed"]) == list(
            range(len(FOUR_SHARDS))
        )
        local = Campaign(config).portfolio()
        assert fingerprints(resumed) == fingerprints(local)

    def test_resume_refuses_foreign_checkpoint(self, tmp_path):
        ckpt = tmp_path / "fleet.ckpt"
        run_fleet(fleet_config(), local_workers=1, checkpoint=str(ckpt))
        other = fleet_config(max_iterations=999)
        with pytest.raises(PSharpError, match="different campaign"):
            run_fleet(other, local_workers=1, resume=str(ckpt))


def run_cli_process(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )


class TestFleetCli:
    def test_serve_submit_round_trip(self, tmp_path):
        campaign_file = tmp_path / "campaign.json"
        fleet_config().save(campaign_file)
        serve = run_cli_process(
            "serve", "--config", str(campaign_file), "--port", "0",
            "--expect-bug",
        )
        try:
            banner = serve.stdout.readline()
            assert banner.startswith("fleet: listening on "), banner
            port = int(banner.rsplit(":", 1)[1])
            submit = run_cli_process(
                "submit", "--host", "127.0.0.1", "--port", str(port),
                "--workers", "2",
            )
            _, submit_err = submit.communicate(timeout=90)
            stdout, stderr = serve.communicate(timeout=90)
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.communicate()
        assert submit.returncode == 0, submit_err
        assert "2/2 worker(s) completed cleanly" in submit_err
        assert serve.returncode == 0, stdout + stderr
        assert "bug:" in stdout

    def test_serve_sigint_checkpoints_and_exits_130(self, tmp_path):
        # §7: SIGINT flushes a checkpoint and exits with the
        # conventional 128+SIGINT code, like the local portfolio CLI.
        campaign_file = tmp_path / "campaign.json"
        ckpt = tmp_path / "fleet.ckpt"
        TestConfig(
            program="tests.machines:Ping",
            specs=(
                StrategySpec("random", {"seed": 1}),
                StrategySpec("random", {"seed": 2}),
            ),
            max_iterations=10_000_000,
            time_limit=60.0,
            stop_on_first_bug=False,
        ).save(campaign_file)
        serve = run_cli_process(
            "serve", "--config", str(campaign_file),
            "--workers", "2", "--checkpoint", str(ckpt),
        )
        try:
            time.sleep(3.0)  # let the workers spin up mid-shard
            serve.send_signal(signal.SIGINT)
            stdout, stderr = serve.communicate(timeout=30)
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.communicate()
        assert serve.returncode == 130, stdout + stderr
        assert "campaign interrupted (partial results)" in stdout
        state = load_checkpoint(ckpt)
        assert state["fingerprint"]

    def test_serve_resume_keeps_checkpointing(self, tmp_path):
        # §7: `serve --resume FILE` with no --checkpoint persists the
        # shards it re-runs to FILE.
        campaign_file = tmp_path / "campaign.json"
        ckpt = tmp_path / "fleet.ckpt"
        config = fleet_config(max_iterations=20)
        config.save(campaign_file)
        run_fleet(config, local_workers=2, checkpoint=str(ckpt))
        drop_shards(ckpt, 0, 2)
        serve = run_cli_process(
            "serve", "--config", str(campaign_file),
            "--workers", "2", "--resume", str(ckpt),
        )
        stdout, stderr = serve.communicate(timeout=90)
        assert serve.returncode == 0, stdout + stderr
        assert sorted(load_checkpoint(ckpt)["completed"]) == [0, 1, 2, 3]

    def test_a_stdio_worker_is_refused_in_one_line(self):
        # §1: a worker reaches its coordinator over TCP only.  The flag
        # that served it stdin/stdout is gone: exit 2, one error line.
        for args in (("--stdio",), ("--stdio", "--host", "127.0.0.1", "--port", "1")):
            proc = run_cli_process("worker", *args)
            stdout, stderr = proc.communicate(timeout=30)
            assert proc.returncode == 2
            assert stdout == "" and "Traceback" not in stderr
            (error,) = [line for line in stderr.splitlines() if "error:" in line]
            assert error.startswith("python -m repro") and ": error: " in error

    def test_a_worker_needs_host_and_port(self):
        proc = run_cli_process("worker", "--host", "127.0.0.1")
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert "the following arguments are required: --port" in stderr

    def test_serve_requires_a_worker_source(self, tmp_path):
        campaign_file = tmp_path / "campaign.json"
        fleet_config().save(campaign_file)
        proc = run_cli_process("serve", "--config", str(campaign_file))
        _, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert "worker source" in stderr
