"""Distributed campaign fleet: one campaign sharded across processes and hosts.

The paper's tester wins by throwing many diverse schedulers at one
program, and one schedule-controlled execution is serial on purpose, so
a campaign is sharded across processes.  This module is the one
supervisor that does it: a **coordinator** (``Campaign.portfolio()``,
``python -m repro test --portfolio N``, ``python -m repro serve --config
campaign.json``) streams work units — shard index ×
:class:`~repro.testing.portfolio.StrategySpec` — to **workers** (its own
child processes, ``python -m repro worker`` / ``submit --host``) over a
length-prefixed JSON protocol on one stream socket per worker.

The wire format is specified normatively in ``docs/protocol.md``; the
tests cite its section numbers.  The load-bearing choices:

* **One framing, one kind of connection.**  :class:`Connection` speaks
  4-byte big-endian length-prefixed UTF-8 JSON frames over one stream
  socket, polled with ``select``: a TCP connection, or the end of a
  ``socket.socketpair()`` a forked local worker inherits.  Both look
  identical above that line, so every coordinator feature (requeue,
  cancel, heartbeats, telemetry forwarding) is tested once and works
  for both.
* **Warm workers, guided batches.**  A worker process handshakes once,
  then runs *many* shards back to back — each shard constructs a fresh
  strategy from its plain-data spec, so there is no fork per spec and no
  state bleed between shards (protocol §5).  One ``work`` frame hands
  an idle worker a batch of shards, large while much work is pending
  and single shards at the tail (guided self-scheduling), and a shard's
  telemetry rides its ``result`` frame: a small shard costs about one
  frame, not four.  The coordinator's own local workers
  (``--workers N``) are forked from it after it has resolved and
  compiled the program, so they start warm too.
* **Results are report documents.**  A finished shard comes back as its
  :class:`~repro.testing.engine.TestReport`'s JSON document
  (:mod:`repro.testing.record`), nested in the ``result`` frame and
  validated field by field before anything is built from it — data, never
  code (protocol §8); the coordinator folds shards with
  :func:`~repro.testing.portfolio.merge_shard_reports`, so distinct-bug
  dedup by :meth:`~repro.testing.trace.ScheduleTrace.fingerprint` has a
  single definition.
* **Failure is requeue, not loss.**  A worker that disconnects or goes
  silent mid-shard has its shard re-queued (bounded times, then
  abandoned as an empty shard so the merge stays honest) and the
  unstarted rest of its batch put back as pending; the
  coordinator checkpoints completed shards to a
  :mod:`repro.testing.checkpoint` file, so a killed campaign resumes
  with ``--resume`` skipping finished shards.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import select
import socket
import struct
import time
import traceback
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Sequence, Set,
    Tuple,
)

if TYPE_CHECKING:  # circular at runtime: config is the layer above
    from .config import TestConfig

from ..errors import DocumentError, PSharpError
from .checkpoint import (
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from .engine import TestReport, resolved_program, run_campaign
from .portfolio import StrategySpec, make_strategy, merge_shard_reports
from .record import (
    COUNT, FLAG, INTEGER, SECONDS, TEXT, Fields, Kind, Rule, array_of,
    decode_fields, describe, dumps, keep, loads, nullable, optional,
)
from .telemetry import EventLog

# ---------------------------------------------------------------------------
# Protocol constants (docs/protocol.md §2–§3)
# ---------------------------------------------------------------------------
#: Bumped on any incompatible wire change, the report document a
#: ``result`` frame nests (``record.REPORT_VERSION``) included; the
#: handshake rejects peers speaking any other version (§3).
PROTOCOL_VERSION = 4

#: Hard cap on one frame's payload; a larger announced length is a
#: protocol violation, not an allocation request (§2).
MAX_FRAME = 16 * 1024 * 1024

#: Seconds a peer gets to complete the hello/welcome handshake (§3).
HANDSHAKE_TIMEOUT = 10.0

#: Seconds between a busy worker's heartbeat frames (§6).
HEARTBEAT_INTERVAL = 1.0

#: Seconds a *busy* worker may go silent before the coordinator declares
#: it lost and re-queues its shard (§6).  Idle workers are exempt — they
#: sit quietly in recv() until work arrives.
DEFAULT_WORKER_TIMEOUT = 30.0

#: Seconds the coordinator's select waits, and between two is_alive()
#: polls of its local worker processes.
LIVENESS_TICK = 0.25

#: Times one shard is re-queued after worker loss before being abandoned.
DEFAULT_MAX_REQUEUES = 2

#: Times one local worker slot is respawned after its process dies.
DEFAULT_MAX_RESPAWNS = 2

#: Seconds workers get after the deadline or a cancellation to flush
#: their final reports before being terminated.
DEFAULT_GRACE = 10.0


class ProtocolError(PSharpError):
    """A peer violated the wire protocol (bad frame, bad message, bad
    handshake).  The offending connection is dropped; the campaign
    continues."""


class ConnectionClosed(ProtocolError):
    """The peer went away (EOF or a dead socket), or this side closed the
    connection already."""


# ---------------------------------------------------------------------------
# Framing (§2): 4-byte big-endian length prefix + UTF-8 JSON object
# ---------------------------------------------------------------------------
def _encode_frame(message: Dict[str, Any]) -> bytes:
    payload = json.dumps(message, separators=(",", ":"), default=str).encode(
        "utf-8"
    )
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"outgoing {message.get('type', '?')!r} frame of {len(payload)} "
            f"bytes exceeds the {MAX_FRAME}-byte limit"
        )
    return struct.pack(">I", len(payload)) + payload


class Connection:
    """One framed-message peer over one stream socket.

    The socket is a TCP connection or one end of the
    ``socket.socketpair()`` a forked local worker shares with its
    coordinator; the connection owns it and closes it.  Reads go through
    ``select`` + ``recv`` with an internal reassembly buffer, so partial
    frames, coalesced frames and timeouts behave the same on both.
    Single-threaded use only; the fleet never shares a connection across
    threads.
    """

    def __init__(self, sock: socket.socket, label: str = "") -> None:
        sock.setblocking(True)  # reads are select-gated, writes may block
        self._sock = sock
        self._buffer = bytearray()
        self.label = label or f"fd{sock.fileno()}"
        self.closed = False

    @classmethod
    def from_socket(cls, sock: socket.socket, label: str = "") -> "Connection":
        return cls(sock, label)

    def fileno(self) -> int:
        return self._sock.fileno()

    def _closed_error(self) -> ConnectionClosed:
        return ConnectionClosed(f"connection to {self.label} is closed")

    # -- sending -------------------------------------------------------
    def send(self, message: Dict[str, Any]) -> None:
        """Write one frame; raises :class:`ConnectionClosed` when the
        peer is gone (EPIPE/ECONNRESET)."""
        if self.closed:
            raise self._closed_error()
        try:
            self._sock.sendall(_encode_frame(message))
        except OSError as exc:
            raise ConnectionClosed(
                f"peer {self.label} went away mid-send: {exc}"
            ) from exc

    # -- receiving -----------------------------------------------------
    def _parse_frame(self) -> Optional[Dict[str, Any]]:
        """Pop one complete frame off the buffer, or ``None``."""
        if len(self._buffer) < 4:
            return None
        (length,) = struct.unpack_from(">I", self._buffer)
        if length > MAX_FRAME:
            raise ProtocolError(
                f"frame of {length} bytes announced by {self.label} exceeds "
                f"the {MAX_FRAME}-byte limit"
            )
        if len(self._buffer) < 4 + length:
            return None
        payload = bytes(self._buffer[4 : 4 + length])
        del self._buffer[: 4 + length]
        try:
            message = loads(payload.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8, bad JSON, NaN, too deep
            raise ProtocolError(
                f"undecodable frame from {self.label}: {exc}"
            ) from exc
        if not isinstance(message, dict) or not isinstance(
            message.get("type"), str
        ):
            raise ProtocolError(
                f"frame from {self.label} is not a typed message object"
            )
        return message

    def _fill(self, timeout: Optional[float]) -> bool:
        """Wait up to ``timeout`` for bytes (``None`` = forever); returns
        whether any arrived.  Raises :class:`ConnectionClosed` on EOF."""
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
            chunk = self._sock.recv(65536) if ready else None
        except OSError as exc:
            raise ConnectionClosed(
                f"peer {self.label} went away mid-read: {exc}"
            ) from exc
        if chunk is None:
            return False
        if not chunk:
            raise ConnectionClosed(f"peer {self.label} closed the connection")
        self._buffer.extend(chunk)
        return True

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Next message, or ``None`` when ``timeout`` elapses first.
        ``timeout=None`` blocks; ``timeout=0`` is a non-blocking poll.
        On a connection this side closed — a peer dropped for its own
        ``goodbye`` in the middle of a pump — it raises
        :class:`ConnectionClosed`."""
        if self.closed:
            raise self._closed_error()
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            message = self._parse_frame()
            if message is not None:
                return message
            if deadline is None:
                self._fill(None)
                continue
            remaining = max(0.0, deadline - time.monotonic())
            if not self._fill(remaining):
                return None

    def poll(self) -> Optional[Dict[str, Any]]:
        """Non-blocking :meth:`recv`."""
        return self.recv(timeout=0.0)

    def close(self) -> None:
        self.closed = True
        self._sock.close()


# ---------------------------------------------------------------------------
# Report encoding (§4 "result"): the report's JSON document
# ---------------------------------------------------------------------------
def encode_report(report: TestReport) -> str:
    """``report``'s document as JSON text (a ``result`` frame nests the
    document itself, ``report.encode()``, not this text)."""
    return dumps(report.encode())


def decode_report(document: Any) -> TestReport:
    """The report a ``result`` frame's ``report`` object — or the text
    :func:`encode_report` returns — describes; anything off-schema is a
    :class:`ProtocolError`."""
    try:
        if isinstance(document, str):
            document = loads(document)
        return TestReport.decode(document)
    except (DocumentError, ValueError) as exc:
        raise ProtocolError(f"undecodable shard report: {exc}") from exc


# ---------------------------------------------------------------------------
# What each side reads (§3–§5): every frame's fields, declared once
# ---------------------------------------------------------------------------
def _campaign(document: Any) -> "TestConfig":
    from .config import TestConfig  # deferred: config is the layer above

    return TestConfig.from_json_obj(document)


def _event_record(value: Any) -> Dict[str, Any]:
    if type(value) is not dict or type(value.get("type")) is not str:
        raise ValueError(
            f"expected an object with a string 'type', got {describe(value)}"
        )
    return value


def _units(value: Any) -> List[Tuple[int, StrategySpec]]:
    """A ``work`` frame's batch: a non-empty array of ``[shard, spec]``
    pairs, no shard twice (§5)."""
    if type(value) is not list or not value:
        raise ValueError(
            f"expected a non-empty array of [shard, spec] pairs, got {describe(value)}"
        )
    units: List[Tuple[int, StrategySpec]] = []
    seen: Set[int] = set()
    for position, unit in enumerate(value):
        if type(unit) is not list or len(unit) != 2:
            raise ValueError(
                f"unit {position}: expected a [shard, spec] pair, got {describe(unit)}"
            )
        shard, spec = unit
        if not COUNT.test(shard):
            raise ValueError(
                f"unit {position}: shard: expected {COUNT.wire}, got {describe(shard)}"
            )
        if shard in seen:
            raise ValueError(f"unit {position}: shard {shard} is repeated")
        seen.add(shard)
        try:
            units.append((shard, StrategySpec.decode(spec)))
        except PSharpError as exc:
            raise ValueError(f"unit {position}: {exc}") from None
    return units


_EVENTS = Rule(
    decode=array_of(_event_record), wire="array of objects with a string `type`"
)


_SPEAKS = Kind(
    lambda v: type(v) is int and v == PROTOCOL_VERSION,
    f"{PROTOCOL_VERSION} (the protocol version this worker speaks)", int,
)
COORDINATOR_FRAMES: Dict[str, Fields] = {
    "welcome": (
        ("protocol", keep(_SPEAKS)),
        ("config", Rule(decode=nullable(_campaign), wire="campaign JSON object or null")),
        ("events", keep(FLAG)),
    ),
    "error": (("message", keep(TEXT)),),
    "work": (
        ("units", Rule(decode=_units, wire="array of [shard, strategy spec]")),
        ("time_limit", keep(optional(SECONDS))),
    ),
}
WORKER_FRAMES: Dict[str, Fields] = {
    # Any integer: a foreign version is answered with an error frame (§3).
    "hello": (("protocol", keep(INTEGER)), ("pid", keep(COUNT)), ("host", keep(TEXT))),
    "heartbeat": (("shard", keep(COUNT)), ("events", _EVENTS)),
    "result": (
        ("shard", keep(COUNT)),
        ("canceled", keep(FLAG)),
        ("report", Rule(decode=TestReport.decode, wire="report object")),
        ("events", _EVENTS),
    ),
    "goodbye": (),
}


def read_frame(
    message: Dict[str, Any],
    expected: str,
    frames: Dict[str, Fields] = COORDINATOR_FRAMES,
    sender: str = "the coordinator",
) -> Dict[str, Any]:
    """The fields of the ``expected`` frame ``sender`` sent, each accepted
    by its rule in ``frames`` — or a :class:`ProtocolError` naming the
    field: what either side reads is data from another process."""
    mtype = message["type"]  # a string: the frame parser saw to that
    if mtype != expected:
        raise ProtocolError(f"expected a {expected} frame, got {mtype!r}")
    fields = {name: value for name, value in message.items() if name != "type"}
    try:
        return decode_fields(mtype, frames[mtype], fields)
    except DocumentError as exc:
        raise ProtocolError(f"malformed frame from {sender}: {exc}") from None


def worker_environment() -> Dict[str, str]:
    """Environment for a ``python -m repro worker`` subprocess: the caller's
    environment with the running ``repro`` package's root prepended to
    ``PYTHONPATH``, so ``python -m repro worker`` resolves to the same
    code regardless of how the coordinator was launched."""
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    package_root = os.path.dirname(package_root)  # .../src
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


# ---------------------------------------------------------------------------
# Worker side (§5)
# ---------------------------------------------------------------------------
class _WireEvents:
    """EventLog-shaped buffer of a worker's telemetry records: each is
    stamped here (``ts``, ``pid``, ``shard``) and leaves with the worker's
    next ``heartbeat`` or ``result`` frame (§4), whose records the
    coordinator appends to its JSONL log.  Like
    :class:`~repro.testing.telemetry.EventLog`, emitting never raises."""

    def __init__(self) -> None:
        self.shard = 0  # the shard running now, set per unit
        self._pid = os.getpid()
        self._records: List[Dict[str, Any]] = []

    def emit(self, type_: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "ts": round(time.time(), 6),
            "pid": self._pid,
            "shard": self.shard,
            "type": type_,
        }
        record.update(fields)
        self._records.append(record)

    def drain(self) -> List[Dict[str, Any]]:
        """The records emitted since the last drain, for the next frame."""
        records, self._records = self._records, []
        return records

    def close(self) -> None:
        pass


def connect_worker(
    host: str,
    port: int,
    *,
    connect_timeout: float = 10.0,
) -> Connection:
    """Dial the coordinator, retrying until ``connect_timeout`` — a
    worker submitted moments before ``serve`` binds still attaches."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise PSharpError(
                    f"cannot connect to coordinator at {host}:{port}: {exc}"
                ) from exc
            time.sleep(0.2)
            continue
        return Connection.from_socket(sock, label=f"{host}:{port}")


def worker_loop(
    conn: Connection,
    *,
    handshake_timeout: float = HANDSHAKE_TIMEOUT,
    config: Optional["TestConfig"] = None,
) -> int:
    """Speak the worker half of the protocol over ``conn`` until the
    coordinator says shutdown (or hangs up); returns shards completed.

    One warm process runs many shards: the campaign config arrives once
    in the welcome frame — or, for a coordinator's own child, is the
    ``config`` it was started with, and the welcome carries ``null``
    (§3) — each ``work`` frame hands it a batch of shard indices with
    their strategy specs, run in order with one ``result`` each, and a
    shard's strategy is built fresh from its spec so nothing bleeds
    between shards (§5)."""
    conn.send(
        {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
    )
    welcome = conn.recv(timeout=handshake_timeout)
    if welcome is None:
        raise ProtocolError("coordinator did not answer the hello in time")
    if welcome["type"] == "error":
        raise ProtocolError(
            "coordinator rejected this worker: "
            + read_frame(welcome, "error")["message"]
        )
    welcome = read_frame(welcome, "welcome")
    if welcome["config"] is not None:
        config = welcome["config"]
    elif config is None:
        raise ProtocolError(
            "the welcome frame carries no config and this worker was "
            "started without one"
        )
    wire = _WireEvents()
    events = wire if welcome["events"] else None
    program = resolved_program(config)

    completed = 0
    shutdown = False
    while not shutdown:
        message = conn.recv(timeout=None)
        if message["type"] == "shutdown":
            break
        if message["type"] == "cancel":
            continue  # no shard in flight; nothing to cancel
        work = read_frame(message, "work")
        budget = work["time_limit"]
        deadline = None if budget is None else time.monotonic() + budget
        state: Dict[str, Any] = {"stop": False}

        def listen() -> None:
            """Read one frame the coordinator sent meanwhile: a cancel or
            a shutdown stops the running shard, and the rest of the batch
            is dropped (§5)."""
            try:
                note = conn.poll()
            except ProtocolError:
                state["stop"] = True
                return
            if note is not None and note["type"] in ("cancel", "shutdown"):
                state["stop"] = True
                if note["type"] == "shutdown":
                    nonlocal shutdown
                    shutdown = True

        # A shard's stop-check doubles as the wire pump: it sends a
        # heartbeat (with the records emitted since the last frame)
        # roughly every HEARTBEAT_INTERVAL and polls for cancel/shutdown,
        # throttled so a hot schedule loop is not paying a select() per
        # scheduling point.  The heartbeat clock starts with each shard,
        # so a shard shorter than the interval sends none.
        def stop_check() -> bool:
            now = time.monotonic()
            if now < state["next_wire"]:
                return state["stop"]
            state["next_wire"] = now + 0.05
            if now >= state["next_beat"]:
                state["next_beat"] = now + HEARTBEAT_INTERVAL
                try:
                    conn.send(
                        {"type": "heartbeat", "shard": wire.shard, "events": wire.drain()}
                    )
                except ProtocolError:
                    state["stop"] = True
                    return True
            listen()
            return state["stop"]

        units = work["units"]
        for position, (shard, spec) in enumerate(units, start=1):
            wire.shard = shard
            state["next_wire"] = 0.0
            state["next_beat"] = time.monotonic() + HEARTBEAT_INTERVAL
            report = run_campaign(
                config, make_strategy(spec),
                program=program, deadline=deadline,
                stop_check=stop_check, events=events,
            )
            if position < len(units) and not state["stop"]:
                listen()  # a cancel that came as the shard ended: none follows
            conn.send(
                {
                    "type": "result",
                    "shard": shard,
                    "canceled": state["stop"],
                    "report": report.encode(),
                    "events": wire.drain(),
                }
            )
            completed += 1
            if state["stop"] or report.timed_out:
                break  # the rest of the batch is never started (§5)
    try:
        conn.send({"type": "goodbye"})
    except ProtocolError:
        pass
    return completed


def _local_worker(
    sock: socket.socket, inherited: Sequence[int], config: "TestConfig"
) -> None:
    """Process target of one coordinator-forked worker (§1): speak the
    worker half of the protocol over ``sock``, its end of a socketpair.

    ``config`` is inherited by value, which is why a local campaign may
    hold what campaign JSON refuses: a runtime factory, a function-local
    program class, a non-JSON payload.

    ``inherited`` are the coordinator's own descriptors the child holds
    copies of — other peers' connections, the coordinator's end of this
    very socketpair, the TCP listener, the event log.  They are closed
    first: a copy kept open here would hide EOF from whoever is at the
    other end (a peer the coordinator dropped, or this worker itself once
    the coordinator is gone).

    Leaves through ``os._exit``: a forked child must not run the
    coordinator's exit handlers or flush its inherited stdio buffers."""
    code = 1
    try:
        for fd in inherited:
            try:
                os.close(fd)
            except OSError:
                pass
        worker_loop(Connection(sock, "coordinator"), config=config)
        code = 0
    except (ConnectionClosed, KeyboardInterrupt):
        pass  # the coordinator is gone or interrupted; it reports, not us
    except Exception:  # noqa: BLE001 - nobody above us to raise to
        traceback.print_exc()
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# Coordinator side (§3–§7)
# ---------------------------------------------------------------------------
def _reap(children: Sequence[Any], window: float) -> None:
    """Collect every local worker process.  All of them share one
    ``window`` of seconds to exit on their own, the stragglers one more
    after SIGTERM and one after SIGKILL — N wedged workers cost what one
    does, and none is left a zombie."""
    for escalation in (None, "terminate", "kill"):
        alive = [child for child in children if child.is_alive()]
        if not alive:
            return
        if escalation is not None:
            for child in alive:
                getattr(child, escalation)()
        deadline = time.monotonic() + window
        for child in alive:
            child.join(max(0.0, deadline - time.monotonic()))


class _Peer:
    """Coordinator-side state for one worker connection: the shard it
    runs now (``shard``) and the rest of its batch, in order
    (``queued``)."""

    __slots__ = (
        "conn", "stage", "shard", "queued", "last_seen", "proc", "slot",
        "pid", "results",
    )

    def __init__(
        self,
        conn: Connection,
        *,
        proc: Any = None,  # the forked Process of a local worker
        slot: Optional[int] = None,
    ) -> None:
        self.conn = conn
        self.stage = "handshake"  # handshake -> idle -> (busy <-> idle)
        self.shard: Optional[int] = None
        self.queued: Deque[int] = collections.deque()
        self.last_seen = time.monotonic()
        self.proc = proc
        self.slot = slot
        self.pid: Optional[int] = None
        self.results = 0  # result frames this peer delivered

    def fileno(self) -> int:  # the coordinator selects over peers
        return self.conn.fileno()


def run_fleet(
    config: "TestConfig",
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    local_workers: int = 0,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    grace: float = DEFAULT_GRACE,
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    on_listen: Optional[Callable[[str, int], None]] = None,
) -> TestReport:
    """Coordinate one sharded campaign over a fleet of workers.

    Work sources: a TCP listener on ``host:port`` (``port=0`` binds an
    ephemeral port, reported through ``on_listen``) accepting remote
    ``python -m repro worker`` processes, and/or ``local_workers`` worker
    processes started (and respawned, bounded) directly: forked from it,
    each on a socketpair of its own, never more of them than there are
    shards to run.  They inherit the resolved program and compiled main
    machine class and are ready within milliseconds; every one is joined
    before this returns.  At least one source is required.

    The campaign is ``config.portfolio_specs()``, one shard per spec;
    ``Campaign.portfolio()`` is this function with one local worker per
    spec and no listener.  The coordinator's own children hold ``config``
    by value, so only a campaign that listens has to be expressible as
    campaign JSON (``to_json_obj()`` refuses a ``runtime_factory``, a
    function-local program class, a non-JSON payload — before anything
    is bound or started).  ``checkpoint`` names a
    :mod:`repro.testing.checkpoint` file: completed (non-canceled) shards
    are persisted as they land; ``resume`` restarts from one, never
    re-runs a shard it holds, and keeps checkpointing to it unless
    ``checkpoint`` says otherwise.  SIGINT checkpoints and returns the
    partial merged report with ``interrupted=True``."""
    from .config import TestConfig  # deferred: config is the layer above

    if not isinstance(config, TestConfig):
        raise PSharpError(f"run_fleet needs a TestConfig, got {config!r}")
    if port is None and local_workers <= 0:
        raise PSharpError(
            "a fleet needs at least one worker source: a --port to accept "
            "TCP workers on, or --workers N local processes"
        )

    specs = list(config.portfolio_specs())
    # Workers never open the coordinator's event log path themselves —
    # telemetry rides back in their heartbeat and result frames instead.
    # Our own children get this object by value; only wire peers need it
    # as campaign JSON, so only a listening campaign has to serialize.
    worker_config = config.with_overrides(events_path=None)
    config_obj = worker_config.to_json_obj() if port is not None else None
    fingerprint = config_fingerprint(config)

    collected: Dict[int, TestReport] = {}
    # The documents of the completed shards a checkpoint holds: encoded
    # once, on acceptance (or as loaded on resume), for every write.
    checkpointed: Dict[int, Dict[str, Any]] = {}
    if resume is not None:
        state = load_checkpoint(resume)
        verify_checkpoint(state, config, str(resume))
        specs = list(state["specs"])
        checkpointed = state["documents"]
        collected = dict(state["completed"])
        if checkpoint is None:
            checkpoint = resume  # the resumed campaign keeps checkpointing
    # Fail fast, before anything forks or listens, on a shard that could
    # not run: a spec that does not build, or a strategy that refuses the
    # campaign's reduction (run_campaign's own check, made here too so it
    # is one error line rather than one traceback per worker).
    reduction = config.build_reduction()
    for index, spec in enumerate(specs):
        if index not in collected:
            make_strategy(spec).attach_reduction(reduction)

    events = (
        EventLog(config.events_path) if config.events_path is not None else None
    )

    def emit(type_: str, **fields: Any) -> None:
        if events is not None:
            events.emit(type_, **fields)

    pending: Deque[int] = collections.deque(
        index for index in range(len(specs)) if index not in collected
    )
    winner_index: Optional[int] = None
    if config.stop_on_first_bug:
        winner_index = next(
            (i for i in sorted(collected) if collected[i].first_bug is not None),
            None,
        )
        if winner_index is not None:
            # The checkpoint already holds the bug: the campaign is over,
            # the unfinished shards would only be started to be cancelled.
            pending.clear()
    local_workers = min(local_workers, len(pending))
    requeues: Dict[int, int] = {}
    abandoned: Set[int] = set()
    peers: List[_Peer] = []
    local_peers: List[_Peer] = []  # every local worker ever started
    respawns_by_slot: Dict[int, int] = {}
    cancelled = False
    interrupted = False
    wall_start = time.perf_counter()
    start = time.monotonic()
    deadline = (
        start + config.time_limit if config.time_limit is not None else None
    )
    hard_stop: Optional[float] = None

    listener: Optional[socket.socket] = None
    if port is not None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as exc:
            listener.close()
            raise PSharpError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        listener.listen()
        listener.setblocking(False)
        bound_host, bound_port = listener.getsockname()[:2]
        if on_listen is not None:
            on_listen(bound_host, bound_port)

    def total_done() -> int:
        return len(collected) + len(abandoned)

    def busy_peers() -> List[_Peer]:
        return [peer for peer in peers if peer.shard is not None]

    def save_progress() -> None:
        if checkpoint is not None:
            save_checkpoint(
                checkpoint,
                fingerprint=fingerprint,
                specs=specs,
                completed=checkpointed,
            )
            emit(
                "checkpoint",
                path=str(checkpoint),
                completed=sorted(checkpointed),
            )

    def spawn_local(slot: int) -> None:
        """Fork one local worker onto a fresh socketpair (§1)."""
        ours, theirs = socket.socketpair()
        inherited = [ours.fileno(), *(peer.fileno() for peer in peers)]
        if listener is not None:
            inherited.append(listener.fileno())
        if events is not None:
            inherited.append(events.fileno())
        proc = multiprocessing.get_context("fork").Process(
            target=_local_worker,
            args=(theirs, inherited, worker_config),
            daemon=True,
            name=f"fleet-worker-{slot}",
        )
        proc.start()
        theirs.close()
        conn = Connection(ours, f"local-{slot}(pid {proc.pid})")
        peer = _Peer(conn, proc=proc, slot=slot)
        peers.append(peer)
        local_peers.append(peer)
        emit("fleet_worker_spawn", slot=slot, pid=proc.pid)

    def cancel_all(reason: str) -> None:
        nonlocal cancelled, hard_stop
        if cancelled:
            return
        cancelled = True
        hard_stop = time.monotonic() + grace
        emit("fleet_cancel", reason=reason)
        for peer in peers:
            try:
                if peer.shard is not None:
                    peer.conn.send({"type": "cancel"})
                elif peer.stage == "idle":
                    peer.conn.send({"type": "shutdown"})
            except ProtocolError:
                pass

    def accept_result(shard: int, report: TestReport, partial: bool) -> None:
        nonlocal winner_index
        if shard in collected:
            return  # duplicate from a presumed-lost worker; first in wins
        collected[shard] = report
        abandoned.discard(shard)
        emit(
            "fleet_shard_result",
            shard=shard,
            partial=partial,
            iterations=report.iterations,
            bugs=len(report.bugs),
        )
        if not partial and checkpoint is not None:
            checkpointed[shard] = report.encode()
            save_progress()
        if (
            winner_index is None
            and config.stop_on_first_bug
            and report.first_bug is not None
        ):
            winner_index = shard
            cancel_all(f"first bug found by shard {shard}")

    def assign(peer: _Peer) -> None:
        """Hand an idle worker the next batch of pending shards: a
        ``1 / (2 × peers)`` share of them, at least one — large batches
        while much is pending, single shards at the tail (§5).  With
        nothing pending the worker stays idle (it may inherit a requeued
        shard later) until the campaign completes."""
        if cancelled or not pending:
            return
        size = max(1, len(pending) // (2 * len(peers)))
        batch = [pending.popleft() for _ in range(min(size, len(pending)))]
        budget: Optional[float] = None
        if deadline is not None:
            budget = max(0.1, deadline - time.monotonic())
        try:
            peer.conn.send(
                {
                    "type": "work",
                    "units": [[shard, specs[shard].to_obj()] for shard in batch],
                    "time_limit": budget,
                }
            )
        except ProtocolError:
            pending.extendleft(reversed(batch))
            raise
        peer.shard = batch[0]
        peer.queued.extend(batch[1:])
        peer.stage = "busy"
        # A busy worker's silence is counted from here: it may have sat
        # idle longer than worker_timeout, and it heartbeats only once
        # a shard has run for HEARTBEAT_INTERVAL.
        peer.last_seen = time.monotonic()
        for shard in batch:
            emit(
                "fleet_work_assigned",
                shard=shard,
                spec=specs[shard].label(),
                worker=peer.conn.label,
            )

    def end_batch(peer: _Peer) -> None:
        """``peer`` starts no more of its batch: the units it never
        started go back to the front of ``pending``, uncounted."""
        pending.extendleft(reversed(peer.queued))
        peer.queued.clear()
        peer.shard = None
        peer.stage = "idle"

    def drop(peer: _Peer, reason: str, *, clean: bool = False) -> None:
        if peer not in peers:
            return
        peers.remove(peer)
        peer.conn.close()
        if not clean:
            emit("fleet_worker_lost", worker=peer.conn.label, reason=reason)
        shard = peer.shard
        end_batch(peer)
        if shard is not None and shard not in collected:
            count = requeues.get(shard, 0)
            if cancelled or count >= DEFAULT_MAX_REQUEUES:
                abandoned.add(shard)
                emit("fleet_shard_abandoned", shard=shard, requeues=count)
            else:
                requeues[shard] = count + 1
                pending.append(shard)
                emit("fleet_shard_requeued", shard=shard, attempt=count + 1)
        if peer.proc is not None:
            if peer.proc.is_alive():
                peer.proc.terminate()  # joined with the rest on the way out
            slot = peer.slot if peer.slot is not None else -1
            if (
                not clean
                and not cancelled
                and total_done() < len(specs)
                and respawns_by_slot.get(slot, 0) < DEFAULT_MAX_RESPAWNS
            ):
                respawns_by_slot[slot] = respawns_by_slot.get(slot, 0) + 1
                emit(
                    "fleet_worker_respawn",
                    slot=slot,
                    attempt=respawns_by_slot[slot],
                )
                spawn_local(slot)

    def handle(peer: _Peer, message: Dict[str, Any]) -> None:
        peer.last_seen = time.monotonic()
        mtype = message["type"]
        label = peer.conn.label
        if peer.stage == "handshake":
            hello = read_frame(message, "hello", WORKER_FRAMES, label)
            if hello["protocol"] != PROTOCOL_VERSION:
                try:
                    peer.conn.send(
                        {
                            "type": "error",
                            "message": (
                                f"protocol version "
                                f"{hello['protocol']!r} not supported;"
                                f" coordinator speaks {PROTOCOL_VERSION}"
                            ),
                        }
                    )
                except ProtocolError:
                    pass
                raise ProtocolError(
                    f"{label} speaks protocol "
                    f"{hello['protocol']!r}, not {PROTOCOL_VERSION}"
                )
            peer.pid = hello["pid"]
            peer.conn.send(
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    # Our own child already holds the config (§3).
                    "config": None if peer.proc is not None else config_obj,
                    "events": events is not None,
                }
            )
            peer.stage = "idle"
            emit("fleet_worker_ready", worker=label, pid=peer.pid)
            if cancelled:
                peer.conn.send({"type": "shutdown"})
            else:
                assign(peer)
            return
        if mtype == "hello" or mtype not in WORKER_FRAMES:
            raise ProtocolError(f"unexpected {mtype!r} frame from {label}")
        fields = read_frame(message, mtype, WORKER_FRAMES, label)
        if mtype == "goodbye":
            drop(peer, "goodbye", clean=True)
            return
        if mtype == "result" and fields["shard"] != peer.shard:
            raise ProtocolError(
                f"{label} sent a result for shard {fields['shard']}, "
                "which it is not running"
            )
        if events is not None and fields["events"]:
            events.forward(fields["events"])
        if mtype == "heartbeat":
            return  # last_seen is already stamped
        shard, report = fields["shard"], fields["report"]
        peer.results += 1
        # A canceled or timed-out shard ends the worker's batch; else it
        # has started the next unit already.
        if peer.queued and not (fields["canceled"] or report.timed_out):
            peer.shard = peer.queued.popleft()
        else:
            end_batch(peer)
        # A shard its own time limit cut short is partial too (§5): it is
        # not checkpointed, so a resumed campaign runs it again.
        accept_result(
            shard, report, fields["canceled"] or report.timed_out or cancelled
        )
        if peer.shard is None and not cancelled:
            assign(peer)

    def pump(peer: _Peer) -> None:
        """Handle every frame ``peer`` has sent so far; drop it when its
        connection breaks or it breaks the protocol."""
        try:
            while True:
                message = peer.conn.poll()
                if message is None:
                    return
                handle(peer, message)
        except ProtocolError as exc:  # ConnectionClosed included
            drop(peer, str(exc))

    timed_out = False
    try:
        emit(
            "fleet_start",
            program=str(config.program),
            shards=len(specs),
            resumed=sorted(checkpointed),
            local_workers=local_workers,
            listening=bool(listener),
        )
        if winner_index is not None:
            cancel_all(f"shard {winner_index} of the checkpoint holds the bug")
        if local_workers > 0:
            # Warm start: what a forked worker would otherwise redo per
            # process (import the program, compile the main machine
            # class) happens once, here, and is inherited.
            config.resolve_program()[0].inline_compatible()
        for slot in range(local_workers):
            spawn_local(slot)

        # is_alive() is a waitpid syscall per local peer: asked on the
        # select tick, not on every loop turn (a dead worker's socket
        # reports EOF at once; this is for one a grandchild holds open).
        next_liveness_check = 0.0
        while True:
            now = time.monotonic()
            if total_done() >= len(specs):
                break
            if hard_stop is not None and now >= hard_stop:
                break
            if cancelled and not busy_peers():
                break
            if deadline is not None and now >= deadline and not cancelled:
                timed_out = True
                cancel_all("time limit reached")
            # A fleet with pending work but no way to ever run it must
            # abandon rather than spin: no listener, no live peers, no
            # respawn credit left.
            if (
                pending
                and listener is None
                and not peers
                and all(
                    respawns_by_slot.get(slot, 0) >= DEFAULT_MAX_RESPAWNS
                    for slot in range(max(1, local_workers))
                )
            ):
                while pending:
                    shard = pending.popleft()
                    abandoned.add(shard)
                    emit("fleet_shard_abandoned", shard=shard, requeues=requeues.get(shard, 0))
                continue

            # A peer leaves `peers` before its connection closes, so every
            # descriptor selected here is open.
            sources: List[Any] = [*peers, *([listener] if listener else [])]
            ready, _, _ = select.select(sources, [], [], LIVENESS_TICK)
            for source in ready:
                if source is not listener:
                    pump(source)
                    continue
                while True:
                    try:
                        sock, addr = listener.accept()
                    except OSError:  # BlockingIOError: none left
                        break
                    conn = Connection(sock, f"{addr[0]}:{addr[1]}")
                    peers.append(_Peer(conn))
                    emit("fleet_worker_connect", worker=conn.label)

            now = time.monotonic()
            check_liveness = now >= next_liveness_check
            if check_liveness:
                next_liveness_check = now + LIVENESS_TICK
            for peer in list(peers):
                if peer.stage == "handshake" and (
                    now - peer.last_seen > HANDSHAKE_TIMEOUT
                ):
                    drop(peer, "handshake timed out")
                elif peer.shard is not None and (
                    now - peer.last_seen > worker_timeout
                ):
                    drop(peer, "heartbeat went stale")
                elif (
                    check_liveness
                    and peer.proc is not None
                    and not peer.proc.is_alive()
                ):
                    # A dead local process also surfaces as EOF on its
                    # socket, but reap it promptly even if the socket
                    # lingers open in a grandchild.
                    drop(
                        peer,
                        f"local worker exited with {peer.proc.exitcode}",
                    )
                elif peer.stage == "idle":
                    # A shard re-queued while this worker sat idle would
                    # otherwise wait for a result frame that never comes.
                    try:
                        assign(peer)
                    except ProtocolError as exc:
                        drop(peer, str(exc))
    except KeyboardInterrupt:
        interrupted = True
        cancel_all("keyboard interrupt")
        # Short drain so busy workers can flush partial shard reports.
        drain_until = time.monotonic() + min(grace, 2.0)
        while busy_peers() and time.monotonic() < drain_until:
            ready, _, _ = select.select(peers, [], [], 0.1)
            for peer in ready:
                pump(peer)
    finally:
        for peer in peers:
            try:
                peer.conn.send({"type": "shutdown"})
            except ProtocolError:
                pass
            peer.conn.close()
        _reap([peer.proc for peer in local_peers], min(grace, 2.0))
        for peer in local_peers:
            emit(
                "fleet_worker_exit",
                slot=peer.slot,
                pid=peer.proc.pid,
                shards=peer.results,
                exitcode=peer.proc.exitcode,
            )
        peers.clear()
        if listener is not None:
            listener.close()
        save_progress()

    campaign = merge_shard_reports(
        specs,
        collected,
        strategy="fleet",
        winner_index=winner_index,
        elapsed=time.perf_counter() - wall_start,
        interrupted=interrupted,
    )
    emit(
        "fleet_end",
        iterations=campaign.iterations,
        bugs=len(campaign.bugs),
        elapsed=round(campaign.elapsed, 6),
        interrupted=interrupted,
        timed_out=timed_out,
        abandoned_shards=sorted(abandoned),
    )
    if events is not None:
        events.close()
    return campaign
