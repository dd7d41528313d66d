"""Compositional state fingerprints: the memo held against its oracle.

The state cache hashes a program state as one digest per machine and
monitor, and ``ReductionEngine.fingerprint`` reuses a digest when nothing
in the DPOR step log (``ReductionEngine.effects``) has named its machine
since it was computed.  That is only worth having if it is *exact*, so
this file follows the ``tests/reference_taint.py`` pattern: the
from-scratch composition (``state_fingerprint``, every machine digested)
is the oracle, and a checked runtime compares the two at every cache
consultation: of DFS campaigns to exhaustion, and of walks under every
strategy on a runtime built with an engine directly (a campaign refuses
reduction off the DFS family; the runtime does not), whose cache is
told never to prune.  Disagreements are *counted in a list*
and asserted after the campaign: an ``assert`` inside a scheduling point
is swallowed as a program bug by the inline carrier's ``except
BaseException``, and the oracle would pass vacuously.

Mutation checks (each made by hand in ``src/`` and run against this file;
the tests named are the ones that turned red):

* dropping the send-target footprint append (``red.effects.append(index)``
  in ``_point``) —
  ``test_memo_equals_from_scratch_on_the_registry``
  on AsyncSystem, ChainReplication and MultiPaxos,
  ``test_a_drained_inbox_and_the_enqueue_after_it_are_both_seen`` and the
  pinned counters of ``TestCounters``.  Few cells, because
  the inbox-length comparison below catches every enqueue that is not
  balanced by a drain: the footprint alone carries the memo only where an
  ignored event was deleted in between (``Feeder`` builds that case);
* dropping the monitor append (``red.effects.append(-(index + 1))`` in
  ``_deliver_to_monitors``) —
  ``test_memo_equals_from_scratch_on_the_registry`` on Raft, RaftLossy,
  TwoPhaseCommit, TwoPhaseCommitCrash, ProcessScheduler and TokenRing (the
  six programs with a registry monitor), the TokenRing sweep and
  ``TestHonesty``;
* dropping the idle-drain invalidation (the ``entry[1] != size`` inbox
  length comparison in ``ReductionEngine.fingerprint``) —
  ``test_memo_equals_from_scratch_on_the_registry`` on AsyncSystem,
  ChainReplication, MultiPaxos and BasicPaxos, whose parked machines have
  ignored events deleted by ``_schedulable``'s drain, and
  ``test_a_drained_inbox_and_the_enqueue_after_it_are_both_seen``.

The documented boundary is ``Meddler`` below: it writes a list after
sending it, which no footprint records — the memo disagrees with the
oracle there, and the static analysis of Section 5 rejects the same
program for the same reason.
"""

import json
import os
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path

import pytest

from repro import Event, Machine, State
from repro.analysis import analyze_program
from repro.analysis.frontend import lower_machines
from repro.bench import all_benchmarks
from repro.testing import BugFindingRuntime, Campaign, TestConfig, ThreadedRuntime
from repro.testing.engine import build_runtime, resolved_program
from repro.testing.reduction import (
    DIGEST_SIZE,
    ReductionEngine,
    machine_update,
    monitor_update,
    state_fingerprint,
)

ROOT = Path(__file__).resolve().parent.parent
#: The runtime class per carrier.
CARRIERS = {"inline": BugFindingRuntime, "threads": ThreadedRuntime}

BUGGY = [b.name for b in all_benchmarks() if b.buggy is not None]
STRATEGIES = [
    ("random", {"seed": 11}),
    ("fair-random", {"seed": 12}),
    ("pct", {"depth": 3, "seed": 13}),
    ("dfs", {"max_depth": 6}),
]
#: The sweep's recall cases: (program, DFS depth, max_steps).
RECALL_CASES = [
    ("BoundedAsync", 8, 2_000),
    ("TwoPhaseCommit", 8, 2_000),
    ("TokenRing", 7, 200),
    ("German", 8, 2_000),
]


def count_line(text):
    """An exact count for CI to hold against another ``PYTHONHASHSEED``
    (perf-smoke greps these out of ``pytest -s``; with ``-s`` a test's
    output follows pytest's progress dots, hence the line break)."""
    print(f"\nfingerprint-counts: {text}")


def checked_runtime(record, streams=None, carrier="inline", prune=True):
    """A runtime class on ``carrier`` whose engine compares, at every
    cache consultation, the memoized fingerprint with the one computed
    from scratch, appending the verdict to ``record``; with ``streams``
    it also keeps the canonical byte stream of each state next to its
    digest.  With ``prune`` False every state counts as fresh, so an
    execution runs to its end and is compared at every point."""

    class CheckedRuntime(CARRIERS[carrier]):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memoized = self._red.fingerprint
            if not prune:
                self._red.check_state = lambda fingerprint: 0

            def fingerprint(machines, monitors, consumed, steps, faults):
                digest = memoized(machines, monitors, consumed, steps, faults)
                # The function BugFindingRuntime.state_fingerprint() is, on
                # the inputs the engine was handed.
                record.append(
                    digest
                    == state_fingerprint(machines, monitors, consumed, steps, faults)
                )
                if streams is not None:
                    parts = []
                    for machine in machines:
                        machine_update(
                            parts.append, machine, consumed.get(machine.id.value)
                        )
                    for monitor in monitors:
                        monitor_update(parts.append, monitor)
                    parts.append(b"#%d:%d" % (steps, faults))
                    streams.append((b"".join(parts), digest))
                return digest

            self._red.fingerprint = fingerprint

    return CheckedRuntime


def checked_walk(program, strategy, carrier="inline", iterations=12):
    """``iterations`` executions of ``program`` (a registry name brings
    its monitors and faults) under ``strategy`` on a checked runtime
    built directly with a state-cache engine, pruning off: a campaign
    refuses an engine for a randomized strategy, and the memo is to be
    held against the oracle along whole walks all the same.  The engine
    is attached to no strategy, so its cache is consulted at every
    scheduling point, DFS's replayed prefixes included.  Returns the
    runtime's carrier and the verdicts."""
    record = []
    config = TestConfig(
        program=program, strategy=strategy, max_steps=300,
        runtime_factory=checked_runtime(record, carrier=carrier, prune=False),
    )
    resolved = resolved_program(config)
    strategy = config.build_strategy()
    runtime = build_runtime(
        config, strategy, resolved,
        reduction=ReductionEngine("dpor+state-cache"),
    )
    for _ in range(iterations):
        if not strategy.prepare_iteration():
            break
        runtime.execute(*resolved[:2])
    runtime.close()
    return runtime.carrier, record


def exhaustive(program, depth, max_steps, carrier, streams=None):
    """A DFS campaign to exhaustion under ``dpor+state-cache``, checked
    at every cache consultation."""
    record = []
    report = Campaign(TestConfig(
        program=program, strategy=("dfs", {"max_depth": depth}),
        max_iterations=1_000_000, max_steps=max_steps, stop_on_first_bug=False,
        reduction="dpor+state-cache",
        runtime_factory=checked_runtime(record, streams, carrier),
    )).run()
    return report, record


def audit():
    """Every recall case to exhaustion on both carriers: comparisons,
    disagreements, distinct canonical streams, distinct digests, the
    report's distinct states and the two cost counters — and a digest of
    the fingerprints themselves.  Run in subprocesses under two
    ``PYTHONHASHSEED`` values, all of it must repeat exactly."""
    rows = {}
    for program, depth, max_steps in RECALL_CASES:
        for carrier in CARRIERS:
            streams = []
            report, record = exhaustive(program, depth, max_steps, carrier, streams)
            assert report.exhausted
            rows[f"{program}:d{depth}:{carrier}"] = [
                len(record),
                record.count(False),
                len({stream for stream, _ in streams}),
                len({digest for _, digest in streams}),
                report.distinct_states,
                report.fingerprints,
                report.machine_digests,
                blake2b(b"".join(sorted({d for _, d in streams}))).hexdigest(),
            ]
    return rows


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def matrix():
    """(program, carrier) -> [(strategy, comparisons, disagreements)]: the
    13 buggy registry programs under four strategies on both carriers,
    checked walks with registry monitors and fault configs riding along
    with the name."""
    cells = {}
    for program in BUGGY:
        for carrier in CARRIERS:
            cell = cells[program, carrier] = []
            for strategy in STRATEGIES:
                ran_on, record = checked_walk(program, strategy, carrier)
                assert ran_on == carrier
                cell.append((strategy[0], len(record), record.count(False)))
    return cells


class TestMemoIsExact:
    @pytest.mark.parametrize("carrier", list(CARRIERS))
    @pytest.mark.parametrize("program", BUGGY)
    def test_memo_equals_from_scratch_on_the_registry(self, matrix, program, carrier):
        for strategy, checks, disagreements in matrix[program, carrier]:
            assert checks > 0, f"{strategy}: the cache was never consulted"
            assert disagreements == 0, (
                f"{strategy}: {disagreements} of {checks} memoized "
                "fingerprints differ from the from-scratch one"
            )
        total = sum(checks for _, checks, _ in matrix[program, carrier])
        count_line(f"{program} {carrier} checks={total}")

    def test_the_registry_matrix_is_not_vacuous(self, matrix):
        total = sum(checks for cell in matrix.values() for _, checks, _ in cell)
        assert total > 15_000, total

    @pytest.mark.parametrize("program,depth,max_steps", RECALL_CASES)
    def test_memo_equals_from_scratch_on_the_sweep_to_exhaustion(
        self, program, depth, max_steps
    ):
        report, record = exhaustive(program, depth, max_steps, "inline")
        assert report.exhausted
        assert len(record) == report.fingerprints > 0
        assert record.count(False) == 0


# ---------------------------------------------------------------------------
# The two invalidation sources, in miniature
# ---------------------------------------------------------------------------
class ENoise(Event):
    pass


class EWanted(Event):
    pass


class ETick(Event):
    pass


class Sink(Machine):
    """Parked in a state that ignores ``ENoise``: the scheduler's idle
    drain deletes it from the inbox while ``Feeder`` is the one stepping."""

    class Init(State):
        initial = True
        ignored = (ENoise,)
        actions = {EWanted: "on_wanted"}

    def on_wanted(self):
        self.got = self.payload


class Feeder(Machine):
    """Sends the sink noise, then — without a step in between that
    leaves the sink alone — the event it wants: after the drain the
    inbox is as long as when it was last digested, with another event in
    it, and only the send-target footprint says so.  Then noise again
    and a step that does not touch the sink: the drain shortens the
    inbox and no footprint names it, only its length says so."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {ETick: "on_tick"}

    def setup(self):
        self.sink = self.create_machine(Sink)
        self.round = 0
        self.send(self.id, ETick())

    def on_tick(self):
        self.round = self.round + 1
        self.send(self.sink, ENoise())
        self.send(self.sink, EWanted(self.round))
        self.send(self.sink, ENoise())
        if self.round < 3:
            self.send(self.id, ETick())


class TestInvalidationSources:
    @pytest.mark.parametrize("carrier", list(CARRIERS))
    @pytest.mark.parametrize(
        "strategy", [("random", {"seed": 3}), ("dfs", {"max_depth": 12})]
    )
    def test_a_drained_inbox_and_the_enqueue_after_it_are_both_seen(
        self, strategy, carrier
    ):
        _, record = checked_walk(Feeder, strategy, carrier, iterations=40)
        assert len(record) > 50
        assert record.count(False) == 0


# ---------------------------------------------------------------------------
# The boundary: a write after a send
# ---------------------------------------------------------------------------
class EItems(Event):
    pass


class Hoarder(Machine):
    class Init(State):
        initial = True
        actions = {EItems: "on_items"}

    def on_items(self):
        self.seen = len(self.payload)


class Meddler(Machine):
    """Appends to a list after sending it.  The write lands in the
    peer's inbox without a step of the peer and without an enqueue, so no
    footprint names it: exactly the ownership violation Section 5's
    analysis exists to reject, and the assumption DPOR's commutation
    argument already makes."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {ETick: "on_tick"}

    def setup(self):
        self.peer = self.create_machine(Hoarder)
        self.rounds = 0
        self.send(self.id, ETick())

    def on_tick(self):
        data = [self.rounds]
        self.send(self.peer, EItems(data))
        data.append(0)
        self.rounds = self.rounds + 1
        if self.rounds < 4:
            self.send(self.id, ETick())


class TestOwnershipBoundary:
    @pytest.mark.parametrize(
        "strategy", [("random", {"seed": 1}), ("dfs", {"max_depth": 10})]
    )
    def test_the_memo_is_stale_for_a_program_that_writes_what_it_sent(self, strategy):
        _, record = checked_walk(Meddler, strategy, iterations=20)
        assert 0 < record.count(False) < len(record)

    def test_the_static_analysis_rejects_the_same_program(self):
        analysis = analyze_program(
            lower_machines([Meddler, Hoarder], (), name="Meddler"),
            xsa=True, readonly=True,
        )
        assert not analysis.verified
        assert analysis.violation_count() == 1


# ---------------------------------------------------------------------------
# Fingerprint honesty: what is hashed, and that nothing collides
# ---------------------------------------------------------------------------
class TestHonesty:
    def test_no_collision_on_the_recall_cases_under_two_hash_seeds(self):
        """Distinct canonical streams == distinct digests == the report's
        distinct states, on both carriers; and every number, the digests
        included, is the same under another ``PYTHONHASHSEED``."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        outputs = []
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import json; from tests.test_fingerprint import audit; "
                 "print(json.dumps(audit()))"],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        for case, row in outputs[0].items():
            checks, disagreements, streams, digests, states = row[:5]
            assert disagreements == 0, case
            assert streams == digests == states > 0, (case, row)
            assert checks == row[5], case
            count_line(f"{case} {row[:7]}")
        for case in ("BoundedAsync:d8", "TwoPhaseCommit:d8", "TokenRing:d7", "German:d8"):
            assert outputs[0][f"{case}:inline"] == outputs[0][f"{case}:threads"]

    def test_digest_width(self):
        runtime_digest = state_fingerprint([], [], None, 0, 0)
        assert len(runtime_digest) == DIGEST_SIZE == 16


# ---------------------------------------------------------------------------
# The exact cost counters
# ---------------------------------------------------------------------------
def sweep_arm(program, depth, **overrides):
    kwargs = dict(
        program=program, strategy=("dfs", {"max_depth": depth}),
        max_iterations=1_000_000, max_steps=2_000, stop_on_first_bug=False,
        workers="inline", reduction="dpor+state-cache",
    )
    kwargs.update(overrides)
    return Campaign(TestConfig(**kwargs)).run()


class TestCounters:
    @pytest.mark.parametrize(
        "program,depth,fingerprints,digests,parts",
        [
            # parts: machines + monitors, what a from-scratch hash digests.
            ("BoundedAsync", 8, 521, 993, 4),
            ("German", 12, 4_284, 8_576, 4),
        ],
    )
    def test_pinned(self, program, depth, fingerprints, digests, parts):
        report = sweep_arm(program, depth)
        assert report.exhausted
        assert (report.fingerprints, report.machine_digests) == (fingerprints, digests)
        # About two digests a consultation — the stepping machine and one
        # send target — where hashing from scratch digests every part.
        assert report.machine_digests < 0.55 * parts * report.fingerprints
        # Nothing survives a campaign: the next one counts the same.
        again = sweep_arm(program, depth)
        assert (again.fingerprints, again.machine_digests) == (fingerprints, digests)
        count_line(f"{program}:d{depth} {fingerprints} {digests}")

    def test_zero_without_a_state_cache(self):
        for mode in ("none", "dpor"):
            report = sweep_arm("BoundedAsync", 5, reduction=mode)
            assert (report.fingerprints, report.machine_digests) == (0, 0)
            assert "fingerprints=" not in report.summary()

    def test_shard_end_event_carries_them(self, tmp_path):
        events = tmp_path / "events.jsonl"
        report = sweep_arm("BoundedAsync", 8, events_path=str(events))
        records = [json.loads(line) for line in events.read_text().splitlines()]
        (end,) = [r for r in records if r["type"] == "shard_end"]
        assert end["fingerprints"] == report.fingerprints == 521
        assert end["machine_digests"] == report.machine_digests == 993
