"""The thread-carried behaviour, pinned across commits.

``golden_threads.json`` holds what two sets of small campaigns produced
when it was generated:

* ``chess`` — CHESS-style campaigns (:class:`~repro.chess.ChessRuntime`)
  on Ping, RacyCounter, BoundedAsync and TwoPhaseCommit (the registry
  variant, monitor attached), race detection on and off, under ``random``
  seed 3 and ``dfs``: schedules, steps, scheduling points, the races
  reported (distinct, sorted, plus how many reports in all) and the first
  bug's trace fingerprint;
* ``shapes`` — handlers that send from inside a comprehension or a lambda
  (``tests/test_config.py``'s ``LambdaRacer`` and ``MidCampaignRacer``,
  ``benchmarks/perf/programs.py``'s ``FanOutCoordinator`` and
  ``LambdaRelay``) as default campaigns under ``random`` seed 3: the same
  counters and every bug's trace fingerprint.

The file was written when both sets ran on threads: CHESS still does,
the shapes now compile and run on the inline carrier, and are held to
the file on ``ThreadedRuntime`` too.  A change to the carriers or to the
coroutine compiler must leave the file byte-for-byte unchanged.

Regenerate (only when a schedule change is intended, and say so)::

    PYTHONPATH=src python -c "from tests.test_golden_threads import write; write()"
"""

import json
import os
from functools import partial

import pytest

from repro import Campaign, DfsStrategy, RandomStrategy, TestConfig
from repro.chess import ChessRuntime
from repro.testing import ThreadedRuntime

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_threads.json")

CHESS_PROGRAMS = (
    "tests.machines:Ping",
    "tests.machines:RacyCounter",
    "BoundedAsync",
    "TwoPhaseCommit",
)
CHESS_STRATEGIES = {
    "random": lambda: RandomStrategy(seed=3),
    "dfs": lambda: DfsStrategy(),
}
SHAPES = (
    "tests.test_config:LambdaRacer",
    "tests.test_config:MidCampaignRacer",
    "benchmarks.perf.programs:FanOutCoordinator",
    "benchmarks.perf.programs:LambdaRelay",
)
BUDGET = dict(
    max_iterations=30, max_steps=1_500, time_limit=None, stop_on_first_bug=False,
)


class _RaceLog(ChessRuntime):
    """ChessRuntime that keeps every execution's race reports."""

    races_seen = None  # the list of the campaign being run

    def execute(self, main_cls, payload=None):
        result = super().execute(main_cls, payload)
        _RaceLog.races_seen.extend(self.races)
        return result


def _counters(report):
    return [
        report.iterations,
        report.total_steps,
        report.total_scheduling_points,
        report.first_bug_iteration,
        report.first_bug.trace.fingerprint() if report.first_bug else None,
    ]


def chess_row(program, strategy, race_detection):
    _RaceLog.races_seen = races = []
    report = Campaign(
        TestConfig(
            program=program,
            runtime_factory=partial(_RaceLog, race_detection=race_detection),
            **BUDGET,
        ),
        strategy=CHESS_STRATEGIES[strategy](),
    ).run()
    return _counters(report) + [len(races), sorted({str(race) for race in races})]


def shape_row(program, **overrides):
    report = Campaign(
        TestConfig(program=program, strategy="random", seed=3, **BUDGET, **overrides)
    ).run()
    return _counters(report) + [[bug.trace.fingerprint() for bug in report.bugs]]


def _chess_key(program, strategy, race_detection):
    return f"{program}/{strategy}/rd-{'on' if race_detection else 'off'}"


def generate():
    return {
        "chess": {
            _chess_key(program, strategy, rd): chess_row(program, strategy, rd)
            for program in CHESS_PROGRAMS
            for strategy in CHESS_STRATEGIES
            for rd in (True, False)
        },
        "shapes": {program: shape_row(program) for program in SHAPES},
    }


def write(path=GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_pins_bugs(golden):
    assert len(golden["chess"]) == len(CHESS_PROGRAMS) * len(CHESS_STRATEGIES) * 2
    assert sorted(golden["shapes"]) == sorted(SHAPES)
    assert any(row[4] for row in golden["chess"].values())
    assert any(row[5] for row in golden["shapes"].values())


@pytest.mark.parametrize("race_detection", (True, False), ids=("rd-on", "rd-off"))
@pytest.mark.parametrize("strategy", sorted(CHESS_STRATEGIES))
@pytest.mark.parametrize("program", CHESS_PROGRAMS)
def test_chess_rows_match_the_golden_file(golden, program, strategy, race_detection):
    key = _chess_key(program, strategy, race_detection)
    assert chess_row(program, strategy, race_detection) == golden["chess"][key]


@pytest.mark.parametrize("factory", (None, ThreadedRuntime), ids=("inline", "threads"))
@pytest.mark.parametrize("program", SHAPES)
def test_shape_rows_match_the_golden_file(golden, program, factory):
    assert shape_row(program, runtime_factory=factory) == golden["shapes"][program]
