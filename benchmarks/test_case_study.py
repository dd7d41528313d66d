"""Section 7.1 case study: the five AsyncSystem bugs.

"The process of porting to P#, and using our static analysis and testing
framework, revealed five bugs in the original AsyncSystem."  Our stand-in
seeds five bugs of the same flavours; the harness confirms the random
scheduler finds each, and that bug4 (the ownership race) is also caught
*statically* — the two-pronged detection the case study showcases.
"""

import pytest

from repro import Campaign, RandomStrategy, TestConfig
from repro.analysis.frontend import analyze_machines
from repro.bench.async_system import BUG_DRIVERS, BaseService

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("bug", sorted(BUG_DRIVERS))
def test_bug_found_by_random_scheduler(benchmark, bug):
    driver, _service = BUG_DRIVERS[bug]

    def hunt():
        engine = Campaign(
            TestConfig(
                driver,
                max_iterations=2_000,
                time_limit=60,
                stop_on_first_bug=True,
                max_steps=5_000,
            ),
            strategy=RandomStrategy(seed=13),
        )
        return engine.run()

    report = benchmark.pedantic(hunt, rounds=1, iterations=1)
    assert report.bug_found, f"{bug} not found"


def test_bug4_also_caught_statically():
    driver, service = BUG_DRIVERS["bug4"]
    analysis = analyze_machines(
        [driver, service, BaseService], name="asyncsystem-bug4", xsa=True
    )
    assert not analysis.verified, "the live-snapshot race must be flagged"
