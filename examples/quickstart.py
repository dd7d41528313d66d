"""Quickstart: define machines, run them, test them systematically.

Demonstrates the three ways to execute a P# program:
1. the production runtime (real threads, like Section 6.1);
2. the bug-finding runtime under the random scheduler (Section 6.2);
3. deterministic replay of a buggy schedule.

Run: ``python examples/quickstart.py``
"""

from repro import (
    Campaign,
    Event,
    Machine,
    Runtime,
    State,
    TestConfig,
)


class EPing(Event):
    pass


class EPong(Event):
    pass


class Ponger(Machine):
    class Serving(State):
        initial = True
        entry = "setup"
        actions = {EPing: "on_ping"}

    def setup(self):
        self.count = 0

    def on_ping(self):
        self.count += 1
        self.send(self.payload, EPong(self.count))


class Pinger(Machine):
    """Drives three rounds, then asserts replies arrived in order —
    which they always do (per-sender FIFO), so this program is correct."""

    class Driving(State):
        initial = True
        entry = "setup"
        actions = {EPong: "on_pong"}

    def setup(self):
        self.partner = self.create_machine(Ponger)
        self.replies = []
        for _ in range(3):
            self.send(self.partner, EPing(self.id))

    def on_pong(self):
        self.replies.append(self.payload)
        if len(self.replies) == 3:
            self.assert_that(self.replies == [1, 2, 3], "out of order!")
            self.halt()


class RacyPinger(Pinger):
    """Two partners, one shared reply list: arrival order now depends on
    the schedule, so the assert fails under *some* interleavings."""

    def setup(self):
        self.replies = []
        for _ in range(2):
            partner = self.create_machine(Ponger)
            self.send(partner, EPing(self.id))
            self.send(partner, EPing(self.id))

    def on_pong(self):
        self.replies.append(self.payload)
        if len(self.replies) == 4:
            self.assert_that(
                self.replies == [1, 2, 1, 2], "schedule-dependent order!"
            )
            self.halt()


def main():
    print("1. production runtime (real threads)")
    runtime = Runtime(seed=0)
    runtime.run(Pinger)
    runtime.join(timeout=10)
    print("   completed without errors\n")

    print("2. systematic testing: 200 random schedules of the racy variant")
    campaign = Campaign(
        TestConfig(RacyPinger, seed=42, max_iterations=200)
    )
    report = campaign.run()
    print(f"   {report.summary()}")
    print(f"   backend: {report.effective_backend}")  # the carrier it ran on
    assert report.bug_found

    print("\n3. deterministic replay of the recorded buggy schedule")
    result = campaign.replay()  # the last campaign's winning trace
    print(f"   replayed -> {result.bug}")
    assert result.buggy
    print("\nSame trace, same bug: Heisenbug reproduced deterministically.")
    print("(The same hunt from a shell: "
          "python -m repro test examples.quickstart:RacyPinger "
          "--seed 42 --max-iterations 200)")


if __name__ == "__main__":
    main()
