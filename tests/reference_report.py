"""Test-only oracle: the hand-written ``merge`` / ``copy`` / ``detached``
methods the record tables replaced, kept as they were.

Until PR 20 ``TestReport``, ``CoverageMap``, ``MachineCoverage``,
``Histogram`` and ``TelemetryStats`` each spelled their field list out
again in ``merge`` and in ``copy`` (``TestReport`` also in ``detached``).
They now declare each field once with its rule and inherit those
operations from :class:`repro.testing.record.Record`.  The bodies below
are the deleted methods verbatim — ``self`` is the first argument, and a
nested ``.merge()`` / ``.copy()`` call goes to the function here instead
of to the method under test.  One change since: version 3 of the report
document stores no derived count, so ``Histogram.count``,
``TelemetryStats.iterations`` and ``fault_kinds``, and
``TestReport.first_bug_iteration``, ``faults_injected``, the consulted
count and ``schedules_pruned`` (now ``branches_pruned`` +
``state_prunes``) are no longer copied or summed here either.
``tests/test_report_schema.py`` holds the table-driven operations against
them, field for field, on generated and on real reports (the
``reference_taint.py`` / ``reference_frontend.py`` pattern).
"""

from repro.errors import BugReport
from repro.testing.coverage import CoverageMap, MachineCoverage
from repro.testing.engine import TestReport
from repro.testing.telemetry import Histogram, TelemetryStats


# -- telemetry.py ------------------------------------------------------------
def merge_histogram(self, other):
    buckets = self.buckets
    for bucket, count in other.buckets.items():
        buckets[bucket] = buckets.get(bucket, 0) + count
    self.total += other.total
    if other.min is not None and (self.min is None or other.min < self.min):
        self.min = other.min
    if other.max is not None and (self.max is None or other.max > self.max):
        self.max = other.max


def copy_histogram(self):
    clone = Histogram()
    clone.buckets = dict(self.buckets)
    clone.total = self.total
    clone.min = self.min
    clone.max = self.max
    return clone


def merge_telemetry(self, other):
    merge_histogram(self.steps, other.steps)
    merge_histogram(self.iteration_us, other.iteration_us)
    rate = self.rate
    for second, count in other.rate.items():
        rate[second] = rate.get(second, 0) + count
    self.consulted += other.consulted
    self.forced += other.forced
    return self


def copy_telemetry(self):
    clone = TelemetryStats()
    clone.steps = copy_histogram(self.steps)
    clone.iteration_us = copy_histogram(self.iteration_us)
    clone.rate = dict(self.rate)
    clone.consulted = self.consulted
    clone.forced = self.forced
    return clone


# -- coverage.py -------------------------------------------------------------
def merge_machine_coverage(self, other):
    if other.declared_states != self.declared_states:
        # Same-named classes with different declared universes (e.g.
        # two modules reusing a class name): union the declarations
        # so neither campaign's uncovered list silently shrinks.
        self.declared_states = tuple(
            sorted(set(self.declared_states) | set(other.declared_states))
        )
    if other.declared_transitions != self.declared_transitions:
        self.declared_transitions = tuple(
            sorted(set(self.declared_transitions) | set(other.declared_transitions))
        )
    self.is_monitor = self.is_monitor or other.is_monitor
    self.instances += other.instances
    self.halts += other.halts
    visited = self.states_visited
    for name, count in other.states_visited.items():
        visited[name] = visited.get(name, 0) + count
    taken = self.transitions_taken
    for key, count in other.transitions_taken.items():
        taken[key] = taken.get(key, 0) + count


def copy_machine_coverage(self):
    clone = MachineCoverage(
        self.declared_states, self.declared_transitions, self.is_monitor
    )
    clone.instances = self.instances
    clone.halts = self.halts
    clone.states_visited = dict(self.states_visited)
    clone.transitions_taken = dict(self.transitions_taken)
    return clone


def merge_coverage(self, other):
    machines = self.machines
    for name, record in other.machines.items():
        mine = machines.get(name)
        if mine is None:
            machines[name] = copy_machine_coverage(record)
        else:
            merge_machine_coverage(mine, record)
    for mine_counts, other_counts in (
        (self.events_sent, other.events_sent),
        (self.events_dequeued, other.events_dequeued),
        (self.events_dropped, other.events_dropped),
    ):
        for name, count in other_counts.items():
            mine_counts[name] = mine_counts.get(name, 0) + count
    return self


def copy_coverage(self):
    clone = CoverageMap()
    clone.machines = {
        name: copy_machine_coverage(rec) for name, rec in self.machines.items()
    }
    clone.events_sent = dict(self.events_sent)
    clone.events_dequeued = dict(self.events_dequeued)
    clone.events_dropped = dict(self.events_dropped)
    return clone


# -- errors.py (unchanged there; here so a detached report is the oracle's) ---
def detached_bug(self):
    return BugReport(
        kind=self.kind,
        message=self.message,
        machine=str(self.machine) if self.machine is not None else None,
        trace=self.trace,
        exception=None,
        iteration=self.iteration,
        step=self.step,
    )


# -- engine.py ---------------------------------------------------------------
def merge_report(self, other):
    self.iterations += other.iterations
    self.buggy_iterations += other.buggy_iterations
    self.depth_bound_hits += other.depth_bound_hits
    self.watchdog_hits += other.watchdog_hits
    self.total_steps += other.total_steps
    self.total_scheduling_points += other.total_scheduling_points
    self.max_machines = max(self.max_machines, other.max_machines)
    self.elapsed = max(self.elapsed, other.elapsed)
    for kind, count in other.fault_kinds.items():
        self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + count
    # Distinct-state counts sum across shards: each shard's cache is
    # private, so the merged figure over-counts states two shards both
    # visited — an upper bound, like summing coverage before dedup.
    self.distinct_states += other.distinct_states
    self.branches_pruned += other.branches_pruned
    self.state_prunes += other.state_prunes
    self.fingerprints += other.fingerprints
    self.machine_digests += other.machine_digests
    if other.coverage is not None:
        if self.coverage is None:
            self.coverage = copy_coverage(other.coverage)
        else:
            merge_coverage(self.coverage, other.coverage)
    if other.telemetry is not None:
        if self.telemetry is None:
            self.telemetry = copy_telemetry(other.telemetry)
        else:
            merge_telemetry(self.telemetry, other.telemetry)
    seen = {
        bug.trace.fingerprint()
        for bug in self.bugs
        if bug.trace is not None
    }
    for bug in other.bugs:
        if bug.trace is not None:
            key = bug.trace.fingerprint()
            if key in seen:
                continue
            seen.add(key)
        self.bugs.append(bug)
    if self.first_bug is None and other.first_bug is not None:
        self.first_bug = other.first_bug
    self.timed_out = self.timed_out or other.timed_out
    self.interrupted = self.interrupted or other.interrupted
    if other.effective_backend is not None:
        if self.effective_backend is None:
            self.effective_backend = other.effective_backend
        elif self.effective_backend != other.effective_backend:
            self.effective_backend = "mixed"
    return self


def merged_reports(reports, strategy="portfolio"):
    campaign = TestReport(strategy=strategy)
    for report in reports:
        merge_report(campaign, report)
    campaign.exhausted = bool(reports) and all(r.exhausted for r in reports)
    campaign.sub_reports = list(reports)
    return campaign


def detached_report(self):
    clone = TestReport(
        strategy=self.strategy,
        iterations=self.iterations,
        buggy_iterations=self.buggy_iterations,
        depth_bound_hits=self.depth_bound_hits,
        watchdog_hits=self.watchdog_hits,
        total_steps=self.total_steps,
        total_scheduling_points=self.total_scheduling_points,
        max_machines=self.max_machines,
        elapsed=self.elapsed,
        exhausted=self.exhausted,
        timed_out=self.timed_out,
        interrupted=self.interrupted,
        effective_backend=self.effective_backend,
        distinct_states=self.distinct_states,
        branches_pruned=self.branches_pruned,
        state_prunes=self.state_prunes,
        fingerprints=self.fingerprints,
        machine_digests=self.machine_digests,
    )
    clone.fault_kinds = dict(self.fault_kinds)
    if self.coverage is not None:
        clone.coverage = copy_coverage(self.coverage)
    if self.telemetry is not None:
        clone.telemetry = copy_telemetry(self.telemetry)
    clone.bugs = [detached_bug(bug) for bug in self.bugs]
    if self.first_bug is not None:
        clone.first_bug = detached_bug(self.first_bug)
    clone.sub_reports = [detached_report(sub) for sub in self.sub_reports]
    return clone
