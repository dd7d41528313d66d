"""``python -m repro`` — the command-line tester.

Mirrors the P# tester tool's surface (a thin command line over the
declarative core): every invocation builds a
:class:`repro.testing.config.TestConfig` and hands it to a
:class:`repro.testing.config.Campaign`, so the CLI has no execution
logic of its own.

Subcommands
-----------

``test TARGET`` / ``test --config FILE``
    Run a bug-finding campaign.  ``TARGET`` is a benchmark-registry name
    or table alias (``Raft``, ``2PhaseCommit`` — the seeded buggy
    variant, registry monitors attached) or a ``module:Class`` import
    path.  ``--strategy name,kw=v`` picks the scheduler (repeat it, or
    pass ``--portfolio N``, for a multi-process portfolio campaign);
    ``--save-trace FILE`` writes the winning schedule for later replay.
    ``--config FILE`` runs a campaign file instead
    (:meth:`TestConfig.save`'s versioned JSON) — the same artifact
    ``serve`` ships to fleet workers.

``serve --config FILE``
    Coordinate a distributed campaign fleet: shard the campaign across
    local workers forked from the coordinator (``--workers N``) and/or
    TCP workers accepted on
    ``--port`` (``python -m repro worker`` / ``submit``), merge their
    reports, checkpoint progress.  See docs/protocol.md.

``worker (--stdio | --host H --port P)``
    One fleet worker process: handshake with a coordinator, run shards
    until told to shut down.  ``serve --workers`` starts its own over
    inherited pipes; remote hosts run this command (usually via
    ``submit``), and ``--stdio`` is the entry point for any launcher
    that hands the worker a pipe pair, such as ssh.

``submit --host H --port P --workers N``
    Attach N worker processes to a running coordinator and wait for the
    campaign to release them.

``replay TARGET --trace FILE``
    Deterministically re-execute a schedule recorded by ``test
    --save-trace`` (or :meth:`ScheduleTrace.save`) and report what it
    reproduces — and ``diverged: yes`` when the execution left the
    recorded schedule, so whatever it reports is not the recorded bug.

``bench --list``
    Print the benchmark registry (suites, variants, monitors).

``report FILE``
    Render a saved campaign report (``test --coverage-report FILE``) or
    a crash checkpoint (``test --checkpoint FILE``): the summary, the
    activity-coverage table naming every declared-but-unvisited state
    and transition, telemetry, ``--json`` for machines, ``--dot FILE``
    for a Graphviz view of the explored state space.

Exit status: 0 on success, 1 when ``--expect-bug`` was passed and no bug
was found (or a replay reproduced none, or diverged), 2 on configuration errors (a
corrupt trace or checkpoint file included), 130 when a campaign was
interrupted by Ctrl-C (partial report printed, checkpoint flushed).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import PSharpError
from .testing.config import WORKER_MODES, Campaign, TestConfig
from .testing.faults import FaultConfig
from .testing.portfolio import StrategySpec, strategy_names
from .testing.reduction import DEFAULT_STATE_CACHE_SIZE, REDUCTION_MODES


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-steps", type=int, default=20_000, metavar="N",
        help="depth bound on scheduling decisions per execution",
    )
    parser.add_argument(
        "--workers", choices=WORKER_MODES, default="auto",
        help="worker back-end (default: auto = inline with pooled fallback)",
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    faults = parser.add_argument_group(
        "fault injection",
        "deterministic environment faults, recorded in the schedule trace "
        "(replay a faulty trace with the same fault flags)",
    )
    faults.add_argument(
        "--fault-drop", type=float, default=0.0, metavar="P",
        help="per-send probability of dropping the message",
    )
    faults.add_argument(
        "--fault-duplicate", type=float, default=0.0, metavar="P",
        help="per-send probability of delivering the message twice",
    )
    faults.add_argument(
        "--fault-delay", type=float, default=0.0, metavar="P",
        help="per-send probability of reordering the message behind the "
        "target's newest pending event",
    )
    faults.add_argument(
        "--fault-crash", type=float, default=0.0, metavar="P",
        help="per-step probability of crash-restarting a machine "
        "(persistent fields survive, the rest reboots)",
    )
    faults.add_argument(
        "--fault-budget", type=int, default=16, metavar="N",
        help="max injected faults per execution (default: 16)",
    )
    faults.add_argument(
        "--no-faults", action="store_true",
        help="disable fault injection even for fault-enabled benchmark "
        "targets (e.g. RaftLossy)",
    )


def _fault_config_from_args(args: argparse.Namespace) -> Optional[FaultConfig]:
    """The --fault-* flags as a FaultConfig: None defers to the registry
    variant's default; --no-faults is the explicit all-off config."""
    if args.no_faults:
        return FaultConfig()
    if any(
        (args.fault_drop, args.fault_duplicate, args.fault_delay, args.fault_crash)
    ):
        return FaultConfig(
            drop=args.fault_drop,
            duplicate=args.fault_duplicate,
            delay=args.fault_delay,
            crash=args.fault_crash,
            max_faults=args.fault_budget,
        )
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Systematic concurrency tester for P# programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser(
        "test", help="run a bug-finding campaign against a target program"
    )
    test.add_argument(
        "target",
        nargs="?",
        help="benchmark name/alias (e.g. Raft, 2PhaseCommit) or "
        "module:Class; omit when passing --config",
    )
    test.add_argument(
        "--config", metavar="FILE",
        help="run a campaign file (TestConfig JSON, see docs/cli.md) "
        "instead of a TARGET; only --seed, --portfolio, --expect-bug, "
        "--save-trace, --checkpoint/--resume and the observability "
        "flags may be combined with it",
    )
    test.add_argument(
        "--strategy", action="append", metavar="NAME[,KW=V...]",
        help=f"scheduling strategy ({', '.join(strategy_names())}); "
        "repeat for a portfolio of explicit strategies",
    )
    test.add_argument(
        "--portfolio", type=int, metavar="N",
        help="run the default diverse portfolio mix across N worker processes",
    )
    test.add_argument("--seed", type=int, help="campaign seed")
    test.add_argument(
        "--max-iterations", type=int, default=10_000, metavar="N",
        help="schedules to explore (default: 10000, the paper's budget)",
    )
    test.add_argument(
        "--time-limit", type=float, default=300.0, metavar="SECONDS",
        help="wall-clock budget (default: 300, the paper's 5 minutes)",
    )
    test.add_argument(
        "--max-hot-steps", type=int, default=1000, metavar="N",
        help="liveness temperature threshold (fair steps a monitor may stay hot)",
    )
    test.add_argument(
        "--livelock-as-bug", action="store_true",
        help="report depth-bound cutoffs under fair strategies as potential livelocks",
    )
    test.add_argument(
        "--keep-going", action="store_true",
        help="keep exploring after the first bug (estimate bug density)",
    )
    test.add_argument(
        "--iteration-timeout", type=float, metavar="SECONDS",
        help="per-iteration watchdog: cancel an execution stuck longer "
        "than this and continue the campaign (counted as watchdog hits)",
    )
    reduction = test.add_argument_group(
        "schedule-space reduction",
        "explore fewer schedules without missing bugs (docs/reduction.md)",
    )
    reduction.add_argument(
        "--reduction", choices=REDUCTION_MODES, default=None,
        help="reduction mode: dpor (dynamic partial-order reduction on "
        "DFS-family strategies), dpor+state-cache (adds fingerprint "
        "state caching for every strategy), dpor+state-cache+clauses "
        "(learns prefix clauses from cache hits); default: none",
    )
    reduction.add_argument(
        "--state-cache-size", type=int, metavar="N", default=None,
        help="bound on the state cache (entries, LRU-evicted; default: "
        f"{DEFAULT_STATE_CACHE_SIZE})",
    )
    test.add_argument(
        "--checkpoint", metavar="FILE",
        help="periodically persist portfolio-campaign progress to FILE "
        "(implies a portfolio campaign)",
    )
    test.add_argument(
        "--resume", metavar="FILE",
        help="resume a killed portfolio campaign from its checkpoint, "
        "skipping shards whose reports were already persisted",
    )
    _add_budget_arguments(test)
    _add_fault_arguments(test)
    observability = test.add_argument_group(
        "observability",
        "see what the campaign explored, not just what it found",
    )
    observability.add_argument(
        "--coverage", action="store_true",
        help="collect activity coverage (states entered, transitions "
        "taken, events sent/dequeued) and print the coverage table",
    )
    observability.add_argument(
        "--coverage-report", metavar="FILE",
        help="save the full campaign report (coverage + telemetry "
        "included) to FILE for 'python -m repro report' (implies "
        "--coverage)",
    )
    observability.add_argument(
        "--events", metavar="FILE",
        help="append a JSONL event stream (campaign/shard/iteration "
        "spans, watchdog hits, worker supervision) to FILE",
    )
    test.add_argument(
        "--save-trace", metavar="FILE",
        help="write the first found bug's schedule trace to FILE",
    )
    test.add_argument(
        "--expect-bug", action="store_true",
        help="exit 1 unless the campaign found a bug (CI gating)",
    )

    rep = sub.add_parser(
        "replay", help="deterministically re-execute a recorded schedule"
    )
    rep.add_argument("target", help="the program the trace was recorded against")
    rep.add_argument(
        "--trace", required=True, metavar="FILE",
        help="trace file written by 'test --save-trace' or ScheduleTrace.save",
    )
    _add_budget_arguments(rep)
    _add_fault_arguments(rep)
    rep.add_argument(
        "--expect-bug", action="store_true",
        help="exit 1 unless the replay reproduced a bug",
    )

    bench = sub.add_parser("bench", help="inspect the benchmark registry")
    bench.add_argument(
        "--list", action="store_true", help="list all registered benchmarks"
    )

    report = sub.add_parser(
        "report", help="render a saved campaign report or checkpoint"
    )
    report.add_argument(
        "file",
        help="report file from 'test --coverage-report' or a campaign "
        "checkpoint from 'test --checkpoint'",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report as JSON on stdout",
    )
    report.add_argument(
        "--dot", metavar="FILE",
        help="write a Graphviz digraph of the explored state space to "
        "FILE ('-' for stdout)",
    )

    serve = sub.add_parser(
        "serve",
        help="coordinate a distributed campaign fleet (docs/protocol.md)",
    )
    serve.add_argument(
        "--config", required=True, metavar="FILE",
        help="campaign file (TestConfig JSON) to shard across the fleet",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to accept TCP workers on (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, metavar="PORT",
        help="TCP port to accept workers on (0 = ephemeral, printed on "
        "stdout); omit to run on local --workers only",
    )
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="start N local worker processes, forked from the coordinator "
        "(default: 0)",
    )
    serve.add_argument(
        "--checkpoint", metavar="FILE",
        help="persist completed shards to FILE as they land",
    )
    serve.add_argument(
        "--resume", metavar="FILE",
        help="resume a killed fleet campaign from its checkpoint",
    )
    serve.add_argument(
        "--events", metavar="FILE",
        help="append the fleet's JSONL event stream (worker lifecycle, "
        "shard assignment/requeue, forwarded worker telemetry) to FILE; "
        "overrides the campaign file's events_path",
    )
    serve.add_argument(
        "--expect-bug", action="store_true",
        help="exit 1 unless the fleet campaign found a bug (CI gating)",
    )

    worker = sub.add_parser(
        "worker", help="run one fleet worker process (docs/protocol.md)"
    )
    worker.add_argument(
        "--stdio", action="store_true",
        help="speak the protocol over stdin/stdout (for launchers that "
        "hand the worker a pipe pair, such as ssh)",
    )
    worker.add_argument(
        "--host", help="coordinator host to connect to over TCP"
    )
    worker.add_argument(
        "--port", type=int, metavar="PORT", help="coordinator port"
    )
    worker.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="keep retrying the TCP connection this long (default: 10)",
    )

    submit = sub.add_parser(
        "submit", help="attach local worker processes to a coordinator"
    )
    submit.add_argument(
        "--host", default="127.0.0.1", help="coordinator host"
    )
    submit.add_argument(
        "--port", type=int, required=True, metavar="PORT",
        help="coordinator port",
    )
    submit.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes to attach (default: 1)",
    )
    submit.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="per-worker connection retry budget (default: 10)",
    )
    return parser


def _report_lines(report) -> List[str]:
    lines = [report.summary(), f"backend: {report.effective_backend}"]
    for sub in report.sub_reports:
        lines.append(f"  worker {sub.summary()}")
    if report.watchdog_hits:
        lines.append(
            f"watchdog: {report.watchdog_hits} stuck execution(s) canceled"
        )
    if report.interrupted:
        lines.append("campaign interrupted (partial results)")
    if report.first_bug is not None:
        lines.append(f"bug: {report.first_bug}")
    elif report.exhausted:
        lines.append("search space exhausted, no bug found")
    else:
        lines.append("no bug found within the budget")
    return lines


def _cmd_test(args: argparse.Namespace) -> int:
    if (args.target is None) == (args.config is None):
        raise PSharpError("pass exactly one of TARGET or --config FILE")
    specs = [StrategySpec.parse(text) for text in args.strategy or []]
    if args.portfolio is not None and specs:
        raise PSharpError(
            "pass either --portfolio N (the default mix) or repeated "
            "--strategy entries (an explicit mix), not both"
        )
    if args.config is not None:
        if specs:
            raise PSharpError(
                "--strategy cannot be combined with --config; put the "
                "mix in the campaign file's 'specs' field instead"
            )
        config = TestConfig.load(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.portfolio is not None:
            overrides["portfolio_workers"] = args.portfolio
        if args.coverage or args.coverage_report is not None:
            overrides["coverage"] = True
        if args.events is not None:
            overrides["events_path"] = args.events
        if args.reduction is not None:
            overrides["reduction"] = args.reduction
        if args.state_cache_size is not None:
            overrides["state_cache_size"] = args.state_cache_size
        if overrides:
            config = config.with_overrides(**overrides)
        portfolio = (
            args.portfolio is not None
            or config.specs is not None
            or args.checkpoint is not None
            or args.resume is not None
        )
        campaign = Campaign(config)
        report = (
            campaign.portfolio(checkpoint=args.checkpoint, resume=args.resume)
            if portfolio
            else campaign.run()
        )
        return _finish_test(args, report)
    # Checkpoint/resume are portfolio-campaign features: asking for them
    # promotes a single-strategy invocation to a 1-shard portfolio.
    portfolio = (
        args.portfolio is not None
        or len(specs) > 1
        or args.checkpoint is not None
        or args.resume is not None
    )
    config = TestConfig(
        program=args.target,
        strategy=specs[0] if len(specs) == 1 else None,
        specs=tuple(specs) if len(specs) > 1 else None,
        seed=args.seed,
        max_iterations=args.max_iterations,
        time_limit=args.time_limit,
        max_steps=args.max_steps,
        stop_on_first_bug=not args.keep_going,
        livelock_as_bug=args.livelock_as_bug,
        workers=args.workers,
        max_hot_steps=args.max_hot_steps,
        # None -> the facade default; explicit values (0 included) go
        # through TestConfig validation so --portfolio 0 is rejected.
        portfolio_workers=args.portfolio if args.portfolio is not None else 4,
        faults=_fault_config_from_args(args),
        iteration_timeout=args.iteration_timeout,
        coverage=args.coverage or args.coverage_report is not None,
        events_path=args.events,
        reduction=args.reduction if args.reduction is not None else "none",
        state_cache_size=(
            args.state_cache_size
            if args.state_cache_size is not None
            else DEFAULT_STATE_CACHE_SIZE
        ),
    )
    if portfolio and len(specs) == 1 and args.portfolio is None:
        # --checkpoint/--resume with one --strategy: that one spec is the
        # whole (resumable) mix rather than the default 4-worker blend.
        config = config.with_overrides(specs=(specs[0],), portfolio_workers=1)
    campaign = Campaign(config)
    report = (
        campaign.portfolio(checkpoint=args.checkpoint, resume=args.resume)
        if portfolio
        else campaign.run()
    )
    return _finish_test(args, report)


def _finish_test(args: argparse.Namespace, report) -> int:
    """Shared `test` epilogue: print the report, save artifacts, map the
    outcome to the exit-code convention."""
    for line in _report_lines(report):
        print(line)
    if report.coverage is not None:
        from .testing.reporting import coverage_table

        for line in coverage_table(report.coverage):
            print(line)
    if args.coverage_report:
        from .testing.reporting import save_report

        save_report(args.coverage_report, report)
        print(f"campaign report saved to {args.coverage_report}")
    if args.save_trace:
        bug = report.first_bug
        if bug is None or bug.trace is None:
            print("no trace to save (no bug found)", file=sys.stderr)
        else:
            bug.trace.save(args.save_trace)
            print(
                f"trace saved to {args.save_trace} "
                f"({len(bug.trace)} decisions)"
            )
    if report.interrupted:
        # The conventional 128+SIGINT code: scripts watching the campaign
        # can tell "killed mid-flight, checkpoint written" from failure.
        return 130
    if args.expect_bug and not report.bug_found:
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    config = TestConfig(
        program=args.target,
        max_steps=args.max_steps,
        workers=args.workers,
        faults=_fault_config_from_args(args),
    )
    result = Campaign(config).replay(args.trace)
    assert result is not None  # an explicit trace always replays
    print(f"status: {result.status}")
    if result.bug is not None:
        print(f"reproduced: {result.bug}")
    else:
        print("no bug reproduced")
    if result.diverged:
        print("diverged: yes — replay with the bounds the trace was recorded under")
    if args.expect_bug and (result.diverged or not result.buggy):
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if not args.list:
        print("error: nothing to do — pass --list", file=sys.stderr)
        return 2
    from .bench.registry import all_benchmarks

    rows = []
    for benchmark in sorted(all_benchmarks(), key=lambda b: (b.suite, b.name)):
        variants = [
            name
            for name in ("correct", "racy", "buggy")
            if getattr(benchmark, name) is not None
        ]
        monitored = benchmark.buggy or benchmark.correct
        monitors = ",".join(m.__name__ for m in monitored.monitors) or "-"
        rows.append(
            (benchmark.name, benchmark.suite, "/".join(variants),
             benchmark.bug_kind if benchmark.buggy else "-", monitors)
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    header = ("name", "suite", "variants", "bug kind", "monitors")
    widths = [max(w, len(h)) for w, h in zip(widths, header[:4])] + [0]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json as json_module

    from .testing.reporting import (
        coverage_table,
        coverage_dot,
        load_campaign,
        report_json,
    )

    report = load_campaign(args.file)
    if args.json:
        print(json_module.dumps(report_json(report), indent=2, sort_keys=True))
    elif args.dot == "-":
        pass  # stdout carries only the digraph, pipeable into `dot -Tsvg`
    else:
        for line in _report_lines(report):
            print(line)
        if report.coverage is not None:
            for line in coverage_table(report.coverage):
                print(line)
        else:
            print("no activity coverage recorded (run test with --coverage)")
        if report.telemetry is not None:
            for line in report.telemetry.summary_lines():
                print(line)
    if args.dot:
        if report.coverage is None:
            print(
                "error: no coverage in this report; --dot needs a campaign "
                "run with --coverage",
                file=sys.stderr,
            )
            return 2
        dot = coverage_dot(report.coverage)
        if args.dot == "-":
            sys.stdout.write(dot)
        else:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
            print(f"coverage digraph written to {args.dot}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .testing.fleet import run_fleet

    if args.port is None and args.workers <= 0:
        raise PSharpError(
            "serve needs at least one worker source: --port to accept TCP "
            "workers, and/or --workers N local processes"
        )
    config = TestConfig.load(args.config)
    if args.events is not None:
        config = config.with_overrides(events_path=args.events)

    def on_listen(host: str, port: int) -> None:
        print(f"fleet: listening on {host}:{port}", flush=True)

    report = run_fleet(
        config,
        host=args.host,
        port=args.port,
        local_workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        on_listen=on_listen,
    )
    for line in _report_lines(report):
        print(line)
    if report.coverage is not None:
        from .testing.reporting import coverage_table

        for line in coverage_table(report.coverage):
            print(line)
    if report.interrupted:
        return 130
    if args.expect_bug and not report.bug_found:
        return 1
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .testing.fleet import Connection, connect_worker, worker_loop

    if args.stdio == (args.host is not None):
        raise PSharpError("pass exactly one of --stdio or --host/--port")
    if args.stdio:
        # stdout is the protocol channel: keep its raw fd for frames and
        # point fd 1 at stderr so any stray print() cannot corrupt it.
        wire_out = os.dup(sys.stdout.fileno())
        os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
        conn = Connection(sys.stdin.fileno(), wire_out, label="stdio")
    else:
        if args.port is None:
            raise PSharpError("--host needs --port")
        conn = connect_worker(
            args.host, args.port, connect_timeout=args.connect_timeout
        )
    try:
        completed = worker_loop(conn)
    finally:
        conn.close()
    print(f"worker: {completed} shard(s) completed", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import subprocess

    from .testing.fleet import worker_environment

    if args.workers < 1:
        raise PSharpError("submit needs --workers >= 1")
    command = [
        sys.executable, "-m", "repro", "worker",
        "--host", args.host, "--port", str(args.port),
        "--connect-timeout", str(args.connect_timeout),
    ]
    procs = [
        subprocess.Popen(command, env=worker_environment())
        for _ in range(args.workers)
    ]
    failures = sum(1 for proc in procs if proc.wait() != 0)
    print(
        f"submit: {len(procs) - failures}/{len(procs)} worker(s) "
        "completed cleanly",
        file=sys.stderr,
    )
    return 2 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "test": _cmd_test,
        "replay": _cmd_replay,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
    }[args.command]
    try:
        return handler(args)
    except PSharpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited: the Unix convention
        # is to die quietly.  Point stdout at /dev/null so the
        # interpreter's exit-time flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
