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
    ``serve`` ships to fleet workers; a flag typed next to it overrides
    that field of the file, a flag not typed never does.

``serve --config FILE``
    Coordinate a distributed campaign fleet: shard the campaign across
    local workers forked from the coordinator (``--workers N``) and/or
    TCP workers accepted on
    ``--port`` (``python -m repro worker`` / ``submit``), merge their
    reports, checkpoint progress.  See docs/protocol.md.

``worker --host H --port P``
    One fleet worker process: connect to a coordinator over TCP,
    handshake, run shards until told to shut down.  ``serve --workers``
    forks its own instead, each on a socketpair; remote hosts run this
    command (usually via ``submit``).

``submit --host H --port P --workers N``
    Attach N worker processes to a running coordinator and wait for the
    campaign to release them.

``replay TARGET --trace FILE`` / ``replay --config FILE --trace FILE``
    Deterministically re-execute a schedule recorded by ``test
    --save-trace`` (or :meth:`ScheduleTrace.save`) and report what it
    reproduces — and ``diverged: yes`` when the execution left the
    recorded schedule, so whatever it reports is not the recorded bug.
    Takes the per-execution flags ``test`` has (``--max-steps``,
    ``--max-hot-steps``, ``--fault-*`` ...): replay under the bounds the
    trace was recorded under.

``bench --list``
    Print the benchmark registry (suites, variants, monitors).

``report FILE``
    Render a saved campaign report (``test --coverage-report FILE``) or
    a crash checkpoint (``test --checkpoint FILE``): the summary, the
    activity-coverage table naming every declared-but-unvisited state
    and transition, telemetry; ``--json`` prints the report document (a
    report file this command reads back), ``--dot FILE`` a Graphviz view
    of the explored state space.

Exit status: 0 on success, 1 when ``--expect-bug`` was passed and no bug
was found (or a replay reproduced none, or diverged), 2 on configuration errors (a
corrupt trace or checkpoint file included), 130 when a campaign was
interrupted by Ctrl-C (partial report printed, checkpoint flushed).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Dict, List, Optional

from .errors import PSharpError
from .testing.config import Campaign, TestConfig
from .testing.faults import FaultConfig
from .testing.portfolio import StrategySpec, strategy_names
from .testing.reduction import REDUCTION_MODES


def _flag(parser: Any, *flags: str, sets: str, of: type = TestConfig, **kwargs: Any) -> None:
    """A flag that sets the field ``sets`` of ``of``.  It has no default
    of its own: it is absent from the parsed arguments unless typed, so
    only what the user typed overrides the base config (TARGET's
    defaults, or the ``--config`` file), and ``{default}`` in its help
    quotes the one the field declares."""
    default = of.__dataclass_fields__[sets].default
    kwargs["help"] = kwargs["help"].format(default=default)
    parser.add_argument(*flags, dest=sets, default=argparse.SUPPRESS, **kwargs)


def _typed(args: argparse.Namespace, cls: type) -> Dict[str, Any]:
    """The fields of ``cls`` the user typed a flag for."""
    return {name: getattr(args, name) for name, _ in cls.FIELDS if hasattr(args, name)}


def _add_config_source(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "target", nargs="?",
        help=f"{what}: benchmark name/alias (e.g. Raft, 2PhaseCommit) or "
        "module:Class; omit when passing --config",
    )
    parser.add_argument(
        "--config", metavar="FILE",
        help="take the campaign from a file (TestConfig JSON, see "
        "docs/cli.md) instead of a TARGET; a flag typed next to it "
        "overrides the file's field",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags that shape one execution — what `replay` must be given
    again to reproduce what `test` recorded."""
    _flag(
        parser, "--max-steps", sets="max_steps", type=int, metavar="N",
        help="depth bound on scheduling decisions per execution "
        "(default: {default})",
    )
    _flag(
        parser, "--max-hot-steps", sets="max_hot_steps", type=int, metavar="N",
        help="liveness temperature threshold: fair steps a monitor may "
        "stay hot (default: {default})",
    )
    _flag(
        parser, "--livelock-as-bug", sets="livelock_as_bug", action="store_true",
        help="report depth-bound cutoffs under fair strategies as potential livelocks",
    )
    faults = parser.add_argument_group(
        "fault injection",
        "deterministic environment faults, recorded in the schedule trace "
        "(replay a faulty trace with the same fault flags); a flag "
        "overrides that field of the faults the campaign would run with",
    )
    for name, help_ in (
        ("drop", "per-send probability of dropping the message"),
        ("duplicate", "per-send probability of delivering the message twice"),
        ("delay", "per-send probability of reordering the message behind "
         "the target's newest pending event"),
        ("crash", "per-step probability of crash-restarting a machine "
         "(persistent fields survive, the rest reboots)"),
    ):
        _flag(
            faults, f"--fault-{name}", sets=name, of=FaultConfig, type=float,
            metavar="P", help=help_,
        )
    _flag(
        faults, "--fault-budget", sets="max_faults", of=FaultConfig, type=int,
        metavar="N", help="max injected faults per execution (default: {default})",
    )
    faults.add_argument(
        "--no-faults", action="store_true",
        help="disable fault injection even for fault-enabled benchmark "
        "targets (e.g. RaftLossy)",
    )


def _config_from_args(args: argparse.Namespace, **overrides: Any) -> TestConfig:
    """The one way a command gets its config: the base from TARGET or
    from ``--config FILE``, then exactly the flags the user typed."""
    if (args.target is None) == (args.config is None):
        raise PSharpError("pass exactly one of TARGET or --config FILE")
    config = (
        TestConfig.load(args.config) if args.target is None
        else TestConfig(args.target)
    )
    overrides.update(_typed(args, TestConfig))
    faults = _typed(args, FaultConfig)
    if args.no_faults:
        overrides["faults"] = FaultConfig()  # explicit all-off, registry default included
    elif faults:
        overrides["faults"] = dataclasses.replace(
            config.resolved_faults() or FaultConfig(), **faults
        )
    return config.with_overrides(**overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Systematic concurrency tester for P# programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser(
        "test", help="run a bug-finding campaign against a target program"
    )
    _add_config_source(test, "the program to test")
    test.add_argument(
        "--strategy", action="append", dest="strategies", metavar="NAME[,KW=V...]",
        help=f"scheduling strategy ({', '.join(strategy_names())}); "
        "repeat for a portfolio of explicit strategies (not with --config: "
        "put the mix in the file's 'specs')",
    )
    _flag(
        test, "--portfolio", sets="portfolio_workers", type=int, metavar="N",
        help="run the default diverse portfolio mix across N worker processes",
    )
    _flag(test, "--seed", sets="seed", type=int, help="campaign seed")
    _flag(
        test, "--max-iterations", sets="max_iterations", type=int, metavar="N",
        help="schedules to explore (default: {default}, the paper's budget)",
    )
    _flag(
        test, "--time-limit", sets="time_limit", type=float, metavar="SECONDS",
        help="wall-clock budget (default: {default}, the paper's 5 minutes)",
    )
    _flag(
        test, "--keep-going", sets="stop_on_first_bug", action="store_false",
        help="keep exploring after the first bug (estimate bug density)",
    )
    _flag(
        test, "--iteration-timeout", sets="iteration_timeout", type=float,
        metavar="SECONDS",
        help="per-iteration watchdog: cancel an execution stuck longer "
        "than this and continue the campaign (counted as watchdog hits)",
    )
    reduction = test.add_argument_group(
        "schedule-space reduction",
        "explore fewer DFS schedules (docs/reduction.md)",
    )
    _flag(
        reduction, "--reduction", sets="reduction", choices=REDUCTION_MODES,
        help="reduction mode, for the dfs and iddfs strategies only (any "
        "other strategy refuses it): dpor (dynamic partial-order "
        "reduction), dpor+state-cache (adds fingerprint state caching), "
        "dpor+state-cache+clauses (another name for dpor+state-cache); "
        "default: {default}",
    )
    _flag(
        reduction, "--state-cache-size", sets="state_cache_size", type=int,
        metavar="N",
        help="bound on the state cache (entries, LRU-evicted; default: {default})",
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
    _add_execution_arguments(test)
    observability = test.add_argument_group(
        "observability",
        "see what the campaign explored, not just what it found",
    )
    _flag(
        observability, "--coverage", sets="coverage", action="store_true",
        help="collect activity coverage (states entered, transitions "
        "taken, events sent/dequeued) and print the coverage table",
    )
    observability.add_argument(
        "--coverage-report", metavar="FILE",
        help="save the full campaign report (coverage + telemetry "
        "included) to FILE for 'python -m repro report' (implies "
        "--coverage)",
    )
    _flag(
        observability, "--events", sets="events_path", metavar="FILE",
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
    _add_config_source(rep, "the program the trace was recorded against")
    rep.add_argument(
        "--trace", required=True, metavar="FILE",
        help="trace file written by 'test --save-trace' or ScheduleTrace.save",
    )
    _add_execution_arguments(rep)
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
        help="print the report document (what a report file holds, so "
        "'report' reads the output back) as JSON on stdout",
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
        "--host", required=True, help="coordinator host to connect to over TCP"
    )
    worker.add_argument(
        "--port", type=int, required=True, metavar="PORT",
        help="coordinator port",
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


def _print_report(report) -> None:
    """How `test`, `serve` and `report` print a campaign report, each
    fact once: the summary line (counters, watchdog hits, carrier), one
    line per worker, the outcome — the first bug on its own `bug:` line,
    not also at the end of the summary — and the coverage table when
    the campaign collected coverage."""
    bug = report.first_bug
    print(report.summary().removesuffix(f", first bug: {bug}"))
    for sub in report.sub_reports:
        print(f"  worker {sub.summary()}")
    if report.interrupted:
        print("campaign interrupted (partial results)")
    if bug is not None:
        print(f"bug: {bug}")
    elif report.exhausted:
        print("search space exhausted, no bug found")
    else:
        print("no bug found within the budget")
    if report.coverage is not None:
        from .testing.reporting import coverage_table

        for line in coverage_table(report.coverage):
            print(line)


def _exit_status(args: argparse.Namespace, report) -> int:
    """A campaign's exit code (`test`, `serve`): 130 when it was
    interrupted, 1 when `--expect-bug` found none, else 0."""
    if report.interrupted:
        # The conventional 128+SIGINT code: scripts watching the campaign
        # can tell "killed mid-flight, checkpoint written" from failure.
        return 130
    if args.expect_bug and not report.bug_found:
        return 1
    return 0


def _cmd_test(args: argparse.Namespace) -> int:
    specs = [StrategySpec.parse(text) for text in args.strategies or []]
    if hasattr(args, "portfolio_workers") and specs:
        raise PSharpError(
            "pass either --portfolio N (the default mix) or repeated "
            "--strategy entries (an explicit mix), not both"
        )
    if args.config is not None and specs:
        raise PSharpError(
            "--strategy cannot be combined with --config; put the "
            "mix in the campaign file's 'specs' field instead"
        )
    # Checkpoint/resume are portfolio-campaign features: asking for them
    # promotes a single-strategy invocation to a 1-shard portfolio.
    resumable = args.checkpoint is not None or args.resume is not None
    overrides: Dict[str, Any] = {}
    if len(specs) > 1:
        overrides["specs"] = tuple(specs)
    elif specs and resumable:
        # That one spec is the whole (resumable) mix, not the default blend.
        overrides.update(specs=tuple(specs), portfolio_workers=1)
    elif specs:
        overrides["strategy"] = specs[0]
    if args.coverage_report is not None:
        overrides["coverage"] = True
    config = _config_from_args(args, **overrides)
    campaign = Campaign(config)
    if hasattr(args, "portfolio_workers") or config.specs is not None or resumable:
        report = campaign.portfolio(checkpoint=args.checkpoint, resume=args.resume)
    else:
        report = campaign.run()
    return _finish_test(args, report)


def _finish_test(args: argparse.Namespace, report) -> int:
    """The `test` epilogue: print the report, save artifacts, map the
    outcome to the exit-code convention."""
    _print_report(report)
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
    return _exit_status(args, report)


def _cmd_replay(args: argparse.Namespace) -> int:
    result = Campaign(_config_from_args(args)).replay(args.trace)
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
    from .testing.record import dumps
    from .testing.reporting import coverage_dot, load_campaign, report_document

    if args.json and args.dot == "-":
        raise PSharpError(
            "--json and --dot - both write to stdout; send the digraph to a file"
        )
    report = load_campaign(args.file)
    if args.json:
        # The report file's own document (a checkpoint's merged shards):
        # what this prints is a file `report` reads back.
        print(dumps(report_document(report)))
    elif args.dot == "-":
        pass  # stdout carries only the digraph, pipeable into `dot -Tsvg`
    else:
        _print_report(report)
        if report.coverage is None:
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
            # With --json, stdout carries the document and nothing else.
            print(
                f"coverage digraph written to {args.dot}",
                file=sys.stderr if args.json else sys.stdout,
            )
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
    _print_report(report)
    return _exit_status(args, report)


def _cmd_worker(args: argparse.Namespace) -> int:
    from .testing.fleet import connect_worker, worker_loop

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
