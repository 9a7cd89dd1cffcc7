"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``run`` — one scenario with chosen attack/defense, printing the report.
- ``figure {8,9,10}`` — regenerate a simulation figure (``--jobs`` fans
  replications across processes, ``--no-cache`` skips the on-disk result
  cache).
- ``campaign`` — declarative multi-sweep batches: ``run`` executes a
  TOML/JSON campaign spec through a pluggable, supervised backend with an
  append-only completion journal (``--resume`` skips every journaled job
  and yields byte-identical aggregates; ``--timeout`` preempts hung
  workers; poison jobs are dead-lettered; SIGINT/SIGTERM flush the
  journal and exit 75), ``plan`` prints the compiled job list, ``status``
  summarises a journal, and ``doctor`` audits/repairs a damaged journal
  or result cache.
- ``matrix`` — every registered defense × every requested attack mode
  through the campaign orchestrator (one journaled, resumable campaign
  per attack; the malicious-node count co-varies with the mode),
  rendered as one markdown + JSON detection-rate / isolation-latency /
  overhead matrix report.
- ``fig6`` — the analytical coverage curves.
- ``cost`` — the section-5.2 cost table.
- ``taxonomy`` — Table 1.
- ``chaos`` — fault-injection run: guards crash mid-run under a loss
  burst; reports detection survival and false-isolation counts.
- ``bench`` — the microbenchmark suite; writes ``BENCH_*.json``.
- ``trace`` — observability tooling: ``export`` streams one run's trace
  to JSONL, ``stats`` summarises an export, ``check`` validates it
  against the schema registry and the protocol invariants.
- ``report`` — one markdown + JSON run report (summary metrics, node
  counters, detection-latency decomposition, time series, invariant
  verdict) from an existing JSONL export, or — with ``--live`` — from a
  fresh run consumed through a live trace subscription.  Both paths
  produce byte-identical JSON for the same run.

The figure and chaos commands accept ``--trace-out`` / ``--trace-strict``
/ ``--trace-ring`` to stream their traces while they run (``--trace-out``
bypasses result-cache reads so the export is always complete).

The global ``--profile`` flag wraps any command in cProfile and prints
the top cumulative hot spots afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.defenses.registry import available_defenses
from repro.experiments.parameters import ATTACK_MODES

if TYPE_CHECKING:
    from repro.experiments.scenario import ScenarioConfig
    from repro.obs.config import ObsConfig


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LITEWORP reproduction — run scenarios and regenerate the paper's figures",
    )
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print hot spots")
    parser.add_argument("--profile-top", type=int, default=20, metavar="N",
                        help="how many cumulative hot spots to print (default 20)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep_options(sub_parser: argparse.ArgumentParser) -> None:
        """Options shared by every replication-sweep command."""
        sub_parser.add_argument("--jobs", type=int, default=0, metavar="N",
                                help="worker processes for replications "
                                     "(0/1 serial, -1 one per CPU)")
        sub_parser.add_argument("--no-cache", dest="use_cache", action="store_false",
                                help="do not read or write the on-disk result cache")
        sub_parser.add_argument("--cache-dir", default=".repro-cache",
                                help="result cache directory (default .repro-cache)")
        add_trace_options(sub_parser)

    def add_trace_options(sub_parser: argparse.ArgumentParser) -> None:
        """Observability flags shared by figure/chaos/run commands."""
        sub_parser.add_argument("--trace-out", default=None, metavar="FILE",
                                help="stream every trace record to this JSONL file "
                                     "(disables result-cache reads)")
        sub_parser.add_argument("--trace-strict", action="store_true",
                                help="validate every emitted record against the "
                                     "trace schema registry (raises on mismatch)")
        sub_parser.add_argument("--trace-ring", type=int, default=None, metavar="N",
                                help="bound the in-memory trace to the newest N "
                                     "records (sinks still see everything)")

    def add_scenario_options(sub_parser: argparse.ArgumentParser) -> None:
        """One scenario's flags (``run``, ``trace export``, ``report``);
        :func:`_scenario_config` reads them back."""
        sub_parser.add_argument("--nodes", type=int, default=50)
        sub_parser.add_argument("--duration", type=float, default=240.0)
        sub_parser.add_argument("--seed", type=int, default=1)
        sub_parser.add_argument("--attack", choices=ATTACK_MODES, default="outofband")
        sub_parser.add_argument("--malicious", type=int, default=2)
        sub_parser.add_argument("--attack-start", type=float, default=40.0)
        sub_parser.add_argument("--defense", choices=("auto",) + available_defenses(),
                                default="liteworp")

    def add_campaign_options(sub_parser: argparse.ArgumentParser) -> None:
        """Flags ``campaign run`` and ``matrix`` share; :func:`_run_journaled`
        reads them back."""
        sub_parser.add_argument("--backend", choices=("inline", "process"),
                                default="inline",
                                help="execution backend (default inline)")
        sub_parser.add_argument("--jobs", type=int, default=0, metavar="N",
                                help="workers for the process backend "
                                     "(0/1 serial, -1 one per CPU)")
        sub_parser.add_argument("--resume", action="store_true",
                                help="skip every job already journaled")
        sub_parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                                help="execute at most N new jobs in all, then stop "
                                     "(exit 75; resume later with --resume)")
        sub_parser.add_argument("--retries", type=int, default=2, metavar="N",
                                help="per-job retries on worker crash (default 2)")
        sub_parser.add_argument("--timeout", type=float, default=None,
                                metavar="SECONDS",
                                help="per-job wall-clock timeout; hung workers "
                                     "are preempted (default: none)")
        sub_parser.add_argument("--no-fsync", dest="fsync", action="store_false",
                                help="skip fsync on journal/cache writes (faster, "
                                     "not crash-durable)")
        sub_parser.add_argument("--no-cache", dest="use_cache", action="store_false",
                                help="do not read or write the on-disk result cache")
        sub_parser.add_argument("--cache-dir", default=".repro-cache",
                                help="result cache directory (default .repro-cache)")
        sub_parser.add_argument("--out", default=None, metavar="FILE",
                                help="write the result JSON (campaign aggregate "
                                     "or matrix payload) to this path")
        sub_parser.add_argument("--quiet", action="store_true",
                                help="suppress per-job progress lines on stderr")

    run_p = sub.add_parser("run", help="run one scenario and print the report")
    add_scenario_options(run_p)
    run_p.add_argument("--json", dest="json_path", default=None,
                       help="also write the metric report as JSON to this path")

    def add_figure_options(sub_parser: argparse.ArgumentParser) -> None:
        """The one flag set every figure command shares.

        ``nodes``/``duration``/``runs`` default to None here; the handler
        fills per-figure defaults (see ``_FIGURE_DEFAULTS``).
        """
        sub_parser.add_argument("--nodes", type=int, default=None)
        sub_parser.add_argument("--duration", type=float, default=None)
        sub_parser.add_argument("--runs", type=int, default=None)
        sub_parser.add_argument("--seed", type=int, default=8)
        add_sweep_options(sub_parser)

    figure_p = sub.add_parser(
        "figure", help="regenerate a simulation figure from the paper"
    )
    figure_p.add_argument("number", choices=("8", "9", "10"),
                          help="which figure to regenerate")
    add_figure_options(figure_p)

    campaign_p = sub.add_parser(
        "campaign", help="resumable multi-sweep campaigns from a declarative spec"
    )
    campaign_sub = campaign_p.add_subparsers(dest="campaign_command", required=True)

    crun_p = campaign_sub.add_parser(
        "run", help="execute a TOML/JSON campaign spec (journaled, resumable)"
    )
    crun_p.add_argument("spec", help="campaign spec file (.toml or .json)")
    add_campaign_options(crun_p)
    crun_p.add_argument("--journal", default=None, metavar="FILE",
                        help="completion journal path (default: next to the "
                             "spec as <spec>.journal.jsonl)")
    crun_p.add_argument("--no-journal", dest="journaled", action="store_false",
                        help="disable the completion journal (and resume)")
    crun_p.add_argument("--no-quarantine", dest="quarantine",
                        action="store_false",
                        help="abort the campaign when a job exhausts its "
                             "retries instead of dead-lettering it")
    crun_p.add_argument("--harness-faults", default=None, metavar="FILE",
                        help="inject a harness fault plan (JSON) for chaos "
                             "testing")
    crun_p.add_argument("--fault-state", default=None, metavar="DIR",
                        help="fault firing-state directory (share between "
                             "run and resume; default <FILE>.state)")
    crun_p.add_argument("--trace-out", default=None, metavar="FILE",
                        help="stream campaign_job progress records to this JSONL file")

    cplan_p = campaign_sub.add_parser(
        "plan", help="compile a spec and print its job list without running"
    )
    cplan_p.add_argument("spec", help="campaign spec file (.toml or .json)")

    cstatus_p = campaign_sub.add_parser(
        "status", help="summarise a campaign journal"
    )
    cstatus_p.add_argument("journal", help="campaign journal (JSONL)")
    cstatus_p.add_argument("--spec", default=None,
                           help="spec file to compare against (reports "
                                "remaining jobs and digest match)")

    cdoctor_p = campaign_sub.add_parser(
        "doctor", help="audit (and repair) a campaign journal and cache"
    )
    cdoctor_p.add_argument("journal", help="campaign journal (JSONL)")
    cdoctor_p.add_argument("--repair", action="store_true",
                           help="rewrite the journal keeping healthy lines; "
                                "damaged ones move to <journal>.quarantine.jsonl")
    cdoctor_p.add_argument("--spec", default=None, metavar="FILE",
                           help="campaign spec; with --repair, drops lines "
                                "belonging to any other spec")
    cdoctor_p.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="also audit/repair this result cache directory")

    matrix_p = sub.add_parser(
        "matrix",
        help="defense × attack matrix campaign (journaled, resumable)",
    )
    matrix_p.add_argument("--name", default="matrix",
                          help="matrix name; journals are <name>-<attack>."
                               "journal.jsonl (default matrix)")
    matrix_p.add_argument("--defense", dest="defenses", action="append",
                          default=None, metavar="NAME",
                          help="defense row to include (repeatable; default: "
                               "every registered defense)")
    matrix_p.add_argument("--attack", dest="attacks", action="append",
                          choices=ATTACK_MODES, default=None,
                          help="attack column to include (repeatable; default: "
                               "outofband, highpower, relay)")
    matrix_p.add_argument("--nodes", type=int, default=30)
    matrix_p.add_argument("--duration", type=float, default=120.0)
    matrix_p.add_argument("--seed", type=int, default=1)
    matrix_p.add_argument("--attack-start", type=float, default=30.0)
    matrix_p.add_argument("--runs", type=int, default=2, metavar="N",
                          help="replications per cell (default 2)")
    add_campaign_options(matrix_p)
    matrix_p.add_argument("--journal-dir", default=".repro-matrix",
                          help="per-attack journal directory "
                               "(default .repro-matrix)")
    matrix_p.add_argument("--md", dest="md_path", default=None, metavar="FILE",
                          help="write the markdown matrix to this path "
                               "(default: print to stdout)")

    bench_p = sub.add_parser("bench", help="microbenchmark suite; writes BENCH_*.json")
    bench_mode = bench_p.add_mutually_exclusive_group()
    bench_mode.add_argument("--full", action="store_true",
                            help="paper-scale sizes (default is quick mode)")
    bench_mode.add_argument("--quick", action="store_true",
                            help="reduced sizes (the default; explicit flag for CI)")
    bench_p.add_argument("--only", action="append", default=None, metavar="NAME",
                         help="run one benchmark (repeatable): engine, channel, "
                              "identity, scale")
    bench_p.add_argument("--output-dir", default="benchmarks/output",
                         help="where BENCH_*.json files land (default benchmarks/output)")

    chaos_p = sub.add_parser(
        "chaos", help="run the wormhole scenario under fault injection"
    )
    chaos_p.add_argument("--nodes", type=int, default=60)
    chaos_p.add_argument("--duration", type=float, default=240.0)
    chaos_p.add_argument("--seed", type=int, default=1)
    chaos_p.add_argument("--crash-fraction", type=float, default=0.2,
                         help="fraction of the guard pool crashed mid-run")
    chaos_p.add_argument("--recover-fraction", type=float, default=0.0,
                         help="fraction of crashed guards that reboot")
    chaos_p.add_argument("--loss", type=float, default=0.10,
                         help="ambient loss probability during the burst")
    chaos_p.add_argument("--no-liveness", dest="liveness", action="store_false",
                         help="ablate the heartbeat failure detector")
    chaos_p.add_argument("--json", dest="json_path", default=None,
                         help="also write the robustness report as JSON to this path")
    add_trace_options(chaos_p)

    trace_p = sub.add_parser("trace", help="trace export / stats / invariant check")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    export_p = trace_sub.add_parser(
        "export", help="run one scenario, streaming its trace to JSONL"
    )
    export_p.add_argument("--out", required=True, metavar="FILE",
                          help="JSONL output path (appended; delete to restart)")
    add_scenario_options(export_p)
    export_p.add_argument("--strict", action="store_true",
                          help="schema-validate every record while emitting")
    export_p.add_argument("--ring", type=int, default=None, metavar="N",
                          help="bound in-memory residency to N records")

    stats_p = trace_sub.add_parser("stats", help="summarise a JSONL trace export")
    stats_p.add_argument("file", help="JSONL trace export to read")
    stats_p.add_argument("--json", dest="json_path", default=None,
                         help="also write the stats as JSON to this path")

    check_p = trace_sub.add_parser(
        "check", help="schema-validate and invariant-check a JSONL export"
    )
    check_p.add_argument("file", help="JSONL trace export to read")
    check_p.add_argument("--theta", type=int, default=3,
                         help="alert quorum the isolation invariant expects "
                              "(default 3, the paper's θ)")
    check_p.add_argument("--fail-on-attack", action="store_true",
                         help="exit nonzero on attack evidence too, not just "
                              "schema errors / protocol violations")

    report_p = sub.add_parser(
        "report", help="render a markdown + JSON run report from a trace"
    )
    report_p.add_argument("file", nargs="?", default=None,
                          help="JSONL trace export to report on (omit with --live)")
    report_p.add_argument("--live", action="store_true",
                          help="run a scenario and report on its live trace "
                               "instead of reading an export")
    add_scenario_options(report_p)
    report_p.add_argument("--theta", type=int, default=3,
                          help="alert quorum the analysis assumes (default 3)")
    report_p.add_argument("--step", type=float, default=None, metavar="SECONDS",
                          help="time-series resampling step "
                               "(default: horizon / 50)")
    report_p.add_argument("--out", default=None, metavar="FILE",
                          help="with --live: also export the trace to this "
                               "JSONL file while reporting")
    report_p.add_argument("--json", dest="json_path", default=None,
                          help="write the JSON payload to this path")
    report_p.add_argument("--md", dest="md_path", default=None,
                          help="write the markdown report to this path "
                               "(default: print to stdout)")

    sub.add_parser("fig6", help="analytical coverage curves (6a and 6b)")
    sub.add_parser("cost", help="section 5.2 cost table")
    sub.add_parser("taxonomy", help="Table 1: wormhole attack modes")
    return parser


class _ConfigError(Exception):
    """A config built from a command's flags is invalid; :func:`main`
    prints it as one line and exits 1."""


@contextlib.contextmanager
def _flag_config() -> Iterator[None]:
    """Wrap the construction of a config from flags: its ``ValueError``
    becomes a :class:`_ConfigError`.  Only construction is wrapped, so a
    ``ValueError`` from the run itself still surfaces as a traceback."""
    try:
        yield
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _scenario_config(args: argparse.Namespace, obs: Optional[ObsConfig] = None) -> ScenarioConfig:
    """The scenario ``add_scenario_options``' flags describe."""
    from repro.experiments.scenario import ScenarioConfig

    with _flag_config():
        return ScenarioConfig(
            n_nodes=args.nodes,
            duration=args.duration,
            seed=args.seed,
            attack_mode=args.attack,
            n_malicious=args.malicious if args.attack != "none" else 0,
            attack_start=args.attack_start,
            defense=args.defense,
            obs=obs,
        )


def _write(path_str: str, text: str, label: str, err: bool = False) -> None:
    """Write ``text`` to ``path_str`` (creating parent directories) and say
    so on stdout, or on stderr when stdout carries the command's output."""
    import pathlib

    path = pathlib.Path(path_str)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"{label} written to {path}", file=sys.stderr if err else sys.stdout)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import build_scenario

    scenario = build_scenario(_scenario_config(args))
    report = scenario.run()
    print(f"attack={args.attack} defense={args.defense} "
          f"nodes={args.nodes} duration={args.duration}s seed={args.seed}")
    print(f"malicious nodes       : {scenario.malicious_ids}")
    print(f"data originated       : {report.originated}")
    print(f"data delivered        : {report.delivered} "
          f"({100 * report.delivered / max(1, report.originated):.1f}%)")
    print(f"wormhole drops        : {report.wormhole_drops}")
    print(f"malicious routes      : {report.malicious_routes}/{report.routes_established}")
    print(f"guard detections      : {report.detections}")
    for node in sorted(report.isolation_times):
        print(f"isolated node {node:3d}     : {report.isolation_latency(node):.1f} s latency")
    if args.json_path:
        import json

        _write(args.json_path, json.dumps(report.to_dict(), indent=2) + "\n", "report")
    return 0


def _obs_from_args(args: argparse.Namespace) -> Optional[ObsConfig]:
    """Build the ObsConfig requested by --trace-* flags (None when unused)."""
    trace_out = getattr(args, "trace_out", None)
    strict = getattr(args, "trace_strict", False)
    ring = getattr(args, "trace_ring", None)
    if trace_out is None and not strict and ring is None:
        return None
    from repro.obs.config import ObsConfig

    with _flag_config():
        return ObsConfig(trace_path=trace_out, strict=strict, ring_capacity=ring)


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """jobs/cache/obs keyword arguments for the figure runners."""
    obs = _obs_from_args(args)
    cache = None
    if getattr(args, "use_cache", False):
        from repro.experiments.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    return {"jobs": args.jobs or None, "cache": cache, "obs": obs}


#: Per-figure defaults for the ``figure`` command.
_FIGURE_DEFAULTS = {
    "8": {"nodes": 100, "duration": 300.0, "runs": 1},
    "9": {"nodes": 100, "duration": 300.0, "runs": 1},
    "10": {"nodes": 60, "duration": 250.0, "runs": 2},
}


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import run_fig8, run_fig9, run_fig10
    from repro.experiments.scenario import ScenarioConfig

    number = args.number
    defaults = _FIGURE_DEFAULTS[number]
    nodes = args.nodes if args.nodes is not None else defaults["nodes"]
    duration = args.duration if args.duration is not None else defaults["duration"]
    runs = args.runs if args.runs is not None else defaults["runs"]
    with _flag_config():
        if number == "10":
            base = ScenarioConfig(n_nodes=nodes, avg_neighbors=15.0,
                                  duration=duration, seed=args.seed, attack_start=50.0)
        else:
            base = ScenarioConfig(n_nodes=nodes, duration=duration,
                                  seed=args.seed, attack_start=50.0)
    runner = {"8": run_fig8, "9": run_fig9, "10": run_fig10}[number]
    print(runner(base=base, runs=runs, **_sweep_kwargs(args)).format())
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _campaign_run,
        "plan": _campaign_plan,
        "status": _campaign_status,
        "doctor": _campaign_doctor,
    }
    return handlers[args.campaign_command](args)


def _run_journaled(args: argparse.Namespace, noun: str, runner, spec, *,
                   summary_to_stderr: bool = False, **options) -> tuple:
    """Run ``runner(spec, ...)`` — ``run_campaign`` or ``run_matrix`` —
    with the flags ``add_campaign_options`` declared, and print its summary.

    Returns ``(exit code, result)``: 1 on a :class:`CampaignError`, 75
    (EX_TEMPFAIL: partial progress, safe to resume) with the reason on
    stderr when the run is incomplete, else 0.
    """
    import signal

    from repro.experiments.campaign import CampaignError, RetryPolicy, SupervisionPolicy

    cache = None
    if args.use_cache:
        from repro.experiments.cache import ResultCache

        cache = ResultCache(args.cache_dir, fsync=args.fsync)
    progress = None
    if not args.quiet:
        from repro.obs.progress import CampaignProgress

        progress = CampaignProgress(printer=lambda line: print(line, file=sys.stderr))

    # Graceful shutdown: the first SIGINT/SIGTERM flips a flag the runner
    # polls between jobs, so the journal gets a final "interrupt" line
    # and the process exits 75 (resumable) instead of dying with a bare
    # traceback.  A second signal falls through to the default handling.
    signalled: List[int] = []

    def _handle_signal(signum: int, frame: object) -> None:
        if signalled:
            raise KeyboardInterrupt
        signalled.append(signum)
        print(f"\n{signal.Signals(signum).name} received — stopping dispatch "
              f"and flushing the journal (again to abort hard)", file=sys.stderr)

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, _handle_signal)
        except (ValueError, OSError):
            pass  # non-main thread or unsupported platform
    try:
        result = runner(
            spec,
            backend=args.backend,
            jobs=args.jobs or None,
            cache=cache,
            resume=args.resume,
            retry=RetryPolicy(retries=args.retries),
            # Only ``campaign run`` has --no-quarantine.
            supervision=SupervisionPolicy(
                timeout=args.timeout, quarantine=getattr(args, "quarantine", True)
            ),
            progress=progress,
            max_jobs=args.max_jobs,
            stop=lambda: bool(signalled),
            fsync=args.fsync,
            **options,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    print(result.format(), file=sys.stderr if summary_to_stderr else sys.stdout)
    if result.complete:
        return 0, result
    if result.interrupted == "signal":
        reason = f"{noun} interrupted by signal"
    elif result.interrupted == "torn_write":
        reason = (f"{noun} stopped by an injected torn journal write; "
                  f"run 'repro campaign doctor' before resuming")
    elif result.dead_lettered:
        reason = (f"{noun} finished with {result.dead_lettered} "
                  f"dead-lettered job(s); see the journal for tracebacks")
    else:
        reason = f"{noun} stopped after --max-jobs {args.max_jobs}"
    print(f"{reason}; {result.completed_jobs}/{result.total_jobs} jobs "
          f"journaled — rerun with --resume to finish", file=sys.stderr)
    return 75, result


def _campaign_run(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.campaign import CampaignError, load_spec, run_campaign

    try:
        spec = load_spec(args.spec)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    journal = None
    if args.journaled:
        journal = args.journal or str(
            pathlib.Path(args.spec).with_suffix(".journal.jsonl")
        )
    elif args.resume:
        print("error: --resume needs a journal (drop --no-journal)", file=sys.stderr)
        return 1

    trace = None
    if args.trace_out is not None:
        from repro.obs.sinks import JsonlSink
        from repro.sim.trace import TraceLog

        trace = TraceLog()
        trace.attach_sink(JsonlSink(args.trace_out, append=True, run=spec.name))

    harness_faults = None
    if args.harness_faults is not None:
        from repro.faults.harness import (
            HarnessFaultController,
            HarnessFaultError,
            load_harness_plan,
        )

        try:
            plan = load_harness_plan(args.harness_faults)
        except HarnessFaultError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        state_dir = args.fault_state or f"{args.harness_faults}.state"
        harness_faults = HarnessFaultController(plan, state_dir)
        print(f"chaos: {len(plan)} harness fault(s) armed "
              f"(state {state_dir})", file=sys.stderr)

    try:
        code, result = _run_journaled(
            args, "campaign", run_campaign, spec,
            journal=journal, trace=trace, harness_faults=harness_faults,
        )
    finally:
        if trace is not None:
            trace.close_sinks()
    if code == 0 and args.out:
        _write(args.out, result.to_json(), "aggregate JSON", err=True)
    return code


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignError
    from repro.experiments.matrix import (
        DEFAULT_MATRIX_ATTACKS,
        MatrixSpec,
        run_matrix,
    )
    from repro.experiments.scenario import ScenarioConfig

    try:
        with _flag_config():
            base = ScenarioConfig(
                n_nodes=args.nodes,
                duration=args.duration,
                seed=args.seed,
                attack_start=args.attack_start,
            )
        spec = MatrixSpec(
            name=args.name,
            base=base,
            defenses=tuple(args.defenses) if args.defenses else (),
            attacks=tuple(args.attacks) if args.attacks else DEFAULT_MATRIX_ATTACKS,
            runs=args.runs,
        )
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    code, result = _run_journaled(
        args, "matrix", run_matrix, spec,
        summary_to_stderr=True, journal_dir=args.journal_dir,
    )
    if code:
        return code
    markdown = result.report.to_markdown()
    if args.md_path:
        _write(args.md_path, markdown, "markdown matrix", err=True)
    else:
        print(markdown, end="")
    if args.out:
        _write(args.out, result.report.to_json(), "matrix JSON", err=True)
    return 0


def _campaign_doctor(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignError, load_spec
    from repro.experiments.doctor import (
        audit_cache,
        audit_journal,
        repair_cache,
        repair_journal,
    )

    spec_digest = None
    if args.spec is not None:
        try:
            spec_digest = load_spec(args.spec).digest()
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        problems = 0
        if args.repair:
            result = repair_journal(args.journal, spec_digest=spec_digest)
            print(result.audit.format())
            print(result.format())
        else:
            audit = audit_journal(args.journal)
            print(audit.format())
            problems += len(audit.problems)
        if args.cache_dir is not None:
            if args.repair:
                quarantined = repair_cache(args.cache_dir)
                for problem in quarantined:
                    print(f"  quarantined {problem.format()}")
                print(f"cache {args.cache_dir}: "
                      f"{len(quarantined)} entr(ies) quarantined"
                      if quarantined else
                      f"cache {args.cache_dir}: healthy")
            else:
                cache_problems = audit_cache(args.cache_dir)
                for problem in cache_problems:
                    print(f"  {problem.format()}")
                print(f"cache {args.cache_dir}: "
                      f"{len(cache_problems)} problem(s)"
                      if cache_problems else
                      f"cache {args.cache_dir}: healthy")
                problems += len(cache_problems)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if problems else 0


def _campaign_plan(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignError, compile_campaign, load_spec

    try:
        spec = load_spec(args.spec)
        jobs = compile_campaign(spec)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"campaign {spec.name}: {len(jobs)} job(s) "
          f"({len(spec.points())} point(s) x {spec.runs} run(s)), "
          f"spec {spec.digest()[:12]}")
    for job in jobs:
        print(f"  [{job.index:4d}] {job.digest[:12]}  seed={job.config.seed:<20d} "
              f"{job.label()}")
    return 0


def _campaign_status(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import (
        CampaignError,
        compile_campaign,
        load_journal,
        load_spec,
    )

    try:
        state = load_journal(args.journal, tolerate_partial=True)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec_digest = state.spec_digest[:12] if state.spec_digest else "unknown"
    print(f"journal {args.journal}: {len(state)} completed job(s), "
          f"spec {spec_digest}")
    if state.dead_letters:
        print(f"  {len(state.dead_letters)} dead-lettered job(s) "
              f"(will re-run on resume)")
    if state.interrupts:
        print(f"  {state.interrupts} recorded interrupt(s)")
    if state.partial_lines:
        print(f"warning: skipped {state.partial_lines} partial trailing line "
              f"(campaign was killed mid-append)", file=sys.stderr)
    if args.spec:
        try:
            spec = load_spec(args.spec)
            jobs = compile_campaign(spec)
        except CampaignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if state.spec_digest is not None and state.spec_digest != spec.digest():
            print(f"spec mismatch: journal records {spec_digest}, "
                  f"spec compiles to {spec.digest()[:12]}", file=sys.stderr)
            return 1
        done = sum(1 for job in jobs if job.digest in state.reports)
        print(f"spec {spec.name}: {done}/{len(jobs)} job(s) journaled, "
              f"{len(jobs) - done} remaining")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_benchmarks

    results = run_benchmarks(
        names=args.only,
        quick=not args.full,
        output_dir=args.output_dir,
    )
    for result in results:
        print(result.summary())
    print(f"BENCH_*.json written to {args.output_dir}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import ChaosConfig, run_chaos

    # The fault schedule's defaults are set for the default run length;
    # a shorter or longer run stretches them by the same factor.
    defaults = ChaosConfig()
    scale = args.duration / defaults.duration
    with _flag_config():
        config = ChaosConfig(
            n_nodes=args.nodes,
            duration=args.duration,
            seed=args.seed,
            attack_start=defaults.attack_start * scale,
            crash_fraction=args.crash_fraction,
            crash_at=defaults.crash_at * scale,
            recover_fraction=args.recover_fraction,
            downtime=defaults.downtime * scale,
            loss_probability=args.loss,
            loss_at=defaults.loss_at * scale,
            loss_duration=defaults.loss_duration * scale,
            liveness=args.liveness,
            obs=_obs_from_args(args),
        )
        config.scenario_config()  # the scenario's own checks (node count, ...)
    result = run_chaos(config)
    print(result.format())
    if args.json_path:
        import json

        _write(args.json_path, json.dumps(result.robustness.to_dict(), indent=2) + "\n", "report")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "export": _trace_export,
        "stats": _trace_stats,
        "check": _trace_check,
    }
    return handlers[args.trace_command](args)


def _trace_export(args: argparse.Namespace) -> int:
    from repro.experiments.scenario import build_scenario
    from repro.obs.config import ObsConfig

    with _flag_config():
        obs = ObsConfig(trace_path=args.out, strict=args.strict, ring_capacity=args.ring)
    scenario = build_scenario(_scenario_config(args, obs))
    scenario.run()
    print(f"exported {scenario.trace.total_emitted} records to {args.out}")
    print(f"peak resident records : {scenario.trace.peak_resident}")
    print(f"evicted (ring mode)   : {scenario.trace.dropped_records}")
    return 0


def _read_export(path_str: str) -> Optional[list]:
    """All records from a JSONL export, or None after printing a one-line
    error (missing file, empty file, mid-file corruption).

    A truncated *final* line — a sweep worker killed mid-append — is
    tolerated with a warning rather than failing the whole read.
    """
    import pathlib

    from repro.obs.sinks import ReadStats, read_jsonl

    path = pathlib.Path(path_str)
    if not path.is_file():
        print(f"error: trace export not found: {path}", file=sys.stderr)
        return None
    stats = ReadStats()
    try:
        records = list(read_jsonl(path, tolerate_partial=True, stats=stats))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if stats.partial_lines:
        print(f"warning: skipped {stats.partial_lines} partial trailing "
              f"line in {path} (truncated export)", file=sys.stderr)
    if not records:
        print(f"error: trace export is empty: {path}", file=sys.stderr)
        return None
    return records


def _trace_stats(args: argparse.Namespace) -> int:
    from collections import Counter

    records = _read_export(args.file)
    if records is None:
        return 1
    kinds: "Counter[str]" = Counter()
    runs = set()
    total = 0
    first_time = last_time = None
    for record in records:
        total += 1
        kinds[record.kind] += 1
        run = record.get("__run__")
        if run is not None:
            runs.add(run)
        if first_time is None or record.time < first_time:
            first_time = record.time
        if last_time is None or record.time > last_time:
            last_time = record.time
    print(f"records : {total}")
    print(f"runs    : {len(runs) or 1}")
    if first_time is not None:
        print(f"time    : {first_time:.3f} .. {last_time:.3f} s")
    print("kinds   :")
    for kind, count in kinds.most_common():
        print(f"  {kind:28s} {count}")
    if args.json_path:
        import json

        payload = {
            "records": total,
            "runs": len(runs) or 1,
            "first_time": first_time,
            "last_time": last_time,
            "kinds": dict(kinds),
        }
        _write(args.json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n", "stats")
    return 0


def _trace_check(args: argparse.Namespace) -> int:
    from repro.obs.invariants import check_export
    from repro.obs.schema import DEFAULT_REGISTRY

    records = _read_export(args.file)
    if records is None:
        return 1
    schema_errors = 0
    for record in records:
        fields = {k: v for k, v in record.items() if k != "__run__"}
        probe = type(record)(time=record.time, kind=record.kind, fields=fields)
        for problem in DEFAULT_REGISTRY.errors(probe):
            schema_errors += 1
            print(f"schema: t={record.time:.3f} {problem}")
    violations, runs = check_export(records, theta=args.theta)
    protocol = [v for v in violations if v.category == "protocol"]
    attack = [v for v in violations if v.category == "attack"]
    for violation in violations:
        print(f"{violation.category}: t={violation.time:.3f} "
              f"[{violation.rule}] {violation.message}")
    print(f"checked {len(records)} records across {runs} run(s): "
          f"{schema_errors} schema error(s), {len(protocol)} protocol "
          f"violation(s), {len(attack)} attack observation(s)")
    if schema_errors or protocol:
        return 1
    if args.fail_on_attack and attack:
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import ReportBuilder, build_report

    if args.live and args.file:
        print("error: pass either a trace export or --live, not both",
              file=sys.stderr)
        return 1
    if not args.live and not args.file:
        print("error: need a trace export to report on (or --live to run one)",
              file=sys.stderr)
        return 1
    if args.live:
        from repro.experiments.scenario import build_scenario

        obs = None
        if args.out is not None:
            from repro.obs.config import ObsConfig

            obs = ObsConfig(trace_path=args.out)
        scenario = build_scenario(_scenario_config(args, obs))
        builder = ReportBuilder(theta=args.theta, step=args.step)
        builder.attach(scenario.trace)
        scenario.run()
        report = builder.report()
    else:
        records = _read_export(args.file)
        if records is None:
            return 1
        report = build_report(records, theta=args.theta, step=args.step)
    markdown = report.to_markdown()
    # Status notices go to stderr: stdout may *be* the markdown report,
    # and piping it into a file must not capture bookkeeping lines.
    if args.md_path:
        _write(args.md_path, markdown, "markdown report", err=True)
    else:
        print(markdown, end="")
    if args.json_path:
        _write(args.json_path, report.to_json(), "JSON payload", err=True)
    return 0


def _cmd_fig6(_args: argparse.Namespace) -> int:
    from repro.analysis.coverage import (
        CoverageParams,
        detection_vs_neighbors,
        false_alarm_vs_neighbors,
    )

    params = CoverageParams()
    print("Figure 6(a): N_B vs P(detection)")
    for n_b, p in detection_vs_neighbors(range(4, 41, 2), params):
        print(f"  {n_b:4.0f}  {p:.4f}")
    print("Figure 6(b): N_B vs P(false alarm)")
    for n_b, p in false_alarm_vs_neighbors(range(4, 41, 2), params):
        print(f"  {n_b:4.0f}  {p:.3e}")
    return 0


def _cmd_cost(_args: argparse.Namespace) -> int:
    from repro.analysis.cost import CostModel

    report = CostModel().report()
    for name, value, unit in report.rows():
        print(f"{name:30s} {value:12.3f} {unit}")
    return 0


def _cmd_taxonomy(_args: argparse.Namespace) -> int:
    from repro.attacks.taxonomy import taxonomy_table

    for name, count, requirements in taxonomy_table():
        print(f"{name:25s} | min nodes: {count} | requires: {requirements}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "figure": _cmd_figure,
    "campaign": _cmd_campaign,
    "matrix": _cmd_matrix,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "fig6": _cmd_fig6,
    "cost": _cmd_cost,
    "taxonomy": _cmd_taxonomy,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the command.

    A reader that closes stdout early (``| head``) ends the command
    quietly with exit 1.  SIGPIPE stays ignored, so a broken worker pipe
    is an ``OSError`` the campaign supervisor handles, not a signal that
    kills the CLI.
    """
    try:
        exit_code = _run_command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush of
        # the unwritten buffer does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


def _run_command(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        if not args.profile:
            return command(args)
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        exit_code = profiler.runcall(command, args)
    except _ConfigError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 1
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative")
    print(f"\n--- cProfile: top {args.profile_top} by cumulative time ---")
    stats.print_stats(args.profile_top)
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
