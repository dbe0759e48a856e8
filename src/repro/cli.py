"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro list [--json]
    python -m repro table1
    python -m repro fig7 [--apps BFS,SAD] [--cache PATH] [--workers 4]
    python -m repro fig9a
    python -m repro storage
    python -m repro run BFS --technique regmutex [--half-rf] [--es 6]
    python -m repro profile SAD --out trace.json [--stride 64] [--csv t.csv]
    python -m repro bench [--figures fig7,fig9a] [--workers 8] [--label ci]
    python -m repro faults [--seed 7] [--skip-harness]
    python -m repro check [--smoke] [--apps BFS,SAD] [--update-golden]
    python -m repro check --faults
    python -m repro --workers 4 serve [--socket .repro.sock]
    python -m repro submit fig7 [--timeout 120] [--socket .repro.sock]
    python -m repro status [--trace service.json]

``run`` executes a single (app, technique) pair and prints the raw
record — the quickest way to poke at one configuration.  ``profile``
runs one SM with full observability attached and prints the stall/SRP
profile report; ``--out`` additionally writes a Chrome trace-event JSON
loadable at https://ui.perfetto.dev (one track per warp, scheduler, and
SRP section).  ``bench`` regenerates whole figure suites through the
orchestrator — jobs are deduplicated across figures, dispatched to
``--workers`` processes, a telemetry report (per-job timings, cache
hits/misses, worker utilization) is printed at the end, followed by a
measured-vs-paper table of every figure headline the run covers, and
the session is written to a ``BENCH_<label>.json`` perf artifact.
Performance is gated by ``benchmarks/perf_ab.py``, a same-machine A/B
of ``perfbench/`` against the base commit, not by ``bench``.

A figure command (``fig7`` … ``fig13``) runs its spec through the
orchestrator (in-process at the default ``--workers 1``) and prints the
table declared in :mod:`repro.harness.figures`.  ``--apps`` exists only
where the figure takes an app subset (``fig1``, ``fig7`` … ``fig11``).

``faults`` runs the deterministic fault-injection campaign
(:mod:`repro.faults.campaign`): every registered fault kind is armed
against its layer and the detection-rate table (injected vs detected vs
escaped) is printed; the exit code is non-zero if any fault escaped.

``check`` runs the differential execution oracle (:mod:`repro.check`):
each app is simulated under all five techniques with the sanitizer
armed and a shadow architectural executor attached, and the final
register/memory state and per-warp retired-instruction streams are
asserted equivalent modulo each technique's documented remapping.
``--update-golden`` (re)writes the golden snapshots under
``tests/check/golden/``; ``--smoke`` restricts to the three-app CI
subset; ``--faults`` instead re-runs the fault campaign with the
sanitizer armed and reports which mechanism caught each fault.

``serve`` runs the persistent simulation daemon (:mod:`repro.service`):
an asyncio front end over the shared run store that dedups
submissions three ways and streams per-job telemetry; ``submit`` sends
a figure name or a JSON job file to a running daemon and follows the
event stream (exit 1 if any job failed, matching the batch CLI);
``status`` prints the daemon's dedup/queue statistics and can export
its job-lifecycle Perfetto trace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.arch.config import GTX480
from repro.errors import InterruptedRun
from repro.harness import experiments as E
from repro.harness.figures import FIGURES, figure_diffs, summarize_figures
from repro.harness.orchestrator import Orchestrator
from repro.harness.reporting import (
    format_percent_series,
    format_table,
    format_telemetry,
    percent,
)
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import TECHNIQUE_LANES, lane_technique
from repro.sim.technique import BaselineTechnique
from repro.workloads.suite import APPLICATIONS, build_app_kernel, get_app

_EXPERIMENTS = ("fig1", "table1", *E.FIGURE_SPECS, "storage")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RegMutex (ISCA 2018) reproduction experiments",
    )
    parser.add_argument(
        "--cache", default=".bench_cache.json",
        help="simulation result cache path (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for simulation jobs (default: %(default)s)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job timeout on the worker pool (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max extra attempts after a transient worker crash "
             "(default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list available experiments and apps")
    lst.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable listing (experiments, apps, techniques) "
             "so service clients can discover valid spec names",
    )

    serve = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (graceful SIGTERM "
             "drain, shared run store, streaming telemetry)",
    )
    serve.add_argument(
        "--socket", default=".repro.sock", metavar="PATH",
        help="Unix-domain socket to listen on (default: %(default)s)",
    )
    serve.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="additionally listen on TCP (e.g. 127.0.0.1:7011)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="max concurrently active jobs before submissions get a "
             "typed queue-full rejection (default: %(default)s)",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for per-job checkpoints; with "
             "--checkpoint-interval this makes daemon kills resumable",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="CYCLES",
        help="checkpoint every N simulated cycles (0 disables)",
    )
    serve.add_argument("--seed", type=int, default=2018,
                       help="simulation seed (default: %(default)s)")

    submit = sub.add_parser(
        "submit",
        help="submit a spec to a running daemon and follow its "
             "per-job event stream",
    )
    submit.add_argument(
        "spec",
        help="a figure name (fig7, fig9a, ...) or a path to a JSON "
             "file with a {'jobs': [...]} list",
    )
    submit.add_argument(
        "--socket", default=".repro.sock", metavar="PATH",
        help="daemon socket (default: %(default)s)",
    )
    submit.add_argument(
        "--apps", default=None,
        help="comma-separated app subset (named experiments only)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job timeout override for this submission "
             "(overrides the daemon's default end-to-end)",
    )
    submit.add_argument(
        "--no-follow", action="store_true",
        help="return after the submission response without streaming "
             "job events",
    )

    status = sub.add_parser(
        "status", help="query a running daemon's job table and stats"
    )
    status.add_argument(
        "--socket", default=".repro.sock", metavar="PATH",
        help="daemon socket (default: %(default)s)",
    )
    status.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also fetch the daemon's job-lifecycle Chrome trace and "
             "write it to PATH (open at ui.perfetto.dev)",
    )
    bench = sub.add_parser(
        "bench",
        help="regenerate figure suites through the orchestrator "
             "with a telemetry report",
    )
    bench.add_argument(
        "--figures", default=None, metavar="NAMES",
        help="comma-separated figure subset (default: all of "
             + ",".join(sorted(E.FIGURE_SPECS)) + ")",
    )
    bench.add_argument(
        "--apps", default=None,
        help="comma-separated app subset, forwarded to every selected "
             "figure that takes one (fig12*/fig13 use their fixed sets)",
    )
    bench.add_argument(
        "--label", default="run", metavar="LABEL",
        help="perf-artifact label: the session is written to "
             "BENCH_<label>.json (default: %(default)s)",
    )
    bench.add_argument(
        "--artifact-dir", default=".", metavar="DIR",
        help="directory for the perf artifact (default: repo root)",
    )
    bench.add_argument(
        "--no-artifact", action="store_true",
        help="skip writing the BENCH_<label>.json perf artifact",
    )
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        if name == "fig1" or (name in E.FIGURE_SPECS and E.takes_apps(name)):
            p.add_argument(
                "--apps", default=None, help="comma-separated app subset",
            )
        p.add_argument(
            "--csv", default=None, metavar="PATH",
            help="also export the rows to a CSV file",
        )

    faults = sub.add_parser(
        "faults",
        help="run the fault-injection campaign and print the "
             "detection-rate table (exit 1 if any fault escapes)",
    )
    faults.add_argument("--seed", type=int, default=2018,
                        help="campaign seed (default: %(default)s)")
    faults.add_argument(
        "--skip-harness", action="store_true",
        help="skip the orchestrator/worker-pool scenarios "
             "(they spawn real processes and take a few seconds)",
    )
    faults.add_argument(
        "--kill-mid-run", action="store_true",
        help="also run the crash-safety probe: SIGKILL a worker at a "
             "deterministic cycle and require the retry to resume from "
             "the surviving checkpoint bit-identically "
             "(implies the harness scenarios)",
    )

    check = sub.add_parser(
        "check",
        help="differential execution oracle: prove the five techniques "
             "equivalent per app (exit 1 on any mismatch)",
    )
    check.add_argument(
        "--apps", default=None,
        help="comma-separated app subset (default: all 16 Table I apps)",
    )
    check.add_argument(
        "--smoke", action="store_true",
        help="use the three-app CI subset "
             "(ignored when --apps is given)",
    )
    check.add_argument(
        "--update-golden", action="store_true",
        help="(re)write the golden snapshots instead of comparing",
    )
    check.add_argument(
        "--golden-dir", default=None, metavar="DIR",
        help="golden snapshot directory "
             "(default: tests/check/golden)",
    )
    check.add_argument("--seed", type=int, default=2018,
                       help="oracle seed (default: %(default)s)")
    check.add_argument(
        "--faults", action="store_true",
        help="instead run the fault campaign with the sanitizer armed "
             "and report which mechanism classified each fault",
    )

    run = sub.add_parser("run", help="run one app under one technique")
    profile = sub.add_parser(
        "profile",
        help="run one SM with observability attached; print the profile "
             "report and optionally export a Perfetto trace",
    )
    for lane in (run, profile):
        lane.add_argument("app", choices=sorted(APPLICATIONS))
        lane.add_argument("--technique", choices=TECHNIQUE_LANES,
                          default="regmutex")
        lane.add_argument("--es", type=int, default=None,
                          help="force |Es| (default: Table I's split)")
        lane.add_argument("--half-rf", action="store_true",
                          help="halve the register file")
    profile.add_argument(
        "--ctas", type=int, default=None, metavar="N",
        help="total CTAs to run through the SM (default: 2 waves)",
    )
    profile.add_argument(
        "--stride", type=int, default=64, metavar="CYCLES",
        help="probe sampling stride (default: %(default)s)",
    )
    profile.add_argument("--seed", type=int, default=2018,
                         help="simulation seed (default: %(default)s)")
    profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON (open at ui.perfetto.dev)",
    )
    profile.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the sampled timelines as CSV",
    )
    profile.add_argument(
        "--issues", action="store_true",
        help="include per-issue instant events in the trace (large)",
    )
    return parser


def _apps_arg(args) -> tuple[str, ...] | None:
    if getattr(args, "apps", None):
        names = tuple(a.strip() for a in args.apps.split(","))
        for name in names:
            get_app(name)  # raises with suggestions on typos
        return names
    return None


def _cmd_list(args=None) -> int:
    if args is not None and args.as_json:
        import json

        from repro.harness.spec import technique_kinds

        print(json.dumps({
            "experiments": list(_EXPERIMENTS),
            "figures": sorted(E.FIGURE_SPECS),
            "techniques": list(technique_kinds()),
            "apps": [
                {
                    "name": spec.name,
                    "suite": spec.suite,
                    "group": spec.group,
                    "regs": spec.regs,
                    "expected_bs": spec.expected_bs,
                    "expected_es": spec.expected_es,
                }
                for spec in APPLICATIONS.values()
            ],
        }, indent=2))
        return 0
    print("experiments:", ", ".join(_EXPERIMENTS))
    print("apps:")
    for spec in APPLICATIONS.values():
        print(f"  {spec.name:<16} {spec.suite:<9} {spec.group:<18} "
              f"regs={spec.regs} |Bs|={spec.expected_bs}")
    return 0


def _lane(args):
    """(kernel, config, technique, priority) of a run/profile lane."""
    spec = get_app(args.app)
    config = GTX480.with_half_register_file() if args.half_rf else GTX480
    es = args.es if args.es is not None else spec.expected_es
    return (build_app_kernel(spec), config,
            *lane_technique(args.technique, es))


def _cmd_run(args, runner: ExperimentRunner) -> int:
    kernel, config, technique, priority = _lane(args)
    record = runner.run(kernel, config, technique, scheduler_priority=priority)
    base = runner.run(kernel, config, BaselineTechnique())
    print(format_table(
        ["field", "value"],
        [
            ["app", record.kernel_name],
            ["config", record.config_name],
            ["technique", record.technique],
            ["cycles/CTA", f"{record.cycles_per_cta:.1f}"],
            ["vs baseline", percent(record.reduction_vs(base))],
            ["occupancy", f"{record.theoretical_occupancy:.0%}"],
            ["acquire success", f"{record.acquire_success_rate:.0%}"],
            ["instructions issued", record.instructions_issued],
        ],
    ))
    return 0


def _cmd_profile(args) -> int:
    """One observed SM run: report to stdout, optional trace/CSV export."""
    from repro.observe import (
        chrome_trace_events,
        profile_kernel,
        profile_report,
        write_chrome_trace,
        write_timeline_csv,
    )

    kernel, config, technique, priority = _lane(args)
    result = profile_kernel(
        kernel, config, technique,
        total_ctas=args.ctas, stride=args.stride,
        scheduler_priority=priority, seed=args.seed,
    )
    title = (f"{result.kernel_name} / {result.technique_name} "
             f"on {config.name} ({result.total_ctas} CTAs)")
    print(profile_report(result.stats, config, samples=result.samples,
                         log=result.log, title=title))
    if result.error is not None:
        print(f"\nrun ended early: {result.error}")
    if args.out:
        events = chrome_trace_events(
            result.log, result.samples, sm_id=0, include_issues=args.issues
        )
        write_chrome_trace(args.out, events)
        print(f"(Perfetto trace written to {args.out} — "
              "open at https://ui.perfetto.dev)")
    if args.csv:
        write_timeline_csv(args.csv, result.samples)
        print(f"(timeline CSV written to {args.csv})")
    return 1 if result.error is not None else 0


def _maybe_csv(args, rows) -> None:
    path = getattr(args, "csv", None)
    if path:
        from repro.harness.export import rows_to_csv

        rows_to_csv(rows, path)
        print(f"(rows exported to {path})")


def _orchestrator(args, runner: ExperimentRunner) -> Orchestrator:
    """The one way a figure command runs its specs."""
    return Orchestrator(runner, workers=args.workers,
                        job_timeout=args.job_timeout, max_retries=args.retries)


def _cmd_bench(args, runner: ExperimentRunner) -> int:
    """Regenerate figure suites through the orchestrator + telemetry."""
    names = ([n.strip() for n in args.figures.split(",")] if args.figures
             else list(E.FIGURE_SPECS))
    apps = _apps_arg(args)
    specs = [E.figure_spec(n, apps) for n in names]  # KeyError on a typo
    orch = _orchestrator(args, runner)
    rows_by_name = orch.run_specs(specs)
    print(format_table(
        ["figure", "rows"],
        [[n, len(rows_by_name[n])] for n in names],
    ))
    print()
    print(format_telemetry(orch.telemetry))

    from repro.observe.perf import write_perf_artifact

    figures_summary = summarize_figures(rows_by_name)
    diffs = figure_diffs(figures_summary)
    if diffs:
        print("\nmeasured vs. paper")
        print(format_table(
            ["figure", "metric", "measured", "paper", "diff", "apps"],
            [[t.figure, t.metric, percent(measured), percent(t.paper),
              percent(diff), int(figures_summary[t.figure]["apps"])]
             for t, measured, diff in diffs],
        ))
    if not args.no_artifact:
        path = write_perf_artifact(
            args.label, orch.telemetry, directory=args.artifact_dir,
            figures=figures_summary,
        )
        print(f"\n(perf artifact written to {path})")

    return 0


def _cmd_serve(args) -> int:
    """Run the simulation daemon until SIGTERM/SIGINT (exit 0)."""
    import asyncio

    from repro.service.daemon import ServiceConfig, serve

    host, port = None, 0
    if args.tcp:
        host, _, port_text = args.tcp.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"--tcp expects HOST:PORT, got {args.tcp!r}")
        port = int(port_text)
    config = ServiceConfig(
        socket_path=args.socket,
        host=host,
        port=port,
        cache_path=args.cache,
        workers=max(1, args.workers),
        seed=args.seed,
        job_timeout=args.job_timeout,
        max_retries=args.retries,
        max_queue=args.max_queue,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
    )
    where = args.socket + (f" and {args.tcp}" if args.tcp else "")
    print(f"repro service listening on {where} "
          f"({config.workers} workers, cache {config.cache_path})")
    return asyncio.run(serve(config))


def _submission_jobs(args):
    """(jobs, experiment, apps) for a ``repro submit`` spec argument."""
    import json
    import os

    from repro.service.protocol import job_from_wire

    if args.spec in E.FIGURE_SPECS:
        apps = list(_apps_arg(args)) if _apps_arg(args) else None
        return None, args.spec, apps
    if args.spec.endswith(".json") or os.path.exists(args.spec):
        with open(args.spec) as fh:
            payload = json.load(fh)
        jobs_payload = (
            payload.get("jobs") if isinstance(payload, dict) else payload
        )
        if not isinstance(jobs_payload, list) or not jobs_payload:
            raise ValueError(
                f"{args.spec}: expected a {{'jobs': [...]}} object or a "
                "non-empty job array"
            )
        return [job_from_wire(j) for j in jobs_payload], None, None
    known = ", ".join(sorted(E.FIGURE_SPECS))
    raise ValueError(
        f"{args.spec!r} is neither a known figure ({known}) nor a "
        "readable JSON spec file"
    )


def _cmd_submit(args) -> int:
    """Submit to a running daemon; exit codes match the batch CLI."""
    from repro.service.client import ServiceClient

    jobs, experiment, apps = _submission_jobs(args)

    def on_event(event: dict) -> None:
        status = event.get("status", "?")
        line = f"  [{event.get('job_id')}] {event.get('label')}: {status}"
        if status == "done":
            timing = event.get("timing") or {}
            dedup = event.get("dedup")
            mode = timing.get("mode", "?")
            line += f" ({mode}"
            if dedup:
                line += f", dedup={dedup}"
            if event.get("resumed_from_cycle") is not None:
                line += f", resumed@{event['resumed_from_cycle']}"
            line += f", {timing.get('seconds', 0.0):.2f}s)"
        elif status == "failed":
            failure = event.get("failure") or {}
            line += f" ({failure.get('kind')}: {failure.get('message')})"
        print(line)

    with ServiceClient(socket_path=args.socket) as client:
        result = client.submit(
            jobs=jobs, experiment=experiment, apps=apps,
            timeout=args.timeout, follow=not args.no_follow,
            on_event=None if args.no_follow else on_event,
        )
    if not args.no_follow:
        # Jobs answered terminally in the submit response (store hits,
        # failures known up front) never stream an event — print their
        # lines from the response entries instead.
        streamed = {e.get("job_id") for e in result.events}
        for entry in result.jobs:
            if (entry["status"] in ("done", "failed")
                    and entry["job_id"] not in streamed):
                on_event(entry)
    dedup_hits = sum(
        1 for e in result.jobs if e.get("dedup") in ("store", "inflight")
    )
    if args.no_follow:
        print(f"submitted {len(result.jobs)} job(s), "
              f"{dedup_hits} dedup hit(s)")
        return 0
    failed = result.failed
    print(f"{len(result.final)} job(s) finished, {dedup_hits} dedup "
          f"hit(s), {len(failed)} failure(s)")
    return 1 if failed else 0


def _cmd_status(args) -> int:
    """Query a daemon: stats table, job table, optional Perfetto trace."""
    from repro.service.client import ServiceClient

    with ServiceClient(socket_path=args.socket) as client:
        status = client.status()
        trace = client.trace() if args.trace else None
    stats = status.get("stats", {})
    print(format_table(
        ["field", "value"],
        [
            ["uptime", f"{status.get('uptime_ms', 0) / 1000.0:.1f}s"],
            ["draining", status.get("draining")],
            ["queue depth", f"{status.get('queue_depth')}"
                            f"/{status.get('max_queue')}"],
            ["workers", status.get("workers")],
            ["submitted", stats.get("submitted")],
            ["simulations", stats.get("simulations")],
            ["dedup (store/inflight/batch)",
             f"{stats.get('dedup_store')}/{stats.get('dedup_inflight')}"
             f"/{stats.get('dedup_batch')}"],
            ["timeouts", stats.get("timeouts")],
            ["pool restarts", stats.get("pool_restarts")],
        ],
    ))
    jobs = status.get("jobs", [])
    if jobs:
        print()
        print(format_table(
            ["id", "label", "status", "dedup", "attached"],
            [[j["job_id"], j["label"], j["status"], j["dedup"] or "-",
              j["attached"]] for j in jobs],
        ))
    if args.trace:
        import json

        with open(args.trace, "w") as fh:
            json.dump(trace, fh)
        print(f"\n(Perfetto trace written to {args.trace} — "
              "open at https://ui.perfetto.dev)")
    return 0


def _cmd_faults(args) -> int:
    """Run the fault-injection campaign; exit 1 if anything escapes."""
    from repro.faults.campaign import campaign_table, run_campaign

    include_harness = not args.skip_harness or args.kill_mid_run
    outcomes = run_campaign(
        seed=args.seed,
        include_harness=include_harness,
        workers=max(2, args.workers),
        include_kill_mid_run=args.kill_mid_run,
    )
    print(campaign_table(outcomes))
    return 1 if any(o.escaped for o in outcomes) else 0


def _cmd_check(args) -> int:
    """Differential oracle / sanitized fault campaign; exit 1 on failure."""
    from repro.check.oracle import DEFAULT_GOLDEN_DIR, SMOKE_APPS, check_apps

    if args.faults:
        from repro.check.adversarial import run_adversarial_campaign
        from repro.faults.campaign import campaign_table

        outcomes = run_adversarial_campaign(
            seed=args.seed, workers=max(2, args.workers)
        )
        print(campaign_table(outcomes))
        return 1 if any(o.escaped for o in outcomes) else 0

    apps = _apps_arg(args)
    if apps is None and args.smoke:
        apps = SMOKE_APPS
    golden_dir = (
        Path(args.golden_dir) if args.golden_dir else DEFAULT_GOLDEN_DIR
    )
    results = check_apps(
        apps=apps,
        seed=args.seed,
        workers=args.workers,
        golden_dir=golden_dir,
        update_golden=args.update_golden,
    )
    rows = []
    for result in results:
        base = result.traces.get("baseline")
        verdict = "ok" if result.ok else "MISMATCH"
        if result.golden_updated:
            verdict = "golden updated"
        rows.append([
            result.app,
            len(result.traces),
            base.cycles if base else "-",
            f"{base.stream_digest:#x}" if base else "-",
            verdict,
        ])
    print(format_table(
        ["app", "techniques", "base cycles", "stream digest", "verdict"],
        rows,
    ))
    failures = [r for r in results if not r.ok]
    for result in failures:
        for line in result.equivalence_mismatches + result.golden_mismatches:
            print(f"  {result.app}: {line}")
    return 1 if failures else 0


def _cmd_experiment(name: str, args, runner: ExperimentRunner) -> int:
    apps = _apps_arg(args)
    if name == "fig1":
        rows = E.fig1_liveness_traces(apps or E.FIGURE1_APPS)
        for row in rows:
            print(format_percent_series(row.app, row.utilization_series))
    elif name == "table1":
        rows = E.table1_workloads()
        print(format_table(
            ["app", "regs", "rounded", "|Bs|", "|Es|", "sections", "heuristic"],
            [[r.app, r.regs, r.regs_rounded, r.bs, r.es, r.srp_sections,
              r.heuristic_agrees] for r in rows],
        ))
    elif name == "storage":
        rows = E.storage_rows()
        print(format_table(
            ["technique", "bits/SM"],
            [[r.technique, r.bits_per_sm] for r in rows],
        ))
    else:
        spec = E.figure_spec(name, apps)
        rows = _orchestrator(args, runner).run_specs([spec])[name]
        print(FIGURES[name].table(rows))
    _maybe_csv(args, rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "profile":
        return _cmd_profile(args)
    try:
        with ExperimentRunner(cache_path=args.cache) as runner:
            if args.command == "run":
                return _cmd_run(args, runner)
            if args.command == "bench":
                return _cmd_bench(args, runner)
            return _cmd_experiment(args.command, args, runner)
    except InterruptedRun as exc:
        # Ctrl-C mid-campaign: the orchestrator has already cancelled
        # outstanding work, and completed records are in the store, so
        # a re-run picks up where this one stopped.
        print(f"interrupted: {exc.summary()}", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
