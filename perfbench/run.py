"""RegMutex reproduction benchmark.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout of this repository (it imports the
program from ``src/``).  ``--seconds`` sizes the seeded op list to take
about that long on the reference host; ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs the op list twice, untraced and
then with layer spans, and prints the per-layer metrics plus the
tracing overhead.  End-to-end op times are scaled to the reference host
speed by probe loops sampled during the run (``common.InRunProbe``).
Before the result it prints one ``context:`` line (engine, measured
times and the speed factor, host-speed probe before/after, op and
sample counts, latency tail).  The last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every op's output is checked against ``perfbench/expected/``; see
``perfbench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

from common import (
    become_subreaper,
    engine_context,
    host_probe,
    median,
    peak_rss_mb,
    percentile,
    stop_children,
    stop_resource_tracker,
    tail,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), in
    the order ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="RegMutex benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("figures-cold", "service-warm",
                                 "compile-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def install_trace_points(tracer) -> None:
    """Wrap the public entry points of every layer the workloads cross."""
    from repro.compiler import (
        acquire_release, compaction, es_selection, pipeline, regions,
        verification,
    )
    from repro.harness.orchestrator import Orchestrator
    from repro.harness.runner import ExperimentRunner
    from repro.isa.parser import parse_kernel
    from repro.isa.printer import format_kernel
    from repro.liveness.liveness import analyze_liveness
    from repro.service import ServiceClient, SimulationService
    from repro.sim.gpu import Gpu
    from repro.sim.sm import StreamingMultiprocessor
    from repro.workloads.suite import build_app_kernel

    for function, name in (
        (build_app_kernel, "workloads.build"),
        (format_kernel, "isa.format"),
        (parse_kernel, "isa.parse"),
        (pipeline.regmutex_compile, "compiler.compile"),
        (analyze_liveness, "liveness.analyze"),
        (es_selection.select_extended_set_size, "compiler.es_selection"),
        (regions.find_acquire_regions, "compiler.regions"),
        (acquire_release.inject_primitives, "compiler.inject"),
        (compaction.compact_register_indices, "compiler.compaction"),
        (compaction.verify_compact, "compiler.verify"),
        (verification.assert_regmutex_safe, "compiler.verify"),
    ):
        tracer.wrap_function(function, name)

    def store_open(args, kwargs):
        # Only runners backed by a store file load anything.
        path = kwargs.get("cache_path", args[3] if len(args) > 3 else None)
        return "runner.open" if path else None

    wrap = tracer.wrap_method
    wrap(Orchestrator, "run_jobs", "orchestrator.run_jobs")
    wrap(ExperimentRunner, "__init__", store_open)
    wrap(ExperimentRunner, "key_for", "runner.key")
    wrap(ExperimentRunner, "cached", "runner.lookup",
         note=lambda args, result: {"hit": result is not None})
    wrap(ExperimentRunner, "install", "runner.install")
    wrap(ExperimentRunner, "flush", "runner.flush")
    wrap(ExperimentRunner, "run", "runner.run")
    wrap(Gpu, "launch", "sim.launch")
    wrap(StreamingMultiprocessor, "run", "sim.sm_run",
         note=lambda args, stats: {"cycles": stats.cycles,
                                   "instructions": stats.instructions_issued})
    wrap(ServiceClient, "submit", "service.request")
    wrap(SimulationService, "submit", "service.daemon")


def layer_metrics(spans, setup_spans) -> dict:
    """Per-layer metrics from a traced pass (and the traced set-up)."""
    from tracing import layer_totals

    totals = layer_totals(spans)
    setup_totals = layer_totals(setup_spans)

    def total(name, source=totals):
        return source[name].total_s if name in source else 0.0

    def own(name):
        return totals[name].self_s if name in totals else 0.0

    def count(name):
        return totals[name].count if name in totals else 0

    lookups = [s for s in spans if s.name == "runner.lookup"]
    hits = sum(1 for s in lookups if s.attrs.get("hit"))
    sm_runs = [s for s in spans if s.name == "sim.sm_run" and not s.error]
    cycles = sum(s.attrs["cycles"] for s in sm_runs)
    instructions = sum(s.attrs["instructions"] for s in sm_runs)
    sm_run_s = total("sim.sm_run")
    request_s, daemon_s = total("service.request"), total("service.daemon")
    return {
        "sim.launch_s": total("sim.launch"),
        "sim.sm_run_s": sm_run_s,
        "sim.sm_setup_s": own("sim.launch"),
        "sim.sms_simulated": count("sim.sm_run"),
        "sim.cycles": cycles,
        "sim.instructions": instructions,
        "sim.cycles_per_host_s": cycles / sm_run_s if sm_run_s else 0.0,
        "sim.instr_per_host_s": instructions / sm_run_s if sm_run_s else 0.0,
        "compiler.compile_s": total("compiler.compile"),
        "compiler.calls": count("compiler.compile"),
        "compiler.failures": totals["compiler.compile"].errors
        if "compiler.compile" in totals else 0,
        "compiler.es_selection_s": total("compiler.es_selection"),
        "compiler.regions_s": total("compiler.regions"),
        "compiler.inject_s": total("compiler.inject"),
        "compiler.compaction_s": total("compiler.compaction"),
        "compiler.verify_s": total("compiler.verify"),
        "liveness.analyze_s": total("liveness.analyze"),
        "workloads.build_s": total("workloads.build"),
        "workloads.builds": count("workloads.build"),
        "isa.format_s": total("isa.format"),
        "isa.parse_s": total("isa.parse"),
        "runner.key_s": own("runner.key"),
        "runner.lookup_s": total("runner.lookup"),
        "runner.store_load_s": total("runner.open", setup_totals),
        "runner.journal_appends": count("runner.install"),
        "runner.record_write_s": total("runner.install"),
        "runner.flush_s": total("runner.flush"),
        "runner.store_hits": hits,
        "runner.store_misses": len(lookups) - hits,
        "runner.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "orchestrator.overhead_s": own("orchestrator.run_jobs"),
        "service.request_s": request_s,
        "service.daemon_s": daemon_s,
        "service.client_protocol_s": request_s - daemon_s,
        "trace.spans": len(spans),
    }


def span_accounting_error(spans, records) -> str | None:
    """Span-measured SM cycles/instructions must equal the records'
    per-simulated-SM figures (one SM per job: equal CTA counts)."""
    sm_runs = [s for s in spans if s.name == "sim.sm_run" and not s.error]
    if len(sm_runs) != len(records):
        return f"{len(sm_runs)} SMs simulated for {len(records)} computed jobs"
    cycles = sum(s.attrs["cycles"] for s in sm_runs)
    instructions = sum(s.attrs["instructions"] for s in sm_runs)
    want_cycles = sum(r["cycles"] for r in records)
    want_instr = sum(r["instructions_issued"] // r["num_sms"] for r in records)
    if (cycles, instructions) != (want_cycles, want_instr):
        return (f"simulated SMs ran {cycles} cycles / {instructions} "
                f"instructions; records say {want_cycles} / {want_instr}")
    return None


def end_to_end(workload, ops, setups):
    """The untraced run: end-to-end metrics, their context, the pass,
    and problems found beyond per-op mismatches (none here).

    Op times are reported at the reference host speed: each is scaled
    by the run's probe ``speed_factor``, and the measured values are in
    the context line.  Set-up time is reported as measured: it is
    mostly process start and imports, which do not follow the probe."""
    passed = workload.run_ops(ops)
    latencies = [math.inf if op.failed else op.latency_s for op in passed.ops]
    measured = {
        "wall_s": passed.wall_s,
        "op_latency_p50_s": percentile(latencies, 50),
    }
    factor = workload.probe.speed_factor()
    metrics = {name: value * factor for name, value in measured.items()}
    metrics["setup_s"] = median(setups)
    metrics["ops_per_s"] = len(passed.ops) / metrics["wall_s"]
    metrics["peak_rss_mb"] = workload.peak_rss() or peak_rss_mb()
    if not all(math.isfinite(v) and v > 0 for v in metrics.values()):
        raise RuntimeError(f"unreportable metrics: {metrics}")
    point = tail(latencies)
    context = {
        "measured": measured,
        "speed_factor": factor,
        "latency_tail": (
            {"percentile": point[0],
             "value_s": point[1] if math.isfinite(point[1]) else "a failed op",
             "samples": len(latencies)}
            if point else
            f"none: {len(latencies)} samples leave fewer than 10 beyond "
            "any percentile"),
        "setup_samples_s": setups,
        "host_probe_in_run": workload.probe.summary(),
        **workload.context(passed),
    }
    declared = declared_metrics("end_to_end")
    if set(metrics) != set(declared):
        raise RuntimeError(f"computed {sorted(metrics)}, BENCHMARK.json "
                           f"declares {sorted(declared)}")
    out = {k: {"value": metrics[k], "unit": unit}
           for k, unit in declared.items()}
    return out, context, passed, []


def traced(workload, ops, setup_spans, trace_path):
    """An untraced pass, then a traced pass over the same ops: per-layer
    metrics, with the tracing overhead as their difference.  Returns
    like ``end_to_end``; the untraced pass's mismatches count too."""
    from tracing import Tracer
    from workloads import service_counts, sim_counts

    untraced = workload.run_ops(ops)
    workload.reset()
    tracer = Tracer()
    install_trace_points(tracer)
    tracer.start()
    try:
        passed = workload.run_ops(ops)
    finally:
        tracer.stop()
    tracer.write(trace_path)
    # A layer count the workload does not read stays 0.
    values = dict.fromkeys({**sim_counts([]), **service_counts({})}, 0)
    values.update(layer_metrics(tracer.spans, setup_spans))
    values.update(workload.layer_counts(passed))
    values["trace.overhead_s"] = passed.wall_s - untraced.wall_s
    declared = declared_metrics("per_layer")
    if set(values) != set(declared):
        raise RuntimeError(f"computed per-layer metrics {sorted(values)}, "
                           f"BENCHMARK.json declares {sorted(declared)}")
    problems = untraced.mismatches
    if passed.records:
        error = span_accounting_error(tracer.spans, passed.records)
        if error:
            problems.append(error)
    context = {"untraced_wall_s": untraced.wall_s,
               "traced_wall_s": passed.wall_s}
    out = {k: {"value": values[k], "unit": unit}
           for k, unit in declared.items()}
    return out, context, passed, problems


def run(args, tmp: Path) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import WORKLOADS, ServiceWarm

    cls = WORKLOADS[args.workload]
    # A traced service run hosts the daemon in this process so its calls
    # into the layers below can be wrapped.
    extra = {"in_process": True} if args.trace and cls is ServiceWarm else {}
    workload = cls(ROOT, tmp, args.seed, args.seconds, **extra)
    ops = workload.plan()
    workload.prepare_inputs(ops)
    setups: list[float] = []
    # The last set-up is traced, for the store-loading time it contains.
    setup_tracer = Tracer()
    workload.probe.start()
    try:
        for i in range(SETUP_REPEATS):
            if i:
                workload.teardown()
            if args.trace and i == SETUP_REPEATS - 1:
                install_trace_points(setup_tracer)
                setup_tracer.start()
            try:
                setups.append(workload.setup())
            finally:
                setup_tracer.stop()
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            out, context, passed, problems = traced(
                workload, ops, setup_tracer.spans,
                out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            out, context, passed, problems = end_to_end(workload, ops, setups)
    finally:
        workload.probe.stop()
        workload.teardown()
    problems += passed.mismatches
    failed = sum(op.failed for op in passed.ops)
    context.update(engine_context())
    context.update(workload=args.workload, seed=args.seed, ops=len(ops),
                   failed_ops=failed, mismatches=problems[:5])
    result = {"correct": not problems, "attempted": len(passed.ops),
              "failed": failed, "metrics": out}
    return result, context


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / str(os.getpid())
    tmp.mkdir(parents=True)
    # Every process the run starts, and every one those leave behind,
    # ends and is reaped before this process exits.
    become_subreaper()
    probe_before = host_probe()
    try:
        result, context = run(args, tmp)
    finally:
        stop_resource_tracker()
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    context["host_probe_s"] = [probe_before, host_probe()]
    print("context: " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
