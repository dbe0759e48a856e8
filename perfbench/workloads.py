"""The three benchmark workloads.

Each workload is a closed loop with one client: the next op is sent
only after the previous one completed.  A workload turns ``(seed,
seconds)`` into a fixed list of ops (``plan``), sets the program up
(``setup``, repeated so set-up time is a median), runs the ops through
the program's public functions (``run_ops``), and checks every op's
output against the committed expectations in ``expected/``.

* ``figures-cold`` — one figure job per op through
  ``Orchestrator(workers=1)`` into a run store that starts empty.
* ``service-warm`` — one figure request per op over one Unix-socket
  ``ServiceClient`` connection to a ``repro serve --workers 1`` daemon
  whose store was pre-filled from the expected table.
* ``compile-sweep`` — one generated kernel per op: parse its text,
  compile it with the heuristic |Es| and every forced |Es| of the
  Figure 10 sweep on the full and the halved register file.

See ``NOTES.md`` for why each exists and what its metrics mean.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    InRunProbe,
    group_members,
    load_expected,
    process_peak_rss_mb,
    reap_exited_children,
)
from repro.compiler.pipeline import compilation_report
from repro.harness import RunRecord
from repro.harness.spec import JobFailure
from repro.isa.printer import format_kernel
from repro.service.protocol import record_from_wire

# Reference costs that size a run's op list from ``--seconds``: host
# seconds per op measured on the reference host (2-core x86-64 VM,
# CPython 3.11, pure-Python ``event`` issue engine).  They only decide
# how many ops a run has; every reported number is measured.
REF_FIGURE_JOB_S = 2.0        # one figures-cold job
REF_COMPILE_PASS_S = 18.0     # compile-sweep over all kernel variants
REF_REQUEST_S = 0.05          # one service-warm figure request

# figures-cold draws from jobs with at most this many times the
# simulated work of the smallest (app, config) representative.
FIGURE_BAND = 1.75

# Figure 10's forced |Es| sweep (repro.harness.experiments.ES_SWEEP).
ES_SWEEP = (2, 4, 6, 8, 10, 12)
COMPILE_VARIANTS = 12         # generated kernels per Table I app


@dataclass
class OpResult:
    latency_s: float
    failed: bool = False
    mismatch: str | None = None   # set when the output is wrong


@dataclass
class PassResult:
    """One pass over a run's op list."""

    ops: list[OpResult] = field(default_factory=list)
    flush_s: float = 0.0
    records: list[dict] = field(default_factory=list)  # computed records

    @property
    def wall_s(self) -> float:
        return sum(op.latency_s for op in self.ops) + self.flush_s

    @property
    def mismatches(self) -> list[str]:
        return [op.mismatch for op in self.ops if op.mismatch]


def _python_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _timed_import(root: Path, modules: str) -> float:
    """Wall time for a fresh interpreter to import ``modules``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   env=_python_env(root), check=True)
    return time.perf_counter() - start


def figure_universe() -> dict:
    """Label -> JobSpec for the deduplicated jobs of every figure."""
    from repro.harness.experiments import FIGURE_SPECS, figure_spec
    from repro.harness.orchestrator import ordered_unique_jobs

    jobs = ordered_unique_jobs(
        job for name in FIGURE_SPECS for job in figure_spec(name).jobs
    )
    return {job.label: job for job in jobs}


def check_record(expected: dict, record) -> str | None:
    """First field where a computed or served RunRecord differs from its
    expected entry, or None."""
    if "record" not in expected:
        return f"expected {expected['error']}, got a record"
    want, got = expected["record"], dataclasses.asdict(record)
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            return (f"{name}: expected {want.get(name)!r}, "
                    f"got {got.get(name)!r}")
    return None


class Workload:
    name = ""

    def __init__(self, root: Path, tmp: Path, seed: int, seconds: int):
        self.root, self.tmp, self.seed, self.seconds = root, tmp, seed, seconds
        self._setups = 0
        self.probe = InRunProbe()

    def fresh_dir(self) -> Path:
        self._setups += 1
        path = self.tmp / f"s{self._setups}"
        path.mkdir(parents=True)
        return path

    # Subclasses implement plan(), setup() -> seconds and run_ops(ops).

    def prepare_inputs(self, ops) -> None:
        """Make the op inputs the program will be given (untimed)."""

    def reset(self) -> None:
        """Prepare a second pass over the same ops (traced runs)."""

    def teardown(self) -> None:
        """Release what setup() started."""

    def peak_rss(self) -> float | None:
        """Peak RSS of another process doing the work, if any."""
        return None

    def layer_counts(self, passed: PassResult) -> dict:
        """Per-layer counts the workload reads from the program."""
        return {}

    def context(self, passed: PassResult) -> dict:
        """Extra context for the untraced run's context line."""
        return {}


# ---------------------------------------------------------------------------
# figures-cold
# ---------------------------------------------------------------------------

class FiguresCold(Workload):
    """Cold figure jobs through the orchestrator's inline path."""

    name = "figures-cold"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expected = load_expected("figure_jobs.json")
        self.orchestrator = None

    def plan(self) -> list[str]:
        """A fixed spread of figure jobs of similar size in seeded order,
        plus one seeded pick of the jobs the expected table lists as
        failing, so the failure path runs every time.

        Each (app, config) group of successful jobs is represented by
        its median job by simulated work (instructions issued, which
        host time follows).  The run draws from the representatives
        within ``FIGURE_BAND`` of the smallest one's work: 17 of the 24,
        across 12 apps, both register files and every technique.  It
        takes ``n`` of them at evenly spaced ranks.  The seed does not
        choose the successful jobs: seeded draws of a handful of jobs
        that differ up to 8x in host time moved wall time and the
        median by 20-27% from seed to seed, more than the program
        would.  Jobs of similar size put many ops near the median, so
        the median does not jump between two jobs of different size
        when the host's speed moves a few of them.
        """
        def work(label):
            return self.expected["jobs"][label]["record"]["instructions_issued"]

        groups: dict[tuple, list[str]] = {}
        for label, entry in self.expected["jobs"].items():
            if "record" in entry:
                groups.setdefault(tuple(label.split("/")[:2]), []).append(label)
        reps = sorted(
            (sorted(g, key=lambda l: (work(l), l))[(len(g) - 1) // 2]
             for g in groups.values()),
            key=lambda l: (work(l), l))
        reps = [l for l in reps if work(l) <= FIGURE_BAND * work(reps[0])]
        n = max(1, min(len(reps), round(self.seconds / REF_FIGURE_JOB_S)))
        ops = [reps[(2 * i + 1) * len(reps) // (2 * n)] for i in range(n)]
        failing = sorted(l for l, e in self.expected["jobs"].items()
                         if "error" in e)
        rng = random.Random(self.seed)
        ops += [rng.choice(failing)] if failing else []
        rng.shuffle(ops)
        return ops

    def _open_store(self) -> None:
        from repro.harness import ExperimentRunner, Orchestrator

        store = self.fresh_dir() / "store.json"
        self.orchestrator = Orchestrator(
            ExperimentRunner(cache_path=str(store)), workers=1
        )

    def setup(self) -> float:
        start = time.perf_counter()
        _timed_import(self.root, "repro.harness")
        self.universe = figure_universe()
        self._open_store()
        return time.perf_counter() - start

    def reset(self) -> None:
        self._open_store()

    def run_ops(self, ops: list[str]) -> PassResult:
        result = PassResult()
        for label in ops:
            job = self.universe[label]
            start = time.perf_counter()
            try:
                outcome = self.orchestrator.run_jobs([job])[job]
            except Exception as exc:  # a job error escaping the orchestrator
                outcome = exc
            latency = time.perf_counter() - start
            result.ops.append(self._check(label, job, outcome, latency, result))
        start = time.perf_counter()
        self.orchestrator.runner.flush()
        result.flush_s = time.perf_counter() - start
        return result

    def _check(self, label, job, outcome, latency, result) -> OpResult:
        expected = self.expected["jobs"][label]
        if isinstance(outcome, RunRecord):
            mismatch = (check_record(expected, outcome)
                        or sim_accounting_mismatch(outcome, job.config))
            if mismatch is None:
                result.records.append(dict(dataclasses.asdict(outcome),
                                           num_sms=job.config.num_sms))
            return OpResult(latency, failed=mismatch is not None,
                            mismatch=mismatch and f"{label}: {mismatch}")
        # A job the table lists as failing must fail: either with the
        # listed exception escaping the orchestrator, or as any
        # JobFailure it reports.  The check asks whether it failed, not
        # how, so routing job errors into JobFailure stays correct.
        error = (outcome.kind if isinstance(outcome, JobFailure)
                 else type(outcome).__name__)
        mismatch = None
        if "error" not in expected:
            mismatch = f"{label}: expected a record, got {error}"
        elif not (isinstance(outcome, JobFailure)
                  or error == expected["error"]):
            mismatch = f"{label}: expected {expected['error']}, got {error}"
        return OpResult(latency, failed=True, mismatch=mismatch)

    def layer_counts(self, passed: PassResult) -> dict:
        return sim_counts(passed.records)

    def context(self, passed: PassResult) -> dict:
        """The issue-rate figures of the computed jobs (untraced)."""
        recs = passed.records
        op_time = sum(op.latency_s for op in passed.ops if not op.failed)
        if not recs or op_time <= 0:
            return {}
        cycles = sum(r["cycles"] for r in recs)
        instr = sum(r["instructions_issued"] // r["num_sms"] for r in recs)
        return {"sim_cycles_per_s": cycles / op_time,
                "sim_instr_per_s": instr / op_time,
                "computed_jobs": len(recs)}


def sim_accounting_mismatch(record, config) -> str | None:
    """The runner's grid must split evenly over the SMs (so one SM is
    simulated and stands for all), and that SM cannot issue more than
    its schedulers' width per cycle."""
    if record.ctas_total % config.num_sms:
        return (f"{record.ctas_total} CTAs do not split evenly over "
                f"{config.num_sms} SMs")
    width = config.num_schedulers * config.issue_width_per_scheduler
    per_sm = record.instructions_issued // config.num_sms
    if per_sm > width * record.cycles:
        return (f"{per_sm} instructions in {record.cycles} cycles exceeds "
                f"the issue width {width}")
    return None


def sim_counts(records: list[dict]) -> dict:
    """Modelled-design counts of the computed jobs, as their records
    report them (exact: a speed-only change must leave them equal)."""
    attempts = sum(r["acquire_attempts"] for r in records)
    successes = sum(r["acquire_successes"] for r in records)
    return {
        "sim.stall_memory": sum(r["stall_memory"] for r in records),
        "sim.stall_acquire": sum(r["stall_acquire"] for r in records),
        "sim.acquire_success_ratio": successes / attempts if attempts else 1.0,
    }


# ---------------------------------------------------------------------------
# service-warm
# ---------------------------------------------------------------------------

class _InProcessDaemon:
    """A SimulationService on its own event loop in a thread, so a traced
    pass can wrap the daemon's calls into the layers below it."""

    def __init__(self, config) -> None:
        self.config = config
        self.service = None
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(self._on_loop_error)
        self.loop_errors: dict[str, int] = {}
        self._stop = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(60) or self._error is not None:
            raise RuntimeError(f"in-process daemon failed: {self._error}")

    def _main(self) -> None:
        from repro.service import SimulationService

        async def body():
            self._stop = asyncio.Event()
            self.service = SimulationService(self.config)
            await self.service.start()
            await self.service.start_servers()
            self._ready.set()
            await self._stop.wait()
            await self.service.aclose()

        try:
            self._loop.run_until_complete(body())
        except BaseException as exc:
            self._error = exc
            self._ready.set()
        finally:
            self._loop.close()

    def _on_loop_error(self, loop, context) -> None:
        """Count the daemon's unhandled task errors instead of printing a
        traceback for each: every dispatch of a known-failing job leaves
        one (NOTES.md, finding 2)."""
        exc = context.get("exception")
        name = type(exc).__name__ if exc is not None else context["message"]
        self.loop_errors[name] = self.loop_errors.get(name, 0) + 1

    def stop(self) -> None:
        """Drain the service, then wait for its pool's worker processes
        (its shutdown does not join them)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(60)
        for child in multiprocessing.active_children():
            child.join(60)
        self.service = None
        gc.collect()  # finalises the failed tasks, which reports them
        if self.loop_errors:
            print(f"perfbench: in-process daemon left unhandled task errors "
                  f"{self.loop_errors}", file=sys.stderr)


class ServiceWarm(Workload):
    """Warm figure requests against a daemon with a pre-filled store."""

    name = "service-warm"

    def __init__(self, *args, in_process: bool = False) -> None:
        super().__init__(*args)
        self.expected = load_expected("figure_jobs.json")
        self.in_process = in_process
        self.proc = None
        self.daemon = None
        self.client = None

    def plan(self) -> list[tuple[str, tuple[str, ...] | None]]:
        """Blocks of one request per figure in seeded order; a figure
        that takes an app subset gets a seeded non-empty one."""
        figures = self.expected["figures"]
        names = sorted(figures)
        blocks = max(1, round(self.seconds / REF_REQUEST_S / len(names)))
        rng = random.Random(self.seed)
        ops = []
        for _ in range(blocks):
            order = names[:]
            rng.shuffle(order)
            for name in order:
                apps = None
                if figures[name]["apps_param"]:
                    pool = list(dict.fromkeys(a for a, _ in figures[name]["jobs"]))
                    chosen = set(rng.sample(pool, rng.randint(1, len(pool))))
                    apps = tuple(a for a in pool if a in chosen)
                ops.append((name, apps))
        return ops

    def _fill_store(self, store: Path) -> None:
        """Install every expected record, then flush: the store a warm
        daemon answers from.  Failed jobs are not stored."""
        from repro.harness import ExperimentRunner
        from repro.harness.spec import materialize_job

        runner = ExperimentRunner(cache_path=str(store))
        for label, entry in self.expected["jobs"].items():
            if "record" not in entry:
                continue
            job = self.universe[label]
            kernel, technique, _ = materialize_job(job)
            runner.install(runner.key_for(kernel, job.config, technique),
                           RunRecord(**entry["record"]))
        runner.flush()

    def setup(self) -> float:
        from repro.service import ServiceConfig

        start = time.perf_counter()
        self.universe = figure_universe()
        if set(self.universe) != set(self.expected["jobs"]):
            raise RuntimeError("figure job universe differs from the "
                               "expected table; regenerate it")
        workdir = self.fresh_dir()
        store, sock = workdir / "store.json", workdir / "d.sock"
        self._fill_store(store)
        # Relative paths keep the socket path short whatever the
        # checkout's location; the daemon runs in the checkout root.
        rel_store = os.path.relpath(store, self.root)
        rel_sock = os.path.relpath(sock, self.root)
        if self.in_process:
            self.daemon = _InProcessDaemon(ServiceConfig(
                socket_path=rel_sock, cache_path=rel_store, workers=1))
        else:
            self.log = open(workdir / "daemon.log", "w")
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--cache", rel_store,
                 "--workers", "1", "serve", "--socket", rel_sock],
                cwd=self.root, env=_python_env(self.root),
                stdout=self.log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.client = self._connect(rel_sock)
        return time.perf_counter() - start

    def _connect(self, sock: str):
        from repro.errors import ServiceUnavailableError
        from repro.service import ServiceClient

        deadline = time.monotonic() + 60
        while True:
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            try:
                client = ServiceClient(socket_path=sock, io_timeout=60)
                client.connect()
                client.ping()
                return client
            except ServiceUnavailableError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def run_ops(self, ops) -> PassResult:
        result = PassResult()
        for figure, apps in ops:
            start = time.perf_counter()
            response = self.client.submit(
                experiment=figure, apps=list(apps) if apps else None,
                follow=False,
            )
            latency = time.perf_counter() - start
            result.ops.append(self._check(figure, apps, response, latency))
        return result

    def _check(self, figure, apps, response, latency) -> OpResult:
        """Every job of the request must come back in declared order; a
        job with an expected record must be served from the store with
        exactly that record.  A job the expected table says fails is
        dispatched to the pool (failures are not stored) and leaves the
        request incomplete: a failed op."""
        wanted = list(dict.fromkeys(
            label for app, label in self.expected["figures"][figure]["jobs"]
            if apps is None or app in apps
        ))
        got = [entry["label"] for entry in response.jobs]
        if got != wanted:
            return OpResult(latency, True,
                            f"{figure}{apps}: jobs {got} != expected {wanted}")
        failed = False
        for entry in response.jobs:
            expected = self.expected["jobs"][entry["label"]]
            if "record" not in expected:
                failed = True
                if entry["status"] == "done":
                    return OpResult(latency, True,
                                    f"{entry['label']}: expected "
                                    f"{expected['error']}, got a record")
                continue
            if entry["status"] != "done" or entry.get("dedup") != "store":
                return OpResult(latency, True,
                                f"{entry['label']}: not served from the "
                                f"store ({entry['status']})")
            mismatch = check_record(expected, record_from_wire(entry["record"]))
            if mismatch:
                return OpResult(latency, True, f"{entry['label']}: {mismatch}")
        return OpResult(latency, failed)

    def peak_rss(self) -> float | None:
        """The daemon's peak RSS: it does the work of this workload."""
        if self.proc is not None:
            return process_peak_rss_mb(self.proc.pid)
        return None

    def reset(self) -> None:
        """Count daemon work from here on (the traced pass only)."""
        self._stats_before = dict(self.daemon.service.stats)

    def layer_counts(self, passed: PassResult) -> dict:
        before = getattr(self, "_stats_before", {})
        return service_counts({k: v - before.get(k, 0)
                               for k, v in self.daemon.service.stats.items()})

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self.proc is not None:
            stop_process_group(self.proc)
            self.proc = None
            self.log.close()


def service_counts(stats: dict) -> dict:
    """Per-layer counts from the daemon's ``stats`` counters."""
    return {
        "service.dedup_store": stats.get("dedup_store", 0),
        "service.dedup_batch": stats.get("dedup_batch", 0),
        "service.simulations": stats.get("simulations", 0),
        # Jobs neither answered by the store nor attached to an
        # in-flight twin went to the worker pool.
        "service.pool_dispatches": stats.get("submitted", 0)
        - stats.get("dedup_store", 0) - stats.get("dedup_inflight", 0),
    }


def stop_process_group(proc, grace: float = 30.0) -> None:
    """Stop a session leader and everything it started, and wait until
    none of them exists.  SIGTERM lets the daemon drain and exit, and its
    pool workers and multiprocessing helper exit after it; whatever is
    still there after ``grace`` seconds is killed.  The helpers it
    orphans are reparented to this process (``become_subreaper``) and
    reaped here, so none is left behind, not even as a zombie."""
    try:
        proc.send_signal(signal.SIGTERM)
        proc.wait(grace)
    except subprocess.TimeoutExpired:
        pass
    killed = False
    deadline = time.monotonic() + grace
    while True:
        reap_exited_children()
        if proc.poll() is not None and not group_members(proc.pid):
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"process group {proc.pid} outlived SIGKILL")
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed, deadline = True, time.monotonic() + grace
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# compile-sweep
# ---------------------------------------------------------------------------

def variant_shape(app, index: int):
    """A generator shape jittered around a Table I app's knobs: seeded
    pressure levels and phase lengths, a divergent inner phase for
    about 30% of variants, scrambled register indices for about 30%."""
    from repro.workloads.generator import KernelShape, PressurePhase

    rng = random.Random(f"{app.name}/{index}")
    high = rng.randint(max(3, app.high_pressure - 3), app.high_pressure)
    low = rng.randint(max(2, app.low_pressure - 2),
                      min(high - 1, app.low_pressure + 2))

    def jitter(n: int) -> int:
        return max(4, round(n * rng.uniform(0.8, 1.2)))

    phases = (
        PressurePhase(low, jitter(app.prologue_len), mem_ratio=app.mem_ratio,
                      barrier_after=app.has_barrier),
        PressurePhase(high, jitter(app.inner_len),
                      mem_ratio=app.inner_mem_ratio, sfu_ratio=app.sfu_ratio,
                      divergent=0.5 if rng.random() < 0.3 else 0.0),
        PressurePhase(low, jitter(app.epilogue_len), mem_ratio=app.mem_ratio),
    )
    return KernelShape(
        name=f"{app.name}_v{index:02d}",
        phases=phases,
        regs_per_thread=app.regs,
        threads_per_cta=app.threads_per_cta,
        shared_mem_per_cta=app.shared_mem_per_cta,
        outer_trips=max(0, app.outer_trips + rng.randint(-2, 2)),
        scramble_indices=rng.random() < 0.3,
        seed=rng.randrange(1, 1 << 30),
    )


def kernel_text(name: str) -> str:
    from repro.workloads.generator import generate_kernel
    from repro.workloads.suite import get_app

    app, _, index = name.rpartition("_v")
    return format_kernel(generate_kernel(variant_shape(get_app(app), int(index))))


def compile_sweep(text: str) -> list:
    """One op: parse, then compile under the heuristic and each forced
    |Es| below the kernel's register count, on the full and the halved
    register file, with the resulting occupancy.  Returns one
    ``(config, es, compiled kernel, occupancy)`` or ``(config, es,
    exception)`` per compile; checking happens outside the timed op."""
    from repro.arch.config import GTX480, GTX480_HALF_RF
    from repro.arch.occupancy import round_regs_to_granularity
    from repro.compiler import pipeline
    from repro.isa import parser
    from repro.regmutex.issue_logic import RegMutexTechnique

    kernel = parser.parse_kernel(text)
    out = []
    for config in (GTX480, GTX480_HALF_RF):
        rounded = round_regs_to_granularity(
            kernel.metadata.regs_per_thread,
            config.register_allocation_granularity)
        for es in (None,) + tuple(e for e in ES_SWEEP if e < rounded):
            try:
                compiled = pipeline.regmutex_compile(kernel, config, forced_es=es)
            except ValueError as exc:  # CompactionError and kin
                out.append((config.name, es, exc))
                continue
            occupancy = RegMutexTechnique(extended_set_size=es).occupancy(
                compiled, config)
            out.append((config.name, es, compiled, occupancy))
    return out


def summarize_sweep(results) -> dict:
    """The checked output of one op, per config: ``[forced es, |Bs|,
    |Es|, acquires, releases, CTAs/SM, sha256(format_kernel)[:12]]`` per
    compile, or ``[forced es, error class]`` when it raised."""
    out: dict[str, list] = {}
    for item in results:
        rows = out.setdefault(item[0], [])
        if len(item) == 3:
            rows.append([item[1], type(item[2]).__name__])
            continue
        compiled, occupancy = item[2], item[3]
        md, report = compiled.metadata, compilation_report(compiled)
        digest = hashlib.sha256(format_kernel(compiled).encode()).hexdigest()
        rows.append([item[1], md.base_set_size, md.extended_set_size,
                     report.acquire_count, report.release_count,
                     occupancy.ctas_per_sm, digest[:12]])
    return out


class CompileSweep(Workload):
    """The bring-your-own-kernel / |Es|-sweep compile flow, no simulation."""

    name = "compile-sweep"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expected = load_expected("compile_sweep.json")["kernels"]

    def plan(self) -> list[str]:
        """The first ``k`` variants of every app, in seeded order, with
        ``k`` sized from ``--seconds`` (all 12 at 20 s).

        Drawing a seeded subset of variants moved the median and the
        peak RSS with the draw (the largest kernels set both), so every
        run of a given length compiles the same kernels and the seed
        sets their order."""
        k = max(1, min(COMPILE_VARIANTS, round(
            COMPILE_VARIANTS * self.seconds / REF_COMPILE_PASS_S)))
        ops = sorted(name for name in self.expected
                     if int(name.rpartition("_v")[2]) < k)
        random.Random(self.seed).shuffle(ops)
        return ops

    def setup(self) -> float:
        start = time.perf_counter()
        _timed_import(self.root, "repro.isa, repro.compiler, repro.regmutex")
        return time.perf_counter() - start

    def prepare_inputs(self, ops) -> None:
        """Generate the kernel texts (benchmark input, not program work)."""
        self.texts = {name: kernel_text(name) for name in set(ops)}

    def run_ops(self, ops) -> PassResult:
        result = PassResult()
        for name in ops:
            start = time.perf_counter()
            sweep = compile_sweep(self.texts[name])
            latency = time.perf_counter() - start
            rows = summarize_sweep(sweep)
            mismatch = None
            if rows != self.expected[name]:
                mismatch = f"{name}: {rows} != expected {self.expected[name]}"
            result.ops.append(OpResult(latency, mismatch is not None, mismatch))
        return result


WORKLOADS = {cls.name: cls for cls in (FiguresCold, ServiceWarm, CompileSweep)}
