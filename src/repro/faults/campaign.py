"""Deterministic fault-injection campaign (``repro faults``).

Arms every registered fault kind (:mod:`repro.faults.injector`) against
the layer that must catch it, and reports injected vs detected vs
escaped:

* SRP/compiler faults run a small contended RegMutex workload on a
  1-SM device and must be caught by the simulator's failure detectors —
  the no-timer deadlock check, the progress watchdog, or the sanitizer's
  per-cycle structural check — with a structured diagnostic, well
  before the hard cycle limit.
* Harness faults run real jobs through the :class:`Orchestrator` and
  must be absorbed (transient crash → retried to success) or attributed
  (deterministic error → typed :class:`JobFailure`, hang → timeout).
* Cache faults damage a real on-disk run store and must be caught by
  the runner's per-line validation (the damaged line quarantined, every
  intact line kept) without poisoning results.

Everything is a pure function of ``seed``: injection sites are event
ordinals, the simulator is deterministic, and worker retry outcomes are
forced by marker files — so a campaign run is reproducible evidence,
not a flaky smoke test.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

from repro.arch.config import GpuConfig, fermi_like
from repro.errors import (
    CycleLimitExceededError,
    DeadlockDiagnostic,
    SanitizerError,
    SimulationDeadlockError,
    SimulationError,
)
from repro.faults.injector import (
    FaultSpec,
    FaultingRegMutexTechnique,
    corrupt_cache_file,
    corrupt_checkpoint_file,
)
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import JobFailure, JobSpec, TechniqueSpec
from repro.isa.builder import KernelBuilder
from repro.isa.kernel import Kernel
from repro.sim.gpu import Gpu
from repro.sim.technique import BaselineTechnique

# Campaign-wide detection deadline: a deadlock-class fault must be
# caught far below this, or it counts as escaped.  Well under the
# production 50M-cycle backstop so an escape costs milliseconds, and
# comfortably above the watchdog window so the watchdog gets its shot.
DETECTION_DEADLINE_CYCLES = 100_000

# One tiny SM with real contention: 4 CTAs x 2 warps fill all 8 slots.
CAMPAIGN_CONFIG = fermi_like(
    name="fault-campaign",
    num_sms=1,
    max_warps_per_sm=8,
    max_ctas_per_sm=4,
    max_threads_per_sm=512,
    registers_per_sm=2048,
    dram_latency=60,
    l1_hit_latency=8,
)

# The campaign config with the sanitizer armed: ``repro check --faults``
# runs every simulator scenario on it, the plain campaign its SRP
# bit-flip scenario.
SANITIZED_CONFIG = dataclasses.replace(CAMPAIGN_CONFIG, sanitizer=True)

# Small device for the harness-level jobs (real workload apps).
HARNESS_CONFIG = fermi_like(
    name="fault-harness",
    num_sms=1,
    max_warps_per_sm=16,
    max_ctas_per_sm=4,
    max_threads_per_sm=512,
    registers_per_sm=8192,
    dram_latency=60,
    l1_hit_latency=8,
)


@dataclass(frozen=True)
class FaultOutcome:
    """One campaign row: what was injected and who (if anyone) caught it."""

    scenario: str
    fault: str
    layer: str
    detected: bool
    detector: str       # which mechanism caught it ("" when escaped)
    cycles: int | None  # detection cycle for simulator faults
    detail: str

    @property
    def escaped(self) -> bool:
        return not self.detected


def detection_rate(outcomes: list[FaultOutcome]) -> float:
    if not outcomes:
        return 1.0
    return sum(1 for o in outcomes if o.detected) / len(outcomes)


# -- simulator-layer scenarios -----------------------------------------------------
def _probe_kernel(
    hold_across_barrier: bool = False, contract_clean: bool = False
) -> Kernel:
    """A pre-instrumented acquire/work/release kernel (|Bs|=|Es|=4).

    ``hold_across_barrier`` places a barrier after the release; the
    unbalanced-acquire transform then strips the release, leaving a warp
    holding its section at the barrier while its CTA-mate starves on
    acquire — the circular wait the compiler's deadlock-avoidance rules
    exist to prevent.

    ``contract_clean`` is the sanitizer's variant: the plain probe
    stores an extended register *after* the release — harmless without
    the sanitizer, but under it that fires ``extended-access`` on every
    run, fault or no fault — so this one moves the result into the base
    set before releasing.  A clean run is then sanitizer-silent and
    every violation is the fault's doing.
    """
    b = KernelBuilder(
        name="check-probe" if contract_clean else "fault-probe",
        regs_per_thread=8, threads_per_cta=64,
    )
    for reg in range(4):
        b.ldc(reg)
    b.acquire()
    b.alu(4, 0, 1)
    b.alu(5, 2, 3)
    b.alu(6, 4, 5)
    b.alu(7, 6, 0)
    result = 7
    if contract_clean:
        b.mov(3, 7)  # result home in the base set before the release
        result = 3
    b.release()
    if hold_across_barrier:
        b.barrier()
    b.store(0, result)
    b.exit()
    return b.build().with_metadata(base_set_size=4, extended_set_size=4)


def _detection_cycle(exc: SimulationError) -> int | None:
    if isinstance(exc.diagnostic, DeadlockDiagnostic):
        return exc.diagnostic.cycle
    match = re.search(r"cycle (\d+)", str(exc))
    return int(match.group(1)) if match else None


def _classify(exc: SimulationError) -> tuple[str, str]:
    """(detector, provenance detail) for a structured simulator failure."""
    if isinstance(exc, SanitizerError):
        if exc.violations:
            v = exc.violations[0]
            subject = f" warp {v.warp_id} pc {v.pc}" if v.warp_id >= 0 else ""
            return "sanitizer", (
                f"{v.check} at cycle {v.cycle}{subject}: {v.message}"
            )
        return "sanitizer", str(exc)
    if isinstance(exc, SimulationDeadlockError):
        detector = "watchdog" if "watchdog" in str(exc) else "deadlock-check"
        return detector, str(exc).split(";")[0]
    return type(exc).__name__, str(exc).split(";")[0]


def _run_sim_scenario(
    scenario: str,
    fault: FaultSpec,
    seed: int,
    *,
    kernel: Kernel,
    retry_policy: str,
    config: GpuConfig = CAMPAIGN_CONFIG,
    forced_sections: int | None = 1,
) -> FaultOutcome:
    technique = FaultingRegMutexTechnique(
        fault, retry_policy=retry_policy, forced_sections=forced_sections
    )
    gpu = Gpu(config, technique, seed=seed)
    try:
        gpu.launch(kernel, grid_ctas=8, max_cycles=DETECTION_DEADLINE_CYCLES)
    except CycleLimitExceededError as exc:
        # Reaching the deadline without a structured verdict IS the
        # escape this campaign exists to rule out.
        return FaultOutcome(
            scenario, fault.kind, fault.layer, detected=False, detector="",
            cycles=_detection_cycle(exc),
            detail="ran to the detection deadline undetected",
        )
    except SimulationError as exc:
        detector, detail = _classify(exc)
        return FaultOutcome(
            scenario, fault.kind, fault.layer,
            detected=exc.diagnostic is not None, detector=detector,
            cycles=_detection_cycle(exc), detail=detail,
        )
    except RuntimeError as exc:
        return FaultOutcome(
            scenario, fault.kind, fault.layer, detected=False, detector="",
            cycles=None, detail=f"escaped as bare {type(exc).__name__}: {exc}",
        )
    return FaultOutcome(
        scenario, fault.kind, fault.layer, detected=False, detector="",
        cycles=None, detail="simulation completed as if nothing happened",
    )


def _sim_scenarios(seed: int, sanitizer: bool = False) -> list[FaultOutcome]:
    """The simulator-layer faults.  ``sanitizer=True`` re-runs them with
    the sanitizer armed on the contract-clean probe (``repro check
    --faults``), where the SRP corruptions become the sanitizer's catch
    at the first inconsistent cycle.  The SRP bit flip always runs that
    way: no other detector sees a self-inconsistent pool before the
    schedule deadlocks."""
    plain = _probe_kernel(contract_clean=sanitizer)
    barrier = _probe_kernel(hold_across_barrier=True, contract_clean=sanitizer)
    config = SANITIZED_CONFIG if sanitizer else CAMPAIGN_CONFIG
    return [
        # Lost release, wakeup policy: every waiter parks with no timer
        # pending — the no-timer deadlock check must fire.  Under the
        # sanitizer the section bit is left set with an empty LUT slot,
        # and its structural check fires the same cycle.
        _run_sim_scenario(
            "lost-release/wakeup",
            FaultSpec("dropped-release", trigger=0, seed=seed),
            seed, kernel=plain, retry_policy="wakeup", config=config,
        ),
        # Lost release, eager policy: waiters keep re-polling on backoff
        # timers, so there is never a timer-free cycle — only the
        # progress watchdog (or the sanitizer) can see this livelock.
        _run_sim_scenario(
            "lost-release/eager",
            FaultSpec("dropped-release", trigger=0, seed=seed),
            seed, kernel=plain, retry_policy="eager", config=config,
        ),
        # Miscompiled kernel: acquire with no matching release, held
        # across a barrier — circular wait between CTA-mates.  Every
        # structure stays self-consistent, so this one is *correctly*
        # not the sanitizer's catch: the deadlock detectors classify it.
        _run_sim_scenario(
            "unbalanced-acquire/barrier",
            FaultSpec("unbalanced-acquire", trigger=0, seed=seed),
            seed, kernel=barrier, retry_policy="wakeup", config=config,
        ),
        # Flipped SRP bit: caught by the sanitizer's structural check at
        # the first inconsistent cycle, long before any deadlock forms.
        _run_sim_scenario(
            "srp-bit-flip/sanitizer",
            FaultSpec("srp-bit-corruption", trigger=2, seed=seed),
            seed, kernel=_probe_kernel(contract_clean=True),
            retry_policy="wakeup", config=SANITIZED_CONFIG,
            forced_sections=2,
        ),
    ]


# -- checkpoint-layer scenarios ----------------------------------------------------
def _plain_kernel() -> Kernel:
    """An uninstrumented compute kernel for the checkpoint scenarios
    (baseline technique — no acquire/release, so the fault surface is
    purely the checkpoint machinery)."""
    b = KernelBuilder(name="ckpt-probe", regs_per_thread=8, threads_per_cta=64)
    for reg in range(4):
        b.ldc(reg)
    b.alu(4, 0, 1)
    b.alu(5, 2, 3)
    b.alu(6, 4, 5)
    b.store(0, 6)
    b.exit()
    return b.build()


def _checkpoint_scenarios(seed: int, workdir: str) -> list[FaultOutcome]:
    """Damage a surviving checkpoint; resume must classify and fall back.

    The surviving checkpoint is produced the way a real crash produces
    one: a checkpointing launch is cut off mid-run (here by the cycle
    limit standing in for SIGKILL), leaving its periodic snapshot on
    disk because the completion cleanup never ran.
    """
    from repro.sim.checkpoint import checkpoint_path

    kernel = _plain_kernel()
    ref = Gpu(CAMPAIGN_CONFIG, BaselineTechnique(), seed=seed).launch(
        kernel, grid_ctas=8
    )
    interval = max(10, ref.cycles // 4)
    outcomes = []
    for kind in ("checkpoint-truncate", "checkpoint-corrupt"):
        ckpt_dir = os.path.join(workdir, kind)
        os.makedirs(ckpt_dir, exist_ok=True)
        try:
            Gpu(CAMPAIGN_CONFIG, BaselineTechnique(), seed=seed).launch(
                kernel, grid_ctas=8,
                max_cycles=interval * 2,  # "crash" after >=1 checkpoint
                checkpoint_dir=ckpt_dir, checkpoint_interval=interval,
            )
            raise AssertionError("truncated run unexpectedly completed")
        except CycleLimitExceededError:
            pass
        path = checkpoint_path(ckpt_dir, total_ctas=8)
        corrupt_checkpoint_file(path, kind, seed=seed)
        report: dict = {}
        result = Gpu(CAMPAIGN_CONFIG, BaselineTechnique(), seed=seed).launch(
            kernel, grid_ctas=8,
            checkpoint_dir=ckpt_dir, checkpoint_interval=interval,
            resume_report=report,
        )
        fallback = report.get("fallback", {}).get(8, "")
        classified = "CheckpointCorruptError" in fallback
        identical = result.stats == ref.stats
        detected = classified and identical and not report.get("resumed")
        outcomes.append(FaultOutcome(
            f"{kind}/fallback", kind, "checkpoint",
            detected=detected,
            detector="checkpoint-validation" if detected else "",
            cycles=None,
            detail=(
                "classified, discarded, recomputed bit-identically"
                if detected else
                f"classified={classified} identical={identical} "
                f"resumed={report.get('resumed')}"
            ),
        ))
    return outcomes


# -- cache-concurrency scenario ----------------------------------------------------
def _concurrent_cache_worker(
    path: str, worker_id: int, entries: int, seed: int
) -> int:
    """Pool entry point: compute ``entries`` distinct records against a
    shared cache file, flushing after every one for maximal collision
    pressure on the append/lock protocol."""
    runner = ExperimentRunner(target_ctas_per_sm=2, seed=seed, cache_path=path)
    kernel = _plain_kernel()
    for i in range(entries):
        config = dataclasses.replace(
            CAMPAIGN_CONFIG, name=f"ccw-{worker_id}-{i}"
        )
        runner.run(kernel, config, BaselineTechnique())
        runner.flush()
    return entries


def _concurrent_cache_scenario(
    seed: int, workdir: str, writers: int = 2, entries: int = 3
) -> FaultOutcome:
    """Hammer one cache path from several processes at once.

    Every writer stores and flushes its own records concurrently; the
    fsync'd appends under the advisory lock must deliver all of them
    into the store file with valid checksums — no lost entries, no
    quarantine, no torn line.
    """
    from concurrent.futures import ProcessPoolExecutor

    path = os.path.join(workdir, "concurrent-cache.json")
    expected = writers * entries
    with ProcessPoolExecutor(max_workers=writers) as pool:
        futures = [
            pool.submit(_concurrent_cache_worker, path, wid, entries, seed)
            for wid in range(writers)
        ]
        written = sum(f.result() for f in futures)
    survivor = ExperimentRunner(target_ctas_per_sm=2, seed=seed, cache_path=path)
    intact = len(survivor._memo)
    clean = survivor.quarantined_entries == 0
    detected = written == expected and intact == expected and clean
    return FaultOutcome(
        "cache-concurrent-writer/stress", "cache-concurrent-writer", "cache",
        detected=detected,
        detector="journal-lock" if detected else "",
        cycles=None,
        detail=(
            f"{expected}/{expected} records intact after "
            f"{writers}-writer collision"
            if detected else
            f"wrote {written}, reloaded {intact}, "
            f"quarantined {survivor.quarantined_entries}"
        ),
    )


# -- kill-mid-run scenario ---------------------------------------------------------
def _kill_mid_run_scenario(
    seed: int, workers: int, workdir: str, engine: str | None = None
) -> FaultOutcome:
    """SIGKILL a worker at a deterministic cycle; resume must finish the
    job bit-identically to an undisturbed baseline run.

    ``engine`` pins the issue engine (e.g. ``"scan"``: the reference
    stepper's mid-run checkpoints must be just as resumable as the
    columnar path's); None keeps the config default.
    """
    config = HARNESS_CONFIG
    tag = ""
    if engine is not None:
        config = dataclasses.replace(config, issue_engine=engine)
        tag = f"-{engine}"
    ref_job = JobSpec(
        app="Gaussian", config=config,
        technique=TechniqueSpec("baseline"),
    )
    ref_orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed), workers=1
    )
    ref = ref_orch.run_jobs([ref_job])[ref_job]

    kill_cycle = max(200, ref.cycles // 2)
    interval = max(50, kill_cycle // 3)
    marker = os.path.join(workdir, f"kill-mid-run{tag}.marker")
    ckpt_dir = os.path.join(workdir, f"kill-mid-run{tag}-ckpts")
    job = JobSpec(
        app="Gaussian", config=config,
        technique=TechniqueSpec.of(
            "kill-mid-run", kill_cycle=kill_cycle, marker_path=marker
        ),
    )
    orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed),
        workers=max(2, workers), max_retries=2, retry_backoff=0.01,
        checkpoint_dir=ckpt_dir, checkpoint_interval=interval,
    )
    result = orch.run_jobs([job])[job]
    recovered = isinstance(result, RunRecord)
    retried = orch.telemetry.retries >= 1
    resumed = orch.telemetry.resumed_jobs >= 1
    identical = recovered and (
        dataclasses.replace(result, technique=ref.technique) == ref
    )
    detected = recovered and retried and resumed and identical
    resumed_cycle = next(
        (t.resumed_from_cycle for t in orch.telemetry.timings
         if t.resumed_from_cycle is not None),
        None,
    )
    return FaultOutcome(
        f"kill-mid-run{tag}/resume", "kill-mid-run", "harness",
        detected=detected,
        detector="checkpoint-resume" if detected else "",
        cycles=resumed_cycle,
        detail=(
            f"SIGKILL at cycle {kill_cycle} absorbed; resumed from cycle "
            f"{resumed_cycle}, result bit-identical to undisturbed run"
            if detected else
            f"recovered={recovered} retried={retried} resumed={resumed} "
            f"identical={identical}"
        ),
    )


def _daemon_kill_worker_scenario(
    seed: int, workers: int, workdir: str
) -> FaultOutcome:
    """SIGKILL a pool worker *under the service daemon*; the daemon's
    retry path must resume from the surviving checkpoint and finish the
    job bit-identically — the daemon twin of the orchestrator's
    kill-mid-run probe: the same ``JobExecutor`` policy, reached through
    the daemon's warm pool and singleflight instead of a batch."""
    import asyncio

    from repro.service.daemon import ServiceConfig, SimulationService

    ref_job = JobSpec(
        app="Gaussian", config=HARNESS_CONFIG,
        technique=TechniqueSpec("baseline"),
    )
    ref_orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed), workers=1
    )
    ref = ref_orch.run_jobs([ref_job])[ref_job]

    kill_cycle = max(200, ref.cycles // 2)
    interval = max(50, kill_cycle // 3)
    marker = os.path.join(workdir, "daemon-kill.marker")
    job = JobSpec(
        app="Gaussian", config=HARNESS_CONFIG,
        technique=TechniqueSpec.of(
            "kill-mid-run", kill_cycle=kill_cycle, marker_path=marker
        ),
    )
    service_config = ServiceConfig(
        socket_path=os.path.join(workdir, "daemon-kill.sock"),
        cache_path=os.path.join(workdir, "daemon-kill-cache.json"),
        workers=max(2, workers), seed=seed, target_ctas_per_sm=2,
        max_retries=2, retry_backoff=0.01,
        checkpoint_dir=os.path.join(workdir, "daemon-kill-ckpts"),
        checkpoint_interval=interval,
    )

    async def drive():
        service = SimulationService(service_config)
        await service.start()
        try:
            results = service.submit([job])
            await asyncio.gather(
                *[s.task for s, _ in results if s.task is not None]
            )
            return service, results[0][0]
        finally:
            await service.aclose()

    service, state = asyncio.run(drive())
    recovered = isinstance(state.record, RunRecord)
    timing = state.timing
    retried = timing is not None and timing.attempts >= 2
    resumed_cycle = timing.resumed_from_cycle if timing else None
    resumed = resumed_cycle is not None
    restarted = service.stats["pool_restarts"] >= 1
    identical = recovered and (
        dataclasses.replace(state.record, technique=ref.technique) == ref
    )
    detected = recovered and retried and resumed and restarted and identical
    return FaultOutcome(
        "daemon-kill-worker/resume", "kill-mid-run", "service",
        detected=detected,
        detector="daemon-retry+resume" if detected else "",
        cycles=resumed_cycle,
        detail=(
            f"daemon absorbed SIGKILL at cycle {kill_cycle}: pool "
            f"recycled, retry resumed from cycle "
            f"{resumed_cycle}, record bit-identical"
            if detected else
            f"recovered={recovered} retried={retried} resumed={resumed} "
            f"pool_restarted={restarted} identical={identical}"
        ),
    )


# -- harness-layer scenarios -------------------------------------------------------
def _harness_scenarios(seed: int, workers: int, workdir: str) -> list[FaultOutcome]:
    outcomes = []

    # Transient worker crash: first dispatch dies via os._exit, the
    # marker file makes the retry clean — the batch must complete.
    marker = os.path.join(workdir, "crash.marker")
    crash_job = JobSpec(
        app="Gaussian", config=HARNESS_CONFIG,
        technique=TechniqueSpec.of(
            "faulty-worker", mode="worker-crash", marker_path=marker
        ),
    )
    orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed),
        workers=max(2, workers), max_retries=2, retry_backoff=0.01,
    )
    result = orch.run_jobs([crash_job])[crash_job]
    recovered = isinstance(result, RunRecord)
    retries = orch.telemetry.retries
    outcomes.append(FaultOutcome(
        "worker-crash/retry", "worker-crash", "harness",
        detected=recovered and retries >= 1,
        detector="retry" if recovered else "",
        cycles=None,
        detail=(
            f"recovered after {retries} retr{'y' if retries == 1 else 'ies'}"
            if recovered else f"batch did not complete: {result}"
        ),
    ))

    # Deterministic simulation error: must surface as a typed failure
    # on the FIRST attempt — retrying determinism is wasted work.
    error_job = JobSpec(
        app="Gaussian", config=HARNESS_CONFIG,
        technique=TechniqueSpec.of("faulty-worker", mode="sim-error"),
    )
    orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed),
        workers=max(2, workers), max_retries=2, retry_backoff=0.01,
    )
    result = orch.run_jobs([error_job])[error_job]
    attributed = (
        isinstance(result, JobFailure)
        and result.kind == "simulation-error"
        and result.attempts == 1
    )
    outcomes.append(FaultOutcome(
        "sim-error/no-retry", "sim-error", "harness",
        detected=attributed,
        detector="failure-taxonomy" if attributed else "",
        cycles=None,
        detail=(
            f"JobFailure(kind={result.kind!r}, attempts={result.attempts})"
            if isinstance(result, JobFailure)
            else f"unexpected outcome {type(result).__name__}"
        ),
    ))

    # Hung worker: the per-job timeout must cut it loose.
    sleep_job = JobSpec(
        app="Gaussian", config=HARNESS_CONFIG,
        technique=TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=5.0
        ),
    )
    orch = Orchestrator(
        ExperimentRunner(target_ctas_per_sm=2, seed=seed),
        workers=max(2, workers), job_timeout=0.75, max_retries=0,
    )
    result = orch.run_jobs([sleep_job])[sleep_job]
    timed_out = isinstance(result, JobFailure) and result.kind == "timeout"
    outcomes.append(FaultOutcome(
        "worker-hang/timeout", "worker-sleep", "harness",
        detected=timed_out,
        detector="job-timeout" if timed_out else "",
        cycles=None,
        detail=(
            f"JobFailure(kind={result.kind!r})"
            if isinstance(result, JobFailure)
            else f"unexpected outcome {type(result).__name__}"
        ),
    ))

    return outcomes


# -- cache-layer scenarios ---------------------------------------------------------
SEEDED_RECORDS = 3  # so that halving the store cuts inside a line


def _seed_cache(path: str, seed: int) -> None:
    with ExperimentRunner(target_ctas_per_sm=2, seed=seed, cache_path=path) as r:
        for i in range(SEEDED_RECORDS):
            config = dataclasses.replace(CAMPAIGN_CONFIG, name=f"seeded-{i}")
            r.run(_probe_kernel(), config, BaselineTechnique())


def _quarantined_lines(path: str) -> list[str]:
    import json

    try:
        with open(path + ".quarantine.json") as fh:
            return [entry["line"] for entry in json.load(fh).values()]
    except (OSError, ValueError):
        return []


def _cache_scenarios(seed: int, workdir: str) -> list[FaultOutcome]:
    """Damage a seeded store and reopen it.  Detected means all of: a
    warning, exactly one quarantined line holding the damaged text,
    and every other complete line adopted — so no damaged record is
    adopted, and a truncated store keeps the lines before the cut."""
    import warnings as warnings_mod

    outcomes = []
    cases = [
        ("cache-truncate", "torn-tail-quarantine", "torn write"),
        ("cache-garbage", "line-quarantine", "non-JSON overwrite"),
        ("cache-poison-entry", "checksum-quarantine", "silent record bit-rot"),
    ]
    for kind, detector, label in cases:
        path = os.path.join(workdir, f"{kind}.json")
        _seed_cache(path, seed)
        damaged = corrupt_cache_file(path, kind, seed=seed)
        with open(path) as fh:
            intact = [line for line in fh
                      if line.endswith("\n") and line[:-1] != damaged]
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            runner = ExperimentRunner(
                target_ctas_per_sm=2, seed=seed, cache_path=path
            )
        detected = (
            len(caught) > 0
            and runner.quarantined_entries == 1
            and damaged in _quarantined_lines(path)
            and len(runner._memo) == len(intact)
        )
        detail = (
            f"{label} quarantined, {len(intact)}/{SEEDED_RECORDS} "
            f"intact line(s) kept"
            if detected else
            f"{label}: quarantined {runner.quarantined_entries}, "
            f"adopted {len(runner._memo)} of {len(intact)} intact"
        )
        outcomes.append(FaultOutcome(
            f"{kind}/reload", kind, "cache",
            detected=detected,
            detector=detector if detected else "",
            cycles=None, detail=detail,
        ))
    return outcomes


# -- entry point -------------------------------------------------------------------
def run_campaign(
    seed: int = 2018,
    include_harness: bool = True,
    workers: int = 2,
    include_kill_mid_run: bool = False,
) -> list[FaultOutcome]:
    """Run the full campaign; returns one :class:`FaultOutcome` per scenario.

    ``include_harness=False`` skips the orchestrator/pool scenarios
    (which spawn real worker processes and take a few seconds) — the
    simulator, checkpoint, and cache layers alone run in well under a
    second.  ``include_kill_mid_run`` adds the SIGKILL-at-cycle
    checkpoint/resume scenario (``repro faults --kill-mid-run``): the
    heaviest probe — it deliberately kills a pool worker and proves the
    retry resumes bit-identically — so it is opt-in on top of
    ``include_harness``.
    """
    outcomes = _sim_scenarios(seed)
    workdir = tempfile.mkdtemp(prefix="regmutex-faults-")
    try:
        outcomes.extend(_checkpoint_scenarios(seed, workdir))
        outcomes.extend(_cache_scenarios(seed, workdir))
        outcomes.append(_concurrent_cache_scenario(seed, workdir))
        if include_harness:
            outcomes.extend(_harness_scenarios(seed, workers, workdir))
            if include_kill_mid_run:
                outcomes.append(
                    _kill_mid_run_scenario(seed, workers, workdir)
                )
                outcomes.append(
                    _kill_mid_run_scenario(
                        seed, workers, workdir, engine="scan"
                    )
                )
                outcomes.append(
                    _daemon_kill_worker_scenario(seed, workers, workdir)
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcomes


def campaign_table(outcomes: list[FaultOutcome]) -> str:
    """The ``repro faults`` report: per-scenario verdicts + totals."""
    from repro.harness.reporting import format_table

    rows = [
        [
            o.scenario,
            o.layer,
            "detected" if o.detected else "ESCAPED",
            o.detector or "-",
            o.cycles if o.cycles is not None else "-",
            o.detail,
        ]
        for o in outcomes
    ]
    table = format_table(
        ["scenario", "layer", "verdict", "detector", "cycle", "detail"],
        rows,
        title="fault-injection campaign",
    )
    escaped = sum(1 for o in outcomes if o.escaped)
    summary = (
        f"\n{len(outcomes)} faults injected, "
        f"{len(outcomes) - escaped} detected, {escaped} escaped "
        f"(detection rate {detection_rate(outcomes):.0%})"
    )
    return table + summary
