"""Differential execution oracle across the five techniques.

Runs one Table I workload under baseline / RegMutex / paired-warps /
OWF / RFV on a 1-SM device with the shadow executor
(:mod:`repro.check.shadow`) and the dynamic sanitizer armed, then
asserts the architectural outcomes are equivalent modulo each
technique's documented remapping:

* **per-warp stream digests and retired counts** must match the
  baseline exactly for every technique — the digested stream excludes
  only the REGMUTEX primitives and compaction-injected MOVs, so any
  value divergence (a wrong rename, a corrupted section mux) poisons
  the digest;
* **final shadow memory** must match exactly (the shadow's warp-seeded
  value roots make all addresses warp-private, so the final state is
  interleaving-independent);
* **final register maps** must additionally match index-for-index for
  the non-rewriting techniques (baseline, OWF, RFV).  RegMutex and
  paired-warps legally redistribute the same values across different
  indices (compaction), which the stream digests already cover.

Every run doubles as a sanitizer soak: ``CHECK_CONFIG`` arms
``GpuConfig.sanitizer``, so a clean ``repro check`` also certifies that
no runtime contract check fires on healthy schedules.

Fan-out mirrors the harness orchestrator's worker discipline — a
module-level job function fed to a ``ProcessPoolExecutor`` (the
orchestrator itself is coupled to cached ``RunRecord`` jobs; the oracle
needs shadow digests, which the record format does not carry).  Golden
snapshots under ``tests/check/golden/`` pin cycles and digests per app
so behavioural drift shows up as a diff, not a silent re-baseline.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.arch.config import GpuConfig, fermi_like
from repro.check.shadow import attach_shadow, mix64
from repro.errors import SimulationError
from repro.harness.spec import TECHNIQUE_LANES, lane_technique
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique
from repro.workloads.suite import APPLICATIONS, build_app_kernel, get_app

# The differential device: GTX480 geometry with shortened memory
# latencies (the oracle checks architectural state, not timing realism)
# and the sanitizer armed.  Structural checks run at stride 16 — the
# per-issue checks still cover every instruction.
CHECK_CONFIG = fermi_like(
    name="GTX480-check",
    dram_latency=120,
    l1_hit_latency=10,
    sanitizer=True,
    sanitizer_stride=16,
)

ORACLE_TECHNIQUES: tuple[str, ...] = TECHNIQUE_LANES
# Techniques that never rename registers: their final register maps
# must match the baseline index-for-index.
_EXACT_REGISTER_TECHNIQUES = frozenset({"owf", "rfv"})

# Small, structurally diverse subset for the CI gate: BFS
# (occupancy-limited — the compiler actually instruments it, so the
# regmutex/paired lanes run remapped code), Gaussian (register-relaxed
# control: all five lanes identical), SRAD (barrier synchronization).
SMOKE_APPS: tuple[str, ...] = ("BFS", "Gaussian", "SRAD")

GOLDEN_SCHEMA = 1
DEFAULT_GOLDEN_DIR = Path("tests/check/golden")

_MAX_CYCLES = 20_000_000


@dataclass(frozen=True)
class TechniqueTrace:
    """Shadow-state fingerprint of one (app, technique) run."""

    app: str
    technique: str
    cycles: int
    instructions: int
    total_ctas: int
    # (warp_id, stream digest, retired semantic count), sorted by warp.
    warp_streams: tuple[tuple[int, int, int], ...]
    memory_digest: int
    register_digest: int
    error: str | None = None

    @property
    def stream_digest(self) -> int:
        """All per-warp streams folded into one value."""
        digest = 0
        for wid, warp_digest, count in self.warp_streams:
            digest = mix64(digest, wid, warp_digest, count)
        return digest


def run_technique_trace(
    app_name: str,
    technique_name: str,
    seed: int = 2018,
    config: GpuConfig | None = None,
) -> TechniqueTrace:
    """Simulate one app under one technique with the shadow attached."""
    if config is None:
        config = CHECK_CONFIG
    spec = get_app(app_name)
    kernel = build_app_kernel(spec)
    # |Es| is left to the compiler heuristic, so regmutex/paired/OWF
    # all derive their splits from the same selection pass.
    technique = lane_technique(technique_name)

    # Identical workload across lanes: two baseline waves of CTAs.  The
    # per-technique residency only changes *when* each CTA runs.
    base_occ = BaselineTechnique().occupancy(kernel, config)
    total_ctas = max(1, base_occ.ctas_per_sm) * 2

    compiled = technique.prepare_kernel(kernel, config)
    occ = technique.occupancy(compiled, config)
    resident = max(1, occ.ctas_per_sm)
    stats = SmStats()
    sm = StreamingMultiprocessor(
        sm_id=0,
        config=config,
        kernel=compiled,
        technique_state=technique.make_sm_state(compiled, config, stats),
        ctas_resident_limit=resident,
        total_ctas=total_ctas,
        rng=DeterministicRng(seed),
        stats=stats,
    )
    shadow = attach_shadow(sm)
    error = None
    try:
        sm.run(max_cycles=_MAX_CYCLES)
    except SimulationError as exc:
        error = f"{exc.kind}: {exc}"
    return TechniqueTrace(
        app=app_name,
        technique=technique_name,
        cycles=sm.cycle,
        instructions=stats.instructions_issued,
        total_ctas=total_ctas,
        warp_streams=shadow.warp_streams(),
        memory_digest=shadow.memory_digest(),
        register_digest=shadow.register_digest(),
        error=error,
    )


def _trace_job(job: tuple[str, str, int]) -> TechniqueTrace:
    """Pool-worker entry (module level: must survive pickling)."""
    app_name, technique_name, seed = job
    return run_technique_trace(app_name, technique_name, seed)


# -- equivalence -------------------------------------------------------------------
def compare_traces(traces: dict[str, TechniqueTrace]) -> list[str]:
    """Mismatch descriptions (empty = all techniques equivalent)."""
    mismatches = [
        f"{name}: run failed: {trace.error}"
        for name, trace in traces.items()
        if trace.error
    ]
    base = traces.get("baseline")
    if base is None or base.error:
        return mismatches

    for name, trace in traces.items():
        if name == "baseline" or trace.error:
            continue
        if len(trace.warp_streams) != len(base.warp_streams):
            mismatches.append(
                f"{name}: executed {len(trace.warp_streams)} warps, "
                f"baseline executed {len(base.warp_streams)}"
            )
        elif trace.warp_streams != base.warp_streams:
            for (wid, digest, count), (bwid, bdigest, bcount) in zip(
                trace.warp_streams, base.warp_streams
            ):
                if (wid, digest, count) != (bwid, bdigest, bcount):
                    what = (
                        f"retired {count} vs {bcount} instructions"
                        if count != bcount
                        else f"stream digest {digest:#x} vs {bdigest:#x}"
                    )
                    mismatches.append(
                        f"{name}: warp {wid} diverged from baseline ({what})"
                    )
                    break
        if trace.memory_digest != base.memory_digest:
            mismatches.append(
                f"{name}: final memory state diverged "
                f"({trace.memory_digest:#x} vs {base.memory_digest:#x})"
            )
        if (
            name in _EXACT_REGISTER_TECHNIQUES
            and trace.register_digest != base.register_digest
        ):
            mismatches.append(
                f"{name}: final register map diverged from baseline "
                "(non-renaming technique must match index-for-index)"
            )
    return mismatches


# -- golden snapshots --------------------------------------------------------------
def golden_path(golden_dir: Path, app_name: str) -> Path:
    return Path(golden_dir) / f"{app_name.lower()}.json"


def golden_payload(
    app_name: str, traces: dict[str, TechniqueTrace], seed: int
) -> dict:
    """JSON-able snapshot of one app's oracle fingerprints."""
    return {
        "schema": GOLDEN_SCHEMA,
        "app": app_name,
        "config": CHECK_CONFIG.name,
        "seed": seed,
        "techniques": {
            name: {
                "cycles": trace.cycles,
                "instructions": trace.instructions,
                "total_ctas": trace.total_ctas,
                "warps": len(trace.warp_streams),
                "stream": f"{trace.stream_digest:#018x}",
                "memory": f"{trace.memory_digest:#018x}",
                "registers": f"{trace.register_digest:#018x}",
            }
            for name, trace in sorted(traces.items())
        },
    }


def compare_golden(path: Path, payload: dict) -> list[str]:
    """Field-level diffs against the stored snapshot."""
    if not path.exists():
        return [f"golden file {path} missing (run with --update-golden)"]
    stored = json.loads(path.read_text())
    if stored.get("schema") != payload["schema"]:
        return [f"golden schema {stored.get('schema')} != {payload['schema']}"]
    diffs = []
    for name, fields in payload["techniques"].items():
        old = stored.get("techniques", {}).get(name)
        if old is None:
            diffs.append(f"{name}: missing from golden file")
            continue
        for key, value in fields.items():
            if old.get(key) != value:
                diffs.append(
                    f"{name}.{key}: got {value!r}, golden has {old.get(key)!r}"
                )
    return diffs


def write_golden(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- entry point -------------------------------------------------------------------
@dataclass(frozen=True)
class AppCheckResult:
    """Oracle verdict for one application."""

    app: str
    traces: dict[str, TechniqueTrace]
    equivalence_mismatches: tuple[str, ...]
    golden_mismatches: tuple[str, ...]
    golden_updated: bool = False

    @property
    def ok(self) -> bool:
        return not self.equivalence_mismatches and not self.golden_mismatches


def check_apps(
    apps: tuple[str, ...] | None = None,
    seed: int = 2018,
    workers: int = 1,
    golden_dir: Path | None = DEFAULT_GOLDEN_DIR,
    update_golden: bool = False,
) -> list[AppCheckResult]:
    """Run the differential oracle over ``apps`` (default: all 16).

    ``golden_dir=None`` skips the snapshot comparison (equivalence
    only); ``update_golden`` rewrites the snapshots instead of
    comparing.
    """
    if apps is None:
        apps = tuple(APPLICATIONS)
    jobs = [
        (app, technique, seed) for app in apps for technique in ORACLE_TECHNIQUES
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trace_job, jobs))
    else:
        outcomes = [_trace_job(job) for job in jobs]

    by_app: dict[str, dict[str, TechniqueTrace]] = {}
    for trace in outcomes:
        by_app.setdefault(trace.app, {})[trace.technique] = trace

    results = []
    for app in apps:
        traces = by_app[app]
        equivalence = compare_traces(traces)
        golden: list[str] = []
        updated = False
        if golden_dir is not None:
            payload = golden_payload(app, traces, seed)
            path = golden_path(golden_dir, app)
            if update_golden:
                write_golden(path, payload)
                updated = True
            else:
                golden = compare_golden(path, payload)
        results.append(AppCheckResult(
            app=app,
            traces=traces,
            equivalence_mismatches=tuple(equivalence),
            golden_mismatches=tuple(golden),
            golden_updated=updated,
        ))
    return results
