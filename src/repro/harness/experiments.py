"""One declarative spec per paper experiment (§IV and motivation §II).

Every simulation-backed figure is declared as an
:class:`~repro.harness.spec.ExperimentSpec` — the cross-product of
(app, config, technique) jobs it needs plus a row builder — via a
``figN_spec()`` factory, registered by name in ``FIGURE_SPECS``.  Every
caller runs figures one way,
``Orchestrator(runner, workers=N).run_specs([...])`` (``N = 1`` runs
the jobs in-process), and renders the rows through the figure's
declaration in :mod:`repro.harness.figures`.

RegMutex runs force Table I's |Bs|/|Es| split (``spec.expected_es``) so
every figure uses exactly the paper's configuration; Figure 10/11 sweep
|Es| explicitly and mark the heuristic's own pick.

Figure 1, Table I, and the storage comparison are pure analyses (no
simulation) and stay plain functions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.arch.config import GTX480, GpuConfig
from repro.compiler.es_selection import select_extended_set_size
from repro.harness.runner import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobResults,
    JobSpec,
    TechniqueSpec,
)
from repro.liveness.pressure import dynamic_pressure_trace
from repro.regmutex.storage import (
    StorageBudget,
    owf_storage_bits,
    paired_storage_bits,
    regmutex_storage_bits,
    rfv_storage_bits,
)
from repro.workloads.suite import (
    APPLICATIONS,
    FIGURE1_APPS,
    OCCUPANCY_LIMITED_APPS,
    REGISTER_RELAXED_APPS,
    build_app_kernel,
    get_app,
)

ES_SWEEP = (2, 4, 6, 8, 10, 12)


def _half(config: GpuConfig) -> GpuConfig:
    return config.with_half_register_file()


def _job(app: str, config: GpuConfig, kind: str, **params) -> JobSpec:
    return JobSpec(app, config, TechniqueSpec.of(kind, **params))


def _rm(app: str, config: GpuConfig, es: int) -> JobSpec:
    return _job(app, config, "regmutex", extended_set_size=es)


def _records(plan, results: JobResults):
    """Each plan entry with its jobs replaced by their records."""
    for entry in plan:
        yield tuple(results[x] if isinstance(x, JobSpec) else x
                    for x in entry)


# Figure 1 — register liveness utilization traces

@dataclass(frozen=True)
class Fig1Row:
    """One application's single-thread utilization trace (Figure 1)."""

    app: str
    instructions_executed: int
    mean_utilization: float
    min_utilization: float
    max_utilization: float
    fraction_at_peak: float
    utilization_series: tuple[float, ...]


def fig1_liveness_traces(
    apps: tuple[str, ...] = FIGURE1_APPS, series_points: int = 64
) -> list[Fig1Row]:
    """Single-thread dynamic liveness traces (paper Figure 1)."""
    rows = []
    for name in apps:
        trace = dynamic_pressure_trace(build_app_kernel(get_app(name)))
        util = trace.utilization
        stride = max(1, len(util) // series_points)
        rows.append(
            Fig1Row(
                app=name,
                instructions_executed=trace.instructions_executed,
                mean_utilization=trace.mean_utilization(),
                min_utilization=min(util),
                max_utilization=max(util),
                fraction_at_peak=trace.fraction_fully_utilized(),
                utilization_series=tuple(util[::stride]),
            )
        )
    return rows


# Table I — workloads, register demand, |Bs|

@dataclass(frozen=True)
class Table1Row:
    """One application row of Table I, plus derived SRP geometry."""

    app: str
    suite: str
    regs: int
    regs_rounded: int
    bs: int
    es: int
    srp_sections: int
    heuristic_agrees: bool


def table1_workloads(config: GpuConfig = GTX480) -> list[Table1Row]:
    """Table I plus the SRP section count our occupancy math implies."""
    rows = []
    for spec in APPLICATIONS.values():
        kernel = build_app_kernel(spec)
        sel_config = config if spec.group == "occupancy-limited" else _half(config)
        selection = select_extended_set_size(kernel, sel_config)
        forced = select_extended_set_size(
            kernel, sel_config, forced_es=spec.expected_es
        )
        rows.append(
            Table1Row(
                app=spec.name,
                suite=spec.suite,
                regs=spec.regs,
                regs_rounded=spec.rounded_regs,
                bs=spec.expected_bs,
                es=spec.expected_es,
                srp_sections=forced.srp_sections,
                heuristic_agrees=(
                    selection.extended_set_size == spec.expected_es
                ),
            )
        )
    return rows


# Figure 7 — occupancy boost on the baseline architecture

@dataclass(frozen=True)
class Fig7Row:
    """Cycle reduction and occupancy for one app (Figure 7)."""

    app: str
    cycle_reduction: float
    occupancy_init: float
    occupancy_regmutex: float
    acquire_success_rate: float


def fig7_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 7: RegMutex vs baseline on the full register file."""
    plan = [
        (name, _job(name, config, "baseline"),
         _rm(name, config, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig7Row]:
        return [
            Fig7Row(app=name,
                    cycle_reduction=rm.reduction_vs(base),
                    occupancy_init=base.theoretical_occupancy,
                    occupancy_regmutex=rm.theoretical_occupancy,
                    acquire_success_rate=rm.acquire_success_rate)
            for name, base, rm in _records(plan, results)
        ]

    jobs = tuple(j for _, base, rm in plan for j in (base, rm))
    return ExperimentSpec("fig7", jobs, build)


# Figure 8 — half register file resilience

@dataclass(frozen=True)
class Fig8Row:
    """Half-register-file slowdowns for one app (Figure 8)."""

    app: str
    increase_no_technique: float
    increase_regmutex: float
    occupancy_half_no_technique: float
    occupancy_half_regmutex: float


def fig8_spec(
    apps: tuple[str, ...] = REGISTER_RELAXED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 8: slowdown on a halved register file, with/without RegMutex."""
    half = _half(config)
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, half, "baseline"),
         _rm(name, half, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig8Row]:
        return [
            Fig8Row(app=name,
                    increase_no_technique=bare.increase_vs(full),
                    increase_regmutex=rm.increase_vs(full),
                    occupancy_half_no_technique=bare.theoretical_occupancy,
                    occupancy_half_regmutex=rm.theoretical_occupancy)
            for name, full, bare, rm in _records(plan, results)
        ]

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig8", jobs, build)


# Figure 9 — comparison with OWF and RFV

@dataclass(frozen=True)
class Fig9aRow:
    """Per-technique reductions on the baseline arch (Figure 9a)."""

    app: str
    reduction_owf: float
    reduction_rfv: float
    reduction_regmutex: float


def fig9a_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 9a: OWF vs RFV vs RegMutex, baseline architecture."""
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, config, "owf"),
         _job(name, config, "rfv"),
         _rm(name, config, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig9aRow]:
        return [
            Fig9aRow(app=name,
                     reduction_owf=owf.reduction_vs(base),
                     reduction_rfv=rfv.reduction_vs(base),
                     reduction_regmutex=rm.reduction_vs(base))
            for name, base, owf, rfv, rm in _records(plan, results)
        ]

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig9a", jobs, build)


@dataclass(frozen=True)
class Fig9bRow:
    """Per-technique increases on the half file (Figure 9b)."""

    app: str
    increase_none: float
    increase_owf: float
    increase_rfv: float
    increase_regmutex: float


def fig9b_spec(
    apps: tuple[str, ...] = REGISTER_RELAXED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 9b: the same comparison on the halved register file."""
    half = _half(config)
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, half, "baseline"),
         _job(name, half, "owf"),
         _job(name, half, "rfv"),
         _rm(name, half, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig9bRow]:
        return [
            Fig9bRow(app=name,
                     increase_none=bare.increase_vs(full),
                     increase_owf=owf.increase_vs(full),
                     increase_rfv=rfv.increase_vs(full),
                     increase_regmutex=rm.increase_vs(full))
            for name, full, bare, owf, rfv, rm in _records(plan, results)
        ]

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig9b", jobs, build)


# Figures 10 and 11 — |Es| sensitivity

@dataclass(frozen=True)
class Fig10Row:
    """One (app, |Es|) point of the sensitivity sweep (Figure 10).

    ``failure`` is the failure kind of a point whose job (or its
    baseline) failed — some forced |Es| cannot be compacted — and its
    metric is then None.
    """

    app: str
    es: int
    cycle_reduction: float | None
    is_heuristic_pick: bool
    failure: str | None = None


def fig10_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
    sweep: tuple[int, ...] = ES_SWEEP,
) -> ExperimentSpec:
    """Figure 10: cycle-reduction sensitivity to the forced |Es|."""
    plan = [
        (name, get_app(name).expected_es,
         _job(name, config, "baseline"),
         tuple((es, _rm(name, config, es)) for es in sweep))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig10Row]:
        rows = []
        for name, expected_es, base_job, sweep_jobs in plan:
            for es, rm_job in sweep_jobs:
                failure = results.failure_kind(base_job, rm_job)
                reduction = None if failure else (
                    results[rm_job].reduction_vs(results[base_job])
                )
                rows.append(Fig10Row(name, es, reduction, es == expected_es,
                                     failure=failure))
        return rows

    jobs = tuple(j for _, _, base, sweep_jobs in plan
                 for j in (base, *(rm for _, rm in sweep_jobs)))
    return ExperimentSpec("fig10", jobs, build)


@dataclass(frozen=True)
class Fig11Row:
    app: str
    es: int
    theoretical_occupancy: float | None
    acquire_success_rate: float | None
    is_heuristic_pick: bool
    # False when the deadlock rules rejected this |Es| and the compiler
    # fell back to the uninstrumented kernel (no acquires executed).
    active: bool = True
    # The failure kind of a point whose job failed (metrics None), as
    # in Fig10Row.
    failure: str | None = None


def fig11_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
    sweep: tuple[int, ...] = ES_SWEEP,
) -> ExperimentSpec:
    """Figure 11: occupancy and acquire success across the |Es| sweep."""
    plan = [
        (name, get_app(name).expected_es,
         tuple((es, _rm(name, config, es)) for es in sweep))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig11Row]:
        rows = []
        for name, expected_es, sweep_jobs in plan:
            for es, rm_job in sweep_jobs:
                failure = results.failure_kind(rm_job)
                if failure:
                    rows.append(Fig11Row(name, es, None, None,
                                         es == expected_es, active=False,
                                         failure=failure))
                    continue
                rm = results[rm_job]
                rows.append(Fig11Row(name, es, rm.theoretical_occupancy,
                                     rm.acquire_success_rate,
                                     es == expected_es,
                                     active=rm.acquire_attempts > 0))
        return rows

    jobs = tuple(rm for _, _, sweep_jobs in plan for _, rm in sweep_jobs)
    return ExperimentSpec("fig11", jobs, build)


# Figure 12 — paired-warps specialization

@dataclass(frozen=True)
class Fig12Row:
    app: str
    metric: float          # reduction (12a) or increase (12b)
    occupancy_paired: float
    metric_default: float  # same metric under default RegMutex


def fig12_spec(
    config: GpuConfig = GTX480, half_rf: bool = False
) -> ExperimentSpec:
    """12(a) when ``half_rf`` is False (occupancy-limited apps, baseline
    arch, cycle *reduction*); 12(b) when True (register-relaxed apps,
    half RF, cycle *increase* vs the full-RF baseline)."""
    arch = _half(config) if half_rf else config
    apps = REGISTER_RELAXED_APPS if half_rf else OCCUPANCY_LIMITED_APPS
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, arch, "regmutex-paired", extended_set_size=es),
         _rm(name, arch, es))
        for name, es in ((n, get_app(n).expected_es) for n in apps)
    ]

    def build(results: JobResults) -> list[Fig12Row]:
        vs = RunRecord.increase_vs if half_rf else RunRecord.reduction_vs
        return [
            Fig12Row(app=name,
                     metric=vs(paired, ref),
                     occupancy_paired=paired.theoretical_occupancy,
                     metric_default=vs(default, ref))
            for name, ref, paired, default in _records(plan, results)
        ]

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig12b" if half_rf else "fig12a", jobs, build)


# Figure 13 — acquire success, default vs paired

@dataclass(frozen=True)
class Fig13Row:
    """Acquire success, default vs paired, for one app (Figure 13)."""

    app: str
    arch: str  # "baseline" | "half-rf"
    success_default: float
    success_paired: float


def fig13_spec(config: GpuConfig = GTX480) -> ExperimentSpec:
    """Figure 13: acquire success rates, default vs paired, all 16 apps."""
    plan = [
        (name, label, _rm(name, arch, es),
         _job(name, arch, "regmutex-paired", extended_set_size=es))
        for apps, arch, label in (
            (OCCUPANCY_LIMITED_APPS, config, "baseline"),
            (REGISTER_RELAXED_APPS, _half(config), "half-rf"))
        for name, es in ((n, get_app(n).expected_es) for n in apps)
    ]

    def build(results: JobResults) -> list[Fig13Row]:
        return [
            Fig13Row(app=name,
                     arch=arch_label,
                     success_default=default.acquire_success_rate,
                     success_paired=paired.acquire_success_rate)
            for name, arch_label, default, paired in _records(plan, results)
        ]

    jobs = tuple(j for entry in plan for j in entry[2:])
    return ExperimentSpec("fig13", jobs, build)


# §III-B / §IV-C — hardware storage overhead

def storage_overhead_comparison(
    config: GpuConfig = GTX480,
) -> dict[str, StorageBudget]:
    """Per-SM added storage of every technique (§III-B1 / §IV-C)."""
    return {
        "regmutex": regmutex_storage_bits(config),
        "regmutex-paired": paired_storage_bits(config),
        "rfv": rfv_storage_bits(config),
        "owf": owf_storage_bits(config),
    }


# Zero-argument spec builders for every simulation-backed figure, in
# the paper's order: `repro bench` and EXPERIMENTS.md run the whole
# suite's job set from it in one deduplicated batch.
FIGURE_SPECS: dict[str, callable] = {
    "fig7": fig7_spec,
    "fig8": fig8_spec,
    "fig9a": fig9a_spec,
    "fig9b": fig9b_spec,
    "fig10": fig10_spec,
    "fig11": fig11_spec,
    "fig12a": lambda: fig12_spec(half_rf=False),
    "fig12b": lambda: fig12_spec(half_rf=True),
    "fig13": fig13_spec,
}


def takes_apps(name: str) -> bool:
    """Whether figure ``name`` takes an app subset (fig12*/fig13 have
    fixed app sets)."""
    return "apps" in inspect.signature(FIGURE_SPECS[name]).parameters


def figure_spec(
    name: str, apps: tuple[str, ...] | None = None
) -> ExperimentSpec:
    """Build one figure spec by name, forwarding ``apps`` where the
    figure takes it (:func:`takes_apps`) and ignoring it elsewhere.

    The one resolution path the CLI and the service daemon use; raises
    ``KeyError`` listing the known names on a typo.
    """
    if name not in FIGURE_SPECS:
        known = ", ".join(sorted(FIGURE_SPECS))
        raise KeyError(f"unknown figure {name!r} (known: {known})")
    if apps and takes_apps(name):
        return FIGURE_SPECS[name](apps=tuple(apps))
    return FIGURE_SPECS[name]()
