"""Experiment harness: declarative specs, orchestration, telemetry.

:mod:`repro.harness.runner` provides cached, tail-free kernel runs;
:mod:`repro.harness.spec` declares experiments as (app, config,
technique) job sets plus row builders; :mod:`repro.harness.experiments`
declares every experiment of §IV that way;
:mod:`repro.harness.figures` declares each figure's table, means and
paper claims; :mod:`repro.harness.orchestrator` runs specs, deduplicated,
in-process or on a process pool;
:mod:`repro.harness.telemetry` records per-job wall time, cache
hit/miss counts, and worker utilization;
:mod:`repro.harness.reporting` renders the same rows/series the paper
plots as ASCII tables.
"""

from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    TechniqueSpec,
)
from repro.harness.orchestrator import Orchestrator
from repro.harness.telemetry import JobTiming, SessionTelemetry
from repro.harness.experiments import (
    FIGURE_SPECS,
    fig1_liveness_traces,
    table1_workloads,
    storage_overhead_comparison,
)
from repro.harness.reporting import (
    format_table,
    format_percent_series,
    format_telemetry,
)
from repro.harness.export import rows_to_csv, read_csv_rows

__all__ = [
    "ExperimentRunner",
    "RunRecord",
    "ExperimentSpec",
    "JobSpec",
    "JobResults",
    "JobFailure",
    "TechniqueSpec",
    "Orchestrator",
    "JobTiming",
    "SessionTelemetry",
    "FIGURE_SPECS",
    "fig1_liveness_traces",
    "table1_workloads",
    "storage_overhead_comparison",
    "format_table",
    "format_percent_series",
    "format_telemetry",
    "rows_to_csv",
    "read_csv_rows",
]
