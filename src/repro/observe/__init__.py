"""Simulation observability: event log, probes, exporters, perf artifacts.

The subsystem is strictly opt-in: an SM without an attached
:class:`SmObserver` pays one ``is not None`` branch per cycle and zero
allocations.  With one attached, every acquire/release/issue decision,
SRP section transition and CTA lifecycle event is appended to its
:class:`EventLog`, cycle-sampled :class:`ProbeSeries` timelines record
levels (stall attribution among them), and the exporters turn both
into Perfetto-loadable Chrome traces, CSV timelines, and text profile
reports.
"""

from repro.observe.bus import EventLog
from repro.observe.events import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    ISSUE,
    JOB_DONE,
    JOB_FAILED,
    JOB_KINDS,
    JOB_QUEUED,
    JOB_RUNNING,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    WARP_FINISH,
    WATCHDOG,
    SimEvent,
)
from repro.observe.export import (
    chrome_trace_events,
    job_trace_events,
    timeline_rows,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_timeline_csv,
)
from repro.observe.hooks import ObservingTechniqueState, SmObserver
from repro.observe.perf import (
    PERF_ARTIFACT_VERSION,
    artifact_filename,
    perf_artifact,
    write_perf_artifact,
)
from repro.observe.probes import ProbeSeries
from repro.observe.report import profile_report
from repro.observe.session import ProfileResult, profile_kernel

__all__ = [
    "ACQUIRE_BLOCKED",
    "ACQUIRE_OK",
    "CTA_LAUNCH",
    "CTA_RETIRE",
    "EventLog",
    "ISSUE",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_KINDS",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "ObservingTechniqueState",
    "PERF_ARTIFACT_VERSION",
    "ProbeSeries",
    "ProfileResult",
    "RELEASE",
    "SECTION_ACQUIRE",
    "SECTION_RELEASE",
    "SimEvent",
    "SmObserver",
    "WARP_FINISH",
    "WATCHDOG",
    "artifact_filename",
    "chrome_trace_events",
    "job_trace_events",
    "perf_artifact",
    "profile_kernel",
    "profile_report",
    "timeline_rows",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_perf_artifact",
    "write_timeline_csv",
]
