"""Simulation observability: event bus, probes, exporters, perf artifacts.

The subsystem is strictly opt-in: an SM without an attached
:class:`SmObserver` pays one ``is not None`` branch per cycle and zero
allocations.  With one attached, every acquire/release/issue decision,
stall attribution delta, and CTA lifecycle event flows over the
:class:`EventBus`, cycle-sampled :class:`ProbeSeries` timelines record
levels, and the exporters turn both into Perfetto-loadable Chrome
traces, CSV timelines, and text profile reports.
"""

from repro.observe.bus import EventBus, EventLog
from repro.observe.events import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    ALL_KINDS,
    CTA_LAUNCH,
    CTA_RETIRE,
    FAST_FORWARD,
    ISSUE,
    JOB_DONE,
    JOB_FAILED,
    JOB_KINDS,
    JOB_QUEUED,
    JOB_RESUMED,
    JOB_RUNNING,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    STALL,
    STALL_CATEGORIES,
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
from repro.observe.probes import ProbeSample, ProbeSeries
from repro.observe.report import profile_report
from repro.observe.session import ProfileResult, profile_kernel

__all__ = [
    "ACQUIRE_BLOCKED",
    "ACQUIRE_OK",
    "ALL_KINDS",
    "CTA_LAUNCH",
    "CTA_RETIRE",
    "EventBus",
    "EventLog",
    "FAST_FORWARD",
    "ISSUE",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_KINDS",
    "JOB_QUEUED",
    "JOB_RESUMED",
    "JOB_RUNNING",
    "ObservingTechniqueState",
    "PERF_ARTIFACT_VERSION",
    "ProbeSample",
    "ProbeSeries",
    "ProfileResult",
    "RELEASE",
    "SECTION_ACQUIRE",
    "SECTION_RELEASE",
    "STALL",
    "STALL_CATEGORIES",
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
