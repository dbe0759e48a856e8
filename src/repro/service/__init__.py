"""Simulation-as-a-service: persistent daemon, protocol, and client.

One warm process in front of the journaled run store (see
docs/ARCHITECTURE.md, "service daemon"): :class:`SimulationService` accepts
job/experiment submissions over newline-delimited JSON, dedups them
three ways (batch, run store, in-flight singleflight), executes on a
persistent worker pool that retries a dead worker's job from cycle 0,
and streams per-job telemetry events to subscribed clients and into its
event log.
"""

from repro.service.client import ServiceClient, SubmitResult
from repro.service.daemon import (
    ServiceConfig,
    SimulationService,
    serve,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
    job_from_wire,
    job_to_wire,
    raise_wire_error,
    record_from_wire,
    record_to_wire,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceConfig",
    "SimulationService",
    "SubmitResult",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "job_from_wire",
    "job_to_wire",
    "raise_wire_error",
    "record_from_wire",
    "record_to_wire",
    "serve",
]
