"""Wire-protocol unit tests: framing, versioning, spec marshalling,
and the typed-error round trip (no daemon involved)."""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    ServiceProtocolError,
    ServiceQueueFullError,
    ServiceSpecError,
    ServiceUnavailableError,
    ServiceVersionError,
)
from repro.harness.runner import _RETIRED_CONFIG_FIELDS
from repro.harness.spec import TechniqueSpec
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
    job_from_wire,
    job_to_wire,
    raise_wire_error,
)

from tests.service.conftest import make_job


class TestFraming:
    def test_encode_stamps_version_and_newline(self):
        raw = encode_frame({"op": "ping"})
        assert raw.endswith(b"\n")
        frame = json.loads(raw)
        assert frame["v"] == PROTOCOL_VERSION
        assert frame["op"] == "ping"

    def test_round_trip(self):
        frame = decode_frame(encode_frame({"op": "status", "n": 3}).rstrip())
        assert frame["op"] == "status" and frame["n"] == 3

    def test_non_json_is_protocol_error(self):
        with pytest.raises(ServiceProtocolError):
            decode_frame(b"not json at all")

    def test_non_object_is_protocol_error(self):
        with pytest.raises(ServiceProtocolError):
            decode_frame(b"[1, 2, 3]")

    def test_oversized_frame_is_protocol_error(self):
        blob = b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}'
        with pytest.raises(ServiceProtocolError, match="frame"):
            decode_frame(blob)

    def test_version_skew_is_typed(self):
        skewed = json.dumps({"v": PROTOCOL_VERSION + 99, "op": "ping"})
        with pytest.raises(ServiceVersionError):
            decode_frame(skewed.encode())


class TestJobMarshalling:
    def test_job_round_trips_to_equal_spec(self):
        job = make_job()
        assert job_from_wire(job_to_wire(job)) == job

    def test_technique_params_survive(self):
        job = make_job(technique=TechniqueSpec.of(
            "regmutex", extra_slots=4, mutex_timer=24
        ))
        back = job_from_wire(job_to_wire(job))
        assert back == job
        assert back.technique.params == job.technique.params

    def test_unknown_app_is_spec_error(self):
        wire = job_to_wire(make_job())
        wire["app"] = "NoSuchApp"
        with pytest.raises(ServiceSpecError, match="NoSuchApp"):
            job_from_wire(wire)

    def test_bad_config_field_is_spec_error(self):
        wire = job_to_wire(make_job())
        wire["config"]["no_such_field"] = 1
        with pytest.raises(ServiceSpecError):
            job_from_wire(wire)

    @pytest.mark.parametrize("field", sorted(_RETIRED_CONFIG_FIELDS))
    def test_retired_config_field_is_spec_error(self, field):
        """A client still sending a deleted knob (``model_bank_conflicts``
        among them) is refused by name, never run with it dropped."""
        wire = job_to_wire(make_job())
        wire["config"][field] = _RETIRED_CONFIG_FIELDS[field]
        with pytest.raises(ServiceSpecError, match=field):
            job_from_wire(wire)


class TestErrorRoundTrip:
    @pytest.mark.parametrize("exc", [
        ServiceQueueFullError("queue is full"),
        ServiceSpecError("bad spec"),
        ServiceUnavailableError("draining"),
        ServiceVersionError("skew"),
        ServiceProtocolError("garbage"),
    ])
    def test_typed_error_survives_the_wire(self, exc):
        frame = decode_frame(encode_frame(error_frame(exc)).rstrip())
        assert frame["ok"] is False
        with pytest.raises(type(exc)):
            raise_wire_error(frame)
