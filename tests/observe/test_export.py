"""Exporter tests: Chrome trace-event JSON and the CSV timeline.

Half of these run against real observed simulations (the integration
contract Perfetto relies on); the other half feed hand-built payloads to
``validate_chrome_trace`` to pin down each rejection path CI depends on.
"""

import csv
import json

import pytest

from repro.observe import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    ISSUE,
    EventLog,
    ProbeSeries,
    SimEvent,
    chrome_trace_events,
    timeline_rows,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_timeline_csv,
)
from repro.observe.export import REQUIRED_KEYS, TID_SM, TID_WARP_BASE


class TestChromeTraceFromRun:
    def test_every_event_has_required_keys(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        events = chrome_trace_events(obs.log, obs.samples)
        assert events
        for e in events:
            for key in REQUIRED_KEYS:
                assert key in e

    def test_trace_validates(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        events = chrome_trace_events(obs.log, obs.samples)
        assert validate_chrome_trace(events) == len(events)

    def test_track_variety(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        events = chrome_trace_events(obs.log, obs.samples)
        phases = {e["ph"] for e in events}
        assert {"M", "B", "E", "C", "i"} <= phases
        # Warp tracks and the process-scoped CTA instants both exist.
        tids = {e["tid"] for e in events}
        assert TID_SM in tids
        assert any(t >= TID_WARP_BASE for t in tids)

    def test_include_issues_adds_complete_events(self, run_sm,
                                                 regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel())
        with_issues = chrome_trace_events(obs.log, include_issues=True)
        xs = [e for e in with_issues if e["ph"] == "X"]
        assert len(xs) == stats.instructions_issued
        without = chrome_trace_events(obs.log, include_issues=False)
        assert not [e for e in without if e["ph"] == "X"]

    def test_file_round_trip(self, run_sm, regmutex_kernel, tmp_path):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, chrome_trace_events(obs.log, obs.samples))
        assert validate_trace_file(path) > 0
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["displayTimeUnit"] == "ms"

    def test_dangling_hold_is_closed(self):
        """A log that ends mid-hold (crashed run) still exports balanced
        B/E spans — the validator would reject it otherwise."""
        log = EventLog()
        log.append(SimEvent(5, ACQUIRE_BLOCKED, warp_id=0))
        log.append(SimEvent(9, ACQUIRE_OK, warp_id=0, value=1))
        log.append(SimEvent(20, ISSUE, warp_id=0, detail="ALU"))
        events = chrome_trace_events(log)
        assert validate_chrome_trace(events) == len(events)
        closes = [e for e in events if e["ph"] == "E"]
        assert any(e["name"] == "hold S1" and e["ts"] == 20 for e in closes)

    def test_dangling_hold_closes_at_final_sample(self):
        """A run that raised takes its final sample on the cycle it
        stopped; spans still open close there, not at the last event."""
        log = EventLog()
        log.append(SimEvent(9, ACQUIRE_OK, warp_id=0, value=1))
        samples = ProbeSeries()
        for name in samples.columns:
            getattr(samples, name).append(0)
        samples.cycle[-1] = 50
        samples.sched_issued.append((0,))
        events = chrome_trace_events(log, samples)
        assert validate_chrome_trace(events) == len(events)
        closes = [e for e in events if e["ph"] == "E"]
        assert [(e["name"], e["ts"]) for e in closes] == [("hold S1", 50)]


def _minimal(ph="i", **over):
    e = {"ph": ph, "ts": 0, "pid": 0, "tid": 0, "name": "x"}
    if ph == "i":
        e["s"] = "t"
    e.update(over)
    return e


class TestValidatorRejections:
    def test_rejects_non_trace_root(self):
        with pytest.raises(ValueError, match="expected object or array"):
            validate_chrome_trace("nope")

    def test_rejects_object_without_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": []})

    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="no events"):
            validate_chrome_trace([])

    def test_accepts_bare_array(self):
        assert validate_chrome_trace([_minimal()]) == 1

    @pytest.mark.parametrize("missing", REQUIRED_KEYS)
    def test_rejects_missing_required_key(self, missing):
        event = _minimal()
        del event[missing]
        with pytest.raises(ValueError, match=missing):
            validate_chrome_trace([event])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace([_minimal(ph="Z")])

    def test_rejects_end_without_begin(self):
        with pytest.raises(ValueError, match="'E' without matching 'B'"):
            validate_chrome_trace([_minimal(ph="E")])

    def test_rejects_unclosed_begin(self):
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace([_minimal(ph="B")])

    def test_balance_is_per_track(self):
        # B on track 1, E on track 2: both tracks are broken even though
        # the global count balances.
        events = [_minimal(ph="B", tid=1), _minimal(ph="E", tid=2)]
        with pytest.raises(ValueError):
            validate_chrome_trace(events)


class TestCsvTimeline:
    def test_headers_and_rows(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel())
        headers, rows = timeline_rows(obs.samples)
        assert headers[0] == "cycle"
        assert "srp_in_use" in headers
        num_scheds = len(obs.samples.sched_issued[0])
        assert headers[-num_scheds:] == [
            f"sched{j}_issued" for j in range(num_scheds)
        ]
        assert len(rows) == len(obs.samples)
        assert all(len(r) == len(headers) for r in rows)

    def test_csv_round_trip(self, run_sm, regmutex_kernel, tmp_path):
        obs, _, _ = run_sm(regmutex_kernel())
        path = str(tmp_path / "timeline.csv")
        write_timeline_csv(path, obs.samples)
        with open(path, newline="") as fh:
            read = list(csv.reader(fh))
        headers, rows = timeline_rows(obs.samples)
        assert read[0] == headers
        assert [[int(v) for v in row] for row in read[1:]] == rows
