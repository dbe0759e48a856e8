"""Unit tests for the event log (no simulator involved)."""

from repro.observe import (
    ACQUIRE_OK,
    CTA_LAUNCH,
    ISSUE,
    RELEASE,
    WARP_FINISH,
    EventLog,
    SimEvent,
)


def _ev(cycle, kind, warp_id=-1, value=0):
    return SimEvent(cycle, kind, warp_id=warp_id, value=value)


class TestEventLog:
    def _log(self, *events):
        log = EventLog()
        for e in events:
            log.append(e)
        return log

    def test_len_iter_and_of_kind(self):
        log = self._log(_ev(1, ISSUE, 0), _ev(2, RELEASE, 0),
                        _ev(3, ISSUE, 1))
        assert len(log) == 3
        assert [e.cycle for e in log] == [1, 2, 3]
        assert len(log.of_kind(ISSUE)) == 2

    def test_for_warp_and_warp_ids(self):
        log = self._log(_ev(1, ISSUE, 0), _ev(2, ISSUE, 3),
                        _ev(3, CTA_LAUNCH, value=2))
        assert [e.warp_id for e in log.for_warp(3)] == [3]
        assert log.warp_ids() == [0, 3]  # a CTA launch has no warp subject

    def test_hold_intervals_pairing(self):
        log = self._log(
            _ev(10, ACQUIRE_OK, 0), _ev(20, RELEASE, 0),
            _ev(30, ACQUIRE_OK, 0), _ev(45, RELEASE, 0),
        )
        assert log.hold_intervals(0) == [(10, 20), (30, 45)]

    def test_unmatched_hold_closes_at_finish(self):
        log = self._log(_ev(10, ACQUIRE_OK, 0), _ev(25, WARP_FINISH, 0))
        assert log.hold_intervals(0) == [(10, 25)]

    def test_unmatched_hold_closes_at_last_logged_cycle(self):
        log = self._log(_ev(10, ACQUIRE_OK, 0), _ev(99, ISSUE, 1))
        assert log.hold_intervals(0) == [(10, 99)]
