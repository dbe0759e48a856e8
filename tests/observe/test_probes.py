"""Probe-series tests: stride sampling and the columnar timeline."""

import pytest

from repro.observe import ProbeSeries


class TestProbeSeries:
    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            ProbeSeries(stride=0)

    def test_columns_stay_parallel(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), stride=8)
        s = obs.samples
        n = len(s)
        assert n > 1
        for name in s.columns:
            assert len(getattr(s, name)) == n
        assert len(s.sched_issued) == n

    def test_cycles_strictly_increasing_and_stride_spaced(self, run_sm,
                                                          regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), stride=16)
        cycles = obs.samples.cycle
        assert cycles == sorted(set(cycles))
        # All gaps except the final flush sample respect the stride.
        gaps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert all(g >= 16 for g in gaps[:-1])

    def test_srp_columns_track_the_pool(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=2)
        s = obs.samples
        assert all(t == 2 for t in s.srp_total)
        assert all(0 <= u <= t for u, t in zip(s.srp_in_use, s.srp_total))
        assert 0.0 <= s.srp_utilization() <= 1.0
        assert s.peak_srp_in_use() <= 2

    def test_contended_run_shows_waiting_warps(self, run_sm,
                                               regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=4,
                           stride=4)
        assert any(w > 0 for w in obs.samples.warps_waiting_acquire)
        assert obs.samples.peak_srp_in_use() == 1

    def test_live_register_pressure_positive_while_resident(self, run_sm,
                                                            regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), stride=4)
        s = obs.samples
        assert any(v > 0 for v in s.live_registers)
        # Pressure rises when a warp holds its extended set.
        assert any(h > 0 for h in s.section_holders)

    def test_scheduler_columns_sum_to_issued_total(self, run_sm,
                                                   regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel(), total_ctas=2)
        final = obs.samples.sched_issued[-1]
        assert sum(final) == stats.instructions_issued

    def test_counters_monotonic(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=3,
                           stride=8)
        s = obs.samples
        for name in ("instructions_issued", "idle_scheduler_cycles",
                     "stall_memory", "stall_acquire"):
            col = getattr(s, name)
            assert all(a <= b for a, b in zip(col, col[1:])), name
