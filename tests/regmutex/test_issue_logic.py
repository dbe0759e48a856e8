"""Tests for RegMutex issue-stage logic and technique wiring."""

import random

import pytest

from repro.arch.config import GTX480, fermi_like
from repro.isa.builder import KernelBuilder
from repro.regmutex.issue_logic import (
    RegMutexSmState,
    RegMutexTechnique,
    srp_section_count,
)
from repro.sim.rand import DeterministicRng
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState
from repro.sim.warp import Warp, WarpStatus
from repro.workloads.suite import build_app_kernel, get_app
from tests.conftest import straightline_kernel


class TestSrpSectionCount:
    def test_paper_worked_example(self):
        """|Bs|=18/20/16 with 48 warps on 32K registers leave 26/16/32
        sections (§III-A2)."""
        assert srp_section_count(GTX480, 48, 18, 6) == 26
        assert srp_section_count(GTX480, 48, 20, 4) == 16
        assert srp_section_count(GTX480, 48, 16, 8) == 32

    def test_capped_at_warp_slots(self):
        assert srp_section_count(GTX480, 8, 4, 2) == GTX480.max_warps_per_sm

    def test_zero_when_no_leftover(self):
        cfg = fermi_like(registers_per_sm=48 * 18 * 32)
        assert srp_section_count(cfg, 48, 18, 6) == 0

    def test_zero_es(self):
        assert srp_section_count(GTX480, 48, 18, 0) == 0


def _state(sections=2, retry="wakeup", config=None):
    config = config or GTX480
    kernel = straightline_kernel()
    stats = SmStats()
    return RegMutexSmState(kernel, config, stats, sections, retry), stats


def _warp(wid, kernel=None):
    return Warp(wid, 0, kernel or straightline_kernel(), DeterministicRng(wid))


class TestAcquireRelease:
    def test_acquire_grants_and_counts(self):
        state, stats = _state(sections=2)
        w = _warp(0)
        assert state.try_acquire(w, cycle=10)
        assert w.holds_extended_set
        assert stats.acquire_attempts == 1
        assert stats.acquire_successes == 1

    def test_exhausted_pool_parks_warp(self):
        state, stats = _state(sections=1)
        w0, w1 = _warp(0), _warp(1)
        assert state.try_acquire(w0, 0)
        assert not state.try_acquire(w1, 5)
        assert w1.status is WarpStatus.WAITING_ACQUIRE
        assert stats.acquire_attempts == 2
        assert stats.acquire_successes == 1

    def test_release_wakes_one_fifo(self):
        state, stats = _state(sections=1)
        w0, w1, w2 = _warp(0), _warp(1), _warp(2)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 1)
        state.try_acquire(w2, 2)
        state.release(w0, 10)
        woken = state.wakeup_pending()
        assert woken == [w1]  # FIFO: first blocked first woken
        assert state.waiting_warps == 1  # w2 still parked

    def test_wait_cycles_accounted(self):
        state, stats = _state(sections=1)
        w0, w1 = _warp(0), _warp(1)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 100)
        state.release(w0, 150)
        w1.status = WarpStatus.READY
        assert state.try_acquire(w1, 160)
        assert stats.acquire_wait_cycles == 60

    def test_warp_finish_reclaims_section(self):
        state, stats = _state(sections=1)
        w0, w1 = _warp(0), _warp(1)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 1)
        state.on_warp_finish(w0, 20)
        assert not w0.holds_extended_set
        assert state.wakeup_pending() == [w1]

    def test_finish_removes_from_wait_queue(self):
        state, _ = _state(sections=1)
        w0, w1 = _warp(0), _warp(1)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 1)
        state.on_warp_finish(w1, 5)  # parked warp dies (exception path)
        state.release(w0, 10)
        assert list(state.wakeup_pending()) == []

    def test_eager_policy_does_not_park(self):
        state, _ = _state(sections=1, retry="eager")
        w0, w1 = _warp(0), _warp(1)
        state.try_acquire(w0, 0)
        assert not state.try_acquire(w1, 1)
        assert w1.status is WarpStatus.READY  # retries at next issue round

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            _state(retry="spin")


class TestTechnique:
    def test_occupancy_uses_bs(self):
        spec = get_app("BFS")
        tech = RegMutexTechnique(extended_set_size=spec.expected_es)
        kernel = build_app_kernel(spec)
        compiled = tech.prepare_kernel(kernel, GTX480)
        occ = tech.occupancy(compiled, GTX480)
        from repro.sim.technique import BaselineTechnique
        base_occ = BaselineTechnique().occupancy(kernel, GTX480)
        assert occ.resident_warps > base_occ.resident_warps

    def test_uninstrumented_kernel_falls_back(self):
        spec = get_app("Gaussian")  # not register-limited on full RF
        tech = RegMutexTechnique()
        kernel = build_app_kernel(spec)
        compiled = tech.prepare_kernel(kernel, GTX480)
        assert not compiled.metadata.uses_regmutex
        assert tech.num_sections(compiled, GTX480) == 0

    def test_sections_match_selection(self):
        spec = get_app("BFS")
        tech = RegMutexTechnique(extended_set_size=spec.expected_es)
        compiled = tech.prepare_kernel(build_app_kernel(spec), GTX480)
        occ = tech.occupancy(compiled, GTX480)
        assert tech.num_sections(compiled, GTX480) == srp_section_count(
            GTX480, occ.resident_warps, spec.expected_bs, spec.expected_es
        )


class TestStaleWakeup:
    def test_pending_wakeup_of_finished_warp_hands_on(self):
        """Regression: if a warp finished after release() earmarked a
        wakeup for it but before the wakeup landed, the wakeup — and with
        it the freed section — evaporated, leaving the next waiter parked
        forever."""
        state, _ = _state(sections=1)
        w0, w1, w2 = _warp(0), _warp(1), _warp(2)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 1)  # parks w1
        state.try_acquire(w2, 2)  # parks w2
        state.release(w0, 10)     # wakeup earmarked for w1
        state.on_warp_finish(w1, 11)  # ... but w1 dies first
        assert state.wakeup_pending() == [w2]
        w2.status = WarpStatus.READY
        assert state.try_acquire(w2, 12)  # the section was not lost

    def test_stale_wakeup_with_empty_queue_just_drops(self):
        state, _ = _state(sections=1)
        w0, w1 = _warp(0), _warp(1)
        state.try_acquire(w0, 0)
        state.try_acquire(w1, 1)
        state.release(w0, 10)
        state.on_warp_finish(w1, 11)  # no further waiters to hand to
        assert list(state.wakeup_pending()) == []


class TestMuxResolution:
    """The Figure 6b mux: the sanitizer's physical-bounds and
    physical-aliasing checks read register placement through it."""

    CONFIG = fermi_like(
        name="mux", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8,
    )

    def _mux_state(self, sections=2):
        kernel = straightline_kernel().with_metadata(
            regs_per_thread=8, base_set_size=6, extended_set_size=2
        )
        state = RegMutexSmState(
            kernel, self.CONFIG, SmStats(), num_sections=sections
        )
        return state, Warp(0, 0, kernel, DeterministicRng(0))

    def _assert_no_collisions(self, state, warp_regs):
        """Every (warp, architected register) pair resolves to its own
        physical register inside the file."""
        seen: dict[int, tuple[int, int]] = {}
        for warp, regs in warp_regs:
            for x in regs:
                phys = state.resolve_physical(warp, x)
                assert 0 <= phys < self.CONFIG.registers_per_sm
                assert phys not in seen, (
                    f"(slot {warp.slot}, R{x}) and {seen[phys]} share "
                    f"physical {phys}"
                )
                seen[phys] = (warp.slot, x)

    def test_baseline_y_equals_x_plus_coeff_times_widx(self):
        """Figure 6a: the stock mapping, Coeff the kernel's per-thread
        register count and Widx the warp's SM slot."""
        kernel = straightline_kernel().with_metadata(regs_per_thread=24)
        state = SmTechniqueState(kernel, self.CONFIG, SmStats())
        rng = DeterministicRng(0)
        assert state.resolve_physical(Warp(0, 0, kernel, rng), 5) == 5
        warp = Warp(11, 0, kernel, rng, slot=3)
        assert state.resolve_physical(warp, 5) == 5 + 24 * 3

    def test_baseline_no_collisions_across_warps(self):
        kernel = straightline_kernel().with_metadata(regs_per_thread=24)
        state = SmTechniqueState(kernel, self.CONFIG, SmStats())
        self._assert_no_collisions(state, [
            (Warp(slot, 0, kernel, DeterministicRng(slot)), range(24))
            for slot in range(self.CONFIG.max_warps_per_sm)
        ])

    def test_regmutex_base_path_uses_base_set_coefficient(self):
        state, _ = self._mux_state()
        warp = Warp(2, 0, state.kernel, DeterministicRng(2))
        assert state.resolve_physical(warp, 5) == 5 + 6 * 2

    def test_regmutex_mux_resolution(self):
        """Base registers map into the warp's base block; extended ones
        into its SRP section, past every warp's base block."""
        state, warp = self._mux_state()
        assert state.resolve_physical(warp, 3) == 3  # slot 0, base block
        state.try_acquire(warp, 0)
        ext_phys = state.resolve_physical(warp, 6)
        srp_offset = 6 * self.CONFIG.max_warps_per_sm
        assert ext_phys == srp_offset + 2 * (warp.srp_section or 0)

    def test_regmutex_extended_path_uses_lut(self):
        """The extended path indexes the SRP by the section the LUT
        holds for the warp's slot, not by the slot itself."""
        state, first = self._mux_state(sections=2)
        state.try_acquire(first, 0)  # takes section 0
        warp = Warp(2, 0, state.kernel, DeterministicRng(2))
        state.try_acquire(warp, 1)
        section = state.srp.lut_entry(2)
        assert section == warp.srp_section == 1
        srp_offset = 6 * self.CONFIG.max_warps_per_sm
        assert state.resolve_physical(warp, 7) == (7 - 6) + 2 * section + srp_offset

    def test_extended_without_section_falls_back(self):
        state, warp = self._mux_state()
        # No section held: the mux falls back to the base formula rather
        # than crashing (the verifier forbids this case statically).
        assert state.resolve_physical(warp, 6) == 6

    def test_no_physical_collisions_between_holders(self):
        """The central safety property: whichever warps hold sections,
        and whichever sections they hold, all (warp, architected
        register) pairs resolve to distinct physical registers."""
        rng = random.Random(6)
        slots = self.CONFIG.max_warps_per_sm
        holder_counts = set()
        for _ in range(200):
            state, _ = self._mux_state(sections=3)
            warps = [
                Warp(slot, 0, state.kernel, DeterministicRng(slot))
                for slot in range(slots)
            ]
            # A random acquire/release history, so sections reach the
            # holders in every order the find-first-zero allocator allows.
            for cycle in range(rng.randrange(1, 24)):
                warp = rng.choice(warps)
                if warp.holds_extended_set:
                    state.release(warp, cycle)
                else:
                    state.try_acquire(warp, cycle)
            holder_counts.add(sum(w.holds_extended_set for w in warps))
            self._assert_no_collisions(state, [
                (w, range(8 if w.holds_extended_set else 6)) for w in warps
            ])
        assert holder_counts == {0, 1, 2, 3}
