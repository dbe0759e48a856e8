"""Tests for the OWF baseline model."""

import pytest

from repro.arch.config import GTX480, fermi_like
from repro.baselines.owf import OwfSmState, OwfTechnique, owf_priority, _extra_ctas
from repro.isa.instructions import Instruction, Opcode
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique
from repro.sim.warp import Warp, WarpStatus
from repro.workloads.suite import build_app_kernel, get_app
from tests.conftest import straightline_kernel


def _state(base_ctas=2, extra_ctas=1, threshold_kernel=None):
    kernel = threshold_kernel or straightline_kernel()
    kernel = kernel.with_metadata(
        regs_per_thread=8, base_set_size=4, extended_set_size=4
    )
    stats = SmStats()
    return OwfSmState(kernel, GTX480, stats, base_ctas, extra_ctas), stats


def _warp(wid, cta):
    w = Warp(wid, cta, straightline_kernel(), DeterministicRng(wid))
    return w


def _shared_inst():
    return Instruction(Opcode.IADD, (5,), (6,))   # touches >= threshold 4


def _base_inst():
    return Instruction(Opcode.IADD, (0,), (1,))


class TestOwfState:
    def test_native_warps_own_from_launch(self):
        state, _ = _state()
        native = _warp(0, cta=0)
        assert state.can_issue(native, _shared_inst(), 0)
        assert native.owns_pair_lock

    def test_extra_warp_free_in_base_region(self):
        state, _ = _state(base_ctas=2, extra_ctas=1)
        extra = _warp(10, cta=2)  # cta 2 >= base 2 -> extra
        assert state.is_extra(extra)
        assert state.can_issue(extra, _base_inst(), 0)

    def test_extra_warp_blocks_on_shared_access(self):
        state, stats = _state(base_ctas=2, extra_ctas=1)
        native = _warp(0, cta=0)
        state.can_issue(native, _base_inst(), 0)  # registers the native
        extra = _warp(10, cta=2)
        assert not state.can_issue(extra, _shared_inst(), 5)
        assert extra.status is WarpStatus.WAITING_ACQUIRE
        assert stats.acquire_attempts == 1
        assert stats.acquire_successes == 0

    def test_partner_finish_unblocks_extra(self):
        state, stats = _state(base_ctas=1, extra_ctas=1)
        native = _warp(0, cta=0)
        state.can_issue(native, _base_inst(), 0)
        extra = _warp(10, cta=1)
        state.can_issue(extra, _shared_inst(), 5)
        state.on_warp_finish(native, 50)
        assert state.wakeup_pending() == [extra]
        assert extra.owns_pair_lock
        assert stats.acquire_successes == 1
        assert stats.acquire_wait_cycles == 45

    def test_extra_owns_when_no_native_alive(self):
        state, _ = _state(base_ctas=1, extra_ctas=1)
        extra = _warp(10, cta=1)
        assert state.can_issue(extra, _shared_inst(), 0)
        assert extra.owns_pair_lock

    def test_priority_prefers_owners(self):
        owner, waiter = _warp(0, 0), _warp(1, 1)
        owner.owns_pair_lock = True
        assert owf_priority(owner) < owf_priority(waiter)


class TestOwfTechnique:
    def test_occupancy_at_least_baseline(self):
        for app in ("BFS", "SAD", "CUTCP"):
            spec = get_app(app)
            kernel = build_app_kernel(spec)
            tech = OwfTechnique()
            compiled = tech.prepare_kernel(kernel, GTX480)
            owf_occ = tech.occupancy(compiled, GTX480)
            base_occ = BaselineTechnique().occupancy(kernel, GTX480)
            assert owf_occ.ctas_per_sm >= base_occ.ctas_per_sm

    def test_extra_ctas_never_overcommit_registers(self):
        for app in ("BFS", "SAD", "ParticleFilter", "RadixSort"):
            spec = get_app(app)
            kernel = build_app_kernel(spec)
            tech = OwfTechnique()
            compiled = tech.prepare_kernel(kernel, GTX480)
            md = compiled.metadata
            base = BaselineTechnique().occupancy(compiled, GTX480)
            extra = _extra_ctas(GTX480, md, base)
            used = (
                base.ctas_per_sm * md.regs_per_thread
                + extra * (md.base_set_size or md.regs_per_thread)
            ) * md.threads_per_cta
            assert used <= GTX480.registers_per_sm
            total_threads = (base.ctas_per_sm + extra) * md.threads_per_cta
            assert total_threads <= GTX480.max_threads_per_sm

    def test_rejects_precompiled_kernel(self):
        spec = get_app("BFS")
        kernel = build_app_kernel(spec).with_metadata(
            base_set_size=18, extended_set_size=6, regs_per_thread=24
        )
        with pytest.raises(ValueError):
            OwfTechnique().prepare_kernel(kernel, GTX480)

    def test_owner_warp_first_needs_gto(self):
        """The SM builds its schedulers from the state's owner-warp-first
        hook, which only GTO takes: an OWF state on LRR fails at SM
        construction instead of running without OWF's scheduling."""
        config = fermi_like(num_sms=1, scheduler_policy="lrr")
        kernel = straightline_kernel()
        stats = SmStats()
        state = OwfSmState(kernel, config, stats, base_ctas=1, extra_ctas=1)
        with pytest.raises(ValueError, match="only supported for GTO"):
            StreamingMultiprocessor(
                sm_id=0, config=config, kernel=kernel, technique_state=state,
                ctas_resident_limit=1, total_ctas=1,
                rng=DeterministicRng(1), stats=stats,
            )
