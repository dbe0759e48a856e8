"""Tests for the technique interface defaults and baseline."""

from repro.arch.config import GTX480
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique, SmTechniqueState
from repro.sim.rand import DeterministicRng
from repro.sim.warp import Warp
from tests.conftest import straightline_kernel


class TestDefaults:
    def test_default_state_is_permissive(self):
        kernel = straightline_kernel()
        state = SmTechniqueState(kernel, GTX480, SmStats())
        warp = Warp(0, 0, kernel, DeterministicRng(0))
        assert state.can_issue(warp, kernel[0], 0)
        assert state.try_acquire(warp, 0)     # stock GPU: acquire is a no-op
        state.release(warp, 0)                 # and so is release
        state.on_issue(warp, kernel[0], 0)
        state.on_warp_finish(warp, 0)
        assert list(state.wakeup_pending()) == []

    def test_baseline_occupancy_matches_calculator(self):
        from repro.arch.occupancy import theoretical_occupancy
        kernel = straightline_kernel()
        tech = BaselineTechnique()
        assert tech.occupancy(kernel, GTX480) == theoretical_occupancy(
            GTX480, kernel.metadata
        )

    def test_baseline_prepare_is_identity(self):
        kernel = straightline_kernel()
        assert BaselineTechnique().prepare_kernel(kernel, GTX480) is kernel


class TestStats:
    def test_acquire_success_rate_default_one(self):
        assert SmStats().acquire_success_rate == 1.0

    def test_merge_takes_max_cycles_and_sums_counts(self):
        a, b = SmStats(), SmStats()
        a.cycles, b.cycles = 100, 80
        a.instructions_issued, b.instructions_issued = 10, 20
        a.merge(b)
        assert a.cycles == 100
        assert a.instructions_issued == 30

    def test_achieved_occupancy(self):
        s = SmStats()
        s.cycles = 10
        s.resident_warp_cycles = 240
        assert s.achieved_occupancy(48) == 0.5
        assert SmStats().achieved_occupancy(48) == 0.0

    def test_kernel_stats_reduction_helpers(self):
        from repro.sim.stats import KernelStats
        base = KernelStats("k", "c", "baseline", cycles=200,
                           theoretical_occupancy=0.5, ctas_per_sm=2)
        fast = KernelStats("k", "c", "regmutex", cycles=150,
                           theoretical_occupancy=1.0, ctas_per_sm=4)
        assert fast.cycle_reduction_vs(base) == 0.25
        assert fast.cycle_increase_vs(base) == -0.25


class TestDelegatingTechniqueState:
    def test_forwards_every_hook(self):
        """A hook added to SmTechniqueState must be forwarded too, or a
        wrapped SM silently runs the stock default for it."""
        import inspect

        from repro.sim.technique import DelegatingTechniqueState

        hooks = {
            name for name, member in vars(SmTechniqueState).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or member is None)
        }
        assert "scheduler_priority" in hooks
        assert hooks <= set(vars(DelegatingTechniqueState))

    def test_wrapper_forwards_the_scheduler_priority(self):
        from repro.baselines.owf import OwfSmState, owf_priority
        from repro.sim.technique import DelegatingTechniqueState

        state = OwfSmState(straightline_kernel(), GTX480, SmStats(),
                           base_ctas=1, extra_ctas=1)
        wrapped = DelegatingTechniqueState(DelegatingTechniqueState(state))
        assert wrapped.scheduler_priority is owf_priority

    def test_innermost_unwraps_nested_wrappers(self):
        from repro.sim.technique import DelegatingTechniqueState, innermost

        kernel = straightline_kernel()
        state = SmTechniqueState(kernel, GTX480, SmStats())
        wrapped = DelegatingTechniqueState(DelegatingTechniqueState(state))
        assert innermost(wrapped) is state
        assert innermost(state) is state
