"""Progress watchdog, cycle-limit backstop, and structured deadlock errors."""

import dataclasses
from unittest import mock

import pytest

import repro.sim.sm as sm_mod
from repro.arch.config import fermi_like
from repro.errors import (
    CycleLimitExceededError,
    DeadlockDiagnostic,
    SimulationDeadlockError,
    SimulationError,
)
from repro.isa.builder import KernelBuilder
from repro.observe import SmObserver
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.gpu import Gpu
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique
from tests.conftest import looped_kernel, straightline_kernel


def srp_kernel():
    """Pre-instrumented acquire/work/release kernel (|Bs|=|Es|=4)."""
    b = KernelBuilder(name="srp-probe", regs_per_thread=8, threads_per_cta=64)
    for reg in range(4):
        b.ldc(reg)
    b.acquire()
    b.alu(4, 0, 1)
    b.alu(5, 4, 2)
    b.release()
    b.store(0, 5)
    b.exit()
    return b.build().with_metadata(base_set_size=4, extended_set_size=4)


def starved_sm(config, retry_policy, num_sections=0):
    """An SM whose warps contend for an SRP that can never satisfy them.

    ``num_sections=0`` means every acquire fails forever: with the
    wakeup policy all warps park (provable deadlock, no timers); with
    the eager policy they re-poll on backoff timers (livelock — only
    the watchdog can see it).
    """
    kernel = srp_kernel()
    stats = SmStats()
    state = RegMutexSmState(
        kernel, config, stats,
        num_sections=num_sections, retry_policy=retry_policy,
    )
    return StreamingMultiprocessor(
        sm_id=0, config=config, kernel=kernel, technique_state=state,
        ctas_resident_limit=2, total_ctas=4,
        rng=DeterministicRng(7), stats=stats,
    )


class TestDeadlockDetection:
    def test_wakeup_starvation_is_provable_deadlock(self, tiny_config):
        sm = starved_sm(tiny_config, "wakeup")
        with pytest.raises(SimulationDeadlockError, match="no pending timer") as ei:
            sm.run()
        diag = ei.value.diagnostic
        assert isinstance(diag, DeadlockDiagnostic)
        assert diag.blocked_on_acquire()           # waiters are visible
        assert diag.technique["num_sections"] == 0  # and so is the SRP
        # Caught essentially immediately — orders of magnitude under the
        # acceptance bound.
        assert diag.cycle < 100_000

    def test_eager_starvation_caught_by_watchdog(self, tiny_config):
        sm = starved_sm(tiny_config, "eager")
        with pytest.raises(SimulationDeadlockError, match="watchdog") as ei:
            sm.run()
        diag = ei.value.diagnostic
        assert isinstance(diag, DeadlockDiagnostic)
        # Fires one window past the last progress, never later than two.
        window = tiny_config.watchdog_window
        assert diag.cycle - diag.last_progress_cycle > window
        assert diag.cycle < 2 * window + 1_000
        assert diag.cycle < 100_000

    def test_watchdog_disabled_falls_through_to_cycle_limit(self, tiny_config):
        config = dataclasses.replace(tiny_config, watchdog_window=0)
        sm = starved_sm(config, "eager")
        with pytest.raises(CycleLimitExceededError) as ei:
            sm.run(max_cycles=30_000)
        assert ei.value.kind == "cycle-limit"
        assert ei.value.diagnostic is not None

    def test_deadlock_errors_are_simulation_errors(self, tiny_config):
        sm = starved_sm(tiny_config, "wakeup")
        with pytest.raises(SimulationError) as ei:
            sm.run()
        assert ei.value.kind == "deadlock"

    def test_diagnostic_summary_mentions_waiters(self, tiny_config):
        sm = starved_sm(tiny_config, "wakeup")
        with pytest.raises(SimulationDeadlockError) as ei:
            sm.run()
        assert "wait_acquire" in str(ei.value)


class TestNoFalsePositives:
    """Legitimate workloads — including long memory stalls and barriers —
    must never trip the watchdog."""

    def test_straightline_completes(self, tiny_config):
        result = Gpu(tiny_config, BaselineTechnique()).launch(
            straightline_kernel(), grid_ctas=8
        )
        assert result.cycles > 0

    def test_looped_kernel_completes(self, tiny_config):
        result = Gpu(tiny_config, BaselineTechnique()).launch(
            looped_kernel(trips=16), grid_ctas=8
        )
        assert result.cycles > 0

    def test_contended_regmutex_completes(self, tiny_config):
        # One section and many warps: heavy acquire contention, but a
        # live schedule — progress is slow, not absent.
        kernel = srp_kernel()
        stats = SmStats()
        state = RegMutexSmState(
            kernel, tiny_config, stats, num_sections=1, retry_policy="eager"
        )
        sm = StreamingMultiprocessor(
            sm_id=0, config=tiny_config, kernel=kernel, technique_state=state,
            ctas_resident_limit=2, total_ctas=6,
            rng=DeterministicRng(11), stats=stats,
        )
        assert sm.run().cycles > 0


class TestMultiWindowSleep:
    """Regression: the fast-forward watchdog credit.

    A fast-forward that jumps to a *completion-backed* target (an
    in-flight memory request or a scoreboard writeback) is real
    progress and must be credited against the watchdog, even when the
    jump spans several watchdog windows; a jump to a pure sleeper-wake
    target (eager acquire backoff) must NOT be credited, or livelocks
    that re-poll forever would look alive.  Both halves are pinned here
    with a window far smaller than one DRAM round-trip.
    """

    @staticmethod
    def _tight_window_config(engine, **overrides):
        base = dict(
            name="tight-window",
            num_sms=1,
            max_warps_per_sm=8,
            max_ctas_per_sm=4,
            max_threads_per_sm=256,
            registers_per_sm=4096,
            shared_mem_per_sm=16 * 1024,
            dram_latency=400,
            l1_hit_latency=10,
            watchdog_window=50,
            issue_engine=engine,
        )
        base.update(overrides)
        return fermi_like(**base)

    @staticmethod
    def _memory_sleep_kernel():
        # One lone warp issues a DRAM load and sleeps ~400 cycles — eight
        # watchdog windows — with nothing else to issue.
        b = KernelBuilder(name="mem-sleep", regs_per_thread=4,
                          threads_per_cta=32)
        b.ldc(0)
        b.load(1, 0)
        b.alu(2, 1, 1)
        b.store(0, 2)
        b.exit()
        return b.build()

    @pytest.mark.parametrize("engine", ("scan", "columnar"))
    def test_multi_window_memory_sleep_completes(self, engine):
        config = self._tight_window_config(engine)
        result = Gpu(config, BaselineTechnique()).launch(
            self._memory_sleep_kernel(), grid_ctas=1
        )
        # The run genuinely outlived the window many times over.
        assert result.cycles > 4 * config.watchdog_window

    @pytest.mark.parametrize("engine", ("scan", "columnar"))
    def test_credit_does_not_change_the_schedule(self, engine):
        # Crediting skips touches only watchdog bookkeeping: the result
        # must be bit-identical to a run where the watchdog never comes
        # close to firing.
        tight = Gpu(self._tight_window_config(engine), BaselineTechnique())
        roomy = Gpu(
            self._tight_window_config(engine, watchdog_window=1_000_000),
            BaselineTechnique(),
        )
        kernel = self._memory_sleep_kernel()
        assert tight.launch(kernel, grid_ctas=1) == roomy.launch(
            kernel, grid_ctas=1
        )

    def test_eager_livelock_still_caught_with_tight_window(self):
        # The other side of the boundary: backoff-timer wakeups are not
        # completion-backed, so starved eager re-polling still trips the
        # watchdog even though timers fire constantly.
        config = self._tight_window_config("scan", dram_latency=80)
        sm = starved_sm(config, "eager")
        with pytest.raises(SimulationDeadlockError, match="watchdog"):
            sm.run()


class TestCycleLimit:
    def test_max_cycles_exceeded_raises_structured_error(self, tiny_config):
        gpu = Gpu(tiny_config, BaselineTechnique())
        with pytest.raises(CycleLimitExceededError) as ei:
            gpu.launch(looped_kernel(trips=64), grid_ctas=16, max_cycles=10)
        assert ei.value.kind == "cycle-limit"
        assert isinstance(ei.value.diagnostic, DeadlockDiagnostic)
        assert ei.value.diagnostic.warps  # snapshot captured mid-flight

    def test_max_cycles_threads_through_multikernel(self, tiny_config):
        from repro.sim.multikernel import launch_concurrent

        kernels = [straightline_kernel(name="a"), straightline_kernel(name="b")]
        with pytest.raises(CycleLimitExceededError):
            launch_concurrent(
                kernels, [4, 4], tiny_config,
                technique=BaselineTechnique(), max_cycles=5,
            )

    def test_generous_limit_does_not_fire(self, tiny_config):
        gpu = Gpu(tiny_config, BaselineTechnique())
        result = gpu.launch(looped_kernel(), grid_ctas=4, max_cycles=1_000_000)
        assert result.cycles < 1_000_000


NATIVE_MISSING = (
    "repro._native is NOT BUILT: this native-path leg did not run "
    "(build it with `python setup.py build_ext --inplace`)"
)

# Each stop: (retry policy, watchdog window override, max_cycles, error).
_STOP_CASES = {
    "deadlock": ("wakeup", None, 50_000_000, SimulationDeadlockError),
    "watchdog": ("eager", None, 50_000_000, SimulationDeadlockError),
    "cycle-limit": ("eager", 0, 5_000, CycleLimitExceededError),
}


def _stop_outcome(config, case, engine, observed):
    """Run one starved SM to its stop on ``engine`` and return everything
    the stop leaves behind: the error, the counters, the progress marker
    and the clock."""
    retry_policy, window, max_cycles, error = _STOP_CASES[case]
    if window is not None:
        config = dataclasses.replace(config, watchdog_window=window)
    config = dataclasses.replace(
        config, issue_engine="scan" if engine == "scan" else "columnar"
    )
    if engine == "columnar":
        with mock.patch.object(sm_mod, "_native", None):
            sm = starved_sm(config, retry_policy)
        assert not sm._use_native
    else:
        sm = starved_sm(config, retry_policy)
        assert sm._use_native == (engine == "native")
    observer = SmObserver(stride=16).attach(sm) if observed else None
    with pytest.raises(error) as ei:
        sm.run(max_cycles=max_cycles)
    assert type(ei.value) is error
    events = None
    if observer is not None:
        events = [(e.kind, e.cycle, e.value) for e in observer.log.events]
    return (
        type(ei.value), str(ei.value), dataclasses.asdict(sm.stats),
        sm._last_progress_cycle, sm.cycle, events,
    )


class TestStopPathsAcrossEngines:
    """Deadlock, watchdog and cycle-limit stops leave the same error,
    counters, progress marker and clock on every engine: the scan
    reference, the pure columnar loop, and the native loop — with and
    without an observer re-entering Python on every cycle."""

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["bare", "observed"])
    @pytest.mark.parametrize("case", sorted(_STOP_CASES))
    @pytest.mark.parametrize("engine", ["scan", "columnar", "native"])
    def test_stop_matches_scan(self, tiny_config, engine, case, observed):
        if engine == "native" and sm_mod._native is None:
            pytest.skip(NATIVE_MISSING)
        reference = _stop_outcome(tiny_config, case, "scan", observed)
        assert _stop_outcome(tiny_config, case, engine, observed) == reference

