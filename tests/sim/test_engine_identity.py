"""Engine identity: the columnar engine's C loop == the scan reference.

The columnar engine's contract is *bit-identity* with the retained naive
scan reference stepper: same final cycle count and same ``SmStats`` down
to each stall counter, for any kernel, technique, scheduler policy, and
issue width.  The property test here throws randomized generator kernels
at that contract; the staleness tests pin the transition paths where an
event could plausibly be lost (a CTA retiring while other warps sleep,
an acquire wakeup handed off past a finished warp); the observation
tests require an observer sampling every cycle to record the same
events and probe columns on both engines; the wake-queue and
column-view tests cover the columnar store's own hazards — re-entry
order, idempotent unblock hooks, slot recycling after CTA retirement,
and the qstate/status mask invariants, checked every cycle of a C-loop
run from an observer's ``on_cycle``.

The columnar legs run wherever the extension builds (the first columnar
SM builds it on demand); elsewhere a columnar config runs the scan
stepper, and these legs are reported as a skip naming the missing
extension, never silently folded into the scan leg.
"""

from __future__ import annotations

import dataclasses
import gc
from array import array
import random
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest

import repro.sim.sm as sm_mod
from repro.arch.config import fermi_like
from repro.baselines.owf import OwfSmState
from repro.baselines.rfv import RfvSmState
from repro.isa.builder import KernelBuilder
from repro.observe.hooks import SmObserver
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.columnar import QS_ACQUIRE, QS_OUT, QS_READY, ColumnarCore
from repro.sim.memory import MemoryModel
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState
from repro.sim.warp import WarpStatus
from tests.conftest import straightline_kernel

# Resolving the C loop builds it on first use wherever a compiler exists.
NATIVE_BUILT = sm_mod.native_module() is not None
NATIVE_MISSING = (
    "repro._native could not be built here: this native-path leg did "
    "not run (see the fallback RuntimeWarning for the cause)"
)
needs_native = pytest.mark.skipif(not NATIVE_BUILT, reason=NATIVE_MISSING)


def _config(**overrides):
    base = dict(
        name="wq-tiny",
        num_sms=1,
        max_warps_per_sm=8,
        max_ctas_per_sm=4,
        max_threads_per_sm=256,
        registers_per_sm=4096,
        shared_mem_per_sm=16 * 1024,
        dram_latency=80,
        l1_hit_latency=10,
    )
    base.update(overrides)
    return fermi_like(**base)


def _random_kernel(seed: int):
    """A deterministic random kernel: ALU/FMA/load/store blocks, counted
    loops, optional probabilistic diamonds, and top-level barriers.

    Barriers are emitted only between blocks (never inside a
    probabilistic arm), so every live warp reaches every barrier and
    the kernel cannot deadlock by construction.
    """
    rng = random.Random(seed)
    regs = rng.randint(4, 8)
    b = KernelBuilder(
        name=f"rand{seed}",
        regs_per_thread=regs,
        threads_per_cta=rng.choice((32, 64, 96)),
    )
    for r in range(regs):
        b.ldc(r)
    for block in range(rng.randint(2, 4)):
        looped = rng.random() < 0.5
        if looped:
            b.label(f"loop{block}")
        for _ in range(rng.randint(2, 7)):
            roll = rng.random()
            if roll < 0.45:
                b.alu(rng.randrange(regs), rng.randrange(regs),
                      rng.randrange(regs))
            elif roll < 0.55:
                b.fma(rng.randrange(regs), rng.randrange(regs),
                      rng.randrange(regs), rng.randrange(regs))
            elif roll < 0.8:
                b.load(rng.randrange(regs), rng.randrange(regs))
            else:
                b.store(rng.randrange(regs), rng.randrange(regs))
        if looped:
            b.setp(1, 0, 1)
            b.branch(f"loop{block}", 1, trip_count=rng.randint(1, 3))
        elif rng.random() < 0.4:
            # Forward diamond that rejoins before the next block.
            b.setp(2, 0, 1)
            b.branch(f"skip{block}", 2, taken_probability=0.5)
            b.alu(rng.randrange(regs), rng.randrange(regs))
            b.label(f"skip{block}")
            b.nop()  # anchor the join label
        if rng.random() < 0.5:
            b.barrier()
    b.store(0, 1)
    b.exit()
    return b.build()


def _acquire_kernel(work: int = 6):
    """An explicitly instrumented acquire/release kernel (|Bs|=2 of 4
    registers) — drives the park/wakeup paths without relying on the
    compiler's profitability heuristic."""
    b = KernelBuilder(name="contended", regs_per_thread=4, threads_per_cta=32)
    b.ldc(0)
    b.ldc(1)
    b.acquire()
    for i in range(work):
        b.alu(2 + (i % 2), 0, 1)
    b.load(3, 0)
    b.alu(2, 3, 1)
    b.release()
    b.exit()
    return b.build().with_metadata(base_set_size=2, extended_set_size=2)


def _make_sm(kernel, config, state_factory, ctas_resident, total_ctas):
    stats = SmStats()
    return StreamingMultiprocessor(
        sm_id=0,
        config=config,
        kernel=kernel,
        technique_state=state_factory(kernel, config, stats),
        ctas_resident_limit=ctas_resident,
        total_ctas=total_ctas,
        rng=DeterministicRng(7),
        stats=stats,
    )


def _run_sm(kernel, config, state_factory, ctas_resident, total_ctas):
    sm = _make_sm(kernel, config, state_factory, ctas_resident, total_ctas)
    sm.run()
    return sm


def _outcome(sm):
    return (sm.cycle, dataclasses.asdict(sm.stats))


class _CycleCheck(SmObserver):
    """An observer that runs ``check(sm)`` at the end of every cycle the
    loop simulates (the C loop calls ``on_cycle`` each cycle while an
    observer is attached)."""

    def __init__(self, check):
        super().__init__()
        self.check = check
        self.cycles = 0

    def on_cycle(self, sm):
        self.check(sm)
        self.cycles += 1


def _run_checked(kernel, config, check):
    """A C-loop run with ``check`` applied after every cycle."""
    sm = _make_sm(kernel, config, SmTechniqueState, ctas_resident=2,
                  total_ctas=5)
    assert sm.issue_loop == "native"
    observer = _CycleCheck(check).attach(sm)
    sm.run()
    assert observer.cycles > 0
    return sm


def _assert_columnar_drained(sm):
    """Post-run hygiene for the columnar core: structures empty, every
    slot released (wid -1, qstate OUT) — a stale entry means a slot
    leaked through the CTA retire path."""
    core = sm._columnar
    assert core is not None
    core.check_hygiene()
    for unit in core.units:
        assert unit.ready == []
        assert unit.sleepers == []
        assert unit.barrier_count == 0
        assert unit.acquire_count == 0
    assert core.wid2slot == {}
    assert all(wid == -1 for wid in core.wid)
    assert all(qs == QS_OUT for qs in core.qstate)


def _all_paths(kernel, config, state_factory, ctas_resident, total_ctas):
    """Outcomes of both engines, the columnar one hygiene-checked: scan
    and the C loop.  Skips where the extension is not built (a columnar
    config would run scan there, comparing scan with itself)."""
    if not NATIVE_BUILT:
        pytest.skip(NATIVE_MISSING)
    scan = _run_sm(
        kernel, dataclasses.replace(config, issue_engine="scan"),
        state_factory, ctas_resident, total_ctas,
    )
    native = _run_sm(
        kernel, dataclasses.replace(config, issue_engine="columnar"),
        state_factory, ctas_resident, total_ctas,
    )
    assert native.issue_loop == "native"
    _assert_columnar_drained(native)
    return [_outcome(scan), _outcome(native)]


def _assert_identical(outcomes):
    first = outcomes[0]
    for other in outcomes[1:]:
        assert other == first


class TestEngineIdentityProperty:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_random_kernels_identical(self, seed, policy):
        kernel = _random_kernel(seed)
        config = _config(scheduler_policy=policy)
        _assert_identical(_all_paths(
            kernel, config, SmTechniqueState, ctas_resident=2, total_ctas=5
        ))

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_issue_width_identical(self, seed):
        kernel = _random_kernel(seed + 100)
        config = _config(issue_width_per_scheduler=2)
        _assert_identical(_all_paths(
            kernel, config, SmTechniqueState, ctas_resident=2, total_ctas=4
        ))

    @pytest.mark.parametrize("retry_policy", ["wakeup", "eager"])
    def test_contended_acquire_identical(self, retry_policy):
        """One SRP section, three resident CTAs: every acquire path —
        grant, park, wakeup, eager backoff — fires, under contention."""
        kernel = _acquire_kernel()

        def make_state(k, c, s):
            return RegMutexSmState(
                k, c, s, num_sections=1, retry_policy=retry_policy
            )

        outcomes = _all_paths(
            kernel, _config(), make_state, ctas_resident=3, total_ctas=6
        )
        _assert_identical(outcomes)
        stats = outcomes[0][1]
        assert stats["acquire_attempts"] > stats["acquire_successes"]

    def test_lrr_contended_acquire_identical(self):
        kernel = _acquire_kernel()

        def make_state(k, c, s):
            return RegMutexSmState(k, c, s, num_sections=1)

        _assert_identical(_all_paths(
            kernel, _config(scheduler_policy="lrr"), make_state,
            ctas_resident=3, total_ctas=5,
        ))


# A pool of 256 / 32 = 8 per-thread registers: two resident CTAs of a
# random kernel outrun it, so RFV's pool, reserve and stall paths fire.
_RFV_TIGHT = dict(registers_per_sm=256)


def _owf_state(kernel, config, stats):
    return OwfSmState(kernel, config, stats, base_ctas=1, extra_ctas=1)


class TestBaselineTechniqueIdentity:
    """RFV runs its issue gate in C (``RfvSmState.native_gate``), OWF
    calls its Python hooks and priority pick: both must equal scan field
    for field."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("policy", ["gto", "lrr"])
    def test_rfv_random_kernels_identical(self, seed, policy):
        _assert_identical(_all_paths(
            _random_kernel(seed), _config(scheduler_policy=policy, **_RFV_TIGHT),
            RfvSmState, ctas_resident=2, total_ctas=5,
        ))

    @pytest.mark.parametrize("seed", range(6))
    def test_owf_random_kernels_identical(self, seed):
        _assert_identical(_all_paths(
            _random_kernel(seed), _config(scheduler_policy="gto"),
            _owf_state, ctas_resident=2, total_ctas=5,
        ))

    def test_plain_rfv_binds_no_python_gate(self):
        sm = _make_sm(_random_kernel(0), _config(**_RFV_TIGHT), RfvSmState,
                      ctas_resident=2, total_ctas=5)
        can_issue, on_issue, wakeups = sm._hook_bindings()
        gate = sm.technique.native_gate()
        assert can_issue is gate and on_issue is gate
        assert not callable(can_issue) and not callable(on_issue)
        assert wakeups is False

    @needs_native
    @pytest.mark.parametrize("seed", range(3))
    def test_rfv_observer_takes_on_issue_only(self, seed):
        """With an observer attached, ``on_issue`` is the wrapper's Python
        call while ``can_issue`` stays the C gate; both reach the same
        buffers, so the run equals the bare one."""
        kernel = _random_kernel(seed)
        config = _config(issue_engine="columnar", **_RFV_TIGHT)
        bare = _run_sm(kernel, config, RfvSmState, ctas_resident=2,
                       total_ctas=5)
        sm = _make_sm(kernel, config, RfvSmState, ctas_resident=2,
                      total_ctas=5)
        inner = sm.technique
        SmObserver().attach(sm)
        can_issue, on_issue, _ = sm._hook_bindings()
        assert can_issue is inner.native_gate()
        assert on_issue == sm.technique.on_issue
        sm.run()
        assert _outcome(sm) == _outcome(bare)
        assert inner.state_snapshot() == bare.technique.state_snapshot()


def _observations(kernel, config, state_factory, ctas_resident,
                  total_ctas):
    """What an observer sampling every cycle records of one run: the
    event log and every probe column, ``sched_issued`` included."""
    sm = _make_sm(kernel, config, state_factory, ctas_resident, total_ctas)
    observer = SmObserver(stride=1).attach(sm)
    sm.run()
    samples = observer.samples
    columns = {name: getattr(samples, name)
               for name in samples.columns + ("sched_issued",)}
    return observer.log.events, columns


def _assert_same_observations(kernel, config, state_factory,
                              ctas_resident, total_ctas):
    """Scan and the C loop give an observer the same events, in the same
    order, and the same samples.  Returns the scan leg's events."""
    scan = _observations(
        kernel, dataclasses.replace(config, issue_engine="scan"),
        state_factory, ctas_resident, total_ctas,
    )
    native = _observations(
        kernel, dataclasses.replace(config, issue_engine="columnar"),
        state_factory, ctas_resident, total_ctas,
    )
    assert native[0] == scan[0]
    assert native[1] == scan[1]
    return scan[0]


_OBSERVED_FAMILIES = {
    "baseline": (_config(), SmTechniqueState),
    "rfv": (_config(**_RFV_TIGHT), RfvSmState),
    "owf": (_config(scheduler_policy="gto"), _owf_state),
}


@needs_native
class TestObservationIdentity:
    """An observer attached to the C loop sees what it sees on scan: the
    same events in the same order, and the same per-cycle samples, whose
    counters the loop flushes before each observer hook."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("family", sorted(_OBSERVED_FAMILIES))
    def test_random_kernels_observe_identically(self, family, seed):
        config, state_factory = _OBSERVED_FAMILIES[family]
        events = _assert_same_observations(
            _random_kernel(seed), config, state_factory,
            ctas_resident=2, total_ctas=5,
        )
        assert any(e.kind == "cta_retire" for e in events)

    @pytest.mark.parametrize("retry_policy", ["wakeup", "eager"])
    def test_contended_acquire_observes_identically(self, retry_policy):
        def make_state(k, c, s):
            return RegMutexSmState(
                k, c, s, num_sections=1, retry_policy=retry_policy
            )

        events = _assert_same_observations(
            _acquire_kernel(), _config(), make_state,
            ctas_resident=3, total_ctas=6,
        )
        kinds = {e.kind for e in events}
        assert {"acquire_blocked", "section_acquire",
                "section_release"} <= kinds


def _shared_arrays(sm):
    """Every array the C loop takes a buffer of, by name."""
    core = sm._columnar
    arrays = {name: getattr(core, name) for name in (
        "pc", "wake", "status", "stall", "qstate", "dyn", "sb_max")}
    arrays.update({f"row{slot}": row for slot, row in enumerate(core.sb_rows)
                   if row is not None})
    arrays.update({f"unit{i}.counts": unit.counts
                   for i, unit in enumerate(core.units)})
    arrays["memory._counters"] = sm.memory._counters
    gate = sm.technique.native_gate() or ()
    arrays.update({f"gate{i}": buf for i, buf in enumerate(gate)})
    return arrays


def _assert_released(sm):
    """No run holds a buffer any more: every shared array resizes."""
    for name, buf in _shared_arrays(sm).items():
        try:
            buf.append(0)
        except BufferError:  # pragma: no cover - the failure being tested
            pytest.fail(f"{name} is still exported after the run")
        buf.pop()


class _RaisingRfv(RfvSmState):
    """RFV whose ``on_issue`` is a Python override (``can_issue`` stays
    the C gate) that raises on its 40th call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def on_issue(self, warp, inst, cycle):
        self.calls += 1
        if self.calls == 40:
            raise RuntimeError("hook failed")
        super().on_issue(warp, inst, cycle)


class _StarvedRfv(RfvSmState):
    """RFV on a kernel with acquires it never grants: the warps re-poll
    forever (eager backoff), which only the watchdog stops."""

    def try_acquire(self, warp, cycle):
        return False


@needs_native
class TestSharedBuffers:
    """The C loop holds a buffer of each shared array for a run and
    releases all of them on every exit."""

    def test_released_after_a_finished_run(self):
        sm = _run_sm(_random_kernel(1), _config(**_RFV_TIGHT), RfvSmState,
                     ctas_resident=2, total_ctas=5)
        assert len(_shared_arrays(sm)) > 12
        _assert_released(sm)

    def test_released_after_a_raising_hook(self):
        sm = _make_sm(_random_kernel(1), _config(**_RFV_TIGHT), _RaisingRfv,
                      ctas_resident=2, total_ctas=5)
        can_issue, on_issue, _ = sm._hook_bindings()
        assert can_issue is sm.technique.native_gate()
        assert on_issue == sm.technique.on_issue
        with pytest.raises(RuntimeError, match="hook failed"):
            sm.run()
        _assert_released(sm)

    def test_released_after_a_watchdog_stop(self):
        from repro.errors import SimulationDeadlockError
        from tests.sim.test_watchdog import srp_kernel

        sm = _make_sm(srp_kernel(), _config(watchdog_window=500),
                      _StarvedRfv, ctas_resident=2, total_ctas=4)
        with pytest.raises(SimulationDeadlockError, match="no forward"):
            sm.run()
        _assert_released(sm)

    @pytest.mark.parametrize("typecode", ["i", "d"])
    def test_a_column_of_other_items_is_refused(self, typecode):
        """A column whose items are not C longs raises ``TypeError``;
        the loop never falls back to boxed access."""
        sm = _make_sm(_random_kernel(1), _config(), SmTechniqueState,
                      ctas_resident=2, total_ctas=5)
        core = sm._columnar
        core.hot = (array(typecode, core.pc),) + core.hot[1:]
        with pytest.raises(TypeError, match="core.pc"):
            sm.run()
        _assert_released(sm)

    def test_wakeups_drain_only_after_python_ran(self):
        """``wakeup_pending`` is called only on cycles after a re-entry
        into Python, never on the cycles the loop runs alone."""

        class Counting(RegMutexSmState):
            calls = 0

            def wakeup_pending(self):
                Counting.calls += 1
                return super().wakeup_pending()

        def make_state(k, c, s):
            return Counting(k, c, s, num_sections=1)

        kernel = _acquire_kernel(work=40)
        native = _run_sm(kernel, _config(), make_state, ctas_resident=3,
                         total_ctas=6)
        assert 0 < Counting.calls < native.cycle // 2
        scan = _run_sm(kernel, _config(issue_engine="scan"), make_state,
                       ctas_resident=3, total_ctas=6)
        assert _outcome(native) == _outcome(scan)


class TestNativeFallback:
    def test_missing_extension_warns_once_and_runs_scan(self, monkeypatch):
        """No C extension → a columnar config must still run, on the
        scan stepper, warn exactly once per process, and produce the
        outcome of an explicit scan run."""
        import warnings

        monkeypatch.setattr(sm_mod, "_native", None)
        monkeypatch.setattr(sm_mod, "_NATIVE_FALLBACK_WARNED", False)

        kernel = _random_kernel(5)
        config = _config(issue_engine="columnar")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fallback = _run_sm(kernel, config, SmTechniqueState,
                               ctas_resident=2, total_ctas=4)
            again = _run_sm(kernel, config, SmTechniqueState,
                            ctas_resident=2, total_ctas=4)
        warned = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back to the scan stepper" in str(w.message)
        ]
        assert len(warned) == 1, "fallback must warn exactly once"
        assert fallback.issue_loop == "scan"
        assert fallback._columnar is None
        assert _outcome(fallback) == _outcome(again)

        scan = _run_sm(
            kernel, dataclasses.replace(config, issue_engine="scan"),
            SmTechniqueState, ctas_resident=2, total_ctas=4,
        )
        assert _outcome(fallback) == _outcome(scan)

    @needs_native
    def test_fallback_run_matches_native_field_for_field(self, monkeypatch):
        """A host without a compiler computes what a host with one does:
        every ``SmStats`` field of the scan fallback equals the C
        loop's, under SRP contention."""
        kernel = _acquire_kernel()
        config = _config(issue_engine="columnar")

        def make_state(k, c, s):
            return RegMutexSmState(k, c, s, num_sections=1)

        native = _run_sm(kernel, config, make_state, ctas_resident=3,
                         total_ctas=6)
        monkeypatch.setattr(sm_mod, "_native", None)
        monkeypatch.setattr(sm_mod, "_NATIVE_FALLBACK_WARNED", True)
        fallback = _run_sm(kernel, config, make_state, ctas_resident=3,
                           total_ctas=6)
        assert (native.issue_loop, fallback.issue_loop) == ("native", "scan")
        assert native.cycle == fallback.cycle
        for field in dataclasses.fields(SmStats):
            assert getattr(native.stats, field.name) == getattr(
                fallback.stats, field.name
            ), field.name


class TestNativeLeg:
    @needs_native
    def test_columnar_runs_native_when_built(self):
        """With the extension importable, a plain columnar run goes
        through it — no option selects it — and matches scan bit for
        bit."""
        kernel = _random_kernel(3)
        config = _config(issue_engine="columnar")
        native = _run_sm(kernel, config, SmTechniqueState,
                         ctas_resident=2, total_ctas=5)
        assert native.issue_loop == "native"
        assert isinstance(native._columnar, ColumnarCore)
        scan = _run_sm(kernel, dataclasses.replace(config, issue_engine="scan"),
                       SmTechniqueState, ctas_resident=2, total_ctas=5)
        assert _outcome(native) == _outcome(scan)

    def test_step_on_a_columnar_sm_raises(self):
        """``step()`` is the scan stepper's single-cycle API; the C loop
        runs whole runs only, so a columnar SM refuses it and points to
        ``run()`` and observers."""
        with mock.patch.object(sm_mod, "_native", _NativeStub()):
            sm = _make_sm(_random_kernel(3), _config(issue_engine="columnar"),
                          SmTechniqueState, ctas_resident=2, total_ctas=4)
        with pytest.raises(TypeError, match=r"run\(\)"):
            sm.step()
        assert sm.cycle == 0


class TestNativeRunLeak:
    """Back-to-back C-loop runs must leave nothing behind: the loop
    drops every reference it takes, and allocates nothing that outlives
    the SM it ran."""

    @needs_native
    def test_back_to_back_sad_launches_stay_flat(self):
        from repro.regmutex.issue_logic import RegMutexTechnique
        from repro.sim.gpu import Gpu
        from repro.workloads.suite import build_app_kernel, get_app

        config = _config(
            max_warps_per_sm=16, max_ctas_per_sm=8, max_threads_per_sm=512,
            registers_per_sm=32768,
        )
        # SAD with one trip of its outer loop instead of eight: a leak
        # per run shows on a short run as well, and short runs keep the
        # traced launches cheap.
        kernel = build_app_kernel(
            dataclasses.replace(get_app("SAD"), outer_trips=1)
        )
        gpu = Gpu(config, RegMutexTechnique(), seed=2018)

        def launch():
            assert gpu.launch(kernel, 1).loop == "native"

        launch()
        launch()
        gc.collect()
        run_frame = tracemalloc.Filter(True, sm_mod.__file__)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces([run_frame])
            for _ in range(20):
                launch()
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces([run_frame])
        finally:
            tracemalloc.stop()
        grown = [
            stat for stat in after.compare_to(before, "lineno")
            if stat.size_diff > 0
        ]
        assert sum(stat.count_diff for stat in grown) < 20, (
            "allocations made under run_columnar outlive their runs: "
            + "; ".join(str(stat) for stat in grown[:5])
        )

    @needs_native
    def test_run_drops_its_references_to_the_shared_columns(self):
        kernel = _random_kernel(4)
        config = _config(issue_engine="columnar")
        sm = _make_sm(kernel, config, SmTechniqueState, ctas_resident=2,
                      total_ctas=5)
        core = sm._columnar
        shared = (core.hot, core.sb_heap, core.kcs, core.units, sm.stats)
        before = [sys.getrefcount(obj) for obj in shared]
        sm.run()
        assert [sys.getrefcount(obj) for obj in shared] == before


class _NativeStub:
    """Stands in for ``repro._native``: records a batched run and stops
    it, so a test sees whether ``run()`` chose the C loop."""

    class Chosen(Exception):
        pass

    def __init__(self):
        self.calls = 0

    def run_columnar(self, *args):
        self.calls += 1
        raise self.Chosen


class TestMemoryModelRouting:
    """The C loop carries its own copy of the stock ``MemoryModel``: a
    columnar SM runs only that one, and refuses any other with a
    ``TypeError`` instead of degrading silently.  A scan SM runs any
    memory model."""

    KERNEL_SEED = 2

    def _columnar_sm(self, stub):
        """A columnar SM built against a stub extension (so the routing
        is tested wherever the real one is built or not)."""
        with mock.patch.object(sm_mod, "_native", stub):
            sm = _make_sm(_random_kernel(self.KERNEL_SEED),
                          _config(issue_engine="columnar"), SmTechniqueState,
                          ctas_resident=2, total_ctas=4)
        assert sm.issue_loop == "native"
        return sm

    def test_stock_memory_selects_native(self):
        stub = _NativeStub()
        sm = self._columnar_sm(stub)
        with mock.patch.object(sm_mod, "_native", stub):
            with pytest.raises(_NativeStub.Chosen):
                sm.run()
        assert stub.calls == 1

    def test_subclassed_memory_raises(self):
        class SubclassedMemory(MemoryModel):
            pass

        stub = _NativeStub()
        sm = self._columnar_sm(stub)
        sm.memory = SubclassedMemory(sm.config, sm.memory._rng)
        with mock.patch.object(sm_mod, "_native", stub):
            with pytest.raises(TypeError, match="issue_engine='scan'"):
                sm.run()
        assert stub.calls == 0

    def test_instance_issue_load_wrapper_raises(self):
        stub = _NativeStub()
        sm = self._columnar_sm(stub)
        memory = sm.memory
        memory.issue_load = memory.issue_load
        with mock.patch.object(sm_mod, "_native", stub):
            with pytest.raises(TypeError, match="MemoryModel"):
                sm.run()
        assert stub.calls == 0

    def test_scan_runs_a_custom_memory_model(self):
        """What such a caller builds instead: a scan SM calls the
        model's own methods and gets the stock schedule."""
        loads = []

        class CountingMemory(MemoryModel):
            def issue_load(self, cycle, shared=False):
                loads.append(cycle)
                return super().issue_load(cycle, shared=shared)

        def scan_sm():
            return _make_sm(_random_kernel(self.KERNEL_SEED),
                            _config(issue_engine="scan"), SmTechniqueState,
                            ctas_resident=2, total_ctas=4)

        stock = scan_sm()
        stock.run()
        sm = scan_sm()
        sm.memory = CountingMemory(sm.config, sm.memory._rng)
        sm.run()
        assert loads
        assert _outcome(sm) == _outcome(stock)


class TestStalenessPaths:
    def test_cta_retire_while_others_asleep(self):
        """A CTA retires (and a new one launches) while another CTA's
        warps sleep on a long DRAM stall: the sleeper heap entries must
        survive the retire/launch churn untouched, and the replacement
        CTA's warps must enter the ready lists immediately."""
        b = KernelBuilder(name="sleepy", regs_per_thread=3, threads_per_cta=32)
        b.ldc(0)
        for _ in range(4):
            b.load(1, 0)
            b.alu(2, 1, 0)  # RAW on the load: a guaranteed sleep window
        b.exit()
        kernel = b.build()
        config = _config(l1_hit_rate=0.0, dram_latency=200)
        _assert_identical(_all_paths(
            kernel, config, SmTechniqueState, ctas_resident=3, total_ctas=7
        ))

    @needs_native
    def test_acquire_wakeup_handoff(self):
        """A warp that finishes while holding an unconsumed wakeup must
        hand it to the next waiter, and the columnar core must re-arm
        that waiter (not the finished warp)."""
        kernel = _acquire_kernel()
        config = _config(issue_engine="columnar")
        stats = SmStats()
        state = RegMutexSmState(kernel, config, stats, num_sections=1)
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel, technique_state=state,
            ctas_resident_limit=3, total_ctas=3,
            rng=DeterministicRng(7), stats=stats,
        )
        warps = [cta.warps[0] for cta in sm.resident_ctas]
        holder, first, second = warps
        core = sm._columnar

        def unit_for(warp):
            return core.units[warp.warp_id % core.num_schedulers]

        # Manufacture the interleaving the property test cannot force:
        # holder owns the section; first and second park behind it.
        assert state.try_acquire(holder, cycle=1)
        for waiter in first, second:
            assert not state.try_acquire(waiter, cycle=1)
            _park_acquire(core, waiter)

        # The release grants `first` a pending wakeup... which it never
        # consumes: it is killed before the next cycle's drain.
        state.release(holder, cycle=2)
        first.finish()
        core.on_finish(first.warp_id, first.slot)
        state.on_warp_finish(first, cycle=2)

        # The drain must wake `second` (the handoff target), and the
        # core must move it — and only it — back to ready.
        woken = list(state.wakeup_pending())
        assert woken == [second]
        for warp in woken:
            if warp.status is WarpStatus.WAITING_ACQUIRE:
                warp.status = WarpStatus.READY
                core.on_acquire_wake(warp.warp_id, warp.slot)
        assert core.qstate[second.slot] == QS_READY
        assert (second.warp_id, second.slot) in unit_for(second).ready
        assert core.qstate[first.slot] == QS_OUT
        assert unit_for(second).acquire_count + \
            unit_for(first).acquire_count == 0
        core.check_hygiene()


def _park_acquire(core, warp):
    """Move a ready warp into its unit's acquire-blocked count, the way
    the stepper's issued-warp disposition does."""
    unit = core.units[warp.warp_id % core.num_schedulers]
    unit.ready.remove((warp.warp_id, warp.slot))
    core.qstate[warp.slot] = QS_ACQUIRE
    unit.acquire_count += 1


class TestQueueUnit:
    def _core(self):
        from repro.sim.columnar import ColumnarCore
        from repro.sim.scheduler import GtoScheduler

        return ColumnarCore([GtoScheduler(0)], _config())

    def _warp(self, core, warp_id):
        view = core.new_warp(
            warp_id, 0, straightline_kernel(), DeterministicRng(warp_id),
            slot=warp_id,
        )
        core.add_warp(view)
        return view

    def test_wake_due_restores_id_order(self):
        """Warps re-entering the ready list mid-run land in warp-id
        (launch) order, whatever order the wakeups arrive in."""
        core = self._core()
        w0, w2, w4 = (self._warp(core, wid) for wid in (0, 2, 4))
        for warp in (w0, w4):
            warp.status = WarpStatus.WAITING_ACQUIRE
            _park_acquire(core, warp)
        unit = core.units[0]
        assert unit.ready == [(2, 2)]
        for warp in (w4, w0):
            warp.status = WarpStatus.READY
            core.on_acquire_wake(warp.warp_id, warp.slot)
        assert unit.ready == [(0, 0), (2, 2), (4, 4)]
        assert all(core.qstate[slot] == QS_READY for _, slot in unit.ready)
        core.check_hygiene()

    def test_unblock_hooks_are_idempotent(self):
        core = self._core()
        warp = self._warp(core, 1)
        # Already ready: neither hook may double-insert or underflow.
        core.on_acquire_wake(warp.warp_id, warp.slot)
        core.on_barrier_release(SimpleNamespace(warps=[warp]))
        unit = core.units[0]
        assert unit.ready == [(1, 1)]
        assert unit.acquire_count == 0 and unit.barrier_count == 0
        core.check_hygiene()


class TestColumnarViews:
    """Unit coverage for the columnar store's own hazards: slot
    recycling across CTA waves, view detach semantics, the qstate/
    status mask invariants while CTAs retire mid-run, and the bulk-read
    paths (probe histogram, SRP occupancy export) agreeing with the
    object walks they replaced."""

    def _core(self):
        from repro.sim.columnar import ColumnarCore
        from repro.sim.scheduler import GtoScheduler

        return ColumnarCore([GtoScheduler(0)], _config())

    def test_slot_recycling_resets_every_column(self):
        from repro.sim.columnar import SL_NONE, ST_READY

        core = self._core()
        kernel = straightline_kernel()
        slot = 3
        first = core.new_warp(0, 0, kernel, DeterministicRng(1), slot=slot)
        # Dirty every column the next tenant could observe.
        first.pc = 5
        first.wake_cycle = 99
        first.dynamic_instructions = 7
        first.stalled_on = "memory"
        first.holds_extended_set = True
        core.sb_rows[slot][0] = 500
        core.sb_max[slot] = 500
        first.finish()
        core.release_warp(first)
        assert core.wid[slot] == -1
        assert core.qstate[slot] == QS_OUT
        assert 0 not in core.wid2slot

        second = core.new_warp(9, 1, kernel, DeterministicRng(2), slot=slot)
        assert core.wid[slot] == 9 and core.wid2slot[9] == slot
        assert core.pc[slot] == 0 and core.wake[slot] == 0
        assert core.dyn[slot] == 0
        assert core.status[slot] == ST_READY
        assert core.stall[slot] == SL_NONE
        assert core.holds[slot] is False
        # The previous tenant's pending writes must not leak through.
        assert core.sb_max[slot] == 0
        assert all(ready == 0 for ready in core.sb_rows[slot])
        assert second.pc == 0 and second.status is WarpStatus.READY
        core.check_hygiene()

    def test_detached_view_keeps_final_state(self):
        """release_warp must freeze the view at its final column values:
        a retired CTA's warps stay readable (diagnostics, stats) without
        aliasing the slot's next tenant."""
        core = self._core()
        kernel = straightline_kernel()
        first = core.new_warp(0, 0, kernel, DeterministicRng(1), slot=0)
        first.pc = 5
        first.wake_cycle = 99
        first.dynamic_instructions = 7
        first.holds_extended_set = True
        first.finish()
        core.release_warp(first)

        second = core.new_warp(9, 1, kernel, DeterministicRng(2), slot=0)
        second.pc = 2
        second.wake_cycle = 11
        assert first.pc == 5
        assert first.wake_cycle == 99
        assert first.dynamic_instructions == 8  # finish() counts the EXIT
        assert first.status is WarpStatus.FINISHED
        assert first.holds_extended_set is True
        assert second.pc == 2 and second.wake_cycle == 11

    @needs_native
    def test_mask_invariants_hold_across_cta_retires(self):
        """Check the column invariants after every cycle of a multi-wave
        C-loop run (from an observer's ``on_cycle``): freed slots must
        read ``wid == -1`` / ``QS_OUT`` the moment their CTA retires, and
        recycled slots must host their new tenant cleanly.  Also pins
        observed == unobserved identity for the C loop."""
        kernel = _random_kernel(0)
        config = dataclasses.replace(_config(), issue_engine="columnar")
        tenants: dict[int, set[int]] = {}

        def check(sm):
            core = sm._columnar
            for slot in range(core.capacity):
                wid = core.wid[slot]
                if wid >= 0:
                    tenants.setdefault(slot, set()).add(wid)
            core.check_hygiene()

        sm = _run_checked(kernel, config, check)
        assert any(len(wids) >= 2 for wids in tenants.values()), (
            "no slot was ever recycled — the scenario lost its teeth"
        )
        _assert_columnar_drained(sm)
        unobserved = _run_sm(kernel, config, SmTechniqueState,
                             ctas_resident=2, total_ctas=5)
        assert _outcome(sm) == _outcome(unobserved)

    def test_srp_occupancy_columns_track_acquire_release(self):
        from repro.regmutex.srp import SharedRegisterPool

        srp = SharedRegisterPool(max_warps=8, num_sections=2)
        cols = srp.occupancy_columns()
        assert not any(cols["holds"])
        assert all(entry == -1 for entry in cols["section"])
        # Unaddressable sections (beyond num_sections) are born taken.
        assert list(cols["taken"]) == [False] * 2 + [True] * 6

        section = srp.acquire(3)
        cols = srp.occupancy_columns()
        assert [bool(h) for h in cols["holds"]] == [
            slot == 3 for slot in range(8)
        ]
        assert cols["section"][3] == section
        assert cols["taken"][section]

        srp.release(3)
        cols = srp.occupancy_columns()
        assert not any(cols["holds"])
        assert not any(cols["taken"][:2])
