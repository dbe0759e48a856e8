"""Issue-path identity: scan == columnar-pure == columnar-native.

The columnar issue path's contract is *bit-identity* with the retained
naive scan reference stepper: same final cycle count and same
``SmStats`` down to each stall counter, for any kernel, technique,
scheduler policy, and issue width — whether its loop runs in pure
Python or in the ``repro._native`` accelerator.  The property test here
throws randomized generator kernels at that contract; the staleness
tests pin the transition paths where an event could plausibly be lost
(a CTA retiring while other warps sleep, an acquire wakeup handed off
past a finished warp); the wake-queue and column-view tests cover the
columnar store's own hazards — re-entry order, idempotent unblock
hooks, slot recycling after CTA retirement, and the qstate/status mask
invariants.

The native leg runs only where the extension is built; elsewhere it is
reported as a skip naming the missing extension, never silently folded
into the pure leg.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace
from unittest import mock

import pytest

import repro.sim.sm as sm_mod
from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.columnar import QS_ACQUIRE, QS_OUT, QS_READY
from repro.sim.memory import MemoryModel
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState
from repro.sim.warp import WarpStatus
from tests.conftest import straightline_kernel

NATIVE_BUILT = sm_mod._native is not None
NATIVE_MISSING = (
    "repro._native is NOT BUILT: this native-path leg did not run "
    "(build it with `python setup.py build_ext --inplace`)"
)


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


def _run_pure(kernel, config, state_factory, ctas_resident, total_ctas):
    """A columnar run forced onto the pure-Python loop."""
    with mock.patch.object(sm_mod, "_native", None):
        sm = _run_sm(kernel, config, state_factory, ctas_resident, total_ctas)
    assert not sm._use_native
    return sm


def _outcome(sm):
    return (sm.cycle, dataclasses.asdict(sm.stats))


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
    """Outcomes of every issue path, hygiene-checked: scan, the pure
    columnar loop, and — where the extension is built — the native
    loop.  Both columnar legs run over the same ColumnarCore, so the
    drain hygiene applies to each verbatim."""
    scan = _run_sm(
        kernel, dataclasses.replace(config, issue_engine="scan"),
        state_factory, ctas_resident, total_ctas,
    )
    columnar = dataclasses.replace(config, issue_engine="columnar")
    legs = [_run_pure(kernel, columnar, state_factory, ctas_resident,
                      total_ctas)]
    if NATIVE_BUILT:
        native = _run_sm(kernel, columnar, state_factory, ctas_resident,
                         total_ctas)
        assert native._use_native
        legs.append(native)
    for sm in legs:
        _assert_columnar_drained(sm)
    return [_outcome(scan)] + [_outcome(sm) for sm in legs]


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


class TestNativeFallback:
    def test_missing_extension_warns_once_and_matches_columnar(
        self, monkeypatch
    ):
        """No C extension → the columnar path must still run (pure
        Python), warn exactly once per process, and produce the
        scan-identical outcome."""
        import warnings

        monkeypatch.setattr(sm_mod, "_native", None)
        monkeypatch.setattr(sm_mod, "_NATIVE_FALLBACK_WARNED", False)

        kernel = _random_kernel(5)
        config = _config(issue_engine="columnar")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pure = _run_sm(kernel, config, SmTechniqueState,
                           ctas_resident=2, total_ctas=4)
            again = _run_sm(kernel, config, SmTechniqueState,
                            ctas_resident=2, total_ctas=4)
        fallback = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back" in str(w.message)
        ]
        assert len(fallback) == 1, "fallback must warn exactly once"
        assert not pure._use_native
        assert _outcome(pure) == _outcome(again)

        scan = _run_sm(
            kernel, dataclasses.replace(config, issue_engine="scan"),
            SmTechniqueState, ctas_resident=2, total_ctas=4,
        )
        assert _outcome(pure) == _outcome(scan)


class TestNativeLeg:
    @pytest.mark.skipif(not NATIVE_BUILT, reason=NATIVE_MISSING)
    def test_columnar_runs_native_when_built(self):
        """With the extension importable, a plain columnar run goes
        through it — no option selects it — and matches the pure loop
        bit for bit."""
        kernel = _random_kernel(3)
        config = _config(issue_engine="columnar")
        native = _run_sm(kernel, config, SmTechniqueState,
                         ctas_resident=2, total_ctas=5)
        assert native._use_native
        pure = _run_pure(kernel, config, SmTechniqueState,
                         ctas_resident=2, total_ctas=5)
        assert _outcome(native) == _outcome(pure)


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
    """The C loop carries its own copy of the stock ``MemoryModel``: on
    an SM where native is selected, any other memory model must run the
    pure loop, with the stock run's results."""

    KERNEL_SEED = 2

    def _native_sm(self):
        """A columnar SM with native selected (a stub extension where
        the real one is not built) and a spy on the pure loop."""
        sm = _make_sm(_random_kernel(self.KERNEL_SEED),
                      _config(issue_engine="columnar"), SmTechniqueState,
                      ctas_resident=2, total_ctas=4)
        sm._use_native = True
        pure_runs = []
        run_columnar = sm._run_columnar

        def spy(*args, **kwargs):
            pure_runs.append(args)
            return run_columnar(*args, **kwargs)

        sm._run_columnar = spy
        return sm, pure_runs

    def _stock_outcome(self):
        return _outcome(_run_pure(
            _random_kernel(self.KERNEL_SEED), _config(issue_engine="columnar"),
            SmTechniqueState, ctas_resident=2, total_ctas=4,
        ))

    def test_stock_memory_selects_native(self):
        sm, pure_runs = self._native_sm()
        stub = _NativeStub()
        with mock.patch.object(sm_mod, "_native", stub):
            with pytest.raises(_NativeStub.Chosen):
                sm.run()
        assert stub.calls == 1 and pure_runs == []

    def test_subclassed_memory_runs_pure_loop(self):
        class CountingMemory(MemoryModel):
            loads = 0

            def issue_load(self, cycle, shared=False):
                CountingMemory.loads += 1
                return super().issue_load(cycle, shared=shared)

        sm, pure_runs = self._native_sm()
        sm.memory = CountingMemory(sm.config, sm.memory._rng)
        stub = _NativeStub()
        with mock.patch.object(sm_mod, "_native", stub):
            sm.run()
        assert stub.calls == 0 and len(pure_runs) == 1
        assert CountingMemory.loads > 0
        assert _outcome(sm) == self._stock_outcome()

    def test_instance_issue_load_wrapper_runs_pure_loop(self):
        sm, pure_runs = self._native_sm()
        memory = sm.memory
        issue_load = memory.issue_load
        loads = []

        def wrapped(cycle, shared=False):
            loads.append(cycle)
            return issue_load(cycle, shared=shared)

        memory.issue_load = wrapped
        stub = _NativeStub()
        with mock.patch.object(sm_mod, "_native", stub):
            sm.run()
        assert stub.calls == 0 and len(pure_runs) == 1
        assert loads
        assert _outcome(sm) == self._stock_outcome()


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

    def test_mask_invariants_hold_across_cta_retires(self):
        """Step a multi-wave run one cycle at a time, checking the
        column invariants after every cycle: freed slots must read
        ``wid == -1`` / ``QS_OUT`` the moment their CTA retires, and
        recycled slots must host their new tenant cleanly.  Also pins
        single-step == batched-run identity for the columnar engine."""
        kernel = _random_kernel(0)
        config = dataclasses.replace(_config(), issue_engine="columnar")
        sm = _make_sm(kernel, config, SmTechniqueState,
                      ctas_resident=2, total_ctas=5)
        core = sm._columnar
        tenants: dict[int, set[int]] = {}
        while not sm.done:
            issued = sm.step()
            for slot in range(core.capacity):
                wid = core.wid[slot]
                if wid >= 0:
                    tenants.setdefault(slot, set()).add(wid)
            core.check_hygiene()
            if issued == 0 and not sm.done:
                sm._fast_forward()
            assert sm.cycle < 200_000, "stepped run diverged"
        assert any(len(wids) >= 2 for wids in tenants.values()), (
            "no slot was ever recycled — the scenario lost its teeth"
        )
        _assert_columnar_drained(sm)
        sm.stats.cycles = sm.cycle  # run()'s epilogue, by hand
        batched = _run_sm(kernel, config, SmTechniqueState,
                          ctas_resident=2, total_ctas=5)
        assert _outcome(sm) == _outcome(batched)

    def test_probe_counts_matches_object_walk(self):
        """The probes' vectorized histogram must count exactly what the
        per-warp object walk counted, at every sampled cycle of a run
        with barriers, retires, and live-register churn."""
        kernel = _random_kernel(1)
        config = dataclasses.replace(_config(), issue_engine="columnar")
        sm = _make_sm(kernel, config, SmTechniqueState,
                      ctas_resident=2, total_ctas=5)
        core = sm._columnar
        checked = 0
        while not sm.done:
            issued = sm.step()
            expected = [0, 0, 0, 0, 0, 0]
            for cta in sm.resident_ctas:
                for w in cta.warps:
                    status = w.status
                    if status is WarpStatus.FINISHED:
                        continue
                    expected[3] += 1
                    if status is WarpStatus.READY:
                        expected[0] += 1
                    elif status is WarpStatus.AT_BARRIER:
                        expected[1] += 1
                    elif status is WarpStatus.WAITING_ACQUIRE:
                        expected[2] += 1
                    md = w.kernel.metadata
                    expected[5] += md.base_set_size or md.regs_per_thread
                    if w.holds_extended_set:
                        expected[4] += 1
                        expected[5] += md.extended_set_size or 0
            assert core.probe_counts() == tuple(expected)
            checked += 1
            if issued == 0 and not sm.done:
                sm._fast_forward()
            assert sm.cycle < 200_000, "stepped run diverged"
        assert checked > 0

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
