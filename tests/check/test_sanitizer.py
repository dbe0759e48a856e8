"""Tests for the dynamic sanitizer (``GpuConfig.sanitizer``)."""

from types import SimpleNamespace

import pytest

from repro.arch.config import fermi_like
from repro.errors import SanitizerError
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Instruction, Opcode
from repro.check.sanitizer import Sanitizer, SanitizerViolation
from repro.observe.bus import EventLog
from repro.observe.events import SANITIZER
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.sim import sm as sm_mod
from repro.sim.columnar import QS_BARRIER, ST_FINISHED
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState


def _probe_kernel():
    b = KernelBuilder(name="probe", regs_per_thread=8, threads_per_cta=32)
    for r in range(4):
        b.ldc(r)
    b.acquire()
    b.alu(4, 0, 1)
    b.alu(5, 4, 2)
    b.mov(3, 5)
    b.release()
    b.store(0, 3)
    b.exit()
    return b.build().with_metadata(base_set_size=4, extended_set_size=4)


def _regmutex_sm(config, kernel=None, fail_fast=False):
    """An SM over a RegMutex state with a hand-held (not auto-armed)
    sanitizer, so tests can seed violations and inspect accumulation."""
    kernel = kernel or _probe_kernel()
    technique = RegMutexTechnique()
    stats = SmStats()
    sm = StreamingMultiprocessor(
        sm_id=0, config=config, kernel=kernel,
        technique_state=technique.make_sm_state(kernel, config, stats),
        ctas_resident_limit=1, total_ctas=1,
        rng=DeterministicRng(1), stats=stats,
    )
    return sm, Sanitizer(sm, fail_fast=fail_fast)


@pytest.fixture
def config():
    return fermi_like(
        name="tiny-sanitized", num_sms=1, max_warps_per_sm=8,
        max_ctas_per_sm=4, max_threads_per_sm=256,
        registers_per_sm=4096, dram_latency=80, l1_hit_latency=10,
    )


class TestPerIssueChecks:
    def test_extended_access_without_section(self, config):
        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        assert not warp.holds_extended_set
        inst = Instruction(Opcode.IADD, (5,), (0, 1))
        san.on_issue(warp, inst, cycle=3)
        (v,) = san.violations
        assert v.check == "extended-access"
        assert (v.warp_id, v.cycle) == (warp.warp_id, 3)
        assert "R5" in v.message

    def test_extended_access_legal_with_section(self, config):
        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        assert sm.technique.try_acquire(warp, cycle=0)
        san.on_issue(warp, Instruction(Opcode.IADD, (5,), (0, 1)), cycle=3)
        assert san.violations == []

    def test_scoreboard_hazard(self, config):
        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        sm.scoreboard.record_write(warp.warp_id, 1, ready_cycle=100)
        san.on_issue(warp, Instruction(Opcode.IADD, (2,), (1, 0)), cycle=3)
        assert any(v.check == "scoreboard-hazard" for v in san.violations)
        (v,) = [v for v in san.violations if v.check == "scoreboard-hazard"]
        assert "R1" in v.message

    def test_physical_bounds(self, config):
        kernel = _probe_kernel()

        class BrokenState(SmTechniqueState):
            def resolve_physical(self, warp, arch_reg):
                return 10**9

        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=BrokenState(kernel, config, stats),
            ctas_resident_limit=1, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        san = Sanitizer(sm, fail_fast=False)
        warp = sm.resident_ctas[0].warps[0]
        san.on_issue(warp, Instruction(Opcode.IADD, (0,), (1, 2)), cycle=1)
        assert any(v.check == "physical-bounds" for v in san.violations)

    def test_physical_aliasing_across_warps(self, config):
        kernel = _probe_kernel()

        class AliasingState(SmTechniqueState):
            def resolve_physical(self, warp, arch_reg):
                return arch_reg  # every warp lands on the same block

        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=AliasingState(kernel, config, stats),
            ctas_resident_limit=2, total_ctas=2,
            rng=DeterministicRng(1), stats=stats,
        )
        san = Sanitizer(sm, fail_fast=False)
        warps = [w for cta in sm.resident_ctas for w in cta.warps]
        assert len(warps) >= 2
        write = Instruction(Opcode.IADD, (0,), (1, 2))
        san.on_issue(warps[0], write, cycle=1)
        assert san.violations == []
        san.on_issue(warps[1], write, cycle=2)
        (v,) = san.violations
        assert v.check == "physical-aliasing"
        assert f"warp {warps[0].warp_id}" in v.message

    def test_claims_dropped_at_release(self, config):
        kernel = _probe_kernel()

        class AliasingState(SmTechniqueState):
            def resolve_physical(self, warp, arch_reg):
                return arch_reg

        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=AliasingState(kernel, config, stats),
            ctas_resident_limit=2, total_ctas=2,
            rng=DeterministicRng(1), stats=stats,
        )
        san = Sanitizer(sm, fail_fast=False)
        warps = [w for cta in sm.resident_ctas for w in cta.warps]
        write = Instruction(Opcode.IADD, (0,), (1, 2))
        san.on_issue(warps[0], write, cycle=1)
        # RELEASE invalidates warp 0's mapping, so its claims drop and
        # warp 1's write to the same physical index is clean.
        san.on_issue(warps[0], Instruction(Opcode.RELEASE, (), ()), cycle=2)
        san.on_issue(warps[1], write, cycle=3)
        assert san.violations == []


class TestPerCycleChecks:
    def test_structural_invariant_after_srp_corruption(self, config):
        sm, san = _regmutex_sm(config)
        state = sm.technique
        state.srp.corrupt_for_fault_injection(set_section_bits=(0,))
        san.on_cycle(sm)
        assert any(v.check == "structural-invariant" for v in san.violations)

    def test_finished_warp_in_wait_queue(self, config):
        from repro.sim.warp import WarpStatus

        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        warp.status = WarpStatus.FINISHED
        sm.technique._wait_queue.append(warp)
        san.on_cycle(sm)
        assert any(v.check == "wait-queue" for v in san.violations)

    def test_duplicate_wait_queue_entry(self, config):
        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        sm.technique._wait_queue.extend([warp, warp])
        san.on_cycle(sm)
        assert any(
            v.check == "wait-queue" and "twice" in v.message
            for v in san.violations
        )

    def test_slot_accounting_leak(self, config):
        sm, san = _regmutex_sm(config)
        sm._occupied_slots.add(7)  # slot with no resident warp behind it
        san.on_cycle(sm)
        assert any(v.check == "slot-accounting" for v in san.violations)

    def test_stride_skips_off_cycles(self, config):
        stride_config = fermi_like(
            name="strided", num_sms=1, max_warps_per_sm=8,
            max_ctas_per_sm=4, max_threads_per_sm=256,
            registers_per_sm=4096, sanitizer_stride=16,
        )
        sm, san = _regmutex_sm(stride_config)
        sm.technique.srp.corrupt_for_fault_injection(set_section_bits=(0,))
        sm.cycle = 7  # not a multiple of the stride
        san.on_cycle(sm)
        assert san.violations == []
        sm.cycle = 16
        san.on_cycle(sm)
        assert san.violations


@pytest.mark.skipif(
    sm_mod.native_module() is None,
    reason="repro._native could not be built here: no columnar store",
)
class TestColumnarHygiene:
    """The per-cycle ``columnar-hygiene`` check over the C loop's store:
    its column invariants and the ``holds`` cache of the SRP bit."""

    @pytest.fixture
    def columnar(self, config):
        import dataclasses

        sm, san = _regmutex_sm(
            dataclasses.replace(config, issue_engine="columnar"),
            fail_fast=True,
        )
        assert sm._columnar is not None
        return sm, san, sm._columnar, sm.resident_ctas[0].warps[0]

    def test_clean_store_is_silent(self, columnar):
        sm, san, _, _ = columnar
        san.on_cycle(sm)
        assert san.violations == []

    def test_finished_slot_still_queued(self, columnar):
        sm, san, core, warp = columnar
        slot = warp.slot
        # Move the warp from its ready list to a barrier count, keeping
        # the per-unit structures consistent, then finish it in place:
        # only the column invariant "finished => QS_OUT" is broken.
        (unit,) = [u for u in core.units if (warp.warp_id, slot) in u.ready]
        unit.ready.remove((warp.warp_id, slot))
        unit.barrier_count += 1
        core.qstate[slot] = QS_BARRIER
        core.status[slot] = ST_FINISHED
        with pytest.raises(SanitizerError, match="columnar-hygiene") as exc:
            san.on_cycle(sm)
        assert "finished warp still owned by a queue structure" in str(
            exc.value
        )

    def test_holds_column_disagrees_with_srp_bit(self, columnar):
        sm, san, core, warp = columnar
        # A lost acquire transition: the SRP granted a section, the
        # column cache never heard of it.
        assert sm.technique.srp.acquire(warp.slot) is not None
        assert not core.holds[warp.slot]
        with pytest.raises(SanitizerError, match="columnar-hygiene") as exc:
            san.on_cycle(sm)
        assert (
            f"holds column says False for slot {warp.slot} but SRP status "
            "bit is True"
        ) in str(exc.value)
        assert exc.value.violations[-1].warp_id == warp.warp_id


class TestReporting:
    def test_fail_fast_raises_with_diagnostic(self, config):
        sm, san = _regmutex_sm(config, fail_fast=True)
        sm.technique.srp.corrupt_for_fault_injection(set_section_bits=(0,))
        with pytest.raises(SanitizerError) as exc_info:
            san.on_cycle(sm)
        err = exc_info.value
        assert err.violations
        assert isinstance(err.violations[0], SanitizerViolation)
        assert err.diagnostic is not None

    def test_violations_accumulate_without_fail_fast(self, config):
        sm, san = _regmutex_sm(config)
        warp = sm.resident_ctas[0].warps[0]
        san.on_issue(warp, Instruction(Opcode.IADD, (5,), (0, 1)), cycle=1)
        san.on_issue(warp, Instruction(Opcode.IADD, (6,), (0, 1)), cycle=2)
        assert len(san.violations) == 2
        assert [v.cycle for v in san.violations] == [1, 2]

    def test_violation_lands_on_event_bus(self, config):
        sm, san = _regmutex_sm(config)
        sm._observer = SimpleNamespace(log=EventLog())
        warp = sm.resident_ctas[0].warps[0]
        san.on_issue(warp, Instruction(Opcode.IADD, (5,), (0, 1)), cycle=9)
        (event,) = sm._observer.log
        assert event.kind == SANITIZER
        assert event.cycle == 9
        assert event.warp_id == warp.warp_id
        assert event.detail.startswith("extended-access:")


class TestEndToEnd:
    def test_config_flag_arms_sanitizer(self, config):
        import dataclasses

        armed = dataclasses.replace(config, sanitizer=True)
        kernel = _probe_kernel()
        technique = RegMutexTechnique()
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=armed, kernel=kernel,
            technique_state=technique.make_sm_state(kernel, armed, stats),
            ctas_resident_limit=1, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        assert sm._sanitizer is not None
        sm.run()  # a clean compiled kernel is sanitizer-silent

    def test_unwraps_observer_and_shadow_layers(self, config):
        from repro.check.shadow import attach_shadow
        from repro.regmutex.issue_logic import RegMutexSmState

        sm, san = _regmutex_sm(config)
        attach_shadow(sm)
        attach_shadow(sm)  # two wrapper layers
        assert isinstance(san._state(), RegMutexSmState)
