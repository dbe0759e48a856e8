"""Unit tests for the fault-injection primitives in repro.faults."""

import os

import pytest

from repro.errors import FaultInjectionError, SimulationError
from repro.faults.injector import (
    FAULT_KINDS,
    FaultingRegMutexState,
    FaultSpec,
    FaultyWorkerTechnique,
    corrupt_cache_file,
    drop_release,
    fault_kinds,
    insert_acquire,
)
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Opcode
from repro.sim.rand import DeterministicRng
from repro.sim.stats import SmStats
from repro.sim.warp import Warp


def srp_kernel():
    b = KernelBuilder(name="inj-probe", regs_per_thread=8, threads_per_cta=64)
    for reg in range(4):
        b.ldc(reg)
    b.acquire()
    b.alu(4, 0, 1)
    b.release()
    b.store(0, 4)
    b.exit()
    return b.build().with_metadata(base_set_size=4, extended_set_size=4)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSpec(kind="cosmic-ray")

    def test_negative_trigger_rejected(self):
        with pytest.raises(FaultInjectionError, match="trigger"):
            FaultSpec(kind="dropped-release", trigger=-1)

    def test_layer_comes_from_registry(self):
        assert FaultSpec(kind="dropped-release").layer == "srp"
        assert FaultSpec(kind="worker-crash").layer == "harness"
        assert FaultSpec(kind="cache-truncate").layer == "cache"

    def test_registry_is_sorted_and_complete(self):
        assert fault_kinds() == tuple(sorted(FAULT_KINDS))
        assert {k.layer for k in FAULT_KINDS.values()} == {
            "srp", "compiler", "harness", "cache",
        }

    def test_crash_safety_kinds_registered(self):
        assert FaultSpec(kind="kill-mid-run").layer == "harness"
        assert FaultSpec(kind="cache-concurrent-writer").layer == "cache"


class TestKernelTransforms:
    def test_drop_release_removes_exactly_one(self):
        kernel = srp_kernel()
        releases = sum(1 for i in kernel if i.opcode is Opcode.RELEASE)
        mutated = drop_release(kernel)
        assert len(mutated) == len(kernel) - 1
        assert (
            sum(1 for i in mutated if i.opcode is Opcode.RELEASE)
            == releases - 1
        )
        # Acquire survives: the kernel is now unbalanced by construction.
        assert any(i.opcode is Opcode.ACQUIRE for i in mutated)

    def test_drop_release_requires_a_release(self):
        b = KernelBuilder(name="plain", regs_per_thread=4, threads_per_cta=64)
        b.alu(0, 1, 2)
        b.exit()
        with pytest.raises(FaultInjectionError, match="no removable RELEASE"):
            drop_release(b.build())

    def test_insert_acquire_adds_one_and_keeps_labels(self):
        b = KernelBuilder(name="labeled", regs_per_thread=8, threads_per_cta=64)
        b.ldc(0)
        b.label("loop")
        b.alu(1, 0, 0)
        b.branch("loop", 1, trip_count=2)
        b.exit()
        kernel = b.build()
        target = kernel.label_pc("loop")
        mutated = insert_acquire(kernel, before_pc=target)
        assert len(mutated) == len(kernel) + 1
        assert mutated[target].opcode is Opcode.ACQUIRE
        # The label moved onto the ACQUIRE, so branch targets still
        # resolve (Kernel construction itself re-validates them).
        assert mutated.label_pc("loop") == target

    def test_insert_acquire_bounds_checked(self):
        with pytest.raises(FaultInjectionError, match="outside kernel"):
            insert_acquire(srp_kernel(), before_pc=999)


class TestSrpCorruption:
    def test_lost_release_breaks_invariants(self):
        from repro.regmutex.srp import SharedRegisterPool

        srp = SharedRegisterPool(max_warps=8, num_sections=2)
        assert srp.acquire(0) is not None
        srp.check_invariants()  # consistent while honest
        srp.corrupt_for_fault_injection(clear_slots=(0,))
        # Warp-side state cleared, section bit leaked.
        assert not srp.holds_section(0)
        with pytest.raises(AssertionError):
            srp.check_invariants()

    def test_phantom_set_bit_breaks_invariants(self):
        from repro.regmutex.srp import SharedRegisterPool

        srp = SharedRegisterPool(max_warps=8, num_sections=2)
        srp.corrupt_for_fault_injection(set_section_bits=(1,))
        with pytest.raises(AssertionError):
            srp.check_invariants()


class TestFaultingState:
    def _state(self, config, fault):
        return FaultingRegMutexState(
            srp_kernel(), config, SmStats(),
            num_sections=2, retry_policy="wakeup", fault=fault,
        )

    def test_dropped_release_leaks_section(self, tiny_config):
        fault = FaultSpec(kind="dropped-release", trigger=0)
        state = self._state(tiny_config, fault)
        warp = Warp(0, 0, srp_kernel(), DeterministicRng(3))
        assert state.try_acquire(warp, cycle=0)
        assert warp.holds_extended_set
        state.release(warp, cycle=5)
        # The warp believes it released...
        assert not warp.holds_extended_set
        assert warp.srp_section is None
        # ...but the SRP never saw it: the section is leaked.
        assert state.srp.sections_in_use == 1
        assert state.fault_fired_at == 5
        snapshot = state.debug_snapshot()
        assert snapshot["fault"]["kind"] == "dropped-release"
        assert snapshot["fault"]["fired_at"] == 5

    def test_later_trigger_spares_early_releases(self, tiny_config):
        fault = FaultSpec(kind="dropped-release", trigger=1)
        state = self._state(tiny_config, fault)
        first = Warp(0, 0, srp_kernel(), DeterministicRng(3))
        assert state.try_acquire(first, cycle=0)
        state.release(first, cycle=2)  # ordinal 0: honest release
        assert state.srp.sections_in_use == 0
        second = Warp(1, 0, srp_kernel(), DeterministicRng(4))
        assert state.try_acquire(second, cycle=3)
        state.release(second, cycle=4)  # ordinal 1: dropped
        assert state.srp.sections_in_use == 1
        assert state.fault_fired_at == 4

    def test_bit_corruption_steals_a_free_section(self, tiny_config):
        fault = FaultSpec(kind="srp-bit-corruption", trigger=0)
        state = self._state(tiny_config, fault)
        warp = Warp(0, 0, srp_kernel(), DeterministicRng(3))
        assert state.try_acquire(warp, cycle=0)  # fires before acquiring
        assert state.fault_fired_at == 0
        # One section honestly held + one phantom bit = pool exhausted.
        assert state.srp.srp_bitmask.find_first_zero() is None
        with pytest.raises(AssertionError):
            state.srp.check_invariants()


class TestFaultyWorkerTechnique:
    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown worker fault"):
            FaultyWorkerTechnique(mode="segfault")

    def test_crash_mode_requires_marker(self):
        with pytest.raises(FaultInjectionError, match="marker_path"):
            FaultyWorkerTechnique(mode="worker-crash")

    def test_sim_error_mode_raises_deterministically(self, tiny_config):
        technique = FaultyWorkerTechnique(mode="sim-error", message="boom")
        with pytest.raises(SimulationError, match="boom"):
            technique.prepare_kernel(srp_kernel(), tiny_config)

    def test_crash_mode_passes_through_once_marked(self, tiny_config, tmp_path):
        marker = tmp_path / "crashed"
        marker.write_text("123")  # "the retry": first attempt already died
        technique = FaultyWorkerTechnique(
            mode="worker-crash", marker_path=str(marker)
        )
        kernel = srp_kernel()
        assert technique.prepare_kernel(kernel, tiny_config) is kernel


class TestCacheCorruption:
    LINES = [
        '{"key":"k1","record":{"cycles":100},"checksum":"x"}',
        '{"key":"k2","record":{"cycles":200,"stall_memory":9},"checksum":"y"}',
    ]  # the second line is the longer one, so halving cuts inside it

    def _write_cache(self, path):
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in self.LINES)

    def test_truncate_halves_the_file(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._write_cache(path)
        size = os.path.getsize(path)
        torn = corrupt_cache_file(path, "cache-truncate")
        assert os.path.getsize(path) == size // 2
        with open(path) as fh:
            # The first line survives whole; the returned text is the
            # unterminated rest of the second.
            assert fh.read() == self.LINES[0] + "\n" + torn
        assert torn and self.LINES[1].startswith(torn)

    def test_garbage_makes_file_unparseable(self, tmp_path):
        import json

        path = str(tmp_path / "cache.json")
        self._write_cache(path)
        garbage = corrupt_cache_file(path, "cache-garbage")
        with open(path) as fh:
            assert fh.read() == garbage
        with pytest.raises(json.JSONDecodeError):
            json.loads(garbage)

    def test_poison_bumps_record_not_checksum(self, tmp_path):
        import json

        path = str(tmp_path / "cache.json")
        self._write_cache(path)
        poisoned = corrupt_cache_file(path, "cache-poison-entry", seed=1)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == self.LINES[0]  # seed 1 picks the second line
        assert lines[1] == poisoned
        entry = json.loads(poisoned)
        assert entry["record"]["cycles"] == 201
        assert entry["checksum"] == "y"  # stale on purpose

    def test_unknown_cache_kind_rejected(self, tmp_path):
        path = str(tmp_path / "cache.json")
        self._write_cache(path)
        with pytest.raises(FaultInjectionError, match="unknown cache fault"):
            corrupt_cache_file(path, "cache-set-on-fire")
