"""Tests for the shadow architectural executor."""

from repro.isa.builder import KernelBuilder
from repro.check.shadow import ShadowState, attach_shadow, mix64
from repro.sim.warp import Warp
from repro.sim.rand import DeterministicRng


def _warp(wid=0, kernel=None):
    if kernel is None:
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        b.exit()
        kernel = b.build()
    return Warp(warp_id=wid, cta_id=0, kernel=kernel, rng=DeterministicRng(1))


def _feed(shadow, warp, instructions):
    for inst in instructions:
        shadow.observe(warp, inst)


class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_64_bit(self):
        assert 0 <= mix64(2**70, -5) < 2**64

    def test_empty_is_stable_seed(self):
        assert mix64() == 0x9E3779B97F4A7C15


def _chain_kernel(dst_map=None):
    """ldc -> alu chain -> store; dst_map renames register indices."""
    m = dst_map or {}
    r = lambda x: m.get(x, x)
    b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
    b.ldc(r(0))
    b.ldc(r(1))
    b.alu(r(2), r(0), r(1))
    b.alu(r(3), r(2), r(0))
    b.store(r(0), r(3))
    b.exit()
    return b.build()


class TestStreamDigest:
    def test_identical_streams_identical_digests(self):
        a, b = ShadowState(), ShadowState()
        k = _chain_kernel()
        _feed(a, _warp(kernel=k), k.instructions)
        _feed(b, _warp(kernel=k), k.instructions)
        assert a.warp_streams() == b.warp_streams()
        assert a.memory_digest() == b.memory_digest()

    def test_different_dataflow_diverges(self):
        a, b = ShadowState(), ShadowState()
        ka = _chain_kernel()
        kb = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        kb.ldc(0)
        kb.ldc(1)
        kb.alu(2, 1, 1)  # different sources
        kb.alu(3, 2, 0)
        kb.store(0, 3)
        kb.exit()
        kb = kb.build()
        _feed(a, _warp(kernel=ka), ka.instructions)
        _feed(b, _warp(kernel=kb), kb.instructions)
        assert a.warp_streams() != b.warp_streams()

    def test_rename_invariance_via_movs(self):
        """A register renaming realized by plain index substitution has
        the same stream digest (values, not indices, are digested)."""
        a, b = ShadowState(), ShadowState()
        ka = _chain_kernel()
        kb = _chain_kernel(dst_map={2: 6, 3: 7})
        _feed(a, _warp(kernel=ka), ka.instructions)
        _feed(b, _warp(kernel=kb), kb.instructions)
        assert a.warp_streams() == b.warp_streams()
        assert a.memory_digest() == b.memory_digest()
        # The register *map* digest is index-sensitive and must differ.
        assert a.register_digest() != b.register_digest()

    def test_compaction_mov_is_transparent(self):
        """An injected compaction MOV copies the value but leaves the
        stream digest untouched."""
        from repro.isa.instructions import Instruction, Opcode

        a, b = ShadowState(), ShadowState()
        k = _chain_kernel()
        wa, wb = _warp(kernel=k), _warp(kernel=k)
        _feed(a, wa, k.instructions[:4])
        _feed(b, wb, k.instructions[:4])
        b.observe(wb, Instruction(
            Opcode.MOV, (5,), (3,), comment="compaction: R3 -> R5"
        ))
        assert a.warp_streams() == b.warp_streams()
        # ... but the copy executed: R5 now holds R3's value.
        assert b.regs[wb.warp_id][5] == b.regs[wb.warp_id][3]

    def test_plain_mov_is_digested(self):
        from repro.isa.instructions import Instruction, Opcode

        a, b = ShadowState(), ShadowState()
        k = _chain_kernel()
        wa, wb = _warp(kernel=k), _warp(kernel=k)
        _feed(a, wa, k.instructions[:4])
        _feed(b, wb, k.instructions[:4])
        b.observe(wb, Instruction(Opcode.MOV, (5,), (3,)))
        assert a.warp_streams() != b.warp_streams()

    def test_ldc_roots_are_warp_unique(self):
        shadow = ShadowState()
        k = _chain_kernel()
        w0, w1 = _warp(0, kernel=k), _warp(1, kernel=k)
        _feed(shadow, w0, k.instructions)
        _feed(shadow, w1, k.instructions)
        (w0_id, d0, c0), (w1_id, d1, c1) = shadow.warp_streams()
        assert (w0_id, w1_id) == (0, 1)
        assert c0 == c1
        assert d0 != d1  # warp-seeded LDC roots diverge the values
        # ... so the two warps' stores landed at distinct addresses.
        assert len(shadow.mem) == 2


class TestAttachShadow:
    def test_wraps_and_unwraps(self, tiny_config):
        from repro.sim.rand import DeterministicRng
        from repro.sim.sm import StreamingMultiprocessor
        from repro.sim.stats import SmStats
        from repro.sim.technique import SmTechniqueState
        from tests.conftest import straightline_kernel

        kernel = straightline_kernel()
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=tiny_config, kernel=kernel,
            technique_state=SmTechniqueState(kernel, tiny_config, stats),
            ctas_resident_limit=1, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        shadow = attach_shadow(sm)
        assert sm.technique.inner is not None
        sm.run()
        streams = shadow.warp_streams()
        warps = (kernel.metadata.threads_per_cta + 31) // 32
        assert len(streams) == warps
        assert all(count > 0 for _, _, count in streams)


def _regmutex_sm(config, total_ctas=4):
    """One SM of a contended acquire/release kernel (one SRP section)."""
    from repro.regmutex.issue_logic import RegMutexSmState
    from repro.sim.sm import StreamingMultiprocessor
    from repro.sim.stats import SmStats

    b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
    for r in range(4):
        b.ldc(r)
    b.acquire()
    for r in range(4, 8):
        b.ldc(r)
    for r in range(4, 8):
        b.alu(0, 0, r)
    b.release()
    b.store(0, 0)
    b.exit()
    kernel = b.build()
    stats = SmStats()
    return StreamingMultiprocessor(
        sm_id=0, config=config, kernel=kernel,
        technique_state=RegMutexSmState(kernel, config, stats, num_sections=1),
        ctas_resident_limit=2, total_ctas=total_ctas,
        rng=DeterministicRng(1), stats=stats,
    )


class TestShadowWrapperDelegation:
    """The shadow wrapper forwards every technique hook, so it composes
    with state snapshots and with the observer like the bare state does."""

    def test_checkpoint_keeps_the_wrapped_technique_state(self, tiny_config):
        import dataclasses

        from repro.sim.checkpoint import capture_sm

        # Stepped to the first acquire: step() drives the scan stepper.
        sm = _regmutex_sm(dataclasses.replace(tiny_config, issue_engine="scan"))
        attach_shadow(sm)
        state = sm.technique.inner
        while not state.srp.sections_in_use:
            sm.step()
        payload = capture_sm(sm)["technique"]
        assert payload
        assert payload == state.state_snapshot()

    def test_attach_order_does_not_change_the_event_log(self, tiny_config):
        from repro.observe import SmObserver
        from repro.observe.events import SECTION_ACQUIRE

        logs = []
        for shadow_first in (True, False):
            sm = _regmutex_sm(tiny_config)
            obs = SmObserver()
            if shadow_first:
                attach_shadow(sm)
                obs.attach(sm)
            else:
                obs.attach(sm)
                attach_shadow(sm)
            sm.run()
            logs.append(list(obs.log))
        shadow_first_log, observer_first_log = logs
        acquires = [e for e in shadow_first_log if e.kind == SECTION_ACQUIRE]
        assert len(acquires) == 8  # one per warp: 4 CTAs x 2 warps
        assert shadow_first_log == observer_first_log


class TestHookBindingsThroughWrappers:
    """Wrappers that only forward a hook add no call to the issue loop:
    ``_hook_bindings()`` resolves each hook through the wrapper stack."""

    def _sm(self, config, make_state):
        from repro.sim.sm import StreamingMultiprocessor
        from repro.sim.stats import SmStats
        from tests.conftest import straightline_kernel

        kernel = straightline_kernel()
        stats = SmStats()
        return StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=make_state(kernel, config, stats),
            ctas_resident_limit=1, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )

    def _states(self):
        from repro.baselines.owf import OwfSmState
        from repro.regmutex.issue_logic import RegMutexSmState
        from repro.sim.technique import SmTechniqueState

        return {
            "baseline": SmTechniqueState,
            "regmutex": lambda k, c, s: RegMutexSmState(
                k, c, s, num_sections=1),
            "owf": lambda k, c, s: OwfSmState(
                k, c, s, base_ctas=1, extra_ctas=1),
        }

    def test_forwarding_wrappers_bind_the_inner_hooks(self, tiny_config):
        from repro.observe import SmObserver

        for name, make_state in self._states().items():
            for shadow_first in (True, False):
                sm = self._sm(tiny_config, make_state)
                inner = sm.technique
                bare_can_issue, bare_on_issue, wakeups = sm._hook_bindings()
                assert bare_on_issue is None, name
                if name == "owf":
                    # Declared as data: the C loop evaluates it.
                    assert bare_can_issue is inner.native_gate()
                else:
                    assert bare_can_issue is None, name
                assert wakeups is (name != "baseline"), name

                if shadow_first:
                    attach_shadow(sm)
                    SmObserver().attach(sm)
                else:
                    SmObserver().attach(sm)
                    attach_shadow(sm)
                assert sm.technique is not inner
                can_issue, on_issue, wrapped_wakeups = sm._hook_bindings()
                # can_issue and wakeup_pending: no wrapper adds to them.
                if bare_can_issue is None:
                    assert can_issue is None, name
                else:
                    assert can_issue is bare_can_issue
                assert wrapped_wakeups is wakeups, name
                # on_issue: both wrappers add to it, so the outer one
                # is bound and calls inward itself.
                assert on_issue == sm.technique.on_issue
