"""Tests for GTO and LRR warp schedulers."""

from array import array

import pytest

from repro.sim.rand import DeterministicRng
from repro.sim.scheduler import GtoScheduler, LrrScheduler, make_scheduler
from repro.sim.warp import Warp
from tests.conftest import straightline_kernel


def _warps(n):
    kernel = straightline_kernel()
    return [Warp(i, 0, kernel, DeterministicRng(i)) for i in range(n)]


def _bits(*set_slots, n=8):
    """Per-slot priority bits with ``set_slots`` set."""
    bits = array("l", [0]) * n
    for slot in set_slots:
        bits[slot] = 1
    return bits


class TestGto:
    def test_picks_oldest_initially(self):
        sched = GtoScheduler(0)
        warps = _warps(4)
        assert sched.pick([warps[2], warps[1], warps[3]]) is warps[1]

    def test_greedy_sticks_to_last_issued(self):
        sched = GtoScheduler(0)
        warps = _warps(4)
        sched.notify_issued(warps[2])
        assert sched.pick(warps) is warps[2]

    def test_falls_back_to_oldest_when_greedy_stalls(self):
        sched = GtoScheduler(0)
        warps = _warps(4)
        sched.notify_issued(warps[2])
        # warps[2] not in candidates: stalled
        assert sched.pick([warps[3], warps[1]]) is warps[1]

    def test_empty_candidates(self):
        assert GtoScheduler(0).pick([]) is None

    def test_removed_greedy_forgotten(self):
        sched = GtoScheduler(0)
        warps = _warps(3)
        sched.notify_issued(warps[2])
        sched.notify_removed(warps[2])
        assert sched.pick(warps) is warps[0]

    def test_priority_hook_outranks_greedy(self):
        """OWF's owner-first: warps whose priority bit is set outrank
        the greedy warp."""
        warps = _warps(4)
        sched = GtoScheduler(0, priority=_bits(3))
        sched.notify_issued(warps[0])
        assert sched.pick(warps) is warps[3]

    def test_priority_ties_use_greedy_then_oldest(self):
        warps = _warps(4)
        for bits in (_bits(), _bits(0, 1, 2, 3)):
            sched = GtoScheduler(0, priority=bits)
            sched.notify_issued(warps[1])
            assert sched.pick(warps) is warps[1]
            assert sched.pick([warps[2], warps[3]]) is warps[2]

    def test_priority_single_pass_matches_owf_semantics(self):
        """The prioritized candidates win when there is one, ties break
        greedy-then-oldest, and with none prioritized every candidate
        is eligible."""
        warps = _warps(6)
        sched = GtoScheduler(0, priority=_bits(1, 2, 4))
        assert sched.pick(warps) is warps[1]      # oldest prioritized
        sched.notify_issued(warps[4])
        assert sched.pick(warps) is warps[4]      # greedy among them
        assert sched.pick([warps[0], warps[3], warps[5]]) is warps[0]
        sched.notify_issued(warps[5])
        assert sched.pick([warps[0], warps[3], warps[5]]) is warps[5]

    @pytest.mark.parametrize("priority", [
        lambda w: 0, [0] * 8, array("i", [0] * 8), array("q", [0] * 8),
    ], ids=["callable", "list", "int-array", "longlong-array"])
    def test_priority_is_data_only(self, priority):
        """No priority the C loop cannot read can be built: a callable
        hook or any container but array('l') is refused."""
        with pytest.raises(TypeError, match="array\\('l'\\)"):
            GtoScheduler(0, priority=priority)


class TestLrr:
    def test_round_robin_order(self):
        sched = LrrScheduler(0)
        warps = _warps(3)
        first = sched.pick(warps)
        sched.notify_issued(first)
        second = sched.pick(warps)
        sched.notify_issued(second)
        third = sched.pick(warps)
        sched.notify_issued(third)
        wrap = sched.pick(warps)
        assert [w.warp_id for w in (first, second, third, wrap)] == [0, 1, 2, 0]

    def test_skips_missing_candidates(self):
        sched = LrrScheduler(0)
        warps = _warps(4)
        sched.notify_issued(warps[1])
        assert sched.pick([warps[0], warps[3]]) is warps[3]

    def test_empty(self):
        assert LrrScheduler(0).pick([]) is None

    def test_rotation_over_id_ordered_candidates(self):
        """Sort-free pick: with the (now documented) id-ascending
        candidate precondition, rotation must still visit every warp in
        round-robin order across picks, including wrap-around."""
        sched = LrrScheduler(0)
        warps = _warps(5)
        order = []
        for _ in range(10):
            chosen = sched.pick(warps)
            order.append(chosen.warp_id)
            sched.notify_issued(chosen)
        assert order == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]

    def test_wraps_when_last_issued_is_max_id(self):
        sched = LrrScheduler(0)
        warps = _warps(4)
        sched.notify_issued(warps[3])
        assert sched.pick(warps) is warps[0]

    def test_rotation_with_gaps(self):
        """Stalled warps vanish from candidates; rotation continues from
        the next higher id that is present."""
        sched = LrrScheduler(0)
        warps = _warps(6)
        sched.notify_issued(warps[2])
        assert sched.pick([warps[0], warps[4], warps[5]]) is warps[4]
        sched.notify_issued(warps[4])
        assert sched.pick([warps[0], warps[1]]) is warps[0]


class TestFactory:
    def test_gto(self):
        assert isinstance(make_scheduler("gto", 0), GtoScheduler)

    def test_lrr(self):
        assert isinstance(make_scheduler("lrr", 0), LrrScheduler)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", 0)

    def test_lrr_rejects_priority(self):
        with pytest.raises(ValueError):
            make_scheduler("lrr", 0, priority=_bits())
