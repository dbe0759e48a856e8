"""Shared Register Pool hardware structures (paper §III-B1, Figures 4/5).

Three tiny structures per SM:

* **warp status bitmask** — one bit per warp slot: has this warp
  acquired its extended set?  (``Nw`` bits)
* **SRP bitmask** — one bit per SRP section: is the section taken?
  Allocation is Find-First-Zero.  Sections beyond the number that
  physically fits are pre-set at kernel placement and never cleared.
  (``Nw`` bits)
* **LUT** — per-warp entry of ``ceil(log2 Nw)`` bits recording which
  section the warp holds.

:class:`Bitmask` models a fixed-width hardware bitmask faithfully
(including FFZ); :class:`SharedRegisterPool` composes the three
structures with the acquire/release procedures of Figure 5.
"""

from __future__ import annotations

import math
from typing import Optional


class Bitmask:
    """Fixed-width bitmask with hardware-style operations."""

    __slots__ = ("_width", "_bits")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("bitmask width must be positive")
        self._width = width
        self._bits = 0

    @property
    def width(self) -> int:
        return self._width

    def _check(self, index: int) -> None:
        if not 0 <= index < self._width:
            raise IndexError(f"bit {index} outside width {self._width}")

    def set(self, index: int) -> None:
        self._check(index)
        self._bits |= 1 << index

    def unset(self, index: int) -> None:
        self._check(index)
        self._bits &= ~(1 << index)

    def test(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits >> index & 1)

    def find_first_zero(self) -> Optional[int]:
        """Index of the least-significant zero bit; None if full."""
        inverted = ~self._bits & ((1 << self._width) - 1)
        if inverted == 0:
            return None
        return (inverted & -inverted).bit_length() - 1

    def popcount(self) -> int:
        return self._bits.bit_count()

    def as_int(self) -> int:
        return self._bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitmask({self._width}, {self._bits:#x})"


class SharedRegisterPool:
    """The SRP allocator: status bitmask + SRP bitmask + LUT.

    ``num_sections`` is how many extended sets physically fit; bits past
    it are pre-set at construction ("kernel placement") per the paper.
    """

    def __init__(self, max_warps: int, num_sections: int) -> None:
        if num_sections < 0:
            raise ValueError("num_sections must be non-negative")
        if num_sections > max_warps:
            # The SRP bitmask is Nw bits long; more sections than warp
            # slots cannot be addressed (and would be useless anyway).
            raise ValueError(
                f"num_sections {num_sections} exceeds warp slots {max_warps}"
            )
        self._max_warps = max_warps
        self._num_sections = num_sections
        # Observability hook: called as (kind, warp_slot, section) on
        # every *real* state transition ("acquire"/"release"); nested
        # no-op acquires/releases do not fire it.  None when unobserved.
        self.on_transition = None
        self.warp_status = Bitmask(max_warps)
        self.srp_bitmask = Bitmask(max_warps)
        # LUT: one entry of ceil(log2 Nw) bits per warp.
        self._lut: list[Optional[int]] = [None] * max_warps
        for section in range(num_sections, max_warps):
            self.srp_bitmask.set(section)

    # -- geometry ---------------------------------------------------------------
    @property
    def num_sections(self) -> int:
        return self._num_sections

    @property
    def max_warps(self) -> int:
        return self._max_warps

    @property
    def sections_in_use(self) -> int:
        return self.srp_bitmask.popcount() - (self._max_warps - self._num_sections)

    @property
    def sections_free(self) -> int:
        # Clamped: after corrupt_for_fault_injection leaks a section the
        # raw count can go negative; fault diagnostics read this as an
        # occupancy figure, so it never reports "-1 free".  The raw value
        # still trips check_invariants.
        return max(0, self._num_sections - self.sections_in_use)

    def lut_entry(self, warp_slot: int) -> Optional[int]:
        return self._lut[warp_slot]

    def holds_section(self, warp_slot: int) -> bool:
        return self.warp_status.test(warp_slot)

    # -- acquire/release procedures (Figure 5) ------------------------------------
    def acquire(self, warp_slot: int) -> Optional[int]:
        """Attempt to acquire a section for a warp slot.

        Returns the granted section index, or None when the SRP is full
        (the warp must wait and retry).  A nested acquire — the warp
        already holds a section — is a no-op returning the held section,
        per the paper's "an acquire after another acquire ... should have
        no effect".
        """
        if self.warp_status.test(warp_slot):
            return self._lut[warp_slot]
        section = self.srp_bitmask.find_first_zero()
        if section is None:
            return None
        self.srp_bitmask.set(section)
        self.warp_status.set(warp_slot)
        self._lut[warp_slot] = section
        if self.on_transition is not None:
            self.on_transition("acquire", warp_slot, section)
        return section

    def release(self, warp_slot: int) -> Optional[int]:
        """Release the warp's section; no-op if it holds none (nested
        release rule).  Returns the freed section index, or None."""
        if not self.warp_status.test(warp_slot):
            return None
        section = self._lut[warp_slot]
        assert section is not None, "status bit set but LUT empty"
        self.warp_status.unset(warp_slot)
        self.srp_bitmask.unset(section)
        self._lut[warp_slot] = None
        if self.on_transition is not None:
            self.on_transition("release", warp_slot, section)
        return section

    # -- columnar export ---------------------------------------------------------
    def occupancy_columns(self) -> dict:
        """The three structures as per-slot/per-section columns.

        Bulk consumers (the sanitizer's cross-check against the
        columnar ``holds`` column, the column-view tests, exporters)
        read these instead of probing bits one at a time.  Each column
        is a plain list.

        Keys: ``holds`` (bool per warp slot: status bit), ``section``
        (int per warp slot: LUT entry, -1 when none), ``taken`` (bool
        per *addressable* section: SRP bit — pre-set bits past
        ``num_sections`` included, exactly as the hardware holds them).
        """
        return {
            "holds": [
                self.warp_status.test(slot) for slot in range(self._max_warps)
            ],
            "section": [
                -1 if entry is None else entry for entry in self._lut
            ],
            "taken": [
                self.srp_bitmask.test(section)
                for section in range(self._max_warps)
            ],
        }

    # -- fault injection support -----------------------------------------------------
    def corrupt_for_fault_injection(
        self,
        *,
        set_section_bits: tuple[int, ...] = (),
        clear_section_bits: tuple[int, ...] = (),
        clear_slots: tuple[int, ...] = (),
    ) -> None:
        """Deliberately desynchronize the three structures.

        This is the *only* supported way to model hardware faults (a
        flipped SRP bit, a release lost in flight): it bypasses the
        acquire/release procedures, so the structures end up mutually
        inconsistent — exactly what :meth:`check_invariants` and the
        simulator watchdog exist to catch.  Never called outside
        ``repro.faults`` and its tests.
        """
        for section in set_section_bits:
            self.srp_bitmask.set(section)
        for section in clear_section_bits:
            self.srp_bitmask.unset(section)
        for slot in clear_slots:
            # A lost release: the warp-side view clears but the section
            # bit stays set, leaking the section forever.
            self.warp_status.unset(slot)
            self._lut[slot] = None

    # -- invariant checking (used by property tests) ---------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if the three structures disagree."""
        held = [s for s in self._lut if s is not None]
        assert len(held) == len(set(held)), "two warps hold the same section"
        for slot in range(self._max_warps):
            if self.warp_status.test(slot):
                section = self._lut[slot]
                assert section is not None, f"slot {slot}: status set, LUT empty"
                assert section < self._num_sections, (
                    f"slot {slot}: holds phantom section {section}"
                )
                assert self.srp_bitmask.test(section), (
                    f"slot {slot}: LUT says {section} but SRP bit clear"
                )
            else:
                assert self._lut[slot] is None, f"slot {slot}: stale LUT entry"
        assert self.sections_in_use == len(held), (
            f"{self.sections_in_use} section(s) marked in use but "
            f"{len(held)} LUT holder(s)"
        )
        # Deliberately unclamped: a leaked section (release lost in
        # flight) makes sections_in_use exceed num_sections, which the
        # clamped sections_free property would hide.
        raw_free = self._num_sections - self.sections_in_use
        assert 0 <= raw_free <= self._num_sections, (
            f"section leak: {self.sections_in_use} in use of "
            f"{self._num_sections}"
        )


def lut_bits(max_warps: int) -> int:
    """Storage of the LUT in bits: Nw entries of ceil(log2 Nw) bits.

    With one warp slot the entry needs ceil(log2 1) = 0 bits — there is
    nothing to index — so the documented formula gives 0, not 1.
    """
    if max_warps <= 1:
        return 0
    return max_warps * math.ceil(math.log2(max_warps))
