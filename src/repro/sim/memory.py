"""Memory latency model.

Loads complete after either the L1 hit latency or the DRAM latency,
chosen by a per-access hit/miss draw against the configured hit rate
from a deterministic per-SM stream.  Stores are fire-and-forget (write
buffer), consistent with how latency-tolerant GPU pipelines treat them.

This is intentionally a latency model, not a bandwidth model: the
paper's first-order effect — more resident warps hide more memory
latency — needs per-access latencies and warp-level overlap, which the
scoreboard provides.  An optional in-flight cap models MSHR pressure so
extreme occupancy cannot hide latency for free.
"""

from __future__ import annotations

from array import array

from repro.arch.config import GpuConfig
from repro.sim.columnar import buffer_field
from repro.sim.rand import DeterministicRng

# Slots of ``MemoryModel._counters``, the one buffer the columnar
# engine's C loop shares with this object (it runs ``issue_load`` and
# ``retire`` itself; see ``sim/csrc/nativemodule.c``).
M_IN_FLIGHT_TOTAL = 0
M_NEXT_RETIRE = 1  # -1 means None: nothing in flight
M_LOADS_ISSUED = 2
M_L1_HITS = 3


class MemoryModel:
    """Per-SM memory subsystem."""

    def __init__(
        self,
        config: GpuConfig,
        rng: DeterministicRng,
        max_in_flight: int | None = None,
    ) -> None:
        self._config = config
        self._rng = rng
        self._max_in_flight = (
            max_in_flight if max_in_flight is not None
            else config.max_in_flight_loads
        )
        # Completion cycles of in-flight loads (multiset as sorted list is
        # overkill; dict cycle -> count keeps retire O(1)).
        self._in_flight: dict[int, int] = {}
        # _in_flight_total, _next_retire, loads_issued, l1_hits.
        # ``_next_retire`` is the earliest in-flight completion cycle
        # (None when idle): it lets the per-cycle retire() return without
        # scanning the dict, which is the common case — loads complete
        # every ~20-400 cycles, retire runs every cycle.
        self._counters = array("l", [0, -1, 0, 0])

    _in_flight_total = buffer_field("_counters", M_IN_FLIGHT_TOTAL)
    loads_issued = buffer_field("_counters", M_LOADS_ISSUED)
    l1_hits = buffer_field("_counters", M_L1_HITS)

    @property
    def _next_retire(self) -> int | None:
        nxt = self._counters[M_NEXT_RETIRE]
        return None if nxt < 0 else nxt

    @_next_retire.setter
    def _next_retire(self, value: int | None) -> None:
        self._counters[M_NEXT_RETIRE] = -1 if value is None else value

    @property
    def in_flight(self) -> int:
        return self._in_flight_total

    def can_accept(self) -> bool:
        return self._in_flight_total < self._max_in_flight

    def issue_load(self, cycle: int, shared: bool = False) -> int:
        """Issue a load; returns the cycle its value is ready.

        Shared-memory accesses complete at a fixed short latency and do
        not occupy the in-flight window.
        """
        if shared:
            return cycle + self._config.l1_hit_latency // 2 + 1
        if not self.can_accept():
            raise RuntimeError("memory model saturated; call can_accept first")
        self.loads_issued += 1
        if self._rng.uniform() < self._config.l1_hit_rate:
            self.l1_hits += 1
            latency = self._config.l1_hit_latency
        else:
            latency = self._config.dram_latency
        done = cycle + latency
        self._in_flight[done] = self._in_flight.get(done, 0) + 1
        self._in_flight_total += 1
        nxt = self._next_retire
        if nxt is None or done < nxt:
            self._next_retire = done
        return done

    def earliest_completion(self, cycle: int) -> int | None:
        """Soonest in-flight load completion after ``cycle`` (None if idle).

        ``_next_retire`` already holds the answer on the hot path (the
        SM retires due loads at cycle start, so the cached minimum is
        strictly in the future by the time anyone asks); only a caller
        that skipped ``retire`` can observe a stale ``<= cycle`` value,
        which falls back to the scan.
        """
        nxt = self._next_retire
        if nxt is None or nxt > cycle:
            return nxt
        return self._earliest_completion_scan(cycle)

    def _earliest_completion_scan(self, cycle: int) -> int | None:
        """Reference implementation (full scan of the in-flight multiset),
        kept for the identity-pinning test and the stale-cache fallback."""
        future = [c for c in self._in_flight if c > cycle]
        return min(future) if future else None

    def retire(self, cycle: int) -> None:
        """Retire loads whose completion cycle has passed."""
        nxt = self._next_retire
        if nxt is None or nxt > cycle:
            return
        done = [c for c in self._in_flight if c <= cycle]
        for c in done:
            self._in_flight_total -= self._in_flight.pop(c)
        self._next_retire = min(self._in_flight) if self._in_flight else None

    @property
    def l1_hit_rate_observed(self) -> float:
        if self.loads_issued == 0:
            return 0.0
        return self.l1_hits / self.loads_issued

    # -- state snapshot (repro.sim.checkpoint) -------------------------------------
    def snapshot(self) -> dict:
        """All mutable state, including the hit/miss RNG stream position."""
        return {
            "in_flight": {str(c): n for c, n in self._in_flight.items()},
            "in_flight_total": self._in_flight_total,
            "next_retire": self._next_retire,
            "loads_issued": self.loads_issued,
            "l1_hits": self.l1_hits,
            "rng_state": self._rng._state,
        }
