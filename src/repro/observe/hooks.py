"""Attachment points between the simulator and the event bus.

Two cooperating pieces:

* :class:`ObservingTechniqueState` wraps the installed technique state
  (decorator pattern) and publishes issue / acquire / release / warp-finish events.
  Because the SM already virtual-dispatches through its technique state,
  wrapping costs nothing when observability is off — no wrapper exists.

* :class:`SmObserver` owns the bus, the event log, and the probe
  series for one SM.  The SM calls exactly one observer hook per cycle
  (``on_cycle``), from which stall attribution (aggregate-counter
  deltas, so the event stream sums to ``SmStats`` by construction *and*
  by test) and stride-sampled probes are driven.  CTA, fast-forward,
  watchdog, and run-end hooks fire on their (rare) occasions.

``SmObserver.attach`` is the one-call entry point::

    obs = SmObserver(stride=64)
    obs.attach(sm)          # before sm.run()
    sm.run()
    obs.log, obs.samples    # events + timelines
"""

from __future__ import annotations

from repro.observe.bus import EventBus, EventLog
from repro.observe.events import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    FAST_FORWARD,
    ISSUE,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    STALL,
    WARP_FINISH,
    WATCHDOG,
    SimEvent,
)
from repro.observe.probes import ProbeSeries
from repro.sim.technique import (
    DelegatingTechniqueState,
    SmTechniqueState,
    innermost,
)
from repro.sim.warp import Warp


class ObservingTechniqueState(DelegatingTechniqueState):
    """Wraps another technique state and publishes its decisions."""

    def __init__(self, inner: SmTechniqueState, bus: EventBus) -> None:
        super().__init__(inner)
        self.bus = bus

    def on_issue(self, warp: Warp, inst, cycle: int) -> None:
        self.bus.emit(SimEvent(
            cycle, ISSUE, warp.warp_id, warp.pc, inst.opcode.value
        ))
        self.inner.on_issue(warp, inst, cycle)

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        granted = self.inner.try_acquire(warp, cycle)
        if granted:
            self.bus.emit(SimEvent(
                cycle, ACQUIRE_OK, warp.warp_id, warp.pc,
                value=warp.srp_section if warp.srp_section is not None else 0,
            ))
        else:
            self.bus.emit(SimEvent(
                cycle, ACQUIRE_BLOCKED, warp.warp_id, warp.pc
            ))
        return granted

    def release(self, warp: Warp, cycle: int) -> None:
        held_before = warp.holds_extended_set
        section = warp.srp_section
        self.inner.release(warp, cycle)
        if held_before:
            self.bus.emit(SimEvent(
                cycle, RELEASE, warp.warp_id, warp.pc,
                value=section if section is not None else 0,
            ))

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        self.inner.on_warp_finish(warp, cycle)
        self.bus.emit(SimEvent(cycle, WARP_FINISH, warp.warp_id, warp.pc))


# Stat-attribute name -> event category label, in attribution priority
# order (matches the SM's saw_* precedence).
_STALL_FIELDS = (
    ("stall_acquire", "acquire"),
    ("stall_memory", "memory"),
    ("stall_barrier", "barrier"),
    ("stall_scoreboard", "scoreboard"),
)


class SmObserver:
    """Per-SM observability session: bus + event log + probe series."""

    def __init__(
        self,
        bus: EventBus | None = None,
        stride: int = 64,
        collect_log: bool = True,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self.samples = ProbeSeries(stride=stride)
        self.log: EventLog | None = None
        if collect_log:
            self.log = EventLog()
            self.bus.subscribe(self.log.append)
        self.sm = None
        self._next_sample = 0
        self._prev_stalls = [0] * len(_STALL_FIELDS)

    # -- attachment -------------------------------------------------------------
    def attach(self, sm) -> "SmObserver":
        """Install this observer on an SM (idempotent per SM).

        Replacing ``sm.technique`` with the observing wrapper is safe
        under both issue engines: the columnar engine's C loop binds
        ``self.technique`` at the start of each run (attach before
        ``run()``), and the wrapper forwards ``wakeup_pending``
        verbatim, so acquire re-arms still reach the wake queues.
        """
        if sm._observer is not None:
            raise ValueError(f"SM {sm.sm_id} already has an observer")
        self.sm = sm
        sm._observer = self
        sm.technique = ObservingTechniqueState(sm.technique, self.bus)
        # SRP-level section transitions, when the technique has a pool.
        srp = getattr(innermost(sm.technique), "srp", None)
        if srp is not None and hasattr(srp, "on_transition"):
            srp.on_transition = self._on_srp_transition
        # Seed the stall baseline in case the SM already ran cycles.
        stats = sm.stats
        self._prev_stalls = [getattr(stats, f) for f, _ in _STALL_FIELDS]
        self._next_sample = sm.cycle
        return self

    # -- SM-side hooks ----------------------------------------------------------
    def on_cycle(self, sm) -> None:
        """The once-per-cycle hook: stall deltas + stride sampling."""
        stats = sm.stats
        prev = self._prev_stalls
        cycle = sm.cycle
        for i, (field, category) in enumerate(_STALL_FIELDS):
            now = getattr(stats, field)
            delta = now - prev[i]
            if delta:
                self.bus.emit(SimEvent(
                    cycle, STALL, detail=category, value=delta
                ))
                prev[i] = now
        if cycle >= self._next_sample:
            self.samples.sample(sm)
            self._next_sample = cycle + self.samples.stride

    def on_cta_launch(self, sm, cta) -> None:
        self.bus.emit(SimEvent(
            sm.cycle, CTA_LAUNCH, value=cta.cta_id,
            detail=cta.warps[0].kernel.name if cta.warps else None,
        ))

    def on_cta_retire(self, sm, cta) -> None:
        self.bus.emit(SimEvent(sm.cycle, CTA_RETIRE, value=cta.cta_id))

    def on_fast_forward(self, sm, skipped: int) -> None:
        self.bus.emit(SimEvent(sm.cycle, FAST_FORWARD, value=skipped))

    def on_watchdog(self, sm, summary: str) -> None:
        self.bus.emit(SimEvent(sm.cycle, WATCHDOG, detail=summary))

    def on_run_end(self, sm) -> None:
        """Flush trailing stall deltas and take a final sample."""
        self.on_cycle(sm)
        if not len(self.samples) or self.samples.cycle[-1] != sm.cycle:
            self.samples.sample(sm)

    # -- SRP-side hook ----------------------------------------------------------
    def _on_srp_transition(self, kind: str, slot: int, section: int) -> None:
        cycle = self.sm.cycle if self.sm is not None else 0
        event_kind = SECTION_ACQUIRE if kind == "acquire" else SECTION_RELEASE
        self.bus.emit(SimEvent(cycle, event_kind, warp_id=slot, value=section))
