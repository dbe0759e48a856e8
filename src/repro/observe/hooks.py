"""Attachment points between the simulator and the event log.

Two cooperating pieces:

* :class:`ObservingTechniqueState` wraps the installed technique state
  (decorator pattern) and logs issue / acquire / release / warp-finish
  events.  Because the SM already virtual-dispatches through its
  technique state, wrapping costs nothing when observability is off —
  no wrapper exists.

* :class:`SmObserver` owns the event log and the probe series for one
  SM.  The SM calls exactly one observer hook per cycle (``on_cycle``),
  which takes the stride-sampled probes; CTA, watchdog and run-end
  hooks fire on their (rare) occasions.  Stall attribution is read
  from the probes' cumulative counters, which equal ``SmStats`` at the
  final sample.

``SmObserver.attach`` is the one-call entry point::

    obs = SmObserver(stride=64)
    obs.attach(sm)          # before sm.run()
    sm.run()
    obs.log, obs.samples    # events + timelines
"""

from __future__ import annotations

from repro.observe.bus import EventLog
from repro.observe.events import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    ISSUE,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
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
    """Wraps another technique state and logs its decisions."""

    def __init__(self, inner: SmTechniqueState, log: EventLog) -> None:
        super().__init__(inner)
        self.log = log

    def on_issue(self, warp: Warp, inst, cycle: int) -> None:
        self.log.append(SimEvent(
            cycle, ISSUE, warp.warp_id, warp.pc, inst.opcode.value
        ))
        self.inner.on_issue(warp, inst, cycle)

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        granted = self.inner.try_acquire(warp, cycle)
        if granted:
            self.log.append(SimEvent(
                cycle, ACQUIRE_OK, warp.warp_id, warp.pc,
                value=warp.srp_section if warp.srp_section is not None else 0,
            ))
        else:
            self.log.append(SimEvent(
                cycle, ACQUIRE_BLOCKED, warp.warp_id, warp.pc
            ))
        return granted

    def release(self, warp: Warp, cycle: int) -> None:
        held_before = warp.holds_extended_set
        section = warp.srp_section
        self.inner.release(warp, cycle)
        if held_before:
            self.log.append(SimEvent(
                cycle, RELEASE, warp.warp_id, warp.pc,
                value=section if section is not None else 0,
            ))

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        self.inner.on_warp_finish(warp, cycle)
        self.log.append(SimEvent(cycle, WARP_FINISH, warp.warp_id, warp.pc))


class SmObserver:
    """Per-SM observability session: event log + probe series."""

    def __init__(self, stride: int = 64) -> None:
        self.log = EventLog()
        self.samples = ProbeSeries(stride=stride)
        self.sm = None
        self._next_sample = 0

    # -- attachment -------------------------------------------------------------
    def attach(self, sm) -> "SmObserver":
        """Install this observer on an SM; raises ``ValueError`` if the
        SM already has one.

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
        sm.technique = ObservingTechniqueState(sm.technique, self.log)
        # SRP-level section transitions, when the technique has a pool.
        srp = getattr(innermost(sm.technique), "srp", None)
        if srp is not None and hasattr(srp, "on_transition"):
            srp.on_transition = self._on_srp_transition
        self._next_sample = sm.cycle
        return self

    # -- SM-side hooks ----------------------------------------------------------
    def on_cycle(self, sm) -> None:
        """The once-per-cycle hook: stride sampling."""
        if sm.cycle >= self._next_sample:
            self.samples.sample(sm)
            self._next_sample = sm.cycle + self.samples.stride

    def on_cta_launch(self, sm, cta) -> None:
        self.log.append(SimEvent(
            sm.cycle, CTA_LAUNCH, value=cta.cta_id,
            detail=cta.warps[0].kernel.name if cta.warps else None,
        ))

    def on_cta_retire(self, sm, cta) -> None:
        self.log.append(SimEvent(sm.cycle, CTA_RETIRE, value=cta.cta_id))

    def on_watchdog(self, sm, summary: str) -> None:
        self.log.append(SimEvent(sm.cycle, WATCHDOG, detail=summary))

    def on_run_end(self, sm) -> None:
        """Take the final sample, on the run's last cycle."""
        if not len(self.samples) or self.samples.cycle[-1] != sm.cycle:
            self.samples.sample(sm)

    # -- SRP-side hook ----------------------------------------------------------
    def _on_srp_transition(self, kind: str, slot: int, section: int) -> None:
        cycle = self.sm.cycle if self.sm is not None else 0
        event_kind = SECTION_ACQUIRE if kind == "acquire" else SECTION_RELEASE
        self.log.append(SimEvent(cycle, event_kind, warp_id=slot, value=section))
