"""Streaming Multiprocessor pipeline.

Each cycle:

1. retire completed memory accesses and expire scoreboard entries,
2. wake warps whose blocked acquire may now succeed,
3. each warp scheduler picks one issuable warp (scoreboard-clean, not at
   a barrier, not blocked on acquire, technique gate open) and issues its
   next instruction,
4. the CTA dispatcher replaces retired CTAs with pending ones.

Issue semantics per instruction class:

* ALU/SFU — destination registers become ready after the opcode latency.
* LD — destination ready after the memory model's hit/miss latency;
  stalls if the in-flight window is full.
* ST — fire-and-forget.
* BRA/JMP — branch resolves immediately (annotations decide direction).
* BAR.SYNC — warp parks until all live warps of its CTA arrive.
* ACQUIRE/RELEASE — delegated to the installed sharing technique.
* EXIT — warp finishes; a fully finished CTA retires and frees its slot.

The model is deliberately at GPGPU-Sim's "simplified depiction" level
(paper Figure 4): fetch/decode/operand-collection are folded into a
single issue stage, which preserves the occupancy/latency-hiding/stall
interactions RegMutex lives on without modelling bank conflicts.
"""

from __future__ import annotations

from bisect import insort

from repro.arch.config import GpuConfig
from repro.errors import (
    CycleLimitExceededError,
    DeadlockDiagnostic,
    SimulationDeadlockError,
    SimulationError,
    WarpSnapshot,
)
from repro.isa.instructions import Instruction, OpClass, Opcode
from repro.isa.kernel import Kernel
from repro.sim.columnar import (
    MEMORY_STALL_HORIZON,
    ST_FINISHED,
    STOP_CYCLE_LIMIT,
    STOP_DEADLOCK,
    STOP_WATCHDOG,
    ColumnarCore,
    ColumnarScoreboard,
)
from repro.sim.cta import Cta
from repro.sim.memory import MemoryModel
from repro.sim.rand import DeterministicRng
from repro.sim.scheduler import WarpScheduler, make_scheduler
from repro.sim.scoreboard import Scoreboard
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState, resolve_gate, resolve_hook
from repro.sim.warp import Warp, WarpStatus

# Scoreboard-expiry cadence: purging every cycle is wasted work; the
# horizon only affects dict size, never correctness.
_EXPIRE_PERIOD = 64

# Eager acquire-retry backoff (cycles): "retries at later rounds when the
# warp gets scheduled again" (§III-B1) — the warp yields its scheduler
# between polls instead of spinning in the greedy slot.
_EAGER_RETRY_BACKOFF = 16


def _by_warp_id(warp: Warp) -> int:
    """Module-level insort key (no per-call closure on the hot path)."""
    return warp.warp_id


# The C loop of the columnar engine.  The first columnar SM of a process
# resolves it (repro.sim.native finds the ``repro._native`` binary built
# from this checkout's C source, building it on first use).  When it is
# None, an SM configured for the columnar engine builds the scan stepper
# instead (identical results, one RuntimeWarning per process).  Tests
# force that fallback by setting this module attribute to None.
_UNRESOLVED = object()
_native = _UNRESOLVED
# Why ``_native`` is None, for the one fallback warning.
_native_fallback_cause = "repro._native is switched off"
_NATIVE_FALLBACK_WARNED = False


def native_module():
    """The C loop's module, resolving it on first call; None when a
    columnar config runs the scan stepper in this process."""
    global _native, _native_fallback_cause
    if _native is _UNRESOLVED:
        from repro.sim.native import load_native

        _native, cause = load_native()
        if cause is not None:
            _native_fallback_cause = cause
    return _native


def _warn_native_fallback() -> None:
    """Report, once per process, that columnar configs run the scan
    stepper."""
    global _NATIVE_FALLBACK_WARNED
    if _NATIVE_FALLBACK_WARNED:
        return
    _NATIVE_FALLBACK_WARNED = True
    import warnings

    warnings.warn(
        f"{_native_fallback_cause}; the columnar issue engine is falling "
        "back to the scan stepper (identical results, lower throughput)",
        RuntimeWarning,
        stacklevel=4,
    )


def _stock_memory(memory) -> bool:
    """Whether ``memory`` is the stock ``MemoryModel``, which the C loop
    carries its own copy of (no subclass, no instance-level
    ``issue_load``/``retire``, the stock rng)."""
    return (
        type(memory) is MemoryModel
        and type(memory._rng) is DeterministicRng
        and "issue_load" not in memory.__dict__
        and "retire" not in memory.__dict__
    )


class StreamingMultiprocessor:
    """One SM executing a stream of identical CTAs."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        kernel: Kernel,
        technique_state: SmTechniqueState,
        ctas_resident_limit: int,
        total_ctas: int,
        rng: DeterministicRng,
        stats: SmStats | None = None,
        kernels_for_ctas: list[Kernel] | None = None,
    ) -> None:
        if ctas_resident_limit <= 0 and total_ctas > 0:
            raise ValueError(
                "kernel cannot be placed: zero CTAs fit on the SM "
                "(register file too small for even one CTA)"
            )
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.technique = technique_state
        self.ctas_resident_limit = ctas_resident_limit
        self.ctas_pending = total_ctas
        self.rng = rng
        self.stats = stats if stats is not None else SmStats()
        self.cycle = 0
        # Watchdog marker: the last cycle any warp advanced its pc or
        # finished (a successful acquire/release advances the pc, so
        # every SRP state transition moves this too).
        self._last_progress_cycle = 0
        # Observability: None (the default) costs one ``is not None``
        # branch per cycle; ``repro.observe.SmObserver.attach`` installs
        # a live one.  Must exist before ``_fill_ctas`` so the launch
        # hook can test it.
        self._observer = None

        self.schedulers: list[WarpScheduler] = [
            make_scheduler(config.scheduler_policy, i,
                           priority=technique_state.scheduler_priority)
            for i in range(config.num_schedulers)
        ]
        # The engine is chosen once: columnar when configured and the C
        # loop resolves, else the scan stepper.
        columnar = config.issue_engine == "columnar"
        if columnar and native_module() is None:
            _warn_native_fallback()
            columnar = False
        self._init_warp_state(columnar)
        self.memory = MemoryModel(config, rng.fork(0x3E3))
        self._resident_warp_count = 0
        self._next_warp_id = 0
        self._next_cta_seq = 0
        # SM-local warp-slot allocator.  Hardware structures (SRP status
        # bits, base register blocks) are indexed by a slot in
        # [0, max_warps_per_sm); ``warp_id % max_warps_per_sm``
        # aliases once ids wrap past the slot count while earlier warps
        # are still resident (out-of-order CTA retirement), so slots are
        # allocated explicitly: the modulo value when free — which keeps
        # every non-colliding schedule bit-identical — else the lowest
        # free index.
        self._occupied_slots: set[int] = set()
        # Dynamic sanitizer (repro.check): like the observer, None costs
        # one ``is not None`` branch per cycle/issue.  Local import —
        # check/ imports sim modules.
        self._sanitizer = None
        if config.sanitizer:
            from repro.check.sanitizer import Sanitizer

            self._sanitizer = Sanitizer(self)
        # Heterogeneous co-scheduling: an optional per-CTA kernel list
        # (see repro.sim.multikernel); homogeneous launches use the
        # single kernel for every CTA.
        self._kernels_for_ctas = kernels_for_ctas
        if kernels_for_ctas is not None and len(kernels_for_ctas) < total_ctas:
            raise ValueError("kernels_for_ctas shorter than total_ctas")
        self._fill_ctas()

    # -- warp containers ----------------------------------------------------------
    def _init_warp_state(self, columnar: bool) -> None:
        """Empty warp containers and fresh issue-path state.

        Columnar store (``columnar=True``): per-slot state arrays + thin
        Warp views that the C loop drives — see repro.sim.columnar.  The
        scoreboard is then the columnar facade over the same store, so
        every external consumer (sanitizer hazard re-check, deadlock
        diagnostics, state snapshots, tests) reads the columns through the
        Scoreboard methods it uses.  Otherwise ``_columnar`` is None and
        the scan stepper runs (the bit-identity reference).
        """
        config = self.config
        self.resident_ctas: list[Cta] = []
        self._ctas_by_id: dict[int, Cta] = {}
        self._warps_by_scheduler: list[list[Warp]] = [
            [] for _ in range(config.num_schedulers)
        ]
        # Issue-loop scratch: (scheduler, its warps, candidate buffer)
        # per scheduler slot.  The warp lists are the *same* objects as
        # ``_warps_by_scheduler`` entries (mutated in place by CTA
        # launch/retire); the candidate buffers persist across cycles so
        # ``step`` allocates nothing — building a fresh list per
        # scheduler per cycle was measurable on long runs.
        self._sched_units: list[tuple[WarpScheduler, list[Warp], list[Warp]]] = [
            (sched, warps, [])
            for sched, warps in zip(self.schedulers, self._warps_by_scheduler)
        ]
        self._columnar: ColumnarCore | None = None
        if columnar:
            self._columnar = ColumnarCore(self.schedulers, config)
            self.scoreboard = ColumnarScoreboard(self._columnar)
        else:
            self.scoreboard = Scoreboard()

    def _new_warp(
        self, warp_id: int, cta_id: int, kernel: Kernel,
        rng: DeterministicRng, slot: int,
    ) -> Warp:
        """Construct a warp on this SM's issue path and register it with
        the scoreboard and its scheduler (CTA launch).

        Columnar mode: the core owns the hot state and hands back a
        bound view (slot columns initialized, scoreboard row allocated,
        wid→slot adopted).  Queue membership is the caller's: launch
        appends to the ready list.
        """
        if self._columnar is not None:
            warp = self._columnar.new_warp(warp_id, cta_id, kernel, rng, slot)
        else:
            warp = Warp(warp_id, cta_id, kernel, rng, slot=slot)
        self.scoreboard.register_warp(warp_id)
        self._warps_by_scheduler[warp_id % self.config.num_schedulers].append(
            warp
        )
        return warp

    # -- CTA dispatch -------------------------------------------------------------
    def _fill_ctas(self) -> None:
        while (
            self.ctas_pending > 0
            and len(self.resident_ctas) < self.ctas_resident_limit
        ):
            self._launch_cta()

    def _launch_cta(self) -> None:
        if self._kernels_for_ctas is not None:
            cta_kernel = self._kernels_for_ctas[self._next_cta_seq]
        else:
            cta_kernel = self.kernel
        warps_per_cta = (
            cta_kernel.metadata.threads_per_cta + self.config.warp_size - 1
        ) // self.config.warp_size
        warps = []
        for _ in range(warps_per_cta):
            warp_id = self._next_warp_id
            warps.append(self._new_warp(
                warp_id,
                self._next_cta_seq,
                cta_kernel,
                self.rng.fork(warp_id + 1),
                self._allocate_slot(warp_id),
            ))
            self._next_warp_id += 1
        for warp in warps:
            self.technique.on_warp_launch(warp)
        if self._columnar is not None:
            for warp in warps:
                self._columnar.add_warp(warp)
        cta = Cta(self._next_cta_seq, warps)
        self.resident_ctas.append(cta)
        self._ctas_by_id[cta.cta_id] = cta
        self._next_cta_seq += 1
        self.ctas_pending -= 1
        self._resident_warp_count += len(warps)
        self.stats.ctas_launched += 1
        self.stats.warps_launched += len(warps)
        if self._observer is not None:
            self._observer.on_cta_launch(self, cta)

    def _allocate_slot(self, warp_id: int) -> int:
        preferred = warp_id % self.config.max_warps_per_sm
        slot = preferred
        if slot in self._occupied_slots:
            slot = 0
            while slot in self._occupied_slots:
                slot += 1
        self._occupied_slots.add(slot)
        return slot

    def _retire_cta(self, cta: Cta) -> None:
        self.resident_ctas.remove(cta)
        del self._ctas_by_id[cta.cta_id]
        self._resident_warp_count -= len(cta.warps)
        if self._observer is not None:
            self._observer.on_cta_retire(self, cta)
        for warp in cta.warps:
            self._occupied_slots.discard(warp.slot)
            self.scoreboard.remove_warp(warp.warp_id)
            # Warps were partitioned by id at launch; the owning
            # scheduler slot is derivable, so only its list is touched.
            slot = warp.warp_id % self.config.num_schedulers
            self._warps_by_scheduler[slot].remove(warp)
            self.schedulers[slot].notify_removed(warp)
            if self._columnar is not None:
                # Detach the view (final values copied into the object)
                # and free the column slot for the next launch.
                self._columnar.release_warp(warp)

    # -- per-cycle machinery ------------------------------------------------------
    @property
    def resident_warps(self) -> int:
        return self._resident_warp_count

    @property
    def done(self) -> bool:
        return self.ctas_pending == 0 and not self.resident_ctas

    def _issuable(self, warp: Warp, inst: Instruction) -> bool:
        """Scoreboard + structural checks; technique gate applied here too.

        On failure, records why and — when the blocker has a known expiry
        — sets the warp's ``wake_cycle`` so schedulers skip it cheaply.
        """
        if not self.scoreboard.can_issue(warp.warp_id, inst, self.cycle):
            warp.stalled_on = "scoreboard"
            warp.wake_cycle = self.scoreboard.ready_cycle(
                warp.warp_id, inst, self.cycle
            )
            return False
        if inst.op_class is OpClass.LOAD and not self.memory.can_accept():
            warp.stalled_on = "memory"
            done = self.memory.earliest_completion(self.cycle)
            if done is not None:
                warp.wake_cycle = done
            return False
        if not self.technique.can_issue(warp, inst, self.cycle):
            warp.stalled_on = "technique"
            return False
        warp.stalled_on = None
        return True

    def _execute(self, warp: Warp, inst: Instruction) -> None:
        """Commit the issued instruction's effects."""
        cycle = self.cycle
        self.stats.instructions_issued += 1
        self.technique.on_issue(warp, inst, cycle)
        if self._sanitizer is not None:
            self._sanitizer.on_issue(warp, inst, cycle)

        if inst.op_class in (OpClass.IALU, OpClass.FALU, OpClass.SFU, OpClass.NOP):
            done = cycle + inst.latency
            for reg in inst.dsts:
                self.scoreboard.record_write(warp.warp_id, reg, done)
            warp.advance(warp.pc + 1)
            return

        if inst.op_class is OpClass.LOAD:
            shared = inst.opcode is Opcode.LD_SHARED
            ready = self.memory.issue_load(cycle, shared=shared)
            for reg in inst.dsts:
                self.scoreboard.record_write(warp.warp_id, reg, ready)
            warp.advance(warp.pc + 1)
            return

        if inst.op_class is OpClass.STORE:
            warp.advance(warp.pc + 1)
            return

        if inst.op_class is OpClass.BRANCH:
            if inst.is_exit:
                warp.finish()
                self.technique.on_warp_finish(warp, cycle)
                cta = self._ctas_by_id[warp.cta_id]
                if cta.finished:
                    self._retire_cta(cta)
                    self._fill_ctas()
                return
            warp.advance(warp.resolve_branch_target(inst))
            return

        if inst.op_class is OpClass.BARRIER:
            cta = self._ctas_by_id[warp.cta_id]
            warp.advance(warp.pc + 1)  # resume past the barrier when released
            cta.arrive_at_barrier(warp)
            return

        if inst.op_class is OpClass.REGMUTEX:
            if inst.opcode is Opcode.ACQUIRE:
                if self.technique.try_acquire(warp, cycle):
                    warp.advance(warp.pc + 1)
                elif warp.status is WarpStatus.READY:
                    # Eager retry policy: the warp was not parked, so it
                    # will re-poll — but not before a short backoff, or a
                    # greedy scheduler would let the spinner monopolize
                    # its issue slot and starve the very holders whose
                    # release it is waiting for (livelock).
                    warp.wake_cycle = cycle + _EAGER_RETRY_BACKOFF
                # else: parked by the wakeup policy until a release.
                return
            self.technique.release(warp, cycle)
            warp.advance(warp.pc + 1)
            return

        raise AssertionError(f"unhandled op class {inst.op_class}")

    def step(self) -> int:
        """Advance the scan stepper one cycle; returns the number of
        instructions issued.

        The single-cycle API exists on the scan engine only.  A columnar
        SM's loop is the C loop, which runs a whole :meth:`run` per call;
        inspect it per cycle through an observer's ``on_cycle``, which
        that loop calls every cycle.
        """
        if self._columnar is not None:
            raise TypeError(
                "step() drives the scan stepper; a columnar SM runs only "
                "through run() (attach an SmObserver for per-cycle "
                "inspection, or build the SM with issue_engine='scan')"
            )
        return self._step_scan()

    def _columnar_on_exit(self, warp: Warp, cycle: int) -> None:
        """EXIT commit for the C loop: mirrors ``_execute``
        (finish → queue release → technique hook → CTA retire/refill)
        writing the status/dyn columns directly."""
        core = self._columnar
        slot = warp.slot
        core.status[slot] = ST_FINISHED
        core.dyn[slot] += 1
        core.on_finish(warp.warp_id, slot)
        self.technique.on_warp_finish(warp, cycle)
        cta = self._ctas_by_id[warp.cta_id]
        if cta.finished:
            self._retire_cta(cta)
            self._fill_ctas()

    def _hook_bindings(self):
        """``(can_issue, on_issue, wakeups)`` for the C loop.

        Read once per run (observer attach swaps the technique object
        before a run starts).  Each hook resolves through any wrapper
        stack (:func:`resolve_gate`): one no layer implements binds to
        None — ``wakeups`` to False — and the loop skips it without a
        call; one only the wrapped state implements binds that state's
        method, not the wrappers' forwarding ones — or, when the state
        declares its gate as data (``native_gate``: RFV, OWF), binds
        that declaration, which the loop evaluates in C.
        """
        tech = self.technique
        return (
            resolve_gate(tech, "can_issue"),
            resolve_gate(tech, "on_issue"),
            resolve_hook(tech, "wakeup_pending") is not None,
        )

    def _step_scan(self) -> int:
        """Naive reference stepper: scan every resident warp, every cycle.

        The bit-identity reference for the columnar engine's C loop, and
        what a columnar config runs where that loop cannot be built
        (selectable via ``issue_engine="scan"``): simple enough to audit
        by eye, slow enough to never be the default.
        """
        self.cycle += 1
        issued = 0
        cycle = self.cycle
        self.memory.retire(cycle)
        if cycle % _EXPIRE_PERIOD == 0:
            self.scoreboard.expire(cycle)

        for warp in self.technique.wakeup_pending():
            if warp.status is WarpStatus.WAITING_ACQUIRE:
                warp.status = WarpStatus.READY

        self.stats.resident_warp_cycles += self._resident_warp_count

        for sched, warps, candidates in self._sched_units:
            candidates.clear()
            saw_barrier = saw_acquire = saw_scoreboard = saw_memory = False
            for warp in warps:
                if warp.status is WarpStatus.FINISHED:
                    continue
                if warp.status is WarpStatus.AT_BARRIER:
                    saw_barrier = True
                    continue
                if warp.status is WarpStatus.WAITING_ACQUIRE:
                    saw_acquire = True
                    continue
                if warp.wake_cycle > cycle:
                    # Still inside a known stall window: the cached
                    # reason is exact (nothing the warp depends on can
                    # complete earlier than its recorded wake cycle).
                    if warp.stalled_on == "memory" or (
                        warp.wake_cycle - cycle > MEMORY_STALL_HORIZON
                    ):
                        saw_memory = True
                    else:
                        saw_scoreboard = True
                    continue
                inst = warp.current_instruction()
                if self._issuable(warp, inst):
                    candidates.append(warp)
                elif warp.stalled_on == "memory":
                    saw_memory = True
                elif self.scoreboard.has_pending_memory(
                    warp.warp_id, cycle, horizon=MEMORY_STALL_HORIZON
                ):
                    saw_memory = True
                else:
                    saw_scoreboard = True

            issued_here = 0
            for _ in range(self.config.issue_width_per_scheduler):
                chosen = sched.pick(candidates)
                if chosen is None:
                    break
                inst = chosen.current_instruction()
                before = chosen.dynamic_instructions
                self._execute(chosen, inst)
                if chosen.dynamic_instructions != before:
                    # pc advanced or the warp finished — real forward
                    # progress, as opposed to a failed acquire poll.
                    self._last_progress_cycle = cycle
                sched.notify_issued(chosen)
                issued += 1
                issued_here += 1
                # The issued warp may have changed state (stalled on its
                # own result, parked, finished); re-qualify it for the
                # remaining slots of this cycle instead of re-scanning
                # every warp.  Re-inserted in id position — candidates
                # stay sorted, which the sort-free LRR pick relies on.
                candidates.remove(chosen)
                if (
                    not chosen.finished
                    and chosen.status is WarpStatus.READY
                    and chosen.wake_cycle <= cycle
                    and self._issuable(chosen, chosen.current_instruction())
                ):
                    insort(candidates, chosen, key=_by_warp_id)
            if issued_here == 0:
                self.stats.idle_scheduler_cycles += 1
                if saw_acquire:
                    self.stats.stall_acquire += 1
                elif saw_memory:
                    self.stats.stall_memory += 1
                elif saw_barrier:
                    self.stats.stall_barrier += 1
                elif saw_scoreboard:
                    self.stats.stall_scoreboard += 1
        if self._sanitizer is not None:
            self._sanitizer.on_cycle(self)
        if self._observer is not None:
            self._observer.on_cycle(self)
        return issued

    # -- failure diagnostics ------------------------------------------------------
    def diagnostic(self) -> DeadlockDiagnostic:
        """Structured snapshot of the SM for deadlock/invariant errors."""
        warps = tuple(
            WarpSnapshot(
                warp_id=w.warp_id,
                cta_id=w.cta_id,
                pc=w.pc,
                status=w.status.value,
                stalled_on=w.stalled_on,
                wake_cycle=w.wake_cycle,
                holds_extended_set=w.holds_extended_set,
                srp_section=w.srp_section,
            )
            for cta in self.resident_ctas
            for w in cta.warps
            if not w.finished
        )
        scoreboard = {
            w.warp_id: self.scoreboard.pending_count(w.warp_id, self.cycle)
            for cta in self.resident_ctas
            for w in cta.warps
            if not w.finished
        }
        return DeadlockDiagnostic(
            sm_id=self.sm_id,
            cycle=self.cycle,
            last_progress_cycle=self._last_progress_cycle,
            warps=warps,
            scoreboard_pending=scoreboard,
            technique=self.technique.debug_snapshot(),
        )

    def _stop_error(self, code: int, max_cycles: int = 0) -> SimulationError:
        """The typed error for a run-loop stop code, shared by the scan
        run loop, the C loop and ``_fast_forward``'s deadlock check:

        * ``STOP_DEADLOCK`` — no issuable warp and no pending timer;
        * ``STOP_WATCHDOG`` — more than ``config.watchdog_window`` cycles
          since the last forward progress (notifies the observer before
          the caller raises);
        * ``STOP_CYCLE_LIMIT`` — past the ``max_cycles`` backstop.
        """
        diagnostic = self.diagnostic()
        if code == STOP_DEADLOCK:
            return SimulationDeadlockError(
                f"SM {self.sm_id} deadlocked at cycle {self.cycle}: "
                f"no issuable warp and no pending timer; "
                f"{diagnostic.summary()}",
                diagnostic=diagnostic,
            )
        if code == STOP_WATCHDOG:
            if self._observer is not None:
                self._observer.on_watchdog(self, diagnostic.summary())
            return SimulationDeadlockError(
                f"SM {self.sm_id} made no forward progress for "
                f"{self.cycle - self._last_progress_cycle} cycles "
                f"(watchdog window {self.config.watchdog_window}) — "
                f"deadlock/livelock; {diagnostic.summary()}",
                diagnostic=diagnostic,
            )
        if code == STOP_CYCLE_LIMIT:
            return CycleLimitExceededError(
                f"SM {self.sm_id} exceeded {max_cycles} cycles — "
                "runaway kernel (or a livelock below the watchdog's "
                "sensitivity)",
                diagnostic=diagnostic,
            )
        raise AssertionError(f"unknown run-loop stop code {code!r}")

    def _fast_forward(self) -> None:
        """Jump the clock to the next event when no warp can issue.

        Idle cycles are pure waiting: nothing can change until a pending
        write completes (scoreboard) or an in-flight load returns.  The
        skipped cycles are accounted exactly as if stepped one by one
        (idle/stall/resident-warp counters scale by the skip length).
        A warp parked at a barrier or acquire only wakes through another
        warp's progress, which itself requires one of those two timers —
        so no-timer-and-not-done means deadlock, and we raise.

        The targets are the scoreboard's completion heap, the memory
        model's cached next retirement, and every READY warp's future
        wake cycle (the C loop reads the same three from its own
        structures).
        """
        targets = []
        sb = self.scoreboard.earliest_ready(self.cycle)
        if sb is not None:
            targets.append(sb)
        mem = self.memory.earliest_completion(self.cycle)
        if mem is not None:
            targets.append(mem)
        # Completion-backed targets (a pending scoreboard write or an
        # in-flight load) are *creditable*: a skip to one of them is
        # legitimate waiting on the machine, not fruitless polling, so
        # it must not count against the livelock watchdog — a single
        # DRAM access longer than the watchdog window would otherwise be
        # misreported as a livelock.  Pure sleeper-wake targets (eager
        # acquire-retry backoffs) stay uncredited: those short skips are
        # exactly the polling the watchdog exists to bound.
        creditable = min(targets) if targets else None
        # Eager acquire-retry backoffs are self-imposed timers: a READY
        # warp with a future wake_cycle will poll again at that cycle.
        for warps in self._warps_by_scheduler:
            for w in warps:
                if w.status is WarpStatus.READY and w.wake_cycle > self.cycle:
                    targets.append(w.wake_cycle)
        if not targets:
            raise self._stop_error(STOP_DEADLOCK)
        target = min(targets)
        skip = max(0, target - self.cycle - 1)
        if skip == 0:
            return
        self.cycle += skip
        if creditable is not None and creditable == target:
            self._last_progress_cycle += skip
        self.stats.idle_scheduler_cycles += skip * len(self.schedulers)
        self.stats.stall_memory += skip * len(self.schedulers)
        self.stats.resident_warp_cycles += skip * self._resident_warp_count

    @property
    def issue_loop(self) -> str:
        """The loop :meth:`run` takes: "native" (the columnar engine's C
        loop) or "scan"."""
        return "scan" if self._columnar is None else "native"

    def run(
        self,
        max_cycles: int = 50_000_000,
    ) -> SmStats:
        """Run to completion.

        Raises :class:`SimulationDeadlockError` when the schedule stops
        making forward progress — immediately when no timer is pending
        (provable deadlock), or after ``config.watchdog_window`` cycles
        of fruitless polling (livelock: warps keep retrying an acquire
        that can never be granted).  Raises
        :class:`CycleLimitExceededError` at the ``max_cycles`` backstop.

        A columnar SM runs the C loop (``repro._native``) over its
        ColumnarCore, re-entering Python only at hook observation
        points; it stops with the scan loop's codes, so the typed errors
        come from the one :meth:`_stop_error`.  That loop carries its own
        copy of the stock ``MemoryModel``: on a columnar SM whose
        ``memory`` is anything else this raises ``TypeError`` (build such
        an SM with ``issue_engine="scan"``).
        """
        if self._columnar is not None:
            if not _stock_memory(self.memory):
                raise TypeError(
                    "the columnar engine's C loop runs only the stock "
                    f"MemoryModel, not {type(self.memory).__name__} with "
                    "its own issue_load/retire/rng; build this SM with "
                    "issue_engine='scan'"
                )
            status, stats = _native.run_columnar(
                self, max_cycles, *self._hook_bindings(),
            )
            if status:
                raise self._stop_error(status, max_cycles)
            return stats
        window = self.config.watchdog_window
        while not self.done:
            issued = self._step_scan()
            if issued == 0 and not self.done:
                self._fast_forward()
            if window and self.cycle - self._last_progress_cycle > window:
                raise self._stop_error(STOP_WATCHDOG)
            if self.cycle > max_cycles:
                raise self._stop_error(STOP_CYCLE_LIMIT, max_cycles)
        self.stats.cycles = self.cycle
        if self._observer is not None:
            self._observer.on_run_end(self)
        return self.stats
