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
from heapq import heappop, heappush

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
    K_ACQUIRE,
    K_ALU,
    K_BARRIER,
    K_BRA,
    K_EXIT,
    K_JMP,
    K_LOAD,
    K_SHARED_LOAD,
    K_STORE,
    MEMORY_STALL_HORIZON,
    QS_ACQUIRE,
    QS_BARRIER,
    QS_READY,
    QS_SLEEPING,
    SL_MEMORY,
    SL_NONE,
    SL_SCOREBOARD,
    SL_TECHNIQUE,
    ST_ACQUIRE,
    ST_BARRIER,
    ST_FINISHED,
    ST_READY,
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
from repro.sim.technique import SmTechniqueState
from repro.sim.warp import Warp, WarpStatus, resolve_conditional_branch

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


# Optional C accelerator for the columnar issue path.  Whenever
# ``repro._native`` imports and passes the ABI check below, every
# columnar ``run()`` goes through it; otherwise the pure-Python stepper
# runs (identical results, one RuntimeWarning per process).  Tests force
# the pure path by setting this module attribute to None.
try:
    from repro import _native
except ImportError:  # pragma: no cover - depends on the build
    _native = None

# Set once the fallback has been reported (at import for ABI drift, at
# the first columnar SM otherwise), so a process warns exactly once.
_NATIVE_FALLBACK_WARNED = False

if _native is not None:
    # The extension hardcodes the column encodings; refuse it (and fall
    # back) if they ever drift from the Python constants.
    import repro.sim.columnar as _col_mod

    _NATIVE_CONST_NAMES = (
        "ST_READY", "ST_BARRIER", "ST_ACQUIRE", "ST_FINISHED",
        "SL_NONE", "SL_SCOREBOARD", "SL_MEMORY", "SL_TECHNIQUE",
        "QS_OUT", "QS_READY", "QS_SLEEPING", "QS_BARRIER", "QS_ACQUIRE",
        "K_ALU", "K_LOAD", "K_SHARED_LOAD", "K_STORE", "K_EXIT",
        "K_JMP", "K_BRA", "K_BARRIER", "K_ACQUIRE", "K_RELEASE",
        "STOP_DEADLOCK", "STOP_WATCHDOG", "STOP_CYCLE_LIMIT",
    )
    if not (
        getattr(_native, "NATIVE_ABI", None) == 2
        and all(
            getattr(_native, name) == getattr(_col_mod, name)
            for name in _NATIVE_CONST_NAMES
        )
    ):  # pragma: no cover - guards a build/source mismatch
        import warnings as _warnings

        _warnings.warn(
            "repro._native was built against different column encodings; "
            "ignoring it (the columnar issue path will run pure Python)",
            RuntimeWarning,
            stacklevel=2,
        )
        _native = None
        _NATIVE_FALLBACK_WARNED = True


def _warn_native_fallback() -> None:
    """Report, once per process, that the columnar path runs pure Python."""
    global _NATIVE_FALLBACK_WARNED
    if _NATIVE_FALLBACK_WARNED:
        return
    _NATIVE_FALLBACK_WARNED = True
    import warnings

    warnings.warn(
        "repro._native extension is not built; the columnar issue path "
        "is falling back to pure Python (identical results, lower "
        "throughput). Build it with `python setup.py build_ext --inplace`.",
        RuntimeWarning,
        stacklevel=4,
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
        scheduler_priority=None,
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
            make_scheduler(config.scheduler_policy, i, priority=scheduler_priority)
            for i in range(config.num_schedulers)
        ]
        self._reset_warp_state()
        self._use_native = False
        if self._columnar is not None:
            self._use_native = _native is not None
            if not self._use_native:
                _warn_native_fallback()
        self.memory = MemoryModel(config, rng.fork(0x3E3))
        if config.model_bank_conflicts:
            from repro.sim.banks import BankedRegisterFile

            self.banked_rf = BankedRegisterFile(config.register_file_banks)
        else:
            self.banked_rf = None
        self._resident_warp_count = 0
        self._next_warp_id = 0
        self._next_cta_seq = 0
        # SM-local warp-slot allocator.  Hardware structures (SRP status
        # bits, base register blocks, banked-RF lanes) are indexed by a
        # slot in [0, max_warps_per_sm); ``warp_id % max_warps_per_sm``
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
    def _reset_warp_state(self) -> None:
        """Empty warp containers and fresh issue-path state (construction
        and checkpoint restore).

        Columnar store (``config.issue_engine == "columnar"``, the
        default): per-slot state arrays + thin Warp views — see
        repro.sim.columnar.  When active, the scoreboard is the columnar
        facade over the same store, so every external consumer
        (sanitizer hazard re-check, deadlock diagnostics, checkpoints,
        tests) reads the columns through the Scoreboard methods it uses.
        None selects the retained scan stepper (the bit-identity
        reference).
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
        if config.issue_engine == "columnar":
            self._columnar = ColumnarCore(self.schedulers, config)
            self.scoreboard = ColumnarScoreboard(self._columnar)
        else:
            self.scoreboard = Scoreboard()

    def _new_warp(
        self, warp_id: int, cta_id: int, kernel: Kernel,
        rng: DeterministicRng, slot: int,
    ) -> Warp:
        """Construct a warp on this SM's issue path and register it with
        the scoreboard and its scheduler (CTA launch and restore).

        Columnar mode: the core owns the hot state and hands back a
        bound view (slot columns initialized, scoreboard row allocated,
        wid→slot adopted).  Queue membership is the caller's: launch
        appends to the ready list, restore rebuilds the queues.
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

    def _rebuild_queues(self) -> None:
        """After restore: derive the columnar wake queues from the
        restored warp state (the scan stepper keeps no queues)."""
        if self._columnar is not None:
            self._columnar.rebuild_queues(self.cycle)

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

        bank_penalty = 0
        if self.banked_rf is not None and inst.srcs:
            physical = [
                self.technique.resolve_physical(warp, reg) for reg in inst.srcs
            ]
            bank_penalty = self.banked_rf.collect(
                warp.slot, physical
            ).extra_cycles

        if inst.op_class in (OpClass.IALU, OpClass.FALU, OpClass.SFU, OpClass.NOP):
            done = cycle + inst.latency + bank_penalty
            for reg in inst.dsts:
                self.scoreboard.record_write(warp.warp_id, reg, done)
            warp.advance(warp.pc + 1)
            return

        if inst.op_class is OpClass.LOAD:
            shared = inst.opcode is Opcode.LD_SHARED
            ready = self.memory.issue_load(cycle, shared=shared) + bank_penalty
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
        """Advance one cycle; returns the number of instructions issued.

        Dispatches to the columnar array-backed stepper (the default) or
        the naive all-warp-scan reference stepper
        (``issue_engine="scan"``).  Both are bit-identical — same cycle
        counts, same ``SmStats`` down to each stall counter, same oracle
        digests — which the engine-identity property tests and the
        ``repro check`` oracle enforce.
        """
        if self._columnar is not None:
            return self._step_columnar()
        return self._step_scan()

    def _columnar_on_exit(self, warp: Warp, cycle: int) -> None:
        """EXIT commit for the columnar stepper: mirrors ``_execute``
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

    def _step_columnar(self) -> int:
        """Single-cycle entry point for the columnar engine (``step()``
        API): one iteration of :meth:`_run_columnar`, so manual steppers
        and the batched run share one implementation of the cycle body."""
        return self._run_columnar(0, single_step=True)

    def _run_columnar(
        self,
        max_cycles: int,
        single_step: bool = False,
        checkpoint_interval: int = 0,
        checkpoint_sink=None,
    ):
        """Array-backed issue path: the scan stepper's schedule, driven
        from wake-ordered ready lists, sleeper heaps and blocked counts
        (see :mod:`repro.sim.columnar`) instead of an all-warp scan.

        The representation and loop structure differ from the scan, not
        the schedule: warps are ``(warp_id, slot)`` tuples indexing flat
        per-slot columns, instructions are pre-decoded per-kernel arrays
        (:class:`~repro.sim.columnar.KernelColumns`), and the
        qualification/execute/dispose steps are inlined into this one
        frame — no ``Warp`` attribute traffic, no ``Instruction``
        property/enum cost, no per-check method calls.  The whole run
        loop (step, fast-forward, watchdog, cycle limit) lives in this
        frame too, so per-cycle constants (hook bindings, column
        aliases, width/caps) are hoisted once per *run* instead of once
        per cycle, and the stall counters accumulate in locals that are
        flushed to ``SmStats`` only when someone can observe them (tail
        hooks, fast-forward hooks, checkpoints, the run's end; see
        :meth:`_flush_counters`).  A deadlock, watchdog or cycle-limit
        stop breaks out with a ``STOP_*`` code onto the same final flush
        and is raised through :meth:`_stop_error`.

        Technique, sanitizer, and observer hooks still receive the bound
        views, so their side effects (and hence the issue order) replay
        identically; the default no-op technique hooks are detected once
        and skipped entirely.  ``self.cycle`` is kept current every
        cycle — mid-cycle hooks (CTA retire observers, the sanitizer)
        read it.

        Bit-identity with ``_step_scan`` is enforced by the
        engine-identity property tests and the differential oracle.
        :meth:`run` hands the same loop to ``repro._native`` when it is
        built and the memory model is the stock one; this frame is the
        pure-Python path.  With
        ``single_step=True``, runs exactly one cycle, flushes, and
        returns the issued count (fast-forward/watchdog stay with the
        generic ``run`` loop in that mode — which never engages for
        columnar; it exists for manual ``step()`` drivers).
        """
        core = self._columnar
        (
            pc_col, wake_col, status_col, stall_col, qstate_col, dyn_col,
            views, kcs, rngs, trips, sb_rows, sb_max, sb_heap,
        ) = core.hot
        units = core.units
        num_sched = len(units)
        memory = self.memory
        mem_cap = memory._max_in_flight
        tech = self.technique
        tech_can_issue, tech_on_issue, tech_wakeups = self._hook_bindings()
        sanitizer = self._sanitizer
        banked_rf = self.banked_rf
        observer = self._observer
        resident_ctas = self.resident_ctas
        issue_width = self.config.issue_width_per_scheduler
        debug_inv = self.config.debug_invariants
        window = self.config.watchdog_window
        tail_hooks = (
            debug_inv or sanitizer is not None or observer is not None
        )
        wid2slot = core.wid2slot
        multi_issue = issue_width > 1
        cycle = self.cycle
        last_progress = self._last_progress_cycle
        next_expire = cycle - (cycle % _EXPIRE_PERIOD) + _EXPIRE_PERIOD
        # Stall/issue counters accumulate in locals; flushed to stats at
        # observation points only (see _flush_counters).
        d_issued = d_idle = d_mem = d_bar = d_sb = d_acq = d_res = 0
        stop = 0
        next_ckpt = None
        if checkpoint_interval and checkpoint_sink is not None:
            next_ckpt = cycle + checkpoint_interval

        while True:
            cycle += 1
            self.cycle = cycle
            issued_this = 0
            nxt = memory._next_retire
            if nxt is not None and nxt <= cycle:
                memory.retire(cycle)
            if cycle >= next_expire:
                next_expire = cycle + _EXPIRE_PERIOD
                while sb_heap and sb_heap[0][0] <= cycle:
                    heappop(sb_heap)
            if tech_wakeups:
                pending = tech.wakeup_pending()
                if pending:
                    for warp in pending:
                        if warp.status is WarpStatus.WAITING_ACQUIRE:
                            warp.status = WarpStatus.READY
                            core.on_acquire_wake(warp.warp_id, warp.slot)
            d_res += self._resident_warp_count

            for unit in units:
                ready = unit.ready
                sleepers = unit.sleepers
                if sleepers and sleepers[0][0] <= cycle:
                    while sleepers and sleepers[0][0] <= cycle:
                        _, wid, slot, is_mem = heappop(sleepers)
                        if is_mem:
                            unit.mem_sleepers -= 1
                        else:
                            unit.nonmem_sleepers -= 1
                        qstate_col[slot] = QS_READY
                        insort(ready, (wid, slot))
                # Blocked counts captured before qualification: a warp
                # parking during this pass (OWF's can_issue, a failed
                # ACQUIRE) contributes its park flag only from the next
                # cycle, exactly like the scan, which classifies by the
                # status it saw at scan time.
                barrier_count = unit.barrier_count
                acquire_count = unit.acquire_count
                qual_mem = qual_sb = False
                if ready:
                    candidates = unit.candidates
                    keep = unit.keep
                    candidates.clear()
                    # `keep` materializes lazily: in the dominant
                    # all-qualify cycle every item lands in candidates
                    # and `ready` is left untouched (qualified-so-far ==
                    # candidates, so the first failure seeds keep from
                    # it).
                    routed = False
                    for item in ready:
                        wid, slot = item
                        kc = kcs[slot]
                        pc = pc_col[slot]
                        # -- inline _issuable: scoreboard, memory
                        #    window, technique gate --
                        if sb_max[slot] <= cycle:
                            sb_ok = True
                        elif stall_col[slot] == SL_SCOREBOARD:
                            # Waking from a scoreboard sleep: the recorded
                            # wake IS the max over this pc's registers, and
                            # only the warp's own issues (none since) can
                            # grow its row — no re-scan needed.
                            sb_ok = wake_col[slot] <= cycle
                            latest = wake_col[slot]
                        else:
                            latest = cycle
                            row = sb_rows[slot]
                            for reg in kc.regs[pc]:
                                r = row[reg]
                                if r > latest:
                                    latest = r
                            sb_ok = latest <= cycle
                        if not sb_ok:
                            stall_col[slot] = SL_SCOREBOARD
                            wake_col[slot] = latest
                        elif (
                            K_LOAD <= kc.kind[pc] <= K_SHARED_LOAD
                            and memory._in_flight_total >= mem_cap
                        ):
                            stall_col[slot] = SL_MEMORY
                            done = memory.earliest_completion(cycle)
                            if done is not None:
                                wake_col[slot] = done
                        elif tech_can_issue is not None and not tech_can_issue(
                            views[slot], kc.insts[pc], cycle
                        ):
                            stall_col[slot] = SL_TECHNIQUE
                        else:
                            stall_col[slot] = SL_NONE
                            candidates.append(item)
                            if routed:
                                keep.append(item)
                            continue
                        # -- qualification failed: flags + routing --
                        if not routed:
                            routed = True
                            keep.clear()
                            keep.extend(candidates)
                        sc = stall_col[slot]
                        if sc == SL_MEMORY:
                            qual_mem = True
                        elif sb_max[slot] - cycle > MEMORY_STALL_HORIZON:
                            qual_mem = True
                        else:
                            qual_sb = True
                        if status_col[slot] != ST_READY:
                            # Technique can_issue parked the warp.
                            qstate_col[slot] = QS_ACQUIRE
                            unit.acquire_count += 1
                        elif wake_col[slot] > cycle:
                            qstate_col[slot] = QS_SLEEPING
                            wake = wake_col[slot]
                            is_mem = sc == SL_MEMORY
                            if is_mem:
                                unit.mem_sleepers += 1
                            else:
                                unit.nonmem_sleepers += 1
                                if wake - cycle > MEMORY_STALL_HORIZON:
                                    heappush(
                                        unit.far,
                                        wake - MEMORY_STALL_HORIZON,
                                    )
                            heappush(sleepers, (wake, wid, slot, is_mem))
                        else:
                            keep.append(item)
                    if routed:
                        ready[:] = keep
                else:
                    candidates = None

                issued_here = 0
                if candidates:
                    sched = unit.sched
                    sched_kind = unit.kind
                    issued_list = unit.issued
                    for _ in range(issue_width):
                        if not candidates:
                            break
                        # -- inline scheduler pick --
                        if sched_kind == 0:  # GTO, default priority
                            chosen = None
                            greedy = sched._greedy
                            if greedy is not None:
                                gwid = greedy.warp_id
                                for item in candidates:
                                    if item[0] == gwid:
                                        chosen = item
                                        break
                            if chosen is None:
                                chosen = candidates[0]  # oldest: sorted
                        elif sched_kind == 1:  # LRR
                            chosen = None
                            last = sched._last_id
                            for item in candidates:
                                if item[0] > last:
                                    chosen = item
                                    break
                            if chosen is None:
                                chosen = candidates[0]
                        else:  # priority hook: real pick over views
                            view_pick = sched.pick(
                                [views[s] for _, s in candidates]
                            )
                            if view_pick is None:
                                break
                            chosen = (view_pick.warp_id, view_pick.slot)
                        wid, slot = chosen
                        # -- inline _execute --
                        kc = kcs[slot]
                        pc = pc_col[slot]
                        kind = kc.kind[pc]
                        view = views[slot]
                        d_issued += 1
                        if tech_on_issue is not None:
                            tech_on_issue(view, kc.insts[pc], cycle)
                        if sanitizer is not None:
                            sanitizer.on_issue(view, kc.insts[pc], cycle)
                        bank_penalty = 0
                        if banked_rf is not None and kc.srcs[pc]:
                            physical = [
                                tech.resolve_physical(view, reg)
                                for reg in kc.srcs[pc]
                            ]
                            bank_penalty = banked_rf.collect(
                                slot, physical
                            ).extra_cycles
                        exited = False
                        if kind <= K_SHARED_LOAD:  # ALU / LOAD / SHARED_LOAD
                            if kind == K_ALU:
                                done = cycle + kc.lat[pc] + bank_penalty
                            else:
                                done = memory.issue_load(
                                    cycle, shared=kind == K_SHARED_LOAD
                                ) + bank_penalty
                            row = sb_rows[slot]
                            for reg in kc.dsts[pc]:
                                if done > row[reg]:
                                    row[reg] = done
                                    heappush(sb_heap, (done, wid, reg))
                                    if done > sb_max[slot]:
                                        sb_max[slot] = done
                            pc_col[slot] = pc + 1
                            dyn_col[slot] += 1
                            last_progress = cycle
                        elif kind == K_STORE:
                            pc_col[slot] = pc + 1
                            dyn_col[slot] += 1
                            last_progress = cycle
                        elif kind == K_JMP:
                            pc_col[slot] = kc.tgt[pc]
                            dyn_col[slot] += 1
                            last_progress = cycle
                        elif kind == K_BRA:
                            pc_col[slot] = resolve_conditional_branch(
                                pc, kc.tgt[pc], kc.trip[pc], kc.prob[pc],
                                trips[slot], rngs[slot],
                            )
                            dyn_col[slot] += 1
                            last_progress = cycle
                        elif kind == K_EXIT:
                            if observer is not None:
                                # CTA retire/launch hooks may read the
                                # shared counters: flush first.
                                self._flush_counters(
                                    d_issued, d_idle, d_mem, d_bar, d_sb,
                                    d_acq, d_res, last_progress,
                                )
                                d_issued = d_idle = d_mem = d_bar = 0
                                d_sb = d_acq = d_res = 0
                            self._columnar_on_exit(view, cycle)
                            last_progress = cycle
                            exited = True
                        elif kind == K_BARRIER:
                            # Advance first: the warp resumes past the
                            # barrier when released.
                            pc_col[slot] = pc + 1
                            dyn_col[slot] += 1
                            last_progress = cycle
                            cta = self._ctas_by_id[view.cta_id]
                            if cta.arrive_at_barrier(view):
                                core.on_barrier_release(cta)
                        elif kind == K_ACQUIRE:
                            if tech.try_acquire(view, cycle):
                                pc_col[slot] = pc + 1
                                dyn_col[slot] += 1
                                last_progress = cycle
                            elif status_col[slot] == ST_READY:
                                # Eager retry backoff (see _execute).
                                wake_col[slot] = cycle + _EAGER_RETRY_BACKOFF
                        else:  # K_RELEASE
                            tech.release(view, cycle)
                            pc_col[slot] = pc + 1
                            dyn_col[slot] += 1
                            last_progress = cycle
                        # -- inline notify_issued --
                        if sched_kind == 0:
                            sched.issued_count += 1
                            sched._greedy = view
                        elif sched_kind == 1:
                            sched.issued_count += 1
                            sched._last_id = wid
                        else:
                            sched.notify_issued(view)
                        issued_this += 1
                        issued_here += 1
                        issued_list.append(chosen)
                        if multi_issue:
                            # candidates is dead after a width-1 pick
                            # (cleared on next use) — only maintain it
                            # when a second pick this cycle can read it.
                            candidates.remove(chosen)
                        # -- inline requalification for remaining width.
                        # Guarded on `exited`: after a CTA retire the
                        # slot may already host a fresh warp; the scan
                        # stepper's `not chosen.finished` check is
                        # per-object, ours must not read the recycled
                        # slot. --
                        if (
                            not exited
                            and status_col[slot] == ST_READY
                            and wake_col[slot] <= cycle
                        ):
                            pc = pc_col[slot]
                            if sb_max[slot] <= cycle:
                                sb_ok = True
                            else:
                                latest = cycle
                                row = sb_rows[slot]
                                for reg in kc.regs[pc]:
                                    r = row[reg]
                                    if r > latest:
                                        latest = r
                                sb_ok = latest <= cycle
                            if not sb_ok:
                                stall_col[slot] = SL_SCOREBOARD
                                wake_col[slot] = latest
                            elif (
                                K_LOAD <= kc.kind[pc] <= K_SHARED_LOAD
                                and memory._in_flight_total >= mem_cap
                            ):
                                stall_col[slot] = SL_MEMORY
                                done = memory.earliest_completion(cycle)
                                if done is not None:
                                    wake_col[slot] = done
                            elif (
                                tech_can_issue is not None
                                and not tech_can_issue(
                                    views[slot], kc.insts[pc], cycle
                                )
                            ):
                                stall_col[slot] = SL_TECHNIQUE
                            else:
                                stall_col[slot] = SL_NONE
                                if multi_issue:
                                    insort(candidates, chosen)
                    for item in issued_list:
                        # -- inline dispose_issued (qstate-guarded,
                        #    idempotent) --
                        wid, slot = item
                        if qstate_col[slot] != QS_READY:
                            continue  # finished or re-homed same-pass
                        st = status_col[slot]
                        if st == ST_READY:
                            wake = wake_col[slot]
                            if wake > cycle:  # eager acquire backoff
                                ready.remove(item)
                                qstate_col[slot] = QS_SLEEPING
                                is_mem = stall_col[slot] == SL_MEMORY
                                if is_mem:
                                    unit.mem_sleepers += 1
                                else:
                                    unit.nonmem_sleepers += 1
                                    if wake - cycle > MEMORY_STALL_HORIZON:
                                        heappush(
                                            unit.far,
                                            wake - MEMORY_STALL_HORIZON,
                                        )
                                heappush(sleepers, (wake, wid, slot, is_mem))
                        elif st == ST_BARRIER:
                            ready.remove(item)
                            qstate_col[slot] = QS_BARRIER
                            unit.barrier_count += 1
                        elif st == ST_ACQUIRE:
                            ready.remove(item)
                            qstate_col[slot] = QS_ACQUIRE
                            unit.acquire_count += 1
                    issued_list.clear()
                if issued_here == 0:
                    d_idle += 1
                    if acquire_count:
                        d_acq += 1
                    else:
                        # Inline sleeper_flags: prune the far heap,
                        # then the aggregate-count classification.
                        far = unit.far
                        while far and far[0] <= cycle:
                            heappop(far)
                        far_n = len(far)
                        if qual_mem or unit.mem_sleepers > 0 or far_n > 0:
                            d_mem += 1
                        elif barrier_count:
                            d_bar += 1
                        elif qual_sb or unit.nonmem_sleepers > far_n:
                            d_sb += 1

            if tail_hooks or single_step:
                self._flush_counters(
                    d_issued, d_idle, d_mem, d_bar, d_sb, d_acq, d_res,
                    last_progress,
                )
                d_issued = d_idle = d_mem = d_bar = d_sb = d_acq = d_res = 0
                if debug_inv:
                    tech.check_invariants(cycle)
                if sanitizer is not None:
                    sanitizer.on_cycle(self)
                if observer is not None:
                    observer.on_cycle(self)
                if single_step:
                    return issued_this

            # -- run-loop controls (mirrors the generic run loop) --
            if issued_this == 0 and (self.ctas_pending or resident_ctas):
                # Inline fast-forward: same targets as _fast_forward —
                # memory retired at cycle start, so _next_retire is the
                # earliest completion verbatim.  The scoreboard target is
                # ColumnarScoreboard.earliest_ready's lazy heap-peek
                # (pop stale/superseded entries until a live one), over
                # the locals already in hand.
                target = None
                while sb_heap:
                    ready_at, hwid, hreg = sb_heap[0]
                    if ready_at > cycle:
                        hslot = wid2slot.get(hwid)
                        if hslot is not None and sb_rows[hslot][hreg] == ready_at:
                            target = ready_at
                            break
                    heappop(sb_heap)
                mem_t = memory._next_retire
                if mem_t is not None and (target is None or mem_t < target):
                    target = mem_t
                # Completion-backed minimum so far: creditable against
                # the watchdog (see _fast_forward) iff it survives as
                # the overall minimum below.
                creditable = target
                for unit in units:
                    heap = unit.sleepers
                    if heap and (target is None or heap[0][0] < target):
                        target = heap[0][0]
                if target is None:
                    stop = STOP_DEADLOCK
                    break
                skip = target - cycle - 1
                if skip > 0:
                    cycle += skip
                    self.cycle = cycle
                    if creditable is not None and creditable == target:
                        # Legitimate waiting on a pending completion —
                        # not livelock polling (see _fast_forward).
                        last_progress += skip
                    d_idle += skip * num_sched
                    d_mem += skip * num_sched
                    d_res += skip * self._resident_warp_count
                    if observer is not None:
                        self._flush_counters(
                            d_issued, d_idle, d_mem, d_bar, d_sb, d_acq,
                            d_res, last_progress,
                        )
                        d_issued = d_idle = d_mem = d_bar = 0
                        d_sb = d_acq = d_res = 0
                        observer.on_fast_forward(self, skip)
            if window and cycle - last_progress > window:
                stop = STOP_WATCHDOG
                break
            if cycle > max_cycles:
                stop = STOP_CYCLE_LIMIT
                break
            if not resident_ctas and not self.ctas_pending:
                break
            if next_ckpt is not None and cycle >= next_ckpt:
                next_ckpt = cycle + checkpoint_interval
                # The snapshot reads SmStats and _last_progress_cycle:
                # flush the delta locals first.  Timing-neutral — the
                # totals are identical whenever they are flushed.
                self._flush_counters(
                    d_issued, d_idle, d_mem, d_bar, d_sb, d_acq, d_res,
                    last_progress,
                )
                d_issued = d_idle = d_mem = d_bar = d_sb = d_acq = d_res = 0
                checkpoint_sink(self.save_checkpoint())
                if observer is not None:
                    observer.on_checkpoint(self, cycle)

        self._flush_counters(
            d_issued, d_idle, d_mem, d_bar, d_sb, d_acq, d_res, last_progress
        )
        if stop:
            raise self._stop_error(stop, max_cycles)
        self.stats.cycles = cycle
        if observer is not None:
            observer.on_run_end(self)
        return self.stats

    def _run_native(
        self,
        max_cycles: int,
        checkpoint_interval: int = 0,
        checkpoint_sink=None,
    ) -> SmStats:
        """Batched run loop on the C backend (``repro._native``).

        The extension drives the exact ``_run_columnar`` algorithm over
        the *same* ColumnarCore state, re-entering Python only at hook
        observation points, so results, checkpoint payloads, and hook
        side effects are bit-identical.  It takes the same hook bindings
        and stops with the same codes as the pure loop, so the typed
        errors come from the one ``_stop_error``.  ``step()`` drivers
        keep using the pure stepper — only the batched ``run()`` is
        native, and only over the stock memory model (see :meth:`run`).
        """
        status, stats = _native.run_columnar(
            self, max_cycles, checkpoint_interval, checkpoint_sink,
            *self._hook_bindings(),
        )
        if status:
            raise self._stop_error(status, max_cycles)
        return stats

    def _hook_bindings(self):
        """``(can_issue, on_issue, wakeups)`` for the columnar loops.

        Read once per run (observer attach swaps the technique object
        before a run starts): a hook still at its ``SmTechniqueState``
        no-op binds to None — ``wakeups`` to False — and the loops skip
        it without a call; an overridden one is the bound method, and
        sees the bound views as usual.
        """
        tech = self.technique
        cls = type(tech)
        return (
            None if cls.can_issue is SmTechniqueState.can_issue
            else tech.can_issue,
            None if cls.on_issue is SmTechniqueState.on_issue
            else tech.on_issue,
            cls.wakeup_pending is not SmTechniqueState.wakeup_pending,
        )

    def _flush_counters(
        self, issued, idle, mem, bar, sb, acq, res, last_progress
    ) -> None:
        """Add the pure columnar loop's counter deltas to ``SmStats`` and
        publish its progress marker.  The loop keeps both in locals and
        flushes only where someone can read them: tail and fast-forward
        hooks, an EXIT under an observer, checkpoints, and the run's
        end (completed or stopped)."""
        stats = self.stats
        stats.instructions_issued += issued
        stats.idle_scheduler_cycles += idle
        stats.stall_memory += mem
        stats.stall_barrier += bar
        stats.stall_scoreboard += sb
        stats.stall_acquire += acq
        stats.resident_warp_cycles += res
        self._last_progress_cycle = last_progress

    def _step_scan(self) -> int:
        """Naive reference stepper: scan every resident warp, every cycle.

        Retained as the bit-identity oracle for the columnar path (and
        selectable via ``issue_engine="scan"``): simple enough to audit
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
                        warp.wake_cycle - cycle > 20
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
                    warp.warp_id, cycle, horizon=20
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
        if self.config.debug_invariants:
            self.technique.check_invariants(cycle)
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
        """The typed error for a run-loop stop code, shared by every run
        loop (and ``_fast_forward``'s deadlock check):

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

    # -- checkpoint/restore -------------------------------------------------------
    def save_checkpoint(self) -> dict:
        """JSON-safe snapshot of the SM's full mutable state, taken at a
        cycle boundary.  See :mod:`repro.sim.checkpoint` for the payload
        layout and the bit-identity contract."""
        from repro.sim.checkpoint import capture_sm

        return capture_sm(self)

    def restore_checkpoint(self, payload: dict) -> None:
        """Rebuild this SM's state from a checkpoint payload.

        The SM must have been constructed with the same arguments as the
        checkpointed one (kernel, config, technique, seed) — on any issue
        engine: the payload is engine-neutral.  Constructor-launched CTAs
        and queues are torn down and rebuilt.  Raises the typed
        :class:`repro.errors.CheckpointError` family on schema or context
        mismatch — never resumes silently."""
        from repro.sim.checkpoint import restore_into

        restore_into(self, payload)

    def _fast_forward(self) -> None:
        """Jump the clock to the next event when no warp can issue.

        Idle cycles are pure waiting: nothing can change until a pending
        write completes (scoreboard) or an in-flight load returns.  The
        skipped cycles are accounted exactly as if stepped one by one
        (idle/stall/resident-warp counters scale by the skip length).
        A warp parked at a barrier or acquire only wakes through another
        warp's progress, which itself requires one of those two timers —
        so no-timer-and-not-done means deadlock, and we raise.

        The three target sources are all O(log n) reads in columnar
        mode: the scoreboard's completion heap, the memory model's
        cached next retirement, and the per-scheduler sleeper-heap
        minima (every READY warp with a future wake cycle is in a
        sleeper heap by construction).  Scan mode iterates all warps
        instead, and both provably agree on ``min(targets)``.
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
        if self._columnar is not None:
            wake = self._columnar.earliest_wake()
            if wake is not None:
                targets.append(wake)
        else:
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
        if self._observer is not None:
            self._observer.on_fast_forward(self, skip)

    def run(
        self,
        max_cycles: int = 50_000_000,
        checkpoint_interval: int = 0,
        checkpoint_sink=None,
    ) -> SmStats:
        """Run to completion.

        With ``checkpoint_interval > 0`` and a ``checkpoint_sink``
        callable, a full state snapshot (:meth:`save_checkpoint`) is
        handed to the sink roughly every ``checkpoint_interval`` cycles
        — the SM does no file I/O itself; persistence policy belongs to
        the caller (see :func:`repro.sim.checkpoint.write_checkpoint`).
        Emission is timing-neutral: the schedule and every stat are
        bit-identical with and without checkpointing.

        Raises :class:`SimulationDeadlockError` when the schedule stops
        making forward progress — immediately when no timer is pending
        (provable deadlock), or after ``config.watchdog_window`` cycles
        of fruitless polling (livelock: warps keep retrying an acquire
        that can never be granted).  Raises
        :class:`CycleLimitExceededError` at the ``max_cycles`` backstop.
        """
        if self._columnar is not None:
            # The C loop carries its own copy of the stock MemoryModel;
            # a customized one (a subclass, an instance-level
            # issue_load/retire, another rng) runs the pure loop, which
            # calls the model's methods and gives identical results.
            mem = self.memory
            native = (
                self._use_native
                and type(mem) is MemoryModel
                and type(mem._rng) is DeterministicRng
                and "issue_load" not in mem.__dict__
                and "retire" not in mem.__dict__
            )
            run_loop = self._run_native if native else self._run_columnar
            return run_loop(
                max_cycles,
                checkpoint_interval=checkpoint_interval,
                checkpoint_sink=checkpoint_sink,
            )
        window = self.config.watchdog_window
        next_ckpt = None
        if checkpoint_interval and checkpoint_sink is not None:
            next_ckpt = self.cycle + checkpoint_interval
        while not self.done:
            issued = self.step()
            if issued == 0 and not self.done:
                self._fast_forward()
            if next_ckpt is not None and self.cycle >= next_ckpt and not self.done:
                next_ckpt = self.cycle + checkpoint_interval
                checkpoint_sink(self.save_checkpoint())
                if self._observer is not None:
                    self._observer.on_checkpoint(self, self.cycle)
            if window and self.cycle - self._last_progress_cycle > window:
                raise self._stop_error(STOP_WATCHDOG)
            if self.cycle > max_cycles:
                raise self._stop_error(STOP_CYCLE_LIMIT, max_cycles)
        self.stats.cycles = self.cycle
        if self._observer is not None:
            self._observer.on_run_end(self)
        return self.stats
