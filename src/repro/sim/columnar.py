"""Columnar SM core: the fast issue path's state and its wake queues.

The scan reference stepper keeps the simulation's hot state scattered
across Python objects — a ``Warp`` per resident warp, dict-of-dicts in
the ``Scoreboard``, enum-valued attributes read through descriptor
lookups, and an ``Instruction`` dataclass whose ``op_class``/``latency``
properties re-hash an enum on every fetch — and visits every resident
warp every cycle, although on a typical cycle most of them sit inside a
known stall window (``wake_cycle > cycle``).  Profiling an object-model
stepper on the SAD long run showed ~63 Python calls and several hundred
attribute/enum operations per simulated cycle, none of them
algorithmically necessary.

This module restructures the per-SM hot state into a **columnar store**:

* :class:`KernelColumns` — a one-time pre-decode of a kernel into
  parallel per-pc arrays (kind code, latency, register tuples, resolved
  branch targets, trip counts, taken probabilities).  Kills the
  ``Instruction`` property and enum-hash cost from the issue path.
* :class:`ColumnarCore` — per-slot parallel arrays for everything the
  issue loop touches: pc, wake cycle, status code, stall-reason code,
  queue-state code, dynamic instruction count, scoreboard rows and
  per-slot pending maxima, plus one :class:`ColumnarUnit` per scheduler
  holding its wake queues as slot numbers in ``array('l')`` buffers.
* :class:`ColumnarWarpView` — a ``Warp`` subclass whose hot attributes
  are properties proxying into the columns, so the public API is
  unchanged: techniques, the CTA barrier protocol, observers, the
  sanitizer, probes, and diagnostics all keep reading/writing
  ``warp.pc``/``warp.status``/... while the stepper works on the arrays.
* :class:`ColumnarScoreboard` — the :class:`repro.sim.scoreboard.Scoreboard`
  methods that code outside the issue loop calls (the sanitizer's hazard
  re-check, deadlock diagnostics, state snapshots), over the rows, so those
  callers are agnostic to which engine owns the state.

Representation note: the hot columns are ``array('l')`` buffers —
``pc``, ``wake``, ``status``, ``stall``, ``qstate``, ``dyn``,
``sb_max``, ``wid``, every slot's scoreboard row, and each unit's
queues and counters (``ColumnarUnit.ready``/``sleepers``/``far`` and
``counts``).  Python indexes them like lists (an ``int`` in, an
``int`` out), and the C loop reads and writes the same memory as plain
C ``long`` values, so no value is boxed on the loop's side.  The
buffer contract:

* the loop takes one writable buffer per column (and per unit's
  queues and counters) for a whole run, and caches each scoreboard
  row's buffer by the row object's identity, re-taking it when
  ``new_warp`` swaps a slot's row;
* it refuses a buffer whose items are not C ``long`` values with
  a ``TypeError`` — never a silent fallback;
* it releases every buffer on every exit (a finished run, each
  ``STOP_*`` code, a hook that raises), so the arrays can be resized
  again afterwards;
* while a run holds them, the arrays must not change size (``array``
  raises ``BufferError`` if anything tries): ``__init__`` sizes every
  column to ``max_warps_per_sm`` slots up front, and code outside the
  loop writes through indexing only.

The cold consumer outside the loop — the invariant sweep
(:meth:`ColumnarCore.check_hygiene`) — walks the same columns slot by
slot in plain Python; the package has no third-party dependency.

Scoreboard rows never expire (unlike the dict engine's periodic
``expire``): a stale entry has ``ready <= cycle`` and every consumer
compares with ``> cycle``-style predicates, so retention is invisible.
Row values only grow, so the per-slot ``sb_max`` *is* the maximum
pending completion: the stepper's "any write further than the horizon
out" stall attribution is one comparison.

Wake queues
-----------

Each scheduler's :class:`ColumnarUnit` keeps

* a **ready list** — warps eligible for qualification *now*, kept
  sorted by warp id so qualification walks them in exactly the order
  the scan stepper would (launch order; technique ``can_issue`` hooks
  have side effects, so order is part of the semantics),
* a **sleeper min-heap** keyed ``(wake_cycle, warp_id)`` — warps inside
  a self-timed stall window (scoreboard hazard, saturated memory
  window, eager acquire backoff); due sleepers are popped into the
  ready list at the start of the owning scheduler's pass,
* explicit **blocked counts** for warps with no self-timer (parked at a
  barrier or on a failed acquire), re-armed by the events that can
  unblock them: barrier release (:meth:`ColumnarCore.on_barrier_release`)
  and the technique's ``wakeup_pending`` drain
  (:meth:`ColumnarCore.on_acquire_wake`).

Per cycle the cost is proportional to warps that can actually act, not
to residents.  The ``qstate`` column records which structure owns each
warp, so the unblock hooks are idempotent and cheap to guard.

The scan classifies a *sleeping* warp per cycle as a memory stall if
``stalled_on == "memory"`` or ``wake_cycle - cycle > HORIZON``, else a
scoreboard stall.  The first disjunct is frozen at sleep time, but the
second is time-varying: a non-memory sleeper counts as a memory stall
until the final ``HORIZON`` cycles of its window.  The unit reproduces
that from aggregates: ``mem_sleepers`` and ``nonmem_sleepers`` count the
two classes, and ``far`` is a min-heap of ``wake_cycle - HORIZON``
thresholds, one per non-memory sleeper whose window was longer than
``HORIZON`` at sleep time; pruning expired entries at read time (and
before each push) keeps the far heap's length equal to the non-memory
sleepers still classified as memory stalls.  A sleeping warp can never
leave its window early (its status only changes by issuing or being
qualified, and a CTA only retires when every warp has finished), so
sleeper heap entries are exact — no lazy deletion.

The three queues are fixed-capacity ``array('l')`` buffers the C loop
shares, one entry per slot the SM can allocate: a warp sits in at most
one queue, and the far heap holds at most one threshold per sleeper.
The ready list and the sleeper heap hold slots, ordered through the
``wid`` and ``wake`` columns (a sleeper's wake cycle and stall reason
do not change while it sleeps); the far heap holds the thresholds.
Their lengths are ``counts[U_NREADY]``, ``counts[U_NSLEEPERS]`` and
``counts[U_NFAR]``.  The loop keeps no copy of them: Python code run
from a hook (a CTA retire's ``on_finish``, the unblock hooks) changes
the same buffers through :class:`ColumnarUnit`'s methods, and the loop
reads the lengths back from ``counts``.  The qualification candidates
and the slots issued in a pass are the loop's private scratch.

The loop over these columns is the C loop in ``repro._native``
(``sim/csrc/nativemodule.c``); this module holds its state and the cold
paths it calls back into.  Bit-identity contract: identical cycle
counts, identical per-stall ``SmStats``, identical oracle digests
against the scan reference stepper — enforced by the engine-identity
property tests and the differential oracle.
"""

from __future__ import annotations

from array import array
from operator import attrgetter

from repro.isa.instructions import Instruction, OpClass, Opcode
from repro.isa.kernel import Kernel
from repro.sim.rand import DeterministicRng
from repro.sim.scheduler import GtoScheduler, LrrScheduler
from repro.sim.warp import Warp, WarpStatus

# Stall-attribution horizon (cycles): a pending completion further out
# than this is attributed to memory, nearer to the scoreboard.  Shared
# with the scan stepper's classification and with
# ``Scoreboard.has_pending_memory`` — attribution only, never
# correctness.
MEMORY_STALL_HORIZON = 20

# -- column encodings ---------------------------------------------------------

# Queue-state codes (the ``qstate`` column): which wake-queue structure
# currently owns the warp.
QS_OUT = 0        # not resident / finished
QS_READY = 1      # in its scheduler's ready list
QS_SLEEPING = 2   # in the sleeper heap
QS_BARRIER = 3    # parked at a barrier (blocked count)
QS_ACQUIRE = 4    # parked on a failed acquire (blocked count)

# Warp status codes (column representation of WarpStatus).
ST_READY = 0
ST_BARRIER = 1
ST_ACQUIRE = 2
ST_FINISHED = 3
STATUS_ENUM = (
    WarpStatus.READY,
    WarpStatus.AT_BARRIER,
    WarpStatus.WAITING_ACQUIRE,
    WarpStatus.FINISHED,
)
STATUS_CODE = {status: code for code, status in enumerate(STATUS_ENUM)}

# Stall-reason codes (column representation of Warp.stalled_on).
SL_NONE = 0
SL_SCOREBOARD = 1
SL_MEMORY = 2
SL_TECHNIQUE = 3
STALL_STR = (None, "scoreboard", "memory", "technique")
STALL_CODE = {s: code for code, s in enumerate(STALL_STR)}

# Instruction kind codes (column representation of OpClass + the opcode
# distinctions the stepper cares about).  K_LOAD/K_SHARED_LOAD are
# adjacent so the memory-window gate is a two-comparison test.
K_ALU = 0          # IALU / FALU / SFU / NOP: fixed-latency register ops
K_LOAD = 1         # LD.GLOBAL — occupies the in-flight window
K_SHARED_LOAD = 2  # LD.SHARED — fixed latency, no window slot
K_STORE = 3
K_EXIT = 4
K_JMP = 5
K_BRA = 6
K_BARRIER = 7
K_ACQUIRE = 8
K_RELEASE = 9

# Run-loop stop codes: why a run ended before the kernel did (0 is a
# completed run).  The C loop and the scan run loop stop with one of
# these; ``StreamingMultiprocessor._stop_error`` turns it into the typed
# error.
STOP_DEADLOCK = 2     # no issuable warp and no pending timer
STOP_WATCHDOG = 3     # no forward progress for a watchdog window
STOP_CYCLE_LIMIT = 4  # past the max_cycles backstop

# Slots of ``ColumnarUnit.counts``: the sleeper classes, the blocked
# counts, and the lengths of the unit's three queues.
U_MEM_SLEEPERS = 0
U_NONMEM_SLEEPERS = 1
U_BARRIER = 2
U_ACQUIRE = 3
U_NREADY = 4
U_NSLEEPERS = 5
U_NFAR = 6
U_NCOUNTS = 7


def buffer_field(buffer: str, index: int) -> property:
    """An int attribute stored at ``self.<buffer>[index]``: a slot of an
    ``array('l')`` the C loop shares, under its Python name."""
    items = attrgetter(buffer)

    def get(self) -> int:
        return items(self)[index]

    def set(self, value: int) -> None:
        items(self)[index] = value

    return property(get, set)


def _kind_code(inst: Instruction) -> int:
    op_class = inst.op_class
    if op_class in (OpClass.IALU, OpClass.FALU, OpClass.SFU, OpClass.NOP):
        return K_ALU
    if op_class is OpClass.LOAD:
        return K_SHARED_LOAD if inst.opcode is Opcode.LD_SHARED else K_LOAD
    if op_class is OpClass.STORE:
        return K_STORE
    if op_class is OpClass.BRANCH:
        if inst.is_exit:
            return K_EXIT
        return K_BRA if inst.is_conditional_branch else K_JMP
    if op_class is OpClass.BARRIER:
        return K_BARRIER
    if op_class is OpClass.REGMUTEX:
        return K_ACQUIRE if inst.opcode is Opcode.ACQUIRE else K_RELEASE
    raise AssertionError(f"unhandled op class {op_class}")


class KernelColumns:
    """Per-kernel instruction pre-decode: parallel arrays indexed by pc.

    Everything the issue loop would otherwise fetch through
    ``Instruction`` properties (enum dict hashes per access) is decoded
    once per kernel: kind codes, latencies, operand tuples, label
    targets resolved to pcs, and branch annotations.  ``insts`` keeps
    the original objects for the cold paths that want them (technique
    hooks, sanitizer, observers).
    """

    __slots__ = (
        "kind", "lat", "dsts", "regs", "insts",
        "tgt", "trip", "prob", "nregs",
    )

    def __init__(self, kernel: Kernel) -> None:
        insts = tuple(kernel.instructions)
        self.insts = insts
        self.kind = [_kind_code(inst) for inst in insts]
        self.lat = [inst.latency for inst in insts]
        self.dsts = [inst.dsts for inst in insts]
        # Qualification order matches Scoreboard.ready_cycle: srcs, dsts.
        self.regs = [(*inst.srcs, *inst.dsts) for inst in insts]
        self.tgt = [
            kernel.label_pc(inst.target) if inst.is_branch else -1
            for inst in insts
        ]
        self.trip = [inst.trip_count for inst in insts]
        self.prob = [
            inst.taken_probability if inst.taken_probability is not None else 0.0
            for inst in insts
        ]
        max_reg = max(
            (reg for regs in self.regs for reg in regs),
            default=-1,
        )
        self.nregs = max(max_reg + 1, kernel.metadata.regs_per_thread, 1)


# Raw (base-class slot) descriptors: the view's properties shadow these
# names, so detached/unbound access goes through the descriptors directly.
_RAW_PC = Warp.__dict__["pc"]
_RAW_STATUS = Warp.__dict__["status"]
_RAW_STALLED_ON = Warp.__dict__["stalled_on"]
_RAW_WAKE = Warp.__dict__["wake_cycle"]
_RAW_DYN = Warp.__dict__["dynamic_instructions"]
_RAW_HOLDS = Warp.__dict__["holds_extended_set"]


class ColumnarWarpView(Warp):
    """A ``Warp`` whose hot attributes live in the columnar store.

    Everything outside the stepper — techniques, the CTA barrier
    protocol, probes, the sanitizer, diagnostics, tests — keeps using
    the ``Warp`` API; these properties forward to the columns while the
    view is *bound*.  On CTA retirement the view is detached: the final
    column values are copied back into the base-class slots so the slot
    can be recycled without stale views aliasing its next tenant.

    Cold attributes (``rng``, ``_trips_remaining``, ``srp_section``,
    ``acquire_block_since``, ``owns_pair_lock``) stay plain slots — they
    are technique state, not issue-loop state (OWF keeps the owner bit
    the loop reads in its own per-slot buffer).
    """

    __slots__ = ("_cols", "_bound")

    def __init__(
        self,
        cols: "ColumnarCore",
        warp_id: int,
        cta_id: int,
        kernel: Kernel,
        rng: DeterministicRng,
        slot: int,
    ) -> None:
        # Must precede super().__init__: the base constructor assigns
        # through the properties below, which route on ``_bound``.
        self._cols = cols
        self._bound = False
        super().__init__(warp_id, cta_id, kernel, rng, slot=slot)

    # -- hot attributes proxied into the columns -------------------------------
    @property
    def pc(self) -> int:
        if self._bound:
            return self._cols.pc[self.slot]
        return _RAW_PC.__get__(self)

    @pc.setter
    def pc(self, value: int) -> None:
        if self._bound:
            self._cols.pc[self.slot] = value
        else:
            _RAW_PC.__set__(self, value)

    @property
    def status(self) -> WarpStatus:
        if self._bound:
            return STATUS_ENUM[self._cols.status[self.slot]]
        return _RAW_STATUS.__get__(self)

    @status.setter
    def status(self, value: WarpStatus) -> None:
        if self._bound:
            self._cols.status[self.slot] = STATUS_CODE[value]
        else:
            _RAW_STATUS.__set__(self, value)

    @property
    def stalled_on(self):
        if self._bound:
            return STALL_STR[self._cols.stall[self.slot]]
        return _RAW_STALLED_ON.__get__(self)

    @stalled_on.setter
    def stalled_on(self, value) -> None:
        if self._bound:
            self._cols.stall[self.slot] = STALL_CODE[value]
        else:
            _RAW_STALLED_ON.__set__(self, value)

    @property
    def wake_cycle(self) -> int:
        if self._bound:
            return self._cols.wake[self.slot]
        return _RAW_WAKE.__get__(self)

    @wake_cycle.setter
    def wake_cycle(self, value: int) -> None:
        if self._bound:
            self._cols.wake[self.slot] = value
        else:
            _RAW_WAKE.__set__(self, value)

    @property
    def dynamic_instructions(self) -> int:
        if self._bound:
            return self._cols.dyn[self.slot]
        return _RAW_DYN.__get__(self)

    @dynamic_instructions.setter
    def dynamic_instructions(self, value: int) -> None:
        if self._bound:
            self._cols.dyn[self.slot] = value
        else:
            _RAW_DYN.__set__(self, value)

    @property
    def holds_extended_set(self) -> bool:
        if self._bound:
            return self._cols.holds[self.slot]
        return _RAW_HOLDS.__get__(self)

    @holds_extended_set.setter
    def holds_extended_set(self, value: bool) -> None:
        if self._bound:
            self._cols.holds[self.slot] = value
        else:
            _RAW_HOLDS.__set__(self, value)


class ColumnarUnit:
    """Per-scheduler ready/sleeper/blocked state over warp slots, with
    the stall-attribution bookkeeping (class counts + far-threshold
    heap) described in the module docstring.

    The queues are ``array('l')`` buffers of one entry per slot that the
    C loop shares; their lengths live in ``counts`` (``U_NREADY``,
    ``U_NSLEEPERS``, ``U_NFAR``), and a warp sits in at most one queue.
    ``ready`` holds slots by warp id, ``sleepers`` is a min-heap of
    slots keyed ``(wake, warp_id)`` through the core's columns, and
    ``far`` a min-heap of thresholds.  Read and change them through the
    methods below.

    ``kind`` names the pick the C loop runs: 0 = GTO (greedy id match,
    else lowest id, among the warps whose priority bit is set when any
    candidate's is: ``GtoScheduler.pick``), 1 = LRR (first id past the
    last issued).  The loop runs no other scheduler, so any other one is
    refused here with a ``TypeError``.
    """

    __slots__ = ("sched", "kind", "ready", "sleepers", "far", "counts", "_wid")

    mem_sleepers = buffer_field("counts", U_MEM_SLEEPERS)
    nonmem_sleepers = buffer_field("counts", U_NONMEM_SLEEPERS)
    barrier_count = buffer_field("counts", U_BARRIER)
    acquire_count = buffer_field("counts", U_ACQUIRE)

    def __init__(self, sched, wid: array) -> None:
        self.sched = sched
        if type(sched) is GtoScheduler:
            self.kind = 0
        elif type(sched) is LrrScheduler:
            self.kind = 1
        else:
            raise TypeError(
                "the columnar engine's C loop runs GtoScheduler and "
                f"LrrScheduler picks only, not {type(sched).__name__}"
            )
        # Sized with the core's columns (``ColumnarCore._ensure``).
        self.ready = array("l")
        self.sleepers = array("l")
        self.far = array("l")
        self.counts = array("l", [0]) * U_NCOUNTS
        self._wid = wid

    def ready_entries(self) -> list[tuple[int, int]]:
        """The ready list as ``(warp_id, slot)`` pairs, in order."""
        wid = self._wid
        return [(wid[slot], slot)
                for slot in self.ready[:self.counts[U_NREADY]]]

    def sleeping_slots(self) -> list[int]:
        """The sleeper heap's slots, in heap order."""
        return list(self.sleepers[:self.counts[U_NSLEEPERS]])

    def insert_ready(self, slot: int) -> None:
        """Insert ``slot`` in warp-id position (``bisect.insort``)."""
        ready, wid = self.ready, self._wid
        key = wid[slot]
        i = self.counts[U_NREADY]
        while i > 0 and wid[ready[i - 1]] > key:
            ready[i] = ready[i - 1]
            i -= 1
        ready[i] = slot
        self.counts[U_NREADY] += 1

    def remove_ready(self, slot: int) -> None:
        """Remove ``slot`` (``ValueError`` when it is not ready)."""
        n = self.counts[U_NREADY]
        ready = self.ready
        # Item by item: a slice assignment would resize the array, which
        # a running C loop's buffer forbids.
        for i in range(ready[:n].index(slot), n - 1):
            ready[i] = ready[i + 1]
        self.counts[U_NREADY] = n - 1


class ColumnarCore:
    """The per-SM columnar store plus its event bookkeeping.

    Columns are parallel sequences indexed by warp slot; ``wid[slot] ==
    -1`` marks a free slot.  The ones the C loop reads every cycle are
    ``array('l')`` buffers (module docstring); the object-valued ones
    (views, kernel columns, rngs, trips, rows) and the cold ones stay
    lists.  ``hot`` is a prebuilt tuple of the loop's column references,
    which the C loop reads once per run.
    """

    __slots__ = (
        "units", "num_schedulers", "issue_width", "capacity",
        "pc", "wake", "status", "stall", "qstate", "dyn",
        "views", "kcs", "rngs", "trips",
        "sb_rows", "sb_max",
        "wid", "holds",
        "wid2slot", "_kc_cache", "hot",
    )

    def __init__(self, schedulers, config) -> None:
        self.wid = array("l")
        self.units = [ColumnarUnit(s, self.wid) for s in schedulers]
        self.num_schedulers = len(schedulers)
        self.issue_width = config.issue_width_per_scheduler
        self.capacity = 0
        self.pc = array("l")
        self.wake = array("l")
        self.status = array("l")
        self.stall = array("l")
        self.qstate = array("l")
        self.dyn = array("l")
        self.views: list[ColumnarWarpView | None] = []
        self.kcs: list[KernelColumns | None] = []
        self.rngs: list[DeterministicRng | None] = []
        self.trips: list[dict | None] = []
        self.sb_rows: list[array | None] = []
        self.sb_max = array("l")
        self.holds: list[bool] = []
        self.wid2slot: dict[int, int] = {}
        # Keyed by id(kernel); the kernel ref in the value keeps the id
        # stable for the SM's lifetime (Kernel defines __eq__ and is
        # therefore unhashable).
        self._kc_cache: dict[int, tuple[Kernel, KernelColumns]] = {}
        self._ensure(config.max_warps_per_sm - 1)
        self.hot = (
            self.pc, self.wake, self.status, self.stall, self.qstate,
            self.dyn, self.views, self.kcs, self.rngs, self.trips,
            self.sb_rows, self.sb_max, self.wid,
        )

    def _ensure(self, slot: int) -> None:
        """Grow every column to cover ``slot`` (columns grow in place, so
        the prebuilt ``hot`` tuple stays valid).  Never during a C-loop
        run, which holds the arrays' buffers: the constructor covers
        every slot the SM can allocate."""
        while self.capacity <= slot:
            self.pc.append(0)
            self.wake.append(0)
            self.status.append(ST_FINISHED)
            self.stall.append(SL_NONE)
            self.qstate.append(QS_OUT)
            self.dyn.append(0)
            self.views.append(None)
            self.kcs.append(None)
            self.rngs.append(None)
            self.trips.append(None)
            self.sb_rows.append(None)
            self.sb_max.append(0)
            self.wid.append(-1)
            self.holds.append(False)
            for unit in self.units:
                unit.ready.append(0)
                unit.sleepers.append(0)
                unit.far.append(0)
            self.capacity += 1

    def kernel_columns(self, kernel: Kernel) -> KernelColumns:
        key = id(kernel)
        entry = self._kc_cache.get(key)
        if entry is None:
            entry = (kernel, KernelColumns(kernel))
            self._kc_cache[key] = entry
        return entry[1]

    # -- warp lifecycle ---------------------------------------------------------
    def new_warp(
        self,
        warp_id: int,
        cta_id: int,
        kernel: Kernel,
        rng: DeterministicRng,
        slot: int,
    ) -> ColumnarWarpView:
        """Create a view bound to ``slot`` and initialize its columns
        (fresh scoreboard row included — slot recycling must not leak
        the previous tenant's pending writes)."""
        self._ensure(slot)
        kc = self.kernel_columns(kernel)
        view = ColumnarWarpView(self, warp_id, cta_id, kernel, rng, slot)
        self.pc[slot] = 0
        self.wake[slot] = 0
        self.status[slot] = ST_READY
        self.stall[slot] = SL_NONE
        self.qstate[slot] = QS_OUT
        self.dyn[slot] = 0
        self.views[slot] = view
        self.kcs[slot] = kc
        self.rngs[slot] = rng
        self.trips[slot] = view._trips_remaining
        self.sb_rows[slot] = array("l", [0]) * kc.nregs
        self.sb_max[slot] = 0
        self.wid[slot] = warp_id
        self.holds[slot] = False
        self.wid2slot[warp_id] = slot
        view._bound = True
        return view

    def add_warp(self, view: ColumnarWarpView) -> None:
        """CTA launch made the warp resident: into its scheduler's ready
        list (warp ids are monotonic, so it lands at the end)."""
        slot = view.slot
        self.qstate[slot] = QS_READY
        self.units[view.warp_id % self.num_schedulers].insert_ready(slot)

    def release_warp(self, view: ColumnarWarpView) -> None:
        """CTA retirement: detach the view (column values copied back to
        its own slots) and free the column slot for recycling."""
        slot = view.slot
        if view._bound:
            view._bound = False
            _RAW_PC.__set__(view, self.pc[slot])
            _RAW_STATUS.__set__(view, STATUS_ENUM[self.status[slot]])
            _RAW_STALLED_ON.__set__(view, STALL_STR[self.stall[slot]])
            _RAW_WAKE.__set__(view, self.wake[slot])
            _RAW_DYN.__set__(view, self.dyn[slot])
            _RAW_HOLDS.__set__(view, self.holds[slot])
        self.wid2slot.pop(view.warp_id, None)
        self.wid[slot] = -1
        self.views[slot] = None
        self.kcs[slot] = None
        self.rngs[slot] = None
        self.trips[slot] = None
        self.qstate[slot] = QS_OUT
        self.status[slot] = ST_FINISHED
        self.holds[slot] = False

    # -- event hooks (cold paths; the stepper inlines the hot ones) -------------
    def on_finish(self, warp_id: int, slot: int) -> None:
        """The warp finished: release whichever structure owns it.

        On the issue path the warp is always ``QS_READY`` (EXIT can only
        issue from the ready list), but the technique layer can finish a
        *parked* warp — the acquire-wakeup handoff in
        ``RegMutexSmState.on_warp_finish`` — so the blocked counts are
        released here too.  A sleeping warp cannot finish.
        """
        unit = self.units[warp_id % self.num_schedulers]
        qs = self.qstate[slot]
        if qs == QS_READY:
            unit.remove_ready(slot)
        elif qs == QS_BARRIER:
            unit.barrier_count -= 1
        elif qs == QS_ACQUIRE:
            unit.acquire_count -= 1
        self.qstate[slot] = QS_OUT

    def on_barrier_release(self, cta) -> None:
        qstate = self.qstate
        for warp in cta.warps:
            slot = warp.slot
            if qstate[slot] == QS_BARRIER:
                unit = self.units[warp.warp_id % self.num_schedulers]
                unit.barrier_count -= 1
                qstate[slot] = QS_READY
                unit.insert_ready(slot)

    def on_acquire_wake(self, warp_id: int, slot: int) -> None:
        if self.qstate[slot] == QS_ACQUIRE:
            unit = self.units[warp_id % self.num_schedulers]
            unit.acquire_count -= 1
            self.qstate[slot] = QS_READY
            unit.insert_ready(slot)

    # -- invariants -------------------------------------------------------------
    def check_hygiene(self) -> None:
        """Structural + mask invariants, for tests and the sanitizer.

        Per unit: sleeper heap size matches the class counts, the ready
        list is id-sorted, and every queued warp's qstate/status agree
        with the structure holding it.  On top, one pass over the
        columns checks that every active slot's codes are in range, a
        finished warp is out of every queue structure, a free slot is
        owned by none, and the qstate histogram reconciles with the
        queues' own counts.
        """
        status = self.status
        qstate = self.qstate
        total_sleeping = total_barrier = total_acquire = 0
        for unit in self.units:
            sleepers = unit.sleeping_slots()
            assert len(sleepers) == unit.mem_sleepers + unit.nonmem_sleepers, (
                f"sleeper heap {len(sleepers)} != class counts "
                f"{unit.mem_sleepers}+{unit.nonmem_sleepers}"
            )
            assert unit.barrier_count >= 0 and unit.acquire_count >= 0
            ready = unit.ready_entries()
            ids = [wid for wid, _ in ready]
            assert ids == sorted(ids), f"ready list out of order: {ids}"
            for wid, slot in ready:
                assert qstate[slot] == QS_READY and status[slot] == ST_READY, (
                    f"warp {wid} in ready with qstate={qstate[slot]} "
                    f"status={status[slot]}"
                )
                assert wid >= 0, f"ready entry for free slot {slot}"
            for slot in sleepers:
                assert qstate[slot] == QS_SLEEPING and status[slot] == ST_READY, (
                    f"warp {self.wid[slot]} asleep with qstate={qstate[slot]} "
                    f"status={status[slot]}"
                )
            total_sleeping += len(sleepers)
            total_barrier += unit.barrier_count
            total_acquire += unit.acquire_count

        sleeping = barrier = acquire = 0
        for slot in range(self.capacity):
            qs = qstate[slot]
            if self.wid[slot] < 0:
                assert qs == QS_OUT, (
                    "free slot still owned by a queue structure"
                )
                continue
            st = status[slot]
            assert ST_READY <= st <= ST_FINISHED, (
                "status code out of range on an active slot"
            )
            assert QS_OUT <= qs <= QS_ACQUIRE, (
                "qstate code out of range on an active slot"
            )
            if st == ST_FINISHED:
                assert qs == QS_OUT, (
                    "finished warp still owned by a queue structure"
                )
            if qs == QS_SLEEPING:
                sleeping += 1
            elif qs == QS_BARRIER:
                barrier += 1
            elif qs == QS_ACQUIRE:
                acquire += 1
        assert sleeping == total_sleeping, (
            f"{sleeping} slots marked sleeping, {total_sleeping} in heaps"
        )
        assert barrier == total_barrier, (
            f"{barrier} slots marked at barrier, units count {total_barrier}"
        )
        assert acquire == total_acquire, (
            f"{acquire} slots marked waiting to acquire, units count "
            f"{total_acquire}"
        )


class ColumnarScoreboard:
    """The ``Scoreboard`` methods used outside the issue loop, over the
    columnar rows (the loops read the rows directly).

    Rows are per-slot ``array('l')`` buffers indexed by architected
    register, sized from the kernel's pre-decode; ``sb_max`` caches each
    slot's maximum pending completion so the clean-slot common case is
    one comparison.
    Entries are never deleted — values only grow, stale ones are
    ``<= cycle`` and invisible to every ``> cycle`` predicate (see
    module docstring).
    """

    __slots__ = ("_core",)

    def __init__(self, core: ColumnarCore) -> None:
        self._core = core

    def register_warp(self, warp_id: int) -> None:
        """Row allocation happens in ``ColumnarCore.new_warp`` (it needs
        the slot and the kernel pre-decode); this is a membership assert
        for API compatibility."""
        assert warp_id in self._core.wid2slot, (
            f"warp {warp_id} not adopted by the columnar core"
        )

    def remove_warp(self, warp_id: int) -> None:
        self._core.wid2slot.pop(warp_id, None)

    def can_issue(self, warp_id: int, inst: Instruction, cycle: int) -> bool:
        core = self._core
        slot = core.wid2slot[warp_id]
        if core.sb_max[slot] <= cycle:
            return True
        row = core.sb_rows[slot]
        for reg in inst.srcs:
            if row[reg] > cycle:
                return False
        for reg in inst.dsts:
            if row[reg] > cycle:
                return False
        return True

    def blocking_registers(
        self, warp_id: int, inst: Instruction, cycle: int
    ) -> list[int]:
        core = self._core
        row = core.sb_rows[core.wid2slot[warp_id]]
        return [
            reg for reg in (*inst.srcs, *inst.dsts) if row[reg] > cycle
        ]

    def record_write(self, warp_id: int, reg: int, ready_cycle: int) -> None:
        """Record a pending write in the row.  The C loop's completion
        heap is built from the rows when a run starts: a write recorded
        between runs is a fast-forward target of the next run, one
        recorded from a hook during a run is not."""
        core = self._core
        slot = core.wid2slot[warp_id]
        row = core.sb_rows[slot]
        if ready_cycle > row[reg]:
            row[reg] = ready_cycle
            if ready_cycle > core.sb_max[slot]:
                core.sb_max[slot] = ready_cycle

    def pending_count(self, warp_id: int, cycle: int) -> int:
        core = self._core
        slot = core.wid2slot.get(warp_id)
        if slot is None:
            return 0
        row = core.sb_rows[slot]
        return sum(1 for ready in row if ready > cycle)

    def pending_writes(self, warp_id: int, cycle: int) -> dict[int, int]:
        core = self._core
        row = core.sb_rows[core.wid2slot[warp_id]]
        return {reg: ready for reg, ready in enumerate(row) if ready > cycle}
