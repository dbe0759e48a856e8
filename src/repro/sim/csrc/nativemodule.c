/* nativemodule.c — the C loop of the columnar issue engine.
 *
 * repro.sim.sm runs every columnar run() through this module.  An SM
 * is columnar only when repro.sim.native finds a binary built from this
 * source (building one on first use in a checkout) that passes the ABI
 * check; otherwise it is built on the scan reference stepper instead.
 *
 * The loop drives the columnar store of repro.sim.columnar and operates
 * on the *same* Python objects: the ColumnarCore columns, the per-unit
 * ready/sleeper/far structures, the scheduler and technique objects.
 * No state is mirrored into C between cycles, so views, snapshots,
 * hooks and the sanitizer observe the state the scan stepper's schedule
 * implies at every observation point.
 *
 * Buffer contract.  The state the loop touches every cycle is
 * array('l') memory that Python reads and writes too: the pc, wake,
 * status, stall, qstate, dyn and sb_max columns, every slot's
 * scoreboard row, each unit's counts (mem_sleepers, nonmem_sleepers,
 * barrier_count, acquire_count), the MemoryModel's _counters
 * (_in_flight_total, _next_retire with -1 for None, loads_issued,
 * l1_hits) and a technique's native_gate() declaration.  The loop
 * takes one writable buffer per object for the whole run (rows are
 * cached per slot by the row object's identity, so new_warp's fresh
 * row is re-taken), reads and writes them as plain longs, and releases
 * every buffer on every exit: a finished run, each STOP_* code and a
 * hook that raises.  A buffer whose items are not C longs is refused
 * with TypeError; there is no boxed fallback.  While a run holds them
 * the arrays cannot be resized (array raises BufferError), which the
 * columns never need: they are sized for every slot up front.  Heaps,
 * ready lists and the in-flight dict stay Python objects, mutated in
 * place through the CPython API.
 *
 * Python is re-entered only at the scan stepper's hook points:
 * technique can_issue/on_issue/try_acquire/release/wakeup_pending,
 * sanitizer + observer strides (on_cycle every cycle while one is
 * attached), CTA barrier arrival and EXIT commit, the memory model's
 * earliest_completion.  Every re-entry sets
 * py_ran, and wakeup_pending is drained only on a cycle that follows
 * one: only Python code can queue a wakeup.  A technique whose gate is
 * data (RfvSmState.native_gate) is not re-entered for can_issue or
 * on_issue at all, unless a wrapper overrides the hook; the wrapper's
 * call then reaches the same buffers.  Everything else (qualification
 * in launch order, scoreboard pending-maxima, the stock MemoryModel's
 * issue_load/retire, sleeper fast-forward, stall attribution) runs as
 * plain C.  sm.py calls in only with a stock MemoryModel and raises
 * TypeError for any other.
 *
 * Error contract: any hook may raise; we return NULL *without*
 * flushing the delta-stat locals.  The deadlock / watchdog /
 * cycle-limit stops flush first and return their stop code (the STOP_*
 * constants of repro.sim.columnar); sm.py raises the typed error from
 * the same code as the scan run loop.
 *
 * Return protocol: run_columnar(...) -> (status, aux)
 *   0                          aux = stats (cycles already stamped)
 *   STOP_DEADLOCK / STOP_WATCHDOG / STOP_CYCLE_LIMIT   aux = None
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <limits.h>

/* SHA-256 of this file, which setup.py passes in; repro.sim.native
 * loads a binary only when it equals the source's digest. */
#ifndef REPRO_NATIVE_SOURCE_DIGEST
#define REPRO_NATIVE_SOURCE_DIGEST "unknown"
#endif

/* Column encodings — mirrored from repro.sim.columnar.
 * repro.sim.native cross-checks every one of these against the Python
 * constants before the first run and refuses the extension on drift. */
#define ST_READY 0
#define ST_BARRIER 1
#define ST_ACQUIRE 2
#define ST_FINISHED 3
#define SL_NONE 0
#define SL_SCOREBOARD 1
#define SL_MEMORY 2
#define SL_TECHNIQUE 3
#define QS_OUT 0
#define QS_READY 1
#define QS_SLEEPING 2
#define QS_BARRIER 3
#define QS_ACQUIRE 4
#define K_ALU 0
#define K_LOAD 1
#define K_SHARED_LOAD 2
#define K_STORE 3
#define K_EXIT 4
#define K_JMP 5
#define K_BRA 6
#define K_BARRIER 7
#define K_ACQUIRE 8
#define K_RELEASE 9
#define STOP_DEADLOCK 2
#define STOP_WATCHDOG 3
#define STOP_CYCLE_LIMIT 4

/* Slots of ColumnarUnit.counts, MemoryModel._counters and the RFV
 * pool (repro.sim.columnar, repro.sim.memory, repro.baselines.rfv). */
#define U_MEM_SLEEPERS 0
#define U_NONMEM_SLEEPERS 1
#define U_BARRIER 2
#define U_ACQUIRE 3
#define M_IN_FLIGHT_TOTAL 0
#define M_NEXT_RETIRE 1 /* -1: nothing in flight */
#define M_LOADS_ISSUED 2
#define M_L1_HITS 3
#define RFV_POOL_FREE 0
#define RFV_RESERVE_HOLDER 1 /* -1: nobody */
#define RFV_PEAK_POOL_USE 2
#define RFV_POOL_CAPACITY 3
#define RFV_NEXT_ORDER 4

#define TRIP_NONE LONG_MIN
#define U64_MASK 0xFFFFFFFFFFFFFFFFULL

/* ---- interned attribute names -------------------------------------- */
static PyObject *S_state, *S_warp_id, *S_slot, *S_cta_id, *S_status,
    *S_issued_count, *S_greedy, *S_last_id, *S_counts, *S_counters,
    *S_instructions_issued,
    *S_idle_scheduler_cycles, *S_stall_memory, *S_stall_barrier,
    *S_stall_scoreboard, *S_stall_acquire, *S_resident_warp_cycles,
    *S_cycles, *S_cycle, *S_last_progress_cycle, *S_resident_warp_count,
    *S_ctas_pending, *S_arrive_at_barrier,
    *S_kind, *S_lat, *S_tgt, *S_trip, *S_prob, *S_dsts,
    *S_regs, *S_insts, *S_units, *S_sched, *S_ready, *S_candidates,
    *S_keep, *S_issued, *S_sleepers, *S_far, *S_pick, *S_notify_issued,
    *S_hot, *S_wid2slot, *S_columnar, *S_memory,
    *S_earliest_completion, *S_technique, *S_sanitizer_a,
    *S_observer_a, *S_stats, *S_resident_ctas,
    *S_ctas_by_id, *S_columnar_on_exit, *S_config,
    *S_issue_width_per_scheduler, *S_watchdog_window,
    *S_max_in_flight, *S_on_issue, *S_on_cycle,
    *S_on_run_end, *S_wakeup_pending, *S_try_acquire,
    *S_release,
    *S_on_acquire_wake, *S_on_barrier_release, *S_READY_attr,
    *S_WAITING_ACQUIRE_attr, *S_in_flight_d, *S_rng_a, *S_l1_hit_latency, *S_dram_latency, *S_l1_hit_rate,
    *S_mod_warp, *S_mod_sm, *S_WarpStatus, *S_EXPIRE_PERIOD,
    *S_EAGER_RETRY_BACKOFF, *S_MEMORY_STALL_HORIZON;

/* ---- small helpers -------------------------------------------------- */

static inline long
lget(PyObject *list, Py_ssize_t i)
{
    return PyLong_AsLong(PyList_GET_ITEM(list, i));
}

static long
get_long_attr(PyObject *obj, PyObject *name, int *err)
{
    PyObject *o = PyObject_GetAttr(obj, name);
    if (o == NULL) {
        *err = 1;
        return 0;
    }
    long v = PyLong_AsLong(o);
    Py_DECREF(o);
    if (v == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return v;
}

static int
set_long_attr(PyObject *obj, PyObject *name, long v)
{
    PyObject *o = PyLong_FromLong(v);
    if (o == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, o);
    Py_DECREF(o);
    return r;
}

static int
add_long_attr(PyObject *obj, PyObject *name, long d)
{
    if (d == 0)
        return 0;
    int err = 0;
    long v = get_long_attr(obj, name, &err);
    if (err)
        return -1;
    return set_long_attr(obj, name, v + d);
}

/* ---- heapq transliteration (PyObject_RichCompareBool ordering) ------ */

/* Ordering fast path: the queue/heap entries are small-int tuples
 * ((wake, wid, slot, is_mem), (done, wid, reg), (wid, slot)) or bare
 * ints, so compare element-wise as C longs when possible.  Bools are
 * PyLong subtypes and compare numerically, exactly like CPython's
 * tuple/long rich comparison; anything else (or an overflowing int)
 * falls back to PyObject_RichCompareBool. */
static int
fast_cmp2(PyObject *a, PyObject *b, int op)
{
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)) {
        Py_ssize_t na = PyTuple_GET_SIZE(a), nb = PyTuple_GET_SIZE(b);
        Py_ssize_t n = na < nb ? na : nb;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *x = PyTuple_GET_ITEM(a, i);
            PyObject *y = PyTuple_GET_ITEM(b, i);
            if (!PyLong_Check(x) || !PyLong_Check(y))
                goto fallback;
            int ovx = 0, ovy = 0;
            long lx = PyLong_AsLongAndOverflow(x, &ovx);
            long ly = PyLong_AsLongAndOverflow(y, &ovy);
            if (ovx || ovy)
                goto fallback;
            if ((lx == -1 || ly == -1) && PyErr_Occurred())
                return -1;
            if (lx != ly)
                return op == Py_LT ? lx < ly : 0;
        }
        if (op == Py_EQ)
            return na == nb;
        return na < nb;
    }
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        int ovx = 0, ovy = 0;
        long lx = PyLong_AsLongAndOverflow(a, &ovx);
        long ly = PyLong_AsLongAndOverflow(b, &ovy);
        if (!ovx && !ovy) {
            if ((lx == -1 || ly == -1) && PyErr_Occurred())
                return -1;
            return op == Py_LT ? lx < ly : lx == ly;
        }
    }
fallback:
    return PyObject_RichCompareBool(a, b, op);
}

static inline int
fast_lt(PyObject *a, PyObject *b)
{
    return fast_cmp2(a, b, Py_LT);
}

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = fast_lt(newitem, parent);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(parent);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SetItem(heap, pos, newitem);
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int lt = fast_lt(PyList_GET_ITEM(heap, childpos),
                             PyList_GET_ITEM(heap, rightpos));
            if (lt < 0) {
                Py_DECREF(newitem);
                return -1;
            }
            if (!lt)
                childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyList_SetItem(heap, pos, child);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SetItem(heap, pos, newitem);
    return heap_siftdown(heap, startpos, pos);
}

/* heappush(heap, item); does NOT steal item. */
static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heappop(heap) -> new reference, or NULL on error.  heap non-empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    Py_INCREF(ret);
    PyList_SetItem(heap, 0, last);
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(ret);
        return NULL;
    }
    return ret;
}

/* bisect.insort (insort_right); does NOT steal item. */
static int
list_insort(PyObject *list, PyObject *item)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(list);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        int lt = fast_lt(item, PyList_GET_ITEM(list, mid));
        if (lt < 0)
            return -1;
        if (lt)
            hi = mid;
        else
            lo = mid + 1;
    }
    return PyList_Insert(list, lo, item);
}

/* list.remove(item) — first == match; ValueError when absent. */
static int
list_remove(PyObject *list, PyObject *item)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    for (Py_ssize_t i = 0; i < n; i++) {
        int eq = fast_cmp2(PyList_GET_ITEM(list, i), item, Py_EQ);
        if (eq < 0)
            return -1;
        if (eq)
            return PyList_SetSlice(list, i, i + 1, NULL);
    }
    PyErr_SetString(PyExc_ValueError, "list.remove(x): x not in list");
    return -1;
}

static inline int
list_clear_all(PyObject *list)
{
    if (PyList_GET_SIZE(list) == 0)
        return 0;
    return PyList_SetSlice(list, 0, PY_SSIZE_T_MAX, NULL);
}

/* DeterministicRng.uniform(): xorshift64* over the object's _state. */
static int
rng_uniform(PyObject *rng, double *out)
{
    PyObject *st = PyObject_GetAttr(rng, S_state);
    if (st == NULL)
        return -1;
    uint64_t x = PyLong_AsUnsignedLongLong(st);
    Py_DECREF(st);
    if (x == (uint64_t)-1 && PyErr_Occurred())
        return -1;
    x ^= x >> 12;
    x = (x ^ (x << 25)) & U64_MASK;
    x ^= x >> 27;
    uint64_t mixed = (x * 0x2545F4914F6CDD1DULL) & U64_MASK;
    PyObject *ns = PyLong_FromUnsignedLongLong(x);
    if (ns == NULL)
        return -1;
    int r = PyObject_SetAttr(rng, S_state, ns);
    Py_DECREF(ns);
    if (r < 0)
        return -1;
    /* Exact: uint64 -> double is correctly rounded, and the divisor is
     * a power of two, matching CPython's int/int true division. */
    *out = (double)mixed / 18446744073709551616.0;
    return 0;
}

/* ---- KernelColumns cache -------------------------------------------- */

typedef struct {
    PyObject *kc;       /* strong: keeps identity + arrays alive */
    PyObject *insts;    /* strong: tuple of Instruction */
    Py_ssize_t n;
    long *kind, *lat, *tgt, *trip;
    double *prob;
    long *regs_data;
    Py_ssize_t *regs_off;   /* n + 1 offsets into regs_data */
    long *dsts_data;
    Py_ssize_t *dsts_off;
} KCache;

static void
kcache_free(KCache *k)
{
    Py_XDECREF(k->kc);
    Py_XDECREF(k->insts);
    PyMem_Free(k->kind);
    PyMem_Free(k->lat);
    PyMem_Free(k->tgt);
    PyMem_Free(k->trip);
    PyMem_Free(k->prob);
    PyMem_Free(k->regs_data);
    PyMem_Free(k->regs_off);
    PyMem_Free(k->dsts_data);
    PyMem_Free(k->dsts_off);
    memset(k, 0, sizeof(*k));
}

static int
flatten_reg_lists(PyObject *lst, Py_ssize_t n, long **data, Py_ssize_t **off)
{
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        total += PyTuple_GET_SIZE(PyList_GET_ITEM(lst, i));
    *data = PyMem_Malloc(sizeof(long) * (total ? total : 1));
    *off = PyMem_Malloc(sizeof(Py_ssize_t) * (n + 1));
    if (*data == NULL || *off == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t p = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        (*off)[i] = p;
        PyObject *t = PyList_GET_ITEM(lst, i);
        Py_ssize_t m = PyTuple_GET_SIZE(t);
        for (Py_ssize_t j = 0; j < m; j++) {
            long v = PyLong_AsLong(PyTuple_GET_ITEM(t, j));
            if (v == -1 && PyErr_Occurred())
                return -1;
            (*data)[p++] = v;
        }
    }
    (*off)[n] = p;
    return 0;
}

static int
kcache_build(KCache *k, PyObject *kc)
{
    memset(k, 0, sizeof(*k));
    PyObject *kind = NULL, *lat = NULL, *tgt = NULL, *trip = NULL,
             *prob = NULL, *dsts = NULL, *regs = NULL;
    int ok = -1;
    kind = PyObject_GetAttr(kc, S_kind);
    lat = PyObject_GetAttr(kc, S_lat);
    tgt = PyObject_GetAttr(kc, S_tgt);
    trip = PyObject_GetAttr(kc, S_trip);
    prob = PyObject_GetAttr(kc, S_prob);
    dsts = PyObject_GetAttr(kc, S_dsts);
    regs = PyObject_GetAttr(kc, S_regs);
    k->insts = PyObject_GetAttr(kc, S_insts);
    if (!kind || !lat || !tgt || !trip || !prob || !dsts || !regs
        || !k->insts)
        goto done;
    Py_ssize_t n = PyList_GET_SIZE(kind);
    k->n = n;
    k->kind = PyMem_Malloc(sizeof(long) * (n ? n : 1));
    k->lat = PyMem_Malloc(sizeof(long) * (n ? n : 1));
    k->tgt = PyMem_Malloc(sizeof(long) * (n ? n : 1));
    k->trip = PyMem_Malloc(sizeof(long) * (n ? n : 1));
    k->prob = PyMem_Malloc(sizeof(double) * (n ? n : 1));
    if (!k->kind || !k->lat || !k->tgt || !k->trip || !k->prob) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        k->kind[i] = lget(kind, i);
        k->lat[i] = lget(lat, i);
        k->tgt[i] = lget(tgt, i);
        PyObject *t = PyList_GET_ITEM(trip, i);
        k->trip[i] = (t == Py_None) ? TRIP_NONE : PyLong_AsLong(t);
        k->prob[i] = PyFloat_AsDouble(PyList_GET_ITEM(prob, i));
    }
    if (PyErr_Occurred())
        goto done;
    if (flatten_reg_lists(regs, n, &k->regs_data, &k->regs_off) < 0)
        goto done;
    if (flatten_reg_lists(dsts, n, &k->dsts_data, &k->dsts_off) < 0)
        goto done;
    k->kc = kc;
    Py_INCREF(kc);
    ok = 0;
done:
    Py_XDECREF(kind);
    Py_XDECREF(lat);
    Py_XDECREF(tgt);
    Py_XDECREF(trip);
    Py_XDECREF(prob);
    Py_XDECREF(dsts);
    Py_XDECREF(regs);
    if (ok < 0)
        kcache_free(k);
    return ok;
}

/* ---- per-run state -------------------------------------------------- */

typedef struct {
    PyObject *unit, *sched;
    PyObject *ready, *candidates, *keep, *issued, *sleepers, *far;
    PyObject *sched_pick, *sched_notify; /* kind 2 only */
    long *counts;                        /* ColumnarUnit.counts */
    long kind;
} UnitC;

/* RfvSmState.native_gate(): (live_count, held, owner, order, pool). */
typedef struct {
    long *live, *held, *owner, *order, *pool;
    Py_ssize_t npc, nslots;
} RfvGate;

typedef struct {
    PyObject *sm;
    PyObject *core, *hot;
    /* array('l') columns, indexed by slot (buffers in bufs). */
    long *pc, *wake, *status, *stall, *qstate, *dyn, *sb_max;
    PyObject *views, *kcs, *rngs, *trips, *sb_rows, *sb_heap;
    PyObject *memory, *mem_earliest, *mem_rng, *mem_in_flight;
    long *memc;                                  /* MemoryModel._counters */
    PyObject *tech, *tech_can_issue, *tech_on_issue, *tech_wakeup,
        *tech_try_acquire, *tech_release;
    RfvGate rfv;
    int gate_can, gate_on;      /* the RFV gate replaces can_issue/on_issue */
    PyObject *san_on_issue, *san_on_cycle;       /* NULL: no sanitizer */
    PyObject *observer;                          /* NULL: no observer */
    PyObject *obs_on_cycle, *obs_on_run_end;
    PyObject *stats, *resident_ctas, *ctas_by_id, *wid2slot;
    PyObject *columnar_on_exit;
    PyObject *status_ready, *status_waiting_acquire; /* WarpStatus members */
    PyObject *on_acquire_wake, *on_barrier_release;
    PyObject *cyc_obj;                           /* PyLong of cycle */
    long issue_width, window, mem_cap, num_sched;
    long l1_lat, dram_lat, shared_lat;
    double l1_rate;
    int multi_issue, tail_hooks, tech_wakeups;
    /* Set at every re-entry into Python: only Python code can queue a
     * technique wakeup, so the drain runs only on a cycle after one. */
    int py_ran;
    long expire_period, eager_backoff, horizon;
    UnitC *units;
    int nunits;
    KCache *kcaches;
    int nkc, kccap;
    PyObject **slot_kc_obj;
    KCache **slot_kc;
    Py_ssize_t slot_cap;
    /* Every buffer held for the run (columns, counters, gate); sized
     * once in runstate_setup, so the views never move. */
    Py_buffer *bufs;
    int nbufs, bufcap;
    /* Scoreboard rows: the buffer of sb_rows[slot], cached by the row
     * object's identity (its buffer holds a reference, so the identity
     * stays unique while cached). */
    PyObject **row_obj;
    Py_buffer *row_buf;
    long d_issued, d_idle, d_mem, d_bar, d_sb, d_acq, d_res;
    long cycle, last_progress;
    /* Mirror of sm._resident_warp_count: only CTA retire/launch (the
     * _columnar_on_exit path) changes it mid-run, so it is re-read
     * after every on-exit call instead of every cycle. */
    long resident_cnt;
} RunState;

/* A Python call from the loop: marks the re-entry for the wakeup drain. */
#define PYCALL(S, ...) \
    ((S)->py_ran = 1, PyObject_CallFunctionObjArgs(__VA_ARGS__, NULL))

static void
runstate_free(RunState *S)
{
    Py_XDECREF(S->core); Py_XDECREF(S->hot);
    Py_XDECREF(S->memory); Py_XDECREF(S->mem_earliest);
    Py_XDECREF(S->mem_rng); Py_XDECREF(S->mem_in_flight);
    Py_XDECREF(S->tech); Py_XDECREF(S->tech_try_acquire);
    Py_XDECREF(S->tech_release); Py_XDECREF(S->tech_wakeup);
    Py_XDECREF(S->san_on_issue); Py_XDECREF(S->san_on_cycle);
    Py_XDECREF(S->observer); Py_XDECREF(S->obs_on_cycle);
    Py_XDECREF(S->obs_on_run_end);
    Py_XDECREF(S->stats); Py_XDECREF(S->resident_ctas);
    Py_XDECREF(S->ctas_by_id); Py_XDECREF(S->wid2slot);
    Py_XDECREF(S->columnar_on_exit);
    Py_XDECREF(S->status_ready); Py_XDECREF(S->status_waiting_acquire);
    Py_XDECREF(S->on_acquire_wake); Py_XDECREF(S->on_barrier_release);
    Py_XDECREF(S->cyc_obj);
    for (int i = 0; i < S->nbufs; i++)
        PyBuffer_Release(&S->bufs[i]);
    PyMem_Free(S->bufs);
    if (S->row_obj != NULL)
        for (Py_ssize_t i = 0; i < S->slot_cap; i++)
            if (S->row_obj[i] != NULL)
                PyBuffer_Release(&S->row_buf[i]);
    PyMem_Free(S->row_obj);
    PyMem_Free(S->row_buf);
    if (S->units != NULL) {
        for (int i = 0; i < S->nunits; i++) {
            UnitC *u = &S->units[i];
            Py_XDECREF(u->unit); Py_XDECREF(u->sched);
            Py_XDECREF(u->ready); Py_XDECREF(u->candidates);
            Py_XDECREF(u->keep); Py_XDECREF(u->issued);
            Py_XDECREF(u->sleepers); Py_XDECREF(u->far);
            Py_XDECREF(u->sched_pick); Py_XDECREF(u->sched_notify);
        }
        PyMem_Free(S->units);
    }
    if (S->kcaches != NULL) {
        for (int i = 0; i < S->nkc; i++)
            kcache_free(&S->kcaches[i]);
        PyMem_Free(S->kcaches);
    }
    PyMem_Free(S->slot_kc_obj);
    PyMem_Free(S->slot_kc);
}

/* ---- shared long buffers -------------------------------------------- */

/* Export obj's buffer into *view as writable C longs, or fail: a
 * TypeError names `what` when the items are anything else. */
static int
long_buffer(PyObject *obj, Py_buffer *view, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)
            || PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError,
                         "%s must be a writable array('l'), not %.100s",
                         what, Py_TYPE(obj)->tp_name);
        }
        return -1;
    }
    if (view->itemsize != (Py_ssize_t)sizeof(long) || view->format == NULL
        || strcmp(view->format, "l") != 0) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a buffer of C longs (array('l')), not "
                     "format '%s' with itemsize %zd",
                     what, view->format ? view->format : "B",
                     view->itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Hold obj's buffer for the run (released by runstate_free) and return
 * its items, at least min_len of them; *len gets the count if given. */
static long *
take_longs(RunState *S, PyObject *obj, Py_ssize_t min_len,
           Py_ssize_t *len, const char *what)
{
    if (S->nbufs == S->bufcap) {
        PyErr_SetString(PyExc_RuntimeError, "run buffer table is full");
        return NULL;
    }
    Py_buffer *view = &S->bufs[S->nbufs];
    if (long_buffer(obj, view, what) < 0)
        return NULL;
    S->nbufs++;
    Py_ssize_t n = view->len / (Py_ssize_t)sizeof(long);
    if (n < min_len) {
        PyErr_Format(PyExc_ValueError, "%s has %zd items, needs %zd",
                     what, n, min_len);
        return NULL;
    }
    if (len != NULL)
        *len = n;
    return (long *)view->buf;
}

/* The scoreboard row of a slot, as longs. */
static long *
slot_row(RunState *S, Py_ssize_t slot)
{
    PyObject *row = PyList_GET_ITEM(S->sb_rows, slot);
    if (row == S->row_obj[slot])
        return (long *)S->row_buf[slot].buf;
    if (S->row_obj[slot] != NULL) {
        PyBuffer_Release(&S->row_buf[slot]);
        S->row_obj[slot] = NULL;
    }
    if (long_buffer(row, &S->row_buf[slot], "a scoreboard row") < 0)
        return NULL;
    S->row_obj[slot] = row;
    return (long *)S->row_buf[slot].buf;
}

/* ---- RFV issue gate (RfvSmState.can_issue / on_issue as data) -------- */

static int
rfv_check(RunState *S, long slot, long pc)
{
    if (pc < 0 || pc >= S->rfv.npc || slot < 0 || slot >= S->rfv.nslots) {
        PyErr_Format(PyExc_IndexError,
                     "RFV gate: pc %ld or slot %ld out of range", pc, slot);
        return -1;
    }
    return 0;
}

/* 1: may issue, 0: stalled on the technique, -1: error. */
static int
rfv_can_issue(RunState *S, long slot, long wid, long pc)
{
    RfvGate *g = &S->rfv;
    if (rfv_check(S, slot, pc) < 0)
        return -1;
    long needed = g->live[pc] - g->held[slot];
    if (needed <= 0 || g->pool[RFV_POOL_FREE] >= needed)
        return 1;
    long holder = g->pool[RFV_RESERVE_HOLDER];
    if (holder == -1 || holder == wid) {
        g->pool[RFV_RESERVE_HOLDER] = wid;
        return 1;
    }
    return 0;
}

static int
rfv_on_issue(RunState *S, long slot, long wid, long pc, long kind)
{
    RfvGate *g = &S->rfv;
    if (rfv_check(S, slot, pc) < 0)
        return -1;
    long *pool = g->pool;
    long demand = g->live[pc];
    long delta = demand - g->held[slot];
    pool[RFV_POOL_FREE] -= delta;
    if (g->order[slot] < 0) {
        g->order[slot] = pool[RFV_NEXT_ORDER]++;
        g->owner[slot] = wid;
    }
    g->held[slot] = demand;
    long used = pool[RFV_POOL_CAPACITY] - pool[RFV_POOL_FREE];
    if (used > pool[RFV_PEAK_POOL_USE])
        pool[RFV_PEAK_POOL_USE] = used;
    if (pool[RFV_RESERVE_HOLDER] == wid && (delta < 0 || kind == K_BARRIER))
        pool[RFV_RESERVE_HOLDER] = -1;
    return 0;
}

/* The technique's issue gate for the warp at `slot`: the declared gate,
 * the bound Python can_issue, or none.  1 / 0 / -1 as rfv_can_issue. */
static int
tech_can_issue(RunState *S, KCache *kc, long slot, long wid, long pc)
{
    if (S->gate_can)
        return rfv_can_issue(S, slot, wid, pc);
    if (S->tech_can_issue == NULL)
        return 1;
    PyObject *r = PYCALL(S, S->tech_can_issue,
                         PyList_GET_ITEM(S->views, slot),
                         PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj);
    if (r == NULL)
        return -1;
    int ok = PyObject_IsTrue(r);
    Py_DECREF(r);
    return ok;
}

static int
tech_on_issue(RunState *S, KCache *kc, PyObject *view, long slot, long wid,
              long pc)
{
    if (S->gate_on)
        return rfv_on_issue(S, slot, wid, pc, kc->kind[pc]);
    if (S->tech_on_issue == NULL)
        return 0;
    PyObject *r = PYCALL(S, S->tech_on_issue, view,
                         PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Resolve the KCache for a slot, memoised per slot by the identity of
 * kcs[slot] (slot recycling swaps the object; identity check is the
 * same trick ColumnarCore._kc_cache uses). */
static KCache *
slot_kcache(RunState *S, Py_ssize_t slot)
{
    PyObject *kcobj = PyList_GET_ITEM(S->kcs, slot);
    if (slot < S->slot_cap && S->slot_kc_obj[slot] == kcobj)
        return S->slot_kc[slot];
    for (int i = 0; i < S->nkc; i++) {
        if (S->kcaches[i].kc == kcobj) {
            if (slot < S->slot_cap) {
                S->slot_kc_obj[slot] = kcobj;
                S->slot_kc[slot] = &S->kcaches[i];
            }
            return &S->kcaches[i];
        }
    }
    if (S->nkc == S->kccap) {
        int ncap = S->kccap ? S->kccap * 2 : 8;
        KCache *nk = PyMem_Realloc(S->kcaches, sizeof(KCache) * ncap);
        if (nk == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        /* realloc may move the array: invalidate the slot memo. */
        if (nk != S->kcaches)
            for (Py_ssize_t s = 0; s < S->slot_cap; s++)
                S->slot_kc_obj[s] = NULL;
        S->kcaches = nk;
        S->kccap = ncap;
    }
    KCache *k = &S->kcaches[S->nkc];
    if (kcache_build(k, kcobj) < 0)
        return NULL;
    S->nkc++;
    if (slot < S->slot_cap) {
        S->slot_kc_obj[slot] = kcobj;
        S->slot_kc[slot] = k;
    }
    return k;
}

/* Flush the delta-stat locals into SmStats + _last_progress_cycle.
 * Zero-skip per field: totals are identical, attribute traffic isn't
 * wasted on zeros. */
static int
flush_stats(RunState *S)
{
    if (add_long_attr(S->stats, S_instructions_issued, S->d_issued) < 0)
        return -1;
    if (add_long_attr(S->stats, S_idle_scheduler_cycles, S->d_idle) < 0)
        return -1;
    if (add_long_attr(S->stats, S_stall_memory, S->d_mem) < 0)
        return -1;
    if (add_long_attr(S->stats, S_stall_barrier, S->d_bar) < 0)
        return -1;
    if (add_long_attr(S->stats, S_stall_scoreboard, S->d_sb) < 0)
        return -1;
    if (add_long_attr(S->stats, S_stall_acquire, S->d_acq) < 0)
        return -1;
    if (add_long_attr(S->stats, S_resident_warp_cycles, S->d_res) < 0)
        return -1;
    S->d_issued = S->d_idle = S->d_mem = S->d_bar = 0;
    S->d_sb = S->d_acq = S->d_res = 0;
    return set_long_attr(S->sm, S_last_progress_cycle, S->last_progress);
}

static int
set_cycle(RunState *S, long cycle)
{
    PyObject *o = PyLong_FromLong(cycle);
    if (o == NULL)
        return -1;
    Py_XSETREF(S->cyc_obj, o);
    S->cycle = cycle;
    return PyObject_SetAttr(S->sm, S_cycle, o);
}

/* ---- MemoryModel fast path ------------------------------------------ */

/* C transliteration of MemoryModel.issue_load.  The counters live in
 * the shared _counters buffer, the in-flight multiset and the rng stream
 * position in the Python object, all updated eagerly (not deferred to a
 * flush), so any hook that inspects the memory model mid-run sees what
 * MemoryModel.issue_load would have written. */
static int
mem_issue_load_c(RunState *S, long cycle, int shared, long *ready)
{
    if (shared) {
        *ready = cycle + S->shared_lat;
        return 0;
    }
    long *memc = S->memc;
    if (memc[M_IN_FLIGHT_TOTAL] >= S->mem_cap) {
        PyErr_SetString(PyExc_RuntimeError,
                        "memory model saturated; call can_accept first");
        return -1;
    }
    memc[M_LOADS_ISSUED] += 1;
    double u;
    if (rng_uniform(S->mem_rng, &u) < 0)
        return -1;
    long latency;
    if (u < S->l1_rate) {
        memc[M_L1_HITS] += 1;
        latency = S->l1_lat;
    }
    else
        latency = S->dram_lat;
    long done = cycle + latency;
    PyObject *key = PyLong_FromLong(done);
    if (key == NULL)
        return -1;
    PyObject *cur = PyDict_GetItemWithError(S->mem_in_flight, key);
    if (cur == NULL && PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    long n = 1;
    if (cur != NULL) {
        n = PyLong_AsLong(cur) + 1;
        if (n == 0 && PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
    }
    PyObject *nv = PyLong_FromLong(n);
    if (nv == NULL) {
        Py_DECREF(key);
        return -1;
    }
    int r = PyDict_SetItem(S->mem_in_flight, key, nv);
    Py_DECREF(nv);
    Py_DECREF(key);
    if (r < 0)
        return -1;
    memc[M_IN_FLIGHT_TOTAL] += 1;
    if (memc[M_NEXT_RETIRE] == -1 || done < memc[M_NEXT_RETIRE])
        memc[M_NEXT_RETIRE] = done;
    *ready = done;
    return 0;
}

/* C transliteration of MemoryModel.retire.  The caller has already
 * established _next_retire is due (<= cycle), mirroring
 * MemoryModel.retire's early return. */
static int
mem_retire_c(RunState *S, long cycle)
{
    PyObject *dict = S->mem_in_flight;
    Py_ssize_t sz = PyDict_Size(dict);
    PyObject *stackbuf[64];
    PyObject **due = stackbuf;
    if (sz > 64) {
        due = PyMem_Malloc(sizeof(PyObject *) * sz);
        if (due == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    }
    Py_ssize_t ndue = 0;
    long removed = 0, newmin = -1;
    int ok = 0;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(dict, &pos, &k, &v)) {
        long c = PyLong_AsLong(k);
        if (c == -1 && PyErr_Occurred())
            goto done;
        if (c <= cycle) {
            long n = PyLong_AsLong(v);
            if (n == -1 && PyErr_Occurred())
                goto done;
            removed += n;
            Py_INCREF(k);
            due[ndue++] = k;
        }
        else if (newmin == -1 || c < newmin)
            newmin = c;
    }
    for (Py_ssize_t i = 0; i < ndue; i++)
        if (PyDict_DelItem(dict, due[i]) < 0)
            goto done;
    S->memc[M_IN_FLIGHT_TOTAL] -= removed;
    S->memc[M_NEXT_RETIRE] = newmin;
    ok = 1;
done:
    for (Py_ssize_t i = 0; i < ndue; i++)
        Py_DECREF(due[i]);
    if (due != stackbuf)
        PyMem_Free(due);
    return ok ? 0 : -1;
}

/* GetAttr that maps a None value to NULL-without-error. */
static PyObject *
getattr_or_none(PyObject *obj, PyObject *name)
{
    PyObject *o = PyObject_GetAttr(obj, name);
    if (o == NULL)
        return NULL;
    if (o == Py_None) {
        Py_DECREF(o);
        return NULL;
    }
    return o;
}

static int
runstate_setup(RunState *S, PyObject *sm,
               PyObject *can_issue, PyObject *on_issue, int wakeups)
{
    int err = 0;
    S->sm = sm;
    /* A tuple is the technique's native_gate() declaration (see
     * sm._hook_bindings); the C gate then runs in place of the hook. */
    PyObject *gate = NULL;
    if (PyTuple_Check(can_issue)) {
        gate = can_issue;
        S->gate_can = 1;
    }
    else if (can_issue != Py_None)
        S->tech_can_issue = can_issue;
    if (PyTuple_Check(on_issue)) {
        if (gate != NULL && gate != on_issue) {
            PyErr_SetString(PyExc_TypeError,
                            "can_issue and on_issue declare different gates");
            return -1;
        }
        gate = on_issue;
        S->gate_on = 1;
    }
    else if (on_issue != Py_None)
        S->tech_on_issue = on_issue;
    S->tech_wakeups = wakeups;
    S->py_ran = 1;

    S->core = PyObject_GetAttr(sm, S_columnar);
    if (S->core == NULL || S->core == Py_None) {
        if (S->core != NULL)
            PyErr_SetString(PyExc_RuntimeError,
                            "native engine requires a ColumnarCore");
        return -1;
    }
    S->hot = PyObject_GetAttr(S->core, S_hot);
    if (S->hot == NULL || !PyTuple_Check(S->hot)
        || PyTuple_GET_SIZE(S->hot) != 13) {
        if (S->hot != NULL)
            PyErr_SetString(PyExc_RuntimeError, "core.hot: expected 13-tuple");
        return -1;
    }
    /* Borrowed from S->hot (which we own): stable for the whole run —
     * ColumnarCore mutates these lists in place, never rebinds them.
     * The array columns are taken as buffers below. */
    S->views = PyTuple_GET_ITEM(S->hot, 6);
    S->kcs = PyTuple_GET_ITEM(S->hot, 7);
    S->rngs = PyTuple_GET_ITEM(S->hot, 8);
    S->trips = PyTuple_GET_ITEM(S->hot, 9);
    S->sb_rows = PyTuple_GET_ITEM(S->hot, 10);
    S->sb_heap = PyTuple_GET_ITEM(S->hot, 12);
    if (!PyList_Check(S->views) || !PyList_Check(S->kcs)
        || !PyList_Check(S->rngs) || !PyList_Check(S->trips)
        || !PyList_Check(S->sb_rows) || !PyList_Check(S->sb_heap)) {
        PyErr_SetString(PyExc_TypeError,
                        "core.hot: views/kcs/rngs/trips/sb_rows/sb_heap "
                        "must be lists");
        return -1;
    }

    S->wid2slot = PyObject_GetAttr(S->core, S_wid2slot);
    S->on_acquire_wake = PyObject_GetAttr(S->core, S_on_acquire_wake);
    S->on_barrier_release = PyObject_GetAttr(S->core, S_on_barrier_release);
    if (!S->wid2slot || !S->on_acquire_wake || !S->on_barrier_release)
        return -1;

    S->memory = PyObject_GetAttr(sm, S_memory);
    if (S->memory == NULL)
        return -1;
    /* sm.py has verified type(memory) is MemoryModel with no
     * instance-level issue_load/retire, so the C transliteration of
     * those two is exact.  State (the _counters buffer, the in-flight
     * multiset, the rng stream) stays in the Python object and is
     * updated eagerly, so hooks and snapshots see what the Python
     * methods would write. */
    S->mem_earliest = PyObject_GetAttr(S->memory, S_earliest_completion);
    S->mem_rng = PyObject_GetAttr(S->memory, S_rng_a);
    S->mem_in_flight = PyObject_GetAttr(S->memory, S_in_flight_d);
    if (!S->mem_earliest || !S->mem_rng || !S->mem_in_flight)
        return -1;
    if (!PyDict_CheckExact(S->mem_in_flight)) {
        PyErr_SetString(PyExc_TypeError,
                        "MemoryModel._in_flight must be a dict");
        return -1;
    }
    S->mem_cap = get_long_attr(S->memory, S_max_in_flight, &err);
    if (err)
        return -1;

    S->tech = PyObject_GetAttr(sm, S_technique);
    if (S->tech == NULL)
        return -1;
    S->tech_try_acquire = PyObject_GetAttr(S->tech, S_try_acquire);
    S->tech_release = PyObject_GetAttr(S->tech, S_release);
    if (!S->tech_try_acquire || !S->tech_release)
        return -1;
    if (S->tech_wakeups) {
        S->tech_wakeup = PyObject_GetAttr(S->tech, S_wakeup_pending);
        if (S->tech_wakeup == NULL)
            return -1;
    }

    PyObject *san = getattr_or_none(sm, S_sanitizer_a);
    if (san == NULL && PyErr_Occurred())
        return -1;
    if (san != NULL) {
        S->san_on_issue = PyObject_GetAttr(san, S_on_issue);
        S->san_on_cycle = PyObject_GetAttr(san, S_on_cycle);
        Py_DECREF(san);
        if (!S->san_on_issue || !S->san_on_cycle)
            return -1;
    }

    S->observer = getattr_or_none(sm, S_observer_a);
    if (S->observer == NULL && PyErr_Occurred())
        return -1;
    if (S->observer != NULL) {
        S->obs_on_cycle = PyObject_GetAttr(S->observer, S_on_cycle);
        S->obs_on_run_end = PyObject_GetAttr(S->observer, S_on_run_end);
        if (!S->obs_on_cycle || !S->obs_on_run_end)
            return -1;
    }

    S->stats = PyObject_GetAttr(sm, S_stats);
    S->resident_ctas = PyObject_GetAttr(sm, S_resident_ctas);
    S->ctas_by_id = PyObject_GetAttr(sm, S_ctas_by_id);
    S->columnar_on_exit = PyObject_GetAttr(sm, S_columnar_on_exit);
    if (!S->stats || !S->resident_ctas || !S->ctas_by_id
        || !S->columnar_on_exit)
        return -1;

    PyObject *config = PyObject_GetAttr(sm, S_config);
    if (config == NULL)
        return -1;
    S->issue_width = get_long_attr(config, S_issue_width_per_scheduler, &err);
    if (!err)
        S->window = get_long_attr(config, S_watchdog_window, &err);
    if (!err)
        S->l1_lat = get_long_attr(config, S_l1_hit_latency, &err);
    if (!err)
        S->dram_lat = get_long_attr(config, S_dram_latency, &err);
    if (!err) {
        PyObject *hr = PyObject_GetAttr(config, S_l1_hit_rate);
        if (hr == NULL)
            err = 1;
        else {
            S->l1_rate = PyFloat_AsDouble(hr);
            Py_DECREF(hr);
            if (S->l1_rate == -1.0 && PyErr_Occurred())
                err = 1;
        }
    }
    S->shared_lat = S->l1_lat / 2 + 1;
    Py_DECREF(config);
    if (err)
        return -1;
    S->multi_issue = S->issue_width > 1;
    S->tail_hooks = S->san_on_cycle != NULL || S->observer != NULL;

    /* WarpStatus members for the wakeup drain (identity compares). */
    {
        PyObject *warp_mod = PyImport_Import(S_mod_warp);
        if (warp_mod == NULL)
            return -1;
        PyObject *ws = PyObject_GetAttr(warp_mod, S_WarpStatus);
        Py_DECREF(warp_mod);
        if (ws == NULL)
            return -1;
        S->status_ready = PyObject_GetAttr(ws, S_READY_attr);
        S->status_waiting_acquire =
            PyObject_GetAttr(ws, S_WAITING_ACQUIRE_attr);
        Py_DECREF(ws);
        if (!S->status_ready || !S->status_waiting_acquire)
            return -1;
    }
    /* Timing constants, fetched from sm.py (which imports the horizon
     * from repro.sim.columnar) so they can never drift from the scan
     * stepper. */
    {
        PyObject *sm_mod = PyImport_Import(S_mod_sm);
        if (sm_mod == NULL)
            return -1;
        PyObject *a = PyObject_GetAttr(sm_mod, S_EXPIRE_PERIOD);
        PyObject *b = PyObject_GetAttr(sm_mod, S_EAGER_RETRY_BACKOFF);
        PyObject *c = PyObject_GetAttr(sm_mod, S_MEMORY_STALL_HORIZON);
        Py_DECREF(sm_mod);
        if (!a || !b || !c) {
            Py_XDECREF(a); Py_XDECREF(b); Py_XDECREF(c);
            return -1;
        }
        S->expire_period = PyLong_AsLong(a);
        S->eager_backoff = PyLong_AsLong(b);
        S->horizon = PyLong_AsLong(c);
        Py_DECREF(a); Py_DECREF(b); Py_DECREF(c);
        if (PyErr_Occurred())
            return -1;
    }

    PyObject *units_list = PyObject_GetAttr(S->core, S_units);
    if (units_list == NULL)
        return -1;
    S->nunits = (int)PyList_GET_SIZE(units_list);
    S->num_sched = S->nunits;
    S->units = PyMem_Calloc(S->nunits ? S->nunits : 1, sizeof(UnitC));
    if (S->units == NULL) {
        Py_DECREF(units_list);
        PyErr_NoMemory();
        return -1;
    }
    for (int i = 0; i < S->nunits; i++) {
        UnitC *u = &S->units[i];
        u->unit = PyList_GET_ITEM(units_list, i);
        Py_INCREF(u->unit);
        u->sched = PyObject_GetAttr(u->unit, S_sched);
        u->ready = PyObject_GetAttr(u->unit, S_ready);
        u->candidates = PyObject_GetAttr(u->unit, S_candidates);
        u->keep = PyObject_GetAttr(u->unit, S_keep);
        u->issued = PyObject_GetAttr(u->unit, S_issued);
        u->sleepers = PyObject_GetAttr(u->unit, S_sleepers);
        u->far = PyObject_GetAttr(u->unit, S_far);
        if (!u->sched || !u->ready || !u->candidates || !u->keep
            || !u->issued || !u->sleepers || !u->far) {
            Py_DECREF(units_list);
            return -1;
        }
        u->kind = get_long_attr(u->unit, S_kind, &err);
        if (err) {
            Py_DECREF(units_list);
            return -1;
        }
        if (u->kind == 2) {
            u->sched_pick = PyObject_GetAttr(u->sched, S_pick);
            u->sched_notify = PyObject_GetAttr(u->sched, S_notify_issued);
            if (!u->sched_pick || !u->sched_notify) {
                Py_DECREF(units_list);
                return -1;
            }
        }
    }
    Py_DECREF(units_list);

    S->slot_cap = PyList_GET_SIZE(S->views);
    Py_ssize_t cap1 = S->slot_cap ? S->slot_cap : 1;
    S->slot_kc_obj = PyMem_Calloc(cap1, sizeof(PyObject *));
    S->slot_kc = PyMem_Calloc(cap1, sizeof(KCache *));
    S->row_obj = PyMem_Calloc(cap1, sizeof(PyObject *));
    S->row_buf = PyMem_Calloc(cap1, sizeof(Py_buffer));
    /* 7 columns, one counts array per unit, the memory counters and at
     * most 5 gate arrays. */
    S->bufcap = 7 + S->nunits + 1 + 5;
    S->bufs = PyMem_Calloc(S->bufcap, sizeof(Py_buffer));
    if (S->slot_kc_obj == NULL || S->slot_kc == NULL || S->row_obj == NULL
        || S->row_buf == NULL || S->bufs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    {
        static const char *names[7] = {
            "core.pc", "core.wake", "core.status", "core.stall",
            "core.qstate", "core.dyn", "core.sb_max",
        };
        static const int hot_index[7] = {0, 1, 2, 3, 4, 5, 11};
        long **cols[7] = {
            &S->pc, &S->wake, &S->status, &S->stall, &S->qstate, &S->dyn,
            &S->sb_max,
        };
        for (int i = 0; i < 7; i++) {
            *cols[i] = take_longs(S, PyTuple_GET_ITEM(S->hot, hot_index[i]),
                                  S->slot_cap, NULL, names[i]);
            if (*cols[i] == NULL)
                return -1;
        }
    }
    for (int i = 0; i < S->nunits; i++) {
        UnitC *u = &S->units[i];
        PyObject *counts = PyObject_GetAttr(u->unit, S_counts);
        if (counts == NULL)
            return -1;
        u->counts = take_longs(S, counts, 4, NULL, "ColumnarUnit.counts");
        Py_DECREF(counts);
        if (u->counts == NULL)
            return -1;
    }
    {
        PyObject *memc = PyObject_GetAttr(S->memory, S_counters);
        if (memc == NULL)
            return -1;
        S->memc = take_longs(S, memc, 4, NULL, "MemoryModel._counters");
        Py_DECREF(memc);
        if (S->memc == NULL)
            return -1;
    }
    if (gate != NULL) {
        if (!PyTuple_CheckExact(gate) || PyTuple_GET_SIZE(gate) != 5) {
            PyErr_SetString(PyExc_TypeError,
                            "native_gate(): expected (live_count, held, "
                            "owner, order, pool)");
            return -1;
        }
        RfvGate *g = &S->rfv;
        Py_ssize_t nheld, nowner, norder;
        g->live = take_longs(S, PyTuple_GET_ITEM(gate, 0), 0, &g->npc,
                             "gate live_count");
        if (g->live == NULL)
            return -1;
        g->held = take_longs(S, PyTuple_GET_ITEM(gate, 1), 0, &nheld,
                             "gate held");
        if (g->held == NULL)
            return -1;
        g->owner = take_longs(S, PyTuple_GET_ITEM(gate, 2), nheld, &nowner,
                              "gate owner");
        if (g->owner == NULL)
            return -1;
        g->order = take_longs(S, PyTuple_GET_ITEM(gate, 3), nheld, &norder,
                              "gate order");
        if (g->order == NULL)
            return -1;
        g->pool = take_longs(S, PyTuple_GET_ITEM(gate, 4), 5, NULL,
                             "gate pool");
        if (g->pool == NULL)
            return -1;
        g->nslots = nheld;
    }

    S->cycle = get_long_attr(sm, S_cycle, &err);
    if (err)
        return -1;
    S->last_progress = get_long_attr(sm, S_last_progress_cycle, &err);
    if (err)
        return -1;
    S->resident_cnt = get_long_attr(sm, S_resident_warp_count, &err);
    if (err)
        return -1;
    S->cyc_obj = PyLong_FromLong(S->cycle);
    if (S->cyc_obj == NULL)
        return -1;
    return 0;
}

/* Park a warp in its unit's sleeper heap (qualification + dispose). */
static int
park_sleeper(RunState *S, UnitC *u, long cycle, long wake,
             PyObject *wid_o, PyObject *slot_o, int is_mem)
{
    if (is_mem)
        u->counts[U_MEM_SLEEPERS] += 1;
    else {
        u->counts[U_NONMEM_SLEEPERS] += 1;
        if (wake - cycle > S->horizon) {
            PyObject *f = PyLong_FromLong(wake - S->horizon);
            if (f == NULL)
                return -1;
            int r = heap_push(u->far, f);
            Py_DECREF(f);
            if (r < 0)
                return -1;
        }
    }
    PyObject *t = PyTuple_New(4);
    if (t == NULL)
        return -1;
    PyObject *w = PyLong_FromLong(wake);
    if (w == NULL) {
        Py_DECREF(t);
        return -1;
    }
    PyTuple_SET_ITEM(t, 0, w);
    Py_INCREF(wid_o);
    PyTuple_SET_ITEM(t, 1, wid_o);
    Py_INCREF(slot_o);
    PyTuple_SET_ITEM(t, 2, slot_o);
    PyObject *b = is_mem ? Py_True : Py_False;
    Py_INCREF(b);
    PyTuple_SET_ITEM(t, 3, b);
    int r = heap_push(u->sleepers, t);
    Py_DECREF(t);
    return r;
}

/* Scoreboard dst-register writes for ALU/LOAD completions. */
static int
sb_write(RunState *S, KCache *kc, long pc, long slot, PyObject *wid_o,
         long done)
{
    long *row = slot_row(S, slot);
    if (row == NULL)
        return -1;
    for (Py_ssize_t j = kc->dsts_off[pc]; j < kc->dsts_off[pc + 1]; j++) {
        long reg = kc->dsts_data[j];
        if (done > row[reg]) {
            row[reg] = done;
            PyObject *t = PyTuple_New(3);
            if (t == NULL)
                return -1;
            PyObject *d = PyLong_FromLong(done);
            PyObject *r = PyLong_FromLong(reg);
            if (d == NULL || r == NULL) {
                Py_XDECREF(d);
                Py_XDECREF(r);
                Py_DECREF(t);
                return -1;
            }
            PyTuple_SET_ITEM(t, 0, d);
            Py_INCREF(wid_o);
            PyTuple_SET_ITEM(t, 1, wid_o);
            PyTuple_SET_ITEM(t, 2, r);
            int rc = heap_push(S->sb_heap, t);
            Py_DECREF(t);
            if (rc < 0)
                return -1;
            if (done > S->sb_max[slot])
                S->sb_max[slot] = done;
        }
    }
    return 0;
}

static inline void
advance_pc(RunState *S, long slot, long newpc)
{
    S->pc[slot] = newpc;
    S->dyn[slot] += 1;
}

/* sm._issuable for the warp at `slot`: scoreboard, memory window, then
 * the technique gate.  On failure records the stall reason (and, when
 * the blocker has a known expiry, the wake cycle); on success clears
 * the reason.  `hint`: a warp already stalled on the scoreboard takes
 * its recorded wake cycle as its latest pending operand.
 * 1 = qualified, 0 = not, -1 = a raised hook. */
static int
qualify(RunState *S, KCache *kc, long slot, long wid, long cycle, int hint)
{
    long pc = S->pc[slot];
    if (S->sb_max[slot] > cycle) {
        long latest;
        if (hint && S->stall[slot] == SL_SCOREBOARD)
            latest = S->wake[slot];
        else {
            long *row = slot_row(S, slot);
            if (row == NULL)
                return -1;
            latest = cycle;
            for (Py_ssize_t j = kc->regs_off[pc]; j < kc->regs_off[pc + 1];
                 j++) {
                long r = row[kc->regs_data[j]];
                if (r > latest)
                    latest = r;
            }
        }
        if (latest > cycle) {
            S->stall[slot] = SL_SCOREBOARD;
            S->wake[slot] = latest;
            return 0;
        }
    }
    if (kc->kind[pc] >= K_LOAD && kc->kind[pc] <= K_SHARED_LOAD
        && S->memc[M_IN_FLIGHT_TOTAL] >= S->mem_cap) {
        S->stall[slot] = SL_MEMORY;
        PyObject *done = PYCALL(S, S->mem_earliest, S->cyc_obj);
        if (done == NULL)
            return -1;
        if (done != Py_None) {
            long dv = PyLong_AsLong(done);
            if (dv == -1 && PyErr_Occurred()) {
                Py_DECREF(done);
                return -1;
            }
            S->wake[slot] = dv;
        }
        Py_DECREF(done);
        return 0;
    }
    int ok = tech_can_issue(S, kc, slot, wid, pc);
    if (ok < 0)
        return -1;
    S->stall[slot] = ok ? SL_NONE : SL_TECHNIQUE;
    return ok;
}

/* One simulated cycle over every scheduler unit: sleeper wake-ups,
 * qualification, pick/execute/dispose, idle attribution: the scan
 * stepper's schedule over the wake queues.  Returns issued count via
 * *issued_out, -1 on a raised hook. */
static int
do_cycle(RunState *S, long cycle, long *issued_out)
{
    long issued_this = 0;
    int err = 0;
    for (int ui = 0; ui < S->nunits; ui++) {
        UnitC *u = &S->units[ui];
        long *counts = u->counts;
        PyObject *ready = u->ready;
        PyObject *sleepers = u->sleepers;
        while (PyList_GET_SIZE(sleepers) > 0
               && PyLong_AsLong(PyTuple_GET_ITEM(
                      PyList_GET_ITEM(sleepers, 0), 0)) <= cycle) {
            PyObject *t = heap_pop(sleepers);
            if (t == NULL)
                return -1;
            PyObject *wid_o = PyTuple_GET_ITEM(t, 1);
            PyObject *slot_o = PyTuple_GET_ITEM(t, 2);
            int is_mem = PyObject_IsTrue(PyTuple_GET_ITEM(t, 3));
            if (is_mem < 0) {
                Py_DECREF(t);
                return -1;
            }
            counts[is_mem ? U_MEM_SLEEPERS : U_NONMEM_SLEEPERS] -= 1;
            S->qstate[PyLong_AsLong(slot_o)] = QS_READY;
            PyObject *pair = PyTuple_New(2);
            if (pair == NULL) {
                Py_DECREF(t);
                return -1;
            }
            Py_INCREF(wid_o);
            PyTuple_SET_ITEM(pair, 0, wid_o);
            Py_INCREF(slot_o);
            PyTuple_SET_ITEM(pair, 1, slot_o);
            int r = list_insort(ready, pair);
            Py_DECREF(pair);
            Py_DECREF(t);
            if (r < 0)
                return -1;
        }
        /* Blocked counts captured before qualification (scan-stepper
         * semantics: a warp parking this pass counts from next cycle). */
        long barrier_count = counts[U_BARRIER];
        long acquire_count = counts[U_ACQUIRE];
        int qual_mem = 0, qual_sb = 0;
        int have_candidates = 0;
        PyObject *candidates = u->candidates;
        if (PyList_GET_SIZE(ready) > 0) {
            have_candidates = 1;
            if (list_clear_all(candidates) < 0)
                return -1;
            int routed = 0;
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(ready); i++) {
                PyObject *item = PyList_GET_ITEM(ready, i);
                Py_INCREF(item);
                long wid = PyLong_AsLong(PyTuple_GET_ITEM(item, 0));
                long slot = PyLong_AsLong(PyTuple_GET_ITEM(item, 1));
                KCache *kc = slot_kcache(S, slot);
                if (kc == NULL)
                    goto item_fail;
                int qualified = qualify(S, kc, slot, wid, cycle, 1);
                if (qualified < 0)
                    goto item_fail;
                if (qualified) {
                    if (PyList_Append(candidates, item) < 0
                        || (routed && PyList_Append(u->keep, item) < 0))
                        goto item_fail;
                    Py_DECREF(item);
                    continue;
                }
                /* qualification failed: flags + routing */
                if (!routed) {
                    routed = 1;
                    if (list_clear_all(u->keep) < 0
                        || PyList_SetSlice(u->keep, 0, 0, candidates) < 0)
                        goto item_fail;
                }
                long sc = S->stall[slot];
                if (sc == SL_MEMORY)
                    qual_mem = 1;
                else if (S->sb_max[slot] - cycle > S->horizon)
                    qual_mem = 1;
                else
                    qual_sb = 1;
                if (S->status[slot] != ST_READY) {
                    S->qstate[slot] = QS_ACQUIRE;
                    counts[U_ACQUIRE] += 1;
                }
                else {
                    long wake = S->wake[slot];
                    if (wake > cycle) {
                        S->qstate[slot] = QS_SLEEPING;
                        if (park_sleeper(S, u, cycle, wake,
                                         PyTuple_GET_ITEM(item, 0),
                                         PyTuple_GET_ITEM(item, 1),
                                         sc == SL_MEMORY) < 0)
                            goto item_fail;
                    }
                    else if (PyList_Append(u->keep, item) < 0)
                        goto item_fail;
                }
                Py_DECREF(item);
                continue;
            item_fail:
                Py_DECREF(item);
                return -1;
            }
            if (routed
                && PyList_SetSlice(ready, 0, PY_SSIZE_T_MAX, u->keep) < 0)
                return -1;
        }

        long issued_here = 0;
        if (have_candidates && PyList_GET_SIZE(candidates) > 0) {
            PyObject *issued_list = u->issued;
            for (long wi = 0; wi < S->issue_width; wi++) {
                if (PyList_GET_SIZE(candidates) == 0)
                    break;
                PyObject *chosen = NULL; /* owned */
                PyObject *view = NULL;   /* owned */
                if (u->kind == 0) { /* GTO, default priority */
                    PyObject *greedy = PyObject_GetAttr(u->sched, S_greedy);
                    if (greedy == NULL)
                        return -1;
                    if (greedy != Py_None) {
                        PyObject *g = PyObject_GetAttr(greedy, S_warp_id);
                        if (g == NULL) {
                            Py_DECREF(greedy);
                            return -1;
                        }
                        long gwid = PyLong_AsLong(g);
                        Py_DECREF(g);
                        Py_ssize_t nc = PyList_GET_SIZE(candidates);
                        for (Py_ssize_t i = 0; i < nc; i++) {
                            PyObject *it = PyList_GET_ITEM(candidates, i);
                            if (PyLong_AsLong(PyTuple_GET_ITEM(it, 0))
                                == gwid) {
                                chosen = it;
                                Py_INCREF(chosen);
                                break;
                            }
                        }
                    }
                    Py_DECREF(greedy);
                    if (chosen == NULL) { /* oldest: sorted */
                        chosen = PyList_GET_ITEM(candidates, 0);
                        Py_INCREF(chosen);
                    }
                }
                else if (u->kind == 1) { /* LRR */
                    long last = get_long_attr(u->sched, S_last_id, &err);
                    if (err)
                        return -1;
                    Py_ssize_t nc = PyList_GET_SIZE(candidates);
                    for (Py_ssize_t i = 0; i < nc; i++) {
                        PyObject *it = PyList_GET_ITEM(candidates, i);
                        if (PyLong_AsLong(PyTuple_GET_ITEM(it, 0)) > last) {
                            chosen = it;
                            Py_INCREF(chosen);
                            break;
                        }
                    }
                    if (chosen == NULL) {
                        chosen = PyList_GET_ITEM(candidates, 0);
                        Py_INCREF(chosen);
                    }
                }
                else { /* priority hook: real pick over views */
                    Py_ssize_t nc = PyList_GET_SIZE(candidates);
                    PyObject *vl = PyList_New(nc);
                    if (vl == NULL)
                        return -1;
                    for (Py_ssize_t i = 0; i < nc; i++) {
                        long s = PyLong_AsLong(PyTuple_GET_ITEM(
                            PyList_GET_ITEM(candidates, i), 1));
                        PyObject *v = PyList_GET_ITEM(S->views, s);
                        Py_INCREF(v);
                        PyList_SET_ITEM(vl, i, v);
                    }
                    PyObject *pick = PYCALL(S, u->sched_pick, vl);
                    Py_DECREF(vl);
                    if (pick == NULL)
                        return -1;
                    if (pick == Py_None) {
                        Py_DECREF(pick);
                        break;
                    }
                    PyObject *pw = PyObject_GetAttr(pick, S_warp_id);
                    PyObject *ps = PyObject_GetAttr(pick, S_slot);
                    Py_DECREF(pick);
                    if (pw == NULL || ps == NULL) {
                        Py_XDECREF(pw);
                        Py_XDECREF(ps);
                        return -1;
                    }
                    chosen = PyTuple_New(2);
                    if (chosen == NULL) {
                        Py_DECREF(pw);
                        Py_DECREF(ps);
                        return -1;
                    }
                    PyTuple_SET_ITEM(chosen, 0, pw);
                    PyTuple_SET_ITEM(chosen, 1, ps);
                }
                {
                    PyObject *wid_o = PyTuple_GET_ITEM(chosen, 0);
                    long wid = PyLong_AsLong(wid_o);
                    long slot = PyLong_AsLong(PyTuple_GET_ITEM(chosen, 1));
                    KCache *kc = slot_kcache(S, slot);
                    if (kc == NULL)
                        goto pick_fail;
                    long pc = S->pc[slot];
                    long kind = kc->kind[pc];
                    view = PyList_GET_ITEM(S->views, slot);
                    Py_INCREF(view);
                    S->d_issued += 1;
                    if (tech_on_issue(S, kc, view, slot, wid, pc) < 0)
                        goto pick_fail;
                    if (S->san_on_issue != NULL) {
                        PyObject *r = PYCALL(
                            S, S->san_on_issue, view,
                            PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                    }
                    int exited = 0;
                    if (kind <= K_SHARED_LOAD) { /* ALU/LOAD/SHARED_LOAD */
                        long done;
                        if (kind == K_ALU)
                            done = cycle + kc->lat[pc];
                        else if (mem_issue_load_c(S, cycle,
                                                  kind == K_SHARED_LOAD,
                                                  &done) < 0)
                            goto pick_fail;
                        if (sb_write(S, kc, pc, slot, wid_o, done) < 0)
                            goto pick_fail;
                        advance_pc(S, slot, pc + 1);
                        S->last_progress = cycle;
                    }
                    else if (kind == K_STORE) {
                        advance_pc(S, slot, pc + 1);
                        S->last_progress = cycle;
                    }
                    else if (kind == K_JMP) {
                        advance_pc(S, slot, kc->tgt[pc]);
                        S->last_progress = cycle;
                    }
                    else if (kind == K_BRA) {
                        long newpc;
                        if (kc->trip[pc] != TRIP_NONE) {
                            PyObject *trips_d =
                                PyList_GET_ITEM(S->trips, slot);
                            PyObject *key = PyLong_FromLong(pc);
                            if (key == NULL)
                                goto pick_fail;
                            PyObject *rem =
                                PyDict_GetItemWithError(trips_d, key);
                            if (rem == NULL && PyErr_Occurred()) {
                                Py_DECREF(key);
                                goto pick_fail;
                            }
                            long remaining =
                                rem ? PyLong_AsLong(rem) : kc->trip[pc];
                            long store;
                            if (remaining > 0) {
                                store = remaining - 1;
                                newpc = kc->tgt[pc];
                            }
                            else {
                                store = kc->trip[pc];
                                newpc = pc + 1;
                            }
                            PyObject *sv = PyLong_FromLong(store);
                            if (sv == NULL) {
                                Py_DECREF(key);
                                goto pick_fail;
                            }
                            int rc = PyDict_SetItem(trips_d, key, sv);
                            Py_DECREF(sv);
                            Py_DECREF(key);
                            if (rc < 0)
                                goto pick_fail;
                        }
                        else if (kc->prob[pc] > 0.0) {
                            double uu;
                            if (rng_uniform(
                                    PyList_GET_ITEM(S->rngs, slot), &uu) < 0)
                                goto pick_fail;
                            newpc = uu < kc->prob[pc] ? kc->tgt[pc] : pc + 1;
                        }
                        else
                            newpc = pc + 1;
                        advance_pc(S, slot, newpc);
                        S->last_progress = cycle;
                    }
                    else if (kind == K_EXIT) {
                        /* CTA retire/launch hooks may read the shared
                         * counters: flush first. */
                        if (S->observer != NULL && flush_stats(S) < 0)
                            goto pick_fail;
                        PyObject *r = PYCALL(S, S->columnar_on_exit, view,
                                             S->cyc_obj);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                        {
                            int rerr = 0;
                            S->resident_cnt = get_long_attr(
                                S->sm, S_resident_warp_count, &rerr);
                            if (rerr)
                                goto pick_fail;
                        }
                        S->last_progress = cycle;
                        exited = 1;
                    }
                    else if (kind == K_BARRIER) {
                        /* Advance first: the warp resumes past the
                         * barrier when released. */
                        advance_pc(S, slot, pc + 1);
                        S->last_progress = cycle;
                        PyObject *cid = PyObject_GetAttr(view, S_cta_id);
                        if (cid == NULL)
                            goto pick_fail;
                        PyObject *cta =
                            PyDict_GetItemWithError(S->ctas_by_id, cid);
                        if (cta == NULL) {
                            if (!PyErr_Occurred())
                                PyErr_SetObject(PyExc_KeyError, cid);
                            Py_DECREF(cid);
                            goto pick_fail;
                        }
                        Py_INCREF(cta);
                        Py_DECREF(cid);
                        S->py_ran = 1;
                        PyObject *r = PyObject_CallMethodObjArgs(
                            cta, S_arrive_at_barrier, view, NULL);
                        if (r == NULL) {
                            Py_DECREF(cta);
                            goto pick_fail;
                        }
                        int released = PyObject_IsTrue(r);
                        Py_DECREF(r);
                        if (released < 0) {
                            Py_DECREF(cta);
                            goto pick_fail;
                        }
                        if (released) {
                            PyObject *r2 =
                                PYCALL(S, S->on_barrier_release, cta);
                            if (r2 == NULL) {
                                Py_DECREF(cta);
                                goto pick_fail;
                            }
                            Py_DECREF(r2);
                        }
                        Py_DECREF(cta);
                    }
                    else if (kind == K_ACQUIRE) {
                        PyObject *r = PYCALL(S, S->tech_try_acquire, view,
                                             S->cyc_obj);
                        if (r == NULL)
                            goto pick_fail;
                        int got = PyObject_IsTrue(r);
                        Py_DECREF(r);
                        if (got < 0)
                            goto pick_fail;
                        if (got) {
                            advance_pc(S, slot, pc + 1);
                            S->last_progress = cycle;
                        }
                        else if (S->status[slot] == ST_READY)
                            /* Eager retry backoff (see _execute). */
                            S->wake[slot] = cycle + S->eager_backoff;
                    }
                    else { /* K_RELEASE */
                        PyObject *r = PYCALL(S, S->tech_release, view,
                                             S->cyc_obj);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                        advance_pc(S, slot, pc + 1);
                        S->last_progress = cycle;
                    }
                    /* inline notify_issued */
                    if (u->kind == 0) {
                        if (add_long_attr(u->sched, S_issued_count, 1) < 0
                            || PyObject_SetAttr(u->sched, S_greedy,
                                                view) < 0)
                            goto pick_fail;
                    }
                    else if (u->kind == 1) {
                        if (add_long_attr(u->sched, S_issued_count, 1) < 0
                            || set_long_attr(u->sched, S_last_id, wid) < 0)
                            goto pick_fail;
                    }
                    else {
                        PyObject *r = PYCALL(S, u->sched_notify, view);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                    }
                    issued_this += 1;
                    issued_here += 1;
                    if (PyList_Append(issued_list, chosen) < 0)
                        goto pick_fail;
                    if (S->multi_issue
                        && list_remove(candidates, chosen) < 0)
                        goto pick_fail;
                    /* inline requalification for remaining width; guarded
                     * on `exited` — the slot may host a fresh warp after a
                     * CTA retire and must not be read. */
                    if (!exited && S->status[slot] == ST_READY
                        && S->wake[slot] <= cycle) {
                        int requal = qualify(S, kc, slot, wid, cycle, 0);
                        if (requal < 0)
                            goto pick_fail;
                        if (requal && S->multi_issue
                            && list_insort(candidates, chosen) < 0)
                            goto pick_fail;
                    }
                }
                Py_DECREF(view);
                Py_DECREF(chosen);
                continue;
            pick_fail:
                Py_XDECREF(view);
                Py_XDECREF(chosen);
                return -1;
            }

            /* inline dispose_issued (qstate-guarded, idempotent) */
            Py_ssize_t ni = PyList_GET_SIZE(issued_list);
            for (Py_ssize_t i = 0; i < ni; i++) {
                PyObject *item = PyList_GET_ITEM(issued_list, i);
                long slot = PyLong_AsLong(PyTuple_GET_ITEM(item, 1));
                if (S->qstate[slot] != QS_READY)
                    continue; /* finished or re-homed same-pass */
                long st = S->status[slot];
                if (st == ST_READY) {
                    long wake = S->wake[slot];
                    if (wake > cycle) { /* eager acquire backoff */
                        if (list_remove(ready, item) < 0)
                            return -1;
                        S->qstate[slot] = QS_SLEEPING;
                        if (park_sleeper(S, u, cycle, wake,
                                         PyTuple_GET_ITEM(item, 0),
                                         PyTuple_GET_ITEM(item, 1),
                                         S->stall[slot] == SL_MEMORY) < 0)
                            return -1;
                    }
                }
                else if (st == ST_BARRIER) {
                    if (list_remove(ready, item) < 0)
                        return -1;
                    S->qstate[slot] = QS_BARRIER;
                    counts[U_BARRIER] += 1;
                }
                else if (st == ST_ACQUIRE) {
                    if (list_remove(ready, item) < 0)
                        return -1;
                    S->qstate[slot] = QS_ACQUIRE;
                    counts[U_ACQUIRE] += 1;
                }
            }
            if (list_clear_all(issued_list) < 0)
                return -1;
        }
        if (issued_here == 0) {
            S->d_idle += 1;
            if (acquire_count)
                S->d_acq += 1;
            else {
                /* Inline sleeper_flags: prune the far heap, then the
                 * aggregate-count classification. */
                while (PyList_GET_SIZE(u->far) > 0
                       && PyLong_AsLong(PyList_GET_ITEM(u->far, 0))
                              <= cycle) {
                    PyObject *p = heap_pop(u->far);
                    if (p == NULL)
                        return -1;
                    Py_DECREF(p);
                }
                long far_n = PyList_GET_SIZE(u->far);
                if (qual_mem || counts[U_MEM_SLEEPERS] > 0 || far_n > 0)
                    S->d_mem += 1;
                else if (barrier_count)
                    S->d_bar += 1;
                else if (qual_sb || counts[U_NONMEM_SLEEPERS] > far_n)
                    S->d_sb += 1;
            }
        }
    }
    *issued_out = issued_this;
    return 0;
}

/* ---- the batched run loop ------------------------------------------- */

static PyObject *
native_run(PyObject *self, PyObject *args)
{
    PyObject *sm, *can_issue, *on_issue;
    long max_cycles;
    int wakeups;
    (void)self;
    if (!PyArg_ParseTuple(args, "OlOOp", &sm, &max_cycles,
                          &can_issue, &on_issue, &wakeups))
        return NULL;
    RunState St;
    memset(&St, 0, sizeof(St));
    RunState *S = &St;
    if (runstate_setup(S, sm, can_issue, on_issue, wakeups) < 0) {
        runstate_free(S);
        return NULL;
    }
    long next_expire =
        S->cycle - (S->cycle % S->expire_period) + S->expire_period;
    long status = 0;

    for (;;) {
        long cycle = S->cycle + 1;
        if (set_cycle(S, cycle) < 0)
            goto fail;
        long issued_this = 0;
        {
            long nxt = S->memc[M_NEXT_RETIRE];
            if (nxt != -1 && nxt <= cycle && mem_retire_c(S, cycle) < 0)
                goto fail;
        }
        if (cycle >= next_expire) {
            next_expire = cycle + S->expire_period;
            while (PyList_GET_SIZE(S->sb_heap) > 0
                   && PyLong_AsLong(PyTuple_GET_ITEM(
                          PyList_GET_ITEM(S->sb_heap, 0), 0)) <= cycle) {
                PyObject *p = heap_pop(S->sb_heap);
                if (p == NULL)
                    goto fail;
                Py_DECREF(p);
            }
        }
        /* Only Python code queues wakeups: drain after a re-entry. */
        if (S->tech_wakeups && S->py_ran) {
            S->py_ran = 0;
            PyObject *pending = PyObject_CallNoArgs(S->tech_wakeup);
            if (pending == NULL)
                goto fail;
            int truthy = PyObject_IsTrue(pending);
            if (truthy < 0) {
                Py_DECREF(pending);
                goto fail;
            }
            if (truthy) {
                PyObject *fast = PySequence_Fast(
                    pending, "wakeup_pending() must be iterable");
                if (fast == NULL) {
                    Py_DECREF(pending);
                    goto fail;
                }
                Py_ssize_t np = PySequence_Fast_GET_SIZE(fast);
                /* The drain itself ran Python (status setters, the
                 * unblock hook): drain again next cycle. */
                S->py_ran = 1;
                for (Py_ssize_t i = 0; i < np; i++) {
                    PyObject *warp = PySequence_Fast_GET_ITEM(fast, i);
                    PyObject *wst = PyObject_GetAttr(warp, S_status);
                    if (wst == NULL) {
                        Py_DECREF(fast);
                        Py_DECREF(pending);
                        goto fail;
                    }
                    int is_wa = (wst == S->status_waiting_acquire);
                    Py_DECREF(wst);
                    if (!is_wa)
                        continue;
                    if (PyObject_SetAttr(warp, S_status,
                                         S->status_ready) < 0) {
                        Py_DECREF(fast);
                        Py_DECREF(pending);
                        goto fail;
                    }
                    PyObject *wwid = PyObject_GetAttr(warp, S_warp_id);
                    PyObject *wslot = PyObject_GetAttr(warp, S_slot);
                    PyObject *r = NULL;
                    if (wwid != NULL && wslot != NULL)
                        r = PyObject_CallFunctionObjArgs(
                            S->on_acquire_wake, wwid, wslot, NULL);
                    Py_XDECREF(wwid);
                    Py_XDECREF(wslot);
                    if (r == NULL) {
                        Py_DECREF(fast);
                        Py_DECREF(pending);
                        goto fail;
                    }
                    Py_DECREF(r);
                }
                Py_DECREF(fast);
            }
            Py_DECREF(pending);
        }
        S->d_res += S->resident_cnt;

        if (do_cycle(S, cycle, &issued_this) < 0)
            goto fail;

        if (S->tail_hooks) {
            if (flush_stats(S) < 0)
                goto fail;
            if (S->san_on_cycle != NULL) {
                PyObject *r = PYCALL(S, S->san_on_cycle, sm);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
            }
            if (S->observer != NULL) {
                PyObject *r = PYCALL(S, S->obs_on_cycle, sm);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
            }
        }

        /* -- run-loop controls (mirrors the generic run loop) -- */
        if (issued_this == 0) {
            PyObject *pending_ctas = PyObject_GetAttr(sm, S_ctas_pending);
            if (pending_ctas == NULL)
                goto fail;
            int busy = PyObject_IsTrue(pending_ctas);
            Py_DECREF(pending_ctas);
            if (busy < 0)
                goto fail;
            if (!busy)
                busy = PyList_GET_SIZE(S->resident_ctas) > 0;
            if (busy) {
                /* Inline fast-forward: lazy scoreboard peek + memory +
                 * sleeper minima, the targets of sm._fast_forward. */
                int has_target = 0;
                long target = 0;
                while (PyList_GET_SIZE(S->sb_heap) > 0) {
                    PyObject *top = PyList_GET_ITEM(S->sb_heap, 0);
                    long ready_at =
                        PyLong_AsLong(PyTuple_GET_ITEM(top, 0));
                    if (ready_at > cycle) {
                        PyObject *hwid = PyTuple_GET_ITEM(top, 1);
                        PyObject *hslot_o = PyDict_GetItemWithError(
                            S->wid2slot, hwid);
                        if (hslot_o == NULL && PyErr_Occurred())
                            goto fail;
                        if (hslot_o != NULL) {
                            long hslot = PyLong_AsLong(hslot_o);
                            long hreg = PyLong_AsLong(
                                PyTuple_GET_ITEM(top, 2));
                            long *row = slot_row(S, hslot);
                            if (row == NULL)
                                goto fail;
                            if (row[hreg] == ready_at) {
                                target = ready_at;
                                has_target = 1;
                                break;
                            }
                        }
                    }
                    PyObject *p = heap_pop(S->sb_heap);
                    if (p == NULL)
                        goto fail;
                    Py_DECREF(p);
                }
                {
                    long mv = S->memc[M_NEXT_RETIRE];
                    if (mv != -1 && (!has_target || mv < target)) {
                        target = mv;
                        has_target = 1;
                    }
                }
                /* Completion-backed minimum so far: creditable against
                 * the watchdog iff it survives as the overall minimum. */
                int has_creditable = has_target;
                long creditable = target;
                for (int ui = 0; ui < S->nunits; ui++) {
                    PyObject *heap = S->units[ui].sleepers;
                    if (PyList_GET_SIZE(heap) > 0) {
                        long first = PyLong_AsLong(PyTuple_GET_ITEM(
                            PyList_GET_ITEM(heap, 0), 0));
                        if (!has_target || first < target) {
                            target = first;
                            has_target = 1;
                        }
                    }
                }
                if (!has_target) {
                    if (flush_stats(S) < 0)
                        goto fail;
                    status = STOP_DEADLOCK;
                    break;
                }
                long skip = target - cycle - 1;
                if (skip > 0) {
                    cycle += skip;
                    if (set_cycle(S, cycle) < 0)
                        goto fail;
                    if (has_creditable && creditable == target)
                        S->last_progress += skip;
                    S->d_idle += skip * S->num_sched;
                    S->d_mem += skip * S->num_sched;
                    S->d_res += skip * S->resident_cnt;
                }
            }
        }
        if (S->window && cycle - S->last_progress > S->window) {
            if (flush_stats(S) < 0)
                goto fail;
            status = STOP_WATCHDOG;
            break;
        }
        if (cycle > max_cycles) {
            if (flush_stats(S) < 0)
                goto fail;
            status = STOP_CYCLE_LIMIT;
            break;
        }
        {
            int done = PyList_GET_SIZE(S->resident_ctas) == 0;
            if (done) {
                PyObject *pending_ctas =
                    PyObject_GetAttr(sm, S_ctas_pending);
                if (pending_ctas == NULL)
                    goto fail;
                int more = PyObject_IsTrue(pending_ctas);
                Py_DECREF(pending_ctas);
                if (more < 0)
                    goto fail;
                if (!more)
                    break;
            }
        }
    }

    if (status == 0) {
        if (flush_stats(S) < 0)
            goto fail;
        if (set_long_attr(S->stats, S_cycles, S->cycle) < 0)
            goto fail;
        if (S->observer != NULL) {
            PyObject *r = PYCALL(S, S->obs_on_run_end, sm);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
        PyObject *res = Py_BuildValue("(lO)", status, S->stats);
        runstate_free(S);
        return res;
    }
    {
        PyObject *res = Py_BuildValue("(lO)", status, Py_None);
        runstate_free(S);
        return res;
    }
fail:
    runstate_free(S);
    return NULL;
}

/* ---- module boilerplate --------------------------------------------- */

static PyMethodDef native_methods[] = {
    {"run_columnar", native_run, METH_VARARGS,
     "run_columnar(sm, max_cycles, can_issue, on_issue, wakeups)"
     " -> (status, aux)\n\n"
     "Batched columnar run loop over the SM's ColumnarCore.  Statuses:\n"
     "0=done (aux=stats), else STOP_DEADLOCK/STOP_WATCHDOG/"
     "STOP_CYCLE_LIMIT (aux=None)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native",
    "C accelerator for the columnar issue path (issue_engine=\"columnar\").",
    -1,
    native_methods,
    NULL, NULL, NULL, NULL,
};

static int
intern_all(void)
{
#define IN(var, s)                                   \
    do {                                             \
        var = PyUnicode_InternFromString(s);         \
        if (var == NULL)                             \
            return -1;                               \
    } while (0)
    IN(S_state, "_state");
    IN(S_in_flight_d, "_in_flight");
    IN(S_rng_a, "_rng");
    IN(S_l1_hit_latency, "l1_hit_latency");
    IN(S_dram_latency, "dram_latency");
    IN(S_l1_hit_rate, "l1_hit_rate");
    IN(S_warp_id, "warp_id");
    IN(S_slot, "slot");
    IN(S_cta_id, "cta_id");
    IN(S_status, "status");
    IN(S_issued_count, "issued_count");
    IN(S_greedy, "_greedy");
    IN(S_last_id, "_last_id");
    IN(S_counts, "counts");
    IN(S_counters, "_counters");
    IN(S_instructions_issued, "instructions_issued");
    IN(S_idle_scheduler_cycles, "idle_scheduler_cycles");
    IN(S_stall_memory, "stall_memory");
    IN(S_stall_barrier, "stall_barrier");
    IN(S_stall_scoreboard, "stall_scoreboard");
    IN(S_stall_acquire, "stall_acquire");
    IN(S_resident_warp_cycles, "resident_warp_cycles");
    IN(S_cycles, "cycles");
    IN(S_cycle, "cycle");
    IN(S_last_progress_cycle, "_last_progress_cycle");
    IN(S_resident_warp_count, "_resident_warp_count");
    IN(S_ctas_pending, "ctas_pending");
    IN(S_arrive_at_barrier, "arrive_at_barrier");
    IN(S_kind, "kind");
    IN(S_lat, "lat");
    IN(S_tgt, "tgt");
    IN(S_trip, "trip");
    IN(S_prob, "prob");
    IN(S_dsts, "dsts");
    IN(S_regs, "regs");
    IN(S_insts, "insts");
    IN(S_units, "units");
    IN(S_sched, "sched");
    IN(S_ready, "ready");
    IN(S_candidates, "candidates");
    IN(S_keep, "keep");
    IN(S_issued, "issued");
    IN(S_sleepers, "sleepers");
    IN(S_far, "far");
    IN(S_pick, "pick");
    IN(S_notify_issued, "notify_issued");
    IN(S_hot, "hot");
    IN(S_wid2slot, "wid2slot");
    IN(S_columnar, "_columnar");
    IN(S_memory, "memory");
    IN(S_earliest_completion, "earliest_completion");
    IN(S_technique, "technique");
    IN(S_sanitizer_a, "_sanitizer");
    IN(S_observer_a, "_observer");
    IN(S_stats, "stats");
    IN(S_resident_ctas, "resident_ctas");
    IN(S_ctas_by_id, "_ctas_by_id");
    IN(S_columnar_on_exit, "_columnar_on_exit");
    IN(S_config, "config");
    IN(S_issue_width_per_scheduler, "issue_width_per_scheduler");
    IN(S_watchdog_window, "watchdog_window");
    IN(S_max_in_flight, "_max_in_flight");
    IN(S_on_issue, "on_issue");
    IN(S_on_cycle, "on_cycle");
    IN(S_on_run_end, "on_run_end");
    IN(S_wakeup_pending, "wakeup_pending");
    IN(S_try_acquire, "try_acquire");
    IN(S_release, "release");
    IN(S_on_acquire_wake, "on_acquire_wake");
    IN(S_on_barrier_release, "on_barrier_release");
    IN(S_READY_attr, "READY");
    IN(S_WAITING_ACQUIRE_attr, "WAITING_ACQUIRE");
    IN(S_mod_warp, "repro.sim.warp");
    IN(S_mod_sm, "repro.sim.sm");
    IN(S_WarpStatus, "WarpStatus");
    IN(S_EXPIRE_PERIOD, "_EXPIRE_PERIOD");
    IN(S_EAGER_RETRY_BACKOFF, "_EAGER_RETRY_BACKOFF");
    IN(S_MEMORY_STALL_HORIZON, "MEMORY_STALL_HORIZON");
#undef IN
    return 0;
}

PyMODINIT_FUNC
PyInit__native(void)
{
    if (intern_all() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL)
        return NULL;
    /* Export the compiled-in encodings so sm.py can verify them against
     * the Python constants and refuse the extension on drift. */
#define EXPORT(c)                                     \
    if (PyModule_AddIntConstant(m, #c, c) < 0) {      \
        Py_DECREF(m);                                 \
        return NULL;                                  \
    }
    EXPORT(ST_READY) EXPORT(ST_BARRIER) EXPORT(ST_ACQUIRE)
    EXPORT(ST_FINISHED)
    EXPORT(SL_NONE) EXPORT(SL_SCOREBOARD) EXPORT(SL_MEMORY)
    EXPORT(SL_TECHNIQUE)
    EXPORT(QS_OUT) EXPORT(QS_READY) EXPORT(QS_SLEEPING)
    EXPORT(QS_BARRIER) EXPORT(QS_ACQUIRE)
    EXPORT(K_ALU) EXPORT(K_LOAD) EXPORT(K_SHARED_LOAD) EXPORT(K_STORE)
    EXPORT(K_EXIT) EXPORT(K_JMP) EXPORT(K_BRA) EXPORT(K_BARRIER)
    EXPORT(K_ACQUIRE) EXPORT(K_RELEASE)
    EXPORT(STOP_DEADLOCK) EXPORT(STOP_WATCHDOG) EXPORT(STOP_CYCLE_LIMIT)
    EXPORT(U_MEM_SLEEPERS) EXPORT(U_NONMEM_SLEEPERS) EXPORT(U_BARRIER)
    EXPORT(U_ACQUIRE)
    EXPORT(M_IN_FLIGHT_TOTAL) EXPORT(M_NEXT_RETIRE) EXPORT(M_LOADS_ISSUED)
    EXPORT(M_L1_HITS)
    EXPORT(RFV_POOL_FREE) EXPORT(RFV_RESERVE_HOLDER) EXPORT(RFV_PEAK_POOL_USE)
    EXPORT(RFV_POOL_CAPACITY) EXPORT(RFV_NEXT_ORDER)
#undef EXPORT
    if (PyModule_AddIntConstant(m, "NATIVE_ABI", 7) < 0
        || PyModule_AddStringConstant(m, "SOURCE_DIGEST",
                                      REPRO_NATIVE_SOURCE_DIGEST) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
