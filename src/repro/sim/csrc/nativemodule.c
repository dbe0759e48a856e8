/* nativemodule.c — the C loop of the columnar issue engine.
 *
 * repro.sim.sm runs every columnar run() through this module.  An SM
 * is columnar only when repro.sim.native finds a binary built from this
 * source (building one on first use in a checkout) that passes the ABI
 * check; otherwise it is built on the scan reference stepper instead.
 *
 * The loop drives the columnar store of repro.sim.columnar and operates
 * on the *same* Python objects: the ColumnarCore column lists, the
 * per-unit ready/sleeper/far structures, the scheduler and technique
 * objects.  No state is mirrored into C between cycles — every list,
 * dict and counter is mutated in place through the CPython API, so
 * views, checkpoints, hooks and the sanitizer observe the state the
 * scan stepper's schedule implies at every observation point.
 *
 * Python is re-entered only at the scan stepper's hook points:
 * technique can_issue/on_issue/try_acquire/release/wakeup_pending,
 * sanitizer + observer strides (on_cycle every cycle while one is
 * attached), CTA barrier arrival and EXIT commit, the memory model's
 * earliest_completion, checkpoint emission.  Everything else
 * (qualification in launch order, scoreboard pending-maxima, the stock
 * MemoryModel's issue_load/retire, sleeper fast-forward, stall
 * attribution) runs as plain C over unboxed longs.  sm.py calls in only
 * with a stock MemoryModel and raises TypeError for any other.
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

#define TRIP_NONE LONG_MIN
#define U64_MASK 0xFFFFFFFFFFFFFFFFULL

/* ---- interned attribute names -------------------------------------- */
static PyObject *S_state, *S_warp_id, *S_slot, *S_cta_id, *S_status,
    *S_issued_count, *S_greedy, *S_last_id, *S_barrier_count,
    *S_acquire_count, *S_mem_sleepers, *S_nonmem_sleepers,
    *S_next_retire, *S_in_flight_total, *S_instructions_issued,
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
    *S_ctas_by_id, *S_columnar_on_exit, *S_save_checkpoint, *S_config,
    *S_issue_width_per_scheduler, *S_watchdog_window,
    *S_max_in_flight, *S_on_issue, *S_on_cycle, *S_on_fast_forward,
    *S_on_checkpoint, *S_on_run_end, *S_wakeup_pending, *S_try_acquire,
    *S_release,
    *S_on_acquire_wake, *S_on_barrier_release, *S_READY_attr,
    *S_WAITING_ACQUIRE_attr, *S_in_flight_d, *S_rng_a, *S_loads_issued,
    *S_l1_hits, *S_l1_hit_latency, *S_dram_latency, *S_l1_hit_rate,
    *S_mod_warp, *S_mod_sm, *S_WarpStatus, *S_EXPIRE_PERIOD,
    *S_EAGER_RETRY_BACKOFF, *S_MEMORY_STALL_HORIZON;

/* ---- small helpers -------------------------------------------------- */

static inline long
lget(PyObject *list, Py_ssize_t i)
{
    return PyLong_AsLong(PyList_GET_ITEM(list, i));
}

static inline int
lset(PyObject *list, Py_ssize_t i, long v)
{
    PyObject *o = PyLong_FromLong(v);
    if (o == NULL)
        return -1;
    return PyList_SetItem(list, i, o);
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
    long kind;
} UnitC;

typedef struct {
    PyObject *sm;
    PyObject *core, *hot;
    PyObject *pc_col, *wake_col, *status_col, *stall_col, *qstate_col,
        *dyn_col, *views, *kcs, *rngs, *trips, *sb_rows, *sb_max, *sb_heap;
    PyObject *memory, *mem_earliest, *mem_rng, *mem_in_flight;
    PyObject *tech, *tech_can_issue, *tech_on_issue, *tech_wakeup,
        *tech_try_acquire, *tech_release;
    PyObject *san_on_issue, *san_on_cycle;       /* NULL: no sanitizer */
    PyObject *observer;                          /* NULL: no observer */
    PyObject *obs_on_cycle, *obs_on_fast_forward, *obs_on_checkpoint,
        *obs_on_run_end;
    PyObject *stats, *resident_ctas, *ctas_by_id, *wid2slot;
    PyObject *columnar_on_exit, *save_checkpoint, *checkpoint_sink;
    PyObject *status_ready, *status_waiting_acquire; /* WarpStatus members */
    PyObject *on_acquire_wake, *on_barrier_release;
    PyObject *cyc_obj;                           /* PyLong of cycle */
    long issue_width, window, mem_cap, num_sched;
    long l1_lat, dram_lat, shared_lat;
    double l1_rate;
    int multi_issue, tail_hooks, tech_wakeups;
    long expire_period, eager_backoff, horizon;
    UnitC *units;
    int nunits;
    KCache *kcaches;
    int nkc, kccap;
    PyObject **slot_kc_obj;
    KCache **slot_kc;
    Py_ssize_t slot_cap;
    long d_issued, d_idle, d_mem, d_bar, d_sb, d_acq, d_res;
    long cycle, last_progress;
    /* Mirror of sm._resident_warp_count: only CTA retire/launch (the
     * _columnar_on_exit path) changes it mid-run, so it is re-read
     * after every on-exit call instead of every cycle. */
    long resident_cnt;
} RunState;

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
    Py_XDECREF(S->obs_on_fast_forward); Py_XDECREF(S->obs_on_checkpoint);
    Py_XDECREF(S->obs_on_run_end);
    Py_XDECREF(S->stats); Py_XDECREF(S->resident_ctas);
    Py_XDECREF(S->ctas_by_id); Py_XDECREF(S->wid2slot);
    Py_XDECREF(S->columnar_on_exit); Py_XDECREF(S->save_checkpoint);
    Py_XDECREF(S->status_ready); Py_XDECREF(S->status_waiting_acquire);
    Py_XDECREF(S->on_acquire_wake); Py_XDECREF(S->on_barrier_release);
    Py_XDECREF(S->cyc_obj);
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

/* C transliteration of MemoryModel.issue_load.  Counters, the in-flight
 * multiset, and the rng stream position all live in the Python object
 * and are updated eagerly (not deferred to a flush), so any hook that
 * inspects the memory model mid-run sees what MemoryModel.issue_load
 * would have written. */
static int
mem_issue_load_c(RunState *S, long cycle, int shared, long *ready)
{
    if (shared) {
        *ready = cycle + S->shared_lat;
        return 0;
    }
    int err = 0;
    long total = get_long_attr(S->memory, S_in_flight_total, &err);
    if (err)
        return -1;
    if (total >= S->mem_cap) {
        PyErr_SetString(PyExc_RuntimeError,
                        "memory model saturated; call can_accept first");
        return -1;
    }
    if (add_long_attr(S->memory, S_loads_issued, 1) < 0)
        return -1;
    double u;
    if (rng_uniform(S->mem_rng, &u) < 0)
        return -1;
    long latency;
    if (u < S->l1_rate) {
        if (add_long_attr(S->memory, S_l1_hits, 1) < 0)
            return -1;
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
    if (set_long_attr(S->memory, S_in_flight_total, total + 1) < 0)
        return -1;
    PyObject *nxt = PyObject_GetAttr(S->memory, S_next_retire);
    if (nxt == NULL)
        return -1;
    int update = (nxt == Py_None);
    if (!update) {
        long cached = PyLong_AsLong(nxt);
        if (cached == -1 && PyErr_Occurred()) {
            Py_DECREF(nxt);
            return -1;
        }
        update = done < cached;
    }
    Py_DECREF(nxt);
    if (update && set_long_attr(S->memory, S_next_retire, done) < 0)
        return -1;
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
    long removed = 0, newmin = 0;
    int have_min = 0, ok = 0;
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
        else if (!have_min || c < newmin) {
            have_min = 1;
            newmin = c;
        }
    }
    for (Py_ssize_t i = 0; i < ndue; i++)
        if (PyDict_DelItem(dict, due[i]) < 0)
            goto done;
    if (removed) {
        int err = 0;
        long total = get_long_attr(S->memory, S_in_flight_total, &err);
        if (err)
            goto done;
        if (set_long_attr(S->memory, S_in_flight_total, total - removed) < 0)
            goto done;
    }
    if (have_min) {
        if (set_long_attr(S->memory, S_next_retire, newmin) < 0)
            goto done;
    }
    else if (PyObject_SetAttr(S->memory, S_next_retire, Py_None) < 0)
        goto done;
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
runstate_setup(RunState *S, PyObject *sm, PyObject *sink,
               PyObject *can_issue, PyObject *on_issue, int wakeups)
{
    int err = 0;
    S->sm = sm;
    S->checkpoint_sink = (sink == Py_None) ? NULL : sink;
    S->tech_can_issue = (can_issue == Py_None) ? NULL : can_issue;
    S->tech_on_issue = (on_issue == Py_None) ? NULL : on_issue;
    S->tech_wakeups = wakeups;

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
     * ColumnarCore mutates these lists in place, never rebinds them. */
    S->pc_col = PyTuple_GET_ITEM(S->hot, 0);
    S->wake_col = PyTuple_GET_ITEM(S->hot, 1);
    S->status_col = PyTuple_GET_ITEM(S->hot, 2);
    S->stall_col = PyTuple_GET_ITEM(S->hot, 3);
    S->qstate_col = PyTuple_GET_ITEM(S->hot, 4);
    S->dyn_col = PyTuple_GET_ITEM(S->hot, 5);
    S->views = PyTuple_GET_ITEM(S->hot, 6);
    S->kcs = PyTuple_GET_ITEM(S->hot, 7);
    S->rngs = PyTuple_GET_ITEM(S->hot, 8);
    S->trips = PyTuple_GET_ITEM(S->hot, 9);
    S->sb_rows = PyTuple_GET_ITEM(S->hot, 10);
    S->sb_max = PyTuple_GET_ITEM(S->hot, 11);
    S->sb_heap = PyTuple_GET_ITEM(S->hot, 12);

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
     * those two is exact.  State (counters, the in-flight multiset, the
     * rng stream) stays in the Python object and is updated eagerly, so
     * hooks and checkpoints see what the Python methods would write. */
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
        S->obs_on_fast_forward =
            PyObject_GetAttr(S->observer, S_on_fast_forward);
        S->obs_on_checkpoint =
            PyObject_GetAttr(S->observer, S_on_checkpoint);
        S->obs_on_run_end = PyObject_GetAttr(S->observer, S_on_run_end);
        if (!S->obs_on_cycle || !S->obs_on_fast_forward
            || !S->obs_on_checkpoint || !S->obs_on_run_end)
            return -1;
    }

    S->stats = PyObject_GetAttr(sm, S_stats);
    S->resident_ctas = PyObject_GetAttr(sm, S_resident_ctas);
    S->ctas_by_id = PyObject_GetAttr(sm, S_ctas_by_id);
    S->columnar_on_exit = PyObject_GetAttr(sm, S_columnar_on_exit);
    S->save_checkpoint = PyObject_GetAttr(sm, S_save_checkpoint);
    if (!S->stats || !S->resident_ctas || !S->ctas_by_id
        || !S->columnar_on_exit || !S->save_checkpoint)
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
    S->slot_kc_obj = PyMem_Calloc(S->slot_cap ? S->slot_cap : 1,
                                  sizeof(PyObject *));
    S->slot_kc = PyMem_Calloc(S->slot_cap ? S->slot_cap : 1,
                              sizeof(KCache *));
    if (S->slot_kc_obj == NULL || S->slot_kc == NULL) {
        PyErr_NoMemory();
        return -1;
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
    if (is_mem) {
        if (add_long_attr(u->unit, S_mem_sleepers, 1) < 0)
            return -1;
    }
    else {
        if (add_long_attr(u->unit, S_nonmem_sleepers, 1) < 0)
            return -1;
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
    PyObject *row = PyList_GET_ITEM(S->sb_rows, slot);
    for (Py_ssize_t j = kc->dsts_off[pc]; j < kc->dsts_off[pc + 1]; j++) {
        long reg = kc->dsts_data[j];
        if (done > lget(row, reg)) {
            if (lset(row, reg, done) < 0)
                return -1;
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
            if (done > lget(S->sb_max, slot)
                && lset(S->sb_max, slot, done) < 0)
                return -1;
        }
    }
    return 0;
}

static inline int
advance_pc(RunState *S, long slot, long newpc)
{
    if (lset(S->pc_col, slot, newpc) < 0)
        return -1;
    return lset(S->dyn_col, slot, lget(S->dyn_col, slot) + 1);
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
            if (is_mem < 0
                || add_long_attr(u->unit,
                                 is_mem ? S_mem_sleepers : S_nonmem_sleepers,
                                 -1) < 0) {
                Py_DECREF(t);
                return -1;
            }
            long slot = PyLong_AsLong(slot_o);
            if (lset(S->qstate_col, slot, QS_READY) < 0) {
                Py_DECREF(t);
                return -1;
            }
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
        long barrier_count = get_long_attr(u->unit, S_barrier_count, &err);
        if (err)
            return -1;
        long acquire_count = get_long_attr(u->unit, S_acquire_count, &err);
        if (err)
            return -1;
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
                long slot = PyLong_AsLong(PyTuple_GET_ITEM(item, 1));
                KCache *kc = slot_kcache(S, slot);
                if (kc == NULL)
                    goto item_fail;
                long pc = lget(S->pc_col, slot);
                int sb_ok;
                long latest = 0;
                long sbm = lget(S->sb_max, slot);
                if (sbm <= cycle)
                    sb_ok = 1;
                else if (lget(S->stall_col, slot) == SL_SCOREBOARD) {
                    latest = lget(S->wake_col, slot);
                    sb_ok = latest <= cycle;
                }
                else {
                    latest = cycle;
                    PyObject *row = PyList_GET_ITEM(S->sb_rows, slot);
                    for (Py_ssize_t j = kc->regs_off[pc];
                         j < kc->regs_off[pc + 1]; j++) {
                        long r = lget(row, kc->regs_data[j]);
                        if (r > latest)
                            latest = r;
                    }
                    sb_ok = latest <= cycle;
                }
                int qualified = 0;
                if (!sb_ok) {
                    if (lset(S->stall_col, slot, SL_SCOREBOARD) < 0
                        || lset(S->wake_col, slot, latest) < 0)
                        goto item_fail;
                }
                else if (kc->kind[pc] >= K_LOAD
                         && kc->kind[pc] <= K_SHARED_LOAD) {
                    long inflight =
                        get_long_attr(S->memory, S_in_flight_total, &err);
                    if (err)
                        goto item_fail;
                    if (inflight >= S->mem_cap) {
                        if (lset(S->stall_col, slot, SL_MEMORY) < 0)
                            goto item_fail;
                        PyObject *done = PyObject_CallFunctionObjArgs(
                            S->mem_earliest, S->cyc_obj, NULL);
                        if (done == NULL)
                            goto item_fail;
                        if (done != Py_None) {
                            long dv = PyLong_AsLong(done);
                            Py_DECREF(done);
                            if ((dv == -1 && PyErr_Occurred())
                                || lset(S->wake_col, slot, dv) < 0)
                                goto item_fail;
                        }
                        else
                            Py_DECREF(done);
                    }
                    else
                        qualified = 1;
                }
                else
                    qualified = 1;
                if (qualified && S->tech_can_issue != NULL) {
                    PyObject *r = PyObject_CallFunctionObjArgs(
                        S->tech_can_issue, PyList_GET_ITEM(S->views, slot),
                        PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj, NULL);
                    if (r == NULL)
                        goto item_fail;
                    int ok = PyObject_IsTrue(r);
                    Py_DECREF(r);
                    if (ok < 0)
                        goto item_fail;
                    if (!ok) {
                        qualified = 0;
                        if (lset(S->stall_col, slot, SL_TECHNIQUE) < 0)
                            goto item_fail;
                    }
                }
                if (qualified) {
                    if (lset(S->stall_col, slot, SL_NONE) < 0
                        || PyList_Append(candidates, item) < 0
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
                long sc = lget(S->stall_col, slot);
                if (sc == SL_MEMORY)
                    qual_mem = 1;
                else if (lget(S->sb_max, slot) - cycle > S->horizon)
                    qual_mem = 1;
                else
                    qual_sb = 1;
                if (lget(S->status_col, slot) != ST_READY) {
                    if (lset(S->qstate_col, slot, QS_ACQUIRE) < 0
                        || add_long_attr(u->unit, S_acquire_count, 1) < 0)
                        goto item_fail;
                }
                else {
                    long wake = lget(S->wake_col, slot);
                    if (wake > cycle) {
                        if (lset(S->qstate_col, slot, QS_SLEEPING) < 0
                            || park_sleeper(S, u, cycle, wake,
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
                    PyObject *pick = PyObject_CallFunctionObjArgs(
                        u->sched_pick, vl, NULL);
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
                    long pc = lget(S->pc_col, slot);
                    long kind = kc->kind[pc];
                    view = PyList_GET_ITEM(S->views, slot);
                    Py_INCREF(view);
                    S->d_issued += 1;
                    if (S->tech_on_issue != NULL) {
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->tech_on_issue, view,
                            PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj,
                            NULL);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                    }
                    if (S->san_on_issue != NULL) {
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->san_on_issue, view,
                            PyTuple_GET_ITEM(kc->insts, pc), S->cyc_obj,
                            NULL);
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
                        if (sb_write(S, kc, pc, slot, wid_o, done) < 0
                            || advance_pc(S, slot, pc + 1) < 0)
                            goto pick_fail;
                        S->last_progress = cycle;
                    }
                    else if (kind == K_STORE) {
                        if (advance_pc(S, slot, pc + 1) < 0)
                            goto pick_fail;
                        S->last_progress = cycle;
                    }
                    else if (kind == K_JMP) {
                        if (advance_pc(S, slot, kc->tgt[pc]) < 0)
                            goto pick_fail;
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
                        if (advance_pc(S, slot, newpc) < 0)
                            goto pick_fail;
                        S->last_progress = cycle;
                    }
                    else if (kind == K_EXIT) {
                        /* CTA retire/launch hooks may read the shared
                         * counters: flush first. */
                        if (S->observer != NULL && flush_stats(S) < 0)
                            goto pick_fail;
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->columnar_on_exit, view, S->cyc_obj, NULL);
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
                        if (advance_pc(S, slot, pc + 1) < 0)
                            goto pick_fail;
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
                            PyObject *r2 = PyObject_CallFunctionObjArgs(
                                S->on_barrier_release, cta, NULL);
                            if (r2 == NULL) {
                                Py_DECREF(cta);
                                goto pick_fail;
                            }
                            Py_DECREF(r2);
                        }
                        Py_DECREF(cta);
                    }
                    else if (kind == K_ACQUIRE) {
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->tech_try_acquire, view, S->cyc_obj, NULL);
                        if (r == NULL)
                            goto pick_fail;
                        int got = PyObject_IsTrue(r);
                        Py_DECREF(r);
                        if (got < 0)
                            goto pick_fail;
                        if (got) {
                            if (advance_pc(S, slot, pc + 1) < 0)
                                goto pick_fail;
                            S->last_progress = cycle;
                        }
                        else if (lget(S->status_col, slot) == ST_READY) {
                            /* Eager retry backoff (see _execute). */
                            if (lset(S->wake_col, slot,
                                     cycle + S->eager_backoff) < 0)
                                goto pick_fail;
                        }
                    }
                    else { /* K_RELEASE */
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->tech_release, view, S->cyc_obj, NULL);
                        if (r == NULL)
                            goto pick_fail;
                        Py_DECREF(r);
                        if (advance_pc(S, slot, pc + 1) < 0)
                            goto pick_fail;
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
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            u->sched_notify, view, NULL);
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
                    if (!exited && lget(S->status_col, slot) == ST_READY
                        && lget(S->wake_col, slot) <= cycle) {
                        pc = lget(S->pc_col, slot);
                        int sb_ok;
                        long latest = 0;
                        if (lget(S->sb_max, slot) <= cycle)
                            sb_ok = 1;
                        else {
                            latest = cycle;
                            PyObject *row =
                                PyList_GET_ITEM(S->sb_rows, slot);
                            for (Py_ssize_t j = kc->regs_off[pc];
                                 j < kc->regs_off[pc + 1]; j++) {
                                long r = lget(row, kc->regs_data[j]);
                                if (r > latest)
                                    latest = r;
                            }
                            sb_ok = latest <= cycle;
                        }
                        int requal = 0;
                        if (!sb_ok) {
                            if (lset(S->stall_col, slot, SL_SCOREBOARD) < 0
                                || lset(S->wake_col, slot, latest) < 0)
                                goto pick_fail;
                        }
                        else if (kc->kind[pc] >= K_LOAD
                                 && kc->kind[pc] <= K_SHARED_LOAD) {
                            long inflight = get_long_attr(
                                S->memory, S_in_flight_total, &err);
                            if (err)
                                goto pick_fail;
                            if (inflight >= S->mem_cap) {
                                if (lset(S->stall_col, slot,
                                         SL_MEMORY) < 0)
                                    goto pick_fail;
                                PyObject *done =
                                    PyObject_CallFunctionObjArgs(
                                        S->mem_earliest, S->cyc_obj, NULL);
                                if (done == NULL)
                                    goto pick_fail;
                                if (done != Py_None) {
                                    long dv = PyLong_AsLong(done);
                                    Py_DECREF(done);
                                    if ((dv == -1 && PyErr_Occurred())
                                        || lset(S->wake_col, slot, dv) < 0)
                                        goto pick_fail;
                                }
                                else
                                    Py_DECREF(done);
                            }
                            else
                                requal = 1;
                        }
                        else
                            requal = 1;
                        if (requal && S->tech_can_issue != NULL) {
                            PyObject *r = PyObject_CallFunctionObjArgs(
                                S->tech_can_issue,
                                PyList_GET_ITEM(S->views, slot),
                                PyTuple_GET_ITEM(kc->insts, pc),
                                S->cyc_obj, NULL);
                            if (r == NULL)
                                goto pick_fail;
                            int ok = PyObject_IsTrue(r);
                            Py_DECREF(r);
                            if (ok < 0)
                                goto pick_fail;
                            if (!ok) {
                                requal = 0;
                                if (lset(S->stall_col, slot,
                                         SL_TECHNIQUE) < 0)
                                    goto pick_fail;
                            }
                        }
                        if (requal) {
                            if (lset(S->stall_col, slot, SL_NONE) < 0)
                                goto pick_fail;
                            if (S->multi_issue
                                && list_insort(candidates, chosen) < 0)
                                goto pick_fail;
                        }
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
                if (lget(S->qstate_col, slot) != QS_READY)
                    continue; /* finished or re-homed same-pass */
                long st = lget(S->status_col, slot);
                if (st == ST_READY) {
                    long wake = lget(S->wake_col, slot);
                    if (wake > cycle) { /* eager acquire backoff */
                        if (list_remove(ready, item) < 0
                            || lset(S->qstate_col, slot, QS_SLEEPING) < 0
                            || park_sleeper(
                                   S, u, cycle, wake,
                                   PyTuple_GET_ITEM(item, 0),
                                   PyTuple_GET_ITEM(item, 1),
                                   lget(S->stall_col, slot)
                                       == SL_MEMORY) < 0)
                            return -1;
                    }
                }
                else if (st == ST_BARRIER) {
                    if (list_remove(ready, item) < 0
                        || lset(S->qstate_col, slot, QS_BARRIER) < 0
                        || add_long_attr(u->unit, S_barrier_count, 1) < 0)
                        return -1;
                }
                else if (st == ST_ACQUIRE) {
                    if (list_remove(ready, item) < 0
                        || lset(S->qstate_col, slot, QS_ACQUIRE) < 0
                        || add_long_attr(u->unit, S_acquire_count, 1) < 0)
                        return -1;
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
                long ms = get_long_attr(u->unit, S_mem_sleepers, &err);
                if (err)
                    return -1;
                if (qual_mem || ms > 0 || far_n > 0)
                    S->d_mem += 1;
                else if (barrier_count)
                    S->d_bar += 1;
                else {
                    long nms =
                        get_long_attr(u->unit, S_nonmem_sleepers, &err);
                    if (err)
                        return -1;
                    if (qual_sb || nms > far_n)
                        S->d_sb += 1;
                }
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
    PyObject *sm, *sink, *can_issue, *on_issue;
    long max_cycles, interval;
    int wakeups;
    (void)self;
    if (!PyArg_ParseTuple(args, "OllOOOp", &sm, &max_cycles, &interval,
                          &sink, &can_issue, &on_issue, &wakeups))
        return NULL;
    RunState St;
    memset(&St, 0, sizeof(St));
    RunState *S = &St;
    if (runstate_setup(S, sm, sink, can_issue, on_issue, wakeups) < 0) {
        runstate_free(S);
        return NULL;
    }
    long next_expire =
        S->cycle - (S->cycle % S->expire_period) + S->expire_period;
    long next_ckpt = -1;
    if (interval && S->checkpoint_sink != NULL)
        next_ckpt = S->cycle + interval;
    long status = 0;

    for (;;) {
        long cycle = S->cycle + 1;
        if (set_cycle(S, cycle) < 0)
            goto fail;
        long issued_this = 0;
        {
            PyObject *nxt = PyObject_GetAttr(S->memory, S_next_retire);
            if (nxt == NULL)
                goto fail;
            if (nxt != Py_None) {
                long nv = PyLong_AsLong(nxt);
                Py_DECREF(nxt);
                if (nv == -1 && PyErr_Occurred())
                    goto fail;
                if (nv <= cycle && mem_retire_c(S, cycle) < 0)
                    goto fail;
            }
            else
                Py_DECREF(nxt);
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
        if (S->tech_wakeups) {
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
                PyObject *r = PyObject_CallFunctionObjArgs(
                    S->san_on_cycle, sm, NULL);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
            }
            if (S->observer != NULL) {
                PyObject *r = PyObject_CallFunctionObjArgs(
                    S->obs_on_cycle, sm, NULL);
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
                            if (lget(PyList_GET_ITEM(S->sb_rows, hslot),
                                     hreg) == ready_at) {
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
                    PyObject *mt =
                        PyObject_GetAttr(S->memory, S_next_retire);
                    if (mt == NULL)
                        goto fail;
                    if (mt != Py_None) {
                        long mv = PyLong_AsLong(mt);
                        if (mv == -1 && PyErr_Occurred()) {
                            Py_DECREF(mt);
                            goto fail;
                        }
                        if (!has_target || mv < target) {
                            target = mv;
                            has_target = 1;
                        }
                    }
                    Py_DECREF(mt);
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
                    if (S->observer != NULL) {
                        if (flush_stats(S) < 0)
                            goto fail;
                        PyObject *sk = PyLong_FromLong(skip);
                        if (sk == NULL)
                            goto fail;
                        PyObject *r = PyObject_CallFunctionObjArgs(
                            S->obs_on_fast_forward, sm, sk, NULL);
                        Py_DECREF(sk);
                        if (r == NULL)
                            goto fail;
                        Py_DECREF(r);
                    }
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
        if (next_ckpt >= 0 && cycle >= next_ckpt) {
            next_ckpt = cycle + interval;
            /* The snapshot reads SmStats and _last_progress_cycle:
             * flush first (timing-neutral). */
            if (flush_stats(S) < 0)
                goto fail;
            PyObject *ck = PyObject_CallNoArgs(S->save_checkpoint);
            if (ck == NULL)
                goto fail;
            PyObject *r = PyObject_CallFunctionObjArgs(
                S->checkpoint_sink, ck, NULL);
            Py_DECREF(ck);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            if (S->observer != NULL) {
                PyObject *r2 = PyObject_CallFunctionObjArgs(
                    S->obs_on_checkpoint, sm, S->cyc_obj, NULL);
                if (r2 == NULL)
                    goto fail;
                Py_DECREF(r2);
            }
        }
    }

    if (status == 0) {
        if (flush_stats(S) < 0)
            goto fail;
        if (set_long_attr(S->stats, S_cycles, S->cycle) < 0)
            goto fail;
        if (S->observer != NULL) {
            PyObject *r = PyObject_CallFunctionObjArgs(
                S->obs_on_run_end, sm, NULL);
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
     "run_columnar(sm, max_cycles, checkpoint_interval, checkpoint_sink,"
     " can_issue, on_issue, wakeups) -> (status, aux)\n\n"
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
    IN(S_loads_issued, "loads_issued");
    IN(S_l1_hits, "l1_hits");
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
    IN(S_barrier_count, "barrier_count");
    IN(S_acquire_count, "acquire_count");
    IN(S_mem_sleepers, "mem_sleepers");
    IN(S_nonmem_sleepers, "nonmem_sleepers");
    IN(S_next_retire, "_next_retire");
    IN(S_in_flight_total, "_in_flight_total");
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
    IN(S_save_checkpoint, "save_checkpoint");
    IN(S_config, "config");
    IN(S_issue_width_per_scheduler, "issue_width_per_scheduler");
    IN(S_watchdog_window, "watchdog_window");
    IN(S_max_in_flight, "_max_in_flight");
    IN(S_on_issue, "on_issue");
    IN(S_on_cycle, "on_cycle");
    IN(S_on_fast_forward, "on_fast_forward");
    IN(S_on_checkpoint, "on_checkpoint");
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
#undef EXPORT
    if (PyModule_AddIntConstant(m, "NATIVE_ABI", 4) < 0
        || PyModule_AddStringConstant(m, "SOURCE_DIGEST",
                                      REPRO_NATIVE_SOURCE_DIGEST) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
