/* Native engine core: the heap drain loop plus the CFS slice-expiry
 * chain, compiled to machine code.
 *
 * This library is the C twin of two pieces of Python:
 *
 *   repro/sim/engine.py   Engine._drain  (single=False)
 *   repro/sched/core.py   CoreSim._on_core_event -> _charge_current ->
 *                         _redispatch (-> _put_back_current +
 *                         _dispatch_next + _start), with
 *                         effective_rate, _run_duration and
 *                         Engine.schedule inlined
 *
 * It operates directly on the live Python objects (the engine's
 * ``(time, seq, event)`` heap, the run queue's entry heaps, Task
 * attribute dicts) through the CPython C-API, performing the
 * *identical sequence of operations* -- every float add/mul/div, every
 * heap sift, every counter bump appears in the same order with the
 * same operands as the Python source.  IEEE-754 doubles are what
 * Python floats are, so the results are bit-identical and the golden
 * run digests hold across backends.  When editing either Python twin,
 * mirror the change here; the digest-parity suite will catch a miss.
 *
 * Division of labour: C owns the hot straight line (event pop, charge
 * arithmetic, requeue, pick-next, rate/slice math, event re-schedule);
 * Python keeps everything stateful-rare (observers, tracing, balancer
 * idle hooks, program advance, barrier spin-timeouts) via call-outs,
 * and cores with a non-CFS slice policy or the O(1) run queue run the
 * Python method whole.  There is exactly ONE ctypes boundary crossing
 * per engine run -- repro_drain -- because a per-event ctypes call
 * would cost more than the interpreted loop it replaces.
 *
 * The heap routines transcribe heapq's _siftdown/_siftup verbatim so
 * list layouts (not just pop order) match the Python side, which
 * keeps pushing onto the same lists between C dispatches.
 *
 * Loaded with ctypes.PyDLL (GIL held; error flag checked per call) by
 * repro.sim.backends.nativebuild.  No Python.h-level module object is
 * involved: repro_native_init receives a dict of support objects
 * (exception class, Event class, enum members, interned constants)
 * and the two entry points take plain PyObject pointers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h> /* completes PyMemberDef for slot offsets */
#include <math.h>

/* ------------------------------------------------------------------ */
/* interned attribute names                                            */
/* ------------------------------------------------------------------ */

#define ATTR_NAMES(X)                                                       \
    /* engine (and run queue: both keep a ``_heap``) */                     \
    X(now) X(_heap) X(_cancelled) X(_dispatched) X(max_events)              \
    X(_stop_requested) X(observers) X(_seq)                                 \
    /* event */                                                             \
    X(callback) X(payload) X(cancelled) X(in_heap) X(label) X(engine)       \
    /* core */                                                              \
    X(_gen) X(current) X(system) X(rq) X(params) X(dispatch_started_at)     \
    X(stats) X(_rate_at_dispatch) X(_event) X(_event_label) X(_in_resched)  \
    X(_mem_busy) X(_mem_track) X(_mem_alpha) X(_clock_factor)               \
    X(_smt_active) X(_smt_derate) X(_sib_core) X(_numa) X(_numa_node)       \
    X(_numa_remote_slowdown) X(hw) X(cid) X(yield_check_us) X(throttled)    \
    /* task */                                                              \
    X(tid) X(name) X(weight) X(vruntime) X(exec_us) X(compute_us)           \
    X(work_remaining) X(migration_debt_us) X(waiting_on) X(wait_mode)       \
    X(spin_deadline) X(state) X(needs_advance) X(mem_intensity)             \
    X(home_node) X(last_descheduled_at) X(last_core) X(cur_core)            \
    /* run queue */                                                         \
    X(_live) X(_max_heap) X(_total_weight) X(count) X(min_vruntime)         \
    /* stats */                                                             \
    X(busy_us) X(spin_us) X(context_switches) X(dispatches)                 \
    /* system */                                                            \
    X(trace) X(_kb_on_charge) X(charge_observers) X(cores)                  \
    /* params */                                                            \
    X(min_granularity) X(target_latency) X(yield_penalty)                   \
    /* topology */                                                          \
    X(smt_sibling)                                                          \
    /* methods */                                                           \
    X(_prepare) X(_go_idle) X(_dispatch_next) X(_mem_note_off)              \
    X(_notify_sibling_rate_change) X(note_residency) X(spin_timeout)        \
    X(record)

typedef struct {
    /* support objects (owned references, held for process lifetime) */
    PyObject *SimulationError;
    PyObject *EventClass;
    PyObject *core_event;    /* CoreSim._on_core_event, the function */
    PyObject *CfsParams;     /* the class; exact-type gate for slice math */
    PyObject *CfsRunQueue;   /* the class; exact-type gate for queue ops */
    PyObject *st_running;    /* TaskState.RUNNING */
    PyObject *st_runnable;   /* TaskState.RUNNABLE */
    PyObject *wm_yield;      /* WaitMode.YIELD */
    PyObject *entry_counter; /* runqueue._entry_counter (itertools.count) */
    PyObject *str_wait;      /* "wait" */
    PyObject *str_run;       /* "run" */
    double work_eps;
    double nice0;            /* float(NICE_0_WEIGHT) */
#define X(n) PyObject *n_##n;
    ATTR_NAMES(X)
#undef X
} support_t;

static support_t S;
static int S_ready = 0;

/* process-lifetime dispatch counters, readable via repro_native_stat:
 * how many events ran through the C twin of the core event, the
 * generic Python call, or were handed back to CoreSim._on_core_event
 * (non-CFS params).  The
 * test suite uses these to prove the fast path is actually exercised
 * rather than silently falling back. */
static long long stat_fused = 0;
static long long stat_generic = 0;
static long long stat_delegated = 0;

/* ------------------------------------------------------------------ */
/* small attribute helpers                                             */
/* ------------------------------------------------------------------ */

/* new reference, or NULL with error set */
static inline PyObject *aget(PyObject *o, PyObject *name) {
    return PyObject_GetAttr(o, name);
}

static int aget_ll(PyObject *o, PyObject *name, long long *out) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int aget_dbl(PyObject *o, PyObject *name, double *out) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    double r;
    if (PyFloat_CheckExact(v)) {
        r = PyFloat_AS_DOUBLE(v);
    } else {
        r = PyFloat_AsDouble(v);
        if (r == -1.0 && PyErr_Occurred()) { Py_DECREF(v); return -1; }
    }
    Py_DECREF(v);
    *out = r;
    return 0;
}

/* truthiness of attribute: 1/0, or -1 with error set */
static int atrue(PyObject *o, PyObject *name) {
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL) return -1;
    int rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

/* ------------------------------------------------------------------ */
/* fast attribute access                                               */
/*                                                                     */
/* Generic PyObject_GetAttr costs as much as the 3.11 specializing     */
/* interpreter's LOAD_ATTR, which is why a naive C transcription of    */
/* the dispatch chain runs no faster than the bytecode it replaces.   */
/* All hot classes except Event are plain-__dict__ classes with no data */
/* descriptors on the touched names, so we materialize each object's   */
/* instance dict once (PyObject_GenericGetDict) and then read/write    */
/* through PyDict_* with pre-interned keys.  Event has __slots__; its  */
/* member offsets are resolved from the slot descriptors at init and   */
/* accessed as direct struct loads.                                    */
/* ------------------------------------------------------------------ */

/* instance __dict__ of a plain-class object, materialized once; new
 * reference (attribute writes from either side stay visible: it IS the
 * object's dict) */
static inline PyObject *idict(PyObject *o) {
    return PyObject_GenericGetDict(o, NULL);
}

/* new-ref read through the instance dict; falls back to real getattr
 * for names satisfied by the class (bound methods, defaults) */
static PyObject *dget(PyObject *d, PyObject *o, PyObject *name) {
    PyObject *v = PyDict_GetItemWithError(d, name);
    if (v != NULL) {
        Py_INCREF(v);
        return v;
    }
    if (PyErr_Occurred()) return NULL;
    return PyObject_GetAttr(o, name);
}

static int dget_ll(PyObject *d, PyObject *o, PyObject *name,
                   long long *out) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return aget_ll(o, name, out);
    }
    long long r = PyLong_AsLongLong(v);
    if (r == -1 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

static int dget_dbl(PyObject *d, PyObject *o, PyObject *name, double *out) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return aget_dbl(o, name, out);
    }
    if (PyFloat_CheckExact(v)) {
        *out = PyFloat_AS_DOUBLE(v);
        return 0;
    }
    double r = PyFloat_AsDouble(v);
    if (r == -1.0 && PyErr_Occurred()) return -1;
    *out = r;
    return 0;
}

/* writes go straight into the instance dict: equivalent to setattr for
 * plain classes (asserted at init: no slots, no data descriptors) */
static inline int dset(PyObject *d, PyObject *name, PyObject *v) {
    return PyDict_SetItem(d, name, v);
}

static int dset_ll(PyObject *d, PyObject *name, long long v) {
    PyObject *obj = PyLong_FromLongLong(v);
    if (obj == NULL) return -1;
    int rc = PyDict_SetItem(d, name, obj);
    Py_DECREF(obj);
    return rc;
}

static int dset_dbl(PyObject *d, PyObject *name, double v) {
    PyObject *obj = PyFloat_FromDouble(v);
    if (obj == NULL) return -1;
    int rc = PyDict_SetItem(d, name, obj);
    Py_DECREF(obj);
    return rc;
}

static int dadd_ll(PyObject *d, PyObject *o, PyObject *name,
                   long long delta) {
    long long v;
    if (dget_ll(d, o, name, &v) < 0) return -1;
    return dset_ll(d, name, v + delta);
}

static int dtrue(PyObject *d, PyObject *o, PyObject *name) {
    PyObject *v = PyDict_GetItemWithError(d, name); /* borrowed */
    if (v == NULL) {
        if (PyErr_Occurred()) return -1;
        return atrue(o, name);
    }
    if (v == Py_True) return 1;
    if (v == Py_False || v == Py_None) return 0;
    return PyObject_IsTrue(v);
}

/* ---- Event slot access ------------------------------------------- */

enum {
    EV_TIME,
    EV_SEQ,
    EV_CALLBACK,
    EV_CANCELLED,
    EV_LABEL,
    EV_ENGINE,
    EV_IN_HEAP,
    EV_PAYLOAD,
    EV_NSLOTS
};

static Py_ssize_t ev_off[EV_NSLOTS];

#define EV_SLOT(ev, i) (*(PyObject **)((char *)(ev) + ev_off[i]))

/* new ref; subclassed/forged events fall back to real getattr */
static PyObject *ev_read(PyObject *ev, int i, PyObject *name) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *v = EV_SLOT(ev, i);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(ev, name);
}

/* truthiness of an Event flag slot (cancelled / in_heap) */
static int ev_true(PyObject *ev, int i, PyObject *name) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *v = EV_SLOT(ev, i);
        if (v == Py_True) return 1;
        if (v == Py_False || v == Py_None) return 0;
        if (v != NULL) return PyObject_IsTrue(v);
    }
    return atrue(ev, name);
}

static int ev_write(PyObject *ev, int i, PyObject *name, PyObject *v) {
    if ((PyObject *)Py_TYPE(ev) == S.EventClass) {
        PyObject *old = EV_SLOT(ev, i);
        Py_INCREF(v);
        EV_SLOT(ev, i) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(ev, name, v);
}

/* Event(time, seq, cb, label, engine, payload) without the Python
 * __init__ frame: allocate and fill the slots directly.  Mirrors
 * Event.__init__ exactly -- cancelled=False, in_heap=True (engine is
 * always non-None on this path). */
static PyObject *event_new(PyObject *time_obj, long long seq_ll,
                           PyObject *cb, PyObject *label, PyObject *engine,
                           PyObject *payload) {
    PyTypeObject *tp = (PyTypeObject *)S.EventClass;
    PyObject *ev = tp->tp_alloc(tp, 0);
    if (ev == NULL) return NULL;
    PyObject *seq = PyLong_FromLongLong(seq_ll);
    if (seq == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    Py_INCREF(time_obj);
    EV_SLOT(ev, EV_TIME) = time_obj;
    EV_SLOT(ev, EV_SEQ) = seq; /* fresh ref moved into the slot */
    Py_INCREF(cb);
    EV_SLOT(ev, EV_CALLBACK) = cb;
    Py_INCREF(Py_False);
    EV_SLOT(ev, EV_CANCELLED) = Py_False;
    Py_INCREF(label);
    EV_SLOT(ev, EV_LABEL) = label;
    Py_INCREF(engine);
    EV_SLOT(ev, EV_ENGINE) = engine;
    Py_INCREF(Py_True);
    EV_SLOT(ev, EV_IN_HEAP) = Py_True;
    Py_INCREF(payload);
    EV_SLOT(ev, EV_PAYLOAD) = payload;
    return ev;
}

/* ------------------------------------------------------------------ */
/* heapq transcription (identical layouts to Lib/heapq.py)             */
/* ------------------------------------------------------------------ */

/* x < y and x == y for one tuple key (a float vruntime or an int
 * time/counter); returns 0, or -1 when the types need the generic
 * comparison */
static int key_cmp(PyObject *x, PyObject *y, int *lt, int *eq) {
    if (PyFloat_CheckExact(x) && PyFloat_CheckExact(y)) {
        double dx = PyFloat_AS_DOUBLE(x), dy = PyFloat_AS_DOUBLE(y);
        *lt = dx < dy;
        *eq = dx == dy;
        return 0;
    }
    if (PyLong_CheckExact(x) && PyLong_CheckExact(y)) {
        int ox, oy;
        long long lx = PyLong_AsLongLongAndOverflow(x, &ox);
        long long ly = PyLong_AsLongLongAndOverflow(y, &oy);
        if (ox || oy) return -1;
        *lt = lx < ly;
        *eq = lx == ly;
        return 0;
    }
    return -1;
}

/* a < b for the heap entries this library sifts: the engine's
 * (time, seq, event) triples and the run queue's (vruntime, counter,
 * task) / (-vruntime, -counter, entry) triples.  Second elements are
 * unique, so the comparison -- like Python's tuple order -- never
 * reaches the third. */
static int lt_entry(PyObject *a, PyObject *b) {
    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b) &&
        PyTuple_GET_SIZE(a) >= 2 && PyTuple_GET_SIZE(b) >= 2) {
        int lt, eq;
        if (key_cmp(PyTuple_GET_ITEM(a, 0), PyTuple_GET_ITEM(b, 0),
                    &lt, &eq) == 0) {
            if (!eq) return lt;
            if (key_cmp(PyTuple_GET_ITEM(a, 1), PyTuple_GET_ITEM(b, 1),
                        &lt, &eq) == 0 && !eq)
                return lt;
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* heapq._siftdown(heap, startpos, pos) */
static int siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos) {
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int cmp = lt_entry(newitem, parent);
        if (cmp < 0) { Py_DECREF(newitem); return -1; }
        if (!cmp) break;
        Py_INCREF(parent);
        if (PyList_SetItem(heap, pos, parent) < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        pos = parentpos;
    }
    return PyList_SetItem(heap, pos, newitem);
}

/* heapq._siftup(heap, pos): bubble the hole to a leaf, then siftdown */
static int siftup(PyObject *heap, Py_ssize_t pos) {
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int cmp = lt_entry(PyList_GET_ITEM(heap, childpos),
                         PyList_GET_ITEM(heap, rightpos));
            if (cmp < 0) { Py_DECREF(newitem); return -1; }
            if (!cmp) childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        if (PyList_SetItem(heap, pos, child) < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    if (PyList_SetItem(heap, pos, newitem) < 0) return -1;
    return siftdown(heap, startpos, pos);
}

static int heappush_c(PyObject *heap, PyObject *item) {
    if (PyList_Append(heap, item) < 0) return -1;
    return siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* new reference, or NULL with error set; heap must be non-empty */
static PyObject *heappop_c(PyObject *heap) {
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (n == 1) return lastelt;
    PyObject *returnitem = PyList_GET_ITEM(heap, 0);
    Py_INCREF(returnitem);
    if (PyList_SetItem(heap, 0, lastelt) < 0) { /* steals lastelt */
        Py_DECREF(returnitem);
        return NULL;
    }
    if (siftup(heap, 0) < 0) {
        Py_DECREF(returnitem);
        return NULL;
    }
    return returnitem;
}

/* ------------------------------------------------------------------ */
/* the mem-contention scope index: a sorted list of (cid, intensity)   */
/* ------------------------------------------------------------------ */

/* bisect_left(mem_busy, (cid, 0.0)): intensities are strictly
 * positive, so the probe orders purely on cid */
static Py_ssize_t mem_bisect_left(PyObject *mem_busy, long long cid) {
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(mem_busy);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        PyObject *entry = PyList_GET_ITEM(mem_busy, mid);
        long long c = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
        if (c < cid)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* del mem_busy[bisect_left(mem_busy, (cid, 0.0))] */
static int mem_remove(PyObject *mem_busy, long long cid) {
    Py_ssize_t idx = mem_bisect_left(mem_busy, cid);
    return PyList_SetSlice(mem_busy, idx, idx + 1, NULL);
}

/* insort(mem_busy, (cid, intensity)): cid is absent, so bisect_right
 * also orders purely on cid */
static int mem_insort(PyObject *mem_busy, long long cid, double intensity) {
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(mem_busy);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        PyObject *entry = PyList_GET_ITEM(mem_busy, mid);
        long long c = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
        if (cid < c)
            hi = mid;
        else
            lo = mid + 1;
    }
    PyObject *tup = Py_BuildValue("(Ld)", cid, intensity);
    if (tup == NULL) return -1;
    int rc = PyList_Insert(mem_busy, lo, tup);
    Py_DECREF(tup);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the core event (C twin of CoreSim._on_core_event and its callees)   */
/* ------------------------------------------------------------------ */

/* Returns 0 on success, -1 with a Python error set.  ``now`` is the
 * event time (== engine.now), ``t_obj`` the live int object for it.
 * ``engine_d`` is the engine's instance dict and ``heap`` its
 * ``_heap`` list, both owned by the caller. */
static int core_event(PyObject *core, PyObject *gen_obj, PyObject *engine,
                      PyObject *engine_d, PyObject *heap, PyObject *t_obj,
                      long long now) {
    long long gen = PyLong_AsLongLong(gen_obj);
    if (gen == -1 && PyErr_Occurred()) return -1;

    PyObject *core_d = idict(core);
    if (core_d == NULL) return -1;

    long long self_gen;
    if (dget_ll(core_d, core, S.n__gen, &self_gen) < 0) {
        Py_DECREF(core_d);
        return -1;
    }
    if (gen != self_gen) { /* superseded */
        Py_DECREF(core_d);
        return 0;
    }

    PyObject *task = dget(core_d, core, S.n_current);
    if (task == NULL) { Py_DECREF(core_d); return -1; }
    if (task == Py_None) {
        Py_DECREF(task);
        Py_DECREF(core_d);
        return 0;
    }

    PyObject *params = NULL, *system = NULL, *rq = NULL, *stats = NULL;
    PyObject *mem_busy = NULL, *task_d = NULL, *system_d = NULL;
    PyObject *rq_d = NULL, *stats_d = NULL;
    int rc = -1;

    /* cores this twin does not replicate -- a non-CFS slice policy or
     * the O(1) run queue -- run the Python method instead (it repeats
     * the gen/current checks above, which is harmless) */
    params = dget(core_d, core, S.n_params);
    if (params == NULL) goto done;
    rq = dget(core_d, core, S.n_rq);
    if (rq == NULL) goto done;
    if ((PyObject *)Py_TYPE(params) != S.CfsParams ||
        (PyObject *)Py_TYPE(rq) != S.CfsRunQueue) {
        stat_delegated++;
        PyObject *r =
            PyObject_CallFunctionObjArgs(S.core_event, core, gen_obj, NULL);
        if (r != NULL) {
            Py_DECREF(r);
            rc = 0;
        }
        goto done;
    }

    task_d = idict(task);
    if (task_d == NULL) goto done;
    system = dget(core_d, core, S.n_system);
    if (system == NULL) goto done;
    system_d = idict(system);
    if (system_d == NULL) goto done;
    rq_d = idict(rq);
    if (rq_d == NULL) goto done;
    stats = dget(core_d, core, S.n_stats);
    if (stats == NULL) goto done;
    stats_d = idict(stats);
    if (stats_d == NULL) goto done;
    mem_busy = dget(core_d, core, S.n__mem_busy);
    if (mem_busy == NULL) goto done;

    long long cid;
    if (dget_ll(core_d, core, S.n_cid, &cid) < 0) goto done;

    /* ---- _charge_current ----------------------------------------- */
    long long dsa;
    if (dget_ll(core_d, core, S.n_dispatch_started_at, &dsa) < 0) goto done;
    long long dt = now - dsa;
    if (dt > 0) {
        if (dset(core_d, S.n_dispatch_started_at, t_obj) < 0) goto done;
        if (dadd_ll(task_d, task, S.n_exec_us, dt) < 0) goto done;
        PyObject *waiting_on = dget(task_d, task, S.n_waiting_on);
        if (waiting_on == NULL) goto done;
        int waiting = (waiting_on != Py_None);
        Py_DECREF(waiting_on);

        PyObject *trace = dget(system_d, system, S.n_trace);
        if (trace == NULL) goto done;
        if (trace != Py_None) {
            PyObject *tid = dget(task_d, task, S.n_tid);
            PyObject *name = tid ? dget(task_d, task, S.n_name) : NULL;
            PyObject *cid_obj = name ? PyLong_FromLongLong(cid) : NULL;
            PyObject *start = cid_obj ? PyLong_FromLongLong(now - dt) : NULL;
            PyObject *r = NULL;
            if (start != NULL)
                r = PyObject_CallMethodObjArgs(
                    trace, S.n_record, tid, name, cid_obj, start, t_obj,
                    waiting ? S.str_wait : S.str_run, NULL);
            Py_XDECREF(tid);
            Py_XDECREF(name);
            Py_XDECREF(cid_obj);
            Py_XDECREF(start);
            if (r == NULL) { Py_DECREF(trace); goto done; }
            Py_DECREF(r);
        }
        Py_DECREF(trace);

        long long weight;
        if (dget_ll(task_d, task, S.n_weight, &weight) < 0) goto done;
        double vruntime;
        if (dget_dbl(task_d, task, S.n_vruntime, &vruntime) < 0) goto done;
        double vr = vruntime + (double)dt * (S.nice0 / (double)weight);
        if (dset_dbl(task_d, S.n_vruntime, vr) < 0) goto done;

        /* inline rq.note_current_vruntime(vr): lazy peek-min scan */
        {
            double floor_v = vr;
            PyObject *heap_ = dget(rq_d, rq, S.n__heap);
            if (heap_ == NULL) goto done;
            PyObject *live = dget(rq_d, rq, S.n__live);
            if (live == NULL) { Py_DECREF(heap_); goto done; }
            int scan_fail = 0;
            while (PyList_GET_SIZE(heap_) > 0) {
                PyObject *entry = PyList_GET_ITEM(heap_, 0); /* borrowed */
                PyObject *etask = PyTuple_GET_ITEM(entry, 2);
                PyObject *tid = aget(etask, S.n_tid);
                if (tid == NULL) { scan_fail = 1; break; }
                PyObject *got = PyDict_GetItemWithError(live, tid);
                Py_DECREF(tid);
                if (got == NULL && PyErr_Occurred()) { scan_fail = 1; break; }
                if (got == entry) {
                    double e0 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(entry, 0));
                    if (e0 < floor_v) floor_v = e0;
                    break;
                }
                PyObject *dead = heappop_c(heap_);
                if (dead == NULL) { scan_fail = 1; break; }
                Py_DECREF(dead);
            }
            Py_DECREF(heap_);
            Py_DECREF(live);
            if (scan_fail) goto done;
            double minvr;
            if (dget_dbl(rq_d, rq, S.n_min_vruntime, &minvr) < 0) goto done;
            if (floor_v > minvr &&
                dset_dbl(rq_d, S.n_min_vruntime, floor_v) < 0)
                goto done;
        }

        if (dadd_ll(stats_d, stats, S.n_busy_us, dt) < 0) goto done;
        if (waiting) {
            if (dadd_ll(stats_d, stats, S.n_spin_us, dt) < 0) goto done;
        } else {
            double rate;
            if (dget_dbl(core_d, core, S.n__rate_at_dispatch, &rate) < 0)
                goto done;
            double md;
            if (dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0)
                goto done;
            double ddt = (double)dt;
            double debt_paid = (md < ddt) ? md : ddt; /* min(float(dt), md) */
            if (dset_dbl(task_d, S.n_migration_debt_us, md - debt_paid) < 0)
                goto done;
            double productive = ddt - debt_paid;
            double wr;
            if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0)
                goto done;
            if (dset_dbl(task_d, S.n_work_remaining,
                         wr - productive * rate) < 0)
                goto done;
            if (dadd_ll(task_d, task, S.n_compute_us,
                        (long long)productive) < 0)
                goto done;
        }

        PyObject *kb = dget(system_d, system, S.n__kb_on_charge);
        if (kb == NULL) goto done;
        PyObject *observers = dget(system_d, system, S.n_charge_observers);
        if (observers == NULL) { Py_DECREF(kb); goto done; }
        if (kb != Py_None || PyList_GET_SIZE(observers) > 0) {
            PyObject *dt_obj = PyLong_FromLongLong(dt);
            if (dt_obj == NULL) {
                Py_DECREF(kb);
                Py_DECREF(observers);
                goto done;
            }
            int call_fail = 0;
            if (kb != Py_None) {
                PyObject *r = PyObject_CallFunctionObjArgs(
                    kb, core, task, dt_obj, NULL);
                if (r == NULL) call_fail = 1; else Py_DECREF(r);
            }
            for (Py_ssize_t i = 0;
                 !call_fail && i < PyList_GET_SIZE(observers); i++) {
                PyObject *obs = PyList_GET_ITEM(observers, i);
                Py_INCREF(obs);
                PyObject *r = PyObject_CallFunctionObjArgs(
                    obs, core, task, dt_obj, NULL);
                Py_DECREF(obs);
                if (r == NULL) call_fail = 1; else Py_DECREF(r);
            }
            Py_DECREF(dt_obj);
            if (call_fail) {
                Py_DECREF(kb);
                Py_DECREF(observers);
                goto done;
            }
        }
        Py_DECREF(kb);
        Py_DECREF(observers);
    }

    /* ---- _on_core_event's wait/work bookkeeping ------------------ */
    {
        PyObject *waiting_on = dget(task_d, task, S.n_waiting_on);
        if (waiting_on == NULL) goto done;
        if (waiting_on != Py_None) {
            PyObject *deadline = dget(task_d, task, S.n_spin_deadline);
            if (deadline == NULL) { Py_DECREF(waiting_on); goto done; }
            if (deadline != Py_None) {
                long long dl = PyLong_AsLongLong(deadline);
                if (dl == -1 && PyErr_Occurred()) {
                    Py_DECREF(deadline);
                    Py_DECREF(waiting_on);
                    goto done;
                }
                if (now >= dl) {
                    /* rare: KMP_BLOCKTIME expired -- the same sequence
                     * of slow helpers the Python method calls */
                    Py_DECREF(deadline);
                    if (dset(core_d, S.n_current, Py_None) < 0) {
                        Py_DECREF(waiting_on);
                        goto done;
                    }
                    PyObject *r = PyObject_CallMethodObjArgs(
                        core, S.n__mem_note_off, task, NULL);
                    if (r == NULL) { Py_DECREF(waiting_on); goto done; }
                    Py_DECREF(r);
                    if (dset(task_d, S.n_last_descheduled_at, t_obj) < 0 ||
                        dset_ll(task_d, S.n_last_core, cid) < 0) {
                        Py_DECREF(waiting_on);
                        goto done;
                    }
                    r = PyObject_CallMethodObjArgs(
                        waiting_on, S.n_spin_timeout, task, t_obj, NULL);
                    Py_DECREF(waiting_on);
                    if (r == NULL) goto done;
                    Py_DECREF(r);
                    r = PyObject_CallMethodObjArgs(
                        system, S.n_note_residency, task, NULL);
                    if (r == NULL) goto done;
                    Py_DECREF(r);
                    r = PyObject_CallMethodObjArgs(
                        core, S.n__dispatch_next, NULL);
                    if (r == NULL) goto done;
                    Py_DECREF(r);
                    rc = 0;
                    goto done;
                }
            }
            Py_DECREF(deadline);

            PyObject *wm = dget(task_d, task, S.n_wait_mode);
            if (wm == NULL) { Py_DECREF(waiting_on); goto done; }
            int is_yield = (wm == S.wm_yield);
            Py_DECREF(wm);
            if (is_yield) {
                /* inline rq.max_vruntime(): lazy max-heap peek */
                PyObject *mheap = dget(rq_d, rq, S.n__max_heap);
                if (mheap == NULL) { Py_DECREF(waiting_on); goto done; }
                PyObject *live = dget(rq_d, rq, S.n__live);
                if (live == NULL) {
                    Py_DECREF(mheap);
                    Py_DECREF(waiting_on);
                    goto done;
                }
                double mv;
                if (dget_dbl(rq_d, rq, S.n_min_vruntime, &mv) < 0) {
                    Py_DECREF(mheap);
                    Py_DECREF(live);
                    Py_DECREF(waiting_on);
                    goto done;
                }
                int scan_fail = 0;
                while (PyList_GET_SIZE(mheap) > 0) {
                    PyObject *top = PyList_GET_ITEM(mheap, 0); /* borrowed */
                    PyObject *mentry = PyTuple_GET_ITEM(top, 2);
                    PyObject *etask = PyTuple_GET_ITEM(mentry, 2);
                    PyObject *tid = aget(etask, S.n_tid);
                    if (tid == NULL) { scan_fail = 1; break; }
                    PyObject *got = PyDict_GetItemWithError(live, tid);
                    Py_DECREF(tid);
                    if (got == NULL && PyErr_Occurred()) {
                        scan_fail = 1;
                        break;
                    }
                    if (got == mentry) {
                        mv = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(mentry, 0));
                        break;
                    }
                    PyObject *dead = heappop_c(mheap);
                    if (dead == NULL) { scan_fail = 1; break; }
                    Py_DECREF(dead);
                }
                Py_DECREF(mheap);
                Py_DECREF(live);
                if (scan_fail) { Py_DECREF(waiting_on); goto done; }
                double vruntime, penalty;
                if (dget_dbl(task_d, task, S.n_vruntime, &vruntime) < 0 ||
                    aget_dbl(params, S.n_yield_penalty, &penalty) < 0) {
                    Py_DECREF(waiting_on);
                    goto done;
                }
                double vr = ((mv > vruntime) ? mv : vruntime) + penalty;
                if (dset_dbl(task_d, S.n_vruntime, vr) < 0) {
                    Py_DECREF(waiting_on);
                    goto done;
                }
            }
        } else {
            double wr, md;
            if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0 ||
                dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0) {
                Py_DECREF(waiting_on);
                goto done;
            }
            if (wr <= S.work_eps && md <= S.work_eps) {
                if (dset_dbl(task_d, S.n_work_remaining, 0.0) < 0 ||
                    dset(task_d, S.n_needs_advance, Py_True) < 0) {
                    Py_DECREF(waiting_on);
                    goto done;
                }
            }
        }
        Py_DECREF(waiting_on);
    }

    /* ---- _redispatch --------------------------------------------- */
    int fast_path;
    {
        long long rq_count;
        if (dget_ll(rq_d, rq, S.n_count, &rq_count) < 0) goto done;
        fast_path = (rq_count == 0);
        if (fast_path) {
            int throttled = dtrue(task_d, task, S.n_throttled);
            if (throttled < 0) goto done;
            fast_path = !throttled;
        }
        if (fast_path) {
            PyObject *st = dget(task_d, task, S.n_state);
            if (st == NULL) goto done;
            fast_path = (st == S.st_running);
            Py_DECREF(st);
        }
        if (fast_path) {
            PyObject *waiting_on = dget(task_d, task, S.n_waiting_on);
            if (waiting_on == NULL) goto done;
            int cond = (waiting_on != Py_None);
            Py_DECREF(waiting_on);
            if (!cond) {
                int na = dtrue(task_d, task, S.n_needs_advance);
                if (na < 0) goto done;
                if (!na) {
                    double wr, md;
                    if (dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0 ||
                        dget_dbl(task_d, task, S.n_migration_debt_us,
                                 &md) < 0)
                        goto done;
                    cond = (wr > S.work_eps || md > S.work_eps);
                }
            }
            fast_path = cond;
        }
    }

    if (fast_path) {
        /* lone-task fast path: the queue round trip is an identity */
        if (dset(task_d, S.n_last_descheduled_at, t_obj) < 0 ||
            dset_ll(task_d, S.n_last_core, cid) < 0 ||
            dadd_ll(stats_d, stats, S.n_context_switches, 1) < 0 ||
            dadd_ll(stats_d, stats, S.n_dispatches, 1) < 0)
            goto done;
    } else {
        /* ---- _put_back_current ----------------------------------- */
        if (dset(core_d, S.n_current, Py_None) < 0) goto done;
        {
            /* _mem_note_off(task) */
            int track = dtrue(core_d, core, S.n__mem_track);
            if (track < 0) goto done;
            if (track) {
                double mi;
                if (dget_dbl(task_d, task, S.n_mem_intensity, &mi) < 0)
                    goto done;
                if (mi > 0.0 && mem_remove(mem_busy, cid) < 0) goto done;
            }
        }
        if (dset(task_d, S.n_last_descheduled_at, t_obj) < 0 ||
            dset_ll(task_d, S.n_last_core, cid) < 0 ||
            dadd_ll(stats_d, stats, S.n_context_switches, 1) < 0)
            goto done;
        {
            PyObject *st = dget(task_d, task, S.n_state);
            if (st == NULL) goto done;
            int running = (st == S.st_running);
            Py_DECREF(st);
            if (running) {
                if (dset(task_d, S.n_state, S.st_runnable) < 0) goto done;
                int throttled = dtrue(task_d, task, S.n_throttled);
                if (throttled < 0) goto done;
                if (throttled) {
                    PyObject *parked = dget(core_d, core, S.n_throttled);
                    if (parked == NULL) goto done;
                    int arc = PyList_Append(parked, task);
                    Py_DECREF(parked);
                    if (arc < 0) goto done;
                } else {
                    /* inline rq.push(task): the running task is never
                     * already queued, so push's guard is vacuous */
                    double vruntime;
                    long long weight;
                    if (dget_dbl(task_d, task, S.n_vruntime, &vruntime) < 0 ||
                        dget_ll(task_d, task, S.n_weight, &weight) < 0)
                        goto done;
                    PyObject *cnt = PyIter_Next(S.entry_counter);
                    if (cnt == NULL) goto done;
                    long long cnt_ll = PyLong_AsLongLong(cnt);
                    PyObject *vr_obj = PyFloat_FromDouble(vruntime);
                    PyObject *entry =
                        vr_obj ? PyTuple_Pack(3, vr_obj, cnt, task) : NULL;
                    Py_XDECREF(vr_obj);
                    Py_DECREF(cnt);
                    if (entry == NULL) goto done;
                    PyObject *tid = dget(task_d, task, S.n_tid);
                    if (tid == NULL) { Py_DECREF(entry); goto done; }
                    PyObject *live = dget(rq_d, rq, S.n__live);
                    PyObject *heap_ = live ? dget(rq_d, rq, S.n__heap) : NULL;
                    PyObject *mheap =
                        heap_ ? dget(rq_d, rq, S.n__max_heap) : NULL;
                    int push_fail = (mheap == NULL);
                    if (!push_fail)
                        push_fail = (PyDict_SetItem(live, tid, entry) < 0);
                    if (!push_fail)
                        push_fail = (heappush_c(heap_, entry) < 0);
                    if (!push_fail) {
                        PyObject *neg_vr = PyFloat_FromDouble(-vruntime);
                        PyObject *neg_cnt =
                            neg_vr ? PyLong_FromLongLong(-cnt_ll) : NULL;
                        PyObject *mentry =
                            neg_cnt ? PyTuple_Pack(3, neg_vr, neg_cnt, entry)
                                    : NULL;
                        Py_XDECREF(neg_vr);
                        Py_XDECREF(neg_cnt);
                        if (mentry == NULL) {
                            push_fail = 1;
                        } else {
                            push_fail = (heappush_c(mheap, mentry) < 0);
                            Py_DECREF(mentry);
                        }
                    }
                    Py_DECREF(tid);
                    Py_XDECREF(live);
                    Py_XDECREF(heap_);
                    Py_XDECREF(mheap);
                    Py_DECREF(entry);
                    if (push_fail) goto done;
                    if (dadd_ll(rq_d, rq, S.n__total_weight, weight) < 0 ||
                        dadd_ll(rq_d, rq, S.n_count, 1) < 0)
                        goto done;
                }
            }
        }

        /* ---- _dispatch_next, with _cancel_event folded in: the
         * pending event is the one firing now, already popped, so
         * clearing the slot and bumping the generation is all the
         * cancel can observably do */
        if (dset(core_d, S.n__event, Py_None) < 0 ||
            dadd_ll(core_d, core, S.n__gen, 1) < 0 ||
            dset(core_d, S.n__in_resched, Py_True) < 0)
            goto done;
        Py_CLEAR(task); /* rebound by the pick loop below */
        Py_CLEAR(task_d);
        int loop_fail = 0;
        for (;;) {
            /* re-read _heap/_live each lap: _go_idle/_prepare side
             * effects can compact (rebind) them */
            PyObject *heap_ = dget(rq_d, rq, S.n__heap);
            PyObject *live = heap_ ? dget(rq_d, rq, S.n__live) : NULL;
            if (live == NULL) {
                Py_XDECREF(heap_);
                loop_fail = 1;
                break;
            }
            /* inline rq.pop_min() */
            Py_CLEAR(task);
            Py_CLEAR(task_d);
            while (PyList_GET_SIZE(heap_) > 0) {
                PyObject *entry = heappop_c(heap_);
                if (entry == NULL) { loop_fail = 1; break; }
                PyObject *cand = PyTuple_GET_ITEM(entry, 2);
                PyObject *tid = aget(cand, S.n_tid);
                if (tid == NULL) {
                    Py_DECREF(entry);
                    loop_fail = 1;
                    break;
                }
                PyObject *got = PyDict_GetItemWithError(live, tid);
                if (got == NULL && PyErr_Occurred()) {
                    Py_DECREF(tid);
                    Py_DECREF(entry);
                    loop_fail = 1;
                    break;
                }
                if (got == entry) {
                    long long weight;
                    if (PyDict_DelItem(live, tid) < 0 ||
                        aget_ll(cand, S.n_weight, &weight) < 0 ||
                        dadd_ll(rq_d, rq, S.n__total_weight, -weight) < 0 ||
                        dadd_ll(rq_d, rq, S.n_count, -1) < 0) {
                        Py_DECREF(tid);
                        Py_DECREF(entry);
                        loop_fail = 1;
                        break;
                    }
                    double e0 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(entry, 0));
                    double minvr;
                    if (dget_dbl(rq_d, rq, S.n_min_vruntime, &minvr) < 0 ||
                        (e0 > minvr &&
                         dset_dbl(rq_d, S.n_min_vruntime, e0) < 0)) {
                        Py_DECREF(tid);
                        Py_DECREF(entry);
                        loop_fail = 1;
                        break;
                    }
                    task = cand;
                    Py_INCREF(task);
                    Py_DECREF(tid);
                    Py_DECREF(entry);
                    task_d = idict(task);
                    if (task_d == NULL) { loop_fail = 1; break; }
                    break;
                }
                Py_DECREF(tid);
                Py_DECREF(entry);
            }
            Py_DECREF(heap_);
            Py_DECREF(live);
            if (loop_fail) break;

            if (task == NULL) {
                PyObject *r =
                    PyObject_CallMethodObjArgs(core, S.n__go_idle, NULL);
                if (r == NULL) { loop_fail = 1; break; }
                Py_DECREF(r);
                long long rq_count;
                if (dget_ll(rq_d, rq, S.n_count, &rq_count) < 0) {
                    loop_fail = 1;
                    break;
                }
                if (rq_count == 0) {
                    /* genuinely idle */
                    if (dset(core_d, S.n__in_resched, Py_False) < 0)
                        goto done;
                    rc = 0;
                    goto done;
                }
                continue; /* idle balance pulled something */
            }
            {
                int throttled = dtrue(task_d, task, S.n_throttled);
                if (throttled < 0) { loop_fail = 1; break; }
                if (throttled) { /* parked off the queue */
                    PyObject *parked = dget(core_d, core, S.n_throttled);
                    if (parked == NULL) { loop_fail = 1; break; }
                    int arc = PyList_Append(parked, task);
                    Py_DECREF(parked);
                    if (arc < 0) { loop_fail = 1; break; }
                    continue;
                }
            }
            {
                PyObject *waiting_on = dget(task_d, task, S.n_waiting_on);
                if (waiting_on == NULL) { loop_fail = 1; break; }
                int ready = (waiting_on != Py_None);
                Py_DECREF(waiting_on);
                if (!ready) {
                    int na = dtrue(task_d, task, S.n_needs_advance);
                    if (na < 0) { loop_fail = 1; break; }
                    if (!na) {
                        double wr, md;
                        if (dget_dbl(task_d, task, S.n_work_remaining,
                                     &wr) < 0 ||
                            dget_dbl(task_d, task, S.n_migration_debt_us,
                                     &md) < 0) {
                            loop_fail = 1;
                            break;
                        }
                        ready = (wr > S.work_eps || md > S.work_eps);
                    }
                }
                if (ready) break; /* _prepare's immediate-True cases */
            }
            {
                PyObject *r = PyObject_CallMethodObjArgs(
                    core, S.n__prepare, task, NULL);
                if (r == NULL) { loop_fail = 1; break; }
                int prepared = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (prepared < 0) { loop_fail = 1; break; }
                if (prepared) break;
            }
            /* slept or exited during prepare: pick again */
        }
        /* the Python method's try/finally */
        if (dset(core_d, S.n__in_resched, Py_False) < 0) goto done;
        if (loop_fail) goto done;

        /* ---- _start (sans the schedule tail shared below) -------- */
        if (dset(task_d, S.n_state, S.st_running) < 0 ||
            dset_ll(task_d, S.n_cur_core, cid) < 0 ||
            dset(core_d, S.n_current, task) < 0)
            goto done;
        {
            /* _mem_note_on(task) */
            int track = dtrue(core_d, core, S.n__mem_track);
            if (track < 0) goto done;
            if (track) {
                double mi;
                if (dget_dbl(task_d, task, S.n_mem_intensity, &mi) < 0)
                    goto done;
                if (mi > 0.0 && mem_insort(mem_busy, cid, mi) < 0) goto done;
            }
        }
        if (dset(core_d, S.n_dispatch_started_at, t_obj) < 0 ||
            dadd_ll(stats_d, stats, S.n_dispatches, 1) < 0)
            goto done;
    }

    /* ---- effective_rate ------------------------------------------ */
    double rate;
    {
        if (dget_dbl(core_d, core, S.n__clock_factor, &rate) < 0) goto done;
        int smt_active = dtrue(core_d, core, S.n__smt_active);
        if (smt_active < 0) goto done;
        if (smt_active) {
            PyObject *sib = dget(core_d, core, S.n__sib_core);
            if (sib == NULL) goto done;
            if (sib == Py_None) {
                PyObject *hw = dget(core_d, core, S.n_hw);
                if (hw == NULL) { Py_DECREF(sib); goto done; }
                PyObject *sib_id = aget(hw, S.n_smt_sibling);
                Py_DECREF(hw);
                if (sib_id == NULL) { Py_DECREF(sib); goto done; }
                if (sib_id != Py_None) {
                    PyObject *cores = dget(system_d, system, S.n_cores);
                    if (cores == NULL) {
                        Py_DECREF(sib_id);
                        Py_DECREF(sib);
                        goto done;
                    }
                    PyObject *resolved = PyObject_GetItem(cores, sib_id);
                    Py_DECREF(cores);
                    if (resolved == NULL) {
                        Py_DECREF(sib_id);
                        Py_DECREF(sib);
                        goto done;
                    }
                    if (dset(core_d, S.n__sib_core, resolved) < 0) {
                        Py_DECREF(resolved);
                        Py_DECREF(sib_id);
                        Py_DECREF(sib);
                        goto done;
                    }
                    Py_DECREF(sib);
                    sib = resolved;
                }
                Py_DECREF(sib_id);
            }
            if (sib != Py_None) {
                PyObject *sib_cur = aget(sib, S.n_current);
                if (sib_cur == NULL) { Py_DECREF(sib); goto done; }
                if (sib_cur != Py_None) {
                    double derate;
                    if (dget_dbl(core_d, core, S.n__smt_derate,
                                 &derate) < 0) {
                        Py_DECREF(sib_cur);
                        Py_DECREF(sib);
                        goto done;
                    }
                    rate *= derate;
                }
                Py_DECREF(sib_cur);
            }
            Py_DECREF(sib);
        }
        PyObject *home = dget(task_d, task, S.n_home_node);
        if (home == NULL) goto done;
        int numa = dtrue(core_d, core, S.n__numa);
        if (numa < 0) { Py_DECREF(home); goto done; }
        if (numa && home != Py_None) {
            long long home_ll = PyLong_AsLongLong(home);
            long long my_node;
            if ((home_ll == -1 && PyErr_Occurred()) ||
                dget_ll(core_d, core, S.n__numa_node, &my_node) < 0) {
                Py_DECREF(home);
                goto done;
            }
            if (home_ll != my_node) {
                double slow;
                if (dget_dbl(core_d, core, S.n__numa_remote_slowdown,
                             &slow) < 0) {
                    Py_DECREF(home);
                    goto done;
                }
                rate /= slow;
            }
        }
        Py_DECREF(home);
        double mi;
        if (dget_dbl(task_d, task, S.n_mem_intensity, &mi) < 0) goto done;
        int track = dtrue(core_d, core, S.n__mem_track);
        if (track < 0) goto done;
        if (track && mi > 0.0) {
            double co = 0.0;
            Py_ssize_t n = PyList_GET_SIZE(mem_busy);
            for (Py_ssize_t i = 0; i < n; i++) {
                PyObject *e = PyList_GET_ITEM(mem_busy, i);
                long long c = PyLong_AsLongLong(PyTuple_GET_ITEM(e, 0));
                if (c != cid) co += PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(e, 1));
            }
            double alpha;
            if (dget_dbl(core_d, core, S.n__mem_alpha, &alpha) < 0)
                goto done;
            rate /= 1.0 + mi * alpha * co;
        }
        if (dset_dbl(core_d, S.n__rate_at_dispatch, rate) < 0) goto done;
    }

    /* ---- _run_duration ------------------------------------------- */
    long long run_for;
    {
        long long rq_count, weight, rq_weight;
        if (dget_ll(rq_d, rq, S.n_count, &rq_count) < 0 ||
            dget_ll(task_d, task, S.n_weight, &weight) < 0 ||
            dget_ll(rq_d, rq, S.n__total_weight, &rq_weight) < 0)
            goto done;
        long long nr = rq_count + 1;
        long long total_weight = rq_weight + weight;
        long long min_gran, target_lat;
        if (aget_ll(params, S.n_min_granularity, &min_gran) < 0 ||
            aget_ll(params, S.n_target_latency, &target_lat) < 0)
            goto done;
        long long scaled = nr * min_gran;
        long long period = target_lat;
        if (scaled > period) period = scaled;
        long long slice_us;
        /* int(period * weight / total_weight): exact as a double when
         * the product stays under 2**53 (always, for sane configs);
         * fall back to PyLong arithmetic beyond that */
        if (period < (1LL << 53) / (weight > 0 ? weight : 1)) {
            slice_us = (long long)(((double)period * (double)weight) /
                                   (double)total_weight);
        } else {
            PyObject *p = PyLong_FromLongLong(period);
            PyObject *w = p ? PyLong_FromLongLong(weight) : NULL;
            PyObject *tw = w ? PyLong_FromLongLong(total_weight) : NULL;
            PyObject *prod = tw ? PyNumber_Multiply(p, w) : NULL;
            PyObject *quot = prod ? PyNumber_TrueDivide(prod, tw) : NULL;
            Py_XDECREF(p);
            Py_XDECREF(w);
            Py_XDECREF(tw);
            Py_XDECREF(prod);
            if (quot == NULL) goto done;
            slice_us = (long long)PyFloat_AsDouble(quot);
            Py_DECREF(quot);
            if (PyErr_Occurred()) goto done;
        }
        if (slice_us < min_gran) slice_us = min_gran;

        PyObject *waiting_on = dget(task_d, task, S.n_waiting_on);
        if (waiting_on == NULL) goto done;
        if (waiting_on != Py_None) {
            int is_yield = 0;
            PyObject *wm = dget(task_d, task, S.n_wait_mode);
            if (wm == NULL) { Py_DECREF(waiting_on); goto done; }
            is_yield = (wm == S.wm_yield);
            Py_DECREF(wm);
            if (is_yield && rq_count > 0) {
                long long ycheck;
                if (dget_ll(core_d, core, S.n_yield_check_us, &ycheck) < 0) {
                    Py_DECREF(waiting_on);
                    goto done;
                }
                run_for = (ycheck < slice_us) ? ycheck : slice_us;
            } else {
                run_for = slice_us;
            }
            PyObject *deadline = dget(task_d, task, S.n_spin_deadline);
            if (deadline == NULL) { Py_DECREF(waiting_on); goto done; }
            if (deadline != Py_None) {
                long long dl = PyLong_AsLongLong(deadline);
                if (dl == -1 && PyErr_Occurred()) {
                    Py_DECREF(deadline);
                    Py_DECREF(waiting_on);
                    goto done;
                }
                long long margin = dl - now;
                if (margin < 1) margin = 1;
                if (margin < run_for) run_for = margin;
            }
            Py_DECREF(deadline);
        } else {
            double wr, md;
            if (dget_dbl(task_d, task, S.n_migration_debt_us, &md) < 0 ||
                dget_dbl(task_d, task, S.n_work_remaining, &wr) < 0) {
                Py_DECREF(waiting_on);
                goto done;
            }
            double need = md + wr / rate;
            long long ceiled = (long long)ceil(need - 1e-9);
            run_for = (ceiled < slice_us) ? ceiled : slice_us;
        }
        Py_DECREF(waiting_on);
    }

    /* ---- the schedule tail of _start / _redispatch:
     * self._gen += 1; self._event = engine.schedule(max(run_for, 1),
     * self._on_core_event, self._event_label, self._gen) */
    {
        long long gen2;
        if (dget_ll(core_d, core, S.n__gen, &gen2) < 0) goto done;
        gen2 += 1;
        if (dset_ll(core_d, S.n__gen, gen2) < 0) goto done;
        long long seq_ll;
        if (dget_ll(engine_d, engine, S.n__seq, &seq_ll) < 0) goto done;
        long long delay = (run_for > 1) ? run_for : 1;
        PyObject *ev_time = PyLong_FromLongLong(now + delay);
        PyObject *cb = ev_time ? PyMethod_New(S.core_event, core) : NULL;
        PyObject *lbl = cb ? dget(core_d, core, S.n__event_label) : NULL;
        PyObject *gen2_obj = lbl ? PyLong_FromLongLong(gen2) : NULL;
        PyObject *ev = NULL, *entry = NULL;
        if (gen2_obj != NULL)
            ev = event_new(ev_time, seq_ll, cb, lbl, engine, gen2_obj);
        if (ev != NULL)
            entry = PyTuple_Pack(3, ev_time, EV_SLOT(ev, EV_SEQ), ev);
        Py_XDECREF(ev_time);
        Py_XDECREF(cb);
        Py_XDECREF(lbl);
        Py_XDECREF(gen2_obj);
        int erc = (entry == NULL ||
                   dset_ll(engine_d, S.n__seq, seq_ll + 1) < 0 ||
                   heappush_c(heap, entry) < 0 ||
                   dset(core_d, S.n__event, ev) < 0);
        Py_XDECREF(entry);
        Py_XDECREF(ev);
        if (erc) goto done;
    }
    {
        int smt_active = dtrue(core_d, core, S.n__smt_active);
        if (smt_active < 0) goto done;
        if (smt_active) {
            PyObject *r = PyObject_CallMethodObjArgs(
                core, S.n__notify_sibling_rate_change, NULL);
            if (r == NULL) goto done;
            Py_DECREF(r);
        }
    }

    rc = 0;
done:
    Py_XDECREF(task_d);
    Py_XDECREF(system_d);
    Py_XDECREF(rq_d);
    Py_XDECREF(stats_d);
    Py_XDECREF(task);
    Py_XDECREF(params);
    Py_XDECREF(system);
    Py_XDECREF(rq);
    Py_XDECREF(stats);
    Py_XDECREF(mem_busy);
    Py_DECREF(core_d);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the drain loop (C twin of Engine._drain, single=False)              */
/* ------------------------------------------------------------------ */

/* returns 1 if at least one event dispatched, 0 if none, -1 on error */
long long repro_drain(PyObject *engine, PyObject *until_obj) {
    if (!S_ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "native engine core not initialised");
        return -1;
    }
    PyObject *engine_d = idict(engine);
    if (engine_d == NULL) return -1;
    PyObject *heap = dget(engine_d, engine, S.n__heap);
    PyObject *observers = heap ? dget(engine_d, engine, S.n_observers) : NULL;
    long long dispatched_any = -1; /* the return value; -1 until done */
    long long limit, until = 0;
    if (observers == NULL ||
        dget_ll(engine_d, engine, S.n_max_events, &limit) < 0)
        goto out;
    int have_until = (until_obj != Py_None);
    if (have_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred()) goto out;
    }
    if (!PyList_CheckExact(heap) || !PyList_CheckExact(observers)) {
        PyErr_SetString(PyExc_TypeError,
                        "engine _heap and observers must be lists");
        goto out;
    }
    long long any = 0;
    unsigned long long event_tick = 0;

    while (PyList_GET_SIZE(heap) > 0) {
        int stop = dtrue(engine_d, engine, S.n__stop_requested);
        if (stop < 0) goto out;
        if (stop) break;
        PyObject *top = PyList_GET_ITEM(heap, 0); /* borrowed */
        if (!PyTuple_CheckExact(top) || PyTuple_GET_SIZE(top) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "engine heap entries must be (time, seq, event)");
            goto out;
        }
        int cancelled =
            ev_true(PyTuple_GET_ITEM(top, 2), EV_CANCELLED, S.n_cancelled);
        if (cancelled < 0) goto out;
        if (!cancelled && have_until) {
            long long t = PyLong_AsLongLong(PyTuple_GET_ITEM(top, 0));
            if (t == -1 && PyErr_Occurred()) goto out;
            if (t > until) break;
        }
        /* pop; the entry keeps the event and its time alive */
        PyObject *entry = heappop_c(heap);
        if (entry == NULL) goto out;
        PyObject *t_obj = PyTuple_GET_ITEM(entry, 0);
        PyObject *ev = PyTuple_GET_ITEM(entry, 2);
        if (ev_write(ev, EV_IN_HEAP, S.n_in_heap, Py_False) < 0) goto entry_fail;
        if (cancelled) {
            /* lazy deletion; forged engine-less events were never
             * counted */
            PyObject *owner = ev_read(ev, EV_ENGINE, S.n_engine);
            if (owner == NULL) goto entry_fail;
            int counted = (owner != Py_None);
            Py_DECREF(owner);
            if (counted && dadd_ll(engine_d, engine, S.n__cancelled, -1) < 0)
                goto entry_fail;
            Py_DECREF(entry);
            continue;
        }
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++) {
            PyObject *obs = PyList_GET_ITEM(observers, i);
            Py_INCREF(obs);
            PyObject *r = PyObject_CallOneArg(obs, ev);
            Py_DECREF(obs);
            if (r == NULL) goto entry_fail;
            Py_DECREF(r);
        }
        long long t = PyLong_AsLongLong(t_obj);
        long long engine_now;
        if ((t == -1 && PyErr_Occurred()) ||
            dget_ll(engine_d, engine, S.n_now, &engine_now) < 0)
            goto entry_fail;
        if (t < engine_now) { /* defensive, mirrors Python */
            PyErr_SetString(S.SimulationError,
                            "event queue time went backwards");
            goto entry_fail;
        }
        if (dset(engine_d, S.n_now, t_obj) < 0) goto entry_fail;
        long long d;
        if (dget_ll(engine_d, engine, S.n__dispatched, &d) < 0 ||
            dset_ll(engine_d, S.n__dispatched, d + 1) < 0)
            goto entry_fail;
        if (d + 1 > limit) {
            PyObject *lbl = ev_read(ev, EV_LABEL, S.n_label);
            if (lbl != NULL) {
                PyErr_Format(S.SimulationError,
                             "event limit exceeded (%lld); likely "
                             "livelock near t=%lld (last: %R)",
                             limit, t, lbl);
                Py_DECREF(lbl);
            }
            goto entry_fail;
        }
        /* dispatch: the core event runs in C, everything else through
         * the ordinary Python call */
        PyObject *cb = ev_read(ev, EV_CALLBACK, S.n_callback);
        PyObject *payload = cb ? ev_read(ev, EV_PAYLOAD, S.n_payload) : NULL;
        int ok = 0;
        if (payload != NULL) {
            if (payload != Py_None && PyMethod_Check(cb) &&
                PyMethod_GET_FUNCTION(cb) == S.core_event) {
                stat_fused++;
                ok = (core_event(PyMethod_GET_SELF(cb), payload, engine,
                                 engine_d, heap, t_obj, t) == 0);
            } else {
                stat_generic++;
                PyObject *r = (payload == Py_None)
                                  ? PyObject_CallNoArgs(cb)
                                  : PyObject_CallOneArg(cb, payload);
                ok = (r != NULL);
                Py_XDECREF(r);
            }
        }
        Py_XDECREF(payload);
        Py_XDECREF(cb);
        if (!ok) goto entry_fail;
        Py_DECREF(entry);
        any = 1;
        if (((++event_tick) & 4095) == 0 && PyErr_CheckSignals() < 0) goto out;
        continue;

    entry_fail:
        Py_DECREF(entry);
        goto out;
    }
    dispatched_any = any;

out:
    Py_XDECREF(heap);
    Py_XDECREF(observers);
    Py_DECREF(engine_d);
    return dispatched_any;
}

/* ------------------------------------------------------------------ */
/* initialisation                                                      */
/* ------------------------------------------------------------------ */

/* the binding module checks this against its expected value so a stale
 * cached artifact from an older source revision is never used */
long long repro_native_abi(void) { return 2; }

/* dispatch-path counters: 0 = core event run in C, 1 = generic
 * Python call, 2 = core event handed back to CoreSim._on_core_event;
 * anything else = -1 */
long long repro_native_stat(long long which) {
    switch (which) {
    case 0: return stat_fused;
    case 1: return stat_generic;
    case 2: return stat_delegated;
    default: return -1;
    }
}

/* resolve the Event __slots__ member offsets from the class's slot
 * descriptors; refuses anything that is not a real member descriptor
 * so a future Event redesign fails loudly here instead of corrupting
 * memory */
static int resolve_ev_slots(void) {
    static const char *names[EV_NSLOTS] = {
        "time", "seq", "callback", "cancelled",
        "label", "engine", "in_heap", "payload",
    };
    for (int i = 0; i < EV_NSLOTS; i++) {
        PyObject *d = PyObject_GetAttrString(S.EventClass, names[i]);
        if (d == NULL) return -1;
        if (!PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
            Py_DECREF(d);
            PyErr_Format(PyExc_TypeError,
                         "Event.%s is not a slot descriptor", names[i]);
            return -1;
        }
        ev_off[i] = ((PyMemberDescrObject *)d)->d_member->offset;
        Py_DECREF(d);
    }
    return 0;
}

static PyObject *take(PyObject *support, const char *key) {
    PyObject *v = PyDict_GetItemString(support, key); /* borrowed */
    if (v == NULL) {
        PyErr_Format(PyExc_KeyError, "native support dict missing %s", key);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

long long repro_native_init(PyObject *support) {
    if (S_ready) return 0;
    if (!PyDict_Check(support)) {
        PyErr_SetString(PyExc_TypeError, "support must be a dict");
        return -1;
    }
#define X(n)                                                                \
    S.n_##n = PyUnicode_InternFromString(#n);                               \
    if (S.n_##n == NULL) return -1;
    ATTR_NAMES(X)
#undef X
    if ((S.SimulationError = take(support, "SimulationError")) == NULL ||
        (S.EventClass = take(support, "Event")) == NULL ||
        (S.core_event = take(support, "core_event")) == NULL ||
        (S.CfsParams = take(support, "CfsParams")) == NULL ||
        (S.CfsRunQueue = take(support, "CfsRunQueue")) == NULL ||
        (S.st_running = take(support, "RUNNING")) == NULL ||
        (S.st_runnable = take(support, "RUNNABLE")) == NULL ||
        (S.wm_yield = take(support, "YIELD")) == NULL ||
        (S.entry_counter = take(support, "entry_counter")) == NULL)
        return -1;
    if (resolve_ev_slots() < 0) return -1;
    PyObject *eps = PyDict_GetItemString(support, "WORK_EPS");
    PyObject *nice0 = PyDict_GetItemString(support, "NICE_0_WEIGHT");
    if (eps == NULL || nice0 == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "native support dict missing WORK_EPS/NICE_0_WEIGHT");
        return -1;
    }
    S.work_eps = PyFloat_AsDouble(eps);
    S.nice0 = PyFloat_AsDouble(nice0);
    if (PyErr_Occurred()) return -1;
    S.str_wait = PyUnicode_InternFromString("wait");
    S.str_run = PyUnicode_InternFromString("run");
    if (S.str_wait == NULL || S.str_run == NULL) return -1;
    S_ready = 1;
    return 0;
}
