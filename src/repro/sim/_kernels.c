/* Compiled DES engine core and link.
 *
 * Optional CPython extension backing `repro.sim.engine.Simulator` and
 * `repro.sim.link.Link`:
 *
 * - EngineCore fuses the event heap and the dispatch loop.  Entries
 *   live as C structs in a binary heap keyed (time, seq) (no per-event
 *   tuple at all), Event handles are a C type recycled through a C free
 *   list, and run()/run_until_empty() dispatch callbacks without
 *   touching the Python interpreter between events.
 * - Link is the store-and-forward link: receive, the two service-loop
 *   events and a drop-tail queue inline, scheduling straight into its
 *   EngineCore.  Its events carry no Event handle (nothing cancels
 *   them) and dispatch C to C; a packet crossing from one C link to the
 *   next never enters the interpreter.
 *
 * Observable behaviour — dispatch order, clock updates, cancellation,
 * the trace hook, float arithmetic, RNG draws, error messages — is
 * bit-identical to the pure-python Simulator loop and Link class, which
 * the golden traces, tests/test_sim_kernels.py and
 * tests/test_sim_link_kernels.py enforce.
 *
 * The pure-python classes remain the reference; this module is an
 * optional extra (`python setup.py build_ext --inplace`) and both
 * degrade to the pure code when the import fails.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"

/* ---------------------------------------------------------------- */
/* kentry: one pending event, unpacked: the callback, its argument  */
/* tuple and the Event handle.  (time, seq) is the unique sort key. */
/* A link event has no handle (ev == NULL): fn is the C Link, args  */
/* the packet of a _transmission_done or NULL for a _deliver.       */
/* ---------------------------------------------------------------- */

typedef struct {
    double time;
    long long seq;
    PyObject *fn;    /* owned */
    PyObject *args;  /* owned or NULL (link event) */
    PyObject *ev;    /* owned or NULL (link event) */
} kentry;

static inline void
kentry_release(kentry *e)
{
    Py_DECREF(e->fn);
    Py_XDECREF(e->args);
    Py_XDECREF(e->ev);
}

static inline int
kless(const kentry *a, const kentry *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* ---------------------------------------------------------------- */
/* karray: growable kentry array, doubling capacity.                */
/* ---------------------------------------------------------------- */

typedef struct {
    kentry *items;
    Py_ssize_t len, cap;
} karray;

static void
karr_init(karray *a)
{
    a->items = NULL;
    a->len = a->cap = 0;
}

static int
karr_grow(karray *a)
{
    Py_ssize_t cap = a->cap ? a->cap * 2 : 8;
    kentry *items = PyMem_Realloc(a->items, (size_t)cap * sizeof(kentry));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    a->items = items;
    a->cap = cap;
    return 0;
}

static inline int
karr_append(karray *a, kentry e)
{
    if (a->len == a->cap && karr_grow(a) < 0)
        return -1;
    a->items[a->len++] = e;
    return 0;
}

static int
karr_traverse(karray *a, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < a->len; i++) {
        Py_VISIT(a->items[i].fn);
        Py_VISIT(a->items[i].args);
        Py_VISIT(a->items[i].ev);
    }
    return 0;
}

static void
karr_clear_entries(karray *a)
{
    /* Zero the length first: a DECREF may run arbitrary Python code
     * (GC, __del__) that re-enters traverse on this container. */
    Py_ssize_t n = a->len;
    a->len = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        kentry_release(&a->items[i]);
}

static void
karr_free(karray *a)
{
    karr_clear_entries(a);
    PyMem_Free(a->items);
    a->items = NULL;
    a->cap = 0;
}

/* ---------------------------------------------------------------- */
/* Binary heap over a karray, keyed (time, seq).  Same pop order as */
/* heapq over entry tuples: keys are unique, so any valid heap pops */
/* in sorted order.                                                 */
/* ---------------------------------------------------------------- */

static int
kheap_push(karray *h, kentry e)
{
    if (karr_append(h, e) < 0)
        return -1;
    kentry *it = h->items;
    Py_ssize_t i = h->len - 1;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (!kless(&it[i], &it[p]))
            break;
        kentry tmp = it[i];
        it[i] = it[p];
        it[p] = tmp;
        i = p;
    }
    return 0;
}

static void
ksift_down(karray *h, Py_ssize_t i)
{
    kentry *it = h->items;
    Py_ssize_t n = h->len;
    for (;;) {
        Py_ssize_t l = 2 * i + 1, smallest = i;
        if (l < n && kless(&it[l], &it[smallest]))
            smallest = l;
        if (l + 1 < n && kless(&it[l + 1], &it[smallest]))
            smallest = l + 1;
        if (smallest == i)
            break;
        kentry tmp = it[i];
        it[i] = it[smallest];
        it[smallest] = tmp;
        i = smallest;
    }
}

static kentry
kheap_pop(karray *h)
{
    kentry top = h->items[0];
    Py_ssize_t n = --h->len;
    if (n > 0) {
        h->items[0] = h->items[n];
        ksift_down(h, 0);
    }
    return top;
}

/* ---------------------------------------------------------------- */
/* Event: the compiled engine's recycled callback handle.  Same     */
/* lifetime contract as repro.sim.engine.Event.                     */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    double time;
    PyObject *fn;    /* owned or NULL (reads as None) */
    PyObject *args;  /* owned or NULL (reads as None) */
    char cancelled;
} KEvent;

static PyObject *
kevent_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    KEvent *self = (KEvent *)type->tp_alloc(type, 0);
    if (self != NULL) {
        self->time = 0.0;
        self->fn = NULL;
        self->args = NULL;
        self->cancelled = 0;
    }
    return (PyObject *)self;
}

static int
kevent_init(KEvent *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "fn", "args", NULL};
    double time;
    PyObject *fn, *argt;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dOO:Event", kwlist,
                                     &time, &fn, &argt))
        return -1;
    self->time = time;
    Py_XSETREF(self->fn, Py_NewRef(fn));
    Py_XSETREF(self->args, Py_NewRef(argt));
    self->cancelled = 0;
    return 0;
}

static int
kevent_traverse(KEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    return 0;
}

static int
kevent_clear(KEvent *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    return 0;
}

static void
kevent_dealloc(KEvent *self)
{
    PyObject_GC_UnTrack(self);
    kevent_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
kevent_cancel(KEvent *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    Py_RETURN_NONE;
}

static PyMethodDef kevent_methods[] = {
    {"cancel", (PyCFunction)kevent_cancel, METH_NOARGS,
     "Mark the event so the engine skips it (lazy deletion)."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef kevent_members[] = {
    {"time", T_DOUBLE, offsetof(KEvent, time), READONLY,
     "Scheduled dispatch time (seconds)."},
    {"fn", T_OBJECT, offsetof(KEvent, fn), READONLY,
     "Pending callback (None once dispatched/recycled)."},
    {"args", T_OBJECT, offsetof(KEvent, args), READONLY,
     "Pending callback arguments (None once dispatched/recycled)."},
    {"cancelled", T_BOOL, offsetof(KEvent, cancelled), 0,
     "True once cancel() was called."},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject KEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernels.Event",
    .tp_basicsize = sizeof(KEvent),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback handle; cancel() for lazy deletion.",
    .tp_new = kevent_new,
    .tp_init = (initproc)kevent_init,
    .tp_dealloc = (destructor)kevent_dealloc,
    .tp_traverse = (traverseproc)kevent_traverse,
    .tp_clear = (inquiry)kevent_clear,
    .tp_methods = kevent_methods,
    .tp_members = kevent_members,
};

/* ---------------------------------------------------------------- */
/* EngineCore: event heap + dispatch loop, fused.                   */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    karray heap;
    double now;
    long long counter;
    long long processed;
    PyObject *trace;            /* owned or NULL */
    PyObject **free_items;      /* owned KEvent refs */
    Py_ssize_t free_len, free_cap;
} EngineCore;

static PyObject *
enginecore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"trace", NULL};
    PyObject *trace = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|$O:EngineCore", kwlist,
                                     &trace))
        return NULL;
    EngineCore *self = (EngineCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    karr_init(&self->heap);
    self->now = 0.0;
    self->counter = 0;
    self->processed = 0;
    self->trace = (trace == Py_None) ? NULL : Py_NewRef(trace);
    self->free_items = NULL;
    self->free_len = self->free_cap = 0;
    return (PyObject *)self;
}

static int
enginecore_traverse(EngineCore *self, visitproc visit, void *arg)
{
    int rc;
    Py_VISIT(self->trace);
    if ((rc = karr_traverse(&self->heap, visit, arg)))
        return rc;
    for (Py_ssize_t i = 0; i < self->free_len; i++)
        Py_VISIT(self->free_items[i]);
    return 0;
}

static int
enginecore_clear(EngineCore *self)
{
    Py_CLEAR(self->trace);
    karr_clear_entries(&self->heap);
    Py_ssize_t n = self->free_len;
    self->free_len = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(self->free_items[i]);
    return 0;
}

static void
enginecore_dealloc(EngineCore *self)
{
    PyObject_GC_UnTrack(self);
    enginecore_clear(self);
    karr_free(&self->heap);
    PyMem_Free(self->free_items);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
enginecore_len(EngineCore *self)
{
    return self->heap.len;
}

/* Recycle a dispatched (or cancelled-and-popped) entry: strip the
 * handle and park it on the free list, drop the entry's refs. */
static void
core_recycle(EngineCore *self, kentry *e)
{
    KEvent *ev = (KEvent *)e->ev;
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    Py_DECREF(e->fn);
    Py_DECREF(e->args);
    if (self->free_len == self->free_cap) {
        Py_ssize_t cap = self->free_cap ? self->free_cap * 2 : 16;
        PyObject **items = PyMem_Realloc(self->free_items,
                                         (size_t)cap * sizeof(PyObject *));
        if (items == NULL) {
            Py_DECREF(ev);      /* free list full: just drop it */
            return;
        }
        self->free_items = items;
        self->free_cap = cap;
    }
    self->free_items[self->free_len++] = (PyObject *)ev;
}

static PyObject *
core_schedule_common(EngineCore *self, double time, PyObject *fn,
                     PyObject *const *rest, Py_ssize_t nrest)
{
    PyObject *argt = PyTuple_New(nrest);
    if (argt == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < nrest; i++)
        PyTuple_SET_ITEM(argt, i, Py_NewRef(rest[i]));

    KEvent *ev;
    if (self->free_len > 0) {
        ev = (KEvent *)self->free_items[--self->free_len];
    }
    else {
        ev = PyObject_GC_New(KEvent, &KEventType);
        if (ev == NULL) {
            Py_DECREF(argt);
            return NULL;
        }
        ev->fn = NULL;
        ev->args = NULL;
        PyObject_GC_Track((PyObject *)ev);
    }
    ev->time = time;
    ev->cancelled = 0;
    ev->fn = Py_NewRef(fn);
    ev->args = Py_NewRef(argt);

    self->counter++;
    kentry e = { time, self->counter, Py_NewRef(fn), argt,
                 (PyObject *)ev };
    if (kheap_push(&self->heap, e) < 0) {
        kentry_release(&e);
        return NULL;
    }
    return Py_NewRef((PyObject *)ev);
}

static PyObject *
core_schedule(EngineCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, fn, *args) takes at least "
                        "2 arguments");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0.0) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule in the past (delay=%R)", args[0]);
        return NULL;
    }
    return core_schedule_common(self, self->now + delay, args[1],
                                args + 2, nargs - 2);
}

/* ValueError "<what> <arg> before now (<now>)", the pure engine's
 * f-string wording for a time argument behind the clock. */
static PyObject *
core_before_now(EngineCore *self, const char *what, PyObject *arg)
{
    PyObject *nowf = PyFloat_FromDouble(self->now);
    if (nowf == NULL)
        return NULL;
    PyErr_Format(PyExc_ValueError, "%s %R before now (%R)", what, arg,
                 nowf);
    Py_DECREF(nowf);
    return NULL;
}

static PyObject *
core_schedule_at(EngineCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, fn, *args) takes at least "
                        "2 arguments");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < self->now)
        return core_before_now(self, "cannot schedule at", args[0]);
    return core_schedule_common(self, time, args[1], args + 2, nargs - 2);
}

/* Push a link event (no Event handle): the link's _transmission_done
 * of `packet`, or its _deliver when `packet` is NULL. */
static int
core_push_link(EngineCore *self, double time, PyObject *link,
               PyObject *packet)
{
    self->counter++;
    kentry e = { time, self->counter, Py_NewRef(link), Py_XNewRef(packet),
                 NULL };
    if (kheap_push(&self->heap, e) < 0) {
        kentry_release(&e);
        return -1;
    }
    return 0;
}

static int klink_transmission_done(PyObject *link, PyObject *packet);
static int klink_deliver(PyObject *link);
static PyObject *s_transmission_done, *s_deliver;

/* A popped link event: clock, counters, the trace hook (which sees the
 * bound method and its argument tuple, as for any event), the call. */
static int
core_dispatch_link(EngineCore *self, kentry *e)
{
    self->now = e->time;
    self->processed++;
    int rc = 0;
    if (self->trace != NULL) {
        PyObject *fn = PyObject_GetAttr(
            e->fn, e->args != NULL ? s_transmission_done : s_deliver);
        PyObject *args = (e->args != NULL ? PyTuple_Pack(1, e->args)
                                          : PyTuple_New(0));
        PyObject *r = NULL;
        if (fn != NULL && args != NULL)
            r = PyObject_CallFunction(self->trace, "dOO", e->time, fn,
                                      args);
        Py_XDECREF(fn);
        Py_XDECREF(args);
        if (r == NULL)
            rc = -1;
        Py_XDECREF(r);
    }
    if (rc == 0)
        rc = (e->args != NULL ? klink_transmission_done(e->fn, e->args)
                              : klink_deliver(e->fn));
    kentry_release(e);
    return rc;
}

/* One popped entry: skip it when cancelled, else clock, counters,
 * trace hook, the call.  Recycles the entry either way.  Returns 1
 * for a skipped entry, 0 for a dispatched one and -1 with an
 * exception set when the callback (or the trace hook) raised. */
static inline int
core_dispatch(EngineCore *self, kentry *e)
{
    KEvent *ev = (KEvent *)e->ev;
    if (ev == NULL)
        return core_dispatch_link(self, e);
    if (ev->cancelled) {
        core_recycle(self, e);
        return 1;
    }
    self->now = e->time;
    self->processed++;
    if (self->trace != NULL) {
        PyObject *r = PyObject_CallFunction(self->trace, "dOO",
                                            e->time, e->fn, e->args);
        if (r == NULL) {
            kentry_release(e);
            return -1;
        }
        Py_DECREF(r);
    }
    PyObject *res = PyObject_CallObject(e->fn, e->args);
    if (res == NULL) {
        kentry_release(e);
        return -1;
    }
    Py_DECREF(res);
    core_recycle(self, e);
    return 0;
}

static PyObject *
core_run(EngineCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", NULL};
    PyObject *until_obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:run", kwlist,
                                     &until_obj))
        return NULL;
    double until = PyFloat_AsDouble(until_obj);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    if (until < self->now)
        return core_before_now(self, "cannot run until", until_obj);
    karray *heap = &self->heap;
    while (heap->len && heap->items[0].time <= until) {
        kentry e = kheap_pop(heap);
        if (core_dispatch(self, &e) < 0)
            return NULL;
    }
    self->now = until;
    Py_RETURN_NONE;
}

static PyObject *
core_run_until_empty(EngineCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"max_events", NULL};
    long long max_events = 10000000;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L:run_until_empty",
                                     kwlist, &max_events))
        return NULL;
    karray *heap = &self->heap;
    long long budget = max_events;
    while (heap->len && budget > 0) {
        kentry e = kheap_pop(heap);
        int rc = core_dispatch(self, &e);
        if (rc < 0)
            return NULL;
        if (rc == 0)
            budget--;           /* cancelled pops don't consume budget */
    }
    if (heap->len) {
        PyErr_Format(PyExc_RuntimeError,
                     "run_until_empty exceeded %lld events", max_events);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_get_now(EngineCore *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyGetSetDef enginecore_getset[] = {
    {"now", (getter)core_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyMemberDef enginecore_members[] = {
    {"events_processed", T_LONGLONG, offsetof(EngineCore, processed),
     READONLY, "Number of events executed so far."},
    {NULL, 0, 0, 0, NULL}
};

static PyMethodDef enginecore_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))core_schedule,
     METH_FASTCALL,
     "schedule(delay, fn, *args): run fn(*args) after delay seconds."},
    {"schedule_at", (PyCFunction)(void (*)(void))core_schedule_at,
     METH_FASTCALL,
     "schedule_at(time, fn, *args): run fn(*args) at absolute time."},
    {"run", (PyCFunction)(void (*)(void))core_run,
     METH_VARARGS | METH_KEYWORDS,
     "run(until): process events in order until the clock reaches "
     "until."},
    {"run_until_empty", (PyCFunction)(void (*)(void))core_run_until_empty,
     METH_VARARGS | METH_KEYWORDS,
     "run_until_empty(max_events=10_000_000): process every queued "
     "event (bounded by max_events)."},
    {NULL, NULL, 0, NULL}
};

static PySequenceMethods enginecore_as_sequence = {
    .sq_length = (lenfunc)enginecore_len,
};

static PyTypeObject EngineCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernels.EngineCore",
    .tp_basicsize = sizeof(EngineCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Fused compiled event heap + dispatch loop for Simulator.",
    .tp_new = enginecore_new,
    .tp_dealloc = (destructor)enginecore_dealloc,
    .tp_traverse = (traverseproc)enginecore_traverse,
    .tp_clear = (inquiry)enginecore_clear,
    .tp_methods = enginecore_methods,
    .tp_members = enginecore_members,
    .tp_getset = enginecore_getset,
    .tp_as_sequence = &enginecore_as_sequence,
};

/* ---------------------------------------------------------------- */
/* Link: the compiled twin of repro.sim.link.Link (see there for    */
/* the model).  Every float is computed with the Python class's     */
/* operations in its order; queues other than an exact              */
/* DropTailQueue, next hops other than a C Link and endpoints are   */
/* called through their Python methods.                             */
/* ---------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long arrivals, drops, bytes_sent;
    double since;
} KLinkStats;

static PyObject *
klinkstats_reset(KLinkStats *self, PyObject *now)
{
    double since = PyFloat_AsDouble(now);
    if (since == -1.0 && PyErr_Occurred())
        return NULL;
    self->arrivals = self->drops = self->bytes_sent = 0;
    self->since = since;
    Py_RETURN_NONE;
}

static PyObject *
klinkstats_utilization(KLinkStats *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "utilization(now, rate_bps) takes 2 arguments");
        return NULL;
    }
    double now = PyFloat_AsDouble(args[0]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    double rate = PyFloat_AsDouble(args[1]);
    if (rate == -1.0 && PyErr_Occurred())
        return NULL;
    double elapsed = now - self->since;
    if (elapsed <= 0.0)
        return PyFloat_FromDouble(0.0);
    double capacity = rate * elapsed;
    if (capacity == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    return PyFloat_FromDouble(((double)self->bytes_sent * 8.0) / capacity);
}

static PyObject *
klinkstats_loss_probability(KLinkStats *self, void *closure)
{
    if (self->arrivals == 0)
        return PyFloat_FromDouble(0.0);
    return PyFloat_FromDouble((double)self->drops / (double)self->arrivals);
}

static PyMethodDef klinkstats_methods[] = {
    {"reset", (PyCFunction)klinkstats_reset, METH_O,
     "Forget everything before ``now`` (end of warmup)."},
    {"utilization", (PyCFunction)(void (*)(void))klinkstats_utilization,
     METH_FASTCALL,
     "Fraction of the link capacity used since the last reset."},
    {NULL, NULL, 0, NULL}
};

static PyGetSetDef klinkstats_getset[] = {
    {"loss_probability", (getter)klinkstats_loss_probability, NULL,
     "Fraction of arrivals dropped since the last reset.", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyMemberDef klinkstats_members[] = {
    {"arrivals", T_LONGLONG, offsetof(KLinkStats, arrivals), 0,
     "Packets offered to the link since the last reset."},
    {"drops", T_LONGLONG, offsetof(KLinkStats, drops), 0,
     "Arrivals dropped (channel loss or queue) since the last reset."},
    {"bytes_sent", T_LONGLONG, offsetof(KLinkStats, bytes_sent), 0,
     "Bytes whose transmission completed since the last reset."},
    {"since", T_DOUBLE, offsetof(KLinkStats, since), 0,
     "Time of the last reset."},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject KLinkStatsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernels.LinkStats",
    .tp_basicsize = sizeof(KLinkStats),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Arrival/drop/throughput counters with warmup reset support.",
    .tp_new = PyType_GenericNew,
    .tp_methods = klinkstats_methods,
    .tp_members = klinkstats_members,
    .tp_getset = klinkstats_getset,
};

typedef struct {
    double time;
    PyObject *packet;           /* owned */
} kwire;

typedef struct {
    PyObject_HEAD
    EngineCore *core;           /* owned; NULL once cleared */
    PyObject *sim;              /* owned */
    PyObject *queue;            /* owned */
    KLinkStats *stats;          /* owned */
    PyObject *name;             /* owned */
    PyObject *loss_rng;         /* owned */
    /* rate_bps, delay, loss_rate: the object last assigned (what Python
     * reads back) and its value as a double (what the hop computes). */
    PyObject *numbers[3];       /* owned */
    double rate, delay, loss_rate;
    char busy, pipe_idle, droptail;
    /* The propagation pipe: a ring buffer of (deliver time, packet). */
    kwire *pipe;
    Py_ssize_t pipe_head, pipe_len, pipe_cap;
} KLink;

static PyTypeObject KLinkType;

/* What the hop reads out of Python objects, resolved on first use:
 * the slot offsets of Packet and DropTailQueue (both __slots__
 * classes), and deque's append/popleft. */
static PyTypeObject *packet_type, *droptail_type, *deque_type;
static PyObject *deque_append, *deque_popleft;
static Py_ssize_t off_endpoint, off_size, off_path, off_hop, off_limit,
    off_items;
static PyObject *s_receive, *s_on_data, *s_try_enqueue, *s_dequeue,
    *s_random, *s_endpoint, *s_size_bytes, *s_path, *s_hop, *s_clock;

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Offset of a writable object slot of `type`, or -1. */
static Py_ssize_t
slot_offset(PyTypeObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)type, name);
    Py_ssize_t off = -1;
    if (descr == NULL) {
        PyErr_Clear();
        return -1;
    }
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY))
            off = member->offset;
    }
    Py_DECREF(descr);
    return off;
}

static PyTypeObject *
import_type(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *type = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    if (type != NULL && !PyType_Check(type)) {
        PyErr_Format(PyExc_TypeError, "%s.%s is not a class", module, name);
        Py_CLEAR(type);
    }
    return (PyTypeObject *)type;
}

static int
link_statics_ready(void)
{
    if (deque_popleft != NULL)
        return 0;
    PyTypeObject *packet = import_type("repro.sim.packet", "Packet");
    PyTypeObject *droptail = import_type("repro.sim.queues",
                                         "DropTailQueue");
    PyTypeObject *deque = import_type("collections", "deque");
    PyObject *append = NULL, *popleft = NULL;
    if (deque != NULL) {
        append = PyObject_GetAttrString((PyObject *)deque, "append");
        popleft = PyObject_GetAttrString((PyObject *)deque, "popleft");
    }
    if (packet == NULL || droptail == NULL || append == NULL
            || popleft == NULL) {
        Py_XDECREF(packet);
        Py_XDECREF(droptail);
        Py_XDECREF(deque);
        Py_XDECREF(append);
        Py_XDECREF(popleft);
        return -1;
    }
    off_endpoint = slot_offset(packet, "endpoint");
    off_size = slot_offset(packet, "size_bytes");
    off_path = slot_offset(packet, "path");
    off_hop = slot_offset(packet, "hop");
    off_limit = slot_offset(droptail, "limit");
    off_items = slot_offset(droptail, "_items");
    packet_type = packet;
    droptail_type = droptail;
    deque_type = deque;
    deque_append = append;
    deque_popleft = popleft;
    return 0;
}

/* packet.<name> (new reference), straight from its slot when the
 * packet is a plain Packet. */
static inline PyObject *
pkt_get(PyObject *packet, Py_ssize_t off, PyObject *name)
{
    if (off >= 0 && Py_IS_TYPE(packet, packet_type)) {
        PyObject *value = SLOT(packet, off);
        if (value != NULL)
            return Py_NewRef(value);
    }
    return PyObject_GetAttr(packet, name);
}

static inline int
pkt_size(PyObject *packet, long long *size)
{
    PyObject *value = pkt_get(packet, off_size, s_size_bytes);
    if (value == NULL)
        return -1;
    *size = PyLong_AsLongLong(value);
    Py_DECREF(value);
    return (*size == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* The deque and limit of an exact DropTailQueue, read from its slots;
 * 0 when the queue must be driven through its Python methods. */
static inline int
droptail_parts(KLink *self, PyObject **items, long long *limit)
{
    if (!self->droptail)
        return 0;
    PyObject *deque = SLOT(self->queue, off_items);
    PyObject *lim = SLOT(self->queue, off_limit);
    if (deque == NULL || lim == NULL || !Py_IS_TYPE(deque, deque_type)
            || !PyLong_CheckExact(lim))
        return 0;
    int overflow;
    *limit = PyLong_AsLongLongAndOverflow(lim, &overflow);
    if (overflow)
        return 0;
    *items = deque;
    return 1;
}

/* queue.try_enqueue(packet): 1 accepted, 0 dropped, -1 error. */
static int
klink_enqueue(KLink *self, PyObject *packet)
{
    PyObject *items;
    long long limit;
    if (droptail_parts(self, &items, &limit)) {
        if (PyObject_Size(items) >= limit)
            return 0;
        PyObject *args[2] = { items, packet };
        PyObject *r = PyObject_Vectorcall(deque_append, args, 2, NULL);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 1;
    }
    PyObject *r = PyObject_CallMethodOneArg(self->queue, s_try_enqueue,
                                            packet);
    if (r == NULL)
        return -1;
    int accepted = PyObject_IsTrue(r);
    Py_DECREF(r);
    return accepted;
}

/* queue.dequeue(): a new reference, None when empty, NULL on error. */
static PyObject *
klink_dequeue(KLink *self)
{
    PyObject *items;
    long long limit;
    if (droptail_parts(self, &items, &limit)) {
        if (PyObject_Size(items) == 0)
            Py_RETURN_NONE;
        return PyObject_Vectorcall(deque_popleft, &items, 1, NULL);
    }
    return PyObject_CallMethodNoArgs(self->queue, s_dequeue);
}

static int
klink_cleared(void)
{
    PyErr_SetString(PyExc_RuntimeError, "link was cleared by the GC");
    return -1;
}

/* Put `packet` on the transmitter: _transmission_done after
 * size_bytes * 8.0 / rate_bps, as sim.schedule would. */
static int
klink_serve(KLink *self, PyObject *packet)
{
    long long size;
    if (pkt_size(packet, &size) < 0)
        return -1;
    double delay = (double)size * 8.0 / self->rate;
    if (delay < 0.0) {
        PyObject *d = PyFloat_FromDouble(delay);
        if (d != NULL) {
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule in the past (delay=%R)", d);
            Py_DECREF(d);
        }
        return -1;
    }
    return core_push_link(self->core, self->core->now + delay,
                          (PyObject *)self, packet);
}

static int
klink_receive(KLink *self, PyObject *packet)
{
    if (self->core == NULL)
        return klink_cleared();
    KLinkStats *stats = self->stats;
    stats->arrivals++;
    if (self->loss_rate > 0.0) {
        if (self->loss_rng == NULL) {
            PyErr_SetString(PyExc_AttributeError, "loss_rng");
            return -1;
        }
        PyObject *r = PyObject_CallMethodNoArgs(self->loss_rng, s_random);
        if (r == NULL)
            return -1;
        double draw = PyFloat_AsDouble(r);
        Py_DECREF(r);
        if (draw == -1.0 && PyErr_Occurred())
            return -1;
        if (draw < self->loss_rate) {
            stats->drops++;
            return 0;
        }
    }
    PyObject *items;
    long long limit;
    if (!self->busy && droptail_parts(self, &items, &limit)
            && PyObject_Size(items) == 0 && limit > 0) {
        /* Idle transmitter, empty drop-tail queue: enqueue + dequeue
         * would hand this very packet back. */
        self->busy = 1;
        return klink_serve(self, packet);
    }
    int accepted = klink_enqueue(self, packet);
    if (accepted <= 0) {
        if (accepted == 0)
            stats->drops++;
        return accepted;
    }
    if (self->busy)
        return 0;
    PyObject *head = klink_dequeue(self);
    if (head == NULL)
        return -1;
    int rc = 0;
    if (head != Py_None) {
        self->busy = 1;
        rc = klink_serve(self, head);
    }
    Py_DECREF(head);
    return rc;
}

static int
klink_pipe_push(KLink *self, double time, PyObject *packet)
{
    if (self->pipe_len == self->pipe_cap) {
        Py_ssize_t cap = self->pipe_cap ? self->pipe_cap * 2 : 8;
        kwire *wire = PyMem_Malloc((size_t)cap * sizeof(kwire));
        if (wire == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < self->pipe_len; i++)
            wire[i] = self->pipe[(self->pipe_head + i) % self->pipe_cap];
        PyMem_Free(self->pipe);
        self->pipe = wire;
        self->pipe_head = 0;
        self->pipe_cap = cap;
    }
    Py_ssize_t tail = (self->pipe_head + self->pipe_len) % self->pipe_cap;
    self->pipe[tail].time = time;
    self->pipe[tail].packet = Py_NewRef(packet);
    self->pipe_len++;
    return 0;
}

static int
klink_transmission_done(PyObject *link, PyObject *packet)
{
    KLink *self = (KLink *)link;
    if (self->core == NULL)
        return klink_cleared();
    long long size;
    if (pkt_size(packet, &size) < 0)
        return -1;
    self->stats->bytes_sent += size;
    double now = self->core->now;
    double deliver_at = now + self->delay;
    if (self->pipe_len) {
        /* The delay shrank mid-run: clamp to the tail (FIFO wire). */
        double tail = self->pipe[(self->pipe_head + self->pipe_len - 1)
                                 % self->pipe_cap].time;
        if (tail > deliver_at)
            deliver_at = tail;
    }
    if (klink_pipe_push(self, deliver_at, packet) < 0)
        return -1;
    if (self->pipe_idle) {
        self->pipe_idle = 0;
        if (deliver_at < now) {
            PyObject *at = PyFloat_FromDouble(deliver_at);
            if (at != NULL) {
                core_before_now(self->core, "cannot schedule at", at);
                Py_DECREF(at);
            }
            return -1;
        }
        if (core_push_link(self->core, deliver_at, link, NULL) < 0)
            return -1;
    }
    PyObject *next = klink_dequeue(self);
    if (next == NULL)
        return -1;
    int rc = 0;
    if (next != Py_None)
        rc = klink_serve(self, next);
    else
        self->busy = 0;
    Py_DECREF(next);
    return rc;
}

/* Hand a packet whose propagation completed to its next hop: a C link
 * directly, anything else through receive/on_data. */
static int
klink_forward(PyObject *packet)
{
    PyObject *value = pkt_get(packet, off_hop, s_hop);
    if (value == NULL)
        return -1;
    Py_ssize_t hop = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    if (hop == -1 && PyErr_Occurred())
        return -1;
    hop++;
    value = PyLong_FromSsize_t(hop);
    if (value == NULL)
        return -1;
    int rc;
    if (off_hop >= 0 && Py_IS_TYPE(packet, packet_type)) {
        Py_XSETREF(SLOT(packet, off_hop), value);
        rc = 0;
    }
    else {
        rc = PyObject_SetAttr(packet, s_hop, value);
        Py_DECREF(value);
    }
    if (rc < 0)
        return -1;
    PyObject *path = pkt_get(packet, off_path, s_path);
    if (path == NULL)
        return -1;
    Py_ssize_t n = PyObject_Size(path);
    PyObject *target, *res;
    if (n < 0) {
        Py_DECREF(path);
        return -1;
    }
    if (hop < n) {
        target = PySequence_GetItem(path, hop);
        Py_DECREF(path);
        if (target == NULL)
            return -1;
        if (Py_IS_TYPE(target, &KLinkType)) {
            rc = klink_receive((KLink *)target, packet);
            Py_DECREF(target);
            return rc;
        }
        res = PyObject_CallMethodOneArg(target, s_receive, packet);
    }
    else {
        Py_DECREF(path);
        target = pkt_get(packet, off_endpoint, s_endpoint);
        if (target == NULL)
            return -1;
        res = PyObject_CallMethodOneArg(target, s_on_data, packet);
    }
    Py_DECREF(target);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static int
klink_deliver(PyObject *link)
{
    KLink *self = (KLink *)link;
    if (self->core == NULL)
        return klink_cleared();
    double now = self->core->now;
    while (self->pipe_len && self->pipe[self->pipe_head].time <= now) {
        PyObject *packet = self->pipe[self->pipe_head].packet;
        self->pipe_head = (self->pipe_head + 1) % self->pipe_cap;
        self->pipe_len--;
        int rc = klink_forward(packet);
        Py_DECREF(packet);
        if (rc < 0)
            return -1;
    }
    if (self->pipe_len)
        return core_push_link(self->core, self->pipe[self->pipe_head].time,
                              link, NULL);
    self->pipe_idle = 1;
    return 0;
}

/* Link(sim, rate_bps, delay, queue=None, name="link", *,
 *      loss_rate=0.0, loss_rng=None) */
static PyObject *
klink_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "rate_bps", "delay", "queue", "name",
                             "loss_rate", "loss_rng", NULL};
    PyObject *sim, *rate_obj, *delay_obj, *queue = Py_None, *name = NULL;
    PyObject *loss_obj = NULL, *loss_rng = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO|OO$OO:Link", kwlist,
                                     &sim, &rate_obj, &delay_obj, &queue,
                                     &name, &loss_obj, &loss_rng))
        return NULL;
    if (link_statics_ready() < 0)
        return NULL;
    double rate = PyFloat_AsDouble(rate_obj);
    if (rate == -1.0 && PyErr_Occurred())
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    double loss_rate = 0.0;
    if (loss_obj != NULL) {
        loss_rate = PyFloat_AsDouble(loss_obj);
        if (loss_rate == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (rate <= 0.0) {
        PyErr_SetString(PyExc_ValueError, "link rate must be positive");
        return NULL;
    }
    if (delay < 0.0) {
        PyErr_SetString(PyExc_ValueError,
                        "propagation delay cannot be negative");
        return NULL;
    }
    if (!(0.0 <= loss_rate && loss_rate < 1.0)) {
        PyErr_SetString(PyExc_ValueError, "loss_rate must be in [0, 1)");
        return NULL;
    }
    if (loss_rate > 0.0 && loss_rng == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "loss_rate needs a loss_rng for reproducible "
                        "channel drops");
        return NULL;
    }
    PyObject *clock = PyObject_GetAttr(sim, s_clock);
    if (clock == NULL)
        return NULL;
    if (!Py_IS_TYPE(clock, &EngineCoreType)) {
        Py_DECREF(clock);
        PyErr_SetString(PyExc_TypeError,
                        "the compiled Link needs a compiled Simulator "
                        "(sim.clock must be an EngineCore)");
        return NULL;
    }
    KLink *self = (KLink *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(clock);
        return NULL;
    }
    self->core = (EngineCore *)clock;
    self->sim = Py_NewRef(sim);
    self->stats = PyObject_New(KLinkStats, &KLinkStatsType);
    if (self->stats == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->stats->arrivals = self->stats->drops = 0;
    self->stats->bytes_sent = 0;
    self->stats->since = 0.0;
    self->queue = (queue == Py_None
                   ? PyObject_CallNoArgs((PyObject *)droptail_type)
                   : Py_NewRef(queue));
    if (self->queue == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->droptail = (Py_IS_TYPE(self->queue, droptail_type)
                      && off_limit >= 0 && off_items >= 0);
    self->name = (name != NULL ? Py_NewRef(name)
                               : PyUnicode_FromString("link"));
    self->numbers[0] = Py_NewRef(rate_obj);
    self->numbers[1] = Py_NewRef(delay_obj);
    self->numbers[2] = (loss_obj != NULL ? Py_NewRef(loss_obj)
                                         : PyFloat_FromDouble(0.0));
    if (self->name == NULL || self->numbers[2] == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->rate = rate;
    self->delay = delay;
    self->loss_rate = loss_rate;
    self->loss_rng = Py_NewRef(loss_rng);
    self->pipe_idle = 1;
    return (PyObject *)self;
}

static int
klink_traverse(KLink *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    Py_VISIT(self->sim);
    Py_VISIT(self->queue);
    Py_VISIT(self->stats);
    Py_VISIT(self->name);
    Py_VISIT(self->loss_rng);
    for (int i = 0; i < 3; i++)
        Py_VISIT(self->numbers[i]);
    for (Py_ssize_t i = 0; i < self->pipe_len; i++)
        Py_VISIT(self->pipe[(self->pipe_head + i) % self->pipe_cap].packet);
    return 0;
}

static int
klink_clear(KLink *self)
{
    Py_CLEAR(self->core);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->name);
    Py_CLEAR(self->loss_rng);
    for (int i = 0; i < 3; i++)
        Py_CLEAR(self->numbers[i]);
    /* Empty the pipe first: a DECREF may re-enter traverse. */
    Py_ssize_t n = self->pipe_len;
    self->pipe_len = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(self->pipe[(self->pipe_head + i) % self->pipe_cap].packet);
    return 0;
}

static void
klink_dealloc(KLink *self)
{
    PyObject_GC_UnTrack(self);
    klink_clear(self);
    PyMem_Free(self->pipe);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
klink_py_receive(KLink *self, PyObject *packet)
{
    if (klink_receive(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
klink_py_transmission_done(KLink *self, PyObject *packet)
{
    if (klink_transmission_done((PyObject *)self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
klink_py_deliver(KLink *self, PyObject *Py_UNUSED(ignored))
{
    if (klink_deliver((PyObject *)self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* rate_bps, delay, loss_rate: closure = index into numbers[]. */
static PyObject *
klink_get_number(KLink *self, void *closure)
{
    PyObject *value = self->numbers[(Py_ssize_t)closure];
    return value != NULL ? Py_NewRef(value) : Py_NewRef(Py_None);
}

static int
klink_set_number(KLink *self, PyObject *value, void *closure)
{
    Py_ssize_t which = (Py_ssize_t)closure;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete attribute");
        return -1;
    }
    double number = PyFloat_AsDouble(value);
    if (number == -1.0 && PyErr_Occurred())
        return -1;
    Py_XSETREF(self->numbers[which], Py_NewRef(value));
    *(which == 0 ? &self->rate
      : which == 1 ? &self->delay : &self->loss_rate) = number;
    return 0;
}

static PyObject *
klink_repr(KLink *self)
{
    char *mbps = PyOS_double_to_string(self->rate / 1e6, 'f', 1, 0, NULL);
    char *ms = PyOS_double_to_string(self->delay * 1e3, 'f', 1, 0, NULL);
    PyObject *r = NULL;
    if (mbps != NULL && ms != NULL)
        r = PyUnicode_FromFormat("Link(%S, %s Mbps, %s ms)",
                                 self->name != NULL ? self->name : Py_None,
                                 mbps, ms);
    PyMem_Free(mbps);
    PyMem_Free(ms);
    return r;
}

static PyMethodDef klink_methods[] = {
    {"receive", (PyCFunction)klink_py_receive, METH_O,
     "Packet arrives at this link's ingress."},
    {"_transmission_done", (PyCFunction)klink_py_transmission_done, METH_O,
     "Service event: the packet is on the wire."},
    {"_deliver", (PyCFunction)klink_py_deliver, METH_NOARGS,
     "Deliver every packet whose propagation has completed."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef klink_members[] = {
    {"sim", T_OBJECT, offsetof(KLink, sim), READONLY,
     "The Simulator this link schedules into."},
    {"clock", T_OBJECT, offsetof(KLink, core), READONLY,
     "The time source (the engine core)."},
    {"queue", T_OBJECT, offsetof(KLink, queue), READONLY,
     "The egress queue object passed in (a DropTailQueue by default)."},
    {"stats", T_OBJECT, offsetof(KLink, stats), READONLY,
     "Per-link counters (LinkStats)."},
    {"name", T_OBJECT, offsetof(KLink, name), 0, "Link name."},
    {"loss_rng", T_OBJECT, offsetof(KLink, loss_rng), 0,
     "RNG of the channel-loss draws."},
    {NULL, 0, 0, 0, NULL}
};

static PyGetSetDef klink_getset[] = {
    {"rate_bps", (getter)klink_get_number, (setter)klink_set_number,
     "Rate in bits/s; a new rate applies from the next transmission.",
     (void *)0},
    {"delay", (getter)klink_get_number, (setter)klink_set_number,
     "Propagation delay in seconds (the pipe stays FIFO when it shrinks).",
     (void *)1},
    {"loss_rate", (getter)klink_get_number, (setter)klink_set_number,
     "Channel (non-congestion) loss probability per arrival.", (void *)2},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject KLinkType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernels.Link",
    .tp_basicsize = sizeof(KLink),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled store-and-forward link (see repro.sim.link.Link).",
    .tp_new = klink_new,
    .tp_dealloc = (destructor)klink_dealloc,
    .tp_traverse = (traverseproc)klink_traverse,
    .tp_clear = (inquiry)klink_clear,
    .tp_repr = (reprfunc)klink_repr,
    .tp_methods = klink_methods,
    .tp_members = klink_members,
    .tp_getset = klink_getset,
};

/* ---------------------------------------------------------------- */
/* Module                                                           */
/* ---------------------------------------------------------------- */

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._kernels",
    .m_doc = "Compiled DES engine core and link (optional extra; the\n"
             "pure-python engine and Link remain the reference).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    struct { PyObject **slot; const char *text; } strings[] = {
        {&s_transmission_done, "_transmission_done"},
        {&s_deliver, "_deliver"}, {&s_receive, "receive"},
        {&s_on_data, "on_data"}, {&s_try_enqueue, "try_enqueue"},
        {&s_dequeue, "dequeue"}, {&s_random, "random"},
        {&s_endpoint, "endpoint"}, {&s_size_bytes, "size_bytes"},
        {&s_path, "path"}, {&s_hop, "hop"}, {&s_clock, "clock"},
    };
    for (size_t i = 0; i < sizeof(strings) / sizeof(strings[0]); i++) {
        if (*strings[i].slot == NULL
                && (*strings[i].slot =
                    PyUnicode_InternFromString(strings[i].text)) == NULL)
            return NULL;
    }
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL)
        return NULL;
    PyTypeObject *types[] = { &KEventType, &EngineCoreType, &KLinkStatsType,
                              &KLinkType };
    const char *names[] = { "Event", "EngineCore", "LinkStats", "Link" };
    for (int i = 0; i < 4; i++) {
        if (PyType_Ready(types[i]) < 0) {
            Py_DECREF(m);
            return NULL;
        }
        if (PyModule_AddObjectRef(m, names[i], (PyObject *)types[i]) < 0) {
            Py_DECREF(m);
            return NULL;
        }
    }
    return m;
}
