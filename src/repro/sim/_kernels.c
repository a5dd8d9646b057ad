/* Compiled DES engine core.
 *
 * Optional CPython extension backing `repro.sim.engine.Simulator`:
 * EngineCore fuses the event heap and the dispatch loop.  Entries live
 * as C structs in a binary heap keyed (time, seq) (no per-event tuple
 * at all), Event handles are a C type recycled through a C free list,
 * and run()/run_until_empty() dispatch callbacks without touching the
 * Python interpreter between events.  Its observable behaviour —
 * dispatch order, clock updates, cancellation, the trace hook, error
 * messages — is bit-identical to the pure-python Simulator loop, which
 * the golden traces and tests/test_sim_kernels.py enforce.
 *
 * The pure-python engine remains the reference; this module is an
 * optional extra (`python setup.py build_ext --inplace`) and the
 * Simulator degrades to the pure loop when the import fails.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include "structmember.h"

/* ---------------------------------------------------------------- */
/* kentry: one pending event, unpacked: the callback, its argument  */
/* tuple and the Event handle.  (time, seq) is the unique sort key. */
/* ---------------------------------------------------------------- */

typedef struct {
    double time;
    long long seq;
    PyObject *fn;    /* owned */
    PyObject *args;  /* owned */
    PyObject *ev;    /* owned */
} kentry;

static inline void
kentry_release(kentry *e)
{
    Py_DECREF(e->fn);
    Py_DECREF(e->args);
    Py_DECREF(e->ev);
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

/* One popped entry: skip it when cancelled, else clock, counters,
 * trace hook, the call.  Recycles the entry either way.  Returns 1
 * for a skipped entry, 0 for a dispatched one and -1 with an
 * exception set when the callback (or the trace hook) raised. */
static inline int
core_dispatch(EngineCore *self, kentry *e)
{
    KEvent *ev = (KEvent *)e->ev;
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
/* Module                                                           */
/* ---------------------------------------------------------------- */

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._kernels",
    .m_doc = "Compiled DES engine core (optional extra; the\n"
             "pure-python engine remains the reference).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL)
        return NULL;
    PyTypeObject *types[] = { &KEventType, &EngineCoreType };
    const char *names[] = { "Event", "EngineCore" };
    for (int i = 0; i < 2; i++) {
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
