/* Accelerated discrete-event kernel.
 *
 * A drop-in replacement for repro.sim.engine.Simulator implementing the
 * identical scheduling semantics — events fire in non-decreasing time
 * order with FIFO tie-breaking by scheduling sequence, cancellation is
 * O(1), `run(until=...)` is a closed interval — at C speed.
 *
 * Queue structure: one binary heap of entries ordered on (time, seq),
 * as the pure-Python engine's heapq of (time, seq, Event) triples, so
 * both kernels pop the same entries in the same order.  Cancelled events
 * stay in place and are skipped when popped.  When the queue has doubled
 * since the last check, holds at least 8,192 entries and at least a
 * quarter of them are dead, it is compacted in place (see maybe_compact),
 * so cancel-heavy long campaigns stop carrying dead entries.
 *
 * The Medium type further down runs the wireless channel's
 * per-reception work for repro.net.channel.Channel, each node's CSMA MAC
 * for repro.net.mac.CsmaMac and the route-request flood and addressed
 * forwarding of each honest repro.routing.ondemand.OnDemandRouting, and
 * pushes their events straight into this queue as steps: entries
 * without an Event handle.  The Guard type runs LITEWORP's per-frame
 * hooks (repro.core.agent, repro.core.monitor).  Both read the Python
 * objects through the Layout type: one per loaded kernel, made in Python
 * (repro.sim.accel.kernel_layout), it holds every class read by slot
 * offset with its offsets and every reference method a C path stands in
 * for.  In a large network the medium prefetches a batch's receiver
 * state in stages before it finishes the receptions (batch_prefetch).
 *
 * Built on demand by repro.sim.accel; the pure-Python engine,
 * Channel's per-receiver path, CsmaMac and OnDemandRouting remain the
 * reference implementations and the fallback.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* The exception class raised for scheduler misuse.  Injected from
 * repro.sim.engine so callers catch the same SimulationError whichever
 * engine is active; falls back to RuntimeError if never set. */
static PyObject *sim_error = NULL;

static PyObject *
error_class(void)
{
    return sim_error ? sim_error : PyExc_RuntimeError;
}

/* ------------------------------------------------------------------ */
/* Event                                                              */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject_HEAD
    double time;
    unsigned long long seq;
    PyObject *callback;
    PyObject *args;     /* tuple or NULL */
    PyObject *kwargs;   /* dict or NULL */
    char cancelled;
    char fired;
} EventObj;

static PyTypeObject EventType;

static void
Event_dealloc(EventObj *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->kwargs);
    PyObject_GC_Del(self);
}

static int
Event_traverse(EventObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->args);
    Py_VISIT(self->kwargs);
    return 0;
}

static int
Event_clear_gc(EventObj *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->kwargs);
    return 0;
}

static PyObject *
Event_cancel(EventObj *self, PyObject *Py_UNUSED(ignored))
{
    if (!self->fired)
        self->cancelled = 1;
    Py_RETURN_NONE;
}

static PyObject *
Event_get_cancelled(EventObj *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
Event_get_fired(EventObj *self, void *closure)
{
    return PyBool_FromLong(self->fired);
}

static PyObject *
Event_get_pending(EventObj *self, void *closure)
{
    return PyBool_FromLong(!(self->cancelled || self->fired));
}

static PyObject *
Event_repr(EventObj *self)
{
    const char *state = self->cancelled ? "cancelled"
                        : (self->fired ? "fired" : "pending");
    PyObject *time = PyFloat_FromDouble(self->time);
    if (time == NULL)
        return NULL;
    PyObject *repr = PyUnicode_FromFormat("<Event t=%R %R [%s]>", time,
                                          self->callback, state);
    Py_DECREF(time);
    return repr;
}

static PyMethodDef Event_methods[] = {
    {"cancel", (PyCFunction)Event_cancel, METH_NOARGS,
     "Prevent the callback from running.  Idempotent."},
    {NULL}
};

static PyGetSetDef Event_getset[] = {
    {"cancelled", (getter)Event_get_cancelled, NULL,
     "Whether cancel() was called before the event fired.", NULL},
    {"fired", (getter)Event_get_fired, NULL,
     "Whether the event's callback has run.", NULL},
    {"pending", (getter)Event_get_pending, NULL,
     "Whether the event is still waiting to fire.", NULL},
    {NULL}
};

static PyMemberDef Event_members[] = {
    {"time", T_DOUBLE, offsetof(EventObj, time), READONLY,
     "Absolute virtual time at which the event fires."},
    {"callback", T_OBJECT, offsetof(EventObj, callback), READONLY, ""},
    {"args", T_OBJECT, offsetof(EventObj, args), READONLY, ""},
    {"kwargs", T_OBJECT, offsetof(EventObj, kwargs), READONLY, ""},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Event",
    .tp_basicsize = sizeof(EventObj),
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_repr = (reprfunc)Event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear_gc,
    .tp_methods = Event_methods,
    .tp_getset = Event_getset,
    .tp_members = Event_members,
    .tp_doc = "A scheduled callback (accelerated kernel).",
};

/* ev's callback(*args, **kwargs) */
static PyObject *
call_event(EventObj *ev)
{
    if (ev->kwargs) {
        PyObject *args = ev->args;
        if (!args) {
            args = PyTuple_New(0);
            if (!args)
                return NULL;
            PyObject *r = PyObject_Call(ev->callback, args, ev->kwargs);
            Py_DECREF(args);
            return r;
        }
        return PyObject_Call(ev->callback, args, ev->kwargs);
    }
    if (ev->args)
        return PyObject_CallObject(ev->callback, ev->args);
    return PyObject_CallNoArgs(ev->callback);
}

/* 0 for a call's result (dropped), -1 for its failure. */
static int
discard(PyObject *r)
{
    if (!r)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Queue storage                                                      */
/* ------------------------------------------------------------------ */
/* A queue entry is either an Event, the handle schedule() returns, or a
 * step: one of the Medium's own events (a MAC attempt or next-frame, a
 * flood decision, a transmission's finish), which no Python code ever
 * sees and so needs no handle.  A step is a plain C struct the queue
 * owns; it cannot be cancelled, so it is always live.  Both kinds take
 * a sequence number from the same counter, so they interleave exactly as
 * Events would. */
typedef struct Step Step;       /* see "Steps" in the Medium section */
static int step_fire(Step *st);
static void step_free(Step *st);
static int step_traverse(Step *st, visitproc visit, void *arg);

typedef struct {
    double time;
    unsigned long long seq;
    EventObj *ev;               /* strong reference, or NULL for a step */
    Step *step;                 /* owned, or NULL for an Event */
} Entry;

/* Whether popping the entry does nothing: a cancelled or fired Event. */
static inline int
entry_dead(const Entry *e)
{
    return e->ev && (e->ev->cancelled || e->ev->fired);
}

/* Release what the queue holds of an entry. */
static void
entry_drop(Entry e)
{
    if (e.step)
        step_free(e.step);
    else
        Py_DECREF(e.ev);
}

/* Run a popped live entry and release it; 0, or -1 with an error set. */
static int
entry_fire(Entry e)
{
    if (e.step)
        return step_fire(e.step);
    e.ev->fired = 1;
    PyObject *r = call_event(e.ev);
    Py_DECREF(e.ev);
    return discard(r);
}

#define ENTRY_LT(a, b) \
    ((a).time < (b).time || ((a).time == (b).time && (a).seq < (b).seq))

typedef struct {
    Entry *data;
    Py_ssize_t size;
    Py_ssize_t cap;
} Heap;

static void
heap_sift_up(Entry *data, Py_ssize_t i)
{
    Entry e = data[i];
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (ENTRY_LT(e, data[p])) {
            data[i] = data[p];
            i = p;
        } else
            break;
    }
    data[i] = e;
}

static void
heap_sift_down(Entry *data, Py_ssize_t n, Py_ssize_t i)
{
    Entry e = data[i];
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && ENTRY_LT(data[c + 1], data[c]))
            c++;
        if (ENTRY_LT(data[c], e)) {
            data[i] = data[c];
            i = c;
        } else
            break;
    }
    data[i] = e;
}

static void
heapify(Entry *data, Py_ssize_t n)
{
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--)
        heap_sift_down(data, n, i);
}

/* ------------------------------------------------------------------ */
/* Simulator                                                          */
/* ------------------------------------------------------------------ */
typedef struct {
    PyObject_HEAD
    double now;
    unsigned long long seq;
    Heap queue;
    unsigned long long processed;
    Py_ssize_t last_live;       /* live count at last compaction check */
    unsigned long long compactions;
    char running;
} SimObj;

/* Push an entry (steals the Entry's reference to ev). */
static int
queue_push(SimObj *self, Entry e)
{
    Heap *q = &self->queue;
    if (q->size == q->cap) {
        Py_ssize_t cap = q->cap ? q->cap * 2 : 8;
        Entry *data = PyMem_Realloc(q->data, (size_t)cap * sizeof(Entry));
        if (!data) {
            PyErr_NoMemory();
            return -1;
        }
        q->data = data;
        q->cap = cap;
    }
    q->data[q->size++] = e;
    heap_sift_up(q->data, q->size - 1);
    return 0;
}

/* Pop the minimum entry; the queue must not be empty. */
static Entry
queue_pop(SimObj *self)
{
    Heap *q = &self->queue;
    Entry top = q->data[0];
    q->data[0] = q->data[--q->size];
    if (q->size)
        heap_sift_down(q->data, q->size, 0);
    return top;
}

/* The next entry due at or before `until`: pops the dead entries ahead
 * of it and returns the live minimum, still queued, or NULL when none is
 * due.  Like the reference, it stops at the first entry past `until`,
 * dead or not. */
static Entry *
queue_next(SimObj *self, double until)
{
    Heap *q = &self->queue;
    while (q->size) {
        Entry *top = &q->data[0];
        if (top->time > until)
            return NULL;
        if (!entry_dead(top))
            return top;
        Py_DECREF(queue_pop(self).ev);
    }
    return NULL;
}

/* Drop cancelled/fired entries and restore heap order. */
static void
queue_compact(SimObj *self)
{
    Heap *q = &self->queue;
    Py_ssize_t w = 0;
    for (Py_ssize_t r = 0; r < q->size; r++) {
        if (entry_dead(&q->data[r]))
            Py_DECREF(q->data[r].ev);
        else
            q->data[w++] = q->data[r];
    }
    q->size = w;
    heapify(q->data, w);
    self->compactions++;
    self->last_live = w;
}

/* Entries that will still run: steps and pending Events. */
static Py_ssize_t
queue_live(SimObj *self)
{
    Py_ssize_t live = 0;
    for (Py_ssize_t r = 0; r < self->queue.size; r++)
        live += !entry_dead(&self->queue.data[r]);
    return live;
}

/* Amortized compaction: when the queue has doubled since the last
 * check, count the dead fraction and compact if it exceeds 25%. */
static void
maybe_compact(SimObj *self)
{
    Py_ssize_t total = self->queue.size;
    if (total < 8192 || total <= 2 * self->last_live)
        return;
    Py_ssize_t live = queue_live(self);
    if ((total - live) * 4 >= total)
        queue_compact(self);
    else
        self->last_live = live;
}

/* ------------------------------------------------------------------ */
/* Simulator type methods                                             */
/* ------------------------------------------------------------------ */
/* Empty the queue, dropping its entries, each Event cancelled and
 * cleared first when `cancel`.  The queue is emptied and its array
 * detached before any entry is dropped, because dropping one may run
 * code that schedules. */
static void
queue_drain(SimObj *self, int cancel)
{
    Entry *data = self->queue.data;
    Py_ssize_t n = self->queue.size;
    memset(&self->queue, 0, sizeof(Heap));
    self->last_live = 0;
    for (Py_ssize_t r = 0; r < n; r++) {
        EventObj *ev = data[r].ev;
        if (ev && cancel) {
            if (!ev->fired)
                ev->cancelled = 1;
            Event_clear_gc(ev);
        }
        entry_drop(data[r]);
    }
    PyMem_Free(data);
}

static void
Sim_dealloc(SimObj *self)
{
    PyObject_GC_UnTrack(self);
    queue_drain(self, 0);
    PyObject_GC_Del(self);
}

static int
Sim_traverse(SimObj *self, visitproc visit, void *arg)
{
    for (Py_ssize_t r = 0; r < self->queue.size; r++) {
        Entry *e = &self->queue.data[r];
        if (!e->step)
            Py_VISIT(e->ev);
        else {
            int vret = step_traverse(e->step, visit, arg);
            if (vret)
                return vret;
        }
    }
    return 0;
}

static int
Sim_clear_gc(SimObj *self)
{
    queue_drain(self, 0);
    return 0;
}

static PyObject *
Sim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"start_time", NULL};
    double start_time = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d", kwlist, &start_time))
        return NULL;
    SimObj *self = (SimObj *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    self->now = start_time;
    return (PyObject *)self;
}

/* Scheduling core: queue callback(*args, **kwargs) at absolute time
 * `time` and return the new Event.  Takes over the references to args
 * (a tuple or NULL) and kwargs (a dict or NULL). */
static PyObject *
sim_push(SimObj *self, double time, PyObject *callback, PyObject *args,
         PyObject *kwargs)
{
    EventObj *ev = PyObject_GC_New(EventObj, &EventType);
    if (!ev) {
        Py_XDECREF(args);
        Py_XDECREF(kwargs);
        return NULL;
    }
    ev->time = time;
    ev->seq = self->seq++;
    ev->callback = Py_NewRef(callback);
    ev->args = args;
    ev->kwargs = kwargs;
    ev->cancelled = 0;
    ev->fired = 0;
    PyObject_GC_Track((PyObject *)ev);
    Entry e = {time, ev->seq, (EventObj *)Py_NewRef((PyObject *)ev)};
    if (queue_push(self, e) < 0) {
        Py_DECREF(ev);  /* queue's reference */
        Py_DECREF(ev);
        return NULL;
    }
    maybe_compact(self);
    return (PyObject *)ev;
}

/* Queue a step at absolute time `time`, taking it over; 0 or -1. */
static int
sim_push_step(SimObj *self, double time, Step *st)
{
    Entry e = {time, self->seq++, NULL, st};
    if (queue_push(self, e) < 0) {
        step_free(st);
        return -1;
    }
    maybe_compact(self);
    return 0;
}

/* schedule/schedule_at: args[1] is the callback, then its arguments. */
static PyObject *
schedule_common(SimObj *self, double time, PyObject *const *args,
                Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *call_args = NULL, *kwargs = NULL;
    if (nargs > 2) {
        call_args = PyTuple_New(nargs - 2);
        if (!call_args)
            return NULL;
        for (Py_ssize_t i = 2; i < nargs; i++)
            PyTuple_SET_ITEM(call_args, i - 2, Py_NewRef(args[i]));
    }
    if (kwnames && PyTuple_GET_SIZE(kwnames)) {
        kwargs = PyDict_New();
        if (!kwargs) {
            Py_XDECREF(call_args);
            return NULL;
        }
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            if (PyDict_SetItem(kwargs, PyTuple_GET_ITEM(kwnames, i),
                               args[nargs + i]) < 0) {
                Py_XDECREF(call_args);
                Py_DECREF(kwargs);
                return NULL;
            }
        }
    }
    return sim_push(self, time, args[1], call_args, kwargs);
}

static PyObject *
Sim_schedule(SimObj *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args, **kwargs)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (!isfinite(delay)) {
        PyErr_Format(error_class(), "delay must be finite, got %R", args[0]);
        return NULL;
    }
    if (delay < 0.0) {
        PyErr_Format(error_class(), "delay must be non-negative, got %R",
                     args[0]);
        return NULL;
    }
    return schedule_common(self, self->now + delay, args, nargs, kwnames);
}

static PyObject *
Sim_schedule_at(SimObj *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback, *args, **kwargs)");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (!isfinite(time)) {
        PyErr_Format(error_class(), "event time must be finite, got %R",
                     args[0]);
        return NULL;
    }
    if (time < self->now) {
        PyObject *now = PyFloat_FromDouble(self->now);
        if (now != NULL) {
            PyErr_Format(error_class(),
                         "cannot schedule in the past: t=%R < now=%R",
                         args[0], now);
            Py_DECREF(now);
        }
        return NULL;
    }
    return schedule_common(self, time, args, nargs, kwnames);
}

static PyObject *
Sim_run(SimObj *self, PyObject *const *args, Py_ssize_t nargs,
        PyObject *kwnames)
{
    PyObject *until_obj = NULL;
    PyObject *max_obj = NULL;
    if (nargs >= 1)
        until_obj = args[0];
    if (nargs >= 2)
        max_obj = args[1];
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "run(until=None, max_events=None)");
        return NULL;
    }
    if (kwnames) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "until") == 0)
                until_obj = value;
            else if (PyUnicode_CompareWithASCIIString(name, "max_events") == 0)
                max_obj = value;
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    int has_until = until_obj && until_obj != Py_None;
    double until = 0.0;
    if (has_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        if (until < self->now) {
            PyObject *now = PyFloat_FromDouble(self->now);
            if (now != NULL) {
                PyErr_Format(error_class(),
                             "until=%R is in the past (now=%R)", until_obj,
                             now);
                Py_DECREF(now);
            }
            return NULL;
        }
    }
    int has_max = max_obj && max_obj != Py_None;
    long long max_events = 0;
    if (has_max) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->running) {
        PyErr_SetString(error_class(),
                        "simulator is already running (re-entrant run())");
        return NULL;
    }
    self->running = 1;
    long long executed = 0;
    double horizon = has_until ? until : INFINITY;
    while (queue_next(self, horizon)) {
        Entry e = queue_pop(self);
        self->now = e.time;
        if (entry_fire(e) < 0) {
            self->running = 0;
            return NULL;
        }
        self->processed++;
        executed++;
        if (has_max && executed >= max_events)
            break;
    }
    if (has_until && self->now < until)
        self->now = until;
    self->running = 0;
    Py_RETURN_NONE;
}

static PyObject *
Sim_step(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    if (!queue_next(self, INFINITY))
        Py_RETURN_FALSE;
    Entry e = queue_pop(self);
    self->now = e.time;
    if (entry_fire(e) < 0)
        return NULL;
    self->processed++;
    Py_RETURN_TRUE;
}

static PyObject *
Sim_peek_time(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    Entry *next = queue_next(self, INFINITY);
    if (!next)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(next->time);
}

static PyObject *
Sim_compact(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    queue_compact(self);
    Py_RETURN_NONE;
}

/* The end of a simulator's life: empty the queue, cancelling each queued
 * event and dropping its callback and arguments, and freeing each step,
 * so nothing stays reachable through them.  The clock and the counters
 * stay readable. */
static PyObject *
Sim_release(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    if (self->running) {
        PyErr_SetString(error_class(), "cannot release a running simulator");
        return NULL;
    }
    queue_drain(self, 1);
    Py_RETURN_NONE;
}

static PyObject *
Sim_get_now(SimObj *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
Sim_get_processed(SimObj *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->processed);
}

static PyObject *
Sim_get_pending_count(SimObj *self, void *closure)
{
    return PyLong_FromSsize_t(queue_live(self));
}

static PyObject *
Sim_get_queue_depth(SimObj *self, void *closure)
{
    return PyLong_FromSsize_t(self->queue.size);
}

static PyObject *
Sim_get_compactions(SimObj *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->compactions);
}

static PyMethodDef Sim_methods[] = {
    {"schedule", (PyCFunction)Sim_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule(delay, callback, *args, **kwargs) -> Event"},
    {"schedule_at", (PyCFunction)Sim_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule_at(time, callback, *args, **kwargs) -> Event"},
    {"run", (PyCFunction)Sim_run, METH_FASTCALL | METH_KEYWORDS,
     "run(until=None, max_events=None)"},
    {"step", (PyCFunction)Sim_step, METH_NOARGS,
     "Run exactly one pending event.  Returns False if the queue is empty."},
    {"peek_time", (PyCFunction)Sim_peek_time, METH_NOARGS,
     "Time of the next pending event, or None if the queue is empty."},
    {"compact", (PyCFunction)Sim_compact, METH_NOARGS,
     "Drop cancelled entries from the queue now (normally automatic)."},
    {"release", (PyCFunction)Sim_release, METH_NOARGS,
     "Cancel every queued event and drop it with its callback."},
    {NULL}
};

static PyGetSetDef Sim_getset[] = {
    {"now", (getter)Sim_get_now, NULL, "Current virtual time in seconds.", NULL},
    {"events_processed", (getter)Sim_get_processed, NULL,
     "Total number of callbacks executed so far.", NULL},
    {"pending_count", (getter)Sim_get_pending_count, NULL,
     "Number of not-yet-fired, not-cancelled events in the queue.", NULL},
    {"queue_depth", (getter)Sim_get_queue_depth, NULL,
     "Raw queue entries including cancelled ones (introspection).", NULL},
    {"compactions", (getter)Sim_get_compactions, NULL,
     "How many times the queue has been compacted.", NULL},
    {NULL}
};

static PyTypeObject SimType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Simulator",
    .tp_basicsize = sizeof(SimObj),
    .tp_dealloc = (destructor)Sim_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Sim_traverse,
    .tp_clear = (inquiry)Sim_clear_gc,
    .tp_methods = Sim_methods,
    .tp_getset = Sim_getset,
    .tp_new = Sim_new,
    .tp_doc = "Deterministic discrete-event scheduler (accelerated kernel).",
};

/* ------------------------------------------------------------------ */
/* Medium: the wireless channel's per-reception work                  */
/* ------------------------------------------------------------------ */
/* The C side of repro.net.channel.Channel when the channel's simulator
 * is this module's Simulator.  Channel keeps the wiring API; the Medium
 * runs Channel.transmit's body -- the stamper, the air time, the
 * transmission counter -- and everything a transmission does per
 * receiver: the half-duplex kill, the tx observers (each for all senders
 * or a set of them), admission (attached, link up, not deaf), the "receiver is
 * transmitting" collision, overlap and capture against every in-flight
 * reception, the ambient-loss draw and the unicast outcome.  It finishes
 * a transmission's receptions with one queued Batch step, in creation
 * order.  Rules, RNG draws, event order and hook calls are exactly those
 * of Channel's per-receiver reference path.
 *
 * Node ids are mapped to dense slots on first sight, so any hashable id
 * works.  A reception lives inside its Batch and is linked into its
 * receiver's in-flight list until finished; a Batch that is freed before
 * it finishes unlinks what it still holds. */

static PyObject *str_link_dst, *str_describe, *str_emit, *str_rx_lost,
    *str_collided, *str_lost, *str_on_outcome, *str_packet,
    *str_transmitter, *str_prev_hop, *str_key, *str_dkey, *str_publish,
    *str_alive, *str_frames_received, *str_frames_rejected, *str_observers,
    *str_filters, *str_listeners, *str_rtime, *str_rkind, *str_rnames,
    *str_rvalues, *str_size_bytes, *str_mac_drop, *str_arq_failure, *str_node,
    *str_frame, *str_jitter, *str_tx_range, *str_leash, *str_validator,
    *str_sinks, *str_subscribers, *str_records, *str_append, *str_total_emitted,
    *str_peak_resident, *str_request_id, *str_target, *str_hop_count, *str_path,
    *str_uid, *str_node_id, *str_send_filters, *str_origin, *str_last_loss,
    *str_destination, *str_next_hop, *str_installed_at, *str_expires_at,
    *str_usable, *str_req, *str_forward_decision, *str_payload_size;

/* Frame slots read and written by offset; the first four are
 * Frame.describe()'s values. */
enum { F_PACKET, F_TRANSMITTER, F_LINK_DST, F_PREV_HOP, F_LEASH, F_COUNT };
static PyObject **frame_names[F_COUNT] = {&str_packet, &str_transmitter,
                                          &str_link_dst, &str_prev_hop,
                                          &str_leash};
/* A Node's pipeline lists, in Node.deliver's order. */
static PyObject **pipe_names[3] = {&str_observers, &str_filters,
                                   &str_listeners};
enum { P_NODE, P_OBSERVERS, P_FILTERS, P_LISTENERS, P_COUNT };
/* TraceRecord's slots. */
static PyObject **record_names[4] = {&str_rtime, &str_rkind, &str_rnames,
                                     &str_rvalues};
/* RouteRequest's slots, read and written by offset. */
enum { R_UID, R_KEY, R_ORIGIN, R_REQUEST_ID, R_TARGET, R_HOP_COUNT, R_PATH,
       R_COUNT };
static PyObject **request_names[R_COUNT] = {&str_uid, &str_dkey, &str_origin,
                                            &str_request_id, &str_target,
                                            &str_hop_count, &str_path};
/* RouteEntry's slots, written by offset. */
enum { E_DESTINATION, E_NEXT_HOP, E_INSTALLED_AT, E_EXPIRES_AT, E_HOP_COUNT,
       E_PATH, E_REQUEST_ID, E_COUNT };
static PyObject **entry_names[E_COUNT] = {&str_destination, &str_next_hop,
                                          &str_installed_at, &str_expires_at,
                                          &str_hop_count, &str_path,
                                          &str_request_id};
/* The jitter of a forwarder's rebroadcast: Node.broadcast(..., jitter=0.0). */
static PyObject *float_zero;
/* The 1 of every `+= 1`. */
static PyObject *int_one;

/* An object slot of `obj` at `offset` (borrowed; NULL while unset). */
#define SLOT_AT(obj, offset) (*(PyObject **)((char *)(obj) + (offset)))

/* Offset of `cls`'s object slot `name`, or -1. */
static Py_ssize_t
slot_offset(PyTypeObject *cls, PyObject *name)
{
    PyObject *descr = _PyType_Lookup(cls, name);
    if (descr && Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
        if (def->type == T_OBJECT_EX)
            return def->offset;
    }
    return -1;
}

/* obj.name as a new reference, from the slot at `offset` when >= 0. */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t offset, PyObject *name)
{
    if (offset >= 0) {
        PyObject *value = SLOT_AT(obj, offset);
        if (value)
            return Py_NewRef(value);
    }
    /* Generic lookup; it also raises AttributeError for an unset slot. */
    return PyObject_GetAttr(obj, name);
}

/* ---- the slot rule, answered once per class version ---------------- */
/* CPython gives a class a fresh version tag the first time it is looked
 * up after any change to it or to a base (PyType_Modified clears the tag
 * to 0), and never hands out a tag twice.  So an answer about a class,
 * kept with the tag it was computed under, is exact while the class's
 * tag is still that one; a class without a valid tag is asked every
 * time. */
static inline unsigned int
class_tag(PyTypeObject *cls)
{
    return (cls->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG) ? cls->tp_version_tag : 0;
}

/* The answers to "does cls resolve name to the reference?", each kept
 * with the class version it was computed under.  A few classes at once:
 * one question (Packet.key) is asked of several packet classes in turn. */
enum { LOOKUP_WAYS = 4 };
typedef struct {
    unsigned int tag[LOOKUP_WAYS];
    char is[LOOKUP_WAYS];
    unsigned char next;     /* the way the next new answer goes to */
} Lookup;

/* Whether _PyType_Lookup(cls, name) is `reference` (not NULL). */
static inline int
resolves_to(Lookup *c, PyTypeObject *cls, PyObject *name, PyObject *reference)
{
    unsigned int tag = class_tag(cls);
    for (int i = 0; tag && i < LOOKUP_WAYS; i++)
        if (c->tag[i] == tag)
            return c->is[i];
    int i = c->next;
    c->next = (unsigned char)((i + 1) % LOOKUP_WAYS);
    c->is[i] = reference && _PyType_Lookup(cls, name) == reference;
    c->tag[i] = class_tag(cls);     /* the lookup may have assigned one */
    return c->is[i];
}

/* Offset of `cls`'s plain member slot for attribute `name` (one named in
 * __slots__, read and written by generic attribute access), else -1: a
 * property, a class attribute, a custom __getattribute__ or __setattr__
 * takes the generic path. */
static Py_ssize_t
member_offset(PyTypeObject *cls, PyObject *name)
{
    if (cls->tp_getattro != PyObject_GenericGetAttr ||
        cls->tp_setattro != PyObject_GenericSetAttr)
        return -1;
    PyObject *descr = _PyType_Lookup(cls, name);
    /* A member of another class set on this one must not be used. */
    if (!descr || !Py_IS_TYPE(descr, &PyMemberDescr_Type) ||
        !PyType_IsSubtype(cls, PyDescr_TYPE(descr)))
        return -1;
    PyMemberDef *def = ((PyMemberDescrObject *)descr)->d_member;
    if (def->type != T_OBJECT_EX || (def->flags & READONLY))
        return -1;
    return def->offset;
}

/* One call site's member_offset answer for its attribute, kept per
 * class version (a site reads one name, almost always of one class). */
typedef struct {
    unsigned int tag;
    Py_ssize_t offset;
} SlotRule;

/* The address of obj's slot for attribute `name` when that is a plain
 * member slot of its class, else NULL (see member_offset). */
static inline PyObject **
member_slot(SlotRule *rule, PyObject *obj, PyObject *name)
{
    PyTypeObject *cls = Py_TYPE(obj);
    unsigned int tag = class_tag(cls);
    if (!tag || rule->tag != tag) {
        rule->offset = member_offset(cls, name);
        rule->tag = class_tag(cls);
    }
    return rule->offset >= 0 ? &SLOT_AT(obj, rule->offset) : NULL;
}

/* obj.name, from its member slot when it has one.  Each of these takes
 * its call site's SlotRule. */
static inline PyObject *
attr_get(SlotRule *rule, PyObject *obj, PyObject *name)
{
    PyObject **slot = member_slot(rule, obj, name);
    if (slot && *slot)
        return Py_NewRef(*slot);
    /* Generic lookup; it also raises AttributeError for an unset slot. */
    return PyObject_GetAttr(obj, name);
}

/* obj.name = value */
static int
attr_set(SlotRule *rule, PyObject *obj, PyObject *name, PyObject *value)
{
    PyObject **slot = member_slot(rule, obj, name);
    if (!slot)
        return PyObject_SetAttr(obj, name, value);
    Py_XSETREF(*slot, Py_NewRef(value));
    return 0;
}

/* obj.name += 1 */
static int
increment(SlotRule *rule, PyObject *obj, PyObject *name)
{
    PyObject *value = attr_get(rule, obj, name);
    if (!value)
        return -1;
    PyObject *sum = PyNumber_Add(value, int_one);
    Py_DECREF(value);
    if (!sum)
        return -1;
    int rc = attr_set(rule, obj, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* Truth of obj.name */
static int
attr_true(SlotRule *rule, PyObject *obj, PyObject *name)
{
    PyObject *value = attr_get(rule, obj, name);
    if (!value)
        return -1;
    int rc = PyObject_IsTrue(value);
    Py_DECREF(value);
    return rc;
}

/* ---- the layout ------------------------------------------------------ */
/* What the kernel knows of the Python objects it reads and builds, learnt
 * once: the classes it reads and writes by slot offset (TraceRecord,
 * Packet, Frame, RouteRequest, RouteReply, DataPacket, RouteEntry) with
 * those offsets, the layouts of the records it builds (rx_lost,
 * watch_buffer, frame_rejected), packet.py's uid counter, and the
 * reference methods it stands in for: TraceLog.emit and _publish,
 * Frame.describe, Packet.key and the size_bytes properties of Frame,
 * DataPacket and RouteReply, each as its module
 * captured it at import, never as a class holds it when the layout is
 * made.  A C path stands in for one of them only while the class at hand
 * resolves the name to the reference, the one answer per method kept per
 * class version (the wrapper rule).  Made once per loaded kernel in
 * Python (repro.sim.accel.kernel_layout) and shared by every Medium and
 * Guard; a class that lacks a slot named here is refused when it is
 * made. */
enum { REF_EMIT, REF_PUBLISH, REF_DESCRIBE, REF_SIZE, REF_KEY, REF_DATA_SIZE,
       REF_REPLY_SIZE, REF_COUNT };
static PyObject **ref_names[REF_COUNT] = {&str_emit, &str_publish, &str_describe,
                                          &str_size_bytes, &str_key, &str_size_bytes,
                                          &str_size_bytes};
/* DataPacket's slots read by offset. */
enum { D_DESTINATION, D_PAYLOAD_SIZE, D_COUNT };
static PyObject **data_names[D_COUNT] = {&str_destination, &str_payload_size};
/* The record layouts, in `names`. */
enum { N_RX_LOST, N_WATCH_BUFFER, N_FRAME_REJECTED, N_COUNT };

typedef struct {
    PyObject_HEAD
    PyObject *ref[REF_COUNT];
    Lookup rule[REF_COUNT];
    PyObject *names;        /* N_COUNT interned layouts */
    PyObject *uids;         /* packet.py's uid counter */
    PyTypeObject *record_cls, *packet_cls, *frame_cls, *request_cls, *reply_cls,
        *data_cls, *entry_cls;
    Py_ssize_t record_off[4], key_off, frame_off[F_COUNT], request_off[R_COUNT],
        reply_off[R_COUNT], entry_off[E_COUNT], data_off[D_COUNT];
} LayoutObj;

static PyTypeObject LayoutType;

/* Whether `cls` resolves reference i's name to it. */
static inline int
layout_holds(LayoutObj *L, int i, PyTypeObject *cls)
{
    return resolves_to(&L->rule[i], cls, *ref_names[i], L->ref[i]);
}

/* The offsets of `cls`'s slots `names` into out[]; a TypeError for a
 * slot it lacks. */
static int
slot_offsets(PyTypeObject *cls, PyObject **const *names, int n, Py_ssize_t *out)
{
    for (int i = 0; i < n; i++)
        if ((out[i] = slot_offset(cls, *names[i])) < 0) {
            PyErr_Format(PyExc_TypeError, "%s lacks its slot %R", cls->tp_name, *names[i]);
            return -1;
        }
    return 0;
}

static PyObject *
Layout_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"emit", "publish", "describe", "size_bytes", "key",
                             "data_size", "reply_size", "names", "uids",
                             "record_cls", "packet_cls",
                             "frame_cls", "request_cls", "reply_cls", "data_cls",
                             "entry_cls", NULL};
    PyObject *ref[REF_COUNT], *names, *uids;
    PyTypeObject *cls[7];
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOOOOO!OO!O!O!O!O!O!O!:Layout", kwlist, &ref[REF_EMIT],
            &ref[REF_PUBLISH], &ref[REF_DESCRIBE], &ref[REF_SIZE], &ref[REF_KEY],
            &ref[REF_DATA_SIZE], &ref[REF_REPLY_SIZE],
            &PyTuple_Type, &names, &uids, &PyType_Type, &cls[0], &PyType_Type,
            &cls[1], &PyType_Type, &cls[2], &PyType_Type, &cls[3], &PyType_Type,
            &cls[4], &PyType_Type, &cls[5], &PyType_Type, &cls[6]))
        return NULL;
    int laid_out = PyTuple_GET_SIZE(names) == N_COUNT;
    for (Py_ssize_t i = 0; laid_out && i < N_COUNT; i++)
        laid_out = PyTuple_CheckExact(PyTuple_GET_ITEM(names, i));
    if (!laid_out) {
        PyErr_SetString(PyExc_TypeError, "names must be the three record layouts");
        return NULL;
    }
    LayoutObj *L = (LayoutObj *)type->tp_alloc(type, 0);
    if (!L)
        return NULL;
    for (int i = 0; i < REF_COUNT; i++)
        L->ref[i] = Py_NewRef(ref[i]);
    L->names = Py_NewRef(names);
    L->uids = Py_NewRef(uids);
    PyTypeObject **mine[7] = {&L->record_cls, &L->packet_cls, &L->frame_cls,
                              &L->request_cls, &L->reply_cls, &L->data_cls,
                              &L->entry_cls};
    for (int c = 0; c < 7; c++)
        *mine[c] = (PyTypeObject *)Py_NewRef((PyObject *)cls[c]);
    static PyObject **key_name[1] = {&str_dkey};
    if (slot_offsets(L->record_cls, record_names, 4, L->record_off) < 0 ||
        slot_offsets(L->packet_cls, key_name, 1, &L->key_off) < 0 ||
        slot_offsets(L->frame_cls, frame_names, F_COUNT, L->frame_off) < 0 ||
        slot_offsets(L->request_cls, request_names, R_COUNT, L->request_off) < 0 ||
        slot_offsets(L->reply_cls, request_names, R_COUNT, L->reply_off) < 0 ||
        slot_offsets(L->data_cls, data_names, D_COUNT, L->data_off) < 0 ||
        slot_offsets(L->entry_cls, entry_names, E_COUNT, L->entry_off) < 0) {
        Py_DECREF(L);
        return NULL;
    }
    return (PyObject *)L;
}

static int
Layout_traverse(LayoutObj *L, visitproc visit, void *arg)
{
    for (int i = 0; i < REF_COUNT; i++)
        Py_VISIT(L->ref[i]);
    Py_VISIT(L->names);
    Py_VISIT(L->uids);
    Py_VISIT(L->record_cls);
    Py_VISIT(L->packet_cls);
    Py_VISIT(L->frame_cls);
    Py_VISIT(L->request_cls);
    Py_VISIT(L->reply_cls);
    Py_VISIT(L->data_cls);
    Py_VISIT(L->entry_cls);
    return 0;
}

static int
Layout_clear(LayoutObj *L)
{
    for (int i = 0; i < REF_COUNT; i++)
        Py_CLEAR(L->ref[i]);
    Py_CLEAR(L->names);
    Py_CLEAR(L->uids);
    Py_CLEAR(L->record_cls);
    Py_CLEAR(L->packet_cls);
    Py_CLEAR(L->frame_cls);
    Py_CLEAR(L->request_cls);
    Py_CLEAR(L->reply_cls);
    Py_CLEAR(L->data_cls);
    Py_CLEAR(L->entry_cls);
    return 0;
}

static void
Layout_dealloc(LayoutObj *L)
{
    PyObject_GC_UnTrack(L);
    Layout_clear(L);
    PyObject_GC_Del(L);
}

static PyTypeObject LayoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Layout",
    .tp_basicsize = sizeof(LayoutObj),
    .tp_new = Layout_new,
    .tp_dealloc = (destructor)Layout_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Layout_traverse,
    .tp_clear = (inquiry)Layout_clear,
    .tp_doc = "Layout(*, emit, publish, describe, size_bytes, key, data_size,\n"
              "reply_size, names, uids,\n"
              "record_cls, packet_cls, frame_cls, request_cls, reply_cls,\n"
              "data_cls, entry_cls): what every Medium and Guard reads the\n"
              "Python objects with (see repro.sim.accel.kernel_layout).",
};

/* frame.<field>, by offset for a frame of the layout's Frame class. */
static inline PyObject *
frame_slot(LayoutObj *L, PyObject *frame, int field)
{
    Py_ssize_t offset = Py_TYPE(frame) == L->frame_cls ? L->frame_off[field] : -1;
    return slot_get(frame, offset, *frame_names[field]);
}

/* packet.key(), from the slot it is cached in while the packet is a
 * Packet whose class has the reference key(). */
static PyObject *
packet_key(LayoutObj *L, PyObject *packet)
{
    PyTypeObject *cls = Py_TYPE(packet);
    if (layout_holds(L, REF_KEY, cls) && PyType_IsSubtype(cls, L->packet_cls)) {
        PyObject *key = SLOT_AT(packet, L->key_off);
        if (key && key != Py_None)
            return Py_NewRef(key);
    }
    return PyObject_CallMethodNoArgs(packet, str_key);
}

/* ---- trace records built here --------------------------------------- */
/* The medium's rx_lost records and the guard's watch_buffer and
 * frame_rejected records are built here, as TraceLog.emit builds them,
 * while the log's class still has the reference emit: a TraceRecord of
 * the interned layout, its values in emission order, a frame's fields
 * those of Frame.describe.  Such a record is stored by TraceLog._publish's
 * body (store_record) while the class has the reference _publish and only
 * the store would see the record.  Anything else -- a wrapped emit, a
 * frame that is not a plain Frame, a wrapped describe -- calls
 * trace.emit(now, kind, **fields). */

/* Whether v can be in no reference cycle: an exact None, bool, int,
 * float or str, or an exact tuple of such values nested at most `depth`
 * deep. */
static int
is_atomic(PyObject *v, int depth)
{
    if (v == Py_None || PyBool_Check(v) || PyLong_CheckExact(v) ||
        PyFloat_CheckExact(v) || PyUnicode_CheckExact(v))
        return 1;
    if (depth == 0 || !PyTuple_CheckExact(v))
        return 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(v); i++)
        if (!is_atomic(PyTuple_GET_ITEM(v, i), depth - 1))
            return 0;
    return 1;
}

/* trace.emit(now, kind, **fields[, **frame.describe()]); takes over
 * `fields` (a dict, or NULL after a failure). */
static int
emit_call(PyObject *trace, PyObject *now, PyObject *kind, PyObject *fields,
          PyObject *frame)
{
    if (!fields)
        return -1;
    PyObject *emit = PyObject_GetAttr(trace, str_emit);
    PyObject *describe = emit && frame ? PyObject_CallMethodNoArgs(frame, str_describe) : NULL;
    PyObject *args = NULL, *r = NULL;
    if (emit && (!frame || (describe && PyDict_Update(fields, describe) == 0)) &&
        (args = PyTuple_Pack(2, now, kind)))
        r = PyObject_Call(emit, args, fields);
    Py_XDECREF(emit);
    Py_XDECREF(describe);
    Py_XDECREF(args);
    Py_DECREF(fields);
    return discard(r);
}

/* TraceLog._publish's body for a record only the store sees: no
 * validator, no sink and no subscriber to its kind.  1 when one of those
 * is there (the method must run), 0 once stored, -1 on error. */
static int
store_record(PyObject *trace, PyObject *record, PyObject *kind)
{
    static SlotRule validator_rule, sinks_rule, subscribers_rule, records_rule,
        total_rule, peak_rule;
    PyObject *validator = NULL, *sinks = NULL, *subscribers = NULL,
        *records = NULL, *peak = NULL, *size = NULL;
    int rc = -1;
    if (!(validator = attr_get(&validator_rule, trace, str_validator)) ||
        !(sinks = attr_get(&sinks_rule, trace, str_sinks)) ||
        !(subscribers = attr_get(&subscribers_rule, trace, str_subscribers)))
        goto done;
    rc = 1;
    if (validator != Py_None || !PyList_CheckExact(sinks) || PyList_GET_SIZE(sinks) ||
        !PyDict_CheckExact(subscribers) ||
        (rc = PyDict_Contains(subscribers, kind)) != 0)
        goto done;
    rc = -1;
    if (!(records = attr_get(&records_rule, trace, str_records)))
        goto done;
    if (PyList_CheckExact(records) ? PyList_Append(records, record) < 0
        : discard(PyObject_CallMethodOneArg(records, str_append, record)) < 0)
        goto done;
    if (increment(&total_rule, trace, str_total_emitted) < 0)
        goto done;
    Py_ssize_t resident = PyObject_Size(records);
    if (resident < 0 || !(peak = attr_get(&peak_rule, trace, str_peak_resident)) ||
        !(size = PyLong_FromSsize_t(resident)))
        goto done;
    int higher = PyObject_RichCompareBool(size, peak, Py_GT);
    if (higher > 0)
        higher = attr_set(&peak_rule, trace, str_peak_resident, size);
    rc = higher < 0 ? -1 : 0;
done:
    Py_XDECREF(validator);
    Py_XDECREF(sinks);
    Py_XDECREF(subscribers);
    Py_XDECREF(records);
    Py_XDECREF(peak);
    Py_XDECREF(size);
    return rc;
}

/* trace._publish(record), its body run by store_record while the log's
 * class has the reference method. */
static int
publish_record(LayoutObj *L, PyObject *trace, PyObject *record, PyObject *kind)
{
    if (layout_holds(L, REF_PUBLISH, Py_TYPE(trace))) {
        int rc = store_record(trace, record, kind);
        if (rc <= 0)
            return rc;
    }
    return discard(PyObject_CallMethodOneArg(trace, str_publish, record));
}

/* Frame.describe()'s four values (packet key, tx, dst, prev) into out[]
 * as new references: 1 when done, 0 (nothing stored, no error) when the
 * frame is not a plain Frame with the reference describe, -1 on error. */
static int
describe_values(LayoutObj *L, PyObject *frame, PyObject **out)
{
    if (Py_TYPE(frame) != L->frame_cls || !layout_holds(L, REF_DESCRIBE, L->frame_cls))
        return 0;
    PyObject *packet = frame_slot(L, frame, F_PACKET);
    if (!packet)
        return -1;
    out[0] = packet_key(L, packet);
    Py_DECREF(packet);
    if (!out[0])
        return -1;
    for (int f = F_TRANSMITTER; f < F_LEASH; f++)
        if (!(out[f] = frame_slot(L, frame, f))) {
            while (--f >= 0)
                Py_CLEAR(out[f]);
            return -1;
        }
    return 1;
}

/* trace.emit(now, kind, <names[i]>=head[i] for i < n[,
 * **frame.describe()]), where the record's whole interned layout is the
 * layout's names[layout]: built here when it can be (see above). */
static int
tracer_emit(LayoutObj *L, PyObject *trace, PyObject *now, PyObject *kind, int layout,
            PyObject *const *head, Py_ssize_t n, PyObject *frame)
{
    PyObject *names = PyTuple_GET_ITEM(L->names, layout);
    if (layout_holds(L, REF_EMIT, Py_TYPE(trace))) {
        PyObject *values = PyTuple_New(n + (frame ? F_LEASH : 0));
        if (!values)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++)
            PyTuple_SET_ITEM(values, i, Py_NewRef(head[i]));
        int built = frame ? describe_values(L, frame, &PyTuple_GET_ITEM(values, n)) : 1;
        if (built > 0) {
            PyTypeObject *cls = L->record_cls;
            PyObject *rec = cls->tp_alloc(cls, 0);
            if (!rec) {
                Py_DECREF(values);
                return -1;
            }
            PyObject *parts[4] = {now, kind, names, values};
            for (int i = 0; i < 4; i++)
                SLOT_AT(rec, L->record_off[i]) = Py_NewRef(parts[i]);
            /* Made untracked when it cannot be in a reference cycle, so the
             * collector does not walk every such record after the run. */
            if (is_atomic(values, 2) && is_atomic(names, 1)) {
                PyObject_GC_UnTrack(values);
                if (PyType_IS_GC(cls))
                    PyObject_GC_UnTrack(rec);
            }
            Py_DECREF(values);
            int rc = publish_record(L, trace, rec, kind);
            Py_DECREF(rec);
            return rc;
        }
        Py_DECREF(values);
        if (built < 0)
            return -1;
    }
    PyObject *fields = PyDict_New();
    for (Py_ssize_t i = 0; fields && i < n; i++)
        if (PyDict_SetItem(fields, PyTuple_GET_ITEM(names, i), head[i]) < 0)
            Py_CLEAR(fields);
    return emit_call(trace, now, kind, fields, frame);
}

typedef struct Rx Rx;
struct Rx {
    Rx *prev, *next;        /* receiver's in-flight list, creation order */
    double distance;
    Py_ssize_t slot;        /* receiver */
    char collided, lost, is_dst, linked;
};

typedef struct {
    Py_ssize_t slot;
    double distance;
} CovItem;

/* A sender's receivers at one transmit range, compiled from the radio's
 * (receiver, distance) pairs on first use: the network is static. */
typedef struct {
    double range;
    CovItem *items;
    Py_ssize_t n;
} Cov;

/* One frame waiting for the medium: CsmaMac's (frame, tx_range, tries). */
typedef struct {
    PyObject *frame, *tx_range;
    long tries;
} MacItem;

/* A node's OnDemandRouting while the medium runs its flood (see
 * Mac_flood); `agent` is NULL for a slot no agent is wired to. */
typedef struct {
    PyObject *agent, *node;
    PyObject *me;           /* node.node_id */
    PyObject *seen, *counts;  /* the agent's _seen_requests, _copy_counts */
    PyObject *entries;      /* its route table's entries */
    PyObject *random;       /* the node's routing: stream's random() */
    PyObject *send_filters; /* node._send_filters, shared */
    double jitter;          /* RoutingConfig.forward_jitter */
    double timeout;         /* the route table's TOut_Route */
    long threshold;         /* RoutingConfig.suppression_threshold */
} Flood;

/* A node's CSMA MAC (repro.net.mac.CsmaMac's state) while the medium
 * runs it; `random` is NULL for a slot no MAC is wired to. */
typedef struct {
    PyObject *random;       /* the node's mac: stream's random() */
    PyObject *trace;        /* TraceLog for mac_drop / arq_failure, or NULL */
    MacItem *queue;         /* ring buffer */
    Py_ssize_t head, len, cap;
    double base_backoff, default_jitter;
    long max_attempts, arq_retries;
    unsigned long long epoch, sent, dropped, arq_failures;
    char busy, enabled;
} Mac;

/* What finishing a reception reads of its receiver's Slot comes first,
 * up to and including the flood (batch_prefetch loads it as one span). */
typedef struct {
    PyObject *id;           /* node id */
    PyObject *handler;      /* delivery handler; NULL while detached */
    /* The Node whose deliver body the medium runs and its pipeline
     * lists, or all NULL to call `handler`. */
    PyObject *pipe[P_COUNT];
    Rx *head, *tail;        /* in-flight receptions */
    Flood flood;
    /* The loss handler, or with loss_store the monitor whose _last_loss
     * the medium sets in its place; NULL for neither. */
    PyObject *loss;
    PyObject *stamper;      /* frame stamper or NULL */
    Cov *covs;
    Py_ssize_t ncovs;
    double tx_until;
    Py_ssize_t *blocked;    /* slots whose link to this one is down */
    Py_ssize_t nblocked, cap_blocked;
    Mac mac;
    char deaf, loss_store;
} Slot;

typedef struct {
    PyObject_HEAD
    SimObj *sim;
    PyObject *coverage;     /* radio.coverage_with_distance */
    PyObject *random;       /* the channel stream's random() */
    PyObject *trace;        /* the channel's TraceLog for rx_lost records, or NULL */
    LayoutObj *layout;
    PyObject *tx_observers; /* Channel's lists, shared so additions apply */
    PyObject *rx_observers;
    PyObject *reception_cls;
    /* The flood (Mac_flood): OnDemandRouting.on_frame and the default
     * usable hook; NULL until an agent is wired. */
    PyObject *on_frame, *always_usable;
    PyObject *index;        /* node id -> slot */
    PyObject *overrides;    /* the radio's node id -> transmit range */
    Slot *slots;            /* freed only in dealloc: batches point in */
    Py_ssize_t nslots, cap_slots;
    Py_ssize_t blocked_links;
    double capture_ratio;
    double ambient_loss;
    double bandwidth;       /* bits per second */
    double default_range;
    unsigned long long collisions, transmissions;
    char mixed_ids;         /* a node id that is not an exact int has a slot */
} MediumObj;

/* ---- Steps --------------------------------------------------------- */
/* The medium's own events, queued as steps (see Entry): a MAC attempt
 * or next-frame step (CsmaMac._attempt / _next_frame), a forwarder's
 * rebroadcast decision (OnDemandRouting._forward_decision), and the
 * finish of a transmission's receptions, which is a Batch. */
enum { EV_ATTEMPT, EV_NEXT, EV_DECIDE, EV_FINISH };

struct Step {
    MediumObj *medium;      /* strong reference */
    int kind;
    Py_ssize_t slot;
    unsigned long long epoch;
    long attempt;
    PyObject *request, *prev_hop;   /* EV_DECIDE */
};

/* One transmission's receptions, finished by one EV_FINISH step. */
typedef struct {
    Step step;
    PyObject *frame;
    PyObject *on_outcome;   /* unicast outcome callback or NULL */
    double start, end;
    Py_ssize_t n, done;     /* receptions made / finished */
    Rx rx[];
} Batch;

static PyTypeObject MediumType;
static PyTypeObject AckType;
static void mac_clear_queue(Mac *q);
static void flood_clear(Flood *f);
static int flood_receive(MediumObj *m, Py_ssize_t s, PyObject *frame);
static int batch_finish(MediumObj *m, Batch *b);
static void batch_prefetch(MediumObj *m, Batch *b);
static int mac_attempt(MediumObj *m, Py_ssize_t s, unsigned long long epoch,
                       long attempt);
static int mac_next(MediumObj *m, Py_ssize_t s, unsigned long long epoch);
static int flood_decide(MediumObj *m, Py_ssize_t s, PyObject *request,
                        PyObject *prev_hop);
static int flood_submit(MediumObj *m, Py_ssize_t s, PyObject *packet,
                        PyObject *link_dst, PyObject *prev_hop, PyObject *jitter);
typedef struct GuardObj GuardObj;
static int guard_receive(GuardObj *g, PyObject *frame);
static PyObject *Guard_receive(GuardObj *g, PyObject *frame);
static int guard_send_filter(GuardObj *g, PyObject *frame);
static PyObject *Guard_send_filter(GuardObj *g, PyObject *frame);
static int guard_usable_here(GuardObj *g, PyObject *node);
static PyObject *Guard_is_usable(GuardObj *g, PyObject *node);

static void
rx_link(Slot *s, Rx *rx)
{
    rx->prev = s->tail;
    rx->next = NULL;
    if (s->tail)
        s->tail->next = rx;
    else
        s->head = rx;
    s->tail = rx;
    rx->linked = 1;
}

static void
rx_unlink(Slot *s, Rx *rx)
{
    if (!rx->linked)
        return;
    if (rx->prev)
        rx->prev->next = rx->next;
    else
        s->head = rx->next;
    if (rx->next)
        rx->next->prev = rx->prev;
    else
        s->tail = rx->prev;
    rx->linked = 0;
}

static int
medium_check(MediumObj *m)
{
    if (m->sim && m->index)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "medium has been cleared");
    return -1;
}

/* Slot of `node`.  -1 when unknown and !create, -2 on error. */
static Py_ssize_t
medium_slot(MediumObj *m, PyObject *node, int create)
{
    PyObject *found = PyDict_GetItemWithError(m->index, node);
    if (found)
        return PyLong_AsSsize_t(found);
    if (PyErr_Occurred())
        return -2;
    if (!create)
        return -1;
    if (m->nslots == m->cap_slots) {
        Py_ssize_t cap = m->cap_slots ? m->cap_slots * 2 : 64;
        Slot *slots = PyMem_Realloc(m->slots, (size_t)cap * sizeof(Slot));
        if (!slots) {
            PyErr_NoMemory();
            return -2;
        }
        m->slots = slots;
        m->cap_slots = cap;
    }
    PyObject *value = PyLong_FromSsize_t(m->nslots);
    if (!value)
        return -2;
    int rc = PyDict_SetItem(m->index, node, value);
    Py_DECREF(value);
    if (rc < 0)
        return -2;
    Slot *s = &m->slots[m->nslots];
    memset(s, 0, sizeof(Slot));
    s->id = Py_NewRef(node);
    m->mixed_ids |= !PyLong_CheckExact(node);
    return m->nslots++;
}

/* Slot of `node`, created on demand; -1 with an error set. */
static Py_ssize_t
medium_slot_new(MediumObj *m, PyObject *node)
{
    if (medium_check(m) < 0)
        return -1;
    Py_ssize_t s = medium_slot(m, node, 1);
    return s < 0 ? -1 : s;
}

static int
slot_blocks(Slot *s, Py_ssize_t peer)
{
    for (Py_ssize_t i = 0; i < s->nblocked; i++)
        if (s->blocked[i] == peer)
            return 1;
    return 0;
}

static int
slot_block(Slot *s, Py_ssize_t peer)
{
    if (s->nblocked == s->cap_blocked) {
        Py_ssize_t cap = s->cap_blocked ? s->cap_blocked * 2 : 4;
        Py_ssize_t *blocked = PyMem_Realloc(s->blocked,
                                            (size_t)cap * sizeof(Py_ssize_t));
        if (!blocked) {
            PyErr_NoMemory();
            return -1;
        }
        s->blocked = blocked;
        s->cap_blocked = cap;
    }
    s->blocked[s->nblocked++] = peer;
    return 0;
}

static void
slot_unblock(Slot *s, Py_ssize_t peer)
{
    for (Py_ssize_t i = 0; i < s->nblocked; i++)
        if (s->blocked[i] == peer) {
            s->blocked[i] = s->blocked[--s->nblocked];
            return;
        }
}

/* The sender's receivers at `tx_range` (None: its own range, read from
 * the radio's overrides as radio.tx_range reads it), compiled from
 * radio.coverage_with_distance on first use.  NULL with an error set. */
static Cov *
medium_coverage(MediumObj *m, Py_ssize_t sender, PyObject *tx_range)
{
    double range = m->default_range;
    if (tx_range == Py_None) {
        PyObject *own = PyDict_GetItemWithError(m->overrides, m->slots[sender].id);
        if (own)
            range = PyFloat_AsDouble(own);
        else if (PyErr_Occurred())
            return NULL;
    } else
        range = PyFloat_AsDouble(tx_range);
    if (range == -1.0 && PyErr_Occurred())
        return NULL;
    for (Py_ssize_t i = 0; i < m->slots[sender].ncovs; i++)
        if (m->slots[sender].covs[i].range == range)
            return &m->slots[sender].covs[i];
    PyObject *at = PyFloat_FromDouble(range);
    PyObject *cov = at ? PyObject_CallFunctionObjArgs(m->coverage, m->slots[sender].id,
                                                      at, NULL) : NULL;
    Py_XDECREF(at);
    PyObject *seq = cov ? PySequence_Fast(cov, "coverage must be a sequence") : NULL;
    Py_XDECREF(cov);
    if (!seq)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    CovItem *items = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(CovItem));
    if (!items) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "coverage items must be (node, distance) pairs");
            goto fail;
        }
        Py_ssize_t slot = medium_slot(m, PyTuple_GET_ITEM(pair, 0), 1);
        if (slot < 0)
            goto fail;
        double distance = PyFloat_AsDouble(PyTuple_GET_ITEM(pair, 1));
        if (distance == -1.0 && PyErr_Occurred())
            goto fail;
        items[i].slot = slot;
        items[i].distance = distance;
    }
    Py_DECREF(seq);
    Slot *s = &m->slots[sender];  /* slots may have moved */
    Cov *covs = PyMem_Realloc(s->covs, (size_t)(s->ncovs + 1) * sizeof(Cov));
    if (!covs) {
        PyMem_Free(items);
        PyErr_NoMemory();
        return NULL;
    }
    s->covs = covs;
    covs[s->ncovs] = (Cov){range, items, n};
    return &covs[s->ncovs++];
fail:
    Py_DECREF(seq);
    PyMem_Free(items);
    return NULL;
}

/* Interference between two overlapping receptions at one receiver,
 * honouring the capture effect. */
static inline void
resolve_overlap(MediumObj *m, Rx *new, Rx *other)
{
    double ratio = m->capture_ratio;
    int new_captures = ratio > 0 && new->distance * ratio <= other->distance;
    int other_captures = ratio > 0 && other->distance * ratio <= new->distance;
    if (!other_captures && !other->collided) {
        other->collided = 1;
        m->collisions++;
    }
    if (!new_captures && !new->collided) {
        new->collided = 1;
        m->collisions++;
    }
}

/* Call callable(arg) on a strong reference; 0 or -1. */
static int
call_one(PyObject *callable, PyObject *arg)
{
    Py_INCREF(callable);
    PyObject *r = PyObject_CallOneArg(callable, arg);
    Py_DECREF(callable);
    if (!r)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Steps and batches                                                  */
/* ------------------------------------------------------------------ */
static Step *
step_new(MediumObj *m, int kind, Py_ssize_t s, unsigned long long epoch,
         long attempt)
{
    Step *st = PyMem_Malloc(sizeof(Step));
    if (!st) {
        PyErr_NoMemory();
        return NULL;
    }
    *st = (Step){(MediumObj *)Py_NewRef((PyObject *)m), kind, s, epoch, attempt,
                 NULL, NULL};
    return st;
}

static Batch *
batch_new(MediumObj *m, PyObject *frame, PyObject *on_outcome,
          double start, double end, Py_ssize_t capacity)
{
    Batch *b = PyMem_Malloc(sizeof(Batch) + (size_t)capacity * sizeof(Rx));
    if (!b) {
        PyErr_NoMemory();
        return NULL;
    }
    b->step = (Step){(MediumObj *)Py_NewRef((PyObject *)m), EV_FINISH, 0, 0, 0,
                     NULL, NULL};
    b->frame = Py_NewRef(frame);
    b->on_outcome = Py_XNewRef(on_outcome);
    b->start = start;
    b->end = end;
    b->n = 0;
    b->done = 0;
    return b;
}

/* Take the unfinished receptions out of their receivers' lists. */
static void
batch_unlink_all(Batch *b)
{
    Slot *slots = b->step.medium->slots;
    for (Py_ssize_t i = b->done; i < b->n; i++)
        rx_unlink(&slots[b->rx[i].slot], &b->rx[i]);
    b->done = b->n;
}

/* Free a step and drop its references, the memory first: dropping one
 * may run code. */
static void
step_free(Step *st)
{
    PyObject *refs[3] = {(PyObject *)st->medium, st->request, st->prev_hop};
    if (st->kind == EV_FINISH) {
        Batch *b = (Batch *)st;
        batch_unlink_all(b);
        refs[1] = b->frame;
        refs[2] = b->on_outcome;
    }
    PyMem_Free(st);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(refs[i]);
}

static int
step_traverse(Step *st, visitproc visit, void *arg)
{
    Py_VISIT(st->medium);
    if (st->kind == EV_FINISH) {
        Py_VISIT(((Batch *)st)->frame);
        Py_VISIT(((Batch *)st)->on_outcome);
    } else {
        Py_VISIT(st->request);
        Py_VISIT(st->prev_hop);
    }
    return 0;
}

/* Run a step popped from the queue, then free it. */
static int
step_fire(Step *st)
{
    MediumObj *m = st->medium;
    int rc = medium_check(m);
    if (rc == 0) {
        switch (st->kind) {
        case EV_ATTEMPT:
            rc = mac_attempt(m, st->slot, st->epoch, st->attempt);
            break;
        case EV_NEXT:
            rc = mac_next(m, st->slot, st->epoch);
            break;
        case EV_DECIDE:
            rc = flood_decide(m, st->slot, st->request, st->prev_hop);
            break;
        default:
            rc = batch_finish(m, (Batch *)st);
        }
    }
    step_free(st);
    return rc;
}

/* sim.schedule(delay, <step>) with the engine's checks on delay; takes
 * over the step (NULL after a failure). */
static int
medium_schedule(MediumObj *m, Step *st, double delay)
{
    if (!st)
        return -1;
    if (!isfinite(delay) || delay < 0.0) {
        step_free(st);
        PyObject *d = PyFloat_FromDouble(delay);
        if (d) {
            PyErr_Format(error_class(), "delay must be %s, got %R",
                         isfinite(delay) ? "non-negative" : "finite", d);
            Py_DECREF(d);
        }
        return -1;
    }
    return sim_push_step(m->sim, m->sim->now + delay, st);
}

/* The Reception object reception observers are handed. */
static PyObject *
make_reception(MediumObj *m, Batch *b, Rx *rx, PyObject *outcome)
{
    PyObject *rec = PyObject_CallFunction(
        m->reception_cls, "OOddd", m->slots[rx->slot].id, b->frame,
        b->start, b->end, rx->distance);
    if (!rec)
        return NULL;
    if (PyObject_SetAttr(rec, str_collided, rx->collided ? Py_True : Py_False) < 0 ||
        PyObject_SetAttr(rec, str_lost, rx->lost ? Py_True : Py_False) < 0 ||
        PyObject_SetAttr(rec, str_on_outcome, outcome ? outcome : Py_None) < 0) {
        Py_DECREF(rec);
        return NULL;
    }
    return rec;
}

static int
emit_rx_lost(MediumObj *m, Batch *b, PyObject *receiver, Rx *rx,
             PyObject *now)
{
    PyObject *head[2] = {receiver, rx->collided ? Py_True : Py_False};
    return tracer_emit(m->layout, m->trace, now, str_rx_lost, N_RX_LOST, head, 2, b->frame);
}

/* The guard whose receive `check` is, or NULL. */
static inline GuardObj *
filter_guard(PyObject *check)
{
    return PyCFunction_CheckExact(check) &&
                   PyCFunction_GET_FUNCTION(check) == (PyCFunction)Guard_receive
               ? (GuardObj *)PyCFunction_GET_SELF(check) : NULL;
}

/* check(frame)'s truth.  A guard's receive (LITEWORP's hook) is entered
 * without the call protocol. */
static inline int
filter_pass(PyObject *check, PyObject *frame)
{
    GuardObj *g = filter_guard(check);
    if (g)
        return guard_receive(g, frame);
    PyObject *r = PyObject_CallOneArg(check, frame);
    if (!r)
        return -1;
    int pass = PyObject_IsTrue(r);
    Py_DECREF(r);
    return pass;
}

/* Whether `listener` is the on_frame of the agent whose flood slot s
 * runs (Mac_flood): then flood_receive stands in for the call. */
static inline int
flood_listener(MediumObj *m, Py_ssize_t s, PyObject *listener)
{
    PyObject *agent = m->slots[s].flood.agent;
    return agent && PyMethod_Check(listener) &&
           PyMethod_GET_FUNCTION(listener) == m->on_frame &&
           PyMethod_GET_SELF(listener) == agent;
}

/* Node.deliver's body: the alive check, the count, the observers, the
 * filters (a False verdict counts a rejection and stops), the listeners.
 * The lists are the node's own, read by index as a for loop reads them,
 * so a hook added during delivery runs as it would there.  The routing
 * agent's listener runs in flood_receive while slot s runs its flood. */
static int
run_pipeline(MediumObj *m, Py_ssize_t s, PyObject *const *pipe, PyObject *frame)
{
    static SlotRule alive_rule, received_rule, rejected_rule;
    PyObject *node = pipe[P_NODE];
    int rc = attr_true(&alive_rule, node, str_alive);
    if (rc <= 0)
        return rc;
    if (increment(&received_rule, node, str_frames_received) < 0)
        return -1;
    PyObject *observers = pipe[P_OBSERVERS], *filters = pipe[P_FILTERS],
        *listeners = pipe[P_LISTENERS];
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++)
        if (call_one(PyList_GET_ITEM(observers, i), frame) < 0)
            return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(filters); i++) {
        PyObject *check = Py_NewRef(PyList_GET_ITEM(filters, i));
        int pass = filter_pass(check, frame);
        Py_DECREF(check);
        if (pass <= 0)
            return pass < 0 ? -1 : increment(&rejected_rule, node, str_frames_rejected);
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(listeners); i++) {
        PyObject *listener = Py_NewRef(PyList_GET_ITEM(listeners, i));
        int rc = flood_listener(m, s, listener) ? flood_receive(m, s, frame) : 1;
        if (rc > 0)
            rc = call_one(listener, frame);
        Py_DECREF(listener);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* Hand a decodable frame to its receiver: the node's pipeline, or the
 * handler.  References are taken first: callbacks may grow the slots. */
static int
medium_deliver(MediumObj *m, Py_ssize_t s, PyObject *frame)
{
    Slot *slot = &m->slots[s];
    if (!slot->pipe[P_NODE])
        return slot->handler ? call_one(slot->handler, frame) : 0;
    PyObject *pipe[P_COUNT];
    for (int p = 0; p < P_COUNT; p++)
        pipe[p] = Py_NewRef(slot->pipe[p]);
    int rc = run_pipeline(m, s, pipe, frame);
    for (int p = 0; p < P_COUNT; p++)
        Py_DECREF(pipe[p]);
    return rc;
}

/* Finish one (already unlinked) reception: observers, then the loss
 * path or delivery, then the unicast outcome. */
static int
finish_rx(MediumObj *m, Batch *b, Rx *rx, PyObject *now)
{
    PyObject *outcome = rx->is_dst ? b->on_outcome : NULL;
    PyObject *observers = m->rx_observers;
    if (PyList_GET_SIZE(observers)) {
        PyObject *rec = make_reception(m, b, rx, outcome);
        if (!rec)
            return -1;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++) {
            if (call_one(PyList_GET_ITEM(observers, i), rec) < 0) {
                Py_DECREF(rec);
                return -1;
            }
        }
        Py_DECREF(rec);
    }
    if (rx->collided || rx->lost) {
        if (m->trace) {
            PyObject *receiver = Py_NewRef(m->slots[rx->slot].id);
            int rc = emit_rx_lost(m, b, receiver, rx, now);
            Py_DECREF(receiver);
            if (rc < 0)
                return -1;
        }
        Slot *slot = &m->slots[rx->slot];
        static SlotRule loss_rule;
        if (slot->loss && (slot->loss_store ? attr_set(&loss_rule, slot->loss, str_last_loss, now)
                                            : call_one(slot->loss, now)) < 0)
            return -1;
        return outcome ? call_one(outcome, Py_False) : 0;
    }
    if (medium_deliver(m, rx->slot, b->frame) < 0)
        return -1;
    return outcome ? call_one(outcome, Py_True) : 0;
}

/* The finish step.  Each reception is unlinked and fully handled before
 * the next one starts; later ones stay in flight meanwhile, so a
 * re-entrant transmit sees the same medium as per-receiver events. */
static int
batch_finish(MediumObj *m, Batch *b)
{
    if (b->done == 0)
        batch_prefetch(m, b);
    PyObject *now = PyFloat_FromDouble(m->sim->now);
    int rc = now ? 0 : -1;
    while (rc == 0 && b->done < b->n && (rc = medium_check(m)) == 0) {
        Rx *rx = &b->rx[b->done++];
        rx_unlink(&m->slots[rx->slot], rx);
        rc = finish_rx(m, b, rx, now);
    }
    Py_XDECREF(now);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Medium type methods                                                */
/* ------------------------------------------------------------------ */
static PyObject *
Medium_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "coverage", "random", "trace",
                             "capture_ratio", "ambient_loss", "tx_observers",
                             "rx_observers", "reception_cls", "bandwidth",
                             "overrides", "default_range", "layout", NULL};
    PyObject *sim, *coverage, *random, *trace, *tx_observers, *rx_observers,
        *reception_cls, *overrides, *layout;
    double capture_ratio, ambient_loss, bandwidth, default_range;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OOOddO!O!OdO!dO!", kwlist,
                                     &SimType, &sim, &coverage, &random,
                                     &trace, &capture_ratio, &ambient_loss,
                                     &PyList_Type, &tx_observers,
                                     &PyList_Type, &rx_observers,
                                     &reception_cls, &bandwidth,
                                     &PyDict_Type, &overrides, &default_range,
                                     &LayoutType, &layout))
        return NULL;
    MediumObj *m = (MediumObj *)type->tp_alloc(type, 0);
    if (!m)
        return NULL;
    m->index = PyDict_New();
    if (!m->index) {
        Py_DECREF(m);
        return NULL;
    }
    m->trace = trace == Py_None ? NULL : Py_NewRef(trace);
    m->layout = (LayoutObj *)Py_NewRef(layout);
    m->sim = (SimObj *)Py_NewRef(sim);
    m->coverage = Py_NewRef(coverage);
    m->random = Py_NewRef(random);
    m->tx_observers = Py_NewRef(tx_observers);
    m->rx_observers = Py_NewRef(rx_observers);
    m->reception_cls = Py_NewRef(reception_cls);
    m->overrides = Py_NewRef(overrides);
    m->capture_ratio = capture_ratio;
    m->ambient_loss = ambient_loss;
    m->bandwidth = bandwidth;
    m->default_range = default_range;
    return (PyObject *)m;
}

static int
Medium_traverse(MediumObj *m, visitproc visit, void *arg)
{
    Py_VISIT(m->sim);
    Py_VISIT(m->coverage);
    Py_VISIT(m->random);
    Py_VISIT(m->trace);
    Py_VISIT(m->layout);
    Py_VISIT(m->tx_observers);
    Py_VISIT(m->rx_observers);
    Py_VISIT(m->reception_cls);
    Py_VISIT(m->on_frame);
    Py_VISIT(m->always_usable);
    Py_VISIT(m->index);
    Py_VISIT(m->overrides);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        Slot *s = &m->slots[i];
        Py_VISIT(s->id);
        Py_VISIT(s->handler);
        for (int p = 0; p < P_COUNT; p++)
            Py_VISIT(s->pipe[p]);
        Py_VISIT(s->loss);
        Py_VISIT(s->stamper);
        Py_VISIT(s->mac.random);
        Py_VISIT(s->mac.trace);
        for (Py_ssize_t q = 0; q < s->mac.len; q++) {
            Py_VISIT(s->mac.queue[(s->mac.head + q) % s->mac.cap].frame);
            Py_VISIT(s->mac.queue[(s->mac.head + q) % s->mac.cap].tx_range);
        }
        Py_VISIT(s->flood.agent);
        Py_VISIT(s->flood.node);
        Py_VISIT(s->flood.me);
        Py_VISIT(s->flood.seen);
        Py_VISIT(s->flood.counts);
        Py_VISIT(s->flood.entries);
        Py_VISIT(s->flood.random);
        Py_VISIT(s->flood.send_filters);
    }
    return 0;
}

/* Drops the Python references only: the slot table stays, because
 * unfinished batches still unlink their receptions from it, and so do
 * the MAC counters.  So does the layout, which is in no cycle and which
 * a hook running after a release may still reach. */
static int
Medium_clear(MediumObj *m)
{
    Py_CLEAR(m->sim);
    Py_CLEAR(m->coverage);
    Py_CLEAR(m->random);
    Py_CLEAR(m->trace);
    Py_CLEAR(m->tx_observers);
    Py_CLEAR(m->rx_observers);
    Py_CLEAR(m->reception_cls);
    Py_CLEAR(m->on_frame);
    Py_CLEAR(m->always_usable);
    Py_CLEAR(m->index);
    Py_CLEAR(m->overrides);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        Slot *s = &m->slots[i];
        Py_CLEAR(s->id);
        Py_CLEAR(s->handler);
        for (int p = 0; p < P_COUNT; p++)
            Py_CLEAR(s->pipe[p]);
        Py_CLEAR(s->loss);
        Py_CLEAR(s->stamper);
        Py_CLEAR(s->mac.random);
        Py_CLEAR(s->mac.trace);
        mac_clear_queue(&s->mac);
        flood_clear(&s->flood);
    }
    return 0;
}

static void
Medium_dealloc(MediumObj *m)
{
    PyObject_GC_UnTrack(m);
    Medium_clear(m);
    Py_CLEAR(m->layout);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        for (Py_ssize_t c = 0; c < m->slots[i].ncovs; c++)
            PyMem_Free(m->slots[i].covs[c].items);
        PyMem_Free(m->slots[i].covs);
        PyMem_Free(m->slots[i].blocked);
    }
    PyMem_Free(m->slots);
    Py_TYPE(m)->tp_free((PyObject *)m);
}

/* attach(node, handler, owner=None).  With an owner (a Node whose
 * handler is Node.deliver, see Channel.attach) the medium runs the
 * pipeline on the owner's own lists instead of calling the handler. */
static PyObject *
Medium_attach(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 && nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "attach(node, handler, owner=None)");
        return NULL;
    }
    PyObject *pipe[P_COUNT] = {NULL};
    Py_ssize_t s = -1;
    if (nargs == 3 && args[2] != Py_None) {
        pipe[P_NODE] = Py_NewRef(args[2]);
        for (int p = P_OBSERVERS; p < P_COUNT; p++)
            if (!(pipe[p] = PyObject_GetAttr(args[2], *pipe_names[p - 1])) ||
                !PyList_CheckExact(pipe[p])) {
                if (pipe[p])
                    PyErr_SetString(PyExc_TypeError, "pipeline hooks must be lists");
                goto done;
            }
    }
    if ((s = medium_slot_new(m, args[0])) < 0)
        goto done;
    Slot *slot = &m->slots[s];
    Py_XSETREF(slot->handler, Py_NewRef(args[1]));
    for (int p = 0; p < P_COUNT; p++)
        Py_XSETREF(slot->pipe[p], Py_XNewRef(pipe[p]));
done:
    for (int p = 0; p < P_COUNT; p++)
        Py_XDECREF(pipe[p]);
    if (s < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* set_loss_handler(node, handler, owner=None).  With an owner (the
 * LocalMonitor whose reference note_reception_loss is `handler`, see
 * Channel.attach_loss_handler) the medium sets owner._last_loss to the
 * loss's time instead of calling the handler. */
static PyObject *
Medium_set_loss_handler(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2 && nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "set_loss_handler(node, handler, owner=None)");
        return NULL;
    }
    Py_ssize_t s = medium_slot_new(m, args[0]);
    if (s < 0)
        return NULL;
    char store = nargs == 3 && args[2] != Py_None;
    Py_XSETREF(m->slots[s].loss, Py_NewRef(args[store ? 2 : 1]));
    m->slots[s].loss_store = store;
    Py_RETURN_NONE;
}

static PyObject *
Medium_set_deaf(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "set_deaf(node, deaf)");
        return NULL;
    }
    int deaf = PyObject_IsTrue(args[1]);
    if (deaf < 0)
        return NULL;
    Py_ssize_t s = medium_slot_new(m, args[0]);
    if (s < 0)
        return NULL;
    m->slots[s].deaf = (char)deaf;
    Py_RETURN_NONE;
}

static PyObject *
Medium_set_link(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "set_link(a, b, down)");
        return NULL;
    }
    int down = PyObject_IsTrue(args[2]);
    if (down < 0)
        return NULL;
    Py_ssize_t a = medium_slot_new(m, args[0]);
    if (a < 0)
        return NULL;
    Py_ssize_t b = medium_slot_new(m, args[1]);
    if (b < 0)
        return NULL;
    int blocked = slot_blocks(&m->slots[a], b);
    if (down && !blocked) {
        if (slot_block(&m->slots[a], b) < 0)
            return NULL;
        if (a != b && slot_block(&m->slots[b], a) < 0) {
            slot_unblock(&m->slots[a], b);
            return NULL;
        }
        m->blocked_links++;
    } else if (!down && blocked) {
        slot_unblock(&m->slots[a], b);
        slot_unblock(&m->slots[b], a);
        m->blocked_links--;
    }
    Py_RETURN_NONE;
}

static PyObject *
Medium_set_ambient_loss(MediumObj *m, PyObject *arg)
{
    double p = PyFloat_AsDouble(arg);
    if (p == -1.0 && PyErr_Occurred())
        return NULL;
    m->ambient_loss = p;
    Py_RETURN_NONE;
}

/* packet.size_bytes as a new reference.  While DataPacket's and
 * RouteReply's classes hold their reference properties, their bodies run
 * here: the payload_size slot, and 32 + 4 * len(path) for a tuple path. */
static PyObject *
packet_bytes(LayoutObj *L, PyObject *packet)
{
    PyTypeObject *cls = Py_TYPE(packet);
    if (cls == L->data_cls && layout_holds(L, REF_DATA_SIZE, cls)) {
        PyObject *size = SLOT_AT(packet, L->data_off[D_PAYLOAD_SIZE]);
        if (size)
            return Py_NewRef(size);
    } else if (cls == L->reply_cls && layout_holds(L, REF_REPLY_SIZE, cls)) {
        PyObject *path = SLOT_AT(packet, L->reply_off[R_PATH]);
        if (path && PyTuple_CheckExact(path))
            return PyLong_FromSsize_t(32 + 4 * PyTuple_GET_SIZE(path));
    }
    return PyObject_GetAttr(packet, str_size_bytes);
}

/* frame.size_bytes; -1.0 with an error set.  For a Frame without a
 * leash, while Frame.size_bytes is the reference property, its body runs
 * here: the packet's size plus the 12-byte header. */
static double
frame_bytes(MediumObj *m, PyObject *frame)
{
    LayoutObj *L = m->layout;
    PyObject *size = NULL;
    double extra = 0.0;
    if (Py_TYPE(frame) == L->frame_cls && layout_holds(L, REF_SIZE, L->frame_cls) &&
        SLOT_AT(frame, L->frame_off[F_LEASH]) == Py_None) {
        PyObject *packet = frame_slot(L, frame, F_PACKET);
        if (!packet)
            return -1.0;
        size = packet_bytes(L, packet);
        Py_DECREF(packet);
        extra = 12.0;
    } else
        size = PyObject_GetAttr(frame, str_size_bytes);
    if (!size)
        return -1.0;
    double bytes = PyFloat_AsDouble(size);
    Py_DECREF(size);
    return bytes == -1.0 && PyErr_Occurred() ? -1.0 : bytes + extra;
}

/* Channel.transmit's body: stamp, air time, count, then everything the
 * transmission does per receiver.  Stores the air time in *duration. */
static int
medium_send(MediumObj *m, Py_ssize_t s, PyObject *frame, PyObject *tx_range,
            PyObject *on_outcome, double *duration)
{
    if (m->slots[s].stamper) {
        PyObject *stamper = Py_NewRef(m->slots[s].stamper);
        frame = PyObject_CallOneArg(stamper, frame);
        Py_DECREF(stamper);
    } else
        Py_INCREF(frame);
    if (!frame)
        return -1;
    Batch *batch = NULL;
    double bytes = frame_bytes(m, frame);
    if (bytes == -1.0 && PyErr_Occurred())
        goto fail;
    *duration = bytes * 8.0 / m->bandwidth;
    m->transmissions++;
    SimObj *sim = m->sim;
    double now = sim->now;
    double end = now + *duration;
    Slot *tx = &m->slots[s];
    if (end > tx->tx_until)
        tx->tx_until = end;
    /* Half-duplex: transmitting kills the sender's own in-flight receptions. */
    for (Rx *rx = tx->head; rx; rx = rx->next)
        if (!rx->collided) {
            rx->collided = 1;
            m->collisions++;
        }

    /* The tx observers: (observer, senders) pairs, senders None for all. */
    PyObject *observers = m->tx_observers, *at = NULL;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++) {
        PyObject *pair = Py_NewRef(PyList_GET_ITEM(observers, i));
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_TypeError, "tx observers must be (observer, senders) pairs");
            Py_XDECREF(at);
            goto fail;
        }
        PyObject *senders = PyTuple_GET_ITEM(pair, 1), *r = NULL;
        int wanted = senders == Py_None ? 1
                                        : PySequence_Contains(senders, m->slots[s].id);
        if (wanted > 0 && (at || (at = PyFloat_FromDouble(now))))
            r = PyObject_CallFunctionObjArgs(PyTuple_GET_ITEM(pair, 0),
                                             m->slots[s].id, frame, at, NULL);
        Py_DECREF(pair);
        if (wanted < 0 || (wanted && !r)) {
            Py_XDECREF(at);
            goto fail;
        }
        Py_XDECREF(r);
    }
    Py_XDECREF(at);

    Cov *cov = medium_coverage(m, s, tx_range);
    if (!cov)
        goto fail;
    Py_ssize_t dst = -1;
    if (on_outcome) {
        PyObject *link_dst = frame_slot(m->layout, frame, F_LINK_DST);
        if (!link_dst)
            goto fail;
        if (link_dst != Py_None)
            dst = medium_slot(m, link_dst, 0);
        Py_DECREF(link_dst);
        if (dst == -2)
            goto fail;
    }

    /* Once per transmission for every in-range receiver: the innermost
     * loop of the simulator.  Only the ambient-loss draw calls out, and
     * it cannot re-enter the medium, so `items` stays valid. */
    CovItem *items = cov->items;
    Py_ssize_t n = cov->n;
    double ambient = m->ambient_loss;
    int covered = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t r = items[i].slot;
        Slot *rxs = &m->slots[r];
        if (!rxs->handler)
            continue;
        if (m->blocked_links && slot_blocks(rxs, s))
            continue;
        if (rxs->deaf)
            continue;
        if (!batch) {
            batch = batch_new(m, frame, on_outcome, now, end, n);
            if (!batch)
                goto fail;
        }
        Rx *rx = &batch->rx[batch->n++];
        rx->slot = r;
        rx->distance = items[i].distance;
        rx->collided = 0;
        rx->lost = 0;
        rx->is_dst = 0;
        rx->linked = 0;
        if (rxs->tx_until > now) {
            /* Receiver is itself transmitting: misses the frame. */
            rx->collided = 1;
            m->collisions++;
        }
        for (Rx *other = rxs->head; other; other = other->next)
            resolve_overlap(m, rx, other);
        if (ambient != 0.0) {
            PyObject *u = PyObject_CallNoArgs(m->random);
            if (!u)
                goto fail;
            double draw = PyFloat_AsDouble(u);
            Py_DECREF(u);
            if (draw == -1.0 && PyErr_Occurred())
                goto fail;
            if (draw < ambient)
                rx->lost = 1;
        }
        if (r == dst) {
            covered = 1;
            rx->is_dst = 1;
        }
        rx_link(&m->slots[r], rx);
    }
    Py_DECREF(frame);
    if (batch && sim_push_step(sim, end, &batch->step) < 0)
        return -1;
    if (on_outcome && !covered) {
        /* Destination out of range (or detached): the ACK never comes. */
        PyObject *no = PyTuple_Pack(1, Py_False);
        if (!no)
            return -1;
        PyObject *ev = sim_push(sim, end, on_outcome, no, NULL);
        if (!ev)
            return -1;
        Py_DECREF(ev);
    }
    return 0;
fail:
    if (batch)
        step_free(&batch->step);
    Py_DECREF(frame);
    return -1;
}

/* transmit(sender, frame, tx_range, on_outcome) -> air time */
static PyObject *
Medium_transmit(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "transmit(sender, frame, tx_range, on_outcome)");
        return NULL;
    }
    Py_ssize_t s = medium_slot_new(m, args[0]);
    if (s < 0)
        return NULL;
    double duration;
    if (medium_send(m, s, args[1], args[2], args[3] == Py_None ? NULL : args[3],
                    &duration) < 0)
        return NULL;
    return PyFloat_FromDouble(duration);
}

/* Carrier sense at `node`: 1 while it transmits, 2 while it only hears
 * something, 0 when idle; -1 on error.  An unseen node has never
 * transmitted (tx_until 0.0) and hears nothing. */
static inline int
slot_sense(MediumObj *m, Py_ssize_t s)
{
    if (m->slots[s].tx_until > m->sim->now)
        return 1;
    return m->slots[s].head ? 2 : 0;
}

static int
medium_sense(MediumObj *m, PyObject *node)
{
    if (medium_check(m) < 0)
        return -1;
    Py_ssize_t s = medium_slot(m, node, 0);
    if (s == -2)
        return -1;
    if (s >= 0)
        return slot_sense(m, s);
    return 0.0 > m->sim->now ? 1 : 0;
}

static PyObject *
Medium_is_transmitting(MediumObj *m, PyObject *node)
{
    int sense = medium_sense(m, node);
    return sense < 0 ? NULL : PyBool_FromLong(sense == 1);
}

static PyObject *
Medium_is_busy(MediumObj *m, PyObject *node)
{
    int sense = medium_sense(m, node);
    return sense < 0 ? NULL : PyBool_FromLong(sense > 0);
}

static PyObject *
Medium_release(MediumObj *m, PyObject *Py_UNUSED(ignored))
{
    Medium_clear(m);
    Py_RETURN_NONE;
}

static PyObject *
Medium_get_collisions(MediumObj *m, void *closure)
{
    return PyLong_FromUnsignedLongLong(m->collisions);
}

static PyObject *
Medium_get_transmissions(MediumObj *m, void *closure)
{
    return PyLong_FromUnsignedLongLong(m->transmissions);
}

/* ------------------------------------------------------------------ */
/* MAC: repro.net.mac.CsmaMac run by the medium                       */
/* ------------------------------------------------------------------ */
/* A MAC wired with Medium.mac (see CsmaMac.__init__) keeps its state in
 * its node's slot, and send(), the carrier-sense attempt with binary-
 * exponential backoff, the ARQ outcome and the next-frame step run here,
 * with Channel.transmit's body (medium_send).  Every event is scheduled
 * as CsmaMac schedules it -- same time, same order, the same
 * `w * random()` draw from the node's stream, the same epoch -- as a
 * step in place of a bound method and its arguments, so event counts,
 * RNG draws and trace records are those of the reference.  The ARQ
 * callback of a unicast in service is an Ack object: it is the
 * transmission's outcome callback, which reception observers see. */

/* CsmaMac._acked for a unicast in service, called with the delivered
 * flag. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    MediumObj *medium;
    Py_ssize_t slot;
    unsigned long long epoch;
    long tries;
    PyObject *frame, *tx_range;
} AckObj;

/* The handle CsmaMac holds: send(), disable(), enable() and counters. */
typedef struct {
    PyObject_HEAD
    MediumObj *medium;
    Py_ssize_t slot;
} MacObj;

static PyObject *Ack_vectorcall(AckObj *ack, PyObject *const *args,
                                size_t nargsf, PyObject *kwnames);

static int
mac_push(Mac *q, PyObject *frame, PyObject *tx_range, long tries, int front)
{
    if (q->len == q->cap) {
        Py_ssize_t cap = q->cap ? q->cap * 2 : 4;
        MacItem *items = PyMem_Malloc((size_t)cap * sizeof(MacItem));
        if (!items) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < q->len; i++)
            items[i] = q->queue[(q->head + i) % q->cap];
        PyMem_Free(q->queue);
        q->queue = items;
        q->head = 0;
        q->cap = cap;
    }
    Py_ssize_t at = (q->head + q->len) % q->cap;
    if (front)
        at = q->head = (q->head + q->cap - 1) % q->cap;
    q->queue[at] = (MacItem){Py_NewRef(frame), Py_NewRef(tx_range), tries};
    q->len++;
    return 0;
}

/* The head of the queue; the caller takes over its references. */
static MacItem
mac_pop(Mac *q)
{
    MacItem item = q->queue[q->head];
    q->head = (q->head + 1) % q->cap;
    q->len--;
    return item;
}

/* Empty the queue; the frames are released after it is consistent. */
static void
mac_clear_queue(Mac *q)
{
    Py_ssize_t n = q->len, head = q->head, cap = q->cap;
    MacItem *items = q->queue;
    q->queue = NULL;
    q->len = q->head = q->cap = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_DECREF(items[(head + i) % cap].frame);
        Py_DECREF(items[(head + i) % cap].tx_range);
    }
    PyMem_Free(items);
}

/* One draw of the node's stream; -1.0 with an error set. */
static double
mac_draw(MediumObj *m, Py_ssize_t s)
{
    PyObject *random = Py_NewRef(m->slots[s].mac.random);
    PyObject *u = PyObject_CallNoArgs(random);
    Py_DECREF(random);
    if (!u)
        return -1.0;
    double draw = PyFloat_AsDouble(u);
    Py_DECREF(u);
    return draw;
}

/* The ARQ callback of a unicast of `frame` at its `tries`-th retry. */
static AckObj *
mac_ack(MediumObj *m, Py_ssize_t s, unsigned long long epoch, long tries,
        PyObject *frame, PyObject *tx_range)
{
    AckObj *ack = PyObject_GC_New(AckObj, &AckType);
    if (!ack)
        return NULL;
    ack->vectorcall = (vectorcallfunc)Ack_vectorcall;
    ack->medium = (MediumObj *)Py_NewRef((PyObject *)m);
    ack->slot = s;
    ack->epoch = epoch;
    ack->tries = tries;
    ack->frame = Py_NewRef(frame);
    ack->tx_range = Py_NewRef(tx_range);
    PyObject_GC_Track((PyObject *)ack);
    return ack;
}

/* sim.schedule(delay, <MAC step>) */
static int
mac_schedule(MediumObj *m, Py_ssize_t s, double delay, int kind,
             unsigned long long epoch, long attempt)
{
    return medium_schedule(m, step_new(m, kind, s, epoch, attempt), delay);
}

/* A backoff of `window * random()` before attempt 0 or the next. */
static int
mac_backoff(MediumObj *m, Py_ssize_t s, double window,
            unsigned long long epoch, long attempt)
{
    double u = mac_draw(m, s);
    if (u == -1.0 && PyErr_Occurred())
        return -1;
    return mac_schedule(m, s, window * u, EV_ATTEMPT, epoch, attempt);
}

/* trace.emit(now, kind, node=<node>, **frame.describe()) if traced. */
static int
mac_emit(MediumObj *m, Py_ssize_t s, PyObject *kind, PyObject *frame)
{
    if (!m->slots[s].mac.trace)
        return 0;
    PyObject *trace = Py_NewRef(m->slots[s].mac.trace);
    PyObject *now = PyFloat_FromDouble(m->sim->now);
    PyObject *fields = now ? PyDict_New() : NULL;
    if (fields && PyDict_SetItem(fields, str_node, m->slots[s].id) < 0)
        Py_CLEAR(fields);
    int rc = emit_call(trace, now, kind, fields, frame);
    Py_XDECREF(now);
    Py_DECREF(trace);
    return rc;
}

/* CsmaMac._next_frame */
static int
mac_next(MediumObj *m, Py_ssize_t s, unsigned long long epoch)
{
    Mac *mac = &m->slots[s].mac;
    if (epoch != mac->epoch)
        return 0;
    if (!mac->len) {
        mac->busy = 0;
        return 0;
    }
    return mac_backoff(m, s, mac->base_backoff, epoch, 0);
}

/* CsmaMac.send */
static int
mac_send(MediumObj *m, Py_ssize_t s, PyObject *frame, PyObject *jitter,
         PyObject *tx_range)
{
    Mac *mac = &m->slots[s].mac;
    if (!mac->enabled) {
        mac->dropped++;
        return 0;
    }
    if (mac_push(mac, frame, tx_range, 0, 0) < 0)
        return -1;
    if (mac->busy)
        return 0;
    mac->busy = 1;
    unsigned long long epoch = mac->epoch;
    double effective = mac->default_jitter;
    if (jitter != Py_None &&
        (effective = PyFloat_AsDouble(jitter)) == -1.0 && PyErr_Occurred())
        return -1;
    if (effective > 0)
        return mac_backoff(m, s, effective, epoch, 0);
    return mac_schedule(m, s, 0.0, EV_ATTEMPT, epoch, 0);
}

/* CsmaMac._attempt.  A window of base * 2**attempt is base scaled by a
 * power of two, exact either way, hence ldexp. */
static int
mac_attempt(MediumObj *m, Py_ssize_t s, unsigned long long epoch, long attempt)
{
    Mac *mac = &m->slots[s].mac;
    if (epoch != mac->epoch || !mac->len)  /* the second never holds */
        return 0;
    if (slot_sense(m, s)) {
        if (attempt + 1 < mac->max_attempts)
            return mac_backoff(m, s, ldexp(mac->base_backoff, (int)attempt),
                               epoch, attempt + 1);
        MacItem item = mac_pop(mac);
        mac->dropped++;
        int rc = mac_emit(m, s, str_mac_drop, item.frame);
        Py_DECREF(item.frame);
        Py_DECREF(item.tx_range);
        return rc < 0 ? -1 : mac_next(m, s, epoch);
    }
    MacItem item = mac_pop(mac);
    int arq = mac->arq_retries > 0, rc = -1;
    double duration;
    PyObject *link_dst = frame_slot(m->layout, item.frame, F_LINK_DST);
    if (!link_dst)
        goto done;
    arq = arq && link_dst != Py_None;
    Py_DECREF(link_dst);
    if (arq) {
        AckObj *ack = mac_ack(m, s, epoch, item.tries, item.frame, item.tx_range);
        rc = ack ? medium_send(m, s, item.frame, item.tx_range, (PyObject *)ack,
                               &duration) : -1;
        Py_XDECREF(ack);
        if (rc == 0)
            m->slots[s].mac.sent++;
    } else if ((rc = medium_send(m, s, item.frame, item.tx_range, NULL,
                                 &duration)) == 0) {
        m->slots[s].mac.sent++;
        rc = mac_schedule(m, s, duration, EV_NEXT, epoch, 0);
    }
done:
    Py_DECREF(item.frame);
    Py_DECREF(item.tx_range);
    return rc;
}

/* CsmaMac._acked and _arq_outcome */
static int
mac_acked(MediumObj *m, AckObj *ack, int delivered)
{
    Py_ssize_t s = ack->slot;
    Mac *mac = &m->slots[s].mac;
    if (ack->epoch != mac->epoch)
        return 0;
    if (!delivered && ack->tries < mac->arq_retries) {
        /* Retransmit ahead of anything queued later, after a short backoff. */
        if (mac_push(mac, ack->frame, ack->tx_range, ack->tries + 1, 1) < 0)
            return -1;
        return mac_backoff(m, s, mac->base_backoff, mac->epoch, 0);
    }
    if (!delivered) {
        mac->arq_failures++;
        if (mac_emit(m, s, str_arq_failure, ack->frame) < 0)
            return -1;
    }
    return mac_next(m, s, m->slots[s].mac.epoch);
}

static PyObject *
Ack_vectorcall(AckObj *ack, PyObject *const *args, size_t nargsf,
               PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 1 || (kwnames && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError,
                        "a MAC ACK callback takes one argument, delivered");
        return NULL;
    }
    MediumObj *m = ack->medium;
    if (!m || medium_check(m) < 0)
        return NULL;
    int delivered = PyObject_IsTrue(args[0]);
    if (delivered < 0 || mac_acked(m, ack, delivered) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static void
Ack_dealloc(AckObj *ack)
{
    PyObject_GC_UnTrack(ack);
    Py_CLEAR(ack->medium);
    Py_CLEAR(ack->frame);
    Py_CLEAR(ack->tx_range);
    PyObject_GC_Del(ack);
}

static int
Ack_traverse(AckObj *ack, visitproc visit, void *arg)
{
    Py_VISIT(ack->medium);
    Py_VISIT(ack->frame);
    Py_VISIT(ack->tx_range);
    return 0;
}

static int
Ack_clear(AckObj *ack)
{
    Py_CLEAR(ack->medium);
    Py_CLEAR(ack->frame);
    Py_CLEAR(ack->tx_range);
    return 0;
}

static PyTypeObject AckType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Ack",
    .tp_basicsize = sizeof(AckObj),
    .tp_dealloc = (destructor)Ack_dealloc,
    .tp_vectorcall_offset = offsetof(AckObj, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC |
                Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_traverse = (traverseproc)Ack_traverse,
    .tp_clear = (inquiry)Ack_clear,
    .tp_doc = "The ARQ callback of a unicast a medium-run MAC has in service.",
};

/* ------------------------------------------------------------------ */
/* Flood: repro.routing.ondemand.OnDemandRouting run by the medium     */
/* ------------------------------------------------------------------ */
/* An honest routing agent wired with Mac.flood (see
 * OnDemandRouting.__init__) keeps its two dicts, its route entries, its
 * node and its config in its node's slot.  While a listener the pipeline reaches is
 * that agent's bound OnDemandRouting.on_frame, flood_receive stands in
 * for the call and runs on_frame's common paths: a duplicate request
 * bumps its copy count, an overheard reply or data packet does nothing,
 * and a first copy at a forwarder is remembered and its rebroadcast
 * decision scheduled, with the same draw, time and sequence number as
 * _forward_request's sim.schedule.  The decision (flood_decide) is
 * _forward_decision: pop the count, test it against the threshold, make
 * RouteRequest.forwarded_by's copy (drawing its uid then) and
 * Node.broadcast's Frame by slot offset, then Node._submit's alive check
 * and send filters and the slot's MAC send with jitter 0.0 (flood_submit).
 *
 * An addressed data packet at an intermediate hop (forward_data) and a
 * route reply at a reverse-path hop (forward_reply) are forwarded here
 * too: the route table's fresh entry or the reverse pointer, the usable
 * hook when it is the default or a guard's (flood_usable), the reply's
 * route entry built by slot offset, then Node.unicast through
 * flood_submit.  Everything else -- a request at its target or origin,
 * data at its destination, a reply at its origin, no fresh route or
 * reverse pointer, a refused or unknown usable hook, other packets, a
 * config with suppression or jitter off, a key not yet cached -- calls
 * the listener. */

static void
flood_clear(Flood *f)
{
    Py_CLEAR(f->agent);
    Py_CLEAR(f->node);
    Py_CLEAR(f->me);
    Py_CLEAR(f->seen);
    Py_CLEAR(f->counts);
    Py_CLEAR(f->entries);
    Py_CLEAR(f->random);
    Py_CLEAR(f->send_filters);
}

/* A duplicate of a seen request: counts[key] += 1 while its decision is
 * pending.  1 when key is not a duplicate, else 0 or -1.  The counts
 * are a subset of the seen requests, so they are looked up first: a
 * copy heard within the jitter window costs two dict operations. */
static int
flood_count(Flood *f, PyObject *key)
{
    PyObject *count = PyDict_GetItemWithError(f->counts, key);
    if (!count) {
        if (PyErr_Occurred())
            return -1;
        int seen = PyDict_Contains(f->seen, key);
        return seen < 0 ? -1 : !seen;
    }
    PyObject *more = PyNumber_Add(count, int_one);
    if (!more)
        return -1;
    int rc = PyDict_SetItem(f->counts, key, more);
    Py_DECREF(more);
    return rc;
}

/* self.usable(node) for slot s's agent: 1 usable, 0 not, 2 when the hook
 * is neither the default nor a guard's is_usable it can run without Python
 * (the frame then takes the Python path), -1 on error. */
static int
flood_usable(MediumObj *m, Flood *f, PyObject *node)
{
    PyObject *usable = PyObject_GetAttr(f->agent, str_usable);
    if (!usable)
        return -1;
    int rc = 2;
    if (usable == m->always_usable)
        rc = 1;
    else if (PyCFunction_CheckExact(usable) &&
             PyCFunction_GET_FUNCTION(usable) == (PyCFunction)Guard_is_usable)
        rc = guard_usable_here((GuardObj *)PyCFunction_GET_SELF(usable), node);
    Py_DECREF(usable);
    return rc;
}

/* OnDemandRouting._on_data at an intermediate hop: a fresh route whose
 * next hop is usable forwards the packet (_forward_data, Node.unicast).
 * 0 when done, 1 for on_frame (the destination, no fresh route, an
 * unusable or unknown hook), -1 on error. */
static int
forward_data(MediumObj *m, Py_ssize_t s, PyObject *frame, PyObject *packet)
{
    Flood *f = &m->slots[s].flood;
    LayoutObj *L = m->layout;
    PyObject *destination = SLOT_AT(packet, L->data_off[D_DESTINATION]);
    if (!destination)
        return 1;
    int rc = PyObject_RichCompareBool(destination, f->me, Py_EQ);
    if (rc)
        return rc;
    /* routes.lookup(destination, now), the expired case left to it */
    PyObject *entry = PyDict_GetItemWithError(f->entries, destination);
    if (!entry)
        return PyErr_Occurred() ? -1 : 1;
    PyObject *expires = Py_TYPE(entry) == L->entry_cls
                            ? SLOT_AT(entry, L->entry_off[E_EXPIRES_AT]) : NULL;
    PyObject *next_hop = Py_TYPE(entry) == L->entry_cls
                             ? SLOT_AT(entry, L->entry_off[E_NEXT_HOP]) : NULL;
    if (!expires || !PyFloat_CheckExact(expires) || !next_hop ||
        !(m->sim->now < PyFloat_AS_DOUBLE(expires)))
        return 1;
    Py_INCREF(next_hop);
    rc = flood_usable(m, f, next_hop);
    if (rc == 1) {
        PyObject *prev_hop = SLOT_AT(frame, L->frame_off[F_TRANSMITTER]);
        rc = prev_hop ? flood_submit(m, s, packet, next_hop, prev_hop, Py_None) : 1;
    } else if (rc >= 0) {
        rc = 1;
    }
    Py_DECREF(next_hop);
    return rc;
}

/* OnDemandRouting._on_reply at a reverse-path hop: the reverse pointer,
 * the route toward the reply's target (routes.install) and, to a usable
 * next hop, _forward_reply's Node.unicast.  0 when done, 1 for on_frame
 * (the origin, no reverse pointer, an unusable or unknown hook), -1 on
 * error. */
static int
forward_reply(MediumObj *m, Py_ssize_t s, PyObject *frame, PyObject *reply)
{
    Flood *f = &m->slots[s].flood;
    LayoutObj *L = m->layout;
    PyObject *field[R_COUNT];
    for (int r = R_ORIGIN; r < R_COUNT; r++)
        if (!(field[r] = SLOT_AT(reply, L->reply_off[r])))
            return 1;
    PyObject *transmitter = SLOT_AT(frame, L->frame_off[F_TRANSMITTER]);
    if (!transmitter)
        return 1;
    int rc = PyObject_RichCompareBool(field[R_ORIGIN], f->me, Py_EQ);
    if (rc)
        return rc;
    /* seen.get(("REQ", origin, request_id)) */
    PyObject *key = PyTuple_Pack(3, str_req, field[R_ORIGIN], field[R_REQUEST_ID]);
    if (!key)
        return -1;
    PyObject *next_hop = PyDict_GetItemWithError(f->seen, key);
    Py_DECREF(key);
    if (!next_hop || next_hop == Py_None)
        return PyErr_Occurred() ? -1 : 1;
    Py_INCREF(next_hop);
    /* The hook has no side effect here, so asking it before the install
     * changes nothing; a no leaves the whole frame to on_frame. */
    rc = flood_usable(m, f, next_hop);
    if (rc != 1) {
        Py_DECREF(next_hop);
        return rc < 0 ? -1 : 1;
    }
    PyTypeObject *cls = L->entry_cls;
    double now = m->sim->now;
    PyObject *entry = cls->tp_alloc(cls, 0);
    PyObject *installed = PyFloat_FromDouble(now);
    PyObject *expires = PyFloat_FromDouble(now + f->timeout);
    rc = -1;
    if (entry && installed && expires) {
        PyObject *value[E_COUNT] = {field[R_TARGET], transmitter, installed, expires,
                                    field[R_HOP_COUNT], field[R_PATH],
                                    field[R_REQUEST_ID]};
        for (int e = 0; e < E_COUNT; e++)
            SLOT_AT(entry, L->entry_off[e]) = Py_NewRef(value[e]);
        if (PyDict_SetItem(f->entries, field[R_TARGET], entry) == 0)
            rc = flood_submit(m, s, reply, next_hop, transmitter, Py_None);
    }
    Py_XDECREF(entry);
    Py_XDECREF(installed);
    Py_XDECREF(expires);
    Py_DECREF(next_hop);
    return rc;
}

/* OnDemandRouting.on_frame for slot s's agent: 0 when done here, 1 when
 * the listener must run, -1 on error. */
static int
flood_receive(MediumObj *m, Py_ssize_t s, PyObject *frame)
{
    LayoutObj *L = m->layout;
    if (Py_TYPE(frame) != L->frame_cls)
        return 1;
    PyObject *packet = SLOT_AT(frame, L->frame_off[F_PACKET]);
    if (!packet)
        return 1;
    Flood *f = &m->slots[s].flood;
    PyTypeObject *cls = Py_TYPE(packet);
    if (cls == L->reply_cls || cls == L->data_cls) {
        /* Overheard, addressed to another node: nothing to do. */
        PyObject *dst = SLOT_AT(frame, L->frame_off[F_LINK_DST]);
        int mine = dst ? PyObject_RichCompareBool(dst, f->me, Py_EQ) : 1;
        if (mine <= 0)
            return mine;
        /* Addressed here: forward it when this is an intermediate hop. */
        Py_INCREF(frame);
        Py_INCREF(packet);
        int rc = cls == L->data_cls ? forward_data(m, s, frame, packet)
                                    : forward_reply(m, s, frame, packet);
        Py_DECREF(packet);
        Py_DECREF(frame);
        return rc;
    }
    /* The request paths read the key key() caches. */
    if (cls != L->request_cls || !layout_holds(L, REF_KEY, cls))
        return 1;
    PyObject *key = SLOT_AT(packet, L->request_off[R_KEY]),
             *target = SLOT_AT(packet, L->request_off[R_TARGET]),
             *origin = SLOT_AT(packet, L->request_off[R_ORIGIN]),
             *prev_hop = SLOT_AT(frame, L->frame_off[F_TRANSMITTER]);
    if (!key || key == Py_None || !target || !origin || !prev_hop)
        return 1;
    int rc = PyObject_RichCompareBool(target, f->me, Py_EQ);
    if (rc)
        return rc;
    if ((rc = flood_count(f, key)) <= 0)
        return rc;
    if ((rc = PyObject_RichCompareBool(origin, f->me, Py_EQ)) != 0)
        return rc;
    if (f->threshold == 0 || f->jitter == 0.0)
        return 1;
    /* The first copy at a forwarder: remember the neighbour it came from,
     * open its copy count, and decide after forward_jitter * random(). */
    PyObject *zero = PyLong_FromLong(0);
    if (!zero || PyDict_SetItem(f->seen, key, prev_hop) < 0 ||
        PyDict_SetItem(f->counts, key, zero) < 0) {
        Py_XDECREF(zero);
        return -1;
    }
    Py_DECREF(zero);
    double jitter = f->jitter;
    Step *st = step_new(m, EV_DECIDE, s, 0, 0);
    if (!st)
        return -1;
    st->request = Py_NewRef(packet);
    st->prev_hop = Py_NewRef(prev_hop);
    PyObject *random = Py_NewRef(f->random);
    PyObject *u = PyObject_CallNoArgs(random);
    Py_DECREF(random);
    double draw = u ? PyFloat_AsDouble(u) : -1.0;
    Py_XDECREF(u);
    if ((draw == -1.0 && PyErr_Occurred()) || medium_check(m) < 0) {
        step_free(st);
        return -1;
    }
    return medium_schedule(m, st, jitter * draw);
}

/* RouteRequest.forwarded_by(node): the copy one hop on, sharing the
 * request's key tuple, its uid the next of packet.py's counter. */
static PyObject *
request_copy(MediumObj *m, PyObject *request, PyObject *node)
{
    LayoutObj *L = m->layout;
    PyObject *field[R_COUNT] = {NULL}, *copy = NULL;
    for (int r = R_KEY; r < R_COUNT; r++)
        if (!(field[r] = slot_get(request, L->request_off[r], *request_names[r])))
            goto done;
    PyObject *one = PyLong_FromLong(1), *tail = PyTuple_Pack(1, node);
    Py_SETREF(field[R_HOP_COUNT], one && tail ? PyNumber_Add(field[R_HOP_COUNT], one) : NULL);
    if (field[R_HOP_COUNT])
        Py_SETREF(field[R_PATH], PyNumber_Add(field[R_PATH], tail));
    Py_XDECREF(one);
    Py_XDECREF(tail);
    if (!field[R_HOP_COUNT] || !field[R_PATH])
        goto done;
    if (!(field[R_UID] = PyIter_Next(L->uids))) {
        if (!PyErr_Occurred())
            PyErr_SetNone(PyExc_StopIteration);
        goto done;
    }
    if ((copy = L->request_cls->tp_alloc(L->request_cls, 0)))
        for (int r = 0; r < R_COUNT; r++) {
            SLOT_AT(copy, L->request_off[r]) = field[r];
            field[r] = NULL;
        }
done:
    for (int r = 0; r < R_COUNT; r++)
        Py_XDECREF(field[r]);
    return copy;
}

/* Node._submit(Frame(packet, me, link_dst, prev_hop), jitter, None) from
 * slot s's node, the Frame built by slot offset: the alive check, the
 * send filters (a LITEWORP guard's entered directly), the MAC's send. */
static int
flood_submit(MediumObj *m, Py_ssize_t s, PyObject *packet, PyObject *link_dst,
             PyObject *prev_hop, PyObject *jitter)
{
    Flood *f = &m->slots[s].flood;
    LayoutObj *L = m->layout;
    PyObject *node = Py_NewRef(f->node), *filters = Py_NewRef(f->send_filters);
    PyObject *field[F_COUNT] = {packet, f->me, link_dst, prev_hop, Py_None};
    PyObject *frame = L->frame_cls->tp_alloc(L->frame_cls, 0);
    int rc = -1;
    if (!frame)
        goto done;
    for (int i = 0; i < F_COUNT; i++)
        SLOT_AT(frame, L->frame_off[i]) = Py_NewRef(field[i]);
    static SlotRule alive_rule;
    rc = attr_true(&alive_rule, node, str_alive);
    for (Py_ssize_t i = 0; rc > 0 && i < PyList_GET_SIZE(filters); i++) {
        PyObject *check = Py_NewRef(PyList_GET_ITEM(filters, i));
        if (PyCFunction_CheckExact(check) &&
            PyCFunction_GET_FUNCTION(check) == (PyCFunction)Guard_send_filter) {
            rc = guard_send_filter((GuardObj *)PyCFunction_GET_SELF(check), frame);
        } else {
            PyObject *verdict = PyObject_CallOneArg(check, frame);
            rc = verdict ? PyObject_IsTrue(verdict) : -1;
            Py_XDECREF(verdict);
        }
        Py_DECREF(check);
    }
    if (rc > 0)
        rc = medium_check(m) < 0 ? -1 : mac_send(m, s, frame, jitter, Py_None);
done:
    Py_XDECREF(frame);
    Py_DECREF(node);
    Py_DECREF(filters);
    return rc < 0 ? -1 : 0;
}

/* OnDemandRouting._forward_decision(prev_hop, request) for slot s's agent. */
static int
flood_decide(MediumObj *m, Py_ssize_t s, PyObject *request, PyObject *prev_hop)
{
    Flood *f = &m->slots[s].flood;
    if (!f->agent) {
        PyErr_SetString(PyExc_RuntimeError, "the flood has been cleared");
        return -1;
    }
    LayoutObj *L = m->layout;
    /* Packet.key wrapped since the request came in: the method's turn. */
    if (!layout_holds(L, REF_KEY, Py_TYPE(request)))
        return discard(PyObject_CallMethodObjArgs(f->agent, str_forward_decision,
                                                  prev_hop, request, NULL));
    PyObject *key = slot_get(request, L->request_off[R_KEY], str_dkey);
    if (!key)
        return -1;
    /* extra_copies = counts.pop(key, 0) */
    long extra = 0;
    PyObject *count = PyDict_GetItemWithError(f->counts, key);
    if (count && (((extra = PyLong_AsLong(count)) == -1 && PyErr_Occurred()) ||
                  PyDict_DelItem(f->counts, key) < 0))
        count = NULL;
    Py_DECREF(key);
    if (!count && PyErr_Occurred())
        return -1;
    if (extra >= f->threshold)
        return 0;
    PyObject *me = Py_NewRef(f->me);
    PyObject *copy = request_copy(m, request, me);
    Py_DECREF(me);
    if (!copy)
        return -1;
    int rc = flood_submit(m, s, copy, Py_None, prev_hop, float_zero);
    Py_DECREF(copy);
    return rc;
}

/* ---- the handle ---------------------------------------------------- */
/* send(frame, jitter=None, tx_range=None) */
static PyObject *
Mac_send(MacObj *self, PyObject *const *args, Py_ssize_t nargs,
         PyObject *kwnames)
{
    PyObject **names[3] = {&str_frame, &str_jitter, &str_tx_range};
    PyObject *values[3] = {NULL, Py_None, Py_None};
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs > 3)
        goto usage;
    for (Py_ssize_t i = 0; i < nargs; i++)
        values[i] = args[i];
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, k);
        int i = 0;
        while (i < 3 && name != *names[i] && PyUnicode_Compare(name, *names[i]) != 0)
            i++;
        if (i == 3 || i < nargs)
            goto usage;
        values[i] = args[nargs + k];
    }
    if (!values[0])
        goto usage;
    MediumObj *m = self->medium;
    if (medium_check(m) < 0 || mac_send(m, self->slot, values[0], values[1], values[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
usage:
    PyErr_SetString(PyExc_TypeError, "send(frame, jitter=None, tx_range=None)");
    return NULL;
}

static PyObject *
Mac_disable(MacObj *self, PyObject *Py_UNUSED(ignored))
{
    Mac *mac = &self->medium->slots[self->slot].mac;
    mac->enabled = 0;
    mac->dropped += (unsigned long long)mac->len;
    mac->busy = 0;
    mac->epoch++;
    mac_clear_queue(mac);
    Py_RETURN_NONE;
}

static PyObject *
Mac_enable(MacObj *self, PyObject *Py_UNUSED(ignored))
{
    self->medium->slots[self->slot].mac.enabled = 1;
    Py_RETURN_NONE;
}

/* flood(agent, sim, node, seen, counts, entries, random, forward_jitter,
 *       suppression_threshold, route_timeout, on_frame, always_usable)
 * -> bool: run the agent's flood and forwarding in this MAC's slot (see
 * OnDemandRouting.__init__; the flood section above), `on_frame` and
 * `always_usable` the references of repro.routing.ondemand.  False, with
 * nothing wired, when the agent's simulator is not the medium's, a dict
 * is not a plain dict or the slot already runs an agent. */
static PyObject *
Mac_flood(MacObj *self, PyObject *args)
{
    PyObject *agent, *sim, *node, *seen, *counts, *entries, *random, *on_frame,
        *always_usable;
    double jitter, timeout;
    long threshold;
    if (!PyArg_ParseTuple(args, "OOOOOOOdldOO", &agent, &sim, &node, &seen, &counts,
                          &entries, &random, &jitter, &threshold, &timeout,
                          &on_frame, &always_usable))
        return NULL;
    MediumObj *m = self->medium;
    if (medium_check(m) < 0)
        return NULL;
    Flood *f = &m->slots[self->slot].flood;
    if ((PyObject *)m->sim != sim || !PyDict_CheckExact(seen) ||
        !PyDict_CheckExact(counts) || !PyDict_CheckExact(entries) || f->agent)
        Py_RETURN_FALSE;
    PyObject *me = PyObject_GetAttr(node, str_node_id);
    PyObject *filters = me ? PyObject_GetAttr(node, str_send_filters) : NULL;
    if (filters && !PyList_CheckExact(filters)) {
        PyErr_SetString(PyExc_TypeError, "send filters must be a list");
        Py_CLEAR(filters);
    }
    if (!filters) {
        Py_XDECREF(me);
        return NULL;
    }
    f->agent = Py_NewRef(agent);
    f->node = Py_NewRef(node);
    f->me = me;
    f->seen = Py_NewRef(seen);
    f->counts = Py_NewRef(counts);
    f->entries = Py_NewRef(entries);
    f->random = Py_NewRef(random);
    f->send_filters = filters;
    f->jitter = jitter;
    f->threshold = threshold;
    f->timeout = timeout;
    Py_XSETREF(m->on_frame, Py_NewRef(on_frame));
    Py_XSETREF(m->always_usable, Py_NewRef(always_usable));
    Py_RETURN_TRUE;
}

static PyObject *
Mac_get(MacObj *self, void *closure)
{
    Mac *mac = &self->medium->slots[self->slot].mac;
    switch ((int)(Py_intptr_t)closure) {
    case 0: return PyLong_FromUnsignedLongLong(mac->sent);
    case 1: return PyLong_FromUnsignedLongLong(mac->dropped);
    case 2: return PyLong_FromUnsignedLongLong(mac->arq_failures);
    case 3: return PyLong_FromSsize_t(mac->len);
    case 4: return PyBool_FromLong(mac->enabled);
    default: return PyBool_FromLong(self->medium->slots[self->slot].flood.agent != NULL);
    }
}

static void
Mac_dealloc(MacObj *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->medium);
    PyObject_GC_Del(self);
}

static int
Mac_traverse(MacObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->medium);
    return 0;
}

static PyMethodDef Mac_methods[] = {
    {"send", (PyCFunction)Mac_send, METH_FASTCALL | METH_KEYWORDS,
     "send(frame, jitter=None, tx_range=None): CsmaMac.send."},
    {"disable", (PyCFunction)Mac_disable, METH_NOARGS, "CsmaMac.disable."},
    {"enable", (PyCFunction)Mac_enable, METH_NOARGS, "CsmaMac.enable."},
    {"flood", (PyCFunction)Mac_flood, METH_VARARGS,
     "flood(agent, sim, node, seen, counts, entries, random, forward_jitter, "
     "suppression_threshold, route_timeout, classes) -> whether the medium "
     "runs the agent's route-request flood and forwarding."},
    {NULL}
};

static PyGetSetDef Mac_getset[] = {
    {"sent", (getter)Mac_get, NULL, "Frames put on the air.", (void *)0},
    {"dropped", (getter)Mac_get, NULL, "Frames dropped.", (void *)1},
    {"arq_failures", (getter)Mac_get, NULL, "Unicasts never acknowledged.", (void *)2},
    {"queue_length", (getter)Mac_get, NULL, "Frames waiting for the medium.", (void *)3},
    {"enabled", (getter)Mac_get, NULL, "Whether the MAC serves frames.", (void *)4},
    {"floods", (getter)Mac_get, NULL,
     "Whether the medium runs a routing agent's flood in this slot.", (void *)5},
    {NULL}
};

static PyTypeObject MacType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Mac",
    .tp_basicsize = sizeof(MacObj),
    .tp_dealloc = (destructor)Mac_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Mac_traverse,
    .tp_methods = Mac_methods,
    .tp_getset = Mac_getset,
    .tp_doc = "A node's CSMA MAC, run by the medium (see CsmaMac).",
};

/* mac(node, random, trace, base_backoff, max_attempts, default_jitter,
 *     arq_retries): wire a CsmaMac's state into node's slot. */
static PyObject *
Medium_mac(MediumObj *m, PyObject *args)
{
    PyObject *node, *random, *trace;
    double base_backoff, default_jitter;
    long max_attempts, arq_retries;
    if (!PyArg_ParseTuple(args, "OOOdldl", &node, &random, &trace,
                          &base_backoff, &max_attempts, &default_jitter,
                          &arq_retries))
        return NULL;
    Py_ssize_t s = medium_slot_new(m, node);
    if (s < 0)
        return NULL;
    Mac *mac = &m->slots[s].mac;
    if (mac->random) {
        PyErr_Format(PyExc_ValueError, "node %R already has a MAC", node);
        return NULL;
    }
    MacObj *handle = PyObject_GC_New(MacObj, &MacType);
    if (!handle)
        return NULL;
    handle->medium = (MediumObj *)Py_NewRef((PyObject *)m);
    handle->slot = s;
    PyObject_GC_Track((PyObject *)handle);
    mac->random = Py_NewRef(random);
    mac->trace = trace == Py_None ? NULL : Py_NewRef(trace);
    mac->base_backoff = base_backoff;
    mac->default_jitter = default_jitter;
    mac->max_attempts = max_attempts;
    mac->arq_retries = arq_retries;
    mac->enabled = 1;
    return (PyObject *)handle;
}

static PyObject *
Medium_set_stamper(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "set_stamper(node, stamper)");
        return NULL;
    }
    Py_ssize_t s = medium_slot_new(m, args[0]);
    if (s < 0)
        return NULL;
    Py_XSETREF(m->slots[s].stamper, args[1] == Py_None ? NULL : Py_NewRef(args[1]));
    Py_RETURN_NONE;
}

static PyMethodDef Medium_methods[] = {
    {"attach", (PyCFunction)Medium_attach, METH_FASTCALL,
     "attach(node, handler, owner=None): set node's delivery handler."},
    {"set_loss_handler", (PyCFunction)Medium_set_loss_handler, METH_FASTCALL,
     "set_loss_handler(node, handler, owner=None): notify node of lost receptions."},
    {"set_deaf", (PyCFunction)Medium_set_deaf, METH_FASTCALL,
     "set_deaf(node, deaf): switch node's radio off or back on."},
    {"set_link", (PyCFunction)Medium_set_link, METH_FASTCALL,
     "set_link(a, b, down): sever or restore the a <-> b link."},
    {"set_ambient_loss", (PyCFunction)Medium_set_ambient_loss, METH_O,
     "set_ambient_loss(p): per-reception loss probability."},
    {"transmit", (PyCFunction)Medium_transmit, METH_FASTCALL,
     "transmit(sender, frame, tx_range, on_outcome) -> air time"},
    {"set_stamper", (PyCFunction)Medium_set_stamper, METH_FASTCALL,
     "set_stamper(node, stamper): transform node's frames at transmission."},
    {"mac", (PyCFunction)Medium_mac, METH_VARARGS,
     "mac(node, random, trace, base_backoff, max_attempts, default_jitter, "
     "arq_retries) -> the node's MAC, run by the medium."},
    {"is_transmitting", (PyCFunction)Medium_is_transmitting, METH_O,
     "Whether node is mid-transmission."},
    {"is_busy", (PyCFunction)Medium_is_busy, METH_O,
     "Carrier sense at node: own transmission or any audible one."},
    {"release", (PyCFunction)Medium_release, METH_NOARGS,
     "Drop every handler and reference but the layout; the counters stay "
     "readable."},
    {NULL}
};

static PyGetSetDef Medium_getset[] = {
    {"collisions", (getter)Medium_get_collisions, NULL,
     "Receptions destroyed so far (interference or half-duplex).", NULL},
    {"transmissions", (getter)Medium_get_transmissions, NULL,
     "Frames put on the air so far.", NULL},
    {NULL}
};

static PyMemberDef Medium_members[] = {
    {"layout", T_OBJECT, offsetof(MediumObj, layout), READONLY, "The kernel's Layout."},
    {NULL}
};

static PyTypeObject MediumType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Medium",
    .tp_basicsize = sizeof(MediumObj),
    .tp_dealloc = (destructor)Medium_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Medium_traverse,
    .tp_clear = (inquiry)Medium_clear,
    .tp_methods = Medium_methods,
    .tp_getset = Medium_getset,
    .tp_members = Medium_members,
    .tp_new = Medium_new,
    .tp_doc = "The wireless channel's per-reception work (see Channel).",
};

/* ------------------------------------------------------------------ */
/* Guard: LITEWORP's per-frame receive hook                           */
/* ------------------------------------------------------------------ */
/* The C side of repro.core.monitor.LocalMonitor and of
 * repro.core.agent.LiteworpAgent's receive hook when the monitor's
 * simulator is this module's Simulator.  One Guard per monitor.
 * receive() runs LiteworpAgent._receive's steps in its order: the
 * liveness tap, the monitor's judgement (observe), the non-neighbour,
 * revoked and second-hop checks, then the packet-type dispatch; observe()
 * is LocalMonitor.observe's body.  Both make the Python paths' callbacks,
 * state changes and trace records, in the same order.
 *
 * The guard owns the overheard store: two generations of an
 * open-addressing table of (packet key, node) -> last stamp, rotated as
 * LocalMonitor._remember rotates its two dicts, so it gives the same
 * answers; keys and node ids match as they would in a dict.  Frames and
 * packets of the expected classes, and a neighbour record's status while
 * it is a plain member slot, are read by slot offset; anything else
 * through attribute lookup.  The agent's receive hook is entered directly
 * when the medium runs the node's filters (filter_pass).
 *
 * The guard also runs the agent's send filter (send_filter: an
 * activated agent's own transmissions go to observe with own set, a send
 * to a revoked next hop calls LiteworpAgent._send_filter) and its
 * is_usable, and the bodies of the monitor's _add_expectation (while it
 * has no liveness predicate) and _note_watch_size and of the agent's
 * _reject, building their watch_buffer and frame_rejected records with
 * the layout.  Each of those bodies runs here only while the class still
 * resolves the method's name to the reference (guard_runs).  The watch
 * buffer is the monitor's own dict, its deadlines Events of the
 * monitor's _expectation_expired.
 *
 * Everything else stays in Python and is called by name on the rare
 * paths: the monitor's _accuse, _watch_request_forwarders, the expiry
 * and its counters and _last_loss; the agent's accepted-packet handlers;
 * packet_role on a packet class's first sight and Packet.key() while a
 * key is not cached or the class is not the layout's to read. */

static PyObject *str_observe, *str_inner_key, *str_cancel, *str_note_watch_size,
    *str_accuse, *str_add_expectation, *str_watch_request_forwarders,
    *str_reject, *str_note_frame, *str_fabrications_seen,
    *str_suppressed_accusations, *str_status, *str_fabrication,
    *str_nonneighbor, *str_revoked, *str_secondhop, *str_expectation_expired,
    *str_watch_sampled_size, *str_watch_sampled_at, *str_watch_buffer_peak,
    *str_watch_buffer, *str_frame_rejected, *str_is_alive_pred, *str_rejects,
    *str_send_filter, *str_is_alive;

/* The same numbering as repro.core.monitor's ROLE_* constants. */
enum { ROLE_RERR, ROLE_DATA, ROLE_IGNORED, ROLE_REQ, ROLE_REP, ROLE_OTHER };

typedef struct {
    PyObject *key;          /* packet key; NULL marks an empty cell */
    PyObject *node;
    Py_hash_t hash;         /* of (key, node), see watch_hash */
    double stamp;
} Heard;

typedef struct {
    Heard *cells;
    Py_ssize_t cap;         /* 0 or a power of two */
    Py_ssize_t used;
} HeardTable;

typedef struct {
    PyTypeObject *cls;
    int role;
} PacketKind;

/* The monitor's and the agent's methods whose bodies the guard runs,
 * as their classes define them: each runs here only while the class
 * still resolves its name to it (cached per class version). */
enum { M_OBSERVE, M_ADD_EXPECTATION, M_NOTE_WATCH_SIZE, M_REJECT, M_COUNT };

struct GuardObj {
    PyObject_HEAD
    SimObj *sim;
    PyObject *monitor;
    PyObject *owner;
    PyObject *first;        /* NeighborTable's first-hop dict */
    PyObject *second;       /* NeighborTable's second-hop dict */
    PyObject *expectations; /* the monitor's watch buffer */
    PyObject *method[M_COUNT];  /* LocalMonitor.observe, ..., LiteworpAgent._reject */
    Lookup rule[M_COUNT];
    PyTypeObject *monitor_cls;  /* the monitor's class, read without the monitor */
    PyObject *packet_role;
    PyObject *active, *revoked;     /* status values */
    PyObject *v_fabricate;
    PyObject *trace;        /* the monitor's, for watch_buffer and frame_rejected; or NULL */
    LayoutObj *layout;
    /* Set by bind(); receive() needs them. */
    PyObject *agent;
    PyObject *handlers;     /* packet class -> handler */
    PyObject *liveness;     /* or NULL */
    double grace, window, delta, sample_period;
    double cutoff, rotated_at;
    HeardTable cur, old;
    PacketKind *kinds;
    Py_ssize_t nkinds, cap_kinds;
    char enabled, watch_data, watch_request_drops, second_hop_check;
    char activated;
};

static PyTypeObject GuardType;

static PyObject **method_names[M_COUNT] = {&str_observe, &str_add_expectation,
                                           &str_note_watch_size, &str_reject};

/* Whether `cls` still resolves the name of method i to the reference. */
static inline int
guard_runs(GuardObj *g, int i, PyTypeObject *cls)
{
    return resolves_to(&g->rule[i], cls, *method_names[i], g->method[i]);
}

/* ---- overheard store ---------------------------------------------- */
/* The hash of (key, node), given hash(key); -1 with an error set. */
static Py_hash_t
watch_hash(Py_hash_t key_hash, PyObject *node)
{
    Py_hash_t node_hash = PyObject_Hash(node);
    if (node_hash == -1)
        return -1;
    uint64_t h = (uint64_t)key_hash * 0x9E3779B97F4A7C15ull ^ (uint64_t)node_hash;
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    return (Py_hash_t)(h >> 1);  /* never -1 */
}

/* The cell holding (key, node), or NULL; *err set on a comparison error. */
static Heard *
heard_find(HeardTable *t, PyObject *key, PyObject *node, Py_hash_t hash,
           int *err)
{
    if (!t->cap)
        return NULL;
    size_t mask = (size_t)t->cap - 1;
    for (size_t i = (size_t)hash & mask;; i = (i + 1) & mask) {
        Heard *c = &t->cells[i];
        if (!c->key)
            return NULL;
        if (c->hash != hash)
            continue;
        int eq = PyObject_RichCompareBool(c->node, node, Py_EQ);
        if (eq > 0)
            eq = PyObject_RichCompareBool(c->key, key, Py_EQ);
        if (eq < 0) {
            *err = 1;
            return NULL;
        }
        if (eq)
            return c;
    }
}

static int
heard_grow(HeardTable *t)
{
    Py_ssize_t cap = t->cap ? t->cap * 2 : 16;
    Heard *cells = PyMem_Calloc((size_t)cap, sizeof(Heard));
    if (!cells) {
        PyErr_NoMemory();
        return -1;
    }
    size_t mask = (size_t)cap - 1;
    for (Py_ssize_t j = 0; j < t->cap; j++) {
        if (!t->cells[j].key)
            continue;
        size_t i = (size_t)t->cells[j].hash & mask;
        while (cells[i].key)
            i = (i + 1) & mask;
        cells[i] = t->cells[j];
    }
    PyMem_Free(t->cells);
    t->cells = cells;
    t->cap = cap;
    return 0;
}

static int
heard_put(HeardTable *t, PyObject *key, PyObject *node, Py_hash_t hash,
          double stamp)
{
    int err = 0;
    Heard *c = heard_find(t, key, node, hash, &err);
    if (err)
        return -1;
    if (c) {
        c->stamp = stamp;
        return 0;
    }
    /* At most two thirds full, as a dict is. */
    if ((t->used + 1) * 3 > t->cap * 2 && heard_grow(t) < 0)
        return -1;
    size_t mask = (size_t)t->cap - 1;
    size_t i = (size_t)hash & mask;
    while (t->cells[i].key)
        i = (i + 1) & mask;
    c = &t->cells[i];
    c->key = Py_NewRef(key);
    c->node = Py_NewRef(node);
    c->hash = hash;
    c->stamp = stamp;
    t->used++;
    return 0;
}

/* Empty the table, keeping its cells for reuse. */
static void
heard_clear(HeardTable *t)
{
    for (Py_ssize_t i = 0; i < t->cap && t->used; i++) {
        Heard *c = &t->cells[i];
        if (c->key) {
            PyObject *key = c->key, *node = c->node;
            c->key = c->node = NULL;
            t->used--;
            Py_DECREF(key);
            Py_DECREF(node);
        }
    }
}

static void
heard_free(HeardTable *t)
{
    heard_clear(t);
    PyMem_Free(t->cells);
    t->cells = NULL;
    t->cap = 0;
}

/* LocalMonitor._remember: stamp (key, node) heard at `now`. */
static int
guard_remember(GuardObj *g, PyObject *key, Py_hash_t key_hash,
               PyObject *node, double now)
{
    Py_hash_t hash = watch_hash(key_hash, node);
    if (hash == -1)
        return -1;
    double cutoff = now - g->window;
    g->cutoff = cutoff;
    if (cutoff >= g->rotated_at) {
        /* Every stamp in the old generation predates the last rotation,
         * so is below this cutoff and every later one. */
        HeardTable emptied = g->old;
        g->old = g->cur;
        g->cur = emptied;
        heard_clear(&g->cur);
        g->rotated_at = now;
    }
    return heard_put(&g->cur, key, node, hash, now);
}

/* LocalMonitor._heard: 1 if (key, node) was heard since the cutoff. */
static int
guard_heard(GuardObj *g, PyObject *key, Py_hash_t key_hash, PyObject *node)
{
    Py_hash_t hash = watch_hash(key_hash, node);
    if (hash == -1)
        return -1;
    int err = 0;
    Heard *c = heard_find(&g->cur, key, node, hash, &err);
    if (!c && !err)
        c = heard_find(&g->old, key, node, hash, &err);
    if (err)
        return -1;
    return c && c->stamp >= g->cutoff;
}

/* ---- per-frame body ----------------------------------------------- */
static int
guard_check(GuardObj *g)
{
    if (g->monitor)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "guard has been cleared");
    return -1;
}

/* The role of `packet`'s class, classified by packet_role on first
 * sight; -1 on error. */
static int
packet_kind(GuardObj *g, PyObject *packet)
{
    PyTypeObject *cls = Py_TYPE(packet);
    for (Py_ssize_t i = 0; i < g->nkinds; i++)
        if (g->kinds[i].cls == cls)
            return g->kinds[i].role;
    PyObject *r = PyObject_CallOneArg(g->packet_role, packet);
    if (!r)
        return -1;
    long role = PyLong_AsLong(r);
    Py_DECREF(r);
    if (role == -1 && PyErr_Occurred())
        return -1;
    if (g->nkinds == g->cap_kinds) {
        Py_ssize_t cap = g->cap_kinds ? g->cap_kinds * 2 : 8;
        PacketKind *kinds = PyMem_Realloc(g->kinds,
                                          (size_t)cap * sizeof(PacketKind));
        if (!kinds) {
            PyErr_NoMemory();
            return -1;
        }
        g->kinds = kinds;
        g->cap_kinds = cap;
    }
    g->kinds[g->nkinds++] = (PacketKind){(PyTypeObject *)Py_NewRef((PyObject *)cls), (int)role};
    return (int)role;
}

/* record.status == status; -1 on error. */
static int
status_is(PyObject *record, PyObject *status)
{
    static SlotRule status_rule;
    PyObject *value = attr_get(&status_rule, record, str_status);
    if (!value)
        return -1;
    int eq = PyObject_RichCompareBool(value, status, Py_EQ);
    Py_DECREF(value);
    return eq;
}

/* ---- the watch buffer ---------------------------------------------- */
/* LocalMonitor._note_watch_size: a throttled watch_buffer gauge record. */
static int
guard_note_size(GuardObj *g)
{
    if (!g->trace || !guard_runs(g, M_NOTE_WATCH_SIZE, g->monitor_cls))
        return discard(PyObject_CallMethodNoArgs(g->monitor, str_note_watch_size));
    PyObject *monitor = g->monitor, *size = NULL, *sampled = NULL, *now = NULL,
        *peak = NULL;
    int rc = -1;
    if (!(size = PyLong_FromSsize_t(PyDict_GET_SIZE(g->expectations))) ||
        !(sampled = PyObject_GetAttr(monitor, str_watch_sampled_size)))
        goto done;
    int same = PyObject_RichCompareBool(size, sampled, Py_EQ);
    if (same) {
        rc = same < 0 ? -1 : 0;
        goto done;
    }
    double time = g->sim->now;
    Py_SETREF(sampled, PyObject_GetAttr(monitor, str_watch_sampled_at));
    if (!sampled)
        goto done;
    if (sampled != Py_None) {
        double at = PyFloat_AsDouble(sampled);
        if (at == -1.0 && PyErr_Occurred())
            goto done;
        if (time - at < g->sample_period) {
            rc = 0;
            goto done;
        }
    }
    if (!(now = PyFloat_FromDouble(time)) ||
        PyObject_SetAttr(monitor, str_watch_sampled_at, now) < 0 ||
        PyObject_SetAttr(monitor, str_watch_sampled_size, size) < 0 ||
        !(peak = PyObject_GetAttr(monitor, str_watch_buffer_peak)))
        goto done;
    PyObject *head[3] = {g->owner, size, peak};
    rc = tracer_emit(g->layout, g->trace, now, str_watch_buffer, N_WATCH_BUFFER, head, 3,
                     NULL);
done:
    Py_XDECREF(size);
    Py_XDECREF(sampled);
    Py_XDECREF(now);
    Py_XDECREF(peak);
    return rc;
}

/* LocalMonitor._add_expectation(key, watched) while no liveness predicate
 * is set: a deadline Event of the monitor's _expectation_expired, delta
 * from now, stored in its watch buffer; the peak; the gauge. */
static int
guard_expect(GuardObj *g, PyObject *key, PyObject *watched)
{
    if (!guard_runs(g, M_ADD_EXPECTATION, g->monitor_cls))
        goto python;
    PyObject *predicate = PyObject_GetAttr(g->monitor, str_is_alive_pred);
    if (!predicate)
        return -1;
    Py_DECREF(predicate);
    if (predicate != Py_None)
        goto python;
    PyObject *watch_key = PyTuple_Pack(2, key, watched);
    if (!watch_key)
        return -1;
    int rc = PyDict_Contains(g->expectations, watch_key);
    if (rc != 0) {
        Py_DECREF(watch_key);
        return rc < 0 ? -1 : 0;
    }
    rc = -1;
    double time = g->sim->now;
    PyObject *now = PyFloat_FromDouble(time), *event = NULL, *size = NULL,
        *peak = NULL;
    PyObject *callback = now ? PyObject_GetAttr(g->monitor, str_expectation_expired) : NULL;
    PyObject *args = callback ? PyTuple_Pack(2, watch_key, now) : NULL;
    if (!args || !(event = sim_push(g->sim, time + g->delta, callback, args, NULL)) ||
        PyDict_SetItem(g->expectations, watch_key, event) < 0 ||
        !(size = PyLong_FromSsize_t(PyDict_GET_SIZE(g->expectations))) ||
        !(peak = PyObject_GetAttr(g->monitor, str_watch_buffer_peak)))
        goto done;
    int higher = PyObject_RichCompareBool(size, peak, Py_GT);
    if (higher > 0)
        higher = PyObject_SetAttr(g->monitor, str_watch_buffer_peak, size);
    if (higher == 0)
        rc = guard_note_size(g);
done:
    Py_DECREF(watch_key);
    Py_XDECREF(now);
    Py_XDECREF(callback);
    Py_XDECREF(event);
    Py_XDECREF(size);
    Py_XDECREF(peak);
    return rc;
python:
    return discard(PyObject_CallMethodObjArgs(g->monitor, str_add_expectation,
                                              key, watched, NULL));
}

/* expectations.pop((key, node)): cancel the pending deadline, then
 * re-sample the gauge. */
static int
pop_expectation(GuardObj *g, PyObject *key, PyObject *node)
{
    if (!PyDict_GET_SIZE(g->expectations))
        return 0;
    PyObject *watch_key = PyTuple_Pack(2, key, node);
    if (!watch_key)
        return -1;
    PyObject *pending = PyDict_GetItemWithError(g->expectations, watch_key);
    if (!pending) {
        Py_DECREF(watch_key);
        return PyErr_Occurred() ? -1 : 0;
    }
    Py_INCREF(pending);
    int rc = PyDict_DelItem(g->expectations, watch_key);
    Py_DECREF(watch_key);
    if (rc == 0)
        rc = discard(PyObject_CallMethodNoArgs(pending, str_cancel));
    Py_DECREF(pending);
    return rc == 0 ? guard_note_size(g) : rc;
}

/* LocalMonitor.observe's body. */
static int
guard_observe(GuardObj *g, PyObject *frame, int own)
{
    if (!g->enabled)
        return 0;
    PyObject *packet = NULL, *tx = NULL, *key = NULL, *prev = NULL,
        *watched = NULL, *consumer = NULL;
    int rc = -1;
    tx = frame_slot(g->layout, frame, F_TRANSMITTER);
    if (!tx)
        goto done;
    if (!own) {
        /* A guard judges only what its own neighbours transmit. */
        if (!PyDict_GetItemWithError(g->first, tx)) {
            rc = PyErr_Occurred() ? -1 : 0;
            goto done;
        }
    }
    packet = frame_slot(g->layout, frame, F_PACKET);
    int role = packet ? packet_kind(g, packet) : -1;
    if (role < 0)
        goto done;
    if (role == ROLE_RERR) {
        /* The transmitter legitimately cannot forward: clear the watch. */
        if (PyDict_GET_SIZE(g->expectations)) {
            PyObject *inner = PyObject_GetAttr(packet, str_inner_key);
            if (!inner)
                goto done;
            rc = pop_expectation(g, inner, tx);
            Py_DECREF(inner);
        } else {
            rc = 0;
        }
        goto done;
    }
    if (role == ROLE_IGNORED || (role == ROLE_DATA && !g->watch_data)) {
        rc = 0;
        goto done;
    }

    double now = g->sim->now;
    key = packet_key(g->layout, packet);
    if (!key)
        goto done;
    Py_hash_t hash = PyObject_Hash(key);
    if (hash == -1 && PyErr_Occurred())
        goto done;
    if (guard_remember(g, key, hash, tx, now) < 0 ||
        pop_expectation(g, key, tx) < 0)
        goto done;

    prev = frame_slot(g->layout, frame, F_PREV_HOP);
    if (!prev)
        goto done;
    /* Only a guard of the claimed link (prev's neighbour) can judge. */
    if (!own && prev != Py_None) {
        PyObject *record = PyDict_GetItemWithError(g->first, prev);
        if (!record && PyErr_Occurred())
            goto done;
        int heard = record ? guard_heard(g, key, hash, prev) : 1;
        if (heard < 0)
            goto done;
        if (!heard) {
            PyObject *loss = PyObject_GetAttr(g->monitor, str_last_loss);
            if (!loss)
                goto done;
            double last_loss = PyFloat_AsDouble(loss);
            Py_DECREF(loss);
            if (last_loss == -1.0 && PyErr_Occurred())
                goto done;
            static SlotRule suppressed_rule, fabrications_rule;
            if (last_loss >= now - g->grace) {
                /* Our radio was impaired recently: withhold judgement. */
                if (increment(&suppressed_rule, g->monitor, str_suppressed_accusations) < 0)
                    goto done;
            } else if (increment(&fabrications_rule, g->monitor, str_fabrications_seen) < 0 ||
                       discard(PyObject_CallMethodObjArgs(
                           g->monitor, str_accuse, tx, g->v_fabricate,
                           str_fabrication, key, NULL)) < 0) {
                goto done;
            }
        }
    }

    watched = frame_slot(g->layout, frame, F_LINK_DST);
    if (!watched)
        goto done;
    if (watched == Py_None) {
        if (role == ROLE_REQ && g->watch_request_drops &&
            discard(PyObject_CallMethodObjArgs(
                g->monitor, str_watch_request_forwarders, packet, key, tx,
                NULL)) < 0)
            goto done;
        rc = 0;
        goto done;
    }
    /* Expect a forward unless the receiver legitimately consumes the
     * packet: a reply at its origin, data at its destination, and any
     * other monitored type at its link destination. */
    LayoutObj *L = g->layout;
    PyTypeObject *cls = Py_TYPE(packet);
    if (role == ROLE_REP)
        consumer = slot_get(packet, cls == L->reply_cls ? L->reply_off[R_ORIGIN] : -1,
                            str_origin);
    else if (role == ROLE_DATA)
        consumer = slot_get(packet, cls == L->data_cls ? L->data_off[D_DESTINATION] : -1,
                            str_destination);
    else {
        rc = 0;
        goto done;
    }
    if (!consumer)
        goto done;
    int eq = PyObject_RichCompareBool(watched, consumer, Py_EQ);
    if (eq == 0)
        eq = PyObject_RichCompareBool(watched, g->owner, Py_EQ);
    if (eq != 0) {
        rc = eq < 0 ? -1 : 0;
        goto done;
    }
    PyObject *record = PyDict_GetItemWithError(g->first, watched);
    if (!record) {
        rc = PyErr_Occurred() ? -1 : 0;
        goto done;
    }
    int active = status_is(record, g->active);
    if (active < 0)
        goto done;
    rc = active ? guard_expect(g, key, watched) : 0;
done:
    Py_XDECREF(tx);
    Py_XDECREF(packet);
    Py_XDECREF(key);
    Py_XDECREF(prev);
    Py_XDECREF(watched);
    Py_XDECREF(consumer);
    return rc;
}

/* LiteworpAgent._reject(reason, frame): count it, then the
 * frame_rejected record, in the trace the agent shares with its monitor. */
static int
guard_reject(GuardObj *g, PyObject *reason, PyObject *frame)
{
    if (!g->trace || !guard_runs(g, M_REJECT, Py_TYPE(g->agent)))
        return discard(
            PyObject_CallMethodObjArgs(g->agent, str_reject, reason, frame, NULL));
    PyObject *rejects = PyObject_GetAttr(g->agent, str_rejects);
    PyObject *count = rejects ? PyObject_GetItem(rejects, reason) : NULL;
    PyObject *more = count ? PyNumber_Add(count, int_one) : NULL;
    int rc = more ? PyObject_SetItem(rejects, reason, more) : -1;
    Py_XDECREF(rejects);
    Py_XDECREF(count);
    Py_XDECREF(more);
    PyObject *now = rc < 0 ? NULL : PyFloat_FromDouble(g->sim->now);
    if (!now)
        return -1;
    PyObject *head[2] = {g->owner, reason};
    rc = tracer_emit(g->layout, g->trace, now, str_frame_rejected, N_FRAME_REJECTED, head,
                     2, frame);
    Py_DECREF(now);
    return rc;
}

/* LiteworpAgent._receive's checks on an activated agent: 1 accept,
 * 0 reject, -1 error. */
static int
guard_admit(GuardObj *g, PyObject *frame)
{
    /* A wrapper installed on LocalMonitor.observe must see the frame, so
     * the body is entered directly only while the monitor's class (as the
     * guard was built) has its own. */
    if (guard_runs(g, M_OBSERVE, g->monitor_cls)) {
        if (guard_observe(g, frame, 0) < 0)
            return -1;
    } else if (discard(
                   PyObject_CallMethodOneArg(g->monitor, str_observe, frame)) < 0) {
        return -1;
    }
    /* Looked up after the monitor, which may have just revoked it. */
    PyObject *tx = frame_slot(g->layout, frame, F_TRANSMITTER);
    if (!tx)
        return -1;
    int verdict = -1;
    PyObject *record = PyDict_GetItemWithError(g->first, tx);
    if (!record) {
        if (!PyErr_Occurred())
            verdict = guard_reject(g, str_nonneighbor, frame) < 0 ? -1 : 0;
        goto done;
    }
    int revoked = status_is(record, g->revoked);
    if (revoked) {
        if (revoked > 0)
            verdict = guard_reject(g, str_revoked, frame) < 0 ? -1 : 0;
        goto done;
    }
    PyObject *prev = frame_slot(g->layout, frame, F_PREV_HOP);
    if (!prev)
        goto done;
    verdict = 1;
    if (prev != Py_None && g->second_hop_check) {
        PyObject *reach = PyDict_GetItemWithError(g->second, tx);
        if (reach) {
            int known = PySequence_Contains(reach, prev);
            if (known < 0)
                verdict = -1;
            else if (!known)
                verdict = guard_reject(g, str_secondhop, frame) < 0 ? -1 : 0;
        } else if (PyErr_Occurred()) {
            verdict = -1;
        }
    }
    Py_DECREF(prev);
done:
    Py_DECREF(tx);
    return verdict;
}

/* ---- type methods -------------------------------------------------- */
static PyObject *
Guard_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"monitor", "sim", "owner", "first", "second",
                             "expectations", "enabled", "watch_data",
                             "watch_request_drops", "fabrication_grace",
                             "overheard_window", "v_fabricate", "delta",
                             "sample_period", "methods", "packet_role", "active",
                             "revoked", "trace", "layout", NULL};
    PyObject *monitor, *sim, *owner, *first, *second, *expectations,
        *v_fabricate, *role, *active, *revoked, *trace, *layout;
    PyObject *method[M_REJECT];
    int enabled, watch_data, watch_request_drops;
    double grace, window, delta, sample_period;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OO!OO!O!O!pppddOdd(OOO)OOOOO!", kwlist, &monitor,
            &SimType, &sim, &owner, &PyDict_Type, &first, &PyDict_Type,
            &second, &PyDict_Type, &expectations, &enabled, &watch_data,
            &watch_request_drops, &grace, &window, &v_fabricate, &delta,
            &sample_period, &method[M_OBSERVE], &method[M_ADD_EXPECTATION],
            &method[M_NOTE_WATCH_SIZE], &role, &active, &revoked, &trace,
            &LayoutType, &layout))
        return NULL;
    GuardObj *g = (GuardObj *)type->tp_alloc(type, 0);
    if (!g)
        return NULL;
    g->trace = trace == Py_None ? NULL : Py_NewRef(trace);
    g->layout = (LayoutObj *)Py_NewRef(layout);
    g->monitor = Py_NewRef(monitor);
    g->sim = (SimObj *)Py_NewRef(sim);
    g->owner = Py_NewRef(owner);
    g->first = Py_NewRef(first);
    g->second = Py_NewRef(second);
    g->expectations = Py_NewRef(expectations);
    g->v_fabricate = Py_NewRef(v_fabricate);
    for (int i = 0; i < M_REJECT; i++)
        g->method[i] = Py_NewRef(method[i]);
    g->monitor_cls = (PyTypeObject *)Py_NewRef((PyObject *)Py_TYPE(monitor));
    g->packet_role = Py_NewRef(role);
    g->active = Py_NewRef(active);
    g->revoked = Py_NewRef(revoked);
    g->enabled = (char)enabled;
    g->watch_data = (char)watch_data;
    g->watch_request_drops = (char)watch_request_drops;
    g->grace = grace;
    g->window = window;
    g->delta = delta;
    g->sample_period = sample_period;
    g->cutoff = -Py_HUGE_VAL;
    g->rotated_at = -Py_HUGE_VAL;
    return (PyObject *)g;
}

static int
Guard_traverse(GuardObj *g, visitproc visit, void *arg)
{
    Py_VISIT(g->sim);
    Py_VISIT(g->monitor);
    Py_VISIT(g->owner);
    Py_VISIT(g->first);
    Py_VISIT(g->second);
    Py_VISIT(g->expectations);
    for (int i = 0; i < M_COUNT; i++)
        Py_VISIT(g->method[i]);
    Py_VISIT(g->trace);
    Py_VISIT(g->layout);
    Py_VISIT(g->monitor_cls);
    Py_VISIT(g->packet_role);
    Py_VISIT(g->active);
    Py_VISIT(g->revoked);
    Py_VISIT(g->v_fabricate);
    Py_VISIT(g->agent);
    Py_VISIT(g->handlers);
    Py_VISIT(g->liveness);
    for (Py_ssize_t i = 0; i < g->nkinds; i++)
        Py_VISIT(g->kinds[i].cls);
    HeardTable *tables[2] = {&g->cur, &g->old};
    for (int t = 0; t < 2; t++)
        for (Py_ssize_t i = 0; i < tables[t]->cap; i++) {
            Py_VISIT(tables[t]->cells[i].key);
            Py_VISIT(tables[t]->cells[i].node);
        }
    return 0;
}

static int
Guard_clear(GuardObj *g)
{
    Py_CLEAR(g->sim);
    Py_CLEAR(g->monitor);
    Py_CLEAR(g->owner);
    Py_CLEAR(g->first);
    Py_CLEAR(g->second);
    Py_CLEAR(g->expectations);
    for (int i = 0; i < M_COUNT; i++)
        Py_CLEAR(g->method[i]);
    Py_CLEAR(g->trace);
    Py_CLEAR(g->monitor_cls);
    Py_CLEAR(g->packet_role);
    Py_CLEAR(g->active);
    Py_CLEAR(g->revoked);
    Py_CLEAR(g->v_fabricate);
    Py_CLEAR(g->agent);
    Py_CLEAR(g->handlers);
    Py_CLEAR(g->liveness);
    while (g->nkinds > 0) {
        g->nkinds--;
        Py_CLEAR(g->kinds[g->nkinds].cls);
    }
    heard_clear(&g->cur);
    heard_clear(&g->old);
    return 0;
}

static void
Guard_dealloc(GuardObj *g)
{
    PyObject_GC_UnTrack(g);
    Guard_clear(g);
    Py_CLEAR(g->layout);     /* kept by a release, see Medium_clear */
    heard_free(&g->cur);
    heard_free(&g->old);
    PyMem_Free(g->kinds);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static PyObject *
Guard_bind(GuardObj *g, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"agent", "handlers", "liveness",
                             "second_hop_check", "reject", NULL};
    PyObject *agent, *handlers, *liveness, *reject;
    int second_hop_check;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "$OO!OpO", kwlist, &agent,
                                     &PyDict_Type, &handlers, &liveness,
                                     &second_hop_check, &reject))
        return NULL;
    if (guard_check(g) < 0)
        return NULL;
    Py_XSETREF(g->agent, Py_NewRef(agent));
    Py_XSETREF(g->handlers, Py_NewRef(handlers));
    Py_XSETREF(g->liveness, liveness == Py_None ? NULL : Py_NewRef(liveness));
    Py_XSETREF(g->method[M_REJECT], Py_NewRef(reject));
    g->second_hop_check = (char)second_hop_check;
    Py_RETURN_NONE;
}

/* The agent's receive hook: 1 accept, 0 reject, -1 error. */
static int
guard_receive(GuardObj *g, PyObject *frame)
{
    if (guard_check(g) < 0)
        return -1;
    if (!g->agent) {
        PyErr_SetString(PyExc_RuntimeError, "guard is not bound to an agent");
        return -1;
    }
    if (g->liveness && discard(PyObject_CallMethodOneArg(
                           g->liveness, str_note_frame, frame)) < 0)
        return -1;
    if (g->activated) {
        int verdict = guard_admit(g, frame);
        if (verdict <= 0)
            return verdict;
    }
    PyObject *packet = frame_slot(g->layout, frame, F_PACKET);
    if (!packet)
        return -1;
    PyObject *handler = PyDict_GetItemWithError(g->handlers,
                                                (PyObject *)Py_TYPE(packet));
    Py_DECREF(packet);
    if (!handler)
        return PyErr_Occurred() ? -1 : 1;
    return call_one(handler, frame) < 0 ? -1 : 1;
}

static PyObject *
Guard_receive(GuardObj *g, PyObject *frame)
{
    int verdict = guard_receive(g, frame);
    return verdict < 0 ? NULL : PyBool_FromLong(verdict);
}

/* The agent's send filter (LiteworpAgent._send_filter): 1 pass, 0 veto,
 * -1 error.  A send to a revoked next hop calls the Python filter, which
 * records it and vetoes; every other send of an activated agent is its
 * monitor's own transmission (observe_own). */
static int
guard_send_filter(GuardObj *g, PyObject *frame)
{
    if (guard_check(g) < 0)
        return -1;
    if (!g->agent) {
        PyErr_SetString(PyExc_RuntimeError, "guard is not bound to an agent");
        return -1;
    }
    if (!g->activated)
        return 1;
    PyObject *dst = frame_slot(g->layout, frame, F_LINK_DST);
    if (!dst)
        return -1;
    int revoked = 0;
    if (dst != Py_None) {
        PyObject *record = PyDict_GetItemWithError(g->first, dst);
        revoked = record ? status_is(record, g->revoked) : PyErr_Occurred() ? -1 : 0;
    }
    Py_DECREF(dst);
    if (revoked) {
        if (revoked < 0)
            return -1;
        PyObject *r = PyObject_CallMethodOneArg(g->agent, str_send_filter, frame);
        int pass = r ? PyObject_IsTrue(r) : -1;
        Py_XDECREF(r);
        return pass;
    }
    return guard_observe(g, frame, 1) < 0 ? -1 : 1;
}

static PyObject *
Guard_send_filter(GuardObj *g, PyObject *frame)
{
    int pass = guard_send_filter(g, frame);
    return pass < 0 ? NULL : PyBool_FromLong(pass);
}

/* LiteworpAgent.is_usable(node): 1 usable, 0 not, -1 error.  Without a
 * liveness manager no Python code runs (guard_usable_here). */
static int
guard_usable(GuardObj *g, PyObject *node)
{
    if (guard_check(g) < 0)
        return -1;
    if (!g->activated)
        return 1;
    PyObject *record = PyDict_GetItemWithError(g->first, node);
    if (!record)
        return PyErr_Occurred() ? -1 : 0;
    int usable = status_is(record, g->active);
    if (usable <= 0 || !g->liveness)
        return usable;
    PyObject *r = PyObject_CallMethodOneArg(g->liveness, str_is_alive, node);
    usable = r ? PyObject_IsTrue(r) : -1;
    Py_XDECREF(r);
    return usable;
}

/* guard_usable for the medium's forwarding: 2 (ask Python) when a
 * liveness manager would be called, or the guard is cleared. */
static int
guard_usable_here(GuardObj *g, PyObject *node)
{
    return g->liveness || !g->monitor ? 2 : guard_usable(g, node);
}

static PyObject *
Guard_is_usable(GuardObj *g, PyObject *node)
{
    int usable = guard_usable(g, node);
    return usable < 0 ? NULL : PyBool_FromLong(usable);
}

static PyObject *
Guard_observe(GuardObj *g, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "observe(frame, own=False)");
        return NULL;
    }
    int own = nargs == 2 ? PyObject_IsTrue(args[1]) : 0;
    if (own < 0 || guard_check(g) < 0 || guard_observe(g, args[0], own) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Guard_remember(GuardObj *g, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "remember(key, node, now)");
        return NULL;
    }
    double now = PyFloat_AsDouble(args[2]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    Py_hash_t hash = PyObject_Hash(args[0]);
    if (hash == -1 && PyErr_Occurred())
        return NULL;
    if (guard_check(g) < 0 || guard_remember(g, args[0], hash, args[1], now) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Guard_heard(GuardObj *g, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "heard(key, node)");
        return NULL;
    }
    Py_hash_t hash = PyObject_Hash(args[0]);
    if (hash == -1 && PyErr_Occurred())
        return NULL;
    if (guard_check(g) < 0)
        return NULL;
    int heard = guard_heard(g, args[0], hash, args[1]);
    return heard < 0 ? NULL : PyBool_FromLong(heard);
}

static PyObject *
Guard_release(GuardObj *g, PyObject *Py_UNUSED(ignored))
{
    Guard_clear(g);
    Py_RETURN_NONE;
}

static PyObject *
Guard_clear_store(GuardObj *g, PyObject *Py_UNUSED(ignored))
{
    heard_clear(&g->cur);
    heard_clear(&g->old);
    g->cutoff = -Py_HUGE_VAL;
    g->rotated_at = -Py_HUGE_VAL;
    Py_RETURN_NONE;
}

/* One generation's stamps, in table order. */
static PyObject *
heard_stamps(HeardTable *t)
{
    PyObject *stamps = PyList_New(0);
    for (Py_ssize_t i = 0; stamps && i < t->cap; i++) {
        if (!t->cells[i].key)
            continue;
        PyObject *stamp = PyFloat_FromDouble(t->cells[i].stamp);
        if (!stamp || PyList_Append(stamps, stamp) < 0)
            Py_CLEAR(stamps);
        Py_XDECREF(stamp);
    }
    return stamps;
}

static PyObject *
Guard_stamps(GuardObj *g, PyObject *Py_UNUSED(ignored))
{
    PyObject *cur = heard_stamps(&g->cur);
    PyObject *old = cur ? heard_stamps(&g->old) : NULL;
    PyObject *result = old ? PyTuple_Pack(2, cur, old) : NULL;
    Py_XDECREF(cur);
    Py_XDECREF(old);
    return result;
}

static PyMethodDef Guard_methods[] = {
    {"bind", (PyCFunction)(void (*)(void))Guard_bind,
     METH_VARARGS | METH_KEYWORDS,
     "bind(*, agent, handlers, liveness, second_hop_check, reject): the agent "
     "side."},
    {"receive", (PyCFunction)Guard_receive, METH_O,
     "The agent's receive hook: False rejects the frame."},
    {"send_filter", (PyCFunction)Guard_send_filter, METH_O,
     "The agent's send filter: False vetoes the transmission."},
    {"is_usable", (PyCFunction)Guard_is_usable, METH_O,
     "The agent's routing hook: whether node may be a next hop."},
    {"observe", (PyCFunction)Guard_observe, METH_FASTCALL,
     "observe(frame, own=False): the monitor's judgement of one frame."},
    {"remember", (PyCFunction)Guard_remember, METH_FASTCALL,
     "remember(key, node, now): stamp node as heard sending key."},
    {"heard", (PyCFunction)Guard_heard, METH_FASTCALL,
     "heard(key, node): whether node was heard sending key."},
    {"clear", (PyCFunction)Guard_clear_store, METH_NOARGS,
     "Empty the overheard store."},
    {"release", (PyCFunction)Guard_release, METH_NOARGS,
     "Drop the monitor, the agent binding, the store and every other "
     "reference but the layout."},
    {"stamps", (PyCFunction)Guard_stamps, METH_NOARGS,
     "The overheard store's stamps, as (current, old) generation lists."},
    {NULL}
};

static PyMemberDef Guard_members[] = {
    {"activated", T_BOOL, offsetof(GuardObj, activated), 0,
     "Whether receive() runs the monitor and the legitimacy checks."},
    {"layout", T_OBJECT, offsetof(GuardObj, layout), READONLY, "The kernel's Layout."},
    {NULL}
};

static PyTypeObject GuardType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Guard",
    .tp_basicsize = sizeof(GuardObj),
    .tp_dealloc = (destructor)Guard_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Guard_traverse,
    .tp_clear = (inquiry)Guard_clear,
    .tp_methods = Guard_methods,
    .tp_members = Guard_members,
    .tp_new = Guard_new,
    .tp_doc = "LITEWORP's per-frame receive hook and overheard store "
              "(see LocalMonitor).",
};

/* ------------------------------------------------------------------ */
/* The prefetch pass: a batch's receiver state, loaded in stages      */
/* ------------------------------------------------------------------ */
/* Finishing a transmission's receptions reads, for each receiver, state
 * scattered over the heap: its Slot, its Node and pipeline lists, its
 * flood's dicts, the filter that is its guard's receive, the Guard, the
 * guard's overheard cells for the frame and its neighbour records.  In a
 * large network little of it is still cached, and every receiver's loads
 * wait on one another: each pointer is read only once the one before it
 * has arrived.  Before the first reception of a batch is handled,
 * batch_prefetch walks the batch's receivers level by level and asks the
 * cache for that level of every receiver at once, so the receivers'
 * misses overlap instead of running one after another:
 *
 *   1. the Slot (its hot span, up to the flood);
 *   2. the node, its pipeline lists and its flood's seen/counts dicts;
 *   3. the lists' item arrays and the dicts' key tables;
 *   4. the filters and listeners themselves;
 *   5. the Guard;
 *   6. its heard cells for (key, tx) and (key, prev), and its dicts;
 *   7. the key tables of its neighbour tables and packet handlers;
 *   8. the NeighborRecords of tx, prev and link_dst, and tx's second hops.
 *
 * The watch hashes are the same for every receiver (one frame), so they
 * are computed once per batch.
 *
 * The pass only reads.  It runs no Python code, raises nothing, keeps no
 * reference and changes no state, so what the receptions then do is
 * exactly what they do without it; and it follows only pointers that
 * hold at its start, before any callback has run.  It hashes only exact
 * ints and atomic key tuples (is_atomic), and looks a node id up in a
 * neighbour table only while the id is an exact int and every node id
 * the medium has mapped is one, so no lookup compares anything in Python.
 * Anything else skips the stage.
 *
 * It pays only where the receivers' state has left the cache.  At n=1000
 * (mesh1000) it raised rx_per_s by 22% in the median of twelve pairs; at
 * n=100 (nodefense100), where the state stays cached, running it cost
 * 5.7% in the median of five (docs/PERFORMANCE.md section 5.15).  So it
 * runs only in a medium with at least PREFETCH_MIN_SLOTS nodes. */
enum { PREFETCH_MIN_SLOTS = 512, PREFETCH_CHUNK = 16, CACHE_LINE = 64 };
/* Cells a probe of the overheard store reads, at most, most times. */
enum { HEARD_PROBE = 4 };
/* A Node's alive flag and frame counters lie in its first two lines. */
enum { NODE_SPAN = 2 * CACHE_LINE };

#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH(p) __builtin_prefetch((const void *)(p))
#else
#define PREFETCH(p) ((void)(p))
#endif

/* Every cache line of [p, p + n). */
static inline void
prefetch_span(const void *p, size_t n)
{
    uintptr_t line = (uintptr_t)p & ~(uintptr_t)(CACHE_LINE - 1);
    for (; line < (uintptr_t)p + n; line += CACHE_LINE)
        PREFETCH(line);
}

/* The first cell of (key, node)'s probe in each overheard generation. */
static inline void
prefetch_heard(GuardObj *g, Py_hash_t hash)
{
    HeardTable *t[2] = {&g->cur, &g->old};
    for (int k = 0; k < 2; k++)
        if (t[k]->cap)
            prefetch_span(&t[k]->cells[(size_t)hash & (size_t)(t[k]->cap - 1)],
                          HEARD_PROBE * sizeof(Heard));
}

/* What the batch's frame names, read by offset: nothing unless the frame
 * is the layout's Frame; a key only when the packet's cached key is an
 * atomic tuple; an id only when it is an exact int. */
typedef struct {
    PyObject *tx, *prev, *link_dst;
    Py_hash_t tx_hash, prev_hash;   /* watch hashes, or -1 */
} PrefetchFrame;

static void
prefetch_frame(LayoutObj *L, PyObject *frame, PrefetchFrame *pf)
{
    *pf = (PrefetchFrame){NULL, NULL, NULL, -1, -1};
    if (Py_TYPE(frame) != L->frame_cls)
        return;
    PyObject *id[3] = {SLOT_AT(frame, L->frame_off[F_TRANSMITTER]),
                       SLOT_AT(frame, L->frame_off[F_PREV_HOP]),
                       SLOT_AT(frame, L->frame_off[F_LINK_DST])};
    for (int i = 0; i < 3; i++)
        if (id[i] && !PyLong_CheckExact(id[i]))
            id[i] = NULL;
    pf->tx = id[0];
    pf->prev = id[1];
    pf->link_dst = id[2];
    PyObject *packet = SLOT_AT(frame, L->frame_off[F_PACKET]);
    if (!packet || !PyType_IsSubtype(Py_TYPE(packet), L->packet_cls))
        return;
    PyObject *key = SLOT_AT(packet, L->key_off);
    if (!key || !PyTuple_CheckExact(key) || !is_atomic(key, 1))
        return;
    /* None of these hashes can fail: exact ints and a tuple of atoms. */
    Py_hash_t key_hash = PyObject_Hash(key);
    if (pf->tx)
        pf->tx_hash = watch_hash(key_hash, pf->tx);
    if (pf->prev)
        pf->prev_hash = watch_hash(key_hash, pf->prev);
}

/* table[id]'s value, for an exact int id (no such lookup can fail, see
 * the section comment). */
static inline void
prefetch_entry(PyObject *table, PyObject *id)
{
    PyObject *value = id ? PyDict_GetItemWithError(table, id) : NULL;
    if (value)
        PREFETCH(value);
}

static void
batch_prefetch(MediumObj *m, Batch *b)
{
    if (m->nslots < PREFETCH_MIN_SLOTS)
        return;
    PrefetchFrame pf;
    prefetch_frame(m->layout, b->frame, &pf);
    for (Py_ssize_t from = 0; from < b->n; from += PREFETCH_CHUNK) {
        Py_ssize_t n = b->n - from < PREFETCH_CHUNK ? b->n - from : PREFETCH_CHUNK;
        Slot *slot[PREFETCH_CHUNK];
        GuardObj *guard[PREFETCH_CHUNK];
        /* 1 */
        for (Py_ssize_t i = 0; i < n; i++) {
            slot[i] = &m->slots[b->rx[from + i].slot];
            prefetch_span(slot[i], offsetof(Slot, flood) + sizeof(Flood));
        }
        /* 2 */
        for (Py_ssize_t i = 0; i < n; i++) {
            Slot *s = slot[i];
            if (s->pipe[P_NODE])
                prefetch_span(s->pipe[P_NODE], NODE_SPAN);
            for (int p = P_OBSERVERS; p < P_COUNT; p++)
                PREFETCH(s->pipe[p]);
            PREFETCH(s->flood.seen);
            PREFETCH(s->flood.counts);
        }
        /* 3 */
        for (Py_ssize_t i = 0; i < n; i++) {
            Slot *s = slot[i];
            for (int p = P_OBSERVERS; s->pipe[P_NODE] && p < P_COUNT; p++)
                PREFETCH(((PyListObject *)s->pipe[p])->ob_item);
            if (s->flood.agent) {
                PREFETCH(((PyDictObject *)s->flood.seen)->ma_keys);
                PREFETCH(((PyDictObject *)s->flood.counts)->ma_keys);
            }
        }
        /* 4 */
        for (Py_ssize_t i = 0; i < n; i++) {
            Slot *s = slot[i];
            for (int p = P_FILTERS; s->pipe[P_NODE] && p < P_COUNT; p++)
                for (Py_ssize_t j = 0; j < PyList_GET_SIZE(s->pipe[p]); j++)
                    PREFETCH(PyList_GET_ITEM(s->pipe[p], j));
        }
        /* 5 */
        for (Py_ssize_t i = 0; i < n; i++) {
            Slot *s = slot[i];
            guard[i] = NULL;
            for (Py_ssize_t j = 0; s->pipe[P_NODE] && !guard[i] &&
                                   j < PyList_GET_SIZE(s->pipe[P_FILTERS]); j++)
                guard[i] = filter_guard(PyList_GET_ITEM(s->pipe[P_FILTERS], j));
            if (guard[i])
                prefetch_span(guard[i], sizeof(GuardObj));
        }
        /* 6 */
        for (Py_ssize_t i = 0; i < n; i++) {
            GuardObj *g = guard[i];
            if (!g || !g->monitor) {
                guard[i] = NULL;
                continue;
            }
            PREFETCH(g->first);
            PREFETCH(g->second);
            PREFETCH(g->expectations);
            PREFETCH(g->handlers);
            PREFETCH(g->kinds);
            if (pf.tx_hash != -1)
                prefetch_heard(g, pf.tx_hash);
            if (pf.prev_hash != -1)
                prefetch_heard(g, pf.prev_hash);
        }
        /* 7; a guard not yet bound has no handlers */
        for (Py_ssize_t i = 0; i < n; i++)
            if (guard[i]) {
                PREFETCH(((PyDictObject *)guard[i]->first)->ma_keys);
                PREFETCH(((PyDictObject *)guard[i]->second)->ma_keys);
                if (guard[i]->handlers)
                    PREFETCH(((PyDictObject *)guard[i]->handlers)->ma_keys);
            }
        /* 8 */
        for (Py_ssize_t i = 0; i < n && !m->mixed_ids; i++) {
            GuardObj *g = guard[i];
            if (!g)
                continue;
            prefetch_entry(g->first, pf.tx);
            prefetch_entry(g->first, pf.prev);
            prefetch_entry(g->first, pf.link_dst);
            prefetch_entry(g->second, pf.tx);
        }
    }
}

/* ------------------------------------------------------------------ */
/* Trace line encoder                                                 */
/* ------------------------------------------------------------------ */
/* encode_line() builds one line of repro.obs.sinks.JsonlSink's export,
 * byte for byte what record_to_json(record, run) + "\n" gives:
 *
 *   {"fields":{<name>:<value>,...},"kind":<kind><run part>,"time":<time>}
 *
 * The layout (one (value index, b'"name":') pair per field, sorted by
 * name) and the run part (b',"run":<tag>' or b'') are encoded once per
 * record layout and per sink by the caller.  Values are exact int,
 * finite float (float.__repr__), str (through json's own
 * encode_basestring_ascii), bool and None, and exact tuples and lists of
 * these.  Anything else — sets, dicts, subclasses, NaN/inf, nesting
 * deeper than LINE_MAX_DEPTH — makes encode_line return None, and the
 * caller runs record_to_json, which stays the reference. */

#define LINE_MAX_DEPTH 16

typedef struct {
    char *buf;
    Py_ssize_t len, cap;
    char small[512];
} LineBuf;

static PyObject *encode_ascii = NULL;   /* json.encoder.encode_basestring_ascii */

/* Each helper returns 1 when it encoded, 0 for a value it does not
 * handle and -1 with an exception set. */
static int
lb_put(LineBuf *b, const char *s, Py_ssize_t n)
{
    if (b->len + n > b->cap) {
        Py_ssize_t cap = b->cap;
        while (b->len + n > cap)
            cap *= 2;
        char *grown = b->buf == b->small ? PyMem_Malloc(cap)
                                         : PyMem_Realloc(b->buf, cap);
        if (!grown) {
            PyErr_NoMemory();
            return -1;
        }
        if (b->buf == b->small)
            memcpy(grown, b->small, b->len);
        b->buf = grown;
        b->cap = cap;
    }
    memcpy(b->buf + b->len, s, n);
    b->len += n;
    return 1;
}

static int
lb_put_ascii(LineBuf *b, PyObject *text)
{
    if (!text)
        return -1;
    Py_ssize_t n;
    const char *s = PyUnicode_AsUTF8AndSize(text, &n);
    int ok = s ? lb_put(b, s, n) : -1;
    Py_DECREF(text);
    return ok;
}

static int
lb_put_bytes(LineBuf *b, PyObject *bytes)
{
    if (!PyBytes_Check(bytes)) {
        PyErr_SetString(PyExc_TypeError, "encode_line expects bytes parts");
        return -1;
    }
    return lb_put(b, PyBytes_AS_STRING(bytes), PyBytes_GET_SIZE(bytes));
}

static int
enc_value(LineBuf *b, PyObject *v, int depth)
{
    if (v == Py_None)
        return lb_put(b, "null", 4);
    if (v == Py_True)
        return lb_put(b, "true", 4);
    if (v == Py_False)
        return lb_put(b, "false", 5);
    if (PyLong_CheckExact(v)) {
        int overflow;
        long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow)
            return lb_put_ascii(b, PyObject_Repr(v));
        char digits[24];
        return lb_put(b, digits, snprintf(digits, sizeof digits, "%lld", x));
    }
    if (PyFloat_CheckExact(v)) {
        double x = PyFloat_AS_DOUBLE(v);
        if (!isfinite(x))
            return 0;
        char *repr = PyOS_double_to_string(x, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
        if (!repr)
            return -1;
        int ok = lb_put(b, repr, (Py_ssize_t)strlen(repr));
        PyMem_Free(repr);
        return ok;
    }
    if (PyUnicode_CheckExact(v))
        return lb_put_ascii(b, PyObject_CallOneArg(encode_ascii, v));
    int is_list = PyList_CheckExact(v);
    if (!is_list && !PyTuple_CheckExact(v))
        return 0;
    if (depth >= LINE_MAX_DEPTH)
        return 0;
    if (lb_put(b, "[", 1) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < Py_SIZE(v); i++) {
        PyObject *item = is_list ? PyList_GET_ITEM(v, i) : PyTuple_GET_ITEM(v, i);
        int ok = i ? lb_put(b, ",", 1) : 1;
        if (ok > 0)
            ok = enc_value(b, item, depth + 1);
        if (ok <= 0)
            return ok;
    }
    return lb_put(b, "]", 1);
}

static int
enc_line(LineBuf *b, PyObject *layout, PyObject *values, PyObject *kind,
         PyObject *time, PyObject *run)
{
    if (!PyTuple_Check(layout) || !PyTuple_Check(values)) {
        PyErr_SetString(PyExc_TypeError, "encode_line expects tuples");
        return -1;
    }
    if (!PyUnicode_CheckExact(kind) ||
        !(PyFloat_CheckExact(time) || PyLong_CheckExact(time)))
        return 0;
    int ok = lb_put(b, "{\"fields\":{", 11);
    for (Py_ssize_t i = 0; ok > 0 && i < PyTuple_GET_SIZE(layout); i++) {
        PyObject *pair = PyTuple_GET_ITEM(layout, i);
        Py_ssize_t index = PyTuple_Check(pair) && PyTuple_GET_SIZE(pair) == 2
                               ? PyLong_AsSsize_t(PyTuple_GET_ITEM(pair, 0))
                               : -1;
        if (index < 0 || index >= PyTuple_GET_SIZE(values)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "encode_line: bad layout");
            return -1;
        }
        if (i && lb_put(b, ",", 1) < 0)
            return -1;
        ok = lb_put_bytes(b, PyTuple_GET_ITEM(pair, 1));
        if (ok > 0)
            ok = enc_value(b, PyTuple_GET_ITEM(values, index), 0);
    }
    if (ok > 0)
        ok = lb_put(b, "},\"kind\":", 9);
    if (ok > 0)
        ok = enc_value(b, kind, 0);
    if (ok > 0)
        ok = lb_put_bytes(b, run);
    if (ok > 0)
        ok = lb_put(b, ",\"time\":", 8);
    if (ok > 0)
        ok = enc_value(b, time, 0);
    if (ok > 0)
        ok = lb_put(b, "}\n", 2);
    return ok;
}

static PyObject *
encode_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "encode_line(layout, values, kind, time, run)");
        return NULL;
    }
    if (!encode_ascii) {
        PyObject *json_encoder = PyImport_ImportModule("json.encoder");
        if (!json_encoder)
            return NULL;
        encode_ascii = PyObject_GetAttrString(json_encoder,
                                              "encode_basestring_ascii");
        Py_DECREF(json_encoder);
        if (!encode_ascii)
            return NULL;
    }
    LineBuf b = {.len = 0, .cap = sizeof b.small};
    b.buf = b.small;
    int ok = enc_line(&b, args[0], args[1], args[2], args[3], args[4]);
    PyObject *line = ok > 0 ? PyBytes_FromStringAndSize(b.buf, b.len)
                   : ok == 0 ? Py_NewRef(Py_None) : NULL;
    if (b.buf != b.small)
        PyMem_Free(b.buf);
    return line;
}

/* ------------------------------------------------------------------ */
/* Module                                                             */
/* ------------------------------------------------------------------ */
static PyObject *
set_error_class(PyObject *module, PyObject *cls)
{
    Py_XDECREF(sim_error);
    sim_error = Py_NewRef(cls);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_set_error_class", set_error_class, METH_O,
     "Install the SimulationError class raised for scheduler misuse."},
    {"encode_line", (PyCFunction)encode_line, METH_FASTCALL,
     "encode_line(layout, values, kind, time, run) -> one JSONL line as "
     "bytes, or None when a value needs the reference encoder."},
    {NULL}
};

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "C-accelerated discrete-event kernel (see repro.sim.accel).",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&EventType) < 0 || PyType_Ready(&SimType) < 0 ||
        PyType_Ready(&LayoutType) < 0 ||
        PyType_Ready(&MediumType) < 0 ||
        PyType_Ready(&AckType) < 0 || PyType_Ready(&MacType) < 0 ||
        PyType_Ready(&GuardType) < 0)
        return NULL;
    struct { PyObject **slot; const char *text; } names[] = {
        {&str_link_dst, "link_dst"}, {&str_describe, "describe"},
        {&str_emit, "emit"}, {&str_rx_lost, "rx_lost"},
        {&str_collided, "collided"},
        {&str_lost, "lost"}, {&str_on_outcome, "on_outcome"},
        {&str_observe, "observe"}, {&str_key, "key"}, {&str_dkey, "_key"},
        {&str_origin, "origin"}, {&str_destination, "destination"},
        {&str_inner_key, "inner_key"}, {&str_cancel, "cancel"},
        {&str_note_watch_size, "_note_watch_size"},
        {&str_accuse, "_accuse"}, {&str_add_expectation, "_add_expectation"},
        {&str_watch_request_forwarders, "_watch_request_forwarders"},
        {&str_reject, "_reject"}, {&str_note_frame, "note_frame"},
        {&str_last_loss, "_last_loss"},
        {&str_fabrications_seen, "fabrications_seen"},
        {&str_suppressed_accusations, "suppressed_accusations"},
        {&str_status, "status"}, {&str_fabrication, "fabrication"},
        {&str_nonneighbor, "nonneighbor"}, {&str_revoked, "revoked"},
        {&str_secondhop, "secondhop"}, {&str_packet, "packet"},
        {&str_transmitter, "transmitter"}, {&str_prev_hop, "prev_hop"},
        {&str_publish, "_publish"}, {&str_alive, "alive"},
        {&str_frames_received, "frames_received"},
        {&str_frames_rejected, "frames_rejected"},
        {&str_observers, "_observers"}, {&str_filters, "_filters"},
        {&str_listeners, "_listeners"}, {&str_rtime, "_time"},
        {&str_rkind, "_kind"}, {&str_rnames, "_names"},
        {&str_rvalues, "_values"}, {&str_size_bytes, "size_bytes"},
        {&str_mac_drop, "mac_drop"}, {&str_arq_failure, "arq_failure"},
        {&str_node, "node"}, {&str_frame, "frame"}, {&str_jitter, "jitter"},
        {&str_tx_range, "tx_range"}, {&str_leash, "leash"},
        {&str_validator, "_validator"}, {&str_sinks, "_sinks"},
        {&str_subscribers, "_subscribers"}, {&str_records, "_records"},
        {&str_append, "append"}, {&str_total_emitted, "total_emitted"},
        {&str_peak_resident, "peak_resident"}, {&str_request_id, "request_id"},
        {&str_target, "target"}, {&str_hop_count, "hop_count"},
        {&str_path, "path"}, {&str_uid, "uid"}, {&str_node_id, "node_id"},
        {&str_send_filters, "_send_filters"},
        {&str_expectation_expired, "_expectation_expired"},
        {&str_watch_sampled_size, "_watch_sampled_size"},
        {&str_watch_sampled_at, "_watch_sampled_at"},
        {&str_watch_buffer_peak, "watch_buffer_peak"},
        {&str_watch_buffer, "watch_buffer"}, {&str_frame_rejected, "frame_rejected"},
        {&str_is_alive_pred, "_is_alive"}, {&str_rejects, "rejects"},
        {&str_send_filter, "_send_filter"}, {&str_is_alive, "is_alive"},
        {&str_next_hop, "next_hop"}, {&str_installed_at, "installed_at"},
        {&str_expires_at, "expires_at"}, {&str_usable, "usable"},
        {&str_req, "REQ"}, {&str_forward_decision, "_forward_decision"},
        {&str_payload_size, "payload_size"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (!*names[i].slot &&
            !(*names[i].slot = PyUnicode_InternFromString(names[i].text)))
            return NULL;
    if ((!float_zero && !(float_zero = PyFloat_FromDouble(0.0))) ||
        (!int_one && !(int_one = PyLong_FromLong(1))))
        return NULL;
    PyObject *m = PyModule_Create(&ckernel_module);
    if (!m)
        return NULL;
    if (PyModule_AddObjectRef(m, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(m, "Simulator", (PyObject *)&SimType) < 0 ||
        PyModule_AddObjectRef(m, "Medium", (PyObject *)&MediumType) < 0 ||
        PyModule_AddObjectRef(m, "Guard", (PyObject *)&GuardType) < 0 ||
        PyModule_AddObjectRef(m, "Layout", (PyObject *)&LayoutType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
