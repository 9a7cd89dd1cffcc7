/* Accelerated discrete-event kernel.
 *
 * A drop-in replacement for repro.sim.engine.Simulator implementing the
 * identical scheduling semantics — events fire in non-decreasing time
 * order with FIFO tie-breaking by scheduling sequence, cancellation is
 * O(1), `run(until=...)` is a closed interval — at C speed.
 *
 * Queue structure (the "timer wheel" of docs/PERFORMANCE.md):
 *
 *   - a slot ring of NSLOTS buckets, each WHEEL_WIDTH seconds wide,
 *     covering the near future [cursor, cursor + NSLOTS * width).  The
 *     short-deadline timer traffic that dominates simulation runs
 *     (frame receptions, watch-buffer expiries, retry backoff, MAC
 *     waits) lands here with O(1) pushes; a bucket is lazily heapified
 *     the first time the dispatch loop drains it, so intra-bucket
 *     (time, seq) order is exact.
 *   - a far binary heap for events beyond the wheel horizon.
 *
 * Correct interleaving does not rely on migrating far events into the
 * wheel: every pop lexicographically compares the wheel minimum and the
 * far-heap minimum on (time, seq), so an event that was classified
 * "far" when scheduled still fires in exactly the right place.
 *
 * Cancelled events stay in place and are skipped when popped (same as
 * the pure-Python engine).  When the queue grows past a threshold with
 * a high dead fraction, it is compacted in place so cancel-heavy long
 * campaigns stop carrying dead entries (see maybe_compact).
 *
 * The Medium type further down runs the wireless channel's
 * per-reception work for repro.net.channel.Channel and pushes its
 * finish events straight into this queue.
 *
 * Built on demand by repro.sim.accel; the pure-Python engine and
 * Channel's per-receiver path remain the reference implementations and
 * the fallback.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

#define NSLOTS 4096u            /* power of two */
#define SLOT_MASK (NSLOTS - 1u)
#define BITS_WORDS (NSLOTS / 64u)
#define DEFAULT_WIDTH 1e-3      /* seconds per slot */
/* Saturation bound for time->slot conversion: far below 2^63 so that
 * cursor + NSLOTS can never overflow. */
#define SLOT_SAT ((unsigned long long)1 << 62)

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

/* ------------------------------------------------------------------ */
/* Queue storage                                                      */
/* ------------------------------------------------------------------ */
typedef struct {
    double time;
    unsigned long long seq;
    EventObj *ev;               /* strong reference */
} Entry;

#define ENTRY_LT(a, b) \
    ((a).time < (b).time || ((a).time == (b).time && (a).seq < (b).seq))

typedef struct {
    Entry *data;
    Py_ssize_t size;
    Py_ssize_t cap;
    char heapified;
} Bucket;

static int
bucket_reserve(Bucket *b, Py_ssize_t extra)
{
    if (b->size + extra <= b->cap)
        return 0;
    Py_ssize_t cap = b->cap ? b->cap * 2 : 8;
    while (cap < b->size + extra)
        cap *= 2;
    Entry *data = PyMem_Realloc(b->data, (size_t)cap * sizeof(Entry));
    if (!data) {
        PyErr_NoMemory();
        return -1;
    }
    b->data = data;
    b->cap = cap;
    return 0;
}

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
    double width;               /* slot width, seconds */
    unsigned long long seq;
    unsigned long long cursor;  /* absolute slot index, monotone */
    Bucket slots[NSLOTS];
    uint64_t bits[BITS_WORDS];  /* slot occupancy bitmap (ring index) */
    Py_ssize_t wheel_count;
    Bucket far;                 /* overflow heap, always heap-ordered */
    unsigned long long processed;
    Py_ssize_t last_live;       /* live count at last compaction check */
    unsigned long long compactions;
    char running;
} SimObj;

static inline void
bit_set(SimObj *self, unsigned ring)
{
    self->bits[ring >> 6] |= (uint64_t)1 << (ring & 63u);
}

static inline void
bit_clear(SimObj *self, unsigned ring)
{
    self->bits[ring >> 6] &= ~((uint64_t)1 << (ring & 63u));
}

/* Absolute slot index for time t, saturated so arithmetic never
 * overflows.  Caller guarantees t >= 0 contextually (t >= now). */
static inline unsigned long long
slot_of(SimObj *self, double t)
{
    double ds = t / self->width;
    if (ds >= (double)SLOT_SAT)
        return SLOT_SAT;
    if (ds < 0.0)
        return 0;
    return (unsigned long long)ds;
}

/* Distance (in ring positions) from `from` to the next set bit at or
 * after it; NSLOTS when no bit is set.  `from` is a ring index. */
static unsigned
next_set_bit(SimObj *self, unsigned from)
{
    unsigned word = from >> 6;
    unsigned off = from & 63u;
    uint64_t w = self->bits[word] >> off;
    if (w)
        return (unsigned)__builtin_ctzll(w);
    unsigned dist = 64u - off;
    for (unsigned i = 1; i <= BITS_WORDS; i++) {
        uint64_t v = self->bits[(word + i) & (BITS_WORDS - 1u)];
        if (v)
            return dist + (unsigned)__builtin_ctzll(v);
        dist += 64u;
        if (dist >= NSLOTS)
            break;
    }
    return NSLOTS;
}

/* Push an entry (steals the Entry's reference to ev). */
static int
queue_push(SimObj *self, Entry e)
{
    unsigned long long s = slot_of(self, e.time);
    if (s < self->cursor)
        s = self->cursor;
    if (s - self->cursor < NSLOTS) {
        Bucket *b = &self->slots[(unsigned)(s & SLOT_MASK)];
        if (bucket_reserve(b, 1) < 0)
            return -1;
        b->data[b->size++] = e;
        if (b->heapified)
            heap_sift_up(b->data, b->size - 1);
        bit_set(self, (unsigned)(s & SLOT_MASK));
        self->wheel_count++;
    } else {
        Bucket *f = &self->far;
        if (bucket_reserve(f, 1) < 0)
            return -1;
        f->data[f->size++] = e;
        heap_sift_up(f->data, f->size - 1);
    }
    return 0;
}

/* Advance the cursor to keep pace with the clock.  Entries never live
 * behind floor(now / width): every queued event has time >= now. */
static inline void
cursor_catch_up(SimObj *self)
{
    unsigned long long s = slot_of(self, self->now);
    if (s > self->cursor)
        self->cursor = s;
}

/* Locate the queue minimum.  Returns the bucket holding it (heapified,
 * minimum at data[0]) or NULL when the queue is empty.  Advances the
 * cursor over empty slots as a side effect (order-neutral). */
static Bucket *
queue_min(SimObj *self)
{
    Bucket *wheel_best = NULL;
    if (self->wheel_count) {
        cursor_catch_up(self);
        unsigned ring = (unsigned)(self->cursor & SLOT_MASK);
        unsigned dist = next_set_bit(self, ring);
        if (dist >= NSLOTS) {
            /* Bitmap and count disagree: cannot happen, but stay safe. */
            self->wheel_count = 0;
        } else {
            self->cursor += dist;
            Bucket *b = &self->slots[(unsigned)(self->cursor & SLOT_MASK)];
            if (!b->heapified) {
                heapify(b->data, b->size);
                b->heapified = 1;
            }
            wheel_best = b;
        }
    }
    Bucket *f = self->far.size ? &self->far : NULL;
    if (wheel_best && f)
        return ENTRY_LT(f->data[0], wheel_best->data[0]) ? f : wheel_best;
    return wheel_best ? wheel_best : f;
}

/* Pop the minimum entry out of `b` (as returned by queue_min). */
static Entry
queue_pop_from(SimObj *self, Bucket *b)
{
    Entry top = b->data[0];
    b->data[0] = b->data[--b->size];
    if (b->size)
        heap_sift_down(b->data, b->size, 0);
    if (b != &self->far) {
        self->wheel_count--;
        if (b->size == 0) {
            b->heapified = 0;
            bit_clear(self, (unsigned)(self->cursor & SLOT_MASK));
        }
    }
    return top;
}

static Py_ssize_t
queue_total(SimObj *self)
{
    return self->wheel_count + self->far.size;
}

/* Drop cancelled/fired entries everywhere.  Heap order inside each
 * filtered bucket is preserved by re-heapifying. */
static void
queue_compact(SimObj *self)
{
    Py_ssize_t live_wheel = 0;
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        if (!b->size)
            continue;
        Py_ssize_t w = 0;
        for (Py_ssize_t r = 0; r < b->size; r++) {
            EventObj *ev = b->data[r].ev;
            if (ev->cancelled || ev->fired)
                Py_DECREF(ev);
            else
                b->data[w++] = b->data[r];
        }
        b->size = w;
        if (!w) {
            b->heapified = 0;
            bit_clear(self, i);
        } else if (b->heapified)
            heapify(b->data, w);
        live_wheel += w;
    }
    self->wheel_count = live_wheel;
    Bucket *f = &self->far;
    Py_ssize_t w = 0;
    for (Py_ssize_t r = 0; r < f->size; r++) {
        EventObj *ev = f->data[r].ev;
        if (ev->cancelled || ev->fired)
            Py_DECREF(ev);
        else
            f->data[w++] = f->data[r];
    }
    f->size = w;
    heapify(f->data, w);
    self->compactions++;
    self->last_live = queue_total(self);
}

/* Amortized compaction: when the queue has doubled since the last
 * check, count the dead fraction and compact if it exceeds 25%. */
static void
maybe_compact(SimObj *self)
{
    Py_ssize_t total = queue_total(self);
    if (total < 8192 || total <= 2 * self->last_live)
        return;
    Py_ssize_t live = 0;
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        for (Py_ssize_t r = 0; r < b->size; r++) {
            EventObj *ev = b->data[r].ev;
            live += !(ev->cancelled || ev->fired);
        }
    }
    for (Py_ssize_t r = 0; r < self->far.size; r++) {
        EventObj *ev = self->far.data[r].ev;
        live += !(ev->cancelled || ev->fired);
    }
    if ((total - live) * 4 >= total)
        queue_compact(self);
    else
        self->last_live = live;
}

/* ------------------------------------------------------------------ */
/* Simulator type methods                                             */
/* ------------------------------------------------------------------ */
static void
Sim_dealloc(SimObj *self)
{
    PyObject_GC_UnTrack(self);
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        for (Py_ssize_t r = 0; r < b->size; r++)
            Py_DECREF(b->data[r].ev);
        PyMem_Free(b->data);
    }
    for (Py_ssize_t r = 0; r < self->far.size; r++)
        Py_DECREF(self->far.data[r].ev);
    PyMem_Free(self->far.data);
    PyObject_GC_Del(self);
}

static int
Sim_traverse(SimObj *self, visitproc visit, void *arg)
{
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        for (Py_ssize_t r = 0; r < b->size; r++)
            Py_VISIT(b->data[r].ev);
    }
    for (Py_ssize_t r = 0; r < self->far.size; r++)
        Py_VISIT(self->far.data[r].ev);
    return 0;
}

static int
Sim_clear_gc(SimObj *self)
{
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        Py_ssize_t n = b->size;
        b->size = 0;
        b->heapified = 0;
        for (Py_ssize_t r = 0; r < n; r++)
            Py_DECREF(b->data[r].ev);
    }
    memset(self->bits, 0, sizeof(self->bits));
    self->wheel_count = 0;
    Py_ssize_t n = self->far.size;
    self->far.size = 0;
    for (Py_ssize_t r = 0; r < n; r++)
        Py_DECREF(self->far.data[r].ev);
    return 0;
}

static PyObject *
Sim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"start_time", "wheel_width", NULL};
    double start_time = 0.0;
    double width = DEFAULT_WIDTH;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|dd", kwlist,
                                     &start_time, &width))
        return NULL;
    if (!(width > 0.0) || !isfinite(width)) {
        PyErr_SetString(error_class(), "wheel_width must be positive and finite");
        return NULL;
    }
    SimObj *self = (SimObj *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    self->now = start_time;
    self->width = width;
    self->seq = 0;
    self->processed = 0;
    self->wheel_count = 0;
    self->last_live = 0;
    self->compactions = 0;
    self->running = 0;
    memset(self->slots, 0, sizeof(self->slots));
    memset(self->bits, 0, sizeof(self->bits));
    memset(&self->far, 0, sizeof(self->far));
    self->cursor = slot_of(self, start_time);
    return (PyObject *)self;
}

/* Scheduling core: queue callback(*args, **kwargs) at absolute time
 * `time` and return the new Event.  Takes over the references to args
 * (a tuple or NULL) and kwargs (a dict or NULL).  The channel medium
 * pushes its events straight through here. */
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
    while (queue_total(self)) {
        Bucket *b = queue_min(self);
        if (!b)
            break;
        if (has_until && b->data[0].time > until)
            break;
        Entry e = queue_pop_from(self, b);
        EventObj *ev = e.ev;
        if (ev->cancelled || ev->fired) {
            Py_DECREF(ev);
            continue;
        }
        self->now = e.time;
        ev->fired = 1;
        PyObject *r = call_event(ev);
        Py_DECREF(ev);
        if (!r) {
            self->running = 0;
            return NULL;
        }
        Py_DECREF(r);
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
    while (queue_total(self)) {
        Bucket *b = queue_min(self);
        if (!b)
            break;
        Entry e = queue_pop_from(self, b);
        EventObj *ev = e.ev;
        if (ev->cancelled || ev->fired) {
            Py_DECREF(ev);
            continue;
        }
        self->now = e.time;
        ev->fired = 1;
        PyObject *r = call_event(ev);
        Py_DECREF(ev);
        if (!r)
            return NULL;
        Py_DECREF(r);
        self->processed++;
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
Sim_peek_time(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    while (queue_total(self)) {
        Bucket *b = queue_min(self);
        if (!b)
            break;
        EventObj *ev = b->data[0].ev;
        if (!(ev->cancelled || ev->fired))
            return PyFloat_FromDouble(b->data[0].time);
        Entry e = queue_pop_from(self, b);
        Py_DECREF(e.ev);
    }
    Py_RETURN_NONE;
}

static PyObject *
Sim_compact(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    queue_compact(self);
    Py_RETURN_NONE;
}

/* The end of a simulator's life: empty the queue, cancelling each queued
 * event and dropping its callback and arguments, so nothing stays
 * reachable through them.  The entries are moved out first, because a
 * dropped callback may run code that schedules again.  The clock and the
 * counters stay readable. */
static PyObject *
Sim_release(SimObj *self, PyObject *Py_UNUSED(ignored))
{
    if (self->running) {
        PyErr_SetString(error_class(), "cannot release a running simulator");
        return NULL;
    }
    Py_ssize_t n = queue_total(self), k = 0;
    EventObj **taken = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(EventObj *));
    if (!taken)
        return PyErr_NoMemory();
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        for (Py_ssize_t r = 0; r < b->size; r++)
            taken[k++] = b->data[r].ev;
        b->size = 0;
        b->heapified = 0;
    }
    for (Py_ssize_t r = 0; r < self->far.size; r++)
        taken[k++] = self->far.data[r].ev;
    self->far.size = 0;
    memset(self->bits, 0, sizeof(self->bits));
    self->wheel_count = 0;
    self->last_live = 0;
    for (Py_ssize_t i = 0; i < k; i++) {
        EventObj *ev = taken[i];
        if (!ev->fired)
            ev->cancelled = 1;
        Event_clear_gc(ev);
        Py_DECREF(ev);
    }
    PyMem_Free(taken);
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
    Py_ssize_t live = 0;
    for (unsigned i = 0; i < NSLOTS; i++) {
        Bucket *b = &self->slots[i];
        for (Py_ssize_t r = 0; r < b->size; r++) {
            EventObj *ev = b->data[r].ev;
            live += !(ev->cancelled || ev->fired);
        }
    }
    for (Py_ssize_t r = 0; r < self->far.size; r++) {
        EventObj *ev = self->far.data[r].ev;
        live += !(ev->cancelled || ev->fired);
    }
    return PyLong_FromSsize_t(live);
}

static PyObject *
Sim_get_queue_depth(SimObj *self, void *closure)
{
    return PyLong_FromSsize_t(queue_total(self));
}

static PyObject *
Sim_get_wheel_count(SimObj *self, void *closure)
{
    return PyLong_FromSsize_t(self->wheel_count);
}

static PyObject *
Sim_get_far_count(SimObj *self, void *closure)
{
    return PyLong_FromSsize_t(self->far.size);
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
    {"wheel_count", (getter)Sim_get_wheel_count, NULL,
     "Entries currently in the slot ring (introspection).", NULL},
    {"far_count", (getter)Sim_get_far_count, NULL,
     "Entries currently in the far heap (introspection).", NULL},
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
 * is this module's Simulator.  Channel keeps the wiring API, stamping,
 * air time and the transmission counter; the Medium runs everything a
 * transmission does per receiver: the half-duplex kill, the tx
 * observers, admission (attached, link up, not deaf), the "receiver is
 * transmitting" collision, overlap and capture against every in-flight
 * reception, the ambient-loss draw and the unicast outcome.  It finishes
 * a transmission's receptions with one queued Batch event, in creation
 * order.  Rules, RNG draws, event order and hook calls are exactly those
 * of Channel's per-receiver reference path.
 *
 * Node ids are mapped to dense slots on first sight, so any hashable id
 * works.  A reception lives inside its Batch and is linked into its
 * receiver's in-flight list until finished; a Batch that is freed before
 * it finishes unlinks what it still holds. */

static PyObject *str_link_dst, *str_describe, *str_emit, *str_rx_lost,
    *str_receiver, *str_collided, *str_lost, *str_on_outcome, *str_packet,
    *str_transmitter, *str_prev_hop, *str_key, *str_dkey, *str_publish,
    *str_alive, *str_frames_received, *str_frames_rejected, *str_observers,
    *str_filters, *str_listeners, *str_rtime, *str_rkind, *str_rnames,
    *str_rvalues;

/* Frame slots read by offset. */
enum { F_PACKET, F_TRANSMITTER, F_LINK_DST, F_PREV_HOP, F_COUNT };
static PyObject **frame_names[F_COUNT] = {&str_packet, &str_transmitter,
                                          &str_link_dst, &str_prev_hop};
/* A Node's pipeline lists, in Node.deliver's order. */
static PyObject **pipe_names[3] = {&str_observers, &str_filters,
                                   &str_listeners};
enum { P_NODE, P_OBSERVERS, P_FILTERS, P_LISTENERS, P_COUNT };
/* TraceRecord's slots. */
static PyObject **record_names[4] = {&str_rtime, &str_rkind, &str_rnames,
                                     &str_rvalues};

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
        PyObject *value = *(PyObject **)((char *)obj + offset);
        if (value)
            return Py_NewRef(value);
    }
    /* Generic lookup; it also raises AttributeError for an unset slot. */
    return PyObject_GetAttr(obj, name);
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

/* obj.name += 1 */
static int
increment(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (!value)
        return -1;
    PyObject *one = PyLong_FromLong(1);
    PyObject *sum = one ? PyNumber_Add(value, one) : NULL;
    Py_DECREF(value);
    Py_XDECREF(one);
    if (!sum)
        return -1;
    int rc = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return rc;
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

typedef struct {
    PyObject *id;           /* node id */
    PyObject *handler;      /* delivery handler; NULL while detached */
    /* The Node whose deliver body the medium runs and its pipeline
     * lists, or all NULL to call `handler`. */
    PyObject *pipe[P_COUNT];
    PyObject *loss;         /* loss handler or NULL */
    PyObject *cov_key;      /* the coverage sequence `cov` was built from */
    CovItem *cov;
    Py_ssize_t ncov;
    double tx_until;
    Rx *head, *tail;        /* in-flight receptions */
    Py_ssize_t *blocked;    /* slots whose link to this one is down */
    Py_ssize_t nblocked, cap_blocked;
    char deaf;
} Slot;

typedef struct {
    PyObject_HEAD
    SimObj *sim;
    PyObject *coverage;     /* radio.coverage_with_distance */
    PyObject *random;       /* the channel stream's random() */
    PyObject *trace;        /* TraceLog or None */
    PyObject *tx_observers; /* Channel's lists, shared so additions apply */
    PyObject *rx_observers;
    PyObject *reception_cls;
    /* rx_lost records are built here while trace's emit is `emit`;
     * NULL when there is no trace. */
    PyObject *emit, *record_cls, *rx_lost_names;
    PyTypeObject *frame_cls, *packet_cls;
    PyObject *describe, *key;   /* Frame.describe, Packet.key */
    Py_ssize_t frame_off[F_COUNT], key_off, record_off[4];
    PyObject *index;        /* node id -> slot */
    Slot *slots;            /* freed only in dealloc: batches point in */
    Py_ssize_t nslots, cap_slots;
    Py_ssize_t blocked_links;
    double capture_ratio;
    double ambient_loss;
    unsigned long long collisions;
} MediumObj;

typedef struct {
    PyObject_VAR_HEAD
    MediumObj *medium;
    PyObject *frame;
    PyObject *on_outcome;   /* unicast outcome callback or NULL */
    double start, end;
    Py_ssize_t n, done;     /* receptions made / finished */
    Rx rx[1];
} BatchObj;

static PyTypeObject MediumType;
static PyTypeObject BatchType;

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

/* Point sender's compiled coverage at `cov` (receiver, distance) pairs,
 * rebuilding it only when the radio hands back a different sequence. */
static int
medium_coverage(MediumObj *m, Py_ssize_t sender, PyObject *cov)
{
    if (m->slots[sender].cov_key == cov)
        return 0;
    PyObject *seq = PySequence_Fast(cov, "coverage must be a sequence");
    if (!seq)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    CovItem *items = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(CovItem));
    if (!items) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return -1;
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
    PyMem_Free(s->cov);
    s->cov = items;
    s->ncov = n;
    Py_XSETREF(s->cov_key, Py_NewRef(cov));
    return 0;
fail:
    Py_DECREF(seq);
    PyMem_Free(items);
    return -1;
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
/* Batch: one transmission's receptions, finished by one event        */
/* ------------------------------------------------------------------ */
static BatchObj *
batch_new(MediumObj *m, PyObject *frame, PyObject *on_outcome,
          double start, double end, Py_ssize_t capacity)
{
    BatchObj *b = PyObject_GC_NewVar(BatchObj, &BatchType, capacity);
    if (!b)
        return NULL;
    b->medium = (MediumObj *)Py_NewRef((PyObject *)m);
    b->frame = Py_NewRef(frame);
    b->on_outcome = Py_XNewRef(on_outcome);
    b->start = start;
    b->end = end;
    b->n = 0;
    b->done = 0;
    PyObject_GC_Track((PyObject *)b);
    return b;
}

static void
batch_unlink_all(BatchObj *b)
{
    if (!b->medium)
        return;
    for (Py_ssize_t i = b->done; i < b->n; i++)
        rx_unlink(&b->medium->slots[b->rx[i].slot], &b->rx[i]);
}

static void
Batch_dealloc(BatchObj *b)
{
    PyObject_GC_UnTrack(b);
    batch_unlink_all(b);
    Py_CLEAR(b->medium);
    Py_CLEAR(b->frame);
    Py_CLEAR(b->on_outcome);
    PyObject_GC_Del(b);
}

static int
Batch_traverse(BatchObj *b, visitproc visit, void *arg)
{
    Py_VISIT(b->medium);
    Py_VISIT(b->frame);
    Py_VISIT(b->on_outcome);
    return 0;
}

static int
Batch_clear(BatchObj *b)
{
    batch_unlink_all(b);
    b->done = b->n;
    Py_CLEAR(b->medium);
    Py_CLEAR(b->frame);
    Py_CLEAR(b->on_outcome);
    return 0;
}

/* The Reception object reception observers are handed. */
static PyObject *
make_reception(MediumObj *m, BatchObj *b, Rx *rx, PyObject *outcome)
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

/* The rx_lost record's values, in the order of emit(now, "rx_lost",
 * receiver=..., collided=..., **frame.describe()); NULL with no error
 * set when the frame is not a plain Frame with Frame.describe. */
static PyObject *
rx_lost_values(MediumObj *m, PyObject *frame, PyObject *receiver, Rx *rx)
{
    if (Py_TYPE(frame) != m->frame_cls ||
        _PyType_Lookup(m->frame_cls, str_describe) != m->describe)
        return NULL;
    PyObject *packet = slot_get(frame, m->frame_off[F_PACKET], str_packet);
    if (!packet)
        return NULL;
    /* packet.key(), from the cached slot while key() is Packet's. */
    PyTypeObject *cls = Py_TYPE(packet);
    PyObject *key = NULL;
    if (m->key_off >= 0 && _PyType_Lookup(cls, str_key) == m->key &&
        PyType_IsSubtype(cls, m->packet_cls))
        key = *(PyObject **)((char *)packet + m->key_off);
    key = key && key != Py_None ? Py_NewRef(key)
                                : PyObject_CallMethodNoArgs(packet, str_key);
    Py_DECREF(packet);
    PyObject *values = key ? PyTuple_New(6) : NULL;
    if (!values) {
        Py_XDECREF(key);
        return NULL;
    }
    PyTuple_SET_ITEM(values, 0, Py_NewRef(receiver));
    PyTuple_SET_ITEM(values, 1, Py_NewRef(rx->collided ? Py_True : Py_False));
    PyTuple_SET_ITEM(values, 2, key);
    for (int f = F_TRANSMITTER; f < F_COUNT; f++) {
        PyObject *v = slot_get(frame, m->frame_off[f], *frame_names[f]);
        if (!v) {
            Py_DECREF(values);
            return NULL;
        }
        PyTuple_SET_ITEM(values, f + 2, v);
    }
    return values;
}

static int
emit_rx_lost(MediumObj *m, BatchObj *b, PyObject *receiver, Rx *rx,
             PyObject *now)
{
    if (m->emit && _PyType_Lookup(Py_TYPE(m->trace), str_emit) == m->emit) {
        PyObject *values = rx_lost_values(m, b->frame, receiver, rx);
        if (values) {
            PyTypeObject *cls = (PyTypeObject *)m->record_cls;
            PyObject *rec = cls->tp_alloc(cls, 0);
            if (!rec) {
                Py_DECREF(values);
                return -1;
            }
            PyObject *parts[4] = {now, str_rx_lost, m->rx_lost_names, values};
            for (int i = 0; i < 4; i++)
                *(PyObject **)((char *)rec + m->record_off[i]) = Py_NewRef(parts[i]);
            Py_DECREF(values);
            int rc = discard(PyObject_CallMethodOneArg(m->trace, str_publish, rec));
            Py_DECREF(rec);
            return rc;
        }
        if (PyErr_Occurred())
            return -1;
    }
    PyObject *emit = PyObject_GetAttr(m->trace, str_emit);
    if (!emit)
        return -1;
    PyObject *args = NULL, *fields = NULL, *describe = NULL, *r = NULL;
    fields = PyDict_New();
    if (!fields ||
        PyDict_SetItem(fields, str_receiver, receiver) < 0 ||
        PyDict_SetItem(fields, str_collided,
                       rx->collided ? Py_True : Py_False) < 0)
        goto done;
    describe = PyObject_CallMethodNoArgs(b->frame, str_describe);
    if (!describe || PyDict_Update(fields, describe) < 0)
        goto done;
    args = PyTuple_Pack(2, now, str_rx_lost);
    if (args)
        r = PyObject_Call(emit, args, fields);
done:
    Py_DECREF(emit);
    Py_XDECREF(args);
    Py_XDECREF(fields);
    Py_XDECREF(describe);
    if (!r)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Node.deliver's body: the alive check, the count, the observers, the
 * filters (a False verdict counts a rejection and stops), the listeners.
 * The lists are the node's own, read by index as a for loop reads them,
 * so a hook added during delivery runs as it would there. */
static int
run_pipeline(PyObject *const *pipe, PyObject *frame)
{
    PyObject *node = pipe[P_NODE];
    PyObject *alive = PyObject_GetAttr(node, str_alive);
    if (!alive)
        return -1;
    int rc = PyObject_IsTrue(alive);
    Py_DECREF(alive);
    if (rc <= 0)
        return rc;
    if (increment(node, str_frames_received) < 0)
        return -1;
    PyObject *observers = pipe[P_OBSERVERS], *filters = pipe[P_FILTERS],
        *listeners = pipe[P_LISTENERS];
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++)
        if (call_one(PyList_GET_ITEM(observers, i), frame) < 0)
            return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(filters); i++) {
        PyObject *check = Py_NewRef(PyList_GET_ITEM(filters, i));
        PyObject *r = PyObject_CallOneArg(check, frame);
        Py_DECREF(check);
        if (!r)
            return -1;
        int pass = PyObject_IsTrue(r);
        Py_DECREF(r);
        if (pass <= 0)
            return pass < 0 ? -1 : increment(node, str_frames_rejected);
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(listeners); i++)
        if (call_one(PyList_GET_ITEM(listeners, i), frame) < 0)
            return -1;
    return 0;
}

/* Hand a decodable frame to its receiver: the node's pipeline, or the
 * handler.  References are taken first: callbacks may grow the slots. */
static int
medium_deliver(Slot *s, PyObject *frame)
{
    if (!s->pipe[P_NODE])
        return s->handler ? call_one(s->handler, frame) : 0;
    PyObject *pipe[P_COUNT];
    for (int p = 0; p < P_COUNT; p++)
        pipe[p] = Py_NewRef(s->pipe[p]);
    int rc = run_pipeline(pipe, frame);
    for (int p = 0; p < P_COUNT; p++)
        Py_DECREF(pipe[p]);
    return rc;
}

/* Finish one (already unlinked) reception: observers, then the loss
 * path or delivery, then the unicast outcome. */
static int
finish_rx(MediumObj *m, BatchObj *b, Rx *rx, PyObject *now)
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
        if (m->trace != Py_None) {
            PyObject *receiver = Py_NewRef(m->slots[rx->slot].id);
            int rc = emit_rx_lost(m, b, receiver, rx, now);
            Py_DECREF(receiver);
            if (rc < 0)
                return -1;
        }
        PyObject *loss = m->slots[rx->slot].loss;
        if (loss && call_one(loss, now) < 0)
            return -1;
        return outcome ? call_one(outcome, Py_False) : 0;
    }
    if (medium_deliver(&m->slots[rx->slot], b->frame) < 0)
        return -1;
    return outcome ? call_one(outcome, Py_True) : 0;
}

/* The finish event.  Each reception is unlinked and fully handled before
 * the next one starts; later ones stay in flight meanwhile, so a
 * re-entrant transmit sees the same medium as per-receiver events. */
static PyObject *
Batch_call(BatchObj *b, PyObject *args, PyObject *kwargs)
{
    MediumObj *m = b->medium;
    if (!m || medium_check(m) < 0)
        return NULL;
    PyObject *now = PyFloat_FromDouble(m->sim->now);
    int rc = now ? 0 : -1;
    while (rc == 0 && b->done < b->n) {
        Rx *rx = &b->rx[b->done++];
        rx_unlink(&m->slots[rx->slot], rx);
        rc = finish_rx(m, b, rx, now);
    }
    Py_XDECREF(now);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject BatchType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Batch",
    .tp_basicsize = offsetof(BatchObj, rx),
    .tp_itemsize = sizeof(Rx),
    .tp_dealloc = (destructor)Batch_dealloc,
    .tp_call = (ternaryfunc)Batch_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)Batch_traverse,
    .tp_clear = (inquiry)Batch_clear,
    .tp_doc = "One transmission's receptions; calling it finishes them.",
};

/* ------------------------------------------------------------------ */
/* Medium type methods                                                */
/* ------------------------------------------------------------------ */
static PyObject *
Medium_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"sim", "coverage", "random", "trace",
                             "capture_ratio", "ambient_loss", "tx_observers",
                             "rx_observers", "reception_cls", "records", NULL};
    PyObject *sim, *coverage, *random, *trace, *tx_observers, *rx_observers,
        *reception_cls, *emit = NULL, *record_cls = NULL, *names = NULL,
        *frame_cls = NULL, *packet_cls = NULL;
    double capture_ratio, ambient_loss;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OOOddO!O!O|$(OO!O!O!O!)", kwlist,
                                     &SimType, &sim, &coverage, &random,
                                     &trace, &capture_ratio, &ambient_loss,
                                     &PyList_Type, &tx_observers,
                                     &PyList_Type, &rx_observers,
                                     &reception_cls, &emit,
                                     &PyType_Type, &record_cls,
                                     &PyTuple_Type, &names,
                                     &PyType_Type, &frame_cls,
                                     &PyType_Type, &packet_cls))
        return NULL;
    Py_ssize_t record_off[4];
    if (emit) {
        for (int i = 0; i < 4; i++)
            if ((record_off[i] = slot_offset((PyTypeObject *)record_cls,
                                             *record_names[i])) < 0) {
                PyErr_SetString(PyExc_TypeError, "record_cls lacks its slots");
                return NULL;
            }
    }
    MediumObj *m = (MediumObj *)type->tp_alloc(type, 0);
    if (!m)
        return NULL;
    m->index = PyDict_New();
    if (!m->index) {
        Py_DECREF(m);
        return NULL;
    }
    m->sim = (SimObj *)Py_NewRef(sim);
    m->coverage = Py_NewRef(coverage);
    m->random = Py_NewRef(random);
    m->trace = Py_NewRef(trace);
    m->tx_observers = Py_NewRef(tx_observers);
    m->rx_observers = Py_NewRef(rx_observers);
    m->reception_cls = Py_NewRef(reception_cls);
    if (emit) {
        m->emit = Py_NewRef(emit);
        m->record_cls = Py_NewRef(record_cls);
        m->rx_lost_names = Py_NewRef(names);
        m->frame_cls = (PyTypeObject *)Py_NewRef(frame_cls);
        m->packet_cls = (PyTypeObject *)Py_NewRef(packet_cls);
        m->describe = Py_XNewRef(_PyType_Lookup(m->frame_cls, str_describe));
        m->key = Py_XNewRef(_PyType_Lookup(m->packet_cls, str_key));
        m->key_off = slot_offset(m->packet_cls, str_dkey);
        for (int f = 0; f < F_COUNT; f++)
            m->frame_off[f] = slot_offset(m->frame_cls, *frame_names[f]);
        memcpy(m->record_off, record_off, sizeof(record_off));
    }
    m->capture_ratio = capture_ratio;
    m->ambient_loss = ambient_loss;
    return (PyObject *)m;
}

static int
Medium_traverse(MediumObj *m, visitproc visit, void *arg)
{
    Py_VISIT(m->sim);
    Py_VISIT(m->coverage);
    Py_VISIT(m->random);
    Py_VISIT(m->trace);
    Py_VISIT(m->tx_observers);
    Py_VISIT(m->rx_observers);
    Py_VISIT(m->reception_cls);
    Py_VISIT(m->emit);
    Py_VISIT(m->record_cls);
    Py_VISIT(m->rx_lost_names);
    Py_VISIT(m->frame_cls);
    Py_VISIT(m->packet_cls);
    Py_VISIT(m->describe);
    Py_VISIT(m->key);
    Py_VISIT(m->index);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        Py_VISIT(m->slots[i].id);
        Py_VISIT(m->slots[i].handler);
        for (int p = 0; p < P_COUNT; p++)
            Py_VISIT(m->slots[i].pipe[p]);
        Py_VISIT(m->slots[i].loss);
        Py_VISIT(m->slots[i].cov_key);
    }
    return 0;
}

/* Drops the Python references only: the slot table stays, because
 * unfinished batches still unlink their receptions from it. */
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
    Py_CLEAR(m->emit);
    Py_CLEAR(m->record_cls);
    Py_CLEAR(m->rx_lost_names);
    Py_CLEAR(m->frame_cls);
    Py_CLEAR(m->packet_cls);
    Py_CLEAR(m->describe);
    Py_CLEAR(m->key);
    Py_CLEAR(m->index);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        Py_CLEAR(m->slots[i].id);
        Py_CLEAR(m->slots[i].handler);
        for (int p = 0; p < P_COUNT; p++)
            Py_CLEAR(m->slots[i].pipe[p]);
        Py_CLEAR(m->slots[i].loss);
        Py_CLEAR(m->slots[i].cov_key);
    }
    return 0;
}

static void
Medium_dealloc(MediumObj *m)
{
    PyObject_GC_UnTrack(m);
    Medium_clear(m);
    for (Py_ssize_t i = 0; i < m->nslots; i++) {
        PyMem_Free(m->slots[i].cov);
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

static PyObject *
Medium_set_loss_handler(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "set_loss_handler(node, handler)");
        return NULL;
    }
    Py_ssize_t s = medium_slot_new(m, args[0]);
    if (s < 0)
        return NULL;
    Py_XSETREF(m->slots[s].loss, Py_NewRef(args[1]));
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

static PyObject *
Medium_transmit(MediumObj *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "transmit(sender, frame, duration, tx_range, on_outcome)");
        return NULL;
    }
    PyObject *sender = args[0], *frame = args[1], *tx_range = args[3];
    PyObject *on_outcome = args[4] == Py_None ? NULL : args[4];
    double duration = PyFloat_AsDouble(args[2]);
    if (duration == -1.0 && PyErr_Occurred())
        return NULL;
    Py_ssize_t s = medium_slot_new(m, sender);
    if (s < 0)
        return NULL;
    SimObj *sim = m->sim;
    double now = sim->now;
    double end = now + duration;
    Slot *tx = &m->slots[s];
    if (end > tx->tx_until)
        tx->tx_until = end;
    /* Half-duplex: transmitting kills the sender's own in-flight receptions. */
    for (Rx *rx = tx->head; rx; rx = rx->next)
        if (!rx->collided) {
            rx->collided = 1;
            m->collisions++;
        }

    PyObject *observers = m->tx_observers;
    if (PyList_GET_SIZE(observers)) {
        PyObject *at = PyFloat_FromDouble(now);
        if (!at)
            return NULL;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(observers); i++) {
            PyObject *observer = Py_NewRef(PyList_GET_ITEM(observers, i));
            PyObject *r = PyObject_CallFunctionObjArgs(observer, sender, frame,
                                                       at, NULL);
            Py_DECREF(observer);
            if (!r) {
                Py_DECREF(at);
                return NULL;
            }
            Py_DECREF(r);
        }
        Py_DECREF(at);
    }

    PyObject *cov = PyObject_CallFunctionObjArgs(m->coverage, sender, tx_range,
                                                 NULL);
    if (!cov)
        return NULL;
    int rc = medium_coverage(m, s, cov);
    Py_DECREF(cov);
    if (rc < 0)
        return NULL;
    Py_ssize_t dst = -1;
    if (on_outcome) {
        PyObject *link_dst = PyObject_GetAttr(frame, str_link_dst);
        if (!link_dst)
            return NULL;
        if (link_dst != Py_None)
            dst = medium_slot(m, link_dst, 0);
        Py_DECREF(link_dst);
        if (dst == -2)
            return NULL;
    }

    /* Once per transmission for every in-range receiver: the innermost
     * loop of the simulator.  Only the ambient-loss draw calls out, and
     * it cannot re-enter the medium, so `items` stays valid. */
    CovItem *items = m->slots[s].cov;
    Py_ssize_t n = m->slots[s].ncov;
    double ambient = m->ambient_loss;
    BatchObj *batch = NULL;
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
                return NULL;
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
    if (batch) {
        PyObject *ev = sim_push(sim, end, (PyObject *)batch, NULL, NULL);
        Py_DECREF(batch);
        if (!ev)
            return NULL;
        Py_DECREF(ev);
    }
    if (on_outcome && !covered) {
        /* Destination out of range (or detached): the ACK never comes. */
        PyObject *no = PyTuple_Pack(1, Py_False);
        if (!no)
            return NULL;
        PyObject *ev = sim_push(sim, end, on_outcome, no, NULL);
        if (!ev)
            return NULL;
        Py_DECREF(ev);
    }
    Py_RETURN_NONE;
fail:
    Py_DECREF(batch);
    return NULL;
}

/* Carrier sense at `node`: 1 while it transmits, 2 while it only hears
 * something, 0 when idle; -1 on error.  An unseen node has never
 * transmitted (tx_until 0.0) and hears nothing. */
static int
medium_sense(MediumObj *m, PyObject *node)
{
    if (medium_check(m) < 0)
        return -1;
    Py_ssize_t s = medium_slot(m, node, 0);
    if (s == -2)
        return -1;
    double tx_until = s >= 0 ? m->slots[s].tx_until : 0.0;
    if (tx_until > m->sim->now)
        return 1;
    return s >= 0 && m->slots[s].head ? 2 : 0;
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

static PyMethodDef Medium_methods[] = {
    {"attach", (PyCFunction)Medium_attach, METH_FASTCALL,
     "attach(node, handler, owner=None): set node's delivery handler."},
    {"set_loss_handler", (PyCFunction)Medium_set_loss_handler, METH_FASTCALL,
     "set_loss_handler(node, handler): notify node of lost receptions."},
    {"set_deaf", (PyCFunction)Medium_set_deaf, METH_FASTCALL,
     "set_deaf(node, deaf): switch node's radio off or back on."},
    {"set_link", (PyCFunction)Medium_set_link, METH_FASTCALL,
     "set_link(a, b, down): sever or restore the a <-> b link."},
    {"set_ambient_loss", (PyCFunction)Medium_set_ambient_loss, METH_O,
     "set_ambient_loss(p): per-reception loss probability."},
    {"transmit", (PyCFunction)Medium_transmit, METH_FASTCALL,
     "transmit(sender, frame, duration, tx_range, on_outcome)"},
    {"is_transmitting", (PyCFunction)Medium_is_transmitting, METH_O,
     "Whether node is mid-transmission."},
    {"is_busy", (PyCFunction)Medium_is_busy, METH_O,
     "Carrier sense at node: own transmission or any audible one."},
    {"release", (PyCFunction)Medium_release, METH_NOARGS,
     "Drop every handler and reference; the counters stay readable."},
    {NULL}
};

static PyGetSetDef Medium_getset[] = {
    {"collisions", (getter)Medium_get_collisions, NULL,
     "Receptions destroyed so far (interference or half-duplex).", NULL},
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
 * packets of the expected classes are read by slot offset; anything else
 * through attribute lookup.
 *
 * Everything else stays in Python and is called by name on the rare
 * paths: the monitor's _accuse, _add_expectation, _note_watch_size,
 * _watch_request_forwarders and its counters and _last_loss; the agent's
 * _reject and accepted-packet handlers; packet_role on a packet class's
 * first sight and Packet.key() while a key is not cached.  The watch
 * buffer is the monitor's own dict. */

static PyObject *str_observe, *str_origin, *str_destination, *str_inner_key, *str_cancel, *str_note_watch_size,
    *str_accuse, *str_add_expectation, *str_watch_request_forwarders,
    *str_reject, *str_note_frame, *str_last_loss, *str_fabrications_seen,
    *str_suppressed_accusations, *str_status, *str_fabrication,
    *str_nonneighbor, *str_revoked, *str_secondhop;

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
    /* Slot offsets on `cls`, -1 to use attribute lookup; off_key is -1
     * too when the class overrides key(). */
    Py_ssize_t off_key, off_origin, off_destination, off_inner_key;
} PacketKind;

typedef struct {
    PyObject_HEAD
    SimObj *sim;
    PyObject *monitor;
    PyObject *owner;
    PyObject *first;        /* NeighborTable's first-hop dict */
    PyObject *second;       /* NeighborTable's second-hop dict */
    PyObject *expectations; /* the monitor's watch buffer */
    PyObject *observe_body; /* the function LocalMonitor defines as observe */
    PyObject *packet_role;
    PyObject *packet_key;   /* Packet.key */
    PyObject *active, *revoked;     /* status values */
    PyObject *v_fabricate;
    PyTypeObject *frame_cls, *packet_cls;
    /* Set by bind(); receive() needs them. */
    PyObject *agent;
    PyObject *handlers;     /* packet class -> handler */
    PyObject *liveness;     /* or NULL */
    double grace, window;
    double cutoff, rotated_at;
    Py_ssize_t frame_off[F_COUNT];
    HeardTable cur, old;
    PacketKind *kinds;
    Py_ssize_t nkinds, cap_kinds;
    char enabled, watch_data, watch_request_drops, second_hop_check;
    char activated;
} GuardObj;

static PyTypeObject GuardType;

static inline PyObject *
frame_get(GuardObj *g, PyObject *frame, int field)
{
    Py_ssize_t offset = Py_TYPE(frame) == g->frame_cls ? g->frame_off[field] : -1;
    return slot_get(frame, offset, *frame_names[field]);
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

/* The role and slot offsets of `packet`'s class, classified by
 * packet_role on first sight.  Copied out: a frame handled re-entrantly
 * (an accusation's alert passes the send filter) may grow the table. */
static int
packet_kind(GuardObj *g, PyObject *packet, PacketKind *out)
{
    PyTypeObject *cls = Py_TYPE(packet);
    for (Py_ssize_t i = 0; i < g->nkinds; i++)
        if (g->kinds[i].cls == cls) {
            *out = g->kinds[i];
            return 0;
        }
    PyObject *r = PyObject_CallOneArg(g->packet_role, packet);
    if (!r)
        return -1;
    long role = PyLong_AsLong(r);
    Py_DECREF(r);
    if (role == -1 && PyErr_Occurred())
        return -1;
    PacketKind kind = {cls, (int)role, -1, -1, -1, -1};
    if (PyType_IsSubtype(cls, g->packet_cls) &&
        _PyType_Lookup(cls, str_key) == g->packet_key)
        kind.off_key = slot_offset(cls, str_dkey);
    kind.off_origin = slot_offset(cls, str_origin);
    kind.off_destination = slot_offset(cls, str_destination);
    kind.off_inner_key = slot_offset(cls, str_inner_key);
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
    Py_INCREF(cls);
    g->kinds[g->nkinds++] = kind;
    *out = kind;
    return 0;
}

/* packet.key(), from the cached slot when the class allows it. */
static PyObject *
packet_key(PyObject *packet, PacketKind *kind)
{
    if (kind->off_key >= 0) {
        PyObject *key = *(PyObject **)((char *)packet + kind->off_key);
        if (key && key != Py_None)
            return Py_NewRef(key);
    }
    return PyObject_CallMethodNoArgs(packet, str_key);
}

/* record.status == status; -1 on error. */
static int
status_is(PyObject *record, PyObject *status)
{
    PyObject *value = PyObject_GetAttr(record, str_status);
    if (!value)
        return -1;
    int eq = PyObject_RichCompareBool(value, status, Py_EQ);
    Py_DECREF(value);
    return eq;
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
    if (rc == 0)
        rc = discard(
            PyObject_CallMethodNoArgs(g->monitor, str_note_watch_size));
    return rc;
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
    tx = frame_get(g, frame, F_TRANSMITTER);
    if (!tx)
        goto done;
    if (!own) {
        /* A guard judges only what its own neighbours transmit. */
        if (!PyDict_GetItemWithError(g->first, tx)) {
            rc = PyErr_Occurred() ? -1 : 0;
            goto done;
        }
    }
    packet = frame_get(g, frame, F_PACKET);
    PacketKind kind;
    if (!packet || packet_kind(g, packet, &kind) < 0)
        goto done;
    if (kind.role == ROLE_RERR) {
        /* The transmitter legitimately cannot forward: clear the watch. */
        if (PyDict_GET_SIZE(g->expectations)) {
            PyObject *inner = slot_get(packet, kind.off_inner_key, str_inner_key);
            if (!inner)
                goto done;
            rc = pop_expectation(g, inner, tx);
            Py_DECREF(inner);
        } else {
            rc = 0;
        }
        goto done;
    }
    if (kind.role == ROLE_IGNORED || (kind.role == ROLE_DATA && !g->watch_data)) {
        rc = 0;
        goto done;
    }

    double now = g->sim->now;
    key = packet_key(packet, &kind);
    if (!key)
        goto done;
    Py_hash_t hash = PyObject_Hash(key);
    if (hash == -1 && PyErr_Occurred())
        goto done;
    if (guard_remember(g, key, hash, tx, now) < 0 ||
        pop_expectation(g, key, tx) < 0)
        goto done;

    prev = frame_get(g, frame, F_PREV_HOP);
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
            if (last_loss >= now - g->grace) {
                /* Our radio was impaired recently: withhold judgement. */
                if (increment(g->monitor, str_suppressed_accusations) < 0)
                    goto done;
            } else if (increment(g->monitor, str_fabrications_seen) < 0 ||
                       discard(PyObject_CallMethodObjArgs(
                           g->monitor, str_accuse, tx, g->v_fabricate,
                           str_fabrication, key, NULL)) < 0) {
                goto done;
            }
        }
    }

    watched = frame_get(g, frame, F_LINK_DST);
    if (!watched)
        goto done;
    if (watched == Py_None) {
        if (kind.role == ROLE_REQ && g->watch_request_drops &&
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
    if (kind.role == ROLE_REP)
        consumer = slot_get(packet, kind.off_origin, str_origin);
    else if (kind.role == ROLE_DATA)
        consumer = slot_get(packet, kind.off_destination, str_destination);
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
    rc = active ? discard(PyObject_CallMethodObjArgs(
                      g->monitor, str_add_expectation, key, watched, NULL))
                : 0;
done:
    Py_XDECREF(tx);
    Py_XDECREF(packet);
    Py_XDECREF(key);
    Py_XDECREF(prev);
    Py_XDECREF(watched);
    Py_XDECREF(consumer);
    return rc;
}

/* LiteworpAgent._reject(reason, frame). */
static int
guard_reject(GuardObj *g, PyObject *reason, PyObject *frame)
{
    return discard(
        PyObject_CallMethodObjArgs(g->agent, str_reject, reason, frame, NULL));
}

/* LiteworpAgent._receive's checks on an activated agent: 1 accept,
 * 0 reject, -1 error. */
static int
guard_admit(GuardObj *g, PyObject *frame)
{
    /* A wrapper installed on LocalMonitor.observe must see the frame, so
     * the body is entered directly only while the class's own is there. */
    if (_PyType_Lookup(Py_TYPE(g->monitor), str_observe) == g->observe_body) {
        if (guard_observe(g, frame, 0) < 0)
            return -1;
    } else if (discard(
                   PyObject_CallMethodOneArg(g->monitor, str_observe, frame)) < 0) {
        return -1;
    }
    /* Looked up after the monitor, which may have just revoked it. */
    PyObject *tx = frame_get(g, frame, F_TRANSMITTER);
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
    PyObject *prev = frame_get(g, frame, F_PREV_HOP);
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
                             "overheard_window", "v_fabricate", "observe",
                             "packet_role", "frame_cls", "packet_cls",
                             "active", "revoked", NULL};
    PyObject *monitor, *sim, *owner, *first, *second, *expectations,
        *v_fabricate, *observe, *role, *frame_cls, *packet_cls, *active,
        *revoked;
    int enabled, watch_data, watch_request_drops;
    double grace, window;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OO!OO!O!O!pppddOOOO!O!OO", kwlist, &monitor,
            &SimType, &sim, &owner, &PyDict_Type, &first, &PyDict_Type,
            &second, &PyDict_Type, &expectations, &enabled, &watch_data,
            &watch_request_drops, &grace, &window, &v_fabricate, &observe,
            &role, &PyType_Type, &frame_cls, &PyType_Type, &packet_cls,
            &active, &revoked))
        return NULL;
    PyObject *packet_key_fn = _PyType_Lookup((PyTypeObject *)packet_cls, str_key);
    if (!packet_key_fn) {
        PyErr_SetString(PyExc_TypeError, "packet_cls must define key()");
        return NULL;
    }
    GuardObj *g = (GuardObj *)type->tp_alloc(type, 0);
    if (!g)
        return NULL;
    g->monitor = Py_NewRef(monitor);
    g->sim = (SimObj *)Py_NewRef(sim);
    g->owner = Py_NewRef(owner);
    g->first = Py_NewRef(first);
    g->second = Py_NewRef(second);
    g->expectations = Py_NewRef(expectations);
    g->v_fabricate = Py_NewRef(v_fabricate);
    g->observe_body = Py_NewRef(observe);
    g->packet_role = Py_NewRef(role);
    g->packet_key = Py_NewRef(packet_key_fn);
    g->frame_cls = (PyTypeObject *)Py_NewRef(frame_cls);
    g->packet_cls = (PyTypeObject *)Py_NewRef(packet_cls);
    g->active = Py_NewRef(active);
    g->revoked = Py_NewRef(revoked);
    g->enabled = (char)enabled;
    g->watch_data = (char)watch_data;
    g->watch_request_drops = (char)watch_request_drops;
    g->grace = grace;
    g->window = window;
    g->cutoff = -Py_HUGE_VAL;
    g->rotated_at = -Py_HUGE_VAL;
    for (int f = 0; f < F_COUNT; f++)
        g->frame_off[f] = slot_offset(g->frame_cls, *frame_names[f]);
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
    Py_VISIT(g->observe_body);
    Py_VISIT(g->packet_role);
    Py_VISIT(g->packet_key);
    Py_VISIT(g->active);
    Py_VISIT(g->revoked);
    Py_VISIT(g->v_fabricate);
    Py_VISIT(g->frame_cls);
    Py_VISIT(g->packet_cls);
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
    Py_CLEAR(g->observe_body);
    Py_CLEAR(g->packet_role);
    Py_CLEAR(g->packet_key);
    Py_CLEAR(g->active);
    Py_CLEAR(g->revoked);
    Py_CLEAR(g->v_fabricate);
    Py_CLEAR(g->frame_cls);
    Py_CLEAR(g->packet_cls);
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
    heard_free(&g->cur);
    heard_free(&g->old);
    PyMem_Free(g->kinds);
    Py_TYPE(g)->tp_free((PyObject *)g);
}

static PyObject *
Guard_bind(GuardObj *g, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"agent", "handlers", "liveness",
                             "second_hop_check", NULL};
    PyObject *agent, *handlers, *liveness;
    int second_hop_check;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "$OO!Op", kwlist, &agent,
                                     &PyDict_Type, &handlers, &liveness,
                                     &second_hop_check))
        return NULL;
    if (guard_check(g) < 0)
        return NULL;
    Py_XSETREF(g->agent, Py_NewRef(agent));
    Py_XSETREF(g->handlers, Py_NewRef(handlers));
    Py_XSETREF(g->liveness, liveness == Py_None ? NULL : Py_NewRef(liveness));
    g->second_hop_check = (char)second_hop_check;
    Py_RETURN_NONE;
}

static PyObject *
Guard_receive(GuardObj *g, PyObject *frame)
{
    if (guard_check(g) < 0)
        return NULL;
    if (!g->agent) {
        PyErr_SetString(PyExc_RuntimeError, "guard is not bound to an agent");
        return NULL;
    }
    if (g->liveness && discard(PyObject_CallMethodOneArg(
                           g->liveness, str_note_frame, frame)) < 0)
        return NULL;
    if (g->activated) {
        int verdict = guard_admit(g, frame);
        if (verdict <= 0)
            return verdict < 0 ? NULL : Py_NewRef(Py_False);
    }
    PyObject *packet = frame_get(g, frame, F_PACKET);
    if (!packet)
        return NULL;
    PyObject *handler = PyDict_GetItemWithError(g->handlers,
                                                (PyObject *)Py_TYPE(packet));
    Py_DECREF(packet);
    if (!handler) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_TRUE;
    }
    if (call_one(handler, frame) < 0)
        return NULL;
    Py_RETURN_TRUE;
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
     "bind(*, agent, handlers, liveness, second_hop_check): the agent side."},
    {"receive", (PyCFunction)Guard_receive, METH_O,
     "The agent's receive hook: False rejects the frame."},
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
     "reference."},
    {"stamps", (PyCFunction)Guard_stamps, METH_NOARGS,
     "The overheard store's stamps, as (current, old) generation lists."},
    {NULL}
};

static PyMemberDef Guard_members[] = {
    {"activated", T_BOOL, offsetof(GuardObj, activated), 0,
     "Whether receive() runs the monitor and the legitimacy checks."},
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
        PyType_Ready(&BatchType) < 0 || PyType_Ready(&MediumType) < 0 ||
        PyType_Ready(&GuardType) < 0)
        return NULL;
    struct { PyObject **slot; const char *text; } names[] = {
        {&str_link_dst, "link_dst"}, {&str_describe, "describe"},
        {&str_emit, "emit"}, {&str_rx_lost, "rx_lost"},
        {&str_receiver, "receiver"}, {&str_collided, "collided"},
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
        {&str_rvalues, "_values"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (!*names[i].slot &&
            !(*names[i].slot = PyUnicode_InternFromString(names[i].text)))
            return NULL;
    PyObject *m = PyModule_Create(&ckernel_module);
    if (!m)
        return NULL;
    if (PyModule_AddObjectRef(m, "Event", (PyObject *)&EventType) < 0 ||
        PyModule_AddObjectRef(m, "Simulator", (PyObject *)&SimType) < 0 ||
        PyModule_AddObjectRef(m, "Medium", (PyObject *)&MediumType) < 0 ||
        PyModule_AddObjectRef(m, "Guard", (PyObject *)&GuardType) < 0 ||
        PyModule_AddIntConstant(m, "NSLOTS", (long)NSLOTS) < 0 ||
        PyModule_AddObject(m, "DEFAULT_WIDTH",
                           PyFloat_FromDouble(DEFAULT_WIDTH)) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
