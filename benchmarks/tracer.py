"""Per-layer tracing of hallforge from outside the package.

`Tracer.install()` replaces every public function and method of the eight
layer modules with a wrapper, in the defining module and in every other
hallforge module that imported the name with ``from .x import f``.  The
hallforge source is not edited; `uninstall()` puts the originals back.

A span is opened only where a call crosses into another layer; a call
that stays inside the layer of its caller is counted but adds no span,
because its time already belongs to that layer.  Self time of a span is
its time minus the time of its child spans, accumulated per layer as the
spans close.  The wrappers' own cost lands in those self times; each
layer is also charged the calibrated cost of the wrapper calls made in
it, and `self_times()` takes that charge back out.  Time is the thread's
CPU time: a thread waiting for the
interpreter lock or for the backend's lock accrues none, so with several
threads the self times add up to the CPU the process spent rather than
to threads x wall time.  Each thread keeps its own stack, counters and
span list, so the wrappers need no lock.

Leaf layers (`scalars`, `fq`) run millions of short calls.  They are timed
and charged to their layer like any other span, but no span record is
kept for them.  The first `max_spans` span records of the other layers,
counted over all threads, are kept in memory and written out at the end.
"""

import inspect
import itertools
import threading
import time

LAYERS = ("fq", "backend", "scalars", "hall", "presented", "morphisms",
          "exprs", "suites")
LEAF_LAYERS = frozenset(("scalars", "fq"))

# arithmetic dunders are the operations of the scalar and element types;
# reflected forms count as the same operation
_DUNDER_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div",
    "__rtruediv__": "div", "__neg__": "neg", "__pow__": "pow",
}

# the benchmark's own request spans; their self time is no layer's
BENCH = "bench"


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "cost", "extra", "spans",
                 "thread", "in_cold")

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.cost = {}
        self.extra = {}
        self.spans = []
        self.thread = threading.get_ident()
        self.in_cold = False


class Tracer:
    """Wraps layer entry points and accounts calls and self time."""

    def __init__(self, clock=time.thread_time, max_spans=50_000):
        self.clock = clock
        self.max_spans = max_spans
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []
        self.request_id = None
        self._spans_seen = itertools.count()
        self.backends = []
        # what a wrapper adds to a call, as calibrate() measures it:
        # outside the callee's span (charged to the caller's layer), inside
        # it, and for a same-layer call that opens no span
        self.frame_cost = 0.0
        self.inside_cost = 0.0
        self.count_cost = 0.0

    # -- per-thread state ---------------------------------------------

    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState()
            self._local.st = st
            with self._states_lock:
                self._states.append(st)
            return st

    # -- span accounting ----------------------------------------------

    def enter(self, layer, name):
        """Open a frame for `layer`; returns None for a same-layer call."""
        st = self._state()
        st.calls[name] = st.calls.get(name, 0) + 1
        stack = st.stack
        if stack and stack[-1][0] == layer:
            st.cost[layer] = st.cost.get(layer, 0.0) + self.count_cost
            return None
        parent = stack[-1][2] if stack else self.request_id
        sid = None if layer in LEAF_LAYERS else next(self._ids)
        frame = [layer, 0.0, sid, parent, name, self.clock()]
        stack.append(frame)
        return frame

    def exit(self, frame):
        t1 = self.clock()
        st = self._state()
        st.stack.pop()
        layer, child, sid, parent, name, t0 = frame
        dur = t1 - t0
        st.self_s[layer] = st.self_s.get(layer, 0.0) + dur - child
        st.cost[layer] = st.cost.get(layer, 0.0) + self.inside_cost
        if st.stack:
            caller = st.stack[-1]
            caller[1] += dur
            st.cost[caller[0]] = st.cost.get(caller[0], 0.0) + self.frame_cost
        if sid is not None and next(self._spans_seen) < self.max_spans:
            st.spans.append((sid, parent, name, t0, t1, st.thread))

    def span(self, layer, name):
        """Context manager around a block the benchmark itself runs."""
        return _Span(self, layer, name)

    def add(self, key, amount):
        st = self._state()
        st.extra[key] = st.extra.get(key, 0) + amount

    def calibrate(self, n=20_000, repeats=7):
        """Measure what a wrapper adds to a call.  The probe is a
        method-shaped call (two positional arguments); best of `repeats`
        runs.  In the workloads a call costs more than in this tight loop,
        so what it removes is a lower bound of the tracing cost."""
        probe = Tracer(self.clock)
        clock = self.clock

        def noop(a, b):
            pass

        def per_call(fn):
            best = float("inf")
            for _ in range(repeats):
                with probe.span("calibrate", "calibrate"):
                    t0 = clock()
                    if fn is None:
                        for i in range(n):
                            pass
                    else:
                        for i in range(n):
                            fn(i, n)
                    best = min(best, (clock() - t0) / n)
            return best

        loop = per_call(None)
        plain = per_call(noop)
        count = per_call(probe.wrap(noop, "calibrate", "calibrate.same"))
        frame = per_call(probe.wrap(noop, "callee", "calibrate.callee"))
        recorded = probe.totals()[1]["callee"] / (n * repeats)
        self.inside_cost = max(recorded - (plain - loop), 0.0)
        self.count_cost = max(count - plain, 0.0)
        self.frame_cost = max(frame - plain - self.inside_cost, 0.0)

    # -- wrapping -----------------------------------------------------

    def wrap(self, fn, layer, name, after=None):
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame = enter(layer, name)
            if frame is None:
                result = fn(*args, **kwargs)
            else:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr, value):
        """Replace one attribute for the traced run; undone by uninstall."""
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package_modules, layer_modules, hooks=None):
        """Wrap the public names of `layer_modules` ({layer: module}).

        `package_modules` are all modules whose globals may hold imported
        copies of those names.  `hooks` maps a metric key such as
        ``"presented.normal_form"`` to ``after(tracer, args, result)``.
        """
        hooks = hooks or {}
        replaced = {}
        for layer, mod in layer_modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = "%s.%s" % (layer, attr)
                    wrapped = self.wrap(obj, layer, key,
                                         self._hook(hooks.get(key)))
                    replaced[id(obj)] = wrapped
                    self.patch(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, hooks)
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None and getattr(mod, attr) is not wrapped:
                    self.patch(mod, attr, wrapped)

    def _wrap_class(self, cls, layer, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr in _DUNDER_OPS:
                op = _DUNDER_OPS[attr]
            elif attr.startswith("_"):
                continue
            else:
                op = attr
            key = "%s.%s" % (layer, op)
            after = self._hook(hooks.get(key))
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, layer, key, after))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, layer, key, after))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, layer, key, after)
            else:
                continue
            self.patch(cls, attr, new)

    def _hook(self, fn):
        if fn is None:
            return None
        return lambda args, result: fn(self, args, result)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- cold calls ---------------------------------------------------

    def time_cold_calls(self, cls, attr, key, is_cold):
        """Add to extra counter `key` the time (by the tracer's clock, with
        the tracing cost inside) of calls to `cls.attr` for which
        ``is_cold(obj, arg)`` holds before the call.  A cold call nested in
        another is already part of the outer one's time."""
        inner = cls.__dict__[attr]

        def timed(obj, arg, *rest, **kw):
            st = self._state()
            if st.in_cold or not is_cold(obj, arg):
                return inner(obj, arg, *rest, **kw)
            st.in_cold = True
            t0 = self.clock()
            try:
                return inner(obj, arg, *rest, **kw)
            finally:
                st.in_cold = False
                self.add(key, self.clock() - t0)

        self.patch(cls, attr, timed)

    # -- results ------------------------------------------------------

    def totals(self):
        """Merged per-name calls, per-layer raw self time and wrapper cost
        charged, and extra counters."""
        merged = ({}, {}, {}, {})
        for st in self._states:
            for src, dst in zip((st.calls, st.self_s, st.cost, st.extra),
                                merged):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        return merged

    def self_times(self):
        """Self time per layer less the calibrated wrapper cost charged
        to it."""
        _, raw, cost, _ = self.totals()
        return {layer: t - cost.get(layer, 0.0) for layer, t in raw.items()}

    def spans_dropped(self):
        """Spans closed after the first `max_spans`, which were not kept."""
        return max(next(self._spans_seen) - self.max_spans, 0)

    def spans(self):
        out = []
        for st in self._states:
            out.extend(st.spans)
        out.sort(key=lambda s: s[3])
        return out


class _Span:
    __slots__ = ("tracer", "layer", "name", "frame")

    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.frame = self.tracer.enter(self.layer, self.name)
        if self.layer == BENCH and self.frame is not None:
            # spans opened by pool threads during this request hang off it
            self.tracer.request_id = self.frame[2]
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer.exit(self.frame)
            if self.layer == BENCH:
                self.tracer.request_id = None
        return False

