"""Span tracing of levynet's public functions, installed from outside the
package.

`Tracer.install()` wraps every public function of the traced modules, the
registered experiment functions and the two hot methods
(`VarianceModel.sample`, `NetworkRealization.weight`), and rebinds every
`levynet.*` module attribute that *is* one of the originals.  That matters
because modules import each other's functions by name (`experiments` imports
`sample_random_kernel`, `pruning` imports `forward`, `models` imports the
`rng` samplers), so patching only the defining module would miss those call
sites.  `uninstall()` restores every binding.

A span records its name, parent, thread, start and end.  Self time is the
span's duration minus the spans it caused *in the same thread*; work that
`stats.map_replicates` hands to pool threads is parented to the
`map_replicates` span (thread pools do not carry `contextvars`, so the
wrapper passes the span in explicitly) but does not reduce its self time.
Spans stay in memory until the run writes them out.
"""

import contextlib
import contextvars
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = ("rng", "models", "levy", "kernels", "special", "network",
                  "pruning", "stats", "experiments", "cli")

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class _Frame:
    __slots__ = ("id", "name", "op", "thread", "child_s")

    def __init__(self, span_id, name, op):
        self.id = span_id
        self.name = name
        self.op = op
        self.thread = threading.get_ident()
        self.child_s = 0.0


def _size(a):
    return int(np.size(a))


def _network_normals(real, args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    n = sum(v.size for v in real.V)
    if cfg.sigma_b > 0:
        n += sum(b.size for b in real.B)
    return {"normals": n}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counters recorded at the layer boundary, from the call's own result
# and arguments: name -> fn(result, args, kwargs) -> {counter: value}
COUNTERS = {
    "network.sample_network": _network_normals,
    "models.sample": lambda r, a, k: {"draws": _size(r)},
    "levy.sample_ppp_matrix": lambda r, a, k: {
        "atoms": int(np.count_nonzero(r[0]))},
    "levy.sample_id_batch": lambda r, a, k: {"draws": _size(r)},
    "levy.tail_intensity": lambda r, a, k: {
        "points": _size(_arg(a, k, 1, "x"))},
    "pruning.epsilon_sweep_error": lambda r, a, k: {
        "replicates": int(_arg(a, k, 3, "replicates"))},
    "pruning.paired_pruning_error": lambda r, a, k: {
        "replicates": int(_arg(a, k, 3, "replicates"))},
}
RNG_SAMPLERS = ("sample_std_normal", "sample_gamma", "sample_beta",
                "sample_inverse_gamma", "sample_half_cauchy", "sample_pareto",
                "sample_positive_stable", "sample_etbfry")
for _name in RNG_SAMPLERS:
    COUNTERS[f"rng.{_name}"] = lambda r, a, k: {"draws": _size(r)}


class Tracer:
    """Collects spans and counters while installed; see the module
    docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []
        self.spans = []                      # (id, parent, name, thread, t0, t1)
        self.calls = defaultdict(int)        # name -> calls
        self.self_s = defaultdict(float)     # name -> self seconds
        self.op_self_s = defaultdict(float)  # (op, name) -> self seconds
        self.counts = defaultdict(int)       # "name.counter" -> value
        self.pool = defaultdict(float)       # map_replicates task/slot seconds
        self.op_s = defaultdict(float)       # op -> seconds

    # -- spans ---------------------------------------------------------------
    def _enter(self, name, op=None):
        parent = _CURRENT.get()
        frame = _Frame(next(self._ids), name,
                       op if op is not None else (parent.op if parent else None))
        return parent, frame, _CURRENT.set(frame)

    def _exit(self, parent, frame, token, t0, t1):
        _CURRENT.reset(token)
        dur = t1 - t0
        if parent is not None and parent.thread == frame.thread:
            parent.child_s += dur
        self_s = dur - frame.child_s
        with self._lock:
            self.spans.append((frame.id, parent.id if parent else 0,
                               frame.name, frame.thread, t0, t1))
            self.calls[frame.name] += 1
            self.self_s[frame.name] += self_s
            self.op_self_s[(frame.op, frame.name)] += self_s

    @contextlib.contextmanager
    def op(self, op_name):
        """Install the wrappers and open a top-level span for one benchmark
        operation; the spans it causes are attributed to op_name.  The
        wrappers come out again on exit, so the benchmark's own checks are
        not traced."""
        self.install()
        try:
            parent, frame, token = self._enter("bench." + op_name, op=op_name)
            t0 = perf_counter()
            try:
                yield
            finally:
                t1 = perf_counter()
                self._exit(parent, frame, token, t0, t1)
                self.op_s[op_name] += t1 - t0
        finally:
            self.uninstall()

    def _count(self, name, values):
        with self._lock:
            for key, v in values.items():
                self.counts[f"{name}.{key}"] += v

    # -- wrappers ------------------------------------------------------------
    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent, frame, token = tracer._enter(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(parent, frame, token, t0, perf_counter())
            if counter is not None:
                tracer._count(name, counter(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_map_replicates(self, fn):
        tracer = self

        def traced(task_fn, replicates, workers=1):
            parent, frame, token = tracer._enter("stats.map_replicates")
            n = int(replicates)
            task_s = [0.0]
            lock = threading.Lock()

            def task(i):
                inner = _CURRENT.set(frame)
                t0 = perf_counter()
                try:
                    return task_fn(i)
                finally:
                    dt = perf_counter() - t0
                    _CURRENT.reset(inner)
                    with lock:
                        task_s[0] += dt

            t0 = perf_counter()
            try:
                return fn(task, replicates, workers)
            finally:
                t1 = perf_counter()
                tracer._exit(parent, frame, token, t0, t1)
                serial = workers is None or workers <= 1 or n <= 1
                slots = 1 if serial else min(int(workers), n)
                with tracer._lock:
                    tracer.counts["stats.map_replicates.tasks"] += n
                    tracer.pool["task_s"] += task_s[0]
                    tracer.pool["slot_s"] += slots * (t1 - t0)
                    tracer.pool["wall_s"] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap the traced functions and rebind every levynet module
        attribute, experiment-registry entry and class method that holds an
        original."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # importing experiments fills the registry
        from levynet import experiments, models, network, stats  # noqa: F401

        wrapped = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules[f"levynet.{short}"]
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = getattr(mod, n, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self.wrap_map_replicates(fn)
                                       if fn is stats.map_replicates
                                       else self.wrap(f"{short}.{n}", fn))
        for key, fn in stats._EXPERIMENTS.items():
            wrapped.setdefault(id(fn),
                               (fn, self.wrap(f"experiments.{key}", fn)))
        bindings = [vars(mod) for name, mod in list(sys.modules.items())
                    if mod is not None and (name == "levynet"
                                            or name.startswith("levynet."))]
        for ns in bindings + [stats._EXPERIMENTS]:
            for attr, val in list(ns.items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    ns[attr] = hit[1]
                    self._patches.append((ns, attr, val))
        for cls, attr, name in (
                (models.VarianceModel, "sample", "models.sample"),
                (network.NetworkRealization, "weight", "network.weight")):
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig))
            self._patches.append((cls, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._patches = []
