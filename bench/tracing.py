"""Spans and counters recorded from outside the dpmne package.

Every measurement here comes from wrapping public functions of the dpmne
modules as their callers see them (``dpmne.trainer.update_Y``,
``dpmne.evaluation.train`` and so on), so the package itself is untouched.
``install_train_recorder`` is the only wrapper an untraced run installs
(it times ``train`` calls, including those inside ``pdr_sweep``);
``install_tracer`` adds the span and counter wrappers of a traced pass.
"""

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """In-memory spans (id, name, start, end, parent) and named counters.

    Parents are tracked per thread; work handed to a view thread inherits
    the span that handed it over, so its spans nest under ``map_views``.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else getattr(self._local, "base", None)

    @contextmanager
    def adopt(self, parent):
        """Run a block in another thread as a child of ``parent``."""
        saved = getattr(self._local, "base", None), getattr(self._local, "stack", None)
        self._local.base, self._local.stack = parent, []
        try:
            yield
        finally:
            self._local.base, self._local.stack = saved

    @contextmanager
    def span(self, name):
        with self._lock:
            span_id = next(self._ids)
        parent = self.current()
        if getattr(self._local, "stack", None) is None:
            self._local.stack = []
        self._local.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._local.stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent))

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def keep_max(self, key, value):
        with self._lock:
            self.values[key] = max(self.values.get(key, value), value)

    def reset(self):
        with self._lock:
            self.spans, self.counts, self.values = [], {}, {}


def totals(spans):
    """Summed duration and call count per span name."""
    seconds, calls = {}, {}
    for _, name, start, end, _ in spans:
        seconds[name] = seconds.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time per layer: each span minus the union of its children.

    The layer of a span is the dpmne module in front of the first dot of
    its name. Children running in parallel threads are counted once.
    """
    children = {}
    for span_id, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    per_layer = {}
    for span_id, name, start, end, _ in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        own = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + own
    return per_layer


class TrainRecorder:
    """Wall time and returned state of every ``train`` call, in call order."""

    def __init__(self):
        self.seconds = []
        self.states = []

    def reset(self):
        self.seconds, self.states = [], []

    def wrap(self, train):
        def timed_train(*args, **kwargs):
            tic = time.perf_counter()
            state = train(*args, **kwargs)
            self.seconds.append(time.perf_counter() - tic)
            self.states.append(state)
            return state
        return timed_train


def install_train_recorder(dp, recorder, patches):
    """Route ``train`` calls from the harness and from ``pdr_sweep`` through ``recorder``."""
    patches.replace(dp.trainer, "train", recorder.wrap)
    patches.replace(dp.evaluation, "train", recorder.wrap)


# (module, attribute as its caller looks it up, span name)
_SPANS = (
    ("graph_model", "synth_generate", "graph_model.synth_generate"),
    ("evaluation", "apply_pdr", "graph_model.apply_pdr"),
    ("io", "save_network", "io.save_network"),
    ("io", "load_network", "io.load_network"),
    ("io", "checkpoint", "io.checkpoint"),
    ("io", "restore", "io.restore"),
    ("trainer", "train", "trainer.train"),
    ("evaluation", "train", "trainer.train"),
    ("trainer", "update_Y", "trainer.update_Y"),
    ("trainer", "update_B", "trainer.update_B"),
    ("trainer", "update_H", "trainer.update_H"),
    ("trainer", "objective", "trainer.objective"),
    ("autoencoder", "train_view_autoencoder", "autoencoder.train_view_autoencoder"),
    ("evaluation", "pdr_sweep", "evaluation.pdr_sweep"),
    ("evaluation", "classify_f1", "evaluation.classify_f1"),
    ("evaluation", "fit_logistic_regression", "evaluation.fit_logistic_regression"),
    ("evaluation", "cluster_accuracy", "evaluation.cluster_accuracy"),
    ("evaluation", "knn_impute", "evaluation.knn_impute"),
    ("quantizer", "itq", "quantizer.itq"),
    ("quantizer", "pack_codes", "quantizer.pack_codes"),
    ("quantizer", "unpack_codes", "quantizer.unpack_codes"),
)

# which block's line search each module's armijo_minimize serves
_OPTIM_BLOCKS = (("trainer", "Y"), ("autoencoder", "H"), ("evaluation", "logreg"))


def install_tracer(dp, tracer, patches):
    """Wrap every traced dpmne entry point; ``patches.restore()`` undoes it."""

    def spanned(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    for module, attr, name in _SPANS:
        patches.replace(getattr(dp, module), attr, spanned(name))

    def traced_build_stack(fn):
        def wrapper(network, config=None):
            with tracer.span("proximity.build_stack"):
                prox = fn(network, config)
            lap = prox.laplacian
            tracer.keep_max("proximity.laplacian_nnz", lap.nnz)
            tracer.keep_max("proximity.laplacian_density",
                            lap.nnz / float(lap.shape[0] * lap.shape[1]))
            tracer.keep_max("proximity.laplacian_mb_computed",
                            (lap.data.nbytes + lap.indices.nbytes + lap.indptr.nbytes) / 2**20)
            return prox
        return wrapper

    patches.replace(dp.trainer, "build_stack", traced_build_stack)

    def counted_armijo(block):
        def make(fn):
            def wrapper(fun, grad, x0, *args, **kwargs):
                def counted_fun(x):
                    tracer.add(f"optim.{block}_evals")
                    return fun(x)

                def counted_grad(x):
                    tracer.add(f"optim.{block}_steps")
                    return grad(x)

                with tracer.span("optim.armijo_minimize"):
                    return fn(counted_fun, counted_grad, x0, *args, **kwargs)
            return wrapper
        return make

    for module, block in _OPTIM_BLOCKS:
        patches.replace(getattr(dp, module), "armijo_minimize", counted_armijo(block))

    def pooled(fn):
        def wrapper(task, items):
            items = list(items)
            tracer.keep_max("parallel.workers", dp.parallel.worker_count(len(items)))
            with tracer.span("parallel.map_views") as parent:
                def timed_task(item):
                    with tracer.adopt(parent):
                        tic = time.perf_counter()
                        try:
                            return task(item)
                        finally:
                            tracer.add("parallel.task_s", time.perf_counter() - tic)
                return fn(timed_task, items)
        return wrapper

    patches.replace(dp.trainer, "map_views", pooled)
    patches.replace(dp.proximity, "map_views", pooled)
