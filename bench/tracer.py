"""Spans around every public function of the hullforge layers, installed
from outside the package.

`install()` replaces each public function and each public method of a class
defined in one of LAYERS with a wrapper, and rebinds every other name that
refers to the original inside any loaded hullforge module (so names brought
in with `from .hull import hull_dim` are traced too).  Spans stay in memory;
`layer_metrics()` turns them into the benchmark's per-layer metrics.

Self time is busy time: the span's CPU time minus that of its child spans.
It is measured with the thread CPU clock, so the spans that random_search
runs on its pool thread add up instead of counting the interpreter lock's
waits twice.  A span opened on a pool thread with nothing open on that
thread is a child of the innermost span open on the main thread; a span
with such children measures process CPU time instead of thread CPU time,
and passes only its own thread's share up to its parent.
"""

import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("search", "code", "gf4", "hull", "construct", "eaqecc", "matfmt", "cli")

# span bucket for the functions the per-layer metrics name; every other
# public function is traced under "<module>.<qualname>" so that its time is
# not charged to its caller
BUCKETS = {
    "search.exhaustive_dh": "search.exhaustive",
    "search.certify_nonexistence": "search.certify",
    "search.random_search": "search.random",
    "code.LinearCode.weight_distribution": "code.weights",
    "code.LinearCode.hermitian_dual": "code.dual",
    "code.LinearCode.min_distance": "code.min_distance",
}


class _Span:
    __slots__ = ("bucket", "parent", "wall", "tcpu", "pcpu", "child", "adopts",
                 "sub_explored")

    def __init__(self, bucket, parent):
        self.bucket = bucket
        self.parent = parent
        self.child = 0.0
        self.adopts = False
        self.sub_explored = 0
        self.wall = time.perf_counter()
        self.tcpu = time.thread_time()
        self.pcpu = time.process_time()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.wall_outer = defaultdict(float)  # wall time of outermost spans
        self.counts = Counter()
        self.open = Counter()
        self._seen = {}  # id -> SearchOutcome; holding it keeps the id unique
        self.enabled = True

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, bucket):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
            parent.adopts = True
        else:
            parent = None
        span = _Span(bucket, parent)
        stack.append(span)
        with self._lock:
            self.open[bucket] += 1
        return span

    def _exit(self, span):
        wall = time.perf_counter() - span.wall
        self._stack().pop()
        with self._lock:
            thread_cpu = time.thread_time() - span.tcpu
            own = time.process_time() - span.pcpu if span.adopts else thread_cpu
            self.open[span.bucket] -= 1
            self.calls[span.bucket] += 1
            self.self_s[span.bucket] += own - span.child
            if span.parent is not None:
                # a parent's own time counts this thread's CPU only
                span.parent.child += thread_cpu
            if not self.open[span.bucket]:
                self.wall_outer[span.bucket] += wall
                if span.bucket == "search.random":
                    self.counts["random.cpu"] += time.process_time() - span.pcpu

    def wrap(self, qualified, fn):
        bucket = BUCKETS.get(qualified, qualified)
        if qualified.startswith("cli."):
            bucket = "cli"
        hook = _HOOKS.get(bucket)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = bucket
            if bucket == "code.weights" and getattr(args[0], "_weights", None) is not None:
                name = "code.weights_cached"
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None and name == bucket:
                hook(self, span, args, result)
            return result

        traced.__traced__ = fn
        return traced

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self):
        """{metric: (value, unit)}.  A *_per_s rate divides by the wall time
        of the layer's outermost spans, except words_per_s, which divides by
        busy time because weights are also counted on the pool thread."""
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        leaves = c["search.exhaustive.leaves"]
        cands = c["search.random.candidates"]
        words = c["code.weights.words"]
        random_wall = self.wall_outer["search.random"]
        extra = {
            "search.exhaustive": {
                "leaves": (leaves, "count"),
                "leaves_per_s": (ratio(leaves, self.wall_outer["search.exhaustive"]), "1/s"),
                "rank_per_leaf": (ratio(c["search.exhaustive.rank"], leaves), "ratio"),
            },
            "search.certify": {"vectors": (c["search.certify.vectors"], "count")},
            "search.random": {
                "candidates": (cands, "count"),
                "candidates_per_s": (ratio(cands, random_wall), "1/s"),
                "distance_evals_per_candidate":
                    (ratio(c["search.random.distance_evals"], cands), "ratio"),
                "cpu_per_wall": (ratio(c["random.cpu"], random_wall), "ratio"),
            },
            "code.weights": {
                "words": (words, "count"),
                "words_per_s": (ratio(words, self.self_s["code.weights"]), "1/s"),
                "bytes_computed": (c["code.weights.bytes_computed"], "B"),
            },
        }
        out = {}
        for bucket in TIMED_BUCKETS:
            out[f"{bucket}.calls"] = (self.calls[bucket], "count")
            out[f"{bucket}.self_s"] = (self.self_s[bucket], "s")
            for key, value in extra.get(bucket, {}).items():
                out[f"{bucket}.{key}"] = value
        out["cli.self_s"] = (self.self_s["cli"], "s")
        return out


TIMED_BUCKETS = (
    "search.exhaustive", "search.certify", "search.random",
    "code.weights", "code.dual",
    "gf4.rank", "gf4.rref", "gf4.kernel", "gf4.matmul",
    "hull.hull_dim", "hull.hull_report",
    "construct.code_from_multiplicity", "eaqecc.derive_pair",
    "matfmt.parse", "matfmt.render",
)


def _exhaustive_hook(tr, span, args, outcome):
    # explored is cumulative over the zero-column recursion on n - 1, and a
    # memoised call returns the very object it returned the first time
    with tr._lock:
        if id(outcome) in tr._seen:
            new = 0
        else:
            tr._seen[id(outcome)] = outcome
            new = outcome.explored - span.sub_explored
        tr.counts["search.exhaustive.leaves"] += new
        if span.parent is not None and span.parent.bucket == "search.exhaustive":
            span.parent.sub_explored += outcome.explored


def _certify_hook(tr, span, args, result):
    with tr._lock:
        tr.counts["search.certify.vectors"] += getattr(result, "vectors_examined", 0)


def _random_hook(tr, span, args, outcome):
    with tr._lock:
        tr.counts["search.random.candidates"] += outcome.explored


def _weights_hook(tr, span, args, result):
    code = args[0]
    with tr._lock:
        tr.counts["code.weights.words"] += 4 ** code.k
        tr.counts["code.weights.bytes_computed"] += 4 ** code.k * code.n


def _rank_hook(tr, span, args, result):
    if tr.open["search.exhaustive"]:
        with tr._lock:
            tr.counts["search.exhaustive.rank"] += 1


def _min_distance_hook(tr, span, args, result):
    if tr.open["search.random"]:
        with tr._lock:
            tr.counts["search.random.distance_evals"] += 1


_HOOKS = {
    "search.exhaustive": _exhaustive_hook,
    "search.certify": _certify_hook,
    "search.random": _random_hook,
    "code.weights": _weights_hook,
    "gf4.rank": _rank_hook,
    "code.min_distance": _min_distance_hook,
}


def _public_callables(mod):
    """(qualified name, owner, attribute, function) for each public function
    and public method of a class defined in `mod`."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (classmethod, staticmethod))):
                    yield f"{short}.{name}.{attr}", obj, attr, member
        elif callable(obj):
            yield f"{short}.{name}", mod, name, obj


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "hullforge" or name.startswith("hullforge.")]


def install():
    """Trace every public function of LAYERS; returns the Tracer."""
    tr = Tracer()
    replaced = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"hullforge.{layer}"]
        for qualified, owner, attr, obj in list(_public_callables(mod)):
            if isinstance(obj, (classmethod, staticmethod)):
                wrapper = type(obj)(tr.wrap(qualified, obj.__func__))
            else:
                wrapper = tr.wrap(qualified, obj)
                replaced[id(obj)] = (obj, wrapper)
            setattr(owner, attr, wrapper)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])
    return tr


def untraced_bindings():
    """Names in loaded hullforge modules that still refer to a public layer
    function without its wrapper (empty after install())."""
    missing = []
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"hullforge.{layer}"]
        for qualified, owner, attr, obj in _public_callables(mod):
            target = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
            if not hasattr(target, "__traced__"):
                missing.append(qualified)
            else:
                originals[id(target.__traced__)] = target.__traced__
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if originals.get(id(value)) is value:
                missing.append(f"{mod.__name__}.{name}")
    return missing
