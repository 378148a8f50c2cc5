"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of every engelcalc module (and a few
public methods that carry real work) by rebinding them in every module
that holds a reference, and restores them afterwards.  Nothing under
``src/`` changes.

Each wrapped call is a span on one stack.  A span's self time is its
duration minus the durations of the spans it directly contains, so the
self times of one request add up to the time the spans cover.  Functions
that the per-layer metrics name always open a span; any other public
function opens a span (of layer ``<module>.other``) only when called from
outside its own module, so helpers such as ``to_text`` inside ``simplify``
count as simplify's own work.

Counts are taken at the same boundaries: calls, points evaluated, points
sampled and matrices ranked.  For ``simplify`` and ``lie_bracket`` the
tracer also hashes each input to measure how many inputs repeat within a
request and across requests; that hashing, like all bookkeeping done
after a call returns, is excluded from every span and reported as tracer
overhead.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "engelcalc"
MODULES = (
    "expr",
    "_kernels",
    "charts",
    "structures",
    "prolongation",
    "invariants",
    "extension",
    "manifest",
    "runner",
    "report",
    "cli",
)

# (module, function) -> layer, for the functions the metrics name.
NAMED = {
    ("manifest", "parse_manifest"): "manifest.parse_manifest",
    ("manifest", "materialize"): "manifest.materialize",
    ("expr", "simplify"): "expr.simplify",
    ("expr", "partial_derivative"): "expr.partial_derivative",
    ("expr", "compile_program"): "expr.compile_program",
    ("expr", "evaluate_many"): "expr.evaluate_many",
    ("_kernels", "run_program"): "kernels.run_program",
    ("charts", "lie_bracket"): "charts.lie_bracket",
    ("charts", "wedge"): "charts.wedge",
    ("charts", "exterior_derivative"): "charts.exterior_derivative",
    ("charts", "fd_lie_bracket"): "charts.fd_lie_bracket",
    ("charts", "sample_points"): "charts.sample_points",
    ("structures", "matrix_ranks"): "structures.matrix_ranks",
    ("structures", "check_contact_3d"): "structures.checks",
    ("structures", "check_even_contact"): "structures.checks",
    ("structures", "check_engel_pair"): "structures.checks",
    ("structures", "check_engel_frame"): "structures.checks",
    ("structures", "check_characteristic"): "structures.checks",
    ("structures", "derived_square"): "structures.checks",
    ("structures", "annihilator_1form"): "structures.checks",
    ("structures", "Distribution2.validate_rank"): "structures.checks",
    ("prolongation", "ContactFrame.validate"): "structures.checks",
    ("prolongation", "prolong"): "prolongation.prolong",
    ("prolongation", "development_profile"): "prolongation.development_profile",
    ("invariants", "twisting_number"): "invariants.twisting_number",
    ("invariants", "minimal_twisting_number"): "invariants.minimal_twisting_number",
    ("extension", "extend"): "extension.extend",
    ("extension", "verify_extension_identities"): "extension.verify_extension_identities",
    ("extension", "extend_family"): "extension.extend_family",
    ("runner", "run_tasks"): "runner.run_tasks",
    ("report", "emit_report"): "report.emit_report",
    ("cli", "main"): "cli.main",
}

# Public methods that do numeric or symbolic work; other methods are
# accessors and stay unwrapped.
METHODS = (
    ("charts", "VectorField.evaluate_at"),
    ("charts", "KForm.evaluate_at"),
    ("structures", "Distribution2.validate_rank"),
    ("prolongation", "ContactFrame.validate"),
    ("prolongation", "ContactFrame.basis_at"),
    ("invariants", "LegendrianLineField.tabulate"),
    ("extension", "ExtensionSpec.angle_expression"),
)

# The per-layer metrics, all per request: (name, unit, better).  ``.ms`` is
# self time; ``<module>.other`` holds the module's remaining public
# functions; ``unattributed.ms`` is request wall time that no span covers;
# ``trace.bookkeeping.ms`` is the tracer's own counting and hashing, and
# ``trace.overhead.ms`` (filled in by run.py) is the traced minus the
# untraced median request time.
PER_LAYER = (
    ("manifest.parse_manifest.ms", "ms", "lower"),
    ("manifest.materialize.ms", "ms", "lower"),
    ("manifest.other.ms", "ms", "lower"),
    ("expr.simplify.ms", "ms", "lower"),
    ("expr.simplify.calls", "count", "lower"),
    ("expr.simplify.distinct_ratio", "ratio", "lower"),
    ("expr.simplify.cross_request_repeat_ratio", "ratio", "higher"),
    ("expr.partial_derivative.ms", "ms", "lower"),
    ("expr.partial_derivative.calls", "count", "lower"),
    ("expr.compile_program.ms", "ms", "lower"),
    ("expr.compile_program.calls", "count", "lower"),
    ("expr.compile_program.hit_ratio", "ratio", "higher"),
    ("expr.evaluate_many.ms", "ms", "lower"),
    ("expr.evaluate_many.calls", "count", "lower"),
    ("expr.evaluate_many.points", "count", "lower"),
    ("expr.other.ms", "ms", "lower"),
    ("kernels.run_program.ms", "ms", "lower"),
    ("charts.lie_bracket.ms", "ms", "lower"),
    ("charts.lie_bracket.calls", "count", "lower"),
    ("charts.lie_bracket.distinct_ratio", "ratio", "lower"),
    ("charts.wedge.ms", "ms", "lower"),
    ("charts.exterior_derivative.ms", "ms", "lower"),
    ("charts.fd_lie_bracket.ms", "ms", "lower"),
    ("charts.sample_points.ms", "ms", "lower"),
    ("charts.sample_points.points", "count", "lower"),
    ("charts.other.ms", "ms", "lower"),
    ("structures.matrix_ranks.ms", "ms", "lower"),
    ("structures.matrix_ranks.matrices", "count", "lower"),
    ("structures.checks.ms", "ms", "lower"),
    ("structures.other.ms", "ms", "lower"),
    ("prolongation.prolong.ms", "ms", "lower"),
    ("prolongation.development_profile.ms", "ms", "lower"),
    ("prolongation.development_profile.calls", "count", "lower"),
    ("prolongation.other.ms", "ms", "lower"),
    ("invariants.twisting_number.ms", "ms", "lower"),
    ("invariants.minimal_twisting_number.ms", "ms", "lower"),
    ("invariants.other.ms", "ms", "lower"),
    ("extension.extend.ms", "ms", "lower"),
    ("extension.verify_extension_identities.ms", "ms", "lower"),
    ("extension.extend_family.ms", "ms", "lower"),
    ("extension.other.ms", "ms", "lower"),
    ("runner.run_tasks.ms", "ms", "lower"),
    ("report.emit_report.ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
    ("unattributed.ms", "ms", "lower"),
    ("trace.bookkeeping.ms", "ms", "lower"),
    ("trace.overhead.ms", "ms", "lower"),
)

# Layers whose inputs are hashed to measure sharing: layer -> input key, or
# None for an input that is not counted.  A single constant or variable
# costs nothing to simplify and repeats in every workload (the derivative
# of any constant is 0), so the sharing ratios count compound trees only.
_LEAVES = ("Constant", "NamedConstant", "Variable")
_KEYED = {
    "expr.simplify": lambda args, kwargs: (
        None if type(args[0]).__name__ in _LEAVES else hash(args[0])
    ),
    "charts.lie_bracket": lambda args, kwargs: hash((args[0], args[1])),
}


def _points_in(args, kwargs):
    points = args[2] if len(args) > 2 else kwargs["points"]
    return len(points)


class _Span:
    __slots__ = ("module", "start", "children")

    def __init__(self, module: str, start: float):
        self.module = module
        self.start = start
        self.children = 0.0


class Tracer:
    """Installs span wrappers and accumulates per-layer totals per request."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.overhead_s = 0.0
        self.requests = 0
        self.wall_s = 0.0
        self._request_keys: dict[str, set] = {layer: set() for layer in _KEYED}
        self._seen_keys: dict[str, set] = {layer: set() for layer in _KEYED}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def _targets(self):
        for module_name in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                layer = NAMED.get((module_name, name), f"{module_name.lstrip('_')}.other")
                yield module_name, None, name, obj, layer
        for module_name, qualname in METHODS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            layer = NAMED.get((module_name, qualname), f"{module_name.lstrip('_')}.other")
            yield module_name, cls, meth, cls.__dict__[meth], layer

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._compile_program = importlib.import_module(f"{PACKAGE}.expr").compile_program
        self._cache_start = self._compile_program.cache_info()
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module_name, cls, name, original, layer in list(self._targets()):
            wrapper = self._wrap(original, layer, module_name, layer in NAMED.values())
            if cls is not None:
                self._restore.append((cls, name, original))
                setattr(cls, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, layer: str, module: str, named: bool):
        stack = self.stack
        clock = time.perf_counter
        key_of = _KEYED.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not named and stack and stack[-1].module == module:
                return fn(*args, **kwargs)
            span = _Span(module, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span.start
                tracer.self_s[layer] += duration - span.children
                tracer.counts[layer + ".calls"] += 1
                if stack:
                    stack[-1].children += duration
            tracer._count(layer, args, kwargs, result, key_of, end)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count(self, layer, args, kwargs, result, key_of, end) -> None:
        if layer == "expr.evaluate_many":
            self.counts["expr.evaluate_many.points"] += _points_in(args, kwargs)
        elif layer == "charts.sample_points":
            self.counts["charts.sample_points.points"] += len(result)
        elif layer == "structures.matrix_ranks":
            self.counts["structures.matrix_ranks.matrices"] += len(args[0])
        elif key_of is not None and (key := key_of(args, kwargs)) is not None:
            self.counts[layer + ".inputs"] += 1
            if key in self._seen_keys[layer]:
                self.counts[layer + ".repeats"] += 1
            self._request_keys[layer].add(key)
        spent = time.perf_counter() - end
        self.overhead_s += spent
        if self.stack:
            self.stack[-1].children += spent

    # -- requests ------------------------------------------------------

    def end_request(self, wall_s: float) -> None:
        """Close one request: fold its distinct inputs into the run's history."""
        self.requests += 1
        self.wall_s += wall_s
        for layer, keys in self._request_keys.items():
            self.counts[layer + ".distinct"] += len(keys)
            self._seen_keys[layer] |= keys
            keys.clear()

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric, per request, over the requests traced so far."""
        n = max(self.requests, 1)
        out = {}
        for name, _unit, _better in PER_LAYER:
            layer, _, what = name.rpartition(".")
            if what == "ms" and not name.startswith(("trace.", "unattributed.")):
                out[name] = 1000.0 * self.self_s.get(layer, 0.0) / n
            elif what in ("calls", "points", "matrices"):
                out[name] = self.counts[name] / n
        for layer in _KEYED:
            inputs = self.counts[layer + ".inputs"] or 1
            out[layer + ".distinct_ratio"] = self.counts[layer + ".distinct"] / inputs
            out[layer + ".cross_request_repeat_ratio"] = self.counts[layer + ".repeats"] / inputs
        info = self._compile_program.cache_info()
        hits = info.hits - self._cache_start.hits
        misses = info.misses - self._cache_start.misses
        out["expr.compile_program.hit_ratio"] = hits / ((hits + misses) or 1)
        covered = sum(self.self_s.values()) + self.overhead_s
        out["unattributed.ms"] = 1000.0 * (self.wall_s - covered) / n
        out["trace.bookkeeping.ms"] = 1000.0 * self.overhead_s / n
        return {name: out[name] for name, _unit, _better in PER_LAYER if name in out}
