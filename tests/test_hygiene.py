"""Dead-code guard: unused top-level imports, imports inside functions,
unread parameters, unreferenced private names, and public functions,
methods and properties that no manifest reaches; a registration guard:
every process-lifetime memo is emptied before each test; and design
guards: verdicts and self-checks sample, rank and name failures only
through the condition engine, ``structures._judge``, and no literal
tolerance decides a check.

Every scan but one reads the package source with the standard-library
``ast`` module only, so it costs no import of the package itself.  The
reachability scan runs every bundled manifest through the CLI in a fresh
interpreter under ``sys.settrace``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import MEMOS

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "engelcalc"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including names inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    if path.name == "__init__.py":
        return  # the package's imports are its re-exports
    tree = _tree(path)
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    """Every import sits at module level, where the dependency graph shows."""
    nested = sorted(
        {
            inner.lineno
            for node in ast.walk(_tree(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )
    assert not nested, f"{path.name} imports inside functions at lines {nested}"


def _unread_parameters(tree: ast.Module):
    """(line, function, parameter) for each parameter its function never reads.

    ``self``, ``cls``, ``_``-prefixed names and dunder methods are exempt:
    ``ScalarExpr.__setattr__`` and ``__delattr__`` exist only to raise.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            inner.id
            for stmt in node.body
            for inner in ast.walk(stmt)
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
        }
        for param in params:
            if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                continue
            if param.arg not in read:
                yield param.lineno, node.name, param.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = [f"line {line}: {fn}({name})" for line, fn, name in _unread_parameters(_tree(path))]
    assert not unread, f"{path.name} has parameters their functions never read: {unread}"


def _decorator_name(node: ast.expr) -> str | None:
    """``cache`` for ``@cache`` and ``@functools.cache``, and so on."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _maxsize(call: ast.Call) -> list[ast.expr]:
    """The maxsize arguments of an ``lru_cache(...)`` call, positional or named."""
    return [*call.args[:1], *(k.value for k in call.keywords if k.arg == "maxsize")]


def _unbounded(decorator: ast.expr) -> bool:
    """``functools.cache``, or ``lru_cache`` with ``maxsize=None``."""
    name = _decorator_name(decorator)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = _maxsize(decorator)
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _unbounded_caches(tree: ast.Module):
    """(line, function) for each function of arguments under an unbounded cache."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        takes = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        if any(takes) and any(map(_unbounded, node.decorator_list)):
            yield node.lineno, node.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_cache_on_a_function_with_arguments(path):
    """A cache that outlives a run is bounded: an unbounded one may only
    memoize a function of no arguments, such as ``cli.build_parser``."""
    unbounded = [f"line {line}: {fn}" for line, fn in _unbounded_caches(_tree(path))]
    assert not unbounded, f"{path.name} caches functions of arguments without a bound: {unbounded}"


def test_the_unbounded_cache_scan_sees_every_spelling():
    source = """
@functools.cache
def a(x): ...
@cache
def b(*xs): ...
@lru_cache(maxsize=None)
def c(x): ...
@functools.lru_cache(None)
def d(*, x): ...
@functools.cache
def parser(): ...
@lru_cache(maxsize=64)
def e(x): ...
@lru_cache
def f(x): ...
"""
    assert [fn for _, fn in _unbounded_caches(ast.parse(source))] == ["a", "b", "c", "d"]


def _named_constant(node: ast.expr) -> bool:
    """``CAP``, ``_CAP`` or ``module.CAP``: an upper-case name, not a literal."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return isinstance(node, (ast.Name, ast.Attribute)) and name.lstrip("_").isupper()


def _literal_cache_sizes(tree: ast.Module):
    """(line, source) for each ``lru_cache`` whose maxsize is not a named
    constant, the bare decorator (a default of 128) included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if _decorator_name(decorator) == "lru_cache" and not isinstance(decorator, ast.Call):
                    yield decorator.lineno, ast.unparse(decorator)
        elif isinstance(node, ast.Call) and _decorator_name(node) == "lru_cache":
            sizes = _maxsize(node)
            if len(sizes) != 1 or not _named_constant(sizes[0]):
                yield node.lineno, ast.unparse(node)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_lru_cache_takes_its_size_from_a_named_constant(path):
    """One constant sizes the caches that share a purpose, so their bound
    is set, documented and tested in one place."""
    literal = [f"line {line}: {text}" for line, text in _literal_cache_sizes(_tree(path))]
    assert not literal, f"{path.name} sizes caches with literals: {literal}"


def test_the_cache_size_scan_sees_every_spelling():
    source = """
@lru_cache
def a(x): ...
@functools.lru_cache(maxsize=64)
def b(x): ...
@lru_cache(256, typed=True)
def c(x): ...
@lru_cache(maxsize=None)
def d(x): ...
@lru_cache()
def e(x): ...
f = lru_cache(maxsize=2 * CAP)(len)
@lru_cache(maxsize=CAP)
def g(x): ...
@functools.lru_cache(maxsize=_TABLE_CAP, typed=True)
def h(x): ...
@lru_cache(charts.MEMO_SIZE)
def i(x): ...
"""
    assert [line for line, _ in _literal_cache_sizes(ast.parse(source))] == [2, 4, 6, 8, 10, 12]


def _memo_sized(tree: ast.Module):
    """Names of the functions under an ``lru_cache`` sized by ``MEMO_SIZE``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if _decorator_name(decorator) != "lru_cache" or not isinstance(decorator, ast.Call):
                continue
            if any(_decorator_name(size) == "MEMO_SIZE" for size in _maxsize(decorator)):
                yield node.name


def test_every_memo_is_emptied_before_each_test():
    """A memo missing from ``conftest.MEMOS`` outlives the ``cold_tables``
    fixture, so one test's result could depend on the tests before it."""
    declared = {
        f"engelcalc.{path.stem}.{fn}" for path in MODULES for fn in _memo_sized(_tree(path))
    }
    assert declared == {f"{memo.__module__}.{memo.__qualname__}" for memo in MEMOS}


def test_the_memo_scan_sees_every_spelling():
    source = """
@lru_cache(maxsize=MEMO_SIZE)
def a(x): ...
@functools.lru_cache(MEMO_SIZE, typed=True)
def b(x): ...
@lru_cache(maxsize=charts.MEMO_SIZE)
def c(x): ...
@lru_cache(maxsize=_TABLE_CAP)
def d(x): ...
@lru_cache
def e(x): ...
@functools.cache
def f(): ...
"""
    assert list(_memo_sized(ast.parse(source))) == ["a", "b", "c"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _references(tree: ast.Module) -> set[str]:
    """Names read (not bound) anywhere in the module, or imported from another."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_module_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _private_definitions(tree).items()
        if private not in referenced
    ]
    assert not dead, f"private names no source file references: {dead}"


def _functions_using(tree: ast.Module, name: str):
    """Each top-level function and method ("fn", "Class.fn") whose body,
    nested functions included, calls ``name`` (plain or as an attribute) or
    holds the string ``name``."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(fn):
                called = inner.func if isinstance(inner, ast.Call) else None
                if (
                    isinstance(called, ast.Name) and called.id == name
                    or isinstance(called, ast.Attribute) and called.attr == name
                    or isinstance(inner, ast.Constant) and inner.value == name
                ):
                    yield fn.name if fn is node else f"{node.name}.{fn.name}"
                    break


def _package_functions_using(name: str) -> set[str]:
    return {f"{path.stem}.{fn}" for path in MODULES for fn in _functions_using(_tree(path), name)}


# The functions that sample a chart themselves, and why each may.  Every
# sampled verdict and self-check is a list of structures.Condition judged by
# structures._judge, so a new check that samples on its own fails here.
SAMPLERS = {
    # the condition engine: every verdict and every constructor's self-check
    "structures._judge",
    # the sampled minimum of an extension's angle function, a construction input
    "extension._sample_min",
    # base points of the development behind both twisting numbers
    "invariants._fiber_rotation",
    # the full sample, which every distinct sample set stands for
    "charts.sample_points",
}


def test_only_the_condition_engine_and_named_constructors_sample():
    assert _package_functions_using("distinct_samples") == SAMPLERS


# The functions that call expr.evaluate_many, and why each may.  Each makes
# one call per point set with every expression it needs there, so the one
# compiled program computes their shared subtrees once; a new loop that
# evaluates component by component fails here.
EVALUATORS = {
    # every item of a condition check: frames, witnesses, scales, pair members
    "structures._evaluate",
    # a field's components or a form's coefficients, at the caller's points
    "charts.VectorField.evaluate_at",
    "charts.KForm.evaluate_at",
    # both fields over the whole finite-difference stencil
    "charts.fd_lie_bracket",
    # both generators of a plane field, and both fields of its contact
    # frame at the base points, over one development pass
    "prolongation._raw_angles",
    "prolongation.ContactFrame.basis_at",
    # both coefficients of a symbolic line field
    "invariants.LegendrianLineField.tabulate",
    # the one angle function of an extension, a construction input
    "extension._sample_min",
    # a variable-free summand, at the empty point, while differentiating
    "expr._not_finite",
}


def test_every_evaluation_site_makes_one_call_per_point_set():
    assert _package_functions_using("evaluate_many") == EVALUATORS


def test_the_evaluator_scan_sees_every_spelling():
    source = """
def a(e, names, pts):
    return evaluate_many(e, names, pts)
def b(field, pts):
    return [ex.evaluate_many(c, field.chart.names, pts) for c in field.components]
class C:
    def c(self, pts):
        def inner(c):
            return ex.evaluate_many(c, self.chart.names, pts)
        return [inner(c) for c in self.components]
    def d(self):
        return {"evaluate_many": 1}
def e(evaluate_many):
    return evaluate_many
"""
    assert list(_functions_using(ast.parse(source), "evaluate_many")) == ["a", "b", "C.c", "C.d"]


# The functions that call structures._judge, and why each may.  A check
# judges all its conditions in one call, so each item is evaluated once per
# sample set; a symbolic constructor (structures.annihilator_1form) or a
# reader of a check's verdict (prolongation.fiber_characteristic_annihilator)
# that judged on its own would evaluate the check's inputs again.
JUDGES = {
    # one verdict each
    "structures.check_contact_3d",
    "structures.check_even_contact",
    "structures.check_engel_pair",
    "structures.check_engel_frame",
    "structures.check_twisting_condition",
    "structures.Distribution2.validate_rank",
    "prolongation.ContactFrame.validate",
    "extension.verify_extension_identities",
    # a fibred frame's ranks, its annihilator's self-check and the fiber's
    # characteristic conditions, gated on rank 3
    "structures.check_characteristic",
    # two calls: the volume density before the field that divides by it is
    # built, then the field's contraction identity
    "structures.characteristic_vector_field",
}


def test_only_the_named_checks_call_the_engine():
    assert _package_functions_using("_judge") == JUDGES


def test_verdicts_rank_and_name_failures_only_through_the_engine():
    assert _package_functions_using("_frame_ranks") == {"structures._judge"}
    assert _package_functions_using("sample_index") == {"structures._judge"}


def test_the_sampler_scan_sees_every_spelling():
    source = """
def a(chart, plan):
    return distinct_samples(chart, plan, ())
def b(chart, plan):
    return ch.distinct_samples(chart, plan, ())
class C:
    def c(self, plan):
        def inner():
            return distinct_samples(self.chart, plan, ())
        return inner()
    def d(self):
        return {"point": 0, "distinct_samples": 1}
def e(distinct_samples):
    return distinct_samples
"""
    assert list(_functions_using(ast.parse(source), "distinct_samples")) == ["a", "b", "C.c", "C.d"]


# Modules whose checks read their thresholds from structures.Tolerances.
DECIDING_MODULES = ("structures", "extension", "prolongation", "invariants")
_ROUNDINGS = ("floor", "ceil", "round")

# Float literals that are not whole numbers, and so are tolerances rather
# than exact constants (pi / 4.0, 1.0 + _GRAM_BAND), that a comparison or a
# rounding in those modules reads, and why each is not a Tolerances field.
LITERAL_THRESHOLDS = {
    # the slack of the range 0 < min g <= pi, and of the shift by a multiple
    # of pi that puts min g there: rounding of a sum with pi, not a tolerance
    ("extension.ExtensionSpec.angle_expression", 1e-12),
    # min g on pi only warns (BoundaryConventionWarning); it decides no verdict
    ("extension.ExtensionSpec.angle_expression", 1e-9),
    # the floor slack: a rotation a rounding error below a multiple of pi
    # floors up; the boundary itself is judged against INTEGER_TOLERANCE
    ("invariants.minimal_twisting_number", 1e-9),
}


def _literal_thresholds(tree: ast.Module, module: str):
    """("module.fn" or "module.Class.fn", value) for each float literal that
    is not a whole number inside a comparison or a floor, ceil or round
    call, at any depth of its operands."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = f"{module}.{fn.name}" if fn is node else f"{module}.{node.name}.{fn.name}"
            for inner in ast.walk(fn):
                deciding = isinstance(inner, ast.Compare) or (
                    isinstance(inner, ast.Call) and _decorator_name(inner.func) in _ROUNDINGS
                )
                if deciding:
                    for leaf in ast.walk(inner):
                        value = leaf.value if isinstance(leaf, ast.Constant) else None
                        if isinstance(value, float) and not value.is_integer():
                            yield name, value


def test_no_literal_tolerance_decides_a_check():
    found = {
        hit
        for module in DECIDING_MODULES
        for hit in _literal_thresholds(_tree(SRC / f"{module}.py"), module)
    }
    assert found == LITERAL_THRESHOLDS


def test_the_literal_threshold_scan_sees_every_spelling():
    source = """
def a(x, tol):
    return x > 1e-8 or x <= tol.zero * 1.0
def b(x):
    return math.floor(x + 1e-9) + round(x / 4.0)
class C:
    def c(self, x):
        if not 0.0 < x <= math.pi + 1e-12:
            return np.ceil(x - 0.5)
def d(x):
    y = x * 1e-9
    return y > 0
"""
    assert sorted(_literal_thresholds(ast.parse(source), "m")) == [
        ("m.C.c", 1e-12), ("m.C.c", 0.5), ("m.a", 1e-8), ("m.b", 1e-9)
    ]


# Public top-level functions, and public methods and properties of public
# package classes, that no bundled manifest calls, and why each stays.
UNREACHED_BY_FIXTURES = {
    # entry point of the installed ``engelcalc`` script; tests call cli.main
    "cli.entry",
    # recorded on every run of perfbench/run.py
    "_kernels.active_backend",
    # inputs of the normal-form task planned in ROADMAP open item 2
    "prolongation.deprolong",
    "structures.characteristic_vector_field",
    "structures.check_twisting_condition",
    "invariants.induced_legendrian_line",
    "invariants.line_angle_distance",
    "charts.one_form_to_text",
    "charts.volume_form",
    # reached only by deprolong (above), which restricts its form to a section
    "expr.substitute",
    # looked up by name by perfbench/tracer.py, which wraps it as a check span
    "structures.Distribution2.validate_rank",
    # read only by Distribution2.validate_rank and by tests
    "structures.Distribution2.frame",
    # reached only through KForm.__sub__ in characteristic_vector_field (above)
    "charts.KForm.scaled_by",
    # the condition engine evaluates forms through their components; this is
    # looked up by name by perfbench/tracer.py, and tests evaluate forms with it
    "charts.KForm.evaluate_at",
    # line fields of induced_legendrian_line (above), for ROADMAP open item 2
    "invariants.LegendrianLineField.symbolic",
    "invariants.LegendrianLineField.tabulate",
}

# Runs in a fresh interpreter, so no cache warmed by an earlier test (such as
# expr.compile_program's) hides a call.  Prints the "module.name" of every
# top-level function, and the "module.Class.name" of every method and
# property getter of a package class, whose code ran.
_TRACE_RUN = """
import importlib, inspect, json, sys, tempfile
from pathlib import Path

src, manifests = Path(sys.argv[1]), sorted(Path(sys.argv[2]).glob("*.manifest"))
from engelcalc.cli import main

ran = set()

def tracer(frame, event, arg):
    ran.add(frame.f_code)

with tempfile.TemporaryDirectory() as tmp:
    sys.settrace(tracer)
    try:
        for manifest in manifests:
            for command in ("verify", "invariant", "construct"):
                out = ["--out", tmp + "/out.manifest"] if command == "construct" else []
                main([command, str(manifest), "--report", tmp + "/report.json", *out])
    finally:
        sys.settrace(None)

def ran_code(obj):
    fn = obj.fget if isinstance(obj, property) else obj
    fn = inspect.unwrap(fn) if callable(fn) else None
    return inspect.isfunction(fn) and fn.__code__ in ran

reached = []
for path in sorted(src.glob("*.py")):
    module = importlib.import_module("engelcalc." + path.stem)
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if ran_code(obj):
            reached.append(path.stem + "." + name)
        if inspect.isclass(obj):
            reached += [f"{path.stem}.{name}.{attr}" for attr, member in vars(obj).items()
                        if ran_code(member)]
print(json.dumps(reached))
"""


def _public_functions() -> set[str]:
    """Public top-level functions, and public methods and properties of
    public top-level classes, as "module.name" and "module.Class.name"."""
    names = set()
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names.update(
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return names


def test_every_public_function_is_reached_by_a_manifest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _TRACE_RUN, str(SRC), str(REPO / "manifests")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    reached = set(json.loads(run.stdout))
    public = _public_functions()
    unreached = sorted(public - reached - UNREACHED_BY_FIXTURES)
    assert not unreached, f"public functions and methods no manifest reaches: {unreached}"
    stale = sorted(UNREACHED_BY_FIXTURES - public)
    assert not stale, f"allowlisted names that are no longer defined: {stale}"
    now_reached = sorted(UNREACHED_BY_FIXTURES & reached)
    assert not now_reached, f"allowlisted names that a manifest now reaches: {now_reached}"
