"""Coordinate charts, vector fields, differential forms, and their calculus.

Charts model trivialized products (boxes in R^3/R^4, tori, cylinders):
named coordinates with a sampling interval each, and optional periodicity.
Forms are stored sparsely over strictly increasing index tuples; all sign
bookkeeping happens in ``wedge``/``interior_product``.

The builders emit no zero terms: brackets, contractions, scalings and sums
leave out (and brackets do not differentiate) the terms of a component that
simplifies to 0; the other terms keep their order.

Brackets are pure functions of frozen, hashable operands, so ``lie_bracket``
remembers its last ``MEMO_SIZE`` results for the process.  Exterior
derivatives, wedges and contractions are not memoized: the expression
tables already remember the simplified coefficients they are built from.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import expr as ex
from .expr import ScalarExpr, as_expr, simplify


class GeometryError(ValueError):
    """Base class for chart/field/form failures."""


class ChartMismatchError(GeometryError):
    pass


class DimensionError(GeometryError):
    pass


@dataclass(frozen=True, slots=True)
class CoordinateAxis:
    name: str
    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not self.hi > self.lo:
            raise GeometryError(
                f"axis '{self.name}' needs hi > lo, got [{self.lo}, {self.hi}]"
            )

    @property
    def period(self) -> float:
        # periodic axes sample one full period [lo, hi)
        return self.hi - self.lo


@dataclass(frozen=True, slots=True)
class Chart:
    axes: tuple[CoordinateAxis, ...]
    fiber: str | None = None
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)  # set once
    name_set: frozenset[str] = field(init=False, repr=False, compare=False)  # set once
    # each axis's (lo, hi, periodic): all that sampling reads, names aside
    box: tuple[tuple[float, float, bool], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        names = tuple(a.name for a in self.axes)
        if len(set(names)) != len(names):
            raise GeometryError(f"coordinate names must be distinct: {list(names)}")
        if not 3 <= len(names) <= 4:
            raise DimensionError(f"chart dimension must be 3 or 4, got {len(names)}")
        if self.fiber is not None and self.fiber not in names:
            raise GeometryError(f"fiber '{self.fiber}' is not a coordinate")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "name_set", frozenset(names))
        object.__setattr__(self, "box", tuple((a.lo, a.hi, a.periodic) for a in self.axes))

    @property
    def dim(self) -> int:
        return len(self.axes)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GeometryError(f"no coordinate '{name}' on this chart") from None

    def axis(self, name: str) -> CoordinateAxis:
        return self.axes[self.index(name)]

    def parse(self, text: str) -> ScalarExpr:
        return ex.parse_scalar_expr(text, self.names)


def product_chart(
    base: Chart, name: str, lo: float, hi: float, periodic: bool = False
) -> Chart:
    """Append a fiber coordinate to a 3-chart."""
    if base.dim != 3:
        raise DimensionError("product charts extend a 3-dimensional base")
    if name in base.names:
        raise GeometryError(f"fiber name '{name}' collides with a base coordinate")
    return Chart(base.axes + (CoordinateAxis(name, lo, hi, periodic),), fiber=name)


def base_chart_of(chart: Chart) -> Chart:
    """Drop the fiber axis of a product chart."""
    if chart.fiber is None:
        raise GeometryError("chart has no fiber coordinate")
    axes = tuple(a for a in chart.axes if a.name != chart.fiber)
    return Chart(axes, fiber=None)


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True, slots=True)
class SamplePlan:
    """Deterministic grid plus seeded uniform-random points."""

    grid: int | tuple[int, ...] = 5
    random: int = 0
    seed: int = 0

    def __post_init__(self):
        res = self.grid if isinstance(self.grid, tuple) else (self.grid,)
        if any(int(r) < 2 for r in res):
            raise GeometryError("grid resolutions must be >= 2")
        if self.random < 0:
            raise GeometryError("random count must be >= 0")
        if self.seed < 0:
            raise GeometryError("seed must be >= 0")

    def resolutions(self, dim: int) -> tuple[int, ...]:
        if isinstance(self.grid, tuple):
            if len(self.grid) != dim:
                raise GeometryError(
                    f"grid tuple has {len(self.grid)} entries for a {dim}-chart"
                )
            return self.grid
        return (self.grid,) * dim


# Rows one sample set may hold: 2^19 * 40 bytes (four coordinates and a
# row number) = 20 MiB on a 4-chart.
MAX_SAMPLE_ROWS = 1 << 19

# Rows the sample cache holds in all: 2^14 * 40 bytes = 640 KiB of arrays.
# Each set also keeps about 1.0 KB of key (the box's bounds) and array
# headers alive (tracemalloc, 4-axis charts), so 2^14 one-row sets on
# distinct boxes, the worst case, hold about 17 MB.
SAMPLE_CACHE_ROWS = 1 << 14

# (chart box, plan, read axes) -> read-only (points, rows), least recently
# used first, and the rows it holds.  Sample sets are input data, the same
# for every run of the process.  The key holds each axis's (lo, hi,
# periodic) and not its name, since the points depend on nothing else: a
# chart with renamed coordinates or fiber shares the sets of the original.
_samples: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_sample_rows = 0


def sample_points(chart: Chart, plan: SamplePlan) -> np.ndarray:
    """Ordered sample array of shape (n, dim): grid rows first, then random.

    The array is shared by every caller with the same box and plan, whatever
    the coordinates are named, and is read-only.
    """
    return distinct_samples(chart, plan, chart.names)[0]


def distinct_samples(
    chart: Chart, plan: SamplePlan, names
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of :func:`sample_points` that a check reading only the
    coordinates ``names`` needs, and their row numbers there.

    The points are the grid over the axes in ``names``, every other axis at
    its first grid value, then every random row; when ``names`` holds no
    coordinate, row 0 alone stands for every row.  The row numbers are
    strictly increasing, and each sample row has one of these rows at or
    before it with the same coordinates in ``names``.  So min, max, all and
    the first index of an argmin or argmax over values that depend only on
    those coordinates agree with the full sample, once mapped through the
    row numbers.

    Both arrays are read-only and cached for the process, up to
    ``SAMPLE_CACHE_ROWS`` rows in all.  A set of more than
    ``MAX_SAMPLE_ROWS`` rows is a :class:`GeometryError`, raised before
    anything is allocated.
    """
    global _sample_rows
    read = tuple(n in names for n in chart.names)
    key = (chart.box, plan, read)
    found = _samples.get(key)
    if found is not None:
        _samples.move_to_end(key)
        return found
    found = _samples[key] = _build_samples(chart, plan, read)
    _sample_rows += len(found[1])
    while _sample_rows > SAMPLE_CACHE_ROWS:
        _sample_rows -= len(_samples.popitem(last=False)[1][1])
    return found


def _build_samples(
    chart: Chart, plan: SamplePlan, read: tuple[bool, ...]
) -> tuple[np.ndarray, np.ndarray]:
    res = plan.resolutions(chart.dim)
    shape = tuple(r if along else 1 for r, along in zip(res, read))
    count = math.prod(shape)
    if count + plan.random > MAX_SAMPLE_ROWS:
        raise GeometryError(
            f"{plan} needs {count + plan.random} sample rows,"
            f" more than the {MAX_SAMPLE_ROWS} a sample set may hold"
        )
    total = math.prod(res) + plan.random
    if total > np.iinfo(np.intp).max:
        raise GeometryError(
            f"{plan} has {total} sample rows on a {chart.dim}-chart, too many to number"
        )
    # values that read no coordinate are one constant: row 0 stands for all
    extra = plan.random if any(read) else 0
    pts = np.empty((count + extra, chart.dim))
    rows = np.zeros(count + extra, dtype=np.intp)
    grid = pts[:count].reshape(shape + (chart.dim,))
    grid_rows = rows[:count].reshape(shape)
    stride = 1  # of axis i in the full grid
    for i in reversed(range(chart.dim)):
        # an unread axis keeps its first grid value, lo + 0 * step, which a
        # 2-point line gives bit for bit at any resolution
        line = _grid_line(chart.axes[i], res[i] if read[i] else 2)[: shape[i]]
        along = [1] * chart.dim
        along[i] = -1
        grid[..., i] = line.reshape(along)
        grid_rows += stride * np.arange(shape[i]).reshape(along)
        stride *= res[i]
    if extra > 0:
        pts[count:] = random_points(chart, extra, plan.seed)
        rows[count:] = stride + np.arange(extra)
    pts.flags.writeable = False
    rows.flags.writeable = False
    return pts, rows


def _grid_line(axis: CoordinateAxis, r: int) -> np.ndarray:
    """The r grid values of an axis: inclusive, or one half-open period."""
    if axis.periodic:
        return axis.lo + axis.period * np.arange(r) / r
    return np.linspace(axis.lo, axis.hi, r)


def variables_of(*items) -> frozenset[str]:
    """The variables that the given vector fields, forms and scalars read."""
    exprs = []
    for item in items:
        if isinstance(item, VectorField):
            exprs.extend(item.components)
        elif isinstance(item, KForm):
            exprs.extend(c for _, c in item.terms)
        else:
            exprs.append(item)
    return frozenset().union(*map(ex.free_variables, exprs))


def random_points(chart: Chart, count: int, seed: int) -> np.ndarray:
    """``count`` uniform points of the chart's box, shape (count, dim),
    drawn from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    lo = np.array([a.lo for a in chart.axes])
    hi = np.array([a.hi for a in chart.axes])
    return lo + (hi - lo) * rng.random((count, chart.dim))


def require_finite(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Return ``values`` (one row per point) if every entry is finite.

    Otherwise raise a :class:`GeometryError` naming the first sample point
    with a non-finite value, before any rank or norm is taken of it.
    """
    finite = np.isfinite(values)
    if not finite.all():
        rows = finite.reshape(len(values), -1).all(axis=1)
        idx = int(np.argmin(rows))
        raise GeometryError(f"non-finite value at sample point {points[idx].tolist()}")
    return values


def _nonzero(c: ScalarExpr) -> bool:
    return not ex.is_zero(simplify(c))


# ---------------------------------------------------------------------------
# vector fields


@dataclass(frozen=True, slots=True)
class VectorField:
    chart: Chart
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        comps = tuple(as_expr(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.chart.dim:
            raise GeometryError(
                f"field needs {self.chart.dim} components, got {len(comps)}"
            )
        allowed = self.chart.name_set
        for c in comps:
            used = ex.free_variables(c)
            if not used <= allowed:
                raise GeometryError(f"component uses unknown variables {sorted(used - allowed)}")

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """(n, dim) components at the points: the transpose of one
        component-major evaluation."""
        values = ex.evaluate_many(self.components, self.chart.names, points)
        return require_finite(values.T, points)

    def scaled_by(self, factor) -> "VectorField":
        f = as_expr(factor)
        comps = (simplify(ex.Multiply(f, c)) if _nonzero(c) else ex.ZERO for c in self.components)
        return VectorField(self.chart, tuple(comps))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(
                simplify(b if not _nonzero(a) else a if not _nonzero(b) else ex.Add(a, b))
                for a, b in zip(self.components, other.components)
            ),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        pairs = zip(self.components, other.components)
        return VectorField(self.chart, tuple(simplify(ex.Subtract(a, b)) for a, b in pairs))


def vector_field(chart: Chart, components: Sequence) -> VectorField:
    comps = tuple(
        chart.parse(c) if isinstance(c, str) else as_expr(c) for c in components
    )
    return VectorField(chart, comps)


def coordinate_field(chart: Chart, name: str) -> VectorField:
    i = chart.index(name)
    comps = tuple(ex.ONE if j == i else ex.ZERO for j in range(chart.dim))
    return VectorField(chart, comps)


def lift_to_product(field: VectorField, chart: Chart) -> VectorField:
    """Reinterpret a base-chart field on a product chart (zero fiber part)."""
    if chart.fiber is None:
        raise GeometryError("target chart has no fiber coordinate")
    base_names = tuple(n for n in chart.names if n != chart.fiber)
    if field.chart.names != base_names:
        raise ChartMismatchError(
            f"field coordinates {field.chart.names} do not match base {base_names}"
        )
    comp_by_name = dict(zip(field.chart.names, field.components))
    comps = tuple(
        comp_by_name[n] if n != chart.fiber else ex.ZERO for n in chart.names
    )
    return VectorField(chart, comps)


def _require_same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError("operands live on different charts")


# ---------------------------------------------------------------------------
# differential forms


@dataclass(frozen=True, slots=True)
class KForm:
    chart: Chart
    degree: int
    terms: tuple[tuple[tuple[int, ...], ScalarExpr], ...] = ()
    # a parsed 1-form's text, each d<coord> set to 1, for the domain check
    written: ScalarExpr | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0 <= self.degree <= self.chart.dim:
            raise DimensionError(
                f"degree {self.degree} invalid on a {self.chart.dim}-chart"
            )
        cleaned = []
        seen = set()
        for key, coeff in self.terms:
            key = tuple(int(i) for i in key)
            if len(key) != self.degree:
                raise GeometryError(f"index tuple {key} has wrong length")
            if any(not 0 <= i < self.chart.dim for i in key):
                raise GeometryError(f"index tuple {key} out of range")
            if any(a >= b for a, b in zip(key, key[1:])):
                raise GeometryError(f"index tuple {key} must be strictly increasing")
            if key in seen:
                raise GeometryError(f"duplicate index tuple {key}")
            seen.add(key)
            coeff = as_expr(coeff)
            if not ex.is_zero(coeff):
                cleaned.append((key, coeff))
        cleaned.sort(key=lambda kv: kv[0])
        object.__setattr__(self, "terms", tuple(cleaned))

    def coeff(self, key: tuple[int, ...]) -> ScalarExpr:
        for k, c in self.terms:
            if k == tuple(key):
                return c
        return ex.ZERO

    def all_keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.combinations(range(self.chart.dim), self.degree))

    @property
    def components(self) -> tuple[ScalarExpr, ...]:
        """Coefficients over the full increasing-key list, 0 where no term is."""
        return tuple(self.coeff(key) for key in self.all_keys())

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Coefficient matrix (n, n_keys) over the full increasing-key list:
        the transpose of one component-major evaluation."""
        values = ex.evaluate_many(self.components, self.chart.names, points)
        return require_finite(values.T, points)

    def scaled_by(self, factor) -> "KForm":
        f = as_expr(factor)
        return KForm(
            self.chart,
            self.degree,
            tuple((k, simplify(ex.Multiply(f, c))) for k, c in self.terms),
        )

    def __add__(self, other: "KForm") -> "KForm":
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise DimensionError("cannot add forms of different degree")
        return _collected(self.chart, self.degree, (*self.terms, *other.terms))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scaled_by(-1.0)


def volume_form(chart: Chart, density=1.0) -> KForm:
    key = tuple(range(chart.dim))
    return KForm(chart, chart.dim, (((key), as_expr(density)),))


# ---------------------------------------------------------------------------
# exterior calculus

# Results each memo of a pure symbolic constructor keeps for the process:
# lie_bracket below, manifest.parse_manifest, prolongation.prolong,
# prolongation.fiber_characteristic_annihilator (a constructor whose check
# is reported nowhere) and prolongation._generator_and_rate.  Their keys and
# results are immutable, so a hit hands every caller one shared object.
# None of them warns, so a hit drops no note from a report, and an exception
# is never stored.  The 15 bundled manifests under every command need 15
# parses and 58 entries across the other four memos.
MEMO_SIZE = 1 << 7


@lru_cache(maxsize=MEMO_SIZE)
def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = sum_j X^j d_j Y^i - Y^j d_j X^i, simplified; a term with
    a zero factor X^j or Y^j is left out without differentiating."""
    _require_same_chart(x, y)
    names = x.chart.names
    x_live, y_live = ([_nonzero(c) for c in f.components] for f in (x, y))

    def term(f: VectorField, live: list, j: int, b: ScalarExpr) -> ScalarExpr | None:
        """f^j * d_j b, or None where it is 0."""
        if not live[j]:
            return None
        d = ex.partial_derivative(b, names[j])
        return None if ex.is_zero(d) else ex.Multiply(f.components[j], d)

    comps = []
    for i in range(x.chart.dim):
        acc: ScalarExpr = ex.ZERO
        for j in range(x.chart.dim):
            p = term(x, x_live, j, y.components[i])
            q = term(y, y_live, j, x.components[i])
            if q is not None:
                p = ex.Negate(q) if p is None else ex.Subtract(p, q)
            if p is not None:
                acc = ex.Add(acc, p)
        comps.append(simplify(acc))
    return VectorField(x.chart, tuple(comps))


def fd_lie_bracket(
    x: VectorField, y: VectorField, points: np.ndarray, h: float
) -> np.ndarray:
    """(n, dim) bracket at n points with every partial replaced by a central
    difference of step h; both fields at all 2*dim + 1 stencil rows per
    point are evaluated in one call.

    Independent numeric oracle for :func:`lie_bracket`; second-order in h.
    """
    _require_same_chart(x, y)
    if h <= 0:
        raise GeometryError("finite-difference step must be positive")
    p = np.asarray(points, dtype=float)
    n, dim = p.shape
    # rows 2j and 2j+1 step coordinate j by +h and -h; the last row is p
    stencil = np.repeat(p[:, None, :], 2 * dim + 1, axis=1)
    j = np.arange(dim)
    stencil[:, 2 * j, j] += h
    stencil[:, 2 * j + 1, j] -= h
    rows = stencil.reshape(-1, dim)
    values = ex.evaluate_many((*x.components, *y.components), x.chart.names, rows)
    # X is checked before Y; the sums below run over point-major copies, since
    # numpy's summation order, and so the rounding, follows the memory layout
    xv, yv = (
        np.ascontiguousarray(require_finite(v.T, rows)).reshape(n, 2 * dim + 1, dim)
        for v in (values[:dim], values[dim:])
    )
    # [n, j, i] = d_j of component i
    dx = (xv[:, 0:-1:2] - xv[:, 1::2]) / (2 * h)
    dy = (yv[:, 0:-1:2] - yv[:, 1::2]) / (2 * h)
    return np.sum(xv[:, -1, :, None] * dy - yv[:, -1, :, None] * dx, axis=1)


def _collected(chart: Chart, degree: int, terms) -> KForm:
    """The form whose coefficient at each key is the simplified sum of the
    (key, term) pairs given for it, added in the order given."""
    acc: dict[tuple[int, ...], ScalarExpr] = {}
    for key, term in terms:
        acc[key] = ex.Add(acc[key], term) if key in acc else term
    return KForm(chart, degree, tuple((k, simplify(c)) for k, c in acc.items()))


def exterior_derivative(form: KForm) -> KForm:
    if form.degree >= form.chart.dim:
        raise DimensionError("exterior derivative would exceed the chart dimension")
    names = form.chart.names

    def terms():
        for key, coeff in form.terms:
            for j in range(form.chart.dim):
                if j in key:
                    continue
                d = ex.partial_derivative(coeff, names[j])
                if ex.is_zero(d):
                    continue
                sign, newkey = _merge_sign((j,), key)
                yield newkey, d if sign > 0 else ex.Negate(d)

    return _collected(form.chart, form.degree + 1, terms())


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign of sorting the concatenation a+b; None if they overlap."""
    if set(a) & set(b):
        return None
    sign = 1
    merged = list(a)
    for i in b:
        pos = 0
        while pos < len(merged) and merged[pos] < i:
            pos += 1
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, i)
    return sign, tuple(merged)


def wedge(a: KForm, b: KForm) -> KForm:
    _require_same_chart(a, b)
    if a.degree + b.degree > a.chart.dim:
        raise DimensionError("wedge degree exceeds the chart dimension")

    def terms():
        for ka, ca in a.terms:
            for kb, cb in b.terms:
                merged = _merge_sign(ka, kb)
                if merged is None:
                    continue
                sign, key = merged
                term = ex.Multiply(ca, cb)
                yield key, term if sign > 0 else ex.Negate(term)

    return _collected(a.chart, a.degree + b.degree, terms())


def interior_product(x: VectorField, form: KForm) -> KForm:
    """Contraction in the first slot."""
    _require_same_chart(x, form)
    if form.degree < 1:
        raise DimensionError("interior product needs degree >= 1")

    def terms():
        for key, coeff in form.terms:
            for pos, i in enumerate(key):
                if not _nonzero(x.components[i]):
                    continue
                term = ex.Multiply(x.components[i], coeff)
                yield key[:pos] + key[pos + 1 :], ex.Negate(term) if pos % 2 else term

    return _collected(form.chart, form.degree - 1, terms())


def lie_derivative_form(x: VectorField, form: KForm) -> KForm:
    """Cartan formula: X . d(form) + d(X . form)."""
    _require_same_chart(x, form)
    return interior_product(x, exterior_derivative(form)) + exterior_derivative(
        interior_product(x, form)
    )


def parse_one_form(chart: Chart, text: str) -> KForm:
    """Parse 1-form syntax like ``dy - z*dx`` or ``cos(z)*dx - sin(z)*dy``.

    The differentials ``d<coord>`` act as extra identifiers.  Coefficient i
    is the derivative in ``d<coord_i>``; the residual e - sum d<coord_i> c_i
    must cancel, and is a scalar part when it reads no differential.
    """
    dnames = tuple("d" + n for n in chart.names)
    if set(dnames) & set(chart.names):
        raise GeometryError("coordinate names collide with differential names")
    e = ex.parse_scalar_expr(text, set(chart.names) | set(dnames))
    coeffs = [ex.partial_derivative(e, dn) for dn in dnames]
    residual = e
    for dn, c in zip(dnames, coeffs):
        residual = ex.Subtract(residual, ex.Multiply(ex.Variable(dn), c))
    residual = simplify(residual)
    if variables_of(residual, *coeffs) & set(dnames):
        raise GeometryError(
            f"form expression {text!r} must be linear in the differentials"
        )
    if not ex.is_zero(residual):
        raise GeometryError(f"form expression {text!r} has a scalar part")
    terms = tuple(((i,), c) for i, c in enumerate(coeffs) if not ex.is_zero(c))
    return KForm(chart, 1, terms, ex.substitute(e, dict.fromkeys(dnames, ex.ONE)))


def one_form_to_text(form: KForm) -> str:
    """Inverse of :func:`parse_one_form` (round-trips through the parser)."""
    if form.degree != 1:
        raise DimensionError("only 1-forms serialize to form syntax")
    if not form.terms:
        return "0*d" + form.chart.names[0]
    parts = []
    for (i,), coeff in form.terms:
        dn = "d" + form.chart.names[i]
        if coeff == ex.ONE:
            parts.append(dn)
        else:
            parts.append(f"({ex.to_text(coeff)})*{dn}")
    return " + ".join(parts)
