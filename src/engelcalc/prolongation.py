"""Prolongation of framed contact structures, deprolongation, development.

A framed contact structure on a 3-chart is prolonged to a plane field on
the product with a periodic fiber: the frame is rotated through half the
fiber angle (times the covering index), so one fiber loop sweeps the
projective line of the contact plane n times.  Deprolongation inverts
this: the annihilator of the bracket-extended distribution is restricted
to a cross section.  Development follows the induced line along the fibers
over a stack of base points: from the line's angle mod pi at the start of
each fiber it adds the integral of the line's exact turning rate, read
from the frame coefficients of the fiber-free generator and of its
symbolic fiber derivative.  Nothing is taken mod pi after the start, so
no covering index aliases; two nested Clenshaw-Curtis rules, doubled
until they agree, integrate each step from one evaluation pass per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import expr as ex
from ._kernels import scratch
from .charts import (
    MEMO_SIZE,
    Chart,
    ChartMismatchError,
    DimensionError,
    GeometryError,
    KForm,
    SamplePlan,
    VectorField,
    base_chart_of,
    coordinate_field,
    lie_bracket,
    lift_to_product,
    product_chart,
    require_finite,
)
from .expr import ScalarExpr, simplify, substitute
from .structures import (
    DEFAULT_TOLERANCES,
    Condition,
    Distribution2,
    RankDeficiencyError,
    Tolerances,
    VerificationReport,
    _combined,
    _judge,
    check_characteristic,
    check_contact_3d,
)

TWO_PI = 2.0 * math.pi


class ProjectionResidualError(GeometryError):
    pass


@dataclass(frozen=True, slots=True)
class ContactFrame:
    """Ordered frame (V0, V1) spanning a contact plane field on a 3-chart."""

    chart: Chart
    v0: VectorField
    v1: VectorField

    def __post_init__(self):
        if self.chart.dim != 3:
            raise DimensionError("contact frames live on 3-dimensional charts")
        if self.v0.chart != self.chart or self.v1.chart != self.chart:
            raise ChartMismatchError("frame fields must live on the frame chart")

    def validate(
        self, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> VerificationReport:
        """Rank 2 of (V0, V1) and rank 3 of (V0, V1, [V0, V1]) at samples."""
        fields = (self.v0, self.v1, lie_bracket(self.v0, self.v1))
        plane, bracket = _judge(
            self.chart, plan, tol,
            Condition(fields, "rank", "rank_plane", rank=2),
            Condition(fields, "rank", "rank_with_bracket", rank=3),
            joint=True,
        )
        return _combined((plane, bracket), {
            "min_sv_ratio_plane": plane.witnesses["min_sv_ratio"],
            "min_sv_ratio_bracket": bracket.witnesses["min_sv_ratio"],
        })

    def basis_at(self, base_points: np.ndarray) -> np.ndarray:
        """(m, 3, 2) stack of V0, V1 as columns at m base points, in one call,
        simplified like the fields rotated from them: only samples are checked as written."""
        comps = tuple(map(simplify, (*self.v0.components, *self.v1.components)))
        values = ex.evaluate_many(comps, self.chart.names, base_points)
        v0, v1 = (require_finite(v.T, base_points) for v in (values[:3], values[3:]))
        return np.stack([v0, v1], axis=2)


def rotate_along_fiber(
    frame: ContactFrame, name: str, lo: float, hi: float, periodic: bool,
    angle: Callable[[ex.Variable], ScalarExpr],
) -> Distribution2:
    """The plane field {d/dfiber, cos(phi)*V0 + sin(phi)*V1} on the product
    of the frame chart with a fiber [lo, hi], where phi = angle(fiber).

    The fiber is called ``name``, with underscores appended while that is
    a base coordinate.  Only the two fields are kept: the line on an end
    of the fiber is read back from them by the development, as for any
    frame.
    """
    while name in frame.chart.names:
        name = name + "_"
    chart4 = product_chart(frame.chart, name, lo, hi, periodic=periodic)
    phi = angle(ex.Variable(name))
    v0, v1 = (lift_to_product(v, chart4) for v in (frame.v0, frame.v1))
    twist = v0.scaled_by(ex.Cos(phi)) + v1.scaled_by(ex.Sin(phi))
    return Distribution2(chart4, coordinate_field(chart4, name), twist)


# typed, so that a cached prolong(frame, 1) does not answer prolong(frame, 1.0)
@lru_cache(maxsize=MEMO_SIZE, typed=True)
def prolong(frame: ContactFrame, n: int) -> Distribution2:
    """n-fold fiberwise prolongation of a framed contact structure.

    Returns the frame {d/dtheta, cos(n*theta/2)*V0 + sin(n*theta/2)*V1} on
    the product chart with theta periodic of period 2*pi (see
    :func:`rotate_along_fiber` for the fiber name).  The frame is not
    validated here; verify tasks check the result.  The last ``MEMO_SIZE``
    results are remembered for the process and shared by equal calls.
    """
    if not isinstance(n, int) or n < 1:
        raise GeometryError("covering index must be a positive integer")
    return rotate_along_fiber(
        frame, "theta", 0.0, TWO_PI, True,
        lambda theta: simplify(ex.Divide(ex.Multiply(ex.Constant(n), theta), ex.Constant(2))),
    )


@lru_cache(maxsize=MEMO_SIZE)
def fiber_characteristic_annihilator(
    d: Distribution2, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES
) -> KForm:
    """Annihilator of the bracket-extended frame, verified by
    :func:`~engelcalc.structures.check_characteristic` to single out the
    fiber direction: the fiber field must satisfy the characteristic
    conditions against it (which includes having no fiber component).  A
    frame whose (X, Y, [X, Y]) drops rank at a sample is a
    :class:`~engelcalc.structures.RankDeficiencyError`.

    The last ``MEMO_SIZE`` verified forms are remembered for the process,
    keyed by (d, plan, tol), and shared by equal calls.  The check's
    witnesses are reported nowhere, so a hit changes no report; a failed
    check is never stored and raises again on every call.
    """
    frame, beta, characteristic = check_characteristic(d, plan, tol)
    if characteristic is None:
        raise RankDeficiencyError(
            f"derived distribution has rank {frame.first_failure['rank_step1']} at sample point"
            f" {frame.first_failure['point']}"
        )
    characteristic.require("fiber-direction characteristic check")
    return beta


def deprolong(
    d: Distribution2,
    section_value: float,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KForm:
    """Contact form induced on the cross section {fiber = section_value}.

    Computes the annihilator of the bracket-extended distribution, checks
    that the characteristic direction is the fiber, substitutes the fiber
    coordinate, and verifies the result is contact on the base chart.
    """
    beta = fiber_characteristic_annihilator(d, plan, tol)
    chart = d.chart
    base = base_chart_of(chart)
    terms = []
    for (i,), coeff in beta.terms:
        name = chart.names[i]
        if name == chart.fiber:
            continue
        restricted = simplify(substitute(coeff, {chart.fiber: float(section_value)}))
        if not ex.is_zero(restricted):
            terms.append(((base.index(name),), restricted))
    alpha = KForm(base, 1, tuple(terms))
    check_contact_3d(alpha, plan, tol).require("deprolonged form contact check")
    return alpha


# ---------------------------------------------------------------------------
# development

# A rotation is an integer multiple of pi when it is within this many pi of one.
INTEGER_TOLERANCE = 1e-6
# The largest gap, in radians, between the two nested rules' integrals of one
# fiber step that ends their doubling: a thousandth of the integer check's
# tolerance, so the settled rule moves no rotation/pi across that check.
QUADRATURE_TOLERANCE = INTEGER_TOLERANCE * 1e-3
# Intervals of the coarser rule of the first level; each level doubles them.
FIRST_INTERVALS = 16
# Rows (base points x fiber nodes) a pass past the first may evaluate.
MAX_PROFILE_POINTS = 1 << 18
# Clenshaw-Curtis rules kept: 16 to 2**17 intervals, all the row budget admits.
_RULES = 14


@lru_cache(maxsize=_RULES)
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Clenshaw-Curtis rule with n intervals (n
    even) on [0, 1]: the n + 1 nodes sin(k*pi/(2n))**2, ascending from 0 to
    1, and their weights from one inverse FFT of the Chebyshev moments
    (J. Waldvogel, "Fast construction of the Fejer and Clenshaw-Curtis
    quadrature rules", BIT 46, 2006).  Every other node of the rule with 2n
    intervals is a node of this one, in order."""
    k = np.arange(n + 1)
    nodes = np.sin(k * (math.pi / (2 * n))) ** 2
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - k[::2] ** 2.0)
    f = np.fft.ifft(np.concatenate([moments, moments[-2:0:-1]])).real
    weights = np.concatenate([f[:1], 2.0 * f[1:n], f[n : n + 1]]) / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=MEMO_SIZE)
def _generator_and_rate(d: Distribution2) -> tuple[ScalarExpr, ...]:
    """xf and yf, the fiber components of X and Y, then the base components
    of the fiber-free generator w = xf*Y - yf*X, then those of its partial
    derivative along the fiber.  The last ``MEMO_SIZE`` are remembered for
    the process, keyed by d."""
    chart = d.chart
    fiber_idx = chart.index(chart.fiber)
    xf, yf = d.x.components[fiber_idx], d.y.components[fiber_idx]
    w = tuple(
        simplify(ex.Subtract(ex.Multiply(xf, y), ex.Multiply(yf, x)))
        for i, (x, y) in enumerate(zip(d.x.components, d.y.components))
        if i != fiber_idx
    )
    return (xf, yf, *w, *(ex.partial_derivative(c, chart.fiber) for c in w))


def _frame_coefficients(
    d: Distribution2,
    frame: ContactFrame,
    base_points: np.ndarray,
    fiber_values: np.ndarray,
    tol: Tolerances,
) -> np.ndarray:
    """Coefficients against the frame of the fiber-free generator w and of
    its derivative along the fiber, at m base points times s fiber values,
    evaluated in one pass.

    Returns an (m, 2, 2, s) array: [:, 0] holds w's pair (a, b), w = a*V0 +
    b*V1, and [:, 1] the pair of w's fiber derivative.  Each base point's
    dual basis (the pseudo-inverse of V0, V1) projects both, and w's
    projection must leave a relative residual of at most ``tol.projection``.
    """
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    fiber_idx = chart.index(chart.fiber)
    base_idx = [i for i in range(chart.dim) if i != fiber_idx]
    k = len(base_idx)

    m, s = base_points.shape[0], fiber_values.size
    pts = scratch((m, s, chart.dim))
    pts[:, :, base_idx] = base_points[:, None, :]
    pts[:, :, fiber_idx] = fiber_values
    pts = pts.reshape(m * s, chart.dim)

    block = scratch((2 + 2 * k, m * s), "frame")
    ex.evaluate_many(_generator_and_rate(d), chart.names, pts, out=block)
    # a sum of finite values may overflow, never the other way round
    if not math.isfinite(block.sum()):
        require_finite(block.T, pts)
    if np.maximum(np.abs(block[0]), np.abs(block[1])).min() == 0.0:
        raise GeometryError("frame has no generator transverse to the base")
    # (m, 2, k, s): w, then its fiber derivative, per base point
    fields = block[2:].reshape(2, k, m, s).transpose(2, 0, 1, 3)
    w = fields[:, 0]
    ww = np.einsum("mks,mks->ms", w, w)
    if ww.min() <= 0.0:
        raise GeometryError("degenerate generator along the fiber")

    basis = frame.basis_at(base_points)
    coeffs = np.matmul(np.linalg.pinv(basis)[:, None], fields)
    residual = w - np.matmul(basis, coeffs[:, 0])
    rr = np.einsum("mks,mks->ms", residual, residual)
    # rr <= tol**2 * ww at every row, judged by the largest rr/ww
    worst = (rr / ww).max()
    if worst > tol.projection**2:
        raise ProjectionResidualError(
            f"projection onto the frame leaves relative residual {math.sqrt(worst):.3e}"
            f" > {tol.projection:.1e}"
        )
    return coeffs


def development_profile(
    d: Distribution2,
    frame: ContactFrame,
    base_points,
    fiber_values,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray]:
    """Development angles of the induced line along the fibers over m base
    points.

    Returns (fiber_values, angles) with angles of shape (m, len(fiber_values)).
    The line's angle starts at arctan2(b, a) mod pi of its coefficients (a,
    b) against the frame at the first fiber value, and each step of the
    grid adds the integral of the line's turning rate

        omega = (a*b' - b*a') / (a**2 + b**2),

    with (a', b') the coefficients of the generator's fiber derivative.
    omega is unchanged when the generator is scaled, and nothing is taken
    mod pi, so a step may turn the line by any angle.

    Every step is integrated by two nested Clenshaw-Curtis rules, with N
    and 2N intervals, from one evaluation pass over the finer rule's nodes
    for every base point and step.  N doubles from ``FIRST_INTERVALS`` until
    the rules' integrals of every step agree within ``QUADRATURE_TOLERANCE``,
    and the finer one is kept.  Rules that agree can still both miss a
    fiber frequency that is a multiple of 2N.  The first pass always runs;
    a later pass that would evaluate more than ``MAX_PROFILE_POINTS`` rows
    (base points times nodes) raises instead, naming the base point where
    the rules disagree most.
    """
    t = np.asarray(fiber_values, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GeometryError("need at least two fiber values")
    base_points = np.asarray(base_points, dtype=float)
    if base_points.ndim != 2 or len(base_points) == 0:
        raise GeometryError("need a non-empty (m, dim) stack of base points")
    m, lengths = len(base_points), np.diff(t)
    n = FIRST_INTERVALS
    while True:
        nodes, fine_weights = _clenshaw_curtis(2 * n)
        coarse_weights = _clenshaw_curtis(n)[1]
        values = t[:-1, None] + lengths[:, None] * nodes
        coeffs = _frame_coefficients(d, frame, base_points, values.reshape(-1), tol)
        (a, b), (da, db) = coeffs.transpose(1, 2, 0, 3)
        rate = (a * db - b * da) / (a * a + b * b)
        rate = rate.reshape(m, lengths.size, nodes.size) * lengths[:, None]
        fine = rate @ fine_weights
        gap = np.abs(fine - rate[:, :, ::2] @ coarse_weights).max(axis=1)
        if gap.max() <= QUADRATURE_TOLERANCE:
            break
        n *= 2
        if m * lengths.size * (2 * n + 1) > MAX_PROFILE_POINTS:
            worst = int(np.argmax(gap))
            raise GeometryError(
                f"the turning rate's integral did not settle within the row budget:"
                f" its {n // 2}- and {n}-interval rules differ by {gap[worst]:.3e}"
                f" at base point {base_points[worst].tolist()}"
            )
    angles = np.empty((m, t.size))
    angles[:, 0] = np.arctan2(b[:, 0], a[:, 0]) % math.pi
    np.cumsum(fine, axis=1, out=angles[:, 1:])
    angles[:, 1:] += angles[:, :1]
    return t, angles
