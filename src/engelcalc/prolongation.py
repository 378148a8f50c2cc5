"""Prolongation of framed contact structures, deprolongation, development.

A framed contact structure on a 3-chart is prolonged to a plane field on
the product with a periodic fiber: the frame is rotated through half the
fiber angle (times the covering index), so one fiber loop sweeps the
projective line of the contact plane n times.  Deprolongation inverts
this: the annihilator of the bracket-extended distribution is restricted
to a cross section.  Development tracks the induced line's angle against
the frame along the fibers over a stack of base points, in one evaluation
pass per refinement level, unwrapped modulo pi.
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


class RefinementDepthError(GeometryError):
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
            "contact_frame", (self.v0, self.v1), plan, tol,
            Condition(fields, "rank", "rank_plane", rank=2),
            Condition(fields, "rank", "rank_with_bracket", rank=3),
            joint=True,
        )
        return _combined("contact_frame", (plane, bracket), {
            "min_sv_ratio_plane": plane.witnesses["min_sv_ratio"],
            "min_sv_ratio_bracket": bracket.witnesses["min_sv_ratio"],
        })

    def basis_at(self, base_points: np.ndarray) -> np.ndarray:
        """(m, 3, 2) stack with V0, V1 as columns at each of m base points,
        both evaluated in one call."""
        comps = (*self.v0.components, *self.v1.components)
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
        restricted = simplify(substitute(coeff, chart.fiber, float(section_value)))
        if not ex.is_zero(restricted):
            terms.append(((base.index(name),), restricted))
    alpha = KForm(base, 1, tuple(terms))
    check_contact_3d(alpha, plan, tol).require("deprolonged form contact check")
    return alpha


# ---------------------------------------------------------------------------
# development


def _wrap_half_pi(delta: np.ndarray) -> np.ndarray:
    """Reduce angle increments mod pi into [-pi/2, pi/2)."""
    return (delta + math.pi / 2.0) % math.pi - math.pi / 2.0


def _raw_angles(
    d: Distribution2,
    frame: ContactFrame,
    base_points: np.ndarray,
    fiber_values: np.ndarray,
    tol: Tolerances,
) -> np.ndarray:
    """(m, s) angles mod pi of the fiber-free generator against (V0, V1), at
    m base points times s fiber values, evaluated in one pass.

    X and Y are evaluated together, component-major into (dim, m*s) buffers
    with the fiber component last, so each component is a contiguous row."""
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    fiber_idx = chart.index(chart.fiber)
    base_idx = [i for i in range(chart.dim) if i != fiber_idx]

    m, s = base_points.shape[0], fiber_values.size
    pts = scratch((m, s, chart.dim))
    pts[:, :, base_idx] = base_points[:, None, :]
    pts[:, :, fiber_idx] = fiber_values
    pts = pts.reshape(m * s, chart.dim)

    order = (*base_idx, fiber_idx)
    comps = tuple(field.components[i] for field in (d.x, d.y) for i in order)
    block = scratch((2 * chart.dim, m * s), "frame")
    xv, yv = ex.evaluate_many(comps, chart.names, pts, out=block).reshape(2, chart.dim, m * s)
    require_finite(xv.T, pts)
    require_finite(yv.T, pts)
    xf, yf = xv[-1], yv[-1]
    # eliminate the fiber component against the more fiber-like generator
    use_x = np.abs(xf) >= np.abs(yf)
    pivot = np.where(use_x, xf, yf)
    if np.any(pivot == 0.0):
        raise GeometryError("frame has no generator transverse to the base")
    ratio = np.where(use_x, yf, xf) / pivot
    xb, yb = xv[:-1], yv[:-1]
    w = np.where(use_x, yb - ratio * xb, xb - ratio * yb)
    wb = w.reshape(len(base_idx), m, s).transpose(1, 0, 2)

    basis = frame.basis_at(base_points)
    coeffs = np.linalg.pinv(basis) @ wb
    residual = np.linalg.norm(basis @ coeffs - wb, axis=1)
    wnorm = np.linalg.norm(wb, axis=1)
    if np.any(wnorm <= 0.0):
        raise GeometryError("degenerate generator along the fiber")
    rel = residual / wnorm
    if np.max(rel) > tol.projection:
        raise ProjectionResidualError(
            f"projection onto the frame leaves relative residual {np.max(rel):.3e}"
            f" > {tol.projection:.1e}"
        )
    return np.arctan2(coeffs[:, 1], coeffs[:, 0]) % math.pi


# Rows (base points x fiber values) one development pass may evaluate.
MAX_PROFILE_POINTS = 1 << 18
# Passes development_profile checks at most: its input grid, then one per
# refinement level.
MAX_REFINE = 24


def development_profile(
    d: Distribution2,
    frame: ContactFrame,
    base_points,
    fiber_values,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped development angles along the fibers over m base points.

    Returns (fiber_values, angles) with angles of shape (m, len(fiber_values))
    after step refinement of one shared fiber grid: wherever two consecutive
    raw angles differ by pi/4 or more (mod pi) at any base point, a midpoint
    is inserted, so genuine increments stay below the pi/2 aliasing bound.
    Refinement is bounded in depth (``MAX_REFINE``), and every pass in rows
    (``MAX_PROFILE_POINTS``, base points times fiber values).

    Refinement cannot detect increments that alias to a clean multiple of
    pi, so the input grid must already resolve the twisting (64 steps per
    covering index is ample for the structures built here).
    """
    t = np.asarray(fiber_values, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GeometryError("need at least two fiber values")
    base_points = np.asarray(base_points, dtype=float)
    if base_points.ndim != 2 or len(base_points) == 0:
        raise GeometryError("need a non-empty (m, dim) stack of base points")
    for _ in range(MAX_REFINE):
        if len(base_points) * t.size > MAX_PROFILE_POINTS:
            break
        raw = _raw_angles(d, frame, base_points, t, tol)
        steps = _wrap_half_pi(np.diff(raw, axis=1))
        bad = np.flatnonzero(np.any(np.abs(steps) >= math.pi / 4.0, axis=0))
        if bad.size == 0:
            angles = np.empty_like(raw)
            angles[:, 0] = raw[:, 0]
            np.cumsum(steps, axis=1, out=angles[:, 1:])
            angles[:, 1:] += raw[:, :1]
            return t, angles
        t = np.sort(np.concatenate([t, (t[bad] + t[bad + 1]) / 2.0]))
    raise RefinementDepthError(
        "development refinement exceeded the resolution budget;"
        " the field twists too fast for the requested fiber grid"
    )
