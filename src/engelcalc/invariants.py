"""Twisting numbers and induced Legendrian line fields.

The twisting number counts, in units of pi, how far the induced line in
the contact plane rotates along one full fiber loop; the minimal twisting
number takes the floor of the smallest total rotation from one end of an
interval fiber to the other.  Line fields tangent to the contact plane
are stored as coefficient pairs against a fixed frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .charts import (
    Chart,
    ChartMismatchError,
    GeometryError,
    SamplePlan,
    base_chart_of,
    require_finite,
    sample_points,
)
from .expr import ScalarExpr, simplify, substitute
from .prolongation import (
    ContactFrame,
    _raw_angles,
    development_profile,
    fiber_characteristic_annihilator,
)
from .structures import DEFAULT_PLAN, DEFAULT_TOLERANCES, Distribution2, Tolerances

INTEGER_TOLERANCE = 1e-6

# light plan for the fiber-characteristic precondition of the invariants
CHARACTERISTIC_PLAN = SamplePlan(grid=3, random=8, seed=0)


class BoundaryConventionWarning(UserWarning):
    """Total rotation sits on a multiple of pi, where the floor convention
    and the closed normalization of the angle function disagree."""


class PointDisagreementError(GeometryError):
    pass


@dataclass(frozen=True)
class LegendrianLineField:
    """Line field a*V0 + b*V1 tangent to the framed contact plane.

    Coefficients are symbolic when available; otherwise ``evaluator``
    tabulates (a, b) at base points.
    """

    chart: Chart
    frame: ContactFrame
    a: ScalarExpr | None = None
    b: ScalarExpr | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        symbolic = self.a is not None and self.b is not None
        if not symbolic and self.evaluator is None:
            raise GeometryError("need either symbolic (a, b) or an evaluator")

    @property
    def symbolic(self) -> bool:
        return self.a is not None and self.b is not None

    def tabulate(self, points: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """(n, 2) coefficient table; raises if the pair degenerates."""
        if self.symbolic:
            av = ex.evaluate_many(self.a, self.chart.names, points)
            bv = ex.evaluate_many(self.b, self.chart.names, points)
            table = np.stack([av, bv], axis=1)
        else:
            table = np.asarray(self.evaluator(points), dtype=float)
        require_finite(table, points)
        sq = np.einsum("nk,nk->n", table, table)
        if np.min(sq, initial=np.inf) < tol.nonzero_norm:
            raise GeometryError("line-field coefficients vanish at a sample point")
        return table


def line_angle_distance(
    l1: LegendrianLineField,
    l2: LegendrianLineField,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Max over samples of the projective angle between the two lines."""
    if l1.chart != l2.chart:
        raise ChartMismatchError("line fields on different charts")
    pts = sample_points(l1.chart, plan)
    t1 = l1.tabulate(pts, tol)
    t2 = l2.tabulate(pts, tol)
    a1 = np.arctan2(t1[:, 1], t1[:, 0])
    a2 = np.arctan2(t2[:, 1], t2[:, 0])
    d = np.abs(a1 - a2) % math.pi
    d = np.minimum(d, math.pi - d)
    return float(np.max(d, initial=0.0))


def _fiber_loop_grid(chart: Chart, steps: int) -> np.ndarray:
    axis = chart.axis(chart.fiber)
    if not axis.periodic:
        raise GeometryError("twisting number needs a periodic fiber")
    return np.linspace(axis.lo, axis.lo + axis.period, steps + 1)


def twisting_number(
    d: Distribution2,
    frame: ContactFrame,
    base_points: Sequence,
    tol: Tolerances = DEFAULT_TOLERANCES,
    steps: int = 512,
) -> int:
    """Signed degree of the induced line along one fiber loop, in pi units.

    Every base point must yield the same integer; the sign follows the
    order of the frame (V0, V1).
    """
    base_points = list(base_points)
    if not base_points:
        raise GeometryError("need at least one base point")
    if d.chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    fiber_characteristic_annihilator(d, CHARACTERISTIC_PLAN, tol)
    grid = _fiber_loop_grid(d.chart, steps)
    results = []
    for p in base_points:
        _, angles = development_profile(d, frame, p, grid, tol)
        total = (angles[-1] - angles[0]) / math.pi
        nearest = round(total)
        if abs(total - nearest) > INTEGER_TOLERANCE:
            raise GeometryError(
                f"total rotation {total:.9f} pi is not an integer at base point {p}"
            )
        results.append(int(nearest))
    if len(set(results)) != 1:
        raise PointDisagreementError(
            f"twisting number disagrees across base points: {sorted(set(results))}"
        )
    return results[0]


def minimal_twisting_number(
    d: Distribution2,
    frame: ContactFrame,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
    steps: int = 256,
) -> int:
    """floor(min total rotation / pi) over sampled base points on M x I.

    Rotation is measured relative to the line at the fiber start, so the
    start normalizes to zero.  A rotation within ``INTEGER_TOLERANCE`` of
    a multiple of pi emits :class:`BoundaryConventionWarning`.
    """
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    axis = chart.axis(chart.fiber)
    if axis.periodic:
        raise GeometryError("minimal twisting number needs an interval fiber")
    fiber_characteristic_annihilator(d, CHARACTERISTIC_PLAN, tol)
    base = base_chart_of(chart)
    base_pts = sample_points(base, plan)
    grid = np.linspace(axis.lo, axis.hi, steps + 1)
    totals = []
    for p in base_pts:
        _, angles = development_profile(d, frame, p, grid, tol)
        phi = angles[-1] - angles[0]
        if phi < -INTEGER_TOLERANCE:
            raise GeometryError(
                f"negative rotation {phi:.3e} at base point {p.tolist()};"
                " input violates the monotone normalization"
            )
        totals.append(phi)
    min_phi = float(np.min(totals))
    ratio = min_phi / math.pi
    if abs(min_phi - round(ratio) * math.pi) <= INTEGER_TOLERANCE:
        warnings.warn(
            f"minimum rotation {min_phi:.9f} sits on a multiple of pi;"
            " the floor convention is ambiguous here",
            BoundaryConventionWarning,
            stacklevel=2,
        )
    return int(math.floor(ratio + 1e-9))


def induced_legendrian_line(
    d: Distribution2,
    frame: ContactFrame,
    t: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LegendrianLineField:
    """Line field cut out on the section {fiber = t}, in frame coefficients.

    Symbolic when the distribution carries construction coefficients
    (checked against the frame at a few points); otherwise a pointwise
    evaluator backed by least squares against (V0, V1).
    """
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    base = base_chart_of(chart)
    if base.names != frame.chart.names:
        raise ChartMismatchError("frame does not match the base chart")
    fiber = chart.fiber

    if d.legendrian_coefficients is not None:
        a = simplify(substitute(d.legendrian_coefficients[0], fiber, float(t)))
        b = simplify(substitute(d.legendrian_coefficients[1], fiber, float(t)))
        line = LegendrianLineField(base, frame, a=a, b=b)
        _check_coefficients_match(d, frame, t, line, tol)
        return line

    def evaluator(points: np.ndarray) -> np.ndarray:
        out = np.empty((points.shape[0], 2))
        for i, p in enumerate(points):
            raw = _raw_angles(d, frame, p, np.array([float(t)]), tol)[0]
            out[i, 0] = math.cos(raw)
            out[i, 1] = math.sin(raw)
        return out

    return LegendrianLineField(base, frame, evaluator=evaluator)


def _check_coefficients_match(
    d: Distribution2,
    frame: ContactFrame,
    t: float,
    line: LegendrianLineField,
    tol: Tolerances,
) -> None:
    base_pts = sample_points(line.chart, DEFAULT_PLAN)[:8]
    table = line.tabulate(base_pts, tol)
    for p, (a, b) in zip(base_pts, table):
        raw = _raw_angles(d, frame, p, np.array([float(t)]), tol)[0]
        diff = abs((math.atan2(b, a) - raw)) % math.pi
        diff = min(diff, math.pi - diff)
        if diff > 1e-8:
            raise GeometryError(
                "stored line-field coefficients disagree with the frame"
                f" (projective angle {diff:.3e} at {p.tolist()})"
            )
