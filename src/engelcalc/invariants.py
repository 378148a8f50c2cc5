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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .charts import (
    Chart,
    ChartMismatchError,
    GeometryError,
    SamplePlan,
    base_chart_of,
    distinct_samples,
    require_finite,
    sample_points,
    variables_of,
)
from .expr import ScalarExpr
from .prolongation import (
    ContactFrame,
    _frame_coefficients,
    development_profile,
    fiber_characteristic_annihilator,
)
from .structures import DEFAULT_TOLERANCES, Distribution2, Tolerances

INTEGER_TOLERANCE = 1e-6

# light plan for the fiber-characteristic precondition of the invariants
CHARACTERISTIC_PLAN = SamplePlan(grid=3, random=8, seed=0)

# fiber grid steps of the twisting number and the minimal twisting number
TWISTING_STEPS = 512
MINIMAL_TWISTING_STEPS = 256
# Per invariant: its fiber grid steps and the largest covering index (twist
# count) they resolve.  Every step then turns the line by at most pi/2 (with
# g <= pi on an extension), the development's aliasing bound; past 3*pi/4 a
# turn reads as a small one the other way.
RESOLVED_INDEX = {
    "twisting_number": (TWISTING_STEPS, TWISTING_STEPS // 2),
    "minimal_twisting_number": (MINIMAL_TWISTING_STEPS, MINIMAL_TWISTING_STEPS // 2 - 1),
}


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
            table = ex.evaluate_many((self.a, self.b), self.chart.names, points).T
        else:
            table = np.asarray(self.evaluator(points), dtype=float)
        require_finite(table, points)
        sq = np.einsum("nk,nk->n", table, table)
        if np.min(sq, initial=np.inf) < tol.nonzero_norm:
            raise GeometryError("line-field coefficients vanish at a sample point")
        return table


def _projective_distance(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Distance in [0, pi/2] between the lines at angles a1 and a2."""
    d = np.abs(a1 - a2) % math.pi
    return np.minimum(d, math.pi - d)


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
    d = _projective_distance(np.arctan2(t1[:, 1], t1[:, 0]), np.arctan2(t2[:, 1], t2[:, 0]))
    return float(np.max(d, initial=0.0))


def minimal_twisting_plan(seed: int) -> SamplePlan:
    """Base points of a manifest's minimal twisting numbers: the shape of
    ``CHARACTERISTIC_PLAN``, seeded from the manifest."""
    return replace(CHARACTERISTIC_PLAN, seed=seed)


def _fiber_rotation(
    d: Distribution2, frame: ContactFrame, base, periodic: bool, steps: int, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """Base points (given, or the distinct samples of a plan on the base
    chart) and the induced line's rotation in radians from one end of the
    fiber to the other over each, on ``steps`` fiber steps.  The fiber must
    be the characteristic direction, and periodic or an interval as
    requested."""
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    axis = chart.axis(chart.fiber)
    if periodic and not axis.periodic:
        raise GeometryError("twisting number needs a periodic fiber")
    if axis.periodic and not periodic:
        raise GeometryError("minimal twisting number needs an interval fiber")
    fiber_characteristic_annihilator(d, CHARACTERISTIC_PLAN, tol)
    if isinstance(base, SamplePlan):
        # sample rows that agree in every coordinate the fields read develop
        # alike; the first of each stands for the rest
        read = variables_of(d.x, d.y, frame.v0, frame.v1)
        base, _ = distinct_samples(base_chart_of(chart), base, read)
    hi = axis.lo + axis.period if periodic else axis.hi
    _, angles = development_profile(d, frame, base, np.linspace(axis.lo, hi, steps + 1), tol)
    return base, angles[:, -1] - angles[:, 0]


def twisting_number(
    d: Distribution2,
    frame: ContactFrame,
    base_points: Sequence,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Signed degree of the induced line along one fiber loop, in pi units.

    Every base point must yield the same integer; the sign follows the
    order of the frame (V0, V1).
    """
    base_points = np.asarray(base_points, dtype=float)
    if base_points.size == 0:
        raise GeometryError("need at least one base point")
    _, rotation = _fiber_rotation(d, frame, base_points, True, TWISTING_STEPS, tol)
    totals = rotation / math.pi
    nearest = np.round(totals)
    off = np.flatnonzero(np.abs(totals - nearest) > INTEGER_TOLERANCE)
    if off.size:
        raise GeometryError(
            f"total rotation {totals[off[0]]:.9f} pi is not an integer"
            f" at base point {base_points[off[0]].tolist()}"
        )
    values = sorted(set(nearest.astype(int).tolist()))
    if len(values) != 1:
        raise PointDisagreementError(
            f"twisting number disagrees across base points: {values}"
        )
    return values[0]


def minimal_twisting_number(
    d: Distribution2,
    frame: ContactFrame,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """floor(min total rotation / pi) over sampled base points on M x I.

    Rotation is measured relative to the line at the fiber start, so the
    start normalizes to zero.  A rotation within ``INTEGER_TOLERANCE`` of
    a multiple of pi emits :class:`BoundaryConventionWarning`.
    """
    base_pts, phi = _fiber_rotation(d, frame, plan, False, MINIMAL_TWISTING_STEPS, tol)
    negative = np.flatnonzero(phi < -INTEGER_TOLERANCE)
    if negative.size:
        raise GeometryError(
            f"negative rotation {phi[negative[0]]:.3e} at base point"
            f" {base_pts[negative[0]].tolist()};"
            " input violates the monotone normalization"
        )
    min_phi = float(np.min(phi))
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

    Read from the frame by the development: at each base point, the
    fiber-free generator's angle against (V0, V1), by least squares, as
    (cos, sin) of that angle.  As for the twisting numbers, the fiber must
    be the characteristic direction.
    """
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    base = base_chart_of(chart)
    if base.names != frame.chart.names:
        raise ChartMismatchError("frame does not match the base chart")
    fiber_characteristic_annihilator(d, CHARACTERISTIC_PLAN, tol)

    def evaluator(points: np.ndarray) -> np.ndarray:
        a, b = _frame_coefficients(d, frame, points, np.array([float(t)]), tol)
        raw = np.arctan2(b[:, 0], a[:, 0]) % math.pi
        return np.stack([np.cos(raw), np.sin(raw)], axis=1)

    return LegendrianLineField(base, frame, evaluator=evaluator)
