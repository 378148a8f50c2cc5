"""Interval extensions: plane fields on M x [0, 1] joining two line fields.

Given a framed contact structure, a target line field with angle function
g (normalized into (0, pi]), and a twist count n, the construction spans
the plane field by the fiber direction and

    V0 * cos(t*(g + n*pi)) + V1 * sin(t*(g + n*pi)).

At t = 0 this is the frame's first leg; at t = 1 it generates the target
line, after sweeping n extra half-turns of the projective fiber.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .charts import (
    Chart,
    GeometryError,
    SamplePlan,
    VectorField,
    distinct_samples,
    lie_bracket,
    lift_to_product,
    require_finite,
    sample_points,
    variables_of,
)
from .expr import ScalarExpr, simplify
from .invariants import (
    BoundaryConventionWarning,
    minimal_twisting_number,
    minimal_twisting_plan,
)
from .prolongation import ContactFrame, rotate_along_fiber
from .structures import (
    DEFAULT_TOLERANCES,
    Distribution2,
    Tolerances,
    VerificationReport,
    check_engel_frame,
)


class ContinuityError(GeometryError):
    pass


@dataclass(frozen=True)
class AngleFunction:
    """Continuous angle of a coefficient pair, normalized so min lies in (0, pi].

    ``table`` holds the per-sample-point values; ``symbolic`` is set when
    the pair admits a closed-form angle.
    """

    points: np.ndarray
    table: np.ndarray
    symbolic: ScalarExpr | None
    boundary_warning: bool


def _angle_min(g: ScalarExpr, chart: Chart, plan: SamplePlan) -> float:
    """min g over the sample set, checked to satisfy 0 < min g <= pi."""
    pts, _ = distinct_samples(chart, plan, variables_of(g))
    gmin = float(np.min(require_finite(ex.evaluate_many(g, chart.names, pts), pts)))
    if not 0.0 < gmin <= math.pi + 1e-12:
        raise GeometryError(
            f"angle function must satisfy 0 < min g <= pi, got min {gmin}"
        )
    return gmin


def _warn_if_min_is_pi(gmin: float) -> bool:
    """Warn when the normalized angle's minimum sits on pi; say whether it does."""
    boundary = abs(gmin - math.pi) <= 1e-9
    if boundary:
        warnings.warn(
            "normalized angle function attains pi at its minimum",
            BoundaryConventionWarning,
            stacklevel=3,
        )
    return boundary


def _normalization_shift(min_raw: float) -> int:
    # unique k with min_raw + k*pi in (0, pi]
    return int(math.floor(1.0 - min_raw / math.pi + 1e-12))


def legendrian_angle_function(
    frame: ContactFrame,
    f1: tuple[ScalarExpr, ScalarExpr],
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AngleFunction:
    """Angle g with V0*cos(g) + V1*sin(g) generating the pair a*V0 + b*V1.

    The raw angle is taken mod pi on the sample grid, unwrapped axis by
    axis (adjacent grid values must differ by less than pi/2), and shifted
    by the unique multiple of pi putting the minimum into (0, pi].  For a
    (cos(u), sin(u)) pair or a constant pair the angle is also returned
    symbolically.
    """
    a, b = f1
    chart = frame.chart
    res = plan.resolutions(chart.dim)
    grid_plan = SamplePlan(grid=plan.grid, random=0, seed=plan.seed)
    pts = sample_points(chart, grid_plan)
    av = require_finite(ex.evaluate_many(a, chart.names, pts), pts)
    bv = require_finite(ex.evaluate_many(b, chart.names, pts), pts)
    if np.min(av * av + bv * bv, initial=np.inf) < tol.nonzero_norm:
        raise GeometryError("coefficient pair vanishes at a sample point")

    raw = np.arctan2(bv, av) % math.pi
    cube = raw.reshape(res)
    for axis in range(cube.ndim):
        cube = np.unwrap(cube, axis=axis, period=math.pi)
    for axis in range(cube.ndim):
        jumps = np.abs(np.diff(cube, axis=axis))
        # mod-pi unwrapping caps apparent increments at pi/2; demand half
        # of that so genuine aliasing cannot hide at the boundary
        if jumps.size and float(np.max(jumps)) >= math.pi / 4.0:
            raise ContinuityError(
                "adjacent grid samples differ too much in angle;"
                " the input is undersampled or discontinuous"
            )
    values = cube.reshape(-1)
    shift = _normalization_shift(float(np.min(values)))
    values = values + shift * math.pi

    boundary = _warn_if_min_is_pi(float(np.min(values)))
    symbolic = _symbolic_angle(a, b, shift, values, pts, chart.names)
    return AngleFunction(points=pts, table=values, symbolic=symbolic, boundary_warning=boundary)


def _symbolic_angle(a, b, shift, values, pts, names) -> ScalarExpr | None:
    candidate: ScalarExpr | None = None
    if isinstance(a, ex.Cos) and isinstance(b, ex.Sin) and a.operand == b.operand:
        candidate = a.operand
    elif isinstance(a, ex.Constant) and isinstance(b, ex.Constant):
        candidate = ex.Constant(math.atan2(b.value, a.value))
    if candidate is None:
        return None
    sym = simplify(
        ex.Add(candidate, ex.Multiply(ex.Constant(shift), ex.PI)) if shift else candidate
    )
    check = ex.evaluate_many(sym, names, pts)
    if np.max(np.abs(check - values), initial=0.0) > 1e-9:
        # closed form disagrees with the unwrapped table (wrong branch)
        return None
    return sym


@dataclass(frozen=True)
class ExtensionSpec:
    """Input data: frame with V0 generating the start line, target line
    field as a coefficient pair or directly as an angle expression, and a
    non-negative twist count."""

    frame: ContactFrame
    n: int
    f1: tuple[ScalarExpr, ScalarExpr] | None = None
    g: ScalarExpr | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise GeometryError("twist count must be a non-negative integer")
        if (self.f1 is None) == (self.g is None):
            raise GeometryError("provide exactly one of f1 or g")

    def angle_expression(
        self, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES
    ) -> ScalarExpr:
        if self.g is not None:
            _warn_if_min_is_pi(_angle_min(self.g, self.frame.chart, plan))
            return simplify(self.g)
        fn = legendrian_angle_function(self.frame, self.f1, plan, tol)
        if fn.symbolic is None:
            raise GeometryError(
                "target line field has no closed-form angle; supply g directly"
            )
        return fn.symbolic


FIBER_NAME = "t"


def _twisted_generator(spec: ExtensionSpec, g: ScalarExpr) -> Distribution2:
    h = ex.Add(g, ex.Multiply(ex.Constant(spec.n), ex.PI))
    return rotate_along_fiber(
        spec.frame, FIBER_NAME, 0.0, 1.0, False, lambda t: simplify(ex.Multiply(t, h))
    )


def extend(
    spec: ExtensionSpec,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Distribution2:
    """Build the interval extension; verify tasks check the frame."""
    return _twisted_generator(spec, spec.angle_expression(plan, tol))


def verify_extension_identities(
    spec: ExtensionSpec,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Check the two bracket identities of the construction at samples.

    With h = g + n*pi and V = V0*cos(t*h) + V1*sin(t*h):

      [d/dt, V] = h * (-V0*sin(t*h) + V1*cos(t*h))   (exact), and
      [V, [d/dt, V]] = h * [V0, V1],

    the latter holding exactly when h is constant along the contact plane
    (true for the constant-angle fixtures this operation targets).
    """
    g = spec.angle_expression(plan, tol)
    dist = _twisted_generator(spec, g)
    chart4 = dist.chart
    fiber = chart4.fiber
    frame = spec.frame

    h = simplify(ex.Add(g, ex.Multiply(ex.Constant(spec.n), ex.PI)))
    total = simplify(ex.Multiply(ex.Variable(fiber), h))
    u_expected = (
        lift_to_product(frame.v0, chart4).scaled_by(ex.Negate(ex.Sin(total)))
        + lift_to_product(frame.v1, chart4).scaled_by(ex.Cos(total))
    ).scaled_by(h)
    u_actual = lie_bracket(dist.x, dist.y)

    vu_actual = lie_bracket(dist.y, u_actual)
    vu_expected = lift_to_product(
        lie_bracket(frame.v0, frame.v1), chart4
    ).scaled_by(h)

    fields = (u_actual, u_expected, vu_actual, vu_expected)
    pts, _ = distinct_samples(chart4, plan, variables_of(*fields))

    def max_diff(f1: VectorField, f2: VectorField) -> float:
        return float(
            np.max(np.abs(f1.evaluate_at(pts) - f2.evaluate_at(pts)), initial=0.0)
        )

    r1 = max_diff(u_actual, u_expected)
    r2 = max_diff(vu_actual, vu_expected)
    passed = r1 <= 1e-9 and r2 <= 1e-9
    return VerificationReport(
        kind="extension_identities",
        passed=passed,
        witnesses={"first_bracket_residual": r1, "second_bracket_residual": r2},
    )


def extend_family(
    specs: list[ExtensionSpec],
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[int, ...]:
    """Verify a family of extensions; return each slice's minimal twisting number.

    Slice i sits at s = i.  The twist count may change by at most one
    between adjacent slices; every slice is verified individually.
    """
    if not specs:
        raise GeometryError("family grid is empty")
    for s, (a, b) in enumerate(zip(specs, specs[1:])):
        if abs(b.n - a.n) > 1:
            raise GeometryError(
                f"twist count jumps from {a.n} to {b.n}"
                f" between s={float(s)} and s={float(s + 1)}"
            )
    base_plan = minimal_twisting_plan(plan.seed)
    mtw = []
    for spec in specs:
        dist = extend(spec, plan, tol)
        check_engel_frame(dist, plan, tol).require("extension frame check")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryConventionWarning)
            mtw.append(minimal_twisting_number(dist, spec.frame, base_plan, tol))
    return tuple(mtw)
