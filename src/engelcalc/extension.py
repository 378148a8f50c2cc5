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
    distinct_samples,
    lie_bracket,
    lift_to_product,
    require_finite,
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
    Condition,
    Distribution2,
    Tolerances,
    VerificationReport,
    _combined,
    _judge,
    check_engel_frame,
)


def _sample_min(g: ScalarExpr, chart: Chart, plan: SamplePlan) -> float:
    """min g over the samples; a non-finite value is an error naming its point."""
    pts, _ = distinct_samples(chart, plan, variables_of(g))
    return float(np.min(require_finite(ex.evaluate_many(g, chart.names, pts), pts)))


def _pair_angle(f1: tuple[ScalarExpr, ScalarExpr]) -> ScalarExpr:
    """Closed-form u with V0*cos(u) + V1*sin(u) generating the pair a*V0 + b*V1.

    The pair is (cos(u), sin(u)), as written or once simplified, with
    operands that simplify alike, or a pair that simplifies to constants
    not both 0; any other pair has no angle in closed form.  The pair as
    written comes first, so cos(c), sin(c) with c constant keeps u = c.
    """
    a, b = simplify(f1[0]), simplify(f1[1])
    for p, q in (f1, (a, b)):
        if isinstance(p, ex.Cos) and isinstance(q, ex.Sin):
            if simplify(p.operand) == simplify(q.operand):
                return p.operand
    if isinstance(a, ex.Constant) and isinstance(b, ex.Constant) and (a.value or b.value):
        return ex.Constant(math.atan2(b.value, a.value))
    raise GeometryError("target line field has no closed-form angle; supply g directly")


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

    def angle_expression(self, plan: SamplePlan) -> ScalarExpr:
        """The angle g of the target line, with min g over the samples in (0, pi].

        A coefficient pair's angle is shifted by the multiple of pi that
        puts its minimum there.
        """
        chart = self.frame.chart
        g = self.g
        if g is None:
            g = _pair_angle(self.f1)
            # the largest k with min g + k*pi within the bound checked below
            shift = math.floor((math.pi + 1e-12 - _sample_min(g, chart, plan)) / math.pi)
            if shift:
                g = ex.Add(g, ex.Multiply(ex.Constant(shift), ex.PI))
        gmin = _sample_min(g, chart, plan)
        if not 0.0 < gmin <= math.pi + 1e-12:
            raise GeometryError(
                f"angle function must satisfy 0 < min g <= pi, got min {gmin}"
            )
        if abs(gmin - math.pi) <= 1e-9:
            warnings.warn(
                "normalized angle function attains pi at its minimum",
                BoundaryConventionWarning,
                stacklevel=2,
            )
        return simplify(g)


FIBER_NAME = "t"


def _twisted_generator(spec: ExtensionSpec, g: ScalarExpr) -> Distribution2:
    h = ex.Add(g, ex.Multiply(ex.Constant(spec.n), ex.PI))
    return rotate_along_fiber(
        spec.frame, FIBER_NAME, 0.0, 1.0, False, lambda t: simplify(ex.Multiply(t, h))
    )


def extend(spec: ExtensionSpec, plan: SamplePlan) -> Distribution2:
    """Build the interval extension; verify tasks check the frame."""
    return _twisted_generator(spec, spec.angle_expression(plan))


def verify_extension_identities(
    spec: ExtensionSpec, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES
) -> VerificationReport:
    """Check the two bracket identities of the construction at samples.

    With h = g + n*pi and V = V0*cos(t*h) + V1*sin(t*h):

      [d/dt, V] = h * (-V0*sin(t*h) + V1*cos(t*h))   (exact), and
      [V, [d/dt, V]] = h * [V0, V1],

    the latter holding exactly when h is constant along the contact plane
    (true for the constant-angle fixtures this operation targets).  Each
    residual, a largest pointwise norm, is judged against ``tol.zero``.
    """
    g = spec.angle_expression(plan)
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

    first, second = _judge(
        (u_actual, u_expected, vu_actual, vu_expected), plan, tol,
        Condition(u_actual - u_expected, "zero"),
        Condition(vu_actual - vu_expected, "zero"),
    )
    return _combined((first, second), {
        "first_bracket_residual": first.witnesses["max_abs"],
        "second_bracket_residual": second.witnesses["max_abs"],
    })


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
        dist = extend(spec, plan)
        check_engel_frame(dist, plan, tol).require("extension frame check")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryConventionWarning)
            mtw.append(minimal_twisting_number(dist, spec.frame, base_plan, tol))
    return tuple(mtw)
