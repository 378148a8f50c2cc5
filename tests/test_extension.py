import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import kernel_plane_basis, plane_angle_sin

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc.charts import (
    GeometryError,
    SamplePlan,
    lie_bracket,
    lift_to_product,
    sample_points,
)
from engelcalc.extension import (
    ExtensionSpec,
    _pair_angle,
    extend,
    extend_family,
    verify_extension_identities,
)
from engelcalc.invariants import (
    BoundaryConventionWarning,
    LegendrianLineField,
    induced_legendrian_line,
    line_angle_distance,
    minimal_twisting_number,
)
from engelcalc.prolongation import ContactFrame, deprolong
from engelcalc.structures import Tolerances, check_characteristic, check_engel_frame

PLAN = SamplePlan(grid=3, random=20, seed=0)
MTW_PLAN = SamplePlan(grid=3, random=6, seed=0)


# ---------------------------------------------------------------------------
# angle function


def _angle_of_pair(frame, pair, plan=PLAN):
    return ExtensionSpec(frame=frame, n=0, f1=pair).angle_expression(plan)


def test_angle_function_quarter_turn(std_frame):
    g = _angle_of_pair(std_frame, (ex.ZERO, ex.ONE))
    assert ex.evaluate(g, {}) == pytest.approx(math.pi / 2)


def test_angle_function_same_line_normalizes_to_pi(std_frame):
    with pytest.warns(BoundaryConventionWarning):
        g = _angle_of_pair(std_frame, (ex.ONE, ex.ZERO))
    assert g == ex.PI


def test_angle_function_recovers_linear_phase(std_frame):
    chart = std_frame.chart
    u = chart.parse("x/4 + 1")
    g = _angle_of_pair(std_frame, (ex.Cos(u), ex.Sin(u)))
    assert g == ex.simplify(u)
    values = ex.evaluate_many(g, chart.names, sample_points(chart, PLAN))
    assert np.min(values) == pytest.approx(0.75)


def test_angle_function_rejects_vanishing_pair(std_frame):
    x = ex.Variable("x")
    with pytest.raises(GeometryError, match="no closed-form angle"):
        _angle_of_pair(std_frame, (x, x))


@pytest.mark.parametrize("pair", ["0 0", "x 1", "cos(x) sin(y)"])
def test_angle_function_rejects_a_pair_without_closed_form(std_frame, pair):
    a, b = (std_frame.chart.parse(text) for text in pair.split())
    with pytest.raises(GeometryError, match="no closed-form angle"):
        _angle_of_pair(std_frame, (a, b))


def test_pair_angle_keeps_a_constant_phase_as_written():
    # cos(4) and sin(4) simplify to constants whose atan2 is 4 - 2*pi
    c = ex.Constant(4.0)
    assert _pair_angle((ex.Cos(c), ex.Sin(c))) is c


def test_pair_angle_compares_simplified_operands(std_frame):
    parse = std_frame.chart.parse
    assert _pair_angle((parse("cos(x + 1)"), parse("sin(1 + x)"))) == parse("x + 1")
    assert _pair_angle((parse("2"), parse("1/2"))) == ex.Constant(math.atan2(0.5, 2.0))


def test_angle_function_shifts_a_fast_phase_by_its_multiple_of_pi(std_frame):
    # the phase sweeps 16 radians across the box; min 8*x + 2 = -6 moves up
    # by 2*pi into (0, pi], however coarse the grid
    u = std_frame.chart.parse("8*x + 2")
    g = _angle_of_pair(std_frame, (ex.Cos(u), ex.Sin(u)), SamplePlan(grid=3, random=0, seed=0))
    assert ex.to_text(g) == "2*pi + 8*x + 2"


_COEF = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    linear=st.booleans(),
    coefs=st.tuples(_COEF, _COEF, _COEF),
    grid=st.integers(2, 5),
    random=st.integers(0, 10),
    seed=st.integers(0, 3),
)
def test_pair_angle_is_its_phase_up_to_pi(std_frame, linear, coefs, grid, random, seed):
    """For u linear in x, y and for nonzero constant pairs, g - u is a
    multiple of pi at every sample and min g lies in (0, pi]."""
    chart = std_frame.chart
    c0, c1, c2 = coefs
    if linear:
        u = ex.Add(
            ex.Add(ex.Multiply(ex.Constant(c0), ex.Variable("x")),
                   ex.Multiply(ex.Constant(c1), ex.Variable("y"))),
            ex.Constant(c2),
        )
        pair = (ex.Cos(u), ex.Sin(u))
    else:
        assume(c0 or c1)
        u = ex.Constant(math.atan2(c1, c0))
        pair = (ex.Constant(c0), ex.Constant(c1))
    plan = SamplePlan(grid=grid, random=random, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryConventionWarning)
        g = _angle_of_pair(std_frame, pair, plan)
    pts = sample_points(chart, plan)
    gv = ex.evaluate_many(g, chart.names, pts)
    turns = (gv - ex.evaluate_many(u, chart.names, pts)) / math.pi
    np.testing.assert_allclose(turns, np.round(turns), atol=1e-9)
    assert 0.0 < np.min(gv) <= math.pi + 1e-12


# ---------------------------------------------------------------------------
# extension construction


def test_extend_standard(std_frame):
    spec = ExtensionSpec(frame=std_frame, n=1, g=ex.Constant(math.pi / 2))
    dist = extend(spec, PLAN)
    assert check_engel_frame(dist, PLAN).passed
    assert minimal_twisting_number(dist, std_frame, MTW_PLAN) == 1


def test_extend_torus(t3_frame):
    spec = ExtensionSpec(frame=t3_frame, n=0, f1=(ex.ZERO, ex.ONE))
    dist = extend(spec, PLAN)
    assert check_engel_frame(dist, PLAN).passed
    end = induced_legendrian_line(dist, t3_frame, 1.0)
    target = LegendrianLineField(t3_frame.chart, t3_frame, a=ex.ZERO, b=ex.ONE)
    assert line_angle_distance(end, target, PLAN) <= 1e-9


def test_extend_rejects_negative_twist(std_frame):
    with pytest.raises(GeometryError):
        ExtensionSpec(frame=std_frame, n=-1, g=ex.Constant(1.0))


@pytest.mark.parametrize("g", ["x + 1", "5 + x"])
def test_extend_rejects_angle_minimum_outside_range(std_frame, g):
    """min g over the samples must lie in (0, pi]: x + 1 reaches 0, 5 + x
    never comes down to pi."""
    spec = ExtensionSpec(frame=std_frame, n=1, g=std_frame.chart.parse(g))
    with pytest.raises(GeometryError, match="0 < min g <= pi"):
        extend(spec, PLAN)


def test_extend_requires_exactly_one_target(std_frame):
    with pytest.raises(GeometryError):
        ExtensionSpec(frame=std_frame, n=0)
    with pytest.raises(GeometryError):
        ExtensionSpec(
            frame=std_frame, n=0, g=ex.ONE, f1=(ex.ONE, ex.ZERO)
        )


def test_extend_characteristic_is_fiber(std_frame):
    dist = extend(ExtensionSpec(frame=std_frame, n=1, g=ex.Constant(1.2)), PLAN)
    _, beta, char = check_characteristic(dist, PLAN)
    fiber_idx = dist.chart.index(dist.chart.fiber)
    assert ex.simplify(beta.coeff((fiber_idx,))) == ex.ZERO
    assert char.passed


def test_extend_deprolongs_to_input_plane(std_frame):
    dist = extend(ExtensionSpec(frame=std_frame, n=2, g=ex.Constant(0.9)), PLAN)
    alpha = deprolong(dist, 0.0, PLAN)
    pts = sample_points(std_frame.chart, SamplePlan(grid=3, random=15, seed=9))
    coeffs = alpha.evaluate_at(pts)
    v0 = std_frame.v0.evaluate_at(pts)
    v1 = std_frame.v1.evaluate_at(pts)
    for c, a, b in zip(coeffs, v0, v1):
        assert plane_angle_sin(kernel_plane_basis(c), np.stack([a, b], 1)) <= 1e-9


def test_extend_end_foliations(std_frame):
    g = std_frame.chart.parse("pi/2 + sin(x)/4")
    dist = extend(ExtensionSpec(frame=std_frame, n=1, g=g), PLAN)
    start = induced_legendrian_line(dist, std_frame, 0.0)
    f0 = LegendrianLineField(std_frame.chart, std_frame, a=ex.ONE, b=ex.ZERO)
    assert line_angle_distance(start, f0, PLAN) <= 1e-9
    end = induced_legendrian_line(dist, std_frame, 1.0)
    f1 = LegendrianLineField(std_frame.chart, std_frame, a=ex.Cos(g), b=ex.Sin(g))
    assert line_angle_distance(end, f1, PLAN) <= 1e-9


def test_extend_frame_change_preserves_observables(std_frame):
    """Rebuilding over a rescaled/sheared frame with the same start line
    keeps the end foliations and the minimal twisting number."""
    chart = std_frame.chart
    f1_scale = chart.parse("1 + x^2/4")
    f3_scale = chart.parse("2 + sin(y)/2")
    new_frame = ContactFrame(
        chart,
        std_frame.v0.scaled_by(f1_scale),
        std_frame.v0.scaled_by(chart.parse("y/4")) + std_frame.v1.scaled_by(f3_scale),
    )
    assert new_frame.validate(PLAN).passed
    g = ex.Constant(math.pi / 2)
    d_old = extend(ExtensionSpec(frame=std_frame, n=2, g=g), PLAN)
    d_new = extend(ExtensionSpec(frame=new_frame, n=2, g=g), PLAN)
    assert minimal_twisting_number(d_old, std_frame, MTW_PLAN) == 2
    assert minimal_twisting_number(d_new, new_frame, MTW_PLAN) == 2
    # both start lines generate the first frame leg's direction
    s_old = induced_legendrian_line(d_old, std_frame, 0.0)
    s_new = induced_legendrian_line(d_new, new_frame, 0.0)
    pts = sample_points(chart, SamplePlan(grid=3, random=8, seed=3))
    t_old = s_old.tabulate(pts)
    t_new = s_new.tabulate(pts)
    v_old = t_old[:, :1] * std_frame.v0.evaluate_at(pts) + t_old[:, 1:] * std_frame.v1.evaluate_at(pts)
    v_new = t_new[:, :1] * new_frame.v0.evaluate_at(pts) + t_new[:, 1:] * new_frame.v1.evaluate_at(pts)
    for u, v in zip(v_old, v_new):
        assert plane_angle_sin(u[:, None], v[:, None]) <= 1e-9


# ---------------------------------------------------------------------------
# bracket identities


def test_identities_exact_for_constant_angle(std_frame):
    spec = ExtensionSpec(frame=std_frame, n=0, g=ex.Constant(math.pi / 2))
    rep = verify_extension_identities(spec, PLAN)
    assert rep.passed
    assert rep.witnesses["first_bracket_residual"] <= 1e-12
    assert rep.witnesses["second_bracket_residual"] <= 1e-12


def test_identities_scale_with_twist(std_frame):
    spec = ExtensionSpec(frame=std_frame, n=2, g=ex.Constant(math.pi / 2))
    rep = verify_extension_identities(spec, PLAN)
    assert rep.passed
    # bracket's frame-coefficient magnitude is the total angle coefficient
    g = math.pi / 2
    dist = extend(spec, PLAN)
    u = lie_bracket(dist.x, dist.y)
    pts = sample_points(dist.chart, SamplePlan(grid=3, random=10, seed=1))
    uv = u.evaluate_at(pts)[:, :3]
    v0 = lift_to_product(std_frame.v0, dist.chart).evaluate_at(pts)[:, :3]
    v1 = lift_to_product(std_frame.v1, dist.chart).evaluate_at(pts)[:, :3]
    for row, a, b in zip(uv, v0, v1):
        coef, _, _, _ = np.linalg.lstsq(np.stack([a, b], 1), row, rcond=None)
        assert np.linalg.norm(coef) == pytest.approx(g + 2 * math.pi, abs=1e-9)


def test_identities_torus_second_bracket(t3_frame):
    spec = ExtensionSpec(frame=t3_frame, n=1, g=ex.Constant(math.pi / 2))
    rep = verify_extension_identities(spec, PLAN)
    assert rep.passed


def test_the_zero_tolerance_governs_the_identities(std_frame):
    # the second residual of a non-constant angle is about 0.6 in norm
    g = std_frame.chart.parse("pi/2 + sin(x)/4")
    spec = ExtensionSpec(frame=std_frame, n=0, g=g)
    strict = verify_extension_identities(spec, PLAN)
    loose = verify_extension_identities(spec, PLAN, Tolerances(zero=10.0))
    assert not strict.passed and strict.first_failure is not None
    assert loose.passed and loose.first_failure is None
    assert strict.witnesses == loose.witnesses


def test_identities_nonconstant_angle_correction_in_plane(std_frame):
    """With a non-constant angle the first identity stays exact while the
    second holds only modulo the contact plane: the literal residual is
    nonzero but lies in span(V0, V1) pointwise."""
    g = std_frame.chart.parse("pi/2 + sin(x)/4")
    spec = ExtensionSpec(frame=std_frame, n=0, g=g)
    rep = verify_extension_identities(spec, PLAN)
    assert rep.witnesses["first_bracket_residual"] <= 1e-12
    assert rep.witnesses["second_bracket_residual"] > 1e-3

    dist = extend(spec, PLAN)
    chart4 = dist.chart
    u = lie_bracket(dist.x, dist.y)
    vu = lie_bracket(dist.y, u)
    rhs = lift_to_product(
        lie_bracket(std_frame.v0, std_frame.v1), chart4
    ).scaled_by(g)
    pts = sample_points(chart4, SamplePlan(grid=3, random=10, seed=2))
    diff = vu.evaluate_at(pts) - rhs.evaluate_at(pts)
    v0 = lift_to_product(std_frame.v0, chart4).evaluate_at(pts)
    v1 = lift_to_product(std_frame.v1, chart4).evaluate_at(pts)
    for d, a, b in zip(diff, v0, v1):
        basis = np.stack([a, b], axis=1)
        coef, _, _, _ = np.linalg.lstsq(basis, d, rcond=None)
        assert np.linalg.norm(basis @ coef - d) <= 1e-9


# ---------------------------------------------------------------------------
# families


def test_family_constant(std_frame):
    spec = ExtensionSpec(frame=std_frame, n=1, g=ex.Constant(1.0))
    assert extend_family([spec] * 3, PLAN) == (1, 1, 1)


def test_family_steps_by_one(std_frame):
    def spec(s: float) -> ExtensionSpec:
        raw = math.pi / 2 + s * math.pi
        n = 0
        while raw > math.pi:
            raw -= math.pi
            n += 1
        return ExtensionSpec(frame=std_frame, n=n, g=ex.Constant(raw))

    # at s = 0.5 the normalized angle sits exactly at pi
    with pytest.warns(BoundaryConventionWarning):
        profile = extend_family([spec(s) for s in (0.0, 0.25, 0.5, 0.75, 1.0)], PLAN)
    assert profile == (0, 0, 1, 1, 1)


def test_family_rejects_twist_jump(std_frame):
    specs = [ExtensionSpec(frame=std_frame, n=n, g=ex.Constant(1.0)) for n in (0, 2)]
    with pytest.raises(GeometryError, match="jumps from 0 to 2 between s=0.0 and s=1.0"):
        extend_family(specs, PLAN)
