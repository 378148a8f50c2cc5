import math

import numpy as np
import pytest
from conftest import chart_from_box, kernel_plane_basis, plane_angle_sin

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc.charts import (
    GeometryError,
    SamplePlan,
    coordinate_field,
    sample_points,
    vector_field,
)
from engelcalc.prolongation import (
    ContactFrame,
    deprolong,
    development_profile,
    fiber_characteristic_annihilator,
    prolong,
)
from engelcalc.structures import (
    CheckError,
    Distribution2,
    RankDeficiencyError,
    check_engel_frame,
)

PLAN = SamplePlan(grid=4, random=40, seed=0)


# ---------------------------------------------------------------------------
# frames


def test_std_frame_validates(std_frame):
    assert std_frame.validate(PLAN).passed


def test_t3_frame_validates(t3_frame):
    assert t3_frame.validate(PLAN).passed


def test_non_contact_frame_fails(box3):
    frame = ContactFrame(
        box3, coordinate_field(box3, "x"), coordinate_field(box3, "y")
    )
    rep = frame.validate(PLAN)
    assert not rep.passed


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_standard_n1(std_frame):
    pe = prolong(std_frame, 1)
    assert pe.chart.dim == 4
    assert pe.chart.axis(pe.chart.fiber).periodic
    assert check_engel_frame(pe, PLAN).passed


def test_prolong_torus_n3(t3_frame):
    pe = prolong(t3_frame, 3)
    assert check_engel_frame(pe, PLAN).passed


def test_prolong_rejects_nonpositive_index(std_frame):
    with pytest.raises(GeometryError):
        prolong(std_frame, 0)
    with pytest.raises(GeometryError):
        prolong(std_frame, -2)


def test_prolonged_span_is_fiber_periodic(std_frame):
    """Component expressions flip sign over one period when n is odd, but
    the spanned plane is periodic."""
    pe = prolong(std_frame, 1)
    pts = sample_points(pe.chart, SamplePlan(grid=3, random=10, seed=1))
    shifted = pts.copy()
    shifted[:, 3] += 2 * math.pi
    a = pe.y.evaluate_at(pts)
    b = pe.y.evaluate_at(shifted)
    np.testing.assert_allclose(a, -b, atol=1e-9)  # sign flip, same line
    for u, v in zip(a, b):
        assert plane_angle_sin(u[:, None], v[:, None]) <= 1e-12


# ---------------------------------------------------------------------------
# deprolongation


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_deprolong_round_trip(std_frame, n):
    pe = prolong(std_frame, n)
    alpha = deprolong(pe, 0.0, PLAN)
    pts = sample_points(std_frame.chart, SamplePlan(grid=3, random=20, seed=5))
    coeffs = alpha.evaluate_at(pts)
    v0 = std_frame.v0.evaluate_at(pts)
    v1 = std_frame.v1.evaluate_at(pts)
    for c, a, b in zip(coeffs, v0, v1):
        plane = np.stack([a, b], axis=1)
        assert plane_angle_sin(kernel_plane_basis(c), plane) <= 1e-9


def test_deprolong_section_independence(std_frame):
    pe = prolong(std_frame, 2)
    sections = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    pts = sample_points(std_frame.chart, SamplePlan(grid=3, random=10, seed=6))
    normalized = []
    for s in sections:
        alpha = deprolong(pe, float(s), PLAN)
        vals = alpha.evaluate_at(pts)
        vals = vals / np.linalg.norm(vals, axis=1, keepdims=True)
        normalized.append(vals)
    reference = normalized[0]
    for vals in normalized[1:]:
        sign = np.sign(np.einsum("nd,nd->n", vals, reference))
        assert np.max(np.abs(vals * sign[:, None] - reference)) <= 1e-9


@pytest.mark.parametrize("n", [1, 3])
def test_deprolong_torus_round_trip(t3_frame, n):
    pe = prolong(t3_frame, n)
    alpha = deprolong(pe, 1.0, PLAN)
    pts = sample_points(t3_frame.chart, SamplePlan(grid=3, random=20, seed=7))
    coeffs = alpha.evaluate_at(pts)
    v0 = t3_frame.v0.evaluate_at(pts)
    v1 = t3_frame.v1.evaluate_at(pts)
    for c, a, b in zip(coeffs, v0, v1):
        assert plane_angle_sin(kernel_plane_basis(c), np.stack([a, b], 1)) <= 1e-9


def test_non_fiber_characteristic_fails_the_kernel_pairing():
    """The standard Engel frame (d/dw, d/dx + z d/dy + w d/dz) has
    characteristic d/dw.  Declared with fiber x, its annihilator dy - z dx
    pairs with d/dx to -z, which reaches 1 on the box."""
    chart = chart_from_box(
        {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "w": (-1, 1)}, fiber="x"
    )
    d = Distribution2(
        chart, coordinate_field(chart, "w"), vector_field(chart, ["1", "z", "w", "0"])
    )
    with pytest.raises(
        CheckError,
        match=r"fiber-direction characteristic check failed: witnesses \{.*"
        r"'kernel_pairing_max': 1\.0\}, first failure \{'point'",
    ):
        fiber_characteristic_annihilator(d, PLAN)


def test_deprolong_rejects_non_engel(std_frame, box3):
    chart4 = ch.product_chart(box3, "theta", 0.0, 2 * math.pi, periodic=True)
    d = Distribution2(
        chart4, coordinate_field(chart4, "theta"), coordinate_field(chart4, "x")
    )
    with pytest.raises(RankDeficiencyError, match="derived distribution has rank 2"):
        deprolong(d, 0.0, PLAN)


# ---------------------------------------------------------------------------
# development


@pytest.mark.parametrize("n", [1, 2, 5])
def test_development_profile_is_affine_with_half_slope(std_frame, n):
    pe = prolong(std_frame, n)
    grid = np.linspace(0.0, 2 * math.pi, 64 * n + 1)
    rng = np.random.default_rng(3)
    base = -1 + 2 * rng.random((4, 3))
    t, profiles = development_profile(pe, std_frame, base, grid)
    for p, angles in zip(base, profiles):
        # each row of the stack is the profile of its point alone
        _, alone = development_profile(pe, std_frame, p[None, :], grid)
        np.testing.assert_allclose(alone[0], angles, rtol=0, atol=1e-12)
        fit = np.polyfit(t, angles, 1)
        assert fit[0] == pytest.approx(n / 2, abs=1e-9)
        residual = angles - np.polyval(fit, t)
        assert np.max(np.abs(residual)) <= 1e-8


def test_development_angle_start_normalized(std_frame):
    pe = prolong(std_frame, 3)
    grid = np.linspace(0.0, 2 * math.pi, 257)
    _, angles = development_profile(pe, std_frame, [(0.2, -0.4, 0.8)], grid)
    assert 0.0 <= angles[0, 0] < math.pi


def test_development_angle_on_extension():
    """For an interval extension the angle at (p, t) is t*(g(p) + n*pi)."""
    from engelcalc.extension import ExtensionSpec, extend

    chart = chart_from_box({"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})
    frame = ContactFrame(
        chart, coordinate_field(chart, "z"), vector_field(chart, ["1", "z", "0"])
    )
    g = chart.parse("pi/2 + sin(x)/4")
    dist = extend(ExtensionSpec(frame=frame, n=2, g=g), PLAN)
    base = [(0.0, 0.0, 0.0), (0.5, -0.2, 0.3)]
    t, profiles = development_profile(dist, frame, base, np.linspace(0.0, 1.0, 257))
    for p, angles in zip(base, profiles):
        gval = ex.evaluate(g, dict(zip(("x", "y", "z"), p)))
        np.testing.assert_allclose(angles, t * (gval + 2 * math.pi), rtol=0, atol=1e-9)


def test_development_refines_the_shared_grid_for_any_base_point():
    """The angle at (p, t) is t*(pi/2 + x + 10*pi).  On 42 steps it moves
    0.762 per step at x = -1 (below pi/4) and 0.809 at x = 1 (above), so
    the second base point alone bisects every step of the shared grid."""
    from engelcalc.extension import ExtensionSpec, extend

    chart = chart_from_box({"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})
    frame = ContactFrame(
        chart, coordinate_field(chart, "z"), vector_field(chart, ["1", "z", "0"])
    )
    spec = ExtensionSpec(frame=frame, n=10, g=chart.parse("pi/2 + x"))
    dist = extend(spec, PLAN)
    base = [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    t, profiles = development_profile(dist, frame, base, np.linspace(0.0, 1.0, 43))
    assert t.size == 85
    for (x, _, _), angles in zip(base, profiles):
        expected = t * (math.pi / 2 + x + 10 * math.pi)
        np.testing.assert_allclose(angles, expected, rtol=0, atol=1e-9)


def test_development_refinement_budget_is_bounded(std_frame, monkeypatch):
    """A line field twisting so fast that every refinement level still sees
    quarter-turn jumps hits the resolution budget instead of looping.

    Twist rate is chosen so each halving leaves increments of pi/3 mod pi:
    rate * step = (4/3)*pi*2^m, whose halvings alternate between 1/3 and
    2/3 of a turn.
    """
    from engelcalc import prolongation as prl
    from engelcalc.charts import product_chart, lift_to_product
    from engelcalc.structures import Distribution2

    monkeypatch.setattr(prl, "MAX_PROFILE_POINTS", 1 << 12)
    steps = 64
    rate = (4.0 / 3.0) * math.pi * 2**20 / (2 * math.pi / steps)
    chart4 = product_chart(std_frame.chart, "theta", 0.0, 2 * math.pi, periodic=True)
    phase = ex.Multiply(ex.Constant(rate), ex.Variable("theta"))
    twist = lift_to_product(std_frame.v0, chart4).scaled_by(
        ex.Cos(phase)
    ) + lift_to_product(std_frame.v1, chart4).scaled_by(ex.Sin(phase))
    dist = Distribution2(chart4, ch.coordinate_field(chart4, "theta"), twist)
    grid = np.linspace(0.0, 2 * math.pi, steps + 1)
    with pytest.raises(prl.RefinementDepthError):
        development_profile(dist, std_frame, [(0.1, 0.2, 0.3)], grid)
    # the budget bounds the rows of one pass: base points times fiber values
    with pytest.raises(prl.RefinementDepthError):
        development_profile(dist, std_frame, -1 + 2 * np.random.default_rng(1).random((8, 3)), grid)


def test_development_budget_counts_base_points(std_frame, monkeypatch):
    """MAX_PROFILE_POINTS bounds base points times fiber values: the one
    refinement level a 20-fold prolongation needs on a 65-point grid fits
    for one base point and overflows the budget for 32."""
    from engelcalc import prolongation as prl

    monkeypatch.setattr(prl, "MAX_PROFILE_POINTS", 1 << 12)
    pe = prolong(std_frame, 20)
    grid = np.linspace(0.0, 2 * math.pi, 65)
    base = -1 + 2 * np.random.default_rng(2).random((32, 3))
    t, angles = development_profile(pe, std_frame, base[:1], grid)
    assert t.size == 129
    assert angles[0, -1] - angles[0, 0] == pytest.approx(20 * math.pi, abs=1e-9)
    with pytest.raises(prl.RefinementDepthError):
        development_profile(pe, std_frame, base, grid)


def test_development_rejects_frame_mismatch(std_frame, t3_frame):
    pe = prolong(std_frame, 1)
    from engelcalc.prolongation import ProjectionResidualError

    bad_frame = ContactFrame(
        std_frame.chart,
        vector_field(std_frame.chart, ["0", "1", "0"]),
        vector_field(std_frame.chart, ["1", "0", "0"]),
    )
    with pytest.raises(ProjectionResidualError, match="relative residual"):
        development_profile(
            pe, bad_frame, [(0.3, 0.3, 0.9)], np.linspace(0.0, 2 * math.pi, 257)
        )

