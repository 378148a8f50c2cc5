import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc import invariants as inv
from engelcalc.charts import GeometryError, SamplePlan
from engelcalc.extension import ExtensionSpec, extend
from engelcalc.invariants import (
    BoundaryConventionWarning,
    LegendrianLineField,
    induced_legendrian_line,
    line_angle_distance,
    minimal_twisting_number,
    twisting_number,
)
from engelcalc.manifest import materialize, parse_manifest
from engelcalc.prolongation import ContactFrame, prolong, rotate_along_fiber
from engelcalc.structures import DEFAULT_TOLERANCES

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"

PLAN = SamplePlan(grid=3, random=10, seed=0)
MTW_PLAN = SamplePlan(grid=3, random=6, seed=0)


def _random_base(chart, count, seed):
    rng = np.random.default_rng(seed)
    lo = np.array([a.lo for a in chart.axes])
    hi = np.array([a.hi for a in chart.axes])
    return lo + (hi - lo) * rng.random((count, chart.dim))


# ---------------------------------------------------------------------------
# twisting number


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisting_number_of_prolongation(std_frame, n):
    pe = prolong(std_frame, n)
    pts = _random_base(std_frame.chart, 4, seed=n)
    assert twisting_number(pe, std_frame, pts) == n


def test_twisting_number_orientation_swap(std_frame):
    pe = prolong(std_frame, 1)
    swapped = ContactFrame(std_frame.chart, std_frame.v1, std_frame.v0)
    pts = _random_base(std_frame.chart, 3, seed=4)
    value = twisting_number(pe, swapped, pts)
    assert value == -1
    assert abs(value) == 1


def test_twisting_number_point_independent(std_frame):
    pe = prolong(std_frame, 2)
    pts = _random_base(std_frame.chart, 10, seed=11)
    assert twisting_number(pe, std_frame, pts) == 2


def test_twisting_number_invariant_under_positive_rescaling(std_frame):
    pe = prolong(std_frame, 2)
    chart = std_frame.chart
    scaled = ContactFrame(
        chart,
        std_frame.v0.scaled_by(chart.parse("1 + x^2/4")),
        std_frame.v1.scaled_by(chart.parse("2 + sin(y)")),
    )
    pts = _random_base(chart, 5, seed=12)
    assert twisting_number(pe, scaled, pts) == 2


def test_twisting_number_needs_base_points(std_frame):
    pe = prolong(std_frame, 1)
    with pytest.raises(GeometryError):
        twisting_number(pe, std_frame, [])


def test_twisting_number_torus(t3_frame):
    pe = prolong(t3_frame, 2)
    pts = _random_base(t3_frame.chart, 4, seed=13)
    assert twisting_number(pe, t3_frame, pts) == 2


def test_twisting_number_with_mixed_generators(std_frame):
    """The value only depends on the spanned plane: replacing the frame by
    {fiber, twist + 2*fiber} changes nothing."""
    from engelcalc.structures import Distribution2

    pe = prolong(std_frame, 3)
    mixed = Distribution2(
        pe.chart,
        pe.x,
        pe.y + pe.x.scaled_by(2.0),
    )
    pts = _random_base(std_frame.chart, 4, seed=14)
    assert twisting_number(mixed, std_frame, pts) == 3


def test_every_fibred_datum_refuses_a_fiber_that_is_not_characteristic(std_frame):
    from engelcalc.structures import CheckError, Distribution2

    pe = prolong(std_frame, 1)
    z = ex.Variable("z")
    skew = Distribution2(pe.chart, ch.VectorField(pe.chart, (z, 0, 0, 1)), pe.y)
    message = "fiber-direction characteristic check failed"
    with pytest.raises(CheckError, match=message):
        twisting_number(skew, std_frame, _random_base(std_frame.chart, 4, seed=15))
    with pytest.raises(CheckError, match=message):
        induced_legendrian_line(skew, std_frame, 0.0)


# ---------------------------------------------------------------------------
# minimal twisting number


@pytest.mark.parametrize("n", [0, 1, 2])
def test_mtw_constant_angle(std_frame, n):
    spec = ExtensionSpec(frame=std_frame, n=n, g=ex.Constant(math.pi / 2))
    dist = extend(spec, PLAN)
    assert minimal_twisting_number(dist, std_frame, MTW_PLAN) == n


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("g_text", ["pi/2 + sin(x)/4", "1 + cos(y)/3", "pi/4"])
def test_mtw_matches_twist_across_angle_choices(std_frame, n, g_text):
    g = std_frame.chart.parse(g_text)
    dist = extend(ExtensionSpec(frame=std_frame, n=n, g=g), PLAN)
    assert minimal_twisting_number(dist, std_frame, MTW_PLAN) == n


def test_mtw_boundary_angle_warns(std_frame):
    spec = ExtensionSpec(frame=std_frame, n=0, g=ex.PI)
    with pytest.warns(BoundaryConventionWarning):
        dist = extend(spec, PLAN)
    with pytest.warns(BoundaryConventionWarning):
        value = minimal_twisting_number(dist, std_frame, MTW_PLAN)
    assert value == 1


def test_mtw_rejects_periodic_fiber(std_frame):
    pe = prolong(std_frame, 1)
    with pytest.raises(GeometryError):
        minimal_twisting_number(pe, std_frame, MTW_PLAN)


def _develop_every_sample_row(monkeypatch):
    """Make plan-sampled base points every row of ``sample_points``: the
    full-sample reference that the distinct base points must match."""
    monkeypatch.setattr(
        inv, "distinct_samples", lambda chart, plan, names: (ch.sample_points(chart, plan), None)
    )


def _mtw_rotation(dist, frame, plan):
    return inv._fiber_rotation(
        dist, frame, plan, False, inv.MINIMAL_TWISTING_STEPS, DEFAULT_TOLERANCES
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_mtw_over_distinct_base_points_equals_the_full_sample(n, monkeypatch):
    manifest = parse_manifest((MANIFESTS / f"extension-n{n}.manifest").read_text())
    spec = materialize(manifest, manifest.structures["ext"])
    dist = extend(spec, manifest.sampling)
    plan = inv.minimal_twisting_plan(manifest.sampling.seed)

    def measure():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = minimal_twisting_number(dist, spec.frame, plan)
        return value, [str(w.message) for w in caught], _mtw_rotation(dist, spec.frame, plan)

    value, notes, (base, phi) = measure()
    _develop_every_sample_row(monkeypatch)
    full_value, full_notes, (full_base, full_phi) = measure()
    assert (value, notes) == (full_value, full_notes) and value == n
    # the frame reads z: 3 grid values of z and 8 random rows, not 27 + 8
    assert (len(base), len(full_base)) == (11, 35)
    _, rows = ch.distinct_samples(spec.frame.chart, plan, {"z"})
    np.testing.assert_array_equal(base, full_base[rows])
    np.testing.assert_array_equal(phi, full_phi[rows])
    assert phi.min() == full_phi.min()


def test_a_frame_reading_every_base_coordinate_merges_no_base_point(std_frame):
    chart = std_frame.chart
    frame = ContactFrame(
        chart,
        std_frame.v0.scaled_by(chart.parse("2 + x")),
        std_frame.v1.scaled_by(chart.parse("2 + y")),
    )
    dist = extend(ExtensionSpec(frame=frame, n=1, g=ex.Constant(math.pi / 2)), PLAN)
    base, _ = _mtw_rotation(dist, frame, MTW_PLAN)
    np.testing.assert_array_equal(base, ch.sample_points(chart, MTW_PLAN))
    assert minimal_twisting_number(dist, frame, MTW_PLAN) == 1


def test_negative_rotation_names_the_point_of_the_full_sample(std_frame, monkeypatch):
    # the line turns back along every fiber over z > 1/2, first at the
    # third sample row (-1, -1, 1)
    falling = rotate_along_fiber(
        std_frame, "t", 0.0, 1.0, False,
        lambda t: ex.Multiply(t, std_frame.chart.parse("1/2 - z")),
    )
    with pytest.raises(GeometryError, match="negative rotation") as distinct:
        minimal_twisting_number(falling, std_frame, MTW_PLAN)
    _develop_every_sample_row(monkeypatch)
    with pytest.raises(GeometryError, match="negative rotation") as full:
        minimal_twisting_number(falling, std_frame, MTW_PLAN)
    assert str(distinct.value) == str(full.value)
    assert "at base point [-1.0, -1.0, 1.0];" in str(full.value)


# ---------------------------------------------------------------------------
# induced line fields


def test_induced_line_at_fiber_start(std_frame):
    pe = prolong(std_frame, 2)
    line = induced_legendrian_line(pe, std_frame, 0.0)
    assert not line.symbolic
    # the line of V0, read from the frame: its angle is 0 mod pi
    table = line.tabulate(ch.sample_points(std_frame.chart, PLAN))
    np.testing.assert_allclose(np.abs(table[:, 0]), 1.0, atol=1e-12)
    np.testing.assert_allclose(table[:, 1], 0.0, atol=1e-12)


def test_induced_line_quarter_fiber(std_frame):
    pe = prolong(std_frame, 2)
    line = induced_legendrian_line(pe, std_frame, math.pi / 2)
    pts = np.zeros((1, 3))
    table = line.tabulate(pts)
    np.testing.assert_allclose(table[0], [math.cos(math.pi / 2), 1.0], atol=1e-12)


def test_induced_line_extension_ends(std_frame):
    g = ex.Constant(1.0)
    spec = ExtensionSpec(frame=std_frame, n=1, g=g)
    dist = extend(spec, PLAN)
    end = induced_legendrian_line(dist, std_frame, 1.0)
    target = LegendrianLineField(
        std_frame.chart,
        std_frame,
        a=ex.Cos(ex.Constant(1.0)),
        b=ex.Sin(ex.Constant(1.0)),
    )
    assert line_angle_distance(end, target, PLAN) <= 1e-9


def test_induced_line_numeric_fallback(std_frame):
    pe = prolong(std_frame, 1)
    line = induced_legendrian_line(pe, std_frame, math.pi / 3)
    assert not line.symbolic
    # the prolongation rotates V0 through half the fiber angle
    angle = ex.Constant(math.pi / 6)
    reference = LegendrianLineField(std_frame.chart, std_frame, a=ex.Cos(angle), b=ex.Sin(angle))
    assert line_angle_distance(line, reference, PLAN) <= 1e-9


# ---------------------------------------------------------------------------
# line distances


def test_line_distance_to_self(std_frame):
    line = LegendrianLineField(std_frame.chart, std_frame, a=ex.ONE, b=ex.ZERO)
    assert line_angle_distance(line, line, PLAN) == 0.0


def test_line_distance_orthogonal(std_frame):
    l1 = LegendrianLineField(std_frame.chart, std_frame, a=ex.ONE, b=ex.ZERO)
    l2 = LegendrianLineField(std_frame.chart, std_frame, a=ex.ZERO, b=ex.ONE)
    assert line_angle_distance(l1, l2, PLAN) == pytest.approx(math.pi / 2)


def test_line_distance_projective(std_frame):
    l1 = LegendrianLineField(std_frame.chart, std_frame, a=ex.ONE, b=ex.ZERO)
    l2 = LegendrianLineField(
        std_frame.chart, std_frame, a=ex.Constant(-1.0), b=ex.ZERO
    )
    assert line_angle_distance(l1, l2, PLAN) <= 1e-15


def test_line_field_rejects_vanishing_pair(std_frame):
    line = LegendrianLineField(
        std_frame.chart, std_frame, a=ex.Variable("x"), b=ex.Variable("x")
    )
    pts = np.zeros((1, 3))
    with pytest.raises(GeometryError):
        line.tabulate(pts)
