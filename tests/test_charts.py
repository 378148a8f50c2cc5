import collections
import math

import numpy as np
import pytest
from conftest import chart_from_box
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc.charts import (
    ChartMismatchError,
    DimensionError,
    GeometryError,
    SamplePlan,
    coordinate_field,
    exterior_derivative,
    fd_lie_bracket,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    parse_one_form,
    sample_points,
    vector_field,
    wedge,
)


# ---------------------------------------------------------------------------
# chart and sampling


def test_chart_rejects_duplicate_names():
    with pytest.raises(GeometryError):
        chart_from_box({"x": (-1, 1)} | {}, periodic=())  # dim 1
    with pytest.raises(GeometryError, match="distinct"):
        ch.Chart(
            (
                ch.CoordinateAxis("x", 0, 1),
                ch.CoordinateAxis("x", 0, 1),
                ch.CoordinateAxis("z", 0, 1),
            )
        )


def test_chart_dimension_bounds():
    with pytest.raises(DimensionError):
        chart_from_box({"a": (0, 1), "b": (0, 1)})
    with pytest.raises(DimensionError):
        chart_from_box({n: (0, 1) for n in "abcde"})


def test_periodic_axis_needs_positive_period():
    with pytest.raises(GeometryError):
        ch.CoordinateAxis("t", 0.0, 0.0, periodic=True)


def test_grid_corners():
    chart = chart_from_box({"x": (0, 1), "y": (0, 1), "z": (0, 1)})
    pts = sample_points(chart, SamplePlan(grid=2, random=0, seed=0))
    assert pts.shape == (8, 3)
    assert sorted(map(tuple, pts)) == sorted(
        [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    )


def test_grid_counts_on_four_axes(box4):
    pts = sample_points(box4, SamplePlan(grid=5, random=0, seed=0))
    assert pts.shape == (625, 4)


def test_sampling_deterministic(box3):
    plan = SamplePlan(grid=3, random=40, seed=9)
    a = sample_points(box3, plan)
    b = sample_points(box3, plan)
    np.testing.assert_array_equal(a, b)


def test_random_points_are_the_random_rows_of_sample_points(box3, t3):
    plan = SamplePlan(grid=2, random=7, seed=3)
    for chart in (box3, t3):
        rows = ch.random_points(chart, 7, 3)
        np.testing.assert_array_equal(rows, sample_points(chart, plan)[-7:])
    # the twisting number's base points, as drawn before they used this helper
    rng = np.random.default_rng(3)
    lo, hi = np.array([-1.0] * 3), np.array([1.0] * 3)
    np.testing.assert_array_equal(ch.random_points(box3, 7, 3), lo + (hi - lo) * rng.random((7, 3)))


@settings(max_examples=80, deadline=None)
@given(
    grid=st.lists(st.integers(2, 5), min_size=3, max_size=4),
    random=st.integers(0, 6),
    seed=st.integers(0, 2**16),
    read=st.lists(st.booleans(), min_size=4, max_size=4),
    periodic=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_distinct_samples_represent_every_sample_row(grid, random, seed, read, periodic):
    names = "xyzw"[: len(grid)]
    chart = chart_from_box(
        {n: (-1.0, 2.0) for n in names},
        periodic=[n for n, p in zip(names, periodic) if p],
    )
    plan = SamplePlan(grid=tuple(grid), random=random, seed=seed)
    full = sample_points(chart, plan)
    subset = [n for n, r in zip(names, read) if r]
    points, rows = ch.distinct_samples(chart, plan, subset)
    assert np.all(np.diff(rows) > 0)
    np.testing.assert_array_equal(points, full[rows])
    # each sample row i has a row rows[j] <= i with equal read coordinates
    cols = [chart.index(n) for n in subset]
    same = (full[:, None, cols] == points[None, :, cols]).all(axis=2)
    earlier = rows[None, :] <= np.arange(len(full))[:, None]
    assert (same & earlier).any(axis=1).all()
    every_point, every_row = ch.distinct_samples(chart, plan, chart.names)
    np.testing.assert_array_equal(every_row, np.arange(len(full)))
    np.testing.assert_array_equal(every_point, full)


def test_distinct_samples_keep_the_first_grid_value_and_every_random_row(box4):
    plan = SamplePlan(grid=(2, 3, 4, 5), random=3, seed=1)
    points, rows = ch.distinct_samples(box4, plan, {"y", "w"})
    assert rows.tolist() == [20 * j + k for j in range(3) for k in range(5)] + [120, 121, 122]
    assert np.all(points[:15, [0, 2]] == -1.0)
    np.testing.assert_array_equal(points[15:], ch.random_points(box4, 3, 1))


def test_a_constant_frame_has_one_sample_row(box4):
    # values that read no coordinate are the same at every row: row 0 stands for all
    plan = SamplePlan(grid=4, random=1000, seed=3)
    frame = (vector_field(box4, ["1", "0", "2*pi", "0"]), coordinate_field(box4, "w"))
    points, rows = ch.distinct_samples(box4, plan, ch.variables_of(*frame))
    assert rows.tolist() == [0]
    np.testing.assert_array_equal(points, sample_points(box4, plan)[:1])
    # the plan as given still bounds the set and numbers its rows
    with pytest.raises(GeometryError, match=r"random=10000000000.* needs 10000000001 sample rows"):
        ch.distinct_samples(box4, SamplePlan(grid=2, random=10**10), ())
    with pytest.raises(GeometryError, match="too many to number"):
        ch.distinct_samples(box4, SamplePlan(grid=60000, random=1), ())


def _empty_sample_cache(monkeypatch):
    monkeypatch.setattr(ch, "_samples", collections.OrderedDict())
    monkeypatch.setattr(ch, "_sample_rows", 0)


def test_equal_sample_keys_share_one_read_only_set(box4, monkeypatch):
    _empty_sample_cache(monkeypatch)
    plan = SamplePlan(grid=3, random=4, seed=2)
    points, rows = ch.distinct_samples(box4, plan, ("x", "z"))
    # only the chart's own read names form the key: a superset shares it
    again = ch.distinct_samples(box4, plan, {"z", "x", "theta", "u"})
    assert again[0] is points and again[1] is rows
    assert ch.distinct_samples(box4, plan, ("x",))[0] is not points
    full = sample_points(box4, plan)
    assert sample_points(box4, SamplePlan(grid=3, random=4, seed=2)) is full
    for array in (points, rows, full):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the key is the box, not the names: renamed coordinates and a fiber share it
    box = {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "w": (-1, 1)}
    renamed = chart_from_box(dict(zip("abct", box.values())), fiber="t")
    assert ch.distinct_samples(renamed, plan, ("a", "c"))[0] is points
    assert sample_points(renamed, plan) is full
    # a different lo, hi or periodicity on any axis is another set
    for other in (
        chart_from_box(box | {"w": (-2, 1)}),
        chart_from_box(box | {"y": (-1, 2)}),
        chart_from_box(box, periodic=("z",)),
    ):
        assert sample_points(other, plan) is not full
        assert not np.array_equal(sample_points(other, plan), full)


def test_the_sample_cache_evicts_beyond_its_row_bound(box4, monkeypatch):
    _empty_sample_cache(monkeypatch)
    monkeypatch.setattr(ch, "SAMPLE_CACHE_ROWS", 40)
    first = ch.distinct_samples(box4, SamplePlan(grid=4, random=0), ("x", "y"))  # 16 rows
    second = ch.distinct_samples(box4, SamplePlan(grid=5, random=0), ("x", "y"))  # 25 rows
    assert second[0] is ch.distinct_samples(box4, SamplePlan(grid=5, random=0), ("x", "y"))[0]
    assert list(ch._samples.values()) == [second]
    rebuilt = ch.distinct_samples(box4, SamplePlan(grid=4, random=0), ("x", "y"))
    assert rebuilt[0] is not first[0]
    np.testing.assert_array_equal(rebuilt[0], first[0])
    assert ch._sample_rows == sum(len(rows) for _, rows in ch._samples.values()) == 16
    # a set larger than the bound is built but not kept
    big = ch.distinct_samples(box4, SamplePlan(grid=7, random=0), ("x", "y"))  # 49 rows
    assert big[0] is not ch.distinct_samples(box4, SamplePlan(grid=7, random=0), ("x", "y"))[0]
    assert (len(ch._samples), ch._sample_rows) == (0, 0)


def test_an_oversized_sample_set_is_refused_before_it_is_built(box4):
    # 24^4 grid rows and 1000 random rows fit the budget
    points, _ = ch.distinct_samples(box4, SamplePlan(grid=24, random=1000), box4.names)
    assert points.shape == (24**4 + 1000, 4)
    with pytest.raises(GeometryError, match=r"grid=100000.* needs 10000000000 sample rows"):
        ch.distinct_samples(box4, SamplePlan(grid=100000), ("x", "y"))
    with pytest.raises(GeometryError, match=r"random=10000000000.* needs 10000000016 sample rows"):
        sample_points(box4, SamplePlan(grid=2, random=10**10))
    # one read axis fits, but the full sample's rows cannot be numbered
    with pytest.raises(GeometryError, match="too many to number"):
        ch.distinct_samples(box4, SamplePlan(grid=60000, random=1), ("x",))
    # an unread axis takes its first grid value at any resolution
    points, rows = ch.distinct_samples(box4, SamplePlan(grid=(3, 10**12, 3, 3)), ("x",))
    np.testing.assert_array_equal(points[:, 1:], -1.0)
    assert rows.tolist() == [0, 9 * 10**12, 18 * 10**12]


def test_periodic_sampling_half_open(t3):
    pts = sample_points(t3, SamplePlan(grid=4, random=50, seed=1))
    assert np.all(pts >= 0.0)
    assert np.all(pts < 2 * math.pi)


def test_resolution_must_be_at_least_two():
    with pytest.raises(GeometryError):
        SamplePlan(grid=1)


# ---------------------------------------------------------------------------
# vector fields and brackets


def test_field_component_count(box3):
    with pytest.raises(GeometryError):
        ch.VectorField(box3, (ex.ONE, ex.ZERO))


def test_field_unknown_variable(box3):
    with pytest.raises(ex.UnknownIdentifierError):
        vector_field(box3, ["w", "0", "0"])
    with pytest.raises(GeometryError, match="unknown variables"):
        ch.VectorField(box3, (ex.Variable("w"), ex.ZERO, ex.ZERO))


def test_bracket_antisymmetry_on_self(box3):
    x = vector_field(box3, ["x*y", "sin(z)", "1"])
    b = lie_bracket(x, x)
    assert all(c == ex.ZERO for c in b.components)


def test_bracket_standard_contact(box3):
    x = coordinate_field(box3, "z")
    y = vector_field(box3, ["1", "z", "0"])
    b = lie_bracket(x, y)
    assert [ex.to_text(c) for c in b.components] == ["0", "1", "0"]


def test_bracket_standard_kernel(box4):
    x = coordinate_field(box4, "w")
    y = vector_field(box4, ["1", "z", "w", "0"])
    b = lie_bracket(x, y)
    assert [ex.to_text(c) for c in b.components] == ["0", "0", "1", "0"]


def test_bracket_chart_mismatch(box3, box4):
    with pytest.raises(ChartMismatchError):
        lie_bracket(coordinate_field(box3, "x"), coordinate_field(box4, "x"))


def test_fd_bracket_self_is_zero(box3):
    x = vector_field(box3, ["x*y", "sin(z)", "1"])
    out = fd_lie_bracket(x, x, [(0.1, 0.2, 0.3)], 1e-3)
    assert np.max(np.abs(out)) <= 1e-12


def test_fd_bracket_standard_case(box3):
    x = coordinate_field(box3, "z")
    y = vector_field(box3, ["1", "z", "0"])
    out = fd_lie_bracket(x, y, [(0.3, -0.2, 0.7)], 1e-3)
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-6)


def test_fd_bracket_second_order_convergence(t3):
    x = vector_field(t3, ["sin(z)", "cos(z)", "0"])
    y = vector_field(t3, ["cos(x)", "0", "sin(x)"])
    sym = lie_bracket(x, y)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 2 * math.pi, (20, 3))
    exact = sym.evaluate_at(pts)
    errs = {}
    for h in (1e-3, 5e-4):
        fd = fd_lie_bracket(x, y, pts, h)
        for i in range(3):  # each row of the stack is the bracket at its point alone
            np.testing.assert_array_equal(fd_lie_bracket(x, y, pts[i : i + 1], h)[0], fd[i])
        errs[h] = float(np.max(np.abs(fd - exact)))
    assert errs[1e-3] <= 1e-5
    assert 3.5 <= errs[1e-3] / errs[5e-4] <= 4.5


def _bracket_component():
    leaves = st.one_of(
        st.sampled_from([ex.Variable(n) for n in "xyzw"]),
        st.floats(-2.0, 2.0, allow_nan=False).map(ex.Constant),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: ex.Add(*p)),
            st.tuples(children, children).map(lambda p: ex.Subtract(*p)),
            st.tuples(children, children).map(lambda p: ex.Multiply(*p)),
            st.tuples(children, st.integers(0, 3)).map(lambda p: ex.IntPower(*p)),
            children.map(ex.Negate),
            children.map(ex.Sin),
            children.map(ex.Cos),
            children.map(ex.Exp),
        )

    # zero components, such as a coordinate field or a lifted field has
    return st.one_of(st.just(ex.ZERO), st.recursive(leaves, extend, max_leaves=6))


_BRACKET_FIELD = st.tuples(*[_bracket_component()] * 4)


@settings(max_examples=80, deadline=None)
@given(xs=_BRACKET_FIELD, ys=_BRACKET_FIELD)
def test_bracket_of_random_fields_agrees_with_finite_differences(box4, xs, ys):
    x, y = ch.VectorField(box4, xs), ch.VectorField(box4, ys)
    pts = np.random.default_rng(1).uniform(-1.0, 1.0, (8, 4))
    with np.errstate(all="ignore"):
        try:
            sym = lie_bracket(x, y).evaluate_at(pts)
            coarse, fine = (fd_lie_bracket(x, y, pts, h) for h in (2e-4, 1e-4))
        except GeometryError:  # a field or the bracket overflows near the points
            return
    # the fine step's error is about a third of the two steps' difference
    tol = 1e-6 * (1.0 + np.abs(sym)) + np.abs(coarse - fine)
    assert np.all(np.abs(fine - sym) <= tol)


def test_bracket_with_the_fiber_field_differentiates_only_paired_components(box4, monkeypatch):
    calls = collections.Counter()
    derivative = ex.partial_derivative

    def counted(e, name):
        calls[e, name] += 1
        return derivative(e, name)

    monkeypatch.setattr(ex, "partial_derivative", counted)
    fiber = coordinate_field(box4, "w")
    y = vector_field(box4, ["y*cos(w)", "0", "x + sin(w)", "0"])
    bracket = lie_bracket(fiber, y)
    assert [ex.to_text(c) for c in bracket.components] == ["-(sin(w)*y)", "0", "cos(w)", "0"]
    # X^j is nonzero on w alone, so each Y^i is differentiated along w only;
    # Y^j is nonzero on x and z, so each X^i along those two only
    expected = [(c, "w") for c in y.components]
    expected += [(c, n) for c in fiber.components for n in ("x", "z")]
    assert calls == collections.Counter(expected)


def test_jacobi_identity(box3):
    rng = np.random.default_rng(2)
    x = vector_field(box3, ["x*y", "z^2", "1 - x"])
    y = vector_field(box3, ["y*z", "x", "z"])
    z = vector_field(box3, ["x^2", "y", "x*z"])
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    pts = sample_points(box3, SamplePlan(grid=4, random=40, seed=3))
    vals = total.evaluate_at(pts)
    assert np.max(np.abs(vals)) <= 1e-10


# ---------------------------------------------------------------------------
# forms


def test_exterior_derivative_standard(box3):
    alpha = parse_one_form(box3, "dy - z*dx")
    d = exterior_derivative(alpha)
    assert d.terms == (((0, 2), ex.ONE),)


def test_exterior_derivative_constant_form(box4):
    alpha = parse_one_form(box4, "dx + 2*dy")
    assert exterior_derivative(alpha).terms == ()


def test_exterior_derivative_second_standard(box4):
    beta = parse_one_form(box4, "dz - w*dx")
    d = exterior_derivative(beta)
    assert d.terms == (((0, 3), ex.ONE),)


def test_d_squared_vanishes(box4):
    plan = SamplePlan(grid=3, random=30, seed=0)
    pts = sample_points(box4, plan)
    for text in ("dy - z*dx", "cos(z)*dx - sin(z)*dy + x*y*dw", "(x^2 + w)*dz"):
        omega = parse_one_form(box4, text)
        dd = exterior_derivative(exterior_derivative(omega))
        vals = dd.evaluate_at(pts)
        assert np.max(np.abs(vals), initial=0.0) <= 1e-12


def test_wedge_with_self_vanishes(box3):
    dx = parse_one_form(box3, "dx")
    assert wedge(dx, dx).terms == ()


def test_wedge_standard_three_form(box3):
    alpha = parse_one_form(box3, "dy - z*dx")
    dxdz = wedge(parse_one_form(box3, "dx"), parse_one_form(box3, "dz"))
    out = wedge(alpha, dxdz)
    assert out.terms == (((0, 1, 2), ex.Constant(-1)),)


def test_wedge_four_form_sign(box4):
    a = parse_one_form(box4, "dz - w*dx")
    b = parse_one_form(box4, "dy - z*dx")
    dxdw = wedge(parse_one_form(box4, "dx"), parse_one_form(box4, "dw"))
    out = wedge(wedge(a, b), dxdw)
    assert out.terms == (((0, 1, 2, 3), ex.Constant(-1)),)
    # independent check: evaluate against the basis orientation
    pts = sample_points(box4, SamplePlan(grid=2, random=5, seed=0))
    np.testing.assert_allclose(out.evaluate_at(pts)[:, 0], -1.0)


def test_wedge_graded_antisymmetry(box4):
    plan = SamplePlan(grid=3, random=20, seed=4)
    pts = sample_points(box4, plan)
    a = parse_one_form(box4, "cos(z)*dx + x*dy - dw")
    b = parse_one_form(box4, "dz - w*dx")
    two = exterior_derivative(parse_one_form(box4, "x*y*dz + sin(w)*dx"))
    # (1,1): a^b = -b^a ; (1,2): a^two = +two^a
    d11 = wedge(a, b) - wedge(b, a).scaled_by(-1.0)
    d12 = wedge(a, two) - wedge(two, a)
    assert np.max(np.abs(d11.evaluate_at(pts)), initial=0.0) <= 1e-12
    assert np.max(np.abs(d12.evaluate_at(pts)), initial=0.0) <= 1e-12


def test_interior_product_volume_sign(box4):
    vol = ch.volume_form(box4)
    out = interior_product(coordinate_field(box4, "w"), vol)
    assert out.terms == (((0, 1, 2), ex.Constant(-1)),)


def test_interior_product_twice_vanishes(box4):
    x = vector_field(box4, ["x", "1", "z*w", "cos(y)"])
    omega = wedge(
        parse_one_form(box4, "dx + z*dy"), parse_one_form(box4, "dz - w*dx")
    )
    out = interior_product(x, interior_product(x, omega))
    assert all(ex.simplify(c) == ex.ZERO for _, c in out.terms) or out.terms == ()


def test_interior_product_two_form_sign(box4):
    dxdy = wedge(parse_one_form(box4, "dx"), parse_one_form(box4, "dy"))
    out = interior_product(coordinate_field(box4, "y"), dxdy)
    assert out.terms == (((0,), ex.Constant(-1)),)


def test_lie_derivative_kills_invariant_form(box4):
    beta = parse_one_form(box4, "dy - z*dx")
    out = lie_derivative_form(coordinate_field(box4, "w"), beta)
    assert out.terms == ()


def test_lie_derivative_commutes_with_d_on_scalars(box3):
    g = box3.parse("x*y")
    x = coordinate_field(box3, "x")
    dg = exterior_derivative(ch.KForm(box3, 0, (((), g),)))
    lhs = lie_derivative_form(x, dg)
    rhs = exterior_derivative(ch.KForm(box3, 0, (((), ch.interior_product(x, dg).coeff(())),)))
    assert lhs.terms == rhs.terms == (((1,), ex.ONE),)


def test_lie_derivative_needs_a_form_of_middle_degree(box3):
    x = coordinate_field(box3, "x")
    function = ch.KForm(box3, 0, (((), box3.parse("x*y")),))
    with pytest.raises(DimensionError, match="interior product"):
        lie_derivative_form(x, function)
    volume = ch.KForm(box3, 3, (((0, 1, 2), ex.ONE),))
    with pytest.raises(DimensionError, match="exterior derivative"):
        lie_derivative_form(x, volume)


def test_lie_derivative_leibniz_rescaling(box4):
    """L_{fX} w - f*L_X w = df ^ (X . w), checked numerically."""
    f = box4.parse("1 + x^2/4")
    x = vector_field(box4, ["z", "1", "x*y", "cos(w)"])
    omega = wedge(parse_one_form(box4, "dx + w*dy"), parse_one_form(box4, "dz"))
    lhs = lie_derivative_form(x.scaled_by(f), omega) - lie_derivative_form(
        x, omega
    ).scaled_by(f)
    rhs = wedge(exterior_derivative(ch.KForm(box4, 0, (((), f),))), interior_product(x, omega))
    pts = sample_points(box4, SamplePlan(grid=2, random=20, seed=8))
    assert np.max(np.abs((lhs - rhs).evaluate_at(pts)), initial=0.0) <= 1e-9


# ---------------------------------------------------------------------------
# 1-form parsing


def test_parse_one_form_round_trip(box4):
    for text in ("dy - z*dx", "cos(z)*dx - sin(z)*dy", "(1 + x)*dz + dw"):
        form = parse_one_form(box4, text)
        again = parse_one_form(box4, ch.one_form_to_text(form))
        assert again.terms == form.terms


def test_parse_one_form_rejects_scalar_part(box3):
    with pytest.raises(GeometryError, match="scalar part"):
        parse_one_form(box3, "dy + 1")


def test_parse_one_form_rejects_nonlinear(box3):
    with pytest.raises(GeometryError, match="linear"):
        parse_one_form(box3, "dx*dy")
    with pytest.raises(GeometryError, match="linear"):
        parse_one_form(box3, "dx^2")

