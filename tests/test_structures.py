import functools
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import built, chart_from_box

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc.charts import (
    GeometryError,
    SamplePlan,
    coordinate_field,
    parse_one_form,
    sample_points,
    vector_field,
    volume_form,
    wedge,
)
from engelcalc.extension import ExtensionSpec, verify_extension_identities
from engelcalc.prolongation import ContactFrame, fiber_characteristic_annihilator, prolong
from engelcalc.structures import (
    DimensionError,
    Distribution2,
    EngelPair,
    RankDeficiencyError,
    annihilator_1form,
    characteristic_vector_field,
    check_characteristic,
    check_contact_3d,
    check_engel_frame,
    check_engel_pair,
    check_even_contact,
    check_twisting_condition,
)

PLAN = SamplePlan(grid=4, random=60, seed=0)

# the [-1, 1]^4 box of the box4 fixture, with w, and then x, as its fiber
BOX = {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "w": (-1, 1)}
FIBER_W = chart_from_box(BOX, fiber="w")
FIBER_X = chart_from_box(BOX, fiber="x")


def _std_kernel(chart, y="1; z; w; 0") -> Distribution2:
    """The standard pair's kernel frame {d/dw, d/dx + z d/dy + w d/dz} on a
    fibred copy of the box, or with another second field."""
    return Distribution2(chart, coordinate_field(chart, "w"), vector_field(chart, y.split(";")))


# ---------------------------------------------------------------------------
# contact


def test_contact_standard_passes(box3):
    alpha = parse_one_form(box3, "dy - z*dx")
    rep = check_contact_3d(alpha, PLAN)
    assert rep.passed
    assert rep.witnesses["min_abs"] == pytest.approx(1.0)
    assert rep.witnesses["max_abs"] == pytest.approx(1.0)


def test_contact_exact_form_fails(box3):
    rep = check_contact_3d(parse_one_form(box3, "dy"), PLAN)
    assert not rep.passed


def test_contact_torus_passes(t3):
    rep = check_contact_3d(parse_one_form(t3, "cos(z)*dx - sin(z)*dy"), PLAN)
    assert rep.passed
    assert rep.witnesses["min_over_max"] == pytest.approx(1.0)


def test_contact_wrong_dimension(box4):
    with pytest.raises(DimensionError):
        check_contact_3d(parse_one_form(box4, "dy - z*dx"), PLAN)


# ---------------------------------------------------------------------------
# even-contact


def test_even_contact_standard(box4):
    assert check_even_contact(parse_one_form(box4, "dy - z*dx"), PLAN).passed


def test_even_contact_exact_fails(box4):
    assert not check_even_contact(parse_one_form(box4, "dy"), PLAN).passed


def test_even_contact_second_form(box4):
    assert check_even_contact(parse_one_form(box4, "dz - w*dx"), PLAN).passed


# ---------------------------------------------------------------------------
# pairs


def test_engel_pair_standard_order(std_pair_forms):
    alpha, beta = std_pair_forms
    rep = check_engel_pair(EngelPair(alpha, beta), PLAN)
    assert rep.passed
    assert rep.witnesses["condition1_min_over_max"] >= 0.5
    assert rep.witnesses["condition2_max_abs"] <= 1e-12


def test_engel_pair_swapped_order_fails_condition_one(std_pair_forms):
    alpha, beta = std_pair_forms
    rep = check_engel_pair(EngelPair(beta, alpha), PLAN)
    assert not rep.passed
    assert rep.witnesses["condition1_max_abs"] <= 1e-12  # condition (1) fails


def test_engel_pair_degenerate(std_pair_forms):
    alpha, _ = std_pair_forms
    rep = check_engel_pair(EngelPair(alpha, alpha), PLAN)
    assert not rep.passed
    assert rep.witnesses["condition1_max_abs"] == 0.0  # alpha ^ alpha = 0


def test_engel_pair_auto_orient_reports_both(std_pair_forms):
    alpha, beta = std_pair_forms
    rep = check_engel_pair(EngelPair(beta, alpha), PLAN)
    assert not rep.passed
    assert any("swapped order (beta, alpha): pass" in n for n in rep.notes)
    assert any("given order (alpha, beta): fail" in n for n in rep.notes)


def _placed_items(monkeypatch) -> list:
    """Records each item the condition engine lays out in its evaluation
    block, once per placement."""
    from engelcalc import structures

    calls, components = [], structures._components

    def placing(item):
        calls.append(item)
        return components(item)

    monkeypatch.setattr(structures, "_components", placing)
    return calls


def test_the_engel_pair_evaluates_each_form_once(std_pair_forms, monkeypatch):
    # the given and the swapped order share alpha and beta, which scale
    # condition 2 in both orders, and alpha ^ beta ^ d(alpha) and
    # alpha ^ beta ^ d(beta), whose norms are those of beta ^ alpha ^ d(.):
    # four witnesses and four scales
    alpha, beta = std_pair_forms
    calls = _placed_items(monkeypatch)
    check_engel_pair(EngelPair(alpha, beta), PLAN)
    assert [f for f in calls if f is alpha] == [alpha]
    assert [f for f in calls if f is beta] == [beta]
    assert len(set(map(id, calls))) == len(calls) == 8


# ---------------------------------------------------------------------------
# frames


def test_engel_frame_standard_kernel(box4, std_kernel_frame):
    d = Distribution2(box4, *std_kernel_frame)
    rep = check_engel_frame(d, PLAN)
    assert rep.passed
    assert rep.witnesses["rank_step1_min"] == rep.witnesses["rank_step1_max"] == 3
    assert rep.witnesses["rank_step2_min"] == rep.witnesses["rank_step2_max"] == 4


def test_engel_frame_integrable_fails(box4):
    d = Distribution2(box4, coordinate_field(box4, "x"), coordinate_field(box4, "y"))
    rep = check_engel_frame(d, PLAN)
    assert not rep.passed
    assert rep.witnesses["rank_step1_max"] == 2


def test_engel_frame_fails_at_the_second_step(box4):
    # (X, Y, [X, Y]) spans d/dw, d/dx and d/dz everywhere, but the second
    # brackets stay in that span: [X, [X, Y]] = -Y/4 and [Y, [X, Y]] = 0
    x = coordinate_field(box4, "w")
    y = vector_field(box4, ["sin(w/2)", "0", "cos(w/2)", "0"])
    rep = check_engel_frame(Distribution2(box4, x, y), PLAN)
    assert not rep.passed
    assert rep.witnesses["rank_step1_min"] == 3
    assert rep.witnesses["rank_step2_max"] == 3
    assert rep.first_failure["sample_index"] == 0
    assert rep.first_failure["rank_step2"] == 3


def test_engel_frame_prolonged(std_frame):
    d = prolong(std_frame, 2)
    assert check_engel_frame(d, PLAN).passed


def test_pair_and_kernel_frame_verdicts_agree(box4, std_pair_forms, std_kernel_frame):
    """Pair conditions and derived-rank conditions accept the same fixtures."""
    alpha, beta = std_pair_forms
    cases = [
        (EngelPair(alpha, beta), Distribution2(box4, *std_kernel_frame)),
        # coordinate-permuted image of the standard pair and its kernel
        (
            EngelPair(
                parse_one_form(box4, "dx - y*dz"), parse_one_form(box4, "dw - x*dz")
            ),
            Distribution2(
                box4,
                coordinate_field(box4, "y"),
                vector_field(box4, ["y", "0", "1", "x"]),
            ),
        ),
        (
            EngelPair(parse_one_form(box4, "dz"), parse_one_form(box4, "dy")),
            Distribution2(
                box4, coordinate_field(box4, "x"), coordinate_field(box4, "w")
            ),
        ),
    ]
    for pair, dist in cases:
        # the kernel frame really is the pair's common kernel
        for form in (pair.alpha, pair.beta):
            for fieldobj in dist.frame:
                assert ch.interior_product(fieldobj, form).coeff(()) == ex.ZERO
        assert check_engel_pair(pair, PLAN).passed == check_engel_frame(dist, PLAN).passed


# ---------------------------------------------------------------------------
# derived square (X, Y, [X, Y]) and annihilator


def test_derived_square_standard():
    # (d/dw, Y, [d/dw, Y] = d/dz) has rank 3 everywhere, and its minors
    # give beta = z dx - dy
    frame, beta, char = check_characteristic(_std_kernel(FIBER_W), PLAN)
    assert frame.passed and frame.witnesses["rank_min"] == frame.witnesses["rank_max"] == 3
    assert [(key, ex.to_text(c)) for key, c in beta.terms] == [((0,), "z"), ((1,), "-1")]
    assert char.passed


def test_derived_square_integrable_errors():
    d = Distribution2(FIBER_W, coordinate_field(FIBER_W, "x"), coordinate_field(FIBER_W, "y"))
    frame, _, char = check_characteristic(d, PLAN)
    assert not frame.passed and frame.witnesses["rank_max"] == 2
    assert char is None
    with pytest.raises(RankDeficiencyError, match="derived distribution has rank 2"):
        fiber_characteristic_annihilator(d, PLAN)


def test_derived_square_prolonged_third_vector(std_frame):
    """For the 1-fold prolongation the bracket is the quarter-turned frame
    combination scaled by one half."""
    pe = prolong(std_frame, 1)
    assert check_characteristic(pe, PLAN)[0].passed
    xy = ch.lie_bracket(pe.x, pe.y)
    chart = pe.chart
    pts = sample_points(chart, SamplePlan(grid=3, random=10, seed=2))
    got = xy.evaluate_at(pts)
    theta = pts[:, 3]
    v0 = np.stack([np.zeros_like(theta), np.zeros_like(theta), np.ones_like(theta)], 1)
    v1 = np.stack([np.ones_like(theta), pts[:, 2], np.zeros_like(theta)], 1)
    expected_base = 0.5 * (
        -np.sin(theta / 2)[:, None] * v0 + np.cos(theta / 2)[:, None] * v1
    )
    np.testing.assert_allclose(got[:, :3], expected_base, atol=1e-12)
    np.testing.assert_allclose(got[:, 3], 0.0, atol=1e-12)


def test_annihilator_standard_kernel():
    _, beta, _ = check_characteristic(_std_kernel(FIBER_W), PLAN)
    # proportional to dy - z*dx: cross-coefficients cancel at samples
    pts = sample_points(FIBER_W, PLAN)
    vals = beta.evaluate_at(pts)
    reference = parse_one_form(FIBER_W, "dy - z*dx").evaluate_at(pts)
    cross = vals[:, :, None] * reference[:, None, :]
    assert np.max(np.abs(cross - cross.transpose(0, 2, 1))) <= 1e-12


def test_annihilator_coordinate_frame(box4):
    frame = tuple(coordinate_field(box4, n) for n in ("x", "y", "z"))
    beta = annihilator_1form(frame)
    assert [key for key, _ in beta.terms] == [(3,)]


def test_annihilator_evaluates_each_field_once(monkeypatch):
    # the frame once for its ranks, then X, Y and [X, Y] once each as pairing
    # members and scales, and the fiber field once
    calls = _placed_items(monkeypatch)
    check_characteristic(_std_kernel(FIBER_W), PLAN)
    fields = [f for f in calls if isinstance(f, ch.VectorField)]
    assert len(set(map(id, fields))) == len(fields) == 4
    assert len(set(map(id, calls))) == len(calls)


def test_annihilator_prolonged_has_no_fiber_term(std_frame):
    pe = prolong(std_frame, 2)
    _, beta, _ = check_characteristic(pe, PLAN)
    fiber_idx = pe.chart.index(pe.chart.fiber)
    assert ex.simplify(beta.coeff((fiber_idx,))) == ex.ZERO


def test_the_annihilator_of_a_frame_rescaled_over_decades_passes():
    # exp(5x) on both fields puts exp(15x) on |beta|, 13 decades over the
    # box: only an exact 0 of |beta| is a rank drop, not a small ratio
    scale = FIBER_W.parse("exp(5*x)")
    plain = _std_kernel(FIBER_W)
    d = Distribution2(FIBER_W, plain.x.scaled_by(scale), plain.y.scaled_by(scale))
    _, beta, char = check_characteristic(d, PLAN)
    norms = np.linalg.norm(beta.evaluate_at(sample_points(FIBER_W, PLAN)), axis=1)
    assert norms.max() / norms.min() > 1e12
    assert char.passed


def test_an_annihilator_that_underflows_at_full_rank_is_a_rank_drop():
    # every field is about 1e-110 long on a fiber 1e-110 wide, so (X, Y,
    # [X, Y]) has rank 3, but beta = 1e-330 (z dx - dy) underflows to 0
    chart = chart_from_box({**BOX, "w": (0, 1e-110)}, fiber="w")
    d = Distribution2(
        chart, vector_field(chart, ["0", "0", "0", "1e-110"]),
        vector_field(chart, ["1e-110", "1e-110*z", "w", "0"]),
    )
    with pytest.raises(RankDeficiencyError, match=re.escape("frame drops rank at sample point [-1.0, -1.0, -1.0, 0.0]")):
        check_characteristic(d, PLAN)


def test_a_pairing_witness_pairs_the_evaluated_form_and_field(box4):
    from engelcalc import structures

    beta = parse_one_form(box4, "dy - z*dx")
    x = coordinate_field(box4, "x")  # beta(d/dx) = -z
    paired = structures.Condition((beta, x), "zero", scale=(beta, x))
    (rep,) = structures._judge(box4, PLAN, structures.DEFAULT_TOLERANCES, paired)
    pts = sample_points(box4, PLAN)
    worst = int(np.argmax(np.abs(pts[:, 2])))
    assert not rep.passed
    assert rep.witnesses["max_abs"] == abs(pts[worst, 2])
    assert rep.first_failure["point"] == pts[worst].tolist()


# ---------------------------------------------------------------------------
# characteristic field


def test_characteristic_field_standard(box4):
    beta = parse_one_form(box4, "dy - z*dx")
    x0 = characteristic_vector_field(beta, volume_form(box4), PLAN)
    assert [ex.to_text(c) for c in x0.components] == ["0", "0", "0", "1"]


def test_characteristic_field_second_form_fixed_by_contraction(box4):
    beta = parse_one_form(box4, "dz - w*dx")
    x0 = characteristic_vector_field(beta, volume_form(box4), PLAN)
    # sign pinned by the defining contraction identity, verified internally
    assert [ex.to_text(c) for c in x0.components] == ["0", "1", "0", "0"]
    lhs = ch.interior_product(x0, volume_form(box4))
    rhs = wedge(beta, ch.exterior_derivative(beta))
    pts = sample_points(box4, PLAN)
    assert np.max(np.abs((lhs - rhs).evaluate_at(pts))) <= 1e-12


def test_characteristic_field_scales_inversely_with_volume(box4):
    beta = parse_one_form(box4, "dy - z*dx")
    x0 = characteristic_vector_field(beta, volume_form(box4), PLAN)
    x0_half = characteristic_vector_field(beta, volume_form(box4, 2.0), PLAN)
    pts = sample_points(box4, SamplePlan(grid=2, random=10, seed=0))
    np.testing.assert_allclose(
        x0_half.evaluate_at(pts), 0.5 * x0.evaluate_at(pts), atol=1e-14
    )


def test_check_characteristic_standard():
    _, _, rep = check_characteristic(_std_kernel(FIBER_W), PLAN)
    assert rep.passed
    assert rep.witnesses["lie_wedge_max"] <= 1e-12


def test_check_characteristic_wrong_direction_fails():
    # declared with fiber x, the frame's annihilator z dx - dy pairs with d/dx
    # to z, nonzero at generic samples
    frame, _, rep = check_characteristic(_std_kernel(FIBER_X), PLAN)
    assert frame.passed and not rep.passed
    assert rep.witnesses["kernel_pairing_max"] == 1.0


def test_check_characteristic_scale_invariant():
    plain = _std_kernel(FIBER_W)
    scaled = Distribution2(FIBER_W, plain.x.scaled_by(FIBER_W.parse("1 + x^2")), plain.y)
    assert check_characteristic(scaled, PLAN)[2].passed


# ---------------------------------------------------------------------------
# chained structure properties


def test_engel_chain_frame_to_characteristic(std_frame, t3_frame):
    """Rank conditions imply the even-contact annihilator and a characteristic
    field along the fiber, for every passing fixture."""
    fixtures = [
        _std_kernel(FIBER_W),
        prolong(std_frame, 1),
        prolong(std_frame, 3),
        prolong(t3_frame, 2),
    ]
    for d in fixtures:
        frame, beta, char = check_characteristic(d, PLAN, engel=True)
        assert frame == check_engel_frame(d, PLAN) and frame.passed
        assert char.passed
        assert check_even_contact(beta, PLAN).passed
        x0 = characteristic_vector_field(beta, volume_form(d.chart), PLAN)
        # parallel to the fiber field, which passed the characteristic check
        values = x0.evaluate_at(sample_points(d.chart, PLAN))
        fiber_idx = d.chart.index(d.chart.fiber)
        assert np.min(np.abs(values[:, fiber_idx])) > 0.0
        assert np.max(np.abs(np.delete(values, fiber_idx, axis=1))) <= 1e-12


def test_rank_verdicts_invariant_under_rescaling(box4, std_kernel_frame):
    scale = box4.parse("1 + x^2/4")
    x, y = std_kernel_frame
    plain = check_engel_frame(Distribution2(box4, x, y), PLAN)
    scaled = check_engel_frame(
        Distribution2(box4, x.scaled_by(scale), y.scaled_by(scale)), PLAN
    )
    assert plain.passed == scaled.passed
    for key in ("rank_step1_min", "rank_step1_max", "rank_step2_min", "rank_step2_max"):
        assert plain.witnesses[key] == scaled.witnesses[key]


def test_twisting_condition_matches_engel_verdict(box4, std_kernel_frame, std_frame):
    """Rank 3 of (X0, V, [X0, V]) at all samples iff the frame check passes,
    for plane fields containing the characteristic direction of ker(dy - z dx)."""
    x0 = coordinate_field(box4, "w")
    pe1 = prolong(std_frame, 1)
    positives = [std_kernel_frame[1]]
    negatives = [coordinate_field(box4, "z"), vector_field(box4, ["1", "z", "0", "0"])]
    for v in positives:
        rep = check_twisting_condition(x0, v, PLAN)
        engel = check_engel_frame(Distribution2(box4, x0, v), PLAN).passed
        assert rep.passed == (rep.witnesses["rank_min"] == 3) == engel is True
    for v in negatives:
        rep = check_twisting_condition(x0, v, PLAN)
        engel = check_engel_frame(Distribution2(box4, x0, v), PLAN).passed
        assert rep.witnesses["rank_min"] < 3 and not rep.passed and not engel
    # prolonged case: characteristic is the fiber direction
    xf = coordinate_field(pe1.chart, pe1.chart.fiber)
    rep = check_twisting_condition(xf, pe1.y, PLAN)
    assert rep.passed and check_engel_frame(pe1, PLAN).passed


# ---------------------------------------------------------------------------
# checks sample only the points that differ in the coordinates they read


def _full_sample(chart, plan, names):
    pts = sample_points(chart, plan)
    return pts, np.arange(len(pts))


def _outcome(run):
    try:
        out = run()
    except GeometryError as err:
        return f"{type(err).__name__}: {err}"
    return out


def _field(chart, *components):
    return vector_field(chart, list(components))


GRID5 = SamplePlan(grid=5, random=30, seed=4)

# Each case fails (or raises) at a sample row whose read coordinates first
# appear away from row 0, so its sample index is a row number of the full
# sample, not a position among the distinct points.
DISTINCT_CASES = {
    "contact, z read": lambda b3, b4: check_contact_3d(
        parse_one_form(b3, "dy - z*z*dx"), SamplePlan(grid=7, random=0, seed=0)
    ),
    "contact, x read": lambda b3, b4: check_contact_3d(
        parse_one_form(b3, "dz - x*x*dy"), SamplePlan(grid=7, random=20, seed=0)
    ),
    "even contact": lambda b3, b4: check_even_contact(
        parse_one_form(b4, "dy - x*x*dz"), GRID5
    ),
    "engel pair": lambda b3, b4: check_engel_pair(
        EngelPair(parse_one_form(b4, "dz - w*dx"), parse_one_form(b4, "dy - z*z*dx")),
        GRID5,
    ),
    "engel frame": lambda b3, b4: check_engel_frame(
        Distribution2(b4, _field(b4, "0", "0", "1", "0"), _field(b4, "1", "z*z/2", "0", "0")),
        GRID5,
    ),
    "plane rank": lambda b3, b4: Distribution2(
        b4, _field(b4, "1", "0", "0", "0"), _field(b4, "1", "z", "0", "0")
    ).validate_rank(GRID5),
    "derived square": lambda b3, b4: check_characteristic(
        Distribution2(
            FIBER_W, _field(FIBER_W, "0", "0", "1", "0"), _field(FIBER_W, "1", "z*z/2", "0", "0")
        ),
        GRID5,
        engel=True,
    ),
    # beta = (1 - z*z) dx - dy pairs with the fiber d/dx to 1 - z*z, largest at z = 0
    "annihilator": lambda b3, b4: fiber_characteristic_annihilator(
        _std_kernel(FIBER_X, "1; 1 - z*z; w; 0"), GRID5
    ),
    "characteristic field": lambda b3, b4: characteristic_vector_field(
        parse_one_form(b4, "dy - z*dx"), volume_form(b4, b4.parse("x")), GRID5
    ),
    "characteristic": lambda b3, b4: check_characteristic(
        _std_kernel(FIBER_X, "1; 1 - z*z; w; 0"), GRID5
    ),
    "twisting ranks": lambda b3, b4: check_twisting_condition(
        _field(b4, "0", "0", "1", "0"), _field(b4, "1", "z*z/2", "0", "0"), GRID5
    ),
    "contact frame": lambda b3, b4: ContactFrame(
        b3, coordinate_field(b3, "z"), _field(b3, "x*z", "1", "0")
    ).validate(GRID5),
    "angle minimum": lambda b3, b4: ExtensionSpec(
        ContactFrame(b3, coordinate_field(b3, "z"), _field(b3, "1", "z", "0")),
        0,
        g=b3.parse("1/x"),
    ).angle_expression(GRID5),
    "extension identities": lambda b3, b4: verify_extension_identities(
        ExtensionSpec(
            ContactFrame(b3, coordinate_field(b3, "z"), _field(b3, "1", "z", "0")),
            1,
            g=b3.parse("1 + x*x/4"),
        ),
        GRID5,
    ),
}


@pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
def test_checks_on_distinct_points_match_the_full_sample(case, box3, box4, monkeypatch):
    from engelcalc import structures

    run = functools.partial(DISTINCT_CASES[case], box3, box4)
    distinct = _outcome(run)
    # every case, the contact frame and the angle minimum included, samples
    # through structures._judge
    monkeypatch.setattr(structures, "distinct_samples", _full_sample)
    assert _outcome(run) == distinct


@pytest.mark.parametrize(
    "text, index, point",
    [("dy - z*z*dx", 3, [-1.0, -1.0, 0.0]), ("dz - x*x*dy", 147, [0.0, -1.0, -1.0])],
)
def test_contact_failure_names_its_row_of_the_full_sample(box3, text, index, point):
    rep = check_contact_3d(parse_one_form(box3, text), SamplePlan(grid=7, random=20, seed=0))
    assert not rep.passed
    assert rep.first_failure["sample_index"] == index
    assert rep.first_failure["point"] == point
    assert sample_points(box3, SamplePlan(grid=7)).tolist()[index] == point


# ---------------------------------------------------------------------------
# which row a failing check names

GRID5_ONLY = SamplePlan(grid=5, random=0)


def test_a_rank_check_fails_at_the_first_row_of_its_lowest_rank(box4):
    # X = d/dz, Y = x d/dx + (z^2/2) d/dy: (X, Y, [X, Y]) first falls short
    # at row 10 (x = -1, z = 0, rank 2), and is lowest at row 260 (x = z = 0,
    # where Y vanishes: rank 1)
    d = Distribution2(FIBER_W, coordinate_field(FIBER_W, "z"), _field(FIBER_W, "x", "z*z/2", "0", "0"))
    rep = check_engel_frame(d, GRID5_ONLY)
    assert rep.first_failure["sample_index"] == 260
    assert rep.first_failure["rank_step1"] == 1
    with pytest.raises(RankDeficiencyError, match=re.escape("rank 1 at sample point [0.0, -1.0, 0.0, -1.0]")):
        fiber_characteristic_annihilator(d, GRID5_ONLY)


def test_a_contact_frame_fails_at_the_first_row_where_either_rank_is_short(box3):
    # V0 = d/dz, V1 = x d/dx + (z^2/2) d/dy: the bracket is short first at
    # row 2 (x = -1, z = 0), where the plane still has rank 2; both ranks are
    # lowest at row 52 (x = z = 0)
    frame = ContactFrame(box3, coordinate_field(box3, "z"), _field(box3, "x", "z*z/2", "0"))
    rep = frame.validate(GRID5_ONLY)
    assert rep.first_failure["sample_index"] == 2
    assert rep.first_failure["rank_plane"] == 2
    assert rep.first_failure["rank_with_bracket"] == 2


def test_all_deficient_stack_is_ranked_by_one_svd_and_never_certified(monkeypatch):
    from engelcalc import structures

    rng = np.random.default_rng(2)
    mats = rng.standard_normal((1000, 4, 3))
    mats[:, :, 2] = mats[:, :, 0] + mats[:, :, 1]
    ranked = []
    svd_ranks = structures._svd_ranks

    def counting(stack, ratio):
        ranked.append(len(stack))
        return svd_ranks(stack, ratio)

    monkeypatch.setattr(structures, "_svd_ranks", counting)
    monkeypatch.setattr(structures, "_certified", lambda G, ends: pytest.fail("certified"))
    ranks, _ = structures.matrix_ranks(mats, 1e-7)
    assert np.all(ranks == 2)
    assert ranked == [1000]


# ---------------------------------------------------------------------------
# one evaluation program per check


def _pole(chart, point) -> ex.ScalarExpr:
    """1 / |p - point|^2, which is infinite at ``point`` alone."""
    terms = [
        ex.IntPower(ex.Subtract(ex.Variable(name), ex.Constant(c)), 2)
        for name, c in zip(chart.names, point)
    ]
    total = terms[0]
    for term in terms[1:]:
        total = ex.Add(total, term)
    return ex.Divide(ex.ONE, total)


def test_a_non_finite_value_names_the_first_items_point_not_the_first_row(box4):
    from engelcalc import structures
    from engelcalc.charts import distinct_samples

    pts, _ = distinct_samples(box4, PLAN, frozenset(box4.names))
    early, late = pts[5].tolist(), pts[200].tolist()
    first = ch.VectorField(box4, (_pole(box4, late), 0, 0, 0))
    second = ch.VectorField(box4, (_pole(box4, early), 0, 0, 0))

    def judge(*fields):
        conditions = (structures.Condition(f, "nonvanishing") for f in fields)
        structures._judge(box4, PLAN, structures.DEFAULT_TOLERANCES, *conditions)

    with pytest.raises(GeometryError, match=re.escape(f"non-finite value at sample point {early}")):
        judge(second)
    # evaluated in one block with the first item, the second is still checked second
    with pytest.raises(GeometryError, match=re.escape(f"non-finite value at sample point {late}")):
        judge(first, second)


def test_a_condition_whose_gate_failed_is_neither_checked_nor_reported(box4):
    from engelcalc import structures
    from engelcalc.charts import distinct_samples

    pts, _ = distinct_samples(box4, PLAN, frozenset(box4.names))
    x, y = coordinate_field(box4, "x"), coordinate_field(box4, "y")
    pole = ch.VectorField(box4, (_pole(box4, pts[5].tolist()), 0, 0, 0))

    def judge(frame):
        rank = structures.Condition(frame, "rank", rank=3)
        gated = structures.Condition(pole, "nonvanishing", after=rank)
        return structures._judge(box4, PLAN, structures.DEFAULT_TOLERANCES, rank, gated)

    plane, skipped = judge((x, y, x))
    assert not plane.passed and skipped is None
    # where the gate passes, the gated condition's non-finite value is an error
    with pytest.raises(GeometryError, match="non-finite value at sample point"):
        judge((x, y, coordinate_field(box4, "z")))


def test_a_fibred_frame_is_judged_in_one_call(std_frame, monkeypatch):
    from engelcalc import structures

    charts, judge = [], structures._judge
    monkeypatch.setattr(structures, "_judge", lambda *args, **kw: charts.append(args[0]) or judge(*args, **kw))
    d = prolong(std_frame, 3)
    check_characteristic(d, PLAN, engel=True)
    fiber_characteristic_annihilator(d, PLAN)
    assert charts == [d.chart] * 2


def test_an_engel_frame_check_compiles_one_program():
    from engelcalc.manifest import parse_manifest

    text = (Path(__file__).resolve().parents[1] / "manifests" / "prolonged-n1.manifest").read_text()
    manifest = parse_manifest(text)
    dist = built(manifest, "prolonged")
    ex.compile_program.cache_clear()
    assert check_engel_frame(dist, manifest.sampling, manifest.tolerances).passed
    assert ex.compile_program.cache_info().misses == 1


def test_a_check_samples_what_its_conditions_read(monkeypatch):
    # alpha reads z, but alpha ^ d(alpha) = -dx^dy^dz reads no coordinate
    from engelcalc.manifest import parse_manifest

    text = (Path(__file__).resolve().parents[1] / "manifests" / "standard-contact-r3.manifest").read_text()
    manifest = parse_manifest(text)
    alpha = manifest.definitions["alpha"]
    rows, evaluate_many = [], ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many", lambda e, n, pts, **kw: rows.append(len(pts)) or evaluate_many(e, n, pts, **kw))
    assert check_contact_3d(alpha, manifest.sampling, manifest.tolerances).passed
    assert rows == [1]


def test_a_scale_that_reads_another_coordinate_samples_its_grid(box4):
    from engelcalc import structures

    # the witness reads no coordinate; the scale is 0 at row 0 (y = -1) and 2000 at y = 1
    witness = ex.Constant(10 * structures.DEFAULT_TOLERANCES.zero)
    scale = ex.parse_scalar_expr("1000*(y + 1)", box4.names)
    zero = structures.Condition(witness, "zero", scale=(scale,))
    (rep,) = structures._judge(box4, PLAN, structures.DEFAULT_TOLERANCES, zero)
    assert rep.passed
    assert rep.witnesses["scale"] == pytest.approx(1000 * (sample_points(box4, PLAN)[:, 1] + 1).max())


# ---------------------------------------------------------------------------
# the rank layer's per-thread workspace


def _rank_stacks():
    """Stacks that take the Gram path: certified rows, band rows for the SVD,
    and one stack longer than a Gram block."""
    from engelcalc import structures

    rng = np.random.default_rng(4)
    stacks = []
    for shape, n in (((4, 2), 300), ((4, 3), 1256), ((4, 5), structures._GRAM_CHUNK + 700)):
        mats = rng.standard_normal((n, *shape))
        mats[::9, :, -1] = mats[::9, :, 0]  # deficient rows go to the SVD
        stacks.append(mats)
    return stacks


def test_no_returned_rank_array_shares_the_workspace(box4):
    from engelcalc import _kernels, structures

    fields = [coordinate_field(box4, "x"), vector_field(box4, ["1", "z", "w", "0"])]
    pts = sample_points(box4, SamplePlan(grid=6))
    frame = ex.evaluate_many((*fields[0].components, *fields[1].components), box4.names, pts)
    ((frame_ranks, frame_ratios),) = structures._frame_ranks(
        frame.reshape(2, 4, len(pts)), 1e-7, (2,)
    )
    for mats in _rank_stacks():
        cut = structures._GRAM_FLOOR * (1.0 + structures._GRAM_BAND)
        returned = (
            *structures.matrix_ranks(mats, 1e-7),
            structures._gram_ratios(mats, cut),
            frame_ranks,
            frame_ratios,
        )
        for slot in ("frame", "gram", "temporary"):
            workspace = getattr(_kernels._workspace, slot)
            assert workspace.nbytes <= _kernels.WORKSPACE_BYTES
            for array in returned:
                assert not np.shares_memory(array, workspace)


def test_threads_ranking_at_once_match_the_serial_ranks():
    import sys
    import threading

    from engelcalc import structures

    stacks = _rank_stacks() * 2  # more threads than cores, each on its own stack
    serial = [structures.matrix_ranks(mats, 1e-7) for mats in stacks]
    start = threading.Barrier(len(stacks))
    found = [None] * len(stacks)

    def rank(i):
        start.wait()
        found[i] = [structures.matrix_ranks(stacks[i], 1e-7) for _ in range(10)]

    threads = [threading.Thread(target=rank, args=(i,)) for i in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (ranks, ratios), runs in zip(serial, found):
        for got_ranks, got_ratios in runs:
            assert got_ranks.tobytes() == ranks.tobytes()
            assert got_ratios.tobytes() == ratios.tobytes()


def test_warm_scaled_verify_passes_fault_in_almost_no_memory(tmp_path):
    """The rank layer's temporaries are reused, not handed back to the
    system and faulted in again on every call (about 2,300 minor faults a
    pass when they were)."""
    resource = pytest.importorskip("resource")
    from engelcalc.cli import main

    manifest = Path(__file__).resolve().parents[1] / "manifests" / "prolonged-n2.manifest"
    argv = ["verify", str(manifest), "--report", str(tmp_path / "report.json"),
            "--samples-grid", "16", "--samples-random", "1000"]
    assert main(argv) == 0  # warm-up: compiles programs and builds the sample sets
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
