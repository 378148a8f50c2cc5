"""matrix_ranks against a plain batched-SVD rank, the path it must reproduce.

The certified Gram-eigenvalue fast path may differ from the SVD only in the
ratios of full-rank matrices away from the minimum; the ranks, the minimum
ratio, the first index of the minimum rank and the ratio of every deficient
matrix must be bit-identical.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import built
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcalc import expr as ex
from engelcalc import structures
from engelcalc.charts import lie_bracket, sample_points
from engelcalc.manifest import parse_manifest
from engelcalc.report import emit_report
from engelcalc.runner import run_tasks

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"

TOL = 1e-7
SHAPES = [(3, 2), (3, 3), (4, 3), (4, 5)]


def svd_reference(mats, ratio):
    s = np.linalg.svd(mats, compute_uv=False)
    s1 = s[:, 0]
    ranks = np.where(s1 > 0.0, np.sum(s >= ratio * s1[:, None], axis=1), 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        last = np.where(s1 > 0.0, s[:, -1] / np.where(s1 > 0, s1, 1.0), 0.0)
    return ranks, last


def assert_matches_svd(mats, ratio=TOL):
    """matrix_ranks agrees with the SVD; a stack short enough to go straight
    to the SVD is ranked a second time with the Gram path forced on it, so
    that path stays tested on short stacks too."""
    ranks = _assert_ranks_match_svd(mats, ratio)
    if len(mats) < structures._GRAM_MIN_ROWS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_GRAM_MIN_ROWS", 0)
            _assert_ranks_match_svd(mats, ratio)
    return ranks


def _assert_ranks_match_svd(mats, ratio):
    ranks, ratios = structures.matrix_ranks(mats, ratio)
    ref_ranks, ref_ratios = svd_reference(mats, ratio)
    np.testing.assert_array_equal(ranks, ref_ranks)
    if len(mats):
        assert np.min(ratios) == np.min(ref_ratios)
        assert np.argmin(ranks) == np.argmin(ref_ranks)
    deficient = ref_ranks < min(mats.shape[1:])
    np.testing.assert_array_equal(ratios[deficient], ref_ratios[deficient])
    return ranks


def with_singular_values(rng, shape, svals):
    """Matrices of the given shape whose singular values are rows of svals."""
    rows, cols = shape
    k = min(rows, cols)
    out = []
    for s in svals:
        u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
        v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
        out.append((u * s) @ v.T)
    return np.array(out).reshape(len(svals), rows, cols)


def ratio_rows(rng, shape, last):
    """Singular values 1 >= ... >= last, one row per entry of ``last``."""
    k = min(shape)
    mid = rng.uniform(0.3, 1.0, (len(last), k - 2)) if k > 2 else np.zeros((len(last), 0))
    return np.column_stack([np.ones(len(last)), -np.sort(-mid, axis=1), last])


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [0, 1, 2, 200])
def test_random_stacks(shape, n):
    rng = np.random.default_rng(n)
    assert_matches_svd(rng.standard_normal((n, *shape)))


@pytest.mark.parametrize("shape", SHAPES)
def test_short_stacks_skip_the_gram_path(monkeypatch, shape):
    rng = np.random.default_rng(13)
    mats = rng.standard_normal((10, *shape))
    monkeypatch.setattr(structures, "_gram_ratios", lambda m: pytest.fail("Gram path taken"))
    ranks, ratios = structures.matrix_ranks(mats, TOL)
    ref_ranks, ref_ratios = svd_reference(mats, TOL)
    np.testing.assert_array_equal(ranks, ref_ranks)
    np.testing.assert_array_equal(ratios, ref_ratios)


@pytest.mark.parametrize("shape", SHAPES)
def test_zero_and_exactly_deficient_rows(shape):
    rng = np.random.default_rng(1)
    mats = rng.standard_normal((300, *shape))
    mats[::7] = 0.0
    # last column (or row) a combination of the others: rank min(shape) - 1
    k = min(shape)
    if shape[0] > shape[1]:
        mats[3::11, :, -1] = mats[3::11, :, 0] - 2.0 * mats[3::11, :, k - 2]
    else:
        mats[3::11, -1, :] = mats[3::11, 0, :] - 2.0 * mats[3::11, k - 2, :]
    ranks = assert_matches_svd(mats)
    assert np.all(ranks[::7] == 0)
    assert np.all(ranks[3::11][ranks[3::11] > 0] == k - 1)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "last",
    [
        TOL * (1 - 1e-3),
        TOL * (1 + 1e-3),
        1e-4 * (1 - 1e-3),
        1e-4 * (1 - 1e-6),
        1e-4,
        1e-4 * (1 + 1e-6),
        1e-4 * (1 + 1e-4),
        1e-4 * (1 + 1e-3),
    ],
)
def test_ratios_at_the_cut_and_the_gram_floor(shape, last):
    rng = np.random.default_rng(2)
    lasts = np.where(np.arange(256) % 5 == 0, last, rng.uniform(0.01, 0.5, 256))
    assert_matches_svd(with_singular_values(rng, shape, ratio_rows(rng, shape, lasts)))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_extreme_row_scales(shape, scale):
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((256, *shape))
    mats[1::2] *= scale
    mats[5::9, 0, 0] = 0.0
    assert_matches_svd(mats)
    assert_matches_svd(mats[1::2])


@pytest.mark.parametrize("shape", SHAPES)
def test_many_tied_rows(shape):
    rng = np.random.default_rng(4)
    mats = np.repeat(rng.standard_normal((1, *shape)), 500, axis=0)
    assert_matches_svd(mats)
    mats[::3] = rng.standard_normal((len(mats[::3]), *shape))
    assert_matches_svd(mats)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("deficient_share,all_by_svd", [(0.4, False), (0.6, True)])
def test_mixed_stacks_on_both_sides_of_the_routing(
    monkeypatch, shape, deficient_share, all_by_svd
):
    rng = np.random.default_rng(5)
    n = 64 * 40
    mats = rng.standard_normal((n, *shape))
    deficient = np.zeros(n, dtype=bool)
    deficient[: int(deficient_share * n)] = True
    deficient = rng.permutation(deficient.reshape(40, 64)).reshape(n)
    mats[deficient] = with_singular_values(
        rng, shape, ratio_rows(rng, shape, np.full(deficient.sum(), 1e-9))
    )
    ranked = []
    svd = structures._svd_ranks
    monkeypatch.setattr(
        structures, "_svd_ranks", lambda m, r: ranked.append(len(m)) or svd(m, r)
    )
    ranks = assert_matches_svd(mats)
    assert np.array_equal(ranks < min(shape), deficient)
    assert (ranked == [n]) == all_by_svd


@pytest.mark.parametrize("shape", SHAPES)
def test_a_stack_longer_than_one_gram_block(shape):
    """The smallest full-rank ratio and the one deficient row both sit in the
    second block of rows, which is routed and certified on its own."""
    rng = np.random.default_rng(14)
    lo = structures._GRAM_CHUNK
    lasts = rng.uniform(0.05, 0.5, lo + 300)
    smallest, deficient = lo + 100, lo + 200
    lasts[smallest], lasts[deficient] = 0.01, 1e-9
    mats = component_major(with_singular_values(rng, shape, ratio_rows(rng, shape, lasts)))
    ranks = assert_matches_svd(mats)
    assert np.flatnonzero(ranks < min(shape)).tolist() == [deficient]
    ratios = structures.matrix_ranks(mats, TOL)[1]
    assert ratios[smallest] == svd_reference(mats[smallest : smallest + 1], TOL)[1][0]
    assert np.min(np.delete(ratios, deficient)) == ratios[smallest]


@st.composite
def half_deficient_stacks(draw):
    """96-400 rows, a share of about one half of them rank deficient."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(96, 400))
    share = draw(st.floats(0.3, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    deficient = rng.random(n) < share
    lasts = np.where(deficient, 10.0 ** rng.uniform(-12.0, -8.0, n), rng.uniform(1e-3, 0.5, n))
    return with_singular_values(rng, shape, ratio_rows(rng, shape, lasts)), deficient


@given(half_deficient_stacks(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacks_about_half_deficient_match_the_svd(stack, as_view):
    """Routing on the estimates, either way, leaves every result the SVD's."""
    mats, deficient = stack
    ranks = assert_matches_svd(component_major(mats) if as_view else mats)
    np.testing.assert_array_equal(ranks < min(mats.shape[1:]), deficient)


@pytest.mark.parametrize("shape", SHAPES)
def test_large_rank_ratio(shape):
    rng = np.random.default_rng(6)
    lasts = np.concatenate([rng.uniform(0.3, 0.7, 300), [0.5, 0.5 * (1 + 1e-5)]])
    mats = with_singular_values(rng, shape, ratio_rows(rng, shape, lasts))
    assert_matches_svd(mats, ratio=0.5)


def component_major(mats):
    """The same stack as the (n, rows, cols) view of a (cols, rows, n) buffer."""
    return np.ascontiguousarray(mats.transpose(2, 1, 0)).transpose(2, 1, 0)


def exact_multiple_eigenvalue_stack(shape, values):
    """Matrices whose Gram is exactly diag(values): scaled signed unit vectors."""
    rows, cols = shape
    k = min(shape)
    mats = np.zeros((len(values) * 6, rows, cols))
    rng = np.random.default_rng(7)
    for i, m in enumerate(mats):
        r = rng.permutation(rows)[:k]
        c = rng.permutation(cols)[:k]
        m[r, c] = rng.choice([-1.0, 1.0], k) * np.sqrt(values[i % len(values)])
    return mats


@pytest.mark.parametrize("shape", SHAPES)
def test_exact_double_triple_and_quadruple_eigenvalues(shape):
    k = min(shape)
    values = [
        np.ones(k),  # k-fold
        np.r_[np.ones(k - 1), 0.25],
        np.r_[4.0, np.ones(k - 1)],
        np.r_[np.ones(2), np.full(k - 2, 1e-2)],
        np.r_[np.ones(k - 2), 0.0, 0.0],  # a double zero: deficient
    ]
    mats = exact_multiple_eigenvalue_stack(shape, values)
    ranks = assert_matches_svd(mats)
    assert np.all(ranks[4::5] == k - 2)
    assert_matches_svd(component_major(mats))
    rng = np.random.default_rng(8)
    for svals in values[:4]:
        s = np.sqrt(np.sort(svals)[::-1])
        assert_matches_svd(with_singular_values(rng, shape, np.tile(s, (64, 1))))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("g", [1e-4 * (1 - 1e-6), 1e-4 * (1 + 1e-6), 1e-3, 1e-2])
def test_smallest_two_singular_values_equal_far_below_the_largest(shape, g):
    rng = np.random.default_rng(9)
    svals = ratio_rows(rng, shape, rng.uniform(0.01, 0.5, 256))
    svals[::5] = {2: [1.0, g], 3: [1.0, g, g], 4: [1.0, 0.5, g, g]}[min(shape)]
    mats = with_singular_values(rng, shape, svals)
    assert_matches_svd(mats)
    assert_matches_svd(component_major(mats))


@pytest.mark.parametrize("shape", SHAPES)
def test_sign_flipped_and_permuted_copies_of_one_matrix(shape):
    rng = np.random.default_rng(10)
    base = rng.standard_normal(shape)
    copies = []
    for _ in range(300):
        rows = rng.permutation(shape[0])
        cols = rng.permutation(shape[1])
        signs = rng.choice([-1.0, 1.0], shape[0])[:, None] * rng.choice([-1.0, 1.0], shape[1])
        copies.append(signs * base[rows][:, cols])
    mats = np.array(copies)
    assert_matches_svd(mats)
    mats[::4] *= 1e-3
    assert_matches_svd(component_major(mats))


@pytest.mark.parametrize("shape", SHAPES)
def test_component_major_views_match_contiguous_stacks(shape):
    rng = np.random.default_rng(11)
    lasts = np.concatenate([rng.uniform(0.01, 1.0, 5000), [1e-9, TOL * 2, 1e-4]])
    mats = with_singular_values(rng, shape, ratio_rows(rng, shape, rng.permutation(lasts)))
    view = component_major(mats)
    assert not view.flags.c_contiguous
    ranks, ratios = structures.matrix_ranks(mats, TOL)
    view_ranks, view_ratios = structures.matrix_ranks(view, TOL)
    np.testing.assert_array_equal(view_ranks, ranks)
    # fast-path ratios may differ in the last bits: the Gram sums run in a
    # layout-dependent order
    np.testing.assert_allclose(view_ratios, ratios, rtol=2e-6)
    assert_matches_svd(view)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_certificate_brackets_each_end_within_delta(k):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((k + 1, k, 500))
    m[:, :, ::2] *= np.linspace(1e-3, 1.0, k)[:, None]
    G = np.einsum("ain,ajn->ijn", m, m)
    lam = np.linalg.eigvalsh(np.moveaxis(G, 2, 0))
    ends = np.stack([lam[:, 0], lam[:, -1]])
    delta = structures._GRAM_DELTA
    with np.errstate(all="ignore"):
        assert structures._certified(G, ends).all()
        for end in (0, 1):
            for factor in (1 - 3 * delta, 1 + 3 * delta):
                off = ends.copy()
                off[end] *= factor
                assert not structures._certified(G, off).any()
        assert not structures._certified(G, np.full_like(ends, np.nan)).any()


@st.composite
def singular_value_stacks(draw):
    shape = draw(st.sampled_from(SHAPES))
    k = min(shape)
    n = draw(st.integers(1, 24))
    exponent = st.floats(-12.0, 0.0)
    svals = []
    for _ in range(n):
        row = sorted((10.0 ** draw(exponent) for _ in range(k)), reverse=True)
        if draw(st.booleans()):  # repeat a neighbour exactly
            i = draw(st.integers(0, k - 2))
            row[i + 1] = row[i]
        svals.append(np.array(row) / row[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = with_singular_values(rng, shape, np.array(svals))
    return mats * 10.0 ** draw(st.floats(-150.0, 150.0))


@given(singular_value_stacks(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_singular_values_match_the_svd(mats, as_view):
    assert_matches_svd(component_major(mats) if as_view else mats)


def test_prolonged_n3_step2_stack_is_certified_almost_whole(monkeypatch):
    """A certificate that rejects every row stays correct, so count the SVD rows."""
    text = (MANIFESTS / "prolonged-n3.manifest").read_text(encoding="utf-8")
    manifest = parse_manifest(text).with_overrides(grid=16, random=1000)
    dist = built(manifest, "prolonged")
    pts = sample_points(dist.chart, manifest.sampling)
    xy = lie_bracket(dist.x, dist.y)
    fields = (dist.x, dist.y, xy, lie_bracket(dist.x, xy), lie_bracket(dist.y, xy))
    ranked = []
    svd = structures._svd_ranks
    monkeypatch.setattr(
        structures, "_svd_ranks", lambda m, r: ranked.append(len(m)) or svd(m, r)
    )
    comps = tuple(c for f in fields for c in f.components)
    frame = ex.evaluate_many(comps, dist.chart.names, pts).reshape(5, 4, len(pts))
    ((ranks, _),) = structures._frame_ranks(frame, manifest.tolerances.rank, (5,))
    assert len(pts) == 66536
    assert np.all(ranks == 4)
    assert sum(ranked) <= 0.02 * len(pts)


def _verify_reports(names):
    out = {}
    for name in names:
        text = (MANIFESTS / f"{name}.manifest").read_text(encoding="utf-8")
        manifest = parse_manifest(text).with_overrides(grid=6, random=50)
        payload = emit_report(run_tasks(manifest, command="verify"))
        out[name] = re.sub(rb'"duration_ms": \d+', b'"duration_ms": 0', payload)
    return out


def test_fixture_reports_match_the_svd_path(monkeypatch):
    names = sorted(p.stem for p in MANIFESTS.glob("*.manifest"))
    assert len(names) == 15
    shipped = _verify_reports(names)
    original = structures.matrix_ranks
    for name, module in list(sys.modules.items()):
        if name.startswith("engelcalc") and getattr(module, "matrix_ranks", None) is original:
            monkeypatch.setattr(module, "matrix_ranks", svd_reference)
    assert _verify_reports(names) == shipped
