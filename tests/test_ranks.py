"""matrix_ranks against a plain batched-SVD rank, the path it must reproduce.

The Gram-eigenvalue fast path may differ from the SVD only in the ratios
of full-rank matrices away from the minimum; the ranks, the minimum ratio,
the first index of the minimum rank and the ratio of every deficient
matrix must be bit-identical.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from engelcalc import structures
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
def test_large_rank_ratio(shape):
    rng = np.random.default_rng(6)
    lasts = np.concatenate([rng.uniform(0.3, 0.7, 300), [0.5, 0.5 * (1 + 1e-5)]])
    mats = with_singular_values(rng, shape, ratio_rows(rng, shape, lasts))
    assert_matches_svd(mats, ratio=0.5)


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
