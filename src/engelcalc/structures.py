"""Verification of contact, even-contact, and Engel structures.

Every check, and every constructor's numeric self-check, is a list of
:class:`Condition` objects judged by one :func:`_judge` call under the
caller's :class:`Tolerances`.  It samples only the rows that differ in the
coordinates the check's inputs read
(:func:`~engelcalc.charts.distinct_samples`), and a failure names the first
row of the condition's worst value by its index in the full sample:

* ``nonvanishing``: the pointwise norm against ``tol.never_vanishing`` times
  its maximum over the box; the least norm is worst;
* ``zero``: the largest norm against ``tol.zero`` times the largest product
  of the norms of the ``scale`` items, at least 1; the largest is worst;
* ``rank(k)``: the first k fields of a frame reach rank min(k, dim); the
  lowest rank is worst, but ``joint`` conditions fail together at the first
  row where any falls short, naming every rank there.
  Ranks count singular values at ratio ``tol.rank`` to the largest.
  :func:`matrix_ranks` certifies most matrices full rank from the extreme
  eigenvalues of their small Gram matrix, in one pass over the stack:
  closed-form estimates, each proved to a relative ``_GRAM_DELTA`` by
  unpivoted Cholesky tests of the shifted Gram.  The estimates route the
  stack first: one where most of them fall below the cut (an all-deficient
  stack, say) skips the proof and is ranked by one SVD, at the cost of the
  SVD plus the estimate half of the pass.  Uncertified matrices, those
  inside a guard band and stacks too short to repay the Gram pass go to
  the exact SVD, so ranks and reported ratios equal the SVD's.  Every rank
  condition takes one path: :func:`_frame_ranks` ranks the leading fields
  of the frame's rows in the evaluation block below.

Each check is one :func:`_judge` call, a fibred frame's ranks, annihilator
self-check and characteristic conditions included
(:func:`check_characteristic`); a condition ``after`` another is judged only
if that one passed, and is otherwise neither checked nor reported (None).
The call evaluates everything its conditions read, every frame, witness,
scale and pair member, in one ``evaluate_many`` call (:func:`_evaluate`):
one compiled program that computes each distinct subexpression once,
writing a component-major block whose rows are each item's components.
Non-finite values are checked item by item just before the first judged
condition that reads each item, its witness (a frame field by field, a
pair's form first) then its scales, so an error names the point of the
first item that has one, whichever row another item fails at.  Norms are
taken over the block's component rows, which sums the components in the
same order as a point-major norm, and pairings over point-major copies of
the two members, whose einsum rounds differently on component-major rows.

The constructors' self-checks judge ``zero`` conditions at ``tol.zero``,
but read a ``nonvanishing`` one (beta, or the volume density) only for an
exact 0: a rescaled frame's |beta| may span many decades.

The evaluation block and the rank layer's large arrays (each Gram block's
Gram stack, and its scaled copy, B^2 and certificate) live in the per-thread
workspace of :mod:`engelcalc._kernels` (:func:`~engelcalc._kernels.scratch`),
written in place and reused from call to call, so a warm process neither
allocates them nor faults their pages in again.  Each thread has its own
buffers, so threads may rank at once, and no array that
:func:`matrix_ranks` or :func:`_frame_ranks` returns shares memory with
them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import expr as ex
from ._kernels import scratch
from .charts import (
    Chart,
    ChartMismatchError,
    DimensionError,
    GeometryError,
    KForm,
    SamplePlan,
    VectorField,
    coordinate_field,
    distinct_samples,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    require_finite,
    variables_of,
    wedge,
)
from .expr import ScalarExpr, simplify


@dataclass(frozen=True, slots=True)
class Tolerances:
    rank: float = 1e-7
    never_vanishing: float = 1e-6
    zero: float = 1e-9
    projection: float = 1e-8
    nonzero_norm: float = 1e-8  # threshold on squared norms

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not 0.0 < value < np.inf:
                raise GeometryError(
                    f"tolerance '{name}' must be finite and > 0, got {value!r}"
                )
        if self.rank >= 1.0:
            raise GeometryError(f"tolerance 'rank' must be < 1, got {self.rank!r}")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_TOLERANCES = Tolerances()


class CheckError(GeometryError):
    """A structural precondition failed."""


class RankDeficiencyError(CheckError):
    pass


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    witnesses: dict[str, float]
    first_failure: dict | None = None
    notes: tuple[str, ...] = ()

    def require(self, what: str) -> "VerificationReport":
        if not self.passed:
            raise CheckError(
                f"{what} failed: witnesses {self.witnesses}, first failure {self.first_failure}"
            )
        return self


def _combined(
    reports: Sequence[VerificationReport], witnesses: dict, notes: tuple[str, ...] = ()
) -> VerificationReport:
    """One report that passes when all ``reports`` pass and names the first
    failure among them, in order."""
    first = next((r.first_failure for r in reports if r.first_failure), None)
    return VerificationReport(all(r.passed for r in reports), witnesses, first, notes)


# The Gram path's error budget.  Each matrix is scaled by its largest |entry|,
# so its Gram G has 1 <= lambda_max <= rows * cols.  Forming G, and an
# unpivoted Cholesky of G - s I with k <= 4 columns, each err by a few
# k^2 eps lambda_max, under 1e-14 lambda_max.  The fast path trusts
# g = sqrt(lambda_min / lambda_max) only at g >= _GRAM_FLOOR, where
# lambda_min >= 1e-8 lambda_max, so that rounding is under 1e-6 lambda_min.
_GRAM_FLOOR = 1e-4
# Relative width of the Cholesky certificate (_certified): it proves the
# closed-form lambda_min and lambda_max each to 1e-6, so with the rounding
# above g errs by under 2e-6.
_GRAM_DELTA = 1e-6
# Guard band, relative, around the rank cut and the smallest fast-path ratio:
# 50 times the worst error above, so rows inside it take the exact SVD.
_GRAM_BAND = 1e-4
# Stacks of fewer rows go straight to the SVD.  Timed hot with timeit, the
# Gram path overtakes the SVD at 50-70 rows: microseconds for the Gram path /
# _svd_ranks on component-major (n, dim, k) stacks of full-rank random
# matrices, 2-CPU x86-64 VM,
#   rows       32       48       64        96        128
#   (3, 2)   74/42    74/53    70/64     70/86     72/107
#   (3, 3)   95/58    97/80    97/102    97/138   101/185
#   (4, 3)   92/63    93/84    91/105    91/150   100/197
#   (4, 5)  117/81   123/113  117/151   131/204   144/286
# Inside a request its hundred numpy calls run cold, at 170-270 us per stack
# however short, so the warm fixture mix ranks its 64- to 106-row stacks
# faster by the SVD and its 225-row stacks faster by the Gram path (median
# per call, Gram / SVD: (3, 3) at 106 rows 268/145, (4, 5) at 76 rows 205/190,
# (4, 5) at 225 rows 253/394).
_GRAM_MIN_ROWS = 128
# Rows per Gram block: the block's certificate array, (4 + 6 + 3, 4, _GRAM_CHUNK)
# floats at four columns, is the workspace's largest (_kernels.WORKSPACE_BYTES)
# and stays under 2 MB, so ranking a large stack needs little more memory
# than the SVD does.
_GRAM_CHUNK = 4096
# Row t of the certificate tests G - shift_t * ends[end_t] * I for t = 0, 1
# and -G - shift_t * ends[end_t] * I for t = 2, 3, where ends = (lambda_min,
# lambda_max): the estimates are certified when the four matrices are
# positive definite exactly where _GRAM_EXPECT says.
_GRAM_SHIFT = np.array(
    [[1.0 - _GRAM_DELTA], [1.0 + _GRAM_DELTA], [-1.0 - _GRAM_DELTA], [-1.0 + _GRAM_DELTA]]
)
_GRAM_END = [0, 0, 1, 1]
_GRAM_EXPECT = np.array([[True], [False], [True], [False]])
_PLUS_MINUS = np.array([[-1.0], [1.0]])
_THIRD_TURN = np.array([[2.0 * np.pi / 3.0], [0.0]])


def _svd_ranks(mats: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    s = np.linalg.svd(mats, compute_uv=False)
    s1 = s[:, 0]
    ranks = np.where(s1 > 0.0, np.sum(s >= ratio * s1[:, None], axis=1), 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        last_ratio = np.where(s1 > 0.0, s[:, -1] / np.where(s1 > 0, s1, 1.0), 0.0)
    return ranks, last_ratio


def _extreme_eigenvalues(G: np.ndarray) -> np.ndarray:
    """Closed-form (lambda_min, lambda_max), as a (2, n) array, of a (k, k, n)
    stack of symmetric matrices with k in 2..4: the quadratic formula, the
    trigonometric cubic, and the depressed quartic through its resolvent cubic.

    A formula divides 0 by 0 only on a multiple of the identity, where fmax
    and fmin clamp the nan into a term that is then multiplied by 0.  For
    other k the estimates are wrong, and :func:`_certified` rejects them.

    G is shifted in place while the power sums are taken, and then given back
    its own diagonal, so no second (k, k, n) array is made.
    """
    k = G.shape[0]
    if k == 2:
        mean = 0.5 * (G[0, 0] + G[1, 1])
        return mean + _PLUS_MINUS * np.hypot(0.5 * (G[0, 0] - G[1, 1]), G[0, 1])
    # B = G - q I, formed in G itself, has trace 0 and power sums t_j = tr(B^j).
    diagonal = np.einsum("iin->in", G)
    kept = diagonal.copy()
    q = kept.sum(axis=0) / k
    diagonal -= q
    B = G
    # B B^T: B is symmetric, and this sum is faster
    B2 = np.einsum("ijn,kjn->ikn", B, B, out=scratch(B.shape))
    t2 = np.einsum("iin->n", B2)
    t3 = np.einsum("ijn,ijn->n", B2, B)
    diagonal[...] = kept  # G again, bit for bit
    if k == 3:
        # eigenvalues q + 2p cos(phi + 2 pi j / 3), with 6 p^2 = t2 and
        # cos(3 phi) = det(B) / (2 p^3) = t3 / (6 p^3) = t3 / (t2 p)
        p = np.sqrt(t2 / 6.0)
        phi = np.arccos(np.fmin(np.fmax(t3 / (t2 * p), -1.0), 1.0)) / 3.0
        return q + 2.0 * p * np.cos(phi + _THIRD_TURN)
    # det(x I - B) = x^4 + P x^2 + Q x + R, with P = -t2 / 2, Q = -t3 / 3 and
    # R = t2^2 / 8 - t4 / 4.  Its resolvent cubic m^3 + P m^2 + (P^2/4 - R) m
    # - Q^2/8 has largest root m = (x3 + x4)^2 / 2 = (sqrt(D0) cos(theta) - P) / 3,
    # with D0 = P^2 + 12 R, D1 = 2 P^3 + 27 Q^2 - 72 P R and
    # cos(3 theta) = D1 / (2 D0^1.5).  With S = sqrt(2 m) and c = m + P / 2 the
    # quartic is (x^2 + S x + c - Q/2S)(x^2 - S x + c + Q/2S), whose factors
    # hold the roots x1 <= x2 and x3 <= x4.
    t4 = np.einsum("ijn,ijn->n", B2, B2)
    t22 = t2 * t2
    d0 = np.fmax(1.75 * t22 - 3.0 * t4, 0.0)
    sq = np.sqrt(d0)
    d1 = t2 * (4.25 * t22 - 9.0 * t4) + 3.0 * t3 * t3
    angle = np.arccos(np.fmin(np.fmax(d1 / (2.0 * d0 * sq), -1.0), 1.0)) / 3.0
    m = np.maximum(sq * np.cos(angle) + 0.5 * t2, 0.0) / 3.0
    half_s = np.sqrt(0.5 * m)
    h = t3 / (-12.0 * half_s)  # Q / (2 S)
    w = 0.25 * t2 - 0.5 * m
    return q + _PLUS_MINUS * (half_s + np.sqrt(np.fmax(w - _PLUS_MINUS * h, 0.0)))


def _triangle(k: int) -> tuple[np.ndarray, list[int]]:
    """The flat indices of a k x k matrix's diagonal, then of its strict upper
    triangle row by row, and where row i of that triangle starts among them."""
    on_diagonal = [i * (k + 1) for i in range(k)]
    above_diagonal = [i * k + j for i in range(k) for j in range(i + 1, k)]
    return np.array(on_diagonal + above_diagonal), [i * k - i * (i + 1) // 2 for i in range(k)]


# the certificate's index tables for the sizes the closed forms handle
_TRIANGLES = {k: _triangle(k) for k in (2, 3, 4)}


def _certified(G: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Rows whose lambda_min and lambda_max lie within _GRAM_DELTA of ends.

    G - lambda_min (1 -+ delta) I and lambda_max (1 +- delta) I - G go through
    one unpivoted LDL^T together, row by row over the whole stack; the pivots
    end on the diagonal.  lambda_min lies between its two shifts exactly when
    the first matrix is positive definite and the second is not, and likewise
    for lambda_max.  Non-finite estimates fail.

    The LDL^T reads one triangle, so one array holds what it works on: the
    diagonal and the strict upper triangle of G twice and of -G twice, each
    copy written contiguously, then room for one row of multipliers.
    """
    k, _, n = G.shape
    p = k * (k - 1) // 2
    A = scratch((k + p + k - 1, 4, n))
    entries, start = _TRIANGLES.get(k) or _triangle(k)
    A[: k + p, 0] = A[: k + p, 1] = G.reshape(k * k, n)[entries]
    np.negative(A[: k + p, 0], out=A[: k + p, 2])
    A[: k + p, 3] = A[: k + p, 2]
    diag, off, multipliers = A[:k], A[k : k + p], A[k + p :]
    diag -= _GRAM_SHIFT * ends[_GRAM_END]
    for j in range(k - 1):
        row = off[start[j] : start[j + 1]]  # entries (j, j + 1:)
        scaled = np.divide(row, diag[j], out=multipliers[: k - 1 - j])
        for i in range(j + 1, k - 1):  # entries (i, i + 1:)
            off[start[i] : start[i + 1]] -= row[i - j - 1] * scaled[i - j :]
        row *= scaled  # row j is not read again
        diag[j + 1 :] -= row
    positive_definite = (diag > 0.0).all(axis=0)
    return (positive_definite == _GRAM_EXPECT).all(axis=0)


def _scaled_gram(m: np.ndarray) -> np.ndarray:
    """The (k, k, n) Gram stack of a (k, other, n) stack of matrices, each
    scaled by its largest |entry| first so that the Gram cannot overflow.
    The stack returned is the thread's "gram" workspace buffer."""
    k, _, n = m.shape
    # each matrix's largest |entry|, read in memory order: a max is exact in
    # any order, so it may run over the first two axes swapped
    swapped = m.transpose(1, 0, 2)
    a = swapped if swapped.flags.c_contiguous else m
    scale = 1.0 / np.abs(a, out=scratch(a.shape)).max(axis=(0, 1))
    scaled = scratch(m.shape)
    np.multiply(m, scale, out=scaled)
    return np.einsum("ain,bin->abn", scaled, scaled, out=scratch((k, k, n), "gram"))


def _gram_ratios(mats: np.ndarray, cut: float) -> np.ndarray:
    """Certified sqrt(lambda_min / lambda_max) of each matrix's small Gram matrix.

    One pass per block of rows: the closed-form ends of each scaled Gram's
    spectrum give an estimated ratio.  A block where more than half the
    estimates fall below ``cut`` is left at 0 and never certified, since the
    SVD must rank those rows anyway.  Otherwise rows whose estimates fail the
    certificate, and zero and non-finite matrices, get 0.
    """
    rows, cols = mats.shape[1:]
    # (k, other, n) with k = min(rows, cols), so the Gram sums over axis 1
    kxn = mats.transpose(2, 1, 0) if rows > cols else mats.transpose(1, 2, 0)
    g = np.zeros(len(mats))
    with np.errstate(all="ignore"):
        for lo in range(0, len(mats), _GRAM_CHUNK):
            G = _scaled_gram(kxn[:, :, lo : lo + _GRAM_CHUNK])
            ends = _extreme_eigenvalues(G)
            estimate = np.sqrt(ends[0] / ends[1])
            if 2 * np.count_nonzero(estimate >= cut) >= len(estimate):
                g[lo : lo + _GRAM_CHUNK] = np.where(_certified(G, ends), estimate, 0.0)
    return g


def matrix_ranks(mats: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks of a stack of matrices, plus the smallest sv ratio.

    Rank r means exactly r singular values satisfy sigma_i >= ratio * sigma_1.
    A matrix whose certified Gram-eigenvalue ratio clears the cut by the guard
    band is full rank; every other matrix, and every one whose Gram ratio is
    within the band of the smallest fast-path ratio, is ranked by the SVD.  So
    the ranks, the minimum ratio and the ratio of every deficient matrix equal
    the SVD's bit for bit; the ratios of the other full-rank matrices carry
    the Gram path's relative error of under 2e-6.

    The Gram path makes one pass over the stack and routes each block of
    rows on its closed-form estimates before certifying them.  A stack shorter
    than ``_GRAM_MIN_ROWS`` is ranked by the SVD alone, and so is a stack none
    of whose rows is certified above the cut: an all-deficient stack costs one
    SVD plus the estimate half of a Gram pass, and never reaches the
    certificate.
    """
    if len(mats) < _GRAM_MIN_ROWS:
        return _svd_ranks(mats, ratio)
    cut = max(_GRAM_FLOOR, ratio) * (1.0 + _GRAM_BAND)
    g = _gram_ratios(mats, cut)
    fast = g >= cut
    if not fast.any():
        return _svd_ranks(mats, ratio)
    exact = ~fast | (g <= np.min(g[fast]) * (1.0 + _GRAM_BAND))
    ranks = np.full(len(mats), min(mats.shape[1:]))
    rows = np.flatnonzero(exact)
    ranks[rows], g[rows] = _svd_ranks(mats[rows], ratio)
    return ranks, g


def _frame_ranks(
    frame: np.ndarray, ratio: float, sizes: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`matrix_ranks` of the first k fields at each point, for k in sizes,
    of a frame evaluated component-major, as a (fields, dim, n) array whose
    matrix entries are contiguous (n,) rows: its leading fields are ranked
    through the (n, dim, k) transposed view."""
    return [matrix_ranks(frame[:k].transpose(2, 1, 0), ratio) for k in sizes]


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True, slots=True)
class Distribution2:
    """Rank-2 plane field given by a two-field frame: its fields and their
    chart, nothing else, so a frame read back from its serialized text is
    equal to the one written."""

    chart: Chart
    x: VectorField
    y: VectorField

    def __post_init__(self):
        if self.x.chart != self.chart or self.y.chart != self.chart:
            raise ChartMismatchError("frame fields must live on the given chart")

    @property
    def frame(self) -> tuple[VectorField, VectorField]:
        return (self.x, self.y)

    def validate_rank(self, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
        rank2 = Condition(self.frame, "rank", "rank", rank=2)
        return _judge(self.frame, plan, tol, rank2)[0]


@dataclass(frozen=True, slots=True)
class EngelPair:
    alpha: KForm
    beta: KForm

    def __post_init__(self):
        if self.alpha.chart != self.beta.chart:
            raise ChartMismatchError("pair forms must share a chart")
        if self.alpha.degree != 1 or self.beta.degree != 1:
            raise DimensionError("pair members must be 1-forms")
        if self.alpha.chart.dim != 4:
            raise DimensionError("pairs live on 4-dimensional charts")


# ---------------------------------------------------------------------------
# structure checks


@dataclass(frozen=True, slots=True)
class Condition:
    """One pointwise test of a check: a form, field or scalar ``witness``, or
    a (1-form, field) pair standing for its pairing, that is
    ``"nonvanishing"`` or ``"zero"``, or a frame whose first ``rank`` fields
    reach full ``"rank"``.  ``name`` keys its value in a failure.  A
    condition ``after`` another, listed before it, is judged only where
    that one passed."""

    witness: object
    predicate: str
    name: str = "value"
    scale: tuple = ()
    rank: int = 0
    after: "Condition | None" = None


def _components(item) -> tuple[ScalarExpr, ...]:
    """The expressions an item is evaluated as: a field's or form's
    components, a scalar itself, or a frame's fields' components in turn."""
    if isinstance(item, (KForm, VectorField)):
        return item.components
    if isinstance(item, tuple):
        return tuple(c for field in item for c in field.components)
    return (item,)


def _read(c: Condition) -> tuple:
    """The items a condition reads, in checking order: its frame, form, field
    or scalar witness, or a pair's form and field, then its scales."""
    if c.predicate == "rank" or not isinstance(c.witness, tuple):
        return (c.witness, *c.scale)
    return (*c.witness, *c.scale)


def _evaluate(
    conditions: Sequence[Condition], chart: Chart, pts: np.ndarray
) -> tuple[np.ndarray, dict[int, tuple[int, int]]]:
    """Every item the conditions read, at the points, in one evaluate_many call.

    Returns the component-major block, in the thread's "frame" workspace
    buffer, and the rows of each item by identity: each frame, and each
    field, form or scalar, once.  Nothing is checked for finiteness here.
    """
    spans: dict[int, tuple[int, int]] = {}
    exprs: list[ScalarExpr] = []
    for c in conditions:
        for item in _read(c):
            if id(item) not in spans:
                comps = _components(item)
                spans[id(item)] = (len(exprs), len(exprs) + len(comps))
                exprs.extend(comps)
    block = ex.evaluate_many(
        tuple(exprs), chart.names, pts, out=scratch((len(exprs), len(pts)), "frame")
    )
    return block, spans


def _judge(
    inputs: Sequence,
    plan: SamplePlan,
    tol: Tolerances,
    *conditions: Condition,
    joint: bool = False,
) -> list[VerificationReport | None]:
    """One report per condition (see the module docstring), or
    None for a condition whose ``after`` condition did not pass.

    Every item is evaluated in one program (:func:`_evaluate`), each frame is
    ranked once for all its sizes, and each other item's pointwise norm is
    taken once, keyed by identity: of a field's or form's components, of a
    scalar, or of a (1-form, field) pair's pairing."""
    chart = inputs[0].chart
    pts, rows = distinct_samples(chart, plan, variables_of(*inputs))
    block, spans = _evaluate(conditions, chart, pts)
    # ids of the items not yet checked for finiteness: none if all is finite
    unchecked = set() if np.isfinite(block).all() else set(spans)

    def values_of(item) -> np.ndarray:
        start, stop = spans[id(item)]
        return block[start:stop]

    def norms(item) -> np.ndarray:
        if isinstance(item, tuple):
            # point-major copies: einsum rounds differently on component-major rows
            form, field = (np.ascontiguousarray(values_of(i).T) for i in item)
            return np.abs(np.einsum("nd,nd->n", form, field))
        if isinstance(item, (KForm, VectorField)):
            return np.linalg.norm(values_of(item), axis=0)
        return np.abs(values_of(item)[0])

    values = {}
    reports: list[VerificationReport | None] = []
    for c in conditions:
        if c.after is not None and not getattr(reports[conditions.index(c.after)], "passed", False):
            reports.append(None)  # its gate failed, or was itself not judged
            continue
        for item in _read(c):
            if id(item) in unchecked:
                unchecked.discard(id(item))
                start, stop = spans[id(item)]
                step = chart.dim if isinstance(item, tuple) else stop - start  # a frame by field
                for lo in range(start, stop, step):
                    require_finite(block[lo : lo + step].T, pts)
        if id(c.witness) not in values:
            if c.predicate == "rank":
                sizes = [d.rank for d in conditions if d.witness is c.witness]
                frame = values_of(c.witness).reshape(len(c.witness), chart.dim, len(pts))
                values[id(c.witness)] = dict(zip(sizes, _frame_ranks(frame, tol.rank, sizes)))
            else:
                values[id(c.witness)] = norms(c.witness)
        for item in c.scale:
            if id(item) not in values:
                values[id(item)] = norms(item)

        if c.predicate == "rank":
            v, ratios = values[id(c.witness)][c.rank]
            low = int(v.min())
            passed = low == min(c.rank, chart.dim)
            # no rank exceeds the full rank, so a passing frame's highest is its lowest
            high = low if passed else int(v.max())
            witnesses = {"min_sv_ratio": float(ratios.min()), "rank_min": low, "rank_max": high}
            named = ((c.name, v), ("sv_ratio", ratios))
        else:
            v = values[id(c.witness)]
            vmax = float(v.max())
            named = ((c.name, v),)
            if c.predicate == "zero":
                product = 1.0
                for item in c.scale:  # in the order given, so the rounding is fixed
                    product = values[id(item)] * product
                scale = max(1.0, float(np.maximum.reduce(product, axis=None)))
                passed = vmax <= tol.zero * scale
                witnesses = {"max_abs": vmax, "scale": scale, "max_rel": vmax / scale}
            else:
                vmin = float(v.min())
                rel = vmin / vmax if vmax > 0 else 0.0
                passed = vmax > 0 and rel >= tol.never_vanishing
                witnesses = {"min_abs": vmin, "max_abs": vmax, "min_over_max": rel}
        first = None
        if not passed:
            if joint:  # the first row where any rank falls short, naming every rank
                named = [(d.name, values[id(d.witness)][d.rank][0]) for d in conditions]
                full = [r == min(d.rank, chart.dim) for d, (_, r) in zip(conditions, named)]
                idx = int(np.logical_and.reduce(full).argmin())
            else:
                idx = int(v.argmax() if c.predicate == "zero" else v.argmin())
            first = {"point": pts[idx].tolist(), "sample_index": int(rows[idx])}
            first.update((name, a[idx].item()) for name, a in named)
        reports.append(VerificationReport(passed, witnesses, first))
    return reports


def check_contact_3d(
    alpha: KForm,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """alpha ^ d(alpha) never vanishes on a 3-chart."""
    if alpha.chart.dim != 3:
        raise DimensionError("contact check requires a 3-dimensional chart")
    if alpha.degree != 1:
        raise DimensionError("contact check requires a 1-form")
    top = Condition(wedge(alpha, exterior_derivative(alpha)), "nonvanishing")
    return _judge((alpha,), plan, tol, top)[0]


def check_even_contact(
    beta: KForm,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """beta ^ d(beta) is a never-vanishing 3-form on a 4-chart."""
    if beta.chart.dim != 4:
        raise DimensionError("even-contact check requires a 4-dimensional chart")
    if beta.degree != 1:
        raise DimensionError("even-contact check requires a 1-form")
    top = Condition(wedge(beta, exterior_derivative(beta)), "nonvanishing")
    return _judge((beta,), plan, tol, top)[0]


def check_engel_pair(
    pair: EngelPair,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """The three pair conditions, evaluated in the given (alpha, beta) order.

    The swapped order is also evaluated, and the notes record which
    ordering satisfies the conditions; the verdict always refers to the
    given order.
    """
    alpha, beta = pair.alpha, pair.beta
    da, db = exterior_derivative(alpha), exterior_derivative(beta)
    ab = wedge(alpha, beta)
    ab_da, ab_db = wedge(ab, da), wedge(ab, db)
    r1, r2, r3, *swapped = _judge(
        (alpha, beta), plan, tol,
        Condition(ab_da, "nonvanishing"),
        Condition(ab_db, "zero", scale=(alpha, beta, db)),
        Condition(wedge(beta, db), "nonvanishing"),
        # the swapped order (beta, alpha): beta ^ alpha ^ d(.) = -alpha ^ beta ^ d(.)
        Condition(ab_db, "nonvanishing"),
        Condition(ab_da, "zero", scale=(beta, alpha, da)),
        Condition(wedge(alpha, da), "nonvanishing"),
    )
    passed = r1.passed and r2.passed and r3.passed
    notes = (
        f"given order (alpha, beta): {'pass' if passed else 'fail'}",
        f"swapped order (beta, alpha): {'pass' if all(r.passed for r in swapped) else 'fail'}",
    )
    return _combined((r1, r2, r3), {
        "condition1_min_abs": r1.witnesses["min_abs"],
        "condition1_min_over_max": r1.witnesses["min_over_max"],
        "condition1_max_abs": r1.witnesses["max_abs"],
        "condition2_max_abs": r2.witnesses["max_abs"],
        "condition3_min_abs": r3.witnesses["min_abs"],
        "condition3_min_over_max": r3.witnesses["min_over_max"],
    }, notes)


def _engel_ranks(d: Distribution2, engel: bool) -> tuple[Condition, ...]:
    """Rank 3 of (X, Y, [X, Y]) and, with ``engel``, rank 4 of the five
    fields after a second bracket, on one frame."""
    xy = lie_bracket(d.x, d.y)
    fields = (d.x, d.y, xy, lie_bracket(d.x, xy), lie_bracket(d.y, xy)) if engel else (d.x, d.y, xy)
    step1 = Condition(fields, "rank", "rank_step1", rank=3)
    return (step1, Condition(fields, "rank", "rank_step2", rank=5)) if engel else (step1,)


def _engel_report(step1: VerificationReport, step2: VerificationReport) -> VerificationReport:
    return _combined((step1, step2), {
        "rank_step1_min": step1.witnesses["rank_min"],
        "rank_step1_max": step1.witnesses["rank_max"],
        "rank_step2_min": step2.witnesses["rank_min"],
        "rank_step2_max": step2.witnesses["rank_max"],
        "min_sv_ratio_step1": step1.witnesses["min_sv_ratio"],
        "min_sv_ratio_step2": step2.witnesses["min_sv_ratio"],
    })


def check_engel_frame(
    d: Distribution2,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Derived-distribution ranks: dim 3 after one bracket, dim 4 after two."""
    if d.chart.dim != 4:
        raise DimensionError("frame check requires a 4-dimensional chart")
    return _engel_report(*_judge((d.x, d.y), plan, tol, *_engel_ranks(d, True)))


def annihilator_1form(frame: Sequence[VectorField]) -> KForm:
    """Symbolic 1-form annihilating a rank-3 frame on a 4-chart.

    Component i is the signed 3x3 minor of the 4x3 component matrix with
    row i removed.  It is checked numerically only as part of
    :func:`check_characteristic`.
    """
    if len(frame) != 3:
        raise GeometryError("annihilator expects exactly three fields")
    chart = frame[0].chart
    if chart.dim != 4:
        raise DimensionError("annihilator requires a 4-dimensional chart")
    for f in frame[1:]:
        if f.chart != chart:
            raise ChartMismatchError("frame fields on different charts")
    # None stands for a zero entry, and products with a zero factor are left out
    cols = [[None if ex.is_zero(simplify(c)) else c for c in f.components] for f in frame]

    def mul(p, q):
        return None if p is None or q is None else ex.Multiply(p, q)

    def sub(p, q):
        if q is None:
            return p
        return ex.Negate(q) if p is None else ex.Subtract(p, q)

    def det3(rows: list[int]) -> ScalarExpr:
        a = [[cols[c][r] for c in range(3)] for r in rows]
        t1 = mul(a[0][0], sub(mul(a[1][1], a[2][2]), mul(a[1][2], a[2][1])))
        t2 = mul(a[0][1], sub(mul(a[1][0], a[2][2]), mul(a[1][2], a[2][0])))
        t3 = mul(a[0][2], sub(mul(a[1][0], a[2][1]), mul(a[1][1], a[2][0])))
        minor = sub(t1, t2)
        if t3 is not None:
            minor = t3 if minor is None else ex.Add(minor, t3)
        return ex.ZERO if minor is None else minor

    terms = []
    for i in range(4):
        rows = [r for r in range(4) if r != i]
        minor = det3(rows)
        coeff = simplify(minor if i % 2 == 0 else ex.Negate(minor))
        if not ex.is_zero(coeff):
            terms.append(((i,), coeff))
    return KForm(chart, 1, tuple(terms))


def characteristic_vector_field(
    beta: KForm, volume: KForm, plan: SamplePlan, tol: Tolerances = DEFAULT_TOLERANCES
) -> VectorField:
    """Solve X . volume = beta ^ d(beta) symbolically on a 4-chart.

    With volume = rho dx0^dx1^dx2^dx3 and beta ^ d(beta) = sum c_J dx^J,
    the component on axis i is (-1)^i c_{complement(i)} / rho.  rho must
    not be zero at a sample point, and the contraction identity must hold
    there, relative to |beta ^ d(beta)|.
    """
    chart = beta.chart
    if chart.dim != 4 or beta.degree != 1:
        raise DimensionError("characteristic field needs a 1-form on a 4-chart")
    if volume.chart != chart or volume.degree != 4:
        raise ChartMismatchError("volume must be a top form on the same chart")

    rho = volume.coeff(tuple(range(4)))
    # judged before X is built, since X divides by rho
    (density,) = _judge((beta, volume), plan, tol, Condition(rho, "nonvanishing"))
    if density.witnesses["min_abs"] <= 0.0:
        raise CheckError(
            f"volume form vanishes at sample point {density.first_failure['point']}"
        )

    bdb = wedge(beta, exterior_derivative(beta))
    comps = []
    for i in range(4):
        comp_key = tuple(j for j in range(4) if j != i)
        c = bdb.coeff(comp_key)
        raw = c if i % 2 == 0 else ex.Negate(c)
        comps.append(ex.ZERO if ex.is_zero(c) else simplify(ex.Divide(raw, rho)))
    x0 = VectorField(chart, tuple(comps))

    identity = Condition(interior_product(x0, volume) - bdb, "zero", scale=(bdb,))
    if not _judge((beta, volume), plan, tol, identity)[0].passed:
        raise CheckError("contraction identity violated for the computed field")
    return x0


def check_characteristic(
    d: Distribution2,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
    *,
    engel: bool = False,
) -> tuple[VerificationReport, KForm, VerificationReport | None]:
    """The fiber field X0 of a fibred frame is its characteristic direction.

    One _judge call: rank 3 of (X, Y, [X, Y]) (and, with ``engel``, the
    ranks of :func:`check_engel_frame`), then, only if rank 3 passed, the
    self-check of the annihilator beta of (X, Y, [X, Y]) (nonzero, and zero
    on each field relative to |beta| |field|), X0 in ker(beta) and
    (L_X0 beta)^beta = 0.  Returns the frame report, beta, and the
    characteristic report or None.  A beta that is exactly 0 at a sample is
    a :class:`RankDeficiencyError`, one that does not annihilate a
    :class:`CheckError`."""
    chart = d.chart
    if chart.fiber is None:
        raise GeometryError("distribution chart has no fiber coordinate")
    ranks = _engel_ranks(d, engel)
    step1 = ranks[0]
    square = step1.witness[:3]
    beta = annihilator_1form(square)
    x0 = coordinate_field(chart, chart.fiber)
    lie = lie_derivative_form(x0, beta)
    *frame, nonzero, a1, a2, a3, proportional, in_kernel = _judge(
        (d.x, d.y), plan, tol,
        *ranks,
        Condition(beta, "nonvanishing", after=step1),
        *(Condition((beta, f), "zero", scale=(beta, f), after=step1) for f in square),
        Condition(wedge(lie, beta), "zero", scale=(lie, beta), after=step1),
        Condition((beta, x0), "zero", scale=(beta, x0), after=step1),
    )
    frame_report = _engel_report(*frame) if engel else frame[0]
    if nonzero is None:
        return frame_report, beta, None
    if nonzero.witnesses["min_abs"] <= 0.0:
        raise RankDeficiencyError(
            f"frame drops rank at sample point {nonzero.first_failure['point']}"
        )
    if not (a1.passed and a2.passed and a3.passed):
        raise CheckError("annihilator does not annihilate its frame")
    return frame_report, beta, _combined((proportional, in_kernel), {
        "lie_wedge_max": proportional.witnesses["max_abs"],
        "kernel_pairing_max": in_kernel.witnesses["max_abs"],
    })


def check_twisting_condition(
    x0: VectorField,
    v: VectorField,
    plan: SamplePlan,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """(X0, V, [X0, V]) has rank 3 at every sample point: the twisting test.
    ``rank_min`` is the lowest rank over the samples."""
    if x0.chart != v.chart:
        raise ChartMismatchError("fields on different charts")
    rank3 = Condition((x0, v, lie_bracket(x0, v)), "rank", "rank", rank=3)
    return _judge((x0, v), plan, tol, rank3)[0]
