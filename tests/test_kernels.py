import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcalc import expr as ex

VARS = ("x", "y", "z")

# (expression, sampling box); huge exponents must cost no more than small ones
CASES = [
    ("x + y*z", (0.2, 1.0)),
    ("sin(x)*cos(y) + exp(z/2)", (0.2, 1.0)),
    ("x^3 - 2*y^2 + z^-1", (0.2, 1.0)),
    ("-(x + y)/(2 + z^2)", (0.2, 1.0)),
    ("cos(pi*x) + 1.5", (0.2, 1.0)),
    ("x^1000000 + y^-999999", (0.999999, 1.000001)),
]


def _points(box):
    return np.random.default_rng(42).uniform(*box, (500, 3))


@pytest.fixture(scope="module")
def points():
    return _points((0.2, 1.0))


@pytest.mark.parametrize(
    "text, box", CASES, ids=[f"{text}-numpy" for text, _ in CASES]
)
def test_batch_matches_tree_walk(text, box):
    e = ex.parse_scalar_expr(text, VARS)
    points = _points(box)
    batch = ex.evaluate_many(e, VARS, points)
    for i in range(0, points.shape[0], 50):
        b = dict(zip(VARS, points[i]))
        assert batch[i] == pytest.approx(ex.evaluate(e, b), rel=1e-14, abs=1e-14)


def test_evaluate_many_returns_one_value_per_point(points):
    e = ex.parse_scalar_expr("sin(x) + y", VARS)
    out = ex.evaluate_many(e, VARS, points)
    assert out.shape == (points.shape[0],)


def test_negative_power_of_zero_is_inf():
    e = ex.IntPower(ex.Variable("x"), -2)
    pts = np.array([[0.0, 0.0, 0.0]])
    out = ex.evaluate_many(e, VARS, pts)
    assert np.isinf(out[0])


def test_division_by_zero_is_ieee():
    e = ex.parse_scalar_expr("1/x", VARS)
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    out = ex.evaluate_many(e, VARS, pts)
    assert np.isinf(out[0]) and out[1] == 0.5


def test_shape_validation():
    e = ex.parse_scalar_expr("x", VARS)
    with pytest.raises(ex.ExprError):
        ex.evaluate_many(e, VARS, np.zeros((4, 2)))


def test_program_cache_reuses_compilation():
    e = ex.parse_scalar_expr("x + y + z", VARS)
    p1 = ex.compile_program((e,), VARS)
    p2 = ex.compile_program((e,), VARS)
    assert p1 is p2


def test_a_program_computes_each_distinct_node_once():
    shared = ex.parse_scalar_expr("sin(x)*cos(y)", VARS)
    exprs = (ex.Add(shared, ex.Variable("z")), ex.Exp(shared), shared, shared)
    program = ex.compile_program(exprs, VARS)
    ufuncs = [step[0] for step in program.steps if step[0] is not None]
    assert sorted(u.__name__ for u in ufuncs) == ["add", "cos", "exp", "multiply", "sin"]
    # the repeated output is a copy of its first row
    assert program.steps[-1] == (None, None, 2, None, 3)
    pts = _points((0.2, 1.0))
    out = ex.evaluate_many(exprs, VARS, pts)
    assert out.shape == (4, len(pts))
    for row, e in zip(out, exprs):
        assert row.tobytes() == ex.evaluate_many(e, VARS, pts).tobytes()


# Points where 1/x divides by 0 (of either sign), exp(1000*y) overflows and
# x^-k is infinite, beside ordinary ones.
_EDGE_POINTS = np.array([
    [0.0, 1.0, -1.0],
    [-0.0, 0.75, 2.0],
    [0.5, -0.25, 0.0],
    [-1.5, 2.0, 0.3],
    [2.0, -3.0, -0.7],
])

_CONSTANTS = (0.0, -0.0, 0.5, -2.0, 3.0, 1000.0)


@st.composite
def _shared_trees(draw):
    """1-6 trees over x, y, z drawn from one growing pool of nodes, so that
    they share subtrees (and may repeat)."""
    pool = [ex.Variable(v) for v in VARS] + [ex.Constant(c) for c in _CONSTANTS]
    node = st.sampled_from(pool)  # samples the pool as it grows
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("binary", "unary", "power")))
        if kind == "binary":
            op = draw(st.sampled_from((ex.Add, ex.Subtract, ex.Multiply, ex.Divide)))
            pool.append(op(draw(node), draw(node)))
        elif kind == "unary":
            op = draw(st.sampled_from((ex.Negate, ex.Sin, ex.Cos, ex.Exp)))
            pool.append(op(draw(node)))
        else:
            pool.append(ex.IntPower(draw(node), draw(st.integers(-3, 3))))
    return tuple(draw(st.lists(node, min_size=1, max_size=6)))


def _tree_walk(e, point):
    """ex.evaluate at the point, or None where it refuses (a division by 0)
    or Python's math does (sin of inf)."""
    try:
        return ex.evaluate(e, dict(zip(VARS, point)))
    except (ex.EvaluationError, ValueError):
        return None


@given(_shared_trees())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_program_matches_each_tree_alone_and_the_tree_walk(exprs):
    block = ex.evaluate_many(exprs, VARS, _EDGE_POINTS)
    assert block.shape == (len(exprs), len(_EDGE_POINTS))
    for row, e in zip(block, exprs):
        assert row.tobytes() == ex.evaluate_many(e, VARS, _EDGE_POINTS).tobytes()
        for got, point in zip(row, _EDGE_POINTS):
            want = _tree_walk(e, point)
            if want is None:
                continue
            if math.isnan(want):
                assert math.isnan(got)
            elif math.isinf(want) or want == 0.0:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
