import numpy as np
import pytest

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
    p1 = ex.compile_program(e, VARS)
    p2 = ex.compile_program(e, VARS)
    assert p1 is p2
