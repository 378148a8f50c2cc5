import operator
import pickle

import numpy as np
import pytest
import sympy
from conftest import empty_expr_tables
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engelcalc import _kernels
from engelcalc import expr as ex
from engelcalc.expr import (
    Add,
    Constant,
    Cos,
    Divide,
    EvaluationError,
    Exp,
    ExprError,
    ExprSyntaxError,
    IntPower,
    Multiply,
    NamedConstant,
    Negate,
    Sin,
    Subtract,
    UnknownIdentifierError,
    Variable,
    evaluate,
    free_variables,
    parse_scalar_expr,
    partial_derivative,
    simplify,
    to_text,
)

VARS = ("x", "y", "z", "t", "g", "theta")


def _binding(rng, names):
    return {n: float(v) for n, v in zip(names, rng.uniform(-1.0, 1.0, len(names)))}


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_variable():
    assert parse_scalar_expr("z", {"x", "y", "z"}) == Variable("z")


def test_parse_function_with_precedence():
    e = parse_scalar_expr("cos(3*theta/2)", {"theta"})
    expected = Cos(Divide(Multiply(Constant(3), Variable("theta")), Constant(2)))
    assert e == expected


def test_parse_rejects_form_syntax():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_scalar_expr("dy - z*dx", {"x", "y", "z"})
    assert err.value.name == "dy"


def test_parse_reports_byte_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar_expr("x + $", {"x"})
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 + 2*3", 7.0),
        ("2*3 - 4/2", 4.0),
        ("-2^2", -4.0),
        ("2^-2", 0.25),
        ("2^3^2", 512.0),
        ("1 - 2 - 3", -4.0),
        ("12/3/2", 2.0),
        ("2*-3", -6.0),
        ("cos(pi)", -1.0),
        ("1.5e1 + 0.5", 15.5),
    ],
)
def test_parse_precedence_and_literals(text, expected):
    assert evaluate(parse_scalar_expr(text, ()), {}) == pytest.approx(expected)


def test_parse_rejects_non_finite_literal():
    with pytest.raises(ExprSyntaxError, match="'1e400' is not finite") as err:
        parse_scalar_expr("x + 1e400", {"x"})
    assert err.value.offset == 4


def test_to_text_formats_non_finite_constants():
    values = (float("inf"), float("-inf"), float("nan"))
    assert [to_text(Constant(v)) for v in values] == ["inf", "-inf", "nan"]


def test_power_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("x^2.5", {"x"})
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("x^y", {"x", "y"})


def test_function_requires_parentheses():
    with pytest.raises(ExprSyntaxError):
        parse_scalar_expr("sin x", {"x"})


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_sum():
    e = parse_scalar_expr("x + y", {"x", "y"})
    assert evaluate(e, {"x": 1, "y": 2}) == 3.0


def test_evaluate_named_constant():
    assert evaluate(parse_scalar_expr("cos(pi)", ()), {}) == pytest.approx(-1.0)


def test_evaluate_division_by_zero_reports_path():
    e = parse_scalar_expr("1 + 1/x", {"x"})
    with pytest.raises(EvaluationError) as err:
        evaluate(e, {"x": 0.0})
    assert err.value.path == (1,)


def test_evaluate_unbound_variable():
    with pytest.raises(EvaluationError, match="unbound variable 'y'"):
        evaluate(parse_scalar_expr("x + y", {"x", "y"}), {"x": 1.0})


@pytest.mark.parametrize("value", [0.0, -0.0, 1.5, np.inf, np.nan])
def test_a_constant_is_filled_in_as_its_program_would_evaluate(value):
    c = Constant(value)
    pts = np.arange(12.0).reshape(4, 3)
    program = ex.compile_program((c,), ("x", "y", "z"))
    assert len(program.steps) == 1 and program.temporaries == 0  # one fill, in its row
    got = ex.evaluate_many(c, ("x", "y", "z"), pts)
    ran = _kernels.run_program(program.steps, program.temporaries, pts, np.empty((1, 4)))
    assert got.tobytes() == ran[0].tobytes() == np.full(4, value).tobytes()
    # every call returns a new array its caller may write to
    again = ex.evaluate_many(c, ("x", "y", "z"), pts)
    assert again is not got and got.flags.writeable
    got[0] = 7.0
    assert again.tobytes() == ex.evaluate_many(c, ("x", "y", "z"), pts).tobytes()


@pytest.mark.parametrize("shape", [(4,), (4, 2), (1, 4, 3)])
def test_a_constant_still_checks_the_shape_of_its_points(shape):
    with pytest.raises(ExprError, match=r"points must have shape \(n, 3\)"):
        ex.evaluate_many(Constant(1.5), ("x", "y", "z"), np.zeros(shape))


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_identity():
    assert partial_derivative(Variable("z"), "z") == Constant(1)


def test_derivative_sin():
    assert partial_derivative(Sin(Variable("x")), "x") == Cos(Variable("x"))


def test_derivative_chain_rule_against_finite_differences():
    e = parse_scalar_expr("cos(t*(g+pi))", {"t", "g"})
    d = partial_derivative(e, "t")
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(10):
        b = _binding(rng, ("t", "g"))
        up = evaluate(e, {**b, "t": b["t"] + h})
        dn = evaluate(e, {**b, "t": b["t"] - h})
        assert evaluate(d, b) == pytest.approx((up - dn) / (2 * h), abs=1e-8)


def test_derivative_free_variables_shrink():
    e = parse_scalar_expr("x*y + sin(z)", {"x", "y", "z"})
    d = partial_derivative(e, "x")
    assert free_variables(d) <= free_variables(e)


# ---------------------------------------------------------------------------
# simplify


def test_simplify_drops_zero_products():
    e = parse_scalar_expr("0*x + y", {"x", "y"})
    assert simplify(e) == Variable("y")


@pytest.mark.parametrize("text", ["0/0*z", "(x-x)/(y-y)", "0/(0*x)"])
def test_simplify_keeps_zero_over_zero(text):
    s = simplify(parse_scalar_expr(text, VARS))
    assert np.isnan(ex.evaluate_many(s, VARS, np.ones((1, len(VARS))))).all()
    assert simplify(parse_scalar_expr("0/x", VARS)) == Constant(0)


def test_simplify_pythagorean_identity():
    t = Variable("t")
    e = Add(IntPower(Sin(t), 2), IntPower(Cos(t), 2))
    assert simplify(e) == Constant(1)


def test_simplify_pythagorean_after_normalization():
    t = Variable("t")
    e = Add(Multiply(Cos(t), Cos(t)), Multiply(Sin(t), Sin(t)))
    assert simplify(e) == Constant(1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = _binding(rng, ("t",))
        assert evaluate(e, b) == pytest.approx(1.0, abs=1e-12)


def test_simplify_cancels_equal_subtrees():
    e = parse_scalar_expr("(x + sin(y)) - (x + sin(y))", {"x", "y"})
    assert simplify(e) == Constant(0)


POOL = [
    "x*y + sin(z)",
    "cos(t*(g+pi)) - sin(g)^3",
    "exp(x/3)*cos(y) + z^2",
    "(x + y)^2 - x^2 - 2*x*y",
    "sin(x)*cos(y) / (2 + z^2)",
    "1/(2 + x^2) + exp(-t)",
    "x^3 - 2*x*y + y*z*t",
    "cos(theta/2)*sin(theta/2)",
]


@pytest.mark.parametrize("text", POOL)
def test_simplify_preserves_value(text):
    e = parse_scalar_expr(text, VARS)
    s = simplify(e)
    rng = np.random.default_rng(hash(text) % 2**32)
    for _ in range(100):
        b = _binding(rng, VARS)
        lhs = evaluate(e, b)
        rhs = evaluate(s, b)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("text", POOL + ["x/(sin(t)^2 + cos(t)^2)"])
def test_simplify_idempotent_and_shrinks_vars(text):
    e = parse_scalar_expr(text, VARS)
    s = simplify(e)
    assert simplify(s) == s
    assert free_variables(s) <= free_variables(e)


# ---------------------------------------------------------------------------
# printing round trip


@pytest.mark.parametrize("text", POOL + ["-x^2", "x*-2", "(-2)^3", "x - (y - z)"])
def test_round_trip_parse_print(text):
    e = parse_scalar_expr(text, VARS)
    assert parse_scalar_expr(to_text(e), VARS) == e


def _expr_strategy():
    leaves = st.one_of(
        st.sampled_from([Variable(n) for n in VARS]),
        st.floats(
            min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
        ).map(Constant),
        st.just(NamedConstant("pi")),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: Add(*p)),
            st.tuples(children, children).map(lambda p: Subtract(*p)),
            st.tuples(children, children).map(lambda p: Multiply(*p)),
            st.tuples(children, children).map(lambda p: Divide(*p)),
            children.map(Negate),
            children.map(Sin),
            children.map(Cos),
            children.map(Exp),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda p: IntPower(*p)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_expr_strategy())
@settings(max_examples=150, deadline=None)
def test_round_trip_arbitrary_trees(e):
    assert parse_scalar_expr(to_text(e), VARS) == e


@given(_expr_strategy())
@example(Cos(Negate(IntPower(Add(Variable("x"), Variable("y")), 1))))
@example(Multiply(Divide(Constant(0.0), Constant(0.0)), Variable("z")))
@example(Sin(Negate(Divide(Constant(1.0), Constant(2.225073858507e-311)))))
@settings(max_examples=100, deadline=None)
def test_simplify_idempotent_arbitrary_trees(e):
    s = simplify(e)
    assert simplify(s) == s


# ---------------------------------------------------------------------------
# finite-difference law for derivatives (second-order convergence)

SMOOTH_POOL = [
    "sin(2*x)*cos(y)",
    "exp(x/2)*sin(y + z)",
    "cos(t*(g+pi))",
    "sin(x)^3 + cos(y)^2",
    "exp(-x^2/4)*cos(2*y)",
]


def _fd_error(e, var, names, b, h):
    d = partial_derivative(e, var)
    up = evaluate(e, {**b, var: b[var] + h})
    dn = evaluate(e, {**b, var: b[var] - h})
    return abs(evaluate(d, b) - (up - dn) / (2 * h))


def test_derivative_matches_central_differences_second_order():
    rng = np.random.default_rng(11)
    errors = {1e-3: [], 5e-4: []}
    cases = 0
    for text in SMOOTH_POOL:
        e = parse_scalar_expr(text, VARS)
        for name in sorted(free_variables(e)):
            for _ in range(10):
                b = _binding(rng, VARS)
                for h in errors:
                    errors[h].append(_fd_error(e, name, VARS, b, h))
                cases += 1
    assert cases >= 100
    for h, errs in errors.items():
        assert max(errs) <= 100.0 * h**2
    ratio = max(errors[1e-3]) / max(errors[5e-4])
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# differentiation builds no zero terms, and keeps the mathematics

_SYMPY_BINARY = {
    Add: operator.add,
    Subtract: operator.sub,
    Multiply: operator.mul,
    Divide: operator.truediv,
}


def _to_sympy(e):
    if isinstance(e, Constant):  # exact, so that sympy folds no float
        return sympy.Rational(e.value)
    if isinstance(e, NamedConstant):
        return sympy.pi
    if isinstance(e, Variable):
        return sympy.Symbol(e.name)
    if isinstance(e, Negate):
        return -_to_sympy(e.operand)
    if isinstance(e, IntPower):
        return _to_sympy(e.base) ** e.exponent
    if type(e) in _SYMPY_BINARY:
        return _SYMPY_BINARY[type(e)](_to_sympy(e.left), _to_sympy(e.right))
    return getattr(sympy, e.symbol)(_to_sympy(e.operand))


_DIFF_POINTS = np.random.default_rng(3).uniform(-1.0, 1.0, (6, len(VARS)))


@given(_expr_strategy(), st.sampled_from(VARS))
@example(Multiply(Sin(Constant(2.0)), Variable("x")), "x")
@example(Divide(Add(NamedConstant("pi"), Variable("y")), Exp(Variable("x"))), "x")
@example(Sin(Negate(Exp(Divide(Constant(-1.2062782090804127), Variable("x"))))), "x")
@settings(max_examples=150, deadline=None)
def test_partial_derivative_agrees_with_sympy(e, v):
    ours = partial_derivative(e, v)
    if v not in free_variables(e):
        assert ex.is_zero(ours)
    theirs = sympy.diff(_to_sympy(e), sympy.Symbol(v))
    if theirs.has(sympy.zoo, sympy.nan):  # a division by the constant 0
        return
    theirs_at = sympy.lambdify([sympy.Symbol(n) for n in VARS], theirs, "numpy")
    with np.errstate(all="ignore"):
        got = ex.evaluate_many(ours, VARS, _DIFF_POINTS)
        # the contract holds where e itself is finite, as the domain check
        # of a manifest's definitions demands
        defined = np.isfinite(ex.evaluate_many(e, VARS, _DIFF_POINTS))
        try:
            want, nudged = (
                np.broadcast_to(np.asarray(theirs_at(*pts.T), dtype=float), got.shape)
                for pts in (_DIFF_POINTS, _DIFF_POINTS * (1 + 1e-12))
            )
        except OverflowError:  # an exact constant too large for a float
            return
        # compare where both are finite and the derivative is well
        # conditioned: a relative nudge of 1e-12 moves it by at most 1e-9
        scale = 1.0 + np.abs(want)
        keep = defined & np.isfinite(got) & np.isfinite(want) & (np.abs(nudged - want) <= 1e-9 * scale)
        assert np.all(np.abs(got - want)[keep] <= 1e-7 * scale[keep])


def test_derivative_of_a_variable_free_subtree_builds_no_node():
    e = Multiply(Sin(Constant(2.0)), Add(NamedConstant("pi"), Exp(Constant(0.5))))
    before = dict(ex._interned)
    assert ex._diff(e, "x") is ex.ZERO
    assert ex._interned == before


def test_product_and_quotient_rules_build_no_zero_terms():
    x, c = Variable("x"), Cos(Constant(3.0))
    for e in (Multiply(x, c), Multiply(c, x), Divide(x, c), Divide(c, x)):
        ex._diff(e, "x")
    built = [node for node in ex._interned.values() if isinstance(node, ex._Binary)]
    assert not any(ex.is_zero(node.left) or ex.is_zero(node.right) for node in built)


# ---------------------------------------------------------------------------
# interning and the run tables


def _subtrees(e):
    """Every subtree of ``e``, children before their parent."""
    for c in ex.children(e):
        yield from _subtrees(c)
    yield e


@given(_expr_strategy())
@example(Divide(Constant(1.0), Multiply(Constant(-0.0), Variable("x"))))
@example(Divide(Variable("x"), Add(IntPower(Sin(Variable("t")), 2), IntPower(Cos(Variable("t")), 2))))
@settings(max_examples=100, deadline=None)
def test_simplify_same_with_warm_and_cleared_tables(e):
    for sub in _subtrees(e):
        simplify(sub)
        partial_derivative(sub, "x")
    warm = simplify(e)
    empty_expr_tables()
    cold = simplify(e)
    assert cold == warm
    assert to_text(cold) == to_text(warm)


@pytest.mark.parametrize(
    "e",
    [
        IntPower(Constant(3.48e-296), -2),
        IntPower(Constant(10.0), 400),
        IntPower(Multiply(Constant(1e300), Variable("x")), 2),
    ],
    ids=to_text,
)
def test_a_power_that_overflows_stays_unfolded(e):
    assert simplify(e) == e
    assert evaluate(e, {"x": 1.0}) == np.inf


@pytest.mark.parametrize(
    "text", ["(1e200*x)*(1e200*y)", "(1e200*x + y)^2", "x/1e-320", "1e308*x + 1e308*x"]
)
def test_a_coefficient_that_overflows_keeps_its_operands(text):
    s = simplify(parse_scalar_expr(text, VARS))
    assert parse_scalar_expr(to_text(s), VARS) == s
    assert simplify(s) == s
    assert evaluate(s, {"x": 1.0, "y": 1.0}) == np.inf


@pytest.mark.parametrize(
    "text", ["z + 10^400*0", "(0/0)*0", "0*exp(1000)*x", "0/(0/0)", "z + (10^400 - 10^400)"]
)
def test_a_non_finite_constant_times_zero_or_cancelled_folds(text):
    # simplify answers for finite inputs only; manifest.materialize refuses
    # a definition that is not finite at a sample before anything folds it
    s = simplify(parse_scalar_expr(text, VARS))
    assert s == (Variable("z") if text.startswith("z") else Constant(0.0))


@pytest.mark.parametrize("text,finite", [("x + 2", True), ("x + y/0", True)])
def test_a_summand_that_is_not_finite_keeps_the_derivative_not_finite(text, finite):
    # a summand that reads a variable other than x, finite or not,
    # differentiates to 0 in x
    d = partial_derivative(parse_scalar_expr(text, VARS), "x")
    values = ex.evaluate_many(d, VARS, np.ones((1, len(VARS))))
    assert np.isfinite(values).all() == finite


def test_zero_times_pi_folds():
    assert simplify(Multiply(Constant(0.0), ex.PI)) == Constant(0.0)


def test_signed_zero_constants_are_distinct_nodes():
    pos, neg = Constant(0.0), Constant(-0.0)
    assert pos is not neg
    assert pos != neg
    assert ex.is_zero(pos) and ex.is_zero(neg)
    assert parse_scalar_expr(to_text(neg), ()) == neg
    x = Variable("x")
    at_one = np.ones((1, 1))
    # the same tables serve all three, so a memo that merged 0 and -0 shows
    for c, sign in ((0.0, 1.0), (-0.0, -1.0), (0.0, 1.0)):
        s = simplify(Divide(Constant(1.0), Multiply(Constant(c), x)))
        assert ex.evaluate_many(s, ("x",), at_one)[0] == sign * np.inf


def test_equal_trees_built_apart_share_hash_and_equality():
    text = "cos(t*(g+pi)) - sin(g)^3/(1 + x^2)"
    a = parse_scalar_expr(text, VARS)
    assert parse_scalar_expr(text, VARS) is a
    program = ex.compile_program((a,), VARS)
    for i in range(ex._TABLE_CAP):  # the intern table reaches its cap and empties
        Variable(f"v{i}")
    b = parse_scalar_expr(text, VARS)
    assert b is not a
    assert b == a and hash(b) == hash(a)
    assert ex.compile_program((b,), VARS) is program
    assert Constant(0.0) == ex.ZERO and hash(Constant(1)) == hash(ex.ONE)


def test_nodes_are_immutable_and_unpickle_to_the_interned_node():
    e = Add(Variable("x"), Constant(1.0))
    with pytest.raises(AttributeError):
        e.left = Variable("y")
    assert e == Add(Variable("x"), Constant(1.0))
    assert pickle.loads(pickle.dumps(e)) is e


def test_tables_stay_within_their_cap():
    for i in range(ex._TABLE_CAP + 10):
        Variable(f"v{i}")
    assert 0 < len(ex._interned) <= ex._TABLE_CAP
