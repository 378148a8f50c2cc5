"""Symbolic scalar expressions over named real variables.

The node set is deliberately small: constants, named constants (``pi``),
variables, the four arithmetic operations, unary negation, integer powers,
and ``sin``/``cos``/``exp``.  Integer-only exponents keep differentiation
closed over the node set.  Trees are immutable and hashable, so they can be
shared freely between concurrent evaluators.

Each operation's class describes it once: an infix operation its printed
symbol, precedence level and numpy ufunc, a function its printed name,
ufunc and scalar fold, negation and powers their ufuncs.  The printer,
the parser, the constant fold of ``simplify`` and ``compile_program``
read those descriptions.  ``compile_program`` turns a tuple of trees into
one program that computes each distinct node once, in a row found by its
identity, and ``_kernels.run_program`` runs it over a batch of points,
writing tree i into row i of the caller's buffer; ``evaluate_many`` is
the one entry point, and a single tree is its 1-tuple.  Differentiation,
the linear form behind ``simplify``
and the scalar reference evaluator ``evaluate`` hold per-kind mathematics
and stay written out kind by kind.

Differentiation builds no zero terms: the derivative of a subtree that
does not read the variable is ``ZERO`` at once, and the sum, product and
quotient rules leave out the term of an operand whose derivative is 0.
The one exception is a summand that reads no variable and is not finite,
such as ``0/0``: it keeps the term ``0*summand``, so the derivative of a
sum that is nowhere finite is not finite either.

Nodes are interned: equal trees are one object, each node's hash is
computed once, and ``simplify``, differentiation, the linear form behind
``simplify``, ``free_variables`` and ``to_text`` remember their results
per node.  A result depends on the tree alone, so these tables live for
the process and serve every later run that builds the same trees; each is
emptied on its own when it reaches ``_TABLE_CAP`` entries; the
``compile_program`` cache keeps the last ``_PROGRAM_CAP`` programs.

Simplification is a normalizing rewrite (constant folding, flattening of
sums and products with canonical term ordering, like-term collection, and
the ``sin^2 + cos^2`` collapse), not a general computer-algebra system.
Its correctness contract is numeric equivalence, which the test suite
checks at sampled bindings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import _kernels

__all__ = [
    "ScalarExpr",
    "Constant",
    "NamedConstant",
    "Variable",
    "Negate",
    "Add",
    "Subtract",
    "Multiply",
    "Divide",
    "IntPower",
    "Sin",
    "Cos",
    "Exp",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvaluationError",
    "as_expr",
    "is_zero",
    "parse_scalar_expr",
    "partial_derivative",
    "evaluate",
    "evaluate_many",
    "simplify",
    "substitute",
    "free_variables",
    "to_text",
    "compile_program",
    "ZERO",
    "ONE",
    "PI",
]

NAMED_CONSTANT_VALUES = {"pi": math.pi}

# precedence levels of printed text, loosest first
_LEVEL_SUM = 1
_LEVEL_TERM = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 5


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, offset: int):
        ExprError.__init__(self, f"unknown identifier '{name}' (byte offset {offset})")
        self.offset = offset
        self.name = name


class EvaluationError(ExprError):
    def __init__(self, message: str, path: tuple[int, ...]):
        loc = "/".join(str(i) for i in path) if path else "root"
        super().__init__(f"{message} (node path {loc})")
        self.path = path


# ---------------------------------------------------------------------------
# process tables: the intern table and the memo tables of the symbolic passes

# Entries per table.  The tables live for the process, so a long-lived
# caller (a library user, a notebook sweeping plans or seeds) reuses the
# symbolic work of earlier runs on the same manifest; a table that reaches
# the cap is emptied before its next entry, so memory stays bounded however
# many distinct trees pass through.  All 15 bundled manifests under every
# command intern about 820 nodes, so they fit.  Threads share the tables;
# a race costs a repeated computation or a second copy of an equal node,
# never a wrong result, because stored values are never changed and equal
# nodes compare equal by their keys.
_TABLE_CAP = 1 << 12
# Size of the compile_program cache.  A program evaluates every expression
# of one check and keeps all their trees alive, so the cache holds fewer
# programs than a table holds nodes: on a stream of inputs that never
# repeat, 2^12 programs held about 8 MB more than 2^9.  All 15 bundled
# manifests under every command compile 71 programs.
_PROGRAM_CAP = 1 << 9

_interned: dict = {}  # node key, or (class, id(left), id(right)) of an infix node -> node
_simplified: dict = {}  # node -> simplify(node)
_derivatives: dict = {}  # (node, variable name) -> unsimplified derivative
_linear: dict = {}  # node -> _Lin, never mutated once stored
_formatted: dict = {}  # node -> (text, precedence level)
_free: dict = {}  # node -> frozenset of its variable names


def _remember(table: dict, key, value) -> None:
    if len(table) >= _TABLE_CAP:
        table.clear()
    table[key] = value


class ScalarExpr:
    """Base class for expression nodes; construct via the subclasses.

    Nodes are immutable and hash-consed: while the intern table holds a
    node, constructing an equal one returns it, so equal trees built in
    any run of the process are one object and compare by identity.  An
    infix node is looked up by its operands' identity: built from equal
    operands that are other objects (one made before the table last
    reached its cap, say), it is a second node.  Each node keeps its key,
    ``(class, *fields)`` with a constant's value as ``float.hex`` so that
    ``0.0`` and ``-0.0`` stay apart, and the hash of that key, taken once
    from the children's cached hashes.  Nodes built before the intern
    table last reached its cap compare equal to fresh equal trees through
    their keys.
    """

    __slots__ = ("_key", "_hash")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _node(key: tuple, *fields, ident: tuple | None = None) -> ScalarExpr:
    """The interned node of ``key`` (its class first), built from ``fields``
    if the table does not hold it under ``ident`` (by default the key)."""
    if ident is None:
        ident = key
    node = _interned.get(ident)
    if node is None:
        cls = key[0]
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_key", key)
        object.__setattr__(node, "_hash", hash(key))
        _remember(_interned, ident, node)
    return node


class Constant(ScalarExpr):
    __slots__ = _fields = ("value",)

    def __new__(cls, value):
        value = float(value)
        return _node((cls, value.hex()), value)


class NamedConstant(ScalarExpr):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        if name not in NAMED_CONSTANT_VALUES:
            raise ExprError(f"unrecognized named constant '{name}'")
        return _node((cls, name), name)


class Variable(ScalarExpr):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        return _node((cls, name), name)


class Negate(ScalarExpr):
    __slots__ = _fields = ("operand",)
    ufunc = np.negative

    def __new__(cls, operand):
        # negation of a literal is a literal, keeping print/parse inverse
        if isinstance(operand, Constant):
            return Constant(-operand.value)
        return _node((cls, operand), operand)


class _Binary(ScalarExpr):
    """An infix operation.  Each kind declares its printed ``symbol``, the
    precedence ``level`` of the result (the left operand sits at that level,
    the right one a level higher, so these associate left) and the numpy
    ``ufunc`` that evaluates it."""

    __slots__ = _fields = ("left", "right")

    def __new__(cls, left, right):
        # looked up by its operands' identity, which hashes no subtree: the
        # stored node holds both operands, so neither id is reused while
        # the entry lives
        return _node((cls, left, right), left, right, ident=(cls, id(left), id(right)))


class Add(_Binary):
    __slots__ = ()
    symbol, level, ufunc = "+", _LEVEL_SUM, np.add


class Subtract(_Binary):
    __slots__ = ()
    symbol, level, ufunc = "-", _LEVEL_SUM, np.subtract


class Multiply(_Binary):
    __slots__ = ()
    symbol, level, ufunc = "*", _LEVEL_TERM, np.multiply


class Divide(_Binary):
    __slots__ = ()
    symbol, level, ufunc = "/", _LEVEL_TERM, np.divide


class IntPower(ScalarExpr):
    __slots__ = _fields = ("base", "exponent")
    ufunc = np.power  # applied with the exponent as a float

    def __new__(cls, base, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ExprError("IntPower exponent must be a Python int")
        return _node((cls, base, exponent), base, exponent)


class _Function(ScalarExpr):
    """A function call.  Each kind declares its printed ``symbol``, the numpy
    ``ufunc`` that evaluates it and the scalar ``fold`` that ``simplify``
    applies to a constant operand."""

    __slots__ = _fields = ("operand",)

    def __new__(cls, operand):
        return _node((cls, operand), operand)


class Sin(_Function):
    __slots__ = ()
    symbol, ufunc, fold = "sin", np.sin, math.sin


class Cos(_Function):
    __slots__ = ()
    symbol, ufunc, fold = "cos", np.cos, math.cos


class Exp(_Function):
    __slots__ = ()
    symbol, ufunc, fold = "exp", np.exp, math.exp


# the parser's vocabulary, read off the node classes
_BINARY_BY_SYMBOL = {cls.symbol: cls for cls in (Add, Subtract, Multiply, Divide)}
_FUNCTION_BY_NAME = {cls.symbol: cls for cls in (Sin, Cos, Exp)}

ZERO = Constant(0.0)
ONE = Constant(1.0)
PI = NamedConstant("pi")


def as_expr(value) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise ExprError(f"cannot coerce {value!r} to a ScalarExpr")


def is_zero(e: ScalarExpr) -> bool:
    """Whether ``e`` is the constant 0 of either sign (``Constant(-0.0)``
    is a node of its own, so ``e == ZERO`` misses it)."""
    return isinstance(e, Constant) and e.value == 0.0


def children(e: ScalarExpr) -> tuple[ScalarExpr, ...]:
    if isinstance(e, _Binary):
        return (e.left, e.right)
    if isinstance(e, (Negate, _Function)):
        return (e.operand,)
    if isinstance(e, IntPower):
        return (e.base,)
    return ()


def free_variables(e: ScalarExpr) -> frozenset[str]:
    out = _free.get(e)
    if out is None:
        if isinstance(e, Variable):
            out = frozenset((e.name,))
        else:
            out = frozenset().union(*map(free_variables, children(e)))
        _remember(_free, e, out)
    return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: ScalarExpr, binding: Mapping[str, float]) -> float:
    """Evaluate at a full binding of the free variables.

    Division by zero raises :class:`EvaluationError` carrying the path of
    the offending node (child indices from the root).
    """
    return _eval(e, binding, ())


def _eval(e: ScalarExpr, b: Mapping[str, float], path: tuple[int, ...]) -> float:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, NamedConstant):
        return NAMED_CONSTANT_VALUES[e.name]
    if isinstance(e, Variable):
        if e.name not in b:
            raise EvaluationError(f"unbound variable '{e.name}'", path)
        return float(b[e.name])
    if isinstance(e, Negate):
        return -_eval(e.operand, b, path + (0,))
    if isinstance(e, Add):
        return _eval(e.left, b, path + (0,)) + _eval(e.right, b, path + (1,))
    if isinstance(e, Subtract):
        return _eval(e.left, b, path + (0,)) - _eval(e.right, b, path + (1,))
    if isinstance(e, Multiply):
        return _eval(e.left, b, path + (0,)) * _eval(e.right, b, path + (1,))
    if isinstance(e, Divide):
        num = _eval(e.left, b, path + (0,))
        den = _eval(e.right, b, path + (1,))
        if den == 0.0:
            raise EvaluationError("division by zero", path)
        return num / den
    if isinstance(e, IntPower):
        base = _eval(e.base, b, path + (0,))
        if e.exponent < 0 and base == 0.0:
            raise EvaluationError("division by zero (negative power of zero)", path)
        try:
            return float(base**e.exponent)
        except OverflowError:
            return math.inf if base > 0 or e.exponent % 2 == 0 else -math.inf
    if isinstance(e, Sin):
        return math.sin(_eval(e.operand, b, path + (0,)))
    if isinstance(e, Cos):
        return math.cos(_eval(e.operand, b, path + (0,)))
    if isinstance(e, Exp):
        try:
            return math.exp(_eval(e.operand, b, path + (0,)))
        except OverflowError:
            return math.inf
    raise ExprError(f"unknown node type {type(e).__name__}")


def substitute(e: ScalarExpr, name: str, replacement) -> ScalarExpr:
    """Replace every occurrence of variable ``name`` by ``replacement``."""
    rep = as_expr(replacement)
    if isinstance(e, Variable):
        return rep if e.name == name else e
    if not children(e):
        return e
    fields = (getattr(e, field) for field in e._fields)
    return type(e)(
        *(substitute(f, name, rep) if isinstance(f, ScalarExpr) else f for f in fields)
    )


# ---------------------------------------------------------------------------
# differentiation


def partial_derivative(e: ScalarExpr, v: str) -> ScalarExpr:
    """Exact symbolic partial derivative, returned in simplified form."""
    return simplify(_diff(e, v))


def _diff(e: ScalarExpr, v: str) -> ScalarExpr:
    if v not in free_variables(e):
        return ZERO
    key = (e, v)
    d = _derivatives.get(key)
    if d is None:
        d = _diff_node(e, v)
        _remember(_derivatives, key, d)
    return d


_NO_VARIABLES = np.empty((1, 0))


def _not_finite(e: ScalarExpr) -> bool:
    """Whether a tree that reads no variable evaluates to inf or nan."""
    return not np.isfinite(evaluate_many(e, (), _NO_VARIABLES)[0])


def _diff_node(e: ScalarExpr, v: str) -> ScalarExpr:
    """The derivative of ``e``, which reads ``v``."""
    if isinstance(e, Variable):
        return ONE
    if isinstance(e, Negate):
        return Negate(_diff(e.operand, v))
    if isinstance(e, _Binary):
        # sum, product and quotient rules; an operand whose derivative is 0
        # leaves its term out
        dl, dr = _diff(e.left, v), _diff(e.right, v)
        if isinstance(e, (Multiply, Divide)):
            dl = dl if is_zero(dl) else Multiply(dl, e.right)
            dr = dr if is_zero(dr) else Multiply(e.left, dr)
        else:
            # but a summand such as 0/0 that reads no variable and is not
            # finite stays as 0 times itself
            dl, dr = (
                Multiply(ZERO, side) if not free_variables(side) and _not_finite(side) else d
                for d, side in ((dl, e.left), (dr, e.right))
            )
        rule = Add if isinstance(e, (Add, Multiply)) else Subtract
        if is_zero(dl):
            num = dr if is_zero(dr) or rule is Add else Negate(dr)
        else:
            num = dl if is_zero(dr) else rule(dl, dr)
        if isinstance(e, Divide) and not is_zero(num):
            return Divide(num, IntPower(e.right, 2))
        return num
    if isinstance(e, IntPower):
        if e.exponent == 0:
            return ZERO
        return Multiply(
            Multiply(Constant(e.exponent), IntPower(e.base, e.exponent - 1)),
            _diff(e.base, v),
        )
    if isinstance(e, Sin):
        return Multiply(Cos(e.operand), _diff(e.operand, v))
    if isinstance(e, Cos):
        return Negate(Multiply(Sin(e.operand), _diff(e.operand, v)))
    if isinstance(e, Exp):
        return Multiply(Exp(e.operand), _diff(e.operand, v))
    raise ExprError(f"unknown node type {type(e).__name__}")


# ---------------------------------------------------------------------------
# pretty printing


def to_text(e: ScalarExpr) -> str:
    """Render with minimal parentheses; re-parsing yields an equal tree."""
    return _fmt(e, _LEVEL_SUM)


def _fmt(e: ScalarExpr, minlevel: int) -> str:
    text, level = _fmt_node(e)
    return f"({text})" if level < minlevel else text


def _format_float(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        # int() drops the sign of -0.0, which is a node of its own
        return "-0" if v == 0.0 and math.copysign(1.0, v) < 0 else str(int(v))
    return repr(v)


def _fmt_node(e: ScalarExpr) -> tuple[str, int]:
    out = _formatted.get(e)
    if out is None:
        out = _format_node(e)
        _remember(_formatted, e, out)
    return out


def _format_node(e: ScalarExpr) -> tuple[str, int]:
    if isinstance(e, Constant):
        s = _format_float(e.value)
        return s, (_LEVEL_UNARY if s.startswith("-") else _LEVEL_ATOM)
    if isinstance(e, (NamedConstant, Variable)):
        return e.name, _LEVEL_ATOM
    if isinstance(e, _Function):
        return f"{e.symbol}({_fmt(e.operand, _LEVEL_SUM)})", _LEVEL_ATOM
    if isinstance(e, Negate):
        return f"-{_fmt(e.operand, _LEVEL_UNARY)}", _LEVEL_UNARY
    if isinstance(e, _Binary):
        # sums are spaced, products are not
        op = f" {e.symbol} " if e.level == _LEVEL_SUM else e.symbol
        return f"{_fmt(e.left, e.level)}{op}{_fmt(e.right, e.level + 1)}", e.level
    if isinstance(e, IntPower):
        return f"{_fmt(e.base, _LEVEL_ATOM)}^{e.exponent}", _LEVEL_POWER
    raise ExprError(f"unknown node type {type(e).__name__}")


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)

_MAX_EXPONENT = 10**6


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent over: sums < products < unary minus < ``^``.

    Binary operators associate left; ``^`` associates right and accepts
    only (optionally negated) integer literals as exponents.
    """

    def __init__(self, text: str, allowed_vars: Iterable[str]):
        self.tokens = _tokenize(text)
        self.vars = frozenset(allowed_vars)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected '{op}'", offset)
        return self.advance()

    def parse(self) -> ScalarExpr:
        e = self.parse_binary()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
        return e

    def parse_binary(self, level: int = _LEVEL_SUM) -> ScalarExpr:
        """Operands at ``level`` joined by the operators of that level."""
        if level == _LEVEL_UNARY:
            return self.parse_unary()
        e = self.parse_binary(level + 1)
        while True:
            kind, value, _ = self.peek()
            cls = _BINARY_BY_SYMBOL.get(value) if kind == "op" else None
            if cls is None or cls.level != level:
                return e
            self.advance()
            e = cls(e, self.parse_binary(level + 1))

    def parse_unary(self) -> ScalarExpr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Negate(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> ScalarExpr:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return IntPower(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = 1
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, offset = self.peek()
        if kind != "num":
            raise ExprSyntaxError("exponent must be an integer literal", offset)
        if "." in value or "e" in value or "E" in value:
            raise ExprSyntaxError("exponent must be an integer literal", offset)
        self.advance()
        k = sign * int(value)
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            # right-associative tower of integer literals, folded to an int
            self.advance()
            k2 = self.parse_exponent()
            if k2 < 0:
                raise ExprSyntaxError("nested exponent must be non-negative", offset)
            if abs(k) > 1 and k2 > 20:
                raise ExprSyntaxError("exponent too large", offset)
            k = k**k2
        if abs(k) > _MAX_EXPONENT:
            raise ExprSyntaxError("exponent too large", offset)
        return k

    def parse_atom(self) -> ScalarExpr:
        kind, value, offset = self.advance()
        if kind == "num":
            v = float(value)
            if not math.isfinite(v):
                raise ExprSyntaxError(f"numeric literal {value!r} is not finite", offset)
            return Constant(v)
        if kind == "ident":
            if value in _FUNCTION_BY_NAME:
                self.expect_op("(")
                arg = self.parse_binary()
                self.expect_op(")")
                return _FUNCTION_BY_NAME[value](arg)
            if value in NAMED_CONSTANT_VALUES:
                return NamedConstant(value)
            if value in self.vars:
                return Variable(value)
            raise UnknownIdentifierError(value, offset)
        if kind == "op" and value == "(":
            e = self.parse_binary()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse_scalar_expr(text: str, allowed_vars: Iterable[str]) -> ScalarExpr:
    """Parse ``text`` over the given variable names.

    Identifiers must be ``allowed_vars`` members, ``pi``, or one of the
    function names ``sin``/``cos``/``exp`` (which require parentheses).
    """
    return _Parser(text, allowed_vars).parse()


# ---------------------------------------------------------------------------
# simplification

_EXPAND_CAP = 400


class _Lin:
    """Linear combination: constant + sum of coefficient * factor-product.

    Keys of ``terms`` are sorted tuples of ``(base_expr, positive_exponent)``
    pairs; the base expressions are already in canonical form.  A ``_Lin``
    is filled by the function that creates it and never changed after it
    is returned, because ``_linearize`` hands out the same one again.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: float = 0.0, terms: dict | None = None):
        self.const = const
        self.terms = terms if terms is not None else {}

    def nterms(self) -> int:
        return len(self.terms) + (1 if self.const != 0.0 else 0)


def _order_key(e: ScalarExpr) -> str:
    return to_text(e)


def _term_add(terms: dict, key: tuple, coef: float) -> None:
    new = terms.get(key, 0.0) + coef
    if new == 0.0:
        terms.pop(key, None)
    else:
        terms[key] = new


def _lin_combine(a: _Lin, b: _Lin, sign: float) -> _Lin | None:
    """a + sign*b, or None where a coefficient overflows."""
    terms = dict(a.terms)
    for key, coef in b.terms.items():
        _term_add(terms, key, sign * coef)
    const = a.const + sign * b.const
    if not math.isfinite(const):
        return None
    for key in b.terms:  # only the coefficients of b's terms changed
        if not math.isfinite(terms.get(key, 0.0)):
            return None
    return _Lin(const, terms)


def _lin_scale(a: _Lin, c: float) -> _Lin:
    if c == 0.0:
        return _Lin()
    return _Lin(a.const * c, {k: v * c for k, v in a.terms.items()})


def _merge_factor_lists(fa: tuple, fb: tuple) -> tuple:
    bases: dict = {}
    for base, exp in fa + fb:
        bases[base] = bases.get(base, 0) + exp
    items = [(b, e) for b, e in bases.items() if e != 0]
    items.sort(key=lambda it: _order_key(it[0]))
    return tuple(items)


def _lin_mul(a: _Lin, b: _Lin) -> _Lin | None:
    """The expanded product, or None where it would pass the expansion cap,
    fold away a factor whose value may not be finite, or overflow."""
    if a.nterms() * b.nterms() > _EXPAND_CAP:
        return None
    if _is_zero(a) or _is_zero(b):
        # 0*u is 0 only where u is finite; the product keeps the sign of a zero
        if _has_constant_factor(a) or _has_constant_factor(b):
            return None
        return _Lin(a.const * b.const)
    out = _Lin()
    out.const = a.const * b.const
    if a.const != 0.0:
        for key, coef in b.terms.items():
            _term_add(out.terms, key, a.const * coef)
    if b.const != 0.0:
        for key, coef in a.terms.items():
            _term_add(out.terms, key, b.const * coef)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            _term_add(out.terms, _merge_factor_lists(ka, kb), ca * cb)
    return out if _finite(out) else None


def _lin_quotient(num: _Lin, den: _Lin) -> _Lin | None:
    """num/den expanded where den is a nonzero constant or num is 0, or None
    where the quotient keeps its operands."""
    # collapse sin^2 + cos^2 first, as _rebuild would on a second pass
    den = _pythagorean(den)
    if _is_const(den) and den.const != 0.0:
        out = _lin_scale(num, 1.0 / den.const)
        return out if _finite(out) else None
    if _is_zero(num) and not _is_const(den) and not _has_constant_factor(den):
        # 0/den is 0 wherever den is finite and nonzero; 0/0 stays nan
        return _Lin()
    return None


def _finite(lin: _Lin) -> bool:
    return math.isfinite(lin.const) and all(map(math.isfinite, lin.terms.values()))


def _has_constant_factor(lin: _Lin) -> bool:
    """Whether a term has a variable-free factor other than a named constant
    (pi), such as 10^400 or 0/0, whose value need not be finite."""
    for key in lin.terms:
        for base, _ in key:
            if type(base) not in (Variable, NamedConstant) and not free_variables(base):
                return True
    return False


def _atom(e: ScalarExpr) -> _Lin:
    return _Lin(0.0, {((e, 1),): 1.0})


def _is_const(lin: _Lin) -> bool:
    return not lin.terms


def _is_zero(lin: _Lin) -> bool:
    return not lin.terms and lin.const == 0.0


def _linearize(e: ScalarExpr) -> _Lin:
    lin = _linear.get(e)
    if lin is None:
        lin = _linearize_node(e)
        _remember(_linear, e, lin)
    return lin


def _linearize_node(e: ScalarExpr) -> _Lin:
    if isinstance(e, Constant):
        return _Lin(e.value)
    if isinstance(e, (NamedConstant, Variable)):
        return _atom(e)
    if isinstance(e, Negate):
        return _lin_scale(_linearize(e.operand), -1.0)
    if isinstance(e, _Binary):
        left, right = _linearize(e.left), _linearize(e.right)
        if isinstance(e, Add):
            lin = _lin_combine(left, right, 1.0)
        elif isinstance(e, Subtract):
            lin = _lin_combine(left, right, -1.0)
        elif isinstance(e, Multiply):
            lin = _lin_mul(left, right)
        else:
            lin = _lin_quotient(left, right)
        if lin is not None:
            return lin
        # past the expansion cap, with a coefficient that overflows, or a
        # fold of 0 that could hide a non-finite operand: keep the operands
        return _atom(type(e)(_simplify(e.left), _simplify(e.right)))
    if isinstance(e, IntPower):
        base = _linearize(e.base)
        k = e.exponent
        if k == 0:
            return _Lin(1.0)
        if k == 1:
            # u^1 is u; an atom here would rebuild without the power and
            # linearize differently on a second pass
            return base
        # a power whose value overflows stays unfolded, as a non-finite
        # sin, cos or exp does
        if _is_const(base):
            if base.const == 0.0 and k < 0:
                return _atom(IntPower(ZERO, k))
            v = _finite_power(base.const, k)
            if v is not None:
                return _Lin(v)
        elif k >= 1 and len(base.terms) == 1 and base.const == 0.0:
            # a single product: (c*u*v)^k is c^k*u^k*v^k (exponents are positive)
            ((key, coef),) = base.terms.items()
            v = _finite_power(coef, k)
            if v is not None:
                return _Lin(0.0, {tuple((b, exp * k) for b, exp in key): v})
        elif k >= 2 and base.nterms() ** k <= _EXPAND_CAP:
            out = base
            for _ in range(k - 1):
                out = _lin_mul(out, base)
                if out is None:
                    break
            else:
                return out
        inner = _simplify(e.base)
        return _Lin(0.0, {((inner, k) if k > 0 else (IntPower(inner, k), 1),): 1.0})
    if isinstance(e, _Function):
        inner = _simplify(e.operand)
        if isinstance(inner, Constant):
            try:
                v = e.fold(inner.value)
            except (OverflowError, ValueError):  # exp overflows; sin, cos of an infinity
                v = math.nan
            if math.isfinite(v):
                return _Lin(v)
        return _atom(type(e)(inner))
    raise ExprError(f"unknown node type {type(e).__name__}")


def _finite_power(c: float, k: int) -> float | None:
    """``c**k``, or None where it is not a finite float."""
    try:
        v = float(c**k)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _pythagorean(lin: _Lin) -> _Lin:
    """Collapse matching ``c*sin(u)^2`` + ``c*cos(u)^2`` term pairs into a
    new ``_Lin``; ``lin`` itself when no term has a ``sin(u)^2`` factor."""
    if not any(exp == 2 and isinstance(base, Sin) for key in lin.terms for base, exp in key):
        return lin
    lin = _Lin(lin.const, dict(lin.terms))
    changed = True
    while changed:
        changed = False
        for key in list(lin.terms):
            if key not in lin.terms:
                continue
            coef = lin.terms[key]
            for slot, (base, exp) in enumerate(key):
                if exp != 2 or not isinstance(base, Sin):
                    continue
                partner_factor = (Cos(base.operand), 2)
                rest = key[:slot] + key[slot + 1 :]
                partner = tuple(
                    sorted(rest + (partner_factor,), key=lambda it: _order_key(it[0]))
                )
                if lin.terms.get(partner) == coef:
                    del lin.terms[key]
                    del lin.terms[partner]
                    if rest:
                        _term_add(lin.terms, rest, coef)
                    else:
                        lin.const += coef
                    changed = True
                    break
    return lin


def _build_product(key: tuple) -> ScalarExpr:
    factors = []
    for base, exp in key:
        factors.append(base if exp == 1 else IntPower(base, exp))
    out = factors[0]
    for f in factors[1:]:
        out = Multiply(out, f)
    return out


def _rebuild(lin: _Lin) -> ScalarExpr:
    lin = _pythagorean(lin)
    entries = []
    for key, coef in lin.terms.items():
        if coef == 0.0:
            continue
        product = _build_product(key)
        entries.append((_order_key(product), product, coef))
    entries.sort(key=lambda it: it[0])

    acc: ScalarExpr | None = None
    for _, product, coef in entries:
        mag = abs(coef)
        term = product if mag == 1.0 else Multiply(Constant(mag), product)
        if acc is None:
            acc = term if coef > 0 else Negate(term)
        else:
            acc = Add(acc, term) if coef > 0 else Subtract(acc, term)
    c = lin.const
    if acc is None:
        return Constant(c)
    if c > 0:
        acc = Add(acc, Constant(c))
    elif c < 0:
        acc = Subtract(acc, Constant(-c))
    return acc


def simplify(e: ScalarExpr) -> ScalarExpr:
    """Normalize to a canonical, numerically-equivalent form (idempotent)."""
    return _simplify(e)


def _simplify(e: ScalarExpr) -> ScalarExpr:
    out = _simplified.get(e)
    if out is None:
        out = _rebuild(_linearize(e))
        _remember(_simplified, e, out)
    return out


# ---------------------------------------------------------------------------
# compiled multi-output programs for batch evaluation


@dataclass(frozen=True)
class Program:
    steps: tuple[tuple, ...]  # (ufunc, argument, a, b, destination); see _kernels
    temporaries: int  # rows the steps use besides the outputs and the columns


def _emit(exprs: tuple[ScalarExpr, ...], var_index: Mapping[str, int]) -> Program:
    """The steps that compute each distinct node of ``exprs`` once.

    The walk finds a node's row by identity.  Output i is computed in row i,
    and a repeated output is copied from its first row.  Any other node
    gets a temporary row, free for reuse once its last reader has run.  A
    leaf fills its row with a constant or copies a column of the points into
    it; any other node applies its kind's ufunc to its children's rows, and
    an integer power passes its exponent as the ufunc's second argument.
    """
    first_temporary = len(exprs) + len(var_index)
    nodes: list[tuple] = []  # (node, its id, its children's ids), children first
    unread: dict[int, int] = {}  # id(node) -> reads by the nodes not yet emitted

    def visit(e: ScalarExpr, key: int) -> None:
        unread[key] = 0
        kids = []
        for child in children(e):
            kid = id(child)
            if kid not in unread:
                visit(child, kid)
            unread[kid] += 1
            kids.append(kid)
        nodes.append((e, key, kids))

    row: dict[int, int] = {}
    for i, e in enumerate(exprs):
        if id(e) not in unread:
            visit(e, id(e))
        row.setdefault(id(e), i)
    free: list[int] = []
    temporaries = 0
    steps: list[tuple] = []
    for e, key, kids in nodes:
        args = [row[kid] for kid in kids]
        for kid, r in zip(kids, args):
            unread[kid] -= 1
            if not unread[kid] and r >= first_temporary:
                free.append(r)
        dst = row.get(key)
        if dst is None:
            if not free:
                free.append(first_temporary + temporaries)
                temporaries += 1
            dst = row[key] = free.pop()
        if isinstance(e, IntPower):
            steps.append((e.ufunc, float(e.exponent), args[0], None, dst))
        elif kids:
            steps.append((e.ufunc, None, args[0], args[1] if len(args) > 1 else None, dst))
        elif isinstance(e, Variable):
            if e.name not in var_index:
                raise ExprError(f"variable '{e.name}' not in the evaluation order")
            steps.append((None, None, len(exprs) + var_index[e.name], None, dst))
        elif isinstance(e, Constant):
            steps.append((None, e.value, None, None, dst))
        else:
            steps.append((None, NAMED_CONSTANT_VALUES[e.name], None, None, dst))
    for i, e in enumerate(exprs):
        if row[id(e)] != i:
            steps.append((None, None, row[id(e)], None, i))
    return Program(steps=tuple(steps), temporaries=temporaries)


@lru_cache(maxsize=_PROGRAM_CAP)
def compile_program(exprs: tuple[ScalarExpr, ...], var_order: tuple[str, ...]) -> Program:
    """One program computing every expression over the given variable order."""
    return _emit(exprs, {name: i for i, name in enumerate(var_order)})


def evaluate_many(
    exprs: ScalarExpr | tuple[ScalarExpr, ...],
    var_order: tuple[str, ...],
    points: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate at every row of ``points`` (columns follow ``var_order``).

    A tuple of k expressions runs as one compiled program, which computes
    every distinct node once, and gives a (k, n) array whose row i holds
    expression i: ``out`` if given (C-contiguous), else a new array.  A
    single expression is the 1-tuple, and gives its row."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != len(var_order):
        raise ExprError(
            f"points must have shape (n, {len(var_order)}), got {pts.shape}"
        )
    single = isinstance(exprs, ScalarExpr)
    program = compile_program((exprs,) if single else tuple(exprs), tuple(var_order))
    if out is None:
        out = np.empty((1 if single else len(exprs), pts.shape[0]))
    _kernels.run_program(program.steps, program.temporaries, pts, out)
    return out[0] if single else out
