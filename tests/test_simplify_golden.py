"""Golden outputs of ``simplify`` over the trees the bundled manifests build.

``simplify_golden.txt`` holds one line per distinct tree: every definition
the manifests parse, and every tree handed to ``simplify`` while each
bundled manifest runs ``verify``, ``invariant`` and ``construct`` at its
own plan (the bracket sums of ``lie_bracket``, the derivative trees of
``partial_derivative``, wedges, scalings and the rest).  Each line is the
tree and its simplified form, both in the exact prefix notation below,
then ``to_text`` of the simplified form.  The file was written by the
version before expression interning, whose ``to_text`` printed ``-0.0``
as ``0``; the prefix notation keeps the sign of every zero.

Regenerate, only when a change to ``simplify``'s output is intended, with

    PYTHONPATH=src python tests/test_simplify_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from engelcalc import expr as ex

GOLDEN = Path(__file__).with_name("simplify_golden.txt")
REPO = Path(__file__).resolve().parents[1]

# prefix notation: one token per node, children follow their parent
_BINARY = {ex.Add: "+", ex.Subtract: "-", ex.Multiply: "*", ex.Divide: "/"}
_UNARY = {ex.Negate: "~", ex.Sin: "sin", ex.Cos: "cos", ex.Exp: "exp"}
_BINARY_OF = {token: cls for cls, token in _BINARY.items()}
_UNARY_OF = {token: cls for cls, token in _UNARY.items()}


def encode(e: ex.ScalarExpr) -> str:
    """Constants as ``#repr``, variables as ``$name``, named constants as
    ``@name`` and powers as ``^k``."""
    out: list[str] = []

    def walk(node):
        cls = type(node)
        if cls is ex.Constant:
            out.append("#" + repr(node.value))
        elif cls is ex.Variable:
            out.append("$" + node.name)
        elif cls is ex.NamedConstant:
            out.append("@" + node.name)
        elif cls is ex.IntPower:
            out.append(f"^{node.exponent}")
            walk(node.base)
        elif cls in _UNARY:
            out.append(_UNARY[cls])
            walk(node.operand)
        else:
            out.append(_BINARY[cls])
            walk(node.left)
            walk(node.right)

    walk(e)
    return " ".join(out)


def decode(text: str) -> ex.ScalarExpr:
    tokens = iter(text.split(" "))

    def read():
        token = next(tokens)
        head, rest = token[0], token[1:]
        if head == "#":
            return ex.Constant(float(rest))
        if head == "$":
            return ex.Variable(rest)
        if head == "@":
            return ex.NamedConstant(rest)
        if head == "^":
            return ex.IntPower(read(), int(rest))
        if token in _UNARY_OF:
            return _UNARY_OF[token](read())
        left = read()
        return _BINARY_OF[token](left, read())

    return read()


def test_simplify_matches_golden():
    lines = [
        line.split("\t")
        for line in GOLDEN.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    assert len(lines) > 500
    wrong = []
    for tree, simplified, text in lines:
        s = ex.simplify(decode(tree))
        # the version that wrote the file printed -0.0 as "0"; it now prints
        # "-0", so that parsing the text gives the node back
        expected_text = "-0" if simplified == "#-0.0" else text
        if encode(s) != simplified or ex.to_text(s) != expected_text:
            wrong.append((tree, simplified, encode(s), ex.to_text(s)))
    assert not wrong, f"{len(wrong)} of {len(lines)} trees simplify differently: {wrong[:3]}"


def _capture() -> list[tuple[str, str, str]]:
    """Run every bundled manifest with ``parse_scalar_expr`` and ``simplify``
    rebound in every engelcalc module, recording each distinct tree."""
    import tempfile

    from engelcalc.cli import main

    trees: dict[str, ex.ScalarExpr] = {}
    originals = {"parse_scalar_expr": ex.parse_scalar_expr, "simplify": ex.simplify}

    def parse(text, allowed):
        e = originals["parse_scalar_expr"](text, allowed)
        trees.setdefault(encode(e), e)
        return e

    def simplify(e):
        trees.setdefault(encode(e), e)
        return originals["simplify"](e)

    wrappers = {"parse_scalar_expr": parse, "simplify": simplify}
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("engelcalc.")]
    rebound = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, original in originals.items():
                if value is original:
                    rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[name])
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for manifest in sorted((REPO / "manifests").glob("*.manifest")):
                for command in ("verify", "invariant", "construct"):
                    out = ["--out", tmp + "/out.manifest"] if command == "construct" else []
                    main([command, str(manifest), "--report", tmp + "/report.json", *out])
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
    rows = []
    for tree, e in trees.items():
        s = originals["simplify"](e)
        rows.append((tree, encode(s), ex.to_text(s)))
    return rows


if __name__ == "__main__":
    rows = _capture()
    header = (
        "# tree<TAB>simplify(tree)<TAB>to_text(simplify(tree)); "
        "written by tests/test_simplify_golden.py\n"
    )
    GOLDEN.write_text(header + "".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    print(f"wrote {len(rows)} trees to {GOLDEN}", file=sys.stderr)
