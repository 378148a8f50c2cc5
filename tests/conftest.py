import functools
import json
import math

import numpy as np
import pytest

from engelcalc import charts as ch
from engelcalc import expr as ex
from engelcalc import manifest, prolongation
from engelcalc.prolongation import ContactFrame


# The expression module's process-lifetime tables: the intern table and the
# memo tables of the symbolic passes.
EXPR_TABLES = (
    ex._interned, ex._simplified, ex._derivatives, ex._linear, ex._formatted, ex._free
)


# The process-lifetime memos of the pure symbolic constructors, all bounded
# by charts.MEMO_SIZE.
MEMOS = (
    manifest.parse_manifest,
    ch.lie_bracket,
    prolongation.prolong,
    prolongation.fiber_characteristic_annihilator,
    prolongation._generator_and_rate,
)


def built(m: manifest.Manifest, name: str):
    """Structure ``name`` of a manifest, built as a run builds it: the
    structures it names come from the same table."""
    build = functools.cache(lambda n: manifest.materialize(m, m.structures[n], build))
    return build(name)


def empty_expr_tables() -> None:
    for table in EXPR_TABLES:
        table.clear()
    ex.compile_program.cache_clear()


@pytest.fixture(autouse=True)
def cold_tables():
    """Start every test from empty expression tables and memos, so no
    result depends on which tests ran before."""
    empty_expr_tables()
    for memo in MEMOS:
        memo.cache_clear()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(data: str | bytes):
    """``json.loads`` that rejects NaN and Infinity, which JSON lacks."""
    return json.loads(data, parse_constant=_reject_constant)


def chart_from_box(bounds, periodic=(), fiber=None) -> ch.Chart:
    """Chart with one axis per ``name: (lo, hi)`` entry, in insertion order."""
    per = set(periodic)
    axes = tuple(
        ch.CoordinateAxis(n, lo, hi, periodic=n in per) for n, (lo, hi) in bounds.items()
    )
    return ch.Chart(axes, fiber=fiber)


def plane_angle_sin(a: np.ndarray, b: np.ndarray) -> float:
    """sin of the largest principal angle between two column-span planes.

    Stable near zero, unlike the arccos of singular values.
    """
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    residual = qb - qa @ (qa.T @ qb)
    return float(np.linalg.norm(residual, 2))


def kernel_plane_basis(coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3, 2) of the kernel of a 1-form's coefficient row."""
    _, _, vt = np.linalg.svd(coeffs[None, :])
    return vt[1:].T


@pytest.fixture(scope="session")
def box3():
    return chart_from_box({"x": (-1, 1), "y": (-1, 1), "z": (-1, 1)})


@pytest.fixture(scope="session")
def box4():
    return chart_from_box(
        {"x": (-1, 1), "y": (-1, 1), "z": (-1, 1), "w": (-1, 1)}
    )


@pytest.fixture(scope="session")
def t3():
    p = 2 * math.pi
    return chart_from_box(
        {"x": (0, p), "y": (0, p), "z": (0, p)}, periodic=("x", "y", "z")
    )


@pytest.fixture(scope="session")
def std_frame(box3):
    """Frame of the kernel of dy - z*dx."""
    return ContactFrame(
        box3,
        ch.coordinate_field(box3, "z"),
        ch.vector_field(box3, ["1", "z", "0"]),
    )


@pytest.fixture(scope="session")
def t3_frame(t3):
    """Frame of the kernel of cos(z)dx - sin(z)dy."""
    return ContactFrame(
        t3,
        ch.vector_field(t3, ["sin(z)", "cos(z)", "0"]),
        ch.coordinate_field(t3, "z"),
    )


@pytest.fixture(scope="session")
def std_pair_forms(box4):
    alpha = ch.parse_one_form(box4, "dz - w*dx")
    beta = ch.parse_one_form(box4, "dy - z*dx")
    return alpha, beta


@pytest.fixture(scope="session")
def std_kernel_frame(box4):
    """Kernel frame of the standard pair: {d/dw, d/dx + z d/dy + w d/dz}."""
    return (
        ch.coordinate_field(box4, "w"),
        ch.vector_field(box4, ["1", "z", "w", "0"]),
    )


@pytest.fixture(scope="session")
def plan_small():
    return ch.SamplePlan(grid=3, random=20, seed=0)


@pytest.fixture(scope="session")
def plan_medium():
    return ch.SamplePlan(grid=4, random=60, seed=0)
