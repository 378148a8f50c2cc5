"""Batch evaluation of compiled expression programs.

``engelcalc.expr.compile_program`` flattens an expression tree into a
postfix program of ``(ufunc, argument)`` steps, each written by the node
kind it came from.  The numpy interpreter here runs those steps over a
batch of sample points with a stack of full-length arrays:

- ``(None, value)`` pushes a constant (a float) or, for an int, that
  column of the points;
- a one-input ufunc, such as ``np.sin`` or ``np.negative``, replaces the
  top of the stack by its value;
- a two-input ufunc with argument ``None``, such as ``np.add``, replaces
  the top two by their combination;
- a two-input ufunc with a float argument, ``np.power`` and an exponent,
  replaces the top by its value at the top and the argument.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py records both of these on every benchmark run.
HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the evaluation backend (there is only the numpy interpreter)."""
    return "numpy"


def run_program(steps: tuple[tuple, ...], depth: int, points: np.ndarray) -> np.ndarray:
    """Evaluate a step program at ``points`` (shape ``(n, dim)``)."""
    stack = np.empty((max(depth, 1), points.shape[0]), dtype=np.float64)
    top = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for ufunc, arg in steps:
            if ufunc is None:
                stack[top] = points[:, arg] if type(arg) is int else arg
                top += 1
            elif ufunc.nin == 1:
                ufunc(stack[top - 1], out=stack[top - 1])
            elif arg is None:
                top -= 1
                ufunc(stack[top - 1], stack[top], out=stack[top - 1])
            else:
                ufunc(stack[top - 1], arg, out=stack[top - 1])
    return stack[0].copy()
