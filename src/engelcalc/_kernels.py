"""Batch evaluation of compiled expression programs.

Expression trees are flattened into postfix stack programs (see
``engelcalc.expr.compile_program``) and executed here over arrays of
sample points by a numpy interpreter that loops over program steps with a
stack of full-length arrays.
"""

from __future__ import annotations

import numpy as np

OP_CONST = 0
OP_VAR = 1
OP_NEG = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_POWI = 7
OP_SIN = 8
OP_COS = 9
OP_EXP = 10

# perfbench/run.py records both of these on every benchmark run.
HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the evaluation backend (there is only the numpy interpreter)."""
    return "numpy"


def run_program(
    ops: np.ndarray, iargs: np.ndarray, fargs: np.ndarray, depth: int, points: np.ndarray
) -> np.ndarray:
    """Evaluate a stack program at ``points`` (shape ``(n, dim)``)."""
    n = points.shape[0]
    stack = np.empty((max(depth, 1), n), dtype=np.float64)
    top = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(ops.shape[0]):
            op = int(ops[k])
            if op == OP_CONST:
                stack[top] = fargs[k]
                top += 1
            elif op == OP_VAR:
                stack[top] = points[:, iargs[k]]
                top += 1
            elif op == OP_NEG:
                np.negative(stack[top - 1], out=stack[top - 1])
            elif op == OP_ADD:
                np.add(stack[top - 2], stack[top - 1], out=stack[top - 2])
                top -= 1
            elif op == OP_SUB:
                np.subtract(stack[top - 2], stack[top - 1], out=stack[top - 2])
                top -= 1
            elif op == OP_MUL:
                np.multiply(stack[top - 2], stack[top - 1], out=stack[top - 2])
                top -= 1
            elif op == OP_DIV:
                np.divide(stack[top - 2], stack[top - 1], out=stack[top - 2])
                top -= 1
            elif op == OP_POWI:
                np.power(stack[top - 1], float(iargs[k]), out=stack[top - 1])
            elif op == OP_SIN:
                np.sin(stack[top - 1], out=stack[top - 1])
            elif op == OP_COS:
                np.cos(stack[top - 1], out=stack[top - 1])
            elif op == OP_EXP:
                np.exp(stack[top - 1], out=stack[top - 1])
            else:  # pragma: no cover
                raise ValueError(f"bad opcode {op}")
    return stack[0].copy()
