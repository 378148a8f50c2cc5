"""Batch evaluation of compiled expression programs, and the per-thread
workspace that the numeric layers write their large arrays into.

``engelcalc.expr.compile_program`` flattens a tuple of expression trees into
one program that computes each distinct node once.  Each step reads and
writes whole rows of one list: the caller's ``(k, n)`` output buffer (rows
``0..k-1``, one per expression), then the columns of the points, then the
program's temporaries.  A step ``(ufunc, argument, a, b, destination)``

- with ``ufunc`` None fills its destination with the float ``argument``
  (a constant), or copies row ``a`` into it (a variable's column, made a
  contiguous row, or an output that repeats an earlier one);
- with ``b`` set writes the two-input ufunc of rows ``a`` and ``b``;
- otherwise writes the one-input ufunc of row ``a``, or, with a float
  ``argument``, ``np.power`` of row ``a`` and that exponent.

The workspace holds a few buffers per thread (``threading.local``,
:func:`scratch`), each written in place and reused from call to call, so a
warm process neither allocates its large temporaries nor faults their
pages in again.  A buffer grows to the largest array asked of it, up to
``WORKSPACE_BYTES``; a larger array is allocated afresh.  The slots are
"program" (the temporaries of :func:`run_program`; a development's turns),
"frame" (the values a condition check evaluates, or a development's
generators), "gram" (a block's Gram stack in the rank layer) and
"temporary" (the rank layer's scaled copy, B^2 and certificate; a
development's points, then its frame coefficients and residual).
"""

from __future__ import annotations

import math
import threading

import numpy as np

# perfbench/run.py records both of these on every benchmark run.
HAVE_NUMBA = False

# A workspace buffer's largest size: the rank layer's largest array, a full
# Gram block's certificate at four columns, (4 + 6 + 3, 4, 4096) floats or
# 1.7 MB.
WORKSPACE_BYTES = 8 * 13 * 4 * 4096
_workspace = threading.local()


def active_backend() -> str:
    """Name of the evaluation backend (there is only the numpy interpreter)."""
    return "numpy"


def scratch(shape: tuple[int, ...], slot: str = "temporary") -> np.ndarray:
    """An uninitialised C-contiguous float array of ``shape`` in this thread's
    ``slot`` buffer, valid until the thread next asks that slot; a fresh array
    when it needs more than ``WORKSPACE_BYTES``."""
    size = math.prod(shape)
    if 8 * size > WORKSPACE_BYTES:
        return np.empty(shape)
    buf = getattr(_workspace, slot, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_workspace, slot, buf)
    return buf[:size].reshape(shape)


def run_program(
    steps: tuple[tuple, ...], temporaries: int, points: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Run a program at ``points`` (C-contiguous, shape ``(n, dim)``), writing
    output i into ``out[i]`` (shape ``(k, n)``, rows contiguous); returns ``out``."""
    rows = [*out, *points.T, *scratch((temporaries, points.shape[0]), "program")]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for ufunc, arg, a, b, dst in steps:
            if ufunc is None:
                if a is None:
                    rows[dst].fill(arg)
                else:
                    np.copyto(rows[dst], rows[a])
            elif b is not None:
                ufunc(rows[a], rows[b], out=rows[dst])
            elif arg is None:
                ufunc(rows[a], out=rows[dst])
            else:
                ufunc(rows[a], arg, out=rows[dst])
    return out
