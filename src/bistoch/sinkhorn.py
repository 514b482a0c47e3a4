"""Sinkhorn-Knopp balancing: diagonal scaling of a strictly positive square
matrix to a bi-stochastic one, plus the closed-form solution for the
two-parameter 2x2 stochastic family."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FLOAT, RESULT_TOL, StochMatrix
from .errors import NonPositiveEntry, NotConverged, ParameterOutOfRange

DEFAULT_MAX_ITER = 10_000


@dataclass
class SinkhornResult:
    d1: np.ndarray
    d2: np.ndarray
    matrix: StochMatrix
    iterations: int
    final_defect: float

    def defects(self, T, tol=RESULT_TOL):
        """The checks of a balancing of T to ``tol``, each as ``(defect, tol)``:
        the final sum defect (``bi_stochastic``), and the largest entry of
        ``|diag(d1) T diag(d2) - matrix|`` against ``10 * tol``
        (``diagonal_factorization``)."""
        scaled = self.d1[:, None] * T.to_float().a * self.d2
        factorization = float(np.max(np.abs(scaled - self.matrix.a)))
        return {"bi_stochastic": (self.final_defect, tol), "diagonal_factorization": (factorization, 10 * tol)}


def sinkhorn_knopp(T, tol=RESULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Balance a strictly positive square matrix to bi-stochastic form.

    Alternates row and column normalization (rows first), accumulating the
    scalings into diagonals d1 and d2 so that ``diag(d1) @ T @ diag(d2)``
    equals the balanced matrix.  The defect is the largest deviation of a
    row or column sum from 1 after a full sweep; its row sums are the ones
    the next sweep scales by, so each sweep sums the rows once.
    """
    if tol <= 0:
        raise ParameterOutOfRange("tol must be positive")
    a = T.to_float().a.copy()
    n, m = a.shape
    if n != m:
        raise ParameterOutOfRange("Sinkhorn balancing needs a square matrix")
    if np.min(a) <= 0:
        raise NonPositiveEntry(f"minimum entry {np.min(a)} is not strictly positive")
    d1 = np.ones(n)
    d2 = np.ones(n)
    defect = float("inf")
    row_sums = a.sum(axis=1)
    for sweep in range(1, max_iter + 1):
        row_scale = 1.0 / row_sums
        a *= row_scale[:, None]
        d1 *= row_scale
        col_scale = 1.0 / a.sum(axis=0)
        a *= col_scale[None, :]
        d2 *= col_scale
        row_sums = a.sum(axis=1)  # the defect's row sums are the next sweep's: a is unchanged in between
        defect = max(
            float(np.max(np.abs(a.sum(axis=0) - 1.0))),
            float(np.max(np.abs(row_sums - 1.0))),
        )
        if defect <= tol:
            return SinkhornResult(
                d1=d1, d2=d2, matrix=StochMatrix(a, mode=FLOAT), iterations=sweep, final_defect=defect
            )
    raise NotConverged(max_iter, defect)


def sinkhorn_2x2(a, b):
    """Closed-form Sinkhorn diagonals for T = [[1-b, a], [b, 1-a]], 0 < a, b < 1.

    Returns (d1, d2, p) with diag(d1) @ T @ diag(d2) = [[1-p, p], [p, 1-p]]
    and p = sqrt(ab) / (sqrt((1-a)(1-b)) + sqrt(ab)), strictly inside (0, 1).
    The diagonals are gauge-fixed by d1[0] = sqrt((1-a)/(1-b)).
    Kept as the closed-form reference for ``sinkhorn_knopp`` in the tests and ``demos/two_state_dilations.py``.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ParameterOutOfRange("parameters must satisfy 0 < a, b < 1")
    denom = math.sqrt((1.0 - a) * (1.0 - b)) + math.sqrt(a * b)
    p = math.sqrt(a * b) / denom
    d1 = np.array([math.sqrt((1.0 - a) / (1.0 - b)), math.sqrt(a / b)])
    d2 = np.array(
        [
            1.0 / denom,
            math.sqrt((1.0 - b) * b / ((1.0 - a) * a)) / denom,
        ]
    )
    return d1, d2, p
