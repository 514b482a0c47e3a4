"""Environmental dilations of stochastic matrices.

An environmental dilation represents an N x N stochastic matrix T by a
bi-stochastic matrix R acting on the product of the system with an
environment of size M: the first marginal of ``R (p (x) rho)`` equals
``T p`` for every distribution p.  Composite states (m, i) with system index
m and environment index i are flattened environment-major, ``flat(m, i) =
i*N + m``, so that the block view ``R.a.reshape(M, N, M, N)[i, m, j, k]``
is ``R[(m,i),(k,j)]``: the first two axes are the environment and system
index of the target state, the last two those of the source state.  The
constructions below are array expressions over this view.

Extraction and verification are coarse graining (:mod:`bistoch.coarse_grain`)
over the first-marginal partition, whose class m holds the composite states
(m, i): ``p (x) rho`` is ``Y p`` for the product section Y of rho, so the
first marginal of ``R Y p`` is ``X R Y p``.

Two constructions are provided: a closed-form "noisy" dilation that works in
exact arithmetic, and a uni-stochastic dilation built from a unitary
completion of the isometry induced by a Kraus representation of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core
from .coarse_grain import coarse_grain, product_right_inverse
from .core import EXACT, FLOAT, ProbVec, StochMatrix
from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IncompleteKrausSet,
    IndexOutOfRange,
    NotBiStochastic,
    NotSquare,
)


def flat_index(m, i, n):
    """Environment-major flat index of composite state (m, i)."""
    return i * n + m


@dataclass
class EnvDilation:
    """Environment triple (M, rho, R) dilating a stochastic matrix."""

    env_size: int
    rho: ProbVec
    matrix: StochMatrix

    @property
    def system_size(self):
        return self.matrix.rows // self.env_size


@dataclass
class KrausSet:
    """Real non-negative Kraus operators A_i with sum_i A_i^T A_i = 1."""

    n: int
    operators: list

    def completeness_defect(self):
        total = sum(a.T @ a for a in self.operators)
        return float(np.max(np.abs(total - np.eye(self.n))))


@dataclass
class UnitaryDilation:
    """Real orthogonal U on the composite space and its entrywise square R."""

    unitary: np.ndarray
    matrix: StochMatrix

    def orthogonality_defect(self):
        u = self.unitary
        return float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))


def noisy_dilation(T):
    """The closed-form standard dilation with a maximally mixed off-block.

    With environment a copy of the system (M = N) and initial environment
    state delta_0, the dilating matrix is

        R[(m,i),(n,j)] = T[m,i] * delta(i,n)        if j == 0,
                         (1 - T[m,i]) / (N(N-1))    otherwise,

    which is bi-stochastic and satisfies sum_i R[(m,i),(n,0)] = T[m,n].
    Preserves the numeric mode of T.
    """
    core._require_left_stochastic(T)
    n = T.rows
    if n < 2:
        raise DimensionTooSmall("the noisy construction needs N >= 2")
    t = T.a.T  # t[i, m] = T[m, i]
    view = np.empty((n, n, n, n), dtype=T.a.dtype)  # view[i, m, j, k] = R[(m,i),(k,j)]
    # one shared zero, then the delta: view[i, m, 0, i] = t[i, m]
    view[:, :, 0, :] = Fraction(0) if T.mode == EXACT else 0.0
    ks = np.arange(n)
    view[ks, :, 0, ks] = t
    view[:, :, 1:, :] = ((1 - t) / (n * (n - 1)))[:, :, None, None]
    rho = ProbVec.point_mass(n, 0, mode=T.mode)
    return EnvDilation(env_size=n, rho=rho, matrix=StochMatrix(view.reshape(n * n, n * n), mode=T.mode))


def extract_dilated(R, zero_index, system_size=None, tol=core.DEFAULT_TOL):
    """Recover T[m,n] = sum_i R[(m,i),(n,zero_index)] from a dilation matrix.

    This is ``coarse_grain`` of R over the first-marginal partition with the
    product section of a point mass at ``zero_index``.  ``system_size``
    defaults to sqrt(dim), the standard-dilation case of an environment the
    same size as the system.
    """
    if not R.is_square:
        raise NotSquare(f"{R.rows}x{R.cols}")
    report = core._sum_check(R, tol)
    if not report.bi:
        raise NotBiStochastic(
            f"column defect {report.max_column_defect}, row defect {report.max_row_defect}"
        )
    if system_size is None:
        system_size = math.isqrt(R.rows)
        if system_size * system_size != R.rows:
            raise DimensionMismatch("matrix size is not a perfect square; pass system_size")
    n = system_size
    if n < 1:
        raise DimensionMismatch(f"system size {n} is not positive")
    if R.rows % n != 0:
        raise DimensionMismatch(f"size {R.rows} is not a multiple of system size {n}")
    m_env = R.rows // n
    if not 0 <= zero_index < m_env:
        raise IndexOutOfRange(f"zero_index {zero_index} outside environment of size {m_env}")
    Y = product_right_inverse(n, ProbVec.point_mass(m_env, zero_index, mode=R.mode))
    return coarse_grain(R, Y.partition, Y)


def verify_env_dilation(T, dilation):
    """Check the defining marginal identity of an environmental dilation.

    The first marginal of ``R (p (x) rho)`` is ``X R Y p`` for the
    first-marginal projection X and the product section Y of rho (see
    :func:`as_coarse_graining`), so the identity holds for every p iff
    ``X R Y == T``: exact mode compares the two exactly, and float mode (or
    any mix of modes, converted to float) entrywise to ``RESIDUAL_TOL +
    |sum(rho) - 1|``, since Y carries rho's mass and ``ProbVec`` accepts a
    sum defect up to ``DEFAULT_TOL``.  The error ``(X R Y - T) p`` is linear
    in p, so its largest entry over the simplex is taken at a vertex, where
    it is an entry of ``X R Y - T``.  The contraction runs over the support
    of rho only, one environment state in every standard dilation.
    """
    R, rho = dilation.matrix, dilation.rho
    if R.rows != T.rows * dilation.env_size or rho.n != dilation.env_size:
        raise DimensionMismatch("dilation dimensions disagree with T")
    if T.mode == R.mode == rho.mode == EXACT:
        return coarse_grain(R, *as_coarse_graining(dilation)) == T
    dilation = EnvDilation(env_size=dilation.env_size, rho=rho.to_float(), matrix=R.to_float())
    tol = core.RESIDUAL_TOL + abs(dilation.rho.a.sum() - 1.0)
    return coarse_grain(dilation.matrix, *as_coarse_graining(dilation)).allclose(T, tol=tol)


def as_coarse_graining(dilation):
    """View an environmental dilation as a dilation by coarse graining.

    Returns the first-marginal partition (class n holds the composite states
    (n, i)) together with the product right inverse built from rho, so that
    ``coarse_grain(R, partition, Y)`` recovers the dilated matrix.
    """
    n = dilation.system_size
    y = product_right_inverse(n, dilation.rho)
    return y.partition, y


def kraus_from_stochastic(T):
    """Kraus operators realizing T, one per source state.

    Operator A_i has single non-zero column i holding the entrywise square
    roots of column i of T; completeness follows from the column sums of T.
    The result is always float-mode (square roots are irrational in general).
    """
    core._require_left_stochastic(T)
    Tf = T.to_float().a
    n = T.rows
    operators = []
    for i in range(n):
        a = np.zeros((n, n))
        a[:, i] = np.sqrt(Tf[:, i])
        operators.append(a)
    return KrausSet(n=n, operators=operators)


def stochastic_from_kraus(kraus):
    """The stochastic matrix T[m,n] = sum_i A_i[m,n]^2 of a Kraus set complete to ``RESULT_TOL``."""
    defect = kraus.completeness_defect()
    if defect > core.RESULT_TOL:
        raise IncompleteKrausSet(defect)
    total = sum(a**2 for a in kraus.operators)
    return StochMatrix(np.clip(total, 0.0, None), mode=FLOAT)


def unistochastic_dilation(T):
    """Standard dilation whose matrix is the entrywise square of an orthogonal U.

    Builds the N^2 x N isometry whose column n holds sqrt(T[m,n]) at the
    composite states (m, n), completes it to a real orthogonal matrix and
    squares the entries.  The completion is a Householder QR factorization
    of the isometry; the completing columns are not unique, so any orthogonal
    completion of the isometry is an equally valid result.  Float mode only.
    """
    core._require_left_stochastic(T)
    n = T.rows
    iso = np.zeros((n, n, n))  # iso[i, m, k]: row flat(m, i), column k
    ks = np.arange(n)
    iso[ks, :, ks] = np.sqrt(T.to_float().a).T
    q, r = np.linalg.qr(iso.reshape(n * n, n), mode="complete")
    # columns flat(k, 0) = k carry the isometry; QR returns them up to sign
    q[:, :n] *= np.sign(np.diag(r))
    return UnitaryDilation(unitary=q, matrix=StochMatrix(q**2, mode=FLOAT))


def unistochastic_env_dilation(T):
    """The unistochastic dilation packaged as an environment triple."""
    dil = unistochastic_dilation(T)
    n = T.rows
    return EnvDilation(env_size=n, rho=ProbVec.point_mass(n, 0, mode=FLOAT), matrix=dil.matrix)
