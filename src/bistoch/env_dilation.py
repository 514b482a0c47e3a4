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

An environmental dilation is a dilation by coarse graining
(:class:`~bistoch.coarse_grain.CoarseGrainDilation`) over the first-marginal
partition, whose class m holds the composite states (m, i): ``p (x) rho``
is ``Y p`` for the product section Y of rho, so the first marginal of
``R Y p`` is ``X R Y p``.  :func:`with_environment` gives R that partition
and the product section of an environment state; both constructions return
it with a point mass at 0, and extraction and verification are coarse
graining of it.

Two constructions are provided: a closed-form "noisy" dilation that works in
exact arithmetic, and a uni-stochastic dilation built from an orthogonal
completion of the isometry induced by a Kraus representation of T.  That
completion is the Householder product of a QR factorization of the
isometry, written in closed form: N^2 (2N - 1) nonzeros at most, in O(N^4)
time, where forming it by a complete QR costs O(N^5).  The result keeps U
as its three nonzero blocks (:class:`UnitaryDilation`): R is their squares
written into one zeroed array, the dense U is assembled only when read, and
the orthogonality check runs on the blocks in O(N^5) time and O(N^3)
memory, with no N^2 x N^2 Gram matrix.  Both float constructions hand their
fresh N^2 x N^2 array to :class:`StochMatrix` as its numerators over
``1.0``, without a copy (``_from_nums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import core
from .coarse_grain import CoarseGrainDilation, Partition, coarse_grain, product_right_inverse, roundtrip_defect
from .core import EXACT, FLOAT, ProbVec, StochMatrix
from .errors import DimensionMismatch, DimensionTooSmall, NotSquare


def with_environment(R, rho, source=None):
    """R as an environmental dilation whose environment starts in rho: the
    first-marginal partition and the product section of rho.  R must be
    square, of size ``n * len(rho)`` for a system of n >= 1 states.
    ``source`` is the T that R dilates, which the result's checks compare
    with (:meth:`~bistoch.coarse_grain.CoarseGrainDilation.defects`)."""
    n, rest = divmod(R.rows, rho.n)
    if not R.is_square or rest or not n:
        raise DimensionMismatch(f"{R.rows}x{R.cols} dilation does not act on a system with a {rho.n}-state environment")
    return CoarseGrainDilation(Partition.first_marginal(n, rho.n), R, product_right_inverse(n, rho), source)


@dataclass
class KrausSet:
    """Real non-negative Kraus operators A_i with sum_i A_i^T A_i = 1.

    Kept as the paper's quantum analogy of T, which ``demos/two_state_dilations.py`` shows.
    """

    n: int
    operators: list

    def completeness_defect(self):
        total = sum(a.T @ a for a in self.operators)
        return float(np.max(np.abs(total - np.eye(self.n))))


_STRIPE = 2**15  # entries in one stripe of the Gram matrix of UnitaryDilation.row0: one column block or more


def _written(column0, row0, diagonal):
    """An N^2 x N^2 array holding the given blocks where U holds its three (:class:`UnitaryDilation`), else 0."""
    n = len(column0)
    u = np.zeros((n, n, n, n))  # u[i, m', j, m] = U[(m',i),(m,j)]
    ks = np.arange(n)
    u[ks, :, 0, ks] = column0
    u[0, :, 1:, :] = row0
    u[ks[1:], :, ks[1:], :] = diagonal
    return u.reshape(n * n, n * n)


@dataclass(eq=False)  # an array field has no single truth value, so no field-wise ==
class UnitaryDilation(CoarseGrainDilation):
    """A standard dilation whose R is the entrywise square of the real orthogonal U.

    U is kept as its three nonzero blocks, in the block view ``u[i, m', j, m]
    = U[(m',i),(m,j)]``: ``column0[k] = u[k, :, 0, k]`` (N x N), ``row0 =
    u[0, :, 1:, :]`` (N x (N-1) x N) and ``diagonal[K-1] = u[K, :, K, :]``
    for K >= 1 ((N-1) x N x N).  ``unitary`` assembles the dense U on first
    read.
    """

    column0: np.ndarray = None
    row0: np.ndarray = None
    diagonal: np.ndarray = None

    @cached_property
    def unitary(self):
        """The dense N^2 x N^2 orthogonal U, zero outside its three blocks."""
        return _written(self.column0, self.row0, self.diagonal)

    def orthogonality_defect(self):
        """The largest entry of ``|U^T U - I|``, from the blocks in O(N^5) time and O(N^3) extra memory.

        Column (0, k) of U lives in row block k, and column (K, m) for K >= 1
        in row blocks 0 and K.  So the Gram matrix on column block 0 is
        diagonal, it meets column (K, m) only through row block 0 (k = 0)
        or K (k = K), and on column blocks K, K' >= 1 it is the Gram matrix
        of ``row0`` plus that of ``diagonal[K-1]`` where K = K'.  The
        symmetric ``row0`` part is formed one stripe of column blocks at a
        time, from the stripe's first column on.
        """
        a, c = self.column0, self.diagonal
        n = len(a)
        b = self.row0.reshape(n, -1)  # b[m', (K-1)N + m]
        worst = [np.abs((a * a).sum(axis=1) - 1).max(), np.abs(a[0] @ b).max(initial=0),
                 np.abs(a[1:, None, :] @ c).max(initial=0)]
        step = max(1, _STRIPE // n**3)
        for k0 in range(0, n - 1, step):
            k1 = min(k0 + step, n - 1)
            g = (b[:, k0 * n:k1 * n].T @ b[:, k0 * n:]).reshape(k1 - k0, n, -1, n)  # g[k, m, K', m'], K' from k0
            ks = np.arange(k1 - k0)
            g[ks, :, ks, :] += np.swapaxes(c[k0:k1], 1, 2) @ c[k0:k1] - np.eye(n)  # each diagonal block's Gram, less I
            worst += [g.max(), -g.min()]
        return float(max(worst))

    def defects(self):
        """The checks of :meth:`CoarseGrainDilation.defects`, after ``orthogonal``
        (:meth:`orthogonality_defect` to ``RESIDUAL_TOL``).  R = U∘U sums to 1
        up to round-off, so its sums are held to ``RESIDUAL_TOL``."""
        orthogonal, sums = self.orthogonality_defect(), core.sum_defect(self.matrix, core.RESIDUAL_TOL)
        return {"orthogonal": (orthogonal, core.RESIDUAL_TOL), "bi_stochastic": sums,
                "coarse_grain_roundtrip": roundtrip_defect(self.source, self)}


def noisy_dilation(T):
    """The closed-form standard dilation with a maximally mixed off-block.

    With environment a copy of the system (M = N) and initial environment
    state delta_0, the dilating matrix is

        R[(m,i),(n,j)] = T[m,i] * delta(i,n)        if j == 0,
                         (1 - T[m,i]) / (N(N-1))    otherwise,

    which is bi-stochastic and satisfies sum_i R[(m,i),(n,0)] = T[m,n].
    Preserves the numeric mode of T.  Exact mode makes the same block-view
    assignments on codes, which index the values ``[0, *T.values, *(1 -
    T.values)/(N(N-1))]``: R is built from at most 2N^2 + 1 Fractions, with
    no pass that converts each of its N^4 entries.
    """
    core._require_left_stochastic(T)
    n = T.rows
    if n < 2:
        raise DimensionTooSmall("the noisy construction needs N >= 2")
    # float mode writes R directly: a codes gather took 1.5 ms against 0.08 ms (N=20, 2-vCPU Xeon)
    exact = T.mode == EXACT
    t = 1 + T.codes.T if exact else T.a.T  # t[i, m] = T[m, i], or its code in exact mode
    view = np.empty((n, n, n, n), dtype=t.dtype)  # view[i, m, j, k] = R[(m,i),(k,j)]
    view[:, :, 0, :] = 0
    ks = np.arange(n)
    view[ks, :, 0, ks] = t  # the delta: view[i, m, 0, i] = t[i, m]
    view[:, :, 1:, :] = (t + len(T.values) if exact else (1 - t) / (n * (n - 1)))[:, :, None, None]
    view = view.reshape(n * n, n * n)
    values = np.concatenate([[Fraction(0)], T.values, (1 - T.values) / (n * (n - 1))]) if exact else None
    matrix = StochMatrix._from_codes(values, view) if exact else StochMatrix._from_nums(view, 1.0)
    return with_environment(matrix, ProbVec.point_mass(n, 0, mode=T.mode), T)


def extract_dilated(R, zero_index, system_size=None, tol=core.DEFAULT_TOL):
    """Recover T[m,n] = sum_i R[(m,i),(n,zero_index)] from a dilation matrix.

    This is ``coarse_grain`` of R over the first-marginal partition with the
    product section of a point mass at ``zero_index`` (:func:`with_environment`).  ``system_size``
    defaults to sqrt(dim), the standard-dilation case of an environment the
    same size as the system.  A ``zero_index`` outside the environment is
    the ``IndexOutOfRange`` of :meth:`ProbVec.point_mass`.
    """
    if not R.is_square:
        raise NotSquare(f"{R.rows}x{R.cols}")
    core._require_bistochastic(R, tol)
    n = math.isqrt(R.rows) if system_size is None else system_size
    if system_size is None and n * n != R.rows:
        raise DimensionMismatch("matrix size is not a perfect square; pass system_size")
    if n < 1 or R.rows % n:
        raise DimensionMismatch(f"size {R.rows} is not a multiple of a positive system size {n}")
    E = with_environment(R, ProbVec.point_mass(R.rows // n, zero_index, mode=R.mode))
    return coarse_grain(R, E.partition, E.right_inverse)


def verify_env_dilation(T, dilation):
    """True iff the marginal identity of the dilation holds: the first
    marginal of ``R (p (x) rho)`` is ``T p`` for every p, to the one
    round-trip rule of every dilation (:func:`~bistoch.coarse_grain.roundtrip_defect`),
    the rule ``verify-dilation`` applies to a bare R file.  The contraction
    runs over the support of rho only, one environment state in every
    standard dilation."""
    defect, tol = roundtrip_defect(T, dilation)
    return bool(defect <= tol)


def kraus_from_stochastic(T):
    """Kraus operators realizing T, one per source state.

    Operator A_i has single non-zero column i holding the entrywise square
    roots of column i of T; completeness follows from the column sums of T.
    The result is always float-mode (square roots are irrational in general).
    Kept as the paper's quantum analogy of T, which ``demos/two_state_dilations.py`` shows.
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


def unistochastic_dilation(T):
    """Standard dilation whose matrix is the entrywise square of an orthogonal U.

    The N^2 x N isometry whose column k holds v_k = sqrt(T[:, k]) in
    environment block k, at the composite states (m, k), is completed to a
    real orthogonal U, and R = U * U entrywise.  Any orthogonal completion of
    the isometry is an equally valid result; this one is the Householder
    product Q = H_0 H_1 ... H_{N-1} of the QR factorization of the isometry
    under the LAPACK ``dgeqrf``/``dlarfg`` conventions, written in closed
    form instead of formed by an O(N^5) QR completion.  Float mode only.

    Derivation, with vh_k = v_k / |v_k|.  Step 0 reflects x = v_0 in block 0:
    with alpha = x[0] and beta = -copysign(|x|, alpha), the reflector is
    H_0 = I - tau w w^T with w = [1, x[1:] / (alpha - beta)] and tau =
    (beta - alpha) / beta.  (LAPACK takes H_0 = I when x[1:] = 0; then
    alpha = |x| > 0, and this H_0 differs from I only at [0, 0], which U
    does not read.)  Step k >= 1 sees
    column k untouched by the earlier reflectors, with alpha = 0 at row k
    (a row of block 0), so tau = 1 and w = e_k + vh_k: H_k acts on row k
    and block k only, and H_1, ..., H_{N-1} commute.  In the block view
    ``u[i, m', j, m] = U[(m',i),(m,j)]``, with the isometry columns' signs
    made positive as the QR's R factor demands:

        u[k, :, 0, k] = vh_k,
        u[K, m', K, m] = delta(m', m) - vh_K[m] vh_K[m']   for K >= 1,
        u[0, m', K, m] = -vh_K[m] H_0[m', K]              for K >= 1,

    and every other entry is 0: U has N^2 (2N - 1) nonzeros at most.  These
    three blocks are the result's fields; their squares, written out in
    O(N^4), are R.
    """
    core._require_left_stochastic(T)
    n = T.rows
    v = np.sqrt(T.to_float().a).T  # v[k] = sqrt(T[:, k])
    vh = np.ascontiguousarray(v / np.linalg.norm(v, axis=1)[:, None])  # C order, so row0 is too and reshapes as a view
    alpha, tail = v[0, 0], v[0, 1:]
    beta = -math.copysign(math.hypot(alpha, np.linalg.norm(tail)), alpha)
    w = np.concatenate([[1.0], tail / (alpha - beta)])
    h0 = np.eye(n) - (beta - alpha) / beta * np.outer(w, w)  # only its columns K >= 1 are read
    row0, diagonal = -h0[:, 1:, None] * vh[None, 1:, :], np.eye(n) - vh[1:, :, None] * vh[1:, None, :]
    R = StochMatrix._from_nums(_written(vh**2, row0**2, diagonal**2), 1.0)
    E = with_environment(R, ProbVec.point_mass(n, 0, mode=FLOAT), T)
    return UnitaryDilation(**vars(E), column0=vh, row0=row0, diagonal=diagonal)
