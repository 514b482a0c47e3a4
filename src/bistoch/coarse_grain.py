"""Partitions, coarse-graining projections and dilation on a partitioned space.

Coarse graining merges the ``d`` fine-grained states into ``N`` classes.
``Partition.labels[nu]`` is the class of fine state ``nu``, and every
construction here is an array expression over it.  The projection ``X``
(``X[k, nu] = 1`` iff ``labels[nu] == k``) sums probabilities over each
class; a right inverse ``Y`` lifts coarse distributions back, with ``X @ Y``
the identity.  A product ``X @ A`` is never formed against the 0/1 matrix:
the rows of ``A`` are summed class by class.  A stochastic matrix ``T`` is
dilated when it is written as ``X @ S @ Y`` with ``S`` bi-stochastic on the
fine-grained space; with the uniform right inverse, ``S = Y T X`` is the
gather ``S[nu, mu] = T[c(nu), c(mu)] / |c(nu)|``, where ``c = labels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain

import numpy as np

from . import core
from .core import EXACT, StochMatrix
from .errors import (
    DimensionMismatch,
    InvalidPartition,
    InvalidRightInverse,
    NotExact,
    NotFixedPoint,
    ZeroComponent,
)

@dataclass(frozen=True)
class Partition:
    """Ordered partition of {0, ..., d-1} into non-empty classes."""

    d: int
    classes: tuple

    def __post_init__(self):
        classes = tuple(tuple(sorted(c)) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        if not classes or any(len(c) == 0 for c in classes):
            raise InvalidPartition("classes must be non-empty")
        if sorted(chain.from_iterable(classes)) != list(range(self.d)):
            raise InvalidPartition(f"classes must partition 0..{self.d - 1}")

    @property
    def n(self):
        return len(self.classes)

    @property
    def class_sizes(self):
        return tuple(len(c) for c in self.classes)

    @cached_property
    def labels(self):
        """Class index of each fine state: ``labels[nu] == k`` iff nu is in class k.

        Computed once per partition and shared by every caller, so read-only.
        """
        labels = np.empty(self.d, dtype=int)
        labels[np.concatenate(self.classes).astype(int)] = np.repeat(np.arange(self.n), self.class_sizes)
        labels.flags.writeable = False
        return labels

    @property
    def is_proper(self):
        return any(len(c) > 1 for c in self.classes)

    @classmethod
    def consecutive(cls, sizes):
        """Classes of the given sizes over consecutive indices."""
        bounds = list(accumulate(sizes, initial=0))
        return cls(d=bounds[-1], classes=tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))

    @classmethod
    @lru_cache(maxsize=32, typed=True)
    def first_marginal(cls, n, m):
        """Class k = {(k, i) : i < m} under the flattening flat(k, i) = i*n + k.

        Cached: every extraction and verification of a dilation of the same
        shape shares one partition, safe to share because it is frozen and
        its ``labels`` are read-only.
        """
        return cls(d=n * m, classes=tuple(tuple(range(k, n * m, n)) for k in range(n)))

    def to_json(self):
        return {"d": self.d, "classes": [list(c) for c in self.classes]}

    @classmethod
    def from_json(cls, obj):
        return cls(d=obj["d"], classes=tuple(tuple(c) for c in obj["classes"]))


@dataclass
class CoarseGrainDilation:
    """Dilation T = X S Y of T by coarse graining, the result of every dilation.

    ``matrix`` is S on the ``partition.d`` fine states and ``right_inverse``
    is the d x N matrix Y: the uniform section for :func:`uniform_dilation`,
    the product section of the environment state over the first-marginal
    partition for the environmental dilations.  ``checks`` holds what the
    construction checked, by name; :func:`roundtrip_defect` checks the
    dilation itself.
    """

    partition: Partition
    matrix: StochMatrix
    right_inverse: StochMatrix
    checks: dict = field(default_factory=dict)


def projection_matrix(P, mode=EXACT):
    """The N x d zero-one matrix summing probabilities over each class."""
    return StochMatrix((P.labels == np.arange(P.n)[:, None]).astype(int), mode=mode)


def uniform_right_inverse(P, mode=EXACT):
    """The d x N right inverse spreading each class mass uniformly over its members.

    ``Y[nu, k] = 1 / |c_k|`` iff ``labels[nu] == k``: N divisions and a
    zero, the values of ``Y``, and an int code per entry that selects one.
    """
    one = Fraction(1) if mode == EXACT else 1.0
    values = np.array([0 * one, *(one / size for size in P.class_sizes)], dtype=object)
    codes = np.zeros((P.d, P.n), dtype=np.intp)
    codes[np.arange(P.d), P.labels] = 1 + P.labels
    return StochMatrix._from_codes(values, codes) if mode == EXACT else StochMatrix(values[codes], mode=mode)


def product_right_inverse(n, rho):
    """The (n*m) x n right inverse lifting p to the product distribution p (x) rho.

    Y is a section of ``Partition.first_marginal(n, m)``, which flattens
    environment-major, flat(k, i) = i*n + k, so ``Y @ p`` has entry ``p[k] *
    rho[i]`` at flat index ``i*n + k``.  Its values are 0 and rho's, so
    exact mode builds it from their codes.
    """
    m, exact = rho.n, rho.mode == EXACT
    # codes into [0, *rho.values], or into [0, *rho] in float mode
    values = np.concatenate([[Fraction(0)], rho.values] if exact else [[0.0], rho.a])
    codes = np.zeros((m, n, n), dtype=np.intp)
    ks = np.arange(n)
    codes[:, ks, ks] = 1 + (rho.codes if exact else np.arange(m))[:, None]  # Y[i*n + k, k] = rho[i]
    codes = codes.reshape(n * m, n)
    return StochMatrix._from_codes(values, codes) if exact else StochMatrix(values[codes], mode=rho.mode)


def _class_sums(labels, n, A):
    """``X @ A`` for the projection X onto n classes: the rows of A summed by their labels."""
    out = np.zeros((n, *A.shape[1:]), dtype=A.dtype)
    np.add.at(out, labels, A)
    return out


def coarse_grain(S, P, Y):
    """Coarse grained version T = X S Y of a fine-grained stochastic matrix.

    Contracts only over the rows Y lifts into, its nonzero rows: all fine
    states for the uniform section, one environment state for the product
    section of a point mass.  Raises ``InvalidRightInverse`` unless
    ``X @ Y`` is the identity: exactly, or in float mode to ``DEFAULT_TOL``,
    the defect at which a float input such as the ``ProbVec`` behind a
    product section is accepted.  It reads the numerators s and y of S and
    Y over their denominators L_S and L_Y (``StochMatrix.nums`` and
    ``.den``): ``X Y = I`` iff ``X y = L_Y I``, and ``X S Y = (X s)(y) /
    (L_S L_Y)``, in exact mode on int64 while no integer of the product can
    reach 2**63, on Python ints otherwise.
    """
    if S.rows != P.d or S.cols != P.d:
        raise DimensionMismatch(f"matrix is {S.rows}x{S.cols}, partition has d={P.d}")
    if Y.rows != P.d or Y.cols != P.n:
        raise DimensionMismatch("right inverse shape disagrees with partition")
    core._require_same_mode(S, Y)
    rows = np.flatnonzero(Y.nums.any(axis=1))
    if rows.size == P.d:  # every row: a view keeps the memory layout, on which float matmul rounding depends
        rows = slice(None)
    labels = P.labels
    s, y = S.nums[:, rows], Y.nums[rows]
    defect = _class_sums(labels[rows], P.n, y)
    defect[np.diag_indices(P.n)] -= Y.den
    if np.max(np.abs(defect)) > core._tol(S, core.DEFAULT_TOL):
        raise InvalidRightInverse("X @ Y differs from the identity")
    k = y.shape[0]  # (X s)(y) adds k products, each at most max(X s) max(y)
    xs, y = core._exact_operands(lambda xs, y: xs * y * k, _class_sums(labels, P.n, s), y)
    return StochMatrix._from_nums(xs @ y, S.den * Y.den)


def roundtrip_defect(T, dilation):
    """How far the dilation coarse grains back to T: ``(defect, tol)``.

    ``defect`` is the largest entry of ``|X S Y - T|`` and the dilation holds
    iff ``defect <= tol``.  Exact mode compares exactly (``tol = 0``); float
    mode, or any mix of modes converted to float, allows ``RESIDUAL_TOL``
    plus the column-sum defect of Y, which carries the mass of a float
    environment state that ``ProbVec`` accepted at a sum defect up to
    ``DEFAULT_TOL``.  For an environmental dilation ``X S Y p`` is the first
    marginal of ``S (p (x) rho)``, and the error ``(X S Y - T) p`` is linear
    in p, so its largest entry over the simplex is one of ``X S Y - T``:
    the marginal identity holds for every p iff this check passes.
    """
    P, S, Y = dilation.partition, dilation.matrix, dilation.right_inverse
    if S.rows != P.d or T.a.shape != (P.n, P.n):
        raise DimensionMismatch("dilation dimensions disagree with T")
    exact = T.mode == S.mode == Y.mode == EXACT
    if not exact:
        T, S, Y = T.to_float(), S.to_float(), Y.to_float()
    tol = 0 if exact else core.RESIDUAL_TOL + core._sum_check(Y).max_column_defect
    return core._max_difference(coarse_grain(S, P, Y), T), tol


def uniform_dilation(T, p):
    """Dilate T to a bi-stochastic matrix via its rational fixed point p.

    Writes each ``p[k]`` as ``d_k / d`` over the least common denominator d,
    which are p's numerators and denominator (``p.nums``, ``p.den``), forms
    the consecutive-index partition with class sizes ``d_k`` and returns
    ``S = Y T X``, which is exactly bi-stochastic and coarse grains back to T.
    ``T p = p`` is checked on numerators, as ``t q == L_T q`` for T = t / L_T.
    S is built on numerators too: with L the lcm of the class sizes, the N^2
    quotients ``T[k, l] / d_k`` are ``t[k, l] (L // d_k)`` over ``L_T L``,
    gathered by their codes.  Requires exact mode: a least common
    denominator is meaningless for floats.
    """
    if T.mode != EXACT or p.mode != EXACT:
        raise NotExact("uniform dilation requires exact-rational inputs")
    core._require_left_stochastic(T)
    if T.cols != p.n:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix with length-{p.n} fixed point")
    if not p.is_interior():
        raise ZeroComponent("fixed point must have strictly positive entries")
    sizes = p.nums.tolist()
    L = math.lcm(*sizes)
    # t q and L_T q, and t (L // q), whose entries are at most t L
    t, q = core._exact_operands(lambda t, q: max(max(t * T.cols, T.den) * q, t * L), T.nums, p.nums)
    if not np.array_equal(t @ q, T.den * q):
        raise NotFixedPoint("T p differs from p")
    partition = Partition.consecutive(sizes)
    c = partition.labels
    # S[nu, mu] = T[c(nu), c(mu)] / |c(nu)|: N^2 quotients, gathered by codes
    quotients = StochMatrix._from_nums(t * (L // q)[:, None], T.den * L)
    S = StochMatrix._from_codes(quotients.values, quotients.codes[np.ix_(c, c)])
    dil = CoarseGrainDilation(partition=partition, matrix=S, right_inverse=uniform_right_inverse(partition))
    dil.checks = {"bi_stochastic": core._sum_check(S).bi, "coarse_grain_roundtrip": roundtrip_defect(T, dil)[0] == 0}
    return dil
