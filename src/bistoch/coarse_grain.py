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
from functools import cached_property
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
    def first_marginal(cls, n, m):
        """Class k = {(k, i) : i < m} under the flattening flat(k, i) = i*n + k."""
        return cls(d=n * m, classes=tuple(tuple(range(k, n * m, n)) for k in range(n)))

    def to_json(self):
        return {"d": self.d, "classes": [list(c) for c in self.classes]}

    @classmethod
    def from_json(cls, obj):
        return cls(d=obj["d"], classes=tuple(tuple(c) for c in obj["classes"]))


@dataclass
class RightInverse:
    """A d x N column-stochastic section of the projection of a partition."""

    partition: Partition
    matrix: StochMatrix


@dataclass
class CoarseGrainDilation:
    """Dilation T = X S Y produced by :func:`uniform_dilation`."""

    partition: Partition
    matrix: StochMatrix
    right_inverse: RightInverse
    checks: dict = field(default_factory=dict)


def projection_matrix(P, mode=EXACT):
    """The N x d zero-one matrix summing probabilities over each class."""
    return StochMatrix((P.labels == np.arange(P.n)[:, None]).astype(int), mode=mode)


def _class_sizes(P):
    """Class sizes as Python ints, so that exact entries divided by them stay Fractions."""
    return np.array(P.class_sizes, dtype=object)


def uniform_right_inverse(P, mode=EXACT):
    """Right inverse spreading each class mass uniformly over its members."""
    X = projection_matrix(P, mode=mode)
    return RightInverse(partition=P, matrix=StochMatrix(X.a.T / _class_sizes(P), mode=mode))


def product_right_inverse(n, rho):
    """Right inverse lifting p to the product distribution p (x) rho.

    Uses the environment-major flattening flat(m, i) = i*n + m over the
    first-marginal partition, so ``Y @ p`` has entry ``p[m] * rho[i]`` at
    flat index ``i*n + m``.
    """
    m = rho.n
    # one shared zero, then the diagonal of each environment block: data[i, k, k] = rho[i]
    data = np.full((m, n, n), Fraction(0) if rho.mode == EXACT else 0.0, dtype=rho.a.dtype)
    ks = np.arange(n)
    data[:, ks, ks] = rho.a[:, None]
    matrix = StochMatrix(data.reshape(n * m, n), mode=rho.mode)
    return RightInverse(partition=Partition.first_marginal(n, m), matrix=matrix)


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
    (L_S L_Y)``, on Python ints in exact mode.
    """
    if S.rows != P.d or S.cols != P.d:
        raise DimensionMismatch(f"matrix is {S.rows}x{S.cols}, partition has d={P.d}")
    if Y.matrix.rows != P.d or Y.matrix.cols != P.n:
        raise DimensionMismatch("right inverse shape disagrees with partition")
    core._require_same_mode(S, Y.matrix)
    rows = np.flatnonzero(Y.matrix.a.any(axis=1))
    if rows.size == P.d:  # every row: a view keeps the memory layout, on which float matmul rounding depends
        rows = slice(None)
    labels = P.labels
    s, y = S.nums[:, rows], Y.matrix.nums[rows]
    defect = _class_sums(labels[rows], P.n, y)
    defect[np.diag_indices(P.n)] -= Y.matrix.den
    if np.max(np.abs(defect)) > (0 if S.mode == EXACT else core.DEFAULT_TOL):
        raise InvalidRightInverse("X @ Y differs from the identity")
    xsy = _class_sums(labels, P.n, s) @ y
    return StochMatrix(core._fractions(xsy, S.den * Y.matrix.den) if S.mode == EXACT else xsy, mode=S.mode)


def uniform_dilation(T, p):
    """Dilate T to a bi-stochastic matrix via its rational fixed point p.

    Writes each ``p[k]`` as ``d_k / d`` over the least common denominator d,
    forms the consecutive-index partition with class sizes ``d_k`` and returns
    ``S = Y T X``, which is exactly bi-stochastic and coarse grains back to T.
    Requires exact mode: a least common denominator is meaningless for floats.
    """
    if T.mode != EXACT or p.mode != EXACT:
        raise NotExact("uniform dilation requires exact-rational inputs")
    core._require_left_stochastic(T)
    if T.cols != p.n:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix with length-{p.n} fixed point")
    if any(v == 0 for v in p.a):
        raise ZeroComponent("fixed point must have strictly positive entries")
    if not np.array_equal(T.a @ p.a, p.a):
        raise NotFixedPoint("T p differs from p")
    d = math.lcm(*(v.denominator for v in p.a))
    partition = Partition.consecutive([int(v * d) for v in p.a])
    Y = uniform_right_inverse(partition, mode=EXACT)
    c = partition.labels
    # N^2 divisions, then a gather that shares the quotients among the d^2 entries
    S = StochMatrix((T.a / _class_sizes(partition)[:, None])[np.ix_(c, c)], mode=EXACT)
    report = core._sum_check(S)
    roundtrip = coarse_grain(S, partition, Y)
    checks = {
        "bi_stochastic": report.bi,
        "coarse_grain_roundtrip": roundtrip == T,
    }
    return CoarseGrainDilation(partition=partition, matrix=S, right_inverse=Y, checks=checks)
