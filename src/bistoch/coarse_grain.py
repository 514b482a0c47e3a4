"""Partitions, coarse-graining projections and dilation on a partitioned space.

Coarse graining merges the ``d`` fine-grained states into ``N`` classes.  The
projection ``X`` sums probabilities over each class; a right inverse ``Y``
lifts coarse distributions back, with ``X @ Y`` the identity.  A stochastic
matrix ``T`` is dilated when it is written as ``X @ S @ Y`` with ``S``
bi-stochastic on the fine-grained space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import core
from .core import EXACT, FLOAT, ProbVec, StochMatrix
from .errors import (
    DimensionMismatch,
    InvalidPartition,
    InvalidRightInverse,
    NotExact,
    NotFixedPoint,
    ZeroComponent,
)

UNIFORM = "uniform"
PRODUCT = "product"
CUSTOM = "custom"


@dataclass(frozen=True)
class Partition:
    """Ordered partition of {0, ..., d-1} into non-empty classes."""

    d: int
    classes: tuple

    def __post_init__(self):
        classes = tuple(tuple(sorted(c)) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        flat = [i for c in classes for i in c]
        if not classes or any(len(c) == 0 for c in classes):
            raise InvalidPartition("classes must be non-empty")
        if sorted(flat) != list(range(self.d)):
            raise InvalidPartition(f"classes must partition 0..{self.d - 1}")

    @property
    def n(self):
        return len(self.classes)

    @property
    def class_sizes(self):
        return tuple(len(c) for c in self.classes)

    @property
    def is_proper(self):
        return any(len(c) > 1 for c in self.classes)

    def class_of(self, index):
        for k, c in enumerate(self.classes):
            if index in c:
                return k
        raise IndexError(index)

    @classmethod
    def consecutive(cls, sizes):
        """Classes of the given sizes over consecutive indices."""
        classes = []
        start = 0
        for s in sizes:
            classes.append(tuple(range(start, start + s)))
            start += s
        return cls(d=start, classes=tuple(classes))

    @classmethod
    def first_marginal(cls, n, m):
        """Class k = {(k, i) : i < m} under the flattening flat(k, i) = i*n + k."""
        classes = tuple(tuple(i * n + k for i in range(m)) for k in range(n))
        return cls(d=n * m, classes=classes)

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
    kind: str = CUSTOM


@dataclass
class CoarseGrainDilation:
    """Dilation T = X S Y produced by :func:`uniform_dilation`."""

    partition: Partition
    matrix: StochMatrix
    right_inverse: RightInverse
    checks: dict = field(default_factory=dict)


def projection_matrix(P, mode=EXACT):
    """The N x d zero-one matrix summing probabilities over each class."""
    data = [[int(nu in P.classes[n]) for nu in range(P.d)] for n in range(P.n)]
    if mode == FLOAT:
        data = [[float(v) for v in row] for row in data]
    return StochMatrix(data, mode=mode)


def uniform_right_inverse(P, mode=EXACT):
    """Right inverse spreading each class mass uniformly over its members."""
    data = [
        [Fraction(int(nu in P.classes[n]), len(P.classes[n])) for n in range(P.n)]
        for nu in range(P.d)
    ]
    if mode == FLOAT:
        data = [[float(v) for v in row] for row in data]
    return RightInverse(partition=P, matrix=StochMatrix(data, mode=mode), kind=UNIFORM)


def product_right_inverse(n, rho):
    """Right inverse lifting p to the product distribution p (x) rho.

    Uses the environment-major flattening flat(m, i) = i*n + m over the
    first-marginal partition, so ``Y @ p`` has entry ``p[m] * rho[i]`` at
    flat index ``i*n + m``.
    """
    m = rho.n
    partition = Partition.first_marginal(n, m)
    if rho.mode == EXACT:
        zero = Fraction(0)
    else:
        zero = 0.0
    data = [[zero] * n for _ in range(n * m)]
    for i in range(m):
        for k in range(n):
            data[i * n + k][k] = rho.a[i]
    return RightInverse(partition=partition, matrix=StochMatrix(data, mode=rho.mode), kind=PRODUCT)


def _check_section(P, Y):
    X = projection_matrix(P, mode=Y.matrix.mode)
    prod = X.a @ Y.matrix.a
    if Y.matrix.mode == EXACT:
        eye = np.array([[Fraction(int(i == j)) for j in range(P.n)] for i in range(P.n)], dtype=object)
        ok = bool(np.array_equal(prod, eye))
    else:
        ok = bool(np.max(np.abs(prod - np.eye(P.n))) <= core.RESIDUAL_TOL)
    if not ok:
        raise InvalidRightInverse("X @ Y differs from the identity")
    return X


def coarse_grain(S, P, Y):
    """Coarse grained version T = X S Y of a fine-grained stochastic matrix."""
    if S.rows != P.d or S.cols != P.d:
        raise DimensionMismatch(f"matrix is {S.rows}x{S.cols}, partition has d={P.d}")
    if Y.matrix.rows != P.d or Y.matrix.cols != P.n:
        raise DimensionMismatch("right inverse shape disagrees with partition")
    core._require_same_mode(S, Y.matrix)
    X = _check_section(P, Y)
    return StochMatrix(X.a @ S.a @ Y.matrix.a, mode=S.mode)


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
    d = math.lcm(*(Fraction(v).denominator for v in p.a))
    sizes = [int(Fraction(v) * d) for v in p.a]
    partition = Partition.consecutive(sizes)
    X = projection_matrix(partition, mode=EXACT)
    Y = uniform_right_inverse(partition, mode=EXACT)
    S = StochMatrix(Y.matrix.a @ T.a @ X.a, mode=EXACT)
    report = core.validate(S)
    roundtrip = coarse_grain(S, partition, Y)
    checks = {
        "bi_stochastic": report.bi,
        "coarse_grain_roundtrip": roundtrip == T,
    }
    return CoarseGrainDilation(partition=partition, matrix=S, right_inverse=Y, checks=checks)
