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
from itertools import chain

import numpy as np

from . import core
from .core import EXACT, StochMatrix
from .errors import (
    DimensionMismatch,
    InvalidPartition,
    InvalidRightInverse,
    NotExact,
    NotFixedPoint,
    TooManyStates,
    ZeroComponent,
)

@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered partition of {0, ..., d-1} into N non-empty classes, defined by its labels.

    ``labels[nu]`` is the class of fine state nu: a read-only intp array,
    checked once to be a non-empty 1-D int array that uses every class
    0..N-1.  A partition is immutable, as :meth:`first_marginal` shares its
    instances.  The constructor copies the array it is given, so that
    freezing it freezes no caller's array; the builders below freeze the
    array they make in place, so their partition of d states holds one
    d-long array, not two.
    ``d``, ``n`` and ``class_sizes`` (the size of each class, as Python
    ints, counted by the check) derive from the labels; ``classes``, the
    members of each class in increasing order, is built only when read.
    """

    labels: np.ndarray
    class_sizes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self._hold(np.array(self.labels))  # a copy, so that freezing it freezes no caller's array

    def _hold(self, labels):
        """Check ``labels``, then freeze it in place and hold it."""
        # counted before the freeze: np.bincount copies a read-only array
        if (labels.dtype.kind != "i" or labels.ndim != 1 or not labels.size or labels.min() < 0
                or labels.max() >= labels.size or not (sizes := np.bincount(labels)).all()):
            raise InvalidPartition("labels must be a non-empty 1-D int array using every class 0..N-1")
        labels = labels.astype(np.intp, copy=False)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_sizes", tuple(sizes.tolist()))

    def __eq__(self, other):
        return isinstance(other, Partition) and bool(np.array_equal(self.labels, other.labels))

    @property
    def d(self):
        return self.labels.size

    @property
    def n(self):
        return len(self.class_sizes)

    @cached_property
    def classes(self):
        """The members of each class in increasing order, as tuples of Python ints."""
        members = np.split(np.argsort(self.labels, kind="stable"), np.cumsum(self.class_sizes[:-1]))
        return tuple(tuple(c.tolist()) for c in members)

    @classmethod
    def consecutive(cls, sizes):
        """Classes of the given sizes over consecutive indices."""
        return cls._frozen(np.repeat(np.arange(len(sizes)), sizes))

    @classmethod
    @lru_cache(maxsize=32, typed=True)
    def first_marginal(cls, n, m):
        """Class k = {(k, i) : i < m} under the flattening flat(k, i) = i*n + k.

        Cached: every extraction and verification of a dilation of the same
        shape shares one partition, safe to share because it is immutable.
        """
        return cls._frozen(np.tile(np.arange(n), m))

    @classmethod
    def _frozen(cls, labels):
        """The partition of a labels array built here: checked and frozen in place, not copied."""
        partition = object.__new__(cls)  # no __init__, so no copy
        partition._hold(labels)
        return partition

    def to_json(self):
        return {"d": self.d, "classes": [list(c) for c in self.classes]}

    @classmethod
    def from_json(cls, obj):
        """The partition of ``{"d": d, "classes": [[...], ...]}``, a file's
        classes in any order: they must be non-empty and hold each of 0..d-1
        once, checked on the indices as given before any is cast to an int."""
        d, classes = obj["d"], [tuple(c) for c in obj["classes"]]
        if not classes or any(len(c) == 0 for c in classes):
            raise InvalidPartition("classes must be non-empty")
        if sorted(chain.from_iterable(classes)) != list(range(d)):
            raise InvalidPartition(f"classes must partition 0..{d - 1}")
        members = np.fromiter(chain.from_iterable(classes), np.intp, d)  # a permutation, which argsort inverts
        return cls._frozen(np.repeat(np.arange(len(classes)), [len(c) for c in classes])[np.argsort(members)])


@dataclass
class CoarseGrainDilation:
    """Dilation T = X S Y of T by coarse graining, the result of every dilation.

    ``matrix`` is S on the ``partition.d`` fine states and ``right_inverse``
    is the d x N matrix Y: the uniform section for :func:`uniform_dilation`,
    the product section of the environment state over the first-marginal
    partition for the environmental dilations.  ``source`` is the T the
    builder dilated, None for a bare triple of ``with_environment``.
    :meth:`defects` computes the checks of the dilation against its source
    when called, and ``checks`` is whether each passes, computed on first
    read.
    """

    partition: Partition
    matrix: StochMatrix
    right_inverse: StochMatrix
    source: StochMatrix = None

    def defects(self):
        """The checks of the dilation by name, each as ``(defect, tol)``: the
        row and column sums of S (``bi_stochastic``, :func:`core.sum_defect`)
        and ``X S Y = T`` for the source T (``coarse_grain_roundtrip``,
        :func:`roundtrip_defect`)."""
        return {"bi_stochastic": core.sum_defect(self.matrix),
                "coarse_grain_roundtrip": roundtrip_defect(self.source, self)}

    @cached_property
    def checks(self):
        """Whether each check of :meth:`defects` passes, ``defect <= tol``, by name."""
        return {name: bool(defect <= tol) for name, (defect, tol) in self.defects().items()}


def projection_matrix(P, mode=EXACT):
    """The N x d zero-one matrix summing probabilities over each class.

    Kept as the dense X that the tests check the class-sum contractions against; no library code forms it.
    """
    return StochMatrix((P.labels == np.arange(P.n)[:, None]).astype(int), mode=mode)


def _section(P, zero, values, codes, mode):
    """The d x N right inverse with ``Y[nu, labels[nu]] = values[codes[nu]]``, and ``zero`` elsewhere.

    Built from its codes into ``[zero, *values]``, one int per entry.
    """
    full = np.zeros((P.d, P.n), dtype=np.intp)
    full[np.arange(P.d), P.labels] = 1 + codes
    return StochMatrix._from_codes(np.concatenate([[zero], values]), full, mode)


def uniform_right_inverse(P, mode=EXACT):
    """The d x N right inverse spreading each class mass uniformly over its members.

    ``Y[nu, k] = 1 / |c_k|`` iff ``labels[nu] == k``: N fractions and a
    zero, the values of ``Y``, one per class.
    """
    return _section(P, Fraction(0), [Fraction(1, size) for size in P.class_sizes], P.labels, mode)


def product_right_inverse(n, rho):
    """The (n*m) x n right inverse lifting p to the product distribution p (x) rho.

    Y is a section of ``Partition.first_marginal(n, m)``, which flattens
    environment-major, flat(k, i) = i*n + k, so ``Y @ p`` has entry ``p[k] *
    rho[i]`` at flat index ``i*n + k``.  Its values are 0 and rho's, so it
    is built from their codes.
    """
    # an exact rho's own codes: from [0, *rho], a point mass would convert m + 1 values, not 3
    zero, values, at = (Fraction(0), rho.values, rho.codes) if rho.mode == EXACT else (0.0, rho.a, np.arange(rho.n))
    # Y[i*n + k, k] = rho[i]: fine state i*n + k takes the code of environment state i
    return _section(Partition.first_marginal(n, rho.n), zero, values, np.repeat(at, n), rho.mode)


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
    s, y = S.nums[:, rows], Y.nums[rows]
    defect = _class_sums(P.labels[rows], P.n, y)
    defect[np.diag_indices(P.n)] -= Y.den
    if np.max(np.abs(defect)) > core._tol(S, core.DEFAULT_TOL):
        raise InvalidRightInverse("X @ Y differs from the identity")
    k = y.shape[0]  # (X s)(y) adds k products, each at most max(X s) max(y)
    xs, y = core._exact_operands(lambda xs, y: xs * y * k, _class_sums(P.labels, P.n, s), y)
    return StochMatrix._from_nums(xs @ y, S.den * Y.den)


def roundtrip_defect(T, dilation):
    """How far the dilation coarse grains back to T: ``(defect, tol)``.

    The one round-trip rule of every dilation, whichever construction made
    it.  ``defect`` is the largest entry of ``|X S Y - T|`` and the dilation
    holds iff ``defect <= tol``.  Exact mode compares exactly (``tol = 0``).
    Float mode, or any mix of modes converted to float, allows
    ``RESIDUAL_TOL`` plus the largest column defects of Y and of T, each
    allowed up to ``DEFAULT_TOL``, the most ``validate`` and ``ProbVec``
    accept: a T moved further than that fails here, whatever its sums, as
    nothing on this path validates T.  Y's defect carries the mass of a
    float environment state.  T's is the least a dilation that normalises
    T's columns can miss by: if ``X S Y`` is
    column-stochastic and a column of T sums to ``1 + delta``, some entry of
    that column of ``X S Y - T`` is at least ``|delta| / N``.  For an
    environmental dilation ``X S Y p`` is the first marginal of ``S (p (x)
    rho)``, and the error ``(X S Y - T) p`` is linear in p, so its largest
    entry over the simplex is one of ``X S Y - T``: the marginal identity
    holds for every p iff this check passes.
    """
    P, S, Y = dilation.partition, dilation.matrix, dilation.right_inverse
    if S.rows != P.d or T.nums.shape != (P.n, P.n):
        raise DimensionMismatch("dilation dimensions disagree with T")
    exact = T.mode == S.mode == Y.mode == EXACT
    tol = 0
    if not exact:
        T, S, Y = T.to_float(), S.to_float(), Y.to_float()
        tol = core.RESIDUAL_TOL + sum(min(core._sum_check(M).max_column_defect, core.DEFAULT_TOL) for M in (Y, T))
    return core._max_difference(coarse_grain(S, P, Y), T), tol


def uniform_dilation(T, p):
    """Dilate T to a bi-stochastic matrix via its rational fixed point p.

    Writes each ``p[k]`` as ``d_k / d`` over the least common denominator d,
    which are p's numerators and denominator (``p.nums``, ``p.den``), forms
    the consecutive-index partition with class sizes ``d_k`` and returns
    ``S = Y T X``, which is exactly bi-stochastic and coarse grains back to T:
    the result's ``defects()`` and ``checks`` check both when first read, not
    here.  ``T p = p`` is checked on numerators, as ``t q == L_T q`` for T = t / L_T.
    S is built on numerators too: with L the lcm of the class sizes, the N^2
    quotients ``T[k, l] / d_k`` are ``t[k, l] (L // d_k)`` over ``L_T L``,
    gathered into S's d^2 numerators.  Requires exact mode: a least common
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
    if p.den > np.iinfo(np.intp).max:  # before anything of size d exists
        raise TooManyStates(f"d = {core._shown(Fraction(p.den))} fine states, more than numpy can index")
    partition = Partition.consecutive(sizes)
    c = partition.labels
    # S[nu, mu] = T[c(nu), c(mu)] / |c(nu)|: numerators of the N^2 quotients over T.den L, gathered
    S = StochMatrix._from_nums((t * (L // q)[:, None])[np.ix_(c, c)], T.den * L)
    return CoarseGrainDilation(partition, S, uniform_right_inverse(partition), T)
