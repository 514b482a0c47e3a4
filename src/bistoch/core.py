"""Probability vectors, stochastic matrices and their basic analysis.

Convention used throughout the library: entry ``T[m, n]`` is the transition
probability from source state ``n`` to target state ``m``, so a matrix is
left-stochastic when every *column* sums to one.

Matrices and vectors carry one of two numeric modes.  In ``"exact"`` mode
entries are :class:`fractions.Fraction` objects held in object-dtype numpy
arrays; all comparisons are exact.  Each exact object computes its integer
numerators over one common denominator once, at construction (``nums`` and
``den``, see :class:`_Entries`).  ``nums`` is int64 when ``max(max num,
den) * entries < 2**63``, so that every sum of its non-negative entries,
and its difference from ``den``, fits; otherwise it holds Python ints.  A
kernel that multiplies numerators bounds its own products first and works
on Python ints where the bound fails (:func:`_exact_operands`).  An exact
object also keeps how its entries share values: ``a == values[codes]``.
The public constructor finds the distinct entry objects by one id pass
(:func:`_distinct`).  A kernel that knows more builds its result without
that pass, in one of two ways.  One that knows its few values and their
codes passes them (:meth:`_Entries._from_codes`): the noisy dilation, both
right inverses, ``ProbVec.point_mass`` and the JSON decoder, which maps
each distinct token of a file to a code in one dict pass.  One that
computes numerators passes them with their denominator
(:meth:`_Entries._from_nums`), which makes one Fraction per distinct
numerator: ``fixed_point``, ``apply`` and ``iterate``, ``coarse_grain``,
the uniform dilation and the exact Birkhoff reconstruction.  The JSON encoder reads the codes, so no other pass over
the entries looks for shared values.  Each value is converted once, and
entries that share a value share one object in ``a``.  Sums, comparisons
and peels over a whole object read ``nums`` and ``den``, and results become
Fractions again only where they leave the library
(:meth:`_Entries._from_nums`, :meth:`_Entries._value`, and
:func:`_fractions` for the fixed-point basis), always with Python-int
numerators.  In ``"float"`` mode entries are IEEE doubles, an array is its
own numerators over ``1.0``, and comparisons use the tolerances below.  The
two modes never mix inside one object or one operation.

The analysis of a stochastic matrix rests on two primitives shared by both
modes: a breadth-first search over its boolean support (:func:`_reached`),
which gives irreducibility and the closed communicating classes, and one
linear solve per closed class for its stationary law
(:func:`_class_stationary`), fraction-free on integer numerators in exact
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ModeMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotBiStochastic,
    NotSquare,
    NotStochastic,
)

EXACT = "exact"
FLOAT = "float"

# The float tolerance table of the library: every float tolerance in bistoch
# is one of these, apart from the printed-value goldens of the CLI demo.
# Exact mode uses none of them: its comparisons are exact, and a check takes
# its threshold from _tol, which is 0 in exact mode.  The one exception is
# the convergence flag of iterate, which compares with RESIDUAL_TOL in both
# modes.
# The three value tolerances are ordered RESIDUAL_TOL < RESULT_TOL <
# DEFAULT_TOL: round-off stays below what a computed result promises, which
# stays below the defect an input is accepted at.  A result computed from an
# input accepted at defect d is promised only up to a bound that grows with d
# (birkhoff_decompose reports it as residual_mass), never at a finer tolerance.

#: acceptance: the sum defect ``validate`` accepts and ``ProbVec`` allows, and
#: the slack allowed on negative entries (user-overridable where a ``tol``
#: parameter exists)
DEFAULT_TOL = 1e-9
#: results: the Sinkhorn default, the fixed-point residual and Kraus
#: completeness checks, and the limit of the Maxwell-demon demo
RESULT_TOL = 1e-10
#: round-off: structural zeros of a support, membership of the
#: entropy-decreasing region, convergence of ``iterate``, and identities that
#: hold exactly up to floating-point error
RESIDUAL_TOL = 1e-12
#: resolution of a scan parameter in [0, 1] (boundary bisection), not a
#: tolerance on a value
BISECTION_TOL = 1e-9


def _tol(M, tol):
    """The threshold a check on M's values compares with: 0 in exact mode, ``tol`` in float mode."""
    return 0 if M.mode == EXACT else tol


def _exact_entry(value):
    if isinstance(value, (float, Rational, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _distinct(data):
    """The distinct objects of an object array, and for each entry the index of its object.

    Entries are told apart by identity, which is safe because ``data`` holds
    a reference to every object while their ids are taken.
    """
    flat = data.reshape(-1)
    ids = np.fromiter(map(id, flat), np.uintp, flat.size)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return flat[first], inverse


def _float(value):
    """``float(value)``, or an infinity of its sign where it is too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


#: exact numerators, and every integer a kernel forms from them, are int64 only below this
_INT64_LIMIT = 2**63


def _numerators(a):
    """Python-int numerators of an exact array over one common denominator.

    Returns ``(nums, L)`` with L the lcm of the entries' denominators and
    ``a == nums / L`` entrywise; sums and comparisons of ``nums`` are exact.
    Only the constructor of :class:`_Entries` calls it: kernels read the
    ``nums`` and ``den`` it stored.
    """
    ratios = [v.as_integer_ratio() for v in a.flat]
    L = math.lcm(*{den for _, den in ratios})
    return np.array([num * (L // den) for num, den in ratios], dtype=object).reshape(a.shape), L


def _fractions(nums, L):
    """Inverse of :func:`_numerators`: the array of values ``nums / L``.

    Fractions for an integer ``L``; ``tolist`` hands over Python ints also
    from int64 numerators: a Fraction keeps an ``np.int64`` numerator, and
    later sums of it would wrap.  For a float ``L`` (float mode) the float
    array ``nums / L``.
    """
    if isinstance(L, float):
        return nums / L
    return np.array([Fraction(num, L) for num in nums.reshape(-1).tolist()], dtype=object).reshape(nums.shape)


def _exact_operands(bound, *nums):
    """The numerator arrays of one exact kernel, in a dtype its integers fit in.

    ``bound`` maps the largest entry of each array (all non-negative) to a
    bound on every integer the kernel forms from them.  The arrays stay as
    they are if none is int64, or if all are and the bound is below
    ``_INT64_LIMIT``; otherwise they become Python-int object arrays.  No
    entry of an object array is read.
    """
    int64 = [a.dtype == np.int64 for a in nums]
    if not any(int64) or all(int64) and bound(*(int(a.max(initial=0)) for a in nums)) < _INT64_LIMIT:
        return nums
    return tuple(a.astype(object) for a in nums)


def _raise_first(error, arr, mask):
    """Raise ``error(index, value)`` for the first masked entry in row-major order."""
    if mask.any():
        idx = tuple(int(i) for i in np.argwhere(mask)[0])
        raise error(idx, arr[idx])


class _Entries:
    """Shared base of :class:`ProbVec` and :class:`StochMatrix`: a numeric
    mode and an array ``a`` of checked entries.

    The mode is inferred from the data unless given: any float entry makes it
    ``"float"``.  Each object computes its numerators once, at construction,
    before the check of the entries' signs.  Exact entries stay Fractions in
    ``a`` and also become integer numerators ``nums`` over the lcm ``den`` of
    their denominators, so ``a == nums / den``: int64 where every sum of
    them fits (:meth:`_set_exact`), Python ints otherwise.  A float array is
    its own numerators over ``den = 1.0``.  An exact object also keeps the
    factorisation ``a == values[codes]``: ``values`` is a 1-D object array
    of distinct Fraction objects and ``codes`` an int array of the object's
    shape (a float object has ``values = codes = None``).  The public
    constructor takes them from one id pass over ``data`` (:func:`_distinct`),
    so an object shared by many entries of ``data`` is converted once and
    stays shared in ``a``; :meth:`_from_codes` takes them from a kernel, and
    :meth:`_from_nums` from the distinct numerators a kernel computed.
    Every exact construction goes through :meth:`_set_exact`,
    which converts and sign-checks each value once.  Every float
    construction goes through :meth:`_set_float`, which checks the shape and
    the finite, non-negative entries: the public constructor on a copy of
    ``data``, :meth:`_from_array` on a fresh array a kernel hands over, so a
    large float result is not copied.  Sums and comparisons over a whole
    object read ``nums`` and ``den`` and never convert ``a`` again.  A float
    entry too large for a double, such as an exact ``1e400``, is a
    :class:`NonFiniteEntry`.
    """

    def __init__(self, data, mode=None):
        if mode is None:
            floats = (isinstance(v, (float, np.floating)) for v in np.asarray(data, dtype=object).flat)
            mode = FLOAT if any(floats) else EXACT
        if mode == EXACT:
            data = np.asarray(data, dtype=object)
            distinct, inverse = _distinct(data)
            values = np.array([v if isinstance(v, Fraction) else _exact_entry(v) for v in distinct], dtype=object)
            self._set_exact(values, inverse.reshape(data.shape))
        elif mode == FLOAT:
            try:
                arr = np.array(data, dtype=float)
            except OverflowError:  # an exact entry too large for a float, reported as infinite below
                arr = np.frompyfunc(_float, 1, 1)(np.asarray(data, dtype=object)).astype(float)
            self._set_float(arr)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._check_sum()

    @classmethod
    def _from_codes(cls, values, codes):
        """The exact object with entries ``values[codes]``, built without an id pass.

        For kernels that know which entries share a value: ``values`` holds
        Fractions, ``codes`` is an int array of the object's shape, and every
        value is the value of some entry, so that ``den`` stays the lcm of
        the entries' denominators.
        """
        obj = cls.__new__(cls)
        obj._set_exact(values, codes)
        obj._check_sum()
        return obj

    @classmethod
    def _from_array(cls, arr):
        """The float object holding ``arr`` itself, a float64 array no one else writes to.

        The float counterpart of :meth:`_from_codes`, for kernels that hand
        over a fresh array: the public constructor would copy it.
        """
        obj = cls.__new__(cls)
        obj._set_float(arr)
        obj._check_sum()
        return obj

    @classmethod
    def _from_nums(cls, nums, den):
        """The object with entries ``nums / den``, for kernels that compute numerators.

        Exact mode (an integer ``den``, not necessarily the entries' lcm)
        makes one Fraction per distinct numerator and builds from their codes
        (:meth:`_from_codes`).  Float mode (a float ``den``) hands the fresh
        array ``nums / den`` to :meth:`_from_array`.
        """
        if isinstance(den, float):
            return cls._from_array(nums / den)
        distinct, codes = np.unique(nums, return_inverse=True)
        return cls._from_codes(_fractions(distinct, den), codes.reshape(nums.shape))

    def _set_float(self, arr):
        """Check and store a float object: its shape, then finite and non-negative entries."""
        self._check_shape(arr)
        _raise_first(NonFiniteEntry, arr, ~np.isfinite(arr))
        _raise_first(NegativeEntry, arr, arr < -DEFAULT_TOL)
        self.mode, self.a, self.nums, self.den, self.values, self.codes = FLOAT, arr, arr, 1.0, None, None

    def _set_exact(self, values, codes):
        """Check and store an exact object from its distinct values and their codes.

        Numerators are computed once per value, and so is the sign check: a
        negative numerator is traced to its first entry only when one exists.
        They are stored as int64 when ``max(max num, den) * entries`` is
        below ``_INT64_LIMIT``, a bound read on the values, not the entries:
        the entries are then non-negative, so every sum of them fits, and so
        does its difference from ``den``.
        """
        self._check_shape(codes)
        nums, den = _numerators(values)
        arr, negative = values[codes], nums < 0
        if negative.any():  # den > 0, so an exact entry is negative iff its numerator is
            _raise_first(NegativeEntry, arr, negative[codes])
        if max(nums.max(initial=0), den) * codes.size < _INT64_LIMIT:
            nums = nums.astype(np.int64)
        self.mode, self.a, self.nums, self.den, self.values, self.codes = EXACT, arr, nums[codes], den, values, codes

    def _check_sum(self):
        """A constraint on the sum of the entries: none for a matrix."""

    def _value(self, num):
        """A sum of numerators as a value: a Fraction over ``den`` with a Python-int numerator, or a float."""
        return Fraction(int(num), self.den) if self.mode == EXACT else float(num)

    def __getitem__(self, idx):
        return self.a[idx]

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return type(self)(self.a, mode=FLOAT)

    def __eq__(self, other):
        """Same type, mode and entries, compared as ``den`` and ``nums``.

        In exact mode these are canonical: ``den`` is the lcm of the reduced
        denominators, so equal entries give equal ``den`` and ``nums``.  A
        float array is its own numerators over ``1.0``.
        """
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.mode == other.mode and self.den == other.den and bool(np.array_equal(self.nums, other.nums))

    def allclose(self, other, tol=RESIDUAL_TOL):
        if self.a.shape != other.a.shape:
            return False
        d = self.to_float().a - other.to_float().a
        return bool(np.max(np.abs(d)) <= tol)


class ProbVec(_Entries):
    """Point of the probability simplex: non-negative entries summing to 1.

    In float mode the sum may miss 1, and an entry may fall below 0, by at
    most ``DEFAULT_TOL``.
    """

    def _check_sum(self):
        total = self.nums.sum()
        if abs(total - self.den) > _tol(self, DEFAULT_TOL):
            raise NotStochastic(f"entries sum to {self._value(total)}, expected 1")

    @staticmethod
    def _check_shape(arr):
        if arr.ndim != 1:
            raise DimensionMismatch("probability vector must be one-dimensional")

    @classmethod
    def uniform(cls, n, mode=FLOAT):
        if mode == EXACT:
            return cls([Fraction(1, n)] * n, mode=EXACT)
        return cls(np.full(n, 1.0 / n), mode=FLOAT)

    @classmethod
    def point_mass(cls, n, k, mode=FLOAT):
        if not 0 <= k < n:
            raise IndexOutOfRange(f"point mass at {k} outside {n} states")
        at_k = [int(i == k) for i in range(n)]  # in exact mode, codes into [0, 1]
        if mode == EXACT:
            return cls._from_codes(np.array([Fraction(0), Fraction(1)], dtype=object), np.array(at_k, dtype=np.intp))
        return cls(at_k, mode=mode)

    @property
    def n(self):
        return self.a.shape[0]

    def is_interior(self):
        """True when every entry is strictly positive."""
        return bool(np.all(self.nums > _tol(self, RESIDUAL_TOL)))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"ProbVec({list(self.a)!r}, mode={self.mode!r})"


class StochMatrix(_Entries):
    """Rectangular non-negative matrix with at least one row and one column.

    The constructor only enforces the shape and non-negative (and, in float
    mode, finite) entries; whether the matrix is left-/right-/bi-stochastic
    is reported by :func:`validate`.
    """

    @staticmethod
    def _check_shape(arr):
        if arr.ndim != 2:
            raise DimensionMismatch("matrix data must be two-dimensional")
        if 0 in arr.shape:
            raise DimensionMismatch(f"{arr.shape[0]}x{arr.shape[1]} matrix has no entries")

    @classmethod
    def identity(cls, n, mode=FLOAT):
        if mode == EXACT:
            data = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            return cls(data, mode=EXACT)
        return cls(np.eye(n), mode=FLOAT)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __repr__(self):
        return f"StochMatrix({self.rows}x{self.cols}, mode={self.mode!r})"


@dataclass
class StochasticityReport:
    left: bool
    right: bool
    bi: bool
    irreducible: bool
    max_column_defect: object
    max_row_defect: object


@dataclass
class FixedPointResult:
    representative: ProbVec
    face_dimension: int
    is_unique: bool
    basis: list


def _require_same_mode(*objects):
    modes = {o.mode for o in objects}
    if len(modes) > 1:
        raise ModeMismatch(f"cannot mix modes {sorted(modes)}")


def _require_left_stochastic(T):
    if not T.is_square:
        raise NotSquare(f"{T.rows}x{T.cols} matrix is not square")
    report = _sum_check(T)
    if not report.left:
        raise NotStochastic(f"column sums deviate by {report.max_column_defect}")
    return report


def _require_bistochastic(M, tol=DEFAULT_TOL):
    report = _sum_check(M, tol)
    if not report.bi:
        raise NotBiStochastic(f"column defect {report.max_column_defect}, row defect {report.max_row_defect}")
    return report


def _sum_check(M, tol=DEFAULT_TOL):
    """The row and column sums part of :func:`validate`; ``irreducible`` is None.

    Each row and column sum of the numerators of M is compared with their
    denominator: exactly in exact mode, where the defects are Fractions, and
    to ``tol`` in float mode.
    """
    col_defect, row_defect = (M._value(np.max(np.abs(M.nums.sum(axis=axis) - M.den))) for axis in (0, 1))
    limit = _tol(M, tol)
    left, right = col_defect <= limit, row_defect <= limit
    return StochasticityReport(
        left=left,
        right=right,
        bi=left and right and M.is_square,
        irreducible=None,
        max_column_defect=col_defect,
        max_row_defect=row_defect,
    )


def _max_difference(A, B):
    """The largest entry of ``|A - B|``, read on numerators: a Fraction in exact mode, a float in float mode."""
    a, b = _exact_operands(lambda a, b: a * B.den + b * A.den, A.nums, B.nums)
    return A._value(np.max(np.abs(a * B.den - b * A.den))) / B.den


def validate(M, tol=DEFAULT_TOL):
    """Classify a matrix as left-/right-/bi-stochastic and irreducible.

    Exact mode compares sums to 1 exactly, on integer numerators over one
    common denominator; the defects are Fractions.  Float mode allows
    ``|sum-1| <= tol``.  Negative entries are rejected at construction time,
    so only sum defects are reported here.  Irreducibility (a strongly
    connected support digraph: state 0 reaches every state and every state
    reaches state 0, two searches of :func:`_reached`) is computed for a
    square left-stochastic matrix and is False otherwise; only this function
    and :func:`is_irreducible` compute it.
    """
    report = _sum_check(M, tol)
    report.irreducible = M.is_square and report.left and _strongly_connected(_support(M))
    return report


def _support(T):
    """Boolean support of T: ``adj[m, n]`` is the edge n -> m of its digraph."""
    return T.nums > _tol(T, RESIDUAL_TOL)


def _reached(adj, start, within=True):
    """States reachable from ``start`` along the edges of ``adj`` inside ``within``.

    Breadth-first: each step gathers the columns of the frontier at once.
    Pass ``adj.T`` to search backwards.
    """
    seen = np.zeros(len(adj), dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = adj[:, frontier].any(axis=1) & within & ~seen
        seen = seen | frontier
    return seen


def _strongly_connected(adj):
    return bool(_reached(adj, 0).all() and _reached(adj.T, 0).all())


def _recurrent_classes(T):
    """Closed communicating classes of the support digraph, sorted by least state.

    States are visited in increasing order.  The backward set of an unvisited
    state n, searched among the unvisited states, is marked visited; n's class
    is what n reaches inside that set, and it is closed iff no support edge
    leaves it.  Every state that reaches a visited state is visited too, so
    n's class lies among the unvisited states, and a closed class is found
    at its least state.
    """
    adj = _support(T)
    unvisited = np.ones(T.rows, dtype=bool)
    classes = []
    for n in range(T.rows):
        if unvisited[n]:
            back = _reached(adj.T, n, unvisited)
            unvisited &= ~back
            members = _reached(adj, n, back)
            if not adj[np.ix_(~members, members)].any():
                classes.append(np.flatnonzero(members))
    return classes


def is_irreducible(T):
    """True iff the support digraph of T is strongly connected."""
    _require_left_stochastic(T)
    return _strongly_connected(_support(T))


def _class_stationary(T, members):
    """Stationary law of T on a closed class, zero elsewhere, as ``(num, den)``.

    Solves ``(T_C - I) p = 0`` with its last row replaced by ``sum(p) = 1``,
    which is nonsingular on a closed class.  Float mode returns the law over
    ``1.0``.  Exact mode runs fraction-free Gauss-Jordan elimination
    (Bareiss) on the integer numerators over their common denominator L,
    ``(t - L I)``, on Python ints whatever the dtype of T's numerators (its
    minors outgrow int64), and returns the integer solution column over the
    determinant it leaves on the diagonal (which may be negative).  It needs
    no pivot search: T restricted to a proper subset S of the class leaks
    mass out of S, so ``T_S - I`` and every leading minor of the system are
    nonsingular.
    """
    k = len(members)
    full = np.zeros(T.rows, dtype=float if T.mode == FLOAT else object)
    if T.mode == FLOAT:
        system = T.a[np.ix_(members, members)] - np.eye(k)
        system[-1] = 1.0
        sol = np.clip(np.linalg.solve(system, np.eye(k)[-1]), 0.0, None)
        full[members] = sol / sol.sum()
        return full, 1.0
    t, L = T.nums[np.ix_(members, members)], T.den
    t[np.diag_indices(k)] -= L
    m = np.zeros((k, k + 1), dtype=object)  # [t - L I | 0], last row [1 ... 1 | 1], as Python ints
    m[:, :k] = t
    m[-1] = 1
    prev = 1
    for c in range(k):
        rest = np.arange(k) != c
        m[rest] = (m[c, c] * m[rest] - m[rest, c][:, None] * m[c]) // prev
        prev = m[c, c]
    full[members] = m[:, k]
    return full, prev


def fixed_point(T):
    """A fixed point of T in the simplex plus the fixed-point face structure.

    The fixed-point set of a stochastic matrix is a face of the simplex whose
    dimension is one less than the number of closed communicating classes
    (:func:`_recurrent_classes`).  Each class contributes its stationary law,
    one linear solve (:func:`_class_stationary`); the basis holds their
    differences from the first.  The reported representative is their
    average, which is deterministic and strictly positive on the union of
    the closed classes.  Exact mode combines the laws on integer numerators
    over the lcm of their denominators, and makes Fractions once at the end;
    float mode combines them over ``1.0``.
    """
    _require_left_stochastic(T)
    laws = [_class_stationary(T, c) for c in _recurrent_classes(T)]
    L = math.lcm(*(den for _, den in laws)) if T.mode == EXACT else 1.0
    nums = np.stack([num * (L // den) for num, den in laws])
    face_dimension = len(laws) - 1
    return FixedPointResult(
        representative=ProbVec._from_nums(nums.sum(axis=0), L * len(laws)),
        face_dimension=face_dimension,
        is_unique=face_dimension == 0,
        basis=list(_fractions(nums[1:] - nums[0], L)),
    )


def _require_applicable(T, p):
    """Raise unless T acts on p: same mode, matching dimension, left-stochastic T."""
    _require_same_mode(T, p)
    if T.cols != p.n:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix applied to length-{p.n} vector")
    if not _sum_check(T).left:
        raise NotStochastic("matrix is not left-stochastic")


def apply(T, p):
    """The image T.p of a distribution under a left-stochastic matrix: one step of :func:`iterate`."""
    return iterate(T, p, 1)[0][-1]


def iterate(T, p, steps):
    """Trajectory [p, Tp, ..., T^steps p] plus a convergence flag.

    Each step multiplies numerators, ``t @ q`` over ``T.den * q.den``, on
    int64 while its products provably fit (:func:`_exact_operands`).  The
    flag is true once two consecutive iterates differ by at most
    ``RESIDUAL_TOL`` in the max norm (:func:`_max_difference`), in both
    modes: the one float tolerance exact mode uses.  T and p are checked
    once, before the first step; ``steps == 0`` checks nothing and returns
    ``[p]``.  A non-square T maps p to a vector of another length, which it
    cannot act on: it takes one step at most, and that step never counts as
    converged.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps:
        _require_applicable(T, p)
    if steps > 1 and not T.is_square:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix applied to length-{T.rows} vector")
    trajectory = [p]
    converged = False
    for _ in range(steps):
        current = trajectory[-1]
        t, q = _exact_operands(lambda t, q: t * q * T.cols, T.nums, current.nums)
        nxt = ProbVec._from_nums(t @ q, T.den * current.den)
        trajectory.append(nxt)
        if not converged and nxt.n == current.n and _max_difference(nxt, current) <= RESIDUAL_TOL:
            converged = True
    return trajectory, converged


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"mode": "exact"|"float", "rows": N, "cols": M, "data": [[...]]}
# Exact entries are integers or strings "p/q"; float entries are JSON numbers.
# Vectors are stored with cols = 1.
# ---------------------------------------------------------------------------

def _to_json(M, shape):
    """The JSON object of ``M``'s entries as a 2-D array of the given shape.

    Exact mode encodes each of ``M.values`` once and gathers the strings by
    ``M.codes``.
    """
    a = M.a
    if M.mode == EXACT:
        ratios = (v.as_integer_ratio() for v in M.values)
        a = np.array([num if den == 1 else f"{num}/{den}" for num, den in ratios], dtype=object)[M.codes]
    return {"mode": M.mode, "rows": shape[0], "cols": shape[1], "data": a.reshape(shape).tolist()}


def matrix_to_json(M):
    return _to_json(M, M.a.shape)


def _from_json(cls, obj):
    """The matrix or vector ``cls`` of a JSON object, whose ``data`` must be
    ``rows`` lists of ``cols`` entries (one entry each for a vector).

    Exact mode maps each distinct JSON token to a code in one dict pass,
    converts each token once and builds the object from the codes
    (:meth:`_Entries._from_codes`); float mode goes through the constructor.
    An entry that is itself a list or an object is a ``DimensionMismatch``,
    as a row of the wrong length is.  Such entries are looked for only once
    the decoding has failed, so a well-formed file takes no extra pass.
    """
    mode, data = obj["mode"], obj["data"]
    wrong_shape = DimensionMismatch("data shape disagrees with declared rows/cols")
    if len(data) != obj["rows"] or any(type(r) is not list or len(r) != obj["cols"] for r in data):
        raise wrong_shape
    tokens = np.array([r[0] for r in data] if cls is ProbVec else data, dtype=object)
    if tokens.ndim != (1 if cls is ProbVec else 2):  # entries that are lists of one length
        raise wrong_shape
    try:
        if mode != EXACT:
            return cls(tokens, mode=mode)
        index = {}  # JSON token -> code, in order of first appearance
        codes = np.fromiter((index.setdefault(v, len(index)) for v in tokens.flat), np.intp, tokens.size)
    except (TypeError, ValueError):
        if any(isinstance(v, (list, dict)) for v in tokens.flat):
            raise wrong_shape from None
        raise
    values = np.array([_exact_entry(v) for v in index], dtype=object)
    return cls._from_codes(values, codes.reshape(tokens.shape))


def matrix_from_json(obj):
    return _from_json(StochMatrix, obj)


def vector_to_json(p):
    return _to_json(p, (p.n, 1))


def vector_from_json(obj):
    if obj["cols"] != 1:
        raise DimensionMismatch("vector JSON must have cols = 1")
    return _from_json(ProbVec, obj)
