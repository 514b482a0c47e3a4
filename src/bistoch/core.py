"""Probability vectors, stochastic matrices and their basic analysis.

Convention used throughout the library: entry ``T[m, n]`` is the transition
probability from source state ``n`` to target state ``m``, so a matrix is
left-stochastic when every *column* sums to one.

Matrices and vectors carry one of two numeric modes.  In ``"exact"`` mode
an object is defined by integer numerators over one common denominator
(``nums`` and ``den``, see :class:`_Entries`): ``den`` is the lcm of the
entries' reduced denominators, so equal objects have equal ``nums`` and
``den``, and all comparisons are exact.  ``nums`` is int64 when ``max(max
num, den) * entries < 2**63``, so that every sum of its non-negative
entries, and its difference from ``den``, fits; otherwise it holds Python
ints.  A kernel that multiplies numerators bounds its own products first
and works on Python ints where the bound fails (:func:`_exact_operands`).
The entries as :class:`fractions.Fraction` objects, the object-dtype array
``a == values[codes]``, are built only when read, so that a kernel's
result makes no Fraction unless its values leave the library.  The public
constructor converts each entry it is given and stores the numerators, so
its ``values`` and ``codes`` too come from one sort of them when read.  A
builder that knows more makes its result without converting each entry,
through one of two constructors, each serving both modes.  One
that knows its few exact values and their codes passes them
(:meth:`_Entries._from_codes`): the exact noisy dilation, both right inverses,
``ProbVec.uniform`` and ``point_mass``, ``StochMatrix.identity``,
``to_float`` and the JSON decoder, which maps each distinct token of a file
to a code in one dict pass.  In float mode it rounds each value once and
gathers the floats by the codes, so a float result is the rounding of the
exact one, bit for bit.  One that computes numerators passes them with
their denominator (:meth:`_Entries._from_nums`), which divides both by their
gcd and makes no Fraction, or stores a float array over ``1.0`` as it is:
``fixed_point``, ``apply`` and ``iterate``, ``coarse_grain``, the uniform
dilation, the float noisy and unistochastic dilations and the Birkhoff
reconstruction: its ``codes`` and ``values`` come from one sort of its
numerators when first read.  The JSON encoder reads the codes, so no pass
over the entries looks for shared values that a builder knew.  Each value
is converted once, and entries that share a value share one object in
``a``.  Sums, comparisons and peels over a whole object read ``nums`` and
``den``, and Fractions made from numerators (:attr:`_Entries.values`, :meth:`_Entries._value`, and
:func:`_fractions` for the fixed-point basis) always have Python-int
numerators.  In ``"float"`` mode entries are IEEE doubles, an array is its
own numerators over ``1.0``, and comparisons use the tolerances below.  The
two modes never mix inside one object or one operation.

The analysis of a stochastic matrix rests on two primitives shared by both
modes: a breadth-first search over its boolean support (:func:`_reached`),
which gives irreducibility and the closed communicating classes, and one
linear solve per closed class for its stationary law
(:func:`_class_stationary`), fraction-free on Python ints in exact mode,
each column over its own denominator.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
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
    TooManyDigits,
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
#: results: the Sinkhorn default, the fixed-point residual check, and the
#: limit of the Maxwell-demon demo
RESULT_TOL = 1e-10
#: round-off: structural zeros of a support, membership of the
#: entropy-decreasing region, convergence of ``iterate``, and identities that
#: hold exactly up to floating-point error
RESIDUAL_TOL = 1e-12
#: resolution of a scan parameter in [0, 1]: the width at which the region
#: scan's boundary search stops, not a tolerance on a value
BISECTION_TOL = 1e-9


def _tol(M, tol):
    """The threshold a check on M's values compares with: 0 in exact mode, ``tol`` in float mode."""
    return 0 if M.mode == EXACT else tol


#: the decimal exponent of a string such as "1e-5000"
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exact_entry(value):
    """The Fraction of a float, a rational or a string such as "1/3" or "2.5e-3".

    A string with an exponent whose value has a numerator or denominator
    with more digits than the interpreter writes an int with is a
    ``ValueError``: it could not be written back.  A nonzero value whose
    exponent exceeds that limit by more than the string's length is refused
    before it is expanded, as it certainly has too many digits.
    """
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before Python 3.10.7
        mantissa = Fraction(value[: exponent.start()] + "e0")
        if limit and mantissa and abs(int(exponent[1])) > limit + len(value):
            raise ValueError(f"{value!r} has more digits than the {limit}-digit limit of Python ints")
        result = Fraction(value) if mantissa else mantissa
        if limit and max(abs(result.numerator), result.denominator) >= 10**limit:
            raise ValueError(f"{value!r} has more digits than the {limit}-digit limit of Python ints")
        return result
    if isinstance(value, (float, Rational, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _float(value):
    """``float(value)``, or an infinity of its sign where it is too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _floats(data):
    """``np.array(data, dtype=float)``: each value rounded once, and one too large for a float infinite."""
    try:
        return np.array(data, dtype=float)
    except OverflowError:  # reported as a NonFiniteEntry by the object's check
        return np.frompyfunc(_float, 1, 1)(np.asarray(data, dtype=object)).astype(float)


#: exact numerators, and every integer a kernel forms from them, are int64 only below this
_INT64_LIMIT = 2**63


def _numerators(a):
    """Python-int numerators of an exact array over one common denominator.

    Returns ``(nums, L)`` with L the lcm of the entries' denominators and
    ``a == nums / L`` entrywise; sums and comparisons of ``nums`` are exact.
    Only the exact constructors of :class:`_Entries` call it, on the values
    or entries they are given: kernels read the ``nums`` and ``den`` it stored.
    """
    ratios = [v.as_integer_ratio() for v in a.flat]
    L = math.lcm(*{den for _, den in ratios})
    return np.array([num * (L // den) for num, den in ratios], dtype=object).reshape(a.shape), L


def _fractions(nums, L):
    """Inverse of :func:`_numerators`: the array of values ``nums / L``,
    made only where values are read (:attr:`_Entries.values`) or leave the
    library (the fixed-point basis).

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


def _finite_and_not_negative(arr, axis=None):
    """Whether every entry (along ``axis``) is finite and at least ``-DEFAULT_TOL``: two reductions, false at a NaN."""
    return (arr.min(axis, initial=math.inf) >= -DEFAULT_TOL) & (arr.max(axis, initial=-math.inf) < math.inf)


def _raise_first(error, arr, mask):
    """Raise ``error(index, value)`` for the first masked entry in row-major order."""
    if mask.any():
        idx = tuple(int(i) for i in np.argwhere(mask)[0])
        raise error(idx, arr[idx])


class _Entries:
    """Shared base of :class:`ProbVec` and :class:`StochMatrix`: a numeric
    mode and checked entries.

    The mode is inferred from the data unless given: any float entry makes it
    ``"float"``.  An exact object is its integer numerators ``nums`` over
    ``den``, the lcm of its entries' reduced denominators, so that equal
    entries give equal ``nums`` and ``den``: int64 where every sum of them
    fits (:meth:`_set_exact`), Python ints otherwise.  Its entries as
    Fractions are built only when read, each once (``cached_property``),
    unless a builder set them: ``values``, a 1-D object array of distinct
    Fractions, and ``codes``, an int array of the object's shape indexing
    them, both from one sort of ``nums`` (:meth:`_factor`); and ``a ==
    values[codes]``, the object array of the entries.  A float object is its
    own numerators ``a`` over ``den = 1.0``, with ``values = codes = None``.

    The public constructor converts each entry of ``data`` and stores the
    numerators, as for a kernel's result: ``values`` stays distinct, built by
    :meth:`_factor` when read.  A builder that knows more
    uses one of two constructors, each for both modes: :meth:`_from_codes`
    takes exact values and their codes, and in float mode rounds each value
    once; :meth:`_from_nums` takes the numerators a kernel computed, makes
    no Fraction in exact mode, and in float mode stores that fresh array
    itself, so a large float result is not copied.  Every exact construction
    ends in :meth:`_set_exact`, which checks the shape and the signs and
    stores the numerators in their dtype; every float construction goes
    through :meth:`_set_float`, which checks the shape and the finite,
    non-negative entries.  Sums and comparisons over a whole object read
    ``nums`` and ``den``.  A float entry too large for a double, such as an
    exact ``1e400``, is a :class:`NonFiniteEntry`.
    """

    def __init__(self, data, mode=None):
        if mode is None:
            floats = (isinstance(v, (float, np.floating)) for v in np.asarray(data, dtype=object).flat)
            mode = FLOAT if any(floats) else EXACT
        if mode == EXACT:
            data = np.asarray(data, dtype=object)
            entries = [v if isinstance(v, Fraction) else _exact_entry(v) for v in data.flat]
            self._set_exact(*_numerators(np.array(entries, dtype=object).reshape(data.shape)))
        elif mode == FLOAT:
            self._set_float(_floats(data))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._check_sum()

    @classmethod
    def _from_codes(cls, values, codes, mode=EXACT):
        """The object with entries ``values[codes]``, each value converted once.

        For builders that know which entries share a value: ``values`` is a
        1-D object array of Fractions (a float object may also take floats),
        ``codes`` an int array of the object's shape, and every value is the
        value of some entry, so that ``den`` stays the lcm of the entries'
        denominators.  Float mode rounds each value once and gathers the
        floats by ``codes``.
        """
        if mode == FLOAT:
            return cls._from_nums(_floats(values)[codes], 1.0)
        if mode != EXACT:
            raise ValueError(f"unknown mode {mode!r}")
        obj = cls.__new__(cls)
        obj.values, obj.codes = values, codes
        obj._set_exact(*_numerators(values), codes)
        obj._check_sum()
        return obj

    @classmethod
    def _from_nums(cls, nums, den):
        """The object with entries ``nums / den``, for kernels that compute numerators.

        Exact mode (an integer ``den``, not necessarily the entries' lcm)
        divides ``nums`` and ``den`` by their gcd and makes no Fraction and
        no sort: ``codes`` and ``values`` wait until read (:meth:`_factor`).
        Float mode (a float ``den``) stores the float64 array ``nums``
        itself over ``1.0``, not a copy, so no one else may write to it;
        another ``den`` divides first.
        """
        obj = cls.__new__(cls)
        if isinstance(den, float):
            obj._set_float(nums if den == 1.0 else nums / den)
        else:
            g = math.gcd(den, int(np.gcd.reduce(nums, axis=None)))
            obj._set_exact(nums // g if g > 1 else nums, den // g)
        obj._check_sum()
        return obj

    def _set_float(self, arr):
        """Check and store a float object: its shape, then finite and non-negative entries.

        Its smallest and largest entries decide; the masks are walked only
        to name the first offending entry, a non-finite one before a
        negative one.
        """
        self._check_shape(arr)
        if not _finite_and_not_negative(arr):
            _raise_first(NonFiniteEntry, arr, ~np.isfinite(arr))
            _raise_first(NegativeEntry, arr, arr < -DEFAULT_TOL)
        self._store_float(arr)

    def _store_float(self, arr):
        self.mode, self.a, self.nums, self.den, self.values, self.codes = FLOAT, arr, arr, 1.0, None, None
        return self

    def _set_exact(self, nums, den, codes=None):
        """Check and store an exact object: numerators ``nums`` over their lcm ``den``.

        With ``codes``, from a builder that set ``values`` and ``codes``,
        ``nums`` holds one numerator per value and the entries' numerators
        are ``nums[codes]``: the sign check and the dtype bound run on
        ``nums``, once per value, before that gather.  A negative numerator
        is traced to its first entry only when one exists (``den > 0``, so
        an entry is negative iff its numerator is).  The numerators are
        stored as int64 when ``max(max num, den) * entries`` is below
        ``_INT64_LIMIT``: the entries are then non-negative, so every sum of
        them fits, and so does its difference from ``den``.
        """
        entries = nums if codes is None else codes
        self._check_shape(entries)
        negative = nums.min(initial=0) < 0  # den > 0, so an entry is negative iff its numerator is
        fits = not negative and max(int(nums.max(initial=0)), den) * entries.size < _INT64_LIMIT
        nums = nums.astype(np.int64 if fits else object, copy=False)
        self.mode, self.nums, self.den = EXACT, nums if codes is None else nums[codes], den
        if negative:
            _raise_first(NegativeEntry, self.a, self.nums < 0)

    def _factor(self):
        """Exact mode: set ``values`` and ``codes`` from one sort of ``nums``, for an object made from numerators."""
        distinct, codes = np.unique(self.nums, return_inverse=True)
        self.values, self.codes = _fractions(distinct, self.den), codes.reshape(self.nums.shape)

    @cached_property
    def codes(self):
        """Exact mode: the code of each entry, an index into ``values`` (:meth:`_factor`)."""
        self._factor()
        return self.codes

    @cached_property
    def values(self):
        """Exact mode: one Fraction per distinct numerator over ``den``, in increasing order (:meth:`_factor`)."""
        self._factor()
        return self.values

    @cached_property
    def a(self):
        """The entries: ``values[codes]`` in exact mode, a float64 array in float mode."""
        return self.values[self.codes]

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
        return self._from_codes(self.values, self.codes, FLOAT)

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
        if self.nums.shape != other.nums.shape:
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
            raise NotStochastic(f"entries sum to {_shown(self._value(total))}, expected 1")

    @staticmethod
    def _check_shape(arr):
        if arr.ndim != 1:
            raise DimensionMismatch("probability vector must be one-dimensional")

    @classmethod
    def _from_rows(cls, rows):
        """One float vector per row of the 2-D float64 array ``rows``, each storing its row itself.

        The rows are checked together: the checks of :meth:`_set_float` and
        :meth:`_check_sum` as reductions along each row, which read every
        row as its own vector does.  The first row that fails is rebuilt by
        :meth:`_from_nums`, which raises its error.
        """
        ok = _finite_and_not_negative(rows, axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= DEFAULT_TOL)
        for k in np.flatnonzero(~ok):
            cls._from_nums(rows[k], 1.0)
        return [cls.__new__(cls)._store_float(row) for row in rows]

    @classmethod
    def uniform(cls, n, mode=FLOAT):
        return cls._from_codes(np.array([Fraction(1, n)], dtype=object), np.zeros(n, dtype=np.intp), mode)

    @classmethod
    def point_mass(cls, n, k, mode=FLOAT):
        if not 0 <= k < n:
            raise IndexOutOfRange(f"point mass at {k} outside {n} states")
        at_k = (np.arange(n) == k).astype(np.intp)  # codes into [0, 1]
        return cls._from_codes(np.array([Fraction(0), Fraction(1)], dtype=object), at_k, mode)

    @property
    def n(self):
        return self.nums.shape[0]

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
        return cls._from_codes(np.array([Fraction(0), Fraction(1)], dtype=object), np.eye(n, dtype=np.intp), mode)

    @property
    def rows(self):
        return self.nums.shape[0]

    @property
    def cols(self):
        return self.nums.shape[1]

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
        raise NotStochastic(f"column sums deviate by {_shown(report.max_column_defect)}")
    return report


def _require_bistochastic(M, tol=DEFAULT_TOL):
    report = _sum_check(M, tol)
    if not report.bi:
        column, row = _shown(report.max_column_defect), _shown(report.max_row_defect)
        raise NotBiStochastic(f"column defect {column}, row defect {row}")
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


def sum_defect(M, tol=DEFAULT_TOL, rows=True):
    """The sum check of M as ``(defect, tol)``: the largest defect of a column
    sum, and with ``rows`` of a row sum too, held to ``tol`` in float mode and
    to 0 in exact mode (:func:`_tol`)."""
    report = _sum_check(M)
    defect = max(report.max_column_defect, report.max_row_defect) if rows else report.max_column_defect
    return defect, _tol(M, tol)


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
    computes it.
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


def _class_stationary(T, members):
    """Stationary law of T on a closed class, zero elsewhere, as ``(num, den)``.

    Solves ``(T_C - I) p = 0`` with its last row replaced by ``sum(p) = 1``,
    which is nonsingular on a closed class.  Float mode returns the law over
    ``1.0``.  Exact mode scales each column j of ``T_C`` by its own
    denominator ``d_j``, the lcm of that column's reduced denominators,
    rather than by the common ``den``, which would make every minor grow
    with the lcm of all columns' denominators: ``T_C = t' / d`` column by column, with integer ``t'``, and ``y
    = p / d`` solves ``(t' - diag d) y = 0`` with its last row replaced by
    ``d . y = 1``.  Fraction-free forward elimination (Bareiss) on
    Python-int lists makes the system upper triangular, eliminating column
    0, 1, ... in turn below the diagonal, so that each pivot is the leading
    minor of its order and the last is the determinant ``det``.  The
    right-hand side ``e_k`` becomes the leading minor of order k - 1 in the
    last row and zeros above, so back substitution from the last row gives
    the integer solution ``det * y`` (Cramer's rule), each division exact.
    It returns ``d * det * y`` over ``det``, which may be negative.  No pivot
    search is needed: T restricted to a proper subset S of the class leaks
    mass out of S, so ``T_S - I`` is nonsingular, and the leading minor of
    the scaled system on S is its determinant times the ``d_j`` of S.
    """
    k = len(members)
    full = np.zeros(T.rows, dtype=float if T.mode == FLOAT else object)
    if T.mode == FLOAT:
        system = T.a[np.ix_(members, members)] - np.eye(k)
        system[-1] = 1.0
        sol = np.clip(np.linalg.solve(system, np.eye(k)[-1]), 0.0, None)
        full[members] = sol / sol.sum()
        return full, 1.0
    # each column of T_C as Python ints with its gcd with den: a closed class holds all of the column's mass
    columns = [(col, math.gcd(T.den, *col)) for col in T.nums[np.ix_(members, members)].T.tolist()]
    d = [T.den // g for _, g in columns]
    m = [[col[i] // g - d[i] * (i == j) for j, (col, g) in enumerate(columns)] for i in range(k - 1)] + [list(d)]
    prev = 1
    for c in range(k - 1):
        pivot, top = m[c][c], m[c][c + 1:]
        for row in m[c + 1:]:
            row[c + 1:] = [(pivot * v - row[c] * w) // prev for v, w in zip(row[c + 1:], top)]
        prev = pivot
    x = [0] * (k - 1) + [prev]
    for i in range(k - 2, -1, -1):
        x[i] = -sum(u * v for u, v in zip(m[i][i + 1:], x[i + 1:])) // m[i][i]
    full[members] = [dj * xj for dj, xj in zip(d, x)]
    return full, m[-1][-1]


def fixed_point(T):
    """A fixed point of T in the simplex plus the fixed-point face structure.

    The fixed-point set of a stochastic matrix is a face of the simplex whose
    dimension is one less than the number of closed communicating classes
    (:func:`_recurrent_classes`).  Each class contributes its stationary law,
    one linear solve (:func:`_class_stationary`); the basis holds their
    differences from the first.  The reported representative is their
    average, which is deterministic and strictly positive on the union of
    the closed classes.  Exact mode combines the laws on integer numerators
    over the lcm of their denominators: the representative is built from
    them (:meth:`_Entries._from_nums`) and the basis is made Fractions once,
    at the end; float mode combines them over ``1.0``.
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


def fixed_point_residual(T, p):
    """How far p is from a fixed point of T, as ``(defect, tol)``: the largest
    entry of ``|T p - p|``, read on numerators, ``t @ q`` over ``T.den *
    p.den``, and not built as a ``ProbVec``, which would check its sum.  T p
    sums to the column sums of T, so in float mode the tolerance
    ``RESULT_TOL`` carries T's largest column defect; in exact mode it is 0.
    """
    tol = _tol(T, RESULT_TOL + _sum_check(T).max_column_defect)
    t, q = _exact_operands(lambda t, q: (t * T.cols + T.den) * q, T.nums, p.nums)
    return p._value(np.max(np.abs(t @ q - q * T.den))) / T.den, tol


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
    converged.  A float square T writes its steps into the rows of one
    array, checks them in one pass and wraps each row in its vector
    (:meth:`ProbVec._from_rows`): the first step that fails raises the
    error, message included, that its vector raises when built alone.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not steps:
        return [p], False
    _require_applicable(T, p)
    if steps > 1 and not T.is_square:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix applied to length-{T.rows} vector")
    if T.mode == FLOAT and T.is_square:
        # one (steps + 1) x n array: each row is t @ q of the row before, as a step of the loop below
        rows = np.empty((steps + 1, p.n))
        rows[0] = p.a
        for k in range(steps):
            np.matmul(T.a, rows[k], out=rows[k + 1])
        change = np.max(np.abs(np.diff(rows, axis=0)), axis=1)
        return [p, *ProbVec._from_rows(rows[1:])], bool(np.any(change <= RESIDUAL_TOL))
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

_SHOWN_DIGITS = 30  # an exact value with a longer numerator or denominator is shown approximately


def _shown(value):
    """A value as an error message writes it: ``str(value)``, or, for an exact
    value whose numerator or denominator has more than ``_SHOWN_DIGITS``
    digits, an approximation such as ``~1.00000e-4299``: the value over a
    power of ten near it, from the logarithms of its numerator and
    denominator, rounded to a float.  A message thus stays short, also for
    a value past the interpreter's int-digit limit, which ``str`` refuses.
    The value is positive: a sum or a sum defect."""
    if not isinstance(value, Fraction) or max(value.numerator, value.denominator) < 10**_SHOWN_DIGITS:
        return str(value)
    exponent = math.floor(math.log10(value.numerator) - math.log10(value.denominator))
    mantissa, _, shift = f"{float(value / Fraction(10) ** exponent):.5e}".partition("e")
    return f"~{mantissa}e{exponent + int(shift)}"


def _written(value):
    """An exact value as JSON holds it: an int when whole, else the string "p/q".

    A numerator or denominator with more digits than the interpreter writes
    an int with is a :class:`TooManyDigits`: no file or report could hold it.
    """
    try:
        text = str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise TooManyDigits(f"an exact value has more digits than the {limit}-digit limit of Python ints") from None
    return value.numerator if value.denominator == 1 else text


def _to_json(M, shape):
    """The JSON object of ``M``'s entries as a 2-D array of the given shape.

    Exact mode writes each of ``M.values`` once (:func:`_written`) and
    gathers the results by ``M.codes``.
    """
    a = np.array([_written(v) for v in M.values], dtype=object)[M.codes] if M.mode == EXACT else M.a
    return {"mode": M.mode, "rows": shape[0], "cols": shape[1], "data": a.reshape(shape).tolist()}


def matrix_to_json(M):
    return _to_json(M, M.nums.shape)


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
