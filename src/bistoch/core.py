"""Probability vectors, stochastic matrices and their basic analysis.

Convention used throughout the library: entry ``T[m, n]`` is the transition
probability from source state ``n`` to target state ``m``, so a matrix is
left-stochastic when every *column* sums to one.

Matrices and vectors carry one of two numeric modes.  In ``"exact"`` mode
entries are :class:`fractions.Fraction` objects held in object-dtype numpy
arrays; all comparisons are exact.  Each exact object computes its
Python-int numerators over one common denominator once, at construction
(``nums`` and ``den``, see :class:`_Entries`); sums, comparisons and peels
over a whole object read them, and results become Fractions again only
where they leave the library (:func:`_fractions`).  In ``"float"`` mode
entries are IEEE doubles, an array is its own numerators over ``1.0``, and
comparisons use the tolerances below.  The two modes never mix inside one
object or one operation.

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
    NotSquare,
    NotStochastic,
)

EXACT = "exact"
FLOAT = "float"

# The float tolerance table of the library: every float tolerance in bistoch
# is one of these, apart from the printed-value goldens of the CLI demo.
# Exact mode uses none of them: its comparisons are exact.
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


def _exact_entry(value):
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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
    """Inverse of :func:`_numerators`: the array of Fractions ``nums / L``."""
    return np.array([Fraction(num, L) for num in nums.flat], dtype=object).reshape(nums.shape)


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
    in the pass that checks the entries' signs.  Exact entries stay Fractions
    in ``a`` and also become Python-int numerators ``nums`` over the lcm
    ``den`` of their denominators, so ``a == nums / den``; a float array is
    its own numerators over ``den = 1.0``.  Sums and comparisons over a whole
    object read ``nums`` and ``den`` and never convert ``a`` again.
    """

    def __init__(self, data, mode=None):
        if mode is None:
            floats = (isinstance(v, (float, np.floating)) for v in np.asarray(data, dtype=object).flat)
            mode = FLOAT if any(floats) else EXACT
        if mode == EXACT:
            arr = np.empty(np.shape(data), dtype=object)
            flat = np.asarray(data, dtype=object).flat
            arr.reshape(-1)[:] = [v if isinstance(v, Fraction) else _exact_entry(v) for v in flat]
        elif mode == FLOAT:
            arr = np.array(data, dtype=float)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self._check_shape(arr)
        if mode == FLOAT:
            _raise_first(NonFiniteEntry, arr, ~np.isfinite(arr))
        nums, den = _numerators(arr) if mode == EXACT else (arr, 1.0)
        # den > 0, so an exact entry is negative iff its numerator is
        _raise_first(NegativeEntry, arr, nums < (0 if mode == EXACT else -DEFAULT_TOL))
        self.mode, self.a, self.nums, self.den = mode, arr, nums, den

    def _value(self, num):
        """A sum of numerators as a value: a Fraction over ``den``, or a float."""
        return Fraction(num, self.den) if self.mode == EXACT else float(num)

    def __getitem__(self, idx):
        return self.a[idx]

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return type(self)(self.a.astype(float), mode=FLOAT)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.mode == other.mode and bool(np.array_equal(self.a, other.a))

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

    def __init__(self, entries, mode=None):
        super().__init__(entries, mode)
        total = self.nums.sum()
        if abs(total - self.den) > (0 if self.mode == EXACT else DEFAULT_TOL):
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
        entries = [0] * n
        entries[k] = 1
        return cls(entries, mode=mode)

    @property
    def n(self):
        return self.a.shape[0]

    def is_interior(self):
        """True when every entry is strictly positive."""
        return bool(np.all(self.nums > (0 if self.mode == EXACT else RESIDUAL_TOL)))

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


def _sum_check(M, tol=DEFAULT_TOL):
    """The row and column sums part of :func:`validate`; ``irreducible`` is None.

    Each row and column sum of the numerators of M is compared with their
    denominator: exactly in exact mode, where the defects are Fractions, and
    to ``tol`` in float mode.
    """
    col_defect, row_defect = (M._value(np.max(np.abs(M.nums.sum(axis=axis) - M.den))) for axis in (0, 1))
    limit = 0 if M.mode == EXACT else tol
    left, right = col_defect <= limit, row_defect <= limit
    return StochasticityReport(
        left=left,
        right=right,
        bi=left and right and M.is_square,
        irreducible=None,
        max_column_defect=col_defect,
        max_row_defect=row_defect,
    )


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
    return T.nums > (0 if T.mode == EXACT else RESIDUAL_TOL)


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
    """Stationary law of T on a closed class, zero elsewhere.

    Solves ``(T_C - I) p = 0`` with its last row replaced by ``sum(p) = 1``,
    which is nonsingular on a closed class.  Exact mode runs fraction-free
    Gauss-Jordan elimination (Bareiss) on the integer numerators over their
    common denominator L, ``(t - L I)``, and divides by the determinant it
    leaves on the diagonal once, at the end.  It needs no pivot search: T
    restricted to a proper subset S of the class leaks mass out of S, so
    ``T_S - I`` and every leading minor of the system are nonsingular.
    """
    k = len(members)
    full = np.full(T.rows, Fraction(0) if T.mode == EXACT else 0.0, dtype=T.a.dtype)
    if T.mode == FLOAT:
        system = T.a[np.ix_(members, members)] - np.eye(k)
        system[-1] = 1.0
        sol = np.clip(np.linalg.solve(system, np.eye(k)[-1]), 0.0, None)
        full[members] = sol / sol.sum()
        return full
    t, L = T.nums[np.ix_(members, members)], T.den
    t[np.diag_indices(k)] -= L
    m = np.zeros((k, k + 1), dtype=object)  # [t - L I | 0], last row [1 ... 1 | 1]
    m[:, :k] = t
    m[-1] = 1
    prev = 1
    for c in range(k):
        rest = np.arange(k) != c
        m[rest] = (m[c, c] * m[rest] - m[rest, c][:, None] * m[c]) // prev
        prev = m[c, c]
    full[members] = _fractions(m[:, k], prev)
    return full


def fixed_point(T):
    """A fixed point of T in the simplex plus the fixed-point face structure.

    The fixed-point set of a stochastic matrix is a face of the simplex whose
    dimension is one less than the number of closed communicating classes
    (:func:`_recurrent_classes`).  Each class contributes its stationary law,
    one linear solve (:func:`_class_stationary`); the basis holds their
    differences from the first.  The reported representative is their
    average, which is deterministic and strictly positive on the union of
    the closed classes.
    """
    _require_left_stochastic(T)
    stationaries = [_class_stationary(T, c) for c in _recurrent_classes(T)]
    if T.mode == EXACT:
        rep = sum(stationaries[1:], stationaries[0]) / Fraction(len(stationaries))
    else:
        rep = np.mean(stationaries, axis=0)
    face_dimension = len(stationaries) - 1
    return FixedPointResult(
        representative=ProbVec(rep, mode=T.mode),
        face_dimension=face_dimension,
        is_unique=face_dimension == 0,
        basis=[s - stationaries[0] for s in stationaries[1:]],
    )


def _require_applicable(T, p):
    """Raise unless T acts on p: same mode, matching dimension, left-stochastic T."""
    _require_same_mode(T, p)
    if T.cols != p.n:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix applied to length-{p.n} vector")
    if not _sum_check(T).left:
        raise NotStochastic("matrix is not left-stochastic")


def apply(T, p):
    """The image T.p of a distribution under a left-stochastic matrix."""
    _require_applicable(T, p)
    return ProbVec(T.a @ p.a, mode=T.mode)


def iterate(T, p, steps):
    """Trajectory [p, Tp, ..., T^steps p] plus a convergence flag.

    The flag is true once two consecutive iterates differ by at most
    ``RESIDUAL_TOL`` in the max norm.  T and p are checked once, before the
    first step; ``steps == 0`` checks nothing and returns ``[p]``.  A
    non-square T maps p to a vector of another length, which it cannot act
    on: it takes one step at most, and that step never counts as converged.
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
        nxt = ProbVec(T.a @ current.a, mode=T.mode)
        trajectory.append(nxt)
        if nxt.n == current.n and np.max(np.abs(nxt.a - current.a)) <= RESIDUAL_TOL:
            converged = True
    return trajectory, converged


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"mode": "exact"|"float", "rows": N, "cols": M, "data": [[...]]}
# Exact entries are integers or strings "p/q"; float entries are JSON numbers.
# Vectors are stored with cols = 1.
# ---------------------------------------------------------------------------

def _exact_entry_to_json(v):
    num, den = v.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


def matrix_to_json(M):
    if M.mode == EXACT:
        data = [[_exact_entry_to_json(v) for v in row] for row in M.a]
    else:
        data = [[float(v) for v in row] for row in M.a]
    return {"mode": M.mode, "rows": M.rows, "cols": M.cols, "data": data}


def matrix_from_json(obj):
    mode = obj["mode"]
    data = obj["data"]
    if len(data) != obj["rows"] or any(len(r) != obj["cols"] for r in data):
        raise DimensionMismatch("data shape disagrees with declared rows/cols")
    return StochMatrix(data, mode=mode)


def vector_to_json(p):
    if p.mode == EXACT:
        data = [[_exact_entry_to_json(v)] for v in p.a]
    else:
        data = [[float(v)] for v in p.a]
    return {"mode": p.mode, "rows": p.n, "cols": 1, "data": data}


def vector_from_json(obj):
    if obj["cols"] != 1:
        raise DimensionMismatch("vector JSON must have cols = 1")
    entries = [row[0] for row in obj["data"]]
    if len(entries) != obj["rows"]:
        raise DimensionMismatch("data shape disagrees with declared rows")
    return ProbVec(entries, mode=obj["mode"])
