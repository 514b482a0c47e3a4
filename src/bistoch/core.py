"""Probability vectors, stochastic matrices and their basic analysis.

Convention used throughout the library: entry ``T[m, n]`` is the transition
probability from source state ``n`` to target state ``m``, so a matrix is
left-stochastic when every *column* sums to one.

Matrices and vectors carry one of two numeric modes.  In ``"exact"`` mode
entries are :class:`fractions.Fraction` objects held in object-dtype numpy
arrays; all comparisons are exact.  Sums, comparisons and peels over a whole
exact array run on its Python-int numerators over one common denominator
(:func:`_numerators`), and results become Fractions again only where they
leave the library.  In ``"float"`` mode entries are IEEE doubles and
comparisons use the tolerances below.  The two modes never mix inside one
object or one operation.
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


def _as_array(data, mode):
    if mode == EXACT:
        arr = np.empty(np.shape(data), dtype=object)
        flat_in = np.asarray(data, dtype=object).reshape(-1)
        arr.reshape(-1)[:] = [v if isinstance(v, Fraction) else _exact_entry(v) for v in flat_in]
        return arr
    return np.array(data, dtype=float)


def _infer_mode(data):
    flat = np.asarray(data, dtype=object).reshape(-1)
    if any(isinstance(v, (float, np.floating)) for v in flat):
        return FLOAT
    return EXACT


def _numerators(a):
    """Python-int numerators of an exact array over one common denominator.

    Returns ``(nums, L)`` with L the lcm of the entries' denominators and
    ``a == nums / L`` entrywise; sums and comparisons of ``nums`` are exact.
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


def _check_entries(arr, mode):
    if mode == FLOAT:
        _raise_first(NonFiniteEntry, arr, ~np.isfinite(arr))
    # an exact entry is negative iff its numerator is
    negative = [v.numerator < 0 for v in arr.flat] if mode == EXACT else arr < -DEFAULT_TOL
    _raise_first(NegativeEntry, arr, np.reshape(negative, arr.shape))


class ProbVec:
    """Point of the probability simplex: non-negative entries summing to 1.

    In float mode the sum may miss 1, and an entry may fall below 0, by at
    most ``DEFAULT_TOL``.
    """

    def __init__(self, entries, mode=None):
        if mode is None:
            mode = _infer_mode(entries)
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        arr = _as_array(entries, mode)
        if arr.ndim != 1:
            raise DimensionMismatch("probability vector must be one-dimensional")
        _check_entries(arr, mode)
        total = arr.sum()
        if mode == EXACT:
            if total != 1:
                raise NotStochastic(f"entries sum to {total}, expected 1")
        elif abs(total - 1.0) > DEFAULT_TOL:
            raise NotStochastic(f"entries sum to {total}, expected 1")
        self.mode = mode
        self.a = arr

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
        if self.mode == EXACT:
            return all(v > 0 for v in self.a)
        return bool(np.all(self.a > RESIDUAL_TOL))

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return ProbVec(np.array([float(v) for v in self.a]), mode=FLOAT)

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        return self.a[k]

    def __eq__(self, other):
        if not isinstance(other, ProbVec):
            return NotImplemented
        return self.mode == other.mode and bool(np.array_equal(self.a, other.a))

    def allclose(self, other, tol=RESIDUAL_TOL):
        if self.n != other.n:
            return False
        d = self.to_float().a - other.to_float().a
        return bool(np.max(np.abs(d)) <= tol)

    def __repr__(self):
        return f"ProbVec({list(self.a)!r}, mode={self.mode!r})"


class StochMatrix:
    """Rectangular non-negative matrix.

    The constructor only enforces non-negative (and, in float mode, finite)
    entries; whether the matrix is left-/right-/bi-stochastic is reported by
    :func:`validate`.
    """

    def __init__(self, data, mode=None):
        if mode is None:
            mode = _infer_mode(data)
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        arr = _as_array(data, mode)
        if arr.ndim != 2:
            raise DimensionMismatch("matrix data must be two-dimensional")
        _check_entries(arr, mode)
        self.mode = mode
        self.a = arr

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

    def __getitem__(self, idx):
        return self.a[idx]

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return StochMatrix(self.a.astype(float), mode=FLOAT)

    def __eq__(self, other):
        if not isinstance(other, StochMatrix):
            return NotImplemented
        return self.mode == other.mode and bool(np.array_equal(self.a, other.a))

    def allclose(self, other, tol=RESIDUAL_TOL):
        if self.a.shape != other.a.shape:
            return False
        d = self.to_float().a - other.to_float().a
        return bool(np.max(np.abs(d)) <= tol)

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


def _sum_check(M, tol=DEFAULT_TOL):
    """The row and column sums part of :func:`validate`; ``irreducible`` is None.

    Exact mode sums the integer numerators over their common denominator L and
    compares each sum with L; the defects go back to Fractions at the end.
    """
    if M.mode == EXACT:
        nums, L = _numerators(M.a)
        col_defect = Fraction(max(abs(s - L) for s in nums.sum(axis=0)), L)
        row_defect = Fraction(max(abs(s - L) for s in nums.sum(axis=1)), L)
        left = col_defect == 0
        right = row_defect == 0
    else:
        col_defect = float(np.max(np.abs(M.a.sum(axis=0) - 1.0)))
        row_defect = float(np.max(np.abs(M.a.sum(axis=1) - 1.0)))
        left = col_defect <= tol
        right = row_defect <= tol
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
    connected support digraph) is computed for a square left-stochastic
    matrix and is False otherwise; only this function and
    :func:`is_irreducible` compute it.
    """
    report = _sum_check(M, tol)
    if M.is_square and report.left:
        report.irreducible = len(_strongly_connected_components(_support_adjacency(M))) == 1
    else:
        report.irreducible = False
    return report


def _support_adjacency(T):
    """Adjacency lists of the digraph with edge n -> m whenever T[m, n] > 0."""
    threshold = 0 if T.mode == EXACT else RESIDUAL_TOL
    return [np.nonzero(T.a[:, k] > threshold)[0].tolist() for k in range(T.rows)]


def _strongly_connected_components(adj):
    """Kosaraju's algorithm, iterative; components in deterministic order."""
    n = len(adj)
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(adj[root]))]
        seen[root] = True
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(adj[v])))
                    advanced = True
                    break
            if not advanced:
                order.append(u)
                stack.pop()
    reverse = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for v in outs:
            reverse[v].append(u)
    assigned = [None] * n
    components = []
    for u in reversed(order):
        if assigned[u] is not None:
            continue
        comp = []
        stack = [u]
        assigned[u] = len(components)
        while stack:
            w = stack.pop()
            comp.append(w)
            for v in reverse[w]:
                if assigned[v] is None:
                    assigned[v] = len(components)
                    stack.append(v)
        components.append(sorted(comp))
    components.sort(key=min)
    return components


def _recurrent_classes(T):
    """Closed communicating classes of the support digraph, sorted by least state."""
    adj = _support_adjacency(T)
    components = _strongly_connected_components(adj)
    index_of = {}
    for ci, comp in enumerate(components):
        for v in comp:
            index_of[v] = ci
    closed = []
    for ci, comp in enumerate(components):
        if all(index_of[v] == ci for u in comp for v in adj[u]):
            closed.append(comp)
    return closed


def is_irreducible(T):
    """True iff the support digraph of T is strongly connected."""
    _require_left_stochastic(T)
    return len(_strongly_connected_components(_support_adjacency(T))) == 1


def _rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_exact(A):
    """Basis of the exact nullspace of an object-dtype Fraction matrix.

    Free variables are taken in increasing column order with value 1, which
    makes the basis deterministic.
    """
    n_rows, n_cols = A.shape
    rref_rows, pivots = _rref([[Fraction(A[i, j]) for j in range(n_cols)] for i in range(n_rows)])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -rref_rows[r][f]
        basis.append(np.array(vec, dtype=object))
    return basis


def _class_stationary_exact(T, members):
    sub = T.a[np.ix_(members, members)] - np.eye(len(members), dtype=int)
    vec = nullspace_exact(sub)[0]
    full = np.full(T.rows, Fraction(0), dtype=object)
    full[members] = vec / sum(vec)
    return full


def _class_stationary_float(T, members):
    k = len(members)
    sub = T.a[np.ix_(members, members)].astype(float) - np.eye(k)
    system = np.vstack([sub, np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    sol = np.clip(sol, 0.0, None)
    sol /= sol.sum()
    full = np.zeros(T.rows)
    full[members] = sol
    return full


def fixed_point(T):
    """A fixed point of T in the simplex plus the fixed-point face structure.

    The fixed-point set of a stochastic matrix is a face of the simplex whose
    dimension is one less than the number of closed communicating classes.
    The reported representative is the average of the per-class stationary
    distributions, which is deterministic and strictly positive on the union
    of the closed classes.
    """
    _require_left_stochastic(T)
    classes = _recurrent_classes(T)
    if T.mode == EXACT:
        stationaries = [_class_stationary_exact(T, c) for c in classes]
        rep = sum(stationaries[1:], stationaries[0]) / Fraction(len(stationaries))
        rep_vec = ProbVec(rep, mode=EXACT)
    else:
        stationaries = [_class_stationary_float(T, c) for c in classes]
        rep = np.mean(stationaries, axis=0)
        rep_vec = ProbVec(rep, mode=FLOAT)
    basis = [s - stationaries[0] for s in stationaries[1:]]
    face_dimension = len(classes) - 1
    return FixedPointResult(
        representative=rep_vec,
        face_dimension=face_dimension,
        is_unique=face_dimension == 0,
        basis=basis,
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
