"""Shannon entropy, the entropy-decreasing region of a stochastic matrix,
the entropy ledger of an environmental dilation, and Birkhoff-von Neumann
decomposition of bi-stochastic matrices.

Entropies use the natural logarithm and are always computed in floating
point, also for exact-mode inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import core
from .core import BISECTION_TOL, DEFAULT_TOL, EXACT, FLOAT, RESIDUAL_TOL, ProbVec, StochMatrix
from .errors import (
    AnchorOutsideRegion,
    DimensionMismatch,
    DimensionTooSmall,
    NoPerfectMatching,
    NotStochastic,
)


def shannon_entropy(p):
    """H(p) = -sum p_k ln p_k in nats, with 0 ln 0 = 0.

    ``p`` is a ProbVec or an array; an array of several rows gives the
    entropy of each row along the last axis.
    """
    arr = p.to_float().a if isinstance(p, ProbVec) else np.asarray(p, dtype=float)
    h = -np.sum(arr * np.log(np.where(arr > 0, arr, 1.0)), axis=-1)
    return float(h) if h.ndim == 0 else h


def _entropy_gap(Tf, arr):
    """H(T p) - H(p) for a float matrix and a float array on the simplex."""
    return shannon_entropy(Tf @ arr) - shannon_entropy(arr)


def in_decreasing_region(T, p, tol=RESIDUAL_TOL):
    """True iff applying the left-stochastic T does not increase the entropy of p."""
    if T.cols != (p.n if isinstance(p, ProbVec) else len(p)):
        raise DimensionMismatch("matrix and vector dimensions disagree")
    if not core._sum_check(T).left:
        raise NotStochastic("matrix is not left-stochastic")
    arr = p.to_float().a if isinstance(p, ProbVec) else np.asarray(p, dtype=float)
    return _entropy_gap(T.to_float().a, arr) <= tol


@dataclass
class BoundaryPoint:
    """One ray of a boundary scan: last parameter still inside the region.

    ``samples`` holds the ray's grid, one row ``t, p(t)..., H(p(t)), H(T p(t))``
    per grid point.
    """

    t: float
    point: np.ndarray
    h_p: float
    h_tp: float
    full_segment_inside: bool
    samples: np.ndarray


def region_boundary_scan(T, anchor, directions, resolution=64):
    """Locate the boundary of the entropy-decreasing region along rays.

    For each direction point q the segment p(t) = (1-t) anchor + t q is
    sampled at the ``resolution + 1`` points t = k / resolution, for a
    positive integer ``resolution`` (``ValueError`` otherwise).  The grids of
    all rays are evaluated together, in one stacked entropy evaluation, and
    each ray's grid is returned as its ``samples``.  A ray exits at its
    first sample with k >= 1 outside the region.  The exited rays are then
    bisected together, one stacked entropy evaluation per step, each
    refining its last inside parameter on its own to
    ``BISECTION_TOL``: a ray stops when its own bracket is that narrow, so
    it takes the same steps, and gets the same result, as bisected alone.
    Rays that never leave the region return their endpoint with
    ``full_segment_inside`` set.  ``directions`` is read once, and each is
    checked before any ray is sampled.  T must be square and
    left-stochastic (``NotStochastic`` otherwise).

    The anchor a is accepted when ``H(T a) - H(a) <= RESIDUAL_TOL + delta *
    max(1, ln n)``, with delta the largest column-sum defect of T: the
    defect a matrix accepted by :func:`core.validate` may carry must not
    move its anchor out of the region.  Derivation: q = T a has mass
    s = sum_k colsum_k a_k, so |s - 1| <= delta.  With q' = q / s,
    H(q) = s H(q') - s ln s, hence H(q) - H(q') = (s - 1) H(q') - s ln s.
    If s >= 1 this is at most delta ln n (H(q') <= ln n, s ln s >= 0); if
    s < 1 it is at most -s ln s <= 1 - s <= delta (ln s >= 1 - 1/s).  So
    whenever the normalised image passes, ``H(q') - H(a) <= RESIDUAL_TOL``,
    the raw image passes the bound above.
    """
    if not isinstance(resolution, numbers.Integral) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, not {resolution!r}")
    n = anchor.n
    if not T.is_square or n != T.rows:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix with length-{n} anchor")
    Tf = T.to_float().a
    a = anchor.to_float().a
    delta = float(core._require_left_stochastic(T).max_column_defect)
    if _entropy_gap(Tf, a) > RESIDUAL_TOL + delta * max(1.0, math.log(n)):
        raise AnchorOutsideRegion("anchor must lie in the entropy-decreasing region")
    Q = []
    for q in directions:
        qf = q.to_float().a if isinstance(q, ProbVec) else np.asarray(q, dtype=float)
        if qf.shape != (n,):
            raise DimensionMismatch(f"length-{n} anchor with direction of shape {qf.shape}")
        Q.append(qf)
    Q = np.array(Q, dtype=float).reshape(len(Q), n)

    def entropies(t, rays):
        """Points p(t) on the given rays, one per row, with H(p) and H(T p) row by row."""
        P = (1.0 - t)[:, None] * a + t[:, None] * Q[rays]
        # matmul of a stack of vectors: the same product per row as Tf @ p
        return P, shannon_entropy(P), shannon_entropy((Tf @ P[:, :, None])[:, :, 0])

    r, g = len(Q), resolution + 1
    t = np.tile(np.arange(g) / resolution, r)  # row i * g + k: ray i at t = k / resolution
    P, h_p, h_tp = entropies(t, np.repeat(np.arange(r), g))
    samples = np.column_stack([t, P, h_p, h_tp]).reshape(r, g, n + 3)
    outside = (h_tp - h_p > RESIDUAL_TOL).reshape(r, g)[:, 1:]
    exited = outside.any(axis=1)
    exit_k = outside.argmax(axis=1) + 1  # first grid index k >= 1 outside the region, where one is
    # a ray that never exits gets lo = hi = 1: its bracket is closed from the start
    lo = np.where(exited, (exit_k - 1) / resolution, 1.0)
    hi = np.where(exited, exit_k / resolution, 1.0)
    while (active := np.flatnonzero(hi - lo > BISECTION_TOL)).size:
        mid = 0.5 * (lo[active] + hi[active])
        _, h_p, h_tp = entropies(mid, active)
        inside = h_tp - h_p <= RESIDUAL_TOL
        lo[active[inside]] = mid[inside]
        hi[active[~inside]] = mid[~inside]
    points, h_p, h_tp = entropies(lo, slice(None))
    return [
        BoundaryPoint(
            t=float(lo[i]),
            point=points[i],
            h_p=float(h_p[i]),
            h_tp=float(h_tp[i]),
            full_segment_inside=not exited[i],
            samples=samples[i],
        )
        for i in range(len(Q))
    ]


@dataclass
class EntropyLedger:
    """Entropy bookkeeping of one step through an environmental dilation."""

    h_input: float
    h_lifted: float
    h_evolved: float
    h_marginal_1: float
    h_marginal_2: float
    h_output: float
    marginal_1: ProbVec
    marginal_2: ProbVec


def entropy_ledger(T, p):
    """Track entropy through the noisy dilation of T applied to p.

    The composite system starts in ``p (x) delta_0``, evolves under the
    bi-stochastic dilation matrix, and is then reduced to its two marginals.
    Only the delta block of the dilation meets ``p (x) delta_0``, so the
    evolved state is ``T[m,i] p[i]`` at composite state (m, i), flat index
    ``i*N + m``; the matrix itself is never built.
    """
    core._require_left_stochastic(T)
    n = T.rows
    if n < 2:
        raise DimensionTooSmall("the noisy construction needs N >= 2")
    if p.n != n:
        raise DimensionMismatch(f"{n}x{n} matrix and length-{p.n} vector")
    pf = p.to_float().a
    # the copy made by reshape is C-contiguous, so the marginal sums below
    # add in the same order as sums over the N^2-vector R (p (x) delta_0)
    evolved = (T.to_float().a * pf).T.reshape(-1)
    by_env = evolved.reshape(n, n)
    marginal_1 = ProbVec(by_env.sum(axis=0), mode=FLOAT)
    marginal_2 = ProbVec(by_env.sum(axis=1), mode=FLOAT)
    # p (x) delta_0: p in the states flat(m, 0) = m, zeros elsewhere
    lifted = np.zeros(n * n)
    lifted[:n] = pf
    h_marginal_1 = shannon_entropy(marginal_1)
    return EntropyLedger(
        h_input=shannon_entropy(pf),
        h_lifted=shannon_entropy(lifted),
        h_evolved=shannon_entropy(evolved),
        h_marginal_1=h_marginal_1,
        h_marginal_2=shannon_entropy(marginal_2),
        h_output=h_marginal_1,
        marginal_1=marginal_1,
        marginal_2=marginal_2,
    )


@dataclass(eq=False)  # array fields have no single truth value, so no field-wise ==
class BirkhoffDecomposition:
    """Convex combination of permutations, held as arrays: row j of the k x n
    int array ``perms`` is sigma_j, with the permutation matrix
    P[sigma_j[c], c] = 1, and ``weights[j]`` is its weight, float64 in float
    mode and a ``Fraction`` in exact mode.  ``terms`` reads the same terms
    as a list of ``(weight, tuple(sigma))`` pairs, built once from the
    arrays; the arrays are what the decomposition is.

    ``residual_mass`` is the largest row or column sum of what peeling left
    of the input.  It is 0 in exact mode; in float mode it bounds, up to
    round-off, every entry of ``input - reconstruct()``.

    An exact decomposition also keeps the weights as peeling found them:
    Python-int numerators ``nums`` over the input's denominator ``den``,
    with ``weights == nums / den``.  A float one has ``nums = None``.
    """

    n: int
    perms: np.ndarray
    weights: np.ndarray
    residual_mass: object
    nums: np.ndarray = None
    den: int = 1

    @cached_property
    def terms(self):
        return [(w, tuple(sigma)) for w, sigma in zip(self.weights, self.perms.tolist())]

    def weight_sum(self):
        """The sum of the weights: added in term order in float mode, one
        sum of numerators in exact mode."""
        if self.nums is None:
            return sum(self.weights.tolist())
        return Fraction(sum(self.nums), self.den)

    def reconstruct(self, mode=FLOAT):
        """The sum of the weighted permutation matrices.

        Term j adds its weight at the flat indices ``perms[j] * n + c``, all
        terms in one unbuffered ``np.add.at``: each entry receives its
        weights in term order, as a term-by-term loop adds them.  Exact mode,
        for an exact decomposition, adds the numerators over ``den``, on
        int64 when ``den`` fits (every sum is at most the weights' sum,
        ``den``), and makes one ``Fraction`` per distinct sum.
        """
        n = self.n
        if mode == EXACT:
            nums, den = self.nums.astype(np.int64 if self.den < core._INT64_LIMIT else object), self.den
        else:
            nums, den = self.weights.astype(float), 1.0
        total = np.zeros(n * n, dtype=nums.dtype)
        np.add.at(total, (self.perms * n + np.arange(n)).reshape(-1), np.repeat(nums, n))
        return StochMatrix._from_nums(total.reshape(n, n), den)


def _augment(adjacency, match_row, c):
    """Match column c by one augmenting path, searched depth first.

    ``adjacency[c]`` lists the rows of column c's support in increasing
    order and ``match_row[r]`` is the column matched to row r, or None.
    Rows are tried in increasing index order, so matching columns 0, 1, ...
    from an empty matching is deterministic.  The search keeps its path on
    an explicit stack, so the path length meets no recursion limit.
    Returns False, with ``match_row`` unchanged, when no augmenting path
    exists.
    """
    visited = [False] * len(match_row)
    path = [(None, c, iter(adjacency[c]))]  # (row it was entered by, column, rows not yet tried)
    while path:
        for r in path[-1][2]:
            if not visited[r]:
                break
        else:
            path.pop()
            continue
        if match_row[r] is None:
            for entered_by, col, _ in reversed(path):
                match_row[r] = col
                r = entered_by
            return True
        visited[r] = True
        path.append((r, match_row[r], iter(adjacency[match_row[r]])))
    return False


def birkhoff_decompose(S, tol=DEFAULT_TOL):
    """Greedy peeling of a bi-stochastic matrix into permutation matrices.

    Repeatedly takes a perfect matching on the positive-support bipartite
    graph, removes the minimum matched entry times that permutation and
    continues on the residual.  The support graph is built once and the
    matching is kept from one peel to the next: a peel removes only the
    matched edges it empties, and only their columns are matched again, by
    an iterative augmenting-path search (:func:`_augment`).  The first term
    is the matching of columns 0, 1, ... in turn from an empty matching.
    Each peel reads and writes the residual at the flat indices
    ``sigma * n + c``: one gather, one min and one scatter.  The terms are
    stacked into the arrays of :class:`BirkhoffDecomposition` once, at the
    end.
    Exact mode peels the integer numerators of S over their common
    denominator L to a residual of exactly zero, in their own dtype (a peel
    only subtracts, so int64 numerators never overflow), and returns each
    weight w as ``Fraction(w, L)`` with a Python-int numerator.  Float mode
    treats entries up to ``RESIDUAL_TOL`` as zero and also stops when the
    residual support has no perfect matching: an input accepted at row and
    column defect delta can leave such a residual.  By Hall's theorem its
    mass is at most ``2*n*delta + n*n*RESIDUAL_TOL``;
    :class:`NoPerfectMatching` is raised only past that bound.  The mass
    left is returned as ``residual_mass``.
    """
    report = core._require_bistochastic(S, tol)
    n = S.rows
    exact = S.mode == EXACT
    resid = S.nums.copy()
    flat = resid.reshape(-1)  # a view: the residual read and written through flat indices
    threshold = core._tol(S, RESIDUAL_TOL)
    cols = np.arange(n)
    adjacency = [np.flatnonzero(col > threshold).tolist() for col in resid.T]
    edges = sum(map(len, adjacency))
    match_row = [None] * n
    unmatched = range(n)
    sigma = np.empty(n, dtype=np.intp)
    terms = []
    # edges only disappear, so the support is empty exactly when resid <= threshold
    while edges and all(_augment(adjacency, match_row, c) for c in unmatched):
        sigma[match_row] = cols  # the column-to-row inverse of match_row
        idx = sigma * n + cols  # sigma is a permutation: no index repeats
        entries = flat[idx]
        w = entries.min()
        flat[idx] = entries = entries - w
        terms.append((w, idx))
        unmatched = (entries <= threshold).nonzero()[0].tolist()
        for c in unmatched:  # the row as a Python int, which list.remove compares fast
            adjacency[c].remove(r := int(sigma[c]))
            match_row[r] = None
        edges -= len(unmatched)
    residual_mass = S._value(max(resid.sum(axis=0).max(), resid.sum(axis=1).max()))
    delta = max(report.max_column_defect, report.max_row_defect)
    if residual_mass > core._tol(S, 2 * n * delta + n * n * RESIDUAL_TOL):
        raise NoPerfectMatching(f"residual of mass {residual_mass} has no perfect matching on its support")
    perms = np.array([idx for _, idx in terms], dtype=np.intp).reshape(-1, n) // n
    weights = np.array([S._value(w) for w, _ in terms])
    nums, den = (np.array([int(w) for w, _ in terms], dtype=object), S.den) if exact else (None, 1)
    return BirkhoffDecomposition(n=n, perms=perms, weights=weights, residual_mass=residual_mass, nums=nums, den=den)
