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
    # 0.0 - s, not -s: a point mass sums to 0.0, whose negation is -0.0; every nonzero s gives exactly -s
    h = 0.0 - np.sum(arr * np.log(np.where(arr > 0, arr, 1.0)), axis=-1)
    return float(h) if h.ndim == 0 else h


def _entropy_gap(Tf, arr):
    """H(T p) - H(p) for a float matrix and a float array on the simplex."""
    return shannon_entropy(Tf @ arr) - shannon_entropy(arr)


def in_decreasing_region(T, p, tol=RESIDUAL_TOL):
    """True iff applying the left-stochastic T does not increase the entropy of p.

    Kept as the membership test the CI's region-scan step and ``demos/entropy_region.py`` use as a reference.
    """
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


#: half the width of the pair of points a round of the boundary search
#: evaluates, under ``BISECTION_TOL / 2`` by far more than rounding: a pair
#: that straddles the boundary leaves a bracket narrower than
#: ``BISECTION_TOL`` (a pair exactly that wide can round to one an ulp wider,
#: in which no further pair fits), and a midpoint pair lies strictly inside
#: any bracket still open
_PAIR_HALF_WIDTH = 0.45 * BISECTION_TOL


def region_boundary_scan(T, anchor, directions, resolution=64):
    """Locate the boundary of the entropy-decreasing region along rays.

    For each direction point q the segment p(t) = (1-t) anchor + t q is
    sampled at the ``resolution + 1`` points t = k / resolution, for a
    positive integer ``resolution`` (``ValueError`` otherwise).  The grids of
    all rays are evaluated together, in one stacked entropy evaluation, and
    each ray's grid is returned as its ``samples``.  A ray exits at its
    first sample with k >= 1 outside the region; its bracket [lo, hi] is
    that grid cell, with lo inside and hi outside.

    The exited rays then search their brackets together, one stacked
    entropy evaluation per round, each on its own until ``hi - lo <=
    BISECTION_TOL``: a ray takes the same rounds, and gets the same result,
    as searched alone.  A round evaluates the pair x -+ ``_PAIR_HALF_WIDTH``
    (a little under ``BISECTION_TOL / 2``).  x is the secant root through the
    ray's secant pair and its gaps ``H(T p) - H(p) - RESIDUAL_TOL``, or the
    bracket midpoint when that root leaves the bracket or the last round
    did not halve it.  The secant pair is the grid cell's ends at first,
    then each evaluated pair whose upper point's gap is no larger in
    magnitude, so a midpoint round does not throw away a secant pair that
    lies closer to the boundary.  Each pair point inside the bracket moves
    lo when inside the region and hi otherwise: a pair that straddles the
    boundary closes the bracket, and a midpoint round always halves it, so
    a ray takes at most two rounds per halving (48 from a grid of 64), and
    the secant closes it in a few (2-6 on the benchmark's dense inputs).
    lo is returned as ``t``.  Rays that never leave the region return their
    endpoint with ``full_segment_inside`` set.

    ``directions`` is read once, and each is checked before any ray is
    sampled: a ProbVec, or an array read as a float ``ProbVec`` of length n
    (``DimensionMismatch`` for another length, and the ProbVec errors for
    entries off the simplex).  T must be square and left-stochastic
    (``NotStochastic`` otherwise).

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
        Q.append(qf if isinstance(q, ProbVec) else ProbVec(qf, mode=FLOAT).a)
    Q = np.array(Q, dtype=float).reshape(len(Q), n)

    def gaps(P):
        """H(p), H(T p) and the gap H(T p) - H(p) - RESIDUAL_TOL, row by row, of the points in the rows of P."""
        # matmul of a stack of vectors: the same product per row as Tf @ p
        h_p, h_tp = shannon_entropy(P), shannon_entropy((Tf @ P[:, :, None])[:, :, 0])
        return h_p, h_tp, h_tp - h_p - RESIDUAL_TOL

    def segment(t, rays):
        """The points p(t) on the given rays, one per row."""
        return (1.0 - t)[:, None] * a + t[:, None] * Q[rays]

    r, g = len(Q), resolution + 1
    grid = np.arange(g) / resolution
    # (ray, grid point, state) by broadcasting: t q + (1 - t) a, the products and sum of segment()
    P = grid[:, None] * Q[:, None, :]
    P += (1.0 - grid)[:, None] * a
    P = P.reshape(r * g, n)
    h_p, h_tp, f = gaps(P)
    samples = np.column_stack([np.tile(grid, r), P, h_p, h_tp]).reshape(r, g, n + 3)
    f = f.reshape(r, g)
    outside = f[:, 1:] > 0
    exited = outside.any(axis=1)
    k = outside.argmax(axis=1) + 1  # first grid index k >= 1 outside the region, where one is
    t = np.ones(r)  # each ray's lo; a ray that never exits returns t = 1
    rays = np.flatnonzero(exited)
    cell = np.column_stack([k[rays] - 1, k[rays]])
    lo, hi = cell.T / resolution
    # each ray's secant pair, two points (one per column) and their gaps: the grid cell's ends first
    X, F = cell / resolution, f[rays[:, None], cell]
    halved = np.ones(len(rays), dtype=bool)
    while True:
        t[rays] = lo
        still = hi - lo > BISECTION_TOL
        rays, lo, hi, X, F, halved = (v[still] for v in (rays, lo, hi, X, F, halved))
        if not rays.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = X[:, 1] - F[:, 1] * (X[:, 1] - X[:, 0]) / (F[:, 1] - F[:, 0])
        x = np.where(halved & (lo < x) & (x < hi), x, 0.5 * (lo + hi))
        x = np.minimum(np.maximum(x, lo + _PAIR_HALF_WIDTH), hi - _PAIR_HALF_WIDTH)
        pair = np.column_stack([x - _PAIR_HALF_WIDTH, x + _PAIR_HALF_WIDTH])
        f_pair = gaps(segment(pair.ravel(), np.repeat(rays, 2)))[2].reshape(-1, 2)
        width = hi - lo
        for p, fp in zip(pair.T, f_pair.T):
            within = (lo < p) & (p < hi)
            lo, hi = np.where(within & (fp <= 0), p, lo), np.where(within & (fp > 0), p, hi)
        halved = hi - lo <= 0.5 * width
        nearer = np.abs(f_pair[:, 1]) <= np.abs(F[:, 1])
        X[nearer], F[nearer] = pair[nearer], f_pair[nearer]
    points = segment(t, slice(None))
    h_p, h_tp, _ = gaps(points)
    return [
        BoundaryPoint(
            t=float(t[i]),
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

    def defects(self):
        """The check of the ledger as ``(defect, tol)``: the bi-stochastic step
        does not lower the entropy of the whole, up to round-off
        (``evolved_not_below_lifted``)."""
        return {"evolved_not_below_lifted": (max(0.0, self.h_lifted - self.h_evolved), RESIDUAL_TOL)}


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
    arrays' ``tolist()`` (a float weight is a Python float); the arrays are
    what the decomposition is.

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
        return [(w, tuple(sigma)) for w, sigma in zip(self.weights.tolist(), self.perms.tolist())]

    def weight_sum(self):
        """The sum of the weights: added in term order in float mode, one
        sum of numerators in exact mode."""
        if self.nums is None:
            return sum(self.weights.tolist())
        return Fraction(sum(self.nums), self.den)

    def defects(self, S):
        """The checks of a decomposition of S, each as ``(defect, tol)``: the
        largest entry of ``|reconstruct() - S|`` (``reconstruction``) and the
        weights' sum defect (``weights_sum_to_one``), exact in exact mode.  In
        float mode both allow the ``residual_mass`` peeling left, and the
        weights also carry S's largest column defect: ``sum(w) = colsum(S) -
        colsum(residual)``."""
        tol = core._tol(S, self.residual_mass + RESIDUAL_TOL)
        weights_tol = core._tol(S, self.residual_mass + core._sum_check(S).max_column_defect + RESIDUAL_TOL)
        return {"reconstruction": (core._max_difference(self.reconstruct(mode=S.mode), S), tol),
                "weights_sum_to_one": (abs(self.weight_sum() - 1), weights_tol)}

    def reconstruct(self, mode=FLOAT):
        """The sum of the weighted permutation matrices.

        Term j adds its weight at the flat indices ``perms[j] * n + c``, all
        terms in one ``np.bincount`` in float mode and one unbuffered
        ``np.add.at`` in exact mode: either way each entry receives its
        weights in term order, as a term-by-term loop adds them.  Exact mode,
        for an exact decomposition, adds the numerators over ``den``, on
        int64 when ``den`` fits (every sum is at most the weights' sum,
        ``den``), and makes no ``Fraction`` (:meth:`StochMatrix._from_nums`).
        """
        n = self.n
        flat = (self.perms * n + np.arange(n)).reshape(-1)
        if mode != EXACT:
            # bincount of no terms gives int zeros
            total = np.bincount(flat, np.repeat(self.weights.astype(float), n), n * n).astype(float, copy=False)
            return StochMatrix._from_nums(total.reshape(n, n), 1.0)
        nums = self.nums.astype(np.int64 if self.den < core._INT64_LIMIT else object)
        total = np.zeros(n * n, dtype=nums.dtype)
        np.add.at(total, flat, np.repeat(nums, n))
        return StochMatrix._from_nums(total.reshape(n, n), self.den)


def _augment(adjacency, match_row, match_col, flat, val, n, c):
    """Match column c by a shortest augmenting path, searched breadth first.

    ``adjacency[c]`` lists the rows of column c's support in increasing
    order; ``match_row[r]`` is the column matched to row r and
    ``match_col[c]`` the row matched to column c, each None when unmatched.
    c is unmatched.  Columns are searched in FIFO order, each trying its
    rows in increasing order, so matching columns 0, 1, ... from an empty
    matching is deterministic; ``parent`` maps each row reached to the
    column that reached it, and the path is flipped from the free row found
    back to c (:func:`_flip`).

    The first two levels need no ``parent`` map to find the same path.  The
    search ends at the first free row it reaches, so every row it marked
    visited before then is matched: skipping a visited row never skips a
    free one, and the visited map only keeps a column from being queued
    twice, which changes nothing before the third level (the columns
    ``match_row[r]`` of distinct rows r are distinct).  So the search ends
    at the first free row of ``adjacency[c]``, else at the first free row,
    in adjacency order, of the first column ``match_row[r]``, taking r in
    ``adjacency[c]`` order, that has one.  Those two levels are scanned
    directly and their path, of one or two edges, is written into the
    matching in place, as :func:`_flip` would write it; only when both fail
    does the search run with its map, from c, to a path of length 3 or more.

    Matched residuals live in ``val``: a column u that leaves row r writes
    ``val[u]`` back to ``flat[r * n + u]``, and one that enters row r reads
    ``val[u]`` from there.  Returns False, with the matching unchanged, when
    no augmenting path exists.
    """
    rows = adjacency[c]
    for r in rows:  # level 1: c takes the free row r
        if match_row[r] is None:
            match_row[r], match_col[c], val[c] = c, r, flat[r * n + c]
            return True
    for left in rows:  # level 2: u leaves row left for the free row r, and c takes row left
        u = match_row[left]
        for r in adjacency[u]:
            if match_row[r] is None:
                flat[left * n + u] = val[u]
                match_row[r], match_col[u], val[u] = u, r, flat[r * n + u]
                match_row[left], match_col[c], val[c] = c, left, flat[left * n + c]
                return True
    parent = {}  # the search with its map, from c
    queue = [c]
    for u in queue:  # a FIFO queue: the loop also reaches the columns appended
        for r in adjacency[u]:
            if r in parent:
                continue
            parent[r] = u
            if match_row[r] is None:
                return _flip(parent, r, match_row, match_col, flat, val, n)
            queue.append(match_row[r])
    return False


def _flip(parent, r, match_row, match_col, flat, val, n):
    """Flip the augmenting path that ends at free row r, following ``parent``
    from r back to its unmatched column; returns True."""
    while r is not None:
        u = parent[r]
        left = match_col[u]
        if left is not None:
            flat[left * n + u] = val[u]
        match_row[r], match_col[u] = u, r
        val[u] = flat[r * n + u]
        r = left
    return True


def birkhoff_decompose(S, tol=DEFAULT_TOL):
    """Greedy peeling of a bi-stochastic matrix into permutation matrices.

    Repeatedly takes a perfect matching on the positive-support bipartite
    graph, removes the minimum matched entry times that permutation and
    continues on the residual.  The support graph is built once, from one
    ``nonzero`` of the transposed residual split by per-column counts, and
    the matching is kept from one peel to the next: a peel removes only the
    matched edges it empties, and only their columns are matched again, by
    a shortest augmenting path (:func:`_augment`).  The first term is the
    matching of columns 0, 1, ... in turn from an empty matching.  On a
    dense residual a re-matched column almost always finds a free row in
    its own support or one matched column away; a breadth-first search
    stops at the first free row it reaches and never marks a free row
    visited before that, so :func:`_augment` scans those two levels in
    order with no visited map, and only longer paths pay for one.  The
    residual of each column's matched entry is held in one length-n array
    ``val``, so a peel is one ``argmin``, one subtract and one compare on
    it (the minimum is read as ``val[val.argmin()]``: the value a ``min``
    reduction gives, in every dtype, for less call overhead); the
    residual matrix is written only when a column leaves its row, and the
    matched values go back into it once, at the end.  Each term appends the
    column-to-row list ``match_col`` to one flat list and its weight, as
    peeled, to another; both are stacked into the arrays of
    :class:`BirkhoffDecomposition` once, at the end.
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
    resid = S.nums.copy()
    flat = resid.reshape(-1)  # a view: the residual read and written through flat indices
    threshold = core._tol(S, RESIDUAL_TOL)
    support = resid.T > threshold  # support[c, r]: the support of column c
    rows = support.nonzero()[1].tolist()  # each column's rows in increasing order, column after column
    ends = np.cumsum(support.sum(axis=1)).tolist()
    adjacency = [rows[start:end] for start, end in zip([0, *ends], ends)]
    edges = len(rows)
    match_row, match_col = [None] * n, [None] * n
    val = np.empty(n, dtype=resid.dtype)  # val[c]: the residual at (match_col[c], c)
    unmatched = range(n)
    entries, peeled = [], []  # the terms' permutations, one after another, and their weights
    # edges only disappear, so the support is empty exactly when resid <= threshold
    while edges:
        for c in unmatched:
            if not _augment(adjacency, match_row, match_col, flat, val, n, c):
                break
        else:
            w = val[val.argmin()]
            val -= w
            peeled.append(w)
            entries += match_col
            unmatched = (val <= threshold).nonzero()[0].tolist()
            for c in unmatched:
                r = match_col[c]
                flat[r * n + c] = val[c]
                adjacency[c].remove(r)
                match_row[r] = match_col[c] = None
            edges -= len(unmatched)
            continue
        break  # a column with no augmenting path: the residual support has no perfect matching
    matched = [c for c in range(n) if match_col[c] is not None]
    flat[[match_col[c] * n + c for c in matched]] = val[matched]
    residual_mass = S._value(max(resid.sum(axis=0).max(), resid.sum(axis=1).max()))
    delta = max(report.max_column_defect, report.max_row_defect)
    if residual_mass > core._tol(S, 2 * n * delta + n * n * RESIDUAL_TOL):
        raise NoPerfectMatching(f"residual of mass {residual_mass} has no perfect matching on its support")
    perms = np.array(entries, dtype=np.intp).reshape(-1, n)
    if S.mode != EXACT:
        return BirkhoffDecomposition(n=n, perms=perms, weights=np.array(peeled, dtype=np.float64),
                                     residual_mass=residual_mass)
    nums = [int(w) for w in peeled]
    return BirkhoffDecomposition(n=n, perms=perms, weights=np.array([Fraction(w, S.den) for w in nums], dtype=object),
                                 residual_mass=residual_mass, nums=np.array(nums, dtype=object), den=S.den)
