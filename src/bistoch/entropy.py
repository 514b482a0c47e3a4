"""Shannon entropy, the entropy-decreasing region of a stochastic matrix,
the entropy ledger of an environmental dilation, and Birkhoff-von Neumann
decomposition of bi-stochastic matrices.

Entropies use the natural logarithm and are always computed in floating
point, also for exact-mode inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core
from .core import BISECTION_TOL, DEFAULT_TOL, EXACT, FLOAT, RESIDUAL_TOL, ProbVec, StochMatrix
from .errors import (
    AnchorOutsideRegion,
    DimensionMismatch,
    DimensionTooSmall,
    NoPerfectMatching,
    NotBiStochastic,
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
    sampled at the ``resolution + 1`` points t = k / resolution, all at once;
    each ray's samples are returned as its ``samples``.  At the first sample
    with k >= 1 leaving the region, bisection refines the last inside
    parameter to ``BISECTION_TOL``.  Rays that never leave the region return
    their endpoint with ``full_segment_inside`` set.  T must be square and
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
    n = anchor.n
    if not T.is_square or n != T.rows:
        raise DimensionMismatch(f"{T.rows}x{T.cols} matrix with length-{n} anchor")
    Tf = T.to_float().a
    a = anchor.to_float().a
    delta = float(core._require_left_stochastic(T).max_column_defect)
    if _entropy_gap(Tf, a) > RESIDUAL_TOL + delta * max(1.0, math.log(n)):
        raise AnchorOutsideRegion("anchor must lie in the entropy-decreasing region")
    grid = np.arange(resolution + 1) / resolution
    results = []
    for q in directions:
        qf = q.to_float().a if isinstance(q, ProbVec) else np.asarray(q, dtype=float)
        if qf.shape != (n,):
            raise DimensionMismatch(f"length-{n} anchor with direction of shape {qf.shape}")
        seg = lambda t: (1.0 - t) * a + t * qf
        P = seg(grid[:, None])
        # matmul of a stack of vectors: the same product per row as Tf @ p
        h_p, h_tp = shannon_entropy(P), shannon_entropy((Tf @ P[:, :, None])[:, :, 0])
        samples = np.column_stack([grid, P, h_p, h_tp])
        exits = np.flatnonzero(h_tp[1:] - h_p[1:] > RESIDUAL_TOL)
        if len(exits):
            k = int(exits[0]) + 1
            lo, hi = (k - 1) / resolution, k / resolution
            while hi - lo > BISECTION_TOL:
                mid = 0.5 * (lo + hi)
                if _entropy_gap(Tf, seg(mid)) <= RESIDUAL_TOL:
                    lo = mid
                else:
                    hi = mid
        else:
            lo = 1.0
        pt = seg(lo)
        results.append(
            BoundaryPoint(
                t=lo,
                point=pt,
                h_p=shannon_entropy(pt),
                h_tp=shannon_entropy(Tf @ pt),
                full_segment_inside=not len(exits),
                samples=samples,
            )
        )
    return results


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


@dataclass
class BirkhoffDecomposition:
    """Convex combination of permutations: terms (weight, sigma) with the
    permutation matrix P[sigma[c], c] = 1.

    ``residual_mass`` is the largest row or column sum of what peeling left
    of the input.  It is 0 in exact mode; in float mode it bounds, up to
    round-off, every entry of ``input - reconstruct()``.
    """

    n: int
    terms: list
    residual_mass: object

    def weight_sum(self):
        return sum(w for w, _ in self.terms)

    def reconstruct(self, mode=FLOAT):
        if mode == EXACT:
            total = np.full((self.n, self.n), Fraction(0), dtype=object)
        else:
            total = np.zeros((self.n, self.n))
        columns = np.arange(self.n)
        for w, sigma in self.terms:
            total[sigma, columns] += w
        return StochMatrix(total, mode=mode)


def _augment(adjacency, match_row, c, visited):
    for r in adjacency[c]:
        if r in visited:
            continue
        visited.add(r)
        if match_row.get(r) is None or _augment(adjacency, match_row, match_row[r], visited):
            match_row[r] = c
            return True
    return False


def _perfect_matching(adjacency, n):
    """Column-to-row perfect matching by augmenting paths.

    Rows are tried in increasing index order, which makes the decomposition
    deterministic.  Returns sigma with sigma[c] the matched row, or None.
    """
    match_row = {}
    for c in range(n):
        if not _augment(adjacency, match_row, c, set()):
            return None
    sigma = [0] * n
    for r, c in match_row.items():
        sigma[c] = r
    return sigma


def birkhoff_decompose(S, tol=DEFAULT_TOL):
    """Greedy peeling of a bi-stochastic matrix into permutation matrices.

    Repeatedly finds a perfect matching on the positive-support bipartite
    graph, removes the minimum matched entry times that permutation and
    recurses on the residual.  Exact mode peels the integer numerators of S
    over their common denominator L to a residual of exactly zero and
    returns each weight w as ``Fraction(w, L)``.  Float mode treats entries
    up to ``RESIDUAL_TOL`` as zero and also stops when the residual support
    has no perfect matching: an input accepted at row and column defect
    delta can leave such a residual.  By Hall's theorem its mass is at most
    ``2*n*delta + n*n*RESIDUAL_TOL``; :class:`NoPerfectMatching` is raised
    only past that bound.  The mass left is returned as ``residual_mass``.
    """
    report = core._sum_check(S, tol)
    if not report.bi:
        raise NotBiStochastic(
            f"column defect {report.max_column_defect}, row defect {report.max_row_defect}"
        )
    n = S.rows
    exact = S.mode == EXACT
    resid, L = S.nums.copy(), S.den
    threshold = 0 if exact else RESIDUAL_TOL
    cols = np.arange(n)
    terms = []
    while resid.max() > threshold:
        adjacency = [np.flatnonzero(col > threshold).tolist() for col in resid.T]
        sigma = _perfect_matching(adjacency, n)
        if sigma is None:
            break
        w = resid[sigma, cols].min()
        resid[sigma, cols] -= w  # sigma is a permutation: no index repeats
        terms.append((w, tuple(sigma)))
    residual_mass = max(resid.sum(axis=0).max(), resid.sum(axis=1).max())
    if exact:
        terms = [(Fraction(w, L), sigma) for w, sigma in terms]
        residual_mass = Fraction(residual_mass, L)
    delta = max(report.max_column_defect, report.max_row_defect)
    if residual_mass > (0 if exact else 2 * n * delta + n * n * RESIDUAL_TOL):
        raise NoPerfectMatching(f"residual of mass {residual_mass} has no perfect matching on its support")
    return BirkhoffDecomposition(n=n, terms=terms, residual_mass=residual_mass)
