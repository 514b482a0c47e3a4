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
from .core import EXACT, FLOAT, ProbVec, StochMatrix
from .errors import (
    AnchorOutsideRegion,
    DimensionMismatch,
    DimensionTooSmall,
    NoPerfectMatching,
    NotBiStochastic,
)

#: slack used when testing membership of the entropy-decreasing region
REGION_TOL = 1e-12
#: parameter tolerance of the boundary bisection
BISECTION_TOL = 1e-9


def shannon_entropy(p):
    """H(p) = -sum p_k ln p_k over the positive entries, in nats."""
    arr = p.to_float().a if isinstance(p, ProbVec) else np.asarray(p, dtype=float)
    positive = arr[arr > 0]
    return float(-np.sum(positive * np.log(positive)))


def _entropy_gap(Tf, arr):
    """H(T p) - H(p) for a float matrix and a float array on the simplex."""
    return shannon_entropy(Tf @ arr) - shannon_entropy(arr)


def in_decreasing_region(T, p, tol=REGION_TOL):
    """True iff applying T does not increase the entropy of p."""
    if T.cols != (p.n if isinstance(p, ProbVec) else len(p)):
        raise DimensionMismatch("matrix and vector dimensions disagree")
    arr = p.to_float().a if isinstance(p, ProbVec) else np.asarray(p, dtype=float)
    return _entropy_gap(T.to_float().a, arr) <= tol


@dataclass
class BoundaryPoint:
    """One ray of a boundary scan: last parameter still inside the region."""

    t: float
    point: np.ndarray
    h_p: float
    h_tp: float
    full_segment_inside: bool


def region_boundary_scan(T, anchor, directions, resolution=64):
    """Locate the boundary of the entropy-decreasing region along rays.

    For each direction point q the segment p(t) = (1-t) anchor + t q is
    sampled at ``resolution + 1`` points; at the first sample leaving the
    region, bisection refines the last inside parameter to ``BISECTION_TOL``.
    Rays that never leave the region return their endpoint with
    ``full_segment_inside`` set.
    """
    Tf = T.to_float().a
    a = anchor.to_float().a
    if _entropy_gap(Tf, a) > REGION_TOL:
        raise AnchorOutsideRegion("anchor must lie in the entropy-decreasing region")
    results = []
    for q in directions:
        qf = q.to_float().a if isinstance(q, ProbVec) else np.asarray(q, dtype=float)
        seg = lambda t: (1.0 - t) * a + t * qf
        exit_k = None
        for k in range(1, resolution + 1):
            if _entropy_gap(Tf, seg(k / resolution)) > REGION_TOL:
                exit_k = k
                break
        if exit_k is None:
            pt = seg(1.0)
            results.append(
                BoundaryPoint(
                    t=1.0,
                    point=pt,
                    h_p=shannon_entropy(pt),
                    h_tp=shannon_entropy(Tf @ pt),
                    full_segment_inside=True,
                )
            )
            continue
        lo, hi = (exit_k - 1) / resolution, exit_k / resolution
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if _entropy_gap(Tf, seg(mid)) <= REGION_TOL:
                lo = mid
            else:
                hi = mid
        pt = seg(lo)
        results.append(
            BoundaryPoint(
                t=lo,
                point=pt,
                h_p=shannon_entropy(pt),
                h_tp=shannon_entropy(Tf @ pt),
                full_segment_inside=False,
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
    h_input = shannon_entropy(pf)
    h_marginal_1 = shannon_entropy(marginal_1)
    return EntropyLedger(
        h_input=h_input,
        # p (x) delta_0 holds the entries of p and zeros
        h_lifted=h_input,
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
    permutation matrix P[sigma[c], c] = 1."""

    n: int
    terms: list

    def weight_sum(self):
        return sum(w for w, _ in self.terms)

    def reconstruct(self, mode=FLOAT):
        if mode == EXACT:
            total = np.full((self.n, self.n), Fraction(0), dtype=object)
        else:
            total = np.zeros((self.n, self.n))
        for w, sigma in self.terms:
            for c, r in enumerate(sigma):
                total[r, c] += w
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


def birkhoff_decompose(S, tol=1e-9):
    """Greedy peeling of a bi-stochastic matrix into permutation matrices.

    Repeatedly finds a perfect matching on the positive-support bipartite
    graph, removes the minimum matched entry times that permutation and
    recurses on the residual.  Exact mode peels to a residual of exactly
    zero; float mode stops once every entry drops below the support
    threshold.
    """
    report = core.validate(S, tol)
    if not report.bi:
        raise NotBiStochastic(
            f"column defect {report.max_column_defect}, row defect {report.max_row_defect}"
        )
    n = S.rows
    exact = S.mode == EXACT
    resid = S.a.copy()
    threshold = 0 if exact else core.SUPPORT_TOL
    terms = []
    while True:
        if max(resid[r, c] for r in range(n) for c in range(n)) <= threshold:
            break
        adjacency = [[r for r in range(n) if resid[r, c] > threshold] for c in range(n)]
        sigma = _perfect_matching(adjacency, n)
        if sigma is None:
            raise NoPerfectMatching("support graph of the residual admits no perfect matching")
        w = min(resid[sigma[c], c] for c in range(n))
        for c in range(n):
            resid[sigma[c], c] -= w
        terms.append((w, tuple(sigma)))
    return BirkhoffDecomposition(n=n, terms=terms)
