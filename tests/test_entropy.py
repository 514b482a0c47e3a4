import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bistoch as bs
from bistoch import EXACT, FLOAT, Partition, ProbVec, StochMatrix
from bistoch.core import BISECTION_TOL, RESIDUAL_TOL
from bistoch.entropy import _PAIR_HALF_WIDTH, BirkhoffDecomposition, BoundaryPoint, EntropyLedger
from bistoch.errors import (
    AnchorOutsideRegion,
    DimensionMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotBiStochastic,
    NotStochastic,
)

from conftest import (
    demon_dilation_expected,
    random_permutation_mixture,
    random_prob_vec_exact,
    random_prob_vec_float,
    random_stochastic_exact,
    random_stochastic_float,
)


# column sums 2, and 0.75: H(T p) of a vector off the simplex is no entropy
# ([[2, 0], [0, 2]] gives -1.386 at the uniform p)
NON_STOCHASTIC = pytest.mark.parametrize(
    "data", [[[2.0, 0.0], [0.0, 2.0]], [[0.5, 0.5], [0.25, 0.25]]], ids=["sum-2", "sum-0.75"]
)


def ledger_through_dilation(T, p):
    """Reference ledger: evolve p (x) delta_0 under the full N^2 x N^2 noisy
    dilation matrix."""
    n = T.rows
    lifted = np.outer(ProbVec.point_mass(n, 0).a, p.to_float().a).reshape(-1)
    evolved = bs.noisy_dilation(T).matrix.to_float().a @ lifted
    by_env = evolved.reshape(n, n)
    marginal_1 = ProbVec(by_env.sum(axis=0), mode=FLOAT)
    marginal_2 = ProbVec(by_env.sum(axis=1), mode=FLOAT)
    return EntropyLedger(
        h_input=bs.shannon_entropy(p),
        h_lifted=bs.shannon_entropy(lifted),
        h_evolved=bs.shannon_entropy(evolved),
        h_marginal_1=bs.shannon_entropy(marginal_1),
        h_marginal_2=bs.shannon_entropy(marginal_2),
        h_output=bs.shannon_entropy(marginal_1),
        marginal_1=marginal_1,
        marginal_2=marginal_2,
    )


def _ray_reference(T, anchor, q, resolution):
    """One ray's grid, exit index (None if it never exits) and segment function, from per-point entropies."""
    Tf, a = T.to_float().a, anchor.to_float().a
    qf = q.to_float().a if isinstance(q, ProbVec) else np.asarray(q, dtype=float)
    seg = lambda t: (1.0 - t) * a + t * qf
    gap = lambda pt: bs.shannon_entropy(Tf @ pt) - bs.shannon_entropy(pt)
    grid = np.arange(resolution + 1) / resolution
    P = seg(grid[:, None])
    h_p, h_tp = bs.shannon_entropy(P), bs.shannon_entropy((Tf @ P[:, :, None])[:, :, 0])
    exits = np.flatnonzero(h_tp[1:] - h_p[1:] > RESIDUAL_TOL)
    samples = np.column_stack([grid, P, h_p, h_tp])
    return samples, (int(exits[0]) + 1 if len(exits) else None), seg, gap


def _boundary_point(T, t, seg, exit_k, samples):
    pt = seg(t)
    Tf = T.to_float().a
    return BoundaryPoint(t, pt, bs.shannon_entropy(pt), bs.shannon_entropy(Tf @ pt), exit_k is None, samples)


def bisection_reference(T, anchor, directions, resolution):
    """Region scan by plain bisection, one ray at a time: the exit point to within BISECTION_TOL."""
    results = []
    for q in directions:
        samples, k, seg, gap = _ray_reference(T, anchor, q, resolution)
        lo = 1.0
        if k is not None:
            lo, hi = (k - 1) / resolution, k / resolution
            while hi - lo > BISECTION_TOL:
                mid = 0.5 * (lo + hi)
                if gap(seg(mid)) <= RESIDUAL_TOL:
                    lo = mid
                else:
                    hi = mid
        results.append(_boundary_point(T, lo, seg, k, samples))
    return results


def secant_reference(T, anchor, directions, resolution, brackets=None):
    """Region scan one ray at a time, one scalar entropy gap per point: the bracketed secant
    search of region_boundary_scan written for a single ray.  Appends each exited ray's final
    (lo, hi, rounds) to ``brackets`` when given."""
    half = _PAIR_HALF_WIDTH
    results = []
    for q in directions:
        samples, k, seg, gap = _ray_reference(T, anchor, q, resolution)
        lo = 1.0
        if k is not None:
            lo, hi = (k - 1) / resolution, k / resolution
            g = samples[:, -1] - samples[:, -2] - RESIDUAL_TOL
            x0, x1, f0, f1 = lo, hi, g[k - 1], g[k]  # the secant pair
            halved, rounds = True, 0
            while hi - lo > BISECTION_TOL:
                x = x1 - f1 * (x1 - x0) / (f1 - f0) if f1 != f0 else math.nan
                if not (halved and lo < x < hi):
                    x = 0.5 * (lo + hi)
                x = min(max(x, lo + half), hi - half)
                p0, p1 = x - half, x + half
                g0, g1 = gap(seg(p0)) - RESIDUAL_TOL, gap(seg(p1)) - RESIDUAL_TOL
                width = hi - lo
                for p, gp in ((p0, g0), (p1, g1)):
                    if lo < p < hi:
                        lo, hi = (p, hi) if gp <= 0 else (lo, p)
                halved = hi - lo <= 0.5 * width
                if abs(g1) <= abs(f1):
                    x0, x1, f0, f1 = p0, p1, g0, g1
                rounds += 1
            if brackets is not None:
                brackets.append((lo, hi, rounds))
        results.append(_boundary_point(T, lo, seg, k, samples))
    return results


def reconstruct_reference(dec, mode):
    """Reference reconstruction: the weighted permutation matrices added one term at a time."""
    total = np.full((dec.n, dec.n), Fraction(0), dtype=object) if mode == EXACT else np.zeros((dec.n, dec.n))
    for w, sigma in dec.terms:
        total[sigma, np.arange(dec.n)] += w
    return total


class TestShannonEntropy:
    def test_uniform_is_log_n(self):
        for n in (2, 3, 4, 16):
            assert bs.shannon_entropy(ProbVec.uniform(n)) == pytest.approx(math.log(n), abs=1e-15)

    def test_point_mass_is_zero(self):
        assert bs.shannon_entropy(ProbVec.point_mass(5, 3, mode=EXACT)) == 0.0

    def test_known_value(self):
        # -2 (3/8 ln 3/8) - 2 (1/8 ln 1/8) computed by hand
        p = ProbVec([Fraction(3, 8), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8)], mode=EXACT)
        expected = -2 * (3 / 8) * math.log(3 / 8) - 2 * (1 / 8) * math.log(1 / 8)
        assert bs.shannon_entropy(p) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(1.25548, abs=1e-4)

    def test_accepts_plain_arrays(self):
        assert bs.shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            h = bs.shannon_entropy(random_prob_vec_float(rng, n))
            assert 0.0 <= h <= math.log(n) + 1e-12


class TestDecreasingRegion:
    def test_uniform_inside_for_demon(self, demon):
        # H(T u) = 1.25548 < ln 4
        assert bs.in_decreasing_region(demon, ProbVec.uniform(4, mode=EXACT))

    def test_vertex_outside_for_demon(self, demon):
        # a spread-out column sends a zero-entropy vertex to positive entropy
        assert not bs.in_decreasing_region(demon, ProbVec.point_mass(4, 1, mode=EXACT))

    def test_fixed_point_on_boundary(self, demon):
        # entropy is exactly preserved on the fixed-point face
        p = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        assert bs.in_decreasing_region(demon, p)

    @NON_STOCHASTIC
    def test_rejects_non_stochastic(self, data):
        with pytest.raises(NotStochastic):
            bs.in_decreasing_region(StochMatrix(data), ProbVec.uniform(2))

    def test_identity_region_is_everything(self):
        rng = np.random.default_rng(72)
        eye = StochMatrix.identity(5)
        for _ in range(20):
            assert bs.in_decreasing_region(eye, random_prob_vec_float(rng, 5))

    def test_bistochastic_region_is_everything(self):
        # entropy never decreases under a doubly stochastic map, so the
        # non-increasing set of its inverse statement: H(Sp) >= H(p) always,
        # hence membership holds only where equality does; the uniform vector
        # qualifies for every S
        rng = np.random.default_rng(73)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            S = random_permutation_mixture(rng, n, mode=FLOAT)
            assert bs.in_decreasing_region(S, ProbVec.uniform(n), tol=1e-9)


class TestEntropyMonotonicity:
    def test_bistochastic_never_decreases_entropy(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            S = random_permutation_mixture(rng, n, mode=FLOAT)
            p = random_prob_vec_float(rng, n)
            assert bs.shannon_entropy(bs.apply(S, p)) >= bs.shannon_entropy(p) - 1e-12

    def test_coarse_graining_never_increases_entropy(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            part = Partition([0, 0, 1, 1, 1])
            X = bs.projection_matrix(part).to_float()
            p = random_prob_vec_float(rng, 5)
            assert bs.shannon_entropy(bs.apply(X, p)) <= bs.shannon_entropy(p) + 1e-12

    def test_coarse_graining_strict_on_spread_classes(self):
        part = Partition([0, 0, 1, 1])
        X = bs.projection_matrix(part).to_float()
        p = ProbVec.uniform(4)
        assert bs.shannon_entropy(bs.apply(X, p)) < bs.shannon_entropy(p) - 0.5
        # but equality when each class holds a single atom
        q = ProbVec([0.25, 0.0, 0.75, 0.0], mode=FLOAT)
        assert bs.shannon_entropy(bs.apply(X, q)) == pytest.approx(bs.shannon_entropy(q), abs=1e-15)


class TestBoundaryScan:
    def test_demon_rays(self, demon):
        anchor = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        directions = [ProbVec.point_mass(4, k, mode=EXACT) for k in range(4)]
        points = bs.region_boundary_scan(demon, anchor, directions)
        assert len(points) == 4
        # rays toward the face endpoints never leave the region
        assert points[0].full_segment_inside and points[3].full_segment_inside
        for bp in (points[1], points[2]):
            assert not bp.full_segment_inside
            assert 0.0 < bp.t < 1.0
            assert abs(bp.h_tp - bp.h_p) <= 1e-7  # entropies agree at the boundary

    def test_boundary_is_tight(self, demon):
        anchor = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        direction = ProbVec.point_mass(4, 1, mode=EXACT)
        (bp,) = bs.region_boundary_scan(demon, anchor, [direction])
        a = anchor.to_float().a
        q = direction.to_float().a
        Tf = demon.to_float().a

        def gap(t):
            pt = (1 - t) * a + t * q
            return bs.shannon_entropy(Tf @ pt) - bs.shannon_entropy(pt)

        assert gap(bp.t) <= 1e-9
        assert gap(min(1.0, bp.t + 1e-6)) > 0.0

    def test_two_state_exits_at_the_closed_form_root(self):
        # For T = [[1-b, a], [b, 1-a]], H(T p) <= H(p) iff |(T p)_0 - 1/2| >= |p_0 - 1/2|.
        # On the ray p_0 = 1/2 + s t / 2 from the uniform anchor toward the
        # point mass at k (s = 1 - 2k), (T p)_0 - 1/2 = c s t / 2 + d with
        # c = 1 - a - b and d = (a - b) / 2.  |c| < 1, so the ray is inside on
        # [0, t*] with t* the positive root of c s t + 2d = +-t:
        # t* = 2|d| / (1 - sign(d) c s), and the scan returns min(t*, 1).
        rng = np.random.default_rng(91)
        checked = exited = 0
        while checked < 40:
            a, b = rng.random(2)
            c, d = 1 - a - b, (a - b) / 2
            roots = [2 * abs(d) / (1 - np.sign(d) * c * s) for s in (1, -1)]
            # away from the tangent cases: a root near 0 (a = b), near t = 1, or |c| near 1
            if abs(c) > 0.9 or any(not (0.05 <= t <= 0.95 or t >= 1.05) for t in roots):
                continue
            T = bs.two_state(a, b, mode=FLOAT)
            points = bs.region_boundary_scan(T, ProbVec.uniform(2), [ProbVec.point_mass(2, k) for k in range(2)])
            for bp, root in zip(points, roots):
                assert bp.full_segment_inside == (root > 1)
                assert abs(bp.t - min(root, 1.0)) <= BISECTION_TOL
                exited += root < 1
            checked += 1
        assert exited >= 20

    def test_identity_full_segments(self):
        eye = StochMatrix.identity(3, mode=EXACT)
        anchor = ProbVec.uniform(3, mode=EXACT)
        points = bs.region_boundary_scan(eye, anchor, [ProbVec.point_mass(3, k, mode=EXACT) for k in range(3)])
        assert all(bp.full_segment_inside and bp.t == 1.0 for bp in points)

    def test_anchor_outside_rejected(self, demon):
        with pytest.raises(AnchorOutsideRegion):
            bs.region_boundary_scan(demon, ProbVec.point_mass(4, 1, mode=EXACT), [ProbVec.uniform(4, mode=EXACT)])

    def test_anchor_allows_input_defect(self):
        # every column sums to 1 + 5e-10, which validate accepts: H(T u) - H(u)
        # is about 2e-10, past RESIDUAL_TOL but within 5e-10 * ln 4
        T = StochMatrix(np.full((4, 4), (1 + 5e-10) / 4))
        u = ProbVec.uniform(4)
        assert bs.validate(T).bi
        assert bs.shannon_entropy(T.a @ u.a) - bs.shannon_entropy(u) > RESIDUAL_TOL
        points = bs.region_boundary_scan(T, u, [ProbVec.point_mass(4, k) for k in range(4)])
        assert len(points) == 4

    def test_anchor_outside_rejected_despite_defect(self, demon_float):
        T = StochMatrix(demon_float.a * (1 + 5e-10))
        with pytest.raises(AnchorOutsideRegion):
            bs.region_boundary_scan(T, ProbVec.point_mass(4, 1), [ProbVec.uniform(4)])

    @NON_STOCHASTIC
    def test_rejects_non_stochastic(self, data):
        with pytest.raises(NotStochastic):
            bs.region_boundary_scan(StochMatrix(data), ProbVec.uniform(2), [ProbVec.point_mass(2, 0)])

    @pytest.mark.parametrize("resolution", [0, -3, 2.5, 1.0, "64", None])
    def test_rejects_resolution_not_a_positive_integer(self, resolution):
        # 0 would give NaN samples that never exit, 2.5 a grid past t = 1
        T = bs.two_state(0.3, 0.6, mode=FLOAT)
        with pytest.raises(ValueError, match="resolution"):
            bs.region_boundary_scan(T, ProbVec.uniform(2), [ProbVec.point_mass(2, 0)], resolution=resolution)

    @pytest.mark.parametrize("resolution", [1, np.int64(3)])
    def test_accepts_integer_resolution(self, demon, resolution):
        anchor = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        (bp,) = bs.region_boundary_scan(demon, anchor, [ProbVec.point_mass(4, 1, mode=EXACT)], resolution=resolution)
        assert bp.samples.shape == (int(resolution) + 1, 7) and not bp.full_segment_inside

    def test_rejects_wrong_length_direction(self):
        T = bs.two_state(0.3, 0.6, mode=FLOAT)
        with pytest.raises(DimensionMismatch):
            bs.region_boundary_scan(T, ProbVec.uniform(2), [np.array([0.2, 0.3, 0.5])])

    @pytest.mark.parametrize(
        "direction, error",
        [([float("nan"), 0.5, 0.5], NonFiniteEntry), ([2.0, -0.5, -0.5], NegativeEntry), ([0.5, 0.5, 0.5], NotStochastic)],
        ids=["nan", "off-simplex", "sum-1.5"],
    )
    def test_rejects_direction_off_the_simplex(self, direction, error):
        # an array direction is read as a float ProbVec: a NaN ray would never
        # exit, and a ray past a vertex leaves the simplex
        T = random_stochastic_float(np.random.default_rng(3), 3)
        with pytest.raises(error):
            bs.region_boundary_scan(T, ProbVec.uniform(3), [ProbVec.point_mass(3, 0), np.array(direction)])

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_samples_are_the_grid(self, demon, n):
        T = demon if n == 4 else random_stochastic_float(np.random.default_rng(n), n)
        directions = [ProbVec.point_mass(n, k) for k in range(n)]
        resolution = 32
        points = bs.region_boundary_scan(T, ProbVec.uniform(n), directions, resolution=resolution)
        Tf = T.to_float().a
        for q, bp in zip(directions, points):
            assert bp.samples.shape == (resolution + 1, n + 3)
            t, P, h_p, h_tp = bp.samples[:, 0], bp.samples[:, 1:-2], bp.samples[:, -2], bp.samples[:, -1]
            assert np.array_equal(t, np.arange(resolution + 1) / resolution)
            assert np.allclose(P, (1 - t)[:, None] / n + t[:, None] * q.a, rtol=0, atol=RESIDUAL_TOL)
            for row, hp, htp in zip(P, h_p, h_tp):
                assert abs(hp - bs.shannon_entropy(row)) <= RESIDUAL_TOL
                assert abs(htp - bs.shannon_entropy(Tf @ row)) <= RESIDUAL_TOL
            exits = np.flatnonzero(h_tp[1:] - h_p[1:] > RESIDUAL_TOL)
            assert bp.full_segment_inside == (len(exits) == 0)
            if len(exits):
                k = exits[0] + 1
                assert (k - 1) / resolution <= bp.t <= k / resolution
            else:
                assert bp.t == 1.0


    @pytest.mark.parametrize("resolution", [64, 37])
    @pytest.mark.parametrize("n", [4, 9, 20])
    def test_matches_per_ray_reference(self, demon, n, resolution):
        # the rays are searched together; every output must be the one-ray-at-a-time result, bit for bit
        rng = np.random.default_rng(1000 + n)
        cases = [(random_stochastic_float(rng, n), ProbVec.uniform(n))]
        if n == 4:
            cases.append((demon, ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)))
        for T, anchor in cases:
            mode = T.mode
            directions = [ProbVec.point_mass(n, k, mode=mode) for k in range(n)]
            directions += [rng.dirichlet(np.ones(n)) for _ in range(4)]
            points = bs.region_boundary_scan(T, anchor, directions, resolution=resolution)
            expected = secant_reference(T, anchor, directions, resolution)
            assert len(points) == len(expected)
            assert any(not bp.full_segment_inside for bp in points)
            oracle = bisection_reference(T, anchor, directions, resolution)
            for bp, ref, bis in zip(points, expected, oracle):
                # plain bisection ends in the same bracket, to BISECTION_TOL
                assert abs(bp.t - bis.t) <= BISECTION_TOL
                assert np.array_equal(bp.samples, bis.samples) and bp.full_segment_inside is bis.full_segment_inside
                assert type(bp.t) is float and type(bp.h_p) is float and type(bp.h_tp) is float
                assert float.hex(bp.t) == float.hex(ref.t)
                assert float.hex(bp.h_p) == float.hex(ref.h_p)
                assert float.hex(bp.h_tp) == float.hex(ref.h_tp)
                assert np.array_equal(bp.point, ref.point)
                assert np.array_equal(bp.samples, ref.samples)
                assert bp.full_segment_inside is ref.full_segment_inside

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(2, 9),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 16, 64]),
        st.sampled_from([0.0, 0.3]),
    )
    def test_search_ends_on_a_closed_bracket(self, n, seed, resolution, zeros):
        # t is in its ray's exit cell and inside the region, and the search that
        # gives it, run alone, ends on a point at most BISECTION_TOL past it outside
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) * (rng.random((n, n)) >= zeros) + 0.01 * np.eye(n)
        T = StochMatrix(a / a.sum(axis=0), mode=FLOAT)
        anchor = bs.fixed_point(T).representative
        directions = [ProbVec.point_mass(n, k) for k in range(n)] + [rng.dirichlet(np.ones(n)) for _ in range(2)]
        points = bs.region_boundary_scan(T, anchor, directions, resolution=resolution)
        brackets = []
        expected = secant_reference(T, anchor, directions, resolution, brackets)
        exited = [(bp, q) for bp, q in zip(points, directions) if not bp.full_segment_inside]
        assert len(exited) == len(brackets)
        for (bp, q), (lo, hi, rounds) in zip(exited, brackets):
            k = int(np.argmax(bp.samples[1:, -1] - bp.samples[1:, -2] > RESIDUAL_TOL)) + 1
            assert bp.t == lo and (k - 1) / resolution <= lo < k / resolution
            assert bs.in_decreasing_region(T, bp.point) and bp.h_tp - bp.h_p <= RESIDUAL_TOL
            assert lo < hi <= lo + BISECTION_TOL and hi <= k / resolution
            assert not bs.in_decreasing_region(T, (1 - hi) * anchor.a + hi * np.asarray(getattr(q, "a", q)))
            # at most two rounds per halving of the exit cell
            assert rounds <= 2 * math.ceil(math.log2(1 / (resolution * BISECTION_TOL)))
        assert [bp.t for bp in points] == [ref.t for ref in expected]

    def test_empty_and_generator_directions(self, demon):
        anchor = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        assert bs.region_boundary_scan(demon, anchor, []) == []
        assert bs.region_boundary_scan(demon, anchor, iter([])) == []
        directions = [ProbVec.point_mass(4, k, mode=EXACT) for k in range(4)]
        from_generator = bs.region_boundary_scan(demon, anchor, (q for q in directions))
        from_list = bs.region_boundary_scan(demon, anchor, directions)
        assert [bp.t for bp in from_generator] == [bp.t for bp in from_list]
        assert len(from_generator) == 4

    def test_bad_direction_raises_before_any_ray(self, demon, monkeypatch):
        # a wrong direction after good ones is refused before any entropy of a ray is taken
        anchor = ProbVec.uniform(4, mode=EXACT)
        calls = []
        monkeypatch.setattr(bs.entropy, "shannon_entropy", lambda p: calls.append(p) or 0.0)
        with pytest.raises(DimensionMismatch):
            bs.region_boundary_scan(demon, anchor, [ProbVec.point_mass(4, 0), np.ones(3) / 3])
        assert len(calls) == 2  # the anchor test's two entropies only


class TestEntropyLedger:
    def test_demon_uniform_golden(self, demon):
        ledger = bs.entropy_ledger(demon, ProbVec.uniform(4, mode=EXACT))
        assert ledger.h_input == pytest.approx(math.log(4), abs=1e-12)
        assert ledger.h_lifted == pytest.approx(math.log(4), abs=1e-12)
        assert ledger.h_evolved == pytest.approx(0.5 * math.log(32), abs=1e-4)
        assert ledger.h_marginal_1 == pytest.approx(1.25548, abs=1e-4)
        assert ledger.h_marginal_1 + ledger.h_marginal_2 == pytest.approx(2.64178, abs=1e-4)
        assert ledger.h_output == ledger.h_marginal_1
        assert ledger.marginal_1.allclose(ProbVec([3 / 8, 1 / 8, 1 / 8, 3 / 8]), tol=1e-15)

    def test_marginal_identities(self):
        rng = np.random.default_rng(76)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            T = random_stochastic_float(rng, n)
            p = random_prob_vec_float(rng, n)
            ledger = bs.entropy_ledger(T, p)
            assert ledger.marginal_1.allclose(bs.apply(T, p), tol=1e-12)

    def test_subadditivity_and_second_law(self):
        # lifted state entropy is preserved as a lower bound: the dilation is
        # bi-stochastic, and marginals can only discard information
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            T = random_stochastic_float(rng, n)
            p = random_prob_vec_float(rng, n)
            ledger = bs.entropy_ledger(T, p)
            assert ledger.h_evolved >= ledger.h_lifted - 1e-12
            assert ledger.h_evolved <= ledger.h_marginal_1 + ledger.h_marginal_2 + 1e-12
            assert ledger.h_lifted == pytest.approx(ledger.h_input, abs=1e-12)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_matches_full_dilation(self, mode):
        rng = np.random.default_rng(78)
        for n in range(2, 9):
            for _ in range(3):
                if mode == EXACT:
                    T, p = random_stochastic_exact(rng, n), random_prob_vec_exact(rng, n)
                else:
                    T, p = random_stochastic_float(rng, n), random_prob_vec_float(rng, n)
                # every field equal, not merely close
                assert bs.entropy_ledger(T, p) == ledger_through_dilation(T, p)

    def test_rejects_wrong_length_vector(self, demon):
        for k in (1, 3, 5):
            with pytest.raises(DimensionMismatch):
                bs.entropy_ledger(demon, ProbVec.uniform(k, mode=EXACT))

    def test_relaxed_input_balances(self, demon):
        # at the long-time limit the system marginal entropy settles at ln 2
        p = ProbVec([0.5, 0.0, 0.0, 0.5], mode=FLOAT)
        ledger = bs.entropy_ledger(demon.to_float(), p)
        assert ledger.h_input == pytest.approx(math.log(2), abs=1e-12)
        assert ledger.h_marginal_1 == pytest.approx(math.log(2), abs=1e-12)


class TestBirkhoff:
    def test_two_state_symmetric(self):
        third = Fraction(1, 3)
        S = StochMatrix([[2 * third, third], [third, 2 * third]], mode=EXACT)
        dec = bs.birkhoff_decompose(S)
        assert sorted(dec.terms) == [(third, (1, 0)), (2 * third, (0, 1))]
        assert dec.weight_sum() == 1
        assert dec.reconstruct(mode=EXACT) == S

    def test_permutation_is_single_term(self):
        P = StochMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]], mode=EXACT)
        dec = bs.birkhoff_decompose(P)
        assert len(dec.terms) == 1 and dec.terms[0][0] == 1

    def test_demon_dilation_exact(self):
        R = demon_dilation_expected(mode=EXACT)
        dec = bs.birkhoff_decompose(R)
        assert dec.weight_sum() == 1
        assert dec.reconstruct(mode=EXACT) == R
        assert len(dec.terms) <= (16 - 1) ** 2 + 1

    def test_random_exact_mixtures(self):
        rng = np.random.default_rng(78)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            S = random_permutation_mixture(rng, n, mode=EXACT)
            dec = bs.birkhoff_decompose(S)
            assert dec.weight_sum() == 1
            assert dec.reconstruct(mode=EXACT) == S

    def test_random_float_mixtures(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            S = random_permutation_mixture(rng, n, mode=FLOAT)
            dec = bs.birkhoff_decompose(S)
            assert abs(dec.weight_sum() - 1.0) <= 1e-9
            assert dec.reconstruct(mode=FLOAT).allclose(S, tol=1e-9)

    def test_term_count_bound(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            S = random_permutation_mixture(rng, n, terms=6, mode=FLOAT)
            dec = bs.birkhoff_decompose(S)
            assert len(dec.terms) <= (n - 1) ** 2 + 1

    def test_deterministic(self):
        rng = np.random.default_rng(81)
        S = random_permutation_mixture(rng, 5, mode=FLOAT)
        first = bs.birkhoff_decompose(S)
        second = bs.birkhoff_decompose(S)
        assert first.terms == second.terms

    def test_long_augmenting_path(self):
        # S = (I + C) / 2 with C the cyclic shift: matching the last column
        # re-routes every earlier one, a path of length d
        d = 1100
        S = StochMatrix(0.5 * (np.eye(d) + np.roll(np.eye(d), 1, axis=0)), mode=FLOAT)
        dec = bs.birkhoff_decompose(S)
        assert len(dec.terms) == 2 and all(w > 0 for w, _ in dec.terms)
        assert np.max(np.abs(dec.reconstruct(mode=FLOAT).a - S.a)) <= dec.residual_mass + RESIDUAL_TOL

    def test_rejects_non_bistochastic(self, demon):
        with pytest.raises(NotBiStochastic):
            bs.birkhoff_decompose(demon)

    def test_reconstruct_matches_term_loop(self):
        rng = np.random.default_rng(83)
        a = rng.random((6, 6)) + 0.01
        noisy = bs.noisy_dilation(StochMatrix(a / a.sum(axis=0), mode=FLOAT)).matrix
        dec = bs.birkhoff_decompose(noisy)
        assert len(dec.terms) > 36
        assert np.array_equal(dec.reconstruct(mode=FLOAT).a, reconstruct_reference(dec, FLOAT))
        for _ in range(5):
            dec = bs.birkhoff_decompose(random_permutation_mixture(rng, 7, terms=6, mode=EXACT))
            got, expected = dec.reconstruct(mode=EXACT).a, reconstruct_reference(dec, EXACT)
            assert all(type(x) is Fraction for x in got.flat)
            assert np.array_equal(got, expected)
        empty = BirkhoffDecomposition(n=3, perms=np.empty((0, 3), dtype=np.intp), weights=np.empty(0), residual_mass=0.0)
        assert np.array_equal(empty.reconstruct(mode=FLOAT).a, np.zeros((3, 3)))

    @pytest.mark.parametrize("sinkhorn_tol", [1e-10, 1e-9])
    def test_sinkhorn_output_within_hall_bound(self, sinkhorn_tol):
        # Sinkhorn output is accepted at its row defect, which can leave a
        # residual with no perfect matching long before it drops to round-off
        rng = np.random.default_rng(82)
        for n in range(4, 17):
            S = bs.sinkhorn_knopp(StochMatrix(rng.random((n, n)) + 0.01), tol=sinkhorn_tol).matrix
            report = bs.validate(S)
            delta = max(report.max_column_defect, report.max_row_defect)
            dec = bs.birkhoff_decompose(S)
            assert dec.residual_mass <= 2 * n * delta + n * n * RESIDUAL_TOL
            recon_defect = np.max(np.abs(dec.reconstruct(mode=FLOAT).a - S.a))
            assert recon_defect <= dec.residual_mass + RESIDUAL_TOL
