import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix, with_environment
from bistoch.core import RESIDUAL_TOL
from bistoch.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IndexOutOfRange,
    NotBiStochastic,
)

from conftest import (
    demon_dilation_expected,
    random_prob_vec_exact,
    random_stochastic_exact,
    random_stochastic_float,
    two_state_dilation_expected,
)


def flat_index(m, i, n):
    """Environment-major flat index of composite state (m, i)."""
    return i * n + m


def noisy_dilation_by_entries(T):
    """Reference: the closed form of the noisy dilation, entry by entry."""
    n = T.rows
    data = [[None] * (n * n) for _ in range(n * n)]
    for m in range(n):
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if j == 0:
                        value = T.a[m, i] * int(i == k)
                    else:
                        value = (1 - T.a[m, i]) / (n * (n - 1))
                    data[flat_index(m, i, n)][flat_index(k, j, n)] = value
    return StochMatrix(data, mode=T.mode)


def qr_reference(T):
    """Reference: the orthogonal completion by numpy's Householder QR of the isometry.

    Column k of the N^2 x N isometry holds sqrt(T[:, k]) at the composite
    states (m, k); the complete Q is formed by LAPACK, and its first N
    columns are signed to carry the isometry itself.
    """
    n = T.rows
    iso = np.zeros((n, n, n))  # iso[i, m, k]: row flat(m, i), column k
    ks = np.arange(n)
    iso[ks, :, ks] = np.sqrt(T.to_float().a).T
    q, r = np.linalg.qr(iso.reshape(n * n, n), mode="complete")
    q[:, :n] *= np.sign(np.diag(r))
    return q


@st.composite
def float_matrices_with_zeros(draw):
    """Float left-stochastic matrices, N = 1-8, about a drawn share of entries zero.

    Each column keeps at least one positive entry; ``first`` pins column 0 to
    a point mass at 0 (then H_0 = I), or makes T[0, 0] zero (then alpha = 0).
    The columns may carry a sum defect that ``validate`` accepts, so that
    |v_k| differs from 1 by more than round-off.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((n, n)) * (rng.random((n, n)) >= draw(st.sampled_from([0.0, 0.3, 0.7])))
    a[rng.integers(n, size=n), np.arange(n)] += 0.1
    first = draw(st.sampled_from(["free", "point_mass", "zero"]))
    if first == "point_mass":
        a[:, 0] = np.eye(n)[0]
    elif first == "zero" and n > 1:
        a[0, 0], a[1, 0] = 0.0, a[1, 0] + 0.1
    defect = draw(st.sampled_from([0.0, 5e-10, -5e-10]))
    return StochMatrix(a / a.sum(axis=0) * (1 + defect), mode=FLOAT)


class TestNoisyDilation:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(float_matrices_with_zeros())
    def test_marginal_identity_on_float_inputs(self, T):
        assume(T.rows >= 2)
        assert bs.verify_env_dilation(T, bs.noisy_dilation(T)) is True

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_matches_entrywise_closed_form(self, mode):
        rng = np.random.default_rng(53)
        for n in range(2, 9):
            T = random_stochastic_exact(rng, n) if mode == EXACT else random_stochastic_float(rng, n)
            assert bs.noisy_dilation(T).matrix == noisy_dilation_by_entries(T)

    def test_two_state_golden(self):
        a, b = Fraction(3, 10), Fraction(7, 10)
        E = bs.noisy_dilation(bs.two_state(a, b))
        assert E.matrix == two_state_dilation_expected(a, b)

    def test_demon_golden_16x16(self, demon):
        E = bs.noisy_dilation(demon)
        assert E.matrix == demon_dilation_expected(mode=EXACT)
        assert E.right_inverse == bs.product_right_inverse(4, ProbVec([1, 0, 0, 0], mode=EXACT))

    def test_identity_2x2(self):
        # substituting the identity: diagonal blocks carry delta terms, the
        # off-blocks are constant (1 - delta) / 2
        E = bs.noisy_dilation(StochMatrix.identity(2, mode=EXACT))
        R = E.matrix
        h = Fraction(1, 2)
        for m in range(2):
            for i in range(2):
                for n in range(2):
                    assert R.a[flat_index(m, i, 2), flat_index(n, 0, 2)] == Fraction(int(m == i == n))
                    assert R.a[flat_index(m, i, 2), flat_index(n, 1, 2)] == h * (1 - int(m == i))

    def test_exactly_bistochastic_on_random_rational(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            T = random_stochastic_exact(rng, n)
            assert bs.validate(bs.noisy_dilation(T).matrix).bi

    def test_rejects_one_state_system(self):
        with pytest.raises(DimensionTooSmall):
            bs.noisy_dilation(StochMatrix.identity(1, mode=EXACT))

    def test_marginals_of_evolved_state(self):
        # first marginal of R (p x delta_0) is T p; the second recovers p
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            T = random_stochastic_exact(rng, n)
            p = random_prob_vec_exact(rng, n)
            R = bs.noisy_dilation(T).matrix
            lifted = np.array([Fraction(0)] * (n * n), dtype=object)
            for m in range(n):
                lifted[flat_index(m, 0, n)] = p.a[m]
            evolved = R.a @ lifted
            marginal_1 = [sum(evolved[flat_index(m, i, n)] for i in range(n)) for m in range(n)]
            marginal_2 = [sum(evolved[flat_index(m, i, n)] for m in range(n)) for i in range(n)]
            assert np.array_equal(np.array(marginal_1, dtype=object), T.a @ p.a)
            assert np.array_equal(np.array(marginal_2, dtype=object), p.a)


class TestExtractDilated:
    def test_demon_round_trip(self, demon):
        assert bs.extract_dilated(demon_dilation_expected(), 0) == demon

    def test_two_state_round_trip(self):
        a, b = Fraction(3, 10), Fraction(7, 10)
        R = two_state_dilation_expected(a, b)
        assert bs.extract_dilated(R, 0) == bs.two_state(a, b)

    def test_environment_fixing_permutation(self):
        # swap the two system states, leave the environment untouched
        n = 2
        data = [[Fraction(0)] * 4 for _ in range(4)]
        system_swap = [1, 0]
        for i in range(n):
            for k in range(n):
                data[flat_index(system_swap[k], i, n)][flat_index(k, i, n)] = Fraction(1)
        R = StochMatrix(data, mode=EXACT)
        assert bs.extract_dilated(R, 0) == StochMatrix([[0, 1], [1, 0]], mode=EXACT)

    def test_errors(self, demon):
        with pytest.raises(NotBiStochastic):
            bs.extract_dilated(demon, 0)
        with pytest.raises(IndexOutOfRange):
            bs.extract_dilated(demon_dilation_expected(), 4)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("system_size", [0, -4])
    def test_rejects_system_size_below_one(self, mode, system_size):
        # not a ZeroDivisionError, nor an environment of negative size
        with pytest.raises(DimensionMismatch):
            bs.extract_dilated(bs.noisy_dilation(bs.maxwell_demon(mode=mode)).matrix, 0, system_size=system_size)


class TestWithEnvironment:
    @pytest.mark.parametrize(
        "shape, m",
        [((6, 6), 4), ((4, 4), 5), ((4, 2), 2), ((2, 4), 2)],
        ids=["not-a-multiple", "smaller-than-rho", "tall", "wide"],
    )
    def test_refuses_a_matrix_that_does_not_fit(self, shape, m):
        # a square R of n * len(rho) states for some n >= 1, or one error that names both sizes
        R = StochMatrix(np.full(shape, Fraction(1, shape[0])), mode=EXACT)
        with pytest.raises(DimensionMismatch) as info:
            with_environment(R, ProbVec.point_mass(m, 0, mode=EXACT))
        rows, cols = shape
        assert str(info.value) == f"{rows}x{cols} dilation does not act on a system with a {m}-state environment"

    def test_fits_every_multiple(self):
        R = StochMatrix.identity(6, mode=EXACT)
        for m in (1, 2, 3, 6):
            E = with_environment(R, ProbVec.uniform(m, mode=EXACT))
            assert E.partition.n == 6 // m and E.right_inverse.a.shape == (6, 6 // m)


class TestVerifyEnvDilation:
    def test_noisy_dilation_verifies(self, demon):
        assert bs.verify_env_dilation(demon, bs.noisy_dilation(demon))

    def test_perturbed_dilation_fails(self, demon):
        R = demon_dilation_expected()
        data = [[Fraction(v) for v in row] for row in R.a]
        data[0][0] -= Fraction(1, 24)
        data[1][0] += Fraction(1, 24)
        broken = with_environment(StochMatrix(data, mode=EXACT), ProbVec([1, 0, 0, 0], mode=EXACT))
        assert not bs.verify_env_dilation(demon, broken)

    def test_unistochastic_dilation_verifies_float(self):
        T = bs.two_state(0.3, 0.7, mode=FLOAT)
        E = bs.unistochastic_dilation(T)
        assert bs.verify_env_dilation(T, E)

    @pytest.mark.parametrize("eps, holds", [(10 * bs.core.RESIDUAL_TOL, False), (bs.core.RESIDUAL_TOL / 10, True)])
    def test_float_zero_environment_entry_to_residual_tol(self, demon_float, eps, holds):
        E = bs.noisy_dilation(demon_float)
        a = E.matrix.a.copy()
        a[flat_index(1, 2, 4), flat_index(3, 0, 4)] += eps  # source (3, 0): zero environment
        perturbed = replace(E, matrix=StochMatrix(a, mode=FLOAT))
        assert bs.verify_env_dilation(demon_float, perturbed) is holds

    @pytest.mark.parametrize("eps, holds", [(0.0, True), (10 * (bs.core.RESIDUAL_TOL + 1e-10), False)])
    def test_float_rho_sum_defect_widens_bound(self, demon_float, eps, holds):
        # ProbVec accepts this rho; X R Y carries its sum defect of 1e-10, and no more than that is forgiven
        rho = ProbVec([1 + 1e-10, 0.0, 0.0, 0.0], mode=FLOAT)
        a = bs.noisy_dilation(demon_float).matrix.a.copy()
        a[flat_index(1, 2, 4), flat_index(3, 0, 4)] += eps
        dilation = with_environment(StochMatrix(a, mode=FLOAT), rho)
        assert bs.verify_env_dilation(demon_float, dilation) is holds

    def test_mixed_modes_verify_in_float(self, demon, demon_float):
        assert bs.verify_env_dilation(demon, bs.noisy_dilation(demon_float)) is True
        assert bs.verify_env_dilation(demon_float, bs.noisy_dilation(demon)) is True


class TestOneDilationType:
    def test_every_construction_returns_its_coarse_graining(self):
        T = bs.two_state(Fraction(1, 3), Fraction(1, 2))
        p = ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT)
        for dil in (bs.uniform_dilation(T, p), bs.noisy_dilation(T), bs.unistochastic_dilation(T)):
            assert isinstance(dil, bs.CoarseGrainDilation)
            assert bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse).allclose(T, tol=RESIDUAL_TOL)
            assert bs.verify_env_dilation(T, dil) is True

    def test_every_construction_checks_its_source(self):
        T = bs.two_state(Fraction(1, 3), Fraction(1, 2))
        p = ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT)
        names = ["bi_stochastic", "coarse_grain_roundtrip"]
        for dil in (bs.uniform_dilation(T, p), bs.noisy_dilation(T), bs.unistochastic_dilation(T)):
            assert dil.source is T
            unitary = isinstance(dil, bs.UnitaryDilation)
            assert list(dil.checks) == list(dil.defects()) == (["orthogonal", *names] if unitary else names)
            assert all(dil.checks.values())
            # against another T the round trip fails, and only it
            other = replace(dil, source=bs.two_state(Fraction(1, 4), Fraction(1, 2)))
            assert {name for name, ok in other.checks.items() if not ok} == {"coarse_grain_roundtrip"}
        assert with_environment(bs.noisy_dilation(T).matrix, ProbVec.point_mass(2, 0, mode=EXACT)).source is None

    def test_roundtrip_defect(self, demon, demon_float):
        assert bs.roundtrip_defect(demon, bs.noisy_dilation(demon)) == (0, 0)
        defect, tol = bs.roundtrip_defect(demon_float, bs.noisy_dilation(demon_float))
        assert defect <= tol == RESIDUAL_TOL
        with pytest.raises(DimensionMismatch):
            bs.roundtrip_defect(bs.two_state(Fraction(1, 3), Fraction(1, 2)), bs.noisy_dilation(demon))
        with pytest.raises(DimensionMismatch):
            bs.roundtrip_defect(StochMatrix(demon.a[:, :3], mode=EXACT), bs.noisy_dilation(demon))


class TestAsCoarseGraining:
    def test_demon_reduction(self, demon):
        E = bs.noisy_dilation(demon)
        partition, Y = E.partition, E.right_inverse
        assert partition.d == 16 and partition.class_sizes == (4, 4, 4, 4)
        assert bs.coarse_grain(E.matrix, partition, Y) == demon

    def test_trivial_environment(self):
        R = StochMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]], mode=EXACT)
        E = with_environment(R, ProbVec([1], mode=EXACT))
        partition, Y = E.partition, E.right_inverse
        assert bs.coarse_grain(R, partition, Y) == R

    def test_two_state_reduction(self):
        T = bs.two_state(Fraction(1, 4), Fraction(3, 4))
        E = bs.noisy_dilation(T)
        partition, Y = E.partition, E.right_inverse
        assert bs.coarse_grain(E.matrix, partition, Y) == T


class TestKraus:
    def test_identity_gives_matrix_units(self):
        K = bs.kraus_from_stochastic(StochMatrix.identity(2, mode=EXACT))
        for i, op in enumerate(K.operators):
            expected = np.zeros((2, 2))
            expected[i, i] = 1.0
            assert np.array_equal(op, expected)

    def test_two_state_half(self):
        K = bs.kraus_from_stochastic(bs.two_state(Fraction(1, 2), Fraction(1, 2)))
        r = np.sqrt(0.5)
        assert np.allclose(K.operators[0], [[r, 0], [r, 0]])
        assert np.allclose(K.operators[1], [[0, r], [0, r]])
        assert K.completeness_defect() <= 1e-15

    def test_round_trip_against_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            T = random_stochastic_float(rng, n)
            K = bs.kraus_from_stochastic(T)
            # independent evaluation of T[m,n] = sum_i A_i[m,n]^2
            brute = np.zeros((n, n))
            for m in range(n):
                for k in range(n):
                    brute[m, k] = sum(op[m, k] ** 2 for op in K.operators)
            assert np.max(np.abs(brute - T.a)) <= 1e-12

    def test_demon_round_trip(self, demon):
        K = bs.kraus_from_stochastic(demon)
        assert np.max(np.abs(sum(a**2 for a in K.operators) - demon.to_float().a)) <= 1e-15

    def test_single_identity_operator(self):
        K = bs.KrausSet(n=3, operators=[np.eye(3)])
        assert K.completeness_defect() == 0 and np.array_equal(sum(a**2 for a in K.operators), np.eye(3))

    def test_quarter_three_quarter(self):
        T = bs.two_state(Fraction(1, 4), Fraction(3, 4))
        K = bs.kraus_from_stochastic(T)
        assert np.max(np.abs(sum(a**2 for a in K.operators) - T.to_float().a)) <= 1e-15


class TestUnistochasticDilation:
    def test_identity_is_permutation(self):
        dil = bs.unistochastic_dilation(StochMatrix.identity(2))
        R = dil.matrix
        assert dil.orthogonality_defect() <= 1e-12
        # every row and column holds a single 1
        assert np.allclose(np.sort(R.a, axis=0)[-1], 1.0)
        T = bs.extract_dilated(R, 0, tol=1e-12)
        assert T.allclose(StochMatrix.identity(2), tol=1e-12)

    def test_two_state(self):
        T = bs.two_state(0.3, 0.7, mode=FLOAT)
        dil = bs.unistochastic_dilation(T)
        assert dil.orthogonality_defect() <= 1e-12
        report = bs.validate(dil.matrix, tol=1e-12)
        assert report.bi
        assert bs.extract_dilated(dil.matrix, 0, tol=1e-12).allclose(T, tol=1e-12)

    def test_demon(self, demon):
        dil = bs.unistochastic_dilation(demon)
        assert dil.unitary.shape == (16, 16)
        assert dil.orthogonality_defect() <= 1e-12
        assert bs.extract_dilated(dil.matrix, 0, tol=1e-12).allclose(demon.to_float(), tol=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(float_matrices_with_zeros())
    def test_entries_square_to_unitary_rows(self, T):
        # R is written from the blocks' squares, the unitary assembled from the blocks: the same entries
        dil = bs.unistochastic_dilation(T)
        assert np.array_equal(dil.matrix.a, dil.unitary**2)

    @staticmethod
    def assert_matches_qr(T):
        u, q = bs.unistochastic_dilation(T).unitary, qr_reference(T)
        assert u.shape == q.shape
        assert np.max(np.abs(u - q)) <= 1e-15
        assert np.array_equal(u == 0, q == 0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(float_matrices_with_zeros())
    def test_matches_qr_reference(self, T):
        self.assert_matches_qr(T)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_qr_reference_on_permutations(self, n):
        self.assert_matches_qr(StochMatrix.identity(n))
        for shift in range(1, n):
            self.assert_matches_qr(StochMatrix(np.roll(np.eye(n), shift, axis=0)))
        self.assert_matches_qr(StochMatrix(np.eye(n)[::-1]))

    def test_matches_qr_reference_on_small_cases(self, demon):
        self.assert_matches_qr(demon)
        self.assert_matches_qr(StochMatrix([[1.0]]))
        self.assert_matches_qr(bs.two_state(0.3, 0.7, mode=FLOAT))
        self.assert_matches_qr(bs.two_state(0.0, 1.0, mode=FLOAT))

    def test_orthogonal_at_scale(self):
        # at N=32 a dense U is d^2 * 8 = 8 MiB: the build holds one d x d array, R, and the check none
        n, d = 32, 32 * 32
        T = random_stochastic_float(np.random.default_rng(32), n)
        tracemalloc.start()
        try:
            dil = bs.unistochastic_dilation(T)
            held, build = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            orthogonality = dil.orthogonality_defect()
            check = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert build < 1.5 * d * d * 8 and check < 2**20
        assert "unitary" not in vars(dil)  # the check did not assemble U
        assert orthogonality <= RESIDUAL_TOL
        assert bs.validate(dil.matrix, tol=RESIDUAL_TOL).bi
        assert bs.extract_dilated(dil.matrix, 0).allclose(T, tol=RESIDUAL_TOL)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_orthogonality_defect_matches_dense_reference(self, n):
        # the largest entry of |U^T U - I| of the assembled U, to the round-off of a 2N-term dot product
        # of entries at most 1, also where U is not orthogonal: blocks that tilt two columns towards each
        # other give a Gram matrix whose extreme is that negative off-diagonal entry, and scaled blocks
        # one whose diagonal overshoots 1
        dil = bs.unistochastic_dilation(random_stochastic_float(np.random.default_rng(n), n))

        def perturbed(change):
            blocks = {name: getattr(dil, name).copy() for name in ("column0", "row0", "diagonal")}
            change(*blocks.values())
            return replace(dil, **blocks)

        def tilt(x, y):  # two columns of U, in the row block they share
            x[:], y[:] = x - 1e-6 * y, y - 1e-6 * x

        tilted = {  # by the flat indices of the two columns, j * N + m for column (j, m)
            (0, n): perturbed(lambda a, b, c: tilt(a[0], b[:, 0, 0])),  # (0, 0) and (1, 0) in row block 0
            (1, n): perturbed(lambda a, b, c: tilt(a[1], c[0, :, 0])),  # (0, 1) and (1, 0) in row block 1
            (n, n + 1): perturbed(lambda a, b, c: tilt(c[0, :, 0], c[0, :, 1])),  # (1, 0) and (1, 1)
        }
        scaled = {  # by whether the overshooting diagonal entry is in column block 0
            True: perturbed(lambda a, b, c: np.multiply(a, 1 + 1e-6, out=a)),
            False: perturbed(lambda a, b, c: np.multiply(c, 1 + 1e-6, out=c)),
        }
        for extreme, case in [(None, dil), *tilted.items(), *scaled.items()]:
            gram = case.unitary.T @ case.unitary - np.eye(n * n)
            assert abs(case.orthogonality_defect() - np.max(np.abs(gram))) <= 2 * n * np.finfo(float).eps
            k = np.argmax(np.diagonal(gram))
            if isinstance(extreme, bool):
                assert gram[k, k] == gram.max() > -gram.min() and (k < n) == extreme
            elif extreme:
                assert gram[extreme] == gram.min() < -max(gram.max(), np.abs(np.diagonal(gram)).max())
        assert dil.unitary.shape == (n * n, n * n)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(float_matrices_with_zeros())
    def test_marginal_identity_on_float_inputs(self, T):
        # also for a T whose columns carry a sum defect: the completion normalises them, which the
        # dilation's own round-trip tolerance allows, and verify_env_dilation applies that tolerance
        dil = bs.unistochastic_dilation(T)
        assert bs.verify_env_dilation(T, dil) is True and dil.checks["coarse_grain_roundtrip"]

    def test_single_state_has_empty_off_diagonal_blocks(self):
        dil = bs.unistochastic_dilation(StochMatrix([[1.0]], mode=FLOAT))
        assert (dil.row0.size, dil.diagonal.size) == (0, 0)
        assert dil.orthogonality_defect() == 0
        assert np.array_equal(dil.unitary, [[1.0]])

    def test_coarse_graining_reduction(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            T = random_stochastic_float(rng, n)
            E = bs.unistochastic_dilation(T)
            partition, Y = E.partition, E.right_inverse
            back = bs.coarse_grain(E.matrix, partition, Y)
            assert back.allclose(T, tol=1e-12)
