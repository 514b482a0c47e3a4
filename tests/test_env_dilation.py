from fractions import Fraction

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix
from bistoch.env_dilation import EnvDilation, flat_index
from bistoch.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    IncompleteKrausSet,
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


class TestNoisyDilation:
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
        assert E.rho == ProbVec([1, 0, 0, 0], mode=EXACT)

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


class TestVerifyEnvDilation:
    def test_noisy_dilation_verifies(self, demon):
        assert bs.verify_env_dilation(demon, bs.noisy_dilation(demon))

    def test_perturbed_dilation_fails(self, demon):
        R = demon_dilation_expected()
        data = [[Fraction(v) for v in row] for row in R.a]
        data[0][0] -= Fraction(1, 24)
        data[1][0] += Fraction(1, 24)
        broken = EnvDilation(env_size=4, rho=ProbVec([1, 0, 0, 0], mode=EXACT), matrix=StochMatrix(data, mode=EXACT))
        assert not bs.verify_env_dilation(demon, broken)

    def test_unistochastic_dilation_verifies_float(self):
        T = bs.two_state(0.3, 0.7, mode=FLOAT)
        E = bs.unistochastic_env_dilation(T)
        assert bs.verify_env_dilation(T, E)

    @pytest.mark.parametrize("eps, holds", [(10 * bs.core.RESIDUAL_TOL, False), (bs.core.RESIDUAL_TOL / 10, True)])
    def test_float_zero_environment_entry_to_residual_tol(self, demon_float, eps, holds):
        E = bs.noisy_dilation(demon_float)
        a = E.matrix.a.copy()
        a[flat_index(1, 2, 4), flat_index(3, 0, 4)] += eps  # source (3, 0): zero environment
        perturbed = EnvDilation(env_size=4, rho=E.rho, matrix=StochMatrix(a, mode=FLOAT))
        assert bs.verify_env_dilation(demon_float, perturbed) is holds

    @pytest.mark.parametrize("eps, holds", [(0.0, True), (10 * (bs.core.RESIDUAL_TOL + 1e-10), False)])
    def test_float_rho_sum_defect_widens_bound(self, demon_float, eps, holds):
        # ProbVec accepts this rho; X R Y carries its sum defect of 1e-10, and no more than that is forgiven
        rho = ProbVec([1 + 1e-10, 0.0, 0.0, 0.0], mode=FLOAT)
        a = bs.noisy_dilation(demon_float).matrix.a.copy()
        a[flat_index(1, 2, 4), flat_index(3, 0, 4)] += eps
        dilation = EnvDilation(env_size=4, rho=rho, matrix=StochMatrix(a, mode=FLOAT))
        assert bs.verify_env_dilation(demon_float, dilation) is holds

    def test_mixed_modes_verify_in_float(self, demon, demon_float):
        assert bs.verify_env_dilation(demon, bs.noisy_dilation(demon_float)) is True
        assert bs.verify_env_dilation(demon_float, bs.noisy_dilation(demon)) is True


class TestAsCoarseGraining:
    def test_demon_reduction(self, demon):
        E = bs.noisy_dilation(demon)
        partition, Y = bs.as_coarse_graining(E)
        assert partition.d == 16 and partition.class_sizes == (4, 4, 4, 4)
        assert bs.coarse_grain(E.matrix, partition, Y) == demon

    def test_trivial_environment(self):
        R = StochMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]], mode=EXACT)
        E = EnvDilation(env_size=1, rho=ProbVec([1], mode=EXACT), matrix=R)
        partition, Y = bs.as_coarse_graining(E)
        assert bs.coarse_grain(R, partition, Y) == R

    def test_two_state_reduction(self):
        T = bs.two_state(Fraction(1, 4), Fraction(3, 4))
        E = bs.noisy_dilation(T)
        partition, Y = bs.as_coarse_graining(E)
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
            assert bs.stochastic_from_kraus(K).allclose(T, tol=1e-12)

    def test_demon_round_trip(self, demon):
        K = bs.kraus_from_stochastic(demon)
        assert bs.stochastic_from_kraus(K).allclose(demon.to_float(), tol=1e-15)

    def test_single_identity_operator(self):
        K = bs.KrausSet(n=3, operators=[np.eye(3)])
        assert bs.stochastic_from_kraus(K).allclose(StochMatrix.identity(3), tol=0)

    def test_incomplete_set_rejected(self):
        K = bs.KrausSet(n=2, operators=[np.eye(2) * 0.5])
        with pytest.raises(IncompleteKrausSet):
            bs.stochastic_from_kraus(K)

    def test_quarter_three_quarter(self):
        T = bs.two_state(Fraction(1, 4), Fraction(3, 4))
        K = bs.kraus_from_stochastic(T)
        assert bs.stochastic_from_kraus(K).allclose(T.to_float(), tol=1e-15)


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

    def test_entries_square_to_unitary_rows(self):
        T = bs.two_state(0.42, 0.17, mode=FLOAT)
        dil = bs.unistochastic_dilation(T)
        assert np.allclose(dil.matrix.a, dil.unitary**2)

    def test_coarse_graining_reduction(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            T = random_stochastic_float(rng, n)
            E = bs.unistochastic_env_dilation(T)
            partition, Y = bs.as_coarse_graining(E)
            back = bs.coarse_grain(E.matrix, partition, Y)
            assert back.allclose(T, tol=1e-12)
