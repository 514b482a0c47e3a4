import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, Partition, ProbVec, StochMatrix
from bistoch.coarse_grain import uniform_dilation
from bistoch.errors import (
    InvalidPartition,
    InvalidRightInverse,
    NotExact,
    NotFixedPoint,
    ZeroComponent,
)

from conftest import random_permutation_mixture, random_stochastic_exact


def random_partition(rng, d):
    cuts = sorted(rng.choice(range(1, d), size=int(rng.integers(0, d - 1)), replace=False))
    bounds = [0, *cuts, d]
    return Partition.consecutive(np.diff(bounds))


class TestPartition:
    def test_validation(self):
        with pytest.raises(InvalidPartition):
            Partition.from_json({"d": 3, "classes": [[0, 1]]})
        with pytest.raises(InvalidPartition):
            Partition.from_json({"d": 3, "classes": [[0, 1], [1, 2]]})
        with pytest.raises(InvalidPartition):
            Partition.from_json({"d": 2, "classes": [[0, 1], []]})

    @pytest.mark.parametrize(
        "labels",
        [[], [[0, 1]], [1, 1], [0, 2, 2], [0, -1], [0.0, 1.0], [False, True]],
        ids=["empty", "two-dimensional", "no-class-0", "unused-class", "negative", "float", "bool"],
    )
    def test_label_validation(self, labels):
        with pytest.raises(InvalidPartition):
            Partition(labels)

    def test_properties(self):
        p = Partition([0, 0, 1, 2, 2, 2])
        assert p.class_sizes == (2, 1, 3) and all(type(s) is int for s in p.class_sizes)
        assert (p.d, p.n) == (6, 3) and type(p.d) is int
        assert p.classes == ((0, 1), (2,), (3, 4, 5))
        assert p != Partition([0, 0, 1, 2, 2, 1]) and p != Partition([0, 0, 1])

    def test_json_round_trip(self):
        p = Partition([0, 0, 1, 1])
        assert Partition.from_json(p.to_json()) == p


class TestProjection:
    def test_singletons_give_identity(self):
        p = Partition([0, 1])
        assert bs.projection_matrix(p) == StochMatrix.identity(2, mode=EXACT)

    def test_partial_sums(self):
        p = Partition([0, 0, 1, 1])
        X = bs.projection_matrix(p)
        assert [[int(v) for v in row] for row in X.a] == [[1, 1, 0, 0], [0, 0, 1, 1]]
        pi = ProbVec([Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)], mode=EXACT)
        assert bs.apply(X, pi) == ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT)

    def test_row_sums_are_class_sizes(self):
        p = Partition([0, 0, 1, 2, 2, 2])
        X = bs.projection_matrix(p)
        assert X.rows == 3 and X.cols == 6
        assert tuple(int(s) for s in X.a.sum(axis=1)) == (2, 1, 3)


class TestUniformRightInverse:
    def test_singletons_give_identity(self):
        p = Partition([0, 1, 2])
        assert bs.uniform_right_inverse(p) == StochMatrix.identity(3, mode=EXACT)

    def test_spreads_uniformly(self):
        p = Partition([0, 0, 1, 1])
        Y = bs.uniform_right_inverse(p)
        lifted = bs.apply(Y, ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT))
        assert lifted == ProbVec.uniform(4, mode=EXACT)

        p = Partition([0, 1, 1])
        lifted = bs.apply(bs.uniform_right_inverse(p), ProbVec([Fraction(1, 3), Fraction(2, 3)], mode=EXACT))
        assert lifted == ProbVec.uniform(3, mode=EXACT)

    def test_section_identity_on_random_partitions(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            d = int(rng.integers(2, 13))
            p = random_partition(rng, d)
            X = bs.projection_matrix(p)
            Y = bs.uniform_right_inverse(p)
            assert StochMatrix(X.a @ Y.a, mode=EXACT) == StochMatrix.identity(p.n, mode=EXACT)
            yx = Y.a @ X.a
            assert np.array_equal(yx @ yx, yx)  # averaging over classes is idempotent


class TestProductRightInverse:
    def test_point_mass_environment(self):
        rho = ProbVec([1, 0, 0], mode=EXACT)
        Y = bs.product_right_inverse(2, rho)
        lifted = bs.apply(Y, ProbVec([Fraction(1, 4), Fraction(3, 4)], mode=EXACT))
        expect = [Fraction(1, 4), Fraction(3, 4), 0, 0, 0, 0]
        assert lifted == ProbVec(expect, mode=EXACT)

    def test_trivial_environment(self):
        Y = bs.product_right_inverse(3, ProbVec([1], mode=EXACT))
        assert Y == StochMatrix.identity(3, mode=EXACT)

    def test_tensor_product(self):
        rho = ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT)
        Y = bs.product_right_inverse(2, rho)
        lifted = bs.apply(Y, ProbVec([Fraction(1, 4), Fraction(3, 4)], mode=EXACT))
        # flat order (m, i) -> i*N + m
        assert lifted == ProbVec([Fraction(1, 8), Fraction(3, 8), Fraction(1, 8), Fraction(3, 8)], mode=EXACT)


class TestCoarseGrain:
    def test_identity_coarse_grains_to_identity(self):
        p = Partition([0, 0, 1, 1])
        Y = bs.uniform_right_inverse(p)
        T = bs.coarse_grain(StochMatrix.identity(4, mode=EXACT), p, Y)
        assert T == StochMatrix.identity(2, mode=EXACT)

    def test_cyclic_shift(self):
        shift = StochMatrix(
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], mode=EXACT
        )
        p = Partition([0, 0, 1, 1])
        T = bs.coarse_grain(shift, p, bs.uniform_right_inverse(p))
        h = Fraction(1, 2)
        assert T == StochMatrix([[h, h], [h, h]], mode=EXACT)

    def test_lift_then_coarse_grain_is_identity_operation(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, d = 2, 4
            p = Partition([0, 0, 1, 1])
            X = bs.projection_matrix(p)
            Y = bs.uniform_right_inverse(p)
            T0 = random_stochastic_exact(rng, n)
            S = StochMatrix(Y.a @ T0.a @ X.a, mode=EXACT)
            assert bs.coarse_grain(S, p, Y) == T0

    def test_output_left_stochastic_on_random_bistochastic(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            p = random_partition(rng, d)
            S = random_permutation_mixture(rng, d, mode=FLOAT)
            Y = bs.uniform_right_inverse(p, mode=FLOAT)
            T = bs.coarse_grain(S, p, Y)
            assert bs.validate(T, tol=1e-12).left

    def test_rejects_invalid_right_inverse(self):
        p = Partition([0, 0, 1, 1])
        # column 0 leaks mass outside class 0
        bad = StochMatrix(
            [[Fraction(1, 2), 0], [0, 0], [Fraction(1, 2), Fraction(1, 2)], [0, Fraction(1, 2)]], mode=EXACT
        )
        with pytest.raises(InvalidRightInverse):
            bs.coarse_grain(StochMatrix.identity(4, mode=EXACT), p, bad)


class TestUniformDilation:
    def test_two_state(self):
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3))
        p = ProbVec([Fraction(1, 3), Fraction(2, 3)], mode=EXACT)
        dil = uniform_dilation(T, p)
        assert dil.partition.d == 3
        assert dil.partition.class_sizes == (1, 2)
        assert bs.validate(dil.matrix).bi
        assert bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse) == T

    def test_checks_run_when_first_read(self, sum_and_contraction_calls):
        # the dilation sums and contracts S only for its checks, and checks is computed once
        T = bs.two_state(Fraction(1, 3), Fraction(1, 2))
        dil = uniform_dilation(T, ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT))

        def on_s():
            return sorted(name for name, shape in sum_and_contraction_calls if shape == (5, 5))

        assert on_s() == []
        assert dil.checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}
        assert dil.checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}
        assert on_s() == ["_sum_check", "coarse_grain"]
        assert dil.defects() == {"bi_stochastic": (0, 0), "coarse_grain_roundtrip": (0, 0)}

    def test_identity(self):
        T = StochMatrix.identity(2, mode=EXACT)
        dil = uniform_dilation(T, ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT))
        assert dil.partition.d == 2
        assert dil.matrix == T

    def test_zero_component_rejected(self, demon):
        p = ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        with pytest.raises(ZeroComponent):
            uniform_dilation(demon, p)

    def test_non_fixed_point_rejected(self):
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(NotFixedPoint):
            uniform_dilation(T, ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT))

    def test_float_rejected(self):
        T = bs.two_state(0.5, 0.5, mode=FLOAT)
        with pytest.raises(NotExact):
            uniform_dilation(T, ProbVec([0.5, 0.5], mode=FLOAT))

    def test_round_trip_on_random_rational(self):
        # random T with known positive rational fixed point: coarse grain a
        # random exact bi-stochastic S, whose uniform fixed point pushes to
        # p_n = d_n / d
        rng = np.random.default_rng(41)
        for _ in range(30):
            d = int(rng.integers(2, 11))
            p = random_partition(rng, d)
            if p.n > 5:
                continue
            S0 = random_permutation_mixture(rng, d, mode=EXACT)
            Y = bs.uniform_right_inverse(p)
            T = bs.coarse_grain(S0, p, Y)
            fp = ProbVec([Fraction(s, d) for s in p.class_sizes], mode=EXACT)
            dil = uniform_dilation(T, fp)
            assert bs.validate(dil.matrix).bi
            assert bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse) == T


def shuffled_partition(rng, d):
    """Random partition whose classes are, in general, not runs of consecutive states."""
    states = rng.permutation(d).tolist()
    cuts = sorted(rng.choice(range(1, d), size=int(rng.integers(0, d - 1)), replace=False).tolist())
    bounds = [0, *cuts, d]
    return Partition.from_json({"d": d, "classes": [states[a:b] for a, b in zip(bounds, bounds[1:])]})


def reference_projection(P, mode):
    one = Fraction(1) if mode == EXACT else 1.0
    return np.array([[one * (nu in c) for nu in range(P.d)] for c in P.classes], dtype=object)


def reference_uniform_right_inverse(P, mode):
    data = [[Fraction(int(nu in c), len(c)) for c in P.classes] for nu in range(P.d)]
    return np.array(data if mode == EXACT else [[float(v) for v in row] for row in data], dtype=object)


def assert_matches(got, want, mode):
    """Exact: equal entries, all Fractions.  Float: within RESIDUAL_TOL."""
    assert got.shape == want.shape
    if mode == EXACT:
        assert np.array_equal(got, want)
        assert all(type(v) is Fraction for v in got.flat)
    else:
        assert np.max(np.abs(got.astype(float) - want.astype(float))) <= bs.core.RESIDUAL_TOL


class TestMatmulReference:
    """The label-array constructions against the 0/1 matrix products they replace."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_projection_inverse_and_coarse_grain(self, mode):
        rng = np.random.default_rng(51)
        shuffled = 0
        for _ in range(60):
            d = int(rng.integers(2, 11))
            P = shuffled_partition(rng, d)
            shuffled += any(c != tuple(range(c[0], c[0] + len(c))) for c in P.classes)
            X = reference_projection(P, mode)
            Y = reference_uniform_right_inverse(P, mode)
            assert_matches(bs.projection_matrix(P, mode=mode).a, X, mode)
            assert_matches(bs.uniform_right_inverse(P, mode=mode).a, Y, mode)
            assert_matches(X @ Y, np.eye(P.n, dtype=int).astype(object), mode)
            S = random_permutation_mixture(rng, d, mode=mode)
            T = bs.coarse_grain(S, P, bs.uniform_right_inverse(P, mode=mode))
            assert_matches(T.a, X @ S.a.astype(object) @ Y, mode)
        assert shuffled >= 20

    def test_uniform_dilation_is_y_t_x(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            d = int(rng.integers(2, 11))
            P = shuffled_partition(rng, d)
            T = bs.coarse_grain(random_permutation_mixture(rng, d, mode=EXACT), P, bs.uniform_right_inverse(P))
            dil = uniform_dilation(T, ProbVec([Fraction(s, d) for s in P.class_sizes], mode=EXACT))
            X = reference_projection(dil.partition, EXACT)
            Y = reference_uniform_right_inverse(dil.partition, EXACT)
            assert_matches(dil.matrix.a, Y @ T.a @ X, EXACT)
            assert_matches(dil.right_inverse.a, Y, EXACT)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_product_right_inverse(self, mode):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            raw = rng.integers(1, 6, size=m)
            rho = ProbVec([Fraction(int(v), int(raw.sum())) for v in raw], mode=EXACT)
            rho = rho if mode == EXACT else rho.to_float()
            Y = bs.product_right_inverse(n, rho)
            want = np.empty((n * m, n), dtype=object)
            want[:] = rho.a[0] * 0
            for i in range(m):
                for k in range(n):
                    want[i * n + k, k] = rho.a[i]
            assert_matches(Y.a, want, mode)
            X = reference_projection(Partition.first_marginal(n, m), mode)
            assert_matches(X @ Y.a, np.eye(n, dtype=int).astype(object), mode)


class TestLabels:
    def test_labels_invert_classes(self):
        p = Partition.from_json({"d": 6, "classes": [[4, 0], [2], [5, 1, 3]]})
        assert p.labels.tolist() == [0, 2, 1, 2, 0, 2]
        assert p.classes == ((0, 4), (2,), (1, 3, 5))
        assert Partition.from_json(p.to_json()) == p

    def test_labels_computed_once_and_read_only(self):
        given = np.array([0, 2, 1, 2, 0, 2])
        p = Partition(given)
        assert p.labels is p.labels and p.labels.dtype == np.intp
        with pytest.raises(ValueError):
            p.labels[0] = 1
        given[0] = 1  # the partition holds its own copy, and leaves the caller's array writeable
        assert p == Partition.from_json({"d": 6, "classes": [[0, 4], [2], [1, 3, 5]]})

    def test_consecutive_holds_one_labels_array(self):
        # the labels consecutive builds are frozen in place: no copy, and no
        # count of a read-only array, which numpy copies first
        tracemalloc.start()
        try:
            p = Partition.consecutive([1_000_000, 1_000_001])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p.class_sizes == (1_000_000, 1_000_001)
        assert peak < 1.25 * p.labels.nbytes

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 1), (1, 4), (3, 2), (4, 5)])
    def test_first_marginal(self, n, m):
        # flat(k, i) = i*n + k lies in class k
        p = Partition.first_marginal(n, m)
        assert p.labels.tolist() == [flat % n for flat in range(n * m)]
        assert p.class_sizes == (m,) * n
        assert Partition.first_marginal(n, m) is p  # built once per shape and shared


class TestSectionCheck:
    def test_rejects_invalid_right_inverse_in_float_mode(self):
        p = Partition([0, 0, 1, 1])
        # column 0 leaks mass outside class 0
        bad = StochMatrix([[0.5, 0.0], [0.0, 0.0], [0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InvalidRightInverse):
            bs.coarse_grain(StochMatrix.identity(4, mode=FLOAT), p, bad)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize(
        "rows",
        [[[0, 1], [1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0], [0, 0]]],
        ids=["mass-in-the-wrong-class", "empty-column"],
    )
    def test_rejects_non_section_with_zero_rows(self, mode, rows):
        # first-marginal classes {0, 2} and {1, 3}; rows 2 and 3 of Y are zero
        p = Partition.first_marginal(2, 2)
        bad = StochMatrix(rows, mode=mode)
        with pytest.raises(InvalidRightInverse):
            bs.coarse_grain(StochMatrix.identity(4, mode=mode), p, bad)

    def test_float_round_off_is_accepted(self):
        p = Partition([0, 1, 0, 1])
        Y = bs.uniform_right_inverse(p, mode=FLOAT).a.copy()
        Y[0, 0] += 1e-13
        T = bs.coarse_grain(StochMatrix.identity(4, mode=FLOAT), p, StochMatrix(Y))
        assert T.allclose(StochMatrix.identity(2, mode=FLOAT), tol=1e-12)

    @pytest.mark.parametrize("eps, accepted", [(bs.core.DEFAULT_TOL / 10, True), (10 * bs.core.DEFAULT_TOL, False)])
    def test_float_section_held_to_default_tol(self, eps, accepted):
        # a float section is an input, held to the defect at which a ProbVec is accepted
        p = Partition([0, 1, 0, 1])
        Y = bs.uniform_right_inverse(p, mode=FLOAT).a.copy()
        Y[0, 0] += eps
        section = StochMatrix(Y)
        if accepted:
            assert bs.coarse_grain(StochMatrix.identity(4, mode=FLOAT), p, section).rows == 2
        else:
            with pytest.raises(InvalidRightInverse):
                bs.coarse_grain(StochMatrix.identity(4, mode=FLOAT), p, section)
