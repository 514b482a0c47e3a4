from fractions import Fraction

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix
from bistoch.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ModeMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotSquare,
    NotStochastic,
)

from conftest import (
    random_prob_vec_float,
    random_stochastic_exact,
    random_stochastic_float,
    two_state_dilation_expected,
)


class TestValidate:
    def test_demon_matrix_left_only(self, demon):
        report = bs.validate(demon)
        assert report.left and not report.right and not report.bi
        assert report.max_row_defect == Fraction(1, 2)

    def test_identity_is_bistochastic(self):
        for n in (2, 4, 7):
            report = bs.validate(StochMatrix.identity(n, mode=EXACT))
            assert report.left and report.right and report.bi

    def test_two_state_dilation_is_bistochastic(self):
        R = two_state_dilation_expected(Fraction(3, 10), Fraction(7, 10))
        assert bs.validate(R).bi

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry) as exc_info:
            StochMatrix([[0.5, -0.2], [0.6, -0.1]], mode=FLOAT)
        assert exc_info.value.index == (0, 1) and exc_info.value.value == -0.2
        with pytest.raises(NegativeEntry) as exc_info:
            StochMatrix([[Fraction(1), Fraction(-1, 3)], [Fraction(-1), Fraction(4, 3)]], mode=EXACT)
        assert exc_info.value.index == (0, 1) and exc_info.value.value == Fraction(-1, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonFiniteEntry) as exc_info:
            ProbVec([bad, 1.0])
        assert exc_info.value.index == (0,)
        with pytest.raises(NonFiniteEntry) as exc_info:
            StochMatrix([[1.0, 1.0], [bad, 0.0]])
        assert exc_info.value.index == (1, 0)

    def test_mode_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            T = random_stochastic_exact(rng, n)
            exact_report = bs.validate(T)
            float_report = bs.validate(T.to_float(), tol=1e-12)
            assert (exact_report.left, exact_report.right, exact_report.bi) == (
                float_report.left,
                float_report.right,
                float_report.bi,
            )


class TestPointMass:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("k", [-1, 3, 4])
    def test_index_out_of_range(self, mode, k):
        # a negative index must not wrap around to the last state
        with pytest.raises(IndexOutOfRange):
            ProbVec.point_mass(3, k, mode=mode)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_only_positive_entries_are_interior(self, mode):
        assert ProbVec.uniform(3, mode=mode).is_interior()
        assert not ProbVec.point_mass(3, 1, mode=mode).is_interior()


class TestIrreducible:
    def test_demon_matrix_reducible(self, demon):
        # the all-closed-door state is absorbing
        assert not bs.is_irreducible(demon)

    def test_identity_reducible(self):
        assert not bs.is_irreducible(StochMatrix.identity(2, mode=EXACT))

    def test_two_state_half_irreducible(self):
        assert bs.is_irreducible(bs.two_state(Fraction(1, 2), Fraction(1, 2)))

    def test_matches_networkx_oracle(self):
        import networkx as nx

        rng = np.random.default_rng(5)
        matrices = []
        for i in range(80):
            n = int(rng.integers(2, 7))
            a = rng.random((n, n)) * (rng.random((n, n)) < (0.5 if i < 50 else 0.2))
            a += 1e-3 * np.eye(n)  # keep columns non-degenerate
            matrices.append(a / a.sum(axis=0))
        for n in (1, 2, 6):
            forward = np.eye(n, k=-1)  # k -> k + 1, the last state absorbing
            forward[-1, -1] = 1
            matrices += [forward, forward[::-1, ::-1], np.eye(n)]
        # a leak below the round-off tolerance is no edge: two closed classes
        matrices.append(np.array([[1.0, 1e-13], [0.0, 1.0 - 1e-13]]))
        for a in matrices:
            n = len(a)
            T = StochMatrix(a, mode=FLOAT)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for m in range(n):
                for k in range(n):
                    if T.a[m, k] > 1e-12:
                        g.add_edge(k, m)
            assert bs.is_irreducible(T) == nx.is_strongly_connected(g)
            # closed classes, in least-state order, are the attracting components
            closed = sorted((sorted(c) for c in nx.attracting_components(g)), key=min)
            assert [c.tolist() for c in bs.core._recurrent_classes(T)] == closed
            res = bs.fixed_point(T)
            assert res.face_dimension == len(closed) - 1
            assert np.flatnonzero(res.representative.a).tolist() == sorted(sum(closed, []))

    def test_requires_square_stochastic(self):
        with pytest.raises(NotSquare):
            bs.is_irreducible(StochMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], mode=FLOAT))


class TestFixedPoint:
    def test_two_state_exact(self):
        # nullspace of (T - 1) solved by hand: p proportional to (a, b)
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3))
        res = bs.fixed_point(T)
        assert res.representative == ProbVec([Fraction(1, 3), Fraction(2, 3)], mode=EXACT)
        assert res.face_dimension == 0 and res.is_unique

    def test_demon_matrix_face(self, demon):
        res = bs.fixed_point(demon)
        assert res.face_dimension == 1 and not res.is_unique
        assert res.representative == ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT)
        # face direction spans (1, 0, 0, -1)
        (direction,) = res.basis
        assert direction[0] == -direction[3] != 0 and direction[1] == direction[2] == 0

    def test_identity_face(self):
        res = bs.fixed_point(StochMatrix.identity(4, mode=EXACT))
        assert res.face_dimension == 3

    def test_residual_on_random_float(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            T = random_stochastic_float(rng, n)
            res = bs.fixed_point(T)
            resid = np.max(np.abs(T.a @ res.representative.a - res.representative.a))
            assert resid <= 1e-10

    def test_irreducible_gives_unique_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            T = random_stochastic_float(rng, n)
            assert bs.is_irreducible(T)
            res = bs.fixed_point(T)
            assert res.is_unique
            assert res.representative.is_interior()


class TestApply:
    def test_demon_on_uniform(self, demon):
        q = bs.apply(demon, ProbVec.uniform(4, mode=EXACT))
        assert q == ProbVec([Fraction(3, 8), Fraction(1, 8), Fraction(1, 8), Fraction(3, 8)], mode=EXACT)

    def test_identity(self):
        p = ProbVec([0.2, 0.3, 0.5], mode=FLOAT)
        assert bs.apply(StochMatrix.identity(3), p) == p

    def test_two_state_on_vertex(self):
        T = bs.two_state(Fraction(1, 2), Fraction(1, 2))
        q = bs.apply(T, ProbVec([1, 0], mode=EXACT))
        assert q == ProbVec([Fraction(1, 2), Fraction(1, 2)], mode=EXACT)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            T = random_stochastic_float(rng, n)
            p = random_prob_vec_float(rng, n)
            q = bs.apply(T, p)  # ProbVec constructor enforces the invariant
            assert abs(float(np.sum(q.a)) - 1.0) <= 1e-12

    def test_dimension_and_mode_errors(self, demon):
        with pytest.raises(DimensionMismatch):
            bs.apply(demon, ProbVec.uniform(3, mode=EXACT))
        with pytest.raises(ModeMismatch):
            bs.apply(demon, ProbVec.uniform(4, mode=FLOAT))


class TestIterate:
    def test_zero_steps(self, demon):
        p = ProbVec.uniform(4, mode=EXACT)
        trajectory, _ = bs.iterate(demon, p, 0)
        assert trajectory == [p]

    def test_demon_converges_to_fixed_point(self, demon_float):
        trajectory, converged = bs.iterate(demon_float, ProbVec.uniform(4), 60)
        assert converged
        assert np.max(np.abs(trajectory[-1].a - np.array([0.5, 0, 0, 0.5]))) <= 1e-10

    def test_two_state_converges(self):
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3), mode=FLOAT)
        trajectory, _ = bs.iterate(T, ProbVec.uniform(2), 100)
        # fixed point from the exact nullspace: (1/3, 2/3)
        assert np.max(np.abs(trajectory[-1].a - np.array([1 / 3, 2 / 3]))) <= 1e-10

    @pytest.mark.parametrize(
        "T, p, error",
        [
            (StochMatrix([[0.5, 0.5], [0.6, 0.5]]), ProbVec.uniform(2), NotStochastic),
            (bs.maxwell_demon(mode=EXACT), ProbVec.uniform(4), ModeMismatch),
            (bs.maxwell_demon(mode=EXACT), ProbVec.uniform(3, mode=EXACT), DimensionMismatch),
            (StochMatrix([[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]), ProbVec.uniform(3), DimensionMismatch),
        ],
        ids=["not-left-stochastic", "mode-mismatch", "wrong-length", "not-square"],
    )
    def test_rejects_before_first_step(self, T, p, error):
        with pytest.raises(error):
            bs.iterate(T, p, 3)
        # zero steps check nothing and return the start
        assert bs.iterate(T, p, 0) == ([p], False)

    def test_non_square_takes_one_step(self):
        T = StochMatrix([[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]])
        p = ProbVec.uniform(3)
        assert bs.iterate(T, p, 1) == ([p, bs.apply(T, p)], False)


class TestSerialization:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = random_stochastic_exact(rng, int(rng.integers(2, 6)))
            assert bs.matrix_from_json(bs.matrix_to_json(T)) == T

    def test_float_round_trip_bit_identical(self):
        import json

        rng = np.random.default_rng(4)
        for _ in range(20):
            T = random_stochastic_float(rng, int(rng.integers(2, 6)))
            # through an actual JSON text round trip
            back = bs.matrix_from_json(json.loads(json.dumps(bs.matrix_to_json(T))))
            assert back == T

    def test_vector_round_trip(self):
        p = ProbVec([Fraction(1, 3), Fraction(2, 3)], mode=EXACT)
        obj = bs.vector_to_json(p)
        assert obj["cols"] == 1
        assert bs.vector_from_json(obj) == p
