import sys
from fractions import Fraction

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix
from bistoch.core import RESIDUAL_TOL
from bistoch.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ModeMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NotStochastic,
)

from conftest import (
    random_prob_vec_exact,
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

    @pytest.mark.parametrize(
        "cls, data",
        [
            (StochMatrix, [[0.5, -0.2], [0.6, -0.1]]),
            (StochMatrix, [[1.0, 1.0], [float("nan"), 0.0]]),
            (StochMatrix, [[1.0, -1.0], [float("inf"), 0.0]]),
            (StochMatrix, [[0.5, 0.5], [0.5, -2e-9]]),
            (ProbVec, [0.5, float("-inf"), 0.5]),
            (ProbVec, [1.5, -0.5]),
        ],
    )
    def test_from_array_raises_as_the_public_constructor(self, cls, data):
        with pytest.raises((NegativeEntry, NonFiniteEntry)) as public:
            cls(data, mode=FLOAT)
        with pytest.raises(type(public.value)) as handed_over:
            cls._from_nums(np.array(data), 1.0)
        assert handed_over.value.index == public.value.index
        assert repr(handed_over.value.value) == repr(public.value.value)

    def test_non_finite_named_before_negative(self):
        # the first non-finite entry is named even where a negative one comes before it
        with pytest.raises(NonFiniteEntry) as exc_info:
            StochMatrix([[0.5, -0.2], [float("nan"), 0.1]], mode=FLOAT)
        assert exc_info.value.index == (1, 0)
        with pytest.raises(NegativeEntry) as exc_info:
            ProbVec([0.5, -0.2, 0.3, -0.1, 0.5], mode=FLOAT)
        assert exc_info.value.index == (1,) and exc_info.value.value == -0.2

    def test_empty_float_vector_is_refused_by_its_sum(self):
        with pytest.raises(NotStochastic, match="entries sum to 0.0"):
            ProbVec(np.zeros(0), mode=FLOAT)

    def test_from_array_keeps_the_array_and_the_constructor_copies(self):
        data = np.full((2, 2), 0.5)
        assert StochMatrix._from_nums(data, 1.0).a is data
        assert not np.shares_memory(StochMatrix(data, mode=FLOAT).a, data)
        assert not np.shares_memory(ProbVec(data[0], mode=FLOAT).a, data)
        assert StochMatrix._from_nums(data, 1.0) == StochMatrix(data, mode=FLOAT)

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
        assert not bs.validate(demon).irreducible

    def test_identity_reducible(self):
        assert not bs.validate(StochMatrix.identity(2, mode=EXACT)).irreducible

    def test_two_state_half_irreducible(self):
        assert bs.validate(bs.two_state(Fraction(1, 2), Fraction(1, 2))).irreducible

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
            assert bs.validate(T).irreducible == nx.is_strongly_connected(g)
            # closed classes, in least-state order, are the attracting components
            closed = sorted((sorted(c) for c in nx.attracting_components(g)), key=min)
            assert [c.tolist() for c in bs.core._recurrent_classes(T)] == closed
            res = bs.fixed_point(T)
            assert res.face_dimension == len(closed) - 1
            assert np.flatnonzero(res.representative.a).tolist() == sorted(sum(closed, []))


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
            assert bs.validate(T).irreducible
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

    @pytest.mark.parametrize("seed", range(8))
    def test_float_trajectory_matches_per_step_products(self, seed):
        # every iterate is Tf @ q of the one before, bit for bit, and the flag is
        # set iff some step moves no entry by more than RESIDUAL_TOL
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 25))
        T, p = random_stochastic_float(rng, n), random_prob_vec_float(rng, n)
        steps = int(rng.integers(1, 120))
        trajectory, converged = bs.iterate(T, p, steps)
        expected = [p.a]
        for _ in range(steps):
            expected.append(T.a @ expected[-1])
        assert len(trajectory) == steps + 1 and trajectory[0] is p
        for got, want in zip(trajectory, expected):
            assert type(got) is ProbVec and got.mode == FLOAT and got.den == 1.0
            assert got.a.dtype == np.float64 and got.a.tobytes() == want.tobytes()
        assert converged is any(np.max(np.abs(b - a)) <= RESIDUAL_TOL for a, b in zip(expected, expected[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_trajectory_matches_fraction_products(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(1, 7))
        T = random_stochastic_exact(rng, n)
        p = random_prob_vec_exact(rng, n)
        trajectory, converged = bs.iterate(T, p, 6)
        q = p
        for got in trajectory[1:]:
            q = ProbVec(list(T.a @ q.a), mode=EXACT)
            assert got.den == q.den and got.nums.dtype == q.nums.dtype and np.array_equal(got.nums, q.nums)
        change = [max(abs(x - y) for x, y in zip(a.a, b.a)) for a, b in zip(trajectory, trajectory[1:])]
        assert converged is any(c <= RESIDUAL_TOL for c in change)

    def test_sum_drift_raises_at_the_step_it_passes_the_tolerance(self):
        # each column sums to 1 + 4e-10, which validate accepts; the sum of the
        # iterate grows by that factor per step and passes DEFAULT_TOL at step 3
        a = np.random.default_rng(1).random((3, 3))
        T = StochMatrix(a / a.sum(axis=0) * (1 + 4e-10), mode=FLOAT)
        u = ProbVec.uniform(3)
        assert bs.validate(T).left
        assert len(bs.iterate(T, u, 2)[0]) == 3
        q = T.a @ (T.a @ u.a)
        with pytest.raises(NotStochastic) as per_step:
            ProbVec._from_nums(T.a @ q, 1.0)
        for steps in (3, 50):
            with pytest.raises(NotStochastic) as exc_info:
                bs.iterate(T, u, steps)
            assert str(exc_info.value) == str(per_step.value) == "entries sum to 1.0000000012, expected 1"

    def test_negative_iterate_named_as_its_step_would(self):
        # p's entries of -1e-9 are within the slack; T adds two of them into one entry
        T = StochMatrix([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]], mode=FLOAT)
        p = ProbVec([1 + 2e-9, -1e-9, -1e-9], mode=FLOAT)
        with pytest.raises(NegativeEntry) as per_step:
            ProbVec._from_nums(T.a @ p.a, 1.0)
        with pytest.raises(NegativeEntry) as exc_info:
            bs.iterate(T, p, 5)
        assert exc_info.value.index == per_step.value.index == (1,)
        assert repr(exc_info.value.value) == repr(per_step.value.value)

    def test_rows_raise_the_first_failing_rows_error(self):
        rows = np.array([[0.5, 0.5], [1.5, -0.5], [float("nan"), 1.0], [0.6, 0.6]])
        with pytest.raises(NegativeEntry) as exc_info:
            ProbVec._from_rows(rows)
        assert exc_info.value.index == (1,)
        with pytest.raises(NonFiniteEntry):
            ProbVec._from_rows(rows[2:])
        with pytest.raises(NotStochastic, match="1.2"):
            ProbVec._from_rows(rows[3:])
        (vector,) = ProbVec._from_rows(rows[:1])
        assert vector == ProbVec([0.5, 0.5], mode=FLOAT) and np.shares_memory(vector.a, rows)


class TestExactEntry:
    """An exact token with an exponent whose numerator or denominator has more
    digits than the interpreter's limit on int digits is refused, and a far
    exponent is refused before Python expands it."""

    @pytest.mark.parametrize(
        "token",
        ["1e4300", "1e5000", "2.5E-5000", "3e+4_300", " 1e50000000 ", "0.1e4301", "1.5e-4300", "1" * 3000 + "e3000"],
    )
    def test_too_many_digits_is_refused(self, token):
        with pytest.raises(ValueError, match="4300-digit limit"):
            bs.matrix_from_json({"mode": "exact", "rows": 1, "cols": 1, "data": [[token]]})

    def test_digits_within_the_limit_are_read(self):
        M = StochMatrix([["1e4299", "1e-4299", "0.1e4300", "1000e-4302", "1.5e-4299"]], mode=EXACT)
        assert M.a.tolist() == [[Fraction(10**4299), Fraction(1, 10**4299), Fraction(10**4299), Fraction(1, 10**4299),
                                 Fraction(3, 2 * 10**4299)]]

    @pytest.mark.parametrize("token", ["0e5000", "-0.000E50000000", "0e-50000000"])
    def test_zero_with_any_exponent_is_read(self, token):
        assert StochMatrix([[token]], mode=EXACT).a.tolist() == [[Fraction(0)]]

    def test_a_malformed_mantissa_is_refused(self):
        with pytest.raises(ValueError):
            StochMatrix([["0/1e5"]], mode=EXACT)

    @pytest.mark.parametrize("no_limit", [lambda: 0, None], ids=["limit-zero", "no-limit-function"])
    def test_no_limit_reads_every_exponent(self, monkeypatch, no_limit):
        # 0 switches the limit off; Python 3.10 before 3.10.7 has no limit and no function to read it
        if no_limit is None:
            monkeypatch.delattr(sys, "get_int_max_str_digits")
        else:
            monkeypatch.setattr(sys, "get_int_max_str_digits", no_limit)
        assert ProbVec(["1e-5000", 1 - Fraction("1e-5000")], mode=EXACT).a[0] == Fraction(1, 10**5000)


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
