import math

import numpy as np
import pytest

import bistoch as bs
from bistoch import FLOAT, StochMatrix
from bistoch.errors import NonPositiveEntry, NotConverged, ParameterOutOfRange

from conftest import random_prob_vec_float


def sweeps_reference(T, tol=1e-10):
    """Row-then-column sweeps that sum the rows twice each: once to scale
    them and once more for the defect.  Returns (d1, d2, a, sweeps, defect)."""
    a = T.a.copy()
    d1, d2 = np.ones(len(a)), np.ones(len(a))
    sweep = 0
    while True:
        sweep += 1
        row_scale = 1.0 / a.sum(axis=1)
        a *= row_scale[:, None]
        d1 *= row_scale
        col_scale = 1.0 / a.sum(axis=0)
        a *= col_scale[None, :]
        d2 *= col_scale
        defect = max(float(np.max(np.abs(a.sum(axis=0) - 1.0))), float(np.max(np.abs(a.sum(axis=1) - 1.0))))
        if defect <= tol:
            return d1, d2, a, sweep, defect


def balanced_2x2(a, b):
    """Independent evaluation of diag(d1) T diag(d2) from the closed form."""
    d1, d2, p = bs.sinkhorn_2x2(a, b)
    T = np.array([[1.0 - b, a], [b, 1.0 - a]])
    return np.diag(d1) @ T @ np.diag(d2), p


class TestClosedForm:
    def test_symmetric_half(self):
        d1, d2, p = bs.sinkhorn_2x2(0.5, 0.5)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(d1, [1.0, 1.0]) and np.allclose(d2, [1.0, 1.0])

    def test_complementary_parameters_balance_to_half(self):
        # a + b = 1 makes ab = (1-a)(1-b), hence p = 1/2
        for a in (0.1, 0.3, 0.25):
            S, p = balanced_2x2(a, 1.0 - a)
            assert p == pytest.approx(0.5, abs=1e-15)
            assert np.allclose(S, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_hand_computed_value(self):
        # a = 0.2, b = 0.4: p = sqrt(0.08) / (sqrt(0.48) + sqrt(0.08))
        _, p = balanced_2x2(0.2, 0.4)
        assert p == pytest.approx(math.sqrt(0.08) / (math.sqrt(0.48) + math.sqrt(0.08)), abs=1e-15)
        assert p == pytest.approx(0.2898979485566356, abs=1e-12)

    def test_balanced_matrix_is_symmetric_bistochastic(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            a, b = rng.uniform(0.02, 0.98, size=2)
            S, p = balanced_2x2(a, b)
            assert np.allclose(S, [[1.0 - p, p], [p, 1.0 - p]], atol=1e-12)
            assert np.allclose(S.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(S.sum(axis=1), 1.0, atol=1e-12)
            assert 0.0 < p < 1.0

    def test_parameter_range_enforced(self):
        for a, b in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.1)):
            with pytest.raises(ParameterOutOfRange):
                bs.sinkhorn_2x2(a, b)


class TestIterative:
    def test_balances_random_positive_matrices(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            raw = rng.random((n, n)) + 0.05
            T = StochMatrix(raw / raw.sum(axis=0), mode=FLOAT)
            res = bs.sinkhorn_knopp(T)
            assert res.final_defect <= 1e-10
            assert bs.validate(res.matrix, tol=1e-9).bi
            # the accumulated diagonals reproduce the balanced matrix
            rebuilt = np.diag(res.d1) @ T.a @ np.diag(res.d2)
            assert np.max(np.abs(rebuilt - res.matrix.a)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_sweeps_match_reference_bytes(self, n):
        # each sweep sums the rows once; the result is the reference's, bit for bit
        T = StochMatrix(np.random.default_rng(300 + n).random((n, n)) + 0.01, mode=FLOAT)
        res = bs.sinkhorn_knopp(T)
        d1, d2, a, sweeps, defect = sweeps_reference(T)
        assert res.d1.tobytes() == d1.tobytes() and res.d2.tobytes() == d2.tobytes()
        assert res.matrix.a.tobytes() == a.tobytes()
        assert res.iterations == sweeps and res.final_defect.hex() == defect.hex()

    def test_already_bistochastic_converges_immediately(self):
        T = StochMatrix([[0.5, 0.5], [0.5, 0.5]], mode=FLOAT)
        res = bs.sinkhorn_knopp(T)
        assert res.iterations == 1
        assert np.allclose(res.d1, 1.0) and np.allclose(res.d2, 1.0)

    def test_matches_closed_form_after_gauge_fixing(self):
        rng = np.random.default_rng(93)
        for _ in range(100):
            a, b = rng.uniform(0.05, 0.95, size=2)
            T = bs.two_state(a, b, mode=FLOAT)
            res = bs.sinkhorn_knopp(T, tol=1e-14)
            d1, d2, p = bs.sinkhorn_2x2(a, b)
            # the diagonals carry a scalar gauge freedom (c d1, d2 / c)
            c = d1[0] / res.d1[0]
            assert np.max(np.abs(res.d1 * c - d1)) <= 1e-8
            assert np.max(np.abs(res.d2 / c - d2)) <= 1e-8
            assert np.max(np.abs(res.matrix.a - [[1 - p, p], [p, 1 - p]])) <= 1e-8

    def test_preserves_cross_ratios(self):
        # diagonal scaling cannot change a[0,0] a[1,1] / (a[0,1] a[1,0])
        rng = np.random.default_rng(94)
        for _ in range(20):
            raw = rng.random((2, 2)) + 0.05
            T = StochMatrix(raw / raw.sum(axis=0), mode=FLOAT)
            res = bs.sinkhorn_knopp(T)
            before = T.a[0, 0] * T.a[1, 1] / (T.a[0, 1] * T.a[1, 0])
            after = res.matrix.a[0, 0] * res.matrix.a[1, 1] / (res.matrix.a[0, 1] * res.matrix.a[1, 0])
            assert after == pytest.approx(before, rel=1e-8)

    def test_rejects_zero_entry(self):
        with pytest.raises(NonPositiveEntry):
            bs.sinkhorn_knopp(StochMatrix.identity(3))

    def test_rejects_non_square(self):
        T = StochMatrix([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], mode=FLOAT)
        with pytest.raises(ParameterOutOfRange):
            bs.sinkhorn_knopp(T)

    def test_rejects_bad_tol(self):
        T = StochMatrix([[0.5, 0.5], [0.5, 0.5]], mode=FLOAT)
        with pytest.raises(ParameterOutOfRange):
            bs.sinkhorn_knopp(T, tol=0.0)

    def test_not_converged_reports_defect(self):
        T = bs.two_state(0.2, 0.4, mode=FLOAT)
        with pytest.raises(NotConverged) as err:
            bs.sinkhorn_knopp(T, tol=1e-15, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.defect > 1e-15
