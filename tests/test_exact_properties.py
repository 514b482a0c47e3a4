"""Property tests of exact mode against a Fraction reference written here.

Exact sums, checks and peels run on integer numerators over one common
denominator inside the library; every result must equal, in value and in
``Fraction`` entry type, what plain Fraction arithmetic gives.  Matrices are
drawn with nonzero defects and with pairwise-coprime denominators, and
partitions with shuffled classes.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bistoch as bs
from bistoch import EXACT, Partition, ProbVec, RightInverse, StochMatrix, core
from bistoch.entropy import _perfect_matching

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _composition(rng, total, parts):
    """``parts`` non-negative ints summing to ``total``, not all zero."""
    cuts = np.sort(rng.integers(0, total + 1, size=parts - 1))
    return [int(b - a) for a, b in zip([0, *cuts], [*cuts, total])]


def _columns_to_matrix(columns):
    return StochMatrix([list(row) for row in zip(*columns)], mode=EXACT)


@st.composite
def exact_matrices(draw, kind=None, square=True):
    """Exact matrices of three kinds, built from a drawn seed.

    ``stochastic``: column-stochastic with small mixed denominators;
    ``coprime``: column-stochastic, column k over the k-th prime, so the
    denominators are pairwise coprime; ``defect``: columns summing to drawn
    values other than 1, so the defects are nonzero.
    """
    kind = kind or draw(st.sampled_from(["stochastic", "coprime", "defect"]))
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for k in range(cols):
        if kind == "coprime":
            q = PRIMES[k]
            columns.append([Fraction(w, q) for w in _composition(rng, q, rows)])
        else:
            q = int(rng.integers(1, 13))
            weights = _composition(rng, q, rows)
            scale = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) if kind == "defect" else 1
            columns.append([Fraction(w, q) * scale for w in weights])
    return _columns_to_matrix(columns)


@st.composite
def permutation_mixtures(draw, d=None):
    """Exact bi-stochastic matrix: a mixture of permutations whose weights have
    pairwise-coprime denominators."""
    d = d or draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = draw(st.integers(1, 5))
    weights = [Fraction(1, PRIMES[k] * (k + 2)) for k in range(terms - 1)]
    weights.append(1 - sum(weights, Fraction(0)))
    S = np.full((d, d), Fraction(0), dtype=object)
    for w in weights:
        sigma = rng.permutation(d)
        for c in range(d):
            S[sigma[c], c] += w
    return StochMatrix(S, mode=EXACT)


@st.composite
def reducible_matrices(draw):
    """Exact stochastic matrices with closed blocks and transient states, states shuffled.

    A column of a block state spreads its mass over that block only, and a
    column of a transient state over all states; zero weights may split a
    block further.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = np.cumsum([0, *sizes])
    columns = []
    for k in range(n):
        block = next((range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo <= k < hi), range(n))
        q = int(rng.integers(1, 13))
        column = [Fraction(0)] * n
        for m, w in zip(block, _composition(rng, q, len(block))):
            column[m] = Fraction(w, q)
        columns.append(column)
    order = draw(st.permutations(range(n)))
    a = np.array(columns, dtype=object).T
    return StochMatrix(a[np.ix_(order, order)], mode=EXACT)


@st.composite
def shuffled_partitions(draw, n=None):
    """Partition of d states into n classes, labels drawn in shuffled order."""
    n = n or draw(st.integers(1, 4))
    d = draw(st.integers(n, n + 6))
    labels = list(range(n)) + draw(st.lists(st.integers(0, n - 1), min_size=d - n, max_size=d - n))
    order = draw(st.permutations(range(d)))
    classes = [[nu for nu in range(d) if labels[order[nu]] == k] for k in range(n)]
    return Partition(d=d, classes=tuple(map(tuple, classes)))


def assert_fractions_equal(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    assert all(type(v) is Fraction for v in got.flat)
    assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------

def fsum(values):
    return sum(values, Fraction(0))


def ref_validate(M):
    a = M.a
    rows, cols = a.shape
    col_defect = max(abs(fsum(a[:, k]) - 1) for k in range(cols))
    row_defect = max(abs(fsum(a[m, :]) - 1) for m in range(rows))
    left, right = col_defect == 0, row_defect == 0
    irreducible = rows == cols and left and all(len(r) == rows for r in ref_reach(a))
    return left, right, left and right and rows == cols, irreducible, col_defect, row_defect


def ref_reach(a):
    """Reachability closure of the support digraph n -> m when a[m, n] > 0."""
    n = len(a)
    reach = [{k} | {m for m in range(n) if a[m, k] > 0} for k in range(n)]
    for _ in range(n):
        reach = [set().union(*(reach[v] for v in r)) for r in reach]
    return reach


def ref_closed_classes(a):
    """Closed classes: the reach sets of states that every state they reach reaches back."""
    reach = ref_reach(a)
    closed = {frozenset(reach[k]) for k in range(len(a)) if all(k in reach[m] for m in reach[k])}
    return sorted((sorted(c) for c in closed), key=min)


def ref_extract(R, zero_index, n):
    m_env = R.rows // n
    return [[fsum(R.a[i * n + m, zero_index * n + k] for i in range(m_env)) for k in range(n)] for m in range(n)]


def ref_marginal_identity(T, R, rho):
    n, m_env = T.rows, rho.n
    return all(
        fsum(R.a[i * n + m, j * n + k] * rho.a[j] for i in range(m_env) for j in range(m_env)) == T.a[m, k]
        for m in range(n)
        for k in range(n)
    )


def ref_coarse_grain(S, P, Y):
    X = [[Fraction(int(nu in P.classes[k])) for nu in range(P.d)] for k in range(P.n)]
    XS = [[fsum(X[k][nu] * S.a[nu, mu] for nu in range(P.d)) for mu in range(P.d)] for k in range(P.n)]
    return [[fsum(XS[k][mu] * Y.matrix.a[mu, l] for mu in range(P.d)) for l in range(P.n)] for k in range(P.n)]


def ref_birkhoff(S):
    """Greedy peeling on Fractions with the library's matching routine."""
    resid = [[Fraction(v) for v in row] for row in S.a.tolist()]
    n = S.rows
    terms = []
    while max(max(row) for row in resid) > 0:
        adjacency = [[r for r in range(n) if resid[r][c] > 0] for c in range(n)]
        sigma = _perfect_matching(adjacency, n)
        w = min(resid[sigma[c]][c] for c in range(n))
        for c in range(n):
            resid[sigma[c]][c] -= w
        terms.append((w, tuple(sigma)))
    return terms


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestValidate:
    @SETTINGS
    @given(exact_matrices(square=False))
    def test_flags_and_defects(self, M):
        report = bs.validate(M)
        got = (report.left, report.right, report.bi, report.irreducible, report.max_column_defect, report.max_row_defect)
        assert got == ref_validate(M)
        assert type(report.max_column_defect) is Fraction and type(report.max_row_defect) is Fraction

    @SETTINGS
    @given(exact_matrices(kind="defect"))
    def test_defects_are_nonzero_fractions(self, M):
        report = bs.validate(M)
        assert report.max_column_defect == ref_validate(M)[4]
        if report.max_column_defect:
            assert not report.left and not report.irreducible


class TestFixedPoint:
    @SETTINGS
    @given(reducible_matrices())
    def test_class_laws_span_the_face(self, T):
        closed = ref_closed_classes(T.a)
        res = bs.fixed_point(T)
        assert res.face_dimension == len(closed) - 1 and res.is_unique is (len(closed) == 1)
        rep = res.representative.a
        assert all(type(v) is Fraction for v in rep) and all(type(v) is Fraction for b in res.basis for v in b)
        assert (T.a @ rep).tolist() == rep.tolist()
        # rep is the mean of the class laws and the basis their differences from the first law
        first = rep - sum(res.basis, np.full(T.rows, Fraction(0), dtype=object)) / len(closed)
        for members, law in zip(closed, [first] + [first + b for b in res.basis]):
            assert (T.a @ law).tolist() == law.tolist() and sum(law) == 1
            assert np.flatnonzero(law).tolist() == members and all(v >= 0 for v in law)


class TestExtract:
    @SETTINGS
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_reference(self, n, m_env, data):
        R = data.draw(permutation_mixtures(d=n * m_env))
        zero_index = data.draw(st.integers(0, m_env - 1))
        T = bs.extract_dilated(R, zero_index, system_size=n)
        assert T.mode == EXACT
        assert_fractions_equal(T.a, ref_extract(R, zero_index, n))

    @SETTINGS
    @given(exact_matrices(kind="coprime"))
    def test_noisy_round_trip(self, T):
        if T.rows < 2:
            return
        assert_fractions_equal(bs.extract_dilated(bs.noisy_dilation(T).matrix, 0).a, T.a)


def _perturbed(R, n, j):
    """R with mass moved between two system rows of one column in environment block j."""
    a = R.a.copy()
    col = j * n
    donor = next(r for r in range(R.rows) if a[r, col] > 0)
    receiver = next(r for r in range(R.rows) if r % n != donor % n)
    eps = a[donor, col] / 2
    a[donor, col] -= eps
    a[receiver, col] += eps
    return StochMatrix(a, mode=EXACT)


def _block_dilation(T, m_env):
    """R[(m,i),(k,j)] = T[m,k] delta(i,j): its first marginal is T p for every rho."""
    n = T.rows
    view = np.full((m_env, n, m_env, n), Fraction(0), dtype=object)
    for i in range(m_env):
        view[i, :, i, :] = T.a
    return StochMatrix(view.reshape(n * m_env, n * m_env), mode=EXACT)


class TestVerifyEnvDilation:
    @SETTINGS
    @given(exact_matrices(kind="coprime"))
    def test_point_mass_rho(self, T):
        n = T.rows
        if n < 2:
            return
        E = bs.noisy_dilation(T)
        assert bs.verify_env_dilation(T, E) is True
        bad = bs.EnvDilation(env_size=n, rho=E.rho, matrix=_perturbed(E.matrix, n, 0))
        assert ref_marginal_identity(T, bad.matrix, bad.rho) is False
        assert bs.verify_env_dilation(T, bad) is False

    @SETTINGS
    @given(exact_matrices(), st.integers(2, 4), st.data())
    def test_mixed_rho(self, T, m_env, data):
        n = T.rows
        if n < 2:
            return
        weights = data.draw(
            st.lists(st.integers(0, 5), min_size=m_env, max_size=m_env).filter(lambda w: sum(map(bool, w)) >= 2)
        )
        rho = ProbVec([Fraction(w, sum(weights)) for w in weights], mode=EXACT)
        R = _block_dilation(T, m_env)
        assert bs.verify_env_dilation(T, bs.EnvDilation(env_size=m_env, rho=rho, matrix=R)) is True
        for j in range(m_env):
            bad = _perturbed(R, n, j)
            want = ref_marginal_identity(T, bad, rho)
            assert want is (rho.a[j] == 0)  # a block outside rho's support is never read
            assert bs.verify_env_dilation(T, bs.EnvDilation(env_size=m_env, rho=rho, matrix=bad)) is want


class TestCoarseGrain:
    @SETTINGS
    @given(shuffled_partitions(), st.data())
    def test_matches_reference(self, P, data):
        S = data.draw(permutation_mixtures(d=P.d))
        # a right inverse whose class k spreads over its members with the k-th prime as denominator
        Y = np.full((P.d, P.n), Fraction(0), dtype=object)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for k, members in enumerate(P.classes):
            Y[list(members), k] = [Fraction(w, PRIMES[k]) for w in _composition(rng, PRIMES[k], len(members))]
        Y = RightInverse(partition=P, matrix=StochMatrix(Y, mode=EXACT))
        T = bs.coarse_grain(S, P, Y)
        assert T.mode == EXACT
        assert_fractions_equal(T.a, ref_coarse_grain(S, P, Y))

    @SETTINGS
    @given(
        st.integers(1, 3),
        st.lists(st.integers(0, 5), min_size=2, max_size=4).filter(lambda w: sum(w) > 0 and 0 in w),
        st.data(),
    )
    def test_product_section_with_zero_rows(self, n, weights, data):
        # rho has zero entries, so Y has zero rows, which the contraction skips
        rho = ProbVec([Fraction(w, sum(weights)) for w in weights], mode=EXACT)
        Y = bs.product_right_inverse(n, rho)
        assert not Y.matrix.a.any(axis=1).all()
        assert all(type(v) is Fraction for v in Y.matrix.a.flat)
        S = data.draw(permutation_mixtures(d=Y.partition.d))
        assert_fractions_equal(bs.coarse_grain(S, Y.partition, Y).a, ref_coarse_grain(S, Y.partition, Y))

    @SETTINGS
    @given(shuffled_partitions(), st.data())
    def test_uniform_dilation(self, P, data):
        # T = X S Y with the uniform Y fixes p = (class sizes) / d: Y p is uniform
        S = data.draw(permutation_mixtures(d=P.d))
        T = bs.coarse_grain(S, P, bs.uniform_right_inverse(P))
        p = ProbVec([Fraction(s, P.d) for s in P.class_sizes], mode=EXACT)
        dil = bs.uniform_dilation(T, p)
        labels = dil.partition.labels
        want = [[T.a[labels[nu], labels[mu]] / dil.partition.class_sizes[labels[nu]] for mu in range(dil.partition.d)]
                for nu in range(dil.partition.d)]
        assert_fractions_equal(dil.matrix.a, want)
        assert dil.checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}
        assert_fractions_equal(bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse).a, T.a)


class TestBirkhoff:
    @SETTINGS
    @given(permutation_mixtures())
    def test_terms_match_reference(self, S):
        dec = bs.birkhoff_decompose(S)
        assert dec.terms == ref_birkhoff(S)
        assert all(type(w) is Fraction and w > 0 for w, _ in dec.terms)
        assert dec.residual_mass == 0 and type(dec.residual_mass) is Fraction
        assert dec.reconstruct(mode=EXACT) == S
        # peeling works on a copy: the input's numerators are left intact
        assert bs.birkhoff_decompose(S).terms == dec.terms


class TestNumerators:
    @SETTINGS
    @given(exact_matrices(square=False))
    def test_round_trip(self, M):
        nums, L = core._numerators(M.a)
        assert all(type(v) is int for v in nums.flat)
        assert L == np.lcm.reduce([v.denominator for v in M.a.flat])
        assert_fractions_equal(core._fractions(nums, L), M.a)
        # the constructor keeps the same numerators
        assert all(type(v) is int for v in M.nums.flat) and type(M.den) is int
        assert M.den == L and M.nums.tolist() == nums.tolist()
        assert_fractions_equal(core._fractions(M.nums, M.den), M.a)
        F = M.to_float()
        assert F.nums is F.a and F.den == 1.0


@pytest.fixture
def no_irreducibility(monkeypatch):
    def refuse(adj, start, within=True):
        raise AssertionError("support digraph searched for a caller that does not read it")

    monkeypatch.setattr(core, "_reached", refuse)


@pytest.fixture
def converted(monkeypatch):
    """The entries ``core._numerators`` converts, one list per call."""
    calls = []
    numerators = core._numerators

    def counting(a):
        calls.append(list(a.flat))
        return numerators(a)

    monkeypatch.setattr(core, "_numerators", counting)
    return calls


class TestNoUnreadWork:
    """Only ``validate``, ``is_irreducible`` and ``fixed_point`` search the
    support digraph, and only the constructor converts entries to numerators."""

    def test_no_entry_of_a_prebuilt_dilation_is_converted_again(self, demon, converted):
        E = bs.noisy_dilation(demon)
        R = E.matrix
        converted.clear()
        T, verified, report, dec = (
            bs.extract_dilated(R, 0), bs.verify_env_dilation(demon, E), core._sum_check(R), bs.birkhoff_decompose(R)
        )
        entries_of_r = {id(v) for v in R.a.flat}
        assert not any(id(v) in entries_of_r for call in converted for v in call)
        # what these calls convert are point masses, sections and results, each smaller than R
        assert converted and max(len(call) for call in converted) < R.a.size
        assert T == demon and verified is True and report.bi and dec.reconstruct(mode=EXACT) == R

    def test_dilations_checks_and_decomposition(self, demon, no_irreducibility):
        E = bs.noisy_dilation(demon)
        assert bs.extract_dilated(E.matrix, 0) == demon
        assert bs.verify_env_dilation(demon, E) is True
        led = bs.entropy_ledger(demon, ProbVec.uniform(4, mode=EXACT))
        assert led.h_evolved >= led.h_lifted
        dec = bs.birkhoff_decompose(E.matrix)
        assert dec.reconstruct(mode=EXACT) == E.matrix
        T = bs.two_state(Fraction(1, 3), Fraction(1, 2))
        dil = bs.uniform_dilation(T, ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT))
        assert all(dil.checks.values())

    def test_float_mode(self, demon_float, no_irreducibility):
        E = bs.noisy_dilation(demon_float)
        assert bs.extract_dilated(E.matrix, 0).allclose(demon_float)
        assert bs.verify_env_dilation(demon_float, E) is True
        bs.birkhoff_decompose(E.matrix)

    def test_validate_still_reports_irreducibility(self, demon):
        assert bs.validate(demon).irreducible is False
        assert bs.validate(bs.two_state(Fraction(1, 3), Fraction(1, 2))).irreducible is True
