"""Property tests of exact mode against a Fraction reference written here.

Exact sums, checks and peels run on integer numerators over one common
denominator inside the library; every result must equal, in value and in
``Fraction`` entry type, what plain Fraction arithmetic gives.  Matrices are
drawn with nonzero defects and with pairwise-coprime denominators, and
partitions with shuffled classes.  Entry objects shared by a gather or a
broadcast must give the same values as fresh copies.  Birkhoff peeling is
also checked in float mode on the same permutation mixtures, and its
augmenting-path search against the recursive from-scratch matcher it
replaced.  Exact ``==``, which compares numerators, must agree with
comparing the Fractions, and the JSON round trip must give back the same
object in both modes.  An object built from values and codes must be the
object the public constructor builds from the same entries, and the
dilations built that way must equal what they gave built entry by entry.
Numerators are int64 where every sum of them provably fits, so matrices
are also drawn just under and just over that bound, and kernels whose
products pass 2**63 must still give the reference.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bistoch as bs
from bistoch import EXACT, FLOAT, Partition, ProbVec, StochMatrix, core, entropy, with_environment
from bistoch.core import RESIDUAL_TOL
from bistoch.entropy import _augment
from bistoch.errors import NegativeEntry, NotStochastic

from conftest import random_permutation_mixture, random_stochastic_exact

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
def permutation_mixtures(draw, d=None, mode=EXACT):
    """Bi-stochastic matrix: a mixture of permutations whose weights have
    pairwise-coprime denominators, exact or rounded to float."""
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
    S = StochMatrix(S, mode=EXACT)
    return S if mode == EXACT else S.to_float()


@st.composite
def supports(draw):
    """Column adjacency lists of a bipartite graph on n rows and n columns,
    with a planted perfect matching in about half the draws."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    planted = draw(st.one_of(st.none(), st.permutations(range(n))))
    return [[r for r in range(n) if edges[r * n + c] or (planted is not None and planted[c] == r)] for c in range(n)]


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


def assert_numerators(M):
    """M's ``den`` is a Python int, and its numerators are int64 exactly when
    ``max(max num, den) * entries < 2**63``, Python ints otherwise; either
    way they hand over Python ints."""
    nums = M.nums.reshape(-1).tolist()
    assert type(M.den) is int and all(type(v) is int for v in nums)
    assert M.nums.dtype == (np.int64 if max(*nums, M.den) * len(nums) < 2**63 else object)


def assert_python_ints(*values):
    """Every value is a Fraction whose numerator and denominator are Python ints."""
    assert all(type(v) is Fraction and type(v.numerator) is int and type(v.denominator) is int for v in values)


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
    return [[fsum(XS[k][mu] * Y.a[mu, l] for mu in range(P.d)) for l in range(P.n)] for k in range(P.n)]


def ref_birkhoff(S):
    """Greedy peeling on Fractions that keeps its matching, with the library's
    augmenting-path search: after each peel only the columns whose matched
    entry fell to zero are matched again."""
    resid = [[Fraction(v) for v in row] for row in S.a.tolist()]
    n = S.rows
    adjacency = [[r for r in range(n) if resid[r][c] > 0] for c in range(n)]
    match_row = [None] * n
    emptied = range(n)
    terms = []
    while max(max(row) for row in resid) > 0:
        assert all(_augment(adjacency, match_row, c) for c in emptied)
        sigma = [match_row.index(c) for c in range(n)]
        w = min(resid[sigma[c]][c] for c in range(n))
        for c in range(n):
            resid[sigma[c]][c] -= w
        terms.append((w, tuple(sigma)))
        emptied = [c for c in range(n) if resid[sigma[c]][c] == 0]
        for c in emptied:
            adjacency[c].remove(sigma[c])
            match_row[sigma[c]] = None
    return terms


def _recursive_augment(adjacency, match_row, c, visited):
    for r in adjacency[c]:
        if r in visited:
            continue
        visited.add(r)
        if match_row.get(r) is None or _recursive_augment(adjacency, match_row, match_row[r], visited):
            match_row[r] = c
            return True
    return False


def recursive_perfect_matching(adjacency, n):
    """The column-to-row matcher peeling used before it kept its matching:
    recursive augmenting paths from an empty matching, rows in increasing
    order.  Returns sigma with sigma[c] the matched row, or None."""
    match_row = {}
    for c in range(n):
        if not _recursive_augment(adjacency, match_row, c, set()):
            return None
    sigma = [0] * n
    for r, c in match_row.items():
        sigma[c] = r
    return sigma


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
        bad = replace(E, matrix=_perturbed(E.matrix, n, 0))
        assert ref_marginal_identity(T, bad.matrix, ProbVec.point_mass(n, 0, mode=EXACT)) is False
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
        assert bs.verify_env_dilation(T, with_environment(R, rho)) is True
        for j in range(m_env):
            bad = _perturbed(R, n, j)
            want = ref_marginal_identity(T, bad, rho)
            assert want is (rho.a[j] == 0)  # a block outside rho's support is never read
            assert bs.verify_env_dilation(T, with_environment(bad, rho)) is want


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
        Y = StochMatrix(Y, mode=EXACT)
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
        assert not Y.a.any(axis=1).all()
        assert all(type(v) is Fraction for v in Y.a.flat)
        P = Partition.first_marginal(n, rho.n)
        S = data.draw(permutation_mixtures(d=P.d))
        assert_fractions_equal(bs.coarse_grain(S, P, Y).a, ref_coarse_grain(S, P, Y))

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

    @SETTINGS
    @given(st.integers(1, 12).flatmap(lambda d: permutation_mixtures(d=d, mode=FLOAT)))
    def test_float_mixtures(self, S):
        dec = bs.birkhoff_decompose(S)
        assert all(w > 0 for w, _ in dec.terms)
        assert len(dec.terms) <= (S.rows - 1) ** 2 + 1
        assert np.max(np.abs(dec.reconstruct(mode=FLOAT).a - S.a)) <= dec.residual_mass + RESIDUAL_TOL
        assert bs.birkhoff_decompose(S).terms == dec.terms

    @SETTINGS
    @given(st.sampled_from([EXACT, FLOAT]).flatmap(lambda mode: permutation_mixtures(mode=mode)))
    def test_arrays_are_the_terms(self, S):
        # row j of perms and weights[j] are term j, in the same order
        dec = bs.birkhoff_decompose(S)
        k = len(dec.terms)
        assert dec.perms.shape == (k, S.rows) and dec.perms.dtype == np.intp and dec.weights.shape == (k,)
        assert [(w, tuple(sigma)) for w, sigma in zip(dec.weights, dec.perms.tolist())] == dec.terms
        assert all(sorted(sigma) == list(range(S.rows)) for sigma in dec.perms.tolist())
        if S.mode == EXACT:
            assert dec.weights.dtype == object and all(type(w) is Fraction for w in dec.weights)
        else:
            assert dec.weights.dtype == np.float64
        # the weights add in term order in both modes
        assert dec.weight_sum() == sum(w for w, _ in dec.terms)

    def test_matching_is_kept(self, monkeypatch):
        # each augmentation after the first matching follows a support edge a peel emptied
        calls = []

        def counting(*args):
            calls.append(args[2])
            return _augment(*args)

        monkeypatch.setattr(entropy, "_augment", counting)
        S = random_permutation_mixture(np.random.default_rng(48), 48, mode=EXACT)
        dec = bs.birkhoff_decompose(S)
        assert dec.reconstruct(mode=EXACT) == S
        assert len(calls) <= S.rows + np.count_nonzero(S.nums)


class TestAugment:
    @SETTINGS
    @given(supports())
    def test_matches_recursive_matcher(self, adjacency):
        # from an empty matching, columns 0, 1, ... in turn, as the first peel does
        n = len(adjacency)
        match_row = [None] * n
        for c in range(n):
            before = list(match_row)
            if not _augment(adjacency, match_row, c):
                assert match_row == before
                assert recursive_perfect_matching(adjacency, n) is None
                return
        assert [match_row.index(c) for c in range(n)] == recursive_perfect_matching(adjacency, n)


class TestNumerators:
    @SETTINGS
    @given(exact_matrices(square=False))
    def test_round_trip(self, M):
        nums, L = core._numerators(M.a)
        assert all(type(v) is int for v in nums.flat)
        assert L == np.lcm.reduce([v.denominator for v in M.a.flat])
        assert_fractions_equal(core._fractions(nums, L), M.a)
        # the constructor keeps the same numerators
        assert_numerators(M)
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


def _mixed(a):
    """The entries of a Fraction array as new objects: Fraction, str and int (or Fraction) in turn."""
    forms = (Fraction, str, lambda v: int(v) if v.denominator == 1 else Fraction(v))
    out = np.empty(a.shape, dtype=object)
    out.reshape(-1)[:] = [forms[k % 3](v) for k, v in enumerate(a.flat)]
    return out


class TestSharedEntries:
    """Exact data is converted once per distinct entry object, and sharing never changes a value."""

    @SETTINGS
    @given(exact_matrices(square=False), st.data())
    def test_sharing_never_changes_a_value(self, M, data):
        rows, cols = M.a.shape
        r = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
        c = data.draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=8))
        k = data.draw(st.integers(1, 4))
        # the gather repeats rows (the first at least once) and columns, the
        # broadcast repeats each entry of a law k times
        shared = _mixed(M.a)[np.ix_([*r, r[0]], c)]
        law = M.a[:, 0] / M.a[:, 0].sum()
        shared_law = np.broadcast_to(_mixed(law / k)[:, None], (rows, k)).reshape(-1)
        assert len({id(v) for v in shared.flat}) < shared.size
        for shared_data, cls, to_json in ((shared, StochMatrix, core.matrix_to_json),
                                          (shared_law, ProbVec, core.vector_to_json)):
            fresh = np.empty(shared_data.shape, dtype=object)
            fresh.reshape(-1)[:] = [Fraction(v) for v in shared_data.flat]
            A, B = cls(shared_data, mode=EXACT), cls(fresh, mode=EXACT)
            assert_fractions_equal(A.a, B.a)
            assert A.nums.tolist() == B.nums.tolist() and A.den == B.den
            assert_numerators(A)
            assert to_json(A) == to_json(B)

    def test_noisy_dilation_converts_each_distinct_entry_once(self, converted):
        n = 12
        T = random_stochastic_exact(np.random.default_rng(n), n)
        converted.clear()
        R = bs.noisy_dilation(T).matrix
        # a zero, the T[m, i] and the (1 - T[m, i]) / (N(N-1)): 2N^2 + 1 objects among the N^4 entries
        (call,) = [call for call in converted if len(call) > n]
        assert R.a.size == n**4 and len(call) <= 2 * n * n + 1
        assert {id(v) for v in call} == {id(v) for v in R.a.flat}
        assert_fractions_equal(bs.extract_dilated(R, 0).a, T.a)


def _changed(M, i, j, delta):
    """M with delta added to entry (i, j)."""
    a = M.a.copy()
    a[i, j] += delta
    return StochMatrix(a, mode=EXACT)


class TestExactEquality:
    """Exact ``==`` compares ``den`` and ``nums``; it must agree with
    comparing the Fractions entry by entry."""

    @staticmethod
    def ref_equal(A, B):
        return A.a.shape == B.a.shape and A.a.tolist() == B.a.tolist()

    @SETTINGS
    @given(exact_matrices(square=False), exact_matrices(square=False))
    def test_two_draws(self, M, N):
        # shapes and denominators differ between most draws
        assert (M == N) is self.ref_equal(M, N) is (N == M)
        assert (M == M) is True

    @SETTINGS
    @given(exact_matrices(square=False), st.data())
    def test_shared_entries(self, M, data):
        rows, cols = M.a.shape
        r = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
        c = data.draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=8))
        gathered = StochMatrix(_mixed(M.a)[np.ix_([*r, r[0]], c)], mode=EXACT)
        fresh = StochMatrix([[Fraction(v) for v in row] for row in M.a[np.ix_([*r, r[0]], c)]], mode=EXACT)
        assert gathered == fresh and fresh == gathered
        k = data.draw(st.integers(1, 4))
        law = M.a[:, 0] / M.a[:, 0].sum()
        broadcast = ProbVec(np.broadcast_to(_mixed(law / k)[:, None], (rows, k)).reshape(-1), mode=EXACT)
        copied = ProbVec([Fraction(v) for v in np.repeat(law / k, k)], mode=EXACT)
        assert broadcast == copied and copied == broadcast

    @SETTINGS
    @given(exact_matrices(square=False), st.data())
    def test_one_changed_entry(self, M, data):
        rows, cols = M.a.shape
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        delta = Fraction(1, data.draw(st.sampled_from([1, 2, 3, 7, M.den, 2 * M.den])))
        C = _changed(M, i, j, delta)
        assert self.ref_equal(C, M) is False
        assert (C == M) is False and (M == C) is False
        assert _changed(M, i, j, 0) == M

    @SETTINGS
    @given(exact_matrices(kind="stochastic", square=False))
    def test_other_types_and_modes(self, M):
        p = ProbVec(M.a[:, 0], mode=EXACT)
        column = StochMatrix(M.a[:, :1], mode=EXACT)
        assert p.__eq__(column) is NotImplemented and column.__eq__(p) is NotImplemented
        assert (p == column) is False and (column == p) is False
        F = M.to_float()
        assert (M == F) is False and (F == M) is False
        assert (p == p.to_float()) is False


class TestJsonRoundTrip:
    """``from_json(to_json(x)) == x`` in both modes, through a JSON string."""

    @SETTINGS
    @given(exact_matrices(square=False), st.booleans(), st.data())
    def test_matrix(self, M, as_float, data):
        rows, cols = M.a.shape
        r = data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
        M = StochMatrix(M.a[np.ix_(r, range(cols))], mode=EXACT)  # repeated rows share their entries
        M = M.to_float() if as_float else M
        back = core.matrix_from_json(json.loads(json.dumps(core.matrix_to_json(M))))
        assert back == M and back.mode == M.mode
        if M.mode == EXACT:
            assert_fractions_equal(back.a, M.a)
            assert back.den == M.den and back.nums.tolist() == M.nums.tolist()

    @SETTINGS
    @given(exact_matrices(kind="stochastic", square=False), st.booleans())
    def test_vector(self, M, as_float):
        p = ProbVec(M.a[:, -1], mode=EXACT)
        p = p.to_float() if as_float else p
        back = core.vector_from_json(json.loads(json.dumps(core.vector_to_json(p))))
        assert back == p and back.mode == p.mode
        if p.mode == EXACT:
            assert_fractions_equal(back.a, p.a)
            assert back.den == p.den and back.nums.tolist() == p.nums.tolist()

    def test_decoding_converts_each_distinct_value_once(self, converted):
        n = 6
        R = bs.noisy_dilation(random_stochastic_exact(np.random.default_rng(n), n)).matrix
        obj = json.loads(json.dumps(core.matrix_to_json(R)))
        converted.clear()
        back = core.matrix_from_json(obj)
        (call,) = converted
        assert len(call) == len({v for v in R.a.flat}) <= 2 * n * n + 1
        assert back == R
        assert_fractions_equal(back.a, R.a)


def _fresh(values, codes):
    """``values[codes]`` with a new Fraction object for every entry."""
    out = np.empty(codes.shape, dtype=object)
    out.reshape(-1)[:] = [Fraction(v) for v in values[codes].flat]
    return out


def _surjective_codes(rng, k, shape):
    """Random codes into k values of the given shape, each value used at least once."""
    codes = rng.integers(0, k, size=shape)
    codes.reshape(-1)[rng.permutation(codes.size)[:k]] = np.arange(k)
    return codes


def assert_same_object(A, B):
    """A and B agree in entries and their type, numerators, ``==`` and JSON."""
    assert type(A) is type(B)
    assert_fractions_equal(A.a, B.a)
    assert A.nums.tolist() == B.nums.tolist() and A.den == B.den
    assert_numerators(A)
    assert A == B and B == A
    to_json = core.vector_to_json if isinstance(A, ProbVec) else core.matrix_to_json
    assert to_json(A) == to_json(B)
    assert_fractions_equal(A.values[A.codes], A.a)


def ref_noisy_dilation(T):
    """The noisy dilation built the old way: the entries gathered, then the public constructor."""
    n = T.rows
    t = T.a.T
    view = np.empty((n, n, n, n), dtype=object)
    view[:, :, 0, :] = Fraction(0)
    ks = np.arange(n)
    view[ks, :, 0, ks] = t
    view[:, :, 1:, :] = ((1 - t) / (n * (n - 1)))[:, :, None, None]
    return StochMatrix(view.reshape(n * n, n * n), mode=EXACT)


class TestValueCodes:
    """An object built from values and codes (``_from_codes``) is the object
    the public constructor builds from the same entries as fresh copies, and
    kernels that build from codes give what they gave built the old way."""

    @SETTINGS
    @given(exact_matrices(square=False), st.data())
    def test_from_codes_matrix(self, M, data):
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, min(M.a.size, rows * cols)))
        values = np.array([Fraction(v) for v in M.a.flat[:k]], dtype=object)
        codes = _surjective_codes(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), k, (rows, cols))
        assert_same_object(StochMatrix._from_codes(values, codes), StochMatrix(_fresh(values, codes), mode=EXACT))
        # a negative value is reported at the same first entry, with the same value
        j = data.draw(st.integers(0, k - 1))
        values[j] = -values[j] - Fraction(1, 3)
        errors = []
        for build in (StochMatrix._from_codes, lambda v, c: StochMatrix(_fresh(v, c), mode=EXACT)):
            with pytest.raises(NegativeEntry) as info:
                build(values, codes)
            errors.append((info.value.index, info.value.value, type(info.value.value)))
        assert errors[0] == errors[1] and errors[0][0] == tuple(int(i) for i in np.argwhere(codes == j)[0])

    @SETTINGS
    @given(exact_matrices(kind="stochastic", square=False), st.data())
    def test_from_codes_vector(self, M, data):
        # each entry of a law split k ways: the codes repeat each value k times, shuffled
        k = data.draw(st.integers(1, 4))
        values = np.array([v / k for v in M.a[:, 0]], dtype=object)
        codes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(np.repeat(np.arange(M.rows), k))
        assert_same_object(ProbVec._from_codes(values, codes), ProbVec(_fresh(values, codes), mode=EXACT))
        with pytest.raises(NotStochastic):  # every entry twice: the sum is 2
            ProbVec._from_codes(values, np.concatenate([codes, codes]))

    @SETTINGS
    @given(exact_matrices(kind="stochastic"))
    def test_noisy_dilation(self, T):
        if T.rows < 2:
            return
        E = bs.noisy_dilation(T)
        assert_same_object(E.matrix, ref_noisy_dilation(T))
        Y = bs.product_right_inverse(T.rows, ProbVec([Fraction(int(i == 0)) for i in range(T.rows)], mode=EXACT))
        assert E.partition == Partition.first_marginal(T.rows, T.rows)
        assert_same_object(E.right_inverse, Y)

    @SETTINGS
    @given(shuffled_partitions(), st.data())
    def test_uniform_dilation(self, P, data):
        S = data.draw(permutation_mixtures(d=P.d))
        T = bs.coarse_grain(S, P, bs.uniform_right_inverse(P))
        dil = bs.uniform_dilation(T, ProbVec([Fraction(s, P.d) for s in P.class_sizes], mode=EXACT))
        c = dil.partition.labels
        sizes = np.array(dil.partition.class_sizes, dtype=object)
        assert_same_object(dil.matrix, StochMatrix((T.a / sizes[:, None])[np.ix_(c, c)], mode=EXACT))
        Y = np.full((dil.partition.d, T.rows), Fraction(0), dtype=object)
        Y[np.arange(dil.partition.d), c] = (Fraction(1) / sizes)[c]
        assert_same_object(dil.right_inverse, StochMatrix(Y, mode=EXACT))
        args = dil.matrix, dil.partition, dil.right_inverse
        assert_same_object(bs.coarse_grain(*args), StochMatrix(ref_coarse_grain(*args), mode=EXACT))

    def test_prebuilt_objects_take_no_id_pass(self, monkeypatch):
        T = random_stochastic_exact(np.random.default_rng(6), 6)
        R = bs.noisy_dilation(T).matrix
        p = bs.fixed_point(T).representative
        S = bs.two_state(Fraction(1, 3), Fraction(1, 2))
        q = ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT)
        r = ProbVec([Fraction(k, 21) for k in range(1, 7)], mode=EXACT)
        dec = bs.birkhoff_decompose(R)
        want = core.matrix_to_json(ref_noisy_dilation(T)), core.vector_to_json(ProbVec(list(p.a), mode=EXACT))
        # the Fraction references, built by the public constructor before the id pass is refused
        images = [r]
        for _ in range(3):
            images.append(ProbVec(T.a @ images[-1].a, mode=EXACT))
        rho = ProbVec([Fraction(1, 2), Fraction(0), Fraction(1, 2)], mode=EXACT)
        section = np.zeros((18, 6), dtype=object)
        for i, k in np.ndindex(3, 6):
            section[i * 6 + k, k] = rho.a[i]
        section = StochMatrix(section, mode=EXACT)
        extracted = StochMatrix(ref_extract(R, 0, 6), mode=EXACT)

        def refuse(data):
            raise AssertionError("an id pass over entries whose sharing is known")

        monkeypatch.setattr(core, "_distinct", refuse)
        assert (core.matrix_to_json(R), core.vector_to_json(p)) == want
        assert bs.noisy_dilation(T).matrix == R
        assert bs.uniform_dilation(S, q).checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}
        assert core.vector_to_json(bs.fixed_point(T).representative) == want[1]
        assert_same_object(bs.apply(T, r), images[1])
        trajectory, _ = bs.iterate(T, r, 3)
        for got, ref in zip(trajectory, images, strict=True):
            assert_same_object(got, ref)
        E = bs.with_environment(R, ProbVec.point_mass(6, 0, mode=EXACT))
        assert_same_object(bs.coarse_grain(R, E.partition, E.right_inverse), extracted)
        assert_same_object(bs.product_right_inverse(6, rho), section)
        assert_same_object(dec.reconstruct(mode=EXACT), R)


def _near_the_bound(draw):
    """An exact matrix whose numerators meet the int64 storage bound within a
    few units, below or above: either ``den`` (entries at most 1, one of them
    1/den) or the largest numerator (integer entries) is ``(2**63 - 1) //
    entries + offset``, so that it is stored as int64 iff ``offset <= 0``."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    offset = draw(st.integers(-2, 2))
    top = (2**63 - 1) // (rows * cols) + offset
    rnd = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # numerators up to top, drawn as a fraction of it since numpy draws no int above 2**63
    nums = [[int(top * Fraction(int(k), 2**20)) for k in row] for row in rnd.integers(0, 2**20 + 1, (rows, cols))]
    nums[0][0] = 1 if draw(st.booleans()) else top
    den = top if nums[0][0] == 1 else 1
    return StochMatrix([[Fraction(v, den) for v in row] for row in nums], mode=EXACT), offset <= 0


class TestInt64Numerators:
    """Numerators are int64 where every sum of them provably fits, and each
    kernel that multiplies them bounds its own products: every result equals
    the Fraction reference, with Python-int numerators, on both sides of the
    bounds."""

    @SETTINGS
    @given(st.data())
    def test_storage_at_the_bound(self, data):
        M, fits = _near_the_bound(data.draw)
        assert (M.nums.dtype == np.int64) is fits
        assert_numerators(M)
        report = bs.validate(M)
        flags = (report.left, report.right, report.bi, report.irreducible)
        assert (*flags, report.max_column_defect, report.max_row_defect) == ref_validate(M)
        assert_python_ints(report.max_column_defect, report.max_row_defect)
        # one numerator one unit larger: the difference multiplies numerators by the other's den
        i, j = data.draw(st.integers(0, M.rows - 1)), data.draw(st.integers(0, M.cols - 1))
        C = _changed(M, i, j, Fraction(1, M.den))
        assert (C == M) is False and (M == C) is False and M == StochMatrix(M.a.tolist(), mode=EXACT)
        assert core._max_difference(C, M) == Fraction(1, M.den) == core._max_difference(M, C)
        assert_python_ints(core._max_difference(C, M))
        back = core.matrix_from_json(json.loads(json.dumps(core.matrix_to_json(M))))
        assert back == M and back.nums.dtype == M.nums.dtype

    def test_a_column_sum_past_int64(self):
        # each numerator fits in int64, their sum does not: stored as Python ints
        M = StochMatrix([[Fraction(2**62, 3)], [Fraction(2**62, 3)]], mode=EXACT)
        assert M.nums.dtype == object and M.den == 3
        report = bs.validate(M)
        assert report.max_column_defect == Fraction(2**63, 3) - 1
        assert report.max_row_defect == Fraction(2**62, 3) - 1

    def test_a_coarse_graining_past_int64(self):
        # S and Y fit in int64 each, the numerators of X S Y reach den_S * den_Y > 2**63
        p, q = 2**40 - 87, 2**30 - 35  # primes
        a, b = Fraction(1, p), Fraction(1, q)
        S = StochMatrix([[a, 1 - a], [1 - a, a]], mode=EXACT)
        Y = StochMatrix([[b], [1 - b]], mode=EXACT)
        assert S.nums.dtype == Y.nums.dtype == np.int64 and S.den * Y.den > 2**63
        P = Partition(d=2, classes=((0, 1),))
        T = bs.coarse_grain(S, P, Y)
        assert T == StochMatrix([[1]], mode=EXACT)
        assert_python_ints(*T.a.flat)
        # and the difference of two matrices whose dens multiply past 2**63
        assert core._max_difference(S, StochMatrix([[b, 1 - b], [1 - b, b]], mode=EXACT)) == abs(a - b)

    def test_equality_across_storage(self):
        M = random_stochastic_exact(np.random.default_rng(5), 5)
        O = StochMatrix._from_codes(M.values, M.codes)
        O.nums = M.nums.astype(object)
        assert M.nums.dtype == np.int64 and O.nums.dtype == object
        assert M == O and O == M
        C = _changed(M, 1, 2, Fraction(1, M.den))
        assert C.nums.dtype == np.int64 and (C == O) is False and (O == C) is False

    def test_results_have_python_int_numerators(self):
        T = random_stochastic_exact(np.random.default_rng(7), 4)
        assert T.nums.dtype == np.int64
        res = bs.fixed_point(T)
        assert_python_ints(*res.representative.a, *(v for b in res.basis for v in b))
        assert_python_ints(*bs.fixed_point(StochMatrix.identity(3, mode=EXACT)).basis[0])
        report = core._sum_check(StochMatrix(T.a[:, :3], mode=EXACT))
        assert report.max_row_defect != 0
        assert_python_ints(report.max_column_defect, report.max_row_defect)
        E = bs.noisy_dilation(T)
        assert E.matrix.nums.dtype == np.int64
        assert_python_ints(*bs.extract_dilated(E.matrix, 0).a.flat)
        defect, tol = bs.roundtrip_defect(T, E)
        assert defect == tol == 0
        assert_python_ints(defect)
        dec = bs.birkhoff_decompose(E.matrix)
        assert_python_ints(*dec.weights, dec.residual_mass, dec.weight_sum())
        assert all(type(v) is int for v in dec.nums) and dec.reconstruct(mode=EXACT) == E.matrix
        p = ProbVec([Fraction(2, 5), Fraction(3, 5)], mode=EXACT)
        dil = bs.uniform_dilation(bs.two_state(Fraction(1, 3), Fraction(1, 2)), p)
        assert all(dil.checks.values()) and all(type(s) is int for s in dil.partition.class_sizes)
        assert_python_ints(*bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse).a.flat)

    def test_a_fixed_point_past_int64(self):
        # T fits in int64; the Bareiss solve forms minors of t - L I, here near L**2 > 2**63
        q = 2**40 - 87
        rnd = np.random.default_rng(3)
        columns = []
        for _ in range(3):
            cuts = sorted(int(q * Fraction(int(k), 2**20)) for k in rnd.integers(1, 2**20, 2))
            columns.append([Fraction(b - a, q) for a, b in zip([0, *cuts], [*cuts, q])])
        T = _columns_to_matrix(columns)
        assert T.nums.dtype == np.int64 and T.den == q
        rep = bs.fixed_point(T).representative.a
        assert (T.a @ rep).tolist() == rep.tolist() and sum(rep) == 1 and rep.min() > 0
        assert_python_ints(*rep)

    def test_an_iterate_past_int64(self):
        # T over 2**31 - 1 and p over 2**30 - 35 fit in int64; the first image's
        # numerators still do, the later ones pass 2**63 in the kernel and then in storage
        q1, q2 = 2**31 - 1, 2**30 - 35  # primes
        T = _columns_to_matrix([[Fraction(a, q1), Fraction(b, q1), Fraction(q1 - a - b, q1)]
                                for a, b in ((5, 7), (q1 // 3, q1 // 5), (1, q1 // 2))])
        p = ProbVec([Fraction(2, q2), Fraction(q2 // 2, q2), Fraction(q2 - 2 - q2 // 2, q2)], mode=EXACT)
        assert T.nums.dtype == p.nums.dtype == np.int64
        trajectory, converged = bs.iterate(T, p, 4)
        assert trajectory[1].nums.dtype == np.int64 and trajectory[-1].nums.dtype == object
        want = [p.a]
        for _ in range(4):
            want.append(T.a @ want[-1])
        for got, ref in zip(trajectory, want, strict=True):
            assert_fractions_equal(got.a, ref)
            assert_python_ints(*got.a)
            assert_numerators(got)
        assert converged is (max(abs(want[-1] - want[-2])) <= RESIDUAL_TOL)

    @pytest.mark.parametrize("den", [2**40 - 87, 2**60 - 93])  # T.den * 6 below and above 2**63
    def test_a_uniform_dilation_past_int64(self, den):
        # the fixed point (3/5, 2/5) has classes of 3 and 2 fine states, L = 6
        T = bs.two_state(Fraction(3, den), Fraction(2, den))
        p = ProbVec([Fraction(3, 5), Fraction(2, 5)], mode=EXACT)
        assert T.nums.dtype == np.int64 and (T.den * 6 > 2**63) is (den > 2**60)
        dil = bs.uniform_dilation(T, p)
        c = dil.partition.labels
        want = [[T.a[c[nu], c[mu]] / dil.partition.class_sizes[c[nu]] for mu in range(5)] for nu in range(5)]
        assert_fractions_equal(dil.matrix.a, want)
        assert_python_ints(*dil.matrix.a.flat)
        assert_numerators(dil.matrix)
        assert dil.checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}

    def test_a_uniform_dilation_whose_class_lcm_passes_int64(self):
        # class sizes the primes up to 53: p's numerators are small, their lcm L is past 2**63
        sizes = [k for k in range(2, 54) if all(k % j for j in range(2, k))]
        d = sum(sizes)
        assert math.lcm(*sizes) > 2**63
        p = ProbVec([Fraction(s, d) for s in sizes], mode=EXACT)
        T = StochMatrix([[v] * len(sizes) for v in p.a], mode=EXACT)  # every column is p
        assert T.nums.dtype == p.nums.dtype == np.int64
        dil = bs.uniform_dilation(T, p)
        assert dil.partition.class_sizes == tuple(sizes)
        c = dil.partition.labels
        sizes = np.array(sizes, dtype=object)
        assert_fractions_equal(dil.matrix.a, (T.a / sizes[:, None])[np.ix_(c, c)])
        assert_python_ints(*dil.matrix.values)
        assert dil.checks == {"bi_stochastic": True, "coarse_grain_roundtrip": True}

    @pytest.mark.parametrize("den", [2**63 - 1, 2**63, 2**63 + 1])
    def test_a_reconstruction_at_the_int64_bound(self, den):
        # S = (1 - w) I + w P for a P that fixes state 2: entry (2, 2) takes
        # both weights, its numerator sum is den, which int64 holds iff den < 2**63
        w = Fraction(1, den)
        sigma = [1, 0, 2]
        S = np.full((3, 3), Fraction(0), dtype=object)
        S[np.arange(3), np.arange(3)] = 1 - w
        S[sigma, np.arange(3)] += w
        S = StochMatrix(S, mode=EXACT)
        dec = bs.birkhoff_decompose(S)
        assert dec.den == den
        R = dec.reconstruct(mode=EXACT)
        assert R == S
        assert_fractions_equal(R.a, S.a)
        assert_python_ints(*R.a.flat)
        assert_numerators(R)
