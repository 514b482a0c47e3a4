import importlib
from fractions import Fraction

import numpy as np
import pytest

from bistoch import (
    core,
    env_dilation,
    EXACT,
    FLOAT,
    ProbVec,
    StochMatrix,
    maxwell_demon,
    two_state,
)


@pytest.fixture
def sum_and_contraction_calls(monkeypatch):
    """Records ``(name, shape)`` for each call of ``core._sum_check`` and of
    ``coarse_grain``, as the library and the CLI call them."""
    calls = []

    def counting(fn):
        def wrapper(M, *args, **kwargs):
            calls.append((fn.__name__, M.nums.shape))
            return fn(M, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(core, "_sum_check", counting(core._sum_check))
    for module in (importlib.import_module("bistoch.coarse_grain"), env_dilation):
        monkeypatch.setattr(module, "coarse_grain", counting(module.coarse_grain))
    return calls


@pytest.fixture
def demon():
    return maxwell_demon(mode=EXACT)


@pytest.fixture
def demon_float():
    return maxwell_demon(mode=FLOAT)


def two_state_dilation_expected(a, b):
    """The 4x4 noisy dilation of the two-state matrix, written out blockwise
    (independent of the dilation code)."""
    a, b = Fraction(a), Fraction(b)
    return StochMatrix(
        [
            [1 - b, 0, b / 2, b / 2],
            [b, 0, (1 - b) / 2, (1 - b) / 2],
            [0, a, (1 - a) / 2, (1 - a) / 2],
            [0, 1 - a, a / 2, a / 2],
        ],
        mode=EXACT,
    )


# 16x16 noisy dilation of the Maxwell-demon matrix, in 24ths; transcribed by
# hand as the golden reference for the dilation code.
DEMON_DILATION_24THS = [
    [24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 12, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 12, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 12, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 12, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def demon_dilation_expected(mode=EXACT):
    if mode == EXACT:
        data = [[Fraction(v, 24) for v in row] for row in DEMON_DILATION_24THS]
    else:
        data = [[v / 24.0 for v in row] for row in DEMON_DILATION_24THS]
    return StochMatrix(data, mode=mode)


def random_stochastic_float(rng, n):
    a = rng.random((n, n)) + 1e-3
    return StochMatrix(a / a.sum(axis=0), mode=FLOAT)


def random_stochastic_exact(rng, n, denominator=12):
    cols = []
    for _ in range(n):
        weights = [int(w) for w in rng.integers(0, denominator, size=n)]
        if sum(weights) == 0:
            weights[int(rng.integers(0, n))] = 1
        total = sum(weights)
        cols.append([Fraction(w, total) for w in weights])
    data = [[cols[j][i] for j in range(n)] for i in range(n)]
    return StochMatrix(data, mode=EXACT)


def random_prob_vec_float(rng, n):
    raw = rng.random(n)
    return ProbVec(raw / raw.sum(), mode=FLOAT)


def random_prob_vec_exact(rng, n, denominator=16):
    weights = [int(w) + 1 for w in rng.integers(0, denominator, size=n)]
    total = sum(weights)
    return ProbVec([Fraction(w, total) for w in weights], mode=EXACT)


def random_permutation_mixture(rng, n, terms=4, mode=FLOAT):
    """Random bi-stochastic matrix built as a convex sum of permutations."""
    if mode == EXACT:
        weights = [Fraction(int(w) + 1) for w in rng.integers(0, 8, size=terms)]
        total = sum(weights)
        weights = [w / total for w in weights]
        total_matrix = np.full((n, n), Fraction(0), dtype=object)
    else:
        raw = rng.random(terms) + 0.05
        weights = raw / raw.sum()
        total_matrix = np.zeros((n, n))
    for w in weights:
        sigma = rng.permutation(n)
        for c in range(n):
            total_matrix[sigma[c], c] += w
    return StochMatrix(total_matrix, mode=mode)
