"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, Partition, ProbVec, StochMatrix
from bistoch.cli import run
from bistoch.errors import ZeroComponent

from conftest import (
    demon_dilation_expected,
    random_permutation_mixture,
    random_prob_vec_float,
    random_stochastic_exact,
    random_stochastic_float,
    two_state_dilation_expected,
)


def report(number, name, ok):
    print(f"acceptance {number:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"acceptance criterion {number}: {name}"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def partition_with_few_classes(rng, max_classes=5):
    while True:
        d = int(rng.integers(2, 11))
        cuts = sorted(rng.choice(range(1, d), size=int(rng.integers(0, d - 1)), replace=False))
        bounds = [0, *cuts, d]
        sizes = np.diff(bounds)
        if len(sizes) <= max_classes:
            return Partition.consecutive(sizes)


def test_01_two_state_noisy_dilation_golden(tmp_path, capsys):
    T = bs.two_state(Fraction(3, 10), Fraction(7, 10))
    matrix = write_json(tmp_path, "t2.json", bs.matrix_to_json(T))
    out = tmp_path / "r4.json"
    code = run(["dilate", "noisy", matrix, "--out", str(out)])
    capsys.readouterr()
    R = bs.matrix_from_json(json.loads(out.read_text()))
    ok = code == 0 and R == two_state_dilation_expected(Fraction(3, 10), Fraction(7, 10))
    report(1, "noisy dilation of the 4x4 two-state golden matrix, exact entries", ok)


def test_02_demon_noisy_dilation_golden(tmp_path, capsys, demon):
    matrix = write_json(tmp_path, "demon.json", bs.matrix_to_json(demon))
    dilation = tmp_path / "dilation.json"
    extracted = tmp_path / "extracted.json"
    code1 = run(["dilate", "noisy", matrix, "--out", str(dilation)])
    code2 = run(["extract", str(dilation), "--zero-index", "0", "--out", str(extracted)])
    capsys.readouterr()
    R = bs.matrix_from_json(json.loads(dilation.read_text()))
    back = bs.matrix_from_json(json.loads(extracted.read_text()))
    ok = code1 == 0 and code2 == 0 and R == demon_dilation_expected(mode=EXACT) and back == demon
    report(2, "16x16 golden dilation in 24ths and exact extraction round trip", ok)


def test_03_entropy_suite(demon):
    uniform = ProbVec.uniform(4, mode=EXACT)
    led = bs.entropy_ledger(demon, uniform)
    h_step = bs.shannon_entropy(bs.apply(demon, uniform))
    trajectory, _ = bs.iterate(demon.to_float(), uniform.to_float(), 200)
    h_limit = bs.shannon_entropy(trajectory[-1])
    # closed forms: -sum p ln p evaluated symbolically by hand
    closed = {
        "input": math.log(4),
        "step": -(3 / 4) * math.log(3 / 8) - (1 / 4) * math.log(1 / 8),
        "evolved": 0.5 * math.log(32),
        "total": math.log(4) - (3 / 4) * math.log(3 / 8) - (1 / 4) * math.log(1 / 8),
        "limit": math.log(2),
    }
    printed = {"input": 1.386294, "step": 1.25548, "evolved": 1.73287, "total": 2.64178, "limit": 0.693147}
    computed = {
        "input": led.h_input,
        "step": h_step,
        "evolved": led.h_evolved,
        "total": led.h_marginal_1 + led.h_marginal_2,
        "limit": h_limit,
    }
    ok = all(abs(computed[k] - printed[k]) <= 1e-4 for k in printed) and all(
        abs(computed[k] - closed[k]) <= 1e-12 for k in closed
    )
    report(3, "worked-example entropy suite to 1e-4 printed / 1e-12 closed form", ok)


def test_04_convergence(demon_float):
    trajectory, _ = bs.iterate(demon_float, ProbVec.uniform(4), 60)
    defect = float(np.max(np.abs(trajectory[-1].a - np.array([0.5, 0.0, 0.0, 0.5]))))
    report(4, "60 iterations from uniform land within 1e-10 of (1/2,0,0,1/2)", defect <= 1e-10)


def test_05_uniform_dilation_round_trip(demon):
    rng = np.random.default_rng(201)
    ok = True
    for _ in range(50):
        part = partition_with_few_classes(rng)
        S0 = random_permutation_mixture(rng, part.d, mode=EXACT)
        Y0 = bs.uniform_right_inverse(part)
        T = bs.coarse_grain(S0, part, Y0)
        fp = ProbVec([Fraction(s, part.d) for s in part.class_sizes], mode=EXACT)
        dil = bs.uniform_dilation(T, fp)
        ok = ok and bs.validate(dil.matrix).bi
        ok = ok and bs.coarse_grain(dil.matrix, dil.partition, dil.right_inverse) == T
    try:
        bs.uniform_dilation(demon, ProbVec([Fraction(1, 2), 0, 0, Fraction(1, 2)], mode=EXACT))
        ok = False
    except ZeroComponent:
        pass
    report(5, "50 exact uniform-dilation round trips plus the zero-component refusal", ok)


def test_06_unistochastic_path():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        T = random_stochastic_float(rng, n)
        dil = bs.unistochastic_dilation(T)
        ok = ok and dil.orthogonality_defect() <= 1e-12
        ok = ok and bs.validate(dil.matrix, tol=1e-12).bi
        ok = ok and bs.extract_dilated(dil.matrix, 0, tol=1e-12).allclose(T, tol=1e-12)
    elapsed = time.monotonic() - start
    report(6, f"50 unistochastic dilations verified to 1e-12 in {elapsed:.2f}s (limit 5s)", ok and elapsed <= 5.0)


def test_07_sinkhorn_agreement():
    rng = np.random.default_rng(203)
    ok = True
    for _ in range(100):
        a, b = rng.uniform(0.05, 0.95, size=2)
        res = bs.sinkhorn_knopp(bs.two_state(a, b, mode=FLOAT), tol=1e-14)
        _, _, p = bs.sinkhorn_2x2(a, b)
        ok = ok and float(np.max(np.abs(res.matrix.a - [[1 - p, p], [p, 1 - p]]))) <= 1e-8
    for a in rng.uniform(0.05, 0.95, size=10):
        _, _, p = bs.sinkhorn_2x2(float(a), float(1.0 - a))
        ok = ok and abs(p - 0.5) <= 1e-12
    report(7, "iterative Sinkhorn matches the closed form; a+b=1 balances to 1/2", ok)


def test_08_entropy_monotonicity():
    rng = np.random.default_rng(204)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 8))
        S = random_permutation_mixture(rng, n, mode=FLOAT)
        p = random_prob_vec_float(rng, n)
        ok = ok and bs.shannon_entropy(bs.apply(S, p)) >= bs.shannon_entropy(p) - 1e-12
    for _ in range(500):
        part = partition_with_few_classes(rng)
        X = bs.projection_matrix(part).to_float()
        pi = random_prob_vec_float(rng, part.d)
        lo, hi = bs.shannon_entropy(bs.apply(X, pi)), bs.shannon_entropy(pi)
        ok = ok and lo <= hi + 1e-12
        if any(len(c) >= 2 for c in part.classes):
            ok = ok and lo < hi  # strict once a class merges two positive atoms
    report(8, "500+500 random monotonicity checks for mixing and coarse graining", ok)


def test_09_birkhoff_demon_dilation():
    R = demon_dilation_expected(mode=EXACT)
    dec = bs.birkhoff_decompose(R)
    defect = float(np.max(np.abs((dec.reconstruct(mode=EXACT).a - R.a).astype(float))))
    ok = defect <= 1e-10 and len(dec.terms) <= 226 and abs(float(dec.weight_sum()) - 1.0) <= 1e-12
    report(9, f"Birkhoff decomposition of the 16x16 dilation in {len(dec.terms)} terms", ok)


def test_10_decreasing_region_structure(demon):
    ok = bs.in_decreasing_region(demon, ProbVec.uniform(4, mode=EXACT))
    for alpha in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        fp = ProbVec([alpha, 0, 0, 1 - alpha], mode=EXACT)
        ok = ok and bs.in_decreasing_region(demon, fp)
    ok = ok and not bs.in_decreasing_region(demon, ProbVec.point_mass(4, 1, mode=EXACT))
    anchor = ProbVec.uniform(4, mode=EXACT)
    directions = [ProbVec.point_mass(4, k, mode=EXACT) for k in range(4)]
    for bp in bs.region_boundary_scan(demon, anchor, directions):
        if not bp.full_segment_inside:
            ok = ok and abs(bp.h_tp - bp.h_p) <= 1e-7
    rng = np.random.default_rng(205)
    inside = []
    while len(inside) < 20:
        p = random_prob_vec_float(rng, 4)
        if bs.in_decreasing_region(demon, p):
            inside.append(p.a)
    for _ in range(100):
        i, j = rng.integers(0, len(inside), size=2)
        lam = float(rng.random())
        mix = lam * inside[i] + (1.0 - lam) * inside[j]
        ok = ok and bs.in_decreasing_region(demon, ProbVec(mix), tol=1e-9)
    report(10, "entropy-decreasing region: interior, boundary, and convexity probes", ok)


def test_11_dilations_reduce_back():
    rng = np.random.default_rng(206)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 6))
        T = random_stochastic_exact(rng, n)
        E = bs.noisy_dilation(T)
        part, Y = E.partition, E.right_inverse
        ok = ok and bs.coarse_grain(E.matrix, part, Y) == T
    for _ in range(20):
        n = int(rng.integers(2, 6))
        T = random_stochastic_float(rng, n)
        E = bs.unistochastic_dilation(T)
        part, Y = E.partition, E.right_inverse
        ok = ok and bs.coarse_grain(E.matrix, part, Y).allclose(T, tol=1e-12)
    report(11, "noisy (exact) and unistochastic (1e-12) dilations reduce back to T", ok)
