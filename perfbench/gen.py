"""Seeded inputs for the bistoch benchmark.

Writes the JSON files the library and the ``bistoch`` CLI read, using only
the standard library, so neither the inputs nor the time to make them depend
on the code under test.  The same workload and seed always give the same
bytes; ``digest`` names them.

    python3 perfbench/gen.py --workload exact-dilate --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

#: largest fine dimension the uniform dilation may be asked to build.  The
#: library sizes it by the lcm of the fixed point's denominators with no cap
#: (a seeded random exact 8x8 already exhausts memory), so the generator
#: refuses any exact input past this cap before writing anything.
FINE_STATES_CAP = 96


def _ladder(largest, *smaller):
    """One cycle of 16 job sizes: each smaller size once, spread among 13 of the largest.

    With 13 of 16 jobs in one class, the median job and the tail job (the one
    with ten slower jobs beyond it) both fall well inside that class whether
    a run completes 20 jobs or 200.  The smaller sizes show how the cost
    scales.
    """
    cycle = [largest] * 16
    for k, size in enumerate(smaller):
        cycle[5 * k + 2] = size
    return cycle


# one cycle of job sizes per workload, in run order
LADDERS = {
    # (N, fine dimension d) of T = X S Y with S a permutation mixture on d states
    "exact-dilate": _ladder((12, 48), (6, 24), (8, 32), (10, 40)),
    # N of a dense float T
    "float-dilate": _ladder(20, 8, 12, 16),
    # (N of the float matrix Sinkhorn balances, d of the exact permutation mixture)
    "balance-decompose": _ladder((16, 48), (8, 32), (12, 32), (16, 32)),
    # which documented CLI file pipeline the job runs
    "cli-pipeline": ["exact", "float", "exact", "exact"],
}
WORKLOADS = tuple(LADDERS)

#: jobs per round: a run ends only after a whole number of rounds.  The cli
#: cycle mixes pipelines with different op counts (an exact job makes four
#: ops; a float job three, one of them the Birkhoff step that fails on
#: Sinkhorn output), so only whole cycles give every run the same
#: failed / attempted.  In the other workloads every job makes the same ops.
ROUNDS = {"cli-pipeline": len(LADDERS["cli-pipeline"])}

MIXTURE_TERMS = 4
CLI_EXACT_N, CLI_EXACT_D = 8, 32
CLI_FLOAT_N = 16


class OversizedInput(ValueError):
    pass


def _exact_json(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def matrix_json(rows, mode):
    data = [[_exact_json(v) if mode == "exact" else float(v) for v in row] for row in rows]
    return {"mode": mode, "rows": len(rows), "cols": len(rows[0]), "data": data}


def vector_json(entries, mode):
    data = [[_exact_json(v) if mode == "exact" else float(v)] for v in entries]
    return {"mode": mode, "rows": len(entries), "cols": 1, "data": data}


def permutation_mixture(rng, d, terms=MIXTURE_TERMS):
    """Weights (small-integer rationals) and permutations of a convex mixture.

    The first permutation is the cyclic shift, which makes every coarse
    graining of the mixture over consecutive classes irreducible.
    """
    perms = [[(i + 1) % d for i in range(d)]]
    for _ in range(terms - 1):
        sigma = list(range(d))
        rng.shuffle(sigma)
        perms.append(sigma)
    raw = [rng.randint(1, 8) for _ in perms]
    total = sum(raw)
    return [(Fraction(w, total), sigma) for w, sigma in zip(raw, perms)]


def mixture_matrix(mixture, d):
    S = [[Fraction(0)] * d for _ in range(d)]
    for w, sigma in mixture:
        for c in range(d):
            S[sigma[c]][c] += w
    return S


def _class_sizes(rng, d, n):
    while True:
        cuts = sorted(rng.sample(range(1, d), n - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        if math.gcd(*sizes) == 1:
            return sizes


def coarse_grained_exact(rng, n, d):
    """Exact left-stochastic T = X S Y and its fixed point.

    S is a permutation mixture on d states, X sums over n consecutive classes
    and Y spreads each class mass uniformly.  S fixes the uniform vector, so
    T fixes p = (class sizes) / d; the cyclic shift in S makes T irreducible,
    so p is its only fixed point.
    """
    sizes = _class_sizes(rng, d, n)
    fine_states = math.lcm(*(Fraction(s, d).denominator for s in sizes))
    if fine_states > FINE_STATES_CAP:
        raise OversizedInput(f"uniform dilation would need {fine_states} > {FINE_STATES_CAP} fine states")
    owner = [k for k, s in enumerate(sizes) for _ in range(s)]
    T = [[Fraction(0)] * n for _ in range(n)]
    for w, sigma in permutation_mixture(rng, d):
        for mu in range(d):
            T[owner[sigma[mu]]][owner[mu]] += w / sizes[owner[mu]]
    p = [Fraction(s, d) for s in sizes]
    if any(sum(T[m][k] * p[k] for k in range(n)) != p[m] for m in range(n)):
        raise AssertionError("generated T does not fix its class-size vector")
    return T, p, sizes, fine_states


def exact_distribution(rng, n):
    raw = [rng.randint(1, 16) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def float_distribution(rng, n):
    raw = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


def dense_float_stochastic(rng, n):
    """Strictly positive column-stochastic float matrix."""
    raw = [[rng.uniform(0.05, 1.0) for _ in range(n)] for _ in range(n)]
    sums = [sum(raw[m][k] for m in range(n)) for k in range(n)]
    return [[raw[m][k] / sums[k] for k in range(n)] for m in range(n)]


def generate(workload, seed):
    """All input files of one run: ``{name: bytes}``, manifest included.

    ``manifest.json`` lists the jobs of one ladder cycle in run order, with
    the files each reads and the values its checks expect.
    """
    if workload not in LADDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    jobs = []

    def put(name, payload):
        files[name] = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        return name

    for i, size in enumerate(LADDERS[workload]):
        tag = f"j{i:02d}"
        if workload == "exact-dilate":
            n, d = size
            T, p, sizes, fine = coarse_grained_exact(rng, n, d)
            jobs.append({
                "tag": tag,
                "size": f"N={n},d={d}",
                "T": put(f"{tag}-T.json", matrix_json(T, "exact")),
                "q": put(f"{tag}-q.json", vector_json(exact_distribution(rng, n), "exact")),
                "fixed_point": [_exact_json(v) for v in p],
                "class_sizes": sizes,
                "fine_states": fine,
            })
        elif workload == "float-dilate":
            n = size
            jobs.append({
                "tag": tag,
                "size": f"N={n}",
                "T": put(f"{tag}-T.json", matrix_json(dense_float_stochastic(rng, n), "float")),
                "q": put(f"{tag}-q.json", vector_json(float_distribution(rng, n), "float")),
            })
        elif workload == "balance-decompose":
            n, d = size
            jobs.append({
                "tag": tag,
                "size": f"N={n},d={d}",
                "A": put(f"{tag}-A.json", matrix_json(dense_float_stochastic(rng, n), "float")),
                "S": put(f"{tag}-S.json", matrix_json(mixture_matrix(permutation_mixture(rng, d), d), "exact")),
            })
        else:
            if size == "exact":
                T, *_ = coarse_grained_exact(rng, CLI_EXACT_N, CLI_EXACT_D)
                jobs.append({
                    "tag": tag,
                    "size": f"exact N={CLI_EXACT_N}",
                    "kind": "exact",
                    "T": put(f"{tag}-T.json", matrix_json(T, "exact")),
                    "p": put(f"{tag}-p.json", vector_json(exact_distribution(rng, CLI_EXACT_N), "exact")),
                })
            else:
                jobs.append({
                    "tag": tag,
                    "size": f"float N={CLI_FLOAT_N}",
                    "kind": "float",
                    "T": put(f"{tag}-T.json", matrix_json(dense_float_stochastic(rng, CLI_FLOAT_N), "float")),
                })
    put("manifest.json", {"workload": workload, "seed": seed, "jobs": jobs})
    return files


def digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def write(files, out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, blob in files.items():
        (out / name).write_bytes(blob)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    files = generate(args.workload, args.seed)
    write(files, args.out)
    print(digest(files))


if __name__ == "__main__":
    sys.exit(main())
