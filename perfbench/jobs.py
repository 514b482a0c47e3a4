"""The jobs of each benchmark workload, with the check of every op.

A job is what one user does with one input: a pipeline of public bistoch
calls, each an op run through :class:`recorder.Recorder`.  Exact results are
compared for equality; float results are compared with the library's own
tolerance constants.  Importing this module imports ``bistoch``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from recorder import OpFailed

core = importlib.import_module("bistoch.core")
# ``bistoch.coarse_grain`` the attribute is the function of that name; take the module.
coarse_grain = importlib.import_module("bistoch.coarse_grain")
env_dilation = importlib.import_module("bistoch.env_dilation")
entropy = importlib.import_module("bistoch.entropy")
sinkhorn = importlib.import_module("bistoch.sinkhorn")

EXACT, FLOAT = "exact", "float"

# The library's tolerances, looked up by name.  The second value is the one the
# constant had when this benchmark was written; it applies only if a later
# version of the library renames the constant.
DEFAULT_TOL = getattr(core, "DEFAULT_TOL", 1e-9)
RESIDUAL_TOL = getattr(core, "RESIDUAL_TOL", 1e-12)
REGION_TOL = getattr(entropy, "REGION_TOL", 1e-12)
SINKHORN_TOL = getattr(sinkhorn, "DEFAULT_SINKHORN_TOL", 1e-10)

ITERATE_STEPS = 50
REGION_GRID = 64
CLI_TIMEOUT_S = 120

#: every public function a job calls, as ``<module>.<function>``
LIBRARY_OPS = (
    "core.matrix_from_json",
    "core.matrix_to_json",
    "core.validate",
    "core.fixed_point",
    "core.iterate",
    "coarse_grain.uniform_dilation",
    "env_dilation.noisy_dilation",
    "env_dilation.extract_dilated",
    "env_dilation.verify_env_dilation",
    "env_dilation.unistochastic_dilation",
    "entropy.entropy_ledger",
    "entropy.region_boundary_scan",
    "entropy.birkhoff_decompose",
    "sinkhorn.sinkhorn_knopp",
)
#: every CLI subcommand a job runs
CLI_SUBCOMMANDS = ("dilate", "extract", "verify-dilation", "ledger", "sinkhorn", "birkhoff", "entropy-region")
COUNTERS = (
    "core.iterate.steps",
    "coarse_grain.fine_states",
    "env_dilation.dilated_states",
    "env_dilation.max_denominator",
    "entropy.rays_exited",
    "entropy.birkhoff_decompose.terms",
    "sinkhorn.sweeps",
    "cli.bytes_written",
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _read(workdir, name):
    with open(Path(workdir) / name) as fh:
        return json.load(fh)


def load(workdir):
    """Decode every input file of a run; returns (workload, jobs of one cycle).

    This and the ``bistoch`` import are the benchmark's set-up.
    """
    manifest = _read(workdir, "manifest.json")
    jobs = []
    for spec in manifest["jobs"]:
        job = dict(spec)
        for key in ("T", "A", "S"):
            if key in spec:
                job[key + "_json"] = _read(workdir, spec[key])
                job[key + "_matrix"] = core.matrix_from_json(job[key + "_json"])
        for key in ("q", "p"):
            if key in spec:
                job[key + "_vector"] = core.vector_from_json(_read(workdir, spec[key]))
        jobs.append(job)
    return manifest["workload"], jobs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _entropy(x):
    x = np.asarray(x, dtype=float)
    x = x[x > 0]
    return float(-np.sum(x * np.log(x)))


def _bistochastic(a, tol):
    a = np.asarray(a, dtype=float)
    return _max_abs(a.sum(axis=0), 1.0) <= tol and _max_abs(a.sum(axis=1), 1.0) <= tol


def _extracted(R, n):
    """T[m, k] = sum_i R[(m,i),(k,0)] with flat(m, i) = i*n + m."""
    return np.asarray(R, dtype=float)[:, :n].reshape(-1, n, n).sum(axis=0)


def _ledger_ok(T, q):
    Tf = np.asarray(T.a, dtype=float)
    qf = np.asarray(q.a, dtype=float)

    def check(led):
        return (
            _max_abs(led.marginal_1.a, Tf @ qf) <= RESIDUAL_TOL
            and _max_abs(led.marginal_2.a, qf) <= RESIDUAL_TOL
            and led.h_output == led.h_marginal_1
            and led.h_evolved >= led.h_lifted - RESIDUAL_TOL
        )

    return check


def _json_ok(M, n):
    def check(payload):
        data = payload["data"]
        return (
            payload["rows"] == payload["cols"] == len(data) == n
            and all(len(row) == n for row in data)
            and all(Fraction(data[r][r]) == M.a[r, r] and Fraction(data[r][0]) == M.a[r, 0] for r in range(n))
        )

    return check


# ---------------------------------------------------------------------------
# library jobs
# ---------------------------------------------------------------------------

def exact_dilate(rec, job):
    """decode -> validate -> fixed point -> uniform and noisy dilation -> verify -> ledger -> encode."""
    n = job["T_matrix"].rows
    entries = [[Fraction(v) for v in row] for row in job["T_json"]["data"]]
    T = rec.op("core.matrix_from_json", core.matrix_from_json, job["T_json"],
               check=lambda M: M.mode == EXACT and M.a.tolist() == entries)
    rec.op("core.validate", core.validate, T, check=lambda r: r.left and r.irreducible)
    expected_p = [Fraction(v) for v in job["fixed_point"]]
    fp = rec.op("core.fixed_point", core.fixed_point, T,
                check=lambda f: f.is_unique and list(f.representative.a) == expected_p)
    dil = rec.op("coarse_grain.uniform_dilation", coarse_grain.uniform_dilation, T, fp.representative,
                 check=lambda u: all(u.checks.values()) and list(u.partition.class_sizes) == job["class_sizes"]
                 and u.matrix.rows == job["fine_states"])
    rec.count("coarse_grain.fine_states", dil.partition.d)
    E = rec.op("env_dilation.noisy_dilation", env_dilation.noisy_dilation, T,
               check=lambda e: e.matrix.rows == e.matrix.cols == n * n and e.matrix.mode == EXACT)
    rec.count("env_dilation.dilated_states", E.matrix.rows)
    rec.peak("env_dilation.max_denominator", lambda: max(Fraction(v).denominator for v in E.matrix.a.flat))
    rec.op("env_dilation.extract_dilated", env_dilation.extract_dilated, E.matrix, 0, check=lambda X: X == T)
    rec.op("env_dilation.verify_env_dilation", env_dilation.verify_env_dilation, T, E, check=lambda ok: ok is True)
    q = job["q_vector"]
    rec.op("entropy.entropy_ledger", entropy.entropy_ledger, T, q, check=_ledger_ok(T, q))
    rec.op("core.matrix_to_json", core.matrix_to_json, E.matrix, check=_json_ok(E.matrix, n * n))


def float_dilate(rec, job):
    """noisy dilation -> extract -> verify -> unistochastic dilation -> ledger -> region scan -> iterate."""
    T, q = job["T_matrix"], job["q_vector"]
    n = T.rows
    Tf = np.asarray(T.a, dtype=float)
    E = rec.op("env_dilation.noisy_dilation", env_dilation.noisy_dilation, T,
               check=lambda e: e.matrix.rows == n * n and _bistochastic(e.matrix.a, DEFAULT_TOL))
    rec.count("env_dilation.dilated_states", E.matrix.rows)
    rec.op("env_dilation.extract_dilated", env_dilation.extract_dilated, E.matrix, 0,
           check=lambda X: _max_abs(X.a, Tf) <= RESIDUAL_TOL)
    rec.op("env_dilation.verify_env_dilation", env_dilation.verify_env_dilation, T, E, check=lambda ok: ok is True)
    U = rec.op("env_dilation.unistochastic_dilation", env_dilation.unistochastic_dilation, T,
               check=lambda u: u.orthogonality_defect() <= RESIDUAL_TOL
               and _bistochastic(u.matrix.a, DEFAULT_TOL)
               and _max_abs(_extracted(u.matrix.a, n), Tf) <= RESIDUAL_TOL)
    rec.count("env_dilation.dilated_states", U.matrix.rows)
    rec.op("entropy.entropy_ledger", entropy.entropy_ledger, T, q, check=_ledger_ok(T, q))
    anchor = core.ProbVec.uniform(n)
    rays = [core.ProbVec.point_mass(n, k) for k in range(n)]

    def scan_ok(points):
        return len(points) == n and all(
            0.0 <= b.t <= 1.0 and _entropy(Tf @ b.point) - _entropy(b.point) <= REGION_TOL for b in points
        )

    scan = rec.op("entropy.region_boundary_scan", entropy.region_boundary_scan, T, anchor, rays,
                  resolution=REGION_GRID, check=scan_ok)
    rec.count("entropy.rays_exited", sum(not b.full_segment_inside for b in scan))
    expected = [np.asarray(q.a, dtype=float)]
    for _ in range(ITERATE_STEPS):
        expected.append(Tf @ expected[-1])
    rec.op("core.iterate", core.iterate, T, q, ITERATE_STEPS,
           check=lambda r: len(r[0]) == ITERATE_STEPS + 1
           and max(_max_abs(got.a, want) for got, want in zip(r[0], expected)) <= RESIDUAL_TOL)
    rec.count("core.iterate.steps", ITERATE_STEPS)


def _birkhoff_ok(S, mode):
    def check(dec):
        if mode == EXACT:
            return dec.reconstruct(mode=EXACT) == S and dec.weight_sum() == 1
        return (
            all(w > 0 for w, _ in dec.terms)
            and _max_abs(dec.reconstruct(mode=FLOAT).a, S.a) <= DEFAULT_TOL
            and abs(float(dec.weight_sum()) - 1.0) <= DEFAULT_TOL
        )

    return check


def balance_decompose(rec, job):
    """Sinkhorn at its defaults -> Birkhoff of the result; Birkhoff of an exact permutation mixture.

    The two chains are independent: a failure in the first still lets the
    second run.  Sinkhorn's output is decomposed as the library's defaults
    leave it, so the known failure of that step shows in the failed count.
    """
    A = job["A_matrix"]
    Af = np.asarray(A.a, dtype=float)
    try:
        res = rec.op("sinkhorn.sinkhorn_knopp", sinkhorn.sinkhorn_knopp, A,
                     check=lambda r: _bistochastic(r.matrix.a, SINKHORN_TOL)
                     and _max_abs(r.d1[:, None] * Af * r.d2[None, :], r.matrix.a) <= SINKHORN_TOL)
        rec.count("sinkhorn.sweeps", res.iterations)
        dec = rec.op("entropy.birkhoff_decompose", entropy.birkhoff_decompose, res.matrix,
                     check=_birkhoff_ok(res.matrix, FLOAT))
        rec.count("entropy.birkhoff_decompose.terms", len(dec.terms))
    except OpFailed:
        pass
    S = job["S_matrix"]
    dec = rec.op("entropy.birkhoff_decompose", entropy.birkhoff_decompose, S, check=_birkhoff_ok(S, EXACT))
    rec.count("entropy.birkhoff_decompose.terms", len(dec.terms))


# ---------------------------------------------------------------------------
# CLI job
# ---------------------------------------------------------------------------

class CliError(Exception):
    """A subcommand exited non-zero without a run report (an error, not a wrong answer)."""


class Cli:
    """Runs ``python -m bistoch.cli`` one subcommand at a time in a work directory."""

    def __init__(self, workdir, src):
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, *args, out=None):
        """Exit code, parsed stdout report (or None) and bytes written of one subcommand.

        A non-zero exit that prints no report raises :class:`CliError`; one that
        prints a report with failing checks is returned for the op's check.
        """
        if out is not None:
            (self.workdir / out).unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "bistoch.cli", *args],
            cwd=self.workdir, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = None
        if proc.returncode != 0 and report is None:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}")
        written = len(proc.stdout)
        if out is not None and (self.workdir / out).exists():
            written += (self.workdir / out).stat().st_size
        return proc.returncode, report, written


def _cli_ok(more=None):
    def check(result):
        code, report, _ = result
        return (
            code == 0
            and report is not None
            and all(c["pass"] for c in report["checks"])
            and (more is None or more(report))
        )

    return check


def cli_pipeline(rec, job, cli):
    """The documented file pipelines, one subprocess per subcommand."""

    def run(sub, *args, out=None, check=None):
        result = rec.op(f"cli.{sub}", cli, sub, *args, out=out, check=_cli_ok(check))
        rec.count("cli.bytes_written", result[2])
        return result

    T, tag = job["T"], job["tag"]
    if job["kind"] == EXACT:
        R = f"{tag}-R.json"
        run("dilate", "noisy", T, "--out", R, out=R)
        run("extract", R, check=lambda rep: rep["result"]["matrix"] == job["T_json"])
        run("verify-dilation", T, R)
        run("ledger", T, job["p"])
        return
    S, scan = f"{tag}-S.json", f"{tag}-scan.csv"
    try:
        run("sinkhorn", T, "--out", S, out=S)
        run("birkhoff", S)
    except OpFailed:
        pass
    n = job["T_matrix"].rows
    run("entropy-region", T, "--grid", str(REGION_GRID), "--out", scan, out=scan,
        check=lambda rep: len(rep["result"]["boundary"]) == n
        and len((cli.workdir / scan).read_text().splitlines()) == 1 + n * (REGION_GRID + 1))


LIBRARY_JOBS = {
    "exact-dilate": exact_dilate,
    "float-dilate": float_dilate,
    "balance-decompose": balance_decompose,
}
