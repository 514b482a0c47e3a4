"""Command-line front end.

Every subcommand prints a JSON run report to stdout: the command, the input
and output files, a list of (name, pass, defect) checks, and a
command-specific result payload.  Dilation subcommands always embed a
verification check; an unverified dilation is never emitted.

Exit codes: 0 success with all checks passing, 1 usage or I/O error,
2 validation or verification failure, or a request too large for memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import (
    core,
    entropy as entropy_mod,
    env_dilation,
    matrices,
    sinkhorn as sinkhorn_mod,
)
from .coarse_grain import Partition, coarse_grain, roundtrip_defect, uniform_dilation, uniform_right_inverse
from .core import EXACT, FLOAT, ProbVec
from .errors import BistochError, DemoMismatch, DimensionMismatch


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value):
    """Report formatting of a library result.

    A dataclass result becomes a dict keyed by its field names, so report
    keys follow the library's result fields; a dict keeps its keys; a
    ``ProbVec``, numpy array, list or tuple becomes a list.  Scalars: floats
    to 12 significant digits, a ``Fraction`` as ``"p/q"`` (an int when whole;
    one past Python's int-digit limit is a ``TooManyDigits``), bools and ints
    as themselves.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _fmt(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, ProbVec):
        value = value.a
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_fmt(v) for v in value]
    if isinstance(value, Fraction):
        return core._written(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not text, or an int past Python's digit limit
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _parse(path, from_json):
    """Build a library object from a JSON file.

    A file that does not have the documented structure is a usage error
    (exit 1); a well-formed file holding an invalid object raises the
    library's own error (exit 2).
    """
    obj = _load_json(path)
    try:
        return from_json(obj)
    except BistochError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _convert(x, mode):
    """A matrix or vector in ``mode``; None keeps its own."""
    if mode is None or x.mode == mode:
        return x
    return x.to_float() if mode == FLOAT else type(x)(x.a, mode=mode)


def _load_matrix(path, mode=None):
    return _convert(_parse(path, core.matrix_from_json), mode)


def _load_vector(path, mode=None):
    return _convert(_parse(path, core.vector_from_json), mode)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


#: where a report's one-item-per-line list goes (see ``Report.emit``); JSON
#: writes it as "\u0000rows", which no file name can hold
_ROWS = "\0rows"


class Report:
    def __init__(self, command, inputs):
        self.body = {
            "command": command,
            "inputs": list(inputs),
            "outputs": [],
            "checks": [],
            "result": {},
        }

    def check(self, name, passed=None, defect=0, tol=None):
        """Record one check.  A check given ``tol`` passes when ``defect <= tol``
        and records the tolerance it used."""
        entry = {"name": name, "pass": bool(passed if tol is None else defect <= tol), "defect": _fmt(defect)}
        if tol is not None:
            entry["tol"] = _fmt(tol)
        self.body["checks"].append(entry)
        return entry["pass"]

    def output(self, path):
        self.body["outputs"].append(path)

    def emit(self, rows=()):
        """Write the report to stdout as indented JSON and return the exit code.

        ``rows`` replaces a ``_ROWS`` placeholder in the body: a list written
        one item per line, each item as compact JSON.
        """
        listed = "[" + ",".join("\n" + json.dumps(item) for item in rows) + "\n]"
        sys.stdout.write(json.dumps(self.body, indent=1).replace(json.dumps(_ROWS), listed, 1) + "\n")
        return 0 if all(c["pass"] for c in self.body["checks"]) else 2


def _at_least(least):
    """argparse type: an integer no smaller than ``least``."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _emit_matrix(report, M, out):
    payload = core.matrix_to_json(M)
    if out:
        _write_json(out, payload)
        report.output(out)
    else:
        report.body["result"]["matrix"] = payload


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_validate(args):
    M = _load_matrix(args.matrix, args.mode)
    report = Report("validate", [args.matrix])
    report.body["result"] = _fmt(core.validate(M, args.tol))
    return report.emit()


def cmd_fixed_point(args):
    T = _load_matrix(args.matrix, args.mode)
    res = core.fixed_point(T)
    report = Report("fixed-point", [args.matrix])
    report.body["result"] = _fmt(res)
    r = res.representative
    # T r sums to the column sums of T, so the residual carries the input's defect; T r is
    # read on numerators, t @ q over T.den * r.den, and not built as a ProbVec, which checks its sum
    tol = core._tol(T, core.RESULT_TOL + core._sum_check(T).max_column_defect)
    t, q = core._exact_operands(lambda t, q: (t * T.cols + T.den) * q, T.nums, r.nums)
    report.check("fixed_point_residual", defect=r._value(np.max(np.abs(t @ q - q * T.den))) / T.den, tol=tol)
    return report.emit()


def cmd_apply(args):
    T = _load_matrix(args.matrix, args.mode)
    p = _load_vector(args.vector, args.mode or T.mode)
    q = core.apply(T, p)
    report = Report("apply", [args.matrix, args.vector])
    report.body["result"] = _fmt({"image": q})
    return report.emit()


def cmd_iterate(args):
    T = _load_matrix(args.matrix, args.mode)
    p = _load_vector(args.vector, args.mode or T.mode)
    trajectory, converged = core.iterate(T, p, args.steps)
    report = Report("iterate", [args.matrix, args.vector])
    report.body["result"] = _fmt(
        {"steps": args.steps, "converged": converged, "final": trajectory[-1], "trajectory": trajectory}
    )
    return report.emit()


def cmd_coarse_grain(args):
    S = _load_matrix(args.matrix, args.mode)
    partition = _parse(args.partition, Partition.from_json)
    if args.right_inverse:
        Y = _load_matrix(args.right_inverse, S.mode)
        inputs = [args.matrix, args.partition, args.right_inverse]
    else:
        Y = uniform_right_inverse(partition, mode=S.mode)
        inputs = [args.matrix, args.partition]
    T = coarse_grain(S, partition, Y)
    report = Report("coarse-grain", inputs)
    report.check("left_stochastic", defect=core._sum_check(T).max_column_defect, tol=core._tol(T, core.DEFAULT_TOL))
    _emit_matrix(report, T, args.out)
    return report.emit()


def cmd_dilate(args):
    T = _load_matrix(args.matrix, args.mode)
    report = Report(f"dilate {args.kind}", [args.matrix])
    if args.kind == "uniform":
        if args.vec:
            p = _load_vector(args.vec, EXACT)
            report.body["inputs"].append(args.vec)
        else:
            p = core.fixed_point(_convert(T, EXACT)).representative
        dil = uniform_dilation(_convert(T, EXACT), p)
        report.body["result"]["partition"] = dil.partition.to_json()
        report.check("bi_stochastic", dil.checks["bi_stochastic"])
        report.check("coarse_grain_roundtrip", dil.checks["coarse_grain_roundtrip"])
    else:
        if args.kind == "noisy":
            dil, sum_tol = env_dilation.noisy_dilation(T), core._tol(T, core.DEFAULT_TOL)
        else:
            T = _convert(T, FLOAT)
            dil, sum_tol = env_dilation.unistochastic_dilation(T), core.RESIDUAL_TOL
            report.check("orthogonal", defect=dil.orthogonality_defect(), tol=core.RESIDUAL_TOL)
        rep = core._sum_check(dil.matrix)
        report.check("bi_stochastic", defect=max(rep.max_column_defect, rep.max_row_defect), tol=sum_tol)
        defect, tol = roundtrip_defect(T, dil)
        # the unistochastic completion normalises column n of T: the extracted column is T[:, n] / colsum_n
        slack = 0 if args.kind == "noisy" else core._sum_check(T).max_column_defect
        report.check("extract_dilated == input", defect=defect, tol=tol + slack)
        if args.kind == "noisy":
            report.check("marginal_identity", defect=defect, tol=tol)
    _emit_matrix(report, dil.matrix, args.out)
    return report.emit()


def cmd_extract(args):
    R = _load_matrix(args.matrix, args.mode)
    T = env_dilation.extract_dilated(R, args.zero_index)
    report = Report("extract", [args.matrix])
    report.check("left_stochastic", defect=core._sum_check(T).max_column_defect, tol=core._tol(T, core.DEFAULT_TOL))
    _emit_matrix(report, T, args.out)
    return report.emit()


def cmd_verify_dilation(args):
    T = _load_matrix(args.matrix, args.mode)
    R = _load_matrix(args.dilation, args.mode)
    if R.rows % T.rows:  # also R.rows < T.rows: an environment of 0 states
        raise DimensionMismatch(f"dilation has {R.rows} rows, not a multiple of the matrix's {T.rows}")
    if args.rho:
        rho = _load_vector(args.rho, T.mode)
        inputs = [args.matrix, args.dilation, args.rho]
    else:
        rho = ProbVec.point_mass(R.rows // T.rows, 0, mode=T.mode)
        inputs = [args.matrix, args.dilation]
    report = Report("verify-dilation", inputs)
    defect, tol = roundtrip_defect(T, env_dilation.with_environment(R, rho))
    report.check("marginal_identity", defect=defect, tol=tol)
    return report.emit()


def cmd_entropy(args):
    p = _load_vector(args.vec, args.mode)
    report = Report("entropy", [args.vec])
    report.body["result"] = _fmt({"entropy": entropy_mod.shannon_entropy(p)})
    return report.emit()


def cmd_entropy_region(args):
    T = _load_matrix(args.matrix, FLOAT)
    n = T.rows
    anchor = ProbVec.uniform(n)
    directions = [ProbVec.point_mass(n, k) for k in range(n)]
    points = entropy_mod.region_boundary_scan(T, anchor, directions, resolution=args.grid)
    report = Report("entropy-region", [args.matrix])
    header = "t," + ",".join(f"p{k}" for k in range(n)) + ",H(p),H(Tp)"
    rows = [",".join(f"{v:.12g}" for v in row) for b in points for row in b.samples]
    csv = "\n".join([header, *rows]) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(csv)
        report.output(args.out)
    else:
        report.body["result"]["csv"] = csv
    boundary = [
        {"t": b.t, "point": b.point, "H(p)": b.h_p, "H(Tp)": b.h_tp, "full_segment_inside": b.full_segment_inside}
        for b in points
    ]
    report.body["result"]["boundary"] = _fmt(boundary)
    return report.emit()


def cmd_ledger(args):
    T = _load_matrix(args.matrix, args.mode)
    p = _load_vector(args.vector, T.mode)
    led = entropy_mod.entropy_ledger(T, p)
    report = Report("ledger", [args.matrix, args.vector])
    report.body["result"] = {**_fmt(led), "marginal_sum": _fmt(led.h_marginal_1 + led.h_marginal_2)}
    report.check("evolved_not_below_lifted", defect=max(0.0, led.h_lifted - led.h_evolved), tol=core.RESIDUAL_TOL)
    return report.emit()


def cmd_birkhoff(args):
    S = _load_matrix(args.matrix, args.mode)
    dec = entropy_mod.birkhoff_decompose(S, tol=args.tol)
    report = Report("birkhoff", [args.matrix])
    weight_sum = dec.weight_sum()
    result = {"term_count": len(dec.weights), "weight_sum": weight_sum, "residual_mass": dec.residual_mass}
    report.body["result"] = {"terms": _ROWS, **_fmt(result)}
    # both checks allow the mass that peeling left unexplained; the weights
    # also carry the input's column defect: sum(w) = colsum(S) - colsum(residual)
    tol = core._tol(S, dec.residual_mass + core.RESIDUAL_TOL)
    report.check("reconstruction", defect=core._max_difference(dec.reconstruct(mode=S.mode), S), tol=tol)
    column_defect = core._sum_check(S, args.tol).max_column_defect
    tol = core._tol(S, dec.residual_mass + column_defect + core.RESIDUAL_TOL)
    report.check("weights_sum_to_one", defect=abs(weight_sum - 1), tol=tol)
    # one term per line, and only the weights go through _fmt: a permutation is already a list of ints
    terms = ({"weight": _fmt(w), "permutation": sigma} for w, sigma in zip(dec.weights, dec.perms.tolist()))
    return report.emit(terms)


def cmd_sinkhorn(args):
    T = _load_matrix(args.matrix, FLOAT)
    res = sinkhorn_mod.sinkhorn_knopp(T, tol=args.tol, max_iter=args.max_iter)
    report = Report("sinkhorn", [args.matrix])
    report.body["result"] = _fmt(
        {"d1": res.d1, "d2": res.d2, "iterations": res.iterations, "final_defect": res.final_defect}
    )
    report.check("bi_stochastic", defect=res.final_defect, tol=args.tol)
    scaled = res.d1[:, None] * T.a * res.d2
    report.check("diagonal_factorization", defect=float(np.max(np.abs(scaled - res.matrix.a))), tol=10 * args.tol)
    _emit_matrix(report, res.matrix, args.out)
    return report.emit()


def cmd_demo_maxwell(args):
    """Reproduce the Maxwell-demon worked example end to end."""
    T = matrices.maxwell_demon(mode=EXACT)
    uniform = ProbVec.uniform(4, mode=EXACT)
    fp = core.fixed_point(T)
    one_step = core.apply(T, uniform)
    limit = core.iterate(T.to_float(), uniform.to_float(), 60)[0][-1]
    led = entropy_mod.entropy_ledger(T, uniform)
    ledger = {key: getattr(led, key) for key in ("h_input", "h_evolved", "h_marginal_1", "h_marginal_2")}
    ledger["marginal_sum"] = led.h_marginal_1 + led.h_marginal_2
    result = {
        "fixed_point_face": "{(a, 0, 0, 1-a)}",
        "one_step_image": one_step,
        "one_step_entropy": entropy_mod.shannon_entropy(one_step),
        "limit": limit,
        "limit_entropy": entropy_mod.shannon_entropy(limit),
        "ledger": ledger,
    }
    h, e = Fraction(1, 2), Fraction(1, 8)
    # (name, got, expected, tol): got == expected without a tol, else |got - expected| <= tol
    table = [
        ("fixed_point_face_dimension", fp.face_dimension, 1, None),
        ("fixed_point_representative", fp.representative, ProbVec([h, 0, 0, h], mode=EXACT), None),
        ("one_step_image", one_step, ProbVec([3 * e, e, e, 3 * e], mode=EXACT), None),
        ("one_step_entropy", result["one_step_entropy"], 1.25548, 1e-4),
        ("iterate_limit", limit.a, np.array([0.5, 0.0, 0.0, 0.5]), core.RESULT_TOL),
        ("limit_entropy", result["limit_entropy"], math.log(2), 1e-4),
        ("noisy_dilation_matrix", env_dilation.noisy_dilation(T).matrix, matrices.maxwell_demon_dilation(), None),
        *((f"ledger_{key}", ledger[key], want, 1e-4)
          for key, want in zip(ledger, [1.38629, 1.73287, 1.25548, 1.38629, 2.64178])),
        ("ledger_second_marginal_is_input", led.marginal_2.allclose(uniform.to_float()), True, None),
    ]
    report, failed = Report("demo maxwell", []), []
    for name, got, want, tol in table:
        defect = 0 if tol is None else np.max(np.abs(got - want))
        if not report.check(name, tol is None and got == want, defect, tol):
            failed.append(name)
    report.body["result"] = _fmt(result)
    code = report.emit()
    if failed:
        raise DemoMismatch(failed[0])
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="bistoch", description="Analyze and dilate stochastic matrices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, modes=True, **kwargs):
        """A subcommand; with ``modes``, one whose inputs ``--mode`` converts."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if modes:
            p.add_argument("--mode", choices=[EXACT, FLOAT], default=None, help="convert inputs to this mode")
        return p

    p = add("validate", cmd_validate, help="classify a matrix as left/right/bi-stochastic")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=core.DEFAULT_TOL)

    p = add("fixed-point", cmd_fixed_point, help="fixed point and fixed-point face of a stochastic matrix")
    p.add_argument("matrix")

    p = add("apply", cmd_apply, help="apply a stochastic matrix to a distribution")
    p.add_argument("matrix")
    p.add_argument("vector")

    p = add("iterate", cmd_iterate, help="iterate a stochastic matrix on a distribution")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.add_argument("--steps", type=_at_least(0), default=1)

    p = add("coarse-grain", cmd_coarse_grain, help="coarse grain a matrix over a partition")
    p.add_argument("matrix")
    p.add_argument("partition")
    p.add_argument("--right-inverse", default=None, help="custom right-inverse matrix JSON")
    p.add_argument("--out", default=None)

    p = add("dilate", cmd_dilate, help="dilate a stochastic matrix to a bi-stochastic one")
    p.add_argument("kind", choices=["uniform", "noisy", "unistochastic"])
    p.add_argument("matrix")
    p.add_argument("--vec", default=None, help="exact rational fixed point (uniform dilation)")
    p.add_argument("--out", default=None)

    p = add("extract", cmd_extract, help="recover the dilated matrix from a standard dilation")
    p.add_argument("matrix")
    p.add_argument("--zero-index", type=int, default=0)
    p.add_argument("--out", default=None)

    p = add("verify-dilation", cmd_verify_dilation, help="check the marginal identity of a dilation")
    p.add_argument("matrix")
    p.add_argument("dilation")
    p.add_argument("--rho", default=None, help="environment distribution (default: point mass at 0)")

    p = add("entropy", cmd_entropy, help="Shannon entropy of a distribution (nats)")
    p.add_argument("--vec", required=True)

    p = add("entropy-region", cmd_entropy_region, modes=False,
            help="scan the entropy-decreasing region along vertex rays")
    p.add_argument("matrix")
    p.add_argument("--grid", type=_at_least(1), default=64)
    p.add_argument("--out", default=None, help="CSV output path")

    p = add("ledger", cmd_ledger, help="entropy ledger of the noisy dilation")
    p.add_argument("matrix")
    p.add_argument("vector")

    p = add("birkhoff", cmd_birkhoff, help="Birkhoff-von Neumann decomposition")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=core.DEFAULT_TOL)

    p = add("sinkhorn", cmd_sinkhorn, modes=False, help="Sinkhorn-Knopp balancing")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=core.RESULT_TOL)
    p.add_argument("--max-iter", type=_at_least(1), default=sinkhorn_mod.DEFAULT_MAX_ITER)
    p.add_argument("--out", default=None)

    p = add("demo", cmd_demo_maxwell, modes=False, help="worked Maxwell-demon example with self-checks")
    p.add_argument("name", choices=["maxwell"])

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DemoMismatch as exc:
        print(f"demo mismatch: {exc}", file=sys.stderr)
        return 2
    except (BistochError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
