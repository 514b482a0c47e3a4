"""Command-line front end.

Every subcommand prints a JSON run report to stdout: the command, the input
and output files, a list of checks, each its name, pass, defect and
tolerance, and a command-specific result payload.  Dilation subcommands
always embed their verification checks; an unverified dilation is never
emitted.

:func:`run` is the one runner.  It builds the :class:`Report` and calls the
subcommand, which reads each input through the report (recording its
path), records the checks the library gives for its result, each a name ->
``(defect, tol)`` dict, and returns its result or None.  The runner then
writes a result matrix to ``--out``, or puts it into the report, formats the
result (:func:`_fmt`) and prints the report.  No check and no tolerance
rule is computed here: each check is a library call.

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
    ``StochMatrix`` becomes its JSON object, as a file holds it; a
    ``ProbVec``, numpy array, list or tuple becomes a list.  Scalars: floats
    to 12 significant digits, a ``Fraction`` as ``"p/q"`` (an int when whole;
    one past Python's int-digit limit is a ``TooManyDigits``), bools and ints
    as themselves.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: _fmt(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, core.StochMatrix):
        return core.matrix_to_json(value)
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


def _parse(path, from_json):
    """Build a library object from a JSON file.

    A file that cannot be read as JSON, or does not have the documented
    structure, is a usage error (exit 1); a well-formed file holding an
    invalid object raises the library's own error (exit 2).
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not text, or an int past Python's digit limit
        raise UsageError(f"cannot read {path}: {exc}") from exc
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


#: where a report's one-item-per-line list goes (see ``Report.emit``); JSON
#: writes it as "\u0000rows", which no file name can hold
_ROWS = "\0rows"


class Report:
    """The JSON run report of one subcommand.

    :func:`run` makes it; the subcommand reads its inputs through it
    (:meth:`read`, :meth:`matrix`, :meth:`vector`), which records each path
    as it is read, and records the library's checks (:meth:`checks`).
    """

    def __init__(self, command, inputs=()):
        self.body = {"command": command, "inputs": list(inputs), "outputs": [], "checks": [], "result": {}}
        self.rows = ()  # the items of a _ROWS placeholder in the result

    def read(self, path, from_json, mode=None):
        """The object of a JSON input file, converted to ``mode`` (None keeps its own)."""
        obj = _convert(_parse(path, from_json), mode)
        self.body["inputs"].append(path)
        return obj

    def matrix(self, path, mode=None):
        return self.read(path, core.matrix_from_json, mode)

    def vector(self, path, mode=None):
        return self.read(path, core.vector_from_json, mode)

    def check(self, name, passed=None, defect=0, tol=None):
        """Record one check.  A check given ``tol`` passes when ``defect <= tol``
        and records the tolerance it used."""
        entry = {"name": name, "pass": bool(passed if tol is None else defect <= tol), "defect": _fmt(defect)}
        if tol is not None:
            entry["tol"] = _fmt(tol)
        self.body["checks"].append(entry)
        return entry["pass"]

    def checks(self, defects):
        """Record a library dict of checks, name -> ``(defect, tol)``, in its order."""
        for name, (defect, tol) in defects.items():
            self.check(name, defect=defect, tol=tol)

    def write(self, path, text):
        """Write an output file and record its path."""
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        self.body["outputs"].append(path)

    def emit(self):
        """Write the report to stdout as indented JSON and return the exit code.

        ``self.rows`` replaces a ``_ROWS`` placeholder in the body: a list
        written one item per line, each item as compact JSON.
        """
        listed = "[" + ",".join("\n" + json.dumps(item) for item in self.rows) + "\n]"
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


# ---------------------------------------------------------------------------
# subcommand implementations: each reads its inputs through the report,
# records the library's checks on it and returns its result, or None
# ---------------------------------------------------------------------------

def cmd_validate(args, report):
    return core.validate(report.matrix(args.matrix, args.mode), args.tol)


def cmd_fixed_point(args, report):
    T = report.matrix(args.matrix, args.mode)
    res = core.fixed_point(T)
    report.checks({"fixed_point_residual": core.fixed_point_residual(T, res.representative)})
    return res


def cmd_apply(args, report):
    T = report.matrix(args.matrix, args.mode)
    return {"image": core.apply(T, report.vector(args.vector, args.mode or T.mode))}


def cmd_iterate(args, report):
    T = report.matrix(args.matrix, args.mode)
    trajectory, converged = core.iterate(T, report.vector(args.vector, args.mode or T.mode), args.steps)
    return {"steps": args.steps, "converged": converged, "final": trajectory[-1], "trajectory": trajectory}


def cmd_coarse_grain(args, report):
    S = report.matrix(args.matrix, args.mode)
    partition = report.read(args.partition, Partition.from_json)
    Y = report.matrix(args.right_inverse, S.mode) if args.right_inverse else uniform_right_inverse(partition, S.mode)
    T = coarse_grain(S, partition, Y)
    report.checks({"left_stochastic": core.sum_defect(T, rows=False)})
    return {"matrix": T}


#: per dilation kind: the mode T is converted to (None keeps it), and the
#: checks its report records, in order, each under the name the dilation's
#: ``defects()`` gives it
_DILATIONS = {
    "uniform": (EXACT, {"bi_stochastic": "bi_stochastic", "coarse_grain_roundtrip": "coarse_grain_roundtrip"}),
    "noisy": (None, {"bi_stochastic": "bi_stochastic", "extract_dilated == input": "coarse_grain_roundtrip",
                     "marginal_identity": "coarse_grain_roundtrip"}),
    "unistochastic": (FLOAT, {"orthogonal": "orthogonal", "bi_stochastic": "bi_stochastic",
                              "extract_dilated == input": "coarse_grain_roundtrip"}),
}


def cmd_dilate(args, report):
    mode, names = _DILATIONS[args.kind]
    T = _convert(report.matrix(args.matrix, args.mode), mode)
    result = {}
    if args.kind == "uniform":
        p = report.vector(args.vec, EXACT) if args.vec else core.fixed_point(T).representative
        dil = uniform_dilation(T, p)
        result["partition"] = dil.partition.to_json()
    elif args.kind == "noisy":
        dil = env_dilation.noisy_dilation(T)
    else:
        dil = env_dilation.unistochastic_dilation(T)
    defects = dil.defects()
    report.checks({name: defects[key] for name, key in names.items()})
    return {**result, "matrix": dil.matrix}


def cmd_extract(args, report):
    T = env_dilation.extract_dilated(report.matrix(args.matrix, args.mode), args.zero_index)
    report.checks({"left_stochastic": core.sum_defect(T, rows=False)})
    return {"matrix": T}


def cmd_verify_dilation(args, report):
    T = report.matrix(args.matrix, args.mode)
    R = report.matrix(args.dilation, args.mode)
    if R.rows % T.rows:  # also R.rows < T.rows: an environment of 0 states
        raise DimensionMismatch(f"dilation has {R.rows} rows, not a multiple of the matrix's {T.rows}")
    rho = report.vector(args.rho, T.mode) if args.rho else ProbVec.point_mass(R.rows // T.rows, 0, mode=T.mode)
    report.checks({"marginal_identity": roundtrip_defect(T, env_dilation.with_environment(R, rho))})


def cmd_entropy(args, report):
    return {"entropy": entropy_mod.shannon_entropy(report.vector(args.vec, args.mode))}


def cmd_entropy_region(args, report):
    T = report.matrix(args.matrix, FLOAT)
    n = T.rows
    anchor = ProbVec.uniform(n)
    directions = [ProbVec.point_mass(n, k) for k in range(n)]
    points = entropy_mod.region_boundary_scan(T, anchor, directions, resolution=args.grid)
    header = "t," + ",".join(f"p{k}" for k in range(n)) + ",H(p),H(Tp)"
    rows = [",".join(f"{v:.12g}" for v in row) for b in points for row in b.samples]
    csv = "\n".join([header, *rows]) + "\n"
    if args.out:
        report.write(args.out, csv)
    result = {} if args.out else {"csv": csv}
    result["boundary"] = [
        {"t": b.t, "point": b.point, "H(p)": b.h_p, "H(Tp)": b.h_tp, "full_segment_inside": b.full_segment_inside}
        for b in points
    ]
    return result


def cmd_ledger(args, report):
    T = report.matrix(args.matrix, args.mode)
    led = entropy_mod.entropy_ledger(T, report.vector(args.vector, T.mode))
    report.checks(led.defects())
    return {**_fmt(led), "marginal_sum": led.h_marginal_1 + led.h_marginal_2}


def cmd_birkhoff(args, report):
    S = report.matrix(args.matrix, args.mode)
    dec = entropy_mod.birkhoff_decompose(S, tol=args.tol)
    report.checks(dec.defects(S))
    # one term per line, and only the weights go through _fmt: a permutation is already a list of ints
    report.rows = ({"weight": _fmt(w), "permutation": sigma} for w, sigma in zip(dec.weights, dec.perms.tolist()))
    return {"terms": _ROWS, "term_count": len(dec.weights), "weight_sum": dec.weight_sum(),
            "residual_mass": dec.residual_mass}


def cmd_sinkhorn(args, report):
    T = report.matrix(args.matrix, FLOAT)
    res = sinkhorn_mod.sinkhorn_knopp(T, tol=args.tol, max_iter=args.max_iter)
    report.checks(res.defects(T, args.tol))
    return {"d1": res.d1, "d2": res.d2, "iterations": res.iterations, "final_defect": res.final_defect,
            "matrix": res.matrix}


def cmd_demo_maxwell(args, report):
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
    report.body["result"] = _fmt(result)  # emitted also when a check fails (see run)
    passed = [report.check(name, tol is None and got == want, 0 if tol is None else np.max(np.abs(got - want)), tol)
              for name, got, want, tol in table]
    if not all(passed):
        raise DemoMismatch(table[passed.index(False)][0])


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
    # named by the subcommand and, for dilate and demo, the choice of what it runs
    report = Report(" ".join([args.subcommand, *(getattr(args, k) for k in ("kind", "name") if k in args)]))
    try:
        result = args.func(args, report)
        if getattr(args, "out", None) and "matrix" in result:  # a result matrix goes to --out, else into the report
            report.write(args.out, json.dumps(core.matrix_to_json(result.pop("matrix")), indent=1) + "\n")
        if result is not None:
            report.body["result"] = _fmt(result)
        return report.emit()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DemoMismatch as exc:
        report.emit()
        print(f"demo mismatch: {exc}", file=sys.stderr)
        return 2
    except (BistochError, MemoryError) as exc:  # a bare MemoryError() carries no message of its own
        print(f"error: {type(exc).__name__}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
