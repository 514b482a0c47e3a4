"""Command-line front end.

Every subcommand prints a JSON run report to stdout: the command, the input
and output files, a list of checks, each its name, pass, defect and
tolerance, and a command-specific result payload.  Dilation subcommands
always embed their verification checks; an unverified dilation is never
emitted.

Each subcommand is one function and one declaration (:func:`command`): its
help, its input files, its mode and its other arguments.
:func:`build_parser` registers the parser from the declarations.

:func:`run` is the one runner.  It builds the :class:`Report`, reads the
subcommand's input files through it (:func:`_read_inputs`, recording each
path) and calls the subcommand with their objects.  The subcommand records
the checks the library gives for its result, each a name -> ``(defect,
tol)`` dict, and returns its result or None.  The runner then writes a
result matrix to ``--out``, or puts it into the report, formats the result
(:func:`_fmt`) and prints the report.  No check and no tolerance rule is
computed here: each check is a library call.

One rule sets the mode of every input file: a matrix is read in ``--mode``,
or in its subcommand's fixed mode (float for ``sinkhorn`` and
``entropy-region``), or else as its file holds it; a vector in the mode of
the input read before it; a partition as held.  Option files (``--rho``,
``--right-inverse``, ``dilate --vec``) are read by their subcommands, in
the mode each needs.  ``--tol`` is a finite number no smaller than 0; NaN,
an infinity or a negative value is a usage error.

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
    """A command line or an input file that the CLI cannot use: exit 1."""


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

    :func:`run` makes it and reads the input files through it, a subcommand
    its option files (:meth:`read`, :meth:`matrix`, :meth:`vector`), which
    records each path as it is read; the subcommand records the library's
    checks (:meth:`checks`).
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


def _at_least(least, number=int):
    """argparse type: a finite ``number`` (int or float) no smaller than ``least``."""

    def parse(text):
        value = number(text)
        if not least <= value < math.inf:  # also refuses NaN, which compares false
            raise argparse.ArgumentTypeError(f"must be finite and at least {least}, got {value}")
        return value

    parse.__name__ = number.__name__  # argparse's "invalid float value" for a text it cannot parse
    return parse


#: every subcommand, in help order: name -> (function, help, input files, mode, other arguments)
COMMANDS = {}

#: the reader of an input file, by its argument name
_READERS = {"matrix": core.matrix_from_json, "dilation": core.matrix_from_json, "vector": core.vector_from_json,
            "--vec": core.vector_from_json, "partition": Partition.from_json}


def command(name, help, inputs="", mode="--mode", options=None):
    """Declare a subcommand: its name and help, its input files in order
    (argument names, read by :func:`_read_inputs`), its mode (``"--mode"``
    for the option, a fixed mode, or None for none) and its other arguments,
    each name or flag -> its ``add_argument`` keywords."""

    def declare(func):
        COMMANDS[name] = (func, help, inputs.split(), mode, options or {})
        return func

    return declare


def _read_inputs(args, report, inputs):
    """The objects of a subcommand's input files, read in order under the one mode rule.

    A matrix is read in ``args.mode``: ``--mode``, or the subcommand's fixed
    mode, or else (None) as its file holds it.  A vector is read in the mode
    of the input read before it, or in ``args.mode`` when it is the first.  A
    partition is read as held.
    """
    objs = []
    for name in inputs:
        from_json = _READERS[name]
        mode = None if from_json == Partition.from_json else args.mode  # a classmethod is a new object at each read
        if objs and from_json == core.vector_from_json:
            mode = objs[-1].mode
        objs.append(report.read(getattr(args, name.lstrip("-")), from_json, mode))
    return objs


# ---------------------------------------------------------------------------
# subcommands: each is called with the objects of its input files, records
# the library's checks on them and returns its result, or None
# ---------------------------------------------------------------------------

_TOL = {"type": _at_least(0, float), "default": core.DEFAULT_TOL}


@command("validate", "classify a matrix as left/right/bi-stochastic", "matrix", options={"--tol": _TOL})
def cmd_validate(args, report, T):
    return core.validate(T, args.tol)


@command("fixed-point", "fixed point and fixed-point face of a stochastic matrix", "matrix")
def cmd_fixed_point(args, report, T):
    res = core.fixed_point(T)
    report.checks({"fixed_point_residual": core.fixed_point_residual(T, res.representative)})
    return res


@command("apply", "apply a stochastic matrix to a distribution", "matrix vector")
def cmd_apply(args, report, T, p):
    return {"image": core.apply(T, p)}


@command("iterate", "iterate a stochastic matrix on a distribution", "matrix vector",
         options={"--steps": {"type": _at_least(0), "default": 1}})
def cmd_iterate(args, report, T, p):
    trajectory, converged = core.iterate(T, p, args.steps)
    return {"steps": args.steps, "converged": converged, "final": trajectory[-1], "trajectory": trajectory}


@command("coarse-grain", "coarse grain a matrix over a partition", "matrix partition",
         options={"--right-inverse": {"help": "custom right-inverse matrix JSON"}, "--out": {}})
def cmd_coarse_grain(args, report, S, partition):
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


@command("dilate", "dilate a stochastic matrix to a bi-stochastic one", "matrix",
         options={"kind": {"choices": list(_DILATIONS)},
                  "--vec": {"help": "exact rational fixed point (uniform dilation)"}, "--out": {}})
def cmd_dilate(args, report, T):
    mode, names = _DILATIONS[args.kind]
    T = _convert(T, mode)
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


@command("extract", "recover the dilated matrix from a standard dilation", "matrix",
         options={"--zero-index": {"type": int, "default": 0}, "--out": {}})
def cmd_extract(args, report, R):
    T = env_dilation.extract_dilated(R, args.zero_index)
    report.checks({"left_stochastic": core.sum_defect(T, rows=False)})
    return {"matrix": T}


@command("verify-dilation", "check the marginal identity of a dilation", "matrix dilation",
         options={"--rho": {"help": "environment distribution (default: point mass at 0)"}})
def cmd_verify_dilation(args, report, T, R):
    if R.rows % T.rows:  # also R.rows < T.rows: an environment of 0 states
        raise DimensionMismatch(f"dilation has {R.rows} rows, not a multiple of the matrix's {T.rows}")
    rho = report.vector(args.rho, T.mode) if args.rho else ProbVec.point_mass(R.rows // T.rows, 0, mode=T.mode)
    report.checks({"marginal_identity": roundtrip_defect(T, env_dilation.with_environment(R, rho))})


@command("entropy", "Shannon entropy of a distribution (nats)", "--vec")
def cmd_entropy(args, report, p):
    return {"entropy": entropy_mod.shannon_entropy(p)}


@command("entropy-region", "scan the entropy-decreasing region along vertex rays", "matrix", FLOAT,
         options={"--grid": {"type": _at_least(1), "default": 64}, "--out": {"help": "CSV output path"}})
def cmd_entropy_region(args, report, T):
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


@command("ledger", "entropy ledger of the noisy dilation", "matrix vector")
def cmd_ledger(args, report, T, p):
    led = entropy_mod.entropy_ledger(T, p)
    report.checks(led.defects())
    return {**_fmt(led), "marginal_sum": led.h_marginal_1 + led.h_marginal_2}


@command("birkhoff", "Birkhoff-von Neumann decomposition", "matrix", options={"--tol": _TOL})
def cmd_birkhoff(args, report, S):
    dec = entropy_mod.birkhoff_decompose(S, tol=args.tol)
    report.checks(dec.defects(S))
    # one term per line, and only the weights go through _fmt: a permutation is already a list of ints
    report.rows = ({"weight": _fmt(w), "permutation": sigma} for w, sigma in zip(dec.weights, dec.perms.tolist()))
    return {"terms": _ROWS, "term_count": len(dec.weights), "weight_sum": dec.weight_sum(),
            "residual_mass": dec.residual_mass}


@command("sinkhorn", "Sinkhorn-Knopp balancing", "matrix", FLOAT,
         options={"--tol": {**_TOL, "default": core.RESULT_TOL},
                  "--max-iter": {"type": _at_least(1), "default": sinkhorn_mod.DEFAULT_MAX_ITER}, "--out": {}})
def cmd_sinkhorn(args, report, T):
    res = sinkhorn_mod.sinkhorn_knopp(T, tol=args.tol, max_iter=args.max_iter)
    report.checks(res.defects(T, args.tol))
    return {"d1": res.d1, "d2": res.d2, "iterations": res.iterations, "final_defect": res.final_defect,
            "matrix": res.matrix}


@command("demo", "worked Maxwell-demon example with self-checks", mode=None, options={"name": {"choices": ["maxwell"]}})
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
    """The parser of every declared subcommand: its ``--mode`` first, or its
    fixed mode as a default, then its other arguments and its input files."""
    parser = _Parser(prog="bistoch", description="Analyze and dilate stochastic matrices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help, inputs, mode, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if mode == "--mode":
            p.add_argument("--mode", choices=[EXACT, FLOAT], default=None, help="convert inputs to this mode")
        else:
            p.set_defaults(mode=mode)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        for input_name in inputs:  # an input flag (entropy's --vec) is a required option
            p.add_argument(input_name, **({"required": True} if input_name.startswith("-") else {}))
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
    func, _, inputs, _, _ = COMMANDS[args.subcommand]
    try:
        result = func(args, report, *_read_inputs(args, report, inputs))
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
