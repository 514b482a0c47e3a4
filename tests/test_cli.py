import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix
from bistoch.cli import Report, _fmt, build_parser, run
from bistoch.core import RESIDUAL_TOL

from conftest import (
    demon_dilation_expected,
    random_prob_vec_exact,
    random_prob_vec_float,
    random_stochastic_exact,
    random_stochastic_float,
)
from test_env_dilation import float_matrices_with_zeros
from test_exact_properties import permutation_mixtures, shuffled_partitions


@pytest.fixture
def demon_file(tmp_path, demon):
    path = tmp_path / "demon.json"
    path.write_text(json.dumps(bs.matrix_to_json(demon)))
    return str(path)


@pytest.fixture
def uniform4_file(tmp_path):
    p = ProbVec.uniform(4, mode=EXACT)
    path = tmp_path / "uniform4.json"
    path.write_text(json.dumps(bs.vector_to_json(p)))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out else None


# malformed or invalid input files: (command, one JSON payload or a tuple of one per input file, exit code)
BAD_INPUTS = [
    ("validate", {"mode": "exact", "cols": 2, "data": [[1, 0], [0, 1]]}, 1),
    ("validate", {"mode": "exact", "rows": 2, "cols": 2, "data": [["1/0", 0], [0, 1]]}, 1),
    ("validate", {"mode": "exact", "rows": 2, "cols": 2, "data": [["abc", 0], [0, 1]]}, 1),
    ("validate", [[1, 0], [0, 1]], 1),
    ("entropy --vec", {"mode": "exact", "rows": 2, "cols": 1, "data": [["1/2"], ["1/3"]]}, 2),
    ("validate", {"mode": "float", "rows": 2, "cols": 2, "data": [[math.nan, 1.0], [1.0, 0.0]]}, 2),
    ("entropy-region", {"mode": "float", "rows": 2, "cols": 3, "data": [[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]}, 2),
    ("entropy-region", {"mode": "float", "rows": 2, "cols": 2, "data": [[2, 0], [0, 2]]}, 2),
    # a tuple holds one payload per input file: a 2x2 dilation of a 4x4 matrix
    ("verify-dilation", (bs.matrix_to_json(StochMatrix.identity(4, mode=EXACT)),
                         bs.matrix_to_json(StochMatrix.identity(2, mode=EXACT))), 2),
    ("validate", {"mode": "float", "rows": 1, "cols": 0, "data": [[]]}, 2),
    ("validate", {"mode": "exact", "rows": 1, "cols": 0, "data": [[]]}, 2),
    ("birkhoff", {"mode": "float", "rows": 1, "cols": 0, "data": [[]]}, 2),
    ("birkhoff", {"mode": "exact", "rows": 1, "cols": 0, "data": [[]]}, 2),
    # an exact entry too large for a float, where a command converts it
    *((command, {"mode": "exact", "rows": 1, "cols": 1, "data": [["1e400"]]}, 2)
      for command in ("sinkhorn", "entropy-region", "dilate unistochastic", "validate --mode float",
                      "fixed-point --mode float")),
    # a vector row must be a one-entry list: not two entries, a string or an empty list
    ("entropy --vec", {"mode": "exact", "rows": 2, "cols": 1, "data": [["1/2", 7], ["1/2"]]}, 2),
    ("entropy --vec", {"mode": "exact", "rows": 1, "cols": 1, "data": ["1x"]}, 2),
    ("entropy --vec", {"mode": "exact", "rows": 1, "cols": 1, "data": [[]]}, 2),
    # and so must a matrix row
    ("validate", {"mode": "exact", "rows": 1, "cols": 1, "data": [5]}, 2),
    # an entry must be a scalar: not a list, in a row of the declared length, nor an object
    ("validate", {"mode": "exact", "rows": 1, "cols": 2, "data": [[[1], [1, 2]]]}, 2),
    ("validate", {"mode": "float", "rows": 1, "cols": 2, "data": [[[1.0], [0.5, 0.5]]]}, 2),
    ("validate", {"mode": "exact", "rows": 1, "cols": 1, "data": [[{"num": 1}]]}, 2),
    ("entropy --vec", {"mode": "float", "rows": 2, "cols": 1, "data": [[{"p": 0.5}], [0.5]]}, 2),
    # an exact token whose exponent reaches Python's limit on int digits: one could not write it back
    ("validate", {"mode": "exact", "rows": 1, "cols": 1, "data": [["1e5000"]]}, 1),
    ("entropy --vec", {"mode": "exact", "rows": 1, "cols": 1, "data": [["1e50000000"]]}, 1),
]
BAD_INPUT_IDS = [
    "missing-rows", "zero-denominator", "not-a-number", "top-level-list", "vector-sum", "nan-entry",
    "non-square-region", "non-stochastic-region", "dilation-smaller-than-matrix", "zero-columns-float",
    "zero-columns-exact", "birkhoff-zero-columns-float", "birkhoff-zero-columns-exact",
    "overflow-sinkhorn", "overflow-region", "overflow-unistochastic", "overflow-validate-float",
    "overflow-fixed-point-float", "vector-row-two-entries", "vector-row-string", "vector-row-empty",
    "matrix-row-not-a-list", "exact-ragged-list-entry", "float-ragged-list-entry", "exact-object-entry",
    "vector-object-entry", "exponent-past-int-limit", "huge-exponent",
]
NON_SCALAR_ENTRY_IDS = [
    "exact-ragged-list-entry", "float-ragged-list-entry", "exact-object-entry", "vector-object-entry",
]


# partition files for `coarse-grain` of a 4 x 4 matrix: (classes object, exit code); the indices are
# checked as the file gives them, so 0.0 and false/true are states 0 and 1, while 0.5 is no state
PARTITION_FILES = {
    "valid": ({"d": 4, "classes": [[0, 1], [2, 3]]}, 0),
    "unsorted-classes": ({"d": 4, "classes": [[3, 2], [1, 0]]}, 0),
    "float-index": ({"d": 4, "classes": [[0.0, 1], [2, 3]]}, 0),
    "bool-indices": ({"d": 4, "classes": [[False, True], [2, 3]]}, 0),
    "string-index": ({"d": 4, "classes": [["0", 1], [2, 3]]}, 1),
    "nested-list": ({"d": 4, "classes": [[[0], 1], [2, 3]]}, 1),
    "classes-not-lists": ({"d": 4, "classes": [0, 1]}, 1),
    "string-d": ({"d": "4", "classes": [[0, 1], [2, 3]]}, 1),
    "float-d": ({"d": 4.0, "classes": [[0, 1], [2, 3]]}, 1),
    "no-d": ({"classes": [[0, 1], [2, 3]]}, 1),
    "fractional-index": ({"d": 4, "classes": [[0.5, 1], [2, 3]]}, 2),
    "negative-index": ({"d": 4, "classes": [[-1, 1], [2, 3]]}, 2),
    "duplicate-index": ({"d": 4, "classes": [[0, 1, 1], [2, 3]]}, 2),
    "missing-state": ({"d": 4, "classes": [[0, 1], [2]]}, 2),
    "empty-class": ({"d": 4, "classes": [[0, 1], [2, 3], []]}, 2),
    "no-classes": ({"d": 4, "classes": []}, 2),
    "d-disagrees": ({"d": 5, "classes": [[0, 1], [2, 3]]}, 2),
    "huge-index": ({"d": 4, "classes": [[10**30, 1], [2, 3]]}, 2),
}


def columns_over_their_sums(seed, n, high):
    """The JSON object of an exact T of seeded random integer columns over their sums."""
    w = np.random.default_rng(seed).integers(1, high, size=(n, n))
    data = [[Fraction(int(v), int(s)) for v, s in zip(row, w.sum(axis=0))] for row in w]
    return bs.matrix_to_json(StochMatrix(data, mode=EXACT))


def write_inputs(tmp_path, payload):
    """Write one JSON file per payload part and return their paths."""
    paths = []
    for i, part in enumerate(payload if isinstance(payload, tuple) else (payload,)):
        paths.append(tmp_path / f"input{i}.json")
        paths[-1].write_text(json.dumps(part))
    return [str(path) for path in paths]


class TestExitCodes:
    def test_success_is_zero(self, capsys, demon_file):
        code, report = run_json(capsys, ["validate", demon_file])
        assert code == 0
        assert report["result"]["left"] and not report["result"]["bi"]

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["entropy-region", "--grid", "0"],
            ["entropy-region", "--grid", "-2"],
            ["iterate", "--steps", "-1"],
            ["sinkhorn", "--max-iter", "0"],
            ["sinkhorn", "--max-iter", "-1"],
            # a tolerance is a finite number of at least 0; argparse takes "-1e-9" for a flag, "--tol=-1e-9" not
            ["validate", "--tol", "nan"],
            ["validate", "--tol", "inf"],
            ["validate", "--tol=-1e-9"],
            ["birkhoff", "--tol", "nan"],
            ["birkhoff", "--tol=-inf"],
            ["sinkhorn", "--tol", "nan"],
            ["sinkhorn", "--tol", "inf"],
            ["sinkhorn", "--tol", "1e400"],
            ["sinkhorn", "--tol", "-0.5"],
        ],
        ids=["grid-zero", "grid-negative", "steps-negative", "max-iter-zero", "max-iter-negative",
             "validate-tol-nan", "validate-tol-inf", "validate-tol-negative", "birkhoff-tol-nan",
             "birkhoff-tol-minus-inf", "sinkhorn-tol-nan", "sinkhorn-tol-inf", "sinkhorn-tol-overflow",
             "sinkhorn-tol-negative"],
    )
    def test_out_of_range_count_is_usage_error(self, capsys, demon_file, uniform4_file, args):
        command, *flags = args
        files = [demon_file, uniform4_file] if command == "iterate" else [demon_file]
        assert run([command, *files, *flags]) == 1
        out, err = capsys.readouterr()
        flag = flags[0].split("=")[0]
        assert out == "" and err.startswith(f"usage error: argument {flag}: must be finite and at least ")

    def test_unparsable_tol_names_its_type(self, capsys, demon_file):
        assert run(["validate", demon_file, "--tol", "tiny"]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --tol: invalid float value: 'tiny'\n")

    def test_zero_sinkhorn_tol_reaches_the_library(self, capsys, tmp_path):
        # 0 passes the parser; sinkhorn_knopp itself refuses it
        (path,) = write_inputs(tmp_path, bs.matrix_to_json(bs.two_state(Fraction(1, 5), Fraction(2, 5))))
        assert run(["sinkhorn", path, "--tol", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ParameterOutOfRange: ") and len(err.splitlines()) == 1

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert run(["validate", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 1

    def test_int_past_the_digit_limit_is_one_line_io_error(self, capsys, tmp_path):
        # json refuses to read an int literal longer than Python's limit on int digits
        bad = tmp_path / "bad.json"
        bad.write_text('{"mode": "exact", "rows": 1, "cols": 1, "data": [[1' + "0" * 4400 + "]]}")
        assert run(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and len(err.strip().splitlines()) == 1

    def test_value_past_the_digit_limit_is_one_line_error(self, capsys, tmp_path):
        # x = 1.5e-(limit - 1) has a denominator of limit digits, which a file
        # holds; T^2 p has denominators of twice as many, which no report can
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter writes ints of any length")
        x = Fraction(3, 2 * 10 ** (limit - 1))
        T, p = bs.two_state(x, x), ProbVec.point_mass(2, 0, mode=EXACT)
        matrix, vector = tmp_path / "T.json", tmp_path / "p.json"
        matrix.write_text(json.dumps(bs.matrix_to_json(T)))
        vector.write_text(json.dumps(bs.vector_to_json(p)))
        assert run(["iterate", str(matrix), str(vector), "--steps", "1"]) == 0
        capsys.readouterr()
        assert run(["iterate", str(matrix), str(vector), "--steps", "2"]) == 2
        message = f"error: TooManyDigits: an exact value has more digits than the {limit}-digit limit of Python ints\n"
        assert capsys.readouterr() == ("", message)
        # the same value refused where a file is written
        with pytest.raises(bs.errors.TooManyDigits):
            bs.vector_to_json(bs.iterate(T, p, 2)[0][-1])

    @pytest.mark.parametrize(
        "argv, error",
        [(["fixed-point"], "NotStochastic"), (["dilate", "noisy"], "NotStochastic"), (["extract"], "NotBiStochastic"),
         (["entropy", "--vec"], "NotStochastic")],
        ids=["fixed-point", "dilate-noisy", "extract", "entropy"],
    )
    def test_message_with_a_value_past_the_digit_limit_is_one_line(self, capsys, tmp_path, argv, error):
        # 1/(x + 1) and 1/(x + 3), x = 2·10^(limit - 1), each fit a file; their sum and its
        # defect from 1 have twice as many digits, which the message gives as an approximation
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter writes ints of any length")
        x = 2 * 10 ** (limit - 1)
        small = [f"1/{x + 1}", f"1/{x + 3}"]
        if argv[0] == "entropy":
            payload = {"mode": "exact", "rows": 2, "cols": 1, "data": [[v] for v in small]}
        else:
            payload = {"mode": "exact", "rows": 2, "cols": 2, "data": [[small[0], 0], [small[1], 1]]}
        assert run([*argv, *write_inputs(tmp_path, payload)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {error}: ") and "~1.00000e" in err

    def test_message_with_a_long_exact_value_is_short(self, capsys, tmp_path):
        # extract's row defect 1 - 1/(x + 1), x = 2·10^4299, is just inside the
        # int-digit limit, and is approximated like every value of many digits
        x = 2 * 10**4299
        payload = {"mode": "exact", "rows": 2, "cols": 2, "data": [[f"1/{x + 1}", 0], [f"1/{x + 3}", 1]]}
        assert run(["extract", *write_inputs(tmp_path, payload)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and len(err) < 200
        assert err.startswith("error: NotBiStochastic: ")

    def test_domain_error_is_two(self, capsys, demon_file):
        # the demon matrix has a zero fixed-point component
        assert run(["dilate", "uniform", demon_file]) == 2

    def test_failed_check_is_two(self, capsys, demon_file):
        # extracting from a non-bi-stochastic matrix fails verification
        assert run(["extract", demon_file]) == 2

    @pytest.mark.parametrize("command, payload, code", BAD_INPUTS, ids=BAD_INPUT_IDS)
    def test_bad_input_file_gives_one_line_error(self, capsys, tmp_path, command, payload, code):
        assert run([*command.split(), *write_inputs(tmp_path, payload)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("payload, code", PARTITION_FILES.values(), ids=PARTITION_FILES.keys())
    def test_partition_file(self, capsys, tmp_path, payload, code):
        S, P = write_inputs(tmp_path, (bs.matrix_to_json(StochMatrix.identity(4, mode=EXACT)), payload))
        assert run(["coarse-grain", S, P]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "Traceback" not in err and len(err.strip().splitlines()) == 1
        else:  # classes {0, 1} and {2, 3}, whatever the order and the type of their indices
            identity = bs.matrix_to_json(StochMatrix.identity(2, mode=EXACT))
            assert err == "" and json.loads(out)["result"]["matrix"] == identity

    @pytest.mark.parametrize(
        "n, d, error",
        [(12, 9912903726252444391067364, "TooManyStates"), (8, 510364759956778, "MemoryError")],
        ids=["past-numpy-indexing", "past-memory"],
    )
    def test_oversize_uniform_dilation_names_its_dimension(self, capsys, tmp_path, n, d, error):
        # d fine states: more than numpy can index, refused before anything of size d exists; or a labels
        # array numpy refuses to allocate at once, so that nothing large is allocated in either case
        (path,) = write_inputs(tmp_path, columns_over_their_sums(3, n, 20))
        assert run(["dilate", "uniform", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {error}: ") and len(err.strip().splitlines()) == 1
        assert str(d) in err

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize(
        "command, payload",
        [BAD_INPUTS[BAD_INPUT_IDS.index(name)][:2] for name in NON_SCALAR_ENTRY_IDS]
        + [(command, {"rows": 1, "cols": 1, "data": [[[1]]]}) for command in ("validate", "entropy --vec")],
        ids=[*NON_SCALAR_ENTRY_IDS, "matrix-uniform-list-entry", "vector-uniform-list-entry"],
    )
    def test_non_scalar_entry_is_a_shape_error(self, capsys, tmp_path, command, payload, mode):
        # a list or object entry is refused as the data's shape, in both modes, whatever the nesting
        assert run([*command.split(), *write_inputs(tmp_path, {**payload, "mode": mode})]) == 2
        assert capsys.readouterr().err == "error: DimensionMismatch: data shape disagrees with declared rows/cols\n"

    @pytest.mark.parametrize(
        "command, payload, code",
        [BAD_INPUTS[BAD_INPUT_IDS.index(name)] for name in ("missing-rows", "dilation-smaller-than-matrix")],
        ids=["missing-rows", "dilation-smaller-than-matrix"],
    )
    def test_bad_input_file_exits_from_a_subprocess(self, tmp_path, command, payload, code):
        # the real exit path, once with exit 1 and once with exit 2
        env = {**os.environ, "PYTHONPATH": str(Path(bs.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bistoch.cli", *command.split(), *write_inputs(tmp_path, payload)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("size", [2, 6])
    def test_verify_dilation_names_both_sizes(self, capsys, tmp_path, size):
        # a dilation whose size is not a multiple of the matrix's: smaller (no environment state) or not a product
        payload = (bs.matrix_to_json(StochMatrix.identity(4, mode=EXACT)),
                   bs.matrix_to_json(StochMatrix.identity(size, mode=EXACT)))
        assert run(["verify-dilation", *write_inputs(tmp_path, payload)]) == 2
        assert capsys.readouterr().err == (
            f"error: DimensionMismatch: dilation has {size} rows, not a multiple of the matrix's 4\n"
        )

    def test_verify_dilation_refuses_an_environment_that_does_not_fit(self, capsys, tmp_path):
        # R's 4 rows are a multiple of T's 2, but not of rho's 5 states
        payload = (bs.matrix_to_json(StochMatrix.identity(2, mode=EXACT)),
                   bs.matrix_to_json(StochMatrix.identity(4, mode=EXACT)),
                   bs.vector_to_json(ProbVec.point_mass(5, 0, mode=EXACT)))
        T, R, rho = write_inputs(tmp_path, payload)
        assert run(["verify-dilation", T, R, "--rho", rho]) == 2
        assert capsys.readouterr().err == (
            "error: DimensionMismatch: 4x4 dilation does not act on a system with a 5-state environment\n"
        )

    @pytest.mark.parametrize("command", ["sinkhorn", "entropy-region", "demo"])
    def test_mode_only_where_it_converts(self, capsys, tmp_path, command):
        # sinkhorn and entropy-region always run in float, the demo on its own matrices
        (path,) = write_inputs(tmp_path, bs.matrix_to_json(bs.two_state(Fraction(1, 5), Fraction(2, 5))))
        argv = ["demo", "maxwell"] if command == "demo" else [command, path]
        assert run([*argv, "--mode", "exact"]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --mode exact\n")

    def test_memory_error_gives_one_line_error(self, capsys, monkeypatch, tmp_path):
        # a uniform dilation whose lcm is astronomical asks numpy for terabytes;
        # the refusal is simulated, so that nothing that large is ever requested
        def exhausted(T, p):
            raise MemoryError("Unable to allocate 41.2 TiB for an array with shape (2378600, 2378600)")

        monkeypatch.setattr("bistoch.cli.uniform_dilation", exhausted)
        path = tmp_path / "T.json"
        path.write_text(json.dumps(bs.matrix_to_json(bs.two_state(Fraction(1, 3), Fraction(1, 2)))))
        assert run(["dilate", "uniform", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: MemoryError: ") and len(captured.err.strip().splitlines()) == 1

    def test_bare_memory_error_names_its_reason(self, capsys, monkeypatch, tmp_path):
        # the interpreter's own refusal, as when Python objects outgrow memory, has an empty message
        def exhausted(T, p):
            raise MemoryError()

        monkeypatch.setattr("bistoch.cli.uniform_dilation", exhausted)
        path = tmp_path / "T.json"
        path.write_text(json.dumps(bs.matrix_to_json(bs.two_state(Fraction(1, 3), Fraction(1, 2)))))
        assert run(["dilate", "uniform", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: MemoryError: out of memory\n")

    def test_non_square_iterate_gives_one_line_error(self, tmp_path):
        matrix, vector = tmp_path / "T.json", tmp_path / "p.json"
        matrix.write_text(json.dumps(bs.matrix_to_json(StochMatrix([[0.5, 0.5, 1.0], [0.5, 0.5, 0.0]]))))
        vector.write_text(json.dumps(bs.vector_to_json(ProbVec.uniform(3))))
        env = {**os.environ, "PYTHONPATH": str(Path(bs.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bistoch.cli", "iterate", str(matrix), str(vector), "--steps", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


REPORT_KEYS = [
    (["validate", "T"], {"left", "right", "bi", "irreducible", "max_column_defect", "max_row_defect"}, None),
    (["fixed-point", "T"], {"representative", "face_dimension", "is_unique", "basis"}, None),
    (["apply", "T", "p"], {"image"}, None),
    (["iterate", "T", "p", "--steps", "3"], {"steps", "converged", "final", "trajectory"}, None),
    (["coarse-grain", "T", "P"], {"matrix"}, None),
    (["dilate", "uniform", "T"], {"partition", "matrix"}, None),
    (["dilate", "noisy", "T"], {"matrix"}, None),
    (["dilate", "unistochastic", "T"], {"matrix"}, None),
    (["extract", "R"], {"matrix"}, None),
    (["verify-dilation", "T", "R"], set(), None),
    (["entropy", "--vec", "p"], {"entropy"}, None),
    (["entropy-region", "T", "--grid", "4"], {"csv", "boundary"},
     ("boundary", {"t", "point", "H(p)", "H(Tp)", "full_segment_inside"})),
    (["ledger", "T", "p"], {"h_input", "h_lifted", "h_evolved", "h_marginal_1", "h_marginal_2", "h_output",
                            "marginal_sum", "marginal_1", "marginal_2"}, None),
    (["birkhoff", "R"], {"terms", "term_count", "weight_sum", "residual_mass"}, ("terms", {"weight", "permutation"})),
    (["sinkhorn", "T"], {"d1", "d2", "iterations", "final_defect", "matrix"}, None),
    (["demo", "maxwell"], {"fixed_point_face", "one_step_image", "one_step_entropy", "limit", "limit_entropy", "ledger"},
     ("ledger", {"h_input", "h_evolved", "h_marginal_1", "h_marginal_2", "marginal_sum"})),
]


class TestReportKeys:
    """The result keys of every subcommand.  Several reports are a library
    result written out field by field, so renaming a field must fail here."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3))
        paths = {
            "T": tmp_path / "t.json",
            "p": tmp_path / "p.json",
            "P": tmp_path / "partition.json",
            "R": tmp_path / "r.json",
        }
        paths["T"].write_text(json.dumps(bs.matrix_to_json(T)))
        paths["p"].write_text(json.dumps(bs.vector_to_json(ProbVec.uniform(2, mode=EXACT))))
        paths["P"].write_text(json.dumps({"d": 2, "classes": [[0], [1]]}))
        assert run(["dilate", "noisy", str(paths["T"]), "--out", str(paths["R"])]) == 0
        capsys.readouterr()
        return {k: str(v) for k, v in paths.items()}

    @pytest.mark.parametrize("argv, keys, nested", REPORT_KEYS, ids=[" ".join(argv) for argv, _, _ in REPORT_KEYS])
    def test_result_keys(self, capsys, files, argv, keys, nested):
        code, report = run_json(capsys, [files.get(a, a) for a in argv])
        assert code == 0
        assert set(report["result"]) == keys
        if nested:
            key, inner = nested
            items = report["result"][key]
            for item in items if isinstance(items, list) else [items]:
                assert set(item) == inner


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, demon_file, uniform4_file):
        runs = []
        for _ in range(2):
            code = run(["ledger", demon_file, uniform4_file])
            assert code == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    def test_sinkhorn_deterministic(self, capsys, tmp_path):
        T = bs.two_state(0.2, 0.4, mode=FLOAT)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bs.matrix_to_json(T)))
        outs = []
        for _ in range(2):
            assert run(["sinkhorn", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestCommands:
    def test_fixed_point(self, capsys, demon_file):
        code, report = run_json(capsys, ["fixed-point", demon_file])
        assert code == 0
        assert report["result"]["representative"] == ["1/2", 0, 0, "1/2"]
        assert report["result"]["face_dimension"] == 1
        assert report["result"]["is_unique"] is False
        (check,) = report["checks"]
        assert check["name"] == "fixed_point_residual" and check["defect"] == 0 and check["tol"] == 0

    def test_apply(self, capsys, demon_file, uniform4_file):
        code, report = run_json(capsys, ["apply", demon_file, uniform4_file])
        assert code == 0
        assert report["result"]["image"] == ["3/8", "1/8", "1/8", "3/8"]

    def test_iterate(self, capsys, demon_file, uniform4_file):
        code, report = run_json(
            capsys, ["iterate", demon_file, uniform4_file, "--steps", "60", "--mode", "float"]
        )
        assert code == 0
        assert report["result"]["converged"] is True
        final = report["result"]["final"]
        assert abs(final[0] - 0.5) <= 1e-9 and abs(final[3] - 0.5) <= 1e-9

    def test_dilate_noisy_writes_golden_matrix(self, capsys, tmp_path, demon_file):
        out = tmp_path / "dilation.json"
        code, report = run_json(capsys, ["dilate", "noisy", demon_file, "--out", str(out)])
        assert code == 0
        assert str(out) in report["outputs"]
        assert all(c["pass"] for c in report["checks"])
        R = bs.matrix_from_json(json.loads(out.read_text()))
        assert R == demon_dilation_expected(mode=EXACT)

    def test_fixed_point_residual_at_the_tolerance_edge(self, capsys, tmp_path):
        # each column sums to the largest float within DEFAULT_TOL of 1, so T r sums to
        # 1 + 1.000000001e-9: a ProbVec refuses T r, and the residual must not build one
        data = [[0.062208377840388795, 0.5572367780722448], [0.9377916231596111, 0.44276322292775505]]
        (path,) = write_inputs(tmp_path, {"mode": "float", "rows": 2, "cols": 2, "data": data})
        T = StochMatrix(data, mode=FLOAT)
        r = bs.fixed_point(T).representative
        with pytest.raises(bs.errors.NotStochastic):
            bs.apply(T, r)
        code, report = run_json(capsys, ["fixed-point", path, "--mode", "float"])
        assert code == 0
        (check,) = report["checks"]
        assert check["pass"] and check["defect"] == float(f"{np.max(np.abs(T.a @ r.a - r.a)):.12g}")

    @pytest.mark.parametrize("mode", [[], ["--mode", "float"]], ids=["exact", "float"])
    def test_dilate_noisy_sums_and_contracts_r_once(self, capsys, sum_and_contraction_calls, demon_file, mode):
        # three checks, one row and column sum of R and one contraction of R
        code, report = run_json(capsys, ["dilate", "noisy", demon_file, *mode])
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["bi_stochastic", "extract_dilated == input", "marginal_identity"]
        on_r = sorted(name for name, shape in sum_and_contraction_calls if shape == (16, 16))
        assert on_r == ["_sum_check", "coarse_grain"]

    def test_dilate_uniform_sums_and_contracts_s_once(self, capsys, sum_and_contraction_calls, tmp_path):
        # two checks, one row and column sum of S and one contraction of S (d = 5)
        (path,) = write_inputs(tmp_path, bs.matrix_to_json(bs.two_state(Fraction(1, 3), Fraction(1, 2))))
        code, report = run_json(capsys, ["dilate", "uniform", path])
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["bi_stochastic", "coarse_grain_roundtrip"]
        on_s = sorted(name for name, shape in sum_and_contraction_calls if shape == (5, 5))
        assert on_s == ["_sum_check", "coarse_grain"]

    def test_extract_round_trip(self, capsys, tmp_path, demon, demon_file):
        dilation = tmp_path / "dilation.json"
        extracted = tmp_path / "extracted.json"
        assert run(["dilate", "noisy", demon_file, "--out", str(dilation)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["extract", str(dilation), "--out", str(extracted)])
        assert code == 0
        assert bs.matrix_from_json(json.loads(extracted.read_text())) == demon

    def test_dilate_uniform(self, capsys, tmp_path):
        T = bs.two_state(Fraction(1, 3), Fraction(2, 3))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bs.matrix_to_json(T)))
        code, report = run_json(capsys, ["dilate", "uniform", str(path)])
        assert code == 0
        assert report["result"]["partition"]["d"] == 3
        assert all(c["pass"] for c in report["checks"])

    def test_dilate_unistochastic(self, capsys, tmp_path):
        T = bs.two_state(0.3, 0.7, mode=FLOAT)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bs.matrix_to_json(T)))
        code, report = run_json(capsys, ["dilate", "unistochastic", str(path)])
        assert code == 0
        assert all(c["pass"] for c in report["checks"])

    def test_verify_dilation(self, capsys, tmp_path, demon_file):
        dilation = tmp_path / "dilation.json"
        assert run(["dilate", "noisy", demon_file, "--out", str(dilation)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["verify-dilation", demon_file, str(dilation)])
        assert code == 0
        assert report["checks"][0]["pass"] is True

    def test_verify_dilation_float_rho_with_sum_defect(self, capsys, tmp_path, demon_float):
        # ProbVec accepts a rho whose sum misses 1 by 1e-10; the identity holds up to that defect
        files = {"T": bs.matrix_to_json(demon_float), "R": bs.matrix_to_json(bs.noisy_dilation(demon_float).matrix),
                 "rho": bs.vector_to_json(ProbVec([1 + 1e-10, 0.0, 0.0, 0.0], mode=FLOAT))}
        for name, payload in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        T, R, rho = (str(tmp_path / f"{name}.json") for name in files)
        code, report = run_json(capsys, ["verify-dilation", T, R, "--rho", rho])
        assert code == 0
        assert report["checks"][0]["pass"] is True

    def test_verify_dilation_has_no_trials_flag(self, capsys, tmp_path, demon_file):
        # the identity is checked exactly, or at the simplex vertices in float: there are no random trials
        dilation = tmp_path / "dilation.json"
        assert run(["dilate", "noisy", demon_file, "--out", str(dilation)]) == 0
        assert run(["verify-dilation", demon_file, str(dilation), "--trials", "40"]) == 1

    def test_coarse_grain(self, capsys, tmp_path, demon_file):
        dilation = tmp_path / "dilation.json"
        partition = tmp_path / "partition.json"
        assert run(["dilate", "noisy", demon_file, "--out", str(dilation)]) == 0
        capsys.readouterr()
        partition.write_text(
            json.dumps({"d": 16, "classes": [[i * 4 + m for i in range(4)] for m in range(4)]})
        )
        # uniform right inverse does not reproduce the point-mass environment,
        # but the output must still be left-stochastic
        code, report = run_json(capsys, ["coarse-grain", str(dilation), str(partition)])
        assert code == 0
        assert report["checks"][0]["name"] == "left_stochastic" and report["checks"][0]["pass"]

    def test_entropy(self, capsys, uniform4_file):
        code, report = run_json(capsys, ["entropy", "--vec", uniform4_file])
        assert code == 0
        assert abs(report["result"]["entropy"] - math.log(4)) <= 1e-9

    def test_zero_entropy_has_no_sign(self, capsys, tmp_path, demon_file):
        # a point mass has entropy +0.0, in a report and in the region scan's vertex rows
        (p,) = write_inputs(tmp_path, bs.vector_to_json(ProbVec.point_mass(4, 0, mode=EXACT)))
        for argv, keys in [(["entropy", "--vec", p], ["entropy"]),
                           (["ledger", demon_file, p], ["h_input", "h_lifted", "h_marginal_2"])]:
            code, report = run_json(capsys, argv)
            assert code == 0 and [math.copysign(1, report["result"][k]) for k in keys] == [1] * len(keys), argv
        code, report = run_json(capsys, ["entropy-region", demon_file, "--grid", "4"])
        vertex_rows = [row for row in report["result"]["csv"].splitlines() if row.startswith("1,")]
        assert code == 0 and len(vertex_rows) == 4 and not any(",-0" in row for row in vertex_rows)

    def test_entropy_region_csv(self, capsys, tmp_path, demon_file):
        out = tmp_path / "region.csv"
        code, report = run_json(
            capsys, ["entropy-region", demon_file, "--grid", "16", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p0,p1,p2,p3,H(p),H(Tp)"
        assert len(lines) == 1 + 4 * 17  # four vertex rays, 17 samples each
        assert len(report["result"]["boundary"]) == 4

    def test_ledger_golden(self, capsys, demon_file, uniform4_file):
        code, report = run_json(capsys, ["ledger", demon_file, uniform4_file])
        assert code == 0
        result = report["result"]
        assert abs(result["h_evolved"] - 0.5 * math.log(32)) <= 1e-4
        assert abs(result["h_marginal_1"] - 1.25548) <= 1e-4
        assert abs(result["marginal_sum"] - 2.64178) <= 1e-4

    def test_birkhoff(self, capsys, tmp_path):
        R = demon_dilation_expected(mode=EXACT)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(bs.matrix_to_json(R)))
        code, report = run_json(capsys, ["birkhoff", str(path)])
        assert code == 0
        assert report["result"]["weight_sum"] == 1
        assert all(c["pass"] for c in report["checks"])

    def test_sinkhorn_output_decomposes(self, capsys, tmp_path):
        rng = np.random.default_rng(83)
        T = StochMatrix(rng.random((8, 8)) + 0.01)
        path = tmp_path / "t.json"
        out = tmp_path / "balanced.json"
        path.write_text(json.dumps(bs.matrix_to_json(T)))
        assert run(["sinkhorn", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["birkhoff", str(out)])
        assert code == 0
        assert all(c["pass"] and c["defect"] <= c["tol"] for c in report["checks"])
        assert report["result"]["residual_mass"] >= 0

    def test_birkhoff_weights_carry_input_defect(self, capsys, tmp_path):
        # every row and column sums to 1 + 5e-10, inside the default --tol:
        # the weights then sum to 1 + 5e-10 with nothing left unpeeled
        path = tmp_path / "s.json"
        path.write_text(json.dumps(bs.matrix_to_json(StochMatrix(np.full((4, 4), (1 + 5e-10) / 4)))))
        code, report = run_json(capsys, ["birkhoff", str(path)])
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["reconstruction", "weights_sum_to_one"]
        assert all(c["pass"] and c["defect"] <= c["tol"] for c in report["checks"])

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_birkhoff_report_one_line_per_term(self, capsys, tmp_path, mode):
        # each term is written on one line; as JSON values the report equals
        # the one made by passing the whole result, permutations included,
        # through _fmt, with the defects computed entry by entry
        rng = np.random.default_rng(84)
        T = random_stochastic_exact(rng, 3) if mode == EXACT else random_stochastic_float(rng, 4)
        S = bs.noisy_dilation(T).matrix
        path = tmp_path / "s.json"
        path.write_text(json.dumps(bs.matrix_to_json(S)))
        code = run(["birkhoff", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        dec = bs.birkhoff_decompose(S)
        terms = [{"weight": w, "permutation": sigma} for w, sigma in dec.terms]
        want = Report("birkhoff", [str(path)])
        want.body["result"] = _fmt(
            {"terms": terms, "term_count": len(terms), "weight_sum": dec.weight_sum(), "residual_mass": dec.residual_mass}
        )
        exact = mode == EXACT
        defect = np.max(np.abs(dec.reconstruct(mode=mode).a - S.a))
        want.check("reconstruction", defect=defect, tol=0 if exact else dec.residual_mass + RESIDUAL_TOL)
        tol = 0 if exact else dec.residual_mass + bs.validate(S).max_column_defect + RESIDUAL_TOL
        want.check("weights_sum_to_one", defect=abs(dec.weight_sum() - 1), tol=tol)
        assert json.loads(out) == want.body
        lines = [line for line in out.splitlines() if '"permutation"' in line]
        assert len(lines) == len(dec.terms) > 1
        assert [json.loads(line.rstrip(",")) for line in lines] == want.body["result"]["terms"]

    @pytest.mark.parametrize(
        "argv, check",
        [(["fixed-point"], "fixed_point_residual"), (["dilate", "unistochastic"], "extract_dilated == input"),
         (["dilate", "noisy"], "bi_stochastic")],
        ids=["fixed-point", "unistochastic", "noisy"],
    )
    def test_results_carry_input_defect(self, capsys, tmp_path, argv, check):
        # every column sums to 1 + 5e-10, which validate accepts: the fixed
        # point residual and the extracted columns then miss by 1.25e-10, and
        # the noisy R's columns by 5e-10
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bs.matrix_to_json(StochMatrix(np.full((4, 4), (1 + 5e-10) / 4)))))
        code, report = run_json(capsys, [*argv, str(path)])
        assert code == 0
        (result,) = [c for c in report["checks"] if c["name"] == check]
        assert 1e-10 < result["defect"] <= result["tol"]
        assert all(c["pass"] for c in report["checks"])

    def test_entropy_region_anchor_carries_input_defect(self, capsys, tmp_path):
        # every column sums to 1 + 5e-10: the uniform anchor stays in the region
        path = tmp_path / "t.json"
        path.write_text(json.dumps(bs.matrix_to_json(StochMatrix(np.full((4, 4), (1 + 5e-10) / 4)))))
        code, report = run_json(capsys, ["entropy-region", str(path), "--grid", "8"])
        assert code == 0
        assert len(report["result"]["boundary"]) == 4

    def test_sinkhorn_output_revalidates(self, capsys, tmp_path):
        T = bs.two_state(0.2, 0.4, mode=FLOAT)
        path = tmp_path / "t.json"
        out = tmp_path / "balanced.json"
        path.write_text(json.dumps(bs.matrix_to_json(T)))
        assert run(["sinkhorn", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, ["validate", str(out)])
        assert code == 0
        assert report["result"]["bi"] is True

    def test_demo_maxwell(self, capsys):
        code, report = run_json(capsys, ["demo", "maxwell"])
        assert code == 0
        assert all(c["pass"] for c in report["checks"])
        assert len(report["checks"]) >= 10

    def test_demo_maxwell_names_its_first_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(bs.core, "apply", lambda T, p: p)  # a step that leaves the uniform state as it is
        code = run(["demo", "maxwell"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2 and captured.err == "demo mismatch: one_step_image\n"
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["one_step_image", "one_step_entropy"]
        assert len(report["checks"]) == 13


def run_report(argv):
    """The exit code and the report of ``run(argv)``, without a capture fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestDilatedFilesVerify:
    """Every file ``dilate`` writes reads back to its T through the CLI: one
    round-trip rule (``roundtrip_defect``) for every dilation, whatever made
    the file.  An environmental dilation's R passes ``extract`` and
    ``verify-dilation``; a uniform S goes through ``coarse-grain``."""

    def test_unistochastic_file_of_a_matrix_with_a_column_defect(self, tmp_path):
        # columns sum to 1 + 5e-10, which validate accepts; the completion
        # normalises them, so the round trip misses T by 2.84e-10 in both
        a = np.random.default_rng(1).random((3, 3))
        T = write_json(tmp_path / "T.json", bs.matrix_to_json(StochMatrix(a / a.sum(axis=0) * (1 + 5e-10))))
        R = str(tmp_path / "R.json")
        code, dilated = run_report(["dilate", "unistochastic", T, "--out", R])
        assert code == 0
        code, verified = run_report(["verify-dilation", T, R])
        assert code == 0
        (roundtrip,) = [c for c in dilated["checks"] if c["name"] == "extract_dilated == input"]
        (identity,) = verified["checks"]
        assert 1e-10 < identity["defect"] == roundtrip["defect"] <= identity["tol"] == roundtrip["tol"]
        # the same file with one block-0 entry, read by the extraction as T[0, 0], moved past the tolerance
        moved = json.loads(Path(R).read_text())
        moved["data"][0][0] += 1e-8
        code, verified = run_report(["verify-dilation", T, write_json(tmp_path / "moved.json", moved)])
        (identity,) = verified["checks"]
        assert code == 2 and identity["pass"] is False and identity["defect"] > 1e-8 / 2 > identity["tol"]

    def test_moved_matrix_fails_against_the_file_of_the_true_one(self, tmp_path):
        # T's column defect is allowed only up to DEFAULT_TOL: a T entry moved
        # by 1e-3 raises its column defect as much as |X R Y - T|, and nothing
        # on this path validates T, so the cap is what makes the check fail
        a = np.random.default_rng(1).random((3, 3))
        T = StochMatrix(a / a.sum(axis=0))
        moved = StochMatrix(T.a + np.diag([1e-3, 0, 0]))
        t, R = write_json(tmp_path / "T.json", bs.matrix_to_json(T)), str(tmp_path / "R.json")
        assert run_report(["dilate", "noisy", t, "--out", R])[0] == 0
        code, verified = run_report(["verify-dilation", write_json(tmp_path / "moved.json", bs.matrix_to_json(moved)), R])
        (identity,) = verified["checks"]
        assert code == 2 and identity["pass"] is False and identity["defect"] > 1e-3 / 2 > identity["tol"]
        assert bs.verify_env_dilation(moved, bs.noisy_dilation(T)) is False

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.sampled_from([(FLOAT, "noisy"), (FLOAT, "unistochastic"), (EXACT, "uniform"), (EXACT, "noisy")]),
           st.data())
    def test_dilate_then_verify(self, case, data):
        # float T carry column defects up to 5e-10, which validate accepts; an
        # exact T = X S Y fixes p = (class sizes) / d. The uniform S is not an
        # environmental dilation, so its file goes through coarse-grain with
        # the partition its report gives, and must give back T exactly
        mode, kind = case
        least = 2 if kind == "noisy" else 1
        if mode == FLOAT:
            T = data.draw(float_matrices_with_zeros().filter(lambda T: T.rows >= least))
        else:
            P = data.draw(shuffled_partitions(n=data.draw(st.integers(least, 4))))
            T = bs.coarse_grain(data.draw(permutation_mixtures(d=P.d)), P, bs.uniform_right_inverse(P))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp)
            t, r = write_json(path / "T.json", bs.matrix_to_json(T)), str(path / "R.json")
            argv = ["dilate", kind, t, "--out", r]
            if kind == "uniform":
                p = ProbVec([Fraction(size, P.d) for size in P.class_sizes], mode=EXACT)
                argv += ["--vec", write_json(path / "p.json", bs.vector_to_json(p))]
            code, report = run_report(argv)
            assert code == 0
            if kind == "uniform":
                partition = write_json(path / "P.json", report["result"]["partition"])
                back = str(path / "back.json")
                assert run_report(["coarse-grain", r, partition, "--out", back])[0] == 0
                assert bs.matrix_from_json(json.loads(Path(back).read_text())) == T
            else:
                assert run_report(["extract", r])[0] == 0
                assert run_report(["verify-dilation", t, r])[0] == 0


def positive_stochastic(rng, n, mode):
    """A seeded left-stochastic matrix with positive entries: weights 1-8 over their column sums."""
    w = rng.integers(1, 9, size=(n, n))
    if mode == FLOAT:
        return StochMatrix(w / w.sum(axis=0), mode=FLOAT)
    return StochMatrix([[Fraction(int(v), int(s)) for v, s in zip(row, w.sum(axis=0))] for row in w], mode=EXACT)


def report_checks(defects, names=None):
    """The report entries of a library dict of checks, name -> (defect, tol); ``names`` maps
    each report name, in report order, to its library name."""
    names = names or {name: name for name in defects}
    return [{"name": name, "pass": bool(defects[key][0] <= defects[key][1]),
             "defect": _fmt(defects[key][0]), "tol": _fmt(defects[key][1])} for name, key in names.items()]


class TestReportsMatchLibrary:
    """Every check a report carries is the library's ``(defect, tol)`` for the same inputs, formatted."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_checks_are_the_library_defects(self, capsys, tmp_path, mode, seed):
        rng = np.random.default_rng(seed)
        T = positive_stochastic(rng, 3, mode)
        R = bs.noisy_dilation(T).matrix
        p = random_prob_vec_exact(rng, 3) if mode == EXACT else random_prob_vec_float(rng, 3)
        P = bs.Partition.first_marginal(3, 3)
        files = {"T": bs.matrix_to_json(T), "R": bs.matrix_to_json(R), "p": bs.vector_to_json(p), "P": P.to_json()}
        for name, payload in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        path = {name: str(tmp_path / f"{name}.json") for name in files}
        roundtrip = "coarse_grain_roundtrip"
        dec = bs.birkhoff_decompose(R)
        cases = [
            (["dilate", "noisy", path["T"]], bs.noisy_dilation(T).defects(),
             {"bi_stochastic": "bi_stochastic", "extract_dilated == input": roundtrip, "marginal_identity": roundtrip}),
            (["dilate", "unistochastic", path["T"]], bs.unistochastic_dilation(T.to_float()).defects(),
             {"orthogonal": "orthogonal", "bi_stochastic": "bi_stochastic", "extract_dilated == input": roundtrip}),
            (["fixed-point", path["T"]], {"fixed_point_residual": bs.core.fixed_point_residual(
                T, bs.fixed_point(T).representative)}, None),
            (["coarse-grain", path["R"], path["P"]], {"left_stochastic": bs.core.sum_defect(
                bs.coarse_grain(R, P, bs.uniform_right_inverse(P, mode=mode)), rows=False)}, None),
            (["extract", path["R"]], {"left_stochastic": bs.core.sum_defect(bs.extract_dilated(R, 0), rows=False)}, None),
            (["verify-dilation", path["T"], path["R"]], {"marginal_identity": bs.roundtrip_defect(
                T, bs.with_environment(R, ProbVec.point_mass(3, 0, mode=mode)))}, None),
            (["birkhoff", path["R"]], dec.defects(R), None),
            (["sinkhorn", path["T"]], bs.sinkhorn_knopp(T.to_float()).defects(T.to_float()), None),
            (["ledger", path["T"], path["p"]], bs.entropy_ledger(T, p).defects(), None),
        ]
        if mode == EXACT:  # a float T would be dilated through the exact values of its floats
            T2 = bs.two_state(Fraction(int(rng.integers(1, 6)), 6), Fraction(int(rng.integers(1, 6)), 6))
            (tmp_path / "T2.json").write_text(json.dumps(bs.matrix_to_json(T2)))
            dil = bs.uniform_dilation(T2, bs.fixed_point(T2).representative)
            cases.append((["dilate", "uniform", str(tmp_path / "T2.json")], dil.defects(), None))
        for argv, defects, names in cases:
            code, report = run_json(capsys, argv)
            assert code == 0, argv
            assert report["checks"] == report_checks(defects, names), argv


PINNED = json.loads((Path(__file__).parent / "data" / "cli_reports.json").read_text())


class TestPinnedReports:
    """The dilation subcommands and the demo, byte for byte.

    ``data/cli_reports.json`` holds the input files (the exact Maxwell demon,
    an exact two-state T, a seeded float T and two environment states) and,
    for each case in run order, the exit code, stdout, stderr and written
    files the CLI produced before the uniform, noisy and unistochastic
    dilations became one result type.  The float round-trip tolerances are
    those of the one round-trip rule, which adds T's column defect
    (``roundtrip_defect``).  The unistochastic completion may round
    differently under another numpy, so only its check names and pass values
    are pinned.
    """

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        for name, text in PINNED["inputs"].items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_reports_and_written_files(self, capsys, workdir):
        for case in PINNED["cases"]:
            code = run(case["argv"])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
            for name, text in case["files"].items():
                assert (workdir / name).read_text() == text, (case["argv"], name)

    def test_unistochastic_check_names_and_passes(self, capsys, workdir):
        code, report = run_json(capsys, ["dilate", "unistochastic", "T_float.json"])
        assert code == PINNED["unistochastic"]["exit"]
        assert [[c["name"], c["pass"]] for c in report["checks"]] == PINNED["unistochastic"]["checks"]


def parser_surface():
    """Each subcommand's help, positionals in order and options, read from the parser's actions.

    The actions, not the ``--help`` text, whose layout differs between Python versions.
    """
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}

    def fields(action):
        return {"dest": action.dest, "default": action.default, "choices": action.choices,
                "required": action.required, "nargs": action.nargs, "help": action.help}

    return {name: {"help": helps[name],
                   "positionals": [fields(a) for a in parser._get_positional_actions()],
                   "options": [{"flags": a.option_strings, **fields(a)} for a in parser._get_optional_actions()]}
            for name, parser in sub.choices.items()}


class TestArgparseSurface:
    """``data/cli_surface.json`` pins every subcommand, in order: its help, its
    positionals in order and, for each option, its flags, dest, default,
    choices, ``required``, nargs and help."""

    def test_surface_is_pinned(self):
        pinned = json.loads((Path(__file__).parent / "data" / "cli_surface.json").read_text())
        assert list(parser_surface().items()) == list(pinned.items())


MODE_RULE = [
    (["apply", "T", "pf"], [EXACT, EXACT]),
    (["apply", "T", "pf", "--mode", "float"], [FLOAT, FLOAT]),
    (["iterate", "Tf", "p"], [FLOAT, FLOAT]),
    (["ledger", "Tf", "p", "--mode", "exact"], [EXACT, EXACT]),
    (["verify-dilation", "Tf", "R"], [FLOAT, EXACT]),
    (["verify-dilation", "Tf", "R", "--mode", "exact"], [EXACT, EXACT]),
    (["verify-dilation", "T", "R", "--rho", "e0f"], [EXACT, EXACT, EXACT]),
    (["coarse-grain", "R", "P"], [EXACT, None]),
    (["coarse-grain", "R", "P", "--mode", "float"], [FLOAT, None]),
    (["entropy", "--vec", "p"], [EXACT]),
    (["entropy", "--vec", "p", "--mode", "float"], [FLOAT]),
    (["dilate", "noisy", "Tf", "--mode", "exact"], [EXACT]),
    (["sinkhorn", "T"], [FLOAT]),
    (["entropy-region", "T"], [FLOAT]),
]


class TestModeRule:
    """The one mode rule, seen in the objects each run reads: a matrix in
    ``--mode``, or its subcommand's fixed mode, or as held; a vector in the
    mode of the input read before it; a partition as held (None here)."""

    @pytest.mark.parametrize("argv, modes", MODE_RULE, ids=[" ".join(argv) for argv, _ in MODE_RULE])
    def test_modes_of_the_inputs(self, capsys, monkeypatch, tmp_path, argv, modes):
        T = bs.two_state(Fraction(1, 4), Fraction(1, 2))  # entries a float holds exactly
        payloads = {"T": bs.matrix_to_json(T), "Tf": bs.matrix_to_json(T.to_float()),
                    "p": bs.vector_to_json(ProbVec([Fraction(1, 4), Fraction(3, 4)], mode=EXACT)),
                    "pf": bs.vector_to_json(ProbVec([0.5, 0.5])), "e0f": bs.vector_to_json(ProbVec.point_mass(2, 0)),
                    "R": bs.matrix_to_json(bs.noisy_dilation(T).matrix), "P": bs.Partition.first_marginal(2, 2).to_json()}
        paths = dict(zip(payloads, write_inputs(tmp_path, tuple(payloads.values()))))
        read, original = [], Report.read

        def recording(self, path, from_json, mode=None):
            obj = original(self, path, from_json, mode)
            read.append(getattr(obj, "mode", None))
            return obj

        monkeypatch.setattr(Report, "read", recording)
        assert run([paths.get(a, a) for a in argv]) == 0
        assert read == modes
