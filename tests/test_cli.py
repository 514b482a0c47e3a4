import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bistoch as bs
from bistoch import EXACT, FLOAT, ProbVec, StochMatrix
from bistoch.cli import run

from conftest import demon_dilation_expected


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
        ],
        ids=["grid-zero", "grid-negative", "steps-negative", "max-iter-zero", "max-iter-negative"],
    )
    def test_out_of_range_count_is_usage_error(self, capsys, demon_file, uniform4_file, args):
        command, *flags = args
        files = [demon_file, uniform4_file] if command == "iterate" else [demon_file]
        assert run([command, *files, *flags]) == 1

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert run(["validate", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 1

    def test_domain_error_is_two(self, capsys, demon_file):
        # the demon matrix has a zero fixed-point component
        assert run(["dilate", "uniform", demon_file]) == 2

    def test_failed_check_is_two(self, capsys, demon_file):
        # extracting from a non-bi-stochastic matrix fails verification
        assert run(["extract", demon_file]) == 2

    @pytest.mark.parametrize(
        "command, payload, code",
        [
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
        ],
        ids=["missing-rows", "zero-denominator", "not-a-number", "top-level-list", "vector-sum", "nan-entry",
             "non-square-region", "non-stochastic-region", "dilation-smaller-than-matrix", "zero-columns-float",
             "zero-columns-exact", "birkhoff-zero-columns-float", "birkhoff-zero-columns-exact"],
    )
    def test_bad_input_file_gives_one_line_error(self, tmp_path, command, payload, code):
        paths = []
        for i, part in enumerate(payload if isinstance(payload, tuple) else (payload,)):
            paths.append(tmp_path / f"input{i}.json")
            paths[-1].write_text(json.dumps(part))
        env = {**os.environ, "PYTHONPATH": str(Path(bs.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bistoch.cli", *command.split(), *map(str, paths)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

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

    @pytest.mark.parametrize(
        "argv, check",
        [(["fixed-point"], "fixed_point_residual"), (["dilate", "unistochastic"], "extract_dilated == input")],
        ids=["fixed-point", "unistochastic"],
    )
    def test_results_carry_input_defect(self, capsys, tmp_path, argv, check):
        # every column sums to 1 + 5e-10, which validate accepts: the fixed
        # point residual and the extracted columns then miss by 1.25e-10
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
