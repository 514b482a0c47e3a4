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
        ],
        ids=["missing-rows", "zero-denominator", "not-a-number", "top-level-list", "vector-sum", "nan-entry"],
    )
    def test_bad_input_file_gives_one_line_error(self, tmp_path, command, payload, code):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        env = {**os.environ, "PYTHONPATH": str(Path(bs.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bistoch.cli", *command.split(), str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


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
