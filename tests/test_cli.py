"""Command-line interface: files, outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dptradeoff.cli import main
from dptradeoff.curve import curve_by_sweep
from dptradeoff.problemio import (
    generate_instance,
    instance_to_problem,
    parse_instance,
    serialize_instance,
)


@pytest.fixture
def bsc_file(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(
        serialize_instance({"name": "bsc", "p_xy": [[0.54, 0.06], [0.04, 0.36]]})
    )
    return str(path)


@pytest.fixture
def indep_file(tmp_path):
    path = tmp_path / "indep.json"
    path.write_text(
        serialize_instance({"p_xy": np.outer([0.6, 0.4], [0.5, 0.5])})
    )
    return str(path)


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "7", "--nx", "3", "--ny", "5", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "7", "--nx", "3", "--ny", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--seed", "7", "--nx", "3", "--ny", "5", "--out", str(a)])
        main(["gen", "--seed", "8", "--nx", "3", "--ny", "5", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_generated_instances_validate(self):
        for seed in range(10):
            spec = generate_instance(seed, 3, 4, random_distortion=True)
            instance_to_problem(spec)  # raises on any violation

    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "g.json"
        main(["gen", "--seed", "3", "--nx", "2", "--ny", "4", "--random-distortion", "--out", str(path)])
        text = path.read_text()
        assert serialize_instance(parse_instance(text)) == text

    def test_bad_sizes(self, capsys):
        assert main(["gen", "--seed", "1", "--nx", "0", "--ny", "2"]) == 1

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["gen", "--seed", "-1", "--nx", "2", "--ny", "2"]) == 1
        assert "input error: seed must be >= 0, got -1" in capsys.readouterr().err


class TestSolve:
    def test_bsc_level_one_prints_floor(self, bsc_file, capsys):
        assert main(["solve", "--input", bsc_file, "--P", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "D(P) = 0.1" in out
        assert "duality gap" in out
        assert "tolerance" in out

    def test_noiseless_at_zero(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(serialize_instance({"p_xy": [[0.5, 0.0], [0.0, 0.5]]}))
        assert main(["solve", "--input", str(path), "--P", "0"]) == 0
        assert "D(P) = 0" in capsys.readouterr().out

    def test_estimator_written_on_request(self, bsc_file, tmp_path):
        out = tmp_path / "solve.json"
        assert main(
            ["solve", "--input", bsc_file, "--P", "0.0", "--out-json", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        q = np.asarray(doc["estimator"])
        assert np.allclose(q.sum(axis=0), 1.0, atol=1e-9)
        assert doc["value"] == pytest.approx(0.8 / 7.0, abs=1e-9)

    def test_malformed_row_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"p_xy": [[0.5, 0.5], [0.0]]}')
        assert main(["solve", "--input", str(path), "--P", "0.5"]) == 1
        assert "row 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "--input", "/nonexistent.json", "--P", "0.5"]) == 1

    def test_sign_form_flag(self, bsc_file, capsys):
        assert main(["solve", "--input", bsc_file, "--P", "0.0", "--form", "tv"]) == 0
        out = capsys.readouterr().out
        assert "form = tv" in out
        assert "D(P) = 0.1142857142" in out

    def test_sign_form_beyond_twelve_symbols(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        assert main(["gen", "--seed", "1", "--nx", "13", "--ny", "20", "--out", path]) == 0
        values = {}
        for form in ("tv", "ot"):
            capsys.readouterr()
            assert main(["solve", "--input", path, "--P", "0.1", "--form", form]) == 0
            values[form] = capsys.readouterr().out.splitlines()[0]
        assert values["tv"].startswith("D(P) = ")
        assert values["tv"] == values["ot"]

    def test_sign_form_rejected_for_general_metric(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            serialize_instance(
                {"p_xy": [[0.5, 0.0], [0.0, 0.5]], "metric": [[0.0, 0.5], [0.5, 0.0]]}
            )
        )
        assert main(["solve", "--input", str(path), "--P", "0.1", "--form", "tv"]) == 1
        assert "Hamming" in capsys.readouterr().err


class TestCurve:
    def test_independent_artifacts(self, indep_file, tmp_path, capsys):
        out_json = tmp_path / "c.json"
        out_csv = tmp_path / "c.csv"
        out_svg = tmp_path / "c.svg"
        code = main(
            [
                "curve",
                "--input",
                indep_file,
                "--method",
                "vertex",
                "--out-json",
                str(out_json),
                "--out-csv",
                str(out_csv),
                "--out-svg",
                str(out_svg),
            ]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["breakpoints"] == pytest.approx([0.4], abs=1e-9)
        assert doc["slopes"] == pytest.approx([-0.2, 0.0], abs=1e-9)
        assert doc["p_star"] == pytest.approx(0.4, abs=1e-9)
        assert doc["d_star"] == pytest.approx(0.4, abs=1e-12)
        assert "tolerance" in doc

        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == "P,D,slope"
        assert len(rows) == 202
        # sampled values are the piecewise form itself
        for row in rows[1:20]:
            p, d, s = (float(v) for v in row.split(","))
            assert d == pytest.approx(0.48 - 0.2 * p if p < 0.4 else 0.4, abs=1e-12)

        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert (tmp_path / "c.s2.svg").exists()  # scatter emitted for vertex method

    def test_closed_form_matches_sweep(self, bsc_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["curve", "--input", bsc_file, "--method", "closed-form", "--out-json", str(a)])
        main(["curve", "--input", bsc_file, "--method", "sweep", "--out-json", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["breakpoints"] == pytest.approx(db["breakpoints"], abs=1e-6)
        assert da["slopes"] == pytest.approx(db["slopes"], abs=1e-8)

    def test_flat_curve_svg(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(serialize_instance({"p_xy": [[0.5, 0.0], [0.0, 0.5]]}))
        out_svg = tmp_path / "n.svg"
        out_json = tmp_path / "n_curve.json"
        main(
            ["curve", "--input", str(path), "--method", "sweep",
             "--out-svg", str(out_svg), "--out-json", str(out_json)]
        )
        assert json.loads(out_json.read_text())["breakpoints"] == []
        assert "<svg" in out_svg.read_text()

    def test_vertex_budget_exit_code(self, tmp_path, capsys):
        # the walk visits 364 bases of this dual
        path = tmp_path / "big.json"
        spec = generate_instance(1, 4, 8)
        path.write_text(serialize_instance(spec))
        code = main(
            ["curve", "--input", str(path), "--method", "vertex", "--budget", "100"]
        )
        assert code == 3
        assert "sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_vertex_budget_below_one_is_input_error(self, bsc_file, capsys, budget):
        assert main(["curve", "--input", bsc_file, "--method", "vertex", "--budget", budget]) == 1
        assert "input error: a vertex walk needs a budget of at least 1" in capsys.readouterr().err

    def test_vertex_4x8_at_the_default_budget(self, tmp_path):
        # C(45, 12) candidate bases, but the walk visits 364
        path, out_json, out_svg = tmp_path / "big.json", tmp_path / "c.json", tmp_path / "c.svg"
        spec = generate_instance(1, 4, 8)
        path.write_text(serialize_instance(spec))
        code = main(
            ["curve", "--input", str(path), "--method", "vertex",
             "--out-json", str(out_json), "--out-svg", str(out_svg)]
        )
        assert code == 0
        assert (tmp_path / "c.s2.svg").exists()
        doc = json.loads(out_json.read_text())
        sweep = curve_by_sweep(instance_to_problem(spec)).curve
        assert len(doc["breakpoints"]) == sweep.breakpoints.size
        assert np.max(np.abs(np.asarray(doc["breakpoints"]) - sweep.breakpoints), initial=0.0) <= 1e-12
        assert np.max(np.abs(np.asarray(doc["slopes"]) - sweep.slopes)) <= 1e-12


class TestBinarySubcommand:
    def test_prints_case_and_breakpoints(self, bsc_file, capsys):
        assert main(["binary", "--input", bsc_file]) == 0
        out = capsys.readouterr().out
        assert "case = x1_underallocated" in out
        assert "0.02" in out

    def test_rejects_nonbinary(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(serialize_instance(generate_instance(2, 3, 3)))
        assert main(["binary", "--input", str(path)]) == 1

    def test_same_outputs_as_closed_form_curve(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(serialize_instance(generate_instance(1, 2, 8, random_distortion=True)))
        a, b = tmp_path / "binary.json", tmp_path / "curve.json"
        assert main(["binary", "--input", str(path), "--out-json", str(a)]) == 0
        by_binary = capsys.readouterr().out.splitlines()
        assert main(
            ["curve", "--input", str(path), "--method", "closed-form", "--out-json", str(b)]
        ) == 0
        by_curve = capsys.readouterr().out.splitlines()
        assert a.read_bytes() == b.read_bytes()
        assert by_binary[0].startswith("case = ")
        assert by_binary[1:] == by_curve
        keys = [line.split(" = ")[0] for line in by_curve]
        assert keys == ["breakpoints", "slopes", "p_star", "d_star", "tolerance"]


class TestVerify:
    def test_bsc_passes(self, bsc_file, capsys):
        assert main(["verify", "--input", bsc_file, "--points", "9"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_seeded_3x4_passes(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(serialize_instance(generate_instance(7, 3, 4, random_distortion=True)))
        assert main(["verify", "--input", str(path), "--points", "7"]) == 0

    def test_injected_error_exits_4(self, bsc_file, capsys):
        code = main(
            ["verify", "--input", bsc_file, "--points", "9", "--inject-slope-error", "1e-3"]
        )
        assert code == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_empty_perception_grid_is_input_error(self, bsc_file, capsys, value):
        assert main(["verify", "--input", bsc_file, "--points", value]) == 1
        assert "input error: perception grid is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_grid_steps_below_one_is_input_error(self, bsc_file, capsys, value):
        code = main(["verify", "--input", bsc_file, "--points", "5", "--grid-steps", value])
        assert code == 1
        assert "input error: grid oracle needs at least 1 step" in capsys.readouterr().err


class TestUnreadablePaths:
    @pytest.mark.parametrize(
        "command",
        [["solve", "--P", "0.1", "--input", "{dir}"],
         ["curve", "--method", "sweep", "--input", "{file}", "--out-json", "{dir}"]],
        ids=["solve-input", "curve-out-json"],
    )
    def test_directory_is_input_error(self, bsc_file, tmp_path, capsys, command):
        # a directory raised IsADirectoryError out of main as a traceback
        argv = [arg.format(dir=tmp_path, file=bsc_file) for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(tmp_path) in err


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self, bsc_file, monkeypatch, capsys):
        # a reader that left early (``dp binary ... | head``) raised a
        # BrokenPipeError that main printed as an input error
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["binary", "--input", bsc_file]) == 1
            assert os.path.samestat(os.fstat(pipe.fileno()), os.stat(os.devnull))
            monkeypatch.undo()
        assert capsys.readouterr().err == ""


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize(
        "command",
        [["verify", "--points", "5"], ["solve", "--P", "0.1"], ["curve", "--method", "sweep"],
         ["binary"], ["w1", "--p", "0.6,0.4", "--q", "1,0"]],
    )
    def test_bad_tolerance_is_input_error(self, bsc_file, capsys, command, tol):
        # NaN made `dp verify` pass whatever the methods returned; -1 made it fail
        assert main(command + ["--input", bsc_file, "--tol", tol]) == 1
        assert "input error: --tol must be finite and nonnegative" in capsys.readouterr().err


class TestW1:
    def test_hamming_default(self, capsys):
        assert main(["w1", "--p", "0.6,0.4", "--q", "1,0"]) == 0
        out = capsys.readouterr().out
        assert "W1 = 0.4" in out
        assert "coupling" in out

    def test_metric_from_problem_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            serialize_instance(
                {"p_xy": [[0.5, 0.0], [0.0, 0.5]], "metric": [[0.0, 0.5], [0.5, 0.0]]}
            )
        )
        assert main(["w1", "--p", "0.6,0.4", "--q", "1,0", "--input", str(path)]) == 0
        assert "W1 = 0.2" in capsys.readouterr().out

    def test_bad_vector(self, capsys):
        assert main(["w1", "--p", "0.6;0.4", "--q", "1,0"]) == 1

    def test_random_metric_file(self, tmp_path, capsys):
        # every coupling onto a point mass moves each symbol's mass straight there
        spec = generate_instance(1, 5, 6, random_distortion=True, use_random_metric=True)
        path = tmp_path / "r.json"
        path.write_text(serialize_instance(spec))
        assert main(["w1", "--input", str(path), "--p", "0.2,0.2,0.2,0.2,0.2", "--q", "1,0,0,0,0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        h = instance_to_problem(parse_instance(path.read_text())).metric.h
        assert float(lines[0].removeprefix("W1 = ")) == pytest.approx(0.2 * h[:, 0].sum(), abs=1e-15)
        plan = np.array([[float(v) for v in line.split()] for line in lines[2:7]])
        assert np.allclose(plan, np.outer(np.full(5, 0.2), [1, 0, 0, 0, 0]), rtol=0.0, atol=1e-15)


class TestConsoleEntry:
    def test_module_invocation(self, bsc_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dptradeoff.cli", "solve", "--input", bsc_file, "--P", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "D(P) = 0.1" in proc.stdout
