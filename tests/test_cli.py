"""Command-line interface: files, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dptradeoff import ProblemError, SolverError, cross_verify, make_problem
from dptradeoff import lp as lpmod
from dptradeoff import svgplot
from dptradeoff.cli import build_parser, main
from dptradeoff.curve import curve_by_sweep, curve_by_vertices
from dptradeoff.problemio import (
    generate_instance,
    instance_to_problem,
    parse_instance,
    serialize_instance,
)

from conftest import scaled_distortion_spec, three_symbol_skewed, tilt_sweep

# a child interpreter imports the package from this checkout's src/
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

# instance files by name, for ``run``: ``dp gen`` arguments, or the file's text
INSTANCES = {
    "i.json": "--seed 1 --nx 13 --ny 20",
    "s.json": "--seed 1 --nx 3 --ny 4",
    "b.json": "--seed 1 --nx 2 --ny 8 --random-distortion",
    "b400.json": "--seed 1 --nx 2 --ny 400 --random-distortion",  # 206 breakpoint rules
    "r.json": "--seed 1 --nx 5 --ny 6 --random-metric --random-distortion",
    "w.json": "--seed 1 --nx 6 --ny 4",  # its dual has 2,002 bases, ties of up to 26 rows
    "e.json": "--seed 1 --nx 8 --ny 4",  # 31,824 bases, past the default budget
    "big.json": "--seed 1 --nx 16 --ny 64",  # 80 dual dimensions, past the walk's 16
    # p_first sits on the knot one step past the greedy rule's, at distance 0
    "knot.json": '{"p_xy": [[0.25, 0.03125, 0.078125], [0.015625, 0.0625, 0.5625]]}',
    "huge-cost.json": '{"p_xy": [[0.5, 0.5]], "distortion": [[1e308]]}',
    # observation masses near 1e-9; a merge of vertices 1e-7 apart once dropped a line
    "ill.json": '{"p_xy": [[0.2, 1e-09, 0.1], [0.1, 2e-09, 0.2], [0.2, 0.0, 0.199999997]], '
    '"metric": [[0, 0.7, 0.9], [0.7, 0, 0.6], [0.9, 0.6, 0]]}',
    "skew15.json": serialize_instance(three_symbol_skewed(15)),
    "skew20.json": serialize_instance(three_symbol_skewed(20)),
    "tiny-negative.json": '{"p_xy": [[0.2500000000002, 0.2500000000002, 0.2500000000002, '
    '0.2500000000002], [-4e-13, -4e-13, -4e-13, -4e-13]]}',
    "tiny-diagonal.json": '{"p_xy": [[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]], '
    '"metric": [[-5e-13, 1, 1], [1, -5e-13, 1], [1, 1, -5e-13]]}',
}


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """``run("solve --input i.json --P 0.1")``: the exit code, stdout and
    stderr of ``dp`` run in an empty directory that holds only the
    ``INSTANCES`` file its ``--input`` names."""
    monkeypatch.chdir(tmp_path)

    def run(command):
        argv = command.split()
        name = argv[argv.index("--input") + 1]
        source = INSTANCES[name]
        if source.startswith("{"):
            Path(name).write_text(source)
        else:
            assert main(["gen", *source.split(), "--out", name]) == 0
        capsys.readouterr()
        return main(argv), *capsys.readouterr()

    return run


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

    def test_stdout_is_the_out_file(self, tmp_path, capsysbinary):
        path = tmp_path / "a.json"
        assert main(["gen", "--seed", "1", "--nx", "3", "--ny", "4", "--out", str(path)]) == 0
        capsysbinary.readouterr()
        assert main(["gen", "--seed", "1", "--nx", "3", "--ny", "4"]) == 0
        assert capsysbinary.readouterr().out == path.read_bytes()

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

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-svg"])
    def test_curve_output_flags_are_input_errors(self, bsc_file, tmp_path, capsys, flag):
        out = tmp_path / "x.out"
        assert main(["solve", "--input", bsc_file, "--P", "0.1", flag, str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"input error: dp solve: unrecognized arguments: {flag}")
        assert not out.exists()

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

    def test_metric_diagonal_below_zero_gives_no_negative_certificate(self, run):
        # a diagonal of -5e-13 passes the zero check; as given, the certificate read -5e-13
        code, out, _ = run("solve --input tiny-diagonal.json --P 0")
        line = next(line for line in out.splitlines() if line.startswith("perception certificate"))
        assert code == 0 and float(line.split("=")[1]) >= 0.0

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

    def test_s2_scatter_of_no_points(self):
        svg = svgplot.scatter_svg(np.empty((0, 2)), [])
        assert svg.startswith("<svg") and ">no points</text>" in svg and "<circle" not in svg

    @pytest.mark.parametrize(
        "seed, n_y, marks", [(7, 5, (31, 8, 1, 5)), (21, 4, (23, 8, 1, 5))], ids=["3x5", "3x4"]
    )
    def test_s2_scatter_marks(self, tmp_path, seed, n_y, marks):
        # a grey dot per projected dual vertex, a blue ring per hull extreme,
        # one polygon through the rings, a red cross per segment of the curve
        spec = generate_instance(seed, 3, n_y, random_distortion=True)
        path = tmp_path / "g.json"
        path.write_text(serialize_instance(spec))
        out_svg = tmp_path / "c.svg"
        code = main(["curve", "--input", str(path), "--method", "vertex", "--out-svg", str(out_svg)])
        assert code == 0
        svg = (tmp_path / "c.s2.svg").read_text()
        report = curve_by_vertices(instance_to_problem(spec))
        expected = (
            report.s2_points.shape[0],
            report.hull_extreme_indices.size,
            1,
            report.curve.segments.shape[0],
        )
        grey, ring, cross = 'r="3" fill="#7f7f7f"', 'fill="none" stroke="#1f6fb2"', 'stroke="#d62728"'
        found = tuple(svg.count(mark) for mark in (grey, ring, "<polygon", cross))
        assert found == expected == marks

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

    @pytest.mark.parametrize("budget", ["0", "5", "10000"])
    @pytest.mark.parametrize("method", ["sweep", "closed-form"])
    def test_budget_outside_vertex_is_input_error(self, bsc_file, tmp_path, capsys, method, budget):
        # neither method walks vertices; --budget 0 with either once exited 0
        out = tmp_path / "c.json"
        argv = ["curve", "--input", bsc_file, "--method", method, "--budget", budget, "--out-json", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"input error: dp curve: --budget applies only to --method vertex, not {method}\n"
        assert captured.out == "" and not out.exists()

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

    @pytest.mark.parametrize("name", ["b.json", "b400.json", "knot.json"])
    def test_closed_form_json_lists_estimators(self, run, name):
        # at 0, then at each breakpoint in order, each column summing to 1
        assert run(f"curve --input {name} --method closed-form --out-json c.json")[0] == 0
        doc = json.loads(Path("c.json").read_text())
        assert [e["p"] for e in doc["estimators"]] == [0.0] + doc["breakpoints"]
        for e in doc["estimators"]:
            assert all(abs(sum(col) - 1.0) <= 1e-12 for col in zip(*e["q"]))


class TestVerify:
    @pytest.mark.parametrize("steps, shown", [("3", True), ("8", False)])
    def test_grid_oracle_joins_within_its_budget(self, run, steps, shown):
        # 4^8 grid points at 3 steps; 9^8 at 8, past the 1e7 budget
        code, out, _ = run(f"verify --input b.json --grid-steps {steps}")
        assert (code, "grid oracle band" in out) == (0, shown)

    def test_bsc_passes(self, bsc_file, capsys):
        assert main(["verify", "--input", bsc_file, "--points", "9"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_seeded_3x4_passes(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(serialize_instance(generate_instance(7, 3, 4, random_distortion=True)))
        assert main(["verify", "--input", str(path), "--points", "7"]) == 0

    def test_injected_error_exits_4(self, bsc_file, capsys, monkeypatch):
        tilt_sweep(monkeypatch, 1e-3)
        code = main(["verify", "--input", bsc_file, "--points", "9"])
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


class TestBadProblemFiles:
    # each of these ended in a traceback out of main, not an input error
    def _solve(self, tmp_path, capsys, data: bytes) -> str:
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["solve", "--input", str(path), "--P", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        return err

    def test_not_utf8(self, tmp_path, capsys):
        err = self._solve(tmp_path, capsys, b'\xff\xfe{"p_xy": [[1]]}')
        assert "UTF-8" in err

    def test_nested_too_deep(self, tmp_path, capsys):
        err = self._solve(tmp_path, capsys, b"[" * 100_000 + b"]" * 100_000)
        assert "not valid JSON" in err

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        err = self._solve(tmp_path, capsys, b'{"p_xy": [[1, 1], [1, ' + b"9" * 401 + b"]]}")
        assert "'p_xy'" in err

    @pytest.mark.parametrize(
        "data,named",
        [
            (b'{"p_xy": 0.5}', "field 'p_xy' must be a nonempty 2-D array"),
            (b'{"p_xy": [[0.5, 0.5]], "metric": "hamming"}', "field 'metric' must be"),
            (b'{"p_xy": [0.5, 0.5]}', "field 'p_xy' row 0 is not an array"),
            (b'{"p_xy": [[0.5, "0.5"]]}', "field 'p_xy' entry (0,1) is not a number"),
            (b'{"p_xy": [[0.5, true]]}', "field 'p_xy' entry (0,1) is not a number"),
            (b'{"p_xy": [[0.5, 0.5]], "distortion": [[true]]}', "field 'distortion' entry (0,0)"),
            (b'{"p_xy": [[0.5, 0.5], [0.0]]}', "field 'p_xy' row 1 has 1 entries, expected 2"),
            (b'{"p_xy": [[0.5, null]]}', "field 'p_xy' entry (0,1) is not a number"),
            (b'{"p_xy": [[0.5, [0.5]]]}', "field 'p_xy' entry (0,1) is not a number"),
            (b'[[0.5, 0.5]]', "instance file must be a JSON object"),
            (b'{"metric": [[0]]}', "missing required field 'p_xy'"),
        ],
        ids=["field-not-list", "metric-not-list", "row-not-list", "string-entry", "bool-entry",
             "true-entry", "ragged-row", "null-entry", "nested-entry", "not-an-object", "no-p_xy"],
    )
    def test_malformed_schema_names_the_field(self, tmp_path, capsys, data, named):
        assert named in self._solve(tmp_path, capsys, data)


class TestSolverError:
    @pytest.mark.parametrize(
        "target,command",
        [("dptradeoff.cli.solve_dp_at", ["solve", "--P", "0.1"]),
         ("dptradeoff.cli.curvemod.curve_by_sweep", ["curve", "--method", "sweep"])],
        ids=["solve", "curve-sweep"],
    )
    def test_exits_2_without_a_traceback(self, bsc_file, monkeypatch, capsys, target, command):
        def fail(*args, **kwargs):
            raise SolverError("pivot below numeric tolerance")

        monkeypatch.setattr(target, fail)
        assert main([*command, "--input", bsc_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error: pivot below numeric tolerance")
        assert "Traceback" not in err

    def test_vertex_envelope_failure_exits_2(self, bsc_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise ProblemError("curve discontinuous at breakpoint 0.5")

        monkeypatch.setattr("dptradeoff.curve.assemble_curve", fail)
        assert main(["curve", "--method", "vertex", "--input", bsc_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error: curve discontinuous at breakpoint 0.5")
        assert "Traceback" not in err


class TestScaledDistortion:
    # the 3x5 instance of dp gen --seed 1 with its distortions scaled by 1e8:
    # its curve's pieces miss each other at a breakpoint, which once printed
    # "input error: curve discontinuous at breakpoint ..." and exited 1
    @pytest.mark.parametrize(
        "command",
        [["curve", "--method", "sweep"], ["curve", "--method", "vertex"], ["verify"]],
        ids=["sweep", "vertex", "verify"],
    )
    def test_never_an_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "scaled.json"
        path.write_text(serialize_instance(scaled_distortion_spec()))
        code = main([*command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code != 1 and "input error" not in err and "np.float64" not in err, err


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

    def test_closed_pipe_across_processes(self, tmp_path):
        # ``dp binary --input b400.json | head -c 1``, with the reader gone before dp writes
        path = tmp_path / "b400.json"
        path.write_text(serialize_instance(generate_instance(1, 2, 400, random_distortion=True)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dptradeoff.cli", "binary", "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
        )
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (1, b"")


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
        err = capsys.readouterr().err
        if command[0] == "verify":
            assert "input error: --tol must be finite and nonnegative" in err
        else:  # only `dp verify` applies a tolerance
            assert err.startswith(f"input error: dp {command[0]}: unrecognized arguments: --tol {tol}")

    @pytest.mark.parametrize(
        "command",
        [["solve", "--P", "0.1"], ["curve", "--method", "sweep"], ["binary"],
         ["w1", "--p", "0.6,0.4", "--q", "1,0"]],
    )
    def test_valid_tolerance_is_refused_outside_verify(self, bsc_file, capsys, command):
        # these commands once echoed any valid --tol while their checks read lp.FEAS_TOL
        assert main(command + ["--input", bsc_file, "--tol", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert err == f"input error: dp {command[0]}: unrecognized arguments: --tol 1e-3\n"

    @pytest.mark.parametrize("command", [["solve", "--P", "0.1"], ["curve", "--method", "sweep"]])
    def test_printed_tolerance_is_feas_tol(self, bsc_file, tmp_path, capsys, command):
        out = tmp_path / "out.json"
        assert main(command + ["--input", bsc_file, "--out-json", str(out)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("tolerance = ")]
        assert [float(line.removeprefix("tolerance = ")) for line in lines] == [lpmod.FEAS_TOL]
        assert json.loads(out.read_text())["tolerance"] == lpmod.FEAS_TOL

    def test_verify_default_is_cross_verify_default(self, bsc_file, capsys):
        default = build_parser().parse_args(["verify", "--input", bsc_file]).tol
        report = cross_verify(make_problem([[0.54, 0.06], [0.04, 0.36]]))
        assert report.tolerance == default
        assert main(["verify", "--input", bsc_file, "--points", "5"]) == 0
        assert f"(tolerance {default:.1e})" in capsys.readouterr().out


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv,message",
        [(["solve", "--input", "x.json", "--P", "abc"], "dp solve: argument --P: invalid float value: 'abc'"),
         (["curve", "--input", "x.json", "--budget", "1e3"], "dp curve: argument --budget: invalid int value"),
         (["frobnicate"], "dp: argument command: invalid choice: 'frobnicate'"),
         (["solve", "--P", "0.1"], "dp solve: the following arguments are required: --input"),
         (["verify", "--input", "x.json", "--inject-slope-error", "1e-3"],
          "dp verify: unrecognized arguments: --inject-slope-error 1e-3"),
         (["--bogus", "solve", "--input", "x.json", "--P", "0.1"], "dp: unrecognized arguments: --bogus"),
         (["solve", "--input", "x.json", "--P", "0.1", "--bogus"], "dp solve: unrecognized arguments: --bogus")],
        ids=["bad-float", "bad-int", "unknown-command", "missing-input", "unknown-option",
             "unknown-option-before-the-command", "unknown-option-after-the-command"],
    )
    def test_is_input_error(self, capsys, argv, message):
        # argparse's own exit code, 2, is the one for a solver failure
        assert main(argv) == 1
        assert f"input error: {message}" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0


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

    def test_marginal_to_itself_is_zero(self, run):
        # p = q: the start is the fallback tree, every arc at 0 flow
        code, out, _ = run("w1 --input r.json --p 0.2,0.2,0.2,0.2,0.2 --q 0.2,0.2,0.2,0.2,0.2")
        assert code == 0 and out.splitlines()[0] == "W1 = 0"


class TestConsoleEntry:
    def test_module_invocation(self, bsc_file):
        proc = subprocess.run(
            [sys.executable, "-m", "dptradeoff.cli", "solve", "--input", bsc_file, "--P", "1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "D(P) = 0.1" in proc.stdout


class TestEndToEnd:
    # each command on an ``INSTANCES`` file, its exit code, and how its stderr starts
    EXIT_CODES = [
        ("curve --input i.json --method sweep --out-json c.json", 0, ""),
        ("curve --input s.json --method vertex --out-json v.json", 0, ""),
        ("verify --input s.json", 0, ""),
        ("binary --input b.json", 0, ""),
        ("verify --input b.json", 0, ""),
        ("binary --input b400.json", 0, ""),
        ("verify --input knot.json", 0, ""),
        ("verify --input r.json", 0, ""),
        ("curve --input w.json --method vertex", 0, ""),
        ("verify --input w.json", 0, ""),
        ("curve --input e.json --method vertex", 3, "budget exceeded: the vertex walk visited more"),
        ("curve --input big.json", 3, "budget exceeded: dimension 80 exceeds"),
        ("solve --input i.json --P 0.1 --out-svg x.svg", 1,
         "input error: dp solve: unrecognized arguments: --out-svg x.svg"),
        ("solve --input i.json --P 0.1 --tol 1e-3", 1,
         "input error: dp solve: unrecognized arguments: --tol 1e-3"),
        ("curve --input s.json --method vertex --budget 0", 1,
         "input error: a vertex walk needs a budget of at least 1"),
        ("verify --input s.json --tol nan", 1, "input error: --tol must be finite and nonnegative"),
        ("solve --input i.json --P abc", 1, "input error: dp solve: argument --P: invalid float"),
        ("curve --input s.json --budget 1e3", 1, "input error: dp curve: argument --budget: invalid int"),
        ("curve --input s.json --method sweep --budget 5", 1,
         "input error: dp curve: --budget applies only to --method vertex"),
        ("--bogus solve --input i.json --P 0.1", 1, "input error: dp: unrecognized arguments: --bogus"),
        ("curve --input huge-cost.json --method vertex", 0, ""),  # 1e308 once overflowed a rounding
        ("verify --input ill.json --points 101 --tol 1e-12", 0, ""),
        ("curve --input skew15.json --method sweep", 0, ""),
        ("verify --input skew20.json --tol 1e-9", 0, ""),
        ("solve --input tiny-negative.json --P 0.1", 0, ""),
    ]

    @pytest.mark.parametrize("command, code, err", EXIT_CODES, ids=[row[0] for row in EXIT_CODES])
    def test_exit_code(self, run, command, code, err):
        # stderr holds only the exit code's message; a refused command writes
        # no file next to its instance file
        got, _, stderr = run(command)
        assert got == code and stderr.startswith(err) and (stderr == "") == (code == 0)
        assert code == 0 or len(os.listdir()) == 1
