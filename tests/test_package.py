"""Package surface, its tolerances and the end-to-end experiment script."""

import ast
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

import dptradeoff
from dptradeoff.problemio import generate_instance, serialize_instance

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dptradeoff").glob("*.py"))
UNITS = {"mass", "level", "cost", "slope", "metric", "ratio"}


def test_exports_resolve_without_duplicates():
    names = dptradeoff.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(dptradeoff, name, None) is not None, name


def _python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this tree's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["cross_verify", "grid_oracle", "VerifyReport"])
def test_verify_loads_on_first_access(name):
    out = _python(
        "import sys, dptradeoff\n"
        "print('dptradeoff.verify' in sys.modules)\n"
        f"print(dptradeoff.{name} is dptradeoff.verify.{name})\n"
    )
    assert out == "False\nTrue\n"


def test_dp_solve_loads_neither_verify_nor_svgplot(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(serialize_instance(generate_instance(1, 2, 8, random_distortion=True)))
    out = _python(
        "import sys\n"
        "from dptradeoff.cli import main\n"
        f"assert main(['solve', '--input', {str(path)!r}, '--P', '0.1']) == 0\n"
        "print(sorted({'dptradeoff.verify', 'dptradeoff.svgplot'} & set(sys.modules)))\n"
    )
    assert out.splitlines()[-1] == "[]"


def test_hull_experiment_script_writes_artifacts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "run_hull_experiment.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("curve.svg", "s2.svg", "curve.json"):
        assert (tmp_path / name).is_file(), name


def test_code_line_count_skips_prose(tmp_path):
    # blank, comment-only and docstring lines are prose; a multi-line string
    # that is no docstring is code
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\n'
        'def f():\n    """One line."""\n    x = """a\n    b"""  # trailing\n    return x\n'
    )
    script = ROOT / "scripts" / "count_code_lines.py"
    proc = subprocess.run([sys.executable, str(script), str(source), str(source)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8 code lines\n"


def _constants(tree):
    """The module-level assignments to UPPER_CASE names, with their names."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [getattr(target, "id", "") for target in node.targets]
            if all(name.lstrip("_").isupper() for name in names):
                yield node, names


def test_every_small_float_is_a_named_constant():
    # a float below 1e-5 in magnitude is a tolerance: it is written once, as a
    # module-level UPPER_CASE name next to its module's other tolerances
    stray = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        named = {id(c) for node, _ in _constants(tree) for c in ast.walk(node)}
        stray += [
            f"{path.name}:{c.lineno}"
            for c in ast.walk(tree)
            if isinstance(c, ast.Constant) and type(c.value) is float
            and 0.0 < abs(c.value) < 1e-5 and id(c) not in named
        ]
    assert not stray, stray


def test_every_tolerance_comment_begins_with_its_unit():
    unitless = []
    for path in SOURCES:
        text = path.read_text()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = {t.start[0]: t.string for t in tokens if t.type == tokenize.COMMENT}
        for node, names in _constants(ast.parse(text, str(path))):
            word = re.match(r"#\s*([a-z]+)", comments.get(node.end_lineno, ""))
            if any(n.endswith("_TOL") for n in names) and (not word or word[1] not in UNITS):
                unitless.append(f"{path.name}:{node.lineno} {' = '.join(names)}")
    assert not unitless, unitless
