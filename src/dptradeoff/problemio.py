"""Problem files: a small JSON schema, canonical serialization, generation.

Schema: ``{"name": str?, "seed": int?, "p_xy": [[...]], "distortion":
[[...]]?, "metric": [[...]]?}`` with row-major 2-D arrays.  Distortion
and metric default to Hamming.  Numbers are written with 17 significant
digits so parse/serialize round-trips are byte identical.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .errors import ProblemError
from .lp import _is_count, _plain
from .model import Problem, make_problem


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_text(rows: np.ndarray, indent: str) -> str:
    body = ",\n".join(
        indent + "  [" + ", ".join(_fmt(v) for v in row) + "]" for row in rows
    )
    return "[\n" + body + "\n" + indent + "]"


def serialize_instance(spec: dict) -> str:
    """Canonical text for an instance dict; key order and spacing are fixed."""
    parts = []
    if spec.get("name") is not None:
        parts.append(f'  "name": {json.dumps(spec["name"])}')
    if spec.get("seed") is not None:
        parts.append(f'  "seed": {int(spec["seed"])}')
    parts.append('  "p_xy": ' + _matrix_text(np.asarray(spec["p_xy"]), "  "))
    for key in ("distortion", "metric"):
        if spec.get(key) is not None:
            parts.append(f'  "{key}": ' + _matrix_text(np.asarray(spec[key]), "  "))
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _check_matrix(raw, key: str) -> np.ndarray:
    if not isinstance(raw, list) or not raw:
        raise ProblemError(f"field {key!r} must be a nonempty 2-D array")
    # one pass over the entries' exact types (a bool's is not int) accepts
    # what JSON gives a valid matrix; the loop runs only to name the first
    # bad row or entry
    width = len(raw[0]) if isinstance(raw[0], list) else -1
    if not (
        all(type(row) is list and len(row) == width for row in raw)
        and {type(v) for row in raw for v in row} <= {int, float}
    ):
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ProblemError(f"field {key!r} row {i} is not an array")
            if len(row) != width:  # row 0, a list, gave the width
                raise ProblemError(f"field {key!r} row {i} has {len(row)} entries, expected {width}")
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise ProblemError(f"field {key!r} entry ({i},{j}) is not a number")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise ProblemError(f"field {key!r} has an entry too large for a float") from exc


def parse_instance(text: str) -> dict:
    """Parse and shape-check an instance file; errors name the field and row."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past 4300 digits, deep nesting
        raise ProblemError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemError("instance file must be a JSON object")
    if "p_xy" not in raw:
        raise ProblemError("missing required field 'p_xy'")
    out: dict = {
        "name": raw.get("name"),
        "seed": raw.get("seed"),
        "p_xy": _check_matrix(raw["p_xy"], "p_xy"),
    }
    for key in ("distortion", "metric"):
        out[key] = _check_matrix(raw[key], key) if raw.get(key) is not None else None
    return out


def instance_to_problem(spec: dict) -> Problem:
    return make_problem(spec["p_xy"], spec.get("distortion"), spec.get("metric"))


def load_problem(path: str) -> tuple[Problem, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ProblemError(f"problem file is not UTF-8 text: {exc}") from exc
    spec = parse_instance(text)
    return instance_to_problem(spec), spec


def random_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random metric in [0, 1]: symmetric off-diagonals in [0.5, 1].

    Entries at least one half automatically satisfy every triangle
    inequality under the unit cap.
    """
    h = rng.uniform(0.5, 1.0, size=(n, n))
    h = 0.5 * (h + h.T)
    np.fill_diagonal(h, 0.0)
    return h


def generate_instance(
    seed: int,
    n_x: int,
    n_y: int,
    *,
    random_distortion: bool = False,
    use_random_metric: bool = False,
) -> dict:
    """Reproducible random instance: uniform draw, normalized to sum one."""
    if not all(_is_count(v) for v in (seed, n_x, n_y)):
        raise ProblemError(
            "seed and alphabet sizes must be integers, got "
            + ", ".join(repr(_plain(v)) for v in (seed, n_x, n_y))
        )
    seed, n_x, n_y = (operator.index(v) for v in (seed, n_x, n_y))
    if n_x < 1 or n_y < 1:
        raise ProblemError("alphabet sizes must be >= 1")
    if seed < 0:
        raise ProblemError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=(n_x, n_y))
    p /= p.sum()
    spec: dict = {
        "name": f"gen-seed{seed}-{n_x}x{n_y}",
        "seed": int(seed),
        "p_xy": p,
        "distortion": rng.uniform(0.0, 1.0, size=(n_x, n_x)) if random_distortion else None,
        "metric": random_metric(rng, n_x) if use_random_metric else None,
    }
    instance_to_problem(spec)  # generation post-check
    return spec
