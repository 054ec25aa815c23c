"""The config schema: every kind's keys, types and defaults in ``cli.SCHEMA``."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from expwalk import catalog, cli

README = Path(__file__).resolve().parent.parent / "README.md"
DROP = object()


def measure_doc(mu):
    atoms = [{"matrix": g.ravel().tolist(), "weight": float(w)}
             for g, w in zip(mu.matrices, mu.weights)]
    return {"dim": mu.dim, "atoms": atoms}


PAIR = measure_doc(catalog.positive_pair_sl2())
SPONGE = {"bases": [2, 3], "pattern": [[0, 0], [1, 1], [0, 2]]}
BASE = {
    "expand-cert": {"measure": PAIR, "N": 1, "sphere_samples": 20},
    "cone": {"blocks": [2, 2], "logs": [1, 1, -1, -1]},
    "walk": {"measure": PAIR, "n_steps": 5, "observables": ["siegel:3.0"]},
    "height": {"basis": [[1, 0], [0, 1]], "epsilon": 0.1},
    "recur": {"measure": PAIR, "height": {"epsilon": 0.1}, "delta": 0.1, "n_grid": [2, 4],
              "mc_trials": 10, "sample_points": 60},
    "kau": {"measure": measure_doc(catalog.cantor_measure()), "profile": {"m": 1, "n": 1},
            "len": 5},
    "sponge": SPONGE,
    "dioph-brute": {"M": [[0.5]], "r": [1.0], "s": [1.0], "T_max": 10.0},
    "dioph-flow": {"M": [[0.5]], "r": [1.0], "s": [1.0], "t_max": 2.0},
    "dioph-fractal": {"ifs": {"sponge": SPONGE}, "n_points": 1, "t_max": 1.0, "dt": 0.1,
                      "brute_T": 10},
}
MISSING = {
    "expand-cert": "N",
    "cone": "logs",
    "walk": "observables",
    "height": "epsilon",
    "recur": "n_grid",
    "kau": "len",
    "sponge": "pattern",
    "dioph-brute": "T_max",
    "dioph-flow": "M",
    "dioph-fractal": "ifs",
}

# (kind, parameter changes, top-level changes, text expected on stderr)
CASES = (
    [(kind, {"oops": 1}, {}, f"{kind}.oops") for kind in BASE]
    + [(kind, {key: DROP}, {}, f"{kind}.{key}") for kind, key in MISSING.items()]
    + [
        # non-integral floats were truncated
        ("expand-cert", {"N": 2.7}, {}, "expand-cert.N: expected an integer, got 2.7"),
        ("walk", {"n_steps": 2.5}, {}, "walk.n_steps: expected an integer"),
        ("kau", {"len": 2.5}, {}, "kau.len: expected an integer"),
        ("dioph-fractal", {"n_points": 2.5}, {}, "dioph-fractal.n_points: expected an integer"),
        ("sponge", {"bases": [2.5, 3]}, {}, "sponge.bases[0]: expected an integer"),
        # booleans passed as 1
        ("recur", {"m": True}, {}, "recur.m: expected an integer, got True"),
        ("cone", {"blocks": [True, 3]}, {}, "cone.blocks[0]: expected an integer"),
        ("height", {"epsilon": True}, {}, "height.epsilon: expected a number, got True"),
        ("dioph-flow", {"t_max": True}, {}, "dioph-flow.t_max: expected a number"),
        # booleans in a matrix read as 1.0 and 0.0: quality 0.0, a height of the identity
        ("dioph-brute", {"M": [[True]]}, {},
         "dioph-brute.M: entries must be numbers or decimal strings, not booleans"),
        ("height", {"basis": [[True, False], [False, True]]}, {}, "height.basis: entries must"),
        ("dioph-flow", {"M": [[0.5, False]], "r": [1.0], "s": [1.0, 1.0]}, {},
         "dioph-flow.M: entries must be numbers"),
        ("walk", {"x0": [[1, 0], [0, True]]}, {}, "walk.x0: entries must be numbers"),
        # numeric strings were converted
        ("dioph-brute", {"T_max": "10"}, {}, "dioph-brute.T_max: expected a number, got '10'"),
        ("expand-cert", {"sphere_samples": "20"}, {}, "expand-cert.sphere_samples"),
        ("walk", {"height": {"epsilon": "0.1"}, "observables": ["height"]}, {},
         "walk.height.epsilon: expected a number"),
        # a lone r was ignored, or raised a bare KeyError
        ("dioph-fractal", {"r": [0.5, 0.5]}, {}, "dioph-fractal.s: r and s must be given together"),
        ("kau", {"profile": {"m": 1, "n": 1, "r": [1.0]}}, {},
         "kau.profile.s: r and s must be given together"),
        # a zero radius counted as absent
        ("dioph-flow", {"siegel_radius": 0}, {}, "dioph-flow: siegel_radius must be positive"),
        ("cone", {"tol": None}, {}, "cone.tol: expected a number, got None"),
        # the determinant was printed as "np.float64(2.0)"
        ("height", {"basis": [[2.0, 0.0], [0.0, 1.0]]}, {}, "basis determinant 2.0 is not within"),
        # a missing measure file escaped as a traceback
        ("walk", {"measure": "no/such/measure.json"}, {}, "walk.measure: FileNotFoundError"),
        ("expand-cert", {"measure": {"dim": 2}}, {}, "expand-cert.measure: KeyError: 'atoms'"),
        # the top level
        ("walk", {}, {"seed": 2.7}, "walk.seed: expected an integer, got 2.7"),
        ("cone", {}, {"output": ""}, "cone.output: expected a non-empty string"),
        ("cone", {}, {"parameters": None}, "cone.parameters: expected an object"),
    ]
)


def text_ids(texts):
    """Each row's expected text as its test id; a text that repeats an earlier
    row's gets its occurrence number, so a new row renames no existing test."""
    seen = {}
    ids = []
    for text in texts:
        seen[text] = seen.get(text, 0) + 1
        ids.append(text if seen[text] == 1 else f"{text} #{seen[text]}")
    return ids


def config(tmp_path, kind, changes=None, top=None):
    params = dict(BASE[kind])
    for key, value in (changes or {}).items():
        if value is DROP:
            del params[key]
        else:
            params[key] = value
    doc = {"kind": kind, "parameters": params, "seed": 1, "output": str(tmp_path / "o")}
    doc.update(top or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("kind", list(BASE))
def test_base_configs_run(tmp_path, kind):
    assert cli.main([kind, "--config", config(tmp_path, kind)]) == 0


@pytest.mark.parametrize("kind, changes, top, expected", CASES, ids=text_ids([c[3] for c in CASES]))
def test_schema_rejects_with_kind_and_key(tmp_path, capsys, kind, changes, top, expected):
    assert cli.main([kind, "--config", config(tmp_path, kind, changes, top)]) == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


# (kind, parameter changes, text expected on stderr); each exited 2 and left a
# lone config.json behind
WRITES_NOTHING = [
    ("cone", {"oops": 1}, "cone.oops"),
    ("expand-cert", {"N": 2.7}, "expand-cert.N: expected an integer, got 2.7"),
    ("walk", {"observables": ["mahler:nan"]}, "observable 'mahler:nan': argument is NaN"),
    ("dioph-fractal", {"n_points": 0}, "n_points must be at least 1, got 0"),
    ("dioph-flow", {"t_max": -1.0}, "t_max must be finite and non-negative, got -1.0"),
]


@pytest.mark.parametrize("kind, changes, expected", WRITES_NOTHING,
                         ids=text_ids([c[2] for c in WRITES_NOTHING]))
def test_config_error_writes_no_file(tmp_path, capsys, kind, changes, expected):
    assert cli.main([kind, "--config", config(tmp_path, kind, changes)]) == 2
    assert expected in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # the input alone


GEODESIC = measure_doc(catalog.diagonal_geodesic_sl2())
# (kind, parameter changes, text expected on stderr)
REFUSED_BEFORE_WORK = [
    # ndtri gave NaN or +-inf, an exit 3 "bound must be finite"; 1 read
    # "mode=exact iff confidence=1"
    pytest.param("expand-cert", {"mode": "mc", "confidence": c},
                 f"expand-cert: confidence must lie strictly between 0 and 1, got {c}",
                 id=f"confidence-{c}")
    for c in (0.0, 1.0, 1.5)
] + [
    # numpy's "need at least one array to concatenate", after the walk
    pytest.param("walk", {"observables": []}, "walk.observables: need at least one observable",
                 id="no-observables"),
    # "t_max must be at least 1", after point 0 was flowed
    pytest.param("dioph-fractal", {"brute_T": 0.5},
                 "brute_t_max must be finite and at least 1, got 0.5", id="brute_T-0.5"),
    # exit 3 from the contraction fit that ran first
    pytest.param("recur", {"measure": GEODESIC, "n_grid": [0]},
                 "recur: the n-grid must contain positive integers", id="n_grid-0"),
    pytest.param("recur", {"measure": GEODESIC, "n_grid": []},
                 "recur: the n-grid must contain positive integers", id="n_grid-empty"),
]


@pytest.mark.parametrize("kind, changes, expected", REFUSED_BEFORE_WORK)
def test_out_of_range_value_is_exit_2_naming_it(tmp_path, capsys, kind, changes, expected):
    assert cli.main([kind, "--config", config(tmp_path, kind, changes)]) == 2
    assert expected in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_parse_fills_defaults_and_coerces():
    params = {"M": [[0.5]], "r": [1], "s": [1], "t_max": 2, "dt": 0.1, "siegel_radius": None}
    p = cli._parse(cli.SCHEMA["dioph-flow"], params, "dioph-flow")
    assert p["t_max"] == 2.0 and type(p["t_max"]) is float
    assert p["r"] == [1.0] and type(p["r"][0]) is float
    assert p["siegel_radius"] is None and p["eps_grid"] == (0.05, 0.1, 0.2, 0.3)
    np.testing.assert_array_equal(p["M"], [[0.5]])
    p = cli._parse(cli.SCHEMA["cone"], {"blocks": [2.0, 2], "logs": [1, -1, 0, 0]}, "cone")
    assert p["blocks"] == [2, 2] and all(type(b) is int for b in p["blocks"])
    assert p["tol"] == 1e-9


def test_height_s0_with_tiny_partial_sums_is_exit_2(tmp_path, capsys):
    params = {"basis": np.diag([1e-2, 1.0, 1e2]).tolist(), "epsilon": 0.5,
              "s0": [0.001, 0.0, -0.001]}
    doc = {"kind": "height", "parameters": params, "output": str(tmp_path / "o")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["height", "--config", str(path)]) == 2
    assert "epsilon^(delta_i / delta_lambda_i) = 0.0" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


TYPE_NAMES = {int: "integer", float: "number", str: "string", dict: "object",
              "_measure": "measure", "_matrix": "matrix", "_lattice": "lattice",
              "_height": "object", "_ifs": "ifs", "_symbol_weights": "symbol weights"}


def type_name(spec):
    if isinstance(spec, list):
        return "list of " + type_name(spec[0])
    if isinstance(spec, dict):
        return "object"
    return TYPE_NAMES.get(spec) or TYPE_NAMES[spec.__name__]


def readme_table(head):
    """{name: {key: (type, default cell)}} of the README table headed ``head``."""
    lines = README.read_text().splitlines()
    start = lines.index(f"| {head} | key | type | default |") + 2
    table, name = {}, None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        first, key, typ, default = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        name = first or name
        table.setdefault(name, {})[key] = (typ, default)
    return table


def schema_rows(schema):
    rows = {}
    for key, (spec, default) in schema.items():
        if default is cli.REQUIRED:
            cell = "required"
        elif default is None:
            cell = "none"
        else:
            cell = json.dumps(list(default) if isinstance(default, tuple) else default)
        rows[key] = (type_name(spec), cell)
    return rows


def normalized(rows):
    """Default cells compared as JSON values, so `1e-9` matches 1e-09."""
    return {key: (typ, cell if cell in ("required", "none") else json.loads(cell))
            for key, (typ, cell) in rows.items()}


def test_readme_tables_match_the_schema():
    kinds = readme_table("kind")
    assert list(kinds) == list(cli.KINDS)
    for kind, schema in cli.SCHEMA.items():
        assert normalized(kinds[kind]) == normalized(schema_rows(schema)), kind
        required = {k for k, (_, default) in schema.items() if default is cli.REQUIRED}
        assert {k for k, (_, cell) in kinds[kind].items() if cell == "required"} == required
    nested = {"config": cli.CONFIG, "height": cli.HEIGHT, "profile": cli.PROFILE,
              "sponge": cli.SPONGE}
    objects = readme_table("object")
    assert list(objects) == list(nested)
    for name, schema in nested.items():
        assert normalized(objects[name]) == normalized(schema_rows(schema)), name


def readme_outputs():
    """{kind: (summary keys, data.csv columns)} of the README output table,
    each the list of backquoted names in its cell."""
    lines = README.read_text().splitlines()
    start = lines.index("| kind | `summary.json` keys | `data.csv` columns |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        kind, keys, columns = (cell.strip() for cell in line.strip("|").split("|"))
        table[kind.strip("`")] = (re.findall(r"`([^`]+)`", keys), re.findall(r"`([^`]+)`", columns))
    return table


def table_name(name, names):
    """The name in the table that ``name`` is, ``<i>`` and ``<j>`` standing
    for an index."""
    for pattern in names:
        if re.fullmatch(re.escape(pattern).replace("<i>", r"\d+").replace("<j>", r"\d+"), name):
            return pattern
    raise AssertionError(f"{name!r} is not in the README output table {names}")


# the base configs, and a cone outside and a flow with Siegel counts for the
# keys and columns they alone write
OUTPUT_RUNS = [(kind, {}) for kind in BASE] + [
    ("cone", {"logs": [-1, -1, 1, 1]}),
    ("dioph-flow", {"siegel_radius": 3.0}),
]


def test_readme_output_table_matches_what_each_kind_writes(tmp_path):
    table = readme_outputs()
    assert list(table) == list(cli.KINDS)
    written = {kind: (set(), set()) for kind in table}
    for n, (kind, changes) in enumerate(OUTPUT_RUNS):
        out = tmp_path / f"run{n}"
        params = {**BASE[kind], **changes}
        assert cli.run({"kind": kind, "parameters": params, "output": str(out)}) == 0
        keys = list(json.loads(Path(f"{out}.summary.json").read_text()))
        header = Path(f"{out}.data.csv").read_text().splitlines()[0].split(",")
        key_names, column_names = table[kind]
        written[kind][0].update(table_name(key, key_names) for key in keys)
        columns = list(dict.fromkeys(table_name(col, column_names) for col in header))
        assert columns == sorted(columns, key=column_names.index), kind  # in table order
        written[kind][1].update(columns)
    for kind, (keys, columns) in table.items():
        assert written[kind] == (set(keys), set(columns)), kind
