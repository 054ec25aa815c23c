import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expwalk
from expwalk import catalog, cli, dioph
from expwalk.dioph import FlowTrace, SearchCapError, flow_trace
from expwalk.expansion import ExpansionFailure
from expwalk.fractal import CodingDepthError, coding_sample, ifs_to_dict
from expwalk.kau import FactorizationError, PrefixProductError, UnipotentLimitError, WeightPair
from expwalk.lattices import (
    ConditioningError,
    ContractionUnverified,
    CountCapError,
    LatticeError,
    TrajectoryRecord,
)
from expwalk.linalg import NumericalError
from expwalk.measures import ConvolutionCapError, save_measure


def write_config(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cone_example_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "cone",
        {
            "kind": "cone",
            "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1]},
            "seed": 0,
            "output": str(tmp_path / "cone"),
        },
    )
    assert cli.main(["cone", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "cone.summary.json").read_text())
    assert summary["inside"] is True
    assert (tmp_path / "cone.config.json").exists()
    assert (tmp_path / "cone.data.csv").exists()


def test_walk_identity_constant_csv(tmp_path):
    mpath = tmp_path / "id.json"
    from expwalk.measures import GroupMeasure

    save_measure(GroupMeasure.dirac(np.eye(2)), str(mpath))
    cfg = write_config(
        tmp_path,
        "walk",
        {
            "kind": "walk",
            "parameters": {
                "measure": str(mpath),
                "n_steps": 20,
                "observables": ["siegel:3.0"],
            },
            "output": str(tmp_path / "walk"),
        },
    )
    assert cli.main(["walk", "--config", cfg]) == 0
    rows = (tmp_path / "walk.data.csv").read_text().splitlines()
    assert rows[0] == "step,observable_name,value,running_avg"
    values = {row.split(",")[2] for row in rows[1:]}
    assert values == {"28"}


def test_seed_determinism_byte_identical(tmp_path):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "walk",
        "parameters": {
            "measure": str(mpath),
            "n_steps": 100,
            "observables": ["shortest:sup", "mahler:0.5"],
        },
        "seed": 7,
        "output": str(tmp_path / "a"),
    }
    cfg = write_config(tmp_path, "walk", doc)
    assert cli.main(["walk", "--config", cfg]) == 0
    assert cli.main(["walk", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.data.csv").read_bytes() == (tmp_path / "b.data.csv").read_bytes()


@pytest.mark.parametrize(
    "kind, params",
    [
        # before the check these exited 3 ("reduced basis degenerate in
        # enumeration", "empty search box") or escaped as an OverflowError
        ("dioph-flow", {"M": [[float("nan")]], "r": [1.0], "s": [1.0], "t_max": 2.0}),
        ("dioph-brute", {"M": [[float("nan")]], "r": [1.0], "s": [1.0], "T_max": 10.0}),
        ("dioph-flow", {"M": [[0.5]], "r": [1.0], "s": [1.0], "t_max": float("inf")}),
    ],
)
def test_non_finite_config_numbers_are_exit_2(tmp_path, capsys, kind, params):
    cfg = write_config(
        tmp_path, "nonfinite", {"kind": kind, "parameters": params, "output": str(tmp_path / "o")}
    )
    assert cli.main([kind, "--config", cfg]) == 2
    assert "non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


@pytest.mark.parametrize("observable", ["mahler:nan", "siegel:nan"])
def test_nan_observable_argument_is_exit_2(tmp_path, capsys, observable):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "n_steps": 5, "observables": [observable]}
    cfg = write_config(
        tmp_path, "nan", {"kind": "walk", "parameters": params, "output": str(tmp_path / "o")}
    )
    assert cli.main(["walk", "--config", cfg]) == 2
    assert f"observable '{observable}': argument is NaN" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


def test_unknown_parameter_is_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad",
        {
            "kind": "cone",
            "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1], "oops": 1},
            "output": str(tmp_path / "bad"),
        },
    )
    assert cli.main(["cone", "--config", cfg]) == 2
    assert not (tmp_path / "bad.summary.json").exists()


def test_numerical_failure_is_exit_3_with_partial_artifacts(tmp_path):
    mpath = tmp_path / "id.json"
    from expwalk.measures import GroupMeasure

    save_measure(GroupMeasure.dirac(np.eye(2)), str(mpath))
    cfg = write_config(
        tmp_path,
        "recur",
        {
            "kind": "recur",
            "parameters": {
                "measure": str(mpath),
                "height": {"epsilon": 0.1, "delta": 0.3},
                "delta": 0.1,
                "n_grid": [2, 4],
                "mc_trials": 5,
                "sample_points": 60,
            },
            "output": str(tmp_path / "recur"),
        },
    )
    assert cli.main(["recur", "--config", cfg]) == 3
    written = {p.name for p in tmp_path.iterdir()} - {"id.json", "recur.json"}
    assert written == {"recur.config.json", "recur.summary.json"}
    summary = json.loads((tmp_path / "recur.summary.json").read_text())
    assert "error" in summary


def test_exit_3_classes_are_numerical_errors_and_not_value_errors():
    exit_3 = [LatticeError, ConditioningError, CountCapError, ContractionUnverified,
              UnipotentLimitError, CodingDepthError, ConvolutionCapError, SearchCapError,
              ExpansionFailure, PrefixProductError]
    for cls in exit_3:
        assert issubclass(cls, NumericalError) and not issubclass(cls, ValueError), cls
    # an atom outside the parabolic is bad input
    assert issubclass(FactorizationError, ValueError)
    assert not issubclass(FactorizationError, NumericalError)


def test_height_subcommand(tmp_path):
    cfg = write_config(
        tmp_path,
        "height",
        {
            "kind": "height",
            "parameters": {"basis": [[1, 0], [0, 1]], "epsilon": 0.1, "delta": 1.0},
            "output": str(tmp_path / "h"),
        },
    )
    assert cli.main(["height", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert abs(summary["height"] - 0.01) < 1e-12


def test_expand_cert_subcommand(tmp_path):
    mpath = tmp_path / "diag.json"
    save_measure(catalog.diagonal_geodesic_sl2(), str(mpath))
    cfg = write_config(
        tmp_path,
        "cert",
        {
            "kind": "expand-cert",
            "parameters": {"measure": str(mpath), "N": 1, "rep": "std"},
            "output": str(tmp_path / "cert"),
        },
    )
    assert cli.main(["expand-cert", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "cert.summary.json").read_text())
    assert summary["passed"] is False
    assert abs(summary["C_lower"] + np.log(3)) < 1e-6
    # the Riemannian gradient norm at the witness e_2, where the minimum is
    assert 0.0 <= summary["stationarity"] <= 1e-6


def test_sponge_and_fractal_pipeline(tmp_path):
    sp_cfg = write_config(
        tmp_path,
        "sponge",
        {
            "kind": "sponge",
            "parameters": {"bases": [2, 3], "pattern": [[0, 0], [1, 1], [0, 2]]},
            "output": str(tmp_path / "sp"),
        },
    )
    assert cli.main(["sponge", "--config", sp_cfg]) == 0
    ifs_path = tmp_path / "sp.ifs.json"
    assert ifs_path.exists()

    fr_cfg = write_config(
        tmp_path,
        "fractal",
        {
            "kind": "dioph-fractal",
            "parameters": {
                "ifs": str(ifs_path),
                "n_points": 4,
                "t_max": 5.0,
                "dt": 0.1,
                "brute_T": 30,
            },
            "seed": 1,
            "output": str(tmp_path / "fr"),
        },
    )
    assert cli.main(["dioph-fractal", "--config", fr_cfg]) == 0
    summary = json.loads((tmp_path / "fr.summary.json").read_text())
    assert summary["n_points"] == 4
    rows = (tmp_path / "fr.data.csv").read_text().splitlines()
    assert len(rows) == 5


def test_kau_trace_subcommand(tmp_path):
    mpath = tmp_path / "cantor.json"
    save_measure(catalog.cantor_measure(), str(mpath))
    cfg = write_config(
        tmp_path,
        "kau",
        {
            "kind": "kau",
            "parameters": {"measure": str(mpath), "profile": {"m": 1, "n": 1}, "len": 15},
            "output": str(tmp_path / "kau"),
        },
    )
    assert cli.main(["kau", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "kau.summary.json").read_text())
    assert summary["equivariance_residual"] < 1e-8
    rows = (tmp_path / "kau.data.csv").read_text().splitlines()
    assert rows[0] == "step,t_prefix,u_00"
    assert len(rows) == 16


def test_emit_plotdata_flowtrace_two_columns():
    trace = FlowTrace(
        np.array([[0.0]]),
        WeightPair((1.0,), (1.0,)),
        np.array([0.0, 0.5]),
        np.array([1.0, 0.5]),
    )
    out = cli.emit_plotdata({"t": trace.t_grid, "minima": trace.minima})
    assert out.splitlines() == ["t,minima", "0,1", "0.5,0.5"]


def test_emit_plotdata_trajectory_columns():
    rec = TrajectoryRecord(
        np.array([0, 1]),
        {"siegel:3.0": np.array([28.0, 30.0])},
        {"siegel:3.0": np.array([28.0, 30.0])},
    )
    out = cli.emit_plotdata(rec.columns())
    assert out.splitlines() == [
        "step,observable_name,value,running_avg",
        "0,siegel:3.0,28,28",
        "1,siegel:3.0,30,30",
    ]


def test_emit_plotdata_empty_and_mismatched():
    out = cli.emit_plotdata({"t": np.array([]), "minima": np.array([])})
    assert out == "t,minima\n"
    with pytest.raises(cli.ConfigError, match="mismatched lengths"):
        cli.emit_plotdata({"t": np.array([1.0]), "minima": np.array([1.0, 2.0])})


def test_config_provenance_recorded(tmp_path):
    doc = {
        "kind": "cone",
        "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1]},
        "seed": 5,
        "output": str(tmp_path / "c"),
    }
    cfg = write_config(tmp_path, "c", doc)
    assert cli.main(["cone", "--config", cfg, "--seed", "9"]) == 0
    recorded = json.loads((tmp_path / "c.config.json").read_text())
    assert recorded["seed"] == 9
    assert recorded["parameters"] == doc["parameters"]


def test_walk_with_height_observable_config(tmp_path):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    cfg = write_config(
        tmp_path,
        "hw",
        {
            "kind": "walk",
            "parameters": {
                "measure": str(mpath),
                "n_steps": 30,
                "observables": ["height", "mahler:0.2"],
                "height": {"epsilon": 0.1, "delta": 0.3},
            },
            "seed": 2,
            "output": str(tmp_path / "hw"),
        },
    )
    assert cli.main(["walk", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "hw.summary.json").read_text())
    assert "height" in summary["final_running_avg"]


def test_recur_success_config(tmp_path):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    cfg = write_config(
        tmp_path,
        "rc",
        {
            "kind": "recur",
            "parameters": {
                "measure": str(mpath),
                "height": {"epsilon": 0.1, "delta": 0.3},
                "delta": 0.1,
                "n_grid": [2, 6],
                "mc_trials": 40,
                "m": 4,
                "sample_points": 90,
            },
            "seed": 3,
            "output": str(tmp_path / "rc"),
        },
    )
    assert cli.main(["recur", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "rc.summary.json").read_text())
    assert summary["a_hat"] < 1.0 and summary["violations"] == 0
    rows = (tmp_path / "rc.data.csv").read_text().splitlines()
    assert rows[0] == "n,mass" and len(rows) == 3


def test_rerun_is_byte_identical(tmp_path):
    doc = {
        "kind": "cone",
        "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1]},
        "output": str(tmp_path / "w"),
    }
    cfg = write_config(tmp_path, "w", doc)
    assert cli.main(["cone", "--config", cfg]) == 0
    first = (tmp_path / "w.data.csv").read_bytes()
    assert cli.main(["cone", "--config", cfg, "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w2.data.csv").read_bytes() == first


@pytest.mark.parametrize("samples", [0, -3])
def test_expand_cert_without_sphere_samples_is_exit_2(tmp_path, capsys, samples):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": str(mpath), "N": 1, "sphere_samples": samples},
        "output": str(tmp_path / "o"),
    }
    cfg = write_config(tmp_path, "samples", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 2
    assert "sphere_samples must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


def test_expand_cert_exact_cap_is_numerical_failure(tmp_path):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": str(mpath), "N": 30, "mode": "exact"},
        "output": str(tmp_path / "cap"),
    }
    cfg = write_config(tmp_path, "cap", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 3
    summary = json.loads((tmp_path / "cap.summary.json").read_text())
    assert summary["error"].startswith("expand-cert: ConvolutionCapError: 2^30 products")
    assert not (tmp_path / "cap.data.csv").exists()


@pytest.mark.parametrize("mode", ["exact", "auto"])
def test_expand_cert_cap_below_one_is_exit_2(tmp_path, capsys, mode):
    # exact mode used to fail on the cap (exit 3), auto to sample instead
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": str(mpath), "N": 2, "mode": mode, "cap": -1},
        "output": str(tmp_path / "o"),
    }
    cfg = write_config(tmp_path, "cap", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 2
    assert "cap must be at least 1, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


@pytest.mark.parametrize("words", [1, 0])
def test_expand_cert_with_too_few_mc_words_is_exit_2(tmp_path, capsys, words):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": str(mpath), "N": 1, "mode": "mc", "mc_words": words},
        "output": str(tmp_path / "o"),
    }
    cfg = write_config(tmp_path, "words", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 2
    assert "mc_words must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


def test_exact_expand_cert_ignores_mc_words(tmp_path):
    # exact mode draws no Monte-Carlo words, so mc_words is not read
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": str(mpath), "N": 1, "mode": "exact", "mc_words": 1,
                       "sphere_samples": 50},
        "output": str(tmp_path / "o"),
    }
    cfg = write_config(tmp_path, "exact", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 0
    assert json.loads((tmp_path / "o.summary.json").read_text())["mode"] == "exact"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_expand_cert_non_finite_bound_is_numerical_failure(tmp_path, mode):
    # two-letter words of diag(1e200, 1e-200) overflow, so the bound is not finite
    atoms = [np.diag([1e200, 1e-200]), np.diag([1e-200, 1e200])]
    measure = {
        "dim": 2,
        "atoms": [{"matrix": g.ravel().tolist(), "weight": 0.5} for g in atoms],
    }
    doc = {
        "kind": "expand-cert",
        "parameters": {"measure": measure, "N": 2, "mode": mode, "mc_words": 10,
                       "sphere_samples": 20},
        "output": str(tmp_path / "nf"),
    }
    cfg = write_config(tmp_path, "nf", doc)
    assert cli.main(["expand-cert", "--config", cfg]) == 3
    summary = json.loads((tmp_path / "nf.summary.json").read_text())
    assert summary["error"] == "expand-cert: ExpansionFailure: certificate bound must be finite"
    assert not (tmp_path / "nf.data.csv").exists()


def _cantor_kau(length, **params):
    mu = catalog.cantor_measure()
    atoms = [{"matrix": g.ravel().tolist(), "weight": float(w)}
             for g, w in zip(mu.matrices, mu.weights)]
    return {"kind": "kau", "seed": 0,
            "parameters": {"measure": {"dim": 2, "atoms": atoms}, "profile": {"m": 1, "n": 1},
                           "len": length, **params}}


def test_cone_negative_tol_is_exit_2(tmp_path, capsys):
    # margin -0.5: outside the cone, which a negative tol would call inside
    doc = {"kind": "cone", "output": str(tmp_path / "c"),
           "parameters": {"blocks": [2, 2], "logs": [-1, -1, 1, 1], "tol": -1.0}}
    assert cli.run(doc) == 2
    assert "tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_kau_negative_tol_is_exit_2(tmp_path, capsys):
    assert cli.run({**_cantor_kau(40, tol=-1.0), "output": str(tmp_path / "k")}) == 2
    assert "tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_kau_prefix_underflow_is_exit_3(tmp_path):
    # every Cantor letter factorizes; the diagonal of the prefix of 59 letters
    # falls below the singular-block threshold
    assert cli.run({**_cantor_kau(60), "output": str(tmp_path / "k60")}) == 3
    summary = json.loads((tmp_path / "k60.summary.json").read_text())
    assert summary["error"].startswith(
        "kau: PrefixProductError: prefix product of step 59 does not factorize"
    )
    assert summary["error"].endswith("diagonal block (1,) is singular")
    assert not (tmp_path / "k60.data.csv").exists()
    # a shorter word runs as before, bytes recorded before the change
    assert cli.run({**_cantor_kau(40), "output": str(tmp_path / "k40")}) == 0
    digests = {
        "data.csv": "0453f0f05cdf7981452113f6444e7fbf9b2a03dacd16ccf2a7f23bb24d549037",
        "summary.json": "c78badf0b4a04174e880b4288ca4409a0caea61dd30f733988ac62eb33dad831",
    }
    for suffix, digest in digests.items():
        assert hashlib.sha256((tmp_path / f"k40.{suffix}").read_bytes()).hexdigest() == digest


def test_kau_singular_letter_is_exit_2(tmp_path, capsys):
    letter = {"matrix": [1e-15, 0.0, 0.0, 1e15], "weight": 1.0}
    doc = {"kind": "kau", "output": str(tmp_path / "k"),
           "parameters": {"measure": {"dim": 2, "atoms": [letter]},
                          "profile": {"m": 1, "n": 1}, "len": 5}}
    assert cli.run(doc) == 2
    assert "diagonal block (0,) is singular" in capsys.readouterr().err


SCIPY_OPS = {
    "cone": {"kind": "cone", "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1]}},
    "mc": {"kind": "expand-cert", "seed": 3,
           "parameters": {"measure": {"dim": 2, "atoms": [
               {"matrix": [2.0, 1.0, 1.0, 1.0], "weight": 0.5},
               {"matrix": [1.0, 1.0, 1.0, 2.0], "weight": 0.5}]},
               "N": 3, "mode": "mc", "mc_words": 50, "sphere_samples": 40}},
}
FRESH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import expwalk, expwalk.cli
scipy_parts = lambda: sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules)
at_import = scipy_parts()
codes = [expwalk.cli.run(doc) for doc in json.loads(sys.argv[2])]
print(json.dumps({"at_import": at_import, "codes": codes, "after_ops": scipy_parts()}))
"""


def test_fresh_import_loads_no_scipy_and_ops_match_in_process(tmp_path):
    docs = [{**doc, "output": str(tmp_path / f"fresh-{name}")} for name, doc in SCIPY_OPS.items()]
    src = str(Path(expwalk.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FRESH, src, json.dumps(docs)],
                         check=True, capture_output=True, text=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"at_import": [], "codes": [0, 0], "after_ops": []}
    for name, doc in SCIPY_OPS.items():
        assert cli.run({**doc, "output": str(tmp_path / f"here-{name}")}) == 0
        for suffix in ("data.csv", "summary.json"):
            fresh = (tmp_path / f"fresh-{name}.{suffix}").read_bytes()
            assert fresh == (tmp_path / f"here-{name}.{suffix}").read_bytes(), (name, suffix)


FRESH_FORK = """
import json, sys
sys.path.insert(0, sys.argv[1])
import expwalk.cli
print(json.dumps(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules)))
"""


def test_fresh_import_loads_no_process_pool():
    # the census imports its worker pool when it runs, not with the cli
    src = str(Path(expwalk.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FRESH_FORK, src],
                         check=True, capture_output=True, text=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_expansion_serves_minimize_on_access():
    from scipy.optimize import minimize

    from expwalk import expansion

    assert expansion.minimize is minimize
    assert not hasattr(expansion, "linprog")


GOLDEN_50 = "0.61803398874989484820458683436563811772030917980576"


def test_dioph_flow_decimal_string_keeps_its_precision(tmp_path):
    # the double nearest to GOLDEN_50 is a rational whose orbit reads 0.2985 by t=30
    params = {"M": [[GOLDEN_50]], "r": [1.0], "s": [1.0], "t_max": 30.0}
    assert cli.run({"kind": "dioph-flow", "parameters": params,
                    "output": str(tmp_path / "g")}) == 0
    summary = json.loads((tmp_path / "g.summary.json").read_text())
    expected = flow_trace(GOLDEN_50, WeightPair((1.0,), (1.0,)), 30.0).inf_minima
    assert summary["inf_minima"] == expected
    assert expected > 0.6


def test_dioph_flow_summary_records_siegel_counts(tmp_path):
    params = {"M": [["0.37"]], "r": [1.0], "s": [1.0], "t_max": 3.0, "siegel_radius": 3.0}
    assert cli.run({"kind": "dioph-flow", "parameters": params,
                    "output": str(tmp_path / "s")}) == 0
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    trace = flow_trace("0.37", WeightPair((1.0,), (1.0,)), 3.0, siegel_radius=3.0)
    assert summary["siegel"] == trace.extras["siegel"].tolist()
    assert summary["siegel_t"] == [0.0, 1.0, 2.0, 3.0]  # every 20th point at dt 0.05
    del params["siegel_radius"]
    assert cli.run({"kind": "dioph-flow", "parameters": params,
                    "output": str(tmp_path / "n")}) == 0
    assert "siegel" not in json.loads((tmp_path / "n.summary.json").read_text())


@pytest.mark.parametrize("entry", [float("nan"), "-inf", "1e400", "0.5x"])
def test_dioph_flow_bad_matrix_entry_is_exit_2(tmp_path, capsys, entry):
    params = {"M": [[entry]], "r": [1.0], "s": [1.0], "t_max": 2.0}
    assert cli.run({"kind": "dioph-flow", "parameters": params,
                    "output": str(tmp_path / "o")}) == 2
    assert "config error: dioph-flow.M: " in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


@pytest.mark.parametrize("kind", ["dioph-flow", "dioph-fractal"])
@pytest.mark.parametrize(
    "grid, reason",
    [
        # before the check: a bare OverflowError, then numpy's "negative
        # dimensions are not allowed" and "Maximum allowed size exceeded"
        ({"t_max": 1e308}, "t_max / dt = inf grid points exceed the cap"),
        ({"t_max": -1.0}, "t_max must be finite and non-negative, got -1.0"),
        ({"t_max": 2.0, "dt": 1e-300}, "t_max / dt = 2e+300 grid points exceed the cap"),
    ],
    ids=["huge-t_max", "negative-t_max", "tiny-dt"],
)
def test_flow_grid_that_cannot_be_allocated_is_exit_2(tmp_path, capsys, kind, grid, reason):
    if kind == "dioph-flow":
        params = {"M": [[0.5]], "r": [1.0], "s": [1.0], **grid}
    else:
        params = {"ifs": ifs_to_dict(catalog.bm_carpet(2, 3)), "n_points": 2, **grid}
    cfg = write_config(tmp_path, "grid", {"kind": kind, "parameters": params,
                                          "output": str(tmp_path / "o")})
    assert cli.main([kind, "--config", cfg]) == 2
    assert f"config error: {kind}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


def test_dioph_flow_past_the_reduction_reach_is_exit_3(tmp_path):
    params = {"M": [[0.0]], "r": [1.0], "s": [1.0], "t_max": 380.0, "dt": 1.0}
    cfg = write_config(tmp_path, "deep", {"kind": "dioph-flow", "parameters": params,
                                          "output": str(tmp_path / "deep")})
    assert cli.main(["dioph-flow", "--config", cfg]) == 3
    summary = json.loads((tmp_path / "deep.summary.json").read_text())
    assert summary["error"].startswith(
        "dioph-flow: ConditioningError: flow orbit cannot be reduced at t=364:"
    )
    assert not (tmp_path / "deep.data.csv").exists()


def test_dioph_brute_p_past_int64_is_exit_3(tmp_path):
    params = {"M": [[1e19]], "r": [1.0], "s": [1.0], "T_max": 10}
    assert cli.run({"kind": "dioph-brute", "parameters": params,
                    "output": str(tmp_path / "b")}) == 3
    summary = json.loads((tmp_path / "b.summary.json").read_text())
    assert summary["error"] == (
        "dioph-brute: ConditioningError: minimizer has |p| = 1e+20, past the int64 range"
    )


def test_dioph_brute_huge_horizon_is_exit_3_naming_the_cap(tmp_path):
    params = {"M": [[0.3]], "r": [1.0], "s": [1.0], "T_max": 1e20}
    assert cli.run({"kind": "dioph-brute", "parameters": params,
                    "output": str(tmp_path / "b")}) == 3
    summary = json.loads((tmp_path / "b.summary.json").read_text())
    assert summary["error"] == (
        "dioph-brute: SearchCapError: search box of 2e+20 points exceeds the cap 100000000"
    )


@pytest.mark.parametrize("n_points", [0, -3])
def test_dioph_fractal_without_points_is_exit_2(tmp_path, capsys, n_points):
    # before the check: a bare IndexError from np.quantile on no points, and
    # numpy's "negative dimensions are not allowed"
    params = {"ifs": ifs_to_dict(catalog.bm_carpet(2, 3)), "n_points": n_points, "t_max": 2.0}
    assert cli.run({"kind": "dioph-fractal", "parameters": params,
                    "output": str(tmp_path / "o")}) == 2
    err = capsys.readouterr().err
    assert f"config error: dioph-fractal: n_points must be at least 1, got {n_points}" in err
    assert not (tmp_path / "o.summary.json").exists()


def _census_doc(tmp_path, name, n_points):
    params = {"ifs": ifs_to_dict(catalog.bm_carpet(2, 3)), "n_points": n_points,
              "t_max": 4.0, "brute_T": 20.0}
    return {"kind": "dioph-fractal", "seed": 4, "parameters": params,
            "output": str(tmp_path / name)}


@pytest.mark.parametrize("n_points", [1, 2, 17])
def test_dioph_fractal_bytes_are_the_same_for_one_two_and_three_shares(tmp_path, monkeypatch,
                                                                       n_points):
    for shares in (1, 2, 3):
        monkeypatch.setattr(dioph, "_share_count", lambda n, w=shares: min(n, w))
        assert cli.run(_census_doc(tmp_path, f"w{shares}", n_points)) == 0
        assert multiprocessing.active_children() == []
    for suffix in ("data.csv", "summary.json"):
        one = (tmp_path / f"w1.{suffix}").read_bytes()
        assert (tmp_path / f"w2.{suffix}").read_bytes() == one, suffix
        assert (tmp_path / f"w3.{suffix}").read_bytes() == one, suffix


@pytest.mark.parametrize("failing", [[2, 5], [5, 3]], ids=["parent-share", "worker-share"])
def test_dioph_fractal_failure_is_exit_3_with_the_sequential_summary(tmp_path, monkeypatch,
                                                                     failing):
    # with two shares point 2 is the parent's and point 3 a forked worker's
    points = coding_sample(catalog.bm_carpet(2, 3), 6, seed=4)
    real = dioph.flow_trace

    def flow(mat, *args, **kwargs):
        for i in failing:
            if np.array_equal(mat, points[i]):
                raise ConditioningError(f"flow orbit cannot be reduced at point {i}")
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(dioph, "flow_trace", flow)
    for shares in (1, 2):
        monkeypatch.setattr(dioph, "_share_count", lambda n, w=shares: min(n, w))
        assert cli.run(_census_doc(tmp_path, f"w{shares}", 6)) == 3
        assert multiprocessing.active_children() == []
        assert not (tmp_path / f"w{shares}.data.csv").exists()
    summary = (tmp_path / "w1.summary.json").read_bytes()
    assert (tmp_path / "w2.summary.json").read_bytes() == summary
    assert json.loads(summary)["error"] == (
        f"dioph-fractal: ConditioningError: flow orbit cannot be reduced at point {min(failing)}"
    )


def test_dioph_fractal_dead_worker_is_exit_4_without_traceback(tmp_path, monkeypatch, capsys):
    # the forked worker of share 1 dies at its first point
    parent = os.getpid()
    real = dioph.flow_trace

    def flow(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dioph, "flow_trace", flow)
    monkeypatch.setattr(dioph, "_share_count", lambda n: min(n, 2))
    assert cli.run(_census_doc(tmp_path, "dead", 5)) == 4
    assert multiprocessing.active_children() == []
    lost = "census share 1 of 2 (points 1, 3, ..) was lost: its worker process died"
    err = capsys.readouterr().err
    assert err == f"worker failure: dioph-fractal: WorkerLostError: {lost}\n"
    assert json.loads((tmp_path / "dead.summary.json").read_text()) == {
        "error": f"dioph-fractal: WorkerLostError: {lost}"
    }
    assert json.loads((tmp_path / "dead.config.json").read_text())["kind"] == "dioph-fractal"
    assert not (tmp_path / "dead.data.csv").exists()


@pytest.mark.parametrize("radius", [float("inf"), float("nan")])
def test_dioph_flow_siegel_radius_not_finite_is_exit_2(tmp_path, capsys, radius):
    # an infinite radius exited 0 with every count saturated at SIEGEL_CAP
    params = {"M": [[0.3]], "r": [1.0], "s": [1.0], "t_max": 2.0, "siegel_radius": radius}
    assert cli.run({"kind": "dioph-flow", "parameters": params,
                    "output": str(tmp_path / "o")}) == 2
    assert capsys.readouterr().err == (
        f"config error: dioph-flow: siegel_radius must be positive and finite, got {radius!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "counts, reason",
    [
        # before the checks: a bare ZeroDivisionError, masses -0 with exit 0,
        # a bare IndexError twice, and NaN standard errors with exit 0
        ({"mc_trials": 0}, "mc_trials must be at least 1, got 0"),
        ({"mc_trials": -1}, "mc_trials must be at least 1, got -1"),
        ({"sample_points": 0}, "sample_points must be at least 1, got 0"),
        ({"sample_points": -1}, "sample_points must be at least 1, got -1"),
        ({"mc_trials": 1, "m": 13},
         "mc_trials must be at least 2 for the Monte-Carlo averaged height (m=13), got 1"),
    ],
    ids=["no-trials", "negative-trials", "no-points", "negative-points", "one-mc-trial"],
)
def test_recur_with_unusable_counts_is_exit_2(tmp_path, capsys, counts, reason):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {
        "measure": str(mpath),
        "height": {"epsilon": 0.1, "delta": 0.3},
        "delta": 0.1,
        "n_grid": [2, 6],
        "sample_points": 30,
        **counts,
    }
    assert cli.run({"kind": "recur", "parameters": params, "seed": 3,
                    "output": str(tmp_path / "o")}) == 2
    assert f"config error: recur: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o.summary.json").exists()


def test_recur_repeated_grid_entry_is_exit_2(tmp_path, capsys, monkeypatch):
    # before the check the run exited 0 and wrote the row "2,1" twice
    from expwalk import lattices

    monkeypatch.setattr(lattices, "contraction_fit", lambda *a, **k: pytest.fail("fit ran"))
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "height": {"epsilon": 0.1, "delta": 0.3}, "delta": 0.1,
              "n_grid": [2, 2, 4], "sample_points": 30}
    assert cli.run({"kind": "recur", "parameters": params, "seed": 3,
                    "output": str(tmp_path / "o")}) == 2
    err = capsys.readouterr().err
    assert "config error: recur: the n-grid repeats [2]; each n must appear once" in err
    assert not (tmp_path / "o.summary.json").exists()


@pytest.mark.parametrize("kind", ["walk", "recur"])
def test_start_of_the_wrong_dimension_is_exit_2(tmp_path, capsys, monkeypatch, kind):
    # before the check numpy's matmul refused the 3x3 start of a 2x2 walk
    from expwalk import lattices

    monkeypatch.setattr(lattices, "contraction_fit", lambda *a, **k: pytest.fail("fit ran"))
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "x0": np.eye(3).tolist()}
    if kind == "walk":
        params.update(n_steps=5, observables=["siegel:2"])
    else:
        params.update(height={"epsilon": 0.1, "delta": 0.3}, delta=0.1, n_grid=[2, 4])
    assert cli.run({"kind": kind, "parameters": params, "output": str(tmp_path / "o")}) == 2
    err = capsys.readouterr().err
    assert f"config error: {kind}: the start x0 is 3x3, but the measure acts in dimension 2" in err
    assert list(tmp_path.iterdir()) == [mpath]


@pytest.mark.parametrize("observable, reason", [
    ("siegel:inf", "observable 'siegel:inf': radius must be finite"),  # was exit 3 on the cap
    ("siegel:-inf", "radius must be positive"),
    ("siegel:-1", "radius must be positive"),
])
def test_siegel_radius_not_positive_and_finite_is_exit_2(tmp_path, capsys, observable, reason):
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "n_steps": 5, "observables": [observable]}
    assert cli.run({"kind": "walk", "parameters": params, "output": str(tmp_path / "o")}) == 2
    assert f"config error: walk: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [mpath]


@pytest.mark.parametrize("observable, reason", [
    ("mahler:0", "epsilon must be positive"),
    ("siegel:-1", "radius must be positive"),
    ("shortest:taxicab", "unknown norm 'taxicab'"),
])
def test_bad_observable_is_exit_2_before_the_walk(tmp_path, capsys, monkeypatch, observable,
                                                  reason):
    from expwalk import lattices

    monkeypatch.setattr(lattices, "sample_indices", lambda *a, **k: pytest.fail("walk sampled"))
    monkeypatch.setattr(lattices, "lll_reduce", lambda *a, **k: pytest.fail("walk reduced"))
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "n_steps": 10**6, "observables": [observable]}
    assert cli.run({"kind": "walk", "parameters": params, "output": str(tmp_path / "o")}) == 2
    assert capsys.readouterr().err == f"config error: walk: {reason}\n"
    assert list(tmp_path.iterdir()) == [mpath]


def test_repeated_walk_observable_is_exit_2_before_the_walk(tmp_path, capsys, monkeypatch):
    # it exited 0 with one series for the pair, read twice per step
    from expwalk import lattices

    monkeypatch.setattr(lattices, "sample_indices", lambda *a, **k: pytest.fail("walk sampled"))
    monkeypatch.setattr(lattices, "lll_reduce", lambda *a, **k: pytest.fail("walk reduced"))
    mpath = tmp_path / "pair.json"
    save_measure(catalog.positive_pair_sl2(), str(mpath))
    params = {"measure": str(mpath), "n_steps": 10**6,
              "observables": ["siegel:3.0", "shortest:sup", "siegel:3.0"]}
    assert cli.run({"kind": "walk", "parameters": params, "output": str(tmp_path / "o")}) == 2
    assert capsys.readouterr().err == (
        "config error: walk: the observables repeat ['siegel:3.0']; each must appear once\n"
    )
    assert list(tmp_path.iterdir()) == [mpath]


@pytest.mark.parametrize("length", [0, -3])
def test_kau_length_below_one_is_exit_2(tmp_path, capsys, monkeypatch, length):
    # before the check len 0 exited 0 with an empty table, whatever the atoms
    monkeypatch.setattr(cli, "sample_word", lambda *a, **k: pytest.fail("a word was drawn"))
    letter = {"matrix": [0.0, 1.0, -1.0, 0.0], "weight": 1.0}  # not in P
    doc = {"kind": "kau", "output": str(tmp_path / "k"),
           "parameters": {"measure": {"dim": 2, "atoms": [letter]},
                          "profile": {"m": 1, "n": 1}, "len": length}}
    assert cli.run(doc) == 2
    assert f"config error: kau.len: must be at least 1, got {length}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
