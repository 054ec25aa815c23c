import json

import numpy as np
import pytest

from expwalk import catalog, cli
from expwalk.dioph import FlowTrace
from expwalk.kau import WeightPair
from expwalk.lattices import TrajectoryRecord
from expwalk.measures import save_measure


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
    assert (tmp_path / "recur.config.json").exists()
    summary = json.loads((tmp_path / "recur.summary.json").read_text())
    assert "error" in summary


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
    out = cli.emit_plotdata(trace, ["t", "minima"])
    assert out.splitlines() == ["t,minima", "0,1", "0.5,0.5"]


def test_emit_plotdata_trajectory_columns():
    rec = TrajectoryRecord(
        np.array([0, 1]),
        {"siegel:3.0": np.array([28.0, 30.0])},
        {"siegel:3.0": np.array([28.0, 30.0])},
    )
    out = cli.emit_plotdata(rec, ["step", "value", "running_avg"])
    assert out.startswith("step,value,running_avg\n")


def test_emit_plotdata_empty_and_missing():
    out = cli.emit_plotdata({"t": np.array([]), "minima": np.array([])}, ["t", "minima"])
    assert out == "t,minima\n"
    with pytest.raises(cli.ConfigError, match="missing"):
        cli.emit_plotdata({"t": np.array([1.0])}, ["missing"])


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


def test_cone_lp_failure_is_numerical_failure(tmp_path, monkeypatch):
    from scipy.optimize import OptimizeResult

    from expwalk import expansion

    monkeypatch.setattr(
        expansion,
        "linprog",
        lambda *a, **k: OptimizeResult(status=2, message="The problem is infeasible."),
    )
    doc = {
        "kind": "cone",
        "parameters": {"blocks": [2, 2], "logs": [1, 1, -1, -1]},
        "output": str(tmp_path / "lp"),
    }
    cfg = write_config(tmp_path, "lp", doc)
    assert cli.main(["cone", "--config", cfg]) == 3
    summary = json.loads((tmp_path / "lp.summary.json").read_text())
    assert summary["error"] == (
        "cone: ExpansionFailure: cone LP did not solve: The problem is infeasible."
    )
    assert not (tmp_path / "lp.data.csv").exists()
