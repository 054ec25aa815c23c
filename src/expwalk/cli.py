"""Config-driven experiment runner.

Usage: ``expwalk <subcommand> --config FILE [--seed N] [--out PREFIX]``.

The config is a single JSON document {"kind", "parameters", "seed",
"output"}; unknown keys and the non-finite constants NaN, Infinity and
-Infinity are rejected, and the fully resolved config is
recorded next to the results, so every artifact carries its provenance.
Each run writes ``<prefix>.config.json``, ``<prefix>.data.csv`` (17
significant digits, LF line endings) and ``<prefix>.summary.json``.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(conditioning, non-convergence, enumeration caps) with partial artifacts
preserved.  Execution is sequential, hence deterministic for a fixed
config.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .dioph import (
    SearchCapError,
    brute_force_quality,
    flow_trace,
    fractal_experiment,
)
from .expansion import ConeSpec, expanding_cone_membership, expansion_certificate
from .fractal import (
    CodingDepthError,
    ifs_from_dict,
    load_ifs,
    save_ifs,
    sponge_builder,
    sponge_check,
)
from .kau import (
    ParabolicProfile,
    UnipotentLimitError,
    WeightPair,
    equivariance_residual,
    u_limit,
    word_factors,
)
from .lattices import (
    ConditioningError,
    ContractionUnverified,
    CountCapError,
    HeightSpec,
    LatticeError,
    lll_reduce,
    margulis_height,
    margulis_height_profile,
    recurrence_experiment,
    standard_lattice,
    walk_simulate,
)
from .measures import ConvolutionCapError, load_measure, measure_from_dict, sample_word

KINDS = (
    "expand-cert",
    "cone",
    "walk",
    "height",
    "recur",
    "kau",
    "sponge",
    "dioph-brute",
    "dioph-flow",
    "dioph-fractal",
)

NUMERICAL_ERRORS = (
    ConditioningError,
    CountCapError,
    LatticeError,
    ContractionUnverified,
    UnipotentLimitError,
    CodingDepthError,
    ConvolutionCapError,
    SearchCapError,
    np.linalg.LinAlgError,
)


class ConfigError(ValueError):
    """Config failed validation; maps to exit code 2."""


def _require_keys(params: dict, allowed: set, required: set, kind: str):
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"{kind}: unknown parameter keys {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise ConfigError(f"{kind}: missing required keys {sorted(missing)}")


def _matrix(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: not a numeric array: {err}") from err
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _measure(value, name="measure"):
    if isinstance(value, str):
        return load_measure(value)
    if isinstance(value, dict):
        return measure_from_dict(value)
    raise ConfigError(f"{name}: expected a file path or an inline measure document")


def _ifs(value):
    if isinstance(value, str):
        return load_ifs(value)
    if isinstance(value, dict):
        if "sponge" in value:
            sp = dict(value["sponge"])
            weights = sp.pop("weights", "uniform")
            bases = sp.pop("bases")
            pattern = sp.pop("pattern")
            if sp:
                raise ConfigError(f"sponge: unknown keys {sorted(sp)}")
            if weights == "uniform":
                return sponge_builder(bases, pattern)
            return sponge_builder(bases, pattern, weights_mode="custom", symbol_weights=weights)
        return ifs_from_dict(value)
    raise ConfigError("ifs: expected a file path, inline document, or sponge spec")


def _height_spec(value) -> HeightSpec:
    if not isinstance(value, dict):
        raise ConfigError("height: expected an object with epsilon/delta/s0")
    allowed = {"epsilon", "delta", "s0"}
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"height: unknown keys {sorted(unknown)}")
    return HeightSpec(
        epsilon=float(value["epsilon"]),
        delta=float(value.get("delta", 0.3)),
        s0=tuple(value["s0"]) if value.get("s0") is not None else None,
    )


def _weightpair(params) -> WeightPair:
    return WeightPair(tuple(float(v) for v in params["r"]), tuple(float(v) for v in params["s"]))


def _lattice(value):
    if value is None or value == "standard":
        return None  # caller decides dimension
    return lll_reduce(_matrix(value, "x0"))


def emit_plotdata(record, columns) -> str:
    """Bit-stable CSV for a record exposing ``.columns()`` or a plain dict.

    Floats are rendered with 17 significant digits, rows end with LF, the
    header row lists the requested columns.  Unknown columns are a named
    error.
    """
    table = record.columns() if hasattr(record, "columns") else dict(record)
    missing = [c for c in columns if c not in table]
    if missing:
        raise ConfigError(f"unknown columns requested: {missing}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    arrays = [np.asarray(table[c]) for c in columns]
    length = max((len(a) for a in arrays), default=0)
    for a in arrays:
        if len(a) != length:
            raise ConfigError("requested columns have mismatched lengths")
    for i in range(length):
        row = []
        for a in arrays:
            v = a[i]
            if isinstance(v, (np.floating, float)):
                row.append(f"{float(v):.17g}")
            elif isinstance(v, (np.integer, int)):
                row.append(str(int(v)))
            else:
                row.append(str(v))
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# kind handlers: each returns (summary, columns_dict, column_order, extra_files)


def _run_cone(params, seed):
    _require_keys(params, {"blocks", "logs", "tol"}, {"blocks", "logs"}, "cone")
    blocks = tuple(int(b) for b in params["blocks"])
    logs = [float(v) for v in params["logs"]]
    spec = ConeSpec(dim=sum(blocks), blocks=blocks)
    res = expanding_cone_membership(spec, logs, tol=float(params.get("tol", 1e-9)))
    summary = {"inside": res.inside, "margin": res.margin}
    if res.inside:
        rows_i = [i for (i, _j) in res.coefficients]
        rows_j = [j for (_i, j) in res.coefficients]
        ts = [res.coefficients[p] for p in res.coefficients]
        cols = {"i": np.array(rows_i), "j": np.array(rows_j), "t": np.array(ts)}
        order = ["i", "j", "t"]
        summary["witness"] = {f"{i},{j}": t for (i, j), t in res.coefficients.items()}
    else:
        cols = {
            "coordinate": np.arange(spec.dim),
            "separator": np.asarray(res.separator),
        }
        order = ["coordinate", "separator"]
        summary["separator"] = [float(v) for v in res.separator]
    return summary, cols, order, {}


def _run_expand_cert(params, seed):
    allowed = {"measure", "rep", "N", "sphere_samples", "mc_words", "confidence", "cap", "mode"}
    _require_keys(params, allowed, {"measure", "N"}, "expand-cert")
    mu = _measure(params["measure"])
    cert = expansion_certificate(
        mu,
        rep=params.get("rep", "std"),
        N=int(params["N"]),
        sphere_samples=int(params.get("sphere_samples", 1000)),
        mc_words=int(params.get("mc_words", 4000)),
        confidence=float(params.get("confidence", 0.95)),
        cap=int(params.get("cap", 10**6)),
        mode=params.get("mode", "auto"),
        seed=seed,
    )
    summary = {
        "N": cert.N,
        "C_lower": cert.C_lower,
        "mode": cert.mode,
        "sphere_samples": cert.sphere_samples,
        "confidence": cert.confidence,
        "passed": cert.passed,
        "verdict": cert.verdict,
        "rep": cert.rep,
    }
    cols = {"index": np.arange(len(cert.witness)), "witness": cert.witness}
    return summary, cols, ["index", "witness"], {}


def _run_walk(params, seed):
    allowed = {"measure", "x0", "n_steps", "observables", "height"}
    _require_keys(params, allowed, {"measure", "n_steps", "observables"}, "walk")
    mu = _measure(params["measure"])
    height = _height_spec(params["height"]) if "height" in params else None
    x0 = _lattice(params.get("x0")) or standard_lattice(mu.dim)
    from .lattices import parse_observable

    obs = [parse_observable(s, height) for s in params["observables"]]
    record = walk_simulate(mu, x0, int(params["n_steps"]), obs, seed=seed)
    finals = {label: record.running[label][-1] for label, _ in obs}
    summary = {"n_steps": int(params["n_steps"]), "final_running_avg": finals}
    return (
        summary,
        record.columns(),
        ["step", "observable_name", "value", "running_avg"],
        {},
    )


def _run_height(params, seed):
    allowed = {"basis", "epsilon", "delta", "s0"}
    _require_keys(params, allowed, {"basis", "epsilon"}, "height")
    spec = HeightSpec(
        epsilon=float(params["epsilon"]),
        delta=float(params.get("delta", 0.3)),
        s0=tuple(params["s0"]) if params.get("s0") is not None else None,
    )
    x = lll_reduce(_matrix(params["basis"], "basis"))
    value = margulis_height(x, spec)
    labels, grades, phis = margulis_height_profile(x, spec)
    summary = {"height": value, "epsilon": spec.epsilon, "delta": spec.delta}
    cols = {"subset": labels, "grade": grades, "phi": phis}
    return summary, cols, ["subset", "grade", "phi"], {}


def _run_recur(params, seed):
    allowed = {
        "measure",
        "height",
        "delta",
        "x0",
        "n_grid",
        "mc_trials",
        "m",
        "sample_points",
    }
    _require_keys(params, allowed, {"measure", "height", "delta", "n_grid"}, "recur")
    mu = _measure(params["measure"])
    height = _height_spec(params["height"])
    x0 = _lattice(params.get("x0")) or standard_lattice(mu.dim)
    table = recurrence_experiment(
        mu,
        height,
        float(params["delta"]),
        x0,
        [int(n) for n in params["n_grid"]],
        mc_trials=int(params.get("mc_trials", 200)),
        seed=seed,
        m=int(params.get("m", 4)),
        sample_points=int(params.get("sample_points", 200)),
    )
    ns = np.array([n for n, _ in table.entries])
    mass = np.array([v for _, v in table.entries])
    summary = {
        "level": table.level,
        "a_hat": table.fit.a_hat,
        "b_hat": table.fit.b_hat,
        "violations": table.fit.violation_count,
        "burn_in_0.9": table.burn_in(0.9),
    }
    return summary, {"n": ns, "mass": mass}, ["n", "mass"], {}


def _run_kau(params, seed):
    allowed = {"measure", "profile", "len", "tol"}
    _require_keys(params, allowed, {"measure", "profile", "len"}, "kau")
    mu = _measure(params["measure"])
    prof = params["profile"]
    unknown = set(prof) - {"m", "n", "r", "s"}
    if unknown:
        raise ConfigError(f"kau profile: unknown keys {sorted(unknown)}")
    m, n = int(prof["m"]), int(prof["n"])
    wp = None
    if "r" in prof or "s" in prof:
        wp = WeightPair(tuple(float(v) for v in prof["r"]), tuple(float(v) for v in prof["s"]))
    profile = ParabolicProfile(m, n, wp)
    length = int(params["len"])
    tol = float(params.get("tol", 1e-10))
    word = sample_word(mu, length, seed=seed)
    facs = word_factors(word, profile)
    residual = equivariance_residual(word, profile)
    steps = np.arange(1, length + 1)
    cols = {
        "step": steps,
        "t_prefix": np.array([f.t for f in facs]),
    }
    order = ["step", "t_prefix"]
    for i in range(m):
        for j in range(n):
            key = f"u_{i}{j}"
            cols[key] = np.array([f.u[i, j] for f in facs])
            order.append(key)
    summary = {"equivariance_residual": residual, "len": length}
    try:
        limit, n_used = u_limit(iter(word), profile, tol=tol, n_max=length)
        summary["u_limit"] = [float(v) for v in limit.ravel()]
        summary["u_limit_converged"] = True
        summary["u_limit_terms"] = n_used
    except UnipotentLimitError as err:
        summary["u_limit"] = [float(v) for v in err.partial.ravel()]
        summary["u_limit_converged"] = False
        summary["u_limit_terms"] = err.n_used
    return summary, cols, order, {}


def _run_sponge(params, seed):
    allowed = {"bases", "pattern", "weights"}
    _require_keys(params, allowed, {"bases", "pattern"}, "sponge")
    weights = params.get("weights", "uniform")
    if weights == "uniform":
        ifs = sponge_builder(params["bases"], params["pattern"])
    else:
        ifs = sponge_builder(
            params["bases"], params["pattern"], weights_mode="custom", symbol_weights=weights
        )
    chk = sponge_check(ifs.symbols[0], ifs.weightpair)
    summary = {
        "r": list(ifs.weightpair.r),
        "s": list(ifs.weightpair.s),
        "t": chk.t,
        "symbols": len(ifs.symbols),
    }
    k = len(ifs.symbols)
    cols = {
        "symbol": np.arange(k),
        "weight": np.asarray(ifs.weights),
    }
    order = ["symbol", "weight"]
    m = ifs.m
    for i in range(m):
        key = f"offset_{i}"
        cols[key] = np.array([phi.b[i, 0] for phi in ifs.symbols])
        order.append(key)
    return summary, cols, order, {"ifs.json": ifs}


def _run_dioph_brute(params, seed):
    allowed = {"M", "r", "s", "T_max", "cap"}
    _require_keys(params, allowed, {"M", "r", "s", "T_max"}, "dioph-brute")
    weights = _weightpair(params)
    mat = _matrix(params["M"], "M")
    quality, (p, q) = brute_force_quality(
        mat, weights, float(params["T_max"]), cap=int(params.get("cap", 10**8))
    )
    summary = {"quality": quality, "p": [int(v) for v in p], "q": [int(v) for v in q]}
    cols = {"quality": np.array([quality])}
    return summary, cols, ["quality"], {}


def _run_dioph_flow(params, seed):
    allowed = {"M", "r", "s", "t_max", "dt", "eps_grid", "siegel_radius"}
    _require_keys(params, allowed, {"M", "r", "s", "t_max"}, "dioph-flow")
    weights = _weightpair(params)
    mat = _matrix(params["M"], "M")
    trace = flow_trace(
        mat,
        weights,
        float(params["t_max"]),
        dt=float(params.get("dt", 0.05)),
        siegel_radius=(
            float(params["siegel_radius"]) if params.get("siegel_radius") else None
        ),
    )
    eps_grid = [float(e) for e in params.get("eps_grid", (0.05, 0.1, 0.2, 0.3))]
    summary = {
        "inf_minima": trace.inf_minima,
        "grid_error_factor": trace.grid_error_factor,
        "escape_flags": {
            repr(eps): trace.escape_flag(eps, float(params["t_max"]) / 2.0)
            for eps in eps_grid
        },
    }
    return summary, {"t": trace.t_grid, "minima": trace.minima}, ["t", "minima"], {}


def _run_dioph_fractal(params, seed):
    allowed = {"ifs", "r", "s", "n_points", "t_max", "dt", "thresholds", "brute_T"}
    _require_keys(params, allowed, {"ifs", "n_points", "t_max"}, "dioph-fractal")
    ifs = _ifs(params["ifs"])
    if "r" in params and "s" in params:
        weights = _weightpair(params)
    elif ifs.weightpair is not None:
        weights = ifs.weightpair
    else:
        raise ConfigError("dioph-fractal: weights required when the IFS carries none")
    summary, rows = fractal_experiment(
        ifs,
        weights,
        int(params["n_points"]),
        float(params["t_max"]),
        seed=seed,
        dt=float(params.get("dt", 0.05)),
        thresholds=tuple(float(v) for v in params.get("thresholds", (0.05, 0.1, 0.15, 0.2, 0.3))),
        brute_t_max=float(params.get("brute_T", 200.0)),
    )
    keys = list(rows[0]) if rows else ["point_id"]
    cols = {k: np.array([row[k] for row in rows]) for k in keys}
    return summary, cols, keys, {}


HANDLERS = {
    "cone": _run_cone,
    "expand-cert": _run_expand_cert,
    "walk": _run_walk,
    "height": _run_height,
    "recur": _run_recur,
    "kau": _run_kau,
    "sponge": _run_sponge,
    "dioph-brute": _run_dioph_brute,
    "dioph-flow": _run_dioph_flow,
    "dioph-fractal": _run_dioph_fractal,
}


def _json_default(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def run(config: dict) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        top_allowed = {"kind", "parameters", "seed", "output"}
        unknown = set(config) - top_allowed
        if unknown:
            raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
        kind = config.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
        params = config.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError("parameters must be an object")
        seed = int(config.get("seed", 0))
        prefix = config.get("output")
        if not prefix:
            raise ConfigError("an output prefix is required")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    resolved = {"kind": kind, "parameters": params, "seed": seed, "output": prefix}
    with open(f"{prefix}.config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")

    try:
        summary, cols, order, extra = HANDLERS[kind](params, seed)
    except NUMERICAL_ERRORS as err:
        return _write_failure(prefix, kind, err)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (TypeError, KeyError, ValueError) as err:
        print(f"config error: {kind}: {err}", file=sys.stderr)
        return 2

    with open(f"{prefix}.data.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_plotdata(cols, order))
    with open(f"{prefix}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    for name, obj in extra.items():
        save_ifs(obj, f"{prefix}.{name}")
    return 0


def _write_failure(prefix, kind, err) -> int:
    doc = {"error": f"{kind}: {type(err).__name__}: {err}"}
    partial = getattr(err, "partial", None)
    if partial is not None:
        doc["partial"] = np.asarray(partial).ravel().tolist()
    with open(f"{prefix}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    print(f"numerical failure: {doc['error']}", file=sys.stderr)
    return 3


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} is not allowed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expwalk", description="config-driven experiment runner"
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output prefix")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error: config must be a JSON object", file=sys.stderr)
        return 2
    config.setdefault("kind", args.kind)
    if config["kind"] != args.kind:
        print(
            f"config error: config kind {config['kind']!r} does not match "
            f"subcommand {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["output"] = args.out
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
