"""Config-driven experiment runner.

Usage: ``expwalk <subcommand> --config FILE [--seed N] [--out PREFIX]``.

The config is a single JSON document {"kind", "parameters", "seed",
"output"}.  ``SCHEMA`` states each kind's parameter keys with their types
and defaults, and ``_parse`` checks a config against it before the kind
runs: unknown keys, then missing keys, then types.  Integers must be
integral (booleans and 2.7 are rejected), numbers become floats, strings
must be non-empty, lists are checked element by element, and every error
names ``kind.key``.  The non-finite constants NaN, Infinity and -Infinity
are rejected.  The config as given, with its seed and output prefix, is
recorded next to the results, so every artifact carries its provenance.

Nothing is written until the kind returns.  Exit codes and what each writes:

* 0, success: ``<prefix>.config.json``, ``<prefix>.data.csv`` (17
  significant digits, LF line endings) and ``<prefix>.summary.json``, plus
  ``<prefix>.ifs.json`` for ``sponge``;
* 2, config or validation error: no file, a named reason on stderr;
* 3, numerical failure (a ``linalg.NumericalError`` such as conditioning,
  non-convergence or an enumeration cap, or a ``LinAlgError``):
  ``<prefix>.config.json`` and a ``<prefix>.summary.json`` holding the
  ``error`` and, where the error carries one, the ``partial`` value;
* 4, a lost worker (a ``dioph-fractal`` worker process that died,
  ``dioph.WorkerLostError``), neither bad input nor numerical trouble:
  ``<prefix>.config.json`` and a ``<prefix>.summary.json`` holding the
  ``error``, which names the lost share, as it does on stderr.

Execution is deterministic for a fixed config.  ``dioph-fractal`` splits
its points over the process's cores (share 0 in this process, the others
in forked workers), with the same bytes for any number of cores.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import isfinite

import numpy as np
from mpmath import mp

from .dioph import WorkerLostError, brute_force_quality, flow_trace, fractal_experiment
from .expansion import ConeSpec, expanding_cone_membership, expansion_certificate
from .fractal import ifs_from_dict, ifs_to_dict, load_ifs, sponge_builder, sponge_check
from .kau import (
    ParabolicProfile,
    UnipotentLimitError,
    WeightPair,
    equivariance_residual,
    u_limit,
    word_factors,
)
from .lattices import (
    HeightSpec,
    lll_reduce,
    margulis_height,
    margulis_height_profile,
    parse_observable,
    recurrence_experiment,
    standard_lattice,
    walk_simulate,
)
from .linalg import NumericalError
from .measures import load_measure, measure_from_dict, sample_word


class ConfigError(ValueError):
    """Config failed validation; maps to exit code 2."""


# ---------------------------------------------------------------------------
# the config schema
#
# A schema maps each key to (spec, default); REQUIRED marks a key without a
# default, and a null value counts as absent where the default is None.  A
# spec is a type (int, float, str, dict), a one-element list [element spec],
# a nested schema, or a converter(value, where) for values the library
# parses itself.  Converters reach library functions through this module's
# globals at call time.

REQUIRED = object()
_EXPECTED = {int: "an integer", float: "a number", str: "a non-empty string", dict: "an object"}


def _parse(schema: dict, params, where: str) -> dict:
    """Every key of ``schema`` parsed from ``params``, defaults filled in."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: expected an object, got {params!r}")
    unknown = [f"{where}.{key}" for key in sorted(set(params) - set(schema))]
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    missing = [f"{where}.{key}" for key, (_, default) in schema.items()
               if default is REQUIRED and key not in params]
    if missing:
        raise ConfigError(f"missing required keys {missing}")
    out = {}
    for key, (spec, default) in schema.items():
        if key not in params or (params[key] is None and default is None):
            out[key] = default
        else:
            out[key] = _coerce(spec, params[key], f"{where}.{key}")
    return out


def _coerce(spec, value, where: str):
    """``value`` checked against one schema spec and parsed."""
    if isinstance(spec, dict):
        return _parse(spec, value, where)
    if isinstance(spec, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [_coerce(spec[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    if spec not in _EXPECTED:
        return spec(value, where)
    if isinstance(value, bool):
        pass
    elif spec is float and isinstance(value, (int, float)):
        return float(value)
    elif spec is int and isinstance(value, float) and value.is_integer():
        return int(value)
    elif isinstance(value, spec) and value != "":
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[spec]}, got {value!r}")


def _matrix(value, where: str) -> np.ndarray:
    """A row-major matrix of finite numbers or decimal strings, entries kept as given.

    Kinds that compute in floats convert it themselves; ``dioph-flow``
    reads the digits of a decimal string past a double.
    """
    try:
        shape = np.shape(np.asarray(value, dtype=float))
        arr = np.array(value, dtype=object).reshape(shape)
        finite = all(isfinite(float(mp.mpf(v))) for v in arr.flat)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: not a numeric array: {err}") from err
    if not finite:
        raise ConfigError(f"{where}: entries must be finite")
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _document(load, build, value, where: str, expected: str):
    """A file path or an inline document read by the library's loader."""
    try:
        if isinstance(value, str):
            return load(value)
        if isinstance(value, dict):
            return build(value)
    except (OSError, KeyError, TypeError) as err:
        raise ConfigError(f"{where}: {type(err).__name__}: {err}") from err
    raise ConfigError(f"{where}: expected {expected}")


def _measure(value, where: str):
    return _document(load_measure, measure_from_dict, value, where,
                     "a file path or an inline measure document")


def _ifs(value, where: str):
    if isinstance(value, dict) and "sponge" in value:
        return _sponge(_parse({"sponge": (SPONGE, REQUIRED)}, value, where)["sponge"])
    return _document(load_ifs, ifs_from_dict, value, where,
                     "a file path, inline document, or sponge spec")


def _lattice(value, where: str):
    return None if value == "standard" else lll_reduce(_matrix(value, where))


def _height(value, where: str) -> HeightSpec:
    return HeightSpec(**_parse(HEIGHT, value, where))


def _symbol_weights(value, where: str):
    return value if value == "uniform" else _coerce([float], value, where)


def _sponge(p: dict):
    """The carpet IFS of a parsed ``SPONGE`` object."""
    weights = None if p["weights"] == "uniform" else p["weights"]
    return sponge_builder(p["bases"], p["pattern"], weights)


def _weightpair(p: dict, where: str):
    """The WeightPair of parsed keys r and s; None when both are absent."""
    missing = [key for key in ("r", "s") if p[key] is None]
    if len(missing) == 2:
        return None
    if missing:
        raise ConfigError(f"{where}.{missing[0]}: r and s must be given together")
    return WeightPair(p["r"], p["s"])


HEIGHT = {"epsilon": (float, REQUIRED), "delta": (float, 0.3), "s0": ([float], None)}
PROFILE = {"m": (int, REQUIRED), "n": (int, REQUIRED), "r": ([float], None), "s": ([float], None)}
SPONGE = {"bases": ([int], REQUIRED), "pattern": ([[int]], REQUIRED),
          "weights": (_symbol_weights, "uniform")}
CONFIG = {"kind": (str, REQUIRED), "parameters": (dict, {}), "seed": (int, 0),
          "output": (str, REQUIRED)}

SCHEMA = {
    "expand-cert": {
        "measure": (_measure, REQUIRED),
        "rep": (str, "std"),
        "N": (int, REQUIRED),
        "sphere_samples": (int, 1000),
        "mc_words": (int, 4000),
        "confidence": (float, 0.95),
        "cap": (int, 10**6),
        "mode": (str, "auto"),
    },
    "cone": {"blocks": ([int], REQUIRED), "logs": ([float], REQUIRED), "tol": (float, 1e-9)},
    "walk": {
        "measure": (_measure, REQUIRED),
        "height": (_height, None),
        "x0": (_lattice, None),
        "n_steps": (int, REQUIRED),
        "observables": ([str], REQUIRED),
    },
    "height": {"basis": (_matrix, REQUIRED), **HEIGHT},
    "recur": {
        "measure": (_measure, REQUIRED),
        "height": (_height, REQUIRED),
        "delta": (float, REQUIRED),
        "x0": (_lattice, None),
        "n_grid": ([int], REQUIRED),
        "mc_trials": (int, 200),
        "m": (int, 4),
        "sample_points": (int, 200),
    },
    "kau": {
        "measure": (_measure, REQUIRED),
        "profile": (PROFILE, REQUIRED),
        "len": (int, REQUIRED),
        "tol": (float, 1e-10),
    },
    "sponge": SPONGE,
    "dioph-brute": {
        "M": (_matrix, REQUIRED),
        "r": ([float], REQUIRED),
        "s": ([float], REQUIRED),
        "T_max": (float, REQUIRED),
        "cap": (int, 10**8),
    },
    "dioph-flow": {
        "M": (_matrix, REQUIRED),
        "r": ([float], REQUIRED),
        "s": ([float], REQUIRED),
        "t_max": (float, REQUIRED),
        "dt": (float, 0.05),
        "eps_grid": ([float], (0.05, 0.1, 0.2, 0.3)),
        "siegel_radius": (float, None),
    },
    "dioph-fractal": {
        "ifs": (_ifs, REQUIRED),
        "r": ([float], None),
        "s": ([float], None),
        "n_points": (int, REQUIRED),
        "t_max": (float, REQUIRED),
        "dt": (float, 0.05),
        "thresholds": ([float], (0.05, 0.1, 0.15, 0.2, 0.3)),
        "brute_T": (float, 200.0),
    },
}
KINDS = tuple(SCHEMA)


def emit_plotdata(table: dict) -> str:
    """Bit-stable CSV of a dict of equal-length columns, in the dict's order.

    Floats are rendered with 17 significant digits, rows end with LF, the
    header row lists the keys.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table)
    arrays = [np.asarray(a) for a in table.values()]
    length = max((len(a) for a in arrays), default=0)
    for a in arrays:
        if len(a) != length:
            raise ConfigError("columns have mismatched lengths")
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
# kind handlers: each takes the parsed parameters and the seed and returns
# (summary, columns in CSV order, extra JSON documents by file suffix)


def _run_cone(p, seed):
    spec = ConeSpec(dim=sum(p["blocks"]), blocks=p["blocks"])
    res = expanding_cone_membership(spec, p["logs"], tol=p["tol"])
    summary = {"inside": res.inside, "margin": res.margin}
    if res.inside:
        rows_i = [i for (i, _j) in res.coefficients]
        rows_j = [j for (_i, j) in res.coefficients]
        ts = list(res.coefficients.values())
        cols = {"i": np.array(rows_i), "j": np.array(rows_j), "t": np.array(ts)}
        summary["witness"] = {f"{i},{j}": t for (i, j), t in res.coefficients.items()}
    else:
        cols = {
            "coordinate": np.arange(spec.dim),
            "separator": np.asarray(res.separator),
        }
        summary["separator"] = [float(v) for v in res.separator]
    return summary, cols, {}


def _run_expand_cert(p, seed):
    # the remaining parameter keys are the certificate's keyword arguments
    cert = expansion_certificate(p.pop("measure"), seed=seed, **p)
    fields = ("N", "C_lower", "mode", "sphere_samples", "confidence", "passed", "verdict", "rep",
              "stationarity")
    summary = {name: getattr(cert, name) for name in fields}
    cols = {"index": np.arange(len(cert.witness)), "witness": cert.witness}
    return summary, cols, {}


def _run_walk(p, seed):
    mu = p["measure"]
    x0 = p["x0"] or standard_lattice(mu.dim)
    if not p["observables"]:  # the library walks without any, for its reductions alone
        raise ConfigError("walk.observables: need at least one observable")
    obs = [parse_observable(s, p["height"]) for s in p["observables"]]
    record = walk_simulate(mu, x0, p["n_steps"], obs, seed=seed)
    finals = {label: record.running[label][-1] for label, _ in obs}
    summary = {"n_steps": p["n_steps"], "final_running_avg": finals}
    return summary, record.columns(), {}


def _run_height(p, seed):
    spec = HeightSpec(p["epsilon"], p["delta"], p["s0"])
    x = lll_reduce(p["basis"])
    value = margulis_height(x, spec)
    labels, grades, phis = margulis_height_profile(x, spec)
    summary = {"height": value, "epsilon": spec.epsilon, "delta": spec.delta}
    return summary, {"subset": labels, "grade": grades, "phi": phis}, {}


def _run_recur(p, seed):
    mu = p["measure"]
    table = recurrence_experiment(
        mu,
        p["height"],
        p["delta"],
        p["x0"] or standard_lattice(mu.dim),
        p["n_grid"],
        mc_trials=p["mc_trials"],
        seed=seed,
        m=p["m"],
        sample_points=p["sample_points"],
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
    return summary, {"n": ns, "mass": mass}, {}


def _run_kau(p, seed):
    prof = p["profile"]
    profile = ParabolicProfile(prof["m"], prof["n"], _weightpair(prof, "kau.profile"))
    length = p["len"]
    if length < 1:  # an empty word has no factors and no limit to report
        raise ConfigError(f"kau.len: must be at least 1, got {length}")
    word = sample_word(p["measure"], length, seed=seed)
    facs = word_factors(word, profile)
    residual = equivariance_residual(word, profile)
    cols = {
        "step": np.arange(1, length + 1),
        "t_prefix": np.array([f.t for f in facs]),
    }
    for i in range(profile.m):
        for j in range(profile.n):
            cols[f"u_{i}{j}"] = np.array([f.u[i, j] for f in facs])
    try:
        limit, n_used = u_limit(iter(word), profile, tol=p["tol"], n_max=length)
        converged = True
    except UnipotentLimitError as err:
        limit, n_used, converged = err.partial, err.n_used, False
    summary = {
        "equivariance_residual": residual,
        "len": length,
        "u_limit": [float(v) for v in limit.ravel()],
        "u_limit_converged": converged,
        "u_limit_terms": n_used,
    }
    return summary, cols, {}


def _run_sponge(p, seed):
    ifs = _sponge(p)
    chk = sponge_check(ifs.symbols[0], ifs.weightpair)
    summary = {
        "r": list(ifs.weightpair.r),
        "s": list(ifs.weightpair.s),
        "t": chk.t,
        "symbols": len(ifs.symbols),
    }
    cols = {
        "symbol": np.arange(len(ifs.symbols)),
        "weight": np.asarray(ifs.weights),
    }
    for i in range(ifs.m):
        cols[f"offset_{i}"] = np.array([phi.b[i, 0] for phi in ifs.symbols])
    return summary, cols, {"ifs.json": ifs_to_dict(ifs)}


def _run_dioph_brute(p, seed):
    quality, (q_p, q_q) = brute_force_quality(
        p["M"], _weightpair(p, "dioph-brute"), p["T_max"], cap=p["cap"]
    )
    summary = {"quality": quality, "p": [int(v) for v in q_p], "q": [int(v) for v in q_q]}
    return summary, {"quality": np.array([quality])}, {}


def _run_dioph_flow(p, seed):
    trace = flow_trace(
        p["M"], _weightpair(p, "dioph-flow"), p["t_max"], dt=p["dt"],
        siegel_radius=p["siegel_radius"],
    )
    summary = {
        "inf_minima": trace.inf_minima,
        "grid_error_factor": trace.grid_error_factor,
        "escape_flags": {
            repr(eps): trace.escape_flag(eps, p["t_max"] / 2.0) for eps in p["eps_grid"]
        },
    }
    summary.update(trace.extras)  # "siegel" and "siegel_t" when siegel_radius is set
    return summary, {"t": trace.t_grid, "minima": trace.minima}, {}


def _run_dioph_fractal(p, seed):
    ifs = p["ifs"]
    weights = _weightpair(p, "dioph-fractal") or ifs.weightpair
    if weights is None:
        raise ConfigError("dioph-fractal.r, dioph-fractal.s: required when the IFS carries none")
    summary, rows = fractal_experiment(
        ifs,
        weights,
        p["n_points"],
        p["t_max"],
        seed=seed,
        dt=p["dt"],
        thresholds=p["thresholds"],
        brute_t_max=p["brute_T"],
    )
    keys = list(rows[0]) if rows else ["point_id"]
    return summary, {k: np.array([row[k] for row in rows]) for k in keys}, {}


# kind "dioph-flow" runs _run_dioph_flow, and so on
HANDLERS = {kind: globals()["_run_" + kind.replace("-", "_")] for kind in KINDS}


def _json_default(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def run(config: dict) -> int:
    """Execute one experiment config; returns the process exit code.

    The config is parsed and the kind run before anything is written, so a
    config error (exit 2) writes nothing and a numerical failure (exit 3) or
    a lost worker (exit 4) writes the config and the failure summary.
    """
    kind = config.get("kind")
    code = 0
    try:
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
        resolved = _parse(CONFIG, config, kind)
        params = _parse(SCHEMA[kind], resolved["parameters"], kind)
        summary, cols, extra = HANDLERS[kind](params, resolved["seed"])
    except (NumericalError, np.linalg.LinAlgError) as err:
        summary, extra, code = {"error": f"{kind}: {type(err).__name__}: {err}"}, {}, 3
        partial = getattr(err, "partial", None)
        if partial is not None:
            summary["partial"] = np.asarray(partial).ravel().tolist()
        print(f"numerical failure: {summary['error']}", file=sys.stderr)
    except WorkerLostError as err:
        summary, extra, code = {"error": f"{kind}: {type(err).__name__}: {err}"}, {}, 4
        print(f"worker failure: {summary['error']}", file=sys.stderr)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"config error: {kind}: {err}", file=sys.stderr)
        return 2

    prefix = resolved["output"]
    for suffix, doc in {"config.json": resolved, "summary.json": summary, **extra}.items():
        _write_json(f"{prefix}.{suffix}", doc)
    if code:  # the failures above
        return code
    with open(f"{prefix}.data.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(emit_plotdata(cols))
    return 0


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
