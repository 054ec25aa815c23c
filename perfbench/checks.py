"""Correctness oracles for the outputs of one pass of a workload.

Every oracle holds for any workload seed: closed forms, theorems
(Minkowski, Hermite), re-computation by the benchmark itself, or
statistical bounds with a wide margin.  Integers and verdicts must match
exactly; floats within the tolerance written next to each check.

``check(workload, ops, results)`` returns ``{op_id: [failure, ...]}``.  An
op whose exit code is not 0 gets no oracle; it already counts as failed.
A pooled oracle that fails marks every op of its pool.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from scipy.stats import kendalltau

SIEGEL_HAAR_2D = 9.0 * math.pi  # expected count of nonzero points in a radius-3 disc
HERMITE_4 = 2.0**0.25  # sqrt of the Hermite constant gamma_4 = sqrt(2)
SIEGEL_MIN_STEPS = 10_000


@dataclass
class OpResult:
    code: int | None  # None when cli.run raised
    error: str
    summary_bytes: bytes | None
    csv_bytes: bytes | None

    @property
    def summary(self) -> dict:
        return json.loads(self.summary_bytes)

    @property
    def rows(self) -> list[dict]:
        return list(csv.DictReader(io.StringIO(self.csv_bytes.decode())))


class _Failures(dict):
    def add(self, op, message):
        self.setdefault(op.id, []).append(message)


def check(workload: str, ops, results) -> dict:
    failures = _Failures()
    done = [op for op in ops if results[op.id].code == 0]
    {"certify": _certify, "walk": _walk, "census": _census}[workload](done, results, failures)
    return dict(failures)


# ---------------------------------------------------------------------------
# certify


def _rep_atoms(op):
    from expwalk.expansion import rep_matrix

    doc = op.params["measure"]
    d = doc["dim"]
    atoms = [np.reshape(np.array(a["matrix"], dtype=float), (d, d)) for a in doc["atoms"]]
    weights = [float(a["weight"]) for a in doc["atoms"]]
    if op.params["rep"] != "std":
        atoms = [rep_matrix(op.params["rep"], g) for g in atoms]
    return atoms, weights


def _criterion_at(op, witness) -> float:
    """The integral criterion at ``witness``, every word enumerated, unmerged."""
    atoms, weights = _rep_atoms(op)
    u = np.asarray(witness) / np.linalg.norm(witness)
    total = 0.0
    for word in product(range(len(atoms)), repeat=op.params["N"]):
        g = reduce(lambda acc, i: atoms[i] @ acc, word, np.eye(len(u)))
        total += math.prod(weights[i] for i in word) * math.log(np.linalg.norm(g @ u))
    return total


def _cone_closed_form(blocks, logs) -> bool:
    """Two blocks: inside iff positive on the first block, negative on the second."""
    b1 = blocks[0]
    return all(v > 0 for v in logs[:b1]) and all(v < 0 for v in logs[b1:])


def _certify(ops, results, failures):
    pair_by_6 = []
    for op in ops:
        s = results[op.id].summary
        meta = op.meta
        if op.kind == "expand-cert":
            if s["passed"] != (s["C_lower"] > 0.0):
                failures.add(op, "verdict disagrees with the sign of C_lower")
            if meta["mode"] == "exact":
                witness = [float(r["witness"]) for r in results[op.id].rows]
                if s["mode"] != "exact" or s["confidence"] != 1.0:
                    failures.add(op, f"exact run reported mode {s['mode']}")
                value = _criterion_at(op, witness)
                if abs(value - s["C_lower"]) > 1e-8 * max(1.0, abs(value)):
                    failures.add(op, f"criterion at witness {value!r} != C_lower {s['C_lower']!r}")
            if meta["measure"] == "diagonal_geodesic" and abs(s["C_lower"] + math.log(3.0)) > 1e-6:
                failures.add(op, f"diagonal geodesic C_lower {s['C_lower']!r} != -log 3")
            if meta["measure"] == "positive_pair" and meta["rep"] == "std" and meta["N"] <= 6:
                pair_by_6.append((op, s["passed"]))
            if meta["measure"] == "five" and meta["mode"] == "mc" and meta["N"] == 24:
                if not (s["passed"] and s["mode"] == "monte-carlo" and s["confidence"] == 0.95):
                    failures.add(op, "five-generator measure fails MC at N=24, 95%")
        elif op.kind == "cone":
            expected = _cone_closed_form(op.params["blocks"], op.params["logs"])
            if s["inside"] != expected:
                failures.add(op, f"cone verdict {s['inside']} != closed form {expected}")
        elif op.kind == "kau":
            if not s["equivariance_residual"] < 1e-8:
                failures.add(op, f"equivariance residual {s['equivariance_residual']!r}")
    if pair_by_6 and not any(passed for _, passed in pair_by_6):
        for op, _ in pair_by_6:
            failures.add(op, "positive pair does not pass by N=6 in exact mode")


# ---------------------------------------------------------------------------
# walk


def _walk_series(rows):
    series: dict[str, list[float]] = {}
    for r in rows:
        series.setdefault(r["observable_name"], []).append(float(r["value"]))
    return series


def _walk(ops, results, failures):
    pooled, pool = [], []
    for op in ops:
        s = results[op.id].summary
        if op.kind == "walk":
            series = _walk_series(results[op.id].rows)
            n = op.params["n_steps"]
            if any(len(v) != n + 1 for v in series.values()) or len(series) != len(
                op.params["observables"]
            ):
                failures.add(op, "walk CSV does not hold one row per step and observable")
                continue
            if "shortest:sup" in series:
                sup = np.array(series["shortest:sup"])
                if not np.all((sup > 0.0) & (sup <= 1.0 + 1e-12)):
                    failures.add(op, "sup-norm systole outside (0, 1] (Minkowski)")
                mahler = np.array(series["mahler:0.3"])
                if not np.array_equal(mahler, (sup >= 0.3).astype(float)):
                    failures.add(op, "mahler:0.3 disagrees with shortest:sup")
            if op.meta["dim"] == 2:
                counts = np.array(series["siegel:3.0"])
                if not np.all((counts >= 0) & (counts % 2 == 0)):
                    failures.add(op, "Siegel counts are not even nonnegative integers")
                pooled.extend(counts[1:])
                pool.append(op)
            else:
                euclid = np.array(series["shortest:euclid"])
                if not np.all((euclid > 0.0) & (euclid <= HERMITE_4 * (1.0 + 1e-9))):
                    failures.add(op, "Euclidean systole above the Hermite bound 2^(1/4)")
                height = np.array(series["height"])
                if not np.all(np.isfinite(height) & (height > 0.0)):
                    failures.add(op, "height not finite and positive")
        elif op.kind == "recur":
            if not (s["a_hat"] < 1.0 and s["violations"] == 0):
                failures.add(op, f"contraction fit reported ok with a_hat={s['a_hat']!r}")
            if s["burn_in_0.9"] is None:
                failures.add(op, "recurrence mass never reaches 0.9 on the grid")
            trials = op.params["mc_trials"]
            mass = np.array([float(r["mass"]) for r in results[op.id].rows])
            if not np.all(np.abs(mass * trials - np.rint(mass * trials)) < 1e-9):
                failures.add(op, "recurrence masses are not hit fractions of the trials")
    # the count has a heavy tail; below this many steps 10% is no oracle
    if len(pooled) >= SIEGEL_MIN_STEPS:
        rel = abs(float(np.mean(pooled)) / SIEGEL_HAAR_2D - 1.0)
        if rel > 0.10:
            for op in pool:
                failures.add(op, f"pooled Siegel average off 9*pi by {rel:.1%} (> 10%)")


# ---------------------------------------------------------------------------
# census


def _census(ops, results, failures):
    by_point: dict[tuple, tuple] = {}
    for op in ops:
        s = results[op.id].summary
        meta = op.meta
        if op.kind == "dioph-flow":
            rows = results[op.id].rows
            t = np.array([float(r["t"]) for r in rows])
            minima = np.array([float(r["minima"]) for r in rows])
            if not np.all((minima > 0.0) & (minima <= 1.0)):
                failures.add(op, "systole outside (0, 1]")
            if s["inf_minima"] != float(minima.min()):
                failures.add(op, "inf_minima is not the minimum of the trace")
            if meta.get("zero") and np.abs(minima - np.exp(-t)).max() > 1e-9:
                failures.add(op, "zero orbit minima differ from e^-t by more than 1e-9")
        elif op.kind == "dioph-brute":
            m_value, t_max = op.params["M"][0][0], op.params["T_max"]
            p, q = s["p"][0], s["q"][0]
            value = abs(m_value * q - p) * abs(q)
            if not (0 < abs(q) <= t_max and abs(value - s["quality"]) <= 1e-12 * max(1.0, value)):
                failures.add(op, f"(p, q) = ({p}, {q}) does not give quality {s['quality']!r}")
        elif op.kind == "dioph-fractal":
            rows = results[op.id].rows
            infs = np.array([float(r["inf_minima"]) for r in rows])
            quality = np.array([float(r["quality"]) for r in rows])
            if len(rows) != meta["n_points"] or s["n_points"] != meta["n_points"]:
                failures.add(op, "census row count differs from n_points")
            if not np.all((infs > 0.0) & (infs <= 1.0)) or not np.all(quality >= 0.0):
                failures.add(op, "census systole outside (0, 1] or negative quality")
        if "point" in meta:
            key = (meta["point"], "deep" if meta.get("deep") else "rank", op.kind)
            by_point[key] = (op, s)

    rank = sorted(k for k in by_point if k[1] == "rank" and k[2] == "dioph-brute")
    pairs = [(by_point[k], by_point.get((k[0], "rank", "dioph-flow"))) for k in rank]
    pairs = [(b, f) for b, f in pairs if f is not None]
    if len(pairs) >= 3:
        tau = kendalltau([b[1]["quality"] for b, _ in pairs],
                         [f[1]["inf_minima"] for _, f in pairs]).statistic
        if not tau >= 0.8:
            for b, f in pairs:
                failures.add(b[0], f"Kendall tau {tau:.3f} < 0.8 between brute and flow ranks")
                failures.add(f[0], f"Kendall tau {tau:.3f} < 0.8 between brute and flow ranks")

    # a wider search box or a longer orbit can only lower the minimum
    for (point, depth, kind), (op, s) in by_point.items():
        shallow = by_point.get((point, "rank", kind))
        if depth != "deep" or shallow is None:
            continue
        key = "quality" if kind == "dioph-brute" else "inf_minima"
        if s[key] > shallow[1][key] * (1.0 + 1e-9):
            failures.add(op, f"{key} over the wider window exceeds the narrower one")
