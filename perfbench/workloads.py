"""Seeded op lists for the three benchmark workloads.

One op is one ``expwalk.cli.run`` config.  The program receives only the
config; ``meta`` carries what the correctness checks need and ``work`` the
work counts computed from the inputs.  The same (workload, seed, size)
always gives the same ops.

Why these workloads (one per pillar of the package, each loading its own
pillar's kernels and leaving the others idle):

* ``certify`` -- expansion certificates, exact and Monte-Carlo side by side,
  in the std, wedge:2 and adj representations, plus cone LPs and K'A'U
  traces.  Word products, the sphere optimizer, ``wedge_power`` and
  ``adjoint_rep`` work here and nowhere else.
* ``walk`` -- heights and recurrence: d=2 walks of the positive pair from
  non-arithmetic starts (Z^2 is a fixed point of that pair), a d=4 walk of
  the five-generator measure, and recurrence runs from cusp starts.  Many
  small LLL reductions of nearly reduced bases.
* ``census`` -- the diagonal-flow Diophantine census: Bedford-McMullen
  carpet points (d=3 enumeration deep in the cusp, horizons <= 20 where the
  float orbit is still the true orbit), scalar flows on the mpmath path,
  and brute-force searches.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import floor, gcd, log

import numpy as np

from expwalk import catalog
from expwalk.fractal import ifs_to_dict, measure_from_ifs

WORKLOADS = ("certify", "walk", "census")
SIZES = ("full", "smoke")

# The scalar census ranks points by brute-force quality up to BRUTE_T and
# by the flow systole infimum up to t = ln T + WINDOW_SHIFT.  A denominator
# q <= T with quality Q = q |q M - p| is seen by the flow near
# t = ln(q^2 / Q) / 2, so the windows match at t = ln T + ln(1 / Q) / 2;
# Q ~ 0.075 gives the shift 1.3.
BRUTE_T = 1e4
WINDOW_SHIFT = 1.3
UNIT_WEIGHTS = {"r": [1.0], "s": [1.0]}


@dataclass
class Op:
    id: str
    kind: str
    params: dict
    seed: int
    meta: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    def config(self, prefix: str) -> dict:
        return {"kind": self.kind, "parameters": self.params, "seed": self.seed, "output": prefix}


def measure_doc(mu) -> dict:
    """Inline measure document in the CLI's measure-file schema."""
    doc = {
        "dim": mu.dim,
        "atoms": [
            {"matrix": [float(v) for v in g.ravel()], "weight": float(w)}
            for g, w in zip(mu.matrices, mu.weights)
        ],
    }
    if mu.profile is not None:
        p = mu.profile
        doc["profile"] = {"m": p.m, "n": p.n, "r": list(p.weights.r), "s": list(p.weights.s)}
    return doc


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
        self.ops: list[Op] = []

    def add(self, kind, params, meta=None, work=None):
        op_seed = int(self.rng.integers(0, 2**31 - 1))
        op_id = f"{len(self.ops):02d}-{kind}"
        self.ops.append(Op(op_id, kind, params, op_seed, meta or {}, work or {}))


# ---------------------------------------------------------------------------
# certify


def _cert(b, name, mu, rep, N, mode, sphere_samples, mc_words=None, meta=None):
    params = {"measure": measure_doc(mu), "rep": rep, "N": N, "mode": mode,
              "sphere_samples": sphere_samples}
    words = mu.natoms**N
    if mode == "mc":
        params["mc_words"] = mc_words
        words = mc_words
    meta = dict(meta or {}, measure=name, rep=rep, N=N, mode=mode)
    b.add("expand-cert", params, meta, {"words": words, "sphere_samples": sphere_samples})


def _cone_logs(rng, b1, b2, inside):
    """Trace-zero logs in quarters (exact in binary), all entries nonzero.

    Inside the two-block cone: positive on the first block, negative on the
    second.  Outside: one entry of each block swapped.
    """
    top = rng.integers(1, 9, size=b1)
    total = int(top.sum())
    while total < b2:
        top = top + 1
        total = int(top.sum())
    cuts = np.sort(rng.choice(np.arange(1, total), size=b2 - 1, replace=False))
    bottom = -np.diff(np.concatenate([[0], cuts, [total]]))
    logs = np.concatenate([top, bottom]).astype(float) / 4.0
    if not inside:
        i, j = int(rng.integers(0, b1)), b1 + int(rng.integers(0, b2))
        logs[i], logs[j] = logs[j], logs[i]
    return [float(v) for v in logs]


def certify(seed: int, small: bool) -> list[Op]:
    b = _Builder("certify", seed)
    pair = catalog.positive_pair_sl2()
    five = catalog.sl4_five_generator_measure()
    for n in range(1, 4 if small else 9):
        _cert(b, "positive_pair", pair, "std", n, "exact", 1000)
    _cert(b, "diagonal_geodesic", catalog.diagonal_geodesic_sl2(), "std", 1, "exact", 1000)
    _cert(b, "five", five, "std", 2 if small else 4, "exact", 1000)
    for n, words in ((24, 20),) if small else ((8, 100), (16, 100), (24, 150)):
        _cert(b, "five", five, "std", n, "mc", 50 if small else 200, words)
    _cert(b, "five", five, "wedge:2", 2, "mc", 50 if small else 100, 10 if small else 40)
    if small:
        _cert(b, "positive_pair", pair, "adj", 1, "exact", 100)
    else:
        _cert(b, "five", five, "adj", 1, "exact", 100)

    for k in range(2 if small else 4):
        dim = int(b.rng.integers(3, 6))
        b1 = int(b.rng.integers(1, dim))
        inside = k % 2 == 0
        logs = _cone_logs(b.rng, b1, dim - b1, inside)
        b.add("cone", {"blocks": [b1, dim - b1], "logs": logs}, {"inside": inside}, {"dim": dim})

    cantor = measure_doc(catalog.cantor_measure())
    sponge_mu = measure_from_ifs(catalog.rotation_sponge_ifs())
    sponge = measure_doc(sponge_mu)
    wp = sponge_mu.profile.weights
    sponge_profile = {"m": wp.m, "n": wp.n, "r": list(wp.r), "s": list(wp.s)}
    # words longer than ~20 letters underflow a diagonal block
    for doc, profile in ((cantor, {"m": 1, "n": 1}), (sponge, sponge_profile)) * (1 if small else 2):
        b.add("kau", {"measure": doc, "profile": profile, "len": 20}, {}, {"len": 20})
    return b.ops


# ---------------------------------------------------------------------------
# walk


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def walk(seed: int, small: bool) -> list[Op]:
    b = _Builder("walk", seed)
    pair = measure_doc(catalog.positive_pair_sl2())
    # The pooled Siegel check needs many steps: the count has a heavy tail
    # (one deep cusp visit can move a 1500-step average by half), so two
    # long walks carry the Siegel observable alone.
    obs2 = ["siegel:3.0", "shortest:sup", "mahler:0.3"]
    walks2 = [(100, obs2)] * 2 if small else [(1500, obs2)] * 3 + [(6000, obs2[:1])] * 2
    for steps, obs in walks2:
        # a random point of SL2(R): non-arithmetic with probability one
        theta, a, u = b.rng.uniform(0.0, np.pi), np.exp(b.rng.uniform(-1.0, 1.0)), b.rng.uniform()
        x0 = _rotation(theta) @ np.diag([a, 1.0 / a]) @ np.array([[1.0, u], [0.0, 1.0]])
        b.add("walk", {"measure": pair, "x0": x0.tolist(), "n_steps": steps, "observables": obs},
              {"dim": 2}, {"steps": steps, "csv_rows": (steps + 1) * len(obs)})

    five = measure_doc(catalog.sl4_five_generator_measure())
    q, _ = np.linalg.qr(b.rng.normal(size=(4, 4)))
    c = b.rng.uniform(-0.5, 0.5, size=4)
    x0 = q @ np.diag(np.exp(c - c.mean()))
    steps4 = 100 if small else 1000
    obs4 = ["height", "shortest:euclid"]
    b.add("walk", {"measure": five, "x0": x0.tolist(), "n_steps": steps4, "observables": obs4,
                   "height": {"epsilon": 0.1, "delta": 0.3}},
          {"dim": 4}, {"steps": steps4, "csv_rows": (steps4 + 1) * len(obs4)})

    # criterion 06 settings: m=6, 200 fit points, 150 trials, grid 2..48
    trials, points = (10, 30) if small else (150, 200)
    grid = [2, 4] if small else list(range(2, 49, 2))
    j = int(b.rng.integers(1, 7))
    b.add("recur", {"measure": pair, "height": {"epsilon": 0.1, "delta": 0.3}, "delta": 0.1,
                    "x0": [[10.0**j, 0.0], [0.0, 10.0**-j]], "n_grid": grid,
                    "mc_trials": trials, "m": 6, "sample_points": points},
          {"j": j}, {"steps": trials * grid[-1], "fit_points": points})
    return b.ops


# ---------------------------------------------------------------------------
# census


def _grid_points(t_max, dt=0.05):
    return int(floor(t_max / dt + 1e-9)) + 1


def _box_points(t_max, s):
    return int(np.prod([2 * floor(t_max**sj + 1e-12) + 1 for sj in s]))


def _flow(b, m_value, t_max, meta):
    b.add("dioph-flow", {"M": [[m_value]], **UNIT_WEIGHTS, "t_max": t_max, "siegel_radius": 3.0},
          meta, {"grid_points": _grid_points(t_max)})


def _brute(b, m_value, t_max, meta):
    b.add("dioph-brute", {"M": [[m_value]], **UNIT_WEIGHTS, "T_max": t_max},
          meta, {"box_points": _box_points(t_max, [1.0])})


def census(seed: int, small: bool) -> list[Op]:
    b = _Builder("census", seed)
    carpet = catalog.bm_carpet(2, 3)
    s = carpet.weightpair.s
    brute_carpet = 100.0
    for t_max, n_points in ((5.0, 2),) if small else ((10.0, 8), (20.0, 16)):
        b.add("dioph-fractal", {"ifs": ifs_to_dict(carpet), "n_points": n_points, "t_max": t_max,
                                "dt": 0.05, "brute_T": brute_carpet},
              {"n_points": n_points},
              {"points": n_points, "grid_points": n_points * _grid_points(t_max),
               "box_points": n_points * _box_points(brute_carpet, s)})

    # 24 ranked points: Kendall tau over 12 points fell below 0.8 for about
    # 1 seed in 40 with both oracles right; over 24, none in 30 went below 0.85
    rationals = []
    while len(rationals) < (2 if small else 8):
        q = int(b.rng.integers(3, 61))
        p = int(b.rng.integers(1, q))
        if gcd(p, q) == 1 and p / q not in rationals:
            rationals.append(p / q)
    floats = [float(v) for v in b.rng.uniform(0.01, 0.99, size=3 if small else 16)]
    brute_t = 1e2 if small else BRUTE_T
    flow_t = log(brute_t) + WINDOW_SHIFT
    for i, x in enumerate(rationals + floats):
        _flow(b, x, flow_t, {"point": i})
        _brute(b, x, brute_t, {"point": i})

    _flow(b, 0.0, 5.0 if small else 30.0, {"zero": True})
    # a longer search and a longer orbit for one rational and one float
    deep_t = 1e3 if small else 1e5
    for i in (0, len(rationals)):
        x = (rationals + floats)[i]
        _brute(b, x, deep_t, {"point": i, "deep": True})
        _flow(b, x, 8.0 if small else 30.0, {"point": i, "deep": True})
    return b.ops


BUILDERS = {"certify": certify, "walk": walk, "census": census}


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The op list of a workload for a seed; ``smoke`` is the smallest size."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return BUILDERS[workload](seed, size == "smoke")
