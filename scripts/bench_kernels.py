"""Per-call times of the lattice kernels on seeded inputs.

Usage, from the root of a checkout::

    python3 scripts/bench_kernels.py --out BENCH_<n>.json

Imports ``expwalk`` from this checkout's ``src``.  Every kernel runs over a
fixed list of inputs taken from seeded walks and flows (the bases real runs
hand to it); one repeat times the whole list with ``time.perf_counter``, and
the per-call time is the fastest of ``REPEATS`` repeats divided by the list
length.  The
JSON file holds the machine, the library versions and, per kernel, the
per-call microseconds and the number of calls per repeat; a table is
printed as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from expwalk import catalog  # noqa: E402
from expwalk.fractal import coding_sample  # noqa: E402
from expwalk.kau import WeightPair, flow_element, unipotent  # noqa: E402
from expwalk.lattices import (  # noqa: E402
    HeightSpec,
    UnimodularLattice,
    lll_reduce,
    margulis_height,
    siegel_count,
    walk_simulate,
)

WALK_OBSERVABLES = ["siegel:3.0", "shortest:sup", "mahler:0.3"]
HEIGHT = HeightSpec(0.1, 0.3)
REPEATS = 7


def _random_start(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    c = rng.uniform(-0.5, 0.5, size=d)
    return lll_reduce(q @ np.diag(np.exp(c - c.mean())))


def _walk_inputs(mu, d, steps, seed):
    """The bases g x.reduced that a seeded walk hands to ``lll_reduce``."""
    rng = np.random.default_rng(seed)
    x = _random_start(rng, d)
    inputs = []
    for i in rng.choice(mu.natoms, size=steps, p=mu.weights):
        inputs.append(mu.matrices[i] @ x.reduced)
        x = lll_reduce(inputs[-1], renormalize=False)
    return inputs


def _carpet_inputs(steps, seed):
    """The bases a d=3 carpet flow (dt 0.05) hands to ``lll_reduce``."""
    ifs = catalog.bm_carpet(2, 3)
    weights = WeightPair(ifs.weightpair.r, ifs.weightpair.s)
    step = flow_element(weights, 0.05)
    x = lll_reduce(unipotent(coding_sample(ifs, 1, seed=seed)[0]))
    inputs = []
    for _ in range(steps):
        inputs.append(step @ x.reduced)
        x = lll_reduce(inputs[-1], renormalize=False)
    return inputs


def _fresh(lats):
    """Copies without cached R-factors or shortest vectors."""
    return [UnimodularLattice(x.basis, x.reduced, x.transform) for x in lats]


def _time(fn, inputs, fresh=False):
    best = float("inf")
    for _ in range(REPEATS):
        args = _fresh(inputs) if fresh else inputs
        t0 = time.perf_counter()
        for a in args:
            fn(a)
        best = min(best, time.perf_counter() - t0)
    return best / len(inputs)


def _machine():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": model or platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    pair, five = catalog.positive_pair_sl2(), catalog.sl4_five_generator_measure()
    in2 = _walk_inputs(pair, 2, 2000, seed=0)
    in3 = _carpet_inputs(400, seed=3)
    in4 = _walk_inputs(five, 4, 500, seed=1)
    lat2 = [lll_reduce(b, renormalize=False) for b in in2]
    lat4 = [lll_reduce(b, renormalize=False) for b in in4]
    reduce = lambda b: lll_reduce(b, renormalize=False)  # noqa: E731
    height = lambda x: margulis_height(x, HEIGHT)  # noqa: E731
    n_walk = 1000

    def walk_steps(x0):
        walk_simulate(pair, x0, n_walk, WALK_OBSERVABLES, seed=0)

    rows = [
        ("lll_reduce.d2", reduce, in2, False, 1),
        ("lll_reduce.d3", reduce, in3, False, 1),
        ("lll_reduce.d4", reduce, in4, False, 1),
        ("margulis_height.d2", height, lat2, False, 1),
        ("margulis_height.d4", height, lat4, False, 1),
        ("siegel_count.d2", lambda x: siegel_count(x, 3.0), lat2, True, 1),
        ("walk_step.d2", walk_steps, lat2[:1], True, n_walk),
    ]
    kernels = {}
    for name, fn, inputs, fresh, per_input in rows:
        per_call = _time(fn, inputs, fresh) / per_input
        kernels[name] = {"per_call_us": round(per_call * 1e6, 3), "calls": len(inputs) * per_input}
        print(f"{name:20s} {per_call * 1e6:9.2f} us  ({len(inputs) * per_input} calls)")
    doc = {
        "machine": _machine(),
        "method": f"min over {REPEATS} repeats of the whole input list, per call",
        "kernels": kernels,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
