#!/usr/bin/env python3
"""Diagonal-flow systole traces for a few landmark numbers.

Compares the golden ratio (compact orbit), a rational (divergent orbit),
and a random 50-digit point (equidistributing orbit); writes one CSV per
point and prints the summary statistics.
"""
import argparse

import numpy as np
from mpmath import mp

from expwalk.cli import emit_plotdata
from expwalk.dioph import SIEGEL_RADIUS, classify_point, flow_trace
from expwalk.kau import WeightPair


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-max", type=float, default=40.0)
    ap.add_argument("--dt", type=float, default=0.05)
    ap.add_argument("--out-prefix", default="golden_flow")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    unit = WeightPair((1.0,), (1.0,))
    with mp.workdps(80):
        golden = mp.nstr((mp.sqrt(5) - 1) / 2, 70)
    rng = np.random.default_rng(args.seed)
    random_point = "0." + "".join(str(d) for d in rng.integers(0, 10, size=60))

    for label, value in (("golden", golden), ("third", 1 / 3), ("random", random_point)):
        trace = flow_trace(value, unit, args.t_max, dt=args.dt, siegel_radius=SIEGEL_RADIUS)
        report = classify_point(value, unit, args.t_max, trace=trace)
        path = f"{args.out_prefix}.{label}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_plotdata({"t": trace.t_grid, "minima": trace.minima}))
        print(
            f"{label:>7}: inf_minima={trace.inf_minima:.5f}  "
            f"ba={report.badly_approx_evidence}  dirichlet={report.dirichlet_evidence}  "
            f"generic_score={report.generic_score:.2f}  -> {path}"
        )


if __name__ == "__main__":
    main()
