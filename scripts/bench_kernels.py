"""Per-call times of the lattice, flow and representation kernels on seeded inputs.

Usage, from the root of a checkout::

    python3 scripts/bench_kernels.py --out BENCH_<n>.json

Imports ``expwalk`` from this checkout's ``src``.  Every kernel runs over a
fixed list of inputs: bases taken from seeded walks (the bases real runs
hand to it) and from a float-carried carpet orbit, carpet points, a
50-digit golden ratio and the zero 1x1 orbit deep into the cusp for the
flow, seeded scalars and carpet points for the brute-force box (at the
census's horizons), seeded Gaussian matrices for the representations,
two SL4 certificates as the certify benchmark runs them, an exact
positive-pair certificate at N = 8 (256 words, 1,000 sphere samples) and
the positive pair's moment contraction estimate at N = 6 and
delta = 0.6 (whole-call times, sphere optimizer included, so both
transforms of the one descent are timed), and criterion
06's contraction fit and one of its recurrence tables (150 trials of 48
steps), and expanding-cone membership on criterion 02's (2,1,1) parabolic
and on a four-block one, at seeded interior and generic points.  A walk
step is timed with the three observables of the benchmark's short walks
(``walk_step.d2``) and with criterion 05's Siegel count alone
(``walk_step.d2.siegel``).  R has one kernel, the stacked R-factor: the
``rfactor`` rows time one lattice's R, a stack of one, and the
``rfactor_stack`` rows time it per member of 512-member stacks of the
seeded walk bases, as the walk's observables read it.  The Siegel-count
and shortest-vector rows take their lattices' R from one stack of their
inputs, as the walk and the flow hand R over, so they time the
enumeration alone.  Systoles have one search, the stacked
``_systole_stack``: ``shortest_vector.sup.d2`` times it on a stack of
one, with the vector's tie-break.  It is timed per member of 512-member
stacks too, R-factors given: in the sup norm on the reduced snapshots of
census flows, the 50-digit golden ratio and 0.37 to t = 30
(``sup_systole_stack.d2``) and the carpet points to t = 20
(``sup_systole_stack.d3``), dt 0.05, and in the Euclidean norm on the
seeded d=4 walk bases (``euclid_systole_stack.d4``), as the walk's
``shortest:euclid`` reads them.  A whole
fractal census of the benchmark's larger
carpet op (16 points to t = 20, brute-force boxes to T = 100) is timed
as ``fractal_experiment.carpet.16x20``, its points one after another in
this process.  Criterion 12's census (the same carpet, 100 points at seed
12 to t = 10, 20 and 40, brute-force boxes to T = 100) is timed once per
run, as one call, in the row ``fractal_experiment.criterion_12``.  The row
``import.expwalk_cli`` is the time a fresh interpreter takes to
``import expwalk.cli`` (timed inside the child, interpreter start-up
excluded) over ``REPEATS`` children.  One repeat
times the whole list with ``time.perf_counter``, and the per-call time is
the fastest of ``REPEATS`` repeats divided by the list length; the median
repeat is recorded beside it, so that the spread of a row shows in the
file.  The JSON file holds the machine, the library versions, the line
count of the ``.py`` files under ``src/`` (``src_lines``) and, per kernel,
the per-call microseconds (fastest and median repeat) and the number of
calls per repeat; a table is printed as well.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from mpmath import mp  # noqa: E402

from expwalk import catalog  # noqa: E402
from expwalk.dioph import (  # noqa: E402
    _flow_orbit,
    _grid_points,
    _needed_bits,
    brute_force_quality,
    flow_trace,
    fractal_experiment,
)
from expwalk.expansion import (  # noqa: E402
    ConeSpec,
    expanding_cone_membership,
    expansion_certificate,
    moment_contraction_estimate,
)
from expwalk.fractal import coding_sample  # noqa: E402
from expwalk.kau import WeightPair, flow_element, unipotent  # noqa: E402
from expwalk.lattices import (  # noqa: E402
    HeightSpec,
    UnimodularLattice,
    _rfactor_stack,
    _systole_stack,
    contraction_fit,
    lll_reduce,
    margulis_height,
    recurrence_experiment,
    shortest_vector,
    siegel_count,
    walk_simulate,
)
from expwalk.linalg import adjoint_rep, wedge_power  # noqa: E402

WALK_OBSERVABLES = ["siegel:3.0", "shortest:sup", "mahler:0.3"]
HEIGHT = HeightSpec(0.1, 0.3)
REPEATS = 7
GOLDEN_50 = "0.61803398874989484820458683436563811772030917980576"


def _random_start(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    c = rng.uniform(-0.5, 0.5, size=d)
    return lll_reduce(q @ np.diag(np.exp(c - c.mean())))


def _walk_inputs(mu, d, steps, seed):
    """The bases g x.reduced that a seeded walk hands to ``lll_reduce``,
    which returns the reduced lattice alone (no change of basis)."""
    rng = np.random.default_rng(seed)
    x = _random_start(rng, d)
    inputs = []
    for i in rng.choice(mu.natoms, size=steps, p=mu.weights):
        inputs.append(mu.matrices[i] @ x.reduced)
        x = lll_reduce(inputs[-1], renormalize=False)
    return inputs


def _carpet_inputs(steps, seed):
    """Nearly reduced d=3 bases of a carpet orbit carried in floats (dt 0.05).

    Fixed inputs, so the d=3 rows compare across BENCH files.
    """
    ifs = catalog.bm_carpet(2, 3)
    weights = WeightPair(ifs.weightpair.r, ifs.weightpair.s)
    step = flow_element(weights, 0.05)
    x = lll_reduce(unipotent(coding_sample(ifs, 1, seed=seed)[0]))
    inputs = []
    for _ in range(steps):
        inputs.append(step @ x.reduced)
        x = lll_reduce(inputs[-1], renormalize=False)
    return inputs


def _cone_inputs(spec, n, seed):
    """Seeded trace-zero logs for ``spec``, alternately a positive combination
    of the roots (inside the cone) and a Gaussian point (mostly outside)."""
    rng = np.random.default_rng(seed)
    inputs = []
    for k in range(n):
        logs = np.zeros(spec.dim)
        if k % 2:
            logs = rng.normal(size=spec.dim)
            logs -= logs.mean()
        else:
            for i, j in spec.root_pairs:
                t = rng.uniform(0.1, 1.0)
                logs[i] += t
                logs[j] -= t
        inputs.append(logs)
    return inputs


def _stacks(lats, size=512):
    """The reduced bases of ``lats``, cycled to fill whole (size, d, d) stacks."""
    k = -(-len(lats) // size)
    bases = np.array([lats[i % len(lats)].reduced for i in range(k * size)])
    return list(bases.reshape(k, size, *bases.shape[1:]))


def _with_r(stacks):
    """Each stack of bases with its R-factors and their errors."""
    return [(b, *_rfactor_stack(b)) for b in stacks]


def _snapshot_stacks(mats, weights, t_max, dt=0.05, size=512):
    """The reduced snapshots the flows of ``mats`` read their observables
    from, cycled to fill whole (size, d, d) stacks, each with its R-factors."""
    bits = _needed_bits(weights, t_max)
    snaps = []
    for mat in mats:
        with mp.workprec(bits + 64):
            entries = [[int(mp.nint(mp.ldexp(mp.mpf(v), bits))) for v in row]
                       for row in np.atleast_2d(np.asarray(mat, dtype=object))]
        snaps += islice(_flow_orbit(entries, weights, dt, bits), _grid_points(t_max, dt))
    k = -(-len(snaps) // size)
    bases = np.array([snaps[i % len(snaps)] for i in range(k * size)])
    return _with_r(bases.reshape(k, size, *bases.shape[1:]))


def _systoles(norm):
    return lambda stack: _systole_stack(*stack, norm)


def _given_r(lats):
    """Copies of ``lats`` holding the R of one ``_rfactor_stack`` of their bases."""
    bases = np.array([x.reduced for x in lats])
    return [UnimodularLattice(b, _rfactor=r) for b, r in zip(bases, _rfactor_stack(bases)[0])]


def _fresh(lats):
    """Copies without cached R-factors."""
    return [UnimodularLattice(x.reduced) for x in lats]


def _time(fn, inputs, fresh=False):
    """(fastest, median) seconds per input over ``REPEATS`` repeats."""
    times = []
    for _ in range(REPEATS):
        args = _fresh(inputs) if fresh else inputs
        t0 = time.perf_counter()
        for a in args:
            fn(a)
        times.append((time.perf_counter() - t0) / len(inputs))
    return min(times), statistics.median(times)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import expwalk.cli; print(time.perf_counter() - t)"
)


def _import_time():
    """(fastest, median) seconds for a fresh interpreter to import ``expwalk.cli``
    over ``REPEATS`` children."""
    code = IMPORT_PROBE.format(src=str(SRC))
    times = [
        float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(REPEATS)
    ]
    return min(times), statistics.median(times)


def _criterion_12():
    """Seconds criterion 12's census takes, timed once."""
    carpet = catalog.bm_carpet(2, 3)
    t0 = time.perf_counter()
    for t_max in (10.0, 20.0, 40.0):
        fractal_experiment(carpet, carpet.weightpair, 100, t_max, seed=12, dt=0.05,
                           thresholds=(0.15,), brute_t_max=100.0)
    return time.perf_counter() - t0


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
    lat3 = [lll_reduce(b, renormalize=False) for b in in3]
    lat4 = [lll_reduce(b, renormalize=False) for b in in4]
    carpet = catalog.bm_carpet(2, 3)
    carpet_points = list(coding_sample(carpet, 4, seed=1))
    flow2 = _snapshot_stacks([GOLDEN_50, 0.37], WeightPair((1.0,), (1.0,)), 30.0)
    flow3 = _snapshot_stacks(carpet_points, carpet.weightpair, 20.0)
    rng = np.random.default_rng(5)
    square15 = list(rng.normal(size=(10, 15, 15)))
    square4 = list(rng.normal(size=(500, 4, 4)))
    reduce = lambda b: lll_reduce(b, renormalize=False)  # noqa: E731
    height = lambda x: margulis_height(x, HEIGHT)  # noqa: E731
    n_walk = 1000

    def walk_steps(x0):
        walk_simulate(pair, x0, n_walk, WALK_OBSERVABLES, seed=0)

    def siegel_walk_steps(x0):
        # criterion 05's observable alone
        walk_simulate(pair, x0, n_walk, WALK_OBSERVABLES[:1], seed=0)

    def carpet_flow(t_max):
        # as in the census: dt 0.05, Siegel counts of radius 3
        return lambda mat: flow_trace(mat, carpet.weightpair, t_max, dt=0.05, siegel_radius=3.0)

    def scalar_flow(value):
        # as the census's scalar flows, on the README's 50-digit golden ratio
        flow_trace(value, WeightPair((1.0,), (1.0,)), 30.0, dt=0.05, siegel_radius=3.0)

    def zero_flow(value):
        # unit steps to t = 360, two chunks of snapshots deep in the cusp
        flow_trace(value, WeightPair((1.0,), (1.0,)), 360.0, dt=1.0)

    def brute(weights, t_max):
        return lambda mat: brute_force_quality(mat, weights, t_max)

    def five_cert(rep, n, mode, sphere_samples, **kwargs):
        # the certify benchmark's five-generator certificates
        return lambda seed: expansion_certificate(
            five, rep, N=n, mode=mode, sphere_samples=sphere_samples, seed=seed, **kwargs
        )

    # criterion 06's settings: the m=6 fit on 200 points at seed 6, then
    # 150 recurrence trials read on the grid 2, 4, .., 48
    fit = contraction_fit(pair, HEIGHT, 6, sample_points=200, seed=6)
    grid = list(range(2, 49, 2))

    def recurrence(j):
        x0 = lll_reduce(np.diag([10.0**j, 10.0**-j]))
        recurrence_experiment(pair, HEIGHT, 0.1, x0, grid, mc_trials=150, seed=60 + j, fit=fit)

    cone211, cone2323 = ConeSpec(4, (2, 1, 1)), ConeSpec(10, (2, 3, 2, 3))
    unit = WeightPair((1.0,), (1.0,))
    scalars = [[[v]] for v in np.random.default_rng(7).uniform(0.01, 0.99, size=4)]

    rows = [
        ("lll_reduce.d2", reduce, in2, False, 1),
        ("lll_reduce.d3", reduce, in3, False, 1),
        ("lll_reduce.d4", reduce, in4, False, 1),
        ("margulis_height.d2", height, lat2, False, 1),
        ("margulis_height.d4", height, lat4, False, 1),
        # R given, as the walk and the flow hand it over from their chunk stacks
        ("siegel_count.d2", lambda x: siegel_count(x, 3.0), _given_r(lat2), False, 1),
        ("siegel_count.d3", lambda x: siegel_count(x, 3.0), _given_r(lat3), False, 1),
        # the stacked systole search on a stack of one
        ("shortest_vector.sup.d2", lambda x: shortest_vector(x, "sup"), _given_r(lat2),
         False, 1),
        # per member of 512-member stacks of census flow snapshots, R given;
        # the flow reads its systoles over chunks of at most lattices.WALK_CHUNK
        ("sup_systole_stack.d2", _systoles("sup"), flow2, False, 512),
        ("sup_systole_stack.d3", _systoles("sup"), flow3, False, 512),
        # per member of 512-member stacks of walk bases, R given, as the
        # walk's shortest:euclid reads its chunks
        ("euclid_systole_stack.d4", _systoles("euclid"), _with_r(_stacks(lat4)), False, 512),
        ("walk_step.d2", walk_steps, lat2[:1], True, n_walk),
        ("walk_step.d2.siegel", siegel_walk_steps, lat2[:1], True, n_walk),
        ("contraction_fit.pair.m6",
         lambda seed: contraction_fit(pair, HEIGHT, 6, sample_points=200, seed=seed), [6],
         False, 1),
        ("recurrence.pair.150x48", recurrence, [3], False, 1),
        ("flow_trace.d3.t10", carpet_flow(10.0), carpet_points, False, 1),
        ("flow_trace.d3.t20", carpet_flow(20.0), carpet_points, False, 1),
        ("flow_trace.d3.t40", carpet_flow(40.0), carpet_points, False, 1),
        ("flow_trace.d2.golden.t30", scalar_flow, [GOLDEN_50], False, 1),
        ("flow_trace.d2.zero.t360", zero_flow, [0.0], False, 1),
        # one lattice's R: a stack of one
        ("rfactor.d2", lambda x: x.rfactor(), lat2, True, 1),
        ("rfactor.d3", lambda x: x.rfactor(), lat3, True, 1),
        ("rfactor.d4", lambda x: x.rfactor(), lat4, True, 1),
        # per member of 512-member stacks; the walk reads R over chunks of at
        # most lattices.WALK_CHUNK steps
        ("rfactor_stack.d2", _rfactor_stack, _stacks(lat2), False, 512),
        ("rfactor_stack.d4", _rfactor_stack, _stacks(lat4), False, 512),
        # census op 01's shape
        ("fractal_experiment.carpet.16x20",
         lambda seed: fractal_experiment(carpet, carpet.weightpair, 16, 20.0, seed=seed,
                                         brute_t_max=100.0), [1], False, 1),
        ("brute_force_quality.1x1.T1e4", brute(unit, 1e4), scalars, False, 1),
        ("brute_force_quality.1x1.T1e5", brute(unit, 1e5), scalars[:2], False, 1),
        ("brute_force_quality.carpet.T100", brute(carpet.weightpair, 100.0), carpet_points,
         False, 1),
        ("cone.211", lambda x: expanding_cone_membership(cone211, x),
         _cone_inputs(cone211, 200, seed=202), False, 1),
        ("cone.2323", lambda x: expanding_cone_membership(cone2323, x),
         _cone_inputs(cone2323, 200, seed=11), False, 1),
        ("wedge_power.d15.k2", lambda g: wedge_power(g, 2), square15, False, 1),
        ("adjoint_rep.d4", adjoint_rep, square4, False, 1),
        ("certificate.five.std.mc.N24", five_cert("std", 24, "mc", 200, mc_words=150), [0],
         False, 1),
        ("certificate.five.adj.exact.N1", five_cert("adj", 1, "exact", 100), [0], False, 1),
        # 256 words, 1,000 sphere samples
        ("certificate.pair.std.exact.N8",
         lambda seed: expansion_certificate(pair, "std", N=8, mode="exact", seed=seed), [0],
         False, 1),
        # the same sphere optimizer on the moment transform -|gv|^(-0.6), 64 words
        ("moment.pair.std.N6",
         lambda seed: moment_contraction_estimate(pair, "std", 0.6, 6, seed=seed), [0], False, 1),
    ]
    kernels = {}

    def record(name, fastest, median, calls):
        kernels[name] = {
            "per_call_us": round(fastest * 1e6, 3),
            "median_us": round(median * 1e6, 3),
            "calls": calls,
        }
        print(f"{name:30s} {fastest * 1e6:12.2f} {median * 1e6:12.2f}  ({calls} calls)")

    print(f"{'kernel':30s} {'min us':>12s} {'median us':>12s}")
    for name, fn, inputs, fresh, per_input in rows:
        fastest, median = _time(fn, inputs, fresh)
        record(name, fastest / per_input, median / per_input, len(inputs) * per_input)
    record("import.expwalk_cli", *_import_time(), 1)
    census = _criterion_12()
    record("fractal_experiment.criterion_12", census, census, 1)
    doc = {
        "machine": _machine(),
        "method": f"min and median over {REPEATS} repeats of the whole input list, per call",
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "kernels": kernels,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
