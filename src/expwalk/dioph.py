"""Weighted Diophantine experiments through the diagonal-flow dictionary.

A matrix M is probed in two independent ways: a brute-force search for
good rational approximations weighted by (r, s), and the trajectory of the
lattice a(t) u_M Z^d under the associated diagonal flow, whose sup-norm
systole encodes approximation quality.  The orbit has one exact path for
every block shape: integers in fixed point, with bits worked out from the
horizon, so M may be given as decimal strings or mpf to carry more
precision than a double.  One grid point is one path on Python lists: the
float snapshot goes through the LLL kernel shared with ``lll_reduce``, its
R-factor is read from that kernel's Gram-Schmidt data where the kernel
changed nothing and the snapshot spans at most 400 bits (computed afresh
otherwise), and the flow reads only the length of the sup-norm systole.
The fractal census splits its points into interleaved shares, one per
core of the process's affinity (point i goes to share i mod w): share 0
runs in this process and the others in forked workers, and the rows are
put back in point order, so the results are the same bits for any
number of cores.  Finite-horizon results are reported as evidence
scores, never as verdicts: the dichotomies they probe are asymptotic.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import frexp, gamma, isfinite, ldexp, log, pi
from operator import mul

import numpy as np
from mpmath import mp

from .fractal import AffineIFS, coding_sample, ifs_validate, irreducibility_check, sponge_check
from .kau import WeightPair
from .linalg import NumericalError
from .lattices import (
    ConditioningError,
    CountCapError,
    LatticeError,
    UnimodularLattice,
    _lll,
    _rfactor,
    _rfactor_from_gso,
    _sup_systole,
    siegel_count,
)


class SearchCapError(NumericalError):
    """Brute-force search box exceeds the configured cap."""


class WorkerLostError(RuntimeError):
    """A census worker process died, and with it the points of its share:
    neither bad input nor numerical trouble."""


def brute_force_quality(mat, weights: WeightPair, t_max: float, cap: int = 10**8):
    """Exact minimum of the weighted approximation product up to height t_max.

    Minimizes max_i |(M q - p)_i|^{1/r_i} * max_j |q_j|^{1/s_j} over integer
    q != 0 with max_j |q_j|^{1/s_j} <= t_max, taking p as the coordinatewise
    nearest integer vector to M q (optimal for the max-norm objective at
    fixed q).  Returns (quality, (p, q)) at the minimizer as int64 vectors;
    a minimizer whose p does not fit int64 raises :class:`ConditioningError`.

    The box is walked in chunks of 65,536 points by flat index, skipping
    the zero vector's; C order is lexicographic order of q, so the first
    minimizer in that order wins, and memory stays bounded by one chunk.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    m, n = mat.shape
    if (m, n) != (weights.m, weights.n):
        raise ValueError(f"matrix shape {(m, n)} does not match the weights")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if not isfinite(t_max):
        raise ValueError("t_max must be finite")
    if t_max < 1.0:
        raise ValueError("t_max must be at least 1")
    r = np.asarray(weights.r)
    s = np.asarray(weights.s)
    with np.errstate(over="ignore"):
        limits = np.floor(t_max**s + 1e-12)
    box = np.prod(2.0 * limits + 1.0)  # sized in floats: an int64 cast can wrap
    if box > cap:
        raise SearchCapError(f"search box of {box:.3g} points exceeds the cap {cap}")
    limits = limits.astype(np.int64)
    shape = tuple(2 * limits + 1)
    nonzero = int(np.prod(shape)) - 1
    zero = nonzero // 2  # the centre of the box is its middle flat index
    best = np.inf
    best_p = best_q = None
    chunk_size = 65536
    for start in range(0, nonzero, chunk_size):
        flat = np.arange(start, min(start + chunk_size, nonzero))
        flat += flat >= zero  # nonzero point k sits at flat index k or k + 1
        q_int = np.stack(np.unravel_index(flat, shape), axis=1) - limits
        q = q_int.astype(float)
        qn = np.abs(q) ** (1.0 / s)
        height = qn.max(axis=1)
        mq = q @ mat.T
        p = np.rint(mq)
        err = np.abs(mq - p) ** (1.0 / r)
        vals = err.max(axis=1) * height
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_p, best_q = p[i].copy(), q_int[i].copy()
    if best_q is None:
        raise SearchCapError("empty search box; increase t_max")
    p_max = float(np.abs(best_p).max())
    if p_max >= 2.0**63:  # an int64 cast would wrap
        raise ConditioningError(f"minimizer has |p| = {p_max:.3g}, past the int64 range")
    return best, (best_p.astype(np.int64), best_q)


# widest exponent spread (bits) of a flow snapshot whose R-factor is read
# from the LLL's Gram-Schmidt data; past it a common-scaled square can be
# subnormal, and R is computed afresh
REUSE_SPREAD = 400


def _needed_bits(weights: WeightPair, t_max: float) -> int:
    # a(t) stretches the lattice by e^{(max r + max s) t} between its longest
    # and shortest directions; 64 guard bits on top
    spread = max(weights.r) + max(weights.s)
    return max(100, int(spread * t_max / log(2)) + 64)


# Siegel counts of the flow: the Euclidean radius the census and
# classify_point count at (its Haar mean is the ball volume), and the
# enumeration budget a count saturates at instead of failing
SIEGEL_RADIUS = 3.0
SIEGEL_CAP = 10**5

# largest t-grid flow_trace allocates: at tens of microseconds a point, 10^7
# points are minutes of work and two 80 MB arrays
MAX_GRID_POINTS = 10**7


def _grid_points(t_max: float, dt: float) -> int:
    """Number of points of the grid t = 0, dt, .. up to t_max, or a
    ValueError naming t_max or dt when there is no such grid to allocate."""
    if not isfinite(t_max) or t_max < 0.0:
        raise ValueError(f"t_max must be finite and non-negative, got {t_max!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    points = t_max / dt
    if not points < MAX_GRID_POINTS:
        raise ValueError(
            f"t_max / dt = {points:.3g} grid points exceed the cap of {MAX_GRID_POINTS:.0e}; "
            "raise dt or lower t_max"
        )
    return int(np.floor(points + 1e-9)) + 1


def _flow_orbit(entries, weights: WeightPair, dt: float, bits: int):
    """Reduced bases of a(t) u_M Z^d at t = 0, dt, 2 dt, .., with R-factors.

    The state is the basis a(t) u_M T (T integral, never stored) held
    exactly as Python integers in fixed point over 2^bits.  A step scales
    row i by round(e^{dt w_i} 2^bits) and shifts right by ``bits``; the
    float snapshot (each entry correctly rounded) is LLL-reduced, and a
    transform other than the identity is applied to the integers, which are
    converted again.  LLL works on squares of the entries, so it reduces
    the snapshot times the power of two 2^c that centres their squares in
    the double range, 2^-1074 .. 2^1024; deep in the cusp that keeps the
    longest and the shortest vector representable together.  ``entries``
    are the exact fixed-point integers of M.

    Yields (rows, r): the snapshot as float rows and the rows of its
    R-factor, bit for bit :func:`lattices._rfactor` of its columns.  After
    an identity transform LLL changed nothing, so R is read from its
    Gram-Schmidt data, R_kj = mu_jk sqrt(n_k) 2^-c and R_jj = sqrt(n_j)
    2^-c.  Powers of two are exact only while every intermediate is a
    normal double, so that reading is taken only when the snapshot's
    entries span at most ``REUSE_SPREAD`` bits; R is computed afresh
    otherwise.
    """
    m, d = weights.m, weights.m + weights.n
    one = 1 << bits
    with mp.workprec(bits + 64):
        factors = [
            int(mp.nint(mp.ldexp(mp.exp(mp.mpf(dt) * w), bits)))
            for w in (*weights.r, *(-s for s in weights.s))
        ]
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    rows = [[v << bits for v in row] for row in identity]  # u_M = [[I, -M], [0, I]]
    for i in range(m):
        rows[i][m:] = [-v for v in entries[i]]
    while True:
        snap = [[v / one for v in row] for row in rows]
        exps = [frexp(v)[1] for row in snap for v in row if v]
        hi, lo = max(exps), min(exps)
        c = (-25 - hi - lo) // 2
        _, t, mu, norms = _lll([[ldexp(v, c) for v in col] for col in zip(*snap)])
        moved = t != identity
        if moved:
            rows = [[sum(map(mul, row, col)) for col in t] for row in rows]
            snap = [[v / one for v in row] for row in rows]
        if moved or hi - lo > REUSE_SPREAD:
            r = _rfactor(list(zip(*snap)))
        else:
            r = _rfactor_from_gso(mu, norms, [-c] * d)
        yield snap, r
        rows = [[(v * f) >> bits for v in row] for row, f in zip(rows, factors)]


@dataclass
class FlowTrace:
    """Sup-norm systole of a(t) u_M Z^d along a t-grid, plus extras."""

    mat: np.ndarray
    weights: WeightPair
    t_grid: np.ndarray
    minima: np.ndarray
    extras: dict = field(default_factory=dict)

    @property
    def inf_minima(self) -> float:
        return float(self.minima.min())

    @property
    def grid_error_factor(self) -> float:
        """Bound on systole variation between grid points.

        The log-systole is Lipschitz in t with constant max(r_i, s_j), so
        values between samples lie within this multiplicative factor of
        the recorded ones.
        """
        dt = float(self.t_grid[1] - self.t_grid[0]) if len(self.t_grid) > 1 else 0.0
        w_max = max(max(self.weights.r), max(self.weights.s))
        return float(np.exp(w_max * dt / 2.0))

    def escape_flag(self, epsilon: float, after: float) -> bool:
        """True when the orbit never returns to K_epsilon past time ``after``."""
        tail = self.t_grid > after
        return bool(np.all(self.minima[tail] < epsilon)) if np.any(tail) else False


def flow_trace(
    mat,
    weights: WeightPair,
    t_max: float,
    dt: float = 0.05,
    siegel_radius: float | None = None,
    siegel_stride: int = 20,
) -> FlowTrace:
    """Reduce a(t) u_M Z^d along the grid t = 0, dt, .., recording systoles.

    Resolving the systole at time t costs about (max r + max s) t / ln 2
    bits of M, which exhausts float64 near t = 18 for r = s = 1.  The orbit
    is therefore carried exactly, for every block shape, as integers in
    fixed point with that many bits for the horizon plus 64 guard bits
    (at least 100); observables are evaluated on correctly rounded float
    snapshots of its reduced basis, whose entries are O(1) off the cusp.
    Entries of M may be numbers, decimal strings or mpf, so M can carry
    more precision than a double.  A basis that cannot be reduced (deep
    in the cusp, past t = 363 for the zero 1x1 orbit) raises
    ConditioningError naming t.

    Optional Siegel counts (Euclidean radius ``siegel_radius``) are
    recorded every ``siegel_stride`` points and saturate at the
    ``SIEGEL_CAP`` enumeration budget instead of failing on divergent
    orbits.
    """
    steps = _grid_points(t_max, dt)
    if siegel_radius is not None and not (siegel_radius > 0.0 and isfinite(siegel_radius)):
        # an infinite ball would only saturate every count at SIEGEL_CAP
        raise ValueError(f"siegel_radius must be positive and finite, got {siegel_radius!r}")
    raw = np.atleast_2d(np.asarray(mat, dtype=object))
    if raw.shape != (weights.m, weights.n):
        raise ValueError(f"matrix shape {raw.shape} does not match the weights")
    t_grid = np.arange(steps) * dt
    minima = np.empty(steps)
    bits = _needed_bits(weights, t_max)
    with mp.workprec(bits + 64):
        exact = [[mp.mpf(v) for v in row] for row in raw]
        mat_f = np.array([[float(v) for v in row] for row in exact])
        if not np.isfinite(mat_f).all():
            raise ValueError("matrix entries must be finite doubles")
        entries = [[int(mp.nint(mp.ldexp(v, bits))) for v in row] for row in exact]
    extras: dict[str, list] = {}
    if siegel_radius is not None:
        extras["siegel"] = []
        extras["siegel_t"] = []
    orbit = _flow_orbit(entries, weights, dt, bits)
    for k, t in enumerate(t_grid):
        try:
            snap, r = next(orbit)
            minima[k] = _sup_systole(snap, r)
        except (LatticeError, OverflowError) as err:
            raise ConditioningError(f"flow orbit cannot be reduced at t={t:g}: {err}") from err
        if siegel_radius is not None and k % siegel_stride == 0:
            x = UnimodularLattice(np.array(snap), _rfactor=r)
            try:
                cnt = float(siegel_count(x, siegel_radius, cap=SIEGEL_CAP))
            except CountCapError:
                cnt = float(SIEGEL_CAP)
            extras["siegel"].append(cnt)
            extras["siegel_t"].append(float(t))
    extras_arr = {k: np.asarray(v) for k, v in extras.items()}
    return FlowTrace(mat_f, weights, t_grid, minima, extras_arr)


def _ball_volume(d: int, radius: float) -> float:
    return pi ** (d / 2.0) / gamma(d / 2.0 + 1.0) * radius**d


@dataclass
class PointReport:
    """Finite-horizon evidence scores for one matrix (never verdicts)."""

    inf_minima: float
    badly_approx_evidence: bool
    dirichlet_eps: float
    dirichlet_evidence: bool
    siegel_avg: float
    siegel_expected: float
    generic_score: float
    occupation_shift: float


def classify_point(
    mat,
    weights: WeightPair,
    t_max: float,
    eps_grid=(0.05, 0.1, 0.2, 0.3),
    dt: float = 0.05,
    trace: FlowTrace | None = None,
) -> PointReport:
    """Evidence report for one matrix from its diagonal-flow trajectory.

    Badly-approximable evidence: the systole infimum stays at or above
    0.1.  Dirichlet-improvable evidence: some K_eps is never revisited
    after t_max/2.  Generic evidence: the Birkhoff average of the Siegel
    count sits near its Haar value (the volume of the ball of radius
    ``SIEGEL_RADIUS``, at which a given ``trace`` must count) and the K_eps
    occupation fractions agree between the two halves of the orbit.
    """
    if trace is None:
        trace = flow_trace(mat, weights, t_max, dt=dt, siegel_radius=SIEGEL_RADIUS)
    inf_minima = trace.inf_minima
    dirichlet_eps = 0.0
    for eps in sorted(eps_grid, reverse=True):
        if trace.escape_flag(eps, t_max / 2.0):
            dirichlet_eps = float(eps)
            break
    expected = _ball_volume(weights.m + weights.n, SIEGEL_RADIUS)
    if "siegel" in trace.extras and len(trace.extras["siegel"]):
        siegel_avg = float(np.mean(trace.extras["siegel"]))
    else:
        siegel_avg = float("nan")
    rel_err = abs(siegel_avg / expected - 1.0) if np.isfinite(siegel_avg) else np.inf
    half = len(trace.minima) // 2
    occ_shift = 0.0
    for eps in eps_grid:
        first = float(np.mean(trace.minima[:half] >= eps))
        second = float(np.mean(trace.minima[half:] >= eps))
        occ_shift = max(occ_shift, abs(first - second))
    generic_score = max(0.0, 1.0 - min(rel_err, 1.0)) * max(0.0, 1.0 - occ_shift)
    return PointReport(
        inf_minima=inf_minima,
        badly_approx_evidence=inf_minima >= 0.1,
        dirichlet_eps=dirichlet_eps,
        dirichlet_evidence=dirichlet_eps > 0.0,
        siegel_avg=siegel_avg,
        siegel_expected=expected,
        generic_score=float(generic_score),
        occupation_shift=float(occ_shift),
    )


def _census_share(points, first: int, step: int, weights, t_max, dt, brute_t_max):
    """Census rows of ``points``, the census points of index first,
    first + step, .., in order.

    Stops at the first failing point: returns (rows, None), or the rows
    before the failure and (point index, error).
    """
    rows = []
    for i, mat in zip(range(first, first + step * len(points), step), points):
        try:
            trace = flow_trace(mat, weights, t_max, dt=dt, siegel_radius=SIEGEL_RADIUS)
            report = classify_point(mat, weights, t_max, dt=dt, trace=trace)
            quality, _ = brute_force_quality(mat, weights, brute_t_max)
        except Exception as err:  # the caller raises the lowest-index failure
            return rows, (i, err)
        row = {
            "point_id": i,
            "quality": quality,
            "inf_minima": report.inf_minima,
            "generic_score": report.generic_score,
            "dirichlet_eps": report.dirichlet_eps,
            "ba_evidence": int(report.badly_approx_evidence),
        }
        for j, v in enumerate(mat.ravel()):
            row[f"coord_{j}"] = float(v)
        rows.append(row)
    return rows, None


def _share_count(n_points: int) -> int:
    """Shares a census of ``n_points`` points is split into: one per core
    of this process's affinity, at most one per point.  One share where
    processes cannot be forked, or where this process runs other threads
    (a forked child would inherit any lock they hold, held forever)."""
    import multiprocessing
    import threading

    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(n_points, len(os.sched_getaffinity(0)))


def _census(points, weights, t_max, dt, brute_t_max) -> list[dict]:
    """Census rows of ``points`` in point order, from ``_share_count``
    interleaved shares (see :func:`fractal_experiment`).  A worker that dies
    raises a :class:`WorkerLostError` naming its share, and the workers are
    shut down and joined on every exit.  They are forked, not spawned: a
    spawned worker imports expwalk afresh, which costs about what a census
    op saves.
    """
    w = _share_count(len(points))
    args = (weights, t_max, dt, brute_t_max)
    if w == 1:
        shares = [_census_share(points, 0, 1, *args)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(w - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_census_share, points[k::w], k, w, *args) for k in range(1, w)]
            shares = [_census_share(points[0::w], 0, w, *args)]
            for k, future in enumerate(futures, 1):
                try:
                    shares.append(future.result())
                except BrokenProcessPool as err:
                    raise WorkerLostError(
                        f"census share {k} of {w} (points {k}, {k + w}, ..) was lost: "
                        f"its worker process died"
                    ) from err
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return sorted((row for rows, _ in shares for row in rows), key=lambda row: row["point_id"])


def fractal_experiment(
    ifs: AffineIFS,
    weights: WeightPair,
    n_points: int,
    t_max: float,
    seed: int = 0,
    dt: float = 0.05,
    thresholds=(0.05, 0.1, 0.15, 0.2, 0.3),
    brute_t_max: float = 200.0,
):
    """Diophantine census of points sampled from the self-affine measure.

    Preconditions checked and named individually: the IFS contracts on
    average, it is not (certifiably) reducible, and every symbol is a
    sponge affinity for the given weights.  Each sampled point gets a flow
    classification and a brute-force quality; the summary aggregates
    badly-approximable evidence fractions per threshold, the median
    genericity score, and quality quantiles.

    The points are split into w = min(n_points, cores of the process's
    affinity) interleaved shares (point i in share i mod w; one share where
    processes cannot be forked).  Share 0 runs in this process and the
    others in forked workers, one task each, through the same per-point
    body; the rows come back in point order, and the failure of the lowest
    point index is raised as a sequential loop would raise it.  The summary
    and rows are therefore the same bits for any number of cores.

    Returns (summary, rows) with one row dict per point.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if not (isfinite(brute_t_max) and brute_t_max >= 1.0):
        raise ValueError(f"brute_t_max must be finite and at least 1, got {brute_t_max!r}")
    _grid_points(t_max, dt)
    validation = ifs_validate(ifs)
    if not validation.contracting:
        raise ValueError(
            f"IFS is not contracting on average up to N={len(validation.values)}: "
            f"expected log norms {validation.values}"
        )
    red = irreducibility_check(ifs)
    if red.status == "reducible":
        raise ValueError(f"IFS is reducible ({red.detail}); sampled points are confined")
    for i, phi in enumerate(ifs.symbols):
        chk = sponge_check(phi, weights)
        if not chk.ok:
            raise ValueError(f"symbol {i} is not a sponge affinity for the weights: {chk.reason}")

    points = coding_sample(ifs, n_points, seed=seed)
    rows = _census(points, weights, t_max, dt, brute_t_max)

    inf_minima = np.array([row["inf_minima"] for row in rows])
    qualities = np.array([row["quality"] for row in rows])
    scores = np.array([row["generic_score"] for row in rows])
    summary = {
        "n_points": n_points,
        "t_max": t_max,
        "ba_fraction": {
            repr(thr): float(np.mean(inf_minima >= thr)) for thr in thresholds
        },
        "generic_score_median": float(np.median(scores)),
        "quality_quantiles": {
            "q10": float(np.quantile(qualities, 0.1)),
            "q50": float(np.quantile(qualities, 0.5)),
            "q90": float(np.quantile(qualities, 0.9)),
        },
        "irreducibility": red.status,
        "contraction_witness_N": validation.n_witness,
    }
    return summary, rows
