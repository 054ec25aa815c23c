import multiprocessing
import os
import threading

import numpy as np
import pytest
from mpmath import mp

from expwalk import catalog, dioph
from expwalk.dioph import (
    SearchCapError,
    brute_force_quality,
    classify_point,
    flow_trace,
    fractal_experiment,
)
from expwalk.fractal import AffineIFS, check_admissible, coding_sample
from expwalk.kau import WeightPair
from expwalk.lattices import ConditioningError, LatticeError

UNIT = WeightPair((1.0,), (1.0,))

with mp.workdps(60):
    GOLDEN_STR = mp.nstr((mp.sqrt(5) - 1) / 2, 55)


def test_brute_rational_points_hit_zero():
    q0, _ = brute_force_quality(np.array([[0.0]]), UNIT, 10)
    assert q0 == 0.0
    qh, (p, q) = brute_force_quality(np.array([[0.5]]), UNIT, 10)
    assert qh == 0.0
    assert abs(q[0]) >= 2 or p[0] * 2 == q[0]


def test_brute_golden_exact_minimum():
    # the exact minimum of q * dist(q*phi, Z) over q <= 1000 is phi^2,
    # attained at q = 1 (frozen from a 60-digit continued-fraction check);
    # the asymptotic constant 1/sqrt(5) is only approached along large
    # Fibonacci denominators
    quality, (p, q) = brute_force_quality(np.array([[catalog.GOLDEN]]), UNIT, 1000)
    phi_sq = (3 - np.sqrt(5)) / 2
    assert abs(quality - phi_sq) < 1e-12
    assert abs(q[0]) == 1


def test_brute_weighted_box():
    wp = WeightPair((0.3, 0.7), (1.0,))
    mat = np.array([[0.37], [0.81]])
    quality, (p, q) = brute_force_quality(mat, wp, 50)
    direct = min(
        max(
            abs(mat[0, 0] * qq - round(mat[0, 0] * qq)) ** (1 / 0.3),
            abs(mat[1, 0] * qq - round(mat[1, 0] * qq)) ** (1 / 0.7),
        )
        * abs(qq)
        for qq in range(1, 51)
    )
    assert abs(quality - direct) < 1e-12


def test_brute_cap():
    with pytest.raises(SearchCapError):
        brute_force_quality(np.array([[0.3]]), UNIT, 10**9, cap=10**6)


def test_brute_huge_horizon_is_refused_by_the_cap():
    # floor(1e20) wrapped in an int64 cast, so the box read negative and
    # passed the cap, then "empty search box; increase t_max"
    with pytest.raises(SearchCapError, match=r"2e\+20 points exceeds the cap 100000000"):
        brute_force_quality(np.array([[0.3]]), UNIT, 1e20)


@pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
def test_brute_rejects_non_finite_horizon(t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        brute_force_quality(np.array([[0.3]]), UNIT, t_max)


@pytest.mark.parametrize("entry", [1e19, 1e305])
def test_brute_refuses_p_past_the_int64_range(entry):
    # the int64 cast of p wrapped to -2^63, and the quality read 0.0
    with pytest.raises(ConditioningError, match=r"\|p\| = 1e\+(20|306), past the int64 range"):
        brute_force_quality(np.array([[entry]]), UNIT, 10)


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_brute_rejects_non_finite_matrix(entry):
    # every box value was NaN, so the search read "empty search box; increase t_max"
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        brute_force_quality(np.array([[entry]]), UNIT, 10)


def test_flow_zero_matrix_is_exact_exponential():
    tr = flow_trace(np.array([[0.0]]), UNIT, 30.0, dt=0.05)
    assert np.abs(tr.minima - np.exp(-tr.t_grid)).max() < 1e-9


def test_flow_zero_matrix_deep_cusp_past_square_overflow():
    # at t=360 the long reduced basis vector e^t has a square past the float range
    tr = flow_trace(0.0, UNIT, 360.0, dt=1.0)
    assert np.all(np.abs(tr.minima / np.exp(-tr.t_grid) - 1.0) < 1e-12)


def test_flow_golden_stays_compact():
    tr = flow_trace(GOLDEN_STR, UNIT, 30.0, dt=0.05)
    assert tr.inf_minima >= 0.4
    longer = flow_trace(GOLDEN_STR, UNIT, 60.0, dt=0.05)
    assert abs(longer.inf_minima - tr.inf_minima) < 0.05


def test_flow_rational_row_collapses():
    tr = flow_trace(np.array([[0.5]]), UNIT, 20.0, dt=0.1)
    assert tr.minima[-1] < 1e-7
    # exponential decay in the tail
    tail = tr.minima[-20:]
    assert np.all(np.diff(np.log(tail)) < 0)


def test_flow_minima_bounded_by_one():
    rng = np.random.default_rng(31)
    for _ in range(5):
        tr = flow_trace(np.array([[rng.uniform()]]), UNIT, 10.0, dt=0.1)
        assert np.all(tr.minima <= 1.0 + 1e-12)
        assert tr.minima[0] <= 1.0 + 1e-12


def test_flow_block_case_runs_in_floats():
    wp = WeightPair((0.5, 0.5), (1.0,))
    tr = flow_trace(np.array([[0.3], [0.4]]), wp, 5.0, dt=0.1)
    assert tr.minima.shape == (51,)
    assert np.all(tr.minima <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        flow_trace(np.array([[0.3], [0.4]]), WeightPair((1.0,), (1.0,)), 5.0)


def test_flow_block_case_keeps_decimal_string_precision():
    # a 40-digit M and the doubles nearest to it part once e^{1.7 t} 1e-17 is O(1)
    wp = WeightPair((0.3, 0.7), (1.0,))
    with mp.workdps(60):
        digits = [[mp.nstr(mp.sqrt(2) - 1, 40)], [mp.nstr(mp.sqrt(3) - 1, 40)]]
        mpfs = [[mp.mpf(row[0])] for row in digits]
    exact = flow_trace(digits, wp, 40.0, dt=0.1)
    assert exact.minima.tobytes() == flow_trace(mpfs, wp, 40.0, dt=0.1).minima.tobytes()
    assert exact.mat.tolist() == [[float(row[0])] for row in digits]
    rounded = flow_trace(exact.mat, wp, 40.0, dt=0.1)
    assert np.allclose(exact.minima[:70], rounded.minima[:70], rtol=1e-12, atol=0.0)
    assert np.abs(exact.minima / rounded.minima - 1.0).max() > 1.0


def test_flow_past_the_reduction_reach_names_t():
    # the squares of e^t and e^-t no longer fit one double range past t = 363
    with pytest.raises(LatticeError, match=r"at t=364: Gram-Schmidt collapsed"):
        flow_trace(0.0, UNIT, 380.0, dt=1.0)
    # one long step: the snapshot itself overflows a double
    with pytest.raises(LatticeError, match=r"at t=800: integer division result too large"):
        flow_trace(0.0, UNIT, 800.0, dt=800.0)


def test_flow_carpet_trace_does_not_depend_on_dt():
    # the exact orbit is one orbit on any grid; the float path read 0.68 here
    ifs = catalog.bm_carpet(2, 3)
    for mat in coding_sample(ifs, 4, seed=1):
        fine = flow_trace(mat, ifs.weightpair, 30.0, dt=0.05).minima
        coarse = flow_trace(mat, ifs.weightpair, 30.0, dt=0.1).minima
        assert np.abs(fine[::2] / coarse - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "mat, weights",
    [
        (0.4142135623730951, UNIT),
        ([[0.3217], [0.7731]], WeightPair((0.3, 0.7), (1.0,))),
        ([[0.3217, 0.7731]], WeightPair((1.0,), (0.4, 0.6))),
    ],
    ids=["1x1", "2x1", "1x2"],
)
def test_flow_trace_is_exact_at_its_precision(monkeypatch, mat, weights):
    trace = flow_trace(mat, weights, 40.0, dt=0.1, siegel_radius=3.0)
    needed = dioph._needed_bits
    monkeypatch.setattr(dioph, "_needed_bits", lambda w, t: 2 * needed(w, t))
    doubled = flow_trace(mat, weights, 40.0, dt=0.1, siegel_radius=3.0)
    assert trace.minima.tobytes() == doubled.minima.tobytes()
    assert trace.extras["siegel"].tobytes() == doubled.extras["siegel"].tobytes()


def test_classify_zero_is_dirichlet_improvable():
    rep = classify_point(np.array([[0.0]]), UNIT, 30.0)
    assert rep.dirichlet_evidence and rep.dirichlet_eps > 0
    assert not rep.badly_approx_evidence


def test_classify_golden_is_badly_approximable():
    rep = classify_point(GOLDEN_STR, UNIT, 30.0)
    assert rep.badly_approx_evidence
    assert not rep.dirichlet_evidence


def test_classify_random_point_looks_generic():
    # a float64 sample is a dyadic rational whose orbit genuinely escapes
    # once e^t reaches its denominator; a 50-digit random point stays
    # Lebesgue-typical over this horizon
    rng = np.random.default_rng(12)
    digits = "0." + "".join(str(d) for d in rng.integers(0, 10, size=50))
    rep = classify_point(digits, UNIT, 60.0)
    assert rep.generic_score > 0.5
    assert abs(rep.siegel_avg / rep.siegel_expected - 1.0) < 0.3
    assert not rep.dirichlet_evidence


def test_admissibility_gate_matches_builder():
    # the experiment and the builder share the same gate function
    ok, why = check_admissible((2, 5))
    assert not ok and "log 2" in why
    from expwalk.fractal import sponge_builder

    with pytest.raises(ValueError, match="log 2"):
        sponge_builder((2, 5), [(0, 0)])


def test_fractal_experiment_refuses_reducible():
    single = AffineIFS((catalog.cantor_ifs().symbols[0],), np.array([1.0]))
    with pytest.raises(ValueError, match="reducible"):
        fractal_experiment(single, UNIT, 5, 5.0, seed=0)


def test_fractal_experiment_cantor_small():
    summary, rows = fractal_experiment(
        catalog.cantor_ifs(), UNIT, 12, 10.0, seed=0, dt=0.1, brute_t_max=50.0
    )
    assert summary["n_points"] == 12
    assert len(rows) == 12
    assert all(0 <= row["inf_minima"] <= 1.0 + 1e-12 for row in rows)
    fr = summary["ba_fraction"]
    # fractions are monotone decreasing in the threshold
    ths = sorted(float(k) for k in fr)
    vals = [fr[repr(t)] for t in ths]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


CARPET = catalog.bm_carpet(2, 3)


def _carpet_census(n_points, seed=4):
    return fractal_experiment(CARPET, CARPET.weightpair, n_points, 4.0, seed=seed,
                              brute_t_max=20.0)


@pytest.mark.parametrize("n_points", [1, 2, 17])
def test_census_is_the_same_for_one_two_and_three_shares(monkeypatch, n_points):
    results = {}
    for shares in (1, 2, 3):
        monkeypatch.setattr(dioph, "_share_count", lambda n, w=shares: min(n, w))
        results[shares] = _carpet_census(n_points)
        assert multiprocessing.active_children() == []
    summary, rows = results[1]
    assert [row["point_id"] for row in rows] == list(range(n_points))
    for shares in (2, 3):
        assert results[shares][0] == summary
        assert results[shares][1] == rows  # exact float equality, key order too
        assert [list(row) for row in results[shares][1]] == [list(row) for row in rows]


def _failing_flow(monkeypatch, failing):
    """flow_trace raising ConditioningError at the points of index ``failing``
    of the n=9 carpet census (a forked worker inherits the patch)."""
    points = coding_sample(CARPET, 9, seed=4)
    real = dioph.flow_trace

    def flow(mat, *args, **kwargs):
        for i in failing:
            if np.array_equal(mat, points[i]):
                raise ConditioningError(f"flow orbit cannot be reduced at point {i}")
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(dioph, "flow_trace", flow)


@pytest.mark.parametrize("shares, failing, first", [
    (2, [4, 7], 4),  # both in the parent's share 0
    (2, [6, 3], 3),  # share 1, a worker's, fails first
    (3, [7, 5], 5),  # two workers: share 2 fails before share 1
    (3, [8, 6], 6),  # the parent's share before a worker's
])
def test_census_raises_the_lowest_failing_point(monkeypatch, shares, failing, first):
    _failing_flow(monkeypatch, failing)
    monkeypatch.setattr(dioph, "_share_count", lambda n: 1)
    with pytest.raises(ConditioningError) as sequential:
        _carpet_census(9)
    assert str(sequential.value) == f"flow orbit cannot be reduced at point {first}"
    monkeypatch.setattr(dioph, "_share_count", lambda n: min(n, shares))
    with pytest.raises(ConditioningError) as split:
        _carpet_census(9)
    assert str(split.value) == str(sequential.value)
    assert multiprocessing.active_children() == []


def test_census_worker_that_dies_names_its_share(monkeypatch):
    parent = os.getpid()
    real = dioph.flow_trace

    def flow(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dioph, "flow_trace", flow)
    monkeypatch.setattr(dioph, "_share_count", lambda n: min(n, 2))
    with pytest.raises(RuntimeError, match=r"census share 1 of 2 \(points 1, 3, \.\.\) was lost"):
        _carpet_census(5)
    assert multiprocessing.active_children() == []


def test_share_count_follows_the_affinity_in_a_single_threaded_process():
    cores = len(os.sched_getaffinity(0))
    assert dioph._share_count(1) == 1
    assert dioph._share_count(10**6) == cores
    # a fork would copy any lock another thread holds: no workers then
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert dioph._share_count(10**6) == 1
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert dioph._share_count(10**6) == cores


def test_flow_grid_error_factor_covers_midpoints():
    # recorded systoles bound the off-grid values within the stated factor
    tr_coarse = flow_trace(GOLDEN_STR, UNIT, 10.0, dt=0.2)
    tr_fine = flow_trace(GOLDEN_STR, UNIT, 10.0, dt=0.05)
    factor = tr_coarse.grid_error_factor
    assert factor > 1.0
    for k, t in enumerate(tr_fine.t_grid):
        j = int(round(t / 0.2))
        if abs(j * 0.2 - t) < 0.051 and j < len(tr_coarse.minima):
            ref = tr_coarse.minima[j]
            assert tr_fine.minima[k] <= ref * factor * (1 + 1e-9)
            assert tr_fine.minima[k] >= ref / factor * (1 - 1e-9)
