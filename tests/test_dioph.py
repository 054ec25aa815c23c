import numpy as np
import pytest
from mpmath import mp

from expwalk import catalog
from expwalk.dioph import (
    SearchCapError,
    brute_force_quality,
    classify_point,
    flow_trace,
    fractal_experiment,
)
from expwalk.fractal import AffineIFS, check_admissible
from expwalk.kau import WeightPair

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
