"""Acceptance criteria, one test per criterion, with a printed verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not configurable.
"""
import time

import numpy as np
import pytest
from mpmath import mp
from scipy.stats import kendalltau

from expwalk import catalog
from expwalk.dioph import brute_force_quality, flow_trace, fractal_experiment
from expwalk.expansion import (
    ConeSpec,
    expanding_cone_membership,
    expansion_certificate,
    fk_exponent_estimate,
)
from expwalk.fractal import coding_limit, coding_sample, sponge_builder
from expwalk.kau import (
    ParabolicProfile,
    WeightPair,
    equivariance_residual,
    kau_factorize,
    u_limit,
    unipotent,
    word_factors,
)
from expwalk.fractal import affinity_apply, embed_to_pgl, hat_matrix, measure_from_ifs
from expwalk.lattices import (
    HeightSpec,
    contraction_fit,
    lll_reduce,
    margulis_height,
    recurrence_experiment,
    siegel_count,
    standard_lattice,
    walk_simulate,
)
from expwalk.measures import sample_word

UNIT = WeightPair((1.0,), (1.0,))

with mp.workdps(60):
    GOLDEN_STR = mp.nstr((mp.sqrt(5) - 1) / 2, 55)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} {name}  {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_cone_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(101)
    cases = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]
    per_case = 1000 // len(cases) + 1
    agree = 0
    total = 0
    for m, n in cases:
        spec = ConeSpec(m + n, (m, n))
        for _ in range(per_case):
            v = rng.normal(size=m + n)
            v -= v.mean()
            closed = bool(np.all(v[:m] > 0) and np.all(v[m:] < 0))
            agree += expanding_cone_membership(spec, v).inside == closed
            total += 1
    elapsed = time.time() - t0
    _report(
        1,
        "expanding-cone membership matches the closed-form block test",
        agree == total and elapsed < 5.0,
        f"{agree}/{total} agree in {elapsed:.2f}s",
    )


def test_criterion_02_cone_intersection_family():
    spec = ConeSpec(4, (2, 1, 1))
    rng = np.random.default_rng(202)
    agree = 0
    total = 0
    while total < 1000:
        alpha, beta = np.exp(rng.uniform(-2, 2, size=2))
        if abs(np.log(beta)) < 1e-6 or abs(np.log(alpha * beta)) < 1e-6:
            continue
        c = -0.5 * np.log(alpha * beta)
        logs = [c, c, np.log(alpha), np.log(beta)]
        closed = beta < 1.0 and alpha * beta < 1.0
        agree += expanding_cone_membership(spec, logs).inside == closed
        total += 1
    _report(
        2,
        "cone of the (2,1,1) parabolic meets the central torus where expected",
        agree == total,
        f"{agree}/{total} agree",
    )


def test_criterion_03_expansion_certificates():
    t0 = time.time()
    diag_cert = expansion_certificate(catalog.diagonal_geodesic_sl2(), "std", N=1, seed=0)
    ok_a = (not diag_cert.passed) and abs(diag_cert.C_lower + np.log(3)) < 1e-6

    pair_pass = []
    for n in range(1, 7):
        cert = expansion_certificate(catalog.positive_pair_sl2(), "std", N=n, seed=0)
        assert cert.mode == "exact"
        pair_pass.append(cert.passed)
    ok_b = any(pair_pass)

    five = expansion_certificate(
        catalog.sl4_five_generator_measure(),
        "std",
        N=24,
        mode="mc",
        mc_words=4000,
        sphere_samples=600,
        confidence=0.95,
        seed=0,
    )
    ok_c = five.passed and five.mode == "monte-carlo" and five.confidence == 0.95
    elapsed = time.time() - t0
    _report(
        3,
        "certificates: diagonal fails at -log3, positive pair passes by N=6, "
        "five-matrix SL4 walk passes Monte Carlo at 95%",
        ok_a and ok_b and ok_c and elapsed < 600.0,
        f"diag={diag_cert.C_lower:.8f} pairN={pair_pass.index(True) + 1} "
        f"five C_lower={five.C_lower:.3f} in {elapsed:.1f}s",
    )


def test_criterion_04_fk_exponent_centered():
    mean, err = fk_exponent_estimate(
        catalog.commuting_diagonal_sl3(), [1.0, 0.0, 0.0], 10**4, 100, seed=4
    )
    _report(
        4,
        "commuting-diagonal SL3 exponent is 0 within 3 standard errors",
        abs(mean) <= 3 * err and err < 0.01,
        f"mean={mean:.5f} stderr={err:.5f}",
    )


def test_criterion_05_siegel_haar_average():
    static_ok = siegel_count(standard_lattice(2), 3.0) == 28
    haar = np.pi * 9.0
    # Z^2 is fixed by both SL2(Z) atoms of the pair, so the walk starts at a
    # non-arithmetic point, whose orbit equidistributes (Benoist-Quint)
    x0 = lll_reduce([[1.0, np.sqrt(2.0)], [0.0, 1.0]])
    finals = []
    for seed in range(5):
        rec = walk_simulate(
            catalog.positive_pair_sl2(),
            x0,
            10**5,
            ["siegel:3.0"],
            seed=seed,
        )
        finals.append(rec.running["siegel:3.0"][-1])
    avg = float(np.mean(finals))
    rel = abs(avg / haar - 1.0)
    _report(
        5,
        "Birkhoff average of the ball count matches the Haar (Siegel) value",
        static_ok and rel < 0.10,
        f"avg={avg:.3f} target={haar:.3f} rel={rel:.3%} seeds=5",
    )


def test_criterion_06_height_contraction_recurrence():
    height = HeightSpec(epsilon=0.1, delta=0.3)
    exact = margulis_height(standard_lattice(2), HeightSpec(epsilon=0.1, delta=1.0))
    ok_height = abs(exact - 0.01) < 1e-12

    mu = catalog.positive_pair_sl2()
    fit = contraction_fit(mu, height, m=6, sample_points=200, seed=6)
    ok_fit = fit.ok and fit.a_hat < 1.0 and fit.violation_count == 0

    n_grid = list(range(2, 49, 2))
    burn_ins = []
    ok_mass = True
    for j in range(1, 7):
        x0 = lll_reduce(np.diag([10.0**j, 10.0**-j]))
        table = recurrence_experiment(
            mu, height, 0.1, x0, n_grid, mc_trials=150, seed=60 + j, fit=fit
        )
        b = table.burn_in(0.9)
        ok_mass = ok_mass and b is not None
        burn_ins.append(b if b is not None else np.inf)
    burn = np.array(burn_ins, dtype=float)
    js = np.arange(1, 7, dtype=float)
    coef = np.polyfit(js, burn, 1)
    resid = np.abs(np.polyval(coef, js) - burn).max()
    ok_growth = np.isfinite(burn).all() and coef[0] >= -1e-9 and resid <= 4.0
    _report(
        6,
        "height exact on Z^2; contraction fit verified; recurrence past a "
        "burn-in growing at most linearly in log height",
        ok_height and ok_fit and ok_mass and ok_growth,
        f"a_hat={fit.a_hat:.3f} b_hat={fit.b_hat:.3f} burn-ins={burn_ins} "
        f"slope={coef[0]:.2f} resid={resid:.2f}",
    )


def test_criterion_07_kau_identities():
    prof11 = ParabolicProfile(1, 1)
    mu_c = catalog.cantor_measure()
    mu_r = measure_from_ifs(catalog.rotation_sponge_ifs())
    worst_equiv = 0.0
    worst_lambda = 0.0
    for mu, prof, tol_label in ((mu_c, prof11, "cantor"), (mu_r, mu_r.profile, "sponge")):
        for i in range(50):
            word = list(sample_word(mu, 20, seed=700 + i))
            worst_equiv = max(worst_equiv, equivariance_residual(word, prof))
            facs = word_factors(word, prof)
            lam = np.cumsum([kau_factorize(g, prof).t for g in word])
            worst_lambda = max(
                worst_lambda, max(abs(f.t - s) for f, s in zip(facs, lam))
            )
    g1 = embed_to_pgl(catalog.cantor_ifs().symbols[1])
    m_lim, _ = u_limit(iter([g1] * 400), prof11, tol=1e-13)
    ok = worst_equiv < 1e-8 and worst_lambda < 1e-10 and abs(m_lim[0, 0] - 1.0) < 1e-9
    _report(
        7,
        "shift-equivariance, lambda additivity, and the constant-word "
        "unipotent limit",
        ok,
        f"equiv={worst_equiv:.2e} lambda={worst_lambda:.2e} "
        f"u_limit={float(m_lim[0, 0])!r}",
    )


def test_criterion_08_embedding_identities():
    rng = np.random.default_rng(808)
    worst_key = 0.0
    for _ in range(1000):
        m_dim, n_dim = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        from expwalk.fractal import MatrixAffinity

        a1 = rng.normal(size=(m_dim, m_dim)) + 2 * np.eye(m_dim)
        a2 = rng.normal(size=(n_dim, n_dim)) + 2 * np.eye(n_dim)
        phi = MatrixAffinity(a1, a2, rng.normal(size=(m_dim, n_dim)))
        mat = rng.normal(size=(m_dim, n_dim))
        hat = hat_matrix(phi)
        lhs = hat @ unipotent(mat) @ np.linalg.inv(hat) @ unipotent(phi.b)
        rhs = unipotent(affinity_apply(phi, mat))
        worst_key = max(worst_key, float(np.abs(lhs - rhs).max()))
    ok_key = worst_key < 1e-10

    # iterated identity on words up to length 30; entries grow like
    # 3^(n/2) so the tolerance is read relative to the product magnitude
    ifs = catalog.cantor_ifs()
    worst_iter = 0.0
    for trial in range(30):
        length = int(rng.integers(1, 31))
        word = list(rng.integers(0, 2, size=length))
        prod = np.eye(2)
        hat_prod = np.eye(2)
        for idx in word:
            prod = embed_to_pgl(ifs.symbols[idx]) @ prod
        for idx in reversed(word):
            hat_prod = hat_prod @ np.linalg.inv(hat_matrix(ifs.symbols[idx]))
        comp = np.array([[0.0]])
        for idx in reversed(word):
            comp = affinity_apply(ifs.symbols[idx], comp)
        rhs = hat_prod @ unipotent(comp)
        scale = max(1.0, float(np.abs(rhs).max()))
        worst_iter = max(worst_iter, float(np.abs(prod - rhs).max()) / scale)
    ok_iter = worst_iter < 1e-9
    _report(
        8,
        "one-step and iterated embedding identities",
        ok_key and ok_iter,
        f"one-step={worst_key:.2e} iterated(rel)={worst_iter:.2e}",
    )


def test_criterion_09_weights_pipeline():
    ifs = sponge_builder((2, 3), [(0, 0), (1, 1), (0, 2)])
    r = ifs.weightpair.r
    ok_r = abs(r[0] - 0.16056) < 1e-5 and abs(r[1] - 0.83944) < 1e-5
    try:
        sponge_builder((2, 5), [(0, 0)])
        ok_reject = False
        message = "no rejection"
    except ValueError as err:
        message = str(err)
        ok_reject = "log 2" in message and "0.8047" in message
    _report(
        9,
        "carpet weight formula and the admissibility rejection",
        ok_r and ok_reject,
        f"r={tuple(round(v, 6) for v in r)} reject='{message[:72]}...'",
    )


def test_criterion_10_fractal_coding():
    from itertools import cycle

    ifs = catalog.cantor_ifs()
    point = coding_limit(ifs, cycle([1, 0]), tol=1e-12)[0, 0]
    ok_point = abs(point - 0.75) < 1e-9
    cloud = coding_sample(ifs, 10**4, seed=10).ravel()
    frac_mid = float(np.mean((cloud > 1 / 3) & (cloud < 2 / 3)))
    ok_gap = frac_mid < 0.005
    _report(
        10,
        "coding map fixed point and the middle-third gap",
        ok_point and ok_gap,
        f"pi(1010..)={float(point)!r} middle-third mass={frac_mid:.4f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated range [0.44, 0.46] equals the asymptotic constant 1/sqrt(5); "
        "the exact minimum over q <= 1000 is golden^2 = 0.381966 attained at "
        "q = 1 (verified against a 60-digit continued-fraction oracle), so "
        "the criterion as written cannot hold for the exact search"
    ),
)
def test_criterion_11a_brute_quality_stated_range():
    quality, _ = brute_force_quality(np.array([[catalog.GOLDEN]]), UNIT, 1000)
    ok = 0.44 <= quality <= 0.46
    print(
        f"\n[criterion 11a] {'PASS' if ok else 'FAIL (expected)'} golden brute "
        f"quality in [0.44, 0.46]  got {quality:.6f} = golden^2 (exact oracle)"
    )
    assert ok


def test_criterion_11_diophantine_oracles():
    golden_trace = flow_trace(GOLDEN_STR, UNIT, 30.0, dt=0.05)
    ok_golden_flow = golden_trace.inf_minima >= 0.4

    zero_trace = flow_trace(np.array([[0.0]]), UNIT, 30.0, dt=0.05)
    ok_zero = np.abs(zero_trace.minima - np.exp(-zero_trace.t_grid)).max() < 1e-9

    # 50-point cross-oracle ranking: rationals, quadratic irrationals
    # (supplied to the flow at 55 digits), Lebesgue-random points.  The
    # correspondence is scale-for-scale: denominators up to T = 10^3 are
    # balanced by the flow near t = ln(T^2 / quality) / 2 ~ 7.3, so the
    # ranking window is matched there (a much longer window would rank
    # deeper approximations the bounded search cannot see)
    with mp.workdps(60):
        quadratics = [
            mp.nstr(mp.sqrt(2) - 1, 55),
            mp.nstr(mp.sqrt(3) - 1, 55),
            mp.nstr(mp.sqrt(5) - 2, 55),
            mp.nstr((mp.sqrt(13) - 3) / 2, 55),
            mp.nstr(mp.sqrt(7) - 2, 55),
            mp.nstr(mp.sqrt(6) - 2, 55),
            mp.nstr((mp.sqrt(5) - 1) / 2, 55),
            mp.nstr(2 - mp.sqrt(2), 55),
            mp.nstr(mp.sqrt(10) - 3, 55),
            mp.nstr((mp.sqrt(17) - 4), 55),
            mp.nstr((1 + mp.sqrt(2)) / 3 - mp.floor((1 + mp.sqrt(2)) / 3), 55),
            mp.nstr(mp.sqrt(11) - 3, 55),
            mp.nstr(mp.sqrt(8) - 2, 55),
            mp.nstr((mp.sqrt(21) - 4), 55),
            mp.nstr((mp.sqrt(29) - 5), 55),
        ]
    rationals = [
        1 / 3, 2 / 5, 3 / 7, 1 / 7, 5 / 8, 4 / 9, 2 / 11, 7 / 12, 5 / 13, 9 / 20
    ]
    rng = np.random.default_rng(1111)
    randoms = list(rng.uniform(0.01, 0.99, size=25))
    points = [(q, "mp") for q in quadratics]
    points += [(v, "float") for v in rationals + randoms]

    qualities = []
    inf_minima = []
    for value, kind in points:
        mat_val = value if kind == "mp" else np.array([[value]])
        tr = flow_trace(mat_val, UNIT, 7.5, dt=0.05)
        inf_minima.append(tr.inf_minima)
        mfloat = float(mp.mpf(value)) if kind == "mp" else value
        q, _ = brute_force_quality(np.array([[mfloat]]), UNIT, 1000)
        qualities.append(q)
    tau = kendalltau(qualities, inf_minima).statistic
    ok_tau = tau >= 0.8
    _report(
        11,
        "golden orbit compact, zero orbit exactly exponential, and the two "
        "oracles rank 50 points consistently",
        ok_golden_flow and ok_zero and ok_tau,
        f"golden_inf={golden_trace.inf_minima:.4f} kendall_tau={tau:.3f}",
    )


def test_criterion_12_carpet_end_to_end():
    t0 = time.time()
    ifs = catalog.bm_carpet(2, 3)
    weights = WeightPair(ifs.weightpair.r, ifs.weightpair.s)
    fractions = []
    for t_max in (10.0, 20.0, 40.0):
        summary, _ = fractal_experiment(
            ifs, weights, 100, t_max, seed=12, dt=0.05, thresholds=(0.15,),
            brute_t_max=100.0,
        )
        fractions.append(summary["ba_fraction"][repr(0.15)])
    elapsed = time.time() - t0
    ok_trend = fractions[0] >= fractions[1] >= fractions[2]
    _report(
        12,
        "carpet points lose badly-approximable evidence as the horizon grows",
        ok_trend and elapsed < 1800.0,
        f"fractions={fractions} in {elapsed:.0f}s",
    )
