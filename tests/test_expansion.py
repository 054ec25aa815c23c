import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog, minimize

from expwalk import catalog, expansion
from expwalk.expansion import (
    ConeSpec,
    a_expanding_check,
    expanding_cone_membership,
    expansion_certificate,
    fk_exponent_estimate,
    relative_expansion_sweep,
    _batch_objective_factory,
    _nelder_mead_batch,
    _sum_squares,
    _word_images,
)
from expwalk.measures import ConvolutionCapError, GroupMeasure, _word_products
from expwalk.rng import substream


def test_fk_deterministic_diagonal():
    mu = catalog.diagonal_geodesic_sl2()
    mean, err = fk_exponent_estimate(mu, [1.0, 0.0], 200, 5, seed=0)
    assert abs(mean - np.log(3)) < 1e-12 and err < 1e-12
    mean, err = fk_exponent_estimate(mu, [0.0, 1.0], 200, 5, seed=0)
    assert abs(mean + np.log(3)) < 1e-12


def test_fk_commuting_sl3_is_centered():
    mu = catalog.commuting_diagonal_sl3()
    mean, err = fk_exponent_estimate(mu, [1.0, 0.0, 0.0], 2000, 30, seed=1)
    assert abs(mean) <= 3 * err
    assert err < 0.05


def test_fk_rejects_bad_input():
    mu = catalog.diagonal_geodesic_sl2()
    with pytest.raises(ValueError):
        fk_exponent_estimate(mu, [0.0, 0.0], 100, 5)
    with pytest.raises(ValueError):
        fk_exponent_estimate(mu, [1.0, 0.0], 5, 5)


def test_certificate_single_diagonal_fails_at_log3():
    cert = expansion_certificate(catalog.diagonal_geodesic_sl2(), "std", N=1, seed=0)
    assert not cert.passed
    assert cert.mode == "exact" and cert.confidence == 1.0
    assert abs(cert.C_lower + np.log(3)) < 1e-6
    assert abs(abs(cert.witness[1]) - 1.0) < 1e-4
    assert cert.verdict.startswith("FAIL")


def test_zero_bound_verdict_claims_no_negative_integral():
    # every word of SL2 acts on wedge:2 by its determinant 1, so the bound is 0
    mu = catalog.positive_pair_sl2()
    for kwargs in ({}, {"mode": "mc", "mc_words": 50}):
        cert = expansion_certificate(mu, "wedge:2", N=3, seed=0, **kwargs)
        assert cert.C_lower == 0.0 and not cert.passed
        assert cert.verdict == "FAIL (witness v with zero lower bound)"
    negative = expansion_certificate(catalog.diagonal_geodesic_sl2(), "std", N=1, seed=0)
    assert negative.verdict == "FAIL (witness v with negative integral)"
    # a Monte-Carlo bound below 0 says nothing about the sign of the integral
    sampled = expansion_certificate(catalog.diagonal_geodesic_sl2(), "std", N=1, seed=0,
                                    mode="mc", mc_words=50)
    assert sampled.mode == "monte-carlo" and sampled.C_lower < 0.0
    assert sampled.verdict == "FAIL (negative lower confidence bound at witness v)"


def test_certificate_positive_pair_passes_by_six():
    mu = catalog.positive_pair_sl2()
    passed = []
    for n in range(1, 7):
        cert = expansion_certificate(mu, "std", N=n, seed=0)
        assert cert.mode == "exact"
        passed.append(cert.passed)
    assert any(passed)


def objective_ref(word_mats, word_wts, transform=np.log):
    """The scalar objective v -> sum_w weight * transform(|W v| / |v|) that
    the batch objective reproduces row by row."""

    def objective(v):
        nrm = np.linalg.norm(v)
        if nrm < 1e-300 or not np.isfinite(nrm):
            return 1e6
        u = v / nrm
        images = word_mats @ u
        return float(word_wts @ transform(np.linalg.norm(images, axis=-1)))

    return objective


def test_certificate_objective_scale_invariant_exactly():
    mu = catalog.positive_pair_sl2()
    f = _batch_objective_factory(mu.matrices, mu.weights, np.log, chunk=8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(size=2)
        vals = f(np.array([v, 2.0 * v, 0.25 * v]))
        assert vals[0] == vals[1] == vals[2]


@pytest.mark.parametrize("dim", range(1, 25))
def test_batch_objective_matches_scalar_reference_for_every_dim(dim):
    # stacked images (dim <= 8) and per-word ones alike; 301 words put
    # OpenBLAS's threaded row split off a word boundary, a chunk boundary
    # falls inside the points, and the zero and NaN rows read 1e6
    rng = np.random.default_rng(100 + dim)
    for n_words in (1, 7, 300, 301):
        word_mats = rng.normal(size=(n_words, dim, dim)) * rng.uniform(0.1, 10.0, (n_words, 1, 1))
        word_wts = rng.dirichlet(np.ones(n_words))
        points = rng.normal(size=(9, dim))
        points[3] = 0.0
        points[6] = np.nan
        images = _word_images(word_mats, points[:3])
        assert images.tobytes() == np.array([word_mats @ p for p in points[:3]]).tobytes()
        norms = np.linalg.norm(images, axis=-1)
        assert np.sqrt(_sum_squares(images)).tobytes() == norms.tobytes()
        batch = _batch_objective_factory(word_mats, word_wts, np.log, chunk=4)
        scalar = objective_ref(word_mats, word_wts)
        assert batch(points).tobytes() == np.array([scalar(p) for p in points]).tobytes()


@pytest.mark.parametrize("dim", range(1, 25))
def test_batch_objective_one_chunk_matches_scalar_reference(dim):
    # calls that fit one chunk: all-good rows take the unmasked path, a zero,
    # infinite or NaN row sends the call down the masked one; no rows, no values
    rng = np.random.default_rng(200 + dim)
    for n_words in (1, 7, 300, 301):
        word_mats = rng.normal(size=(n_words, dim, dim)) * rng.uniform(0.1, 10.0, (n_words, 1, 1))
        word_wts = rng.dirichlet(np.ones(n_words))
        points = rng.normal(size=(9, dim)) * rng.uniform(1e-3, 1e3, (9, 1))
        batch = _batch_objective_factory(word_mats, word_wts, np.log, chunk=9)
        scalar = objective_ref(word_mats, word_wts)
        for bad in (None, 0.0, np.inf, np.nan):
            rows = points.copy()
            if bad is not None:
                rows[4] = bad
            for part in (rows[:1], rows[:5], rows):
                expected = np.array([scalar(p) for p in part])
                assert batch(part).tobytes() == expected.tobytes()
        assert batch(points[:0]).shape == (0,)


def _moment(norms):
    return -(norms ** (-0.3))


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 9, 12, 15])
@pytest.mark.parametrize("transform", [np.log, _moment], ids=["log", "moment"])
def test_nelder_mead_batch_matches_scipy_bit_for_bit(dim, transform):
    rng = np.random.default_rng(dim)
    n_words = 5 if dim == 15 else 12
    word_mats = rng.normal(size=(n_words, dim, dim))
    word_wts = rng.dirichlet(np.ones(n_words))
    x0 = rng.normal(size=(4, dim))
    x0[1, dim // 2] = 0.0  # initial simplex takes scipy's zdelt step there
    options = {"xatol": 1e-8, "fatol": 1e-13, "maxiter": 300 * dim}

    scalar = objective_ref(word_mats, word_wts, transform)
    batch = _batch_objective_factory(word_mats, word_wts, transform, chunk=7)
    points = np.vstack([x0, np.zeros(dim), np.full(dim, np.nan)])
    assert batch(points).tolist() == [scalar(p) for p in points]

    xs, funs = _nelder_mead_batch(batch, x0, *options.values())
    shrinks = 0
    for x, fun, start in zip(xs, funs, x0):
        evals = [0]

        def counted(v):
            evals[0] += 1
            return scalar(v)

        per_iter = []
        res = minimize(
            counted, start, method="Nelder-Mead", options=options,
            callback=lambda _: per_iter.append(evals[0]),
        )
        assert x.tobytes() == np.asarray(res.x).tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        # more than two evaluations in one iteration means a shrink step
        shrinks += int(np.any(np.diff(per_iter) > 2))
    if dim < 12:  # these descents reach the shrink step; the 12- and 15-dim ones do not
        assert shrinks > 0


def test_nelder_mead_batch_retires_fixed_points_exactly(monkeypatch):
    # the descents of a five-generator Monte-Carlo certificate (std, N=24,
    # 150 words, seed 937876283), of which some reach a bitwise fixed point
    # before maxiter: each start still returns scipy's (x, fun), and leaving
    # the batch at the fixed point saves objective rows
    seen = {}

    def factory(word_mats, word_wts, transform, chunk):
        seen["words"] = word_mats, word_wts
        return _batch_objective_factory(word_mats, word_wts, transform, chunk)

    def descents(objective, x0, *options):
        seen["descents"] = objective, x0, options
        return _nelder_mead_batch(objective, x0, *options)

    monkeypatch.setattr(expansion, "_batch_objective_factory", factory)
    monkeypatch.setattr(expansion, "_nelder_mead_batch", descents)
    expansion_certificate(
        catalog.sl4_five_generator_measure(), "std", N=24, mode="mc", mc_words=150,
        sphere_samples=200, seed=937876283,
    )
    objective, x0, (xatol, fatol, maxiter) = seen["descents"]
    rows = [0]

    def counted(points):
        rows[0] += len(points)
        return objective(points)

    xs, funs = _nelder_mead_batch(counted, x0, xatol, fatol, maxiter)
    scalar = objective_ref(*seen["words"])
    options = {"xatol": xatol, "fatol": fatol, "maxiter": maxiter}
    nfev = 0
    for x, fun, start in zip(xs, funs, x0):
        res = minimize(scalar, start, method="Nelder-Mead", options=options)
        assert x.tobytes() == np.asarray(res.x).tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        nfev += res.nfev
    assert rows[0] < nfev


def test_monte_carlo_certificate_confidence_invariant():
    mu = catalog.positive_pair_sl2()
    cert = expansion_certificate(
        mu, "std", N=4, mode="mc", mc_words=500, confidence=0.9, seed=0
    )
    assert cert.mode == "monte-carlo" and cert.confidence == 0.9
    exact = expansion_certificate(mu, "std", N=4, seed=0)
    assert cert.C_lower <= exact.C_lower + 0.1


def test_relative_sweep_positive_pair():
    sweep = relative_expansion_sweep(catalog.positive_pair_sl2(), 2, N=3, seed=0)
    assert len(sweep) == 2
    assert all(c.passed for c in sweep)
    # the bits of the fixed-space words' products (one word-product path)
    assert [repr(c.C_lower) for c in sweep] == ["0.5883437327179072", "0.5883437327179353"]


def test_relative_sweep_identity_fails():
    mu = GroupMeasure.dirac(np.eye(2))
    sweep = relative_expansion_sweep(mu, 1, N=2, seed=0)
    assert not sweep[0].passed
    assert repr(sweep[0].C_lower) == "0.0"


def test_relative_sweep_diagonal_adjoint_value():
    sweep = relative_expansion_sweep(catalog.diagonal_geodesic_sl2(), 1, N=1, seed=0)
    assert abs(sweep[0].C_lower + 2 * np.log(3)) < 1e-6
    assert repr(sweep[0].C_lower) == "-2.1972245773362196"


def test_fk_consistent_with_certificate():
    mu = catalog.positive_pair_sl2()
    cert = expansion_certificate(mu, "std", N=4, seed=0)
    assert cert.passed
    rng = np.random.default_rng(8)
    v = rng.normal(size=2)
    mean, err = fk_exponent_estimate(mu, v, 2000, 20, seed=3)
    assert mean >= cert.C_lower / cert.N - 3 * err


@pytest.mark.parametrize("confidence", [0.95, 0.99, 0.999])
def test_monte_carlo_bound_takes_scipys_normal_quantile_bit_for_bit(confidence):
    from scipy.special import ndtri

    mu = catalog.positive_pair_sl2()
    cert = expansion_certificate(mu, "std", N=3, mode="mc", mc_words=50, sphere_samples=40,
                                 confidence=confidence, seed=3)
    words, _, _ = _word_products(mu.matrices, mu.weights, 3, "mc", 10**6, 50, substream(3, 0))
    per_word = np.log(np.linalg.norm(_word_images(words, cert.witness[None])[0], axis=-1))
    stderr = float(per_word.std(ddof=1) / np.sqrt(len(per_word)))
    assert cert.C_lower == float(per_word.mean() - float(ndtri(confidence)) * stderr)


def test_cone_block_22_examples():
    spec = ConeSpec(4, (2, 2))
    assert expanding_cone_membership(spec, [1, 1, -1, -1]).inside
    res = expanding_cone_membership(spec, [1, -1, 1, -1])
    assert not res.inside
    assert not expanding_cone_membership(spec, [0, 0, 0, 0]).inside


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_cone_refuses_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        expanding_cone_membership(ConeSpec(4, (2, 2)), [-1, -1, 1, 1], tol=tol)


def test_cone_witness_reconstructs_logs():
    spec = ConeSpec(4, (2, 2))
    res = expanding_cone_membership(spec, [1, 1, -1, -1])
    recon = np.zeros(4)
    for (i, j), t in res.coefficients.items():
        assert t > 0
        recon[i] += t
        recon[j] -= t
    assert np.abs(recon - [1, 1, -1, -1]).max() < 1e-8


def test_cone_separator_is_valid_dual():
    spec = ConeSpec(4, (2, 2))
    logs = np.array([1.0, -1.0, 1.0, -1.0])
    res = expanding_cone_membership(spec, logs)
    y = res.separator
    for i, j in spec.root_pairs:
        assert y[i] - y[j] >= -1e-9
    assert float(y @ logs) <= res.margin + 1e-9


def _cone_lp(spec, logs):
    """The cone LP "maximize tau subject to sum t_ij (e_i - e_j) = logs,
    t_ij >= tau" by scipy's HiGHS: (tau, t per root pair), the last
    (redundant) equality row dropped."""
    d, pairs = spec.dim, spec.root_pairs
    p = len(pairs)
    a_eq = np.zeros((d - 1, p + 1))
    for col, (i, j) in enumerate(pairs):
        if i < d - 1:
            a_eq[i, col] += 1.0
        if j < d - 1:
            a_eq[j, col] -= 1.0
    a_ub = np.hstack([-np.eye(p), np.ones((p, 1))])
    c = np.zeros(p + 1)
    c[p] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(p), A_eq=a_eq, b_eq=logs[: d - 1],
                  bounds=[(None, None)] * (p + 1), method="highs")
    assert res.status == 0, res.message
    return float(res.x[p]), res.x[:p]


@pytest.mark.parametrize("seed", range(6))
def test_cone_closed_form_matches_the_lp(seed):
    # seeded block parabolics of 2-4 blocks of sizes 1-3; odd draws are
    # interior points (positive root combinations), even draws generic points
    rng = np.random.default_rng([seed, 11])
    for draw in range(100):
        blocks = tuple(int(b) for b in rng.integers(1, 4, size=int(rng.integers(2, 5))))
        spec = ConeSpec(sum(blocks), blocks)
        if draw % 2:
            logs = np.zeros(spec.dim)
            for i, j in spec.root_pairs:
                t = rng.uniform(0.01, 2.0)
                logs[i] += t
                logs[j] -= t
        else:
            logs = rng.normal(size=spec.dim)
            logs -= logs.mean()
        res = expanding_cone_membership(spec, logs)
        tau_lp, _ = _cone_lp(spec, logs)
        assert res.inside == (tau_lp > expansion.CONE_TOL)
        assert abs(res.margin - tau_lp) <= 1e-12 * max(1.0, abs(tau_lp))
        if res.inside:
            assert res.separator is None
            recon = np.zeros(spec.dim)
            for (i, j), t in res.coefficients.items():
                assert t >= res.margin
                recon[i] += t
                recon[j] -= t
            assert np.abs(recon - logs).max() <= 1e-12
        else:
            y = res.separator
            assert res.coefficients is None and y[-1] == 0.0
            assert all(y[i] - y[j] >= 0.0 for i, j in spec.root_pairs)
            assert abs(y @ logs - res.margin) <= 1e-12


def test_cone_d_alpha_beta_family():
    spec = ConeSpec(4, (2, 1, 1))

    def logs(alpha, beta):
        c = -0.5 * np.log(alpha * beta)
        return [c, c, np.log(alpha), np.log(beta)]

    assert expanding_cone_membership(spec, logs(2.0, 0.25)).inside
    assert not expanding_cone_membership(spec, logs(0.5, 3.0)).inside


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_matches_closed_form_for_two_blocks(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    spec = ConeSpec(m + n, (m, n))
    v = rng.normal(size=m + n)
    v -= v.mean()
    closed = bool(np.all(v[:m] > 0) and np.all(v[m:] < 0))
    assert expanding_cone_membership(spec, v).inside == closed


def test_a_expanding_examples():
    spec = ConeSpec(4, (2, 2))
    assert a_expanding_check(spec, [1, 1, -1, -1], 1)
    assert not a_expanding_check(spec, [-1, -1, 1, 1], 1)
    for k in (1, 2, 3):
        assert not a_expanding_check(spec, [0, 0, 0, 0], k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_membership_implies_a_expansion_all_grades(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    d = m + n
    spec = ConeSpec(d, (m, n))
    # a guaranteed interior point: positive combination of the roots
    logs = np.zeros(d)
    for i, j in spec.root_pairs:
        t = rng.uniform(0.2, 2.0)
        logs[i] += t
        logs[j] -= t
    assert expanding_cone_membership(spec, logs).inside
    for k in range(1, d):
        assert a_expanding_check(spec, logs, k)


def test_certificate_exact_mode_signals_fallback():
    mu = catalog.positive_pair_sl2()
    with pytest.raises(ConvolutionCapError):
        expansion_certificate(mu, "std", N=30, mode="exact", cap=10**6)


def test_certificate_exact_on_large_commuting_products():
    # the minimum of the mean of log|gv| over 30-letter words is the
    # contracted axis: -15 log 3 - 15 log 2, attained at v = e_2
    mu = GroupMeasure.uniform([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    cert = expansion_certificate(mu, "std", N=30, mode="exact", cap=10**12, seed=0)
    assert cert.mode == "exact" and not cert.passed
    assert abs(cert.C_lower + 15 * np.log(6)) < 1e-9


def test_exact_certificate_memory_is_bounded_by_image_elements():
    # 1,024 words x 10,000 sphere samples x dim 2: one pass over all samples
    # would hold 164 MB of images and about 0.5 GB at its peak
    tracemalloc.start()
    try:
        cert = expansion_certificate(
            catalog.positive_pair_sl2(), "std", N=10, mode="exact", sphere_samples=10_000
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.mode == "exact" and cert.passed
    assert peak < 150 * 2**20


def test_relative_sweep_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        relative_expansion_sweep(catalog.positive_pair_sl2(), 3, N=1, dim_cap=2)


def test_moment_contraction_positive_pair():
    from expwalk.expansion import moment_contraction_estimate

    mu = catalog.positive_pair_sl2()
    ratios = [
        moment_contraction_estimate(mu, "std", delta=0.3, N=n, seed=0)[0]
        for n in (1, 4, 8)
    ]
    assert ratios[-1] < 1.0
    with pytest.raises(ValueError, match="unknown mode"):
        moment_contraction_estimate(mu, "std", delta=0.3, N=2, mode="exakt")
    with pytest.raises(ValueError, match="sphere_samples must be at least 1"):
        moment_contraction_estimate(mu, "std", delta=0.3, N=2, sphere_samples=0)
    # the identity walk cannot contract any moment
    flat, _ = moment_contraction_estimate(
        GroupMeasure.dirac(np.eye(2)), "std", delta=0.3, N=4, seed=0
    )
    assert abs(flat - 1.0) < 1e-9


def test_embedded_cantor_walk_is_expanding():
    # the walk driven by the embedded Cantor IFS is expanding: its flow
    # average is positive and the unipotent parts span, so the integral
    # certificate should go positive at a small word length
    mu = catalog.cantor_measure()
    cert = expansion_certificate(mu, "std", N=4, seed=0)
    assert cert.passed
