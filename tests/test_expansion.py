import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy.optimize import linprog, minimize

from expwalk import catalog, expansion
from expwalk.expansion import (
    ConeSpec,
    expanding_cone_membership,
    expansion_certificate,
    fk_exponent_estimate,
    moment_contraction_estimate,
    relative_expansion_sweep,
    _descend,
    _objective_factory,
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


def objective_ref(word_mats, word_wts, delta=None):
    """The scalar objective v -> sum_w weight * tau(|W v| / |v|) that the
    batch objective reproduces row by row."""

    def objective(v):
        u = v / np.linalg.norm(v)
        norms = np.linalg.norm(word_mats @ u, axis=-1)
        return float(word_wts @ (np.log(norms) if delta is None else -(norms ** (-delta))))

    return objective


def gradient_ref(word_mats, word_wts, delta=None):
    """The Euclidean gradient of v -> objective(v / |v|), written out term by
    term: on the unit sphere it is the Riemannian gradient."""

    def value_and_gradient(v):
        r = np.linalg.norm(v)
        u = v / r
        images = word_mats @ u
        norms = np.linalg.norm(images, axis=-1)
        if delta is None:
            value, scale = word_wts @ np.log(norms), word_wts / norms**2
        else:
            value, scale = -(word_wts @ norms ** (-delta)), delta * word_wts * norms ** (-delta - 2)
        euclid = np.einsum("w,wji,wj->i", scale, word_mats, images)
        return value, (euclid - (euclid @ u) * u) / r

    return value_and_gradient


def test_certificate_objective_scale_invariant_exactly():
    mu = catalog.positive_pair_sl2()
    f = _objective_factory(mu.matrices, mu.weights, None, chunk=8)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(size=2)
        vals, _ = f(np.array([v, 2.0 * v, 0.25 * v]))
        assert vals[0] == vals[1] == vals[2]


@pytest.mark.parametrize("dim", range(1, 25))
def test_batch_objective_matches_scalar_reference_for_every_dim(dim):
    # stacked images (dim <= 8) and per-word ones alike; 301 words put
    # OpenBLAS's threaded row split off a word boundary, and a chunk
    # boundary falls inside the points
    rng = np.random.default_rng(100 + dim)
    for n_words in (1, 7, 300, 301):
        word_mats = rng.normal(size=(n_words, dim, dim)) * rng.uniform(0.1, 10.0, (n_words, 1, 1))
        word_wts = rng.dirichlet(np.ones(n_words))
        points = rng.normal(size=(9, dim))
        images = _word_images(word_mats, points[:3])
        assert images.tobytes() == np.array([word_mats @ p for p in points[:3]]).tobytes()
        norms = np.linalg.norm(images, axis=-1)
        assert np.sqrt(_sum_squares(images)).tobytes() == norms.tobytes()
        for delta in (None, 0.3):
            batch = _objective_factory(word_mats, word_wts, delta, chunk=4)
            scalar = objective_ref(word_mats, word_wts, delta)
            values, grads = batch(points)
            assert grads is None
            assert values.tobytes() == np.array([scalar(p) for p in points]).tobytes()


@pytest.mark.parametrize("dim", range(1, 25))
def test_batch_objective_one_chunk_matches_scalar_reference(dim):
    # calls that fit one chunk, of points at scales far from the unit
    # sphere; asking for the gradient leaves the values as they are; no
    # rows, no values
    rng = np.random.default_rng(200 + dim)
    for n_words in (1, 7, 300, 301):
        word_mats = rng.normal(size=(n_words, dim, dim)) * rng.uniform(0.1, 10.0, (n_words, 1, 1))
        word_wts = rng.dirichlet(np.ones(n_words))
        points = rng.normal(size=(9, dim)) * rng.uniform(1e-3, 1e3, (9, 1))
        batch = _objective_factory(word_mats, word_wts, None, chunk=9)
        scalar = objective_ref(word_mats, word_wts)
        for part in (points[:1], points[:5], points):
            expected = np.array([scalar(p) for p in part]).tobytes()
            assert batch(part)[0].tobytes() == expected
            assert batch(part, grad=True)[0].tobytes() == expected
        assert batch(points[:0])[0].shape == (0,)


@pytest.mark.parametrize("dim", [2, 4, 6, 15])
@pytest.mark.parametrize("delta", [None, 0.3], ids=["log", "moment"])
def test_riemannian_gradient_matches_a_50_digit_central_difference(dim, delta):
    # the derivative along each vector of an orthonormal tangent basis at u,
    # by central differences of v -> objective(v / |v|) in 50-digit mpmath
    rng = np.random.default_rng(300 + dim)
    n_words = 5 if dim == 15 else 12
    word_mats = rng.normal(size=(n_words, dim, dim))
    word_wts = rng.dirichlet(np.ones(n_words))
    points = rng.normal(size=(3, dim))
    points /= np.linalg.norm(points, axis=1)[:, None]
    _, grads = _objective_factory(word_mats, word_wts, delta, chunk=2)(points, grad=True)
    with mp.workdps(50):
        mats = [mp.matrix(m.tolist()) for m in word_mats]
        wts = [mp.mpf(float(p)) for p in word_wts]

        def objective(v):
            u = v / mp.norm(v)
            norms = [mp.norm(m * u) for m in mats]
            return mp.fsum(p * (mp.log(n) if delta is None else -(n ** -mp.mpf(delta)))
                           for p, n in zip(wts, norms))

        h = mp.mpf(10) ** -20
        for u, g in zip(points, grads):
            basis = np.linalg.qr(np.column_stack([u, np.eye(dim)]))[0][:, 1:dim]
            u_mp = mp.matrix(u.tolist())
            expected = np.zeros(dim)
            for t in basis.T:
                t_mp = mp.matrix(t.tolist())
                slope = (objective(u_mp + h * t_mp) - objective(u_mp - h * t_mp)) / (2 * h)
                expected += float(slope) * t
            assert np.abs(g - expected).max() <= 1e-13 * max(1.0, np.abs(expected).max())


def _lbfgsb(value_and_gradient, starts):
    """scipy's L-BFGS-B from each start, with the analytic gradient of
    :func:`gradient_ref`: the least value found."""
    return min(
        minimize(value_and_gradient, start, jac=True, method="L-BFGS-B",
                 options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000}).fun
        for start in starts
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 9, 12, 15])
@pytest.mark.parametrize("delta", [None, 0.3], ids=["log", "moment"])
def test_descent_ends_no_higher_than_scipy_lbfgsb(dim, delta):
    # every descent ends stationary and at or below its start, and the best
    # of them is no higher than the best of L-BFGS-B from the same starts
    # (the two may settle in different basins)
    rng = np.random.default_rng(dim)
    n_words = 5 if dim == 15 else 12
    word_mats = rng.normal(size=(n_words, dim, dim))
    word_wts = rng.dirichlet(np.ones(n_words))
    starts = rng.normal(size=(4, dim))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    objective = _objective_factory(word_mats, word_wts, delta, chunk=7)
    xs, values, gnorms = _descend(objective, starts.copy())
    assert np.all(values <= objective(starts)[0])
    assert np.allclose(np.linalg.norm(xs, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(gnorms <= 1e-6)
    # the reported norm is the gradient's at the returned point, up to the
    # rounding of a gemm whose blocking follows the batch size
    assert np.allclose(gnorms, np.linalg.norm(objective(xs, grad=True)[1], axis=1), rtol=0, atol=1e-13)
    best = _lbfgsb(gradient_ref(word_mats, word_wts, delta), starts)
    assert values.min() <= best + 1e-12 * max(1.0, abs(best))


@pytest.mark.parametrize("seed", [0, 23, 73])
def test_adjoint_certificate_reaches_the_lbfgsb_minimum(monkeypatch, seed):
    # the certify benchmark's 15-dim case (five generators, adj, exact N=1,
    # 100 sphere samples): the minimum of L-BFGS-B from the same starts,
    # at a stationary witness
    seen = {}

    def descend(objective, starts):
        seen["starts"] = starts.copy()
        return _descend(objective, starts)

    monkeypatch.setattr(expansion, "_descend", descend)
    mu = catalog.sl4_five_generator_measure()
    cert = expansion_certificate(mu, "adj", N=1, mode="exact", sphere_samples=100, seed=seed)
    assert len(seen["starts"]) == expansion.DESCENTS
    words, wts, _ = _word_products(
        np.array([expansion.rep_matrix("adj", g) for g in mu.matrices]), mu.weights, 1,
        "exact", 10**6, 4000, substream(seed, 0))
    best = _lbfgsb(gradient_ref(words, wts), seen["starts"])
    assert abs(cert.C_lower - best) <= 1e-12
    assert abs(cert.C_lower + 0.48392535) <= 1e-8
    assert cert.stationarity <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_moment_sup_finds_the_narrow_peak_of_the_positive_pair(seed):
    # the sup at N=6, delta=0.6 is a peak about 1e-5 rad wide, beside lower
    # peaks 3e-5 and 2e-4 rad away; it sits at the least singular direction
    # of the most expanding words
    ratio, _ = moment_contraction_estimate(catalog.positive_pair_sl2(), "std", 0.6, 6, seed=seed)
    assert abs(ratio - 1.19088773349) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_pair_certificate_reaches_the_grid_minimum(seed):
    # 256 wells, one per word, in two clusters about 3e-3 rad wide; the
    # minimum of a 4,000,001-point grid on [0, pi), refined to 1e-12 rad
    cert = expansion_certificate(catalog.positive_pair_sl2(), "std", N=8, mode="exact",
                                 seed=1000 + seed)
    assert abs(cert.C_lower - 4.547295415187639) <= 1e-12


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
    assert [repr(c.C_lower) for c in sweep] == ["0.588343732717907", "0.5883437327179302"]


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
