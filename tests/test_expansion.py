import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expwalk import catalog
from expwalk.expansion import (
    ConeSpec,
    a_expanding_check,
    expanding_cone_membership,
    expansion_certificate,
    fk_exponent_estimate,
    relative_expansion_sweep,
    _objective_factory,
)
from expwalk.measures import ConvolutionCapError, GroupMeasure


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


def test_certificate_positive_pair_passes_by_six():
    mu = catalog.positive_pair_sl2()
    passed = []
    for n in range(1, 7):
        cert = expansion_certificate(mu, "std", N=n, seed=0)
        assert cert.mode == "exact"
        passed.append(cert.passed)
    assert any(passed)


def test_certificate_objective_scale_invariant_exactly():
    mu = catalog.positive_pair_sl2()
    f = _objective_factory(mu.matrices, mu.weights)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(size=2)
        assert f(v) == f(2.0 * v)
        assert f(v) == f(0.25 * v)


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


def test_relative_sweep_identity_fails():
    mu = GroupMeasure.dirac(np.eye(2))
    sweep = relative_expansion_sweep(mu, 1, N=2, seed=0)
    assert not sweep[0].passed
    assert abs(sweep[0].C_lower) < 1e-9


def test_relative_sweep_diagonal_adjoint_value():
    sweep = relative_expansion_sweep(catalog.diagonal_geodesic_sl2(), 1, N=1, seed=0)
    assert abs(sweep[0].C_lower + 2 * np.log(3)) < 1e-6


def test_fk_consistent_with_certificate():
    mu = catalog.positive_pair_sl2()
    cert = expansion_certificate(mu, "std", N=4, seed=0)
    assert cert.passed
    rng = np.random.default_rng(8)
    v = rng.normal(size=2)
    mean, err = fk_exponent_estimate(mu, v, 2000, 20, seed=3)
    assert mean >= cert.C_lower / cert.N - 3 * err


def test_cone_block_22_examples():
    spec = ConeSpec(4, (2, 2))
    assert expanding_cone_membership(spec, [1, 1, -1, -1]).inside
    res = expanding_cone_membership(spec, [1, -1, 1, -1])
    assert not res.inside
    assert not expanding_cone_membership(spec, [0, 0, 0, 0]).inside


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
