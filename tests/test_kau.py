import numpy as np
import pytest

from expwalk import catalog
from expwalk.fractal import embed_to_pgl
from expwalk.kau import (
    FactorizationError,
    ParabolicProfile,
    PrefixProductError,
    UnipotentLimitError,
    WeightPair,
    equivariance_residual,
    flow_element,
    kau_factorize,
    u_limit,
    unipotent,
    word_factors,
)
from expwalk.measures import sample_word


def random_parabolic(rng, profile, scale=1.0):
    """Random element k a(t) u_M of the parabolic for the profile."""
    k = np.zeros((profile.d, profile.d))
    for _, idx in profile.weight_groups():
        q, _ = np.linalg.qr(rng.normal(size=(len(idx), len(idx))))
        k[np.ix_(idx, idx)] = q
    t = rng.uniform(-scale, scale)
    m_param = rng.normal(size=(profile.m, profile.n))
    return k @ flow_element(profile.weights, t) @ unipotent(m_param)


def test_factorize_flow_times_unipotent():
    prof = ParabolicProfile(1, 1)
    m_param = np.array([[0.37]])
    g = flow_element(prof.weights, 1.3) @ unipotent(m_param)
    f = kau_factorize(g, prof)
    assert np.allclose(f.k, np.eye(2))
    assert abs(f.t - 1.3) < 1e-12
    assert np.abs(f.u - m_param).max() < 1e-12


def test_factorize_cantor_symbol():
    g = embed_to_pgl(catalog.cantor_ifs().symbols[1])
    f = kau_factorize(g, ParabolicProfile(1, 1))
    assert np.allclose(f.k, np.eye(2))
    assert abs(f.t - 0.5 * np.log(3)) < 1e-12
    assert abs(f.u[0, 0] - 2.0 / 3.0) < 1e-12


def test_factorize_rotation_block():
    prof = ParabolicProfile(2, 1, WeightPair((0.5, 0.5), (1.0,)))
    rng = np.random.default_rng(5)
    g = random_parabolic(rng, prof)
    f = kau_factorize(g, prof)
    assert np.abs(f.k.T @ f.k - np.eye(3)).max() < 1e-9
    assert np.abs(f.reconstruct() - g).max() < 1e-9


def test_factorize_rejects_lower_triangular():
    prof = ParabolicProfile(1, 1)
    with pytest.raises(FactorizationError):
        kau_factorize(np.array([[1.0, 0.0], [0.5, 1.0]]), prof)


def test_factorize_rejects_inconsistent_scaling():
    prof = ParabolicProfile(1, 1)
    with pytest.raises(FactorizationError):
        kau_factorize(np.diag([2.0, 3.0]), prof)


def test_factorize_rejects_unequal_moduli_in_group():
    prof = ParabolicProfile(2, 1, WeightPair((0.5, 0.5), (1.0,)))
    g = np.diag([2.0, 3.0, 1.0 / 6.0])
    with pytest.raises(FactorizationError):
        kau_factorize(g, prof)


def test_factorize_uniqueness_roundtrip():
    rng = np.random.default_rng(11)
    for profile in (
        ParabolicProfile(1, 1),
        ParabolicProfile(2, 1, WeightPair((0.5, 0.5), (1.0,))),
        ParabolicProfile(2, 2, WeightPair((0.7, 0.3), (0.4, 0.6))),
    ):
        for _ in range(20):
            g = random_parabolic(rng, profile)
            f = kau_factorize(g, profile)
            f2 = kau_factorize(f.reconstruct(), profile)
            assert abs(f.t - f2.t) < 1e-9
            assert np.abs(f.u - f2.u).max() < 1e-9
            assert np.abs(f.k - f2.k).max() < 1e-9


def test_word_factors_pure_flow():
    prof = ParabolicProfile(1, 1)
    a1 = flow_element(prof.weights, 1.0)
    facs = word_factors([a1] * 5, prof)
    assert [round(f.t, 12) for f in facs] == [1, 2, 3, 4, 5]
    assert all(np.abs(f.u).max() < 1e-12 for f in facs)


def test_word_factors_cantor_coding_orbit():
    # prefix unipotent parameters follow the coding orbit of 0 under phi_1
    mu = catalog.cantor_measure()
    prof = mu.profile
    g1 = embed_to_pgl(catalog.cantor_ifs().symbols[1])
    facs = word_factors([g1, g1], prof)
    assert abs(facs[0].t - 0.5 * np.log(3)) < 1e-12
    assert abs(facs[1].t - np.log(3)) < 1e-12
    phi = catalog.cantor_ifs().symbols[1]
    x1 = phi.b[0, 0]
    x2 = phi.a1[0, 0] * x1 * phi.a2[0, 0] + phi.b[0, 0]
    assert abs(facs[0].u[0, 0] - x1) < 1e-12
    assert abs(facs[1].u[0, 0] - x2) < 1e-12


def test_word_factors_empty():
    assert word_factors([], ParabolicProfile(1, 1)) == []


def test_u_limit_no_unipotent_parts():
    prof = ParabolicProfile(1, 1)
    word = iter([flow_element(prof.weights, 0.5)] * 100)
    m_lim, _ = u_limit(word, prof, tol=1e-12)
    assert np.abs(m_lim).max() < 1e-12


def test_u_limit_constant_cantor_word():
    g1 = embed_to_pgl(catalog.cantor_ifs().symbols[1])
    m_lim, n_used = u_limit(iter([g1] * 300), ParabolicProfile(1, 1), tol=1e-12)
    assert abs(m_lim[0, 0] - 1.0) < 1e-9
    assert n_used < 300


def test_u_limit_matches_coding_map():
    # the limit equals the coding point of the reversed symbol word
    from expwalk.fractal import coding_limit

    ifs = catalog.cantor_ifs()
    mu = catalog.cantor_measure()
    prof = mu.profile
    rng_symbols = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0] * 12
    word = [mu.matrices[i] for i in rng_symbols]
    m_lim, n_used = u_limit(iter(word), prof, tol=1e-14)
    coded = coding_limit(ifs, iter(rng_symbols), tol=1e-14)
    assert abs(m_lim[0, 0] - coded[0, 0]) < 1e-9


def test_u_limit_nonconvergence_carries_partial():
    prof = ParabolicProfile(1, 1)
    word = [unipotent(np.array([[1.0]]))] * 50  # lambda = 0, tail never decays
    with pytest.raises(UnipotentLimitError) as err:
        u_limit(iter(word), prof, tol=1e-12, n_max=50)
    assert err.value.n_used == 50
    assert abs(err.value.partial[0, 0] - 50.0) < 1e-9


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan")])
def test_u_limit_refuses_a_tol_no_tail_can_meet(tol):
    words = iter([unipotent(np.array([[1.0]]))] * 50)
    with pytest.raises(ValueError, match="tol"):
        u_limit(words, ParabolicProfile(1, 1), tol=tol)
    assert len(list(words)) == 50  # refused before reading a letter


def test_word_factors_tells_a_bad_letter_from_a_prefix_that_left_p():
    prof = ParabolicProfile(1, 1)
    shrink = flow_element(prof.weights, -3.0)
    # the letter of step 2 has a singular block: bad input, not a prefix error
    with pytest.raises(FactorizationError, match=r"block \(0,\) is singular"):
        word_factors([np.eye(2), np.diag([1e-15, 1e15])], prof)
    # every letter factorizes, the product's top block reaches e^-33 < 1e-14
    with pytest.raises(PrefixProductError, match="prefix product of step 11 .*singular"):
        word_factors([shrink] * 12, prof)
    assert len(word_factors([shrink] * 10, prof)) == 10


def test_u_limit_tail_bound_shape():
    # conjugated tail terms decay like exp(-alpha * sum of lambdas)
    mu = catalog.cantor_measure()
    prof = mu.profile
    alpha = min(prof.weights.r) + min(prof.weights.s)
    word = sample_word(mu, 40, seed=21)
    facs = [kau_factorize(g, prof) for g in word]
    lam_prefix = 0.0
    p1 = np.eye(1)
    p2 = np.eye(1)
    for f in facs:
        tail = np.linalg.solve(p1, f.u) @ p2
        bound = np.abs(f.u).max() * np.exp(-alpha * lam_prefix)
        assert np.abs(tail).max() <= bound * (1 + 1e-9)
        ka = f.k @ flow_element(prof.weights, f.t)
        p1 = ka[:1, :1] @ p1
        p2 = ka[1:, 1:] @ p2
        lam_prefix += f.t


def test_equivariance_pure_flow_word():
    # all factors diagonal, u = 0 throughout; residual is pure roundoff
    prof = ParabolicProfile(1, 1)
    word = [flow_element(prof.weights, 1.0)] * 6
    assert equivariance_residual(word, prof) < 1e-12


def test_equivariance_cantor_words():
    mu = catalog.cantor_measure()
    word = list(sample_word(mu, 20, seed=3))
    assert equivariance_residual(word, mu.profile) < 1e-9


def test_equivariance_rotation_sponge_words():
    from expwalk.fractal import measure_from_ifs

    mu = measure_from_ifs(catalog.rotation_sponge_ifs())
    word = list(sample_word(mu, 20, seed=5))
    assert equivariance_residual(word, mu.profile) < 1e-8


def test_lambda_additivity_of_prefixes():
    mu = catalog.cantor_measure()
    prof = mu.profile
    word = list(sample_word(mu, 20, seed=8))
    facs = word_factors(word, prof)
    lam = np.cumsum([kau_factorize(g, prof).t for g in word])
    assert max(abs(f.t - s) for f, s in zip(facs, lam)) < 1e-10


def test_u_limit_matches_coding_map_rotation_sponge():
    from expwalk.fractal import coding_limit, measure_from_ifs

    ifs = catalog.rotation_sponge_ifs()
    mu = measure_from_ifs(ifs)
    prof = mu.profile
    symbols = [0, 1, 1, 0, 1, 0, 0, 1] * 10
    word = [mu.matrices[i] for i in symbols]
    m_lim, _ = u_limit(iter(word), prof, tol=1e-14)
    coded = coding_limit(ifs, iter(symbols), tol=1e-14)
    assert np.abs(m_lim - coded).max() < 1e-9


def test_u_limit_distribution_is_cantor_like():
    # limits of random embedded words reproduce the attractor: values in
    # [0, 1] and none in the middle-third gap
    mu = catalog.cantor_measure()
    prof = mu.profile
    from expwalk.measures import sample_stream

    values = []
    for i in range(150):
        stream = sample_stream(mu, seed=900, path=(i,))
        m_lim, _ = u_limit(stream, prof, tol=1e-11)
        values.append(m_lim[0, 0])
    values = np.array(values)
    assert values.min() >= -1e-9 and values.max() <= 1 + 1e-9
    assert not np.any((values > 1 / 3 + 1e-9) & (values < 2 / 3 - 1e-9))
