from itertools import cycle, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expwalk import catalog
from expwalk.fractal import (
    AffineIFS,
    MatrixAffinity,
    affinity_apply,
    check_admissible,
    coding_limit,
    coding_sample,
    embed_to_pgl,
    hat_matrix,
    ifs_from_dict,
    ifs_to_dict,
    ifs_validate,
    irreducibility_check,
    measure_from_ifs,
    sierpinski_weights,
    sponge_builder,
    sponge_check,
)
from expwalk.kau import FactorizationError, ParabolicProfile, WeightPair, kau_factorize, unipotent


def test_affinity_apply_examples():
    ident = MatrixAffinity(np.eye(2), np.eye(2), np.zeros((2, 2)))
    m = np.arange(4.0).reshape(2, 2)
    assert np.array_equal(affinity_apply(ident, m), m)

    cantor = catalog.cantor_ifs().symbols[1]
    assert abs(affinity_apply(cantor, np.array([[1.0]]))[0, 0] - 1.0) < 1e-12

    shift = MatrixAffinity(np.eye(2), np.eye(1), np.array([[1.0], [2.0]]))
    out = affinity_apply(shift, np.array([[0.5], [0.5]]))
    assert np.array_equal(out, [[1.5], [2.5]])


def test_affinity_shape_mismatch():
    phi = catalog.cantor_ifs().symbols[0]
    with pytest.raises(ValueError):
        affinity_apply(phi, np.zeros((2, 2)))


def test_sponge_check_cantor_scalars():
    wp = WeightPair((1.0,), (1.0,))
    a = np.array([[3 ** -0.5]])
    chk = sponge_check(MatrixAffinity(a, a, np.array([[2 / 3]])), wp)
    assert chk.ok
    assert abs(chk.t + 0.5 * np.log(3)) < 1e-12


def test_sponge_check_unequal_moduli_in_block():
    wp = WeightPair((0.5, 0.5), (1.0,))
    phi = MatrixAffinity(np.diag([2.0, 3.0]), np.array([[0.1]]), np.zeros((2, 1)))
    chk = sponge_check(phi, wp)
    assert not chk.ok
    assert "equal-weight block" in chk.reason


def test_sponge_check_t_consistency_across_factors():
    # A1 = diag(2, 2) with r = (1/2, 1/2) forces t = 2 log 2; A2 must then be 4
    wp = WeightPair((0.5, 0.5), (1.0,))
    good = MatrixAffinity(np.diag([2.0, 2.0]), np.array([[4.0]]), np.zeros((2, 1)))
    assert sponge_check(good, wp).ok
    bad = MatrixAffinity(np.diag([2.0, 2.0]), np.array([[2.0]]), np.zeros((2, 1)))
    chk = sponge_check(bad, wp)
    assert not chk.ok and "inconsistent t" in chk.reason


@pytest.mark.parametrize(
    "ifs", [catalog.cantor_ifs(), catalog.bm_carpet(2, 3), catalog.rotation_sponge_ifs()]
)
def test_sponge_t_is_minus_the_kau_t_of_the_embedding(ifs):
    profile = ParabolicProfile(ifs.m, ifs.n, ifs.weightpair)
    for phi in ifs.symbols:
        t = sponge_check(phi, ifs.weightpair).t
        assert abs(t + kau_factorize(embed_to_pgl(phi), profile).t) <= 1e-12


@pytest.mark.parametrize(
    "a1, a2", [(np.diag([2.0, 3.0]), [[0.1]]), (np.diag([2.0, 2.0]), [[2.0]])],
    ids=["unequal-moduli", "inconsistent-t"],
)
def test_sponge_check_and_kau_reject_non_sponges(a1, a2):
    wp = WeightPair((0.5, 0.5), (1.0,))
    phi = MatrixAffinity(a1, np.array(a2), np.zeros((2, 1)))
    assert not sponge_check(phi, wp).ok
    # the embedding before embed_to_pgl's rescaling: a scalar multiple of
    # blockdiag(A1, A2^-1) can sit on a K'A' coset that the affinity misses
    g = np.linalg.inv(hat_matrix(phi)) @ unipotent(phi.b)
    with pytest.raises(FactorizationError):
        kau_factorize(g, ParabolicProfile(2, 1, wp))


def test_ifs_validate_cantor():
    res = ifs_validate(catalog.cantor_ifs())
    assert res.contracting and res.n_witness == 1
    assert abs(res.values[0] - np.log(1 / 3)) < 1e-12


def test_ifs_validate_scalar_mix():
    up = MatrixAffinity([[3.0]], [[1.0]], [[0.0]])
    down = MatrixAffinity([[1 / 3.0]], [[1.0]], [[0.1]])
    ifs = AffineIFS((up, down), np.array([0.4, 0.6]))
    res = ifs_validate(ifs)
    assert res.contracting and res.n_witness == 1
    assert abs(res.values[0] + 0.2 * np.log(3)) < 1e-12

    swapped = AffineIFS((up, down), np.array([0.6, 0.4]))
    res2 = ifs_validate(swapped, n_max=5)
    assert not res2.contracting
    assert all(v > 0 for v in res2.values)


def test_ifs_validate_monte_carlo_branch():
    # cap 4 keeps N = 1, 2 exact and samples N = 3..5
    up = MatrixAffinity([[3.0]], [[1.0]], [[0.0]])
    down = MatrixAffinity([[1 / 3.0]], [[1.0]], [[0.1]])
    ifs = AffineIFS((up, down), np.array([0.6, 0.4]))
    exact = ifs_validate(ifs, n_max=5)
    assert exact.mode == "exact"
    res = ifs_validate(ifs, n_max=5, cap=4, mc_samples=2000, seed=5)
    assert res.mode == "monte-carlo" and not res.contracting
    assert res.values[:2] == exact.values[:2]
    assert ifs_validate(ifs, n_max=5, cap=4, mc_samples=2000, seed=5).values == res.values
    ops = [phi.linear_operator() for phi in ifs.symbols]
    for n in (3, 4, 5):
        # the exact law of the log norm over all 2^n words
        logs, probs = [], []
        for word in product(range(2), repeat=n):
            g = np.eye(1)
            for i in word:
                g = ops[i] @ g
            logs.append(np.log(np.linalg.norm(g, 2)))
            probs.append(np.prod(ifs.weights[list(word)]))
        logs, probs = np.array(logs), np.array(probs)
        sd = np.sqrt(probs @ (logs - probs @ logs) ** 2)
        assert abs(res.values[n - 1] - exact.values[n - 1]) < 4 * sd / np.sqrt(2000)


def test_ifs_validate_keeps_small_products_apart():
    # 1e-22 and 3e-11 share a cell of the 1e-10 merge grid; merged, the
    # expectation at N = 2 would read -1.95 and claim contraction
    down = MatrixAffinity([[1e-11]], [[1.0]], [[0.0]])
    up = MatrixAffinity([[3.0]], [[1.0]], [[0.0]])
    w = np.array([0.04, 0.96])
    res = ifs_validate(AffineIFS((down, up), w), n_max=4)
    assert not res.contracting and res.n_witness is None
    for n, value in enumerate(res.values, start=1):
        assert value == pytest.approx(n * (w @ np.log([1e-11, 3.0])))


def test_coding_forced_words():
    ifs = catalog.cantor_ifs()
    assert abs(coding_limit(ifs, cycle([0]), 1e-12)[0, 0]) < 1e-11
    assert abs(coding_limit(ifs, cycle([1, 0]), 1e-12)[0, 0] - 0.75) < 1e-11


def test_coding_cloud_avoids_middle_third():
    pts = coding_sample(catalog.cantor_ifs(), 2000, seed=5).ravel()
    assert np.mean((pts > 1 / 3) & (pts < 2 / 3)) == 0.0
    assert pts.min() >= -1e-9 and pts.max() <= 1 + 1e-9


def test_coding_shift_equivariance():
    ifs = catalog.cantor_ifs()
    rng = np.random.default_rng(3)
    for _ in range(10):
        word = list(rng.integers(0, 2, size=80))
        full = coding_limit(ifs, iter(word), 1e-13)
        shifted = coding_limit(ifs, iter(word[1:]), 1e-13)
        assert np.abs(full - affinity_apply(ifs.symbols[word[0]], shifted)).max() < 1e-9


def test_coding_stationarity_wasserstein():
    # one-step recursion resampling vs direct coding: same law, tested via
    # the 1-d Wasserstein distance against the spread of two fresh clouds
    ifs = catalog.cantor_ifs()
    n = 10**4
    direct1 = np.sort(coding_sample(ifs, n, seed=11).ravel())
    direct2 = np.sort(coding_sample(ifs, n, seed=12).ravel())
    rng = np.random.default_rng(13)
    symbols = rng.integers(0, 2, size=n)
    recursed = np.array(
        [
            affinity_apply(ifs.symbols[s], np.array([[x]]))[0, 0]
            for s, x in zip(symbols, direct1)
        ]
    )
    w_null = np.abs(direct1 - direct2).mean()
    w_rec = np.abs(np.sort(recursed) - direct2).mean()
    assert w_rec < 3 * w_null


def test_sponge_builder_carpet_weights():
    ifs = sponge_builder((2, 3), [(0, 0), (1, 1), (0, 2)])
    r = ifs.weightpair.r
    assert abs(r[0] - 0.16056) < 1e-5
    assert abs(r[1] - 0.83944) < 1e-5
    assert abs(sum(r) - 1.0) < 1e-12
    # Thm-style precondition holds for (2, 3): min(4, 9) > 3
    assert min(2**2, 3**2) > max(2, 3)


def test_sponge_builder_rejects_inadmissible():
    with pytest.raises(ValueError, match="log 2"):
        sponge_builder((2, 5), [(0, 0)])


def test_sponge_builder_line_ifs():
    ifs = sponge_builder((4,), [(0,), (2,)])
    assert ifs.weightpair.r == (1.0,)
    assert ifs.m == 1 and len(ifs.symbols) == 2


def test_sponge_builder_custom_weights():
    ifs = sponge_builder((2, 3), [(0, 0), (1, 1)], symbol_weights=[0.3, 0.7])
    assert np.allclose(ifs.weights, [0.3, 0.7])


def test_admissibility_gate_shared():
    ok23, _ = check_admissible((2, 3))
    ok25, why = check_admissible((2, 5))
    assert ok23 and not ok25
    assert "log 2" in why
    r = sierpinski_weights((2, 3))
    assert abs(r[0] - (2 * np.log(2) - np.log(3)) / np.log(6)) < 1e-12


def test_embed_identity_affinity():
    phi = MatrixAffinity(np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert np.abs(embed_to_pgl(phi) - np.eye(4)).max() < 1e-12


def test_embed_cantor_symbol():
    g = embed_to_pgl(catalog.cantor_ifs().symbols[1])
    expected = np.diag([np.sqrt(3), 1 / np.sqrt(3)]) @ unipotent(np.array([[2 / 3]]))
    assert np.abs(g - expected).max() < 1e-12


def test_embedding_key_identity_cantor():
    phi = catalog.cantor_ifs().symbols[1]
    m = np.array([[1.0]])
    hat = hat_matrix(phi)
    lhs = hat @ unipotent(m) @ np.linalg.inv(hat) @ unipotent(phi.b)
    assert np.abs(lhs - unipotent(affinity_apply(phi, m))).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_embedding_identity_random(seed):
    rng = np.random.default_rng(seed)
    m_dim, n_dim = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    a1 = rng.normal(size=(m_dim, m_dim)) + 2 * np.eye(m_dim)
    a2 = rng.normal(size=(n_dim, n_dim)) + 2 * np.eye(n_dim)
    b = rng.normal(size=(m_dim, n_dim))
    phi = MatrixAffinity(a1, a2, b)
    mat = rng.normal(size=(m_dim, n_dim))
    hat = hat_matrix(phi)
    lhs = hat @ unipotent(mat) @ np.linalg.inv(hat) @ unipotent(phi.b)
    rhs = unipotent(affinity_apply(phi, mat))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_iterated_embedding_identity():
    ifs = catalog.cantor_ifs()
    rng = np.random.default_rng(17)
    for _ in range(5):
        word = list(rng.integers(0, 2, size=30))
        prod = np.eye(2)
        hat_prod = np.eye(2)
        for idx in word:
            prod = embed_to_pgl(ifs.symbols[idx]) @ prod
        for idx in reversed(word):
            hat_prod = hat_prod @ np.linalg.inv(hat_matrix(ifs.symbols[idx]))
        # finite-word coding image of 0, first symbol outermost
        comp = np.array([[0.0]])
        for idx in reversed(word):
            comp = affinity_apply(ifs.symbols[idx], comp)
        rhs = hat_prod @ unipotent(comp)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(prod - rhs).max() < 1e-9 * scale


def test_contraction_lambda_duality():
    def lambda_average(mu):
        # the average flow parameter of the atoms' K'A'U factorizations
        return sum(w * kau_factorize(g, mu.profile).t for g, w in zip(mu.matrices, mu.weights))

    for ifs in (catalog.cantor_ifs(), catalog.bm_carpet(), catalog.rotation_sponge_ifs()):
        mu = measure_from_ifs(ifs)
        assert ifs_validate(ifs).contracting == (lambda_average(mu) > 0)
    # an expanding-on-average sponge flips both sides
    t = 0.4
    a = np.array([[np.exp(t)]])
    grow = AffineIFS(
        (MatrixAffinity(a, a, np.array([[0.0]])), MatrixAffinity(a, a, np.array([[1.0]]))),
        np.array([0.5, 0.5]),
        weightpair=WeightPair((1.0,), (1.0,)),
    )
    assert not ifs_validate(grow, n_max=3).contracting
    assert lambda_average(measure_from_ifs(grow)) < 0


def test_irreducibility_examples():
    assert irreducibility_check(catalog.cantor_ifs()).status == "irreducible"
    col = sponge_builder((2, 3), [(0, 0), (0, 1), (0, 2)])
    rep = irreducibility_check(col)
    assert rep.status == "reducible"
    single = AffineIFS((catalog.cantor_ifs().symbols[1],), np.array([1.0]))
    rep_single = irreducibility_check(single)
    assert rep_single.status == "reducible"
    assert abs(np.asarray(rep_single.witness).ravel()[0] - 1.0) < 1e-9


def test_irreducibility_carpet_default_pattern():
    assert irreducibility_check(catalog.bm_carpet()).status == "irreducible"


def test_ifs_json_roundtrip(tmp_path):
    ifs = catalog.bm_carpet()
    doc = ifs_to_dict(ifs)
    back = ifs_from_dict(doc)
    for a, b in zip(ifs.symbols, back.symbols):
        assert np.array_equal(a.a1, b.a1)
        assert np.array_equal(a.a2, b.a2)
        assert np.array_equal(a.b, b.b)
    assert np.array_equal(ifs.weights, back.weights)
    assert back.weightpair == ifs.weightpair


def test_coding_depth_cap_on_expanding_ifs():
    from expwalk.fractal import CodingDepthError
    from itertools import cycle

    a = np.array([[1.1]])
    grow = AffineIFS(
        (MatrixAffinity(a, a, np.array([[0.0]])),), np.array([1.0])
    )
    with pytest.raises(CodingDepthError):
        coding_limit(grow, cycle([0]), tol=1e-10, max_depth=200)
