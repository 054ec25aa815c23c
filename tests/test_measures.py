import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expwalk import catalog
from expwalk.kau import ParabolicProfile
from expwalk.measures import (
    ConvolutionCapError,
    GroupMeasure,
    _merge_atoms,
    _word_products,
    convolution_support,
    load_measure,
    sample_word,
    save_measure,
)


def test_measure_validation():
    with pytest.raises(ValueError):
        GroupMeasure.from_atoms([(np.eye(2), 0.4), (np.eye(2), 0.4)])  # sums to 0.8
    with pytest.raises(ValueError):
        GroupMeasure.from_atoms([(np.zeros((2, 2)), 1.0)])  # singular atom
    with pytest.raises(ValueError):
        GroupMeasure.from_atoms([(np.eye(2), -0.5), (np.eye(2), 1.5)])


def test_profile_asserts_block_triangular():
    lower = np.array([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        GroupMeasure.dirac(lower, profile=ParabolicProfile(1, 1))


def test_sample_word_deterministic_single_atom():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    mu = GroupMeasure.dirac(g)
    word = sample_word(mu, 3, seed=1)
    assert word.shape == (3, 2, 2)
    assert np.array_equal(word[0], g) and np.array_equal(word[2], g)


def test_sample_word_empty():
    mu = catalog.positive_pair_sl2()
    assert sample_word(mu, 0, seed=1).shape == (0, 2, 2)


def test_sample_word_frequencies_seed_averaged():
    from expwalk.measures import sample_indices

    mu = catalog.positive_pair_sl2()
    freqs = [sample_indices(mu, 10**4, seed=s).mean() for s in range(20)]
    assert 0.49 <= np.mean(freqs) <= 0.51


def test_sample_reproducible_and_path_split():
    mu = catalog.positive_pair_sl2()
    a = sample_word(mu, 50, seed=9, path=(3,))
    b = sample_word(mu, 50, seed=9, path=(3,))
    c = sample_word(mu, 50, seed=9, path=(4,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_convolution_dirac_power():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    mu = GroupMeasure.dirac(g)
    nu = convolution_support(mu, 5)
    assert nu.natoms == 1
    assert np.abs(nu.matrices[0] - np.linalg.matrix_power(g, 5)).max() < 1e-9


def test_convolution_commuting_merge():
    a = np.diag([2.0, 0.5])
    b = np.diag([3.0, 1.0 / 3.0])
    mu = GroupMeasure.uniform([a, b])
    nu = convolution_support(mu, 2)
    assert nu.natoms == 3
    weights = sorted(nu.weights)
    assert np.allclose(weights, [0.25, 0.25, 0.5])


def test_convolution_cantor_eight_atoms():
    mu = catalog.cantor_measure()
    nu = convolution_support(mu, 3)
    assert nu.natoms == 8
    assert np.allclose(nu.weights, 1.0 / 8.0)


def test_convolution_cap_error_mentions_monte_carlo():
    mu = catalog.positive_pair_sl2()
    with pytest.raises(ConvolutionCapError, match="Monte Carlo"):
        convolution_support(mu, 30, cap=10**6)


@pytest.mark.parametrize("mode", ["exact", "auto", "mc"])
def test_word_products_refuse_cap_below_one(mode):
    pair = catalog.positive_pair_sl2()
    with pytest.raises(ValueError, match="cap must be at least 1, got 0"):
        _word_products(pair.matrices, pair.weights, 2, mode, cap=0, rng=np.random.default_rng(0))


def test_convolution_keeps_distinct_large_products(recwarn):
    # products of diag(3, 1/3) and diag(2, 1/2) reach entries of 3^30 ~ 2e14,
    # far past where merge keys at resolution 1e-10 leave the int64 range;
    # the 31 distinct products (j factors of 3, 30 - j of 2) must stay apart
    mu = GroupMeasure.uniform([np.diag([3.0, 1 / 3]), np.diag([2.0, 0.5])])
    nu = convolution_support(mu, 30, cap=10**12)
    assert nu.natoms == 31
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _merge_reference(mats, wts, tol):
    # the loop definition: first-occurrence order, weights added in order
    cells, keep_mats, keep_wts = {}, [], []
    for g, w in zip(mats, wts):
        key = (np.round(g.ravel() / tol) + 0.0).tobytes()
        if key in cells:
            keep_wts[cells[key]] += w
        else:
            cells[key] = len(keep_mats)
            keep_mats.append(g)
            keep_wts.append(w)
    return np.array(keep_mats), np.array(keep_wts)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_merge_matches_loop_definition_bitwise(seed):
    rng = np.random.default_rng(seed)
    base = rng.choice([-1.0, -0.0, 0.0, 0.5, 3.0, 1e12], size=(6, 2, 2))
    mats = base[rng.integers(0, 6, size=40)] + rng.choice([0.0, 1e-13], size=(40, 2, 2))
    wts = rng.uniform(0.1, 1.0, size=40)
    got_mats, got_wts = _merge_atoms(mats, wts, 1e-10)
    ref_mats, ref_wts = _merge_reference(mats, wts, 1e-10)
    assert np.array_equal(got_mats, ref_mats)
    assert got_wts.tobytes() == ref_wts.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_convolution_weights_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1, 1, (3, 2, 2)) + 2 * np.eye(2)
    mu = GroupMeasure.uniform(list(mats))
    nu = convolution_support(mu, n)
    assert abs(nu.weights.sum() - 1.0) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_lambda_additive_along_words(seed, length):
    from expwalk.kau import kau_factorize

    mu = catalog.cantor_measure()
    prof = mu.profile
    word = sample_word(mu, length, seed=seed)
    total = np.eye(2)
    lam_sum = 0.0
    for g in word:
        total = g @ total
        lam_sum += kau_factorize(g, prof).t
    assert abs(kau_factorize(total, prof).t - lam_sum) <= 1e-10


def test_measure_json_roundtrip_bit_exact(tmp_path):
    mu = catalog.cantor_measure()
    path = tmp_path / "m.json"
    save_measure(mu, str(path))
    back = load_measure(str(path))
    assert np.array_equal(back.matrices, mu.matrices)
    assert np.array_equal(back.weights, mu.weights)
    assert back.profile is not None
    assert back.profile.weights == mu.profile.weights
