import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expwalk import linalg


def test_wedge_identity_is_identity():
    w = linalg.wedge_power(np.eye(3), 2)
    assert np.allclose(w, np.eye(3))


def test_wedge_top_grade_sl2_is_det():
    w = linalg.wedge_power(np.diag([2.0, 0.5]), 2)
    assert w.shape == (1, 1)
    assert abs(w[0, 0] - 1.0) < 1e-12


def test_wedge_diag_hand_minors():
    # basis order {01, 02, 12}: minors 3*1, 3*(1/3), 1*(1/3)
    w = linalg.wedge_power(np.diag([3.0, 1.0, 1.0 / 3.0]), 2)
    assert np.allclose(w, np.diag([3.0, 1.0, 1.0 / 3.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 4))
def test_wedge_functoriality(seed, d, k):
    if k > d:
        k = d
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2, 2, (d, d))
    h = rng.uniform(-2, 2, (d, d))
    lhs = linalg.wedge_power(g @ h, k)
    rhs = linalg.wedge_power(g, k) @ linalg.wedge_power(h, k)
    scale = max(1.0, np.abs(lhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-9 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_wedge_determinant_of_special_linear(seed, d):
    rng = np.random.default_rng(seed)
    g = rng.uniform(-2, 2, (d, d))
    det = np.linalg.det(g)
    if abs(det) < 1e-3:
        return
    g = g / abs(det) ** (1.0 / d)
    w = linalg.wedge_power(g, d)
    assert abs(abs(w[0, 0]) - 1.0) <= 1e-9


def test_wedge_grade_out_of_range():
    with pytest.raises(ValueError):
        linalg.wedge_power(np.eye(3), 4)
    with pytest.raises(ValueError):
        linalg.wedge_power(np.eye(3), 0)


def test_adjoint_rep_is_homomorphism():
    rng = np.random.default_rng(3)
    g = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
    h = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
    lhs = linalg.adjoint_rep(g @ h)
    rhs = linalg.adjoint_rep(g) @ linalg.adjoint_rep(h)
    assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())


def test_adjoint_rep_orthogonal_on_rotations():
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ad = linalg.adjoint_rep(rot)
    assert np.abs(ad.T @ ad - np.eye(3)).max() < 1e-12
