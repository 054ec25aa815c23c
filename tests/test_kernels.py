"""The scalar LLL kernel and the cached height plan against numpy references.

The references are the numpy implementations the kernels replaced: LLL
with numpy Gram-Schmidt and an object-dtype transform, and the height's
per-subset determinant loop.  The reduced basis must agree byte for byte
and the transform entry for entry, on the inputs real walks and flows
feed the kernel; heights and height profiles must agree in value and
dtype.
"""
from itertools import combinations

import numpy as np
import pytest

from expwalk import catalog, dioph, lattices
from expwalk.dioph import flow_trace
from expwalk.fractal import coding_sample
from expwalk.kau import WeightPair
from expwalk.lattices import (
    HeightSpec,
    lll_reduce,
    margulis_height,
    margulis_height_profile,
    walk_simulate,
)
from expwalk.linalg import as_square


def _gso_ref(b):
    d = b.shape[1]
    q = np.zeros_like(b)
    mu = np.zeros((d, d))
    norms = np.zeros(d)
    for i in range(d):
        v = b[:, i].copy()
        for j in range(i):
            mu[i, j] = (b[:, i] @ q[:, j]) / norms[j]
            v -= mu[i, j] * q[:, j]
        q[:, i] = v
        norms[i] = v @ v
        if norms[i] <= 0.0 or not np.isfinite(norms[i]):
            raise lattices.ConditioningError("Gram-Schmidt collapsed; basis near-singular")
    return q, mu, norms


def lll_reduce_ref(basis, delta=0.99, det_tol=1e-6, renormalize=True):
    b = as_square(basis)
    d = b.shape[0]
    if renormalize:
        det = np.linalg.det(b)
        if abs(det) <= 1e-12:
            raise lattices.ConditioningError("basis is numerically singular")
        if abs(abs(det) - 1.0) >= det_tol:
            raise ValueError(f"basis determinant {det!r} is not within {det_tol} of +-1")
        b = b / abs(det) ** (1.0 / d)
    work = b.copy()
    t = np.eye(d, dtype=object)
    q, mu, norms = _gso_ref(work)
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            r = int(np.rint(mu[k, j]))
            if r != 0:
                work[:, k] -= r * work[:, j]
                t[:, k] -= r * t[:, j]
                mu[k, :j] -= r * mu[j, :j]
                mu[k, j] -= r
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            work[:, [k - 1, k]] = work[:, [k, k - 1]]
            t[:, [k - 1, k]] = t[:, [k, k - 1]]
            q, mu, norms = _gso_ref(work)
            k = max(k - 1, 1)
    try:
        t = t.astype(np.int64)
    except OverflowError:
        pass
    return lattices.UnimodularLattice(basis=b, reduced=work, transform=t)


def _subset_phis_ref(x, spec):
    d = x.dim
    delta_i, delta_lambda = spec.grade_exponents(d)
    gram = x.reduced.T @ x.reduced
    for i in range(1, d):
        expo_eps = delta_i[i - 1] / delta_lambda[i - 1]
        expo_norm = -1.0 / delta_lambda[i - 1]
        for subset in combinations(range(d), i):
            gram_det = float(np.linalg.det(gram[np.ix_(subset, subset)]))
            gram_det = max(gram_det, 1e-300)
            yield subset, i, spec.epsilon**expo_eps * gram_det ** (0.5 * expo_norm)


def height_ref(x, spec):
    best = 0.0
    for _, _, phi in _subset_phis_ref(x, spec):
        if phi > best:
            best = phi
    return float(best**spec.delta)


def height_profile_ref(x, spec):
    rows = list(_subset_phis_ref(x, spec))
    labels = np.array(["+".join(str(s) for s in subset) for subset, _, _ in rows])
    return labels, np.array([i for _, i, _ in rows]), np.array([phi for _, _, phi in rows])


def _random_start(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    c = rng.uniform(-0.5, 0.5, size=d)
    return lll_reduce(q @ np.diag(np.exp(c - c.mean())))


def _recorded_calls(monkeypatch, module, run):
    """Every (args, kwargs) that ``run`` passes to ``module.lll_reduce``."""
    calls = []
    real = module.lll_reduce

    def record(*args, **kwargs):
        calls.append((np.array(args[0], dtype=float), args[1:], kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "lll_reduce", record)
    run()
    monkeypatch.undo()
    return calls


def _walk_inputs(monkeypatch, mu, d, steps, seeds):
    def run():
        for seed in seeds:
            x0 = _random_start(np.random.default_rng(seed), d)
            walk_simulate(mu, x0, steps, [], seed=seed)

    return _recorded_calls(monkeypatch, lattices, run)


def _carpet_inputs(monkeypatch):
    ifs = catalog.bm_carpet(2, 3)
    weights = WeightPair(ifs.weightpair.r, ifs.weightpair.s)

    def run():
        for mat in coding_sample(ifs, 4, seed=3):
            flow_trace(mat, weights, 20.0, dt=0.05)

    return _recorded_calls(monkeypatch, dioph, run)


def _assert_same(new, ref):
    assert new.reduced.tobytes() == ref.reduced.tobytes()
    assert new.reduced.flags.c_contiguous and new.reduced.dtype == ref.reduced.dtype
    assert new.basis.tobytes() == ref.basis.tobytes()
    assert new.transform.dtype == ref.transform.dtype
    assert new.transform.tolist() == ref.transform.tolist()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lll_matches_numpy_reference(monkeypatch, d):
    if d == 2:
        calls = _walk_inputs(monkeypatch, catalog.positive_pair_sl2(), 2, 1000, range(4))
    elif d == 3:
        calls = _carpet_inputs(monkeypatch)
    else:
        calls = _walk_inputs(monkeypatch, catalog.sl4_five_generator_measure(), 4, 400, range(3))
    assert len(calls) > 1000
    swaps = 0
    for basis, args, kwargs in calls:
        new = lll_reduce(basis, *args, **kwargs)
        _assert_same(new, lll_reduce_ref(basis, *args, **kwargs))
        swaps += not np.array_equal(new.transform, np.eye(d, dtype=np.int64))
    assert swaps > 100  # the inputs exercise reduction, not only reduced bases


def test_lll_object_transform_matches_numpy_reference():
    # diag(1e-10, 1e10) sheared by ~1e22: the size-reduction multiplier is
    # past int64, so the transform stays exact object integers
    basis = np.diag([1e-10, 1e10]) @ np.array([[1.0, 1e22 + 3e6], [0.0, 1.0]])
    new = lll_reduce(basis)
    ref = lll_reduce_ref(basis)
    assert new.transform.dtype == object
    assert abs(new.transform[0, 1]) > 2**63
    _assert_same(new, ref)


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lll_rejects_non_finite_entries_like_as_square(renormalize, bad):
    for d in (2, 3):
        for i in range(d * d):
            basis = np.eye(d)
            basis.flat[i] = bad
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                as_square(basis)
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                lll_reduce(basis, renormalize=renormalize)


@pytest.mark.parametrize("basis", [np.ones(3), np.ones((2, 3)), [[1.0, 0.0]], 1.0])
def test_lll_rejects_non_square_input_like_as_square(basis):
    with pytest.raises(ValueError, match="expected a square matrix"):
        as_square(basis)
    with pytest.raises(ValueError, match="expected a square matrix"):
        lll_reduce(basis)


def _lattices_for_heights(d, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        b = rng.normal(size=(d, d)) @ np.diag(np.exp(rng.uniform(-4.0, 4.0, size=d)))
        det = np.linalg.det(b)
        if det < 0:
            b[:, 0] = -b[:, 0]
        out.append(lll_reduce(b / abs(det) ** (1.0 / d)))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_height_plan_matches_subset_loop(d):
    specs = [HeightSpec(0.1, 0.3), HeightSpec(0.37, 1.0)]
    specs.append(HeightSpec(0.2, 0.5, s0=tuple(np.linspace(1.3, -1.3, d))))
    for spec in specs:
        for x in _lattices_for_heights(d, 300, seed=d):
            assert repr(margulis_height(x, spec)) == repr(height_ref(x, spec))
            new, ref = margulis_height_profile(x, spec), height_profile_ref(x, spec)
            for a, b in zip(new, ref):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_height_plan_power_overflow_matches_subset_loop():
    # s0 partial sums of 1e-3 raise the Gram determinants to the power -500:
    # past the float range the power is inf, as numpy's scalar power gives
    spec = HeightSpec(0.5, 0.3, s0=(0.001, 0.0, -0.001))
    x = lll_reduce(np.diag([1e-2, 1.0, 1e2]))
    assert repr(margulis_height(x, spec)) == repr(height_ref(x, spec))
    for a, b in zip(margulis_height_profile(x, spec), height_profile_ref(x, spec)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
