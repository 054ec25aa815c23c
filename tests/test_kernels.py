"""The scalar kernels against the numpy references they replaced.

The references: LLL with numpy Gram-Schmidt and an integer transform,
the height's per-subset determinant loop, R from numpy QR and from scalar
Gram-Schmidt, the depth-first candidate search for shortest vectors, the
brute-force search that built its box one tuple at a time, the flow step
that built a lattice and its shortest vector at every grid point, the
minor-by-minor wedge power and the adjoint built on a fresh sl basis.
The reduced basis must agree byte for byte, and the Python-int transform
of the scalar kernel ``_lll`` entry for entry with the reference's, on
the inputs real walks and flows feed the kernel;
heights and height profiles must agree in value and dtype; Siegel counts
and shortest vectors must not move with R's bits, and the stacked R of the
walk's observables must keep the scalar R's bits; the stacked systole
search must give the depth-first search's lengths, vectors and refusals
under both norms; the chunked brute-force search must
return the same quality bits, p and q; flow minima and Siegel counts, and
the R the flow reads from the LLL's Gram-Schmidt data, must agree byte
for byte; and the representations must agree byte for byte.
"""
from itertools import combinations, islice, product
from math import ceil, floor, frexp, isfinite, ldexp, sqrt
from operator import mul

import numpy as np
import pytest
from mpmath import mp

from expwalk import catalog, dioph, lattices, linalg
from expwalk.dioph import SearchCapError, brute_force_quality, flow_trace
from expwalk.fractal import coding_sample
from expwalk.kau import WeightPair, flow_element, unipotent
from expwalk.lattices import (
    ConditioningError,
    CountCapError,
    HeightSpec,
    LatticeError,
    UnimodularLattice,
    _canonical_sign,
    _gso,
    lll_reduce,
    margulis_height,
    margulis_height_profile,
    shortest_vector,
    siegel_count,
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


def lll_reduce_ref(basis, renormalize=True):
    """(input rescaled to determinant +-1, reduced basis, integer transform
    as an object array with reduced = input @ transform)."""
    delta = lattices.LLL_DELTA
    b = as_square(basis)
    d = b.shape[0]
    if renormalize:
        det = np.linalg.det(b)
        if abs(det) <= 1e-12:
            raise lattices.ConditioningError("basis is numerically singular")
        if abs(abs(det) - 1.0) >= lattices.DET_TOL:
            raise ValueError(f"basis determinant {det!r} is not within 1e-06 of +-1")
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
    return b, work, t


def _kernel_transform(basis):
    """The transform of the scalar kernel ``_lll`` on ``basis``'s columns,
    rows of Python ints like the reference's ``tolist()``."""
    t = lattices._lll(np.asarray(basis, dtype=float).T.tolist())[1]
    return [list(row) for row in zip(*t)]


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


def _recorded_calls(monkeypatch, module, run, name="lll_reduce"):
    """Every (basis, args, kwargs) that ``run`` passes to ``module.lll_reduce``,
    or with ``name="_lll"`` to the scalar kernel, as the ``lll_reduce`` call
    that reduces the same basis (the kernel takes columns and never
    renormalizes)."""
    calls = []
    real = getattr(module, name)

    def record(*args, **kwargs):
        if name == "_lll":
            (cols,) = args
            calls.append((np.array(cols, dtype=float).T, (), {"renormalize": False}))
        else:
            calls.append((np.array(args[0], dtype=float), args[1:], kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)
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

    return _recorded_calls(monkeypatch, dioph, run, name="_lll")


def _assert_same(new, ref):
    """``lll_reduce``'s lattice against the reference, and the kernel's
    transform on the rescaled input against the reference's; returns that
    transform."""
    b, reduced, t = ref
    assert new.reduced.tobytes() == reduced.tobytes()
    assert new.reduced.flags.c_contiguous and new.reduced.dtype == reduced.dtype
    transform = _kernel_transform(b)
    assert transform == t.tolist()
    return transform


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
    identity = np.eye(d, dtype=int).tolist()
    for basis, args, kwargs in calls:
        new = lll_reduce(basis, *args, **kwargs)
        swaps += _assert_same(new, lll_reduce_ref(basis, *args, **kwargs)) != identity
    assert swaps > 100  # the inputs exercise reduction, not only reduced bases


def test_lll_object_transform_matches_numpy_reference():
    # diag(1e-10, 1e10) sheared by ~1e22: the size-reduction multiplier is
    # past int64; the kernel's Python ints and the reference's object
    # integers keep it exact
    basis = np.diag([1e-10, 1e10]) @ np.array([[1.0, 1e22 + 3e6], [0.0, 1.0]])
    transform = _assert_same(lll_reduce(basis), lll_reduce_ref(basis))
    assert abs(transform[0][1]) > 2**63


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
    # s0 partial sums of 4e-3 raise the Gram determinants to the power -125:
    # past the float range the power is inf, as numpy's scalar power gives
    # (sums of 1e-3 make the epsilon factor underflow, which the plan rejects)
    spec = HeightSpec(0.5, 0.3, s0=(0.004, 0.0, -0.004))
    x = lll_reduce(np.diag([1e-2, 1.0, 1e2]))
    assert margulis_height(x, spec) == np.inf
    assert repr(margulis_height(x, spec)) == repr(height_ref(x, spec))
    for a, b in zip(margulis_height_profile(x, spec), height_profile_ref(x, spec)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def rfactor_ref(x):
    """R of numpy QR with its diagonal made positive, as rows of floats."""
    _, r = np.linalg.qr(x.reduced)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (signs[:, None] * r).tolist()


# R one basis at a time, by scalar Gram-Schmidt: the bit reference of the
# stacked kernel ``_rfactor_stack``
def _rfactor(columns) -> list:
    """Rows of the upper-triangular R with positive diagonal, basis = Q R.

    Scalar Gram-Schmidt (:func:`_gso`) of the columns, column j first
    scaled by 2^-e_j, e_j the ``frexp`` exponent of its largest entry:
    the scaling is exact, and no square overflows deep in the cusp.  Then
    R_kj = mu_jk sqrt(n_k) 2^e_j and R_jj = sqrt(n_j) 2^e_j, with
    ConditioningError when an entry overflows or is not finite, or a
    diagonal entry is not positive.
    """
    cols, exps = [], []
    for col in columns:
        e = frexp(max(map(abs, col)))[1]
        cols.append([ldexp(v, -e) for v in col])
        exps.append(e)
    mu, norms = _gso(cols)
    roots = [sqrt(n) for n in norms]
    d = len(norms)
    r = [[0.0] * d for _ in range(d)]
    try:
        for j, e in enumerate(exps):
            for k in range(j):
                r[k][j] = ldexp(mu[j][k] * roots[k], e)
            r[j][j] = ldexp(roots[j], e)
    except OverflowError:
        raise ConditioningError("reduced basis degenerate in enumeration") from None
    if not all(r[j][j] > 0.0 and all(map(isfinite, r[j])) for j in range(d)):
        raise ConditioningError("reduced basis degenerate in enumeration")
    return r


def _bench_lattices(d):
    """The lattices ``scripts/bench_kernels.py`` times: seeded walk bases for
    d = 2 and 4, a float-carried carpet orbit (dt 0.05) for d = 3."""
    if d == 3:
        ifs = catalog.bm_carpet(2, 3)
        step = flow_element(ifs.weightpair, 0.05)
        x = lll_reduce(unipotent(coding_sample(ifs, 1, seed=3)[0]))
        steps = [step] * 400
    else:
        mu = catalog.positive_pair_sl2() if d == 2 else catalog.sl4_five_generator_measure()
        rng = np.random.default_rng(0 if d == 2 else 1)
        x = _random_start(rng, d)
        steps = mu.matrices[rng.choice(mu.natoms, size=2000 if d == 2 else 500, p=mu.weights)]
    out = []
    for g in steps:
        x = lll_reduce(g @ x.reduced, renormalize=False)
        out.append(UnimodularLattice(x.reduced))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rfactor_matches_numpy_qr_reference(d):
    moved = 0
    for x in _bench_lattices(d):
        r = x.rfactor()
        ra = np.array(r)
        assert all(r[j][j] > 0.0 for j in range(d)) and np.all(np.tril(ra, -1) == 0.0)
        gram = x.reduced.T @ x.reduced
        assert np.abs(ra.T @ ra - gram).max() <= 1e-12 * np.abs(gram).max()
        ref = UnimodularLattice(x.reduced, _rfactor=rfactor_ref(x))
        moved += r != ref.rfactor()
        assert siegel_count(x, 3.0) == siegel_count(ref, 3.0)
        for norm in ("sup", "euclid"):
            (v, length), (ref_v, ref_length) = shortest_vector(x, norm), shortest_vector(ref, norm)
            assert v.tobytes() == ref_v.tobytes() and repr(length) == repr(ref_length)
    assert moved  # R's bits differ from QR's, the observables do not


def _assert_stack_matches_rfactor(bases):
    """``_rfactor_stack`` against the scalar ``_rfactor``, member by member,
    and a lattice's ``rfactor``, the stack of one, against it too."""
    rs, errors = lattices._rfactor_stack(np.array(bases))
    assert len(rs) == len(bases) and errors == {}
    for b, r in zip(bases, rs):
        ref = _rfactor(b.T.tolist())
        assert r == ref and np.array(r).tobytes() == np.array(ref).tobytes()
        assert UnimodularLattice(b).rfactor() == ref


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rfactor_stack_matches_rfactor(d):
    # seeded walk bases (d = 2, 4) and carpet-flow snapshots (d = 3)
    _assert_stack_matches_rfactor([x.reduced for x in _bench_lattices(d)])


def test_rfactor_stack_matches_rfactor_deep_in_the_cusp():
    ts = np.arange(0.0, 351.0, 0.5)
    _assert_stack_matches_rfactor([np.diag([np.exp(-t), np.exp(t)]) for t in ts])


FAILING_R = [
    [[1.0, 1.0], [1.0, 1.0 + 1e-17]],  # exactly singular in floats
    [[1.5e308, 1.0], [1.5e308, 0.0]],  # R_00 = sqrt(2) 1.5e308 overflows
    [[0.0, 1.0], [0.0, 0.0]],  # a zero column
    # subnormal: R_11 = 5e-324 / sqrt(5) rounds to 0
    [[1.0, 1e-310], [2.0, 2e-310 + 5e-324]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
]


def test_rfactor_stack_names_each_failing_member_as_the_scalar_rfactor():
    good = [x.reduced for x in _bench_lattices(2)[:3]]
    bases = [good[0], FAILING_R[0], good[1], *FAILING_R[1:], good[2]]
    rs, errors = lattices._rfactor_stack(np.array(bases))
    assert sorted(errors) == [1, 3, 4, 5, 6, 7]
    assert [r is None for r in rs] == [k in errors for k in range(len(bases))]
    messages = []
    for k, (b, r) in enumerate(zip(np.array(bases), rs)):
        if r is not None:
            assert r == _rfactor(b.T.tolist())
            continue
        with pytest.raises(ConditioningError) as scalar:
            _rfactor(b.T.tolist())
        assert type(errors[k]) is ConditioningError and str(errors[k]) == str(scalar.value)
        messages.append(str(scalar.value))
        # a lattice without R computes it alone, and its step fails as the scalar R fails
        for observable in (lambda x: siegel_count(x, 3.0), lambda x: shortest_vector(x, "sup"),
                           lambda x: x.rfactor()):
            with pytest.raises(ConditioningError) as info:
                observable(UnimodularLattice(b, _rfactor=r))
            assert str(info.value) == str(scalar.value)
    collapse, degenerate = ("Gram-Schmidt collapsed; basis near-singular",
                            "reduced basis degenerate in enumeration")
    assert messages == [collapse, degenerate, collapse, degenerate, collapse, collapse]
    with pytest.raises(ConditioningError, match="Gram-Schmidt collapsed"):
        lattices._raise_first(errors)  # the lowest failing member's


# The depth-first candidate search, one lattice at a time: the bit reference
# of the stacked search ``_systole_stack`` behind ``shortest_vector``, the
# walk's systole observables and the flow's minima
def _enumerate(r: list, radius: float, cap: int, rows: bool):
    """Depth-first Fincke-Pohst walk over the integer z with |R z|_2 <= radius.

    ``r`` is R as rows of floats (:meth:`UnimodularLattice.rfactor`).
    Levels run from d - 1 down to 0; each level's integer range is added
    to the node count before it is visited, and the count passing ``cap``
    raises CountCapError.  Returns the number of nonzero z, or with
    ``rows`` the nonzero z themselves as integer lists.
    """
    d = len(r)
    rad2 = radius * radius
    z = [0] * d
    found = []
    nodes = count = 0
    too_many = f"enumeration exceeded the cap of {cap} nodes"

    def visit(level, partial):
        nonlocal nodes, count
        # row `level` of R: sum over j > level of R[level][j] z_j, left to right
        shift = 0.0
        for j in range(level + 1, d):
            shift += r[level][j] * z[j]
        half = sqrt(rad2 - partial)
        try:
            lo = ceil((-half - shift) / r[level][level] - 1e-12)
            hi = floor((half - shift) / r[level][level] + 1e-12)
        except OverflowError:  # an infinite range
            raise CountCapError(too_many) from None
        nodes += hi - lo + 1
        if nodes > cap:
            raise CountCapError(too_many)
        if level == 0:
            origin = lo <= 0 <= hi and not any(z)
            if rows:
                found.extend([zi] + z[1:] for zi in range(lo, hi + 1) if zi or not origin)
            else:
                count += hi - lo + 1 - origin
            return
        for zi in range(lo, hi + 1):
            z[level] = zi
            val = r[level][level] * zi + shift
            below = partial + val * val
            if below <= rad2:
                visit(level - 1, below)
        z[level] = 0

    visit(d - 1, 0.0)
    return found if rows else count


def _search_radius(rows: list, r: list, length, scale: float) -> float:
    """Enumeration radius for :func:`shortest_vector`: the shortest basis
    column under ``length``, times ``scale``, times 1 + 1e-12.  Refused
    when the search tree bound prod_j (1 + 2 radius / R_jj) passes 1e12."""
    radius = min(map(length, zip(*rows))) * scale * (1.0 + 1e-12)
    bound = 1.0
    for j in range(len(r)):
        bound *= 1.0 + 2.0 * radius / r[j][j]
    if bound > 1e12:
        raise ConditioningError("enumeration radius blowup: the search tree bound exceeds 1e12")
    return radius


def _search(r: list, radius: float) -> list:
    """The nonzero z of :func:`_enumerate` within ``radius``, at the node
    cap of the shortest-vector search."""
    zs = _enumerate(r, radius, cap=lattices.SEARCH_CAP, rows=True)
    if not zs:
        raise LatticeError("enumeration returned no vectors; radius too small")
    return zs


def _sup(v) -> float:
    return max(map(abs, v))


def shortest_vector_ref(x: UnimodularLattice, norm: str = "sup"):
    """Exact shortest nonzero lattice vector in the sup or Euclidean norm.

    Enumeration is seeded by the reduced basis: its best vector gives the
    initial radius (scaled by sqrt(d) for the sup norm, since any sup-norm
    minimizer has Euclidean length at most sqrt(d) times its sup norm).
    Ties within 1e-15 of the minimum go to the sparsest, then the
    lexicographically smallest sign-canonical vector.  Works on Python
    floats; candidates z B are dots accumulated left to right, and a
    Euclidean length is ``np.linalg.norm`` of its candidate.
    """
    if norm not in ("sup", "euclid"):
        raise ValueError(f"unknown norm {norm!r}")
    if norm == "euclid":
        length, scale = lambda v: float(np.linalg.norm(v)), 1.0
    else:
        length, scale = _sup, sqrt(x.dim)
    rows = x.reduced.tolist()
    r = x.rfactor()
    radius = _search_radius(rows, r, length, scale)
    cands = []
    for z in _search(r, radius):
        v = []
        for row in rows:
            s = 0.0
            for zj, bj in zip(z, row):
                s += zj * bj
            v.append(s)
        cands.append(v)
    lengths = list(map(length, cands))
    best_len = min(lengths)
    best_vec = best_key = None
    for v, v_len in zip(cands, lengths):
        if v_len <= best_len + 1e-15:
            v = _canonical_sign(v)
            key = (sum(1 for t in v if abs(t) > 1e-12), tuple(round(t, 12) for t in v))
            if best_key is None or key < best_key:
                best_key, best_vec = key, v
    return np.array(best_vec), best_len


def _assert_systoles_match_reference(bases):
    """The stacked search on a stack of bases, R given, and ``shortest_vector``
    of each lattice alone, against the depth-first reference, under both
    norms: lengths and vectors bit for bit."""
    bases = np.array(bases)
    rs, r_errors = lattices._rfactor_stack(bases)
    assert r_errors == {}
    for norm in ("sup", "euclid"):
        minima, errors, _ = lattices._systole_stack(bases, rs, r_errors, norm)
        assert errors == {} and minima.shape == (len(bases),)
        for b, length in zip(bases, minima.tolist()):
            ref_v, ref_length = shortest_vector_ref(UnimodularLattice(b), norm)
            v, v_length = shortest_vector(UnimodularLattice(b), norm)
            assert repr(length) == repr(v_length) == repr(ref_length)
            assert v.tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_euclidean_lengths_of_basis_columns_keep_the_norm_bits(d):
    # the search radius reads the columns of each basis, strided rows in memory
    rng = np.random.default_rng(d)
    bases = rng.standard_normal((500, d, d)) * np.exp(rng.uniform(-30.0, 30.0, (500, d, d)))
    lengths = lattices._lengths(np.swapaxes(bases, 1, 2), "euclid")
    ref = np.array([[np.linalg.norm(b[:, j]) for j in range(d)] for b in bases])
    assert lengths.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sup_systole_matches_shortest_vector(d):
    # seeded walk bases (d = 2, 4) and a float-carried carpet orbit (d = 3)
    lats = _bench_lattices(d)
    _assert_systoles_match_reference([x.reduced for x in lats])
    # the Siegel count, depth-first, counts the rows of the reference walk
    for x in lats[::50]:
        r = x.rfactor()
        assert lattices._enumerate(r, 3.0, 10**7) == len(_enumerate(r, 3.0, 10**7, rows=True))


def test_systole_stack_matches_the_reference_deep_in_the_cusp():
    ts = np.arange(0.0, 351.0, 0.5)
    _assert_systoles_match_reference([np.diag([np.exp(-t), np.exp(t)]) for t in ts])


def test_systole_stack_matches_the_reference_on_flow_snapshots():
    # the reduced snapshots census flows read their minima from, dt 0.05
    snaps = []
    for mat, weights, t_max in [(GOLDEN_50, UNIT, 30.0), ([[0.37]], UNIT, 30.0),
                                *[(m, CARPET.weightpair, 20.0)
                                  for m in coding_sample(CARPET, 2, seed=1)]]:
        bits = dioph._needed_bits(weights, t_max)
        with mp.workprec(bits + 64):
            entries = [[int(mp.nint(mp.ldexp(mp.mpf(v), bits))) for v in row]
                       for row in np.atleast_2d(np.asarray(mat, dtype=object))]
        orbit = dioph._flow_orbit(entries, weights, 0.05, bits)
        snaps.append(list(islice(orbit, dioph._grid_points(t_max, 0.05))))
    for group in snaps:
        _assert_systoles_match_reference(group)


def _reference_error(basis, norm):
    with pytest.raises(lattices.LatticeError) as info:
        shortest_vector_ref(UnimodularLattice(basis), norm)
    return info.value


def test_sup_systole_stack_reports_each_failing_member_as_the_scalar_search():
    good = [x.reduced for x in _bench_lattices(3)[:3]]
    # columns (N, 1, 0), (N - 1, 1, 0), (N, 1, 1) at N = 1e4: a radius of
    # about N (sqrt(3) N for the sup norm) against R_11 about 1 / N, a
    # search tree bound past 1e13
    blowup = [[1e4, 1e4 - 1, 1e4], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    # R = diag(N, N, N^-2) and a radius of N (sqrt(3) N for the sup norm) at
    # N = 256: a bound below 1e12, and a first range past 3e7 nodes at level 2
    over_cap = [[256.0, 0.0, 256.0], [0.0, 256.0, 256.0], [0.0, 0.0, 2.0**-16]]
    collapsed = [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-17, 0.0], [0.0, 0.0, 1.0]]
    bases = np.array([good[0], over_cap, good[1], blowup, collapsed, good[2]])
    for norm in ("sup", "euclid"):
        minima, errors, _ = lattices._systole_stack(bases, *lattices._rfactor_stack(bases), norm)
        assert sorted(errors) == [1, 3, 4]
        assert type(errors[1]) is lattices.CountCapError
        assert type(errors[3]) is lattices.ConditioningError
        assert type(errors[4]) is lattices.ConditioningError
        for k, err in errors.items():
            ref = _reference_error(bases[k], norm)
            assert type(err) is type(ref) and str(err) == str(ref)
            assert np.isnan(minima[k])
            # one lattice alone fails as its member of the stack does
            with pytest.raises(lattices.LatticeError) as alone:
                shortest_vector(UnimodularLattice(bases[k]), norm)
            assert type(alone.value) is type(ref) and str(alone.value) == str(ref)
        for k in (0, 2, 5):
            ref = shortest_vector_ref(UnimodularLattice(bases[k]), norm)[1]
            assert repr(float(minima[k])) == repr(ref)
        # the flow raises the lowest failing member's error, as its scalar loop did
        with pytest.raises(lattices.CountCapError, match="exceeded the cap of 10000000 nodes"):
            lattices._raise_first(errors)


@pytest.mark.parametrize("cap", [3, 5, 8, 12, 20, 30])
def test_sup_systole_stack_node_cap_matches_the_depth_first_search(monkeypatch, cap):
    # the breadth-first search passes the cap exactly where the depth-first one does
    monkeypatch.setattr(lattices, "SEARCH_CAP", cap)
    lats = _bench_lattices(3)[::10] + _bench_lattices(2)[::100]
    for norm in ("sup", "euclid"):
        for group in (lats[:40], lats[40:]):
            bases = np.array([x.reduced for x in group])
            minima, errors, _ = lattices._systole_stack(bases, *lattices._rfactor_stack(bases),
                                                        norm)
            for k, x in enumerate(group):
                try:
                    ref = shortest_vector_ref(UnimodularLattice(x.reduced), norm)[1]
                except lattices.CountCapError as err:
                    assert str(errors[k]) == str(err)
                else:
                    assert k not in errors and repr(float(minima[k])) == repr(ref)


def brute_force_quality_ref(mat, weights, t_max, cap=10**8):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    r = np.asarray(weights.r)
    s = np.asarray(weights.s)
    limits = np.floor(t_max**s + 1e-12).astype(np.int64)
    if np.prod(2 * limits.astype(float) + 1.0) > cap:
        raise SearchCapError("search box exceeds the cap")
    best, best_pq, chunk = np.inf, None, []

    def flush(chunk):
        nonlocal best, best_pq
        q = np.array(chunk, dtype=float)
        height = (np.abs(q) ** (1.0 / s)).max(axis=1)
        mq = q @ mat.T
        p = np.rint(mq)
        vals = (np.abs(mq - p) ** (1.0 / r)).max(axis=1) * height
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_pq = (p[i].astype(np.int64), np.asarray(chunk[i], dtype=np.int64))

    for q in product(*[range(-int(lim), int(lim) + 1) for lim in limits]):
        if all(v == 0 for v in q):
            continue
        chunk.append(q)
        if len(chunk) >= 65536:
            flush(chunk)
            chunk = []
    if chunk:
        flush(chunk)
    return best, best_pq


UNIT = WeightPair((1.0,), (1.0,))
CARPET = catalog.bm_carpet(2, 3)
BRUTE_CASES = [
    *[([[v]], UNIT, t) for v in (0.0, 0.5, 1 / 3, 7 / 61, 0.2718, 0.8314, 0.5772)
      for t in (1e2, 1e4)],
    *[(mat, CARPET.weightpair, 100.0) for mat in coding_sample(CARPET, 2, seed=1)],
    # 123 x 971 points in two chunks, the zero vector inside the first
    ([[0.3217, 0.7731]], WeightPair((1.0,), (0.4, 0.6)), 3e4),
    # 131,073 points: the zero vector is flat index 65,536, where a chunk starts
    ([[0.4142]], UNIT, 65536.0),
]


@pytest.mark.parametrize("mat, weights, t_max", BRUTE_CASES)
def test_brute_force_matches_tuple_loop_reference(mat, weights, t_max):
    quality, (p, q) = brute_force_quality(mat, weights, t_max)
    ref_quality, (ref_p, ref_q) = brute_force_quality_ref(mat, weights, t_max)
    assert repr(quality) == repr(ref_quality)
    assert p.dtype == ref_p.dtype and p.tolist() == ref_p.tolist()
    assert q.dtype == ref_q.dtype and q.tolist() == ref_q.tolist()


def _flow_orbit_ref(entries, weights, dt, bits):
    """The orbit step as it was: each float snapshot scaled by ``np.ldexp``,
    reduced by the numpy reference LLL, whose transform must equal the
    scalar kernel's, and yielded as an array."""
    m, d = weights.m, weights.m + weights.n
    one = 1 << bits
    with mp.workprec(bits + 64):
        factors = [
            int(mp.nint(mp.ldexp(mp.exp(mp.mpf(dt) * w), bits)))
            for w in (*weights.r, *(-s for s in weights.s))
        ]
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    rows = [[v << bits for v in row] for row in identity]
    for i in range(m):
        rows[i][m:] = [-v for v in entries[i]]
    while True:
        snap = [[v / one for v in row] for row in rows]
        exps = [frexp(v)[1] for row in snap for v in row if v]
        scaled = np.ldexp(snap, (-25 - max(exps) - min(exps)) // 2)
        transform = lll_reduce_ref(scaled, renormalize=False)[2].tolist()
        assert transform == _kernel_transform(scaled)
        if transform != identity:
            cols = list(zip(*transform))
            rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
            snap = [[v / one for v in row] for row in rows]
        yield np.array(snap)
        rows = [[(v * f) >> bits for v in row] for row, f in zip(rows, factors)]


def flow_trace_ref(mat, weights, t_max, dt=0.05, siegel_radius=None, siegel_stride=20,
                   siegel_cap=dioph.SIEGEL_CAP):
    """Minima and Siegel counts of the per-step path: every grid point builds
    an ``UnimodularLattice`` of its snapshot and reads ``shortest_vector``,
    whose ``rfactor`` the Siegel count reuses."""
    raw = np.atleast_2d(np.asarray(mat, dtype=object))
    t_grid = np.arange(int(np.floor(t_max / dt + 1e-9)) + 1) * dt
    minima = np.empty(len(t_grid))
    siegel = []
    bits = dioph._needed_bits(weights, t_max)
    with mp.workprec(bits + 64):
        entries = [[int(mp.nint(mp.ldexp(mp.mpf(v), bits))) for v in row] for row in raw]
    orbit = _flow_orbit_ref(entries, weights, dt, bits)
    for k, t in enumerate(t_grid):
        try:
            snap = next(orbit)
            x = UnimodularLattice(snap)
            minima[k] = shortest_vector_ref(x, "sup")[1]
        except (lattices.LatticeError, OverflowError) as err:
            raise lattices.ConditioningError(
                f"flow orbit cannot be reduced at t={t:g}: {err}"
            ) from err
        if siegel_radius is not None and k % siegel_stride == 0:
            try:
                siegel.append(float(siegel_count(x, siegel_radius, cap=siegel_cap)))
            except lattices.CountCapError:
                siegel.append(float(siegel_cap))
    return minima, np.asarray(siegel)


GOLDEN_50 = "0.61803398874989484820458683436563811772030917980576"
BLOCK_2X1 = ([[0.3217], [0.7731]], WeightPair((0.3, 0.7), (1.0,)))
FLOW_REF_CASES = [
    *[(mat, CARPET.weightpair, t, 0.05) for mat in coding_sample(CARPET, 3, seed=1)
      for t in (20.0, 40.0)],
    (GOLDEN_50, UNIT, 30.0, 0.05),
    (*BLOCK_2X1, 60.0, 0.1),
    (0.0, UNIT, 363.0, 1.0),
]


@pytest.mark.parametrize("mat, weights, t_max, dt", FLOW_REF_CASES)
def test_flow_trace_matches_per_step_reference(mat, weights, t_max, dt):
    trace = flow_trace(mat, weights, t_max, dt=dt, siegel_radius=3.0)
    minima, siegel = flow_trace_ref(mat, weights, t_max, dt=dt, siegel_radius=3.0)
    assert trace.minima.tobytes() == minima.tobytes()
    assert trace.extras["siegel"].tobytes() == siegel.tobytes()


def test_flow_trace_refusal_matches_per_step_reference():
    messages = []
    for trace in (flow_trace, flow_trace_ref):
        with pytest.raises(lattices.ConditioningError) as err:
            trace(0.0, UNIT, 364.0, dt=1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("flow orbit cannot be reduced at t=364:")


def test_flow_trace_raises_the_lowest_failing_point_of_a_chunk(monkeypatch):
    # searches failing at points 3 and 7 of the second chunk (t = 259 and 263)
    # come before the orbit's own failure at t = 364
    real, chunks = dioph._systole_stack, []

    def failing(bases, rs, r_errors, norm):
        minima, errors, leaves = real(bases, rs, r_errors, norm)
        if chunks:
            errors = {7: lattices.LatticeError("second"), 3: lattices.CountCapError("first")}
        chunks.append(len(bases))
        return minima, errors, leaves

    monkeypatch.setattr(dioph, "_systole_stack", failing)
    with pytest.raises(lattices.ConditioningError) as err:
        flow_trace(0.0, UNIT, 380.0, dt=1.0)
    assert str(err.value) == "flow orbit cannot be reduced at t=259: first"
    assert type(err.value.__cause__) is lattices.CountCapError
    assert chunks == [256, 108]  # the second chunk ends where the orbit fails


RFACTOR_REUSE_CASES = [
    (0.0, UNIT, 360.0, 1.0),
    (0.37, UNIT, 200.0, 0.05),
    (GOLDEN_50, UNIT, 200.0, 0.05),
    *[(mat, CARPET.weightpair, 40.0, 0.05) for mat in coding_sample(CARPET, 6, seed=1)],
    (*BLOCK_2X1, 60.0, 0.1),
]


@pytest.mark.parametrize("mat, weights, t_max, dt", RFACTOR_REUSE_CASES)
def test_flow_rfactor_reuse_matches_fresh_rfactor(monkeypatch, mat, weights, t_max, dt):
    # each chunk's R, which its systole search and Siegel counts reuse, is
    # _rfactor of each snapshot, bit for bit; deep in the cusp too, where the
    # zero orbit's snapshots span 1,039 bits at t = 360
    stack, chunks = dioph._rfactor_stack, []

    def checked_stack(bases):
        rs, errors = stack(bases)
        assert errors == {}
        for b, r in zip(bases, rs):
            ref = _rfactor(b.T.tolist())
            assert r == ref and np.array(r).tobytes() == np.array(ref).tobytes()
        chunks.append(len(bases))
        return rs, errors

    monkeypatch.setattr(dioph, "_rfactor_stack", checked_stack)
    points = len(flow_trace(mat, weights, t_max, dt=dt).minima)
    assert sum(chunks) == points
    assert chunks == [lattices.WALK_CHUNK] * (points // lattices.WALK_CHUNK) + [
        points % lattices.WALK_CHUNK]


def wedge_power_ref(g, k):
    g = as_square(g)
    if k == 1:
        return g.copy()
    subsets = list(combinations(range(g.shape[0]), k))
    out = np.empty((len(subsets), len(subsets)))
    for j, cols in enumerate(subsets):
        gc = g[:, cols]
        for i, rows in enumerate(subsets):
            out[i, j] = np.linalg.det(gc[rows, :])
    return out


WEDGE_CASES = [(d, k) for d in range(2, 7) for k in range(1, d + 1)] + [(15, 1), (15, 2), (15, 3)]


@pytest.mark.parametrize("d, k", WEDGE_CASES)
def test_wedge_power_matches_minor_loop_reference(d, k):
    rng = np.random.default_rng(10 * d + k)
    g = rng.normal(size=(d, d))
    assert linalg.wedge_power(g, k).tobytes() == wedge_power_ref(g, k).tobytes()


def adjoint_rep_ref(g):
    g = as_square(g)
    basis = linalg.sl_basis.__wrapped__(g.shape[0])
    images = np.einsum("ij,ajk,kl->ail", g, basis, np.linalg.inv(g))
    return np.einsum("aij,bij->ab", basis, images)


def test_adjoint_rep_matches_fresh_basis_reference():
    rng = np.random.default_rng(4)
    for g in rng.normal(size=(200, 4, 4)):
        assert linalg.adjoint_rep(g).tobytes() == adjoint_rep_ref(g).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        linalg.sl_basis(4)[0, 0, 0] = 2.0
