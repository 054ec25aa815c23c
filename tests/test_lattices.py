import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expwalk import catalog, lattices
from expwalk.lattices import (
    WALK_CHUNK,
    ConditioningError,
    ContractionFit,
    ContractionUnverified,
    HeightSpec,
    LatticeError,
    UnimodularLattice,
    _each,
    _walk,
    contraction_fit,
    lll_reduce,
    mahler_member,
    margulis_height,
    parse_observable,
    recurrence_experiment,
    shortest_vector,
    siegel_count,
    standard_lattice,
    walk_simulate,
)
from expwalk.measures import GroupMeasure, sample_indices


def random_unimodular_int(rng, d, steps=8):
    t = np.eye(d, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        t[:, j] += int(rng.integers(-3, 4)) * t[:, i]
    return t


def test_lll_z2_skew_basis():
    x = lll_reduce(np.array([[1.0, 0.0], [100.0, 1.0]]).T)
    assert np.abs(np.abs(x.reduced) - np.eye(2)).max() < 1e-12 or np.abs(
        np.abs(x.reduced) - np.eye(2)[::-1]
    ).max() < 1e-12


def test_lll_identity_fixed():
    x = lll_reduce(np.eye(3))
    assert np.array_equal(x.reduced, np.eye(3))


def test_lll_transform_relates_bases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b = rng.normal(size=(3, 3))
        det = np.linalg.det(b)
        if abs(det) < 0.1:
            continue
        b /= abs(det) ** (1 / 3)
        x = lll_reduce(b)
        t = np.linalg.solve(b, x.reduced)  # reduced = b @ t, t integral and unimodular
        assert np.abs(np.rint(t) - t).max() < 1e-7
        assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-7


def test_lll_rejects_non_unimodular():
    with pytest.raises(ValueError):
        lll_reduce(np.diag([2.0, 1.0]))


def test_shortest_z3_sup():
    v, length = shortest_vector(standard_lattice(3), "sup")
    assert length == 1.0


def test_shortest_explicit_lattice():
    x = lll_reduce(np.diag([0.3, 1 / 0.3]))
    v, length = shortest_vector(x, "sup")
    assert abs(length - 0.3) < 1e-12
    assert np.abs(np.abs(v) - [0.3, 0.0]).max() < 1e-12


def test_shortest_flow_lattice():
    from expwalk.kau import WeightPair, flow_element, unipotent

    wp = WeightPair((1.0,), (1.0,))
    basis = flow_element(wp, 2.0) @ unipotent(np.array([[0.0]]))
    x = lll_reduce(basis)
    assert abs(shortest_vector(x, "sup")[1] - np.exp(-2.0)) < 1e-12


def test_mahler_examples():
    assert mahler_member(standard_lattice(2), 0.5)
    assert not mahler_member(lll_reduce(np.diag([0.3, 1 / 0.3])), 0.5)
    assert not mahler_member(standard_lattice(2), 1.5)  # empty above 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_mahler_monotone(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(2, 2))
    if abs(np.linalg.det(b)) < 0.1:
        return
    x = lll_reduce(b / abs(np.linalg.det(b)) ** 0.5)
    eps = sorted(rng.uniform(0.05, 1.0, size=3))
    flags = [mahler_member(x, e) for e in eps]
    for earlier, later in zip(flags, flags[1:]):
        assert earlier or not later  # true at eps implies true below


def test_siegel_examples():
    assert siegel_count(standard_lattice(2), 3.0) == 28
    assert siegel_count(standard_lattice(2), 0.5) == 0
    assert siegel_count(lll_reduce(np.diag([2.0, 0.5])), 0.6) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_siegel_even(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    b = rng.normal(size=(d, d))
    if abs(np.linalg.det(b)) < 0.1:
        return
    x = lll_reduce(b / abs(np.linalg.det(b)) ** (1 / d))
    assert siegel_count(x, 2.0) % 2 == 0


def test_height_z2():
    spec = HeightSpec(epsilon=0.1, delta=1.0)
    assert abs(margulis_height(standard_lattice(2), spec) - 0.01) < 1e-12


def test_height_diag_lattice():
    spec = HeightSpec(epsilon=0.1, delta=1.0)
    x = lll_reduce(np.diag([5.0, 0.2]))
    assert abs(margulis_height(x, spec) - 0.25) < 1e-12


def test_height_finite_on_random_lattices():
    rng = np.random.default_rng(9)
    spec = HeightSpec(epsilon=0.1, delta=0.3)
    for d in (2, 3, 4):
        for _ in range(10):
            b = rng.normal(size=(d, d))
            if abs(np.linalg.det(b)) < 0.05:
                continue
            x = lll_reduce(b / abs(np.linalg.det(b)) ** (1 / d))
            assert np.isfinite(margulis_height(x, spec))


def test_height_custom_s0_matches_default():
    spec_default = HeightSpec(epsilon=0.2, delta=0.5)
    spec_explicit = HeightSpec(epsilon=0.2, delta=0.5, s0=(0.5, -0.5))
    x = lll_reduce(np.diag([3.0, 1 / 3.0]))
    assert margulis_height(x, spec_default) == margulis_height(x, spec_explicit)


def test_height_equivariance_bound():
    rng = np.random.default_rng(14)
    for d in (2, 3):
        spec = HeightSpec(epsilon=0.1, delta=0.3)
        _, delta_lambda = spec.grade_exponents(d)
        kappa = 2.0 * (1.0 / delta_lambda.min()) * spec.delta
        for _ in range(25):
            b = rng.normal(size=(d, d))
            if abs(np.linalg.det(b)) < 0.1:
                continue
            x = lll_reduce(b / abs(np.linalg.det(b)) ** (1 / d))
            h = rng.normal(size=(d, d))
            if abs(np.linalg.det(h)) < 0.1:
                continue
            h /= abs(np.linalg.det(h)) ** (1 / d)
            s = np.linalg.svd(h, compute_uv=False)
            norm_h = max(s[0], 1.0 / s[-1])  # N(h) = max(|h|, |h^-1|)
            if norm_h > 10.0:
                continue
            hx = lll_reduce(h @ x.reduced, renormalize=False)
            bound = norm_h ** kappa * margulis_height(x, spec)
            assert margulis_height(hx, spec) <= bound * (1 + 1e-9)


def test_reduction_soundness_subset_wedges():
    # covolume-of-subset invariants stable across re-presentations of the
    # same lattice, within the LLL approximation factor 2^(d^2)
    rng = np.random.default_rng(23)
    d = 3
    b = rng.normal(size=(d, d))
    b /= abs(np.linalg.det(b)) ** (1 / d)

    def subset_minima(x):
        from itertools import combinations

        gram = x.reduced.T @ x.reduced
        out = {}
        for i in range(1, d):
            out[i] = min(
                np.linalg.det(gram[np.ix_(s, s)]) for s in combinations(range(d), i)
            )
        return out

    base = subset_minima(lll_reduce(b))
    factor = 2.0 ** (d * d)
    for _ in range(100):
        t = random_unimodular_int(rng, d)
        again = subset_minima(lll_reduce(b @ t))
        for i in base:
            ratio = again[i] / base[i]
            assert 1.0 / factor <= ratio <= factor


def test_walk_constant_under_identity():
    mu = GroupMeasure.dirac(np.eye(2))
    rec = walk_simulate(mu, standard_lattice(2), 50, ["siegel:3.0"], seed=0)
    assert np.all(rec.values["siegel:3.0"] == 28.0)
    assert np.all(rec.running["siegel:3.0"] == 28.0)


def test_walk_divergent_geodesic_leaves_mahler_forever():
    mu = catalog.diagonal_geodesic_sl2()
    rec = walk_simulate(mu, standard_lattice(2), 60, ["mahler:0.5"], seed=0)
    vals = rec.values["mahler:0.5"]
    assert np.all(vals[10:] == 0.0)


@pytest.mark.parametrize("kind", ["walk", "recur"])
def test_walk_step_failure_names_its_step(kind):
    # diag(1e100, 1e-100) twice collapses the Gram-Schmidt data at step 2
    mu = GroupMeasure.dirac(np.diag([1e100, 1e-100]))
    one = np.ones(1)
    fit = ContractionFit(0.5, 1.0, np.array([], dtype=int), True, one, one, one, 1)
    with pytest.raises(ConditioningError, match="reduction failed at step 2: Gram-Schmidt"):
        if kind == "walk":
            walk_simulate(mu, standard_lattice(2), 5, ["shortest:sup"], seed=0)
        else:
            recurrence_experiment(mu, HeightSpec(0.1, 0.3), 0.5, standard_lattice(2), [3],
                                  mc_trials=1, fit=fit)


def test_walk_bit_reproducible():
    mu = catalog.positive_pair_sl2()
    obs = ["siegel:3.0", "shortest:sup"]
    rec1 = walk_simulate(mu, standard_lattice(2), 300, obs, seed=42)
    rec2 = walk_simulate(mu, standard_lattice(2), 300, obs, seed=42)
    for k in rec1.values:
        assert np.array_equal(rec1.values[k], rec2.values[k])
        assert np.array_equal(rec1.running[k], rec2.running[k])


# the observables of one lattice, as the step-by-step walk loop read them
SCALAR_OBSERVABLES = {
    "siegel:3.0": lambda x: float(siegel_count(x, 3.0)),
    "shortest:sup": lambda x: shortest_vector(x, "sup")[1],
    "shortest:euclid": lambda x: shortest_vector(x, "euclid")[1],
    "mahler:0.3": lambda x: float(mahler_member(x, 0.3)),
    "height": lambda x: margulis_height(x, HeightSpec(0.1, 0.3)),
}


def walk_simulate_ref(mu, x0, n_steps, observables, seed):
    """The step-by-step loop that read each observable of each lattice as
    ``_walk`` reduced it: (label, fn) pairs, fn of one lattice."""
    values = {label: np.empty(n_steps + 1) for label, _ in observables}
    for label, fn in observables:
        values[label][0] = fn(x0)
    idx = sample_indices(mu, n_steps, seed=seed)
    for step, x in enumerate(_walk(x0, (mu.matrices[i] for i in idx)), 1):
        for label, fn in observables:
            values[label][step] = fn(x)
    return values


def _outcome(run):
    """(class, message) of what ``run`` raises, or its result."""
    try:
        return run()
    except Exception as err:  # noqa: BLE001 - any failure is compared
        return type(err), str(err)


def _criterion_05_start():
    return lll_reduce([[1.0, np.sqrt(2.0)], [0.0, 1.0]])


def _five_start():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    c = rng.uniform(-0.5, 0.5, size=4)
    return lll_reduce(q @ np.diag(np.exp(c - c.mean())))


@pytest.mark.parametrize("mu, start, n_steps, labels, seed", [
    # criterion 05's start, past several chunk boundaries
    (catalog.positive_pair_sl2(), _criterion_05_start, 1300,
     ["siegel:3.0", "shortest:sup", "mahler:0.3"], 0),
    (catalog.sl4_five_generator_measure(), _five_start, 600, ["height", "shortest:euclid"], 1),
])
def test_chunked_walk_matches_step_by_step_loop(mu, start, n_steps, labels, seed):
    assert n_steps > WALK_CHUNK
    obs = [parse_observable(label, HeightSpec(0.1, 0.3)) for label in labels]
    rec = walk_simulate(mu, start(), n_steps, obs, seed=seed)
    ref = walk_simulate_ref(mu, start(), n_steps,
                            [(label, SCALAR_OBSERVABLES[label]) for label in labels], seed)
    assert list(rec.values) == labels
    for label in labels:
        assert np.array_equal(rec.values[label], ref[label])


# 2^(3/4) a step: the reduction collapses at step 683, inside a chunk
CLIMB = GroupMeasure.dirac(np.diag([2.0**0.75, 2.0**-0.75]))


def _recorders():
    """A list observable and its one-lattice twin, each logging the bases
    it reads: (log, observable, reference log, reference observable)."""
    seen, seen_ref = [], []

    def record(xs):
        seen.extend(x.reduced.tobytes() for x in xs)
        return [0.0] * len(xs)

    def record_ref(x):
        seen_ref.append(x.reduced.tobytes())
        return 0.0

    return seen, ("bases", record), seen_ref, ("bases", record_ref)


def test_reduction_failure_mid_chunk_follows_the_earlier_steps_observables():
    seen, record, seen_ref, record_ref = _recorders()
    got = _outcome(lambda: walk_simulate(CLIMB, standard_lattice(2), 1000, ["mahler:0.3", record]))
    expected = _outcome(lambda: walk_simulate_ref(
        CLIMB, standard_lattice(2), 1000, [("mahler:0.3", SCALAR_OBSERVABLES["mahler:0.3"]),
                                           record_ref], 0))
    assert expected == (ConditioningError, "reduction failed at step 683: Gram-Schmidt collapsed; "
                                           "basis near-singular")
    assert got == expected and 683 % WALK_CHUNK > 1
    assert len(seen_ref) == 683 and seen == seen_ref  # x0 and steps 1..682


@pytest.mark.parametrize("fail_at", [1, 2, WALK_CHUNK, WALK_CHUNK + 1, WALK_CHUNK + 2])
def test_reduction_failure_at_chunk_edges_follows_the_earlier_steps_observables(monkeypatch,
                                                                                 fail_at):
    real, calls = lattices.lll_reduce, []

    def reduce(basis, renormalize=True):
        calls.append(1)
        if len(calls) == fail_at:
            raise ConditioningError("Gram-Schmidt collapsed; basis near-singular")
        return real(basis, renormalize)

    def run(walk):
        calls.clear()
        return _outcome(walk)

    seen, record, seen_ref, record_ref = _recorders()
    labels = ["height", "siegel:3.0", "shortest:sup"]
    monkeypatch.setattr(lattices, "lll_reduce", reduce)
    got = run(lambda: walk_simulate(
        catalog.positive_pair_sl2(), _criterion_05_start(), 600,
        [parse_observable(label, HeightSpec(0.1, 0.3)) for label in labels] + [record]))
    expected = run(lambda: walk_simulate_ref(
        catalog.positive_pair_sl2(), _criterion_05_start(), 600,
        [(label, SCALAR_OBSERVABLES[label]) for label in labels] + [record_ref], 0))
    assert expected == (ConditioningError, f"reduction failed at step {fail_at}: Gram-Schmidt "
                                           "collapsed; basis near-singular")
    assert got == expected
    assert len(seen_ref) == fail_at and seen == seen_ref


def _past(bits):
    """An observable that fails on a basis entry past 2^bits."""
    def value(x):
        if np.abs(x.reduced).max() > 2.0**bits:
            raise LatticeError(f"entry past 2^{bits}")
        return 0.0
    return f"past:{bits}", value


@pytest.mark.parametrize("labels", [
    ["siegel:3.0", 40],  # the Siegel count hits its cap at a lower step
    [40, "siegel:3.0"],
    [15, "siegel:3.0"],  # the entry bound at a lower step
    ["siegel:3.0", 15],
    ["siegel:3.0", 20.9],  # both at step 28: the first in order
    [20.9, "siegel:3.0"],
    ["mahler:0.3", 450],  # in the chunk of step 683, before its reduction fails
    [450, 20, "mahler:0.3"],
])
def test_chunked_walk_raises_the_step_by_step_loops_first_failure(labels):
    pairs = [(label, SCALAR_OBSERVABLES[label]) if isinstance(label, str) else _past(label)
             for label in labels]
    obs = [(label, _each(fn)) if label.startswith("past") else label for label, fn in pairs]
    got = _outcome(lambda: walk_simulate(CLIMB, standard_lattice(2), 1000, obs))
    expected = _outcome(lambda: walk_simulate_ref(CLIMB, standard_lattice(2), 1000, pairs, 0))
    assert isinstance(expected, tuple) and issubclass(expected[0], LatticeError)
    assert got == expected


@pytest.mark.parametrize("observable, reason", [
    ("mahler:0", "epsilon must be positive"),
    ("siegel:-1", "radius must be positive"),
    ("shortest:taxicab", "unknown norm 'taxicab'"),
])
def test_bad_observable_refused_before_any_reduction(monkeypatch, observable, reason):
    def never(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lattices, "sample_indices", never)
    monkeypatch.setattr(lattices, "lll_reduce", never)
    with pytest.raises(ValueError) as info:
        walk_simulate(catalog.positive_pair_sl2(), standard_lattice(2), 10**6, [observable])
    assert str(info.value) == reason


def test_contraction_identity_reports_violations():
    height = HeightSpec(epsilon=0.1, delta=0.3)
    fit = contraction_fit(GroupMeasure.dirac(np.eye(2)), height, m=4, sample_points=90, seed=0)
    assert not fit.ok
    assert fit.violation_count > 0


def test_contraction_positive_pair_ok(monkeypatch):
    from expwalk import lattices

    calls = []
    real = lattices.convolution_support
    monkeypatch.setattr(
        lattices, "convolution_support", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    height = HeightSpec(epsilon=0.1, delta=0.3)
    fit = contraction_fit(catalog.positive_pair_sl2(), height, m=6, sample_points=120, seed=0)
    assert fit.ok and fit.a_hat < 1.0 and fit.violation_count == 0
    # the exact 6-step convolution is built once per fit, not once per point
    assert len(calls) == 1


def test_contraction_divergent_geodesic_fails_on_its_direction():
    height = HeightSpec(epsilon=0.1, delta=0.3)
    fit = contraction_fit(catalog.diagonal_geodesic_sl2(), height, m=6, sample_points=90, seed=0)
    assert not fit.ok
    assert fit.violation_count > 0
    # violations sit at genuinely high points of the walk-burst family
    assert fit.beta[fit.violations].min() > 1.0


def test_recurrence_refuses_identity():
    height = HeightSpec(epsilon=0.1, delta=0.3)
    with pytest.raises(ContractionUnverified):
        recurrence_experiment(
            GroupMeasure.dirac(np.eye(2)),
            height,
            0.1,
            standard_lattice(2),
            [2, 4],
            mc_trials=10,
            seed=0,
            sample_points=60,
        )


def test_recurrence_positive_pair_masses():
    height = HeightSpec(epsilon=0.1, delta=0.3)
    mu = catalog.positive_pair_sl2()
    fit = contraction_fit(mu, height, m=6, sample_points=120, seed=0)
    table = recurrence_experiment(
        mu, height, 0.1, standard_lattice(2), [4, 8, 12], mc_trials=60, seed=0, fit=fit
    )
    assert table.level > 1.0
    assert all(mass >= 0.9 for _, mass in table.entries)


def test_siegel_cap_error():
    from expwalk.lattices import CountCapError

    for d in (2, 3):
        with pytest.raises(CountCapError):
            siegel_count(standard_lattice(d), 100.0, cap=100)
        for radius in (1e200, np.inf):  # ranges too wide for a float or an int
            with pytest.raises(CountCapError):
                siegel_count(standard_lattice(d), radius)


def test_siegel_deep_cusp_hits_node_cap_not_conditioning():
    # one level range of ~6e13 leaves: charged before it is walked, so the
    # count fails at once on the node cap (a tree-bound pre-check would
    # raise ConditioningError here and end a flow trace instead of saturating)
    from expwalk.lattices import CountCapError

    x = lll_reduce(np.diag([np.exp(-30.0), np.exp(30.0)]))
    with pytest.raises(CountCapError):
        siegel_count(x, 3.0, cap=10**5)


def test_lll_orthogonal_diag_reduces_to_same_vectors():
    # diag(5, 1/5) is already orthogonal: reduction only reorders/flips
    x = lll_reduce(np.diag([5.0, 0.2]))
    cols = {tuple(np.round(np.abs(c), 12)) for c in x.reduced.T}
    assert cols == {(5.0, 0.0), (0.0, 0.2)}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_enumeration_matches_brute_force(d):
    # shortest vectors and Siegel counts against an exhaustive integer box
    # that provably holds every vector of the searched length
    rng = np.random.default_rng(77)
    radius = 1.8
    checked = 0
    while checked < 5:
        b = rng.normal(size=(d, d))
        det = np.linalg.det(b)
        if abs(det) < 0.05:
            continue
        x = lll_reduce(b / abs(det) ** (1 / d))
        # |z_i| <= |row i of B^-1|_2 |v|_2, and the sup minimizer has |v|_2 <= sqrt(d) sup
        reach = max(radius, np.sqrt(d) * shortest_vector(x, "sup")[1])
        k = int(np.ceil(np.linalg.norm(np.linalg.inv(x.reduced), axis=1).max() * reach))
        assert k <= 8
        grid = np.array(list(np.ndindex(*([2 * k + 1] * d)))) - k
        grid = grid[np.any(grid != 0, axis=1)]
        vecs = grid.astype(float) @ x.reduced.T
        euclid = np.linalg.norm(vecs, axis=1)
        assert abs(shortest_vector(x, "euclid")[1] - euclid.min()) < 1e-9
        assert abs(shortest_vector(x, "sup")[1] - np.abs(vecs).max(axis=1).min()) < 1e-9
        assert siegel_count(x, radius) == int(np.sum(euclid <= radius))
        checked += 1


def test_shortest_not_longer_than_any_reduced_vector():
    rng = np.random.default_rng(99)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        b = rng.normal(size=(d, d))
        det = np.linalg.det(b)
        if abs(det) < 0.05:
            continue
        x = lll_reduce(b / abs(det) ** (1 / d))
        sup_len = shortest_vector(x, "sup")[1]
        assert sup_len <= np.abs(x.reduced).max(axis=0).min() + 1e-12
        euc_len = shortest_vector(x, "euclid")[1]
        assert euc_len <= np.linalg.norm(x.reduced, axis=0).min() + 1e-12


def test_height_rejects_s0_whose_grade_factor_underflows():
    # epsilon^(delta_i / delta_lambda_i) = 0.5^2000 underflows to 0; the height
    # used to read 0.0, with NaN phis that the max skipped
    x = lll_reduce(np.diag([1e-2, 1.0, 1e2]))
    spec = HeightSpec(0.5, 0.3, (0.001, 0.0, -0.001))
    with pytest.raises(ValueError, match=r"s0 \(0.001, 0.0, -0.001\) and epsilon 0.5"):
        margulis_height(x, spec)
    assert margulis_height(x, HeightSpec(0.5, 0.3, (1.0, 0.0, -1.0))) > 0.0


# ---------------------------------------------------------------------------
# the lockstep stack against the scalar kernels


def _sl_measure(d, seed, n_atoms=3):
    """Seeded atoms of determinant 1 near the identity, uniform weights."""
    rng = np.random.default_rng(seed)
    mats = np.eye(d) + 0.6 * rng.normal(size=(n_atoms, d, d))
    dets = np.linalg.det(mats)
    mats[:, :, 0] *= np.sign(dets)[:, None]
    mats /= np.abs(dets)[:, None, None] ** (1.0 / d)
    return GroupMeasure(mats, np.full(n_atoms, 1.0 / n_atoms))


STACK_MEASURES = {2: catalog.positive_pair_sl2, 3: lambda: _sl_measure(3, 31),
                  4: catalog.sl4_five_generator_measure}


def _random_unimodular(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    c = rng.uniform(-0.5, 0.5, size=d)
    return lll_reduce(q @ np.diag(np.exp(c - c.mean()))).reduced


def _walk_inputs(mu, d, steps, seed):
    """The bases g x.reduced that a seeded walk hands to ``lll_reduce``, as
    ``scripts/bench_kernels.py`` builds them, and seeded skewed bases that
    take many swaps."""
    rng = np.random.default_rng(seed)
    x = UnimodularLattice(_random_unimodular(rng, d))
    inputs = []
    for i in rng.choice(mu.natoms, size=steps, p=mu.weights):
        inputs.append(mu.matrices[i] @ x.reduced)
        x = lll_reduce(inputs[-1], renormalize=False)
    for _ in range(steps // 4):
        inputs.append(x.reduced @ random_unimodular_int(rng, d, steps=12).astype(float))
    return np.array(inputs)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_lll_stack_matches_lll_reduce_bit_for_bit(d):
    from expwalk.lattices import _lll_stack

    bases = _walk_inputs(STACK_MEASURES[d](), d, 400, seed=d)
    reduced, errors = _lll_stack(bases)
    assert errors == {}
    scalar = np.array([lll_reduce(b, renormalize=False).reduced for b in bases])
    assert np.array_equal(_bits(reduced), _bits(scalar))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_heights_match_margulis_height_and_profile(d):
    # margulis_height is the one-member stack; tests/test_kernels.py holds it
    # to the subset-loop reference
    from expwalk.lattices import _heights, _stack_phis, margulis_height_profile

    spec = HeightSpec(0.1, 0.3)
    lats = [lll_reduce(b, renormalize=False) for b in _walk_inputs(STACK_MEASURES[d](), d, 200,
                                                                   seed=10 + d)]
    lats.append(lll_reduce(np.diag([1e-9, 1e9] + [1.0] * (d - 2))))  # deep in the cusp
    stack = np.array([x.reduced for x in lats])
    assert np.array_equal(_bits(_heights(stack, spec)),
                          _bits([margulis_height(x, spec) for x in lats]))
    phis = np.concatenate([np.reshape(p, (len(lats), -1)) for _, _, p in _stack_phis(stack, spec)],
                          axis=1)
    for x, row in zip(lats, phis):
        assert np.array_equal(_bits(row), _bits(margulis_height_profile(x, spec)[2]))


def _first_failure(run, members):
    """(class, message) of the first exception of ``run`` over ``members``
    in order, as a scalar loop meets it."""
    for member in members:
        try:
            run(member)
        except Exception as err:  # noqa: BLE001 - any failure is compared
            return type(err), str(err)
    return None


@pytest.mark.parametrize("swap", [False, True])
def test_lll_stack_raises_the_lowest_failing_members_error(swap):
    from expwalk.lattices import _lll_stack, _raise_first

    rng = np.random.default_rng(5)
    bases = np.array([_random_unimodular(rng, 2) for _ in range(10)])
    collapsed = np.array([[1.0, 2.0], [2.0, 4.0]])  # parallel columns
    non_finite = np.array([[np.nan, 0.0], [0.0, 1.0]])
    bases[3], bases[7] = (non_finite, collapsed) if swap else (collapsed, non_finite)
    errors = _lll_stack(bases)[1]
    assert sorted(errors) == [3, 7]
    with pytest.raises(Exception) as info:
        _raise_first(errors)
    expected = _first_failure(lambda b: lll_reduce(b, renormalize=False), bases)
    assert (type(info.value), str(info.value)) == expected
    assert expected[0] is (ValueError if swap else ConditioningError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the product with inf, in both loops
def test_walk_stack_names_the_lowest_failing_members_step():
    # member 7 fails at step 1, member 3 only at step 2: the scalar loop over
    # the members meets member 3 first
    from expwalk.lattices import _walk, _walk_stack

    atoms = np.array([np.eye(2), np.diag([1e100, 1e-100]), np.diag([np.inf, 1.0])])
    idx = np.zeros((10, 3), dtype=int)
    idx[3] = [1, 1, 0]
    idx[7] = [2, 0, 0]
    x = np.repeat(np.eye(2)[None], 10, axis=0)
    with pytest.raises(Exception) as info:
        for _ in _walk_stack(x, atoms, idx):
            pass
    expected = _first_failure(lambda b: list(_walk(UnimodularLattice(np.eye(2)), atoms[idx[b]])),
                              range(10))
    assert (type(info.value), str(info.value)) == expected
    assert expected == (ConditioningError,
                        "reduction failed at step 2: Gram-Schmidt collapsed; basis near-singular")


def test_recurrence_failure_names_the_step_of_the_scalar_loop():
    # at seed 2, trial 0 collapses at step 17 and trial 3 already at step 3
    from expwalk.lattices import _walk
    from expwalk.measures import sample_indices

    mu = GroupMeasure(np.array([np.eye(2), np.diag([1e100, 1e-100])]), np.array([0.85, 0.15]))
    one = np.ones(1)
    fit = ContractionFit(0.5, 1.0, np.array([], dtype=int), True, one, one, one, 1)

    def trial(t):
        idx = sample_indices(mu, 30, seed=2, path=(17, t))
        return list(_walk(standard_lattice(2), mu.matrices[idx]))

    expected = _first_failure(trial, range(8))
    assert expected == (ConditioningError, "reduction failed at step 17: Gram-Schmidt collapsed; "
                                           "basis near-singular")
    with pytest.raises(ConditioningError) as info:
        recurrence_experiment(mu, HeightSpec(0.1, 0.3), 0.5, standard_lattice(2), [10, 30],
                              mc_trials=8, seed=2, fit=fit)
    assert str(info.value) == expected[1]


def test_exact_averaged_heights_match_the_scalar_loop():
    from expwalk.lattices import _averaged_heights, _cusp_ladder_points
    from expwalk.measures import convolution_support

    mu, spec = catalog.positive_pair_sl2(), HeightSpec(0.1, 0.3)
    conv = convolution_support(mu, 6, cap=4096)
    points = _cusp_ladder_points(mu, 2, 12, seed=6)
    averaged, stderr = _averaged_heights(mu, conv, points, spec, 6, 200, 6)
    for i, x in enumerate(points):
        vals = [w * margulis_height(lll_reduce(g @ x, renormalize=False), spec)
                for g, w in zip(conv.matrices, conv.weights)]
        assert averaged[i] == float(np.sum(vals))
    assert not stderr.any()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gso_stack_matches_scalar_gso_bit_for_bit(d):
    # the reduced bases depend on the Gram-Schmidt data only through the
    # rounding and swap decisions, so the data itself is compared here
    from expwalk.lattices import _gso, _gso_stack

    rng = np.random.default_rng(40 + d)
    cols = rng.normal(size=(300, d, d)) * np.exp(rng.uniform(-20.0, 20.0, size=(300, 1, d)))
    mu, norms, collapsed = _gso_stack(cols)
    assert not collapsed.any()
    for c, m, n in zip(cols, mu, norms):
        mu_ref, norms_ref = _gso(c.tolist())
        assert np.array_equal(_bits(n), _bits(norms_ref))
        assert np.array_equal(_bits([m[i, j] for i in range(d) for j in range(i)]),
                              _bits([v for row in mu_ref for v in row]))
