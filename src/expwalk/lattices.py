"""The space of unimodular lattices SL_d(R)/SL_d(Z).

A point is represented by a determinant +-1 basis matrix (columns generate
the lattice) together with an LLL-reduced basis of the same lattice and
the integer change of basis relating them.  Reduction is applied at every
random-walk step so representatives stay numerically tame over long runs.

Provides exact shortest vectors, membership in the Mahler sets K_eps,
Siegel lattice-point counts, the cusp height built from wedge norms of
basis subsets, and the random-walk harnesses checking its contraction
under averaging.

Shortest vectors and Siegel counts share one depth-first Fincke-Pohst
enumerator on the cached R-factor of the reduced basis, in every
dimension.  Its node cap counts integer coordinates visited at every
level, leaves included: each level's whole range is charged before it is
walked, so a range past the cap (deep in the cusp) fails at once.

Reduction is one scalar LLL kernel for every dimension, on Python floats
and ints (numpy's per-call overhead dominates on 2x2 to 4x4 bases).  It
keeps to three rules so that its results do not depend on how numpy or
the Python version sums: dots accumulate left to right (``s += a * b``,
never ``sum()``, which compensates from Python 3.12 on), coefficients
round half to even (``round``, like ``np.rint``), and the Lovasz test
squares with ``m ** 2`` (C ``pow``, like numpy's scalar power, which can
differ from ``m * m`` in the last bit).  The height reads a plan cached
per (spec, d): grade exponents and stacked subset indices, so one call
is one Gram product and one batched determinant per grade.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import ceil, floor, frexp, isfinite, ldexp, sqrt

import numpy as np

from .linalg import weyl_interior_vector
from .measures import GroupMeasure, ConvolutionCapError, convolution_support, sample_indices
from .rng import substream


class LatticeError(RuntimeError):
    pass


class ConditioningError(LatticeError):
    """Basis too ill-conditioned to reduce or enumerate reliably."""


class CountCapError(LatticeError):
    """Lattice-point enumeration exceeded the configured cap."""


class ContractionUnverified(LatticeError):
    """A recurrence experiment was requested without a verified contraction."""


@dataclass
class UnimodularLattice:
    """Lattice g Z^d with |det g| = 1; columns of ``basis`` generate it."""

    basis: np.ndarray
    reduced: np.ndarray
    transform: np.ndarray  # integer, det +-1: reduced = basis @ transform
    _shortest: dict = field(default_factory=dict, repr=False)
    _rfactor: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def shortest(self, norm: str = "sup"):
        """Cached exact shortest nonzero vector as (vector, length)."""
        if norm not in self._shortest:
            self._shortest[norm] = shortest_vector(self, norm)
        return self._shortest[norm]

    def rfactor(self) -> np.ndarray:
        """Upper-triangular R with positive diagonal, reduced = Q R."""
        if self._rfactor is None:
            b = self.reduced
            if self.dim == 2:
                n1 = float(np.hypot(b[0, 0], b[1, 0]))
                r12 = float(b[:, 0] @ b[:, 1]) / n1
                # square b_1 / 2^e so |b_1|^2 cannot overflow; the scaling is exact
                e = frexp(max(abs(b[0, 1]), abs(b[1, 1])))[1]
                c, t = np.ldexp(b[:, 1], -e), ldexp(r12, -e)
                r22 = ldexp(sqrt(max(float(c @ c) - t * t, 0.0)), e)
                r = np.array([[n1, r12], [0.0, r22]])
            else:
                _, r = np.linalg.qr(b)
                signs = np.sign(np.diag(r))
                signs[signs == 0] = 1.0
                r = signs[:, None] * r
            if np.any(np.diag(r) <= 0.0) or not np.all(np.isfinite(r)):
                raise ConditioningError("reduced basis degenerate in enumeration")
            self._rfactor = r
        return self._rfactor


def standard_lattice(d: int) -> UnimodularLattice:
    eye = np.eye(d)
    return UnimodularLattice(eye, eye.copy(), np.eye(d, dtype=np.int64))


def _gso(cols):
    """Gram-Schmidt coefficients (row i holds mu_ij, j < i) and squared
    norms of the columns."""
    q, mu, norms = [], [], []
    for b in cols:
        v = b
        row = []
        for qj, nj in zip(q, norms):
            s = 0.0
            for bk, qk in zip(b, qj):
                s += bk * qk
            m = s / nj
            row.append(m)
            v = [vk - m * qk for vk, qk in zip(v, qj)]
        s = 0.0
        for vk in v:
            s += vk * vk
        if s <= 0.0 or not isfinite(s):
            raise ConditioningError("Gram-Schmidt collapsed; basis near-singular")
        q.append(v)
        mu.append(row)
        norms.append(s)
    return mu, norms


def lll_reduce(
    basis, delta: float = 0.99, det_tol: float = 1e-6, renormalize: bool = True
) -> UnimodularLattice:
    """LLL reduction (Lovasz parameter ``delta``) with integral transform.

    The input must be unimodular up to ``det_tol``; it is rescaled to
    determinant exactly +-1 before reduction.  Callers that construct the
    basis from exactly unimodular factors pass ``renormalize=False``: the
    floating determinant of an ill-conditioned (deep cusp) basis is too
    noisy to validate against, and repeated renormalization by a noisy
    determinant would corrupt the lattice.

    The scalar kernel (module docstring) holds float-list columns and a
    Python-int transform, returned as int64 or, past int64 deep in the
    cusp, as object integers; Gram-Schmidt data is recomputed on each swap.
    BLAS dots may fuse multiply-adds, so numpy's Gram-Schmidt data can
    differ in the last bit; that moves the reduced basis only if a
    coefficient rounds within it of a half-integer or the Lovasz test ties.
    """
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {b.shape}")
    cols = b.T.tolist()
    for col in cols:  # the checks of linalg.as_square, on the floats reduced below
        for v in col:
            if not isfinite(v):
                raise ValueError("matrix entries must be finite")
    d = len(cols)
    if renormalize:
        det = np.linalg.det(b)
        if abs(det) <= 1e-12:
            raise ConditioningError("basis is numerically singular")
        if abs(abs(det) - 1.0) >= det_tol:
            raise ValueError(f"basis determinant {det!r} is not within {det_tol} of +-1")
        b = b / abs(det) ** (1.0 / d)
        cols = b.T.tolist()

    t = [[0] * d for _ in range(d)]  # columns of the transform
    for j in range(d):
        t[j][j] = 1
    mu, norms = _gso(cols)
    k = 1
    iterations = 0
    max_iterations = 10_000 * d * d
    while k < d:
        iterations += 1
        if iterations > max_iterations:
            raise ConditioningError("LLL failed to terminate; basis ill-conditioned")
        ck, tk, mk = cols[k], t[k], mu[k]
        for j in range(k - 1, -1, -1):
            try:
                r = round(mk[j])
            except (OverflowError, ValueError):  # inf or nan
                raise ConditioningError("non-finite Gram-Schmidt coefficient") from None
            if r:
                cj, tj, mj = cols[j], t[j], mu[j]
                for i in range(d):
                    ck[i] -= r * cj[i]
                    tk[i] -= r * tj[i]
                for i in range(j):
                    mk[i] -= r * mj[i]
                mk[j] -= r
        if norms[k] >= (delta - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = ck, cols[k - 1]
            t[k - 1], t[k] = tk, t[k - 1]
            mu, norms = _gso(cols)
            k = max(k - 1, 1)
    try:
        transform = np.array(t, dtype=np.int64).T
    except OverflowError:
        transform = np.array(t, dtype=object).T  # multipliers past int64 deep in the cusp
    reduced = np.array(cols, order="F").T  # C-contiguous
    return UnimodularLattice(basis=b, reduced=reduced, transform=transform)


def _enumerate(r: np.ndarray, radius: float, cap: int, rows: bool):
    """Depth-first Fincke-Pohst walk over the integer z with |R z|_2 <= radius.

    Levels run from d - 1 down to 0; each level's integer range is added
    to the node count before it is visited, and the count passing ``cap``
    raises CountCapError.  Returns the number of nonzero z, or with
    ``rows`` the nonzero z themselves as integer lists.
    """
    r = r.tolist()
    d = len(r)
    rad2 = radius * radius
    z = [0] * d
    found = []
    nodes = count = 0
    too_many = f"enumeration exceeded the cap of {cap} nodes"

    def visit(level, partial):
        nonlocal nodes, count
        # row `level` of R: sum over j > level of R[level][j] z_j
        shift = sum(r[level][j] * z[j] for j in range(level + 1, d))
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


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for entry in v:
        if abs(entry) > 1e-12:
            return -v if entry < 0 else v
    return v


def shortest_vector(x: UnimodularLattice, norm: str = "sup"):
    """Exact shortest nonzero lattice vector in the sup or Euclidean norm.

    Enumeration is seeded by the reduced basis: its best vector gives the
    initial radius (scaled by sqrt(d) for the sup norm, since any sup-norm
    minimizer has Euclidean length at most sqrt(d) times its sup norm).
    Ties within 1e-15 of the minimum go to the sparsest, then the
    lexicographically smallest sign-canonical vector.
    """
    if norm not in ("sup", "euclid"):
        raise ValueError(f"unknown norm {norm!r}")
    b = x.reduced
    d = x.dim
    if norm == "euclid":
        seed = float(np.min(np.linalg.norm(b, axis=0)))
        radius = seed * (1.0 + 1e-12)
    else:
        seed = float(np.min(np.abs(b).max(axis=0)))
        radius = seed * np.sqrt(d) * (1.0 + 1e-12)
    r = x.rfactor()
    if np.prod(1.0 + 2.0 * radius / np.diag(r)) > 1e12:
        raise ConditioningError("enumeration radius blowup: the search tree bound exceeds 1e12")
    zs = _enumerate(r, radius, cap=10**7, rows=True)
    if not zs:
        raise LatticeError("enumeration returned no vectors; radius too small")
    cands = np.array(zs, dtype=float) @ b.T
    if norm == "euclid":
        # per vector: norm(cands, axis=1) sums in another order (last-bit changes)
        lengths = np.array([np.linalg.norm(v) for v in cands])
    else:
        lengths = np.abs(cands).max(axis=1)
    best_len = float(lengths.min())
    best_vec = None
    best_key = None
    for i in np.nonzero(lengths <= best_len + 1e-15)[0]:
        v = _canonical_sign(cands[i])
        key = (
            sum(1 for t in v if abs(t) > 1e-12),
            tuple(round(float(t), 12) for t in v),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_vec = v
    return best_vec, best_len


def mahler_member(x: UnimodularLattice, epsilon: float) -> bool:
    """Is every nonzero lattice vector of sup norm at least epsilon?

    Empty for epsilon > 1 by Minkowski's theorem, so this returns False
    there without enumerating.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if epsilon > 1.0:
        return False
    return x.shortest("sup")[1] >= epsilon


def siegel_count(x: UnimodularLattice, radius: float, cap: int = 10**7) -> int:
    """Number of nonzero lattice vectors of Euclidean norm <= radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return _enumerate(x.rfactor(), radius * (1.0 + 1e-9), cap, rows=False)


@dataclass(frozen=True)
class HeightSpec:
    """Parameters of the cusp height: scale epsilon, outer exponent delta,
    and the interior Weyl-chamber direction s0 fixing the grade exponents."""

    epsilon: float
    delta: float = 0.3
    s0: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.s0 is not None:
            s0 = tuple(float(v) for v in self.s0)
            object.__setattr__(self, "s0", s0)
            arr = np.asarray(s0)
            if np.any(np.diff(arr) >= 0.0):
                raise ValueError("s0 must be strictly decreasing")
            if abs(arr.sum()) > 1e-9:
                raise ValueError("s0 must be trace-zero")

    def s0_vector(self, d: int) -> np.ndarray:
        if self.s0 is None:
            return weyl_interior_vector(d)
        if len(self.s0) != d:
            raise ValueError(f"s0 has length {len(self.s0)}, lattice dimension is {d}")
        return np.asarray(self.s0)

    def grade_exponents(self, d: int):
        """(delta_i, delta_lambda_i) for grades i = 1..d-1.

        delta_i = (d - i) i and delta_lambda_i is the pairing of the top
        weight of the i-th wedge with s0, i.e. the partial sum of s0.
        With the default s0 this is i (d - i) / 2, so the per-monomial
        value is epsilon^2 * |v|^(-2 / (i (d - i))).
        """
        s0 = self.s0_vector(d)
        grades = np.arange(1, d)
        delta_i = (d - grades) * grades
        delta_lambda = np.cumsum(s0)[:-1]
        if np.any(delta_lambda <= 0.0):
            raise ValueError("s0 must make every partial sum positive (interior)")
        return delta_i.astype(float), delta_lambda


@lru_cache(maxsize=64)
def _height_plan(spec: HeightSpec, d: int):
    """Per grade i = 1..d-1: (i, subsets, row index, column index,
    epsilon^(delta_i / delta_lambda_i), -1 / (2 delta_lambda_i))."""
    delta_i, delta_lambda = spec.grade_exponents(d)
    plan = []
    for i in range(1, d):
        subsets = list(combinations(range(d), i))
        idx = np.array(subsets)
        eps_factor = float(spec.epsilon ** (delta_i[i - 1] / delta_lambda[i - 1]))
        half_expo = float(0.5 * (-1.0 / delta_lambda[i - 1]))
        plan.append((i, subsets, idx[:, :, None], idx[:, None, :], eps_factor, half_expo))
    return plan


def _grade_phis(x: UnimodularLattice, spec: HeightSpec):
    """Yield (grade, subsets, phis) over the proper nonempty basis subsets.

    Powers are scalar C ``pow``: numpy's vectorized power can differ in the
    last bit from the scalar power the height has always used.
    """
    gram = x.reduced.T @ x.reduced
    for i, subsets, rows, cols, eps_factor, half_expo in _height_plan(spec, x.dim):
        # max(): roundoff guard near degeneracy
        dets = [max(g, 1e-300) for g in np.linalg.det(gram[rows, cols]).tolist()]
        try:
            phis = [eps_factor * g**half_expo for g in dets]
        except OverflowError:  # numpy's scalar power gives inf past the float range
            phis = [float(eps_factor * np.float64(g) ** half_expo) for g in dets]
        yield i, subsets, phis


def margulis_height(x: UnimodularLattice, spec: HeightSpec) -> float:
    """Cusp height: the max over basis-subset wedges of the scaled norms.

    The supremum over all integral monomials is approximated by the wedges
    of the 2^d - 2 proper nonempty subsets of the reduced basis; this is
    within the LLL approximation factor of the true value, which is enough
    for the contraction and properness experiments.  Finite for SL_d since
    no nonzero monomial in an intermediate grade is fixed by the group.
    """
    best = 0.0
    for _, _, phis in _grade_phis(x, spec):
        for phi in phis:
            if phi > best:
                best = phi
    return best**spec.delta


def margulis_height_profile(x: UnimodularLattice, spec: HeightSpec):
    """Per-subset contributions to the height: rows (subset, grade, phi)."""
    labels, grades, values = [], [], []
    for i, subsets, phis in _grade_phis(x, spec):
        labels += ["+".join(str(s) for s in subset) for subset in subsets]
        grades += [i] * len(subsets)
        values += phis
    return np.array(labels), np.array(grades), np.array(values)


# ---------------------------------------------------------------------------
# observables and walks


def parse_observable(spec: str, height: HeightSpec | None = None):
    """Observable from a compact string: ``height``, ``mahler:EPS``,
    ``siegel:R``, ``shortest:sup`` or ``shortest:euclid``."""
    name, _, arg = spec.partition(":")
    if name == "height":
        if height is None:
            raise ValueError("height observable requires a HeightSpec")
        return spec, lambda x: margulis_height(x, height)
    if name in ("mahler", "siegel"):
        value = float(arg)
        if np.isnan(value):
            raise ValueError(f"observable {spec!r}: argument is NaN")
        if name == "mahler":
            return spec, lambda x: float(mahler_member(x, value))
        return spec, lambda x: float(siegel_count(x, value))
    if name == "shortest":
        norm = arg or "sup"
        return spec, lambda x: x.shortest(norm)[1]
    raise ValueError(f"unknown observable {spec!r}")


@dataclass
class TrajectoryRecord:
    """Per-step observable values and running (Birkhoff) averages.

    Step 0 is the initial point; running averages at step k >= 1 are over
    steps 1..k (the initial point is not part of the empirical measure),
    and the step-0 slot repeats the step-0 value.
    """

    steps: np.ndarray
    values: dict[str, np.ndarray]
    running: dict[str, np.ndarray]

    def columns(self) -> dict[str, np.ndarray]:
        """Long-format columns (step, observable_name, value, running_avg)."""
        names = list(self.values)
        steps = np.concatenate([self.steps for _ in names])
        labels = np.concatenate([[n] * len(self.steps) for n in names])
        vals = np.concatenate([self.values[n] for n in names])
        runs = np.concatenate([self.running[n] for n in names])
        return {
            "step": steps,
            "observable_name": labels,
            "value": vals,
            "running_avg": runs,
        }


def _running_average(values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = values[0]
    if len(values) > 1:
        out[1:] = np.cumsum(values[1:]) / np.arange(1, len(values))
    return out


def walk_simulate(
    mu: GroupMeasure,
    x0: UnimodularLattice,
    n_steps: int,
    observables,
    seed: int = 0,
    path=(),
) -> TrajectoryRecord:
    """Left random walk x <- g x with reduction at every step.

    ``observables`` is a sequence of (label, callable) pairs or compact
    strings understood by :func:`parse_observable`.  Identical
    (seed, path, config) reproduce the trajectory bit for bit.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    obs = []
    for ob in observables:
        if isinstance(ob, str):
            obs.append(parse_observable(ob))
        else:
            obs.append(ob)
    idx = sample_indices(mu, n_steps, seed=seed, path=path)
    values = {label: np.empty(n_steps + 1) for label, _ in obs}
    x = x0
    for label, fn in obs:
        values[label][0] = fn(x)
    for step in range(1, n_steps + 1):
        g = mu.matrices[idx[step - 1]]
        try:
            x = lll_reduce(g @ x.reduced, renormalize=False)
        except ConditioningError as err:
            raise ConditioningError(f"reduction failed at step {step}: {err}") from err
        for label, fn in obs:
            values[label][step] = fn(x)
    running = {label: _running_average(vals) for label, vals in values.items()}
    return TrajectoryRecord(np.arange(n_steps + 1), values, running)


# ---------------------------------------------------------------------------
# contraction of the height under averaging, and recurrence


@dataclass
class ContractionFit:
    """Empirical Foster-Lyapunov fit A_mu^m(beta) <= a beta + b.

    ``b_hat`` is the largest averaged height over the low half of the
    sampled points.  The slope required on the mid tail (between the
    median and the 90th height percentile) estimates the true contraction
    rate; the reported ``a_hat`` is the midpoint between that estimate and
    1, so the pair (a_hat, b_hat) carries a margin, and the top decile is
    held out to validate it: ``violations`` lists sample indices where the
    averaged height exceeds a_hat * beta + b_hat beyond three standard
    errors.  An identity-like walk (averaged height = height) fails here:
    no slope below 1 with the fitted offset covers its extreme tail.
    ``ok`` means a_hat < 1 with zero violations.
    """

    a_hat: float
    b_hat: float
    violations: np.ndarray
    ok: bool
    beta: np.ndarray
    averaged: np.ndarray
    stderr: np.ndarray
    m: int

    @property
    def violation_count(self) -> int:
        return int(len(self.violations))


def _cusp_ladder_points(mu, d, count, seed, cusp_decades, burst_len, walk_burst):
    """Sample cloud mixing three families, round robin by index.

    (0) randomly rotated diagonal cusp excursions of random depth, probing
    properness in arbitrary directions; (1) walk bursts of the measure
    itself started at Z^d, probing its own trajectory (this is where a
    degenerate measure reveals its divergent direction); (2) cusp points
    followed by a short burst.
    """
    pts = []
    for i in range(count):
        rng = substream(seed, 11, i)
        family = i % 3
        if family == 1:
            x = standard_lattice(d)
            burst = int(rng.integers(0, walk_burst + 1))
        else:
            t = rng.uniform(0.0, cusp_decades * np.log(10.0))
            direction = weyl_interior_vector(d)
            direction = direction / np.abs(direction).max()
            a = np.diag(np.exp(t * direction))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            basis = q @ a
            x = lll_reduce(basis / abs(np.linalg.det(basis)) ** (1.0 / d))
            burst = 0 if family == 0 else int(rng.integers(0, burst_len + 1))
        for g in mu.matrices[rng.choice(mu.natoms, size=burst, p=mu.weights)]:
            x = lll_reduce(g @ x.reduced, renormalize=False)
        pts.append(x)
    return pts


def _averaged_height(mu, conv, x, height, m, mc_trials, seed, tag):
    if conv is not None:
        vals = []
        for g, w in zip(conv.matrices, conv.weights):
            vals.append(w * margulis_height(lll_reduce(g @ x.reduced, renormalize=False), height))
        return float(np.sum(vals)), 0.0
    rng = substream(seed, 13, tag)
    samples = np.empty(mc_trials)
    for trial in range(mc_trials):
        idx = rng.choice(mu.natoms, size=m, p=mu.weights)
        y = x
        for i in idx:
            y = lll_reduce(mu.matrices[i] @ y.reduced, renormalize=False)
        samples[trial] = margulis_height(y, height)
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(mc_trials))


def contraction_fit(
    mu: GroupMeasure,
    height: HeightSpec,
    m: int,
    sample_points: int = 200,
    mc_trials: int = 200,
    seed: int = 0,
    points=None,
    cusp_decades: float = 12.0,
    burst_len: int = 8,
    walk_burst: int = 24,
    exact_cap: int = 4096,
) -> ContractionFit:
    """Fit contraction constants for the m-step averaged height.

    Sample points are spread along a cusp ladder (diagonal excursions up to
    ``cusp_decades`` decades, randomly rotated) followed by short walk
    bursts, so the fit probes genuinely high heights whatever the measure
    does.  The averaged height is computed exactly when atom_count**m is
    small, else by Monte Carlo with the reported standard errors.
    """
    if m < 1:
        raise ValueError("averaging length m must be at least 1")
    d = mu.dim
    if points is None:
        points = _cusp_ladder_points(
            mu, d, sample_points, seed, cusp_decades, burst_len, walk_burst
        )
    beta = np.array([margulis_height(x, height) for x in points])
    try:
        conv = convolution_support(mu, m, cap=exact_cap)
    except ConvolutionCapError:
        conv = None
    averaged = np.empty(len(points))
    stderr = np.empty(len(points))
    for i, x in enumerate(points):
        averaged[i], stderr[i] = _averaged_height(mu, conv, x, height, m, mc_trials, seed, i)

    order = np.argsort(beta)
    q50 = beta[order[len(order) // 2]]
    q90 = beta[order[int(len(order) * 0.9)]] if len(order) >= 10 else beta[order[-1]]
    low = beta <= q50
    fit_set = (beta > q50) & (beta <= q90)
    b_hat = float(max(averaged[low].max(initial=0.0), 1e-9))
    if not np.any(fit_set):
        return ContractionFit(
            a_hat=np.inf,
            b_hat=b_hat,
            violations=np.arange(len(points)),
            ok=False,
            beta=beta,
            averaged=averaged,
            stderr=stderr,
            m=m,
        )
    a_fit = max(float(np.max((averaged[fit_set] - b_hat) / beta[fit_set])), 0.0)
    if a_fit >= 1.0:
        # no contraction on the fit range; report points beating even slope 1
        viol = np.nonzero(averaged - 3.0 * stderr > beta + b_hat)[0]
        return ContractionFit(a_fit, b_hat, viol, False, beta, averaged, stderr, m)
    a_hat = 0.5 * (1.0 + a_fit)  # margin for the held-out extreme tail
    viol = np.nonzero(averaged - 3.0 * stderr > a_hat * beta + b_hat)[0]
    ok = len(viol) == 0
    return ContractionFit(a_hat, b_hat, viol, ok, beta, averaged, stderr, m)


@dataclass
class RecurrenceTable:
    """Estimated mass of the recurrence set along the n-grid."""

    level: float  # height threshold defining the recurrence set
    delta: float
    fit: ContractionFit
    entries: list  # (n, estimated mass)

    def burn_in(self, target: float) -> int | None:
        """Smallest grid n from which the mass stays >= target."""
        good = None
        for n, mass in self.entries:
            if mass >= target:
                if good is None:
                    good = n
            else:
                good = None
        return good


def recurrence_experiment(
    mu: GroupMeasure,
    height: HeightSpec,
    delta: float,
    x0: UnimodularLattice,
    n_grid,
    mc_trials: int = 200,
    seed: int = 0,
    fit: ContractionFit | None = None,
    m: int = 4,
    **fit_kwargs,
) -> RecurrenceTable:
    """Estimate how much of the walk sits inside the recurrence set.

    The set is the sublevel set {beta <= (2 b + 2) / (delta (1 - a))} of
    the height, with (a, b) from a verified contraction fit; a failed fit
    is refused.  For each requested n the mass mu^{*n} * delta_{x0} of the
    set is estimated over ``mc_trials`` independent walks (trial words are
    shared along the grid: each trial is one long walk read at the grid
    times, which has the correct per-n marginal).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if fit is None:
        fit = contraction_fit(mu, height, m, seed=seed, mc_trials=mc_trials, **fit_kwargs)
    if not fit.ok:
        raise ContractionUnverified(
            f"contraction fit failed (a_hat={fit.a_hat!r}, "
            f"violations={fit.violation_count}); cannot build a recurrence set"
        )
    level = (2.0 * fit.b_hat + 2.0) / (delta * (1.0 - fit.a_hat))
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError("the n-grid must contain positive integers")
    n_max = n_grid[-1]
    grid_set = set(n_grid)
    hits = {n: 0 for n in n_grid}
    for trial in range(mc_trials):
        idx = sample_indices(mu, n_max, seed=seed, path=(17, trial))
        x = x0
        for step in range(1, n_max + 1):
            x = lll_reduce(mu.matrices[idx[step - 1]] @ x.reduced, renormalize=False)
            if step in grid_set:
                if margulis_height(x, height) <= level:
                    hits[step] += 1
    entries = [(n, hits[n] / mc_trials) for n in n_grid]
    return RecurrenceTable(level=level, delta=delta, fit=fit, entries=entries)
