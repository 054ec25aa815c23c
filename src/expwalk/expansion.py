"""Expansion certificates and expanding cones.

Certifies or refutes uniform expansion of a matrix random walk through the
integral criterion: the walk expands every direction iff for some word
length N the integral of log(|gv|/|v|) over N-step words is bounded below
by a positive constant uniformly on the unit sphere.  The sphere minimum
is located heuristically, so a positive result is reported as
"PASS (heuristic min > 0)" while a negative witness is a proof of failure;
the certificate states the quality of its minimum as ``stationarity``, the
Riemannian gradient norm at the witness.  The N-step words come from the
one word-product engine in :mod:`expwalk.measures`, and
:func:`_sphere_minimize` is the one sphere optimizer: the certificate
minimizes the mean of log|gv|, the moment contraction estimate the mean
of -|gv|^(-delta).  It scores random directions and the least singular
directions of the words, then runs one lockstep Riemannian BFGS descent
(:func:`_descend`) from the best of them, which stops on a small gradient,
at the rounding floor or at an iteration cap.  One batch objective gives
the values and, for the descents, the analytic Riemannian gradient, and
its memory is bounded by image elements, whatever the sample count.  It
takes the images of a point under all words in one gemv over the stacked
word matrices wherever OpenBLAS rounds that like one gemv per word
(:func:`_word_images`), so its values equal those of the scalar per-word
objective bit for bit.

Also decides membership in the expanding cone of a block parabolic of
sl_d in closed form (:func:`expanding_cone_membership`), and checks
a-expansion of the unipotent radical in exterior powers of the standard
representation.  No computation here loads scipy; the normal quantile of
the Monte-Carlo confidence bound is mpmath's.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, frexp, isfinite

import numpy as np
from mpmath import mp

from . import linalg
from .measures import GroupMeasure, _word_products, sample_indices
from .rng import substream

CONE_TOL = 1e-9
SVD_TOL = 1e-8  # relative singular-value threshold of the fixed-space kernels
IMAGE_FLOATS = 2**22  # rows x words x dim floats per batched objective call (32 MB)


def __getattr__(name):
    # scipy's minimize, kept for the benchmark tracer, which patches this
    # name, until the tracer reads run counters (ROADMAP item 5)
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ExpansionFailure(linalg.NumericalError):
    """Numerical trouble: a non-finite certificate bound."""


def _rep_label(rep) -> str:
    if isinstance(rep, str):
        return rep
    return f"wedge:{rep[1]}"


def parse_rep(rep):
    """Normalize a representation spec: 'std', 'adj', 'wedge:k' or ('wedge', k)."""
    if isinstance(rep, tuple) and len(rep) == 2 and rep[0] == "wedge":
        return ("wedge", int(rep[1]))
    if rep in ("std", "standard"):
        return "std"
    if rep in ("adj", "adjoint"):
        return "adj"
    if isinstance(rep, str) and rep.startswith("wedge:"):
        return ("wedge", int(rep.split(":", 1)[1]))
    raise ValueError(f"unknown representation spec {rep!r}")


def rep_matrix(rep, g) -> np.ndarray:
    """Image of a group element in the chosen representation."""
    rep = parse_rep(rep)
    if rep == "std":
        return linalg.as_square(g)
    if rep == "adj":
        return linalg.adjoint_rep(g)
    return linalg.wedge_power(g, rep[1])


def fk_exponent_estimate(
    mu: GroupMeasure, v, n_steps: int, n_trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of the a.s. growth rate of |g_n .. g_1 v|.

    Returns (mean slope, standard error of the mean) over ``n_trials``
    independent words of ``n_steps`` letters; the vector is renormalized
    every step so arbitrarily long products never overflow.  Trial i draws
    from substream (seed, i).
    """
    v = np.asarray(v, dtype=float).ravel()
    if np.linalg.norm(v) == 0.0:
        raise ValueError("the probed vector must be nonzero")
    if n_steps < 10:
        raise ValueError("need at least 10 steps for a slope estimate")
    if v.shape[0] != mu.dim:
        raise ValueError("vector dimension does not match the measure")

    idx = np.stack(
        [sample_indices(mu, n_steps, seed=seed, path=(i,)) for i in range(n_trials)]
    )
    vecs = np.tile(v / np.linalg.norm(v), (n_trials, 1))
    acc = np.zeros(n_trials)
    for step in range(n_steps):
        g = mu.matrices[idx[:, step]]
        vecs = np.einsum("tij,tj->ti", g, vecs)
        nrm = np.linalg.norm(vecs, axis=1)
        acc += np.log(nrm)
        vecs /= nrm[:, None]
    slopes = acc / n_steps
    stderr = float(slopes.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
    return float(slopes.mean()), stderr


@dataclass
class ExpansionCertificate:
    """Result of the sphere-minimized integral criterion at word length N."""

    N: int
    C_lower: float
    mode: str  # "exact" | "monte-carlo"
    sphere_samples: int
    confidence: float  # exact mode forces 1.0, enforced below
    witness: np.ndarray
    rep: str
    stationarity: float  # Riemannian gradient norm of the sphere objective at the witness

    def __post_init__(self):
        if (self.mode == "exact") != (self.confidence == 1.0):
            raise ValueError("mode=exact iff confidence=1")
        if not np.isfinite(self.C_lower):
            raise ExpansionFailure("certificate bound must be finite")

    @property
    def passed(self) -> bool:
        return self.C_lower > 0.0

    @property
    def verdict(self) -> str:
        if self.passed:
            return "PASS (heuristic min > 0)"
        if self.C_lower == 0.0:  # e.g. wedge:2 of SL2, where every word acts by det = 1
            return "FAIL (witness v with zero lower bound)"
        if self.mode == "monte-carlo":  # the sampled mean at v may still be positive
            return "FAIL (negative lower confidence bound at witness v)"
        return "FAIL (witness v with negative integral)"


def _word_images(word_mats, u):
    """Images W u of every row u of ``u`` under every word matrix W: (P, W, dim).

    Every image equals the per-word product ``word_mats @ row`` bit for bit.
    OpenBLAS's dgemv reduces the rows of a matrix in blocks of four and
    sends the trailing rows down a leftover path.  For dim <= 8 both paths
    round a row alike, so one gemv over the words stacked as a
    (W * dim, dim) matrix gives every row the bits of its own gemv wherever
    the blocks (or a threaded split of the rows) fall, and a point costs one
    gemv call instead of one per word.  Above dim 8 the two paths differ
    and a stacked block may straddle two words, so each (point, word) pair
    keeps its own gemv.
    """
    n_words, dim, _ = word_mats.shape
    if dim <= 8:
        stacked = word_mats.reshape(n_words * dim, dim)
        return (stacked[None] @ u[:, :, None]).reshape(len(u), n_words, dim)
    return (word_mats[None] @ u[:, None, :, None])[..., 0]


def _sum_squares(images):
    """Sum of squares over the last axis, bit for bit as ``np.linalg.norm`` sums them.

    numpy reduces a contiguous last axis pairwise, which below 8 terms is a
    plain left-to-right loop; adding one column at a time does the same
    sums without numpy's per-row reduction overhead (18 instead of 72 us
    for 3,000 rows of 4).  From 8 terms on numpy's own reduction is used.
    """
    sq = images * images
    if sq.shape[-1] >= 8:
        return np.add.reduce(sq, axis=-1)
    acc = sq[..., 0].copy()
    for k in range(1, sq.shape[-1]):
        acc += sq[..., k]
    return acc


def _tau(norms, delta):
    """The per-word transform: log for ``delta`` None, n -> -n^(-delta) otherwise."""
    return np.log(norms) if delta is None else -(norms ** (-delta))


def _objective_factory(word_mats, word_wts, delta, chunk):
    """Rows of points v -> (f, g): f = sum_w weight * tau(|W u|) over the word
    matrices W at u = v / |v| (:func:`_tau`), and g, when asked for, the
    Riemannian gradient of f on the unit sphere at u (None otherwise).

    Each value equals the scalar objective's on its row bit for bit (kept
    in the tests as the reference): a per-row dot for |v|, the images of
    :func:`_word_images`, the norms ``np.linalg.norm`` computes
    (:func:`_sum_squares`) and a per-row dot for the weighting.  By the
    chain rule through tau, the Euclidean gradient is
    sum_w weight * tau'(n) / n * W^T (W u): one product of the scaled
    images with the stacked word matrices, never W^T W, and g is its
    tangent part.  At most ``chunk`` rows are evaluated per batched call,
    which bounds the rows x words x dim image buffer.
    """
    n_words, dim, _ = word_mats.shape
    stacked = word_mats.reshape(n_words * dim, dim)
    wts_row = word_wts[None, None, :]

    def evaluate(points, grad=False):
        f = np.empty(len(points))
        g = np.empty(points.shape) if grad else None
        for lo in range(0, len(points), chunk):
            pts = points[lo : lo + chunk]
            u = pts / np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0])
            images = _word_images(word_mats, u)
            norms = np.sqrt(_sum_squares(images))
            f[lo : lo + chunk] = (wts_row @ _tau(norms, delta)[:, :, None])[:, 0, 0]
            if grad:  # tau'(n) / n: n^-2 for log, delta n^(-delta - 2) for the moment
                scale = word_wts * (norms**-2.0 if delta is None else delta * norms ** (-delta - 2))
                euclid = (scale[:, :, None] * images).reshape(len(u), -1) @ stacked
                g[lo : lo + chunk] = euclid - np.einsum("pi,pi->p", euclid, u)[:, None] * u
        return f, g

    return evaluate


GTOL = 1e-10  # Riemannian gradient norm at which a descent stops
MAX_ITER = 200  # iterations of one descent
FIRST_STEP = 0.25  # radians: the longest first step of a descent
ARMIJO = 1e-4  # sufficient-decrease fraction of the slope along the step
HALVINGS = 40  # backtracking halvings before a descent stops at the rounding floor
DESCENTS = 50  # descents per sphere minimum, from the best candidates


def _descend(evaluate, x):
    """Riemannian BFGS on the unit sphere from every row of ``x`` at once.

    ``evaluate`` is an objective of :func:`_objective_factory`.  Each
    iteration steps the running starts along p = -H g and retracts by
    v -> v / |v|, halving the step until the value falls strictly and by
    ``ARMIJO`` times the slope; the first step is at most ``FIRST_STEP``
    long.  H, the inverse-Hessian approximation, starts as the identity and
    takes the BFGS update from the retracted step s and the gradient change
    y, both in the new tangent space, to which H and the old gradient are
    carried by projection; an update without positive curvature s.y is
    skipped (Absil, Mahony and Sepulchre, *Optimization Algorithms on
    Matrix Manifolds*, 2008, ch. 4 and 8).  A start stops when its gradient
    norm falls to ``GTOL``, at the rounding floor (no step lowers its value
    before the step stops moving the point or ``HALVINGS`` halvings), or
    after ``MAX_ITER`` iterations.  Returns (x, f, |g|) per start.
    """
    dim = x.shape[1]
    f, g = evaluate(x, grad=True)
    gnorm = np.linalg.norm(g, axis=1)
    hess = np.repeat(np.eye(dim)[None], len(x), axis=0)
    run = np.flatnonzero(gnorm > GTOL)
    for it in range(MAX_ITER):
        if not run.size:
            break
        xr, fr, gr = x[run], f[run], g[run]
        p = -(hess[run] @ gr[:, :, None])[:, :, 0]
        p -= np.einsum("pi,pi->p", p, xr)[:, None] * xr
        # a slope that rounding made non-negative still demands a strict fall
        slope = np.minimum(np.einsum("pi,pi->p", p, gr), 0.0)
        step = np.minimum(1.0, FIRST_STEP / gnorm[run]) if it == 0 else np.ones(len(run))
        moved = np.zeros(len(run), dtype=bool)
        todo = np.arange(len(run))
        for _ in range(HALVINGS):
            y = xr[todo] + step[todo, None] * p[todo]
            live = np.any(y != xr[todo], axis=1)  # the step still moves the point
            todo, y = todo[live], y[live]
            if not todo.size:
                break
            y /= np.linalg.norm(y, axis=1)[:, None]
            fy, gy = evaluate(y, grad=True)
            ok = fy < fr[todo] + ARMIJO * step[todo] * slope[todo]
            x[run[todo[ok]]], f[run[todo[ok]]], g[run[todo[ok]]] = y[ok], fy[ok], gy[ok]
            moved[todo[ok]] = True
            todo = todo[~ok]
            step[todo] *= 0.5
        run, xn, gn = run[moved], x[run[moved]], g[run[moved]]  # the rest stop at the floor
        proj = np.eye(dim) - xn[:, :, None] * xn[:, None, :]
        s = (proj @ (xn - xr[moved])[:, :, None])[:, :, 0]
        yv = gn - (proj @ gr[moved][:, :, None])[:, :, 0]
        sy = np.einsum("pi,pi->p", s, yv)
        h = proj @ hess[run] @ proj
        c = sy > 0.0
        rho = (1.0 / sy[c])[:, None, None]
        v = np.eye(dim) - rho * yv[c, :, None] * s[c, None, :]
        h[c] = np.swapaxes(v, 1, 2) @ h[c] @ v + rho * s[c, :, None] * s[c, None, :]
        hess[run] = h
        gnorm[run] = np.linalg.norm(gn, axis=1)
        run = run[gnorm[run] > GTOL]
    return x, f, gnorm


def _sphere_minimize(word_mats, word_wts, sphere_samples, rng, delta=None):
    """Minimum over the unit sphere of the objective of :func:`_objective_factory`.

    The candidates are ``sphere_samples`` random directions and, for the
    ``sphere_samples`` words whose own term weight * tau(sigma_min) dips
    deepest, the least singular direction of the word, where that term has
    its minimum: the terms of long or expanding words are wells too narrow
    for random directions to find.  The objective scores the candidates
    (values only), then :func:`_descend` runs from the ``DESCENTS`` best,
    all in lockstep.  A call holds at most ``IMAGE_FLOATS`` image elements
    (at least one row), so memory is bounded by elements, not by the sample
    count.  Returns (minimum, unit witness direction, Riemannian gradient
    norm at the witness); the least descent wins, the first on ties, and no
    descent ends above its start.
    """
    n_words, dim, _ = word_mats.shape
    dirs = rng.normal(size=(sphere_samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    least = np.linalg.svd(word_mats, compute_uv=False)[:, -1]
    deep = np.argsort(word_wts * _tau(least, delta), kind="stable")[:sphere_samples]
    dirs = np.vstack([dirs, np.linalg.svd(word_mats[deep])[2][:, -1]])
    chunk = max(1, IMAGE_FLOATS // (n_words * dim))
    evaluate = _objective_factory(word_mats, word_wts, delta, chunk)
    # one call per candidate set, so the word directions add no image memory
    vals = np.concatenate([evaluate(part)[0] for part in np.split(dirs, [sphere_samples])])
    xs, funs, gnorms = _descend(evaluate, dirs[np.argsort(vals)[:DESCENTS]])
    best = int(np.argmin(funs))
    return float(funs[best]), xs[best] / np.linalg.norm(xs[best]), float(gnorms[best])


def certificate_from_rep_atoms(
    rep_atoms,
    weights,
    N: int,
    rep_label: str = "custom",
    sphere_samples: int = 1000,
    mode: str = "auto",
    mc_words: int = 4000,
    confidence: float = 0.95,
    cap: int = 10**6,
    seed: int = 0,
) -> ExpansionCertificate:
    """Core certificate computation on precomputed representation atoms: the
    sphere minimum of the word average of log|W v| by :func:`_sphere_minimize`,
    with ``stationarity`` the Riemannian gradient norm of that average at the
    witness."""
    rep_atoms = np.asarray(rep_atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if N < 1:
        raise ValueError("word length N must be at least 1")
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be at least 1")
    if mode != "exact" and mc_words < 2:  # the Monte-Carlo bound needs a standard error
        raise ValueError("mc_words must be at least 2")
    if mode != "exact" and not 0.0 < confidence < 1.0:  # the quantile is finite only inside (0, 1)
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence!r}")
    word_mats, word_wts, exact = _word_products(
        rep_atoms, weights, N, mode, cap, mc_words, substream(seed, 0)
    )
    best_val, best_v, stationarity = _sphere_minimize(
        word_mats, word_wts, sphere_samples, substream(seed, 1)
    )

    if exact:
        return ExpansionCertificate(
            N=N,
            C_lower=best_val,
            mode="exact",
            sphere_samples=sphere_samples,
            confidence=1.0,
            witness=best_v,
            rep=rep_label,
            stationarity=stationarity,
        )
    per_word = np.log(np.linalg.norm(_word_images(word_mats, best_v[None])[0], axis=-1))
    stderr = float(per_word.std(ddof=1) / np.sqrt(len(per_word)))
    # the normal quantile sqrt(2) erfinv(2p - 1), correctly rounded; 113 bits,
    # and one more per halving of p below 1/2, keep 2p - 1 exact
    with mp.workprec(113 + max(0, -frexp(confidence)[1])):
        z = float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(confidence) - 1))
    return ExpansionCertificate(
        N=N,
        C_lower=float(per_word.mean() - z * stderr),
        mode="monte-carlo",
        sphere_samples=sphere_samples,
        confidence=confidence,
        witness=best_v,
        rep=rep_label,
        stationarity=stationarity,
    )


def expansion_certificate(
    mu: GroupMeasure, rep="std", N: int = 1, **kwargs
) -> ExpansionCertificate:
    """Sphere-minimized integral certificate in the chosen representation.

    Exact word enumeration is used while atom_count**N stays below the cap
    (products that merge are collapsed); otherwise the integral is sampled
    by Monte Carlo and C_lower is a one-sided lower confidence bound at the
    requested confidence level.  Only a FAIL (explicit witness direction
    with negative integral, exact mode) is a proof; PASS reports that the
    heuristic sphere minimum is positive.
    """
    rep_atoms = np.array([rep_matrix(rep, g) for g in mu.matrices])
    return certificate_from_rep_atoms(
        rep_atoms, mu.weights, N, rep_label=_rep_label(parse_rep(rep)), **kwargs
    )


def moment_contraction_estimate(
    mu: GroupMeasure,
    rep="std",
    delta: float = 0.3,
    N: int = 1,
    sphere_samples: int = 500,
    mode: str = "auto",
    seed: int = 0,
):
    """Worst-case negative-moment ratio sup_v int |g v|^(-delta) dmu^{*N}(g).

    An expanding walk contracts these moments: for small delta the ratio
    drops below 1 once N is large enough, which is the quantitative engine
    behind the height contraction.  The supremum over the unit sphere is
    located heuristically by the certificate's sphere optimizer
    (:func:`_sphere_minimize`) on -|g v|^(-delta), whose Riemannian gradient
    follows from the chain rule; ``mode`` picks exact words (up to 10^6) or
    4000 Monte Carlo words as in :func:`measures._word_products`.  The
    narrow peaks of the ratio sit at the least singular directions of
    expanding words, which the optimizer scores beside its random samples.
    Returns (sup_ratio, witness direction).
    """
    if delta <= 0.0:
        raise ValueError("moment exponent delta must be positive")
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be at least 1")
    rep_atoms = np.array([rep_matrix(rep, g) for g in mu.matrices])
    word_mats, word_wts, _ = _word_products(rep_atoms, mu.weights, N, mode, rng=substream(seed, 2))
    neg_ratio, best_v, _ = _sphere_minimize(
        word_mats, word_wts, sphere_samples, substream(seed, 3), delta
    )
    return -neg_ratio, best_v


def _stacked_rank(blocks):
    """SVD of the row-stacked ``blocks``: (rank, Vt), the rank counting the
    singular values above ``SVD_TOL * max(1, s_max)``; the rows of Vt past
    the rank span the joint kernel."""
    _, s, vt = np.linalg.svd(np.vstack(blocks), full_matrices=True)
    return int(np.sum(s > SVD_TOL * max(1.0, s.max(initial=0.0)))), vt


def _fixed_subspace_complement(rep_elements):
    """Orthonormal basis of the complement of the joint fixed space.

    ``rep_elements`` are representation images whose joint fixed space is
    removed: the kernel of the stacked rows of (R - I)
    (:func:`_stacked_rank`).
    Returns (Q, fixed_dim) with Q of shape (dim, dim - fixed_dim).
    """
    dim = rep_elements[0].shape[0]
    rank, vt = _stacked_rank([r - np.eye(dim) for r in rep_elements])
    return vt[:rank].T.copy(), dim - rank


def relative_expansion_sweep(
    mu: GroupMeasure,
    k_max: int,
    N: int = 4,
    dim_cap: int = 300,
    seed: int = 0,
    **cert_kwargs,
) -> list[ExpansionCertificate]:
    """Certificates on the wedge powers of the adjoint, fixed part removed.

    For k = 1..k_max the representation is the k-th exterior power of the
    adjoint action on sl_d, quotiented by the joint fixed subspace of the
    atoms together with 25 random words of 1 to 8 letters, each one
    Monte-Carlo word of :func:`measures._word_products` (a Zariski-density
    heuristic; atoms alone pin down the group-generated fixed space, the
    extra words guard against accidental kernels).  The quotient is modeled
    on the orthogonal complement, which is legitimate because every atom
    fixes the removed subspace pointwise.
    """
    d = mu.dim
    adj_dim = d * d - 1
    ad_atoms = np.array([linalg.adjoint_rep(g) for g in mu.matrices])
    out = []
    for k in range(1, k_max + 1):
        dim_k = comb(adj_dim, k)
        if dim_k > dim_cap:
            raise ValueError(
                f"wedge {k} of the adjoint has dimension {dim_k} > cap {dim_cap}"
            )
        rep_atoms = np.array([linalg.wedge_power(a, k) for a in ad_atoms])
        elements = list(rep_atoms)
        rng = substream(seed, 7, k)
        for _ in range(25):
            length = int(rng.integers(1, 9))
            words, _, _ = _word_products(rep_atoms, mu.weights, length, "mc", n_words=1, rng=rng)
            elements.append(words[0])
        q, _ = _fixed_subspace_complement(elements)
        if q.shape[1] == 0:
            # everything is fixed; the zero quotient cannot expand
            out.append(
                ExpansionCertificate(
                    N=N,
                    C_lower=0.0,
                    mode="exact",
                    sphere_samples=0,
                    confidence=1.0,
                    witness=np.zeros(dim_k),
                    rep=f"wedge:{k}(adj)/fixed",
                    stationarity=0.0,
                )
            )
            continue
        quo_atoms = np.array([q.T @ a @ q for a in rep_atoms])
        out.append(
            certificate_from_rep_atoms(
                quo_atoms,
                mu.weights,
                N,
                rep_label=f"wedge:{k}(adj)/fixed",
                seed=seed,
                **cert_kwargs,
            )
        )
    return out


@dataclass(frozen=True)
class ConeSpec:
    """Standard block parabolic of sl_d: block sizes and its root set."""

    dim: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive")
        if sum(blocks) != self.dim:
            raise ValueError("block sizes must sum to the dimension")
        if len(blocks) < 2:
            raise ValueError("a proper parabolic needs at least two blocks")

    @property
    def root_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with block(i) < block(j): the roots of u."""
        ends = np.cumsum(self.blocks).tolist()
        return [
            (i, j)
            for end, size in zip(ends, self.blocks)
            for i in range(end - size, end)
            for j in range(end, self.dim)
        ]


@dataclass
class ConeMembership:
    inside: bool
    margin: float  # tau*: the largest tau with every coefficient >= tau
    coefficients: dict | None  # root pair -> positive coefficient (witness)
    separator: np.ndarray | None  # functional >= 0 on all roots, = margin on logs


def expanding_cone_membership(
    spec: ConeSpec, logs, tol: float = CONE_TOL
) -> ConeMembership:
    """Decide membership of diag(logs) in the open expanding cone of u.

    The cone is the set of strictly positive combinations of the vectors
    e_i - e_j over root pairs (i, j) of the parabolic (Killing duals up to
    positive scale, which does not change the cone).  The margin tau* of
    the LP "maximize tau subject to sum t_ij (e_i - e_j) = logs, t_ij >=
    tau" is, in closed form, the least <1_S, logs> / <1_S, r> over the
    proper up-sets S, where r is the sum of the roots and S is all blocks
    before a block k with the a smallest logs of block k, for each k and a.
    Inside iff tau* exceeds ``tol``, which must be finite and non-negative
    (a negative one would call points outside the cone inside).  The
    witness is tau* plus a greedy transport of logs - tau* r along the
    roots, earlier blocks supplying later ones; outside, the separator
    y = 1_S / <1_S, r> at the minimizing S, shifted to y[-1] = 0, has
    <y, e_i - e_j> >= 0 on every root and <y, logs> = margin <= tol.
    """
    if not (isfinite(tol) and tol >= 0.0):
        raise ValueError(f"cone tol must be finite and non-negative, got {tol!r}")
    logs = linalg.cartan_vector(logs, tol=1e-9)
    d = spec.dim
    if len(logs) != d:
        raise ValueError("logs length does not match the cone dimension")
    sizes = np.array(spec.blocks)
    ends = np.cumsum(sizes)
    r = np.repeat(d - 2 * ends + sizes, sizes)
    order = np.lexsort((logs, np.repeat(ends, sizes)))
    num, den = np.cumsum(logs[order])[:-1], np.cumsum(r[order])[:-1]
    n = int(np.argmin(num / den))
    tau = float(num[n] / den[n])
    if tau > tol:
        x = logs - tau * r
        coeffs = dict.fromkeys(spec.root_pairs, tau)
        supply = []  # (coordinate, amount) of earlier blocks, not yet sent
        for end, size in zip(ends.tolist(), spec.blocks):
            block = range(end - size, end)
            for j in block:
                need = -x[j]
                while need > 0.0 and supply:
                    i, have = supply.pop()
                    sent = min(have, need)
                    coeffs[(i, j)] += float(sent)
                    need -= sent
                    if have > sent:
                        supply.append((i, have - sent))
            supply += [(i, x[i]) for i in block if x[i] > 0.0]
        return ConeMembership(True, tau, coeffs, None)
    y = np.zeros(d)
    y[order[: n + 1]] = 1.0 / den[n]
    return ConeMembership(False, tau, None, y - y[-1])


def a_expanding_check(spec: ConeSpec, logs, k: int) -> bool:
    """Does exp(diag(logs)) expand the u-fixed vectors in the k-th wedge?

    The fixed space of the unipotent radical is the joint kernel of its
    log-nilpotent generators acting on the exterior power
    (:func:`_stacked_rank`); the check passes when every weight
    of exp(diag(logs)) present on that kernel exceeds 1, i.e. every
    log-weight is above ``CONE_TOL``.
    """
    logs = linalg.cartan_vector(logs, tol=1e-9)
    d = spec.dim
    if not 1 <= k <= d - 1:
        raise ValueError(f"grade k={k} out of range 1..{d - 1}")
    gens = []
    for i, j in spec.root_pairs:
        e = np.zeros((d, d))
        e[i, j] = 1.0
        gens.append(linalg.wedge_derivation(e, k))
    rank, vt = _stacked_rank(gens)
    kernel = vt[rank:].T  # columns span the u-fixed subspace
    if kernel.shape[1] == 0:
        return True  # vacuous: no u-fixed vectors to expand
    subset_weights = np.array([sum(logs[i] for i in s_) for s_ in linalg.k_subsets(d, k)])
    present = np.abs(kernel).max(axis=1) > SVD_TOL
    return bool(np.all(subset_weights[present] > CONE_TOL))
