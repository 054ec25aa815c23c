"""Expansion certificates and expanding cones.

Certifies or refutes uniform expansion of a matrix random walk through the
integral criterion: the walk expands every direction iff for some word
length N the integral of log(|gv|/|v|) over N-step words is bounded below
by a positive constant uniformly on the unit sphere.  The sphere minimum
is located heuristically (dense random sampling plus Nelder-Mead descent
from the best samples), so a positive result is reported as
"PASS (heuristic min > 0)" while a negative witness is a proof of failure.
The N-step words come from the one word-product engine in
:mod:`expwalk.measures`, and :func:`_sphere_minimize` is the one sphere
optimizer: the certificate minimizes the mean of log|gv|, the moment
contraction estimate the mean of -|gv|^(-delta).  One batch objective
scores the sphere samples and the descents, and its memory is bounded by
image elements, whatever the sample count.  The descents run in lockstep
as one batch (:func:`_nelder_mead_batch`), which reproduces scipy's
Nelder-Mead bit for bit without its per-start Python loop; a start that
reaches a bitwise fixed point leaves the batch with the result scipy
returns at ``maxiter``, which is exact because each row's objective value
does not depend on the rest of the batch.  The objective
takes the images of a point under all words in one gemv over the stacked
word matrices wherever OpenBLAS rounds that like one gemv per word
(:func:`_word_images`), so the certificates, witnesses and benchmark
outputs equal those of the scalar per-word objective bit for bit.

Also decides membership in the expanding cone of a block parabolic of
sl_d via a small linear program, and checks a-expansion of the unipotent
radical in exterior powers of the standard representation.

scipy is loaded only by the two computations that call it, at their first
call: the cone LP (``linprog``) and the normal quantile of the Monte-Carlo
confidence bound (``ndtri``).  Importing this module does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

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
    """Numerical trouble: a non-finite certificate bound, or a cone LP that
    does not solve."""


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


def _batch_objective_factory(word_mats, word_wts, transform, chunk):
    """Rows of points v -> sum_w weight * transform(|W v| / |v|) over the word
    matrices W; 1e6 where |v| is below 1e-300 or not finite.

    Every step mirrors the scalar objective on one row (kept in the tests
    as the reference, bit for bit): the norm is a per-row dot, the images
    come from :func:`_word_images` (the per-word matvecs, stacked into one
    gemv per point when dim <= 8, where OpenBLAS rounds them alike), the
    image norms are the sqrt of the sums of squares that ``np.linalg.norm``
    computes (:func:`_sum_squares`), and the weighting is a per-row dot, so
    each row goes through the same kernels.  At most
    ``chunk`` rows are evaluated per batched call, which bounds the
    rows x words x dim image buffer.  A call that fits one chunk and whose
    norms all lie in [1e-300, inf), as almost every optimizer call does,
    returns the values directly, without the 1e6 fill, the masks and the
    scatter; the values are the same, since each row is computed alone.
    """
    wts_row = word_wts[None, None, :]

    def row_norms(pts):
        return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])

    def values(pts, nrm):
        images = _word_images(word_mats, pts / nrm[:, None])
        vals = transform(np.sqrt(_sum_squares(images)))
        return (wts_row @ vals[:, :, None])[:, 0, 0]

    def objective(points):
        if 0 < len(points) <= chunk:  # one chunk of good rows: no mask, no scatter
            nrm = row_norms(points)
            if 1e-300 <= np.minimum.reduce(nrm) and np.maximum.reduce(nrm) < np.inf:
                return values(points, nrm)
        out = np.full(len(points), 1e6)
        for lo in range(0, len(points), chunk):
            pts = points[lo : lo + chunk]
            nrm = row_norms(pts)
            good = np.isfinite(nrm) & (nrm >= 1e-300)
            out[lo : lo + chunk][good] = values(pts[good], nrm[good])
        return out

    return objective


def _nelder_mead_batch(objective, x0, xatol, fatol, maxiter):
    """scipy's Nelder-Mead (non-adaptive, unbounded) from every row of ``x0`` at once.

    The simplices of all starts are one (dim+1, B, dim) array, vertex-major
    so that the centroid sums whole contiguous vertex slices; each
    iteration advances every running start with at most three batched
    objective calls (reflections, then expansions or contractions, then
    shrink vertices).  ``objective`` maps (P, dim) points to P values, each
    row's value independent of the other rows.  A start leaves the batch on
    scipy's convergence test, at ``maxiter``, or when an iteration with a
    shrink leaves its simplex and values bitwise unchanged.  An iteration
    is a function of the start's own simplex and values alone, so such a
    start is a fixed point: scipy would repeat that iteration until
    ``maxiter`` and then return its best vertex and least value, which is
    what the start returns at once.  Returns (x, fun) per start, equal bit
    for bit to ``scipy.optimize.minimize(..., method="Nelder-Mead")`` with
    the same xatol, fatol and maxiter.
    """
    chi, psi, sigma = 2, 0.5, 0.5  # rho = 1
    nonzdelt, zdelt = 0.05, 0.00025
    # rows (1 + c, c) of the step (1 + c) xbar - c worst: inside contraction,
    # outside contraction, expansion; 1 + c is exact, and x - (-y) rounds like
    # x + y, so each step matches scipy's formula
    steps = np.array([[1 - psi, -psi], [1 + psi, psi], [1 + chi, chi]])
    b, n = x0.shape
    diag = np.arange(n)
    sim = np.repeat(x0[None], n + 1, axis=0)
    sim[diag + 1, :, diag] = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt).T
    fsim = objective(sim.reshape(-1, n)).reshape(n + 1, b).T
    cols = np.arange(b)

    def ordered(sim, fsim):
        ind = np.argsort(fsim, axis=1)
        c = cols[: len(fsim)]
        return sim[ind.T, c], fsim[c[:, None], ind]

    x_out, f_out = np.empty((b, n)), np.empty(b)
    ids = np.arange(b)

    def retire(leave, ids, sim, fsim):
        x_out[ids[leave]] = sim[0, leave]
        f_out[ids[leave]] = fsim[leave].min(axis=1)
        stay = ~leave
        return ids[stay], sim[:, stay], fsim[stay]

    sim, fsim = ordered(*ordered(sim, fsim))  # scipy sorts the first simplex twice
    iterations = 1
    while ids.size and iterations < maxiter:
        # each fsim row is sorted (NaN last), so f[-1] - f[0] <= fatol exactly
        # when scipy's max |f[0] - f[k]| <= fatol
        done = fsim[:, -1] - fsim[:, 0] <= fatol
        if done.any():
            done[done] = np.abs(sim[1:, done] - sim[:1, done]).max(axis=(0, 2)) <= xatol
            ids, sim, fsim = retire(done, ids, sim, fsim)
        worst, f_hi = sim[-1], fsim[:, -1]
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - worst  # (1 + rho) xbar - rho worst, exactly
        fxr = objective(xr)

        expand = fxr < fsim[:, 0]
        rest = ~((fxr < fsim[:, -2]) > expand)  # all but the accepted reflections
        below_hi = fxr < f_hi
        coef = steps[np.where(expand, 2, below_hi)]
        x2 = coef[:, :1] * xbar - coef[:, 1:] * worst
        f2 = np.full(ids.size, np.nan)  # NaN fails every test below
        f2[rest] = objective(x2[rest])

        take2 = np.where(expand, f2 < fxr, np.where(below_hi, f2 <= fxr, f2 < f_hi))
        shrink = (rest > expand) > take2  # the contractions not taken
        shrunk = shrink.any()
        if shrunk:  # the simplex and values of the shrinking starts before the step
            s0, f0 = sim[:, shrink], fsim[shrink]
        # a shrinking start's last vertex and value are overwritten below
        sim[-1] = np.where(take2[:, None], x2, xr)
        fsim[:, -1] = np.where(take2, f2, fxr)
        if shrunk:
            s = s0[:1] + sigma * (s0[1:] - s0[:1])
            sim[1:, shrink] = s
            fsim[shrink, 1:] = objective(s.reshape(-1, n)).reshape(n, -1).T
        iterations += 1
        sim, fsim = ordered(sim, fsim)
        if shrunk:  # a start that the step left bitwise unchanged is at a fixed point
            same_x = sim[:, shrink].view(np.int64) == s0.view(np.int64)
            same_f = fsim[shrink].view(np.int64) == f0.view(np.int64)
            stuck = np.zeros(ids.size, dtype=bool)
            stuck[shrink] = same_x.all(axis=(0, 2)) & same_f.all(axis=1)
            if stuck.any():
                ids, sim, fsim = retire(stuck, ids, sim, fsim)
    x_out[ids] = sim[0]
    f_out[ids] = fsim.min(axis=1)
    return x_out, f_out


def _sphere_minimize(word_mats, word_wts, sphere_samples, n_descent, rng, transform=np.log):
    """Minimum over the unit sphere of the objective of :func:`_batch_objective_factory`.

    One objective scores the ``sphere_samples`` random directions, then
    the Nelder-Mead descents from the ``n_descent`` best, all in lockstep
    (:func:`_nelder_mead_batch`, scipy's algorithm bit for bit).  A call
    holds at most ``IMAGE_FLOATS`` image elements (at least one row), so
    memory is bounded by elements, not by the sample count.  Returns
    (minimum, unit witness direction); a descent replaces the running best
    only when strictly lower, in sample order.
    """
    n_words, dim, _ = word_mats.shape
    dirs = rng.normal(size=(sphere_samples, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    chunk = max(1, IMAGE_FLOATS // (n_words * dim))
    objective = _batch_objective_factory(word_mats, word_wts, transform, chunk)
    vals = objective(dirs)
    order = np.argsort(vals)
    xs, funs = _nelder_mead_batch(objective, dirs[order[:n_descent]], 1e-8, 1e-13, 300 * dim)

    best_val = float(vals[order[0]])
    best_v = dirs[order[0]]
    for x, fun in zip(xs, funs):
        if fun < best_val:
            best_val = float(fun)
            best_v = x
    return best_val, best_v / np.linalg.norm(best_v)


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
    """Core certificate computation on precomputed representation atoms;
    Nelder-Mead descends from the 20 best sphere samples."""
    rep_atoms = np.asarray(rep_atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if N < 1:
        raise ValueError("word length N must be at least 1")
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be at least 1")
    if mode != "exact" and mc_words < 2:  # the Monte-Carlo bound needs a standard error
        raise ValueError("mc_words must be at least 2")
    if mode != "exact" and not 0.0 < confidence < 1.0:  # ndtri is finite only inside (0, 1)
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence!r}")
    word_mats, word_wts, exact = _word_products(
        rep_atoms, weights, N, mode, cap, mc_words, substream(seed, 0)
    )
    best_val, best_v = _sphere_minimize(
        word_mats, word_wts, sphere_samples, 20, substream(seed, 1)
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
        )
    per_word = np.log(np.linalg.norm(_word_images(word_mats, best_v[None])[0], axis=-1))
    stderr = float(per_word.std(ddof=1) / np.sqrt(len(per_word)))
    from scipy.special import ndtri

    z = float(ndtri(confidence))
    return ExpansionCertificate(
        N=N,
        C_lower=float(per_word.mean() - z * stderr),
        mode="monte-carlo",
        sphere_samples=sphere_samples,
        confidence=confidence,
        witness=best_v,
        rep=rep_label,
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
    located heuristically like the certificate minimum, descending from the
    10 best samples; ``mode`` picks exact words (up to 10^6) or 4000 Monte
    Carlo words as in :func:`measures._word_products`.  Returns
    (sup_ratio, witness direction).
    """
    if delta <= 0.0:
        raise ValueError("moment exponent delta must be positive")
    if sphere_samples < 1:
        raise ValueError("sphere_samples must be at least 1")
    rep_atoms = np.array([rep_matrix(rep, g) for g in mu.matrices])
    word_mats, word_wts, _ = _word_products(rep_atoms, mu.weights, N, mode, rng=substream(seed, 2))
    neg_ratio, best_v = _sphere_minimize(
        word_mats,
        word_wts,
        sphere_samples,
        10,
        substream(seed, 3),
        transform=lambda norms: -(norms ** (-delta)),
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

    def block_of(self, i: int) -> int:
        acc = 0
        for b_idx, b in enumerate(self.blocks):
            acc += b
            if i < acc:
                return b_idx
        raise IndexError(i)

    @property
    def root_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with block(i) < block(j): the roots of u."""
        return [
            (i, j)
            for i in range(self.dim)
            for j in range(self.dim)
            if self.block_of(i) < self.block_of(j)
        ]


@dataclass
class ConeMembership:
    inside: bool
    margin: float  # optimal tau of the LP
    coefficients: dict | None  # root pair -> positive coefficient (witness)
    separator: np.ndarray | None  # functional >= 0 on all roots, <= margin on logs


def expanding_cone_membership(
    spec: ConeSpec, logs, tol: float = CONE_TOL
) -> ConeMembership:
    """Decide membership of diag(logs) in the open expanding cone of u.

    The cone is the set of strictly positive combinations of the vectors
    e_i - e_j over root pairs (i, j) of the parabolic (Killing duals up to
    positive scale, which does not change the cone).  Solved as the LP
    "maximize tau subject to sum t_ij (e_i - e_j) = logs, t_ij >= tau";
    inside iff the optimum exceeds ``tol``, which must be finite and
    non-negative (a negative one would call points outside the cone
    inside).  The witness is the coefficient family; outside, the dual
    vector y is returned, which satisfies
    <y, e_i - e_j> >= 0 for every root and <y, logs> = margin <= tol.
    """
    if not (isfinite(tol) and tol >= 0.0):
        raise ValueError(f"cone tol must be finite and non-negative, got {tol!r}")
    logs = linalg.cartan_vector(logs, tol=1e-9)
    d = spec.dim
    if len(logs) != d:
        raise ValueError("logs length does not match the cone dimension")
    pairs = spec.root_pairs
    p = len(pairs)
    # variables x = (t_1..t_p, tau); drop the last (redundant) equality row
    a_eq = np.zeros((d - 1, p + 1))
    for col, (i, j) in enumerate(pairs):
        if i < d - 1:
            a_eq[i, col] += 1.0
        if j < d - 1:
            a_eq[j, col] -= 1.0
    b_eq = logs[: d - 1]
    a_ub = np.zeros((p, p + 1))
    a_ub[:, :p] = -np.eye(p)
    a_ub[:, p] = 1.0
    b_ub = np.zeros(p)
    c = np.zeros(p + 1)
    c[p] = -1.0
    from scipy.optimize import linprog

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * (p + 1),
        method="highs",
    )
    if res.status != 0:
        raise ExpansionFailure(f"cone LP did not solve: {res.message}")
    tau = float(res.x[p])
    if tau > tol:
        coeffs = {pair: float(t) for pair, t in zip(pairs, res.x[:p])}
        return ConeMembership(True, tau, coeffs, None)
    y = np.zeros(d)
    y[: d - 1] = -np.asarray(res.eqlin.marginals, dtype=float)
    return ConeMembership(False, tau, None, y)


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
