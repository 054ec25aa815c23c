"""Matrix affinities, sponge IFSs, coding maps, and the block embedding.

A matrix affinity acts on m x n matrices by M -> A1 M A2 + B.  Those whose
linear parts lie on the cosets a_r(t) K_r x a_s(t) K_s for a common t are
the sponge affinities of a weight pair (r, s); they embed into the (m, n)
block parabolic of SL_{m+n} by g = blockdiag(A1, A2^{-1})^{-1} u_B, which
turns IFS coding orbits into random-walk unipotent parameters.  The sponge
check is the K'A' split of :mod:`expwalk.kau` applied to
blockdiag(A1, A2^{-1}), so a sponge's t is minus the t of its embedding.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import log

import numpy as np

from .kau import FactorizationError, ParabolicProfile, WeightPair, _coset_split, unipotent
from .linalg import NumericalError
from .measures import GroupMeasure, _index_stream, _word_products
from .rng import substream

SPONGE_TOL = 1e-8  # how far a symbol's linear part may sit from its weight coset
SPAN_TOL = 1e-9  # rank threshold of the irreducibility certificate


class CodingDepthError(NumericalError):
    """Coding composition failed to contract within the depth cap."""


@dataclass(frozen=True)
class MatrixAffinity:
    """The map M -> A1 M A2 + B on m x n matrices."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a1 = np.atleast_2d(np.asarray(self.a1, dtype=float))
        a2 = np.atleast_2d(np.asarray(self.a2, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        for name, a in (("A1", a1), ("A2", a2)):
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"{name} must be square, got {a.shape}")
            if abs(np.linalg.det(a)) <= 1e-12:
                raise ValueError(f"{name} must be invertible")
        if b.shape != (a1.shape[0], a2.shape[0]):
            raise ValueError(
                f"translation shape {b.shape} does not match ({a1.shape[0]}, {a2.shape[0]})"
            )
        for arr in (a1, a2, b):
            arr.setflags(write=False)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a1.shape[0]

    @property
    def n(self) -> int:
        return self.a2.shape[0]

    def linear_norm(self) -> float:
        """Spectral norm of M -> A1 M A2 (equals |A1| |A2|)."""
        s1 = np.linalg.svd(self.a1, compute_uv=False)[0]
        s2 = np.linalg.svd(self.a2, compute_uv=False)[0]
        return float(s1 * s2)

    def linear_operator(self) -> np.ndarray:
        """Matrix of M -> A1 M A2 on row-major vectorized M."""
        return np.kron(self.a1, self.a2.T)


def affinity_apply(phi: MatrixAffinity, mat) -> np.ndarray:
    """Evaluate A1 M A2 + B."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape != (phi.m, phi.n):
        raise ValueError(f"affinity expects shape ({phi.m}, {phi.n}), got {mat.shape}")
    return phi.a1 @ mat @ phi.a2 + phi.b


@dataclass
class SpongeCheck:
    ok: bool
    t: float | None
    reason: str = ""


def sponge_check(phi: MatrixAffinity, weights: WeightPair) -> SpongeCheck:
    """Test A1 in a_r(t) K_r and A2 in a_s(t) K_s for one common t.

    This is :func:`expwalk.kau._coset_split` of
    blockdiag(A1, A2^{-1}) = k a(t) for the (m, n) profile of ``weights``
    within ``SPONGE_TOL``: per weight group the block must be a positive
    scalar e^{t w} times an orthogonal matrix, and the t of every group
    must agree.  A failure's reason names block coordinates counted over
    A1 first, then A2.
    """
    if phi.m != weights.m or phi.n != weights.n:
        return SpongeCheck(False, None, "weight pair shape does not match the affinity")
    profile = ParabolicProfile(phi.m, phi.n, weights)
    try:
        _, t = _coset_split(hat_matrix(phi), profile, SPONGE_TOL)
    except FactorizationError as err:
        return SpongeCheck(False, None, str(err))
    return SpongeCheck(True, t, "")


@dataclass
class AffineIFS:
    """Finite IFS of matrix affinities with symbol probabilities."""

    symbols: tuple[MatrixAffinity, ...]
    weights: np.ndarray
    weightpair: WeightPair | None = field(default=None)

    def __post_init__(self):
        symbols = tuple(self.symbols)
        if not symbols:
            raise ValueError("an IFS needs at least one symbol")
        m, n = symbols[0].m, symbols[0].n
        if any(phi.m != m or phi.n != n for phi in symbols):
            raise ValueError("all symbols must share the same (m, n) shape")
        wts = np.asarray(self.weights, dtype=float)
        if wts.shape != (len(symbols),):
            raise ValueError("one probability per symbol required")
        if np.any(wts <= 0.0) or abs(wts.sum() - 1.0) >= 1e-12:
            raise ValueError("symbol probabilities must be positive and sum to 1")
        if self.weightpair is not None:
            for i, phi in enumerate(symbols):
                chk = sponge_check(phi, self.weightpair)
                if not chk.ok:
                    raise ValueError(f"symbol {i} fails the sponge check: {chk.reason}")
        wts.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "weights", wts)

    @property
    def m(self) -> int:
        return self.symbols[0].m

    @property
    def n(self) -> int:
        return self.symbols[0].n


@dataclass
class IFSValidation:
    contracting: bool
    n_witness: int | None
    values: list  # expected log operator norm at N = 1, 2, ..
    mode: str  # "exact" | "monte-carlo"


def ifs_validate(
    ifs: AffineIFS,
    n_max: int = 6,
    cap: int = 10**6,
    mc_samples: int = 4000,
    seed: int = 0,
) -> IFSValidation:
    """Check contraction on average of the IFS linear parts.

    Evaluates the expected log spectral norm of random N-fold products of
    the linear operators (on the mn-dimensional matrix space) for
    N = 1..n_max, exactly while symbol_count**N stays below ``cap`` and by
    Monte Carlo beyond, with ``mc_samples`` fresh words for each N (flagged
    in the result).  Contracting once the expectation goes negative.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ops = np.array([phi.linear_operator() for phi in ifs.symbols])
    # exact products are also held to symbol_count**N * dim**2 <= 5e7 floats
    cap = min(cap, int(5e7) // ops.shape[1] ** 2)
    rng = substream(seed, 23)
    values = []
    for n in range(1, n_max + 1):
        # no merging: an absolute grid would pool small products of any norm
        products, wts, exact = _word_products(
            ops, ifs.weights, n, "auto", cap, mc_samples, rng, merge_tol=None
        )
        norms = np.linalg.svd(products, compute_uv=False)[:, 0]
        values.append(float(wts @ np.log(norms)))
        mode = "exact" if exact else "monte-carlo"
        if values[-1] < 0.0:
            return IFSValidation(True, n, values, mode)
    return IFSValidation(False, None, values, mode)


def coding_limit(ifs: AffineIFS, symbols, tol: float = 1e-10, max_depth: int = 10**4):
    """Limit of phi_{i1} o phi_{i2} o .. applied to 0 along a symbol stream.

    Symbols are consumed until the composed linear part has norm below
    ``tol``; the composed image of 0 is returned.  Raises
    :class:`CodingDepthError` past ``max_depth`` symbols.
    """
    p = np.eye(ifs.m)
    q = np.eye(ifs.n)
    c = np.zeros((ifs.m, ifs.n))
    depth = 0
    for idx in symbols:
        phi = ifs.symbols[int(idx)]
        c = c + p @ phi.b @ q
        p = p @ phi.a1
        q = phi.a2 @ q
        depth += 1
        norm = (
            np.linalg.svd(p, compute_uv=False)[0] * np.linalg.svd(q, compute_uv=False)[0]
        )
        if norm < tol:
            return c
        if depth >= max_depth:
            break
    raise CodingDepthError(
        f"composed linear part did not contract below {tol!r} in {depth} symbols"
    )


def coding_sample(ifs: AffineIFS, n_points: int, tol: float = 1e-10, seed: int = 0):
    """n_points i.i.d. draws from the self-affine measure via the coding map.

    Point i consumes substream (seed, i), so samples are reproducible and
    independent of evaluation order.
    """
    out = np.empty((n_points, ifs.m, ifs.n))
    for i in range(n_points):
        out[i] = coding_limit(ifs, _index_stream(substream(seed, i), ifs.weights), tol)
    return out


def check_admissible(bases) -> tuple[bool, str]:
    """The two-sided base condition making the sponge weights valid.

    For every i: (1/m) sum_{j != i} log a_j < log a_i
    < (2/(m-1)) sum_{j != i} log a_j.  Returns (ok, failing inequality).
    """
    bases = [int(a) for a in bases]
    m = len(bases)
    if m == 1:
        return True, ""
    logs = [log(a) for a in bases]
    for i in range(m):
        other = sum(logs) - logs[i]
        lo = other / m
        hi = 2.0 * other / (m - 1)
        if not lo < logs[i]:
            return False, (
                f"(1/{m})*sum_(j!={i}) log a_j = {lo:.6g} >= log {bases[i]} = {logs[i]:.6g}"
            )
        if not logs[i] < hi:
            return False, (
                f"log {bases[i]} = {logs[i]:.6g} >= (2/{m - 1})*sum_(j!={i}) log a_j = {hi:.6g}"
            )
    return True, ""


def sierpinski_weights(bases) -> tuple[float, ...]:
    """Weights r_i = (m log a_i - sum_{j != i} log a_j) / sum_j log a_j."""
    bases = [int(a) for a in bases]
    m = len(bases)
    logs = [log(a) for a in bases]
    total = sum(logs)
    return tuple((m * logs[i] - (total - logs[i])) / total for i in range(m))


def sponge_builder(bases, pattern, symbol_weights=None) -> AffineIFS:
    """Grid-subdivision sponge IFS on R^m as (r, 1)-sponge affinities.

    Each kept cell (c_1, .., c_m), 0 <= c_i < a_i, becomes the map
    x -> diag(1/a_1, .., 1/a_m) x + (c_i / a_i)_i, realized with the
    t-budget shared between the factors: A2 = e^t with
    t = -(sum log a_j) / (m + 1) and A1 = diag(1/a_i) e^{-t}, which puts
    the linear parts on the weight cosets for the r of
    :func:`sierpinski_weights`.  Symbol probabilities are uniform unless
    ``symbol_weights`` gives them (e.g. the externally computed
    full-dimension weights, which this package does not derive).
    """
    bases = [int(a) for a in bases]
    if any(a < 2 for a in bases):
        raise ValueError("bases must be integers >= 2")
    if len(set(bases)) != len(bases):
        raise ValueError("bases must be pairwise distinct")
    m = len(bases)
    ok, why = check_admissible(bases)
    if not ok:
        raise ValueError(f"bases {tuple(bases)} are not admissible: {why}")
    cells = [tuple(int(c) for c in cell) for cell in pattern]
    if not cells:
        raise ValueError("the pattern must keep at least one cell")
    for cell in cells:
        if len(cell) != m or any(not 0 <= cell[i] < bases[i] for i in range(m)):
            raise ValueError(f"cell {cell} outside the {tuple(bases)} grid")
    if symbol_weights is None:
        wts = np.full(len(cells), 1.0 / len(cells))
    else:
        wts = np.asarray(symbol_weights, dtype=float)

    r = sierpinski_weights(bases)
    t = -sum(log(a) for a in bases) / (m + 1)
    a1 = np.diag([1.0 / a for a in bases]) * np.exp(-t)
    a2 = np.array([[np.exp(t)]])
    symbols = []
    for cell in cells:
        b = np.array([[cell[i] / bases[i]] for i in range(m)])
        symbols.append(MatrixAffinity(a1, a2, b))
    return AffineIFS(tuple(symbols), wts, weightpair=WeightPair(r, (1.0,)))


def hat_matrix(phi: MatrixAffinity) -> np.ndarray:
    """The block diagonal blockdiag(A1, A2^{-1}) of the embedding."""
    d = phi.m + phi.n
    out = np.zeros((d, d))
    out[: phi.m, : phi.m] = phi.a1
    out[phi.m :, phi.m :] = np.linalg.inv(phi.a2)
    return out


def embed_to_pgl(phi: MatrixAffinity) -> np.ndarray:
    """The group element g = blockdiag(A1, A2^{-1})^{-1} u_B of the affinity.

    Conjugation by blockdiag(A1, A2^{-1}) followed by u_B realizes the
    affinity on unipotent parameters: hat u_M hat^{-1} u_B = u_{phi(M)}.
    The representative is rescaled to determinant +-1 (a no-op for sponge
    affinities, whose embedding is already unimodular).
    """
    d = phi.m + phi.n
    g = np.linalg.inv(hat_matrix(phi)) @ unipotent(phi.b)
    return g / abs(np.linalg.det(g)) ** (1.0 / d)


def measure_from_ifs(ifs: AffineIFS) -> GroupMeasure:
    """Driving measure of the embedded random walk, one atom per symbol."""
    mats = [embed_to_pgl(phi) for phi in ifs.symbols]
    profile = None
    if ifs.weightpair is not None:
        profile = ParabolicProfile(ifs.m, ifs.n, ifs.weightpair)
    return GroupMeasure(np.array(mats), np.array(ifs.weights), profile=profile)


@dataclass
class IrreducibilityReport:
    status: str  # "irreducible" | "reducible" | "inconclusive"
    witness: object = None
    detail: str = ""


def _attractor_anchor(ifs: AffineIFS):
    # exact affine fixed point of the most contracting single symbol, else a
    # coding sample; None when nothing converges
    norms = [phi.linear_norm() for phi in ifs.symbols]
    i = int(np.argmin(norms))
    if norms[i] < 1.0 - 1e-12:
        phi = ifs.symbols[i]
        op = phi.linear_operator()
        vec = np.linalg.solve(np.eye(op.shape[0]) - op, phi.b.ravel())
        return vec.reshape(ifs.m, ifs.n)
    try:
        return coding_sample(ifs, 1, seed=97)[0]
    except CodingDepthError:
        return None


def irreducibility_check(ifs: AffineIFS) -> IrreducibilityReport:
    """Sufficient test for the absence of a proper invariant affine subspace.

    Certificate: the span of the differences phi_i(x0) - phi_j(x0) at an
    attractor point x0, grown by the symbol linear maps for up to mn
    rounds, fills the whole matrix space.  (Any invariant affine subspace
    contains the attractor, hence x0 and all its symbol images, so the
    grown span sits inside its direction space.)  Reducible verdicts come
    with a witness: the fixed point of a single-symbol IFS, a common fixed
    point of all symbols, or a coordinate hyperplane {entry = const}
    preserved by every symbol.  Everything else is reported inconclusive.
    """
    dim = ifs.m * ifs.n
    ops = [phi.linear_operator() for phi in ifs.symbols]

    if len(ifs.symbols) == 1:
        phi = ifs.symbols[0]
        mat = np.eye(dim) - ops[0]
        if abs(np.linalg.det(mat)) > 1e-12:
            fp = np.linalg.solve(mat, phi.b.ravel()).reshape(ifs.m, ifs.n)
            return IrreducibilityReport("reducible", fp, "fixed point of the single map")
        return IrreducibilityReport(
            "reducible", None, "single map preserves an affine subspace through its drift"
        )

    anchor = _attractor_anchor(ifs)
    if anchor is not None:
        images = [affinity_apply(phi, anchor).ravel() for phi in ifs.symbols]
        diffs = [img - images[0] for img in images[1:]]
        span = np.array(diffs).reshape(len(diffs), dim)
        for _ in range(dim):
            rank = np.linalg.matrix_rank(span, tol=SPAN_TOL)
            if rank == dim:
                return IrreducibilityReport("irreducible", None, "difference span is full")
            grown = [span] + [span @ op.T for op in ops]
            new_span = np.vstack(grown)
            if np.linalg.matrix_rank(new_span, tol=SPAN_TOL) == rank:
                break
            span = new_span

    # witness search: common fixed point of all symbols
    stacked = np.vstack([np.eye(dim) - op for op in ops])
    rhs = np.concatenate([phi.b.ravel() for phi in ifs.symbols])
    sol, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    if np.abs(stacked @ sol - rhs).max() < 1e-9:
        return IrreducibilityReport(
            "reducible", sol.reshape(ifs.m, ifs.n), "common fixed point of all symbols"
        )

    # witness search: coordinate hyperplane {x_e = p_e} preserved by all symbols
    for e in range(dim):
        ps = []
        for phi, op in zip(ifs.symbols, ops):
            row = op[e]
            if np.abs(np.delete(row, e)).max(initial=0.0) > SPAN_TOL:
                break
            c = row[e]
            if abs(1.0 - c) <= SPAN_TOL:
                break
            ps.append(phi.b.ravel()[e] / (1.0 - c))
        else:
            if ps and max(ps) - min(ps) <= 1e-9 * max(1.0, abs(ps[0])):
                i, j = divmod(e, ifs.n)
                return IrreducibilityReport(
                    "reducible",
                    {"entry": (i, j), "value": ps[0]},
                    f"all symbols preserve the hyperplane entry({i},{j}) = {ps[0]:.6g}",
                )
    return IrreducibilityReport("inconclusive", None, "no certificate found either way")


# ---------------------------------------------------------------------------
# IFS files


def ifs_to_dict(ifs: AffineIFS) -> dict:
    doc = {
        "m": ifs.m,
        "n": ifs.n,
        "symbols": [
            {
                "A1": [repr(float(v)) for v in phi.a1.ravel()],
                "A2": [repr(float(v)) for v in phi.a2.ravel()],
                "B": [repr(float(v)) for v in phi.b.ravel()],
            }
            for phi in ifs.symbols
        ],
        "weights": [repr(float(w)) for w in ifs.weights],
    }
    if ifs.weightpair is not None:
        doc["weightpair"] = {
            "r": [repr(v) for v in ifs.weightpair.r],
            "s": [repr(v) for v in ifs.weightpair.s],
        }
    return doc


def ifs_from_dict(doc: dict) -> AffineIFS:
    m, n = int(doc["m"]), int(doc["n"])
    symbols = []
    for sym in doc["symbols"]:
        a1 = np.array([float(v) for v in sym["A1"]]).reshape(m, m)
        a2 = np.array([float(v) for v in sym["A2"]]).reshape(n, n)
        b = np.array([float(v) for v in sym["B"]]).reshape(m, n)
        symbols.append(MatrixAffinity(a1, a2, b))
    weights = np.array([float(w) for w in doc["weights"]])
    weightpair = None
    if "weightpair" in doc and doc["weightpair"] is not None:
        wp = doc["weightpair"]
        weightpair = WeightPair(
            tuple(float(v) for v in wp["r"]), tuple(float(v) for v in wp["s"])
        )
    return AffineIFS(tuple(symbols), weights, weightpair=weightpair)


def save_ifs(ifs: AffineIFS, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ifs_to_dict(ifs), fh, indent=2)
        fh.write("\n")


def load_ifs(path: str) -> AffineIFS:
    with open(path, encoding="utf-8") as fh:
        return ifs_from_dict(json.load(fh))
