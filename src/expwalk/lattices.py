"""The space of unimodular lattices SL_d(R)/SL_d(Z).

A point is a lattice, not a choice of basis: it is held as its LLL-reduced
basis (columns generate it, determinant +-1), and no other basis or change
of basis is kept.  Reduction is applied at every random-walk step so
representatives stay numerically tame over long runs.

Provides exact shortest vectors, membership in the Mahler sets K_eps,
Siegel lattice-point counts, the cusp height built from wedge norms of
basis subsets, and the random-walk harnesses checking its contraction
under averaging.

Lattice points are enumerated by Fincke-Pohst on the cached R-factor of
the reduced basis, in every dimension.  R has one kernel,
``_rfactor_stack``: Gram-Schmidt done elementwise on a stack of bases, on
columns each scaled by its own power of two, so that no square overflows
deep in the cusp.  Like ``_lll_stack`` it returns the failed members'
errors beside the result, and one lattice's R
(``UnimodularLattice.rfactor``) is a stack of one.  Systoles have one
search, ``_systole_stack``: breadth-first over a stack of lattices, in
the sup or the Euclidean norm, each member with its own errors.  The
walk's ``shortest`` and ``mahler`` observables and the flow's minima read
it once per chunk, and ``shortest_vector`` is a stack of one that keeps
the leaves for its tie-break.  Siegel counts stay one lattice at a time,
depth-first (``_enumerate``).  Both charge each level's whole integer
range to the node count before it is walked, leaves included, so a range
past the cap (deep in the cusp) fails at once.

Reduction is one scalar LLL kernel for every dimension (``_lll``), on
Python floats and ints (numpy's per-call overhead dominates on 2x2 to 4x4
bases).  ``lll_reduce`` is its numpy wrapper and returns the reduced
lattice alone; the diagonal flow of :mod:`expwalk.dioph` calls the kernel
on list columns and applies the integer transform it returns to its
exact integers.  The kernel keeps
to three rules so that its results do not depend on how numpy or the
Python version sums: dots accumulate left to right (``s += a * b``,
never ``sum()``, which compensates from Python 3.12 on), coefficients
round half to even (``round``, like ``np.rint``), and the Lovasz test
squares with ``m ** 2`` (C ``pow``, like numpy's scalar power, which can
differ from ``m * m`` in the last bit).

Independent members -- the point x atom products and Monte-Carlo walks of
the contraction fit, the recurrence trials and the cusp-ladder bursts --
are reduced together by the lockstep kernel ``_lll_stack`` on a (B, d, d)
stack, each member at its own ``k``, failed or finished members masked.
It gives every member the bits of ``_lll`` by the same three rules, read
elementwise: dots accumulate left to right as elementwise numpy products
and sums in scalar order, coefficients round with ``np.rint``, and the
Lovasz square is Python ``v ** 2`` on the gathered coefficients.  Products
and Gram matrices are stacked ``np.matmul`` calls and minors stacked
``np.linalg.det`` calls; both work one matrix at a time, so each member
gets the bits of its own 2-d call.  A stack raises the error that the
scalar loop over its members would raise first: the lowest failing
member's.  A stack of one costs several times a scalar call, so the
reductions of the flow and of ``walk_simulate``, where each step depends
on the last, keep the scalar kernel.  Their observables are read over
chunks of at most ``WALK_CHUNK`` steps: the walk's with one stacked
R-factor pass per chunk and one height or systole pass per observable,
the flow's with one stacked R-factor and sup-systole pass.  The height
reads a plan cached per (spec, d): grade exponents and each subset's
minor as indices into the flat Gram matrix, so a stack is one Gram product
and one batched determinant per grade (``margulis_height``: a stack of 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice
from math import ceil, floor, inf, isfinite, sqrt

import numpy as np

from .linalg import NumericalError, weyl_interior_vector
from .measures import GroupMeasure, ConvolutionCapError, convolution_support, sample_indices
from .rng import substream

LLL_DELTA = 0.99  # the Lovasz parameter of every reduction
DET_TOL = 1e-6  # how far from +-1 the determinant of an input basis may be
STACK = 4096  # members per lockstep stack of the contraction fit and recurrence trials
WALK_CHUNK = 256  # steps per stack of walk observables, grid points per stack of flow ones
SEARCH_CAP = 10**7  # enumeration nodes of a shortest-vector search


class LatticeError(NumericalError):
    pass


class ConditioningError(LatticeError):
    """Basis too ill-conditioned to reduce or enumerate reliably."""


class CountCapError(LatticeError):
    """Lattice-point enumeration exceeded the configured cap."""


class ContractionUnverified(LatticeError):
    """A recurrence experiment was requested without a verified contraction."""


@dataclass
class UnimodularLattice:
    """Lattice g Z^d with |det g| = 1, held as the columns of its reduced basis."""

    reduced: np.ndarray
    _rfactor: list | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.reduced.shape[0]

    def rfactor(self) -> list:
        """Rows of the upper-triangular R with positive diagonal, reduced = Q R:
        :func:`_rfactor_stack` of this one basis, computed once."""
        if self._rfactor is None:
            rs, errors = _rfactor_stack(self.reduced[None])
            _raise_first(errors)
            self._rfactor = rs[0]
        return self._rfactor


def standard_lattice(d: int) -> UnimodularLattice:
    return UnimodularLattice(np.eye(d))


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


def _lll(cols: list):
    """The scalar LLL kernel (module docstring) on float-list columns.

    Reduces ``cols`` in place and returns (cols, t): t holds the columns
    of the integral transform as Python ints, the identity when the loop
    neither swapped nor size-reduced.
    """
    d = len(cols)
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
        if norms[k] >= (LLL_DELTA - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = ck, cols[k - 1]
            t[k - 1], t[k] = tk, t[k - 1]
            mu, norms = _gso(cols)
            k = max(k - 1, 1)
    return cols, t


def lll_reduce(basis, renormalize: bool = True) -> UnimodularLattice:
    """The lattice spanned by the columns of ``basis``, LLL-reduced
    (Lovasz parameter ``LLL_DELTA``); no change of basis is returned.

    The input must be unimodular up to ``DET_TOL``; it is rescaled to
    determinant exactly +-1 before reduction.  Callers that construct the
    basis from exactly unimodular factors pass ``renormalize=False``: the
    floating determinant of an ill-conditioned (deep cusp) basis is too
    noisy to validate against, and repeated renormalization by a noisy
    determinant would corrupt the lattice.

    The scalar kernel :func:`_lll` reduces float-list columns in pure
    Python (module docstring); its Python-int transform is read only by
    the flow orbit, and Gram-Schmidt data is recomputed on each swap.
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
        if abs(abs(det) - 1.0) >= DET_TOL:
            raise ValueError(f"basis determinant {float(det)!r} is not within {DET_TOL} of +-1")
        b = b / abs(det) ** (1.0 / d)
        cols = b.T.tolist()
    cols = _lll(cols)[0]
    return UnimodularLattice(np.array(cols, order="F").T)  # C-contiguous


def _gso_stack(c):
    """:func:`_gso` of each member of a (n, d, d) stack of columns
    (``c[:, j]`` is column j), as (mu, norms, collapsed): mu[:, i, j] for
    j < i, zero elsewhere, and the mask of members whose data collapsed."""
    n, d, _ = c.shape
    q = np.empty_like(c)
    mu = np.zeros((n, d, d))
    norms = np.empty((n, d))
    for i in range(d):
        b = v = c[:, i]
        for j in range(i):
            s = np.zeros(n)
            for t in range(d):
                s += b[:, t] * q[:, j, t]
            mu[:, i, j] = m = s / norms[:, j]
            v = v - m[:, None] * q[:, j]
        s = np.zeros(n)
        for t in range(d):
            s += v[:, t] * v[:, t]
        q[:, i] = v
        norms[:, i] = s
    return mu, norms, ~((norms > 0.0) & np.isfinite(norms)).all(axis=1)


def _rfactor_stack(bases):
    """Rows of the upper-triangular R with positive diagonal, basis = Q R, of
    each basis of a (n, d, d) stack, as (rs, errors): R's rows per member,
    None for a failed one, and a dict from each failed member to its
    ConditioningError.

    Column j is scaled by 2^-e_j, e_j the ``np.frexp`` exponent of its
    largest entry (exact, and no square overflows deep in the cusp), then
    :func:`_gso_stack`, R_kj = mu_jk sqrt(n_k) 2^e_j and R_jj = sqrt(n_j)
    2^e_j.  A member fails when an entry overflows or is not finite or a
    diagonal entry is not positive, as one whose Gram-Schmidt data
    collapsed always does; its error names a collapse as :func:`_gso`
    does, and any other failure as degenerate.
    """
    d = bases.shape[1]
    cols = np.swapaxes(bases, 1, 2)
    e = np.frexp(np.abs(cols).max(axis=2))[1]
    with np.errstate(all="ignore"):
        mu, norms, collapsed = _gso_stack(np.ldexp(cols, -e[:, :, None]))
        roots = np.sqrt(norms)
        # R_kj = mu_jk sqrt(n_k) 2^e_j; mu_jk = 0 for k >= j
        r = np.ldexp(np.swapaxes(mu, 1, 2) * roots[:, :, None], e[:, None, :])
        diag = r[:, range(d), range(d)] = np.ldexp(roots, e)
        ok = (diag > 0.0).all(axis=1) & np.isfinite(r).all(axis=(1, 2))
    failed = np.flatnonzero(~ok)
    collapse = ConditioningError("Gram-Schmidt collapsed; basis near-singular")
    degenerate = ConditioningError("reduced basis degenerate in enumeration")
    errors = {k: collapse if c else degenerate
              for k, c in zip(failed.tolist(), collapsed[failed].tolist())}
    return [rows if good else None for rows, good in zip(r.tolist(), ok.tolist())], errors


def _lll_stack(bases):
    """:func:`lll_reduce` (without renormalization) of every basis of a
    (B, d, d) stack, in lockstep (module docstring).

    Returns (reduced, errors): the C-contiguous stack of reduced bases and
    a dict from each failed member to the exception its scalar reduction
    raises; a failed member's rows are not a lattice.
    """
    cols = np.swapaxes(np.asarray(bases, dtype=float), 1, 2).copy()
    n, d, _ = cols.shape
    errors = {}
    failed = np.zeros(n, dtype=bool)

    def fail(members, exc):
        errors.update(dict.fromkeys(members.tolist(), exc))
        failed[members] = True

    with np.errstate(all="ignore"):
        finite = np.isfinite(cols).all(axis=(1, 2))
        fail(np.flatnonzero(~finite), ValueError("matrix entries must be finite"))
        mu, norms, collapsed = _gso_stack(cols)
        collapse = ConditioningError("Gram-Schmidt collapsed; basis near-singular")
        fail(np.flatnonzero(finite & collapsed), collapse)
        k = np.ones(n, dtype=int)
        act = np.flatnonzero(finite & ~collapsed)
        iterations = 0
        while act.size:
            iterations += 1
            if iterations > 10_000 * d * d:
                fail(act, ConditioningError("LLL failed to terminate; basis ill-conditioned"))
                break
            ks = k[act]
            for kv in range(1, d):
                grp = act[ks == kv]
                if not grp.size:
                    continue
                ck, mk = cols[grp, kv], mu[grp, kv]
                for j in range(kv - 1, -1, -1):
                    bad = ~np.isfinite(mk[:, j])
                    if bad.any():
                        fail(grp[bad], ConditioningError("non-finite Gram-Schmidt coefficient"))
                        grp, ck, mk = grp[~bad], ck[~bad], mk[~bad]
                    r = np.rint(mk[:, j])
                    nz = np.flatnonzero(r)
                    if nz.size:
                        rz, gz = r[nz, None], grp[nz]
                        ck[nz] = ck[nz] - rz * cols[gz, j]
                        mk[nz, :j] = mk[nz, :j] - rz * mu[gz, j, :j]
                        mk[nz, j] = mk[nz, j] - r[nz]
                cols[grp, kv], mu[grp, kv] = ck, mk
                square = np.array([v ** 2 for v in mk[:, kv - 1].tolist()])
                lovasz = norms[grp, kv] >= (LLL_DELTA - square) * norms[grp, kv - 1]
                k[grp[lovasz]] += 1
                sw = grp[~lovasz]
                if sw.size:
                    cols[sw, kv - 1], cols[sw, kv] = cols[sw, kv], cols[sw, kv - 1]
                    mu[sw], norms[sw], collapsed = _gso_stack(cols[sw])
                    fail(sw[collapsed], collapse)
                    k[sw] = max(kv - 1, 1)
            act = act[(k[act] < d) & ~failed[act]]
    return np.ascontiguousarray(np.swapaxes(cols, 1, 2)), errors


def _raise_first(errors: dict):
    """Raise the error of the lowest failing member, the one a scalar loop
    over the members raises first."""
    if errors:
        raise errors[min(errors)]


def _enumerate(r: list, radius: float, cap: int) -> int:
    """Depth-first Fincke-Pohst count of the nonzero integer z with
    |R z|_2 <= radius.

    ``r`` is R as rows of floats (:meth:`UnimodularLattice.rfactor`).
    Levels run from d - 1 down to 0; each level's integer range is added
    to the node count before it is visited, and the count passing ``cap``
    raises CountCapError.
    """
    d = len(r)
    rad2 = radius * radius
    z = [0] * d
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
            count += hi - lo + 1 - (lo <= 0 <= hi and not any(z))
            return
        for zi in range(lo, hi + 1):
            z[level] = zi
            val = r[level][level] * zi + shift
            below = partial + val * val
            if below <= rad2:
                visit(level - 1, below)
        z[level] = 0

    visit(d - 1, 0.0)
    return count


def _canonical_sign(v: list) -> list:
    for entry in v:
        if abs(entry) > 1e-12:
            return [-t for t in v] if entry < 0 else v
    return v


def _lengths(v, norm: str):
    """The sup or Euclidean length of each row of a (..., d) array.  A
    Euclidean length is the square root of its row's dot as a batched
    ``v @ v`` on contiguous rows, which takes the BLAS dot of
    ``np.linalg.norm`` and so its bits; strided rows (the columns of a
    basis) take another summation order from d = 4 on."""
    if norm == "sup":
        return np.abs(v).max(axis=-1)
    v = np.ascontiguousarray(v)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _systole_stack(bases, rs, r_errors, norm: str):
    """The systole under ``norm`` ("sup" or "euclid") of each lattice of a
    (n, d, d) stack of bases, as (minima, errors, leaves): a float array
    (NaN for a failed member), a dict from each failed member to its error,
    and the search's leaves (owner, vectors, lengths): every nonzero lattice
    vector z B within the radius, with its member and its length.

    ``rs`` and ``r_errors`` are the R-factors and their errors as
    :func:`_rfactor_stack` gives them; a member without R fails with its R
    error.  The radius is the shortest basis column under the norm, times
    sqrt(d) for the sup norm (a sup-norm minimizer has Euclidean length at
    most sqrt(d) times its sup norm), times 1 + 1e-12; a member whose search
    tree bound prod_j (1 + 2 radius / R_jj) passes 1e12 is refused.

    The Fincke-Pohst search is breadth-first over the levels d - 1 .. 0,
    every member's nodes at once: shifts accumulate left to right, a
    level's range is ``np.ceil`` and ``np.floor`` of the quotients of the
    depth-first :func:`_enumerate`, and a node is kept if its partial norm
    is at most the squared radius.  Each level's ranges are charged to
    their member before it is expanded, and a member whose count passes
    ``SEARCH_CAP`` nodes fails there (an infinite range is past the cap), as
    in the depth-first search.  Nodes expand in increasing z at each level,
    so a member's leaves come in depth-first order.  Vectors z B are dots
    accumulated left to right from 0.0, measured by :func:`_lengths`.
    """
    n, d, _ = bases.shape
    errors = dict(r_errors)

    def fail(members, exc):
        errors.update({k: exc for k in members.tolist() if k not in errors})

    eye = np.eye(d)  # the R of a failed member, which is not searched
    r = np.array([rows or eye for rows in rs], dtype=float).reshape(n, d, d)
    scale = sqrt(d) if norm == "sup" else 1.0
    with np.errstate(over="ignore"):  # an infinite radius is refused below
        radius = _lengths(np.swapaxes(bases, 1, 2), norm).min(axis=1) * scale * (1.0 + 1e-12)
    bound = np.ones(n)
    for j in range(d):
        bound *= 1.0 + 2.0 * radius / r[:, j, j]
    fail(np.flatnonzero(bound > 1e12),
         ConditioningError("enumeration radius blowup: the search tree bound exceeds 1e12"))
    too_many = CountCapError(f"enumeration exceeded the cap of {SEARCH_CAP} nodes")
    rad2 = radius * radius
    nodes = np.zeros(n)
    # the frontier: each node's member, its z (zero below the level) and partial norm
    owner = np.array([k for k in range(n) if k not in errors], dtype=int)
    z = np.zeros((owner.size, d))
    partial = np.zeros(owner.size)
    with np.errstate(all="ignore"):
        for level in range(d - 1, -1, -1):
            rl = r[owner, level]
            shift = np.zeros(owner.size)
            for j in range(level + 1, d):
                shift += rl[:, j] * z[:, j]
            half = np.sqrt(rad2[owner] - partial)
            lo = np.ceil((-half - shift) / rl[:, level] - 1e-12)
            hi = np.floor((half - shift) / rl[:, level] + 1e-12)
            width = hi - lo + 1.0
            nodes += np.bincount(owner, weights=width, minlength=n)
            fail(np.flatnonzero(~(nodes <= SEARCH_CAP)), too_many)
            # a member past the cap is expanded no further
            counts = np.where(nodes[owner] <= SEARCH_CAP, width, 0.0).astype(int)
            idx = np.repeat(np.arange(owner.size), counts)
            zi = lo[idx] + (np.arange(idx.size) - np.repeat(np.cumsum(counts) - counts, counts))
            owner, z = owner[idx], z[idx]
            z[:, level] = zi
            if level:
                val = rl[idx, level] * zi + shift[idx]
                below = partial[idx] + val * val
                kept = below <= rad2[owner]
                owner, z, partial = owner[kept], z[kept], below[kept]
    nonzero = z.any(axis=1)
    owner, z = owner[nonzero], z[nonzero]
    b = bases[owner]
    vectors = np.empty((owner.size, d))
    for i in range(d):
        s = np.zeros(owner.size)
        for j in range(d):
            s += z[:, j] * b[:, i, j]
        vectors[:, i] = s
    lengths = _lengths(vectors, norm)
    minima = np.full(n, inf)
    np.minimum.at(minima, owner, lengths)
    fail(np.flatnonzero(np.bincount(owner, minlength=n) == 0),
         LatticeError("enumeration returned no vectors; radius too small"))
    minima[list(errors)] = np.nan
    return minima, errors, (owner, vectors, lengths)


def _systoles(xs, norm: str):
    """(minima as a list, leaves) of :func:`_systole_stack` on the lattices
    ``xs`` and their R-factors.  Refuses an unknown norm first; a failure
    raises the first R error, else the lowest failing member's error."""
    if norm not in ("sup", "euclid"):
        raise ValueError(f"unknown norm {norm!r}")
    bases = np.array([x.reduced for x in xs])
    minima, errors, leaves = _systole_stack(bases, [x.rfactor() for x in xs], {}, norm)
    _raise_first(errors)
    return minima.tolist(), leaves


def shortest_vector(x: UnimodularLattice, norm: str = "sup"):
    """Exact shortest nonzero lattice vector in the sup or Euclidean norm,
    as (vector, length): the search of :func:`_systole_stack` on this one
    lattice and its R-factor.

    Ties within 1e-15 of the minimum go to the sparsest, then the
    lexicographically smallest sign-canonical vector, then the first leaf
    in depth-first order.
    """
    (best_len,), (_, vectors, lengths) = _systoles([x], norm)
    best_vec = best_key = None
    for v, v_len in zip(vectors.tolist(), lengths.tolist()):
        if v_len <= best_len + 1e-15:
            v = _canonical_sign(v)
            key = (sum(1 for t in v if abs(t) > 1e-12), tuple(round(t, 12) for t in v))
            if best_key is None or key < best_key:
                best_key, best_vec = key, v
    return np.array(best_vec), best_len


def _mahler(xs, epsilon: float) -> list:
    """1.0 for each lattice of ``xs`` in the Mahler set K_epsilon, else 0.0:
    the sup systoles of one stacked search against epsilon.  K_epsilon is
    empty for epsilon > 1 by Minkowski's theorem, so that reads 0 without
    a search."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if epsilon > 1.0:
        return [0.0] * len(xs)
    return [float(m >= epsilon) for m in _systoles(xs, "sup")[0]]


def mahler_member(x: UnimodularLattice, epsilon: float) -> bool:
    """Is every nonzero lattice vector of sup norm at least epsilon?
    :func:`_mahler` of this one lattice."""
    return _mahler([x], epsilon)[0] == 1.0


def siegel_count(x: UnimodularLattice, radius: float, cap: int = 10**7) -> int:
    """Number of nonzero lattice vectors of Euclidean norm <= radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return _enumerate(x.rfactor(), radius * (1.0 + 1e-9), cap)


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
    """Per grade i = 1..d-1: (i, subsets, the index of each subset's minor
    in a flattened d x d Gram matrix, epsilon^(delta_i / delta_lambda_i),
    -1 / (2 delta_lambda_i))."""
    delta_i, delta_lambda = spec.grade_exponents(d)
    plan = []
    for i in range(1, d):
        subsets = list(combinations(range(d), i))
        idx = np.array(subsets)
        eps_factor = float(spec.epsilon ** (delta_i[i - 1] / delta_lambda[i - 1]))
        if not (eps_factor > 0.0 and isfinite(eps_factor)):
            raise ValueError(f"s0 {spec.s0} and epsilon {spec.epsilon} give grade {i} the "
                             f"factor epsilon^(delta_i / delta_lambda_i) = {eps_factor}")
        half_expo = float(0.5 * (-1.0 / delta_lambda[i - 1]))
        plan.append((i, subsets, idx[:, :, None] * d + idx[:, None, :], eps_factor, half_expo))
    return plan


def _stack_phis(bases, spec: HeightSpec):
    """Yield (grade, subsets, phis) over the proper nonempty basis subsets
    of each reduced basis of a (B, d, d) stack: phis lists the B members'
    values in turn, each in subset order.

    Powers are scalar C ``pow``: numpy's vectorized power can differ in the
    last bit from the scalar power the height has always used.
    """
    gram = (bases.transpose(0, 2, 1) @ bases).reshape(len(bases), -1)
    for i, subsets, minors, eps_factor, half_expo in _height_plan(spec, bases.shape[1]):
        # max(): roundoff guard near degeneracy
        dets = [max(g, 1e-300) for g in np.linalg.det(gram[:, minors]).ravel().tolist()]
        try:
            phis = [eps_factor * g**half_expo for g in dets]
        except OverflowError:  # numpy's scalar power gives inf past the float range
            phis = [float(eps_factor * np.float64(g) ** half_expo) for g in dets]
        yield i, subsets, phis


def _heights(bases, spec: HeightSpec) -> list:
    """:func:`margulis_height` of each reduced basis of a (B, d, d) stack."""
    best = [0.0] * len(bases)
    for _, subsets, phis in _stack_phis(bases, spec):
        k = len(subsets)
        # a running max from 0.0 in subset order, as max() keeps the first of
        # equal values and never takes a NaN after a number
        best = list(map(max, best, *(phis[s::k] for s in range(k))))
    return [b**spec.delta for b in best]


def margulis_height(x: UnimodularLattice, spec: HeightSpec) -> float:
    """Cusp height: the max over basis-subset wedges of the scaled norms.

    The supremum over all integral monomials is approximated by the wedges
    of the 2^d - 2 proper nonempty subsets of the reduced basis; this is
    within the LLL approximation factor of the true value, which is enough
    for the contraction and properness experiments.  Finite for SL_d since
    no nonzero monomial in an intermediate grade is fixed by the group.
    The one-member case of :func:`_heights`.
    """
    return _heights(x.reduced[None], spec)[0]


def margulis_height_profile(x: UnimodularLattice, spec: HeightSpec):
    """Per-subset contributions to the height: rows (subset, grade, phi)."""
    labels, grades, values = [], [], []
    for i, subsets, phis in _stack_phis(x.reduced[None], spec):
        labels += ["+".join(str(s) for s in subset) for subset in subsets]
        grades += [i] * len(subsets)
        values += phis
    return np.array(labels), np.array(grades), np.array(values)


# ---------------------------------------------------------------------------
# observables and walks


def _each(fn):
    """The list observable that reads ``fn`` of each lattice in turn."""
    return lambda xs: [fn(x) for x in xs]


def parse_observable(spec: str, height: HeightSpec | None = None):
    """Observable from a compact string: ``height``, ``mahler:EPS``,
    ``siegel:R``, ``shortest:sup`` or ``shortest:euclid``.

    Returns (spec, fn), fn mapping a list of lattices to their values:
    ``height`` is one :func:`_heights` of their stacked bases, ``mahler``
    and ``shortest`` one :func:`_systole_stack` on their bases and cached
    R-factors, and ``siegel`` counts lattice by lattice on each one's R.
    """
    name, sep, arg = spec.partition(":")
    if name == "height":
        if sep:
            raise ValueError(f"observable {spec!r}: height takes no argument")
        if height is None:
            raise ValueError("height observable requires a HeightSpec")
        return spec, lambda xs: _heights(np.array([x.reduced for x in xs]), height)
    if name in ("mahler", "siegel"):
        value = float(arg)
        if np.isnan(value):
            raise ValueError(f"observable {spec!r}: argument is NaN")
        if name == "mahler":
            return spec, lambda xs: _mahler(xs, value)
        if value == inf:  # the count would only hit its cap
            raise ValueError(f"observable {spec!r}: radius must be finite")
        return spec, _each(lambda x: float(siegel_count(x, value)))
    if name == "shortest":
        norm = arg or "sup"
        return spec, lambda xs: _systoles(xs, norm)[0]
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


def _walk(x: UnimodularLattice, mats):
    """The lattices g_1 x, g_2 g_1 x, .. for the matrices ``mats`` in order.

    This is the one walk loop: each step is :func:`lll_reduce` of g times
    the reduced basis, without renormalization (the factors are
    unimodular), and a reduction failure names its step.
    """
    for step, g in enumerate(mats, 1):
        try:
            x = lll_reduce(g @ x.reduced, renormalize=False)
        except ConditioningError as err:
            raise ConditioningError(f"reduction failed at step {step}: {err}") from err
        yield x


def _walk_stack(x: np.ndarray, atoms: np.ndarray, idx: np.ndarray, lengths=None):
    """Lockstep :func:`_walk` of the members of a (B, d, d) stack of reduced
    bases, advanced in place: member b steps through the matrices
    ``atoms[idx[b]]``, or their first ``lengths[b]`` with ``lengths``.

    Yields each step number once the stack has taken it; a member that has
    stopped or failed keeps its last basis.  After the last step it raises
    the error that the scalar walks of the members, in order, raise first.
    """
    errors = {}
    live = np.arange(len(x))
    for step in range(1, idx.shape[1] + 1):
        if lengths is not None:
            live = live[lengths[live] >= step]
        if live.size:
            y, errs = _lll_stack(np.matmul(atoms[idx[live, step - 1]], x[live]))
            ok = np.ones(live.size, dtype=bool)
            for i, err in errs.items():
                if isinstance(err, ConditioningError):  # named as _walk names it
                    err = ConditioningError(f"reduction failed at step {step}: {err}")
                    err.__cause__ = errs[i]
                errors[int(live[i])] = err
                ok[i] = False
            x[live[ok]] = y[ok]
            live = live[ok]
        yield step
    _raise_first(errors)


def _observe(obs, xs) -> list:
    """The values of each observable of ``obs`` on the lattices ``xs``.  On a
    failure, raises the one that reading them lattice by lattice, each in
    the order of ``obs``, meets first."""
    try:
        return [fn(xs) for _, fn in obs]
    except Exception:
        for x in xs:
            for _, fn in obs:
                fn([x])
        raise


def _check_atoms(mu: GroupMeasure) -> None:
    """Refuse a measure with an atom outside SL_d^+-: its walk would leave
    the space of unimodular lattices."""
    dets = np.linalg.det(mu.matrices)
    bad = np.flatnonzero(~(np.abs(np.abs(dets) - 1.0) < DET_TOL))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"atom {k} {mu.matrices[k].tolist()} has determinant "
                         f"{float(dets[k])!r}, not within {DET_TOL} of +-1")


def _check_start(mu: GroupMeasure, x0: UnimodularLattice) -> None:
    _check_atoms(mu)
    if x0.dim != mu.dim:
        raise ValueError(
            f"the start x0 is {x0.dim}x{x0.dim}, but the measure acts in dimension {mu.dim}"
        )


def walk_simulate(
    mu: GroupMeasure,
    x0: UnimodularLattice,
    n_steps: int,
    observables,
    seed: int = 0,
) -> TrajectoryRecord:
    """Left random walk x <- g x with reduction at every step.

    ``observables`` is a sequence of (label, callable) pairs or compact
    strings understood by :func:`parse_observable`, each label once; a
    callable maps a list of lattices to their values.  The reduction is
    the scalar loop :func:`_walk`, since each step depends on the last.
    The observables are read over chunks of at most ``WALK_CHUNK`` steps:
    the reduced bases of a chunk fill one (n, d, d) buffer, and its
    lattices take their R from one :func:`_rfactor_stack` (a member
    without one computes it again, as a stack of one, when an observable
    reads it, and fails as it would alone).  The observables of x0 are read
    before the first reduction, so a bad argument fails at once.  A chunk
    raises the error the step-by-step loop meets first: an observable's at
    the lowest step, in the order of ``observables``, then the reduction
    failure that ended the chunk.  Identical (seed, config) reproduce the
    trajectory bit for bit.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    _check_start(mu, x0)
    obs = [parse_observable(ob) if isinstance(ob, str) else ob for ob in observables]
    labels = [label for label, _ in obs]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:  # the values are keyed by label: a repeat would be read twice, written once
        raise ValueError(f"the observables repeat {repeated}; each must appear once")
    values = {label: np.empty(n_steps + 1) for label in labels}
    for label, fn in obs:
        values[label][0] = fn([x0])[0]
    idx = sample_indices(mu, n_steps, seed=seed)
    walk = _walk(x0, (mu.matrices[i] for i in idx))
    buf = np.empty((min(n_steps, WALK_CHUNK), mu.dim, mu.dim))
    step = 1
    while step <= n_steps:
        n, failure = 0, None
        try:
            for x in islice(walk, len(buf)):
                buf[n] = x.reduced
                n += 1
        except Exception as err:  # raised after the observables of the steps before it
            failure = err
        if n:
            bases = buf[:n]
            rs = _rfactor_stack(bases)[0]  # a lattice without R raises its error when read
            xs = [UnimodularLattice(b, _rfactor=r) for b, r in zip(bases, rs)]
            for (label, _), vals in zip(obs, _observe(obs, xs)):
                values[label][step:step + n] = vals
        if failure is not None:
            raise failure
        step += n
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


def _cusp_ladder_points(mu, d, count, seed) -> np.ndarray:
    """Sample cloud mixing three families, round robin by index, as a
    (count, d, d) stack of reduced bases.

    (0) randomly rotated diagonal cusp excursions of random depth (up to
    12 decades), probing properness in arbitrary directions; (1) walk
    bursts of up to 24 steps of the measure itself started at Z^d, probing
    its own trajectory (this is where a degenerate measure reveals its
    divergent direction); (2) cusp points followed by a burst of up to 8.
    The bursts run as one lockstep walk (:func:`_walk_stack`).
    """
    starts, bursts = [], []
    failure = None
    for i in range(count):
        rng = substream(seed, 11, i)
        family = i % 3
        if family == 1:
            x = standard_lattice(d)
            burst = int(rng.integers(0, 25))
        else:
            t = rng.uniform(0.0, 12.0 * np.log(10.0))
            direction = weyl_interior_vector(d)
            direction = direction / np.abs(direction).max()
            a = np.diag(np.exp(t * direction))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            basis = q @ a
            try:
                x = lll_reduce(basis / abs(np.linalg.det(basis)) ** (1.0 / d))
            except (ValueError, LatticeError) as err:
                failure = err  # raised after the bursts of the points before it
                break
            burst = 0 if family == 0 else int(rng.integers(0, 9))
        starts.append(x.reduced)
        bursts.append(rng.choice(mu.natoms, size=burst, p=mu.weights))
    points = np.array(starts).reshape(len(starts), d, d)
    lengths = np.array([len(b) for b in bursts], dtype=int)
    idx = np.zeros((len(bursts), lengths.max(initial=0)), dtype=int)
    for row, burst in zip(idx, bursts):
        row[: len(burst)] = burst
    for _ in _walk_stack(points, mu.matrices, idx, lengths):
        pass
    if failure is not None:
        raise failure
    return points


def _averaged_heights(mu, conv, points, height, m, mc_trials, seed):
    """The m-step averaged height of each point of a stack, with its
    standard error: exact over the atoms of ``conv``, else the mean of
    ``mc_trials`` walks drawn from ``substream(seed, 13, i)`` for point i.
    Every point x atom product, or every walk, is a member of a lockstep
    stack, taken about ``STACK`` members (whole points) at a time."""
    n, d, _ = points.shape
    averaged, stderr = np.zeros(n), np.zeros(n)
    members = len(conv.matrices) if conv is not None else mc_trials
    per = max(1, STACK // members)  # points per stack
    for lo in range(0, n, per):
        chunk = points[lo : lo + per]
        if conv is not None:
            y, errors = _lll_stack(np.matmul(conv.matrices[None], chunk[:, None]).reshape(-1, d, d))
            _raise_first(errors)
            vals = conv.weights * np.reshape(_heights(y, height), (-1, members))
            averaged[lo : lo + per] = [np.sum(row) for row in vals]
        else:
            # one draw of mc_trials x m indices is the mc_trials draws of m in turn
            idx = np.concatenate([substream(seed, 13, i).choice(mu.natoms, size=(mc_trials, m),
                                                                p=mu.weights)
                                  for i in range(lo, lo + len(chunk))])
            y = np.repeat(chunk, mc_trials, axis=0)
            for _ in _walk_stack(y, mu.matrices, idx):
                pass
            samples = np.reshape(_heights(y, height), (-1, mc_trials))
            averaged[lo : lo + per] = [row.mean() for row in samples]
            stderr[lo : lo + per] = [row.std(ddof=1) / np.sqrt(mc_trials) for row in samples]
    return averaged, stderr


def contraction_fit(
    mu: GroupMeasure,
    height: HeightSpec,
    m: int,
    sample_points: int = 200,
    mc_trials: int = 200,
    seed: int = 0,
) -> ContractionFit:
    """Fit contraction constants for the m-step averaged height.

    ``sample_points`` points are spread along a cusp ladder (randomly
    rotated diagonal excursions) followed by short walk bursts
    (:func:`_cusp_ladder_points`), so the fit probes genuinely high heights
    whatever the measure does.  The averaged height is computed exactly
    when the m-fold convolution has at most 4096 atoms, else by Monte Carlo
    over ``mc_trials`` walks (at least two, for a standard error) with the
    reported standard errors.
    """
    if m < 1:
        raise ValueError("averaging length m must be at least 1")
    if sample_points < 1:
        raise ValueError(f"sample_points must be at least 1, got {sample_points}")
    _check_atoms(mu)
    try:
        conv = convolution_support(mu, m, cap=4096)
    except ConvolutionCapError:
        conv = None
    if conv is None and mc_trials < 2:
        raise ValueError(
            f"mc_trials must be at least 2 for the Monte-Carlo averaged height (m={m}), "
            f"got {mc_trials}: a standard error needs two draws"
        )
    points = _cusp_ladder_points(mu, mu.dim, sample_points, seed)
    beta = np.array(_heights(points, height))
    averaged, stderr = _averaged_heights(mu, conv, points, height, m, mc_trials, seed)

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
    sample_points: int = 200,
) -> RecurrenceTable:
    """Estimate how much of the walk sits inside the recurrence set.

    The set is the sublevel set {beta <= (2 b + 2) / (delta (1 - a))} of
    the height, with (a, b) from a verified contraction fit; a failed fit
    is refused.  For each requested n the mass mu^{*n} * delta_{x0} of the
    set is estimated over ``mc_trials`` independent walks (trial words are
    shared along the grid: each trial is one long walk read at the grid
    times, which has the correct per-n marginal).  Without a given ``fit``
    one is made by :func:`contraction_fit` from ``m``, ``sample_points``,
    ``mc_trials`` and ``seed``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if mc_trials < 1:
        raise ValueError(f"mc_trials must be at least 1, got {mc_trials}")
    _check_start(mu, x0)
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 1:
        raise ValueError("the n-grid must contain positive integers")
    repeated = sorted({n for a, n in zip(n_grid, n_grid[1:]) if a == n})
    if repeated:
        raise ValueError(f"the n-grid repeats {repeated}; each n must appear once")
    if fit is None:
        fit = contraction_fit(mu, height, m, sample_points, mc_trials, seed)
    if not fit.ok:
        raise ContractionUnverified(
            f"contraction fit failed (a_hat={fit.a_hat!r}, "
            f"violations={fit.violation_count}); cannot build a recurrence set"
        )
    level = (2.0 * fit.b_hat + 2.0) / (delta * (1.0 - fit.a_hat))
    hits = dict.fromkeys(n_grid, 0)
    for lo in range(0, mc_trials, STACK):
        trials = range(lo, min(lo + STACK, mc_trials))
        idx = np.array([sample_indices(mu, n_grid[-1], seed=seed, path=(17, t)) for t in trials])
        x = np.repeat(np.asarray(x0.reduced, dtype=float)[None], len(trials), axis=0)
        for step in _walk_stack(x, mu.matrices, idx):
            if step in hits:
                hits[step] += sum(h <= level for h in _heights(x, height))
    entries = [(n, hits[n] / mc_trials) for n in n_grid]
    return RecurrenceTable(level=level, delta=delta, fit=fit, entries=entries)
