"""Dense linear algebra for small matrix groups.

Exterior powers of the standard representation, weight-space splittings
under diagonal (Cartan) elements, and spectral norms.  Everything is plain
numpy at dimension d <= 6.  Wedge coordinates are indexed by the
lexicographically sorted k-element subsets of {0, .., d-1}
(``itertools.combinations`` order); this ordering is part of the contract
of every function below.  Norms are Euclidean/spectral throughout.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

# Module-wide default tolerances.  Functions take overrides where it matters.
ABS_TOL = 1e-12


def as_square(g) -> np.ndarray:
    """Coerce to a float square matrix with finite entries."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("matrix entries must be finite")
    return g


def cartan_vector(logs, tol: float = ABS_TOL) -> np.ndarray:
    """Validate a trace-zero vector of diagonal logarithms."""
    a = np.asarray(logs, dtype=float).ravel()
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    if abs(a.sum()) >= tol * max(1.0, float(np.abs(a).max(initial=0.0))):
        raise ValueError(f"vector is not trace-zero: sum = {a.sum()!r}")
    return a


def weyl_interior_vector(d: int) -> np.ndarray:
    """The strictly decreasing trace-zero vector ((d-1)/2, (d-3)/2, .., -(d-1)/2)."""
    return (d - 1) / 2.0 - np.arange(d, dtype=float)


def k_subsets(d: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically sorted k-subsets of range(d): the wedge basis order."""
    return list(combinations(range(d), k))


def wedge_power(g, k: int) -> np.ndarray:
    """Matrix of g acting on the k-th exterior power of R^d.

    Entry (I, J) is the k x k minor of g with rows I and columns J, so the
    result is a C(d,k) square matrix in the subset basis.  Functorial:
    wedge_power(g @ h, k) = wedge_power(g, k) @ wedge_power(h, k).
    """
    g = as_square(g)
    d = g.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"grade k={k} out of range 1..{d}")
    if k == 1:
        return g.copy()
    subsets = k_subsets(d, k)
    out = np.empty((len(subsets), len(subsets)))
    for j, cols in enumerate(subsets):
        gc = g[:, cols]
        for i, rows in enumerate(subsets):
            out[i, j] = np.linalg.det(gc[rows, :])
    return out


def _insertion_sign(rest: tuple[int, ...], i: int, pos: int) -> int:
    # Sign of sorting (rest[:pos], i, rest[pos:]) where rest is sorted and
    # i not in rest: i moves from slot pos to its sorted slot.
    target = sum(1 for r in rest if r < i)
    return -1 if (pos - target) % 2 else 1


def wedge_derivation(x, k: int) -> np.ndarray:
    """Matrix of the induced Lie-algebra action on the k-th exterior power.

    X acts as a derivation: X.(v1 ^ .. ^ vk) = sum_i v1 ^ .. ^ X vi ^ .. ^ vk.
    This is the exact derivative at t = 0 of wedge_power(exp(tX), k).
    """
    x = as_square(x)
    d = x.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"grade k={k} out of range 1..{d}")
    if k == 1:
        return x.copy()
    subsets = k_subsets(d, k)
    index = {s: i for i, s in enumerate(subsets)}
    out = np.zeros((len(subsets), len(subsets)))
    for j, s in enumerate(subsets):
        for pos, a in enumerate(s):
            rest = s[:pos] + s[pos + 1:]
            rest_set = set(rest)
            for i in range(d):
                c = x[i, a]
                if c == 0.0:
                    continue
                if i == a:
                    out[j, j] += c
                elif i not in rest_set:
                    target = tuple(sorted(rest + (i,)))
                    out[index[target], j] += c * _insertion_sign(rest, i, pos)
    return out


def weight_decomposition(logs, k: int, tol: float = 1e-9):
    """Split the grade-k wedge basis by the eigenvalue of exp(diag(logs)).

    Weights are reported in log scale (the eigenvalue on e_S is
    exp(sum of logs over S)).  Returns a list of (weight, subsets) pairs
    sorted by descending weight; ``subsets`` lists the wedge basis elements
    in that eigenspace.  Weights closer than ``tol`` are merged.
    """
    a = cartan_vector(logs)
    d = len(a)
    if not 1 <= k <= d:
        raise ValueError(f"grade k={k} out of range 1..{d}")
    pairs = sorted(
        ((float(sum(a[i] for i in s)), s) for s in k_subsets(d, k)),
        key=lambda p: (-p[0], p[1]),
    )
    groups: list[tuple[float, list[tuple[int, ...]]]] = []
    for w, s in pairs:
        if groups and abs(groups[-1][0] - w) <= tol:
            groups[-1][1].append(s)
        else:
            groups.append((w, [s]))
    return [(w, members) for w, members in groups]


def operator_norms(g) -> tuple[float, float, float]:
    """Spectral norms (|g|, |g^-1|, N(g)) with N(g) = max of the two."""
    g = as_square(g)
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= ABS_TOL:
        raise np.linalg.LinAlgError(
            "matrix is numerically singular; inverse norm undefined"
        )
    return float(s[0]), float(1.0 / s[-1]), float(max(s[0], 1.0 / s[-1]))


def sl_basis(d: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the trace-zero d x d matrices.

    Off-diagonal matrix units first (row-major order), then d-1
    orthonormalized traceless diagonal matrices.  Coordinates in this basis
    carry the Frobenius norm, which is invariant under conjugation by
    orthogonal matrices.
    """
    basis = []
    for i in range(d):
        for j in range(d):
            if i != j:
                e = np.zeros((d, d))
                e[i, j] = 1.0
                basis.append(e)
    for k in range(1, d):
        v = np.zeros(d)
        v[:k] = 1.0
        v[k] = -float(k)
        basis.append(np.diag(v / np.linalg.norm(v)))
    return np.array(basis)


def adjoint_rep(g) -> np.ndarray:
    """Matrix of X -> g X g^-1 on sl_d in the ``sl_basis`` coordinates."""
    g = as_square(g)
    d = g.shape[0]
    basis = sl_basis(d)
    gi = np.linalg.inv(g)
    images = np.einsum("ij,ajk,kl->ail", g, basis, gi)
    return np.einsum("aij,bij->ab", basis, images)
