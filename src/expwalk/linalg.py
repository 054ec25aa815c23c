"""Dense linear algebra for small matrix groups.

Exterior powers of the standard representation, the adjoint
representation of sl_d, and checks of diagonal (Cartan) log vectors.
Everything is plain numpy on small matrices: the standard representation
up to d = 6, and the adjoint of sl_4 (15 x 15) with its low wedge powers.
Wedge coordinates are indexed by the lexicographically sorted k-element
subsets of {0, .., d-1} (``itertools.combinations`` order); this ordering
is part of the contract of every function below.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

# Module-wide default tolerances.  Functions take overrides where it matters.
ABS_TOL = 1e-12


class NumericalError(RuntimeError):
    """Numerical trouble (conditioning, non-convergence, caps); the runner exits 3."""


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

    Each column J is one batched ``np.linalg.det`` over the minors of all
    row subsets, which factors every k x k minor exactly as a det call of
    its own would; memory stays C(d,k) k^2 floats.
    """
    g = as_square(g)
    d = g.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"grade k={k} out of range 1..{d}")
    if k == 1:
        return g.copy()
    subsets = k_subsets(d, k)
    rows_idx = np.array(subsets)
    out = np.empty((len(subsets), len(subsets)))
    for j, cols in enumerate(subsets):
        gc = g[:, cols]
        out[:, j] = np.linalg.det(gc[rows_idx])
    return out


@lru_cache(maxsize=None)
def sl_basis(d: int) -> np.ndarray:
    """Frobenius-orthonormal basis of the trace-zero d x d matrices.

    Off-diagonal matrix units first (row-major order), then d-1
    orthonormalized traceless diagonal matrices.  Coordinates in this basis
    carry the Frobenius norm, which is invariant under conjugation by
    orthogonal matrices.  Built once per d and shared, so the returned
    array is read-only.
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
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def adjoint_rep(g) -> np.ndarray:
    """Matrix of X -> g X g^-1 on sl_d in the ``sl_basis`` coordinates.

    The basis comes from the cache of :func:`sl_basis`, not rebuilt per call.
    """
    g = as_square(g)
    d = g.shape[0]
    basis = sl_basis(d)
    gi = np.linalg.inv(g)
    images = np.einsum("ij,ajk,kl->ail", g, basis, gi)
    return np.einsum("aij,bij->ab", basis, images)
