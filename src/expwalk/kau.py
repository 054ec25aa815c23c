"""Parabolic K'A'U factorization for the (m, n) block parabolic of SL_d.

An element of the parabolic P factors uniquely as g = k * a(t) * u_M, where

* a(t) = diag(e^{t r_1}, .., e^{t r_m}, e^{-t s_1}, .., e^{-t s_n}) is the
  diagonal flow of a weight pair (r, s),
* k is orthogonal and block diagonal along groups of coordinates sharing a
  diagonal weight (so k commutes with a(t)), and
* u_M = [[I, -M], [0, I]] is the upper block unipotent with parameter M,
  an m x n matrix.  The minus sign matches the Diophantine convention used
  throughout the package.

The split k a(t) of the diagonal blocks, :func:`_coset_split`, is also the
sponge check of :mod:`expwalk.fractal`.

The scalar lambda(g) = t is additive along words.  Prefix products of a
word admit factor sequences (k_n, t_n, M_n); when the average of lambda
over the driving measure is positive the unipotent parameters M_n converge
and the limit is computed incrementally by :func:`u_limit`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .linalg import NumericalError, as_square

WEIGHT_TOL = 1e-12
KAU_TOL = 1e-7  # how far an element may sit from the parabolic K'A'U


class FactorizationError(ValueError):
    """Element is not in the parabolic P = K'A'U within tolerance."""


class UnipotentLimitError(NumericalError):
    """Unipotent parameters failed to settle; carries the partial value."""

    def __init__(self, message, partial, n_used):
        super().__init__(message)
        self.partial = partial
        self.n_used = n_used


@dataclass(frozen=True)
class WeightPair:
    """Weights (r, s) with positive entries in (0, 1] summing to 1 each."""

    r: tuple[float, ...]
    s: tuple[float, ...]

    def __post_init__(self):
        r = tuple(float(v) for v in self.r)
        s = tuple(float(v) for v in self.s)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        for name, w in (("r", r), ("s", s)):
            if len(w) == 0:
                raise ValueError(f"weight vector {name} is empty")
            if any(not (0.0 < v <= 1.0) for v in w):
                raise ValueError(f"weight vector {name} must have entries in (0, 1]")
            if abs(sum(w) - 1.0) >= WEIGHT_TOL:
                raise ValueError(f"weight vector {name} must sum to 1, got {sum(w)!r}")

    @classmethod
    def uniform(cls, m: int, n: int) -> "WeightPair":
        return cls((1.0 / m,) * m, (1.0 / n,) * n)

    @property
    def m(self) -> int:
        return len(self.r)

    @property
    def n(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class ParabolicProfile:
    """Block sizes (m, n) with the weight pair driving the diagonal flow."""

    m: int
    n: int
    weights: WeightPair = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("block sizes must be positive")
        w = self.weights if self.weights is not None else WeightPair.uniform(self.m, self.n)
        if w.m != self.m or w.n != self.n:
            raise ValueError(
                f"weights have shape ({w.m}, {w.n}), profile is ({self.m}, {self.n})"
            )
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.m + self.n

    def diag_exponents(self) -> np.ndarray:
        """Length-d vector w with a(t) = diag(exp(t*w)); top r, bottom -s."""
        return np.concatenate([np.asarray(self.weights.r), -np.asarray(self.weights.s)])

    def weight_groups(self) -> list[tuple[float, tuple[int, ...]]]:
        """Coordinate groups of equal diagonal exponent (within 1e-12).

        Groups never straddle the m/n split since r > 0 > -s.  K' consists
        of the orthogonal matrices that are block diagonal along these
        groups.
        """
        w = self.diag_exponents()
        groups: list[tuple[float, list[int]]] = []
        for i, v in enumerate(w):
            for gv, idx in groups:
                if abs(gv - v) <= WEIGHT_TOL:
                    idx.append(i)
                    break
            else:
                groups.append((float(v), [i]))
        return [(gv, tuple(idx)) for gv, idx in groups]


def flow_element(weights: WeightPair, t: float) -> np.ndarray:
    """The diagonal flow a(t) for the weight pair."""
    w = np.concatenate([np.asarray(weights.r), -np.asarray(weights.s)])
    return np.diag(np.exp(t * w))


def unipotent(m_param) -> np.ndarray:
    """u_M = [[I, -M], [0, I]] for an m x n parameter matrix M."""
    m_param = np.atleast_2d(np.asarray(m_param, dtype=float))
    m, n = m_param.shape
    out = np.eye(m + n)
    out[:m, m:] = -m_param
    return out


@dataclass
class KAUFactors:
    """Factors of g = k a(t) u_M for an (m, n) parabolic profile."""

    k: np.ndarray
    t: float
    u: np.ndarray  # the m x n unipotent parameter M
    profile: ParabolicProfile = field(repr=False)

    def a(self) -> np.ndarray:
        return flow_element(self.profile.weights, self.t)

    def reconstruct(self) -> np.ndarray:
        return self.k @ self.a() @ unipotent(self.u)


def _coset_split(g, profile: ParabolicProfile, tol: float):
    """(k, t) with k a(t) the diagonal blocks of ``g``, within ``tol``.

    ``g`` must be block upper-triangular for (m, n) with no coupling of
    distinct weight groups (:meth:`ParabolicProfile.weight_groups`), both
    relative to its largest entry.  Each group's block is a scalar c, the
    geometric mean of its singular values, times an orthogonal matrix, and
    reads t = log c / w; the groups' t must agree.  Raises
    :class:`FactorizationError` naming the first condition that fails.
    """
    m, d = profile.m, profile.d
    scale = max(1.0, float(np.abs(g).max()))
    if np.abs(g[m:, :m]).max(initial=0.0) > tol * scale:
        raise FactorizationError("element is not block upper-triangular for (m, n)")

    groups = profile.weight_groups()
    allowed = np.zeros((d, d), dtype=bool)
    for _, idx in groups:
        allowed[np.ix_(idx, idx)] = True
    diag_part = np.zeros((d, d))
    diag_part[:m, :m] = g[:m, :m]
    diag_part[m:, m:] = g[m:, m:]
    if np.abs(np.where(allowed, 0.0, diag_part)).max(initial=0.0) > tol * scale:
        raise FactorizationError(
            "diagonal blocks couple coordinates of distinct weights; not in K'A'"
        )

    k = np.zeros((d, d))
    t_estimates = []
    t_weights = []
    for gv, idx in groups:
        block = g[np.ix_(idx, idx)]
        svals = np.linalg.svd(block, compute_uv=False)
        if svals[-1] <= 1e-14 * max(1.0, svals[0]):
            raise FactorizationError(f"diagonal block {idx} is singular")
        c = float(np.exp(np.mean(np.log(svals))))
        q = block / c
        if np.abs(q.T @ q - np.eye(len(idx))).max() > tol:
            raise FactorizationError(
                f"diagonal block {idx}: unequal moduli within an equal-weight block "
                "(not scalar times orthogonal)"
            )
        k[np.ix_(idx, idx)] = q
        t_estimates.append(np.log(c) / gv)
        t_weights.append(len(idx) * abs(gv))
    t = float(np.average(t_estimates, weights=t_weights))
    if max(abs(est - t) for est in t_estimates) > tol * max(1.0, abs(t)):
        raise FactorizationError(f"inconsistent t across weight groups: {t_estimates}")
    return k, t


def kau_factorize(g, profile: ParabolicProfile) -> KAUFactors:
    """Factorize a parabolic element into K'A'U components.

    Raises :class:`FactorizationError` when g is not block upper-triangular
    for (m, n) or its diagonal blocks do not lie on the K' exp(tA') cosets
    within ``KAU_TOL`` (:func:`_coset_split`), or when the residual
    a(t)^{-1} k^T g is not upper block unipotent within ``KAU_TOL``.
    """
    g = as_square(g)
    m, n, d = profile.m, profile.n, profile.d
    if g.shape[0] != d:
        raise FactorizationError(f"element has dimension {g.shape[0]}, profile needs {d}")
    k, t = _coset_split(g, profile, KAU_TOL)

    a_inv = flow_element(profile.weights, -t)
    u = a_inv @ k.T @ g
    if (
        np.abs(u[:m, :m] - np.eye(m)).max() > KAU_TOL
        or np.abs(u[m:, m:] - np.eye(n)).max() > KAU_TOL
        or np.abs(u[m:, :m]).max(initial=0.0) > KAU_TOL
    ):
        raise FactorizationError("residual unipotent part is not upper block unipotent")
    return KAUFactors(k=k, t=t, u=-u[:m, m:].copy(), profile=profile)


def word_factors(word, profile: ParabolicProfile) -> list[KAUFactors]:
    """Factors of every prefix product g_n .. g_1 of the word.

    ``word`` lists the increments in application order (g_1 first).  The t
    components are prefix sums of lambda over the word.
    """
    out = []
    prefix = np.eye(profile.d)
    for g in word:
        prefix = as_square(g) @ prefix
        out.append(kau_factorize(prefix, profile))
    return out


def u_limit(
    words,
    profile: ParabolicProfile,
    tol: float = 1e-12,
    n_max: int = 10_000,
):
    """Limit of the unipotent parameters of growing prefix products.

    ``words`` is an iterable (possibly an infinite generator) of parabolic
    elements.  The product formula for u_{w,n} is evaluated incrementally:
    the step-k tail term is P1^{-1} B_k P2 in the parameter picture, where
    blockdiag(P1, P2) is the product of the k a(t) parts of the first k-1
    elements and B_k is the unipotent parameter of element k.  Iteration
    stops once the tail norm stays below ``tol`` for ten consecutive steps
    (a single accidentally small term is not trusted).

    Returns (M_limit, n_used).  Raises :class:`UnipotentLimitError` with
    the partial value if the tail does not settle within ``n_max`` terms.
    """
    m, n = profile.m, profile.n
    p1 = np.eye(m)
    p2 = np.eye(n)
    total = np.zeros((m, n))
    quiet = 0
    n_used = 0
    for g in islice(words, n_max):
        f = kau_factorize(g, profile)
        n_used += 1
        tail = np.linalg.solve(p1, f.u) @ p2
        total += tail
        if np.abs(tail).max(initial=0.0) < tol:
            quiet += 1
            if quiet >= 10:
                return total, n_used
        else:
            quiet = 0
        ka = f.k @ flow_element(profile.weights, f.t)
        p1 = ka[:m, :m] @ p1
        p2 = ka[m:, m:] @ p2
    raise UnipotentLimitError(
        f"unipotent parameters did not settle within {n_used} terms "
        f"(tol={tol!r}); partial value attached",
        partial=total,
        n_used=n_used,
    )


def equivariance_residual(word, profile: ParabolicProfile) -> float:
    """Max residual of the shift identity over all prefixes of a finite word.

    For every n <= len(word) the identity
    a_{w,n} u_w = k_{w,n}^{-1} u_{tail(n)} g_{w,n}
    holds exactly, where u_w is the unipotent part of the full word and
    u_tail(n) that of the suffix starting at position n+1.  The returned
    value is the max-entry deviation, i.e. pure floating point error for
    words that genuinely lie in P.
    """
    word = [as_square(g) for g in word]
    if not word:
        return 0.0
    n_len = len(word)
    facs = word_factors(word, profile)
    u_full = unipotent(facs[-1].u)

    suffix = [np.eye(profile.d)]  # suffix[j] = g_N .. g_{N-j+1}
    for g in reversed(word):
        suffix.append(suffix[-1] @ g)
    # product of elements n+1..N is suffix[N-n]

    prefix = np.eye(profile.d)
    residual = 0.0
    for i, g in enumerate(word):
        prefix = g @ prefix
        f = facs[i]
        tail_prod = suffix[n_len - (i + 1)]
        if i + 1 == n_len:
            u_tail = np.eye(profile.d)
        else:
            u_tail = unipotent(kau_factorize(tail_prod, profile).u)
        lhs = f.a() @ u_full
        rhs = f.k.T @ u_tail @ prefix
        residual = max(residual, float(np.abs(lhs - rhs).max()))
    return residual
