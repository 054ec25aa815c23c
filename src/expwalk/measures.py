"""Finitely supported probability measures on matrix groups.

A measure is a list of invertible atom matrices with positive weights
summing to one; it carries no seed.  Every sampling call takes its seed,
one per call, and draws from the splittable streams in :mod:`expwalk.rng`,
so words are reproducible given (seed, path).

:func:`_word_products` is the one builder of N-letter word products, exact
(enumerated and merged) or Monte Carlo.  :func:`convolution_support`
wraps it, and the expansion certificate, the moment contraction estimate,
the averaged heights of the contraction fit and the IFS validation all
integrate over its output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .kau import ParabolicProfile, WeightPair
from .linalg import NumericalError
from .rng import substream

WEIGHT_SUM_TOL = 1e-12
MERGE_TOL = 1e-10


class ConvolutionCapError(NumericalError):
    """Exact convolution power would exceed the atom cap; use Monte Carlo."""


@dataclass
class GroupMeasure:
    """Atomic probability measure on invertible d x d matrices."""

    matrices: np.ndarray  # (k, d, d)
    weights: np.ndarray  # (k,)
    profile: ParabolicProfile | None = field(default=None)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a (k, d, d) atom array, got {mats.shape}")
        if wts.shape != (mats.shape[0],):
            raise ValueError("one weight per atom required")
        if not np.all(np.isfinite(mats)):
            raise ValueError("atom entries must be finite")
        if np.any(wts <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(wts.sum() - 1.0) >= WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {wts.sum()!r}")
        dets = np.linalg.det(mats)
        if np.any(np.abs(dets) <= 1e-12):
            raise ValueError("all atoms must be invertible")
        if self.profile is not None:
            m = self.profile.m
            if self.profile.d != mats.shape[1]:
                raise ValueError("profile dimension does not match atoms")
            low = np.abs(mats[:, m:, :m]).max(initial=0.0)
            if low > 1e-9 * max(1.0, float(np.abs(mats).max())):
                raise ValueError(
                    "profile asserted but an atom is not block upper-triangular"
                )
        mats.setflags(write=False)
        wts.setflags(write=False)
        self.matrices = mats
        self.weights = wts

    @classmethod
    def from_atoms(cls, atoms, profile=None) -> "GroupMeasure":
        """Build from an iterable of (matrix, weight) pairs."""
        atoms = list(atoms)
        mats = np.array([np.asarray(g, dtype=float) for g, _ in atoms])
        wts = np.array([float(w) for _, w in atoms])
        return cls(mats, wts, profile=profile)

    @classmethod
    def dirac(cls, g, profile=None) -> "GroupMeasure":
        return cls.from_atoms([(g, 1.0)], profile=profile)

    @classmethod
    def uniform(cls, mats, profile=None) -> "GroupMeasure":
        mats = list(mats)
        return cls.from_atoms([(g, 1.0 / len(mats)) for g in mats], profile=profile)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def natoms(self) -> int:
        return self.matrices.shape[0]


def sample_indices(mu: GroupMeasure, n: int, seed: int, path=()) -> np.ndarray:
    """n i.i.d. atom indices, deterministic given (seed, path)."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    return substream(seed, *path).choice(mu.natoms, size=n, p=mu.weights)


def sample_word(mu: GroupMeasure, n: int, seed: int, path=()) -> np.ndarray:
    """n i.i.d. atom draws as an (n, d, d) array."""
    return mu.matrices[sample_indices(mu, n, seed, path)]


def _index_stream(rng, weights):
    """Infinite generator of i.i.d. indices into ``weights``, drawn from
    ``rng`` in blocks of 256 (the block size does not change the draws)."""
    while True:
        yield from rng.choice(len(weights), size=256, p=weights)


def _merge_atoms(mats: np.ndarray, wts: np.ndarray, tol: float):
    # Grid quantization at resolution tol: atoms in the same cell merge
    # (they differ by at most tol per entry).  Near-duplicates straddling a
    # cell boundary stay separate, which is harmless: the measure is the
    # same, only its support list is longer.  The cell keys stay floats:
    # an int64 cast fails past 2**63 * tol (~9.2e8) and merged distinct
    # products there.  Adding 0.0 maps -0.0 to 0.0.  Atoms keep the order of
    # their first occurrence and bincount adds each cell's weights in input
    # order, as a loop over the atoms would.
    keys = np.round(mats.reshape(len(mats), -1) / tol) + 0.0
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    cell = np.empty_like(order)
    cell[order] = np.arange(len(order))
    return mats[first[order]], np.bincount(cell[inverse], weights=wts)


def _word_products(
    atoms: np.ndarray,
    weights: np.ndarray,
    n: int,
    mode: str = "exact",
    cap: int = 10**6,
    n_words: int = 4000,
    rng=None,
    merge_tol: float | None = MERGE_TOL,
):
    """The n-letter word products of weighted atoms: (products, weights, exact).

    This is the one place that builds the n-fold convolution of an atomic
    measure.  ``mode="exact"`` enumerates all atom_count**n products
    (raising :class:`ConvolutionCapError` above ``cap``), merging products
    that coincide within ``merge_tol`` after each step (no merging when
    ``merge_tol`` is None); ``"auto"`` does so
    while atom_count**n stays within ``cap``; ``"mc"`` (or ``"monte-carlo"``)
    samples ``n_words`` i.i.d. words from ``rng`` with equal weights.
    Letter i of a word multiplies on the left of letters 1..i-1.
    """
    if mode not in ("auto", "exact", "mc", "monte-carlo"):
        raise ValueError(f"unknown mode {mode!r}; expected 'auto', 'exact' or 'mc'")
    if cap < 1:  # no product fits: exact mode could only fail, and auto would sample
        raise ValueError(f"cap must be at least 1, got {cap}")
    k, d = atoms.shape[0], atoms.shape[1]
    exact = k**n <= cap if mode == "auto" else mode == "exact"
    if exact:
        if k**n > cap:
            raise ConvolutionCapError(f"{k}^{n} products exceed the cap {cap}; use Monte Carlo")
        mats = np.eye(d)[None, :, :]
        wts = np.array([1.0])
        for _ in range(n):
            mats = np.einsum("aij,bjk->abik", atoms, mats).reshape(-1, d, d)
            wts = (weights[:, None] * wts[None, :]).reshape(-1)
            if merge_tol is not None:
                mats, wts = _merge_atoms(mats, wts, merge_tol)
        return mats, wts / wts.sum(), True
    idx = rng.choice(k, size=(n_words, n), p=weights)
    mats = np.tile(np.eye(d), (n_words, 1, 1))
    for step in range(n):
        mats = atoms[idx[:, step]] @ mats
    return mats, np.full(n_words, 1.0 / n_words), False


def convolution_support(mu: GroupMeasure, n: int, cap: int = 10**6) -> GroupMeasure:
    """Exact n-fold convolution power as an atomic measure.

    Atoms are all length-n products with multiplied weights; products that
    coincide within ``MERGE_TOL`` (max-entry distance, grid semantics) are
    merged after each step, which keeps commuting families polynomial.  A
    product past the float range raises :class:`NumericalError`.
    """
    if n < 0:
        raise ValueError("convolution order must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        mats, wts, _ = _word_products(mu.matrices, mu.weights, n, cap=cap)
    if not np.isfinite(mats).all():
        raise NumericalError(f"the exact {n}-fold convolution overflows: "
                             "a word product has an entry past the float range")
    return GroupMeasure(mats, wts, profile=mu.profile)


def save_measure(mu: GroupMeasure, path: str) -> None:
    """Write the measure as JSON; entries are repr strings for exact reload."""
    doc = {
        "dim": mu.dim,
        "atoms": [
            {"matrix": [repr(float(v)) for v in g.ravel()], "weight": repr(float(w))}
            for g, w in zip(mu.matrices, mu.weights)
        ],
    }
    if mu.profile is not None:
        doc["profile"] = {
            "m": mu.profile.m,
            "n": mu.profile.n,
            "r": [repr(v) for v in mu.profile.weights.r],
            "s": [repr(v) for v in mu.profile.weights.s],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def measure_from_dict(doc: dict) -> GroupMeasure:
    """Build a measure from the JSON measure-file schema."""
    d = int(doc["dim"])
    mats = []
    wts = []
    for atom in doc["atoms"]:
        flat = [float(v) for v in atom["matrix"]]
        if len(flat) != d * d:
            raise ValueError(f"atom matrix must have {d * d} entries (row-major)")
        mats.append(np.array(flat).reshape(d, d))
        wts.append(float(atom["weight"]))
    profile = None
    if "profile" in doc and doc["profile"] is not None:
        p = doc["profile"]
        wp = WeightPair(
            tuple(float(v) for v in p["r"]), tuple(float(v) for v in p["s"])
        )
        profile = ParabolicProfile(int(p["m"]), int(p["n"]), wp)
    return GroupMeasure.from_atoms(zip(mats, wts), profile=profile)


def load_measure(path: str) -> GroupMeasure:
    with open(path, encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))
