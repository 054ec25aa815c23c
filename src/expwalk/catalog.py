"""Canonical example measures and IFSs used by the tests and scripts."""
from __future__ import annotations

import numpy as np

from .fractal import AffineIFS, MatrixAffinity, measure_from_ifs, sponge_builder
from .kau import WeightPair
from .measures import GroupMeasure

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def positive_pair_sl2() -> GroupMeasure:
    """Fair coin on the positive matrices [[2,1],[1,1]] and [[1,1],[1,2]]."""
    return GroupMeasure.uniform(
        [np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 2.0]])]
    )


def diagonal_geodesic_sl2(ratio: float = 3.0) -> GroupMeasure:
    """Deterministic diagonal flow diag(ratio, 1/ratio)."""
    return GroupMeasure.dirac(np.diag([ratio, 1.0 / ratio]))


def commuting_diagonal_sl3() -> GroupMeasure:
    """Fair coin on diag(4, 1/2, 1/2) and diag(1/4, 2, 2); top exponent 0 on e1."""
    return GroupMeasure.uniform([np.diag([4.0, 0.5, 0.5]), np.diag([0.25, 2.0, 2.0])])


def sl4_five_generator_measure() -> GroupMeasure:
    """Uniform measure on five upper-parabolic SL4 generators.

    One expanding diagonal plus two positive SL2 blocks and two elementary
    unipotents; supported on the (2, 1, 1) standard parabolic.
    """
    g1 = np.diag([2.0, 2.0, 1.0, 0.25])
    g2 = np.eye(4)
    g2[:2, :2] = [[2.0, 1.0], [1.0, 1.0]]
    g3 = np.eye(4)
    g3[:2, :2] = [[1.0, 1.0], [1.0, 2.0]]
    g4 = np.eye(4)
    g4[1, 2] = 1.0
    g5 = np.eye(4)
    g5[2, 3] = 1.0
    return GroupMeasure.uniform([g1, g2, g3, g4, g5])


def cantor_ifs() -> AffineIFS:
    """Middle-third Cantor IFS x -> x/3 and x -> x/3 + 2/3, fair weights."""
    t = -0.5 * np.log(3.0)
    a = np.array([[np.exp(t)]])
    return AffineIFS(
        (
            MatrixAffinity(a, a, np.array([[0.0]])),
            MatrixAffinity(a, a, np.array([[2.0 / 3.0]])),
        ),
        np.array([0.5, 0.5]),
        weightpair=WeightPair((1.0,), (1.0,)),
    )


def cantor_measure() -> GroupMeasure:
    """The embedded SL2 walk driven by the Cantor IFS."""
    return measure_from_ifs(cantor_ifs())


DEFAULT_CARPET_PATTERN = ((0, 0), (1, 1), (0, 2))


def bm_carpet(a: int = 2, b: int = 3, pattern=DEFAULT_CARPET_PATTERN) -> AffineIFS:
    """Grid carpet IFS on the (a, b) subdivision with the kept cells.

    The default pattern keeps cells off any single row or column, so the
    attractor is not contained in a line.
    """
    return sponge_builder((a, b), pattern)


def rotation_sponge_ifs(theta: float = 0.7, seed_shift: float = 0.0) -> AffineIFS:
    """A 2x1 sponge IFS with equal weights and a genuine rotation block.

    A1 = e^{t/2} R(theta) with equal weights r = (1/2, 1/2) and s = (1,):
    its embedded walk has nontrivial compact parts in the factorization.
    """
    t = -1.0
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    a1 = np.exp(t / 2.0) * rot
    a2 = np.array([[np.exp(t)]])
    b1 = np.array([[0.1 + seed_shift], [0.0]])
    b2 = np.array([[0.6], [0.4 - seed_shift]])
    return AffineIFS(
        (MatrixAffinity(a1, a2, b1), MatrixAffinity(a1, a2, b2)),
        np.array([0.5, 0.5]),
        weightpair=WeightPair((0.5, 0.5), (1.0,)),
    )
