"""Named example matrices used by the demos and tests."""

from __future__ import annotations

from fractions import Fraction

from .core import EXACT, StochMatrix


def two_state(a, b, mode=EXACT):
    """The general stochastic 2x2 matrix [[1-b, a], [b, 1-a]], 0 <= a, b <= 1."""
    a, b = Fraction(a), Fraction(b)
    return StochMatrix([[1 - b, a], [b, 1 - a]], mode=mode)


def maxwell_demon(mode=EXACT):
    """Conditional action of a Maxwell demon on the four states
    (right-hot, right-cold, left-hot, left-cold) of a single molecule:
    the door stays shut for rh and lc; a molecule found rc or lh changes
    sides with probability 1/2, keeping its kinetic energy."""
    h = Fraction(1, 2)
    return StochMatrix([[1, 0, h, 0], [0, h, 0, 0], [0, 0, h, 0], [0, h, 0, 1]], mode=mode)


# Noisy environmental dilation of the Maxwell-demon matrix, tabulated in
# 24ths.  Kept as an independent reference for tests and the demo.
_DEMON_DILATION_24THS = [
    [24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 12, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 12, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 12, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 12, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    [0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def maxwell_demon_dilation(mode=EXACT):
    """The 16x16 noisy environmental dilation of :func:`maxwell_demon`,
    tabulated independently of the dilation code."""
    return StochMatrix([[Fraction(v, 24) for v in row] for row in _DEMON_DILATION_24THS], mode=mode)
