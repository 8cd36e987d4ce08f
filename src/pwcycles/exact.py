"""Exact arithmetic of the expansion reduction: Fractions, pi set by parity.

The half-period cosine moment m(k) is rational for odd k and a rational
multiple of pi for even k, and the reduction puts m(k) on the monomial of
index 2j + k.  So it carries plain `fractions.Fraction`s: the kernel and
odd-index monomial coefficients are themselves, and an even-index monomial
coefficient q stands for q*pi (`pi_parity_float`).  The reduction stays
exact, so its structural identities are asserted with `==`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]


def as_fraction(x: Scalar) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r} exactly")
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def pi_parity_float(q: Fraction, k: int) -> float:
    """The double of the monomial coefficient q at index k (or of the
    moment q of order k): q*pi for even k, q for odd k, rounded as
    float(q) * math.pi and float(q)."""
    return float(q) * math.pi if k % 2 == 0 else float(q)
