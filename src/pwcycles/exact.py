"""Exact arithmetic over the ring Q + Q*pi.

Every coefficient produced by the expansion reduction is of the form
p + q*pi with p, q rational (the half-period cosine moments are rational
for odd order and rational multiples of pi for even order).  Carrying the
two components separately with `fractions.Fraction` keeps the whole
reduction exact, so the structural identities of the expansion can be
asserted with `==` instead of a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PiNumber:
    """A number p + q*pi with exact rational components."""

    rat: Fraction = Fraction(0)
    pi: Fraction = Fraction(0)

    @staticmethod
    def of(rat: Scalar = 0, pi: Scalar = 0) -> "PiNumber":
        return PiNumber(as_fraction(rat), as_fraction(pi))

    @property
    def is_zero(self) -> bool:
        return self.rat == 0 and self.pi == 0

    def __bool__(self) -> bool:
        return bool(self.rat or self.pi)

    def __add__(self, other: "PiNumber | Scalar") -> "PiNumber":
        o = other if isinstance(other, PiNumber) else PiNumber.of(other)
        return PiNumber(self.rat + o.rat, self.pi + o.pi)

    __radd__ = __add__

    def __mul__(self, other: "PiNumber | Scalar") -> "PiNumber":
        if isinstance(other, PiNumber):
            if self.pi != 0 and other.pi != 0:
                raise ArithmeticError("product would leave the ring Q + Q*pi")
            return PiNumber(
                self.rat * other.rat,
                self.rat * other.pi + self.pi * other.rat,
            )
        f = as_fraction(other)
        return PiNumber(self.rat * f, self.pi * f)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float(self.rat) + float(self.pi) * math.pi
