"""Exact arithmetic of the expansion reduction: Fractions, pi set by parity.

The half-period cosine moment m(k) is rational for odd k and a rational
multiple of pi for even k, and the reduction puts m(k) on the monomial of
index 2j + k.  So it carries plain `fractions.Fraction`s: the kernel and
odd-index monomial coefficients are themselves, and an even-index monomial
coefficient q stands for q*pi (`pi_parity_float`).  The reduction stays
exact, so its structural identities are asserted with `==`.  A matrix of
its coordinates, one power of pi each, has the rank over Q of its
Fractions (`rank`): the dimension of the span of functions if
{r^(2i) A[0,0], r^(2i) B[0,0], r^k} are independent functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

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


def rank(rows: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Rank over Q of equally long rows of Fractions or ints: Gaussian
    elimination on the rows scaled to integers, each reduced row divided
    by the gcd of its entries."""
    dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
    work = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(rows, dens)]
    done = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(done, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[done], work[pivot] = work[pivot], work[done]
        top = work[done]
        for i in range(done + 1, len(work)):
            if x := work[i][col]:
                row = [top[col] * u - x * v for u, v in zip(work[i], top)]
                g = math.gcd(*row)
                work[i] = [u // g for u in row] if g > 1 else row
        done += 1
    return done
