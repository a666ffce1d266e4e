"""Scalar plumbing: exact rationals, mpmath conversions, integer roots.

Exact values are `fractions.Fraction` (ints are coerced on the way in);
floating values are mpmath mpf/mpc at an explicit binary precision.  All
conversions from exact to floating happen here so the rounding boundary
stays in one place.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

DEFAULT_PRECISION_BITS = 256
DEFAULT_REAL_TOL = 1e-9

EXACT_TYPES = (int, Fraction)


def as_fraction(x) -> Fraction:
    """Coerce an exact input to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r} ({type(x).__name__})")


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)


def to_mp(x, precision_bits: int):
    """Convert any supported scalar to mpf/mpc at the given precision.

    Exact values are rounded to nearest.
    """
    with mp.workprec(precision_bits):
        if isinstance(x, Fraction):
            return mp.make_mpf(mp.libmp.from_rational(
                x.numerator, x.denominator, precision_bits, mp.libmp.round_nearest
            ))
        if isinstance(x, int):
            return mp.mpf(x)
        if isinstance(x, (mp.mpf, float)):
            return mp.mpf(x)
        if isinstance(x, (mp.mpc, complex)):
            z = mp.mpc(x)
            return z.real if z.imag == 0 else z
        return mp.mpmathify(x)


def int_nth_root(n: int, p: int) -> int:
    """Floor of the p-th root of a nonnegative integer, exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if p == 1:
        return n
    x = 1 << (n.bit_length() // p + 1)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


def exact_nth_root(n: int, p: int):
    """Integer p-th root of n if n is a perfect p-th power, else None."""
    r = int_nth_root(n, p)
    return r if r**p == n else None


def fraction_str(x: Fraction) -> str:
    """Round-trippable text form: integer or 'num/den'."""
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())
