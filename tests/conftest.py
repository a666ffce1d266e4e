"""Shared helpers: seeded random rational series/polynomials, and the
conversions between exact values and mpmath, which the tests use as an
independent oracle (the package itself has no floating-point library)."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from zerodyn import Poly, PowerSeries
from zerodyn.scalars import Point


def make_rng(seed):
    return random.Random(seed)


def random_fraction(rng, num_bound=9, den_bound=6, nonzero=False):
    while True:
        f = Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
        if f != 0 or not nonzero:
            return f


def random_series(rng, order, nonzero_constant=True):
    coeffs = [random_fraction(rng) for _ in range(order + 1)]
    if nonzero_constant:
        coeffs[0] = random_fraction(rng, nonzero=True)
    return PowerSeries(coeffs)


def random_poly(rng, degree, monic=False):
    coeffs = [random_fraction(rng) for _ in range(degree + 1)]
    coeffs[-1] = Fraction(1) if monic else random_fraction(rng, nonzero=True)
    return Poly(coeffs)


def to_mp(x, precision_bits):
    """The exact scalar x (a Fraction, an int or a ``Point``) as an mpf, or
    an mpc for a ``Point`` off the real axis, each part rounded to nearest
    at ``precision_bits`` whatever the ambient mpmath precision; TypeError
    for any other value."""
    if isinstance(x, Point):
        re, im = (to_mp(v, precision_bits)._mpf_ for v in (x.real, x.imag))
        return mp.make_mpf(re) if im == mp.libmp.fzero else mp.make_mpc((re, im))
    if not isinstance(x, (Fraction, int)):
        raise TypeError(f"not an exact scalar: {x!r} ({type(x).__name__})")
    x = Fraction(x)
    return mp.make_mpf(
        mp.libmp.from_rational(x.numerator, x.denominator, precision_bits, mp.libmp.round_nearest)
    )


def mpf_to_fraction(x):
    """The dyadic rational m 2^e a finite mpf stands for, exactly; ValueError
    for an mpc or a nonfinite value."""
    if not isinstance(x, mp.mpf) or not mp.isfinite(x):
        raise ValueError(f"not a finite real floating scalar: {x!r}")
    sign, man, exp, _bc = x._mpf_
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def as_mpc(z):
    """The exact Point z as an mpc (an mpf when real): dyadic parts, as
    every certified root has, convert without rounding, others at 2048 bits."""
    bits = max(v.numerator.bit_length() for v in (z.real, z.imag))
    return to_mp(z, max(bits, 2048))


def dyadic(f, bits):
    """f with every coefficient rounded to nearest at ``bits`` bits, read
    back as the dyadic rational the rounded value stands for."""
    return Poly(mpf_to_fraction(to_mp(c, bits)) for c in f.coeffs)


@pytest.fixture
def rng():
    return make_rng(20240801)
