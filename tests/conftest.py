"""Shared helpers: seeded random rational series/polynomials."""

import random
from fractions import Fraction

import pytest

from zerodyn import Poly, PowerSeries
from zerodyn.scalars import mpf_to_fraction, to_mp


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
