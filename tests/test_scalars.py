"""The tests' exact-to-mpmath oracle (``conftest.to_mp``), and the one
rounding of an irrational root."""

import math
import struct
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import make_rng, mpf_to_fraction, to_mp
from zerodyn.scalars import dyadic_round, root_rounded


def _nearest(x, prec):
    """x rounded to the nearest prec-bit binary float, as a Fraction."""
    mag = abs(x)
    e = mag.numerator.bit_length() - mag.denominator.bit_length() - prec
    while mag / F(2) ** e >= 2**prec:
        e += 1
    while mag / F(2) ** e < 2 ** (prec - 1):
        e -= 1
    q = round(mag / F(2) ** e) * F(2) ** e
    return q if x > 0 else -q


def _as_fraction(v):
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


class TestToMp:
    def test_thirds_round_to_nearest(self):
        for prec in (53, 256):
            with mp.workprec(prec):
                third = mp.mpf(1) / 3
                assert to_mp(F(1, 3), prec) == third
                assert to_mp(F(-1, 3), prec) == -third

    def test_matches_correct_rounding(self):
        wide = F(3**300 + 1, 7)  # numerator far wider than prec
        for x in (F(1, 3), F(-1, 3), F(2, 3), wide, -wide, F(5, 2**400 * 11)):
            for prec in (53, 128, 256):
                assert _as_fraction(to_mp(x, prec)) == _nearest(x, prec)


def _positive_rational(rng, max_bits):
    num, den = (rng.getrandbits(rng.randint(1, max_bits)) + 1 for _ in range(2))
    return F(num, den)


def _is_dyadic_with(x, bits):
    """x is a dyadic rational with at most ``bits`` significant bits."""
    n, d = abs(x.numerator), x.denominator
    return d & (d - 1) == 0 and (n >> ((n & -n).bit_length() - 1)).bit_length() <= bits


class TestRootRounded:
    @pytest.mark.parametrize(
        "x, p, want",
        [(F(4, 9), 2, F(2, 3)), (F(8), 3, F(2)), (F(27, 64), 3, F(3, 4)),
         (F(1, 16), 4, F(1, 2)), (F(3**20, 7**5), 5, F(81, 7)), (F(0), 2, F(0))],
    )
    def test_rational_root_is_exact(self, x, p, want):
        assert root_rounded(x, p, 8) == want

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_nearest_dyadic_against_mpmath_at_four_times_the_bits(self, p):
        # irrational roots are never a tie, so nearest means within half
        # an ulp of the bits-bit dyadics around the true root
        rng = make_rng(100 + p)
        for _ in range(300):
            bits = rng.randint(2, 300)
            x = _positive_rational(rng, 400)
            got = root_rounded(x, p, bits)
            if got ** p == x:
                continue
            assert _is_dyadic_with(got, bits), (x, p, bits)
            with mp.workprec(4 * bits + 64):
                true = mp.root(to_mp(x, 4 * bits + 64), p)
                half_ulp = mp.ldexp(1, mp.frexp(true)[1] - 1 - bits)
                assert abs(to_mp(got, 8 * bits) - true) <= half_ulp, (x, p, bits)

    def test_rational_rounding_matches_mpmath_ties_to_even(self):
        rng = make_rng(7)
        for _ in range(3000):
            bits = rng.randint(2, 200)
            if rng.random() < 0.3:  # exact ties: bits + 1 significant bits
                x = F(rng.getrandbits(bits) | 1 << bits | 1, 2 ** rng.randint(0, 300))
            else:
                x = _positive_rational(rng, 500)
            assert dyadic_round(x, bits) == mpf_to_fraction(to_mp(x, bits)), (x, bits)

    def test_53_bit_square_roots_are_the_ieee_sqrt(self):
        # the attractor reports float(dyadic_round(x, 53, 2)) as sqrt(x)
        rng = make_rng(11)
        for _ in range(5000):
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
            if math.isfinite(x) and x >= 2.0**-1000:
                assert float(dyadic_round(F(x), 53, 2)) == math.sqrt(x), x

    def test_square_root_just_off_a_midpoint_between_doubles(self):
        # sqrt(mid^2 +- 2^-400) lies just off the midpoint mid of two
        # doubles: only the exactness test tells which way it rounds
        for k in (1, 2, 2**52 - 1, 12345):
            lo = F(2**52 + k, 2**52)
            mid = lo + F(1, 2**53)
            assert dyadic_round(mid**2 + F(1, 2**400), 53, 2) == lo + F(1, 2**52)
            assert dyadic_round(mid**2 - F(1, 2**400), 53, 2) == lo
            assert dyadic_round(mid**2, 53, 2) == (lo if k % 2 == 0 else mid + F(1, 2**53))
