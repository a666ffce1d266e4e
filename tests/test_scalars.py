"""Exact-to-floating conversion."""

from fractions import Fraction as F

import mpmath as mp

from zerodyn.scalars import to_mp


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
