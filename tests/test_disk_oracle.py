"""roots_in_disk against an mpmath distance oracle at four times the precision."""

import copy
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import to_mp
from zerodyn import Point, Poly, find_roots, roots_in_disk
from zerodyn.roots import _counted_roots

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
parts = st.fractions(min_value=-6, max_value=6, max_denominator=16)
radii = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(coeffs, min_size=1, max_size=8),
    coeffs.filter(lambda c: c != 0),
    parts,
    parts,
    radii,
    st.sampled_from([64, 128, 256]),
)
def test_agrees_with_the_oracle_away_from_ties(low, lead, re, im, radius, bits):
    rs = find_roots(Poly(low + [lead]), bits)
    center = Point(re, im)
    with mp.workprec(4 * bits):
        c, rad = to_mp(center, 4 * bits), to_mp(radius, 4 * bits)
        inside = 0
        for r in rs.roots:
            z = to_mp(r.location, 4 * bits)
            gap = abs(abs(z - c) - rad)
            # a tie lies within 2^-bits (1 + |z|) of the boundary; stay well clear
            hypothesis.assume(gap > 4 * mp.ldexp(1 + abs(z), -bits))
            inside += r.multiplicity * (abs(z - c) < rad)
    before = copy.deepcopy(rs)
    assert roots_in_disk(rs, center, radius) == inside
    assert rs == before
    assert not any(tie for _r, tie in _counted_roots(rs, center, radius))
