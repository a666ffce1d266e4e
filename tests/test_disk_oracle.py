"""roots_in_disk against an mpmath oracle at four times the precision."""

import copy
import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import to_mp
from zerodyn import Point, Poly, find_roots, roots_in_disk

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
            # within 2^-bits (1 + |z|) of the boundary is undecided; stay well clear
            hypothesis.assume(gap > 4 * mp.ldexp(1 + abs(z), -bits))
            inside += r.multiplicity * (abs(z - c) < rad)
    before = copy.deepcopy(rs)
    assert roots_in_disk(rs, center, radius) == inside
    assert rs == before


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(coeffs, min_size=1, max_size=6),
    coeffs.filter(lambda c: c != 0),
    st.integers(min_value=0),
    parts,
    parts,
    st.integers(min_value=-64, max_value=64),
    st.sampled_from([64, 128, 256]),
)
def test_never_counts_more_than_the_oracle_near_the_boundary(
    low, lead, pick, re, im, offset, bits
):
    """The boundary passes within 2^-(bits+8) of a returned root, on either
    side: the count stays a lower bound on the zeros mpmath's polyroots
    puts inside at four times the precision."""
    f = Poly(low + [lead])
    rs = find_roots(f, bits)
    hypothesis.assume(all(r.multiplicity == 1 for r in rs.roots))
    u, center = rs.roots[pick % len(rs.roots)].location, Point(re, im)
    dist2 = (u.real - center.real) ** 2 + (u.imag - center.imag) ** 2
    scale = bits + 20
    dist = F(math.isqrt(math.floor(dist2 * 4**scale)), 2**scale)  # |u - c|, floored
    radius = dist + F(offset, 2 ** (bits + 16))
    hypothesis.assume(radius > 0)
    with mp.workprec(4 * bits):
        zeros = mp.polyroots(
            [to_mp(a, 4 * bits) for a in reversed(f.coeffs)],
            maxsteps=400,
            extraprec=4 * bits,
        )
        c, rad = to_mp(center, 4 * bits), to_mp(radius, 4 * bits)
        inside = sum(abs(z - c) < rad for z in zeros)
    assert roots_in_disk(rs, center, radius) <= inside
