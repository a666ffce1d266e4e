"""Exact zero profile and Yun factors against sympy's sqf_list/count_roots."""

from fractions import Fraction as F

import pytest

from zerodyn import Poly, count_nonreal, roots
from conftest import make_rng, random_poly

sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

X = sp.Symbol("x")
MERSENNE = 2**61 - 1


def P(*coeffs):
    return Poly(coeffs)


def _oracle(f):
    """(real zeros with multiplicity, {multiplicity: monic factor}) by sympy."""
    cs = [sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    _, factors = sp.Poly(cs, X, domain="QQ").sqf_list()
    real = sum(m * g.count_roots() for g, m in factors)
    yun = {
        m: [F(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())]
        for g, m in factors
    }
    return real, yun


def _check(f):
    deg = int(f.degree)
    real, yun = _oracle(f)
    zc = count_nonreal(f)
    assert zc.method == "exact"
    assert (zc.total, zc.real_count, zc.nonreal_count) == (deg, real, deg - real)
    assert zc.squarefree == (set(yun) == {1})
    assert {m: g for g, m in roots._yun_squarefree(list(f.coeffs))} == yun


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
nonzero = fractions.filter(lambda c: c != 0)
factor = st.one_of(
    st.builds(
        lambda cs, lc: Poly(cs + [lc]), st.lists(fractions, min_size=1, max_size=4), nonzero
    ),
    # x^2 + c, c > 0: a nonreal pair
    st.builds(lambda c: P(c, 0, 1), fractions.filter(lambda c: c > 0)),
)


@hypothesis.settings(
    max_examples=80, deadline=None, derandomize=True, database=None
)
@hypothesis.given(
    st.lists(st.tuples(factor, st.integers(1, 4)), min_size=1, max_size=4)
)
def test_products_with_repeated_factors(parts):
    f = P(1)
    for g, m in parts:
        f = f * g**m
    hypothesis.assume(f.degree >= 1)
    _check(f)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 62])
def test_lp_test_images(k):
    # x^k (1 + a x + b x^2), with real, double and nonreal quadratic zeros
    for a, b in ((F(1, 2), F(-3, 8)), (F(1), F(1, 4)), (F(-1, 2), F(5, 8))):
        _check(P(*([0] * k + [1, a, b])))


def test_lead_divisible_by_mersenne_prime():
    for f in (
        P(-1, MERSENNE) * P(2, 1),
        P(-1, MERSENNE) ** 2 * P(F(1, 3), 0, 1) ** 3,
        P(MERSENNE, 0, 1) * P(F(-2, 5), 1) ** 2,
        P(1, 1, 3 * MERSENNE) ** 2 * P(0, 1) ** 3,
    ):
        _check(f)


def test_seeded_up_to_degree_64():
    rng = make_rng(64)
    for d in (24, 40):
        _check(random_poly(rng, d))
    # degree 64: repeated real, repeated nonreal and generic factors
    g = random_poly(rng, 12) ** 2 * P(F(2, 7), 0, 1) ** 3 * P(F(-3, 5), 1) ** 4
    _check(g * random_poly(rng, 16) * P(0, 1) ** 14)
