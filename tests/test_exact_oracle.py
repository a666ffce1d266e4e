"""Exact zero profile and Yun factors against sympy's sqf_list/count_roots,
and both counting routes (Sturm and Descartes) against sympy's real-root
isolation at every degree."""

from fractions import Fraction as F

import pytest

from zerodyn import Poly, count_nonreal, exact
from conftest import dyadic, make_rng, random_poly

sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

X = sp.Symbol("x")
MERSENNE = 2**61 - 1
D0 = exact.DESCARTES_MIN_DEGREE


def P(*coeffs):
    return Poly(coeffs)


def _positive(g):
    """The integer list g, negated if its leading coefficient is negative."""
    return g if g[-1] > 0 else [-c for c in g]


def _oracle(f):
    """(real zeros with multiplicity, {multiplicity: primitive factor with
    positive leading coefficient}) by sympy."""
    cs = [sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    _, factors = sp.Poly(cs, X, domain="QQ").sqf_list()
    real = sum(m * g.count_roots() for g, m in factors)
    yun = {}
    for g, m in factors:
        primitive = g.clear_denoms()[1].primitive()[1].all_coeffs()
        yun[m] = _positive([int(c) for c in reversed(primitive)])
    return real, yun


def _check(f):
    deg = int(f.degree)
    real, yun = _oracle(f)
    zc = count_nonreal(f)
    assert zc.method == "exact"
    assert (zc.total, zc.real_count, zc.nonreal_count) == (deg, real, deg - real)
    assert zc.squarefree == (set(yun) == {1})
    factors = exact._yun_squarefree(exact._integer_part(f.coeffs))
    assert {m: _positive(g) for g, m in factors} == yun


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


def _isolated(f):
    """(real zeros with multiplicity, square-free) by sympy's sqf_list and
    its real-root isolation, which stays fast where count_roots' Sturm
    sequences blow up (4 s at d = 64, 21 s at d = 80)."""
    cs = [sp.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    _, factors = sp.Poly(cs, X, domain="QQ").sqf_list()
    real = sum(m * len(g.intervals()) for g, m in factors)
    return real, all(m == 1 for _, m in factors)


def _check_count(f):
    """count_nonreal, by whichever route each factor's degree picks, against sympy."""
    real, squarefree = _isolated(f)
    zc = count_nonreal(f)
    assert (zc.real_count, zc.nonreal_count, zc.squarefree) == (
        real, int(f.degree) - real, squarefree
    )
    return real, squarefree


def _both_routes(f):
    """_exact_profile's (real, squarefree) with every square-free factor
    counted by Descartes bisection, then by the Sturm chain."""
    out = []
    for d0 in (1, 10**6):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact, "DESCARTES_MIN_DEGREE", d0)
            real, _nonreal, squarefree = exact._exact_profile(f)
        out.append((real, squarefree))
    return out


def _hard_inputs(rng, d):
    """Degree-d inputs: repeated real and nonreal factors with a double zero
    root, a real pair 2^-60 apart, and a nonreal pair +-10^-10 i."""
    yield P(F(-2, 3), 1) ** 3 * P(F(1, 5), 0, 1) ** 2 * P(0, 1) ** 2 * random_poly(rng, d - 9)
    yield P(-1, 1) * P(-1 - F(1, 2**60), 1) * random_poly(rng, d - 2)
    yield P(F(1, 10**20), 0, 1) * random_poly(rng, d - 2)


@pytest.mark.parametrize("d", [D0 - 1, D0, 40, 64])
def test_both_routes_at_degree(d):
    rng = make_rng(d)
    for f in [random_poly(rng, d), *_hard_inputs(rng, d)]:
        expected = _check_count(f)
        assert _both_routes(f) == [expected, expected]


@pytest.mark.parametrize("d", [80, 120])
def test_descartes_above_degree_64(d):
    rng = make_rng(d)
    for f in _hard_inputs(rng, d):
        _check_count(f)


def test_dyadic_input_at_degree_64():
    # small rational coefficients rounded to 256 bits: the Sturm chain of
    # the ~256-bit integers takes seconds here
    for seed in range(3):
        _check_count(dyadic(random_poly(make_rng(seed), 64, monic=True), 256))


def test_zeros_on_bisection_points():
    # dyadic zeros fall on the bisection's midpoints and end points; a
    # squared factor and the zero root count with their multiplicity
    f = P(1)
    for k in range(-12, 13):
        f = f * P(F(-k, 8), 1)
    for g, expected in ((f, (25, True)), (f * P(F(-3, 4), 1) ** 2, (27, False))):
        assert _check_count(g) == expected
        assert _both_routes(g) == [expected, expected]


close_pair = st.builds(
    lambda a, k: P(-a, 1) * P(-a - F(1, 2**k), 1), fractions, st.integers(1, 80)
)


@hypothesis.settings(
    max_examples=80, deadline=None, derandomize=True, database=None
)
@hypothesis.given(
    st.lists(
        st.tuples(st.one_of(factor, close_pair), st.integers(1, 3)), min_size=1, max_size=5
    )
)
def test_sturm_and_descartes_profiles_agree(parts):
    # both routes on the same input, whichever one DESCARTES_MIN_DEGREE picks
    f = P(1)
    for g, m in parts:
        f = f * g**m
    hypothesis.assume(f.degree >= 1)
    expected = _isolated(f)
    assert _both_routes(f) == [expected, expected]


def test_route_is_chosen_by_factor_degree(monkeypatch):
    # degree 25, but every square-free factor is below DESCARTES_MIN_DEGREE:
    # each one takes the Sturm chain
    g = random_poly(make_rng(25), 7)
    f = P(F(-2, 3), 1) ** 3 * P(F(1, 5), 0, 1) ** 4 * g**2
    assert f.degree == 25 > D0
    degrees, real_zeros = [], exact._real_zeros
    monkeypatch.setattr(
        exact, "_real_zeros", lambda F: degrees.append(len(F) - 1) or real_zeros(F)
    )
    _check_count(f)
    assert sorted(degrees) == [1, 2, 7] and max(degrees) < D0
