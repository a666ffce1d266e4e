"""Limit families: exp(beta D^p) x^d, Hermite, Mittag-Leffler Jensen."""

import math
from fractions import Fraction as F

import pytest

from zerodyn import (
    Poly,
    PowerSeries,
    apply_operator,
    classify,
    derivative,
    dilate,
    exp_dp_monomial,
    hermite,
    jensen_ml,
    jensen_of_series,
    ml_partial,
    monomial,
)
from zerodyn.limits import exp_series


def P(*coeffs):
    return Poly(coeffs)


class TestExpDpMonomial:
    def test_two_term_sums(self):
        assert exp_dp_monomial(F(-1), 2, 4) == P(12, 0, -12, 0, 1)
        assert exp_dp_monomial(F(-1), 3, 3) == P(-6, 0, 0, 1)

    def test_degree_below_p_is_identity(self):
        assert exp_dp_monomial(F(1), 5, 4) == P(0, 0, 0, 0, 1)
        assert exp_dp_monomial(F(-1), 5, 4) == P(0, 0, 0, 0, 1)

    def test_monic(self):
        for p in (1, 2, 3):
            for d in range(0, 12):
                assert exp_dp_monomial(F(-2, 3), p, d).is_monic() or d == 0

    def test_derivative_ladder(self):
        # exp(-D^p)x^d = D(exp(-D^p)x^(d+1)) / (d+1)
        for p in (2, 3, 4):
            for d in range(0, 15):
                lhs = exp_dp_monomial(F(-1), p, d)
                rhs = derivative(exp_dp_monomial(F(-1), p, d + 1)).scale(
                    F(1, d + 1)
                )
                assert lhs == rhs

    def test_positive_beta_scaling_relation(self):
        # exp(-b D^p)x^d == b^(d/p) exp(-D^p)x^d (x / b^(1/p)), exactly for
        # b = r^p a perfect p-th power
        for p, d, r in [(2, 6, F(3, 2)), (3, 9, F(2)), (2, 20, F(1, 3))]:
            lhs = exp_dp_monomial(-(r**p), p, d)
            base = exp_dp_monomial(F(-1), p, d)
            assert lhs == dilate(base, 1 / r).scale(r**d)


class TestHermite:
    def test_small_cases(self):
        assert hermite(0) == P(1)
        assert hermite(1) == P(0, 2)
        assert hermite(2) == P(-2, 0, 4)
        assert hermite(4) == P(12, 0, -48, 0, 16)

    def test_bridge_to_limit_family(self):
        # exp(-D^2)x^d equals H_d(x/2) exactly
        for d in range(0, 25):
            assert exp_dp_monomial(F(-1), 2, d) == dilate(hermite(d), F(1, 2))

    def test_explicit_coefficients(self):
        # H_d = sum_k (-1)^k d! / (k! (d-2k)!) (2x)^(d-2k)
        for d in range(0, 30):
            coeffs = [F(0)] * (d + 1)
            for k in range(d // 2 + 1):
                j = d - 2 * k
                num = (-1) ** k * math.factorial(d) * 2**j
                coeffs[j] = F(num, math.factorial(k) * math.factorial(j))
            assert hermite(d) == Poly(coeffs), d

    def test_three_term_recurrence(self):
        # H_{d+1} = 2x H_d - 2d H_{d-1}
        for d in range(1, 20):
            lhs = hermite(d + 1)
            rhs = hermite(d) * P(0, 2) - hermite(d - 1).scale(2 * d)
            assert lhs == rhs


def summed_exp_series(c, j, order):
    """exp(c x^j) through x^order as operator_discrepancy summed it for
    itself before ``exp_series`` served it: c^k / k! set at x^(jk)."""
    coeffs = [F(0)] * (order + 1)
    for k in range(order // j + 1):
        coeffs[j * k] = c**k / math.factorial(k)
    return PowerSeries(coeffs)


# General-form operators whose -m alpha and beta the discrepancy exponentiates
OPERATORS = [
    PowerSeries.polynomial(c)
    for c in ([1, 1, 1], [1, F(1, 2), F(1, 8), F(-1, 3)], [1, 0, 0, F(1, 2)], [1, -1, F(1, 4)])
]


class TestExpSeries:
    def test_matches_the_summed_series(self):
        for cls in map(classify, OPERATORS):
            for m in (1, 7, 50):
                for c, j in ((-m * cls.alpha, 1), (cls.beta, cls.p), (F(1), 1)):
                    for order in range(31):
                        assert exp_series(c, j, order) == summed_exp_series(c, j, order)

    def test_solves_its_differential_equation(self):
        # E = exp(c x^j) has E' = j c x^(j-1) E: (n+1) e_(n+1) = j c e_(n+1-j)
        for c, j in ((F(-7, 3), 1), (F(1, 2), 2), (F(-5), 3), (F(2, 9), 5)):
            e = exp_series(c, j, 40).coeffs
            assert e[0] == 1
            for n in range(40):
                assert (n + 1) * e[n + 1] == (j * c * e[n + 1 - j] if n + 1 >= j else 0)

    def test_limit_is_the_operator_image_of_the_series(self):
        # the closed form exp(beta D^p) x^d is the series' own operator image
        for beta in (F(-1, 4), F(1, 2), F(-7, 3)):
            for p in range(1, 6):
                for d in range(41):
                    image = apply_operator(exp_series(beta, p, d), monomial(d))
                    assert exp_dp_monomial(beta, p, d) == image, (beta, p, d)


class TestMittagLeffler:
    def test_partial_sums(self):
        assert ml_partial(2, 2) == PowerSeries([1, F(1, 2), F(1, 24)])
        assert ml_partial(3, 1) == PowerSeries([1, F(1, 6)])
        exp_partial = PowerSeries(F(1, math.factorial(n)) for n in range(4))
        assert ml_partial(1, 3) == exp_partial


class TestJensen:
    def test_small_cases(self):
        assert jensen_ml(2, 1) == P(1, F(1, 2))
        assert jensen_ml(3, 2) == P(1, F(1, 3), F(1, 360))
        assert jensen_ml(2, 2) == P(1, 1, F(1, 12))

    def test_q1_root(self):
        f = jensen_ml(2, 1)
        assert f.evaluate(F(-2)) == 0

    def test_q2_discriminant_positive(self):
        c0, c1, c2 = jensen_ml(3, 2).coeffs
        disc = c1 * c1 - 4 * c0 * c2
        assert disc == F(1, 10) and disc > 0

    def test_bridge_to_limit_family(self):
        # exp(-D^p)x^(pq) = (-1)^q (pq)!/q! J_{p,q}(-x^p)
        for p in (2, 3, 4):
            for q in (1, 2, 3, 4):
                j = jensen_ml(p, q)
                coeffs = [F(0)] * (p * q + 1)
                for k, c in enumerate(j.coeffs):
                    coeffs[p * k] = c * (-1) ** k
                scale = F((-1) ** q * math.factorial(p * q), math.factorial(q))
                assert exp_dp_monomial(F(-1), p, p * q) == Poly(coeffs).scale(scale)

    def test_explicit_coefficients(self):
        # J_{p,q}(x) = sum_k q! x^k / ((q-k)! (pk)!)
        for p in range(1, 6):
            for q in range(1, 25):
                expected = Poly(
                    F(math.factorial(q), math.factorial(q - k) * math.factorial(p * k))
                    for k in range(q + 1)
                )
                assert jensen_ml(p, q) == expected, (p, q)

    def test_general_jensen_matches_ml_instance(self):
        # the generic constructor specializes to the Mittag-Leffler one
        for p, q in [(2, 3), (3, 2), (4, 4)]:
            phi = ml_partial(p, q)
            assert jensen_of_series(phi, q) == jensen_ml(p, q)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            jensen_ml(0, 1)
        with pytest.raises(ValueError):
            jensen_ml(2, 0)
