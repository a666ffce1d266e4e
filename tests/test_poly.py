"""Polynomial arithmetic, the operator action, and the affine transforms."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import (
    NonMonicInput,
    NotGeneralForm,
    Poly,
    PowerSeries,
    TruncationTooShort,
    ZeroDilation,
    apply_operator,
    classify,
    derivative,
    dilate,
    dilate_series,
    iterate_operator,
    monomial,
    rescale_iterate,
    translate,
    truncated_power,
)
from conftest import random_poly, random_series, to_mp


def P(*coeffs):
    return Poly(coeffs)


PHI_A = PowerSeries.polynomial([1, 0, 1])    # 1 + x^2
PHI_B = PowerSeries.polynomial([1, 1, -1])   # 1 + x - x^2
PHI_C = PowerSeries.polynomial([1, 0, -1])   # 1 - x^2


def oracle_iterate_a(m):
    # phi = 1 + x^2 on x^3: induction gives x^3 + 6m x
    return P(0, 6 * m, 0, 1)


def oracle_iterate_b(m):
    # phi = 1 + x - x^2 on x^2: x^2 + 2m x + (m^2 - 3m)
    return P(m * m - 3 * m, 2 * m, 1)


def oracle_iterate_c(m):
    # phi = 1 - x^2 on x^4: x^4 - 12m x^2 + 12m(m-1)
    return P(12 * m * (m - 1), 0, -12 * m, 0, 1)


class TestBasics:
    def test_monomial(self):
        assert monomial(0) == P(1)
        assert monomial(1) == P(0, 1)
        assert monomial(3) == P(0, 0, 0, 1)

    def test_degree_sentinel(self):
        assert Poly([]).degree == float("-inf")
        assert P(0).is_zero

    def test_leading_coefficient_stripped(self):
        assert P(1, 2, 0, 0).degree == 1

    def test_derivative(self):
        assert derivative(monomial(3)) == P(0, 0, 3)
        assert derivative(P(5)).is_zero
        assert derivative(P(2, 2, 1)) == P(2, 2)

    def test_dilate(self):
        assert dilate(P(1, 0, 1), 2) == P(1, 0, 4)
        assert dilate(monomial(3), -1) == P(0, 0, 0, -1)
        f = P(3, -2, 1)
        assert dilate(f, 1) == f

    @pytest.mark.parametrize(
        "scale",
        [lambda c: dilate(P(3, -2, 1), c), lambda c: dilate_series(PowerSeries([3, -2, 1]), c)],
        ids=["dilate", "dilate_series"],
    )
    @pytest.mark.parametrize("zero", [0, F(0), "0"])
    def test_zero_dilation(self, scale, zero):
        # the scalar goes through as_fraction first: a zero is typed, a float refused
        with pytest.raises(ZeroDilation):
            scale(zero)
        with pytest.raises(TypeError):
            scale(0.0)

    def test_translate(self):
        assert translate(monomial(2), 1) == P(1, 2, 1)
        assert translate(P(0, 1), -5) == P(-5, 1)
        f = P(3, -2, 1)
        assert translate(f, 0) == f

    def test_translate_matches_evaluation(self, rng):
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 8))
            c = F(rng.randint(-5, 5), rng.randint(1, 4))
            g = translate(f, c)
            for x in (F(0), F(1), F(-2), F(1, 3)):
                assert g.evaluate(x) == f.evaluate(x + c)


class TestApplyOperator:
    def test_second_derivative_term(self):
        assert apply_operator(PHI_A, monomial(3)) == P(0, 6, 0, 1)

    def test_exponential_series_shifts(self):
        # operator from the e^x coefficients acts as f -> f(x+1)
        import math

        phi = PowerSeries(F(1, math.factorial(n)) for n in range(6))
        f = monomial(2)
        assert apply_operator(phi, f) == translate(f, 1) == P(1, 2, 1)

    def test_mixed_signs(self):
        assert apply_operator(PHI_B, monomial(2)) == P(-2, 2, 1)

    def test_truncation_too_short(self):
        with pytest.raises(TruncationTooShort):
            apply_operator(PowerSeries([1, 1]), monomial(3))

    def test_linearity(self, rng):
        phi = random_series(rng, 8)
        for _ in range(10):
            f = random_poly(rng, rng.randint(0, 8))
            g = random_poly(rng, rng.randint(0, 8))
            a = F(rng.randint(-4, 4))
            b = F(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = apply_operator(phi, f.scale(a) + g.scale(b))
            rhs = apply_operator(phi, f).scale(a) + apply_operator(phi, g).scale(b)
            assert lhs == rhs

    def test_commutes_with_differentiation(self, rng):
        phi = random_series(rng, 9)
        for _ in range(10):
            f = random_poly(rng, rng.randint(1, 9))
            assert apply_operator(phi, derivative(f)) == derivative(
                apply_operator(phi, f)
            )

    def test_truncation_irrelevance(self, rng):
        # coefficients above deg f never matter
        for _ in range(10):
            f = random_poly(rng, rng.randint(1, 6))
            d = int(f.degree)
            phi = random_series(rng, d)
            longer = PowerSeries(
                list(phi.coeffs) + [F(rng.randint(-9, 9))] * rng.randint(1, 3)
            )
            assert apply_operator(phi, f) == apply_operator(longer, f)

    def test_dilation_identity(self, rng):
        # Delta_c (phi(D) f) = phi(D/c) (Delta_c f) for rational c != 0
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 7))
            phi = random_series(rng, int(f.degree))
            c = F(0)
            while c == 0:
                c = F(rng.randint(-6, 6), rng.randint(1, 4))
            lhs = dilate(apply_operator(phi, f), c)
            rhs = apply_operator(dilate_series(phi, 1 / c), dilate(f, c))
            assert lhs == rhs

    def test_translation_conjugacy(self, rng):
        # D commutes with shifts, hence so does the whole operator
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 7))
            phi = random_series(rng, int(f.degree))
            c = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert apply_operator(phi, translate(f, c)) == translate(
                apply_operator(phi, f), c
            )


class TestIterate:
    def test_identity_at_m_zero(self, rng):
        f = random_poly(rng, 5)
        assert iterate_operator(PHI_A, f, 0) == f

    def test_closed_form_families(self):
        assert iterate_operator(PHI_A, monomial(3), 5) == P(0, 30, 0, 1)
        assert iterate_operator(PHI_B, monomial(2), 3) == P(0, 6, 1)
        for m in (1, 2, 7, 40):
            assert iterate_operator(PHI_A, monomial(3), m) == oracle_iterate_a(m)
            assert iterate_operator(PHI_B, monomial(2), m) == oracle_iterate_b(m)
            assert iterate_operator(PHI_C, monomial(4), m) == oracle_iterate_c(m)

    def test_equals_truncated_power_route(self, rng):
        # independent path: phi(D)^m f = (phi^m)(D) f with phi^m truncated
        for _ in range(12):
            f = random_poly(rng, rng.randint(1, 8))
            d = int(f.degree)
            phi = random_series(rng, d)
            m = rng.randint(0, 5)
            direct = iterate_operator(phi, f, m)
            power = truncated_power(phi, m, d)
            assert direct == apply_operator(power, f)


class TestRescaleIterate:
    def test_exact_multiple_of_p_support(self):
        cls = classify(PHI_A)
        out = rescale_iterate(cls, iterate_operator(PHI_A, monomial(3), 4), 4)
        assert out == P(0, 6, 0, 1)

    def test_exact_with_translation(self):
        cls = classify(PHI_B)
        out = rescale_iterate(cls, iterate_operator(PHI_B, monomial(2), 9), 9)
        assert out == P(-3, 0, 1)

    def test_exact_even_support_nonsquare_m(self):
        cls = classify(PHI_C)
        out = rescale_iterate(cls, iterate_operator(PHI_C, monomial(4), 10), 10)
        assert out == P(12 - F(12, 10), 0, -12, 0, 1)

    def test_perfect_square_m_is_exact_dilation(self):
        # x^3 + 1/3: support not aligned with p = 2.  m = 9 is a perfect
        # square, so the rescaling is the exact dilation by 3
        cls = classify(PHI_B)
        f = P(F(1, 3), 0, 0, 1)
        iterate = iterate_operator(PHI_B, f, 9)
        g9 = translate(iterate, -9)
        assert rescale_iterate(cls, iterate, 9) == dilate(g9, 3).scale(F(1, 27))

    def test_floating_path_agrees_with_exact(self):
        # m = 8 is not a square: coefficient k of g = phi(D)^8 f (x - 8) is
        # multiplied by 8^((k-3)/2), exact for odd k and otherwise rounded
        # once to the nearest 256-bit dyadic
        cls = classify(PHI_B)
        f = P(F(1, 3), 0, 0, 1)
        bits, d, m = 256, 3, 8
        iterate = iterate_operator(PHI_B, f, m)
        got = rescale_iterate(cls, iterate, m, bits)
        g = translate(iterate, -m)
        assert len(got.coeffs) == len(g.coeffs)
        with mp.workprec(2 * bits):
            for k, (c, gk) in enumerate(zip(got.coeffs, g.coeffs)):
                if (k - d) % 2 == 0:
                    assert c == gk * F(m) ** ((k - d) // 2)
                    continue
                assert c.denominator & (c.denominator - 1) == 0
                want = mp.mpf(m) ** (mp.mpf(k - d) / 2) * to_mp(gk, 2 * bits)
                assert abs(to_mp(c, 2 * bits) - want) <= mp.ldexp(abs(want), -bits)
            # against a direct evaluation of m^(-d/2) iterate(sqrt(m) x - m)
            x = F(37, 100)
            at = mp.sqrt(m) * to_mp(x, 2 * bits) - m
            direct = mp.mpf(m) ** (-mp.mpf(d) / 2) * mp.polyval(
                [to_mp(c, 2 * bits) for c in reversed(iterate.coeffs)], at
            )
            assert abs(to_mp(got.evaluate(x), 2 * bits) - direct) < mp.ldexp(1, -200)

    def test_rejects_non_general(self):
        import math

        phi = PowerSeries(F(1, math.factorial(n)) for n in range(6))
        with pytest.raises(NotGeneralForm):
            rescale_iterate(classify(phi), monomial(2), 3)

    def test_rejects_non_monic(self):
        with pytest.raises(NonMonicInput):
            rescale_iterate(classify(PHI_A), P(1, 2), 3)

    def test_rejects_constant(self):
        with pytest.raises(NonMonicInput):
            rescale_iterate(classify(PHI_A), P(1), 3)

    def test_rejects_the_iterate_of_an_unnormalized_phi(self):
        # 2 + 2x^2 classifies as 1 + x^2, whose iterates of x^3 stay monic;
        # its own third iterate leads with 8 and is not rescaled
        phi = PowerSeries.polynomial([2, 0, 2])
        assert classify(phi) == classify(PHI_A)
        with pytest.raises(NonMonicInput):
            rescale_iterate(classify(phi), iterate_operator(phi, monomial(3), 3), 3)


class TestFloatingKind:
    def test_exact_never_degrades_silently(self):
        f = P(1, 2) + P(0, 0, 1)
        assert all(type(c) is F for c in f.coeffs)

    def test_sup_norm(self):
        assert P(1, -7, 3).sup_norm() == 7


class TestExactScalars:
    """Every scalar applied to a polynomial is taken exactly; a floating
    one is the constructor's TypeError."""

    OPS = {
        "scale": lambda f, c: f.scale(c),
        "dilate": dilate,
        "translate": translate,
        "evaluate": lambda f, c: f.evaluate(c),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("c", [0.5, mp.mpf(1) / 3, mp.mpc(1, 2)], ids=["float", "mpf", "mpc"])
    def test_floating_scalar_rejected(self, op, c):
        with pytest.raises(TypeError):
            self.OPS[op](P(F(1, 3), 1, 1), c)
