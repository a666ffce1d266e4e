"""Polynomial arithmetic, the operator action, and the affine transforms."""

from contextlib import nullcontext
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
    extend,
    iterate_operator,
    monomial,
    rescale_iterate,
    translate,
    truncated_power,
)
from zerodyn.scalars import DEFAULT_PRECISION_BITS, carried_precision
from conftest import random_poly, random_series


def P(*coeffs):
    return Poly(coeffs)


PHI_A = extend(PowerSeries([1, 0, 1]), 12)    # 1 + x^2
PHI_B = extend(PowerSeries([1, 1, -1]), 12)   # 1 + x - x^2
PHI_C = extend(PowerSeries([1, 0, -1]), 12)   # 1 - x^2


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
        with pytest.raises(ZeroDilation):
            dilate(f, 0)

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
        out = rescale_iterate(cls, PHI_A, monomial(3), 4)
        assert out == P(0, 6, 0, 1)
        assert out.is_exact

    def test_exact_with_translation(self):
        cls = classify(PHI_B)
        out = rescale_iterate(cls, PHI_B, monomial(2), 9)
        assert out == P(-3, 0, 1)

    def test_exact_even_support_nonsquare_m(self):
        cls = classify(PHI_C)
        out = rescale_iterate(cls, PHI_C, monomial(4), 10)
        assert out == P(12 - F(12, 10), 0, -12, 0, 1)
        assert out.is_exact

    def test_floating_path_agrees_with_exact(self):
        # m a perfect square: exact; perturbed f forces the floating path
        cls = classify(PHI_B)
        f = P(F(1, 3), 0, 0, 1)  # x^3 + 1/3, support not aligned with p=2
        exact9 = rescale_iterate(cls, PHI_B, f, 9)
        assert exact9.is_exact
        floating = rescale_iterate(cls, PHI_B, f, 8)
        assert not floating.is_exact
        # cross-check the floating transform against a direct evaluation
        g = iterate_operator(PHI_B, f, 8)
        with mp.workprec(256):
            s = mp.sqrt(mp.mpf(8))
            x = mp.mpf("0.37")
            want = mp.mpf(8) ** mp.mpf(-1.5) * g.evaluate(s * x - 8)
            got = floating.evaluate(x)
            assert abs(want - got) < mp.mpf(2) ** -200

    def test_rejects_non_general(self):
        import math

        phi = PowerSeries(F(1, math.factorial(n)) for n in range(6))
        with pytest.raises(NotGeneralForm):
            rescale_iterate(classify(phi), phi, monomial(2), 3)

    def test_rejects_non_monic(self):
        cls = classify(PHI_A)
        with pytest.raises(NonMonicInput):
            rescale_iterate(cls, PHI_A, P(1, 2), 3)


class TestFloatingKind:
    def test_exact_never_degrades_silently(self):
        f = P(1, 2) + P(0, 0, 1)
        assert f.is_exact

    def test_mixed_arithmetic_goes_floating(self):
        f = P(1, 1)
        g = Poly([1, 1], precision=128)
        assert not (f + g).is_exact

    def test_sup_norm(self):
        assert P(1, -7, 3).sup_norm() == 7

    def test_to_exact_keeps_every_bit(self):
        # 1/3 at 256 bits; re-rounding at mpmath's default 53 bits loses 203
        g = P(F(1, 3), -2).to_floating(256)
        q = g.to_exact()
        assert q.is_exact and list(q.coeffs) == [_exact(c) for c in g.coeffs]
        assert 0 < abs(q.coeffs[0] - F(1, 3)) < F(1, 2**256)
        assert q.to_floating(256) == g
        f = P(1, 2)
        assert f.to_exact() is f

    @pytest.mark.parametrize("c", [1j, mp.inf, mp.nan])
    def test_to_exact_rejects_nonreal_and_nonfinite(self, c):
        with pytest.raises(ValueError):
            Poly([c, 1], 128).to_exact()


def _exact(v):
    """The value an mpf holds, as a Fraction."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


class TestFloatingScalarOnExactPoly:
    """An exact polynomial meeting an mpf runs at the bits the mpf carries."""

    with mp.workprec(512):
        X = mp.mpf(1) / 3
    AMBIENT = [nullcontext, lambda: mp.workprec(64)]
    BOUND = F(1, 2**500)

    def test_carried_precision(self):
        assert 500 < carried_precision(self.X) <= 512
        assert carried_precision(mp.mpf(1) / 3) == DEFAULT_PRECISION_BITS
        with mp.workprec(300):
            lo = mp.mpf(1) / 7
        with mp.workprec(512):
            z, w = mp.mpc(lo, self.X), mp.mpc(self.X, 0)
        assert carried_precision(z) == carried_precision(w) == carried_precision(self.X)
        for x in (F(1, 3), 3, 0.5, 1j, mp.mpf(0)):
            assert carried_precision(x) == DEFAULT_PRECISION_BITS

    @pytest.mark.parametrize("ambient", AMBIENT, ids=["no-context", "workprec64"])
    def test_translate(self, ambient):
        x = _exact(self.X)
        with ambient():
            g = translate(P(1, 1), self.X)
        assert g.precision == carried_precision(self.X)
        assert abs(_exact(g.coeffs[0]) - (1 + x)) < self.BOUND
        assert g.coeffs[1] == 1

    @pytest.mark.parametrize("ambient", AMBIENT, ids=["no-context", "workprec64"])
    def test_dilate_and_scale(self, ambient):
        x = _exact(self.X)
        with ambient():
            g = dilate(P(1, 1, 1), self.X)
            h = P(F(1, 3), 1).scale(self.X)
        assert abs(_exact(g.coeffs[2]) - x * x) < self.BOUND
        assert abs(_exact(h.coeffs[0]) - x / 3) < self.BOUND
        assert g.precision == h.precision == carried_precision(self.X)

    @pytest.mark.parametrize("ambient", AMBIENT, ids=["no-context", "workprec64"])
    def test_evaluate(self, ambient):
        x = _exact(self.X)
        with ambient():
            v = P(F(1, 3), 1).evaluate(self.X)
        assert abs(_exact(v) - (F(1, 3) + x)) < self.BOUND
