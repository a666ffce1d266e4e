"""Series arithmetic, classification, and the monomial-image screen."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from zerodyn import (
    AllZeroSeries,
    Poly,
    PowerSeries,
    TruncationTooShort,
    ZeroConstantTerm,
    apply_operator,
    classify,
    factor_out_zero,
    normalize,
    polya_lp_test,
    truncated_power,
    truncated_product,
    turan_expression,
)
from conftest import make_rng, random_series


def S(*coeffs):
    return PowerSeries(coeffs)


def poly_series(*coeffs):
    return PowerSeries.polynomial(coeffs)


class TestNormalize:
    def test_scalar_division(self):
        assert normalize(S(2, 2)) == S(1, 1)

    def test_identity_when_unit_constant(self):
        phi = S(1, 1, 1)
        assert normalize(phi) == phi

    def test_constant_series(self):
        assert normalize(S(3)) == S(1)

    def test_zero_constant_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            normalize(S(0, 1))


class TestFactorOutZero:
    def test_visible_factorization(self):
        mu, psi = factor_out_zero(S(0, 0, 1, 1))
        assert mu == 2 and psi == S(1, 1)

    def test_mu_zero_when_constant_nonzero(self):
        mu, psi = factor_out_zero(S(1, 1))
        assert mu == 0 and psi == S(1, 1)

    def test_monomial(self):
        mu, psi = factor_out_zero(S(0, 0, 0, 0, 0, 1))
        assert mu == 5 and psi == S(1)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroSeries):
            factor_out_zero(S(0, 0, 0))

    def test_remultiplying_reproduces_coefficients(self, rng):
        for _ in range(25):
            mu_true = rng.randint(0, 3)
            body = random_series(rng, rng.randint(0, 5))
            phi = PowerSeries([F(0)] * mu_true + list(body.coeffs))
            mu, psi = factor_out_zero(phi)
            rebuilt = [F(0)] * mu + list(psi.coeffs)
            assert tuple(rebuilt) == phi.coeffs


class TestClassify:
    def test_general_p2(self):
        cls = classify(S(1, 1, 1))
        assert cls.form == "General"
        assert (cls.p, cls.alpha, cls.beta) == (2, 1, F(1, 2))

    def test_general_p4_truncated_exponential(self):
        cls = classify(S(1, 1, F(1, 2), F(1, 6), 0))
        assert (cls.p, cls.alpha, cls.beta) == (4, 1, F(-1, 24))

    def test_pure_exponential_any_order(self):
        for order in (2, 5, 9):
            phi = PowerSeries(F(1, math.factorial(n)) for n in range(order + 1))
            cls = classify(phi)
            assert cls.form == "PureExponential"
            assert (cls.c, cls.gamma) == (1, 1)

    def test_zero_constant(self):
        cls = classify(S(0, 1, 0, 1))
        assert cls.form == "ZeroConstant" and cls.mu == 1

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroSeries):
            classify(S(0, 0))

    def test_scaling_invariance(self, rng):
        # classify(c * phi) agrees with classify(phi) for nonzero rational c
        for _ in range(30):
            phi = random_series(rng, rng.randint(2, 7))
            c = F(0)
            while c == 0:
                c = F(rng.randint(-8, 8), rng.randint(1, 5))
            scaled = PowerSeries([c * a for a in phi.coeffs])
            a, b = classify(phi), classify(scaled)
            assert a.form == b.form
            if a.form == "General":
                assert (a.p, a.alpha, a.beta) == (b.p, b.alpha, b.beta)

    def test_general_reconstructs_pth_derivative(self, rng):
        # phi^(p)(0) = beta * p! + alpha^p on the normalized series
        for _ in range(30):
            phi = random_series(rng, rng.randint(2, 7))
            cls = classify(phi)
            if cls.form != "General":
                continue
            norm = cls.normalized_from
            assert norm.derivative_at_zero(cls.p) == (
                cls.beta * math.factorial(cls.p) + cls.alpha**cls.p
            )


class TestTuran:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [((1, 1, -1), -3), ((1, 1, 1), 1), ((1, 1, F(1, 2)), 0)],
    )
    def test_values(self, coeffs, expected):
        assert turan_expression(PowerSeries(coeffs)) == expected

    def test_too_short(self):
        with pytest.raises(TruncationTooShort):
            turan_expression(S(1, 1))

    def test_trichotomy_against_classification(self, rng):
        # sign of the expression vs (p, beta) of the classification
        for _ in range(60):
            phi = random_series(rng, rng.randint(2, 6))
            t = turan_expression(phi)
            cls = classify(phi)
            if t < 0:
                assert cls.form == "General" and cls.p == 2 and cls.beta < 0
            elif cls.form == "General":
                assert (cls.p == 2 and cls.beta > 0) or cls.p >= 3


class TestTruncatedProduct:
    def test_difference_of_squares(self):
        out = truncated_product(S(1, 1), S(1, -1), 1)
        assert out == S(1, 0)
        out2 = truncated_product(poly_series(1, 1), poly_series(1, -1), 2)
        assert out2 == S(1, 0, -1)

    def test_truncation_drops_high_terms(self):
        assert truncated_product(S(1, 1), S(1, 1), 1) == S(1, 2)

    def test_mittag_leffler_partial_square_against_convolution(self):
        # independent oracle: coefficient n of E_2^2 is sum_i 1/((2i)!(2(n-i))!)
        from zerodyn import ml_partial

        e2 = ml_partial(2, 4)
        prod = truncated_product(e2, e2, 4)
        for n in range(5):
            expected = sum(
                F(1, math.factorial(2 * i) * math.factorial(2 * (n - i)))
                for i in range(n + 1)
            )
            assert prod.taylor(n) == expected

    def test_too_short(self):
        with pytest.raises(TruncationTooShort):
            truncated_product(S(1, 1), S(1, 1), 2)


class TestHead:
    def test_polynomial_pads_with_zeros(self):
        phi = poly_series(1, 0, -1)
        assert phi.truncation_order == math.inf
        assert phi.head(6) == (F(1), F(0), F(-1)) + (F(0),) * 4
        assert phi.taylor(9) == 0

    def test_truncated_series_raises_past_its_order(self):
        phi = S(1, 0, -1)
        assert phi.head(2) == (F(1), F(0), F(-1))
        with pytest.raises(TruncationTooShort):
            phi.head(3)
        with pytest.raises(TruncationTooShort):
            phi.taylor(3)

    def test_kind_is_part_of_equality(self):
        assert poly_series(1, 1) != S(1, 1)
        assert poly_series(1, 1) == poly_series(1, 1)


class TestPolyaLPTest:
    def test_certified_not_lp(self):
        res = polya_lp_test(poly_series(1, 1, 1), 5)
        assert res.obstructed and res.d_witness == 2
        assert str(res) == "CertifiedNotLP(2)"

    def test_first_degree_binomial_never_obstructs(self):
        res = polya_lp_test(poly_series(1, 1), 8)
        assert not res.obstructed and res.d_witness is None
        assert str(res) == "NoObstructionUpTo(8)"

    def test_hermite_family_never_obstructs(self):
        res = polya_lp_test(poly_series(1, 0, -1), 6)
        assert not res.obstructed
        assert res.nonreal_counts == (0,) * 6

    def test_monomial_factor_stripped(self):
        # x + x^3 = x(1 + x^2): same verdict as 1 + x^2
        res = polya_lp_test(poly_series(0, 1, 0, 1), 5)
        bare = polya_lp_test(poly_series(1, 0, 1), 5)
        assert res.obstructed and bare.obstructed
        assert res.d_witness == bare.d_witness

    def test_witness_monotonicity(self):
        # once some degree witnesses, every larger scanned degree does too
        for coeffs in [(1, 1, 1), (1, 0, 1), (1, 2, 2), (1, -1, 3, 1)]:
            res = polya_lp_test(PowerSeries.polynomial(coeffs), 8)
            flags = [n > 0 for n in res.nonreal_counts]
            if True in flags:
                first = flags.index(True)
                assert all(flags[first:])

    def test_too_short(self):
        with pytest.raises(TruncationTooShort):
            polya_lp_test(S(1, 1, 1), 5)


class TestTruncatedPower:
    def test_matches_repeated_product(self, rng):
        rng = make_rng(7)
        for _ in range(10):
            phi = random_series(rng, 5)
            acc = PowerSeries([1, 0, 0, 0, 0, 0])
            for m in range(4):
                assert truncated_power(phi, m, 5) == acc
                acc = truncated_product(acc, phi, 5)


small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 3),
    st.lists(small, min_size=1, max_size=5),
    st.integers(1, 6),
    st.integers(0, 4),
    st.lists(small, min_size=1, max_size=8),
)
def test_polynomial_matches_its_zero_padding(zeros, body, k, m, f_coeffs):
    # a polynomial answers as its zero-padded truncation does, wherever
    # the padding reaches, and the padded series fails exactly past it
    c = [F(0)] * zeros + body
    assume(any(c))
    poly, padded = PowerSeries.polynomial(c), PowerSeries(c + [0] * k)
    order = len(c) - 1 + k
    n = len(f_coeffs) - 1
    f = Poly(f_coeffs[:-1] + [f_coeffs[-1] or 1])

    a, b = classify(poly), classify(padded)
    assert str(a) == str(b)
    assert b.normalized_from.coeffs == a.normalized_from.coeffs + (0,) * k
    (mu, psi), (mu_b, psi_b) = factor_out_zero(poly), factor_out_zero(padded)
    assert (mu, psi.truncation_order) == (mu_b, math.inf)
    assert psi_b == PowerSeries(psi.coeffs + (0,) * k)

    checks = [
        (n, lambda phi: truncated_power(phi, m, n)),
        (n, lambda phi: apply_operator(phi, f)),
        (n + mu, lambda phi: polya_lp_test(phi, max(n, 1))),
    ]
    for need, run in checks:
        if need <= order:
            assert run(poly) == run(padded)
        else:
            run(poly)
            with pytest.raises(TruncationTooShort):
                run(padded)
