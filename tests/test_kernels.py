"""Integer kernels of the exact operator layer against the Fraction formulas.

The references below are the plain Fraction (or mpmath) formulas the
kernels replaced: phi(D)f as a sum of repeated derivatives, the Taylor
shift by synthetic division (on rationals, and on integer lists for
integer shifts), the product of two polynomials as a double loop, and
phi^m by repeated Cauchy products.  The root finder's fixed-point Horner
is checked against exact Gaussian-integer evaluation.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import (
    Poly,
    PowerSeries,
    apply_operator,
    classify,
    find_roots,
    iterate_operator,
    poly,
    rescale_iterate,
    roots,
    translate,
    truncated_power,
)
from zerodyn.scalars import common_denominator
from conftest import make_rng, random_fraction, random_poly, random_series, to_mp

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MAX_DEGREE = 48


def ref_apply(alpha, c):
    """sum_n alpha_n f^(n), one derivative at a time."""
    out = [alpha[0] * x for x in c]
    der = list(c)
    for n in range(1, len(c)):
        der = [k * der[k] for k in range(1, len(der))]
        for j, x in enumerate(der):
            out[j] += alpha[n] * x
    return out


def ref_translate(c, shift):
    b = list(c)
    n = len(b)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] = b[j] + shift * b[j + 1]
    return b


def ref_product(a, b):
    """The Fraction double loop that Poly.__mul__ ran before it used the
    integer convolution of truncated series products."""
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_power(alpha, m, order):
    acc = [F(1)] + [F(0)] * order
    for _ in range(m):
        acc = [sum(acc[i] * alpha[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return acc


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
coeff_lists = st.lists(fractions, min_size=1, max_size=MAX_DEGREE + 1).filter(
    lambda c: c[-1] != 0
)
derandomized = hypothesis.settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


class TestExactKernels:
    @derandomized
    @hypothesis.given(coeff_lists, st.lists(fractions, min_size=MAX_DEGREE + 1, max_size=MAX_DEGREE + 1))
    def test_apply_operator_is_the_derivative_sum(self, c, alpha):
        d = len(c) - 1
        got = apply_operator(PowerSeries(alpha), Poly(c))
        assert list(got.coeffs) == _trim(ref_apply(alpha[: d + 1], c))

    def test_apply_operator_sparse_and_dense_series(self):
        rng = make_rng(7)
        for d in (1, 2, 5, 16, 31, MAX_DEGREE):
            f = random_poly(rng, d)
            for phi in (random_series(rng, d), PowerSeries([1, F(1, 2), F(-3, 8)] + [0] * d)):
                alpha = list(phi.coeffs[: d + 1])
                assert list(apply_operator(phi, f).coeffs) == _trim(ref_apply(alpha, list(f.coeffs)))

    def test_exact_apply_operator_never_differentiates(self, monkeypatch):
        def forbidden(f):
            raise AssertionError("derivative called on the exact path")

        monkeypatch.setattr(poly, "derivative", forbidden)
        rng = make_rng(3)
        f = random_poly(rng, 20)
        phi = random_series(rng, 20)
        assert list(apply_operator(phi, f).coeffs) == _trim(
            ref_apply(list(phi.coeffs), list(f.coeffs))
        )

    @derandomized
    @hypothesis.given(coeff_lists, fractions)
    def test_translate_is_synthetic_division(self, c, shift):
        got = translate(Poly(c), shift)
        assert list(got.coeffs) == _trim(ref_translate(c, shift))

    @derandomized
    @hypothesis.given(
        st.lists(fractions, min_size=1, max_size=13),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_truncated_power_is_repeated_cauchy(self, alpha, m, order):
        alpha = alpha + [F(0)] * (order + 1 - len(alpha))
        got = truncated_power(PowerSeries(alpha), m, order)
        assert all(type(c) is F for c in got.coeffs)
        assert list(got.coeffs) == ref_power(alpha, m, order)

    @derandomized
    @hypothesis.given(
        st.lists(fractions, max_size=MAX_DEGREE + 1), st.lists(fractions, max_size=MAX_DEGREE + 1)
    )
    def test_product_is_the_fraction_double_loop(self, a, b):
        # empty lists are the zero polynomial, one-entry lists constants
        got = Poly(a) * Poly(b)
        assert all(type(c) is F for c in got.coeffs)
        assert list(got.coeffs) == _trim(ref_product(_trim(a), _trim(b)))

    def test_product_powers_shaped_like_the_construction(self):
        # build_partial_product multiplies powers (1 + gamma x)^d of stage factors
        rng = make_rng(13)
        for d in (1, 2, 3, 7, 16, 33):
            base = Poly([1, random_fraction(rng, 9, 64, nonzero=True)])
            want = [F(1)]
            for _ in range(d):
                want = ref_product(want, list(base.coeffs))
            assert list((base**d).coeffs) == want
            other = random_poly(rng, rng.randint(0, 20))
            assert list((base**d * other).coeffs) == ref_product(want, list(other.coeffs))

    @pytest.mark.parametrize("shift", [-100, -3, -1, 0, 1, 2, 27])
    def test_taylor_shift_is_the_double_loop(self, shift):
        # translate by an integer, one scaling and the running sums of
        # poly._taylor_shift, against the loop it replaced
        rng = make_rng(17 + shift)
        for n in range(1, 61):
            b = [rng.randint(-(10**9), 10**9) for _ in range(n)]
            got = translate(Poly(b), shift)
            assert list(got.coeffs) == _trim(ref_translate(b, shift)), n

    def test_truncated_power_at_benchmark_size(self):
        rng = make_rng(11)
        phi = random_series(rng, 30)
        for m in (1, 2, 20, 49):
            assert list(truncated_power(phi, m, 30).coeffs) == ref_power(list(phi.coeffs), m, 30)


class TestSympyShift:
    def test_translate_matches_sympy_shift(self):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        rng = make_rng(5)
        for d in (1, 3, 9, 24, MAX_DEGREE):
            f = random_poly(rng, d)
            c = random_fraction(rng, nonzero=True)
            desc = [sp.Rational(a.numerator, a.denominator) for a in reversed(f.coeffs)]
            shifted = sp.Poly(desc, x, domain="QQ").shift(sp.Rational(c.numerator, c.denominator))
            want = [F(int(a.p), int(a.q)) for a in reversed(shifted.all_coeffs())]
            assert list(translate(f, c).coeffs) == want


class TestOwnPrecision:
    """The one rounding of the polynomial layer, rescale_iterate at an
    irrational scale, runs at its stated precision, not mpmath's ambient one."""

    PREC = 512
    PHI = PowerSeries.polynomial([1, 1, -1])  # p = 2, alpha = 1
    F3 = Poly([F(1, 3), F(-2, 7), 0, 1])

    def _rescaled(self):
        g = iterate_operator(self.PHI, self.F3, 8)
        return rescale_iterate(classify(self.PHI), g, 8, self.PREC)

    def _check(self, got):
        # coefficient k of g = phi(D)^8 f (x - 8), times 8^((k-3)/2)
        g = translate(iterate_operator(self.PHI, self.F3, 8), -8)
        assert len(got.coeffs) == len(g.coeffs)
        with mp.workprec(2 * self.PREC):
            for k, (c, gk) in enumerate(zip(got.coeffs, g.coeffs)):
                want = mp.mpf(8) ** (mp.mpf(k - 3) / 2) * to_mp(gk, 2 * self.PREC)
                assert abs(to_mp(c, 2 * self.PREC) - want) <= mp.ldexp(abs(want), 8 - self.PREC)

    def test_without_enclosing_context(self):
        assert mp.mp.prec == 53
        self._check(self._rescaled())

    @pytest.mark.parametrize("ambient", [64, 512, 2048])
    def test_inside_an_enclosing_context(self, ambient):
        with mp.workprec(ambient):
            got = self._rescaled()
        assert got == self._rescaled()
        self._check(got)


class TestCommonDenominator:
    def test_numerators_over_lcm(self):
        nums, den = common_denominator([F(1, 6), F(-3, 4), F(0), F(5)])
        assert den == 12
        assert nums == [2, -9, 0, 60]
        assert common_denominator([]) == ([], 1)

    def test_integer_part_is_primitive(self):
        assert roots._integer_part([F(2, 3), F(4, 9), F(-2)]) == [3, 2, -9]


def _dist2(z, w):
    return (z.real - w.real) ** 2 + (z.imag - w.imag) ** 2


def _pair_by_search(located):
    """The quadratic nearest-conjugate search in Fractions, for comparison."""
    rest, out = list(located), []
    while rest:
        z = rest.pop(0)
        zc = z[0].conjugate()
        w = min(rest, key=lambda t: _dist2(t[0], zc), default=None)
        if w is not None and _dist2(w[0], zc) < _dist2(z[0], zc):
            rest.remove(w)
            out += sorted([z, w], key=lambda t: t[0].imag)
        else:
            out.append(z)
    return out


class TestConjugatePairing:
    """find_roots lists each exact conjugate pair as the quadratic
    nearest-conjugate search does on the sorted roots."""

    def _inputs(self):
        rng = make_rng(17)
        yield Poly([1, 0, 3, 0, 1])  # x^4 + 3x^2 + 1: pairs on the imaginary axis
        # three pairs on the line Re z = -1/3, their real parts rounded off it
        yield translate(Poly([1, 0, 1]) * Poly([4, 0, 1]) * Poly([9, 0, 1]), F(1, 3))
        for _ in range(8):  # coprime products with repeated factors, no zero root
            c = F(rng.randint(1, 50), rng.randint(1, 9))
            g = random_poly(rng, rng.randint(1, 5))
            f = g * random_poly(rng, rng.randint(1, 4)) ** 2 * Poly([c, 0, 1]) ** 3
            if f.coeffs[0]:
                yield f

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_same_order_as_the_search(self, bits):
        rng = make_rng(bits)
        for f in self._inputs():
            located = [(r.location, r.multiplicity) for r in find_roots(f, bits).roots]
            shuffled = rng.sample(located, len(located))
            assert located == _pair_by_search(roots._sort_located(shuffled, bits))


@st.composite
def fixed_points(draw):
    """(F, x, y, k): integer F of degree 1-40 with about a quarter of its
    coefficients 0, and z = (x + iy)/2^k, 64 <= k <= 1100, with |z| between
    2^-30 and 2^11; y = 0 for real z.  The bits come from a seeded Random,
    so the products do not come out exact."""
    rnd = draw(st.randoms(use_true_random=False))
    n, k = draw(st.integers(1, 40)), draw(st.integers(64, 1100))
    mag = draw(st.integers(-30, 10))

    def part():
        return rnd.choice((-1, 1)) * (rnd.getrandbits(k + mag) | 1 << (k + mag - 1))

    F = [0 if rnd.random() < 0.25 else rnd.randint(-(2**40), 2**40) for _ in range(n)]
    F.append(rnd.choice((-1, 1)) * rnd.randint(1, 2**40))
    return F, part(), part() if draw(st.booleans()) else 0, k


def _exact_scaled(F, x, y, k):
    """F(z) 2^(kn) for z = (x + iy)/2^k, n = deg F, as a Gaussian integer."""
    re, im = F[-1], 0
    for t, c in enumerate(reversed(F[:-1]), start=1):
        re, im = re * x - im * y + (c << (k * t)), re * y + im * x
    return re, im


class TestFixedPointHorner:
    """The Newton ladder's fixed-point Horner against exact evaluation: the
    error stays within the bound ``_horner_noise`` returns."""

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(fixed_points())
    def test_error_within_the_bound(self, point):
        F, x, y, k = point
        for G in (F, roots._diff(F)):
            n = len(G) - 1
            a, b = roots._horner_fixed(G, x, y, k)
            bound = roots._horner_noise(n, x, y, k)
            # a + ib against F(z) 2^k, both times 2^(k n)
            re, im = _exact_scaled(G, x, y, k)
            dre, dim = (a << k * n) - (re << k), (b << k * n) - (im << k)
            assert dre * dre + dim * dim <= (bound << k * n) ** 2
            if not y:
                assert b == 0
