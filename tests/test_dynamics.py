"""Onset scans, rescaled convergence, discrepancy surrogate, attractors."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import (
    NonMonicInput,
    NotGeneralForm,
    Point,
    Poly,
    PowerSeries,
    PureExponential,
    attractor_experiment,
    classify,
    convergence_experiment,
    exp_dp_monomial,
    find_roots,
    iterate_operator,
    monomial,
    onset_scan,
    operator_discrepancy,
    rescale_iterate,
    star_distance,
)
from conftest import as_mpc, mpf_to_fraction, to_mp

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def P(*coeffs):
    return Poly(coeffs)


PHI_A = PowerSeries.polynomial([1, 0, 1])    # 1 + x^2
PHI_B = PowerSeries.polynomial([1, 1, -1])   # 1 + x - x^2
PHI_C = PowerSeries.polynomial([1, 0, -1])   # 1 - x^2
PHI_D = PowerSeries.polynomial([1, 1, 0, 1])  # 1 + x + x^3


def as_point(z):
    """The mpc (or mpf) z as the exact Point its dyadic parts stand for."""
    return Point(mpf_to_fraction(mp.mpf(z.real)), mpf_to_fraction(mp.mpf(z.imag)))


class TestStarDistance:
    def test_on_ray(self):
        assert star_distance(1, 2) == 0

    def test_perpendicular_to_real_axis(self):
        assert star_distance(Point(F(0), F(1)), 2) == 1

    def test_oblique_point_planar_oracle(self):
        # independent oracle: rotate the point between two rays of the
        # p=3 star; its distance is |z| sin(angle to the nearest ray)
        with mp.workprec(128):
            z = mp.expjpi(mp.mpf(1) / 3)
            got = star_distance(as_point(z), 3)
            want = mp.sin(mp.pi / 3)
            assert abs(to_mp(got, 128) - want) < 1e-30

    def test_rotation_invariance(self):
        with mp.workprec(128):
            z = mp.mpc("1.3", "0.4")
            for p in (2, 3, 5):
                w = z * mp.expjpi(mp.mpf(2) / p)
                got = star_distance(as_point(z), p) - star_distance(as_point(w), p)
                assert abs(got) < 1e-30

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            star_distance(1, 1)


class TestOnsetScan:
    def test_contracting_regime_with_nonreal_start(self):
        rep = onset_scan(PHI_B, P(2, -2, 1), m_max=30)
        assert rep.mode == "AllRealSimple"
        assert rep.found and rep.m0 == 1
        assert rep.trace[0] == (1, 0)

    def test_persistent_regime_monomial(self):
        rep = onset_scan(PHI_A, monomial(3), m_max=30)
        assert rep.mode == "PersistentNonreal"
        assert rep.m0 == 1
        assert all(n == 2 for _, n in rep.trace)

    def test_hermite_type_all_real(self):
        # m=1 iterate x^4-12x^2 has a double zero, so simplicity sets in at 2
        rep = onset_scan(PHI_C, monomial(4), m_max=30)
        assert rep.mode == "AllRealSimple"
        assert rep.m0 == 2
        assert all(n == 0 for _, n in rep.trace)

    def test_trace_monotone_once_real(self):
        # contracting regime: after the count hits zero it stays zero
        f = P(2, -2, 1) * P(4, 0, 1)
        rep = onset_scan(PHI_B, f, m_max=60)
        counts = [n for _, n in rep.trace]
        first_zero = counts.index(0)
        assert all(n == 0 for n in counts[first_zero:])

    def test_pure_exponential_rejected(self):
        phi = PowerSeries(F(1, math.factorial(n)) for n in range(8))
        with pytest.raises(PureExponential):
            onset_scan(phi, monomial(3))

    def test_persistent_regime_needs_degree_at_least_p(self):
        phi = PowerSeries.polynomial([1, 1, F(1, 2), 1])  # p = 3
        with pytest.raises(ValueError):
            onset_scan(phi, monomial(2))


class TestConvergence:
    def test_exact_rate_hermite_family(self):
        rep = convergence_experiment(PHI_C, monomial(4), range(1, 51))
        for m, err in rep.samples:
            assert err == F(12, m)
        assert rep.fitted_slope == pytest.approx(-1.0, abs=1e-9)
        assert rep.limit_poly == P(12, 0, -12, 0, 1)

    def test_exact_convergence_family(self):
        rep = convergence_experiment(PHI_A, monomial(3), range(1, 30))
        assert rep.exact_convergence
        assert rep.fitted_slope is None
        assert all(e == 0 for _, e in rep.samples)

    def test_half_rate_family(self):
        rep = convergence_experiment(PHI_D, monomial(5), range(10, 401, 10))
        assert rep.p == 2 and rep.beta == F(-1, 2)
        assert rep.fitted_slope <= -0.5 + 0.1

    def test_tail_bounded_by_fitted_constant(self):
        # fit C on the first half, validate err <= C m^(-1/p) on the second
        rep = convergence_experiment(PHI_D, monomial(5), range(10, 401, 10))
        n = len(rep.samples)
        first, second = rep.samples[: n // 2], rep.samples[n // 2 :]
        c = max(float(e) * math.sqrt(m) for m, e in first)
        for m, e in second:
            assert float(e) <= c / math.sqrt(m) * (1 + 1e-9)

    def test_errors_nonnegative(self):
        rep = convergence_experiment(PHI_B, monomial(4), [1, 3, 7, 20])
        assert all(e >= 0 for _, e in rep.samples)

    def test_requires_general_form(self):
        phi = PowerSeries(F(1, math.factorial(n)) for n in range(8))
        with pytest.raises(NotGeneralForm):
            convergence_experiment(phi, monomial(3), [1, 2])

    def test_rounded_scale_errors_are_exact(self):
        # 2, 3, 8 are not squares: x^3 + 1/3 is rescaled by rounding, and
        # the error is that of the rounded iterate, computed exactly
        f = P(F(1, 3), 0, 0, 1)
        cls = classify(PHI_B)
        rep = convergence_experiment(PHI_B, f, [2, 3, 8])
        for m, err in rep.samples:
            assert type(err) is F
            fm = rescale_iterate(cls, iterate_operator(PHI_B, f, m), m)
            assert err == (fm - rep.limit_poly).sup_norm()


@pytest.mark.parametrize("m_list", [[2.5, 3.9], [1.0], [0], [-1, 2], [], [2, "3"], [True]])
@pytest.mark.parametrize("experiment", ["converge", "attractor"])
def test_m_list_must_hold_ints_at_least_one(experiment, m_list):
    with pytest.raises(ValueError, match="m_list must contain integers >= 1"):
        if experiment == "converge":
            convergence_experiment(PHI_B, monomial(2), m_list)
        else:
            attractor_experiment(PHI_B, monomial(2), m_list, 0.1)


@pytest.mark.parametrize("f", [P(1, 0, 2), P(1)], ids=["leading-2", "degree-0"])
@pytest.mark.parametrize("experiment", ["converge", "attractor"])
def test_f_must_be_monic_of_degree_at_least_one(experiment, f):
    with pytest.raises(NonMonicInput, match="monic of degree >= 1"):
        if experiment == "converge":
            convergence_experiment(PHI_B, f, [1, 2])
        else:
            attractor_experiment(PHI_B, f, [1, 2], 0.1)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _outcome(run, *args):
    """run(*args), or the type and message of the input error it raises."""
    try:
        return run(*args)
    except ValueError as exc:  # onset's persistence regime needs deg f >= p
        return type(exc), str(exc)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(small, min_size=2, max_size=4),
    small.filter(bool),
    st.lists(small, min_size=2, max_size=4),
)
def test_scaled_series_gives_the_reports_of_phi(tail, c, f_low):
    # c * phi classifies as phi does, and every experiment iterates phi / phi(0)
    phi = PowerSeries.polynomial([1, *tail])
    hypothesis.assume(classify(phi).is_general)
    scaled = PowerSeries.polynomial([c * a for a in phi.coeffs])
    f, ms = Poly([*f_low, 1]), [1, 2, 4]
    runs = [
        (convergence_experiment, f, ms),
        (onset_scan, f, 4),
        (attractor_experiment, f, ms, 0.5, 64),
    ]
    for run, *args in runs:
        assert _outcome(run, scaled, *args) == _outcome(run, phi, *args), run.__name__


class TestDiscrepancy:
    def test_exact_ratio_between_sample_points(self):
        cls = classify(PHI_C)
        d100 = operator_discrepancy(cls, 4, 100)
        d400 = operator_discrepancy(cls, 4, 400)
        assert d100 == F(3, 25) and d400 == F(3, 100)
        assert d100 / d400 == 4

    def test_hand_oracle_small_case(self):
        # 1 + x^2 at order 3: composite (1 + x^2/m)^m and exp(x^2) agree
        # through x^3, so the gap vanishes; first mismatch is at order 4
        cls = classify(PHI_A)
        assert operator_discrepancy(cls, 3, 1) == 0
        # hand expansion at order 4: composite x^4 coefficient (m-1)/(2m)
        # vs 1/2, so the x^4 image of the gap has sup-norm 4!/(2m) = 12/m
        for m in (1, 4, 9):
            assert operator_discrepancy(cls, 4, m * m) == F(12, m * m)

    def test_degenerate_below_p_exact_and_floating(self):
        phi = PowerSeries.polynomial([1, 1, F(1, 2), F(1, 6), 0])
        cls = classify(phi)
        assert cls.p == 4
        for d in (0, 1, 2, 3):
            assert operator_discrepancy(cls, d, 16) == 0
        assert operator_discrepancy(cls, 3, 10) == 0

    def test_rate_consistent_with_inverse_sqrt_bound(self):
        cls = classify(PHI_D)
        vals = [
            float(operator_discrepancy(cls, 5, m)) for m in (100, 400, 1600)
        ]
        for a, b in zip(vals, vals[1:]):
            assert b < a / 1.9  # decays at least like m^(-1/2)


def reference_discrepancy(phi, d, m, prec=1024):
    """exp(-m^(1-1/p) alpha x) * phi(m^(-1/p) x)^m - exp(beta x^p), built
    in mpmath at ``prec`` bits by m plain multiplications; returns the
    largest sup-norm of its images of x^j, j <= d (the x^d image)."""
    cls = classify(phi)
    with mp.workprec(prec):
        c = mp.mpf(m) ** (-mp.mpf(1) / cls.p)
        scaled = [mp.mpf(a.numerator) / a.denominator * c**n
                  for n, a in enumerate(cls.normalized_from.head(d))]

        def times(u, v):
            return [mp.fsum(u[i] * v[n - i] for i in range(n + 1)) for n in range(d + 1)]

        composite = [mp.mpf(1)] + [mp.mpf(0)] * d
        for _ in range(m):
            composite = times(composite, scaled)
        a = -m * c * mp.mpf(cls.alpha.numerator) / cls.alpha.denominator
        composite = times([a**k / mp.factorial(k) for k in range(d + 1)], composite)
        beta = mp.mpf(cls.beta.numerator) / cls.beta.denominator
        for k in range(d // cls.p + 1):
            composite[cls.p * k] -= beta**k / mp.factorial(k)
        return max(abs(x) * mp.factorial(d) / mp.factorial(d - n)
                   for n, x in enumerate(composite))


class TestDiscrepancyOracle:
    @pytest.mark.parametrize(
        "coeffs, d, m",
        [
            ([1, 0, 0, F(1, 2)], 30, 20),           # disc-d30-p3 shape
            ([1, F(1, 2), F(1, 8), F(-1, 3)], 12, 7),
            ([1, -1, F(1, 4)], 30, 50),
            ([1, 1, F(3, 4)], 9, 3),
        ],
    )
    def test_rounded_value_against_1024_bit_composite(self, coeffs, d, m):
        phi = PowerSeries.polynomial(coeffs)
        got = operator_discrepancy(classify(phi), d, m, 256)
        assert type(got) is F and got.denominator & (got.denominator - 1) == 0
        want = reference_discrepancy(phi, d, m)
        with mp.workprec(1024):
            assert want > 0
            assert abs(to_mp(got, 1024) - want) <= mp.ldexp(want, -200)


class TestAttractor:
    def test_exact_coincidence_family(self):
        rep = attractor_experiment(PHI_A, monomial(3), [1, 2, 5, 10], 0.1)
        assert abs(to_mp(rep.gamma, 256) - 1j) < 1e-30
        for rec in rep.records:
            assert rec.containment_epsilon_needed < 1e-30
            assert rec.contained

    def test_closed_form_pullback(self):
        rep = attractor_experiment(PHI_B, monomial(2), [100], 0.01)
        with mp.workprec(256):
            assert abs(to_mp(rep.gamma, 256) - mp.sqrt(mp.mpf(3) / 2)) < 1e-60
        assert rep.records[0].containment_epsilon_needed < 1e-30

    def test_decreasing_containment(self):
        rep = attractor_experiment(PHI_C, monomial(5), list(range(1, 61)), 0.1)
        eps = [r.containment_epsilon_needed for r in rep.records]
        assert eps[-1] < eps[0]
        assert all(r.all_simple for r in rep.records[5:])

    def test_simplicity_not_recorded_off_residue_classes(self):
        # p = 2: every degree is 0 or 1 mod p, so take p = 3 and d = 5
        phi = PowerSeries.polynomial([1, 0, 0, 1])
        rep = attractor_experiment(phi, monomial(5), [3], 0.5)
        assert rep.records[0].all_simple is None

    def test_pullback_matches_rescaled_roots(self):
        # zero sets correspond under z -> (z + m alpha)/m^(1/p), with
        # multiplicities (here all simple)
        cls = classify(PHI_B)
        f = P(2, -2, 1) * P(4, 0, 1)
        m = 9
        g = iterate_operator(PHI_B, f, m)
        fm = rescale_iterate(cls, g, m)
        with mp.workprec(256):
            pulled = []
            for r in find_roots(g).roots:
                w = (as_mpc(r.location) + m * 1) / mp.sqrt(mp.mpf(m))
                pulled.extend([w] * r.multiplicity)
            direct = []
            for r in find_roots(fm).roots:
                direct.extend([as_mpc(r.location)] * r.multiplicity)
            assert len(pulled) == len(direct)
            for w in pulled:
                assert min(abs(w - z) for z in direct) < 1e-40


def _mpc_attractor(phi, f, ms, epsilon, bits):
    """(m, epsilon needed, star distance, contained) per m, from the mpc
    distance loop the attractor ran before it moved to integers, at 4 bits:
    gamma by ``mp.root``, the rays as exp(2 pi i k / p), |w - q| per pair."""
    cls = classify(phi)
    p, d = cls.p, int(f.degree)
    with mp.workprec(4 * bits):
        gamma = mp.root(-to_mp(cls.beta, 4 * bits), p)
        rays = [mp.expjpi(mp.mpf(2 * k) / p) for k in range(p)]
        base = find_roots(exp_dp_monomial(F(-1), p, d), bits)
        limit = [gamma * as_mpc(r.location) for r in base.roots]
        out = []
        for m in ms:
            scale = mp.mpf(m) ** (mp.mpf(1) / p)
            shift = m * to_mp(cls.alpha, 4 * bits)
            ws = [
                (as_mpc(r.location) + shift) / scale
                for r in find_roots(iterate_operator(phi, f, m), bits).roots
            ]
            eps = max(min(abs(w - q) for q in limit) for w in ws)
            star = 0
            for u in (w / gamma for w in ws):
                near = []
                for r in rays:
                    t = (u * mp.conj(r)).real
                    near.append(abs(u) if t <= 0 else abs(u - t * r))
                star = max(star, min(near))
            out.append((m, float(eps), float(star), eps < epsilon))
    return gamma, out


class TestAttractorOracle:
    F4 = P(2, -2, 1) * P(4, 0, 1)  # zeros 1 +- i and +-2i

    @pytest.mark.parametrize(
        "phi, ms",
        [
            (PHI_B, [1, 2, 4, 8, 9]),  # p = 2, beta = -3/2: gamma real
            (PHI_A, [1, 3, 4, 9, 10]),  # p = 2, beta = 1: gamma = i
            (PowerSeries.polynomial([1, F(1, 2), F(1, 8), F(1, 5)]), [1, 2, 8, 27]),
        ],
        ids=["p2-beta-negative", "p2-beta-positive", "p3"],
    )
    def test_matches_the_mpc_distance_loop(self, phi, ms):
        bits, epsilon = 128, 0.75
        gamma, want = _mpc_attractor(phi, self.F4, ms, epsilon, bits)
        rep = attractor_experiment(phi, self.F4, ms, epsilon, bits)
        with mp.workprec(4 * bits):
            assert abs(to_mp(rep.gamma, 4 * bits) - gamma) <= mp.ldexp(1 + abs(gamma), -bits)
        assert len({c for *_, c in want}) == 2  # both flags occur
        for rec, (m, eps, star, contained) in zip(rep.records, want, strict=True):
            assert (rec.m, rec.contained) == (m, contained)
            for got, exp in ((rec.containment_epsilon_needed, eps),
                             (rec.max_scaled_star_distance, star)):
                assert abs(got - exp) <= 2.0**-50 * max(abs(exp), abs(got)), (m, got, exp)
