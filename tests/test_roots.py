"""Root finding, exact counting, and disk queries."""

import copy
import warnings
from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import exact, roots
from zerodyn import (
    DegreeZero,
    NoConvergence,
    Poly,
    PowerSeries,
    all_real_simple,
    count_nonreal,
    derivative,
    exp_dp_monomial,
    find_roots,
    iterate_operator,
    roots_in_disk,
)
from zerodyn.roots import _counted_roots
from zerodyn.scalars import Point
from conftest import as_mpc, dyadic, make_rng, random_poly


def P(*coeffs):
    return Poly(coeffs)


def _locate(rs, target, tol=1e-25):
    with mp.workprec(320):
        for r in rs.roots:
            if abs(as_mpc(r.location) - mp.mpc(target)) < tol:
                return r
    raise AssertionError(f"no root near {target}")


class TestFindRoots:
    def test_quadratic_conjugate_pair(self):
        rs = find_roots(P(2, 2, 1))
        assert rs.total_multiplicity() == 2
        _locate(rs, mp.mpc(-1, 1))
        _locate(rs, mp.mpc(-1, -1))

    def test_cube_root_structure(self):
        rs = find_roots(P(-6, 0, 0, 1))
        with mp.workprec(320):
            targets = [
                mp.root(mp.mpf(6), 3) * mp.expjpi(mp.mpf(2 * k) / 3)
                for k in range(3)
            ]
        for t in targets:
            _locate(rs, t)

    def test_perfect_cube_multiplicity(self):
        rs = find_roots(P(-1, 3, -3, 1))
        assert len(rs.roots) == 1
        root = rs.roots[0]
        assert root.multiplicity == 3
        assert abs(as_mpc(root.location) - 1) < 1e-20

    def test_origin_multiplicity_exact(self):
        rs = find_roots(P(0, 0, 0, 2, 1))
        zero = _locate(rs, 0)
        assert zero.multiplicity == 3

    def test_high_multiplicity_cluster(self):
        rs = find_roots(P(1, 1) ** 8)
        assert len(rs.roots) == 1
        assert rs.roots[0].multiplicity == 8
        # located from the square-free factor x + 1, not from a cluster
        assert abs(as_mpc(rs.roots[0].location) + 1) < 1e-70

    def test_twelvefold_root_has_its_yun_multiplicity(self):
        rs = find_roots(P(1, 1) ** 12)
        assert [r.multiplicity for r in rs.roots] == [12]
        assert abs(as_mpc(rs.roots[0].location) + 1) < 1e-70

    def test_mixed_exact_multiplicities(self):
        rs = find_roots(P(F(1, 3), 1) ** 9 * P(-2, 1))
        assert [r.multiplicity for r in rs.roots] == [9, 1]
        with mp.workprec(320):
            assert abs(as_mpc(rs.roots[0].location) + mp.mpf(1) / 3) < 1e-70
            assert abs(as_mpc(rs.roots[1].location) - 2) < 1e-70

    def test_floating_exact_cube_has_its_yun_multiplicity(self):
        rs = find_roots(dyadic(P(1, 1), 256) ** 3)
        assert [r.multiplicity for r in rs.roots] == [3]
        assert abs(as_mpc(rs.roots[0].location) + 1) < 1e-20

    def test_floating_cluster_comes_back_exactly_real(self):
        # (x-1)^3 (x^2+1) at 256 bits is exact: its triple root is certified
        # from the square-free factor x - 1, so it lies on the axis
        f = dyadic(P(-1, 1) ** 3 * P(1, 0, 1), 256)
        rs = find_roots(f, 256)
        assert [r.multiplicity for r in rs.roots] == [1, 1, 3]
        triple = rs.roots[2].location
        assert triple.imag == 0 and abs(as_mpc(triple) - 1) < 1e-20
        assert all(abs(abs(r.location.imag) - 1) < 1e-20 for r in rs.roots[:2])
        assert count_nonreal(f) == roots.ZeroCount(5, 3, 2, "exact", False)

    def test_rounded_double_root_is_two_simple_zeros(self):
        # (x - 1/3)^2 rounded to 128 bits stands for a square-free dyadic
        # polynomial: two simple zeros about 2^-64 apart, not one double zero
        f = dyadic(P(F(-1, 3), 1) ** 2, 128)
        rs = find_roots(f)
        assert [r.multiplicity for r in rs.roots] == [1, 1]
        with mp.workprec(320):
            assert all(abs(as_mpc(r.location) - mp.mpf(1) / 3) < 1e-15 for r in rs.roots)
        zc = count_nonreal(f)
        assert zc.method == "exact" and zc.squarefree
        assert zc.real_count == sum(r.location.imag == 0 for r in rs.roots)

    def test_nonreal_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly([1j, 0, 1])

    def test_residuals_certified(self):
        for f in (P(2, 2, 1), P(-6, 0, 0, 1), P(1, 5, -3, 2, 7)):
            rs = find_roots(f)
            assert all(r.residual < 2.0**-128 for r in rs.roots)

    def test_multiplicity_sums_to_degree(self, rng):
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 10))
            rs = find_roots(f)
            assert rs.total_multiplicity() == int(f.degree)

    def test_conjugate_symmetry_for_real_input(self, rng):
        with mp.workprec(320):
            for _ in range(10):
                f = random_poly(rng, rng.randint(2, 9))
                rs = find_roots(f)
                locs = [(as_mpc(r.location), r.multiplicity) for r in rs.roots]
                for z, mult in locs:
                    match = min(abs(mp.conj(z) - w) for w, _ in locs)
                    assert match < 1e-40

    def test_conjugate_pairs_listed_lower_first(self):
        # the two real parts of a pair differ only in iteration noise
        rng = make_rng(5)
        pairs = 0
        with mp.workprec(320):
            for _ in range(30):
                f = random_poly(rng, rng.randint(6, 16))
                for g in (f, dyadic(f, 128)):
                    locs = find_roots(g, 128).locations()
                    for k, z in enumerate(locs):
                        if z.imag > 1e-20:
                            pairs += 1
                            gap = as_mpc(locs[k - 1]) - mp.conj(as_mpc(z))
                            assert k > 0 and abs(gap) < 1e-30
        assert pairs > 200

    def test_determinism(self):
        f = P(3, -1, 4, -1, 5, 9)
        a = find_roots(f)
        b = find_roots(f)
        assert [str(r.location) for r in a.roots] == [
            str(r.location) for r in b.roots
        ]

    @pytest.mark.parametrize("bits", [0, -5, 1.5, True, "256"])
    def test_precision_below_one_rejected(self, bits):
        # 2^-p (1 + |r|) would promise nothing for p < 1
        with pytest.raises(ValueError, match="precision_bits"):
            find_roots(P(-2, 0, 1), bits)

    def test_precision_one_is_accepted(self):
        rs = find_roots(P(-2, 0, 1), 1)
        assert [r.location.imag for r in rs.roots] == [0, 0]
        assert [float(r.location.real) for r in rs.roots] == pytest.approx(
            [-(2**0.5), 2**0.5]
        )

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            find_roots(P(7))

    def test_imaginary_axis_pairs_ordered_by_imaginary_part(self):
        # exp(-D^4) x^20 has five conjugate pairs on the imaginary axis,
        # listed by imaginary part whatever their real parts.
        rs = find_roots(exp_dp_monomial(F(-1), 4, 20), 256)
        axis = [r.location for r in rs.roots if r.location.imag != 0]
        assert len(axis) == 10
        lower, upper = axis[0::2], axis[1::2]
        assert all(u.real == z.real and u.imag + z.imag == 0 for z, u in zip(lower, upper))
        heights = [abs(z.imag) for z in lower]
        assert heights == sorted(heights, reverse=True) or heights == sorted(heights)

    def test_noise_real_parts_do_not_decide_the_order(self):
        eps = F(1, 2**300)
        ims = [5, -1, 1, -5]
        for noise in ([1, -1, 2, 0], [-2, 0, 1, 1], [0, 0, 0, 0]):
            located = [(Point(n * eps, F(y)), 1) for n, y in zip(noise, ims)]
            ordered = roots._sort_located(located + [(Point(F(1), F(0)), 1)], 256)
            assert [t[0].imag for t in ordered] == [-5, -1, 1, 5, 0]


def _record(monkeypatch, name):
    """Record what the internal step ``roots.<name>`` returns on each call."""
    seen = []
    real = getattr(roots, name)

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(roots, name, recording)
    return seen


def _same_roots(a, b, tol):
    assert [r.multiplicity for r in a.roots] == [r.multiplicity for r in b.roots]
    with mp.workprec(600):
        for r in a.roots:
            z = as_mpc(r.location)
            d = min(abs(z - as_mpc(s.location)) for s in b.roots)
            assert d < tol * (1 + abs(z))


def _agrees_with_polyroots(rs, f, bits):
    """Each root of rational f within 2^(11 - bits) (1 + |r|) of mpmath's
    roots at twice the precision."""
    with mp.workprec(2 * bits):
        ref = mp.polyroots(
            [mp.mpf(c.numerator) / c.denominator for c in reversed(f.coeffs)],
            maxsteps=400,
            extraprec=2 * bits,
        )
        assert len(ref) == rs.total_multiplicity()
        for r in rs.roots:
            d_min = min(abs(as_mpc(r.location) - z) for z in ref)
            assert d_min < mp.ldexp(1 + abs(as_mpc(r.location)), 11 - bits)


def _from_roots(zs):
    """Ascending coefficients of the monic polynomial with zeros zs."""
    coeffs = [1]
    for z in zs:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= z * coeffs[k + 1]
    return coeffs


def _exactly_real_or_conjugate(locs, real_count):
    """``real_count`` roots with imaginary part exactly 0, the rest exact
    conjugate pairs, the lower member first."""
    assert sum(z.imag == 0 for z in locs) == real_count
    for k, z in enumerate(locs):
        if z.imag > 0:
            w = locs[k - 1]
            assert w.real == z.real and w.imag + z.imag == 0


class TestPrecisionLadder:
    def test_out_of_double_range_takes_circle_start(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        seen = _record(monkeypatch, "_double_seeds")
        base = find_roots(f)
        assert seen[-1] is not None
        for scale in (F(10) ** 400, F(1, 10**400)):
            rs = find_roots(f.scale(scale))
            assert seen[-1] is None
            _same_roots(rs, base, 1e-70)
        # the tight cluster, its coefficients or its zeros times 10^+-400:
        # the integer sweep starts from the circle |z| = 2^hi, on a grid
        # with bits for the smallest zero
        cluster = TestExactFallbackCertificate.CLUSTER
        for scale in (F(10) ** 400, F(1, 10**400)):
            for zeros, g in ((cluster, Poly(_from_roots(cluster)).scale(scale)),
                             ([z * scale for z in cluster], None)):
                rs = find_roots(g or Poly(_from_roots(zeros)), 64)
                assert seen[-1] is None
                _certified_against(rs, zeros, 64)

    def test_stalled_double_rung_seeds_working_rung(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        seen, starts = [], []
        seeds, fixed = roots._double_seeds, roots._fixed_sweep

        def stalling(source, hi):
            # the double sweep gives up after one sweep
            with monkeypatch.context() as m:
                m.setattr(roots, "MAX_SWEEPS", 1)
                seen.append(seeds(source, hi))
            return seen[-1]

        def recording(F, pts, k, wp):
            starts.append(([roots._place(z, k) for z in seen[-1]], list(pts)))
            return fixed(F, pts, k, wp)

        monkeypatch.setattr(roots, "_double_seeds", stalling)
        monkeypatch.setattr(roots, "_fixed_sweep", recording)
        _same_roots(find_roots(f), base, 1e-70)
        # the working rung starts from the positions reached, not the circle
        assert seen[-1] is not None
        assert len(starts) == 1 and starts[0][0] == starts[0][1]

    def test_certificate_inconclusive_takes_yun(self, monkeypatch):
        p = exact.SQUAREFREE_PRIME
        calls = []
        real = exact._yun_squarefree
        monkeypatch.setattr(
            exact, "_yun_squarefree", lambda c: calls.append(1) or real(c)
        )
        # lc divisible by p: (p x - 1)(x + 2), then with (p x - 1) squared
        rs = find_roots(P(-1, p) * P(2, 1))
        assert [r.multiplicity for r in rs.roots] == [1, 1]
        rs = find_roots(P(-1, p) ** 2 * P(2, 1))
        assert [r.multiplicity for r in rs.roots] == [1, 2]
        with mp.workprec(320):
            assert abs(as_mpc(rs.roots[1].location) - mp.mpf(1) / p) < 1e-90
        # square-free over Q, but x^2 + p = x^2 mod p
        rs = find_roots(P(p, 0, 1))
        assert [r.multiplicity for r in rs.roots] == [1, 1]
        assert len(calls) == 3

    def test_certificate_matches_yun_on_small_input(self, rng):
        for _ in range(30):
            f = random_poly(rng, rng.randint(1, 8))
            if rng.random() < 0.5:
                f = f * random_poly(rng, rng.randint(1, 3)) ** 2
            cs = list(f.coeffs)
            squarefree = [m for _, m in exact._yun_squarefree(cs)] == [1]
            assert exact._certified_squarefree(cs) == squarefree

    def test_yun_known_factors(self):
        # (x^2 + 1/3)^2 (x - 2/5)^3 (3x + 1): the monic factors are unique,
        # so find_roots solves the same Fraction lists however gcds scale
        f = P(F(1, 3), 0, 1) ** 2 * P(F(-2, 5), 1) ** 3 * P(1, 3)
        factors = exact._yun_squarefree(list(f.coeffs))
        assert factors == [
            ([F(1, 3), 1], 1),
            ([F(1, 3), 0, 1], 2),
            ([F(-2, 5), 1], 3),
        ]
        assert all(type(c) is F for g, _ in factors for c in g)

    def test_agrees_with_mpmath_polyroots(self, monkeypatch):
        ladder = _record(monkeypatch, "_newton_ladder")
        rng = make_rng(31)
        for d in (2, 5, 9, 14, 20, 30):
            f = random_poly(rng, d)
            rs = find_roots(f, 128)
            assert all(r.multiplicity == 1 for r in rs.roots)
            _agrees_with_polyroots(rs, f, 128)
        assert None not in ladder

    @pytest.mark.slow
    def test_iterate_past_the_old_sweep_budget(self, monkeypatch):
        # the tenth iterate of 1 + x/2 + 5x^2/8 at d = 48: the double rung
        # needs more than 100 sweeps, and its positions still seed the ladder
        phi = PowerSeries.polynomial([1, F(1, 2), F(5, 8)])
        f = iterate_operator(phi, random_poly(make_rng(1), 48), 10)
        seeds = _record(monkeypatch, "_double_seeds")
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f, 256)
        assert seeds[0] is not None and ladder[0] is not None
        _agrees_with_polyroots(rs, f, 256)


class TestNewtonLadder:
    @pytest.mark.parametrize(
        "bits, degrees", [(256, (3, 11, 19, 30)), (512, (4, 13, 24))]
    )
    def test_agrees_with_mpmath_polyroots(self, monkeypatch, bits, degrees):
        ladder = _record(monkeypatch, "_newton_ladder")
        rng = make_rng(bits)
        for d in degrees:
            f = random_poly(rng, d)
            rs = find_roots(f, bits)
            assert [r.multiplicity for r in rs.roots] == [1] * d
            _agrees_with_polyroots(rs, f, bits)
        assert None not in ladder

    @pytest.mark.parametrize("bits", [128, 512])
    def test_rung_zero_evaluates_on_ints(self, monkeypatch, bits):
        # certified at rung 0, Newton and the residuals run on Python ints:
        # the mpmath Horner is only ever handed doubles
        kinds = set()
        horner = roots._horner

        def recording(coeffs, z):
            kinds.update(type(v).__name__ for v in (*coeffs, z))
            return horner(coeffs, z)

        monkeypatch.setattr(roots, "_horner", recording)
        ladder = _record(monkeypatch, "_newton_ladder")
        rng = make_rng(bits + 1)
        for _ in range(8):
            find_roots(random_poly(rng, rng.randint(6, 24)), bits)
        assert len(ladder) == 8 and None not in ladder
        assert kinds and kinds <= {"float", "complex"}

    def test_real_roots_and_conjugate_pairs_are_exact(self, monkeypatch):
        ladder = _record(monkeypatch, "_newton_ladder")
        rng = make_rng(11)
        for _ in range(20):
            f = random_poly(rng, rng.randint(2, 16))
            real_count = count_nonreal(f).real_count
            for g in (f, dyadic(f, 256)):
                _exactly_real_or_conjugate(find_roots(g).locations(), real_count)
        assert len(ladder) > 0 and None not in ladder

    def test_overlapping_disks_take_the_sweep(self, monkeypatch):
        # 1 and 1 + 2^-60 are one double, so their disks overlap; the input
        # is square-free and reaches _aberth whole.  The ladder then
        # certifies the swept positions at the working precision.
        f = P(-1, 1) * P(-1 - F(1, 2**60), 1) * P(2, 0, 1)
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f, 128)
        assert ladder[0] is None and ladder[1] is not None and len(ladder) == 2
        _exactly_real_or_conjugate(rs.locations(), 2)
        with mp.workprec(320):
            expected = [
                mp.mpc(0, -mp.sqrt(2)),
                mp.mpc(0, mp.sqrt(2)),
                mp.mpf(1),
                1 + mp.ldexp(1, -60),
            ]
            for r, z in zip(rs.roots, expected, strict=True):
                assert r.multiplicity == 1
                assert abs(as_mpc(r.location) - z) < 1e-50

    def test_seeds_sharing_a_zero_are_not_isolated(self):
        # two seeds at the zero 1 and none at 2: each would refine to 1
        F = [18, -27, 11, -3, 1]  # (x - 1)(x - 2)(x^2 + 9)
        seeds = [roots._place(z, 106) for z in (1 + 1e-12, 1 - 1e-12, 3j, -3j)]
        disks = roots._fixed_disks(F, seeds, 106)
        assert roots._newton_ladder(F, disks, 106, 106, 256, 256) is None
        # the same for positions of a sweep at 256 bits, 1 +- 2^-200 and +-3i
        one, eps = 1 << 256, 1 << 56
        swept = [(one + eps, 0), (one - eps, 0), (0, 3 * one), (0, -3 * one)]
        disks = roots._fixed_disks(F, swept, 256)
        assert roots._newton_ladder(F, disks, 256, 256, 256, 256) is None

    def test_zero_outside_its_disk_takes_the_sweep(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        real, calls = roots._fixed_disks, []

        def shrunk(F, pts, k):
            # far below the double seeds' error: every refined zero leaves
            # its disk; the swept positions keep their true disks
            calls.append(k)
            disks = real(F, pts, k)
            return [(x, y, r >> 100) for x, y, r in disks] if len(calls) == 1 else disks

        monkeypatch.setattr(roots, "_fixed_disks", shrunk)
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f)
        _same_roots(rs, base, 1e-70)
        assert ladder[0] is None and ladder[1] is not None and len(ladder) == 2
        _exactly_real_or_conjugate(rs.locations(), 1)

    def test_unmet_bound_takes_the_sweep(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        # the bound 2^(GUARD_BITS - 1 - workprec) now lies below the working
        # precision's noise floor, so only the rung at twice it meets the
        # bound; the working precision itself is unchanged
        monkeypatch.setattr(roots, "GUARD_BITS", -roots.GUARD_BITS)
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f)
        _same_roots(rs, base, 1e-70)
        assert ladder[:2] == [None, None] and ladder[2] is not None
        assert len(ladder) == 3
        _exactly_real_or_conjugate(rs.locations(), 1)

    def test_axis_disk_with_crowded_hull_is_not_certified(self):
        # zeros 1 and 9/2 +- i/2; the seed 1 + i has radius 3, so its disk
        # meets the axis and misses the other disks, but its symmetric hull
        # D(1, 4) holds 9/2 - i/2: the zero in it is not proven real
        F = [-41, 59, -20, 2]  # 2 (x^3 - 10x^2 + 29.5x - 20.5)
        seeds = [roots._place(z, 106) for z in (1 + 1j, 4.5 + 0.5j, 4.5 - 0.5j)]
        disks = roots._fixed_disks(F, seeds, 106)
        assert disks[0][2] >> 100 == 3 << 6  # 3 to 100 bits
        assert roots._newton_ladder(F, disks, 106, 106, 256, 256) is None

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_even_input_has_exactly_imaginary_zeros(self, monkeypatch, bits):
        # F(-x) = F(x): a disk meeting the imaginary axis whose mirror hull
        # is isolated holds a zero with real part exactly 0
        ladder = _record(monkeypatch, "_newton_ladder")
        for f in (P(F(29, 126), 0, 1), P(1, 0, 3, 0, 1), exp_dp_monomial(F(-1), 4, 20)):
            rs = find_roots(f, bits)
            assert all(z.real == 0 for z in rs.locations() if z.imag != 0)
            _agrees_with_polyroots(rs, f, bits)
        assert None not in ladder

    def test_even_input_off_the_axis_keeps_its_real_part(self):
        # zeros +-1/8 +- i; the disk D(1/8 + i, 3/16) meets the imaginary
        # axis, but its mirror hull D(i, 5/16) holds -1/8 + i: it is
        # refined as a nonreal zero, off the axis
        even = [4225, 0, 8064, 0, 4096]  # (64x^2 - 16x + 65)(64x^2 + 16x + 65)
        disks = [(4, 32, 6), (-4, 32, 1), (4, -32, 6), (-4, -32, 1)]  # units of 1/32
        located = roots._newton_ladder(even, disks, 5, 106, 256, 256)
        assert sorted((z.real, z.imag) for z in located) == [
            (F(-1, 8), -1), (F(-1, 8), 1), (F(1, 8), -1), (F(1, 8), 1)
        ]


def _certified_against(rs, zeros, bits):
    """Each root within 2^-bits (1 + |r|) of its own one of the distinct
    ``zeros``, every zero matched once.  A zero is a rational, or a
    Gaussian rational a + ib given as the pair (a, b)."""
    matched = set()
    with mp.workprec(4 * bits):
        parts = [z if isinstance(z, tuple) else (z,) for z in zeros]
        exact = [mp.mpc(*(mp.mpf(q.numerator) / q.denominator for q in p)) for p in parts]
        for r in rs.roots:
            d, k = min((abs(as_mpc(r.location) - z), k) for k, z in enumerate(exact))
            assert r.multiplicity == 1 and d <= mp.ldexp(1 + abs(as_mpc(r.location)), -bits)
            matched.add(k)
    assert len(matched) == len(zeros)


def _clustered_zeros(rng):
    """3-10 distinct rationals, about 60 % of them within 50/10^s of one
    base point, s in (3, 5, 7)."""
    base = F(rng.randint(-2000, 2000), rng.randint(1, 200))
    zeros = set()
    for _ in range(rng.randint(3, 10)):
        while True:
            if rng.random() < 0.6:
                z = base + F(rng.randint(-50, 50), rng.choice((10**3, 10**5, 10**7)))
            else:
                z = F(rng.randint(-2000, 2000), rng.randint(1, 200))
            if z not in zeros:
                zeros.add(z)
                break
    return sorted(zeros)


class TestExactFallbackCertificate:
    # six real zeros within 2e-6 of -9.7778: the ladder's double seeds are
    # not isolated, and a bare working-precision sweep at 64 bits returns
    # them as three conjugate pairs with |Im| ~ 7e-6
    CLUSTER = [F(-97778, 10000) + F(k, 10**7) for k in (-20, -13, -5, 3, 11, 19)]

    def test_tight_real_cluster_is_certified(self, monkeypatch):
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(Poly(_from_roots(self.CLUSTER)), 64)
        assert ladder[0] is None
        _certified_against(rs, self.CLUSTER, 64)

    def test_uncertified_factor_is_resolved_then_rejected(self, monkeypatch):
        # the ladder certifies nothing after rung 0: the sweep climbs from
        # the working precision W = 128 to 2^MAX_PRECISION_DOUBLINGS W
        rungs, sweeps = [], []
        ladder, sweep = roots._newton_ladder, roots._fixed_sweep

        def failing(F, disks, g, start, cap, workprec):
            rungs.append((g, start, cap))
            return ladder(F, disks, g, start, cap, workprec) if start < cap else None

        def recording(F, pts, k, wp):
            sweeps.append((wp, k))
            return sweep(F, pts, k, wp)

        monkeypatch.setattr(roots, "_newton_ladder", failing)
        monkeypatch.setattr(roots, "_fixed_sweep", recording)
        seeds = _record(monkeypatch, "_double_seeds")
        with pytest.raises(NoConvergence) as info:
            find_roots(Poly(_from_roots(self.CLUSTER)), 64)
        climb = [128 << k for k in range(roots.MAX_PRECISION_DOUBLINGS + 1)]
        # rung 0 refines from 106 bits up to W; each sweep rung on its own grid
        assert [wp for wp, _ in sweeps] == climb and rungs[0][1:] == (106, 128)
        assert rungs[1:] == [(k, k, k) for _, k in sweeps]
        assert len(seeds) == 1
        best = info.value.best
        assert best.total_multiplicity() == len(self.CLUSTER)
        assert len(best.roots) == len(self.CLUSTER)
        # its positions are not exact conjugates: sorted, none paired
        located = [(r.location, r.multiplicity) for r in best.roots]
        shuffled = make_rng(5).sample(located, len(located))
        assert located == roots._sort_located(shuffled, 64)

    @pytest.mark.slow
    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_clustered_products_are_certified(self, monkeypatch, bits):
        # the fallback sweep alone misplaces roots in 37 of these 150
        # trials at 64 bits and leaves real zeros with nonzero imaginary
        # parts in about 90; the ladder on its positions certifies them all
        seeds = _record(monkeypatch, "_double_seeds")
        sweeps = []
        sweep = roots._fixed_sweep

        def recording(F, pts, k, wp):
            sweeps.append(wp)
            return sweep(F, pts, k, wp)

        monkeypatch.setattr(roots, "_fixed_sweep", recording)
        rng = make_rng(1)
        for _ in range(150):
            zeros = _clustered_zeros(rng)
            f = Poly(_from_roots(zeros))
            rs = find_roots(f, bits)
            _certified_against(rs, zeros, bits)
            real = sum(r.multiplicity for r in rs.roots if r.location.imag == 0)
            assert real == count_nonreal(f).real_count == len(zeros)
        assert len(seeds) == 150  # once per product, each one square-free factor
        if bits >= 128:
            # Newton on the exact integer polynomial, its noise bounded:
            # every factor the working-precision sweep takes is certified there
            assert sweeps and set(sweeps) == {roots._work_precision(bits)}


class TestExactPolynomialIsCertified:
    # zeros that no binary fraction holds: thirds and sevenths, and
    # Gaussian-rational pairs a +- ib, roots of x^2 - 2ax + a^2 + b^2
    REAL = [F(1, 3), F(-2, 7), F(5, 3), F(-13, 7)]
    PAIRS = [(F(1, 3), F(2, 7)), (F(-5, 7), F(1, 3)), (F(5, 3), F(1, 21))]

    @pytest.mark.parametrize("bits", [64, 128, 512])
    @pytest.mark.parametrize("cluster", [False, True], ids=["spread", "cluster"])
    def test_non_dyadic_zeros(self, bits, cluster):
        reals = self.REAL + (TestExactFallbackCertificate.CLUSTER if cluster else [])
        f = Poly(_from_roots(reals))
        for a, b in self.PAIRS:
            f = f * P(a * a + b * b, -2 * a, 1)
        rs = find_roots(f, bits)
        pairs = [(a, s * b) for a, b in self.PAIRS for s in (1, -1)]
        _certified_against(rs, reals + pairs, bits)
        _exactly_real_or_conjugate(rs.locations(), len(reals))


def _count_from_roots(rs):
    """The ZeroCount that the certified roots of ``rs`` give."""
    deg = rs.total_multiplicity()
    real = sum(r.multiplicity for r in rs.roots if r.location.imag == 0)
    squarefree = all(r.multiplicity == 1 for r in rs.roots)
    return roots.ZeroCount(deg, real, deg - real, "exact", squarefree)


class TestCountNonreal:
    def test_cubic_with_imaginary_pair(self):
        zc = count_nonreal(P(0, 6, 0, 1))
        assert (zc.total, zc.real_count, zc.nonreal_count) == (3, 1, 2)
        assert zc.method == "exact"

    def test_all_real_quartic(self):
        zc = count_nonreal(P(12, 0, -12, 0, 1))
        assert (zc.real_count, zc.nonreal_count) == (4, 0)

    def test_shifted_square(self):
        m = 7
        zc = count_nonreal(P(m * m - 3 * m, 2 * m, 1))
        assert (zc.real_count, zc.nonreal_count) == (2, 0)

    def test_multiplicities_counted(self):
        # (x^2+1)^2 (x-1)^3: 4 nonreal, 3 real, all with multiplicity
        f = P(1, 0, 1) * P(1, 0, 1) * P(-1, 1) ** 3
        zc = count_nonreal(f)
        assert (zc.total, zc.real_count, zc.nonreal_count) == (7, 3, 4)
        assert zc.squarefree is False

    def test_parity(self, rng):
        for _ in range(25):
            f = random_poly(rng, rng.randint(1, 9))
            assert count_nonreal(f).nonreal_count % 2 == 0

    def test_rolle_monotonicity(self, rng):
        # differentiation never creates nonreal zeros of real polynomials
        for _ in range(25):
            f = random_poly(rng, rng.randint(2, 9))
            assert (
                count_nonreal(derivative(f)).nonreal_count
                <= count_nonreal(f).nonreal_count
            )

    def test_exact_floating_agreement(self, rng):
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 12))
            exact = count_nonreal(f)
            floating = count_nonreal(dyadic(f, 256))
            assert exact.method == "exact" and floating.method == "exact"
            assert exact.real_count == floating.real_count
            assert exact.squarefree == floating.squarefree

    def test_given_rootset_matches_fresh_solve(self, rng):
        # the roots find_roots certifies real (imaginary part exactly 0)
        # are the exact count's real zeros, with multiplicity
        for _ in range(10):
            f = dyadic(random_poly(rng, rng.randint(1, 10)), 256)
            assert _count_from_roots(find_roots(f)) == count_nonreal(f)

    def test_degree_65_agrees_with_certified_roots(self):
        f = P(*([1] * 66))  # degree 65: counted by Descartes bisection
        assert count_nonreal(f) == _count_from_roots(find_roots(f))

    def test_degree_above_64_is_exact(self):
        # (x^66 - 1) / (x - 1): the 66th roots of unity but 1, of which
        # only -1 is real
        f = Poly([1] * 66)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zc = count_nonreal(f)
        assert zc == roots.ZeroCount(65, 1, 64, "exact", True)
        # zeros +-10^-10 i, which a 1e-9 relative realness band would
        # call real
        g = P(F(1, 10**20), 0, 1) * Poly([1] * 64)
        assert count_nonreal(g) == roots.ZeroCount(65, 1, 64, "exact", True)


class TestAllRealSimple:
    def test_trivial_cases(self):
        assert all_real_simple(P(-1, 0, 1)) is True
        assert all_real_simple(P(0, 0, 1)) is False
        assert all_real_simple(P(1, 0, 1)) is False

    def test_floating_route_matches_exact(self, rng):
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 8))
            assert all_real_simple(f) == all_real_simple(dyadic(f, 256))


class TestRootsInDisk:
    def test_counts(self):
        rs = find_roots(P(2, 2, 1))
        assert roots_in_disk(rs, Point(F(-1), F(1)), F(1, 2)) == 1
        assert roots_in_disk(rs, 0, 10) == 2
        assert roots_in_disk(rs, 5, F(1, 10)) == 0

    def test_multiplicity_weighting(self):
        rs = find_roots(P(-1, 3, -3, 1))
        assert roots_in_disk(rs, 1, F(1, 4)) == 3

    def test_zero_on_the_boundary_is_not_counted(self):
        rs = find_roots(P(2, 2, 1))
        before = copy.deepcopy(rs)
        # |(-1+i) - (-1)| = 1 exactly on the boundary: not certified inside
        assert roots_in_disk(rs, -1, 1) == 0
        assert rs == before

    def test_band_is_the_certificate(self):
        # at 256 bits a root 2^-100 inside the boundary is certified inside;
        # 2^-300 inside or outside is within the certificate, so not counted
        rs = find_roots(P(-1, 1), 256)
        assert roots_in_disk(rs, 0, 1 + F(1, 2**100)) == 1
        assert roots_in_disk(rs, 0, 1 + F(1, 2**300)) == 0
        assert roots_in_disk(rs, 0, 1 - F(1, 2**300)) == 0

    def test_counted_roots_come_nearest_first(self):
        rs = find_roots(P(-6, 11, -6, 1))  # zeros 1, 2, 3
        near = _counted_roots(rs, F(29, 10), 4)
        assert [round(r.location.real) for r in near] == [3, 2, 1]

    def test_radius_must_be_positive(self):
        rs = find_roots(P(2, 2, 1))
        with pytest.raises(ValueError):
            roots_in_disk(rs, 0, 0)

    @pytest.mark.parametrize("radius", [float("inf"), float("nan"), mp.inf])
    def test_radius_must_be_finite(self, radius):
        # floating input is a TypeError, as in Poly; a rational is finite
        rs = find_roots(P(2, 2, 1))
        with pytest.raises(TypeError, match="not an exact scalar"):
            roots_in_disk(rs, 0, radius)

    @pytest.mark.parametrize(
        "center", [complex("nan"), complex(0, float("inf")), mp.mpc(mp.inf, 1)]
    )
    def test_center_must_be_finite(self, center):
        rs = find_roots(P(2, 2, 1))
        with pytest.raises(TypeError, match="not an exact scalar"):
            roots_in_disk(rs, center, 1)
