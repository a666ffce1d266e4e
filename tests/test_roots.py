"""Root finding, exact counting, and disk queries."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import roots
from zerodyn import (
    DegreeZero,
    Poly,
    PowerSeries,
    all_real_simple,
    count_nonreal,
    derivative,
    extend,
    find_roots,
    iterate_operator,
    roots_in_disk,
)
from conftest import make_rng, random_poly


def P(*coeffs):
    return Poly(coeffs)


def _locate(rs, target, tol=1e-25):
    with mp.workprec(320):
        for r in rs.roots:
            if abs(r.location - mp.mpc(target)) < tol:
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
        assert abs(root.location - 1) < 1e-20

    def test_origin_multiplicity_exact(self):
        rs = find_roots(P(0, 0, 0, 2, 1))
        zero = _locate(rs, 0)
        assert zero.multiplicity == 3

    def test_high_multiplicity_cluster(self):
        rs = find_roots(P(1, 1) ** 8)
        assert len(rs.roots) == 1
        assert rs.roots[0].multiplicity == 8
        # located from the square-free factor x + 1, not from a cluster
        assert abs(rs.roots[0].location + 1) < 1e-70

    def test_multiplicity_beyond_cluster_merge(self):
        rs = find_roots(P(1, 1) ** 12)
        assert [r.multiplicity for r in rs.roots] == [12]
        assert abs(rs.roots[0].location + 1) < 1e-70

    def test_mixed_exact_multiplicities(self):
        rs = find_roots(P(F(1, 3), 1) ** 9 * P(-2, 1))
        assert [r.multiplicity for r in rs.roots] == [9, 1]
        with mp.workprec(320):
            assert abs(rs.roots[0].location + mp.mpf(1) / 3) < 1e-70
            assert abs(rs.roots[1].location - 2) < 1e-70

    def test_floating_input_merges_clusters(self):
        rs = find_roots(P(1, 1).to_floating(256) ** 3)
        assert [r.multiplicity for r in rs.roots] == [3]
        assert abs(rs.roots[0].location + 1) < 1e-20

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
                locs = [(r.location, r.multiplicity) for r in rs.roots]
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
                for g in (f, f.to_floating(128)):
                    locs = find_roots(g, 128).locations()
                    for k, z in enumerate(locs):
                        if z.imag > 1e-20:
                            pairs += 1
                            assert k > 0 and abs(locs[k - 1] - mp.conj(z)) < 1e-30
        assert pairs > 200

    def test_determinism(self):
        f = P(3, -1, 4, -1, 5, 9)
        a = find_roots(f)
        b = find_roots(f)
        assert [str(r.location) for r in a.roots] == [
            str(r.location) for r in b.roots
        ]

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeZero):
            find_roots(P(7))


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
            d = min(abs(r.location - s.location) for s in b.roots)
            assert d < tol * (1 + abs(r.location))


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
            d_min = min(abs(r.location - z) for z in ref)
            assert d_min < mp.ldexp(1 + abs(r.location), 11 - bits)


def _from_roots(zs):
    """Ascending coefficients of the monic polynomial with zeros zs."""
    coeffs = [1]
    for z in zs:
        coeffs = [0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= z * coeffs[k + 1]
    return coeffs


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

    def test_stalled_double_rung_seeds_working_rung(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        seen = _record(monkeypatch, "_double_seeds")
        starts = []
        real = roots._sweep

        def stalling(coeffs, dcoeffs, zs, eps, stall_stop=False):
            if stall_stop:  # the double rung gives up after one sweep
                with monkeypatch.context() as m:
                    m.setattr(roots, "MAX_SWEEPS", 1)
                    return real(coeffs, dcoeffs, zs, eps, stall_stop)
            starts.append(list(zs))
            return real(coeffs, dcoeffs, zs, eps, stall_stop)

        monkeypatch.setattr(roots, "_sweep", stalling)
        _same_roots(find_roots(f), base, 1e-70)
        # the working rung starts from the positions reached, not the circle
        assert seen[-1] is not None
        assert starts == [[mp.mpc(z) for z in seen[-1]]]

    def test_certificate_inconclusive_takes_yun(self, monkeypatch):
        p = roots.SQUAREFREE_PRIME
        calls = []
        real = roots._yun_squarefree
        monkeypatch.setattr(
            roots, "_yun_squarefree", lambda c: calls.append(1) or real(c)
        )
        # lc divisible by p: (p x - 1)(x + 2), then with (p x - 1) squared
        rs = find_roots(P(-1, p) * P(2, 1))
        assert [r.multiplicity for r in rs.roots] == [1, 1]
        rs = find_roots(P(-1, p) ** 2 * P(2, 1))
        assert [r.multiplicity for r in rs.roots] == [1, 2]
        with mp.workprec(320):
            assert abs(rs.roots[1].location - mp.mpf(1) / p) < 1e-90
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
            squarefree = [m for _, m in roots._yun_squarefree(cs)] == [1]
            assert roots._certified_squarefree(cs) == squarefree

    def test_yun_known_factors(self):
        # (x^2 + 1/3)^2 (x - 2/5)^3 (3x + 1): the monic factors are unique,
        # so find_roots solves the same Fraction lists however gcds scale
        f = P(F(1, 3), 0, 1) ** 2 * P(F(-2, 5), 1) ** 3 * P(1, 3)
        factors = roots._yun_squarefree(list(f.coeffs))
        assert factors == [
            ([F(1, 3), 1], 1),
            ([F(1, 3), 0, 1], 2),
            ([F(-2, 5), 1], 3),
        ]
        assert all(type(c) is F for g, _ in factors for c in g)

    def test_exact_input_never_merges(self, monkeypatch, rng):
        def forbidden(*args):
            raise AssertionError("cluster merge reached on exact input")

        monkeypatch.setattr(roots, "_merge_clusters", forbidden)
        for f in (P(1, 1) ** 12, P(F(1, 3), 1) ** 9 * P(-2, 1), random_poly(rng, 9)):
            find_roots(f)

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
        phi = extend(PowerSeries([1, F(1, 2), F(5, 8)]), 48)
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

    def test_real_roots_and_conjugate_pairs_are_exact(self, monkeypatch):
        ladder = _record(monkeypatch, "_newton_ladder")
        rng = make_rng(11)
        for _ in range(20):
            f = random_poly(rng, rng.randint(2, 16))
            real_count = count_nonreal(f).real_count
            for g in (f, f.to_floating(256)):
                locs = find_roots(g).locations()
                assert sum(z.imag == 0 for z in locs) == real_count
                for k, z in enumerate(locs):
                    if z.imag > 0:  # the lower member precedes, exactly conj(z)
                        w = locs[k - 1]
                        assert w.real == z.real and w.imag + z.imag == 0
        assert len(ladder) > 0 and None not in ladder

    def test_overlapping_disks_take_the_sweep(self, monkeypatch):
        # 1 and 1 + 2^-60 are one double, so their disks overlap; the input
        # is square-free and reaches _aberth whole
        f = P(-1, 1) * P(-1 - F(1, 2**60), 1) * P(2, 0, 1)
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f, 128)
        assert ladder == [None]
        with mp.workprec(320):
            expected = [
                mp.mpc(0, -mp.sqrt(2)),
                mp.mpc(0, mp.sqrt(2)),
                mp.mpf(1),
                1 + mp.ldexp(1, -60),
            ]
            for r, z in zip(rs.roots, expected, strict=True):
                assert r.multiplicity == 1
                assert abs(r.location - z) < 1e-50

    def test_complex_coefficients_take_the_mpc_branch(self, monkeypatch):
        zeros = [mp.mpc(1, 2), mp.mpc(0, -0.5), mp.mpc(3), mp.mpc(-2, 0.25)]
        f = Poly(_from_roots(zeros), 256)
        assert not f.is_real()
        ladder = _record(monkeypatch, "_newton_ladder")
        rs = find_roots(f, 256)
        assert len(ladder) == 1 and ladder[0] is not None
        for z in zeros:
            assert _locate(rs, z, 1e-140).multiplicity == 1

    def test_seeds_sharing_a_zero_are_not_isolated(self):
        # two seeds at the zero 1 and none at 2: each would refine to 1
        with mp.workprec(256):
            coeffs = [mp.mpc(c) for c in _from_roots([1, 2, 3j])]
            dcoeffs = [k * coeffs[k] for k in range(1, 4)]
            seeds = [1 + 1e-12, 1 - 1e-12, 3j]
            assert roots._newton_ladder(coeffs, dcoeffs, seeds, 256) is None

    def test_zero_outside_its_disk_takes_the_sweep(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        real = roots._inclusion_radii
        # far below the seeds' error: every refined zero leaves its disk
        monkeypatch.setattr(
            roots, "_inclusion_radii", lambda c, zs: [r * 1e-30 for r in real(c, zs)]
        )
        ladder = _record(monkeypatch, "_newton_ladder")
        _same_roots(find_roots(f), base, 1e-70)
        assert ladder == [None]

    def test_unmet_bound_takes_the_sweep(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        # the bound 2^(GUARD_BITS - 1 - workprec) now lies below the working
        # precision's noise floor; the working precision itself is unchanged
        monkeypatch.setattr(roots, "GUARD_BITS", -roots.GUARD_BITS)
        ladder = _record(monkeypatch, "_newton_ladder")
        _same_roots(find_roots(f), base, 1e-70)
        assert ladder == [None]

    def test_axis_disk_with_crowded_hull_is_not_certified(self):
        # zeros 1 and 9/2 +- i/2; the seed 1 + i has radius 3, so its disk
        # meets the axis and misses the other disks, but its symmetric hull
        # D(1, 4) holds 9/2 - i/2: the zero in it is not proven real
        with mp.workprec(256):
            coeffs = [mp.mpc(c) for c in (-20.5, 29.5, -10, 1)]
            dcoeffs = [k * coeffs[k] for k in range(1, 4)]
            seeds = [1 + 1j, 4.5 + 0.5j, 4.5 - 0.5j]
            assert roots._newton_ladder(coeffs, dcoeffs, seeds, 256) is None


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
            floating = count_nonreal(f.to_floating(256), tol=1e-9)
            assert exact.method == "exact" and floating.method == "floating"
            assert exact.real_count == floating.real_count
            assert exact.squarefree == floating.squarefree

    def test_given_rootset_matches_fresh_solve(self, rng):
        for _ in range(10):
            f = random_poly(rng, rng.randint(1, 10)).to_floating(256)
            assert count_nonreal(f, rs=find_roots(f)) == count_nonreal(f)

    def test_degree_above_exact_limit_warns(self):
        f = Poly([1] * 66)  # degree 65
        with pytest.warns(UserWarning):
            zc = count_nonreal(f)
        assert zc.method == "floating"
        assert zc.total == 65


class TestAllRealSimple:
    def test_trivial_cases(self):
        assert all_real_simple(P(-1, 0, 1)) is True
        assert all_real_simple(P(0, 0, 1)) is False
        assert all_real_simple(P(1, 0, 1)) is False

    def test_floating_route_matches_exact(self, rng):
        for _ in range(15):
            f = random_poly(rng, rng.randint(1, 8))
            assert all_real_simple(f) == all_real_simple(f.to_floating(256))


class TestRootsInDisk:
    def test_counts(self):
        rs = find_roots(P(2, 2, 1))
        assert roots_in_disk(rs, mp.mpc(-1, 1), 0.5) == 1
        assert roots_in_disk(rs, 0, 10) == 2
        assert roots_in_disk(rs, 5, 0.1) == 0

    def test_multiplicity_weighting(self):
        rs = find_roots(P(-1, 3, -3, 1))
        assert roots_in_disk(rs, 1, 0.25) == 3

    def test_boundary_tie_recorded(self):
        rs = find_roots(P(2, 2, 1))
        # |(-1+i) - (-1)| = 1 exactly on the boundary: counted, logged
        n = roots_in_disk(rs, -1, 1.0)
        assert n == 2
        assert any(ev["event"] == "boundary-tie" for ev in rs.diagnostics)

    def test_radius_must_be_positive(self):
        rs = find_roots(P(2, 2, 1))
        with pytest.raises(ValueError):
            roots_in_disk(rs, 0, 0)
