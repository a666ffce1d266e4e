"""Root finding, exact counting, and disk queries."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import roots
from zerodyn import (
    DegreeZero,
    Poly,
    all_real_simple,
    count_nonreal,
    derivative,
    find_roots,
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


def _record_seeds(monkeypatch):
    """Record what the double rung returns on each solve."""
    seen = []
    real = roots._double_seeds

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(roots, "_double_seeds", recording)
    return seen


def _same_roots(a, b, tol):
    assert [r.multiplicity for r in a.roots] == [r.multiplicity for r in b.roots]
    with mp.workprec(600):
        for r in a.roots:
            d = min(abs(r.location - s.location) for s in b.roots)
            assert d < tol * (1 + abs(r.location))


class TestPrecisionLadder:
    def test_out_of_double_range_takes_circle_start(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        seen = _record_seeds(monkeypatch)
        base = find_roots(f)
        assert seen[-1] is not None
        for scale in (F(10) ** 400, F(1, 10**400)):
            rs = find_roots(f.scale(scale))
            assert seen[-1] is None
            _same_roots(rs, base, 1e-70)

    def test_stalled_double_rung_takes_circle_start(self, monkeypatch):
        f = P(3, -1, 4, -1, 5, 9)
        base = find_roots(f)
        seen = _record_seeds(monkeypatch)
        monkeypatch.setattr(roots, "DOUBLE_SWEEPS", 1)
        _same_roots(find_roots(f), base, 1e-70)
        assert seen == [None]

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

    def test_agrees_with_mpmath_polyroots(self):
        rng = make_rng(31)
        for d in (2, 5, 9, 14, 20, 30):
            f = random_poly(rng, d)
            rs = find_roots(f, 128)
            assert all(r.multiplicity == 1 for r in rs.roots)
            with mp.workdps(2 * 39):
                ref = mp.polyroots(
                    [mp.mpf(c.numerator) / c.denominator for c in reversed(f.coeffs)],
                    maxsteps=400,
                    extraprec=2 * 128,
                )
                for r in rs.roots:
                    d_min = min(abs(r.location - z) for z in ref)
                    assert d_min < 1e-35 * (1 + abs(r.location))
            assert len(rs.roots) == len(ref)


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
