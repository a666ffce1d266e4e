"""Root finding, exact counting, and disk queries."""

from fractions import Fraction as F

import mpmath as mp
import pytest

from zerodyn import (
    DegreeZero,
    Poly,
    all_real_simple,
    count_nonreal,
    derivative,
    find_roots,
    roots_in_disk,
)
from conftest import random_poly


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
        # location accuracy at multiplicity k is limited to ~eps^(1/k)
        assert abs(rs.roots[0].location + 1) < 1e-18

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
