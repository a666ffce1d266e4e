"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance and runtime budget is pinned here.
"""

import math
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

import zerodyn as zd
from zerodyn.cli import main as cli_main
from conftest import as_mpc, make_rng, random_fraction

RESULTS = []


def _gate(label, limit_s):
    """Context manager: times the block, prints PASS/FAIL, enforces budget."""

    class _Gate:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            ok = exc_type is None and elapsed < limit_s
            status = "PASS" if ok else "FAIL"
            line = f"[acceptance] {label}: {status} ({elapsed:.2f}s / {limit_s:.0f}s)"
            print(line, flush=True)
            RESULTS.append(line)
            if exc_type is None and elapsed >= limit_s:
                raise AssertionError(f"runtime budget exceeded: {line}")
            return False

    return _Gate()


def _real_roots(rs):
    return [(r.location.real, r.multiplicity) for r in rs.roots if r.location.imag == 0]


def test_criterion_01_hermite_bridge():
    with _gate("1 hermite bridge d<=40", 1.0):
        for d in range(0, 41):
            lhs = zd.exp_dp_monomial(F(-1), 2, d)
            rhs = zd.dilate(zd.hermite(d), F(1, 2))
            assert lhs == rhs, f"coefficient mismatch at d={d}"


def test_criterion_02_jensen_bridge():
    with _gate("2 jensen bridge p<=5 q<=8", 1.0):
        for p in range(2, 6):
            for q in range(1, 9):
                j = zd.jensen_ml(p, q)
                coeffs = [F(0)] * (p * q + 1)
                for k, c in enumerate(j.coeffs):
                    coeffs[p * k] = c * (-1) ** k
                scale = F((-1) ** q * math.factorial(p * q), math.factorial(q))
                rhs = zd.Poly(coeffs).scale(scale)
                assert zd.exp_dp_monomial(F(-1), p, p * q) == rhs, (p, q)


def test_criterion_03_limit_zero_structure():
    with _gate("3 limit family zero structure p<=5 d<=20", 30.0):
        with mp.workprec(320):
            for p in range(2, 6):
                rot = mp.expjpi(mp.mpf(2) / p)
                for d in range(1, 21):
                    g = zd.exp_dp_monomial(F(-1), p, d)
                    q, r = d // p, d % p
                    rs = zd.find_roots(g, 256)
                    origin = [t for t in rs.roots if t.location == zd.Point(0, 0)]
                    if r:
                        assert len(origin) == 1 and origin[0].multiplicity == r
                    else:
                        assert not origin
                    positive = sorted(
                        x for x, _ in _real_roots(rs) if x > 0
                    )
                    assert len(positive) == q, (p, d, positive)
                    for a, b in zip(positive, positive[1:]):
                        assert (b - a) / max(a, b) > 1e-8
                    # multiset closed under rotation by the p-th root of 1
                    for t in rs.roots:
                        target = as_mpc(t.location) * rot
                        match = [
                            s
                            for s in rs.roots
                            if abs(as_mpc(s.location) - target)
                            <= mp.mpf("1e-20") * (1 + abs(target))
                        ]
                        assert match and match[0].multiplicity == t.multiplicity


def test_criterion_04_jensen_roots_negative_simple():
    with _gate("4 jensen roots negative simple p<=6 q<=12", 10.0):
        with mp.workprec(320):
            for p in range(2, 7):
                for q in range(1, 13):
                    rs = zd.find_roots(zd.jensen_ml(p, q), 256)
                    assert all(t.multiplicity == 1 for t in rs.roots)
                    reals = _real_roots(rs)
                    assert len(reals) == q, (p, q)
                    xs = sorted(x for x, _ in reals)
                    assert max(xs) < -1e-10
                    for a, b in zip(xs, xs[1:]):
                        assert abs(b - a) / max(abs(a), abs(b)) > 1e-8


def test_criterion_05_iterate_oracle_equivalence():
    with _gate("5 iterate vs truncated power, 50 random cases", 30.0):
        rng = make_rng(1105)
        for _ in range(50):
            order = rng.randint(0, 8)
            deg = rng.randint(1, 10)
            m = rng.randint(0, 6)
            phi = zd.PowerSeries.polynomial(
                [random_fraction(rng) for _ in range(order + 1)]
            )
            f = zd.Poly(
                [random_fraction(rng) for _ in range(deg)]
                + [random_fraction(rng, nonzero=True)]
            )
            direct = zd.iterate_operator(phi, f, m)
            via_power = zd.apply_operator(zd.truncated_power(phi, m, deg), f)
            assert direct == via_power


def test_criterion_06_closed_form_families():
    with _gate("6 closed-form iterate families m<=100", 5.0):
        phi_a = zd.PowerSeries.polynomial([1, 0, 1])
        phi_b = zd.PowerSeries.polynomial([1, 1, -1])
        phi_c = zd.PowerSeries.polynomial([1, 0, -1])
        ga, gb, gc = zd.monomial(3), zd.monomial(2), zd.monomial(4)
        for m in range(1, 101):
            ga = zd.apply_operator(phi_a, ga)
            gb = zd.apply_operator(phi_b, gb)
            gc = zd.apply_operator(phi_c, gc)
            assert ga == zd.Poly([0, 6 * m, 0, 1])
            assert gb == zd.Poly([m * m - 3 * m, 2 * m, 1])
            assert gc == zd.Poly([12 * m * (m - 1), 0, -12 * m, 0, 1])


def test_criterion_07_convergence_rate():
    with _gate("7 sup-norm rate: exact 12/m and fitted slopes", 60.0):
        phi_c = zd.PowerSeries.polynomial([1, 0, -1])
        rep = zd.convergence_experiment(phi_c, zd.monomial(4), range(1, 1001))
        for m, err in rep.samples:
            assert err == F(12, m), m
        assert abs(rep.fitted_slope - (-1.0)) <= 0.01
        phi_d = zd.PowerSeries.polynomial([1, 1, 0, 1])
        rep2 = zd.convergence_experiment(
            phi_d, zd.monomial(5), range(10, 1001, 10)
        )
        assert rep2.fitted_slope <= -0.5 + 0.1


def test_criterion_08_onset_and_persistence():
    with _gate("8 onset m0<=200 and persistence m0<=50", 60.0):
        phi_b = zd.PowerSeries.polynomial([1, 1, -1])
        f = zd.Poly([2, -2, 1]) * zd.Poly([4, 0, 1])  # 4 nonreal zeros
        rep = zd.onset_scan(phi_b, f, m_max=200)
        assert rep.mode == "AllRealSimple"
        assert rep.found and rep.m0 <= 200
        phi = zd.PowerSeries.polynomial([1, 1, 1])
        rep2 = zd.onset_scan(phi, zd.Poly([1, 0, 0, 1]), m_max=200)
        assert rep2.mode == "PersistentNonreal"
        assert rep2.found and rep2.m0 <= 50


def test_criterion_09_attractor_containment():
    with _gate("9 attractor containment and simplicity", 60.0):
        phi_a = zd.PowerSeries.polynomial([1, 0, 1])
        rep = zd.attractor_experiment(
            phi_a, zd.monomial(3), list(range(1, 51)) + [100, 200], 1e-25
        )
        for rec in rep.records:
            assert rec.containment_epsilon_needed < 1e-30
        phi_c = zd.PowerSeries.polynomial([1, 0, -1])
        rep2 = zd.attractor_experiment(
            phi_c, zd.monomial(5), range(1, 201), 0.1
        )
        eps = {rec.m: rec.containment_epsilon_needed for rec in rep2.records}
        assert all(eps[m] < 0.1 for m in range(50, 201))
        first = sum(eps[m] for m in range(50, 125)) / 75
        second = sum(eps[m] for m in range(125, 201)) / 76
        assert second < first  # decreasing in trend
        assert eps[200] < eps[50]
        # simplicity at m = 200 for both residue classes d = 0, 1 mod p
        assert rep2.records[-1].all_simple is True
        rep3 = zd.attractor_experiment(phi_c, zd.monomial(4), [200], 0.1)
        assert rep3.records[0].all_simple is True


def test_criterion_10_construction_pipeline(tmp_path):
    with _gate("10 construction N=M=2 + negative control", 120.0):
        phi = zd.PowerSeries.polynomial([1, 1, 1])
        plan = zd.build_plan(phi, 2, d_cap=12)
        report = zd.verify_counterexample(phi, plan)
        # m=1: zeros in two disjoint off-axis disks; m=2: at least one
        assert {(1, 1), (1, 2)} <= set(dict(report.witnessed))
        assert (2, 2) in dict(report.witnessed)
        totals = dict(report.nonreal_totals)
        assert totals[1] >= 2 and totals[2] >= 1
        # the CLI pipeline agrees and exits 0
        out = tmp_path / "construct.json"
        code = cli_main(
            [
                "construct",
                "--series", "poly:1+x+x^2",
                "--stages", "2",
                "--d-cap", "12",
                "--output", str(out),
            ]
        )
        assert code == 0
        # negative control: a first-degree binomial never witnesses
        with pytest.raises(zd.WitnessNotFound):
            zd.find_degree_witnesses(zd.PowerSeries.polynomial([1, 1]), 1, 10)


def test_criterion_11_lp_test_soundness():
    with _gate("11 monomial-image screen soundness", 10.0):
        res = zd.polya_lp_test(zd.PowerSeries.polynomial([1, 1, 1]), 5)
        assert res.obstructed and res.d_witness == 2
        res2 = zd.polya_lp_test(zd.PowerSeries.polynomial([1, 0, -1]), 8)
        assert not res2.obstructed and res2.d_max == 8
        for scanned in (res, res2):
            flags = [n > 0 for n in scanned.nonreal_counts]
            if True in flags:
                assert all(flags[flags.index(True):])


def teardown_module():
    print()
    for line in RESULTS:
        print(line)
