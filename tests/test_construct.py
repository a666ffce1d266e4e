"""Counterexample-product pipeline: witnesses, targets, gamma search, verify."""

import copy
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import as_mpc
from zerodyn import (
    GammaSearchExhausted,
    NoNonrealZero,
    Point,
    Poly,
    PowerSeries,
    StagePlan,
    TruncationTooShort,
    VerificationFailed,
    WitnessNotFound,
    build_partial_product,
    build_plan,
    extend_plan,
    find_degree_witnesses,
    pick_targets,
    verify_counterexample,
)
from zerodyn import construct
from zerodyn.construct import _stage_predicate
from zerodyn.poly import apply_operator
from zerodyn.roots import find_roots, roots_in_disk
from zerodyn.series import factor_out_zero

PHI = PowerSeries.polynomial([1, 1, 1])       # 1 + x + x^2
PHI_LP = PowerSeries.polynomial([1, 1])       # 1 + x, never obstructed
PHI_ZERO = PowerSeries.polynomial([0, 1, 0, 1])  # x + x^3 = x(1 + x^2)
PHI_A = PowerSeries.polynomial([1, 0, 1])     # 1 + x^2


def _overlapping(plan):
    """``plan`` with the (1, 2) disk dragged onto the (1, 1) disk and inflated."""
    targets, radii = dict(plan.targets), dict(plan.radii)
    a = targets[(1, 1)]
    targets[(1, 2)] = Point(a.real + F(1, 100), a.imag)
    radii[(1, 2)] = radii[(1, 1)]
    return plan._replace(
        targets=tuple(targets.items()),
        radii=tuple(radii.items()),
        gammas=(plan.gammas[0], plan.gammas[0]),
    )


def _touching_the_axis(plan):
    """``plan`` with the (1, 1) radius past Im a(1, 1)."""
    radii = dict(plan.radii)
    radii[(1, 1)] = dict(plan.targets)[(1, 1)].imag * 2
    return plan._replace(radii=tuple(radii.items()))


class TestWitnesses:
    def test_first_stage_by_hand(self):
        ds = find_degree_witnesses(PHI, 2, 12)
        assert ds[0] == 2  # the image x^2+2x+2 has zeros -1 +- i
        assert ds[1] > ds[0]

    def test_strictly_increasing(self):
        ds = find_degree_witnesses(PHI, 3, 20)
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_negative_control(self):
        with pytest.raises(WitnessNotFound):
            find_degree_witnesses(PHI_LP, 1, 10)

    def test_series_shorter_than_d_cap(self):
        with pytest.raises(TruncationTooShort):
            find_degree_witnesses(PowerSeries([1, 1, 1] + [0] * 9), 1, 12)

    def test_monomial_factor_stripped(self):
        # x + x^3 behaves as its cofactor 1 + x^2
        assert find_degree_witnesses(PHI_ZERO, 2, 12) == find_degree_witnesses(
            PHI_A, 2, 12
        )


class TestTargets:
    def test_hand_values(self):
        plan = pick_targets(PHI, [2, 3])
        a11 = dict(plan.targets)[(1, 1)]
        r11 = dict(plan.radii)[(1, 1)]
        assert abs(as_mpc(a11) - mp.mpc(-1, 1)) < 1e-40
        assert r11 == a11.imag / 2
        assert abs(r11 - F(1, 2)) < 1e-40

    def test_upper_half_plane_with_largest_imag(self):
        plan = pick_targets(PHI_A, [3])
        ((key, a),) = plan.targets
        assert key == (1, 1) and plan.radii == (((1, 1), a.imag / 2),)
        with mp.workprec(300):
            assert abs(as_mpc(a) - mp.mpc(0, 1) * mp.sqrt(6)) < 1e-40

    def test_all_real_image_rejected(self):
        phi_h = PowerSeries.polynomial([1, 0, -1])  # images all-real
        with pytest.raises(NoNonrealZero):
            pick_targets(phi_h, [2])


class TestChooseGamma:
    """The halving search in extend_plan."""

    def test_first_trial_passes_via_shift_conjugacy(self):
        # (1+x)^2 = T^1 x^2, so the stage-1 image is the shifted monomial
        # image and its zero sits exactly at the disk center
        plan = pick_targets(PHI, [2, 3])
        assert extend_plan(PHI, plan, F(1)).gammas == (1,)

    def test_later_stage_shrinks_on_collision(self):
        plan = pick_targets(PHI, [2, 3])
        plan = extend_plan(PHI, extend_plan(PHI, plan, F(1)), F(1))
        assert 0 < plan.gammas[1] < 1

    def test_rejects_nonpositive_gamma0(self):
        plan = pick_targets(PHI, [2])
        with pytest.raises(ValueError, match="positive"):
            extend_plan(PHI, plan, F(0))

    def test_fully_fixed_plan_rejected(self):
        plan = extend_plan(PHI, pick_targets(PHI, [2]))
        with pytest.raises(ValueError, match="fixed"):
            extend_plan(PHI, plan)

    def test_extend_plan_leaves_its_input_alone(self):
        plan = pick_targets(PHI, [2, 3])
        before = copy.deepcopy(plan)
        one = extend_plan(PHI, plan)
        assert plan == before and plan.stages_fixed == 0
        assert one.stages_fixed == 1
        assert (one.degrees, one.targets, one.radii) == (plan.degrees, plan.targets, plan.radii)

    def test_budget_exhaustion(self, monkeypatch):
        plan = pick_targets(PHI, [2])
        # sabotage: demand a zero in a far-away disk no gamma can reach
        plan = plan._replace(
            targets=(((1, 1), Point(F(1000), F(1))),), radii=(((1, 1), F(1, 4)),)
        )
        monkeypatch.setattr(construct, "MAX_HALVINGS", 8)
        with pytest.raises(GammaSearchExhausted):
            extend_plan(PHI, plan, F(1))

    def test_search_runs_at_the_plan_precision(self, monkeypatch):
        plan = pick_targets(PHI, [2, 3], precision_bits=128)
        seen = []

        def recording(f, precision_bits):
            seen.append(precision_bits)
            return find_roots(f, precision_bits)

        monkeypatch.setattr(construct, "find_roots", recording)
        extend_plan(PHI, extend_plan(PHI, plan, F(1)), F(1))
        assert seen and set(seen) == {128}


class TestPartialProduct:
    def test_single_stage(self):
        plan = StagePlan(degrees=(2,), targets=(), radii=(), gammas=(F(1),))
        assert build_partial_product(plan) == Poly([1, 1]) ** 2

    def test_two_stages(self):
        plan = StagePlan(
            degrees=(2, 3), targets=(), radii=(), gammas=(F(1), F(1, 2))
        )
        expected = Poly([1, 1]) ** 2 * Poly([1, F(1, 2)]) ** 3
        got = build_partial_product(plan)
        assert got == expected and int(got.degree) == 5

    def test_empty_product(self):
        plan = StagePlan(degrees=(), targets=(), radii=())
        assert build_partial_product(plan) == Poly([1])

    def test_expands_only_the_fixed_stages(self):
        # the plan's stage count is its gammas: degree 3 has no stage yet
        plan = StagePlan(degrees=(2, 3), targets=(), radii=(), gammas=(F(1),))
        assert build_partial_product(plan) == Poly([1, 1]) ** 2


class TestVerify:
    def test_end_to_end_single_stage(self):
        plan = build_plan(PHI, 1, d_cap=12)
        rep = verify_counterexample(PHI, plan)
        assert dict(rep.nonreal_totals)[1] >= 2
        assert (1, 1) in dict(rep.witnessed)
        assert rep.derivative_identity_ok

    def test_end_to_end_two_stages(self):
        plan = build_plan(PHI, 2, d_cap=12)
        rep = verify_counterexample(PHI, plan)
        # m = 1 keeps a zero in the k=1 and k=2 disks; m = 2 in the k=2 disk
        assert {(1, 1), (1, 2), (2, 2)} <= set(dict(rep.witnessed))
        totals = dict(rep.nonreal_totals)
        assert totals[1] >= 2 and totals[2] >= 1
        f2 = build_partial_product(plan)
        assert all(c > 0 for c in f2.coeffs)

    def test_derivative_identity(self):
        plan = build_plan(PHI, 2, d_cap=12)
        f2 = build_partial_product(plan)
        from zerodyn import derivative

        assert derivative(f2).coefficient(0) == sum(
            d * g for d, g in zip(plan.degrees, plan.gammas)
        )

    def test_stage_monotonicity(self):
        # a verified two-stage plan truncated to one stage still verifies
        plan = build_plan(PHI, 2, d_cap=12)
        rep = verify_counterexample(PHI, plan._replace(gammas=plan.gammas[:1]))
        assert (1, 1) in dict(rep.witnessed)

    def test_overlapping_disks_detected(self):
        bad = _overlapping(build_plan(PHI, 2, d_cap=12))
        with pytest.raises(VerificationFailed) as exc:
            verify_counterexample(PHI, bad, 1)
        assert exc.value.clause in ("disjointness", "membership")

    def test_off_axis_violation_detected(self):
        bad = _touching_the_axis(build_plan(PHI, 1, d_cap=12))
        with pytest.raises(VerificationFailed) as exc:
            verify_counterexample(PHI, bad)
        assert exc.value.clause == "off-axis"

    @pytest.mark.parametrize("outside", [0, F(1, 2**300)], ids=["on", "past"])
    def test_zero_on_or_just_past_a_disk_boundary_fails_membership(self, outside):
        # the iterate x^2 + 4x + 5 has zeros exactly -2 +- i
        plan = build_plan(PHI, 1, d_cap=12)
        ((key, z),) = verify_counterexample(PHI, plan).witnessed
        assert key == (1, 1)
        assert z == Point(F(-2), F(1))
        r = F(1, 2) - outside
        # the disk center a - 1/gamma becomes z + 1/2: z lies `outside` past it
        a = Point(z.real + F(1, 2) + 1 / plan.gammas[0], z.imag)
        near = plan._replace(targets=(((1, 1), a),), radii=(((1, 1), r),))
        with pytest.raises(VerificationFailed, match="no zero certified inside") as exc:
            verify_counterexample(PHI, near)
        assert exc.value.clause == "membership"
        iterate = apply_operator(PHI, build_partial_product(plan))
        center = Point(z.real + F(1, 2), z.imag)
        assert roots_in_disk(find_roots(iterate, plan.precision_bits), center, r) == 0

    def test_truncation_shorter_than_the_product_fails_before_any_search(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            construct, "_stage_predicate", lambda *args: calls.append(args) or True
        )
        # witness degrees 2, 3, 4 sum to 9, past the truncation at 8
        phi = PowerSeries([1, F(1, 2), F(1, 2)] + [0] * 6)
        with pytest.raises(TruncationTooShort, match="truncated at 8, product degree is 9"):
            build_plan(phi, 3, d_cap=8, gamma0=F(1, 4))
        assert calls == []

    @pytest.mark.parametrize("gamma0", [0, F(-1, 2)])
    def test_nonpositive_gamma0_fails_before_the_witness_search(self, monkeypatch, gamma0):
        calls = []
        monkeypatch.setattr(
            construct, "find_degree_witnesses", lambda *args: calls.append(args) or [2]
        )
        with pytest.raises(ValueError, match="gamma0 must be positive"):
            build_plan(PHI, 1, d_cap=12, gamma0=gamma0)
        assert calls == []

    def test_m_larger_than_n_rejected(self):
        plan = build_plan(PHI, 1, d_cap=12)
        with pytest.raises(ValueError):
            verify_counterexample(PHI, plan, 2)

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one_rejected(self, m):
        # M < 1 would check no iterate at all and report success
        plan = build_plan(PHI, 1, d_cap=12)
        with pytest.raises(ValueError, match="1 <= M <= N"):
            verify_counterexample(PHI, plan, m)

    def test_m_defaults_to_the_plan_stage_count(self):
        plan = build_plan(PHI, 2, d_cap=12)
        rep = verify_counterexample(PHI, plan)
        assert rep == verify_counterexample(PHI, plan, 2)
        assert [m for m, _n in rep.nonreal_totals] == [1, 2]
        partial = verify_counterexample(PHI, plan, 1)
        assert [key for key, _z in partial.witnessed] == [(1, 1), (1, 2)]

    def test_plan_with_no_fixed_stage_rejected(self):
        plan = pick_targets(PHI, [2])
        with pytest.raises(ValueError, match="the plan fixes no stage"):
            verify_counterexample(PHI, plan)

    def test_verification_runs_at_the_plan_precision(self, monkeypatch):
        plan = build_plan(PHI, 2, d_cap=12, precision_bits=128)
        seen = []

        def recording(f, precision_bits):
            seen.append(precision_bits)
            return find_roots(f, precision_bits)

        monkeypatch.setattr(construct, "find_roots", recording)
        verify_counterexample(PHI, plan)
        assert seen and set(seen) == {128}


class TestFrozenTables:
    """Plan and report tables are (key, value) pairs in key order."""

    def test_built_plan_and_report_hash(self):
        plan = build_plan(PHI, 2, d_cap=12)
        rep = verify_counterexample(PHI, plan)
        assert hash(plan) == hash(copy.deepcopy(plan))
        assert hash(rep) == hash(copy.deepcopy(rep))
        keys = [(1, 1), (1, 2), (2, 2)]
        assert [key for key, _a in plan.targets] == keys == [key for key, _r in plan.radii]
        assert [key for key, _z in rep.witnessed] == keys
        assert [m for m, _n in rep.nonreal_totals] == [1, 2]
        for rec in (plan, rep):
            assert not any(isinstance(v, dict) for v in rec._astuple())

    def test_tables_reject_assignment(self):
        plan = pick_targets(PHI, [2])
        with pytest.raises(TypeError):
            plan.targets[(1, 1)] = Point(F(5), F(1))
        with pytest.raises(TypeError):
            plan.radii[0] = ((1, 1), F(1))
        assert plan == pick_targets(PHI, [2])


class TestOneDiskChecker:
    """The gamma-search predicate and the verifier apply the same disk clauses."""

    @staticmethod
    def _disk_clauses_pass(plan):
        try:
            verify_counterexample(PHI, plan)
        except VerificationFailed as exc:
            if exc.clause in ("off-axis", "disjointness", "membership"):
                return False
        return True

    def _agree(self, plan, n):
        _mu, psi = factor_out_zero(PHI)
        trial = plan._replace(gammas=plan.gammas[:n])
        predicate = _stage_predicate(psi, trial)
        assert predicate is self._disk_clauses_pass(trial)
        return predicate

    def test_built_plan_passes_both(self):
        assert self._agree(build_plan(PHI, 2, d_cap=12), 2) is True

    def test_overlap_sabotage_fails_both(self):
        assert self._agree(_overlapping(build_plan(PHI, 2, d_cap=12)), 2) is False

    def test_off_axis_sabotage_fails_both(self):
        assert self._agree(_touching_the_axis(build_plan(PHI, 1, d_cap=12)), 1) is False
