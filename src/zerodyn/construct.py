"""Desk-scale counterexample products with persistent nonreal zeros.

Given an operator whose monomial images certify it is not real-rooted in
the limit sense (see series.polya_lp_test), this module builds a finite
product  f_N(x) = prod_{k<=N} (1 + gamma(k) x)^{d(k)}  whose operator
iterates keep a nonreal zero inside a prescribed off-axis disk per stage:
for every m <= N, the m-th iterate has a zero in each of the pairwise
disjoint closed disks D(a(m,k) - 1/gamma(k); r(m,k)), k = m..N.

The stage factors gamma(k) come from a halving search validated against
that persistence predicate; verify_counterexample then recomputes
everything from scratch, independent of the search's own bookkeeping.
Targets, radii and disk centers are exact (``Point``s and ``Fraction``s
built from the certified roots), so every disk clause is decided
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import (
    GammaSearchExhausted,
    NoNonrealZero,
    TruncationTooShort,
    VerificationFailed,
    WitnessNotFound,
)
from .exact import count_nonreal
from .poly import Poly, apply_operator, derivative, monomial
from .records import Record
from .roots import _counted_roots, find_roots
from .scalars import DEFAULT_D_CAP, DEFAULT_GAMMA0, DEFAULT_PRECISION_BITS, Point, as_fraction
from .series import PowerSeries, factor_out_zero, truncated_power

MAX_HALVINGS = 60  # extend_plan tries gamma0 / 2^j for j = 0..MAX_HALVINGS


class StagePlan(Record):
    """Construction state: degrees, stage factors, target zeros and radii.

    ``targets`` pairs each (m, k), in (m, k) order, with the chosen
    upper-half-plane zero a(m,k) of the m-th iterate applied to x^d(k),
    an exact ``Point``; ``radii`` pairs it with r(m,k) = Im a(m,k) / 2, a
    ``Fraction``, so every disk D(a(m,k) - c; r(m,k)) with real c misses
    the real axis.
    """

    degrees: tuple[int, ...]
    targets: tuple  # ((m, k), a(m,k)) pairs
    radii: tuple  # ((m, k), r(m,k)) pairs
    gammas: tuple[Fraction, ...] = ()
    precision_bits: int = DEFAULT_PRECISION_BITS

    @property
    def stages_fixed(self) -> int:
        return len(self.gammas)


class CounterexampleReport(Record):
    plan: StagePlan
    witnessed: tuple  # ((m, k), a zero of the m-th iterate inside disk (m,k)) pairs
    nonreal_totals: tuple  # (m, nonreal-zero count of the m-th iterate) pairs
    product_coeffs: tuple
    derivative_identity_ok: bool


def find_degree_witnesses(
    phi: PowerSeries,
    M: int,
    d_cap: int = DEFAULT_D_CAP,
) -> list[int]:
    """Increasing degrees d(1) < ... < d(M) with a nonreal zero per iterate.

    d(m) is the least degree above d(m-1) such that the m-th operator
    iterate of x^d(m) has a nonreal zero.  A monomial factor of phi is
    stripped first; the scan runs on the cofactor.  WitnessNotFound never
    contradicts the certified obstruction — it means d_cap was too small.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    _mu, psi = factor_out_zero(phi)
    degrees = []
    prev = 0
    for m in range(1, M + 1):
        iterated = truncated_power(psi, m, d_cap)
        found = None
        for d in range(prev + 1, d_cap + 1):
            image = apply_operator(iterated, monomial(d))
            if count_nonreal(image).nonreal_count > 0:
                found = d
                break
        if found is None:
            raise WitnessNotFound(m, d_cap)
        degrees.append(found)
        prev = found
    return degrees


def pick_targets(
    phi: PowerSeries,
    degrees,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> StagePlan:
    """Choose a(m,k) and r(m,k) = Im a(m,k)/2 for every m <= k <= N.

    a(m,k) is the upper-half-plane zero of the m-th iterate of x^d(k)
    with the largest imaginary part, ties broken by smallest real part —
    a deterministic stand-in for the proof-side free choice.  Upper means
    imaginary part > 0: find_roots returns real zeros with imaginary part
    exactly 0.
    """
    _mu, psi = factor_out_zero(phi)
    degrees = [int(d) for d in degrees]
    targets = []
    for k, d in enumerate(degrees, start=1):
        g_m = monomial(d)
        for m in range(1, k + 1):
            g_m = apply_operator(psi, g_m)
            rs = find_roots(g_m, precision_bits)
            upper = [r.location for r in rs.roots if r.location.imag > 0]
            if not upper:
                raise NoNonrealZero(f"iterate m={m} of x^{d} has no upper-half-plane zero")
            targets.append(((m, k), min(upper, key=lambda z: (-z.imag, z.real))))
    targets.sort()
    return StagePlan(
        degrees=tuple(degrees),
        targets=tuple(targets),
        radii=tuple((key, a.imag / 2) for key, a in targets),
        precision_bits=precision_bits,
    )


def _check_disks(psi, plan: StagePlan, product: Poly, M: int, count_totals: bool = False):
    """Check the persistence clauses of ``product`` for m = 1..M in turn.

    With the plan's N = stages_fixed gammas, the m-th iterate must have a
    zero in each disk D(a(m,k) - 1/gamma(k); r(m,k)), k = m..N, its roots
    found at the plan's precision.  Per m the clauses run in the order
    off-axis, disjointness (of the closed disks), membership and, with
    ``count_totals``, nonreal-total (at least N - m + 1 nonreal zeros).
    The first failure raises VerificationFailed naming its clause, before
    any later m is computed.  A disk holds a zero when
    ``_counted_roots`` certifies one inside it; the witness is the
    nearest.  Returns (witnessed, nonreal_totals) as key-ordered pairs.
    """
    N = plan.stages_fixed
    targets, radii = dict(plan.targets), dict(plan.radii)
    witnessed, nonreal_totals = [], []
    g_m = product
    for m in range(1, M + 1):
        g_m = apply_operator(psi, g_m)
        disks = []
        for k in range(m, N + 1):
            a = targets[(m, k)]
            c = Point(a.real - 1 / as_fraction(plan.gammas[k - 1]), a.imag)
            r = radii[(m, k)]
            if not abs(c.imag) > r:
                raise VerificationFailed(
                    "off-axis", f"disk (m={m}, k={k}) touches the real axis"
                )
            disks.append((k, c, r))
        for (k1, c1, r1), (k2, c2, r2) in combinations(disks, 2):
            if (c1.real - c2.real) ** 2 + (c1.imag - c2.imag) ** 2 <= (r1 + r2) ** 2:
                raise VerificationFailed(
                    "disjointness",
                    f"disks (m={m}, k={k1}) and (m={m}, k={k2}) overlap",
                )
        rs = find_roots(g_m, plan.precision_bits)
        for k, c, r in disks:
            counted = _counted_roots(rs, c, r)
            if not counted:
                raise VerificationFailed(
                    "membership", f"no zero certified inside disk (m={m}, k={k})"
                )
            witnessed.append(((m, k), counted[0].location))
        if count_totals:
            total = count_nonreal(g_m).nonreal_count
            nonreal_totals.append((m, total))
            if total < N - m + 1:
                raise VerificationFailed(
                    "nonreal-total",
                    f"iterate m={m} has {total} nonreal zeros, wanted >= {N - m + 1}",
                )
    return tuple(witnessed), tuple(nonreal_totals)


def _stage_predicate(psi, trial: StagePlan):
    """True iff the disk clauses of _check_disks hold for every iterate
    m <= k of the trial plan's k = stages_fixed stages."""
    try:
        _check_disks(psi, trial, build_partial_product(trial), trial.stages_fixed)
    except VerificationFailed:
        return False
    return True


def build_partial_product(plan: StagePlan) -> Poly:
    """Exact expansion of prod_{k<=N} (1 + gamma(k) x)^d(k) over the plan's
    N = stages_fixed stages; N = 0 gives 1."""
    acc = Poly([1])
    for d, gamma in zip(plan.degrees, plan.gammas):
        acc = acc * Poly([1, gamma]) ** d
    return acc


def extend_plan(phi: PowerSeries, plan: StagePlan, gamma0=DEFAULT_GAMMA0) -> StagePlan:
    """A new plan with stage k = plan.stages_fixed + 1 fixed (a ValueError
    if every stage is fixed); ``plan`` itself is left as it was.

    Its gamma is the first of gamma0, gamma0/2, ..., gamma0/2^MAX_HALVINGS
    passing the stage-k predicate, whose roots are found at
    ``plan.precision_bits`` (the precision ``pick_targets`` chose the
    targets at).  This checked search replaces a non-effective smallness
    threshold: shrinking gamma pushes the new stage's disks far to the
    left while barely perturbing the already-fixed factors.
    """
    gamma0 = _positive_gamma0(gamma0)
    k = plan.stages_fixed + 1
    if k > len(plan.degrees):
        raise ValueError(f"all {plan.stages_fixed} stages of the plan are fixed")
    _mu, psi = factor_out_zero(phi)
    trial = gamma0
    for _ in range(MAX_HALVINGS + 1):
        extended = plan._replace(gammas=plan.gammas + (trial,))
        if _stage_predicate(psi, extended):
            return extended
        trial = trial / 2
    raise GammaSearchExhausted(k, MAX_HALVINGS)


def _positive_gamma0(gamma0) -> Fraction:
    if as_fraction(gamma0) <= 0:
        raise ValueError("gamma0 must be positive")
    return as_fraction(gamma0)


def build_plan(
    phi: PowerSeries,
    N: int,
    d_cap: int = DEFAULT_D_CAP,
    gamma0=DEFAULT_GAMMA0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> StagePlan:
    """Full pipeline: witnesses, targets at ``precision_bits``, then the
    stagewise gamma search at the same precision.  A gamma0 <= 0 is a
    ValueError before any search; a product of degree sum d(k) past the
    series truncation is a TruncationTooShort, before any target or gamma."""
    gamma0 = _positive_gamma0(gamma0)
    degrees = find_degree_witnesses(phi, N, d_cap)
    order = factor_out_zero(phi)[1].truncation_order
    if sum(degrees) > order:
        raise TruncationTooShort(
            f"operator series truncated at {order}, product degree is {sum(degrees)}"
        )
    plan = pick_targets(phi, degrees, precision_bits)
    for _ in range(N):
        plan = extend_plan(phi, plan, gamma0)
    return plan


def verify_counterexample(
    phi: PowerSeries, plan: StagePlan, M: int | None = None
) -> CounterexampleReport:
    """Recompute everything from scratch and check every claim.

    Verifies the plan's N = stages_fixed stages for iterates m = 1..M (M
    defaults to N), with roots found at the plan's precision.  Independent
    of the gamma search's own checks: expands the product, iterates the
    operator, finds roots, and re-verifies disk membership, disjointness,
    off-axis placement, nonreal totals, coefficient positivity and the
    identity f_N'(0) = sum d(k) gamma(k).  Raises
    VerificationFailed naming the first violated clause; a plan that fixes
    no stage, or M outside 1..N, is a ValueError.
    """
    N = plan.stages_fixed
    if not N:
        raise ValueError("the plan fixes no stage (no gammas)")
    M = N if M is None else M
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M = {M}, N = {N}")
    _mu, psi = factor_out_zero(phi)
    f_n = build_partial_product(plan)
    if not all(c > 0 for c in f_n.coeffs):
        raise VerificationFailed("positivity", "product has a nonpositive coefficient")
    expected = sum(d * g for d, g in zip(plan.degrees, plan.gammas))
    if derivative(f_n).coefficient(0) != expected:
        raise VerificationFailed("derivative-identity", "f_N'(0) != sum d(k)gamma(k)")

    witnessed, nonreal_totals = _check_disks(psi, plan, f_n, M, count_totals=True)
    return CounterexampleReport(
        plan=plan,
        witnessed=witnessed,
        nonreal_totals=nonreal_totals,
        product_coeffs=f_n.coeffs,
        derivative_identity_ok=True,
    )
