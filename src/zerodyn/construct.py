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
    VerificationFailed,
    WitnessNotFound,
)
from .exact import count_nonreal
from .poly import Poly, apply_operator, derivative, monomial
from .records import Record
from .roots import find_roots, roots_in_disk
from .scalars import DEFAULT_D_CAP, DEFAULT_PRECISION_BITS, Point, as_fraction, on_grid
from .series import PowerSeries, factor_out_zero, truncated_power

DEFAULT_MAX_HALVINGS = 60


class StagePlan(Record, frozen=False):
    """Construction state: degrees, stage factors, target zeros and radii.

    targets[(m, k)] is the chosen upper-half-plane zero a(m,k) of the m-th
    iterate applied to x^d(k), an exact ``Point``; radii[(m, k)] =
    Im a(m,k) / 2, a ``Fraction``, so every disk D(a(m,k) - c; r(m,k))
    with real c misses the real axis.
    ``coefficient_bound_ok[k-1]`` records the stage-k positivity witness:
    all partial-product coefficients positive and f_k'(0) = sum d gamma.
    """

    degrees: tuple[int, ...]
    targets: dict
    radii: dict
    gammas: tuple[Fraction, ...] = ()
    coefficient_bound_ok: tuple[bool, ...] = ()
    precision_bits: int = DEFAULT_PRECISION_BITS

    @property
    def stages_fixed(self) -> int:
        return len(self.gammas)


class CounterexampleReport(Record):
    plan: StagePlan
    witnessed: dict  # (m, k) -> a zero of the m-th iterate inside disk (m,k)
    nonreal_totals: dict  # m -> nonreal-zero count of the m-th iterate
    product_coeffs: tuple
    derivative_identity_ok: bool
    boundary_ties: tuple = ()


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
    targets = {}
    radii = {}
    for k, d in enumerate(degrees, start=1):
        g_m = monomial(d)
        for m in range(1, k + 1):
            g_m = apply_operator(psi, g_m)
            rs = find_roots(g_m, precision_bits)
            upper = [r.location for r in rs.roots if r.location.imag > 0]
            if not upper:
                raise NoNonrealZero(f"iterate m={m} of x^{d} has no upper-half-plane zero")
            a = min(upper, key=lambda z: (-z.imag, z.real))
            targets[(m, k)] = a
            radii[(m, k)] = a.imag / 2
    return StagePlan(
        degrees=tuple(degrees),
        targets=targets,
        radii=radii,
        precision_bits=precision_bits,
    )


def _partial_product(degrees, gammas, upto: int) -> Poly:
    acc = Poly([1])
    for k in range(upto):
        acc = acc * Poly([1, gammas[k]]) ** degrees[k]
    return acc


def _check_disks(
    psi,
    plan: StagePlan,
    gammas,
    product: Poly,
    M: int,
    precision_bits: int,
    count_totals: bool = False,
):
    """Check the persistence clauses of ``product`` for m = 1..M in turn.

    With N = len(gammas), the m-th iterate must have a zero in each disk
    D(a(m,k) - 1/gamma(k); r(m,k)), k = m..N.  Per m the clauses run in
    the order off-axis, disjointness (of the closed disks), membership
    and, with ``count_totals``, nonreal-total (at least N - m + 1
    nonreal zeros).  The first failure raises VerificationFailed naming
    its clause, before any later m is computed.  Returns (witnessed,
    nonreal_totals, boundary_ties).
    """
    N = len(gammas)
    witnessed = {}
    nonreal_totals = {}
    ties = []
    g_m = product
    for m in range(1, M + 1):
        g_m = apply_operator(psi, g_m)
        disks = []
        for k in range(m, N + 1):
            a = plan.targets[(m, k)]
            c = Point(a.real - 1 / as_fraction(gammas[k - 1]), a.imag)
            r = plan.radii[(m, k)]
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
        rs = find_roots(g_m, precision_bits)
        for k, c, r in disks:
            if roots_in_disk(rs, c, r) < 1:
                raise VerificationFailed("membership", f"no zero in disk (m={m}, k={k})")
            witnessed[(m, k)] = _nearest(rs, c)
        ties.extend(rs.diagnostics)
        if count_totals:
            nonreal_totals[m] = count_nonreal(g_m).nonreal_count
            if nonreal_totals[m] < N - m + 1:
                raise VerificationFailed(
                    "nonreal-total",
                    f"iterate m={m} has {nonreal_totals[m]} nonreal zeros, "
                    f"wanted >= {N - m + 1}",
                )
    return witnessed, nonreal_totals, ties


def _nearest(rs, c: Point) -> Point:
    """The root of ``rs`` nearest c, by squared distance on one integer grid."""
    xs, ys, _den = on_grid([c] + rs.locations())
    i = min(range(1, len(xs)), key=lambda i: (xs[i] - xs[0]) ** 2 + (ys[i] - ys[0]) ** 2)
    return rs.roots[i - 1].location


def _stage_predicate(psi, plan: StagePlan, gammas, k: int, precision_bits: int):
    """Persistence check for stages 1..k with the given gamma list.

    True iff the disk clauses of _check_disks hold for every m <= k.
    """
    product = _partial_product(plan.degrees, gammas, k)
    try:
        _check_disks(psi, plan, gammas[:k], product, k, precision_bits)
    except VerificationFailed:
        return False
    return True


def choose_gamma(
    phi: PowerSeries,
    plan: StagePlan,
    k: int,
    gamma0,
    max_halvings: int = DEFAULT_MAX_HALVINGS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Fraction:
    """First gamma in gamma0, gamma0/2, ... passing the stage-k predicate.

    Replaces a non-effective smallness threshold with a checked search:
    shrinking gamma pushes the new stage's disks far to the left while
    barely perturbing the already-fixed factors.
    """
    gamma0 = as_fraction(gamma0)
    if gamma0 <= 0:
        raise ValueError("gamma0 must be positive")
    if k != plan.stages_fixed + 1:
        raise ValueError(
            f"stage {k} cannot be chosen with {plan.stages_fixed} stages fixed"
        )
    _mu, psi = factor_out_zero(phi)
    trial = gamma0
    for _ in range(max_halvings + 1):
        gammas = list(plan.gammas) + [trial]
        if _stage_predicate(psi, plan, gammas, k, precision_bits):
            return trial
        trial = trial / 2
    raise GammaSearchExhausted(k, max_halvings)


def build_partial_product(plan: StagePlan, N: int) -> Poly:
    """Exact expansion of prod_{k<=N} (1 + gamma(k) x)^d(k); N = 0 gives 1."""
    if N > plan.stages_fixed:
        raise ValueError(f"only {plan.stages_fixed} stages fixed, asked for {N}")
    return _partial_product(plan.degrees, plan.gammas, N)


def extend_plan(
    phi: PowerSeries,
    plan: StagePlan,
    k: int,
    gamma0=Fraction(1),
    max_halvings: int = DEFAULT_MAX_HALVINGS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> StagePlan:
    """Fix stage k in place (driver around choose_gamma)."""
    gamma = choose_gamma(phi, plan, k, gamma0, max_halvings, precision_bits)
    gammas = plan.gammas + (gamma,)
    product = _partial_product(plan.degrees, gammas, k)
    positive = all(c > 0 for c in product.coeffs)
    identity = derivative(product).coefficient(0) == sum(
        d * g for d, g in zip(plan.degrees[:k], gammas)
    )
    plan.gammas = gammas
    plan.coefficient_bound_ok = plan.coefficient_bound_ok + (positive and identity,)
    return plan


def build_plan(
    phi: PowerSeries,
    N: int,
    d_cap: int = DEFAULT_D_CAP,
    gamma0=Fraction(1),
    max_halvings: int = DEFAULT_MAX_HALVINGS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> StagePlan:
    """Full pipeline: witnesses, targets, then the stagewise gamma search."""
    degrees = find_degree_witnesses(phi, N, d_cap)
    plan = pick_targets(phi, degrees, precision_bits)
    for k in range(1, N + 1):
        extend_plan(phi, plan, k, gamma0, max_halvings, precision_bits)
    return plan


def verify_counterexample(
    phi: PowerSeries,
    plan: StagePlan,
    N: int,
    M: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CounterexampleReport:
    """Recompute everything from scratch and check every claim.

    Independent of choose_gamma's internal checks: expands the product,
    iterates the operator, finds roots, and re-verifies disk membership,
    disjointness, off-axis placement, nonreal totals, coefficient
    positivity and the identity f_N'(0) = sum d(k) gamma(k).  Raises
    VerificationFailed naming the first violated clause.
    """
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M = {M}, N = {N}")
    if N > plan.stages_fixed:
        raise VerificationFailed("stages", f"only {plan.stages_fixed} fixed, need {N}")
    _mu, psi = factor_out_zero(phi)
    f_n = build_partial_product(plan, N)
    if not all(c > 0 for c in f_n.coeffs):
        raise VerificationFailed("positivity", "product has a nonpositive coefficient")
    expected = sum(d * g for d, g in zip(plan.degrees[:N], plan.gammas[:N]))
    if derivative(f_n).coefficient(0) != expected:
        raise VerificationFailed("derivative-identity", "f_N'(0) != sum d(k)gamma(k)")

    witnessed, nonreal_totals, ties = _check_disks(
        psi, plan, plan.gammas[:N], f_n, M, precision_bits, count_totals=True
    )
    return CounterexampleReport(
        plan=plan,
        witnessed=witnessed,
        nonreal_totals=nonreal_totals,
        product_coeffs=f_n.coeffs,
        derivative_identity_ok=True,
        boundary_ties=tuple(ties),
    )
