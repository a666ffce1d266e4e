"""Experiment layer: onset detection, rescaled convergence, zero attractors.

Three sweeps over the iterate index m, all driven by exact arithmetic on
the iterates themselves:

* onset_scan       — when does the operator drive every zero real and
                     simple (Turan expression negative), or when do
                     nonreal zeros set in for good (Turan >= 0)?
* convergence_experiment — sup-norm distance of the rescaled iterate
                     from its closed-form limit, with a log-log rate fit
                     (first-order rate 1/m^(1/p) expected).
* attractor_experiment — pull the iterate's zeros back through the
                     affine rescaling and measure containment in the
                     dilated limit zero set / the star of p rays.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    NonMonicInput,
    NotGeneralForm,
    PureExponential,
    TruncationTooShort,
    ZeroConstantTerm,
)
from .limits import exp_dp_monomial
from .poly import Poly, apply_operator, rescale_iterate
from .records import Record
from .roots import count_nonreal, find_roots
from .scalars import DEFAULT_PRECISION_BITS, dyadic_round, mp, root_rounded, to_mp
from .series import (
    OperatorClass,
    PowerSeries,
    classify,
    truncated_power,
    truncated_product,
    turan_expression,
)

DEFAULT_M_MAX = 200


class OnsetReport(Record):
    mode: str  # "AllRealSimple" | "PersistentNonreal"
    m0: int | None  # None: not found within m_max
    m_max: int
    trace: tuple  # (m, nonreal_count) pairs, m ascending

    @property
    def found(self) -> bool:
        return self.m0 is not None


class ConvergenceReport(Record):
    p: int
    alpha: Fraction
    beta: Fraction
    samples: tuple  # (m, sup_norm_error) pairs, m ascending; errors are Fractions
    fitted_slope: float | None  # None when every error is exactly zero
    exact_convergence: bool
    limit_poly: Poly


class AttractorRecord(Record):
    m: int
    max_scaled_star_distance: float
    containment_epsilon_needed: float
    contained: bool
    all_simple: bool | None  # recorded only when d = 0 or 1 mod p


class AttractorReport(Record):
    p: int
    alpha: Fraction
    beta: Fraction
    gamma: object  # principal p-th root of -beta (mpc)
    epsilon: float
    records: tuple  # AttractorRecord, m ascending


def _require_general(phi: PowerSeries) -> OperatorClass:
    cls = classify(phi)
    if not cls.is_general:
        raise NotGeneralForm(f"need General classification, got {cls.form}")
    return cls


def star_distance(z, p: int):
    """Distance from z to the union of the p rays through the p-th roots of 1."""
    if p < 2:
        raise ValueError("p must be >= 2")
    z = mp.mpc(z)
    best = None
    for k in range(p):
        u = mp.expjpi(mp.mpf(2 * k) / p)
        t = (z * mp.conj(u)).real
        cand = abs(z) if t <= 0 else abs(z - t * u)
        if best is None or cand < best:
            best = cand
    return best


def onset_scan(
    phi: PowerSeries,
    f: Poly,
    m_max: int = DEFAULT_M_MAX,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> OnsetReport:
    """Scan m = 1..m_max for the onset of the terminal zero behavior.

    With a negative Turan expression the scan looks for the least m0
    such that every zero of the m-th iterate is real and simple for all
    m in [m0, m_max]; with a nonnegative one (and deg f >= p) for the
    least m0 past which nonreal zeros never disappear.  The full
    (m, nonreal count) trace is always reported.
    """
    if f.degree < 1:
        raise ValueError("f must be nonconstant")
    if phi.constant == 0:
        raise ZeroConstantTerm("onset scan needs phi(0) != 0")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    cls = classify(phi)
    if cls.is_pure_exponential:
        raise PureExponential(
            "phi acts as a shift: the nonreal-zero count of every iterate equals "
            "that of f"
        )
    turan = turan_expression(phi)
    if turan < 0:
        mode = "AllRealSimple"
    else:
        mode = "PersistentNonreal"
        if int(f.degree) < cls.p:
            raise ValueError(
                f"persistence regime needs deg f >= p = {cls.p}, got {int(f.degree)}"
            )

    trace = []
    ok = []
    g = f
    for m in range(1, m_max + 1):
        g = apply_operator(phi, g)
        zc = count_nonreal(g, precision_bits)
        trace.append((m, zc.nonreal_count))
        if mode == "AllRealSimple":
            ok.append(zc.nonreal_count == 0 and zc.squarefree)
        else:
            ok.append(zc.nonreal_count > 0)

    m0 = None
    for i in range(m_max - 1, -1, -1):
        if not ok[i]:
            break
        m0 = i + 1
    return OnsetReport(mode=mode, m0=m0, m_max=m_max, trace=tuple(trace))


def convergence_experiment(
    phi: PowerSeries,
    f: Poly,
    m_list,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ConvergenceReport:
    """Sup-norm error of the rescaled iterates against the limit polynomial.

    Every error is an exact rational: the sup-norm of the rescaled
    iterate minus the limit.  Where the scale m^(1/p) is irrational it is
    the exact error of the iterate whose coefficients ``rescale_iterate``
    rounded once.  Exact zeros are excluded from the log-log fit and
    reported as exact convergence when they are all there is.
    """
    cls = _require_general(phi)
    if not f.is_monic() or f.degree < 1:
        raise NonMonicInput("f must be monic of degree >= 1")
    d = int(f.degree)
    ms = _m_values(m_list)
    limit = exp_dp_monomial(cls.beta, cls.p, d)
    samples = []
    g = f
    last = 0
    for m in ms:
        for _ in range(m - last):
            g = apply_operator(phi, g)
        last = m
        fm = rescale_iterate(cls, phi, f, m, precision_bits, _iterate=g)
        samples.append((m, (fm - limit).sup_norm()))
    slope = _fit_loglog_slope(samples)
    exact = all(e == 0 for _, e in samples)
    return ConvergenceReport(
        p=cls.p,
        alpha=cls.alpha,
        beta=cls.beta,
        samples=tuple(samples),
        fitted_slope=slope,
        exact_convergence=exact,
        limit_poly=limit,
    )


def _m_values(m_list):
    """The distinct entries of m_list, ascending; ValueError unless every
    entry is an int >= 1."""
    ms = list(m_list)
    if not ms or any(type(m) is not int or m < 1 for m in ms):
        raise ValueError("m_list must contain integers >= 1")
    return sorted(set(ms))


def _fit_loglog_slope(samples):
    xs, ys = [], []
    for m, e in samples:
        ef = float(e)
        if ef > 0.0:  # an exact zero, or one that underflows, is exact convergence
            xs.append(math.log(m))
            ys.append(math.log(ef))
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    import statistics  # only converge fits a slope; kept off the import path

    return statistics.linear_regression(xs, ys).slope


def operator_discrepancy(
    cls: OperatorClass,
    phi: PowerSeries,
    d: int,
    m: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
):
    """Executable surrogate for the operator-norm gap at order d.

    Builds the composite series exp(-m^(1-1/p) alpha x) * phi(m^(-1/p) x)^m
    truncated at order d, subtracts exp(beta x^p), applies the difference
    to every monomial x^j (j <= d) and returns the largest sup-norm.
    The composite is E(cx), with c = m^(-1/p) and the series
    E = exp(-m alpha x) * phi(x)^m computed exactly.  A Fraction, exact
    when m is a perfect p-th power; otherwise c is rounded once to a
    dyadic at ``precision_bits``, the gap computed exactly from that c
    and rounded once to a dyadic at ``precision_bits``.  Zero for d < p.
    """
    if not cls.is_general:
        raise NotGeneralForm(f"need General form, got {cls.form}")
    if d < 0 or m < 1:
        raise ValueError("need d >= 0 and m >= 1")
    if phi.truncation_order < d:
        raise TruncationTooShort(
            f"need truncation order {d}, have {phi.truncation_order}"
        )
    p = cls.p
    shift = _exp_monomial_series(-m * cls.alpha, 1, d)
    powered = truncated_power(cls.normalized_from, m, d)
    composite = truncated_product(shift, powered, d)
    target = _exp_monomial_series(cls.beta, p, d)
    c = root_rounded(Fraction(1, m), p, precision_bits)
    diff = [c**n * e - t for n, (e, t) in enumerate(zip(composite.coeffs, target.coeffs))]
    gap = _max_monomial_image_norm(diff, d)
    return gap if c**p * m == 1 else dyadic_round(gap, precision_bits)


def _exp_monomial_series(c, j: int, order: int) -> PowerSeries:
    """exp(c * x^j) truncated at ``order``, for a Fraction c."""
    coeffs = [Fraction(0)] * (order + 1)
    for k in range(order // j + 1):
        coeffs[j * k] = c**k / math.factorial(k)
    return PowerSeries(coeffs)


def _max_monomial_image_norm(diff_coeffs, d: int):
    """max_j ||(sum_n diff_n D^n) x^j||_inf for j = 0..d: the x^d image, as
    diff_n weighs j!/(j-n)! in the x^j image, largest at j = d."""
    return max(abs(c) * math.perm(d, n) for n, c in enumerate(diff_coeffs[: d + 1]))


def attractor_experiment(
    phi: PowerSeries,
    f: Poly,
    m_list,
    epsilon: float,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> AttractorReport:
    """Pull the iterate's zeros back through the rescaling and measure fit.

    For each m, every zero z of the m-th iterate maps to
    w = (z + m*alpha) / m^(1/p); the record keeps the worst distance
    from w to gamma * (zeros of exp(-D^p)x^d) (the epsilon needed for
    containment), the worst distance from w/gamma to the star of p rays,
    and — when d = 0 or 1 mod p, where the limit zeros are simple —
    whether the iterate's zeros are all simple.  ``epsilon`` must be
    finite and positive (ValueError otherwise).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, not {epsilon}")
    cls = _require_general(phi)
    if not f.is_monic() or f.degree < 1:
        raise ValueError("f must be monic of degree >= 1")
    d = int(f.degree)
    p, alpha, beta = cls.p, cls.alpha, cls.beta
    ms = _m_values(m_list)
    with mp.workprec(precision_bits):
        gamma = mp.root(-to_mp(beta, precision_bits), p)
        base = exp_dp_monomial(Fraction(-1), p, d)
        base_roots = find_roots(base, precision_bits)
        limit_pts = [gamma * to_mp(r.location, precision_bits) for r in base_roots.roots]
        alpha_mp = to_mp(alpha, precision_bits)
        records = []
        g = f
        last = 0
        for m in ms:
            for _ in range(m - last):
                g = apply_operator(phi, g)
            last = m
            rs = find_roots(g, precision_bits)
            scale = to_mp(m, precision_bits) ** (mp.mpf(1) / p)
            worst_eps = mp.mpf(0)
            worst_star = mp.mpf(0)
            for r in rs.roots:
                w = (to_mp(r.location, precision_bits) + m * alpha_mp) / scale
                dmin = min(abs(w - q) for q in limit_pts)
                if dmin > worst_eps:
                    worst_eps = dmin
                sd = star_distance(w / gamma, p)
                if sd > worst_star:
                    worst_star = sd
            simple = None
            if d % p in (0, 1):
                simple = count_nonreal(g, precision_bits=precision_bits, rs=rs).squarefree
            records.append(
                AttractorRecord(
                    m=m,
                    max_scaled_star_distance=float(worst_star),
                    containment_epsilon_needed=float(worst_eps),
                    contained=worst_eps < epsilon,
                    all_simple=simple,
                )
            )
    return AttractorReport(
        p=p,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        epsilon=float(epsilon),
        records=tuple(records),
    )
