"""Experiment layer: onset detection, rescaled convergence, zero attractors.

Three sweeps over the iterate index m, all driven by exact arithmetic on
the iterates of phi / phi(0) (``OperatorClass.normalized_from``), so
c * phi gives the report of phi for every nonzero c:

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
    ZeroConstantTerm,
)
from .exact import count_nonreal
from .limits import exp_dp_monomial
from .poly import Poly, iterate_operator, rescale_iterate
from .records import Record
from .scalars import (
    DEFAULT_M_MAX,
    DEFAULT_PRECISION_BITS,
    Point,
    _lazy_import,
    as_fraction,
    dyadic_round,
    on_grid,
    root_rounded,
    to_double,
)
from .series import (
    OperatorClass,
    PowerSeries,
    classify,
    truncated_power,
    truncated_product,
    turan_expression,
)

roots = _lazy_import("zerodyn.roots")  # the root finder runs on the attractor path only


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
    gamma: Point  # principal p-th root of -beta, within 2^-precision_bits (1 + |gamma|)
    epsilon: float
    records: tuple  # AttractorRecord, m ascending


def _require_general(phi: PowerSeries) -> OperatorClass:
    cls = classify(phi)
    if not cls.is_general:
        raise NotGeneralForm(f"need General classification, got {cls.form}")
    return cls


def _require_monic(f: Poly) -> int:
    """deg f, for a monic f of degree >= 1; NonMonicInput otherwise."""
    if not f.is_monic() or f.degree < 1:
        raise NonMonicInput("f must be monic of degree >= 1")
    return int(f.degree)


def _iterates(cls: OperatorClass, f: Poly, ms):
    """(m, phi(D)^m f) for phi = ``cls.normalized_from`` and increasing ``ms``."""
    g, last = f, 0
    for m in ms:
        g, last = iterate_operator(cls.normalized_from, g, m - last), m
        yield m, g


def _binomial_zeros(c: Fraction, p: int, precision_bits: int):
    """The p certified zeros of x^p + c."""
    return roots.find_roots(Poly([c] + [0] * (p - 1) + [1]), precision_bits).locations()


def _star_sq(x, y, rays, norm):
    """norm times the squared distance from x + iy to the star of ``rays``
    (integer pairs (u, v) on the point's grid, each of squared modulus
    about ``norm``): Im((x + iy)(u - iv))^2 off the ray u + iv, or
    |x + iy|^2 norm where Re((x + iy)(u - iv)) <= 0 and the ray points away."""
    far = (x * x + y * y) * norm
    return min(far if x * u + y * v <= 0 else (y * u - x * v) ** 2 for u, v in rays)


def star_distance(z, p: int) -> Fraction:
    """Distance from z (a ``Point`` or an exact real) to the union of the p
    rays through the p-th roots of 1, rounded once to the nearest dyadic
    with b = ``DEFAULT_PRECISION_BITS`` significant bits.  The rays run
    through the certified zeros of x^p - 1, each within 2^(1 - b) of its
    root of 1, so the result is within 2^(3 - b) |z| of the exact distance."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if not isinstance(z, Point):
        z = Point(as_fraction(z), Fraction(0))
    bits = DEFAULT_PRECISION_BITS
    rays = _binomial_zeros(Fraction(-1), p, bits)
    xs, ys, den = on_grid([z, *rays])
    norm = xs[-1] ** 2 + ys[-1] ** 2
    sq = _star_sq(xs[0], ys[0], list(zip(xs[1:], ys[1:])), norm)
    return dyadic_round(Fraction(sq, norm * den * den), bits, 2)


def onset_scan(
    phi: PowerSeries,
    f: Poly,
    m_max: int = DEFAULT_M_MAX,
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
    turan = turan_expression(cls.normalized_from)
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
    for m, g in _iterates(cls, f, range(1, m_max + 1)):
        zc = count_nonreal(g)
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
    d = _require_monic(f)
    ms = _m_values(m_list)
    limit = exp_dp_monomial(cls.beta, cls.p, d)
    samples = []
    for m, g in _iterates(cls, f, ms):
        fm = rescale_iterate(cls, g, m, precision_bits)
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
        ef = to_double(e, f"the sup-norm error at m = {m}")
        if ef > 0.0:  # an exact zero, or one that underflows, is exact convergence
            xs.append(math.log(m))
            ys.append(math.log(ef))
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    import statistics  # only converge fits a slope; kept off the import path

    return statistics.linear_regression(xs, ys).slope


def operator_discrepancy(
    cls: OperatorClass,
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

    gamma is the certified zero of x^p + beta of largest real part, and
    the other zeros give the rays.  The distances are exact on the
    certified points (with m^(1/p) rounded once by ``root_rounded``) and
    each is rounded once to a float; ``contained`` compares the exact
    squared distance with epsilon^2.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, not {epsilon}")
    cls = _require_general(phi)
    d = _require_monic(f)
    p, alpha, beta = cls.p, cls.alpha, cls.beta
    ms = _m_values(m_list)
    # the zeros of x^p + beta are gamma times the p-th roots of 1: the
    # star's rays, with gamma the one of largest real part (the upper one
    # of a conjugate pair), which find_roots lists last
    rays = _binomial_zeros(beta, p, precision_bits)
    gamma = rays[-1]
    gr, gi = gamma.real, gamma.imag
    limit = [
        Point(gr * z.real - gi * z.imag, gr * z.imag + gi * z.real)
        for z in roots.find_roots(exp_dp_monomial(Fraction(-1), p, d), precision_bits).locations()
    ]
    eps_sq = Fraction(epsilon) ** 2
    records = []
    for m, g in _iterates(cls, f, ms):
        rs = roots.find_roots(g, precision_bits)
        # w = W / s with W = z + m alpha and s = m^(1/p): compare W with
        # s gamma zeta and with the rays, as integers on one grid
        s = root_rounded(Fraction(m), p, precision_bits)
        pulled = [Point(r.location.real + m * alpha, r.location.imag) for r in rs.roots]
        targets = [Point(s * q.real, s * q.imag) for q in limit]
        xs, ys, den = on_grid(pulled + targets + rays)
        pts = list(zip(xs, ys))
        n, k = len(pulled), len(pulled) + len(targets)
        norm = xs[-1] ** 2 + ys[-1] ** 2  # |gamma|^2
        worst_eps = max(
            min((x - a) ** 2 + (y - b) ** 2 for a, b in pts[n:k]) for x, y in pts[:n]
        )
        worst_star = max(_star_sq(x, y, pts[k:], norm) for x, y in pts[:n])
        # eps^2 = |W - s gamma zeta|^2 / s^2, and the star distance of w/gamma
        # is W's distance to the rays over s |gamma| (den cancels there)
        worst_eps = Fraction(worst_eps, den * den) / s**2
        worst_star = Fraction(worst_star, norm * norm) / s**2
        simple = None
        if d % p in (0, 1):
            simple = count_nonreal(g).squarefree
        records.append(
            AttractorRecord(
                m=m,
                # 53 bits, ties to even: the square root rounded once to a double
                max_scaled_star_distance=float(dyadic_round(worst_star, 53, 2)),
                containment_epsilon_needed=float(dyadic_round(worst_eps, 53, 2)),
                contained=worst_eps < eps_sq,
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

