"""Certified complex root finding, beside the exact zero counts of ``exact``.

Every input is a polynomial with rational coefficients (a ``Poly``).
Two routes, deliberately independent:

* a certified root finder: one precision ladder.  The input is split
  into square-free factors, so every root comes with its exact
  multiplicity.  For each factor, Aberth-Ehrlich sweeps in Python
  ``complex`` arithmetic give seeds with inclusion disks; when the disks
  are disjoint each holds one zero, refined from its seed by Newton at
  rising precision and certified in its disk (real zeros in the real
  form, nonreal zeros as exact conjugate pairs).  Newton runs in fixed
  point on Python ints, on the factor's primitive integer multiple F,
  with a proven bound on the truncation error, so the certificate covers
  the exact rational factor.  Each certified root is the exact dyadic
  ``Point`` its certificate covers, and everything that reads roots
  (ordering, conjugate pairing, residuals, disk queries) compares
  integers, with no mpmath.  Otherwise
  the sweep runs at the working precision and the same Newton ladder
  certifies its positions, with disks at that precision; a factor it
  does not certify is swept again at doubled precision, up to
  ``MAX_PRECISION_DOUBLINGS`` times, before ``NoConvergence``;
* an exact route, in ``zerodyn.exact``: zero counts on the primitive
  integer multiple F of f, by a Sturm chain or Descartes bisection, with
  no tolerance.  This module takes its square-free split and integer
  parts from there, and binds its entry points (``count_nonreal``,
  ``all_real_simple``, ``ZeroCount``) under the same names; a zero count
  never executes the root finder, so it does not compile it either.

``count_nonreal`` is the one entry point for "how many nonreal zeros,
and are all zeros simple" (``ZeroCount.squarefree``); every other
caller in the library goes through it, and it is exact at every degree.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DegreeZero, NoConvergence
from .exact import _diff, _integer_part, _squarefree_split
# bound here too: callers, and the benchmark's tracer, reach them as roots.<name>
from .exact import ZeroCount, _exact_profile, all_real_simple, count_nonreal  # noqa: F401
from .poly import Poly
from .records import Record
from .scalars import DEFAULT_PRECISION_BITS, Point, as_fraction
from .scalars import mp, mpf_to_fraction, on_grid, to_mp

GUARD_BITS = 64
MAX_SWEEPS = 400
MAX_PRECISION_DOUBLINGS = 3  # sweep rungs past the working precision
DOUBLE_EPS = 2.0**-53
DOUBLE_MIN = 2.0**-1022  # smallest normal double
# covers the rounding of the < 8n double operations per radius or distance, n < 2^29
INCLUSION_SLACK = 1 + 2.0**-20
ZERO = Fraction(0)


def _work_precision(precision_bits: int) -> int:
    # p + GUARD_BITS already meets the 2^-p certificate.  Twice p (for
    # p >= GUARD_BITS) returns each root within 2^(GUARD_BITS - 2p)
    # (1 + |z|), about p - 64 bits inside that promise, and tests rely on
    # that margin: the overlapping-disk test pins 1e-50 at p = 128, which
    # W = p + GUARD_BITS misses (1.76e-40).
    return max(2 * precision_bits, precision_bits + GUARD_BITS)


class Root(Record):
    location: Point
    multiplicity: int
    residual: float


class RootSet(Record, frozen=False):
    """All roots of one polynomial, with multiplicities and residuals.

    ``diagnostics`` collects soft events (disk-boundary ties) appended by
    queries; it never affects the roots themselves.
    """

    roots: tuple[Root, ...]
    source_degree: int
    precision_bits: int
    diagnostics: list = []

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def locations(self):
        return [r.location for r in self.roots]


def _horner(coeffs, z):
    """Value at z, in whatever number type ``coeffs`` and ``z`` carry."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _circle_start(coeffs, m):
    """Points on a root-bound circle, fixed offset; ``m`` is cmath or mpmath."""
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    # Fujiwara root bound: 2 max_k |c_{n-k}/c_n|^(1/k); far tighter than
    # the Cauchy bound when the low-order coefficients are the huge ones.
    radius = 2 * max(
        (abs(coeffs[n - k]) / lead) ** (1 / k) for k in range(1, n + 1) if coeffs[n - k]
    )
    radius = max(radius, 0.5)
    return [radius * m.exp(1j * m.pi * (2 * k + 0.5) / n) for k in range(n)]


def _sweep(coeffs, dcoeffs, zs, eps, stall_stop=False):
    """Aberth-Ehrlich sweeps on ``zs`` in place; True once converged.

    Runs in the number type of its arguments, so the same loop serves
    the double rung and the working-precision rung.  A root freezes when
    its value reaches the evaluation noise floor eps (4n+4) sum |c_i| |z|^i;
    the run has converged when every root is frozen or no step moves a
    root by more than ``eps`` relative.  It gives up after ``MAX_SWEEPS``,
    or with ``stall_stop`` once a sweep does not shrink the largest step
    below sqrt(eps): above that it can stay flat for a hundred sweeps.
    """
    n = len(zs)
    tiny = eps * 16
    acoeffs = [abs(c) for c in coeffs]
    frozen = [False] * n
    last = math.inf
    for _sweep_no in range(MAX_SWEEPS):
        max_rel_step = 0
        for k in range(n):
            if frozen[k]:
                continue
            z = zs[k]
            fval = _horner(coeffs, z)
            if abs(fval) <= eps * (4 * n + 4) * _horner(acoeffs, abs(z)):
                frozen[k] = True
                continue
            dval = _horner(dcoeffs, z)
            if dval == 0:
                zs[k] = z + tiny * (1 + abs(z)) * (1 + 1j)
                max_rel_step = 1
                continue
            newton = fval / dval
            s = 0
            for j in range(n):
                if j != k:
                    diff = z - zs[j]
                    if diff != 0:
                        s += 1 / diff
            denom = 1 - newton * s
            w = newton if denom == 0 else newton / denom
            zs[k] = z - w
            rel = abs(w) / (1 + abs(z))
            if rel > max_rel_step:
                max_rel_step = rel
        if all(frozen) or max_rel_step <= eps:
            return True
        if stall_stop and max_rel_step >= last:
            return False
        last = max_rel_step if max_rel_step**2 < eps else math.inf
    return False


def _double_seeds(source):
    """Positions the double sweep reaches from the circle, converged or not;
    None when a coefficient of ``source`` or of its derivative is not a
    normal double, or a position not finite."""
    exact = [*source, *(k * c for k, c in enumerate(source) if k)]
    try:
        cs = [float(c) for c in exact]
    except OverflowError:
        return None
    if any(c != 0 and not DOUBLE_MIN <= abs(v) for c, v in zip(exact, cs)):
        return None
    zs = _circle_start(cs[: len(source)], cmath)
    _sweep(cs[: len(source)], cs[len(source) :], zs, DOUBLE_EPS, stall_stop=True)
    return zs if all(math.isfinite(abs(z)) for z in zs) else None


def _inclusion_radii(coeffs, zs, eps):
    """Radii r_i = n (|f(z_i)| + e_i) / (|a_n| prod_{j != i} |z_i - z_j|), or None.

    In the number type of the seeds: doubles with eps = DOUBLE_EPS, or
    mpc at the ambient precision wp with eps = 2^-wp.  e_i is the sweep's
    noise bound eps (4n+4) sum |c_k| |z_i|^k, and every radius is enlarged
    by ``INCLUSION_SLACK``.  Doubles floor |c_k| at DOUBLE_MIN for
    underflow and give None when a value leaves the normal doubles; mpc
    gives None for coincident seeds.  The disks hold every zero, k per
    connected component of k disks (Bini & Fiorentino 2000): one per disk
    if they are disjoint.
    """
    if isinstance(eps, float):
        cs, lo, hi = [float(c) for c in coeffs], DOUBLE_MIN, math.inf
    else:
        cs, lo, hi = coeffs, 0, mp.inf
    floor = [max(abs(c), lo) for c in cs]
    n = len(zs)
    radii = []
    for i, z in enumerate(zs):
        prod = abs(cs[-1])
        for j, u in enumerate(zs):
            if j != i:
                prod *= abs(z - u)
                if prod < lo or not prod:
                    return None
        err = eps * (4 * n + 4) * _horner(floor, abs(z))
        r = INCLUSION_SLACK * n * (abs(_horner(cs, z)) + err) / prod
        if not lo <= r < hi:
            return None
        radii.append(r)
    return radii


def _mantissa(v):
    """(m, e) with v = m 2^e exactly, for a double or an mpf."""
    if isinstance(v, float):
        man, den = v.as_integer_ratio()
        return man, 1 - den.bit_length()
    sign, man, exp, _bc = v._mpf_
    return -int(man) if sign else int(man), exp


def _at(m, e, k):
    """m 2^e times 2^k as an int, floored when it has fractional bits."""
    return m << (e + k) if e + k >= 0 else m >> -(e + k)


def _norm(x, y):
    """Floor of |x + iy|."""
    return math.isqrt(x * x + y * y) if y else abs(x)


def _ceil_sqrt(n):
    r = math.isqrt(n)
    return r + (r * r < n)


def _horner_fixed(F, x, y, k):
    """Integer F at z = (x + iy)/2^k in fixed point; real z (y = 0) takes
    the real form.

    Each product is truncated to k fractional bits, so (a, b) with a + ib
    within ``_horner_noise(len(F) - 1, x, y, k)`` of F(z) 2^k; b is 0 for
    real z.
    """
    a = F[-1] << k
    if not y:
        for c in reversed(F[:-1]):
            a = (a * x >> k) + (c << k)
        return a, 0
    b = 0
    for c in reversed(F[:-1]):
        a, b = ((a * x - b * y) >> k) + (c << k), (a * y + b * x) >> k
    return a, b


def _horner_noise(n, x, y, k):
    """Bound, in units of 2^-k, on the error of ``_horner_fixed`` for a
    polynomial of degree n at z = (x + iy)/2^k.

    Each of the n truncations costs less than one unit (less than sqrt 2
    for complex z), and each later step multiplies that error by |z|: so
    sum_{j<n} rho^j units, twice that for complex z, with rho >= |z| an
    upper bound held with 32 fractional bits.
    """
    sq = x * x + y * y
    t = 2 * (k - 32)
    rho = _ceil_sqrt(-(-sq >> t) if t >= 0 else sq << -t)
    s = 0
    for _ in range(n):
        s = -(-s * rho >> 32) + (1 << 32)
    bound = -(-s >> 32)
    return 2 * bound if y else bound


def _round_bits(m, bits):
    """The int m rounded to nearest at ``bits`` significant bits, ties to even."""
    n = max(abs(m).bit_length() - bits, 0)
    return round(Fraction(m, 1 << n)) << n


def _refine(F, dF, center, radius, start, cap, workprec):
    """Newton on the integer F from the seed ``center``, each step at 4x the
    bits the last one gained; the zero as a ``Point`` rounded to ``cap``
    bits, or None.

    The iterate is the dyadic point z = (x + iy)/2^k with k = prec + s
    fractional bits at prec bits (s > 0 keeps prec significant bits when
    |center| < 1).  F(z) and F'(z) come from ``_horner_fixed``, which
    takes its real form for a real ``center`` (a double or mpf): y stays
    0.  From ``start`` bits up to ``cap``, then one certifying step w at
    k = cap + s plus the bits of the evaluation noise bound plus 4.  With
    A, B the computed values and e_A, e_B their noise bounds,
    |F(z)/F'(z)| <= |w|* = (|A| + e_A)/(|B| - e_B), so a zero of F lies
    within n|w|* of z.  For u, z - w rounded to cap bits, accepted if
    D(z, n|w|*) lies in the disk D(center, radius) and
    |u - z| + n|w|* <= 2^(GUARD_BITS - 1 - workprec) (1 + |z|), so that u
    lies within 2^-precision_bits (1 + |u|) of that zero.  Both checks
    compare exact integers.  None if F' vanishes, a step gains no bits or
    a check fails.
    """
    n = len(F) - 1
    cx, cy = _mantissa(center.real), _mantissa(center.imag)
    s = max(0, 1 - max((m.bit_length() + e for m, e in (cx, cy) if m), default=1))
    k = start + s
    x, y = _at(*cx, k), _at(*cy, k)
    prec, bits, final = start, 0, False
    while True:
        a, b = _horner_fixed(F, x, y, k)
        c, d = _horner_fixed(dF, x, y, k)
        if d:
            sq = c * c + d * d
            wx, wy = ((a * c + b * d) << k) // sq, ((b * c - a * d) << k) // sq
        elif c:
            wx, wy = (a << k) // c, (b << k) // c
        else:
            return None
        if final:
            break
        x, y = x - wx, y - wy
        if wx or wy:
            size = (1 << k) + _norm(x, y)
            mag_w = max(abs(wx).bit_length(), abs(wy).bit_length()) + bool(wx and wy)
            gained = size.bit_length() - mag_w
        else:
            gained = prec
        if gained <= bits:
            return None
        final, bits = prec == cap, gained
        prec = cap if final else min(4 * bits, cap)
        shift = prec + s - k
        if final:
            noise = _horner_noise(n, x, y, k)
            shift += noise.bit_length() + 4
        x, y = (x << shift, y << shift) if shift >= 0 else (x >> -shift, y >> -shift)
        k += shift
    # n|w|* = num/den: a zero of F lies within it of z
    e_b = _horner_noise(n - 1, x, y, k)
    den = _norm(c, d) - e_b
    if den <= 0:
        return None
    num = n * (_ceil_sqrt(a * a + b * b) + noise)
    # inside: |z - center| + n|w|* < radius, all on the grid 2^-g
    rad = _mantissa(radius)
    g = max(k, -cx[1], -cy[1], -rad[1])
    dx, dy = (x << (g - k)) - _at(*cx, g), (y << (g - k)) - _at(*cy, g)
    slack = _at(*rad, g) * den - (num << g)
    if slack <= 0 or (dx * dx + dy * dy) * den * den >= slack * slack:
        return None
    # small: |u - z| + n|w|* <= 2^(GUARD_BITS - 1 - workprec) (1 + |z|)
    ux, uy = _round_bits(x - wx, cap), _round_bits(y - wy, cap)
    lhs = _ceil_sqrt((x - ux) ** 2 + (y - uy) ** 2) * den + (num << k)
    rhs = ((1 << k) + _norm(x, y)) * den
    e = workprec + 1 - GUARD_BITS
    if lhs << max(e, 0) > rhs << max(-e, 0):
        return None
    return Point(Fraction(ux, 1 << k), Fraction(uy, 1 << k))


def _newton_ladder(coeffs, F, seeds, workprec, wp=None):
    """Each zero refined from its own isolated seed, or None.

    ``coeffs`` (read as doubles on rung 0) give the inclusion disks;
    Newton runs on ``F``, the primitive integer polynomial with the same
    zeros, so the certificate covers the exact rational polynomial, not
    its rounding.  The seeds are doubles, refined from 106 bits up to
    ``workprec``, or, given ``wp``, the positions of a sweep at wp bits,
    refined at wp: inside a tight cluster, lower precision's noise over
    |f'| exceeds the spacing of the zeros.  The coefficients are real, so a disk meeting the axis
    needs an isolated symmetric hull D(Re z, r + |Im z|): its one zero is
    its own conjugate, so real (refined in the real form).  The other
    zeros are nonreal, and those in the lower half-plane are the
    conjugates of the upper ones.
    """
    if wp is None:
        radii = _inclusion_radii(coeffs, seeds, DOUBLE_EPS)
        start, cap = min(106, workprec), workprec
    else:
        radii = _inclusion_radii(coeffs, seeds, mp.ldexp(1, -wp))
        start = cap = wp
    if radii is None:
        return None
    disks = list(zip(seeds, radii))

    def isolated(c, r, i):
        others = disks[:i] + disks[i + 1 :]
        return all(abs(c - z) > INCLUSION_SLACK * (r + s) for z, s in others)

    if not all(isolated(z, r, i) for i, (z, r) in enumerate(disks)):
        return None
    dF = _diff(F)
    out = []
    for i, (z, r) in enumerate(disks):
        if z.imag < -r:
            continue
        if abs(z.imag) <= r:
            z, r = z.real, r + abs(z.imag)
            if not isolated(z, r, i):
                return None
        u = _refine(F, dF, z, r, start, cap, workprec)
        if u is None:
            return None
        out.append(u)
        if z.imag > 0:
            out.append(u.conjugate())
    return out


def _aberth(source, workprec):
    """All zeros of a square-free polynomial with nonzero constant term;
    (positions, certified).

    ``source`` lists the ascending rational coefficients, of degree
    n >= 1 with source[0] != 0 and source[-1] != 0.  One ladder of rungs,
    each starting from the previous rung's positions.  Rung 0 is the
    double sweep from the circle and the Newton ladder on its seeds, on
    the coefficients read as doubles.  Then, for wp = workprec, ...,
    2^MAX_PRECISION_DOUBLINGS workprec, the coefficients rounded to wp
    bits, the Aberth sweep at wp and the Newton ladder at wp on the swept
    positions.  The sweeps and the inclusion disks use the rounded
    coefficients; Newton runs on the primitive integer multiple
    F = ``_integer_part(source)``, so the first rung the ladder certifies
    returns positions within 2^(GUARD_BITS - workprec) (1 + |z|) of
    distinct zeros of ``source`` itself, as exact ``Point``s; degree 1
    gives its exact zero.  Past the last rung the swept positions come
    back uncertified, read exactly as the dyadic rationals they stand for.
    """
    if len(source) == 2:
        return [Point(-source[0] / source[1], ZERO)], True
    F = _integer_part(source)
    seeds = _double_seeds(source)
    if seeds is not None:
        located = _newton_ladder(source, F, seeds, workprec)
        if located is not None:
            return located, True
    zs = None
    for wp in (workprec << k for k in range(MAX_PRECISION_DOUBLINGS + 1)):
        with mp.workprec(wp):
            coeffs = [to_mp(c, wp) for c in source]
            dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
            if zs is None:
                zs = _circle_start(coeffs, mp) if seeds is None else list(map(mp.mpc, seeds))
            _sweep(coeffs, dcoeffs, zs, mp.ldexp(1, -wp))
            located = _newton_ladder(coeffs, F, zs, workprec, wp)
        if located is not None:
            return located, True
    return [Point(mpf_to_fraction(z.real), mpf_to_fraction(z.imag)) for z in zs], False


def _sort_located(located, precision_bits):
    """(location, multiplicity) pairs by real part, then imaginary part.

    Real parts within 2^-precision_bits (1 + |z|) of their neighbour's
    count as equal, so zeros on one vertical line (noise real parts)
    are listed by imaginary part, not by the noise.  On the grid 1/L
    they differ by more iff t = |x - x'| 2^precision_bits - L > 0 and
    t^2 > max(x^2 + y^2, x'^2 + y'^2).
    """
    xs, ys, den = on_grid([t[0] for t in located])
    out, line = [], []
    for i in sorted(range(len(located)), key=xs.__getitem__):
        if line:
            j = line[-1]
            t = (abs(xs[i] - xs[j]) << precision_bits) - den
            if t > 0 and t * t > max(xs[i] ** 2 + ys[i] ** 2, xs[j] ** 2 + ys[j] ** 2):
                out += sorted(line, key=ys.__getitem__)
                line = []
        line.append(i)
    return [located[i] for i in out + sorted(line, key=ys.__getitem__)]


def _conjugates_adjacent(zs):
    """True if each nonreal z is followed by exactly conj(z) and lies below it."""
    it = iter(zs)
    for z in it:
        if z.imag != 0 and not (z.imag < 0 and next(it, None) == z.conjugate()):
            return False
    return True


def _pair_conjugates(located):
    """Sorted (location, multiplicity) pairs, each conjugate pair adjacent.

    Sorting alone lists either member of a pair first: their real parts
    differ by noise.  z's partner is the root nearest conj(z) if nearer
    than z, which a real root never finds; the lower member goes first.
    Ladder output, whose pairs are exact conjugates, usually has this
    order already and is returned as it is, without the quadratic search.
    """
    if _conjugates_adjacent([t[0] for t in located]):
        return located
    xs, ys, _den = on_grid([t[0] for t in located])

    def gap(j, i):  # squared distance from root j to conj(root i), on the grid
        return (xs[j] - xs[i]) ** 2 + (ys[j] + ys[i]) ** 2

    rest, out = list(range(len(located))), []
    while rest:
        i = rest.pop(0)
        j = min(rest, key=lambda j: gap(j, i), default=None)
        if j is not None and gap(j, i) < gap(i, i):
            rest.remove(j)
            out += sorted([i, j], key=ys.__getitem__)
        else:
            out.append(i)
    return [located[i] for i in out]


def _residual(F, sup, z, k):
    """|F(z)| / (sup max(1, |z|)^n) as a float, for the exact point z and the
    integer F of degree n: ``_horner_fixed`` on z's own grid, with at least
    k fractional bits, and |F(z)| and |z| held to 64 and 128 more bits."""
    k = max(k, z.real.denominator.bit_length() - 1, z.imag.denominator.bit_length() - 1)
    x, y = ((v.numerator << k) // v.denominator for v in (z.real, z.imag))
    a, b = _horner_fixed(F, x, y, k)
    num, den = math.isqrt((a * a + b * b) << 128), sup << (k + 64)
    r = math.isqrt((x * x + y * y) << 256) >> k  # |z| 2^128, floored
    if r > 1 << 128:
        num, den = num << 128 * (len(F) - 1), den * r ** (len(F) - 1)
    return num / den


def find_roots(f: Poly, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of real f, certified, with exact multiplicities.

    Parameters
    ----------
    f : Poly
        Degree >= 1; rational coefficients.
    precision_bits : int
        Stated precision of the result, at least 1.

    Returns
    -------
    RootSet with sum of multiplicities equal to deg f and, per root, its
    exact ``Point`` location and the relative residual
    |f(r)| / (||f||_inf * max(1,|r|)^deg) as a float.  Every
    root lies within 2^-precision_bits (1 + |r|) of its own zero, and is
    either real with imaginary part exactly 0 or one of an exact
    conjugate pair: a root is real iff its imaginary part is 0.
    Multiplicities are exact: each square-free factor is solved on its
    own.  Roots are listed by real part (a zero root first), real parts
    within 2^-precision_bits (1 + |r|) by imaginary part; each conjugate
    pair is adjacent, lower half-plane first.

    Raises
    ------
    ValueError (``precision_bits`` not an int >= 1), DegreeZero,
    NoConvergence (the ladder certified a factor on no rung up to
    2^MAX_PRECISION_DOUBLINGS times the working precision; the best
    RootSet found rides on the exception).
    """
    if type(precision_bits) is not int or precision_bits < 1:
        raise ValueError(f"precision_bits must be an int >= 1, not {precision_bits!r}")
    if f.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    deg = int(f.degree)
    workprec = _work_precision(precision_bits)
    nzero = 0
    while f.coeffs[nzero] == 0:
        nzero += 1
    located, certified = [], True
    for factor, mult in _squarefree_split(f.coeffs[nzero:]):
        positions, ok = _aberth(factor, workprec)
        located += [(z, mult) for z in positions]
        certified = certified and ok
    located = _pair_conjugates(_sort_located(located, precision_bits))
    if nzero:
        located.insert(0, (Point(ZERO, ZERO), nzero))
    F = _integer_part(f.coeffs)
    sup = max(map(abs, F))
    roots = tuple(Root(z, mult, _residual(F, sup, z, workprec)) for z, mult in located)
    rs = RootSet(roots=roots, source_degree=deg, precision_bits=precision_bits)
    if not certified:
        raise NoConvergence("iteration budget exhausted before certification", best=rs)
    return rs


def roots_in_disk(rs: RootSet, center, radius) -> int:
    """Roots (with multiplicity) strictly inside the open disk.

    ``center`` is a ``Point`` or a rational and ``radius`` a rational: a
    float, mpf or mpc is a TypeError, as in ``Poly``, and a radius <= 0 a
    ValueError.  A root within its certificate, 2^-precision_bits (1 + |r|),
    of the boundary counts as inside and the tie is recorded in
    ``rs.diagnostics``; persistence checks downstream prefer a false
    positive that later re-verification can reject over a silently dropped
    witness.  Squared distances are compared on one integer grid 1/L, in
    units of 2^-precision_bits / L, where the band is L + |r| L, rounded up.
    """
    if not isinstance(center, Point):
        center = Point(center, ZERO)
    center = Point(as_fraction(center.real), as_fraction(center.imag))
    radius = as_fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    p = rs.precision_bits
    xs, ys, den = on_grid([center, Point(radius, ZERO)] + rs.locations())
    cx, cy, rad = xs[0], ys[0], xs[1] << p
    count = 0
    for r, x, y in zip(rs.roots, xs[2:], ys[2:]):
        dist = ((x - cx) ** 2 + (y - cy) ** 2) << 2 * p
        band = den + _ceil_sqrt(x * x + y * y)
        if rad > band and dist < (rad - band) ** 2:
            count += r.multiplicity
        elif dist <= (rad + band) ** 2:
            count += r.multiplicity
            rs.diagnostics.append(
                {"event": "boundary-tie", "center": center, "radius": radius, "root": r.location}
            )
    return count
