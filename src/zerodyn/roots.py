"""Certified complex root finding, beside the exact zero counts of ``exact``.

Every input is a polynomial with rational coefficients (a ``Poly``).
Two routes, deliberately independent:

* a certified root finder, in which doubles propose and Python ints
  certify.  Each square-free factor (so multiplicities are exact) is
  solved on its primitive integer multiple F.  Aberth-Ehrlich sweeps in
  doubles from the circle |z| = 2^hi, hi from F's root bound, give seeds;
  placed on a dyadic grid, each gets an inclusion disk computed on F, and
  when the disks are disjoint each holds one zero, refined by fixed-point
  Newton and certified in its disk (real zeros in the real form, nonreal
  zeros as exact conjugate pairs, which the listing keeps as pairs).
  Otherwise an Aberth sweep on Gaussian fixed-point ints, at the working
  precision and then at up to ``MAX_PRECISION_DOUBLINGS`` doublings of
  it, feeds the same disks and Newton ladder, before ``NoConvergence``.
  Each root is the exact dyadic ``Point`` its certificate covers, and
  everything that reads roots compares integers;
* an exact route, in ``zerodyn.exact``: zero counts on F by a Sturm
  chain or Descartes bisection, with no tolerance.  This module takes its
  square-free split and integer parts from there, and binds its entry
  points (``count_nonreal``, ``all_real_simple``, ``ZeroCount``) under
  the same names; a zero count never executes the root finder.

``count_nonreal`` is the one entry point for "how many nonreal zeros,
and are all zeros simple" (``ZeroCount.squarefree``); every other
caller in the library goes through it, and it is exact at every degree.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DegreeZero, NoConvergence
from .exact import _diff, _integer_part, _zero_root_and_split
# bound here too: callers, and the benchmark's tracer, reach them as roots.<name>
from .exact import ZeroCount, _exact_profile, all_real_simple, count_nonreal  # noqa: F401
from .poly import Poly
from .records import Record
from .scalars import DEFAULT_PRECISION_BITS, Point, as_fraction, on_grid

GUARD_BITS = 64
MAX_SWEEPS = 400
MAX_PRECISION_DOUBLINGS = 3  # sweep rungs past the working precision
DOUBLE_EPS = 2.0**-53
DOUBLE_MIN = 2.0**-1022  # smallest normal double
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


class RootSet(Record):
    """All roots of one polynomial, with multiplicities and residuals."""

    roots: tuple[Root, ...]
    source_degree: int
    precision_bits: int

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


def _circle_start(n, radius):
    """n complex doubles on the circle |z| = radius, at a fixed offset."""
    return [radius * cmath.exp(1j * cmath.pi * (2 * k + 0.5) / n) for k in range(n)]


def _double_seeds(source, hi):
    """Positions that Aberth-Ehrlich sweeps in doubles reach from the circle
    |z| = 2^hi, converged or not; None when a coefficient of ``source`` or
    of its derivative is not a normal double, 2^hi not a double, or a
    position not finite.

    A position freezes when its value reaches the evaluation noise floor
    DOUBLE_EPS (4n+4) sum |c_i| |z|^i.  The sweeps stop once every position
    is frozen or no step moves one by more than DOUBLE_EPS relative, after
    ``MAX_SWEEPS``, or once a sweep does not shrink the largest step below
    sqrt(DOUBLE_EPS): above that it can stay flat for a hundred sweeps.
    """
    exact = [*source, *(k * c for k, c in enumerate(source) if k)]
    n = len(source) - 1
    try:
        cs = [float(c) for c in exact]
        zs = _circle_start(n, math.ldexp(1.0, hi))
    except OverflowError:
        return None
    if any(c != 0 and not DOUBLE_MIN <= abs(v) for c, v in zip(exact, cs)):
        return None
    coeffs, dcoeffs = cs[: n + 1], cs[n + 1 :]
    acoeffs = [abs(c) for c in coeffs]
    tiny = DOUBLE_EPS * 16
    frozen = [False] * n
    last = math.inf
    for _sweep_no in range(MAX_SWEEPS):
        max_rel_step = 0
        for k in range(n):
            if frozen[k]:
                continue
            z = zs[k]
            fval = _horner(coeffs, z)
            if abs(fval) <= DOUBLE_EPS * (4 * n + 4) * _horner(acoeffs, abs(z)):
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
        if all(frozen) or max_rel_step <= DOUBLE_EPS or max_rel_step >= last:
            break
        last = max_rel_step if max_rel_step**2 < DOUBLE_EPS else math.inf
    return zs if all(math.isfinite(abs(z)) for z in zs) else None


def _zero_bounds(F):
    """(lo, hi) with 2^-lo <= |z| <= 2^hi for every zero z of the integer F,
    F[0] != 0: Fujiwara's bound 2 max_k |c_{n-k}/c_n|^(1/k) from bit
    lengths, on F reversed and on F."""

    def log2_bound(cs):
        n, top = len(cs) - 1, cs[-1].bit_length()
        ks = [k for k in range(1, n + 1) if cs[n - k]]
        return 1 + max(-((top - 1 - cs[n - k].bit_length()) // k) for k in ks)

    return log2_bound(F[::-1]), log2_bound(F)


def _mantissa(v):
    """(m, e) with the double v = m 2^e exactly."""
    man, den = v.as_integer_ratio()
    return man, 1 - den.bit_length()


def _at(m, e, k):
    """m 2^e times 2^k as an int, floored when it has fractional bits."""
    return m << (e + k) if e + k >= 0 else m >> -(e + k)


def _place(z, k):
    """The complex double z on the grid 2^-k: (x, y), floored, z ~ (x + iy)/2^k."""
    return _at(*_mantissa(z.real), k), _at(*_mantissa(z.imag), k)


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


def _quotient(a, b, c, d, k):
    """(a + ib)/(c + id) times 2^k, each part floored; c + id != 0."""
    q = c * c + d * d
    return ((a * c + b * d) << k) // q, ((b * c - a * d) << k) // q


def _fixed_sweep(F, pts, k, wp):
    """Aberth-Ehrlich sweeps on the Gaussian fixed-point points ``pts``,
    (x, y) for z = (x + iy)/2^k, in place, on the integer F itself, so no
    coefficient is rounded.

    A point freezes once |F(z)| is within its evaluation noise
    (``_horner_noise``); the sweeps stop when every point is frozen or no
    step exceeds 2^-k + 2^-wp |z|, which is 2^-wp (1 + |z|) on the grid
    k = wp, or after ``MAX_SWEEPS``.  No error bound is kept: the disks
    and the Newton ladder that follow certify.
    """
    n = len(pts)
    dF = _diff(F)
    frozen = [False] * n
    for _sweep_no in range(MAX_SWEEPS):
        moved = False
        for i, (x, y) in enumerate(pts):
            if frozen[i]:
                continue
            a, b = _horner_fixed(F, x, y, k)
            if a * a + b * b <= _horner_noise(n, x, y, k) ** 2:
                frozen[i] = True
                continue
            c, d = _horner_fixed(dF, x, y, k)
            size = (1 << wp) + _norm(x, y)
            if not (c or d):  # F' vanishes: step off by 16 (2^-k + 2^-wp |z|) (1 + i)
                pts[i] = (x + (size >> (wp - 4)), y + (size >> (wp - 4)))
                moved = True
                continue
            # the Newton step N, then 1 - N S with S = sum_j 1/(z - z_j), times 2^k
            nx, ny = _quotient(a, b, c, d, k)
            px, py = 1 << k, 0
            for u, v in pts:
                if u != x or v != y:
                    sx, sy = _quotient(nx, ny, x - u, y - v, k)
                    px, py = px - sx, py - sy
            # the Aberth step w = N / (1 - N S)
            wx, wy = _quotient(nx, ny, px, py, k) if px or py else (nx, ny)
            pts[i] = (x - wx, y - wy)
            moved = moved or (wx * wx + wy * wy) << 2 * wp > size * size
        if not moved:
            return


def _fixed_disks(F, pts, k):
    """Inclusion disks (x, y, r) about the points z_i = (x + iy)/2^k of
    ``pts``, r in units of 2^-k; None for coincident points.

    r_i = n (|F(z_i)| + e_i) / (|F_n| prod_{j != i} |z_i - z_j|), rounded
    up, on the exact integer F: |F(z_i)| and its noise bound e_i come from
    ``_horner_fixed`` and ``_horner_noise``, and one isqrt of
    prod |z_i - z_j|^2 bounds the product from below.  The disks hold
    every zero of F, k per connected component of k disks (Bini &
    Fiorentino 2000): one per disk if they are disjoint.
    """
    if len(set(pts)) < len(pts):
        return None
    n, out = len(F) - 1, []
    for x, y in pts:
        sq = math.prod([(x - u) ** 2 + (y - v) ** 2 for u, v in pts if u != x or v != y])
        a, b = _horner_fixed(F, x, y, k)
        num = n * (_ceil_sqrt(a * a + b * b) + _horner_noise(n, x, y, k)) << k * (n - 1)
        out.append((x, y, -(-num // (abs(F[-1]) * math.isqrt(sq)))))
    return out


def _round_bits(m, bits):
    """The int m rounded to nearest at ``bits`` significant bits, ties to even."""
    n = max(abs(m).bit_length() - bits, 0)
    return round(Fraction(m, 1 << n)) << n


def _refine(F, dF, center, radius, start, cap, workprec):
    """Newton on the integer F from ``center``, each step at 4x the bits
    the last one gained; the zero as a ``Point`` rounded to ``cap`` bits,
    or None.

    ``center`` is two (m, e) pairs, the parts m 2^e, and ``radius`` one.
    The iterate is z = (x + iy)/2^k with k = prec + s fractional bits at
    prec bits (s > 0 keeps prec significant bits when |center| < 1); a
    real center keeps y = 0 (``_horner_fixed``'s real form).  From
    ``start`` bits up to ``cap``, then one certifying step w at k = cap + s
    plus the bits of the noise bound plus 4.  With A, B the computed values
    and e_A, e_B their noise bounds, |F(z)/F'(z)| <= |w|* =
    (|A| + e_A)/(|B| - e_B), so a zero of F lies within n|w|* of z.  For u,
    z - w rounded to cap bits, accepted if D(z, n|w|*) lies in
    D(center, radius) and |u - z| + n|w|* <= 2^(GUARD_BITS - 1 - workprec)
    (1 + |z|), so that u lies within 2^-precision_bits (1 + |u|) of that
    zero; both checks compare integers.  None if F' vanishes, a step gains
    no bits or a check fails.
    """
    n = len(F) - 1
    cx, cy = center
    s = max(0, 1 - max((m.bit_length() + e for m, e in (cx, cy) if m), default=1))
    k = start + s
    x, y = _at(*cx, k), _at(*cy, k)
    prec, bits, final = start, 0, False
    while True:
        a, b = _horner_fixed(F, x, y, k)
        c, d = _horner_fixed(dF, x, y, k)
        if d:
            wx, wy = _quotient(a, b, c, d, k)
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
    g = max(k, -cx[1], -cy[1], -radius[1])
    dx, dy = (x << (g - k)) - _at(*cx, g), (y << (g - k)) - _at(*cy, g)
    slack = _at(*radius, g) * den - (num << g)
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


def _newton_ladder(F, disks, g, start, cap, workprec):
    """Each zero of the integer F refined from its own isolated disk, or None.

    ``disks`` are ``_fixed_disks``' (x, y, r) on the grid 2^-g, or None;
    each must miss every other, (x - u)^2 + (y - v)^2 > (r + s)^2.  Then
    ``_refine`` takes each from its center, from ``start`` bits up to
    ``cap``.  F is real, so a disk meeting the real axis needs an isolated
    symmetric hull D(x, r + |y|): its one zero is its own conjugate, so
    real (refined in the real form).  F[0] != 0, so F is never odd; if F
    is even, a disk with |x| <= r whose mirror hull D(iy, r + |x|) is
    isolated holds a zero with real part 0, refined with x = 0.  The other
    zeros are nonreal, the lower ones conjugates of the upper ones.
    """
    if disks is None:
        return None

    def isolated(x, y, r, i):
        others = disks[:i] + disks[i + 1 :]
        return all((x - u) ** 2 + (y - v) ** 2 > (r + s) ** 2 for u, v, s in others)

    if not all(isolated(*disk, i) for i, disk in enumerate(disks)):
        return None
    dF = _diff(F)
    even = not any(F[1::2])
    out = []
    for i, (x, y, r) in enumerate(disks):
        if y < -r:
            continue
        if abs(y) <= r:
            y, r = 0, r + abs(y)
            if not isolated(x, y, r, i):
                return None
        elif even and abs(x) <= r and isolated(0, y, r + abs(x), i):
            x, r = 0, r + abs(x)
        u = _refine(F, dF, ((x, -g), (y, -g)), (r, -g), start, cap, workprec)
        if u is None:
            return None
        out.append(u)
        if y > 0:
            out.append(u.conjugate())
    return out


def _aberth(source, workprec):
    """All zeros of a square-free polynomial with nonzero constant term;
    (positions, certified).

    ``source`` lists the ascending rational coefficients, of degree
    n >= 1 with source[0] != 0 and source[-1] != 0; degree 1 gives its
    exact zero.  All that certifies runs on F = ``_integer_part(source)``,
    so a certified position lies within 2^(GUARD_BITS - workprec)
    (1 + |z|) of its own zero of ``source``.  With 2^-lo <= |zero| <= 2^hi
    (``_zero_bounds``) and lo floored at 0, rung 0 places the double seeds
    on the grid k = min(106, workprec) + lo and climbs the Newton ladder
    from min(106, workprec) bits to workprec.  Each later rung, at
    wp = workprec, ..., 2^MAX_PRECISION_DOUBLINGS workprec, sweeps on the
    grid k = wp + lo (first from the double seeds, or from the circle
    |z| = 2^hi) and refines at start = cap = k: no center is floored, and
    inside a tight cluster a lower start's noise over |F'| exceeds the
    spacing of the zeros.  Past the last rung the positions come back
    uncertified.
    """
    if len(source) == 2:
        return [Point(-source[0] / source[1], ZERO)], True
    F = _integer_part(source)
    lo, hi = _zero_bounds(F)
    lo = max(lo, 0)
    seeds = _double_seeds(source, hi)
    if seeds is not None:
        start = min(106, workprec)
        pts = [_place(z, start + lo) for z in seeds]
        disks = _fixed_disks(F, pts, start + lo)
        located = _newton_ladder(F, disks, start + lo, start, workprec, workprec)
        if located is not None:
            return located, True
        pts = [_place(z, workprec + lo) for z in seeds]
    else:
        pts = [_place(z, workprec + lo + hi) for z in _circle_start(len(F) - 1, 1.0)]
    k = workprec + lo
    for wp in (workprec << j for j in range(MAX_PRECISION_DOUBLINGS + 1)):
        pts = [(x << wp + lo - k, y << wp + lo - k) for x, y in pts]
        k = wp + lo
        _fixed_sweep(F, pts, k, wp)
        located = _newton_ladder(F, _fixed_disks(F, pts, k), k, k, k, workprec)
        if located is not None:
            return located, True
    return [Point(Fraction(x, 1 << k), Fraction(y, 1 << k)) for x, y in pts], False


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
    within 2^-precision_bits (1 + |r|) by imaginary part.  Only the lower
    member of a conjugate pair is sorted; its exact conjugate follows it.

    Raises
    ------
    ValueError (``precision_bits`` not an int >= 1), DegreeZero,
    NoConvergence (the ladder certified a factor on no rung up to
    2^MAX_PRECISION_DOUBLINGS times the working precision; the best
    RootSet found rides on the exception, every position sorted and none
    paired, as its positions are not exact conjugates).
    """
    if type(precision_bits) is not int or precision_bits < 1:
        raise ValueError(f"precision_bits must be an int >= 1, not {precision_bits!r}")
    if f.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    deg = int(f.degree)
    workprec = _work_precision(precision_bits)
    nzero, factors = _zero_root_and_split(f.coeffs)
    located, certified = [], True
    for factor, mult in factors:
        positions, ok = _aberth(factor, workprec)
        located += [(z, mult) for z in positions]
        certified = certified and ok
    if certified:  # each upper member of a pair follows its exact conjugate
        lower = _sort_located([t for t in located if t[0].imag <= 0], precision_bits)
        located = []
        for z, mult in lower:
            located += [(z, mult), (z.conjugate(), mult)] if z.imag else [(z, mult)]
    else:
        located = _sort_located(located, precision_bits)
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
    """Roots (with multiplicity) certified inside the open disk: a certified
    lower bound on the zeros of the source polynomial there.

    ``center`` is a ``Point`` or a rational and ``radius`` a rational: a
    float is a TypeError, as in ``Poly``, and a radius <= 0 a ValueError.
    A root r counts only when the disk still holds it after shrinking by
    its certificate rho = 2^-precision_bits (1 + |r|), so the zero it
    stands for is inside; a root within rho of the boundary is not
    counted."""
    return sum(r.multiplicity for r in _counted_roots(rs, center, radius))


def _counted_roots(rs: RootSet, center, radius):
    """The roots ``roots_in_disk`` counts, nearest ``center`` first (in
    ``rs`` order at equal distance).  Squared distances are compared on
    one integer grid 1/L, in units of 2^-precision_bits / L, where rho is
    L + |r| L, rounded up."""
    if not isinstance(center, Point):
        center = Point(center, ZERO)
    center = Point(as_fraction(center.real), as_fraction(center.imag))
    radius = as_fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    p = rs.precision_bits
    xs, ys, den = on_grid([center, Point(radius, ZERO)] + rs.locations())
    cx, cy, rad = xs[0], ys[0], xs[1] << p
    counted = []
    for r, x, y in zip(rs.roots, xs[2:], ys[2:]):
        dist = ((x - cx) ** 2 + (y - cy) ** 2) << 2 * p
        rho = den + _ceil_sqrt(x * x + y * y)
        if rad > rho and dist < (rad - rho) ** 2:
            counted.append((dist, r))
    counted.sort(key=lambda t: t[0])
    return [r for _dist, r in counted]
