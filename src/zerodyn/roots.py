"""Complex root finding with certification and exact nonreal-zero counting.

Two routes, deliberately independent:

* a floating route: Aberth-Ehrlich sweeps in Python ``complex``
  arithmetic give seeds with inclusion disks; when the disks are
  disjoint each holds one zero, refined from its seed by Newton at
  rising precision and certified in its disk (real zeros of real input
  in mpf, their nonreal zeros as exact conjugate pairs).  Otherwise the
  sweep reruns at the working precision with Newton polishing.  Rational
  input is first split into square-free factors, so every root comes
  with its exact multiplicity; floating input gets multiplicities from
  cluster merging;
* an exact route for rational coefficients: the integer primitive
  remainder sequence (PRS) of F and F' is a Sturm chain ending in
  gcd(F, F'); a square-free F is answered from that one chain, repeated
  factors rerun it on the gcd, and the Yun split of find_roots takes its
  gcds from the same PRS.  No tolerances are involved.

``count_nonreal`` is the one entry point for "how many nonreal zeros,
and are all zeros simple" (``ZeroCount.squarefree``); every other
caller in the library goes through it.  It prefers the exact route up
to degree 64; beyond that PRS coefficients blow up in bit size and the
floating route takes over with a warning, whoever the caller is.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .errors import DegreeZero, NoConvergence
from .poly import Poly
from .scalars import DEFAULT_PRECISION_BITS, DEFAULT_REAL_TOL, to_mp

EXACT_DEGREE_LIMIT = 64
GUARD_BITS = 64
MAX_SWEEPS = 400
NEWTON_POLISH_STEPS = 2
SQUAREFREE_PRIME = 2**61 - 1
DOUBLE_EPS = 2.0**-53
DOUBLE_MIN = 2.0**-1022  # smallest normal double
# covers the rounding of the < 8n double operations per radius or distance, n < 2^29
INCLUSION_SLACK = 1 + 2.0**-20


def _work_precision(precision_bits: int) -> int:
    # Rational input reaches the sweep as square-free factors, so this
    # margin matters for floating input only: a multiplicity-k root
    # scatters its cluster at radius ~2^(-work/k), and doubling the
    # precision keeps that inside the 2^(-prec/4) merge radius for every
    # multiplicity up to 8.
    return max(2 * precision_bits, precision_bits + GUARD_BITS)


@dataclass(frozen=True)
class Root:
    location: object  # mpc
    multiplicity: int
    residual: float


@dataclass
class RootSet:
    """All roots of one polynomial, with multiplicities and residuals.

    ``diagnostics`` collects soft events (disk-boundary ties) appended by
    queries; it never affects the roots themselves.
    """

    roots: tuple[Root, ...]
    source_degree: int
    precision_bits: int
    diagnostics: list = field(default_factory=list)

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def locations(self):
        return [r.location for r in self.roots]


@dataclass(frozen=True)
class ZeroCount:
    total: int
    real_count: int
    nonreal_count: int
    method: str  # "exact" | "floating"
    squarefree: bool  # every zero has multiplicity 1


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


def _double_seeds(coeffs, dcoeffs):
    """Positions the double sweep reaches from the circle, converged or not;
    None when a coefficient is not a normal double or a position not finite."""
    cs = [complex(c) for c in coeffs]
    dcs = [complex(c) for c in dcoeffs]
    for c, d in zip(coeffs + dcoeffs, cs + dcs):
        if c != 0 and not DOUBLE_MIN <= abs(d) < math.inf:
            return None
    zs = _circle_start(cs, cmath)
    _sweep(cs, dcs, zs, DOUBLE_EPS, stall_stop=True)
    return zs if all(math.isfinite(abs(z)) for z in zs) else None


def _inclusion_radii(coeffs, zs):
    """Radii r_i = n (|f(z_i)| + e_i) / (|a_n| prod_{j != i} |z_i - z_j|), or None.

    In doubles, e_i the sweep's noise bound (|c_k| floored at DOUBLE_MIN
    for underflow), times ``INCLUSION_SLACK``; None when a value leaves the
    normal doubles.  The disks hold every zero, k per connected component
    of k disks (Bini & Fiorentino 2000): one per disk if they are disjoint.
    """
    cs = [complex(c) for c in coeffs]
    floor = [max(abs(c), DOUBLE_MIN) for c in cs]
    n = len(zs)
    radii = []
    for i, z in enumerate(zs):
        prod = abs(cs[-1])
        for j, u in enumerate(zs):
            if j != i:
                prod *= abs(z - u)
                if prod < DOUBLE_MIN:
                    return None
        err = DOUBLE_EPS * (4 * n + 4) * _horner(floor, abs(z))
        r = INCLUSION_SLACK * n * (abs(_horner(cs, z)) + err) / prod
        if not DOUBLE_MIN <= r < math.inf:
            return None
        radii.append(r)
    return radii


def _refine(coeffs, dcoeffs, z, center, radius, workprec):
    """Newton from seed z, each step at 4x the bits the last one gained.

    From 106 bits up to ``workprec``, then one certifying step w: a zero
    lies within n|w| of z.  Returns z - w if that zero is in the disk
    D(center, radius) and (n+1)|w| <= 2^(GUARD_BITS - 1 - workprec) (1+|z|),
    so within 2^-precision_bits (1 + |z - w|) of it; None if f' vanishes,
    a step gains no bits or a check fails.
    """
    n = len(coeffs) - 1
    prec, bits, final = min(106, workprec), 0, False
    while True:
        with mp.workprec(prec):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                return None
            w = _horner(coeffs, z) / dz
            if final:
                break
            z = z - w
        gained = mp.mag(1 + abs(z)) - mp.mag(w) if w else prec
        if gained <= bits:
            return None
        final, bits = prec == workprec, gained
        prec = min(4 * bits, workprec)
    inside = abs(z - center) + n * abs(w) < radius
    small = (n + 1) * abs(w) <= mp.ldexp(1 + abs(z), GUARD_BITS - 1 - workprec)
    return z - w if inside and small else None


def _newton_ladder(coeffs, dcoeffs, seeds, workprec):
    """Each zero refined from its own isolated double seed, or None.

    For real coefficients a disk meeting the axis needs an isolated
    symmetric hull D(Re z, r + |Im z|): its one zero is its own conjugate,
    so real (refined in mpf).  The other zeros are nonreal, and those in
    the lower half-plane are the conjugates of the upper ones.
    """
    radii = _inclusion_radii(coeffs, seeds)
    if radii is None:
        return None
    disks = list(zip(seeds, radii))

    def isolated(c, r, i):
        others = disks[:i] + disks[i + 1 :]
        return all(abs(c - z) > INCLUSION_SLACK * (r + s) for z, s in others)

    if not all(isolated(z, r, i) for i, (z, r) in enumerate(disks)):
        return None
    real = not any(c.imag for c in coeffs)
    if real:
        coeffs, dcoeffs = [c.real for c in coeffs], [c.real for c in dcoeffs]
    out = []
    for i, (z, r) in enumerate(disks):
        if real and z.imag < -r:
            continue
        if real and abs(z.imag) <= r:
            z, r = z.real, r + abs(z.imag)
            if not isolated(z, r, i):
                return None
        u = _refine(coeffs, dcoeffs, mp.mpmathify(z), z, r, workprec)
        if u is None:
            return None
        out.append(mp.mpc(u))
        if real and z.imag > 0:
            out.append(u.conjugate())
    return out


def _aberth(coeffs, workprec):
    """All zeros of a polynomial with nonzero constant term; (positions, converged).

    ``coeffs`` is an ascending mpc list of degree n >= 1 with
    coeffs[0] != 0 and coeffs[-1] != 0.  The double seeds go to the Newton
    ladder; failing that, the working-precision sweep starts from them
    (from the circle if there are none), then guarded Newton polishing.
    """
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[0] / coeffs[1]], True
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
    seeds = _double_seeds(coeffs, dcoeffs)
    if seeds is None:
        zs = _circle_start(coeffs, mp)
    else:
        located = _newton_ladder(coeffs, dcoeffs, seeds, workprec)
        if located is not None:
            return located, True
        zs = [mp.mpc(z) for z in seeds]
    converged = _sweep(coeffs, dcoeffs, zs, mp.mpf(2) ** (-workprec))
    for k in range(n):
        z = zs[k]
        fz = _horner(coeffs, z)
        best = abs(fz)
        for _ in range(NEWTON_POLISH_STEPS):
            dz = _horner(dcoeffs, z)
            if dz == 0:
                break
            cand = z - fz / dz
            fc = _horner(coeffs, cand)
            if abs(fc) < best:
                z, fz, best = cand, fc, abs(fc)
            else:
                break
        zs[k] = z
    return zs, converged


def _merge_clusters(zs, precision_bits):
    """Single-linkage merge within the quarter-precision radius.

    Returns (centroid, size) pairs; the centroid averages out the
    symmetric scatter a multiple root induces on its cluster.
    """
    n = len(zs)
    thr = mp.mpf(2) ** (-(precision_bits // 4))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            scale = 1 + (abs(zs[i]) + abs(zs[j])) / 2
            if abs(zs[i] - zs[j]) <= thr * scale:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(zs[i])
    return [(sum(members) / len(members), len(members)) for members in groups.values()]


def _pair_conjugates(located):
    """Sorted (location, multiplicity) pairs, each conjugate pair adjacent.

    Sorting alone lists either member of a pair first: their real parts
    differ by noise.  z's partner is the root nearest conj(z) if nearer
    than z, which a real root never finds; the lower member goes first.
    """
    rest, out = list(located), []
    while rest:
        z = rest.pop(0)
        zc = z[0].conjugate()
        w = min(rest, key=lambda t: abs(t[0] - zc), default=None)
        if w is not None and abs(w[0] - zc) < abs(z[0] - zc):
            rest.remove(w)
            out += sorted([z, w], key=lambda t: t[0].imag)
        else:
            out.append(z)
    return out


def find_roots(f: Poly, precision_bits: int = DEFAULT_PRECISION_BITS) -> RootSet:
    """All complex roots of f with residual certificates.

    Parameters
    ----------
    f : Poly
        Degree >= 1; exact or floating coefficients.
    precision_bits : int
        Stated precision of the result.  Internally the iteration runs
        with guard bits so cluster merging at 2^(-precision_bits/4)
        separates genuine multiplicity from iteration noise.

    Returns
    -------
    RootSet with sum of multiplicities equal to deg f and, per root,
    the relative residual |f(r)| / (||f||_inf * max(1,|r|)^deg).  Roots
    from the Newton ladder are certified within 2^-precision_bits (1 + |r|)
    of a zero; for real f its real roots have imaginary part exactly 0.
    Multiplicities of exact (rational) input are exact: each square-free
    factor is solved on its own.  Floating input gets them from the
    cluster merge.  Roots are listed by real part (a zero root first);
    for real f each conjugate pair is adjacent, lower half-plane first.

    Raises
    ------
    DegreeZero, NoConvergence (budget exhausted and certificates failed;
    the best RootSet found rides on the exception).
    """
    if f.degree < 1:
        raise DegreeZero("root finding needs degree >= 1")
    deg = int(f.degree)
    workprec = _work_precision(precision_bits)
    with mp.workprec(workprec):
        coeffs = [to_mp(c, workprec) for c in f.coeffs]
        if coeffs[-1] == 0:
            raise DegreeZero("leading coefficient vanishes at working precision")
        nzero = 0
        while coeffs[nzero] == 0:
            nzero += 1
        if f.is_exact:
            located, converged = [], True
            for factor, mult in _squarefree_split(f.coeffs[nzero:]):
                body = [mp.mpc(to_mp(c, workprec)) for c in factor]
                positions, ok = _aberth(body, workprec)
                located += [(z, mult) for z in positions]
                converged = converged and ok
        else:
            body = [mp.mpc(c) for c in coeffs[nzero:]]
            positions, converged = _aberth(body, workprec) if len(body) > 1 else ([], True)
            located = _merge_clusters(positions, precision_bits)
        located.sort(key=lambda t: (t[0].real, t[0].imag))
        if f.is_real():
            located = _pair_conjugates(located)
        if nzero:
            located.insert(0, (mp.mpc(0), nzero))
        sup = max(abs(c) for c in coeffs)
        roots = []
        for loc, mult in located:
            val = _horner(coeffs, loc)
            rel = abs(val) / (sup * max(mp.mpf(1), abs(loc)) ** deg)
            roots.append(Root(location=loc, multiplicity=mult, residual=float(rel)))
        rs = RootSet(
            roots=tuple(roots),
            source_degree=deg,
            precision_bits=precision_bits,
        )
        if not converged:
            cert = 2.0 ** (-(precision_bits // 2))
            if any(r.residual > cert for r in rs.roots):
                raise NoConvergence(
                    "iteration budget exhausted before certification", best=rs
                )
        return rs


# ---------------------------------------------------------------------------
# Exact machinery on integer coefficient lists (ascending, stripped).


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _diff(c):
    return [k * c[k] for k in range(1, len(c))]


def _primitive(c):
    """c divided by its positive content."""
    g = math.gcd(*c)
    return [x // g for x in c]


def _integer_part(c):
    """Primitive integer polynomial that is a positive multiple of rational ``c``."""
    den = math.lcm(*(x.denominator for x in c))
    return _primitive([x.numerator * (den // x.denominator) for x in c])


def _pseudo_rem(a, b):
    """Remainder of m*a divided by b for some integer m > 0."""
    n = len(b) - 1
    lb = abs(b[-1])
    low = b[:-1] if b[-1] > 0 else [-x for x in b[:-1]]
    r = list(a)
    while len(r) > n:
        t = r.pop()
        k = len(r) - n
        r[:k] = [lb * x for x in r[:k]]
        r[k:] = [lb * x - t * y for x, y in zip(r[k:], low)]
        r = _strip(r)
    return r


def _exact_quo(a, b):
    """a / b for b primitive and dividing a: integral by Gauss's lemma."""
    n = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - n)
    for k in reversed(range(len(q))):
        t = q[k] = r[k + n] // b[-1]
        for i in range(n):
            r[k + i] -= t * b[i]
    return q


def _prs(a, b):
    """Primitive remainder sequence a, b, -prem, ...; the last is gcd(a, b).

    Every pseudo-remainder is negated and divided by its positive content,
    so each element is a positive multiple of the Euclidean remainder's
    negation: for b = a' this is a Sturm chain of a.
    """
    chain = [a, b]
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _yun_squarefree(f):
    """Square-free decomposition: list of (factor, multiplicity).

    ``f`` is a stripped rational coefficient list.  Only positive-degree factors
    are returned; each factor is a monic ``Fraction`` list and square-free,
    and f equals (leading coeff) times the product of factor^multiplicity.
    The gcds are integer primitive remainder sequences; the monic factors
    are unique, so they do not depend on how the gcds were scaled.
    """
    b = _integer_part(f)
    c = _diff(b)
    g = _primitive(_prs(b, c)[-1])
    b, c = _exact_quo(b, g), _exact_quo(c, g)
    out = []
    i = 1
    while len(b) > 1:
        d = _strip([x - y for x, y in zip(c, _diff(b), strict=True)])
        a = _primitive(_prs(b, d)[-1]) if d else b
        if len(a) > 1:
            out.append(([Fraction(x, a[-1]) for x in a], i))
        b, c = _exact_quo(b, a), _exact_quo(d, a)
        i += 1
    return out


def _certified_squarefree(c):
    """True only if the rational polynomial ``c`` is square-free.

    Computes gcd(F, F') over GF(p), p = SQUAREFREE_PRIME, by reduced
    pseudo-remainders of the primitive integer multiple F of ``c``.  When
    p does not divide lc(F), a repeated factor g of F over Q reduces to a
    repeated factor of F mod p of the same degree, so a constant gcd
    certifies that ``c`` is square-free.  False decides nothing.
    """
    p = SQUAREFREE_PRIME
    a = [x % p for x in _integer_part(c)]
    if a[-1] == 0:
        return False
    b = _strip([x % p for x in _diff(a)])
    while b:
        # the multiplier is a power of lc(b), a unit mod p
        a, b = b, _strip([x % p for x in _pseudo_rem(a, b)])
    return len(a) == 1


def _squarefree_split(c):
    """Pairwise coprime square-free factors of ``c`` with multiplicities.

    ``c`` itself when the modular certificate holds, the Yun
    decomposition otherwise; a constant has no factors.
    """
    if len(c) < 2:
        return []
    if _certified_squarefree(c):
        return [(c, 1)]
    return _yun_squarefree(c)


def _sign_variations(signs):
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _exact_profile(f: Poly):
    """(real_count_with_mult, nonreal_count, is_squarefree) for rational f.

    F's Sturm chain counts its distinct real zeros and ends in G = gcd(F, F'),
    which has every zero of F once less, so the real zeros with multiplicity
    are the distinct ones of F, G, gcd(G, G'), ...: one chain if F is square-free.
    """
    total = len(f.coeffs) - 1  # count_nonreal answers degree < 1 itself
    g = _integer_part(f.coeffs)
    real, squarefree = 0, True
    while True:
        chain = _prs(g, _primitive(_diff(g)))
        at_plus = [(c[-1] > 0) - (c[-1] < 0) for c in chain]
        at_minus = [s * (-1) ** (len(c) - 1) for s, c in zip(at_plus, chain)]
        real += _sign_variations(at_minus) - _sign_variations(at_plus)
        g = _primitive(chain[-1])
        if len(g) == 1:
            return real, total - real, squarefree
        squarefree = False


def count_nonreal(
    f: Poly,
    tol: float = DEFAULT_REAL_TOL,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    rs: RootSet | None = None,
) -> ZeroCount:
    """Count nonreal zeros with multiplicity and tell whether f is square-free.

    Rational coefficients up to degree 64 go through the exact route (one
    integer primitive PRS of f and f', rerun on gcd(f, f') only for
    repeated factors); no tolerance enters.  Otherwise roots
    are located at ``precision_bits`` (or taken from ``rs``, a RootSet of
    f the caller already holds), a root r counts as real iff
    |Im r| <= tol * (1 + |r|), and f is square-free iff every root has
    multiplicity 1.  Multiplicities from ``find_roots`` are exact for
    rational input, so ``squarefree`` is exact at any degree there; only
    floating input takes them from the cluster merge.
    """
    if not f.is_real():
        raise ValueError("nonreal-zero counting is defined for real polynomials")
    deg = f.degree
    if deg < 1:
        return ZeroCount(0, 0, 0, "exact", True)
    deg = int(deg)
    if f.is_exact:
        if deg <= EXACT_DEGREE_LIMIT:
            real, nonreal, squarefree = _exact_profile(f)
            return ZeroCount(deg, real, nonreal, "exact", squarefree)
        warnings.warn(
            f"degree {deg} > {EXACT_DEGREE_LIMIT}: falling back to floating count",
            stacklevel=2,
        )
    if rs is None:
        rs = find_roots(f, precision_bits)
    real = sum(
        r.multiplicity
        for r in rs.roots
        if abs(r.location.imag) <= tol * (1 + abs(r.location))
    )
    squarefree = all(r.multiplicity == 1 for r in rs.roots)
    return ZeroCount(deg, real, deg - real, "floating", squarefree)


def all_real_simple(
    f: Poly,
    tol: float = DEFAULT_REAL_TOL,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> bool:
    """True iff every zero of f is real and simple."""
    zc = count_nonreal(f, tol, precision_bits)
    return zc.nonreal_count == 0 and zc.squarefree


def roots_in_disk(rs: RootSet, center, radius) -> int:
    """Roots (with multiplicity) strictly inside the open disk.

    A root within the location-uncertainty band of the boundary counts
    as inside and the tie is recorded in ``rs.diagnostics``; persistence
    checks downstream prefer a false positive that later re-verification
    can reject over a silently dropped witness.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    with mp.workprec(rs.precision_bits + GUARD_BITS):
        c = mp.mpc(center)
        rad = mp.mpf(radius)
        band_scale = mp.mpf(2) ** (-(rs.precision_bits // 4))
        count = 0
        for r in rs.roots:
            dist = abs(r.location - c)
            band = band_scale * (1 + abs(r.location))
            if dist < rad - band:
                count += r.multiplicity
            elif dist <= rad + band:
                count += r.multiplicity
                rs.diagnostics.append(
                    {
                        "event": "boundary-tie",
                        "center": c,
                        "radius": rad,
                        "root": r.location,
                        "distance": dist,
                    }
                )
        return count
