"""Complex root finding with certification and exact nonreal-zero counting.

Two routes, deliberately independent:

* a floating route: deterministic simultaneous iteration (Aberth-Ehrlich)
  run as a two-rung precision ladder.  The sweep first runs in Python
  ``complex`` arithmetic from a root-bound circle; its converged
  positions seed the same sweep at the working precision, where the
  freeze test, Newton polishing and the relative-residual certificate
  per root are applied.  When the coefficients leave the double range
  or the double sweep stalls, the working-precision sweep starts from
  the circle itself.  Rational input is first split into square-free
  factors, so every root comes with its exact multiplicity; floating
  input gets multiplicities from cluster merging;
* an exact route for rational coefficients: real roots counted by Sturm
  chains on the square-free factors, multiplicities recovered from the
  repeated-gcd (Yun) decomposition.  No tolerances are involved.

``count_nonreal`` is the one entry point for "how many nonreal zeros,
and are all zeros simple" (``ZeroCount.squarefree``); every other
caller in the library goes through it.  It prefers the exact route up
to degree 64; beyond that Sturm chains blow up in bit size and the
floating route takes over with a warning, whoever the caller is.
"""

from __future__ import annotations

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
DOUBLE_SWEEPS = 100  # the double rung gives up (circle start) past this
NEWTON_POLISH_STEPS = 2
SQUAREFREE_PRIME = 2**61 - 1
DOUBLE_EPS = 2.0**-53
DOUBLE_MIN = 2.0**-1022  # smallest normal double


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


def _circle_start(coeffs):
    """Initial points on a root-bound circle with a fixed angular offset."""
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    # Fujiwara root bound: 2 max_k |c_{n-k}/c_n|^(1/k); far tighter than
    # the Cauchy bound when the low-order coefficients are the huge ones.
    radius = 2 * max(
        mp.root(abs(coeffs[n - k]) / lead, k)
        for k in range(1, n + 1)
        if coeffs[n - k] != 0
    )
    radius = max(radius, mp.mpf(1) / 2)
    return [
        radius * mp.expjpi(mp.mpf(2 * k) / n + mp.mpf(1) / (2 * n))
        for k in range(n)
    ]


def _sweep(coeffs, dcoeffs, zs, eps, max_sweeps):
    """Aberth-Ehrlich sweeps on ``zs`` in place; True once converged.

    Runs in the number type of its arguments, so the same loop serves
    the double rung and the working-precision rung.  A root freezes when
    its value reaches the evaluation noise floor eps (4n+4) sum |c_i| |z|^i;
    the run has converged when every root is frozen or no step moves a
    root by more than ``eps`` relative.
    """
    n = len(zs)
    tiny = eps * 16
    acoeffs = [abs(c) for c in coeffs]
    frozen = [False] * n
    for _sweep_no in range(max_sweeps):
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
    return False


def _double_seeds(coeffs, dcoeffs, start):
    """Positions from the sweep run in double precision, or None.

    None when a nonzero coefficient is not a normal double, or the
    sweep stalls within ``DOUBLE_SWEEPS`` or leaves the finite doubles.
    """
    cs = [complex(c) for c in coeffs]
    dcs = [complex(c) for c in dcoeffs]
    for c, d in zip(coeffs + dcoeffs, cs + dcs):
        if c != 0 and not DOUBLE_MIN <= abs(d) < math.inf:
            return None
    zs = [complex(z) for z in start]
    if not _sweep(cs, dcs, zs, DOUBLE_EPS, DOUBLE_SWEEPS):
        return None
    if not all(math.isfinite(abs(z)) for z in zs):
        return None
    return zs


def _aberth(coeffs, workprec):
    """Simultaneous iteration on a polynomial with nonzero constant term.

    ``coeffs`` is an ascending mpc list of degree n >= 1 with
    coeffs[0] != 0 and coeffs[-1] != 0.  Returns (positions, converged).
    The working-precision sweep starts from the double rung's positions
    when it delivers them and from the root-bound circle otherwise; the
    whole schedule is deterministic.
    """
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[0] / coeffs[1]], True
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
    zs = _circle_start(coeffs)
    seeds = _double_seeds(coeffs, dcoeffs, zs)
    if seeds is not None:
        zs = [mp.mpc(z) for z in seeds]
    converged = _sweep(coeffs, dcoeffs, zs, mp.mpf(2) ** (-workprec), MAX_SWEEPS)
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
    the relative residual |f(r)| / (||f||_inf * max(1,|r|)^deg).
    Multiplicities of exact (rational) input are exact: each square-free
    factor is solved on its own.  Floating input gets them from the
    cluster merge.

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
# Exact machinery on Fraction coefficient lists (ascending, stripped).


def _fstrip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _fdeg(c):
    return len(c) - 1


def _fdiff(c):
    return [k * c[k] for k in range(1, len(c))]


def _fdivmod(a, b):
    a = _fstrip(a)
    b = _fstrip(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = _fdeg(b), b[-1]
    if _fdeg(a) < db:
        return [], a
    q = [Fraction(0)] * (_fdeg(a) - db + 1)
    r = list(a)
    while _fdeg(r) >= db:
        k = _fdeg(r) - db
        t = r[-1] / lb
        q[k] = t
        for i in range(db + 1):
            r[k + i] -= t * b[i]
        r = _fstrip(r)
    return q, r


def _fnormalize_sign(c):
    # scale by a positive constant: keeps Sturm signs, controls growth
    if not c:
        return c
    m = abs(c[-1])
    return [x / m for x in c]


def _fgcd(a, b):
    a, b = _fstrip(a), _fstrip(b)
    while b:
        _, r = _fdivmod(a, b)
        a, b = b, _fnormalize_sign(r)
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


def _yun_squarefree(f):
    """Square-free decomposition: list of (factor, multiplicity).

    Only positive-degree factors are returned; each factor is monic and
    square-free, and f equals (leading coeff) times the product of
    factor^multiplicity.
    """
    f = _fstrip(f)
    fp = _fdiff(f)
    g = _fgcd(f, fp)
    if _fdeg(g) == 0:
        lead = f[-1]
        return [([x / lead for x in f], 1)]
    b, _ = _fdivmod(f, g)
    c, _ = _fdivmod(fp, g)
    d = _fstrip([cj - bj for cj, bj in _zip_pad(c, _fdiff(b))])
    out = []
    i = 1
    while _fdeg(b) > 0:
        a = _fgcd(b, d)
        if _fdeg(a) > 0:
            out.append((a, i))
        b, _ = _fdivmod(b, a)
        c, _ = _fdivmod(d, a)
        d = _fstrip([cj - bj for cj, bj in _zip_pad(c, _fdiff(b))])
        i += 1
    return out


def _certified_squarefree(c):
    """True only if the rational polynomial ``c`` is square-free.

    Computes gcd(F, F') over GF(p), p = SQUAREFREE_PRIME, for the
    denominator-cleared integer multiple F of ``c``.  When p does not
    divide lc(F), a repeated factor g of F over Q reduces to a repeated
    factor of F mod p of the same degree, so a constant gcd certifies
    that ``c`` is square-free.  False decides nothing.
    """
    p = SQUAREFREE_PRIME
    den = math.lcm(*(x.denominator for x in c))
    a = [x.numerator * (den // x.denominator) % p for x in c]
    if a[-1] == 0:
        return False
    b = _fstrip([k * a[k] % p for k in range(1, len(a))])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            t = a[-1] * inv % p
            k = len(a) - len(b)
            for i in range(len(b) - 1):
                a[k + i] = (a[k + i] - t * b[i]) % p
            a.pop()
            a = _fstrip(a)
        a, b = b, a
    return len(a) == 1


def _squarefree_split(c):
    """Pairwise coprime square-free factors of ``c`` with multiplicities.

    ``c`` itself when the modular certificate holds, the Yun
    decomposition otherwise; a constant has no factors.
    """
    c = list(c)
    if len(c) < 2:
        return []
    if _certified_squarefree(c):
        return [(c, 1)]
    return _yun_squarefree(c)


def _zip_pad(a, b):
    n = max(len(a), len(b))
    for i in range(n):
        yield (a[i] if i < len(a) else Fraction(0),
               b[i] if i < len(b) else Fraction(0))


def _sign_variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def _sturm_distinct_real(g):
    """Number of distinct real roots of a square-free rational polynomial."""
    g = _fstrip(g)
    if _fdeg(g) <= 0:
        return 0
    chain = [g, _fstrip(_fdiff(g))]
    while _fdeg(chain[-1]) > 0:
        _, r = _fdivmod(chain[-2], chain[-1])
        r = _fnormalize_sign([-x for x in r])
        if not r:
            break
        chain.append(r)
    sgn = lambda x: (x > 0) - (x < 0)
    at_plus = [sgn(c[-1]) for c in chain if c]
    at_minus = [sgn(c[-1]) * (-1) ** _fdeg(c) for c in chain if c]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def _exact_profile(f: Poly):
    """(real_count_with_mult, nonreal_count, is_squarefree) for rational f."""
    cs = _fstrip(f.coeffs)
    total = _fdeg(cs)
    if total <= 0:
        return 0, 0, True
    factors = _yun_squarefree(cs)
    real = sum(i * _sturm_distinct_real(a) for a, i in factors)
    squarefree = all(i == 1 for _, i in factors)
    return real, total - real, squarefree


def count_nonreal(
    f: Poly,
    tol: float = DEFAULT_REAL_TOL,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    rs: RootSet | None = None,
) -> ZeroCount:
    """Count nonreal zeros with multiplicity and tell whether f is square-free.

    Rational coefficients up to degree 64 go through the exact route
    (Sturm chains + repeated gcd); no tolerance enters.  Otherwise roots
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
