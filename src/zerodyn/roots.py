"""Complex root finding with certification and exact nonreal-zero counting.

Two routes, deliberately independent:

* a floating route: deterministic simultaneous iteration (Aberth-Ehrlich)
  at a stated binary precision, with guarded Newton polishing, cluster
  merging for multiplicities, and a relative-residual certificate per
  root;
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


def _work_precision(precision_bits: int) -> int:
    # A multiplicity-k root scatters its cluster at radius ~2^(-work/k);
    # doubling the precision keeps that inside the 2^(-prec/4) merge
    # radius for every multiplicity up to 8.
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


def _eval_with_bound(coeffs, z):
    """Horner value and the bound sum |c_i| |z|^i used for the noise floor."""
    acc = mp.mpc(0)
    bound = mp.mpf(0)
    az = abs(z)
    for c in reversed(coeffs):
        acc = acc * z + c
        bound = bound * az + abs(c)
    return acc, bound


def _aberth(coeffs, workprec):
    """Simultaneous iteration on a polynomial with nonzero constant term.

    ``coeffs`` is an ascending mpc list of degree n >= 1 with
    coeffs[0] != 0 and coeffs[-1] != 0.  Returns (positions, converged):
    a root freezes when its value reaches the evaluation noise floor.
    Initial points sit on a root-bound circle with a fixed angular
    offset; the whole schedule is deterministic.
    """
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[0] / coeffs[1]], True
    dcoeffs = [k * coeffs[k] for k in range(1, n + 1)]
    lead = abs(coeffs[-1])
    # Fujiwara root bound: 2 max_k |c_{n-k}/c_n|^(1/k); far tighter than
    # the Cauchy bound when the low-order coefficients are the huge ones.
    radius = 2 * max(
        mp.root(abs(coeffs[n - k]) / lead, k)
        for k in range(1, n + 1)
        if coeffs[n - k] != 0
    )
    radius = max(radius, mp.mpf(1) / 2)
    zs = [
        radius * mp.expjpi(mp.mpf(2 * k) / n + mp.mpf(1) / (2 * n))
        for k in range(n)
    ]
    eps = mp.mpf(2) ** (-workprec)
    tiny = eps * 16
    frozen = [False] * n
    converged = False
    for _sweep in range(MAX_SWEEPS):
        max_rel_step = mp.mpf(0)
        for k in range(n):
            if frozen[k]:
                continue
            z = zs[k]
            fval, bound = _eval_with_bound(coeffs, z)
            if abs(fval) <= eps * (4 * n + 4) * bound:
                frozen[k] = True
                continue
            dval, _ = _eval_with_bound(dcoeffs, z)
            if dval == 0:
                zs[k] = z + tiny * (1 + abs(z)) * mp.mpc(1, 1)
                max_rel_step = mp.mpf(1)
                continue
            newton = fval / dval
            s = mp.mpc(0)
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
            converged = True
            break
    for k in range(n):
        z = zs[k]
        fz, _ = _eval_with_bound(coeffs, z)
        best = abs(fz)
        for _ in range(NEWTON_POLISH_STEPS):
            dz, _ = _eval_with_bound(dcoeffs, z)
            if dz == 0:
                break
            cand = z - fz / dz
            fc, _ = _eval_with_bound(coeffs, cand)
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
    out = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        out.append((centroid, len(members)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
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
    the relative residual |f(r)| / (||f||_inf * max(1,|r|)^deg).

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
        body = [mp.mpc(c) for c in coeffs[nzero:]]
        positions = []
        converged = True
        if len(body) > 1:
            positions, converged = _aberth(body, workprec)
        merged = _merge_clusters(positions, precision_bits) if positions else []
        if nzero:
            merged.insert(0, (mp.mpc(0), nzero))
        sup = max(abs(c) for c in coeffs)
        roots = []
        for loc, mult in merged:
            val, _ = _eval_with_bound(coeffs, loc)
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
    |Im r| <= tol * (1 + |r|), and f is square-free iff every merged
    root has multiplicity 1.
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
