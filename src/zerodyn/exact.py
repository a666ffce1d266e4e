"""Exact zero counts of rational polynomials, on integer coefficients.

The exact route answers "how many nonreal zeros, and are all zeros
simple" (``count_nonreal``, ``ZeroCount.squarefree``) with no tolerance
at every degree.  It strips the zero root and splits the rest into
square-free factors once (``_zero_root_and_split``, through
``_squarefree_split``: the modular certificate, else Yun's split, whose
gcds are integer primitive remainder sequences, PRS).  Each factor's
real zeros are counted on its primitive integer multiple F, by a route
chosen by F's degree: below ``DESCARTES_MIN_DEGREE`` the PRS of F and
F', a Sturm chain; from that degree up, where the PRS coefficients grow
to thousands of bits, Descartes bisection.

This module is independent of the certified root finder in ``roots``,
which takes its square-free split (``_zero_root_and_split``) and integer
parts from here; ``roots`` binds ``count_nonreal``, ``all_real_simple``,
``ZeroCount`` and ``_exact_profile`` under the same names.  A zero count
never executes the root finder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .poly import Poly, _taylor_shift
from .records import Record
from .scalars import common_denominator

DESCARTES_MIN_DEGREE = 24  # _real_zeros' route per factor: Sturm PRS below, Descartes from here
SQUAREFREE_PRIME = 2**61 - 1


class ZeroCount(Record):
    total: int
    real_count: int
    nonreal_count: int
    method: str  # "exact": per square-free factor, Sturm chain or Descartes bisection
    squarefree: bool  # every zero has multiplicity 1


# ---------------------------------------------------------------------------
# Integer coefficient lists (ascending, stripped).


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
    return _primitive(common_denominator(c)[0])


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


def _zero_root_and_split(c):
    """(multiplicity of the zero root of nonzero ``c``, ``_squarefree_split`` of the rest)."""
    nzero = next(i for i, x in enumerate(c) if x)
    return nzero, _squarefree_split(c[nzero:])


def _sign_variations(values):
    """Sign changes along ``values``, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _variations_01(q):
    """V, the sign variations of (x+1)^n q(1/(x+1)), or 2 if V >= 2.

    q's list holds x^n q(1/x) highest coefficient first, the order in
    which ``poly._taylor_shift`` runs its running sums for a shift by 1,
    so the same sums leave the transform, highest first.  The count is
    read as the shift runs: the pass over b[:i+1] leaves b[i] final, so
    it stops once it reaches 2, some 20 % sooner on the degree-32 to 48
    onset iterates than a full shift.  b[0] = q(0) never changes.
    """
    b = list(q)
    v, last = 0, None
    for i in range(len(b) - 1, 0, -1):
        b[: i + 1] = accumulate(b[: i + 1])
        if b[i]:
            s = b[i] > 0
            if s != last and last is not None:
                v += 1
                if v == 2:
                    return v
            last = s
    return v + (b[0] != 0 and last is not None and (b[0] > 0) != last)


def _zeros_01(q):
    """Zeros in (0, 1) of the square-free integer polynomial ``q``.

    Vincent-Collins-Akritas bisection.  With V from ``_variations_01``,
    Descartes' rule makes V minus the zeros in (0, 1) even and >= 0, so
    V <= 1 is the count.  Otherwise (0, 1) is split at 1/2: l(x) = 2^n
    q(x/2) on (0, 1) holds q's zeros in (0, 1/2), l(x+1) those in (1/2, 1),
    and q(1/2) = 0 iff l(1) = 0, the constant term of l(x+1).  A zero at
    an end point, 0 or 1, drops out of V, so it is never counted; the
    bisection ends because q is square-free.
    """
    count, todo = 0, [q]
    while todo:
        q = todo.pop()
        v = _variations_01(q)
        if v < 2:
            count += v
            continue
        n = len(q) - 1
        left = [x << (n - k) for k, x in enumerate(q)]
        right = list(left)
        _taylor_shift(right, 1)
        count += right[0] == 0
        todo += [left, right]
    return count


def _positive_zeros(a):
    """Positive zeros of the square-free integer polynomial ``a``, a[0] != 0.

    At most one sign variation answers by Descartes' rule.  Otherwise
    every positive zero lies below Kioustelidis' bound
    2 max |a_k / a_n|^(1/(n-k)) over the a_k of sign opposite to a_n.  With
    b(x) the bit length of |x|, |a_k / a_n| < 2^(b(a_k) - b(a_n) + 1), so
    every positive zero is below 2^s,
    s = 1 + max ceil((b(a_k) - b(a_n) + 1) / (n - k)),
    and a(2^s x), times 2^(-sn) when s < 0, has them in (0, 1).
    """
    v = _sign_variations(a)
    if v < 2:
        return v
    n = len(a) - 1
    lead, bits = a[-1] > 0, a[-1].bit_length()
    s = 1 + max(
        -((bits - 1 - x.bit_length()) // (n - k))
        for k, x in enumerate(a[:-1])
        if x and (x > 0) != lead
    )
    if s >= 0:
        return _zeros_01([x << s * k for k, x in enumerate(a)])
    return _zeros_01([x << -s * (n - k) for k, x in enumerate(a)])


def _real_zeros(F):
    """Real zeros of the square-free integer polynomial ``F``, F[0] != 0.

    Below ``DESCARTES_MIN_DEGREE`` the Sturm chain ``_prs(F, F')`` counts
    them by the sign variations at -inf and +inf; from it up, where the
    PRS coefficients grow to thousands of bits, Descartes bisection counts
    the positive zeros of F(x) and of F(-x).
    """
    if len(F) - 1 < DESCARTES_MIN_DEGREE:
        chain = _prs(F, _primitive(_diff(F)))
        at_plus = [p[-1] for p in chain]
        at_minus = [x if len(p) & 1 else -x for x, p in zip(at_plus, chain)]
        return _sign_variations(at_minus) - _sign_variations(at_plus)
    mirror = [-x if k & 1 else x for k, x in enumerate(F)]
    return _positive_zeros(F) + _positive_zeros(mirror)


def _exact_profile(f: Poly):
    """(real_count_with_mult, nonreal_count, is_squarefree) for rational f
    of degree >= 1.

    A zero root counts with its multiplicity.  Each square-free factor
    of the rest (``_zero_root_and_split``), as its primitive integer
    multiple F, adds ``_real_zeros(F)`` times its multiplicity.
    """
    nzero, factors = _zero_root_and_split(f.coeffs)
    real, squarefree = nzero, nzero <= 1
    for factor, mult in factors:
        real += mult * _real_zeros(_integer_part(factor))
        squarefree = squarefree and mult == 1
    return real, len(f.coeffs) - 1 - real, squarefree


def count_nonreal(f: Poly) -> ZeroCount:
    """Count nonreal zeros with multiplicity and tell whether f is square-free.

    f has rational coefficients; a constant, the zero polynomial too, has
    no zeros (Z_C(0) = 0).  The count is exact at every degree
    (``_exact_profile``; ``method`` "exact"), with no tolerance.
    """
    deg = f.degree
    if deg < 1:
        return ZeroCount(0, 0, 0, "exact", True)
    real, nonreal, squarefree = _exact_profile(f)
    return ZeroCount(int(deg), real, nonreal, "exact", squarefree)


def all_real_simple(f: Poly) -> bool:
    """True iff every zero of f is real and simple."""
    zc = count_nonreal(f)
    return zc.nonreal_count == 0 and zc.squarefree
