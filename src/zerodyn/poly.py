"""Dense univariate polynomials with rational coefficients, and the
operator action phi(D)f.

Coefficients are ``Fraction``s, and every scalar applied to a polynomial
(``scale``, ``dilate``, ``translate``, ``evaluate``) is taken exactly
through ``as_fraction``: a float, mpf or mpc is a TypeError, as it is for
a coefficient.  The only operation that meets an irrational scalar is
:func:`rescale_iterate`, which rounds each rescaled coefficient of an
exact iterate once and returns the dyadic rational it rounded to.

The exact layer (products, :func:`apply_operator`, :func:`translate`,
``series.truncated_power``) runs on integer numerator vectors over one
common denominator and builds each output ``Fraction`` once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import (
    NonMonicInput,
    NotGeneralForm,
    ZeroDilation,
)
from .scalars import (
    DEFAULT_PRECISION_BITS,
    as_fraction,
    common_denominator,
    dyadic_round,
    exact_nth_root,
    fraction_str,
)
from .series import OperatorClass, PowerSeries, _cauchy

NEG_INF = float("-inf")
ZERO = Fraction(0)


class Poly:
    """Dense polynomial; ``coeffs[k]`` is the coefficient of x^k."""

    __slots__ = ("coeffs",)

    # Constants read only by the benchmark tracer, perfbench/spans.py.
    precision = None
    is_exact = True

    def __init__(self, coeffs):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else ZERO

    def is_monic(self) -> bool:
        return self.leading == 1

    def sup_norm(self):
        """Max absolute Taylor coefficient: max_k |f^(k)(0)/k!| = max_k |c_k|."""
        return max(map(abs, self.coeffs), default=ZERO)

    def evaluate(self, x):
        """Horner evaluation at the exact scalar x."""
        x = as_fraction(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coefficient(k) + other.coefficient(k) for k in range(n))

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, den_a = common_denominator(self.coeffs)
        b, den_b = common_denominator(other.coeffs)
        den = den_a * den_b
        return Poly(Fraction(x, den) for x in _cauchy(a, b, len(a) + len(b) - 2))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = Poly([1])
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the exact scalar c."""
        c = as_fraction(c)
        return Poly(a * c for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly_inline(self)


def format_poly_inline(f: Poly) -> str:
    """Inline form like ``x^3+6x`` or ``1/2x^2-1``, which
    ``formats.parse_poly_inline`` reads back identically."""
    if f.is_zero:
        return "0"
    parts = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        x = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        body = x if k > 0 and abs(c) == 1 else f"{fraction_str(abs(c))}{x}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def monomial(d: int) -> Poly:
    """The monic monomial x^d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return Poly([0] * d + [1])


def derivative(f: Poly) -> Poly:
    return Poly(k * c for k, c in enumerate(f.coeffs) if k > 0)


def apply_operator(phi: PowerSeries, f: Poly) -> Poly:
    """phi(D)f = sum_n alpha_n f^(n); the sum stops at n = deg f.

    Coefficient j is sum_n alpha_n (j+n)!/j! c_(j+n), computed on
    integers: with alpha_n = A_n/L_a and k! c_k = C_k/L_c it is
    (sum_n A_n C_(j+n)) / (j! L_a L_c).
    """
    if f.is_zero:
        return f
    d = int(f.degree)
    fact = list(accumulate(range(1, d + 1), mul, initial=1))
    alpha = list(phi.head(d))
    while alpha[-1] == 0 and len(alpha) > 1:
        alpha.pop()  # a zero tail adds nothing to any sum
    a, den_a = common_denominator(alpha)
    c, den_c = common_denominator(f.coeffs)
    c = list(map(mul, fact, c))
    den = den_a * den_c
    return Poly(Fraction(sum(map(mul, a, c[j:])), fact[j] * den) for j in range(d + 1))


def iterate_operator(phi: PowerSeries, f: Poly, m: int) -> Poly:
    """m-fold application of phi(D); m = 0 returns f."""
    if m < 0:
        raise ValueError("iterate count must be >= 0")
    g = f
    for _ in range(m):
        g = apply_operator(phi, g)
    return g


def dilate(f: Poly, c) -> Poly:
    """(Delta_c f)(x) = f(cx): coefficient k picks up c^k."""
    c = as_fraction(c)
    if c == 0:
        raise ZeroDilation("dilation scalar must be nonzero")
    powers = accumulate([c] * (len(f.coeffs) - 1), mul, initial=Fraction(1))
    return Poly(map(mul, f.coeffs, powers))


def translate(f: Poly, c) -> Poly:
    """(T^c f)(x) = f(x+c) by repeated synthetic division (Taylor shift).

    For f = (1/L) sum F_k x^k and c = P/Q the shift runs on integers:
    h(y) = Q^n L f(P y/Q) = sum F_k P^k Q^(n-k) y^k is shifted by 1, and
    coefficient k of h(y+1), which P^k divides, is divided by P^k exactly
    and then by Q^(n-k) L.
    """
    c = as_fraction(c)
    if f.is_zero or c == 0:
        return f
    b, den = common_denominator(f.coeffs)
    n = len(b) - 1
    p_pow = list(accumulate([c.numerator] * n, mul, initial=1))
    q_pow = list(accumulate([c.denominator] * n, mul, initial=1))[::-1]
    b = [x * pk * qk for x, pk, qk in zip(b, p_pow, q_pow)]
    _taylor_shift(b)
    return Poly(Fraction(x // pk, den * qk) for x, pk, qk in zip(b, p_pow, q_pow))


def _taylor_shift(b):
    """Replace the integer coefficient list b of g(x) by that of g(x+1), in
    place, in passes that are each one running sum over the reversed list
    (which runs in C)."""
    r = b[::-1]
    for i in range(len(r) - 1, 0, -1):
        r[: i + 1] = accumulate(r[: i + 1])
    b[:] = reversed(r)


def rescale_iterate(
    cls: OperatorClass,
    g: Poly,
    m: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> Poly:
    """The rescaled iterate m^(-d/p) * g(m^(1/p) x - m*alpha), for the m-th
    iterate g = phi(D)^m f of ``cls.normalized_from`` on a monic f of degree d.

    That iterate is monic of degree d, so any other g is NonMonicInput
    (the iterate of an unnormalized phi, with phi(0) != 1, among them).
    The affine rescaling multiplies coefficient k by m^((k-d)/p), which is
    rational whenever (k-d) is a multiple of p or m is a perfect p-th
    power.  A coefficient whose factor is rational is exact; any other is
    rounded once, to the nearest dyadic rational with ``precision_bits``
    significant bits (``scalars.dyadic_round``).  Rationality is decided
    once per residue of d - k mod p.
    """
    if not cls.is_general:
        raise NotGeneralForm(f"need General form, got {cls.form}")
    if not g.is_monic() or g.degree < 1:
        raise NonMonicInput("rescaling is defined for a monic iterate of degree >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    d = int(g.degree)
    p = cls.p
    g = translate(g, -m * cls.alpha)

    # c m^((k-d)/p) = c / (m^q m^(r/p)) with (q, r) = divmod(d - k, p): exact
    # iff m^r is a perfect p-th power, else sign(c) (|c|^p / m^(d-k))^(1/p)
    # rounded once
    exact = [exact_nth_root(m**r, p) for r in range(p)]
    out = []
    for k, c in enumerate(g.coeffs):
        q, r = divmod(d - k, p)
        if exact[r] is not None:
            out.append(c / (m**q * exact[r]))
        else:
            root = dyadic_round(abs(c) ** p / m ** (d - k), precision_bits, p)
            out.append(-root if c < 0 else root)
    return Poly(out)
