"""Dense univariate polynomials and the operator action phi(D)f.

Polynomials are either exact (Fraction coefficients) or floating
(mpmath values at a stated binary precision); exact values never degrade
silently, and floating arithmetic runs at the polynomial's own precision
whatever the ambient mpmath precision; an exact polynomial meeting a
floating scalar runs at the precision that scalar carries.  The only
operation that can introduce irrational scalars is :func:`rescale_iterate`,
which computes the iterate exactly first and converts once, coefficient
by coefficient, at the end.

The exact operator layer (:func:`apply_operator`, :func:`translate`,
``series.truncated_power``) runs on integer numerator vectors over one
common denominator and builds each output ``Fraction`` once.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import (
    NonMonicInput,
    NotGeneralForm,
    TruncationTooShort,
    ZeroDilation,
)
from .scalars import (
    DEFAULT_PRECISION_BITS,
    as_fraction,
    carried_precision,
    common_denominator,
    exact_nth_root,
    is_exact,
    mp,
    mpf_to_fraction,
    to_mp,
)
from .series import OperatorClass, PowerSeries

NEG_INF = float("-inf")


def _working(precision):
    """Run floating arithmetic at ``precision`` bits; exact (None) needs no context."""
    return nullcontext() if precision is None else mp.workprec(precision)


class Poly:
    """Dense polynomial; ``coeffs[k]`` is the coefficient of x^k."""

    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision=None):
        if precision is None:
            cs = [as_fraction(c) for c in coeffs]
        else:
            cs = [to_mp(c, precision) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return self.precision is None

    def _zero_scalar(self):
        return Fraction(0) if self.is_exact else to_mp(0, self.precision)

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero_scalar()

    @property
    def leading(self):
        if self.is_zero:
            return self._zero_scalar()
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == 1

    def is_real(self) -> bool:
        if self.is_exact:
            return True
        return all(getattr(c, "imag", 0) == 0 for c in self.coeffs)

    def sup_norm(self):
        """Max absolute Taylor coefficient: max_k |f^(k)(0)/k!| = max_k |c_k|."""
        if self.is_zero:
            return self._zero_scalar()
        with _working(self.precision):
            return max(abs(c) for c in self.coeffs)

    def evaluate(self, x):
        """Horner evaluation; the scalar type follows the inputs."""
        prec = self.precision
        if prec is None and not is_exact(x):
            prec = carried_precision(x)
        with _working(prec):
            acc = 0 * x
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc

    def to_floating(self, precision_bits: int) -> "Poly":
        if self.precision == precision_bits:
            return self
        return Poly(self.coeffs, precision=precision_bits)

    def to_exact(self) -> "Poly":
        """The exact polynomial a real floating one stands for: each mpf
        coefficient is the dyadic rational m 2^e.  ``self`` if exact;
        ValueError for a nonreal or nonfinite coefficient."""
        if self.is_exact:
            return self
        return Poly(mpf_to_fraction(c) for c in self.coeffs)

    def _coerce_pair(self, other: "Poly"):
        if self.is_exact and other.is_exact:
            return self, other
        prec = max(self.precision or 0, other.precision or 0)
        return self.to_floating(prec), other.to_floating(prec)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coerce_pair(other)
        n = max(len(a.coeffs), len(b.coeffs))
        with _working(a.precision):
            return Poly(
                (a.coefficient(k) + b.coefficient(k) for k in range(n)),
                a.precision,
            )

    def __neg__(self):
        with _working(self.precision):
            return Poly((-c for c in self.coeffs), self.precision)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coerce_pair(other)
        if a.is_zero or b.is_zero:
            return Poly((), a.precision)
        out = [a._zero_scalar()] * (len(a.coeffs) + len(b.coeffs) - 1)
        with _working(a.precision):
            for i, ca in enumerate(a.coeffs):
                if ca == 0:
                    continue
                for j, cb in enumerate(b.coeffs):
                    out[i + j] += ca * cb
        return Poly(out, a.precision)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = Poly([1], self.precision)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the scalar c."""
        if self.is_exact and is_exact(c):
            c = as_fraction(c)
            return Poly((a * c for a in self.coeffs), None)
        prec = self.precision or carried_precision(c)
        cc = to_mp(c, prec)
        with mp.workprec(prec):
            return Poly((to_mp(a, prec) * cc for a in self.coeffs), prec)

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
    """Human form like ``x^3+6x``; exact rationals printed as fractions."""
    if f.is_zero:
        return "0"
    parts = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            term = f"{c}"
        else:
            x = "x" if k == 1 else f"x^{k}"
            if c == 1:
                term = x
            elif c == -1:
                term = f"-{x}"
            else:
                term = f"{c}*{x}" if not is_exact(c) or as_fraction(c).denominator != 1 else f"{c}{x}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


def monomial(d: int) -> Poly:
    """The monic monomial x^d."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return Poly([0] * d + [1])


def derivative(f: Poly) -> Poly:
    with _working(f.precision):
        return Poly((k * c for k, c in enumerate(f.coeffs) if k > 0), f.precision)


def apply_operator(phi: PowerSeries, f: Poly) -> Poly:
    """phi(D)f = sum_n alpha_n f^(n); the sum stops at n = deg f.

    Coefficient j is sum_n alpha_n (j+n)!/j! c_(j+n).  Exact input runs
    on integers: with alpha_n = A_n/L_a and k! c_k = C_k/L_c it is
    (sum_n A_n C_(j+n)) / (j! L_a L_c).  Floating f runs the same sums
    at its own precision.
    """
    if f.is_zero:
        return f
    d = int(f.degree)
    if phi.truncation_order < d:
        raise TruncationTooShort(
            f"operator series truncated at {phi.truncation_order}, "
            f"polynomial degree is {d}"
        )
    fact = list(accumulate(range(1, d + 1), mul, initial=1))
    alpha = list(phi.coeffs[: d + 1])
    while alpha[-1] == 0 and len(alpha) > 1:
        alpha.pop()  # a zero tail adds nothing to any sum
    if f.is_exact:
        a, den_a = common_denominator(alpha)
        c, den_c = common_denominator(f.coeffs)
        c = list(map(mul, fact, c))
        den = den_a * den_c
        return Poly(Fraction(sum(map(mul, a, c[j:])), fact[j] * den) for j in range(d + 1))
    prec = f.precision
    with mp.workprec(prec):
        a = [to_mp(x, prec) for x in alpha]
        c = [to_mp(x, prec) * k for k, x in zip(fact, f.coeffs)]
        return Poly((sum(map(mul, a, c[j:])) / fact[j] for j in range(d + 1)), prec)


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
    if c == 0:
        raise ZeroDilation("dilation scalar must be nonzero")
    exact = f.is_exact and is_exact(c)
    if exact:
        c = as_fraction(c)
        prec = None
    else:
        prec = f.precision or carried_precision(c)
        c = to_mp(c, prec)
        f = f.to_floating(prec)
    with _working(prec):
        out = []
        power = c**0
        for a in f.coeffs:
            out.append(a * power)
            power = power * c
        return Poly(out, prec)


def translate(f: Poly, c) -> Poly:
    """(T^c f)(x) = f(x+c) by repeated synthetic division (Taylor shift).

    For exact f = (1/L) sum F_k x^k and c = P/Q the shift runs on
    integers: g(y) = Q^n L f(y/Q) = sum F_k Q^(n-k) y^k is shifted by P,
    and coefficient k of g(y+P) is divided by Q^(n-k) L.
    """
    if f.is_zero or c == 0:
        return f
    if f.is_exact and is_exact(c):
        c = as_fraction(c)
        b, den = common_denominator(f.coeffs)
        q_pow = list(accumulate([c.denominator] * (len(b) - 1), mul, initial=1))[::-1]
        b = list(map(mul, b, q_pow))
        _taylor_shift(b, c.numerator)
        return Poly(Fraction(x, den * qk) for x, qk in zip(b, q_pow))
    prec = f.precision or carried_precision(c)
    with mp.workprec(prec):
        b = list(f.to_floating(prec).coeffs)
        _taylor_shift(b, to_mp(c, prec))
        return Poly(b, prec)


def _taylor_shift(b, c):
    """Replace the coefficient list b of g(x) by that of g(x+c), in place."""
    n = len(b)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] += c * b[j + 1]


def rescale_iterate(
    cls: OperatorClass,
    phi: PowerSeries,
    f: Poly,
    m: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    _iterate: Poly | None = None,
) -> Poly:
    """The rescaled iterate m^(-d/p) * (phi(D)^m f)(m^(1/p) x - m*alpha).

    The pre-transform iterate is computed exactly; the affine rescaling
    multiplies coefficient k by m^((k-d)/p), which is rational whenever
    (k-d) is a multiple of p or m is a perfect p-th power.  The result
    stays exact when every nonzero coefficient gets a rational factor,
    and otherwise converts once at ``precision_bits``.

    ``_iterate`` lets sweep drivers pass in an already-computed
    phi(D)^m f instead of recomputing it from scratch.
    """
    if not cls.is_general:
        raise NotGeneralForm(f"need General form, got {cls.form}")
    if not f.is_monic():
        raise NonMonicInput("rescaling is defined for monic input")
    if m < 1:
        raise ValueError("m must be >= 1")
    d = int(f.degree)
    if d < 1:
        raise NonMonicInput("degree must be >= 1")
    p = cls.p
    g = _iterate if _iterate is not None else iterate_operator(phi, f, m)
    g = translate(g, -m * cls.alpha)

    root = exact_nth_root(m, p)
    if g.is_exact:
        factors = {}
        exact_ok = True
        for k, c in enumerate(g.coeffs):
            if c == 0:
                continue
            e = k - d
            if root is not None:
                factors[k] = Fraction(root) ** e
            elif e % p == 0:
                factors[k] = Fraction(m) ** (e // p)
            else:
                exact_ok = False
                break
        if exact_ok:
            return Poly(
                (c * factors[k] if c != 0 else c for k, c in enumerate(g.coeffs))
            )
    with mp.workprec(precision_bits):
        scale = to_mp(m, precision_bits) ** (mp.mpf(1) / p)
        tail = scale ** (-d)
        out, power = [], mp.mpf(1)
        for c in g.coeffs:
            out.append(to_mp(c, precision_bits) * power * tail)
            power *= scale
        return Poly(out, precision_bits)
