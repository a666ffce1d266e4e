"""Formal power series and operator classification.

A series phi(x) = sum alpha_n x^n is stored by its Taylor coefficients
alpha_n = phi^(n)(0)/n!, exactly (Fraction).  A series is either
truncated, known only through its stored coefficients, or a polynomial
(:meth:`PowerSeries.polynomial`), whose tail is known to be zero.
:meth:`PowerSeries.head` is the one way to read alpha_0..alpha_n: it
pads a polynomial with zeros and fails loudly past a truncation.

Classification splits an operator into the three regimes that drive the
zero dynamics: a vanishing constant term (pure differentiation factor),
a pure exponential c*e^(gamma*x) up to the stored truncation (a shift,
no dynamics; a polynomial is one only when it is a constant), or the
general form with invariants (p, alpha, beta)::

    p     = min{ n >= 2 : phi^(n)(0) != phi'(0)^n }   (phi scaled to phi(0)=1)
    alpha = phi'(0)
    beta  = (phi^(p)(0) - phi'(0)^p) / p!
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import AllZeroSeries, TruncationTooShort, ZeroConstantTerm, ZeroDilation
from .records import Record
from .scalars import as_fraction, common_denominator


class PowerSeries:
    """Power series; index n of ``coeffs`` holds alpha_n.

    ``truncation_order`` is the last coefficient known: ``len(coeffs) - 1``
    for a truncated series, ``math.inf`` for a polynomial.
    """

    __slots__ = ("coeffs", "truncation_order")

    def __init__(self, coeffs):
        coeffs = tuple(as_fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "truncation_order", len(coeffs) - 1)

    @classmethod
    def polynomial(cls, coeffs) -> "PowerSeries":
        """The polynomial sum c_n x^n as a series: every alpha_n past the
        stored ones is known to be 0."""
        phi = cls(coeffs)
        object.__setattr__(phi, "truncation_order", math.inf)
        return phi

    def _like(self, coeffs) -> "PowerSeries":
        """A series of this one's kind (polynomial or truncated)."""
        if self.truncation_order == math.inf:
            return PowerSeries.polynomial(coeffs)
        return PowerSeries(coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    def head(self, n) -> tuple:
        """alpha_0..alpha_n: zero-padded for a polynomial; TruncationTooShort
        past a truncated series' order."""
        if n > self.truncation_order:
            raise TruncationTooShort(
                f"need coefficients up to order {n}, series truncated at "
                f"{self.truncation_order}"
            )
        return self.coeffs[: n + 1] + (Fraction(0),) * (n + 1 - len(self.coeffs))

    def taylor(self, n):
        """alpha_n, read through :meth:`head`."""
        return self.head(n)[n]

    def derivative_at_zero(self, n):
        """phi^(n)(0) = n! * alpha_n."""
        return self.taylor(n) * math.factorial(n)

    @property
    def constant(self):
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.coeffs, self.truncation_order) == (other.coeffs, other.truncation_order)

    def __hash__(self):
        return hash((self.coeffs, self.truncation_order))

    def __repr__(self):
        kind = ".polynomial" if self.truncation_order == math.inf else ""
        return f"PowerSeries{kind}({list(self.coeffs)!r})"


def normalize(phi: PowerSeries) -> PowerSeries:
    """Scale so the constant term is exactly 1."""
    c = phi.constant
    if c == 0:
        raise ZeroConstantTerm("phi(0) = 0; use factor_out_zero first")
    if c == 1:
        return phi
    return phi._like(a / c for a in phi.coeffs)


def factor_out_zero(phi: PowerSeries):
    """Write phi = x^mu * psi with psi(0) != 0; returns (mu, psi)."""
    mu = 0
    while mu < len(phi.coeffs) and phi.coeffs[mu] == 0:
        mu += 1
    if mu == len(phi.coeffs):
        raise AllZeroSeries("every stored coefficient is zero")
    return mu, phi._like(phi.coeffs[mu:])


def dilate_series(phi: PowerSeries, c) -> PowerSeries:
    """phi(c*x): multiply alpha_n by c^n, for an exact nonzero c."""
    c = as_fraction(c)
    if c == 0:
        raise ZeroDilation("dilation scalar must be nonzero")
    return phi._like(a * c**n for n, a in enumerate(phi.coeffs))


def _cauchy(a, b, order):
    """Coefficients 0..order of the product of the integer lists a and b."""
    rb, top = b[::-1], len(b) - 1
    return [
        sum(map(mul, a[max(n - top, 0) : n + 1], rb[max(top - n, 0) :]))
        for n in range(order + 1)
    ]


def truncated_product(phi: PowerSeries, psi: PowerSeries, order: int) -> PowerSeries:
    """Cauchy product truncated at ``order``, multiplied on integers."""
    a, den_a = common_denominator(phi.head(order))
    b, den_b = common_denominator(psi.head(order))
    den = den_a * den_b
    return PowerSeries(Fraction(x, den) for x in _cauchy(a, b, order))


def truncated_power(phi: PowerSeries, m: int, order: int) -> PowerSeries:
    """phi^m truncated at ``order`` (m >= 0).

    phi = A/L is raised on integers by repeated squaring of Cauchy
    products, over the one denominator L^m.
    """
    if m < 0:
        raise ValueError("negative power")
    base, den = common_denominator(phi.head(order))
    acc, k = [1] + [0] * order, m
    while k:
        if k & 1:
            acc = _cauchy(acc, base, order)
        k >>= 1
        if k:
            base = _cauchy(base, base, order)
    den **= m
    return PowerSeries(Fraction(x, den) for x in acc)


class OperatorClass(Record):
    """Classification record; ``form`` selects which fields are meaningful.

    form == "ZeroConstant": mu (order of vanishing at 0).
    form == "PureExponential": c, gamma — a verdict *relative to the stored
        truncation*; a finite coefficient list cannot certify phi = c e^(gx).
        A polynomial is PureExponential only when it is a constant.
    form == "General": p, alpha, beta with beta != 0.
    """

    form: str
    normalized_from: PowerSeries
    mu: int | None = None
    c: Fraction | None = None
    gamma: Fraction | None = None
    p: int | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None

    @property
    def is_general(self) -> bool:
        return self.form == "General"

    @property
    def is_pure_exponential(self) -> bool:
        return self.form == "PureExponential"

    def __str__(self):
        if self.is_general:
            return f"General(p={self.p}, alpha={self.alpha}, beta={self.beta})"
        if self.is_pure_exponential:
            return f"PureExponentialUpToTruncation(c={self.c}, gamma={self.gamma})"
        return f"ZeroConstant(mu={self.mu})"


def classify(phi: PowerSeries) -> OperatorClass:
    """Classify the operator phi(D) into the three zero-dynamics regimes."""
    if phi.is_zero():
        raise AllZeroSeries("cannot classify the zero series")
    if phi.constant == 0:
        mu, _psi = factor_out_zero(phi)
        return OperatorClass(form="ZeroConstant", normalized_from=phi, mu=mu)
    norm = normalize(phi)
    alpha = norm.taylor(1) if norm.truncation_order >= 1 else Fraction(0)
    # a polynomial's first padded zero, at n = len(coeffs), decides it
    for n in range(2, min(norm.truncation_order, len(norm.coeffs)) + 1):
        deriv = norm.derivative_at_zero(n)
        if deriv != alpha**n:
            beta = (deriv - alpha**n) / math.factorial(n)
            return OperatorClass(
                form="General", normalized_from=norm, p=n, alpha=alpha, beta=beta
            )
    return OperatorClass(
        form="PureExponential", normalized_from=norm, c=phi.constant, gamma=alpha
    )


def turan_expression(phi: PowerSeries):
    """phi''(0)*phi(0) - phi'(0)^2, exactly.

    Its sign separates the two polynomial regimes: negative means every
    real polynomial is eventually driven to all-real-and-simple zeros;
    nonnegative (and not pure-exponential) means nonreal zeros persist.
    """
    return phi.derivative_at_zero(2) * phi.constant - phi.derivative_at_zero(1) ** 2


class LPObstructionResult(Record):
    """Outcome of the monomial-image test for Laguerre-Polya membership.

    ``nonreal_counts[i]`` is the nonreal-zero count of phi(D)M^d for
    d = i+1, recorded for every scanned degree so the once-a-witness,
    always-a-witness monotonicity can be checked downstream.
    """

    obstructed: bool
    d_witness: int | None
    d_max: int
    nonreal_counts: tuple[int, ...]

    def __str__(self):
        if self.obstructed:
            return f"CertifiedNotLP({self.d_witness})"
        return f"NoObstructionUpTo({self.d_max})"


def polya_lp_test(phi: PowerSeries, d_max: int) -> LPObstructionResult:
    """Scan d = 1..d_max for nonreal zeros of phi(D)M^d.

    A witness certifies that phi does not represent a Laguerre-Polya
    function; once some d is a witness, every larger degree is too.  A
    monomial factor x^mu of phi only differentiates and never creates
    nonreal zeros, so it is stripped first.
    """
    from . import exact as _exact
    from . import poly as _poly

    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    _mu, psi = factor_out_zero(phi)
    counts = []
    witness = None
    for d in range(1, d_max + 1):
        image = _poly.apply_operator(psi, _poly.monomial(d))
        z = _exact.count_nonreal(image)
        counts.append(z.nonreal_count)
        if witness is None and z.nonreal_count > 0:
            witness = d
    return LPObstructionResult(
        obstructed=witness is not None,
        d_witness=witness,
        d_max=d_max,
        nonreal_counts=tuple(counts),
    )
