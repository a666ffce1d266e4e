"""Closed-form limit polynomials and the classical families behind them.

The rescaled operator iterates of a monic degree-d polynomial converge
to exp(beta*D^p) applied to x^d, a finite sum::

    (exp(beta*D^p) x^d) = sum_{k=0}^{floor(d/p)} d! beta^k / (k! (d-pk)!) x^(d-pk)

For beta = -1, p = 2 this is the Hermite polynomial H_d(x/2); for
d = p*q it is a rescaled Jensen polynomial of the Mittag-Leffler series
E_p(x) = sum x^k/(pk)! evaluated at -x^p.  Everything here is exact;
factorials are Python big ints, never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly
from .series import PowerSeries
from .scalars import as_fraction


def exp_dp_monomial(beta, p: int, d: int) -> Poly:
    """exp(beta*D^p) applied to x^d for an exact beta; monic of degree d."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    beta = as_fraction(beta)
    coeffs = [Fraction(0)] * (d + 1)
    for k in range(d // p + 1):
        num = math.factorial(d)
        den = math.factorial(k) * math.factorial(d - p * k)
        coeffs[d - p * k] = Fraction(num, den) * beta**k
    return Poly(coeffs)


def hermite(d: int) -> Poly:
    """The d-th Hermite polynomial (physicists'), exact integer coefficients:
    H_d = 2^d exp(-D^2/4) x^d."""
    return exp_dp_monomial(Fraction(-1, 4), 2, d).scale(2**d)


def ml_partial(p: int, order: int) -> PowerSeries:
    """Partial sum of E_p(x) = sum_k x^k/(pk)! through x^order."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    return PowerSeries(
        Fraction(1, math.factorial(p * k)) for k in range(order + 1)
    )


def jensen_ml(p: int, q: int) -> Poly:
    """q-th Jensen polynomial of E_p: sum_k q! x^k / ((q-k)! (pk)!)."""
    return jensen_of_series(ml_partial(p, q), q)


def jensen_of_series(phi: PowerSeries, q: int) -> Poly:
    """General q-th Jensen polynomial sum_k C(q,k) phi^(k)(0) x^k.

    Convenience only: with a truncated series there is no all-real-roots
    guarantee, since membership of phi in the closed-under-limits class
    of real-rooted functions is not decidable from finitely many
    coefficients.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return Poly(
        math.comb(q, k) * math.factorial(k) * a for k, a in enumerate(phi.head(q))
    )
