"""Scalar plumbing: exact rationals, integer roots, the one rounding.

Exact values are `fractions.Fraction` (ints are coerced on the way in),
and an exact complex value is a ``Point`` of two of them.  An irrational
value, a root m^(1/p), is rounded once on integers to the nearest dyadic
(``root_rounded``).  The package has no floating-point library: the root
finder proposes in doubles and certifies on ints.

``_lazy_import`` makes the package's submodules lazy (see
``zerodyn/__init__.py``): a module registered with it runs its code on
first attribute access.  On Python < 3.12 ``importlib.util.LazyLoader``
is not safe against two threads making the first access at once;
zerodyn starts no threads.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction

from .records import Record


def _lazy_import(name):
    """``sys.modules[name]`` if already imported, else a module that runs
    its code on first attribute access and is a plain module from then on."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The library's defaults, and the defaults of the CLI options that set them;
# here, so the CLI reads them without executing the modules that use them.
DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64  # the floor of --precision-bits and of a plan file's precision
DEFAULT_M_MAX = 200  # onset scans: iterates swept
DEFAULT_D_CAP = 40  # witness searches: degree cap
DEFAULT_GAMMA0 = Fraction(1)  # the gamma search: first stage factor tried


class Point(Record):
    """The exact complex number real + i imag, both parts ``Fraction``s."""

    real: Fraction
    imag: Fraction

    def conjugate(self) -> "Point":
        return Point(self.real, -self.imag)


def as_fraction(x) -> Fraction:
    """Coerce an exact input to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_fraction(x)
    raise TypeError(f"not an exact scalar: {x!r} ({type(x).__name__})")


def common_denominator(values):
    """(numerators, L) with values[k] == numerators[k] / L for exact ``values``.

    L is the least common denominator (1 for no values), so the exact
    kernels can run on integers and build each Fraction once, at the end.
    """
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def on_grid(points):
    """(xs, ys, L) with points[k] == Point(xs[k] / L, ys[k] / L) for exact
    ``points``: L is the least common denominator of every part, so the
    points compare as integers on one grid."""
    nums, den = common_denominator([v for z in points for v in (z.real, z.imag)])
    return nums[0::2], nums[1::2], den


def int_nth_root(n: int, p: int) -> int:
    """Floor of the p-th root of a nonnegative integer, exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if p == 1:
        return n
    x = 1 << (n.bit_length() // p + 1)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


def exact_nth_root(n: int, p: int):
    """Integer p-th root of n if n is a perfect p-th power, else None."""
    r = int_nth_root(n, p)
    return r if r**p == n else None


def dyadic_round(x: Fraction, bits: int, p: int = 1) -> Fraction:
    """The dyadic nearest x^(1/p) (ties to even) with ``bits`` significant
    bits, for a Fraction x >= 0: r = floor(x^(1/p) 2^s) >= 2^(bits+1) on
    integers, and r^p == x 2^(ps) tells a tie."""
    n, d = x.numerator, x.denominator
    if not n:
        return x
    s = bits + 1 - (n.bit_length() - d.bit_length() - 1) // p
    num, den = (n << p * s, d) if s >= 0 else (n, d << -p * s)
    r = int_nth_root(num // den, p)
    t = r.bit_length() - bits
    q, rem, half = r >> t, r & ((1 << t) - 1), 1 << (t - 1)
    if rem > half or rem == half and (q & 1 or r**p * den != num):
        q += 1
    return Fraction(q) * Fraction(2) ** (t - s)


def root_rounded(x: Fraction, p: int, bits: int) -> Fraction:
    """x^(1/p) for a Fraction x >= 0: exact when rational, else dyadic_round."""
    rn, rd = exact_nth_root(x.numerator, p), exact_nth_root(x.denominator, p)
    return dyadic_round(x, bits, p) if rn is None or rd is None else Fraction(rn, rd)


def fraction_str(x: Fraction) -> str:
    """Round-trippable text form: integer or 'num/den'."""
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """The rational ``text`` spells; ValueError if it is malformed or its
    denominator is 0."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def to_double(x: Fraction, what: str) -> float:
    """float(x); ValueError naming ``what`` if |x| is past the double range."""
    try:
        return float(x)
    except OverflowError:
        bits = x.numerator.bit_length() - x.denominator.bit_length()
        raise ValueError(f"{what} is about 2^{bits}, past the double range") from None
