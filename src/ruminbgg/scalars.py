"""Exact rational scalars and their wire format.

Scalars that cross the library's interfaces are `fractions.Fraction`s:
forms, vectors, tables and the public `linalg` calls take and return them,
and floats are rejected at the boundary.  Inside `linalg`, matrix columns
are integers over one denominator and never become Fractions.  The
serialized form is the string "p/q" (or "p" when q = 1), which round-trips
exactly.
"""

from fractions import Fraction
from math import gcd

ZERO = Fraction(0)


def as_fraction(value):
    """Coerce ints, Fractions and "p/q" strings to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return fraction_from_str(value)
    raise TypeError(f"not an exact rational: {value!r} ({type(value).__name__})")


def fraction_from_str(text):
    """Parse "p/q" or "p"; anything else, a zero q included, is a ValueError."""
    return Fraction(*ratio_from_str(text))


def ratio_from_str(text):
    """Parse "p/q" or "p" to (num, den) in lowest terms with den > 0.

    Surrounding whitespace is allowed; anything else that is not an integer
    or a quotient of two, a zero q included, is a ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    num, slash, den = text.partition("/")
    num = int(num)
    if not slash:
        return num, 1
    den = int(den)
    if den < 0:
        num, den = -num, -den
    elif not den:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return num, den


def fraction_to_str(value):
    return ratio_to_str(value.numerator, value.denominator)


def ratio_to_str(num, den):
    """The wire form of num / den (den > 0) in lowest terms."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    if den == 1:
        return str(num)
    return f"{num}/{den}"
