"""Exact rational scalars and their wire format.

Everything in the library is a `fractions.Fraction`; floats are rejected at
the boundary.  The serialized form is the string "p/q" (or "p" when q = 1),
which round-trips exactly.
"""

from fractions import Fraction

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
    if not isinstance(text, str):
        raise ValueError(f"not a rational string: {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        num, den = int(num), int(den)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


def fraction_to_str(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
