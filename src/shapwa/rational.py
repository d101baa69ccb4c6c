"""Exact rational scalars.

Everything in the library computes over arbitrary-precision rationals;
binary-64 floats appear only where a module explicitly opts in (the
sigmoid gadget).  gmpy2's mpq is used when available, falling back to
the stdlib Fraction (same semantics, slower).
"""

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(x) -> "Rat":
    """Coerce an int, string ("p/q" or "p") or rational to Rat; a float or
    a bool is refused with TypeError."""
    if isinstance(x, (float, bool)):
        raise TypeError(f"not an exact rational: {x!r}")
    return Rat(x)


def rats(values) -> list:
    """rat of each element of a list or tuple; anything else, a string
    included, is refused with TypeError."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"not a list of rationals: {values!r}")
    return [rat(x) for x in values]


def format_rat(x) -> str:
    """Serialize a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(Rat(x))

