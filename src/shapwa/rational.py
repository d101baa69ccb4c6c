"""Exact rational scalars.

Everything in the library computes over arbitrary-precision rationals,
one number type: the sigmoid network computes in binary-64 and hands the
oracle the exact rational equal to its float.  gmpy2's mpq is used when
available, falling back to the stdlib Fraction (same semantics, slower).

The kernels' rules for arithmetic live here, each in one function:
`exact` shares the values 0 and 1, `times` makes no product that a
shared ZERO or ONE decides, `total` starts a sum from its first term, and
`dot` sums products with one normalization.  A Fraction product or sum
reduces its result by a gcd, so a sum of k products made term by term
normalizes 2k - 1 times; `dot` adds integer products over a common
denominator and normalizes once.  `to_ints` writes sparse vectors as ints
over one denominator, for kernels that run on ints alone.  This is the
only module that takes a rational apart into its numerator and
denominator.
"""

from decimal import Decimal
from math import gcd, lcm

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(x) -> "Rat":
    """Coerce an int, string or rational to Rat; a Rat is returned as it
    is, not copied; a float or a bool is refused with TypeError.  Any other
    value equal to 0 or 1 comes back as the shared ZERO or ONE (`exact`).  A
    string must be what format_rat writes: an optional "-", ASCII digits,
    and an optional "/" followed by ASCII digits that are not all 0.
    Anything else, such as "1.5", "1e9", "+1", " 1", "1_0" or a non-ASCII
    digit, is refused with ValueError, as is a part longer than int reads
    (4,300 digits by default)."""
    if isinstance(x, Rat):
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"not an exact rational: {x!r}")
    if not isinstance(x, str):
        return exact(Rat(x))
    num, slash, den = x.partition("/")
    if not (_digits(num[1:] if num[:1] == "-" else num)
            and (not slash or _digits(den))):
        raise ValueError(f"not a rational p or p/q: {x!r}")
    p, q = int(num), int(den) if slash else 1
    if not q:
        raise ValueError(f"zero denominator: {x!r}")
    return ZERO if not p else ONE if p == q else Rat(p, q)


def _digits(s):
    return s.isascii() and s.isdigit()


def as_list(values, what="rationals"):
    """values itself if it is a list or tuple; anything else, a string
    included, is refused with TypeError, so a string never stands for the
    list of its characters."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"not a list of {what}: {values!r}")
    return values


def rats(values) -> list:
    """rat of each element of a list or tuple, with each distinct string
    parsed once; anything else, a string included, is refused with
    TypeError."""
    parsed = {}
    return [(parsed[x] if x in parsed else parsed.setdefault(x, rat(x)))
            if isinstance(x, str) else rat(x) for x in as_list(values)]


def exact(x):
    """x, but the shared ZERO or ONE when x equals 0 or 1, which the
    kernels test by identity to skip a product by 0 or 1 or a sum with 0."""
    if x is ONE or x is ZERO:
        return x
    return ZERO if x == 0 else ONE if x == 1 else x


def times(a, b):
    """a * b, but ZERO when a factor is the shared ZERO and the other
    factor when one is the shared ONE: the one place that decides a
    product by identity."""
    if a is ZERO or b is ZERO:
        return ZERO
    return b if a is ONE else a if b is ONE else a * b


def total(terms):
    """The sum of terms, ZERO when there are none; the sum starts from the
    first term, so it makes no addition of ZERO."""
    terms = iter(terms)
    return sum(terms, next(terms, ZERO))


def dot(pairs):
    """The sum of a * b over a sequence of (a, b) pairs of Rats or ints,
    the one rule for a sum of products, always a Rat: ZERO when there are
    none, times(a, b) for one pair of Rats.  Other sums add the integer
    products of numerators over a running common denominator, with a gcd
    only where a term's denominator differs from it, and build one Rat, so
    a sum of k products costs one normalization, not 2k - 1, and a product
    by an int makes no Rat operation.  A result equal to 0 or 1 is the
    shared ZERO or ONE."""
    if len(pairs) < 2:
        if not pairs:
            return ZERO
        a, b = pairs[0]
        if isinstance(a, Rat) and isinstance(b, Rat):
            return exact(times(a, b))
    num, den = 0, 1
    for a, b in pairs:
        q = a.denominator * b.denominator
        if q == den:
            num += a.numerator * b.numerator
        else:
            g = gcd(den, q)
            num = num * (q // g) + a.numerator * b.numerator * (den // g)
            den = den // g * q
    return ZERO if not num else ONE if num == den else Rat(num, den)


def to_ints(vecs):
    """(d, [{j: x * d} for each sparse vector]): d is the least common
    denominator of every value of these dicts of Rats, 1 when there are
    none, and each value times d is an int, so products and sums of the
    scaled vectors are exact in ints, over a known denominator."""
    dens = {x.denominator for vec in vecs for x in vec.values()}
    d = lcm(*dens)
    scale = {q: d // q for q in dens}
    return d, [{j: x.numerator * scale[x.denominator]
                for j, x in vec.items()} for vec in vecs]


def check_law(values, what):
    """ValueError unless values is a probability law: no value negative,
    and the nonzero values sum to 1."""
    values = [x for x in values if x]
    if any(x < 0 for x in values) or total(values) != 1:
        raise ValueError(f"{what} is not a distribution")


def format_rat(x) -> str:
    """Serialize a rational as "p/q" (or "p" when the denominator is 1),
    whole at any size: Decimal writes the ints that str refuses."""
    x = Rat(x)
    try:
        return str(x)
    except ValueError:
        p, q = (str(Decimal(int(v))) for v in (x.numerator, x.denominator))
        return p if q == "1" else f"{p}/{q}"

