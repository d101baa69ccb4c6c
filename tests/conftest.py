from fractions import Fraction

import pytest

from shapwa.rational import Rat

# the Fraction methods counted as one product or one sum each
PRODUCTS = ("__mul__", "__rmul__")
SUMS = ("__add__", "__radd__", "__sub__", "__rsub__")


class FractionOps:
    """Fraction products and sums made since the last take(); among them,
    `trivial` counts the products with a factor equal to 0 or 1 and the
    sums with a term equal to 0, and `floats` the products and sums with a
    float operand."""

    def __init__(self):
        self.products = self.sums = self.trivial = self.floats = 0

    def take(self):
        """(products, sums) since the last call, or since counting began."""
        counts = self.products, self.sums
        self.products = self.sums = self.trivial = self.floats = 0
        return counts


@pytest.fixture
def fraction_ops(monkeypatch):
    """Count every product and sum of the stdlib Fraction for the rest of
    the test.  Skips under gmpy2's mpq, which computes in C, where the
    calls cannot be counted."""
    if Rat is not Fraction:
        pytest.skip("counts calls of the stdlib Fraction's methods; gmpy2's "
                    "mpq computes in C, where the calls cannot be counted")
    ops = FractionOps()
    for names, attr in ((PRODUCTS, "products"), (SUMS, "sums")):
        for name in names:
            def counted(a, b, real=getattr(Fraction, name), attr=attr):
                setattr(ops, attr, getattr(ops, attr) + 1)
                units = (0, 1) if attr == "products" else (0,)
                ops.trivial += a in units or b in units
                ops.floats += isinstance(a, float) or isinstance(b, float)
                return real(a, b)
            monkeypatch.setattr(Fraction, name, counted)
    return ops
