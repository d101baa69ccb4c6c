import pytest

from shapwa.hmm import Hmm
from shapwa.linalg import SpMat
from shapwa.rational import ONE, Rat, format_rat, parse_rat, rat
from shapwa.wa import NAlphabetWA


def test_arithmetic_closure():
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)
    assert Rat(2, 4) == Rat(1, 2)
    assert Rat(1, 3) * 3 == 1
    assert Rat(7, 2) / Rat(7, 2) == 1


def test_format_parse_roundtrip():
    for x in (Rat(0), Rat(5), Rat(-3, 7), Rat(22, 4)):
        assert parse_rat(format_rat(x)) == x


def test_parse_integer_strings():
    assert parse_rat("4") == 4
    assert parse_rat("-4") == -4
    assert parse_rat("3/6") == Rat(1, 2)


def test_floats_rejected():
    with pytest.raises((TypeError, ValueError)):
        rat(0.5)
    with pytest.raises((TypeError, ValueError)):
        parse_rat(0.5)
    with pytest.raises((TypeError, ValueError)):
        parse_rat(True)


@pytest.mark.parametrize("build", [
    lambda: NAlphabetWA([("0",)], [0.5], {}, [ONE]),
    lambda: NAlphabetWA([("0",)], [ONE], {}, [0.5]),
    lambda: SpMat(1).set(0, 0, 0.1),
    lambda: SpMat.from_dense([[0.1]]),
    lambda: Hmm.from_matrices([ONE], [[1.0]], [[ONE]], ("0",)),
], ids=["wa-alpha", "wa-beta", "spmat-set", "spmat-from-dense",
        "hmm-from-matrices"])
def test_exact_entry_points_refuse_floats(build):
    with pytest.raises(TypeError):
        build()
