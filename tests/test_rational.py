import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from shapwa import rational
from shapwa.hmm import Hmm
from shapwa.linalg import SpMat
from shapwa.models import (DecisionTree, DTNode, HmmVec, IndDist, LinearModel,
                           MarkovDist, NaiveBayes, RnnRelu, SigmoidNet,
                           TreeEnsemble)
from shapwa.rational import (ONE, Rat, ZERO, dot, exact, format_rat, rat,
                             rats, times, total)
from shapwa.wa import NAlphabetWA


def test_arithmetic_closure():
    assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)
    assert Rat(2, 4) == Rat(1, 2)
    assert Rat(1, 3) * 3 == 1
    assert Rat(7, 2) / Rat(7, 2) == 1


def test_format_parse_roundtrip():
    for x in (Rat(0), Rat(5), Rat(-3, 7), Rat(22, 4)):
        assert rat(format_rat(x)) == x


def test_parse_integer_strings():
    assert rat("4") == 4
    assert rat("-4") == -4
    assert rat("3/6") == Rat(1, 2)


def test_rational_strings_follow_one_grammar():
    # an optional "-", ASCII digits, an optional "/" and a nonzero q
    for text, value in (("007/010", Rat(7, 10)), ("-0", ZERO), ("1/01", ONE),
                        ("-12/8", Rat(-3, 2))):
        assert rat(text) == value
    for text in ("1/0", "1/00", "1/-2", "--1", "-", "/2", "1/", "1/2/3",
                 "1e2", "0x1", "1.0", "\t1", "1 ", "+1", "1_0", "\u00b2",
                 "\u0661", ""):
        with pytest.raises(ValueError):
            rat(text)


def test_a_rat_is_returned_as_it_is():
    # coercing again copies nothing
    for x in (Rat(0), Rat(-3, 7), ONE):
        assert rat(x) is x
    x = Rat(5, 9)
    assert all(y is x for y in rats([x, x]))


def test_zero_and_one_come_back_shared():
    # the kernels skip a product by ONE and a sum with ZERO by identity
    for x in ("0", "-0", "0/7", "00", 0):
        assert rat(x) is ZERO, x
    for x in ("1", "01", "3/3", 1):
        assert rat(x) is ONE, x
    assert rat("-1") == -1 and rat("2/3") == Rat(2, 3)


def test_exact_and_times_skip_by_identity():
    x = Rat(2, 3)
    assert exact(Rat(3, 3)) is ONE and exact(Rat(0, 5)) is ZERO
    assert exact(x) is x
    assert times(ONE, x) is x and times(x, ONE) is x
    assert times(ZERO, x) is ZERO and times(x, ZERO) is ZERO
    assert times(x, x) == Rat(4, 9)


def _product_by_one_rules(tree):
    """Line of each conditional expression in a module's syntax tree that
    tests `is ONE` and multiplies in a branch."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.IfExp):
            continue
        tests_one = any(
            isinstance(cmp, ast.Compare)
            and any(isinstance(op, ast.Is) for op in cmp.ops)
            and any(getattr(c, "id", getattr(c, "attr", None)) == "ONE"
                    for c in cmp.comparators)
            for cmp in ast.walk(node.test))
        multiplies = any(
            isinstance(op, ast.BinOp) and isinstance(op.op, ast.Mult)
            for branch in (node.body, node.orelse) for op in ast.walk(branch))
        if tests_one and multiplies:
            yield node.lineno


def test_only_rational_writes_the_product_by_one_rule():
    # the one rule that skips a product by the shared ONE is
    # rational.times; a division by ONE is not a product and may stay
    src = Path(__file__).resolve().parents[1] / "src" / "shapwa"
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = sorted(set(_product_by_one_rules(tree)))
        if lines:
            found[path.stem] = lines
    assert set(found) <= {"rational"}, found
    assert "rational" in found  # the scan sees the rule


def _is_zero(node):
    """node is the name ZERO or a `.get(key, ZERO)` call."""
    if isinstance(node, ast.Call):
        return (getattr(node.func, "attr", None) == "get"
                and len(node.args) == 2 and _is_zero(node.args[1]))
    return isinstance(node, ast.Name) and node.id == "ZERO"


def _sums_from_zero(tree):
    """Line of each + or - in a module's syntax tree with an operand that
    is ZERO or a `.get(key, ZERO)`, and of each += or -= into a name that
    its function bound to ZERO."""
    additive = (ast.Add, ast.Sub)
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, additive)
                and (_is_zero(node.left) or _is_zero(node.right))):
            yield node.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = list(ast.walk(node))
            bound = {t.id for n in body if isinstance(n, ast.Assign)
                     and isinstance(n.value, ast.Name) and n.value.id == "ZERO"
                     for t in n.targets if isinstance(t, ast.Name)}
            yield from (n.lineno for n in body
                        if isinstance(n, ast.AugAssign)
                        and isinstance(n.op, additive)
                        and getattr(n.target, "id", None) in bound)


def test_no_sum_starts_from_zero_outside_rational():
    # a sum starts from its first term (`rational.total`) or is one
    # `rational.dot`; the scan sees each pattern it looks for
    sample = ast.parse("def f(d, k, y):\n"
                       "    s = ZERO\n"
                       "    s += y\n"
                       "    s -= d.get(k, 0) + y\n"
                       "    y = d.get(k, ZERO) + y\n"
                       "    return y - ZERO\n")
    assert sorted(set(_sums_from_zero(sample))) == [3, 4, 5, 6]
    src = Path(__file__).resolve().parents[1] / "src" / "shapwa"
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = sorted(set(_sums_from_zero(tree)))
        if lines and path.stem != "rational":
            found[path.stem] = lines
    assert not found, found


def _rand_factor(rng):
    """A rational or an int of either sign, its numerator and denominator
    up to 2^200 or small."""
    bits = rng.choice((3, 64, 200))
    p = rng.randint(-2 ** bits, 2 ** bits)
    if rng.random() < 0.2:
        return p
    return Rat(p, rng.randint(1, 2 ** rng.choice((3, 64, 200))))


def test_dot_equals_the_fraction_sum_term_by_term():
    rng = random.Random(71)
    for _ in range(300):
        pairs = [(_rand_factor(rng), _rand_factor(rng))
                 for _ in range(rng.randint(2, 9))]
        want = Fraction(0)
        for a, b in pairs:
            want += Fraction(a) * Fraction(b)
        assert dot(pairs) == want, pairs
        # the same terms and one that cancels their sum to 0, or to 1
        for target, shared in ((0, ZERO), (1, ONE)):
            got = dot(pairs + [(Rat(target) - want, ONE)])
            assert got is shared, (pairs, target)


def test_dot_identities():
    x, y = Rat(2, 3), Rat(-5, 7)
    assert dot([]) is ZERO and dot(()) is ZERO
    assert dot([(x, ONE)]) is x and dot([(ONE, y)]) is y
    assert dot([(x, y)]) == x * y
    assert dot([(ONE, x), (y, ONE)]) == x + y
    assert dot([(x, 3), (2, y)]) == 2 + Rat(-10, 7)
    assert dot([(x, ZERO), (ZERO, y)]) is ZERO
    assert dot([(Rat(1, 2), 2), (x, ZERO)]) is ONE


def _dense_3x3():
    """(m, v): a 3 x 3 matrix with no zero entry and a dense vector."""
    third, half = Rat(1, 3), Rat(-1, 2)
    m = SpMat(3, {0: {0: third, 1: half, 2: ONE},
                  1: {0: Rat(5, 7), 1: third, 2: half},
                  2: {0: ONE, 1: Rat(2, 9), 2: third}})
    return m, {0: Rat(3, 4), 1: Rat(-6, 5), 2: ONE}


def test_vecmat_makes_no_fraction_operation(fraction_ops):
    # each output entry sums two or more products: one dot, in integers
    m, v = _dense_3x3()
    fraction_ops.take()
    got = m.vecmat(v)
    assert fraction_ops.take() == (0, 0)
    assert got == {j: sum((v[i] * m.rows[i][j] for i in v), ZERO)
                   for j in range(3)}


def test_matvec_makes_no_fraction_operation(fraction_ops):
    # the backward pass's products: one dot per row asked, in integers
    m, v = _dense_3x3()
    fraction_ops.take()
    got = m.matvec(v, [2, 0])
    assert fraction_ops.take() == (0, 0)
    assert got == {i: sum((m.rows[i][j] * v[j] for j in v), ZERO)
                   for i in (2, 0)}


def test_only_rational_reads_numerators_and_denominators():
    # the integer sum of `dot` is the one place that takes a rational
    # apart; cli's hasattr(value, "denominator") reads no attribute
    src = Path(__file__).resolve().parents[1] / "src" / "shapwa"
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = sorted(node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in ("numerator", "denominator"))
        if lines:
            found[path.stem] = lines
    assert set(found) == {"rational"}, found


def test_rats_parses_each_distinct_string_once(monkeypatch):
    calls = []
    real = rational.rat
    monkeypatch.setattr(rational, "rat", lambda x: calls.append(x) or real(x))
    assert rats(["1/2", "0", "1/2", "1", "0", "1"]) == \
        [Rat(1, 2), ZERO, Rat(1, 2), ONE, ZERO, ONE]
    assert sorted(calls) == ["0", "1", "1/2"]


def test_total_starts_from_its_first_term(fraction_ops):
    x = Rat(1, 3)
    assert total([]) is ZERO
    assert total(iter([x])) is x
    fraction_ops.take()
    assert total(x for _ in range(3)) == 1
    assert fraction_ops.take() == (0, 2)


def test_floats_rejected():
    with pytest.raises((TypeError, ValueError)):
        rat(0.5)
    with pytest.raises((TypeError, ValueError)):
        rat(True)


def test_from_dense_drops_zero_strings():
    assert SpMat.from_dense([["0", "1/2"], ["0", "0"]]).nnz == 1


def test_rats_checks_every_element_zeros_included():
    assert rats(["0", "1/2", 0, "0/3", "-0", Rat(2)]) == \
        [ZERO, Rat(1, 2), ZERO, ZERO, ZERO, Rat(2)]
    for bad in (0.0, False, None, "x"):
        with pytest.raises((TypeError, ValueError)):
            rats(["1", bad])
        with pytest.raises((TypeError, ValueError)):
            SpMat.from_dense([["1", bad], ["0", "1"]])
    with pytest.raises(TypeError):
        rats("10")


B = ("0", "1")
HALF = Rat(1, 2)


def _tree(leaf):
    return DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=leaf)}), 1, B)


# name -> a constructor call with one rational field set to x
CONTAINERS = {
    "tree-leaf": _tree,
    "ensemble-weight": lambda x: TreeEnsemble([_tree(ONE)], [x],
                                              "regression"),
    "linear-weight": lambda x: LinearModel(1, B, {(1, "0"): x}),
    "linear-intercept": lambda x: LinearModel(1, B, {}, x),
    "hmmvec": lambda x: HmmVec((1,), [ONE], [[[ONE]]], [[[x, HALF]]], B),
    "ind": lambda x: IndDist([{"0": x, "1": HALF}], B),
    "markov": lambda x: MarkovDist({"0": x, "1": HALF},
                                   {"0": {"0": ONE}, "1": {"1": ONE}}, B),
    "nb": lambda x: NaiveBayes({"c": x, "d": HALF},
                               [{"c": {"0": ONE}, "d": {"0": ONE}}], B),
    "rnn": lambda x: RnnRelu(h_init=[x], W=[[ONE]], emb={"0": [ZERO]},
                             out=[ONE], domain=("0",)),
    "sigmoid": lambda x: SigmoidNet([x], ZERO, 1.0),
}
BUILDS = [
    lambda: NAlphabetWA([("0",)], [0.5], {}, [ONE]),
    lambda: NAlphabetWA([("0",)], [ONE], {}, [0.5]),
    lambda: SpMat(1).set(0, 0, 0.1),
    lambda: SpMat.from_dense([[0.1]]),
    lambda: Hmm.from_matrices([ONE], [[1.0]], [[ONE]], ("0",)),
    *(lambda build=build, x=x: build(x)
      for build in CONTAINERS.values() for x in (0.5, True)),
]
IDS = ["wa-alpha", "wa-beta", "spmat-set", "spmat-from-dense",
       "hmm-from-matrices",
       *(f"{name}-{kind}" for name in CONTAINERS for kind in ("float", "bool"))]


@pytest.mark.parametrize("build", BUILDS, ids=IDS)
def test_exact_entry_points_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("name", CONTAINERS)
def test_containers_accept_the_exact_value(name):
    CONTAINERS[name](HALF)


def test_rats_coerces_lists_and_tuples():
    assert rats(["1/2", 3]) == rats(("1/2", 3)) == [HALF, Rat(3)]


# name -> a constructor call with a string where a list of rationals belongs;
# it must not be read as the list of its characters
STRING_LISTS = {
    "rats": lambda: rats("12"),
    "wa-alpha": lambda: NAlphabetWA([("0",)], "1", {}, [ONE]),
    "wa-beta": lambda: NAlphabetWA([("0",)], [ONE], {}, "1"),
    "spmat-row": lambda: SpMat.from_dense(["1"]),
    "spmat-row-list": lambda: SpMat.from_dense("1"),
    "hmm-from-matrices": lambda: Hmm.from_matrices([ONE], ["1"], [[ONE]],
                                                   ("0",)),
    "hmmvec-alpha": lambda: HmmVec((1,), "1", [[[ONE]]], [[[HALF, HALF]]], B),
    "hmmvec-row": lambda: HmmVec((1,), [ONE], [["1"]], [[[HALF, HALF]]], B),
    "rnn-W": lambda: RnnRelu(h_init=[ONE, ZERO], W=["12", "01"],
                             emb={"0": [ZERO, ZERO]}, out=[ONE, ONE],
                             domain=("0",)),
    "rnn-emb": lambda: RnnRelu(h_init=[ONE], W=[[ONE]], emb={"0": "0"},
                               out=[ONE], domain=("0",)),
    "sigmoid-weights": lambda: SigmoidNet("12", ZERO, 1.0),
    "ensemble-weights": lambda: TreeEnsemble([_tree(ONE)] * 2, "12",
                                             "regression"),
}


@pytest.mark.parametrize("name", STRING_LISTS)
def test_lists_of_rationals_refuse_strings(name):
    with pytest.raises(TypeError):
        STRING_LISTS[name]()
