import re
from pathlib import Path

from shapwa.frontends import dt_to_wa, linear_to_wa
from shapwa.models import DecisionTree, DTNode, LinearModel
from shapwa.randgen import rand_rat, rng_for
from shapwa.rational import ZERO

ROOT = Path(__file__).resolve().parents[1]
B = ("0", "1")


def layout_rows():
    """The module names of README's "Package layout" table, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `shapwa\.(\w+)` \|", section, re.MULTILINE)


def test_package_layout_has_one_row_per_module():
    modules = {p.stem for p in (ROOT / "src" / "shapwa").glob("*.py")}
    rows = layout_rows()
    assert len(rows) == len(set(rows)), rows
    assert set(rows) == modules - {"__init__", "__main__"}


def compiled_sizes():
    """(model, a, b) of each row "| model | an + b |" of the table of
    compiled sizes in README's `convert` section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### `shapwa convert`", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| (`\w+`, .+) \| (\d*)n(?: \+ (\d+))? \|$",
                      section, re.MULTILINE)
    return [(model, int(a or 1), int(b or 0)) for model, a, b in rows]


def nonzero(rng):
    return rand_rat(rng, 1, 3) * rng.choice((1, -1))


def chain_tree(rng, n):
    node = DTNode(leaf=nonzero(rng))
    for k in range(n, 0, -1):
        node = DTNode(feature=k, children={"0": DTNode(leaf=ZERO), "1": node})
    return DecisionTree(node, n, B)


def linear(rng, n, intercept):
    return LinearModel(n, B, {(i, d): nonzero(rng) for i in range(1, n + 1)
                              for d in B}, intercept)


# each row's model, compiled under an order
EXAMPLES = {
    "`dt`, a chain tree (features 1..n tested in turn, one nonzero leaf)":
        lambda rng, n, order: dt_to_wa(chain_tree(rng, n), order),
    "`dt`, a one-leaf tree":
        lambda rng, n, order: dt_to_wa(
            DecisionTree(DTNode(leaf=nonzero(rng)), n, B), order),
    "`lin`, a nonzero weight at every feature and a nonzero intercept":
        lambda rng, n, order: linear_to_wa(
            linear(rng, n, nonzero(rng)), order),
    "`lin`, a nonzero weight at every feature and intercept 0":
        lambda rng, n, order: linear_to_wa(linear(rng, n, ZERO), order),
}


def test_convert_states_the_compiled_sizes():
    rows = compiled_sizes()
    assert [model for model, _, _ in rows] == list(EXAMPLES)
    rng = rng_for(90)
    for model, a, b in rows:
        for n in (1, rng.randint(2, 9), 30):
            order = rng.sample(range(1, n + 1), n)
            assert EXAMPLES[model](rng, n, order).dim == a * n + b, (model, n)
