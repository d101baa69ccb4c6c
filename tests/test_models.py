import math
from itertools import product

import pytest

from shapwa.hmm import Hmm, hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.models import (Dataset, DecisionTree, DTNode, HmmVec, IndDist,
                           LinearModel, MarkovDist, NaiveBayes, SigmoidNet,
                           TreeEnsemble, dt_from_json, dt_to_json,
                           ensemble_from_json, ensemble_to_json, from_json,
                           linear_from_json, linear_to_json, step, to_json)
from shapwa.randgen import (rand_dt, rand_ensemble, rand_hmmvec, rand_ind,
                            rand_linear, rand_markov, rand_nb, rng_for)
from shapwa.rational import Rat, ZERO, ONE

B = ("0", "1")


def words(n, alphabet=B):
    return ("".join(t) for t in product(alphabet, repeat=n))


def test_step_at_zero():
    assert step(0) == 1
    assert step(Rat(-1, 5)) == 0
    assert step(Rat(1, 5)) == 1


def test_tree_evaluate_and_leaves():
    t = DecisionTree(
        DTNode(feature=1, children={
            "0": DTNode(leaf=ZERO),
            "1": DTNode(feature=2, children={"0": DTNode(leaf=Rat(1, 2)),
                                             "1": DTNode(leaf=ONE)})}),
        2, B)
    assert t.evaluate("00") == 0
    assert t.evaluate("10") == Rat(1, 2)
    assert t.evaluate("11") == 1
    assert sorted((sorted(c.items()), v) for c, v in t.leaves()) == [
        ([(1, "0")], ZERO), ([(1, "1"), (2, "0")], Rat(1, 2)),
        ([(1, "1"), (2, "1")], ONE)]


def test_tree_validation():
    with pytest.raises(ValueError):  # repeated feature on a path
        DecisionTree(DTNode(feature=1, children={
            "0": DTNode(leaf=ZERO),
            "1": DTNode(feature=1, children={"0": DTNode(leaf=ZERO),
                                             "1": DTNode(leaf=ONE)})}), 2, B)
    with pytest.raises(ValueError):  # children must cover the domain
        DecisionTree(DTNode(feature=1, children={"0": DTNode(leaf=ZERO)}),
                     1, B)
    with pytest.raises(ValueError):  # feature out of range
        DecisionTree(DTNode(feature=3, children={
            "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)


def test_ensemble_modes():
    leaf = lambda v: DecisionTree(DTNode(leaf=Rat(v)), 1, B)
    reg = TreeEnsemble([leaf(1), leaf(2)], [Rat(1, 2), Rat(3)], "regression")
    assert reg.evaluate("0") == Rat(1, 2) + 6
    # vote: margin = sum w (2f - 1); step at >= 0
    vote = TreeEnsemble([leaf(1), leaf(0), leaf(0)], [1, 1, 1], "vote")
    assert vote.evaluate("0") == 0  # margin -1
    tie = TreeEnsemble([leaf(1), leaf(0)], [1, 1], "vote")
    assert tie.evaluate("0") == 1  # ties break towards 1
    with pytest.raises(ValueError):
        TreeEnsemble([leaf(1)], [1, 2], "regression")
    with pytest.raises(ValueError):
        TreeEnsemble([leaf(1)], [1], "average")
    assert reg.n == 1
    for other in (DecisionTree(DTNode(leaf=ONE), 2, B),      # another n
                  DecisionTree(DTNode(leaf=ONE), 1, ("a", "b"))):  # domain
        with pytest.raises(ValueError):
            TreeEnsemble([leaf(1), other], [1, 1], "regression")


def test_linear_model():
    m = LinearModel(2, B, {(1, "1"): Rat(2), (2, "0"): Rat(-1, 2)}, Rat(1))
    assert m.evaluate("00") == Rat(1, 2)
    assert m.evaluate("11") == 3
    assert m.weight(1, "0") == 0  # 0-padded


def test_hmmvec_prob_normalizes():
    m = rand_hmmvec(rng_for(40), 3, 2, B)
    assert sum((m.prob(x) for x in words(3)), ZERO) == 1
    with pytest.raises(ValueError):
        HmmVec((1, 3), [ONE], [[[ONE]]] * 2, [[[ONE, ZERO]]] * 2, B)
    with pytest.raises(ValueError):
        HmmVec((1,), [Rat(1, 2)], [[[ONE]]], [[[ONE, ZERO]]], B)


def test_hmmvec_permutation():
    # pi = (2, 1): position 1 emits feature 2
    m = HmmVec((2, 1), [ONE], [[[ONE]]] * 2,
               [[[ONE, ZERO]], [[ZERO, ONE]]], B)
    # first emission (feature 2) is '0', second (feature 1) is '1'
    assert m.prob("10") == 1
    assert m.prob("01") == 0


def test_dataset():
    d = Dataset(["01", "01", "11"])
    assert d.prob("01") == Rat(2, 3)
    assert d.prob("00") == 0
    assert d.domain == B
    with pytest.raises(ValueError):
        Dataset([])
    with pytest.raises(ValueError):
        Dataset(["0", "01"])


def test_distribution_normalization():
    for dist in (rand_ind(rng_for(41), 3), rand_nb(rng_for(42), 3)):
        assert sum((dist.prob(x) for x in words(3)), ZERO) == 1
    m = rand_markov(rng_for(43))
    assert sum((m.prob(x) for x in words(3)), ZERO) == 1
    assert m.prob("") == 1
    with pytest.raises(ValueError):
        IndDist([{"0": Rat(1, 2), "1": Rat(1, 3)}], B)
    with pytest.raises(ValueError):
        MarkovDist({"0": ONE, "1": ZERO}, {"0": {"0": Rat(1, 2)}}, B)


def test_vote_ensemble_weighs_its_votes_with_no_product(fraction_ops):
    # the weights of the 1 votes against those of the 0 votes: no product
    # by +-1 and no sum with 0 per tree; the label is the shared ONE or ZERO
    n = 5
    trees = [DecisionTree(DTNode(feature=j, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), n, B)
        for j in range(1, n + 1)]
    weights = [Rat(1, k) for k in range(2, n + 2)]
    vote = TreeEnsemble(trees, weights, "vote")
    expect = {x: ONE if sum(w if s == "1" else -w
                            for w, s in zip(weights, x)) >= 0 else ZERO
              for x in words(n)}
    assert set(expect.values()) == {ZERO, ONE}
    fraction_ops.take()
    got = {x: vote.evaluate(x) for x in words(n)}
    assert (fraction_ops.trivial, fraction_ops.take()[0]) == (0, 0)
    assert all(got[x] is y for x, y in expect.items())


THIRDS = {"0": Rat(1, 3), "1": Rat(2, 3)}
# parameters with 1s, 0s and 0-padded weights among them
MARGINALS = [{"0": ONE}, {"0": Rat(1, 2), "1": Rat(1, 2)}, THIRDS]
PRIOR = {"c": Rat(1, 4), "d": Rat(3, 4)}
WEIGHTS = {(1, "0"): Rat(2), (2, "1"): Rat(-1, 2), (3, "0"): ONE}
# name -> (the object, its value at x by definition)
EVALUATORS = {
    "ind": (IndDist(MARGINALS, B), lambda x: math.prod(
        m.get(s, 0) for m, s in zip(MARGINALS, x))),
    "nb": (NaiveBayes(PRIOR, [{"c": m, "d": THIRDS} for m in MARGINALS], B),
           lambda x: PRIOR["c"] * math.prod(
               m.get(s, 0) for m, s in zip(MARGINALS, x))
           + PRIOR["d"] * math.prod(THIRDS[s] for s in x)),
    "linear": (LinearModel(3, B, WEIGHTS), lambda x: sum(
        WEIGHTS.get((i, s), 0) for i, s in enumerate(x, start=1))),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_make_no_product_by_1_and_no_sum_with_0(fraction_ops,
                                                            name):
    f, by_definition = EVALUATORS[name]
    evaluate = getattr(f, "prob", None) or f.evaluate
    expect = {x: by_definition(x) for x in words(3)}
    fraction_ops.take()
    got = {x: evaluate(x) for x in words(3)}
    assert fraction_ops.trivial == 0
    assert got == expect


@pytest.mark.parametrize("alpha, transitions, emissions", [
    ([ONE], [[[ONE]]] * 2, [[[ONE]]] * 2),            # rows shorter than B
    ([Rat(1, 2)] * 2, [[[ONE]]] * 2,                 # 2 states, 1x1 matrices
     [[[Rat(1, 2)] * 2]] * 2),
    ([ONE], [[[ONE]]] * 2, [[[ONE, ZERO]] * 2] * 2),  # 2 emission rows
    ([ONE], [[[ONE, ZERO]]] * 2, [[[ONE, ZERO]]] * 2),  # a 1x2 transition
])
def test_hmmvec_checks_its_shapes(alpha, transitions, emissions):
    with pytest.raises(ValueError, match="matrix is not"):
        HmmVec((1, 2), alpha, transitions, emissions, B)


def test_distributions_refuse_symbols_outside_the_domain():
    half, alien = {"0": Rat(1, 2), "1": Rat(1, 2)}, {"0": Rat(1, 2),
                                                     "x": Rat(1, 2)}
    with pytest.raises(ValueError, match="outside the domain"):
        IndDist([alien, half], B)
    with pytest.raises(ValueError, match="outside the domain"):
        MarkovDist(alien, {"0": half, "1": half}, B)
    with pytest.raises(ValueError, match="outside the domain"):
        MarkovDist(half, {"0": alien, "1": half}, B)
    with pytest.raises(ValueError, match="outside the domain"):
        MarkovDist(half, {"0": half, "1": half, "x": half}, B)
    with pytest.raises(ValueError, match="outside the domain"):
        NaiveBayes({"c": ONE}, [{"c": half}, {"c": alien}], B)


def test_tabular_inputs_refuse_other_malformed_fields():
    half = {"0": Rat(1, 2), "1": Rat(1, 2)}
    signed = {"0": Rat(2), "1": Rat(-1)}
    with pytest.raises(ValueError):  # a negative probability
        MarkovDist(signed, {"0": half, "1": half}, B)
    with pytest.raises(ValueError):
        NaiveBayes({"c": Rat(2), "d": Rat(-1)}, [{"c": half, "d": half}], B)
    with pytest.raises(ValueError):
        HmmVec((1,), [Rat(2), Rat(-1)], [[[ONE, ZERO], [ZERO, ONE]]],
               [[[ONE, ZERO], [ONE, ZERO]]], B)
    with pytest.raises(ValueError, match="one row per class"):
        NaiveBayes({"c": Rat(1, 2), "d": Rat(1, 2)}, [{"c": half}], B)
    with pytest.raises(ValueError, match="strings"):
        Dataset([["0", "1"]])
    with pytest.raises(ValueError, match="strings"):
        IndDist([half], ("0", 1))
    # an input is the string of its symbols, one character each
    for domain in (("0", "0", "1"), ("ab", "c"), ("", "1")):
        with pytest.raises(ValueError, match="repeated|one-character"):
            LinearModel(1, domain, {})
    with pytest.raises(ValueError, match="non-negative integer"):
        LinearModel("2", B, {})
    with pytest.raises(ValueError, match="non-negative integer"):
        DecisionTree(DTNode(leaf=ONE), Rat(3, 2), B)
    with pytest.raises(ValueError, match="out of range"):
        DecisionTree(DTNode(feature=Rat(3, 2), children={
            "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)


def test_sigmoid_evaluate_is_total():
    # below u = -709.78, exp(-u) overflows: the logistic is then exp(u)
    net = SigmoidNet(["-1000", "1"], ZERO, 1.0)
    assert net.evaluate("10") == net.evaluate("11") == 0.0
    steep = SigmoidNet(["-1", "1"], ZERO, 720.0)
    assert steep.evaluate("10") == math.exp(-720.0) > 0
    # a weighted sum beyond binary-64's range saturates to +-inf
    big = "1" + "0" * 400
    assert SigmoidNet([big, "1"], ZERO, 1.0).evaluate("10") == 1.0
    assert SigmoidNet(["-" + big, "1"], ZERO, 1.0).evaluate("11") == 0.0
    assert SigmoidNet([big], ZERO, 0.0).evaluate("1") == 0.5  # zero gain
    # terms beyond the range whose exact sum is within it
    cancel = SigmoidNet([big, "-" + big], ONE, 1.0)
    assert cancel.evaluate("11") == 1.0 / (1.0 + math.exp(-1.0))
    # otherwise the binary-64 sum of the rounded terms, as it always was:
    # 0.1 + 0.1 + 0.1 is 0.30000000000000004, not 0.3, and the value differs
    tenths = SigmoidNet([Rat(1, 10)] * 3, ZERO, 3.0)
    z = 0.1 + 0.1 + 0.1
    assert tenths.evaluate("111") == 1.0 / (1.0 + math.exp(-3.0 * z))
    assert tenths.evaluate("111") != 1.0 / (1.0 + math.exp(-3.0 * 0.3))


def test_hmm_stochastic_check():
    h = uniform_hmm(B)
    assert sum((h.prefix_prob(x) for x in words(4)), ZERO) == 1
    with pytest.raises(ValueError):
        Hmm.from_matrices([Rat(1, 2), Rat(1, 3)], [[ONE, ZERO]] * 2,
                          [[Rat(1, 2), Rat(1, 2)]] * 2, B)


HALVES = [Rat(1, 2)] * 2
# one table of malformed <alpha, T, O> over B, for Hmm.from_matrices and a
# one-position HmmVec alike; in "emission-rows-not-laws" each row of T times
# the row sums of O is 1, so only a check of O's own rows refuses it
MALFORMED_PARAMETERS = {
    "alpha-too-long": ([ONE, ZERO, ZERO], [HALVES] * 2, [HALVES] * 2),
    "transition-rows-short": ([ONE, ZERO], [[ONE]] * 2, [HALVES] * 2),
    "transition-row-missing": ([ONE, ZERO], [HALVES], [HALVES] * 2),
    "emission-rows-long": ([ONE, ZERO], [HALVES] * 2, [HALVES + [ZERO]] * 2),
    "emission-row-missing": ([ONE, ZERO], [HALVES] * 2, [HALVES]),
    "negative-transition": ([ONE, ZERO], [[Rat(2), -ONE], HALVES],
                            [HALVES] * 2),
    "negative-emission": ([ONE, ZERO], [HALVES] * 2,
                          [[Rat(3, 2), Rat(-1, 2)], HALVES]),
    "transition-row-not-a-law": ([ONE, ZERO], [HALVES, [Rat(1, 2), ONE]],
                                 [HALVES] * 2),
    "emission-row-not-a-law": ([ONE, ZERO], [HALVES] * 2,
                               [HALVES, [Rat(1, 3), ONE]]),
    "emission-rows-not-laws": ([ONE, ZERO], [HALVES] * 2,
                               [[ONE, ONE], [ZERO, ZERO]]),
    "alpha-not-a-law": ([Rat(1, 2), Rat(1, 3)], [HALVES] * 2, [HALVES] * 2),
    "alpha-negative": ([Rat(2), -ONE], [HALVES] * 2, [HALVES] * 2),
}


@pytest.mark.parametrize("alpha, transition, emission",
                         MALFORMED_PARAMETERS.values(),
                         ids=list(MALFORMED_PARAMETERS))
def test_hmm_and_hmmvec_refuse_the_same_parameters(alpha, transition,
                                                    emission):
    with pytest.raises(ValueError):
        Hmm.from_matrices(alpha, transition, emission, B)
    with pytest.raises(ValueError):
        HmmVec((1,), alpha, [transition], [emission], B)


def test_hmm_and_hmmvec_read_the_same_parameters_alike():
    alpha, transition, emission = [ONE, ZERO], [HALVES] * 2, [
        [Rat(1, 3), Rat(2, 3)], [ONE, ZERO]]
    h = Hmm.from_matrices(alpha, transition, emission, B)
    v = HmmVec((1, 2), alpha, [transition] * 2, [emission] * 2, B)
    for x in words(2):
        assert h.prefix_prob(x) == v.prob(x)


# ---------------------------------------------------------------------------
# codecs


def test_json_roundtrips():
    rng = rng_for(44)
    t = rand_dt(rng, 3)
    t2 = dt_from_json(dt_to_json(t))
    e = rand_ensemble(rng, 3)
    e2 = ensemble_from_json(ensemble_to_json(e))
    lin = rand_linear(rng, 3)
    lin2 = linear_from_json(linear_to_json(lin))
    for x in words(3):
        assert t2.evaluate(x) == t.evaluate(x)
        assert e2.evaluate(x) == e.evaluate(x)
        assert lin2.evaluate(x) == lin.evaluate(x)

    v = rand_hmmvec(rng, 3, 2, B)
    v2 = from_json(HmmVec, to_json(v))
    ind = rand_ind(rng, 3)
    ind2 = from_json(IndDist, to_json(ind))
    mk = rand_markov(rng)
    mk2 = from_json(MarkovDist, to_json(mk))
    nb = rand_nb(rng, 3)
    nb2 = from_json(NaiveBayes, to_json(nb))
    for x in words(3):
        assert v2.prob(x) == v.prob(x)
        assert ind2.prob(x) == ind.prob(x)
        assert mk2.prob(x) == mk.prob(x)
        assert nb2.prob(x) == nb.prob(x)

    d = Dataset(["01", "11"])
    assert from_json(Dataset, to_json(d)).rows == d.rows


def test_hmm_json_both_forms():
    from shapwa.randgen import rand_hmm
    h = rand_hmm(rng_for(45), 3, B)
    h2 = hmm_from_json(hmm_to_json(h))
    for x in words(3):
        assert h2.prefix_prob(x) == h.prefix_prob(x)
    # the <transition, emission> input form
    obj = {"alphabet": ["0", "1"],
           "alpha": ["1", "0"],
           "transition": [["0", "1"], ["1", "0"]],
           "emission": [["1/2", "1/2"], ["1", "0"]]}
    h3 = hmm_from_json(obj)
    assert sum((h3.prefix_prob(x) for x in words(3)), ZERO) == 1
