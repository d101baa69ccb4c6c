from itertools import product

import pytest

from shapwa.hmm import Hmm, hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.models import (Dataset, DecisionTree, DTNode, HmmVec, IndDist,
                           LinearModel, MarkovDist, NaiveBayes, TreeEnsemble,
                           dataset_from_json, dataset_to_json, dt_from_json,
                           dt_to_json, ensemble_from_json, ensemble_to_json,
                           hmmvec_from_json, hmmvec_to_json, ind_from_json,
                           ind_to_json, linear_from_json, linear_to_json,
                           markov_from_json, markov_to_json, nb_from_json,
                           nb_to_json, step)
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
                  DecisionTree(DTNode(leaf=ONE), 1, "ab")):  # another domain
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
    assert d.domain() == B
    with pytest.raises(ValueError):
        Dataset([])
    with pytest.raises(ValueError):
        Dataset(["0", "01"])


def test_distribution_normalization():
    for dist in (rand_ind(rng_for(41), 3), rand_nb(rng_for(42), 3)):
        assert sum((dist.prob(x) for x in words(3)), ZERO) == 1
    m = rand_markov(rng_for(43))
    assert sum((m.prob(x) for x in words(3)), ZERO) == 1
    with pytest.raises(ValueError):
        IndDist([{"0": Rat(1, 2), "1": Rat(1, 3)}], B)
    with pytest.raises(ValueError):
        MarkovDist({"0": ONE, "1": ZERO}, {"0": {"0": Rat(1, 2)}}, B)


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
    with pytest.raises(ValueError, match="non-negative integer"):
        LinearModel("2", B, {})
    with pytest.raises(ValueError, match="non-negative integer"):
        DecisionTree(DTNode(leaf=ONE), Rat(3, 2), B)
    with pytest.raises(ValueError, match="out of range"):
        DecisionTree(DTNode(feature=Rat(3, 2), children={
            "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)


def test_hmm_stochastic_check():
    h = uniform_hmm(B)
    assert sum((h.prefix_prob(x) for x in words(4)), ZERO) == 1
    with pytest.raises(ValueError):
        Hmm.from_matrices([Rat(1, 2), Rat(1, 3)], [[ONE, ZERO]] * 2,
                          [[Rat(1, 2), Rat(1, 2)]] * 2, B)


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
    v2 = hmmvec_from_json(hmmvec_to_json(v))
    ind = rand_ind(rng, 3)
    ind2 = ind_from_json(ind_to_json(ind))
    mk = rand_markov(rng)
    mk2 = markov_from_json(markov_to_json(mk))
    nb = rand_nb(rng, 3)
    nb2 = nb_from_json(nb_to_json(nb))
    for x in words(3):
        assert v2.prob(x) == v.prob(x)
        assert ind2.prob(x) == ind.prob(x)
        assert mk2.prob(x) == mk.prob(x)
        assert nb2.prob(x) == nb.prob(x)

    d = Dataset(["01", "11"])
    assert dataset_from_json(dataset_to_json(d)).rows == d.rows


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
