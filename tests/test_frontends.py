from itertools import product

import pytest

from shapwa.frontends import (dt_to_wa, emp_to_hmmvec, ensemble_reg_to_wa,
                              feature_order, hmmvec_to_hmm, ind_to_hmmvec,
                              linear_to_wa, markov_to_hmm, nb_to_hmmvec,
                              sequentialize)
from shapwa.models import (Dataset, DecisionTree, DTNode, IndDist,
                           LinearModel, MarkovDist, NaiveBayes)
from shapwa.randgen import (rand_dataset, rand_dt, rand_ensemble,
                            rand_hmmvec, rand_ind, rand_linear, rand_markov,
                            rand_nb, rng_for)
from shapwa.rational import Rat, ZERO, ONE
from shapwa.wa import eval_wa

B = ("0", "1")


def words(n, alphabet=B):
    return ("".join(t) for t in product(alphabet, repeat=n))


# ---------------------------------------------------------------------------
# models


def test_dt_projection_tree():
    t = DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)
    A = dt_to_wa(t)
    assert eval_wa(A, ("10",)) == 1
    assert eval_wa(A, ("01",)) == 0


def test_dt_single_leaf():
    t = DecisionTree(DTNode(leaf=Rat(7, 3)), 2, B)
    A = dt_to_wa(t)
    for x in words(2):
        assert eval_wa(A, (x,)) == Rat(7, 3)


def test_dt_random_exhaustive():
    rng = rng_for(50)
    for _ in range(15):
        n = rng.randint(2, 5)
        t = rand_dt(rng, n)
        A = dt_to_wa(t)
        for x in words(n):
            assert eval_wa(A, (x,)) == t.evaluate(x)


def test_dt_with_order():
    t = DecisionTree(DTNode(feature=2, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)
    order = (2, 1)
    A = dt_to_wa(t, order)
    for x in words(2):
        assert eval_wa(A, (sequentialize(x, order),)) == t.evaluate(x)
    with pytest.raises(ValueError):
        dt_to_wa(t, (1, 1))


def test_every_ordered_compiler_checks_its_order():
    rng = rng_for(59)
    sources = ((dt_to_wa, rand_dt(rng, 3)),
               (ensemble_reg_to_wa, rand_ensemble(rng, 3)),
               (linear_to_wa, rand_linear(rng, 3)),
               (emp_to_hmmvec, rand_dataset(rng, 3, 4)),
               (ind_to_hmmvec, rand_ind(rng, 3)),
               (nb_to_hmmvec, rand_nb(rng, 3)))
    for compile_, source in sources:
        for order in ((1, 2), (1, 2, 3, 4), (1, 1, 2), (0, 1, 2)):
            with pytest.raises(ValueError, match="not a permutation"):
                compile_(source, order)
    assert feature_order(None, 3) == (1, 2, 3)
    assert feature_order([3, 1, 2], 3) == (3, 1, 2)


def test_ensemble_regression():
    rng = rng_for(51)
    e = rand_ensemble(rng, 4, trees=3)
    A = ensemble_reg_to_wa(e)
    for x in words(4):
        assert eval_wa(A, (x,)) == e.evaluate(x)
    single = rand_ensemble(rng, 3, trees=1)
    single.weights = [ONE]
    A1 = ensemble_reg_to_wa(single)
    ref = dt_to_wa(single.trees[0])
    for x in words(3):
        assert eval_wa(A1, (x,)) == eval_wa(ref, (x,))
    zeros = rand_ensemble(rng, 3, trees=2)
    zeros.weights = [ZERO, ZERO]
    A0 = ensemble_reg_to_wa(zeros)
    for x in words(3):
        assert eval_wa(A0, (x,)) == 0


def test_vote_ensemble_refused():
    e = rand_ensemble(rng_for(52), 3, mode="vote")
    with pytest.raises(ValueError, match="intractable"):
        ensemble_reg_to_wa(e)


def test_linear_figure_example():
    m = LinearModel(2, B, {(1, "0"): Rat(1), (1, "1"): Rat(1, 2),
                           (2, "0"): Rat(-1), (2, "1"): Rat(0)}, ZERO)
    A = linear_to_wa(m)
    assert eval_wa(A, ("00",)) == 0
    assert eval_wa(A, ("10",)) == Rat(-1, 2)
    assert eval_wa(A, ("01",)) == 1
    assert A.dim == 2 * 3 + 1  # two rails plus the intercept state


def test_linear_constant_and_exhaustive():
    c = LinearModel(3, B, {}, Rat(4, 7))
    Ac = linear_to_wa(c)
    for x in words(3):
        assert eval_wa(Ac, (x,)) == Rat(4, 7)
    dom3 = ("a", "b", "c")
    rng = rng_for(53)
    m = rand_linear(rng, 3, dom3)
    A = linear_to_wa(m)
    for x in words(3, dom3):
        assert eval_wa(A, (x,)) == m.evaluate(x)


# ---------------------------------------------------------------------------
# distributions


def test_emp_counts():
    v = emp_to_hmmvec(Dataset(["01", "01", "11"]))
    assert v.prob("01") == Rat(2, 3)
    assert v.prob("11") == Rat(1, 3)
    assert v.prob("00") == 0
    assert v.prob("10") == 0


def test_emp_point_mass_and_normalization():
    v = emp_to_hmmvec(Dataset(["010"]))
    assert v.prob("010") == 1
    d = rand_dataset(rng_for(54), 3, 6)
    v2 = emp_to_hmmvec(d, domain=B)
    assert sum((v2.prob(x) for x in words(3)), ZERO) == 1
    for x in words(3):
        assert v2.prob(x) == d.prob(x)


def test_hmmvec_to_hmm():
    v = emp_to_hmmvec(Dataset(["01", "11"]))
    h = hmmvec_to_hmm(v)
    assert h.prefix_prob("01") == Rat(1, 2)
    assert h.prefix_prob("11") == Rat(1, 2)
    assert h.prefix_prob("00") == 0
    rng = rng_for(55)
    for n in (2, 3, 4):
        m = rand_hmmvec(rng, n, 2, B)
        h2 = hmmvec_to_hmm(m)
        for x in words(n):
            assert h2.prefix_prob(x) == m.prob(x)


def test_ind_uniform():
    u = IndDist([{"0": Rat(1, 2), "1": Rat(1, 2)}] * 2, B)
    h = hmmvec_to_hmm(ind_to_hmmvec(u))
    for x in words(2):
        assert h.prefix_prob(x) == Rat(1, 4)
    m = rand_ind(rng_for(56), 3)
    v = ind_to_hmmvec(m)
    for x in words(3):
        assert v.prob(x) == m.prob(x)


def test_nb_single_class_is_product():
    nb = NaiveBayes({"c": ONE},
                    [{"c": {"0": Rat(1, 3), "1": Rat(2, 3)}},
                     {"c": {"0": Rat(3, 4), "1": Rat(1, 4)}}], B)
    ind = IndDist([{"0": Rat(1, 3), "1": Rat(2, 3)},
                   {"0": Rat(3, 4), "1": Rat(1, 4)}], B)
    v = nb_to_hmmvec(nb)
    for x in words(2):
        assert v.prob(x) == ind.prob(x)
    m = rand_nb(rng_for(57), 3)
    v2 = nb_to_hmmvec(m)
    for x in words(3):
        assert v2.prob(x) == m.prob(x)


def test_markov_chain():
    m = MarkovDist({"0": ONE, "1": ZERO},
                   {"0": {"0": ZERO, "1": ONE}, "1": {"0": ONE, "1": ZERO}},
                   B)
    h = markov_to_hmm(m)
    for x in words(3):
        assert h.prefix_prob(x) == (1 if x == "010" else 0)
    m2 = rand_markov(rng_for(58))
    h2 = markov_to_hmm(m2)
    for n in (1, 2, 3):
        for x in words(n):
            assert h2.prefix_prob(x) == m2.prob(x)
