import json
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from shapwa import cli, linalg
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
    # True equals 1, but a bool names no feature
    for order in ((True, 2), (2, True), (1.0, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            feature_order(order, 2)


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
    # trie nodes before positions 1 and 2, then done_1 and done_2; the zero
    # intercept enters no done_0
    assert A.dim == 2 * 2


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


def chain_tree(n):
    """The tree that tests features 1..n in turn: 1 on 1...1, else 0."""
    node = DTNode(leaf=ONE)
    for k in range(n, 0, -1):
        node = DTNode(feature=k, children={"0": DTNode(leaf=ZERO), "1": node})
    return DecisionTree(node, n, B)


def test_compiled_models_equal_their_models_under_any_order():
    # every input of 40 seeded trees, ensembles and linear models at n <= 5,
    # each read through a random feature order
    for seed in range(40):
        rng = rng_for(300 + seed)
        domain = ("a", "b", "c") if seed % 4 == 0 else B
        n = rng.randint(1, 4 if len(domain) > 2 else 5)
        order = tuple(rng.sample(range(1, n + 1), n))
        for model, compile_ in (
                (rand_dt(rng, n, domain), dt_to_wa),
                (rand_ensemble(rng, n, domain=domain), ensemble_reg_to_wa),
                (rand_linear(rng, n, domain), linear_to_wa)):
            A = compile_(model, order)
            for x in words(n, domain):
                assert eval_wa(A, (sequentialize(x, order),)) == \
                    model.evaluate(x), (seed, compile_.__name__, x)


def test_compiled_sizes():
    # a trie node per position before a cube's last, a done state per
    # position from the first one a cube's last enters
    for n in (1, 2, 5, 40):
        order = tuple(range(n, 0, -1))
        weights = {(i, d): Rat(i + k, 3) for i in range(1, n + 1)
                   for k, d in enumerate(B)}
        for o in (None, order):
            assert dt_to_wa(chain_tree(n), o).dim == n + 1
            one_leaf = DecisionTree(DTNode(leaf=Rat(-2, 3)), n, B)
            assert dt_to_wa(one_leaf, o).dim == n + 1
            for intercept, dim in ((Rat(1, 2), 2 * n + 1), (ZERO, 2 * n)):
                m = LinearModel(n, B, weights, intercept)
                assert linear_to_wa(m, o).dim == dim
    # a zero model has no state left
    assert dt_to_wa(DecisionTree(DTNode(leaf=ZERO), 3, B)).dim == 0


def test_convert_writes_the_same_bytes_on_two_runs(tmp_path):
    # state numbering follows the source, not the process's hash seed
    rng = rng_for(65)
    sources = {"dt": rand_dt(rng, 5), "ens-r": rand_ensemble(rng, 5),
               "lin": rand_linear(rng, 5)}
    src = str(Path(cli.__file__).parent.parent)
    for name, model in sources.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli.encode(model)))
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-{seed}.wa.json"
            subprocess.run([sys.executable, "-m", "shapwa", "convert",
                            "--from", name, "--input", str(path),
                            "--order", "3,1,5,2,4", "--output", str(out)],
                           check=True, env={**os.environ, "PYTHONPATH": src,
                                            "PYTHONHASHSEED": seed})
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name


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
    v2 = emp_to_hmmvec(d)
    assert sum((v2.prob(x) for x in words(3, v2.domain)), ZERO) == 1
    for x in words(3, v2.domain):
        assert v2.prob(x) == d.prob(x)


# repeated rows, a single row, rows that share long prefixes, and rows that
# use one symbol of B
EMP_DATASETS = (["010"], ["110", "110", "011", "110"],
                ["000", "001", "001", "011", "111", "111", "110"],
                ["111", "111"])


def test_emp_is_exact_with_one_state_per_distinct_row():
    datasets = [Dataset(rows) for rows in EMP_DATASETS]
    rng = rng_for(60)
    datasets += [rand_dataset(rng, 3, rng.randint(1, 9)) for _ in range(4)]
    for d in datasets:
        distinct = len(set(d.rows))
        for order in permutations((1, 2, 3)):
            v = emp_to_hmmvec(d, order)
            assert len(v.alpha) == distinct
            h = hmmvec_to_hmm(v)
            assert h.dim == (d.n + 1) * distinct + 1
            for x in words(3, v.domain):
                assert v.prob(x) == d.prob(x)
                assert h.prefix_prob(sequentialize(x, order)) == d.prob(x)


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


def dense_prob(m, x):
    """P(x) by the definition: the sum over hidden paths s_0 .. s_n of
    alpha[s_0] * prod_j T_j[s_{j-1}][s_j] * O_j[s_j][x_{pi(j)}]."""
    out = ZERO
    for path in product(range(len(m.alpha)), repeat=m.n + 1):
        p = m.alpha[path[0]]
        for j in range(m.n):
            s = m.domain.index(x[m.pi[j] - 1])
            p *= (m.transitions[j][path[j]][path[j + 1]]
                  * m.emissions[j][path[j + 1]][s])
        out += p
    return out


def test_hmmvec_prob_is_the_dense_sum_over_hidden_paths():
    rng = rng_for(62)
    for order in ((1, 2, 3), (3, 1, 2)):
        for m in (rand_hmmvec(rng, 3, 2, B, permute=True),
                  emp_to_hmmvec(rand_dataset(rng, 3, 4), order),
                  nb_to_hmmvec(rand_nb(rng, 3), order),
                  ind_to_hmmvec(rand_ind(rng, 3), order)):
            for x in words(3):
                assert m.prob(x) == dense_prob(m, x), (m, x)


def test_hmmvec_prob_calls_no_linalg_kernel(monkeypatch):
    # the oracle evaluates an hmmvec through prob, and shares no kernel
    m = emp_to_hmmvec(rand_dataset(rng_for(64), 3, 5))
    expected = {x: m.prob(x) for x in words(3)}
    for name, value in vars(linalg.SpMat).items():
        if callable(value) or isinstance(value, classmethod):
            monkeypatch.setattr(linalg.SpMat, name, None)
    for x in words(3):
        assert m.prob(x) == expected[x]


def test_hmmvec_to_hmm_makes_no_rational_product(fraction_ops):
    rng = rng_for(63)
    for m in (rand_hmmvec(rng, 3, 2, B),
              emp_to_hmmvec(rand_dataset(rng, 3, 5)),
              nb_to_hmmvec(rand_nb(rng, 3))):
        fraction_ops.take()
        h = hmmvec_to_hmm(m)
        assert fraction_ops.take()[0] == 0
        for x in words(3):
            assert h.prefix_prob(x) == m.prob(x)


def test_ind_uniform():
    u = IndDist([{"0": Rat(1, 2), "1": Rat(1, 2)}] * 2, B)
    h = hmmvec_to_hmm(ind_to_hmmvec(u))
    for x in words(2):
        assert h.prefix_prob(x) == Rat(1, 4)
    m = rand_ind(rng_for(56), 3)
    v = ind_to_hmmvec(m)
    for x in words(3):
        assert v.prob(x) == m.prob(x)


def test_ind_is_a_single_state_hmmvec():
    m = rand_ind(rng_for(61), 3)
    for order in permutations((1, 2, 3)):
        v = ind_to_hmmvec(m, order)
        assert v.pi == order and v.domain == m.domain
        assert v.alpha == [ONE]
        assert v.transitions == [[[ONE]]] * 3
        assert v.emissions == [[[m.marginals[i - 1].get(s, ZERO)
                                 for s in m.domain]] for i in order]


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
