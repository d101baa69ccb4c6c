import ast
import math
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from pathlib import Path

import pytest

from shapwa import oracle
from shapwa.engine import shap_all
from shapwa.hmm import hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.models import (Dataset, MarkovDist, RnnRelu, SigmoidNet, step,
                           symbols)
from shapwa.oracle import (CspInstance, GuardExceeded, Wmg,
                           ZeroProbabilityEvent, csp_brute,
                           dist_prob, dummy_check, empty_brute, eval_model,
                           hamming, shap_oracle_all, shap_oracle_global,
                           shap_oracle_local, shap_oracle_many, value_fn)
from shapwa.gadgets import csp_to_rnn, wmg_to_rnnrelu, wmg_to_sigmoid
from shapwa.randgen import (rand_01_dt, rand_csp, rand_dataset, rand_dt,
                            rand_ensemble, rand_hmm, rand_hmmvec, rand_ind,
                            rand_linear, rand_markov, rand_nb, rand_rat,
                            rand_wa, rand_wmg, rand_word, rng_for)
from shapwa.rational import Rat, ZERO, ONE, exact
from shapwa.wa import NAlphabetWA

B = ("0", "1")


def and_wa():
    trans = {("1",): SpMat.from_dense([[ONE]])}
    return NAlphabetWA([B], [ONE], trans, [ONE])


def words(n):
    return ("".join(t) for t in product(B, repeat=n))


def test_rnn_empty_sequence():
    m = RnnRelu(h_init=[ONE], W=[[ONE]], emb={"0": [ZERO], "1": [ONE]},
                out=[Rat(-1)], domain=B)
    assert m.evaluate("") == 0  # -1 * 1 < 0
    m2 = RnnRelu(h_init=[ZERO], W=[[ONE]], emb={"0": [ZERO], "1": [ONE]},
                 out=[Rat(-1)], domain=B)
    assert m2.evaluate("") == 1  # threshold at exactly 0


def _dense_hidden(m, w):
    # the recurrence read straight off the dense fields
    h = [Rat(x) for x in m.h_init]
    for sym in w:
        h = [max(ZERO, sum(Rat(m.W[a][b]) * h[b] for b in range(len(h)))
                 + Rat(m.emb[sym][a]))
             for a in range(len(h))]
    return h


def test_rnn_matches_dense_reference():
    rng = rng_for(40)
    models = [wmg_to_rnnrelu(rand_wmg(rng, rng.randint(1, 5)))
              for _ in range(6)]
    models += [csp_to_rnn(rand_csp(rng, rng.randint(1, 3), rng.randint(1, 4)))
               for _ in range(6)]
    for m in models:
        for _ in range(8):
            w = rand_word(rng, m.domain, rng.randint(0, 6))
            h = _dense_hidden(m, w)
            assert m.hidden(w) == h, (m, w)
            assert m.evaluate(w) == step(sum(Rat(o) * x
                                             for o, x in zip(m.out, h)))


def test_rnn_refuses_mismatched_shapes():
    ok = dict(h_init=[ONE], W=[[ONE]], emb={"0": [ZERO]}, out=[ONE],
              domain=("0",))
    RnnRelu(**ok)
    for bad in ({"W": [[ONE, ONE]]}, {"W": []}, {"out": [ONE, ONE]},
                {"emb": {"0": []}}):
        with pytest.raises(ValueError):
            RnnRelu(**{**ok, **bad})


def test_rnn_refuses_embeddings_off_its_domain():
    ok = dict(h_init=[ONE], W=[[ONE]], emb={"0": [ZERO], "1": [ONE]},
              out=[ONE], domain=B)
    RnnRelu(**ok)
    for emb, named in (({"0": [ZERO]}, r"missing \['1'\], extra \[\]"),
                       ({**ok["emb"], "2": [ONE]},
                        r"missing \[\], extra \['2'\]")):
        with pytest.raises(ValueError, match=named):
            RnnRelu(**{**ok, "emb": emb})


def test_oracle_refuses_what_it_cannot_read():
    two_tape = NAlphabetWA([B, B], [ONE],
                           {("1", "1"): SpMat.from_dense([[ONE]])}, [ONE])
    with pytest.raises(ValueError, match="1-alphabet"):
        eval_model(two_tape, "1")
    with pytest.raises(TypeError, match="unsupported distribution"):
        dist_prob(and_wa(), "11")
    with pytest.raises(ValueError, match="unknown variant"):
        shap_oracle_all("x", and_wa(), 2, "00", "11")


def test_hamming():
    assert hamming("0101", "0101") == 0
    assert hamming("00", "11") == 2
    assert hamming("01", "00") == hamming("00", "01")
    with pytest.raises(ValueError):
        hamming("0", "00")


def test_value_fn_full_coalition():
    f = and_wa()
    D = uniform_hmm(B)
    for variant, ctx in (("b", "00"), ("i", D), ("c", D)):
        assert value_fn(variant, f, "11", {1, 2}, ctx) == 1


def test_value_fn_examples():
    f = and_wa()
    assert value_fn("b", f, "11", set(), "01") == 0  # v_b(empty) = f(ref)
    assert value_fn("i", f, "11", {1}, uniform_hmm(B)) == Rat(1, 2)


def test_value_fn_refuses_a_coalition_member_off_the_features():
    # a member that is not an int in 1..n is refused, not ignored
    f, D = and_wa(), uniform_hmm(B)
    for coalition in ({1, 7}, {0, "a"}, {2, 1.5}):
        with pytest.raises(IndexError):
            value_fn("i", f, "1111", coalition, D)


def test_conditional_zero_probability():
    f = and_wa()
    d = Dataset(["00", "01"])  # x_1 = '1' has probability 0
    with pytest.raises(ZeroProbabilityEvent):
        value_fn("c", f, "11", {1}, d)


def test_shap_local_and():
    f = and_wa()
    D = uniform_hmm(B)
    assert shap_oracle_local("i", f, "11", 1, D) == Rat(3, 8)
    assert shap_oracle_local("i", f, "11", 1, D) == \
        shap_oracle_local("i", f, "11", 2, D)  # symmetry


def test_interventional_equals_conditional_under_independence():
    rng = rng_for(60)
    f = rand_wa(rng, 3, B)
    dist = rand_ind(rng, 3)
    x = rand_word(rng, B, 3)
    for S in ({1}, {2, 3}, set(), {1, 2, 3}):
        assert value_fn("i", f, x, S, dist) == value_fn("c", f, x, S, dist)
    for i in (1, 2, 3):
        assert shap_oracle_local("i", f, x, i, dist) == \
            shap_oracle_local("c", f, x, i, dist)


def test_global_is_expectation_of_local():
    rng = rng_for(61)
    f = rand_wa(rng, 2, B)
    D = uniform_hmm(B)
    n = 3
    expect = tuple(sum((Rat(1, 8) * shap_oracle_local("i", f, x, i, D)
                        for x in words(n)), ZERO) for i in (1, 2, 3))
    assert shap_oracle_all("i", f, n, D, D) == expect


def test_local_is_global_under_a_one_row_dataset():
    # a one-row dataset is a distribution side with one support word, x
    rng = rng_for(62)
    for _ in range(6):
        n = rng.randint(1, 4)
        f = rand_wa(rng, rng.randint(1, 3), B)
        x = rand_word(rng, B, n)
        contexts = {"b": rand_word(rng, B, n),
                    "i": rand_hmm(rng, rng.randint(1, 2), B),
                    "c": rand_ind(rng, n)}
        for variant, ctx in contexts.items():
            assert shap_oracle_all(variant, f, n, ctx, Dataset([x])) == \
                shap_oracle_all(variant, f, n, ctx, x), variant


def test_interventional_under_a_one_row_dataset_is_baseline():
    rng = rng_for(63)
    for _ in range(6):
        n = rng.randint(1, 4)
        f = rand_wa(rng, rng.randint(1, 3), B)
        x, ref = rand_word(rng, B, n), rand_word(rng, B, n)
        for i in range(1, n + 1):
            assert shap_oracle_local("i", f, x, i, Dataset([ref])) == \
                shap_oracle_local("b", f, x, i, ref)


def textbook_shap(variant, f, i, n, inner, outer):
    """phi_i by its definition: per input x, per S without i, per word z."""
    def support(side):
        if isinstance(side, str):
            return [(side, ONE)]
        return [(z, p) for z in map("".join, product(symbols(side),
                                                     repeat=n))
                if (p := dist_prob(side, z)) != 0]

    inputs, words_z = support(outer), support(inner)
    evaluate = lru_cache(maxsize=None)(lambda z: eval_model(f, z))

    def v(x, S):
        if variant != "c":
            return sum((p * evaluate("".join(x[j] if j + 1 in S else z[j]
                                             for j in range(n)))
                        for z, p in words_z), ZERO)
        match = [(z, p) for z, p in words_z
                 if all(z[j - 1] == x[j - 1] for j in S)]
        mass = sum((p for _, p in match), ZERO)
        if mass == 0:
            raise ZeroProbabilityEvent(S, "")
        return sum((p * evaluate(z) for z, p in match), ZERO) / mass

    others = [j for j in range(1, n + 1) if j != i]
    return sum((px * Rat(factorial(k) * factorial(n - k - 1), factorial(n))
                * (v(x, {*S, i}) - v(x, set(S)))
                for x, px in inputs for k in range(n)
                for S in combinations(others, k)), ZERO)


def _outcome(run):
    try:
        return run()
    except ZeroProbabilityEvent:
        return "zero probability"


def test_one_table_equals_the_textbook_loop():
    # every side shape, variant, model kind and distribution kind; the
    # oracle raises exactly where the definition conditions on mass 0
    rng = rng_for(65)
    models = (lambda n: rand_wa(rng, rng.randint(1, 3), B),
              lambda n: rand_dt(rng, n), lambda n: rand_linear(rng, n))
    dists = (lambda n: rand_hmm(rng, rng.randint(1, 2), B),
             lambda n: rand_dataset(rng, n, rng.randint(1, 4)),
             lambda n: rand_nb(rng, n), lambda n: rand_ind(rng, n))
    zero = 0
    for idx in range(60):
        n = 1 + idx % 4
        f = models[idx % 3](n)
        D, E = dists[idx % 4](n), dists[(idx + 1) % 4](n)
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        inner, outer = ((w_ref, w), (D, w), (w_ref, D), (D, D),
                        (E, D))[idx // 4 % 5]
        variant = "bic"[idx // 20]
        got = _outcome(lambda: shap_oracle_all(variant, f, n, inner, outer))
        want = tuple(_outcome(lambda: textbook_shap(variant, f, i, n, inner,
                                                    outer))
                     for i in range(1, n + 1))
        if got == "zero probability":
            zero += 1
            assert set(want) == {got}, idx
        else:
            assert got == want, idx
    assert 0 < zero < 30, zero


def test_many_queries_answer_one_call_each():
    # every variant, side shape and feature subset, one object on both
    # sides and two equal objects; a conditional query under an empirical
    # distribution may condition on mass 0, and then the one pass raises
    # the event that query's own call raises
    rng = rng_for(68)
    raised = 0
    for idx in range(40):
        n = 1 + idx % 4
        f = rand_wa(rng, rng.randint(1, 3), B)
        D = rand_dataset(rng, n, rng.randint(1, 3))
        twin = Dataset(list(D.rows))  # equal to D, another object
        E = rand_hmm(rng, rng.randint(1, 2), B)
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        sides = [(w_ref, w), (D, w), (w_ref, D), (D, D), (twin, D), (E, D),
                 (D, E), (E, w)]
        queries = [(rng.choice("bi"), *rng.choice(sides))
                   for _ in range(rng.randint(0, 4))]
        queries.insert(rng.randint(0, len(queries)),
                       ("c", *rng.choice(sides)))
        features = (None, tuple(rng.sample(range(1, n + 1),
                                           rng.randint(1, n))))[idx % 2]
        try:
            want = [shap_oracle_all(variant, f, n, inner, outer, features)
                    for variant, inner, outer in queries]
        except ZeroProbabilityEvent as event:
            raised += 1
            with pytest.raises(ZeroProbabilityEvent) as got:
                shap_oracle_many(f, n, queries, features)
            assert (got.value.coalition, got.value.assignment) == \
                (event.coalition, event.assignment), idx
        else:
            assert shap_oracle_many(f, n, queries, features) == want, idx
    assert 0 < raised < 20, raised
    assert shap_oracle_many(and_wa(), 2, []) == []


def test_two_distribution_query_makes_one_product_per_letter_pair(
        fraction_ops):
    # V(S) sums the 2^|S| x 2^(n-|S|) pairs of marginal letters once:
    # about 2^n 2^n products, where a Shapley loop per input word makes 8^n
    rng = rng_for(67)
    f = rand_wa(rng, 3, B)
    D, E = rand_hmm(rng, 2, B), rand_hmm(rng, 2, B)
    n = 6
    fraction_ops.take()
    shap_oracle_global("i", f, 1, n, D, E)
    assert fraction_ops.take()[0] <= 3 * 2 ** n * 2 ** n


def test_marginals_are_summed_out_one_position_at_a_time(fraction_ops):
    # over the 2^n coalitions the marginals of a full-support side cost at
    # most (|Sigma|+1)^(n+1) sums in all; one marginal per coalition from
    # the whole support, 2^n |Sigma|^n, makes 286,720 here
    rng = rng_for(69)
    n = 9
    f, D = rand_dt(rng, n, max_depth=4), rand_hmm(rng, 2, B)
    x = rand_word(rng, B, n)
    fraction_ops.take()
    shap_oracle_many(f, n, [("i", D, x)])
    assert fraction_ops.take()[1] <= 3 ** (n + 1)


def test_shapley_sums_skip_zero_values_differences_and_sums(fraction_ops):
    # a 0/1 tree's tables hold ZERO values: no difference subtracts one,
    # and no difference equal to 0 is added
    rng = rng_for(75)
    n = 5
    f, D = rand_01_dt(rng, n, max_depth=3), rand_hmm(rng, 2, B)
    x, ref = rand_word(rng, B, n), rand_word(rng, B, n)
    queries = [("b", ref, x), ("i", D, x), ("b", ref, D)]
    tables = [[values[k] for _, values in oracle._values(f, n, queries)]
              for k in range(len(queries))]
    assert all(ZERO in table for table in tables[:2])
    fraction_ops.take()
    got = shap_oracle_many(f, n, queries)
    assert fraction_ops.trivial == 0
    fraction_ops.take()
    assert got == [tuple(textbook_shap(variant, f, i, n, inner, outer)
                         for i in range(1, n + 1))
                   for variant, inner, outer in queries]


def test_a_marginal_summed_to_1_is_the_shared_ONE(fraction_ops):
    # the outer side's marginal on the empty coalition sums to 1: as the
    # shared ONE it is a factor no product is made by
    f = rand_wa(rng_for(2), 3, B)
    D = rand_hmm(rng_for(3), 2, B)
    fraction_ops.take()
    shap_oracle_all("i", f, 3, D, "011")
    shap_oracle_all("b", f, 3, "110", D)
    assert fraction_ops.trivial == 0


@pytest.mark.parametrize("bias", [ONE, -ONE])
def test_a_sigmoid_output_of_1_or_0_is_ONE_or_ZERO(bias):
    # every output of this sigmoid network is exactly 1.0 (or 0.0) in
    # binary-64, which the oracle reads as the shared ONE (or ZERO): every
    # Shapley value it answers is ZERO by identity
    n = 3
    f = SigmoidNet([ZERO] * n, bias, 1e6)
    out = ONE if bias > 0 else ZERO
    assert all(eval_model(f, x) is out for x in words(n))
    D = uniform_hmm(B)
    for variant, inner, outer in (("b", "010", "111"), ("i", D, "101"),
                                  ("c", D, "101"), ("b", "010", D)):
        phis = shap_oracle_all(variant, f, n, inner, outer)
        assert all(phi is ZERO for phi in phis), variant
    assert value_fn("b", f, "111", {1}, "000") is out


def _logistic(net, x):
    """A numerically stable float logistic of the network at x, from the
    exact weighted sum: an independent check of its binary-64 output."""
    z = sum((w for w, sym in zip(net.weights, x) if sym == "1"), net.bias)
    try:
        u = float(z)
    except OverflowError:
        u = math.inf if z > 0 else -math.inf
    u = net.gain * u if net.gain else 0.0
    if u >= 0:
        return 1 / (1 + math.exp(-u))
    e = math.exp(u)
    return e / (1 + e)


def test_sigmoid_outputs_are_the_rationals_of_their_floats():
    # gadget networks (a steep gain), seeded rational weights under a
    # shallow, a negative and a steep gain, and weighted sums beyond the
    # logistic's and binary-64's range: every output is a Rat that a
    # binary-64 float equals, in [0, 1] and at the logistic's value
    rng = rng_for(73)
    nets = [wmg_to_sigmoid(rand_wmg(rng, 4), i).model for i in (1, 2, 3)]
    nets += [SigmoidNet([rand_rat(rng) for _ in range(4)], rand_rat(rng), gain)
             for gain in (1.0, -3.5, 1e6, 0)]
    nets += [SigmoidNet(["-1000", "1", "0", "2"], ZERO, 1.0),
             SigmoidNet(["1" + "0" * 400, "1", "-1", "1/3"], ONE, 1.0),
             SigmoidNet(["-1" + "0" * 400, "1", "-1", "1/3"], ONE, 0.5)]
    for net in nets:
        for x in words(4):
            y = eval_model(net, x)
            assert type(y) is Rat and Rat(float(y)) == y, (net, x)
            assert 0 <= y <= 1 and y is exact(y), (net, x)
            assert math.isclose(float(y), _logistic(net, x), rel_tol=1e-9,
                                abs_tol=1e-300), (net, x)


def test_a_zero_mass_coalition_named_is_inclusion_minimal():
    # the conditional oracle raises the event of the first coalition it
    # meets with mass 0; every proper subset of it has mass > 0, so its
    # coalition value answers
    rng = rng_for(5)
    raised = 0
    for _ in range(80):
        n = rng.randint(2, 5)
        f = rand_wa(rng, rng.randint(1, 3), B)
        D = rand_dataset(rng, n, rng.randint(1, 3))
        x = rand_word(rng, B, n)
        try:
            shap_oracle_all("c", f, n, D, x)
        except ZeroProbabilityEvent as event:
            raised += 1
            S = sorted(event.coalition)
            for k in range(len(S)):
                for T in combinations(S, k):
                    value_fn("c", f, x, set(T), D)
    assert 20 < raised < 80, raised


def test_a_dataset_probability_of_1_is_ONE(fraction_ops):
    # both rows of D are "01": P("01") is the shared ONE, so a query under
    # D makes no product by 1
    f = rand_wa(rng_for(4), 3, B)
    D = Dataset(["01", "01"])
    assert D.prob("01") is ONE
    fraction_ops.take()
    shap_oracle_local("i", f, "11", 1, D)
    shap_oracle_local("c", f, "01", 1, D)
    assert fraction_ops.trivial == 0


def test_a_zero_factor_ends_a_markov_product(fraction_ops):
    # a transition of probability 0 makes the word's probability ZERO and
    # no later factor is multiplied by it
    M = MarkovDist({"0": "1/2", "1": "1/2"},
                   {"0": {"0": "1/4", "1": "3/4"}, "1": {"1": "1"}}, B)
    fraction_ops.take()
    got = [M.prob(w) for w in ("0000", "0101", "1100", "1111")]
    assert got == [Rat(1, 128), ZERO, ZERO, Rat(1, 2)]
    assert (fraction_ops.trivial, fraction_ops.take()[0]) == (0, 4)
    shap_oracle_local("i", rand_wa(rng_for(6), 3, B), "0110", 2, M)
    assert fraction_ops.trivial == 0


def test_value_fn_evaluates_its_one_coalition(monkeypatch):
    # with word sides the coalition composes one word: value_fn evaluates
    # it alone, not each of the 2^20 coalitions' words
    calls = []

    def counting(model, w):
        calls.append(w)
        return eval_model(model, w)

    monkeypatch.setattr(oracle, "eval_model", counting)
    n = 20
    x, ref = "1" * n, "10" * (n // 2)
    assert value_fn("b", and_wa(), x, set(range(2, n + 1, 2)), ref) == 1
    assert calls == ["1" * n]


def verify_queries(D, w, w_ref):
    """verify's baseline and interventional (variant, inner, outer)
    queries in ROUTES order: local, then global."""
    return [("b", w_ref, w), ("i", D, w), ("b", w_ref, D), ("i", D, D)]


def test_each_distinct_word_is_evaluated_once(monkeypatch):
    calls = Counter()

    def counting(model, w):
        calls[w] += 1
        return eval_model(model, w)

    monkeypatch.setattr(oracle, "eval_model", counting)
    f = rand_wa(rng_for(64), 3, B)
    D = uniform_hmm(B)
    for run in (lambda: shap_oracle_local("i", f, "101", 2, D),
                lambda: shap_oracle_local("c", f, "101", 2, D),
                lambda: shap_oracle_global("i", f, 2, 3, D, D),
                lambda: shap_oracle_global("b", f, 2, 3, "010", D),
                # verify's four pairs share one evaluation of each word
                lambda: shap_oracle_many(f, 3, verify_queries(D, "101",
                                                               "010"))):
        calls.clear()
        run()
        assert set(calls) == set(words(3))  # every composed word
        assert set(calls.values()) == {1}


def test_one_distribution_on_both_sides_is_enumerated_once(monkeypatch):
    f = rand_wa(rng_for(65), 3, B)
    D = rand_hmm(rng_for(66), 2, B)
    twin = hmm_from_json(hmm_to_json(D))  # the same distribution
    n = 4
    calls = []

    def counting(dist, w):
        calls.append(w)
        return dist_prob(dist, w)

    monkeypatch.setattr(oracle, "dist_prob", counting)
    want = shap_oracle_all("i", f, n, D, twin)
    assert len(calls) == 2 * 2 ** n
    calls.clear()
    assert shap_oracle_all("i", f, n, D, D) == want
    assert len(calls) == 2 ** n
    # verify's four pairs, three of them on D, share one enumeration of D
    calls.clear()
    assert shap_oracle_many(f, n, verify_queries(D, "0110", "1011"))[3] \
        == want
    assert len(calls) == 2 ** n


def test_one_distribution_on_both_sides_gives_zeros():
    # global interventional and global conditional SHAP are 0 for every
    # model and distribution (README, "What is tractable"), so the CLI's
    # zero route answers them without this enumeration; a sigmoid network
    # evaluates in binary-64 and leaves rounding noise only
    for seed, n in product(range(5), range(1, 5)):
        rng = rng_for(300 + seed)
        models = {
            "wa": rand_wa(rng, rng.randint(1, 3), B),
            "dt": rand_dt(rng, n),
            "ensemble": rand_ensemble(rng, n),
            "linear": rand_linear(rng, n),
            "rnn": wmg_to_rnnrelu(rand_wmg(rng, n)),
            "sigmoid": SigmoidNet([rand_rat(rng) for _ in range(n)],
                                  rand_rat(rng), 1.0),
        }
        dists = (rand_hmm(rng, 2, B), rand_hmmvec(rng, n, 2, B),
                 rand_dataset(rng, n, 3), rand_ind(rng, n),
                 rand_markov(rng), rand_nb(rng, n))
        for (kind, f), D, variant in product(models.items(), dists, "ic"):
            phis = shap_oracle_all(variant, f, n, D, D)
            if kind == "sigmoid":
                assert all(abs(phi) <= 1e-12 for phi in phis), phis
            else:
                assert phis == (ZERO,) * n, (kind, D, variant)


def _imports(path):
    """(module, name) of each import in a file; name "*" for a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((a.name.split(".")[-1], "*") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            whole = node.module in (None, "shapwa")  # from . import wa
            yield from ((a.name, "*") if whole
                        else (node.module.split(".")[-1], a.name)
                        for a in node.names)


def test_oracle_imports_no_pipeline_code():
    # the trust anchor shares only the scalar type and the containers
    pipeline = {"engine", "builders", "frontends", "linalg", "patterns"}
    containers = {"wa": {"NAlphabetWA"}, "hmm": {"Hmm"}}
    imports = set(_imports(Path(oracle.__file__)))
    assert {"wa", "hmm", "models", "rational"} <= {m for m, _ in imports}
    for module, name in imports:
        assert module not in pipeline, (module, name)
        assert name in containers.get(module, {name}), (module, name)


def test_guards():
    f = and_wa()
    with pytest.raises(GuardExceeded):
        shap_oracle_local("b", f, "1" * 25, 1, "0" * 25)
    with pytest.raises(GuardExceeded):
        value_fn("i", f, "1" * 30, {1}, uniform_hmm(B))
    with pytest.raises(GuardExceeded):
        dummy_check(Wmg([1] * 25, 3), 1)
    # every query is checked before any is guarded
    with pytest.raises(ValueError):
        shap_oracle_many(f, 25, [("b", "0" * 25, "1" * 25),
                                 ("b", "0" * 25, "1" * 24)])


def test_guard_bounds_the_whole_job():
    # each enumeration is 2^13 words, but the job is 2^26 pairs of
    # marginal letters
    D = uniform_hmm(B)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded):
        shap_oracle_global("i", and_wa(), 1, 13, D, D)
    assert time.perf_counter() - start < 1


def test_guard_counts_one_alphabet_for_two_distributions(monkeypatch):
    # 2^4 coalitions x 2^4 letter pairs: 8 bits, although both sides are
    # distributions over 2^4 words
    monkeypatch.setenv("SHAPWA_GUARD_BITS", "8")
    rng = rng_for(66)
    f = rand_wa(rng, 3, B)
    D, E = rand_hmm(rng, 2, B), rand_hmm(rng, 2, B)
    assert shap_oracle_all("i", f, 4, D, E) == shap_all.__wrapped__(f, 4, D, E)
    with pytest.raises(GuardExceeded):
        shap_oracle_all("i", f, 5, D, E)  # 10 bits


def test_dummy_check_honours_the_guard_setting(monkeypatch):
    # 2^11 coalitions, two values each: 12 bits
    monkeypatch.setenv("SHAPWA_GUARD_BITS", "4")
    with pytest.raises(GuardExceeded):
        dummy_check(Wmg([1] * 12, 3), 1)
    assert dummy_check(Wmg([0, 1, 1, 1], 1), 1)  # 4 bits: allowed


def test_dummy_check():
    assert dummy_check(Wmg([0, 1], 1), 1)       # zero power
    assert not dummy_check(Wmg([1, 1], 2), 1)   # S={2} flips
    assert dummy_check(Wmg([1, 1], 3), 1)       # quota unreachable
    assert dummy_check(Wmg([1, 1], 0), 2)       # always winning


def test_csp_brute():
    inst = CspInstance(["00", "11"], 1, B)
    w = csp_brute(inst)
    assert w in ("01", "10")
    assert csp_brute(CspInstance(["00", "11"], 0, B)) is None
    with pytest.raises(ValueError):
        CspInstance(["0", "00"], 1, B)


def test_empty_brute():
    zero = NAlphabetWA([B], [ZERO],
                       {(s,): SpMat.from_dense([[ONE]]) for s in B}, [ONE])
    assert empty_brute(zero, 3, B)
    assert not empty_brute(and_wa(), 3, B)


def test_eval_model_dispatch():
    assert eval_model(and_wa(), "11") == 1
    with pytest.raises(TypeError):
        eval_model(object(), "11")
