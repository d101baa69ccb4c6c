import time
from itertools import product

import pytest

from shapwa.hmm import uniform_hmm
from shapwa.linalg import SpMat
from shapwa.models import Dataset, IndDist
from shapwa.oracle import (CspInstance, GuardExceeded, RnnRelu, Wmg,
                           ZeroProbabilityEvent, csp_brute, dummy_check,
                           empty_brute, eval_model, hamming,
                           shap_oracle_global, shap_oracle_local, value_fn)
from shapwa.randgen import rand_ind, rand_wa, rand_word, rng_for
from shapwa.rational import Rat, ZERO, ONE
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
    for i in (1, 2, 3):
        expect = sum((Rat(1, 8) * shap_oracle_local("i", f, x, i, D)
                      for x in words(n)), ZERO)
        assert shap_oracle_global("i", f, i, n, D, D) == expect


def test_guards():
    f = and_wa()
    with pytest.raises(GuardExceeded):
        shap_oracle_local("b", f, "1" * 25, 1, "0" * 25)
    with pytest.raises(GuardExceeded):
        value_fn("i", f, "1" * 30, {1}, uniform_hmm(B))
    with pytest.raises(GuardExceeded):
        dummy_check(Wmg([1] * 25, 3), 1)


def test_guard_bounds_the_whole_job():
    # each enumeration is 2^10 words, but the job is 2^30 evaluations
    D = uniform_hmm(B)
    start = time.perf_counter()
    with pytest.raises(GuardExceeded):
        shap_oracle_global("i", and_wa(), 1, 10, D, D)
    assert time.perf_counter() - start < 1


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
