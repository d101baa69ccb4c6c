from itertools import product

import pytest

from shapwa import models, rational
from shapwa.gadgets import (csp_construct, csp_to_rnn, sat_to_ensemble,
                            shapley_weight_bound, wmg_to_rnnrelu,
                            wmg_to_sigmoid)
from shapwa.oracle import (CnfFormula, CspInstance, Wmg, csp_brute,
                           dummy_check, empty_brute, eval_model, hamming,
                           shap_oracle_all, shap_oracle_local)
from shapwa.randgen import rand_cnf, rand_csp, rand_wmg, rng_for
from shapwa.rational import Rat

B = ("0", "1")


def words(n):
    return ("".join(t) for t in product(B, repeat=n))


def phi_b(inst, feature=None):
    return shap_oracle_local("b", inst.model, inst.x,
                             feature or inst.feature, inst.x_ref)


# ---------------------------------------------------------------------------
# sigmoid gadget


def test_c_n():
    assert shapley_weight_bound(2) == 2
    assert shapley_weight_bound(3) == 6
    assert shapley_weight_bound(1) == 1


def test_sigmoid_threshold_and_dummy():
    inst = wmg_to_sigmoid(Wmg([0, 1], 1), 1)  # dummy player
    assert inst.epsilon == Rat(1, 6)
    assert float(phi_b(inst)) <= float(inst.epsilon)
    inst2 = wmg_to_sigmoid(Wmg([1, 1], 2), 1)  # not dummy
    assert float(phi_b(inst2)) > float(inst2.epsilon)


def test_sigmoid_near_threshold_game():
    # non-dummy game that defeats the looser threshold eps = 1/(1+C_N):
    # with that eps (and its matching gain) phi_b dips below it, so the
    # working construction must use a strictly smaller threshold
    import math
    from shapwa.models import SigmoidNet

    g = Wmg([4, 5], 1)
    assert not dummy_check(g, 1)
    loose_eps = 1 / 3
    loose = SigmoidNet(weights=[Rat(4), Rat(5)], bias=Rat(1, 2) - Rat(1),
                       gain=2 * math.log((1 - loose_eps) / loose_eps))
    phi_loose = shap_oracle_local("b", loose, "11", 1, "00")
    assert phi_loose <= loose_eps  # the loose threshold misclassifies

    inst = wmg_to_sigmoid(g, 1)
    assert float(phi_b(inst)) > float(inst.epsilon)
    assert inst.metadata["epsilon_variant_loose"] == "1/3"


def test_sigmoid_exhaustive_small():
    for powers in product(range(4), repeat=2):
        total = sum(powers)
        for q in range(1, total + 2):
            g = Wmg(list(powers), q)
            for i in (1, 2):
                inst = wmg_to_sigmoid(g, i)
                phi = float(phi_b(inst))
                assert (phi <= float(inst.epsilon) + 1e-9) == \
                    dummy_check(g, i)


def test_sigmoid_errors():
    with pytest.raises(IndexError):
        wmg_to_sigmoid(Wmg([1, 1], 1), 3)


# ---------------------------------------------------------------------------
# ReLU RNN gadget


def test_rnn_simulates_game():
    rng = rng_for(70)
    for _ in range(10):
        g = rand_wmg(rng, rng.randint(1, 6))
        f = wmg_to_rnnrelu(g)
        for x in words(g.n):
            S = {i + 1 for i, s in enumerate(x) if s == "1"}
            assert f.evaluate(x) == g.value(S)


def test_rnn_makes_no_sum_with_0_and_no_product_by_1(fraction_ops,
                                                     monkeypatch):
    # the affine sums are `rational.dot`s, which make no Fraction operation;
    # counting the pairs they sum shows that the sums are made
    g = Wmg([2, 1, 1], 2)
    f = wmg_to_rnnrelu(g)
    summed = []
    monkeypatch.setattr(models, "dot",
                        lambda pairs: summed.append(len(pairs))
                        or rational.dot(pairs))
    fraction_ops.take()
    for x in words(g.n):
        S = {i + 1 for i, s in enumerate(x) if s == "1"}
        assert f.evaluate(x) == g.value(S)
    assert fraction_ops.trivial == 0
    assert sum(summed) > 0


def test_rnn_examples():
    g = Wmg([1, 1, 1], 2)
    f = wmg_to_rnnrelu(g)
    assert f.evaluate("110") == 1
    assert f.evaluate("000") == (1 if g.quota <= 0 else 0)


def test_rnn_dummy_iff_zero():
    rng = rng_for(71)
    for _ in range(10):
        g = rand_wmg(rng, rng.randint(1, 4))
        f = wmg_to_rnnrelu(g)
        phis = shap_oracle_all("b", f, g.n, "0" * g.n, "1" * g.n)
        for i, phi in enumerate(phis, 1):
            assert (phi == 0) == dummy_check(g, i)


# ---------------------------------------------------------------------------
# SAT gadget


def test_sat_satisfiable_formula():
    inst = sat_to_ensemble(CnfFormula(1, [[1]]))
    assert phi_b(inst) > 0


def test_sat_unsatisfiable_formula():
    inst = sat_to_ensemble(CnfFormula(1, [[1], [-1]]))
    assert phi_b(inst) == 0
    # f is identically zero by the majority construction
    for x in words(2):
        assert eval_model(inst.model, x) == 0


def test_sat_extra_feature_gates_output():
    formula = CnfFormula(2, [[1, 2], [-1]])
    inst = sat_to_ensemble(formula)
    for x in words(2):
        assert eval_model(inst.model, x + "0") == 0
        assert eval_model(inst.model, x + "1") == \
            (1 if formula.satisfied(x) else 0)


def test_sat_random_equivalence():
    rng = rng_for(72)
    for _ in range(20):
        formula = rand_cnf(rng, rng.randint(2, 4), rng.randint(1, 5))
        inst = sat_to_ensemble(formula)
        assert (phi_b(inst) > 0) == formula.satisfiable()


# ---------------------------------------------------------------------------
# CSP gadget


def cell_distance(cell, w_prime):
    """The cell's distance neuron, hidden index n-1."""
    return cell.hidden(w_prime)[len(w_prime) - 1]


def test_cell_examples():
    cell = csp_construct("11", 1, B)
    assert cell_distance(cell, "11") == 0
    assert cell_distance(cell, "00") == 1  # ReLU(2 - 1)


def test_cell_exhaustive():
    rng = rng_for(73)
    for _ in range(5):
        n = rng.randint(1, 4)
        w = "".join(rng.choice(B) for _ in range(n))
        k = rng.randint(0, n)
        cell = csp_construct(w, k, B)
        for wp in words(n):
            assert cell_distance(cell, wp) == max(0, hamming(w, wp) - k)
    with pytest.raises(ValueError):
        csp_construct("11", 3, B)


def test_cell_prefix_property():
    # after s steps the distance neuron's predecessor chain carries
    # d_H(w[:s], w'[:s]) in neuron s-1
    w = "0110"
    cell = csp_construct(w, 0, B)
    for wp in words(4):
        h = cell.hidden(wp)
        assert h[3] == hamming(w, wp)


def test_csp_to_rnn_examples():
    inst = CspInstance(["00", "11"], 1, B)
    f = csp_to_rnn(inst)
    assert f.evaluate("01") == 1
    assert empty_brute(csp_to_rnn(CspInstance(["00", "11"], 0, B)), 2, B)
    f_all = csp_to_rnn(CspInstance(["010"], 3, B))
    for wp in words(3):
        assert f_all.evaluate(wp) == 1


def test_csp_construction_makes_no_fraction_sum(fraction_ops):
    # the cell's -k is written, not subtracted from its 0 entry
    rng = rng_for(75)
    insts = [rand_csp(rng, rng.randint(1, 3), rng.randint(1, 4))
             for _ in range(5)] + [CspInstance(["0110"], 0, B)]
    fraction_ops.take()
    for inst in insts:
        csp_to_rnn(inst)
        for k in range(inst.n + 1):
            csp_construct(inst.strings[0], k, inst.domain)
    assert fraction_ops.take()[1] == 0


def test_csp_to_rnn_matches_brute():
    rng = rng_for(74)
    for _ in range(15):
        inst = rand_csp(rng, rng.randint(1, 3), rng.randint(1, 4))
        f = csp_to_rnn(inst)
        assert empty_brute(f, inst.n, inst.domain) == \
            (csp_brute(inst) is None)
        for wp in words(inst.n):
            expect = 1 if all(hamming(w, wp) <= inst.radius
                              for w in inst.strings) else 0
            assert f.evaluate(wp) == expect
