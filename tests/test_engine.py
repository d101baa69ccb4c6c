import ast
import tracemalloc
from itertools import count, product
from math import factorial
from pathlib import Path

import pytest

from shapwa import cli, engine
from shapwa.builders import (build_A_wi, build_point_hmm, build_T_w,
                             build_T_wi, pipeline_shap)
from shapwa.engine import (glo_b_shap, glo_i_shap, loc_b_shap, loc_i_shap,
                           shap, shap_all)
from shapwa.frontends import (dt_to_wa, emp_to_hmmvec, ensemble_reg_to_wa,
                              hmmvec_to_hmm, ind_to_hmmvec, linear_to_wa,
                              nb_to_hmmvec)
from shapwa.hmm import Hmm, hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.models import Dataset, TreeEnsemble
from shapwa.oracle import (ZeroProbabilityEvent, shap_oracle_all,
                           shap_oracle_global, shap_oracle_local,
                           shap_oracle_many, value_fn)
from shapwa.randgen import (rand_01_dt, rand_dataset, rand_dt, rand_ensemble,
                            rand_hmm, rand_hmmvec, rand_ind, rand_linear,
                            rand_nb, rand_rat, rand_wa, rand_word, rng_for)
from shapwa.rational import Rat, ZERO, ONE
from shapwa.wa import (NAlphabetWA, add, eval_wa, pi1, project, sub,
                       wa_from_json, wa_to_json)

B = ("0", "1")


def and_wa():
    """f(w) = 1 iff every symbol is '1'."""
    trans = {("1",): SpMat.from_dense([[ONE]])}
    return NAlphabetWA([B], [ONE], trans, [ONE])


def constant_wa(c):
    trans = {(s,): SpMat.from_dense([[ONE]]) for s in B}
    return NAlphabetWA([B], [Rat(c)], trans, [ONE])


def words(n):
    return ("".join(t) for t in product(B, repeat=n))


def test_constant_model_is_null():
    f = constant_wa(Rat(5, 3))
    D = uniform_hmm(B)
    for i in (1, 2):
        assert loc_i_shap(f, "01", i, D) == 0
        assert loc_b_shap(f, "01", i, "10") == 0
        assert glo_i_shap(f, i, 2, D) == 0
        assert glo_b_shap(f, i, 2, "10", D) == 0


def test_and_local_values():
    f = and_wa()
    D = uniform_hmm(B)
    assert loc_i_shap(f, "11", 1, D) == Rat(3, 8)
    assert loc_i_shap(f, "11", 2, D) == Rat(3, 8)  # symmetry
    assert loc_b_shap(f, "11", 1, "00") == Rat(1, 2)
    assert loc_b_shap(f, "11", 2, "00") == Rat(1, 2)


def test_and_global_is_zero():
    # local interventional values over the four inputs are
    # {3/8, 1/8, -3/8, -1/8}; their uniform average vanishes
    f = and_wa()
    D = uniform_hmm(B)
    assert glo_i_shap(f, 1, 2, D) == 0
    vals = sorted(shap_oracle_local("i", f, x, 1, D) for x in words(2))
    assert vals == [Rat(-3, 8), Rat(-1, 8), Rat(1, 8), Rat(3, 8)]


def test_identical_input_and_reference():
    f = rand_wa(rng_for(30), 3, B)
    for i in (1, 2, 3):
        assert loc_b_shap(f, "010", i, "010") == 0


def test_baseline_as_interventional_point():
    f = rand_wa(rng_for(31), 3, B)
    w, w_ref = "011", "101"
    for i in (1, 2, 3):
        assert loc_i_shap(f, w, i, build_point_hmm(w_ref, B)) == \
            loc_b_shap(f, w, i, w_ref)


def test_global_baseline_at_point_is_local():
    f = rand_wa(rng_for(32), 2, B)
    x0, w_ref = "10", "01"
    for i in (1, 2):
        assert glo_b_shap(f, i, 2, w_ref, build_point_hmm(x0, B)) == \
            loc_b_shap(f, x0, i, w_ref)


def test_engine_matches_oracle_random():
    rng = rng_for(33)
    for _ in range(10):
        f = rand_wa(rng, rng.randint(2, 4), B)
        D = rand_hmm(rng, rng.randint(1, 3), B)
        n = rng.randint(2, 4)
        w = rand_word(rng, B, n)
        w_ref = rand_word(rng, B, n)
        i = rng.randint(1, n)
        assert loc_i_shap(f, w, i, D) == shap_oracle_local("i", f, w, i, D)
        assert loc_b_shap(f, w, i, w_ref) == \
            shap_oracle_local("b", f, w, i, w_ref)
        assert glo_i_shap(f, i, n, D) == \
            shap_oracle_global("i", f, i, n, D, D)
        assert glo_b_shap(f, i, n, w_ref, D) == \
            shap_oracle_global("b", f, i, n, w_ref, D)


def sides(D, w, w_ref):
    """(inner, outer) of loc_i, loc_b, glo_i and glo_b.  glo_i's inner side
    is D's equal but distinct copy, so it runs the two-HMM pass that one
    object on both sides skips."""
    return ((D, w), (w_ref, w), (Hmm(D.wa), D), (w_ref, D))


def test_shap_all_matches_builder_pipeline():
    rng = rng_for(35)
    for idx, (n, density) in enumerate(product(range(1, 7), (0.5, 1.0))):
        f = rand_wa(rng, 1 + idx % 4, B, density=density)
        D = rand_hmm(rng, 1 + idx % 3, B)
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        for inner, outer in sides(D, w, w_ref):
            phis = shap_all(f, n, inner, outer)
            assert isinstance(phis, tuple)
            assert phis == tuple(pipeline_shap(f, i, n, inner, outer)
                                 for i in range(1, n + 1)), (idx, inner)


def five_sides(rng, alphabet, n):
    """(inner, outer) pairs (D, w), (r, w), (r, D), (D, E) and (D, D); only
    the last is one object twice (r != w, as equal one-letter words are)."""
    D, E = (rand_hmm(rng, rng.randint(1, 3), alphabet) for _ in range(2))
    w = r = rand_word(rng, alphabet, n)
    while r == w:
        r = rand_word(rng, alphabet, n)
    return ((D, w), (r, w), (r, D), (D, E), (D, D))


def feature_lists(rng, n):
    """The empty list, one feature, a shuffled subset, all n features in
    reverse and all n in order."""
    some = rng.sample(range(1, n + 1), rng.randint(1, n))
    return [(), (rng.randint(1, n),), some, tuple(range(n, 0, -1)),
            range(1, n + 1)]


def outcome(call):
    """call()'s value, or ZeroProbabilityEvent if it raised one."""
    try:
        return call()
    except ZeroProbabilityEvent as e:
        return type(e)


def test_subset_answers_equal_the_whole_answer():
    # engine.shap and oracle.shap_oracle_all answer the features asked,
    # in their order, as the entries of the all-features tuple; the
    # oracle's subsets only up to n = 4, where its table is small
    rng = rng_for(62)
    for alphabet, n in product((B, ("a", "b", "c")), range(1, 6)):
        f = rand_wa(rng, rng.randint(1, 3), alphabet)
        for inner, outer in five_sides(rng, alphabet, n):
            whole = shap(f, n, inner, outer)
            assert whole == shap_oracle_all("b", f, n, inner, outer)
            oracle = {v: outcome(lambda: shap_oracle_all(v, f, n, inner,
                                                         outer))
                      for v in ("bic" if n < 5 else "")}
            for features in feature_lists(rng, n):
                want = tuple(whole[i - 1] for i in features)
                assert shap(f, n, inner, outer, features) == want, \
                    (alphabet, n, features)
                for v, all_n in oracle.items():
                    got = outcome(lambda: shap_oracle_all(
                        v, f, n, inner, outer, features))
                    assert got == (all_n if isinstance(all_n, type) else
                                   tuple(all_n[i - 1] for i in features)), \
                        (alphabet, n, v, features)


def count_products(monkeypatch):
    """{"vecmat": calls, "matvec": calls, "pairs": calls} from now on: the
    vector products of SpMat, and the pairs of vectors the engine dots into
    its phi values."""
    calls = {"vecmat": 0, "matvec": 0, "pairs": 0}
    for name in ("vecmat", "matvec"):
        def counted(self, *args, name=name, real=getattr(SpMat, name)):
            calls[name] += 1
            return real(self, *args)
        monkeypatch.setattr(SpMat, name, counted)

    def pairs(u, v, real=engine.sparse_pairs):
        calls["pairs"] += 1
        return real(u, v)
    monkeypatch.setattr(engine, "sparse_pairs", pairs)
    return calls


NONE = {"vecmat": 0, "matvec": 0, "pairs": 0}


def pass_products(players, features):
    """{"vecmat": calls, "matvec": calls, "pairs": calls} of the pass for
    these features, players[j - 1] telling whether position j is a player:
    F runs to the last player asked and B from n down past the first.  At
    position j each vector costs two products at a player and one at a null
    position, but the one a player's step drops.  F holds one vector per
    player before j, plus one, and so does B above the last player asked,
    per player after j; there B is folded into W, which holds one vector
    per player it has still to pass, the one at hand included.  The phi of
    a player i asked dots one pair of vectors per player before i, plus
    one."""
    asked = [i for i in features if players[i - 1]]

    def cost(positions):
        total = passed = 0
        for j in positions:
            total += (passed + 1) * (1 + players[j - 1])
            passed += players[j - 1]
        return total

    n = len(players)
    first, last = min(asked, default=n), max(asked, default=0)
    folded = sum(sum(players[:j - 1]) * (1 + players[j - 1])
                 for j in range(first + 1, last + 1))
    # asked all n, the efficiency check carries one vector from the last
    # player to n
    check = n - last if asked and len(set(features)) == n else 0
    return {"vecmat": cost(range(1, last + 1)) + check,
            "matvec": cost(range(n, max(first, last), -1)) + folded,
            "pairs": sum(sum(players[:i - 1]) + 1 for i in set(asked))}


def test_one_feature_runs_only_the_products_it_needs(monkeypatch):
    # F to the last player asked, B from n down past the first, folded from
    # the last player asked, so one feature makes the products of the
    # unfolded pass; a position where two words agree is null, any other
    # position of these sides a player; one object twice runs none
    rng = rng_for(63)
    for n in (1, 2, 7):
        f = rand_wa(rng, 3, B)
        *pairs, (D, _) = five_sides(rng, B, n)
        for inner, outer in pairs:
            words = isinstance(inner, str) and isinstance(outer, str)
            players = [not (words and inner[j] == outer[j])
                       for j in range(n)]
            if all(players):
                assert pass_products(players, range(1, n + 1)) == \
                    {"vecmat": n * (n + 1), "matvec": n * (n - 1),
                     "pairs": n * (n + 1) // 2}
            calls = count_products(monkeypatch)
            shap_all.__wrapped__(f, n, inner, outer)
            assert calls == pass_products(players, range(1, n + 1))
            for i in range(1, n + 1):
                calls = count_products(monkeypatch)
                shap(f, n, inner, outer, (i,))
                assert calls == pass_products(players, (i,)), (n, i)
                if all(players):
                    assert calls == {"vecmat": i * (i + 1),
                                     "matvec": (n - i) * (n - i + 1),
                                     "pairs": i}, (n, i)
            monkeypatch.undo()
        calls = count_products(monkeypatch)
        assert shap(f, n, D, D, (n,)) == (0,)
        assert calls == NONE
        monkeypatch.undo()


def expectation(f, n, side):
    """E f(x) over the words x of length n that a side draws."""
    if isinstance(side, str):
        return eval_wa(f, (side,))
    return sum(side.prefix_prob(x) * eval_wa(f, (x,)) for x in words(n))


def test_the_values_of_all_features_sum_to_v_n_minus_v_0():
    # efficiency, which every all-features pass checks: the values sum to
    # v(N) - v(0) = E_outer f - E_inner f, with and without null positions;
    # a reference that differs from the input only at position 1 leaves
    # n - 1 null positions after the last player
    rng = rng_for(91)
    for n in range(1, 7):
        f = rand_wa(rng, 3, B)
        pairs = list(five_sides(rng, B, n)[:4])
        w = pairs[0][1]
        pairs.append(("10"[int(w[0])] + w[1:], w))
        for inner, outer in pairs:
            phis = shap(f, n, inner, outer)
            assert sum(phis) == (expectation(f, n, outer)
                                 - expectation(f, n, inner)), (n, inner)


def test_identities_beyond_the_oracles_guard():
    # at n = 24, past the oracle's guard, the engine checks itself: it is
    # linear in each side, a distribution being the mean of its rows'
    # point distributions, and additive in the model
    rng = rng_for(93)
    n = 24
    f, g = rand_wa(rng, 3, B, density=1.0), rand_wa(rng, 2, B, density=1.0)
    data = rand_dataset(rng, n, 3)
    D = hmmvec_to_hmm(emp_to_hmmvec(data))
    w, r = rand_word(rng, B, n), rand_word(rng, B, n)

    def mean(phis_at):
        # the sum over the distinct rows x of p(x) phis_at(x), per feature
        weighted = [[data.prob(x) * phi for phi in phis_at(x)]
                    for x in set(data.rows)]
        return tuple(sum(col, ZERO) for col in zip(*weighted))

    assert any(shap(f, n, D, w))
    assert shap(f, n, D, w) == mean(lambda x: shap(f, n, x, w))
    assert shap(f, n, r, D) == mean(lambda x: shap(f, n, r, x))
    assert shap(add(f, g), n, D, w) == tuple(
        a + b for a, b in zip(shap(f, n, D, w), shap(g, n, D, w)))


def test_engine_equals_builder_pipeline_at_n_48():
    # the paper's pipeline shares no pass code with the engine; at n = 48
    # the folded backward vectors make m(m+1)/2 = 1,176 dot pairs where the
    # unfolded sum made about m^3/6, 8x as many
    rng = rng_for(48)
    n = 48
    f, D = rand_wa(rng, 4, B, density=1.0), rand_hmm(rng, 2, B)
    w, r = rand_word(rng, B, n), rand_word(rng, B, n)
    for inner, outer in ((D, w), (r, D)):
        phis = shap(f, n, inner, outer)
        for i in (1, 24, 48):
            assert phis[i - 1] == pipeline_shap(f, i, n, inner, outer), \
                (inner, i)


def compiled_pairs(rng, n):
    """The compiled (model, distribution) pairs dt/nb, with a 0/1 tree and
    with a tree of rational leaves, ens-r/ind and lin/emp over n features,
    read back through the file codecs, as `shap` reads them, so every 0 and
    1 in them is the shared ZERO or ONE."""
    def wa(model):
        return wa_from_json(wa_to_json(model))

    def hmm(vec):
        return hmm_from_json(hmm_to_json(hmmvec_to_hmm(vec)))

    return [(wa(dt_to_wa(tree(rng, n, B, 3))), hmm(nb_to_hmmvec(
                rand_nb(rng, n)))) for tree in (rand_01_dt, rand_dt)] + [
            (wa(ensemble_reg_to_wa(rand_ensemble(rng, n))), hmm(ind_to_hmmvec(
                rand_ind(rng, n)))),
            (wa(linear_to_wa(rand_linear(rng, n))), hmm(emp_to_hmmvec(
                rand_dataset(rng, n, 4))))]


def test_every_engine_value_is_a_rat():
    # an int weight times the shared ONE is the int, and an int divided by
    # the int m! a float: every value, of every feature set, must be a Rat.
    # Each value of AND at "111" against "000" is one product, ONE by the
    # weight w(2) = 2! 0!, over 3! = 6
    rng = rng_for(94)
    n = 6
    pairs = compiled_pairs(rng, n) + [
        (rand_wa(rng, 3, B), rand_hmm(rng, 2, B)) for _ in range(3)]
    queries = [(and_wa(), 3, "000", "111")]
    for f, D in pairs:
        for _ in range(3):
            x, r = rand_word(rng, B, n), rand_word(rng, B, n)
            queries += [(f, n, inner, outer)
                        for inner, outer in ((D, x), (r, x), (r, D))]
    for f, k, inner, outer in queries:
        for features in (range(1, k + 1), range(k, 0, -2),
                         *((i,) for i in range(1, k + 1))):
            phis = shap(f, k, inner, outer, features)
            assert [type(phi) for phi in phis] == [Rat] * len(phis), \
                (inner, outer, features)
    assert shap(and_wa(), 3, "000", "111") == (Rat(1, 3),) * 3


def test_values_that_break_efficiency_raise(monkeypatch):
    # wrong Shapley weights c(k) make every value wrong and their sum too:
    # an all-features pass raises, and only a pass asked fewer features,
    # which makes no check, answers
    rng = rng_for(92)
    f, D = rand_wa(rng, 3, B, density=1.0), rand_hmm(rng, 2, B)
    want = shap(f, 4, D, "0110")
    monkeypatch.setattr(engine, "factorial", lambda k: factorial(k) + 1)
    with pytest.raises(engine.EngineError, match="v\\(N\\) - v\\(0\\)"):
        shap(f, 4, D, "0110")
    with pytest.raises(engine.EngineError):
        shap(f, 4, D, "0110", (4, 3, 2, 1, 1))
    assert shap(f, 4, D, "0110", (1, 2, 3)) != want[:3]


def test_two_distribution_global_query():
    # inputs ~ E, replaced features ~ D: no public wrapper runs this
    # two-HMM pass any more, so shap_all is checked on it directly
    rng = rng_for(43)
    nonzero = 0
    for idx in range(8):
        n = rng.randint(1, 4)
        f = rand_wa(rng, rng.randint(1, 3), B)
        D, E = (rand_hmm(rng, rng.randint(1, 3), B) for _ in range(2))
        phis = shap_all.__wrapped__(f, n, D, E)
        assert phis == shap_oracle_all("i", f, n, D, E), idx
        assert phis == tuple(pipeline_shap(f, i, n, D, E)
                             for i in range(1, n + 1)), idx
        nonzero += sum(1 for phi in phis if phi)
    assert nonzero > 0


def test_shap_all_matches_builder_pipeline_under_compiled_hmmvecs():
    # hmmvec_to_hmm's chain reaches one layer of its states per position
    rng = rng_for(40)
    for n in range(1, 7):
        f = rand_wa(rng, 1 + n % 3, B)
        D = hmmvec_to_hmm(rand_hmmvec(rng, n, 1 + n % 2, B, permute=True))
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        for inner, outer in sides(D, w, w_ref):
            assert shap_all(f, n, inner, outer) == tuple(
                pipeline_shap(f, i, n, inner, outer)
                for i in range(1, n + 1)), (n, inner)


def dead_block_case():
    """(f, add(f, dead), n, sides): dead is 50 states that alpha never
    enters but beta weighs."""
    rng = rng_for(41)
    n = 4
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    block = rand_wa(rng, 50, B, density=0.1)
    dead = NAlphabetWA([B], [ZERO] * 50, block.transitions, block.beta)
    assert any(dead.beta)
    w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
    return f, add(f, dead), n, sides(D, w, w_ref)


def cost_with_and_without_dead_block(counted):
    """[(cost of f, cost of add(f, dead))] per side, counted() reading
    the work done since the last call."""
    f, with_dead, n, cases = dead_block_case()
    costs = []
    for inner, outer in cases:
        counted()
        want = shap_all.__wrapped__(f, n, inner, outer)
        cost = counted()
        assert shap_all.__wrapped__(with_dead, n, inner, outer) == want
        costs.append((cost, counted()))
    return costs


def test_unreachable_states_cost_nothing(monkeypatch):
    read = []
    for name in ("vecmat", "matvec"):
        def counted(self, v, *rest, product=getattr(SpMat, name)):
            read.append(len(v))
            return product(self, v, *rest)
        monkeypatch.setattr(SpMat, name, counted)

    def total():
        cost = sum(read)
        del read[:]
        return cost

    for cost, dead_cost in cost_with_and_without_dead_block(total):
        assert dead_cost == cost


def test_unreachable_states_make_no_products(fraction_ops):
    # P and Q are built only at reachable joint states, and so is beta;
    # built as full Kronecker sums, the first side made 1,154 products
    # without the dead block and 6,540 with it
    costs = cost_with_and_without_dead_block(lambda: fraction_ops.take()[0])
    assert all(dead_cost == cost for cost, dead_cost in costs), costs
    assert costs[0][0] <= 1154


def test_emp_states_live_at_a_position_are_its_prefixes(fraction_ops):
    # one state per distinct row is reached at position j only as the first
    # row of a prefix of length j (6 * 6 + 1 states, where one state per
    # prefix took 121), and the counts pin the products of each pass, the
    # efficiency check's included; the two words agree at position 5, a
    # null player the loc_b pass skips.  Sums of products are
    # `rational.dot`s, in integers, so what is counted is the outer-by-inner
    # products of the rows, the one-term entries of vector products and the
    # fold's products of the end vector by each Shapley weight
    d = Dataset(["00010", "00010", "00011", "00110", "01110", "11100",
                 "11101"])
    D = hmmvec_to_hmm(emp_to_hmmvec(d))
    assert D.dim == 6 * 6 + 1
    f = rand_wa(rng_for(38), 3, B)
    counts = []
    for inner, outer in sides(D, "01101", "10011"):
        fraction_ops.take()
        shap_all.__wrapped__(f, 5, inner, outer)
        counts.append(fraction_ops.take()[0])
    assert counts == [275, 23, 1592, 257]


def compiled_dt_and_emp():
    """(f, D, x, ref): a depth-3 tree and a 4-row dataset over 6 features,
    compiled and read back through the file codecs, as `shap` reads them."""
    rng = rng_for(70)
    f = wa_from_json(wa_to_json(dt_to_wa(rand_dt(rng, 6, B, 3))))
    D = hmm_from_json(hmm_to_json(hmmvec_to_hmm(emp_to_hmmvec(
        rand_dataset(rng, 6, 4)))))
    return f, D, "011010", "110001"


def test_compiled_pair_makes_no_product_by_one_or_sum_with_zero(
        fraction_ops):
    # every entry of the compiled tree but its leaf values reads back as
    # the shared ONE, so the local interventional and baseline passes make
    # (products, sums) (279, 235) and (64, 40) when each product by 1 and
    # each sum with 0 is made.  Every sum of products is one
    # `rational.dot`, in integers, so what is left are the outer-by-inner
    # products of the rows, the one-term entries of vector products and the
    # sums of vectors: (35, 47) and (0, 3), none by 1 or with 0; their
    # efficiency checks add (0, 6) and (0, 2)
    f, D, x, ref = compiled_dt_and_emp()
    counts = []
    for inner in (D, ref):
        fraction_ops.take()
        shap(f, 6, inner, x)
        assert fraction_ops.trivial == 0
        counts.append(fraction_ops.take())
    assert counts == [(35, 53), (0, 5)]


def split_ones(A):
    """A copy of automaton A in which every other value equal to 1 is a
    fresh Rat(1), equal to the shared ONE but not ONE itself."""
    flip = count()

    def fresh(x):
        return Rat(1) if x == 1 and next(flip) % 2 else x

    trans = {key: SpMat(m.n, {i: {j: fresh(v) for j, v in row.items()}
                              for i, row in m.rows.items()})
             for key, m in A.transitions.items()}
    return NAlphabetWA(A.alphabets, [fresh(x) for x in A.alpha], trans,
                       [fresh(x) for x in A.beta])


def test_a_one_that_is_not_the_shared_one_answers_alike():
    # the kernels skip a product by ONE by identity; a 1 that is another
    # object is multiplied, and every answer is the same
    f, D, x, ref = compiled_dt_and_emp()
    f2, D2 = split_ones(f), Hmm(split_ones(D.wa))
    values = [v for m in (*f2.transitions.values(), *D2.wa.transitions.values())
              for row in m.rows.values() for v in row.values()]
    assert any(v is ONE for v in values)
    assert any(v == 1 and v is not ONE for v in values)
    E = hmm_from_json(hmm_to_json(uniform_hmm(B)))
    for variant, inner, outer in (("i", D2, x), ("b", ref, x), ("b", ref, D2),
                                  ("i", E, D2)):
        want = shap_oracle_all(variant, f2, 6, inner, outer)
        assert shap(f2, 6, inner, outer) == want, (variant, inner, outer)
        plain = [D if side is D2 else side for side in (inner, outer)]
        assert shap(f, 6, *plain) == want, (variant, inner, outer)


def test_one_side_twice_is_free_but_checked(monkeypatch, fraction_ops):
    # one object on both sides answers zeros without a product, a sum or a
    # matrix read, after the same query checks as any other call
    rng = rng_for(44)
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    read = []
    with monkeypatch.context() as m:
        for name in ("vecmat", "matvec"):
            def counted(self, v, *rest, product=getattr(SpMat, name)):
                read.append(len(v))
                return product(self, v, *rest)
            m.setattr(SpMat, name, counted)
        fraction_ops.take()
        assert shap_all.__wrapped__(f, 4, D, D) == (ZERO,) * 4
    assert (fraction_ops.take(), read) == ((0, 0), [])
    alien = uniform_hmm(("1", "a"))
    with pytest.raises(ValueError):
        shap_all.__wrapped__(f, 2, alien, alien)
    w = "011"
    with pytest.raises(ValueError):
        shap_all.__wrapped__(f, 2, w, w)  # length != n
    with pytest.raises(IndexError):
        glo_i_shap(f, 5, 4, D)
    for i in (1, 2, 3):
        assert loc_b_shap(f, w, i, w) == shap_oracle_local("b", f, w, i, w)


def test_cancelled_entries_reach_no_state(monkeypatch):
    # f reads 0 as 1 and 1 as -1: under the uniform HMM every entry of P
    # and Q sums to 0 across the symbols, so nothing is reachable after
    # position 1, P and Q store no row anywhere, every position is a null
    # player and no vector product reads a row.  The inner side is a
    # distinct copy of D, so the pass runs
    trans = {("0",): SpMat.from_dense([[ONE]]),
             ("1",): SpMat.from_dense([[-ONE]])}
    f, D = NAlphabetWA([B], [ONE], trans, [ONE]), uniform_hmm(B)
    rows = []

    def matvec(self, v, at, product=SpMat.matvec):
        rows.append(len(at))
        return product(self, v, at)

    monkeypatch.setattr(SpMat, "matvec", matvec)
    assert shap_all.__wrapped__(f, 3, Hmm(D.wa), D) == \
        shap_oracle_all("i", f, 3, D, D)
    assert rows == []


def nonzero_rat(rng):
    return rng.choice((1, -1)) * Rat(rng.randint(1, 3), rng.randint(1, 4))


def layered_wa(rng, n, agree):
    """A WA with states (j, k), k in {0, 1}, at index 2j + k, read from
    layer j - 1 to layer j at position j, every stored weight nonzero;
    f_0 and f_1 have the same row at the states (j - 1, k) for k in
    agree[j - 1], and opposite rows at the others."""
    dim = 2 * (n + 1)
    trans = {(s,): SpMat(dim) for s in B}
    for j in range(1, n + 1):
        for k in (0, 1):
            sign = 1 if k in agree[j - 1] else -1
            for t in (0, 1):
                v = nonzero_rat(rng)
                trans[("0",)].set(2 * (j - 1) + k, 2 * j + t, v)
                trans[("1",)].set(2 * (j - 1) + k, 2 * j + t, sign * v)
    alpha = [nonzero_rat(rng) for _ in (0, 1)] + [ZERO] * (dim - 2)
    beta = [ZERO] * (dim - 2) + [nonzero_rat(rng) for _ in (0, 1)]
    return NAlphabetWA([B], alpha, trans, beta)


def null_player_cases():
    """(name, f, n, inner, outer, players) of seeded queries with null
    players: players[j - 1] is False where position j must be null, True
    where it must be a player and None where the data decide."""
    rng = rng_for(64)
    cases = []
    for n in range(2, 7):
        f = rand_wa(rng, 3, B, density=1.0)
        D = rand_hmm(rng, 2, B)
        w = rand_word(rng, B, n)
        flip = set(rng.sample(range(n), rng.randint(1, n - 1)))
        r = "".join("10"[int(a)] if j in flip else a for j, a in enumerate(w))
        same = "".join(list(w))
        assert same is not w
        cases += [
            ("words-agree", f, n, r, w, [j in flip for j in range(n)]),
            ("words-equal", f, n, same, w, [False] * n),
            ("every-player", f, n, D, w, [True] * n),
            ("constant-f", constant_wa(Rat(2, 3)), n, D, w, [False] * n)]
    # a compiled tree reads only the features it tests, the data decide
    # whether a feature it tests moves the value
    for n in (4, 5, 6):
        tree = rand_dt(rng, n, max_depth=2)
        tested = {i for constraints, _ in tree.leaves() for i in constraints}
        assert len(tested) < n
        f = dt_to_wa(tree)
        players = [None if j in tested else False for j in range(1, n + 1)]
        w, r = rand_word(rng, B, n), rand_word(rng, B, n)
        dists = [hmmvec_to_hmm(emp_to_hmmvec(rand_dataset(rng, n, 4))),
                 hmmvec_to_hmm(nb_to_hmmvec(rand_nb(rng, n)))]
        for D, E in (dists, dists[::-1]):
            cases += [(f"dt-{kind}", f, n, inner, outer, players)
                      for kind, (inner, outer) in
                      (("loc_i", (D, w)), ("loc_b", (r, w)),
                       ("glo_b", (r, D)), ("two-dists", (E, D)))]
    # rows that agree at some reachable states, or at all of them
    agree = [(), (0, 1), (0,), (1,), (0, 1)]
    f = layered_wa(rng, 5, agree)
    D, E = rand_hmm(rng, 2, B), rand_hmm(rng, 1, B)
    players = [len(states) < 2 for states in agree]
    cases += [("rows-agree", f, 5, inner, outer, players)
              for inner, outer in ((D, "01101"), (D, E), ("00111", D))]
    return cases


def test_engine_equals_oracle_with_null_players(monkeypatch):
    moved = {}
    for name, f, n, inner, outer, players in null_player_cases():
        variant = "b" if isinstance(inner, str) else "i"
        want = shap_oracle_all(variant, f, n, inner, outer)
        calls = count_products(monkeypatch)
        assert shap(f, n, inner, outer) == want, (name, n)
        if None not in players:
            assert calls == pass_products(players, range(1, n + 1)), name
        # a null feature answers exactly 0 with no vector product
        nulls = tuple(j for j in range(1, n + 1) if players[j - 1] is False)
        calls = count_products(monkeypatch)
        assert shap(f, n, inner, outer, nulls) == (ZERO,) * len(nulls)
        assert calls == NONE, (name, nulls)
        monkeypatch.undo()
        moved[name] = moved.get(name, False) or any(want)
    # every kind of case with a player has a nonzero value somewhere
    assert moved == {name: name not in ("words-equal", "constant-f")
                     for name in moved}


def test_shap_all_matches_builder_pipeline_on_compiled_tabular_pairs():
    # regression ensembles with negative weighted leaves under compiled
    # tabular distributions: P sums symbols whose entries can cancel.
    # Every position's rows enter each phi, and the pipeline costs seconds
    # per feature, so each of the 12 cases of an n checks one feature, in
    # turn: every feature is checked
    rng = rng_for(42)
    for n in range(1, 7):
        ensemble = TreeEnsemble(
            [rand_dt(rng, n, max_depth=2) for _ in range(2)],
            [rand_rat(rng, -2, 2) for _ in range(2)], "regression")
        assert any(w * v < 0 for t, w in zip(ensemble.trees, ensemble.weights)
                   for _, v in t.leaves())
        f = ensemble_reg_to_wa(ensemble)
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        dists = [hmmvec_to_hmm(m) for m in (
            emp_to_hmmvec(rand_dataset(rng, n, 2)),
            ind_to_hmmvec(rand_ind(rng, n)), nb_to_hmmvec(rand_nb(rng, n)))]
        cases = [side for D in dists for side in sides(D, w, w_ref)]
        for k, (inner, outer) in enumerate(cases):
            i = 1 + k % n
            assert shap_all.__wrapped__(f, n, inner, outer)[i - 1] == \
                pipeline_shap(f, i, n, inner, outer), (n, k)


def test_engine_builds_no_kronecker_product():
    # P and Q rows come from their factors at reachable states only
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "kron"]


def test_engine_takes_sub_alphabet_hmm():
    # the distribution may leave out model symbols, in any order
    sig = ("a", "b", "c")
    rng = rng_for(36)
    for idx in range(12):
        used = rng.sample(sig, rng.randint(1, 3))
        f = rand_wa(rng, rng.randint(1, 3), sig)
        D = rand_hmm(rng, rng.randint(1, 3), used)
        n = rng.randint(1, 3)
        w, w_ref = rand_word(rng, sig, n), rand_word(rng, sig, n)
        i = rng.randint(1, n)
        assert loc_i_shap(f, w, i, D) == \
            shap_oracle_local("i", f, w, i, D), idx
        assert glo_i_shap(f, i, n, D) == \
            shap_oracle_global("i", f, i, n, D, D), idx
        assert glo_b_shap(f, i, n, w_ref, D) == \
            shap_oracle_global("b", f, i, n, w_ref, D), idx
        assert loc_b_shap(f, w, i, w_ref) == \
            shap_oracle_local("b", f, w, i, w_ref), idx


def test_pipeline_takes_sub_alphabet_hmm():
    # the builder cross-check answers what the engine answers when the
    # distribution leaves out model symbols
    h = hmmvec_to_hmm(emp_to_hmmvec(Dataset(["11", "11", "11"])))
    assert h.alphabet == ("1",)
    f = rand_wa(rng_for(39), 2, B)
    for inner, outer in sides(h, "10", "01"):
        want = shap_all.__wrapped__(f, 2, inner, outer)
        assert tuple(pipeline_shap(f, i, 2, inner, outer)
                     for i in (1, 2)) == want


def test_cached_answers_equal_cold_calls():
    # two models with the same words and HMM, every variant interleaved
    # (8 keys), then a third instance of the same shape that evicts some
    rng = rng_for(37)
    n = 4
    f1, f2, f3 = (rand_wa(rng, 3, B) for _ in range(3))
    D, E = rand_hmm(rng, 2, B), rand_hmm(rng, 2, B)
    w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)

    def variants(f, dist, i):
        return ((loc_i_shap, (f, w, i, dist)), (loc_b_shap, (f, w, i, w_ref)),
                (glo_i_shap, (f, i, n, dist)),
                (glo_b_shap, (f, i, n, w_ref, dist)))

    queries = [q for i in range(1, n + 1)
               for f in (f1, f2) for q in variants(f, D, i)]
    queries += [q for i in range(1, n + 1)
                for f, dist in ((f3, E), (f1, D)) for q in variants(f, dist, i)]
    shap_all.cache_clear()
    warm = [fn(*args) for fn, args in queries]
    assert shap_all.cache_info().hits > 0
    cold = []
    for fn, args in queries:
        shap_all.cache_clear()
        cold.append(fn(*args))
    assert warm == cold


def test_global_queries_share_one_cached_pass():
    # glo_i answers without the cache; glo_b's n features cost one pass
    rng = rng_for(39)
    n = 4
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    w_ref = rand_word(rng, B, n)
    shap_all.cache_clear()
    got_i = tuple(glo_i_shap(f, i, n, D) for i in range(1, n + 1))
    got_b = tuple(glo_b_shap(f, i, n, w_ref, D) for i in range(1, n + 1))
    info = shap_all.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, n - 1, 1)
    assert got_i == shap_all.__wrapped__(f, n, D, D)
    assert got_b == shap_all.__wrapped__(f, n, w_ref, D)


def test_a_float_n_is_refused_after_its_int_is_cached():
    # 2.0 == 2 and hash alike, so an untyped cache would answer n = 2.0
    # from n = 2's entry instead of check_query refusing it
    rng = rng_for(47)
    f, D, E = rand_wa(rng, 3, B), rand_hmm(rng, 2, B), rand_hmm(rng, 2, B)
    shap_all.cache_clear()
    shap_all(f, 2, D, E)
    glo_b_shap(f, 1, 2, "01", D)
    with pytest.raises(ValueError, match="non-negative integer"):
        shap_all(f, 2.0, D, E)
    with pytest.raises(ValueError, match="non-negative integer"):
        glo_b_shap(f, 1, 2.0, "01", D)


def test_engine_refuses_what_it_cannot_read():
    # a tabular side or model is a TypeError from every engine entry,
    # glo_i's zero rule included, naming the types the engine takes
    rng = rng_for(46)
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    ind, dt = rand_ind(rng, 2), rand_dt(rng, 2, max_depth=2)
    calls = [lambda: loc_i_shap(f, "01", 1, ind),
             lambda: loc_b_shap(f, "01", 1, ind),
             lambda: glo_i_shap(f, 1, 2, ind),
             lambda: glo_b_shap(f, 1, 2, "01", ind),
             lambda: glo_b_shap(f, 1, 2, ind, D),
             lambda: loc_i_shap(dt, "01", 1, D),
             lambda: loc_b_shap(dt, "01", 1, "10"),
             lambda: glo_i_shap(dt, 1, 2, D),
             lambda: glo_b_shap(dt, 1, 2, "01", D),
             lambda: shap(f, 2, ind, ind, (1,)),
             lambda: shap(dt, 2, "01", D)]
    for call in calls:
        with pytest.raises(TypeError, match="NAlphabetWA.*Hmm.*word"):
            call()
    for args in ((f, 2, "01", ind), (f, 2, ind, "01"), (f, 2, ind, ind),
                 (dt, 2, "01", D)):
        with pytest.raises(TypeError):
            shap_all(*args)


def test_cache_survives_dropped_models():
    # the cache holds its keys, so a new model never takes an old one's id
    D = rand_hmm(rng_for(38), 2, B)
    want = []
    for seed in range(20):
        shap_all.cache_clear()
        want.append(loc_i_shap(rand_wa(rng_for(seed), 2, B), "0110", 2, D))
    shap_all.cache_clear()
    got = [loc_i_shap(rand_wa(rng_for(seed), 2, B), "0110", 2, D)
           for seed in range(20)]
    assert got == want


def paper_local(f, w, i, dist):
    """The paper's local construction:
    Pi1(A_{w,i}, Pi2(D, Pi3(f, T_{w,i}) - Pi3(f, T_w)))."""
    sig = f.alphabets[0]
    diff = sub(project(3, f, build_T_wi(w, i, sig)),
               project(3, f, build_T_w(w, sig)))
    return pi1(build_A_wi(w, i, sig), project(2, dist.wa, diff), len(w))


def test_engine_matches_paper_local_construction():
    rng = rng_for(34)
    for idx in range(50):
        n = rng.randint(2, 6)
        f = rand_wa(rng, rng.randint(2, 4), B)
        D = rand_hmm(rng, rng.randint(1, 3), B)
        w, w_ref = rand_word(rng, B, n), rand_word(rng, B, n)
        i = rng.randint(1, n)
        assert loc_i_shap(f, w, i, D) == paper_local(f, w, i, D), idx
        assert loc_b_shap(f, w, i, w_ref) == \
            paper_local(f, w, i, build_point_hmm(w_ref, B)), idx


def test_errors():
    f = and_wa()
    D = uniform_hmm(("a", "b"))
    with pytest.raises(ValueError):
        loc_i_shap(f, "11", 1, D)  # alphabet mismatch
    with pytest.raises(ValueError):
        glo_i_shap(f, 1, 2, uniform_hmm(("1", "a")))  # one alien symbol
    with pytest.raises(ValueError):
        shap_all(f, 2, "11", "111")  # word length != n
    with pytest.raises(ValueError):
        shap_all(f, 2, "1a", "11")  # alien word symbol
    with pytest.raises(IndexError):
        loc_i_shap(f, "11", 3, uniform_hmm(B))
    with pytest.raises(ValueError):
        loc_b_shap(f, "11", 1, "000")  # length mismatch
    with pytest.raises(ValueError):
        glo_b_shap(f, 1, 3, "11", uniform_hmm(B))  # |w_ref| != n
    with pytest.raises(IndexError):
        glo_i_shap(f, 4, 3, uniform_hmm(B))
    for i in (0, 3):
        with pytest.raises(IndexError):
            shap(f, 2, "00", "11", (i,))


def test_a_bool_is_not_a_feature():
    # bool is an int, but True is not feature 1
    rng = rng_for(46)
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    for call in (lambda i: shap(f, 2, D, "01", (i,)),
                 lambda i: shap_oracle_all("i", f, 2, D, "01", (i,)),
                 lambda i: value_fn("i", f, "01", {i}, D)):
        call(1)
        for i in (True, False):
            with pytest.raises(IndexError):
                call(i)


def _entries(f, n, inner, outer, i=1):
    """(name, call) of each SHAP entry point that takes a query with these
    sides, feature i (value_fn takes the coalition {i}; shap_oracle_many
    takes the query first, between and last among queries that are well
    formed for a WA over B at n = 2).  The engine and the builder pipeline
    take a WA and Hmm or word sides; the oracle and the CLI's zero route
    every model and distribution."""
    variant = "b" if isinstance(inner, str) else "i"
    query, other = (variant, inner, outer), ("i", uniform_hmm(B), "01")
    calls = [("shap_oracle_all",
              lambda: shap_oracle_all(variant, f, n, inner, outer)),
             *(("shap_oracle_many",
                lambda queries=queries: shap_oracle_many(f, n, queries))
               for queries in ([query, other], [other, query, other],
                               [other, query])),
             ("shap_oracle_global",
              lambda: shap_oracle_global(variant, f, i, n, inner, outer)),
             ("zero", lambda: cli._zero(variant, f, n, inner, outer, (i,)))]
    if isinstance(outer, str):
        calls += [("shap_oracle_local",
                   lambda: shap_oracle_local(variant, f, outer, i, inner)),
                  ("value_fn", lambda: value_fn(variant, f, outer, {i},
                                                inner))]
    if not all(isinstance(x, (NAlphabetWA, Hmm, str))
               for x in (f, inner, outer)):
        return calls
    calls += [("shap_all", lambda: shap_all(f, n, inner, outer)),
              ("shap", lambda: shap(f, n, inner, outer, (i,))),
              ("pipeline_shap", lambda: pipeline_shap(f, i, n, inner, outer))]
    if isinstance(outer, str) and isinstance(inner, str):
        calls.append(("loc_b_shap", lambda: loc_b_shap(f, outer, i, inner)))
    elif isinstance(outer, str):
        calls.append(("loc_i_shap", lambda: loc_i_shap(f, outer, i, inner)))
    elif inner is outer:
        calls.append(("glo_i_shap", lambda: glo_i_shap(f, i, n, outer)))
    elif isinstance(inner, str):
        calls.append(("glo_b_shap",
                      lambda: glo_b_shap(f, i, n, inner, outer)))
    return calls


# the feature of a malformed query: 1 but where the fault is the feature
FEATURE = {"feature-out-of-range": 3, "float-feature": 1.0,
           "zero-feature": 0, "string-feature": "a", "bool-feature": True}


def _malformed_query(case):
    """(f, n, side pairs (inner, outer)): each query, with feature
    FEATURE.get(case, 1), is well formed but for the one fault the case
    names, on either side where it can sit."""
    rng = rng_for(45)
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    if case in FEATURE:
        E = rand_hmm(rng, 2, B)
        return f, 2, [("00", "01"), (D, "01"), (D, D), ("01", D), (E, D)]
    if case == "alien-word-symbol":
        return f, 2, [("00", "12"), ("12", "00"), ("12", D), (D, "12")]
    if case == "alien-distribution-symbol":
        A = rand_hmm(rng, 2, ("1", "2"))
        return f, 2, [(A, "01"), ("01", A), (A, A), (D, A), (A, D)]
    if case == "wrong-word-length":
        return f, 2, [("00", "001"), ("001", "00"), ("001", D)]
    if case == "tabular-model-n":
        dt = rand_dt(rng, 4, max_depth=2)
        return dt, 5, [("00000", "11011"), (rand_ind(rng, 5), "11011")]
    if case == "tabular-distribution-n":
        ind = rand_ind(rng, 3)
        return f, 2, [(ind, "01"), ("01", ind), (ind, ind)]
    if case in ("negative-n", "float-n", "bool-n"):
        E = rand_hmm(rng, 2, B)
        n = {"negative-n": -1, "float-n": 2.0, "bool-n": True}[case]
        return f, n, [(D, D), (E, D)]
    two_tapes = NAlphabetWA([B, B], [ONE], {}, [ONE])
    return two_tapes, 2, [("00", "01"), (D, "01"), ("01", D), (D, D)]


# the entries that take every model and distribution
ANY_KIND = {"shap_oracle_all", "shap_oracle_many", "shap_oracle_global",
            "shap_oracle_local", "value_fn", "zero"}
ENTRIES = ANY_KIND | {"shap_all", "shap", "pipeline_shap",
                            "loc_b_shap", "loc_i_shap", "glo_b_shap",
                            "glo_i_shap"}
# the entries that take a feature
ONE_FEATURE = ENTRIES - {"shap_oracle_all", "shap_oracle_many", "shap_all"}
# the entries that take an n and two distribution sides
N_ENTRIES = ENTRIES - {"shap_oracle_local", "value_fn", "loc_b_shap",
                       "loc_i_shap", "glo_b_shap"}


# malformed query -> the entries that take one of its side pairs
REFUSERS = {
    "alien-word-symbol": ENTRIES - {"glo_i_shap"},
    "alien-distribution-symbol": ENTRIES - {"loc_b_shap"},
    # a local entry reads n from its input word
    "wrong-word-length": ENTRIES - {"glo_i_shap", "loc_i_shap"},
    "tabular-model-n": ANY_KIND,
    "tabular-distribution-n": ANY_KIND,
    "two-tape-model": ENTRIES,
    # an n that is not a non-negative int (a local entry reads n from its
    # input word, so the sides are distributions)
    "negative-n": N_ENTRIES,
    "float-n": N_ENTRIES,
    "bool-n": N_ENTRIES,
    # a feature that is not an int in 1..n; the other entries answer
    "feature-out-of-range": ONE_FEATURE,
    "float-feature": ONE_FEATURE,
    "zero-feature": ONE_FEATURE,
    "string-feature": ONE_FEATURE,
    "bool-feature": ONE_FEATURE,
}
# the feature is checked first, so an entry that takes one raises
# IndexError in these cases (at n = -1 no feature is in range); the
# entries of all features raise ValueError
FEATURE_FAULTS = {"negative-n", "feature-out-of-range", "float-feature",
                  "zero-feature", "string-feature", "bool-feature"}


@pytest.mark.parametrize("case", list(REFUSERS))
def test_every_entry_refuses_a_malformed_query_alike(case):
    # one check, models.check_query, decides for the engine, the oracle
    # and the builder pipeline, so each refuses the same queries
    f, n, pairs = _malformed_query(case)
    raised = {}
    for inner, outer in pairs:
        for name, call in _entries(f, n, inner, outer, FEATURE.get(case, 1)):
            try:
                call()
            except Exception as e:
                raised.setdefault(name, set()).add(type(e))
            else:
                raised.setdefault(name, set()).add(None)
    refused = {name: types for name, types in raised.items()
               if types != {None}}
    assert set(refused) == REFUSERS[case]
    for name, types in refused.items():
        one_feature = case in FEATURE_FAULTS and name in ONE_FEATURE
        assert types == {IndexError if one_feature else ValueError}, raised


def test_a_bool_n_is_refused():
    # True is an int to isinstance; read as n = 1 it would answer
    f, D = and_wa(), uniform_hmm(B)
    with pytest.raises(ValueError):
        shap(f, True, D, "1")


def test_global_interventional_shap_holds_nothing_n_long():
    # the sides are one object, so the answer is 0 once the query is
    # checked: no layer list and no tuple of n zeros
    f, D = and_wa(), uniform_hmm(B)
    n = 10 ** 6
    tracemalloc.start()
    try:
        assert glo_i_shap(f, n, n, D) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
