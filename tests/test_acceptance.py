"""End-to-end acceptance checks.

Each test here is one acceptance criterion, numbered; together they
exercise engine-vs-oracle equivalence, the compiled tabular pipelines,
the SHAP axioms, all four hardness gadgets, runtime scaling, and the
builder size bounds.  Exhaustive families that are combinatorially out
of reach at the largest stated sizes are covered exhaustively at small
sizes and by seeded random samples above that.
"""

import math
import time
from itertools import combinations, product

import pytest

from shapwa.builders import (build_A_in, build_A_wi, build_point_hmm, build_T,
                             build_T_i, build_T_w, build_T_wi)
from shapwa.engine import (glo_b_shap, glo_i_shap, loc_b_shap, loc_i_shap,
                           shap_all)
from shapwa.frontends import (dt_to_wa, emp_to_hmmvec, ensemble_reg_to_wa,
                              hmmvec_to_hmm)
from shapwa.gadgets import (csp_construct, csp_to_rnn, sat_to_ensemble,
                            wmg_to_rnnrelu, wmg_to_sigmoid)
from shapwa.hmm import uniform_hmm
from shapwa.oracle import (CnfFormula, CspInstance, Wmg, csp_brute,
                           dummy_check, empty_brute, eval_model, hamming,
                           shap_oracle_all, shap_oracle_global,
                           shap_oracle_local, value_fn)
from shapwa.randgen import (rand_01_wa, rand_cnf, rand_dataset, rand_dt,
                            rand_ensemble, rand_hmm, rand_hmmvec, rand_ind,
                            rand_wa, rand_wmg, rand_word, rng_for)
from shapwa.rational import Rat, ZERO

B = ("0", "1")


def words(n):
    return ("".join(t) for t in product(B, repeat=n))


def test_01_engine_oracle_equivalence():
    """200 seeded instances; all four pipelines equal the oracle exactly."""
    rng = rng_for(100)
    for idx in range(200):
        f = rand_wa(rng, rng.randint(2, 4), B)
        D = rand_hmm(rng, rng.randint(1, 3), B)
        n_local = rng.randint(2, 5)
        w = rand_word(rng, B, n_local)
        w_ref = rand_word(rng, B, n_local)
        i = rng.randint(1, n_local)
        assert loc_i_shap(f, w, i, D) == \
            shap_oracle_local("i", f, w, i, D), idx
        assert loc_b_shap(f, w, i, w_ref) == \
            shap_oracle_local("b", f, w, i, w_ref), idx
        n_glob = rng.randint(2, 4)
        j = rng.randint(1, n_glob)
        ref = rand_word(rng, B, n_glob)
        assert glo_i_shap(f, j, n_glob, D) == \
            shap_oracle_global("i", f, j, n_glob, D, D), idx
        assert glo_b_shap(f, j, n_glob, ref, D) == \
            shap_oracle_global("b", f, j, n_glob, ref, D), idx


def test_02_tabular_pipeline_reproduction():
    """100 trees/ensembles under empirical and HmmVec distributions:
    compiled-pipeline SHAP equals oracle SHAP on the tabular originals."""
    rng = rng_for(101)
    for idx in range(100):
        n = rng.randint(2, 5)
        if idx % 2 == 0:
            model = rand_dt(rng, n, max_depth=4)  # <= 2^4 - 1 = 15 nodes
            wa = dt_to_wa(model)
        else:
            model = rand_ensemble(rng, n, trees=rng.randint(1, 3))
            wa = ensemble_reg_to_wa(model)
        if idx % 4 < 2:
            dist = rand_dataset(rng, n, rng.randint(1, 8))
            hmm = hmmvec_to_hmm(emp_to_hmmvec(dist))
        else:
            dist = rand_hmmvec(rng, n, rng.randint(1, 2), B)
            hmm = hmmvec_to_hmm(dist)
        x = rand_word(rng, B, n)
        x_ref = rand_word(rng, B, n)
        i = rng.randint(1, n)
        assert loc_i_shap(wa, x, i, hmm) == \
            shap_oracle_local("i", model, x, i, dist), idx
        assert loc_b_shap(wa, x, i, x_ref) == \
            shap_oracle_local("b", model, x, i, x_ref), idx
        if n <= 3:
            assert glo_i_shap(wa, i, n, hmm) == \
                shap_oracle_global("i", model, i, n, dist, dist), idx


def test_03_efficiency_axiom():
    """Sum of local interventional values under the uniform distribution
    equals f(x) minus the acceptance mass |f^-1(1)| / |Sigma|^n."""
    rng = rng_for(102)
    D = uniform_hmm(B)
    for idx in range(100):
        n = rng.randint(2, 5)
        f = rand_01_wa(rng, rng.randint(2, 4), B)
        x = rand_word(rng, B, n)
        total = sum((loc_i_shap(f, x, i, D) for i in range(1, n + 1)), ZERO)
        accepted = sum(1 for w in words(n) if eval_model(f, w) == 1)
        assert total == eval_model(f, x) - Rat(accepted, 2 ** n), idx


def test_04_variant_coincidence_and_prop8():
    """v_i = v_c under independent distributions, and the two
    point-distribution identities, all exact."""
    rng = rng_for(103)
    for _ in range(25):
        n = rng.randint(2, 4)
        f = rand_wa(rng, rng.randint(2, 3), B)
        ind = rand_ind(rng, n)
        x = rand_word(rng, B, n)
        for size in range(n + 1):
            for S in combinations(range(1, n + 1), size):
                assert value_fn("i", f, x, S, ind) == \
                    value_fn("c", f, x, S, ind)
        i = rng.randint(1, n)
        assert shap_oracle_local("i", f, x, i, ind) == \
            shap_oracle_local("c", f, x, i, ind)
        # interventional at a point distribution = baseline at that point
        w_ref = rand_word(rng, B, n)
        assert loc_i_shap(f, x, i, build_point_hmm(w_ref, B)) == \
            loc_b_shap(f, x, i, w_ref)
        # global baseline at a point input distribution = local baseline
        assert glo_b_shap(f, i, n, w_ref, build_point_hmm(x, B)) == \
            loc_b_shap(f, x, i, w_ref)


def _sigmoid_check(game, i):
    inst = wmg_to_sigmoid(game, i)
    phi = float(shap_oracle_local("b", inst.model, inst.x, i, inst.x_ref))
    return (phi <= float(inst.epsilon) + 1e-9) == dummy_check(game, i)


def test_05_wmg_sigmoid_gadget():
    """dummy(i) iff phi_b <= eps at 1e-9 tolerance: exhaustive for N <= 3
    (weights 0..5, all quotas, all players), seeded samples for N = 4..8."""
    for n_players in (1, 2, 3):
        for powers in product(range(6), repeat=n_players):
            for q in range(1, sum(powers) + 2):
                game = Wmg(list(powers), q)
                for i in range(1, n_players + 1):
                    assert _sigmoid_check(game, i), (game, i)
    rng = rng_for(105)
    for n_players in (4, 5, 6, 7, 8):
        for _ in range(40):
            game = rand_wmg(rng, n_players)
            i = rng.randint(1, n_players)
            assert _sigmoid_check(game, i), (game, i)


def test_06_wmg_rnn_gadget():
    """f_G = v_G exhaustively over {0,1}^N for N <= 10; dummy iff
    phi_b = 0 exactly for N <= 8 (seeded games, all players)."""
    rng = rng_for(106)
    for n_players in range(1, 11):
        for _ in range(3):
            game = rand_wmg(rng, n_players)
            f = wmg_to_rnnrelu(game)
            for x in words(n_players):
                S = {j + 1 for j, s in enumerate(x) if s == "1"}
                assert f.evaluate(x) == game.value(S), (game, x)
    for n_players in range(1, 9):
        for _ in range(2):
            game = rand_wmg(rng, n_players)
            f = wmg_to_rnnrelu(game)
            ones, zeros = "1" * n_players, "0" * n_players
            phis = shap_oracle_all("b", f, n_players, zeros, ones)
            for i, phi in enumerate(phis, 1):
                assert (phi == 0) == dummy_check(game, i), (game, i)


def test_07_sat_gadget():
    """200 seeded 3-CNFs, n <= 6, m <= 8: satisfiable iff phi_b(n+1) > 0."""
    rng = rng_for(107)
    for idx in range(200):
        formula = rand_cnf(rng, rng.randint(2, 6), rng.randint(1, 8))
        inst = sat_to_ensemble(formula)
        phi = shap_oracle_local("b", inst.model, inst.x, inst.feature,
                                inst.x_ref)
        assert (phi > 0) == formula.satisfiable(), (idx, formula)


def test_08_csp_gadget():
    """Cell property exhaustive in w' for n <= 6 (all w for n <= 4, seeded
    w above); emptiness equivalence on seeded instances with m <= 3,
    n <= 6 plus the full n <= 2 family."""
    rng = rng_for(108)
    for n in range(1, 7):
        ws = list(words(n)) if n <= 4 else \
            [rand_word(rng, B, n) for _ in range(8)]
        for w in ws:
            for k in range(n + 1):
                cell = csp_construct(w, k, B)
                for wp in words(n):
                    assert cell.hidden(wp)[n - 1] == \
                        max(0, hamming(w, wp) - k), (w, wp, k)

    def check(inst):
        f = csp_to_rnn(inst)
        assert empty_brute(f, inst.n, inst.domain) == \
            (csp_brute(inst) is None), inst

    for n in (1, 2):  # full family: every string multiset of size <= 2
        all_words = list(words(n))
        for m in (1, 2):
            for strings in product(all_words, repeat=m):
                for k in range(n + 1):
                    check(CspInstance(list(strings), k, B))
    for _ in range(60):
        n = rng.randint(3, 6)
        m = rng.randint(1, 3)
        strings = [rand_word(rng, B, n) for _ in range(m)]
        check(CspInstance(strings, rng.randint(0, n), B))


def test_09_polynomial_scaling():
    """loc_i_shap on WA dim 5 / HMM dim 3 finishes n = 8 in < 60 s and
    grows sub-exponentially from n = 4 to n = 8."""
    rng = rng_for(109)
    f = rand_wa(rng, 5, B)
    D = rand_hmm(rng, 3, B)
    times = {}
    for n in range(4, 9):
        w = rand_word(rng, B, n)
        best = min(_timed(loc_i_shap, f, w, 1 + n % 2, D) for _ in range(3))
        times[n] = max(best, 1e-4)  # clamp below timer noise
    assert times[8] < 60.0, times
    # least-squares exponent of t ~ c * n^k over the measured range; an
    # exponential 2^n trend would need k >= n/log2(n) ~ 2.7 growing with n,
    # a polynomial pipeline stays under a fixed small degree
    xs = [math.log(n) for n in times]
    ys = [math.log(t) for t in times.values()]
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    k = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / \
        sum((x - xbar) ** 2 for x in xs)
    assert k <= 6.0, (times, k)
    assert times[8] / times[7] <= 4.0, times


def _timed(fn, *args):
    shap_all.cache_clear()  # time the kernel, not a cached answer
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_10_builder_size_bounds():
    """Constructed dimensions stay within a factor 2 of the documented
    output sizes for n <= 12: A_{w,i} O(n^2), A_{i,n} O(n^4), T_w and
    T_{w,i} O(n), T_i O(n), T O(1), point O(n)."""
    rng = rng_for(110)
    for n in range(1, 13):
        w = rand_word(rng, B, n)
        i = rng.randint(1, n)
        assert build_A_wi(w, i, B).dim <= 2 * (n + 1) ** 2
        assert build_A_in(i, n, B).dim <= 2 * (n + 1) ** 4
        assert build_T_w(w, B).dim <= 2 * (n + 1)
        assert build_T_wi(w, i, B).dim <= 2 * (n + 1)
        assert build_T_i(i, B).dim == i + 1
        assert build_T(B).dim == 1
        assert build_point_hmm(w, B).dim <= 2 * (n + 1)
