from itertools import product

import pytest

from shapwa.builders import (build_A_in, build_A_wi, build_point_hmm, build_T,
                             build_T_i, build_T_w, build_T_wi, hash_alphabet)
from shapwa.patterns import coalition_weight, do_op, swap
from shapwa.rational import Rat, ZERO
from shapwa.wa import eval_wa, pi0

B = ("0", "1")
BH = hash_alphabet(B)


def words(alphabet, n):
    return ("".join(t) for t in product(alphabet, repeat=n))


# ---------------------------------------------------------------------------
# A_{w,i}


def test_awi_single_value():
    A = build_A_wi("ab", 1, ("a", "b"))
    assert eval_wa(A, ("#b",)) == Rat(1, 2)
    assert eval_wa(A, ("##",)) == Rat(1, 2)
    assert eval_wa(A, ("ab",)) == 0  # p_1 fixed -> excluded
    assert eval_wa(A, ("#a",)) == 0  # w not in L_p


def test_awi_normalizes():
    for w in words(B, 3):
        A = build_A_wi(w, 2, B)
        total = sum((eval_wa(A, (p,)) for p in words(BH, 3)), ZERO)
        assert total == 1


def test_awi_equals_coalition_weight():
    for w in ("10", "0110"):
        n = len(w)
        for i in range(1, n + 1):
            A = build_A_wi(w, i, B)
            for p in words(BH, n):
                assert eval_wa(A, (p,)) == coalition_weight(p, w, i)


def test_awi_size_and_errors():
    assert build_A_wi("0101", 2, B).dim <= 5 * 5
    with pytest.raises(IndexError):
        build_A_wi("01", 3, B)
    with pytest.raises(ValueError):
        hash_alphabet(("0", "#"))


# ---------------------------------------------------------------------------
# A_{i,n}


def test_ain_values():
    A = build_A_in(1, 2, ("a", "b"))
    assert eval_wa(A, ("#b", "ab")) == Rat(1, 2)
    assert eval_wa(A, ("ab", "ab")) == 0  # p_i fixed


def test_ain_matches_awi():
    n = 3
    for i in (1, 2, 3):
        A = build_A_in(i, n, B)
        for w in words(B, n):
            ref = build_A_wi(w, i, B)
            for p in words(BH, n):
                assert eval_wa(A, (p, w)) == eval_wa(ref, (p,))


def test_ain_normalizes_over_patterns():
    A = build_A_in(2, 3, B)
    for w in words(B, 3):
        assert sum((eval_wa(A, (p, w)) for p in words(BH, 3)), ZERO) == 1


# ---------------------------------------------------------------------------
# T_w, T_{w,i}


def test_tw_paper_example():
    T = build_T_w("1111", B)
    assert eval_wa(T, ("0#0#", "1100", "1110")) == 1
    assert eval_wa(T, ("0#0#", "1100", "1111")) == 0  # u != do(p, w', w)


def test_tw_exhaustive():
    w = "10"
    T = build_T_w(w, B)
    for p in words(BH, 2):
        for wp in words(B, 2):
            for u in words(B, 2):
                expect = 1 if do_op(p, wp, w) == u else 0
                assert eval_wa(T, (p, wp, u)) == expect


def test_twi_exhaustive():
    w = "10"
    for i in (1, 2):
        T = build_T_wi(w, i, B)
        for p in words(BH, 2):
            for wp in words(B, 2):
                for u in words(B, 2):
                    expect = 1 if do_op(swap(p, w[i - 1], i), wp, w) == u else 0
                    assert eval_wa(T, (p, wp, u)) == expect
    with pytest.raises(IndexError):
        build_T_wi("10", 3, B)


def test_position_builders_refuse_positions_out_of_range():
    for i in (0, 3):
        with pytest.raises(IndexError):
            build_A_in(i, 2, B)
    with pytest.raises(IndexError):
        build_T_i(0, B)


# ---------------------------------------------------------------------------
# T, T_i


def test_t_all_placeholders():
    T = build_T(B)
    assert T.dim == 1
    assert eval_wa(T, ("##", "01", "01", "11")) == 1


def test_t_matches_tw():
    T = build_T(B)
    for w in words(B, 2):
        ref = build_T_w(w, B)
        for p in words(BH, 2):
            for wp in words(B, 2):
                for u in words(B, 2):
                    assert eval_wa(T, (p, wp, u, w)) == eval_wa(ref, (p, wp, u))


def test_ti_matches_twi():
    for i in (1, 2):
        T = build_T_i(i, B)
        assert T.dim == i + 1
        for w in words(B, 2):
            ref = build_T_wi(w, i, B)
            for p in words(BH, 2):
                for wp in words(B, 2):
                    for u in words(B, 2):
                        assert eval_wa(T, (p, wp, u, w)) == \
                            eval_wa(ref, (p, wp, u))


def test_ti_forces_position_i():
    # with i=1, position 1 of u must equal w_1 regardless of p, w'
    T = build_T_i(1, B)
    for p in words(BH, 2):
        for wp in words(B, 2):
            for w in words(B, 2):
                u = ("1" if w[0] == "0" else "0") + w[1]
                assert eval_wa(T, (p, wp, u, w)) == 0


# ---------------------------------------------------------------------------
# point distribution


def test_point_hmm():
    D = build_point_hmm("010", B)
    assert D.prefix_prob("010") == 1
    for w in words(B, 3):
        if w != "010":
            assert D.prefix_prob(w) == 0
    assert pi0(D.wa, 3) == 1
    assert D.dim == 4
    # after the end of w_ref, symbols are uniform
    assert D.prefix_prob("0100") == Rat(1, 2)
