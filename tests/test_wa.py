import ast
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shapwa import hmm, linalg, rational, wa
from shapwa.frontends import dt_to_wa, emp_to_hmmvec, hmmvec_to_hmm
from shapwa.hmm import hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.randgen import (rand_01_wa, rand_dataset, rand_dt, rand_hmm,
                            rand_wa, rng_for)
from shapwa.rational import Rat, ZERO, ONE, format_rat
from shapwa.wa import (NAlphabetWA, add, chain_wa, contract, dfa_to_wa,
                       eval_wa, kron, pi0, pi1, project, scale, sub,
                       wa_from_json, wa_from_parts, wa_to_json)

B = ("0", "1")


def constant(c, alphabet=B):
    trans = {(s,): SpMat.from_dense([[ONE]]) for s in alphabet}
    return NAlphabetWA([alphabet], [Rat(c)], trans, [ONE])


def point_mass(w0, alphabet=B):
    """1-alphabet acceptor of exactly {w0}, weight 1."""
    n = len(w0)
    delta = {(j, (w0[j],)): j + 1 for j in range(n)}
    return dfa_to_wa([alphabet], range(n + 2), 0, delta, {n})


def uniform_wa(alphabet=B):
    p = Rat(1, len(alphabet))
    trans = {(s,): SpMat.from_dense([[p]]) for s in alphabet}
    return NAlphabetWA([alphabet], [ONE], trans, [ONE])


def words(alphabet, n):
    return ("".join(t) for t in product(alphabet, repeat=n))


def seeded_wa(seed, dim=2, alphabet=B):
    return rand_wa(rng_for(seed), dim, alphabet)


# ---------------------------------------------------------------------------
# eval_wa


def test_eval_constant():
    A = constant(Rat(7, 2))
    for w in ("", "0", "11", "010"):
        assert eval_wa(A, (w,)) == Rat(7, 2)


def test_eval_empty_word_is_alpha_dot_beta():
    A = seeded_wa(1, dim=3)
    expect = sum(a * b for a, b in zip(A.alpha, A.beta))
    assert eval_wa(A, ("",)) == expect


def test_eval_two_state_example():
    # alpha=[1,0], beta=[0,1], A_1=[[0,1],[0,0]], A_0=0
    trans = {("1",): SpMat.from_dense([[ZERO, ONE], [ZERO, ZERO]])}
    A = NAlphabetWA([B], [ONE, ZERO], trans, [ZERO, ONE])
    assert eval_wa(A, ("1",)) == 1
    assert eval_wa(A, ("0",)) == 0
    assert eval_wa(A, ("11",)) == 0


def test_eval_errors():
    A = seeded_wa(2)
    with pytest.raises(ValueError):
        eval_wa(A, ("0", "1"))  # arity mismatch
    with pytest.raises(ValueError):
        eval_wa(A, ("2",))  # unknown symbol


def test_length_mismatch_between_tapes():
    from shapwa.builders import build_T_w
    T = build_T_w("10", B)
    with pytest.raises(ValueError):
        eval_wa(T, ("##", "0", "00"))


# ---------------------------------------------------------------------------
# algebra


def test_add_constants():
    assert eval_wa(add(constant(2), constant(3)), ("01",)) == 5


def test_add_zero_identity():
    A = seeded_wa(3)
    zero = scale(0, constant(1))
    S = add(A, zero)
    for n in range(5):
        for w in words(B, n):
            assert eval_wa(S, (w,)) == eval_wa(A, (w,))


def test_add_pointwise():
    A, Bwa = seeded_wa(4), seeded_wa(5)
    S = add(A, Bwa)
    assert eval_wa(S, ("01",)) == eval_wa(A, ("01",)) + eval_wa(Bwa, ("01",))
    assert S.dim == A.dim + Bwa.dim
    parts = [seeded_wa(4), seeded_wa(5, dim=3), constant(Rat(1, 3))]
    S3 = add(*parts)
    for n in range(4):
        for w in words(B, n):
            assert eval_wa(S3, (w,)) == sum(eval_wa(P, (w,)) for P in parts)
    assert S3.dim == sum(P.dim for P in parts)


def test_scale_examples():
    A = seeded_wa(6)
    for n in range(5):
        for w in words(B, n):
            assert eval_wa(scale(0, A), (w,)) == 0
            assert eval_wa(scale(1, A), (w,)) == eval_wa(A, (w,))
    assert eval_wa(scale(Rat(1, 2), constant(3)), ("10",)) == Rat(3, 2)
    assert scale(5, A).dim == A.dim


def test_kron_constants():
    assert eval_wa(kron(constant(2), constant(3)), ("0",)) == 6


def test_kron_one_identity():
    A = seeded_wa(7)
    K = kron(A, constant(1))
    for n in range(5):
        for w in words(B, n):
            assert eval_wa(K, (w,)) == eval_wa(A, (w,))


def test_kron_pointwise_exhaustive():
    A, Bwa = seeded_wa(8), seeded_wa(9, dim=3)
    K = kron(A, Bwa)
    assert K.dim == A.dim * Bwa.dim
    for n in range(4):
        for w in words(B, n):
            assert eval_wa(K, (w,)) == eval_wa(A, (w,)) * eval_wa(Bwa, (w,))


def tape_wa(seed, alphabets=(B, B), dim=2):
    rng = rng_for(seed)
    trans = {}
    for key in product(*alphabets):
        mat = SpMat(dim)
        for i in range(dim):
            for j in range(dim):
                mat.set(i, j, Rat(rng.randint(-2, 2)))
        trans[key] = mat
    alpha = [Rat(rng.randint(-2, 2)) for _ in range(dim)]
    beta = [Rat(rng.randint(-2, 2)) for _ in range(dim)]
    return NAlphabetWA(alphabets, alpha, trans, beta)


def test_project_defining_sum():
    A = seeded_wa(10)
    T = tape_wa(11)
    G = project(1, A, T)
    assert G.dim == A.dim * T.dim
    for n in range(4):
        for u in words(B, n):
            expect = sum((eval_wa(A, (w,)) * eval_wa(T, (w, u))
                          for w in words(B, n)), ZERO)
            assert eval_wa(G, (u,)) == expect


def test_project_dirac_sifting():
    T = tape_wa(12)
    for w0 in words(B, 2):
        G = project(1, point_mass(w0), T)
        for u in words(B, 2):
            assert eval_wa(G, (u,)) == eval_wa(T, (w0, u))


def test_project_marginalizes_ignored_slot():
    # T's matrices do not depend on the first symbol
    dim = 2
    rng = rng_for(13)
    per_second = {s2: SpMat.from_dense(
        [[Rat(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
        for s2 in B}
    trans = {(s1, s2): per_second[s2] for s1 in B for s2 in B}
    T = NAlphabetWA([B, B], [ONE, ZERO], trans, [ONE, ONE])
    G = project(1, uniform_wa(), T)
    for n in range(4):
        for u in words(B, n):
            assert eval_wa(G, (u,)) == eval_wa(T, (u, u))  # slot 1 ignored


def test_project_errors():
    A = seeded_wa(14)
    T = tape_wa(15)
    with pytest.raises(ValueError):
        project(3, A, T)
    with pytest.raises(ValueError):
        project(1, T, T)  # A must be 1-alphabet
    with pytest.raises(ValueError):
        project(1, A, A)  # arity(T) must be >= 2


def test_pi1_normalization_and_sifting():
    for n in (1, 2, 3):
        assert pi1(uniform_wa(), constant(1), n) == 1
    Bwa = seeded_wa(16)
    for w0 in words(B, 2):
        assert pi1(point_mass(w0), Bwa, 2) == eval_wa(Bwa, (w0,))


def test_pi1_explicit_sum():
    A, Bwa = seeded_wa(17), seeded_wa(18, dim=3)
    expect = sum((eval_wa(A, (w,)) * eval_wa(Bwa, (w,)) for w in words(B, 2)),
                 ZERO)
    assert pi1(A, Bwa, 2) == expect


def test_pi0_examples():
    for n in (1, 2, 3):
        assert pi0(uniform_hmm(B).wa, n) == 1
        assert pi0(scale(0, constant(1)), n) == 0
        assert pi0(constant(Rat(5, 3)), n) == Rat(5, 3) * 2 ** n
    A = seeded_wa(19)
    assert pi0(A, 3) == sum((eval_wa(A, (w,)) for w in words(B, 3)), ZERO)


def test_pi1_of_dense_automata_makes_no_fraction_sum(fraction_ops):
    # each entry of the next vector, and the result, is one dot
    rng = rng_for(20)
    A, Bwa = rand_wa(rng, 3, B, density=1), rand_wa(rng, 4, B, density=1)
    want = sum((eval_wa(A, (w,)) * eval_wa(Bwa, (w,)) for w in words(B, 3)),
               ZERO)
    fraction_ops.take()
    got = pi1(A, Bwa, 3)
    assert fraction_ops.take()[1] == 0
    assert got == want


def test_algebra_of_acceptors_makes_no_product_by_1_or_sum_with_0(
        fraction_ops):
    rng = rng_for(21)
    A, C = rand_01_wa(rng, 4, B), rand_01_wa(rng, 3, B)
    T = chain_wa([B, B], 3, lambda q, key: q % 2 or key[0] != key[1])
    fraction_ops.take()
    kron(A, C)
    project(1, A, T)
    pi1(A, C, 3)
    assert fraction_ops.trivial == 0


def test_algebra_of_acceptors_multiplies_no_zero(fraction_ops):
    # a 0/1 automaton's weights are ZERO or ONE: kron, project and scale
    # skip every pair with a zero factor and store the shared ZERO
    rng = rng_for(4)
    A, C = rand_01_wa(rng, 3, B), rand_01_wa(rng, 4, B)
    T = chain_wa([B, B], 3, lambda q, key: q % 2 or key[0] != key[1])
    fraction_ops.take()
    outs = [kron(A, C), project(1, A, T), scale(Rat(2, 3), A),
            scale(0, C)]
    assert fraction_ops.take()[0] == 0
    for out in outs:
        weights = [*out.alpha, *out.beta]
        assert ZERO in weights
        assert all(x is ZERO for x in weights if x == 0)


def test_transition_matrix_of_another_dimension_is_refused():
    with pytest.raises(ValueError, match="transition matrix dimension"):
        NAlphabetWA([B], [ONE], {("0",): SpMat(2)}, [ONE])


# ---------------------------------------------------------------------------
# contract

AB = ("a", "b")


def contract_by_enumeration(T, factors, n):
    total = ZERO
    for ws in product(*(list(words(ab, n)) for ab in T.alphabets)):
        term = eval_wa(T, ws)
        for W, tapes in factors:
            term *= eval_wa(W, tuple(ws[t - 1] for t in tapes))
        total += term
    return total


def test_contract_factor_on_two_tapes():
    # the factor reads tape 3 and then tape 2; tape 1 is summed with weight 1
    T = tape_wa(40, (B, AB, B))
    factors = [(tape_wa(41, (B, AB), dim=3), (3, 2))]
    for n in range(4):
        assert contract(T, factors, n) == \
            contract_by_enumeration(T, factors, n)


def test_contract_two_factors_on_one_tape():
    T = tape_wa(42, (B, AB))
    factors = [(seeded_wa(43), (1,)), (seeded_wa(44, dim=3), (1,)),
               (tape_wa(45, (AB,)), (2,))]
    for n in range(4):
        assert contract(T, factors, n) == \
            contract_by_enumeration(T, factors, n)


def test_project_and_contract_take_a_sub_alphabet_factor():
    # the factor leaves out "b" and lists its symbols in another order: a
    # word that holds "b" has weight 0 under it
    T = tape_wa(50, (B, ("a", "b", "c")))
    A = seeded_wa(51, alphabet=("c", "a"))
    G = project(2, A, T)
    for n in range(4):
        for u in words(B, n):
            assert eval_wa(G, (u,)) == sum(
                (eval_wa(A, (w,)) * eval_wa(T, (u, w))
                 for w in words(A.alphabets[0], n)), ZERO)
        assert contract(T, [(A, (2,))], n) == sum(
            (eval_wa(A, (w,)) * eval_wa(T, (u, w))
             for u in words(B, n) for w in words(A.alphabets[0], n)), ZERO)
    alien = seeded_wa(52, alphabet=("a", "z"))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        project(2, alien, T)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        contract(T, [(alien, (2,))], 2)


def test_contract_errors():
    T = tape_wa(46)
    for tapes in ((0,), (3,)):  # tapes are 1-based
        with pytest.raises(ValueError):
            contract(T, [(seeded_wa(47), tapes)], 2)
    with pytest.raises(ValueError):  # alphabet mismatch
        contract(T, [(seeded_wa(48, alphabet=AB), (1,))], 2)
    with pytest.raises(ValueError):  # a 2-tape factor on one tape
        contract(T, [(tape_wa(49), (1,))], 2)


def test_algebra_refuses_automata_it_cannot_combine():
    A, alien, two_tape = seeded_wa(53), seeded_wa(54, alphabet=AB), tape_wa(55)
    for combine in (add, kron):
        with pytest.raises(ValueError, match="alphabet/arity mismatch"):
            combine(A, alien)
    with pytest.raises(ValueError, match="1-alphabet"):
        pi1(A, two_tape, 2)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        pi1(A, alien, 2)
    with pytest.raises(ValueError, match="1-alphabet"):
        pi0(two_tape, 2)


def test_hmm_and_spmat_refuse_other_shapes():
    half = {(s,): SpMat.from_dense([[Rat(1, 2)]]) for s in B}
    with pytest.raises(ValueError, match="1-alphabet"):
        hmm.Hmm(tape_wa(56))
    with pytest.raises(ValueError, match="all-ones"):
        hmm.Hmm(NAlphabetWA([B], [ONE], half, [Rat(1, 2)]))
    hmm.Hmm(NAlphabetWA([B], [ONE], half, [ONE]))
    with pytest.raises(ValueError, match="not square"):
        SpMat.from_dense([["1", "0"]])


# ---------------------------------------------------------------------------
# DFA embedding


def test_dfa_single_word():
    AB = ("a", "b")
    A = dfa_to_wa([AB], [0, 1, 2, 3], 0,
                  {(0, ("a",)): 1, (1, ("b",)): 2}, {2})
    for n in range(3):
        for w in words(AB, n):
            assert eval_wa(A, (w,)) == (1 if w == "ab" else 0)


def test_dfa_no_finals():
    A = dfa_to_wa([B], [0], 0, {(0, (s,)): 0 for s in B}, set())
    for w in ("", "0", "11"):
        assert eval_wa(A, (w,)) == 0


def test_two_alphabet_dfa():
    # accepts exactly the synchronized pair ("b", "1")
    AB = ("a", "b")
    A = dfa_to_wa([AB, B], [0, 1], 0, {(0, ("b", "1")): 1}, {1})
    assert eval_wa(A, ("b", "1")) == 1
    assert eval_wa(A, ("a", "0")) == 0


@pytest.mark.parametrize("states, initial, delta, finals", [
    ([0, 1], 2, {(0, ("0",)): 1}, {1}),       # unknown initial state
    ([0, 1], 0, {(0, ("0",)): 1}, {2}),       # unknown final state
    ([0, 1], 0, {(0, ("0",)): 2}, {1}),       # transition to an unknown state
    ([0, 1], 0, {(2, ("0",)): 1}, {1}),       # transition from one
    ([0, 1], 0, {(0, ("0", "1")): 1}, {1}),   # a key of the wrong arity
], ids=["initial", "final", "target", "source", "arity"])
def test_dfa_refusals(states, initial, delta, finals):
    with pytest.raises(ValueError):
        dfa_to_wa([B], states, initial, delta, finals)


def test_chain_steps_where_step_allows():
    # position q accepts only the symbol "1" at even q
    A = chain_wa([B], 4, lambda q, key: q % 2 or key == ("1",))
    assert A.dim == 5
    for n in range(6):
        for w in words(B, n):
            expect = n == 4 and w[1] == w[3] == "1"
            assert eval_wa(A, (w,)) == expect


# ---------------------------------------------------------------------------
# wa_from_parts


def test_from_parts_equals_the_hand_built_automaton():
    # states "p", "q", "r" are numbered 0, 1, 2 in the order given
    A = wa_from_parts(
        [B], ["p", "q", "r"], {"p": Rat(1, 2), "r": Rat(-1)},
        {("p", ("0",), "q"): Rat(2), ("q", ("1",), "q"): Rat(1, 3),
         ("q", ("0",), "r"): Rat(-2), ("r", ("1",), "p"): ONE},
        {"q": ONE, "r": Rat(3)})
    hand = NAlphabetWA([B], [Rat(1, 2), ZERO, Rat(-1)], {
        ("0",): SpMat.from_dense([[0, 2, 0], [0, 0, -2], [0, 0, 0]]),
        ("1",): SpMat.from_dense([[0, 0, 0], [0, Rat(1, 3), 0], [1, 0, 0]])},
        [ZERO, ONE, Rat(3)])
    assert A.alpha == hand.alpha and A.beta == hand.beta
    assert A.transitions == hand.transitions
    for n in range(4):
        for w in words(B, n):
            assert eval_wa(A, (w,)) == eval_wa(hand, (w,))


def test_from_parts_zero_weight_leaves_no_entry():
    A = wa_from_parts([B], [0, 1], {0: ONE},
                      {(0, ("0",), 1): ZERO, (0, ("1",), 1): ONE,
                       (1, ("1",), 1): Rat(0, 5)}, {1: ONE})
    assert set(A.transitions) == {("1",)}
    assert A.transitions[("1",)].rows == {0: {1: ONE}}


def test_from_parts_stores_a_built_one_as_the_shared_one():
    # a weight equal to 1 that is another object, such as randgen's
    # Rat(3, 3), is stored as ONE, which the kernels skip
    one, zero = Rat(3, 3), Rat(0, 4)
    assert one is not ONE and zero is not ZERO
    A = wa_from_parts([B], [0, 1], {0: one, 1: zero},
                      {(0, ("0",), 1): one, (1, ("1",), 1): Rat(2, 3)},
                      {0: zero, 1: one})
    assert A.transitions[("0",)].rows[0][1] is ONE
    assert A.transitions[("1",)].rows[1][1] == Rat(2, 3)
    assert A.alpha[0] is ONE and A.beta[1] is ONE
    assert A.alpha[1] is ZERO and A.beta[0] is ZERO


@pytest.mark.parametrize("states, alpha, edges, beta", [
    ([0, 1], {2: ONE}, {}, {1: ONE}),                    # initial weight
    ([0, 1], {0: ONE}, {}, {"x": ONE}),                  # final weight
    ([0, 1], {0: ONE}, {(0, ("0",), 2): ONE}, {1: ONE}),  # edge target
    ([0, 1], {0: ONE}, {(2, ("0",), 1): ONE}, {1: ONE}),  # edge source
    ([0, 1, 0], {0: ONE}, {}, {1: ONE}),                 # a state twice
], ids=["alpha", "beta", "target", "source", "repeated"])
def test_from_parts_refuses_unknown_states(states, alpha, edges, beta):
    with pytest.raises(ValueError):
        wa_from_parts([B], states, alpha, edges, beta)


def test_spmat_sum():
    a = SpMat.from_dense([[1, 2], [0, Rat(1, 2)]])
    b = SpMat.from_dense([[0, -2], [3, Rat(1, 2)]])
    c = SpMat.from_dense([[Rat(1, 3), 0], [0, 0]])
    total = SpMat.sum(2, [a, b, c])
    assert total == SpMat.from_dense([[Rat(4, 3), 0], [3, 1]])
    assert total.rows[0] == {0: Rat(4, 3)}  # the cancelled entry is gone
    neg = SpMat.from_dense([[-1, -2], [0, Rat(-1, 2)]])
    assert SpMat.sum(2, [a, neg]).rows == {}  # so is a cancelled row
    assert SpMat.sum(3, []) == SpMat(3)
    assert SpMat.sum(2, [c]).rows[0] is not c.rows[0]  # rows are copied
    with pytest.raises(ValueError):
        SpMat.sum(2, [a, SpMat(3)])


def _constructor_calls(tree):
    """(innermost enclosing function or None, line) of each NAlphabetWA(...)
    call in a module's syntax tree."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name == "NAlphabetWA":
                    calls.append((where, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return calls


def test_only_wa_calls_the_automaton_constructor():
    # states are numbered in one place: outside `wa`, automata come from
    # wa_from_parts and the algebra; hmm_from_json builds the automaton of
    # a file's per-symbol matrices
    src = Path(__file__).resolve().parents[1] / "src" / "shapwa"
    found = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, line in _constructor_calls(tree):
            found.setdefault((path.stem, where), []).append(line)
    assert ("wa", "add") in found  # the scan sees calls
    outside = {key: lines for key, lines in found.items() if key[0] != "wa"}
    assert set(outside) <= {("hmm", "hmm_from_json")}, outside


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    A = seeded_wa(20, dim=3)
    A2 = wa_from_json(wa_to_json(A))
    for n in range(4):
        for w in words(B, n):
            assert eval_wa(A2, (w,)) == eval_wa(A, (w,))


def test_json_rejects_comma_symbols():
    obj = wa_to_json(seeded_wa(21))
    obj["alphabets"] = [["a,b", "c"]]
    with pytest.raises(ValueError):
        wa_from_json(obj)


# ---------------------------------------------------------------------------
# the entry codec costs the stored entries


def counting(monkeypatch, fn, modules):
    """Rebind fn's name in each module to a wrapper that counts its calls."""
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted, raising=False)
    return calls


def test_reading_entries_coerces_their_nonzeros(monkeypatch):
    # the identity, and a "0" entry beside each one: two distinct strings,
    # each parsed once, and every diagonal entry is the shared ONE
    n = 40
    entries = [[i, j, "1" if i == j else "0"]
               for i in range(n) for j in {i, (i + 1) % n}]
    calls = counting(monkeypatch, rational.rat, (rational, linalg))
    mat = SpMat.from_entries(n, entries)
    assert sorted(calls) == ["0", "1"]
    assert mat.rows == {i: {i: ONE} for i in range(n)}
    assert all(v is ONE for row in mat.rows.values() for v in row.values())


def sample_automata():
    """(kind, automaton) of seeded random and compiled WAs and HMMs."""
    rng = rng_for(60)
    for seed in range(3):
        yield "wa", rand_wa(rng, 2 + seed, B, density=0.3 + 0.3 * seed)
        yield "hmm", rand_hmm(rng, 1 + seed, B)
        yield "wa", dt_to_wa(rand_dt(rng, 4))
        yield "hmm", hmmvec_to_hmm(emp_to_hmmvec(rand_dataset(rng, 3, 4)))


def test_writing_formats_the_stored_entries_only(monkeypatch):
    for kind, A in sample_automata():
        calls = counting(monkeypatch, format_rat, (linalg, wa, hmm))
        if kind == "wa":
            wa_to_json(A)
            want = sum(m.nnz for m in A.transitions.values()) + 2 * A.dim
        else:
            hmm_to_json(A)
            want = sum(m.nnz for m in A.wa.transitions.values()) + A.dim
        assert len(calls) == want, kind
        monkeypatch.undo()


def test_reading_parses_the_stored_entries_only(monkeypatch):
    # each distinct string of a matrix, or of a vector, is parsed once; the
    # automaton holds what was parsed, not a copy of it
    real = rational.rat
    for kind, A in sample_automata():
        obj = wa_to_json(A) if kind == "wa" else hmm_to_json(A)
        parsed = []

        def parse(x):
            y = real(x)
            if isinstance(x, str):
                parsed.append(y)
            return y

        for module in (rational, linalg, wa):
            monkeypatch.setattr(module, "rat", parse)
        read = (wa_from_json if kind == "wa" else hmm.hmm_from_json)(obj)
        if kind == "wa":
            matrices, vectors = obj["transitions"], (obj["alpha"], obj["beta"])
        else:
            # an hmm file holds no beta
            matrices, vectors, read = obj["matrices"], (obj["alpha"],), read.wa
        want = (sum(len({x for _, _, x in entries})
                    for entries in matrices.values())
                + sum(len(set(v)) for v in vectors))
        assert len(parsed) == want, kind
        held = [x for v in (read.alpha, read.beta)[:len(vectors)] for x in v]
        held += [x for m in read.transitions.values()
                 for row in m.rows.values() for x in row.values()]
        ids = {id(x) for x in parsed}
        assert all(id(x) in ids for x in held), kind
        monkeypatch.undo()


def test_json_round_trip_keeps_every_entry():
    for kind, A in sample_automata():
        if kind == "wa":
            obj = wa_to_json(A)
            A2 = wa_from_json(obj)
            written = obj["transitions"].values()
        else:
            obj = hmm_to_json(A)
            A, A2 = A.wa, hmm.hmm_from_json(obj).wa
            written = obj["matrices"].values()
        assert (A2.alpha, A2.beta) == (A.alpha, A.beta), kind
        assert {k: m.rows for k, m in A2.transitions.items()} == \
            {k: m.rows for k, m in A.transitions.items()}, kind
        # one [row, col, value] entry per nonzero, in row-major order
        for entries in written:
            assert entries == sorted(entries)
            assert all(type(i) is int and type(j) is int and x != "0"
                       for i, j, x in entries)
        assert sum(map(len, written)) == \
            sum(m.nnz for m in A.transitions.values()), kind


# ---------------------------------------------------------------------------
# properties


@st.composite
def small_wa(draw):
    dim = draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    trans = {}
    for s in B:
        mat = SpMat(dim)
        for i in range(dim):
            for j in range(dim):
                mat.set(i, j, Rat(draw(entries)))
        trans[(s,)] = mat
    alpha = [Rat(draw(entries)) for _ in range(dim)]
    beta = [Rat(draw(entries)) for _ in range(dim)]
    return NAlphabetWA([B], alpha, trans, beta)


@settings(max_examples=40, deadline=None)
@given(small_wa(), small_wa(), st.integers(0, 3))
def test_pointwise_algebra_property(A, Bwa, n):
    S, K = add(A, Bwa), kron(A, Bwa)
    for w in words(B, n):
        fa, fb = eval_wa(A, (w,)), eval_wa(Bwa, (w,))
        assert eval_wa(S, (w,)) == fa + fb
        assert eval_wa(K, (w,)) == fa * fb
        assert eval_wa(sub(A, Bwa), (w,)) == fa - fb
        assert eval_wa(scale(Rat(-3, 2), A), (w,)) == Rat(-3, 2) * fa
