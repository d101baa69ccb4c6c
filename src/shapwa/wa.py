"""N-Alphabet weighted automata and their exact algebra.

A weighted automaton over N synchronized tapes is a triple
(alpha, {A_t}, beta) with one square transition matrix per symbol tuple
t in Sigma_1 x ... x Sigma_N; it computes

    f(w_1, ..., w_N) = alpha^T  (prod_j A_{tuple at position j})  beta

for equal-length tapes (empty input gives alpha^T beta).  The algebra
below (add, scale, kron, project) realizes pointwise sum, scaling,
product and tape marginalization; contract (and its forms pi1/pi0)
sums an automaton times weight automata on its tapes down to a scalar,
with factored sparse matrix-vector products so the Kronecker-product
matrix is never materialized.  Every 0/1 automaton is the indicator of a
deterministic acceptor, built by dfa_to_wa or, for a chain that steps
one position per symbol, by chain_wa; every other automaton is built
from its parts by wa_from_parts, the one place that numbers states.
"""

from itertools import product

from .linalg import SpMat, vec_to_sparse
from .rational import (Rat, ZERO, ONE, as_list, dot, exact, format_rat, rat,
                       rats, times)


class NAlphabetWA:
    """Immutable-by-convention weighted automaton over N tapes.  Symbols
    are one-character strings, so a tape's word is the string of its
    symbols."""

    __slots__ = ("alphabets", "alpha", "transitions", "beta")

    def __init__(self, alphabets, alpha, transitions, beta):
        self.alphabets = tuple(tuple(a) for a in alphabets)
        if not self.alphabets:
            raise ValueError("arity must be positive")
        for ab in self.alphabets:
            if not ab:
                raise ValueError("empty alphabet")
            if not all(isinstance(s, str) and len(s) == 1 for s in ab):
                raise ValueError(f"symbols must be one-character strings: "
                                 f"{list(ab)}")
            if len(set(ab)) != len(ab):
                raise ValueError("duplicate symbols in alphabet")
        self.alpha = tuple(rats(alpha))
        self.beta = tuple(rats(beta))
        n = len(self.alpha)
        if len(self.beta) != n:
            raise ValueError("alpha/beta length mismatch")
        self.transitions = {}
        sets = [set(ab) for ab in self.alphabets]
        for key, mat in transitions.items():
            key = tuple(key)
            if len(key) != len(self.alphabets):
                raise ValueError(f"tuple arity mismatch: {key}")
            for s, ab in zip(key, sets):
                if s not in ab:
                    raise ValueError(f"symbol {s!r} not in its alphabet")
            if mat.n != n:
                raise ValueError("transition matrix dimension mismatch")
            if mat.rows:
                self.transitions[key] = mat

    @property
    def arity(self):
        return len(self.alphabets)

    @property
    def dim(self):
        return len(self.alpha)

    def __repr__(self):
        return f"NAlphabetWA(arity={self.arity}, dim={self.dim})"


def _check_words(A, words):
    words = tuple(words)
    if len(words) != A.arity:
        raise ValueError(f"expected {A.arity} tapes, got {len(words)}")
    lengths = {len(w) for w in words}
    if len(lengths) > 1:
        raise ValueError(f"tape length mismatch: {sorted(lengths)}")
    for w, ab in zip(words, A.alphabets):
        allowed = set(ab)
        for s in w:
            if s not in allowed:
                raise ValueError(f"symbol {s!r} not in alphabet {ab}")
    return words


def eval_wa(A, words):
    """alpha^T (prod A_tuple) beta over the synchronized tapes."""
    words = _check_words(A, words)
    v = vec_to_sparse(A.alpha)
    length = len(words[0]) if words else 0
    for j in range(length):
        key = tuple(w[j] for w in words)
        mat = A.transitions.get(key)
        if mat is None:
            return ZERO
        v = mat.vecmat(v)
        if not v:
            return ZERO
    return dot([(x, b) for i, x in v.items() if (b := A.beta[i]) != 0])


def _check_same_shape(A, B):
    if A.alphabets != B.alphabets:
        raise ValueError("alphabet/arity mismatch")


def add(A, *rest):
    """Block-diagonal sum: f_{A+B+...} = f_A + f_B + ..., dims add."""
    parts = (A, *rest)
    for B in rest:
        _check_same_shape(A, B)
    dim = sum(B.dim for B in parts)
    trans = {}
    offset = 0
    for B in parts:
        for key, mat in B.transitions.items():
            rows = trans.setdefault(key, SpMat(dim)).rows
            for i, row in mat.rows.items():
                rows[i + offset] = {j + offset: v for j, v in row.items()}
        offset += B.dim
    return NAlphabetWA(A.alphabets, [x for B in parts for x in B.alpha],
                       trans, [x for B in parts for x in B.beta])


def scale(c, A):
    """Scalar multiple: only alpha is scaled, f_{cA} = c f_A."""
    c = rat(c)
    return NAlphabetWA(A.alphabets, tuple(times(c, x) for x in A.alpha),
                       dict(A.transitions), A.beta)


def sub(A, B):
    return add(A, scale(Rat(-1), B))


def _kron_vec(a, b):
    return tuple(times(x, y) for x in a for y in b)


def kron(A, B):
    """Pointwise product: f_{A (x) B} = f_A * f_B via the mixed-product property."""
    _check_same_shape(A, B)
    trans = {}
    for key, ma in A.transitions.items():
        mb = B.transitions.get(key)
        if mb is not None:
            trans[key] = ma.kron(mb)
    return NAlphabetWA(A.alphabets, _kron_vec(A.alpha, B.alpha), trans,
                       _kron_vec(A.beta, B.beta))


def project(i, A, T):
    """Marginalize tape i (1-based) of T against the 1-tape WA A.

    Realizes g(..) = sum over w in Sigma_i^L of f_A(w) * f_T(.., w at i, ..).
    Per remaining tuple the matrix is sum_sigma A_sigma (x) T_{..sigma..}.
    A's symbols may be any subset of tape i's; a symbol A lacks has no
    matrix, so f_A is 0 on every word that holds it.
    """
    if T.arity < 2:
        raise ValueError("projection needs arity >= 2")
    if not (1 <= i <= T.arity):
        raise ValueError("tape index out of range")
    if A.arity != 1 or not set(A.alphabets[0]) <= set(T.alphabets[i - 1]):
        raise ValueError("alphabet mismatch between A and tape i of T")
    idx = i - 1
    out_alphabets = T.alphabets[:idx] + T.alphabets[idx + 1:]
    pieces = {}
    for key, mt in T.transitions.items():
        ma = A.transitions.get((key[idx],))
        if ma is not None:
            pieces.setdefault(key[:idx] + key[idx + 1:], []).append(ma.kron(mt))
    dim = A.dim * T.dim
    return NAlphabetWA(out_alphabets, _kron_vec(A.alpha, T.alpha),
                       {rest: SpMat.sum(dim, mats)
                        for rest, mats in pieces.items()},
                       _kron_vec(A.beta, T.beta))


def contract(T, factors, length):
    """Fully contract T against weight automata that read its tapes.

    factors is a list of (W, tapes) pairs: tape k of W reads tape tapes[k]
    (1-based) of T.  A factor may read several tapes and several factors
    may read one tape; a tape no factor reads is summed with weight 1.
    Returns the sum over all tape assignments (w_1..w_N) in
    Sigma_1^length x ... x Sigma_N^length of
    f_T(w_1..w_N) * prod over (W, tapes) of f_W(w_t for t in tapes).
    Each tape of W reads any subset of its tape's symbols, in any order;
    a symbol W lacks has no matrix, as in project.
    The product automaton is applied in factored form: the state is
    (factor states, T state), never a dense Kronecker matrix.  Each entry
    of the next vector, and the result, is one `rational.dot` of its
    terms; the factor weights of a term are multiplied by
    `rational.times`.
    """
    for W, tapes in factors:
        if not all(1 <= t <= T.arity for t in tapes):
            raise ValueError(f"tape index out of range in {tuple(tapes)}")
        if len(W.alphabets) != len(tapes) or not all(
                set(ab) <= set(T.alphabets[t - 1])
                for ab, t in zip(W.alphabets, tapes)):
            raise ValueError(f"alphabet mismatch on tapes {tuple(tapes)}")
    # per tuple of T, the factor matrices it selects, T's own last; a tuple
    # some factor has no matrix for contributes nothing
    steps = []
    for key, mt in T.transitions.items():
        mats = [W.transitions.get(tuple(key[t - 1] for t in tapes))
                for W, tapes in factors]
        if all(m is not None for m in mats):
            steps.append((*mats, mt))
    vectors = [W.alpha for W, _ in factors] + [T.alpha]
    finals = [W.beta for W, _ in factors]

    v = {(): ONE}
    for vec in vectors:
        v = {state + (j,): times(x, y) for state, x in v.items()
             for j, y in enumerate(vec) if y != 0}
    for _ in range(length):
        terms = {}
        for state, x in v.items():
            for mats in steps:
                rows = [m.rows.get(s) for m, s in zip(mats, state)]
                if not all(rows):
                    continue
                combos = [((), x)]
                for row in rows[:-1]:
                    combos = [(pref + (j,), times(y, b))
                              for pref, y in combos for j, b in row.items()]
                for pref, y in combos:
                    for j, b in rows[-1].items():
                        terms.setdefault(pref + (j,), []).append((y, b))
        v = {k: x for k, t in terms.items() if (x := dot(t)) is not ZERO}

    ends = []
    for state, x in v.items():
        for vec, s in zip(finals, state):
            x = times(x, vec[s])
        ends.append((x, T.beta[state[-1]]))
    return dot(ends)


def pi1(A, B, length):
    """sum over w in Sigma^length of f_A(w) * f_B(w)."""
    if A.arity != 1 or B.arity != 1:
        raise ValueError("pi1 takes 1-alphabet automata")
    if A.alphabets != B.alphabets:
        raise ValueError("alphabet mismatch")
    return contract(B, [(A, (1,))], length)


def pi0(A, length):
    """sum over w in Sigma^length of f_A(w)."""
    if A.arity != 1:
        raise ValueError("pi0 takes a 1-alphabet automaton")
    return contract(A, [], length)


def wa_from_parts(alphabets, states, alpha, edges, beta):
    """The weighted automaton with the given parts over N tapes.

    states are arbitrary hashables, numbered in the order given; alpha and
    beta map a state to its initial and final weight, and edges maps
    (state, symbol tuple, state) to a weight.  Absent means 0, and a zero
    weight leaves no matrix entry.  Every weight is read by rat and stored
    through `rational.exact`, so a weight equal to 1, such as Rat(3, 3),
    is the shared ONE that the kernels skip.  ValueError on an unknown or a
    repeated state.
    """
    states = list(states)
    index = {q: k for k, q in enumerate(states)}
    n = len(states)
    if len(index) != n:
        raise ValueError("duplicate state")

    if not (alpha.keys() | beta.keys()) <= index.keys():
        raise ValueError("initial or final weight on an unknown state")
    rows = {}
    for (q, key, q2), x in edges.items():
        i, j = index.get(q), index.get(q2)
        if i is None or j is None:
            raise ValueError("transition over unknown state")
        if x != 0:
            rows.setdefault(key, {}).setdefault(i, {})[j] = exact(rat(x))
    return NAlphabetWA(alphabets,
                       [exact(rat(alpha.get(q, ZERO))) for q in states],
                       {key: SpMat(n, r) for key, r in rows.items()},
                       [exact(rat(beta.get(q, ZERO))) for q in states])


def dfa_to_wa(alphabets, states, initial, delta, finals):
    """0/1 indicator automaton of a deterministic acceptor over N tapes.

    states are arbitrary hashables; delta maps (state, symbol tuple) to a
    state and is partial (missing key = reject).
    """
    return wa_from_parts(alphabets, states, {initial: ONE},
                         {(q, key, q2): ONE for (q, key), q2 in delta.items()},
                         dict.fromkeys(finals, ONE))


def chain_wa(alphabets, length, step):
    """0/1 acceptor of the length-`length` tapes whose symbol tuple at each
    position q (1-based) satisfies step(q, key): states 1..length+1, where
    q steps to q+1."""
    keys = list(product(*alphabets))
    delta = {(q, key): q + 1 for q in range(1, length + 1) for key in keys
             if step(q, key)}
    return dfa_to_wa(alphabets, range(1, length + 2), 1, delta, {length + 1})


# ---------------------------------------------------------------------------
# JSON serialization


def wa_to_json(A):
    return {
        "alphabets": [list(ab) for ab in A.alphabets],
        "alpha": [format_rat(x) for x in A.alpha],
        "beta": [format_rat(x) for x in A.beta],
        "transitions": {
            ",".join(key): mat.to_entries()
            for key, mat in sorted(A.transitions.items())
        },
    }


def wa_from_json(obj):
    alphabets = [list(as_list(ab, "symbols"))
                 for ab in as_list(obj["alphabets"], "alphabets")]
    for ab in alphabets:
        for s in ab:
            if "," in s:
                raise ValueError("symbols may not contain ','")
    alpha = rats(obj["alpha"])
    trans = {tuple(key.split(",")): SpMat.from_entries(len(alpha), entries)
             for key, entries in obj.get("transitions", {}).items()}
    return NAlphabetWA(alphabets, alpha, trans, rats(obj["beta"]))
