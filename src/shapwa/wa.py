"""N-Alphabet weighted automata and their exact algebra.

A weighted automaton over N synchronized tapes is a triple
(alpha, {A_t}, beta) with one square transition matrix per symbol tuple
t in Sigma_1 x ... x Sigma_N; it computes

    f(w_1, ..., w_N) = alpha^T  (prod_j A_{tuple at position j})  beta

for equal-length tapes (empty input gives alpha^T beta).  The algebra
below (add, scale, kron, project) realizes pointwise sum, scaling,
product and tape marginalization; pi1/pi0 are the fully contracted
scalar forms, computed with factored sparse matrix-vector products so
the Kronecker-product matrix is never materialized.
"""

from .linalg import SpMat, vec_to_sparse
from .rational import Rat, ZERO, ONE, format_rat, parse_rat, rat


class NAlphabetWA:
    """Immutable-by-convention weighted automaton over N tapes."""

    __slots__ = ("alphabets", "alpha", "transitions", "beta")

    def __init__(self, alphabets, alpha, transitions, beta):
        self.alphabets = tuple(tuple(a) for a in alphabets)
        if not self.alphabets:
            raise ValueError("arity must be positive")
        for ab in self.alphabets:
            if not ab:
                raise ValueError("empty alphabet")
            if len(set(ab)) != len(ab):
                raise ValueError("duplicate symbols in alphabet")
        self.alpha = tuple(rat(x) for x in alpha)
        self.beta = tuple(rat(x) for x in beta)
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
    total = ZERO
    for i, x in v.items():
        total += x * A.beta[i]
    return total


def _check_same_shape(A, B):
    if A.alphabets != B.alphabets:
        raise ValueError("alphabet/arity mismatch")


def add(A, B):
    """Block-diagonal sum: f_{A+B} = f_A + f_B, dim adds."""
    _check_same_shape(A, B)
    trans = {}
    for key in set(A.transitions) | set(B.transitions):
        ma = A.transitions.get(key, SpMat(A.dim))
        mb = B.transitions.get(key, SpMat(B.dim))
        trans[key] = ma.block_diag(mb)
    return NAlphabetWA(A.alphabets, A.alpha + B.alpha, trans, A.beta + B.beta)


def scale(c, A):
    """Scalar multiple: only alpha is scaled, f_{cA} = c f_A."""
    c = rat(c)
    return NAlphabetWA(A.alphabets, tuple(c * x for x in A.alpha),
                       dict(A.transitions), A.beta)


def sub(A, B):
    return add(A, scale(Rat(-1), B))


def _kron_vec(a, b):
    return tuple(x * y for x in a for y in b)


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
    """
    if T.arity < 2:
        raise ValueError("projection needs arity >= 2")
    if not (1 <= i <= T.arity):
        raise ValueError("tape index out of range")
    if A.arity != 1 or A.alphabets[0] != T.alphabets[i - 1]:
        raise ValueError("alphabet mismatch between A and tape i of T")
    idx = i - 1
    out_alphabets = T.alphabets[:idx] + T.alphabets[idx + 1:]
    acc = {}
    for key, mt in T.transitions.items():
        ma = A.transitions.get((key[idx],))
        if ma is None:
            continue
        rest = key[:idx] + key[idx + 1:]
        piece = ma.kron(mt)
        if rest in acc:
            acc[rest] = acc[rest] + piece
        else:
            acc[rest] = piece
    return NAlphabetWA(out_alphabets, _kron_vec(A.alpha, T.alpha), acc,
                       _kron_vec(A.beta, T.beta))


def contract(T, weights, length):
    """Fully contract T against per-tape 1-alphabet weight automata.

    Returns sum over all tape assignments (w_1..w_N) in Sigma_1^length x ...
    of f_T(w_1..w_N) * prod_j f_{weights[j]}(w_j), where a None weight means
    the tape is summed with weight 1.  The product automaton is applied in
    factored form: the state is (T state, weight states), never a dense
    Kronecker matrix.
    """
    if len(weights) != T.arity:
        raise ValueError("one weight (or None) per tape required")
    slots = []
    for j, W in enumerate(weights):
        if W is None:
            continue
        if W.arity != 1 or W.alphabets[0] != T.alphabets[j]:
            raise ValueError(f"weight alphabet mismatch on tape {j + 1}")
        slots.append(j)

    v = {}
    for it, xt in enumerate(T.alpha):
        if xt == 0:
            continue
        combos = [((it,), xt)]
        for j in slots:
            W = weights[j]
            combos = [(pref + (iw,), y * xw)
                      for pref, y in combos
                      for iw, xw in enumerate(W.alpha) if xw != 0]
        for state, y in combos:
            v[state] = v.get(state, ZERO) + y

    for _ in range(length):
        nv = {}
        for key, mt in T.transitions.items():
            wmats = []
            skip = False
            for j in slots:
                m = weights[j].transitions.get((key[j],))
                if m is None:
                    skip = True
                    break
                wmats.append(m)
            if skip:
                continue
            for state, x in v.items():
                trow = mt.rows.get(state[0])
                if not trow:
                    continue
                combos = [((), x)]
                for slot, m in enumerate(wmats):
                    row = m.rows.get(state[1 + slot])
                    if not row:
                        combos = []
                        break
                    combos = [(pref + (j2,), y * b)
                              for pref, y in combos for j2, b in row.items()]
                if not combos:
                    continue
                for t2, a in trow.items():
                    for pref, y in combos:
                        k2 = (t2, *pref)
                        nv[k2] = nv.get(k2, ZERO) + a * y
        v = {k: x for k, x in nv.items() if x != 0}

    total = ZERO
    for state, x in v.items():
        term = x * T.beta[state[0]]
        for slot, j in enumerate(slots):
            term *= weights[j].beta[state[1 + slot]]
        total += term
    return total


def pi1(A, B, length):
    """sum over w in Sigma^length of f_A(w) * f_B(w)."""
    if A.arity != 1 or B.arity != 1:
        raise ValueError("pi1 takes 1-alphabet automata")
    if A.alphabets != B.alphabets:
        raise ValueError("alphabet mismatch")
    return contract(B, [A], length)


def pi0(A, length):
    """sum over w in Sigma^length of f_A(w)."""
    if A.arity != 1:
        raise ValueError("pi0 takes a 1-alphabet automaton")
    return contract(A, [None], length)


class NAlphabetDFA:
    """Deterministic acceptor over N synchronized tapes.

    states are arbitrary hashables; delta maps (state, symbol tuple) to a
    state and is partial (missing key = reject).
    """

    def __init__(self, alphabets, states, initial, delta, finals):
        self.alphabets = tuple(tuple(a) for a in alphabets)
        self.states = list(states)
        if initial not in set(self.states):
            raise ValueError("initial state unknown")
        self.initial = initial
        state_set = set(self.states)
        for (q, key), q2 in delta.items():
            if q not in state_set or q2 not in state_set:
                raise ValueError("transition over unknown state")
            if len(key) != len(self.alphabets):
                raise ValueError("tuple arity mismatch")
        self.delta = dict(delta)
        self.finals = set(finals)
        if not self.finals <= state_set:
            raise ValueError("final state unknown")

    def accepts(self, words):
        q = self.initial
        length = len(words[0]) if words else 0
        for j in range(length):
            key = tuple(w[j] for w in words)
            q = self.delta.get((q, key))
            if q is None:
                return False
        return q in self.finals


def dfa_to_wa(D):
    """0/1 indicator automaton of a DFA's language."""
    index = {q: i for i, q in enumerate(D.states)}
    n = len(D.states)
    alpha = [ZERO] * n
    alpha[index[D.initial]] = ONE
    beta = [ONE if q in D.finals else ZERO for q in D.states]
    trans = {}
    for (q, key), q2 in D.delta.items():
        mat = trans.setdefault(key, SpMat(n))
        mat.set(index[q], index[q2], ONE)
    return NAlphabetWA(D.alphabets, alpha, trans, beta)


# ---------------------------------------------------------------------------
# JSON serialization


def wa_to_json(A):
    return {
        "alphabets": [list(ab) for ab in A.alphabets],
        "alpha": [format_rat(x) for x in A.alpha],
        "beta": [format_rat(x) for x in A.beta],
        "transitions": {
            ",".join(key): [[format_rat(x) for x in row] for row in mat.to_dense()]
            for key, mat in sorted(A.transitions.items())
        },
    }


def wa_from_json(obj):
    alphabets = [list(ab) for ab in obj["alphabets"]]
    for ab in alphabets:
        for s in ab:
            if "," in s:
                raise ValueError("symbols may not contain ','")
    alpha = [parse_rat(x) for x in obj["alpha"]]
    beta = [parse_rat(x) for x in obj["beta"]]
    trans = {}
    for key, rows in obj.get("transitions", {}).items():
        sym = tuple(key.split(","))
        trans[sym] = SpMat.from_dense([[parse_rat(x) for x in row] for row in rows])
    return NAlphabetWA(alphabets, alpha, trans, beta)
