"""The seven automaton builders behind the SHAP pipelines.

All of them are small layered/chain machines:

- A_{w,i}: the coalition-weight distribution over patterns (weighted);
- A_{i,n}: its two-tape, w-independent analogue (membership DFA (x)
  #-counting weight automaton);
- T_w / T_{w,i}: indicators of u = do(p, w', w) with/without position i
  forced to w_i;
- T / T_i: the same with w moved onto a fourth tape;
- f_{w_ref}: the point distribution on w_ref as an HMM.

Feature positions are 1-based.
"""

from itertools import product
from math import comb

from .hmm import Hmm
from .linalg import SpMat
from .patterns import HASH
from .rational import Rat, ZERO, ONE
from .wa import NAlphabetWA, NAlphabetDFA, dfa_to_wa, add, scale


def hash_alphabet(alphabet):
    """Sigma_# = Sigma + the reserved placeholder."""
    alphabet = tuple(alphabet)
    if HASH in alphabet:
        raise ValueError("'#' is reserved and may not appear in a data alphabet")
    return alphabet + (HASH,)


def _phi(s1, s2, s3, s4):
    # position predicate of the do-operator: copy w' under '#', copy w otherwise
    return (s1 == HASH and s3 == s2) or (s1 != HASH and s3 == s4)


def count_Lik(w, i, k):
    """Number of patterns p with w in L_p, p_i = '#', |p|_# = k."""
    n = len(w)
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range for |w|={n}")
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    return comb(n - 1, k - 1)


def _awi_weights(n):
    # final weight at #-count k: the Shapley coalition weight (k-1)!(n-k)!/n!
    return {k: Rat(1, n * comb(n - 1, k - 1)) for k in range(1, n + 1)}


def build_A_wi(w, i, alphabet=None, per_layer=False):
    """The coalition-weight automaton: f = P_i^w over patterns in Sigma_#^|w|.

    Default: one layered automaton over states (position, #-count) whose
    final weights are indexed by the #-count, size (|w|+1)^2.  With
    per_layer=True, one 0/1 acceptor per #-count is normalized and summed
    instead (size O(|w|^3)); both compute the same function.
    """
    n = len(w)
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    if alphabet is None:
        alphabet = tuple(sorted(set(w)))
    sig_h = hash_alphabet(alphabet)
    weights = _awi_weights(n)

    def state(l, e):  # l in 1..n+1, e in 0..n
        return (l - 1) * (n + 1) + e

    dim = (n + 1) * (n + 1)

    def layer_transitions():
        trans = {}
        for sigma in sig_h:
            mat = SpMat(dim)
            for l in range(1, n + 1):
                for e in range(0, l):
                    if sigma == HASH:
                        mat.set(state(l, e), state(l + 1, e + 1), ONE)
                    elif l != i and w[l - 1] == sigma:
                        mat.set(state(l, e), state(l + 1, e), ONE)
            if mat.rows:
                trans[(sigma,)] = mat
        return trans

    if not per_layer:
        alpha = [ZERO] * dim
        alpha[state(1, 0)] = ONE
        beta = [ZERO] * dim
        for k in range(1, n + 1):
            beta[state(n + 1, k)] = weights[k]
        return NAlphabetWA([sig_h], alpha, layer_transitions(), beta)

    # the sum-of-acceptors variant: for each k, the acceptor of patterns with
    # exactly k placeholders, scaled by 1/(|w| * |L_{i,k}|)
    total = None
    trans = layer_transitions()
    for k in range(1, n + 1):
        alpha = [ZERO] * dim
        alpha[state(1, 0)] = ONE
        beta = [ZERO] * dim
        beta[state(n + 1, k)] = ONE
        piece = scale(weights[k], NAlphabetWA([sig_h], alpha, trans, beta))
        total = piece if total is None else add(total, piece)
    return total


def build_A_in(i, n, alphabet):
    """The two-tape analogue: f(p, w) = I(w in L_p and p_i = '#') * P_i^w(p).

    Kronecker product of the membership chain DFA with a #-counting weight
    automaton lifted to ignore the second tape.
    """
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    alphabet = tuple(alphabet)
    sig_h = hash_alphabet(alphabet)

    delta = {}
    for q in range(1, n + 1):
        for s1, s2 in product(sig_h, alphabet):
            if q == i:
                ok = s1 == HASH
            else:
                ok = s1 == HASH or s1 == s2
            if ok:
                delta[(q, (s1, s2))] = q + 1
    membership = dfa_to_wa(NAlphabetDFA(
        [sig_h, alphabet], range(1, n + 2), 1, delta, {n + 1}))

    dim = n + 1  # #-count 0..n
    weights = _awi_weights(n)
    trans = {}
    for s1, s2 in product(sig_h, alphabet):
        mat = SpMat(dim)
        for e in range(0, n + 1):
            if s1 == HASH:
                if e < n:
                    mat.set(e, e + 1, ONE)
            else:
                mat.set(e, e, ONE)
        trans[(s1, s2)] = mat
    alpha = [ONE] + [ZERO] * n
    beta = [ZERO] * dim
    for k, wt in weights.items():
        beta[k] = wt
    counter = NAlphabetWA([sig_h, alphabet], alpha, trans, beta)

    from .wa import kron
    return kron(membership, counter)


def _chain_3tape(w, alphabet, advance):
    n = len(w)
    sig_h = hash_alphabet(alphabet)
    alphabet = tuple(alphabet)
    delta = {}
    for q in range(1, n + 1):
        for key in product(sig_h, alphabet, alphabet):
            if advance(q, key):
                delta[(q, key)] = q + 1
    return dfa_to_wa(NAlphabetDFA(
        [sig_h, alphabet, alphabet], range(1, n + 2), 1, delta, {n + 1}))


def build_T_w(w, alphabet=None):
    """Indicator g_w(p, w', u) = I(do(p, w', w) = u), a |w|+1 state chain."""
    if alphabet is None:
        alphabet = tuple(sorted(set(w)))
    return _chain_3tape(
        w, alphabet,
        lambda q, key: _phi(key[0], key[1], key[2], w[q - 1]))


def build_T_wi(w, i, alphabet=None):
    """Indicator g_{w,i}(p, w', u) = I(do(swap(p, w_i, i), w', w) = u)."""
    n = len(w)
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    if alphabet is None:
        alphabet = tuple(sorted(set(w)))

    def advance(q, key):
        if q == i:
            return key[2] == w[q - 1]
        return _phi(key[0], key[1], key[2], w[q - 1])

    return _chain_3tape(w, alphabet, advance)


def build_T(alphabet):
    """Single-state indicator g(p, w', u, w) = g_w(p, w', u), w on tape 4."""
    alphabet = tuple(alphabet)
    sig_h = hash_alphabet(alphabet)
    delta = {}
    for key in product(sig_h, alphabet, alphabet, alphabet):
        if _phi(*key):
            delta[(1, key)] = 1
    return dfa_to_wa(NAlphabetDFA(
        [sig_h, alphabet, alphabet, alphabet], [1], 1, delta, {1}))


def build_T_i(i, alphabet):
    """(i+1)-state indicator g_i(p, w', u, w) = g_{w,i}(p, w', u)."""
    if i < 1:
        raise IndexError("position must be >= 1")
    alphabet = tuple(alphabet)
    sig_h = hash_alphabet(alphabet)
    delta = {}
    for key in product(sig_h, alphabet, alphabet, alphabet):
        phi = _phi(*key)
        for q in range(1, i):
            if phi:
                delta[(q, key)] = q + 1
        if key[2] == key[3]:  # position i of u is forced to w_i
            delta[(i, key)] = i + 1
        if phi:
            delta[(i + 1, key)] = i + 1
    return dfa_to_wa(NAlphabetDFA(
        [sig_h, alphabet, alphabet, alphabet], range(1, i + 2), 1, delta,
        {i + 1}))


def build_point_hmm(w_ref, alphabet=None):
    """The point distribution on w_ref: prefix probability 1 on w_ref,
    uniform after its end."""
    if alphabet is None:
        alphabet = tuple(sorted(set(w_ref)))
    alphabet = tuple(alphabet)
    n = len(w_ref)
    dim = n + 1
    u = Rat(1, len(alphabet))
    trans = {}
    for sigma in alphabet:
        mat = SpMat(dim)
        for q in range(n):
            if w_ref[q] == sigma:
                mat.set(q, q + 1, ONE)
        mat.set(n, n, u)
        if mat.rows:
            trans[(sigma,)] = mat
    alpha = [ONE] + [ZERO] * n
    return Hmm(NAlphabetWA([alphabet], alpha, trans, [ONE] * dim))
