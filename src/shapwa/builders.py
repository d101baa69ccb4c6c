"""The seven automaton builders of the paper's SHAP pipelines.

`pipeline_shap` composes A_{i,n}, T, T_i and the point distribution into
the paper's global pipeline; A_{w,i}, T_w and T_{w,i} are its local
construction.  Both are kept as exact cross-checks of the engine's
forward-backward kernel.  All builders are small layered/chain machines:

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
from .models import check_query
from .patterns import HASH
from .rational import Rat, ONE
from .wa import (chain_wa, contract, dfa_to_wa, kron, project, sub,
                 wa_from_parts)


def hash_alphabet(alphabet):
    """Sigma_# = Sigma + the reserved placeholder."""
    alphabet = tuple(alphabet)
    if HASH in alphabet:
        raise ValueError("'#' is reserved and may not appear in a data alphabet")
    return alphabet + (HASH,)


def _phi(s1, s2, s3, s4):
    # position predicate of the do-operator: copy w' under '#', copy w otherwise
    return (s1 == HASH and s3 == s2) or (s1 != HASH and s3 == s4)


def _awi_weights(n):
    # final weight at #-count k: the Shapley coalition weight (k-1)!(n-k)!/n!
    return {k: Rat(1, n * comb(n - 1, k - 1)) for k in range(1, n + 1)}


def build_A_wi(w, i, alphabet):
    """The coalition-weight automaton: f = P_i^w over patterns in Sigma_#^|w|.

    One layered automaton over states (position, #-count) whose final
    weights are indexed by the #-count, size (|w|+1)^2.
    """
    n = len(w)
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    sig_h = hash_alphabet(alphabet)
    # '#' counts; any other symbol must be w's, and never at position i
    edges = {((l, e), (sigma,), (l + 1, e + 1 if sigma == HASH else e)): ONE
             for sigma in sig_h for l in range(1, n + 1) for e in range(l)
             if sigma == HASH or (l != i and w[l - 1] == sigma)}
    final = {(n + 1, k): wt for k, wt in _awi_weights(n).items()}
    return wa_from_parts([sig_h], product(range(1, n + 2), range(n + 1)),
                         {(1, 0): ONE}, edges, final)


def build_A_in(i, n, alphabet):
    """The two-tape analogue: f(p, w) = I(w in L_p and p_i = '#') * P_i^w(p).

    Kronecker product of the membership chain DFA with a #-counting weight
    automaton lifted to ignore the second tape.
    """
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    alphabet = tuple(alphabet)
    sig_h = hash_alphabet(alphabet)

    membership = chain_wa(
        [sig_h, alphabet], n,
        lambda q, key: key[0] == HASH or (q != i and key[0] == key[1]))

    # #-counter over states 0..n, lifted to ignore the second tape
    counter = wa_from_parts(
        [sig_h, alphabet], range(n + 1), {0: ONE},
        {(e, (s1, s2), e + 1 if s1 == HASH else e): ONE
         for s1, s2 in product(sig_h, alphabet) for e in range(n + 1)
         if s1 != HASH or e < n},
        _awi_weights(n))

    return kron(membership, counter)


def build_T_w(w, alphabet):
    """Indicator g_w(p, w', u) = I(do(p, w', w) = u), a |w|+1 state chain."""
    alphabet = tuple(alphabet)
    return chain_wa([hash_alphabet(alphabet), alphabet, alphabet], len(w),
                    lambda q, key: _phi(*key, w[q - 1]))


def build_T_wi(w, i, alphabet):
    """Indicator g_{w,i}(p, w', u) = I(do(swap(p, w_i, i), w', w) = u)."""
    n = len(w)
    if not (1 <= i <= n):
        raise IndexError(f"position {i} out of range")
    alphabet = tuple(alphabet)

    def step(q, key):
        if q == i:
            return key[2] == w[q - 1]
        return _phi(*key, w[q - 1])

    return chain_wa([hash_alphabet(alphabet), alphabet, alphabet], n, step)


def build_T(alphabet):
    """Single-state indicator g(p, w', u, w) = g_w(p, w', u), w on tape 4."""
    alphabet = tuple(alphabet)
    sig_h = hash_alphabet(alphabet)
    delta = {}
    for key in product(sig_h, alphabet, alphabet, alphabet):
        if _phi(*key):
            delta[(1, key)] = 1
    return dfa_to_wa([sig_h, alphabet, alphabet, alphabet], [1], 1, delta,
                     {1})


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
    return dfa_to_wa([sig_h, alphabet, alphabet, alphabet], range(1, i + 2),
                     1, delta, {i + 1})


def build_point_hmm(w_ref, alphabet):
    """The point distribution on w_ref: prefix probability 1 on w_ref,
    uniform after its end."""
    alphabet = tuple(alphabet)
    n = len(w_ref)
    u = Rat(1, len(alphabet))
    edges = {}
    for sigma in alphabet:
        for q in range(n):
            if w_ref[q] == sigma:
                edges[q, (sigma,), q + 1] = ONE
        edges[n, (sigma,), n] = u
    return Hmm(wa_from_parts([alphabet], range(n + 1), {0: ONE}, edges,
                             dict.fromkeys(range(n + 1), ONE)))


def pipeline_shap(f, i, n, inner, outer):
    """phi_i at length n by the paper's pipeline: inputs ~ outer, replaced
    features ~ inner, each an Hmm or a word (the point distribution on it).

      phi_i = Pi0(Pi2(outer, A_{i,n} (x) Pi2(inner, Pi3(f, T_i) - Pi3(f, T))))

    The outer Pi0 . Pi2 and the product with A_{i,n} are one factored
    contraction, so no product automaton is materialized.
    """
    check_query(f, n, inner, outer, (i,))
    sig = f.alphabets[0]
    inner, outer = (build_point_hmm(side, sig) if isinstance(side, str)
                    else side for side in (inner, outer))
    diff = sub(project(3, f, build_T_i(i, sig)),
               project(3, f, build_T(sig)))
    marg = project(2, inner.wa, diff)
    return contract(marg, [(build_A_in(i, n, sig), (1, 2)),
                           (outer.wa, (2,))], n)
