"""Compilers from tabular models/distributions to automata.

Models (decision trees, regression ensembles, linear models) become
1-alphabet weighted automata; distribution families (empirical,
independent, Markov, Naive Bayes, HmmVec) become HMMs or HmmVecs.
A tabular input x is explained through its sequentialization
x_{order(1)} ... x_{order(n)}; the same order must be applied to the
model and the distribution (identity by default).
"""

from .hmm import Hmm
from .linalg import SpMat
from .models import HmmVec
from .rational import Rat, ZERO, ONE
from .wa import NAlphabetWA, NAlphabetDFA, add, dfa_to_wa, scale


def feature_order(order, n):
    """order as a tuple (the identity 1..n when empty); ValueError unless
    it is a permutation of the n features."""
    order = tuple(order) if order else tuple(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {list(order)} is not a permutation of 1..{n}")
    return order


def sequentialize(x, order):
    """x_{order(1)} ... x_{order(n)}."""
    return "".join(x[j - 1] for j in order)


def constant_wa(c, alphabet):
    """Single-state automaton outputting c on every word."""
    alphabet = tuple(alphabet)
    trans = {(s,): SpMat.from_dense([[ONE]]) for s in alphabet}
    return NAlphabetWA([alphabet], [Rat(c)], trans, [ONE])


def _leaf_chain(constraints, n, order, alphabet):
    # chain DFA accepting exactly the inputs routed to this leaf
    delta = {}
    for pos in range(1, n + 1):
        feature = order[pos - 1]
        required = constraints.get(feature)
        for s in alphabet:
            if required is None or s == required:
                delta[(pos, (s,))] = pos + 1
    return dfa_to_wa(NAlphabetDFA([alphabet], range(1, n + 2), 1, delta,
                                  {n + 1}))


def dt_to_wa(tree, order=None):
    """Sum of value-scaled per-leaf chain acceptors; size O(#leaves * n)."""
    order = feature_order(order, tree.n)
    total = None
    for constraints, value in tree.leaves():
        piece = scale(value, _leaf_chain(constraints, tree.n, order,
                                         tree.domain))
        total = piece if total is None else add(total, piece)
    return total


def ensemble_reg_to_wa(ensemble, order=None):
    if ensemble.mode != "regression":
        raise ValueError(
            "vote-classification ensembles cannot be compiled to a WA; "
            "their SHAP values are intractable in general")
    total = None
    for tree, w in zip(ensemble.trees, ensemble.weights):
        piece = scale(w, dt_to_wa(tree, order))
        total = piece if total is None else add(total, piece)
    return total


def linear_to_wa(model, order=None):
    """Two-rail accumulator (dim 2(n+1)) plus a constant intercept state.

    The carry rail threads position; each step either stays on the carry
    rail (weight 1) or drops onto the sum rail picking up w_{feature, symbol};
    the sum rail then carries weight 1 to the end.  The resulting function is
    sum_i w_{i, x_i}, to which the single-state constant automaton adds b.
    """
    n = model.n
    order = feature_order(order, n)
    dim = 2 * (n + 1)

    def carry(j):   # j in 0..n
        return j

    def summed(j):  # j in 0..n
        return n + 1 + j

    trans = {}
    for s in model.domain:
        mat = SpMat(dim)
        for j in range(1, n + 1):
            feature = order[j - 1]
            mat.set(carry(j - 1), carry(j), ONE)
            w = model.weight(feature, s)
            if w != 0:
                mat.set(carry(j - 1), summed(j), w)
            mat.set(summed(j - 1), summed(j), ONE)
        trans[(s,)] = mat
    alpha = [ZERO] * dim
    alpha[carry(0)] = ONE
    beta = [ZERO] * dim
    beta[summed(n)] = ONE
    rails = NAlphabetWA([model.domain], alpha, trans, beta)
    return add(rails, constant_wa(model.intercept, model.domain))


# ---------------------------------------------------------------------------
# distribution compilers


def emp_to_hmmvec(dataset, order=None, domain=None):
    """Prefix-tree automaton of the sequentialized rows; exactly empirical."""
    n = dataset.n
    order = feature_order(order, n)
    domain = tuple(domain) if domain else dataset.domain()
    rows = [sequentialize(r, order) for r in dataset.rows]
    total = len(rows)

    counts = {}
    for r in rows:
        for j in range(n + 1):
            counts[r[:j]] = counts.get(r[:j], 0) + 1
    prefixes = sorted(counts, key=lambda p: (len(p), p))
    index = {p: k for k, p in enumerate(prefixes)}
    dim = len(prefixes)

    alpha = [ZERO] * dim
    alpha[index[""]] = ONE
    transitions, emissions = [], []
    for j in range(1, n + 1):
        T = [[ZERO] * dim for _ in range(dim)]
        O = [[ZERO] * len(domain) for _ in range(dim)]
        for p, k in index.items():
            if len(p) == j - 1:
                for s in domain:
                    child = p + s
                    if child in index:
                        T[k][index[child]] = Rat(counts[child], counts[p])
            else:
                T[k][k] = ONE
        for p, k in index.items():
            if len(p) == j and p:
                O[k][domain.index(p[-1])] = ONE
            else:
                O[k][0] = ONE  # unreachable as an emission source
        transitions.append(T)
        emissions.append(O)
    return HmmVec(order, alpha, transitions, emissions, domain)


def hmmvec_to_hmm(m):
    """Layered stationary HMM: layers 0..n plus one absorbing uniform state.

    The HMM distributes over sequentialized words; the prefix probability at
    length n equals m.prob on the corresponding tabular input.
    """
    dim = len(m.alpha)
    n = m.n
    domain = m.domain
    u = Rat(1, len(domain))

    def state(j, s):
        return j * dim + s

    dummy = (n + 1) * dim
    total = dummy + 1
    trans = {}
    for si, sym in enumerate(domain):
        mat = SpMat(total)
        for j in range(n):
            T, O = m.transitions[j], m.emissions[j]
            for s in range(dim):
                for t in range(dim):
                    v = T[s][t] * O[t][si]
                    if v != 0:
                        mat.set(state(j, s), state(j + 1, t), v)
        for s in range(dim):
            mat.set(state(n, s), dummy, u)
        mat.set(dummy, dummy, u)
        trans[(sym,)] = mat
    alpha = [ZERO] * total
    for s, x in enumerate(m.alpha):
        if x != 0:
            alpha[state(0, s)] = x
    return Hmm(NAlphabetWA([domain], alpha, trans, [ONE] * total))


def ind_to_hmmvec(dist, order=None):
    """Independent product as a single-state HmmVec."""
    n = dist.n
    order = feature_order(order, n)
    domain = dist.domain
    transitions = [[[ONE]] for _ in range(n)]
    emissions = [[[dist.marginals[order[j] - 1].get(d, ZERO) for d in domain]]
                 for j in range(n)]
    return HmmVec(order, [ONE], transitions, emissions, domain)


def markov_to_hmm(dist):
    """Markov chain as an HMM: hidden state = last emitted symbol."""
    domain = dist.domain
    k = len(domain)
    dim = k + 1  # state 0 is the pre-start state
    trans = {}
    for si, sym in enumerate(domain):
        mat = SpMat(dim)
        p0 = dist.init.get(sym, ZERO)
        if p0 != 0:
            mat.set(0, 1 + si, p0)
        for ai, a in enumerate(domain):
            p = dist.trans.get(a, {}).get(sym, ZERO)
            if p != 0:
                mat.set(1 + ai, 1 + si, p)
        if mat.rows:
            trans[(sym,)] = mat
    alpha = [ONE] + [ZERO] * k
    return Hmm(NAlphabetWA([domain], alpha, trans, [ONE] * dim))


def nb_to_hmmvec(dist, order=None):
    """Naive Bayes as an HmmVec whose hidden state is the frozen class."""
    n = dist.n
    order = feature_order(order, n)
    classes = sorted(dist.prior)
    domain = dist.domain
    dim = len(classes)
    alpha = [dist.prior[y] for y in classes]
    eye = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
    transitions = [eye for _ in range(n)]
    emissions = [[[dist.tables[order[j] - 1][y].get(d, ZERO) for d in domain]
                  for y in classes] for j in range(n)]
    return HmmVec(order, alpha, transitions, emissions, domain)
