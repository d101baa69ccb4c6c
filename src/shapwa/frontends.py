"""Compilers from tabular models/distributions to automata.

Models (decision trees, regression ensembles, linear models) become
1-alphabet weighted automata; distribution families (empirical,
independent, Markov, Naive Bayes, HmmVec) become HMMs or HmmVecs.
A tabular input x is explained through its sequentialization
x_{order(1)} ... x_{order(n)}; the same order must be applied to the
model and the distribution (identity by default).
"""

from collections import Counter
from itertools import product

from .hmm import Hmm
from .models import HmmVec, NaiveBayes
from .rational import Rat, ZERO, ONE
from .wa import add, chain_wa, scale, wa_from_parts


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


def _leaf_chain(constraints, n, order, alphabet):
    # chain acceptor of exactly the inputs routed to this leaf
    def step(q, key):
        required = constraints.get(order[q - 1])
        return required is None or key == (required,)

    return chain_wa([alphabet], n, step)


def dt_to_wa(tree, order=None):
    """Sum of value-scaled per-leaf chain acceptors; size O(#leaves * n)."""
    order = feature_order(order, tree.n)
    return add(*(scale(value, _leaf_chain(constraints, tree.n, order,
                                          tree.domain))
                 for constraints, value in tree.leaves()))


def ensemble_reg_to_wa(ensemble, order=None):
    if ensemble.mode != "regression":
        raise ValueError(
            "vote-classification ensembles cannot be compiled to a WA; "
            "their SHAP values are intractable in general")
    return add(*(scale(w, dt_to_wa(tree, order))
                 for tree, w in zip(ensemble.trees, ensemble.weights)))


def linear_to_wa(model, order=None):
    """Two-rail accumulator (dim 2(n+1)) plus a constant intercept state.

    The carry rail threads position; each step either stays on the carry
    rail (weight 1) or drops onto the sum rail picking up w_{feature, symbol};
    the sum rail then carries weight 1 to the end.  The rails compute
    sum_i w_{i, x_i}; the intercept state reads every word with weight 1
    and adds b.
    """
    n = model.n
    order = feature_order(order, n)
    edges = {}
    for s in model.domain:
        key = (s,)
        for j in range(1, n + 1):
            edges[("carry", j - 1), key, ("carry", j)] = ONE
            edges[("carry", j - 1), key, ("sum", j)] = model.weight(
                order[j - 1], s)
            edges[("sum", j - 1), key, ("sum", j)] = ONE
        edges["intercept", key, "intercept"] = ONE
    states = [*product(("carry", "sum"), range(n + 1)), "intercept"]
    return wa_from_parts([model.domain], states,
                         {("carry", 0): ONE, "intercept": model.intercept},
                         edges, {("sum", n): ONE, "intercept": ONE})


# ---------------------------------------------------------------------------
# distribution compilers


def emp_to_hmmvec(dataset, order=None):
    """The empirical distribution of the rows, with one hidden state per
    distinct sequentialized row, in sorted order.

    State k emits row k's own symbol at every position.  The mass of a
    prefix p sits on the first row that starts with p; at the next
    position that row passes count(ps)/count(p) to the first row that
    starts with ps.  Every other row keeps an identity row and is never
    reached, so the states live at position j are the distinct prefixes
    of length j, one each.
    """
    n, domain = dataset.n, dataset.domain
    order = feature_order(order, n)
    seq = [sequentialize(r, order) for r in dataset.rows]
    rows = sorted(set(seq))
    counts = Counter(r[:j] for r in seq for j in range(n + 1))
    first = {}
    for k, r in enumerate(rows):
        for j in range(n + 1):
            first.setdefault(r[:j], k)
    dim = len(rows)

    alpha = [ONE] + [ZERO] * (dim - 1)
    transitions, emissions = [], []
    for j in range(n):
        T = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
        for p, k in first.items():
            if len(p) == j + 1:
                T[first[p[:-1]]][k] = Rat(counts[p], counts[p[:-1]])
        transitions.append(T)
        emissions.append([[ONE if s == r[j] else ZERO for s in domain]
                          for r in rows])
    return HmmVec(order, alpha, transitions, emissions, domain)


def hmmvec_to_hmm(m):
    """Layered stationary HMM: layers 0..n plus one absorbing uniform state.

    The HMM distributes over sequentialized words; the prefix probability at
    length n equals m.prob on the corresponding tabular input.
    """
    n, domain = m.n, m.domain
    width = range(len(m.alpha))
    u = Rat(1, len(domain))
    edges = {((j, s), (sym,), (j + 1, t)): x
             for j, layer in enumerate(m.layers)
             for sym, mat in layer.items()
             for s, row in mat.rows.items() for t, x in row.items()}
    for sym in domain:
        key = (sym,)
        for s in width:
            edges[(n, s), key, "end"] = u
        edges["end", key, "end"] = u
    states = [*product(range(n + 1), width), "end"]
    return Hmm(wa_from_parts([domain], states,
                             {(0, s): x for s, x in enumerate(m.alpha)},
                             edges, dict.fromkeys(states, ONE)))


def ind_to_hmmvec(dist, order=None):
    """Independent product as a one-class Naive Bayes: a single-state
    HmmVec."""
    return nb_to_hmmvec(NaiveBayes({0: ONE}, [{0: m} for m in dist.marginals],
                                   dist.domain), order)


def markov_to_hmm(dist):
    """Markov chain as an HMM: hidden state = last emitted symbol."""
    domain = dist.domain
    states = [None, *domain]  # None is the pre-start state
    edges = {}
    for sym in domain:
        key = (sym,)
        edges[None, key, sym] = dist.init.get(sym, ZERO)
        for a in domain:
            edges[a, key, sym] = dist.trans.get(a, {}).get(sym, ZERO)
    return Hmm(wa_from_parts([domain], states, {None: ONE}, edges,
                             dict.fromkeys(states, ONE)))


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
