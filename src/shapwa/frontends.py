"""Compilers from tabular models/distributions to automata.

Trees, regression ensembles and linear models are sums of weighted cubes
and compile, through one prefix-sharing automaton, to 1-alphabet WAs;
distribution families (empirical, independent, Markov, Naive Bayes,
HmmVec) become HMMs or HmmVecs.  A tabular input x is explained through
its sequentialization x_{order(1)} ... x_{order(n)}; the same order must
be applied to the model and the distribution (identity by default).
"""

from collections import Counter
from itertools import product

from .hmm import Hmm
from .models import HmmVec, NaiveBayes
from .rational import Rat, ZERO, ONE
from .wa import wa_from_parts


def feature_order(order, n):
    """order as a tuple (the identity 1..n when empty); ValueError unless
    it is a permutation of the n features, each an int and not a bool."""
    order = tuple(order) if order else tuple(range(1, n + 1))
    if (any(type(j) is not int for j in order)
            or sorted(order) != list(range(1, n + 1))):
        raise ValueError(f"order {list(order)} is not a permutation of 1..{n}")
    return order


def sequentialize(x, order):
    """x_{order(1)} ... x_{order(n)}."""
    return "".join(x[j - 1] for j in order)


def _cubes_to_wa(cubes, n, domain, order):
    """The WA of sum of value * [x satisfies constraints] over the cubes
    (constraints, value), constraints a {feature: symbol} dict.  Read
    through order, a cube's pattern up to its last fixed position L is a
    trie path (a node is its prefix, None where the cube is free and every
    symbol steps); the step reading L carries the value into done_L of
    one chain that reads any symbol up to done_n.  Values on one step sum,
    the empty cubes' sum is done_0's initial weight, and a sum of 0 leaves
    no step, no state that leads only to it and no done state before it.
    """
    position = {j: p for p, j in enumerate(feature_order(order, n), 1)}
    trie, exits = {}, {}
    for constraints, value in ((c, v) for c, v in cubes if v):
        fixed = {position[j]: s for j, s in constraints.items()}
        last, prefix = max(fixed, default=0), ()
        for p in range(1, last):
            step = prefix + (fixed.get(p),)
            for s in (fixed[p],) if p in fixed else domain:
                trie[prefix, (s,), step] = ONE
            prefix = step
        key = (prefix, (fixed[last],), last) if last else 0
        exits[key] = exits[key] + value if key in exits else value
    exits = {key: x for key, x in exits.items() if x}
    alpha = {0: exits.pop(0)} if 0 in exits else {}
    live = dict.fromkeys(q[:k] for q, _, _ in exits for k in range(len(q) + 1))
    done = range(min([*alpha, *(j for *_, j in exits)], default=n + 1), n + 1)
    if live:
        alpha[()] = ONE
    edges = {e: x for e, x in trie.items() if e[2] in live}
    edges.update(exits)
    edges.update({(j, (s,), j + 1): ONE for j in done[:-1] for s in domain})
    return wa_from_parts([domain], [*live, *done], alpha, edges,
                         dict.fromkeys(done[-1:], ONE))


def dt_to_wa(tree, order=None):
    return _cubes_to_wa(tree.leaves(), tree.n, tree.domain, order)


def ensemble_reg_to_wa(ensemble, order=None):
    """Every tree's leaves, each value times its tree's weight."""
    if ensemble.mode != "regression":
        raise ValueError(
            "vote-classification ensembles cannot be compiled to a WA; "
            "their SHAP values are intractable in general")
    cubes = [(c, w * v) for tree, w in zip(ensemble.trees, ensemble.weights)
             for c, v in tree.leaves()]
    return _cubes_to_wa(cubes, ensemble.n, ensemble.domain, order)


def linear_to_wa(model, order=None):
    """A one-feature cube per weight, the intercept the empty one."""
    cubes = [({i: d}, w) for (i, d), w in model.weights.items()]
    return _cubes_to_wa([*cubes, ({}, model.intercept)], model.n,
                        model.domain, order)


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
    """Independent product as a one-class Naive Bayes: one hidden state."""
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
    order = feature_order(order, dist.n)
    classes, domain = sorted(dist.prior), dist.domain
    eye = [[ONE if a == b else ZERO for b in classes] for a in classes]
    emissions = [[[dist.tables[j - 1][y].get(d, ZERO) for d in domain]
                  for y in classes] for j in order]
    return HmmVec(order, [dist.prior[y] for y in classes], [eye] * dist.n,
                  emissions, domain)
