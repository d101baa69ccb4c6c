"""Seeded random instance generators.

Shared by the verification command and the test suite so that reported
instance indices are reproducible.  All weights are rationals with small
numerators/denominators; distributions are normalized integer draws.
"""

import random

from .hmm import Hmm
from .linalg import SpMat
from .models import (Dataset, DecisionTree, DTNode, HmmVec, IndDist,
                     LinearModel, MarkovDist, NaiveBayes, TreeEnsemble)
from .oracle import CnfFormula, CspInstance, Wmg
from .rational import Rat
from .wa import NAlphabetWA, NAlphabetDFA, dfa_to_wa

BINARY = ("0", "1")


def rng_for(seed):
    return random.Random(seed)


def rand_rat(rng, lo=-3, hi=3, max_den=4):
    num = rng.randint(lo, hi)
    return Rat(num, rng.randint(1, max_den))


def rand_word(rng, alphabet, n):
    return "".join(rng.choice(alphabet) for _ in range(n))


def rand_stochastic(rng, k):
    """A length-k rational distribution from positive integer draws."""
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    return [Rat(w, total) for w in weights]


def rand_wa(rng, dim, alphabet, density=0.5):
    """Dense-ish random rational 1-alphabet WA."""
    alphabet = tuple(alphabet)
    trans = {}
    for s in alphabet:
        mat = SpMat(dim)
        for i in range(dim):
            for j in range(dim):
                if rng.random() < density:
                    v = rand_rat(rng)
                    if v != 0:
                        mat.set(i, j, v)
        trans[(s,)] = mat
    alpha = [rand_rat(rng) for _ in range(dim)]
    beta = [rand_rat(rng) for _ in range(dim)]
    return NAlphabetWA([alphabet], alpha, trans, beta)


def rand_01_wa(rng, n_states, alphabet):
    """0/1-valued WA: the indicator of a random complete DFA's language."""
    alphabet = tuple(alphabet)
    states = list(range(n_states))
    delta = {(q, (s,)): rng.randrange(n_states)
             for q in states for s in alphabet}
    finals = {q for q in states if rng.random() < 0.5}
    return dfa_to_wa(NAlphabetDFA([alphabet], states, 0, delta, finals))


def rand_hmm(rng, dim, alphabet):
    alphabet = tuple(alphabet)
    alpha = rand_stochastic(rng, dim)
    transition = [rand_stochastic(rng, dim) for _ in range(dim)]
    emission = [rand_stochastic(rng, len(alphabet)) for _ in range(dim)]
    return Hmm.from_matrices(alpha, transition, emission, alphabet)


def rand_hmmvec(rng, n, dim, domain, permute=False):
    domain = tuple(domain)
    pi = list(range(1, n + 1))
    if permute:
        rng.shuffle(pi)
    alpha = rand_stochastic(rng, dim)
    transitions = [[rand_stochastic(rng, dim) for _ in range(dim)]
                   for _ in range(n)]
    emissions = [[rand_stochastic(rng, len(domain)) for _ in range(dim)]
                 for _ in range(n)]
    return HmmVec(tuple(pi), alpha, transitions, emissions, domain)


def rand_dataset(rng, n, rows, domain=BINARY):
    domain = tuple(domain)
    return Dataset([rand_word(rng, domain, n) for _ in range(rows)])


def rand_dt(rng, n, domain=BINARY, max_depth=3):
    domain = tuple(domain)

    def grow(available, depth):
        if not available or depth == 0 or rng.random() < 0.3:
            return DTNode(leaf=rand_rat(rng))
        feature = rng.choice(sorted(available))
        return DTNode(feature=feature,
                      children={d: grow(available - {feature}, depth - 1)
                                for d in domain})

    root = grow(set(range(1, n + 1)), max_depth)
    if root.is_leaf():  # guarantee at least one split
        feature = rng.randint(1, n)
        root = DTNode(feature=feature,
                      children={d: DTNode(leaf=rand_rat(rng)) for d in domain})
    return DecisionTree(root, n, domain)


def rand_01_dt(rng, n, domain=BINARY, max_depth=3):
    """Decision tree with 0/1 leaves, for vote ensembles."""
    t = rand_dt(rng, n, domain, max_depth)

    def relabel(node):
        if node.is_leaf():
            node.leaf = Rat(rng.randint(0, 1))
        else:
            for c in node.children.values():
                relabel(c)

    relabel(t.root)
    return t


def rand_ensemble(rng, n, trees=3, domain=BINARY, mode="regression"):
    if mode == "regression":
        ts = [rand_dt(rng, n, domain) for _ in range(trees)]
        ws = [rand_rat(rng, lo=-2, hi=2) for _ in range(trees)]
    else:
        ts = [rand_01_dt(rng, n, domain) for _ in range(trees)]
        ws = [Rat(rng.randint(1, 3)) for _ in range(trees)]
    return TreeEnsemble(ts, ws, mode)


def rand_linear(rng, n, domain=BINARY):
    domain = tuple(domain)
    weights = {(i, d): rand_rat(rng)
               for i in range(1, n + 1) for d in domain}
    return LinearModel(n, domain, weights, rand_rat(rng))


def rand_ind(rng, n, domain=BINARY):
    domain = tuple(domain)
    return IndDist([dict(zip(domain, rand_stochastic(rng, len(domain))))
                    for _ in range(n)], domain)


def rand_markov(rng, domain=BINARY):
    domain = tuple(domain)
    return MarkovDist(dict(zip(domain, rand_stochastic(rng, len(domain)))),
                      {a: dict(zip(domain, rand_stochastic(rng, len(domain))))
                       for a in domain},
                      domain)


def rand_nb(rng, n, classes=2, domain=BINARY):
    domain = tuple(domain)
    labels = [f"c{y}" for y in range(classes)]
    return NaiveBayes(dict(zip(labels, rand_stochastic(rng, classes))),
                      [{y: dict(zip(domain, rand_stochastic(rng, len(domain))))
                        for y in labels} for _ in range(n)],
                      domain)


def rand_wmg(rng, n_players, max_power=5):
    powers = [rng.randint(0, max_power) for _ in range(n_players)]
    quota = rng.randint(1, max(1, sum(powers)))
    return Wmg(powers, quota)


def rand_cnf(rng, n_vars, n_clauses, width=3):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfFormula(n_vars, clauses)


def rand_csp(rng, n_strings, length, domain=BINARY):
    domain = tuple(domain)
    strings = [rand_word(rng, domain, length) for _ in range(n_strings)]
    return CspInstance(strings, rng.randint(0, length), domain)
