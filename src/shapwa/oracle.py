"""Brute-force ground truth, computed by definition.

Model evaluation, dummy-player and emptiness checks, closest-string
search, and one Shapley loop over all coalitions.  A query's two sides,
the inputs x and the words z that replace the features outside a
coalition, are each a distribution or a word (its point distribution);
each support is enumerated once per call, and each distinct word is
evaluated once.

One coalition table per call: V(S) = E_{x~outer} v_x(S) is computed once
for each of the 2^n coalitions, and phi_i = sum over S without i of
c(|S|) (V(S + i) - V(S)) for every feature i.  v_x(S) depends on the
replacing side only through its marginal on the features outside S
(baseline, interventional) or on S (conditional), and V is linear in the
mean over x, so V(S) sums the outer side's marginal on S against the
inner side's marginal.  Exponential and guarded; shares no pipeline code
with the engine (it is the trust anchor), only the scalar type, the
containers and the query check, run before the guards: `models.check_query`
refuses the same queries here as in the engine and the builder pipeline.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from math import factorial

from .hmm import Hmm
from .models import (Dataset, DecisionTree, HmmVec, IndDist, LinearModel,
                     MarkovDist, NaiveBayes, RnnRelu, SigmoidNet,
                     TreeEnsemble, check_query, symbols)
from .rational import Rat, ZERO, ONE
from .wa import NAlphabetWA

DEFAULT_GUARD_BITS = 24
SHAP_GUARD_N = 20


class GuardExceeded(Exception):
    pass


class ZeroProbabilityEvent(Exception):
    """Conditional SHAP conditioned on a measure-zero coalition assignment."""

    def __init__(self, coalition, assignment):
        self.coalition = coalition
        self.assignment = assignment
        super().__init__(
            f"P(z_S = x_S) = 0 for S={sorted(coalition)}, x_S={assignment}")


def guard_bits():
    """log2 of the largest job the oracle accepts (SHAPWA_GUARD_BITS)."""
    text = os.environ.get("SHAPWA_GUARD_BITS")
    if text is None:
        return DEFAULT_GUARD_BITS
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SHAPWA_GUARD_BITS must be an integer, "
                         f"not {text!r}") from None


def _word_bits(alphabet_size, n):
    return n * math.log2(alphabet_size) if alphabet_size > 1 else 0


def _check_bits(bits, what):
    limit = guard_bits()
    if bits > limit:
        raise GuardExceeded(f"{what} needs {bits:.0f} bits > guard {limit}")


def check_enumerable(alphabet_size, n):
    _check_bits(_word_bits(alphabet_size, n), "|Sigma|^n")


# ---------------------------------------------------------------------------
# the gadgets' source problems


@dataclass
class Wmg:
    """Weighted majority game: v(S) = I(sum of powers in S >= quota)."""
    powers: list
    quota: int

    def __post_init__(self):
        if any(p < 0 for p in self.powers):
            raise ValueError("voting powers must be non-negative")

    @property
    def n(self):
        return len(self.powers)

    def value(self, coalition):
        return 1 if sum(self.powers[i - 1] for i in coalition) >= self.quota else 0


@dataclass
class CnfFormula:
    n: int
    clauses: list            # clauses of signed 1-based literals

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= self.n:
                    raise ValueError(f"literal {lit} out of range for "
                                     f"{self.n} variables")

    def satisfied(self, assignment):
        """assignment: string of '0'/'1' of length n."""
        for clause in self.clauses:
            if not any((assignment[abs(l) - 1] == "1") == (l > 0)
                       for l in clause):
                return False
        return True

    def satisfiable(self):
        check_enumerable(2, self.n)
        return any(self.satisfied("".join(bits))
                   for bits in product("01", repeat=self.n))


@dataclass
class CspInstance:
    strings: list
    radius: int
    domain: tuple

    def __post_init__(self):
        if len({len(s) for s in self.strings}) != 1:
            raise ValueError("strings must share one length")
        if not self.strings[0]:
            raise ValueError("strings must be non-empty")
        if not 0 <= self.radius <= self.n:
            raise ValueError(f"radius {self.radius} out of range 0..{self.n}")

    @property
    def n(self):
        return len(self.strings[0])


def hamming(w, w2):
    if len(w) != len(w2):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(w, w2) if a != b)


# ---------------------------------------------------------------------------
# models evaluated from first principles


def eval_model(model, x):
    """Direct forward evaluation of any supported model."""
    if isinstance(model, NAlphabetWA):
        return _wa_value(model, x)
    if isinstance(model, (DecisionTree, TreeEnsemble, LinearModel, RnnRelu,
                          SigmoidNet)):
        return model.evaluate(x)
    raise TypeError(f"unsupported model {type(model).__name__}")


def _wa_value(A, w):
    # independent dense evaluation of a 1-alphabet WA
    if A.arity != 1:
        raise ValueError("sequential models are 1-alphabet automata")
    v = list(A.alpha)
    n = A.dim
    for sym in w:
        mat = A.transitions.get((sym,))
        nv = [ZERO] * n
        if mat is not None:
            for i in range(n):
                if v[i] == 0:
                    continue
                for j, a in mat.rows.get(i, {}).items():
                    nv[j] += v[i] * a
        v = nv
    return sum(x * b for x, b in zip(v, A.beta))


# ---------------------------------------------------------------------------
# distributions evaluated from their definitions


def dist_prob(dist, w):
    if isinstance(dist, Hmm):
        # an Hmm's final vector is all-ones: prefix probability = WA value
        return _wa_value(dist.wa, w)
    if isinstance(dist, (HmmVec, Dataset, IndDist, MarkovDist, NaiveBayes)):
        return dist.prob(w)
    raise TypeError(f"unsupported distribution {type(dist).__name__}")


def enumerate_words(alphabet, n):
    check_enumerable(len(alphabet), n)
    for tup in product(alphabet, repeat=n):
        yield "".join(tup)


# ---------------------------------------------------------------------------
# value functions and Shapley values by enumeration


def _support(side, n):
    """The (word, p) pairs of a side with p > 0, in enumeration order."""
    if isinstance(side, str):
        return [(side, ONE)]
    return [(z, p) for z in enumerate_words(symbols(side), n)
            if (p := dist_prob(side, z)) != 0]


def _marginal(support, positions):
    """A side's marginal on the 0-based positions: {its letters there: mass}."""
    marginal = {}
    for w, p in support:
        u = "".join([w[j] for j in positions])
        marginal[u] = marginal[u] + p if u in marginal else p
    return marginal


def _values(variant, f, n, inner, outer, coalitions):
    """Yield V(S) = E_{x~outer} v_x(S) for each coalition S, a sorted tuple
    of 0-based features, from the outer side's marginal on S and the inner
    side's on the features outside S (baseline, interventional) or on S
    (conditional)."""
    if variant not in ("b", "i", "c"):
        raise ValueError(f"unknown variant {variant!r}")
    inputs = _support(outer, n)
    # one enumeration when both sides are one distribution
    support = inputs if inner is outer else _support(inner, n)
    # composed words repeat across coalitions: each is evaluated once
    evaluate = lru_cache(maxsize=None)(partial(eval_model, f))
    if variant == "c":
        weighted = [(z, p * evaluate(z)) for z, p in support]
    for kept in coalitions:
        total = ZERO
        if variant == "c":
            mass = _marginal(support, kept)
            num = _marginal(weighted, kept)
            for u, pu in _marginal(inputs, kept).items():
                if mass.get(u, ZERO) == 0:
                    raise ZeroProbabilityEvent({j + 1 for j in kept}, u)
                total += pu * num[u] / mass[u]
        else:
            free = [j for j in range(n) if j not in kept]
            # where each feature's letter sits in u + v
            order = [*kept, *free]
            where = [order.index(j) for j in range(n)]
            replaced = _marginal(support, free)
            for u, pu in _marginal(inputs, kept).items():
                value = ZERO
                for v, pv in replaced.items():
                    uv = u + v
                    value += pv * evaluate("".join([uv[k] for k in where]))
                total += pu * value
        yield total


def value_fn(variant, f, x, coalition, inner):
    """v_c / v_i / v_b of a coalition (set of 1-based features)."""
    check_query(f, len(x), inner, x)
    kept = tuple(j for j in range(len(x)) if j + 1 in coalition)
    return next(_values(variant, f, len(x), inner, x, [kept]))


def shap_oracle_local(variant, f, x, i, inner):
    """Exact subset-sum Shapley value of feature i at the input x."""
    return shap_oracle_global(variant, f, i, len(x), inner, x)


def shap_oracle_global(variant, f, i, n, inner, outer):
    """Mean over x ~ outer of feature i's subset-sum Shapley value, the
    features outside a coalition drawn from inner; a side may be a word."""
    return shap_oracle_all(variant, f, n, inner, outer, (i,))[0]


def shap_oracle_all(variant, f, n, inner, outer, features=None):
    """(phi_i for i in features, all n by default) of shap_oracle_global,
    from one table of the 2^n coalition values V(S): phi_i = sum over S
    without i of c(|S|) (V(S + i) - V(S))."""
    features = check_query(f, n, inner, outer, features)
    if n > SHAP_GUARD_N:
        raise GuardExceeded(f"n={n} exceeds the coalition guard {SHAP_GUARD_N}")
    # 2^n coalitions x |Sigma|^n pairs of marginal letters when a side is
    # a distribution (the letters on S from one, outside S from the other)
    sizes = [len(symbols(side)) for side in (inner, outer)
             if not isinstance(side, str)]
    _check_bits(n + (_word_bits(max(sizes), n) if sizes else 0),
                "the oracle's job")
    # smallest first: a zero-probability event names a smallest coalition
    coalitions = [S for size in range(n + 1)
                  for S in combinations(range(n), size)]
    table = dict(zip((sum(1 << j for j in S) for S in coalitions),
                     _values(variant, f, n, inner, outer, coalitions)))
    weights = [Rat(factorial(size) * factorial(n - size - 1), factorial(n))
               for size in range(n)]
    phis = []
    for i in features:
        bit = 1 << (i - 1)
        others = [1 << j for j in range(n) if j != i - 1]
        phi = ZERO
        for size, weight in enumerate(weights):
            for S in map(sum, combinations(others, size)):
                phi += weight * (table[S | bit] - table[S])
        phis.append(phi)
    return tuple(phis)


# ---------------------------------------------------------------------------
# decision problems


def dummy_check(game, i):
    """True iff player i never changes any coalition's value."""
    # 2^(N-1) coalitions, two values each
    _check_bits(game.n, "the dummy check")
    others = [j for j in range(1, game.n + 1) if j != i]
    for size in range(len(others) + 1):
        for S in combinations(others, size):
            if game.value(set(S) | {i}) != game.value(S):
                return False
    return True


def csp_brute(inst):
    """First string within Hamming radius of every input string, or None."""
    for w in enumerate_words(inst.domain, inst.n):
        if all(hamming(w, s) <= inst.radius for s in inst.strings):
            return w
    return None


def empty_brute(f, n, alphabet):
    """True iff no x in Sigma^n has f(x) = 1."""
    for x in enumerate_words(alphabet, n):
        if eval_model(f, x) == 1:
            return False
    return True
