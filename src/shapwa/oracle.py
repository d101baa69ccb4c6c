"""Brute-force ground truth, computed by definition.

Model evaluation, dummy-player and emptiness checks, closest-string
search, and one Shapley loop over all coalitions.  A query's two sides,
the inputs x and the words z that replace the features outside a
coalition, are each a distribution or a word (its point distribution).
`shap_oracle_many` answers several queries on one model in one pass over
the coalitions: each side object's support is enumerated once per
`shap_oracle_many` call, and each distinct word is evaluated once;
`shap_oracle_all` is its one-query call.

One coalition table per query: V(S) = E_{x~outer} v_x(S) is computed once
for each of the 2^n coalitions, and phi_i is the Shapley value by its
definition, the sum over the S without i of c(|S|) (V(S + i) - V(S)) with
c(k) = k! (n - k - 1)! / n!, for every feature i.  v_x(S) depends on the
replacing side only through its marginal on the features outside S
(baseline, interventional) or on S (conditional), and V is linear in the
mean over x, so V(S) sums the outer side's marginal on S against the
inner side's marginal.  The marginals
come from one recursion that decides the features in order and sums each
decided feature out of the marginals that do not keep it (Yates's
all-marginals recursion): no marginal is taken from the whole support.

Every value is an exact rational, a sigmoid network's output included
(`models.SigmoidNet`).  No rational operation is made that an exact 0 or
1 decides: a model value equal to 0 or 1 is the shared ZERO or ONE
(`rational.exact`), a term that is ZERO is left out, and every sum starts
from its first term.  Each sum of products, an automaton's value, a
coalition value and a Shapley value, is one `rational.dot`, normalized
once.  The differences V(S + i) - V(S) subtract no ZERO value, and a
difference equal to 0 is not added.  A marginal summed to 0 or 1 is the
shared ZERO or ONE.  The other products are `rational.times`, which makes
none that a factor of ZERO or ONE decides.

Exponential and guarded; shares no pipeline code with the engine (it is
the trust anchor), only the scalar type, the containers and the query
check, run before the guards: `models.check_query` refuses the same
queries here as in the engine and the builder pipeline.
"""

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import factorial

from .hmm import Hmm
from .models import (Dataset, DecisionTree, HmmVec, IndDist, LinearModel,
                     MarkovDist, NaiveBayes, RnnRelu, SigmoidNet,
                     TreeEnsemble, check_query, symbols)
from .rational import Rat, ZERO, ONE, dot, exact, times, total
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
        return any(map(self.satisfied, enumerate_words("01", self.n)))


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
    for sym in w:
        mat = A.transitions.get((sym,))
        terms = [[] for _ in v]
        if mat is not None:
            for i, vi in enumerate(v):
                if vi == 0:
                    continue
                for j, a in mat.rows.get(i, {}).items():
                    terms[j].append((vi, a))
        v = [dot(t) for t in terms]
    return dot([(x, b) for x, b in zip(v, A.beta)
                if x != 0 and b is not ZERO])


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
    _check_bits(_word_bits(len(alphabet), n), "|Sigma|^n")
    for tup in product(alphabet, repeat=n):
        yield "".join(tup)


# ---------------------------------------------------------------------------
# value functions and Shapley values by enumeration


def _support(side, n):
    """A side's law as {word: p} over the words with p > 0, in enumeration
    order: the marginal on every position."""
    if isinstance(side, str):
        return {side: ONE}
    return {z: p for z in enumerate_words(symbols(side), n)
            if (p := dist_prob(side, z)) != 0}


def _sum_out(marginal, at):
    """The marginal with the letter at index `at` of its words summed out;
    its words keep the order in which they first appear, and a sum equal
    to 0 or 1 is the shared ZERO or ONE."""
    out = {}
    for w, p in marginal.items():
        u = w[:at] + w[at + 1:]
        out[u] = exact(out[u] + p) if u in out else p
    return out


def _values(f, n, queries, coalition=None):
    """Yield (S, [V(S) = E_{x~outer} v_x(S) of each (variant, inner, outer)
    query]) for each coalition S, a sorted tuple of 0-based features, or
    only for `coalition` when one is given.  V(S) sums the outer side's
    marginal on S against the inner side's marginal on the features outside
    S (baseline, interventional) or on S (conditional).

    One recursion decides the features 0..n-1 in order and carries each
    side's marginals down it, a side keyed by its object: a marginal "on
    S" starts as the side's law and sums out each feature left out of S,
    one "outside S" sums out each feature kept in S, so the marginals on
    the undecided features stay whole and only the current path's are
    alive.  Over all
    2^n coalitions one marginal costs at most (|Sigma|+1)^(n+1) sums, where
    taking it for each coalition from the whole support costs
    2^n |Sigma|^n.  Each side object's support is enumerated once and
    each composed word is evaluated once.  A conditional query on a
    zero-probability event raises the ZeroProbabilityEvent of the first
    coalition met and, within it, of the first query.  The recursion visits
    every subset of a coalition before it, so that coalition is
    inclusion-minimal: no proper subset of it has mass 0."""
    for variant, _, _ in queries:
        if variant not in ("b", "i", "c"):
            raise ValueError(f"unknown variant {variant!r}")
    supports = {}
    for _, inner, outer in queries:
        for side in (outer, inner):
            if id(side) not in supports:
                supports[id(side)] = _support(side, n)
    # composed words repeat across coalitions and queries: each is
    # evaluated once
    evaluate = lru_cache(maxsize=None)(lambda z: exact(eval_model(f, z)))
    # the marginals each query reads: the outer side's on S, the inner
    # side's outside S or, conditional, its law and its law weighted by f
    # on S
    on, off = {}, {}
    for variant, inner, outer in queries:
        key = id(inner)
        on[id(outer)] = supports[id(outer)]
        if variant != "c":
            off[key] = supports[key]
        elif ("f", key) not in on:
            on[key] = supports[key]
            on["f", key] = {z: times(p, y) for z, p in supports[key].items()
                            if (y := evaluate(z)) is not ZERO}

    def leaf(kept, on, off):
        free = [j for j in range(n) if j not in kept]
        # where each feature's letter sits in u + v
        order = [*kept, *free]
        where = [order.index(j) for j in range(n)]
        values = []
        for variant, inner, outer in queries:
            key = id(inner)
            terms = []
            if variant == "c":
                mass, num = on[key], on["f", key]
                for u, pu in on[id(outer)].items():
                    if mass.get(u, ZERO) == 0:
                        raise ZeroProbabilityEvent({j + 1 for j in kept}, u)
                    if num.get(u, ZERO) is not ZERO:
                        term = times(pu, num[u])
                        terms.append(term if mass[u] is ONE
                                     else term / mass[u])
                values.append(exact(total(terms)))
            else:
                for u, pu in on[id(outer)].items():
                    row = []
                    for v, pv in off[key].items():
                        uv = u + v
                        y = evaluate("".join([uv[k] for k in where]))
                        if y is not ZERO:
                            row.append((pv, y))
                    if (y := dot(row)) is not ZERO:
                        terms.append((pu, y))
                values.append(dot(terms))
        return values

    def visit(j, kept, on, off):
        # on: the marginals on the features kept among 0..j-1 and on j..n-1;
        # off: those on the features left out among 0..j-1 and on j..n-1
        if j == n:
            yield kept, leaf(kept, on, off)
            return
        for keep in ((False, True) if coalition is None
                     else (j in coalition,)):
            if keep:
                yield from visit(j + 1, (*kept, j), on,
                                 {k: _sum_out(m, j - len(kept))
                                  for k, m in off.items()})
            else:
                yield from visit(j + 1, kept,
                                 {k: _sum_out(m, len(kept))
                                  for k, m in on.items()}, off)

    yield from visit(0, (), on, off)


def value_fn(variant, f, x, coalition, inner):
    """v_c / v_i / v_b of a coalition (set of 1-based features)."""
    check_query(f, len(x), inner, x, coalition)
    kept = {j - 1 for j in coalition}
    for _, values in _values(f, len(x), [(variant, inner, x)], kept):
        return values[0]


def shap_oracle_local(variant, f, x, i, inner):
    """Exact subset-sum Shapley value of feature i at the input x."""
    return shap_oracle_global(variant, f, i, len(x), inner, x)


def shap_oracle_global(variant, f, i, n, inner, outer):
    """Mean over x ~ outer of feature i's subset-sum Shapley value, the
    features outside a coalition drawn from inner; a side may be a word."""
    return shap_oracle_all(variant, f, n, inner, outer, (i,))[0]


def shap_oracle_all(variant, f, n, inner, outer, features=None):
    """(phi_i for i in features, all n by default) of shap_oracle_global:
    shap_oracle_many of the one query."""
    return shap_oracle_many(f, n, [(variant, inner, outer)], features)[0]


def shap_oracle_many(f, n, queries, features=None):
    """[shap_oracle_all(variant, f, n, inner, outer, features) for each
    (variant, inner, outer) query], from one pass over the 2^n coalitions
    that fills one table of coalition values V(S) per query: phi_i is one
    `rational.dot` of the pairs (c(|S|), V(S + i) - V(S)) over the masks S
    of the table without i, in the table's order.  Every query is checked,
    then guarded, before any enumeration.  The pass carries each side's
    marginals down one recursion over the features, so only the current
    coalition's path holds marginals.  A conditional query that conditions
    on a zero-probability event raises the ZeroProbabilityEvent of `_values`:
    that of an inclusion-minimal coalition and, within it, of the first
    query where one occurs."""
    queries = list(queries)
    if not queries:
        return []
    for _, inner, outer in queries:
        asked = check_query(f, n, inner, outer, features)
    if n > SHAP_GUARD_N:
        raise GuardExceeded(f"n={n} exceeds the coalition guard {SHAP_GUARD_N}")
    for _, inner, outer in queries:
        # 2^n coalitions x |Sigma|^n pairs of marginal letters when a side
        # is a distribution (the letters on S from one, outside S from the
        # other)
        sizes = [len(symbols(side)) for side in (inner, outer)
                 if not isinstance(side, str)]
        _check_bits(n + (_word_bits(max(sizes), n) if sizes else 0),
                    "the oracle's job")
    tables = [{} for _ in queries]
    for kept, values in _values(f, n, queries):
        mask = sum(1 << j for j in kept)
        for table, value in zip(tables, values):
            table[mask] = value
    weights = [exact(Rat(factorial(size) * factorial(n - size - 1),
                         factorial(n)))
               for size in range(n)]

    def phi(table, i):
        # the sum over the masks S without i of c(|S|) (V(S + i) - V(S)),
        # a difference equal to 0 left out
        bit = 1 << (i - 1)
        diffs = ((S, _difference(table[S | bit], table[S]))
                 for S in table if not S & bit)
        return dot([(weights[S.bit_count()], d) for S, d in diffs
                    if d is not ZERO])

    return [tuple(phi(table, i) for i in asked) for table in tables]


def _difference(a, b):
    """a - b of two coalition values, the shared ZERO when it is 0; no
    subtraction when either value is ZERO."""
    if b is ZERO:
        return a
    return -b if a is ZERO else exact(a - b)


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
