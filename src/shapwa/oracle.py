"""Brute-force ground truth.

Everything here is computed by definition: direct model evaluation,
value functions and Shapley values by full enumeration of coalitions
and of the distribution's finite support, dummy-player and emptiness
checks, closest-string search.  Intentionally exponential and guarded;
deliberately shares no pipeline code with the engine (it is the trust
anchor), only the scalar type and the model/distribution containers.
"""

import math
import os
from dataclasses import dataclass
from itertools import combinations, product
from math import factorial

from .hmm import Hmm
from .models import (Dataset, DecisionTree, HmmVec, IndDist, LinearModel,
                     MarkovDist, NaiveBayes, TreeEnsemble, step)
from .rational import Rat, ZERO
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
# sequential models evaluated from first principles


@dataclass
class RnnRelu:
    """h_{w sigma} = ReLU(W h_w + v_sigma); f(w) = I(O . h_w >= 0)."""
    h_init: list
    W: list
    emb: dict                # symbol -> vector
    out: list
    domain: tuple

    def hidden(self, w):
        h = [Rat(x) for x in self.h_init]
        dim = len(h)
        for sym in w:
            v = self.emb[sym]
            h = [max(ZERO,
                     sum(Rat(self.W[a][b]) * h[b] for b in range(dim))
                     + Rat(v[a]))
                 for a in range(dim)]
        return h

    def evaluate(self, w):
        h = self.hidden(w)
        return Rat(step(sum(Rat(o) * x for o, x in zip(self.out, h))))


@dataclass
class SigmoidNet:
    """f(x) = sigmoid(gain * (sum_j w_j x_j + bias)); binary-64 output."""
    weights: list
    bias: object
    gain: float
    domain: tuple = ("0", "1")

    def evaluate(self, x):
        z = sum(float(w) for w, sym in zip(self.weights, x) if sym == "1")
        z += float(self.bias)
        return 1.0 / (1.0 + math.exp(-self.gain * z))


@dataclass
class Wmg:
    """Weighted majority game: v(S) = I(sum of powers in S >= quota)."""
    powers: list
    quota: int

    @property
    def n(self):
        return len(self.powers)

    def value(self, coalition):
        return 1 if sum(self.powers[i - 1] for i in coalition) >= self.quota else 0


@dataclass
class CnfFormula:
    n: int
    clauses: list            # clauses of signed 1-based literals

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

    @property
    def n(self):
        return len(self.strings[0])


def hamming(w, w2):
    if len(w) != len(w2):
        raise ValueError("length mismatch")
    return sum(1 for a, b in zip(w, w2) if a != b)


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


def dist_alphabet(dist):
    if isinstance(dist, Hmm):
        return dist.alphabet
    if isinstance(dist, Dataset):
        return dist.domain()
    return dist.domain


def enumerate_words(alphabet, n):
    check_enumerable(len(alphabet), n)
    for tup in product(alphabet, repeat=n):
        yield "".join(tup)


# ---------------------------------------------------------------------------
# value functions and Shapley values by enumeration


def _compose(x, coalition, z):
    return "".join(x[j] if (j + 1) in coalition else z[j]
                   for j in range(len(x)))


def value_fn(variant, f, x, coalition, ctx):
    """v_c / v_i / v_b of a coalition (set of 1-based features)."""
    coalition = set(coalition)
    n = len(x)
    if variant == "b":
        ref = ctx
        if len(ref) != n:
            raise ValueError("reference length mismatch")
        return eval_model(f, _compose(x, coalition, ref))
    alphabet = dist_alphabet(ctx)
    if variant == "i":
        total = ZERO
        for z in enumerate_words(alphabet, n):
            p = dist_prob(ctx, z)
            if p != 0:
                total += p * eval_model(f, _compose(x, coalition, z))
        return total
    if variant == "c":
        mass = ZERO
        total = ZERO
        for z in enumerate_words(alphabet, n):
            if any(z[j - 1] != x[j - 1] for j in coalition):
                continue
            p = dist_prob(ctx, z)
            if p != 0:
                mass += p
                total += p * eval_model(f, z)
        if mass == 0:
            raise ZeroProbabilityEvent(
                coalition, "".join(x[j - 1] for j in sorted(coalition)))
        return total / mass
    raise ValueError(f"unknown variant {variant!r}")


def _local_job_bits(variant, n, ctx):
    # 2^(n-1) coalitions, two value functions each; the interventional and
    # conditional ones enumerate |Sigma|^n support words apiece
    bits = n
    if variant in ("i", "c"):
        bits += _word_bits(len(dist_alphabet(ctx)), n)
    return bits


def shap_oracle_local(variant, f, x, i, ctx):
    """Exact subset-sum Shapley value of feature i."""
    n = len(x)
    if n > SHAP_GUARD_N:
        raise GuardExceeded(f"n={n} exceeds the coalition guard {SHAP_GUARD_N}")
    if not (1 <= i <= n):
        raise IndexError(f"feature {i} out of range")
    _check_bits(_local_job_bits(variant, n, ctx), "the oracle's job")
    others = [j for j in range(1, n + 1) if j != i]
    total = ZERO
    for size in range(n):
        weight = Rat(factorial(size) * factorial(n - size - 1), factorial(n))
        for S in combinations(others, size):
            total += weight * (value_fn(variant, f, x, set(S) | {i}, ctx)
                               - value_fn(variant, f, x, S, ctx))
    return total


def shap_oracle_global(variant, f, i, n, ctx, dist):
    """Expectation of the local value over inputs drawn from dist."""
    alphabet = dist_alphabet(dist)
    _check_bits(_word_bits(len(alphabet), n)
                + _local_job_bits(variant, n, ctx), "the oracle's job")
    total = ZERO
    for x in enumerate_words(alphabet, n):
        p = dist_prob(dist, x)
        if p != 0:
            total += p * shap_oracle_local(variant, f, x, i, ctx)
    return total


# ---------------------------------------------------------------------------
# decision problems


def dummy_check(game, i):
    """True iff player i never changes any coalition's value."""
    if game.n > SHAP_GUARD_N:
        raise GuardExceeded(f"N={game.n} exceeds the guard {SHAP_GUARD_N}")
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
