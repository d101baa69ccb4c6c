"""Independent exact values for the efficiency-axiom gate.

Nothing here calls shapwa's pipelines: values come from the raw model
and distribution.  Tabular models and distributions are enumerated over
every input; a weighted automaton under an HMM is summed over every word
of length n by a forward pass over (model state, HMM state) pairs, which
visits all |Sigma|^n words without listing them.  All results are
`fractions.Fraction`, whatever rational type the package uses.
"""

from fractions import Fraction
from itertools import product


def exact(x):
    """Any exact rational (Fraction, gmpy2 mpq, int) as a Fraction."""
    return Fraction(str(x))


def _rows(wa, symbol):
    mat = wa.transitions.get((symbol,))
    return mat.rows if mat is not None else {}


def wa_value(wa, word):
    """f(word) of a 1-alphabet weighted automaton by a dense forward pass."""
    v = [exact(x) for x in wa.alpha]
    for symbol in word:
        nv = [Fraction(0)] * len(v)
        for i, row in _rows(wa, symbol).items():
            if v[i]:
                for j, a in row.items():
                    nv[j] += v[i] * exact(a)
        v = nv
    return sum((x * exact(b) for x, b in zip(v, wa.beta)), Fraction(0))


def wa_expectation(wa, hmm, n):
    """E_{w ~ hmm}[f(w)] over the words of length n."""
    dist = hmm.wa
    v = {(p, q): exact(x) * exact(y)
         for p, x in enumerate(wa.alpha) if x
         for q, y in enumerate(dist.alpha) if y}
    for _ in range(n):
        nv = {}
        for symbol in wa.alphabets[0]:
            f_rows, d_rows = _rows(wa, symbol), _rows(dist, symbol)
            for (p, q), x in v.items():
                for p2, a in f_rows.get(p, {}).items():
                    xa = x * exact(a)
                    for q2, b in d_rows.get(q, {}).items():
                        nv[(p2, q2)] = nv.get((p2, q2), 0) + xa * exact(b)
        v = nv
    return sum((x * exact(wa.beta[p]) * exact(dist.beta[q])
                for (p, q), x in v.items()), Fraction(0))


def tabular_expectation(model, dist, domain, n):
    """E_{x ~ dist}[model(x)] by enumerating every tabular input."""
    total = Fraction(0)
    for tup in product(domain, repeat=n):
        x = "".join(tup)
        p = exact(dist.prob(x))
        if p:
            total += p * exact(model.evaluate(x))
    return total
