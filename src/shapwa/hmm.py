"""Hidden Markov models as 1-alphabet weighted automata.

An HMM <alpha, T, O> is kept directly in per-symbol matrix form
A_sigma = T * Diag(O[:, sigma]); the prefix probability of w is
alpha^T (prod A_{w_j}) 1, so the underlying WA has the all-ones final
vector.  Row-stochasticity of T makes sum_sigma A_sigma row-stochastic,
hence prefix probabilities over Sigma^n sum to 1 for every n.
"""

from .linalg import SpMat
from .rational import Rat, ONE, as_list, check_law, format_rat, rats, times
from .wa import NAlphabetWA, eval_wa, wa_from_parts


class Hmm:
    """A stationary sequential distribution with prefix-probability semantics."""

    def __init__(self, wa):
        if wa.arity != 1:
            raise ValueError("an HMM is a 1-alphabet automaton")
        if any(b != 1 for b in wa.beta):
            raise ValueError("HMM final vector must be all-ones")
        _check_stochastic(wa)
        self.wa = wa

    @property
    def alphabet(self):
        return self.wa.alphabets[0]

    @property
    def dim(self):
        return self.wa.dim

    @classmethod
    def from_matrices(cls, alpha, transition, emission, alphabet):
        """Build from <alpha, T, O>: A_sigma = T * Diag(O[:, sigma])."""
        alphabet = tuple(alphabet)
        alpha = rats(alpha)
        mats = symbol_matrices(len(alpha), [rats(row) for row in transition],
                               [rats(row) for row in emission], alphabet)
        states = range(len(alpha))
        edges = {(i, (sigma,), j): x for sigma, mat in mats.items()
                 for i, row in mat.rows.items() for j, x in row.items()}
        return cls(wa_from_parts([alphabet], states, dict(enumerate(alpha)),
                                 edges, dict.fromkeys(states, ONE)))

    def prefix_prob(self, w):
        return eval_wa(self.wa, (w,))


def symbol_matrices(dim, transition, emission, alphabet):
    """{sigma: T * Diag(O[:, sigma])} as SpMats, from the dim x dim rows T
    and the dim x len(alphabet) rows O, each a list of rationals; zeros are
    dropped, and every product is `rational.times`.
    ValueError unless the sizes agree and every row of T and O is a law."""
    k = len(alphabet)
    if len(transition) != dim or any(len(r) != dim for r in transition):
        raise ValueError(f"the transition matrix is not {dim} x {dim}")
    if len(emission) != dim or any(len(r) != k for r in emission):
        raise ValueError(f"the emission matrix is not {dim} x {k}")
    for what, rows in (("a transition row", transition),
                       ("an emission row", emission)):
        for row in rows:
            check_law(row, what)
    emits = [[(sigma, o) for sigma, o in zip(alphabet, row) if o]
             for row in emission]
    mats = {sigma: SpMat(dim) for sigma in alphabet}
    for i, row in enumerate(transition):
        for j, t in enumerate(row):
            for sigma, o in emits[j] if t else ():
                mats[sigma].rows.setdefault(i, {})[j] = times(t, o)
    return mats


def _check_stochastic(wa):
    """ValueError unless alpha and each row of the per-symbol matrices'
    sum are laws."""
    check_law(wa.alpha, "initial vector")
    rows = {i: [] for i in range(wa.dim)}
    for mat in wa.transitions.values():
        for i, row in mat.rows.items():
            rows[i] += row.values()
    for values in rows.values():
        check_law(values, "a row of the per-symbol matrices' sum")


def uniform_hmm(alphabet):
    """The memoryless uniform distribution over Sigma^n for every n."""
    alphabet = tuple(alphabet)
    k = len(alphabet)
    return Hmm.from_matrices([ONE], [[ONE]], [[Rat(1, k)] * k], alphabet)


# ---------------------------------------------------------------------------
# JSON serialization


def hmm_to_json(m):
    return {
        "alphabet": list(m.alphabet),
        "alpha": [format_rat(x) for x in m.wa.alpha],
        "matrices": {
            sym: m.wa.transitions.get((sym,), SpMat(m.dim)).to_entries()
            for sym in m.alphabet
        },
    }


def hmm_from_json(obj):
    """Accepts either per-symbol matrices or a <transition, emission> pair."""
    alphabet = tuple(as_list(obj["alphabet"], "symbols"))
    if "matrices" in obj:
        if not set(obj["matrices"]) <= set(alphabet):
            raise ValueError("a matrices key is outside the alphabet")
        alpha = rats(obj["alpha"])
        trans = {(sym,): SpMat.from_entries(len(alpha), obj["matrices"][sym])
                 for sym in alphabet}
        return Hmm(NAlphabetWA([alphabet], alpha, trans, [ONE] * len(alpha)))
    return Hmm.from_matrices(obj["alpha"], obj["transition"], obj["emission"],
                             alphabet)
