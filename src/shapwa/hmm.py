"""Hidden Markov models as 1-alphabet weighted automata.

An HMM <alpha, T, O> is kept directly in per-symbol matrix form
A_sigma = T * Diag(O[:, sigma]); the prefix probability of w is
alpha^T (prod A_{w_j}) 1, so the underlying WA has the all-ones final
vector.  Row-stochasticity of T makes sum_sigma A_sigma row-stochastic,
hence prefix probabilities over Sigma^n sum to 1 for every n.
"""

from .linalg import SpMat
from .rational import Rat, ONE, as_list, format_rat, rats, total
from .wa import NAlphabetWA, eval_wa, vector_from_json, wa_from_parts


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
        transition = [rats(row) for row in transition]
        emission = [rats(row) for row in emission]
        dim, k = len(alpha), len(alphabet)
        if len(transition) != dim or any(len(r) != dim for r in transition):
            raise ValueError(f"the transition matrix is not {dim} x {dim}")
        if len(emission) != dim or any(len(r) != k for r in emission):
            raise ValueError(f"the emission matrix is not {dim} x {k}")
        states = range(dim)
        edges = {(i, (sigma,), j): transition[i][j] * emission[j][s]
                 for s, sigma in enumerate(alphabet)
                 for i in states for j in states}
        return cls(wa_from_parts([alphabet], states, dict(enumerate(alpha)),
                                 edges, dict.fromkeys(states, ONE)))

    def prefix_prob(self, w):
        return eval_wa(self.wa, (w,))


def _check_stochastic(wa):
    """ValueError unless alpha is a distribution and the per-symbol
    matrices sum to a row-stochastic matrix; each sum starts from its first
    term."""
    if total(x for x in wa.alpha if x) != 1 or any(x < 0 for x in wa.alpha):
        raise ValueError("initial vector is not a distribution")
    row_sums = {}
    for mat in wa.transitions.values():
        for i, row in mat.rows.items():
            for v in row.values():
                if v < 0:
                    raise ValueError("negative transition weight")
                row_sums[i] = row_sums[i] + v if i in row_sums else v
    if len(row_sums) < wa.dim or any(s != 1 for s in row_sums.values()):
        raise ValueError("per-symbol matrices do not sum to a stochastic matrix")


def uniform_hmm(alphabet):
    """The memoryless uniform distribution over Sigma^n for every n."""
    alphabet = tuple(alphabet)
    p = Rat(1, len(alphabet))
    return Hmm(wa_from_parts([alphabet], [0], {0: ONE},
                             {(0, (s,), 0): p for s in alphabet}, {0: ONE}))


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
        alpha = vector_from_json(obj["alpha"])
        trans = {(sym,): SpMat.from_entries(len(alpha), obj["matrices"][sym])
                 for sym in alphabet}
        return Hmm(NAlphabetWA([alphabet], alpha, trans, [ONE] * len(alpha)))
    return Hmm.from_matrices(obj["alpha"], obj["transition"], obj["emission"],
                             alphabet)
