"""Hidden Markov models as 1-alphabet weighted automata.

An HMM <alpha, T, O> is kept directly in per-symbol matrix form
A_sigma = T * Diag(O[:, sigma]); the prefix probability of w is
alpha^T (prod A_{w_j}) 1, so the underlying WA has the all-ones final
vector.  Row-stochasticity of T makes sum_sigma A_sigma row-stochastic,
hence prefix probabilities over Sigma^n sum to 1 for every n.
"""

from .linalg import SpMat
from .rational import Rat, ZERO, ONE, format_rat, parse_rat, rat
from .wa import NAlphabetWA, eval_wa


class Hmm:
    """A stationary sequential distribution with prefix-probability semantics."""

    def __init__(self, wa, check=True):
        if wa.arity != 1:
            raise ValueError("an HMM is a 1-alphabet automaton")
        if any(b != 1 for b in wa.beta):
            raise ValueError("HMM final vector must be all-ones")
        if check:
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
        n = len(alpha)
        alphabet = tuple(alphabet)
        trans = {}
        for s, sigma in enumerate(alphabet):
            mat = SpMat(n)
            for i in range(n):
                for j in range(n):
                    v = rat(transition[i][j]) * rat(emission[j][s])
                    if v != 0:
                        mat.set(i, j, v)
            if mat.rows:
                trans[(sigma,)] = mat
        wa = NAlphabetWA([alphabet], alpha, trans, [ONE] * n)
        return cls(wa)

    def prefix_prob(self, w):
        return eval_wa(self.wa, (w,))


def _check_stochastic(wa):
    n = wa.dim
    if sum(wa.alpha) != 1 or any(x < 0 for x in wa.alpha):
        raise ValueError("initial vector is not a distribution")
    row_sums = [ZERO] * n
    for mat in wa.transitions.values():
        for i, row in mat.rows.items():
            for v in row.values():
                if v < 0:
                    raise ValueError("negative transition weight")
                row_sums[i] += v
    if any(s != 1 for s in row_sums):
        raise ValueError("per-symbol matrices do not sum to a stochastic matrix")


def uniform_hmm(alphabet):
    """The memoryless uniform distribution over Sigma^n for every n."""
    alphabet = tuple(alphabet)
    p = Rat(1, len(alphabet))
    trans = {(s,): SpMat.from_dense([[p]]) for s in alphabet}
    return Hmm(NAlphabetWA([alphabet], [ONE], trans, [ONE]))


# ---------------------------------------------------------------------------
# JSON serialization


def hmm_to_json(m):
    return {
        "alphabet": list(m.alphabet),
        "alpha": [format_rat(x) for x in m.wa.alpha],
        "matrices": {
            sym: [[format_rat(v) for v in row]
                  for row in m.wa.transitions[(sym,)].to_dense()]
            if (sym,) in m.wa.transitions
            else [[format_rat(ZERO)] * m.dim for _ in range(m.dim)]
            for sym in m.alphabet
        },
    }


def hmm_from_json(obj):
    """Accepts either per-symbol matrices or a <transition, emission> pair."""
    alphabet = tuple(obj["alphabet"])
    alpha = [parse_rat(x) for x in obj["alpha"]]
    if "matrices" in obj:
        n = len(alpha)
        trans = {}
        for sym in alphabet:
            rows = obj["matrices"][sym]
            mat = SpMat.from_dense([[parse_rat(v) for v in row]
                                    for row in rows])
            if mat.rows:
                trans[(sym,)] = mat
        return Hmm(NAlphabetWA([alphabet], alpha, trans, [ONE] * n))
    transition = [[parse_rat(v) for v in row] for row in obj["transition"]]
    emission = [[parse_rat(v) for v in row] for row in obj["emission"]]
    return Hmm.from_matrices(alpha, transition, emission, alphabet)
