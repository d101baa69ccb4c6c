"""Polynomial-time local/global SHAP for weighted automata under HMMs.

One forward-backward pass gives the values of all features.  Inputs x are
drawn from an outer side and the replaced features z from an inner side;
each side is an `Hmm` or a word, a word standing for the point distribution
on it.  `shap_all` checks a query; the four queries only pick its sides
(inner, outer) and the feature i:

  glo_i:  (D, D)          loc_i:  (D, w)
  glo_b:  (w_ref, D)      loc_b:  (w_ref, w)

so local SHAP at w is global SHAP with inputs drawn from the point on w.

A side is read per position j as a map from symbol to matrix: an Hmm
repeats its matrices at every position, a word w is the width-1 layer
{w_j: [[1]]}, and a symbol the side never emits has no matrix.  The joint
state is (outer state, inner state, f state).  Position j is either kept,
so f reads x_j, or replaced, so f reads z_j:

  P_j = sum_s Out_j[s] (x) (sum_t In_j[t]) (x) f_s
  Q_j = sum_s (sum_t Out_j[t]) (x) In_j[s] (x) f_s

With alpha and beta the Kronecker products of the three initial and final
vectors, the forward vectors F_j[k] cover positions 1..j with k of them
kept, and the backward vectors B_j[k] cover positions j..n:

  F_0[0] = alpha      F_j[k] = F_{j-1}[k] Q_j + F_{j-1}[k-1] P_j
  B_{n+1}[0] = beta   B_j[k] = Q_j B_{j+1}[k] + P_j B_{j+1}[k-1]

  phi_i = sum_{a,b} c(a+b) F_{i-1}[a] (P_i - Q_i) B_{i+1}[b],
  c(k) = k! (n-1-k)! / n!

P and Q are built once per distinct pair of layers and B runs through their
transposes: O(n^2) sparse vector-matrix products and O(n^3) dot products
for all n features, every value a Rat.

`shap_all` keeps its last few answers in a functools.lru_cache keyed by
(f, n, inner, outer) that holds its objects strongly, so loc_i and loc_b
share one pass across consecutive features of one input; a hit repeats
arguments that already passed the checks.  Cached answers rely on
`NAlphabetWA` and `Hmm` being immutable, as they are documented to be.
glo_i and glo_b run one uncached pass per call, so a global value costs
the same whichever features were asked before it; callers that want
every global value call `shap_all` once.  The paper's builder pipeline
is `builders.pipeline_shap`, kept as a cross-check.
"""

from functools import lru_cache
from math import factorial

from .hmm import Hmm
from .linalg import SpMat
from .rational import Rat, ZERO, ONE

# enough for loc_i and loc_b queries alternating over a few instances
CACHE_SIZE = 8

_UNIT = SpMat.from_dense([[ONE]])


def _check_word(w, sig, name):
    allowed = set(sig)
    for s in w:
        if s not in allowed:
            raise ValueError(f"{name} symbol {s!r} not in the model alphabet")


def _side(side, sig, n, name):
    """(alpha, beta, layer of each position) of an Hmm or a point word;
    equal layers are one object."""
    if isinstance(side, Hmm):
        _check_word(side.alphabet, sig, "distribution")
        layer = {s: m for (s,), m in side.wa.transitions.items()}
        return side.wa.alpha, side.wa.beta, [layer] * n
    if len(side) != n:
        raise ValueError(f"{name} has length {len(side)}, not n={n}")
    _check_word(side, sig, name)
    units = {s: {s: _UNIT} for s in set(side)}
    return (ONE,), (ONE,), [units[s] for s in side]


def _total(layer, dim):
    out = SpMat(dim)
    for m in layer.values():
        out = out + m
    return out


def _steps(out_layer, in_layer, f_mats, dims):
    """(P, Q, P^T, Q^T) of one position."""
    d_out, d_in, d_f = dims
    out_sum, in_sum = _total(out_layer, d_out), _total(in_layer, d_in)
    P = Q = SpMat(d_out * d_in * d_f)
    for s, fm in f_mats.items():
        if s in out_layer:
            P = P + out_layer[s].kron(in_sum).kron(fm)
        if s in in_layer:
            Q = Q + out_sum.kron(in_layer[s]).kron(fm)
    return P, Q, P.transpose(), Q.transpose()


def _kron_vec(*vecs):
    out = {0: ONE}
    for vec in vecs:
        out = {i * len(vec) + j: x * y for i, x in out.items()
               for j, y in enumerate(vec) if y != 0}
    return out


def _combine(u, v, sign=1):
    """u + sign * v of sparse vectors."""
    out = dict(u)
    for j, y in v.items():
        s = out.get(j, ZERO) + (y if sign > 0 else -y)
        if s != 0:
            out[j] = s
        else:
            out.pop(j, None)
    return out


def _dot(u, v):
    if len(u) > len(v):
        u, v = v, u
    return sum((x * v[j] for j, x in u.items() if j in v), ZERO)


def _shift_add(dropped, kept):
    """[dropped[k] + kept[k-1] for k = 0..len]: the next F (or B) vectors."""
    return [_combine(q, p) for q, p in zip(dropped + [{}], [{}] + kept)]


@lru_cache(maxsize=CACHE_SIZE)
def shap_all(f, n, inner, outer):
    """(phi_1, ..., phi_n) at length n: inputs ~ outer, replaced features
    ~ inner, each an Hmm or a word (the point distribution on it).
    ValueError unless f reads one tape, each word has length n and every
    symbol of a side is in f's alphabet."""
    if f.arity != 1:
        raise ValueError("the model must be a 1-alphabet automaton")
    sig = f.alphabets[0]
    o_alpha, o_beta, o_layers = _side(outer, sig, n, "input")
    i_alpha, i_beta, i_layers = _side(inner, sig, n, "reference")
    dims = (len(o_alpha), len(i_alpha), f.dim)
    f_mats = {s: m for (s,), m in f.transitions.items()}
    built = {}
    steps = []
    for lo, li in zip(o_layers, i_layers):
        key = (id(lo), id(li))
        if key not in built:
            built[key] = _steps(lo, li, f_mats, dims)
        steps.append(built[key])

    # diff[j][a] = F_j[a] (P_{j+1} - Q_{j+1}) for a = 0..j
    diff = []
    fwd = [_kron_vec(o_alpha, i_alpha, f.alpha)]
    for P, Q, _, _ in steps:
        vp = [P.vecmat(v) for v in fwd]
        vq = [Q.vecmat(v) for v in fwd]
        diff.append([_combine(p, q, -1) for p, q in zip(vp, vq)])
        fwd = _shift_add(vq, vp)

    # bwd[j] = [B_{j+2}[b] for b = 0..n-j-1], filled from position n down
    bwd = [[_kron_vec(o_beta, i_beta, f.beta)]]
    for _, _, Pt, Qt in reversed(steps[1:]):
        nxt = bwd[-1]
        bwd.append(_shift_add([Qt.vecmat(v) for v in nxt],
                              [Pt.vecmat(v) for v in nxt]))
    bwd.reverse()

    c = [Rat(factorial(k) * factorial(n - 1 - k), factorial(n))
         for k in range(n)]
    phis = []
    for i in range(n):
        by_size = [ZERO] * n
        for a, g in enumerate(diff[i]):
            if g:
                for b, v in enumerate(bwd[i]):
                    by_size[a + b] += _dot(g, v)
        phis.append(sum((ck * d for ck, d in zip(c, by_size) if d), ZERO))
    return tuple(phis)


def _phi(f, i, n, inner, outer, cached=True):
    if not (1 <= i <= n):
        raise IndexError(f"feature {i} out of range for n={n}")
    run = shap_all if cached else shap_all.__wrapped__
    return run(f, n, inner, outer)[i - 1]


def loc_i_shap(f, w, i, dist):
    """Local interventional SHAP of feature i for input w under dist."""
    return _phi(f, i, len(w), dist, w)


def loc_b_shap(f, w, i, w_ref):
    """Local baseline SHAP of feature i for input w with reference w_ref."""
    return _phi(f, i, len(w), w_ref, w)


def glo_i_shap(f, i, n, dist):
    """Global interventional SHAP of feature i at length n under dist."""
    return _phi(f, i, n, dist, dist, cached=False)


def glo_b_shap(f, i, n, w_ref, dist):
    """Global baseline SHAP of feature i with reference w_ref, inputs ~ dist."""
    return _phi(f, i, n, w_ref, dist, cached=False)
