"""Constructive hardness reductions, emitted as runnable instances.

Each constructor returns a concrete model plus the query (feature,
explained input, reference, threshold) whose baseline-SHAP answer
decides the source problem:

- weighted majority game -> sigmoid network (dummy iff phi_b <= eps);
- weighted majority game -> ReLU RNN (dummy iff phi_b = 0, exact);
- CNF formula -> voting tree ensemble (satisfiable iff phi_b(n+1) > 0);
- closest-string instance -> ReLU RNN (no witness iff f is empty).
"""

import math
from dataclasses import dataclass, field
from math import comb

from .models import DecisionTree, DTNode, TreeEnsemble
from .oracle import RnnRelu, SigmoidNet
from .rational import Rat, ZERO, ONE, format_rat

BINARY = ("0", "1")


@dataclass
class GadgetInstance:
    model: object
    feature: int
    x: str
    x_ref: str
    epsilon: object = None      # rational threshold, sigmoid gadget only
    metadata: dict = field(default_factory=dict)


def shapley_weight_bound(n_players):
    """C_N = N * C(N-1, floor((N-1)/2)): the reciprocal of the smallest
    Shapley coalition weight 1/(N * C(N-1, |S|)), maximized over |S|."""
    return n_players * comb(n_players - 1, (n_players - 1) // 2)


def wmg_to_sigmoid(game, i):
    """Dummy-player query as a sigmoid-network baseline-SHAP threshold test."""
    n = game.n
    if not (1 <= i <= n):
        raise IndexError(f"player {i} out of range")
    c_n = shapley_weight_bound(n)
    # With gain 2*log((1-eps)/eps) every sigmoid value is within eps of the
    # 0/1 coalition value, with the losing side attaining eps exactly at
    # quota-1.  A flipping coalition therefore contributes >= 1-2*eps (not
    # 1-eps), so soundness needs (1-2*eps)/C_N > eps, i.e. eps < 1/(2+C_N):
    # dummies give phi_b < eps, non-dummies phi_b >= 2*eps.
    eps = Rat(1, 2 * (1 + c_n))
    gain = 2.0 * math.log((1.0 - float(eps)) / float(eps))
    net = SigmoidNet(weights=[Rat(p) for p in game.powers],
                     bias=Rat(1, 2) - Rat(game.quota),
                     gain=gain)
    return GadgetInstance(
        model=net, feature=i, x="1" * n, x_ref="0" * n, epsilon=eps,
        metadata={
            "C_N": c_n,
            "epsilon": format_rat(eps),
            "gain": gain,
            # looser published variants, recorded but not used: the
            # 1/(1+C_N) threshold admits counterexamples (e.g. powers
            # (4,5), quota 1, player 1), as does the log(N) gain
            "epsilon_variant_loose": format_rat(Rat(1, 1 + c_n)),
            "gain_variant_main_text": 2.0 * math.log(n) if n > 1 else 0.0,
            "C_N_variant_with_factorial": n * math.factorial(
                comb(n - 1, (n - 1) // 2)),
        })


def wmg_to_rnnrelu(game):
    """Exact ReLU-RNN simulation of the game: f(x) = v(supp(x)).

    Hidden layout (0-indexed, dim N+2): neurons 0..N form a shift chain
    whose step-j write is the running vote sum of the first j players;
    neuron N+1 is constantly 1.  Output reads neuron N minus quota times
    the constant neuron.
    """
    n = game.n
    dim = n + 2
    W = [[ZERO] * dim for _ in range(dim)]
    for l in range(1, n + 1):
        W[l][l - 1] = ONE
    W[n + 1][n + 1] = ONE
    v0 = [ZERO] * dim
    v1 = [ZERO] * dim
    for l in range(1, n + 1):
        v1[l] = Rat(game.powers[l - 1])
    h_init = [ZERO] * dim
    h_init[n + 1] = ONE
    out = [ZERO] * dim
    out[n] = ONE
    out[n + 1] = -Rat(game.quota)
    return RnnRelu(h_init=h_init, W=W, emb={"0": v0, "1": v1}, out=out,
                   domain=BINARY)


def _clause_tree(clause, n_features):
    """Label 1 iff the clause holds and the extra feature n+1 is 1."""
    required = {}
    tautology = False
    for lit in clause:
        var = abs(lit)
        sign = "1" if lit > 0 else "0"
        if required.get(var, sign) != sign:
            tautology = True
        required.setdefault(var, sign)
    if tautology:
        chain = DTNode(leaf=ONE)
    else:
        chain = DTNode(leaf=ZERO)
        for var, sign in sorted(required.items(), reverse=True):
            other = "0" if sign == "1" else "1"
            chain = DTNode(feature=var,
                           children={sign: DTNode(leaf=ONE), other: chain})
    root = DTNode(feature=n_features,
                  children={"0": DTNode(leaf=ZERO), "1": chain})
    return DecisionTree(root, n_features, BINARY)


def sat_to_ensemble(formula):
    """m clause trees vs m-1 null trees, majority vote.

    The ensemble outputs 1 iff x_{n+1} = 1 and x satisfies the formula, so
    satisfiability is equivalent to phi_b of feature n+1 (at all-ones vs
    all-zeros) being strictly positive.
    """
    m = len(formula.clauses)
    if m < 1:
        raise ValueError("at least one clause required")
    n1 = formula.n + 1
    trees = [_clause_tree(c, n1) for c in formula.clauses]
    trees += [DecisionTree(DTNode(leaf=ZERO), n1, BINARY)
              for _ in range(m - 1)]
    ensemble = TreeEnsemble(trees, [ONE] * (2 * m - 1), "vote")
    return GadgetInstance(model=ensemble, feature=n1,
                          x="1" * n1, x_ref="0" * n1,
                          metadata={"clauses": m, "variables": formula.n})


def csp_construct(w, k, domain=None):
    """One closest-string cell: after reading w' (|w'| = |w|),
    hidden neuron |w|-1 (0-indexed) equals ReLU(d_H(w, w') - k).

    Shift chain over neurons 0..n-1 accumulating mismatch indicators; the
    last chain neuron additionally receives -k from the constant neuron n.
    """
    n = len(w)
    if not (0 <= k <= n):
        raise ValueError(f"radius {k} out of range")
    if domain is None:
        domain = BINARY if set(w) <= set(BINARY) else tuple(sorted(set(w)))
    dim = n + 1
    W = [[ZERO] * dim for _ in range(dim)]
    for l in range(1, n):
        W[l][l - 1] = ONE
    W[n - 1][n] = W[n - 1][n] - Rat(k)
    W[n][n] = ONE
    emb = {}
    for s in domain:
        v = [ZERO] * dim
        for l in range(n):
            if w[l] != s:
                v[l] = ONE
        emb[s] = v
    h_init = [ZERO] * dim
    h_init[0] = ONE
    h_init[n] = ONE
    out = [ZERO] * dim
    out[n - 1] = -ONE
    out[n] = Rat(1, 2)
    return RnnRelu(h_init=h_init, W=W, emb=emb, out=out, domain=tuple(domain))


def csp_to_rnn(inst):
    """Block-diagonal concatenation of per-string cells.

    f(w') = 1 iff every input string is within Hamming radius k of w', so
    the instance has no witness iff f is empty on Sigma^n.
    """
    cells = [csp_construct(w, inst.radius, inst.domain) for w in inst.strings]
    dims = [len(c.h_init) for c in cells]
    total = sum(dims)
    W = [[ZERO] * total for _ in range(total)]
    h_init = [ZERO] * total
    out = [ZERO] * total
    emb = {s: [ZERO] * total for s in inst.domain}
    offset = 0
    for ci, cell in enumerate(cells):
        d = dims[ci]
        for a in range(d):
            h_init[offset + a] = cell.h_init[a]
            for b in range(d):
                W[offset + a][offset + b] = cell.W[a][b]
            for s in inst.domain:
                emb[s][offset + a] = cell.emb[s][a]
        out[offset + d - 2] = -ONE          # the cell's distance neuron
        if ci == 0:
            out[offset + d - 1] = Rat(1, 2)  # one constant-neuron tie-break
        offset += d
    return RnnRelu(h_init=h_init, W=W, emb=emb, out=out, domain=inst.domain)
