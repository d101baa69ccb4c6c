"""Polynomial-time local/global SHAP for weighted automata under HMMs.

One forward-backward pass gives the values of all features.  Inputs x are
drawn from an outer side and the replaced features z from an inner side;
each side is an `Hmm` or a word, a word standing for the point distribution
on it.  `shap` checks a query (`models.check_query`, as the oracle
does) and answers the features it is asked, all n by default, with only
the part of the pass they need; the four queries only pick the sides
(inner, outer) and feature i:

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
vectors, the value of a coalition S of kept positions is

  v(S) = alpha M_1 ... M_n beta,  M_j = P_j if j in S, else Q_j.

P and Q are never formed whole: their rows are built from the factors
above, only at reachable joint states.  reach_0 is the support of alpha;
a sweep over positions 1..n builds the rows of P_j and Q_j at
reach_{j-1} and takes reach_j from their columns.  With
InSum_j = sum_t In_j[t], row (o, i, q) of P_j is

  sum_s (Out_j[s] (x) InSum_j).row(o, i) (x) f_s.row(q)

and of Q_j the same with OutSum_j (x) In_j[s].  Rows are kept per distinct
pair of layers, so positions that share a pair share them, and each
product of an outer and an inner weight is made once per (o, i, s).  Each
entry of a row is one `rational.dot` of its terms over every symbol, so an
entry whose terms cancel is dropped, the stored entries, and every reach_j,
are those of the full Kronecker sums, and an entry equal to 1 is the
shared ONE.  A reachable row costs one normalized Rat per entry, a state
out of reach nothing.

No Rat operation is made whose result one operand decides, and a sum of
products is normalized once.  `rat` reads every 0 and 1 of a file as the
shared ZERO and ONE, and a compiled automaton is mostly 0/1: a word side
is the unit layer, and every transition entry of a compiled tree is 1 but
those that carry its leaf values.  Every sum of products, an entry of a
row, of a forward vector (`SpMat.vecmat`), of a backward vector
(`SpMat.matvec`) or of its fold (below), a dot (`linalg.sparse_dot`) and a
phi_i, is one `rational.dot`: integer products over a common denominator,
then one Rat.  The other products, of an outer by an inner weight and of
initial or final weights, are `rational.times`, which skips a factor that
is ZERO or ONE, and every other sum starts from its first term, never from
ZERO.  A 1 that is another object is multiplied as any other value, to the
same answer.  On a compiled depth-3 tree under a compiled 4-row dataset
(n = 6), a local interventional pass makes 35 Fraction products and 47
sums, its efficiency check (below) 6 more sums, where the pass makes 279
products and 235 sums when each is made term by term, products by 1 and
sums with 0 included, and with unfolded weights.

Null players leave the pass.  Every coalition's vector alpha M_1 ...
M_{j-1} lives on reach_{j-1}.  Where P_j and Q_j store identical rows at
every state of reach_{j-1}, v(S + j) = v(S) for every S: position j is a
null player and phi_j = 0.  Rows keep no exact zeros, so comparing the
stored rows compares the rows.  This holds when both sides are words with
the same letter at j, and when f's symbol matrices agree on every
reachable state, as at a feature no leaf of a compiled tree tests.  By
the null-player axiom the other features have the Shapley values of the
game on the m positions that are players: in
phi_i = sum_S c_n(|S|) (v(S+i) - v(S)), over S in N-{i}, the terms of S
and S + j have the same difference for a null j, and
c_n(s) + c_n(s+1) = c_{n-1}(s), so j leaves the sum.  The forward vectors
F_j[k] cover positions 1..j with k players kept, and the backward vectors
B_j[k] positions j..n; at a player j

  F_0[0] = alpha      F_j[k] = F_{j-1}[k] Q_j + F_{j-1}[k-1] P_j
  B_{n+1}[0] = beta   B_j[k] = Q_j B_{j+1}[k] + P_j B_{j+1}[k-1]

and at a null j, F_j[k] = F_{j-1}[k] P_j and B_j[k] = P_j B_{j+1}[k], with
no shift in k.  For a player i,

  phi_i = sum_{a,b} c(a+b) F_{i-1}[a] (P_i - Q_i) B_{i+1}[b],
  c(k) = k! (m-1-k)! / m!

and m = 0 answers all zeros.  The weights fold into the backward vectors.
With the integer w(k) = k! (m-1-k)! = m! c(k), and a counting the players
kept before j, let W_j[a] = sum_b w(a+b) B_j[b]; then

  W_j[a] = Q_j W_{j+1}[a] + P_j W_{j+1}[a+1] at a player j,
  W_j[a] = P_j W_{j+1}[a] at a null j,
  phi_i = (sum_a F_{i-1}[a] (P_i - Q_i) W_{i+1}[a]) / m!

with a up to the players before i: one pair of vectors per player before
i, plus one, all dotted in one `rational.dot`, then one division by m!.
The weights are integer Rats, so W keeps B's denominators.  B runs
unfolded from n down to the last player asked, l, where W_{l+1}[a] for a
up to the players before l is folded from it once; W runs on down from
there, and each player it passes drops its last vector, which no player
below reads.

Every product is over reachable states only: beta enters on reach_n, and
B_{j+1}, or W_{j+1}, is computed on reach_j alone, row by row, from rows
the sweep built.  F_{j-1} lives in reach_{j-1}, so F_{j-1} (P_j - Q_j)
lives in reach_j and phi never reads B elsewhere.  The restriction is
structural: masking by numerical supports could drop a state where the F
vectors cancel but their difference does not.

The pass pays for players, not positions.  At position j each vector
costs two products at a player and one at a null position, but the
vector a player's step drops.  F holds one vector per player it has
passed, plus one, and so does B; W holds one per player it has still to
pass, the one at hand included.  A pass asked for some features runs F
to the last player asked, B from n down to it and W from there past the
first, and the dots at the players asked; a null feature asked costs no
vector product.  The reach sweep still covers all n positions, since
B_{j+1} is computed on reach_j, and makes no vector product.  All n
features fold at the last player, so W runs the whole way down: they cost
at most m(n+1) vector-matrix and m(n-1) matrix-vector products and
m(m+1)/2 dot pairs, against n(n+1), n(n-1) and n(n+1)/2 over every
position, where the unfolded sum dots about m^3/6 pairs.  When every
position is a player, feature i alone costs i(i+1) vector-matrix and
(n-i)(n-i+1) matrix-vector products, as unfolded, folds its n-i+1 B
vectors into i W vectors and dots i pairs, so one feature is 2x cheaper
than the whole pass at i = 1 or n, 4x at i = n/2 and 3x on average.

A pass asked for all n features checks the efficiency axiom,
sum_i phi_i = v(N) - v(0), with v(0) = F_n[0] beta and v(N) = F_n[m] beta.
F stops at the last player, where F[0] and F[m] are at hand; their
difference is carried to position n, one vector-matrix product per null
position after it (within the bound above), and dotted with beta on
reach_n.  A mismatch raises EngineError: a fault of the engine, never an
answer.

When one object is both sides, every phi_i is 0 and no pass runs.  Inputs
x and replaced features z are then drawn independently from the same
distribution, so swapping them gives v(S) = E f(x_S z_{N-S}) = v(N-S).
In phi_i = sum_S c(|S|) (v(S+i) - v(S)), over S in N-{i}, let
T = N-{i}-S: then v(S+i) = v(T) and v(S) = v(T+i), and |T| = n-1-|S|
makes c(|T|) = c(|S|), so the term of S is minus the term of T and the
sum vanishes.  Identity is an O(1) test that the sides are one
distribution; equal but distinct objects still run the pass.  glo_i
passes its distribution as both sides, so global interventional SHAP
costs only the query check, in O(1) memory.  A word passed as both
sides is local baseline SHAP with the input as reference, also 0.

`shap_all` keeps the last few all-features answers of `shap` in a
functools.lru_cache keyed by (f, n, inner, outer) and their types, which
holds its objects strongly, so loc_i, loc_b and glo_b each share one pass
across consecutive features of one query; a hit repeats arguments that
already passed the check.  `shap` itself is not cached: the CLI asks one
feature per call, of objects it has just read, so no call of it could
hit.  Cached answers rely on `NAlphabetWA` and `Hmm` being immutable, as
they are documented to be.
The paper's builder pipeline is `builders.pipeline_shap`, kept as a
cross-check.
"""

from functools import lru_cache
from math import factorial, prod

from .hmm import Hmm
from .linalg import SpMat, sparse_dot, sparse_pairs
from .models import check_query
from .rational import Rat, ZERO, ONE, dot, exact, times, total
from .wa import NAlphabetWA

# enough for loc_i, loc_b and glo_b queries alternating over a few instances
CACHE_SIZE = 8

_UNIT = SpMat.from_dense([[ONE]])


class EngineError(RuntimeError):
    """A pass whose values break an identity they satisfy by the axioms:
    a fault of the engine, never an answer."""


def _side(side, n):
    """(alpha, beta, layer of each position) of an Hmm or a point word;
    equal layers are one object."""
    if isinstance(side, Hmm):
        layer = {s: m for (s,), m in side.wa.transitions.items()}
        return side.wa.alpha, side.wa.beta, [layer] * n
    units = {s: {s: _UNIT} for s in set(side)}
    return (ONE,), (ONE,), [units[s] for s in side]


class _Step:
    """P and Q of one pair of layers; each row is built from the factors,
    as the module docstring says, the first time `fill` meets its state."""

    def __init__(self, out_layer, in_layer, f_mats, dims):
        d_out, d_in, d_f = self.dims = dims
        out_sum = SpMat.sum(d_out, out_layer.values())
        in_sum = SpMat.sum(d_in, in_layer.values())
        self.P, self.Q = SpMat(d_out * d_in * d_f), SpMat(d_out * d_in * d_f)
        # per matrix, per symbol: (outer factor, inner factor, f_s, rows of
        # their product by (o, i))
        self.terms = (
            (self.P, [(out_layer[s], in_sum, fm, {})
                      for s, fm in f_mats.items() if s in out_layer]),
            (self.Q, [(out_sum, in_layer[s], fm, {})
                      for s, fm in f_mats.items() if s in in_layer]))
        self.done = set()

    def fill(self, states):
        """Build the rows of P and Q at these states; return the states
        their stored entries reach.  Each entry is one `rational.dot` of its
        terms over every symbol, which is the shared ZERO, left out of the
        row, where they cancel, so the stored entries, and the states they
        reach, are those of the summed Kronecker products; a sum equal to 1
        is ONE, which the vector products skip."""
        _, d_in, d_f = self.dims
        for x in states - self.done:
            oi, q = divmod(x, d_f)
            o, i = divmod(oi, d_in)
            for mat, terms in self.terms:
                sums = {}
                for outer, inner, fm, pairs in terms:
                    f_row = fm.rows.get(q)
                    if not f_row:
                        continue
                    ab = pairs.get(oi)
                    if ab is None:
                        ab = pairs[oi] = [
                            ((j * d_in + k) * d_f, times(a, b))
                            for j, a in outer.rows.get(o, {}).items()
                            for k, b in inner.rows.get(i, {}).items()]
                    for base, w in ab:
                        for r, c in f_row.items():
                            y = base + r
                            if y in sums:
                                sums[y].append((w, c))
                            else:
                                sums[y] = [(w, c)]
                row = {y: v for y, t in sums.items()
                       if (v := dot(t)) is not ZERO}
                if row:
                    mat.rows[x] = row
        self.done |= states
        nxt = set()
        for x in states:
            nxt.update(self.P.rows.get(x, ()))
            nxt.update(self.Q.rows.get(x, ()))
        return nxt


def _kron_vec(vecs, states=None):
    """The Kronecker product of dense vectors as a sparse dict, only at
    these states when they are given.  Each factor's support is taken
    once, and each product of leading factors is made once, where some
    state needs it."""
    out = {0: ONE}
    for k, vec in enumerate(vecs):
        d, tail = len(vec), prod(map(len, vecs[k + 1:]))
        keep = None if states is None else {x // tail for x in states}
        support = [(j, y) for j, y in enumerate(vec) if y]
        out = {i * d + j: times(x, y) for i, x in out.items()
               for j, y in support if keep is None or i * d + j in keep}
    return out


def _combine(u, v, sign=1):
    """u + sign * v of sparse vectors; an entry of v alone is copied (or
    negated), not added to 0, and a sum equal to 0 is dropped and one equal
    to 1 is the shared ONE."""
    out = dict(u)
    for j, y in v.items():
        if j not in out:
            out[j] = y if sign > 0 else -y
            continue
        s = exact(out[j] + y if sign > 0 else out[j] - y)
        if s is not ZERO:
            out[j] = s
        else:
            del out[j]
    return out


def _shift_add(dropped, kept):
    """[dropped[k] + kept[k-1] for k = 0..len]: the next F (or B) vectors."""
    return [_combine(q, p) for q, p in zip(dropped + [{}], [{}] + kept)]


def _fold(vecs, weights):
    """sum_b weights[b] vecs[b] of sparse vectors, each entry one
    `rational.dot`, which is dropped where it is ZERO."""
    terms = {}
    for w, vec in zip(weights, vecs):
        for x, y in vec.items():
            terms.setdefault(x, []).append((w, y))
    return {x: y for x, t in terms.items() if (y := dot(t)) is not ZERO}


def _pass(f, n, inner, outer, features):
    """(phi_i for i in features) of a checked query whose sides are two
    objects: a null feature answers 0, and the others run only the part of
    the pass they need, over the game of the m players that are not null."""
    o_alpha, o_beta, o_layers = _side(outer, n)
    i_alpha, i_beta, i_layers = _side(inner, n)
    dims = (len(o_alpha), len(i_alpha), f.dim)
    f_mats = {s: m for (s,), m in f.transitions.items()}
    built = {}
    steps = []
    for lo, li in zip(o_layers, i_layers):
        key = (id(lo), id(li))
        if key not in built:
            built[key] = _Step(lo, li, f_mats, dims)
        steps.append(built[key])

    # position j is a player unless P_j and Q_j store the same rows at
    # every state of reach_{j-1}, where all forward vectors live
    fwd = [_kron_vec((o_alpha, i_alpha, f.alpha))]
    reach = [set(fwd[0])]
    for step in steps:
        reach.append(step.fill(reach[-1]))
    players = [any(step.P.rows.get(x) != step.Q.rows.get(x)
                   for x in states) for step, states in zip(steps, reach)]
    m = sum(players)
    phis = dict.fromkeys(features, ZERO)
    wanted = {i for i in phis if players[i - 1]}
    if not wanted:
        return tuple(phis[i] for i in features)
    first, last = min(wanted), max(wanted)

    # diff[i][a] = F_{i-1}[a] (P_i - Q_i), a counting the players before i;
    # at a null position every F vector is multiplied by P_j alone
    diff = {}
    for j, step in enumerate(steps[:last], 1):
        vp = [step.P.vecmat(v) for v in fwd]
        if not players[j - 1]:
            fwd = vp
            continue
        vq = [step.Q.vecmat(v) for v in fwd]
        if j in wanted:
            diff[j] = [_combine(p, q, -1) for p, q in zip(vp, vq)]
        if j < last:
            fwd = _shift_add(vq, vp)
    # all features: F_n[m] - F_n[0], whose dot with beta is v(N) - v(0);
    # at the last player F[m] is vp[-1] and F[0] is vq[0], and past it
    # every position is null
    efficiency = len(set(features)) == n
    if efficiency:
        gap = _combine(vp[-1], vq[0], -1)
        for step in steps[last:]:
            gap = step.P.vecmat(gap)

    # bwd = [B_{j+1}[b] for b = 0..players after j] on reach_j, where
    # diff[j] lives and where B_j on reach_{j-1} reads it, down to the last
    # player asked; there it folds into [W_{j+1}[a] for a = 0..players
    # before j], and each player below drops the last W vector
    w = [exact(Rat(factorial(k) * factorial(m - 1 - k))) for k in range(m)]
    scale = factorial(m)
    end = _kron_vec((o_beta, i_beta, f.beta), reach[n])
    bwd = [end]
    for j in range(n, first - 1, -1):
        if j == last:
            bwd = [_fold(bwd, w[a:]) for a in range(len(diff[j]))]
        if j in wanted:
            phis[j] = exact(dot([t for g, v in zip(diff[j], bwd)
                                 for t in sparse_pairs(g, v)]) / scale)
        if j > first:
            step, rows = steps[j - 1], reach[j - 1]
            if not players[j - 1]:
                bwd = [step.P.matvec(v, rows) for v in bwd]
            elif j > last:
                bwd = _shift_add([step.Q.matvec(v, rows) for v in bwd],
                                 [step.P.matvec(v, rows) for v in bwd])
            else:
                bwd = [_combine(step.Q.matvec(u, rows),
                                step.P.matvec(v, rows))
                       for u, v in zip(bwd, bwd[1:])]
    if (efficiency
            and total(p for p in phis.values() if p) != sparse_dot(gap, end)):
        raise EngineError("the values do not sum to v(N) - v(0)")
    return tuple(phis[i] for i in features)


def shap(f, n, inner, outer, features=None):
    """(phi_i for i in features, all n by default) at length n: inputs
    ~ outer, replaced features ~ inner, each an Hmm or a word (the point
    distribution on it).  TypeError unless the engine reads the objects,
    then IndexError or ValueError unless `models.check_query` accepts the
    query.  A side passed twice as one object answers zeros once checked,
    as the module docstring proves; otherwise a null feature answers 0
    with no vector product, and only the part of the pass the other
    features need runs.  EngineError if the values of all n features do
    not sum to v(N) - v(0).  Not cached."""
    _gate(f, inner, outer)
    features = check_query(f, n, inner, outer, features)
    if inner is outer:
        return (ZERO,) * len(features)
    return _pass(f, n, inner, outer, features)


# shap of all n features, from a cache of its answers; typed, so that
# n = 2.0 is a new key, which check_query refuses, not n = 2's hit
shap_all = lru_cache(maxsize=CACHE_SIZE, typed=True)(shap)


def reads(f, inner, outer):
    """True when the engine takes these objects: an NAlphabetWA model and
    sides that are each an Hmm or a word (str)."""
    return (isinstance(f, NAlphabetWA) and isinstance(inner, (Hmm, str))
            and isinstance(outer, (Hmm, str)))


def _gate(f, inner, outer):
    if not reads(f, inner, outer):
        raise TypeError("the engine takes an NAlphabetWA model and sides "
                        "that are each an Hmm or a word (str)")


def _phi(f, i, n, inner, outer):
    """phi_i from the cache; uncached when one object is both sides, which
    needs no pass, or when i is out of range, which shap refuses."""
    if inner is outer or not (type(i) is int and 1 <= i <= n):
        return shap(f, n, inner, outer, (i,))[0]
    _gate(f, inner, outer)  # before the cache, which cannot hash some types
    return shap_all(f, n, inner, outer)[i - 1]


def loc_i_shap(f, w, i, dist):
    """Local interventional SHAP of feature i for input w under dist."""
    return _phi(f, i, len(w), dist, w)


def loc_b_shap(f, w, i, w_ref):
    """Local baseline SHAP of feature i for input w with reference w_ref."""
    return _phi(f, i, len(w), w_ref, w)


def glo_i_shap(f, i, n, dist):
    """Global interventional SHAP of feature i at length n under dist."""
    return _phi(f, i, n, dist, dist)


def glo_b_shap(f, i, n, w_ref, dist):
    """Global baseline SHAP of feature i with reference w_ref, inputs ~ dist."""
    return _phi(f, i, n, w_ref, dist)
