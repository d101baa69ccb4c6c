"""Tabular models and distribution families.

These are the "source" objects the frontends compile into weighted
automata / HMMs: decision trees, tree ensembles, linear models with
categorical features, non-stationary per-position HMMs (HmmVec),
empirical datasets, independent products, Markov chains and Naive
Bayes.  ReLU RNNs and sigmoid networks, the gadgets' models, are
evaluated by the oracle only.  Feature indices are 1-based; feature
values are single-character symbols so that inputs double as sequences.
Each constructor coerces its rational fields with `rat` and checks them.
"""

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import reduce

from .hmm import symbol_matrices
from .rational import (Rat, ZERO, ONE, as_list, check_law, dot, exact,
                       format_rat, rat, rats, times, total)


def step(x):
    """step(x) = 1 iff x >= 0."""
    return 1 if x >= 0 else 0


def _domain(domain):
    """The domain as a tuple; TypeError unless it is a list or tuple,
    ValueError unless its symbols are distinct one-character strings."""
    domain = tuple(as_list(domain, "symbols"))
    if not all(isinstance(s, str) and len(s) == 1 for s in domain):
        raise ValueError(
            f"domain symbols must be one-character strings: {list(domain)}")
    if len(set(domain)) != len(domain):
        raise ValueError(f"repeated domain symbol: {list(domain)}")
    return domain


def _check_n(n):
    # a bool is an int to isinstance, so True would read as n = 1
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative integer, not {n!r}")


def _check_law(probs, what, domain):
    """ValueError unless probs ({symbol: prob}) is a distribution over
    symbols of domain."""
    alien = set(probs) - set(domain)
    if alien:
        raise ValueError(f"{what} has symbols {sorted(alien, key=str)} "
                         f"outside the domain {list(domain)}")
    check_law(probs.values(), what)


def symbols(side):
    """An Hmm's alphabet, a distribution's domain or a word's letters."""
    return getattr(side, "alphabet", None) or getattr(side, "domain", side)


def check_query(f, n, inner, outer, features=None):
    """The features asked (all n by default, as a range) once the query
    is checked: IndexError unless each feature is an int in 1..n, and not
    a bool; then ValueError unless n is a non-negative int; f reads one
    tape; f and each side (inputs from outer, replacing words from inner)
    that has a length or an n has n; and each side uses only f's symbols
    (its alphabet or domain)."""
    if features is not None:
        features = tuple(features)
        for i in features:
            if not (type(i) is int and 1 <= i <= n):
                raise IndexError(f"feature {i!r} out of range for n={n}")
    _check_n(n)
    tapes = getattr(f, "alphabets", None) or (f.domain,)
    if len(tapes) != 1:
        raise ValueError("the model must be a 1-alphabet automaton")
    if getattr(f, "n", n) != n:
        raise ValueError(f"the model has n={f.n}, not n={n}")
    for side, role in ((outer, "input"), (inner, "replacing")):
        size = len(side) if isinstance(side, str) else getattr(side, "n", n)
        if size != n:
            raise ValueError(f"the {role} side has length {size}, not n={n}")
        alien = sorted(set(symbols(side)) - set(tapes[0]))
        if alien:
            raise ValueError(f"the {role} side uses symbols {alien} outside "
                             f"the model's alphabet {list(tapes[0])}")
    return range(1, n + 1) if features is None else features


# ---------------------------------------------------------------------------
# decision trees and ensembles


@dataclass
class DTNode:
    feature: int = None            # 1-based, internal nodes only
    children: dict = None          # value symbol -> DTNode
    leaf: object = None            # rational label, leaves only

    def is_leaf(self):
        return self.children is None


@dataclass
class DecisionTree:
    root: DTNode
    n: int
    domain: tuple

    def __post_init__(self):
        _check_n(self.n)
        self.domain = _domain(self.domain)
        self._check(self.root, set())

    def _check(self, node, seen):
        if node.is_leaf():
            if node.leaf is None:
                raise ValueError("leaf without a label")
            node.leaf = rat(node.leaf)
            return
        if not (type(node.feature) is int and 1 <= node.feature <= self.n):
            raise ValueError(f"feature {node.feature} out of range")
        if node.feature in seen:
            raise ValueError(f"feature {node.feature} repeats on a path")
        if set(node.children) != set(self.domain):
            raise ValueError("children must cover the whole domain")
        for child in node.children.values():
            self._check(child, seen | {node.feature})

    def evaluate(self, x):
        node = self.root
        while not node.is_leaf():
            node = node.children[x[node.feature - 1]]
        return node.leaf

    def leaves(self):
        """Yield (constraints, value) with constraints a {feature: symbol} dict."""
        stack = [(self.root, {})]
        while stack:
            node, constraints = stack.pop()
            if node.is_leaf():
                yield constraints, node.leaf
            else:
                for sym, child in node.children.items():
                    stack.append((child, {**constraints, node.feature: sym}))


@dataclass
class TreeEnsemble:
    trees: list
    weights: list
    mode: str  # "regression" | "vote"

    def __post_init__(self):
        if len(self.trees) != len(self.weights):
            raise ValueError("one weight per tree required")
        if self.mode not in ("regression", "vote"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if len({(t.n, t.domain) for t in self.trees}) != 1:
            raise ValueError("an ensemble needs trees that share one n and "
                             "one domain")
        self.weights = rats(self.weights)
        if self.mode == "vote" and any(v not in (0, 1) for t in self.trees
                                       for _, v in t.leaves()):
            raise ValueError("a vote ensemble needs 0/1 leaves")

    @property
    def n(self):
        return self.trees[0].n

    @property
    def domain(self):
        return self.trees[0].domain

    def evaluate(self, x):
        votes = [(w, t.evaluate(x)) for w, t in zip(self.weights, self.trees)]
        if self.mode == "regression":
            return dot([(w, v) for w, v in votes if v])
        # majority vote between the 0 and 1 labels, ties broken towards 1:
        # the weights of the 1 votes against those of the 0 votes
        ones = total(w for w, v in votes if v)
        return ONE if ones >= total(w for w, v in votes if not v) else ZERO


@dataclass
class LinearModel:
    """f(x) = sum_i w_{i, x_i} + b over categorical features."""
    n: int
    domain: tuple
    weights: dict            # (feature, symbol) -> rational, 0-padded
    intercept: object = ZERO

    def __post_init__(self):
        _check_n(self.n)
        self.domain = _domain(self.domain)
        self.intercept = rat(self.intercept)
        self.weights = {(i, d): rat(v) for (i, d), v in self.weights.items()}
        for i, d in self.weights:
            if not (1 <= i <= self.n and d in self.domain):
                raise ValueError(f"weight key {i},{d} outside 1..n x domain")

    def weight(self, i, d):
        return self.weights.get((i, d), ZERO)

    def evaluate(self, x):
        weights = (self.weight(i, sym) for i, sym in enumerate(x, start=1))
        return total(w for w in (self.intercept, *weights) if w)


# ---------------------------------------------------------------------------
# distribution families


@dataclass
class HmmVec:
    """Non-stationary HMM over n positions; position j emits feature pi[j]."""
    pi: tuple                # permutation of 1..n
    alpha: list
    transitions: list        # n stochastic matrices
    emissions: list          # n emission matrices (state x symbol)
    domain: tuple

    def __post_init__(self):
        self.pi = tuple(self.pi)
        n = len(self.pi)
        if sorted(self.pi) != list(range(1, n + 1)):
            raise ValueError("pi must be a permutation of 1..n")
        if not (len(self.transitions) == len(self.emissions) == n):
            raise ValueError("one transition/emission matrix per position")
        self.domain = _domain(self.domain)
        self.alpha = rats(self.alpha)
        check_law(self.alpha, "alpha")
        self.transitions = [[rats(row) for row in m]
                            for m in self.transitions]
        self.emissions = [[rats(row) for row in m] for m in self.emissions]
        # each position's {symbol: T_j Diag(O_j[:, symbol])}, not a field
        self.layers = [symbol_matrices(len(self.alpha), T, O, self.domain)
                       for T, O in zip(self.transitions, self.emissions)]

    @property
    def n(self):
        return len(self.pi)

    def prob(self, x):
        """P(x) = alpha^T prod_j T_j Diag(O_j[:, x_{pi(j)}]) 1, over the
        sparse rows of each position's symbol matrix; each entry of the
        next vector is one `rational.dot`."""
        v = {a: p for a, p in enumerate(self.alpha) if p}
        for j, layer in zip(self.pi, self.layers):
            rows = layer[x[j - 1]].rows
            terms = {}
            for a, p in v.items():
                for b, t in rows.get(a, {}).items():
                    terms.setdefault(b, []).append((p, t))
            v = {b: y for b, t in terms.items() if (y := dot(t)) is not ZERO}
        return total(v.values())


@dataclass
class Dataset:
    rows: list

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty dataset")
        if not (isinstance(self.rows, (list, tuple))
                and all(isinstance(r, str) for r in self.rows)):
            raise ValueError("rows must be a list of strings")
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged rows")
        self.rows = list(self.rows)

    @property
    def n(self):
        return len(self.rows[0])

    @property
    def domain(self):
        return tuple(sorted({s for r in self.rows for s in r}))

    def prob(self, x):
        return exact(Rat(sum(1 for r in self.rows if r == x), len(self.rows)))


@dataclass
class IndDist:
    """Product of per-feature marginals."""
    marginals: list          # one {symbol: prob} dict per feature
    domain: tuple

    def __post_init__(self):
        self.domain = _domain(self.domain)
        self.marginals = [{d: rat(p) for d, p in m.items()}
                          for m in self.marginals]
        for m in self.marginals:
            _check_law(m, "marginal", self.domain)

    @property
    def n(self):
        return len(self.marginals)

    def prob(self, x):
        return reduce(times, (m.get(sym, ZERO)
                              for m, sym in zip(self.marginals, x)), ONE)


@dataclass
class MarkovDist:
    """P(w) = init[w_1] * prod T[w_{j-1}, w_j]."""
    init: dict
    trans: dict              # symbol -> {symbol: prob}
    domain: tuple

    def __post_init__(self):
        self.domain = _domain(self.domain)
        self.init = {d: rat(p) for d, p in self.init.items()}
        self.trans = {a: {b: rat(p) for b, p in row.items()}
                      for a, row in self.trans.items()}
        _check_law(self.init, "initial law", self.domain)
        for a in self.trans:
            if a not in self.domain:
                raise ValueError(f"row for {a!r} outside the domain "
                                 f"{list(self.domain)}")
        for a in self.domain:
            _check_law(self.trans.get(a, {}), f"row for {a!r}", self.domain)

    def prob(self, w):
        if not w:
            return ONE
        return reduce(times, (self.trans.get(a, {}).get(b, ZERO)
                              for a, b in zip(w, w[1:])),
                      self.init.get(w[0], ZERO))


@dataclass
class NaiveBayes:
    """Features conditionally independent given a latent class."""
    prior: dict              # class -> prob
    tables: list             # per feature: {class: {symbol: prob}}
    domain: tuple

    def __post_init__(self):
        self.domain = _domain(self.domain)
        self.prior = {y: rat(p) for y, p in self.prior.items()}
        self.tables = [{y: {d: rat(p) for d, p in row.items()}
                        for y, row in t.items()} for t in self.tables]
        check_law(self.prior.values(), "prior")
        for t in self.tables:
            if set(t) != set(self.prior):
                raise ValueError("each table needs one row per class")
            for row in t.values():
                _check_law(row, "class-conditional row", self.domain)

    @property
    def n(self):
        return len(self.tables)

    def prob(self, x):
        terms = (reduce(times, (t[y].get(sym, ZERO)
                                for t, sym in zip(self.tables, x)), py)
                 for y, py in self.prior.items())
        return total(p for p in terms if p)


# ---------------------------------------------------------------------------
# the hardness gadgets' models


@dataclass
class RnnRelu:
    """h_{w sigma} = ReLU(W h_w + v_sigma); f(w) = I(O . h_w >= 0)."""
    h_init: list
    W: list
    emb: dict                # symbol -> vector
    out: list
    domain: tuple

    def __post_init__(self):
        self.domain = _domain(self.domain)
        self.h_init = rats(self.h_init)
        self.W = [rats(row) for row in self.W]
        self.emb = {s: rats(v) for s, v in self.emb.items()}
        missing = sorted(set(self.domain) - set(self.emb))
        extra = sorted(set(self.emb) - set(self.domain), key=str)
        if missing or extra:
            raise ValueError(f"the embeddings' symbols must be the domain: "
                             f"missing {missing}, extra {extra}")
        self.out = rats(self.out)
        dim = len(self.h_init)
        if any(len(vec) != dim for vec in
               (self.W, self.out, *self.W, *self.emb.values())):
            raise ValueError(f"W, the embeddings and the output must match "
                             f"the hidden dimension {dim}")
        # the sparse rows of W and of the output, built once
        *self._rows, self._out = [[(b, x) for b, x in enumerate(row) if x]
                                  for row in (*self.W, self.out)]

    def hidden(self, w):
        h = list(self.h_init)
        for sym in w:
            h = [max(ZERO, _affine(row, h, v))
                 for row, v in zip(self._rows, self.emb[sym])]
        return h

    def evaluate(self, w):
        return Rat(step(_affine(self._out, self.hidden(w))))


def _affine(row, h, v=ZERO):
    """sum over the sparse row's (b, x) of x * h[b], plus v, as one
    `rational.dot`; a unit equal to 0 is skipped, and v enters as the
    product v * ONE when it is not 0."""
    pairs = [(x, y) for b, x in row if (y := h[b])]
    if v:
        pairs.append((v, ONE))
    return dot(pairs)


@dataclass
class SigmoidNet:
    """f(x) = sigmoid(gain * (sum_j w_j x_j + bias)), computed in binary-64;
    the output is the exact rational equal to that float, always finite and
    in [0, 1], and the shared ZERO or ONE for 0.0 or 1.0."""
    weights: list
    bias: object
    gain: float
    domain: tuple = ("0", "1")

    def __post_init__(self):
        self.domain = _domain(self.domain)
        self.weights = rats(self.weights)
        self.bias = rat(self.bias)
        if (isinstance(self.gain, bool)
                or not isinstance(self.gain, (int, float))
                or not abs(self.gain) <= sys.float_info.max):
            raise ValueError(f"gain must be a finite number, not "
                             f"{self.gain!r}")
        self.gain = float(self.gain)

    @property
    def n(self):
        return len(self.weights)

    def evaluate(self, x):
        terms = [w for w, sym in zip(self.weights, x) if sym == "1"]
        try:
            z = sum(map(float, terms)) + float(self.bias)
        except OverflowError:  # a term beyond binary-64: the exact sum
            z = sum(terms, self.bias)
            z = (float(z) if abs(z) <= sys.float_info.max
                 else math.inf if z > 0 else -math.inf)
        u = self.gain * z if self.gain else 0.0  # zero gain, even at z = inf
        try:
            y = 1.0 / (1.0 + math.exp(-u))
        except OverflowError:  # exp(-u) beyond binary-64: the value is exp(u)
            y = math.exp(u)
        return exact(Rat(y))


# ---------------------------------------------------------------------------
# JSON codecs


def _node_to_json(node):
    if node.is_leaf():
        return {"leaf": format_rat(node.leaf)}
    return {"feature": node.feature,
            "children": {d: _node_to_json(c) for d, c in node.children.items()}}


def _node_from_json(obj):
    if "leaf" in obj:
        if "feature" in obj or "children" in obj:
            raise ValueError("a node holds a leaf and a split")
        return DTNode(leaf=obj["leaf"])
    return DTNode(feature=obj["feature"],
                  children={d: _node_from_json(c)
                            for d, c in obj["children"].items()})


def dt_to_json(t):
    return {"n": t.n, "domain": list(t.domain), "root": _node_to_json(t.root)}


def dt_from_json(obj):
    return DecisionTree(_node_from_json(obj["root"]), obj["n"], obj["domain"])


def ensemble_to_json(e):
    return {"trees": [dt_to_json(t) for t in e.trees],
            "weights": [format_rat(w) for w in e.weights],
            "mode": e.mode}


def ensemble_from_json(obj):
    return TreeEnsemble([dt_from_json(t) for t in obj["trees"]],
                        obj["weights"], obj["mode"])


def linear_to_json(m):
    return {"n": m.n, "domain": list(m.domain),
            "weights": {f"{i},{d}": format_rat(v)
                        for (i, d), v in sorted(m.weights.items())},
            "intercept": format_rat(m.intercept)}


def linear_from_json(obj):
    """The model of a linear file.  A weight key is "i,d" as
    linear_to_json writes it, i in ASCII digits with no sign and no
    leading 0, so two keys never name one (i, d); ValueError on another."""
    weights = {}
    for key, v in obj["weights"].items():
        i, _, d = key.partition(",")
        if not (i.isascii() and i.isdigit() and str(int(i)) == i):
            raise ValueError(f"weight key {key!r} is not feature,symbol")
        weights[(int(i), d)] = v
    return LinearModel(obj["n"], obj["domain"], weights,
                       obj.get("intercept", 0))


# The other file formats are their classes' fields: rationals are written
# as "p/q" strings, tuples as lists, and the constructor reads them back.


def to_json(obj):
    """The JSON form of a dataclass whose file keys are its fields."""
    if isinstance(obj, Rat):
        return format_rat(obj)
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def from_json(cls, obj):
    """The instance of dataclass cls whose fields the JSON object holds."""
    names = [f.name for f in fields(cls)]
    if not isinstance(obj, dict):
        raise ValueError(f"not an object with the keys {names}")
    return cls(**{name: obj[name] for name in names})


# names the benchmark's workloads call
nb_to_json = ind_to_json = dataset_to_json = to_json
