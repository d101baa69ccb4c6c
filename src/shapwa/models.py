"""Tabular models and distribution families.

These are the "source" objects the frontends compile into weighted
automata / HMMs: decision trees, tree ensembles, linear models with
categorical features, non-stationary per-position HMMs (HmmVec),
empirical datasets, independent products, Markov chains and Naive
Bayes.  Feature indices are 1-based; feature values are single-character
symbols so that inputs double as sequences.
"""

from dataclasses import dataclass

from .rational import Rat, ZERO, ONE, format_rat, parse_rat


def step(x):
    """step(x) = 1 iff x >= 0."""
    return 1 if x >= 0 else 0


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
        self.domain = tuple(self.domain)
        self._check(self.root, set())

    def _check(self, node, seen):
        if node.is_leaf():
            if node.leaf is None:
                raise ValueError("leaf without a label")
            return
        if not (1 <= node.feature <= self.n):
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
        return Rat(node.leaf)

    def leaves(self):
        """Yield (constraints, value) with constraints a {feature: symbol} dict."""
        stack = [(self.root, {})]
        while stack:
            node, constraints = stack.pop()
            if node.is_leaf():
                yield constraints, Rat(node.leaf)
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
        self.weights = [Rat(w) for w in self.weights]

    @property
    def n(self):
        return self.trees[0].n

    @property
    def domain(self):
        return self.trees[0].domain

    def evaluate(self, x):
        votes = [t.evaluate(x) for t in self.trees]
        if self.mode == "regression":
            return sum((w * v for w, v in zip(self.weights, votes)), ZERO)
        # majority vote between the 0 and 1 labels, ties broken towards 1
        margin = sum((w * (2 * v - 1) for w, v in zip(self.weights, votes)),
                     ZERO)
        return Rat(step(margin))


@dataclass
class LinearModel:
    """f(x) = sum_i w_{i, x_i} + b over categorical features."""
    n: int
    domain: tuple
    weights: dict            # (feature, symbol) -> rational, 0-padded
    intercept: object = ZERO

    def __post_init__(self):
        self.domain = tuple(self.domain)
        self.intercept = Rat(self.intercept)
        self.weights = {(i, d): Rat(v) for (i, d), v in self.weights.items()}

    def weight(self, i, d):
        return self.weights.get((i, d), ZERO)

    def evaluate(self, x):
        total = self.intercept
        for i, sym in enumerate(x, start=1):
            total += self.weight(i, sym)
        return total


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
        self.domain = tuple(self.domain)
        self.alpha = [Rat(x) for x in self.alpha]
        self.transitions = [[[Rat(v) for v in row] for row in m]
                            for m in self.transitions]
        self.emissions = [[[Rat(v) for v in row] for row in m]
                          for m in self.emissions]
        if sum(self.alpha) != 1:
            raise ValueError("alpha is not a distribution")
        for m in self.transitions + self.emissions:
            for row in m:
                if sum(row) != 1 or any(v < 0 for v in row):
                    raise ValueError("non-stochastic row")

    @property
    def n(self):
        return len(self.pi)

    def prob(self, x):
        """P(x) = alpha^T prod_j T_j Diag(O_j[:, x_{pi(j)}]) 1."""
        v = list(self.alpha)
        dim = len(v)
        for j in range(self.n):
            sym = x[self.pi[j] - 1]
            s = self.domain.index(sym)
            T, O = self.transitions[j], self.emissions[j]
            v = [sum(v[a] * T[a][b] for a in range(dim)) * O[b][s]
                 for b in range(dim)]
        return sum(v, ZERO)


@dataclass
class Dataset:
    rows: list

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty dataset")
        if len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged rows")
        self.rows = list(self.rows)

    @property
    def n(self):
        return len(self.rows[0])

    def domain(self):
        return tuple(sorted({s for r in self.rows for s in r}))

    def prob(self, x):
        return Rat(sum(1 for r in self.rows if r == x), len(self.rows))


@dataclass
class IndDist:
    """Product of per-feature marginals."""
    marginals: list          # one {symbol: prob} dict per feature
    domain: tuple

    def __post_init__(self):
        self.domain = tuple(self.domain)
        self.marginals = [{d: Rat(p) for d, p in m.items()}
                          for m in self.marginals]
        for m in self.marginals:
            if sum(m.values(), ZERO) != 1 or any(p < 0 for p in m.values()):
                raise ValueError("marginal is not a distribution")

    @property
    def n(self):
        return len(self.marginals)

    def prob(self, x):
        total = ONE
        for m, sym in zip(self.marginals, x):
            total *= m.get(sym, ZERO)
        return total


@dataclass
class MarkovDist:
    """P(w) = init[w_1] * prod T[w_{j-1}, w_j]."""
    init: dict
    trans: dict              # symbol -> {symbol: prob}
    domain: tuple

    def __post_init__(self):
        self.domain = tuple(self.domain)
        self.init = {d: Rat(p) for d, p in self.init.items()}
        self.trans = {a: {b: Rat(p) for b, p in row.items()}
                      for a, row in self.trans.items()}
        if sum(self.init.values(), ZERO) != 1:
            raise ValueError("initial law is not a distribution")
        for a in self.domain:
            if sum(self.trans.get(a, {}).values(), ZERO) != 1:
                raise ValueError(f"non-stochastic row for {a!r}")

    def prob(self, w):
        if not w:
            return ONE
        p = self.init.get(w[0], ZERO)
        for a, b in zip(w, w[1:]):
            p *= self.trans.get(a, {}).get(b, ZERO)
        return p


@dataclass
class NaiveBayes:
    """Features conditionally independent given a latent class."""
    prior: dict              # class -> prob
    tables: list             # per feature: {class: {symbol: prob}}
    domain: tuple

    def __post_init__(self):
        self.domain = tuple(self.domain)
        self.prior = {y: Rat(p) for y, p in self.prior.items()}
        self.tables = [{y: {d: Rat(p) for d, p in row.items()}
                        for y, row in t.items()} for t in self.tables]
        if sum(self.prior.values(), ZERO) != 1:
            raise ValueError("prior is not a distribution")
        for t in self.tables:
            for y, row in t.items():
                if sum(row.values(), ZERO) != 1:
                    raise ValueError("non-stochastic class-conditional row")

    @property
    def n(self):
        return len(self.tables)

    def prob(self, x):
        total = ZERO
        for y, py in self.prior.items():
            term = py
            for t, sym in zip(self.tables, x):
                term *= t[y].get(sym, ZERO)
            total += term
        return total


# ---------------------------------------------------------------------------
# JSON codecs


def _node_to_json(node):
    if node.is_leaf():
        return {"leaf": format_rat(node.leaf)}
    return {"feature": node.feature,
            "children": {d: _node_to_json(c) for d, c in node.children.items()}}


def _node_from_json(obj):
    if "leaf" in obj:
        return DTNode(leaf=parse_rat(obj["leaf"]))
    return DTNode(feature=obj["feature"],
                  children={d: _node_from_json(c)
                            for d, c in obj["children"].items()})


def dt_to_json(t):
    return {"n": t.n, "domain": list(t.domain), "root": _node_to_json(t.root)}


def dt_from_json(obj):
    return DecisionTree(_node_from_json(obj["root"]), obj["n"],
                        tuple(obj["domain"]))


def ensemble_to_json(e):
    return {"trees": [dt_to_json(t) for t in e.trees],
            "weights": [format_rat(w) for w in e.weights],
            "mode": e.mode}


def ensemble_from_json(obj):
    return TreeEnsemble([dt_from_json(t) for t in obj["trees"]],
                        [parse_rat(w) for w in obj["weights"]],
                        obj["mode"])


def linear_to_json(m):
    return {"n": m.n, "domain": list(m.domain),
            "weights": {f"{i},{d}": format_rat(v)
                        for (i, d), v in sorted(m.weights.items())},
            "intercept": format_rat(m.intercept)}


def linear_from_json(obj):
    weights = {}
    for key, v in obj["weights"].items():
        i, d = key.split(",")
        weights[(int(i), d)] = parse_rat(v)
    return LinearModel(obj["n"], tuple(obj["domain"]), weights,
                       parse_rat(obj.get("intercept", 0)))


def dataset_to_json(d):
    return {"rows": list(d.rows)}


def dataset_from_json(obj):
    rows = obj["rows"] if isinstance(obj, dict) else obj
    return Dataset(list(rows))


def hmmvec_to_json(m):
    return {"pi": list(m.pi),
            "alpha": [format_rat(x) for x in m.alpha],
            "transitions": [[[format_rat(v) for v in row] for row in t]
                            for t in m.transitions],
            "emissions": [[[format_rat(v) for v in row] for row in o]
                          for o in m.emissions],
            "domain": list(m.domain)}


def hmmvec_from_json(obj):
    return HmmVec(tuple(obj["pi"]),
                  [parse_rat(x) for x in obj["alpha"]],
                  [[[parse_rat(v) for v in row] for row in t]
                   for t in obj["transitions"]],
                  [[[parse_rat(v) for v in row] for row in o]
                   for o in obj["emissions"]],
                  tuple(obj["domain"]))


def ind_from_json(obj):
    return IndDist([{d: parse_rat(p) for d, p in m.items()}
                    for m in obj["marginals"]], tuple(obj["domain"]))


def ind_to_json(m):
    return {"marginals": [{d: format_rat(p) for d, p in marg.items()}
                          for marg in m.marginals],
            "domain": list(m.domain)}


def markov_from_json(obj):
    return MarkovDist({d: parse_rat(p) for d, p in obj["init"].items()},
                      {a: {b: parse_rat(p) for b, p in row.items()}
                       for a, row in obj["trans"].items()},
                      tuple(obj["domain"]))


def markov_to_json(m):
    return {"init": {d: format_rat(p) for d, p in m.init.items()},
            "trans": {a: {b: format_rat(p) for b, p in row.items()}
                      for a, row in m.trans.items()},
            "domain": list(m.domain)}


def nb_from_json(obj):
    return NaiveBayes({y: parse_rat(p) for y, p in obj["prior"].items()},
                      [{y: {d: parse_rat(p) for d, p in row.items()}
                        for y, row in t.items()} for t in obj["tables"]],
                      tuple(obj["domain"]))


def nb_to_json(m):
    return {"prior": {y: format_rat(p) for y, p in m.prior.items()},
            "tables": [{y: {d: format_rat(p) for d, p in row.items()}
                        for y, row in t.items()} for t in m.tables],
            "domain": list(m.domain)}
