"""Command-line interface.

Subcommands:

  shap     compute one SHAP value (local/global x baseline/interventional/
           conditional) by the route ROUTES names: global interventional
           and conditional SHAP are 0; a WA model under an HMM goes to the
           polynomial engine for the other baseline and interventional
           queries, every other query to the enumeration oracle under the
           guard
  convert  compile a tabular model or distribution to a WA / HMM file
  gadget   emit a hardness-reduction instance as a JSON bundle, with an
           oracle certificate when the instance is small enough
  verify   run seeded engine-vs-oracle and gadget equivalence suites

Exit codes: 0 ok, 1 verification FAIL, 2 parse/usage error,
3 incompatible inputs, 4 resource guard exceeded.  All output is
deterministic for fixed inputs and seed.
"""

import argparse
import hashlib
import json
import math
import sys
from functools import lru_cache, partial

from . import engine, oracle
from .frontends import (dt_to_wa, emp_to_hmmvec, ensemble_reg_to_wa,
                        hmmvec_to_hmm, ind_to_hmmvec, linear_to_wa,
                        markov_to_hmm, nb_to_hmmvec)
from .gadgets import (GadgetInstance, csp_to_rnn, sat_to_ensemble,
                      wmg_to_rnnrelu, wmg_to_sigmoid)
from .hmm import Hmm, hmm_from_json, hmm_to_json
from .models import (Dataset, DecisionTree, HmmVec, IndDist, LinearModel,
                     MarkovDist, NaiveBayes, RnnRelu, SigmoidNet,
                     TreeEnsemble, check_query, dt_from_json, dt_to_json,
                     ensemble_from_json, ensemble_to_json, from_json,
                     linear_from_json, linear_to_json, to_json)
from .oracle import (CnfFormula, CspInstance, GuardExceeded, Wmg,
                     ZeroProbabilityEvent, csp_brute, dummy_check,
                     empty_brute, shap_oracle_local)
from .randgen import (rand_cnf, rand_csp, rand_hmm, rand_wa, rand_wmg,
                      rand_word, rng_for)
from .rational import Rat, ZERO, format_rat
from .wa import NAlphabetWA, wa_from_json, wa_to_json

EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_GUARD = 4


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


# ---------------------------------------------------------------------------
# file I/O


def _dump_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(EXIT_PARSE, f"cannot write {path}: {e}")


def _check_flags(cfg, flags, reads, what, optional=()):
    """Exit 2 unless cfg gives each of the flags that `what` reads, except
    the optional ones, and none of the others."""
    for flag in flags:
        given = getattr(cfg, flag) is not None
        if given != (flag in reads) and (given or flag not in optional):
            raise CliError(EXIT_PARSE, f"--{flag} is "
                           f"{'not read' if given else 'required'} by {what}")


def _parse_int_list(text, flag):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(EXIT_PARSE, f"malformed {flag} {text!r}")


# The file formats: type tag -> (class, encoder, decoder).  A file is
# {"type": tag, "payload": ...}; the payload may also stand inline.  A
# payload that models.to_json writes holds exactly its class's fields.
CODECS = {
    "wa": (NAlphabetWA, wa_to_json, wa_from_json),
    "dt": (DecisionTree, dt_to_json, dt_from_json),
    "ensemble": (TreeEnsemble, ensemble_to_json, ensemble_from_json),
    "linear": (LinearModel, linear_to_json, linear_from_json),
    "rnn": (RnnRelu, to_json, partial(from_json, RnnRelu)),
    "sigmoid": (SigmoidNet, to_json, partial(from_json, SigmoidNet)),
    "hmm": (Hmm, hmm_to_json, hmm_from_json),
    "hmmvec": (HmmVec, to_json, partial(from_json, HmmVec)),
    "emp": (Dataset, to_json, partial(from_json, Dataset)),
    "ind": (IndDist, to_json, partial(from_json, IndDist)),
    "markov": (MarkovDist, to_json, partial(from_json, MarkovDist)),
    "nb": (NaiveBayes, to_json, partial(from_json, NaiveBayes)),
}


def kind(obj):
    """The type tag of a model or distribution; None for anything else."""
    return next((t for t, (cls, _, _) in CODECS.items()
                 if isinstance(obj, cls)), None)


def encode(obj, **extra):
    """The tagged JSON document of a model or distribution."""
    tag = kind(obj)
    return {"type": tag, **extra, "payload": CODECS[tag][1](obj)}


def _object(pairs):
    """The JSON object of these (key, value) pairs; ValueError when a key
    repeats, which plain json.loads would answer with its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r}"
                         f" repeats in one object")
    return obj


def _read(path, role, tags):
    """(object, file bytes) of a UTF-8 JSON file of one of the type tags;
    an untagged file has the first.  Every failure exits 2, a key that
    repeats in one object too."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_object)
    except (OSError, ValueError, RecursionError) as e:
        # ValueError: not UTF-8, not JSON, a repeated key; RecursionError:
        # nested too deeply
        raise CliError(EXIT_PARSE, f"cannot read {path}: {e}")
    kind = doc.get("type", tags[0]) if isinstance(doc, dict) else None
    if kind not in tags:
        raise CliError(EXIT_PARSE, f"{path}: unknown {role} type {kind!r}")
    try:
        return CODECS[kind][2](doc.get("payload", doc)), raw
    except (KeyError, ValueError, TypeError, AttributeError, IndexError) as e:
        # also a wrong shape, such as a list where the format has an object
        raise CliError(EXIT_PARSE, f"{path}: malformed {kind} {role}: {e}")


def load_model(path):
    return _read(path, "model",
                 ("wa", "dt", "ensemble", "linear", "rnn", "sigmoid"))[0]


def load_dist(path):
    return _read(path, "distribution",
                 ("hmm", "hmmvec", "emp", "ind", "markov", "nb"))[0]


# ---------------------------------------------------------------------------
# shap


# A query's two sides, each a word (its point distribution) or a
# distribution: the inputs x come from OUTER[scope], the words that replace
# the features outside a coalition from INNER[variant].  A query reads the
# flags of its two sides, and --length at global scope, and no other.
OUTER = {"local": "input", "global": "dist"}
INNER = {"baseline": "reference", "interventional": "dist",
         "conditional": "dist"}


def _sides(scope, variant, given):
    """(inner, outer) of a query, given the value of each side's flag."""
    return given[INNER[variant]], given[OUTER[scope]]


# (scope, variant) -> (the route of a query whose model and sides the
# engine reads, `engine.reads`, the route of every other query).  Global
# interventional and global conditional SHAP draw the inputs and the
# replaced features from one distribution, so they are 0 for every model
# and distribution (README, "What is tractable"): their zero route checks
# the query and answers 0.
ROUTES = {
    ("local", "baseline"): ("engine", "oracle"),
    ("local", "interventional"): ("engine", "oracle"),
    ("local", "conditional"): ("oracle", "oracle"),
    ("global", "baseline"): ("engine", "oracle"),
    ("global", "interventional"): ("zero", "zero"),
    ("global", "conditional"): ("zero", "zero"),
}


def route(scope, variant, model, inner, outer):
    """The name of the route that answers a query (ROUTES)."""
    engine_reads = engine.reads(model, inner, outer)
    return ROUTES[scope, variant][0 if engine_reads else 1]


def _zero(variant, f, n, inner, outer, features=None):
    """The values of a query whose two sides are one distribution: 0 for
    each feature, once the query is checked as the engine and the oracle
    check it."""
    return (ZERO,) * len(check_query(f, n, inner, outer, features))


# route -> (phi_i for i in features, all n by default) of a query
# (variant letter, f, n, inner, outer, features=None).  The engine and
# oracle functions are looked up at each call, so a test or a tracer that
# rebinds them sees every call.
ANSWERS = {
    "engine": lambda _, *query: engine.shap(*query),
    "oracle": lambda *query: oracle.shap_oracle_all(*query),
    "zero": _zero,
}


def _decimal(value):
    """value as a float, or None when it lies outside binary64's range
    (Fraction raises OverflowError there; a backend may give inf)."""
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _value_record(cfg, value, route):
    record = {
        "feature": cfg.feature,
        "variant": cfg.variant,
        "scope": cfg.scope,
        "value": format_rat(value),
        "decimal": _decimal(value),
        "route": route,
        "backend": Rat.__name__,
    }
    if cfg.format == "tsv":
        print("\t".join(str(v) for v in record.values()))
    else:
        _dump_json(record)


def cmd_shap(cfg):
    reads = {OUTER[cfg.scope], INNER[cfg.variant]}
    if cfg.scope == "global":
        reads.add("length")
    _check_flags(cfg, ("input", "length", "reference", "dist"), reads,
                 f"{cfg.scope} {cfg.variant} SHAP")
    model = load_model(cfg.model)
    dist = None if cfg.dist is None else load_dist(cfg.dist)
    n = cfg.length if cfg.input is None else len(cfg.input)
    inner, outer = _sides(cfg.scope, cfg.variant, {
        "input": cfg.input, "reference": cfg.reference, "dist": dist})
    name = route(cfg.scope, cfg.variant, model, inner, outer)
    try:
        value = ANSWERS[name](cfg.variant[0], model, n, inner, outer,
                              (cfg.feature,))[0]
    except GuardExceeded as e:
        raise CliError(EXIT_GUARD, str(e))
    except (ZeroProbabilityEvent, ValueError, IndexError, KeyError) as e:
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    _value_record(cfg, value, name)


# ---------------------------------------------------------------------------
# convert


# --from -> (input file type, compiler(obj, order) or None, --to targets
# with the default first)
COMPILERS = {
    "dt": ("dt", dt_to_wa, ("wa",)),
    "ens-r": ("ensemble", ensemble_reg_to_wa, ("wa",)),
    "lin": ("linear", linear_to_wa, ("wa",)),
    "emp": ("emp", emp_to_hmmvec, ("hmm", "hmmvec")),
    "ind": ("ind", ind_to_hmmvec, ("hmm", "hmmvec")),
    "markov": ("markov", markov_to_hmm, ("hmm",)),
    "nb": ("nb", nb_to_hmmvec, ("hmm", "hmmvec")),
    "hmmvec": ("hmmvec", None, ("hmm",)),
}
# sources that are sequences already: there is no feature order to apply
_SEQUENTIAL = ("markov", "hmmvec")


def cmd_convert(cfg):
    tag, compile_, targets = COMPILERS[cfg.source]
    target = cfg.target or targets[0]
    if target not in targets:
        raise CliError(EXIT_PARSE, f"--from {cfg.source} compiles to "
                                   f"{' or '.join(targets)}, not {target}")
    order = None
    if cfg.order is not None:
        if cfg.source in _SEQUENTIAL:
            raise CliError(EXIT_PARSE,
                           f"--order does not apply to --from {cfg.source}")
        order = tuple(_parse_int_list(cfg.order, "--order"))
    role = "model" if target == "wa" else "distribution"
    obj, raw = _read(cfg.input, role, (tag,))
    provenance = {
        "source_sha256": hashlib.sha256(raw).hexdigest(),
        "source_format": cfg.source,
        "order": list(order) if order else None,
    }
    if cfg.source == "hmmvec":
        # the HMM reads the features in pi order; the model must too
        provenance["order"] = list(obj.pi)
    try:
        if compile_ is not None:
            obj = (compile_(obj) if cfg.source in _SEQUENTIAL
                   else compile_(obj, order))
        if target == "hmm" and isinstance(obj, HmmVec):
            obj = hmmvec_to_hmm(obj)
    except ValueError as e:
        # notably: vote-classification ensembles, an order that is not a
        # permutation of the source's features
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    doc = encode(obj, provenance=provenance)
    _check_readable(doc)
    _dump_json(doc, cfg.output)


def _check_readable(doc):
    """Exit 4 if a rational string of doc has a part longer than int, and
    so rational.rat, reads (sys.get_int_max_str_digits()): format_rat
    writes such a value whole, and shap would refuse the file."""
    limit = sys.get_int_max_str_digits()
    stack = [doc]
    while stack and limit:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, str) and len(x) > limit:
            digits = max(len(part.lstrip("-")) for part in x.split("/"))
            if digits > limit:
                raise CliError(EXIT_GUARD, f"the compiled {doc['type']} holds "
                               f"a rational of {digits} digits, above the "
                               f"{limit} that shap reads; nothing is written")


# ---------------------------------------------------------------------------
# gadget


def _phi_b(g):
    return shap_oracle_local("b", g.model, g.x, g.feature, g.x_ref)


def _certify_sigmoid(problem, g):
    game, i = problem
    phi = float(_phi_b(g))
    dummy = dummy_check(game, i)
    # 1e-9 slack for the binary-64 network; the gadget's margin is eps
    below = phi <= float(g.epsilon) + 1e-9
    return below == dummy, {
        "dummy": dummy, "phi_b": phi, "epsilon": format_rat(g.epsilon),
        "verdict": f"{'dummy' if dummy else 'not dummy'}; "
                   f"phi_b {'<=' if below else '>'} eps"}


def _certify_rnn(problem, g):
    game, i = problem
    phi = _phi_b(g)
    dummy = dummy_check(game, i)
    return (phi == 0) == dummy, {
        "dummy": dummy, "phi_b": format_rat(phi),
        "verdict": "dummy iff phi_b = 0; phi_b = " + format_rat(phi)}


def _certify_sat(formula, g):
    phi = _phi_b(g)
    satisfiable = formula.satisfiable()
    return (phi > 0) == satisfiable, {
        "satisfiable": satisfiable, "phi_b": format_rat(phi),
        "verdict": "satisfiable iff phi_b > 0; phi_b = " + format_rat(phi)}


def _certify_csp(inst, g):
    witness = csp_brute(inst)
    empty = empty_brute(g.model, inst.n, inst.domain)
    return empty == (witness is None), {
        "witness": witness, "empty": empty,
        "verdict": "no witness iff f empty; witness = " + (witness or "none")}


def _rnn_gadget(problem):
    game, i = problem
    return GadgetInstance(wmg_to_rnnrelu(game), i, "1" * game.n, "0" * game.n,
                          metadata={"powers": game.powers,
                                    "quota": game.quota})


def _csp_gadget(inst):
    return GadgetInstance(csp_to_rnn(inst), metadata={
        "strings": inst.strings, "radius": inst.radius})


# --kind -> (reduction, certificate).  The reduction maps a source problem
# (a (game, player) pair, a CnfFormula or a CspInstance) to a
# GadgetInstance; certificate(problem, g) decides the problem by brute
# force and by the instance's verdict rule, and returns (agree, record).
GADGETS = {
    "sigmoid": (lambda problem: wmg_to_sigmoid(*problem), _certify_sigmoid),
    "rnn": (_rnn_gadget, _certify_rnn),
    "sat": (sat_to_ensemble, _certify_sat),
    "csp": (_csp_gadget, _certify_csp),
}


def _game_source(cfg):
    game = Wmg(_parse_int_list(cfg.powers, "--powers"), cfg.quota)
    player = 1 if cfg.feature is None else cfg.feature
    if not (1 <= player <= game.n):
        raise CliError(EXIT_INCOMPATIBLE, f"player {player} out of range")
    return game, player


def _cnf_source(cfg):
    return CnfFormula(cfg.vars, [_parse_int_list(c, "--clauses")
                                 for c in cfg.clauses.split(";") if c])


def _csp_source(cfg):
    strings = cfg.strings.split(",")
    domain = tuple(sorted(set("".join(strings)) | {"0", "1"}))
    return CspInstance(strings, cfg.radius, domain)


# --kind -> (the source problem read from its flags, the flags it reads)
_GAME = (_game_source, ("powers", "quota", "feature"))
_SOURCES = {"sigmoid": _GAME, "rnn": _GAME,
            "sat": (_cnf_source, ("clauses", "vars")),
            "csp": (_csp_source, ("strings", "radius"))}


def cmd_gadget(cfg):
    reduce, certify = GADGETS[cfg.kind]
    source, reads = _SOURCES[cfg.kind]
    _check_flags(cfg, [f for _, fs in _SOURCES.values() for f in fs], reads,
                 f"--kind {cfg.kind}", optional=("feature",))
    try:
        problem = source(cfg)
        g = reduce(problem)
    except ValueError as e:
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    query = {"feature": g.feature, "x": g.x, "x_ref": g.x_ref,
             "epsilon": None if g.epsilon is None else format_rat(g.epsilon)}
    bundle = {"type": "gadget", "kind": cfg.kind, "model": encode(g.model),
              "metadata": g.metadata,
              **{k: v for k, v in query.items() if v is not None}}
    try:
        bundle["certificate"] = certify(problem, g)[1]
    except GuardExceeded:
        bundle["certificate"] = None  # too large to certify; still valid
    _dump_json(bundle, cfg.output)


# ---------------------------------------------------------------------------
# verify


class _Report:
    def __init__(self):
        self.failures = 0

    def check(self, label, ok, counterexample=None):
        if ok:
            print(f"PASS {label}")
        else:
            self.failures += 1
            print(f"FAIL {label}")
            if counterexample is not None:
                print(f"  counterexample: {counterexample}")


def _verify_engine(report, rng, count):
    alphabet = ("0", "1")
    for idx in range(count):
        f = rand_wa(rng, rng.randint(2, 4), alphabet)
        dist = rand_hmm(rng, rng.randint(1, 3), alphabet)
        n = rng.randint(2, 4)
        w = rand_word(rng, alphabet, n)
        w_ref = rand_word(rng, alphabet, n)
        # every feature is checked; the feature draw stays so that each
        # seed draws the instances it always drew
        rng.randint(1, n)
        given = {"input": w, "reference": w_ref, "dist": dist}
        # conditional queries are left out: a local one has no route but
        # the oracle, and a global one's oracle tuple would add about 6 %
        # to verify's time
        pairs = [(scope, variant) for scope, variant in ROUTES
                 if variant != "conditional"]
        queries = [(variant[0], *_sides(scope, variant, given))
                   for scope, variant in pairs]
        # one oracle pass for all pairs: one enumeration of dist's support
        # and one evaluation of each word
        wants = oracle.shap_oracle_many(f, n, queries)
        bad = []
        for (scope, variant), (letter, inner, outer), want in zip(
                pairs, queries, wants):
            name = route(scope, variant, f, inner, outer)
            got = ANSWERS[name](letter, f, n, inner, outer)
            for i, (phi, psi) in enumerate(zip(got, want), 1):
                if phi != psi:
                    bad.append(f"{scope} {variant} i={i} "
                               f"{name}={format_rat(phi)} "
                               f"oracle={format_rat(psi)}")
        report.check(f"engine-vs-oracle instance {idx}", not bad,
                     bad and f"n={n} w={w} w_ref={w_ref}: " + "; ".join(bad))


def _rand_game(rng):
    game = rand_wmg(rng, rng.randint(1, 4))
    return game, rng.randint(1, game.n)


def _verify_gadgets(report, rng, count):
    # (kinds that reduce the problem, its random draw)
    suites = (
        (("sigmoid", "rnn"), _rand_game),
        (("sat",), lambda rng: rand_cnf(rng, rng.randint(2, 4),
                                        rng.randint(1, 4))),
        (("csp",), lambda rng: rand_csp(rng, rng.randint(1, 3),
                                        rng.randint(1, 4))),
    )
    for kinds, draw in suites:
        for idx in range(count):
            problem = draw(rng)
            for kind in kinds:
                reduce, certify = GADGETS[kind]
                try:
                    agree, record = certify(problem, reduce(problem))
                except ValueError as e:  # the oracle refuses the query
                    agree, record = False, f"query refused: {e}"
                report.check(f"{kind} gadget instance {idx}", agree,
                             None if agree else f"{problem} certificate="
                             + json.dumps(record, sort_keys=True))


def cmd_verify(cfg):
    if cfg.count < 1:
        raise CliError(EXIT_PARSE, f"--count {cfg.count} is below 1")
    report = _Report()
    rng = rng_for(cfg.seed)
    try:
        if cfg.suite in ("engine", "all"):
            _verify_engine(report, rng, cfg.count)
        if cfg.suite in ("gadgets", "all"):
            _verify_gadgets(report, rng, cfg.count)
    except GuardExceeded as e:
        raise CliError(EXIT_GUARD, str(e))
    if report.failures:
        print(f"{report.failures} FAILED")
        return 1
    print("all PASS")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def build_parser():
    """The process's one parser, built on the first call: parse_args keeps
    no state between calls."""
    parser = argparse.ArgumentParser(
        prog="shapwa",
        description="Exact SHAP values for weighted automata under HMM "
                    "distributions; compilers and hardness gadgets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # a flag is read only under its whole name: --mode is not --model
    add = partial(sub.add_parser, allow_abbrev=False)

    p = add("shap", help="compute one SHAP value")
    p.add_argument("--scope", choices=("local", "global"), required=True)
    p.add_argument("--variant",
                   choices=("baseline", "interventional", "conditional"),
                   required=True)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--feature", type=int, required=True, help="1-based index")
    p.add_argument("--input", help="explained input word (local scope only)")
    p.add_argument("--reference", help="baseline reference word")
    p.add_argument("--dist", help="distribution JSON file")
    p.add_argument("--length", type=int,
                   help="sequence length (global scope only)")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_shap)

    p = add("convert", help="compile a model/distribution")
    p.add_argument("--from", dest="source", required=True,
                   choices=tuple(COMPILERS))
    p.add_argument("--to", dest="target", choices=("wa", "hmm", "hmmvec"),
                   default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--order", help="sequentialization, e.g. 2,1,3")
    p.set_defaults(func=cmd_convert)

    p = add("gadget", help="emit a hardness-reduction instance")
    p.add_argument("--kind", choices=tuple(GADGETS), required=True)
    p.add_argument("--powers", help="comma-separated integer voting powers")
    p.add_argument("--quota", type=int)
    p.add_argument("--feature", type=int,
                   help="player index (default 1)")
    p.add_argument("--clauses", help="semicolon-separated clauses, "
                                     "e.g. '1,-2,3;-1,2'")
    p.add_argument("--vars", type=int, help="number of CNF variables")
    p.add_argument("--strings", help="comma-separated input strings")
    p.add_argument("--radius", type=int, help="Hamming radius")
    p.add_argument("--output", help="write the bundle here (default stdout)")
    p.set_defaults(func=cmd_gadget)

    p = add("verify", help="seeded equivalence suites")
    p.add_argument("--suite", choices=("engine", "gadgets", "all"),
                   default="all")
    p.add_argument("--count", type=int, default=50,
                   help="instances per suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def _check_guard_setting():
    try:
        oracle.guard_bits()
    except ValueError as e:
        raise CliError(EXIT_PARSE, str(e))


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    try:
        _check_guard_setting()
        return cfg.func(cfg) or 0
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
