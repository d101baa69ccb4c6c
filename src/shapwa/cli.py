"""Command-line interface.

Subcommands:

  shap     compute one SHAP value (local/global x baseline/interventional/
           conditional); a WA model under an HMM goes to the polynomial
           engine for baseline and interventional SHAP, every other query
           to the enumeration oracle under the guard
  convert  compile a tabular model or distribution to a WA / HMM file
  gadget   emit a hardness-reduction instance as a JSON bundle, with an
           oracle certificate when the instance is small enough
  verify   run seeded engine-vs-oracle and gadget equivalence suites

Exit codes: 0 ok, 1 verification FAIL, 2 parse/usage error,
3 incompatible inputs, 4 enumeration guard exceeded.  All output is
deterministic for fixed inputs and seed.
"""

import argparse
import hashlib
import json
import sys

from . import engine, oracle
from .frontends import (dt_to_wa, emp_to_hmmvec, ensemble_reg_to_wa,
                        hmmvec_to_hmm, ind_to_hmmvec, linear_to_wa,
                        markov_to_hmm, nb_to_hmmvec)
from .gadgets import (GadgetInstance, csp_to_rnn, sat_to_ensemble,
                      wmg_to_rnnrelu, wmg_to_sigmoid)
from .hmm import Hmm, hmm_from_json, hmm_to_json
from .models import (Dataset, DecisionTree, HmmVec, IndDist, LinearModel,
                     MarkovDist, NaiveBayes, TreeEnsemble, dataset_from_json,
                     dataset_to_json, dt_from_json, dt_to_json,
                     ensemble_from_json, ensemble_to_json, hmmvec_from_json,
                     hmmvec_to_json, ind_from_json, ind_to_json,
                     linear_from_json, linear_to_json, markov_from_json,
                     markov_to_json, nb_from_json, nb_to_json)
from .oracle import (CnfFormula, CspInstance, GuardExceeded, RnnRelu,
                     SigmoidNet, Wmg, ZeroProbabilityEvent, csp_brute,
                     dummy_check, empty_brute, shap_oracle_local)
from .randgen import (rand_cnf, rand_csp, rand_hmm, rand_wa, rand_wmg,
                      rand_word, rng_for)
from .rational import Rat, format_rat, parse_rat
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_int_list(text, flag):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError(EXIT_PARSE, f"malformed {flag} {text!r}")


def rnn_to_json(m):
    return {"h_init": [format_rat(x) for x in m.h_init],
            "W": [[format_rat(v) for v in row] for row in m.W],
            "emb": {s: [format_rat(v) for v in vec]
                    for s, vec in m.emb.items()},
            "out": [format_rat(v) for v in m.out],
            "domain": list(m.domain)}


def rnn_from_json(obj):
    return RnnRelu(h_init=[parse_rat(x) for x in obj["h_init"]],
                   W=[[parse_rat(v) for v in row] for row in obj["W"]],
                   emb={s: [parse_rat(v) for v in vec]
                        for s, vec in obj["emb"].items()},
                   out=[parse_rat(v) for v in obj["out"]],
                   domain=tuple(obj["domain"]))


def sigmoid_to_json(m):
    return {"weights": [format_rat(w) for w in m.weights],
            "bias": format_rat(m.bias),
            "gain": m.gain,
            "domain": list(m.domain)}


def sigmoid_from_json(obj):
    return SigmoidNet(weights=[parse_rat(w) for w in obj["weights"]],
                      bias=parse_rat(obj["bias"]),
                      gain=float(obj["gain"]),
                      domain=tuple(obj["domain"]))


# The file formats: type tag -> (class, encoder, decoder).  A file is
# {"type": tag, "payload": ...}; the payload may also stand inline.
CODECS = {
    "wa": (NAlphabetWA, wa_to_json, wa_from_json),
    "dt": (DecisionTree, dt_to_json, dt_from_json),
    "ensemble": (TreeEnsemble, ensemble_to_json, ensemble_from_json),
    "linear": (LinearModel, linear_to_json, linear_from_json),
    "rnn": (RnnRelu, rnn_to_json, rnn_from_json),
    "sigmoid": (SigmoidNet, sigmoid_to_json, sigmoid_from_json),
    "hmm": (Hmm, hmm_to_json, hmm_from_json),
    "hmmvec": (HmmVec, hmmvec_to_json, hmmvec_from_json),
    "emp": (Dataset, dataset_to_json, dataset_from_json),
    "ind": (IndDist, ind_to_json, ind_from_json),
    "markov": (MarkovDist, markov_to_json, markov_from_json),
    "nb": (NaiveBayes, nb_to_json, nb_from_json),
}


def encode(obj, **extra):
    """The tagged JSON document of a model or distribution."""
    tag = next(t for t, (cls, _, _) in CODECS.items() if isinstance(obj, cls))
    return {"type": tag, **extra, "payload": CODECS[tag][1](obj)}


def _read(path, role, tags):
    """(object, file bytes) of a UTF-8 JSON file of one of the type tags;
    an untagged file has the first.  Every failure exits 2."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, not JSON
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


# (scope, variant) -> the polynomial pipeline; it answers a WA model under
# an Hmm distribution (or none, for local baseline SHAP)
ENGINE = {
    ("local", "baseline"):
        lambda f, dist, q: engine.loc_b_shap(f, q.input, q.feature,
                                             q.reference),
    ("local", "interventional"):
        lambda f, dist, q: engine.loc_i_shap(f, q.input, q.feature, dist),
    ("global", "baseline"):
        lambda f, dist, q: engine.glo_b_shap(f, q.feature, q.length,
                                             q.reference, dist),
    ("global", "interventional"):
        lambda f, dist, q: engine.glo_i_shap(f, q.feature, q.length, dist),
}


def _oracle(q, model, dist):
    variant = q.variant[0]  # b / i / c
    ctx = q.reference if variant == "b" else dist
    if q.scope == "local":
        return shap_oracle_local(variant, model, q.input, q.feature, ctx)
    return oracle.shap_oracle_global(variant, model, q.feature, q.length,
                                     ctx, dist)


def _value_record(cfg, value, route):
    # rationals expose numerator/denominator; sigmoid outputs are floats
    exact = hasattr(value, "denominator")
    record = {
        "feature": cfg.feature,
        "variant": cfg.variant,
        "scope": cfg.scope,
        "value": format_rat(value) if exact else None,
        "decimal": float(value),
    }
    if cfg.format == "tsv":
        print("\t".join(str(v) for v in record.values()))
    else:
        _dump_json({**record, "route": route, "backend": Rat.__name__})


def _check_symbols(q, model, dist):
    # a distribution may use fewer symbols than the model, never others
    sigma = (model.alphabets[0] if isinstance(model, NAlphabetWA)
             else model.domain)
    used = {"--input": q.input if q.scope == "local" else "",
            "--reference": q.reference if q.variant == "baseline" else "",
            "the distribution": oracle.dist_alphabet(dist) if dist else ()}
    for role, symbols in used.items():
        alien = sorted(set(symbols) - set(sigma))
        if alien:
            raise CliError(EXIT_INCOMPATIBLE,
                           f"{role} uses symbols {alien} outside the model's "
                           f"domain {list(sigma)}")


def cmd_shap(cfg):
    model = load_model(cfg.model)
    if isinstance(model, SigmoidNet) and cfg.mode == "exact":
        raise CliError(EXIT_INCOMPATIBLE,
                       "sigmoid models evaluate in binary-64; "
                       "use --mode float")
    local = cfg.scope == "local"
    if local and cfg.input is None:
        raise CliError(EXIT_PARSE, "--input is required for local scope")
    if not local and cfg.length is None:
        raise CliError(EXIT_PARSE, "--length is required for global scope")
    n = len(cfg.input) if local else cfg.length
    if not (1 <= cfg.feature <= n):
        raise CliError(EXIT_INCOMPATIBLE,
                       f"feature {cfg.feature} out of range for n={n}")
    baseline = cfg.variant == "baseline"
    if baseline and cfg.reference is None:
        raise CliError(EXIT_PARSE,
                       "--reference is required for the baseline variant")
    if baseline and len(cfg.reference) != n:
        raise CliError(EXIT_INCOMPATIBLE, f"--reference must have length {n}")
    needs_dist = not (local and baseline)
    if needs_dist and cfg.dist is None:
        raise CliError(EXIT_PARSE, f"--dist is required for {cfg.scope} "
                                   f"{cfg.variant} SHAP")
    try:
        dist = load_dist(cfg.dist) if needs_dist else None
        for obj, role in ((model, "model"), (dist, "distribution")):
            if getattr(obj, "n", n) != n:
                raise CliError(EXIT_INCOMPATIBLE,
                               f"the {role} has n={obj.n}, the query n={n}")
        _check_symbols(cfg, model, dist)
        pipeline = ENGINE.get((cfg.scope, cfg.variant))
        if (pipeline and isinstance(model, NAlphabetWA)
                and (dist is None or isinstance(dist, Hmm))):
            route, value = "engine", pipeline(model, dist, cfg)
        else:
            route, value = "oracle", _oracle(cfg, model, dist)
    except GuardExceeded as e:
        raise CliError(EXIT_GUARD, str(e))
    except ZeroProbabilityEvent as e:
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    except (ValueError, IndexError, KeyError) as e:
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    _value_record(cfg, value, route)


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
    if cfg.order:
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
    _dump_json(encode(obj, provenance=provenance), cfg.output)


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


def _flags(cfg, *names):
    values = [getattr(cfg, name) for name in names]
    if None in values:
        raise CliError(EXIT_PARSE, " and ".join("--" + name for name in names)
                       + " are required")
    return values


def _game_source(cfg):
    powers, quota = _flags(cfg, "powers", "quota")
    game = Wmg(_parse_int_list(powers, "--powers"), quota)
    if not (1 <= cfg.feature <= game.n):
        raise CliError(EXIT_INCOMPATIBLE, f"player {cfg.feature} out of range")
    return game, cfg.feature


def _cnf_source(cfg):
    clauses, n = _flags(cfg, "clauses", "vars")
    return CnfFormula(n, [_parse_int_list(c, "--clauses")
                          for c in clauses.split(";") if c])


def _csp_source(cfg):
    text, radius = _flags(cfg, "strings", "radius")
    strings = text.split(",")
    domain = tuple(sorted(set("".join(strings)) | {"0", "1"}))
    return CspInstance(strings, radius, domain)


# --kind -> the source problem read from its flags
_SOURCES = {"sigmoid": _game_source, "rnn": _game_source,
            "sat": _cnf_source, "csp": _csp_source}


def cmd_gadget(cfg):
    reduce, certify = GADGETS[cfg.kind]
    try:
        problem = _SOURCES[cfg.kind](cfg)
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
        i = rng.randint(1, n)
        bad = []
        for (scope, variant), pipeline in ENGINE.items():
            q = argparse.Namespace(scope=scope, variant=variant, input=w,
                                   reference=w_ref, feature=i, length=n)
            got, want = pipeline(f, dist, q), _oracle(q, f, dist)
            if got != want:
                bad.append(f"{scope} {variant} engine={format_rat(got)} "
                           f"oracle={format_rat(want)}")
        report.check(f"engine-vs-oracle instance {idx}", not bad,
                     bad and f"n={n} w={w} w_ref={w_ref} i={i}: "
                     + "; ".join(bad))


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
                agree, record = certify(problem, reduce(problem))
                report.check(f"{kind} gadget instance {idx}", agree,
                             None if agree else f"{problem} certificate="
                             + json.dumps(record, sort_keys=True))


def cmd_verify(cfg):
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapwa",
        description="Exact SHAP values for weighted automata under HMM "
                    "distributions; compilers and hardness gadgets.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("shap", help="compute one SHAP value")
    p.add_argument("--scope", choices=("local", "global"), required=True)
    p.add_argument("--variant",
                   choices=("baseline", "interventional", "conditional"),
                   required=True)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--feature", type=int, required=True, help="1-based index")
    p.add_argument("--input", help="explained input word (local scope)")
    p.add_argument("--reference", help="baseline reference word")
    p.add_argument("--dist", help="distribution JSON file")
    p.add_argument("--length", type=int, help="sequence length (global scope)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_shap)

    p = sub.add_parser("convert", help="compile a model/distribution")
    p.add_argument("--from", dest="source", required=True,
                   choices=tuple(COMPILERS))
    p.add_argument("--to", dest="target", choices=("wa", "hmm", "hmmvec"),
                   default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--order", help="sequentialization, e.g. 2,1,3")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gadget", help="emit a hardness-reduction instance")
    p.add_argument("--kind", choices=tuple(GADGETS), required=True)
    p.add_argument("--powers", help="comma-separated integer voting powers")
    p.add_argument("--quota", type=int)
    p.add_argument("--feature", type=int, default=1,
                   help="player index (default 1)")
    p.add_argument("--clauses", help="semicolon-separated clauses, "
                                     "e.g. '1,-2,3;-1,2'")
    p.add_argument("--vars", type=int, help="number of CNF variables")
    p.add_argument("--strings", help="comma-separated input strings")
    p.add_argument("--radius", type=int, help="Hamming radius")
    p.add_argument("--output", help="write the bundle here (default stdout)")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("verify", help="seeded equivalence suites")
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
