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
from .gadgets import csp_to_rnn, sat_to_ensemble, wmg_to_rnnrelu, wmg_to_sigmoid
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
from .rational import format_rat, parse_rat
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


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: not JSON, not UTF-8
        raise CliError(EXIT_PARSE, f"cannot read {path}: {e}")


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


def _payload(obj):
    return obj.get("payload", obj) if isinstance(obj, dict) else obj


def _load(path, role, tags):
    # an untagged file has the first of the allowed tags
    obj = _read_json(path)
    kind = obj.get("type", tags[0]) if isinstance(obj, dict) else None
    if kind not in tags:
        raise CliError(EXIT_PARSE, f"{path}: unknown {role} type {kind!r}")
    try:
        return CODECS[kind][2](_payload(obj))
    except (KeyError, ValueError, TypeError) as e:
        raise CliError(EXIT_PARSE, f"{path}: malformed {kind} {role}: {e}")


def load_model(path):
    return _load(path, "model",
                 ("wa", "dt", "ensemble", "linear", "rnn", "sigmoid"))


def load_dist(path):
    return _load(path, "distribution",
                 ("hmm", "hmmvec", "emp", "ind", "markov", "nb"))


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
        _dump_json({**record, "route": route})


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
    try:
        with open(cfg.input, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as e:
        raise CliError(EXIT_PARSE, f"cannot read {cfg.input}: {e}")
    provenance = {
        "source_sha256": hashlib.sha256(raw).hexdigest(),
        "source_format": cfg.source,
        "order": list(order) if order else None,
    }
    try:
        obj = CODECS[tag][2](_payload(doc))
        if compile_ is not None:
            obj = (compile_(obj) if cfg.source in _SEQUENTIAL
                   else compile_(obj, order))
        if target == "hmm" and isinstance(obj, HmmVec):
            obj = hmmvec_to_hmm(obj)
    except (KeyError, TypeError) as e:
        raise CliError(EXIT_PARSE, f"{cfg.input}: malformed {cfg.source}: {e}")
    except ValueError as e:
        # notably: vote-classification ensembles are refused
        raise CliError(EXIT_INCOMPATIBLE, str(e))
    _dump_json(encode(obj, provenance=provenance), cfg.output)


# ---------------------------------------------------------------------------
# gadget


def _sigmoid_certificate(game, inst):
    phi = float(shap_oracle_local("b", inst.model, inst.x, inst.feature,
                                  inst.x_ref))
    dummy = dummy_check(game, inst.feature)
    relation = "<=" if phi <= float(inst.epsilon) else ">"
    return {"dummy": dummy,
            "phi_b": phi,
            "epsilon": format_rat(inst.epsilon),
            "verdict": f"{'dummy' if dummy else 'not dummy'}; "
                       f"phi_b {relation} eps"}


def cmd_gadget(cfg):
    try:
        if cfg.kind in ("sigmoid", "rnn"):
            if cfg.powers is None or cfg.quota is None:
                raise CliError(EXIT_PARSE, "--powers and --quota are required")
            game = Wmg(_parse_int_list(cfg.powers, "--powers"), cfg.quota)
            feature = cfg.feature or 1
            if not (1 <= feature <= game.n):
                raise CliError(EXIT_INCOMPATIBLE,
                               f"player {feature} out of range")
            if cfg.kind == "sigmoid":
                inst = wmg_to_sigmoid(game, feature)
                bundle = {"type": "gadget", "kind": "sigmoid",
                          "model": encode(inst.model),
                          "feature": inst.feature, "x": inst.x,
                          "x_ref": inst.x_ref,
                          "epsilon": format_rat(inst.epsilon),
                          "metadata": inst.metadata}
                certificate = _sigmoid_certificate(game, inst)
            else:
                rnn = wmg_to_rnnrelu(game)
                bundle = {"type": "gadget", "kind": "rnn",
                          "model": encode(rnn),
                          "feature": feature, "x": "1" * game.n,
                          "x_ref": "0" * game.n,
                          "metadata": {"powers": game.powers,
                                       "quota": game.quota}}
                phi = shap_oracle_local("b", rnn, "1" * game.n, feature,
                                        "0" * game.n)
                certificate = {"dummy": dummy_check(game, feature),
                               "phi_b": format_rat(phi),
                               "verdict": "dummy iff phi_b = 0; phi_b = "
                                          + format_rat(phi)}
        elif cfg.kind == "sat":
            if cfg.clauses is None or cfg.vars is None:
                raise CliError(EXIT_PARSE, "--clauses and --vars are required")
            clauses = [_parse_int_list(c, "--clauses")
                       for c in cfg.clauses.split(";") if c]
            formula = CnfFormula(cfg.vars, clauses)
            inst = sat_to_ensemble(formula)
            bundle = {"type": "gadget", "kind": "sat",
                      "model": encode(inst.model),
                      "feature": inst.feature, "x": inst.x,
                      "x_ref": inst.x_ref, "metadata": inst.metadata}
            phi = shap_oracle_local("b", inst.model, inst.x, inst.feature,
                                    inst.x_ref)
            certificate = {"satisfiable": formula.satisfiable(),
                           "phi_b": format_rat(phi),
                           "verdict": "satisfiable iff phi_b > 0; phi_b = "
                                      + format_rat(phi)}
        elif cfg.kind == "csp":
            if cfg.strings is None or cfg.radius is None:
                raise CliError(EXIT_PARSE, "--strings and --radius are required")
            strings = cfg.strings.split(",")
            domain = tuple(sorted(set("".join(strings)) | {"0", "1"}))
            try:
                inst = CspInstance(strings, cfg.radius, domain)
            except ValueError as e:
                raise CliError(EXIT_INCOMPATIBLE, str(e))
            rnn = csp_to_rnn(inst)
            bundle = {"type": "gadget", "kind": "csp",
                      "model": encode(rnn),
                      "metadata": {"strings": strings, "radius": cfg.radius}}
            witness = csp_brute(inst)
            empty = empty_brute(rnn, inst.n, inst.domain)
            certificate = {"witness": witness, "empty": empty,
                           "verdict": "no witness iff f empty; witness = "
                                      + (witness or "none")}
        else:
            raise CliError(EXIT_PARSE, f"unknown gadget kind {cfg.kind!r}")
    except GuardExceeded:
        certificate = None  # instance too large to certify; bundle still valid
    bundle["certificate"] = certificate
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
        pairs = [
            ("loc_b", engine.loc_b_shap(f, w, i, w_ref),
             shap_oracle_local("b", f, w, i, w_ref)),
            ("loc_i", engine.loc_i_shap(f, w, i, dist),
             shap_oracle_local("i", f, w, i, dist)),
            ("glo_i", engine.glo_i_shap(f, i, n, dist),
             oracle.shap_oracle_global("i", f, i, n, dist, dist)),
            ("glo_b", engine.glo_b_shap(f, i, n, w_ref, dist),
             oracle.shap_oracle_global("b", f, i, n, w_ref, dist)),
        ]
        bad = [(name, got, want) for name, got, want in pairs if got != want]
        report.check(f"engine-vs-oracle instance {idx}", not bad,
                     bad and f"n={n} w={w} w_ref={w_ref} i={i}: " + "; ".join(
                         f"{name} engine={format_rat(g)} oracle={format_rat(o)}"
                         for name, g, o in bad))


def _verify_gadgets(report, rng, count):
    for idx in range(count):
        game = rand_wmg(rng, rng.randint(1, 4))
        i = rng.randint(1, game.n)
        dummy = dummy_check(game, i)
        inst = wmg_to_sigmoid(game, i)
        phi = shap_oracle_local("b", inst.model, inst.x, i, inst.x_ref)
        ok = (phi <= float(inst.epsilon) + 1e-9) == dummy
        report.check(f"sigmoid gadget instance {idx}", ok,
                     None if ok else f"G={game} i={i} phi_b={phi} "
                                     f"eps={format_rat(inst.epsilon)} "
                                     f"dummy={dummy}")
        rnn = wmg_to_rnnrelu(game)
        phi2 = shap_oracle_local("b", rnn, "1" * game.n, i, "0" * game.n)
        ok2 = (phi2 == 0) == dummy
        report.check(f"rnn gadget instance {idx}", ok2,
                     None if ok2 else f"G={game} i={i} "
                                      f"phi_b={format_rat(phi2)} dummy={dummy}")

    for idx in range(count):
        formula = rand_cnf(rng, rng.randint(2, 4), rng.randint(1, 4))
        inst = sat_to_ensemble(formula)
        phi = shap_oracle_local("b", inst.model, inst.x, inst.feature,
                                inst.x_ref)
        ok = (phi > 0) == formula.satisfiable()
        report.check(f"sat gadget instance {idx}", ok,
                     None if ok else f"{formula} phi_b={format_rat(phi)}")

    for idx in range(count):
        inst = rand_csp(rng, rng.randint(1, 3), rng.randint(1, 4))
        rnn = csp_to_rnn(inst)
        ok = empty_brute(rnn, inst.n, inst.domain) == (csp_brute(inst) is None)
        report.check(f"csp gadget instance {idx}", ok,
                     None if ok else f"{inst}")


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
    p.add_argument("--kind", choices=("sigmoid", "rnn", "sat", "csp"),
                   required=True)
    p.add_argument("--powers", help="comma-separated integer voting powers")
    p.add_argument("--quota", type=int)
    p.add_argument("--feature", type=int, help="player index (default 1)")
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
