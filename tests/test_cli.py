import json
from dataclasses import replace
from itertools import product

import pytest

from shapwa import cli
from shapwa.gadgets import wmg_to_rnnrelu
from shapwa.hmm import hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.frontends import sequentialize
from shapwa.models import (Dataset, DecisionTree, DTNode, HmmVec, IndDist,
                           LinearModel, TreeEnsemble, dt_to_json,
                           ensemble_to_json, hmmvec_to_json, ind_to_json,
                           markov_to_json)
from shapwa.oracle import (SigmoidNet, Wmg, shap_oracle_global,
                           shap_oracle_local)
from shapwa.randgen import (rand_hmm, rand_hmmvec, rand_markov, rand_nb,
                            rand_wa, rng_for)
from shapwa.rational import Rat, ZERO, ONE
from shapwa.wa import NAlphabetWA, wa_from_json, wa_to_json, eval_wa

B = ("0", "1")


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def and_model(tmp_path):
    trans = {("1",): SpMat.from_dense([[ONE]]),
             ("0",): SpMat.from_dense([[ZERO]])}
    A = NAlphabetWA([("0", "1")], [ONE], trans, [ONE])
    return write_json(tmp_path / "and.wa.json", wa_to_json(A))


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_shap_local_baseline(capsys, and_model):
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline",
        "--model", and_model, "--input", "11", "--reference", "00",
        "--feature", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1/2"
    assert record["decimal"] == 0.5
    assert record["scope"] == "local"


def test_shap_tsv_format(capsys, and_model):
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline",
        "--model", and_model, "--input", "11", "--reference", "00",
        "--feature", "1", "--format", "tsv"])
    assert code == 0
    assert out.strip().split("\t")[3] == "1/2"


def test_shap_feature_out_of_range(capsys, and_model):
    code, _ = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline",
        "--model", and_model, "--input", "11", "--reference", "00",
        "--feature", "5"])
    assert code == 3


def test_shap_guard_exceeded(capsys, and_model, tmp_path):
    dist = write_json(tmp_path / "u.hmm.json", {
        "type": "hmm",
        "payload": {"alphabet": ["0", "1"], "alpha": ["1"],
                    "matrices": {"0": [["1/2"]], "1": [["1/2"]]}}})
    code, _ = run(capsys, [
        "shap", "--scope", "local", "--variant", "conditional",
        "--model", and_model, "--input", "1" * 30, "--reference", "0" * 30,
        "--feature", "1", "--dist", dist])
    assert code == 4


@pytest.fixture
def inputs(tmp_path, and_model):
    tree = DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)
    half = {"0": Rat(1, 2), "1": Rat(1, 2)}
    docs = {
        "dt": {"type": "dt", "payload": dt_to_json(tree)},
        "rnn": {"type": "rnn",
                "payload": cli.rnn_to_json(wmg_to_rnnrelu(Wmg([1, 1], 2)))},
        "hmm": {"type": "hmm", "payload": hmm_to_json(uniform_hmm(B))},
        "ind": {"type": "ind",
                "payload": ind_to_json(IndDist([half, half], B))},
        "emp": {"type": "emp", "payload": {"rows": ["01", "11"]}},
        "markov": {"type": "markov",
                   "payload": markov_to_json(rand_markov(rng_for(1)))},
        "hmmvec": {"type": "hmmvec", "payload": hmmvec_to_json(
            rand_hmmvec(rng_for(2), 2, 2, B))},
    }
    paths = {k: write_json(tmp_path / f"{k}.json", v) for k, v in docs.items()}
    return {"wa": and_model, **paths}


@pytest.mark.parametrize("model, dist, scope, variant, route", [
    ("wa", "hmm", "local", "baseline", "engine"),
    ("wa", "hmm", "local", "interventional", "engine"),
    ("wa", "hmm", "global", "baseline", "engine"),
    ("wa", "hmm", "global", "interventional", "engine"),
    ("wa", "hmm", "local", "conditional", "oracle"),
    ("wa", "hmm", "global", "conditional", "oracle"),
    ("wa", "ind", "local", "interventional", "oracle"),
    ("wa", "emp", "global", "interventional", "oracle"),
    ("wa", "emp", "global", "baseline", "oracle"),
    ("dt", "hmm", "local", "interventional", "oracle"),
    ("dt", None, "local", "baseline", "oracle"),
    ("rnn", None, "local", "baseline", "oracle"),
])
def test_shap_route(capsys, inputs, model, dist, scope, variant, route):
    argv = ["shap", "--scope", scope, "--variant", variant,
            "--model", inputs[model], "--feature", "1"]
    argv += ["--input", "11"] if scope == "local" else ["--length", "2"]
    if variant == "baseline":
        argv += ["--reference", "00"]
    if dist:
        argv += ["--dist", inputs[dist]]
    code, out = run(capsys, argv)
    assert code == 0
    record = json.loads(out)
    assert record["route"] == route
    assert record["backend"] == Rat.__name__
    assert record["backend"] in ("mpq", "Fraction")


@pytest.mark.parametrize("scope", ["local", "global"])
def test_shap_reference_errors(capsys, inputs, scope):
    argv = ["shap", "--scope", scope, "--variant", "baseline",
            "--model", inputs["wa"], "--feature", "1", "--dist", inputs["hmm"]]
    argv += ["--input", "11"] if scope == "local" else ["--length", "2"]
    assert run(capsys, argv)[0] == 2                          # missing
    assert run(capsys, argv + ["--reference", "000"])[0] == 3  # wrong length


@pytest.fixture
def four_features(tmp_path):
    """One file of each type that fixes n, all with n = 4."""
    tree = DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 4, B)
    half = {"0": Rat(1, 2), "1": Rat(1, 2)}
    objs = {
        "dt": tree,
        "ensemble": TreeEnsemble([tree], [ONE], "regression"),
        "linear": LinearModel(4, B, {(1, "1"): ONE}),
        "sigmoid": SigmoidNet([ONE] * 4, ZERO, 1.0),
        "emp": Dataset(["0110", "1011"]),
        "ind": IndDist([half] * 4, B),
        "nb": rand_nb(rng_for(3), 4),
        "hmmvec": rand_hmmvec(rng_for(4), 4, 2, B),
    }
    return {k: write_json(tmp_path / f"{k}4.json", cli.encode(v))
            for k, v in objs.items()}


@pytest.mark.parametrize("kind, scope", [
    ("dt", "local"), ("ensemble", "local"), ("linear", "local"),
    ("sigmoid", "local"), ("emp", "local"), ("ind", "local"),
    ("nb", "local"), ("hmmvec", "local"), ("dt", "global"),
    ("ind", "global"),
])
def test_shap_checks_n_of_tabular_inputs(capsys, inputs, four_features,
                                         kind, scope):
    # a 4-feature model is explained by baseline SHAP under an HMM, a
    # 4-feature distribution by interventional SHAP of a WA
    is_model = kind in ("dt", "ensemble", "linear", "sigmoid")
    model = four_features[kind] if is_model else inputs["wa"]
    dist = inputs["hmm"] if is_model else four_features[kind]
    variant = "baseline" if is_model else "interventional"

    def argv(n, feature=1):
        args = ["shap", "--scope", scope, "--variant", variant, "--model",
                model, "--dist", dist, "--feature", str(feature),
                "--mode", "float"]
        args += ["--input", "1" * n] if scope == "local" else \
            ["--length", str(n)]
        return args + (["--reference", "0" * n] if is_model else [])

    assert run(capsys, argv(4))[0] == 0
    assert run(capsys, argv(1))[0] == 3
    assert run(capsys, argv(5, feature=5))[0] == 3


@pytest.mark.parametrize("model, dist, scope, word, code", [
    ("wa", "ind_ab", "local", "11", 3),       # the distribution's symbols
    ("wa", "ind_ab", "global", None, 3),
    ("wa", "ind", "local", "1a", 3),          # the input's symbols
    ("dt", None, "local", "11", 3),           # the reference's symbols
    ("wa", "emp_1", "local", "11", 0),        # a subset of the domain is fine
])
def test_shap_checks_symbols_against_the_model(capsys, inputs, tmp_path,
                                               model, dist, scope, word,
                                               code):
    half = {"a": Rat(1, 2), "b": Rat(1, 2)}
    ab = IndDist([half, half], ("a", "b"))
    files = {**inputs,
             "ind_ab": write_json(tmp_path / "ab.json", cli.encode(ab)),
             "emp_1": write_json(tmp_path / "ones.json",
                                 cli.encode(Dataset(["11", "11"])))}
    variant = "interventional" if dist else "baseline"
    argv = ["shap", "--scope", scope, "--variant", variant, "--model",
            files[model], "--feature", "1"]
    argv += ["--input", word] if scope == "local" else ["--length", "2"]
    argv += ["--dist", files[dist]] if dist else ["--reference", "0a"]
    assert run(capsys, argv)[0] == code


@pytest.mark.parametrize("scope, variant", [
    ("local", "interventional"), ("global", "interventional"),
    ("global", "baseline")])
def test_shap_engine_takes_a_sub_alphabet_hmm(capsys, tmp_path, and_model,
                                              scope, variant):
    # a WA over {0,1} under an hmm over {1}: the engine answers as the
    # oracle does, instead of refusing the smaller alphabet
    dist = rand_hmm(rng_for(42), 2, ("1",))
    dist_path = write_json(tmp_path / "ones.json", cli.encode(dist))
    rand_path = write_json(tmp_path / "f.json",
                           cli.encode(rand_wa(rng_for(41), 3, B)))
    for path in (and_model, rand_path):
        argv = ["shap", "--scope", scope, "--variant", variant, "--model",
                path, "--feature", "1", "--dist", dist_path]
        argv += ["--input", "11"] if scope == "local" else ["--length", "2"]
        if variant == "baseline":
            argv += ["--reference", "01"]
        code, out = run(capsys, argv)
        assert code == 0
        record = json.loads(out)
        assert record["route"] == "engine"
        f = cli.load_model(path)
        if scope == "local":
            want = shap_oracle_local("i", f, "11", 1, dist)
        else:
            ctx = "01" if variant == "baseline" else dist
            want = shap_oracle_global(variant[0], f, 1, 2, ctx, dist)
        assert Rat(record["value"]) == want


@pytest.mark.parametrize("argv", [
    ["shap", "--scope", "local", "--variant", "baseline", "--feature", "1",
     "--input", "11", "--reference", "00"],
    ["verify", "--count", "1"],
])
def test_malformed_guard_setting(capsys, monkeypatch, and_model, argv):
    monkeypatch.setenv("SHAPWA_GUARD_BITS", "abc")
    if argv[0] == "shap":
        argv = argv + ["--model", and_model]
    assert run(capsys, argv)[0] == 2


def test_shap_malformed_model(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    ragged_rnn = {"type": "rnn", "payload": {
        "h_init": ["1", "0"], "W": [["1", "0"]], "out": ["1", "0"],
        "emb": {"0": ["0", "0"], "1": ["1", "0"]}, "domain": ["0", "1"]}}
    for content in (b"{not json", b"\xff\xfe{",
                    json.dumps(ragged_rnn).encode()):
        bad.write_bytes(content)
        code, _ = run(capsys, [
            "shap", "--scope", "local", "--variant", "baseline",
            "--model", str(bad), "--input", "1", "--reference", "0",
            "--feature", "1"])
        assert code == 2


HALF = {"0": "1/2", "1": "1/2"}
ALIEN = {"0": "1/2", "x": "1/2"}
IND = {"marginals": [HALF, HALF], "domain": B}
# case -> (type tag, payload), or raw file bytes under the tag
MALFORMED = {
    # a list where the format has an object
    "ind-marginals-list": ("ind", {**IND, "marginals": [["1/2", "1/2"]] * 2}),
    "nb-prior-list": ("nb", {"prior": ["1"], "tables": [{"c": HALF}] * 2,
                             "domain": B}),
    "nb-row-list": ("nb", {"prior": {"c": "1"},
                           "tables": [{"c": ["1/2", "1/2"]}] * 2,
                           "domain": B}),
    "markov-init-list": ("markov", {"init": ["1/2", "1/2"],
                                    "trans": {"0": HALF, "1": HALF},
                                    "domain": B}),
    "wa-transitions-list": ("wa", {"alphabets": [B], "alpha": ["1"],
                                   "beta": ["1"], "transitions": [[["1"]]]}),
    "rnn-emb-list": ("rnn", {"h_init": ["1"], "W": [["1"]],
                             "emb": [["1"], ["0"]], "out": ["1"],
                             "domain": B}),
    "ind-not-stochastic": ("ind", {**IND, "marginals": [
        {"0": "1/2", "1": "1/3"}, HALF]}),
    "float-rational": ("ind", {**IND, "marginals": [
        {"0": 0.5, "1": "1/2"}, HALF]}),
    "dt-feature-out-of-range": ("dt", {"n": 2, "domain": B, "root": {
        "feature": 3, "children": {"0": {"leaf": "0"}, "1": {"leaf": "1"}}}}),
    "utf-16": ("ind", json.dumps({"type": "ind", "payload": IND})
               .encode("utf-16")),
    # hmmvec shapes: emission rows shorter than the domain, 2 states over
    # 1x1 transitions, 2 emission rows for 1 state
    "hmmvec-short-emission-rows": ("hmmvec", {
        "pi": [1, 2], "alpha": ["1"], "transitions": [[["1"]]] * 2,
        "emissions": [[["1"]]] * 2, "domain": B}),
    "hmmvec-alpha-too-long": ("hmmvec", {
        "pi": [1, 2], "alpha": ["1/2", "1/2"], "transitions": [[["1"]]] * 2,
        "emissions": [[["1/2", "1/2"]]] * 2, "domain": B}),
    "hmmvec-emission-rows": ("hmmvec", {
        "pi": [1, 2], "alpha": ["1"], "transitions": [[["1"]]] * 2,
        "emissions": [[["1/2", "1/2"]] * 2] * 2, "domain": B}),
    # probability keys outside the domain
    "ind-alien-symbol": ("ind", {**IND, "marginals": [ALIEN, HALF]}),
    "nb-alien-symbol": ("nb", {"prior": {"c": "1"},
                               "tables": [{"c": ALIEN}, {"c": HALF}],
                               "domain": B}),
    "markov-alien-init": ("markov", {"init": ALIEN,
                                     "trans": {"0": HALF, "1": HALF},
                                     "domain": B}),
}
MODEL_TAGS = ("wa", "dt", "ensemble", "linear", "rnn", "sigmoid")


@pytest.mark.parametrize("tag, content", MALFORMED.values(),
                         ids=list(MALFORMED))
def test_malformed_file_exits_2_from_shap_and_convert(capsys, tmp_path,
                                                      and_model, tag,
                                                      content):
    path = tmp_path / "bad.json"
    path.write_bytes(content if isinstance(content, bytes) else
                     json.dumps({"type": tag, "payload": content}).encode())
    if tag in MODEL_TAGS:
        shap = ["--model", str(path), "--variant", "baseline",
                "--reference", "00"]
    else:
        shap = ["--model", and_model, "--variant", "interventional",
                "--dist", str(path)]
    runs = [["shap", "--scope", "local", "--input", "11", "--feature", "1",
             *shap]]
    out_path = tmp_path / "out.json"
    for source, (source_tag, _, _) in cli.COMPILERS.items():
        if source_tag == tag:
            runs.append(["convert", "--from", source, "--input", str(path),
                         "--output", str(out_path)])
    for argv in runs:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
    assert not out_path.exists()


def test_convert_dt_roundtrip(capsys, tmp_path):
    t = DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=Rat(2, 3))}), 2, ("0", "1"))
    src = write_json(tmp_path / "t.dt.json",
                     {"type": "dt", "payload": dt_to_json(t)})
    out_path = tmp_path / "t.wa.json"
    code, _ = run(capsys, ["convert", "--from", "dt", "--input", src,
                           "--output", str(out_path)])
    assert code == 0
    bundle = json.loads(out_path.read_text())
    assert set(bundle["provenance"]) == {"source_sha256", "source_format",
                                         "order"}
    A = wa_from_json(bundle["payload"])
    for x in ("00", "01", "10", "11"):
        assert eval_wa(A, (x,)) == t.evaluate(x)


def test_convert_emp_to_hmm(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"type": "emp", "payload": {"rows": ["01", "01", "11"]}})
    out_path = tmp_path / "d.hmm.json"
    code, _ = run(capsys, ["convert", "--from", "emp", "--input", src,
                           "--to", "hmm", "--output", str(out_path)])
    assert code == 0
    from shapwa.hmm import hmm_from_json
    h = hmm_from_json(json.loads(out_path.read_text())["payload"])
    assert h.prefix_prob("01") == Rat(2, 3)
    assert h.prefix_prob("11") == Rat(1, 3)
    assert h.prefix_prob("10") == 0


def test_convert_hmmvec_records_its_order(capsys, tmp_path):
    m = rand_hmmvec(rng_for(5), 3, 2, B)
    m = HmmVec((3, 1, 2), m.alpha, m.transitions, m.emissions, B)
    src = write_json(tmp_path / "m.json", cli.encode(m))
    out_path = tmp_path / "m.hmm.json"
    code, _ = run(capsys, ["convert", "--from", "hmmvec", "--input", src,
                           "--output", str(out_path)])
    assert code == 0
    bundle = json.loads(out_path.read_text())
    assert bundle["provenance"]["order"] == [3, 1, 2]
    h = hmm_from_json(bundle["payload"])
    for x in ("".join(t) for t in product(B, repeat=3)):
        assert h.prefix_prob(sequentialize(x, (3, 1, 2))) == m.prob(x)


def test_convert_vote_ensemble_refused(capsys, tmp_path):
    leaf = DecisionTree(DTNode(leaf=ONE), 1, ("0", "1"))
    e = TreeEnsemble([leaf], [ONE], "vote")
    src = write_json(tmp_path / "e.json",
                     {"type": "ensemble", "payload": ensemble_to_json(e)})
    code, _ = run(capsys, ["convert", "--from", "ens-r", "--input", src,
                           "--output", str(tmp_path / "e.wa.json")])
    assert code == 3
    assert not (tmp_path / "e.wa.json").exists()  # no partial output


@pytest.mark.parametrize("source, flags", [
    ("emp", ["--to", "wa"]),
    ("dt", ["--to", "hmm"]),
    ("markov", ["--to", "hmmvec"]),
    ("markov", ["--order", "2,1"]),
    ("hmmvec", ["--order", "2,1"]),
])
def test_convert_refuses_flags_it_cannot_honour(capsys, inputs, tmp_path,
                                                source, flags):
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, ["convert", "--from", source, "--input",
                           inputs[source], "--output", str(out_path), *flags])
    assert code == 2
    assert not out_path.exists()


@pytest.mark.parametrize("order", ["1,2", "1,2,3,4,5", "1,1,3,4"])
@pytest.mark.parametrize("source", ["dt", "ens-r", "lin", "emp", "ind",
                                    "nb"])
def test_convert_refuses_an_order_that_is_not_a_permutation(
        capsys, four_features, tmp_path, source, order):
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, ["convert", "--from", source, "--input",
                           four_features[cli.COMPILERS[source][0]],
                           "--order", order, "--output", str(out_path)])
    assert code == 3
    assert not out_path.exists()


def test_convert_determinism(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"type": "emp", "payload": {"rows": ["01", "11"]}})
    outs = []
    for name in ("a.json", "b.json"):
        run(capsys, ["convert", "--from", "emp", "--input", src,
                     "--to", "hmm", "--output", str(tmp_path / name)])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


# --kind -> (flags, a part of the expected certificate)
GADGET_CASES = {
    "sigmoid": (["--powers", "1,1", "--quota", "2"],
                {"dummy": False, "verdict": "not dummy; phi_b > eps"}),
    "rnn": (["--powers", "3,2,2,0", "--quota", "5", "--feature", "4"],
            {"dummy": True, "phi_b": "0"}),
    "sat": (["--clauses", "1,-2;2", "--vars", "2"],
            {"satisfiable": True, "phi_b": "1/3"}),
    "csp": (["--strings", "00,11", "--radius", "0"],
            {"witness": None, "empty": True}),
}


@pytest.mark.parametrize("kind", sorted(cli.GADGETS))
def test_gadget_bundle(capsys, kind):
    flags, certificate = GADGET_CASES[kind]
    code, out = run(capsys, ["gadget", "--kind", kind, *flags])
    assert code == 0
    bundle = json.loads(out)
    assert bundle["kind"] == kind
    assert certificate.items() <= bundle["certificate"].items()
    # the csp gadget has no query point; the others explain one feature,
    # player 1 unless --feature says otherwise
    assert ("feature" in bundle) == (kind != "csp")
    if kind == "sigmoid":
        assert bundle["feature"] == 1
        assert bundle["metadata"]["C_N"] == 2


@pytest.mark.parametrize("flags", [
    ["--kind", "sigmoid", "--powers", "1,1", "--quota", "1",
     "--feature", "0"],
    ["--kind", "sigmoid", "--powers", "1,-1", "--quota", "1",
     "--feature", "2"],
    ["--kind", "rnn", "--powers", "1,-1", "--quota", "1"],
    ["--kind", "sat", "--clauses", "1,-3", "--vars", "2"],
    ["--kind", "sat", "--clauses", "0", "--vars", "2"],
    ["--kind", "sat", "--clauses", ";", "--vars", "2"],
    ["--kind", "csp", "--strings", "00,11", "--radius", "3"],
    ["--kind", "csp", "--strings", "00,11", "--radius", "-1"],
    ["--kind", "csp", "--strings", ",", "--radius", "0"],
    ["--kind", "csp", "--strings", "0,00", "--radius", "0"],
])
def test_gadget_refuses_bad_source_problems(capsys, tmp_path, flags):
    out_path = tmp_path / "bundle.json"
    code, _ = run(capsys, ["gadget", *flags, "--output", str(out_path)])
    assert code == 3
    assert not out_path.exists()


def test_verify_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "3",
                             "--seed", "7"])
    assert code == 0
    assert "all PASS" in out
    assert "FAIL" not in out


def test_verify_deterministic(capsys):
    _, out1 = run(capsys, ["verify", "--suite", "engine", "--count", "3"])
    _, out2 = run(capsys, ["verify", "--suite", "engine", "--count", "3"])
    assert out1 == out2


def test_verify_reports_corrupted_engine(capsys, monkeypatch):
    # harness sanity: a wrong engine must be caught with a counterexample
    from shapwa import engine

    def corrupted(f, w, i, w_ref):
        return Rat(1, 7)

    monkeypatch.setattr(engine, "loc_b_shap", corrupted)
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "2"])
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


@pytest.mark.parametrize("kind", sorted(cli.GADGETS))
def test_verify_reports_corrupted_reduction(capsys, monkeypatch, kind):
    # a reduction whose model is constantly 0 decides every problem as
    # "dummy" / "unsatisfiable" / "no witness", which some draw contradicts
    reduce, certify = cli.GADGETS[kind]
    zero = DecisionTree(DTNode(leaf=ZERO), 1, B)
    monkeypatch.setitem(cli.GADGETS, kind, (
        lambda problem: replace(reduce(problem), model=zero), certify))
    code, out = run(capsys, ["verify", "--suite", "gadgets", "--count", "3"])
    assert code == 1
    assert f"FAIL {kind} gadget instance" in out
    assert "counterexample" in out
