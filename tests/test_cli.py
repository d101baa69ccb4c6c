import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest

from shapwa import cli
from shapwa.gadgets import wmg_to_rnnrelu, wmg_to_sigmoid
from shapwa.hmm import hmm_from_json, hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.frontends import dt_to_wa, sequentialize
from shapwa.models import (Dataset, DecisionTree, DTNode, HmmVec, IndDist,
                           LinearModel, SigmoidNet, TreeEnsemble, dt_to_json,
                           ensemble_to_json, to_json)
from shapwa.oracle import Wmg, shap_oracle_global, shap_oracle_local
from shapwa.randgen import (rand_dataset, rand_dt, rand_ensemble, rand_hmm,
                            rand_hmmvec, rand_ind, rand_linear, rand_markov,
                            rand_nb, rand_wa, rng_for)
from shapwa.rational import Rat, ZERO, ONE, format_rat, rat
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
    # the json record's fields, route and backend after decimal
    assert out.rstrip("\n").split("\t") == [
        "1", "baseline", "local", "1/2", "0.5", "engine", Rat.__name__]


def test_shap_value_beyond_binary64(capsys, tmp_path):
    # f("1") = 10^400: the exact value is printed whole and its decimal,
    # which no float can hold, is null (None in tsv)
    big = "1" + "0" * 400
    model = write_json(tmp_path / "big.wa.json", {"type": "wa", "payload": {
        "alphabets": [["0", "1"]], "alpha": ["1"], "beta": ["1"],
        "transitions": {"1": [[0, 0, big]]}}})
    for w, w_ref, value in (("1", "0", big), ("0", "1", "-" + big)):
        argv = ["shap", "--scope", "local", "--variant", "baseline",
                "--model", model, "--input", w, "--reference", w_ref,
                "--feature", "1"]
        code, out = run(capsys, argv)
        assert code == 0
        record = json.loads(out)
        assert (record["value"], record["decimal"]) == (value, None)
        code, out = run(capsys, argv + ["--format", "tsv"])
        assert code == 0
        assert out.rstrip("\n").split("\t")[3:] == [
            value, "None", "engine", Rat.__name__]


def test_shap_value_beyond_the_int_string_limit(capsys, tmp_path):
    # f("1" * n) = 10^(400 n): at n = 11 the local baseline value has 4,401
    # digits, more than str(int) writes; it is printed whole
    big = "1" + "0" * 400
    model = write_json(tmp_path / "big.wa.json", {"type": "wa", "payload": {
        "alphabets": [["0", "1"]], "alpha": ["1"], "beta": ["1"],
        "transitions": {"1": [[0, 0, big]]}}})
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline", "--model", model,
        "--input", "1" * 11, "--reference", "0" * 11, "--feature", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "1" + "0" * 4400 + "/11"
    assert record["decimal"] is None


def test_usage_errors_leave_the_parser_as_new(capsys, and_model):
    # the parser is built once per process; a usage error still exits 2,
    # and the next call answers as a fresh process does
    argv = ["shap", "--scope", "local", "--variant", "baseline",
            "--model", and_model, "--input", "11", "--reference", "00",
            "--feature", "1"]
    for bad in (argv + ["--format", "tsv", "--bogus"], argv[:-2],
                argv[:2] + ["sideways"] + argv[3:]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(bad)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: shapwa")
    code, out = run(capsys, argv)
    src = str(Path(cli.__file__).parent.parent)
    fresh = subprocess.run([sys.executable, "-m", "shapwa", *argv],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert json.loads(out)["value"] == "1/2"
    assert cli.build_parser() is cli.build_parser()


def test_shap_feature_out_of_range(capsys, and_model):
    code, _ = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline",
        "--model", and_model, "--input", "11", "--reference", "00",
        "--feature", "5"])
    assert code == 3


# the sides of the engine-route queries on the engine_files model, n = 5
ENGINE_SIDES = {"input": "01101", "reference": "10011"}
# the (scope, variant) pairs whose query on a WA under an HMM the engine
# or the zero route answers; verify compares the non-conditional ones with
# the oracle
NOT_ORACLE = [pair for pair, (route, _) in cli.ROUTES.items()
              if route != "oracle"]
VERIFIED = [(scope, variant) for scope, variant in NOT_ORACLE
            if variant != "conditional"]


@pytest.fixture
def engine_files(tmp_path):
    rng = rng_for(64)
    f, D = rand_wa(rng, 3, B), rand_hmm(rng, 2, B)
    return (write_json(tmp_path / "f.json", cli.encode(f)),
            write_json(tmp_path / "d.json", cli.encode(D)))


def engine_argv(scope, variant, feature, model, dist):
    """shap argv of the query on these files, reading only its flags."""
    given = {**ENGINE_SIDES, "dist": dist}
    argv = ["shap", "--scope", scope, "--variant", variant, "--model", model,
            "--feature", str(feature)]
    for flag in sorted({cli.OUTER[scope], cli.INNER[variant]}):
        argv += [f"--{flag}", given[flag]]
    if scope == "global":
        argv += ["--length", str(len(ENGINE_SIDES["input"]))]
    return argv


@pytest.mark.parametrize("scope, variant", VERIFIED)
def test_shap_prints_the_whole_pass_value_of_its_feature(
        capsys, engine_files, scope, variant):
    # the CLI runs the part of the pass its feature needs, not shap_all;
    # global interventional SHAP is the zero route's 0
    from shapwa import engine
    model, dist = engine_files
    f, D = cli.load_model(model), cli.load_dist(dist)
    n = len(ENGINE_SIDES["input"])
    inner, outer = cli._sides(scope, variant, {**ENGINE_SIDES, "dist": D})
    want = engine.shap_all.__wrapped__(f, n, inner, outer)
    engine.shap_all.cache_clear()
    for i in range(1, n + 1):
        code, out = run(capsys, engine_argv(scope, variant, i, model, dist))
        record = json.loads(out)
        assert (code, record["route"]) == (0, cli.ROUTES[scope, variant][0])
        assert record["value"] == format_rat(want[i - 1]), i
    assert engine.shap_all.cache_info().misses == 0


@pytest.mark.parametrize("scope, variant", NOT_ORACLE)
def test_shap_engine_route_refuses_a_feature_out_of_range(
        capsys, engine_files, scope, variant):
    for i in (0, len(ENGINE_SIDES["input"]) + 1):
        code = cli.main(engine_argv(scope, variant, i, *engine_files))
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"feature {i} out of range" in captured.err


def test_shap_guard_exceeded(capsys, and_model, tmp_path):
    dist = write_json(tmp_path / "u.hmm.json", {
        "type": "hmm",
        "payload": {"alphabet": ["0", "1"], "alpha": ["1"],
                    "matrices": {"0": [[0, 0, "1/2"]],
                                 "1": [[0, 0, "1/2"]]}}})
    code, _ = run(capsys, [
        "shap", "--scope", "local", "--variant", "conditional",
        "--model", and_model, "--input", "1" * 30,
        "--feature", "1", "--dist", dist])
    assert code == 4


def test_shap_reads_its_files_before_checking_the_query(capsys, and_model,
                                                       tmp_path):
    # a malformed --dist exits 2 even when the feature is out of range too
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "interventional",
        "--model", and_model, "--input", "11", "--feature", "5",
        "--dist", str(bad)])
    assert (code, out) == (2, "")


def test_shap_refuses_a_model_file_as_its_dist(capsys, inputs):
    code = cli.main([
        "shap", "--scope", "local", "--variant", "interventional",
        "--model", inputs["wa"], "--input", "11", "--feature", "1",
        "--dist", inputs["dt"]])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "unknown distribution type 'dt'" in err


def test_shap_checks_the_query_before_the_guard(capsys, and_model,
                                                tmp_path):
    # at n = 30 the oracle refuses a malformed query (exit 3) before it
    # weighs the job against the guard (exit 4)
    ab = write_json(tmp_path / "ab.json", {"type": "hmm", "payload":
                                           hmm_to_json(uniform_hmm("ab"))})
    argv = ["shap", "--scope", "local", "--variant", "conditional",
            "--model", and_model, "--input", "1" * 30, "--feature", "1",
            "--dist", ab]
    assert run(capsys, argv)[0] == 3
    assert run(capsys, argv[:-2] + ["--dist", write_json(
        tmp_path / "b.json", {"type": "hmm", "payload":
                              hmm_to_json(uniform_hmm(B))})])[0] == 4


@pytest.fixture
def inputs(tmp_path, and_model):
    tree = DecisionTree(DTNode(feature=1, children={
        "0": DTNode(leaf=ZERO), "1": DTNode(leaf=ONE)}), 2, B)
    half = {"0": Rat(1, 2), "1": Rat(1, 2)}
    docs = {
        "dt": {"type": "dt", "payload": dt_to_json(tree)},
        "rnn": {"type": "rnn",
                "payload": to_json(wmg_to_rnnrelu(Wmg([1, 1], 2)))},
        "hmm": {"type": "hmm", "payload": hmm_to_json(uniform_hmm(B))},
        "ind": {"type": "ind",
                "payload": to_json(IndDist([half, half], B))},
        "emp": {"type": "emp", "payload": {"rows": ["01", "11"]}},
        "markov": {"type": "markov",
                   "payload": to_json(rand_markov(rng_for(1)))},
        "hmmvec": {"type": "hmmvec", "payload": to_json(
            rand_hmmvec(rng_for(2), 2, 2, B))},
    }
    paths = {k: write_json(tmp_path / f"{k}.json", v) for k, v in docs.items()}
    return {"wa": and_model, **paths}


def test_every_route_has_one_answer():
    # a route without an answer would be a KeyError, which shap reports
    # as incompatible input (exit 3); an answer without a route is dead
    routes = {name for pair in cli.ROUTES.values() for name in pair}
    assert routes == set(cli.ANSWERS)


@pytest.mark.parametrize("model, dist, scope, variant, route", [
    ("wa", None, "local", "baseline", "engine"),
    ("wa", "hmm", "local", "interventional", "engine"),
    ("wa", "hmm", "global", "baseline", "engine"),
    ("wa", "hmm", "global", "interventional", "zero"),
    ("wa", "hmm", "local", "conditional", "oracle"),
    ("wa", "hmm", "global", "conditional", "zero"),
    ("wa", "ind", "local", "interventional", "oracle"),
    ("wa", "emp", "global", "interventional", "zero"),
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


@pytest.fixture
def every_kind(tmp_path):
    """One file of each model and distribution kind, each with n = 2 if it
    carries an n."""
    rng = rng_for(70)
    objs = {
        "wa": rand_wa(rng, 3, B),
        "dt": rand_dt(rng, 2),
        "ensemble": rand_ensemble(rng, 2),
        "linear": rand_linear(rng, 2),
        "rnn": wmg_to_rnnrelu(Wmg([1, 1], 2)),
        "sigmoid": SigmoidNet([Rat(1, 3), Rat(-2, 5)], Rat(1, 7), 1.0),
        "hmm": rand_hmm(rng, 2, B),
        "hmmvec": rand_hmmvec(rng, 2, 2, B),
        "emp": rand_dataset(rng, 2, 3),
        "ind": rand_ind(rng, 2),
        "markov": rand_markov(rng),
        "nb": rand_nb(rng, 2),
    }
    return {k: write_json(tmp_path / f"{k}.json", cli.encode(v))
            for k, v in objs.items()}


MODEL_KINDS = ("wa", "dt", "ensemble", "linear", "rnn", "sigmoid")
DIST_KINDS = ("hmm", "hmmvec", "emp", "ind", "markov", "nb")

# the (model kind, distribution kind) pairs the engine column of ROUTES
# answered before the route asked the engine's own type test; None is a
# query with no --dist
ENGINE_PAIRS = {("wa", None), ("wa", "hmm")}


def test_route_is_the_engine_column_for_the_kinds_the_engine_reads(
        every_kind):
    # every model kind, every distribution kind the flags allow (none at
    # local baseline, which reads no --dist) and every (scope, variant)
    # pair
    objs = {k: (cli.load_model if k in MODEL_KINDS else cli.load_dist)(path)
            for k, path in every_kind.items()}
    asked = 0
    for (scope, variant), model in product(cli.ROUTES, MODEL_KINDS):
        flags = {cli.OUTER[scope], cli.INNER[variant]}
        for dist in DIST_KINDS if "dist" in flags else (None,):
            inner, outer = cli._sides(scope, variant, {
                "input": "11", "reference": "00", "dist": objs.get(dist)})
            want = cli.ROUTES[scope, variant][(model, dist)
                                              not in ENGINE_PAIRS]
            got = cli.route(scope, variant, objs[model], inner, outer)
            assert got == want, (scope, variant, model, dist)
            asked += 1
    assert asked == 186


@pytest.mark.parametrize("variant", ["interventional", "conditional"])
def test_zero_route_answers_every_model_and_distribution(capsys, every_kind,
                                                         variant):
    # global interventional and conditional SHAP are an exact 0 for every
    # model and distribution kind, a sigmoid network's too, once the query
    # passes the checks the other routes run
    for model, dist in product(MODEL_KINDS, DIST_KINDS):
        def argv(n, feature=1):
            return ["shap", "--scope", "global", "--variant", variant,
                    "--model", every_kind[model], "--dist", every_kind[dist],
                    "--length", str(n), "--feature", str(feature)]

        code, out = run(capsys, argv(2))
        record = json.loads(out)
        assert (code, record["route"], record["value"],
                record["decimal"]) == (0, "zero", "0", 0.0), (model, dist)
        # a model or distribution that carries n = 2 refuses n = 3
        carries_n = model not in ("wa", "rnn") or dist not in ("hmm",
                                                               "markov")
        assert run(capsys, argv(3))[0] == (3 if carries_n else 0)
        code = cli.main(argv(2, feature=3))
        assert (code, capsys.readouterr().err) == (
            3, "error: feature 3 out of range for n=2\n")


@pytest.mark.parametrize("variant", ["interventional", "conditional"])
def test_zero_route_answers_beyond_the_guard(capsys, inputs, variant):
    # n = 25 is past the oracle's guard, which refused global conditional
    # SHAP here (exit 4)
    code, out = run(capsys, [
        "shap", "--scope", "global", "--variant", variant, "--model",
        inputs["wa"], "--dist", inputs["hmm"], "--length", "25",
        "--feature", "13"])
    record = json.loads(out)
    assert (code, record["route"], record["value"]) == (0, "zero", "0")


@pytest.mark.parametrize("scope", ["local", "global"])
def test_shap_reference_errors(capsys, inputs, scope):
    argv = ["shap", "--scope", scope, "--variant", "baseline",
            "--model", inputs["wa"], "--feature", "1"]
    argv += (["--input", "11"] if scope == "local" else
             ["--length", "2", "--dist", inputs["hmm"]])
    assert run(capsys, argv)[0] == 2                          # missing
    assert run(capsys, argv + ["--reference", "000"])[0] == 3  # wrong length


@pytest.mark.parametrize("scope, flags", [
    ("local", ["--input", "11", "--length", "7"]),
    ("local", ["--input", "11", "--length", "2"]),
    ("global", ["--length", "2", "--input", "111"]),
    ("global", ["--length", "2", "--input", "11"]),
])
def test_shap_refuses_the_other_scopes_flag(capsys, inputs, scope, flags):
    code = cli.main(["shap", "--scope", scope, "--variant", "interventional",
                     "--model", inputs["wa"], "--dist", inputs["hmm"],
                     "--feature", "1", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


# (scope, variant) -> the flags the query reads: those of its two sides,
# the inputs (--input or --dist) and the replaced features (--reference or
# --dist), and --length at global scope
READS = {
    ("local", "baseline"): {"input", "reference"},
    ("local", "interventional"): {"input", "dist"},
    ("local", "conditional"): {"input", "dist"},
    ("global", "baseline"): {"length", "reference", "dist"},
    ("global", "interventional"): {"length", "dist"},
    ("global", "conditional"): {"length", "dist"},
}


@pytest.mark.parametrize("flag", ["input", "length", "reference", "dist"])
@pytest.mark.parametrize("scope, variant", sorted(READS))
def test_shap_reads_exactly_the_flags_of_its_sides(capsys, inputs, scope,
                                                   variant, flag):
    values = {"input": "11", "length": "2", "reference": "00",
              "dist": inputs["hmm"]}
    head = ["shap", "--scope", scope, "--variant", variant,
            "--model", inputs["wa"], "--feature", "1"]

    def argv(flags):
        return head + [t for f in sorted(flags) for t in ("--" + f, values[f])]

    reads = READS[scope, variant]
    assert run(capsys, argv(reads))[0] == 0
    # drop a flag the query reads, or add one it does not
    code = cli.main(argv(reads ^ {flag}))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_shap_has_no_mode_flag(capsys, and_model):
    # nor is --mode an abbreviation of --model, before it or after it
    argv = ["shap", "--scope", "local", "--variant", "baseline", "--input",
            "11", "--reference", "00", "--feature", "1"]
    for flags in (["--mode", "float", "--model", and_model],
                  ["--model", and_model, "--mode", "float"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + flags)
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("weights, decimal", [
    # math.exp(1000) overflowed in the logistic
    (["-1000", "1"], -(0.5 + 1 / (1 + math.exp(-1))) / 2),
    # float(10^400) overflowed in the weighted sum
    (["1" + "0" * 400, "1"], (1.5 - 1 / (1 + math.exp(-1))) / 2),
])
def test_shap_sigmoid_beyond_the_logistics_range(capsys, tmp_path, weights,
                                                 decimal):
    # a sigmoid network evaluates in binary-64 and the oracle sums the
    # rationals of its floats: the value is exact and the decimal its float
    model = write_json(tmp_path / "s.json",
                       cli.encode(SigmoidNet(weights, ZERO, 1.0)))
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline", "--model", model,
        "--input", "11", "--reference", "00", "--feature", "1"])
    assert code == 0
    record = json.loads(out)
    assert float(rat(record["value"])) == record["decimal"]
    assert record["decimal"] == pytest.approx(decimal)


def test_shap_sigmoid_whose_every_output_is_1(capsys, tmp_path):
    # an output of exactly 1.0 is the shared ONE: the value is exactly 0
    model = write_json(tmp_path / "s.json",
                       cli.encode(SigmoidNet(["0", "0"], ONE, 1e6)))
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline", "--model", model,
        "--input", "11", "--reference", "00", "--feature", "1"])
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "0"
    assert type(record["decimal"]) is float and record["decimal"] == 0


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
                model, "--feature", str(feature)]
        args += ["--input", "1" * n] if scope == "local" else \
            ["--length", str(n)]
        if not (is_model and scope == "local"):
            args += ["--dist", dist]
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
    # a WA over {0,1} under an hmm over {1}: the engine (the zero route at
    # global interventional SHAP) answers as the oracle does, instead of
    # refusing the smaller alphabet
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
        assert record["route"] == cli.ROUTES[scope, variant][0]
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


def test_verify_beyond_the_guard(capsys, monkeypatch):
    # the first oracle call of the engine suite weighs more than 2^0
    monkeypatch.setenv("SHAPWA_GUARD_BITS", "0")
    code = cli.main(["verify", "--count", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert "> guard 0" in err


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
RNN = {"h_init": ["1"], "W": [["1"]], "emb": {"0": ["0"], "1": ["1"]},
       "out": ["1"], "domain": B}
SIGMOID = {"weights": ["1", "1"], "bias": "-1/2", "gain": 1.0, "domain": B}
TREE = {"n": 2, "domain": B, "root": {
    "feature": 1, "children": {"0": {"leaf": "0"}, "1": {"leaf": "1"}}}}
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
                                   "beta": ["1"],
                                   "transitions": [[[0, 0, "1"]]]}),
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
    # a key twice in one object, which plain json.loads reads as its last
    # value: the weight of (1, "0") would be 2
    "linear-weight-key-twice": ("linear", b'{"type": "linear", "payload": '
                                b'{"n": 2, "domain": ["0", "1"], "weights": '
                                b'{"1,0": "1", "1,0": "2"}, "intercept": "0"}}'),
    "type-twice": ("ind", json.dumps({"type": "ind", "payload": IND})
                   .replace('"payload"', '"type": "ind", "payload"').encode()),
    "nested-too-deeply": ("dt", b"[" * 100_000 + b"]" * 100_000),
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
    # hmm shapes: a transition row longer than alpha, an emission row
    # longer than the alphabet, more rows than states
    "hmm-transition-row-long": ("hmm", {"alphabet": B, "alpha": ["1"],
                                        "transition": [["1", "7"]],
                                        "emission": [["1/2", "1/2"]]}),
    "hmm-emission-row-long": ("hmm", {"alphabet": B, "alpha": ["1"],
                                      "transition": [["1"]],
                                      "emission": [["1/2", "1/2", "9"]]}),
    "hmm-extra-rows": ("hmm", {"alphabet": B, "alpha": ["1"],
                               "transition": [["1"], ["1"]],
                               "emission": [["1/2", "1/2"]] * 2}),
    # emission rows that are not laws, though each row of T * (O 1) sums
    # to 1: both forms of the parameters are read by one check
    "hmm-emission-rows-not-laws": ("hmm", {
        "alphabet": B, "alpha": ["1", "0"],
        "transition": [["1/2", "1/2"]] * 2,
        "emission": [["1", "1"], ["0", "0"]]}),
    "hmmvec-emission-rows-not-laws": ("hmmvec", {
        "pi": [1, 2], "alpha": ["1", "0"],
        "transitions": [[["1/2", "1/2"]] * 2] * 2,
        "emissions": [[["1", "1"], ["0", "0"]]] * 2, "domain": B}),
    # probability keys outside the domain
    "ind-alien-symbol": ("ind", {**IND, "marginals": [ALIEN, HALF]}),
    "nb-alien-symbol": ("nb", {"prior": {"c": "1"},
                               "tables": [{"c": ALIEN}, {"c": HALF}],
                               "domain": B}),
    "markov-alien-init": ("markov", {"init": ALIEN,
                                     "trans": {"0": HALF, "1": HALF},
                                     "domain": B}),
    # rnn embeddings keyed by other symbols than the domain's
    "rnn-emb-missing-symbol": ("rnn", {**RNN, "emb": {"0": ["0"]}}),
    "rnn-emb-extra-symbol": ("rnn", {**RNN, "emb": {**RNN["emb"],
                                                    "2": ["1"]}}),
    # domain symbols that are not strings
    "rnn-domain-list": ("rnn", {**RNN, "domain": ["0", ["1"]]}),
    "sigmoid-domain-object": ("sigmoid", {**SIGMOID,
                                          "domain": ["0", {"1": 1}]}),
    # an input is the string of its symbols: a symbol is one character,
    # and a domain names each symbol once
    "ind-repeated-symbol": ("ind", {**IND, "domain": ["0", "0", "1"]}),
    "dt-repeated-symbol": ("dt", {**TREE, "domain": ["0", "1", "1"]}),
    "nb-repeated-symbol": ("nb", {"prior": {"c": "1"},
                                  "tables": [{"c": HALF}] * 2,
                                  "domain": ["0", "1", "0"]}),
    "ind-multichar-symbol": ("ind", {
        "marginals": [{"ab": "1/2", "c": "1/2"}] * 2, "domain": ["ab", "c"]}),
    "linear-multichar-symbol": ("linear", {
        "n": 2, "domain": ["ab", "c"], "weights": {"1,ab": "1", "1,c": "3"}}),
    "hmmvec-multichar-symbol": ("hmmvec", {
        "pi": [1, 2], "alpha": ["1"], "transitions": [[["1"]]] * 2,
        "emissions": [[["1/2", "1/2"]]] * 2, "domain": ["0", "11"]}),
    "rnn-multichar-symbol": ("rnn", {**RNN, "emb": {"0": ["0"], "11": ["1"]},
                                     "domain": ["0", "11"]}),
    "wa-multichar-symbol": ("wa", {"alphabets": [["ab", "c"]], "alpha": ["1"],
                                   "beta": ["1"],
                                   "transitions": {"ab": [[0, 0, "1"]]}}),
    "wa-empty-symbol": ("wa", {"alphabets": [["", "1"]], "alpha": ["1"],
                               "beta": ["1"],
                               "transitions": {"1": [[0, 0, "1"]]}}),
    # no alphabet, an empty one, a symbol twice, a key outside its alphabet
    "wa-no-alphabets": ("wa", {"alphabets": [], "alpha": ["1"],
                               "beta": ["1"], "transitions": {}}),
    "wa-empty-alphabet": ("wa", {"alphabets": [[]], "alpha": ["1"],
                                 "beta": ["1"], "transitions": {}}),
    "wa-repeated-symbol": ("wa", {"alphabets": [["0", "0"]], "alpha": ["1"],
                                  "beta": ["1"], "transitions": {}}),
    "wa-key-outside-alphabet": ("wa", {"alphabets": [B], "alpha": ["1"],
                                       "beta": ["1"],
                                       "transitions": {"2": [[0, 0, "1"]]}}),
    "hmm-multichar-symbol": ("hmm", {"alphabet": ["ab", "c"], "alpha": ["1"],
                                     "matrices": {"ab": [[0, 0, "1/2"]],
                                                  "c": [[0, 0, "1/2"]]}}),
    "hmm-multichar-emission": ("hmm", {"alphabet": ["0", "11"],
                                       "alpha": ["1"], "transition": [["1"]],
                                       "emission": [["1/2", "1/2"]]}),
    # an emp payload is an object with "rows"
    "emp-payload-string": ("emp", "x"),
    "emp-payload-list": ("emp", ["01", "11"]),
    "emp-rows-string": ("emp", {"rows": "0101"}),
    # a sigmoid gain is a finite number
    "sigmoid-gain-nan": ("sigmoid", {**SIGMOID, "gain": "nan"}),
    "sigmoid-gain-bool": ("sigmoid", {**SIGMOID, "gain": True}),
    "sigmoid-gain-huge": ("sigmoid", {**SIGMOID, "gain": 10 ** 400}),
    # a bool where a feature index belongs
    "dt-bool-feature": ("dt", {"n": 2, "domain": B, "root": {
        "feature": True, "children": {"0": {"leaf": "0"}, "1": {"leaf": "1"}}}}),
    # a float or a bool where a rational belongs, in each kind of file
    "dt-bool-leaf": ("dt", {"n": 2, "domain": B, "root": {
        "feature": 1, "children": {"0": {"leaf": "0"}, "1": {"leaf": True}}}}),
    "linear-float-weight": ("linear", {"n": 2, "domain": B,
                                       "weights": {"1,0": 0.1}}),
    "rnn-float-rational": ("rnn", {**RNN, "out": [0.5]}),
    "sigmoid-bool-weight": ("sigmoid", {**SIGMOID, "weights": [True, "1"]}),
    # a string where a list of rationals belongs
    "rnn-W-strings": ("rnn", {"h_init": ["1", "0"], "W": ["12", "01"],
                              "emb": {"0": ["0", "0"], "1": ["1", "1"]},
                              "out": ["1", "1"], "domain": B}),
    "wa-alpha-string": ("wa", {"alphabets": [B], "alpha": "1", "beta": ["1"],
                               "transitions": {"1": [[0, 0, "1"]]}}),
    # a string where an entry, or the list of entries, belongs
    "wa-row-string": ("wa", {"alphabets": [B], "alpha": ["1"], "beta": ["1"],
                             "transitions": {"1": ["1"]}}),
    "wa-entries-string": ("wa", {"alphabets": [B], "alpha": ["1"],
                                 "beta": ["1"], "transitions": {"1": "001"}}),
    "sigmoid-weights-string": ("sigmoid", {**SIGMOID, "weights": "12"}),
    "ensemble-weights-string": ("ensemble", {"trees": [TREE, TREE],
                                             "weights": "12",
                                             "mode": "regression"}),
    "hmm-transition-strings": ("hmm", {"alphabet": B, "alpha": ["1"],
                                       "transition": ["1"],
                                       "emission": [["1/2", "1/2"]]}),
    "hmmvec-alpha-string": ("hmmvec", {
        "pi": [1, 2], "alpha": "1", "transitions": [[["1"]]] * 2,
        "emissions": [[["1/2", "1/2"]]] * 2, "domain": B}),
    # a string where a list of symbols belongs
    "wa-alphabet-string": ("wa", {"alphabets": ["01"], "alpha": ["1"],
                                  "beta": ["1"],
                                  "transitions": {"1": [[0, 0, "1"]]}}),
    "hmm-alphabet-string": ("hmm", {"alphabet": "01", "alpha": ["1"],
                                    "matrices": {"0": [[0, 0, "1/2"]],
                                                 "1": [[0, 0, "1/2"]]}}),
    "ind-domain-string": ("ind", {**IND, "domain": "01"}),
    "dt-domain-string": ("dt", {**TREE, "domain": "01"}),
    # keys that name no feature, symbol or label of the file
    "linear-feature-out-of-range": ("linear", {
        "n": 2, "domain": B, "weights": {"1,0": "1", "7,0": "5"}}),
    "linear-alien-symbol": ("linear", {
        "n": 2, "domain": B, "weights": {"1,0": "1", "1,z": "5"}}),
    # a linear weight key is "i,d" with i in ASCII digits, no sign and no
    # leading 0, as linear_to_json writes it, so no two keys name one pair
    **{f"linear-key-{name}": ("linear", {"n": 2, "domain": B,
                                         "weights": {"1,0": "1", key: "5"}})
       for name, key in (("repeated-pair", "01,0"), ("plus", "+1,0"),
                         ("spaces", " 2 ,1"), ("underscore", "0_2,1"),
                         ("arabic-indic", "\u0661,0"))},
    # a node is a leaf or a split, not both
    "dt-leaf-and-split": ("dt", {**TREE, "root": {**TREE["root"],
                                                  "leaf": "2"}}),
    "hmm-alien-matrix": ("hmm", {"alphabet": B, "alpha": ["1"], "matrices": {
        "0": [[0, 0, "1/2"]], "1": [[0, 0, "1/2"]], "2": [[0, 0, "7"]]}}),
    "ensemble-vote-leaf": ("ensemble", {
        "trees": [TREE, {**TREE, "root": {"feature": 2, "children": {
            "0": {"leaf": "0"}, "1": {"leaf": "5"}}}}],
        "weights": ["1", "1"], "mode": "vote"}),
}


def two_state(tag, entries):
    """A 2-state wa or hmm file whose matrix for "1" is entries; it is
    valid when they are [[0, 0, "1/2"], [1, 1, "1/2"]]."""
    if tag == "wa":
        return {"alphabets": [B], "alpha": ["1", "0"], "beta": ["1", "1"],
                "transitions": {"1": entries}}
    return {"alphabet": B, "alpha": ["1", "0"],
            "matrices": {"0": [[0, 0, "1/2"], [1, 1, "1/2"]], "1": entries}}


def zero_slot(tag, zero):
    """A two_state file that is valid when zero, the value of its entry
    (0, 1), is "0"."""
    return two_state(tag, [[0, 0, "1/2"], [0, 1, zero], [1, 1, "1/2"]])


# matrix entries that are not [row, col, value] with 0-based int indices
# below the dim (2) and each (row, col) once; the last is the dense layout
# of earlier versions
BAD_ENTRIES = {
    "row-string": [["0", 0, "1/2"], [1, 1, "1/2"]],
    "col-bool": [[0, True, "1/2"], [1, 1, "1/2"]],
    "col-float": [[0, 0.0, "1/2"], [1, 1, "1/2"]],
    "row-outside": [[2, 0, "1/2"], [1, 1, "1/2"]],
    "col-negative": [[0, -1, "1/2"], [1, 1, "1/2"]],
    "repeated": [[0, 0, "1/4"], [0, 0, "1/4"], [1, 1, "1/2"]],
    "pair": [[0, 0], [1, 1, "1/2"]],
    "quadruple": [[0, 0, "1/2", "0"], [1, 1, "1/2"]],
    "object": [{"row": 0, "col": 0, "value": "1/2"}, [1, 1, "1/2"]],
    "value-float": [[0, 0, 0.5], [1, 1, "1/2"]],
    "value-bool": [[0, 0, True], [1, 1, "1/2"]],
    "value-null": [[0, 0, None], [1, 1, "1/2"]],
    "value-int": [[0, 0, 1], [1, 1, "1/2"]],
    "dense-rows": [["1/2", "0"], ["0", "1/2"]],
}
MALFORMED.update({f"{tag}-entry-{name}": (tag, two_state(tag, entries))
                  for tag in ("wa", "hmm")
                  for name, entries in BAD_ENTRIES.items()})


# the dense layout of a dim-3 identity: each of its int rows is a valid
# [row, col, value] entry but for its value, a number, not a string
DENSE_INTS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
MALFORMED["wa-entry-dense-ints"] = ("wa", {
    "alphabets": [B], "alpha": ["1", "0", "0"], "beta": ["1", "1", "1"],
    "transitions": {"1": DENSE_INTS}})
MALFORMED["hmm-entry-dense-ints"] = ("hmm", {
    "alphabet": B, "alpha": ["1", "0", "0"],
    "matrices": {"0": [], "1": DENSE_INTS}})


# a float, a bool, null or a malformed string where a zero belongs
ZERO_SLOTS = {"float": 0.0, "bool": False, "null": None, "string": "x"}
MALFORMED.update({f"{tag}-zero-{name}": (tag, zero_slot(tag, zero))
                  for tag in ("wa", "hmm")
                  for name, zero in ZERO_SLOTS.items()})
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


# strings outside the rational grammar, p or p/q in ASCII digits with an
# optional "-" and a nonzero q: a zero denominator, an exponent that would
# build a 10^8-digit int, a decimal point, a space, an underscore, a plus
# sign, an Arabic-Indic digit and the empty string
BAD_RATIONALS = ["1/0", "1e99999999", "1.5", " 1", "1_0", "+1", "\u0661", ""]
# place -> (type tag, payload with the rational x in that place)
RATIONAL_PLACES = {
    "wa-alpha": lambda x: ("wa", {"alphabets": [B], "alpha": [x],
                                  "beta": ["1"],
                                  "transitions": {"1": [[0, 0, "1"]]}}),
    "wa-entry": lambda x: ("wa", {"alphabets": [B], "alpha": ["1"],
                                  "beta": ["1"],
                                  "transitions": {"1": [[0, 0, x]]}}),
    "hmm-entry": lambda x: ("hmm", {"alphabet": B, "alpha": ["1"],
                                    "matrices": {"0": [[0, 0, x]],
                                                 "1": [[0, 0, "1/2"]]}}),
    "dt-leaf": lambda x: ("dt", {**TREE, "root": {
        "feature": 1, "children": {"0": {"leaf": "0"}, "1": {"leaf": x}}}}),
    "nb-table": lambda x: ("nb", {"prior": {"c": "1"},
                                  "tables": [{"c": {"0": x, "1": "1/2"}},
                                             {"c": HALF}],
                                  "domain": B}),
}


@pytest.mark.parametrize("place", RATIONAL_PLACES)
@pytest.mark.parametrize("bad", BAD_RATIONALS,
                         ids=[ascii(x) for x in BAD_RATIONALS])
def test_a_malformed_rational_exits_2_at_once(capsys, tmp_path, and_model,
                                             place, bad):
    tag, payload = RATIONAL_PLACES[place](bad)
    path = write_json(tmp_path / "bad.json", {"type": tag,
                                              "payload": payload})
    if tag in MODEL_TAGS:
        sides = ["--model", path, "--variant", "baseline",
                 "--reference", "00"]
    else:
        sides = ["--model", and_model, "--variant", "interventional",
                 "--dist", path]
    start = perf_counter()
    code = cli.main(["shap", "--scope", "local", "--input", "11",
                     "--feature", "1", *sides])
    elapsed = perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert elapsed < 1


def answers_on_the_engine(capsys, tmp_path, and_model, tag, payload):
    """Whether local interventional SHAP answers on the engine with the wa
    payload as the model, or the hmm payload as the distribution."""
    path = write_json(tmp_path / "ok.json", {"type": tag, "payload": payload})
    uniform = write_json(tmp_path / "u.json", hmm_to_json(uniform_hmm(B)))
    model, dist = (path, uniform) if tag == "wa" else (and_model, path)
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "interventional",
        "--model", model, "--dist", dist, "--input", "11", "--feature", "1"])
    return code == 0 and json.loads(out)["route"] == "engine"


@pytest.mark.parametrize("tag", ["wa", "hmm"])
def test_zero_slot_files_are_valid_with_a_zero(capsys, tmp_path, and_model,
                                               tag):
    assert answers_on_the_engine(capsys, tmp_path, and_model, tag,
                                 zero_slot(tag, "0"))


@pytest.mark.parametrize("tag", ["wa", "hmm"])
def test_two_state_files_are_valid_with_good_entries(capsys, tmp_path,
                                                     and_model, tag):
    assert answers_on_the_engine(capsys, tmp_path, and_model, tag, two_state(
        tag, [[0, 0, "1/2"], [1, 1, "1" if tag == "wa" else "1/2"]]))


@pytest.mark.parametrize("name", sorted(BAD_ENTRIES))
def test_a_bad_entry_is_named(name):
    # each bad entry is the first, or equal to it
    entries = BAD_ENTRIES[name]
    with pytest.raises(ValueError) as error:
        SpMat.from_entries(2, entries)
    assert repr(entries[0]) in str(error.value)
    if name == "dense-rows":
        assert "[row, col, value] entries" in str(error.value)
        assert "convert" in str(error.value)


def test_a_dense_matrix_of_ints_is_not_read_as_entries():
    # its first row, [1, 0, 0], would be the entry (1, 0) = 0
    with pytest.raises(ValueError) as error:
        SpMat.from_entries(3, DENSE_INTS)
    assert repr(DENSE_INTS[0]) in str(error.value)
    assert "[row, col, value] entries" in str(error.value)


# type tag -> a sample object of that type
SAMPLES = {
    "wa": lambda rng: rand_wa(rng, 3, B),
    "dt": lambda rng: rand_dt(rng, 3),
    "ensemble": lambda rng: rand_ensemble(rng, 3),
    "linear": lambda rng: rand_linear(rng, 3),
    "rnn": lambda rng: wmg_to_rnnrelu(Wmg([2, 1, 1], 3)),
    "sigmoid": lambda rng: wmg_to_sigmoid(Wmg([2, 1, 1], 3), 1).model,
    "hmm": lambda rng: rand_hmm(rng, 2, B),
    "hmmvec": lambda rng: rand_hmmvec(rng, 3, 2, B, permute=True),
    "emp": lambda rng: rand_dataset(rng, 3, 4),
    "ind": lambda rng: rand_ind(rng, 3),
    "markov": lambda rng: rand_markov(rng),
    "nb": lambda rng: rand_nb(rng, 3),
}


@pytest.mark.parametrize("tag", sorted(cli.CODECS))
def test_codec_roundtrip(tmp_path, tag):
    doc = cli.encode(SAMPLES[tag](rng_for(46)))
    assert doc["type"] == tag
    path = write_json(tmp_path / f"{tag}.json", doc)
    assert cli.encode(cli._read(path, "file", (tag,))[0]) == doc


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


def test_convert_writes_a_large_chain_tree_by_its_entries(capsys, tmp_path):
    # a chain tree compiles to n + 1 states, its one nonzero leaf's trie
    # path and one done state; its file holds one entry per nonzero, at the
    # default guard setting
    n = 60
    node = DTNode(leaf=ONE)
    for k in range(n, 0, -1):
        node = DTNode(feature=k, children={"0": DTNode(leaf=ZERO), "1": node})
    tree = DecisionTree(node, n, B)
    src = write_json(tmp_path / "chain.dt.json", cli.encode(tree))
    out_path = tmp_path / "chain.wa.json"
    code, _ = run(capsys, ["convert", "--from", "dt", "--input", src,
                           "--output", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())["payload"]
    A = dt_to_wa(tree)
    assert A.dim == n + 1
    assert sum(map(len, payload["transitions"].values())) == \
        sum(m.nnz for m in A.transitions.values())
    code, out = run(capsys, [
        "shap", "--scope", "local", "--variant", "baseline",
        "--model", str(out_path), "--input", "1" * n,
        "--reference", "0" * n, "--feature", "1"])
    assert code == 0
    record = json.loads(out)
    assert (record["value"], record["route"]) == (f"1/{n}", "engine")


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


def test_convert_writes_no_rational_that_shap_cannot_read(capsys, tmp_path):
    # weight 10^3000 times leaf 10^3000 compiles to a 6,001-digit entry,
    # above the 4,300 digits int reads: shap would refuse the file, so
    # convert exits 4 and writes nothing; at 10^2000 the 4,001-digit entry
    # converts and reads back
    for exponent, code in ((3000, 4), (2000, 0)):
        big = "1" + "0" * exponent
        tree = DecisionTree(DTNode(feature=1, children={
            "0": DTNode(leaf=ZERO), "1": DTNode(leaf=big)}), 1, B)
        src = write_json(tmp_path / "e.json", {
            "type": "ensemble",
            "payload": ensemble_to_json(TreeEnsemble([tree], [big],
                                                     "regression"))})
        out = tmp_path / "e.wa.json"
        got = cli.main(["convert", "--from", "ens-r", "--input", src,
                        "--output", str(out)])
        err = capsys.readouterr().err
        assert got == code, exponent
        if code:
            assert "6001 digits" in err
            assert not out.exists()
        else:
            got, printed = run(capsys, [
                "shap", "--scope", "local", "--variant", "baseline",
                "--model", str(out), "--input", "1", "--reference", "0",
                "--feature", "1"])
            assert got == 0
            assert json.loads(printed)["value"] == "1" + "0" * 4000


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


@pytest.mark.parametrize("source", ["dt", "markov"])
def test_convert_refuses_an_empty_order(capsys, inputs, tmp_path, source):
    # "" is no order at all, neither the identity nor an absent flag
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, ["convert", "--from", source, "--input",
                           inputs[source], "--output", str(out_path),
                           "--order", ""])
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


def test_gadget_sat_with_a_tautological_clause(capsys):
    # the clause x1 or not x1 holds everywhere: its tree is the leaf 1
    # under the extra feature, and the certificate agrees (phi_b > 0)
    code, out = run(capsys, ["gadget", "--kind", "sat", "--vars", "2",
                             "--clauses", "1,-1;2"])
    assert code == 0
    bundle = json.loads(out)
    tree = bundle["model"]["payload"]["trees"][0]["root"]
    assert tree == {"feature": 3, "children": {"0": {"leaf": "0"},
                                               "1": {"leaf": "1"}}}
    assert {"satisfiable": True, "phi_b": "1/2"}.items() <= \
        bundle["certificate"].items()


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


def test_gadget_sigmoid_with_a_steep_logistic(capsys):
    # gain * z is about -9650 at the empty coalition: exp(-gain * z)
    # overflows
    code, out = run(capsys, ["gadget", "--kind", "sigmoid",
                             "--powers", "3000,2,2,0", "--quota", "1500"])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == \
        "not dummy; phi_b > eps"


@pytest.mark.parametrize("players, certified", [(14, True), (30, False)])
def test_gadget_sigmoid_with_many_players(capsys, players, certified):
    # the metadata holds no factorial of a binomial; 30 players are beyond
    # the oracle's coalition guard, so the bundle has no certificate
    code, out = run(capsys, ["gadget", "--kind", "sigmoid", "--powers",
                             ",".join(["1"] * players), "--quota", "7"])
    assert code == 0
    bundle = json.loads(out)
    assert (bundle["certificate"] is not None) == certified
    assert bundle["metadata"]["C_N"] == players * math.comb(
        players - 1, (players - 1) // 2)


@pytest.mark.parametrize("flags", [
    ["--kind", "csp", "--strings", "01,10", "--radius", "1", "--feature", "7",
     "--powers", "1"],
    ["--kind", "csp", "--strings", "01,10", "--radius", "1", "--feature", "1"],
    ["--kind", "sat", "--clauses", "1", "--vars", "1", "--quota", "1"],
    ["--kind", "sigmoid", "--powers", "1,1", "--quota", "2", "--radius", "1"],
    ["--kind", "rnn", "--powers", "1,1", "--quota", "2", "--vars", "2"],
    ["--kind", "rnn", "--powers", "1,1"],
    ["--kind", "csp", "--strings", "01"],
])
def test_gadget_reads_only_its_kinds_flags(capsys, tmp_path, flags):
    out_path = tmp_path / "bundle.json"
    code = cli.main(["gadget", *flags, "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["convert", "--from", "dt", "--input", "DT"],
    ["gadget", "--kind", "sat", "--clauses", "1", "--vars", "1"],
])
def test_unwritable_output_exits_2(capsys, inputs, tmp_path, argv):
    argv = [inputs["dt"] if a == "DT" else a for a in argv]
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        code = cli.main(argv + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: cannot write {path}")
        assert "Traceback" not in captured.err


def test_verify_passes(capsys):
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "3",
                             "--seed", "7"])
    assert code == 0
    assert "all PASS" in out
    assert "FAIL" not in out


def test_verify_makes_no_product_by_0_or_1_and_none_with_a_float(
        capsys, fraction_ops):
    # every suite, the sigmoid gadget's oracle included, computes over
    # exact rationals and makes no product that a factor of 0 or 1 decides
    for seed in range(8):
        code, out = run(capsys, ["verify", "--suite", "all", "--count", "1",
                                 "--seed", str(seed)])
        assert code == 0 and "all PASS" in out, seed
    assert fraction_ops.products > 0
    assert (fraction_ops.trivial, fraction_ops.floats) == (0, 0)


def test_verify_runs_as_a_module():
    src = str(Path(cli.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-m", "shapwa", "verify", "--suite",
                           "engine", "--count", "1", "--seed", "0"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "all PASS" in done.stdout


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_refuses_a_count_below_1(capsys, count):
    code = cli.main(["verify", "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "PASS" not in captured.out


def test_verify_deterministic(capsys):
    _, out1 = run(capsys, ["verify", "--suite", "engine", "--count", "3"])
    _, out2 = run(capsys, ["verify", "--suite", "engine", "--count", "3"])
    assert out1 == out2


def corrupt_local_baseline(monkeypatch, wrong):
    """verify's engine tuples, with local baseline's phi_i (both sides
    words) replaced by wrong(phi_i, i)."""
    from shapwa import engine
    right = engine.shap

    def shap(f, n, inner, outer, features=None):
        phis = right(f, n, inner, outer, features)
        if isinstance(inner, str) and isinstance(outer, str):
            phis = tuple(wrong(phi, i) for i, phi in enumerate(phis, 1))
        return phis

    monkeypatch.setattr(engine, "shap", shap)


def test_verify_reports_corrupted_engine(capsys, monkeypatch):
    # harness sanity: a wrong engine must be caught with a counterexample
    corrupt_local_baseline(monkeypatch, lambda phi, i: Rat(1, 7))
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "2"])
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_verify_checks_every_feature(capsys, monkeypatch):
    # an engine wrong at feature 2 only fails every instance (each has
    # n >= 2), whichever feature the instance draws
    corrupt_local_baseline(monkeypatch, lambda phi, i: phi + (i == 2))
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "8"])
    assert code == 1
    assert out.count("FAIL engine-vs-oracle instance") == 8
    assert "PASS" not in out
    assert out.count("local baseline i=2 engine=") == 8


def test_verify_names_the_route_that_answered(capsys, monkeypatch):
    # a zero route that answers 1 fails global interventional SHAP at every
    # feature, and the FAIL line names the zero route
    monkeypatch.setitem(cli.ANSWERS, "zero",
                        lambda v, f, n, inner, outer: (ONE,) * n)
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "4"])
    assert code == 1
    assert out.count("FAIL engine-vs-oracle instance") == 4
    assert out.count("global interventional i=1 zero=1 oracle=0") == 4
    assert "engine=" not in out


def test_verify_makes_one_oracle_call_per_instance(capsys, monkeypatch):
    # verify's oracle work is one shap_oracle_many call per instance, over
    # its four baseline and interventional (scope, variant) pairs in ROUTES
    # order: none for the conditional ones
    from shapwa import oracle
    right, calls = oracle.shap_oracle_many, []

    def counting(f, n, queries):
        calls.append([variant for variant, _, _ in queries])
        return right(f, n, queries)

    monkeypatch.setattr(oracle, "shap_oracle_many", counting)
    code, out = run(capsys, ["verify", "--suite", "engine", "--count", "3"])
    assert code == 0
    assert calls == [["b", "i", "b", "i"]] * 3


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
