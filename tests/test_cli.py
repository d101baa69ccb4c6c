import json

import pytest

from shapwa import cli
from shapwa.gadgets import wmg_to_rnnrelu
from shapwa.hmm import hmm_to_json, uniform_hmm
from shapwa.linalg import SpMat
from shapwa.models import (DecisionTree, DTNode, IndDist, TreeEnsemble,
                           dt_to_json, ensemble_to_json, hmmvec_to_json,
                           ind_to_json, markov_to_json)
from shapwa.oracle import Wmg
from shapwa.randgen import rand_hmmvec, rand_markov, rng_for
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
    assert json.loads(out)["route"] == route


@pytest.mark.parametrize("scope", ["local", "global"])
def test_shap_reference_errors(capsys, inputs, scope):
    argv = ["shap", "--scope", scope, "--variant", "baseline",
            "--model", inputs["wa"], "--feature", "1", "--dist", inputs["hmm"]]
    argv += ["--input", "11"] if scope == "local" else ["--length", "2"]
    assert run(capsys, argv)[0] == 2                          # missing
    assert run(capsys, argv + ["--reference", "000"])[0] == 3  # wrong length


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
    for content in (b"{not json", b"\xff\xfe{"):
        bad.write_bytes(content)
        code, _ = run(capsys, [
            "shap", "--scope", "local", "--variant", "baseline",
            "--model", str(bad), "--input", "1", "--reference", "0",
            "--feature", "1"])
        assert code == 2


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


def test_convert_determinism(capsys, tmp_path):
    src = write_json(tmp_path / "d.json",
                     {"type": "emp", "payload": {"rows": ["01", "11"]}})
    outs = []
    for name in ("a.json", "b.json"):
        run(capsys, ["convert", "--from", "emp", "--input", src,
                     "--to", "hmm", "--output", str(tmp_path / name)])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_gadget_certificate(capsys):
    code, out = run(capsys, ["gadget", "--kind", "sigmoid",
                             "--powers", "1,1", "--quota", "2",
                             "--feature", "1"])
    assert code == 0
    bundle = json.loads(out)
    cert = bundle["certificate"]
    assert cert["dummy"] is False
    assert cert["verdict"] == "not dummy; phi_b > eps"
    assert bundle["metadata"]["C_N"] == 2


def test_gadget_sat_bundle(capsys):
    code, out = run(capsys, ["gadget", "--kind", "sat",
                             "--clauses", "1,-2;2", "--vars", "2"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["satisfiable"] is True
    from shapwa.rational import parse_rat
    assert parse_rat(cert["phi_b"]) > 0


def test_gadget_csp_bundle(capsys):
    code, out = run(capsys, ["gadget", "--kind", "csp",
                             "--strings", "00,11", "--radius", "0"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["witness"] is None
    assert cert["empty"] is True


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
