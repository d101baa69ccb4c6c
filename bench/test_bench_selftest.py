"""Self-tests of the benchmark harness, on workloads shrunk to tiny sizes.

    python3 -m pytest -q bench/test_bench_selftest.py
"""

import json
import os
import re
import sys
import types
from fractions import Fraction
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import harness  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402
from workloads import (WORKLOADS, GlobalSeq, LocalSeq,  # noqa: E402
                       TabularCli, VerifySmall)

TINY = [LocalSeq(n=3, f_dim=2, d_dim=2, per_round=1),
        GlobalSeq(n=2, f_dim=2, d_dim=2, per_round=2),
        TabularCli(n=3, trees=2, depth=2, rows=2), VerifySmall(calls=2)]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def modules():
    mods, _ = harness.import_shapwa()
    return SimpleNamespace(**mods)


def one_round(workload, seed, tmp_path, tr=None):
    sw = modules()
    tr = tr or NullTracer()
    state = workload.build(sw, seed, str(tmp_path), tr)
    run = harness.run_rounds(workload, sw, state, tr, rounds=1)
    return sw, state, run


def test_same_seed_same_digests(tmp_path):
    for workload in TINY:
        digests = []
        for k in range(2):
            (tmp_path / str(k)).mkdir(exist_ok=True)
            sw, state, run = one_round(workload, 7, tmp_path / str(k))
            assert not run.errors, run.errors
            digests.append((harness.digest(workload.digest_parts(sw, state)),
                            harness.digest(run.answers)))
        assert digests[0] == digests[1], workload.name


def test_other_seed_other_inputs(tmp_path):
    for workload in TINY[:3]:
        sw = modules()
        a = workload.build(sw, 1, str(tmp_path), NullTracer())
        b = workload.build(sw, 2, str(tmp_path), NullTracer())
        assert (harness.digest(workload.digest_parts(sw, a))
                != harness.digest(workload.digest_parts(sw, b)))


def test_metric_names_and_sets(tmp_path):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layers + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)

    workload = TINY[0]
    sw, _, run = one_round(workload, 3, tmp_path)
    got = harness.end_to_end(workload, 0.1, run, harness.peak_rss_mb())
    assert sorted(got) == sorted(e2e)
    tr, traced = harness.traced_pass(workload, sw, 3, str(tmp_path), 1)
    got = harness.per_layer(tr, traced, run)
    assert sorted(got) == sorted(layers)
    for value, unit in got.values():
        assert isinstance(value, (int, float))
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_traced_run_returns_identical_answers(tmp_path):
    for workload in TINY:
        sw, _, run = one_round(workload, 5, tmp_path)
        originals = {m: dict(vars(getattr(sw, m)))
                     for m in ("engine", "cli", "oracle")}
        tr, traced = harness.traced_pass(workload, sw, 5, str(tmp_path), 1)
        assert traced.answers == run.answers, workload.name
        assert not harness.mismatches(run, traced)
        assert tr.spans and not tr.missing
        for m, before in originals.items():   # every wrapper was removed
            assert all(vars(getattr(sw, m))[k] is v
                       for k, v in before.items()), m


def test_self_times_cover_the_spans(tmp_path):
    workload = TINY[0]
    sw, _, run = one_round(workload, 4, tmp_path)
    tr, traced = harness.traced_pass(workload, sw, 4, str(tmp_path), 1)
    self_time = tr.self_times()
    assert min(self_time) >= 0
    tops = [s for s in tr.spans if s.parent < 0]
    accounted = sum(self_time) + sum(s.paused for s in tr.spans)
    assert abs(accounted - sum(s.cover_end - s.start for s in tops)) \
        < 1e-3 + 1e-2 * sum(traced.times)


def test_gate_accepts_then_rejects_a_corrupted_answer(tmp_path):
    for workload in TINY[:3]:
        _, _, run = one_round(workload, 11, tmp_path)
        assert harness.gate(run) == (set(), [])
        stored = [[list(a) for a in r] for r in run.answers]
        assert harness.gate(run, stored) == (set(), [])

        corrupted = list(run.answers[0][0])
        corrupted[0] = str(Fraction(corrupted[0]) + Fraction(1, 10 ** 9))
        run.answers[0][0] = tuple(corrupted)
        failed, messages = harness.gate(run, stored)
        assert (0, 0) in failed, workload.name
        assert any("efficiency axiom" in m for m in messages)
        assert any("stored" in m for m in messages)


def test_gate_counts_errors_and_failed_verify_lines(tmp_path):
    workload = TINY[3]
    _, _, run = one_round(workload, 0, tmp_path)
    assert harness.gate(run) == (set(), [])
    run.answers[0][1] = ("1", "4", "1")
    run.answers[0][0] = None
    failed, _ = harness.gate(run)
    assert failed == {(0, 0), (0, 1)}


def test_missing_name_is_skipped(tmp_path):
    sw = modules()
    fake_engine = types.ModuleType("engine")
    fake_engine.loc_i_shap = sw.engine.loc_i_shap   # everything else absent
    tr = Tracer()
    tr.install({"engine": fake_engine})
    try:
        assert "wa.pi1" in tr.missing and "engine.loc_i" not in tr.missing
        assert fake_engine.loc_i_shap is not sw.engine.loc_i_shap
    finally:
        tr.uninstall()
    assert fake_engine.loc_i_shap is sw.engine.loc_i_shap


def test_tail_percentile():
    assert harness.tail([float(i) for i in range(30)]) == (19.0, 100 * 20 / 30)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    def write(path, backend):
        rec = {"env": {"backend": backend}, "info": {"workload": "local_seq"},
               "metrics": {"query_p50_s": {"value": 1.0, "unit": "s"}}}
        path.write_text(json.dumps(rec) + "\n")
        return str(path)

    a = write(tmp_path / "a.jsonl", "fractions.Fraction")
    b = write(tmp_path / "b.jsonl", "gmpy2.mpq")
    c = write(tmp_path / "c.jsonl", "fractions.Fraction")
    assert compare.main([a, b]) == 2
    assert "refusing" in capsys.readouterr().err
    assert compare.main([a, c]) == 0
