"""A seeded malformed-input corpus for the wa and hmm decoders.

Each case starts from a valid file and changes one thing: a key dropped,
a value of another JSON type, a matrix index out of range, a repeated
(row, col), vector and matrix sizes that disagree, or a bool, float,
null, "1/0" or "1e99999999" where a rational belongs.  `shap` must end
with a documented exit code, never a traceback, and at once.
"""

import copy
import json
from time import perf_counter

import pytest

from shapwa import cli
from shapwa.frontends import dt_to_wa, emp_to_hmmvec, hmmvec_to_hmm
from shapwa.randgen import (rand_dataset, rand_dt, rand_hmm, rand_wa,
                            rng_for)

B = ("0", "1")
N = 4
INPUT = "0110"
CASES_PER_MUTATION = 25
# seconds a case may take: a valid query of these sizes takes milliseconds
BOUND_S = 2.0
BAD_VALUES = (True, False, 1.5, None, "1/0", "1e99999999")
OTHER_TYPES = (None, True, 1.5, 7, "x", [], {})


def bases():
    """{kind: [valid payloads]}: a compiled and a random automaton each,
    over {0, 1}, the compiled ones with value strings that repeat."""
    rng = rng_for(80)
    wa = [dt_to_wa(rand_dt(rng, N, B, 3)), rand_wa(rng, 3, B)]
    hmm = [hmmvec_to_hmm(emp_to_hmmvec(rand_dataset(rng, N, 3))),
           rand_hmm(rng, 2, B)]
    return {"wa": [cli.encode(A)["payload"] for A in wa],
            "hmm": [cli.encode(D)["payload"] for D in hmm]}


def walk(node, path=()):
    """(path, node) of node and of everything under it."""
    yield path, node
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from walk(child, path + (key,))


def matrices(payload):
    """The entry lists of a payload's matrices."""
    mats = payload.get("transitions") or payload.get("matrices") or {}
    return [m for m in mats.values() if isinstance(m, list)]


def vectors(payload):
    return [payload[k] for k in ("alpha", "beta") if k in payload]


def drop_key(rng, payload):
    objects = [node for _, node in walk(payload)
               if isinstance(node, dict) and node]
    node = rng.choice(objects)
    del node[rng.choice(sorted(node))]


def change_type(rng, payload):
    path = rng.choice([path for path, _ in walk(payload) if path])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = rng.choice([x for x in OTHER_TYPES
                                   if type(x) is not type(old)])


def index_out_of_range(rng, payload):
    dim = len(payload["alpha"])
    entry = rng.choice([e for m in matrices(payload) for e in m])
    entry[rng.randrange(2)] = rng.choice((dim, dim + 7, -1, 10 ** 30))


def repeat_entry(rng, payload):
    mat = rng.choice([m for m in matrices(payload) if m])
    i, j, x = rng.choice(mat)
    mat.insert(rng.randrange(len(mat) + 1), [i, j, rng.choice((x, "1/3"))])


def sizes_disagree(rng, payload):
    choice = rng.randrange(3)
    if choice == 2 and "alphabet" in payload:
        # a symbol whose matrix the file holds leaves the alphabet
        payload["alphabet"].remove(rng.choice(sorted(payload["matrices"])))
        return
    vec = rng.choice(vectors(payload))
    if choice == 0 and len(vec) > 1:
        vec.pop()
    else:
        vec.append(rng.choice(("0", "1")))


def bad_value(rng, payload):
    """A bad value in one entry, preferring one whose value string other
    entries of its matrix repeat, or in one vector element."""
    value = rng.choice(BAD_VALUES)
    if rng.randrange(4):
        entries = [e for m in matrices(payload) for e in m]
        repeated = [e for m in matrices(payload) for e in m
                    if sum(x == e[2] for _, _, x in m) > 1]
        rng.choice(repeated or entries)[2] = value
    else:
        vec = rng.choice(vectors(payload))
        vec[rng.randrange(len(vec))] = value


MUTATIONS = {f.__name__: f for f in (drop_key, change_type,
                                     index_out_of_range, repeat_entry,
                                     sizes_disagree, bad_value)}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(model path, distribution path) of valid files that each case's
    other side comes from."""
    base = bases()
    paths = []
    for kind in ("wa", "hmm"):
        path = tmp_path_factory.mktemp("valid") / f"{kind}.json"
        path.write_text(json.dumps({"type": kind, "payload": base[kind][0]}))
        paths.append(str(path))
    return paths


def shap_argv(model, dist, feature):
    return ["shap", "--scope", "local", "--variant", "interventional",
            "--model", model, "--dist", dist, "--input", INPUT,
            "--feature", str(feature)]


def test_the_corpus_starts_from_valid_files(capsys, tmp_path):
    base = bases()
    for k, (wa, hmm) in enumerate(zip(base["wa"], base["hmm"])):
        paths = []
        for kind, payload in (("wa", wa), ("hmm", hmm)):
            path = tmp_path / f"{kind}{k}.json"
            path.write_text(json.dumps({"type": kind, "payload": payload}))
            paths.append(str(path))
        assert cli.main(shap_argv(*paths, 1)) == 0, k
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", ("wa", "hmm"))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_a_malformed_file_ends_with_a_documented_exit(capsys, tmp_path,
                                                      valid, kind, mutation):
    rng = rng_for(100 + 2 * list(MUTATIONS).index(mutation) + (kind == "hmm"))
    payloads = bases()[kind]
    path = tmp_path / "case.json"
    model, dist = valid
    codes = set()
    for case in range(CASES_PER_MUTATION):
        payload = copy.deepcopy(payloads[case % len(payloads)])
        MUTATIONS[mutation](rng, payload)
        path.write_text(json.dumps({"type": kind, "payload": payload}))
        if kind == "wa":
            model = str(path)
        else:
            dist = str(path)
        label = (case, json.dumps(payload)[:300])
        start = perf_counter()
        try:
            code = cli.main(shap_argv(model, dist, 1 + case % N))
        except Exception as e:  # what a process would print as a traceback
            pytest.fail(f"{label}: {type(e).__name__}: {e}")
        took = perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), label
        assert "Traceback" not in err, label
        assert took < BOUND_S, label
        codes.add(code)
    # every mutation breaks at least one of its files
    assert codes - {0}, codes
