"""A seeded malformed-input corpus for the wa, hmm and hmmvec decoders.

The hmm kind comes in both of its forms: per-symbol matrices of
[row, col, value] entries, and the dense rows of <alpha, T, O>
("hmm-ato").  Each case starts from a valid file and changes one thing: a
key dropped, a value of another JSON type, a matrix index out of range, a
repeated (row, col), vector and matrix sizes that disagree, a bool,
float, null, "1/0" or "1e99999999" where a rational belongs, or an
emission row that is not a law.  `shap` must end with a documented exit
code, never a traceback, and at once.
"""

import copy
import json
from time import perf_counter

import pytest

from shapwa import cli
from shapwa.frontends import dt_to_wa, emp_to_hmmvec, hmmvec_to_hmm
from shapwa.models import to_json
from shapwa.randgen import (rand_dataset, rand_dt, rand_hmm, rand_hmmvec,
                            rand_wa, rng_for)
from shapwa.rational import Rat, format_rat, rat

B = ("0", "1")
N = 4
INPUT = "0110"
CASES_PER_MUTATION = 25
# seconds a case may take: a valid query of these sizes takes milliseconds
BOUND_S = 2.0
BAD_VALUES = (True, False, 1.5, None, "1/0", "1e99999999")
OTHER_TYPES = (None, True, 1.5, 7, "x", [], {})
# case kind -> its file's type tag
TAGS = {"wa": "wa", "hmm": "hmm", "hmm-ato": "hmm", "hmmvec": "hmmvec"}
ENTRY_KINDS = ("wa", "hmm")        # matrices of [row, col, value] entries
ROW_KINDS = ("hmm-ato", "hmmvec")  # dense rows of T and O


def bases():
    """{kind: [valid payloads]}: a compiled and a random one each, over
    {0, 1}, the compiled ones with value strings that repeat."""
    rng = rng_for(80)
    wa = [dt_to_wa(rand_dt(rng, N, B, 3)), rand_wa(rng, 3, B)]
    hmm = [hmmvec_to_hmm(emp_to_hmmvec(rand_dataset(rng, N, 3))),
           rand_hmm(rng, 2, B)]
    vec = [emp_to_hmmvec(rand_dataset(rng, N, 3)), rand_hmmvec(rng, N, 2, B)]
    return {"wa": [cli.encode(A)["payload"] for A in wa],
            "hmm": [cli.encode(D)["payload"] for D in hmm],
            "hmm-ato": [ato(v) for v in vec],
            "hmmvec": [cli.encode(v)["payload"] for v in vec]}


def ato(v):
    """The <alpha, T, O> hmm payload of an HmmVec's first position."""
    return {"alphabet": list(v.domain), "alpha": to_json(v.alpha),
            "transition": to_json(v.transitions[0]),
            "emission": to_json(v.emissions[0])}


def walk(node, path=()):
    """(path, node) of node and of everything under it."""
    yield path, node
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from walk(child, path + (key,))


def matrices(payload):
    """The entry lists of a wa or hmm payload's matrices."""
    mats = payload.get("transitions") or payload.get("matrices") or {}
    if not isinstance(mats, dict):
        return []
    return [m for m in mats.values() if isinstance(m, list)]


def emission_rows(payload):
    return payload.get("emission") or [row for m in payload["emissions"]
                                       for row in m]


def rows(payload):
    """The dense rows of T and O in an hmm-ato or hmmvec payload."""
    if "transition" in payload:
        return payload["transition"] + payload["emission"]
    if "emissions" in payload:
        return [row for m in payload["transitions"] for row in m] + \
            emission_rows(payload)
    return []


def slots(payload):
    """(container, key, repeated) of each matrix value: an entry's value or
    a dense row's cell, repeated when its matrix or row holds its string
    more than once."""
    out = []
    for m in matrices(payload):
        values = [e[2] for e in m]
        out += [(e, 2, values.count(e[2]) > 1) for e in m]
    for row in rows(payload):
        out += [(row, k, row.count(x) > 1) for k, x in enumerate(row)]
    return out


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
    if choice == 2 and "matrices" in payload:
        # a symbol whose matrix the file holds leaves the alphabet
        payload["alphabet"].remove(rng.choice(sorted(payload["matrices"])))
        return
    if choice == 2 and rows(payload):
        # a dense row loses or gains a cell
        row = rng.choice(rows(payload))
        if rng.randrange(2):
            row.pop()
        else:
            row.append(rng.choice(("0", "1")))
        return
    vec = rng.choice(vectors(payload))
    if choice == 0 and len(vec) > 1:
        vec.pop()
    else:
        vec.append(rng.choice(("0", "1")))


def bad_value(rng, payload):
    """A bad value in one matrix value, preferring one whose string its
    matrix or row repeats, or in one vector element."""
    value = rng.choice(BAD_VALUES)
    if rng.randrange(4):
        cells = slots(payload)
        container, key, _ = rng.choice([c for c in cells if c[2]] or cells)
        container[key] = value
    else:
        vec = rng.choice(vectors(payload))
        vec[rng.randrange(len(vec))] = value


def emission_not_a_law(rng, payload):
    """One emission row's values no longer sum to 1."""
    row = rng.choice(emission_rows(payload))
    k = rng.randrange(len(row))
    row[k] = format_rat(rat(row[k]) + Rat(1, rng.randint(2, 9)))


MUTATIONS = {f.__name__: f for f in (drop_key, change_type,
                                     index_out_of_range, repeat_entry,
                                     sizes_disagree, bad_value,
                                     emission_not_a_law)}
# mutation -> the kinds it fits
FITS = {"index_out_of_range": ENTRY_KINDS, "repeat_entry": ENTRY_KINDS,
        "emission_not_a_law": ROW_KINDS}
CASES = [(mutation, kind) for mutation in MUTATIONS for kind in TAGS
         if kind in FITS.get(mutation, TAGS)]
# the first seed of each kind's cases
SEEDS = {"wa": 100, "hmm": 101, "hmm-ato": 200, "hmmvec": 201}


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
    for dist_kind in ("hmm", "hmm-ato", "hmmvec"):
        for k, pair in enumerate(zip(base["wa"], base[dist_kind])):
            paths = []
            for kind, payload in zip(("wa", dist_kind), pair):
                path = tmp_path / f"{kind}{k}.json"
                path.write_text(json.dumps({"type": TAGS[kind],
                                            "payload": payload}))
                paths.append(str(path))
            assert cli.main(shap_argv(*paths, 1)) == 0, (dist_kind, k)
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mutation, kind", CASES,
                         ids=[f"{m}-{k}" for m, k in CASES])
def test_a_malformed_file_ends_with_a_documented_exit(capsys, tmp_path,
                                                      valid, kind, mutation):
    rng = rng_for(SEEDS[kind] + 2 * list(MUTATIONS).index(mutation))
    payloads = bases()[kind]
    path = tmp_path / "case.json"
    model, dist = valid
    codes = set()
    for case in range(CASES_PER_MUTATION):
        payload = copy.deepcopy(payloads[case % len(payloads)])
        MUTATIONS[mutation](rng, payload)
        path.write_text(json.dumps({"type": TAGS[kind], "payload": payload}))
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
        if mutation == "emission_not_a_law":
            assert code == 2, label
        codes.add(code)
    # every mutation breaks at least one of its files
    assert codes - {0}, codes
