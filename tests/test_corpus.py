"""A seeded malformed-input corpus for the decoders of every file kind.

The hmm kind comes in both of its forms: per-symbol matrices of
[row, col, value] entries, and the dense rows of <alpha, T, O>
("hmm-ato").  Each case starts from a valid file and changes one thing: a
key dropped, a value of another JSON type, a matrix index or a feature
out of range, a repeated (row, col), a feature repeated on a tree path or
a linear weight key that spells another key's (feature, symbol), vector
and matrix sizes that disagree, a list that loses or gains an element, or
an n or domain that no longer fits the model, a bool, float, null, "1/0"
or "1e99999999" where a rational belongs, an emission row that is not a
law, a tree node that is a leaf and a split, or a key that one object
holds twice.  `shap` for the kinds it reads and `convert` for its
sources (both for emp, ind, markov and nb) must end with a documented
exit code, never a traceback, and at once.
"""

import copy
import json
from time import perf_counter

import pytest

from shapwa import cli
from shapwa.frontends import dt_to_wa, emp_to_hmmvec, hmmvec_to_hmm
from shapwa.gadgets import csp_to_rnn, wmg_to_rnnrelu, wmg_to_sigmoid
from shapwa.models import to_json
from shapwa.randgen import (rand_csp, rand_dataset, rand_dt, rand_ensemble,
                            rand_hmm, rand_hmmvec, rand_ind, rand_linear,
                            rand_markov, rand_nb, rand_wa, rand_wmg, rng_for)
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
TAGS = {"wa": "wa", "hmm": "hmm", "hmm-ato": "hmm", "hmmvec": "hmmvec",
        "dt": "dt", "ensemble": "ensemble", "linear": "linear",
        "rnn": "rnn", "sigmoid": "sigmoid", "emp": "emp", "ind": "ind",
        "markov": "markov", "nb": "nb"}
ENTRY_KINDS = ("wa", "hmm")        # matrices of [row, col, value] entries
ROW_KINDS = ("hmm-ato", "hmmvec")  # dense rows of T and O
# kinds whose files hold their classes' fields and no matrix of entries,
# dense T or tree; a payload of one holds one of FIELD_KEYS
FIELD_KINDS = ("rnn", "sigmoid", "emp", "ind", "markov", "nb")
FIELD_KEYS = {"h_init", "bias", "rows", "marginals", "init", "prior"}
# kind -> its `convert --from` source
SOURCES = {"dt": "dt", "ensemble": "ens-r", "linear": "lin", "emp": "emp",
           "ind": "ind", "markov": "markov", "nb": "nb"}
TABULAR = ("dt", "ensemble", "linear")  # read by convert alone
MODEL_KINDS = ("wa", "rnn", "sigmoid")  # read by shap as its model
TREE_KINDS = ("dt", "ensemble")


def bases():
    """{kind: [valid payloads]}: a compiled and a random one each, over
    {0, 1}, the compiled ones with value strings that repeat."""
    rng = rng_for(80)
    wa = [dt_to_wa(rand_dt(rng, N, B, 3)), rand_wa(rng, 3, B)]
    hmm = [hmmvec_to_hmm(emp_to_hmmvec(rand_dataset(rng, N, 3))),
           rand_hmm(rng, 2, B)]
    vec = [emp_to_hmmvec(rand_dataset(rng, N, 3)), rand_hmmvec(rng, N, 2, B)]
    tab = rng_for(81)
    models = {"dt": [rand_dt(tab, N, B, 3) for _ in range(2)],
              "ensemble": [rand_ensemble(tab, N, trees) for trees in (2, 3)],
              "linear": [rand_linear(tab, N) for _ in range(2)]}
    fld = rng_for(82)
    models.update(
        rnn=[wmg_to_rnnrelu(rand_wmg(fld, N)), csp_to_rnn(rand_csp(fld, 2, N))],
        sigmoid=[wmg_to_sigmoid(rand_wmg(fld, N), i).model for i in (1, N)],
        emp=[rand_dataset(fld, N, rows) for rows in (3, 5)],
        ind=[rand_ind(fld, N) for _ in range(2)],
        markov=[rand_markov(fld) for _ in range(2)],
        nb=[rand_nb(fld, N, classes) for classes in (2, 3)])
    return {"wa": [cli.encode(A)["payload"] for A in wa],
            "hmm": [cli.encode(D)["payload"] for D in hmm],
            "hmm-ato": [ato(v) for v in vec],
            "hmmvec": [cli.encode(v)["payload"] for v in vec],
            **{kind: [cli.encode(m)["payload"] for m in ms]
               for kind, ms in models.items()}}


def ato(v):
    """The <alpha, T, O> hmm payload of an HmmVec's first position."""
    return {"alphabet": list(v.domain), "alpha": to_json(v.alpha),
            "transition": to_json(v.transitions[0]),
            "emission": to_json(v.emissions[0])}


def items(node):
    """(key, child) of each child of a JSON object or list."""
    return (node.items() if isinstance(node, dict) else
            enumerate(node) if isinstance(node, list) else ())


def walk(node, path=()):
    """(path, node) of node and of everything under it."""
    yield path, node
    for key, child in items(node):
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


def trees(payload):
    """The tree payloads of a dt or ensemble payload."""
    return payload.get("trees") or ([payload] if "root" in payload else [])


def fields_only(payload):
    """Whether payload is of one of the FIELD_KINDS."""
    return not FIELD_KEYS.isdisjoint(payload)


def tabular(payload):
    """Whether payload is a dt, ensemble or linear payload."""
    return (bool({"root", "trees", "weights"} & payload.keys())
            and not fields_only(payload))


def nodes(tree):
    """(node, features tested above it) of each node of a tree payload;
    none of a linear one."""
    stack = [(tree["root"], ())] if "root" in tree else []
    while stack:
        node, above = stack.pop()
        yield node, above
        for child in node.get("children", {}).values():
            stack.append((child, above + (node["feature"],)))


def tabular_values(payload):
    """(container, key) of each rational of a tabular model payload: a
    leaf, a tree weight, a linear weight or the intercept."""
    if not tabular(payload):
        return []
    out = [(node, "leaf") for t in trees(payload) for node, _ in nodes(t)
           if "leaf" in node]
    if isinstance(payload.get("weights"), list):
        out += [(payload["weights"], k) for k in range(len(payload["weights"]))]
    elif "weights" in payload:
        out += [(payload["weights"], k) for k in payload["weights"]]
        out.append((payload, "intercept"))
    return out


def field_values(payload):
    """(container, key) of each string of a payload of the FIELD_KINDS: a
    rational, a symbol or a dataset row."""
    if not fields_only(payload):
        return []
    return [(node, key) for _, node in walk(payload)
            for key, x in items(node) if isinstance(x, str)]


def slots(payload):
    """(container, key, repeated) of each matrix or model value: an
    entry's value, a dense row's cell, a tabular model's rational or a
    string of a FIELD_KINDS payload, repeated when its matrix, row or
    model holds its string more than once."""
    out = []
    for m in matrices(payload):
        values = [e[2] for e in m]
        out += [(e, 2, values.count(e[2]) > 1) for e in m]
    for row in rows(payload):
        out += [(row, k, row.count(x) > 1) for k, x in enumerate(row)]
    model = tabular_values(payload) + field_values(payload)
    values = [c[k] for c, k in model]
    out += [(c, k, values.count(c[k]) > 1) for c, k in model]
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


def linear_feature(rng, payload, spell):
    """Add a key "spell(i),d", for a weight key "i,d" that stays, with
    another value."""
    weights = payload["weights"]
    i, _, d = rng.choice(sorted(weights)).partition(",")
    weights[f"{spell(i)},{d}"] = rng.choice(("1/3", "-2"))


def index_out_of_range(rng, payload):
    if tabular(payload):
        # a feature outside 1..n
        bad = rng.choice((0, -1, N + 1, 10 ** 30))
        splits = [node for t in trees(payload) for node, _ in nodes(t)
                  if "feature" in node]
        if splits:
            rng.choice(splits)["feature"] = bad
        else:
            linear_feature(rng, payload, lambda i: bad)
        return
    dim = len(payload["alpha"])
    entry = rng.choice([e for m in matrices(payload) for e in m])
    entry[rng.randrange(2)] = rng.choice((dim, dim + 7, -1, 10 ** 30))


def repeat_entry(rng, payload):
    if tabular(payload):
        # a feature repeated on a tree path, or a linear (feature, symbol)
        # spelled by a second key: a leading 0, a sign, spaces, an
        # underscore or an Arabic-Indic digit
        below = [(node, above) for t in trees(payload)
                 for node, above in nodes(t) if above]
        if below:
            node, above = rng.choice(below)
            node.clear()
            node.update(feature=rng.choice(above),
                        children={d: {"leaf": "1"} for d in B})
        else:
            linear_feature(rng, payload, lambda i: rng.choice((
                "0" + i, "+" + i, f" {i} ", "0_" + i,
                chr(0x660 + int(i)))))
        return
    mat = rng.choice([m for m in matrices(payload) if m])
    i, j, x = rng.choice(mat)
    mat.insert(rng.randrange(len(mat) + 1), [i, j, rng.choice((x, "1/3"))])


def sizes_disagree(rng, payload):
    if fields_only(payload):
        # a list loses or gains an element: a vector, a row of W, the
        # weights, the domain, the dataset rows, the marginals or tables
        vec = rng.choice([node for path, node in walk(payload)
                          if path and isinstance(node, list)])
        if rng.randrange(2) and len(vec) > 1:
            vec.pop()
        else:
            vec.append(rng.choice(("0", "1")))
        return
    if tabular(payload):
        # the domain loses a symbol the model reads, or n falls below a
        # feature it reads
        target = rng.choice(trees(payload) or [payload])
        if rng.randrange(2):
            target["domain"].pop(rng.randrange(len(target["domain"])))
        else:
            read = [node["feature"] for node, _ in nodes(target)
                    if "feature" in node] or [
                        int(key.partition(",")[0]) for key in target["weights"]]
            target["n"] = max(read) - 1
        return
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
    """A bad value in one matrix or model value, preferring one whose
    string its matrix, row or model repeats, or in one vector element."""
    value = rng.choice(BAD_VALUES)
    if rng.randrange(4) or not vectors(payload):
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


def leaf_and_split(rng, payload):
    """A tree node holds a leaf and a feature or children."""
    node = rng.choice([node for t in trees(payload) for node, _ in nodes(t)])
    if "leaf" in node:
        key = rng.choice(("feature", "children"))
        node[key] = 1 if key == "feature" else {d: {"leaf": "1"} for d in B}
    else:
        node["leaf"] = rng.choice(("0", "2", "-1/3"))


# a key no payload holds, which repeat_key writes as the key it repeats
MARK = "\x00repeated"


def repeat_key(rng, payload):
    """The payload's JSON text, in which one object holds one of its keys a
    second time, last, with that key's value or another key's.  A dict
    cannot hold a key twice, so MARK stands in for the second one until
    the text is written."""
    node = rng.choice([node for _, node in walk(payload)
                       if isinstance(node, dict) and node])
    key, source = (rng.choice(sorted(node)) for _ in range(2))
    node[MARK] = copy.deepcopy(node[source])
    return json.dumps(payload).replace(json.dumps(MARK), json.dumps(key))


# mutation(rng, payload) changes the payload, or returns the JSON text of
# a change that a payload cannot hold
MUTATIONS = {f.__name__: f for f in (drop_key, change_type,
                                     index_out_of_range, repeat_entry,
                                     sizes_disagree, bad_value,
                                     emission_not_a_law, leaf_and_split,
                                     repeat_key)}
# mutation -> the kinds it fits
FITS = {"index_out_of_range": ENTRY_KINDS + TABULAR,
        "repeat_entry": ENTRY_KINDS + TABULAR,
        "emission_not_a_law": ROW_KINDS, "leaf_and_split": TREE_KINDS}
# mutation -> the kinds where every case it makes exits 2
REFUSED = {"emission_not_a_law": ROW_KINDS,
           "index_out_of_range": TABULAR,
           "repeat_entry": TABULAR, "sizes_disagree": TABULAR,
           "leaf_and_split": TREE_KINDS, "repeat_key": tuple(TAGS)}
CASES = [(mutation, kind) for mutation in MUTATIONS for kind in TAGS
         if kind in FITS.get(mutation, TAGS)]
# the first seed of each kind's cases
SEEDS = {"wa": 100, "hmm": 101, "hmm-ato": 200, "hmmvec": 201, "dt": 300,
         "ensemble": 301, "linear": 400, "rnn": 500, "sigmoid": 501,
         "emp": 600, "ind": 601, "markov": 700, "nb": 701}


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


def convert_argv(kind, path, out):
    return ["convert", "--from", SOURCES[kind], "--input", str(path),
            "--output", str(out)]


def commands(kind, path, valid, feature, out):
    """The argv of each command that reads a file of this kind: shap for
    a model (with the valid distribution) or a distribution (with the
    valid model), and convert for a convert source."""
    model, dist = valid
    argvs = []
    if kind in MODEL_KINDS:
        argvs.append(shap_argv(path, dist, feature))
    elif kind not in TABULAR:
        argvs.append(shap_argv(model, path, feature))
    if kind in SOURCES:
        argvs.append(convert_argv(kind, path, out))
    return argvs


def test_the_corpus_starts_from_valid_files(capsys, tmp_path, valid):
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
    for kind in TABULAR + FIELD_KINDS:
        for k, payload in enumerate(base[kind]):
            path = tmp_path / f"{kind}{k}.json"
            path.write_text(json.dumps({"type": kind, "payload": payload}))
            for argv in commands(kind, str(path), valid, 1,
                                 tmp_path / "out.json"):
                assert cli.main(argv) == 0, (kind, k, argv[0])
                assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mutation, kind", CASES,
                         ids=[f"{m}-{k}" for m, k in CASES])
def test_a_malformed_file_ends_with_a_documented_exit(capsys, tmp_path,
                                                      valid, kind, mutation):
    rng = rng_for(SEEDS[kind] + 2 * list(MUTATIONS).index(mutation))
    payloads = bases()[kind]
    path = tmp_path / "case.json"
    codes = set()
    for case in range(CASES_PER_MUTATION):
        payload = copy.deepcopy(payloads[case % len(payloads)])
        text = MUTATIONS[mutation](rng, payload) or json.dumps(payload)
        path.write_text(f'{{"type": "{TAGS[kind]}", "payload": {text}}}')
        for argv in commands(kind, str(path), valid, 1 + case % N,
                             tmp_path / "out.json"):
            label = (case, argv[0], text[:300])
            start = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as e:  # what a process prints as a traceback
                pytest.fail(f"{label}: {type(e).__name__}: {e}")
            took = perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), label
            assert "Traceback" not in err, label
            assert took < BOUND_S, label
            if kind in REFUSED.get(mutation, ()):
                assert code == 2, label
            codes.add(code)
    # every mutation breaks at least one of its files
    assert codes - {0}, codes
