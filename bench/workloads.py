"""The benchmark's seeded workloads.

A workload builds its inputs from a seed (the set-up a user pays for) and
then yields rounds of queries.  Every query answers one feature, so one
round holds all features of its inputs and the efficiency axiom can check
the round's answers exactly.  Round k always has the same inputs for the
same seed.

A query is a group and a tuple of steps.  A step is one call into
shapwa: a callable taking the tracer and returning a tuple of canonical
"p/q" strings; the query's answer is its steps' tuples joined.  The
group's `check` receives the answers of all its queries.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from reference import (exact, tabular_expectation, wa_expectation,
                       wa_value)

BINARY = ("0", "1")


def canon(x):
    return str(exact(x))


class SumGroup:
    """Queries whose answers, slot by slot, must sum to `expected()`."""

    def __init__(self, label, expected):
        self.label = label
        self._expected = expected

    def check(self, answers):
        want = self._expected()
        got = [sum((Fraction(a[slot]) for a in answers), Fraction(0))
               for slot in range(len(want))]
        return got == list(want)


class VerifyGroup:
    """One `shapwa verify` call, judged by its own PASS/FAIL lines."""

    def __init__(self, label, checks):
        self.label = label
        self.checks = checks

    def check(self, answers):
        (rc, passed, failed), = answers
        return (rc, passed, failed) == ("0", str(self.checks), "0")


def run_cli(sw, tr, span, argv):
    """shapwa.cli.main(argv) in-process; returns stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with tr.span(span), redirect_stdout(out), redirect_stderr(err):
        rc = sw.cli.main(argv)
    if rc:
        raise RuntimeError(f"shapwa {' '.join(argv)} exited {rc}: "
                           f"{err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """Base: sizes live in `config`; subclasses define build and round."""

    name = ""
    values_per_query = 2   # SHAP values one query completes

    def __init__(self, **sizes):
        unknown = set(sizes) - set(self.config)
        if unknown:
            raise TypeError(f"unknown sizes {sorted(unknown)}")
        self.config = {**self.config, **sizes}

    def __getattr__(self, key):
        try:
            return self.__dict__["config"][key]
        except KeyError:
            raise AttributeError(key) from None


class State:
    def __init__(self, **kw):
        self.__dict__.update(kw)
        self.inputs = []


# ---------------------------------------------------------------------------


class WaHmmWorkload(Workload):
    """Rounds of `per_round` fresh (dense WA, HMM, words) instances."""

    def build(self, sw, seed, workdir, tr):
        st = State(rng=sw.randgen.rng_for(seed))
        self.round_inputs(sw, st, 0)
        return st

    def round_inputs(self, sw, st, k):
        rg = sw.randgen
        while len(st.inputs) <= k:
            st.inputs.append([
                (rg.rand_wa(st.rng, self.f_dim, BINARY, density=1.0),
                 rg.rand_hmm(st.rng, self.d_dim, BINARY),
                 *(rg.rand_word(st.rng, BINARY, self.n)
                   for _ in range(self.words)))
                for _ in range(self.per_round)])
        return st.inputs[k]

    def round(self, sw, st, k):
        return [(group, steps)
                for inst in self.round_inputs(sw, st, k)
                for group, steps in self.instance_queries(sw, *inst)]

    def digest_parts(self, sw, st):
        return [[sw.wa.wa_to_json(f), sw.hmm.hmm_to_json(d), *words]
                for inputs in st.inputs for f, d, *words in inputs]


class LocalSeq(WaHmmWorkload):
    """The headline query; its time is in wa.pi1 and wa.project."""

    name = "local_seq"
    config = {"n": 12, "f_dim": 5, "d_dim": 3, "per_round": 2}
    words = 2   # the input and the baseline reference

    def instance_queries(self, sw, f, dist, w, ref):
        n = self.n

        def expected():
            fw = wa_value(f, w)
            return fw - wa_expectation(f, dist, n), fw - wa_value(f, ref)

        def query(i):
            return (lambda tr: (canon(sw.engine.loc_i_shap(f, w, i, dist)),),
                    lambda tr: (canon(sw.engine.loc_b_shap(f, w, i, ref)),))

        group = SumGroup(f"w={w} ref={ref}", expected)
        return [(group, query(i)) for i in range(1, n + 1)]


class GlobalSeq(WaHmmWorkload):
    """wa.kron materialises a large product, wa.contract replaces pi1."""

    name = "global_seq"
    config = {"n": 5, "f_dim": 5, "d_dim": 3, "per_round": 2}
    words = 1   # the baseline reference

    def instance_queries(self, sw, f, dist, ref):
        n = self.n

        def expected():
            return Fraction(0), wa_expectation(f, dist, n) - wa_value(f, ref)

        def query(i):
            return (lambda tr: (canon(sw.engine.glo_i_shap(f, i, n, dist)),),
                    lambda tr: (canon(sw.engine.glo_b_shap(f, i, n, ref,
                                                           dist)),))

        group = SumGroup(f"ref={ref}", expected)
        return [(group, query(i)) for i in range(1, n + 1)]


# Random shapes would make compiled sizes, and so query times, swing
# threefold between seeds; these draws fix the shape and keep the values.


def full_tree(rg, rng, n, depth):
    """A random tree whose every leaf sits at `depth`."""
    while True:
        tree = rg.rand_dt(rng, n, BINARY, depth)
        if all(len(path) == depth for path, _ in tree.leaves()):
            return tree


def spread_dataset(rg, rng, n, rows):
    """Random rows that part ways as early as they can (rows <= 2^n)."""
    split = max(1, (rows - 1).bit_length())
    while True:
        data = rg.rand_dataset(rng, n, rows, BINARY)
        if len({row[:split] for row in data.rows}) == rows:
            return data


class TabularCli(Workload):
    """Compiled tabular models through the frontends and the CLI codecs."""

    name = "tabular_cli"
    config = {"n": 6, "depth": 3, "trees": 3, "tree_depth": 2, "classes": 2,
              "rows": 4}
    # Each model meets one distribution.  The pairs' query costs differ up
    # to threefold, so queries interleave them: every round has one mix.
    combos = (("dt", "nb"), ("ens-r", "ind"), ("lin", "emp"))

    def build(self, sw, seed, workdir, tr):
        rg, md = sw.randgen, sw.models
        rng = rg.rng_for(seed)
        n = self.n
        trees = [full_tree(rg, rng, n, self.tree_depth)
                 for _ in range(self.trees)]
        raw = {
            "dt": full_tree(rg, rng, n, self.depth),
            "ens-r": md.TreeEnsemble(trees, [rg.rand_rat(rng, -2, 2)
                                             for _ in trees], "regression"),
            "lin": rg.rand_linear(rng, n, BINARY),
            "nb": rg.rand_nb(rng, n, self.classes, BINARY),
            "ind": rg.rand_ind(rng, n, BINARY),
            "emp": spread_dataset(rg, rng, n, self.rows),
        }
        codecs = {"dt": md.dt_to_json, "ens-r": md.ensemble_to_json,
                  "lin": md.linear_to_json, "nb": md.nb_to_json,
                  "ind": md.ind_to_json, "emp": md.dataset_to_json}
        files = {}
        for src, obj in raw.items():
            src_path = os.path.join(workdir, f"raw-{src}.json")
            with open(src_path, "w", encoding="utf-8") as fh:
                json.dump(codecs[src](obj), fh)
            files[src] = os.path.join(workdir, f"compiled-{src}.json")
            run_cli(sw, tr, "cli.convert", ["convert", "--from", src, "--input",
                                            src_path, "--output", files[src]])
        st = State(rng=rng, raw=raw, files=files)
        self.round_inputs(sw, st, 0)
        return st

    def round_inputs(self, sw, st, k):
        while len(st.inputs) <= k:
            st.inputs.append([tuple(sw.randgen.rand_word(st.rng, BINARY, self.n)
                                    for _ in range(2)) for _ in self.combos])
        return st.inputs[k]

    def round(self, sw, st, k):
        n = self.n
        groups = []
        for (m, d), (x, ref) in zip(self.combos, self.round_inputs(sw, st, k)):
            model, dist = st.raw[m], st.raw[d]

            def expected(model=model, dist=dist, x=x, ref=ref):
                fx = exact(model.evaluate(x))
                return (fx - tabular_expectation(model, dist, BINARY, n),
                        fx - exact(model.evaluate(ref)))

            groups.append((SumGroup(f"{m} under {d}, x={x} ref={ref}",
                                    expected), m, d, x, ref))

        def query(m, d, x, ref, i):
            common = ["shap", "--scope", "local", "--model", st.files[m],
                      "--feature", str(i), "--input", x]

            def shap(variant):
                argv = common + variant
                return lambda tr: (canon(json.loads(
                    run_cli(sw, tr, "cli.shap", argv))["value"]),)

            return (shap(["--variant", "interventional", "--dist",
                          st.files[d]]),
                    shap(["--variant", "baseline", "--reference", ref]))

        return [(g, query(m, d, x, ref, i))
                for i in range(1, n + 1) for g, m, d, x, ref in groups]

    def digest_parts(self, sw, st):
        parts = []
        for path in sorted(st.files.values()):
            with open(path, encoding="utf-8") as fh:
                parts.append(fh.read())
        return parts + [st.inputs]


class VerifySmall(Workload):
    """Tiny unrelated instances: oracle, gadgets and per-call overhead."""

    name = "verify_small"
    # one call runs the engine suite (4 engine and 4 oracle values) and one
    # instance of each gadget (3 oracle values): 11 SHAP values, 5 checks
    values_per_query = 11
    checks = 5
    # A call costs 0.04 to 3.5 s depending on its seed, so a run of seeds
    # drawn afresh would swing its median by half; every run instead calls
    # the same list, in an order drawn from the workload seed.
    config = {"calls": 32}

    def build(self, sw, seed, workdir, tr):
        order = list(range(self.calls))
        sw.randgen.rng_for(seed).shuffle(order)
        return State(order=order)

    def round(self, sw, st, k):
        def query(s):
            def call(tr):
                out = io.StringIO()
                with tr.span("cli.verify"), redirect_stdout(out):
                    rc = sw.cli.main(["verify", "--suite", "all", "--count",
                                      "1", "--seed", str(s)])
                lines = out.getvalue().splitlines()
                return (str(rc),
                        str(sum(ln.startswith("PASS ") for ln in lines)),
                        str(sum(ln.startswith("FAIL ") for ln in lines)))
            return (call,)

        return [(VerifyGroup(f"verify seed {s}", self.checks), query(s))
                for s in st.order]

    def digest_parts(self, sw, st):
        return [st.order]


WORKLOADS = {w.name: w for w in (LocalSeq, GlobalSeq, TabularCli, VerifySmall)}
