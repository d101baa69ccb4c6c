"""Set-up, timed rounds, traced pass, exactness gate and metrics.

run.py drives these; the self-tests call them directly with small sizes.
"""

import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from tracer import SETUP, Tracer, layer_of

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
DEFAULT_SEEDS = range(10)   # seeds with stored expected answers

REQUIRED = ("rational", "randgen", "models", "wa", "hmm", "engine", "cli")
OPTIONAL = ("builders", "frontends", "oracle", "gadgets")


def import_shapwa(fresh=False):
    """Import the package from the checkout; returns (modules, seconds).

    fresh=True first drops every loaded shapwa module, so the import runs
    again; objects built from earlier imports must not be mixed in.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "shapwa")):
        raise ImportError(f"no shapwa package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    if fresh:
        for name in [m for m in sys.modules
                     if m == "shapwa" or m.startswith("shapwa.")]:
            del sys.modules[name]
    start = perf_counter()
    mods = {m: importlib.import_module("shapwa." + m) for m in REQUIRED}
    for m in OPTIONAL:
        try:
            mods[m] = importlib.import_module("shapwa." + m)
        except ImportError:
            mods[m] = None
    return mods, perf_counter() - start


def environment(sw):
    rat = sw.rational.Rat
    files = sorted(os.listdir(os.path.dirname(sw.engine.__file__)))
    digest = hashlib.sha256()
    for name in files:
        if name.endswith(".py"):
            with open(os.path.join(os.path.dirname(sw.engine.__file__), name),
                      "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"backend": f"{rat.__module__}.{rat.__name__}",
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# running


# On a shared 2-core x86-64 VM (Python 3.11) the CPU speed switches between
# two levels about 2x apart, each held for a second to tens of seconds: one
# fixed round of 48 verify calls took 21 to 29 s in consecutive runs.  So a
# SIGALRM timer (a signal handler, not a thread) times a small fixed
# exact-rational kernel every SAMPLE_PERIOD_S of wall time, and each step's
# time is scaled by NOMINAL_KERNEL_S / (mean kernel time during the step
# and at its two ends).  Reported times are nominal seconds: seconds at the
# speed at which the kernel takes NOMINAL_KERNEL_S, that VM's uncontended
# speed.  The kernel's own time is taken out of every step and span.
SAMPLE_PERIOD_S = 0.05
NOMINAL_KERNEL_S = 0.00095


def kernel():
    """Fixed Fraction arithmetic, the kind of work a query does."""
    total = Fraction(0)
    for a in (1, 2):
        v = [Fraction(a, k + 2) for k in range(6)]
        for _ in range(3):
            v = [sum((x * Fraction(i + j + 1, i + 2) for i, x in enumerate(v)),
                     Fraction(0)) for j in range(6)]
        total += v[0]
    return total


class Sampler:
    """Times kernel() every SAMPLE_PERIOD_S while the context is open."""

    def __init__(self, tr):
        self.tr = tr
        self.starts, self.durations = [], []

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(dt)
        self.tr.pause(dt)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return False

    def measure(self, t0, t1):
        """(wall seconds, speed factor) of [t0, t1], without the kernel."""
        i = bisect_left(self.starts, t0)
        j = bisect_left(self.starts, t1)
        window = self.durations[max(i - 1, 0):j + 1]
        return (t1 - t0 - sum(self.durations[i:j]),
                NOMINAL_KERNEL_S / statistics.mean(window))


def run_rounds(workload, sw, state, tr, seconds=None, rounds=None):
    """Whole rounds: until `seconds` have passed, or exactly `rounds`.

    Per query: `times` (wall seconds) and `nominal` (nominal seconds);
    per step: `factors`.  `wall` is the pass's wall time without the kernel.
    """
    queries, answers, errors, steps = [], [], [], []
    with Sampler(tr) as sampler:
        start = perf_counter()
        k = 0
        while (k < rounds) if rounds is not None else (
                k == 0 or perf_counter() - start < seconds):
            round_queries = workload.round(sw, state, k)
            round_answers = []
            for qi, (_, query_steps) in enumerate(round_queries):
                tr.query = sum(map(len, answers)) + qi
                answer = ()
                for step in query_steps:
                    tr.step = len(steps)
                    t0 = perf_counter()
                    try:
                        answer += step(tr)
                    except Exception as e:  # a failed query is counted
                        answer = None
                        errors.append(f"round {k} query {qi}: "
                                      f"{type(e).__name__}: {e}")
                    steps.append((tr.query, t0, perf_counter()))
                    if answer is None:
                        break
                round_answers.append(answer)
            queries.append(round_queries)
            answers.append(round_answers)
            k += 1
        end = perf_counter()
    times, nominal, factors = [], [], []
    for query, t0, t1 in steps:
        wall, factor = sampler.measure(t0, t1)
        factors.append(factor)
        if query == len(times):
            times.append(0.0)
            nominal.append(0.0)
        times[query] += wall
        nominal[query] += wall * factor
    return SimpleNamespace(queries=queries, answers=answers, errors=errors,
                           times=times, nominal=nominal, factors=factors,
                           wall=sampler.measure(start, end)[0])


def traced_pass(workload, sw, seed, workdir, rounds):
    """Build and run `rounds` rounds again with every traced name wrapped."""
    tr = Tracer()
    tr.install(vars(sw))
    try:
        with Sampler(tr) as sampler:
            t0 = perf_counter()
            state = workload.build(sw, seed, workdir, tr)
            t1 = perf_counter()
        run = run_rounds(workload, sw, state, tr, rounds=rounds)
    finally:
        tr.uninstall()
    run.setup_factor = sampler.measure(t0, t1)[1]
    return tr, run


# ---------------------------------------------------------------------------
# exactness gate


def load_expected(workload, seed):
    """Stored answers for (workload, seed), or None when there are none."""
    path = os.path.join(EXPECTED_DIR, workload.name + ".json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["config"] != workload.config:
        return None
    return stored["seeds"].get(str(seed))


def gate(run, expected=None):
    """Indices (round, query) of wrong answers, with one message each."""
    failed, messages = set(), []
    for r, (queries, answers) in enumerate(zip(run.queries, run.answers)):
        stored = expected[r] if expected and r < len(expected) else None
        groups = {}
        for qi, ((group, _), answer) in enumerate(zip(queries, answers)):
            groups.setdefault(id(group), (group, []))[1].append(qi)
            if answer is None:
                failed.add((r, qi))
            elif stored is not None and (
                    [Fraction(a) for a in answer]
                    != [Fraction(a) for a in stored[qi]]):
                failed.add((r, qi))
                messages.append(f"round {r} query {qi}: got {list(answer)}, "
                                f"stored {stored[qi]}")
        for group, qis in groups.values():
            if any(answers[qi] is None for qi in qis):
                continue
            if not group.check([answers[qi] for qi in qis]):
                failed.update((r, qi) for qi in qis)
                messages.append(f"round {r}: {group.label}: answers break "
                                f"the efficiency axiom")
    return failed, messages


def mismatches(run, other):
    """Queries whose answers differ between two runs of the same rounds."""
    return {(r, qi)
            for r, (a, b) in enumerate(zip(run.answers, other.answers))
            for qi, (x, y) in enumerate(zip(a, b)) if x != y}


# ---------------------------------------------------------------------------
# metrics


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples above.

    With fewer than 11 samples no such percentile exists; the maximum is
    reported with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, setup_s, run, peak_rss_mb):
    """setup_s and the query times are nominal seconds."""
    times = run.nominal
    return {
        "setup_s": (setup_s, "s"),
        "shap_per_s": (workload.values_per_query * len(times) / sum(times),
                       "1/s"),
        "query_p50_s": (statistics.median(times), "s"),
        "query_tail_s": (tail(times)[0], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(tr, run, untraced):
    """Per-layer metrics of one traced pass, times in nominal seconds.

    Time and count metrics are per query, except the set-up layers
    (frontends, cli.convert), which are per set-up; both are one traced
    set-up's total plus the query total divided by the number of queries.
    """
    n_queries = len(run.times)
    self_time = [t * (run.setup_factor if s.step == SETUP
                      else run.factors[s.step])
                 for s, t in zip(tr.spans, tr.self_times())]
    total = defaultdict(float)     # (layer or span, field) -> setup + query/N
    peak = defaultdict(int)

    def add(key, value, span):
        total[key] += value if span.query == SETUP else value / n_queries

    for span, st in zip(tr.spans, self_time):
        layer = layer_of(span.name)
        add((layer, "time"), st, span)
        add((layer, "calls"), 1, span)
        add((layer, "dim_sum"), span.dim, span)
        add((layer, "bytes"), span.nbytes, span)
        if span.query != SETUP:
            add(("all", "time"), st, span)
        parent = tr.spans[span.parent].name if span.parent >= 0 else ""
        if layer == "oracle" and layer_of(parent) != "oracle":
            add(("oracle", "entries"), 1, span)
        key = (layer, span.kind)
        peak[key + ("dim",)] = max(peak[key + ("dim",)], span.dim)
        peak[key + ("nnz",)] = max(peak[key + ("nnz",)], span.nnz)

    m = {}
    for layer in ("wa.pi1", "wa.project", "wa.kron", "wa.contract", "wa.sub",
                  "builders", "engine.loc_i", "engine.loc_b", "engine.glo_i",
                  "engine.glo_b", "cli.load", "cli.shap", "cli.verify",
                  "oracle", "gadgets"):
        m[layer + ".time_s"] = (total[(layer, "time")], "s/query")
    for layer in ("frontends", "cli.convert"):
        m[layer + ".time_s"] = (total[(layer, "time")], "s/setup")
    m["wa.pi1.calls"] = (total[("wa.pi1", "calls")], "calls/query")
    for layer in ("wa.project", "wa.kron"):
        m[layer + ".out_dim_max"] = (peak[(layer, "wa", "dim")], "states")
        m[layer + ".out_nnz_max"] = (peak[(layer, "wa", "nnz")], "nnz")
    m["builders.calls"] = (total[("builders", "calls")], "calls/query")
    m["builders.out_dim_sum"] = (total[("builders", "dim_sum")],
                                 "states/query")
    m["frontends.wa_dim_max"] = (peak[("frontends", "wa", "dim")], "states")
    m["frontends.hmm_dim_max"] = (peak[("frontends", "hmm", "dim")], "states")
    m["cli.load.bytes"] = (total[("cli.load", "bytes")], "B/query")
    m["oracle.calls"] = (total[("oracle", "entries")], "calls/query")
    m["oracle.model_evals"] = (
        sum(s.query != SETUP for s in tr.spans
            if s.name == "oracle.eval_model") / n_queries, "evals/query")
    m["trace.overhead_frac"] = (sum(run.nominal) / sum(untraced.nominal)
                                - 1, "ratio")
    m["trace.covered_frac"] = (total[("all", "time")] * n_queries
                               / sum(run.nominal), "ratio")
    return m
