"""Span tracer that wraps shapwa's public functions from the outside.

The tracer never edits the package.  It replaces the module-level names
that `shapwa.engine`, `shapwa.cli` and `shapwa.oracle` look up at call
time (and the function references held in those modules' top-level
dicts and tuples, such as the CLI's converter tables) with thin wrappers
that record one span per call.  `uninstall` puts every original back.

A span is (name, start, end, cover_end, parent, query, step, paused,
kind, dim, nnz, nbytes): `end`
closes the call itself; `cover_end` also covers the wrapper's own work of
measuring the returned automaton, so that neither the callee nor its
caller is charged for it.  A name missing from the package is skipped
and reports 0 calls.
"""

import json
import os
from contextlib import contextmanager, nullcontext
from time import perf_counter

# defining module -> {function: span name}
TRACED = {
    "engine": {"loc_i_shap": "engine.loc_i", "loc_b_shap": "engine.loc_b",
               "glo_i_shap": "engine.glo_i", "glo_b_shap": "engine.glo_b"},
    "builders": {f: "builders." + f for f in (
        "build_A_wi", "build_A_in", "build_T_w", "build_T_wi", "build_T",
        "build_T_i", "build_point_hmm")},
    "wa": {f: "wa." + f for f in ("project", "sub", "kron", "pi1",
                                  "contract")},
    "frontends": {f: "frontends." + f for f in (
        "dt_to_wa", "ensemble_reg_to_wa", "linear_to_wa", "emp_to_hmmvec",
        "ind_to_hmmvec", "nb_to_hmmvec", "hmmvec_to_hmm", "markov_to_hmm")},
    "cli": {"load_model": "cli.load_model", "load_dist": "cli.load_dist"},
    "oracle": {f: "oracle." + f for f in (
        "shap_oracle_local", "shap_oracle_global", "eval_model",
        "dummy_check", "csp_brute", "empty_brute")},
    "gadgets": {f: "gadgets." + f for f in (
        "wmg_to_sigmoid", "wmg_to_rnnrelu", "sat_to_ensemble", "csp_to_rnn")},
}

# modules whose module-level lookups are rebound to the wrappers
CALLERS = ("engine", "cli", "oracle")

SETUP = -1  # query and step id of spans recorded while building the inputs


def layer_of(span_name):
    """The layer a span's self time is charged to."""
    module = span_name.split(".", 1)[0]
    if module in ("wa", "engine", "cli"):
        return "cli.load" if span_name.startswith("cli.load_") else span_name
    return module


def automaton_size(obj):
    """(kind, dim, nnz) of a returned WA or HMM, else (None, 0, 0)."""
    kind = "wa"
    if not hasattr(obj, "alphabets"):
        obj, kind = getattr(obj, "wa", None), "hmm"
        if not hasattr(obj, "alphabets"):
            return None, 0, 0
    return kind, len(obj.alpha), sum(m.nnz for m in obj.transitions.values())


class Span:
    __slots__ = ("name", "start", "end", "cover_end", "parent", "query",
                 "step", "paused", "kind", "dim", "nnz", "nbytes")

    def __init__(self, name, parent, query, step):
        self.name, self.parent, self.query, self.step = name, parent, query, step
        self.paused = 0.0
        self.kind, self.dim, self.nnz, self.nbytes = None, 0, 0, 0

    def as_json(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.query = self.step = SETUP
        self.missing = []
        self._stack = []
        self._undo = []

    # -- span recording -------------------------------------------------

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1, self.query,
                    self.step)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self._stack.pop()

    def pause(self, seconds):
        """Charge time spent outside the program (the speed kernel) to no one."""
        if self._stack:
            self.spans[self._stack[-1]].paused += seconds

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around a call it makes."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            span.cover_end = span.end

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self._close(span)
                span.cover_end = span.end
            span.kind, span.dim, span.nnz = automaton_size(return_value)
            if name.startswith("cli.load_") and args:
                span.nbytes = os.path.getsize(args[0])
            span.cover_end = perf_counter()
            return return_value

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ----------------------------------------

    def install(self, modules):
        """Wrap the traced names of `modules` (name -> module or None)."""
        wrappers = {}
        for modname, funcs in TRACED.items():
            mod = modules.get(modname)
            for fname, span_name in funcs.items():
                fn = getattr(mod, fname, None) if mod is not None else None
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(fn, span_name))
                else:
                    self.missing.append(span_name)
        for modname in CALLERS:
            mod = modules.get(modname)
            if mod is None:
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                self._rebind(namespace, key, value, wrappers)
                if isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        self._rebind(value, k2, v2, wrappers)

    def _rebind(self, container, key, value, wrappers):
        if id(value) in wrappers and wrappers[id(value)][0] is value:
            new = wrappers[id(value)][1]
        elif isinstance(value, tuple) and any(
                id(x) in wrappers and wrappers[id(x)][0] is x for x in value):
            new = tuple(wrappers[id(x)][1] if id(x) in wrappers else x
                        for x in value)
        else:
            return
        self._undo.append((container, key, value))
        container[key] = new

    def uninstall(self):
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    # -- results --------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's cover
        and minus the pauses charged to it."""
        cover = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                cover[s.parent] += s.cover_end - s.start
        return [s.end - s.start - c - s.paused
                for s, c in zip(self.spans, cover)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_json()) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    query = step = SETUP

    def span(self, name):
        return nullcontext()

    def pause(self, seconds):
        pass
