"""shapwa benchmark: one seeded workload, measured from outside the package.

    python3 bench/run.py --workload local_seq --seed 0 --seconds 8 --trace 0

Run from anywhere inside a checkout; it imports shapwa from the
checkout's src/.  A run sets the workload up several times (median
reported), then runs whole rounds of queries until --seconds have
passed, then checks every answer exactly.  --trace 1 repeats the same
rounds with every traced name wrapped and reports per-layer metrics
instead of end-to-end ones.  The last stdout line is the result JSON;
the exit code is 0 only if every answer was right.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import harness
from tracer import NullTracer
from workloads import WORKLOADS

SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cfg = p.parse_args(argv)
    if cfg.seconds < 1:
        p.error("--seconds must be positive")
    return cfg


def main(argv=None):
    cfg = parse_args(argv)
    try:
        modules, import_s = harness.import_shapwa()
    except ImportError as e:
        print(f"error: cannot import shapwa: {e}", file=sys.stderr)
        return 2
    sw = SimpleNamespace(**modules)
    workload = WORKLOADS[cfg.workload]()
    env = harness.environment(sw)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    workdir = os.path.join(harness.OUT_DIR,
                           f"work-{workload.name}-{cfg.seed}-{os.getpid()}")
    try:
        return measure(cfg, sw, workload, env, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cfg, sw, workload, env, import_s, workdir):
    untraced_dir, traced_dir = (os.path.join(workdir, d) for d in "ut")
    os.makedirs(untraced_dir)
    os.makedirs(traced_dir)
    null = NullTracer()
    setup_s, build_s = [], []
    with harness.Sampler(null) as sampler:
        for rep in range(SETUP_REPEATS):
            t0 = perf_counter()
            if rep:
                modules, _ = harness.import_shapwa(fresh=True)
                sw = SimpleNamespace(**modules)
            t1 = perf_counter()
            state = workload.build(sw, cfg.seed, untraced_dir, null)
            t2 = perf_counter()
            build_s.append(t2 - t1)
            wall, factor = sampler.measure(t0, t2)
            setup_s.append((wall + (0 if rep else import_s)) * factor)
    setup_s = statistics.median(setup_s)

    run = harness.run_rounds(workload, sw, state, null, seconds=cfg.seconds)
    rss = harness.peak_rss_mb()
    failed, messages = harness.gate(run, harness.load_expected(workload,
                                                               cfg.seed))
    n_rounds = len(run.queries)
    info = {"workload": workload.name, "seed": cfg.seed, "trace": cfg.trace,
            "rounds": n_rounds, "queries": len(run.times),
            "wall_s": run.wall,
            "query_p50_wall_s": statistics.median(run.times),
            "speed_factor_p50": statistics.median(run.factors),
            "import_s": import_s, "build_s": build_s,
            "tail_percentile": harness.tail(run.times)[1],
            "inputs_sha256": harness.digest(workload.digest_parts(sw, state)),
            "answers_sha256": harness.digest(run.answers)}

    if cfg.trace:
        tr, traced = harness.traced_pass(workload, sw, cfg.seed, traced_dir,
                                         n_rounds)
        diff = harness.mismatches(run, traced)
        failed |= diff
        messages += [f"round {r} query {q}: traced answer differs"
                     for r, q in sorted(diff)]
        metrics = harness.per_layer(tr, traced, run)
        info["missing_names"] = tr.missing
        info["spans"] = len(tr.spans)
        tr.write(os.path.join(harness.OUT_DIR,
                              f"spans-{workload.name}-{cfg.seed}.jsonl"))
    else:
        metrics = harness.end_to_end(workload, setup_s, run, rss)

    attempted = len(run.times)
    info["failed_frac"] = len(failed) / attempted
    info["errors"] = run.errors + messages
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(harness.OUT_DIR, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "info": info, **result}) + "\n")
    for line in info["errors"]:
        print("FAIL", line)
    print("env", json.dumps(env, sort_keys=True))
    print("info", json.dumps({k: v for k, v in info.items() if k != "errors"},
                             sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
