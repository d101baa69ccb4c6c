"""Store the exact answers of round 0 of each default seed.

    python3 bench/record_expected.py [WORKLOAD ...]

run.py then compares every answer of those rounds with `==`.  Answers
are stored only after they pass the efficiency-axiom gate.  verify_small
stores nothing: its calls are judged by their own PASS/FAIL lines.
"""

import json
import os
import sys
import tempfile
from types import SimpleNamespace

import harness
from tracer import NullTracer
from workloads import WORKLOADS


def record(sw, workload):
    seeds = {}
    null = NullTracer()
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as workdir:
        for seed in harness.DEFAULT_SEEDS:
            state = workload.build(sw, seed, workdir, null)
            run = harness.run_rounds(workload, sw, state, null, rounds=1)
            failed, messages = harness.gate(run)
            if failed or run.errors:
                raise SystemExit("\n".join(run.errors + messages))
            seeds[str(seed)] = [[list(a) for a in r] for r in run.answers]
            print(f"{workload.name} seed {seed}: {len(run.times)} answers",
                  flush=True)
    return {"config": workload.config,
            "backend": harness.environment(sw)["backend"],
            "seeds": seeds}


def main(argv):
    names = argv or [n for n in WORKLOADS if n != "verify_small"]
    modules, _ = harness.import_shapwa()
    sw = SimpleNamespace(**modules)
    os.makedirs(harness.EXPECTED_DIR, exist_ok=True)
    for name in names:
        stored = record(sw, WORKLOADS[name]())
        path = os.path.join(harness.EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
