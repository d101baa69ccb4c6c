"""Compare two sets of benchmark results.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result lines as run.py appends them to
bench/out/results.jsonl.  For every workload and metric it prints each
side's median and quartiles and the change's median as a share of the
parent's.  Results from different rational backends (gmpy2 mpq versus
the Fraction fallback) are not comparable: it refuses them with exit 2.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    backends = {r["env"]["backend"] for side in sides for r in side}
    if len(backends) != 1:
        print(f"error: refusing to compare results from different rational "
              f"backends: {sorted(backends)}", file=sys.stderr)
        return 2
    values = defaultdict(lambda: ([], []))
    for s, side in enumerate(sides):
        for r in side:
            for name, m in r["metrics"].items():
                values[(r["info"]["workload"], name, m["unit"])][s].append(
                    m["value"])
    print(f"backend {backends.pop()}")
    print(f"{'workload':13} {'metric':26} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'change/parent':>13}")
    for (workload, name, unit), (a, b) in sorted(values.items()):
        if not a or not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print(f"{workload:13} {name:26} "
              + " ".join(f"{x:10.4g}" for x in qa) + " "
              + " ".join(f"{x:10.4g}" for x in qb) + f" {ratio:13.3f}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
