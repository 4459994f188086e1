"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench/runs.jsonl`` (traced records are ignored).  Runs of one
workload are paired in file order, so record parent and change runs
alternately.  For every workload and end-to-end metric of BENCHMARK.json
the output gives both sides' medians and quartiles and a verdict:

* improved: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's quartile distance;
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: the parent's quartile distance exceeds the bound and not
  every change run beats every parent run;
* unchanged: otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec["metrics"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0       # sign * (parent - change) > 0: change better
    q1, med_p, q3 = summary(parent)
    med_c = summary(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_p - med_c) > q3 - q1:
        return "improved"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "worse"
    if q3 - q1 > bound * abs(med_p) and \
            not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s}  n     verdict")
    for workload in sorted(set(parent) | set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r[name] for r in parent.get(workload, []) if name in r]
            c = [r[name] for r in change.get(workload, []) if name in r]
            if not p or not c:
                print(f"{workload:9s} {name:12s} missing on one side")
                continue
            sp, sc = summary(p), summary(c)
            print(f"{workload:9s} {name:12s} {sp[1]:12.5g} [{sp[0]:9.5g}, {sp[2]:9.5g}] "
                  f"{sc[1]:12.5g} [{sc[0]:9.5g}, {sc[2]:9.5g}]  {len(p)}/{len(c)}  "
                  f"{verdict(p, c, metric['better'], metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
