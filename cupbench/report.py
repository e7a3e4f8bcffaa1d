#!/usr/bin/env python3
"""Steadiness report for two sets of benchmark runs.

    python3 cupbench/report.py SET_A SET_B

Each set is a directory of files holding the standard output of
`python3 cupbench/run.py ...` (one run per file).  For every
(workload, end-to-end metric) it prints each set's median and quartiles,
the spread (interquartile distance as a share of the median), and whether
the two sets agree within the metric's bound from BENCHMARK.json: each
set's spread within the bound, and the two medians apart by at most the
bound (as a share of set A's median), in either direction.  Exits 1 if
any pair disagrees.
With one set it prints the first half of the table only.
"""

import json
import os
import re
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")


def load_set(directory):
    """{workload: {metric: [values]}} from every run output in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            text = f.read()
        m = re.search(r"^workload (\S+) seed", text, re.M)
        lines = [l for l in text.splitlines() if l.startswith("{")]
        if not m or not lines:
            continue
        result = json.loads(lines[-1])
        per = runs.setdefault(m.group(1), {})
        for metric, v in result["metrics"].items():
            per.setdefault(metric, []).append(float(v["value"]))
        per.setdefault("_correct", []).append(1.0 if result["correct"] else 0.0)
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    sets = [load_set(d) for d in sys.argv[1:]]
    ok = True
    print(f"{'workload':<13} {'metric':<24} {'set':<3} {'n':>2} {'q1':>11} "
          f"{'median':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set().union(*sets)):
        for metric, m in spec.items():
            meds = []
            verdicts = []
            for label, runs in zip("AB", sets):
                values = runs.get(workload, {}).get(metric, [])
                q1, med, q3, spread = summary(values)
                meds.append(med)
                steady = bool(values) and spread <= m["bound"]
                verdicts.append(steady)
                print(f"{workload:<13} {metric:<24} {label:<3} {len(values):>2} "
                      f"{q1:>11.5g} {med:>11.5g} {q3:>11.5g} {spread:>7.3f} "
                      f"{m['bound']:>6.2f}  {'steady' if steady else 'SPREAD OVER BOUND' if values else 'MISSING'}")
            agree = all(verdicts)
            if len(meds) == 2:
                a, b = meds
                apart = (b - a) / a
                within = abs(apart) <= m["bound"]
                agree = agree and within
                print(f"{'':<13} {'':<24} B vs A median {apart:+.3f} "
                      f"{'(within bound)' if within else '(APART BY MORE THAN BOUND)'}")
            ok = ok and agree
        for label, runs in zip("AB", sets):
            correct = runs.get(workload, {}).get("_correct", [])
            if correct and min(correct) < 1:
                print(f"{workload}: set {label} has runs with correct=false")
                ok = False
    print("sets agree within bounds" if ok else "sets DO NOT agree within bounds")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
