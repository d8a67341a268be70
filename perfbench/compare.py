"""Summarise or compare sets of benchmark runs.

    python3 perfbench/compare.py DIR            # spread of each metric in DIR
    python3 perfbench/compare.py BASE NEW       # NEW's medians against BASE's

A directory is what ``run.py --results DIR`` wrote: one record per
workload, seed and trace setting.  For each workload and end-to-end metric
the summary gives the median, the quartiles and the spread (distance
between the quartiles as a share of the median) next to the metric's
bound from BENCHMARK.json.  A comparison gives each median's change in the
metric's worse direction as a share of BASE's median, how many seeds NEW
won, and whether the change exceeds the bound; it also checks that the
share of failed operations is the same.  Medians of the per-layer metrics
from traced runs are listed without bounds.  The exit code is 1 when a
comparison finds a regression beyond a bound or a different failure share,
and 2 when the runs did not all measure for the same number of seconds.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory, trace):
    """{workload: {seed: record}} for the runs in ``directory``."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*", f"seed*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records, name):
    return {seed: r["metrics"][name]["value"] for seed, r in records.items()
            if name in r["metrics"]}


def failure_shares(records):
    return sorted({r["failed"] / r["attempted"] for r in records.values()})


def summarise(spec, runs):
    for workload, records in runs.items():
        print(f"{workload}: {len(records)} runs, failure shares {failure_shares(records)}, "
              f"all correct: {all(r['correct'] for r in records.values())}")
        for metric in spec["end_to_end"]:
            vals = list(values_of(records, metric["name"]).values())
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            print(f"  {metric['name']:<16} median {med:.6g} {metric['unit']}, "
                  f"quartiles {q1:.6g} .. {q3:.6g}, spread {spread:.3f} "
                  f"(bound {metric['bound']}, third {metric['bound'] / 3:.3f})")


def compare(spec, base, new):
    bad = False
    for workload in sorted(set(base) & set(new)):
        b_runs, n_runs = base[workload], new[workload]
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        if failure_shares(b_runs) != failure_shares(n_runs):
            print(f"  failure shares differ: {failure_shares(b_runs)} vs {failure_shares(n_runs)}")
            bad = True
        for metric in spec["end_to_end"]:
            b = values_of(b_runs, metric["name"])
            n = values_of(n_runs, metric["name"])
            lower = metric["better"] == "lower"
            b_med, n_med = statistics.median(b.values()), statistics.median(n.values())
            worse = (n_med - b_med) / b_med * (1 if lower else -1)
            q1, _, q3 = quartiles(list(b.values()))
            paired = set(b) & set(n)
            wins = sum((n[s] < b[s]) if lower else (n[s] > b[s]) for s in paired)
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            if verdict == "REGRESSION":
                bad = True
            print(f"  {metric['name']:<16} {b_med:.6g} -> {n_med:.6g} {metric['unit']}: "
                  f"{100 * worse:+.1f}% worse (bound {100 * metric['bound']:.0f}%), "
                  f"base spread {(q3 - q1) / b_med:.3f}, new better on {wins}/{len(paired)} "
                  f"seeds: {verdict}")
    return bad


def per_layer(spec, dirs):
    sets = [load(d, 1) for d in dirs]
    for workload in sorted(set().union(*sets)):
        print(f"{workload} (traced):")
        for metric in spec["per_layer"]:
            meds = []
            for runs in sets:
                vals = list(values_of(runs.get(workload, {}), metric["name"]).values())
                meds.append(f"{statistics.median(vals):.6g}" if vals else "-")
            if any(m not in ("-", "0") for m in meds):
                print(f"  {metric['name']:<52} {' -> '.join(meds)} {metric['unit']}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    lengths = {r["seconds"] for d in argv for t in (0, 1)
               for records in load(d, t).values() for r in records.values()}
    if len(lengths) > 1:
        print(f"the runs measured for different lengths {sorted(lengths)} s; "
              "they cannot be compared", file=sys.stderr)
        return 2
    bad = False
    if len(argv) == 1:
        summarise(spec, load(argv[0], 0))
    else:
        bad = compare(spec, load(argv[0], 0), load(argv[1], 0))
    per_layer(spec, argv)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
