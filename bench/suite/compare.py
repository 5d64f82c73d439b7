#!/usr/bin/env python3
"""Compares two sets of ctbench runs against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py A/ B/    # A: parent commit, B: change
    python3 bench/suite/compare.py A/       # one set: medians and spreads

Each directory holds the envelopes that `run.py --json` (or `ctbench
--json`) wrote, any number of runs per workload. For every (workload,
metric) the report gives each side's median and quartiles and a verdict:

  unchanged   B's median is within the bound of A's
  regressed   B's median is worse than A's by more than the bound
  improved    B beats A in at least 9 of 10 run pairs, by more than the
              spread of A's own runs
  unresolved  a side's spread (quartile distance / median) is wider than
              the bound, and B does not beat A in every run pair

Metrics that repeat exactly for a given seed (EXACT below) are compared
bit for bit when both sides ran the same seeds: any difference is a
regression or an improvement, never noise. Per-layer metrics (traced runs)
have no bound; their medians are listed for reference. The exit status is
1 when any metric regressed.
"""

import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
EXACT = {"modeled_write_s", "bytes_per_fact"}


def load_runs(directory):
    """(workload, traced) -> metric -> [(seed, value)]."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            try:
                envelope = json.load(f)
            except ValueError:
                continue
        if not isinstance(envelope, dict) or envelope.get("suite") != "ctbench":
            continue
        key = (envelope["workload"], bool(envelope["trace"]))
        for metric, entry in envelope["metrics"].items():
            runs[key][metric].append((envelope["seed"], entry["value"]))
    return runs


def summary(values):
    """Median, first and third quartile, and spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(metric, a, b, bound, better):
    sign = 1 if better == "lower" else -1
    av = [v for _, v in a]
    bv = [v for _, v in b]
    seeds = {s for s, _ in a}
    # Bit for bit only when both sides ran the same seeds and every run of
    # a seed read one value; otherwise the bound rule below applies.
    if (metric in EXACT and seeds == {s for s, _ in b} and
            len(set(a)) == len(set(b)) == len(seeds)):
        if set(a) == set(b):
            return "unchanged"
        diff = sign * (statistics.median(bv) - statistics.median(av))
        return ("regressed" if diff > 0 else
                "improved" if diff < 0 else "unresolved")
    med_a, _, _, spread_a = summary(av)
    med_b, _, _, spread_b = summary(bv)
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    pairs = [(x, y) for x in av for y in bv]
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    losses = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    if max(spread_a, spread_b) > bound:
        if wins == 1.0:
            return "improved"
        return "regressed" if losses == 1.0 and worse > bound else "unresolved"
    if worse > bound:
        return "regressed"
    if wins >= 0.9 and -worse > spread_a:
        return "improved"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    order = [w["name"] for w in bench["workloads"]]
    a_runs = load_runs(argv[1])
    b_runs = load_runs(argv[2]) if len(argv) == 3 else None

    if b_runs is None:
        print("| workload | metric | runs | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for (workload, traced), metrics in sorted(
                a_runs.items(), key=lambda kv: (kv[0][1],
                                                order.index(kv[0][0]))):
            table = layers if traced else e2e
            for name in table:
                if name not in metrics:
                    continue
                med, q1, q3, spread = summary([v for _, v in metrics[name]])
                bound = table[name].get("bound")
                print("| %s | %s | %d | %s | %s | %s | %.4f | %s |" % (
                    workload, name, len(metrics[name]), fmt(med), fmt(q1),
                    fmt(q3), spread, "-" if bound is None else bound))
        return 0

    regressed = 0
    print("%-15s %-34s %32s %32s %9s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    for key in sorted(set(a_runs) & set(b_runs),
                      key=lambda k: (k[1], order.index(k[0]))):
        workload, traced = key
        table = layers if traced else e2e
        for name, spec in table.items():
            a = a_runs[key].get(name)
            b = b_runs[key].get(name)
            if not a or not b:
                continue
            med_a, q1_a, q3_a, _ = summary([v for _, v in a])
            med_b, q1_b, q3_b, _ = summary([v for _, v in b])
            change = (med_b - med_a) / med_a if med_a else 0.0
            if traced:
                result, bound = "info", "-"
            else:
                result = verdict(name, a, b, spec["bound"], spec["better"])
                bound = spec["bound"]
            regressed += result == "regressed"
            print("%-15s %-34s %32s %32s %+8.2f%% %6s  %s" % (
                workload, name,
                "%s [%s, %s]" % (fmt(med_a), fmt(q1_a), fmt(q3_a)),
                "%s [%s, %s]" % (fmt(med_b), fmt(q1_b), fmt(q3_b)),
                100 * change, bound, result))
    missing = set(a_runs) ^ set(b_runs)
    for workload, traced in sorted(missing):
        print("%s (%s): runs on one side only" % (
            workload, "traced" if traced else "untraced"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
