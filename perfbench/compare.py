#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

  python3 perfbench/compare.py BASE NEW

BASE and NEW are files or directories holding the "ujoin.perfbench" report
lines that perfbench/run.py prints (and appends to --out FILE); any other
line is ignored, so captured standard output works as well.

Prints one row per workload and end-to-end metric with each side's median
and quartiles over its runs.  A metric is "worse" when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json, "better" when it improved by more than the bound,
"unresolved" when either side's spread (quartile distance / median) is
wider than the bound and the runs do not separate completely, and "same"
otherwise; metrics the runs report without a bound (p99_ms, fail_frac) get
their medians only.  From the traced runs it then names, per workload, the
per-layer self times (unit s) that moved most.  Exits 1 when any metric is worse or
any run reported incorrect output.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOP_LAYERS = 5


def load_reports(path):
    files = []
    if os.path.isdir(path):
        for root, _, names in os.walk(path):
            files.extend(os.path.join(root, n) for n in sorted(names))
    else:
        files.append(path)
    reports = []
    for name in files:
        with open(name, errors="replace") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if isinstance(obj, dict) and obj.get("report") == "ujoin.perfbench":
                    reports.append(obj)
    if not reports:
        sys.exit("compare.py: no ujoin.perfbench report lines in " + path)
    return reports


UNITS = {}  # metric name -> unit, as the reports give it


def collect(reports, trace):
    """{workload: {metric: [values]}} over the runs with the given trace flag,
    including the unbounded extra metrics."""
    out = {}
    for r in reports:
        if r["trace"] != trace:
            continue
        per = out.setdefault(r["workload"], {})
        metrics = dict(r.get("extra", {}))
        metrics.update(r["result"]["metrics"])
        for name, m in metrics.items():
            per.setdefault(name, []).append(m["value"])
            UNITS[name] = m["unit"]
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(base, new, better, bound):
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    gain = -change if better == "lower" else change
    if better == "lower":
        separated = max(new) < min(base)
    else:
        separated = min(new) > max(base)
    if max(bspread, nspread) > bound and not separated:
        return change, "unresolved"
    if gain < -bound:
        return change, "worse"
    if gain > bound:
        return change, "better"
    return change, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    base_reports, new_reports = load_reports(args.base), load_reports(args.new)

    bad = 0
    for label, reports in (("base", base_reports), ("new", new_reports)):
        wrong = [r for r in reports if not r["result"]["correct"]]
        for r in wrong:
            print("INCORRECT %s run: workload %s seed %s trace %s" %
                  (label, r["workload"], r["seed"], r["trace"]))
        bad += len(wrong)

    base, new = collect(base_reports, 0), collect(new_reports, 0)
    print("%-13s %-12s %-5s %34s %34s %8s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "change", "verdict"))
    bounded = {m["name"] for m in bench["end_to_end"]}
    for workload in sorted(set(base) & set(new)):
        extra = sorted((set(base[workload]) & set(new[workload])) - bounded)
        rows = bench["end_to_end"] + [
            {"name": name, "unit": UNITS[name], "better": "lower", "bound": None}
            for name in extra]
        for metric in rows:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            if metric["bound"] is None:
                med_b, med_n = statistics.median(b), statistics.median(n)
                change = (med_n - med_b) / abs(med_b) if med_b else 0.0
                status = "reported only"
            else:
                change, status = verdict(b, n, metric["better"], metric["bound"])
            bad += status == "worse"
            cells = []
            for values in (b, n):
                med, q1, q3, _ = summary(values)
                cells.append("%.5g [%.5g, %.5g] (%d)" % (med, q1, q3, len(values)))
            bound = "" if metric["bound"] is None else " (bound %g)" % metric["bound"]
            print("%-13s %-12s %-5s %34s %34s %+7.1f%%  %s%s" % (
                workload, name, metric["unit"], cells[0], cells[1], 100 * change,
                status, bound))

    base_l, new_l = collect(base_reports, 1), collect(new_reports, 1)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in sorted(set(base_l) & set(new_l)):
        moves = []
        for name, unit in units.items():
            b, n = base_l[workload].get(name), new_l[workload].get(name)
            layer = name.split(".")[0] in ("text", "index", "filter", "verify")
            if unit != "s" or not layer or not b or not n:
                continue
            bmed, nmed = statistics.median(b), statistics.median(n)
            moves.append((abs(nmed - bmed), name, bmed, nmed))
        moves.sort(reverse=True)
        print("%s: per-layer self time that moved most (traced runs, "
              "single-threaded sums)" % workload)
        for _, name, bmed, nmed in moves[:TOP_LAYERS]:
            print("  %-24s %10.4f s -> %10.4f s  (%+.4f s)" % (name, bmed, nmed, nmed - bmed))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
