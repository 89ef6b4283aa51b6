#!/usr/bin/env python3
"""Compare the parent and change runs of committed perfbench records.

    python3 bench/trajectory/compare.py bench/trajectory/*.jsonl

Each line of a record is perfbench's final JSON object (correct, attempted,
failed, metrics) plus the run's side ("parent" or "change"), rev, workload,
seed, seconds, trace (0 or 1), nproc and ocaml (the compiler version).  For
every workload, seed and end-to-end metric (the metrics of the untraced
runs) this prints the median of each side and their ratio change / parent.
The runs column counts each side's runs and the failed column the
operations they failed.  A line missing a field, or a run whose outputs
failed their checks, is an error.
"""

import json
import statistics
import sys

FIELDS = ("correct", "attempted", "failed", "metrics", "side", "rev", "workload",
          "seed", "seconds", "trace", "nproc", "ocaml")


def load(path):
    runs = []
    with open(path) as f:
        for num, line in enumerate(f, 1):
            if not line.strip():
                continue
            where = "%s:%d" % (path, num)
            try:
                run = json.loads(line)
            except ValueError as e:
                sys.exit("%s: %s" % (where, e))
            missing = [k for k in FIELDS if k not in run]
            if missing:
                sys.exit("%s: missing %s" % (where, ", ".join(missing)))
            if run["side"] not in ("parent", "change"):
                sys.exit("%s: side must be parent or change" % where)
            if not run["correct"]:
                sys.exit("%s: run failed its output checks" % where)
            runs.append(run)
    return runs


def compare(path):
    groups, failed = {}, {}
    for run in load(path):
        if run["trace"] != 0:
            continue
        cell = (run["workload"], str(run["seed"]))
        failed.setdefault(cell, {"parent": 0, "change": 0})[run["side"]] += run["failed"]
        for name, m in run["metrics"].items():
            values = groups.setdefault(cell + (name,), {"parent": [], "change": []})
            values[run["side"]].append(m["value"])
    rows = [("workload", "seed", "metric", "runs", "failed", "parent", "change",
             "change/parent")]
    for (workload, seed, name), sides in sorted(groups.items()):
        p, c = sides["parent"], sides["change"]
        if not p or not c:
            sys.exit("%s: %s seed %s %s has no %s run"
                     % (path, workload, seed, name, "parent" if not p else "change"))
        mp, mc = statistics.median(p), statistics.median(c)
        f = failed[(workload, seed)]
        rows.append((workload, seed, name, "%d/%d" % (len(p), len(c)),
                     "%d/%d" % (f["parent"], f["change"]), "%.6g" % mp, "%.6g" % mc,
                     "%.3f" % (mc / mp) if mp else "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print(path)
    for r in rows:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: compare.py RECORD.jsonl...")
    for path in sys.argv[1:]:
        compare(path)


if __name__ == "__main__":
    main()
