#!/usr/bin/env python3
"""Merge per-workload kali_bench --detail files into one result JSON.

    report.py --bench BENCHMARK.json --dir benchmark/out --out run.json W1 W2 ...

Reads DIR/W.json (untraced run) and, when present, DIR/W_trace.json
(traced run) for every workload W; checks that each run reports exactly
the metrics BENCHMARK.json names, with the same units; writes the merged
result; prints every metric by name with its unit.  Exits 1 if a
correctness check failed or a metric is missing, extra or mislabelled.
"""
import argparse
import json
import os
import sys


def check_names(run, defs, where):
    """Problems with run['metrics'] against BENCHMARK.json entries `defs`."""
    want = {d["name"]: d["unit"] for d in defs}
    got = run["metrics"]
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append(f"{where}: metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if got[name]["unit"] != want[name]:
            problems.append(f"{where}: {name} unit {got[name]['unit']} != {want[name]}")
    return problems


def fmt(m):
    s = f"{m['value']:.6g} {m['unit']}"
    if m.get("n", 0) > 1:
        s += f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, max {m['max']:.6g}, n={m['n']}]"
    return s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("workloads", nargs="+")
    a = ap.parse_args()

    with open(a.bench) as f:
        bench = json.load(f)
    problems = []
    merged = {"workloads": {}}
    for w in a.workloads:
        with open(os.path.join(a.dir, f"{w}.json")) as f:
            plain = json.load(f)
        runs = [plain]
        problems += check_names(plain, bench["end_to_end"], f"{w} (untraced)")
        entry = {"end_to_end": plain["metrics"]}
        trace_path = os.path.join(a.dir, f"{w}_trace.json")
        if os.path.exists(trace_path):
            with open(trace_path) as f:
                traced = json.load(f)
            runs.append(traced)
            problems += check_names(traced, bench["per_layer"], f"{w} (traced)")
            entry.update(per_layer=traced["metrics"], spans=traced["spans"],
                         probes=traced["probes"])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        if failed:
            problems.append(f"{w}: {failed} of {attempted} samples failed their checks")
        entry.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)
        merged["workloads"][w] = entry
        merged.update(seed=plain["seed"], smoke=plain["smoke"], host=plain["host"])

    with open(a.out, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")

    for w, entry in merged["workloads"].items():
        print(f"== {w}  (failed {entry['failed']}/{entry['attempted']})")
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                print(f"  {name:40s} {fmt(m)}")
    print(f"wrote {a.out}")
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
