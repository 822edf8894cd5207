#!/usr/bin/env python3
"""Compare two merged kali benchmark results (benchmark/run.sh output).

    compare.py BASE.json NEW.json [--bench BENCHMARK.json]
    compare.py --self-test

For every (workload, end-to-end metric) it prints one verdict:

  ok          NEW is within the metric's bound of BASE
  improved    NEW is better than BASE by more than the bound
  regressed   NEW is worse than BASE by more than the bound
  unresolved  BASE's or NEW's quartile spread, as a share of its median,
              is wider than the bound, so the runs cannot tell
  missing     NEW lacks the workload or the metric

and one failed_frac line per workload (regressed when it rose).  Bounds
and directions are read from BENCHMARK.json.  Exits 1 on any regressed or
missing verdict, else 0.  --self-test runs the cases in fixtures/cases.json.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(m):
    """(q3 - q1) / median of a metric, 0 when it was measured once."""
    if m.get("n", 1) < 2 or m["value"] == 0:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def verdict(base, new, bound, better):
    """(verdict, relative change where positive means worse)."""
    b, n = base["value"], new["value"]
    if b == 0:
        worse = 0.0 if n == 0 else float("inf")
    else:
        worse = (n - b) / abs(b)
    if better == "higher":
        worse = -worse
    if max(spread(base), spread(new)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def compare(base, new, bench):
    """Yield (workload, metric, verdict, detail) rows."""
    for w, bw in sorted(base["workloads"].items()):
        nw = new["workloads"].get(w)
        if nw is None:
            yield w, "*", "missing", "workload not in NEW"
            continue
        for d in bench["end_to_end"]:
            name = d["name"]
            bm, nm = bw["end_to_end"].get(name), nw["end_to_end"].get(name)
            if bm is None:
                continue
            if nm is None:
                yield w, name, "missing", "metric not in NEW"
                continue
            v, worse = verdict(bm, nm, d["bound"], d["better"])
            yield w, name, v, (
                f"base {bm['value']:.6g} new {nm['value']:.6g} {d['unit']}  "
                f"worse {100 * worse:+.3g}%  spread {100 * spread(bm):.2g}%/"
                f"{100 * spread(nm):.2g}%  bound {100 * d['bound']:.2g}%")
        rose = nw["failed_frac"] > bw["failed_frac"]
        yield w, "failed_frac", "regressed" if rose else "ok", (
            f"base {bw['failed_frac']:.3g} new {nw['failed_frac']:.3g}")


def run(base_path, new_path, bench_path, out=sys.stdout):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    with open(bench_path) as f:
        bench = json.load(f)
    rows = list(compare(base, new, bench))
    for w, metric, v, detail in rows:
        print(f"{w:14s} {metric:12s} {v:10s} {detail}", file=out)
    bad = any(v in ("regressed", "missing") for _, _, v, _ in rows)
    return rows, 1 if bad else 0


def self_test():
    fixtures = os.path.join(HERE, "fixtures")
    with open(os.path.join(fixtures, "cases.json")) as f:
        cases = json.load(f)
    failures = 0
    with open(os.devnull, "w") as quiet:
        for case in cases:
            rows, code = run(os.path.join(fixtures, case["base"]),
                             os.path.join(fixtures, case["new"]),
                             os.path.join(fixtures, "bench.json"), quiet)
            got = {f"{w}/{m}": v for w, m, v, _ in rows}
            for key, want in case["verdicts"].items():
                if got.get(key) != want:
                    failures += 1
                    print(f"FAIL {case['new']}: {key} is {got.get(key)}, want {want}")
            if code != case["exit"]:
                failures += 1
                print(f"FAIL {case['new']}: exit {code}, want {case['exit']}")
    print(f"compare.py self-test: {len(cases)} cases, {failures} failures")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.base or not a.new:
        ap.error("BASE and NEW are required")
    return run(a.base, a.new, a.bench)[1]


if __name__ == "__main__":
    sys.exit(main())
