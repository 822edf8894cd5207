#!/usr/bin/env bash
# The kali benchmark: builds benchmark/kali_bench (Release) from this
# checkout's sources, then runs it.
#
# One workload (the form BENCHMARK.json's "command" is run in):
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# prints kali_bench's result; its last stdout line is the JSON result.
# --trace 1 also writes benchmark/out/trace_NAME.json (Chrome trace events).
#
# Every workload, each in its own process, merged into one JSON:
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]
# prints every metric with its unit and exits non-zero if any correctness
# check failed.  --trace adds the traced run (per-layer metrics); --smoke
# uses reduced sizes and minimum sample counts (all checks still run).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
out_dir="$here/out"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no kali sources (CMakeLists.txt, src/) in $root" >&2
  exit 2
fi

# Build logs go to stderr: stdout carries results only.
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build"
  fi
  cmake --build "$build" --target kali_bench -j "$(nproc)"
} >&2
bench="$build/kali_bench"
mkdir -p "$out_dir"

workload=""
seed=1
seconds=""
trace=0
smoke=0
out="$out_dir/run.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && "$2" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
fi

if [[ -n "$workload" ]]; then
  args=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
  if [[ "$trace" == 1 ]]; then
    args+=(--trace-out "$out_dir/trace_$workload.json")
  fi
  if [[ "$smoke" == 1 ]]; then
    args+=(--smoke)
  fi
  exec "$bench" "${args[@]}"
fi

extra=()
if [[ "$smoke" == 1 ]]; then
  extra=(--smoke)
  seconds=0
fi
workloads=$("$bench" --list | python3 -c 'import json, sys; print(" ".join(json.load(sys.stdin)["workloads"]))')
for w in $workloads; do
  "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
    --detail "$out_dir/$w.json" "${extra[@]}" > /dev/null
  rm -f "$out_dir/${w}_trace.json"
  if [[ "$trace" == 1 ]]; then
    "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --detail "$out_dir/${w}_trace.json" --trace-out "$out_dir/trace_$w.json" \
      "${extra[@]}" > /dev/null
  fi
done
exec python3 "$here/report.py" --bench "$root/BENCHMARK.json" --dir "$out_dir" \
  --out "$out" $workloads
