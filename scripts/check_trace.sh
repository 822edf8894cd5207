#!/usr/bin/env bash
# Trace-verifier gate: proves the verifier itself (self-test over
# tools/trace_fixtures/), then runs the comm_trace example (runtime
# exchanges plus mg3 V-cycles) twice and verifies the real trace it emits.
# The two runs must write byte-identical traces and the same summary line:
# both count only message records, which do not depend on host scheduling.
# Only comm_trace's own "comm_trace: " lines are compared, not its whole
# stderr: a sanitizer runtime adds warnings there a varying number of
# times (ASan's makecontext/swapcontext note, once in one run and twice in
# the next).
# Same entry points as the ctest targets `trace_selftest` /
# `trace_check` and the CI step.
#
# Usage: scripts/check_trace.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"

python3 "${ROOT}/tools/check_trace.py" --self-test

DIR="$(mktemp -d /tmp/kali_comm_trace.XXXXXX)"
trap 'rm -rf "${DIR}"' EXIT
for run in 1 2; do
  "${BUILD}/comm_trace" "${DIR}/trace${run}" 2> "${DIR}/stderr${run}"
  grep '^comm_trace: ' "${DIR}/stderr${run}" > "${DIR}/summary${run}" || true
  if [[ ! -s "${DIR}/summary${run}" ]]; then
    echo "check_trace: comm_trace run ${run} printed no summary:" >&2
    cat "${DIR}/stderr${run}" >&2
    exit 1
  fi
done
if ! cmp -s "${DIR}/trace1" "${DIR}/trace2"; then
  echo "check_trace: two comm_trace runs wrote different traces" >&2
  exit 1
fi
if ! cmp -s "${DIR}/summary1" "${DIR}/summary2"; then
  echo "check_trace: two comm_trace runs printed different summaries:" >&2
  cat "${DIR}/summary1" "${DIR}/summary2" >&2
  exit 1
fi
cat "${DIR}/summary1"
python3 "${ROOT}/tools/check_trace.py" "${DIR}/trace1"
