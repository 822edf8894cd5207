#!/usr/bin/env bash
# Trace-verifier gate: proves the verifier itself (self-test over
# tools/trace_fixtures/), then runs the comm_trace example (runtime
# exchanges plus one mg3 V-cycle) and verifies the real trace it emits.
# Same entry points as the ctest targets `trace_selftest` /
# `trace_check` and the CI step.
#
# Usage: scripts/check_trace.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"

python3 "${ROOT}/tools/check_trace.py" --self-test

TRACE="$(mktemp /tmp/kali_comm_trace.XXXXXX)"
trap 'rm -f "${TRACE}"' EXIT
"${BUILD}/comm_trace" "${TRACE}"
python3 "${ROOT}/tools/check_trace.py" "${TRACE}"
