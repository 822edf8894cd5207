#!/usr/bin/env bash
# Happens-before determinism gate: proves the analyzer itself (self-test
# over tools/hb_fixtures/), analyzes the real happens-before log the
# comm_trace workload (runtime exchanges plus one mg3 V-cycle) emits
# (must be clean), then seeds the known determinism race via the
# interleaving explorer and requires BOTH detectors to catch it: the
# explorer by divergent result digests, the analyzer by flagging the log
# of the racy run.  Same entry points as the ctest targets
# `hb_selftest` / `hb_check` and the CI step.
#
# Usage: scripts/check_hb.sh [build-dir]   (default: build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"

python3 "${ROOT}/tools/check_hb.py" --self-test

HB="$(mktemp /tmp/kali_hb.XXXXXX)"
SEEDED="$(mktemp /tmp/kali_hb_seeded.XXXXXX)"
trap 'rm -f "${HB}" "${SEEDED}"' EXIT

# The real mixed workload's log must analyze clean.
"${BUILD}/comm_trace" /dev/null "${HB}"
python3 "${ROOT}/tools/check_hb.py" "${HB}"

# Full (unbounded is tiny here) enumeration of every micro-program must
# find bit-identical digests everywhere...
"${BUILD}/explore_scheduler"

# ...and the seeded race must be caught twice over: the explorer exits 0
# only when digests diverge, and the analyzer must FAIL its log.
"${BUILD}/explore_scheduler" --seed-bug --hb "${SEEDED}"
if python3 "${ROOT}/tools/check_hb.py" "${SEEDED}"; then
  echo "check_hb.sh: FAIL: analyzer passed the seeded-race log" >&2
  exit 1
fi
echo "check_hb.sh: OK (self-test, clean workload, seeded race caught by explorer + analyzer)"
