#!/usr/bin/env python3
"""Offline communication-trace verifier for the kali machine layer.

Consumes the EventLog message trace (src/machine/event_log.hpp write_trace()):

    kali-trace 1 <nprocs>
    S <rank> <peer> <tag> <seq> <bytes> <epoch>
    R <rank> <peer> <tag> <seq> <bytes> <epoch>

one line per event in per-rank program order ('#' lines are comments).  For
'S' the peer is the destination and epoch is the sender's sync_clocks epoch
at send time; for 'R' the peer is the source and epoch is the *receiver's*
epoch at receive time, so a matched pair with differing epochs straddled a
barrier.

Checks, by rule id (--list-rules; docs/static-analysis.md tables this list
and scripts/check_docs.sh fails on drift):

  trace-format    header/line syntax, ranks in range, matched send/recv
                  payload sizes agree, no duplicate (src, dst, tag, seq)
  bad-tag         every sent tag lies in a registered band of the
                  reserved-tag registry (the band bases, runtime-band
                  allocation table, and collectives bounds are parsed
                  out of src/machine/message.hpp at startup, so the
                  verifier can never drift from the header)
  unmatched-send  a message was sent and never received (the online
                  counterpart is the sync_clocks/teardown leak check)
  unmatched-recv  a receive consumed a message no send produced
  epoch-straddle  a matched pair crosses a sync_clocks barrier
  fifo-overtake   per (src, dst, tag) sequence numbers must increase in
                  both the sender's and the receiver's program order
                  (MPI-1 non-overtaking, the mailbox's FIFO guarantee)

Like tools/lint_kali.py, the verifier is itself under test: --self-test
replays tools/trace_fixtures/*.trace, where each fixture's `# EXPECT:` line
names `pass` or exactly the rule it must trip, and fails on any mismatch in
either direction.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = (
    "trace-format",
    "bad-tag",
    "unmatched-send",
    "unmatched-recv",
    "epoch-straddle",
    "fifo-overtake",
)

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent / "trace_fixtures"

# --- reserved-tag registry, parsed from src/machine/message.hpp -------------
# The registry's single source of truth is the C++ header: the band bases,
# the KALI_RUNTIME_TAG_ALLOCS X-macro allocation table, and the
# collectives-band bounds.  Parsing them at startup (instead of keeping a
# hand-maintained Python mirror) means a new runtime-band allocation is
# picked up here automatically; the parse is deliberately rigid and fails
# loudly if the header's shape changes.

MESSAGE_HPP = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "machine" / "message.hpp")

# Constant value expressions are integer arithmetic over earlier constants:
# literals, identifiers, +, -, <<, parens.
_CONST_RE = re.compile(r"^inline constexpr int (k\w+) = ([^;]+);", re.M)
_EXPR_OK_RE = re.compile(r"^[\w\s()+\-<]+$")
_ALLOCS_RE = re.compile(
    r"#define KALI_RUNTIME_TAG_ALLOCS\(X\)((?:[^\n]*\\\n)*[^\n]*)")
_ROW_RE = re.compile(r"X\((k\w+),\s*(\d+)\)")


def _parse_registry(header: pathlib.Path):
    try:
        text = header.read_text()
    except OSError as e:
        raise SystemExit(f"check_trace: cannot read tag registry: {e}")
    consts: dict[str, int] = {}
    for name, expr in _CONST_RE.findall(text):
        expr = expr.strip()
        if not _EXPR_OK_RE.match(expr):
            raise SystemExit(
                f"{header}: constant {name} has an unparseable value "
                f"{expr!r} (extend the parser in check_trace.py)")
        try:
            consts[name] = int(eval(expr, {"__builtins__": {}}, dict(consts)))
        except Exception as e:  # undefined name, syntax, ...
            raise SystemExit(
                f"{header}: cannot evaluate {name} = {expr!r}: {e}")
    block = _ALLOCS_RE.search(text)
    if block is None:
        raise SystemExit(
            f"{header}: KALI_RUNTIME_TAG_ALLOCS(X) table not found")
    allocs = []
    for name, width in _ROW_RE.findall(block.group(1)):
        if name not in consts:
            raise SystemExit(
                f"{header}: X-macro row {name} names no defined constant")
        allocs.append((consts[name], int(width)))
    if not allocs:
        raise SystemExit(f"{header}: empty runtime-band allocation table")
    for required in ("kRuntimeTagBase", "kKernelTagBase",
                     "kCollectiveTagBase", "kCollectiveTagFirst",
                     "kCollectiveTagLast"):
        if required not in consts:
            raise SystemExit(f"{header}: missing constant {required}")
    return consts, allocs


_CONSTS, _RUNTIME_ALLOCS = _parse_registry(MESSAGE_HPP)


def is_registered_tag(tag: int) -> bool:
    """Python twin of is_registered_tag() in src/machine/message.hpp,
    driven by the constants parsed out of that header — never a mirror."""
    if tag < 0:
        return False
    if tag < _CONSTS["kRuntimeTagBase"]:
        return True  # user band: application programs own it
    if tag < _CONSTS["kKernelTagBase"]:
        return any(base <= tag < base + width
                   for base, width in _RUNTIME_ALLOCS)
    if tag < _CONSTS["kCollectiveTagBase"]:
        return True  # kernel band: parameterized allocations
    return _CONSTS["kCollectiveTagFirst"] <= tag <= _CONSTS["kCollectiveTagLast"]


# --- verifier ---------------------------------------------------------------


class Finding:
    def __init__(self, rule: str, where: str, message: str) -> None:
        assert rule in RULES, rule
        self.rule = rule
        self.where = where
        self.message = message

    def __str__(self) -> str:
        return f"{self.where}: [{self.rule}] {self.message}"


def verify(path: pathlib.Path) -> list[Finding]:
    findings: list[Finding] = []

    def bad(rule: str, lineno: int, message: str) -> None:
        findings.append(Finding(rule, f"{path}:{lineno}", message))

    lines = path.read_text().splitlines()
    nprocs = None
    # (kind, rank, peer, tag, seq, bytes, epoch, lineno), malformed excluded
    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if nprocs is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "kali-trace" or parts[1] != "1":
                bad("trace-format", lineno,
                    f"expected 'kali-trace 1 <nprocs>' header, got {line!r}")
                return findings
            try:
                nprocs = int(parts[2])
            except ValueError:
                nprocs = -1
            if nprocs < 1:
                bad("trace-format", lineno, f"bad processor count {parts[2]!r}")
                return findings
            continue
        parts = line.split()
        if len(parts) != 7 or parts[0] not in ("S", "R"):
            bad("trace-format", lineno,
                "expected 'S|R <rank> <peer> <tag> <seq> <bytes> <epoch>', "
                f"got {line!r}")
            continue
        try:
            rank, peer, tag, seq, nbytes, epoch = (int(p) for p in parts[1:])
        except ValueError:
            bad("trace-format", lineno, f"non-integer field in {line!r}")
            continue
        if not (0 <= rank < nprocs) or not (0 <= peer < nprocs):
            bad("trace-format", lineno,
                f"rank/peer outside [0, {nprocs}) in {line!r}")
            continue
        if seq < 0 or nbytes < 0 or epoch < 0:
            bad("trace-format", lineno, f"negative field in {line!r}")
            continue
        events.append((parts[0], rank, peer, tag, seq, nbytes, epoch, lineno))
    if nprocs is None:
        bad("trace-format", len(lines) + 1, "missing 'kali-trace' header")
        return findings

    # Tag-registry membership, checked at the send like the online invariant.
    for kind, rank, peer, tag, _seq, _b, _e, lineno in events:
        if kind == "S" and not is_registered_tag(tag):
            bad("bad-tag", lineno,
                f"send {rank} -> {peer} uses tag {tag}, which is not inside "
                "a registered band of the reserved-tag registry")

    # Send/recv matching on the unique key (src, dst, tag, seq).
    sends = {}  # key -> (bytes, epoch, lineno)
    for kind, rank, peer, tag, seq, nbytes, epoch, lineno in events:
        if kind != "S":
            continue
        key = (rank, peer, tag, seq)
        if key in sends:
            bad("trace-format", lineno,
                f"duplicate send key (src={rank}, dst={peer}, tag={tag}, "
                f"seq={seq})")
            continue
        sends[key] = (nbytes, epoch, lineno)
    matched = set()
    for kind, rank, peer, tag, seq, nbytes, epoch, lineno in events:
        if kind != "R":
            continue
        key = (peer, rank, tag, seq)
        if key not in sends:
            bad("unmatched-recv", lineno,
                f"recv on rank {rank} of (src={peer}, tag={tag}, seq={seq}) "
                "matches no send in the trace")
            continue
        matched.add(key)
        s_bytes, s_epoch, s_lineno = sends[key]
        if nbytes != s_bytes:
            bad("trace-format", lineno,
                f"recv of (src={peer}, tag={tag}, seq={seq}) reports "
                f"{nbytes} B but the send (line {s_lineno}) reports "
                f"{s_bytes} B")
        if epoch != s_epoch:
            bad("epoch-straddle", lineno,
                f"message (src={peer}, dst={rank}, tag={tag}, seq={seq}) "
                f"sent at epoch {s_epoch} (line {s_lineno}) but received at "
                f"epoch {epoch}: it straddles a sync_clocks barrier")
    for key, (_b, _e, s_lineno) in sorted(sends.items(),
                                          key=lambda kv: kv[1][2]):
        if key not in matched:
            src, dst, tag, seq = key
            bad("unmatched-send", s_lineno,
                f"message (src={src}, dst={dst}, tag={tag}, seq={seq}) was "
                "sent but never received (leaked)")

    # FIFO non-overtaking: per (src, dst, tag), seq must increase in the
    # sender's program order and in the receiver's consumption order.
    last_seq: dict = {}
    for kind, rank, peer, tag, seq, _b, _e, lineno in events:
        chan = (kind, rank, peer, tag)
        if chan in last_seq and seq <= last_seq[chan][0]:
            prev_seq, prev_line = last_seq[chan]
            side = "sent" if kind == "S" else "consumed"
            src, dst = (rank, peer) if kind == "S" else (peer, rank)
            bad("fifo-overtake", lineno,
                f"channel (src={src}, dst={dst}, tag={tag}): seq {seq} "
                f"{side} after seq {prev_seq} (line {prev_line}) — "
                "non-overtaking order violated")
        last_seq[chan] = (seq, lineno)

    findings.sort(key=lambda f: f.where)
    return findings


# --- self-test --------------------------------------------------------------


def expected_outcome(path: pathlib.Path) -> str:
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("# EXPECT:"):
            return line[len("# EXPECT:"):].strip()
    raise SystemExit(f"{path}: fixture has no '# EXPECT:' line")


def self_test() -> int:
    fixtures = sorted(FIXTURE_DIR.glob("*.trace"))
    if not fixtures:
        print(f"self-test: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1
    failures = 0
    covered = set()
    for fx in fixtures:
        expect = expected_outcome(fx)
        got = {f.rule for f in verify(fx)}
        if expect == "pass":
            covered.add("pass")
            if got:
                print(f"self-test FAIL: {fx.name} expected to pass but "
                      f"tripped {sorted(got)}", file=sys.stderr)
                failures += 1
        else:
            if expect not in RULES:
                print(f"self-test FAIL: {fx.name} expects unknown rule "
                      f"{expect!r}", file=sys.stderr)
                failures += 1
                continue
            covered.add(expect)
            if got != {expect}:
                print(f"self-test FAIL: {fx.name} expected exactly "
                      f"{{{expect!r}}} but tripped {sorted(got)}",
                      file=sys.stderr)
                failures += 1
    missing = set(RULES) - covered
    if missing:
        print(f"self-test FAIL: no fixture exercises {sorted(missing)}",
              file=sys.stderr)
        failures += 1
    if "pass" not in covered:
        print("self-test FAIL: no passing fixture", file=sys.stderr)
        failures += 1
    if failures == 0:
        print(f"trace-verifier self-test OK "
              f"({len(fixtures)} fixtures, {len(RULES)} rules)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="*", type=pathlib.Path,
                    help="trace files to verify")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the verifier against tools/trace_fixtures/")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule ids, one per line")
    args = ap.parse_args(argv)
    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if args.self_test:
        return self_test()
    if not args.traces:
        ap.error("no trace files given (or use --self-test / --list-rules)")
    total = 0
    for path in args.traces:
        findings = verify(path)
        for f in findings:
            print(f, file=sys.stderr)
        total += len(findings)
        if not findings:
            print(f"{path}: OK")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
