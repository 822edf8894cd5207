#!/usr/bin/env python3
"""Offline happens-before determinism analyzer for kali HB logs.

The runtime's determinism contract (docs/machine-model.md, "Execution
model") promises bit-identical clocks, counters, and traces across host
interleavings because all simulated state is rank-sharded and every
cross-rank effect flows through a synchronization event whose order the
*model* fixes (a mailbox push matched by a recv, a park released by a
wake).  ThreadSanitizer cannot check that promise:
a mutex orders two accesses physically without fixing their logical
order, so a determinism race -- results that depend on which fiber the
host happened to run first -- is invisible to it.

This tool replays a `kali-hb` event log (machine/event_log.hpp
write_hb), rebuilds the happens-before partial order with vector clocks,
and flags conflicting accesses to shared simulator state that the
partial order does not cover.

Event grammar (one event per line, after a `kali-hb 1 <nprocs>` header;
<actor> is a rank or -1 for the scheduler's machine context, <aseq> is
the actor-local sequence number, dense from 0 per actor):

    send   <actor> <aseq> <dst> <mseq>
    recv   <actor> <aseq> <src> <mseq>
    park   <actor> <aseq> <parkseq>
    wake   <actor> <aseq> <target> <parkseq>
    woken  <actor> <aseq> <parkseq>
    r      <actor> <aseq> <obj>:<owner>
    w      <actor> <aseq> <obj>:<owner>

with <obj> one of clock, link, ledger, ctr, epoch, mbox.

Happens-before edges:
  - program order within each actor (aseq ascending);
  - send (src, mseq) -> recv (src, mseq) on the receiver;
  - wake (target, parkseq) -> woken (target, parkseq) on the target.

Rules (all self-tested against tools/hb_fixtures; `--list-rules` prints
this table, docs/static-analysis.md embeds it):

  hb-format            malformed header/event lines, unknown object
                       classes, non-dense actor sequence numbers
  dangling-edge        a consumer event (recv / woken) with no matching
                       producer, or duplicate producers for one edge key
  foreign-access       an actor touching another actor's non-mailbox
                       state (clock / link / ledger / ctr / epoch)
                       -- the sharding contract forbids it outright,
                       conflict or not
  unordered-write      two writes to the same object not ordered by
                       happens-before (skipped for mbox: cross-sender
                       mailbox inserts commute by design)
  unordered-read-write a read and a write of the same object not ordered
                       by happens-before (mbox included: an unordered
                       read of a mailbox observes a racing insert)

Exit status: 0 when no findings, 1 when findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

RULES = {
    "hb-format": "malformed header or event line, unknown object, "
                 "or non-dense actor sequence numbers",
    "dangling-edge": "edge consumer (recv/woken) without a matching "
                     "producer, or duplicate producers",
    "foreign-access": "non-owner access to non-mailbox state "
                      "(clock/link/ledger/ctr/epoch)",
    "unordered-write": "two writes to one object unordered by "
                       "happens-before (mbox exempt: inserts commute)",
    "unordered-read-write": "read and write of one object unordered by "
                            "happens-before",
}

OBJS = {"clock", "link", "ledger", "ctr", "epoch", "mbox"}

# kind -> number of argument fields after "<kind> <actor> <aseq>"
ARITY = {
    "send": 2, "recv": 2, "park": 1, "wake": 2, "woken": 1,
    "r": 1, "w": 1,
}


class Finding:
    def __init__(self, rule: str, where: str, msg: str) -> None:
        self.rule = rule
        self.where = where
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.where}: [{self.rule}] {self.msg}"


class Event:
    __slots__ = ("kind", "actor", "aseq", "args", "line", "vc")

    def __init__(self, kind: str, actor: int, aseq: int, args: list[str],
                 line: int) -> None:
        self.kind = kind
        self.actor = actor
        self.aseq = aseq
        self.args = args
        self.line = line
        self.vc: dict[int, int] = {}


def parse(path: Path, findings: list[Finding]):
    """Parse a log into {actor: [Event, ...]} (program order), or None on
    an unrecoverable format error."""
    try:
        text = path.read_text()
    except OSError as e:
        findings.append(Finding("hb-format", str(path), f"unreadable: {e}"))
        return None
    lines = text.splitlines()
    # Header is the first substantive line (leading comments/blanks OK --
    # fixtures carry their description and HB-EXPECT declarations on top).
    head_idx = next((i for i, ln in enumerate(lines)
                     if ln.strip() and not ln.lstrip().startswith("#")),
                    None)
    if head_idx is None or not lines[head_idx].startswith("kali-hb "):
        findings.append(Finding("hb-format", f"{path}:1",
                                "missing 'kali-hb 1 <nprocs>' header"))
        return None
    head = lines[head_idx].split()
    if len(head) != 3 or head[1] != "1" or not head[2].isdigit() \
            or int(head[2]) < 1:
        findings.append(Finding("hb-format", f"{path}:{head_idx + 1}",
                                f"bad header {lines[head_idx]!r}"))
        return None
    nprocs = int(head[2])
    actors: dict[int, list[Event]] = {}
    ok = True
    for i, raw in enumerate(lines[head_idx + 1:], start=head_idx + 2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind not in ARITY or len(parts) != 3 + ARITY[kind]:
            findings.append(Finding("hb-format", f"{path}:{i}",
                                    f"malformed event {line!r}"))
            ok = False
            continue
        try:
            actor = int(parts[1])
            aseq = int(parts[2])
        except ValueError:
            findings.append(Finding("hb-format", f"{path}:{i}",
                                    f"non-integer actor/aseq in {line!r}"))
            ok = False
            continue
        if actor < -1 or actor >= nprocs:
            findings.append(Finding("hb-format", f"{path}:{i}",
                                    f"actor {actor} out of range "
                                    f"[-1, {nprocs})"))
            ok = False
            continue
        args = parts[3:]
        if kind in ("r", "w"):
            if ":" not in args[0]:
                findings.append(Finding("hb-format", f"{path}:{i}",
                                        f"access without <obj>:<owner>: "
                                        f"{line!r}"))
                ok = False
                continue
            obj, _, owner = args[0].partition(":")
            if obj not in OBJS:
                findings.append(Finding("hb-format", f"{path}:{i}",
                                        f"unknown object class {obj!r}"))
                ok = False
                continue
            try:
                owner_i = int(owner)
            except ValueError:
                owner_i = None
            if owner_i is None or owner_i < 0 or owner_i >= nprocs:
                findings.append(Finding("hb-format", f"{path}:{i}",
                                        f"bad owner rank in {line!r}"))
                ok = False
                continue
            args = [obj, owner]
        ev = Event(kind, actor, aseq, args, i)
        seq = actors.setdefault(actor, [])
        if aseq != len(seq):
            findings.append(Finding("hb-format", f"{path}:{i}",
                                    f"actor {actor} sequence not dense: "
                                    f"got {aseq}, expected {len(seq)}"))
            ok = False
            continue
        seq.append(ev)
    if not ok:
        return None
    return actors


def build_edges(path: Path, actors, findings: list[Finding]):
    """Cross-actor edges as (src_event, dst_event) pairs; dangling-edge
    findings for consumers with no producer and duplicated producers."""
    sends: dict[tuple[int, int], Event] = {}
    wakes: dict[tuple[int, int], Event] = {}

    def put_unique(table, key, ev, what):
        if key in table:
            findings.append(Finding(
                "dangling-edge", f"{path}:{ev.line}",
                f"duplicate {what} for key {key} "
                f"(first at line {table[key].line})"))
        else:
            table[key] = ev

    for evs in actors.values():
        for ev in evs:
            if ev.kind == "send":
                put_unique(sends, (ev.actor, int(ev.args[1])), ev,
                           "send producer")
            elif ev.kind == "wake":
                put_unique(wakes, (int(ev.args[0]), int(ev.args[1])), ev,
                           "wake producer")

    edges: list[tuple[Event, Event]] = []
    for evs in actors.values():
        for ev in evs:
            if ev.kind == "recv":
                key = (int(ev.args[0]), int(ev.args[1]))
                src = sends.get(key)
                if src is None:
                    findings.append(Finding(
                        "dangling-edge", f"{path}:{ev.line}",
                        f"recv of (src={key[0]}, mseq={key[1]}) "
                        f"with no matching send"))
                else:
                    edges.append((src, ev))
            elif ev.kind == "woken":
                key = (ev.actor, int(ev.args[0]))
                src = wakes.get(key)
                if src is None:
                    findings.append(Finding(
                        "dangling-edge", f"{path}:{ev.line}",
                        f"woken (rank={key[0]}, parkseq={key[1]}) "
                        f"with no matching wake"))
                else:
                    edges.append((src, ev))
    return edges


def compute_vcs(actors, edges) -> None:
    """Per-event vector clocks over the union of program order and cross
    edges.  ev.vc maps actor -> count of that actor's events
    happening-before-or-equal ev; ev2 is ordered after ev1 iff
    ev2.vc.get(ev1.actor, 0) >= ev1.aseq + 1."""
    incoming: dict[Event, list[Event]] = {}
    for src, dst in edges:
        incoming.setdefault(dst, []).append(src)

    # Worklist in per-actor cursor order: an event is processable once its
    # program-order predecessor and all cross-edge sources are done.
    done: set[Event] = set()
    cursors = {a: 0 for a in actors}
    progress = True
    while progress:
        progress = False
        for a, evs in actors.items():
            while cursors[a] < len(evs):
                ev = evs[cursors[a]]
                srcs = incoming.get(ev, [])
                if any(s not in done for s in srcs):
                    break
                vc: dict[int, int] = {}
                if ev.aseq > 0:
                    vc.update(evs[ev.aseq - 1].vc)
                for s in srcs:
                    for k, v in s.vc.items():
                        if v > vc.get(k, 0):
                            vc[k] = v
                vc[a] = ev.aseq + 1
                ev.vc = vc
                done.add(ev)
                cursors[a] += 1
                progress = True
    # Any event never processed sits on a happens-before cycle -- possible
    # only for a corrupt log (dangling-edge / format findings will have
    # fired); leave its vc empty (treated as unordered, which is sound).


def ordered(e1: Event, e2: Event) -> bool:
    """True iff e1 happens-before e2 or e2 happens-before e1."""
    return (e2.vc.get(e1.actor, 0) >= e1.aseq + 1 or
            e1.vc.get(e2.actor, 0) >= e2.aseq + 1)


def check_accesses(path: Path, actors, findings: list[Finding]) -> None:
    # Per (object, owner) key, split accesses per actor (a single actor's
    # accesses are totally ordered by program order, so conflicts only
    # arise across actors).
    writes: dict[tuple[str, int], dict[int, list[Event]]] = {}
    reads: dict[tuple[str, int], dict[int, list[Event]]] = {}
    for evs in actors.values():
        for ev in evs:
            if ev.kind not in ("r", "w"):
                continue
            obj, owner = ev.args[0], int(ev.args[1])
            if obj != "mbox" and ev.actor != owner:
                findings.append(Finding(
                    "foreign-access", f"{path}:{ev.line}",
                    f"actor {ev.actor} accesses {obj}:{owner} "
                    f"(rank-sharding violation)"))
            table = writes if ev.kind == "w" else reads
            table.setdefault((obj, owner), {}).setdefault(
                ev.actor, []).append(ev)

    def first_unordered(la: list[Event], a: int, lb: list[Event], b: int):
        """First unordered pair between actor a's accesses `la` and actor
        b's accesses `lb` (each in program order), or None.  For a fixed
        event eb, the events of `la` not happening-before eb are the
        suffix aseq >= eb.vc[a], and within it vc[b] is non-decreasing --
        so only the suffix's first element can be unordered with eb."""
        from bisect import bisect_left
        aseqs = [ea.aseq for ea in la]
        for eb in lb:
            i = bisect_left(aseqs, eb.vc.get(a, 0))
            if i < len(la) and la[i].vc.get(b, 0) <= eb.aseq:
                return la[i], eb
        return None

    def report(rule: str, obj: str, owner: int, e1: Event, e2: Event):
        first, second = (e1, e2) if e1.line <= e2.line else (e2, e1)
        findings.append(Finding(
            rule, f"{path}:{second.line}",
            f"{second.kind} of {obj}:{owner} by actor {second.actor} "
            f"unordered with {first.kind} by actor {first.actor} "
            f"(line {first.line})"))

    keys = sorted(set(writes) | set(reads))
    for key in keys:
        obj, owner = key
        w_by = writes.get(key, {})
        r_by = reads.get(key, {})
        w_actors = sorted(w_by)
        # write/write (mbox exempt: cross-sender inserts commute)
        if obj != "mbox":
            for i, a in enumerate(w_actors):
                for b in w_actors[i + 1:]:
                    pair = first_unordered(w_by[a], a, w_by[b], b)
                    if pair:
                        report("unordered-write", obj, owner, *pair)
        # read/write (mbox included: a read racing an insert observes a
        # nondeterministic queue)
        for a in w_actors:
            for b in sorted(r_by):
                if a == b:
                    continue
                pair = first_unordered(w_by[a], a, r_by[b], b)
                if pair:
                    report("unordered-read-write", obj, owner, *pair)


def analyze(path: Path) -> list[Finding]:
    findings: list[Finding] = []
    actors = parse(path, findings)
    if actors is None:
        return findings
    edges = build_edges(path, actors, findings)
    compute_vcs(actors, edges)
    check_accesses(path, actors, findings)
    return findings


# ---------------------------------------------------------------------------
# Fixture self-test: every tools/hb_fixtures/*.hb declares its expected
# findings in `# HB-EXPECT: <rule>` comment lines (none = must pass clean).
# ---------------------------------------------------------------------------

def self_test(fixtures_dir: Path) -> int:
    failures = 0
    fixtures = sorted(fixtures_dir.glob("*.hb"))
    if not fixtures:
        print(f"self-test: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 1
    for fx in fixtures:
        expected: list[str] = []
        for line in fx.read_text().splitlines():
            if line.startswith("# HB-EXPECT:"):
                expected.append(line.split(":", 1)[1].strip())
        got = sorted(f.rule for f in analyze(fx))
        if got != sorted(expected):
            failures += 1
            print(f"self-test FAIL {fx.name}: expected rules "
                  f"{sorted(expected)}, got {got}", file=sys.stderr)
            for f in analyze(fx):
                print(f"    {f}", file=sys.stderr)
    total = len(fixtures)
    if failures:
        print(f"self-test: {failures}/{total} fixtures failed",
              file=sys.stderr)
        return 1
    print(f"self-test: {total} fixtures OK")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="kali happens-before determinism analyzer")
    ap.add_argument("logs", nargs="*", type=Path,
                    help="HB logs (kali-hb format) to analyze")
    ap.add_argument("--self-test", action="store_true",
                    help="run the analyzer against tools/hb_fixtures")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table (docs drift check)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test(Path(__file__).resolve().parent / "hb_fixtures")
    if not args.logs:
        ap.print_usage(sys.stderr)
        return 2

    nfind = 0
    for log in args.logs:
        findings = analyze(log)
        for f in findings:
            print(f)
        nfind += len(findings)
    if nfind:
        print(f"check_hb: {nfind} finding(s)", file=sys.stderr)
        return 1
    print(f"check_hb: {len(args.logs)} log(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
