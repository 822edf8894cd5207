#!/usr/bin/env python3
"""Determinism lint for the kali tree.

The machine model's correctness claims (bit-identical clocks across runs
and thread interleavings, docs/machine-model.md) rest on invariants the
compiler never checks.  This linter enforces the written rules:

  raw-tag        Message tags in runtime/kernel code must be derived from
                 the reserved-tag registry (src/machine/message.hpp), never
                 ad-hoc integer literals; application (solver/example) tag
                 constants must stay below kRuntimeTagBase (1 << 20).
  unordered-container
                 No std::unordered_{map,set,multimap,multiset} in
                 src/machine/ or src/runtime/: hash-table iteration order
                 can feed clocks, payload order, or stats output.
  wall-clock     No wall-clock or nondeterministic randomness
                 (steady_clock/system_clock/rand()/std::random_device/...)
                 in src/machine/ or src/runtime/ simulator code paths.
  layering       Include-graph layering: machine must not include
                 runtime/kernels/solvers/metrics headers; runtime must not
                 include kernels/solvers; and so on down the layer DAG.
  raw-thread     In src/machine/, no raw host-threading primitives
                 (std::thread, std::condition_variable, thread_local)
                 outside machine/scheduler.cpp: simulated ranks are
                 cooperatively scheduled fibers, and stray OS-thread
                 machinery either breaks determinism or silently revives
                 the thread-per-rank model the scheduler replaced.
  raw-exchange   No ctx.send*/recv* call in src/runtime/: every exchange
                 goes through detail::exchange_begin
                 (machine/schedule.hpp), so it obeys one issue-order rule
                 and finishes in one batched receive.  Not waivable: a
                 waiver pragma naming this rule in src/runtime/ is itself
                 a finding.
  collective-symmetry
                 In src/runtime/, src/kernels/, and src/solvers/, no
                 collective or barrier call (barrier/sync_clocks/
                 allreduce*/broadcast/reduce/gather/all_gather/
                 exchange_halo) nested under a rank-dependent conditional:
                 a collective only some group members enter deadlocks the
                 rest (the wait-for-graph detector catches it at run time;
                 this catches it at lint time).
  shared-state   Processor cost-model mutators and ledger accessors
                 (set_clock/realign_clock/set_*_link_free/reserve_edge/
                 clear_link_state/bump_barrier_epoch/out_edge_free/
                 edge_ledger) may be called only from the sanctioned
                 machine-layer files (context.cpp, collectives.cpp,
                 processor.hpp): anywhere
                 else, a rank mutating simulator state -- possibly a
                 *peer's* -- bypasses the rank-sharding contract the
                 happens-before analyzer (tools/check_hb.py) checks at
                 run time.  Name-based, so it also catches mutations of
                 foreign processors via Machine::proc(r).

A finding (of any rule but raw-exchange) can be waived in place with a
reasoned pragma on the same line or the line above:

    // kali-lint: allow(raw-thread) — harness-side watchdog, outside any rank

Modes:
    lint_kali.py [--root DIR]      lint DIR/src (default: repo root)
    lint_kali.py --self-test       run over tools/lint_fixtures/ and check
                                   findings match the // LINT-EXPECT: <rule>
                                   markers exactly, line by line
    lint_kali.py --list-rules      print rule ids (docs drift check)
"""

import argparse
import os
import re
import sys

RULES = (
    "raw-tag",
    "unordered-container",
    "wall-clock",
    "raw-thread",
    "layering",
    "raw-exchange",
    "collective-symmetry",
    "shared-state",
)

# Layer DAG: which layers each layer's headers may include.  `support` is
# the shared leaf; metrics reads machine topology/config but not the
# runtime or solver layers.
LAYER_ALLOWED = {
    "machine": {"machine", "support"},
    "runtime": {"machine", "runtime", "support"},
    "kernels": {"machine", "runtime", "kernels", "support"},
    "solvers": {"machine", "runtime", "kernels", "solvers", "support"},
    "metrics": {"machine", "metrics", "support"},
    "support": {"support"},
}

ALLOW_RE = re.compile(r"kali-lint:\s*allow\(([a-z-]+)\)")
EXPECT_RE = re.compile(r"LINT-EXPECT:\s*([a-z-]+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
TAG_DEF_RE = re.compile(r"\bconstexpr\s+int\s+(kTag\w*)\s*=\s*([^;]+);")
# A send/recv call whose tag argument (second) is a bare integer literal.
LITERAL_TAG_CALL_RE = re.compile(
    r"\.\s*(?:send|send_span|send_bytes|recv|recv_vec|recv_into|recv_message|probe)"
    r"\s*(?:<[^()]*>)?\(\s*[^,()]+,\s*\d+\s*[,)]"
)
UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b")
RAW_THREAD_RE = re.compile(
    r"\bstd::(?:thread|jthread|condition_variable(?:_any)?)\b"
    r"|\bthread_local\b"
    r"|^\s*#\s*include\s*<(?:thread|condition_variable)>")
WALL_CLOCK_RES = (
    re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
    re.compile(r"\bstd::random_device\b"),
    re.compile(r"(?<![\w:])s?rand\s*\("),
    re.compile(r"\bgettimeofday\b"),
    re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
)
CTX_CALL_RE = re.compile(r"\bctx_?(?:\.|->)\s*(?:send|recv)\w*\s*(?:<[^()]*>)?\(")
# A call into the collectives layer (or a collective-shaped runtime entry
# point).  `gather` is anchored so `all_gather` is not double-counted, and
# the call parenthesis keeps `exchange_halo` from matching
# `exchange_halo_begin`.
COLLECTIVE_CALL_RE = re.compile(
    r"\b(?:barrier|sync_clocks|allreduce(?:_sum|_max)?|broadcast|reduce"
    r"|gather|all_gather|exchange_halo)\s*\(")
CONDITIONAL_RE = re.compile(r"\b(?:if|while|for|switch)\s*\(")
# Member calls that mutate (or hand out mutable views of) a Processor's
# rank-sharded cost-model state.
SHARED_STATE_RE = re.compile(
    r"(?:\.|->)\s*(?:set_clock|realign_clock|set_out_link_free|"
    r"set_in_link_free|reserve_edge|clear_link_state|"
    r"bump_barrier_epoch|out_edge_free|edge_ledger)\s*\(")
# The files the machine model sanctions to touch that state: the cost
# model itself, the sync_clocks barrier, and the Processor definition.
SHARED_STATE_SANCTIONED = {
    "src/machine/context.cpp",
    "src/machine/collectives.cpp",
    "src/machine/processor.hpp",
}
# Tokens that make a conditional rank-dependent: the SPMD rank, a member
# index, or a processor-grid coordinate.  View membership alone
# (v.contains(...)) is deliberately not matched — calling a collective on a
# view one belongs to is the correct pattern.
RANK_TOKEN_RE = re.compile(
    r"\brank\b|\.rank\s*\(\)|->rank\s*\(\)|\.index\s*\(\)|"
    r"\bmy_coord\b|\bview_coord\b")


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_code(line):
    """Drop string/char literals and line comments so patterns only match
    code.  Block comments are handled per-file in load_lines."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'(?:[^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def load_lines(path):
    """Returns (raw_lines, code_lines) with block comments blanked in the
    code view (raw view keeps pragmas and LINT-EXPECT markers visible)."""
    with open(path, encoding="utf-8") as f:
        raw = f.read().splitlines()
    code = []
    in_block = False
    for line in raw:
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            else:
                start = line.find("/*", i)
                if start < 0:
                    out.append(line[i:])
                    i = len(line)
                else:
                    out.append(line[i:start])
                    in_block = True
                    i = start + 2
        code.append(strip_code("".join(out)))
    return raw, code


def layer_of(relpath):
    parts = relpath.replace(os.sep, "/").split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def registry_symbols(root):
    """Constant names defined in the reserved-tag registry."""
    path = os.path.join(root, "src", "machine", "message.hpp")
    syms = set()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for m in re.finditer(r"\bconstexpr\s+int\s+(k\w+)\s*=", f.read()):
                syms.add(m.group(1))
    return syms


def eval_int_expr(expr):
    """Value of a tag initializer built purely from integer literals and
    arithmetic/shift/bit operators, or None if anything else appears."""
    if not re.fullmatch(r"[0-9xXa-fA-F\s()+\-*|&<>]*", expr):
        return None
    # Reject comparison operators while letting << / >> shifts through: a
    # lone < or > (no shift partner on either side) is a comparison.
    if re.search(r"(?<![<>])<(?!<)|(?<![<>])>(?!>)", expr):
        return None
    try:
        return eval(expr, {"__builtins__": {}}, {})  # literal-only, filtered above
    except Exception:
        return None


def lint_file(root, relpath, findings):
    layer = layer_of(relpath)
    if layer is None:
        return
    path = os.path.join(root, relpath)
    raw, code = load_lines(path)
    registry = registry_symbols(root)
    is_registry = relpath.replace(os.sep, "/") == "src/machine/message.hpp"

    def allowed(idx, rule):
        """A waiver pragma covers its own line, or a flagged line below it
        separated only by comment/blank lines."""
        j = idx
        while j >= 0:
            m = ALLOW_RE.search(raw[j])
            if m and m.group(1) == rule:
                return True
            j -= 1
            if j < 0 or code[j].strip():  # previous line has real code: stop
                return False
        return False

    def report(idx, rule, msg):
        if not allowed(idx, rule):
            findings.append(Finding(relpath, idx + 1, rule, msg))

    # --- layering -----------------------------------------------------------
    # The code view blanks string literals (taking the include path with
    # them), so match the raw line — but only where the code view still
    # shows a live preprocessor directive, which skips commented-out
    # includes in both // and /* */ comments.
    for i, line in enumerate(code):
        if not line.lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(raw[i])
        if not m:
            continue
        inc_layer = m.group(1).split("/", 1)[0]
        if inc_layer in LAYER_ALLOWED and inc_layer not in LAYER_ALLOWED[layer]:
            report(i, "layering",
                   f'{layer}/ must not include "{m.group(1)}" '
                   f"({layer} -> {inc_layer} breaks the layer DAG)")

    # --- unordered-container / wall-clock (machine + runtime only) ----------
    if layer in ("machine", "runtime"):
        for i, line in enumerate(code):
            if UNORDERED_RE.search(line):
                report(i, "unordered-container",
                       "hash containers are banned in machine/runtime: "
                       "iteration order could feed clocks, payload order, "
                       "or stats output")
            for pat in WALL_CLOCK_RES:
                if pat.search(line):
                    report(i, "wall-clock",
                           "wall-clock / nondeterministic randomness in "
                           "simulator code: clocks must be pure functions "
                           "of the simulated program")
                    break

    # --- raw-thread (machine only; the fiber scheduler itself is exempt) ----
    if layer == "machine" and \
            not relpath.replace(os.sep, "/").endswith("machine/scheduler.cpp"):
        for i, line in enumerate(code):
            if RAW_THREAD_RE.search(line):
                report(i, "raw-thread",
                       "raw host-threading primitive in the machine layer: "
                       "ranks are cooperatively scheduled fibers; worker "
                       "threads live only in machine/scheduler.cpp")

    # --- raw-tag ------------------------------------------------------------
    if not is_registry:
        for i, line in enumerate(code):
            for m in TAG_DEF_RE.finditer(line):
                name, init = m.group(1), m.group(2).strip()
                if layer in ("machine", "runtime", "kernels", "metrics"):
                    if not any(re.search(rf"\b{re.escape(s)}\b", init)
                               for s in registry):
                        report(i, "raw-tag",
                               f"{name} must be derived from the reserved-tag "
                               "registry (machine/message.hpp), not raw "
                               f"literals: `{init}`")
                else:  # solvers: user band only
                    val = eval_int_expr(init)
                    if val is None or val >= (1 << 20):
                        report(i, "raw-tag",
                               f"application tag {name} = `{init}` must be a "
                               "plain literal below kRuntimeTagBase (1 << 20)")
            if layer in ("machine", "runtime", "kernels") and \
                    LITERAL_TAG_CALL_RE.search(line):
                report(i, "raw-tag",
                       "integer-literal message tag at a send/recv call "
                       "site; use a registered kTag* constant")

    # --- collective-symmetry (layers above machine) -------------------------
    # Flag collective/barrier calls nested under rank-dependent conditionals:
    # every member of the group must reach a collective, so gating one on
    # the caller's rank/index/grid coordinate deadlocks the rest.  The
    # machine layer itself is exempt (the collectives' tree implementations
    # legitimately branch on the member index).
    if layer in ("runtime", "kernels", "solvers"):
        guard_stack = []  # brace depths at which a rank-guard opened
        pending_guard = False  # unbraced guard: covers the next code line
        depth = 0
        for i, line in enumerate(code):
            is_guard = bool(CONDITIONAL_RE.search(line) and
                            RANK_TOKEN_RE.search(line))
            if (guard_stack or pending_guard or is_guard) and \
                    COLLECTIVE_CALL_RE.search(line):
                report(i, "collective-symmetry",
                       "collective/barrier call under a rank-dependent "
                       "conditional: members skipping it deadlock the rest "
                       "of the group")
            if pending_guard:
                if "{" in line:
                    guard_stack.append(depth)
                    pending_guard = False
                elif line.strip():  # the single guarded statement
                    pending_guard = False
            if is_guard:
                if "{" in line:
                    guard_stack.append(depth)
                else:
                    pending_guard = True
            depth += line.count("{") - line.count("}")
            while guard_stack and depth <= guard_stack[-1] and "}" in line:
                guard_stack.pop()

    # --- shared-state (everywhere except the sanctioned mutator files) ------
    if relpath.replace(os.sep, "/") not in SHARED_STATE_SANCTIONED:
        for i, line in enumerate(code):
            m = SHARED_STATE_RE.search(line)
            if m:
                report(i, "shared-state",
                       "Processor cost-model mutator outside the sanctioned "
                       "files (context.cpp/collectives.cpp/machine.cpp/"
                       "processor.hpp): rank-sharded simulator state must "
                       "not be poked ad hoc")

    # --- raw-exchange (runtime only; no waiver) ------------------------------
    if layer == "runtime":
        for i, line in enumerate(code):
            m = ALLOW_RE.search(raw[i])
            if CTX_CALL_RE.search(line):
                findings.append(Finding(
                    relpath, i + 1, "raw-exchange",
                    "direct ctx send/recv in runtime code: exchanges must "
                    "go through detail::exchange_begin "
                    "(machine/schedule.hpp)"))
            elif m and m.group(1) == "raw-exchange":
                findings.append(Finding(
                    relpath, i + 1, "raw-exchange",
                    "raw-exchange cannot be waived in src/runtime/"))


def collect_sources(root):
    out = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(out)


def run_lint(root):
    findings = []
    for rel in collect_sources(root):
        lint_file(root, rel, findings)
    return findings


def self_test(repo_root):
    root = os.path.join(repo_root, "tools", "lint_fixtures")
    findings = run_lint(root)
    actual = {(f.path.replace(os.sep, "/"), f.line, f.rule) for f in findings}
    expected = set()
    for rel in collect_sources(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for i, line in enumerate(f.read().splitlines()):
                for m in EXPECT_RE.finditer(line):
                    expected.add((rel.replace(os.sep, "/"), i + 1, m.group(1)))
    ok = True
    for miss in sorted(expected - actual):
        print(f"SELF-TEST MISS: expected finding not produced: {miss}")
        ok = False
    for extra in sorted(actual - expected):
        print(f"SELF-TEST EXTRA: unexpected finding: {extra}")
        ok = False
    if ok:
        print(f"lint self-test OK ({len(expected)} expected findings, "
              f"{len(set(r for _, _, r in expected))} rules exercised)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()
    if args.list_rules:
        print("\n".join(RULES))
        return 0
    if args.self_test:
        return self_test(args.root)
    findings = run_lint(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint FAILED: {len(findings)} finding(s)")
        return 1
    print("lint OK (rules: " + ", ".join(RULES) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
