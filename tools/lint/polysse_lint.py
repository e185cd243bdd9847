#!/usr/bin/env python3
"""polysse-lint: repo-invariant static analysis for the polysse tree.

Six checks, each encoding a cross-cutting invariant that grew out of the
PR history and that nothing in the compiler enforces:

  protocol-completeness  every MessageKind enumerator is wired through the
                         codec (protocol.cc), the serialized dispatch
                         (endpoint.cc), the socket client (socket_endpoint.cc)
                         and the fuzz battery (protocol_fuzz_test.cc); the
                         highest-valued kind must appear in socket_server.cc,
                         whose known-kind gate is a closed range.
  alloc-bomb             inside deserializers, a resize()/reserve() driven by
                         a wire-decoded count must be preceded by a
                         remaining-bytes bound (Plausible()/remaining()) so a
                         corrupt length can never become a giant allocation.
  layer-dag              #include edges between src/<layer>/ directories must
                         match the direct DEPS declared in each layer's
                         CMakeLists.txt, and the declared graph must be
                         acyclic.
  lock-discipline        no direct .lock()/.unlock()/.try_lock() calls
                         outside src/util/ — scoped RAII guards only.
  atomic-ordering        every load()/store()/exchange()/fetch_*() on a
                         std::atomic, and every ++/--/op= on one, must spell
                         out its std::memory_order (all knobs are relaxed by
                         decision, not by accident).
  ring-fork              in src/core/query_session.h and
                         src/core/store_registry.h, a code line that names
                         FpCyclotomicRing or ZQuotientRing, or holds
                         `if constexpr`: the walk and the server are each
                         one body over the ring's interface, and each real
                         difference between the rings is marked where it
                         forks.

Findings print as `path:line: [check] message` and exit status 1. A finding
is suppressed by putting `// polysse-lint: allow(<check>)` on the offending
line or the line directly above it.

Stdlib-only; run as `python3 tools/lint/polysse_lint.py [--root DIR]`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CHECKS = (
    "protocol-completeness",
    "alloc-bomb",
    "layer-dag",
    "lock-discipline",
    "atomic-ordering",
    "ring-fork",
)

SUPPRESS_RE = re.compile(r"polysse-lint:\s*allow\(([a-z\-,\s]+)\)")


@dataclass
class Finding:
    path: str  # repo-relative
    line: int  # 1-based
    check: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


class SourceFile:
    """One file plus the bookkeeping every check shares."""

    def __init__(self, root: str, relpath: str):
        self.relpath = relpath
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            self.lines = f.read().splitlines()

    def suppressed(self, lineno: int, check: str) -> bool:
        """True when line `lineno` (1-based) or the one above allows `check`."""
        for idx in (lineno - 1, lineno - 2):
            if 0 <= idx < len(self.lines):
                m = SUPPRESS_RE.search(self.lines[idx])
                if m and check in [c.strip() for c in m.group(1).split(",")]:
                    return True
        return False

    def code_lines(self):
        """Yields (lineno, text) with comments and string literals blanked,
        so patterns never match inside either."""
        yield from self._stripped(blank_strings=True)

    def raw_code_lines(self):
        """Like code_lines() but keeps string literals — for patterns that
        must see them (e.g. #include paths)."""
        yield from self._stripped(blank_strings=False)

    def _stripped(self, blank_strings: bool):
        in_block = False
        for i, raw in enumerate(self.lines, start=1):
            line = raw
            if in_block:
                end = line.find("*/")
                if end < 0:
                    yield i, ""
                    continue
                line = " " * (end + 2) + line[end + 2 :]
                in_block = False
            if blank_strings:
                # Naive but enough for this codebase: no multi-line raw
                # strings in lint scope.
                line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
            start = line.find("/*")
            while start >= 0:
                end = line.find("*/", start + 2)
                if end < 0:
                    line = line[:start]
                    in_block = True
                    break
                line = line[:start] + " " * (end + 2 - start) + line[end + 2 :]
                start = line.find("/*")
            cut = line.find("//")
            if cut >= 0:
                line = line[:cut]
            yield i, line


def walk_sources(root: str, subdir: str, exts=(".h", ".cc")):
    base = os.path.join(root, subdir)
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(exts):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def emit(findings, sf: SourceFile, lineno: int, check: str, message: str):
    if not sf.suppressed(lineno, check):
        findings.append(Finding(sf.relpath, lineno, check, message))


# --------------------------------------------------- protocol-completeness --

ENUM_RE = re.compile(r"enum\s+class\s+MessageKind\s*:\s*uint8_t\s*\{")
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,?")

# Everywhere a message kind must be wired through, relative to the root.
PROTOCOL_SITES = {
    "codec": "src/core/protocol.cc",
    "dispatch": "src/core/endpoint.cc",
    "socket client": "src/net/socket_endpoint.cc",
    "fuzz battery": "tests/protocol_fuzz_test.cc",
}
RANGE_GATE = "src/net/socket_server.cc"


def find_message_kind_enum(root: str):
    """Returns (SourceFile, [(name, value, lineno)]) or (None, [])."""
    for rel in walk_sources(root, "src/core", exts=(".h",)):
        sf = SourceFile(root, rel)
        enum_open = None
        kinds = []
        for lineno, line in sf.code_lines():
            if enum_open is None:
                if ENUM_RE.search(line):
                    enum_open = lineno
                continue
            if "}" in line:
                break
            m = ENUMERATOR_RE.match(line)
            if m:
                kinds.append((m.group(1), int(m.group(2)), lineno))
        if enum_open is not None:
            return sf, kinds
    return None, []


def check_protocol_completeness(root: str):
    findings = []
    sf, kinds = find_message_kind_enum(root)
    if sf is None:
        findings.append(
            Finding("src/core", 1, "protocol-completeness",
                    "no `enum class MessageKind : uint8_t` found under "
                    "src/core/*.h"))
        return findings
    if not kinds:
        findings.append(
            Finding(sf.relpath, 1, "protocol-completeness",
                    "MessageKind enum has no parsable `kName = N` entries"))
        return findings

    contents = {}
    for label, rel in {**PROTOCOL_SITES, "range gate": RANGE_GATE}.items():
        if os.path.exists(os.path.join(root, rel)):
            # Comment-stripped: a comment that merely mentions a kind is
            # not wiring.
            site = SourceFile(root, rel)
            contents[label] = "\n".join(
                line for _, line in site.raw_code_lines())
        else:
            contents[label] = None

    for name, _value, lineno in kinds:
        stem = name[1:]  # kEval -> Eval
        req = f"{stem}Request"
        requirements = [
            ("codec", f"{req}::Serialize",
             f"{req}::Serialize not defined in {PROTOCOL_SITES['codec']}"),
            ("codec", f"{req}::Deserialize",
             f"{req}::Deserialize not defined in {PROTOCOL_SITES['codec']}"),
            ("dispatch", f"case MessageKind::{name}",
             f"no `case MessageKind::{name}` in DispatchSerialized "
             f"({PROTOCOL_SITES['dispatch']})"),
            ("socket client", f"MessageKind::{name}",
             f"MessageKind::{name} never put on the wire by "
             f"{PROTOCOL_SITES['socket client']}"),
            ("fuzz battery", req,
             f"{req} has no corruption drill in "
             f"{PROTOCOL_SITES['fuzz battery']}"),
        ]
        for label, needle, message in requirements:
            text = contents[label]
            if text is None:
                emit(findings, sf, lineno, "protocol-completeness",
                     f"{name}: expected site file missing "
                     f"({PROTOCOL_SITES[label]})")
            elif needle not in text:
                emit(findings, sf, lineno, "protocol-completeness",
                     f"{name}: {message}")

    # The socket server accepts kinds by closed range [kEval, <max>]; adding
    # a kind without raising the bound silently drops it on the floor.
    max_kind = max(kinds, key=lambda k: k[1])
    gate = contents["range gate"]
    if gate is None:
        emit(findings, sf, max_kind[2], "protocol-completeness",
             f"range-gate file missing ({RANGE_GATE})")
    elif max_kind[0] not in gate:
        emit(findings, sf, max_kind[2], "protocol-completeness",
             f"{max_kind[0]} is the highest-valued MessageKind but never "
             f"appears in {RANGE_GATE} — its known-kind range gate would "
             f"reject the new kind as garbage")
    return findings


# ------------------------------------------------------------- alloc-bomb --

# Integer fields pulled off the wire. GetLengthPrefixed is excluded: it
# bounds the claimed length against remaining() internally.
DECODE_RE = re.compile(
    r"ASSIGN_OR_RETURN\(\s*(?:[\w:<>]+\s+)?(\w+)\s*,\s*"
    r"[\w.\->]+Get(?:Varint64|VarintSigned64|U8|U16|U32|U64)\s*\(")
PLAIN_DECODE_RE = re.compile(
    r"\b(\w+)\s*=\s*\*?[\w.\->]+Get(?:Varint64|VarintSigned64|U8|U16|U32|U64)"
    r"\s*\(")
ALLOC_RE = re.compile(r"[\w\]\)]\s*(?:\.|->)\s*(?:resize|reserve)\s*\(\s*(\w+)\s*\)")
GUARD_TOKENS = ("Plausible", "remaining")


def check_alloc_bomb(root: str):
    findings = []
    for rel in walk_sources(root, "src"):
        sf = SourceFile(root, rel)
        decoded = {}  # name -> guarded?
        for lineno, line in sf.code_lines():
            if line.startswith("}"):  # end of a top-level function
                decoded.clear()
                continue
            for regex in (DECODE_RE, PLAIN_DECODE_RE):
                for m in regex.finditer(line):
                    decoded[m.group(1)] = False
            if any(tok in line for tok in GUARD_TOKENS):
                for name in decoded:
                    if re.search(rf"\b{re.escape(name)}\b", line):
                        decoded[name] = True
            for m in ALLOC_RE.finditer(line):
                arg = m.group(1)
                if arg in decoded and not decoded[arg]:
                    emit(findings, sf, lineno, "alloc-bomb",
                         f"allocation sized by wire-decoded `{arg}` without a "
                         f"prior remaining-bytes bound (use Plausible() or "
                         f"compare against remaining() first)")
    return findings


# -------------------------------------------------------------- layer-dag --

ADD_LAYER_RE = re.compile(r"polysse_add_layer\s*\(\s*(\w+)([^)]*)\)", re.S)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(\w+)/')


def parse_layer_graph(root: str):
    """Returns {layer: set(direct deps)} from each src/*/CMakeLists.txt."""
    graph = {}
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        return graph
    for entry in sorted(os.listdir(src)):
        cml = os.path.join(src, entry, "CMakeLists.txt")
        if not os.path.isfile(cml):
            continue
        text = "\n".join(
            line.split("#", 1)[0] for line in
            open(cml, encoding="utf-8").read().splitlines())
        for m in ADD_LAYER_RE.finditer(text):
            name, body = m.group(1), m.group(2)
            deps = set()
            tokens = body.split()
            section = None
            for tok in tokens:
                if tok in ("SOURCES", "DEPS"):
                    section = tok
                elif section == "DEPS":
                    deps.add(tok)
            graph[name] = deps
    return graph


def check_layer_dag(root: str):
    findings = []
    graph = parse_layer_graph(root)
    if not graph:
        return findings

    # The declared graph itself must be acyclic.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {layer: WHITE for layer in graph}

    def dfs(layer, stack):
        color[layer] = GREY
        for dep in sorted(graph.get(layer, ())):
            if dep not in graph:
                continue
            if color[dep] == GREY:
                cycle = " -> ".join(stack + [layer, dep])
                findings.append(
                    Finding(f"src/{layer}/CMakeLists.txt", 1, "layer-dag",
                            f"declared dependency cycle: {cycle}"))
            elif color[dep] == WHITE:
                dfs(dep, stack + [layer])
        color[layer] = BLACK

    for layer in sorted(graph):
        if color[layer] == WHITE:
            dfs(layer, [])

    for layer in sorted(graph):
        allowed = graph[layer] | {layer}
        for rel in walk_sources(root, os.path.join("src", layer)):
            sf = SourceFile(root, rel)
            for lineno, line in sf.raw_code_lines():
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                target = m.group(1)
                if target in graph and target not in allowed:
                    emit(findings, sf, lineno, "layer-dag",
                         f"src/{layer}/ includes \"{target}/...\" but "
                         f"`{layer}` does not list `{target}` in DEPS "
                         f"(src/{layer}/CMakeLists.txt)")
    return findings


# -------------------------------------------------------- lock-discipline --

LOCK_CALL_RE = re.compile(r"[\w\]\)](?:\.|->)\s*(lock|unlock|try_lock)\s*\(\s*\)")


def check_lock_discipline(root: str):
    findings = []
    for rel in walk_sources(root, "src"):
        if rel.replace(os.sep, "/").startswith("src/util/"):
            continue  # the RAII primitives themselves live here
        sf = SourceFile(root, rel)
        for lineno, line in sf.code_lines():
            for m in LOCK_CALL_RE.finditer(line):
                emit(findings, sf, lineno, "lock-discipline",
                     f"direct .{m.group(1)}() call — use a scoped RAII guard "
                     f"(std::lock_guard / std::unique_lock / "
                     f"std::shared_lock) instead")
    return findings


# -------------------------------------------------------- atomic-ordering --

ATOMIC_DECL_RE = re.compile(r"std::atomic\s*<[^;{=>]*>\s+(\w+)\s*[;{=]")
ATOMIC_DECL2_RE = re.compile(
    r"std::atomic_(?:bool|char|int|uint|long|llong|size_t|ptrdiff_t|flag)"
    r"\s+(\w+)\s*[;{=]")
ATOMIC_OP_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_INC_RE = re.compile(r"(?:\+\+|--)\s*(\w+)\b|\b(\w+)\s*(?:\+\+|--)")
ATOMIC_COMPOUND_RE = re.compile(r"\b(\w+)\s*[+\-|&^]=[^=]")


SRC_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([\w/.\-]+)"')


def collect_atomic_scopes(root: str):
    """Atomic variable names visible per file: the names a file declares
    itself plus those declared in the src headers it (transitively)
    includes. Scoping by the include graph keeps a plain field that shares
    a name with some other file's atomic (e.g. `next`) from being flagged."""
    declared = {}  # rel -> set of names
    includes = {}  # rel -> set of src-relative header paths
    files = list(walk_sources(root, "src"))
    for rel in files:
        sf = SourceFile(root, rel)
        names = set()
        incs = set()
        for _, line in sf.code_lines():
            for regex in (ATOMIC_DECL_RE, ATOMIC_DECL2_RE):
                for m in regex.finditer(line):
                    names.add(m.group(1))
        for _, line in sf.raw_code_lines():
            m = SRC_INCLUDE_RE.match(line)
            if m:
                incs.add(os.path.join("src", m.group(1)))
        declared[rel] = names
        includes[rel] = incs

    scopes = {}
    for rel in files:
        seen = set()
        stack = [rel]
        visible = set()
        while stack:
            cur = stack.pop()
            if cur in seen or cur not in declared:
                continue
            seen.add(cur)
            visible |= declared[cur]
            stack.extend(includes[cur])
        scopes[rel] = visible
    return scopes


def call_args(sf: SourceFile, lineno: int, col: int) -> str:
    """The argument text of the call whose '(' sits at (lineno, col),
    joined across up to 6 lines."""
    text = sf.lines[lineno - 1][col:]
    for extra in range(lineno, min(lineno + 6, len(sf.lines))):
        depth = 0
        out = []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            if depth >= 1:
                out.append(ch)
        text += " " + sf.lines[extra]
    return text


def check_atomic_ordering(root: str):
    findings = []
    scopes = collect_atomic_scopes(root)
    for rel in walk_sources(root, "src"):
        atomics = scopes.get(rel, set())
        if not atomics:
            continue
        sf = SourceFile(root, rel)
        for lineno, line in sf.code_lines():
            for m in ATOMIC_OP_RE.finditer(line):
                name, op = m.group(1), m.group(2)
                if name not in atomics:
                    continue
                args = call_args(sf, lineno, m.end() - 1)
                if "memory_order" not in args:
                    emit(findings, sf, lineno, "atomic-ordering",
                         f"`{name}.{op}()` without an explicit "
                         f"std::memory_order argument — spell out the "
                         f"ordering (relaxed is a decision, not a default)")
            for m in ATOMIC_INC_RE.finditer(line):
                name = m.group(1) or m.group(2)
                if name in atomics:
                    emit(findings, sf, lineno, "atomic-ordering",
                         f"++/-- on atomic `{name}` is an implicit seq_cst "
                         f"RMW — use fetch_add/fetch_sub with an explicit "
                         f"std::memory_order")
            for m in ATOMIC_COMPOUND_RE.finditer(line):
                name = m.group(1)
                if name in atomics:
                    emit(findings, sf, lineno, "atomic-ordering",
                         f"compound assignment on atomic `{name}` is an "
                         f"implicit seq_cst RMW — use fetch_* with an "
                         f"explicit std::memory_order")
    return findings


# -------------------------------------------------------------- ring-fork --

# Each file written once over its ring, and what it is.
RING_FORK_FILES = {
    "src/core/query_session.h": "the walk",
    "src/core/store_registry.h": "the server",
}
RING_FORK_RE = re.compile(
    r"\b(FpCyclotomicRing|ZQuotientRing)\b|\bif\s+constexpr\b")


def check_ring_fork(root: str):
    findings = []
    for rel, body in RING_FORK_FILES.items():
        if not os.path.exists(os.path.join(root, rel)):
            continue
        sf = SourceFile(root, rel)
        for lineno, line in sf.code_lines():
            m = RING_FORK_RE.search(line)
            if m:
                emit(findings, sf, lineno, "ring-fork",
                     f"`{m.group(0)}` forks {body} on its ring — write the "
                     f"step once over the ring's interface, or mark a real "
                     f"difference with its reason")
    return findings


# ------------------------------------------------------------------ driver --

CHECK_FUNCS = {
    "protocol-completeness": check_protocol_completeness,
    "alloc-bomb": check_alloc_bomb,
    "layer-dag": check_layer_dag,
    "lock-discipline": check_lock_discipline,
    "atomic-ordering": check_atomic_ordering,
    "ring-fork": check_ring_fork,
}


def run_checks(root: str, checks=CHECKS):
    findings = []
    for check in checks:
        findings.extend(CHECK_FUNCS[check](root))
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def default_root() -> str:
    return os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=default_root(),
                        help="repo root to analyze (default: two levels up "
                             "from this script)")
    parser.add_argument("--checks", default=",".join(CHECKS),
                        help="comma-separated subset of checks to run")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the available checks and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in CHECKS:
            print(check)
        return 0

    selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    for check in selected:
        if check not in CHECK_FUNCS:
            print(f"polysse-lint: unknown check '{check}' "
                  f"(see --list-checks)", file=sys.stderr)
            return 2
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"polysse-lint: no src/ under --root {args.root}",
              file=sys.stderr)
        return 2

    findings = run_checks(args.root, selected)
    for f in findings:
        print(f)
    if findings:
        print(f"polysse-lint: {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"polysse-lint: clean ({', '.join(selected)})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
