#!/usr/bin/env python3
"""Async-signal-safety gate over psmgen's signal handlers.

POSIX allows only a short list of functions inside a signal handler
(signal-safety(7)); everything else — allocation, stdio, blocking locks,
``dladdr``, the demangler — can deadlock or corrupt state when the
signal lands inside the very function it then re-enters. psmgen has
three handlers, and this gate proves at build time that none of them can
*reach* a banned function, transitively, through any call chain:

* ``profilerSignalHandler`` (src/obs/profiler.cpp) — the SIGPROF tick.
  Runs at up to 997 Hz on every sampled thread; the strictest contract
  (``strict`` policy): no allocation, no stdio, no locks of any kind, no
  static-local guards, no symbolization.
* ``handleShutdownSignal`` (src/tools/psmgen_cli.cpp) — SIGINT/SIGTERM.
  Same ``strict`` policy; it must stay a bare atomic store.
* ``fatalSignalHandler`` (src/obs/flight_recorder.cpp) — SIGSEGV and
  friends. The process is already dying, so its documented contract
  (``dump`` policy) trades purity for a best-effort flight-recorder
  dump guarded by an ``alarm(5)`` watchdog: allocation and file I/O are
  accepted, but *blocking* lock acquisition (only try-locks may appear),
  the logger/metrics registry, and ``dladdr``/``__cxa_demangle`` stay
  banned — those are the calls that turn "crash with a dump" into
  "hang forever in a crash handler".

Mechanics: each handler's translation unit is compiled to a call-graph-
bearing intermediate form — LLVM IR (``clang++ -S -emit-llvm``) when a
clang is available, otherwise assembly (``g++ -S -O0``, every call
explicit, nothing inlined) — the per-TU graphs are merged so cross-TU
edges resolve, and a BFS from each handler reports the full call chain
to any banned symbol. Indirect calls through function pointers are
invisible to both backends; the handlers do not make any (enforced by
eyeball + the tests, not this gate).

Usage::

    scripts/signal_safety_gate.py --build-dir build
    scripts/signal_safety_gate.py --build-dir build --compiler g++
    scripts/signal_safety_gate.py --self-test-only

Like the other gates, it self-tests by default: a synthetic handler
that calls ``malloc`` through an intermediate function must FAIL the
analysis, and a bare atomic-store handler must PASS — so a silently
neutered parser cannot keep the gate green. ``--no-self-test`` skips it.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ---------------------------------------------------------------------------
# Policies: which symbols a handler's transitive call graph must not touch.
# Matching happens on the raw (mangled) symbol for C names and on the
# demangled name for C++ entities, so the lists stay readable.

#: Banned under every policy and also under ``dump``: calls that can
#: block or self-deadlock forever, and symbolization (dladdr walks the
#: loader's tables under the loader lock; __cxa_demangle allocates and
#: recurses unboundedly on crafted names).
BLOCKING_RAW = {
    "pthread_mutex_lock",
    "pthread_cond_wait",
    "pthread_cond_timedwait",
    "pthread_rwlock_rdlock",
    "pthread_rwlock_wrlock",
    "pthread_join",
    "dladdr",
    "__cxa_demangle",
}

#: Additional bans for the ``strict`` policy: allocation, stdio, and the
#: C++ static-local initialization guard (it takes a futex).
STRICT_RAW = BLOCKING_RAW | {
    "malloc", "calloc", "realloc", "free",
    "posix_memalign", "aligned_alloc",
    "printf", "fprintf", "sprintf", "snprintf",
    "vprintf", "vfprintf", "vsnprintf",
    "puts", "fputs", "putchar", "fputc", "fwrite", "fflush",
    "fopen", "fclose",
    "__cxa_guard_acquire", "__cxa_guard_release",
    "exit", "getenv", "syslog",
    "pthread_cond_signal", "pthread_cond_broadcast",
}

#: Demangled-name substrings banned under ``strict``: any C++ heap or
#: iostream entity.
STRICT_DEMANGLED = (
    "operator new",
    "operator delete",
    "std::basic_ostream",
    "std::basic_string",
)

#: Demangled-name substrings banned under ``dump`` (beyond BLOCKING_RAW):
#: the observability stack itself. The fatal handler must never re-enter
#: the logger or the metrics registry — both take blocking locks, and the
#: crash may *be* inside them.
DUMP_DEMANGLED = (
    "psmgen::obs::Logger",
    "psmgen::obs::log(",
    "psmgen::obs::info(",
    "psmgen::obs::warn(",
    "psmgen::obs::error(",
    "psmgen::obs::Registry",
    "psmgen::obs::registry(",
    "psmgen::obs::counter(",
    "psmgen::obs::gauge(",
    "psmgen::obs::histogram(",
)

POLICIES = {
    "strict": {"raw": STRICT_RAW, "demangled": STRICT_DEMANGLED},
    "dump": {"raw": BLOCKING_RAW, "demangled": DUMP_DEMANGLED},
}

#: The real handlers. ``name`` is a substring matched against the
#: (mangled or demangled) symbol of a *defined* function; a root that
#: cannot be found fails the gate, so a rename cannot silently neuter it.
ROOTS = (
    {"name": "profilerSignalHandler", "tu": "src/obs/profiler.cpp",
     "policy": "strict"},
    {"name": "handleShutdownSignal", "tu": "src/tools/psmgen_cli.cpp",
     "policy": "strict"},
    {"name": "fatalSignalHandler", "tu": "src/obs/flight_recorder.cpp",
     "policy": "dump"},
)

#: Every TU whose definitions should be visible to the graph walk. The
#: handler TUs themselves, plus the TUs their chains cross into.
ANALYSIS_TUS = (
    "src/obs/profiler.cpp",
    "src/obs/flight_recorder.cpp",
    "src/tools/psmgen_cli.cpp",
)


# ---------------------------------------------------------------------------
# Call-graph extraction

def find_compiler(requested):
    """Picks the analysis compiler: clang (LLVM IR) wins when present."""
    if requested != "auto":
        if shutil.which(requested) is None:
            raise RuntimeError(f"requested compiler {requested!r} not found")
        return requested
    for candidate in ("clang++", "g++", "c++"):
        if shutil.which(candidate):
            return candidate
    raise RuntimeError("no C++ compiler found (tried clang++, g++, c++)")


def is_clang(compiler):
    return "clang" in os.path.basename(compiler)


def compile_tu(compiler, tu, include_dirs, out_dir):
    """Compiles one TU to LLVM IR (clang) or assembly (gcc).

    -O0 under gcc keeps every call an explicit ``call`` instruction —
    nothing is inlined, no sibling-call ``jmp``s — so the parsed graph
    is a faithful superset of the runtime one. clang gets -O1 so the IR
    stays small while calls remain visible as ``call``/``invoke``.
    """
    suffix = ".ll" if is_clang(compiler) else ".s"
    out = os.path.join(
        out_dir, os.path.basename(tu).replace(".cpp", suffix))
    cmd = [compiler, "-std=c++20", "-S"]
    if is_clang(compiler):
        cmd += ["-emit-llvm", "-O1",
                "-fno-discard-value-names"]
    else:
        cmd += ["-O0"]
    for inc in include_dirs:
        cmd += ["-I", inc]
    cmd += ["-o", out, tu]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"compiling {tu} for analysis failed:\n{proc.stderr}")
    return out


# LLVM IR: a definition opens with `define ... @sym(` and closes at `}`;
# call sites are `call`/`invoke` followed (possibly after a type) by
# `@sym(`. Quoted symbol names (rare, from -fno-discard-value-names
# artifacts) are handled too.
IR_DEFINE = re.compile(r'^define\b.*?@("?)([\w$.\-]+)\1\s*\(')
IR_CALL = re.compile(r'\b(?:call|invoke)\b[^@\n]*@("?)([\w$.\-]+)\1\s*\(')

# GCC assembly: `.type sym, @function` declares, `sym:` opens, and call
# sites are `call sym` / `call sym@PLT` (x86) or `bl sym` (aarch64).
# Local labels (.L*) are control flow, not calls.
ASM_TYPE = re.compile(r'^\s*\.type\s+([\w$.]+),\s*[@%]function')
ASM_LABEL = re.compile(r'^([\w$.]+):')
ASM_CALL = re.compile(r'^\s*(?:call[ql]?|bl)\s+([\w$.]+)(?:@[\w]+)?\s*$')
ASM_TAILJMP = re.compile(r'^\s*jmp\s+([A-Za-z_][\w$.]*)(?:@[\w]+)?\s*$')


def parse_ir(path, graph, defined):
    """Folds one LLVM IR file into {caller: set(callees)} / defined set."""
    current = None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            m = IR_DEFINE.match(line)
            if m:
                current = m.group(2)
                defined.add(current)
                graph.setdefault(current, set())
                continue
            if line.startswith("}"):
                current = None
                continue
            if current is None:
                continue
            for m in IR_CALL.finditer(line):
                callee = m.group(2)
                if not callee.startswith("llvm."):
                    graph[current].add(callee)


def parse_asm(path, graph, defined):
    """Folds one GCC assembly file into the same graph shape."""
    functions = set()
    lines = []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            lines.append(line)
            m = ASM_TYPE.match(line)
            if m:
                functions.add(m.group(1))
    current = None
    for line in lines:
        m = ASM_LABEL.match(line)
        if m and m.group(1) in functions:
            current = m.group(1)
            defined.add(current)
            graph.setdefault(current, set())
            continue
        if current is None:
            continue
        m = ASM_CALL.match(line) or ASM_TAILJMP.match(line)
        if m and not m.group(1).startswith(".L"):
            graph[current].add(m.group(1))


def demangle_all(symbols):
    """{mangled: demangled} via c++filt/llvm-cxxfilt, batch over stdin."""
    tool = shutil.which("c++filt") or shutil.which("llvm-cxxfilt")
    ordered = sorted(symbols)
    if tool is None or not ordered:
        return {s: s for s in ordered}
    proc = subprocess.run([tool], input="\n".join(ordered) + "\n",
                          capture_output=True, text=True)
    out = proc.stdout.splitlines()
    if proc.returncode != 0 or len(out) != len(ordered):
        return {s: s for s in ordered}
    return dict(zip(ordered, out))


# ---------------------------------------------------------------------------
# The walk

def banned_reason(symbol, demangled, policy):
    """Why `symbol` is banned under `policy`, or None if it is not."""
    base = symbol.split("@", 1)[0]
    if base in policy["raw"]:
        return f"banned function {base!r}"
    # Placement new/delete construct into caller-provided storage — no
    # allocation happens, so they are signal-safe and exempt.
    if demangled.startswith("operator new") or \
            demangled.startswith("operator delete"):
        if ", void*)" in demangled or demangled.endswith("(void*, void*)"):
            return None
    for needle in policy["demangled"]:
        if needle in demangled:
            return f"banned entity {needle!r} (via {demangled})"
    return None


def walk(root_symbol, graph, demangled, policy):
    """BFS from `root_symbol`; returns a list of violation chains.

    A chain is [root, ..., banned_symbol], demangled for display.
    """
    violations = []
    parent = {root_symbol: None}
    queue = [root_symbol]
    while queue:
        caller = queue.pop(0)
        for callee in sorted(graph.get(caller, ())):
            reason = banned_reason(
                callee, demangled.get(callee, callee), policy)
            if reason is not None:
                chain = [callee]
                node = caller
                while node is not None:
                    chain.append(node)
                    node = parent[node]
                chain.reverse()
                violations.append(
                    ([demangled.get(s, s) for s in chain], reason))
                continue
            if callee not in parent and callee in graph:
                parent[callee] = caller
                queue.append(callee)
    return violations


def find_roots(pattern, defined, demangled):
    """Defined symbols whose raw or demangled name contains `pattern`.

    GCC names each TU's static-initializer function after its first
    symbol (``_GLOBAL__sub_I_<sym>``); that is initialization code, not
    the handler, so it is excluded from root matching.
    """
    return sorted(
        s for s in defined
        if (pattern in s or pattern in demangled.get(s, ""))
        and not s.startswith("_GLOBAL__sub_I")
        and "static_initialization" not in demangled.get(s, ""))


def analyze(compiler, tus, include_dirs, roots, keep_dir=None):
    """Compiles `tus`, merges their call graphs, walks every root.

    Returns (failed, report_lines).
    """
    graph = {}
    defined = set()
    tmp = keep_dir or tempfile.mkdtemp(prefix="signal_safety_gate.")
    try:
        for tu in tus:
            out = compile_tu(compiler, tu, include_dirs, tmp)
            if is_clang(compiler):
                parse_ir(out, graph, defined)
            else:
                parse_asm(out, graph, defined)
    finally:
        if keep_dir is None:
            shutil.rmtree(tmp, ignore_errors=True)

    symbols = set(defined)
    for callees in graph.values():
        symbols.update(callees)
    demangled = demangle_all(symbols)

    failed = False
    lines = []
    for root in roots:
        policy = POLICIES[root["policy"]]
        matches = find_roots(root["name"], defined, demangled)
        if not matches:
            failed = True
            lines.append(
                f"FAIL: root {root['name']!r} not found among the defined "
                f"functions of {', '.join(tus)} — was the handler renamed? "
                "Update ROOTS in scripts/signal_safety_gate.py.")
            continue
        for symbol in matches:
            violations = walk(symbol, graph, demangled, policy)
            pretty = demangled.get(symbol, symbol)
            if violations:
                failed = True
                lines.append(f"FAIL: {pretty} [{root['policy']}]: "
                             f"{len(violations)} banned call path(s):")
                for chain, reason in violations:
                    lines.append("    " + " -> ".join(chain))
                    lines.append(f"      ({reason})")
            else:
                reach = len(reachable(symbol, graph))
                lines.append(f"ok: {pretty} [{root['policy']}] — "
                             f"{reach} reachable function(s), none banned")
    return failed, lines


def reachable(root, graph):
    """All symbols reachable from `root` (for the ok-line count)."""
    seen = {root}
    queue = [root]
    while queue:
        for callee in graph.get(queue.pop(), ()):
            if callee not in seen:
                seen.add(callee)
                if callee in graph:
                    queue.append(callee)
    return seen


# ---------------------------------------------------------------------------
# Self-test: the gate must trip on a seeded violation and pass a clean
# handler, or it is not actually checking anything.

TRIP_TU = r"""
#include <cstdlib>
// Seeded violation: the handler reaches malloc through an intermediate
// function, so the self-test also proves the walk is transitive.
namespace { void* intermediateAllocation() { return std::malloc(32); } }
extern "C" void selfTestTripHandler(int) {
    void* p = intermediateAllocation();
    static_cast<void>(p);
}
// Anchor so the anonymous-namespace function is not discarded.
void* selfTestAnchor() { return intermediateAllocation(); }
extern "C" void (*selfTestKeep())(int) { return &selfTestTripHandler; }
"""

CLEAN_TU = r"""
#include <atomic>
namespace { std::atomic<bool> g_flag{false}; }
extern "C" void selfTestCleanHandler(int) {
    g_flag.store(true, std::memory_order_relaxed);
}
extern "C" void (*selfTestKeepClean())(int) { return &selfTestCleanHandler; }
"""


def self_test(compiler):
    """Runs the analyzer on the seeded and clean TUs; True when sound."""
    with tempfile.TemporaryDirectory() as tmp:
        trip = os.path.join(tmp, "trip.cpp")
        clean = os.path.join(tmp, "clean.cpp")
        with open(trip, "w", encoding="utf-8") as f:
            f.write(TRIP_TU)
        with open(clean, "w", encoding="utf-8") as f:
            f.write(CLEAN_TU)
        trip_roots = ({"name": "selfTestTripHandler", "tu": trip,
                       "policy": "strict"},)
        clean_roots = ({"name": "selfTestCleanHandler", "tu": clean,
                        "policy": "strict"},)
        tripped, trip_lines = analyze(compiler, [trip], [], trip_roots)
        passed_clean, _ = analyze(compiler, [clean], [], clean_roots)
    if not tripped:
        print("FAIL: self-test: a handler that calls malloc through an "
              "intermediate function PASSED the gate — the call-graph "
              "extraction is broken for this compiler")
        return False
    if not any("malloc" in line for line in trip_lines):
        print("FAIL: self-test: violation detected but malloc is not in "
              "the reported chain")
        for line in trip_lines:
            print("    " + line)
        return False
    if passed_clean:
        print("FAIL: self-test: a bare atomic-store handler FAILED the "
              "gate — the ban list is matching innocent symbols")
        return False
    print("self-test OK: seeded malloc chain rejected, "
          "atomic-store handler accepted")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="CMake build dir (for generated/ headers; "
                             "default: build)")
    parser.add_argument("--compiler", default="auto",
                        help="analysis compiler (default: clang++ if "
                             "present, else g++)")
    parser.add_argument("--no-self-test", action="store_true",
                        help="skip the seeded-violation self-test")
    parser.add_argument("--self-test-only", action="store_true",
                        help="run only the self-test (no repo sources "
                             "needed beyond this script)")
    parser.add_argument("--keep-temps", default=None, metavar="DIR",
                        help="write the intermediate .ll/.s files here "
                             "for inspection")
    parser.add_argument("--tu", action="append", default=None,
                        metavar="FILE.cpp",
                        help="analyze these TUs instead of the built-in "
                             "set (repeatable; used by the negative-"
                             "compile harness to gate seeded handlers)")
    parser.add_argument("--root", action="append", default=None,
                        metavar="NAME=POLICY",
                        help="gate these roots instead of the built-in "
                             "set (repeatable; POLICY is "
                             f"{'|'.join(sorted(POLICIES))})")
    args = parser.parse_args()

    override_roots = None
    if args.root is not None:
        override_roots = []
        for spec in args.root:
            name, sep, pol = spec.partition("=")
            if not sep or pol not in POLICIES:
                parser.error(f"--root must be NAME=POLICY with POLICY in "
                             f"{sorted(POLICIES)}, got {spec!r}")
            override_roots.append(
                {"name": name, "tu": "<cli>", "policy": pol})

    try:
        compiler = find_compiler(args.compiler)
    except RuntimeError as err:
        print(f"FAIL: {err}")
        return 1
    backend = "LLVM IR" if is_clang(compiler) else "assembly (-O0)"
    print(f"signal-safety gate: {compiler} [{backend} backend]")

    failed = False
    if not args.no_self_test:
        if not self_test(compiler):
            failed = True
    if args.self_test_only:
        print("PASS" if not failed else
              "FAIL: the self-test did not behave; see above.")
        return 1 if failed else 0

    generated = os.path.join(args.build_dir, "generated")
    if args.tu is None and not os.path.isdir(generated):
        print(f"FAIL: {generated} not found — configure the build first "
              f"(cmake -B {args.build_dir} -S .) so the generated "
              "headers exist")
        return 1
    include_dirs = [os.path.join(REPO_ROOT, "src")]
    if os.path.isdir(generated):
        include_dirs.append(generated)
    if args.tu is not None:
        tus = args.tu
    else:
        tus = [os.path.join(REPO_ROOT, tu) for tu in ANALYSIS_TUS]
    roots = override_roots if override_roots is not None else ROOTS

    if args.keep_temps:
        os.makedirs(args.keep_temps, exist_ok=True)
    try:
        gate_failed, lines = analyze(
            compiler, tus, include_dirs, roots, keep_dir=args.keep_temps)
    except RuntimeError as err:
        print(f"FAIL: {err}")
        return 1
    for line in lines:
        print(line)
    failed = failed or gate_failed

    if failed:
        print("FAIL: a signal handler can reach an async-signal-unsafe "
              "function (or the gate could not prove otherwise); the "
              "chains above show how. Break the chain, or — for the "
              "fatal-dump policy only — document the new contract in "
              "DESIGN.md and extend the policy deliberately.")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
