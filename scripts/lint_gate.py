#!/usr/bin/env python3
"""Model-quality gate over `psmgen lint` for trained PSM artifacts.

Runs ``psmgen lint --json`` on every given ``.psm`` artifact and fails
when any of them carries an error-severity finding (the lint exit code).
It keeps the served models semantically sound: transition rows that sum
to 1, reachable states, finite power attributes, well-formed assertions,
intact artifact framing.

Usage::

    # gate (exit 1 when any artifact has error findings)
    scripts/lint_gate.py --psmgen build/src/tools/psmgen \\
        /tmp/psmgen_bench_RAM.psm /tmp/psmgen_bench_AES.psm

    # also save the machine-readable psmgen.lint.v1 reports
    scripts/lint_gate.py --psmgen ... --report-dir lint-reports *.psm

The gate self-tests by default: it bit-flips a copy
of the first artifact and requires the lint to reject it, so a silently
neutered gate (a lint binary that always exits 0, a truncated check
registry) cannot keep passing. ``--no-self-test`` skips that step.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate_common  # noqa: E402  (path-relative sibling import)


def run_lint(psmgen, artifact, werror=False):
    """Runs `psmgen lint --json` on one artifact.

    Returns (exit_code, report_dict_or_None, raw_stdout).
    """
    cmd = [psmgen, "lint", "--psm", artifact, "--json", "--quiet"]
    if werror:
        cmd.append("--werror")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    report = None
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        pass
    return proc.returncode, report, proc.stdout


def describe(report):
    """One summary line from a psmgen.lint.v1 report dict."""
    if report is None:
        return "unparseable lint output"
    s = report.get("summary", {})
    return (f"{s.get('errors', '?')} errors, {s.get('warnings', '?')} "
            f"warnings, {s.get('infos', '?')} info")


def self_test(psmgen, artifact):
    """Requires the lint to reject a bit-flipped copy of `artifact`."""
    with tempfile.TemporaryDirectory() as tmp:
        corrupted = os.path.join(tmp, "corrupted.psm")
        shutil.copyfile(artifact, corrupted)
        with open(corrupted, "r+b") as f:
            f.seek(0, os.SEEK_END)
            size = f.tell()
            # Flip one payload byte well past the header; the checksum
            # (or a field decode) must catch it.
            f.seek(size // 2)
            byte = f.read(1)
            f.seek(size // 2)
            f.write(bytes([byte[0] ^ 0xFF]))
        code, report, _ = run_lint(psmgen, corrupted)
        if code == 0:
            print("FAIL: lint self-test: a bit-flipped artifact passed "
                  "the gate — the lint is not actually checking anything")
            return False
        ids = [f.get("id", "") for f in (report or {}).get("findings", [])]
        if not any(i.startswith("PSM-ART-") for i in ids):
            print("FAIL: lint self-test: corrupted artifact rejected but "
                  f"without a PSM-ART-* finding (got {ids})")
            return False
        print(f"self-test OK: corrupted copy rejected with {ids}")
        return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+",
                        help="trained .psm model artifacts to lint")
    parser.add_argument("--psmgen", required=True,
                        help="path to the psmgen binary")
    parser.add_argument("--werror", action="store_true",
                        help="warnings also fail the gate")
    parser.add_argument("--report-dir", default=None,
                        help="write each psmgen.lint.v1 JSON report here")
    parser.add_argument("--no-self-test", action="store_true",
                        help="skip the corrupted-artifact self-test")
    args = parser.parse_args()

    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)

    failed = False
    print(f"lint gate: {len(args.artifacts)} artifact(s)"
          + (", --werror" if args.werror else ""))
    for artifact in args.artifacts:
        code, report, raw = run_lint(args.psmgen, artifact, args.werror)
        ok = code == 0 and report is not None
        failed = failed or not ok
        print(f"{os.path.basename(artifact):<28} {describe(report):<36} "
              f"{'ok' if ok else 'FAIL'}")
        if not ok and report is not None:
            for finding in report.get("findings", []):
                if finding.get("severity") in ("error", "warn"):
                    print(f"    {finding.get('severity')} "
                          f"{finding.get('id')}: {finding.get('message')}")
        if args.report_dir and raw:
            name = os.path.splitext(os.path.basename(artifact))[0]
            with open(os.path.join(args.report_dir, name + ".lint.json"),
                      "w", encoding="utf-8") as f:
                f.write(raw)

    if not args.no_self_test:
        if not self_test(args.psmgen, args.artifacts[0]):
            failed = True

    return gate_common.finish(
        failed,
        "error-severity lint findings (or a neutered gate); "
        "inspect the reports, fix the model pipeline, or suppress a "
        "check explicitly with `psmgen lint --suppress ID`.")


if __name__ == "__main__":
    sys.exit(main())
