"""Shared helpers for the scripts/*_gate.py CI gates.

The gates stay single-file runnable (``scripts/foo_gate.py ...`` with no
package install), so this module is imported by path-relative sibling
import: each gate does ``sys.path.insert(0, os.path.dirname(__file__))``
before ``import gate_common``.
"""


def verdict(ok):
    """The per-row verdict column a gate prints."""
    return "ok" if ok else "REGRESSION"


def finish(failed, fail_message):
    """The common epilogue: FAIL + advice and exit 1, or PASS and 0."""
    if failed:
        print(f"FAIL: {fail_message}")
        return 1
    print("PASS")
    return 0
