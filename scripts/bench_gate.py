#!/usr/bin/env python3
"""One paired bench gate over bench/table4_prediction and bench/table6_serving.

Every check is one row of ``ROWS``: (runs, metric, direction, reference,
allowed change). Each kind of reference has one rule:

* **parent** (timing rows) — the reference is the parent commit, built
  and run on the same machine in alternating process pairs. The row
  fails when the change's median is worse than the parent's median by
  more than ``K`` standard errors of the difference of two medians,
  estimated from the median absolute deviation (MAD) of the parent's
  runs. A committed timing number cannot stand for every host mode of a
  shared runner; alternating pairs see the same mode on both sides.
  The band shrinks with the square root of the pair count, so more
  pairs resolve smaller regressions; a band of a fixed number of MADs
  would not, and a frame p99 whose runs spread by 30% could never show
  a 1.5x rise.
* **committed** (deterministic rows) — accuracy does not depend on the
  machine, so the reference is the per-IP value committed in
  BENCH_table4.json. Committed values also catch drift that builds up
  over many changes. The allowed change is fixed per row.
* **overhead** rows compare two run variants of the change build (for
  example the flight recorder on and off) and fail when the median cost
  exceeds a fixed budget.

``INVARIANTS`` hold on every run of the change build, with no tolerance.

Run files are the benches' stdout: a JSON array of
``{"ip": ..., "metrics": {"counters": {...}, "gauges": {...}}}``. They
are named ``<variant>.<pair>.json``; ``VARIANTS`` lists the variants.

Usage::

    # record PAIRS alternating pairs from two build/bench directories
    scripts/bench_gate.py record PARENT_BENCH_DIR CHANGE_BENCH_DIR OUT PAIRS
    # gate the recorded runs (exit 1 on any failing row)
    scripts/bench_gate.py check OUT
    # synthetic runs that must trip every failure the gate can raise
    scripts/bench_gate.py self-test
"""

import glob
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate_common  # noqa: E402  (path-relative sibling import)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(REPO_ROOT, "BENCH_table4.json")

# Allowed change of a timing row, in standard errors of the difference of
# the two medians.
K = 3.0

TABLE4 = ["--cycles", "20000"]
TABLE6 = ["--sessions", "64", "--cycles", "3000"]

# (variant, build, bench binary, arguments). A pair runs the variants in
# this order on even pairs and in reverse on odd ones, so neither side of
# any comparison always runs first. "{out}" is the output directory.
VARIANTS = (
    ("table4.parent", "parent", "table4_prediction", TABLE4),
    ("table4.change", "change", "table4_prediction", TABLE4),
    ("table6.parent", "parent", "table6_serving", TABLE6),
    ("table6.change", "change", "table6_serving",
     TABLE6 + ["--flight-dump-dir", "{out}"]),
    ("table6.flight_off", "change", "table6_serving",
     TABLE6 + ["--flight-events", "0"]),
    ("table6.profiled", "change", "table6_serving",
     TABLE6 + ["--profile-hz", "97", "--profile-out", "{out}/profile.json"]),
)

HIGHER, LOWER = "higher", "lower"

# (runs, metric, better, reference, allowed change). The reference is a
# variant name or "committed"; the allowed change is K standard errors
# ("spread"), absolute points or a fraction of the reference. Every row
# is checked per IP.
ROWS = (
    ("table4.change", "bench.rows_per_second", HIGHER,
     "table4.parent", ("spread", K)),
    ("table6.change", "bench.serve.rows_per_second", HIGHER,
     "table6.parent", ("spread", K)),
    ("table6.change", "bench.serve.frame_p99_ms", LOWER,
     "table6.parent", ("spread", K)),
    ("table4.change", "predict.wsp_percent", LOWER, "committed",
     ("points", 2.0)),
    ("table4.change", "predict.lost_percent", LOWER, "committed",
     ("points", 2.0)),
    ("table4.change", "bench.power_mae_watts", LOWER, "committed",
     ("fraction", 0.25)),
    # The flight recorder may cost 5% of serving throughput, the 97 Hz
    # profiler 2%.
    ("table6.change", "bench.serve.rows_per_second", HIGHER,
     "table6.flight_off", ("fraction", 0.05)),
    ("table6.profiled", "bench.serve.rows_per_second", HIGHER,
     "table6.change", ("fraction", 0.02)),
)

# (bench, description, predicate over one IP's counters and gauges). A
# prediction counter that never moved may be absent from a dump.
INVARIANTS = (
    ("table6", "corrupted_frames == 0",
     lambda m: m["bench.serve.corrupted_frames"] == 0),
    ("table6", "errors == 0", lambda m: m["bench.serve.errors"] == 0),
    ("table4", "wrong_predictions <= predictions",
     lambda m: m.get("predict.wrong_predictions", 0)
     <= m.get("predict.predictions", 0)),
    ("table4", "lost_instants <= rows",
     lambda m: m.get("predict.lost_instants", 0) <= m.get("predict.rows", 0)),
)


def load_run(path):
    """Returns {ip: {metric: value}} with counters and gauges merged."""
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty JSON array")
    return {e["ip"]: {**e["metrics"]["counters"], **e["metrics"]["gauges"]}
            for e in entries}


def median_difference_se(values):
    """Standard error of the difference of two medians of len(values)
    runs each, from the MAD of `values`: sigma is 1.4826 MAD, the median
    of n normal runs has sqrt(pi/2) sigma/sqrt(n) error, and a difference
    of two independent medians sqrt(2) times that."""
    center = statistics.median(values)
    mad = statistics.median(abs(v - center) for v in values)
    return math.sqrt(math.pi) * 1.4826 * mad / math.sqrt(len(values))


def record(parent_dir, change_dir, out, pairs):
    """Runs `pairs` alternating pairs of every variant into `out`."""
    os.makedirs(out, exist_ok=True)
    dirs = {"parent": parent_dir, "change": change_dir}
    for i in range(pairs):
        order = VARIANTS if i % 2 == 0 else tuple(reversed(VARIANTS))
        for variant, build, binary, args in order:
            cmd = [os.path.join(dirs[build], binary)]
            cmd += [a.replace("{out}", out) for a in args]
            path = os.path.join(out, f"{variant}.{i:02d}.json")
            with open(path, "w", encoding="utf-8") as stdout:
                subprocess.run(cmd, stdout=stdout, stderr=subprocess.DEVNULL,
                               check=True)
        print(f"pair {i + 1}/{pairs} recorded")


def load_runs(out):
    """Returns {variant: [run, ...]}; every variant needs the same
    non-zero number of runs."""
    runs = {}
    for variant, _, _, _ in VARIANTS:
        paths = sorted(glob.glob(os.path.join(out, f"{variant}.*.json")))
        runs[variant] = [load_run(p) for p in paths]
    counts = {len(r) for r in runs.values()}
    if len(counts) != 1 or 0 in counts:
        raise ValueError(f"{out}: unequal or missing runs per variant: "
                         + ", ".join(f"{v}={len(r)}"
                                     for v, r in runs.items()))
    return runs


def check_row(row, runs, committed):
    """Yields (label, reference, candidate, band, ok) per IP of one row."""
    variant, metric, better, reference, (rule, amount) = row
    for ip in sorted(runs[variant][0]):
        label = f"{variant.split('.')[0]} {ip} {metric} vs {reference}"
        candidate = statistics.median(run[ip][metric]
                                      for run in runs[variant])
        if reference == "committed":
            ref = committed[ip][metric]
        else:
            ref_values = [run[ip][metric] for run in runs[reference]]
            ref = statistics.median(ref_values)
        if rule == "spread":
            band = amount * median_difference_se(ref_values)
        elif rule == "points":
            band = amount
        else:
            band = amount * abs(ref)
        worse = candidate - ref if better == LOWER else ref - candidate
        yield label, ref, candidate, band, worse <= band


def check(out):
    """Gates the runs in `out`; returns the labels of the failing rows."""
    runs = load_runs(out)
    with open(COMMITTED, "r", encoding="utf-8") as f:
        committed = json.load(f)
    failures = []

    # Every IP the references know must be in the change's runs.
    for variant, metric, _, reference, _ in ROWS:
        known = set(committed) if reference == "committed" else set(
            runs[reference][0])
        for ip in sorted(known - set(runs[variant][0])):
            failures.append(f"{variant} {ip} {metric}: IP missing")

    for variant, build, _, _ in VARIANTS:
        if build != "change":
            continue
        bench = variant.split(".")[0]
        for i, run in enumerate(runs[variant]):
            for ip, values in sorted(run.items()):
                for inv_bench, description, holds in INVARIANTS:
                    if inv_bench == bench and not holds(values):
                        failures.append(f"{variant}.{i:02d} {ip}: "
                                        f"{description} does not hold")

    pairs = len(runs[VARIANTS[0][0]])
    print(f"bench gate: {pairs} pair(s), timing band {K:g} standard errors "
          "of the median difference")
    print(f"{'row':<64} {'reference':>12} {'change':>12} {'allowed':>11}"
          "  verdict")
    for row in ROWS:
        for label, ref, candidate, band, ok in check_row(row, runs,
                                                         committed):
            print(f"{label:<64} {ref:>12.4g} {candidate:>12.4g} "
                  f"{band:>11.3g}  {gate_common.verdict(ok)}")
            if not ok:
                failures.append(label)
    for failure in failures:
        print(f"  failing: {failure}")
    return failures


# --- self-test --------------------------------------------------------------

SELF_TEST_PAIRS = 10


def synthetic_runs(out, committed):
    """Writes a no-change pair set: every variant at the same level with
    1% independent noise per run, in the benches' JSON shape."""
    rng = random.Random(20160314)
    for variant, _, _, _ in VARIANTS:
        for i in range(SELF_TEST_PAIRS):
            def noisy(v):
                return v * rng.gauss(1.0, 0.01)
            if variant.startswith("table4"):
                entries = [{"ip": ip, "metrics": {
                    "counters": {"predict.predictions": 100,
                                 "predict.wrong_predictions": 3,
                                 "predict.rows": 20000,
                                 "predict.lost_instants": 10},
                    "gauges": {**values,
                               "bench.rows_per_second": noisy(2e6)}}}
                    for ip, values in committed.items()]
            else:
                entries = [{"ip": "RAM", "metrics": {
                    "counters": {},
                    "gauges": {"bench.serve.rows_per_second": noisy(1e6),
                               "bench.serve.frame_p99_ms": noisy(20.0),
                               "bench.serve.corrupted_frames": 0,
                               "bench.serve.errors": 0}}}]
            path = os.path.join(out, f"{variant}.{i:02d}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(entries, f)


def edit_runs(out, variant, edit, first_only=False):
    """Applies `edit(metrics)` to every IP of the variant's runs."""
    paths = sorted(glob.glob(os.path.join(out, f"{variant}.*.json")))
    for path in paths[:1] if first_only else paths:
        with open(path, "r", encoding="utf-8") as f:
            entries = json.load(f)
        for e in entries:
            edit(e["metrics"])
        with open(path, "w", encoding="utf-8") as f:
            json.dump(entries, f)


def scale(name, factor):
    def edit(m):
        m["gauges"][name] *= factor
    return edit


def add(name, amount):
    def edit(m):
        m["gauges"][name] += amount
    return edit


def wrong_exceeds_predictions(m):
    m["counters"]["predict.wrong_predictions"] = (
        m["counters"]["predict.predictions"] + 1)


def one_corrupted_frame(m):
    m["gauges"]["bench.serve.corrupted_frames"] = 1


IPS = ("RAM", "MultSum", "AES", "Camellia")

# (case, [(variant, edit, first run only)], labels that must fail).
SELF_TEST_CASES = (
    ("2x slowdown on every throughput row",
     [("table4.change", scale("bench.rows_per_second", 0.5), False),
      ("table6.change", scale("bench.serve.rows_per_second", 0.5), False)],
     [f"table4 {ip} bench.rows_per_second vs table4.parent" for ip in IPS]
     + ["table6 RAM bench.serve.rows_per_second vs table6.parent"]),
    ("1.5x rise on every latency row",
     [("table6.change", scale("bench.serve.frame_p99_ms", 1.5), False)],
     ["table6 RAM bench.serve.frame_p99_ms vs table6.parent"]),
    ("+5 pt WSP and lost",
     [("table4.change", add("predict.wsp_percent", 5.0), False),
      ("table4.change", add("predict.lost_percent", 5.0), False)],
     [f"table4 {ip} predict.{m}_percent vs committed" for ip in IPS
      for m in ("wsp", "lost")]),
    ("wrong > predictions",
     [("table4.change", wrong_exceeds_predictions, True)],
     [f"table4.change.00 {ip}: wrong_predictions <= predictions does not "
      "hold" for ip in IPS]),
    ("one corrupted frame",
     [("table6.change", one_corrupted_frame, True)],
     ["table6.change.00 RAM: corrupted_frames == 0 does not hold"]),
    ("12% flight-recorder gap",
     [("table6.flight_off", scale("bench.serve.rows_per_second", 1.12),
       False)],
     ["table6 RAM bench.serve.rows_per_second vs table6.flight_off"]),
    ("10% profiler gap",
     [("table6.profiled", scale("bench.serve.rows_per_second", 0.90),
       False)],
     ["table6 RAM bench.serve.rows_per_second vs table6.change"]),
)


def self_test():
    """Every case must trip its rows; the no-change pair set must pass."""
    with open(COMMITTED, "r", encoding="utf-8") as f:
        committed = json.load(f)
    ok = True
    with tempfile.TemporaryDirectory() as out:
        synthetic_runs(out, committed)
        failures = check(out)
        if failures:
            print(f"FAIL: self-test: the no-change pair set failed "
                  f"{failures}")
            ok = False
    for case, edits, expected in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as out:
            synthetic_runs(out, committed)
            for variant, edit, first_only in edits:
                edit_runs(out, variant, edit, first_only)
            print(f"--- self-test case: {case}")
            failures = check(out)
            missed = [label for label in expected if label not in failures]
            if missed:
                print(f"FAIL: self-test: {case} did not trip {missed}")
                ok = False
    return ok


def main(argv):
    usage = __doc__[__doc__.index("Usage::"):]
    if argv[:1] == ["record"] and len(argv) == 5:
        record(argv[1], argv[2], argv[3], int(argv[4]))
        return 0
    if argv[:1] == ["check"] and len(argv) == 2:
        try:
            failures = check(argv[1])
        except (OSError, ValueError, KeyError) as err:
            print(f"FAIL: {err!r}")
            return 1
        return gate_common.finish(
            bool(failures),
            "the change regressed against the parent commit, the "
            "committed accuracy values or an overhead budget; see the "
            "failing rows above.")
    if argv == ["self-test"]:
        return gate_common.finish(
            not self_test(), "the bench gate missed a seeded failure.")
    print(usage)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
