#!/usr/bin/env python3
"""Time-to-result benchmark for teragrid-sim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source, then runs repetitions of one
workload, each in its own child process, until S seconds have passed
(at least MIN_REPS untraced repetitions, or one traced run). Every
repetition's determinism anchors must equal the pinned ones in pins.json
when the seed is pinned there, and must agree across repetitions
otherwise; a traced run must also reproduce its untraced run exactly (the
child checks that itself). A repetition that crashes or disagrees counts
as failed.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the latter holding the median over
the passing repetitions of every `end_to_end` metric in BENCHMARK.json
(`--trace 0`) or of every `per_layer` metric (`--trace 1`).

`--pin` records the anchors of one repetition at the given seed into
pins.json instead (after an intended change to simulation outputs).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary and return its path (exit 1 on failure)."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return target / "release" / "perfbench"


def child(binary, mode, workload, seed):
    """One repetition in its own process: its report, or None if it failed."""
    cmd = [str(binary), mode, "--workload", workload, "--seed", str(seed),
           "--root", str(ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{mode} repetition timed out")
        return None
    if proc.returncode != 0:
        log(f"{mode} repetition exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{mode} repetition printed no report")
        return None


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        sys.exit(2)
    binary = build()

    if args.pin:
        rep = child(binary, "rep", args.workload, args.seed)
        if rep is None:
            sys.exit(1)
        pins = load_pins()
        pins.setdefault(args.workload, {})[str(args.seed)] = rep["anchors"]
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        log(f"pinned {args.workload} at seed {args.seed}")
        return

    mode, wanted, min_runs = (
        ("traced", spec["per_layer"], 1) if args.trace
        else ("rep", spec["end_to_end"], MIN_REPS))
    expected = load_pins().get(args.workload, {}).get(str(args.seed))
    passed, attempted, failed = [], 0, 0
    start = time.monotonic()
    while attempted < min_runs or time.monotonic() - start < args.seconds:
        attempted += 1
        rep = child(binary, mode, args.workload, args.seed)
        if rep is not None and expected is None:
            expected = rep["anchors"]
        # A declared metric the repetition left out or wrote as null fails
        # it, rather than dragging the median towards a made-up value.
        missing = [] if rep is None else [
            m["name"] for m in wanted
            if not isinstance(rep["metrics"].get(m["name"]), (int, float))]
        if rep is None or rep["anchors"] != expected or missing:
            if rep is not None and rep["anchors"] != expected:
                diff = sorted(k for k in set(expected) | set(rep["anchors"])
                              if expected.get(k) != rep["anchors"].get(k))
                log(f"anchors differ from the reference on {diff}")
            if missing:
                log(f"repetition reported no value for {missing}")
            failed += 1
            if not passed and failed >= min_runs:
                break
            continue
        passed.append(rep["metrics"])

    metrics = {}
    for m in wanted:
        values = [r[m["name"]] for r in passed if r.get(m["name"]) is not None]
        value = statistics.median(values) if values else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": failed == 0 and bool(passed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
