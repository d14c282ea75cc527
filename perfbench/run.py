#!/usr/bin/env python3
"""Build the benchmark and run one workload for a fixed measuring time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench` (a package of its
own, linking the simulator crates by path) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs rounds of the workload until
`--seconds` have passed, each round in a fresh process so that one
round's leaked threads and buffers cannot inflate the next one's figures.

With `--trace 0` every round is untraced and the last line of stdout is a
JSON object holding the median of every end-to-end metric that
`BENCHMARK.json` names. With `--trace 1` untraced and traced rounds
alternate; the last line holds every per-layer metric, host-cost ones
from the untraced rounds and span-derived ones from the traced rounds,
and each traced round writes its spans and breakdown table under
`$CARGO_TARGET_DIR/perfbench-out/`.

Every round checks every byte it read back and the final server image,
and every round of one run must print the same digest of its virtual-time
results and exact counts; a mismatch makes the run incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("smallop_mix", "coll_rw", "fabric_incast")
MIN_ROUNDS = 3
# Stop starting rounds after this long, so a run always ends well inside
# its 180 s limit even on a slow machine.
HARD_CAP_S = 120.0
ROUND_TIMEOUT_S = 100.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the round binary; return its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}")
    if r.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")


def run_round(binary, workload, seed, traced, smoke=False, corrupt=False):
    """Run one round; return (exit code, parsed record or None, stderr)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--out", os.path.join(target_dir(), "perfbench-out")]
    if smoke:
        cmd.append("--smoke")
    if corrupt:
        cmd.append("--corrupt")
    env = {k: v for k, v in os.environ.items() if k != "MPIO_DAFS_TRACE"}
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {workload} seed {seed} timed out")
    lines = p.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else None
    except ValueError:
        rec = None
    return p.returncode, rec, p.stderr


def measure(binary, workload, seed, seconds, trace, smoke=False):
    """Rounds until `seconds` have passed: (untraced, traced) records."""
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        done = len(plain) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS)
        if (done and elapsed >= seconds) or (elapsed >= HARD_CAP_S and plain):
            return plain, traced
        want_traced = trace and len(traced) < len(plain)
        rc, rec, err = run_round(binary, workload, seed, want_traced, smoke)
        if rec is None:
            raise BenchError(f"round {workload} seed {seed} crashed (exit {rc}):\n{err[-2000:]}")
        (traced if want_traced else plain).append(rec)
        if not rec["correct"]:
            log(err[-2000:])
            return plain, traced


def median(recs, group, name):
    vals = [r[group][name]["value"] for r in recs if name in r[group]]
    return (statistics.median(vals), recs[0][group][name]["unit"]) if vals else None


def aggregate(spec, plain, traced, trace):
    """Pick and median every metric BENCHMARK.json names for this mode."""
    out = {}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        name = m["name"]
        if name == "obs.trace_overhead":
            base = median(plain, "e2e", "wall_s")
            with_spans = median(traced, "e2e", "wall_s")
            got = (with_spans[0] / base[0], "ratio") if base and with_spans else None
        elif trace:
            got = median(plain, "layer", name) or median(traced, "spans", name)
        else:
            got = median(plain, "e2e", name)
        if got is None:
            raise BenchError(f"round output lacks metric {name}")
        if got[1] != m["unit"]:
            raise BenchError(f"metric {name} has unit {got[1]}, BENCHMARK.json says {m['unit']}")
        out[name] = {"value": got[0], "unit": got[1]}
    return out


def report(workload, seed, plain, traced, metrics):
    """Human-readable lines before the result line."""
    recs = plain + traced
    digests = sorted({r["digest"] for r in recs})
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    first = plain[0]
    log_lines = [
        f"workload {workload} seed {seed}: {len(plain)} untraced + {len(traced)} traced rounds",
        f"  digest {' '.join(digests)}",
        f"  ops per round {first['attempted']}; latency samples {first['lat_samples']}, "
        f"tail = {first['tail_pct']}",
        f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted})",
    ]
    for name in ("leaked_threads", "leaked_mib"):
        v = first["layer"][name]
        log_lines.append(f"  {name} {v['value']:.6g} {v['unit']}")
    wall = sorted(r["e2e"]["wall_s"]["value"] for r in plain)
    log_lines.append(f"  wall_s per round: min {wall[0]:.4f} median {statistics.median(wall):.4f} "
                     f"max {wall[-1]:.4f}")
    for name, m in metrics.items():
        log_lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(log_lines), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smoke-size rounds (self-tests)")
    args = ap.parse_args()
    try:
        spec = load_spec()
        binary = build()
        plain, traced = measure(binary, args.workload, args.seed, args.seconds,
                                args.trace == 1, args.smoke)
        metrics = aggregate(spec, plain, traced, args.trace == 1)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    recs = plain + traced
    same = len({r["digest"] for r in recs}) == 1
    if not same:
        log("perfbench: rounds of one seed disagree on virtual-time results")
    correct = same and all(r["correct"] for r in recs)
    report(args.workload, args.seed, plain, traced, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
