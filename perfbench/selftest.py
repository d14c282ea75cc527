#!/usr/bin/env python3
"""Self-tests of the benchmark, on smoke-size rounds of every workload.

    python3 perfbench/selftest.py

Run it from the repository root. For each workload it checks that:

  * every metric BENCHMARK.json names is present with its unit, in the
    untraced and in the traced result line;
  * an untraced and a traced round on one seed, and a second untraced
    round, print the same digest and identical virtual-time metrics and
    exact counts;
  * another seed gives other inputs, so another digest;
  * a deliberately corrupted byte in a read-back buffer is counted as a
    failed op and fails the round.

It also runs the benchmark crate's own unit tests. Exits non-zero on the
first failed check.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Metrics that measure the host and so differ from round to round; every
# other metric of a round is a virtual-time result or an exact count.
HOST = {
    "setup_s", "wall_s", "cpu_s", "peak_rss_mib",
    "simnet.host_ns_per_event", "simnet.ctx_switches_per_event",
    "simnet.allocs_per_event", "memfs.prefill_ns_per_byte",
    "memfs.verify_ns_per_byte",
}
SEED = 7


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}", flush=True)
        sys.exit(1)
    print(f"ok: {what}", flush=True)


def exact(rec):
    vals = {}
    for group in ("e2e", "layer"):
        for k, v in rec[group].items():
            if k not in HOST:
                vals[k] = v["value"]
    return vals


def result_line(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def main():
    spec = bench.load_spec()
    r = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(bench.HERE, "Cargo.toml")],
                       env=dict(os.environ, CARGO_TARGET_DIR=bench.target_dir()))
    check(r.returncode == 0, "benchmark crate unit tests pass")
    binary = bench.build()
    for w in bench.WORKLOADS:
        runs = [bench.run_round(binary, w, SEED, traced, smoke=True)
                for traced in (False, True, False)]
        for rc, rec, err in runs:
            check(rc == 0 and rec and rec["correct"] and rec["failed"] == 0,
                  f"{w}: smoke round is correct")
        recs = [rec for _, rec, _ in runs]
        check(len({rec["digest"] for rec in recs}) == 1,
              f"{w}: digests agree across rounds of seed {SEED}, traced or not")
        check(exact(recs[0]) == exact(recs[1]) == exact(recs[2]),
              f"{w}: virtual-time metrics and counts are identical across rounds")
        _, other, _ = bench.run_round(binary, w, SEED + 1, False, smoke=True)
        check(other["digest"] != recs[0]["digest"], f"{w}: another seed changes the inputs")
        rc, bad, _ = bench.run_round(binary, w, SEED, False, smoke=True, corrupt=True)
        check(rc != 0 and bad is not None and not bad["correct"] and bad["failed"] >= 1,
              f"{w}: a corrupted read-back byte counts as a failure ({bad and bad['failed']})")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, line = result_line(w, trace)
            check(rc == 0 and set(line) == {"correct", "attempted", "failed", "metrics"}
                  and line["correct"] and line["attempted"] >= 1,
                  f"{w}: --trace {trace} prints a correct result line")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want, f"{w}: --trace {trace} prints every {key} metric with its unit")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
