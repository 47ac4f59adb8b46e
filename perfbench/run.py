#!/usr/bin/env python3
"""Fig. 3 flow benchmark: time-to-tapped-schedule and QoR per workload.

Run from the repository root:

    python3 perfbench/run.py --workload s38417-nf-weighted-t1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Builds the `perfbench` package (perfbench/Cargo.toml) into
$CARGO_TARGET_DIR (default `.bench_build`) and runs the workload in a
child process of its own, with ROTARY_THREADS set for that workload: the
library reads the thread cap once per process. The input is the suite
netlist generated at `--netlist-seed` with its nets renumbered by `--seed`
(see perfbench/src/inputs.rs). `--trace 0` reports the end-to-end metrics
of BENCHMARK.json, `--trace 1` the per-layer metrics of the traced replay;
spans go to `.perfbench/`. The last stdout line is the JSON result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# name -> suite, stage-3 objective, stage-4 variant, ROTARY_THREADS
# (why each was chosen: perfbench/WORKLOADS.md).
WORKLOADS = {
    "s38417-nf-weighted-t1": ("s38417", "nf", "weighted", 1),
    "s38417-ilp-minimax-t1": ("s38417", "ilp", "minimax", 1),
    "s15850-nf-weighted-t2": ("s15850", "nf", "weighted", 2),
}

BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail(f"build failed with exit code {res.returncode}")
    return target / "release" / "perfbench"


def run_child(binary, mode, workload, seed, netlist_seed, seconds, extra=()):
    suite, objective, variant, threads = workload
    env = dict(os.environ)
    env["ROTARY_THREADS"] = str(threads)
    env.pop("ROTARY_MCMF_BACKEND", None)
    cmd = [str(binary), mode, "--suite", suite, "--objective", objective,
           "--variant", variant, "--netlist-seed", str(netlist_seed),
           "--seed", str(seed), "--seconds", str(seconds),
           *extra]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{mode} run failed: {e}")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{mode} run exited with code {res.returncode}")
    return json.loads(lines[-1])


def git_provenance():
    def git(*args):
        try:
            res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return rev or "unknown", (bool(status) if status is not None else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--netlist-seed", type=int, default=2006)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0 or args.netlist_seed < 0:
        fail("--seconds must be >= 1 and seeds >= 0")
    if not args.selftest and not args.workload:
        fail("--workload is required")

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))

    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        res = run_child(binary, "trace", WORKLOADS[args.workload], args.seed, args.netlist_seed,
                        args.seconds, ("--spans", str(spans)))
        values = res["metrics"]
        wanted = spec["per_layer"]
    else:
        res = run_child(binary, "e2e", WORKLOADS[args.workload], args.seed, args.netlist_seed,
                        args.seconds)
        values = {
            "flow_s": statistics.median(res["flow_s"]),
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "tap_wl_um": res["tap_wl_um"],
            "total_wl_um": res["total_wl_um"],
            "max_ring_cap_pf": res["max_ring_cap_pf"],
            "pass_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")
    rev, dirty = git_provenance()
    provenance = {
        "workload": args.workload, "seed": args.seed, "netlist_seed": args.netlist_seed,
        "rotary_threads": res["threads"], "nproc": res["nproc"],
        "git_rev": rev, "dirty": dirty,
        "stage3_backend": res["stage3_backend"], "stage4_backend": res["stage4_backend"],
        "flows": res["attempted"], "fingerprint": res["fingerprint"],
    }
    print("provenance " + json.dumps(provenance))
    # A value is NaN only when no flow produced it; report 0 and fail.
    nan = [m["name"] for m in wanted if not math.isfinite(values[m["name"]])]
    metrics = {m["name"]: {"value": 0.0 if m["name"] in nan else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and not nan
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def selftest(binary):
    """Thread invariance, and seeds that really reach the input.

    s9234 on the weighted network-flow route runs in separate processes
    at ROTARY_THREADS=1 and =2 and must give identical outcome
    fingerprints; netlist seeds 2006 and 7 must generate different
    netlists, and run seeds 0 and 1 different inputs.
    """
    def fp(threads, seed=0, netlist_seed=2006):
        return run_child(binary, "fingerprint", ("s9234", "nf", "weighted", threads),
                         seed, netlist_seed, 1)

    one, two = fp(1), fp(2)
    other, reseeded = fp(1, netlist_seed=7), fp(1, seed=1)
    checks = [
        ("thread caps are 1 and 2", (one["threads"], two["threads"]) == (1, 2)),
        ("no flow failed", not any(r["failed"] for r in (one, two, other, reseeded))),
        (f"outcome {one['fingerprint']} at 1 thread equals {two['fingerprint']} at 2",
         one["fingerprint"] == two["fingerprint"]),
        (f"netlist seed 2006 ({one['netlist']}) and 7 ({other['netlist']}) differ",
         one["netlist"] != other["netlist"]),
        (f"run seed 0 ({one['input']}) and 1 ({reseeded['input']}) give different inputs",
         one["input"] != reseeded["input"]),
    ]
    for what, passed in checks:
        print(f"selftest: {'PASS' if passed else 'FAIL'}  {what}")
    return 0 if all(p for _, p in checks) else 1


if __name__ == "__main__":
    main()
