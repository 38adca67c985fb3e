"""abelianbp benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_mixtures --seed 1 --seconds 20 --trace 0

Workloads: de_ladder, exact_mixtures, sampled_paths, oracle_verify (see
workloads.py and NOTES.md).  Each run starts fresh single-threaded Python
processes with the BLAS/OpenMP thread variables pinned to 1: a few that only
time set-up, then one that runs the workload closed-loop for ``--seconds``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines above it are a readable
report with the run environment.  The full result, and the kept spans of a
traced run, go to ``perfbench/out/``.

Exits 2 without a result when the checkout holds no ``src/abelianbp``, and 1
when a workload process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
# as in workloads.py; this process imports neither numpy nor the library
WORKLOADS = ("de_ladder", "exact_mixtures", "sampled_paths", "oracle_verify")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# extra fresh processes that only time set-up; setup_s is their median
# together with the measuring process's own set-up
SETUP_PROBES = 6
DEADLINE_S = 170.0
UNCONTROLLED = ("CPU frequency and turbo state, other tenants on the shared host "
                "(steal time), page cache and memory pressure are not controlled; "
                "thread variables are pinned and each workload runs in a fresh process")

END_TO_END_UNITS = {"setup_s": "s", "stage1_s": "s", "stage2_s": "s", "peak_rss_mb": "MB"}
RESULT_UNITS = {"de.iters_per_s": "1/s", "de.q5_iters_per_s": "1/s"}


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(argv, env, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the workload finished", 1)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"workload process overran the {DEADLINE_S:.0f} s deadline", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"workload process exited with code {proc.returncode}", 1)
    sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: Path, numpy_version: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "threads": {v: "1" for v in THREAD_VARS},
        "uncontrolled": UNCONTROLLED,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--reference", default=None,
                    help="reference values file (default perfbench/reference.json)")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "abelianbp" / "__init__.py").is_file():
        fail(f"no src/abelianbp under {root}: run from the root of a checkout", 2)
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.reference:
        common += ["--reference", str(Path(args.reference).resolve())]

    probes = [run_worker(common + ["--setup-only"], env, deadline)
              for _ in range(SETUP_PROBES)]
    res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     env, deadline)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]

    end_to_end = dict(res["stages"], setup_s=median(setups), peak_rss_mb=res["peak_rss_mb"])
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    env_record = environment(root, res["numpy"])
    attempted, failed = res["attempted"], res["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {res['calls_made']}  wall {time.monotonic() - start:.1f} s")
    print(f"env {json.dumps(env_record)}")
    print(f"  {'fail_ratio':<28} {failed / attempted:.6g}  ({failed}/{attempted})")
    for name, value in sorted(res["results"].items()):
        print(f"  {name:<28} {value:.6g} {RESULT_UNITS.get(name, 's')}")
    counts = res["sample_counts"]
    at_medians = ", ".join(f"{m} {res['medians'][m]:.4g} s ({counts[m]})" for m in sorted(counts))
    print("  above, whole calls at their 90th-percentile time and DE iterations at their "
          f"median; with every call at its median (samples): {at_medians}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<28} {end_to_end[name]:.6g} {unit}")
    if args.trace:
        print_layers(res)
    for message in res["failures"]:
        print(f"  FAILED: {message.splitlines()[0]}")

    OUT_DIR.mkdir(exist_ok=True)
    size = "" if args.size == "full" else f"-{args.size}"
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{size}.json"
    with open(out_file, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env_record, "setup_samples_s": setups,
                   "end_to_end": end_to_end, **res}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def print_layers(res):
    self_s = res["self_seconds"]
    wall = sum(self_s.values())
    print(f"  self time by span (traced calls {res['traced_calls']}):")
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:25]:
        print(f"    {name:<36} {s:10.4f} s  {100 * s / wall:6.2f} %")
    layers = res["per_layer"]
    for key in ("trace_overhead_s", "root_span_pct"):
        value, unit = layers[key]
        print(f"  {key:<28} {value:.6g} {unit}")
    if res["absent"]:
        print(f"  absent (not traced): {', '.join(res['absent'])}")


if __name__ == "__main__":
    main()
