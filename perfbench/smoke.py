"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that every workload runs and prints every metric BENCHMARK.json
names with its unit, traced and untraced; that a corrupted reference value
is reported as a failure (so the checker really checks); and that the
benchmark refuses to run where there is no library to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = HERE / "out" / "smoke"
RUN = [sys.executable, str(HERE / "run.py")]
# result metrics each workload must print in its report, with their units
REPORTED = {
    "de_ladder": ("de.ladder_s s", "de.iters_per_s 1/s", "de.q5_iters_per_s 1/s"),
    "exact_mixtures": ("polar.exact_s s", "conv.exact_s s"),
    "sampled_paths": ("polar.sampled_s s", "conv.sampled_s s", "mp.sampled_s s"),
    "oracle_verify": ("verify.all_s s",),
}

problems = []


def expect(ok: bool, message: str):
    if not ok:
        problems.append(message)
        print(f"FAIL: {message}")


def run(workload, trace, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(label, result, wanted):
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{label}: metric names differ from BENCHMARK.json: "
           f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        if name in got:
            expect(got[name]["unit"] == unit, f"{label}: {name} has unit {got[name]['unit']}")
            expect(isinstance(got[name]["value"], (int, float)), f"{label}: {name} not a number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            proc = run(workload, trace)
            label = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            if proc.returncode != 0:
                continue
            result = last_json(proc)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: not correct: {result['attempted']} attempted, "
                   f"{result['failed']} failed\n{proc.stderr[-2000:]}")
            check_metrics(label, result, wanted)
            report = [" ".join(line.split()) for line in proc.stdout.splitlines()]
            for item in REPORTED[workload]:
                name, unit = item.split()
                expect(any(line.startswith(name + " ") and line.endswith(" " + unit)
                           for line in report), f"{label}: report lacks {name} in {unit}")
            print(f"checked: {label}")

    # a reference value off by far more than the 1e-9 tolerance must fail
    SCRATCH.mkdir(parents=True, exist_ok=True)
    ref = json.loads((HERE / "reference.json").read_text())
    for key in ref:
        if key.startswith("tiny:"):
            ref[key]["polar"][0][0] += 1e-6
    corrupt = SCRATCH / "corrupt_reference.json"
    corrupt.write_text(json.dumps(ref))
    proc = run("exact_mixtures", 0, ["--reference", str(corrupt)])
    result = last_json(proc) if proc.returncode == 0 else None
    expect(result is not None and not result["correct"] and result["failed"] >= 1,
           "a corrupted reference value was not reported as a failure")
    print("checked: corrupted reference")

    # a directory holding only the benchmark: exit non-zero, print no result
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                           "--workload", "de_ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("checked: directory without the library")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    if problems:
        sys.exit(f"{len(problems)} smoke check(s) failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
