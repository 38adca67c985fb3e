"""One workload in one fresh process; prints its result as a JSON line.

Started by run.py with the BLAS/OpenMP thread variables pinned to 1 and
``src`` on PYTHONPATH.  Set-up (imports, input generation, spec
construction and one warm-up pass at the tiny size) is timed from the top
of this file.  Then calls run until the time budget is spent: one whole
pass over the workload's calls, then further calls in the same order while
the next one, at its median time so far, still ends within the budget.  A
metric is the sum over its calls of each call's 90th-percentile time
(`CALL_QUANTILE`, see NOTES.md, Noise); a DE run counts at the median time
of all the metric's iterations, times its nominal iteration count.  With
``--trace 1`` the first half of the budget runs untraced and the second half
traced, and the difference between the two is the tracing overhead.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_FAILURE_MESSAGES = 20
# The host's speed has a steady floor and a boost that comes and goes; a
# high quantile of a call's repeated times is its time at the floor, which
# moves least from run to run.  DE iterations are pooled across runs that
# differ in cost per iteration, so they take the median instead.
CALL_QUANTILE = 0.9


def new_result():
    return {"attempted": 0, "failed": 0, "failures": []}


def run_call(call, result):
    """Time one call; its check runs outside the timed region.

    Returns its samples: [seconds], or for a DE run the seconds of each
    iteration."""
    result["attempted"] += 1
    workloads.ITERATIONS.take()
    t0 = perf_counter()
    try:
        out = call.run()
        problems = None
    except Exception:
        problems = [f"{call.metric} raised:\n{traceback.format_exc()}"]
    seconds = perf_counter() - t0
    iterations = workloads.ITERATIONS.take()
    units = 0
    if problems is None:
        try:
            problems = call.check(out)
            units = call.units(out) if call.units is not None else 0
        except Exception:
            problems = [f"{call.metric} check raised:\n{traceback.format_exc()}"]
    if problems:
        result["failed"] += 1
        for p in problems:
            _note(result, p)
    if not call.per_iteration:
        return [seconds]
    if iterations:
        return iterations
    # de_run no longer goes through de.de_iteration: split the whole run evenly
    return [seconds / units] * units if units else [seconds]


def _note(result, message):
    print(message, file=sys.stderr)
    if len(result["failures"]) < MAX_FAILURE_MESSAGES:
        result["failures"].append(message)


def run_for(calls, budget, result):
    """One whole pass over the calls, then further calls in the same order
    while the next one, at its median time so far, ends within `budget`
    seconds.  Returns the samples and the call times (check included) of
    each call, in call order."""
    samples = [[] for _ in calls]
    durations = [[] for _ in calls]
    start = perf_counter()
    for i in itertools.count():
        k = i % len(calls)
        if i >= len(calls) and perf_counter() - start + median(durations[k]) > budget:
            return samples, durations
        t0 = perf_counter()
        samples[k] += run_call(calls[k], result)
        durations[k].append(perf_counter() - t0)


def quantile(samples, p):
    """The `p` quantile of `samples`, interpolated linearly."""
    s = sorted(samples)
    x = p * (len(s) - 1)
    i = int(x)
    return s[i] + (s[min(i + 1, len(s) - 1)] - s[i]) * (x - i)


def pass_seconds(durations):
    """Seconds of one pass at each call's median time."""
    return sum(median(d) for d in durations)


def metric_values(calls, samples_per_call, p=CALL_QUANTILE):
    """Seconds per result metric, each call at its `p` quantile, and the DE
    iteration rates."""
    out, pooled, nominal = defaultdict(float), defaultdict(list), {}
    for call, samples in zip(calls, samples_per_call):
        if call.per_iteration:
            pooled[call.metric] += samples
            nominal[call.metric] = call.per_iteration
        else:
            out[call.metric] += quantile(samples, p)
    for m, samples in pooled.items():
        per_iteration = median(samples)
        out[m] = per_iteration * nominal[m]
        out[workloads.RATE_NAMES[m]] = 1.0 / per_iteration
    for m, parts in workloads.SUMS.items():
        if all(part in out for part in parts):
            out[m] = sum(out[part] for part in parts)
    return dict(out)


def sample_counts(calls, samples_per_call):
    counts = defaultdict(int)
    for call, samples in zip(calls, samples_per_call):
        counts[call.metric] += len(samples)
    return dict(counts)


def stage_values(name, results):
    return {f"stage{i}_s": sum(results[m] for m in metrics)
            for i, metrics in enumerate(workloads.STAGES[name], start=1)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    calls = workloads.build(args.workload, args.seed, args.size, args.reference)
    # one untimed pass at the tiny size fills the library's caches along the
    # same code paths, so that the first timed pass is not the odd one out
    warm_up = new_result()
    for call in workloads.build(args.workload, args.seed, "tiny", args.reference):
        run_call(call, warm_up)
    result = new_result()
    result["setup_s"] = perf_counter() - T_START
    if args.setup_only:
        print(json.dumps(result))
        return

    budget = args.seconds / 2 if args.trace else args.seconds
    samples, durations = run_for(calls, budget, result)
    results = metric_values(calls, samples)
    result.update(calls_made=sum(map(len, durations)), pass_seconds=pass_seconds(durations),
                  stages=stage_values(args.workload, results), results=results,
                  medians=metric_values(calls, samples, 0.5),
                  sample_counts=sample_counts(calls, samples),
                  samples=[[call.metric, s] for call, s in zip(calls, samples)])
    if args.trace:
        tracer = Tracer()
        tracer.install()
        _, traced = run_for(calls, budget, result)
        wall = sum(map(sum, traced))
        layers = tracer.report(wall)
        layers["trace_overhead_s"] = (pass_seconds(traced) - pass_seconds(durations), "s")
        layers["root_span_pct"] = (100.0 * tracer.root_seconds() / wall, "%")
        result.update(traced_calls=sum(map(len, traced)), per_layer=layers, absent=tracer.absent,
                      self_seconds=tracer.self_seconds(), spans=tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
