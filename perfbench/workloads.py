"""The four benchmark workloads: inputs from a seed, timed calls, output checks.

Each workload is a list of calls into the library's public API, which
`STAGES` groups into its two end-to-end stages.  A call carries the name of
the result metric its time feeds (``polar.exact_s`` ...) and a check that
returns failure messages for its result.  Everything here that is not a call is set-up: it runs once,
before timing starts.

Calls last at most about a second, so that a run repeats each of them many
times and reports a high quantile of each (see NOTES.md, Noise).  DE runs
last longer; they are timed per iteration instead (`IterationTimer`).

Only names looked up through the module objects at call time are traced, so
calls go through ``polar.synthesize`` and never through a bound local name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from abelianbp import de, oracle, polar, trees, trellis
from abelianbp.characters import tables_for
from abelianbp.eigenlists import holevo_info
from abelianbp.groups import GroupSpec
from abelianbp.messages import avg_holevo

WORKLOADS = ("de_ladder", "exact_mixtures", "sampled_paths", "oracle_verify")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Channel-family points for the exact and sampled workloads.  A grid (not a
# continuous draw) so that exact results can be compared with recorded
# reference values; all points are symmetric lists, because a random
# non-symmetric list makes exact polar L=4 run for minutes.
LAMBDA_GRID = (2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6)

# DE ladder around the q=3 threshold (2.641); acceptance criterion 10 puts
# the symmetric-ray crossing in [2.59, 2.69].
DE_LADDER = (2.0, 2.3, 2.5, 2.59, 2.69, 2.75, 2.85)
DE_CONVERGE_MAX = 2.59
DE_FAIL_MIN = 2.69
# q=5 point just below the Holevo threshold (4.395): DE does not converge
# within the cap there, so a capped run always runs to its cap.
DE_Q5_LAMBDA = 4.3
# The DE stages are priced per iteration: how many iterations a run takes is
# a Monte-Carlo outcome of its seed, not a cost of the code.  The ladder is
# priced per 100 iterations, the q=5 runs per 10.
LADDER_NOMINAL_ITERATIONS = 100
Q5_NOMINAL_ITERATIONS = 10
RATE_NAMES = {"de.ladder_s": "de.iters_per_s", "de.q5_s": "de.q5_iters_per_s"}

ORACLE_RULES = ("check", "equality", "hom", "marginalize", "automorphism",
                "gram", "covariance", "pgm", "entropy")

EXACT_TOL = 1e-9
CONSERVATION_TOL = 1e-7
MC_SIGMAS = 5.0

SIZES = {
    "full": {
        "de_population": 2000, "de_window": 41, "de_ladder": DE_LADDER,
        "de_q5_runs": 4, "de_q5_iters": 2, "polar_exact_levels": 3, "polar_exact_points": 2,
        "conv_exact_T": 5, "conv_exact_points": 1,
        "polar_sampled_levels": 4, "polar_samples": 10,
        "conv_sampled_T": 100, "mp_T": 60, "mp_runs": 2,
        "oracle_counts": {(3, 2): 25, (4, 3): 10},
    },
    # tiny: for the smoke test only; far from the threshold, so convergence
    # checks still hold with a small population
    "tiny": {
        "de_population": 100, "de_window": 41, "de_ladder": (2.0, 2.85),
        "de_q5_runs": 1, "de_q5_iters": 1, "polar_exact_levels": 2, "polar_exact_points": 1,
        "conv_exact_T": 2, "conv_exact_points": 1,
        "polar_sampled_levels": 2, "polar_samples": 10,
        "conv_sampled_T": 20, "mp_T": 6, "mp_runs": 2,
        "oracle_counts": {(3, 2): 2, (4, 3): 2},
    },
}

# Each end-to-end stage metric and the result metrics that add up to it.
STAGES = {
    "de_ladder": (("de.ladder_s",), ("de.q5_s",)),
    "exact_mixtures": (("polar.exact_s",), ("conv.exact_s",)),
    "sampled_paths": (("polar.sampled_s",), ("conv.sampled_s", "mp.sampled_s")),
    "oracle_verify": (("verify.z3xz2_s",), ("verify.z4xz3_s",)),
}
SUMS = {"verify.all_s": ("verify.z3xz2_s", "verify.z4xz3_s")}


@dataclass
class Call:
    metric: str
    run: object                 # () -> result
    check: object               # result -> list of failure messages
    units: object = None        # result -> work units (DE iterations)
    # > 0: a DE run, timed per iteration and priced as this many iterations
    per_iteration: int = 0


class IterationTimer:
    """Wraps `de.de_iteration` and keeps the duration of each call.

    `de_run` looks `de_iteration` up in its module at call time, so
    rebinding the module attribute times every iteration of every run.
    """

    def __init__(self):
        self.durations = []
        self._orig = None

    def install(self):
        if self._orig is None:
            self._orig = de.de_iteration
            de.de_iteration = self

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        result = self._orig(*args, **kwargs)
        self.durations.append(perf_counter() - t0)
        return result

    def take(self) -> list[float]:
        out, self.durations = self.durations, []
        return out


ITERATIONS = IterationTimer()


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((seed, *key)).generate_state(1)[0])


def pick_lambdas(seed: int, k: int) -> list[float]:
    """`k` distinct grid points drawn from the seed."""
    rng = np.random.default_rng(derive_seed(seed, 1))
    return [LAMBDA_GRID[int(i)] for i in rng.permutation(len(LAMBDA_GRID))[:k]]


def constituent():
    """The rate-1/3 turbo constituent (1 + D^2) / (1 + D + D^2) over Z3."""
    return trellis.transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def reference_key(size: str, lam0: float) -> str:
    return f"{size}:{lam0:.1f}"


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _compare(name, got, want, tol=EXACT_TOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    if not _finite(got):
        return [f"{name}: NaN or inf in result"]
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [f"{name}: deviates from reference by {dev:.3e}"] if dev > tol else []


def polar_rows(stats):
    return [[s.avg_holevo, s.avg_pgm_error] for s in stats]


def conv_rows(results):
    return [[m["posterior_holevo"], m["posterior_pgm_error"],
             m["extrinsic_holevo"], m["extrinsic_pgm_error"]]
            for m in trellis.section_metrics(results)]


def _conservation(stats, base, tol) -> list[str]:
    """Mean synthetic Holevo information equals the base channel's."""
    mean = float(np.mean([s.avg_holevo for s in stats]))
    gap = abs(mean - holevo_info(base))
    return [f"polar Holevo conservation off by {gap:.3e} (tol {tol:.1e})"] if gap > tol else []


def _sampled_tolerance(q: int, levels: int, samples: int) -> float:
    # per-sample Holevo values lie in [0, log2 q], so each has variance at
    # most (log2 q)^2 / 4; the indices are seeded independently
    return MC_SIGMAS * (math.log2(q) / 2) / math.sqrt(2 ** levels * samples)


def _metrics_in_range(rows, q: int) -> list[str]:
    arr = np.asarray(rows, dtype=float)
    if not _finite(arr):
        return ["NaN or inf in decoder metrics"]
    if arr.min() < -1e-9 or arr.max() > math.log2(q) + 1e-9:
        return ["decoder metric outside [0, log2 q]"]
    return []


# ---------------------------------------------------------------------------
# workload definitions


def _de_ladder(seed: int, size: dict, ref: dict) -> list[Call]:
    cfg = de.DEConfig(population=size["de_population"], window=size["de_window"])
    spec3 = de.standard_turbo(3)
    spec5 = de.standard_turbo(5)
    cfg5 = de.DEConfig(population=size["de_population"], window=size["de_window"],
                       max_iterations=size["de_q5_iters"])
    for G in (spec3.symbol_group, spec5.symbol_group):
        tables_for(G)

    def check5(res):
        out = []
        if not _finite(res.trajectory):
            out.append("DE q=5: NaN in trajectory")
        if res.converged or len(res.trajectory) != cfg5.max_iterations:
            out.append(f"DE q=5 ran {len(res.trajectory)} of {cfg5.max_iterations} iterations")
        return out

    # the q=5 runs come between the last ladder points, so that both stages
    # sample the whole length of a run
    ladder = size["de_ladder"]
    q5_after = {len(ladder) - 1 - j: j for j in range(size["de_q5_runs"])}
    calls = []
    for k, lam0 in enumerate(ladder):
        s = derive_seed(seed, 10, k)

        def check(res, lam0=lam0):
            out = []
            if not res.trajectory or not _finite(res.trajectory):
                out.append(f"DE lambda0={lam0}: NaN or empty trajectory")
            elif lam0 <= DE_CONVERGE_MAX and not res.converged:
                out.append(f"DE lambda0={lam0} did not converge")
            elif lam0 >= DE_FAIL_MIN and res.converged:
                out.append(f"DE lambda0={lam0} converged above the threshold window")
            return out

        calls.append(Call("de.ladder_s",
                          lambda lam0=lam0, s=s: de.de_run(spec3, cfg, lam0, seed=s),
                          check, units=lambda res: len(res.trajectory),
                          per_iteration=LADDER_NOMINAL_ITERATIONS))
        if k in q5_after:
            s5 = derive_seed(seed, 11, q5_after[k])
            calls.append(Call("de.q5_s",
                              lambda s5=s5: de.de_run(spec5, cfg5, DE_Q5_LAMBDA, seed=s5),
                              check5, units=lambda res: len(res.trajectory),
                              per_iteration=Q5_NOMINAL_ITERATIONS))
    ITERATIONS.install()
    return calls


def _exact_mixtures(seed: int, size: dict, ref: dict) -> list[Call]:
    n_polar = size["polar_exact_points"]
    lams = pick_lambdas(seed, n_polar + size["conv_exact_points"])
    lam_polar, lam_conv = lams[:n_polar], lams[n_polar:]
    spec = constituent()
    T = size["conv_exact_T"]
    levels = size["polar_exact_levels"]
    for G in (spec.symbol_group, spec.branch_group, spec.state_group):
        tables_for(G)

    calls = []
    for lam0 in lam_polar:
        base = de.channel_family(3, lam0)
        want = ref[reference_key(size["name"], lam0)]["polar"]

        def check_polar(stats, lam0=lam0, base=base, want=want):
            return (_compare(f"polar exact lambda0={lam0}", polar_rows(stats), want)
                    + _conservation(stats, base, CONSERVATION_TOL))

        calls.append(Call("polar.exact_s",
                          lambda base=base: polar.synthesize(base, levels, mode="exact"),
                          check_polar))
    for lam0 in lam_conv:
        obs = de.channel_family(3, lam0)
        want_conv = ref[reference_key(size["name"], lam0)]["conv"]

        def check_conv(results, lam0=lam0, want_conv=want_conv):
            return _compare(f"conv exact lambda0={lam0}", conv_rows(results), want_conv)

        calls.append(Call("conv.exact_s",
                          lambda obs=obs: trellis.decode_block(
                              spec, [[obs]] * T, symbol_obs_seq=[obs] * T, prune_eps=1e-6),
                          check_conv))
    return calls


def _sampled_paths(seed: int, size: dict, ref: dict) -> list[Call]:
    base = de.channel_family(3, pick_lambdas(seed, 1)[0])
    spec = constituent()
    levels, samples = size["polar_sampled_levels"], size["polar_samples"]
    T = size["conv_sampled_T"]
    Tm = size["mp_T"]
    tree = trellis.unroll_to_tree(spec, [[base]] * Tm, Tm // 2, symbol_obs_seq=[base] * Tm)
    for G in (base.group, spec.branch_group, spec.state_group):
        tables_for(G)
    tol = _sampled_tolerance(3, levels, samples)

    def check_polar(stats):
        return _metrics_in_range(polar_rows(stats), 3) or _conservation(stats, base, tol)

    def check_conv(results):
        return _metrics_in_range(conv_rows(results), 3)

    def check_mp(msg):
        return _metrics_in_range([[avg_holevo(msg)]], 3)

    s_polar, s_conv = derive_seed(seed, 20), derive_seed(seed, 21)
    calls = [
        Call("polar.sampled_s",
             lambda: polar.synthesize(base, levels, mode="sampled", seed=s_polar,
                                      samples=samples),
             check_polar),
        Call("conv.sampled_s",
             lambda: trellis.decode_block(spec, [[base]] * T, mode="sampled", seed=s_conv,
                                          symbol_obs_seq=[base] * T),
             check_conv),
    ]
    for k in range(size["mp_runs"]):
        s = derive_seed(seed, 22, k)
        calls.append(Call("mp.sampled_s",
                          lambda s=s: trees.run_mp(tree, mode="sampled", seed=s), check_mp))
    return calls


def _oracle_verify(seed: int, size: dict, ref: dict) -> list[Call]:
    calls = []
    for metric, G in (("verify.z3xz2_s", GroupSpec((3, 2))),
                      ("verify.z4xz3_s", GroupSpec((4, 3)))):
        tables_for(G)
        count = size["oracle_counts"][G.moduli]
        for k, rule in enumerate(ORACLE_RULES):
            s = derive_seed(seed, 30 + G.order, k)

            def check(report, rule=rule, G=G):
                if report.get("ok") is not True:
                    return [f"oracle {rule} on {G} not ok: {report}"]
                return []

            calls.append(Call(metric,
                              lambda rule=rule, G=G, s=s, count=count: oracle.verify_rule(
                                  rule, G, s, count),
                              check))
    return calls


DEFINITIONS = {
    "de_ladder": _de_ladder,
    "exact_mixtures": _exact_mixtures,
    "sampled_paths": _sampled_paths,
    "oracle_verify": _oracle_verify,
}


def build(name: str, seed: int, size_name: str = "full", reference=None) -> list[Call]:
    """Generate the workload's inputs from `seed` and return its calls."""
    size = dict(SIZES[size_name], name=size_name)
    return DEFINITIONS[name](seed, size, load_reference(reference or REFERENCE_PATH))
