"""Turbo coupling and Monte-Carlo density evolution.

Density evolution tracks a population of extrinsic eigen lists on the symbol
group.  One update is a shared sweep: it draws i.i.d. a priori lists from the
current population for blocks of ``B + 2 ctx`` symbols, ``ctx = window // 2``,
runs one sampled forward and one sampled backward recursion of one
constituent over each block, and records the extrinsic lists of the ``B``
middle symbols, each with at least ``ctx`` symbols of context on either side;
the posterior error is the PGM error of ``extrinsic * systematic * a priori``
there.  ``B`` is about sqrt(population) / 3, and ``B = 1`` is the plain
window estimator.  Under the random-interleaver ensemble the exchange between
constituents is exactly this population resampling, so no permutation is
materialized.

The recursions are the two-way sweep of sampled `decode_block` (`trellis._sweep`,
one stacked recursion on workspaces reused by every step), one array column per
block (sweep) or tracked symbol (extrinsics); kernels, parity weights and the
systematic fold are built once per channel (`_update`).  Elementwise operations
in a fixed order (no BLAS) keep results bit-identical for any thread count and block size.

Extrinsic convention: the trellis-side message at a tracked symbol omits both
symbol-side leaves (channel observation and a priori) of that symbol;
since marginalization commutes with symbol-side equality combination, the
posterior formula above reproduces the full branch marginal exactly while
keeping the constituent exchange free of double counting.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characters import tables_for
from .eigenlists import EigenList, holevo_info, pgm_rows, useless_list
from .errors import NumericalError, ValidationError
from .groups import GroupSpec
from .messages import CACHE_FLOATS, batches, check_seed
from .trellis import (TrellisSpec, _both, _draw, _gather, _input_lists, _section, _sweep,
                      _Work, transfer_function_trellis)


def channel_family(q: int, lam0: float) -> EigenList:
    """One-parameter family [lam0, (q-lam0)/(q-1), ...] on Z_q.

    lam0 = q is the useless channel, lam0 = 1 the perfect one; values below 1
    would push the tail entries past 1 and are rejected.
    """
    if q < 2:
        raise ValidationError("channel family needs q >= 2")
    if not 1.0 <= lam0 <= q:
        raise ValidationError(f"family parameter {lam0} outside [1, {q}]")
    rest = (q - lam0) / (q - 1)
    return EigenList(GroupSpec((q,)), [lam0] + [rest] * (q - 1))


def parse_fraction(text: str, name: str) -> Fraction:
    """`text` as an exact fraction such as "1/3"; `name` labels the error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{name} {text!r} is not a fraction") from exc


def holevo_threshold(q: int, rate) -> float:
    """The lam0 where the family's Holevo information meets rate * log2(q).

    The information is strictly decreasing in lam0 on [1, q], so plain
    bisection resolves the crossing.
    """
    if q < 2:
        raise ValidationError(f"q must be at least 2, got {q}")
    rate = float(parse_fraction(rate, "rate") if isinstance(rate, str) else rate)
    if not 0.0 < rate < 1.0:
        raise ValidationError("rate must lie in (0, 1)")
    target = rate * math.log2(q)
    lo, hi = 1.0, float(q)
    for _ in range(64):
        mid = (lo + hi) / 2
        if holevo_info(channel_family(q, mid)) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    return (lo + hi) / 2


@dataclass(frozen=True)
class TurboSpec:
    """Two constituent encoders coupled through the shared symbol sequence.

    ``systematic_mult`` counts channel uses of the systematic symbol (copies
    are equality-combined); ``parity_mults[c]`` likewise for constituent c's
    parity streams.  Rate bookkeeping: one information symbol per
    ``systematic_mult + sum_c parity_mults[c] * len(outputs_c)`` channel uses.
    """

    constituents: tuple[TrellisSpec, TrellisSpec]
    systematic_mult: int = 1
    parity_mults: tuple[int, int] = (1, 1)
    target_rate: Fraction | None = None

    def __post_init__(self):
        if len(self.constituents) != 2 or len(self.parity_mults) != 2:
            raise ValidationError(f"a turbo spec takes two constituents and two parity_mults, "
                                  f"not {len(self.constituents)} and {len(self.parity_mults)}")
        c1, c2 = self.constituents
        if c1.symbol_group.moduli != c2.symbol_group.moduli:
            raise ValidationError("constituents must share the symbol group")
        if self.systematic_mult < 0 or any(p < 0 for p in self.parity_mults):
            raise ValidationError("stream multiplicities must be nonnegative")
        if self.systematic_mult == 0 and all(
            p * len(c.outputs) == 0
            for p, c in zip(self.parity_mults, self.constituents)
        ):
            raise ValidationError("turbo spec carries no informative stream")
        if self.target_rate is not None and self.target_rate != self.rate:
            raise ValidationError(f"target rate {self.target_rate} differs from the rate "
                                  f"{self.rate} of the stream multiplicities")

    @property
    def symbol_group(self) -> GroupSpec:
        return self.constituents[0].symbol_group

    @property
    def rate(self) -> Fraction:
        uses = self.systematic_mult + sum(
            p * len(c.outputs) for p, c in zip(self.parity_mults, self.constituents)
        )
        return Fraction(1, uses)


def standard_turbo(q: int = 3, p=(1, 0, 1), qpoly=(1, 1, 1),
                   systematic_mult: int = 1) -> TurboSpec:
    """Two identical transfer-function constituents over Z_q."""
    c = transfer_function_trellis(list(p), list(qpoly), q)
    return TurboSpec((c, c), systematic_mult=systematic_mult)


def _check_window(window: int) -> None:
    if window % 2 == 0 or window < 1:
        raise ValidationError("window length must be odd (center symbol)")


@dataclass(frozen=True)
class DEConfig:
    """Density-evolution experiment parameters.

    The recursion always samples herald values (the exact mixture would grow
    super-exponentially and adds nothing to a Monte-Carlo population), so
    pruning never applies.  `window` asks for at least ``window // 2``
    sections of context on each side of every tracked section.  Runs are
    deterministic given `master_seed` and independent of thread count.
    """

    population: int = 2000
    max_iterations: int = 100
    window: int = 41
    err_threshold: float = 1e-3
    stall_rel: float = 1e-3
    stall_window: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.population < 1:
            raise ValidationError("population must be positive")
        _check_window(self.window)
        if not 0.0 < self.err_threshold < 1.0:
            raise ValidationError("error threshold must lie in (0, 1)")
        if self.max_iterations < 1 or self.stall_window < 1:
            raise ValidationError("max_iterations and stall_window must be at least 1")
        if not 0.0 <= self.stall_rel < 1.0:
            raise ValidationError("stall tolerance must lie in [0, 1)")
        check_seed(self.master_seed)


@functools.lru_cache(maxsize=16)
def _update(spec: TurboSpec, constituent: int, lam_ch: EigenList):
    """An update's kernels, weights, systematic fold and boundary, per channel object;
    the folds and the parity list are section input lists (`trellis._input_lists`)."""
    G, trellis = spec.symbol_group, spec.constituents[constituent]
    build, col, n = _input_lists(trellis), lam_ch.values[:, None], len(trellis.outputs)
    # the parity list, one shared column: the lifted parity observations, each folded
    fold = build([], [col] * spec.parity_mults[constituent], 1)[1]
    parity = build([fold] * n, [], 1)[0]
    both, ext = _both(trellis, n, n), _section(trellis, "extrinsic", n)
    return (both, both.weights(np.repeat(parity, 2, axis=0)), ext, ext.weights(parity),
            build([], [col] * spec.systematic_mult, 1)[1] / G.order,
            useless_list(trellis.state_group).values[:, None, None])


def _with_systematic(G: GroupSpec, fold: np.ndarray, lists: np.ndarray) -> np.ndarray:
    """Lists on the leading axis equality-combined with the folded systematic
    observations `fold`, over q: list c adds ``fold[c - k] * lists[k]``."""
    return _gather(fold, tables_for(G).sub.T, lists.reshape(G.order, -1)).reshape(lists.shape)


def _block_sections(n: int) -> int:
    """Tracked sections per block for a population of n: a block takes
    B + ctx - 1 two-way sweep steps on n / B columns, so call overhead favours B
    near sqrt(n); sqrt(n) / 3 runs within 3% of the fastest for n = 100-8000."""
    return max(1, round(math.sqrt(n) / 3))


def de_iteration(spec: TurboSpec, population: np.ndarray, lam_ch: EigenList,
                 rng, window: int = 41, constituent: int = 0):
    """One update of the extrinsic population by constituent `constituent`.

    Returns ``(new_population, posterior_error)``.  ``population`` is a
    (size, |G|) array of eigen lists on the symbol group, one per row; the
    new population holds the sampled extrinsics of that many tracked
    sections, `B` per block of ``B + 2 * (window // 2)`` sections (see
    `_block_sections`).  Rows are checked as eigen lists; a NaN row or error
    is a `NumericalError`.
    """
    _check_window(window)
    G, trellis = spec.symbol_group, spec.constituents[constituent]
    q = G.order
    if population.ndim != 2 or population.shape[0] < 1 or population.shape[1] != q:
        raise ValidationError(f"population of shape {population.shape} is not (size, {q})")
    population = EigenList.checked_rows(G, population)
    if lam_ch.group.moduli != G.moduli:
        raise ValidationError("channel eigen list is not on the symbol group")
    if trellis.outputs and trellis.output_group.moduli != G.moduli:   # the parity channel
        raise ValidationError("eigen list does not live on the hom's target group")
    both, both_w, ext_k, ext_w, fold, boundary = _update(spec, constituent, lam_ch)
    n, ns = population.shape[0], trellis.state_group.order
    ctx, B = window // 2, _block_sections(n)
    m = -(-n // B)                                 # blocks, one column each
    apr_idx = rng.integers(0, n, size=(m, B + 2 * ctx)).T
    # the herald uniforms, one per block per marginalization, drawn in the
    # order forward sweep, backward sweep, tracked extrinsics
    u = rng.random((2 * (B + ctx - 1) + B, m))
    L = ctx + B - 1                                # sweep steps
    # step t's symbol-side lists: forward section t, backward section B + 2 ctx - 1 - t
    sections = np.stack((apr_idx[:L], apr_idx[::-1][:L]), axis=1)
    second = _with_systematic(G, fold, population.T[:, sections])   # (q, L, 2, m)
    # the states around the tracked sections ctx .. ctx + B - 1, the only ones kept
    states, _ = _sweep(boundary, ((both, both_w, second[:, t]) for t in range(L)),
                       u[:2 * L].reshape(2, L, m).transpose(1, 0, 2), skip=ctx)
    del second, sections
    fwd = states[:, :, 0].transpose(1, 0, 2).reshape(ns, -1)      # column s * m + block
    bwd = states[::-1, :, 1].transpose(1, 0, 2).reshape(ns, -1)
    del states                                     # before the batches take their workspaces
    ext, u, work = np.empty((q, B * m)), u[2 * L:].ravel(), _Work()
    for cols in batches(B * m, trellis.branch_group.order, CACHE_FLOATS):
        _draw(ext_k.branch(fwd[:, cols], ext_w, bwd[:, cols], work), u[cols], ext[:, cols])
    ext = EigenList.checked_rows(G, ext[:, :n].T)
    apr = population.T[:, apr_idx[ctx:ctx + B].ravel()[:n]]
    post = _gather(_with_systematic(G, fold, ext.T), tables_for(G).sub.T, apr / q)
    err = float(pgm_rows(np.clip(post, 0.0, None).T).mean())
    if not math.isfinite(err):
        raise NumericalError(f"DE posterior error is {err}")
    return ext, err


@dataclass
class DEResult:
    converged: bool
    trajectory: list[float] = field(default_factory=list)
    stalled: bool = False

    @property
    def iterations(self) -> int:
        return len(self.trajectory)


def de_run(spec: TurboSpec, config: DEConfig, channel, seed: int | None = None) -> DEResult:
    """Iterate density evolution until convergence, stall, or the cap.

    ``channel`` is a family parameter lam0 or an eigen list on the symbol
    group.  Deterministic given the seed (default: the config's master seed);
    per-iteration generators derive from (seed, iteration).
    """
    if isinstance(channel, EigenList):
        lam_ch = channel
    else:
        lam_ch = channel_family(spec.symbol_group.order, float(channel))
    seed = config.master_seed if seed is None else seed
    check_seed(seed)
    pop = np.tile(useless_list(spec.symbol_group).values, (config.population, 1))
    result = DEResult(converged=False)
    for it in range(config.max_iterations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, it)))
        pop, err = de_iteration(spec, pop, lam_ch, rng, window=config.window,
                                constituent=it % 2)
        result.trajectory.append(err)
        if err < config.err_threshold:
            result.converged = True
            return result
        if it + 1 >= 2 * config.stall_window:
            hist = result.trajectory
            prev = min(hist[: -config.stall_window])
            recent = min(hist[-config.stall_window:])
            if recent > prev * (1.0 - config.stall_rel):
                result.stalled = True
                return result
    return result


def _check_grid(resolution: float, trials: int) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValidationError(f"resolution must be positive and finite, got {resolution}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")


def _wins(spec: TurboSpec, config: DEConfig, channel, key: int, trials: int) -> int:
    """How many of `trials` runs converge, seeded from (master seed, key, trial)."""
    seeds = (np.random.SeedSequence((config.master_seed, key, trial)).generate_state(1)[0]
             for trial in range(trials))
    return sum(de_run(spec, config, channel, seed=int(s)).converged for s in seeds)


def threshold_bisect(spec: TurboSpec, config: DEConfig, resolution: float = 0.01,
                     trials: int = 3) -> dict:
    """Bisect the family parameter for the largest converging channel.

    Each probe is decided by the majority of `trials` independently seeded
    runs, suppressing Monte-Carlo flips near the threshold.
    """
    _check_grid(resolution, trials)
    lo, hi = 1.0, float(spec.symbol_group.order)
    probes = []
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        wins = _wins(spec, config, mid, len(probes), trials)
        ok = wins * 2 > trials
        probes.append({"lambda0": mid, "converged": ok, "wins": wins, "trials": trials})
        lo, hi = (mid, hi) if ok else (lo, mid)
    return {"lambda_de": (lo + hi) / 2, "lo": lo, "hi": hi, "probes": probes}


def heatmap(spec: TurboSpec, config: DEConfig, resolution: float = 0.05,
            lambda0_range=None, ray_only: bool = False, trials: int = 1) -> list[dict]:
    """DE success frequency over the ternary eigen-list simplex.

    Emits rows (lambda0, lambda1, lambda2, success_freq) for the grid with
    barycentric step `resolution`; ``ray_only`` restricts to the symmetric ray
    lambda1 == lambda2, ``lambda0_range`` clips the first coordinate.
    """
    G = spec.symbol_group
    q = G.order
    if q != 3:
        raise ValidationError("the simplex heatmap is defined for q = 3")
    _check_grid(resolution, trials)
    lo0, hi0 = lambda0_range if lambda0_range is not None else (0.0, float(q))
    if not (math.isfinite(lo0) and math.isfinite(hi0) and lo0 <= hi0):
        raise ValidationError(f"lambda0 range must be finite with lo <= hi, got {lo0}, {hi0}")
    rows = []
    n_steps = int(round(q / resolution))
    point_id = 0
    for i in range(n_steps + 1):
        lam0 = i * resolution
        if lam0 < lo0 - 1e-12 or lam0 > hi0 + 1e-12:
            continue
        if ray_only:
            lam1_values = [(q - lam0) / 2]
        else:
            lam1_values = [j * resolution for j in range(n_steps + 1 - i)]
        for lam1 in lam1_values:
            lam2 = q - lam0 - lam1
            if lam2 < -1e-9:
                continue
            lam = EigenList(G, [lam0, lam1, max(lam2, 0.0)])
            wins = _wins(spec, config, lam, 7_000_000 + point_id, trials)
            rows.append({"lambda0": lam0, "lambda1": lam1, "lambda2": max(lam2, 0.0),
                         "success_freq": wins / trials})
            point_id += 1
    return rows
