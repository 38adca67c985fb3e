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

The recursion is the trellis calculus specialized to sampled mode and
vectorized, one array column per block (sweeps) or tracked symbol (extrinsics).
Each equality combine is one gather-and-accumulate kernel over index tables,
and adjoin or lift is fused with the sparse parity combine.  Elementwise
operations in a fixed order (no BLAS) keep results bit-identical for any thread
count and block size.

Extrinsic convention: the trellis-side message at a tracked symbol omits both
symbol-side leaves (channel observation and a priori) of that symbol;
since marginalization commutes with symbol-side equality combination, the
posterior formula above reproduces the full branch marginal exactly while
keeping the constituent exchange free of double counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characters import dual_map_table, tables_for
from .eigenlists import EigenList, holevo_info, useless_list
from .errors import NumericalError, ValidationError
from .factors import equality_fold, lift_along_hom
from .groups import GroupSpec
from .trellis import (
    TrellisSpec,
    next_state_hom,
    symbol_projection,
    validate_trellis,
)


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


def holevo_threshold(q: int, rate) -> float:
    """The lam0 where the family's Holevo information meets rate * log2(q).

    The information is strictly decreasing in lam0 on [1, q], so plain
    bisection resolves the crossing.
    """
    rate = float(Fraction(rate) if isinstance(rate, str) else rate)
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
        c1, c2 = self.constituents
        if c1.symbol_group.moduli != c2.symbol_group.moduli:
            raise ValidationError("constituents must share the symbol group")
        validate_trellis(c1)
        validate_trellis(c2)
        if self.systematic_mult < 0 or any(p < 0 for p in self.parity_mults):
            raise ValidationError("stream multiplicities must be nonnegative")
        if self.systematic_mult == 0 and all(
            p * len(c.outputs) == 0
            for p, c in zip(self.parity_mults, self.constituents)
        ):
            raise ValidationError("turbo spec carries no informative stream")

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
    from .trellis import transfer_function_trellis

    c = transfer_function_trellis(list(p), list(qpoly), q)
    return TurboSpec((c, c), systematic_mult=systematic_mult)


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
        if self.window % 2 == 0 or self.window < 1:
            raise ValidationError("window length must be odd (center symbol)")
        if not 0.0 < self.err_threshold < 1.0:
            raise ValidationError("error threshold must lie in (0, 1)")


# floats per branch array: de_iteration runs the extrinsic on column blocks
# this small, so that every step's arrays stay in cache
_BLOCK_FLOATS = 1 << 15


def _gather_sum(x: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The batched kernel ``sum_k x[idx[:, k]] * w[k]`` on sample columns.

    ``x`` is (in, n), ``idx`` an (out, K) table of rows of ``x`` and ``w`` the
    weights, constant (K, out, 1) or per sample (K, 1, n).  Terms are added in
    table order, elementwise, so the result does not depend on thread count.
    """
    acc = x[idx[:, 0]] * w[0]
    for k in range(1, idx.shape[1]):
        acc += x[idx[:, k]] * w[k]
    return acc


def _sparse_map(dense: np.ndarray):
    """Index (out, K) and weight (K, out, 1) tables of the nonzeros of each
    row of ``dense``, K the most in any row; shorter rows get zero weights."""
    nz = dense != 0
    idx = np.argsort(~nz, axis=1, kind="stable")[:, :max(1, nz.sum(axis=1).max())]
    return idx, np.take_along_axis(dense, idx, axis=1).T[:, :, None]


class _WindowEngine:
    """Population-vectorized sampled forward-backward on one constituent.

    Messages are (size, n) arrays, one column per sample, and every equality
    combine is `_gather_sum` over tables built here.  The adjoined (forward,
    extrinsic) or lifted (backward) state is 1/q dense and the lifted parity
    list lives on the q-point dual image of the output map, so adjoin or lift
    fused with the parity combine is a sparse map from the (ns, n) state to
    the (nb, n) branch array: one term per row for a one-output section.  The
    symbol combine has q per-sample terms, the extrinsic's backward-state
    combine ns; the forward automorphism and the rest-major row order are
    folded into their tables.  Each step marginalizes a (rest, herald, n)
    array, drawing the herald of each sample from one given uniform.
    """

    def __init__(self, trellis: TrellisSpec, lam_ch: EigenList,
                 systematic_mult: int, parity_mult: int):
        validate_trellis(trellis)
        if lam_ch.group.moduli != trellis.output_group.moduli:
            raise ValidationError("channel eigen list is not on the output group")
        if trellis.output_group.moduli != trellis.symbol_group.moduli:
            raise ValidationError("window engine expects parity symbols on the symbol alphabet")
        G, B = trellis.symbol_group, trellis.branch_group
        q = self.q = G.order
        ns = self.ns = q ** trellis.memory
        nb = self.nb = q ** (trellis.memory + 1)
        sub_b = tables_for(B).sub                      # [c, c'] = index of c - c'
        self.sub_q = tables_for(G).sub

        def fold(k):      # k channel uses, equality-combined (useless if none)
            return equality_fold([lam_ch] * k) if k else useless_list(G)
        parity = equality_fold([useless_list(B)] + [
            lift_along_hom(fold(parity_mult), L) for L in trellis.outputs]).values
        # a state list placed at branch characters src (adjoin: q * s, lift:
        # next_idx[s]) and combined with the parity list P has as row c the
        # sum over s of q x[s] P[c - src[s]] / nb
        next_idx = dual_map_table(next_state_hom(trellis))
        self.adjoin_parity = _sparse_map(parity[sub_b[:, q * np.arange(ns)]] * (q / nb))
        self.lift_parity = _sparse_map(parity[sub_b[:, next_idx]] * (q / nb))
        # output rows in (rest, herald) order; the backward step's already are
        self.ext_bwd = sub_b[:, next_idx].reshape(ns, q, ns).swapaxes(0, 1).reshape(nb, ns)
        sub_sym = sub_b[:, dual_map_table(symbol_projection(trellis))]   # (nb, q)
        self.fwd_sym = sub_sym[dual_map_table(trellis.section_automorphism)].reshape(
            q, ns, q).swapaxes(0, 1).reshape(nb, q)
        self.bwd_sym = sub_sym
        self.sys_map = _sparse_map(fold(systematic_mult).values[self.sub_q] / q)

    def boundary(self, n: int) -> np.ndarray:
        state = np.zeros((self.ns, n))
        state[0] = self.ns
        return state

    def _draw(self, arr: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Marginalize a (rest, heralds, n) array on one herald per sample,
        drawn by inverting the herald distribution at the uniforms ``u``.  The
        rest axis is the outer one, so numpy adds it in order for any n."""
        p = arr.sum(axis=0) / self.nb
        cs = np.cumsum(np.clip(p, 0.0, None), axis=0)
        h = np.minimum((cs < u * cs[-1]).sum(axis=0), p.shape[0] - 1)
        cols = np.arange(p.shape[1])
        return arr[:, h, cols] / (self.nb / arr.shape[0] * p[h, cols])

    def _section(self, state, sym, fused, sym_idx):
        branch = _gather_sum(_gather_sum(state, *fused), sym_idx, sym[:, None, :] / self.q)
        return branch.reshape(self.ns, self.q, -1)

    def forward(self, state, sym, u):
        """Adjoin, parity, symbol, automorphism; herald = dropped coordinate."""
        return self._draw(self._section(state, sym, self.adjoin_parity, self.fwd_sym), u)

    def backward(self, state, sym, u):
        """Lift along the next-state map, parity, symbol; herald = symbol."""
        return self._draw(self._section(state, sym, self.lift_parity, self.bwd_sym), u)

    def extrinsic(self, fwd, bwd, u):
        """Adjoin, parity, lifted backward state; herald = state."""
        branch = _gather_sum(_gather_sum(fwd, *self.adjoin_parity), self.ext_bwd,
                             bwd[:, None, :] / self.ns)
        return self._draw(branch.reshape(self.q, self.ns, -1), u)

    def symbol_messages(self, apriori: np.ndarray) -> np.ndarray:
        """sysfold * apriori over the leading q axis."""
        return _gather_sum(apriori.reshape(self.q, -1), *self.sys_map).reshape(apriori.shape)

    def posterior(self, ext, apriori):
        post = _gather_sum(self.symbol_messages(ext), self.sub_q, apriori[:, None, :] / self.q)
        return np.clip(post, 0.0, None)

    def pgm_errors(self, lists: np.ndarray) -> np.ndarray:
        return 1.0 - (np.sqrt(np.clip(lists, 0.0, None)).sum(axis=1) / self.q) ** 2


def _engines(spec: TurboSpec, lam_ch: EigenList):
    return [
        _WindowEngine(c, lam_ch, spec.systematic_mult, p)
        for c, p in zip(spec.constituents, spec.parity_mults)
    ]


def _block_sections(n: int) -> int:
    """Tracked sections per block for a population of n: a block takes
    2 (B + ctx - 1) sweep steps on n / B columns, so call overhead favours B
    near sqrt(n); sqrt(n) / 3 measured fastest, within noise, for n = 100-8000."""
    return max(1, round(math.sqrt(n) / 3))


def de_iteration(spec: TurboSpec, population: np.ndarray, lam_ch: EigenList,
                 rng, window: int = 41, engine: _WindowEngine | None = None):
    """One constituent update of the extrinsic population.

    The constituent is the one `engine` decodes, the first by default.
    Returns ``(new_population, posterior_error)``.  ``population`` is an
    array of eigen lists on the symbol group, one per row; the new population
    holds the sampled extrinsics of that many tracked sections, `B` per block
    of ``B + 2 * (window // 2)`` sections (see `_block_sections`).  Raises
    `NumericalError` on a NaN, negative or mass-losing row or a NaN error.
    """
    if population.ndim != 2 or population.shape[0] < 1:
        raise ValidationError("population must be a nonempty 2-d array")
    if engine is None:
        engine = _engines(spec, lam_ch)[0]
    n = population.shape[0]
    ctx, B = window // 2, _block_sections(n)
    m = -(-n // B)                                 # blocks, one column each
    apr_idx = rng.integers(0, n, size=(m, B + 2 * ctx)).T
    # the herald uniforms, one per block per marginalization, drawn in the
    # order forward sweep, backward sweep, tracked extrinsics
    u = rng.random((2 * (B + ctx - 1) + B, m))
    sym = engine.symbol_messages(population.T[:, apr_idx])     # (q, sections, m)
    fwd, bwd = [engine.boundary(m)], [engine.boundary(m)]
    for t in range(ctx + B - 1):
        fwd.append(engine.forward(fwd[-1], sym[:, t], u[t]))
        bwd.append(engine.backward(bwd[-1], sym[:, -1 - t], u[ctx + B - 1 + t]))
    # states around the tracked sections ctx .. ctx + B - 1; column s * m + block
    fwd = np.stack(fwd[ctx:], axis=1).reshape(engine.ns, -1)
    bwd = np.stack(bwd[::-1][:B], axis=1).reshape(engine.ns, -1)
    ext, u = np.empty((engine.q, B * m)), u[-B:].ravel()
    step = max(1, _BLOCK_FLOATS // engine.nb)
    for cols in (slice(lo, lo + step) for lo in range(0, B * m, step)):
        ext[:, cols] = engine.extrinsic(fwd[:, cols], bwd[:, cols], u[cols])
    ext = ext[:, :n]
    post = engine.posterior(ext, population.T[:, apr_idx[ctx:ctx + B].ravel()[:n]])
    err = float(engine.pgm_errors(post.T).mean())
    q = engine.q        # every sample must stay a nonnegative list of sum |G|
    ok = (ext >= -1e-9).all(axis=0) & (np.abs(ext.sum(axis=0) - q) <= 1e-6 * q)
    if not ok.all() or not math.isfinite(err):
        raise NumericalError(f"DE population invalid in {int((~ok).sum())} of {n} "
                             f"rows (NaN or lost mass), posterior error {err}")
    return ext.T, err


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
    engines = _engines(spec, lam_ch)
    pop = np.tile(useless_list(spec.symbol_group).values, (config.population, 1))
    result = DEResult(converged=False)
    for it in range(config.max_iterations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, it)))
        engine = engines[it % 2]
        pop, err = de_iteration(spec, pop, lam_ch, rng, window=config.window,
                                engine=engine)
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


def threshold_bisect(spec: TurboSpec, config: DEConfig, resolution: float = 0.01,
                     trials: int = 3) -> dict:
    """Bisect the family parameter for the largest converging channel.

    Each probe is decided by the majority of `trials` independently seeded
    runs, suppressing Monte-Carlo flips near the threshold.
    """
    q = spec.symbol_group.order
    lo, hi = 1.0, float(q)
    probes = []

    def probe(lam0, k):
        wins = 0
        for trial in range(trials):
            seed_val = int(np.random.SeedSequence(
                (config.master_seed, k, trial)).generate_state(1)[0])
            res = de_run(spec, config, lam0, seed=seed_val)
            wins += int(res.converged)
        ok = wins * 2 > trials
        probes.append({"lambda0": lam0, "converged": ok,
                       "wins": wins, "trials": trials})
        return ok

    k = 0
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if probe(mid, k):
            lo = mid
        else:
            hi = mid
        k += 1
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
    lo0, hi0 = lambda0_range if lambda0_range is not None else (0.0, float(q))
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
            wins = 0
            for trial in range(trials):
                seed_val = int(np.random.SeedSequence(
                    (config.master_seed, 7_000_000 + point_id, trial)
                ).generate_state(1)[0])
                wins += int(de_run(spec, config, lam, seed=seed_val).converged)
            rows.append({"lambda0": lam0, "lambda1": lam1, "lambda2": max(lam2, 0.0),
                         "success_freq": wins / trials})
            point_id += 1
    return rows
