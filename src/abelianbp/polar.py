"""Polar transform tracking over abelian groups.

One level of the standard kernel ``(u1, u2) -> (u1 u2, u2)`` maps two channel
copies to a bad/good pair:

    minus = check(W1, relabel of W2 by g -> g^{-1})   (`factors._check_inverse`)
    plus  = equality(W1, W2)

Alternative kernels, automorphisms of G x G, decompose into lift, equality
and marginalization (minus) and automorphism and equality (plus) factors;
they are validated but carry no frozen reference vectors.  Each transform is
one rule on operand columns (`factors._Rule`), and both modes run the same rule.

Exact mode runs a rule over the branch product of two heralded mixtures.
Sampled mode is the population construction of Tal and Vardy with herald
sampling: level d holds a population of columns per MSB-first index prefix;
a level pairs column j with column j + half in each population, keeps one
drawn herald per minus output and writes the minus and plus children over
the pairs they came from.  Pairing without replacement gives the samples of
an index disjoint ancestry, so they are independent, each distributed as a
recursion through 2^L fresh leaves.
The cost is L 2^L samples lists in 2L batched kernel calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import factors
from .eigenlists import EigenList, holevo_rows, pgm_rows
from .errors import ValidationError
from .factors import (_Rule, _automorphism, _check_inverse, _equality, _product_apply, _same_group,
                      sample_rows)
from .groups import GroupSpec, HomSpec, direct_product, is_automorphism
from .messages import ROW_FLOATS, HeraldedMessage, avg_holevo, avg_pgm_error, batches, guard, pure

DEFAULT_EXACT_LEVELS = 4
DEFAULT_SAMPLES = 1000


def polar_minus(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    """Bad synthetic channel: check with the second input relabelled by g -> g^{-1}."""
    return _product_apply([m1, m2], _check_inverse(_same_group(m1, m2, "polar minus")))


def polar_plus(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    """Good synthetic channel: equality combination."""
    return _product_apply([m1, m2], _equality(_same_group(m1, m2, "polar plus")))


# ---------------------------------------------------------------------------
# generic invertible kernels


def arikan_kernel(G: GroupSpec) -> HomSpec:
    """(u1, u2) -> (u1 u2, u2) as an automorphism of G x G."""
    k, GG = G.rank, direct_product(G, G)
    rows = [tuple(int(j in (i, i + k)) for j in range(2 * k)) for i in range(k)]
    rows += [tuple(int(j == i + k) for j in range(2 * k)) for i in range(k)]
    return HomSpec(GG, GG, tuple(rows))


def _kernel_blocks(G: GroupSpec, kernel: HomSpec):
    """Maps branch -> x1, x2 and second-column blocks c1, c2 (action on u2)."""
    GG, k, rows = kernel.source, G.rank, kernel.matrix
    if GG.moduli != G.moduli * 2:
        raise ValidationError(f"polar kernel must act on G x G for G = {G}")
    if not is_automorphism(kernel):
        raise ValidationError("polar kernel must be an automorphism of G x G")
    halves = (rows[:k], rows[k:])
    return GG, [HomSpec(GG, G, h) for h in halves], [
        HomSpec(G, G, tuple(row[k:] for row in h)) for h in halves]


@functools.lru_cache(maxsize=None)
def _kernel_minus_rule(G: GroupSpec, kernel: HomSpec):
    GG, outs, _ = _kernel_blocks(G, kernel)
    lift1, lift2 = (factors._lift(G, out) for out in outs)
    eq, marg = _equality(GG), factors._marginalize(GG, G.rank)
    return _Rule(G, lambda A, B: marg.rows(eq.rows(lift1.rows(A), lift2.rows(B))), marg.herald)


@functools.lru_cache(maxsize=None)
def _kernel_plus_rule(G: GroupSpec, kernel: HomSpec):
    blocks = [c if any(x for row in c.matrix for x in row) else None
              for c in _kernel_blocks(G, kernel)[2]]
    if blocks == [None, None]:
        raise ValidationError("kernel plus: both outputs decouple from u2")
    if not all(is_automorphism(c) for c in blocks if c is not None):
        raise ValidationError(
            "unsupported kernel: second-column block is neither zero nor an automorphism")
    auts, eq = [c if c is None else _automorphism(G, c) for c in blocks], _equality(G)
    return _Rule(G, lambda *ops: functools.reduce(
        eq.rows, [aut.rows(op) for aut, op in zip(auts, ops) if aut is not None]))


def kernel_minus(m1: HeraldedMessage, m2: HeraldedMessage, kernel: HomSpec) -> HeraldedMessage:
    """Bad channel of a generic kernel: lift, combine, marginalize u2 away."""
    return _product_apply([m1, m2], _kernel_minus_rule(_same_group(m1, m2, "kernel minus"), kernel))


def kernel_plus(m1: HeraldedMessage, m2: HeraldedMessage, kernel: HomSpec) -> HeraldedMessage:
    """Good channel of a generic kernel, u1 known: output i sees u2 through the
    second-column block c_i (covariance absorbs the shift by u1), so this is
    the equality of the outputs relabelled by their nonzero blocks."""
    return _product_apply([m1, m2], _kernel_plus_rule(_same_group(m1, m2, "kernel plus"), kernel))


@dataclass(frozen=True)
class IndexStats:
    index: int
    avg_holevo: float
    avg_pgm_error: float


def _population(base: EigenList, levels: int, samples: int, rng, rules, width: int):
    """Last level (|G|, 2^levels, samples); one uniform draw per minus column.

    A level runs in place, in blocks of at most `step` columns (whole
    prefixes, or a run of columns of one prefix): a block's minus children
    overwrite its columns j and its plus children its columns j + half, which
    is the next level's layout."""
    G, n = base.group, base.group.order
    try:
        pop = np.empty((n, 1, samples * 2 ** levels))
    except (MemoryError, ValueError):       # numpy refuses sizes beyond the address space
        raise ValidationError(f"a population of {samples} samples at {levels} levels on {G} "
                              f"({n * samples * 2 ** levels} floats) cannot be allocated") from None
    pop[:] = base.values[:, None, None]
    step = max(1, ROW_FLOATS // width)
    for _ in range(levels):
        prefixes, half = pop.shape[1], pop.shape[2] // 2
        u = rng.random(prefixes * half).reshape(prefixes, half)
        kp, kr = max(1, step // half), min(half, step)
        for p, k in itertools.product(range(0, prefixes, kp), range(0, half, kr)):
            P, K = slice(p, p + kp), slice(k, min(k + kr, half))
            A, B = pop[:, P, K], pop[:, P, half + k:half + K.stop]
            ops, uk = [A.reshape(n, -1), B.reshape(n, -1)], u[P, K].ravel()
            kids = [EigenList.checked_rows(G, sample_rows(rule, ops, uk)[0].T).T for rule in rules]
            A[:], B[:] = (kid.reshape(A.shape) for kid in kids)
        pop = pop.reshape(n, 2 * prefixes, half)
    return pop


def resolve_mode(mode: str, levels: int) -> str:
    """``auto`` is exact up to `DEFAULT_EXACT_LEVELS` levels, sampled beyond."""
    return mode if mode != "auto" else "exact" if levels <= DEFAULT_EXACT_LEVELS else "sampled"


def synthesize(base: EigenList, levels: int, mode: str = "auto",
               seed: int | None = None, prune_eps: float = 0.0,
               samples: int = DEFAULT_SAMPLES,
               kernel: HomSpec | None = None) -> list[IndexStats]:
    """Track all 2^levels synthetic channels.

    Index bit convention: writing the index in binary, the most significant
    bit selects the transform applied directly to the base channel and the
    least significant bit the outermost one; bit 0 means minus, 1 means plus.
    ``mode`` is ``exact``, ``sampled`` or ``auto`` (`resolve_mode`).  Sampled
    mode averages `samples` herald trajectories per index, drawn by the
    population sampler from the generator of `seed` in levels * 2^levels *
    samples lists; its values differ from earlier releases for the same seed.
    """
    if levels < 0:
        raise ValidationError("levels must be nonnegative")
    rng = factors.Tracker(resolve_mode(mode, levels), seed, prune_eps, samples).rng
    G, n = base.group, base.group.order
    rules = ((_check_inverse(G), _equality(G)) if kernel is None
             else (_kernel_minus_rule(G, kernel), _kernel_plus_rule(G, kernel)))
    if rng is None:
        channels = [pure(base)]
        for _ in range(levels):
            channels = [guard(_product_apply([msg, msg], rule), prune_eps)
                        for msg in channels for rule in rules]
        return [IndexStats(i, avg_holevo(ch), avg_pgm_error(ch))
                for i, ch in enumerate(channels)]
    pop = _population(base, levels, samples, rng, rules, n ** (2 if kernel is None else 4))
    holevo, pgm = np.empty(2 ** levels), np.empty(2 ** levels)     # per index
    for s in batches(2 ** levels, samples * n, ROW_FLOATS):
        rows = np.ascontiguousarray(pop[:, s].transpose(1, 2, 0))
        holevo[s], pgm[s] = holevo_rows(rows).mean(axis=1), pgm_rows(rows).mean(axis=1)
    return [IndexStats(i, float(h), float(e)) for i, (h, e) in enumerate(zip(holevo, pgm))]


def select_info_set(stats, k: int) -> list[int]:
    """Indices of the k smallest PGM errors; ties broken toward smaller index."""
    if not 0 <= k <= len(stats):
        raise ValidationError(f"info-set size {k} out of range")
    ranked = sorted(stats, key=lambda s: (s.avg_pgm_error, s.index))
    return sorted(s.index for s in ranked[:k])
