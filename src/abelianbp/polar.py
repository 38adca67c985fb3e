"""Polar transform tracking over abelian groups.

One level of the standard kernel ``(u1, u2) -> (u1 u2, u2)`` maps two channel
copies to a bad/good pair:

    minus = check(W1, relabel of W2 by g -> g^{-1})
    plus  = equality(W1, W2)

Recursing n levels over 2^n copies of a base channel yields per-index
synthetic-channel statistics.  Exact mode propagates full heralded mixtures;
sampled mode estimates each index with a population of herald trajectories.

Alternative kernels given as automorphisms of G x G are decomposed into lift,
equality, marginalization, and automorphism factors (`kernel_minus`,
`kernel_plus`); they are validated for consistency but carry no frozen
reference vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .eigenlists import EigenList
from .errors import ValidationError
from .factors import (
    apply_automorphism_m,
    check_combine_m,
    equality_combine_m,
    equality_fold_m,
    lift_along_hom_m,
    marginalize_split_m,
)
from .groups import (
    GroupSpec,
    HomSpec,
    direct_product,
    inversion_automorphism,
    is_automorphism,
    is_surjective,
)
from .messages import (
    HeraldedMessage,
    avg_holevo,
    avg_pgm_error,
    guard,
    herald_rng,
    pure,
)

DEFAULT_EXACT_LEVELS = 4
DEFAULT_SAMPLES = 1000


def polar_minus(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    """Bad synthetic channel: inverse-relabel the second input, then check."""
    if m1.group.moduli != m2.group.moduli:
        raise ValidationError("polar minus: group mismatch")
    inv = inversion_automorphism(m2.group)
    return check_combine_m(m1, apply_automorphism_m(m2, inv))


def polar_plus(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    """Good synthetic channel: equality combination."""
    if m1.group.moduli != m2.group.moduli:
        raise ValidationError("polar plus: group mismatch")
    return equality_combine_m(m1, m2)


# ---------------------------------------------------------------------------
# generic invertible kernels


def arikan_kernel(G: GroupSpec) -> HomSpec:
    """(u1, u2) -> (u1 u2, u2) as an automorphism of G x G."""
    k = G.rank
    GG = direct_product(G, G)
    rows = []
    for i in range(k):
        rows.append(tuple(1 if j in (i, i + k) else 0 for j in range(2 * k)))
    for i in range(k):
        rows.append(tuple(1 if j == i + k else 0 for j in range(2 * k)))
    return HomSpec(GG, GG, tuple(rows))


def _kernel_blocks(kernel: HomSpec):
    GG = kernel.source
    k = GG.rank // 2
    G = GroupSpec(GG.moduli[:k])
    if GG.moduli != G.moduli + G.moduli:
        raise ValidationError("kernel must act on G x G")
    if not is_automorphism(kernel):
        raise ValidationError("polar kernel must be an automorphism of G x G")
    rows = kernel.matrix
    out1 = HomSpec(GG, G, rows[:k])       # branch -> x1
    out2 = HomSpec(GG, G, rows[k:])       # branch -> x2
    # action on u2 alone (u1 = identity): second column blocks
    c1 = HomSpec(G, G, tuple(tuple(rows[i][k:]) for i in range(k)))
    c2 = HomSpec(G, G, tuple(tuple(rows[i + k][k:]) for i in range(k)))
    return G, out1, out2, c1, c2


def kernel_minus(m1: HeraldedMessage, m2: HeraldedMessage, kernel: HomSpec) -> HeraldedMessage:
    """Bad channel of a generic kernel: lift both outputs to the input pair,
    combine, and marginalize the second input away."""
    G, out1, out2, _, _ = _kernel_blocks(kernel)
    if m1.group.moduli != G.moduli or m2.group.moduli != G.moduli:
        raise ValidationError("kernel minus: group mismatch")
    for L in (out1, out2):
        if not is_surjective(L):
            raise ValidationError("kernel output map is not surjective")
    lifted = equality_combine_m(lift_along_hom_m(m1, out1), lift_along_hom_m(m2, out2))
    return marginalize_split_m(lifted, G.rank)


def kernel_plus(m1: HeraldedMessage, m2: HeraldedMessage, kernel: HomSpec) -> HeraldedMessage:
    """Good channel of a generic kernel (first input known as side info).

    Conditioned on u1, output i depends on u2 through the kernel's second
    column block c_i; the shift by u1 is absorbed by group covariance.  Each
    c_i must be an automorphism (relabel) or zero (the output decouples).
    """
    G, _, _, c1, c2 = _kernel_blocks(kernel)
    if m1.group.moduli != G.moduli or m2.group.moduli != G.moduli:
        raise ValidationError("kernel plus: group mismatch")
    parts = []
    for m, c in ((m1, c1), (m2, c2)):
        if all(x == 0 for row in c.matrix for x in row):
            continue
        if not is_automorphism(c):
            raise ValidationError(
                "unsupported kernel: second-column block is neither zero nor an automorphism"
            )
        parts.append(apply_automorphism_m(m, c))
    if not parts:
        raise ValidationError("kernel plus: both outputs decouple from u2")
    return equality_fold_m(parts)


# ---------------------------------------------------------------------------
# recursive tracking


@dataclass(frozen=True)
class IndexStats:
    index: int
    avg_holevo: float
    avg_pgm_error: float


def _rules_for(kernel: HomSpec | None):
    if kernel is None:
        return polar_minus, polar_plus
    return partial(kernel_minus, kernel=kernel), partial(kernel_plus, kernel=kernel)


def synthesize(base: EigenList, levels: int, mode: str = "auto",
               seed: int | None = None, prune_eps: float = 0.0,
               samples: int = DEFAULT_SAMPLES,
               kernel: HomSpec | None = None) -> list[IndexStats]:
    """Track all 2^levels synthetic channels.

    Index bit convention: writing the index in binary, the most significant
    bit selects the transform applied directly to the base channel and the
    least significant bit the outermost one; bit 0 means minus, 1 means plus.
    ``mode`` is ``exact``, ``sampled``, or ``auto`` (exact up to
    `DEFAULT_EXACT_LEVELS` levels, sampled beyond).  Sampled mode draws
    `samples` herald trajectories per index with per-index derived seeds.
    """
    if levels < 0:
        raise ValidationError("levels must be nonnegative")
    if mode == "auto":
        mode = "exact" if levels <= DEFAULT_EXACT_LEVELS else "sampled"
    minus, plus = _rules_for(kernel)

    if herald_rng(mode, seed, prune_eps) is None:
        channels = [pure(base)]
        for _ in range(levels):
            channels = [guard(rule(msg, msg), None, prune_eps)
                        for msg in channels for rule in (minus, plus)]
        return [IndexStats(i, avg_holevo(ch), avg_pgm_error(ch))
                for i, ch in enumerate(channels)]

    leaf = pure(base)

    def sample_path(bits, rng):
        # bits[depth]: rule applied at that recursion depth; depth 0 is the
        # outermost transform = least significant index bit
        def rec(depth):
            if depth == len(bits):
                return leaf
            a = rec(depth + 1)
            b = rec(depth + 1)
            rule = minus if bits[depth] == 0 else plus
            return guard(rule(a, b), rng)
        return rec(0)

    stats = []
    for i in range(2 ** levels):
        bits = [(i >> d) & 1 for d in range(levels)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        hol = np.empty(samples)
        err = np.empty(samples)
        for s in range(samples):
            msg = sample_path(bits, rng)
            hol[s] = avg_holevo(msg)
            err[s] = avg_pgm_error(msg)
        stats.append(IndexStats(i, float(hol.mean()), float(err.mean())))
    return stats


def select_info_set(stats, k: int) -> list[int]:
    """Indices of the k smallest PGM errors; ties broken toward smaller index."""
    if not 0 <= k <= len(stats):
        raise ValidationError(f"info-set size {k} out of range")
    ranked = sorted(stats, key=lambda s: (s.avg_pgm_error, s.index))
    return sorted(s.index for s in ranked[:k])
