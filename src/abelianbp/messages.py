"""Heralded mixtures: the closed message class of tree quantum message passing.

A message is a finite ensemble of (probability, eigen list, provenance labels)
branches on one group.  Labels are human-readable strings recording which
herald produced each branch; they never affect numerics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .eigenlists import EigenList, holevo_info, pgm_error
from .errors import ValidationError
from .groups import GroupSpec

PROB_TOL = 1e-9
#: Branches with probability below this are dropped before conditioning.
PROB_FLOOR = 1e-15
DEFAULT_MERGE_TOL = 1e-9
#: Exact mixtures with more branches than this are pruned at `GUARD_PRUNE`.
BRANCH_CAP = 100_000
GUARD_PRUNE = 1e-12


@dataclass(frozen=True)
class Branch:
    prob: float
    lam: EigenList
    labels: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class HeraldedMessage:
    group: GroupSpec
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValidationError("heralded message needs at least one branch")
        total = 0.0
        for b in self.branches:
            if b.prob < 0:
                raise ValidationError(f"negative branch probability {b.prob}")
            if b.lam.group.moduli != self.group.moduli:
                raise ValidationError("branch eigen list on a different group")
            total += b.prob
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"branch probabilities sum to {total}, expected 1")

    def __len__(self):
        return len(self.branches)


def pure(lam: EigenList, labels: tuple[str, ...] = ()) -> HeraldedMessage:
    """Degenerate mixture with a single herald value."""
    return HeraldedMessage(lam.group, (Branch(1.0, lam, tuple(labels)),))


def merge_duplicates(msg: HeraldedMessage, tol: float = DEFAULT_MERGE_TOL) -> HeraldedMessage:
    """Merge branches whose eigen lists agree within L-infinity `tol`.

    Probabilities add and labels concatenate.  Output branches keep the order
    of first appearance.  Clustering sorts lexicographically and merges
    adjacent runs, which is exact for the tightly-clustered duplicates the
    update rules produce.
    """
    if len(msg) == 1:
        return msg
    mats = np.stack([b.lam.values for b in msg.branches])
    order = np.lexsort(mats.T[::-1])
    clusters: list[list[int]] = []
    rep = None
    for pos in order:
        if rep is not None and np.max(np.abs(mats[pos] - rep)) <= tol:
            clusters[-1].append(int(pos))
        else:
            clusters.append([int(pos)])
            rep = mats[pos]
    # a branch lex-sorting between two jittered duplicates can split a
    # cluster; a quadratic pass over the (few) representatives repairs it
    merged: list[list[int]] = []
    for idxs in clusters:
        for target in merged:
            if np.max(np.abs(mats[idxs[0]] - mats[target[0]])) <= tol:
                target.extend(idxs)
                break
        else:
            merged.append(idxs)
    for idxs in merged:
        idxs.sort()
    merged.sort(key=min)
    out = []
    for idxs in merged:
        prob = float(sum(msg.branches[i].prob for i in idxs))
        labels = tuple(lab for i in idxs for lab in msg.branches[i].labels)
        out.append(Branch(prob, msg.branches[idxs[0]].lam, labels))
    return HeraldedMessage(msg.group, tuple(out))


def prune(msg: HeraldedMessage, eps: float) -> HeraldedMessage:
    """Drop branches with prob < eps and renormalize; eps = 0 is the exact mode."""
    if not 0 <= eps < 0.5:
        raise ValidationError(f"prune threshold {eps} outside [0, 0.5)")
    if eps == 0:
        return msg
    kept = [b for b in msg.branches if b.prob >= eps]
    if not kept:
        raise ValidationError("prune removed every branch")
    total = sum(b.prob for b in kept)
    return HeraldedMessage(
        msg.group, tuple(Branch(b.prob / total, b.lam, b.labels) for b in kept)
    )


def sample(msg: HeraldedMessage, rng: np.random.Generator) -> tuple[EigenList, tuple[str, ...]]:
    """Draw one branch; deterministic given the generator state."""
    probs = np.array([b.prob for b in msg.branches])
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u * probs.sum(), side="right"))
    idx = min(idx, len(msg) - 1)
    b = msg.branches[idx]
    return b.lam, b.labels


def herald_rng(mode: str, seed: int | None) -> np.random.Generator | None:
    """Check a tracker mode; the herald generator in sampled mode, else None."""
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "exact":
        return None
    if seed is None:
        raise ValidationError("sampled mode requires a seed")
    return np.random.default_rng(seed)


def guard(msg: HeraldedMessage, rng: np.random.Generator | None,
          prune_eps: float = 0.0) -> HeraldedMessage:
    """The mixture policy every tracker applies after a rule.

    Sampled mode (`rng` given) keeps one drawn herald.  Exact mode prunes at
    `prune_eps`; past `BRANCH_CAP` branches it also prunes at `GUARD_PRUNE`
    and warns with the branch count and the probability mass dropped.
    """
    if rng is not None:
        return pure(*sample(msg, rng))
    if prune_eps > 0:
        msg = prune(msg, prune_eps)
    if len(msg) > BRANCH_CAP:
        dropped = sum(b.prob for b in msg.branches if b.prob < GUARD_PRUNE)
        warnings.warn(
            f"branch count {len(msg)} exceeds cap {BRANCH_CAP}; pruning at "
            f"{GUARD_PRUNE} drops probability mass {dropped:.6g}",
            RuntimeWarning, stacklevel=2,
        )
        msg = prune(msg, GUARD_PRUNE)
    return msg


def avg_holevo(msg: HeraldedMessage) -> float:
    """Herald-averaged Holevo information in bits (herald is side information)."""
    return float(sum(b.prob * holevo_info(b.lam) for b in msg.branches))


def avg_pgm_error(msg: HeraldedMessage) -> float:
    return float(sum(b.prob * pgm_error(b.lam) for b in msg.branches))
