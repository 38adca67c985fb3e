"""Heralded mixtures: the closed message class of tree quantum message passing.

A message is a finite ensemble of (probability, eigen list, provenance labels)
branches on one group, held as read-only arrays ``probs`` (k,) and ``lams``
(k, |G|).  Rows are validated once, vectorised, where lists are made
(`HeraldedMessage._checked`, with the eigen-list check written once as
`eigenlists.EigenList.checked_rows`); outside input takes the same path
through the one public constructor, `HeraldedMessage.of`, and an eigen list
becomes a one-branch message by `pure` (`as_message` takes either).  Merging
and pruning only select or sum validated rows.  The herald averages
`avg_holevo` and `avg_pgm_error` reduce the per-row metrics that `eigenlists`
states once (`holevo_rows`, `pgm_rows`).  Labels record which heralds
produced each branch and never affect numerics: they are a lazy provenance
graph (`Labels`), rendered to strings only when `labels` is read.

`merge_duplicates` takes O(k log k |G|) time and O(k |G|) memory: one
lexsort, a vectorised scan of adjacent rows checked exactly against each
cluster's first row, and a repair pass that compares only representatives
whose projections on a fixed direction lie within reach of each other.

The batch policy of every blocked loop is stated here too: two float budgets
(`ROW_FLOATS`, `CACHE_FLOATS`) and one slicer, `batches`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .eigenlists import EigenList, holevo_rows, pgm_rows
from .errors import NumericalError, ValidationError
from .groups import GroupSpec, digits

PROB_TOL = 1e-9
#: Branches with probability below this are dropped before conditioning.
PROB_FLOOR = 1e-15
DEFAULT_MERGE_TOL = 1e-9
#: Exact mixtures with more branches than this are pruned at `GUARD_PRUNE`.
BRANCH_CAP = 100_000
GUARD_PRUNE = 1e-12
#: Floats per batch of row-kernel temporaries: `factors._in_blocks` and polar populations.
ROW_FLOATS = 1 << 18
#: Floats per cache-sized batch: trellis runs, DE extrinsics, tree row checks, oracle stacks.
CACHE_FLOATS = 1 << 15


def batches(total: int, item: int, budget: int) -> list[slice]:
    """range(total) cut into slices of as many `item`-float items as fit
    `budget` floats, and at least one; the last may end past `total`."""
    step = max(1, budget // item)
    return [slice(i, i + step) for i in range(0, total, step)]


@dataclass(frozen=True)
class Branch:
    """A branch of the `HeraldedMessage.branches` view; only ``perfbench/tracing.py`` reads it."""

    prob: float
    lam: EigenList
    labels: tuple[str, ...] = ()


class Labels:
    """Label tuples of a message's branches, built on first `render`.

    ``build(*rendered parents)`` returns one tuple per branch.  Rendering
    walks the graph with a stack, so long tracker histories need no recursion.
    """

    __slots__ = ("_parents", "_build", "_rendered")

    def __init__(self, parents, build):
        self._parents, self._build, self._rendered = tuple(parents), build, None

    def render(self) -> list[tuple[str, ...]]:
        stack = [self]
        while stack:
            todo = [p for p in stack[-1]._parents if p._rendered is None]
            if todo:
                stack += todo
                continue
            node = stack.pop()
            if node._rendered is None:
                node._rendered = node._build(*(p._rendered for p in node._parents))
                node._parents = node._build = ()
        return self._rendered


def product_labels(parents, cols, herald=None) -> Labels:
    """Branch o of a branch product: the labels of branch ``cols[j][o]`` of
    each parent j (of branch o itself where ``cols[j]`` is None), then its
    herald label; ``herald`` is (kind, group, index per branch)."""
    def build(*rendered):
        rows = [r if c is None else [r[i] for i in c.tolist()] for r, c in zip(rendered, cols)]
        labs = (functools.reduce(lambda a, b: list(map(tuple.__add__, a, b)), rows) if rows
                else [()] * len(herald[2]))
        if herald is None:
            return labs
        kind, G, hidx = herald
        heralds, at = np.unique(hidx, return_inverse=True)
        names = [(name,) for name in herald_names(kind, G, heralds)]
        return list(map(tuple.__add__, labs, map(names.__getitem__, at.tolist())))
    return Labels(parents, build)


def herald_names(kind: str, G: GroupSpec, index) -> list[str]:
    """Label texts of the heralds at canonical ``index`` on G, as ``kind:(r0,r1,...)``;
    the dense oracle pairs its heralds with the fast path's by these texts."""
    return [f"{kind}:({','.join(map(str, r))})" for r in digits(G, index).tolist()]


def _valid_rows(group: GroupSpec, probs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Check new rows: at least one branch, lists checked by
    `EigenList.checked_rows`, nonnegative probabilities summing to 1."""
    if not probs.size:
        raise ValidationError("heralded message needs at least one branch")
    lams = EigenList.checked_rows(group, lams)
    if probs.min() < 0:
        raise ValidationError(f"negative branch probability {probs.min()}")
    if not abs(probs.sum() - 1.0) <= PROB_TOL:
        raise (NumericalError if np.isnan(probs.sum()) else ValidationError)(
            f"branch probabilities sum to {probs.sum()}, expected 1")
    return lams


class HeraldedMessage:
    """A heralded mixture on `group`: the read-only arrays ``probs`` and
    ``lams`` and lazy labels.  Outside input is built with `of`; inside the
    library messages are built and read only as arrays.
    """

    __slots__ = ("group", "probs", "lams", "_labels")

    @classmethod
    def _make(cls, group, probs, lams, labels) -> HeraldedMessage:
        """Wrap rows that are already validated."""
        probs.flags.writeable = lams.flags.writeable = False
        msg = object.__new__(cls)
        msg.group, msg.probs, msg.lams, msg._labels = group, probs, lams, labels
        return msg

    @classmethod
    def _checked(cls, group, probs, lams, labels) -> HeraldedMessage:
        """Wrap new rows, validated by `_valid_rows`."""
        return cls._make(group, probs, _valid_rows(group, probs, lams), labels)

    @classmethod
    def of(cls, group: GroupSpec, probs, lams, labels=None) -> HeraldedMessage:
        """A message from outside input: k branch probabilities, a (k, |G|)
        array of eigen lists and k label tuples (empty ones by default),
        checked by `_valid_rows`."""
        try:
            probs, lams = np.array(probs, dtype=np.float64), np.array(lams, dtype=np.float64)
        except ValueError as exc:       # ragged rows, or entries that are not numbers
            raise ValidationError(f"branches are not numeric arrays: {exc}") from None
        k = probs.size
        labels = [()] * k if labels is None else [tuple(labs) for labs in labels]
        # an empty message is left to `_valid_rows`, which names that fault
        if k and (probs.ndim != 1 or lams.ndim != 2 or len(lams) != k or len(labels) != k):
            raise ValidationError(
                f"branch probabilities of shape {probs.shape}, eigen lists of shape "
                f"{lams.shape} and {len(labels)} label tuples do not match")
        return cls._checked(group, probs, lams, Labels((), lambda: labels))

    def __len__(self):
        return self.probs.size

    def __reduce__(self):
        return HeraldedMessage.of, (self.group, self.probs, self.lams, self.labels)

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self._labels.render())

    @property
    def branches(self) -> tuple[Branch, ...]:
        """`Branch` objects, built on each read; only ``perfbench/tracing.py`` reads them."""
        return tuple(Branch(p, EigenList._of_valid(self.group, row), labs)
                     for p, row, labs in zip(self.probs.tolist(), self.lams, self._labels.render()))


_ONE = np.ones(1)


def pure(lam: EigenList) -> HeraldedMessage:
    """Degenerate mixture with a single herald value and no labels."""
    return HeraldedMessage._make(lam.group, _ONE, lam.values[None, :], Labels((), lambda: [()]))


def as_message(x) -> HeraldedMessage:
    """An eigen list as its one-branch message (`pure`); a message as it is."""
    if isinstance(x, HeraldedMessage):
        return x
    if isinstance(x, EigenList):
        return pure(x)
    raise ValidationError(f"expected an eigen list or heralded message, got {type(x)}")


def _gather(msg: HeraldedMessage, probs, lams, members, bounds=None) -> HeraldedMessage:
    """Branch j: `probs[j]`, `lams[j]` and the labels of branches
    ``members[bounds[j]:bounds[j+1]]`` of `msg` (one member each by default)."""
    def build(rendered):
        m = members.tolist()
        b = range(len(m) + 1) if bounds is None else bounds.tolist()
        return [tuple(chain.from_iterable(rendered[i] for i in m[s:e])) for s, e in zip(b, b[1:])]
    return HeraldedMessage._make(msg.group, probs, lams, Labels((msg._labels,), build))


@functools.lru_cache(maxsize=None)
def _direction(n: int) -> np.ndarray:
    return 1.0 + (np.arange(n) * 0.6180339887498949) % 1.0


def _repair(reps: np.ndarray, tol: float) -> np.ndarray | None:
    """Root of each lex-sorted representative: the first earlier root within
    L-infinity `tol`, else itself; None when no two are close.

    Only pairs whose projections on a positive direction lie within `reach`
    are compared: a pair within `tol` differs by at most ``2 n tol`` there,
    and `reach` adds the rounding of rows that are nonnegative and sum to n.
    """
    m, n = reps.shape
    key = reps @ _direction(n)
    reach = 2.0 * n * tol + 16.0 * n * n * np.finfo(float).eps
    skey = np.sort(key)
    if not (skey[1:] - skey[:-1] <= reach).any():
        return None
    order = np.argsort(key, kind="stable")
    span = np.arange(m) - np.searchsorted(key[order], key[order] - reach)
    pairs = []
    for d in range(1, span.max() + 1):      # compare sorted positions b - d, b
        b = np.flatnonzero(span >= d)
        i, j = np.sort([order[b - d], order[b]], axis=0)
        close = np.abs(reps[i] - reps[j]).max(axis=1) <= tol
        pairs += zip(j[close].tolist(), i[close].tolist())
    root = np.arange(m)
    for j, i in sorted(pairs):
        if root[j] == j and root[i] == i:
            root[j] = i
    return root


def merge_duplicates(msg: HeraldedMessage, tol: float = DEFAULT_MERGE_TOL) -> HeraldedMessage:
    """Merge branches whose eigen lists agree within L-infinity `tol`.

    Probabilities add and labels concatenate, both in branch order.  Output
    branches keep the order of first appearance and the list of their first
    branch.  Clustering scans the lexsorted rows: a row joins the open
    cluster when it lies within `tol` of the cluster's first row.  A branch
    lex-sorting between two jittered duplicates can split a cluster, so each
    cluster then joins the first earlier unjoined cluster within `tol`.
    """
    k, lams = len(msg), msg.lams
    if k == 1:
        return msg
    order = np.lexsort(lams.T[::-1])
    srt, pos = lams[order], np.arange(k)
    start = np.ones(k, dtype=bool)
    start[1:] = ~(np.abs(srt[1:] - srt[:-1]).max(axis=1) <= tol)
    # clusters start where adjacent rows differ; fix, left to right, each
    # row that breaks the scan rule against its cluster's first row
    at = k if start.all() else 1
    while at < k:
        first = np.maximum.accumulate(np.where(start, pos, 0))
        ref = np.where(start[at:], first[at - 1:-1], first[at:])
        wrong = np.flatnonzero((np.abs(srt[at:] - srt[ref]).max(axis=1) <= tol) == start[at:])
        if not wrong.size:
            break
        at += int(wrong[0])
        start[at] = not start[at]
        at += 1
    alone = bool(start.all())
    reps = srt if alone else srt[start]
    root = _repair(reps, tol)
    if root is None and alone:
        return msg
    cluster = np.cumsum(start) - 1
    group = np.empty(k, dtype=np.intp)
    group[order] = cluster if root is None else root[cluster]
    first = np.full(len(reps), k)
    np.minimum.at(first, group, pos)
    firsts = np.sort(first[first < k])      # first branch of each output, in order
    rank = np.empty(len(reps), dtype=np.intp)
    rank[group[firsts]] = np.arange(firsts.size)
    out = rank[group]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(out))))
    return _gather(msg, np.bincount(out, weights=msg.probs), lams[firsts],
                   np.argsort(out, kind="stable"), bounds)


def prune(msg: HeraldedMessage, eps: float) -> HeraldedMessage:
    """Drop branches with prob < eps and renormalize; eps = 0 is the exact mode."""
    check_prune_eps(eps)
    if eps == 0:
        return msg
    keep = np.flatnonzero(msg.probs >= eps)
    if not keep.size:
        raise ValidationError("prune removed every branch")
    kept = msg.probs[keep]
    return _gather(msg, kept / sum(kept.tolist()), msg.lams[keep], keep)


def check_prune_eps(eps: float) -> None:
    if not 0 <= eps < 0.5:
        raise ValidationError(f"prune threshold {eps} outside [0, 0.5)")


def check_seed(seed: int | None) -> None:
    """Seeds are nonnegative integers, as numpy's seed sequences require."""
    if seed is not None and seed < 0:
        raise ValidationError(f"seed {seed} is negative")


class GuardWarning(RuntimeWarning):
    """The branch cap pruned a mixture of `count` branches, dropping
    probability mass `dropped`."""

    def __init__(self, count: int, dropped: float):
        super().__init__(f"branch count {count} exceeds cap {BRANCH_CAP}; pruning at "
                         f"{GUARD_PRUNE} drops probability mass {dropped:.6g}")
        self.count, self.dropped = count, dropped


def guard(msg: HeraldedMessage, prune_eps: float = 0.0) -> HeraldedMessage:
    """The mixture policy that exact trackers apply after a rule.

    It prunes at `prune_eps`; past `BRANCH_CAP` branches it also prunes at
    `GUARD_PRUNE` and warns (`GuardWarning`) with the branch count and the
    probability mass dropped.  (Sampled trackers run populations instead,
    `factors.Tracker`.)
    """
    if prune_eps > 0:
        msg = prune(msg, prune_eps)
    if len(msg) > BRANCH_CAP:
        dropped = sum(msg.probs[msg.probs < GUARD_PRUNE].tolist(), 0.0)
        warnings.warn(GuardWarning(len(msg), dropped), stacklevel=2)
        msg = prune(msg, GUARD_PRUNE)
    return msg


def avg_holevo(msg: HeraldedMessage) -> float:
    """Herald-averaged Holevo information in bits (herald is side information);
    branch terms are added in branch order, as a loop over branches would."""
    return float(sum((msg.probs * holevo_rows(msg.lams)).tolist()))


def avg_pgm_error(msg: HeraldedMessage) -> float:
    """Herald-averaged `eigenlists.pgm_error`, added in branch order."""
    return float(sum((msg.probs * pgm_rows(msg.lams)).tolist()))
