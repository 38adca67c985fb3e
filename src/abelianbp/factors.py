"""Local update rules on eigen lists and on heralded mixtures.

Five local factors act on messages:

* check        -- parity constraint h = g1 g2; output is a heralded mixture
                  indexed by the dual group,
* equality     -- repeated symbol; output is a single list (dual convolution),
* homomorphism -- surjective phi: G1 -> G2; heralded mixture indexed by coset
                  representatives of the dual image,
* marginalization -- drop a product block; heralds indexed by the dropped
                  block's dual,
* automorphism -- permutation of the eigen list by the dual map.

Each rule is stated once, as a kernel on (|G|, K) columns, one list each
(`_Rule`).  A heralded kernel returns its (list, herald, column) grid, split
by `_run` (exact: each cell of at least `PROB_FLOOR`) or `_draw` (sampled: one
drawn herald per column) with the same arithmetic.  A check read toward an
input, and polar minus, is the check with its second operand inverted
(`_check_inverse`).  The pure rules are 1-column calls and return an
EigenList or a HeraldedMessage.  Sums over a list add its terms in order.

Trackers check a run's settings with `Tracker` and apply rules in exact mode
over the branch product of heralded mixtures (`_product_apply`), in sampled
mode on populations of herald trajectories, one kernel call and one herald
draw per rule application (`sample_rows`); both run the kernel on the same
column blocks (`_in_blocks`).  Adjoining a uniform symbol is `_lift` along
the projection that drops it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .characters import char_from_index, coset_table_for_hom, dual_map_table, tables_for
from .eigenlists import EigenList
from .errors import NumericalError, ValidationError
from .groups import (
    GroupSpec,
    HomSpec,
    direct_product,
    inversion_automorphism,
    is_automorphism,
    projection_hom,
    surjection_onto_image,
)
from .messages import (PROB_FLOOR, ROW_FLOATS, HeraldedMessage, _gather, batches, check_prune_eps,
                       check_seed, merge_duplicates, product_labels)


class _Rule(NamedTuple):
    """A rule bound to its input group and parameters.

    ``rows`` maps (|G|, K) operand columns to the (|G_out|, K) output lists;
    a heralded rule instead returns its unnormalised (list, herald, K) grid,
    which `_run` (exact) and `_draw` (sampled) split into heralds and lists.
    ``herald`` is (label kind, label group, label index of each herald).
    """

    group: GroupSpec
    rows: object
    herald: tuple | None = None


# ---------------------------------------------------------------------------
# rule kernels, built once per input group and parameter


@functools.lru_cache(maxsize=None)
def _check(G: GroupSpec) -> _Rule:
    t = tables_for(G)
    # grid[chi', chi] = lam1[chi * chi'] * lam2[chi']
    return _Rule(G, lambda A, B: A.take(t.add.T, 0) * B[:, None], ("check", G, np.arange(G.order)))


@functools.lru_cache(maxsize=None)
def _equality(G: GroupSpec) -> _Rule:
    # a (p, c, K) operand makes einsum add the p terms one after another, as
    # it does for the Fortran-ordered ``lam2[t.sub]`` of a single list
    t, n = tables_for(G), G.order
    return _Rule(G, lambda A, B: np.einsum("pck,pk->ck", B.take(t.sub.T, 0), A) / n)


@functools.lru_cache(maxsize=None)
def _hom(G: GroupSpec, H: HomSpec) -> _Rule:
    if G.moduli != H.source.moduli:
        raise ValidationError("eigen list does not live on the hom's source group")
    surj, _ = surjection_onto_image(H)
    reps = np.array(coset_table_for_hom(surj).reps)
    # grid[xi, r]: the index of rep r * dual_map(xi), xi in target-dual order
    idx = tables_for(surj.source).add[reps[None, :], dual_map_table(surj)[:, None]]
    return _Rule(surj.target, lambda A: A.take(idx, 0), ("hom", surj.source, reps))


def _surjective_pull(G: GroupSpec, on: GroupSpec, H: HomSpec, message: str) -> np.ndarray:
    if G.moduli != on.moduli:
        raise ValidationError(f"eigen list does not live on the hom's {message}")
    pull = dual_map_table(H)
    if len(set(pull.tolist())) != H.target.order:
        raise ValidationError("hom is not surjective; restrict to its image first")
    return pull


@functools.lru_cache(maxsize=None)
def _hom_supported(G: GroupSpec, H: HomSpec) -> _Rule:
    pull = _surjective_pull(G, H.source, H, "source group")
    off = np.setdiff1d(np.arange(H.source.order), pull)

    def rows(A):
        bad = np.argwhere(A[off].T > 1e-9)
        if bad.size:
            k, c = bad[0]
            raise ValidationError(
                f"support condition violated: lambda[{char_from_index(H.source, int(off[c]))}]"
                f" = {A[off[c], k]} outside the dual image")
        return A.take(pull, 0) * (H.target.order / H.source.order)
    return _Rule(H.target, rows)


@functools.lru_cache(maxsize=None)
def _lift(G: GroupSpec, H: HomSpec) -> _Rule:
    pull = _surjective_pull(G, H.target, H, "target group")
    n, scale = H.source.order, H.source.order / H.target.order

    def rows(A):
        out = np.zeros((n, A.shape[1]))
        out[pull] = A * scale
        return out
    return _Rule(H.source, rows)


@functools.lru_cache(maxsize=None)
def _marginalize(U: GroupSpec, keep: int) -> _Rule:
    if not 0 <= keep <= U.rank:
        raise ValidationError(f"split point {keep} does not match the moduli structure")
    G1, G2 = GroupSpec(U.moduli[:keep]), GroupSpec(U.moduli[keep:])

    def rows(A):        # canonical index = chi + n1 * eta; contiguous, so no sum depends on K
        return np.ascontiguousarray(A.reshape(G2.order, G1.order, -1).swapaxes(0, 1))
    return _Rule(G1, rows, ("marg", G2, np.arange(G2.order)))


@functools.lru_cache(maxsize=None)
def _automorphism(G: GroupSpec, phi: HomSpec) -> _Rule:
    if G.moduli != phi.source.moduli:
        raise ValidationError("eigen list does not live on the automorphism's group")
    if not is_automorphism(phi):
        raise ValidationError("factor parameter is not an automorphism")
    pull = dual_map_table(phi)
    return _Rule(G, lambda A: A.take(pull, 0))


@functools.lru_cache(maxsize=None)
def _check_inverse(G: GroupSpec) -> _Rule:
    """The check rule with its second operand relabelled by g -> g^{-1}: read
    toward an input, h = g1 g2 is g1 = h g2^{-1}.  Polar minus is this rule."""
    check, inv = _check(G), _automorphism(G, inversion_automorphism(G))
    return check._replace(rows=lambda A, B: check.rows(A, inv.rows(B)))


@functools.lru_cache(maxsize=None)
def _adjoin(G: GroupSpec, fresh: GroupSpec) -> _Rule:
    drop = projection_hom(direct_product(fresh, G), range(fresh.rank, fresh.rank + G.rank))
    return _lift(G, drop)


# ---------------------------------------------------------------------------
# the herald split of a (list, herald, K) grid


def _split(grid: np.ndarray) -> np.ndarray:
    """The (herald, K) probabilities ``grid.sum(0) / (m h)`` of m-entry lists and h heralds."""
    m, h, _ = grid.shape
    return grid.sum(axis=0) / (m * h)


def _cells(grid: np.ndarray, p: np.ndarray, herald, col, out=None) -> np.ndarray:
    """The lists ``grid[:, herald, col] / (h p)`` of cells (herald[i], col[i]), into `out`."""
    m, h, K = grid.shape
    at = herald * K + col                               # flat (herald, column)
    return np.divide(grid.reshape(m, -1).take(at, 1), h * p.take(at), out=out)


def _draw(grid: np.ndarray, u: np.ndarray, out=None, cols=None):
    """The sampled split: one herald per column of a (list, herald, K) grid,
    drawn at the uniforms ``u`` by `draw_heralds`; returns the (list, K)
    lists, into `out` if given, and the K heralds; `cols` is arange(K)."""
    p = _split(grid)
    h = draw_heralds(p, u)
    return _cells(grid, p, h, np.arange(grid.shape[2]) if cols is None else cols, out), h


def _run(rule: _Rule, operands, offset: int = 0):
    """(probs, lams, col, herald) of a kernel on aligned operand columns.

    Without heralds probs, col and herald are None and column i gives list i;
    otherwise the exact split keeps the (column, herald) cells of probability at
    least `PROB_FLOOR`, in that order, with columns numbered from `offset`."""
    out = rule.rows(*operands)
    if rule.herald is None:
        return None, out, None, None
    p = _split(out)
    col, herald = np.nonzero(p.T >= PROB_FLOOR)
    rows = np.empty((col.size, len(out)))          # the lists' transpose is C-ordered rows
    return p[herald, col], _cells(out, p, herald, col, rows.T), col + offset, herald


def draw_heralds(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One herald per column of (h, K) herald probabilities: the first whose
    cumulative probability passes ``u`` times the column total.  Heralds below
    `PROB_FLOOR` are never drawn; a NaN or vanishing column is a `NumericalError`.
    The running sums add rows along K (a cumsum over a short axis is slow)."""
    cum = np.where(probs < PROB_FLOOR, 0.0, probs)      # a NaN stays, and fails the check
    for j in range(1, len(cum)):
        cum[j] += cum[j - 1]
    total = cum[-1]
    if not total.min() > 0:
        raise NumericalError("NaN or vanishing herald probabilities")
    return (cum <= np.minimum(u * total, np.nextafter(total, 0))).sum(axis=0)


def sample_rows(rule: _Rule, operands, u: np.ndarray):
    """`rule` on aligned operand columns: its (list, K) lists and, for a heralded rule,
    the herald `_draw` draws in column i at ``u[i]`` (else None), whose list it keeps."""
    out = rule.rows(*operands)
    return (out, None) if rule.herald is None else _draw(out, u)


def _pure(rule: _Rule, *lams: EigenList):
    probs, out, _, herald = _run(rule, [lam.values[:, None] for lam in lams])
    if probs is None:
        return EigenList(rule.group, out[:, 0])
    kind, G, index = rule.herald
    return HeraldedMessage._checked(rule.group, probs, np.ascontiguousarray(out.T),
                                    product_labels((), [], (kind, G, index[herald])))


def _same_group(a, b, factor: str):
    if a.group.moduli != b.group.moduli:
        raise ValidationError(f"{factor} factor: input groups differ ({a.group} vs {b.group})")
    return a.group


# ---------------------------------------------------------------------------
# pure rules


def check_combine(lam1: EigenList, lam2: EigenList) -> HeraldedMessage:
    """Parity factor h = g1 g2 on two covariant PSCs.

    Herald chi occurs with probability
    ``p_chi = (1/|G|^2) sum_{chi'} lam1[chi*chi'] * lam2[chi']`` and carries the
    branch list ``lam[chi'] = lam1[chi*chi'] * lam2[chi'] / (|G| p_chi)``.

    Swapping the arguments relabels the ensemble without changing it: herald
    chi of the swapped output equals herald chi^{-1} of the original with the
    branch reindexed by chi' -> chi * chi'.  Ensemble metrics are therefore
    argument-order invariant.
    """
    return _pure(_check(_same_group(lam1, lam2, "check")), lam1, lam2)


def equality_combine(lam1: EigenList, lam2: EigenList) -> EigenList:
    """Equality factor: dual-group convolution scaled by 1/|G|."""
    return _pure(_equality(_same_group(lam1, lam2, "equality")), lam1, lam2)


def hom_push(lam: EigenList, H: HomSpec) -> HeraldedMessage:
    """Surjective homomorphism factor; heralds are dual-image coset reps.

    A non-surjective H is first restricted to a surjection onto its image (the
    output group is the image with its own cyclic moduli), then pushed.
    """
    return _pure(_hom(lam.group, H), lam)


def hom_push_supported(lam: EigenList, H: HomSpec) -> EigenList:
    """Homomorphism factor in the supported regime: a single output PSC.

    Requires the input list to vanish (up to 1e-9) outside the dual
    image; then ``lam2[xi] = (|G2|/|G1|) * lam1[dual_map(xi)]``.
    """
    return _pure(_hom_supported(lam.group, H), lam)


def lift_along_hom(lamH: EigenList, H: HomSpec) -> EigenList:
    """Pull an eigen list on the target back to the source of a surjective hom.

    ``lam[chi] = (|G1|/|G2|) * lamH[xi]`` when chi = dual_map(xi), else 0.
    Inverse of `hom_push_supported` on its support.
    """
    return _pure(_lift(lamH.group, H), lamH)


def marginalize_split(lam: EigenList, keep: int) -> HeraldedMessage:
    """Marginalize a product-group list, keeping the first `keep` coordinates.

    Heralds are characters eta of the dropped block:
    ``p_eta = (1/|U|) sum_chi lam[(chi, eta)]`` with branch lists
    ``lam_eta[chi] = lam[(chi, eta)] / (|G2| p_eta)``.
    """
    return _pure(_marginalize(lam.group, keep), lam)


def apply_automorphism(lam: EigenList, phi: HomSpec) -> EigenList:
    """Relabel by the dual automorphism: out[chi] = lam[dual_map(chi)]."""
    return _pure(_automorphism(lam.group, phi), lam)


def adjoin_uniform(lam: EigenList, fresh: GroupSpec) -> EigenList:
    """Adjoin an independent uniform symbol as a new *first* coordinate.

    Output lives on fresh x G with mass ``|fresh| * lam[zeta]`` on the
    (trivial, zeta) slice: the lift (`lift_along_hom`) along the projection
    that drops the fresh coordinate.
    """
    return _pure(_adjoin(lam.group, fresh), lam)


def equality_fold(lams) -> EigenList:
    """Left fold of the binary equality rule over an operand sequence."""
    lams = list(lams)
    if not lams:
        raise ValidationError("equality fold needs at least one operand")
    return functools.reduce(equality_combine, lams)


# ---------------------------------------------------------------------------
# rules on heralded mixtures and on populations


def _heavy(p: np.ndarray, cols):
    """Drop the products below `PROB_FLOOR`, unless none is above it."""
    keep = p >= PROB_FLOOR
    if keep.all() or not keep.any():
        return p, cols
    return p[keep], [c[keep] for c in cols]


def _in_blocks(block, rule: _Rule, width: int, count: int):
    """``block(s)`` on the slices s of range(count) that keep the temporaries of `rule` on
    `width`-entry operand lists near `ROW_FLOATS` floats; each result is concatenated along
    its last axis (a None result stays None).  Blocking never changes a result."""
    parts = [block(s) for s in batches(count, width * rule.group.order, ROW_FLOATS)]
    if len(parts) == 1:
        return parts[0]
    return [None if part[0] is None else np.concatenate(part, axis=-1) for part in zip(*parts)]


def _product_apply(msgs, rule: _Rule) -> HeraldedMessage:
    """Apply `rule` over the branch product of `msgs`, then merge duplicates.

    Probabilities multiply and labels concatenate, in lexicographic order of
    the input branch indices; products below `PROB_FLOOR` are dropped after
    each factor.  So finite heralded mixtures are closed under every rule.
    """
    p, cols = _heavy(msgs[0].probs, [np.arange(len(msgs[0]))])
    for msg in msgs[1:]:
        head, tail = np.divmod(np.arange(p.size * len(msg)), len(msg))
        p, cols = _heavy(np.multiply.outer(p, msg.probs).ravel(), [c[head] for c in cols] + [tail])
    probs, lams, row, herald = _in_blocks(
        lambda s: _run(rule, [m.lams.T.take(c[s], 1) for c, m in zip(cols, msgs)], s.start),
        rule, msgs[0].lams.shape[1], p.size)
    if rule.herald is not None:
        kind, G, index = rule.herald
        cols, p, herald = [c[row] for c in cols], p[row] * probs, (kind, G, index[herald])
    total = sum(p.tolist())
    if not p.size or total <= 0:
        raise NumericalError("branch product lost all probability mass")
    labels = product_labels([m._labels for m in msgs], cols, herald)
    return merge_duplicates(HeraldedMessage._checked(rule.group, p / total,
                                                     np.ascontiguousarray(lams.T), labels))


class Tracker:
    """A tracker run's mode, prune threshold (exact mode only), sample count
    and seed, checked; `rng` is None in exact mode.

    Exact trackers run a rule over the branch product of its input mixtures
    (`_product_apply`) and guard the output (`messages.guard`); `entry`
    returns their inputs as they are.  Sampled mode runs populations: a
    message holds `samples` row-aligned herald trajectories, rows of
    probability 1/samples.  `entry` broadcasts a one-branch input and draws
    one branch per row of a mixture; the sampled trackers then run each rule
    as one bare kernel call on them as columns (`sample_rows`, in blocks),
    whose heralded rules keep the herald drawn at one uniform per column.
    """

    def __init__(self, mode: str, seed: int | None, prune_eps: float, samples: int = 1):
        if mode not in ("exact", "sampled"):
            raise ValidationError(f"unknown mode {mode!r}")
        check_prune_eps(prune_eps)
        if mode == "sampled" and prune_eps > 0:
            raise ValidationError(f"prune threshold {prune_eps} applies to exact mode only")
        check_seed(seed)
        if samples < 1:
            raise ValidationError(f"samples must be at least 1, got {samples}")
        if mode == "sampled" and seed is None:
            raise ValidationError("sampled mode requires a seed")
        self.rng, self.samples = None if mode == "exact" else np.random.default_rng(seed), samples

    def entry(self, msg: HeraldedMessage) -> HeraldedMessage:
        S, k = self.samples, len(msg)
        if self.rng is None or k == 1 == S:
            return msg
        idx = (np.zeros(S, np.intp) if k == 1 else
               draw_heralds(np.broadcast_to(msg.probs[:, None], (k, S)), self.rng.random(S)))
        return _gather(msg, np.full(S, 1.0 / S), msg.lams[idx], idx)
