"""Local update rules on eigen lists, plus herald-lifted variants on mixtures.

Five local factors act on messages:

* check        -- parity constraint h = g1 g2; output is a heralded mixture
                  indexed by the dual group,
* equality     -- repeated symbol; output is a single list (dual convolution),
* homomorphism -- surjective phi: G1 -> G2; heralded mixture indexed by coset
                  representatives of the dual image,
* marginalization -- drop a product block; heralds indexed by the dropped
                  block's dual,
* automorphism -- permutation of the eigen list by the dual map.

Each pure rule takes eigen lists and returns an EigenList or HeraldedMessage.
The `*_m` variants accept heralded mixtures: they apply the pure rule per
branch tuple, multiply probabilities, concatenate labels, and merge duplicate
outputs, so the class of finite heralded mixtures is closed on trees.
"""

from __future__ import annotations

import numpy as np

from .characters import (
    char_from_index,
    coset_table_for_hom,
    dual_map_table,
    tables_for,
)
from .eigenlists import EigenList
from .errors import ValidationError
from .groups import (
    GroupSpec,
    HomSpec,
    direct_product,
    hom_validate,
    is_automorphism,
    surjection_onto_image,
)
from .messages import (
    PROB_FLOOR,
    Branch,
    HeraldedMessage,
    merge_duplicates,
)


def _require_same_group(lam1: EigenList, lam2: EigenList):
    if lam1.group.moduli != lam2.group.moduli:
        raise ValidationError(
            f"group mismatch: {lam1.group} vs {lam2.group}"
        )


def _label(kind: str, G: GroupSpec, index: int) -> str:
    res = G.from_index(index).residues
    return f"{kind}:({','.join(map(str, res))})"


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
    _require_same_group(lam1, lam2)
    G = lam1.group
    t = tables_for(G)
    n = G.order
    prods = lam1.values[t.add] * lam2.values[None, :]
    probs = prods.sum(axis=1) / n**2
    branches = []
    for c in range(n):
        p = float(probs[c])
        if p < PROB_FLOOR:
            continue
        lam = EigenList(G, prods[c] / (n * p))
        branches.append(Branch(p, lam, (_label("check", G, c),)))
    return HeraldedMessage(G, tuple(branches))


def equality_combine(lam1: EigenList, lam2: EigenList) -> EigenList:
    """Equality factor: dual-group convolution scaled by 1/|G|."""
    _require_same_group(lam1, lam2)
    t = tables_for(lam1.group)
    out = np.einsum("cp,p->c", lam2.values[t.sub], lam1.values) / lam1.group.order
    return EigenList(lam1.group, out)


def hom_push(lam: EigenList, H: HomSpec) -> HeraldedMessage:
    """Surjective homomorphism factor; heralds are dual-image coset reps.

    A non-surjective H is first restricted to a surjection onto its image (the
    output group is the image with its own cyclic moduli), then pushed.
    """
    if lam.group.moduli != H.source.moduli:
        raise ValidationError("eigen list does not live on the hom's source group")
    hom_validate(H)
    surj, _ = surjection_onto_image(H)
    ct = coset_table_for_hom(surj)
    pull = dual_map_table(surj)
    G1, G2 = surj.source, surj.target
    t1 = tables_for(G1)
    n1, n2 = G1.order, G2.order
    branches = []
    for rep in ct.reps:
        idx = t1.add[rep, pull]          # indices of rep * dual_map(xi), xi in G2-dual order
        vals = lam.values[idx]
        p = float(vals.sum() / n1)
        if p < PROB_FLOOR:
            continue
        branch = EigenList(G2, vals * (n2 / (n1 * p)))
        branches.append(Branch(p, branch, (_label("hom", G1, rep),)))
    return HeraldedMessage(G2, tuple(branches))


def hom_push_supported(lam: EigenList, H: HomSpec) -> EigenList:
    """Homomorphism factor in the supported regime: a single output PSC.

    Requires the input list to vanish (up to 1e-9) outside the dual
    image; then ``lam2[xi] = (|G2|/|G1|) * lam1[dual_map(xi)]``.
    """
    if lam.group.moduli != H.source.moduli:
        raise ValidationError("eigen list does not live on the hom's source group")
    hom_validate(H)
    pull = dual_map_table(H)
    if len(set(pull.tolist())) != H.target.order:
        raise ValidationError("hom is not surjective; restrict to its image first")
    on_support = np.zeros(H.source.order, dtype=bool)
    on_support[pull] = True
    off = np.where(~on_support & (lam.values > 1e-9))[0]
    if off.size:
        chi = char_from_index(H.source, int(off[0]))
        raise ValidationError(
            f"support condition violated: lambda[{chi}] = {lam.values[off[0]]} "
            "outside the dual image"
        )
    scale = H.target.order / H.source.order
    return EigenList(H.target, lam.values[pull] * scale)


def lift_along_hom(lamH: EigenList, H: HomSpec) -> EigenList:
    """Pull an eigen list on the target back to the source of a surjective hom.

    ``lam[chi] = (|G1|/|G2|) * lamH[xi]`` when chi = dual_map(xi), else 0.
    Inverse of `hom_push_supported` on its support.
    """
    if lamH.group.moduli != H.target.moduli:
        raise ValidationError("eigen list does not live on the hom's target group")
    hom_validate(H)
    pull = dual_map_table(H)
    if len(set(pull.tolist())) != H.target.order:
        raise ValidationError("lift requires a surjective hom")
    out = np.zeros(H.source.order)
    out[pull] = lamH.values * (H.source.order / H.target.order)
    return EigenList(H.source, out)


def marginalize_split(lam: EigenList, keep: int) -> HeraldedMessage:
    """Marginalize a product-group list, keeping the first `keep` coordinates.

    Heralds are characters eta of the dropped block:
    ``p_eta = (1/|U|) sum_chi lam[(chi, eta)]`` with branch lists
    ``lam_eta[chi] = lam[(chi, eta)] / (|G2| p_eta)``.
    """
    U = lam.group
    if not 0 <= keep <= U.rank:
        raise ValidationError(f"split point {keep} does not match the moduli structure")
    G1 = GroupSpec(U.moduli[:keep])
    G2 = GroupSpec(U.moduli[keep:])
    n1, n2 = G1.order, G2.order
    grid = lam.values.reshape(n2, n1)    # canonical index = chi + n1 * eta
    probs = grid.sum(axis=1) / U.order
    branches = []
    for e in range(n2):
        p = float(probs[e])
        if p < PROB_FLOOR:
            continue
        branch = EigenList(G1, grid[e] / (n2 * p))
        branches.append(Branch(p, branch, (_label("marg", G2, e),)))
    return HeraldedMessage(G1, tuple(branches))


def apply_automorphism(lam: EigenList, phi: HomSpec) -> EigenList:
    """Relabel by the dual automorphism: out[chi] = lam[dual_map(chi)]."""
    if lam.group.moduli != phi.source.moduli:
        raise ValidationError("eigen list does not live on the automorphism's group")
    if not is_automorphism(phi):
        raise ValidationError("factor parameter is not an automorphism")
    pull = dual_map_table(phi)
    return EigenList(lam.group, lam.values[pull])


def adjoin_uniform(lam: EigenList, fresh: GroupSpec) -> EigenList:
    """Adjoin an independent uniform symbol as a new *first* coordinate.

    Output lives on fresh x G with mass ``|fresh| * lam[zeta]`` on the
    (trivial, zeta) slice; identical to lifting along the projection that
    drops the fresh coordinate.
    """
    out_group = direct_product(fresh, lam.group)
    nf = fresh.order
    out = np.zeros(out_group.order)
    grid = out.reshape(lam.group.order, nf)   # index = eta + nf * zeta
    grid[:, 0] = nf * lam.values
    return EigenList(out_group, out)


# ---------------------------------------------------------------------------
# d-ary folds


def equality_fold(lams) -> EigenList:
    """Left fold of the binary equality rule over an operand sequence."""
    lams = list(lams)
    if not lams:
        raise ValidationError("equality fold needs at least one operand")
    acc = lams[0]
    for lam in lams[1:]:
        acc = equality_combine(acc, lam)
    return acc


# ---------------------------------------------------------------------------
# herald-lifted variants: branch-product composition


def _product_apply(msgs, rule):
    """Apply `rule` over the branch product of `msgs`, then merge duplicates.

    `rule` maps one eigen list per input message to an EigenList or a
    HeraldedMessage; probabilities multiply and labels concatenate, in
    lexicographic order of the input branch indices.
    """
    out = []
    stack = [((), 1.0, ())]
    for msg in msgs:
        grown = [
            (lams + (b.lam,), p * b.prob, labels + b.labels)
            for (lams, p, labels) in stack
            for b in msg.branches
        ]
        filtered = [entry for entry in grown if entry[1] >= PROB_FLOOR]
        stack = filtered or grown
    for lams, p, labels in stack:
        result = rule(*lams)
        group = result.group
        if isinstance(result, HeraldedMessage):
            for b in result.branches:
                out.append(Branch(p * b.prob, b.lam, labels + b.labels))
        else:
            out.append(Branch(p, result, labels))
    total = sum(b.prob for b in out)
    if not out or total <= 0:
        raise ValidationError("branch product lost all probability mass")
    normalized = tuple(Branch(b.prob / total, b.lam, b.labels) for b in out)
    return merge_duplicates(HeraldedMessage(group, normalized))


def check_combine_m(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    if m1.group.moduli != m2.group.moduli:
        raise ValidationError("check factor: input groups differ")
    return _product_apply([m1, m2], check_combine)


def equality_combine_m(m1: HeraldedMessage, m2: HeraldedMessage) -> HeraldedMessage:
    if m1.group.moduli != m2.group.moduli:
        raise ValidationError("equality factor: input groups differ")
    return _product_apply([m1, m2], equality_combine)


def equality_fold_m(msgs) -> HeraldedMessage:
    msgs = list(msgs)
    if not msgs:
        raise ValidationError("equality fold needs at least one operand")
    acc = msgs[0]
    for m in msgs[1:]:
        acc = equality_combine_m(acc, m)
    return acc


def check_fold_m(msgs) -> HeraldedMessage:
    msgs = list(msgs)
    if not msgs:
        raise ValidationError("check fold needs at least one operand")
    acc = msgs[0]
    for m in msgs[1:]:
        acc = check_combine_m(acc, m)
    return acc


def hom_push_m(msg: HeraldedMessage, H: HomSpec) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: hom_push(lam, H))


def hom_push_supported_m(msg: HeraldedMessage, H: HomSpec) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: hom_push_supported(lam, H))


def lift_along_hom_m(msg: HeraldedMessage, H: HomSpec) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: lift_along_hom(lam, H))


def marginalize_split_m(msg: HeraldedMessage, keep: int) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: marginalize_split(lam, keep))


def apply_automorphism_m(msg: HeraldedMessage, phi: HomSpec) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: apply_automorphism(lam, phi))


def adjoin_uniform_m(msg: HeraldedMessage, fresh: GroupSpec) -> HeraldedMessage:
    return _product_apply([msg], lambda lam: adjoin_uniform(lam, fresh))
