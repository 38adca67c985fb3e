"""Tree factor graphs and exact root-directed quantum message passing.

A graph is bipartite between variables (each carrying a group alphabet) and
factors.  Supported factor kinds:

``leaf``
    Degree one; carries an incoming channel message for its variable.
``equality``
    All incident variables share one group; the message toward any edge is
    the equality-combination of the others.
``check``
    Parity constraint ``h = g1 g2 ... gd`` with the *last* edge playing h;
    toward h the inputs fold through the check rule, toward an input g_i the
    message is h times the other inputs' inverses, a fold of
    `factors._check_inverse` over h and the other inputs.
``hom``
    Edges ``(in, out)`` with a surjective homomorphism; toward `out` the
    message pushes through the coset rule, toward `in` it lifts back.
``marginalize``
    Edges ``(in, out)``; the input group is an explicit product whose first
    block is the output group.
``automorphism``
    Edges ``(in, out)`` on one group; relabeling in both directions.

`validate_tree` checks a graph and, in the same walk from the root, compiles
it into a flat post-order schedule; `run_mp` keeps that schedule per graph
contents and runs it without recursion.
Exact mode runs each step over the branch product of its input mixtures
(`factors._product_apply`) and guards the output (`messages.guard`).  Sampled
mode carries S herald trajectories as (|G|, S) columns from leaf to root: each
leaf is drawn to one branch per column, a step is one bare kernel call plus
one herald draw per column, and columns are checked in batches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .eigenlists import EigenList, useless_list
from .errors import ValidationError
from .factors import (Tracker, _automorphism, _check, _check_inverse, _equality, _hom, _in_blocks,
                      _lift, _marginalize, _product_apply, sample_rows)
from .groups import (
    GroupSpec,
    HomSpec,
    invert_automorphism,
    is_automorphism,
    is_surjective,
    projection_hom,
)
from .messages import (CACHE_FLOATS, HeraldedMessage, as_message, avg_holevo, avg_pgm_error,
                       guard, merge_duplicates, product_labels, pure)

FACTOR_KINDS = ("leaf", "equality", "check", "hom", "marginalize", "automorphism")


@dataclass(frozen=True)
class FactorNode:
    kind: str
    edges: tuple[str, ...]
    message: HeraldedMessage | None = None
    hom: HomSpec | None = None
    keep: int | None = None


@dataclass
class FactorGraphSpec:
    variables: dict[str, GroupSpec]
    factors: dict[str, FactorNode]
    root: str
    # (contents, schedule) of the contents that last passed `validate_tree`
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)


def leaf(var: str, message) -> FactorNode:
    return FactorNode("leaf", (var,), message=as_message(message))


def _validate_signature(spec: FactorGraphSpec, fid: str, f: FactorNode) -> None:
    for field, kinds in (("message", "leaf"), ("hom", "hom automorphism"), ("keep", "marginalize")):
        if getattr(f, field) is not None and f.kind not in kinds.split():
            raise ValidationError(f"{f.kind} factor {fid!r} carries a {field}, which only "
                                  f"{kinds.replace(' ', ' and ')} factors take")
    groups = [spec.variables[v] for v in f.edges]
    if f.kind == "leaf":
        if len(f.edges) != 1 or f.message is None:
            raise ValidationError(f"leaf {fid!r} needs exactly one edge and a message")
        if f.message.group.moduli != groups[0].moduli:
            raise ValidationError(f"leaf {fid!r}: message group != variable alphabet")
    elif f.kind in ("equality", "check"):
        if len(f.edges) < 2:
            raise ValidationError(f"{f.kind} factor {fid!r} needs at least two edges")
        if any(g.moduli != groups[0].moduli for g in groups):
            raise ValidationError(
                f"{f.kind} factor {fid!r} joins different alphabets "
                f"({', '.join(str(g) for g in groups)})"
            )
    elif f.kind == "hom":
        if len(f.edges) != 2 or f.hom is None:
            raise ValidationError(f"hom factor {fid!r} needs edges (in, out) and a hom")
        if f.hom.source.moduli != groups[0].moduli or f.hom.target.moduli != groups[1].moduli:
            raise ValidationError(f"hom factor {fid!r}: hom signature != edge alphabets")
        if not is_surjective(f.hom):
            raise ValidationError(
                f"hom factor {fid!r} is not surjective; restrict to its image first"
            )
    elif f.kind == "marginalize":
        if len(f.edges) != 2 or f.keep is None:
            raise ValidationError(f"marginalize factor {fid!r} needs edges (in, out) and keep")
        gin, gout = groups
        if gin.moduli[: f.keep] != gout.moduli:
            raise ValidationError(
                f"marginalize factor {fid!r}: kept block {gin.moduli[:f.keep]} != "
                f"output alphabet {gout.moduli}"
            )
    elif f.kind == "automorphism":
        if len(f.edges) != 2 or f.hom is None:
            raise ValidationError(f"automorphism factor {fid!r} needs edges (in, out) and a map")
        if groups[0].moduli != groups[1].moduli:
            raise ValidationError(f"automorphism factor {fid!r}: edge alphabets differ")
        if not is_automorphism(f.hom):
            raise ValidationError(f"automorphism factor {fid!r}: map is not an automorphism")


def validate_tree(spec: FactorGraphSpec) -> list[tuple]:
    """Check the root, the factor kinds, edges and signatures, then walk the
    graph from the root, which checks that it is a connected tree, and return
    its root-directed message passing as a post-order schedule.

    The walk uses an explicit stack and follows a recursion from the root: a
    node's incoming messages first, in edge order, then its own steps.  Entry
    j is ``(op, inputs, guard)``: a leaf entry (``op`` a message, duplicates
    merged, no inputs) or a `factors._Rule` step on the outputs of the entries
    in ``inputs``, guarded in exact mode if ``guard``.  Each output has one
    consumer; the last entry's is the root posterior."""
    if spec.root not in spec.variables:
        raise ValidationError(f"root variable {spec.root!r} is not declared")
    groups, incident = spec.variables, {v: [] for v in spec.variables}
    for fid, f in spec.factors.items():
        if f.kind not in FACTOR_KINDS:
            raise ValidationError(f"factor {fid!r}: unknown kind {f.kind!r}")
        if len(set(f.edges)) != len(f.edges):
            raise ValidationError(f"factor {fid!r} repeats a variable (cycle)")
        for v in f.edges:
            if v not in spec.variables:
                raise ValidationError(f"factor {fid!r} references unknown variable {v!r}")
            incident[v].append(fid)
        _validate_signature(spec, fid, f)
    schedule, seen = [], set()

    def emit(op, inputs=(), guard=True) -> int:
        schedule.append((op, inputs, guard))
        return len(schedule) - 1

    def fold(rule):
        return lambda slots: functools.reduce(lambda acc, s: emit(rule, (acc, s)), slots)

    def plan(node):     # (incoming nodes, then: their output slots -> output slot)
        kind, name, toward = node
        if (kind, name) in seen:
            raise ValidationError(f"not a tree: {name!r} is reached twice from the root (cycle)")
        seen.add((kind, name))
        if kind == "v":
            G = groups[name]
            into = [("f", fid, name) for fid in incident[name] if fid != toward]
            return into, (fold(_equality(G)) if into else
                          lambda _: emit(pure(useless_list(G)), guard=False))
        f = spec.factors[name]
        if f.kind == "leaf":
            return [], lambda _: emit(merge_duplicates(f.message))
        into = [("v", v, name) for v in f.edges if v != toward]
        if f.kind == "equality":
            return into, fold(_equality(groups[toward]))
        if f.kind == "check":
            out = f.edges[-1]
            if toward != out:       # toward g_i: h times the other inputs' inverses
                return [("v", out, name)] + into[:-1], fold(_check_inverse(groups[out]))
            return into, fold(_check(groups[out]))
        vin, vout = f.edges
        if f.kind == "hom":
            rule = _hom(groups[vin], f.hom) if toward == vout else _lift(groups[vout], f.hom)
        elif f.kind == "marginalize":
            rule = (_marginalize(groups[vin], f.keep) if toward == vout else
                    _lift(groups[vout], projection_hom(groups[vin], range(f.keep))))
        else:
            rule = (_automorphism(groups[vin], f.hom) if toward == vout else
                    _automorphism(groups[vout], invert_automorphism(f.hom)))
        return into, lambda s: emit(rule, s)

    stack = [(*plan(("v", spec.root, None)), [])]
    while stack:
        into, then, slots = stack[-1]
        if len(slots) < len(into):
            stack.append((*plan(into[len(slots)]), []))
        else:
            stack.pop()
            (stack[-1][2] if stack else []).append(then(slots))
    if len(seen) < len(spec.variables) + len(spec.factors):
        raise ValidationError("graph is disconnected from the root")
    return schedule


def _run_sampled(schedule, apply: Tracker) -> HeraldedMessage:
    """The schedule on populations of `apply.samples` (|G|, samples) columns:
    leaves are drawn by `apply.entry`, and a step is one `factors.sample_rows`
    call on bare arrays (in blocks), with its uniforms drawn when it runs.
    Its lists are checked by `EigenList.checked_rows` in one batch per output
    group, flushed once the batches hold `CACHE_FLOATS` floats and at the last
    entry (a step, unless the root only meets a leaf)."""
    S, last = apply.samples, len(schedule) - 1
    out, pending, held, no_u = {}, {}, 0, np.zeros(S)      # out[j]: (columns, labels)
    for j, (op, inputs, _) in enumerate(schedule):
        if not inputs:
            msg = apply.entry(op)
            out[j] = np.ascontiguousarray(msg.lams.T), msg._labels
            continue
        ops, parents = zip(*[out.pop(i) for i in inputs])
        u = no_u if op.herald is None else apply.rng.random(S)
        lams, h = _in_blocks(lambda s: sample_rows(op, [a[:, s] for a in ops], u[s]),
                             op, len(ops[0]), S)
        herald = None if h is None else (*op.herald[:2], op.herald[2][h])
        out[j] = lams, product_labels(parents, [None] * len(parents), herald)
        pending.setdefault(op.group.moduli, [op.group]).append(lams)
        held += lams.size
        if held >= CACHE_FLOATS or j == last:
            for group, *cols in pending.values():
                EigenList.checked_rows(group, np.concatenate(cols, axis=1).T)
            pending, held = {}, 0
    cols, labels = out[last]
    return HeraldedMessage._make(op.group, np.full(S, 1.0 / S), cols.T.copy(), labels)


def run_mp(spec: FactorGraphSpec, mode: str = "exact", seed: int | None = None,
           prune_eps: float = 0.0, samples: int = 1) -> HeraldedMessage:
    """Root-directed message passing; returns the posterior at the root variable.

    ``exact`` mode keeps the full heralded mixture.  ``sampled`` mode (seed
    required) tracks `samples` herald trajectories at once: each leaf is
    drawn to one branch per trajectory and every heralded rule draws one
    herald per trajectory.  It returns one branch per trajectory, each of
    probability 1/samples, whose labels are the heralds that trajectory drew;
    over seeds each branch is distributed as the exact mixture.
    """
    apply = Tracker(mode, seed, prune_eps, samples)
    contents = (spec.root, tuple(spec.variables.items()), tuple(spec.factors.items()))
    if spec._compiled is None or spec._compiled[0] != contents:   # nodes are immutable
        spec._compiled = (contents, validate_tree(spec))
    schedule = spec._compiled[1]
    if apply.rng is not None:
        return _run_sampled(schedule, apply)
    out = {}        # each output is freed when its one consumer reads it
    for j, (op, inputs, guarded) in enumerate(schedule):
        msg = _product_apply([out.pop(i) for i in inputs], op) if inputs else op
        out[j] = guard(msg, prune_eps) if guarded else msg
    return out[j]


def root_metrics(spec: FactorGraphSpec, mode: str = "exact", seed: int | None = None,
                 **kwargs) -> dict:
    msg = run_mp(spec, mode=mode, seed=seed, **kwargs)
    return {"avg_holevo": avg_holevo(msg), "avg_pgm_error": avg_pgm_error(msg)}
