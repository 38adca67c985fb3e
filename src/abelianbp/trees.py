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
    toward h the inputs fold through the check rule, toward an input the
    constraint is rewritten with inverses (an automorphism relabel).
``hom``
    Edges ``(in, out)`` with a surjective homomorphism; toward `out` the
    message pushes through the coset rule, toward `in` it lifts back.
``marginalize``
    Edges ``(in, out)``; the input group is an explicit product whose first
    block is the output group.
``automorphism``
    Edges ``(in, out)`` on one group; relabeling in both directions.

One recursion serves both modes, which differ only in how `factors.Tracker`
applies a rule.  Exact mode runs it over the branch product of the input
mixtures and guards the output (`messages.guard`: duplicates merged, pruned
past `messages.BRANCH_CAP` with a warning).  Sampled mode carries S
row-aligned herald trajectories: each leaf is drawn to one branch per row and
a rule is one call on the aligned rows plus one herald draw per row.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .eigenlists import EigenList, useless_list
from .errors import ValidationError
from .factors import Tracker, _automorphism, _check, _equality, _hom, _lift, _marginalize
from .groups import (
    GroupSpec,
    HomSpec,
    invert_automorphism,
    inversion_automorphism,
    is_automorphism,
    is_surjective,
    projection_hom,
)
from .messages import HeraldedMessage, avg_holevo, avg_pgm_error, merge_duplicates, pure

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
    # the contents that last passed `validate_tree` in `run_mp`
    _valid: tuple | None = field(default=None, init=False, repr=False, compare=False)


def leaf(var: str, message) -> FactorNode:
    if isinstance(message, EigenList):
        message = pure(message)
    return FactorNode("leaf", (var,), message=message)


def validate_tree(spec: FactorGraphSpec) -> None:
    """Check bipartite consistency, connectivity, acyclicity, and signatures."""
    if spec.root not in spec.variables:
        raise ValidationError(f"root variable {spec.root!r} is not declared")
    incident: dict[str, list[str]] = {v: [] for v in spec.variables}
    edge_count = 0
    for fid, f in spec.factors.items():
        if f.kind not in FACTOR_KINDS:
            raise ValidationError(f"factor {fid!r}: unknown kind {f.kind!r}")
        if len(set(f.edges)) != len(f.edges):
            raise ValidationError(f"factor {fid!r} repeats a variable (cycle)")
        for v in f.edges:
            if v not in spec.variables:
                raise ValidationError(f"factor {fid!r} references unknown variable {v!r}")
            incident[v].append(fid)
            edge_count += 1
        _validate_signature(spec, fid, f)
    n_nodes = len(spec.variables) + len(spec.factors)
    if edge_count != n_nodes - 1:
        raise ValidationError(
            f"not a tree: {edge_count} edges for {n_nodes} nodes (cycle or disconnect)"
        )
    # connectivity by BFS over the bipartite graph
    seen = {("v", spec.root)}
    queue = deque([("v", spec.root)])
    while queue:
        kind, node = queue.popleft()
        neighbors = (
            [("f", fid) for fid in incident[node]] if kind == "v"
            else [("v", v) for v in spec.factors[node].edges]
        )
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != n_nodes:
        raise ValidationError("graph is disconnected from the root")


def _validate_signature(spec: FactorGraphSpec, fid: str, f: FactorNode) -> None:
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


class _Engine:
    """Root-directed recursion; `apply` (a `factors.Tracker`) decides how
    each rule runs, so one recursion serves both modes."""

    def __init__(self, spec, apply, prune_eps):
        self.spec, self.apply, self.prune_eps = spec, apply, prune_eps
        self.incident = {v: [] for v in spec.variables}
        for fid, f in spec.factors.items():
            for v in f.edges:
                self.incident[v].append(fid)

    def _rule(self, rule, msgs) -> HeraldedMessage:
        return self.apply.guard(self.apply.step(rule, msgs), self.prune_eps)

    def _fold(self, rule, msgs) -> HeraldedMessage:
        acc = msgs[0]
        for m in msgs[1:]:
            acc = self._rule(rule, [acc, m])
        return acc

    def _push(self, rule, v: str, fid: str) -> HeraldedMessage:
        return self._rule(rule, [self.variable_message(v, fid)])

    def variable_message(self, v: str, toward: str | None) -> HeraldedMessage:
        G = self.spec.variables[v]
        msgs = [self.factor_message(fid, v) for fid in self.incident[v] if fid != toward]
        if not msgs:
            return self.apply.entry(pure(useless_list(G)))
        return self._fold(_equality(G), msgs)

    def factor_message(self, fid: str, toward: str) -> HeraldedMessage:
        f, groups = self.spec.factors[fid], self.spec.variables
        if f.kind == "leaf":
            return self.apply.guard(self.apply.entry(merge_duplicates(f.message)), self.prune_eps)
        if f.kind == "equality":
            return self._fold(_equality(groups[toward]),
                              [self.variable_message(v, fid) for v in f.edges if v != toward])
        if f.kind == "check":
            inputs, out = f.edges[:-1], f.edges[-1]
            G = groups[out]
            if toward == out:
                msgs = [self.variable_message(v, fid) for v in inputs]
            else:
                inv = _automorphism(G, inversion_automorphism(G))
                msgs = [self.variable_message(out, fid)] + [
                    self.apply.step(inv, [self.variable_message(v, fid)])
                    for v in inputs if v != toward]
            return self._fold(_check(G), msgs)
        vin, vout = f.edges
        if f.kind == "hom":
            if toward == vout:
                return self._push(_hom(groups[vin], f.hom), vin, fid)
            return self._push(_lift(groups[vout], f.hom), vout, fid)
        if f.kind == "marginalize":
            if toward == vout:
                return self._push(_marginalize(groups[vin], f.keep), vin, fid)
            return self._push(_lift(groups[vout], projection_hom(groups[vin], range(f.keep))),
                              vout, fid)
        if f.kind == "automorphism":
            if toward == vout:
                return self._push(_automorphism(groups[vin], f.hom), vin, fid)
            return self._push(_automorphism(groups[vout], invert_automorphism(f.hom)), vout, fid)
        raise ValidationError(f"unknown factor kind {f.kind!r}")  # pragma: no cover


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
    if spec._valid != contents:     # validated once per contents; nodes are immutable
        validate_tree(spec)
        spec._valid = contents
    return _Engine(spec, apply, prune_eps).variable_message(spec.root, None)


def root_metrics(spec: FactorGraphSpec, mode: str = "exact", seed: int | None = None,
                 **kwargs) -> dict:
    msg = run_mp(spec, mode=mode, seed=seed, **kwargs)
    return {"avg_holevo": avg_holevo(msg), "avg_pgm_error": avg_pgm_error(msg)}
