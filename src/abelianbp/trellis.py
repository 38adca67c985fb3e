"""Finite-state convolutional message passing over abelian groups.

One trellis section carries the branch variable (fresh symbol, state) in
G^{m+1} with the fresh symbol as the *first* block.  Parity outputs are
surjective homomorphisms on the branch; the section automorphism Phi
reparameterizes the branch as (next state, discarded cell) with the discarded
cell last.  The forward recursion is then: adjoin a uniform fresh symbol to
the state message, equality-combine the lifted observations, apply Phi, and
marginalize the discarded coordinate.  The backward recursion mirrors it on
time-reversed sections.

Rational transfer functions G(D) = p(D)/q(D) over Z_n (with invertible q(0))
compile to a single-parity section in controller canonical form; feedforward
shift registers make Phi the identity under the fresh-first convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .eigenlists import EigenList, perfect_list, useless_list
from .errors import ValidationError
from .factors import (
    adjoin_uniform_m,
    apply_automorphism_m,
    equality_fold_m,
    lift_along_hom_m,
    marginalize_split_m,
)
from .groups import (
    GroupSpec,
    HomSpec,
    compose_homs,
    identity_hom,
    is_automorphism,
    is_surjective,
    permute_coordinates,
    projection_hom,
)
from .messages import (
    HeraldedMessage,
    avg_holevo,
    avg_pgm_error,
    guard,
    herald_rng,
    pure,
    relabel,
)


@dataclass(frozen=True)
class TrellisSpec:
    """One-section description of a finite-state encoder over a group."""

    symbol_group: GroupSpec
    memory: int
    output_group: GroupSpec
    outputs: tuple[HomSpec, ...]            # branch -> output_group, surjective
    section_automorphism: HomSpec           # branch -> (next state, discarded)
    block_length: int | None = None
    boundary: str = "known"

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))   # hashable: maps are cached

    @property
    def branch_group(self) -> GroupSpec:
        return GroupSpec(self.symbol_group.moduli * (self.memory + 1))

    @property
    def state_group(self) -> GroupSpec:
        return GroupSpec(self.symbol_group.moduli * self.memory)


@functools.lru_cache(maxsize=None)
def symbol_projection(spec: TrellisSpec) -> HomSpec:
    k = spec.symbol_group.rank
    return projection_hom(spec.branch_group, range(k))


def state_projection(spec: TrellisSpec) -> HomSpec:
    k = spec.symbol_group.rank
    return projection_hom(spec.branch_group, range(k, k * (spec.memory + 1)))


@functools.lru_cache(maxsize=None)
def next_state_hom(spec: TrellisSpec) -> HomSpec:
    """Branch -> next state: the section automorphism followed by dropping
    the discarded (last) block."""
    k = spec.symbol_group.rank
    proj = projection_hom(spec.branch_group, range(k * spec.memory))
    return compose_homs(proj, spec.section_automorphism)


def validate_trellis(spec: TrellisSpec) -> None:
    if spec.memory < 0:
        raise ValidationError("memory must be nonnegative")
    bg = spec.branch_group
    for i, L in enumerate(spec.outputs):
        if L.source.moduli != bg.moduli:
            raise ValidationError(f"output {i}: source is not the branch group")
        if L.target.moduli != spec.output_group.moduli:
            raise ValidationError(f"output {i}: target is not the output group")
        if not is_surjective(L):
            raise ValidationError(f"output {i} is not surjective")
    phi = spec.section_automorphism
    if phi.source.moduli != bg.moduli or phi.target.moduli != bg.moduli:
        raise ValidationError("section automorphism does not act on the branch group")
    if not is_automorphism(phi):
        raise ValidationError("section map is not an automorphism")
    if spec.boundary not in ("known", "unknown"):
        raise ValidationError(f"unknown boundary convention {spec.boundary!r}")


def shift_register_trellis(group: GroupSpec, memory: int, taps,
                           output_group: GroupSpec | None = None) -> TrellisSpec:
    """Feedforward encoder over a cyclic group: outputs x = sum_j taps[j]*coord_j.

    ``taps`` is a list of coefficient rows over the branch coordinates
    (g, s_1, ..., s_m); the section automorphism is the identity because the
    next state is literally the first m branch coordinates.
    """
    if group.rank != 1:
        raise ValidationError("tap-based construction expects a cyclic symbol group")
    H = output_group or group
    bg = GroupSpec(group.moduli * (memory + 1))
    outputs = tuple(HomSpec(bg, H, (tuple(row),)) for row in taps)
    spec = TrellisSpec(group, memory, H, outputs, identity_hom(bg))
    validate_trellis(spec)
    return spec


def transfer_function_trellis(p, q, modulus: int) -> TrellisSpec:
    """Compile G(D) = p(D)/q(D) over Z_modulus to a one-parity section.

    Controller canonical form: the register holds w_{t-1}, ..., w_{t-m} with
    w_t = q0^{-1} (u_t - sum_i q_i w_{t-i}) and parity x_t = sum_i p_i w_{t-i}.
    The discarded coordinate is the register cell being overwritten, so the
    section map sends (g, s) to (w_t, s_1, ..., s_m) and is an automorphism
    exactly when q(0) is a unit.
    """
    n = int(modulus)
    p = [int(c) % n for c in p]
    q = [int(c) % n for c in q]
    if not q or math.gcd(q[0], n) != 1:
        raise ValidationError("q(0) must be a unit mod the modulus")
    m = max(len(p), len(q)) - 1
    p += [0] * (m + 1 - len(p))
    q += [0] * (m + 1 - len(q))
    q0inv = pow(q[0], -1, n)
    G = GroupSpec((n,))
    bg = GroupSpec((n,) * (m + 1))
    parity = [p[0] * q0inv % n]
    for i in range(1, m + 1):
        parity.append((p[i] - p[0] * q0inv * q[i]) % n)
    phi_rows = [tuple([q0inv] + [(-q0inv * q[i]) % n for i in range(1, m + 1)])]
    for i in range(1, m + 1):
        phi_rows.append(tuple(1 if j == i else 0 for j in range(m + 1)))
    spec = TrellisSpec(G, m, G, (HomSpec(bg, G, (tuple(parity),)),),
                       HomSpec(bg, bg, tuple(phi_rows)))
    validate_trellis(spec)
    return spec


# ---------------------------------------------------------------------------
# message recursion


@dataclass(frozen=True)
class StateMessage:
    message: HeraldedMessage
    t: int
    direction: str    # "fwd" or "bwd"


def boundary_state(spec: TrellisSpec, t: int, direction: str) -> StateMessage:
    lam = (perfect_list(spec.state_group) if spec.boundary == "known"
           else useless_list(spec.state_group))
    return StateMessage(pure(lam), t, direction)


def _as_message(x) -> HeraldedMessage:
    if isinstance(x, HeraldedMessage):
        return x
    if isinstance(x, EigenList):
        return pure(x)
    raise ValidationError(f"expected an eigen list or heralded message, got {type(x)}")


def _retag(msg: HeraldedMessage, tag: str) -> HeraldedMessage:
    """Prefix the herald labels added by the latest marginalization."""
    return relabel(msg, lambda labels: tuple(f"{tag}:{lab}" if lab.startswith("marg:") else lab
                                             for lab in labels))


def branch_posterior(spec: TrellisSpec, fwd=None, bwd=None, obs=(),
                     symbol_obs=None, apriori=None) -> HeraldedMessage:
    """Combined message on the branch variable (fresh symbol, state).

    Equality-combines: the forward state message lifted by adjoining a uniform
    fresh symbol, the backward message lifted through the next-state map, each
    observation lifted along its output homomorphism, and the symbol-side
    messages (channel observation and incoming a priori) lifted along the
    symbol projection.
    """
    parts = []
    if len(obs) > len(spec.outputs):
        raise ValidationError(
            f"{len(obs)} observations for {len(spec.outputs)} trellis outputs"
        )
    if fwd is not None:
        msg = fwd.message if isinstance(fwd, StateMessage) else _as_message(fwd)
        parts.append(adjoin_uniform_m(msg, spec.symbol_group))
    if bwd is not None:
        msg = bwd.message if isinstance(bwd, StateMessage) else _as_message(bwd)
        parts.append(lift_along_hom_m(msg, next_state_hom(spec)))
    for i, ob in enumerate(obs):
        parts.append(lift_along_hom_m(_as_message(ob), spec.outputs[i]))
    sym_parts = [_as_message(m) for m in (symbol_obs, apriori) if m is not None]
    if sym_parts:
        sym = equality_fold_m(sym_parts)
        parts.append(lift_along_hom_m(sym, symbol_projection(spec)))
    if not parts:
        raise ValidationError("branch posterior needs at least one incoming message")
    return equality_fold_m(parts)


def forward_step(spec: TrellisSpec, fwd: StateMessage, obs, symbol_obs=None,
                 apriori=None) -> StateMessage:
    """One forward sweep step: combine, apply the section map, marginalize."""
    branch = branch_posterior(spec, fwd=fwd, obs=obs, symbol_obs=symbol_obs,
                              apriori=apriori)
    branch = apply_automorphism_m(branch, spec.section_automorphism)
    nxt = marginalize_split_m(branch, spec.state_group.rank)
    return StateMessage(_retag(nxt, f"fwd[t={fwd.t}]"), fwd.t + 1, "fwd")


def backward_step(spec: TrellisSpec, bwd: StateMessage, obs, symbol_obs=None,
                  apriori=None) -> StateMessage:
    """One backward sweep step on the time-reversed section.

    The branch is combined exactly as in the forward step (with the backward
    message entering through the next-state map) and then marginalized onto
    the current-state block, i.e. the fresh symbol rotates to the back and the
    first m blocks are kept.
    """
    branch = branch_posterior(spec, bwd=bwd, obs=obs, symbol_obs=symbol_obs,
                              apriori=apriori)
    branch = apply_automorphism_m(branch, _rotation(spec))
    prev = marginalize_split_m(branch, spec.state_group.rank)
    return StateMessage(_retag(prev, f"bwd[t={bwd.t - 1}]"), bwd.t - 1, "bwd")


@functools.lru_cache(maxsize=None)
def _rotation(spec: TrellisSpec) -> HomSpec:
    """Branch automorphism moving the fresh symbol block to the back."""
    k, nb = spec.symbol_group.rank, spec.branch_group.rank
    return permute_coordinates(spec.branch_group, tuple(range(k, nb)) + tuple(range(k)))


@dataclass(frozen=True)
class SectionResult:
    t: int
    posterior: HeraldedMessage
    extrinsic: HeraldedMessage


def decode_block(spec: TrellisSpec, obs_seq, mode: str = "exact",
                 seed: int | None = None, symbol_obs_seq=None, apriori_seq=None,
                 prune_eps: float = 0.0) -> list[SectionResult]:
    """Forward/backward sweeps plus per-section symbol posterior and extrinsic.

    ``obs_seq[t]`` lists the per-output observations of section t.  The
    extrinsic message at t omits the symbol-side leaves (channel observation
    and a priori) of section t itself; the posterior equality-combines them
    back in, which reproduces the full branch marginal exactly.  Every state,
    extrinsic and posterior message passes through `messages.guard`; only
    state messages are pruned at ``prune_eps``.
    """
    validate_trellis(spec)
    rng = herald_rng(mode, seed, prune_eps)
    T = len(obs_seq)
    symbol_obs_seq = symbol_obs_seq or [None] * T
    apriori_seq = apriori_seq or [None] * T

    fwd = [boundary_state(spec, 0, "fwd")]
    for t in range(T):
        step = forward_step(spec, fwd[t], obs_seq[t], symbol_obs_seq[t], apriori_seq[t])
        fwd.append(replace(step, message=guard(step.message, rng, prune_eps)))
    bwd = [None] * (T + 1)
    bwd[T] = boundary_state(spec, T, "bwd")
    for t in range(T - 1, -1, -1):
        step = backward_step(spec, bwd[t + 1], obs_seq[t], symbol_obs_seq[t],
                             apriori_seq[t])
        bwd[t] = replace(step, message=guard(step.message, rng, prune_eps))

    results = []
    for t in range(T):
        branch = branch_posterior(spec, fwd=fwd[t], bwd=bwd[t + 1], obs=obs_seq[t])
        ext = guard(marginalize_split_m(branch, spec.symbol_group.rank), rng)
        post_parts = [ext] + [_as_message(m) for m in (symbol_obs_seq[t], apriori_seq[t])
                              if m is not None]
        post = guard(equality_fold_m(post_parts), rng)
        results.append(SectionResult(t, post, ext))
    return results


def section_metrics(results) -> list[dict]:
    return [
        {
            "t": r.t,
            "posterior_holevo": avg_holevo(r.posterior),
            "posterior_pgm_error": avg_pgm_error(r.posterior),
            "extrinsic_holevo": avg_holevo(r.extrinsic),
            "extrinsic_pgm_error": avg_pgm_error(r.extrinsic),
        }
        for r in results
    ]


# ---------------------------------------------------------------------------
# unrolling a block to a tree factor graph


def unroll_to_tree(spec: TrellisSpec, obs_seq, root_t: int, symbol_obs_seq=None,
                   apriori_seq=None):
    """Equivalent tree factor graph of a decoded block, rooted at one symbol.

    The trellis is a chain, hence a tree; message passing on the unrolled
    graph must agree with `decode_block` exactly.
    """
    from .trees import FactorGraphSpec, FactorNode, leaf

    T = len(obs_seq)
    symbol_obs_seq = symbol_obs_seq or [None] * T
    apriori_seq = apriori_seq or [None] * T
    bg = spec.branch_group
    sg = spec.state_group
    G = spec.symbol_group
    variables = {}
    factors = {}
    for t in range(T + 1):
        variables[f"S{t}"] = sg
    for t in range(T):
        variables[f"B{t}"] = bg
        variables[f"g{t}"] = G
        factors[f"state{t}"] = FactorNode("hom", (f"B{t}", f"S{t}"),
                                          hom=state_projection(spec))
        factors[f"next{t}"] = FactorNode("hom", (f"B{t}", f"S{t + 1}"),
                                         hom=next_state_hom(spec))
        factors[f"sym{t}"] = FactorNode("hom", (f"B{t}", f"g{t}"),
                                        hom=symbol_projection(spec))
        for i, ob in enumerate(obs_seq[t]):
            xid = f"x{t}_{i}"
            variables[xid] = spec.output_group
            factors[f"out{t}_{i}"] = FactorNode("hom", (f"B{t}", xid),
                                                hom=spec.outputs[i])
            factors[f"obs{t}_{i}"] = leaf(xid, _as_message(ob))
        if symbol_obs_seq[t] is not None:
            factors[f"sysobs{t}"] = leaf(f"g{t}", _as_message(symbol_obs_seq[t]))
        if apriori_seq[t] is not None:
            factors[f"apr{t}"] = leaf(f"g{t}", _as_message(apriori_seq[t]))
    boundary_lam = (perfect_list(sg) if spec.boundary == "known"
                    else useless_list(sg))
    factors["bound0"] = leaf("S0", pure(boundary_lam))
    factors["boundT"] = leaf(f"S{T}", pure(boundary_lam))
    return FactorGraphSpec(variables, factors, f"g{root_t}")
