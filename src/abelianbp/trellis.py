"""Finite-state convolutional message passing over abelian groups.

One trellis section carries the branch variable (fresh symbol, state) in
G^{m+1} with the fresh symbol as the *first* block.  Parity outputs are
surjective homomorphisms on the branch; the section automorphism Phi
reparameterizes the branch as (next state, discarded cell) with the discarded
cell last.  The forward recursion is then: adjoin a uniform fresh symbol to
the state message, equality-combine the lifted observations, apply Phi, and
marginalize the discarded coordinate.  The backward recursion mirrors it on
time-reversed sections.

Each section step (forward, backward, extrinsic) is one composite of these
factors, written once as a kernel of two sparse gathers on (size, n) sample
columns (`_Section`).  Exact `decode_block` runs it as one rule per step over
the branch product (`_step_rule`, `factors._product_apply`).  Sampled
`decode_block` and density evolution run it bare: a sweep is one kernel call
and one herald draw per step for all tracked trajectories (`_sweep`), and the
extrinsics are batched on column blocks.  Both modes of `decode_block` build a
section's parity and symbol-side lists with `_input_lists`.

Rational transfer functions G(D) = p(D)/q(D) over Z_n (with invertible q(0))
compile to a single-parity section in controller canonical form; feedforward
shift registers make Phi the identity under the fresh-first convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characters import dual_map_table, tables_for
from .eigenlists import EigenList, perfect_list, useless_list
from .errors import ValidationError
from .factors import Tracker, _equality, _lift, _product_apply, _Rule, draw_heralds
from .groups import (
    GroupSpec,
    HomSpec,
    compose_homs,
    identity_hom,
    is_automorphism,
    is_surjective,
    projection_hom,
)
from .messages import (HeraldedMessage, as_message, avg_holevo, avg_pgm_error, guard,
                       product_labels, pure)


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


def _boundary(spec: TrellisSpec) -> HeraldedMessage:
    """The state message at both ends of a block: perfect for a known
    boundary state, useless for an unknown one."""
    lam = (perfect_list(spec.state_group) if spec.boundary == "known"
           else useless_list(spec.state_group))
    return pure(lam)


def _messages(msgs, G: GroupSpec, optional: bool = False) -> list[HeraldedMessage]:
    """Eigen lists or messages as messages on G; None is skipped if `optional`."""
    msgs = [as_message(m) for m in msgs if not (optional and m is None)]
    if any(m.group.moduli != G.moduli for m in msgs):
        raise ValidationError(f"messages on {[m.group for m in msgs]}, not {G}")
    return msgs


def _gather(x: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_k x[idx[:, k]] * w[k]`` on (in, n) sample columns ``x``, for an
    (out, K) row table ``idx`` and weights ``w`` that broadcast to (K, out, n).
    Terms are added in table order, so no result depends on thread count or n."""
    acc = x[idx[:, 0]] * w[0]
    for k in range(1, idx.shape[1]):
        acc += x[idx[:, k]] * w[k]
    return acc


class _Section(NamedTuple):
    """One section step as two gathers on (size, n) sample columns.

    The adjoined or lifted state is 1/q dense and the parity list P (the
    lifted observations, equality-combined) lives on the dual image of the
    outputs, so branch row c of their combine adds ``state[src[c, k]] *
    P[par[c, k]] * q / |B|`` over the few k where both are nonzero.
    ``weights(P)`` gathers these (K, |B|, n) weights from (|B|, n or 1) lists;
    ``branch(state, weights, second)`` adds the symbol or lifted backward
    state through a table that folds in the section automorphism, and returns
    the (rest, herald, n) branch array.
    """

    weights: object
    branch: object


@functools.lru_cache(maxsize=None)
def _section(spec: TrellisSpec, kind: str, n_obs: int) -> _Section:
    """The step with observations on the first n_obs outputs.  Heralds:
    ``forward`` the discarded cell, ``backward`` the symbol, ``extrinsic`` the state."""
    G, B = spec.symbol_group, spec.branch_group
    q, ns, nb = G.order, spec.state_group.order, B.order
    t = tables_for(B)
    support = np.arange(nb) == 0                    # of P: sums of the output pulls
    for L in spec.outputs[:n_obs]:
        support[t.add[np.flatnonzero(support)[:, None], dual_map_table(L)[None, :]]] = True
    nxt = dual_map_table(next_state_hom(spec))
    at = t.sub[:, nxt if kind == "backward" else q * np.arange(ns)]  # [c, s]: c - src[s]
    hit = support[at]
    src = np.argsort(~hit, axis=1, kind="stable")[:, :max(1, hit.sum(axis=1).max())]
    # cells past a row's terms read P where it is zero, so they add nothing
    par = np.where(np.take_along_axis(hit, src, axis=1),
                   np.take_along_axis(at, src, axis=1), np.argmin(support))
    sym = t.sub[:, dual_map_table(symbol_projection(spec))]          # (nb, q)
    if kind == "forward":
        tbl, div, shape = sym[dual_map_table(spec.section_automorphism)], q, (ns, q)
        tbl = tbl.reshape(q, ns, q).swapaxes(0, 1).reshape(nb, q)
    elif kind == "backward":
        tbl, div, shape = sym, q, (ns, q)
    else:
        tbl, div, shape = t.sub[:, nxt], ns, (q, ns)
        tbl = tbl.reshape(ns, q, ns).swapaxes(0, 1).reshape(nb, ns)

    def branch(state, weights, second):
        out = _gather(_gather(state, src, weights), tbl, second[:, None, :] / div)
        return out.reshape(*shape, -1)
    return _Section(lambda parity: parity[par.T] * (q / nb), branch)


# floats per (branch, column) array: sampled decoding computes section weights
# and extrinsics on blocks of sections this small, so that they stay in cache
_BLOCK_FLOATS = 1 << 15


def _draw(branch: np.ndarray, u: np.ndarray):
    """Marginalize a (rest, herald, n) branch array on one herald per column,
    drawn at the uniforms ``u`` by `factors.draw_heralds`; returns the
    (rest, n) lists and the n heralds."""
    rest, heralds, n = branch.shape
    p = branch.sum(axis=0) / (rest * heralds)
    h, cols = draw_heralds(p, u), np.arange(n)
    return branch[:, h, cols] / (heralds * p[h, cols]), h


def _sweep(state: np.ndarray, steps, u: np.ndarray):
    """A sampled recursion from (size, n) state columns: step k marginalizes
    ``branch(state, weights, second)``, ``steps[k] = (branch, weights, second)``,
    at ``u[k]``.  Returns all (size, n) states, `state` first, and the heralds."""
    states, heralds = np.empty((len(u) + 1, *state.shape)), np.empty(u.shape, np.intp)
    states[0] = state
    for k, (branch, weights, second) in enumerate(steps):
        states[k + 1], heralds[k] = _draw(branch(states[k], weights, second), u[k])
    return states, heralds


@functools.lru_cache(maxsize=None)
def _input_lists(spec: TrellisSpec):
    """``build(obs, sym, width)``: a section's parity list (its lifted
    observations, equality-combined) and symbol-side list (its symbol messages,
    equality-combined), as (|B|, width) and (q, width) columns from (width, .)
    operand rows; useless without operands."""
    lifts = [_lift(spec.output_group, L).rows for L in spec.outputs]
    kinds = [(_equality(g).rows, useless_list(g).values[:, None])
             for g in (spec.branch_group, spec.symbol_group)]

    def build(obs, sym, width: int):
        return [functools.reduce(eq, xs).T if xs else nil.repeat(width, 1)
                for (eq, nil), xs in zip(kinds, ([f(o) for f, o in zip(lifts, obs)], sym))]
    return build


@functools.lru_cache(maxsize=None)
def _step_rule(spec: TrellisSpec, kind: str, n_obs: int) -> _Rule:
    """A step as one rule on rows of (state, [backward state,] observations...,
    symbol messages...); the section's input lists come from `_input_lists`."""
    sec, states = _section(spec, kind, n_obs), 2 if kind == "extrinsic" else 1
    kept, dropped = ((spec.symbol_group, spec.state_group) if states == 2
                     else (spec.state_group, spec.symbol_group))
    build, nb, nd = _input_lists(spec), spec.branch_group.order, dropped.order

    def rows(*ops):
        parity, side = build(ops[states:states + n_obs], ops[states + n_obs:], len(ops[0]))
        second = ops[1].T if states == 2 else side
        grid = sec.branch(ops[0].T, sec.weights(parity), second).transpose(2, 1, 0)
        probs = grid.sum(axis=2) / nb
        return probs, lambda sel: grid[sel] / (nd * probs[sel])[:, None]
    return _Rule(kept, rows, ("marg", dropped, np.arange(dropped.order)))


@dataclass(frozen=True)
class SectionResult:
    t: int
    posterior: HeraldedMessage
    extrinsic: HeraldedMessage


def decode_block(spec: TrellisSpec, obs_seq, mode: str = "exact",
                 seed: int | None = None, symbol_obs_seq=None, apriori_seq=None,
                 prune_eps: float = 0.0, samples: int = 1) -> list[SectionResult]:
    """Forward/backward sweeps plus per-section symbol posterior and extrinsic.

    ``obs_seq[t]`` lists the per-output observations of section t.  The
    extrinsic message at t omits the symbol-side leaves (channel observation
    and a priori) of section t itself; the posterior equality-combines them
    back in, which reproduces the full branch marginal exactly.

    Exact mode runs each step as one rule over the branch product and passes
    every state, extrinsic and posterior message through `messages.guard`;
    only state messages are pruned at ``prune_eps``.  Sampled mode (seed
    required) tracks `samples` herald trajectories at once: each input is
    drawn to one branch per trajectory, each sweep step is one kernel call and
    one herald draw for all of them (`_sampled_block`), and every message
    holds one row per trajectory, of probability 1/samples.
    """
    validate_trellis(spec)
    apply = Tracker(mode, seed, prune_eps, samples)
    T = len(obs_seq)
    n_obs = [len(obs) for obs in obs_seq]
    if max(n_obs, default=0) > len(spec.outputs):
        raise ValidationError(f"{max(n_obs)} observations for {len(spec.outputs)} trellis outputs")
    inputs = [[apply.entry(m) for m in (*_messages(obs, spec.output_group),
                                        *_messages(side, spec.symbol_group, True))]
              for obs, side in zip(obs_seq, zip(symbol_obs_seq or [None] * T,
                                                apriori_seq or [None] * T))]
    start = apply.entry(_boundary(spec))
    if apply.rng is not None:
        return _sampled_block(spec, inputs, n_obs, start, apply.rng)
    rule = {(kind, n): _step_rule(spec, kind, n) for n in set(n_obs)
            for kind in ("forward", "backward", "extrinsic")}
    fwd, bwd = [start], [start]
    for t in range(T):
        r = rule["forward", n_obs[t]]
        r = r._replace(herald=(f"fwd[t={t}]:marg", *r.herald[1:]))
        fwd.append(guard(_product_apply([fwd[t], *inputs[t]], r), prune_eps))
    for t in range(T - 1, -1, -1):
        r = rule["backward", n_obs[t]]
        r = r._replace(herald=(f"bwd[t={t}]:marg", *r.herald[1:]))
        bwd.append(guard(_product_apply([bwd[-1], *inputs[t]], r), prune_eps))
    bwd.reverse()
    eq = _equality(spec.symbol_group)
    results = []
    for t, n in enumerate(n_obs):
        ext = guard(_product_apply([fwd[t], bwd[t + 1], *inputs[t][:n]], rule["extrinsic", n]))
        post = ext
        for m in inputs[t][n:]:
            post = _product_apply([post, m], eq)
        results.append(SectionResult(t, guard(post), ext))
    return results


def _sampled_block(spec: TrellisSpec, inputs, n_obs, start: HeraldedMessage,
                   rng) -> list[SectionResult]:
    """Sampled `decode_block`, trajectories as columns, on blocks of sections
    with equal observation counts and at most `_BLOCK_FLOATS` floats per
    branch array.  Uniforms are drawn up front for the forward sweep, the
    backward sweep (row k: section T - 1 - k) and the extrinsics."""
    T, S, G, GS = len(inputs), len(start), spec.symbol_group, spec.state_group
    u_fwd, u_bwd, u_ext = (rng.random((T, S)) for _ in range(3))
    eq_g, build = _equality(G), _input_lists(spec)
    size = max(1, _BLOCK_FLOATS // (spec.branch_group.order * S))
    blocks, lo = [], 0
    for t in range(1, T + 1):
        if t == T or n_obs[t] != n_obs[lo] or t - lo == size:
            blocks.append(range(lo, t))
            lo = t
    # each section's symbol-side list, for both sweeps
    sides = [build([], [m.lams for m in ins[n:]], S)[1] for ins, n in zip(inputs, n_obs)]

    def weights(kind, ts):      # on the block's parity lists
        n = n_obs[ts[0]]
        obs = [np.concatenate([inputs[t][i].lams for t in ts]) for i in range(n)]
        return _section(spec, kind, n).weights(build(obs, [], len(ts) * S)[0])

    def steps(kind, order):
        for ts in order:
            branch, w = _section(spec, kind, n_obs[ts[0]]).branch, weights(kind, ts)
            for j in (range(len(ts)) if kind == "forward" else reversed(range(len(ts)))):
                yield branch, w[:, :, j * S:(j + 1) * S], sides[ts[j]]

    fwd, fh = _sweep(start.lams.T, steps("forward", blocks), u_fwd)
    bwd, bh = _sweep(start.lams.T, steps("backward", blocks[::-1]), u_bwd)
    for states in (fwd, bwd):
        EigenList.checked_rows(GS, states.transpose(0, 2, 1))
    bwd = bwd[::-1]                     # bwd[t]: the backward state of sections t .. T - 1
    ext, post = np.empty((T * S, G.order)), np.empty((T * S, G.order))
    eh = np.empty((T, S), np.intp)
    for ts in blocks:
        lo, hi, n, cols = ts.start, ts.stop, n_obs[ts.start], slice(ts.start * S, ts.stop * S)
        f, b = (x.transpose(1, 0, 2).reshape(GS.order, -1)
                for x in (fwd[lo:hi], bwd[lo + 1:hi + 1]))
        kernel = _section(spec, "extrinsic", n)
        lists, h = _draw(kernel.branch(f, weights("extrinsic", ts), b), u_ext[lo:hi].ravel())
        ext[cols] = EigenList.checked_rows(G, lists.T)
        eh[lo:hi] = h.reshape(-1, S)
        # the posteriors fold in each section's symbol-side messages in turn
        acc, k = ext[cols].copy(), np.array([len(inputs[t]) - n for t in ts])
        for j in range(k.max()):
            y = np.concatenate([inputs[t][n + j].lams for t in ts if len(inputs[t]) - n > j])
            acc[np.repeat(k > j, S)] = eq_g.rows(acc[np.repeat(k > j, S)], y)
        post[cols] = EigenList.checked_rows(G, acc)
    labs = [[m._labels for m in ins] for ins in inputs]

    def node(parents, herald=None):
        return product_labels(parents, [None] * len(parents), herald)

    f_lab, b_lab = [start._labels], [start._labels]     # b_lab[k]: boundary T - k
    for t in range(T):
        f_lab.append(node([f_lab[t], *labs[t]], (f"fwd[t={t}]:marg", G, fh[t])))
        b_lab.append(node([b_lab[t], *labs[T - 1 - t]], (f"bwd[t={T - 1 - t}]:marg", G, bh[t])))
    results = []
    for t, n in enumerate(n_obs):
        e_lab = node([f_lab[t], b_lab[T - 1 - t], *labs[t][:n]], ("marg", GS, eh[t]))
        p_lab = functools.reduce(lambda acc, lab: node([acc, lab]), labs[t][n:], e_lab)
        at = slice(t * S, (t + 1) * S)
        results.append(SectionResult(t, HeraldedMessage._make(G, start.probs, post[at], p_lab),
                                     HeraldedMessage._make(G, start.probs, ext[at], e_lab)))
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
            factors[f"obs{t}_{i}"] = leaf(xid, ob)
        if symbol_obs_seq[t] is not None:
            factors[f"sysobs{t}"] = leaf(f"g{t}", symbol_obs_seq[t])
        if apriori_seq[t] is not None:
            factors[f"apr{t}"] = leaf(f"g{t}", apriori_seq[t])
    factors["bound0"] = leaf("S0", _boundary(spec))
    factors["boundT"] = leaf(f"S{T}", _boundary(spec))
    return FactorGraphSpec(variables, factors, f"g{root_t}")
