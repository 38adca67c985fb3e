"""The two-way sweep (`trellis._sweep`) against the one-direction recursions
it replaced: in density evolution and in sampled `decode_block`, each
direction's states and heralds are those of its own recursion, byte for byte,
whatever the block budgets."""

import numpy as np
import pytest

from abelianbp import GroupSpec, HomSpec, de, trellis
from abelianbp.de import TurboSpec, channel_family, de_iteration, standard_turbo
from abelianbp.eigenlists import EigenList, useless_list
from abelianbp.factors import equality_fold, lift_along_hom
from abelianbp.trellis import (TrellisSpec, _draw, _input_lists, _section, decode_block,
                               shift_register_trellis)
from test_de import fold_uses

Z2, Z3, Z4 = GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,))


def one_way(state, steps, u):
    """One direction's sampled recursion from (size, n) state columns: step k
    marginalizes ``kernel.branch(state, weights, second)`` at ``u[k]``."""
    states, heralds = [state], []
    for (kernel, weights, second), uk in zip(steps, u):
        lists, h = _draw(kernel.branch(states[-1], weights, second), uk)
        states.append(lists)
        heralds.append(h)
    return np.array(states), np.array(heralds, dtype=np.intp).reshape(len(u), -1)


def record(monkeypatch, module):
    """Calls of `module._sweep`, each kept as (boundary, result)."""
    calls, sweep = [], trellis._sweep

    def recorded(state, steps, u, **kwargs):
        out = sweep(state, steps, u, **kwargs)
        calls.append((state, out))
        return out
    monkeypatch.setattr(module, "_sweep", recorded)
    return calls


def assert_directions(call, references, uniforms):
    """Direction d of a recorded sweep equals `one_way` on ``references[d]``,
    a list of (kernel, weights, second) steps, at ``uniforms[d]``: the states
    the sweep kept, which are the last ones, and all heralds."""
    state, (states, heralds) = call
    size, _, n = states.shape[1:]
    boundary = np.broadcast_to(state, (size, 2, n))
    for d, ref in enumerate(references):
        want_states, want_heralds = one_way(np.ascontiguousarray(boundary[:, d]), ref,
                                            uniforms[d])
        assert states[:, :, d].tobytes() == want_states[len(want_states) - len(states):].tobytes()
        assert heralds[d].tobytes() == want_heralds.tobytes()


def v4_trellis():
    V, bv = GroupSpec((2, 2)), GroupSpec((2, 2, 2, 2))
    return TrellisSpec(V, 1, Z2, (HomSpec(bv, Z2, ((1, 0, 1, 1),)),
                                  HomSpec(bv, Z2, ((0, 1, 1, 0),))),
                       HomSpec(bv, bv, ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
                       boundary="unknown")


def v4_feedforward():
    """Memory 1 over Z2xZ2, one output x = g + s on the symbol group."""
    V, bv = GroupSpec((2, 2)), GroupSpec((2, 2, 2, 2))
    return TrellisSpec(V, 1, V, (HomSpec(bv, V, ((1, 0, 1, 0), (0, 1, 0, 1))),),
                       HomSpec(bv, bv, tuple(tuple(int(i == j) for j in range(4))
                                             for i in range(4))))


TWO_OUTPUT = shift_register_trellis(Z3, 2, [[1, 1, 0], [1, 0, 2]])
TURBOS = {
    "turbo-q3": standard_turbo(3),
    "turbo-q5": standard_turbo(5),
    "two-output": TurboSpec((TWO_OUTPUT,) * 2),
    "z2xz2": TurboSpec((v4_feedforward(),) * 2),
}
TRELLISES = {
    "turbo-q3": standard_turbo(3).constituents[0],
    "turbo-q5": standard_turbo(5).constituents[0],
    "two-output": TWO_OUTPUT,
    "z2xz2": v4_trellis(),
    "output-group": shift_register_trellis(Z4, 1, [[1, 1]], output_group=Z2),
}
BUDGETS = [None, 64, 1]


def set_budgets(monkeypatch, floats):
    if floats is not None:
        monkeypatch.setattr(de, "CACHE_FLOATS", floats)
        monkeypatch.setattr(trellis, "CACHE_FLOATS", floats)


def rand_lists(G, rng, n):
    x = rng.gamma(1.0, size=(n, G.order))
    return x * (G.order / x.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("floats", BUDGETS, ids=["default", "64", "1"])
@pytest.mark.parametrize("case", list(TURBOS))
def test_de_sweep_runs_both_one_way_recursions(monkeypatch, case, floats):
    """DE's sweep gives each direction the states and heralds of its own
    recursion, as DE ran them one after the other: the forward recursion on
    the first sections of each block, the backward one on the last, with
    DE's parity column and the uniforms in the order forward, backward."""
    set_budgets(monkeypatch, floats)
    spec = TURBOS[case]
    calls = record(monkeypatch, de)
    G, constituent = spec.symbol_group, spec.constituents[1]
    q, n, ctx = G.order, 300, 5
    lam = EigenList(G, channel_family(q, 1 + 0.6 * (q - 1)).values)     # on G itself
    pop = rand_lists(G, np.random.default_rng(4), n)
    de_iteration(spec, pop, lam, np.random.default_rng(5), window=2 * ctx + 1, constituent=1)

    rng, B = np.random.default_rng(5), de._block_sections(n)
    m, L = -(-n // B), ctx + B - 1
    apr_idx = rng.integers(0, n, size=(m, B + 2 * ctx)).T
    u = rng.random((2 * L + B, m))
    fold = fold_uses(lam, spec.systematic_mult, G).values[:, None] / q
    sym = de._with_systematic(G, fold, pop.T[:, apr_idx])
    parity = equality_fold([useless_list(constituent.branch_group)] + [
        lift_along_hom(fold_uses(lam, spec.parity_mults[1], G), hom)
        for hom in constituent.outputs]).values[:, None]
    fwd, bwd = (_section(constituent, kind, len(constituent.outputs))
                for kind in ("forward", "backward"))
    (call,) = calls
    assert_directions(call, [[(fwd, fwd.weights(parity), sym[:, t]) for t in range(L)],
                             [(bwd, bwd.weights(parity), sym[:, -1 - t]) for t in range(L)]],
                      [u[:L], u[L:2 * L]])


def decode_inputs(spec, counts, S, rng):
    """Random pure inputs with `counts[t]` observations at section t, a
    symbol observation at most sections and an a priori list at some."""
    G, H = spec.symbol_group, spec.output_group
    T = len(counts)
    obs = [[EigenList(H, v) for v in rand_lists(H, rng, c)] for c in counts]
    sym = [EigenList(G, rand_lists(G, rng, 1)[0]) if t % 4 else None for t in range(T)]
    apr = [EigenList(G, rand_lists(G, rng, 1)[0]) if t % 3 == 1 else None for t in range(T)]
    return obs, sym, apr


def decode_references(spec, obs, sym, apr, S):
    """Each direction's steps of sampled `decode_block`, section by section:
    forward step k on section k, backward step k on section T - 1 - k."""
    build, T = _input_lists(spec), len(obs)
    tile = lambda lam: np.tile(lam.values[:, None], (1, S))       # noqa: E731
    parity = [build([tile(o) for o in ob], [], S)[0] for ob in obs]
    sides = [build([], [tile(m) for m in (s, a) if m is not None], S)[1]
             for s, a in zip(sym, apr)]

    def steps(kind, order):
        return [(k, k.weights(parity[t]), sides[t])
                for t in order for k in [_section(spec, kind, len(obs[t]))]]
    return [steps("forward", range(T)), steps("backward", reversed(range(T)))]


def decode_uniforms(seed, T, S):
    """The forward and backward sweep uniforms of sampled `decode_block` on
    pure inputs, which draw nothing before them: row k of the backward ones
    is for section T - 1 - k."""
    rng = np.random.default_rng(seed)
    return [rng.random((T, S)), rng.random((T, S))]


@pytest.mark.parametrize("floats", BUDGETS, ids=["default", "64", "1"])
@pytest.mark.parametrize("case", list(TRELLISES))
def test_decode_sweep_runs_both_one_way_recursions(monkeypatch, case, floats):
    """Sampled `decode_block`'s sweep, with one or more observations per
    section, gives each direction the bytes of its own recursion."""
    set_budgets(monkeypatch, floats)
    spec, S = TRELLISES[case], 7
    counts = [len(spec.outputs) - t % 2 for t in range(6)]
    obs, sym, apr = decode_inputs(spec, counts, S, np.random.default_rng(6))
    calls = record(monkeypatch, trellis)
    decode_block(spec, obs, mode="sampled", seed=2, symbol_obs_seq=sym, apriori_seq=apr,
                 samples=S)
    (call,) = calls
    assert_directions(call, decode_references(spec, obs, sym, apr, S),
                      decode_uniforms(2, len(obs), S))


@pytest.mark.parametrize("floats", BUDGETS, ids=["default", "64", "1"])
@pytest.mark.parametrize("samples", [1, 5])
def test_decode_sweep_with_mixed_observation_counts(monkeypatch, samples, floats):
    """Sections with 2, 1 or 0 observations pair forward and backward steps
    whose kernels differ in their number of terms; the shorter is padded with
    zero-weight terms, and each direction keeps its own bytes."""
    set_budgets(monkeypatch, floats)
    counts = [2, 1, 0, 2, 2, 0, 1, 2, 0]
    terms = {kind: {n: len(_section(TWO_OUTPUT, kind, n).src) for n in set(counts)}
             for kind in ("forward", "backward")}
    assert any(terms["forward"][a] != terms["backward"][b]
               for a, b in zip(counts, counts[::-1]))
    obs, sym, apr = decode_inputs(TWO_OUTPUT, counts, samples, np.random.default_rng(7))
    calls = record(monkeypatch, trellis)
    decode_block(TWO_OUTPUT, obs, mode="sampled", seed=4, symbol_obs_seq=sym, apriori_seq=apr,
                 samples=samples)
    (call,) = calls
    assert_directions(call, decode_references(TWO_OUTPUT, obs, sym, apr, samples),
                      decode_uniforms(4, len(obs), samples))


@pytest.mark.parametrize("samples", [1, 3])
def test_sampled_decode_block_of_no_sections_is_empty(samples):
    """A block of no sections decodes to no results, as in exact mode."""
    spec = TRELLISES["turbo-q3"]
    assert decode_block(spec, [], mode="sampled", seed=1, samples=samples) == []
