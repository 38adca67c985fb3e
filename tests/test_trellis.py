import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    ValidationError,
    avg_holevo,
    avg_pgm_error,
    equality_combine,
    hom_eval,
    identity_hom,
    merge_duplicates,
    perfect_list,
    pure,
    useless_list,
)
from abelianbp.factors import (_adjoin, _automorphism, _equality, _lift, _marginalize,
                               _product_apply)
from abelianbp.groups import permute_coordinates
from abelianbp.messages import GUARD_PRUNE, HeraldedMessage, as_message
from abelianbp.trellis import (
    TrellisSpec,
    _boundary,
    _messages,
    _step_rule,
    decode_block,
    next_state_hom,
    section_metrics,
    shift_register_trellis,
    symbol_projection,
    transfer_function_trellis,
    unroll_to_tree,
    validate_trellis,
)
from abelianbp.trees import run_mp
from message_rows import rows
from population_tracker import PopulationTracker

Z3 = GroupSpec((3,))


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    v *= G.order / v.sum()
    return EigenList(G, v)


def _equality_fold(msgs, G: GroupSpec) -> HeraldedMessage:
    return functools.reduce(lambda a, b: _product_apply([a, b], _equality(G)), msgs)


def branch_posterior(spec: TrellisSpec, fwd=None, bwd=None, obs=(),
                     symbol_obs=None, apriori=None) -> HeraldedMessage:
    """Combined message on the branch variable (fresh symbol, state): the
    rule-by-rule reference the section kernels are tested against.

    Equality-combines: the forward state message lifted by adjoining a uniform
    fresh symbol, the backward message lifted through the next-state map, each
    observation lifted along its output homomorphism, and the symbol-side
    messages (channel observation and incoming a priori) lifted along the
    symbol projection.  Each rule runs over the branch product of eigen lists
    or heralded messages.
    """
    if len(obs) > len(spec.outputs):
        raise ValidationError(
            f"{len(obs)} observations for {len(spec.outputs)} trellis outputs"
        )
    G, S = spec.symbol_group, spec.state_group
    parts = [_product_apply([m], _adjoin(S, G)) for m in _messages([fwd], S, True)]
    parts += [_product_apply([m], _lift(S, next_state_hom(spec)))
              for m in _messages([bwd], S, True)]
    parts += [_product_apply([m], _lift(spec.output_group, L))
              for m, L in zip(_messages(obs, spec.output_group), spec.outputs)]
    sym = _messages((symbol_obs, apriori), G, True)
    if sym:
        parts.append(_product_apply([_equality_fold(sym, G)], _lift(G, symbol_projection(spec))))
    if not parts:
        raise ValidationError("branch posterior needs at least one incoming message")
    return _equality_fold(parts, spec.branch_group)



def test_shift_register_validates():
    # rate-1 memory-2 feedforward: x = g + s2
    spec = shift_register_trellis(Z3, 2, [[1, 0, 1]])
    validate_trellis(spec)
    assert spec.branch_group.moduli == (3, 3, 3)
    assert spec.section_automorphism.matrix == identity_hom(spec.branch_group).matrix


def test_transfer_function_compiles_and_validates():
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    validate_trellis(spec)
    assert spec.memory == 2
    assert spec.outputs[0].matrix == ((1, 2, 0),)
    assert spec.section_automorphism.matrix == ((1, 2, 2), (0, 1, 0), (0, 0, 1))
    # encoder consistency: running the compiled section reproduces p/q filtering
    n, m = 3, 2
    u = [1, 2, 0, 1, 1, 2, 0, 0, 2]
    w_hist = [0, 0]
    xs = []
    for ut in u:
        wt = (ut - w_hist[0] - w_hist[1]) % n
        xs.append((wt + w_hist[1]) % n)          # p = 1 + D^2
        w_hist = [wt, w_hist[0]]
    # same parity through the compiled branch map with state (w_{t-1}, w_{t-2})
    w_hist2 = [0, 0]
    for ut, expect in zip(u, xs):
        branch = spec.branch_group.element((ut, w_hist2[0], w_hist2[1]))
        assert hom_eval(spec.outputs[0], branch).residues == (expect,)
        nxt = hom_eval(spec.section_automorphism, branch)
        w_hist2 = [nxt.residues[0], nxt.residues[1]]


def test_validate_rejects_constant_output():
    bg = GroupSpec((3, 3))
    with pytest.raises(ValidationError, match="surjective"):
        TrellisSpec(Z3, 1, Z3, (HomSpec(bg, Z3, ((0, 0),)),), identity_hom(bg))


def test_sampled_decode_block_rejects_a_prune_threshold():
    """Sampled decoding never prunes, and ignored a threshold; it is an error."""
    spec, lam = shift_register_trellis(Z3, 1, [[1, 1]]), EigenList(Z3, [2.3, 0.35, 0.35])
    with pytest.raises(ValidationError, match="prune threshold 0.1"):
        decode_block(spec, [[lam]] * 3, mode="sampled", seed=1, prune_eps=0.1)


def test_branch_posterior_perfect_obs():
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    fwd = _boundary(spec)
    bwd = pure(perfect_list(spec.state_group))
    branch = branch_posterior(spec, fwd=fwd, bwd=bwd, obs=[perfect_list(Z3)])
    assert avg_pgm_error(branch) == pytest.approx(0.0, abs=1e-12)
    for b in rows(branch):
        assert np.allclose(b.lam, 1.0)


def test_branch_posterior_useless_obs():
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    fwd = _boundary(spec)
    branch = branch_posterior(spec, fwd=fwd, obs=[useless_list(Z3)])
    sym = _product_apply([branch], _marginalize(branch.group, 1))
    assert avg_pgm_error(sym) == pytest.approx(1 - 1 / 3, abs=1e-12)


def test_degenerate_single_section_is_repetition():
    # T=1, m=0: equality of the observation lifts = repetition combine
    rng = np.random.default_rng(0)
    spec = shift_register_trellis(Z3, 0, [[1], [1]])
    a, b = rand_lam(Z3, rng), rand_lam(Z3, rng)
    sym = rand_lam(Z3, rng)
    res = decode_block(spec, [[a, b]], symbol_obs_seq=[sym])[0]
    manual = equality_combine(equality_combine(a, b), sym)
    assert len(res.posterior) == 1
    assert np.max(np.abs(res.posterior.lams[0] - manual.values)) < 1e-9


def test_forward_step_matches_manual_composition():
    rng = np.random.default_rng(1)
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    lam_ch = rand_lam(Z3, rng)
    fwd = _boundary(spec)
    out = _product_apply([fwd, pure(lam_ch)], _step_rule(spec, "forward", 1))
    # manual: adjoin, lift obs, combine, (identity section map), marginalize
    lifted_obs = _product_apply([pure(lam_ch)], _lift(Z3, spec.outputs[0]))
    prior = _product_apply([fwd], _adjoin(spec.state_group, Z3))
    combined = _product_apply([prior, lifted_obs], _equality(spec.branch_group))
    manual = _product_apply([combined], _marginalize(spec.branch_group, 1))
    got = merge_duplicates(out)
    want = merge_duplicates(manual)
    assert len(got) == len(want)
    for b1, b2 in zip(rows(got), rows(want)):
        assert b1.prob == pytest.approx(b2.prob, abs=1e-12)
        assert np.max(np.abs(b1.lam - b2.lam)) < 1e-12


def _step(spec, kind, msgs, n_obs):
    """A section step over the branch product of eigen lists or messages."""
    msgs = [as_message(m) for m in msgs]
    return _product_apply(msgs, _step_rule(spec, kind, n_obs))


def _marginalized(msg, keep, phi=None):
    """`msg` relabelled by `phi` (if given), then marginalized to its first
    `keep` coordinates: one product step each."""
    if phi is not None:
        msg = _product_apply([msg], _automorphism(msg.group, phi))
    return _product_apply([msg], _marginalize(msg.group, keep))


def _mixture(G, rng):
    return HeraldedMessage.of(G, [0.3, 0.7], [rand_lam(G, rng).values, rand_lam(G, rng).values],
                              [("a",), ("b",)])


def _section_cases():
    Z2, Z4, V = GroupSpec((2,)), GroupSpec((4,)), GroupSpec((2, 2))
    bv = GroupSpec((2, 2, 2, 2))
    v4 = TrellisSpec(V, 1, Z2, (HomSpec(bv, Z2, ((1, 0, 1, 1),)),
                                HomSpec(bv, Z2, ((0, 1, 1, 0),))),
                     HomSpec(bv, bv, ((1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
                     boundary="unknown")
    turbo = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    return {
        "turbo": (turbo, False),
        "two-output": (shift_register_trellis(Z3, 2, [[1, 1, 0], [1, 0, 2]]), False),
        "output-group": (shift_register_trellis(Z4, 1, [[1, 1]], output_group=Z2), False),
        "z2xz2": (v4, False),
        "mixture-obs": (turbo, True),
    }


@pytest.mark.parametrize("case", list(_section_cases()))
def test_section_kernels_match_step_by_step_composition(case):
    """The composite forward, backward and extrinsic rules give the ensembles
    of the rule-by-rule reference: `branch_posterior`, the section map (or
    the rotation of the fresh symbol to the back) and marginalization."""
    spec, mixed = _section_cases()[case]
    rng = np.random.default_rng(8)
    G, S, H = spec.symbol_group, spec.state_group, spec.output_group
    obs = [rand_lam(H, rng) for _ in spec.outputs]
    if mixed:
        obs[0] = _mixture(H, rng)
    fwd, bwd = _mixture(S, rng), pure(rand_lam(S, rng))
    sym, apr = rand_lam(G, rng), rand_lam(G, rng)
    k, m = G.rank, spec.state_group.rank
    rotation = permute_coordinates(spec.branch_group, tuple(range(k, k + m)) + tuple(range(k)))

    want = _marginalized(
        branch_posterior(spec, fwd=fwd, obs=obs, symbol_obs=sym, apriori=apr), m,
        spec.section_automorphism)
    _ensembles_close(_step(spec, "forward", [fwd, *obs, sym, apr], len(obs)), want)
    want = _marginalized(branch_posterior(spec, bwd=bwd, obs=obs, symbol_obs=sym), m, rotation)
    _ensembles_close(_step(spec, "backward", [bwd, *obs, sym], len(obs)), want)
    want = _marginalized(branch_posterior(spec, fwd=fwd, bwd=bwd, obs=obs), k)
    _ensembles_close(_step(spec, "extrinsic", [fwd, bwd, *obs], len(obs)), want)


def test_perfect_and_useless_chains():
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    T = 3
    perfect_obs = [[perfect_list(Z3)] for _ in range(T)]
    res = decode_block(spec, perfect_obs, symbol_obs_seq=[perfect_list(Z3)] * T)
    for r in res:
        assert avg_pgm_error(r.posterior) == pytest.approx(0.0, abs=1e-10)
    useless_obs = [[useless_list(Z3)] for _ in range(T)]
    res2 = decode_block(spec, useless_obs, symbol_obs_seq=[useless_list(Z3)] * T)
    for r in res2:
        assert avg_pgm_error(r.posterior) == pytest.approx(1 - 1 / 3, abs=1e-10)


def _ensemble_key(msg):
    merged = merge_duplicates(msg, 1e-9)
    return sorted(
        (tuple(np.round(b.lam, 9)), round(b.prob, 10)) for b in rows(merged)
    )


def _ensembles_close(m1, m2, tol=1e-9):
    k1, k2 = _ensemble_key(m1), _ensemble_key(m2)
    assert len(k1) == len(k2)
    for (v1, p1), (v2, p2) in zip(k1, k2):
        assert abs(p1 - p2) <= tol
        assert np.max(np.abs(np.array(v1) - np.array(v2))) <= tol


@pytest.mark.parametrize("boundary", ["known", "unknown"])
def test_trellis_tree_equivalence(boundary):
    # both ends of the unrolled tree carry the boundary message decode_block starts from
    rng = np.random.default_rng(2)
    for spec in [shift_register_trellis(Z3, 1, [[1, 1]]),
                 transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)]:
        spec = replace(spec, boundary=boundary)
        T = 3
        obs = [[rand_lam(Z3, rng)] for _ in range(T)]
        sys = [rand_lam(Z3, rng) for _ in range(T)]
        results = decode_block(spec, obs, symbol_obs_seq=sys)
        for t in range(T):
            tree = unroll_to_tree(spec, obs, t, symbol_obs_seq=sys)
            root = run_mp(tree)
            _ensembles_close(results[t].posterior, root)


def test_trellis_tree_equivalence_z2():
    rng = np.random.default_rng(3)
    Z2 = GroupSpec((2,))
    spec = shift_register_trellis(Z2, 1, [[1, 1]])
    obs = [[rand_lam(Z2, rng)] for _ in range(2)]
    results = decode_block(spec, obs)
    for t in range(2):
        tree = unroll_to_tree(spec, obs, t)
        _ensembles_close(results[t].posterior, run_mp(tree))
    for t in (2, -1):       # a root outside the block would name an undeclared variable
        with pytest.raises(ValidationError, match=f"root_t {t} outside the 2 sections"):
            unroll_to_tree(spec, obs, t)


def test_trellis_tree_equivalence_with_apriori():
    # turbo-style sections: systematic and a priori leaves on each symbol
    rng = np.random.default_rng(7)
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    T = 2
    obs = [[rand_lam(Z3, rng)] for _ in range(T)]
    sysv = [rand_lam(Z3, rng) for _ in range(T)]
    apr = [rand_lam(Z3, rng) for _ in range(T)]
    results = decode_block(spec, obs, symbol_obs_seq=sysv, apriori_seq=apr)
    for t in range(T):
        tree = unroll_to_tree(spec, obs, t, symbol_obs_seq=sysv, apriori_seq=apr)
        _ensembles_close(results[t].posterior, run_mp(tree))


def test_observation_degradation_monotone():
    rng = np.random.default_rng(4)
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    T = 3
    obs = [[rand_lam(Z3, rng)] for _ in range(T)]
    base = decode_block(spec, obs)
    for t_sub in range(T):
        degraded = [list(o) for o in obs]
        degraded[t_sub] = [useless_list(Z3)]
        worse = decode_block(spec, degraded)
        for r_base, r_worse in zip(base, worse):
            assert avg_holevo(r_worse.posterior) <= avg_holevo(r_base.posterior) + 1e-9


def test_decode_block_sampled_deterministic():
    rng = np.random.default_rng(5)
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    obs = [[rand_lam(Z3, rng)] for _ in range(3)]
    r1 = decode_block(spec, obs, mode="sampled", seed=11)
    r2 = decode_block(spec, obs, mode="sampled", seed=11)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.posterior.lams[0], b.posterior.lams[0])


def test_decode_block_sampled_converges_to_exact():
    rng = np.random.default_rng(6)
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    obs = [[rand_lam(Z3, rng)] for _ in range(2)]
    exact = decode_block(spec, obs)
    t_mid = 1
    target = avg_pgm_error(exact[t_mid].posterior)
    n = 1500
    vals = np.empty(n)
    for i in range(n):
        res = decode_block(spec, obs, mode="sampled", seed=1000 + i)
        vals[i] = avg_pgm_error(res[t_mid].posterior)
    mc = vals.std() / np.sqrt(n)
    assert abs(vals.mean() - target) < 4 * max(mc, 1e-6)


def test_section_metrics_shape():
    spec = shift_register_trellis(Z3, 1, [[1, 1]])
    obs = [[perfect_list(Z3)]] * 2
    rows = section_metrics(decode_block(spec, obs))
    assert [r["t"] for r in rows] == [0, 1]
    assert all(0 <= r["posterior_pgm_error"] <= 1 for r in rows)


def test_next_state_hom_consistency():
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    ns = next_state_hom(spec)
    for g in spec.branch_group.elements():
        full = hom_eval(spec.section_automorphism, g)
        assert hom_eval(ns, g).residues == full.residues[:2]


def test_decode_block_guard_reports_dropped_mass(monkeypatch):
    # a near-perfect channel leaves branches lighter than the guard's prune
    # threshold; past the (shrunken) cap they are dropped, and the warning
    # says how much probability went with them
    monkeypatch.setattr("abelianbp.messages.BRANCH_CAP", 2)
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    lam = EigenList(Z3, [3 - 1e-6, 5e-7, 5e-7])
    with pytest.warns(RuntimeWarning, match="exceeds cap 2") as record:
        results = decode_block(spec, [[lam]] * 4, symbol_obs_seq=[lam] * 4)
    dropped = []
    for w in record:
        count, mass = re.search(r"branch count (\d+) .* mass (\S+)$", str(w.message)).groups()
        assert 0 <= float(mass) <= int(count) * GUARD_PRUNE
        assert (w.message.count, f"{w.message.dropped:.6g}") == (int(count), mass)
        dropped.append(float(mass))
    assert max(dropped) > 0
    for r in results:
        for msg in (r.posterior, r.extrinsic):
            assert sum(msg.probs.tolist()) == pytest.approx(1.0, abs=1e-12)


def row_metrics(msg):
    """Per-row Holevo information and PGM error of a population message."""
    n = msg.group.order
    mu = msg.lams / n
    holevo = -(mu * np.log2(mu, out=np.zeros_like(mu), where=mu > 0)).sum(axis=1)
    return holevo, 1.0 - (np.sqrt(msg.lams).sum(axis=1) / n) ** 2


def _constituent_block(T=5, seed=12):
    """Turbo constituent inputs: random parity and systematic lists, a
    two-branch mixture observation at section 2, a priori lists at odd t."""
    rng = np.random.default_rng(seed)
    obs = [[rand_lam(Z3, rng)] for _ in range(T)]
    obs[2] = [HeraldedMessage.of(Z3, [0.35, 0.65], [rand_lam(Z3, rng).values,
                                                    rand_lam(Z3, rng).values],
                                 [("obs:a",), ("obs:b",)])]
    sym = [rand_lam(Z3, rng) for _ in range(T)]
    apr = [rand_lam(Z3, rng) if t % 2 else None for t in range(T)]
    return transfer_function_trellis([1, 0, 1], [1, 1, 1], 3), obs, sym, apr


def test_decode_block_population_matches_exact():
    spec, obs, sym, apr = _constituent_block()
    exact = decode_block(spec, obs, symbol_obs_seq=sym, apriori_seq=apr)
    S = 4000
    sampled = decode_block(spec, obs, mode="sampled", seed=5, symbol_obs_seq=sym,
                           apriori_seq=apr, samples=S)
    for r, e in zip(sampled, exact):
        for msg, want in ((r.posterior, e.posterior), (r.extrinsic, e.extrinsic)):
            assert len(msg) == S and np.all(msg.probs == 1.0 / S)
            for rows, target in zip(row_metrics(msg), (avg_holevo(want), avg_pgm_error(want))):
                se = rows.std() / np.sqrt(S)
                assert abs(rows.mean() - target) < 5 * max(se, 1e-9)
            assert avg_pgm_error(msg) == pytest.approx(row_metrics(msg)[1].mean(), abs=1e-12)


@pytest.mark.parametrize("name", ["symbol_obs_seq", "apriori_seq"])
@pytest.mark.parametrize("length", [4, 7])
def test_side_sequences_need_one_entry_per_section(name, length):
    """A symbol-observation or a priori sequence shorter or longer than the
    observations is an error, in both decoding modes and in the unrolled tree."""
    spec, obs, sym, apr = _constituent_block(T=5)
    sides = {"symbol_obs_seq": sym, "apriori_seq": apr}
    sides[name] = (sides[name] * 2)[:length]
    message = f"{name} has {length} entries for 5 sections"
    for mode in ("exact", "sampled"):
        with pytest.raises(ValidationError, match=message):
            decode_block(spec, obs, mode=mode, seed=1, **sides)
    with pytest.raises(ValidationError, match=message):
        unroll_to_tree(spec, obs, 2, **sides)


def test_decode_block_population_bytes_fixed(monkeypatch):
    # one seed gives one result, whatever the row blocking of the kernels and
    # the section blocking of the sweeps, extrinsics and posteriors
    import abelianbp.factors as factors
    import abelianbp.trellis as trellis

    spec, obs, sym, apr = _constituent_block(T=4)

    def run():
        res = decode_block(spec, obs, mode="sampled", seed=8, symbol_obs_seq=sym,
                           apriori_seq=apr, samples=60)
        return [(m.lams.tobytes(), m.labels) for r in res for m in (r.posterior, r.extrinsic)]

    first = run()
    assert run() == first
    for floats in (1, 27 * 9 * 7):
        monkeypatch.setattr(factors, "ROW_FLOATS", floats)
        assert run() == first
    for floats in (1, 27 * 60 * 2):          # one and two sections per block
        monkeypatch.setattr(trellis, "CACHE_FLOATS", floats)
        assert run() == first


def _tracker_decode(spec, obs_seq, seed, symbol_obs_seq=None, apriori_seq=None, samples=1):
    """Sampled `decode_block` as a loop of tracker steps: each step one
    `_step_rule` call through `PopulationTracker("sampled")`, which draws the
    step's uniforms when it runs.  Returns (posterior, extrinsic) per section."""
    apply = PopulationTracker("sampled", seed, 0.0, samples)
    T, n_obs = len(obs_seq), [len(obs) for obs in obs_seq]
    rule = {(kind, n): _step_rule(spec, kind, n) for n in set(n_obs)
            for kind in ("forward", "backward", "extrinsic")}
    inputs = [[apply.entry(m) for m in (*_messages(obs, spec.output_group),
                                        *_messages(side, spec.symbol_group, True))]
              for obs, side in zip(obs_seq, zip(symbol_obs_seq or [None] * T,
                                                apriori_seq or [None] * T))]
    start = apply.entry(_boundary(spec))
    fwd, bwd = [start], [start]
    for t in range(T):
        r = rule["forward", n_obs[t]]
        r = r._replace(herald=(f"fwd[t={t}]:marg", *r.herald[1:]))
        fwd.append(apply.step(r, [fwd[t], *inputs[t]]))
    for t in range(T - 1, -1, -1):
        r = rule["backward", n_obs[t]]
        r = r._replace(herald=(f"bwd[t={t}]:marg", *r.herald[1:]))
        bwd.append(apply.step(r, [bwd[-1], *inputs[t]]))
    bwd.reverse()
    results = []
    for t, n in enumerate(n_obs):
        ext = apply.step(rule["extrinsic", n], [fwd[t], bwd[t + 1], *inputs[t][:n]])
        post = ext
        for m in inputs[t][n:]:
            post = apply.step(_equality(spec.symbol_group), [post, m])
        results.append((post, ext))
    return results


def _identity_cases():
    rng = np.random.default_rng(21)
    spec, obs, sym, apr = _constituent_block(T=6)
    two = shift_register_trellis(Z3, 2, [[1, 1, 0], [1, 0, 2]])
    counts = [2, 1, 0, 2, 0, 1, 2]
    v4, q5 = _section_cases()["z2xz2"][0], transfer_function_trellis([1, 0, 1], [1, 1, 1], 5)
    V, Z5 = v4.symbol_group, GroupSpec((5,))
    return {
        "constituent": (spec, obs, sym, apr),
        "no-symbol-side": (spec, obs, None, None),
        "unknown-boundary": (replace(spec, boundary="unknown"), obs, sym, apr),
        "two-output-varying-obs": (two, [[rand_lam(Z3, rng) for _ in range(c)] for c in counts],
                                   [rand_lam(Z3, rng) if t % 3 else None for t in range(7)],
                                   None),
        "z2xz2": (v4, [[rand_lam(GroupSpec((2,)), rng) for _ in range(2)] for _ in range(5)],
                  [rand_lam(V, rng) for _ in range(5)], [None, rand_lam(V, rng), None, None,
                                                         rand_lam(V, rng)]),
        "q5": (q5, [[rand_lam(Z5, rng)] for _ in range(6)], [rand_lam(Z5, rng) for _ in range(6)],
               [rand_lam(Z5, rng) if t % 2 else None for t in range(6)]),
    }


@pytest.mark.parametrize("samples", [1, 60])
@pytest.mark.parametrize("case", list(_identity_cases()))
def test_sampled_decode_block_matches_tracker_loop_bytes(case, samples):
    """The bare sweeps and batched passes give the bytes of the tracker loop:
    lists, probabilities and labels of every posterior and extrinsic."""
    spec, obs, sym, apr = _identity_cases()[case]
    want = _tracker_decode(spec, obs, 3, symbol_obs_seq=sym, apriori_seq=apr, samples=samples)
    got = decode_block(spec, obs, mode="sampled", seed=3, symbol_obs_seq=sym, apriori_seq=apr,
                       samples=samples)
    assert len(got) == len(want)
    for r, msgs in zip(got, want):
        for msg, ref in zip((r.posterior, r.extrinsic), msgs):
            assert msg.lams.tobytes() == ref.lams.tobytes()
            assert msg.probs.tobytes() == ref.probs.tobytes()
            assert msg.labels == ref.labels


def test_decode_block_one_trajectory_labels():
    # samples=1 keeps today's shape: one branch per message, whose labels are
    # the heralds the trajectory drew, in the exact-mode format
    spec, obs, sym, apr = _constituent_block(T=4)
    T = len(obs)
    exact = decode_block(spec, obs, symbol_obs_seq=sym, apriori_seq=apr)
    for seed in range(5):
        sampled = decode_block(spec, obs, mode="sampled", seed=seed, symbol_obs_seq=sym,
                               apriori_seq=apr)
        for t, (r, e) in enumerate(zip(sampled, exact)):
            assert len(r.posterior) == len(r.extrinsic) == 1
            labels = r.posterior.labels[0]
            assert labels == r.extrinsic.labels[0]
            assert set(labels) <= set(sum(e.posterior.labels, ()))
            assert sum(lab.startswith("fwd[") for lab in labels) == t
            assert sum(lab.startswith("bwd[") for lab in labels) == T - 1 - t
            assert sum(lab.startswith("marg:") for lab in labels) == 1
            assert sum(lab.startswith("obs:") for lab in labels) == 1


def test_decode_block_keeps_caller_labels_that_begin_with_marg():
    # state steps name their own heralds; a caller's labels pass through as given
    spec, obs, sym, apr = _constituent_block(T=4)
    mix = obs[2][0]
    obs[2] = [HeraldedMessage.of(Z3, mix.probs, mix.lams,
                                 [("marg:" + labs[0],) for labs in mix.labels])]
    for mode, mine in (("exact", 2), ("sampled", 1)):
        res = decode_block(spec, obs, mode=mode, seed=1, symbol_obs_seq=sym, apriori_seq=apr)
        labels = {lab for r in res for labs in r.posterior.labels for lab in labs}
        assert len(labels & {"marg:obs:a", "marg:obs:b"}) >= mine
        steps = {lab for lab in labels if lab.startswith(("fwd[", "bwd["))}
        assert steps and all(re.fullmatch(r"(fwd|bwd)\[t=\d\]:marg:\(\d\)", lab)
                             for lab in steps), steps


def test_decode_block_rejects_bad_sample_counts():
    spec, obs, sym, apr = _constituent_block(T=3)
    for mode in ("exact", "sampled"):
        for samples in (0, -2):
            with pytest.raises(ValidationError, match="samples"):
                decode_block(spec, obs, mode=mode, seed=1, samples=samples)
