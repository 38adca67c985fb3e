import math

import numpy as np
import pytest

from abelianbp import GroupSpec, NumericalError, ValidationError, holevo_info, pgm_error
from abelianbp import de
from abelianbp.characters import dual_map_table, tables_for
from abelianbp.de import (
    DEConfig,
    TurboSpec,
    channel_family,
    de_iteration,
    de_run,
    heatmap,
    holevo_threshold,
    standard_turbo,
    threshold_bisect,
)
from abelianbp.eigenlists import EigenList, pgm_error_of, useless_list
from abelianbp.factors import equality_combine, equality_fold, lift_along_hom
from abelianbp.trellis import (
    _section,
    next_state_hom,
    shift_register_trellis,
    state_projection,
    symbol_projection,
)

Z3 = GroupSpec((3,))

FAST = DEConfig(population=300, max_iterations=30, window=21, master_seed=5)


def fold_uses(lam, uses, G):
    """`uses` channel observations, equality-combined (useless if none): the
    reference for DE's folds, written with the factor rules."""
    return equality_fold([lam] * uses) if uses else useless_list(G)


def test_channel_family_extremes():
    assert np.allclose(channel_family(3, 3.0).values, [3, 0, 0])
    assert np.allclose(channel_family(3, 1.0).values, [1, 1, 1])
    lam = channel_family(3, 2.7287)
    assert lam.values[0] == pytest.approx(2.7287)
    assert lam.values[1] == pytest.approx(0.13565)
    with pytest.raises(ValidationError):
        channel_family(3, 0.5)
    with pytest.raises(ValidationError):
        channel_family(3, 3.2)


def test_holevo_threshold_values():
    assert holevo_threshold(3, "1/3") == pytest.approx(2.7287, abs=1e-3)
    lam = channel_family(3, holevo_threshold(3, "1/3"))
    assert holevo_info(lam) == pytest.approx(math.log2(3) / 3, abs=1e-6)
    # limits (the crossing approaches the endpoints as the rate does)
    assert holevo_threshold(3, 1 - 1e-6) == pytest.approx(1.0, abs=5e-3)
    assert holevo_threshold(3, 1e-4) == pytest.approx(3.0, abs=0.05)
    assert (holevo_threshold(3, 0.9) < holevo_threshold(3, 0.5)
            < holevo_threshold(3, 0.1))
    with pytest.raises(ValidationError):
        holevo_threshold(3, 1.5)


def test_de_rejects_a_channel_off_the_symbol_or_output_group():
    """One channel observes the symbols and the parity streams, so its list must
    live on the symbol group, and a turbo spec whose parity outputs leave the
    symbol group is rejected when it is built, naming the constituent."""
    c = shift_register_trellis(GroupSpec((4,)), 1, [[1, 0]], GroupSpec((2,)))
    with pytest.raises(ValidationError, match="constituent 0: parity outputs"):
        TurboSpec((c, c))
    with pytest.raises(ValidationError, match="not on the symbol group"):
        de_run(standard_turbo(3), DEConfig(population=10, max_iterations=1), channel_family(5, 1.5))


def test_turbo_spec_rate_bookkeeping():
    spec = standard_turbo(3)
    assert spec.rate == pytest.approx(1 / 3)
    spec4 = standard_turbo(3, systematic_mult=2)
    assert spec4.rate == pytest.approx(1 / 4)
    with pytest.raises(ValidationError):
        TurboSpec((spec.constituents[0], shift_register_trellis(GroupSpec((2,)), 1, [[1, 1]])))


@pytest.mark.parametrize("fields, message", [
    ({"systematic_mult": -1}, "stream multiplicities must be nonnegative"),
    ({"parity_mults": (1, -1)}, "stream multiplicities must be nonnegative"),
    ({"systematic_mult": 0, "parity_mults": (0, 0)}, "turbo spec carries no informative stream"),
], ids=["negative-systematic", "negative-parity", "no-stream"])
def test_turbo_spec_rejects_stream_multiplicities(fields, message):
    with pytest.raises(ValidationError, match=message):
        TurboSpec(standard_turbo(3).constituents, **fields)


@pytest.mark.parametrize("n_constituents, parity_mults", [(1, (1, 1)), (3, (1, 1)), (2, (1,))])
def test_turbo_spec_needs_two_constituents_and_two_parity_mults(n_constituents, parity_mults):
    spec = standard_turbo(3).constituents[0]
    with pytest.raises(ValidationError, match="two constituents and two parity_mults"):
        TurboSpec((spec,) * n_constituents, parity_mults=parity_mults)


def test_de_perfect_channel_converges_immediately():
    spec = standard_turbo(3)
    res = de_run(spec, FAST, 1.0)
    assert res.converged and res.iterations <= 2
    assert res.trajectory[-1] < 1e-3


def test_de_useless_channel_pinned():
    spec = standard_turbo(3)
    res = de_run(spec, FAST, 3.0)
    assert not res.converged
    assert res.trajectory[0] == pytest.approx(1 - 1 / 3, abs=1e-9)
    assert res.trajectory[-1] == pytest.approx(1 - 1 / 3, abs=1e-9)


def test_de_below_threshold_converges():
    spec = standard_turbo(3)
    res = de_run(spec, FAST, 2.5)
    assert res.converged
    # trajectory decreasing on the way down
    assert res.trajectory[0] > res.trajectory[-1]


def test_de_trajectory_monotone_below_threshold():
    spec = standard_turbo(3)
    res = de_run(spec, DEConfig(population=1000, max_iterations=12, window=41,
                                err_threshold=1e-9, master_seed=3), 2.4)
    traj = res.trajectory[:10]
    med = np.median(np.diff(traj))
    assert med < 0


def test_de_iteration_population_update():
    spec = standard_turbo(3)
    lam = channel_family(3, 2.0)
    pop = np.tile(useless_list(Z3).values, (100, 1))
    rng = np.random.default_rng(0)
    new_pop, err = de_iteration(spec, pop, lam, rng, window=11)
    assert new_pop.shape == (100, 3)
    assert np.all(new_pop >= -1e-9)
    assert np.allclose(new_pop.sum(axis=1), 3.0, atol=1e-6)
    assert 0 <= err <= 1
    with pytest.raises(ValidationError):
        de_iteration(spec, np.empty((0, 3)), lam, rng)


def test_de_run_deterministic():
    spec = standard_turbo(3)
    r1 = de_run(spec, FAST, 2.6)
    r2 = de_run(spec, FAST, 2.6)
    assert r1.trajectory == r2.trajectory


def test_toy_repetition_threshold():
    # no trellis (m=0, no parity), systematic sent three times: DE succeeds
    # exactly when the three-fold equality combine beats the error target
    const = shift_register_trellis(Z3, 0, [])
    spec = TurboSpec((const, const), systematic_mult=3, parity_mults=(0, 0))
    cfg = DEConfig(population=200, max_iterations=8, window=5, master_seed=2)

    def analytic(lam0):
        lam = channel_family(3, lam0)
        return pgm_error(equality_fold([lam, lam, lam]))

    # analytic crossing of the 1e-3 error target
    lo, hi = 1.0, 3.0
    for _ in range(40):
        mid = (lo + hi) / 2
        if analytic(mid) < cfg.err_threshold:
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2
    res = threshold_bisect(spec, cfg, resolution=0.02, trials=1)
    assert abs(res["lambda_de"] - crossing) <= 0.03


def test_threshold_bisect_fast_spec():
    # reduced population/window is slightly pessimistic but must stay close
    spec = standard_turbo(3)
    res = threshold_bisect(spec, FAST, resolution=0.05, trials=1)
    assert 2.45 <= res["lambda_de"] <= 2.75
    assert res["lambda_de"] <= holevo_threshold(3, "1/3") + 0.05
    assert all(p["trials"] == 1 for p in res["probes"])


def test_success_monotone_over_coarse_grid():
    spec = standard_turbo(3)
    outcomes = []
    for lam0 in (1.0, 1.5, 2.0, 2.5, 3.0):
        res = de_run(spec, FAST, lam0)
        outcomes.append(res.converged)
    assert outcomes == sorted(outcomes, reverse=True)


def test_heatmap_corners_and_rows():
    spec = standard_turbo(3)
    cfg = DEConfig(population=150, max_iterations=10, window=11, master_seed=4)
    rows = heatmap(spec, cfg, resolution=1.5, trials=1)
    d = {(r["lambda0"], r["lambda1"]): r for r in rows}
    assert d[(3.0, 0.0)]["success_freq"] == 0.0
    assert d[(0.0, 1.5)]["lambda2"] == pytest.approx(1.5)
    for r in rows:
        assert r["lambda0"] + r["lambda1"] + r["lambda2"] == pytest.approx(3.0)


def test_heatmap_ray_restriction():
    spec = standard_turbo(3)
    cfg = DEConfig(population=150, max_iterations=12, window=11, master_seed=4)
    rows = heatmap(spec, cfg, resolution=0.5, ray_only=True,
                   lambda0_range=(1.0, 3.0), trials=1)
    assert all(r["lambda1"] == pytest.approx(r["lambda2"], abs=1e-12) for r in rows)
    assert rows[0]["lambda0"] == pytest.approx(1.0)
    freqs = [r["success_freq"] for r in rows]
    assert freqs[0] == 1.0 and freqs[-1] == 0.0


def test_window_engine_matches_exact_trellis_path(monkeypatch):
    """The batched sampled engine draws from the exact extrinsic mixture.

    With a population holding only the no-information list, every a priori
    draw is deterministic, so with one tracked section per block the engine's
    center extrinsics are i.i.d. samples of the mixture the exact trellis
    path computes on the same 3-section window (unknown boundaries).
    """
    from dataclasses import replace

    from abelianbp import avg_pgm_error
    from abelianbp.trellis import decode_block

    monkeypatch.setattr(de, "_block_sections", lambda n: 1)
    spec = standard_turbo(3)
    trellis = replace(spec.constituents[0], boundary="unknown")
    lam_ch = channel_family(3, 2.2)
    n = 4000
    pop = np.tile(useless_list(Z3).values, (n, 1))
    rng = np.random.default_rng(9)
    ext, err = de_iteration(spec, pop, lam_ch, rng, window=3)

    obs = [[lam_ch]] * 3
    res = decode_block(trellis, obs, symbol_obs_seq=[lam_ch] * 3)
    exact_ext = avg_pgm_error(res[1].extrinsic)
    exact_post = avg_pgm_error(res[1].posterior)

    ext_errs = np.array([pgm_error_of(row) for row in ext])
    emp_ext = float(ext_errs.mean())
    mc = ext_errs.std() / np.sqrt(n)
    assert abs(emp_ext - exact_ext) < 4 * max(mc, 1e-6)
    assert abs(err - exact_post) < 4 * max(mc, 1e-6)


def test_shared_sweep_matches_exact_trellis_block(monkeypatch):
    """Three tracked sections per block: each block is a 5-section sampled
    trellis run (unknown boundaries) whose sections 1-3 are kept, so the mean
    extrinsic and posterior errors match the exact decode's mean over those
    sections.  Samples of one block are correlated; sigma comes from block
    means."""
    from dataclasses import replace

    from abelianbp import avg_pgm_error
    from abelianbp.trellis import decode_block

    monkeypatch.setattr(de, "_block_sections", lambda n: 3)
    spec = standard_turbo(3)
    trellis = replace(spec.constituents[0], boundary="unknown")
    lam_ch = channel_family(3, 2.2)
    n = 3999
    pop = np.tile(useless_list(Z3).values, (n, 1))
    ext, err = de_iteration(spec, pop, lam_ch, np.random.default_rng(9), window=3)

    res = decode_block(trellis, [[lam_ch]] * 5, symbol_obs_seq=[lam_ch] * 5)
    exact_ext = np.mean([avg_pgm_error(r.extrinsic) for r in res[1:4]])
    exact_post = np.mean([avg_pgm_error(r.posterior) for r in res[1:4]])

    post_errs = np.array([
        pgm_error(equality_combine(equality_combine(EigenList(Z3, e), lam_ch), EigenList(Z3, a)))
        for e, a in zip(ext, pop)])
    ext_errs = np.array([pgm_error_of(row) for row in ext])
    assert float(post_errs.mean()) == pytest.approx(err, abs=1e-12)
    for errs, exact in ((ext_errs, exact_ext), (post_errs, exact_post)):
        blocks = errs.reshape(3, -1).mean(axis=0)        # column s * m + block
        mc = blocks.std() / np.sqrt(blocks.size)
        assert abs(errs.mean() - exact) < 4 * max(mc, 1e-6)


@pytest.mark.parametrize("block", [64, 1])
def test_de_iteration_bytes_independent_of_block_size(monkeypatch, block):
    """Extrinsic column blocks of any width, down to one column, give the
    same bytes."""
    spec = standard_turbo(3)
    lam = channel_family(3, 2.5)
    pop = np.random.default_rng(1).random((300, 3))
    pop *= 3 / pop.sum(axis=1, keepdims=True)

    def run():
        return de_iteration(spec, pop, lam, np.random.default_rng(2), window=11,
                            constituent=1)

    ext, err = run()
    monkeypatch.setattr(de, "CACHE_FLOATS", block)
    ext_b, err_b = run()
    assert ext.tobytes() == ext_b.tobytes() and err == err_b


def test_default_config_ladder_boundary():
    """The default configuration converges at 2.59 and fails at 2.69, the
    ends of criterion 10's crossing window, for ten seeds."""
    spec, cfg = standard_turbo(3), DEConfig()
    for seed in range(10):
        assert de_run(spec, cfg, 2.59, seed=seed).converged
        assert not de_run(spec, cfg, 2.69, seed=seed).converged


@pytest.mark.parametrize("driver, kwargs", [
    (threshold_bisect, {"trials": 0}),
    (threshold_bisect, {"resolution": 0.0}),
    (threshold_bisect, {"resolution": -0.1}),
    (threshold_bisect, {"resolution": math.nan}),
    (threshold_bisect, {"resolution": math.inf}),
    (heatmap, {"trials": 0}),
    (heatmap, {"resolution": 0.0}),
    (heatmap, {"resolution": -0.5}),
    (heatmap, {"resolution": math.nan}),
], ids=["bisect-trials-0", "bisect-res-0", "bisect-res-neg", "bisect-res-nan",
        "bisect-res-inf", "heatmap-trials-0", "heatmap-res-0", "heatmap-res-neg",
        "heatmap-res-nan"])
def test_drivers_reject_impossible_grids(monkeypatch, driver, kwargs):
    """Checked before any DE run: zero trials made a bisection with no wins
    and a heatmap dividing by zero, a zero resolution a bisection without end
    and a negative one an empty heatmap."""
    def no_run(*args, **kwargs):
        raise AssertionError("a DE run started")

    monkeypatch.setattr(de, "de_run", no_run)
    with pytest.raises(ValidationError):
        driver(standard_turbo(3), FAST, **kwargs)


@pytest.mark.parametrize("row", [[6, 0, 0, 0, 0, 0], [6, 0, 0], [4, -0.5, -0.5]],
                         ids=["width-6", "sum-6", "negative"])
def test_de_iteration_rejects_invalid_populations(row):
    """A (20, 6) population on Z3 reported posterior error 0.5, and rows
    summing to 6 a negative error."""
    pop = np.tile(np.array(row, dtype=float), (20, 1))
    with pytest.raises(ValidationError):
        de_iteration(standard_turbo(3), pop, channel_family(3, 2.0), np.random.default_rng(0))


def test_draw_skips_a_zero_probability_first_herald():
    """u = 0 draws the first herald of positive probability, in the shared
    herald draw and in the sweeps' column draw (which divided 0 by 0 there)."""
    from abelianbp.factors import draw_heralds
    from abelianbp.trellis import _draw

    probs = np.array([[0.0, 0.0], [0.25, 1e-16], [0.75, 1.0]])
    assert draw_heralds(probs, np.zeros(2)).tolist() == [1, 2]
    branch = np.zeros((3, 3, 1))
    branch[:, 1:, 0] = [[2.0, 1.0], [0.5, 1.0], [0.5, 1.0]]
    out, _ = _draw(branch, np.zeros(1))
    assert np.allclose(out[:, 0], [2.0, 0.5, 0.5])


def test_config_validation():
    with pytest.raises(ValidationError):
        DEConfig(window=10)
    with pytest.raises(ValidationError):
        DEConfig(population=0)
    with pytest.raises(ValidationError):
        DEConfig(err_threshold=2.0)
    for bad in ({"max_iterations": 0}, {"stall_window": 0}, {"stall_rel": -0.1},
                {"stall_rel": 1.0}, {"stall_rel": float("nan")}, {"stall_rel": float("inf")}):
        with pytest.raises(ValidationError):
            DEConfig(**bad)
    DEConfig(max_iterations=1, stall_window=1, stall_rel=0.0)


def _dense_window_branches(trellis, lam_ch, parity_mult, state, sym, fwd, bwd):
    """Pre-sampling (n, herald, rest) arrays of the three window steps, from
    per-sample lifts and dense equality products on the branch group."""
    B = trellis.branch_group
    q, nb, ns = trellis.symbol_group.order, B.order, state.shape[1]
    sub = tables_for(B).sub                        # [c, c'] = index of c - c'

    def lift(rows, H):
        return np.array([lift_along_hom(EigenList(H.target, r), H).values for r in rows])

    def equality(x, y):                            # row-wise combine on B
        return np.einsum("np,ncp->nc", x, np.broadcast_to(y, x.shape)[:, sub]) / nb

    parity = useless_list(B).values
    if parity_mult and trellis.outputs:
        obs = equality_fold([lam_ch] * parity_mult)
        parity = equality_fold([lift_along_hom(obs, L) for L in trellis.outputs]).values
    sym_b = lift(sym, symbol_projection(trellis))
    phi = dual_map_table(trellis.section_automorphism)
    f = equality(equality(lift(state, state_projection(trellis)), parity), sym_b)
    b = equality(equality(lift(state, next_state_hom(trellis)), parity), sym_b)
    x = equality(equality(lift(fwd, state_projection(trellis)), parity),
                 lift(bwd, next_state_hom(trellis)))
    return (f[:, phi].reshape(-1, q, ns), b.reshape(-1, ns, q).transpose(0, 2, 1),
            x.reshape(-1, ns, q))


@pytest.mark.parametrize("spec", [
    standard_turbo(3),
    standard_turbo(5),
    TurboSpec((shift_register_trellis(Z3, 2, [[1, 1, 0], [1, 0, 2]]),) * 2),
    TurboSpec((standard_turbo(3).constituents[0],) * 2, parity_mults=(0, 0)),
], ids=["turbo-q3", "turbo-q5", "two-output", "no-parity"])
def test_window_kernels_match_dense_products(spec):
    """The sparse gather tables of the trellis section kernels, with DE's
    parity column, reproduce the dense adjoin/lift, parity, symbol and
    backward-state combines on random lists."""
    trellis = spec.constituents[0]
    q = spec.symbol_group.order
    lam_ch = channel_family(q, 1 + 0.6 * (q - 1))
    fwd_k, bwd_k, ext_k = (_section(trellis, kind, len(trellis.outputs))
                           for kind in ("forward", "backward", "extrinsic"))
    obs = fold_uses(lam_ch, spec.parity_mults[0], spec.symbol_group)
    parity = equality_fold([useless_list(trellis.branch_group)] + [
        lift_along_hom(obs, L) for L in trellis.outputs]).values[:, None]
    if len(trellis.outputs) > 1:
        assert fwd_k.weights(parity).shape[0] > 1 and bwd_k.weights(parity).shape[0] > 1
    rng = np.random.default_rng(3)

    def lists(k, n=7):
        x = rng.random((n, k))
        return x * (k / x.sum(axis=1, keepdims=True))

    ns = trellis.state_group.order
    state, fwd, bwd, sym = lists(ns), lists(ns), lists(ns), lists(q)
    want = _dense_window_branches(trellis, lam_ch, spec.parity_mults[0], state, sym,
                                  fwd, bwd)
    got = (fwd_k.branch(state.T, fwd_k.weights(parity), sym.T),
           bwd_k.branch(state.T, bwd_k.weights(parity), sym.T),
           ext_k.branch(fwd.T, ext_k.weights(parity), bwd.T))
    for g, w in zip(got, want):                     # g is (rest, herald, n)
        assert np.abs(g.transpose(2, 1, 0) - w).max() < 1e-12


def test_nan_population_raises(monkeypatch):
    """One NaN row in a 50-row population must not end in a silent NaN error."""
    spec = standard_turbo(3)
    lam = channel_family(3, 2.0)
    pop = np.tile(useless_list(Z3).values, (50, 1))
    pop[17] = np.nan
    with pytest.raises(NumericalError):
        de_iteration(spec, pop, lam, np.random.default_rng(0), window=11)

    clean_iteration = de.de_iteration

    def poisoned(spec, population, *args, **kwargs):
        population = population.copy()
        population[17] = np.nan
        return clean_iteration(spec, population, *args, **kwargs)

    monkeypatch.setattr(de, "de_iteration", poisoned)
    with pytest.raises(NumericalError):
        de_run(spec, DEConfig(population=50, max_iterations=5, window=11), 2.0)


@pytest.mark.parametrize("window", [-3, 0, 4])
def test_de_iteration_rejects_windows_the_config_rejects(window):
    """Window 0 and even windows ran, and -3 ended in an IndexError."""
    pop = np.tile(useless_list(Z3).values, (20, 1))
    with pytest.raises(ValidationError, match="window length must be odd"):
        de_iteration(standard_turbo(3), pop, channel_family(3, 2.0), np.random.default_rng(0),
                     window=window)


@pytest.mark.parametrize("moduli", [(3,), (2, 2)])
def test_systematic_fold_combines_on_the_symbol_group(moduli):
    """DE's systematic combine is the equality combine on the symbol group
    itself, Z2xZ2 included, not on the cyclic group of the same order."""
    G, rng = GroupSpec(moduli), np.random.default_rng(3)
    lam, lists = (rng.gamma(1.0, size=(k, G.order)) for k in (1, 6))
    lam, lists = (x * (G.order / x.sum(axis=1, keepdims=True)) for x in (lam, lists))
    channel = EigenList(G, lam[0])
    fold = fold_uses(channel, 2, G).values[:, None] / G.order
    want = [equality_combine(equality_fold([channel] * 2), EigenList(G, row)).values
            for row in lists]
    assert np.abs(de._with_systematic(G, fold, lists.T).T - want).max() < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: channel_family(1, 1.0), "channel family needs q >= 2"),
    (lambda: heatmap(standard_turbo(5), FAST), "the simplex heatmap is defined for q = 3"),
], ids=["trivial-alphabet", "heatmap-off-q3"])
def test_de_rejections(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.type is ValidationError and str(exc.value) == message


def test_heatmap_skips_grid_points_past_the_simplex():
    """At resolution 0.07 the grid's last lambda1, 43 * 0.07 = 3.01, leaves lambda2 < 0."""
    rows = heatmap(standard_turbo(3), DEConfig(population=10, max_iterations=1),
                   resolution=0.07, lambda0_range=(0, 0))
    assert [r["lambda1"] for r in rows] == [j * 0.07 for j in range(43)]
