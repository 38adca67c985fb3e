"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS line on success (visible with ``pytest -s`` or in
the captured output).  Criterion 10 runs the full Monte-Carlo threshold
bisection with the default density-evolution configuration; the documented
budget for it is far below an hour on a desktop (measured: a few minutes).
"""

import json
import math
import time

import numpy as np
import pytest

from abelianbp import (
    CharIndex,
    EigenList,
    GroupSpec,
    HomSpec,
    avg_holevo,
    check_combine,
    dual_map,
    equality_combine,
    holevo_info,
    merge_duplicates,
    pgm_error,
)
from abelianbp import oracle
from abelianbp.characters import coset_table_for_hom
from abelianbp.de import DEConfig, heatmap, holevo_threshold, standard_turbo, threshold_bisect
from abelianbp.factors import apply_automorphism, hom_push, hom_push_supported
from abelianbp.groups import inversion_automorphism, surjection_onto_image
from abelianbp.polar import synthesize
from abelianbp.schemas import to_json
from abelianbp.trees import run_mp
from abelianbp.trellis import (
    decode_block,
    shift_register_trellis,
    transfer_function_trellis,
    unroll_to_tree,
)

Z32 = GroupSpec((3, 2))
G432 = GroupSpec((4, 3, 2))
G43 = GroupSpec((4, 3))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])
HOM_A_PLUS_2C = HomSpec(G432, G43, ((1, 0, 2), (0, 1, 0)))

ORACLE_GROUPS = [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)),
                 GroupSpec((6,)), GroupSpec((2, 2)), GroupSpec((3, 2))]


def _report(n, text):
    print(f"ACCEPTANCE {n:02d}: PASS - {text}")


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    return EigenList(G, v * (G.order / v.sum()))


def test_criterion_01_check_factor_worked_example():
    start = time.perf_counter()
    msg = check_combine(LAM1, LAM2)
    expected = {
        (0, 0): (1 / 6, [4, 0, 0, 2, 0, 0]),
        (0, 1): (1 / 6, [4, 0, 0, 2, 0, 0]),
        (1, 0): (1 / 4, [4 / 3, 0, 4 / 3, 2 / 3, 0, 8 / 3]),
        (1, 1): (1 / 4, [4 / 3, 0, 4 / 3, 2 / 3, 0, 8 / 3]),
        (2, 0): (1 / 12, [0, 0, 2, 0, 0, 4]),
        (2, 1): (1 / 12, [0, 0, 2, 0, 0, 4]),
    }
    by_label = {b.labels[0]: b for b in msg.branches}
    assert len(by_label) == 6
    for (u, v), (p, lam) in expected.items():
        b = by_label[f"check:({u},{v})"]
        assert abs(b.prob - p) <= 1e-12
        assert np.max(np.abs(b.lam.values - lam)) <= 1e-12
    assert len(merge_duplicates(msg)) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"check-factor worked example exact to 1e-12 ({elapsed:.3f}s)")


def test_criterion_02_equality_factor_worked_example():
    start = time.perf_counter()
    out = equality_combine(LAM1, LAM2)
    assert np.max(np.abs(out.values - [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"equality-factor worked example exact to 1e-12 ({elapsed:.3f}s)")


def _patterned_list(pattern, default=0):
    vals = np.zeros(24)
    for u in range(4):
        for v in range(3):
            for w in range(2):
                vals[G432.index_of((u, v, w))] = pattern.get((u, w), default)
    return EigenList(G432, vals)


def test_criterion_03_homomorphism_worked_examples():
    start = time.perf_counter()
    # dual map and reference coset representatives
    for (r, s) in [(0, 0), (1, 0), (2, 2), (3, 1), (1, 2)]:
        assert dual_map(HOM_A_PLUS_2C, CharIndex(G43, (r, s))).residues == (r, s, r % 2)
    ct = coset_table_for_hom(HOM_A_PLUS_2C)
    assert [G432.from_index(i).residues for i in ct.reps] == [(0, 0, 0), (0, 0, 1)]

    # surjective example: probabilities 3/4 and 1/4
    lam = _patterned_list({(0, 0): 2, (1, 1): 2, (2, 0): 1, (0, 1): 1,
                            (2, 1): 1, (3, 1): 1})
    out = {b.labels[0]: b for b in hom_push(lam, HOM_A_PLUS_2C).branches}
    b0, b1 = out["hom:(0,0,0)"], out["hom:(0,0,1)"]
    assert abs(b0.prob - 3 / 4) <= 1e-12 and abs(b1.prob - 1 / 4) <= 1e-12
    for r in range(4):
        for s in range(3):
            assert abs(b0.lam.values[G43.index_of((r, s))]
                       - (4 / 3 if r <= 1 else 2 / 3)) <= 1e-12
            assert abs(b1.lam.values[G43.index_of((r, s))]
                       - (2.0 if r % 2 == 0 else 0.0)) <= 1e-12

    # non-surjective example: restriction to the image, probabilities
    # 3/8, 1/8, 1/4, 1/4 with the reference representative set
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    surj, _ = surjection_onto_image(H2)
    assert surj.matrix == ((1, 0, 1), (0, 1, 0))
    ct2 = coset_table_for_hom(surj)
    assert {G432.from_index(i).residues for i in ct2.reps} == {
        (0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)}
    out2 = {b.labels[0]: b for b in hom_push(lam, H2).branches}
    I = surj.target
    expected2 = {
        "hom:(0,0,0)": (3 / 8, {0: 4 / 3, 1: 2 / 3}),
        "hom:(1,0,0)": (1 / 8, {0: 0.0, 1: 2.0}),
        "hom:(0,0,1)": (1 / 4, {0: 1.0, 1: 1.0}),
        "hom:(1,0,1)": (1 / 4, {0: 2.0, 1: 0.0}),
    }
    for lab, (p, vals) in expected2.items():
        assert abs(out2[lab].prob - p) <= 1e-12
        for r in range(2):
            for s in range(3):
                assert abs(out2[lab].lam.values[I.index_of((r, s))] - vals[r]) <= 1e-12

    # supported example: single output list with the 1, 1/2, 3/2, 1 pattern
    lam3 = _patterned_list({(0, 0): 2, (1, 1): 1, (2, 0): 3, (3, 1): 2})
    out3 = hom_push_supported(lam3, HOM_A_PLUS_2C)
    for r, want in [(0, 1.0), (1, 0.5), (2, 1.5), (3, 1.0)]:
        for s in range(3):
            assert abs(out3.values[G43.index_of((r, s))] - want) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"all three homomorphism worked examples exact to 1e-12 ({elapsed:.3f}s)")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    worst = {"prob": 0.0, "list": 0.0}
    for G in ORACLE_GROUPS:
        for rule in ("check", "equality", "hom", "marginalize", "automorphism"):
            report = oracle.verify_rule(rule, G, seed=2024, count=100)
            worst["prob"] = max(worst["prob"], report["max_prob_deviation"])
            worst["list"] = max(worst["list"], report["max_list_deviation"])
    assert worst["prob"] <= 1e-9 and worst["list"] <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, f"5 rules x 6 groups x 100 instances, max dev "
               f"{max(worst.values()):.2e} ({elapsed:.1f}s)")


def test_criterion_05_gram_pgm_holevo_certification():
    start = time.perf_counter()
    pool = ORACLE_GROUPS + [GroupSpec((12,)), GroupSpec((2, 2, 3))]
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(200):
        G = pool[i % len(pool)]
        lam = rand_lam(G, rng)
        oracle.verify_gram_diagonalization(lam)
        worst = max(worst, abs(oracle.pgm_bruteforce(lam) - pgm_error(lam)))
        worst = max(worst,
                    abs(oracle.entropy_of_average_state(lam) - holevo_info(lam)))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"200 random channels certified, max dev {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_06_polar_conservation_and_extremality():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    inv = {G.moduli: inversion_automorphism(G) for G in ORACLE_GROUPS}
    worst_cons = 0.0
    for i in range(500):
        G = ORACLE_GROUPS[i % len(ORACLE_GROUPS)]
        a, b = rand_lam(G, rng), rand_lam(G, rng)
        minus = check_combine(a, apply_automorphism(b, inv[G.moduli]))
        plus = equality_combine(a, b)
        worst_cons = max(worst_cons, abs(
            avg_holevo(minus) + holevo_info(plus) - holevo_info(a) - holevo_info(b)))
        # extremality for identical inputs
        stats = synthesize(a, 1)
        assert stats[1].avg_holevo >= holevo_info(a) - 1e-9
        assert holevo_info(a) >= stats[0].avg_holevo - 1e-9
    assert worst_cons <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"conservation within {worst_cons:.2e} over 500 pairs ({elapsed:.1f}s)")


def test_criterion_07_zq_reduction():
    rng = np.random.default_rng(3)
    worst = 0.0
    for q in (2, 3, 5):
        G = GroupSpec((q,))
        for _ in range(50):
            a, b = rand_lam(G, rng), rand_lam(G, rng)
            # independent DFT-based cyclic reference
            eq_ref = np.fft.ifft(np.fft.fft(a.values) * np.fft.fft(b.values)).real / q
            worst = max(worst, float(np.max(np.abs(
                equality_combine(a, b).values - eq_ref))))
            corr = np.fft.ifft(np.fft.fft(a.values)
                               * np.conj(np.fft.fft(b.values))).real
            probs_ref = corr / q**2
            msg = {int(br.labels[0].split("(")[1][:-1]): br
                   for br in check_combine(a, b).branches}
            for c in range(q):
                if probs_ref[c] < 1e-15:
                    continue
                lam_ref = a.values[(c + np.arange(q)) % q] * b.values / (q * probs_ref[c])
                worst = max(worst, abs(msg[c].prob - probs_ref[c]))
                worst = max(worst, float(np.max(np.abs(msg[c].lam.values - lam_ref))))
    assert worst <= 1e-10
    _report(7, f"cyclic-group reduction matches DFT reference, max dev {worst:.2e}")


def _ensemble_key(msg):
    merged = merge_duplicates(msg, 1e-9)
    return sorted((tuple(np.round(b.lam.values, 10)), b.prob)
                  for b in merged.branches)


def test_criterion_08_trellis_tree_equivalence():
    rng = np.random.default_rng(11)
    specs = [shift_register_trellis(GroupSpec((2,)), 1, [[1, 1]]),
             shift_register_trellis(GroupSpec((3,)), 1, [[1, 1]]),
             transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)]
    for spec in specs:
        G = spec.symbol_group
        for T in (1, 2, 3):
            obs = [[rand_lam(G, rng)] for _ in range(T)]
            sysv = [rand_lam(G, rng) for _ in range(T)]
            results = decode_block(spec, obs, symbol_obs_seq=sysv)
            for t in range(T):
                tree_spec = unroll_to_tree(spec, obs, t, symbol_obs_seq=sysv)
                root = run_mp(tree_spec)
                k1 = _ensemble_key(results[t].posterior)
                k2 = _ensemble_key(root)
                assert len(k1) == len(k2)
                for (v1, p1), (v2, p2) in zip(k1, k2):
                    assert abs(p1 - p2) <= 1e-9
                    assert np.max(np.abs(np.array(v1) - np.array(v2))) <= 1e-9
    _report(8, "exact block decoding equals tree message passing (T <= 3)")


def test_criterion_09_holevo_threshold():
    start = time.perf_counter()
    value = holevo_threshold(3, "1/3")
    assert abs(value - 2.7287) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(9, f"holevo threshold {value:.4f} = 2.7287 +- 1e-3 ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def de_threshold_result():
    spec = standard_turbo(3)
    cfg = DEConfig()
    start = time.perf_counter()
    res = threshold_bisect(spec, cfg)
    res["elapsed"] = time.perf_counter() - start
    return res


def test_criterion_10_de_threshold(de_threshold_result):
    res = de_threshold_result
    lam_de = res["lambda_de"]
    lam_h = holevo_threshold(3, "1/3")
    assert abs(lam_de - 2.641) <= 0.05
    assert lam_de <= lam_h
    assert res["elapsed"] < 3600.0

    # symmetric-ray heatmap boundary crossing within [2.59, 2.69]
    spec = standard_turbo(3)
    rows = heatmap(spec, DEConfig(), resolution=0.02, ray_only=True,
                   lambda0_range=(2.55, 2.73), trials=1)
    successes = [r["lambda0"] for r in rows if r["success_freq"] >= 0.5]
    failures = [r["lambda0"] for r in rows if r["success_freq"] < 0.5]
    assert successes and failures
    crossing_lo, crossing_hi = max(successes), min(failures)
    assert crossing_lo < crossing_hi
    assert 2.59 <= crossing_lo and crossing_hi <= 2.69
    _report(10, f"DE threshold {lam_de:.4f} = 2.641 +- 0.05, <= Holevo "
                f"{lam_h:.4f}; ray crossing in [{crossing_lo:.2f}, "
                f"{crossing_hi:.2f}] ({res['elapsed']:.0f}s)")


def test_criterion_11_determinism(de_threshold_result):
    # repeat the headline stochastic run: identical serialized output
    spec = standard_turbo(3)
    res2 = threshold_bisect(spec, DEConfig())
    first = {k: v for k, v in de_threshold_result.items() if k != "elapsed"}
    assert to_json(first) == to_json(res2)

    # sampled trellis decoding
    spec_t = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    rng = np.random.default_rng(0)
    obs = [[rand_lam(GroupSpec((3,)), rng)] for _ in range(4)]
    runs = set()
    for _ in range(2):
        res = decode_block(spec_t, obs, mode="sampled", seed=77)
        runs.add(to_json([[float(v) for v in r.posterior.branches[0].lam.values]
                          for r in res]))
    assert len(runs) == 1

    # sampled polar tracking
    lam = EigenList(GroupSpec((3,)), [2.0, 0.5, 0.5])
    s1 = synthesize(lam, 2, mode="sampled", seed=5, samples=100)
    s2 = synthesize(lam, 2, mode="sampled", seed=5, samples=100)
    assert s1 == s2
    _report(11, "stochastic runs are byte-identical under seed reuse")
