import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    NumericalError,
    ValidationError,
    adjoin_uniform,
    apply_automorphism,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    equality_combine,
    hom_push,
    hom_push_supported,
    holevo_info,
    identity_hom,
    inversion_automorphism,
    lift_along_hom,
    marginalize_split,
    merge_duplicates,
    permute_coordinates,
    perfect_list,
    projection_hom,
    pure,
    useless_list,
)
from abelianbp.factors import (_automorphism, _cells, _check, _check_inverse, _equality, _hom,
                               _hom_supported, _lift, _marginalize, _product_apply, _split,
                               draw_heralds, equality_fold)
from abelianbp.messages import PROB_FLOOR, HeraldedMessage
from message_rows import rows

Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z32 = GroupSpec((3, 2))
G432 = GroupSpec((4, 3, 2))
G43 = GroupSpec((4, 3))
HOM_A_PLUS_2C = HomSpec(G432, G43, ((1, 0, 2), (0, 1, 0)))

LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])
LAM3 = EigenList(Z3, [2.3, 0.35, 0.35])

TEST_GROUPS = [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)), GroupSpec((6,)),
               GroupSpec((2, 2)), GroupSpec((3, 2))]


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    v *= G.order / v.sum()
    return EigenList(G, v)


def by_label(msg):
    return {b.labels[0]: b for b in rows(msg)}


# ---------------------------------------------------------------------------
# check factor


def test_check_worked_example():
    msg = check_combine(LAM1, LAM2)
    d = by_label(msg)
    for lab, p, lam in [
        ("check:(0,0)", 1 / 6, [4, 0, 0, 2, 0, 0]),
        ("check:(0,1)", 1 / 6, [4, 0, 0, 2, 0, 0]),
        ("check:(1,0)", 1 / 4, [4 / 3, 0, 4 / 3, 2 / 3, 0, 8 / 3]),
        ("check:(1,1)", 1 / 4, [4 / 3, 0, 4 / 3, 2 / 3, 0, 8 / 3]),
        ("check:(2,0)", 1 / 12, [0, 0, 2, 0, 0, 4]),
        ("check:(2,1)", 1 / 12, [0, 0, 2, 0, 0, 4]),
    ]:
        assert d[lab].prob == pytest.approx(p, abs=1e-15)
        assert np.max(np.abs(d[lab].lam - lam)) < 1e-12


def test_check_useless_partner():
    msg = check_combine(LAM1, useless_list(Z32))
    d = by_label(msg)
    # herald chi occurs with probability lam1[chi]/|G| and every branch is useless
    for c in range(6):
        lab = f"check:({','.join(map(str, Z32.from_index(c).residues))})"
        if LAM1.values[c] / 6 < 1e-15:
            assert lab not in d
        else:
            assert d[lab].prob == pytest.approx(LAM1.values[c] / 6)
            assert np.allclose(d[lab].lam, useless_list(Z32).values)


def test_check_perfect_partner_reindexes():
    from abelianbp.characters import tables_for
    msg = check_combine(LAM1, perfect_list(Z32))
    d = by_label(msg)
    add = tables_for(Z32).add
    for c in range(6):
        lab = f"check:({','.join(map(str, Z32.from_index(c).residues))})"
        assert d[lab].prob == pytest.approx(1 / 6)
        assert np.max(np.abs(d[lab].lam - LAM1.values[add[c]])) < 1e-12


def test_check_group_mismatch():
    with pytest.raises(ValidationError):
        check_combine(LAM1, perfect_list(Z3))


def test_check_outputs_are_valid():
    rng = np.random.default_rng(10)
    for G in TEST_GROUPS:
        for _ in range(10):
            msg = check_combine(rand_lam(G, rng), rand_lam(G, rng))
            assert sum(msg.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
            for b in rows(msg):
                assert b.lam.sum() == pytest.approx(G.order, rel=1e-9)


# ---------------------------------------------------------------------------
# equality factor


def test_equality_worked_example():
    out = equality_combine(LAM1, LAM2)
    assert np.max(np.abs(out.values - [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])) < 1e-12


def test_equality_identity_and_absorbing():
    assert np.allclose(equality_combine(LAM1, useless_list(Z32)).values, LAM1.values)
    assert np.allclose(equality_combine(LAM1, perfect_list(Z32)).values, 1.0)


def test_equality_commutative_associative():
    rng = np.random.default_rng(11)
    for G in TEST_GROUPS:
        a, b, c = (rand_lam(G, rng) for _ in range(3))
        ab = equality_combine(a, b)
        ba = equality_combine(b, a)
        assert np.max(np.abs(ab.values - ba.values)) < 1e-12
        left = equality_combine(ab, c)
        right = equality_combine(a, equality_combine(b, c))
        assert np.max(np.abs(left.values - right.values)) < 1e-12


def test_equality_fold():
    rng = np.random.default_rng(12)
    lams = [rand_lam(Z32, rng) for _ in range(4)]
    acc = lams[0]
    for lam in lams[1:]:
        acc = equality_combine(acc, lam)
    assert np.allclose(equality_fold(lams).values, acc.values)


# ---------------------------------------------------------------------------
# Z_q reduction: independent DFT-based cyclic oracle


def _cyclic_equality(l1, l2):
    q = len(l1)
    return np.fft.ifft(np.fft.fft(l1) * np.fft.fft(l2)).real / q


def _cyclic_check(l1, l2):
    q = len(l1)
    corr = np.fft.ifft(np.fft.fft(l1) * np.conj(np.fft.fft(l2))).real
    probs = corr / q**2
    branches = {}
    for c in range(q):
        if probs[c] < 1e-15:
            continue
        branches[c] = (probs[c], l1[(c + np.arange(q)) % q] * l2 / (q * probs[c]))
    return probs, branches


def test_zq_reduction():
    rng = np.random.default_rng(13)
    for q in (2, 3, 5):
        G = GroupSpec((q,))
        for _ in range(25):
            a, b = rand_lam(G, rng), rand_lam(G, rng)
            eq = equality_combine(a, b)
            assert np.max(np.abs(eq.values - _cyclic_equality(a.values, b.values))) < 1e-10
            probs, branches = _cyclic_check(a.values, b.values)
            msg = check_combine(a, b)
            d = {int(b_.labels[0].split("(")[1][:-1]): b_ for b_ in rows(msg)}
            for c, (p, lam) in branches.items():
                assert d[c].prob == pytest.approx(p, abs=1e-10)
                assert np.max(np.abs(d[c].lam - lam)) < 1e-10


# ---------------------------------------------------------------------------
# homomorphism / lift / marginalize / automorphism


def _mixed_support_input():
    vals = np.zeros(24)
    for u in range(4):
        for v in range(3):
            for w in range(2):
                if (u, w) in [(0, 0), (1, 1)]:
                    val = 2
                elif (u, w) in [(2, 0), (0, 1), (2, 1), (3, 1)]:
                    val = 1
                else:
                    val = 0
                vals[G432.index_of((u, v, w))] = val
    return EigenList(G432, vals)


def test_hom_push_worked_example():
    out = hom_push(_mixed_support_input(), HOM_A_PLUS_2C)
    d = by_label(out)
    b0 = d["hom:(0,0,0)"]
    assert b0.prob == pytest.approx(3 / 4, abs=1e-15)
    for r in range(4):
        for s in range(3):
            expect = 4 / 3 if r in (0, 1) else 2 / 3
            assert b0.lam[G43.index_of((r, s))] == pytest.approx(expect, abs=1e-12)
    b1 = d["hom:(0,0,1)"]
    assert b1.prob == pytest.approx(1 / 4, abs=1e-15)
    for r in range(4):
        for s in range(3):
            expect = 2.0 if r % 2 == 0 else 0.0
            assert b1.lam[G43.index_of((r, s))] == pytest.approx(expect, abs=1e-12)


def test_hom_push_non_surjective_worked_example():
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    out = hom_push(_mixed_support_input(), H2)
    assert out.group.moduli == (2, 3)
    d = by_label(out)
    expected = {
        "hom:(0,0,0)": (3 / 8, {0: 4 / 3, 1: 2 / 3}),
        "hom:(1,0,0)": (1 / 8, {0: 0.0, 1: 2.0}),
        "hom:(0,0,1)": (1 / 4, {0: 1.0, 1: 1.0}),
        "hom:(1,0,1)": (1 / 4, {0: 2.0, 1: 0.0}),
    }
    I = out.group
    for lab, (p, vals) in expected.items():
        assert d[lab].prob == pytest.approx(p, abs=1e-15)
        for r in range(2):
            for s in range(3):
                assert d[lab].lam[I.index_of((r, s))] == pytest.approx(
                    vals[r], abs=1e-12)


def test_hom_push_identity():
    out = hom_push(LAM1, identity_hom(Z32))
    assert len(out) == 1
    assert out.probs[0] == pytest.approx(1.0)
    assert np.allclose(out.lams[0], LAM1.values)


def test_hom_push_supported_worked_example():
    vals = np.zeros(24)
    for u in range(4):
        for v in range(3):
            for w in range(2):
                val = {(0, 0): 2, (1, 1): 1, (2, 0): 3, (3, 1): 2}.get((u, w), 0)
                vals[G432.index_of((u, v, w))] = val
    out = hom_push_supported(EigenList(G432, vals), HOM_A_PLUS_2C)
    expected = {0: 1.0, 1: 0.5, 2: 1.5, 3: 1.0}
    for r in range(4):
        for s in range(3):
            assert out.values[G43.index_of((r, s))] == pytest.approx(expected[r], abs=1e-12)


def test_hom_push_supported_rejects_off_support():
    with pytest.raises(ValidationError, match="support"):
        hom_push_supported(_mixed_support_input(), HOM_A_PLUS_2C)


def test_hom_push_supported_identity():
    out = hom_push_supported(LAM1, identity_hom(Z32))
    assert np.allclose(out.values, LAM1.values)


def test_lift_examples():
    proj = projection_hom(Z32, (0,))
    lifted = lift_along_hom(useless_list(Z3), proj)
    assert np.allclose(lifted.values, [6, 0, 0, 0, 0, 0])
    ones = lift_along_hom(perfect_list(Z3), proj)
    assert np.allclose(ones.values, [2, 2, 2, 0, 0, 0])
    # round trip with the supported push
    rng = np.random.default_rng(14)
    for _ in range(10):
        lam = rand_lam(Z3, rng)
        back = hom_push_supported(lift_along_hom(lam, proj), proj)
        assert np.max(np.abs(back.values - lam.values)) < 1e-12


def test_marginalize_examples():
    lifted = EigenList(Z32, [2, 2, 2, 0, 0, 0])
    msg = marginalize_split(lifted, 1)
    assert len(msg) == 1
    assert msg.probs[0] == pytest.approx(1.0)
    assert np.allclose(msg.lams[0], 1.0)

    uniform = perfect_list(Z32)
    msg2 = marginalize_split(uniform, 1)
    assert [b.prob for b in rows(msg2)] == pytest.approx([0.5, 0.5])
    for b in rows(msg2):
        assert np.allclose(b.lam, 1.0)

    # separable case: lam(chi, eta) = a[chi] * b[eta] / normalization
    rng = np.random.default_rng(15)
    a, b = rand_lam(Z3, rng), rand_lam(GroupSpec((2,)), rng)
    prod = np.outer(b.values, a.values).reshape(-1) / 1.0
    lam = EigenList(Z32, prod)
    msg3 = marginalize_split(lam, 1)
    d = {b_.labels[0]: b_ for b_ in rows(msg3)}
    for e in range(2):
        lab = f"marg:({e})"
        assert d[lab].prob == pytest.approx(b.values[e] / 2)
        assert np.max(np.abs(d[lab].lam - a.values)) < 1e-12


def test_marginalize_rejects_bad_split():
    with pytest.raises(ValidationError):
        marginalize_split(LAM1, 5)


def test_automorphism_examples():
    lam = EigenList(Z3, [1, 2, 0])
    out = apply_automorphism(lam, inversion_automorphism(Z3))
    assert np.allclose(out.values, [1, 0, 2])
    assert np.allclose(apply_automorphism(lam, identity_hom(Z3)).values, lam.values)
    Z22 = GroupSpec((2, 2))
    lam22 = EigenList(Z22, [1.0, 0.5, 1.5, 1.0])
    swapped = apply_automorphism(lam22, permute_coordinates(Z22, (1, 0)))
    assert np.allclose(swapped.values, [1.0, 1.5, 0.5, 1.0])
    # multiset preserved
    assert sorted(swapped.values) == sorted(lam22.values)


def test_automorphism_rejects_non_automorphism():
    with pytest.raises(ValidationError):
        apply_automorphism(EigenList(GroupSpec((4,)), [4, 0, 0, 0]),
                           HomSpec(GroupSpec((4,)), GroupSpec((4,)), ((2,),)))


def test_adjoin_uniform():
    lam = useless_list(Z3)
    out = adjoin_uniform(lam, GroupSpec((2,)))
    assert out.group.moduli == (2, 3)
    assert np.allclose(out.values, [6, 0, 0, 0, 0, 0])
    ones = adjoin_uniform(perfect_list(Z3), Z3)
    grid = ones.values.reshape(3, 3)   # [zeta, eta]
    assert np.allclose(grid[:, 0], 3.0)
    assert np.allclose(grid[:, 1:], 0.0)
    # definitional identity with the lift along the dropping projection
    rng = np.random.default_rng(16)
    for _ in range(5):
        lam = rand_lam(Z32, rng)
        adj = adjoin_uniform(lam, GroupSpec((4,)))
        proj = projection_hom(adj.group, (1, 2))
        assert np.max(np.abs(adj.values - lift_along_hom(lam, proj).values)) < 1e-12


@pytest.mark.parametrize("moduli", [(3,), (3, 2), (4,)])
@pytest.mark.parametrize("fresh", [(2,), (3,), (2, 2)])
def test_adjoin_uniform_is_the_lift_along_the_dropping_projection(moduli, fresh):
    G, F = GroupSpec(moduli), GroupSpec(fresh)
    rng = np.random.default_rng(len(moduli) * 10 + len(fresh) + moduli[0] * fresh[0])
    drop = projection_hom(GroupSpec(fresh + moduli), range(len(fresh), len(fresh) + len(moduli)))
    for lam in [useless_list(G), perfect_list(G)] + [rand_lam(G, rng) for _ in range(10)]:
        adj = adjoin_uniform(lam, F)
        assert adj.group.moduli == fresh + moduli
        assert adj.values.tobytes() == lift_along_hom(lam, drop).values.tobytes()


# ---------------------------------------------------------------------------
# invariants


def test_polarization_conservation():
    rng = np.random.default_rng(17)
    inv = {G.moduli: inversion_automorphism(G) for G in TEST_GROUPS}
    for G in TEST_GROUPS:
        for _ in range(30):
            a, b = rand_lam(G, rng), rand_lam(G, rng)
            minus = check_combine(a, apply_automorphism(b, inv[G.moduli]))
            plus = equality_combine(a, b)
            lhs = avg_holevo(minus) + holevo_info(plus)
            rhs = holevo_info(a) + holevo_info(b)
            assert abs(lhs - rhs) < 1e-8


def test_extremality():
    rng = np.random.default_rng(18)
    for G in TEST_GROUPS:
        for _ in range(20):
            a, b = rand_lam(G, rng), rand_lam(G, rng)
            plus = holevo_info(equality_combine(a, b))
            assert plus >= max(holevo_info(a), holevo_info(b)) - 1e-9
            minus = avg_holevo(check_combine(a, b))
            assert minus <= min(holevo_info(a) + holevo_info(b),
                                math.log2(G.order)) + 1e-9


def test_data_processing():
    rng = np.random.default_rng(19)
    hom = HomSpec(Z32, Z3, ((1, 0),))
    for _ in range(20):
        lam = rand_lam(Z32, rng)
        assert avg_holevo(hom_push(lam, hom)) <= holevo_info(lam) + 1e-9
        assert avg_holevo(marginalize_split(lam, 1)) <= holevo_info(lam) + 1e-9


def test_check_swap_multiset_invariance():
    rng = np.random.default_rng(20)
    for G in TEST_GROUPS:
        a, b = rand_lam(G, rng), rand_lam(G, rng)
        m1 = check_combine(a, b)
        m2 = check_combine(b, a)
        assert avg_holevo(m1) == pytest.approx(avg_holevo(m2), abs=1e-10)
        assert avg_pgm_error(m1) == pytest.approx(avg_pgm_error(m2), abs=1e-10)


def test_check_swap_relabeling():
    # swapped herald chi = original herald chi^{-1}, branch reindexed by
    # chi' -> chi * chi'
    from abelianbp.characters import tables_for
    rng = np.random.default_rng(22)
    for G in (Z3, Z32):
        t = tables_for(G)
        a, b = rand_lam(G, rng), rand_lam(G, rng)
        orig = {b_.labels[0]: b_ for b_ in rows(check_combine(a, b))}
        for br in rows(check_combine(b, a)):
            residues = [int(x) for x in br.labels[0].split("(")[1][:-1].split(",")]
            chi = G.index_of(residues)
            partner = orig[_label_of(G, t.neg[chi])]
            assert br.prob == pytest.approx(partner.prob, abs=1e-12)
            reindexed = partner.lam[t.add[chi]]
            assert np.max(np.abs(br.lam - reindexed)) < 1e-12


def _label_of(G, idx):
    return f"check:({','.join(map(str, G.from_index(int(idx)).residues))})"


# ---------------------------------------------------------------------------
# rules over branch products of heralded mixtures


def test_lifted_rules_match_pure_on_pure_inputs():
    m = _product_apply([pure(LAM1), pure(LAM2)], _check(Z32))
    base = merge_duplicates(check_combine(LAM1, LAM2))
    assert len(m) == len(base)
    for b1, b2 in zip(rows(m), rows(base)):
        assert b1.prob == pytest.approx(b2.prob, abs=1e-12)
        assert np.max(np.abs(b1.lam - b2.lam)) < 1e-12

    eq = _product_apply([pure(LAM1), pure(LAM2)], _equality(Z32))
    assert len(eq) == 1
    assert np.max(np.abs(eq.lams[0] - equality_combine(LAM1, LAM2).values)) < 1e-12


def test_lifted_equality_branch_product():
    lam3 = EigenList(Z32, [3, 1, 0, 1, 1, 0])
    m1 = HeraldedMessage.of(Z32, [0.3, 0.7], [LAM1.values, LAM2.values], [("x0",), ("x1",)])
    m2 = HeraldedMessage.of(Z32, [0.6, 0.4], [lam3.values, useless_list(Z32).values],
                            [("y0",), ("y1",)])
    out = _product_apply([m1, m2], _equality(Z32))
    assert len(out) <= 4
    assert sum(out.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    d = {b.labels: b for b in rows(out)}
    assert d[("x0", "y0")].prob == pytest.approx(0.18)
    assert np.max(np.abs(d[("x0", "y0")].lam - equality_combine(LAM1, lam3).values)) < 1e-12
    assert np.max(np.abs(d[("x1", "y1")].lam - LAM2.values)) < 1e-12


def _product_fold(rule, msgs):
    return functools.reduce(lambda a, b: _product_apply([a, b], rule), msgs)


def test_lifted_fold_order_invariance():
    rng = np.random.default_rng(21)
    msgs = [pure(rand_lam(Z3, rng)) for _ in range(3)]
    out1 = _product_fold(_equality(Z3), msgs)
    out2 = _product_fold(_equality(Z3), msgs[::-1])
    assert avg_holevo(out1) == pytest.approx(avg_holevo(out2), abs=1e-10)
    assert avg_pgm_error(out1) == pytest.approx(avg_pgm_error(out2), abs=1e-10)
    # the d-ary check realized by a left fold is fold-order invariant after
    # herald merging, at the level of ensemble metrics
    c1 = _product_fold(_check(Z3), msgs)
    c2 = _product_fold(_check(Z3), msgs[::-1])
    assert avg_holevo(c1) == pytest.approx(avg_holevo(c2), abs=1e-10)
    assert avg_pgm_error(c1) == pytest.approx(avg_pgm_error(c2), abs=1e-10)


def test_lifted_supported_hom():
    proj = projection_hom(Z32, (0,))
    rng = np.random.default_rng(23)
    lams = [lift_along_hom(rand_lam(Z3, rng), proj) for _ in range(2)]
    msg = HeraldedMessage.of(Z32, [0.4, 0.6], [lam.values for lam in lams], [("x0",), ("x1",)])
    out = _product_apply([msg], _hom_supported(Z32, proj))
    assert out.group.moduli == (3,)
    d = {b.labels: b for b in rows(out)}
    for key, lam in zip([("x0",), ("x1",)], lams):
        assert np.max(np.abs(d[key].lam - hom_push_supported(lam, proj).values)) < 1e-12


def test_lifted_hom_and_marginalize():
    m = HeraldedMessage.of(G432, [0.5, 0.5], [_mixed_support_input().values,
                                              perfect_list(G432).values], [("x0",), ("x1",)])
    out = _product_apply([m], _hom(G432, HOM_A_PLUS_2C))
    assert out.group.moduli == (4, 3)
    assert sum(out.probs.tolist()) == pytest.approx(1.0, abs=1e-12)
    mm = _product_apply([pure(perfect_list(Z32))], _marginalize(Z32, 1))
    assert mm.group.moduli == (3,)
    ml = _product_apply([pure(perfect_list(Z3))], _lift(Z3, projection_hom(Z32, (0,))))
    assert ml.group.moduli == (3, 2)


def test_nan_list_in_a_mixture_is_a_numerical_error():
    # EigenList rejects NaN itself; a NaN row that reaches a mixture must not pass
    bad = pure(EigenList._of_valid(Z3, np.array([np.nan, 1.5, 1.5])))
    for rule in (_equality(Z3), _check(Z3)):
        with pytest.raises(NumericalError):
            _product_apply([bad, pure(perfect_list(Z3))], rule)


@pytest.mark.parametrize("moduli", [(3,), (3, 2), (2, 2, 3)])
def test_check_inverse_is_check_after_inverting_the_second_operand(moduli):
    """`_check_inverse` equals the two-step composition bit for bit: herald
    grids, herald probabilities and the normalised lists of every kept cell."""
    G = GroupSpec(moduli)
    rng = np.random.default_rng(len(moduli))
    A, B = (np.array([rand_lam(G, rng).values for _ in range(7)]).T for _ in range(2))
    grid = _check_inverse(G).rows(A, B)
    want = _check(G).rows(A, _automorphism(G, inversion_automorphism(G)).rows(B))
    assert grid.tobytes() == want.tobytes()
    probs, want_probs = _split(grid), _split(want)
    assert probs.tobytes() == want_probs.tobytes()
    herald, col = np.nonzero(probs >= 1e-3)
    assert (_cells(grid, probs, herald, col).tobytes()
            == _cells(want, want_probs, herald, col).tobytes())
    assert _check_inverse(G).herald is _check(G).herald


def test_branch_products_below_the_floor_are_dropped_before_the_rule():
    """A mixture of branch probabilities 1 - 1e-8 and 1e-8 combined with itself:
    the 1e-16 product of the light branches is below `PROB_FLOOR` and dropped."""
    a, b = EigenList(Z3, [2.5, 0.25, 0.25]), EigenList(Z3, [1.5, 1.0, 0.5])
    msg = HeraldedMessage.of(Z3, [1 - 1e-8, 1e-8], [a.values, b.values], [("a",), ("b",)])
    assert 1e-16 < PROB_FLOOR
    out = _product_apply([msg, msg], _equality(Z3))
    assert out.labels == (("a", "a"), ("a", "b", "b", "a"))     # (a, b) and (b, a) merged
    assert not any(np.allclose(lam, equality_combine(b, b).values) for lam in out.lams)
    p = 1 - 1e-8
    assert out.probs.tolist() == pytest.approx([p * p, 2 * p * 1e-8], rel=1e-12)


def _draw_heralds_reference(probs, u):
    """`draw_heralds` as it was written with `np.where` and `np.nextafter`."""
    cum = np.where(probs >= PROB_FLOOR, probs, 0.0)
    for j in range(1, len(cum)):
        cum[j] += cum[j - 1]
    total = cum[-1]
    if not total.min() > 0:
        raise NumericalError("NaN or vanishing herald probabilities")
    return (cum <= np.minimum(u * total, np.nextafter(total, 0))).sum(axis=0)


_HERALD_PROB = st.one_of(st.just(0.0), st.just(PROB_FLOOR), st.just(PROB_FLOOR / 2),
                         st.floats(0.0, 1e-14), st.floats(0.0, 1e3))
_UNIFORM = st.one_of(st.just(0.0), st.just(np.nextafter(1.0, 0)), st.just(1 - 2.0**-54),
                     st.floats(0.0, 1.0, exclude_max=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda h: st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_HERALD_PROB, min_size=k, max_size=k), min_size=h, max_size=h),
    st.lists(_UNIFORM, min_size=k, max_size=k)))))
def test_draw_heralds_matches_the_previous_draw(case):
    """Floored heralds, zero columns, u = 0 and u -> 1 draw what the previous
    function drew, or raise where it raised."""
    probs, u = np.array(case[0]), np.array(case[1])
    try:
        want = _draw_heralds_reference(probs, u)
    except NumericalError:
        with pytest.raises(NumericalError):
            draw_heralds(probs, u)
        return
    got = draw_heralds(probs, u)
    assert got.tolist() == want.tolist()
    assert np.all(probs[got, np.arange(len(u))] >= PROB_FLOOR)


def test_draw_heralds_raises_on_one_nan_herald():
    """A NaN in one herald of an otherwise valid column is a `NumericalError`;
    it was read as a zero and another herald was drawn."""
    with pytest.raises(NumericalError):
        draw_heralds(np.array([[np.nan], [0.5], [0.5]]), np.array([0.3]))
    with pytest.raises(NumericalError):
        draw_heralds(np.array([[0.2, 0.5], [0.8, np.nan]]), np.array([0.1, 0.1]))


def _heralded_kernels():
    """(id, rule, operand groups) of every heralded kernel, on Z3, Z3xZ2,
    Z4xZ3 and the turbo constituent's branch group Z3^3."""
    from abelianbp.trellis import _step_rule, transfer_function_trellis

    Z333 = GroupSpec((3, 3, 3))
    homs = {Z3: HomSpec(Z3, Z3, ((2,),)), Z32: projection_hom(Z32, range(1)),
            G43: HomSpec(G43, G43, ((2, 0), (0, 1))),      # not surjective: image Z2 x Z3
            Z333: projection_hom(Z333, range(1, 3))}
    cases = []
    for G, H in homs.items():
        cases += [(f"check-{G}", _check(G), (G, G)),
                  (f"check-inverse-{G}", _check_inverse(G), (G, G)),
                  (f"hom-{G}", _hom(G, H), (G,))]
        cases += [(f"marginalize-{G}-{keep}", _marginalize(G, keep), (G,))
                  for keep in range(G.rank + 1)]
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    GS, G = spec.state_group, spec.symbol_group
    cases += [("forward", _step_rule(spec, "forward", 1), (GS, G, G)),
              ("backward", _step_rule(spec, "backward", 1), (GS, G, G)),
              ("extrinsic", _step_rule(spec, "extrinsic", 1), (GS, GS, G))]
    return cases


@pytest.mark.parametrize("case", _heralded_kernels(), ids=lambda case: case[0])
def test_exact_and_sampled_splits_agree_cell_by_cell(case):
    """In each column i, the list `sample_rows` keeps for its drawn herald h has
    the bytes of the exact `_run` list of cell (i, h), and the heralds drawn
    from the exact cells' probabilities are the ones `sample_rows` draws."""
    from abelianbp.factors import _run, sample_rows

    _, rule, groups = case
    rng, K = np.random.default_rng(11), 40
    ops = [np.array([rand_lam(G, rng).values for _ in range(K)]).T for G in groups]
    probs, lists, col, herald = _run(rule, ops)
    exact = np.zeros((len(rule.herald[2]), K))
    exact[herald, col] = probs
    cell = {c: j for j, c in enumerate(zip(col.tolist(), herald.tolist()))}
    for _ in range(4):
        u = rng.random(K)
        got, drawn = sample_rows(rule, ops, u)
        assert drawn.tolist() == draw_heralds(exact, u).tolist()
        at = [cell[c] for c in enumerate(drawn.tolist())]
        assert got.tobytes() == np.ascontiguousarray(lists[:, at]).tobytes()


def _run_mp(**kwargs):
    from abelianbp.trees import FactorGraphSpec, leaf, run_mp

    return run_mp(FactorGraphSpec({"a": Z3}, {"l": leaf("a", LAM3)}, "a"), **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: hom_push(LAM3, identity_hom(Z32)),
     "eigen list does not live on the hom's source group"),
    (lambda: lift_along_hom(LAM3, identity_hom(Z32)),
     "eigen list does not live on the hom's target group"),
    (lambda: lift_along_hom(EigenList(Z4, [2, 1, 0.5, 0.5]), HomSpec(Z4, Z4, ((2,),))),
     "hom is not surjective; restrict to its image first"),
    (lambda: apply_automorphism(LAM3, inversion_automorphism(Z32)),
     "eigen list does not live on the automorphism's group"),
    (lambda: equality_fold([]), "equality fold needs at least one operand"),
    (lambda: _run_mp(mode="fast"), "unknown mode 'fast'"),
    (lambda: _run_mp(mode="sampled"), "sampled mode requires a seed"),
], ids=["hom-off-source", "lift-off-target", "lift-not-onto", "automorphism-off-group",
        "empty-fold", "unknown-mode", "sampled-without-seed"])
def test_rule_rejections(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.type is ValidationError and str(exc.value) == message


def test_z2_rules_reduce_to_binary_bpqm_closed_forms():
    """On Z2 a list is fixed by its overlap c = (lam0 - lam1) / 2.  Equality
    multiplies overlaps, and the check heralds the parity with Renes's binary
    BPQM closed forms (New J. Phys. 19, 072001, 2017): herald 0 has probability
    (1 + c1 c2) / 2 and overlap (c1 + c2) / (1 + c1 c2), herald 1 probability
    (1 - c1 c2) / 2 and overlap (c2 - c1) / (1 - c1 c2)."""
    Z2, rng = GroupSpec((2,)), np.random.default_rng(2017)
    overlap = lambda lam: (lam[0] - lam[1]) / 2
    for a, b in rng.uniform(0.0, 2.0, size=(1000, 2)):
        lam1, lam2 = EigenList(Z2, [a, 2 - a]), EigenList(Z2, [b, 2 - b])
        c1, c2 = overlap(lam1.values), overlap(lam2.values)
        assert overlap(equality_combine(lam1, lam2).values) == pytest.approx(c1 * c2, abs=1e-12)
        msg = check_combine(lam1, lam2)
        got = {labels: (p, overlap(lam)) for p, lam, labels in rows(msg)}
        expected = {("check:(0)",): ((1 + c1 * c2) / 2, (c1 + c2) / (1 + c1 * c2)),
                    ("check:(1)",): ((1 - c1 * c2) / 2, (c2 - c1) / (1 - c1 * c2))}
        assert got.keys() == expected.keys()
        for labels, (p, c) in expected.items():
            assert got[labels] == pytest.approx((p, c), abs=1e-12)
