"""Algebraic laws of the local rules, checked on random groups of order <= 24.

The profile is derandomized, so every run draws the same examples.
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianbp import (
    EigenList,
    GroupSpec,
    HeraldedMessage,
    HomSpec,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    equality_combine,
    hom_push_supported,
    lift_along_hom,
    merge_duplicates,
    perfect_list,
    surjection_onto_image,
    useless_list,
)
from abelianbp import factors
from abelianbp.factors import (
    _adjoin,
    _automorphism,
    _check,
    _equality,
    _hom,
    _hom_supported,
    _lift,
    _marginalize,
    _product_apply,
    adjoin_uniform,
    apply_automorphism,
    hom_push,
    marginalize_split,
)
from abelianbp.groups import is_automorphism
from abelianbp.messages import PROB_FLOOR
from abelianbp.polar import polar_minus, polar_plus
from message_rows import rows

MAX_ORDER = 24
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def groups(draw):
    moduli, order = [], 1
    for _ in range(draw(st.integers(1, 3))):
        if MAX_ORDER // order < 2:
            break
        n = draw(st.integers(2, MAX_ORDER // order))
        moduli.append(n)
        order *= n
    return GroupSpec(tuple(moduli))


def eigen_lists(draw, G):
    v = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=G.order, max_size=G.order)))
    v[draw(st.integers(0, G.order - 1))] += 1.0     # keep the total positive
    return EigenList(G, v * G.order / v.sum())


@st.composite
def group_and_lists(draw, count):
    G = draw(groups())
    return G, [eigen_lists(draw, G) for _ in range(count)]


@st.composite
def homs(draw, G1=None):
    G1, G2 = G1 or draw(groups()), draw(groups())
    # entries that are multiples of m_i / gcd(n_j, m_i) always give a hom
    matrix = tuple(
        tuple(draw(st.integers(0, m)) * (m // math.gcd(n, m)) for n in G1.moduli)
        for m in G2.moduli
    )
    return HomSpec(G1, G2, matrix)


@st.composite
def surjective_homs(draw, G1=None):
    """A random hom restricted to a surjection onto its image."""
    surj, _ = surjection_onto_image(draw(homs(G1)))
    return surj


@st.composite
def automorphisms(draw, G):
    """An upper-triangular hom with a unit on the diagonal, hence invertible."""
    matrix = []
    for i, m in enumerate(G.moduli):
        row = []
        for j, n in enumerate(G.moduli):
            if i == j:
                row.append(draw(st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1])))
            else:
                row.append(draw(st.integers(0, m)) * (m // math.gcd(n, m)) if j > i else 0)
        matrix.append(tuple(row))
    phi = HomSpec(G, G, tuple(matrix))
    assert is_automorphism(phi)
    return phi


def mixtures(draw, G):
    """A heralded mixture of one to three random lists with distinct labels."""
    k = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return HeraldedMessage.of(G, w / w.sum(), [eigen_lists(draw, G).values for _ in range(k)],
                              [(f"x{i}",) for i in range(k)])


def close(a: EigenList, b: EigenList) -> bool:
    return a.group.moduli == b.group.moduli and np.allclose(a.values, b.values, atol=1e-9)


@PROFILE
@given(group_and_lists(2))
def test_equality_commutes(case):
    _, (a, b) = case
    assert close(equality_combine(a, b), equality_combine(b, a))


@PROFILE
@given(group_and_lists(3))
def test_equality_associates(case):
    _, (a, b, c) = case
    assert close(equality_combine(equality_combine(a, b), c),
                 equality_combine(a, equality_combine(b, c)))


@PROFILE
@given(group_and_lists(1))
def test_useless_is_identity_and_perfect_absorbs(case):
    G, (a,) = case
    for other, want in ((useless_list(G), a), (perfect_list(G), perfect_list(G))):
        assert close(equality_combine(a, other), want)
        assert close(equality_combine(other, a), want)


@PROFILE
@given(group_and_lists(2))
def test_check_ensemble_invariant_under_swap(case):
    _, (a, b) = case
    ab, ba = check_combine(a, b), check_combine(b, a)
    assert math.isclose(avg_holevo(ab), avg_holevo(ba), abs_tol=1e-9)
    assert math.isclose(avg_pgm_error(ab), avg_pgm_error(ba), abs_tol=1e-9)


@PROFILE
@given(st.data())
def test_push_supported_inverts_lift(data):
    H = data.draw(surjective_homs())
    lam = eigen_lists(data.draw, H.target)
    assert close(hom_push_supported(lift_along_hom(lam, H), H), lam)


def reference_m(msgs, rule):
    """The herald lift of a pure rule, one branch tuple at a time."""
    out = []
    stack = [((), 1.0, ())]
    for msg in msgs:
        grown = [(lams + (EigenList(msg.group, b.lam),), p * b.prob, labels + b.labels)
                 for (lams, p, labels) in stack for b in rows(msg)]
        stack = [e for e in grown if e[1] >= PROB_FLOOR] or grown
    for lams, p, labels in stack:
        result = rule(*lams)
        group = result.group
        if isinstance(result, HeraldedMessage):
            out += [(p * b.prob, b.lam, labels + b.labels) for b in rows(result)]
        else:
            out.append((p, result.values, labels))
    probs, lams, labels = zip(*out)
    total = sum(probs)
    return merge_duplicates(HeraldedMessage.of(group, [q / total for q in probs], lams, labels))


def same_mixture(got, want):
    assert got.group.moduli == want.group.moduli
    assert len(got) == len(want)
    for g, w in zip(rows(got), rows(want)):
        assert g.labels == w.labels
        assert abs(g.prob - w.prob) <= 1e-12
        assert np.max(np.abs(g.lam - w.lam)) <= 1e-12


@PROFILE
@given(st.data())
def test_batched_rules_match_per_branch_rules(data):
    # a small block budget runs the rule kernels on one or a few pairs at a time
    with patch.object(factors, "ROW_FLOATS", data.draw(st.sampled_from([1 << 18, 64, 1]))):
        check_batched_rules(data.draw)


def check_batched_rules(draw):
    G = draw(groups())
    m1, m2 = mixtures(draw, G), mixtures(draw, G)
    same_mixture(_product_apply([m1, m2], _check(G)), reference_m([m1, m2], check_combine))
    same_mixture(_product_apply([m1, m2], _equality(G)), reference_m([m1, m2], equality_combine))
    H = draw(homs(G))
    same_mixture(_product_apply([m1], _hom(G, H)), reference_m([m1], lambda lam: hom_push(lam, H)))
    S = draw(surjective_homs(G))
    lifted = mixtures(draw, S.target)
    same_mixture(_product_apply([lifted], _lift(S.target, S)),
                 reference_m([lifted], lambda lam: lift_along_hom(lam, S)))
    supported = _product_apply([lifted], _lift(S.target, S))
    same_mixture(_product_apply([supported], _hom_supported(supported.group, S)),
                 reference_m([supported], lambda lam: hom_push_supported(lam, S)))
    keep = draw(st.integers(0, G.rank))
    same_mixture(_product_apply([m1], _marginalize(G, keep)),
                 reference_m([m1], lambda lam: marginalize_split(lam, keep)))
    phi = draw(automorphisms(G))
    same_mixture(_product_apply([m1], _automorphism(G, phi)),
                 reference_m([m1], lambda lam: apply_automorphism(lam, phi)))
    fresh = GroupSpec((draw(st.integers(2, 4)),))
    same_mixture(_product_apply([m1], _adjoin(G, fresh)),
                 reference_m([m1], lambda lam: adjoin_uniform(lam, fresh)))


@PROFILE
@given(st.data())
def test_polar_pair_conserves_holevo_information(data):
    G = data.draw(groups())
    m1, m2 = mixtures(data.draw, G), mixtures(data.draw, G)
    total = avg_holevo(polar_minus(m1, m2)) + avg_holevo(polar_plus(m1, m2))
    assert math.isclose(total, avg_holevo(m1) + avg_holevo(m2), abs_tol=1e-9)
