"""Algebraic laws of the local rules, checked on random groups of order <= 24.

The profile is derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    equality_combine,
    hom_push_supported,
    lift_along_hom,
    perfect_list,
    surjection_onto_image,
    useless_list,
)

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
def surjective_homs(draw):
    """A random hom restricted to a surjection onto its image."""
    G1, G2 = draw(groups()), draw(groups())
    # entries that are multiples of m_i / gcd(n_j, m_i) always give a hom
    matrix = tuple(
        tuple(draw(st.integers(0, m)) * (m // math.gcd(n, m)) for n in G1.moduli)
        for m in G2.moduli
    )
    surj, _ = surjection_onto_image(HomSpec(G1, G2, matrix))
    return surj


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
