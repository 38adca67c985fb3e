import numpy as np
import pytest

from abelianbp import (
    CharIndex,
    GroupSpec,
    HomSpec,
    ValidationError,
    char_eval,
    coset_table,
    coset_table_for_hom,
    dual_image,
    dual_inv,
    dual_map,
    dual_op,
    hom_eval,
    identity_hom,
    inversion_automorphism,
    projection_hom,
    trivial_char,
)
from abelianbp.characters import char_from_index, tables_for

Z32 = GroupSpec((3, 2))
G432 = GroupSpec((4, 3, 2))
G43 = GroupSpec((4, 3))
HOM_A_PLUS_2C = HomSpec(G432, G43, ((1, 0, 2), (0, 1, 0)))

OMEGA = np.exp(2j * np.pi / 3)


def test_char_eval_worked_values():
    assert char_eval(trivial_char(Z32), Z32.element((2, 1))) == pytest.approx(1.0)
    assert char_eval(CharIndex(Z32, (1, 0)), Z32.element((1, 0))) == pytest.approx(OMEGA)
    assert char_eval(CharIndex(Z32, (0, 1)), Z32.element((0, 1))) == pytest.approx(-1.0)


def test_char_eval_is_unit_modulus():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = char_from_index(G432, int(rng.integers(24)))
        g = G432.from_index(int(rng.integers(24)))
        assert abs(char_eval(c, g)) == pytest.approx(1.0, abs=1e-14)


def test_dual_algebra():
    c1 = CharIndex(Z32, (1, 1))
    c2 = CharIndex(Z32, (2, 1))
    assert dual_op(c1, c2).residues == (0, 0)
    assert dual_op(c1, dual_inv(c1)).is_trivial()
    assert dual_inv(CharIndex(Z32, (1, 0))).residues == (2, 0)
    g = Z32.element((1, 1))
    assert char_eval(dual_op(c1, c2), g) == pytest.approx(char_eval(c1, g) * char_eval(c2, g))


def test_character_orthogonality():
    for moduli in [(2,), (3,), (4,), (6,), (2, 2), (3, 2), (4, 3, 2)]:
        G = GroupSpec(moduli)
        chars = tables_for(G).chars
        gram = chars.conj().T @ chars
        assert np.max(np.abs(gram - G.order * np.eye(G.order))) < 1e-10


def test_dual_map_closed_form_examples():
    for (r, s) in [(0, 0), (1, 0), (2, 2), (3, 1)]:
        xi = CharIndex(G43, (r, s))
        assert dual_map(HOM_A_PLUS_2C, xi).residues == (r, s, r % 2)
    ident = identity_hom(Z32)
    for i in range(6):
        c = char_from_index(Z32, i)
        assert dual_map(ident, c) == c
    inv = inversion_automorphism(Z32)
    for i in range(6):
        c = char_from_index(Z32, i)
        assert dual_map(inv, c) == dual_inv(c)


def test_dual_map_agrees_with_bruteforce():
    G4322 = GroupSpec((4, 3, 2, 2))   # order 48
    homs = [HOM_A_PLUS_2C, identity_hom(Z32), inversion_automorphism(G43),
            projection_hom(Z32, (0,)), HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0))),
            HomSpec(G4322, G43, ((1, 0, 2, 2), (0, 1, 0, 0))),
            projection_hom(G4322, (0, 2))]
    for H in homs:
        for t in range(H.target.order):
            xi = char_from_index(H.target, t)
            pulled = dual_map(H, xi)
            # brute force: the unique chi with chi(g) = xi(H(g)) for all g
            for g in H.source.elements():
                lhs = char_eval(pulled, g)
                rhs = char_eval(xi, hom_eval(H, g))
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dual_image_examples():
    sub = dual_image(HOM_A_PLUS_2C)
    members = {G432.from_index(i).residues for i in sub.members}
    assert members == {(u, v, w) for u in range(4) for v in range(3)
                       for w in range(2) if w == u % 2}
    assert dual_image(identity_hom(Z32)).size == 6
    proj = projection_hom(Z32, (0,))
    sub2 = dual_image(proj)
    assert {Z32.from_index(i).residues for i in sub2.members} == {(0, 0), (1, 0), (2, 0)}


def test_dual_image_rejects_non_surjective():
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    with pytest.raises(ValidationError, match="restrict"):
        dual_image(H2)


def test_dual_image_size_identity():
    from abelianbp import hom_kernel
    for H in [HOM_A_PLUS_2C, projection_hom(Z32, (0,)), identity_hom(G43)]:
        sub = dual_image(H)
        assert H.source.order // sub.size == len(hom_kernel(H))


def test_coset_table_reference_representatives():
    ct = coset_table_for_hom(HOM_A_PLUS_2C)
    reps = [G432.from_index(i).residues for i in ct.reps]
    assert reps == [(0, 0, 0), (0, 0, 1)]

    from abelianbp import surjection_onto_image
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    surj, _ = surjection_onto_image(H2)
    ct2 = coset_table_for_hom(surj)
    reps2 = {G432.from_index(i).residues for i in ct2.reps}
    assert reps2 == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)}


def test_coset_table_full_dual_group():
    ct = coset_table_for_hom(identity_hom(Z32))
    assert [Z32.from_index(i).residues for i in ct.reps] == [(0, 0)]


def test_coset_table_disjoint_union():
    for H in [HOM_A_PLUS_2C, projection_hom(Z32, (0,))]:
        ct = coset_table_for_hom(H)
        assert len(ct.membership) == H.source.order
        assert len(ct.reps) * ct.subgroup.size == H.source.order
        # unique factorization chi = rep * dual_map(xi)
        seen = set()
        for chi, (rep, xi) in ct.membership.items():
            pulled = dual_map(H, char_from_index(H.target, xi))
            prod = dual_op(char_from_index(H.source, rep), pulled)
            assert prod.index == chi
            seen.add(chi)
        assert len(seen) == H.source.order


def test_coset_table_from_bare_subgroup():
    sub = dual_image(HOM_A_PLUS_2C)
    ct = coset_table(sub)
    assert [G432.from_index(i).residues for i in ct.reps] == [(0, 0, 0), (0, 0, 1)]
    for chi, (rep, s) in ct.membership.items():
        assert s in sub.members
        prod = dual_op(char_from_index(G432, rep), char_from_index(G432, s))
        assert prod.index == chi


@pytest.mark.parametrize("members, match", [
    ((0, 1, 1), "duplicate"),
    ((1, 2), "trivial character"),
    ((0, 1, 2, 3), "does not divide"),
    ((0, 1), "inverse"),
    ((0, 4, 5), "product"),
    ((0, 6), "out of range"),
    ((-6, 0), "out of range"),
])
def test_dual_subgroup_rejects_non_subgroups(members, match):
    from abelianbp.characters import DualSubgroup

    # on Z3xZ2, index 1 is chi(1,0) and 4 is chi(1,1), the inverses of 2 and 5
    with pytest.raises(ValidationError, match=match):
        DualSubgroup(Z32, members)


def test_dual_op_and_inverse_are_the_group_operations_on_residues():
    from abelianbp.groups import group_inv, group_op

    for c1 in G43.elements():
        chi1 = CharIndex(G43, c1.residues)
        assert dual_inv(chi1).residues == group_inv(c1).residues
        for c2 in G43.elements():
            assert dual_op(chi1, CharIndex(G43, c2.residues)).residues == group_op(c1, c2).residues


def test_char_index_prints_as_chi_and_validates_as_an_element():
    assert str(CharIndex(Z32, (2, 1))) == "chi(2,1)"
    assert str(char_from_index(G432, 23)) == "chi(3,2,1)"
    assert CharIndex(Z32, (0, 0)).is_trivial() and not CharIndex(Z32, (0, 1)).is_trivial()
    with pytest.raises(ValidationError, match="residue 3 out of range for modulus 3"):
        CharIndex(Z32, (3, 0))
    with pytest.raises(ValidationError, match="element length 1 != group rank 2"):
        CharIndex(Z32, (1,))
    with pytest.raises(ValidationError, match="group mismatch"):
        dual_op(CharIndex(Z32, (1, 0)), CharIndex(G43, (1, 0)))
