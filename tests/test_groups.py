import numpy as np
import pytest

from abelianbp import (
    GroupSpec,
    HomSpec,
    ValidationError,
    compose_homs,
    direct_product,
    group_inv,
    group_op,
    hom_eval,
    hom_image,
    hom_kernel,
    hom_validate,
    identity_hom,
    inversion_automorphism,
    invert_automorphism,
    is_automorphism,
    join_element,
    permute_coordinates,
    projection_hom,
    split_element,
    surjection_onto_image,
)
from abelianbp.groups import element_order, hom_table, is_surjective

Z32 = GroupSpec((3, 2))
Z4 = GroupSpec((4,))
G432 = GroupSpec((4, 3, 2))
G43 = GroupSpec((4, 3))

HOM_A_PLUS_2C = HomSpec(G432, G43, ((1, 0, 2), (0, 1, 0)))  # (a,b,c) -> (a+2c, b)


def test_group_spec_basics():
    assert Z32.order == 6
    assert GroupSpec(()).order == 1
    assert str(Z32) == "Z3xZ2"
    with pytest.raises(ValidationError):
        GroupSpec((3, 1))


def test_canonical_index_first_coordinate_fastest():
    order = [Z32.from_index(i).residues for i in range(6)]
    assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    for i in range(6):
        assert Z32.index_of(Z32.from_index(i).residues) == i


def test_group_op_examples():
    assert group_op(Z32.element((1, 1)), Z32.element((2, 1))).residues == (0, 0)
    g = Z32.element((2, 1))
    assert group_op(Z32.identity(), g) == g
    assert group_op(Z4.element((3,)), Z4.element((3,))).residues == (2,)


def test_group_inv_examples():
    assert group_inv(Z32.element((1, 1))).residues == (2, 1)
    assert group_inv(Z32.identity()).residues == (0, 0)
    assert group_inv(Z4.element((1,))).residues == (3,)


def test_group_op_rejects_mismatched_groups():
    with pytest.raises(ValidationError):
        group_op(Z4.element((1,)), Z32.element((1, 0)))


def test_hom_validate():
    hom_validate(HOM_A_PLUS_2C)
    hom_validate(identity_hom(Z32))
    with pytest.raises(ValidationError):
        hom_validate(HomSpec(GroupSpec((2,)), GroupSpec((3,)), ((1,),)))


def test_hom_eval_examples():
    assert hom_eval(HOM_A_PLUS_2C, G432.element((2, 0, 1))).residues == (0, 0)
    assert hom_eval(HOM_A_PLUS_2C, G432.identity()).is_identity()
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    assert hom_eval(H2, G432.element((1, 0, 0))).residues == (2, 0)


def test_kernel_and_image():
    ker = hom_kernel(HOM_A_PLUS_2C)
    assert [k.residues for k in ker] == [(0, 0, 0), (2, 0, 1)]
    assert [k.residues for k in hom_kernel(identity_hom(Z32))] == [(0, 0)]
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    img = hom_image(H2)
    assert len(img) == 6
    assert {el.residues[0] for el in img} == {0, 2}
    assert {el.residues[1] for el in img} == {0, 1, 2}


def test_kernel_image_order_identity():
    rng = np.random.default_rng(11)
    groups = [GroupSpec((2,)), GroupSpec((4,)), GroupSpec((6,)), Z32,
              GroupSpec((2, 2)), G432, GroupSpec((8, 8))]
    for G in groups:
        for _ in range(20):
            target = GroupSpec((4, 3)) if G.order % 2 == 0 else GroupSpec((3,))
            mat = _random_hom_matrix(G, target, rng)
            H = HomSpec(G, target, mat)
            assert len(hom_kernel(H)) * len(hom_image(H)) == G.order


def _random_hom_matrix(src, tgt, rng):
    rows = []
    for m in tgt.moduli:
        row = []
        for n in src.moduli:
            step = m // np.gcd(n, m)
            row.append(int(rng.integers(0, m // step)) * step)
        rows.append(tuple(row))
    return tuple(rows)


def test_hom_is_homomorphism_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        H = HomSpec(G432, G43, _random_hom_matrix(G432, G43, rng))
        for _ in range(100):
            g1 = G432.from_index(int(rng.integers(G432.order)))
            g2 = G432.from_index(int(rng.integers(G432.order)))
            lhs = hom_eval(H, group_op(g1, g2))
            rhs = group_op(hom_eval(H, g1), hom_eval(H, g2))
            assert lhs == rhs


def test_automorphisms():
    inv = inversion_automorphism(Z32)
    assert is_automorphism(inv)
    assert invert_automorphism(inv).matrix == inv.matrix  # involution
    assert is_automorphism(identity_hom(Z32))
    doubling = HomSpec(Z4, Z4, ((2,),))
    assert not is_automorphism(doubling)
    with pytest.raises(ValidationError):
        invert_automorphism(doubling)


def test_invert_automorphism_composes_to_identity():
    rng = np.random.default_rng(3)
    for G in [Z32, GroupSpec((2, 2)), Z4, GroupSpec((6,))]:
        found = 0
        while found < 3:
            mat = _random_hom_matrix(G, G, rng)
            H = HomSpec(G, G, mat)
            if not is_automorphism(H):
                continue
            found += 1
            Hinv = invert_automorphism(H)
            comp = compose_homs(Hinv, H)
            for g in G.elements():
                assert hom_eval(comp, g) == g


def test_product_structure():
    assert direct_product(GroupSpec((3,)), GroupSpec((2,))).moduli == (3, 2)
    j = join_element(GroupSpec((3,)).element((1,)), GroupSpec((2,)).element((0,)))
    assert j.residues == (1, 0)
    a, b = split_element(Z32.element((2, 1)), 1)
    assert a.residues == (2,) and b.residues == (1,)
    swap = permute_coordinates(Z32, (1, 0))
    assert hom_eval(swap, Z32.element((1, 0))).residues == (0, 1)
    assert is_automorphism(compose_homs(permute_coordinates(swap.target, (1, 0)), swap))
    with pytest.raises(ValidationError):
        permute_coordinates(Z32, (0, 0))


def test_surjection_onto_image_coordinatewise():
    H2 = HomSpec(G432, G43, ((2, 0, 2), (0, 1, 0)))
    surj, embed = surjection_onto_image(H2)
    assert surj.target.moduli == (2, 3)
    assert surj.matrix == ((1, 0, 1), (0, 1, 0))
    assert is_surjective(surj)
    for g in G432.elements():
        assert hom_eval(embed, hom_eval(surj, g)) == hom_eval(H2, g)


def test_surjection_onto_image_diagonal():
    Z2 = GroupSpec((2,))
    H = HomSpec(Z2, GroupSpec((2, 2)), ((1,), (1,)))
    surj, embed = surjection_onto_image(H)
    assert surj.target.order == 2
    assert is_surjective(surj)
    for g in Z2.elements():
        assert hom_eval(embed, hom_eval(surj, g)) == hom_eval(H, g)


def test_surjection_onto_a_non_coordinate_image():
    """The image {000, 101, 011, 110} of Z4xZ2 in Z2^3 is neither cyclic nor
    the product of its coordinate projections, so its basis comes from the
    quotient recursion of `_abstract_basis`."""
    H = HomSpec(GroupSpec((4, 2)), GroupSpec((2, 2, 2)), ((1, 0), (0, 1), (1, 1)))
    surj, embed = surjection_onto_image(H)
    assert surj.target.moduli == (2, 2) and is_surjective(surj)
    assert hom_table(compose_homs(embed, surj)).tolist() == hom_table(H).tolist()


def test_element_order():
    assert element_order(Z32.element((1, 1))) == 6
    assert element_order(Z32.identity()) == 1
    assert element_order(Z4.element((2,))) == 2


@pytest.mark.parametrize("moduli", [(4, 3, 2), (2, 2, 2), (6,), ()])
def test_hom_table_agrees_with_hom_eval(moduli):
    from abelianbp.groups import hom_table
    from abelianbp.oracle import random_hom

    G = GroupSpec(moduli)
    rng = np.random.default_rng(17)
    for _ in range(20):
        H = random_hom(G, rng)
        assert hom_table(H).tolist() == [hom_eval(H, g).index for g in G.elements()]


@pytest.mark.parametrize("H, table", [
    # 2 * 2^62 leaves int64 although the target order 3 * 2^61 does not
    (HomSpec(GroupSpec((3,)), GroupSpec((3 * 2**61,)), ((2**62,),)), [0, 2**62, 2**61]),
    # target order 2^80: (0, 2^39) has index 2^79
    (HomSpec(GroupSpec((2,)), GroupSpec((2**40, 2**40)), ((0,), (2**39,))), [0, 2**79]),
])
def test_hom_table_stays_exact_past_int64(H, table):
    from abelianbp.groups import hom_table

    assert hom_table(H).tolist() == table == [hom_eval(H, g).index for g in H.source.elements()]
    assert hom_kernel(H) == (H.source.identity(),)
    surj, embed = surjection_onto_image(H)
    assert surj.target.order == H.source.order
    assert compose_homs(embed, surj) == H


def test_hom_table_raises_past_the_enumeration_cap():
    from abelianbp.characters import dual_map_table
    from abelianbp.groups import ENUMERATION_CAP, hom_table

    big = GroupSpec((1001, 1001))
    assert big.order > ENUMERATION_CAP
    with pytest.raises(ValidationError, match="enumeration cap"):
        hom_table(identity_hom(big))
    with pytest.raises(ValidationError, match="enumeration cap"):
        dual_map_table(HomSpec(GroupSpec((3,)), GroupSpec((3 * 2**61,)), ((2**62,),)))


def test_is_automorphism_rejects_invalid_homs_and_raises_past_the_cap():
    from abelianbp.groups import ENUMERATION_CAP

    with pytest.raises(ValidationError, match="not a homomorphism"):
        HomSpec(Z32, Z32, ((1, 1), (0, 1)))                             # 2*1 != 0 mod 3
    assert not is_automorphism(HomSpec(Z32, Z32, ((1, 0), (0, 0))))    # a hom, not onto
    big = GroupSpec((1001, 1001))
    assert big.order > ENUMERATION_CAP
    with pytest.raises(ValidationError, match="enumeration cap"):
        is_automorphism(identity_hom(big))


@pytest.mark.parametrize("build, message", [
    (lambda: HomSpec(GroupSpec((3,)), Z32, ((1,),)), "matrix has 1 rows, target rank is 2"),
    (lambda: HomSpec(Z32, GroupSpec((3,)), ((1,),)), "matrix row length 1 != source rank 2"),
    (lambda: projection_hom(Z32, [-1]), "projection coordinates [-1] outside range(2)"),
    (lambda: projection_hom(Z32, [2]), "projection coordinates [2] outside range(2)"),
], ids=["rows-not-target-rank", "row-not-source-rank", "projection-negative",
        "projection-past-rank"])
def test_malformed_homs_are_rejected_when_built(build, message):
    """A matrix of the wrong shape, and a projection onto a coordinate the
    group lacks (-1 built the zero map onto the last factor, 2 an IndexError)."""
    with pytest.raises(ValidationError) as info:
        build()
    assert message in str(info.value)
