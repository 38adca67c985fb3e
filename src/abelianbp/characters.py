"""Dual groups, character evaluation, dual maps, and coset decompositions.

Characters of Z_{n_0} x ... x Z_{n_{k-1}} are indexed by residue vectors just
like elements (self-duality):

    chi_u(a) = exp(2*pi*i * sum_j u_j * a_j / n_j)

Character indices share the canonical mixed-radix linear order of elements
(first coordinate fastest).  Phases are accumulated as exact integers over a
common denominator lcm(n_j) before a single complex exponential, so unit-circle
values carry no accumulation error.  The dual map of a hom is itself a hom,
`dual_hom`, so `groups.hom_table` is the single place where it acts on indices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpec,
    digits,
    group_inv,
    group_op,
    hom_eval,
    hom_table,
    index_array,
)


class CharIndex(GroupElement):
    """A character of `group`, identified by its residue vector (self-duality):
    validated, indexed and compared as a `GroupElement`."""

    def is_trivial(self) -> bool:
        return self.is_identity()

    def __str__(self):
        return "chi" + super().__str__()


def trivial_char(G: GroupSpec) -> CharIndex:
    return CharIndex(G, (0,) * G.rank)


def char_from_index(G: GroupSpec, index: int) -> CharIndex:
    return CharIndex(G, G.from_index(index).residues)


def char_eval(chi: CharIndex, g: GroupElement) -> complex:
    """chi(g) as a unit-modulus complex number."""
    if chi.group.moduli != g.group.moduli:
        raise ValidationError("character and element belong to different groups")
    L = chi.group.exponent()
    num = 0
    for u, a, n in zip(chi.residues, g.residues, chi.group.moduli):
        num = (num + u * a * (L // n)) % L
    return complex(np.exp(2j * np.pi * num / L))


def dual_op(c1: CharIndex, c2: CharIndex) -> CharIndex:
    """Pointwise product of characters: the group operation on residues."""
    return CharIndex(c1.group, group_op(c1, c2).residues)


def dual_inv(c: CharIndex) -> CharIndex:
    return CharIndex(c.group, group_inv(c).residues)


# ---------------------------------------------------------------------------
# dual maps of homomorphisms


@functools.lru_cache(maxsize=None)
def dual_hom(H: HomSpec) -> HomSpec:
    """The dual map of H, a hom from the target's characters to the source's.

    Closed form: it pulls xi = (r_i) back to the character with coordinate j
    ``sum_i r_i * (n_j * M[i][j] / m_i)  mod n_j`` -- every summand is an
    integer exactly when H is a valid homomorphism, and the matrix
    ``n_j * M[i][j] / m_i`` is a valid hom since ``m_i`` times it is 0 mod n_j.
    """
    return HomSpec(H.target, H.source, tuple(
        tuple(n * H.matrix[i][j] // m for i, m in enumerate(H.target.moduli))
        for j, n in enumerate(H.source.moduli)))


def dual_map(H: HomSpec, xi: CharIndex) -> CharIndex:
    """Pullback of the target character `xi` along H: (xi o H) on the source."""
    if xi.group.moduli != H.target.moduli:
        raise ValidationError("character does not belong to the target group")
    return CharIndex(H.source, hom_eval(dual_hom(H), xi).residues)


def dual_map_table(H: HomSpec) -> np.ndarray:
    """Array mapping each target character index to its pullback's source index."""
    return hom_table(dual_hom(H))


@dataclass(frozen=True)
class DualSubgroup:
    """A subgroup of the dual group, stored as sorted canonical indices."""

    group: GroupSpec
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(int(i) for i in self.members))
        object.__setattr__(self, "members", mem)
        if len(set(mem)) != len(mem):
            raise ValidationError("duplicate members in dual subgroup")
        if 0 not in mem:
            raise ValidationError("dual subgroup must contain the trivial character")
        if self.group.order % len(mem) != 0:
            raise ValidationError("subgroup size does not divide the dual order")
        if not (0 <= mem[0] and mem[-1] < self.group.order):
            raise ValidationError(f"member index out of range for order {self.group.order}")
        res = digits(self.group, mem)
        outside = np.flatnonzero(~np.isin(index_array(self.group, -res), mem))
        if outside.size:
            ci = CharIndex(self.group, res[outside[0]])
            raise ValidationError(f"dual subgroup not closed under inverse at {ci}")
        # closure under the dual product (sufficient with inverses above)
        if not all(np.isin(index_array(self.group, res + r), mem).all() for r in res):
            raise ValidationError("dual subgroup not closed under product")

    @property
    def size(self) -> int:
        return len(self.members)


def dual_image(H: HomSpec) -> DualSubgroup:
    """Range of the dual map = characters of the source trivial on ker(H).

    Requires H surjective (then the dual map is injective); callers holding a
    non-surjective hom should restrict to the image first
    (`groups.surjection_onto_image`).
    """
    pulled = dual_map_table(H).tolist()
    if len(set(pulled)) != H.target.order:
        raise ValidationError(
            "hom is not surjective; restrict to its image before taking the dual image"
        )
    return DualSubgroup(H.source, tuple(sorted(pulled)))


@dataclass(frozen=True)
class CosetTable:
    """Coset decomposition of the dual group by a dual subgroup.

    ``reps`` holds one representative per coset; ``membership`` maps every
    character index to ``(rep_index, residual_index)``.  For tables built from
    a surjective hom the residual indexes a character of the hom's target
    group (the unique xi with chi = rep * dual_map(xi)); for tables built from
    a bare subgroup it indexes the subgroup member itself.
    """

    subgroup: DualSubgroup
    reps: tuple[int, ...]
    membership: dict

    @property
    def group(self) -> GroupSpec:
        return self.subgroup.group


def coset_table(sub: DualSubgroup) -> CosetTable:
    """Cosets of `sub`; representatives are lexicographically smallest tuples."""
    G = sub.group
    members = digits(G, sub.members)
    d = digits(G, np.arange(G.order))
    assigned = {}
    reps = []
    for i in sorted(range(G.order), key=d.tolist().__getitem__):   # lex order
        if i not in assigned:
            reps.append(i)
            coset = index_array(G, d[i] + members).tolist()
            assigned.update(zip(coset, ((i, s) for s in sub.members)))
    return CosetTable(sub, tuple(reps), assigned)


@functools.lru_cache(maxsize=None)
def coset_table_for_hom(H: HomSpec) -> CosetTable:
    """Coset table of Im(dual_map) with residuals indexed by target characters."""
    table = coset_table(dual_image(H))
    xi_of = {pulled: xi for xi, pulled in enumerate(dual_map_table(H).tolist())}
    return CosetTable(table.subgroup, table.reps,
                      {chi: (rep, xi_of[s]) for chi, (rep, s) in table.membership.items()})


# ---------------------------------------------------------------------------
# cached per-group index tables and character matrices


class GroupTables:
    """Dense index tables and the character matrix for one group.

    ``chars[g, c]`` is the c-th character evaluated at the g-th element; the
    matrix satisfies ``chars.conj().T @ chars = order * I`` (orthogonality).
    """

    def __init__(self, G: GroupSpec):
        d = digits(G, np.arange(G.order))
        self.add = np.stack([index_array(G, d + row) for row in d])   # rows: no N^2 x rank array
        self.neg = index_array(G, -d)
        self.sub = self.add[:, self.neg]
        L = G.exponent()
        phase = (d * np.array([L // n for n in G.moduli], dtype=np.int64)) @ d.T % L
        self.chars = np.exp(2j * np.pi * phase / L)


@functools.lru_cache(maxsize=None)
def tables_for(G: GroupSpec) -> GroupTables:
    if G.order > 4096:
        raise ValidationError(f"dense tables requested for order {G.order} > 4096")
    return GroupTables(G)
