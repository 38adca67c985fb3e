"""Dual groups, character evaluation, dual maps, and coset decompositions.

Characters of Z_{n_0} x ... x Z_{n_{k-1}} are indexed by residue vectors just
like elements (self-duality):

    chi_u(a) = exp(2*pi*i * sum_j u_j * a_j / n_j)

Character indices share the canonical mixed-radix linear order of elements
(first coordinate fastest).  Phases are accumulated as exact integers over a
common denominator lcm(n_j) before a single complex exponential, so unit-circle
values carry no accumulation error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .groups import (
    GroupElement,
    GroupSpec,
    HomSpec,
    hom_validate,
)


@dataclass(frozen=True)
class CharIndex:
    """A character of `group`, identified by its residue vector."""

    group: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self):
        res = tuple(int(u) for u in self.residues)
        object.__setattr__(self, "residues", res)
        if len(res) != self.group.rank:
            raise ValidationError("character index length != group rank")
        for u, n in zip(res, self.group.moduli):
            if not 0 <= u < n:
                raise ValidationError(f"character residue {u} out of range for modulus {n}")

    @property
    def index(self) -> int:
        return self.group.index_of(self.residues)

    def is_trivial(self) -> bool:
        return all(u == 0 for u in self.residues)

    def __str__(self):
        return "chi(" + ",".join(map(str, self.residues)) + ")"


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
    """Pointwise product of characters: residue-wise modular sum."""
    if c1.group.moduli != c2.group.moduli:
        raise ValidationError("dual group mismatch")
    res = tuple((u + v) % n for u, v, n in zip(c1.residues, c2.residues, c1.group.moduli))
    return CharIndex(c1.group, res)


def dual_inv(c: CharIndex) -> CharIndex:
    return CharIndex(c.group, tuple((-u) % n for u, n in zip(c.residues, c.group.moduli)))


# ---------------------------------------------------------------------------
# dual maps of homomorphisms


def dual_map(H: HomSpec, xi: CharIndex) -> CharIndex:
    """Pullback of the target character `xi` along H: (xi o H) on the source.

    Closed form: coordinate j of the result is
    ``sum_i r_i * (n_j * M[i][j] / m_i)  mod n_j`` -- every summand is an
    integer exactly when H is a valid homomorphism.
    """
    if xi.group.moduli != H.target.moduli:
        raise ValidationError("character does not belong to the target group")
    hom_validate(H)
    res = []
    for j, n in enumerate(H.source.moduli):
        acc = 0
        for i, m in enumerate(H.target.moduli):
            acc += xi.residues[i] * ((n * H.matrix[i][j]) // m)
        res.append(acc % n)
    return CharIndex(H.source, tuple(res))


@functools.lru_cache(maxsize=None)
def dual_map_table(H: HomSpec) -> np.ndarray:
    """Array mapping each target character index to its pullback's source index."""
    hom_validate(H)
    n2 = H.target.order
    out = np.empty(n2, dtype=np.int64)
    for t in range(n2):
        out[t] = dual_map(H, char_from_index(H.target, t)).index
    out.setflags(write=False)
    return out


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
        member_set = set(mem)
        for i in mem:
            ci = char_from_index(self.group, i)
            if dual_inv(ci).index not in member_set:
                raise ValidationError(f"dual subgroup not closed under inverse at {ci}")
        # closure under the dual product (sufficient with inverses above)
        for i in mem:
            ci = char_from_index(self.group, i)
            for j in mem:
                if dual_op(ci, char_from_index(self.group, j)).index not in member_set:
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
    assigned = {}
    reps = []
    for i in sorted(range(G.order), key=lambda i: G.from_index(i).residues):   # lex order
        if i in assigned:
            continue
        reps.append(i)
        rep_chi = char_from_index(G, i)
        for s in sub.members:
            member = dual_op(rep_chi, char_from_index(G, s)).index
            assigned[member] = (i, s)
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

    def __init__(self, moduli: tuple[int, ...]):
        G = GroupSpec(moduli)
        self.group = G
        N = G.order
        k = G.rank
        digits = np.zeros((N, k), dtype=np.int64)
        tmp = np.arange(N)
        for j, n in enumerate(moduli):
            digits[:, j] = tmp % n
            tmp = tmp // n
        self.digits = digits
        strides = np.empty(k, dtype=np.int64)
        s = 1
        for j, n in enumerate(moduli):
            strides[j] = s
            s *= n
        add = np.zeros((N, N), dtype=np.int64)
        neg = np.zeros(N, dtype=np.int64)
        for j, n in enumerate(moduli):
            add += ((digits[:, None, j] + digits[None, :, j]) % n) * strides[j]
            neg += ((-digits[:, j]) % n) * strides[j]
        self.add = add
        self.neg = neg
        self.sub = add[:, neg]
        L = G.exponent()
        phase = np.zeros((N, N), dtype=np.int64)
        for j, n in enumerate(moduli):
            w = L // n
            phase = (phase + np.outer(digits[:, j], digits[:, j]) * w) % L
        self.chars = np.exp(2j * np.pi * phase / L)

    @property
    def order(self) -> int:
        return self.group.order


@functools.lru_cache(maxsize=None)
def tables(moduli: tuple[int, ...]) -> GroupTables:
    if math.prod(moduli) > 4096:
        raise ValidationError(
            f"dense tables requested for order {math.prod(moduli)} > 4096"
        )
    return GroupTables(moduli)


def tables_for(G: GroupSpec) -> GroupTables:
    return tables(G.moduli)
