"""Finite abelian groups as products of cyclic factors, and their homomorphisms.

A group is an ordered list of moduli ``(n_0, ..., n_{k-1})`` with ``n_j >= 2``;
the empty list is the trivial group.  Elements are residue vectors.  Moduli are
kept exactly as supplied (no canonicalization): two groups are equal iff their
moduli lists are equal.

Every element has a canonical linear index in ``range(order)`` given by the
mixed-radix expansion with the *first* coordinate fastest:

    index = a_0 + n_0 * (a_1 + n_1 * (a_2 + ...))

All enumeration throughout the package follows this order (`digits` and
`index_array`).  `hom_table` is the single place where a hom acts on indices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

#: Largest group order for which kernel/image enumeration is attempted.
ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group Z_{n_0} x ... x Z_{n_{k-1}}."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(int(n) for n in self.moduli)
        object.__setattr__(self, "moduli", mods)
        for n in mods:
            if n < 2:
                raise ValidationError(f"modulus {n} < 2 (drop trivial factors instead)")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def is_trivial(self) -> bool:
        return not self.moduli

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank)

    def element(self, residues) -> GroupElement:
        return GroupElement(self, tuple(int(r) for r in residues))

    def from_index(self, index: int) -> GroupElement:
        if not 0 <= index < self.order:
            raise ValidationError(f"index {index} out of range for order {self.order}")
        res = []
        for n in self.moduli:
            res.append(index % n)
            index //= n
        return GroupElement(self, tuple(res))

    def index_of(self, residues) -> int:
        idx, stride = 0, 1
        for r, n in zip(residues, self.moduli):
            idx += (r % n) * stride
            stride *= n
        return idx

    def elements(self):
        """All elements in canonical index order."""
        return (self.from_index(i) for i in range(self.order))

    def exponent(self) -> int:
        return math.lcm(*self.moduli) if self.moduli else 1

    def __str__(self):
        return "x".join(f"Z{n}" for n in self.moduli) if self.moduli else "Z1"


@dataclass(frozen=True)
class GroupElement:
    group: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self):
        res = tuple(int(a) for a in self.residues)
        object.__setattr__(self, "residues", res)
        if len(res) != self.group.rank:
            raise ValidationError(
                f"element length {len(res)} != group rank {self.group.rank}"
            )
        for a, n in zip(res, self.group.moduli):
            if not 0 <= a < n:
                raise ValidationError(f"residue {a} out of range for modulus {n}")

    @property
    def index(self) -> int:
        return self.group.index_of(self.residues)

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.residues)

    def __str__(self):
        return "(" + ",".join(map(str, self.residues)) + ")"


def group_op(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Componentwise sum mod the moduli."""
    if g1.group.moduli != g2.group.moduli:
        raise ValidationError(f"group mismatch: {g1.group} vs {g2.group}")
    res = tuple((a + b) % n for a, b, n in zip(g1.residues, g2.residues, g1.group.moduli))
    return GroupElement(g1.group, res)


def group_inv(g: GroupElement) -> GroupElement:
    res = tuple((-a) % n for a, n in zip(g.residues, g.group.moduli))
    return GroupElement(g.group, res)


def element_order(g: GroupElement) -> int:
    if not g.group.moduli:
        return 1
    return math.lcm(*(n // math.gcd(a, n) for a, n in zip(g.residues, g.group.moduli)))


def _strides(G: GroupSpec) -> np.ndarray:
    """Place values of the canonical index; stride j is the index of e_j.
    Exact Python integers once the order leaves int64."""
    return np.cumprod((1,) + G.moduli, dtype=np.int64 if G.order < 2**63 else object)[:-1]


def digits(G: GroupSpec, idx) -> np.ndarray:
    """Residues of canonical indices, on a new last axis of length ``G.rank``."""
    s = _strides(G)
    return np.asarray(idx, dtype=s.dtype)[..., None] // s % np.array(G.moduli, s.dtype)


def index_array(G: GroupSpec, residues) -> np.ndarray:
    """Canonical indices of residue vectors on the last axis, each residue
    taken mod its modulus; the inverse of `digits`."""
    s = _strides(G)
    return np.asarray(residues, dtype=s.dtype) % np.array(G.moduli, s.dtype) @ s


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class HomSpec:
    """Integer-matrix homomorphism between two groups.

    ``matrix[i][j]`` is the i-th target coordinate of the image of the j-th
    source generator.  Well-definedness on the quotient requires
    ``n_j * matrix[i][j] == 0 (mod m_i)`` for every entry; `hom_validate`
    checks this when the hom is built, so every `HomSpec` is a hom.
    """

    source: GroupSpec
    target: GroupSpec
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.rank:
            raise ValidationError(
                f"matrix has {len(self.matrix)} rows, target rank is {self.target.rank}"
            )
        mat = tuple(tuple(int(x) % m for x in row)
                    for row, m in zip(self.matrix, self.target.moduli))
        for row in mat:
            if len(row) != self.source.rank:
                raise ValidationError(
                    f"matrix row length {len(row)} != source rank {self.source.rank}"
                )
        object.__setattr__(self, "matrix", mat)
        hom_validate(self)


def hom_validate(H: HomSpec) -> None:
    """Raise ValidationError at the first entry where n_j*M[i][j] != 0 mod m_i."""
    for i, m in enumerate(H.target.moduli):
        for j, n in enumerate(H.source.moduli):
            if (n * H.matrix[i][j]) % m != 0:
                raise ValidationError(
                    f"not a homomorphism: n_{j}*M[{i}][{j}] = "
                    f"{n}*{H.matrix[i][j]} != 0 (mod {m})"
                )


def hom_eval(H: HomSpec, g: GroupElement) -> GroupElement:
    if g.group.moduli != H.source.moduli:
        raise ValidationError("element does not belong to the source group")
    res = tuple(
        sum(H.matrix[i][j] * a for j, a in enumerate(g.residues)) % m
        for i, m in enumerate(H.target.moduli)
    )
    return GroupElement(H.target, res)


def _matrix(H: HomSpec, dtype) -> np.ndarray:
    return np.array(H.matrix, dtype=dtype).reshape(H.target.rank, H.source.rank)


@functools.lru_cache(maxsize=256)
def hom_table(H: HomSpec) -> np.ndarray:
    """Read-only array: the target index of H at every source index; a source
    above `ENUMERATION_CAP` is a `ValidationError`."""
    if H.source.order > ENUMERATION_CAP:
        raise ValidationError(
            f"source order {H.source.order} exceeds enumeration cap {ENUMERATION_CAP}")
    # every row sum of digit times entry is below |source| * |target|
    dtype = np.int64 if H.source.order * H.target.order < 2**63 else object
    images = digits(H.source, np.arange(H.source.order)).astype(dtype) @ _matrix(H, dtype).T
    out = index_array(H.target, images % np.array(H.target.moduli, dtype))
    out.setflags(write=False)
    return out


def _image_indices(H: HomSpec) -> list[int]:
    return sorted(set(hom_table(H).tolist()))


def hom_kernel(H: HomSpec) -> tuple[GroupElement, ...]:
    """Kernel by exhaustive enumeration, in canonical index order."""
    image = _image_indices(H)
    ker = np.flatnonzero(hom_table(H) == 0)
    if len(ker) * len(image) != H.source.order:  # pragma: no cover - structural identity
        raise NumericalError("|G| != |ker|*|Im| during enumeration")
    return tuple(H.source.from_index(i) for i in ker.tolist())


def hom_image(H: HomSpec) -> tuple[GroupElement, ...]:
    """Image subgroup as a tuple of target elements, sorted by canonical index."""
    return tuple(H.target.from_index(i) for i in _image_indices(H))


@functools.lru_cache(maxsize=None)
def is_surjective(H: HomSpec) -> bool:
    return len(_image_indices(H)) == H.target.order


@functools.lru_cache(maxsize=None)
def is_automorphism(H: HomSpec) -> bool:
    return H.source.moduli == H.target.moduli and len(_image_indices(H)) == H.source.order


def _from_columns(source: GroupSpec, target: GroupSpec, images) -> HomSpec:
    """The hom sending generator e_j of `source` to target index ``images[j]``."""
    return HomSpec(source, target, tuple(map(tuple, digits(target, images).T.tolist())))


def invert_automorphism(H: HomSpec) -> HomSpec:
    """Inverse map, recovered from generator images after table inversion."""
    if not is_automorphism(H):
        raise ValidationError("not an automorphism; cannot invert")
    return _from_columns(H.source, H.source, np.argsort(hom_table(H))[_strides(H.source)])


def identity_hom(G: GroupSpec) -> HomSpec:
    return projection_hom(G, range(G.rank))


@functools.lru_cache(maxsize=None)
def inversion_automorphism(G: GroupSpec) -> HomSpec:
    """g -> g^{-1}; an automorphism of every abelian group."""
    return HomSpec(G, G, tuple(tuple(-x for x in row) for row in identity_hom(G).matrix))


def compose_homs(outer: HomSpec, inner: HomSpec) -> HomSpec:
    """outer o inner; valid whenever both factors are valid."""
    if inner.target.moduli != outer.source.moduli:
        raise ValidationError("hom composition: inner target != outer source")
    product = (_matrix(outer, object) @ _matrix(inner, object)).tolist()   # exact integers
    return HomSpec(inner.source, outer.target, tuple(map(tuple, product)))


# ---------------------------------------------------------------------------
# product structure


def direct_product(G1: GroupSpec, G2: GroupSpec) -> GroupSpec:
    return GroupSpec(G1.moduli + G2.moduli)


def join_element(g1: GroupElement, g2: GroupElement) -> GroupElement:
    return GroupElement(direct_product(g1.group, g2.group), g1.residues + g2.residues)


def split_element(g: GroupElement, keep: int) -> tuple[GroupElement, GroupElement]:
    """Split into the first `keep` coordinates and the rest."""
    if not 0 <= keep <= g.group.rank:
        raise ValidationError(f"split point {keep} out of range")
    G1 = GroupSpec(g.group.moduli[:keep])
    G2 = GroupSpec(g.group.moduli[keep:])
    return GroupElement(G1, g.residues[:keep]), GroupElement(G2, g.residues[keep:])


def permute_coordinates(G: GroupSpec, perm) -> HomSpec:
    """Coordinate-permutation automorphism: output coordinate i = input coordinate perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(G.rank)):
        raise ValidationError(f"{perm} is not a permutation of range({G.rank})")
    return projection_hom(G, perm)


def projection_hom(G: GroupSpec, coords) -> HomSpec:
    """Projection onto the listed coordinates (in the listed order)."""
    coords = tuple(int(c) for c in coords)
    if not all(0 <= c < G.rank for c in coords):
        raise ValidationError(f"projection coordinates {list(coords)} outside range({G.rank})")
    target = GroupSpec(tuple(G.moduli[c] for c in coords))
    mat = tuple(tuple(1 if j == c else 0 for j in range(G.rank)) for c in coords)
    return HomSpec(G, target, mat)


# ---------------------------------------------------------------------------
# image restriction: rewrite an arbitrary hom as a surjection onto its image


def _abstract_basis(elems, op, ident):
    """Basis of a finite abelian group given by an element list and operation.

    ``elems`` are hashable, orderable ids; ``op(a, b)`` returns an id; ``ident``
    is the identity id.  Returns ``[(generator, order), ...]`` such that the
    group is the inner direct sum of the cyclic subgroups they generate.
    """
    if len(elems) == 1:
        return []

    def order_of(a):
        k, cur = 1, a
        while cur != ident:
            cur = op(cur, a)
            k += 1
        return k

    x = max(sorted(elems), key=order_of)
    nx = order_of(x)
    cyc = set()
    cur = ident
    for _ in range(nx):
        cyc.add(cur)
        cur = op(cur, x)
    if nx == len(elems):
        return [(x, nx)]
    # quotient by <x>: canonical representative = smallest id in the coset
    rep = {m: min(op(m, h) for h in cyc) for m in elems}
    qelems = sorted(set(rep.values()))
    qop = lambda a, b: rep[op(a, b)]
    out = [(x, nx)]
    for qgen, qorder in _abstract_basis(qelems, qop, rep[ident]):
        # any maximal-order x admits an order-preserving lift in each coset
        for h in cyc:
            cand = op(qgen, h)
            if order_of(cand) == qorder:
                out.append((cand, qorder))
                break
        else:  # pragma: no cover - excluded by the basis theorem
            raise NumericalError("no order-preserving coset lift found")
    return out


def subgroup_decomposition(members, group: GroupSpec):
    """Cyclic decomposition of a subgroup given as its full element list.

    Returns ``(basis_elements, orders)``; the subgroup is the inner direct sum
    of the cyclic groups generated by the basis elements.
    """
    idx_of = {m.index: m for m in members}
    op = lambda a, b: group_op(idx_of[a], idx_of[b]).index
    basis = _abstract_basis(sorted(idx_of), op, group.identity().index)
    return [idx_of[b] for b, _ in basis], [o for _, o in basis]


@functools.lru_cache(maxsize=None)
def surjection_onto_image(H: HomSpec) -> tuple[HomSpec, HomSpec]:
    """Rewrite H: G1 -> G2 as a surjection onto its image.

    Returns ``(surj, embed)`` where ``surj: G1 -> I`` is surjective onto a
    group ``I`` isomorphic to Im(H) and ``embed: I -> G2`` realizes the
    inclusion, with ``H == embed o surj``.  If H is already surjective it is
    returned unchanged together with the identity embedding.
    """
    img = _image_indices(H)
    if len(img) == H.target.order:
        return H, identity_hom(H.target)

    # Coordinate-wise decomposition whenever the image is the product of its
    # projections (each a subgroup of Z_m, so the multiples of m / size); this
    # keeps the restricted coordinates recognizable.
    sizes = [len(set(col)) for col in digits(H.target, img).T.tolist()]
    if math.prod(sizes) == len(img):
        kept = [i for i, d in enumerate(sizes) if d >= 2]
        new_group = GroupSpec(tuple(sizes[i] for i in kept))
        columns = [H.target.moduli[i] // sizes[i] * _strides(H.target)[i] for i in kept]
    else:
        basis, orders = subgroup_decomposition(hom_image(H), H.target)
        new_group = GroupSpec(tuple(orders))
        columns = [b.index for b in basis]
    embed = _from_columns(new_group, H.target, columns)
    # discrete log over the image basis: the inverse of the embedding's table
    log = dict(zip(hom_table(embed).tolist(), range(new_group.order)))
    if len(log) != len(img):  # pragma: no cover - defensive
        raise NumericalError("cyclic decomposition is not a direct sum")
    images = hom_table(H)[_strides(H.source)].tolist()
    surj = _from_columns(H.source, new_group, [log[h] for h in images])
    if not np.array_equal(hom_table(embed)[hom_table(surj)], hom_table(H)):
        raise NumericalError("image factorization failed")  # pragma: no cover
    return surj, embed
