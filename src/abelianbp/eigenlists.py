"""Eigen lists of group-covariant pure-state channels and their functionals.

An eigen list is a nonnegative real vector indexed by the dual group in
canonical order, summing to the group order.  It is the complete sufficient
statistic of a group-covariant pure-state channel up to isometric equivalence.
The first Gram-matrix row and the eigen list form an exact Fourier pair:

    lambda_chi = sum_g gamma_g * conj(chi(g))
    gamma_g    = (1/|G|) * sum_chi lambda_chi * chi(g)

Entropies are reported in bits.

The eigen-list check (`EigenList.checked_rows`) and the per-row Holevo
information and PGM error (`holevo_rows`, `pgm_rows`) are each written once,
over the last axis of a batch; messages, trackers and DE call these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import tables_for
from .errors import NumericalError, ValidationError
from .groups import GroupSpec

TRACE_RTOL = 1e-6        # relative tolerance on sum(lambda) == |G|
NEG_CLIP = 1e-9          # entries below 0 but above -NEG_CLIP are clipped
GRAM_TOL = 1e-9          # GramRow structural tolerances
PSD_TOL = 1e-6           # transform output more negative than this is an error


@dataclass(frozen=True, eq=False)
class EigenList:
    """Validated eigen list; `values` is a read-only float array."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        row = np.array(self.values, dtype=np.float64).reshape(1, -1)
        arr = self.checked_rows(self.group, row)[0]
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def checked_rows(cls, group: GroupSpec, lams: np.ndarray) -> np.ndarray:
        """The nonempty batch of eigen lists along the last axis of `lams`,
        checked: length |G|, no entry below -`NEG_CLIP` (tiny negatives are
        clipped to 0), sums within `TRACE_RTOL` of |G|.  A NaN list is a
        `NumericalError`, any other breach a `ValidationError`."""
        n = group.order
        if lams.shape[-1] != n:
            raise ValidationError(f"eigen list length {lams.shape[-1]} != group order {n}")
        low = lams.min()
        if low < -NEG_CLIP:
            raise ValidationError(f"negative eigen list entry {low} below -{NEG_CLIP}")
        if low <= 0:
            lams = np.maximum(lams, 0.0)     # as np.clip, also -0.0 -> 0.0
        sums, tol = lams.sum(axis=-1), TRACE_RTOL * n
        if not (sums.min() >= n - tol and sums.max() <= n + tol):
            s = sums[~(np.abs(sums - n) <= tol)][0]
            raise (NumericalError if np.isnan(s) else ValidationError)(
                f"eigen list sums to {s}, expected {n} (rel tol {TRACE_RTOL})")
        return lams

    @classmethod
    def _of_valid(cls, group: GroupSpec, values: np.ndarray) -> EigenList:
        """Wrap a read-only row that already passed these checks."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "group", group)
        object.__setattr__(lam, "values", values)
        return lam

    def normalized(self) -> np.ndarray:
        """The probability vector mu = lambda / |G|."""
        return self.values / self.group.order

    def __len__(self):
        return self.values.size


@dataclass(frozen=True, eq=False)
class GramRow:
    """First row of a group-circulant Gram matrix; complex, gamma_e == 1."""

    group: GroupSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128).reshape(-1)
        if arr.size != self.group.order:
            raise ValidationError("gram row length != group order")
        if abs(arr[0] - 1.0) > GRAM_TOL:
            raise ValidationError(f"gamma_e = {arr[0]}, expected 1")
        neg = tables_for(self.group).neg
        if np.max(np.abs(arr[neg] - arr.conj())) > GRAM_TOL:
            raise ValidationError("gram row breaks conjugate symmetry gamma(g^-1) = conj(gamma(g))")
        if np.max(np.abs(arr)) > 1.0 + GRAM_TOL:
            raise ValidationError("gram row entry exceeds unit modulus")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def perfect_list(G: GroupSpec) -> EigenList:
    """All-ones list: orthonormal output states (perfectly distinguishable)."""
    return EigenList(G, np.ones(G.order))


def useless_list(G: GroupSpec) -> EigenList:
    """(|G|, 0, ..., 0): identical output states (no information)."""
    v = np.zeros(G.order)
    v[0] = G.order
    return EigenList(G, v)


def holevo_info(lam: EigenList) -> float:
    """Symmetric Holevo information H(mu) in bits; 0*log(0) = 0.

    Not `holevo_rows`: this sum runs over the nonzero entries only, so its
    last bit can differ from the row form's, and ``measures`` prints it."""
    return entropy_bits(lam.normalized())


def entropy_bits(mu: np.ndarray) -> float:
    """Shannon entropy of a probability vector in bits; 0*log(0) = 0, and never -0.0."""
    mu = mu[mu > 0]
    return float(0.0 - (mu * np.log2(mu)).sum())


def channel_fidelity(lam: EigenList) -> float:
    """Mean |gamma_g| over non-identity g."""
    n = lam.group.order
    if n == 1:
        return 0.0
    gamma = gram_row_from_eigenlist(lam).values
    return float(np.abs(gamma[1:]).sum() / (n - 1))


def pgm_error(lam: EigenList) -> float:
    """Pretty-good-measurement error: 1 - ((1/|G|) * sum sqrt(lambda))^2."""
    return pgm_error_of(lam.values)


def pgm_error_of(values: np.ndarray) -> float:
    """`pgm_error` of a raw eigen-list row."""
    return float(pgm_rows(values))


def holevo_rows(lams: np.ndarray) -> np.ndarray:
    """`holevo_info` of each eigen list along the last axis of `lams`."""
    mu = lams / lams.shape[-1]
    logs = np.log2(mu, out=np.zeros_like(mu), where=mu > 0)
    return 0.0 - (mu * logs).sum(axis=-1)


def pgm_rows(lams: np.ndarray) -> np.ndarray:
    """`pgm_error` of each eigen list along the last axis of `lams`
    (`float_power` squares as its ``** 2``)."""
    return 1.0 - np.float_power(np.sqrt(lams).sum(axis=-1) / lams.shape[-1], 2)


# ---------------------------------------------------------------------------
# Gram row <-> eigen list Fourier pair


def gram_row_from_eigenlist(lam: EigenList) -> GramRow:
    chars = tables_for(lam.group).chars
    gamma = chars @ lam.values / lam.group.order
    return GramRow(lam.group, gamma)


def eigenlist_from_gram_row(row: GramRow) -> EigenList:
    chars = tables_for(row.group).chars
    lam = chars.conj().T @ row.values
    if np.max(np.abs(lam.imag)) > 1e-8:
        raise NumericalError("transform of gram row is not real")  # pragma: no cover
    lam = lam.real
    if lam.min(initial=0.0) < -PSD_TOL:
        raise NumericalError(
            f"gram row is not a PSD circulant: eigenvalue {lam.min()} < -{PSD_TOL}"
        )
    return EigenList(row.group, np.clip(lam, 0.0, None))
