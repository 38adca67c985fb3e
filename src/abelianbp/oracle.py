"""Independent dense verification of every update rule at small group orders.

This module never touches the fast-path formulas.  It builds canonical channel
states from first principles,

    |psi_g> = (1/sqrt|G|) sum_chi sqrt(lambda_chi) chi(g) |chi>,

forms induced density matrices for each factor, applies the explicit
unitaries/isometries that reveal the herald structure, and reads probabilities
and eigen lists off the resulting blocks.  The work is batched numpy: a
factor's tensor states for every herald come from one stacked array, and each
density matrix is split into all of its herald blocks at once (leakage,
traces, diagonals and purities in one call each).  Eigendecompositions use an
in-package cyclic Jacobi sweep in round-robin order (Brent & Luk 1985): each
round rotates floor(n/2) disjoint index pairs together.  No LAPACK eigensolver
or SVD is used, keeping this code path independent of external numerics.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .characters import coset_table_for_hom, dual_map_table, tables_for
from .eigenlists import EigenList
from .errors import NumericalError, ValidationError
from .groups import (
    GroupSpec,
    HomSpec,
    hom_eval,
    invert_automorphism,
    is_automorphism,
    surjection_onto_image,
)
from .messages import HeraldedMessage, check_seed

BLOCK_TOL = 1e-10      # allowed leakage outside herald blocks
PURITY_TOL = 1e-8      # rank-1 consistency of conditioned blocks
MAX_DIM = 256


def state_matrix(lam: EigenList) -> np.ndarray:
    """Columns are the canonical states |psi_g> in the character basis."""
    chars = tables_for(lam.group).chars        # chars[g, chi] = chi(g)
    n = lam.group.order
    psi = (np.sqrt(lam.values)[:, None] * chars.T) / np.sqrt(n)
    norms = np.sqrt((np.abs(psi) ** 2).sum(axis=0))
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        raise NumericalError("canonical states are not unit norm")
    return psi


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> np.ndarray:
    """All n(n-1)/2 index pairs p < q as rounds of disjoint pairs.

    ``rounds[r] = (p, q)``, each of length floor(n/2).  Circle method: index
    m-1 stays put while the others rotate by one each round; an odd n gets a
    dummy index n, whose pair in each round is dropped.
    """
    m = n + n % 2
    r, k = np.arange(m - 1)[:, None], np.arange(1, m // 2)
    a = np.hstack([r, (r + k) % (m - 1)])
    b = np.hstack([np.full_like(r, m - 1), (r - k) % (m - 1)])
    p, q = np.minimum(a, b), np.maximum(a, b)
    real = q < n
    rounds = np.stack([p[real], q[real]]).reshape(2, m - 1, n // 2).swapaxes(0, 1)
    rounds.flags.writeable = False
    return rounds


def jacobi_eigh(A: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Each sweep visits every off-diagonal pair once in round-robin order
    (Brent & Luk 1985): n-1 rounds (n for odd n) of floor(n/2) disjoint pairs.
    Disjoint rotations commute, so a round computes all of its angles from
    the same matrix, then makes one vectorised update of the paired columns
    of A and V and one of the paired rows of A: O(n^2) per round, O(n^3) per
    sweep.  No LAPACK eigensolver is used.

    Returns ``(eigenvalues, eigenvectors)`` with columns as eigenvectors,
    sorted in descending eigenvalue order.  Terminates when the off-diagonal
    Frobenius norm drops below ``tol * ||A||_F``; raises on non-convergence.
    """
    A = np.array(A, dtype=np.complex128)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError("jacobi_eigh expects a square matrix")
    if n > MAX_DIM:
        raise ValidationError(f"dimension {n} exceeds oracle cap {MAX_DIM}")
    if np.max(np.abs(A - A.conj().T)) > 1e-10 * max(1.0, np.abs(A).max()):
        raise ValidationError("matrix is not Hermitian")
    # A on top of V: a rotation acts on the same columns of both
    AV = np.vstack([(A + A.conj().T) / 2.0, np.eye(n, dtype=np.complex128)])
    A, V = AV[:n], AV[n:]
    norm = np.sqrt((np.abs(A) ** 2).sum())
    if norm == 0:
        return np.zeros(n), V

    def offdiag():
        off = A - np.diag(np.diag(A))
        return np.sqrt((np.abs(off) ** 2).sum())

    for _ in range(max_sweeps):
        if offdiag() <= tol * norm:
            break
        for p, q in _round_robin(n):
            apq = A[p, q]
            live = np.abs(apq) >= 1e-300
            if not live.all():
                p, q, apq = p[live], q[live], apq[live]
            # unitary 2x2 rotations diagonalizing the (p,q) blocks
            phase = apq / np.abs(apq)
            theta = 0.5 * np.arctan2(2.0 * np.abs(apq), A[p, p].real - A[q, q].real)
            c = np.cos(theta)
            s = np.sin(theta) * phase
            # columns: [p, q] <- [c*p + conj(s)*q, c*q - s*p]
            Mp, Mq = AV[:, p], AV[:, q]
            AV[:, p], AV[:, q] = Mp * c + Mq * s.conj(), Mq * c - Mp * s
            # rows: [p, q] <- [c*p + s*q, c*q - conj(s)*p]
            Ap, Aq = A[p, :], A[q, :]
            c, s = c[:, None], s[:, None]
            A[p, :], A[q, :] = c * Ap + s * Aq, c * Aq - s.conj() * Ap
    else:
        raise NumericalError("jacobi_eigh did not converge")
    w = np.diag(A).real.copy()
    order = np.argsort(-w)
    return w[order], V[:, order]


def _check_residual(A: np.ndarray, w: np.ndarray, V: np.ndarray):
    res = np.max(np.abs(A @ V - V * w[None, :]))
    if res > 1e-9 * max(1.0, np.abs(w).max()):
        raise NumericalError(f"eigenpair residual {res} too large")


def entropy_of_average_state(lam: EigenList) -> float:
    """S(rho_bar) in bits via dense eigendecomposition; equals H(mu)."""
    psi = state_matrix(lam)
    n = lam.group.order
    rho = psi @ psi.conj().T / n
    w, V = jacobi_eigh(rho)
    _check_residual(rho, w, V)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def verify_gram_diagonalization(lam: EigenList) -> dict:
    """Check that the character states diagonalize the constructed Gram matrix."""
    G = lam.group
    n = G.order
    psi = state_matrix(lam)
    gram = psi.conj().T @ psi
    t = tables_for(G)
    # G-circulance: gram[g, g'] == gram_row[g^{-1} g']
    row = gram[0]
    circ_dev = float(np.max(np.abs(gram - row[t.add[t.neg]])))
    # eigen relation per character state: coordinates chi^{-1}(g)/sqrt(n)
    char_states = t.chars.conj() / np.sqrt(n)     # column chi: chi^{-1}(g) over g
    resid = float(np.max(np.abs(gram @ char_states - char_states * lam.values[None, :])))
    ok = resid <= 1e-10 * max(1.0, n) and circ_dev <= 1e-10 * max(1.0, n)
    if not ok:
        raise NumericalError(
            f"gram diagonalization breach: eigen residual {resid}, circulance {circ_dev}"
        )
    return {"max_eigen_residual": resid, "max_circulance_dev": circ_dev, "ok": True}


def verify_covariance(lam: EigenList) -> dict:
    """Check |psi_{g' g}> = U_{g'} |psi_g> with the diagonal representation."""
    t = tables_for(lam.group)
    psi = state_matrix(lam)
    # shifted[chi, g', g] = chi(g') psi[chi, g]: U_{g'} = diag over chi of chi(g')
    shifted = t.chars.T[:, :, None] * psi[:, None, :]
    worst = float(np.max(np.abs(shifted - psi[:, t.add])))
    if worst > 1e-10:
        raise NumericalError(f"covariance breach: max deviation {worst}")
    return {"max_deviation": worst, "ok": True}


def pgm_bruteforce(lam: EigenList) -> float:
    """PGM error from the explicit square-root measurement.

    Builds rho_bar, inverts its square root on the support (eigenvalues below
    1e-12 are excluded), and averages the success amplitudes.
    """
    G = lam.group
    n = G.order
    psi = state_matrix(lam)
    rho = psi @ psi.conj().T / n
    w, V = jacobi_eigh(rho)
    _check_residual(rho, w, V)
    keep = w > 1e-12
    inv_sqrt = (V[:, keep] * (1.0 / np.sqrt(w[keep]))[None, :]) @ V[:, keep].conj().T
    amps = (psi.conj() * (inv_sqrt @ psi)).sum(axis=0)     # <psi_g| rho^-1/2 |psi_g>
    success = float((np.abs(amps) ** 2 / n).sum())
    return 1.0 - success / n


# ---------------------------------------------------------------------------
# factor simulations


def _blocks_to_message(group: GroupSpec, rho_by_h, herald_dim, block_dim,
                       herald_first, labels):
    """Extract ensemble (p_h, eigen list) from per-input block structure.

    Each density matrix is split into all of its herald-indexed diagonal
    blocks at once; the herald is the slow index when ``herald_first`` and
    the fast one otherwise.  No matrix element may connect different herald
    values.  For every group input the conditioned block must be rank one
    with h-independent diagonal; the diagonal (in the character basis) times
    the block dimension is the branch eigen list.
    """
    hs = np.arange(herald_dim)
    probs = diags = None
    for rho in rho_by_h:
        if herald_first:
            T = rho.reshape(herald_dim, block_dim, herald_dim, block_dim)
        else:
            T = rho.reshape(block_dim, herald_dim, block_dim, herald_dim).transpose(1, 0, 3, 2)
        off = np.abs(T)
        off[hs, :, hs, :] = 0.0
        leak = float(off.max())
        if leak > BLOCK_TOL:
            raise NumericalError(f"herald blocks are not diagonal: leakage {leak}")
        blocks = T[hs, :, hs, :]                      # (herald, block, block)
        traces = np.trace(blocks, axis1=1, axis2=2).real
        diag = np.diagonal(blocks, axis1=1, axis2=2).real
        if probs is None:
            probs, diags = traces, diag
        else:
            if np.max(np.abs(traces - probs)) > BLOCK_TOL:
                raise NumericalError("herald probabilities depend on the group input")
            live = probs >= 1e-13
            if np.max(np.abs(diag - diags)[live], initial=0.0) > 1e-9:
                raise NumericalError("block diagonals depend on the group input")
        live = traces > 1e-9
        purity = (np.abs(blocks[live]) ** 2).sum(axis=(1, 2)) / traces[live] ** 2
        bad = np.abs(purity - 1.0) > PURITY_TOL
        if bad.any():
            raise NumericalError(
                f"conditioned block is not rank one (purity {purity[bad][0]})"
            )
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"herald probabilities sum to {total}")
    live = np.flatnonzero(probs >= 1e-13)
    return HeraldedMessage.of(group, probs[live], diags[live] * (block_dim / probs[live])[:, None],
                              [(labels[h],) for h in live.tolist()])


def simulate_check(lam1: EigenList, lam2: EigenList) -> HeraldedMessage:
    """Dense simulation of the parity factor.

    Builds rho_h = (1/|G|) sum_{g1} |psi1_{g1}><..| x |psi2_{g1^{-1}h}><..|,
    applies the relabeling unitary |chi>|chi'> -> |chi chi'^{-1}>|chi'>, and
    reads the ensemble from the herald blocks.  The tensor states of every
    herald are one stacked array W[g1, h, :]; each rho_h is one product of
    its W rows.
    """
    if lam1.group.moduli != lam2.group.moduli:
        raise ValidationError("check simulation: group mismatch")
    G = lam1.group
    n = G.order
    if n * n > 144:
        raise ValidationError("tensor dimension exceeds the oracle cap")
    t = tables_for(G)
    psi1 = state_matrix(lam1)
    psi2 = state_matrix(lam2)
    # W[g1, h, chi * n + chi'] = psi1[chi, g1] psi2[chi', g1^{-1} h]
    W = np.einsum("ag,bgh->ghab", psi1, psi2[:, t.add[t.neg]]).reshape(n, n, n * n)
    # permutation on chi x chi': new first register chi * chi'^{-1}
    c, cp = np.divmod(np.arange(n * n), n)
    perm = np.empty(n * n, dtype=np.int64)
    perm[t.add[c, t.neg[cp]] * n + cp] = c * n + cp
    W = W[:, :, perm]
    Wc = W.conj() / n
    rho_by_h = (W[:, h].T @ Wc[:, h] for h in range(n))
    labels = [f"check:({','.join(map(str, G.from_index(c).residues))})" for c in range(n)]
    return _blocks_to_message(G, rho_by_h, n, n, True, labels)


def simulate_equality(lam1: EigenList, lam2: EigenList) -> EigenList:
    """Dense simulation of the equality factor via the tensor-state Gram matrix."""
    if lam1.group.moduli != lam2.group.moduli:
        raise ValidationError("equality simulation: group mismatch")
    G = lam1.group
    t = tables_for(G)
    psi1 = state_matrix(lam1)
    psi2 = state_matrix(lam2)
    gram = (psi1.conj().T @ psi1) * (psi2.conj().T @ psi2)
    row = gram[0]
    circ = float(np.max(np.abs(gram - row[t.add[t.neg]])))
    if circ > BLOCK_TOL * G.order:
        raise NumericalError(f"combined gram matrix is not circulant: {circ}")
    lam = t.chars.conj().T @ row
    if np.max(np.abs(lam.imag)) > 1e-9:
        raise NumericalError("combined eigen list is not real")
    out = EigenList(G, np.clip(lam.real, 0.0, None))
    # cross-check the multiset against a dense eigendecomposition
    w, _ = jacobi_eigh(gram.astype(np.complex128))
    if np.max(np.abs(np.sort(w) - np.sort(out.values))) > 1e-8 * max(1.0, G.order):
        raise NumericalError("gram eigenvalues disagree with the character transform")
    return out


def simulate_hom(lam: EigenList, H: HomSpec) -> HeraldedMessage:
    """Dense simulation of the homomorphism factor.

    Fiber-averages the states over each preimage, conjugates by the coset
    isometry V|eta * dual(xi)> = |xi>|eta>, and reads the ensemble from the
    eta blocks.
    """
    if lam.group.moduli != H.source.moduli:
        raise ValidationError("hom simulation: eigen list not on the source group")
    surj, _ = surjection_onto_image(H)
    G1, G2 = surj.source, surj.target
    n1, n2 = G1.order, G2.order
    if n1 > 144:
        raise ValidationError("dimension exceeds the oracle cap")
    ct = coset_table_for_hom(surj)
    pull = dual_map_table(surj)
    t1 = tables_for(G1)
    psi = state_matrix(lam)
    reps = np.asarray(ct.reps)
    nrep = len(reps)
    # V as a permutation: input chi = rep * dual(xi) -> output xi * nrep + t
    V = np.zeros((n1, n1))
    V[np.arange(n1), t1.add[reps[None, :], pull[:, None]].ravel()] = 1.0
    if np.max(np.abs(V.T @ V - np.eye(n1))) > 1e-12:
        raise NumericalError("coset isometry is not an isometry")
    image = np.array([hom_eval(surj, g).index for g in G1.elements()])
    fibers = (psi[:, image == h] for h in range(n2))
    rho_by_h = (V @ (F @ F.conj().T / F.shape[1]) @ V.T for F in fibers)
    labels = [f"hom:({','.join(map(str, G1.from_index(r).residues))})" for r in reps]
    return _blocks_to_message(G2, rho_by_h, nrep, n2, False, labels)


def simulate_marginalize(lam: EigenList, keep: int) -> HeraldedMessage:
    """Dense simulation of the marginalization factor.

    Averages over the dropped block and splits the dual index with the
    coordinate-splitting unitary (a reshape in the canonical order).
    """
    U = lam.group
    if not 0 <= keep <= U.rank:
        raise ValidationError(f"split point {keep} does not match the moduli structure")
    G1 = GroupSpec(U.moduli[:keep])
    G2 = GroupSpec(U.moduli[keep:])
    n1, n2 = G1.order, G2.order
    if U.order > 144:
        raise ValidationError("dimension exceeds the oracle cap")
    # psi[:, g1 + n1 * g2] is fibre[:, g2, g1]
    fibre = state_matrix(lam).reshape(U.order, n2, n1)
    rho_by_h = (fibre[:, :, g1] @ fibre[:, :, g1].conj().T / n2 for g1 in range(n1))
    labels = [f"marg:({','.join(map(str, G2.from_index(e).residues))})" for e in range(n2)]
    # combined dual index = chi + n1 * eta: eta blocks are the slow digits
    return _blocks_to_message(G1, rho_by_h, n2, n1, True, labels)


# ---------------------------------------------------------------------------
# randomized certification


def random_eigenlist(G: GroupSpec, rng) -> EigenList:
    v = rng.gamma(1.0, size=G.order)
    return EigenList(G, v * (G.order / v.sum()))


def random_hom(G: GroupSpec, rng, targets=None) -> HomSpec:
    """A random valid hom out of G into a small target group."""
    pool = targets or [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)),
                       GroupSpec((2, 2)), GroupSpec((6,)), G]
    tgt = pool[int(rng.integers(len(pool)))]
    rows = []
    for m in tgt.moduli:
        row = []
        for n in G.moduli:
            step = m // math.gcd(n, m)
            row.append(int(rng.integers(0, m // step)) * step)
        rows.append(tuple(row))
    return HomSpec(G, tgt, tuple(rows))


def random_automorphism(G: GroupSpec, rng) -> HomSpec:
    for _ in range(500):
        H = random_hom(G, rng, targets=[G])
        if is_automorphism(H):
            return H
    raise NumericalError("no automorphism found")  # pragma: no cover


def verify_rule(rule: str, G: GroupSpec, seed: int, count: int) -> dict:
    """Compare the update formulas against the dense simulation on random inputs.

    Returns a machine-readable report with the worst deviations observed.
    ``rule`` is one of check, equality, hom, marginalize, automorphism (factor
    rules) or gram, covariance, pgm, entropy (scalar certifications).
    """
    from .eigenlists import holevo_info, pgm_error
    from .factors import (
        apply_automorphism,
        check_combine,
        equality_combine,
        hom_push,
        marginalize_split,
    )

    if count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    max_dp = 0.0
    max_dl = 0.0

    def compare(sim_msg, fast_msg):
        nonlocal max_dp, max_dl
        fast = {labels[0]: i for i, labels in enumerate(fast_msg.labels)}
        if len(sim_msg) != len(fast):
            raise NumericalError("herald supports differ between paths")
        at = [fast[labels[0]] for labels in sim_msg.labels]
        max_dp = max(max_dp, float(np.max(np.abs(sim_msg.probs - fast_msg.probs[at]))))
        max_dl = max(max_dl, float(np.max(np.abs(sim_msg.lams - fast_msg.lams[at]))))

    for _ in range(count):
        if rule == "check":
            a, b = random_eigenlist(G, rng), random_eigenlist(G, rng)
            compare(simulate_check(a, b), check_combine(a, b))
        elif rule == "equality":
            a, b = random_eigenlist(G, rng), random_eigenlist(G, rng)
            dev = float(np.max(np.abs(simulate_equality(a, b).values
                                      - equality_combine(a, b).values)))
            max_dl = max(max_dl, dev)
        elif rule == "hom":
            lam = random_eigenlist(G, rng)
            H = random_hom(G, rng)
            compare(simulate_hom(lam, H), hom_push(lam, H))
        elif rule == "marginalize":
            U = G if G.rank >= 2 else GroupSpec(G.moduli + (2,) * (2 - G.rank))
            lam = random_eigenlist(U, rng)
            keep = int(rng.integers(1, U.rank))
            compare(simulate_marginalize(lam, keep), marginalize_split(lam, keep))
        elif rule == "automorphism":
            lam = random_eigenlist(G, rng)
            phi = random_automorphism(G, rng)
            dev = float(np.max(np.abs(simulate_automorphism(lam, phi).values
                                      - apply_automorphism(lam, phi).values)))
            max_dl = max(max_dl, dev)
        elif rule == "gram":
            report = verify_gram_diagonalization(random_eigenlist(G, rng))
            max_dl = max(max_dl, report["max_eigen_residual"],
                         report["max_circulance_dev"])
        elif rule == "covariance":
            report = verify_covariance(random_eigenlist(G, rng))
            max_dl = max(max_dl, report["max_deviation"])
        elif rule == "pgm":
            lam = random_eigenlist(G, rng)
            max_dl = max(max_dl, abs(pgm_bruteforce(lam) - pgm_error(lam)))
        elif rule == "entropy":
            lam = random_eigenlist(G, rng)
            max_dl = max(max_dl, abs(entropy_of_average_state(lam) - holevo_info(lam)))
        else:
            raise ValidationError(f"unknown verification rule {rule!r}")
    tol = {"pgm": 1e-9, "entropy": 1e-8}.get(rule, 1e-9)
    return {
        "rule": rule,
        "group": str(G),
        "count": count,
        "max_prob_deviation": max_dp,
        "max_list_deviation": max_dl,
        "ok": max_dp <= 1e-10 and max_dl <= tol,
    }


def simulate_automorphism(lam: EigenList, phi: HomSpec) -> EigenList:
    """Dense simulation of the automorphism factor via relabeled states."""
    if not is_automorphism(phi):
        raise ValidationError("not an automorphism")
    G = lam.group
    t = tables_for(G)
    inv = invert_automorphism(phi)
    psi = state_matrix(lam)
    perm = np.array([hom_eval(inv, g).index for g in G.elements()])
    relabeled = psi[:, perm]
    gram = relabeled.conj().T @ relabeled
    row = gram[0]
    circ = float(np.max(np.abs(gram - row[t.add[t.neg]])))
    if circ > BLOCK_TOL * G.order:
        raise NumericalError(f"relabeled gram matrix is not circulant: {circ}")
    lamv = t.chars.conj().T @ row
    if np.max(np.abs(lamv.imag)) > 1e-9:
        raise NumericalError("relabeled eigen list is not real")
    return EigenList(G, np.clip(lamv.real, 0.0, None))
