"""Independent dense verification of every update rule at small group orders.

This module never touches the fast-path formulas.  It builds canonical channel
states from first principles,

    |psi_g> = (1/sqrt|G|) sum_chi sqrt(lambda_chi) chi(g) |chi>,

forms induced density matrices for each factor, applies the explicit
unitaries/isometries that reveal the herald structure, and reads probabilities
and eigen lists off the resulting blocks.  The work runs on numpy stacks of
at most ``CACHE_FLOATS`` entries (a Jacobi stack holds A and V, 2 n^2 per
matrix): a factor's density matrices are built as stacks, each split into
all of its herald blocks at once.  Eigendecompositions use an in-package
cyclic Jacobi sweep in round-robin order (Brent & Luk 1985) that rotates
floor(n/2) disjoint index pairs of every matrix in a stack together, so
``verify_rule`` runs one Jacobi pass per stack of instances.  No LAPACK
eigensolver or SVD is used, keeping this code path independent of external
numerics.
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
    hom_table,
    invert_automorphism,
    is_automorphism,
    surjection_onto_image,
)
from .messages import CACHE_FLOATS, HeraldedMessage, batches, check_seed, herald_names

BLOCK_TOL = 1e-10      # allowed leakage outside herald blocks
PURITY_TOL = 1e-8      # rank-1 consistency of conditioned blocks
MAX_DIM = 256
JACOBI_TOL = 1e-12     # a matrix stops rotating below this relative off-diagonal norm
MAX_SWEEPS = 100
#: `verify_rule` rules: the five factor rules, then the scalar certifications.
RULES = ("check", "equality", "hom", "marginalize", "automorphism",
         "gram", "covariance", "pgm", "entropy")


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


def jacobi_eigh(A: np.ndarray):
    """Eigendecomposition of a Hermitian matrix or (b, n, n) stack by cyclic Jacobi rotations.

    Each sweep visits every off-diagonal pair once in round-robin order
    (Brent & Luk 1985): n-1 rounds (n for odd n) of floor(n/2) disjoint pairs.
    Disjoint rotations commute, so a round computes all of its angles from
    the same matrix, then makes one vectorised update of the paired columns
    of A and V and one of the paired rows of A: O(n^2) per round, O(n^3) per
    sweep, for every matrix of a stack at once.  No LAPACK eigensolver is used.

    Returns ``(eigenvalues, eigenvectors)`` with columns as eigenvectors,
    sorted in descending eigenvalue order (stacked as the input).  A matrix
    stops rotating once its off-diagonal Frobenius norm is below
    ``JACOBI_TOL * ||A||_F``, so its result does not depend on its stack;
    raises after `MAX_SWEEPS` sweeps without convergence.
    """
    A = np.array(A, dtype=np.complex128)
    n = A.shape[-1]
    if A.ndim not in (2, 3) or A.shape[-2] != n:
        raise ValidationError("jacobi_eigh expects a square matrix or a stack of them")
    if n > MAX_DIM:
        raise ValidationError(f"dimension {n} exceeds oracle cap {MAX_DIM}")
    single, A = A.ndim == 2, A.reshape(-1, n, n)
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    if np.any(np.abs(A - A.conj().swapaxes(1, 2)).max(axis=(1, 2)) > 1e-10 * scale):
        raise ValidationError("matrix is not Hermitian")
    # A on top of V: a rotation acts on the same columns of both
    AV = np.concatenate([(A + A.conj().swapaxes(1, 2)) / 2.0,
                         np.tile(np.eye(n), (len(A), 1, 1))], axis=1)
    off_diagonal = 1.0 - np.eye(n)

    def frobenius(A):
        return np.sqrt((np.abs(A) ** 2).reshape(len(A), -1).sum(axis=1))

    norm = frobenius(AV[:, :n])
    live, S = np.arange(len(AV)), AV
    for _ in range(MAX_SWEEPS):
        rotate = ~(frobenius(S[:, :n] * off_diagonal) <= JACOBI_TOL * norm[live])
        if not rotate.all():        # converged matrices leave the rotating stack
            AV[live[~rotate]] = S[~rotate]
            live, S = live[rotate], S[rotate]
        if not live.size:
            break
        A = S[:, :n]
        for p, q in _round_robin(n):
            m, k = np.nonzero(np.abs(A[:, p, q]) >= 1e-300)
            p, q = p[k], q[k]
            apq = A[m, p, q]
            # unitary 2x2 rotations diagonalizing the (p,q) blocks
            phase = apq / np.abs(apq)
            theta = 0.5 * np.arctan2(2.0 * np.abs(apq), A[m, p, p].real - A[m, q, q].real)
            c = np.cos(theta)[:, None]
            s = (np.sin(theta) * phase)[:, None]
            # columns: [p, q] <- [c*p + conj(s)*q, c*q - s*p]
            Mp, Mq = S[m, :, p], S[m, :, q]
            S[m, :, p] = Mp * c + Mq * s.conj()
            S[m, :, q] = Mq * c - Mp * s
            # rows: [p, q] <- [c*p + s*q, c*q - conj(s)*p]
            Ap, Aq = A[m, p, :], A[m, q, :]
            A[m, p, :], A[m, q, :] = c * Ap + s * Aq, c * Aq - s.conj() * Ap
    else:
        raise NumericalError("jacobi_eigh did not converge")
    w = np.diagonal(AV[:, :n], axis1=1, axis2=2).real.copy()
    order = np.argsort(-w, axis=1)
    w[norm == 0], order[norm == 0] = 0.0, np.arange(n)
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(AV[:, n:], order[:, None, :], axis=2)
    return (w[0], V[0]) if single else (w, V)


def _average_state_spectra(lams):
    """``(psi, w, V)`` per list: rho_bar = psi psi^H / |G| and its eigenpairs,
    from one Jacobi run per bounded stack of lists over one group."""
    for chunk in (lams[s] for s in batches(len(lams), 2 * lams[0].group.order ** 2, CACHE_FLOATS)):
        psis = [state_matrix(lam) for lam in chunk]
        rhos = np.stack([psi @ psi.conj().T / lam.group.order for psi, lam in zip(psis, chunk)])
        ws, Vs = jacobi_eigh(rhos)
        for psi, rho, w, V in zip(psis, rhos, ws, Vs):
            res = np.max(np.abs(rho @ V - V * w[None, :]))
            if res > 1e-9 * max(1.0, np.abs(w).max()):
                raise NumericalError(f"eigenpair residual {res} too large")
            yield psi, w, V


def _entropy(psi, w, V) -> float:
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def entropy_of_average_state(lam: EigenList) -> float:
    """S(rho_bar) in bits via dense eigendecomposition; equals H(mu)."""
    return _entropy(*next(_average_state_spectra([lam])))


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


def _pgm_error(psi, w, V) -> float:
    n = psi.shape[1]
    keep = w > 1e-12
    inv_sqrt = (V[:, keep] * (1.0 / np.sqrt(w[keep]))[None, :]) @ V[:, keep].conj().T
    amps = (psi.conj() * (inv_sqrt @ psi)).sum(axis=0)     # <psi_g| rho^-1/2 |psi_g>
    success = float((np.abs(amps) ** 2 / n).sum())
    return 1.0 - success / n


def pgm_bruteforce(lam: EigenList) -> float:
    """PGM error from the explicit square-root measurement.

    Builds rho_bar, inverts its square root on the support (eigenvalues below
    1e-12 are excluded), and averages the success amplitudes.
    """
    return _pgm_error(*next(_average_state_spectra([lam])))


# ---------------------------------------------------------------------------
# factor simulations


def _blocks_to_message(group: GroupSpec, rho_stacks, herald_dim, block_dim,
                       herald_first, labels):
    """Extract ensemble (p_h, eigen list) from per-input block structure.

    Each (m, D, D) stack of per-input density matrices is split into all of
    its herald-indexed diagonal blocks at once; the herald is the slow index
    when ``herald_first`` and the fast one otherwise.  No matrix element may
    connect different herald values.  For every group input the conditioned
    block must be rank one with h-independent diagonal; the diagonal (in the
    character basis) times the block dimension is the branch eigen list.
    """
    H, B = herald_dim, block_dim
    hs = np.arange(H)
    probs = diags = None
    for rho in rho_stacks:
        if herald_first:
            T = rho.reshape(-1, H, B, H, B)
        else:
            T = rho.reshape(-1, B, H, B, H).transpose(0, 2, 1, 4, 3)
        off = np.abs(T)
        off[:, hs, :, hs, :] = 0.0
        leak = float(off.max())
        if leak > BLOCK_TOL:
            raise NumericalError(f"herald blocks are not diagonal: leakage {leak}")
        blocks = T[:, hs, :, hs, :].swapaxes(0, 1)     # (input, herald, block, block)
        traces = np.trace(blocks, axis1=2, axis2=3).real
        diag = np.diagonal(blocks, axis1=2, axis2=3).real
        if probs is None:
            probs, diags = traces[0], diag[0]
        if np.max(np.abs(traces - probs)) > BLOCK_TOL:
            raise NumericalError("herald probabilities depend on the group input")
        if np.max(np.abs(diag - diags)[:, probs >= 1e-13], initial=0.0) > 1e-9:
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
    herald are one stacked array W[g1, h, :]; each bounded stack of rho_h is
    one batched product of its W rows.
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
    Wt, Wc = W.transpose(1, 2, 0), (W.conj() / n).transpose(1, 0, 2)
    rho_stacks = (Wt[s] @ Wc[s] for s in batches(n, n ** 4, CACHE_FLOATS))
    return _blocks_to_message(G, rho_stacks, n, n, True, herald_names("check", G, range(n)))


def _circulant_list(G: GroupSpec, gram: np.ndarray, what: str) -> EigenList:
    """The eigen list of a G-circulant gram matrix: the character transform of
    its first row, after checking circulance and that the transform is real."""
    t = tables_for(G)
    row = gram[0]
    circ = float(np.max(np.abs(gram - row[t.add[t.neg]])))
    if circ > BLOCK_TOL * G.order:
        raise NumericalError(f"{what} gram matrix is not circulant: {circ}")
    lam = t.chars.conj().T @ row
    if np.max(np.abs(lam.imag)) > 1e-9:
        raise NumericalError(f"{what} eigen list is not real")
    return EigenList(G, np.clip(lam.real, 0.0, None))


def _equality_lists(pairs) -> list[EigenList]:
    """``simulate_equality`` on (lam1, lam2) pairs over one group, with one
    Jacobi cross-check per bounded stack of gram matrices."""
    out = []
    for s in batches(len(pairs), 2 * pairs[0][0].group.order ** 2, CACHE_FLOATS):
        grams = []
        for lam1, lam2 in pairs[s]:
            if lam1.group.moduli != lam2.group.moduli:
                raise ValidationError("equality simulation: group mismatch")
            psi1, psi2 = state_matrix(lam1), state_matrix(lam2)
            gram = (psi1.conj().T @ psi1) * (psi2.conj().T @ psi2)
            out.append(_circulant_list(lam1.group, gram, "combined"))
            grams.append(gram)
        # cross-check each multiset against a dense eigendecomposition
        for w, lam in zip(jacobi_eigh(np.stack(grams))[0], out[s]):
            if np.max(np.abs(np.sort(w) - np.sort(lam.values))) > 1e-8 * max(1.0, lam.group.order):
                raise NumericalError("gram eigenvalues disagree with the character transform")
    return out


def simulate_equality(lam1: EigenList, lam2: EigenList) -> EigenList:
    """Dense simulation of the equality factor via the tensor-state Gram matrix."""
    return _equality_lists([(lam1, lam2)])[0]


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
    image = hom_table(surj)
    F = np.stack([psi[:, image == h] for h in range(n2)])     # fibres: kernel cosets
    rho_stacks = (V @ (F[s] @ F[s].conj().swapaxes(1, 2) / F.shape[2]) @ V.T
                  for s in batches(n2, n1 * n1, CACHE_FLOATS))
    return _blocks_to_message(G2, rho_stacks, nrep, n2, False, herald_names("hom", G1, reps))


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
    # psi[:, g1 + n1 * g2] is fibre[g1, :, g2]
    fibre = state_matrix(lam).reshape(U.order, n2, n1).transpose(2, 0, 1)
    rho_stacks = (fibre[s] @ fibre[s].conj().swapaxes(1, 2) / n2
                  for s in batches(n1, U.order ** 2, CACHE_FLOATS))
    # combined dual index = chi + n1 * eta: eta blocks are the slow digits
    return _blocks_to_message(G1, rho_stacks, n2, n1, True, herald_names("marg", G2, range(n2)))


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
    ``rule`` is one of `RULES`.  Heralds of the two paths are paired by their
    label text (`messages.herald_names`).  All ``count`` instances are drawn
    first; the equality, pgm and entropy rules then diagonalise bounded
    stacks of them in one Jacobi run each.
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
    U = G if G.rank >= 2 else GroupSpec(G.moduli + (2,) * (2 - G.rank))
    draws = {
        "check": lambda: (random_eigenlist(G, rng), random_eigenlist(G, rng)),
        "hom": lambda: (random_eigenlist(G, rng), random_hom(G, rng)),
        "marginalize": lambda: (random_eigenlist(U, rng), int(rng.integers(1, U.rank))),
        "automorphism": lambda: (random_eigenlist(G, rng), random_automorphism(G, rng)),
    }
    draws["equality"] = draws["check"]
    if rule not in RULES:
        raise ValidationError(f"unknown verification rule {rule!r}")
    inputs = [draws.get(rule, lambda: (random_eigenlist(G, rng),))() for _ in range(count)]
    lams = [args[0] for args in inputs]
    dps, dls = [], []
    if rule in ("check", "hom", "marginalize"):
        simulate, fast = {"check": (simulate_check, check_combine),
                          "hom": (simulate_hom, hom_push),
                          "marginalize": (simulate_marginalize, marginalize_split)}[rule]
        for args in inputs:
            sim_msg, fast_msg = simulate(*args), fast(*args)
            at = {labels[0]: i for i, labels in enumerate(fast_msg.labels)}
            if len(sim_msg) != len(at):
                raise NumericalError("herald supports differ between paths")
            at = [at[labels[0]] for labels in sim_msg.labels]
            dps.append(np.max(np.abs(sim_msg.probs - fast_msg.probs[at])))
            dls.append(np.max(np.abs(sim_msg.lams - fast_msg.lams[at])))
    elif rule == "equality":
        dls = [np.max(np.abs(sim.values - equality_combine(*args).values))
               for sim, args in zip(_equality_lists(inputs), inputs)]
    elif rule == "automorphism":
        dls = [np.max(np.abs(simulate_automorphism(*args).values
                             - apply_automorphism(*args).values)) for args in inputs]
    elif rule == "gram":
        for lam in lams:
            report = verify_gram_diagonalization(lam)
            dls += [report["max_eigen_residual"], report["max_circulance_dev"]]
    elif rule == "covariance":
        dls = [verify_covariance(lam)["max_deviation"] for lam in lams]
    else:
        scalar, fast = (_pgm_error, pgm_error) if rule == "pgm" else (_entropy, holevo_info)
        dls = [abs(scalar(*spectrum) - fast(lam))
               for spectrum, lam in zip(_average_state_spectra(lams), lams)]
    max_dp, max_dl = (max([0.0, *map(float, d)]) for d in (dps, dls))
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
    relabeled = state_matrix(lam)[:, hom_table(invert_automorphism(phi))]
    return _circulant_list(lam.group, relabeled.conj().T @ relabeled, "relabeled")
