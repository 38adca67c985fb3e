import numpy as np
import pytest

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    apply_automorphism,
    check_combine,
    equality_combine,
    hom_push,
    holevo_info,
    inversion_automorphism,
    marginalize_split,
    perfect_list,
    permute_coordinates,
    pgm_error,
    useless_list,
)
from abelianbp import oracle

Z32 = GroupSpec((3, 2))
Z4 = GroupSpec((4,))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])

ORACLE_GROUPS = [GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)), GroupSpec((6,)),
                 GroupSpec((2, 2)), GroupSpec((3, 2))]


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    v *= G.order / v.sum()
    return EigenList(G, v)


def assert_messages_match(sim, fast, ptol=1e-10, ltol=1e-9):
    d = {b.labels[0]: b for b in fast.branches}
    assert len(sim.branches) == len(fast.branches)
    for b in sim.branches:
        fb = d[b.labels[0]]
        assert abs(b.prob - fb.prob) <= ptol
        assert np.max(np.abs(b.lam.values - fb.lam.values)) <= ltol


def test_jacobi_identity_and_diag():
    w, V = oracle.jacobi_eigh(np.eye(4))
    assert np.allclose(w, 1.0)
    w, V = oracle.jacobi_eigh(np.diag([3.0, 1.0, 0.0]))
    assert np.allclose(w, [3.0, 1.0, 0.0])


def test_jacobi_random_hermitian():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9, 16):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = A + A.conj().T
        w, V = oracle.jacobi_eigh(A)
        assert np.max(np.abs(A @ V - V * w[None, :])) < 1e-9
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) < 1e-10
        assert np.max(np.abs(np.sort(w) - np.sort(np.linalg.eigvalsh(A)))) < 1e-9


def test_jacobi_gram_eigenvalues_match_eigenlist():
    lam = equality_combine(LAM1, LAM2)
    psi = oracle.state_matrix(lam)
    gram = psi.conj().T @ psi
    w, _ = oracle.jacobi_eigh(gram)
    assert np.max(np.abs(np.sort(w) - np.sort(lam.values))) < 1e-9


def test_gram_diagonalization():
    assert oracle.verify_gram_diagonalization(perfect_list(Z4))["ok"]
    assert oracle.verify_gram_diagonalization(useless_list(Z4))["ok"]
    rng = np.random.default_rng(1)
    for G in ORACLE_GROUPS:
        for _ in range(10):
            assert oracle.verify_gram_diagonalization(rand_lam(G, rng))["ok"]


def test_covariance():
    rng = np.random.default_rng(2)
    assert oracle.verify_covariance(perfect_list(Z32))["ok"]
    assert oracle.verify_covariance(useless_list(Z32))["ok"]
    for G in ORACLE_GROUPS:
        for _ in range(5):
            assert oracle.verify_covariance(rand_lam(G, rng))["ok"]


def test_pgm_bruteforce():
    assert oracle.pgm_bruteforce(perfect_list(Z32)) == pytest.approx(0.0, abs=1e-10)
    assert oracle.pgm_bruteforce(useless_list(Z32)) == pytest.approx(1 - 1 / 6, abs=1e-10)
    lam = equality_combine(LAM1, LAM2)
    assert oracle.pgm_bruteforce(lam) == pytest.approx(pgm_error(lam), abs=1e-9)
    assert oracle.pgm_bruteforce(lam) == pytest.approx(0.0449162, abs=1e-6)


def test_entropy_matches_holevo():
    rng = np.random.default_rng(3)
    for G in ORACLE_GROUPS:
        for _ in range(5):
            lam = rand_lam(G, rng)
            assert oracle.entropy_of_average_state(lam) == pytest.approx(
                holevo_info(lam), abs=1e-8)


def test_simulate_check_worked_example():
    sim = oracle.simulate_check(LAM1, LAM2)
    fast = check_combine(LAM1, LAM2)
    assert_messages_match(sim, fast)


def test_simulate_check_useless_partner():
    sim = oracle.simulate_check(LAM1, useless_list(Z32))
    fast = check_combine(LAM1, useless_list(Z32))
    assert_messages_match(sim, fast)


def test_simulate_equality_worked_example():
    sim = oracle.simulate_equality(LAM1, LAM2)
    assert np.max(np.abs(sim.values - [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])) < 1e-10


def test_simulate_hom_worked_example():
    vals = np.zeros(24)
    G432 = GroupSpec((4, 3, 2))
    for u in range(4):
        for v in range(3):
            for w in range(2):
                if (u, w) in [(0, 0), (1, 1)]:
                    val = 2
                elif (u, w) in [(2, 0), (0, 1), (2, 1), (3, 1)]:
                    val = 1
                else:
                    val = 0
                vals[G432.index_of((u, v, w))] = val
    lam = EigenList(G432, vals)
    H = HomSpec(G432, GroupSpec((4, 3)), ((1, 0, 2), (0, 1, 0)))
    assert_messages_match(oracle.simulate_hom(lam, H), hom_push(lam, H))


def test_simulate_hom_kernel_invariance():
    # supported input: states constant along the kernel
    G432 = GroupSpec((4, 3, 2))
    vals = np.zeros(24)
    for u in range(4):
        for v in range(3):
            for w in range(2):
                val = {(0, 0): 2, (1, 1): 1, (2, 0): 3, (3, 1): 2}.get((u, w), 0)
                vals[G432.index_of((u, v, w))] = val
    lam = EigenList(G432, vals)
    psi = oracle.state_matrix(lam)
    k = G432.index_of((2, 0, 1))
    from abelianbp.characters import tables_for
    add = tables_for(G432).add
    shifted = psi[:, add[k]]
    assert np.max(np.abs(shifted - psi)) < 1e-10


def test_simulate_marginalize_and_automorphism():
    rng = np.random.default_rng(4)
    lam = rand_lam(Z32, rng)
    assert_messages_match(oracle.simulate_marginalize(lam, 1), marginalize_split(lam, 1))
    phi = inversion_automorphism(Z32)
    sim = oracle.simulate_automorphism(lam, phi)
    assert np.max(np.abs(sim.values - apply_automorphism(lam, phi).values)) < 1e-9
    Z22 = GroupSpec((2, 2))
    lam22 = rand_lam(Z22, rng)
    swap = permute_coordinates(Z22, (1, 0))
    sim2 = oracle.simulate_automorphism(lam22, swap)
    assert np.max(np.abs(sim2.values - apply_automorphism(lam22, swap).values)) < 1e-9


def test_oracle_equivalence_random_batch():
    # condensed version of the acceptance sweep (full run in test_acceptance)
    rng = np.random.default_rng(5)
    for G in [GroupSpec((3,)), GroupSpec((3, 2))]:
        for _ in range(5):
            a, b = rand_lam(G, rng), rand_lam(G, rng)
            assert_messages_match(oracle.simulate_check(a, b), check_combine(a, b))
            assert np.max(np.abs(oracle.simulate_equality(a, b).values
                                 - equality_combine(a, b).values)) < 1e-9


def test_jacobi_rejects_non_hermitian():
    with pytest.raises(Exception):
        oracle.jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_verify_rule_rejects_empty_runs():
    from abelianbp import ValidationError

    for count in (0, -5):
        with pytest.raises(ValidationError, match="count"):
            oracle.verify_rule("check", GroupSpec((3,)), 1, count)
