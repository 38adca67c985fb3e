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
from message_rows import rows

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
    d = {b.labels[0]: b for b in rows(fast)}
    assert len(sim) == len(fast)
    for b in rows(sim):
        fb = d[b.labels[0]]
        assert abs(b.prob - fb.prob) <= ptol
        assert np.max(np.abs(b.lam - fb.lam)) <= ltol


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


def test_simulate_hom_on_a_non_coordinate_image():
    """hom_push through the quotient-recursion image basis of Z4xZ2 -> Z2^3
    agrees with the dense simulation."""
    H = HomSpec(GroupSpec((4, 2)), GroupSpec((2, 2, 2)), ((1, 0), (0, 1), (1, 1)))
    lam = rand_lam(H.source, np.random.default_rng(7))
    assert_messages_match(oracle.simulate_hom(lam, H), hom_push(lam, H), ptol=1e-9)


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


def test_simulate_marginalize_rejects_bad_split_points():
    from abelianbp import ValidationError

    lam = rand_lam(Z32, np.random.default_rng(6))
    for keep in (-1, 3):
        with pytest.raises(ValidationError, match="split point"):
            marginalize_split(lam, keep)
        with pytest.raises(ValidationError, match="split point"):
            oracle.simulate_marginalize(lam, keep)


def loop_check_states(lam1, lam2):
    """The per-herald kron/outer construction of the check factor's states."""
    from abelianbp.characters import tables_for

    n = lam1.group.order
    t = tables_for(lam1.group)
    psi1, psi2 = oracle.state_matrix(lam1), oracle.state_matrix(lam2)
    perm = np.empty(n * n, dtype=np.int64)
    for c in range(n):
        for cp in range(n):
            perm[t.add[c, t.neg[cp]] * n + cp] = c * n + cp
    out = []
    for h in range(n):
        rho = np.zeros((n * n, n * n), dtype=np.complex128)
        for g1 in range(n):
            vec = np.kron(psi1[:, g1], psi2[:, t.add[t.neg[g1], h]])
            rho += np.outer(vec, vec.conj())
        out.append(rho[np.ix_(perm, perm)] / n)
    return out


@pytest.mark.parametrize("moduli", [(3,), (3, 2), (4, 3)])
def test_simulate_check_states_match_the_loop_reference(monkeypatch, moduli):
    G = GroupSpec(moduli)
    rng = np.random.default_rng(7)
    a, b = rand_lam(G, rng), rand_lam(G, rng)
    seen = []
    split = oracle._blocks_to_message

    def capture(group, rho_stacks, *args):
        for stack in rho_stacks:
            seen.extend(stack)
        return split(group, seen, *args)

    monkeypatch.setattr(oracle, "_blocks_to_message", capture)
    msg = oracle.simulate_check(a, b)
    ref = loop_check_states(a, b)
    assert len(seen) == len(ref) == G.order
    assert max(np.max(np.abs(s - r)) for s, r in zip(seen, ref)) <= 1e-13
    assert_messages_match(msg, check_combine(a, b))


def herald_rho(probs, amps, phase, herald_first, mixed=(), leak=0.0):
    """Block-diagonal density matrix p_h |v_h><v_h| with |v_h[b]|^2 = amps[h][b].

    Heralds listed in `mixed` get the rank-two block p_h diag(amps[h]) instead;
    `leak` couples element 0 of herald 0 to element 1 of herald 1.
    """
    H, B = len(probs), len(amps[0])
    T = np.zeros((H, B, H, B), dtype=np.complex128)
    for h, (p, a) in enumerate(zip(probs, amps)):
        v = np.sqrt(a) * np.exp(1j * phase * np.arange(B))
        T[h, :, h, :] = p * (np.diag(a) if h in mixed else np.outer(v, v.conj()))
    T[0, 0, 1, 1] = T[1, 1, 0, 0] = leak
    if not herald_first:
        T = T.transpose(1, 0, 3, 2)
    return T.reshape(H * B, H * B)


AMPS = ([0.8, 0.2], [0.3, 0.7])


def crafted_inputs(breach, herald_first):
    probs = (0.25, 0.75)
    first = herald_rho(probs, AMPS, 0.0, herald_first)
    if breach == "leakage":
        second = herald_rho(probs, AMPS, 0.7, herald_first, leak=1e-6)
    elif breach == "probabilities":
        second = herald_rho(probs[::-1], AMPS, 0.7, herald_first)
    elif breach == "diagonals":
        second = herald_rho(probs, ([0.6, 0.4], AMPS[1]), 0.7, herald_first)
    elif breach == "rank":
        second = herald_rho(probs, AMPS, 0.7, herald_first, mixed=(1,))
    elif breach == "total":
        first = herald_rho((0.3, 0.8), AMPS, 0.0, herald_first)
        second = herald_rho((0.3, 0.8), AMPS, 0.7, herald_first)
    else:
        second = herald_rho(probs, AMPS, 0.7, herald_first)
    return [first, second]


@pytest.mark.parametrize("herald_first", [True, False])
def test_blocks_to_message_reads_a_valid_ensemble(herald_first):
    Z2 = GroupSpec((2,))
    msg = oracle._blocks_to_message(Z2, crafted_inputs(None, herald_first), 2, 2,
                                    herald_first, ["a", "b"])
    assert np.allclose(msg.probs, [0.25, 0.75], atol=1e-15)
    assert np.allclose(msg.lams, 2 * np.array(AMPS), atol=1e-14)


@pytest.mark.parametrize("herald_first", [True, False])
@pytest.mark.parametrize("breach, message", [
    ("leakage", "not diagonal"),
    ("probabilities", "probabilities depend"),
    ("diagonals", "diagonals depend"),
    ("rank", "not rank one"),
    ("total", "sum to"),
])
def test_blocks_to_message_rejects_each_breach(herald_first, breach, message):
    from abelianbp import NumericalError

    with pytest.raises(NumericalError, match=message):
        oracle._blocks_to_message(GroupSpec((2,)), crafted_inputs(breach, herald_first),
                                  2, 2, herald_first, ["a", "b"])


def rejected(rule, G):
    try:
        return not oracle.verify_rule(rule, G, 8, 5)["ok"]
    except Exception:
        return True


def test_verify_rule_rejects_a_broken_fast_path(monkeypatch):
    from abelianbp import factors
    from abelianbp.messages import HeraldedMessage

    assert not rejected("check", Z32) and not rejected("equality", Z32)
    check, equality = factors.check_combine, factors.equality_combine

    def swapped(a, b):
        msg = check(a, b)
        probs = msg.probs.copy()
        probs[[0, 1]] = probs[[1, 0]]
        return HeraldedMessage.of(msg.group, probs, msg.lams, msg.labels)

    def perturbed(a, b):
        values = np.array(equality(a, b).values)
        values[0] += 1e-6
        return EigenList(a.group, values)

    monkeypatch.setattr(factors, "check_combine", swapped)
    monkeypatch.setattr(factors, "equality_combine", perturbed)
    assert rejected("check", Z32)
    assert rejected("equality", Z32)


def test_jacobi_edge_cases():
    w, V = oracle.jacobi_eigh(np.array([[2.5]]))
    assert w.tolist() == [2.5] and V.tolist() == [[1.0]]
    w, V = oracle.jacobi_eigh(np.zeros((4, 4)))
    assert w.tolist() == [0.0] * 4 and np.array_equal(V, np.eye(4))
    rng = np.random.default_rng(9)
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    A = np.eye(6) + np.outer(u, u.conj())          # eigenvalues 1 + |u|^2, then 1 five times
    w, V = oracle.jacobi_eigh(A)
    assert np.max(np.abs(w - np.r_[1 + np.vdot(u, u).real, [1.0] * 5])) < 1e-12
    assert np.max(np.abs(A @ V - V * w[None, :])) < 1e-12
    assert np.max(np.abs(V.conj().T @ V - np.eye(6))) < 1e-12
    for n in (3, 7, 11):
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = B + B.conj().T
        w, V = oracle.jacobi_eigh(B)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(B @ V - V * w[None, :])) < 1e-9
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) < 1e-10


def test_round_robin_schedule_covers_every_pair_once():
    for n in range(1, 14):
        rounds = oracle._round_robin(n)
        pairs = [(int(p), int(q)) for ps, qs in rounds for p, q in zip(ps, qs)]
        assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]
        for ps, qs in rounds:
            assert len(ps) == n // 2 and len(set(ps) | set(qs)) == 2 * len(ps)


def test_oracle_needs_no_lapack_eigensolver_and_no_fast_path(monkeypatch):
    from abelianbp import eigenlists, factors

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a routine it must not depend on")

    for name in ("eigh", "eigvalsh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for rule in ("check", "equality", "hom", "marginalize", "automorphism",
                 "gram", "covariance", "pgm", "entropy"):
        assert oracle.verify_rule(rule, Z32, 10, 3)["ok"], rule
    for mod in (factors, eigenlists):
        for name, value in list(vars(mod).items()):
            if callable(value) and getattr(value, "__module__", None) == mod.__name__ \
                    and not isinstance(value, type):
                monkeypatch.setattr(mod, name, forbidden)
    rng = np.random.default_rng(11)
    a, b = rand_lam(Z32, rng), rand_lam(Z32, rng)
    oracle.simulate_check(a, b)
    oracle.simulate_equality(a, b)
    oracle.simulate_hom(a, HomSpec(Z32, GroupSpec((3,)), ((1, 0),)))
    oracle.simulate_marginalize(a, 1)
    oracle.simulate_automorphism(a, inversion_automorphism(Z32))
    oracle.verify_gram_diagonalization(a)
    oracle.verify_covariance(a)
    oracle.pgm_bruteforce(a)
    oracle.entropy_of_average_state(a)


def test_jacobi_stack_equals_per_matrix_runs_byte_for_byte():
    from abelianbp import ValidationError

    psi = oracle.state_matrix(equality_combine(LAM1, LAM2))
    gram = psi.conj().T @ psi                               # dense: several sweeps
    diag = np.diag([3.0, 1.0, 2.0, 0.5, 0.0, 1.0])          # 0 sweeps
    near = diag + 1e-4 * np.ones((6, 6))                     # converges sweeps earlier
    stacks = [np.stack([diag, gram, np.zeros((6, 6)), near, gram.conj()]),
              np.array([[[2.5]], [[0.0]], [[-1.0]]])]
    for stack in stacks:
        w, V = oracle.jacobi_eigh(stack)
        assert w.shape == stack.shape[:2] and V.shape == stack.shape
        for A, wi, Vi in zip(stack, w, V):
            w1, V1 = oracle.jacobi_eigh(A)
            assert wi.tobytes() == w1.tobytes() and Vi.tobytes() == V1.tobytes()
    broken = stacks[0].copy()
    broken[2, 0, 1] = 1.0
    with pytest.raises(ValidationError, match="not Hermitian"):
        oracle.jacobi_eigh(broken)
    with pytest.raises(ValidationError, match="square"):
        oracle.jacobi_eigh(np.zeros((2, 2, 2, 2)))


def loop_verify_rule(rule, G, seed, count):
    """``verify_rule`` one instance at a time through the public single-instance
    functions, drawing from the same generator in the same order."""
    from abelianbp.messages import check_seed

    check_seed(seed)
    rng = np.random.default_rng(seed)
    max_dp = max_dl = 0.0
    for _ in range(count):
        lam = oracle.random_eigenlist(G, rng)
        if rule in ("check", "hom", "marginalize"):
            if rule == "check":
                args = (lam, oracle.random_eigenlist(G, rng))
                sim, fast = oracle.simulate_check(*args), check_combine(*args)
            elif rule == "hom":
                args = (lam, oracle.random_hom(G, rng))
                sim, fast = oracle.simulate_hom(*args), hom_push(*args)
            else:
                args = (lam, int(rng.integers(1, G.rank)))
                sim, fast = oracle.simulate_marginalize(*args), marginalize_split(*args)
            at = {labels[0]: i for i, labels in enumerate(fast.labels)}
            assert len(at) == len(sim)
            at = [at[labels[0]] for labels in sim.labels]
            max_dp = max(max_dp, float(np.max(np.abs(sim.probs - fast.probs[at]))))
            max_dl = max(max_dl, float(np.max(np.abs(sim.lams - fast.lams[at]))))
        elif rule == "equality":
            b = oracle.random_eigenlist(G, rng)
            max_dl = max(max_dl, float(np.max(np.abs(
                oracle.simulate_equality(lam, b).values - equality_combine(lam, b).values))))
        elif rule == "automorphism":
            phi = oracle.random_automorphism(G, rng)
            max_dl = max(max_dl, float(np.max(np.abs(
                oracle.simulate_automorphism(lam, phi).values
                - apply_automorphism(lam, phi).values))))
        elif rule == "gram":
            report = oracle.verify_gram_diagonalization(lam)
            max_dl = max(max_dl, report["max_eigen_residual"], report["max_circulance_dev"])
        elif rule == "covariance":
            max_dl = max(max_dl, oracle.verify_covariance(lam)["max_deviation"])
        elif rule == "pgm":
            max_dl = max(max_dl, abs(oracle.pgm_bruteforce(lam) - pgm_error(lam)))
        else:
            max_dl = max(max_dl, abs(oracle.entropy_of_average_state(lam) - holevo_info(lam)))
    tol = {"pgm": 1e-9, "entropy": 1e-8}.get(rule, 1e-9)
    return {"rule": rule, "group": str(G), "count": count, "max_prob_deviation": max_dp,
            "max_list_deviation": max_dl, "ok": max_dp <= 1e-10 and max_dl <= tol}


ALL_RULES = ("check", "equality", "hom", "marginalize", "automorphism",
             "gram", "covariance", "pgm", "entropy")


@pytest.mark.parametrize("budget", [None, 500])
@pytest.mark.parametrize("moduli", [(3, 2), (4, 3), (2, 2, 3)])
def test_verify_rule_matches_the_per_instance_loop(monkeypatch, moduli, budget):
    import json

    if budget:      # a small budget splits instances and heralds over several stacks
        monkeypatch.setattr(oracle, "CACHE_FLOATS", budget)
    G = GroupSpec(moduli)
    for rule in ALL_RULES:
        assert json.dumps(oracle.verify_rule(rule, G, 3, 20)) == \
            json.dumps(loop_verify_rule(rule, G, 3, 20)), rule


def test_verify_rule_stacks_stay_within_the_budget(monkeypatch):
    G = GroupSpec((4, 3))
    shapes = {"jacobi": [], "blocks": []}
    jacobi, split = oracle.jacobi_eigh, oracle._blocks_to_message

    def spy_jacobi(A, *args, **kwargs):
        shapes["jacobi"].append(np.shape(A))
        return jacobi(A, *args, **kwargs)

    def spy_split(group, rho_stacks, *args):
        def seen():
            for stack in rho_stacks:
                shapes["blocks"].append(np.shape(stack))
                yield stack
        return split(group, seen(), *args)

    monkeypatch.setattr(oracle, "jacobi_eigh", spy_jacobi)
    monkeypatch.setattr(oracle, "_blocks_to_message", spy_split)
    for rule in ("check", "equality", "hom", "marginalize", "pgm", "entropy"):
        assert oracle.verify_rule(rule, G, 4, 200)["ok"], rule
    assert shapes["blocks"] and max(map(np.prod, shapes["blocks"])) <= oracle.CACHE_FLOATS
    # a Jacobi stack holds A on top of V: twice its input
    assert 2 * max(map(np.prod, shapes["jacobi"])) <= oracle.CACHE_FLOATS
    assert sum(s[0] for s in shapes["jacobi"]) == 3 * 200 and max(shapes["jacobi"])[0] > 1


@pytest.mark.parametrize("moduli", [(3, 2), (4, 3)])
def test_oracle_and_fast_path_name_the_same_heralds(moduli):
    G = GroupSpec(moduli)
    rng = np.random.default_rng(7)
    for _ in range(3):
        lam1, lam2 = oracle.random_eigenlist(G, rng), oracle.random_eigenlist(G, rng)
        hom = oracle.random_hom(G, rng)
        for sim, fast in [(oracle.simulate_check(lam1, lam2), check_combine(lam1, lam2)),
                          (oracle.simulate_hom(lam1, hom), hom_push(lam1, hom)),
                          (oracle.simulate_marginalize(lam1, 1), marginalize_split(lam1, 1))]:
            assert sorted(sim.labels) == sorted(fast.labels)
            assert len(set(sim.labels)) == len(sim)
