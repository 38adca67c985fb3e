import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelianbp import (
    EigenList,
    GroupSpec,
    HeraldedMessage,
    ValidationError,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    holevo_info,
    merge_duplicates,
    perfect_list,
    pgm_error,
    prune,
    pure,
    useless_list,
)
from abelianbp.messages import DEFAULT_MERGE_TOL, Branch
from one_trajectory import guard, sample

Z32 = GroupSpec((3, 2))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])


def worked_check_ensemble():
    return check_combine(LAM1, LAM2)


def test_pure():
    msg = pure(perfect_list(Z32))
    assert len(msg) == 1 and msg.branches[0].prob == 1.0
    msg2 = pure(useless_list(Z32), labels=("leaf",))
    assert msg2.branches[0].labels == ("leaf",)
    pure(LAM1)


def test_probability_validation():
    with pytest.raises(ValidationError):
        HeraldedMessage(Z32, (Branch(0.5, LAM1), Branch(0.4, LAM2)))
    with pytest.raises(ValidationError):
        HeraldedMessage(Z32, (Branch(-0.1, LAM1), Branch(1.1, LAM2)))


def test_merge_duplicates_on_check_output():
    merged = merge_duplicates(worked_check_ensemble())
    assert len(merged) == 3
    probs = [b.prob for b in merged.branches]
    assert probs == pytest.approx([1 / 3, 1 / 2, 1 / 6])
    assert np.allclose(merged.branches[0].lam.values, [4, 0, 0, 2, 0, 0])
    # labels concatenate
    assert merged.branches[0].labels == ("check:(0,0)", "check:(0,1)")


def test_merge_noop_on_distinct_branches():
    msg = HeraldedMessage(Z32, (Branch(0.5, LAM1, ("a",)), Branch(0.5, LAM2, ("b",))))
    merged = merge_duplicates(msg)
    assert len(merged) == 2
    assert merged.branches[0].labels == ("a",)


def test_merge_survives_lex_interloper():
    # a branch lex-sorting between two jittered duplicates (same leading
    # coordinates, diverging tail) must not split their cluster
    G = GroupSpec((4,))
    dup1 = EigenList(G, [1.0, 0.0, 2.0, 1.0])
    dup2 = EigenList(G, [1.0, 1e-12, 2.0 - 2e-12, 1.0 + 1e-12])
    interloper = EigenList(G, [1.0, 5e-13, 1.5, 1.5 - 5e-13])
    msg = HeraldedMessage(G, (Branch(0.3, dup1, ("a",)),
                              Branch(0.3, interloper, ("w",)),
                              Branch(0.4, dup2, ("b",))))
    out = merge_duplicates(msg, tol=1e-9)
    assert len(out) == 2
    labels = {b.labels for b in out.branches}
    assert ("a", "b") in labels
    assert ("w",) in labels


def test_merge_identical_branches():
    msg = HeraldedMessage(Z32, (Branch(0.4, LAM1), Branch(0.6, LAM1)))
    merged = merge_duplicates(msg)
    assert len(merged) == 1
    assert merged.branches[0].prob == pytest.approx(1.0)


def test_prune():
    msg = worked_check_ensemble()
    assert prune(msg, 0.0) is msg
    two = HeraldedMessage(Z32, (Branch(1e-20, LAM1), Branch(1 - 1e-20, LAM2)))
    pruned = prune(two, 1e-15)
    assert len(pruned) == 1
    assert pruned.branches[0].prob == pytest.approx(1.0)
    assert len(prune(merge_duplicates(msg), 0.05)) == 3  # all probs >= 1/6
    with pytest.raises(ValidationError):
        prune(two, 0.7)


def test_pickle_round_trip_keeps_the_arrays():
    import pickle

    from abelianbp.factors import _check
    from population_tracker import PopulationTracker

    exact = merge_duplicates(check_combine(LAM1, EigenList(Z32, [1.5, 0.25, 1, 2, 0.5, 0.75])))
    pruned = prune(exact, np.sort(exact.probs)[1])
    tracker = PopulationTracker("sampled", seed=3, prune_eps=0.0, samples=20)
    sampled = tracker.step(_check(Z32), [tracker.entry(pure(LAM1, ("a",))),
                                         tracker.entry(exact)])
    assert len(pruned) < len(exact) and len(sampled) == 20
    for msg in (exact, pruned, sampled):
        back = pickle.loads(pickle.dumps(msg))
        assert back.probs.tobytes() == msg.probs.tobytes()
        assert back.lams.tobytes() == msg.lams.tobytes()
        assert back.labels == msg.labels
        assert not back.probs.flags.writeable and not back.lams.flags.writeable


def test_guard_modes_and_dropped_mass(monkeypatch):
    msg = HeraldedMessage(Z32, (Branch(1 - 3e-13, LAM1), Branch(1e-13, LAM2),
                                Branch(2e-13, useless_list(Z32))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert guard(msg, None) is msg
        assert len(guard(msg, None, prune_eps=0.01)) == 1
        drawn = guard(msg, np.random.default_rng(0), prune_eps=0.01)
    assert len(drawn) == 1 and drawn.branches[0].prob == 1.0
    monkeypatch.setattr("abelianbp.messages.BRANCH_CAP", 2)
    with pytest.warns(RuntimeWarning, match=r"branch count 3 exceeds cap 2; .* mass 3e-13$"):
        out = guard(msg, None)
    assert len(out) == 1
    assert np.array_equal(out.branches[0].lam.values, LAM1.values)


def test_merge_and_prune_preserve_metrics():
    msg = worked_check_ensemble()
    for f in (lambda m: merge_duplicates(m), lambda m: prune(m, 0.0)):
        out = f(msg)
        assert avg_holevo(out) == pytest.approx(avg_holevo(msg), abs=1e-12)
        assert avg_pgm_error(out) == pytest.approx(avg_pgm_error(msg), abs=1e-12)
        assert sum(b.prob for b in out.branches) == pytest.approx(1.0, abs=1e-12)


def test_sample_single_branch():
    msg = pure(LAM1)
    for seed in (0, 1, 2):
        lam, labels = sample(msg, np.random.default_rng(seed))
        assert np.array_equal(lam.values, LAM1.values)


def test_sample_frequencies():
    msg = merge_duplicates(worked_check_ensemble())
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    n = 100_000
    keys = [tuple(np.round(b.lam.values, 9)) for b in msg.branches]
    for _ in range(n):
        lam, _ = sample(msg, rng)
        counts[keys.index(tuple(np.round(lam.values, 9)))] += 1
    for p, c in zip([1 / 3, 1 / 2, 1 / 6], counts):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(c - n * p) < 3 * sigma


def test_sample_determinism():
    msg = merge_duplicates(worked_check_ensemble())
    draws1 = [sample(msg, np.random.default_rng(42))[1] for _ in range(10)]
    draws2 = [sample(msg, np.random.default_rng(42))[1] for _ in range(10)]
    assert draws1 == draws2


def test_avg_metrics():
    msg = pure(LAM1)
    assert avg_holevo(msg) == pytest.approx(holevo_info(LAM1))
    assert avg_pgm_error(msg) == pytest.approx(pgm_error(LAM1))
    half = HeraldedMessage(Z32, (Branch(0.5, perfect_list(Z32)),
                                 Branch(0.5, useless_list(Z32))))
    assert avg_pgm_error(half) == pytest.approx((1 - 1 / 6) / 2)
    # frozen expectation computed from the three merged branch lists
    merged = merge_duplicates(worked_check_ensemble())
    expected = sum(b.prob * holevo_info(b.lam) for b in merged.branches)
    assert avg_holevo(merged) == pytest.approx(expected, abs=1e-12)


def reference_merge(msg, tol=DEFAULT_MERGE_TOL):
    """The quadratic merge that `merge_duplicates` replaced: a sequential scan
    of the lexsorted lists, then a pairwise repair over the representatives."""
    if len(msg) == 1:
        return msg
    mats = np.stack([b.lam.values for b in msg.branches])
    order = np.lexsort(mats.T[::-1])
    clusters = []
    rep = None
    for pos in order:
        if rep is not None and np.max(np.abs(mats[pos] - rep)) <= tol:
            clusters[-1].append(int(pos))
        else:
            clusters.append([int(pos)])
            rep = mats[pos]
    merged = []
    for idxs in clusters:
        for target in merged:
            if np.max(np.abs(mats[idxs[0]] - mats[target[0]])) <= tol:
                target.extend(idxs)
                break
        else:
            merged.append(idxs)
    for idxs in merged:
        idxs.sort()
    merged.sort(key=min)
    out = []
    for idxs in merged:
        prob = float(sum(msg.branches[i].prob for i in idxs))
        labels = tuple(lab for i in idxs for lab in msg.branches[i].labels)
        out.append(Branch(prob, msg.branches[idxs[0]].lam, labels))
    return HeraldedMessage(msg.group, tuple(out))


@st.composite
def mixtures_with_duplicates(draw):
    """Up to 300 branches on a group of order <= 24, and a merge tolerance.

    Branches include exact duplicates, duplicates jittered by up to 1e-12,
    lex interlopers (a list that sorts between a list and its jittered
    copy) and, in the "permuted" style, lists sharing one multiset of
    values, so that every column has ties.  A tolerance of 1e-12 lets
    jittered copies chain past the first list of their cluster.
    """
    moduli, order = [], 1
    for _ in range(draw(st.integers(1, 3))):
        if 24 // order < 2:
            break
        moduli.append(draw(st.integers(2, 24 // order)))
        order *= moduli[-1]
    G = GroupSpec(tuple(moduli))
    n = G.order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 300))
    distinct = draw(st.integers(1, k))
    if draw(st.sampled_from(["random", "permuted"])) == "random":
        base = rng.uniform(0.1, 2.0, (distinct, n))
    else:
        row = rng.uniform(0.1, 2.0, n)
        base = np.array([rng.permutation(row) for _ in range(distinct)])
    base *= n / base.sum(axis=1, keepdims=True)
    rows = base[rng.integers(0, distinct, k)]
    jittered = rng.random(k) < draw(st.floats(0.0, 1.0))
    rows[jittered] += rng.uniform(-1e-12, 1e-12, (int(jittered.sum()), n))
    rows = list(rows)
    if n >= 3:
        for _ in range(draw(st.integers(0, 5))):
            r = rows[rng.integers(len(rows))]
            interloper, dup = r.copy(), r.copy()
            interloper[1] += 5e-13
            interloper[2:] = rng.permutation(r[2:])
            dup[1] += 1e-12
            dup[2:] += rng.uniform(-1e-12, 1e-12, n - 2)
            at = int(rng.integers(len(rows) + 1))
            rows[at:at] = [interloper, dup]
    probs = rng.random(len(rows)) + 0.01
    probs /= probs.sum()
    msg = HeraldedMessage(G, tuple(Branch(float(p), EigenList(G, row), (f"b{i}",))
                                   for i, (p, row) in enumerate(zip(probs, rows))))
    tol = draw(st.sampled_from([DEFAULT_MERGE_TOL, 1e-12, 0.0]))
    return msg, tol


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mixtures_with_duplicates())
def test_merge_matches_quadratic_reference(case):
    msg, tol = case
    got, want = merge_duplicates(msg, tol), reference_merge(msg, tol)
    assert len(got) == len(want)
    for g, w in zip(got.branches, want.branches):
        assert g.labels == w.labels
        assert np.array_equal(g.lam.values, w.lam.values)
        assert abs(g.prob - w.prob) <= 1e-15


def test_mixture_metrics_match_the_branch_loop():
    from abelianbp.eigenlists import entropy_bits, pgm_error_of

    rng = np.random.default_rng(17)
    for G in (GroupSpec((3,)), Z32):
        n = G.order
        for _ in range(40):
            k = int(rng.integers(1, 301))
            lams = rng.gamma(0.5, size=(k, n))
            lams[rng.random((k, n)) < 0.2] = 0.0
            lams[:, 0] += 1e-3
            probs = rng.random(k)
            msg = HeraldedMessage(G, [
                Branch(p, EigenList(G, row * n / row.sum()))
                for p, row in zip(probs / probs.sum(), lams)])
            pairs = list(zip(msg.probs.tolist(), msg.lams))
            holevo = sum(p * entropy_bits(row / n) for p, row in pairs)
            pgm = sum(p * pgm_error_of(row) for p, row in pairs)
            assert abs(avg_holevo(msg) - holevo) <= 1e-12
            assert abs(avg_pgm_error(msg) - pgm) <= 1e-12
