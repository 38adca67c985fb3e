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
from abelianbp.messages import DEFAULT_MERGE_TOL
from one_trajectory import guard, sample

Z32 = GroupSpec((3, 2))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])


def worked_check_ensemble():
    return check_combine(LAM1, LAM2)


def test_pure():
    msg = pure(perfect_list(Z32))
    assert len(msg) == 1 and msg.probs[0] == 1.0
    pure(LAM1)


def test_as_message_takes_an_eigen_list_or_a_message():
    from abelianbp.messages import as_message
    from abelianbp.trees import leaf
    from abelianbp.trellis import decode_block, transfer_function_trellis, unroll_to_tree

    msg = check_combine(LAM1, LAM2)
    assert as_message(msg) is msg
    one = as_message(LAM1)
    assert len(one) == 1 and np.array_equal(one.lams[0], LAM1.values) and one.labels == ((),)
    spec, raw = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3), [1.0, 1.0, 1.0]
    for build in (lambda: as_message(LAM1.values), lambda: as_message(None),
                  lambda: leaf("v", list(LAM1.values)),
                  lambda: decode_block(spec, [[raw]]),
                  lambda: unroll_to_tree(spec, [[raw]], 0)):
        with pytest.raises(ValidationError, match="expected an eigen list or heralded message"):
            build()


def test_probability_validation():
    with pytest.raises(ValidationError):
        HeraldedMessage.of(Z32, [0.5, 0.4], [LAM1.values, LAM2.values])
    with pytest.raises(ValidationError):
        HeraldedMessage.of(Z32, [-0.1, 1.1], [LAM1.values, LAM2.values])


def test_of_checks_shapes():
    rows = [LAM1.values, LAM2.values, LAM1.values]
    for probs, lams, labels in (([0.5, 0.5], rows, None),          # 3 lists for 2 branches
                                ([1.0], rows[:1], [("a",), ("b",)]),  # 2 label tuples for 1
                                ([0.5, 0.5], rows[:2], [("a",)]),
                                ([[0.5, 0.5]], rows[:2], None),     # probabilities not 1-D
                                ([1.0], LAM1.values, None),         # lists not (k, |G|)
                                ([1.0], [rows[:1]], None)):
        with pytest.raises(ValidationError, match="do not match"):
            HeraldedMessage.of(Z32, probs, lams, labels)
    with pytest.raises(ValidationError, match="eigen list length 5 != group order 6"):
        HeraldedMessage.of(Z32, [1.0], [LAM1.values[:5]])
    with pytest.raises(ValidationError, match="not numeric arrays"):
        HeraldedMessage.of(Z32, [0.5, 0.5], [LAM1.values, LAM2.values[:5]])
    for labels in (None, [("a",)]):
        with pytest.raises(ValidationError, match="needs at least one branch"):
            HeraldedMessage.of(Z32, [], [], labels)
    msg = HeraldedMessage.of(Z32, [0.5, 0.5], rows[:2], [("a",), ("b", "c")])
    assert msg.labels == (("a",), ("b", "c"))
    assert HeraldedMessage.of(Z32, [1.0], rows[:1]).labels == ((),)


def test_merge_duplicates_on_check_output():
    merged = merge_duplicates(worked_check_ensemble())
    assert len(merged) == 3
    probs = merged.probs.tolist()
    assert probs == pytest.approx([1 / 3, 1 / 2, 1 / 6])
    assert np.allclose(merged.lams[0], [4, 0, 0, 2, 0, 0])
    # labels concatenate
    assert merged.labels[0] == ("check:(0,0)", "check:(0,1)")


def test_merge_noop_on_distinct_branches():
    msg = HeraldedMessage.of(Z32, [0.5, 0.5], [LAM1.values, LAM2.values], [("a",), ("b",)])
    merged = merge_duplicates(msg)
    assert len(merged) == 2
    assert merged.labels[0] == ("a",)


def test_merge_survives_lex_interloper():
    # a branch lex-sorting between two jittered duplicates (same leading
    # coordinates, diverging tail) must not split their cluster
    G = GroupSpec((4,))
    dup1 = EigenList(G, [1.0, 0.0, 2.0, 1.0])
    dup2 = EigenList(G, [1.0, 1e-12, 2.0 - 2e-12, 1.0 + 1e-12])
    interloper = EigenList(G, [1.0, 5e-13, 1.5, 1.5 - 5e-13])
    msg = HeraldedMessage.of(G, [0.3, 0.3, 0.4], [dup1.values, interloper.values, dup2.values],
                             [("a",), ("w",), ("b",)])
    out = merge_duplicates(msg, tol=1e-9)
    assert len(out) == 2
    labels = set(out.labels)
    assert ("a", "b") in labels
    assert ("w",) in labels


def test_merge_identical_branches():
    msg = HeraldedMessage.of(Z32, [0.4, 0.6], [LAM1.values, LAM1.values])
    merged = merge_duplicates(msg)
    assert len(merged) == 1
    assert merged.probs[0] == pytest.approx(1.0)


def test_prune():
    msg = worked_check_ensemble()
    assert prune(msg, 0.0) is msg
    two = HeraldedMessage.of(Z32, [1e-20, 1 - 1e-20], [LAM1.values, LAM2.values])
    pruned = prune(two, 1e-15)
    assert len(pruned) == 1
    assert pruned.probs[0] == pytest.approx(1.0)
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
    labelled = HeraldedMessage.of(Z32, [1.0], [LAM1.values], [("a",)])
    sampled = tracker.step(_check(Z32), [tracker.entry(labelled), tracker.entry(exact)])
    assert len(pruned) < len(exact) and len(sampled) == 20
    for msg in (exact, pruned, sampled):
        back = pickle.loads(pickle.dumps(msg))
        assert back.probs.tobytes() == msg.probs.tobytes()
        assert back.lams.tobytes() == msg.lams.tobytes()
        assert back.labels == msg.labels
        assert not back.probs.flags.writeable and not back.lams.flags.writeable


def test_guard_modes_and_dropped_mass(monkeypatch):
    msg = HeraldedMessage.of(Z32, [1 - 3e-13, 1e-13, 2e-13],
                             [LAM1.values, LAM2.values, useless_list(Z32).values])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert guard(msg, None) is msg
        assert len(guard(msg, None, prune_eps=0.01)) == 1
        drawn = guard(msg, np.random.default_rng(0), prune_eps=0.01)
    assert len(drawn) == 1 and drawn.probs[0] == 1.0
    monkeypatch.setattr("abelianbp.messages.BRANCH_CAP", 2)
    with pytest.warns(RuntimeWarning, match=r"branch count 3 exceeds cap 2; .* mass 3e-13$"):
        out = guard(msg, None)
    assert len(out) == 1
    assert np.array_equal(out.lams[0], LAM1.values)


def test_merge_and_prune_preserve_metrics():
    msg = worked_check_ensemble()
    for f in (lambda m: merge_duplicates(m), lambda m: prune(m, 0.0)):
        out = f(msg)
        assert avg_holevo(out) == pytest.approx(avg_holevo(msg), abs=1e-12)
        assert avg_pgm_error(out) == pytest.approx(avg_pgm_error(msg), abs=1e-12)
        assert sum(out.probs.tolist()) == pytest.approx(1.0, abs=1e-12)


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
    keys = [tuple(np.round(row, 9)) for row in msg.lams]
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
    half = HeraldedMessage.of(Z32, [0.5, 0.5], [perfect_list(Z32).values, useless_list(Z32).values])
    assert avg_pgm_error(half) == pytest.approx((1 - 1 / 6) / 2)
    # frozen expectation computed from the three merged branch lists
    merged = merge_duplicates(worked_check_ensemble())
    expected = sum(p * holevo_info(EigenList(Z32, row))
                   for p, row in zip(merged.probs.tolist(), merged.lams))
    assert avg_holevo(merged) == pytest.approx(expected, abs=1e-12)


def reference_merge(msg, tol=DEFAULT_MERGE_TOL):
    """The quadratic merge that `merge_duplicates` replaced: a sequential scan
    of the lexsorted lists, then a pairwise repair over the representatives."""
    if len(msg) == 1:
        return msg
    mats = msg.lams
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
    probs, labs, out = msg.probs.tolist(), msg.labels, []
    for idxs in merged:
        prob = float(sum(probs[i] for i in idxs))
        labels = tuple(lab for i in idxs for lab in labs[i])
        out.append((prob, mats[idxs[0]], labels))
    return HeraldedMessage.of(msg.group, *zip(*out))


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
    msg = HeraldedMessage.of(G, probs, [EigenList(G, row).values for row in rows],
                             [(f"b{i}",) for i in range(len(rows))])
    tol = draw(st.sampled_from([DEFAULT_MERGE_TOL, 1e-12, 0.0]))
    return msg, tol


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mixtures_with_duplicates())
def test_merge_matches_quadratic_reference(case):
    msg, tol = case
    got, want = merge_duplicates(msg, tol), reference_merge(msg, tol)
    assert len(got) == len(want)
    assert got.labels == want.labels
    assert np.array_equal(got.lams, want.lams)
    assert np.abs(got.probs - want.probs).max() <= 1e-15


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
            msg = HeraldedMessage.of(G, probs / probs.sum(),
                                     [EigenList(G, row * n / row.sum()).values for row in lams])
            pairs = list(zip(msg.probs.tolist(), msg.lams))
            holevo = sum(p * entropy_bits(row / n) for p, row in pairs)
            pgm = sum(p * pgm_error_of(row) for p, row in pairs)
            assert abs(avg_holevo(msg) - holevo) <= 1e-12
            assert abs(avg_pgm_error(msg) - pgm) <= 1e-12


@pytest.mark.parametrize("total, item, budget",
                         [(0, 3, 10), (1, 3, 10), (10, 3, 10), (10, 20, 10), (7, 1, 7),
                          (100, 7, 64), (5, 1, 1 << 15), (1000, 18, 1 << 18)])
def test_batches_cover_the_range_once_in_order(total, item, budget):
    from abelianbp.messages import batches

    step, cuts = max(1, budget // item), batches(total, item, budget)
    assert [i for s in cuts for i in range(total)[s]] == list(range(total))
    sizes = [len(range(total)[s]) for s in cuts]
    assert all(n == step for n in sizes[:-1]) and all(0 < n <= step for n in sizes)
