import math

import numpy as np
import pytest

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    ValidationError,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    equality_combine,
    holevo_info,
    merge_duplicates,
    perfect_list,
    pure,
    useless_list,
)
from abelianbp.polar import (
    arikan_kernel,
    kernel_minus,
    kernel_plus,
    polar_minus,
    polar_plus,
    select_info_set,
    synthesize,
)
from message_rows import rows

Z3 = GroupSpec((3,))
Z32 = GroupSpec((3, 2))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    v *= G.order / v.sum()
    return EigenList(G, v)


def test_polar_minus_matches_two_step_composition():
    from abelianbp import apply_automorphism, inversion_automorphism
    relabeled = apply_automorphism(LAM2, inversion_automorphism(Z32))
    assert np.allclose(relabeled.values, [2, 1, 0, 1, 2, 0])
    manual = merge_duplicates(check_combine(LAM1, relabeled))
    out = polar_minus(pure(LAM1), pure(LAM2))
    assert len(out) == len(manual)
    for b1, b2 in zip(rows(out), rows(manual)):
        assert b1.prob == pytest.approx(b2.prob, abs=1e-12)
        assert np.max(np.abs(b1.lam - b2.lam)) < 1e-12


def test_polar_minus_useless_partner():
    out = polar_minus(pure(LAM1), pure(perfect_list(Z32)))
    assert avg_holevo(out) == pytest.approx(holevo_info(LAM1), abs=1e-9)


def test_polar_minus_both_useless():
    out = polar_minus(pure(useless_list(Z32)), pure(useless_list(Z32)))
    assert len(out) == 1
    assert np.allclose(out.lams[0], useless_list(Z32).values)


def test_polar_plus_examples():
    out = polar_plus(pure(LAM1), pure(LAM2))
    assert len(out) == 1
    assert np.max(np.abs(out.lams[0] - [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])) < 1e-12
    # useless partner: identity
    out2 = polar_plus(pure(LAM1), pure(useless_list(Z32)))
    assert np.max(np.abs(out2.lams[0] - LAM1.values)) < 1e-12
    # perfect partner: perfect
    out3 = polar_plus(pure(LAM1), pure(perfect_list(Z32)))
    assert np.allclose(out3.lams[0], 1.0)


def test_synthesize_level_one_extremes():
    stats = synthesize(perfect_list(Z3), 1)
    assert all(s.avg_pgm_error == pytest.approx(0.0, abs=1e-12) for s in stats)
    stats2 = synthesize(useless_list(Z3), 1)
    assert all(s.avg_pgm_error == pytest.approx(1 - 1 / 3, abs=1e-12) for s in stats2)


def test_synthesize_conservation_and_extremality():
    rng = np.random.default_rng(0)
    for G in (Z3, Z32):
        for _ in range(10):
            lam = rand_lam(G, rng)
            stats = synthesize(lam, 1)
            total = stats[0].avg_holevo + stats[1].avg_holevo
            assert abs(total - 2 * holevo_info(lam)) < 1e-8
            assert stats[1].avg_holevo >= holevo_info(lam) - 1e-9
            assert holevo_info(lam) >= stats[0].avg_holevo - 1e-9


def test_synthesize_two_levels_conserves_total():
    rng = np.random.default_rng(1)
    lam = rand_lam(Z3, rng)
    stats = synthesize(lam, 2)
    assert len(stats) == 4
    total = sum(s.avg_holevo for s in stats)
    assert abs(total - 4 * holevo_info(lam)) < 1e-7


def test_synthesize_sampled_agrees_with_exact():
    rng = np.random.default_rng(2)
    lam = rand_lam(Z3, rng)
    exact = synthesize(lam, 2)
    sampled = synthesize(lam, 2, mode="sampled", seed=7, samples=2000)
    for e, s in zip(exact, sampled):
        assert abs(e.avg_pgm_error - s.avg_pgm_error) < 0.02
        assert abs(e.avg_holevo - s.avg_holevo) < 0.05


def test_synthesize_sampled_deterministic():
    lam = EigenList(Z3, [2.0, 0.5, 0.5])
    a = synthesize(lam, 2, mode="sampled", seed=3, samples=50)
    b = synthesize(lam, 2, mode="sampled", seed=3, samples=50)
    assert a == b


def _cyclic_reference_polar(lam_values, levels):
    """Independent DFT-based exact tracker for cyclic groups.

    Channels are plain ensembles [(prob, array)]; the combining rules are
    realized through numpy FFTs only, sharing no code with the group engine.
    Returns the per-index herald-averaged information and PGM error.
    """
    q = len(lam_values)

    def ent(v):
        mu = v[v > 1e-15] / q
        return float(-(mu * np.log2(mu)).sum())

    def pgm(v):
        return 1.0 - (np.sqrt(np.clip(v, 0, None)).sum() / q) ** 2

    def minus(ens):
        out = []
        for (p1, a) in ens:
            for (p2, b) in ens:
                binv = b[(-np.arange(q)) % q]
                corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(binv))).real
                probs = corr / q**2
                for c in range(q):
                    if probs[c] < 1e-15:
                        continue
                    branch = a[(c + np.arange(q)) % q] * binv / (q * probs[c])
                    out.append((p1 * p2 * probs[c], branch))
        return out

    def plus(ens):
        return [
            (p1 * p2, np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)).real / q)
            for (p1, a) in ens
            for (p2, b) in ens
        ]

    channels = [[(1.0, np.asarray(lam_values, dtype=float))]]
    for _ in range(levels):
        channels = [branch for ens in channels for branch in (minus(ens), plus(ens))]
    return [
        (sum(p * ent(v) for p, v in ens), sum(p * pgm(v) for p, v in ens))
        for ens in channels
    ]


def test_zq_reduction_reference_path():
    rng = np.random.default_rng(3)
    for q, levels in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        G = GroupSpec((q,))
        lam = rand_lam(G, rng)
        reference = _cyclic_reference_polar(lam.values, levels)
        stats = synthesize(lam, levels)
        for s, (ref_hol, ref_err) in zip(stats, reference):
            assert abs(s.avg_holevo - ref_hol) < 1e-8
            assert abs(s.avg_pgm_error - ref_err) < 1e-8


def test_generic_kernel_reduces_to_standard_rules():
    rng = np.random.default_rng(4)
    for G in (Z3, Z32):
        K = arikan_kernel(G)
        a, b = rand_lam(G, rng), rand_lam(G, rng)
        km = kernel_minus(pure(a), pure(b), K)
        pm = polar_minus(pure(a), pure(b))
        assert avg_holevo(km) == pytest.approx(avg_holevo(pm), abs=1e-9)
        assert avg_pgm_error(km) == pytest.approx(avg_pgm_error(pm), abs=1e-9)
        kp = kernel_plus(pure(a), pure(b), K)
        assert len(kp) == 1
        assert np.max(np.abs(kp.lams[0] - equality_combine(a, b).values)) < 1e-10


def test_select_info_set():
    stats = synthesize(perfect_list(Z3), 1)
    assert select_info_set(stats, 2) == [0, 1]
    rng = np.random.default_rng(5)
    lam = rand_lam(Z3, rng)
    stats = synthesize(lam, 1)
    assert select_info_set(stats, 1) == [1]   # plus index has lower error
    assert select_info_set(stats, 2) == [0, 1]
    with pytest.raises(Exception):
        select_info_set(stats, 3)


# ---------------------------------------------------------------------------
# sampled mode: the population sampler


def _recursive_sampler(base, levels, seed, samples):
    """Per-sample (holevo, pgm) arrays of each index, drawn as earlier
    releases did: a fresh recursion through 2^levels leaves per sample."""
    from one_trajectory import guard

    def rec(bits, depth, rng):
        if depth == len(bits):
            return pure(base)
        a, b = rec(bits, depth + 1, rng), rec(bits, depth + 1, rng)
        return guard((polar_minus if bits[depth] == 0 else polar_plus)(a, b), rng)

    out = []
    for i in range(2 ** levels):
        bits = [(i >> d) & 1 for d in range(levels)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        msgs = [rec(bits, 0, rng) for _ in range(samples)]
        out.append((np.array([avg_holevo(m) for m in msgs]),
                    np.array([avg_pgm_error(m) for m in msgs])))
    return out


@pytest.mark.parametrize("G", [Z3, Z32])
def test_population_sampler_agrees_with_recursive_sampler(G):
    lam = rand_lam(G, np.random.default_rng(6))
    old = _recursive_sampler(lam, 3, seed=1, samples=150)
    new = synthesize(lam, 3, mode="sampled", seed=2, samples=3000)
    for s, (hol, err) in zip(new, old):
        for got, vals in ((s.avg_holevo, hol), (s.avg_pgm_error, err)):
            # the old samples' variance, pooled over both estimates
            se = math.sqrt(vals.var(ddof=1) * (1 / vals.size + 1 / 3000))
            assert abs(got - vals.mean()) <= 5 * se + 1e-9


def _exact_channels(base, levels, kernel=None):
    minus = polar_minus if kernel is None else (lambda a, b: kernel_minus(a, b, kernel))
    plus = polar_plus if kernel is None else (lambda a, b: kernel_plus(a, b, kernel))
    channels = [pure(base)]
    for _ in range(levels):
        channels = [rule(m, m) for m in channels for rule in (minus, plus)]
    return channels


@pytest.mark.parametrize("G", [Z3, Z32])
def test_generic_kernel_sampled_agrees_with_exact(G):
    from abelianbp.eigenlists import entropy_bits, pgm_error_of

    lam = rand_lam(G, np.random.default_rng(7))
    samples = 2000
    sampled = synthesize(lam, 2, mode="sampled", seed=3, samples=samples,
                         kernel=arikan_kernel(G))
    for s, ch in zip(sampled, _exact_channels(lam, 2)):
        # the sampled trajectory of an index is one branch of its exact
        # mixture, so the mixture gives the exact Monte-Carlo variance
        for got, f in ((s.avg_holevo, lambda v: entropy_bits(v / G.order)),
                       (s.avg_pgm_error, pgm_error_of)):
            vals = np.array([f(row) for row in ch.lams])
            mean = ch.probs @ vals
            se = math.sqrt(ch.probs @ (vals - mean) ** 2 / samples)
            assert abs(got - mean) <= 5 * se + 1e-9


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_sampled_holevo_conservation(levels):
    # Each level conserves the population's summed Holevo information in
    # expectation (minus + plus = both inputs); the herald of each of the
    # samples * 2^(levels-1) minus rows per level adds noise of variance at
    # most (log2 q)^2 / 4, so the mean over all indices has a standard
    # deviation of at most (log2 q / 2) sqrt(levels / (2 * 2^levels * samples)).
    lam = EigenList(Z3, [2.3, 0.35, 0.35])
    samples = 200
    stats = synthesize(lam, levels, mode="sampled", seed=levels, samples=samples)
    sigma = math.log2(3) / 2 * math.sqrt(levels / (2 * 2 ** levels * samples))
    mean = np.mean([s.avg_holevo for s in stats])
    assert abs(mean - holevo_info(lam)) <= 5 * sigma


def test_sampled_bytes_do_not_depend_on_the_block_size(monkeypatch):
    from abelianbp import polar

    lam = rand_lam(Z32, np.random.default_rng(8))
    runs = []
    for block in (polar.ROW_FLOATS, 64):
        monkeypatch.setattr(polar, "ROW_FLOATS", block)
        runs.append([synthesize(lam, 4, mode="sampled", seed=9, samples=25, kernel=kernel)
                     for kernel in (None, arikan_kernel(Z32))])
    assert runs[0] == runs[1]


def test_sample_count_must_be_positive():
    for samples in (0, -3):
        with pytest.raises(ValidationError, match="samples"):
            synthesize(perfect_list(Z3), 2, mode="sampled", seed=1, samples=samples)


def _uniform_pair(moduli):
    m = pure(useless_list(GroupSpec(moduli)))
    return m, m


def _endo(moduli, matrix):
    G = GroupSpec(moduli)
    return HomSpec(G, G, matrix)


@pytest.mark.parametrize("call, message", [
    (lambda: kernel_minus(*_uniform_pair((3,)), _endo((3,), ((1,),))),
     "polar kernel must act on G x G for G = Z3"),
    (lambda: kernel_minus(*_uniform_pair((3,)), _endo((3, 3), ((1, 1), (1, 1)))),
     "polar kernel must be an automorphism of G x G"),
    (lambda: kernel_plus(*_uniform_pair((4,)), _endo((4, 4), ((1, 2), (0, 1)))),
     "unsupported kernel: second-column block is neither zero nor an automorphism"),
    (lambda: kernel_plus(*_uniform_pair(()), _endo((), ())),
     "kernel plus: both outputs decouple from u2"),
    (lambda: synthesize(useless_list(Z3), -1), "levels must be nonnegative"),
], ids=["kernel-off-GxG", "kernel-not-automorphism", "z4-block-not-automorphism",
        "trivial-group-decouples", "negative-levels"])
def test_polar_rejections(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.type is ValidationError and str(exc.value) == message
