import math

import numpy as np
import pytest

from abelianbp import (
    EigenList,
    GramRow,
    GroupSpec,
    NumericalError,
    ValidationError,
    channel_fidelity,
    eigenlist_from_gram_row,
    gram_row_from_eigenlist,
    holevo_info,
    perfect_list,
    pgm_error,
    useless_list,
)

Z3 = GroupSpec((3,))
Z6 = GroupSpec((6,))
Z32 = GroupSpec((3, 2))


def rand_lam(G, rng):
    v = rng.gamma(1.0, size=G.order)
    v *= G.order / v.sum()
    return EigenList(G, v)


def test_validate_examples():
    EigenList(Z3, [3, 0, 0])
    EigenList(Z3, [1, 1, 1])
    with pytest.raises(ValidationError):
        EigenList(Z3, [2, 2, 2])
    with pytest.raises(ValidationError):
        EigenList(Z3, [3.5, -0.5, 0])
    # tiny negatives are clipped
    lam = EigenList(Z3, [1.0, 1.0 + 5e-10, 1.0 - 5e-10])
    assert lam.values.min() >= 0


def test_values_are_read_only():
    lam = perfect_list(Z3)
    with pytest.raises(ValueError):
        lam.values[0] = 2.0


def test_holevo_info():
    assert holevo_info(useless_list(Z3)) == pytest.approx(0.0)
    assert holevo_info(perfect_list(Z6)) == pytest.approx(math.log2(6))
    lam0 = 2.7287
    lam = EigenList(Z3, [lam0, (3 - lam0) / 2, (3 - lam0) / 2])
    assert holevo_info(lam) == pytest.approx(math.log2(3) / 3, abs=2e-4)


def test_channel_fidelity():
    assert channel_fidelity(useless_list(Z6)) == pytest.approx(1.0)
    assert channel_fidelity(perfect_list(Z6)) == pytest.approx(0.0, abs=1e-12)
    lam = EigenList(Z3, [2.0, 0.5, 0.5])
    assert channel_fidelity(lam) == pytest.approx(0.5, abs=1e-12)


def test_pgm_error():
    assert pgm_error(perfect_list(Z6)) == pytest.approx(0.0, abs=1e-12)
    assert pgm_error(useless_list(Z6)) == pytest.approx(1 - 1 / 6)
    lam = EigenList(Z6, [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])
    expected = 1 - ((math.sqrt(1.5) + math.sqrt(0.5) + 1) * 2 / 6) ** 2
    assert pgm_error(lam) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.0449162, abs=1e-6)


def test_functionals_are_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        lam = rand_lam(Z6, rng)
        perm = rng.permutation(6)
        lam2 = EigenList(Z6, lam.values[perm])
        assert holevo_info(lam) == pytest.approx(holevo_info(lam2), abs=1e-12)
        assert pgm_error(lam) == pytest.approx(pgm_error(lam2), abs=1e-12)


def test_extreme_point_characterization():
    # pgm_error == 0 iff perfect iff holevo == log2 |G|
    rng = np.random.default_rng(3)
    assert pgm_error(perfect_list(Z32)) < 1e-9
    assert holevo_info(perfect_list(Z32)) == pytest.approx(math.log2(6), abs=1e-9)
    for _ in range(50):
        lam = rand_lam(Z32, rng)
        if np.max(np.abs(lam.values - 1.0)) > 1e-3:
            assert pgm_error(lam) > 1e-9
            assert holevo_info(lam) < math.log2(6) - 1e-9


def test_gram_row_pair_worked_values():
    # indicator of identity -> all-ones eigen list
    gamma = np.zeros(6, dtype=complex)
    gamma[0] = 1.0
    lam = eigenlist_from_gram_row(GramRow(Z32, gamma))
    assert np.allclose(lam.values, 1.0)
    # constant gram row -> (|G|, 0, ..., 0)
    lam2 = eigenlist_from_gram_row(GramRow(Z32, np.ones(6, dtype=complex)))
    assert np.allclose(lam2.values, useless_list(Z32).values)
    assert np.allclose(gram_row_from_eigenlist(useless_list(Z32)).values, 1.0)


def test_gram_row_roundtrip():
    rng = np.random.default_rng(4)
    for moduli in [(2,), (6,), (3, 2), (2, 2), (4, 3)]:
        G = GroupSpec(moduli)
        for _ in range(20):
            lam = rand_lam(G, rng)
            back = eigenlist_from_gram_row(gram_row_from_eigenlist(lam))
            assert np.max(np.abs(back.values - lam.values)) < 1e-12
    # both directions
    lam = rand_lam(Z6, np.random.default_rng(5))
    row = gram_row_from_eigenlist(lam)
    row2 = gram_row_from_eigenlist(eigenlist_from_gram_row(row))
    assert np.max(np.abs(row.values - row2.values)) < 1e-10


def test_gram_row_validation():
    with pytest.raises(ValidationError):
        GramRow(Z3, [0.5, 0.2, 0.2])         # gamma_e != 1
    with pytest.raises(ValidationError):
        GramRow(Z3, [1.0, 0.5 + 0.1j, 0.5 + 0.1j])  # not conjugate-symmetric
    with pytest.raises(ValidationError):
        GramRow(Z3, [1.0, 1.5, 1.5])         # modulus > 1


def test_non_psd_gram_row_rejected():
    gamma = np.array([1.0, -0.9, -0.9], dtype=complex)  # transform goes negative
    with pytest.raises(NumericalError):
        eigenlist_from_gram_row(GramRow(Z3, gamma))


def test_fidelity_zero_iff_gram_vanishes():
    rng = np.random.default_rng(6)
    assert channel_fidelity(perfect_list(Z32)) < 1e-12
    for _ in range(20):
        lam = rand_lam(Z32, rng)
        gamma = gram_row_from_eigenlist(lam).values
        fid = channel_fidelity(lam)
        if np.max(np.abs(gamma[1:])) > 1e-9:
            assert fid > 1e-10


@pytest.mark.parametrize("G", [Z3, Z32])
def test_useless_list_information_is_a_positive_zero(G):
    from abelianbp.eigenlists import holevo_rows

    lam = useless_list(G)
    assert holevo_info(lam) == 0.0 and not np.signbit(holevo_info(lam))
    rows = holevo_rows(lam.values[None, :])
    assert rows.tolist() == [0.0] and not np.signbit(rows).any()
