import math
from fractions import Fraction

import pytest

from divbound.cli import _TELESCOPE_FAMILIES
from divbound.oracle import (
    EXHAUSTIVE_CAP,
    brute_count,
    brute_max_size,
    brute_size_counts,
    exact_reference_series,
    telescope_check,
)
from divbound.patterns import builtin_family
from divbound.series import TruncationParams, block_weight_exact, retained_pairs
from divbound.solver import (
    COUNTING,
    DENSITY,
    ResourceLimitError,
    partition_mode,
    size_polynomial,
)

TWO_FORK = builtin_family("two-fork")
CHAIN2 = builtin_family("chain:2")
FOREST = builtin_family("forest")

# frozen by exhaustive scan at build time
F_TWO_FORK = [1, 2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 10, 11, 12, 12, 13, 14]
Q_TWO_FORK = [2, 4, 7, 12, 21, 34, 63, 104, 181, 310, 611, 876, 1741, 3182]
Q_CHAIN2 = [2, 3, 5, 7, 13, 17, 33, 45, 73, 103, 205, 253, 505, 733]
Q_FOREST = [2, 4, 8, 14, 28, 48, 96, 156, 296, 550, 1100, 1660]


def test_brute_max_size_examples():
    assert brute_max_size(3, TWO_FORK) == 2
    assert brute_max_size(6, TWO_FORK) == 4
    for n in range(1, 21):
        assert brute_max_size(n, CHAIN2) == (n + 1) // 2


def test_brute_count_examples():
    assert brute_count(1, TWO_FORK) == 2
    assert brute_count(1, FOREST) == 2
    assert brute_count(2, TWO_FORK) == 4
    assert brute_count(3, TWO_FORK) == 7


def test_frozen_sequences():
    for n, expected in enumerate(F_TWO_FORK, start=1):
        assert brute_max_size(n, TWO_FORK) == expected
    for n, expected in enumerate(Q_TWO_FORK, start=1):
        assert brute_count(n, TWO_FORK) == expected
    for n, expected in enumerate(Q_CHAIN2, start=1):
        assert brute_count(n, CHAIN2) == expected
    for n, expected in enumerate(Q_FOREST, start=1):
        assert brute_count(n, FOREST) == expected


def test_two_fork_extremal_matches_interval_bound():
    # the scan rediscovers ceil(2n/3) on this range
    for n in range(1, 21):
        assert brute_max_size(n, TWO_FORK) == math.ceil(2 * n / 3)


def test_size_counts_are_consistent():
    for fam in (TWO_FORK, CHAIN2, FOREST):
        for n in (1, 4, 9, 13):
            hist = brute_size_counts(n, fam)
            assert sum(hist) == brute_count(n, fam)
            nonzero = [k for k, c in enumerate(hist) if c]
            assert max(nonzero) == brute_max_size(n, fam)
            assert hist[0] == 1
            assert hist[1] == n  # singletons are always admissible


def test_size_counts_match_partition_polynomial():
    # the histogram is the coefficient list of the exact partition polynomial
    z = Fraction(3, 2)
    for fam in (TWO_FORK, CHAIN2):
        for n in (5, 8, 11):
            hist = brute_size_counts(n, fam)
            poly = sum(c * z ** k for k, c in enumerate(hist))
            assert poly == partition_mode(z).value(size_polynomial(range(1, n + 1), fam))


def test_size_polynomial_matches_size_histogram():
    for name in _TELESCOPE_FAMILIES:
        fam = builtin_family(name)
        for n in range(1, 15):
            hist = brute_size_counts(n, fam)
            while hist[-1] == 0:
                hist.pop()
            assert size_polynomial(range(1, n + 1), fam) == tuple(hist), (name, n)


def test_oracle_agrees_with_solver_small_n():
    for fam in (TWO_FORK, CHAIN2, FOREST, builtin_family("r-fork:3")):
        for n in range(1, 13):
            assert brute_max_size(n, fam) == DENSITY.value(size_polynomial(range(1, n + 1), fam))
            assert brute_count(n, fam) == COUNTING.value(size_polynomial(range(1, n + 1), fam))


def test_count_dominates_two_power_of_max():
    for fam in (TWO_FORK, CHAIN2, FOREST):
        for n in range(1, 15):
            assert brute_count(n, fam) >= 2 ** brute_max_size(n, fam)


def test_exhaustive_cap_enforced():
    assert EXHAUSTIVE_CAP == 24
    with pytest.raises(ResourceLimitError):
        brute_count(EXHAUSTIVE_CAP + 1, TWO_FORK)
    with pytest.raises(ResourceLimitError):
        brute_size_counts(EXHAUSTIVE_CAP + 1, TWO_FORK)
    with pytest.raises(ResourceLimitError):
        brute_max_size(EXHAUSTIVE_CAP + 1, TWO_FORK)


@pytest.mark.parametrize("scan", [brute_count, brute_size_counts, brute_max_size, telescope_check])
def test_scans_reject_n_below_one(scan):
    # an empty or negative range is invalid input, not a resource limit
    for n in (0, -3):
        with pytest.raises(ValueError):
            scan(n, TWO_FORK)


def test_cross_mode_max_size_above_cap():
    # above the exhaustive cap only the solver answers
    assert DENSITY.value(size_polynomial(range(1, 31), CHAIN2)) == 15
    # strictly beats the ceil(2n/3) interval construction at n = 27
    assert DENSITY.value(size_polynomial(range(1, 28), TWO_FORK)) == 19
    assert 19 >= math.ceil(2 * 27 / 3)


def test_telescope_examples():
    rep = telescope_check(3, TWO_FORK)
    assert rep["g_sequence"] == [0, 1, 1]
    assert rep["f"] == 2
    assert rep["pass"] is True

    rep = telescope_check(2, TWO_FORK)
    assert rep["h_sequence"] == pytest.approx([math.log(2), math.log(2)], abs=1e-12)
    assert rep["q_decimal"] == "4"

    rep = telescope_check(1, FOREST)
    assert rep["g_sequence"] == [1]
    assert rep["f"] == 1


def test_telescope_report_shape():
    rep = telescope_check(5, CHAIN2)
    assert set(rep) >= {"n", "family", "f", "q_decimal", "g_sequence", "h_sequence", "pass"}
    assert rep["n"] == 5
    assert rep["family"] == "chain:2"
    assert len(rep["g_sequence"]) == 5
    assert len(rep["h_sequence"]) == 5
    assert rep["q_decimal"] == str(brute_count(5, CHAIN2))


def test_telescope_identities_hold_to_n_12():
    for fam in (TWO_FORK, CHAIN2, FOREST, builtin_family("in-fork:2")):
        for n in range(1, 13):
            rep = telescope_check(n, fam)
            assert rep["pass"], rep.get("failure")
            assert sum(rep["g_sequence"]) == rep["f"]
            total_h = math.fsum(rep["h_sequence"])
            assert total_h == pytest.approx(math.log(int(rep["q_decimal"])), abs=1e-9)
            assert all(g in (0, 1) for g in rep["g_sequence"])
            assert all(-1e-12 <= h <= math.log(2) + 1e-12 for h in rep["h_sequence"])


def test_exact_reference_series_examples():
    params = TruncationParams(10.0, 1.0)
    S, W = exact_reference_series(TWO_FORK, DENSITY, params)
    assert S == Fraction(1, 2)
    assert W == Fraction(1, 2)

    S, W = exact_reference_series(TWO_FORK, COUNTING, params)
    assert W == Fraction(1, 2)
    assert float(S) == pytest.approx(math.log(2) / 2, rel=1e-12)

    params = TruncationParams(10.0, 100.0)
    _, W = exact_reference_series(TWO_FORK, DENSITY, params)
    assert W == sum(block_weight_exact(i, d) for i, d in retained_pairs(params))


def test_exact_reference_series_density_is_rational():
    params = TruncationParams(10.0, 200.0)
    S, W = exact_reference_series(TWO_FORK, DENSITY, params)
    assert isinstance(S, Fraction)
    assert isinstance(W, Fraction)
    assert 0 <= S <= W <= 1


def test_exact_reference_series_rejects_large_budget():
    with pytest.raises(ValueError):
        exact_reference_series(TWO_FORK, DENSITY, TruncationParams(10.0, 10 ** 4 + 1))


def test_pressure_surrogate_small_n():
    # reduced version of the n = 14 acceptance property
    n = 8
    ts = [(-8 + k) * 0.5 for k in range(17)]
    kaps = [
        math.log(partition_mode(math.exp(t)).value(size_polynomial(range(1, n + 1), TWO_FORK))) / n
        for t in ts
    ]
    for j in range(1, len(kaps) - 1):
        assert kaps[j + 1] - 2 * kaps[j] + kaps[j - 1] >= -1e-9
    for j in range(len(kaps) - 1):
        assert abs(kaps[j + 1] - kaps[j]) <= 0.5 * (1 + 1e-9)
