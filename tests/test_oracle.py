import pytest

from qcong.catalogue import ORACLE_LIMIT
from qcong.mock_theta import series_c, series_ck
from qcong.series import EXACT
from qcong.oracle import (
    BLUE,
    RED,
    ColoredPartition,
    count_c_limit,
    count_ck,
    enumerate_ck,
    oracle_table,
)


def all_colored_partitions(n):
    """Every blue/red partition of n with no conditions except even parts
    distinct per color being NOT enforced -- the raw search space."""
    def rec(v, remaining, acc):
        if remaining == 0:
            yield acc
            return
        if v == 0:
            return
        for mb in range(remaining // v + 1):
            for mr in range((remaining - mb * v) // v + 1):
                entry = acc
                if mb:
                    entry += ((v, BLUE, mb),)
                if mr:
                    entry += ((v, RED, mr),)
                yield from rec(v - 1, remaining - (mb + mr) * v, entry)
    yield from rec(n, n, ())


def satisfies_conditions(parts, k):
    """Filter for the three defining conditions; written against the
    definition only, sharing nothing with the package enumerator."""
    if not parts:
        return False
    s = min(v for v, _, _ in parts)
    if s % 2 == 0:
        return False
    if not any(v == s and c == BLUE for v, c, _ in parts):
        return False
    for v, c, m in parts:
        if v % 2 == 0:
            if m > 1:
                return False
            if c == BLUE and v - s < 2 * k - 1:
                return False
    return True


def brute_count(k, n):
    return sum(1 for p in all_colored_partitions(n) if satisfies_conditions(p, k))


class TestSmallCounts:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_zero_and_one(self, k):
        assert count_ck(k, 0) == 0
        assert count_ck(k, 1) == 1

    def test_limit_small_values(self):
        assert count_c_limit(0) == 0
        assert count_c_limit(1) == 1
        assert count_c_limit(2) == 2
        assert count_c_limit(4) == 8

    def test_two_partitions_of_two(self):
        got = sorted(p.parts for p in enumerate_ck(1, 2))
        assert got == [
            ((1, BLUE, 1), (1, RED, 1)),
            ((1, BLUE, 2),),
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(13))
    def test_matches_brute_force_filter(self, k, n):
        assert count_ck(k, n) == brute_count(k, n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            count_ck(0, 3)
        with pytest.raises(ValueError):
            count_ck(1, -1)
        with pytest.raises(ValueError):
            count_c_limit(-2)


class TestCountsMatchEnumeration:
    """count_ck and count_c_limit, asked for every k in either order, must
    give each k its own enumeration count at every n the oracle entries
    read."""

    KS = ["limit", 1, 2, 3, 4]

    @pytest.fixture(scope="class")
    def enumerated(self):
        return {(k, n): sum(1 for _ in enumerate_ck(
                    max(n, 1) if k == "limit" else k, n))
                for k in self.KS for n in range(ORACLE_LIMIT + 1)}

    @pytest.mark.parametrize("order", [KS, KS[::-1]])
    def test_cached_counts_match_enumeration(self, order, enumerated):
        for k in order:
            for n in range(ORACLE_LIMIT + 1):
                got = count_c_limit(n) if k == "limit" else count_ck(k, n)
                assert got == enumerated[k, n], (k, n)


class TestCountsMatchBuilders:
    """Past the enumeration window the counts must equal the exact series
    builders' coefficients, which share no code with the oracle."""

    N_MAX = 200

    def test_limit(self):
        assert (oracle_table("limit", self.N_MAX)
                == series_c(self.N_MAX + 1, EXACT).coefficients())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_finite_k(self, k):
        assert (oracle_table(k, self.N_MAX)
                == series_ck(k, self.N_MAX + 1, EXACT).coefficients())


class TestEnumeratedObjects:
    @pytest.mark.parametrize("k,n", [(1, 12), (2, 14), (3, 11)])
    def test_every_partition_is_valid(self, k, n):
        seen = set()
        for p in enumerate_ck(k, n):
            assert isinstance(p, ColoredPartition)
            assert p not in seen
            seen.add(p)
            assert sum(v * m for v, _, m in p.parts) == n
            values = [v for v, _, _ in p.parts]
            assert values == sorted(values, reverse=True)
            assert satisfies_conditions(p.parts, k)
            assert p.parts[-1][0] == min(values)
            # one entry per (value, color)
            keys = [(v, c) for v, c, _ in p.parts]
            assert len(keys) == len(set(keys))

    def test_multiplicities_merge_on_smallest_part(self):
        # 3 = 1+1+1 all blue must come out as a single entry of multiplicity 3
        parts_list = [p.parts for p in enumerate_ck(1, 3)]
        assert ((1, BLUE, 3),) in parts_list


class TestStabilization:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_count_stops_changing_once_gap_exceeds_n(self, n):
        k = n // 2 + 1  # 2k > n, so even blue parts can no longer occur
        stable = count_ck(k, n)
        assert count_ck(k + 1, n) == stable
        assert count_ck(k + 3, n) == stable
        assert count_c_limit(n) == stable

    def test_counts_weakly_decrease_in_k(self):
        # raising k only strikes partitions (even blue window shrinks)
        for n in range(1, 41):
            prev = count_ck(1, n)
            for k in range(2, 8):
                cur = count_ck(k, n)
                assert cur <= prev
                prev = cur


def test_oracle_table():
    assert oracle_table(2, 6) == [count_ck(2, n) for n in range(7)]
    assert oracle_table("limit", 5) == [count_c_limit(n) for n in range(6)]
    assert oracle_table(2, 0) == [0]
    with pytest.raises(ValueError):
        oracle_table(2, -1)
    for k in (0, -1):
        with pytest.raises(ValueError):
            oracle_table(k, 5)
