"""Mutation power: a one-literal change to a checked row must fail it.

A mutant moves one integer field of one node of one side by +-1: an f
index, an exponent, a coefficient, D's m or r, an argument's sign or power.
The walker reads `dataclasses.fields` and each int of an atom's args, so a
new atom is covered with no edit. Every mutant of every row the suite
checks (the families at k <= 2) runs through `check_row` where
`SuiteContext.placement` puts its row, at the published orders, with exact
seeds as deep as the mutants read, so none is left unchecked.
The mutants that pass are true statements, each listed with its reason.
"""

import dataclasses
from collections import Counter

import pytest

from qcong import EXACT, check_row, evaluate
from qcong.catalogue import CLAIM_ROWS, EQ_2_3_ROWS, SCAN_ROWS, _SEEDS
from qcong.qexpr import parse, reads, to_source
from test_engine import family_rows

# (id, lhs, rhs, modulus, depth) of every row the suite checks at k <= 2
ROWS = ([(row[0], *row[2:]) for row in (*CLAIM_ROWS, *EQ_2_3_ROWS.values(), *SCAN_ROWS)]
        + [(*row, "scan") for row in family_rows(2)])

# (id, lhs, rhs) of the mutants that pass at the published orders, each a
# mutated progression: B(q^2) is a series in q^2, so its odd part vanishes;
# every other one is a dilation of a progression (test_survivors_are_true)
SURVIVORS = {(claim_id, lhs, "0") for claim_id, lhs in (
    ("eq-2-11", "D[2,1](B(q^2))"),
    ("eq-1-4", "D[16,12](C)"), ("eq-1-4", "D[16,14](C)"),
    ("eq-1-5", "D[32,22](C)"), ("eq-2-21", "D[32,14](C)"),
    ("eq-2-22", "D[32,22](C)"), ("eq-2-23", "D[64,52](C)"),
    ("eq-1-6-k1", "D[32,14](C)"), ("eq-1-6-k2", "D[128,60](C)"),
    ("eq-1-7-k1", "D[32,22](C)"),
    ("eq-1-8-k0", "D[16,12](C)"), ("eq-1-8-k0", "D[16,14](C)"),
    ("eq-1-8-k1", "D[64,52](C)"), ("eq-1-8-k2", "D[256,204](C)"),
)}


def moved(node, **change):
    """[node with `change`], or [] when the node's constructor refuses it."""
    try:
        return [dataclasses.replace(node, **change)]
    except ValueError:
        return []


def mutants(e):
    """Every tree with one integer field of one node of e moved by +-1 (an
    atom's fields are the ints of its args, never its name), less the
    values the node's constructor refuses."""
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, int):
            for step in (-1, 1):
                yield from moved(e, **{f.name: value + step})
        elif isinstance(value, tuple):
            for i, v in enumerate(value):
                for step in (-1, 1):
                    yield from moved(e, **{f.name: (*value[:i], v + step, *value[i + 1:])})
        elif not isinstance(value, str):
            for sub in mutants(value):
                yield dataclasses.replace(e, **{f.name: sub})


def row_mutants():
    """(id, sides, modulus, depth) of every mutant of every row."""
    for claim_id, lhs, rhs, modulus, depth in ROWS:
        left, right = parse(lhs), parse(rhs)
        for e in mutants(left):
            yield claim_id, (e, right), modulus, depth
        for e in mutants(right):
            yield claim_id, (left, e), modulus, depth


def seed_depths(ctx, mutated):
    """{exact seed leaf: the most coefficients a mutant reads of it} where
    ctx places each row; a mutant read as deep as its seeds allow, or
    in c_scan's ring, sizes none."""
    depths = dict.fromkeys(_SEEDS, 1)
    for _, sides, modulus, depth in mutated:
        seeds, n, _ = ctx.placement(modulus, depth)
        for e in sides if n is not None else ():
            for leaf, k in reads(e, n).items():
                if leaf in seeds and seeds[leaf].ring == EXACT:
                    depths[leaf] = max(depths[leaf], k)
    return depths


def sweep(ctx):
    """(id, report) of every mutant, checked where ctx places its row, with
    the exact seeds rebuilt as deep as the mutants read, in fresh memos."""
    mutated = list(row_mutants())
    deep = dataclasses.replace(ctx, **{_SEEDS[leaf]: evaluate(leaf, n) for leaf, n
                                       in seed_depths(ctx, mutated).items()})
    return [(claim_id, check_row(sides, modulus, *deep.placement(modulus, depth)))
            for claim_id, sides, modulus, depth in mutated]


def survivors(swept):
    return {(claim_id, rep.params["lhs"], rep.params["rhs"])
            for claim_id, rep in swept if rep.passed()}


@pytest.fixture(scope="module")
def published(flagship):
    return sweep(flagship[0])


def test_every_mutant_is_checked(published):
    statuses = Counter(rep.status for _, rep in published)
    assert statuses == {"fail": 843, "pass": 14}


def test_survivors_are_true(published):
    assert survivors(published) == SURVIVORS
    # each dilation D[A',B'](C) == 0 mod M' lies inside a proved
    # progression D[A,B](C) == 0 mod M: A | A', B' == B mod A and M' | M
    modulus = {claim_id: m for claim_id, _, _, m, _ in ROWS}
    proved = [(parse(lhs), m) for claim_id, lhs, _, m, _ in ROWS
              if claim_id in ("eq-1-2", "eq-1-3")]
    for claim_id, lhs, _ in SURVIVORS - {("eq-2-11", "D[2,1](B(q^2))", "0")}:
        e = parse(lhs)
        assert any(e.m % p.m == 0 and e.r % p.m == p.r and m % modulus[claim_id] == 0
                   for p, m in proved), (claim_id, lhs)


def test_killed_mutants_fail_early(published):
    late = [(claim_id, rep.params, rep.witness) for claim_id, rep in published
            if rep.status == "fail" and not rep.witness["n"] < rep.params["order"] / 4]
    assert late == []


def test_suite_seeds_leave_seven_mutants_unchecked(flagship):
    # the seeds the suite builds cover its rows, not every mutant: these
    # read f3, B or (eq 2-9, the one exact row at the congruence order) C
    # deeper, which is why the sweep sizes its own exact seeds; the mutants
    # of the congruence rows read C in c_scan, 40000 long
    ctx = flagship[0]
    too_short = Counter()
    for claim_id, sides, modulus, depth in row_mutants():
        seeds, n, _ = ctx.placement(modulus, depth)
        for e in sides if n is not None else ():
            for leaf, k in reads(e, n).items():
                if leaf in seeds and k > seeds[leaf].order:
                    too_short[claim_id, to_source(leaf)] += 1
    assert too_short == {("eq-2-4", "f3(q)"): 1, ("eq-2-5", "f3(q)"): 1,
                         ("eq-2-8", "f3(q)"): 1, ("eq-2-9", "C"): 2,
                         ("eq-a-2", "B(q)"): 2}


def test_control_shallow_orders_let_mutants_survive(flagship):
    # at identity order 60 (congruence 30) two mutants each of eq 2-15 and
    # eq 2-18 agree with their rows that far: the sweep must see them
    shallow = dataclasses.replace(flagship[0], n_identity=60, n_congruence=30)
    extra = survivors(sweep(shallow)) - SURVIVORS
    assert Counter(s[0] for s in extra) == {"eq-2-15": 2, "eq-2-18": 2}
