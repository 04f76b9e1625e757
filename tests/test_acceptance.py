"""End-to-end acceptance checks, one criterion per test name prefix.

Each criterion gets its own test (or parametrized family) so `pytest -v`
shows one verdict line per check and the conftest summary aggregates them
per criterion.  Frozen numbers were produced by the oracles in the unit
suites: brute-force enumeration, the restricted-growth baseline, and the
per-subset distinctness filter.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from supchar.chartab import cyclic_table, dihedral_table, frobenius_pq_table
from supchar.cli import truncated_percent
from supchar.engine import brute_force_supertheories, find_supertheories
from supchar.kappa import verify_theory
from supchar.setparts import bell_number, enumerate_partitions
from supchar.sigma import alpha_ratio, find_bad_parts, mask_of


ROOT = Path(__file__).resolve().parent.parent


def tau(x):
    return sum(1 for d in range(1, x + 1) if x % d == 0)


def timed_count(table, time_limit):
    start = time.perf_counter()
    theories, _ = find_supertheories(table)
    elapsed = time.perf_counter() - start
    assert elapsed <= time_limit, f"{table.name} took {elapsed:.1f}s"
    return len(theories)


# 1. theory counts, main mode, each within its time budget

BASE_COUNTS = [
    (cyclic_table, 2, 1), (cyclic_table, 3, 2), (cyclic_table, 5, 3),
    (cyclic_table, 7, 4), (cyclic_table, 11, 4), (cyclic_table, 13, 6),
    (dihedral_table, 3, 2), (dihedral_table, 5, 3), (dihedral_table, 7, 3),
    (dihedral_table, 11, 3), (dihedral_table, 13, 5), (dihedral_table, 17, 5),
    (dihedral_table, 19, 4), (dihedral_table, 23, 3),
]

STRETCH_COUNTS = [
    (cyclic_table, 17, 5), (cyclic_table, 19, 6),
    (dihedral_table, 29, 5), (dihedral_table, 31, 5),
]


@pytest.mark.parametrize(
    "maker,m,expected", BASE_COUNTS,
    ids=[maker(m).name for maker, m, _ in BASE_COUNTS])
def test_criterion_01_theory_counts(maker, m, expected):
    assert timed_count(maker(m), 120.0) == expected


@pytest.mark.stretch
@pytest.mark.parametrize(
    "maker,m,expected", STRETCH_COUNTS,
    ids=[maker(m).name for maker, m, _ in STRETCH_COUNTS])
def test_criterion_01_theory_counts_stretch(maker, m, expected):
    assert timed_count(maker(m), 3600.0) == expected


# 2. bad-part counts and the Z13 ratio

BAD_COUNTS = [
    (cyclic_table, 13, 4020), (cyclic_table, 11, 990), (cyclic_table, 10, 376),
    (dihedral_table, 14, 144), (dihedral_table, 17, 480),
    (dihedral_table, 19, 1008), (dihedral_table, 23, 4092),
]


@pytest.mark.parametrize(
    "maker,m,expected", BAD_COUNTS,
    ids=[maker(m).name for maker, m, _ in BAD_COUNTS])
def test_criterion_02_bad_part_counts(maker, m, expected):
    assert len(find_bad_parts(maker(m))) == expected


def test_criterion_02_cyclic13_ratio():
    ratio = alpha_ratio(cyclic_table(13))
    assert ratio == Fraction(4020, 4095)
    assert truncated_percent(ratio) == "98.16"


# 3. Frobenius counts and ratios

@pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (13, 3)])
def test_criterion_03_frobenius_counts(p, q):
    theories, _ = find_supertheories(frobenius_pq_table(p, q))
    assert len(theories) == 1 + tau((p - 1) // q) * tau(q - 1)


@pytest.mark.parametrize("p,q,exact,percent", [
    (7, 3, Fraction(4, 15), 26),
    (13, 3, Fraction(8, 21), 38),
    (19, 3, Fraction(36, 85), 42),
])
def test_criterion_03_frobenius_ratios(p, q, exact, percent):
    ratio = alpha_ratio(frobenius_pq_table(p, q))
    assert ratio == exact
    assert abs(100 * ratio - percent) <= 1


# 4. cyclic prime-order divisor law

@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_criterion_04_cyclic_divisor_law(p):
    theories, _ = find_supertheories(cyclic_table(p))
    assert len(theories) == tau(p - 1)


# 5. explicit Z7 structures

def test_criterion_05_cyclic7_structures():
    theories, _ = find_supertheories(cyclic_table(7))
    encodings = theories.encodings()
    halves = ((1,), (2, 3, 5), (4, 6, 7))
    pairs = ((1,), (2, 7), (3, 6), (4, 5))
    assert (halves, halves) in encodings
    assert (pairs, pairs) in encodings


# 6. combinatorics layer

def test_criterion_06_bell_numbers():
    assert bell_number(10) == 115975
    assert bell_number(17) == 82864869804


def test_criterion_06_unpruned_visit_counts():
    for size in range(11):
        elements = tuple(range(2, size + 2))
        stats = enumerate_partitions(elements, frozenset(), lambda parts: None)
        assert stats.visited_partitions == bell_number(size)


def test_criterion_06_pruning_walkthrough():
    forbidden = frozenset(
        mask_of(p) for p in [(2, 3), (2, 4), (3,), (4,)])
    survivors = []
    enumerate_partitions(
        (2, 3, 4), forbidden, lambda parts: survivors.append(tuple(parts)))
    assert survivors == [
        (mask_of((2,)), mask_of((3, 4))),
        (mask_of((2, 3, 4)),),
    ]


# 7. brute-force oracle equality on every generator table with n <= 6

SMALL_TABLES = (
    [cyclic_table(m) for m in range(1, 7)]
    + [dihedral_table(m) for m in (2, 3, 4, 5, 6, 7, 9)]
    + [frobenius_pq_table(*pq) for pq in ((3, 2), (5, 2), (5, 4), (7, 2), (7, 3))]
)


@pytest.mark.parametrize("table", SMALL_TABLES, ids=lambda t: t.name)
def test_criterion_07_oracle_equality(table):
    assert table.n <= 6
    expected = brute_force_supertheories(table)
    main_set, _ = find_supertheories(table, "main")
    first_set, _ = find_supertheories(table, "first")
    assert main_set.encodings() == expected
    assert first_set.encodings() == expected


# 8. counter laws on Z13

def test_criterion_08_pruning_counters():
    table = cyclic_table(13)
    b12 = bell_number(12)
    assert b12 == 4213597

    start = time.perf_counter()
    main_set, main_stats = find_supertheories(table, "main")
    main_seconds = time.perf_counter() - start

    start = time.perf_counter()
    first_set, first_stats = find_supertheories(table, "first")
    first_seconds = time.perf_counter() - start

    assert main_stats.kappa_calls < 0.02 * b12
    assert first_stats.kappa_calls == b12
    assert main_set == first_set
    assert first_seconds / main_seconds > 10


# 9. every emitted theory re-verifies

VERIFY_TABLES = (
    [cyclic_table(m) for m in range(1, 14)]
    + [dihedral_table(m) for m in range(2, 20)]
    + [frobenius_pq_table(*pq)
       for pq in ((3, 2), (5, 2), (5, 4), (7, 2), (7, 3), (11, 5), (13, 3))]
)


@pytest.mark.parametrize("table", VERIFY_TABLES, ids=lambda t: t.name)
def test_criterion_09_all_theories_verify(table):
    theories, _ = find_supertheories(table)
    assert len(theories) >= 1
    for theory in theories:
        assert verify_theory(table, theory), theory.encoding()


# 10. report bytes do not depend on the process that made them

@pytest.mark.parametrize("spec", ["cyclic:13", "dihedral:19"])
def test_criterion_10_process_determinism(spec):
    """Two interpreters with different string-hash seeds print the same
    JSON report, so nothing in it depends on how strings hash (such as the
    iteration order of a set of strings)."""
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "supchar", "list", "--group", spec,
             "--format", "json"],
            capture_output=True, env=env, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["theory_count"] >= 1
