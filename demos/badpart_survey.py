#!/usr/bin/env python3

"""
Survey the bad-part fraction across the built-in group families.  The
closer the fraction is to one, the more of the search tree the pruned
enumeration never has to touch.
"""

from fractions import Fraction

from supchar.chartab import cyclic_table, dihedral_table, frobenius_pq_table
from supchar.cli import truncated_percent
from supchar.engine import find_supertheories
from supchar.setparts import bell_number

tables = (
    [cyclic_table(m) for m in (5, 7, 10, 11, 13)]
    + [dihedral_table(m) for m in (7, 14, 17, 19, 23)]
    + [frobenius_pq_table(7, 3), frobenius_pq_table(13, 3), frobenius_pq_table(19, 3)]
)

print(f"{'group':>8} {'n':>3} {'bad':>5} {'of':>5} {'alpha':>7} "
      f"{'checks':>7} {'of':>8}")
for table in tables:
    theories, stats = find_supertheories(table)
    bad = stats.bad_part_count
    subsets = (1 << (table.n - 1)) - 1
    alpha = Fraction(bad, subsets)
    print(f"{table.name:>8} {table.n:>3} {bad:>5} {subsets:>5} "
          f"{truncated_percent(alpha):>6}% "
          f"{stats.kappa_calls:>7} {bell_number(table.n - 1):>8}")
