#!/usr/bin/env python3

"""
Walk the partition search tree for a three-element set by hand, then show
what the admissible-part pool and the dual rule buy on the cyclic group of
order 13.
"""

from supchar.chartab import cyclic_table
from supchar.engine import find_supertheories
from supchar.setparts import bell_number, enumerate_partitions
from supchar.sigma import find_bad_parts, indices_of, mask_of

elements = (2, 3, 4)
forbidden = frozenset(mask_of(p) for p in [(2, 3), (2, 4), (3,), (4,)])

print("partitions of {2,3,4}, forbidding the parts {2,3} {2,4} {3} {4}:")
survivors = []
stats = enumerate_partitions(
    elements, forbidden, lambda parts: survivors.append(tuple(parts)))
for parts in survivors:
    pretty = " ".join("{%s}" % ",".join(map(str, indices_of(m))) for m in parts)
    print("  survives:", pretty)
print(f"  visited {stats.visited_partitions} of {bell_number(3)} partitions,"
      f" cut {stats.pruned_nodes} branches")

print()
table = cyclic_table(13)
bad = find_bad_parts(table)
subsets = (1 << (table.n - 1)) - 1
print(f"{table.name}: {len(bad)} of {subsets} candidate parts are bad")

theories, stats = find_supertheories(table)
print(f"pruned search: {stats.kappa_calls} partition checks"
      f" instead of {bell_number(table.n - 1)},"
      f" over {stats.admissible_parts} admissible parts")
print(f"  branches cut: {stats.pruned_nodes} by inadmissible parts,"
      f" {stats.dual_cuts} by the dual rule")
print(f"{len(theories)} supercharacter theories found")
