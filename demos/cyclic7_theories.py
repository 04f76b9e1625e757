#!/usr/bin/env python3

"""
List every supercharacter theory of the cyclic group of order 7 and print
each supercharacter table with exact cyclotomic entries.
"""

from supchar.chartab import cyclic_table
from supchar.engine import find_supertheories

table = cyclic_table(7)
theories, stats = find_supertheories(table)

print(f"{table.name}: {len(theories)} supercharacter theories\n")
for pos, theory in enumerate(theories, start=1):
    x = " ".join("{%s}" % ",".join(map(str, p)) for p in theory.x_indices())
    k = " ".join("{%s}" % ",".join(map(str, p)) for p in theory.k_indices())
    print(f"#{pos}  characters: {x}")
    print(f"     classes:    {k}")
    st = theory.st
    width = max(len(str(v)) for row in st for v in row)
    for row in st:
        print("     |", "  ".join(str(v).rjust(width) for v in row), "|")
    print()
