"""Freeze the oracle: theory count and digest of every benchmark group.

Run from the repository root as

    PYTHONPATH=src python3 perfbench/freeze.py

It runs the pruned search (main) on the unpermuted table of every group any
workload uses, checks every theory with verify_theory, and, where the table
has at most 13 classes, confirms the set against the unpruned baseline
(first).  Where a closed formula for the count is known it is checked too.
The result is written to frozen.json next to this file; each group records
what its frozen set rests on.
"""

from __future__ import annotations

import json
import sys

from supchar import find_supertheories, verify_theory

from workloads import FROZEN_PATH, WORKLOADS, canonical, digest, generate, identity

FIRST_LIMIT = 13  # `first` walks all B(n-1) partitions: Z13 takes ~20 s


def tau(x: int) -> int:
    return sum(1 for d in range(1, x + 1) if x % d == 0)


def known_count(spec: str) -> int | None:
    """Closed-form counts: tau(p-1) for Z_p, 1 + tau((p-1)/q) tau(q-1) for T(p,q)."""
    kind, _, rest = spec.partition(":")
    params = [int(p) for p in rest.split(":")]
    if kind == "cyclic" and all(params[0] % d for d in range(2, params[0])):
        return tau(params[0] - 1)
    if kind == "frobenius":
        p, q = params
        return 1 + tau((p - 1) // q) * tau(q - 1)
    return None


def freeze_group(spec: str) -> dict:
    table = generate(spec)
    perm = identity(table)
    theories, _ = find_supertheories(table, "main")
    if not all(verify_theory(table, th) for th in theories):
        raise SystemExit(f"{spec}: verify_theory rejected a main theory")
    canon = [canonical(perm, th.x_indices(), th.k_indices()) for th in theories]
    basis = ["main", "verify_theory"]
    if table.n <= FIRST_LIMIT:
        first, _ = find_supertheories(table, "first")
        if first != theories:
            raise SystemExit(f"{spec}: main and first disagree")
        basis.append("first")
    expected = known_count(spec)
    if expected is not None:
        if expected != len(theories):
            raise SystemExit(f"{spec}: {len(theories)} theories, formula says {expected}")
        basis.append("formula")
    print(f"{spec}: n={table.n} theories={len(theories)} basis={'+'.join(basis)}",
          file=sys.stderr)
    return {"n": table.n, "count": len(theories), "digest": digest(canon), "basis": basis}


def main() -> int:
    specs = dict.fromkeys(op.spec for ops in WORKLOADS.values() for op in ops)
    groups = {spec: freeze_group(spec) for spec in specs}
    document = {
        "about": "theory count and digest of canonical (x_partition, k_partition) "
                 "lists per group; written by freeze.py",
        "groups": groups,
    }
    with open(FROZEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
