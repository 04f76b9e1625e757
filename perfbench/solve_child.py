"""One untraced pass of library operations in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/solve_child.py SEED ROUTE=SPEC [ROUTE=SPEC ...]

Builds the seeded tables, then times find_supertheories on each operation
with threads=1.  After each timed call, outside the timing, it checks every
theory with verify_theory and reduces the theory list to a count and a
digest in original indices.  Prints one JSON list with one record per
operation; the caller compares the records with frozen.json.  Each pass runs
in its own process so that its peak RSS is that of one pass, not of a
process that has already solved the workload several times.
"""

import json
import sys
from time import perf_counter

from supchar import find_supertheories, verify_theory

from workloads import Op, canonical, digest, generate, permute


def solve(seed: int, ops: list[Op]) -> list[dict]:
    perms = {op.spec: permute(generate(op.spec), seed, op.spec) for op in ops}
    records = []
    for op in ops:
        perm = perms[op.spec]
        t0 = perf_counter()
        try:
            theories, stats = find_supertheories(perm.table, op.mode, threads=1)
        except Exception as exc:  # reported as a failed operation
            records.append({"seconds": perf_counter() - t0,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds = perf_counter() - t0
        canon = [canonical(perm, th.x_indices(), th.k_indices()) for th in theories]
        records.append({
            "seconds": seconds,
            "count": len(canon),
            "digest": digest(canon),
            "unverified": sum(1 for th in theories if not verify_theory(perm.table, th)),
            "counters": stats.counters(),
            "wall_times": stats.wall_times,
        })
    return records


if __name__ == "__main__":
    seed = int(sys.argv[1])
    ops = [Op(spec, route) for route, _, spec in (arg.partition("=") for arg in sys.argv[2:])]
    print(json.dumps(solve(seed, ops)))
