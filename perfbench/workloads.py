"""Workloads of the benchmark, the seeded table permutation and the oracle.

Every workload is a list of operations.  An operation is one (group, route)
solve: a library route ("main" or "first", run through find_supertheories)
or a CLI route ("list" or "count", run as `python -m supchar`).  Groups are
named by the CLI's spec strings; note that `dihedral:m` has order 2m.

The seed permutes the non-identity class columns of each table (class sizes
move with their columns).  The program only ever sees the permuted table;
the oracle maps theories back through the permutation before comparing them
with the frozen ones.  Character rows keep the generator's order: the pruned
walk visits characters in row order and its work depends on that order (10
random row orders of D54 ranged from 1.76M to 5.22M pruned nodes and from
3.5 s to 7.8 s), so permuting rows would make solve_s a property of the seed.
A class permutation leaves every search counter unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from supchar import (
    CharacterTable,
    Cyclotomic,
    SuperTheory,
    cyclic_table,
    dihedral_table,
    frobenius_pq_table,
    mask_of,
)

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"


@dataclass(frozen=True)
class Op:
    spec: str
    route: str

    @property
    def mode(self) -> str:
        """The search mode the operation runs; the CLI routes use main."""
        return "first" if self.route == "first" else "main"


def _ops(route: str, *specs: str) -> list[Op]:
    return [Op(spec, route) for spec in specs]


WORKLOADS: dict[str, list[Op]] = {
    # Acceptance groups.  More than 95% of parts are bad in the four large
    # ones, where the 2^(n-1) bad-part scan dominates and the pruned walk is
    # short.  T(19,3), the Frobenius acceptance group, is small and only 42%
    # bad.
    "prime": _ops("main", "cyclic:13", "cyclic:17", "cyclic:19", "dihedral:31",
                  "frobenius:19:3"),
    # Composite rotation orders, 72-82% bad: the walk and create_kappa do
    # the work, the bad-part scan is under 5%.
    "composite": _ops("main", "dihedral:25", "dihedral:27", "cyclic:14"),
    # The unpruned codeword baseline: every partition reaches create_kappa.
    "baseline": _ops("first", "cyclic:11", "cyclic:12"),
    # Whole CLI processes: interpreter and numpy start-up, table loading,
    # result documents and JSON rendering.
    "cli": _ops("list", "cyclic:7", "cyclic:13", "frobenius:13:3", "frobenius:19:3",
                "dihedral:23") + _ops("count", "cyclic:13", "dihedral:23"),
}


def specs_of(workload: str) -> list[str]:
    """Distinct group specs of a workload, in first-use order."""
    return list(dict.fromkeys(op.spec for op in WORKLOADS[workload]))


def generate(spec: str) -> CharacterTable:
    """The generated (unpermuted) table of a CLI group spec."""
    kind, _, rest = spec.partition(":")
    params = [int(p) for p in rest.split(":")]
    if kind == "cyclic":
        return cyclic_table(*params)
    if kind == "dihedral":
        return dihedral_table(*params)
    if kind == "frobenius":
        return frobenius_pq_table(*params)
    raise ValueError(f"unknown group spec {spec!r}")


@dataclass(frozen=True)
class Permuted:
    """A table as the program sees it, with the way back to the original.

    cols[j-1] is the original index of permuted class j; cols[0] is 1.
    """

    table: CharacterTable
    cols: tuple[int, ...]


def permute(table: CharacterTable, seed: int, spec: str) -> Permuted:
    rng = random.Random(f"{seed}:{spec}")
    rest = range(2, table.n + 1)
    cols = (1, *rng.sample(rest, len(rest)))
    permuted = CharacterTable(
        name=table.name,
        order=table.order,
        n=table.n,
        root_order=table.root_order,
        class_sizes=tuple(table.class_sizes[c - 1] for c in cols),
        values=tuple(tuple(row[c - 1] for c in cols) for row in table.values),
    )
    return Permuted(permuted, cols)


def identity(table: CharacterTable) -> Permuted:
    return Permuted(table, tuple(range(1, table.n + 1)))


def canonical(perm: Permuted, x_partition, k_partition) -> list:
    """A theory in original indices, parts and indices sorted."""
    x = sorted(sorted(part) for part in x_partition)
    k = sorted(sorted(perm.cols[j - 1] for j in part) for part in k_partition)
    return [x, k]


def digest(theories: list) -> str:
    """Order-free digest of canonical theories; counters play no part."""
    text = json.dumps(sorted(theories), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def theory_from_document(table: CharacterTable, doc: dict) -> SuperTheory:
    """Rebuild a theory from the CLI's JSON form, for verify_theory."""
    return SuperTheory(
        x_parts=tuple(mask_of(part) for part in doc["x_partition"]),
        k_parts=tuple(mask_of(part) for part in doc["k_partition"]),
        st=tuple(
            tuple(Cyclotomic.from_terms(table.root_order, v) for v in row)
            for row in doc["st"]
        ),
    )


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["groups"]


def check(frozen: dict, spec: str, count: int, theory_digest: str | None) -> list[str]:
    """Problems of one result against the frozen one; no digest for `count`."""
    want = frozen[spec]
    if count != want["count"]:
        return [f"{spec}: {count} theories, frozen {want['count']}"]
    if theory_digest is not None and theory_digest != want["digest"]:
        return [f"{spec}: theory digest differs from the frozen one"]
    return []
