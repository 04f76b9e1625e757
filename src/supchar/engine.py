"""Search for every supercharacter theory of a finite group.

find_supertheories makes one class-side builder per search
(kappa.class_side_builder: create_kappa without its partition check) and
hands it to one of two partition sources as their visitor, since both build
each partition valid:

* main: one scan of all parts counts the bad parts and keeps the
  admissible ones (sigma states the bound and proves it), and the walk of
  the partition tree of the non-trivial character indices reads only
  those.  It carries the class partition forced so far (the meet of the
  chosen parts' level-set partitions) and keeps the parts inside one block
  of its dual character partition.  That partition has at least as many
  blocks as the meet, so no visited partition forces more class parts than
  it has character parts: every visited partition is a theory and every
  theory comes from the walk, so in main mode every builder call succeeds
  and early_aborts is 0; setparts spells the argument out.
* first: visit all partitions in restricted-growth codeword order, with the
  part masks built by the codeword recursion itself; no pruning.

Both return the identical canonical set of theories plus search counters,
which is what makes the pruning measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from .chartab import CharacterTable, SizeLimitError
from .exactnum import Cyclotomic
from .kappa import TOO_FEW, SuperTheory, class_side_builder, supercharacter_values
from .setparts import er_partitions, walk_pool
from .sigma import mask_of, scan_parts, sigma_matrix

MODES = ("main", "first")


@dataclass
class SearchStats:
    """Counters of one search run, written by find_supertheories.

    kappa_calls is set to partitions_visited: the walk's visitor is the
    builder, so each visited partition is one builder call.  early_aborts
    counts the builder calls cut short because the class side exceeded its
    part budget.  The builder keeps only the theories and the shared TOO_FEW
    failures, so the aborts are kappa_calls less the kept results.  early_aborts
    is 0 in main mode, where the dual rule bounds the class side of every
    visited partition by its character parts.  pruned_nodes counts the
    candidate parts of the walk that are not admissible and dual_cuts the
    candidates and children cut by the dual rule.
    bad_part_count and admissible_parts are None when no part scan happened
    (first mode).  Wall-clock figures (matrix, bad_parts for the scan,
    search, total) live apart from the counters because they vary run to
    run; counters() and the serializers skip them.
    """

    mode: str
    n: int
    bad_part_count: int | None = None
    admissible_parts: int | None = None
    partitions_visited: int = 0
    pruned_nodes: int = 0
    dual_cuts: int = 0
    tree_edges: int = 0
    kappa_calls: int = 0
    kappa_successes: int = 0
    early_aborts: int = 0
    wall_times: dict[str, float] = field(default_factory=dict)

    def counters(self) -> dict[str, int | None]:
        """The deterministic, run-independent part of the stats: every field
        but mode, n and wall_times, in declaration order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("mode", "n", "wall_times")
        }


class TheorySet:
    """Deduplicated theories in canonical order.

    Ordering: part count first, then the character-side index partition,
    then the class side.  Identity of a theory is its pair of index
    partitions, so containers built by different search routes compare
    equal.
    """

    def __init__(self, theories):
        by_enc = {}
        for th in theories:
            by_enc.setdefault(th.encoding(), th)
        self._by_enc: dict[tuple, SuperTheory] = dict(
            sorted(by_enc.items(), key=lambda item: item[1].sort_key())
        )
        self.theories: tuple[SuperTheory, ...] = tuple(self._by_enc.values())

    def __len__(self) -> int:
        return len(self.theories)

    def __iter__(self):
        return iter(self.theories)

    def __getitem__(self, i: int) -> SuperTheory:
        return self.theories[i]

    def encodings(self) -> tuple[tuple, ...]:
        return tuple(self._by_enc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TheorySet):
            return NotImplemented
        return self.encodings() == other.encodings()

    def __contains__(self, th: SuperTheory) -> bool:
        return th.encoding() in self._by_enc

    def __repr__(self) -> str:
        return f"TheorySet({len(self.theories)} theories)"


def find_supertheories(
    table: CharacterTable, mode: str = "main", *, threads: int = 1
) -> tuple[TheorySet, SearchStats]:
    """All supercharacter theories of the group behind `table`.

    mode picks the partition source ("main" walks the admissible parts with
    the dual rule, "first" visits every partition), and its visitor is the
    class-side builder, one call on the walk's borrowed parts list per
    visit.  threads is kept for callers and must be 1.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if threads != 1:
        raise ValueError("the search is sequential: threads must be 1")
    if table.n == 1:
        scanned = 0 if mode == "main" else None
        stats = SearchStats(
            mode=mode, n=1, bad_part_count=scanned, admissible_parts=scanned)
        one = Cyclotomic.one(table.root_order)
        return TheorySet([SuperTheory(x_parts=(1,), k_parts=(1,), st=((one,),))]), stats
    stats = SearchStats(mode=mode, n=table.n)
    t0 = time.perf_counter()
    matrix = sigma_matrix(table)
    stats.wall_times["matrix"] = time.perf_counter() - t0
    # the theories and TOO_FEW results, in visit order; the builder is the
    # walk's visitor, so each visited partition is one builder call
    kept: list = []
    build = class_side_builder(matrix, kept.append)
    if mode == "main":
        t1 = time.perf_counter()
        stats.bad_part_count, pool = scan_parts(matrix)
        stats.wall_times["bad_parts"] = time.perf_counter() - t1
        stats.admissible_parts = len(pool)
        t1 = time.perf_counter()
        walk = walk_pool(tuple(range(2, table.n + 1)), pool, build, matrix=matrix)
        stats.wall_times["search"] = time.perf_counter() - t1
        stats.partitions_visited = walk.visited_partitions
        stats.pruned_nodes = walk.pruned_nodes
        stats.dual_cuts = walk.dual_cuts
        stats.tree_edges = walk.tree_edges
    else:
        t1 = time.perf_counter()
        stats.partitions_visited = er_partitions(range(2, table.n + 1), build)
        stats.wall_times["search"] = time.perf_counter() - t1
    found = [r for r in kept if r is not TOO_FEW]
    stats.kappa_calls = stats.partitions_visited
    stats.kappa_successes = len(found)
    stats.early_aborts = stats.kappa_calls - len(kept)
    stats.wall_times["total"] = time.perf_counter() - t0
    return TheorySet(found), stats


def count_supertheories(
    table: CharacterTable, mode: str = "main"
) -> tuple[int, SearchStats]:
    """Number of theories of `table`, with the counters of its search."""
    theories, stats = find_supertheories(table, mode)
    return len(theories), stats


def theory_document(theory: SuperTheory) -> dict:
    """JSON-ready form of one theory.

    Values use the same term-triple serialization as table files.
    """
    return {
        "x_partition": [list(p) for p in theory.x_indices()],
        "k_partition": [list(p) for p in theory.k_indices()],
        "st": [[v.to_terms() for v in row] for row in theory.st],
    }


def result_document(
    table: CharacterTable, mode: str, theories: TheorySet, stats: SearchStats
) -> dict:
    """JSON-ready run summary.

    Wall-clock times are left out on purpose: two runs of the same search
    must serialize to identical bytes.
    """
    return {
        "group": table.name,
        "order": table.order,
        "n": table.n,
        "mode": mode,
        "stats": stats.counters(),
        "theory_count": len(theories),
        "theories": [theory_document(th) for th in theories],
    }


def brute_force_supertheories(table: CharacterTable) -> tuple[tuple, ...]:
    """Every theory by definition-checking all partition pairs.  Tiny n only.

    Returns sorted (x_indices, k_indices) encodings.  Independent of the
    search machinery: partitions come from itertools-style recursion over
    index lists, sigma values from the table by supercharacter_values.
    """
    n = table.n
    if n > 7:
        raise SizeLimitError("exhaustive definition check is limited to 7 classes")
    if n == 1:
        return ((((1,),), ((1,),)),)

    def all_partitions(items: tuple[int, ...]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in all_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    klass_partitions = [
        [[1]] + p for p in all_partitions(tuple(range(2, n + 1)))
    ]
    by_size: dict[int, list[list[list[int]]]] = {}
    for kp in klass_partitions:
        by_size.setdefault(len(kp), []).append(kp)

    results = []
    for xp in all_partitions(tuple(range(1, n + 1))):
        rows = [supercharacter_values(table, mask_of(part)) for part in xp]
        for kp in by_size.get(len(xp), ()):  # sizes must match
            ok = True
            for row in rows:
                for kpart in kp:
                    v = row[kpart[0] - 1]
                    if any(row[j - 1] != v for j in kpart[1:]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                x_enc = tuple(sorted(tuple(sorted(p)) for p in xp))
                k_enc = tuple(sorted(tuple(sorted(p)) for p in kp))
                results.append((x_enc, k_enc))
    return tuple(sorted(set(results), key=lambda e: (len(e[0]), e)))
