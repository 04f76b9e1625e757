"""Search for every supercharacter theory of a finite group.

Two interchangeable drivers over the same per-candidate builder:

* main: compute the bad parts first, then walk the partition tree of the
  non-trivial character indices skipping every branch whose newest part is
  bad.  A bad part forces all non-identity classes apart, so the only
  theory it could belong to is the all-singleton one, which is appended
  unconditionally instead.  The walk also carries the class partition
  forced so far (the meet of the chosen parts' level-set partitions) and
  cuts a branch once that meet has more parts than any completion could
  have character parts.  The cut is sound because a theory has as many
  class parts as character parts and the meet only refines as parts are
  added.  It also makes every visited partition a theory: the class side
  never has fewer parts than the character side, since the parts' sigma_X
  are linearly independent and constant on the forced class parts, and at
  a leaf the cut excludes more.  So in main mode every builder call
  succeeds and early_aborts is 0; setparts spells the argument out.
* first: visit all partitions via restricted-growth codewords, no pruning.

Both return the identical canonical set of theories plus search counters,
which is what makes the pruning measurable.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .chartab import CharacterTable, SizeLimitError
from .exactnum import Cyclotomic
from .kappa import TOO_MANY_PARTS, KappaFailure, SuperTheory, create_kappa
from .setparts import MAX_CODEWORD_LENGTH, enumerate_partitions, er_codewords
from .sigma import SigmaMatrix, find_bad_parts, mask_of, sigma_matrix

MODES = ("main", "first")


@dataclass
class SearchStats:
    """Counters of one search run.

    kappa_calls equals partitions_visited: the builder runs once per visited
    partition.  early_aborts counts the builder calls cut short because the
    class side exceeded its part budget; the main walk's meet cut leaves it
    at 0 there.  pruned_nodes counts branches cut for a bad part and
    meet_cuts those cut by the class-side meet.  bad_part_count is None
    when no bad-part scan happened (first mode).  Wall-clock figures live apart from
    the counters because they vary run to run; serializers skip them.
    """

    mode: str
    n: int
    bad_part_count: int | None = None
    partitions_visited: int = 0
    pruned_nodes: int = 0
    meet_cuts: int = 0
    tree_edges: int = 0
    kappa_calls: int = 0
    kappa_successes: int = 0
    early_aborts: int = 0
    wall_times: dict[str, float] = field(default_factory=dict)

    def counters(self) -> dict[str, int | None]:
        """The deterministic, run-independent part of the stats."""
        return {
            "bad_part_count": self.bad_part_count,
            "partitions_visited": self.partitions_visited,
            "pruned_nodes": self.pruned_nodes,
            "meet_cuts": self.meet_cuts,
            "tree_edges": self.tree_edges,
            "kappa_calls": self.kappa_calls,
            "kappa_successes": self.kappa_successes,
            "early_aborts": self.early_aborts,
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


def _trivial_group_result(table: CharacterTable, mode: str) -> tuple[TheorySet, SearchStats]:
    one = Cyclotomic.one(table.root_order)
    theory = SuperTheory(x_parts=(1,), k_parts=(1,), st=((one,),))
    stats = SearchStats(mode=mode, n=1, bad_part_count=0 if mode == "main" else None)
    return TheorySet([theory]), stats


def _singleton_parts(n: int) -> tuple[int, ...]:
    return tuple(mask_of([j]) for j in range(2, n + 1))


class _Collector:
    """Per-worker sink: builder calls, counters, found theories.

    found maps each canonical encoding to its theory.  With keep_theories
    off the values are None, so only the encodings are retained, which is
    what the streaming count uses.
    """

    def __init__(self, matrix: SigmaMatrix, keep_theories: bool = True):
        self.matrix = matrix
        self.keep_theories = keep_theories
        self.found: dict[tuple, SuperTheory | None] = {}
        self.calls = 0
        self.successes = 0
        self.aborts = 0

    def record(self, theory: SuperTheory) -> None:
        self.found.setdefault(
            theory.encoding(), theory if self.keep_theories else None
        )

    def visit_masks(self, parts: list[int]) -> None:
        self.calls += 1
        result = create_kappa(self.matrix, tuple(parts))
        if isinstance(result, KappaFailure):
            if result.reason == TOO_MANY_PARTS:
                self.aborts += 1
            return
        self.successes += 1
        self.record(result)

    def visit_codeword(self, code: tuple[int, ...]) -> None:
        parts = [0] * max(code)
        for pos, label in enumerate(code):
            parts[label - 1] |= 1 << (pos + 1)
        self.visit_masks(parts)


def _run_main(
    table: CharacterTable, stats: SearchStats, threads: int, keep: bool
) -> _Collector:
    n = table.n
    matrix = sigma_matrix(table)
    t0 = time.perf_counter()
    bad = find_bad_parts(table, matrix=matrix)
    stats.wall_times["bad_parts"] = time.perf_counter() - t0
    stats.bad_part_count = len(bad)
    elements = range(2, n + 1)

    t1 = time.perf_counter()
    if threads == 1:
        collectors = [_Collector(matrix, keep)]
        visits = [
            enumerate_partitions(
                elements, bad, collectors[0].visit_masks, matrix=matrix
            )
        ]
    else:
        top_keys = list(range(1, 1 << (n - 1), 2))
        collectors = [_Collector(sigma_matrix(table), keep) for _ in range(threads)]
        batches = [top_keys[w::threads] for w in range(threads)]

        def branch(w: int):
            return enumerate_partitions(
                elements,
                bad,
                collectors[w].visit_masks,
                top_keys=batches[w],
                matrix=collectors[w].matrix,
            )

        with ThreadPoolExecutor(max_workers=threads) as pool:
            visits = list(pool.map(branch, range(threads)))
    stats.wall_times["search"] = time.perf_counter() - t1

    merged = _Collector(matrix, keep)
    for sink, visit in zip(collectors, visits):
        stats.partitions_visited += visit.visited_partitions
        stats.pruned_nodes += visit.pruned_nodes
        stats.meet_cuts += visit.meet_cuts
        stats.tree_edges += visit.tree_edges
        stats.kappa_calls += sink.calls
        stats.kappa_successes += sink.successes
        stats.early_aborts += sink.aborts
        merged.found.update(sink.found)

    # A bad singleton part prunes the all-singleton partition along with the
    # rest, yet that partition always succeeds, so it is added outside the
    # counted search.
    finest = create_kappa(matrix, _singleton_parts(n))
    if not isinstance(finest, SuperTheory):
        raise AssertionError("the all-singleton partition must always succeed")
    merged.record(finest)
    return merged


def _run_first(table: CharacterTable, stats: SearchStats, keep: bool) -> _Collector:
    n = table.n
    if n - 1 > MAX_CODEWORD_LENGTH:
        raise SizeLimitError(
            f"baseline mode visits all partitions of {n - 1} indices; "
            f"the limit is {MAX_CODEWORD_LENGTH}"
        )
    matrix = sigma_matrix(table)
    sink = _Collector(matrix, keep)
    t0 = time.perf_counter()
    count = er_codewords(n - 1, sink.visit_codeword)
    stats.wall_times["search"] = time.perf_counter() - t0
    stats.partitions_visited = count
    stats.kappa_calls = sink.calls
    stats.kappa_successes = sink.successes
    stats.early_aborts = sink.aborts
    return sink


def _search(
    table: CharacterTable, mode: str, threads: int, keep: bool
) -> tuple[_Collector, SearchStats]:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    stats = SearchStats(mode=mode, n=table.n)
    t0 = time.perf_counter()
    if mode == "main":
        sink = _run_main(table, stats, threads, keep)
    else:
        sink = _run_first(table, stats, keep)
    stats.wall_times["total"] = time.perf_counter() - t0
    return sink, stats


def find_supertheories(
    table: CharacterTable, mode: str = "main", *, threads: int = 1
) -> tuple[TheorySet, SearchStats]:
    """All supercharacter theories of the group behind `table`.

    mode picks the driver ("main" prunes via bad parts and the class-side
    meet, "first" visits every partition).  threads splits the main
    driver's top-level branches over a thread pool; results and counters
    are identical to the sequential run.
    """
    if table.n == 1:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        return _trivial_group_result(table, mode)
    sink, stats = _search(table, mode, threads, keep=True)
    return TheorySet(sink.found.values()), stats


def count_supertheories(
    table: CharacterTable, mode: str = "main", *, threads: int = 1
) -> tuple[int, SearchStats]:
    """Number of theories, retaining canonical encodings only."""
    if table.n == 1:
        theories, stats = find_supertheories(table, mode, threads=threads)
        return len(theories), stats
    sink, stats = _search(table, mode, threads, keep=False)
    return len(sink.found), stats


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
    index lists and sigma values straight from the table.
    """
    n = table.n
    if n > 7:
        raise SizeLimitError("exhaustive definition check is limited to 7 classes")
    if n == 1:
        return ((((1,),), ((1,),)),)
    order = table.root_order

    def all_partitions(items: tuple[int, ...]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in all_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    def sigma_row(part: list[int]) -> list[Cyclotomic]:
        out = []
        for j in range(1, n + 1):
            acc = Cyclotomic.zero(order)
            for i in part:
                acc = acc + table.value(i, 1) * table.value(i, j)
            out.append(acc)
        return out

    klass_partitions = [
        [[1]] + p for p in all_partitions(tuple(range(2, n + 1)))
    ]
    by_size: dict[int, list[list[list[int]]]] = {}
    for kp in klass_partitions:
        by_size.setdefault(len(kp), []).append(kp)

    results = []
    for xp in all_partitions(tuple(range(1, n + 1))):
        rows = [sigma_row(part) for part in xp]
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
