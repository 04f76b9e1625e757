"""Spans recorded from outside the program, and the traced search pipeline.

A span has a name, a start and an end, the span that was open when it began
(its parent) and the operation it belongs to (its trace).  Spans stay in
memory; run.py writes them out when the benchmark ends.  A layer's self time
is its span's duration minus the durations of its child spans.

create_kappa runs up to ~700,000 times per operation, so its calls are kept
as one aggregate span per walk: a count and the summed duration of the calls,
parented like a single span.

traced_solve re-drives the engine's pipeline from public functions only,
so that every layer boundary can be timed:

* main: sigma_matrix, find_bad_parts(matrix=), enumerate_partitions with a
  visitor that calls create_kappa, then the all-singleton completion, which
  the engine adds outside its counted search;
* first: er_codewords, converting each codeword to part masks the way the
  engine does before calling create_kappa.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

from supchar import (
    KappaFailure,
    TheorySet,
    create_kappa,
    enumerate_partitions,
    er_codewords,
    find_bad_parts,
    mask_of,
    sigma_matrix,
)

# KappaFailure.reason of a call cut short by the class-side part budget,
# which SearchStats counts as an early abort.
TOO_MANY_PARTS = "too_many_parts"


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0
    detail: str = ""
    count: int = 1
    total: float | None = None  # summed member durations of an aggregate span

    @property
    def duration(self) -> float:
        return self.end - self.start if self.total is None else self.total

    def add(self, seconds: float) -> None:
        """Fold one member call into an aggregate span."""
        self.count += 1
        self.total += seconds


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._open: list[Span] = []

    def _new(self, name: str, detail: str = "") -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.trace, name, perf_counter(), detail=detail)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, detail: str = ""):
        span = self._new(name, detail)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def aggregate(self, name: str) -> Span:
        """An aggregate child of the open span; call add() per member."""
        span = self._new(name)
        span.count, span.total = 0, 0.0
        return span

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus that of their children."""
        ids = {s.id for s in self.spans if s.name == name}
        children = sum(s.duration for s in self.spans if s.parent in ids)
        return self.total(name) - children

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _Sink:
    """Visitor of the traced walk: times create_kappa, counts its outcomes."""

    def __init__(self, matrix, span: Span):
        self.matrix = matrix
        self.span = span
        self.successes = 0
        self.aborts = 0
        self.found = []

    def visit_masks(self, parts) -> None:
        t0 = perf_counter()
        result = create_kappa(self.matrix, tuple(parts))
        self.span.add(perf_counter() - t0)
        if isinstance(result, KappaFailure):
            if result.reason == TOO_MANY_PARTS:
                self.aborts += 1
            return
        self.successes += 1
        self.found.append(result)

    def visit_codeword(self, code) -> None:
        parts = [0] * max(code)
        for pos, label in enumerate(code):
            parts[label - 1] |= 1 << (pos + 1)
        self.visit_masks(parts)


def traced_solve(tracer: Tracer, table, mode: str) -> tuple[TheorySet, dict]:
    """Every theory of `table`, plus counters laid out like SearchStats.counters()."""
    n = table.n
    with tracer.span("sigma.matrix"):
        matrix = sigma_matrix(table)
    counters = {"bad_part_count": None, "pruned_nodes": 0, "tree_edges": 0}
    if mode == "main":
        with tracer.span("sigma.badscan"):
            bad = find_bad_parts(table, matrix=matrix)
        with tracer.span("setparts.walk"):
            sink = _Sink(matrix, tracer.aggregate("kappa.create"))
            visits = enumerate_partitions(range(2, n + 1), bad, sink.visit_masks)
        with tracer.span("kappa.finest"):
            finest = create_kappa(matrix, tuple(mask_of([j]) for j in range(2, n + 1)))
        if isinstance(finest, KappaFailure):
            raise AssertionError("the all-singleton partition must always succeed")
        sink.found.append(finest)
        counters.update(
            bad_part_count=len(bad),
            partitions_visited=visits.visited_partitions,
            pruned_nodes=visits.pruned_nodes,
            tree_edges=visits.tree_edges,
        )
    else:
        with tracer.span("setparts.codewords"):
            sink = _Sink(matrix, tracer.aggregate("kappa.create"))
            counters["partitions_visited"] = er_codewords(n - 1, sink.visit_codeword)
    counters.update(
        kappa_calls=sink.span.count,
        kappa_successes=sink.successes,
        early_aborts=sink.aborts,
    )
    return TheorySet(sink.found), counters
