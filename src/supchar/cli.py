"""Command-line front end.

Groups are addressed by a spec string: built-in generators (cyclic:m,
dihedral:m for the group of order 2m, frobenius:p:q) or a saved table
(file:PATH).  Subcommands: list and count run the search, badparts reports
the pruning statistics, bench times the pruned search against the unpruned
baseline, validate checks a table without searching.

Exit codes: 0 success, 1 invalid table or cross-mode disagreement, 2 size
limit, 3 file I/O, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .chartab import (
    CharacterTable,
    SizeLimitError,
    TableFormatError,
    TableValidationError,
    cyclic_table,
    dihedral_table,
    frobenius_pq_table,
    load_table_file,
    validate_table,
)
from .engine import TheorySet, find_supertheories, result_document, theory_document
from .sigma import alpha_ratio, find_bad_parts, indices_of

EXIT_OK = 0
EXIT_INVALID_TABLE = 1
EXIT_SIZE_LIMIT = 2
EXIT_IO = 3
EXIT_USAGE = 4


class SpecError(ValueError):
    """A group spec string that does not parse."""


@dataclass(frozen=True)
class GroupSpec:
    """Which group to work on, as chosen on the command line."""

    kind: str
    m: int = 0
    p: int = 0
    q: int = 0
    path: str = ""

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        kind, sep, rest = text.partition(":")
        if not sep or not rest:
            raise SpecError(
                f"bad group spec {text!r}: expected cyclic:m, dihedral:m, "
                "frobenius:p:q, or file:PATH"
            )
        if kind == "file":
            return cls(kind="file", path=rest)
        try:
            numbers = [int(piece) for piece in rest.split(":")]
        except ValueError:
            raise SpecError(f"bad group spec {text!r}: non-integer parameter") from None
        if kind in ("cyclic", "dihedral"):
            if len(numbers) != 1:
                raise SpecError(f"bad group spec {text!r}: {kind} takes one parameter")
            return cls(kind=kind, m=numbers[0])
        if kind == "frobenius":
            if len(numbers) != 2:
                raise SpecError(f"bad group spec {text!r}: frobenius takes p and q")
            return cls(kind="frobenius", p=numbers[0], q=numbers[1])
        raise SpecError(f"bad group spec {text!r}: unknown kind {kind!r}")

    def load(self) -> CharacterTable:
        if self.kind == "cyclic":
            return cyclic_table(self.m)
        if self.kind == "dihedral":
            return dihedral_table(self.m)
        if self.kind == "frobenius":
            return frobenius_pq_table(self.p, self.q)
        return load_table_file(self.path)


def truncated_percent(fraction: Fraction) -> str:
    """Percentage with exactly two decimals, truncated toward zero."""
    if fraction < 0:
        raise ValueError("expected a non-negative ratio")
    hundredths = (fraction * 10000).numerator // (fraction * 10000).denominator
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _format_indices(indices: tuple[int, ...]) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


def _theory_lines(theories: TheorySet) -> list[str]:
    lines = []
    for pos, th in enumerate(theories, start=1):
        x = " ".join(_format_indices(p) for p in th.x_indices())
        k = " ".join(_format_indices(p) for p in th.k_indices())
        lines.append(f"#{pos} parts={th.r}  X: {x}  K: {k}")
    return lines


def _run_modes(table: CharacterTable, mode: str, threads: int):
    """Run the requested mode(s); 'both' cross-checks the theory sets."""
    if mode in ("main", "first"):
        theories, stats = find_supertheories(table, mode, threads=threads)
        return theories, {mode: stats}
    main_set, main_stats = find_supertheories(table, "main", threads=threads)
    first_set, first_stats = find_supertheories(table, "first")
    if main_set != first_set:
        raise RuntimeError(
            f"mode disagreement for {table.name}: "
            f"main found {len(main_set)} theories, first found {len(first_set)}"
        )
    return main_set, {"main": main_stats, "first": first_stats}


def _both_document(table: CharacterTable, theories: TheorySet, stats_by_mode) -> dict:
    return {
        "group": table.name,
        "order": table.order,
        "n": table.n,
        "mode": "both",
        "stats": {mode: s.counters() for mode, s in stats_by_mode.items()},
        "theory_count": len(theories),
        "theories": [theory_document(th) for th in theories],
    }


def _document_for(table, mode, theories, stats_by_mode) -> dict:
    if mode == "both":
        return _both_document(table, theories, stats_by_mode)
    return result_document(table, mode, theories, stats_by_mode[mode])


def cmd_list(args) -> tuple[int, str]:
    table = GroupSpec.parse(args.group[0]).load()
    theories, stats_by_mode = _run_modes(table, args.mode, args.threads)
    if args.format == "json":
        doc = _document_for(table, args.mode, theories, stats_by_mode)
        return EXIT_OK, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"{table.name}: {len(theories)} supercharacter theories (mode={args.mode})"]
    lines += _theory_lines(theories)
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_count(args) -> tuple[int, str]:
    table = GroupSpec.parse(args.group[0]).load()
    theories, stats_by_mode = _run_modes(table, args.mode, args.threads)
    if args.format == "json":
        doc = _document_for(table, args.mode, theories, stats_by_mode)
        del doc["theories"]
        return EXIT_OK, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return EXIT_OK, f"{len(theories)}\n"


def cmd_badparts(args) -> tuple[int, str]:
    table = GroupSpec.parse(args.group[0]).load()
    if table.n < 2:
        if args.format == "json":
            doc = {"group": table.name, "n": table.n, "bad_part_count": 0,
                   "subset_count": 0}
            return EXIT_OK, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return EXIT_OK, f"group={table.name} n=1 bad_parts=0 subsets=0\n"
    bad = find_bad_parts(table)
    alpha = alpha_ratio(table, bad=bad)
    subsets = (1 << (table.n - 1)) - 1
    if args.format == "json":
        doc = {
            "group": table.name,
            "n": table.n,
            "bad_part_count": len(bad),
            "subset_count": subsets,
            "alpha": {"numerator": alpha.numerator, "denominator": alpha.denominator},
            "alpha_percent": truncated_percent(alpha),
        }
        if args.full:
            doc["parts"] = [list(indices_of(mask)) for mask in bad]
        return EXIT_OK, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [
        f"group={table.name} n={table.n} bad_parts={len(bad)} "
        f"subsets={subsets} alpha={truncated_percent(alpha)}%"
    ]
    if args.full:
        lines += [_format_indices(indices_of(mask)) for mask in bad]
    return EXIT_OK, "\n".join(lines) + "\n"


BENCH_COLUMNS = (
    "n_classes",
    "group",
    "theories",
    "bad_parts",
    "alpha_percent",
    "main_seconds",
    "first_seconds",
    "first_over_main",
)


def _bench_row(table: CharacterTable, modes: tuple[str, ...], repeats: int) -> dict:
    counts: dict[str, int] = {}
    means: dict[str, float] = {}
    bad_count = None
    for mode in modes:
        total = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            theories, stats = find_supertheories(table, mode)
            total += time.perf_counter() - start
        counts[mode] = len(theories)
        means[mode] = total / repeats
        if mode == "main":
            bad_count = stats.bad_part_count
    if len(set(counts.values())) > 1:
        raise RuntimeError(
            f"mode disagreement for {table.name}: theory counts {counts}"
        )
    row: dict = {
        "n_classes": table.n,
        "group": table.name,
        "theories": next(iter(counts.values())),
        "bad_parts": bad_count if bad_count is not None else "",
        "alpha_percent": "",
        "main_seconds": "",
        "first_seconds": "",
        "first_over_main": "",
    }
    if bad_count is not None and table.n >= 2:
        row["alpha_percent"] = truncated_percent(
            Fraction(bad_count, (1 << (table.n - 1)) - 1))
    if "main" in means:
        row["main_seconds"] = f"{means['main']:.4f}"
    if "first" in means:
        row["first_seconds"] = f"{means['first']:.4f}"
    if "main" in means and "first" in means and means["main"] > 0:
        row["first_over_main"] = f"{means['first'] / means['main']:.1f}"
    return row


def cmd_bench(args) -> tuple[int, str]:
    if args.repeats < 1:
        raise SpecError("--repeats must be at least 1")
    modes = ("main", "first") if args.mode == "both" else (args.mode,)
    rows = []
    for spec_text in args.group:
        table = GroupSpec.parse(spec_text).load()
        rows.append(_bench_row(table, modes, args.repeats))
    if args.format == "json":
        return EXIT_OK, json.dumps(
            {"repeats": args.repeats, "rows": rows}, indent=2, sort_keys=True
        ) + "\n"
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return EXIT_OK, buffer.getvalue()
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in BENCH_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in BENCH_COLUMNS))
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_validate(args) -> tuple[int, str]:
    spec = GroupSpec.parse(args.group[0])
    try:
        table = spec.load()
    except TableValidationError as exc:
        violations = getattr(exc, "violations", None) or [str(exc)]
        return EXIT_INVALID_TABLE, "\n".join(violations) + "\n"
    violations = validate_table(table)
    if violations:
        return EXIT_INVALID_TABLE, "\n".join(violations) + "\n"
    return EXIT_OK, "OK\n"


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the dedicated usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="supchar", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, *, multi_group=False, with_mode=True, formats=("json", "text")):
        p.add_argument(
            "--group",
            action="append",
            required=True,
            metavar="SPEC",
            help="cyclic:m | dihedral:m (order 2m) | frobenius:p:q | file:PATH"
            + (" (repeatable)" if multi_group else ""),
        )
        if with_mode:
            p.add_argument("--mode", choices=("main", "first", "both"), default="main")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", help="write the report to a file")

    p_list = sub.add_parser("list", help="enumerate all supercharacter theories")
    add_common(p_list)
    p_list.add_argument("--threads", type=int, default=1)
    p_list.set_defaults(run=cmd_list)

    p_count = sub.add_parser("count", help="count the supercharacter theories")
    add_common(p_count)
    p_count.add_argument("--threads", type=int, default=1)
    p_count.set_defaults(run=cmd_count)

    p_bad = sub.add_parser("badparts", help="report the bad-part statistics")
    add_common(p_bad, with_mode=False)
    p_bad.add_argument("--full", action="store_true", help="also list the parts")
    p_bad.set_defaults(run=cmd_badparts)

    p_bench = sub.add_parser("bench", help="time the search, pruned vs unpruned")
    add_common(p_bench, multi_group=True, with_mode=False, formats=("json", "text", "csv"))
    p_bench.add_argument("--mode", choices=("main", "first", "both"), default="both")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(run=cmd_bench)

    p_val = sub.add_parser("validate", help="check a table without searching")
    add_common(p_val, with_mode=False, formats=("text",))
    p_val.set_defaults(run=cmd_validate)

    return parser


def _single_group_only(args) -> None:
    if getattr(args, "run", None) is not cmd_bench and len(args.group) != 1:
        raise SpecError("--group may be given once for this command")


def _deliver(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _single_group_only(args)
        if getattr(args, "threads", 1) < 1:
            raise SpecError("--threads must be at least 1")
        code, text = args.run(args)
        _deliver(text, args.output)
        return code
    except SpecError as exc:
        print(f"supchar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"supchar: size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except (TableFormatError, TableValidationError) as exc:
        print(f"supchar: invalid table: {exc}", file=sys.stderr)
        return EXIT_INVALID_TABLE
    except RuntimeError as exc:
        print(f"supchar: {exc}", file=sys.stderr)
        return EXIT_INVALID_TABLE
    except OSError as exc:
        print(f"supchar: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"supchar: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
