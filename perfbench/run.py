"""The supchar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload prime --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports supchar from ./src and starts
its child processes with PYTHONPATH=src.  With --trace 0 it reports the
end-to-end metrics (solve_s, setup_s, peak_rss_mb), with --trace 1 the
per-layer metrics of a traced re-drive next to an untraced run.  Every
operation's output is checked against frozen.json.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
a readable table goes to stderr, and the host record, spans and per-pass
figures go to perfbench/_work/.  See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import supchar  # noqa: E402
from supchar import (  # noqa: E402
    SearchStats,
    load_table_file,
    result_document,
    save_table,
    validate_table,
    verify_theory,
)

from tracing import Tracer, traced_solve  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    canonical,
    check,
    digest,
    generate,
    load_frozen,
    permute,
    theory_from_document,
)

PROBE_REPEATS = 3  # `python -c pass` and `python -c "import supchar"` each
CHILD_TIMEOUT = 60.0  # seconds before a child is killed and its op fails

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "chartab.build_s": "s",
    "chartab.validate_s": "s",
    "chartab.load_s": "s",
    "sigma.s": "s",
    "sigma.matrix_s": "s",
    "sigma.candidates": "count",
    "sigma.bad_parts": "count",
    "sigma.bad_fraction": "ratio",
    "setparts.self_s": "s",
    "setparts.visits": "count",
    "setparts.pruned": "count",
    "setparts.edges": "count",
    "kappa.s": "s",
    "kappa.calls": "count",
    "kappa.successes": "count",
    "kappa.aborts": "count",
    "kappa.yield": "ratio",
    "kappa.verify_s": "s",
    "engine.wall.total_s": "s",
    "engine.wall.search_s": "s",
    "engine.document_s": "s",
    "engine.theories": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.matches_engine": "flag",
    "host.probe_s": "s",
}


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: str
    seconds: float
    rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run one child to exit; time it from spawn until stdout is collected.

    The child is reaped with wait4 so its own peak RSS is known.  A watchdog
    kills it after CHILD_TIMEOUT seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Child(proc.returncode, out, text, seconds, usage.ru_maxrss / 1024)


def host_probe() -> float:
    """Fixed pure-Python work; a slower reading means a slower host."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def python_seconds(code: str) -> float:
    """Median wall time of `python -c code` in a fresh interpreter."""
    times = []
    for _ in range(PROBE_REPEATS):
        child = run_child([sys.executable, "-c", code])
        if child.code != 0:
            raise RuntimeError(f"python -c {code!r} exited {child.code}: {child.stderr}")
        times.append(child.seconds)
    return statistics.median(times)


class Bench:
    """One workload under one seed: its tables, passes and failure tally."""

    def __init__(self, workload: str, seed: int, *, ops=None, frozen=None):
        self.workload = workload
        self.seed = seed
        self.ops = WORKLOADS[workload] if ops is None else ops
        self.frozen = load_frozen() if frozen is None else frozen
        self.perms = {}
        self.files = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def prepare(self, table_dir: Path) -> None:
        """Build the seeded tables and write them as the files CLI operations read."""
        for spec in dict.fromkeys(op.spec for op in self.ops):
            perm = permute(generate(spec), self.seed, spec)
            violations = validate_table(perm.table)
            if violations:
                raise RuntimeError(f"{spec}: permuted table is invalid: {violations}")
            self.perms[spec] = perm
            self.files[spec] = table_dir / f"table-{spec.replace(':', '_')}.json"
            save_table(perm.table, self.files[spec])

    @property
    def failed(self) -> int:
        return len(self.problems)

    def _done(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    def _child(self, argv: list[str]) -> Child:
        child = run_child(argv)
        self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
        return child

    def setup_seconds(self) -> float:
        """A fresh interpreter that imports supchar and builds and validates the tables."""
        argv = [sys.executable, str(HERE / "setup_tables.py"), self.workload, str(self.seed)]
        child = run_child(argv)
        if child.code != 0:
            raise RuntimeError(f"set-up child exited {child.code}: {child.stderr}")
        return child.seconds

    def library_pass(self) -> tuple[list[float], list]:
        """Solve every operation once in a fresh interpreter.

        Returns each operation's solve time and its SearchStats counters and
        wall times (None where the operation failed).
        """
        argv = [sys.executable, str(HERE / "solve_child.py"), str(self.seed)]
        argv += [f"{op.route}={op.spec}" for op in self.ops]
        child = self._child(argv)
        try:
            records = json.loads(child.stdout) if child.code == 0 else None
        except ValueError:
            records = None
        if records is None or len(records) != len(self.ops):
            for op in self.ops:
                self._done([f"{op.spec}: solve child exited {child.code}: "
                            f"{child.stderr.strip()[-200:]}"])
            return [child.seconds / len(self.ops)] * len(self.ops), [None] * len(self.ops)
        stats = []
        for op, rec in zip(self.ops, records):
            if "error" in rec:
                self._done([f"{op.spec}: {rec['error']}"])
                stats.append(None)
                continue
            problems = check(self.frozen, op.spec, rec["count"], rec["digest"])
            if rec["unverified"]:
                problems.append(f"{op.spec}: verify_theory rejected {rec['unverified']} theories")
            self._done(problems)
            stats.append(rec)
        return [rec["seconds"] for rec in records], stats

    def cli_pass(self) -> tuple[list[float], list]:
        """Run every operation as a CLI child; returns child times and outputs."""
        times = []
        outputs = []
        for op in self.ops:
            argv = [sys.executable, "-m", "supchar", op.route, "--group",
                    f"file:{self.files[op.spec]}", "--format", "json"]
            child = self._child(argv)
            times.append(child.seconds)
            problems, doc = self._check_cli(op, child)
            self._done(problems)
            outputs.append((child, doc))
        return times, outputs

    def _check_cli(self, op, child: Child) -> tuple[list[str], dict | None]:
        where = f"{op.route} {op.spec}"
        if child.code != 0:
            return [f"{where}: exit code {child.code}: {child.stderr.strip()[-200:]}"], None
        perm = self.perms[op.spec]
        try:
            doc = json.loads(child.stdout)
            if op.route == "count":
                return check(self.frozen, op.spec, doc["theory_count"], None), doc
            theories = doc["theories"]
            canon = [canonical(perm, t["x_partition"], t["k_partition"]) for t in theories]
            problems = check(self.frozen, op.spec, len(canon), digest(canon))
            if doc["theory_count"] != len(theories):
                problems.append(f"{where}: theory_count disagrees with the list")
            bad = sum(1 for t in theories
                      if not verify_theory(perm.table, theory_from_document(perm.table, t)))
            if bad:
                problems.append(f"{where}: verify_theory rejected {bad} theories")
            return problems, doc
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{where}: unreadable output: {type(exc).__name__}: {exc}"], None

    def traced_pass(self, tracer: Tracer) -> tuple[float, list, int]:
        """Re-drive every operation through the traced pipeline, in-process.

        Returns the summed traced solve time, each operation's counters and
        the number of theories found.
        """
        solve = 0.0
        counters = []
        found = 0
        for op in self.ops:
            tracer.trace += 1
            perm = self.perms[op.spec]
            with tracer.span("op", f"{op.route} {op.spec}"):
                with tracer.span("chartab.build"):
                    generate(op.spec)
                with tracer.span("chartab.load"):
                    table = load_table_file(self.files[op.spec])
                with tracer.span("chartab.validate"):
                    validate_table(table)
                with tracer.span("solve") as span:
                    theories, counts = traced_solve(tracer, table, op.mode)
                solve += span.end - span.start
                with tracer.span("kappa.verify"):
                    bad = sum(1 for th in theories if not verify_theory(table, th))
                with tracer.span("engine.document"):
                    stats = SearchStats(mode=op.mode, n=table.n, **counts)
                    doc = result_document(table, op.mode, theories, stats)
                    if op.route == "count":
                        del doc["theories"]
                    json.dumps(doc, indent=2, sort_keys=True)
            canon = [canonical(perm, th.x_indices(), th.k_indices()) for th in theories]
            problems = check(self.frozen, op.spec, len(canon), digest(canon))
            if bad:
                problems.append(f"traced {op.spec}: verify_theory rejected {bad} theories")
            self._done(problems)
            counters.append(counts)
            found += len(theories)
        return solve, counters, found

    # -- one measured unit per trace mode -------------------------------------

    def end_to_end_pass(self) -> tuple[list[float], list[float]]:
        """Two set-up times and each operation's solve time in one pass.

        One set-up child runs before the solve pass and one after it, so that
        over a run they sample the host as evenly as the solve times do.
        """
        before = self.setup_seconds()
        solve = self.cli_pass()[0] if self.workload == "cli" else self.library_pass()[0]
        return [before, self.setup_seconds()], solve

    def layer_pass(self) -> tuple[dict, Tracer]:
        """An untraced pass and a traced one; the per-layer metrics of the pair."""
        stdout_bytes = 0
        engine_counters = None
        if self.workload == "cli":
            _, outputs = self.cli_pass()
            stdout_bytes = sum(len(child.stdout) for child, _ in outputs)
            engine_counters = [doc["stats"] if doc else None for _, doc in outputs]
        times, records = self.library_pass()
        if engine_counters is None:
            engine_counters = [rec["counters"] if rec else None for rec in records]
        tracer = Tracer()
        traced, counters, found = self.traced_pass(tracer)
        candidates = sum((1 << (self.perms[op.spec].table.n - 1)) - 1
                         for op in self.ops if op.mode == "main")
        bad_parts = sum(c["bad_part_count"] or 0 for c in counters)
        calls = sum(c["kappa_calls"] for c in counters)
        successes = sum(c["kappa_successes"] for c in counters)
        wall = [rec["wall_times"] for rec in records if rec]
        metrics = {
            "chartab.build_s": tracer.total("chartab.build"),
            "chartab.validate_s": tracer.total("chartab.validate"),
            "chartab.load_s": tracer.total("chartab.load"),
            "sigma.s": tracer.total("sigma.matrix") + tracer.total("sigma.badscan"),
            "sigma.matrix_s": tracer.total("sigma.matrix"),
            "sigma.candidates": candidates,
            "sigma.bad_parts": bad_parts,
            "sigma.bad_fraction": bad_parts / candidates if candidates else 0.0,
            "setparts.self_s": (tracer.self_time("setparts.walk")
                                + tracer.self_time("setparts.codewords")),
            "setparts.visits": sum(c["partitions_visited"] for c in counters),
            "setparts.pruned": sum(c["pruned_nodes"] for c in counters),
            "setparts.edges": sum(c["tree_edges"] for c in counters),
            "kappa.s": tracer.total("kappa.create") + tracer.total("kappa.finest"),
            "kappa.calls": calls,
            "kappa.successes": successes,
            "kappa.aborts": sum(c["early_aborts"] for c in counters),
            "kappa.yield": successes / calls,
            "kappa.verify_s": tracer.total("kappa.verify"),
            "engine.wall.total_s": sum(w["total"] for w in wall),
            "engine.wall.search_s": sum(w["search"] for w in wall),
            "engine.document_s": tracer.total("engine.document"),
            "engine.theories": found,
            "cli.stdout_bytes": stdout_bytes,
            "trace.overhead_frac": traced / sum(times) - 1.0,
            "trace.matches_engine": int(engine_counters == counters),
        }
        return metrics, tracer


def measure(seconds: float, one_pass) -> list:
    """Repeat one_pass while another pass of typical length still fits."""
    start = perf_counter()
    results, durations = [], []
    while True:
        t0 = perf_counter()
        results.append(one_pass())
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure_run(args, bench: Bench, record: dict) -> tuple[dict, dict]:
    """The metrics of one run, with their units; per-pass figures go to record."""
    if args.trace == 0:
        passes = measure(args.seconds, bench.end_to_end_pass)
        setup = [t for times, _ in passes for t in times]
        solve = [times for _, times in passes]
        values = {"solve_s": sum(statistics.median(op) for op in zip(*solve)),
                  "setup_s": statistics.median(setup), "peak_rss_mb": bench.peak_rss_mb}
        record.update(setup_s=setup, solve_s=solve)
        units = END_TO_END
    else:
        pairs = measure(args.seconds, bench.layer_pass)
        values = {name: statistics.median(m[name] for m, _ in pairs)
                  for name in pairs[0][0]}
        values["trace.matches_engine"] = min(m["trace.matches_engine"] for m, _ in pairs)
        values["cli.interp_s"] = python_seconds("pass")
        values["cli.import_s"] = python_seconds("import supchar")
        record["spans"] = [tracer.records() for _, tracer in pairs]
        units = PER_LAYER
    return values, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(supchar.__file__).resolve().parent != SRC / "supchar":
        raise SystemExit(f"perfbench: supchar imported from {supchar.__file__}, not {SRC}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "probe_before_s": host_probe()}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as table_dir:
        bench = Bench(args.workload, args.seed)
        bench.prepare(Path(table_dir))
        values, units = measure_run(args, bench, record)
    record["probe_after_s"] = host_probe()
    if args.trace == 1:
        values["host.probe_s"] = max(record["probe_before_s"], record["probe_after_s"])
    record.update(problems=bench.problems, metrics=values)
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:9} {name:28} {values[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
