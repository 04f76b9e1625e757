"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest
from supchar import find_supertheories, validate_table

from run import HERE, ROOT, Bench
from tracing import Tracer, traced_solve
from workloads import Op, canonical, generate, identity, load_frozen, permute


@pytest.mark.parametrize("spec,mode", [
    ("cyclic:13", "main"), ("frobenius:19:3", "main"), ("cyclic:7", "first"),
])
def test_traced_counts_match_engine(spec, mode):
    table = permute(generate(spec), 4, spec).table
    theories, stats = find_supertheories(table, mode)
    traced, counters = traced_solve(Tracer(), table, mode)
    assert counters == stats.counters()
    assert traced == theories


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("setparts.walk") as walk:
        inner = tracer.aggregate("kappa.create")
        inner.add(0.25)
        inner.add(0.5)
    walk.start, walk.end = 0.0, 2.0
    assert inner.count == 2
    assert tracer.self_time("setparts.walk") == pytest.approx(1.25)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec", ["cyclic:13", "frobenius:19:3", "dihedral:23"])
def test_permutation_round_trips_theories(spec, seed):
    table = generate(spec)
    perm = permute(table, seed, spec)
    assert perm == permute(table, seed, spec)
    assert perm.cols[0] == 1
    assert sorted(perm.cols) == list(range(1, table.n + 1))
    for j, c in enumerate(perm.cols):
        assert perm.table.class_sizes[j] == table.class_sizes[c - 1]
        for i in range(table.n):
            assert perm.table.values[i][j] == table.values[i][c - 1]
    assert validate_table(perm.table) == []
    original, stats = find_supertheories(table)
    permuted, permuted_stats = find_supertheories(perm.table)
    want = sorted(canonical(identity(table), th.x_indices(), th.k_indices()) for th in original)
    got = sorted(canonical(perm, th.x_indices(), th.k_indices()) for th in permuted)
    assert got == want
    assert permuted_stats.counters() == stats.counters()


def test_seeds_give_different_tables():
    table = generate("cyclic:13")
    assert len({permute(table, seed, "cyclic:13").cols for seed in range(4)}) > 1


def _tampered(spec: str, field: str) -> dict:
    frozen = copy.deepcopy(load_frozen())
    if field == "count":
        frozen[spec]["count"] += 1
    else:
        frozen[spec]["digest"] = "0" * 64
    return frozen


OPS = [Op("cyclic:7", "main"), Op("frobenius:13:3", "main")]
CLI_OPS = [Op("cyclic:7", "list"), Op("cyclic:7", "count"), Op("frobenius:13:3", "list")]


def test_frozen_results_pass(tmp_path):
    bench = Bench("prime", 3, ops=OPS)
    bench.prepare(tmp_path)
    bench.library_pass()
    bench.traced_pass(Tracer())
    cli = Bench("cli", 3, ops=CLI_OPS)
    cli.prepare(tmp_path)
    cli.cli_pass()
    assert (bench.failed, bench.attempted) == (0, 4)
    assert (cli.failed, cli.attempted) == (0, 3)


@pytest.mark.parametrize("field", ["count", "digest"])
def test_wrong_frozen_result_fails_library_ops(field, tmp_path):
    bench = Bench("prime", 3, ops=OPS, frozen=_tampered("cyclic:7", field))
    bench.prepare(tmp_path)
    bench.library_pass()
    bench.traced_pass(Tracer())
    assert (bench.failed, bench.attempted) == (2, 4)
    assert all("cyclic:7" in problem for problem in bench.problems)


@pytest.mark.parametrize("field,failed", [("count", 2), ("digest", 1)])
def test_wrong_frozen_result_fails_cli_ops(field, failed, tmp_path):
    # `count` prints no theories, so only a wrong count can fail it.
    bench = Bench("cli", 3, ops=CLI_OPS, frozen=_tampered("cyclic:7", field))
    bench.prepare(tmp_path)
    bench.cli_pass()
    assert (bench.failed, bench.attempted) == (failed, 3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
