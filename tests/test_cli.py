"""Command-line behavior: specs, subcommands, formats, exit codes."""

import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import supchar.cli
from supchar.chartab import cyclic_table, dihedral_table, save_table, table_to_document
from supchar.engine import find_supertheories
from supchar.cli import (
    BENCH_COLUMNS,
    EXIT_INVALID_TABLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SIZE_LIMIT,
    EXIT_USAGE,
    GroupSpec,
    SpecError,
    main,
    truncated_percent,
)
from supchar.kappa import SuperTheory, create_kappa
from supchar.setparts import MAX_CODEWORD_LENGTH
from supchar.sigma import MAX_SCAN_CLASSES, mask_of, sigma_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGroupSpec:
    def test_parse_kinds(self):
        assert GroupSpec.parse("cyclic:9") == GroupSpec(kind="cyclic", m=9)
        assert GroupSpec.parse("dihedral:19") == GroupSpec(kind="dihedral", m=19)
        assert GroupSpec.parse("frobenius:7:3") == GroupSpec(kind="frobenius", p=7, q=3)
        spec = GroupSpec.parse("file:/tmp/some:odd:name.json")
        assert spec.kind == "file" and spec.path == "/tmp/some:odd:name.json"

    @pytest.mark.parametrize("text", [
        "cyclic", "cyclic:", "cyclic:x", "cyclic:3:4", "frobenius:7",
        "frobenius:7:3:1", "klein:4", ":5", "",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(SpecError):
            GroupSpec.parse(text)

    def test_load(self):
        assert GroupSpec.parse("cyclic:6").load().name == "Z6"
        assert GroupSpec.parse("dihedral:7").load().name == "D14"
        assert GroupSpec.parse("frobenius:5:2").load().name == "T(5,2)"


class TestTruncatedPercent:
    def test_values(self):
        assert truncated_percent(Fraction(4020, 4095)) == "98.16"
        assert truncated_percent(Fraction(1)) == "100.00"
        assert truncated_percent(Fraction(0)) == "0.00"
        assert truncated_percent(Fraction(1, 3)) == "33.33"
        assert truncated_percent(Fraction(2, 3)) == "66.66"
        assert truncated_percent(Fraction(9999, 10000)) == "99.99"

    def test_truncates_not_rounds(self):
        assert truncated_percent(Fraction(26999, 100000)) == "26.99"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            truncated_percent(Fraction(-1, 2))


class TestCount:
    def test_text_is_bare_number(self, capsys):
        code, out, _ = run(capsys, "count", "--group", "cyclic:13")
        assert code == EXIT_OK
        assert out == "6\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "count", "--group", "cyclic:7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["group"] == "Z7"
        assert doc["theory_count"] == 4
        assert "theories" not in doc
        assert doc["stats"]["bad_part_count"] == 54

    def test_mode_both_stats_per_mode(self, capsys):
        code, out, _ = run(
            capsys, "count", "--group", "cyclic:8", "--mode", "both",
            "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["mode"] == "both"
        assert set(doc["stats"]) == {"main", "first"}
        assert doc["stats"]["first"]["kappa_calls"] == 877
        assert doc["stats"]["main"]["kappa_calls"] < 877


class TestList:
    def test_text_and_json_agree(self, capsys):
        code, text_out, _ = run(capsys, "list", "--group", "cyclic:7")
        assert code == EXIT_OK
        code, json_out, _ = run(
            capsys, "list", "--group", "cyclic:7", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(json_out)
        text_sets = set()
        for line in text_out.splitlines()[1:]:
            match = re.match(r"#\d+ parts=\d+  X: (.*)  K: (.*)$", line)
            assert match, line
            x = tuple(
                tuple(int(i) for i in piece[1:-1].split(","))
                for piece in match.group(1).split()
            )
            text_sets.add(x)
        json_sets = {
            tuple(tuple(p) for p in th["x_partition"]) for th in doc["theories"]
        }
        assert text_sets == json_sets
        assert len(json_sets) == 4

    def test_json_reverifies(self, capsys):
        """Theories in the report can be rebuilt from their x_partition."""
        code, out, _ = run(
            capsys, "list", "--group", "frobenius:7:3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        table = GroupSpec.parse("frobenius:7:3").load()
        matrix = sigma_matrix(table)
        assert doc["theory_count"] == len(doc["theories"]) == 5
        for th_doc in doc["theories"]:
            parts = tuple(
                mask_of(p) for p in th_doc["x_partition"] if p != [1])
            rebuilt = create_kappa(matrix, parts)
            assert isinstance(rebuilt, SuperTheory)
            assert [list(p) for p in rebuilt.k_indices()] == th_doc["k_partition"]

    def test_csv_not_offered(self, capsys):
        code, _, err = run(
            capsys, "list", "--group", "cyclic:5", "--format", "csv")
        assert code == EXIT_USAGE
        assert "invalid choice" in err

    def test_repeated_group_rejected(self, capsys):
        code, _, err = run(
            capsys, "list", "--group", "cyclic:5", "--group", "cyclic:7")
        assert code == EXIT_USAGE
        assert "once" in err


class TestBadparts:
    @pytest.mark.parametrize("spec,count", [
        ("cyclic:11", 990),
        ("cyclic:10", 376),
        ("dihedral:14", 144),
        ("dihedral:17", 480),
    ])
    def test_counts(self, capsys, spec, count):
        code, out, _ = run(capsys, "badparts", "--group", spec)
        assert code == EXIT_OK
        assert f"bad_parts={count} " in out

    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "badparts", "--group", "cyclic:13", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bad_part_count"] == 4020
        assert doc["subset_count"] == 4095
        assert doc["alpha"] == {"numerator": 268, "denominator": 273}
        assert doc["alpha_percent"] == "98.16"
        assert "parts" not in doc

    def test_full_lists_parts(self, capsys):
        """--full lists each bad part once, in increasing mask order, in JSON
        and in text (a set of D18's parts iterates out of that order)."""
        code, out, _ = run(
            capsys, "badparts", "--group", "dihedral:9", "--full",
            "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["parts"]) == doc["bad_part_count"]
        assert all(1 not in p for p in doc["parts"])
        masks = [mask_of(p) for p in doc["parts"]]
        assert masks == sorted(set(masks))
        code, out, _ = run(capsys, "badparts", "--group", "dihedral:9", "--full")
        assert code == EXIT_OK
        listed = [line.strip("{}").split(",") for line in out.splitlines()[1:]]
        assert [mask_of(int(i) for i in p) for p in listed] == masks

    @pytest.mark.parametrize("spec", ["cyclic:13", "dihedral:23", "frobenius:19:3"])
    def test_count_holds_no_set_unless_full(self, capsys, monkeypatch, spec):
        """Without --full the parts are counted, not held in a set, and the
        summary is the same as with --full, in text and in JSON."""
        full = {}
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "badparts", "--group", spec, "--full", "--format", fmt)
            assert code == EXIT_OK
            full[fmt] = out
        monkeypatch.setattr(supchar.cli, "find_bad_parts", None)
        code, out, _ = run(capsys, "badparts", "--group", spec)
        assert code == EXIT_OK
        assert out == full["text"].splitlines(keepends=True)[0]
        code, out, _ = run(capsys, "badparts", "--group", spec, "--format", "json")
        doc = json.loads(full["json"])
        del doc["parts"]
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_everything_bad_renders_100(self, capsys):
        code, out, _ = run(capsys, "badparts", "--group", "cyclic:2")
        assert code == EXIT_OK
        assert "bad_parts=1 subsets=1 alpha=100.00%" in out

    def test_trivial_group(self, capsys):
        code, out, _ = run(capsys, "badparts", "--group", "cyclic:1")
        assert code == EXIT_OK
        assert "bad_parts=0" in out
        code, out, _ = run(capsys, "badparts", "--group", "cyclic:1", "--full",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["parts"] == []


class TestBench:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--group", "cyclic:5", "--group", "cyclic:6",
            "--format", "csv", "--repeats", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == ",".join(BENCH_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[:4] == ["5", "Z5", "3", "12"]
        assert first[4] == "80.00"
        assert float(first[5]) >= 0 and float(first[6]) >= 0

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--group", "dihedral:5", "--format", "json",
            "--repeats", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["repeats"] == 2
        assert len(doc["rows"]) == 1
        row = doc["rows"][0]
        assert row["group"] == "D10" and row["theories"] == 3
        assert set(row) == set(BENCH_COLUMNS)

    def test_single_mode_leaves_blanks(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--group", "cyclic:6", "--mode", "first",
            "--format", "json", "--repeats", "1")
        assert code == EXIT_OK
        row = json.loads(out)["rows"][0]
        assert row["main_seconds"] == "" and row["bad_parts"] == ""
        assert row["first_seconds"] != "" and row["first_over_main"] == ""

    def test_zero_repeats_rejected(self, capsys):
        code, _, err = run(
            capsys, "bench", "--group", "cyclic:5", "--repeats", "0")
        assert code == EXIT_USAGE
        assert "repeats" in err

    def test_text_table_aligned(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--group", "cyclic:5", "--repeats", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == list(BENCH_COLUMNS)
        assert len(lines) == 2


class TestValidate:
    def test_generator_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "--group", "dihedral:19")
        assert code == EXIT_OK
        assert out == "OK\n"

    def test_saved_table_ok(self, capsys, tmp_path):
        path = tmp_path / "z9.json"
        save_table(cyclic_table(9), path)
        code, out, _ = run(capsys, "validate", "--group", f"file:{path}")
        assert code == EXIT_OK
        assert out == "OK\n"

    def test_violations_reported(self, capsys, tmp_path):
        doc = table_to_document(cyclic_table(7))
        doc["class_sizes"] = [1, 1, 1, 1, 1, 1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--group", f"file:{path}")
        assert code == EXIT_INVALID_TABLE
        assert "sum" in out

    @pytest.mark.parametrize("spec", ["file", "cyclic:9", "frobenius:7:3"])
    def test_validates_once(self, capsys, tmp_path, monkeypatch, spec):
        import supchar.chartab

        path = tmp_path / "z9.json"
        save_table(cyclic_table(9), path)
        calls = []
        real = supchar.chartab.validate_table

        def spy(table):
            calls.append(table.name)
            return real(table)

        monkeypatch.setattr(supchar.chartab, "validate_table", spy)
        monkeypatch.setattr(supchar.cli, "validate_table", spy)
        group = f"file:{path}" if spec == "file" else spec
        code, out, _ = run(capsys, "validate", "--group", group)
        assert (code, out) == (EXIT_OK, "OK\n")
        assert len(calls) == 1

    def test_json_format_not_offered(self, capsys):
        code, _, err = run(
            capsys, "validate", "--group", "cyclic:5", "--format", "json")
        assert code == EXIT_USAGE
        assert "invalid choice" in err


class TestExitCodes:
    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "count", "--group", "klein:4")
        assert code == EXIT_USAGE
        assert "klein" in err

    def test_size_limit_cyclic(self, capsys):
        code, _, err = run(capsys, "count", "--group", "cyclic:65")
        assert code == EXIT_SIZE_LIMIT

    def test_size_limit_scan(self, capsys):
        for command in ("count", "badparts"):
            code, _, err = run(capsys, command, "--group", "cyclic:30")
            assert code == EXIT_SIZE_LIMIT
            assert f"limit is {MAX_SCAN_CLASSES} classes" in err

    def test_size_limit_root_order(self, capsys):
        """63 classes, within the class limit, but root order 37,086."""
        code, out, err = run(capsys, "validate", "--group", "frobenius:883:42")
        assert code == EXIT_SIZE_LIMIT
        assert out == ""
        assert "root order 37086" in err

    def test_size_limit_first_mode(self, capsys):
        code, _, err = run(
            capsys, "count", "--group", "cyclic:22", "--mode", "first")
        assert code == EXIT_SIZE_LIMIT
        assert f"limit is {MAX_CODEWORD_LENGTH}" in err

    def test_size_limit_first_mode_boundary(self):
        """One class past the limit, a first-mode search of Bell(15)
        partitions (about an hour) is refused at once."""
        classes = MAX_CODEWORD_LENGTH + 2
        proc = subprocess.run(
            [sys.executable, "-m", "supchar", "count", "--group",
             f"cyclic:{classes}", "--mode", "first"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_SIZE_LIMIT
        assert proc.stdout == ""
        assert f"partitions of {classes - 1} elements" in proc.stderr
        assert f"limit is {MAX_CODEWORD_LENGTH}" in proc.stderr

    def test_size_limit_both_modes_refused_before_main(self, capsys, monkeypatch):
        """--mode both runs first before main, so a table past first's limit
        is refused without a main search."""
        modes = []

        def recording(table, mode="main"):
            modes.append(mode)
            return find_supertheories(table, mode)

        monkeypatch.setattr(supchar.cli, "find_supertheories", recording)
        group = f"cyclic:{MAX_CODEWORD_LENGTH + 2}"
        for argv in (["count", "--group", group, "--mode", "both"],
                     ["bench", "--group", group, "--repeats", "1"]):
            modes.clear()
            code, _, err = run(capsys, *argv)
            assert code == EXIT_SIZE_LIMIT
            assert f"limit is {MAX_CODEWORD_LENGTH}" in err
            assert modes == ["first"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "count", "--group", f"file:{tmp_path}/absent.json")
        assert code == EXIT_IO

    def test_corrupt_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "count", "--group", f"file:{path}")
        assert code == EXIT_INVALID_TABLE

    def test_invalid_frobenius_parameters(self, capsys):
        code, _, err = run(capsys, "count", "--group", "frobenius:6:2")
        assert code == EXIT_USAGE

    def test_threads_flag_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--group", "cyclic:5", "--threads", "1")
        assert code == EXIT_USAGE
        assert "--threads" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "explode", "--group", "cyclic:5")
        assert code == EXIT_USAGE

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "count", "--group", "cyclic:5",
            "--output", f"{tmp_path}/no/such/dir/x.txt")
        assert code == EXIT_IO


class TestOutput:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "count", "--group", "cyclic:7", "--format", "json",
            "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["theory_count"] == 4

    def test_file_spec_round_trip(self, capsys, tmp_path):
        path = tmp_path / "d14.json"
        save_table(dihedral_table(7), path)
        code, out, _ = run(capsys, "count", "--group", f"file:{path}")
        assert code == EXIT_OK
        assert out == "3\n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "supchar", "count", "--group", "cyclic:7"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "4\n"

    def test_module_scan_size_limit(self):
        """A legal 64-class table is refused before its 2^63-part scan."""
        proc = subprocess.run(
            [sys.executable, "-m", "supchar", "count", "--group", "cyclic:64"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_SIZE_LIMIT
        assert proc.stdout == ""
        assert f"limit is {MAX_SCAN_CLASSES} classes" in proc.stderr

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "supchar", "count"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
