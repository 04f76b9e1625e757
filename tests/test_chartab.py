"""Generator, serialization, and validation tests for character tables."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from supchar.chartab import (
    MAX_CLASSES,
    CharacterTable,
    SizeLimitError,
    TableFormatError,
    TableValidationError,
    cyclic_table,
    dihedral_table,
    frobenius_pq_table,
    integer_coefficients,
    load_table,
    load_table_file,
    save_table,
    table_to_document,
    validate_table,
)
from supchar.chartab import _orthogonality_defect
from supchar.exactnum import Cyclotomic, root_of_unity

# every generated table the tier-1 tests build, by family and parameters
GENERATED = (
    [("cyclic", (m,)) for m in list(range(1, 25)) + [40, 64]]
    + [("dihedral", (m,)) for m in list(range(2, 32)) + [40, 47, 60]]
    + [("frobenius", pq) for pq in [(5, 2), (7, 2), (7, 3), (11, 2), (11, 5),
                                    (13, 2), (13, 3), (19, 3), (23, 11), (31, 5),
                                    (61, 5)]]
)
_MAKERS = {"cyclic": cyclic_table, "dihedral": dihedral_table, "frobenius": frobenius_pq_table}


def _reference_orthogonality(t):
    """Row-orthogonality violations by Cyclotomic products, one pair at a time."""
    out = []
    conj_rows = [tuple(v.conjugate() for v in row) for row in t.values]
    for a in range(t.n):
        for b in range(a, t.n):
            acc = Cyclotomic.zero(t.root_order)
            for j in range(t.n):
                acc = acc + (t.values[a][j] * conj_rows[b][j]).scale(t.class_sizes[j])
            if acc != (t.order if a == b else 0):
                out.append(f"row orthogonality fails for characters ({a + 1}, {b + 1})")
    return out


def assert_matches_reference(t):
    """validate_table's orthogonality messages are the reference's, in order, and last."""
    got = validate_table(t)
    rest = [v for v in got if not v.startswith("row orthogonality")]
    assert got == rest + _reference_orthogonality(t)
    return got


def _with_rows(t, rows):
    return dataclasses.replace(t, values=tuple(tuple(r) for r in rows))


class TestCyclicTable:
    def test_order_one(self):
        t = cyclic_table(1)
        assert t.n == 1 and t.order == 1
        assert t.values[0][0] == 1
        assert t.class_sizes == (1,)

    def test_order_three_rows(self):
        t = cyclic_table(3)
        z = lambda k: root_of_unity(3, k)
        assert t.values[0] == (z(0), z(0), z(0))
        assert t.values[1] == (z(0), z(1), z(2))
        assert t.values[2] == (z(0), z(2), z(1))

    def test_order_thirteen_validates(self):
        t = cyclic_table(13)
        assert t.n == 13
        assert validate_table(t) == []

    def test_metadata(self):
        t = cyclic_table(8)
        assert t.name == "Z8"
        assert t.root_order == 8
        assert t.class_sizes == tuple([1] * 8)

    def test_bounds(self):
        with pytest.raises(ValueError):
            cyclic_table(0)
        with pytest.raises(SizeLimitError):
            cyclic_table(MAX_CLASSES + 1)
        assert cyclic_table(MAX_CLASSES).n == MAX_CLASSES


class TestDihedralTable:
    def test_order_fourteen_classes(self):
        assert dihedral_table(7).n == 5

    def test_order_thirtyeight_classes(self):
        assert dihedral_table(19).n == 11

    def test_klein_four(self):
        t = dihedral_table(2)
        assert t.n == 4 and t.order == 4
        assert all(t.degree(i) == 1 for i in range(1, 5))

    def test_odd_shape(self):
        t = dihedral_table(9)
        assert t.n == 6
        assert t.order == 18
        assert t.class_sizes == (1, 2, 2, 2, 2, 9)
        assert t.root_order == 18
        degrees = [t.degree(i) for i in range(1, 7)]
        assert degrees == [1, 1, 2, 2, 2, 2]

    def test_even_shape(self):
        t = dihedral_table(14)
        assert t.n == 10
        assert t.class_sizes == (1, 2, 2, 2, 2, 2, 2, 1, 7, 7)
        assert t.root_order == 14
        degrees = [t.degree(i) for i in range(1, 11)]
        assert degrees == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]

    def test_bounds(self):
        with pytest.raises(ValueError):
            dihedral_table(1)
        with pytest.raises(SizeLimitError):
            dihedral_table(61)
        assert dihedral_table(60).n == 33

    @pytest.mark.parametrize("m", list(range(2, 32)) + [40, 47, 60])
    def test_all_validate(self, m):
        assert validate_table(dihedral_table(m)) == []


class TestFrobeniusTable:
    def test_seven_three_classes(self):
        t = frobenius_pq_table(7, 3)
        assert t.n == 5
        assert validate_table(t) == []

    def test_thirteen_three(self):
        t = frobenius_pq_table(13, 3)
        assert t.n == 7
        assert sum(t.degree(i) ** 2 for i in range(1, 8)) == 39

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            frobenius_pq_table(7, 4)  # 4 does not divide 6
        with pytest.raises(ValueError):
            frobenius_pq_table(9, 2)  # 9 not prime
        with pytest.raises(ValueError):
            frobenius_pq_table(5, 1)

    def test_metadata(self):
        t = frobenius_pq_table(11, 5)
        assert t.name == "T(11,5)"
        assert t.order == 55
        assert t.root_order == 55
        assert t.n == 1 + 2 + 4
        assert t.class_sizes == (1, 5, 5, 11, 11, 11, 11)

    @pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (11, 2), (11, 5),
                                     (13, 2), (13, 3), (19, 3), (23, 11), (31, 5),
                                     (61, 5)])
    def test_all_validate(self, p, q):
        assert validate_table(frobenius_pq_table(p, q)) == []

    def test_five_two_is_dihedral_ten(self):
        """The order-10 Frobenius group is D10: same table up to permutations."""
        a = frobenius_pq_table(5, 2)
        b = dihedral_table(5)
        assert a.n == b.n == 4
        assert a.root_order == b.root_order == 10
        assert sorted(a.class_sizes) == sorted(b.class_sizes)
        n = a.n

        def matches():
            for cols in itertools.permutations(range(n)):
                if cols[0] != 0:
                    continue
                if any(a.class_sizes[j] != b.class_sizes[cols[j]] for j in range(n)):
                    continue
                for rows in itertools.permutations(range(n)):
                    if rows[0] != 0:
                        continue
                    if all(
                        a.values[i][j] == b.values[rows[i]][cols[j]]
                        for i in range(n)
                        for j in range(n)
                    ):
                        return True
            return False

        assert matches()


class TestValidation:
    @pytest.mark.parametrize("m", list(range(1, 25)) + [40, 64])
    def test_cyclic_all_validate(self, m):
        assert validate_table(cyclic_table(m)) == []

    def test_class_size_sum_violation(self):
        t = cyclic_table(3)
        broken = CharacterTable(
            name=t.name, order=t.order, n=t.n, root_order=t.root_order,
            class_sizes=(1, 1, 0), values=t.values,
        )
        violations = validate_table(broken)
        assert any("sum" in v for v in violations)

    def test_duplicate_rows_orthogonality_violation(self):
        t = cyclic_table(3)
        values = (t.values[0], t.values[1], t.values[1])
        broken = CharacterTable(
            name=t.name, order=t.order, n=t.n, root_order=t.root_order,
            class_sizes=t.class_sizes, values=values,
        )
        violations = validate_table(broken)
        assert any("orthogonality" in v for v in violations)
        assert any("2" in v and "3" in v for v in violations)

    def test_wrong_order_field(self):
        doc = table_to_document(cyclic_table(3))
        doc["order"] = 7
        with pytest.raises(TableValidationError) as exc:
            load_table(doc)
        assert exc.value.violations

    def test_nontrivial_first_row(self):
        t = cyclic_table(3)
        values = (t.values[1], t.values[0], t.values[2])
        broken = CharacterTable(
            name=t.name, order=t.order, n=t.n, root_order=t.root_order,
            class_sizes=t.class_sizes, values=values,
        )
        assert any("trivial" in v for v in validate_table(broken))

    def test_second_orthogonality_generated(self):
        """Column orthogonality follows on valid tables; spot-check directly."""
        for t in [cyclic_table(6), dihedral_table(7), dihedral_table(8),
                  frobenius_pq_table(7, 3)]:
            for a in range(1, t.n + 1):
                for b in range(1, t.n + 1):
                    acc = Cyclotomic.zero(t.root_order)
                    for i in range(1, t.n + 1):
                        acc = acc + t.value(i, a) * t.value(i, b).conjugate()
                    if a == b:
                        assert acc == Cyclotomic.constant(
                            t.root_order, t.order // t.class_sizes[a - 1]
                        )
                    else:
                        assert acc == Cyclotomic.zero(t.root_order)

    def test_degree_square_sum(self):
        for t in [cyclic_table(9), dihedral_table(11), frobenius_pq_table(13, 3)]:
            assert sum(t.degree(i) ** 2 for i in range(1, t.n + 1)) == t.order


class TestOrthogonalityReference:
    """The integer-matmul check against the Cyclotomic loop it replaced."""

    @pytest.mark.parametrize("family,args", GENERATED,
                             ids=[f"{f}{a}" for f, a in GENERATED])
    def test_generated(self, family, args):
        t = _MAKERS[family](*args)
        assert assert_matches_reference(t) == []
        assert _orthogonality_defect(t).dtype == np.int64

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("t", [cyclic_table(12), dihedral_table(15),
                                   frobenius_pq_table(19, 3)], ids=lambda t: t.name)
    def test_column_permutations(self, t, seed):
        cols = list(range(t.n))
        random.Random(seed).shuffle(cols)
        permuted = dataclasses.replace(
            t, class_sizes=tuple(t.class_sizes[j] for j in cols),
            values=tuple(tuple(row[j] for j in cols) for row in t.values))
        assert_matches_reference(permuted)

    @pytest.mark.parametrize("t", [cyclic_table(7), dihedral_table(9), dihedral_table(10),
                                   frobenius_pq_table(7, 3), frobenius_pq_table(13, 3)],
                             ids=lambda t: t.name)
    def test_mutants(self, t):
        rows = [list(r) for r in t.values]
        last = t.n - 1
        bumped = [list(r) for r in rows]
        bumped[last][last] = bumped[last][last] + 1
        mutants = [
            _with_rows(t, bumped),
            _with_rows(t, rows[:2] + [rows[1]] + rows[3:]),
            _with_rows(t, [rows[0], rows[2], rows[1]] + rows[3:]),
            _with_rows(t, [rows[1], rows[0]] + rows[2:]),
            _with_rows(t, rows[:1] + [[v.scale(Fraction(1, 3)) for v in rows[1]]] + rows[2:]),
            dataclasses.replace(t, class_sizes=t.class_sizes[:1] + (t.class_sizes[1] + 1,)
                                + t.class_sizes[2:]),
        ]
        counts = [len(_reference_orthogonality(m)) for m in mutants]
        assert counts[0] > 0 and counts[1] > 0 and counts[2] == counts[3] == 0
        for mutant in mutants:
            assert_matches_reference(mutant)

    @pytest.mark.parametrize("t", [cyclic_table(5), dihedral_table(9), frobenius_pq_table(7, 3)],
                             ids=lambda t: t.name)
    def test_large_entries_take_the_object_path(self, t):
        rows = [list(r) for r in t.values]
        rows[1] = [v.scale(1 << 40) for v in rows[1]]
        scaled = _with_rows(t, rows)
        assert _orthogonality_defect(scaled).dtype == object
        got = assert_matches_reference(scaled)
        assert "row orthogonality fails for characters (2, 2)" in got

    @pytest.mark.parametrize("t", [cyclic_table(5), dihedral_table(9), frobenius_pq_table(7, 3)],
                             ids=lambda t: t.name)
    def test_entries_past_int64_fall_back_to_object(self, t):
        """A lifted coefficient beyond int64 fails the cast to int64, and
        the check runs on Python ints instead."""
        rows = [list(r) for r in t.values]
        rows[1] = [v.scale(1 << 70) for v in rows[1]]
        scaled = _with_rows(t, rows)
        with pytest.raises(OverflowError):
            integer_coefficients(scaled)[0].astype(np.int64)
        assert _orthogonality_defect(scaled).dtype == object
        got = assert_matches_reference(scaled)
        assert "row orthogonality fails for characters (2, 2)" in got

    def test_root_order_mismatch_is_reported(self):
        t = cyclic_table(3)
        rows = [list(r) for r in t.values]
        rows[1][1] = root_of_unity(6, 2)  # zeta_3, stored at root order 6
        got = validate_table(_with_rows(t, rows))
        assert got == ["value at row 2, column 2 has root order 6, not 3"]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        t = cyclic_table(5)
        path = tmp_path / "z5.json"
        save_table(t, path)
        again = load_table_file(path)
        assert again == t
        # and the serialized documents agree byte for byte
        path2 = tmp_path / "z5b.json"
        save_table(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("t", [cyclic_table(7), dihedral_table(6),
                                   dihedral_table(9), frobenius_pq_table(7, 3)])
    def test_round_trip_all_generators(self, t, tmp_path):
        path = tmp_path / "t.json"
        save_table(t, path)
        assert load_table_file(path) == t

    def test_unknown_field_rejected(self):
        doc = table_to_document(cyclic_table(3))
        doc["comment"] = "hello"
        with pytest.raises(TableFormatError):
            load_table(doc)

    def test_missing_field_rejected(self):
        doc = table_to_document(cyclic_table(3))
        del doc["class_sizes"]
        with pytest.raises(TableFormatError):
            load_table(doc)

    def test_non_object_rejected(self):
        with pytest.raises(TableFormatError):
            load_table([1, 2, 3])

    def test_size_limit_in_document(self):
        doc = table_to_document(cyclic_table(3))
        doc["num_classes"] = MAX_CLASSES + 1
        with pytest.raises(SizeLimitError):
            load_table(doc)

    def test_corrupt_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(TableFormatError):
            load_table_file(path)

    def test_bad_term_shape_rejected(self):
        doc = table_to_document(cyclic_table(3))
        doc["characters"][1][1] = [[1, 0, 1]]  # zero denominator
        with pytest.raises(TableFormatError):
            load_table(doc)


class TestAccessors:
    def test_value_and_degree_are_one_based(self):
        t = dihedral_table(7)
        assert t.value(1, 1) == 1
        assert t.degree(3) == 2
        assert t.value(3, 1) == 2

    def test_root_order_convention(self):
        assert cyclic_table(12).root_order == 12
        assert dihedral_table(9).root_order == 18
        assert dihedral_table(10).root_order == 10
        assert frobenius_pq_table(7, 3).root_order == 21
        assert math.lcm(9, 2) == dihedral_table(9).root_order

    def test_immutability(self):
        t = cyclic_table(4)
        with pytest.raises(Exception):
            t.order = 5
