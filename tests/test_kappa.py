"""Forced class partitions, failure kinds, and independent re-verification."""

import itertools

import pytest

from supchar.chartab import CharacterTable, cyclic_table, dihedral_table, frobenius_pq_table
from supchar.exactnum import Cyclotomic
from supchar.kappa import (
    TOO_FEW_PARTS,
    TOO_MANY_PARTS,
    KappaFailure,
    SuperTheory,
    create_kappa,
    supercharacter_values,
    verify_theory,
)
from supchar.sigma import indices_of, mask_of, sigma_matrix


def all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], tuple(items[1:])
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def singleton_parts(n):
    return tuple(mask_of([j]) for j in range(2, n + 1))


class TestCreateKappa:
    def test_cyclic3_pair(self):
        m = sigma_matrix(cyclic_table(3))
        th = create_kappa(m, (mask_of([2, 3]),))
        assert isinstance(th, SuperTheory)
        assert th.k_indices() == ((1,), (2, 3))
        assert [[str(v) for v in row] for row in th.st] == [["1", "1"], ["2", "-1"]]

    def test_cyclic7_residue_partition(self):
        m = sigma_matrix(cyclic_table(7))
        th = create_kappa(m, (mask_of([2, 3, 5]), mask_of([4, 6, 7])))
        assert isinstance(th, SuperTheory)
        assert th.k_indices() == ((1,), (2, 3, 5), (4, 6, 7))

    def test_cyclic13_bad_singleton_aborts(self):
        m = sigma_matrix(cyclic_table(13))
        res = create_kappa(m, (mask_of([2]), mask_of(range(3, 14))))
        assert isinstance(res, KappaFailure)
        assert res.reason == TOO_MANY_PARTS
        assert res.column == 4
        # certificate: on classes 2..column alone the parts already force
        # more class parts than allowed
        vec = m.sigma_values(mask_of([2]))
        prefix = vec[1:res.column]
        assert len(set(prefix)) > 2

    def test_abort_column_certificates(self):
        """Every reported column certifies the overflow on the class prefix."""
        for t in [cyclic_table(7), cyclic_table(8), dihedral_table(7)]:
            m = sigma_matrix(t)
            elements = tuple(range(2, t.n + 1))
            for partition in all_partitions(elements):
                parts = tuple(mask_of(p) for p in partition)
                res = create_kappa(m, parts)
                if not isinstance(res, KappaFailure) or res.reason != TOO_MANY_PARTS:
                    continue
                assert 3 <= res.column <= t.n
                rows = [m.sigma_values(p) for p in parts]
                distinct = {
                    tuple(row[j - 1] for row in rows)
                    for j in range(2, res.column + 1)
                }
                assert len(distinct) > len(parts)

    def test_all_singletons_always_succeed(self):
        for t in [cyclic_table(5), cyclic_table(13), dihedral_table(9),
                  frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            th = create_kappa(m, singleton_parts(t.n))
            assert isinstance(th, SuperTheory)
            assert th.r == t.n

    def test_full_part_gives_coarsest(self):
        for t in [cyclic_table(6), dihedral_table(8)]:
            m = sigma_matrix(t)
            th = create_kappa(m, (mask_of(range(2, t.n + 1)),))
            assert isinstance(th, SuperTheory)
            assert th.k_indices() == ((1,), tuple(range(2, t.n + 1)))
            assert str(th.st[1][0]) == str(t.order - 1)
            assert str(th.st[1][1]) == "-1"

    def test_too_few_parts_synthetic(self):
        """Rows that separate nothing leave the class side one part short."""
        one = Cyclotomic.one(1)
        flat = CharacterTable(
            name="flat", order=3, n=3, root_order=1,
            class_sizes=(1, 1, 1),
            values=((one, one, one),) * 3,
        )
        m = sigma_matrix(flat)
        res = create_kappa(m, (mask_of([2]), mask_of([3])))
        assert isinstance(res, KappaFailure)
        assert res.reason == TOO_FEW_PARTS
        assert res.column is None

    def test_rejects_non_partition(self):
        m = sigma_matrix(cyclic_table(4))
        with pytest.raises(ValueError):
            create_kappa(m, (mask_of([2]),))  # misses 3, 4
        with pytest.raises(ValueError):
            create_kappa(m, ())

    def test_parts_input_order_irrelevant(self):
        m = sigma_matrix(cyclic_table(7))
        a = create_kappa(m, (mask_of([4, 6, 7]), mask_of([2, 3, 5])))
        b = create_kappa(m, (mask_of([2, 3, 5]), mask_of([4, 6, 7])))
        assert isinstance(a, SuperTheory)
        assert a.encoding() == b.encoding()

    def test_first_st_column_is_degree_square_sums(self):
        for t in [cyclic_table(7), dihedral_table(7), frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            th = create_kappa(m, (mask_of(range(2, t.n + 1)),))
            sums = [
                sum(t.degree(i) ** 2 for i in indices_of(p)) for p in th.x_parts
            ]
            assert [row[0] for row in th.st] == sums

    def test_uniqueness_against_level_sets(self):
        """Success returns the coarsest partition into equal-sigma classes."""
        for t in [cyclic_table(7), cyclic_table(8), dihedral_table(7),
                  frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            elements = tuple(range(2, t.n + 1))
            for partition in all_partitions(elements):
                parts = tuple(mask_of(p) for p in partition)
                res = create_kappa(m, parts)
                if not isinstance(res, SuperTheory):
                    continue
                rows = [m.sigma_values(p) for p in parts]
                buckets = {}
                for j in range(2, t.n + 1):
                    key = tuple(row[j - 1] for row in rows)
                    buckets.setdefault(key, []).append(j)
                direct = {(1,)} | {tuple(v) for v in buckets.values()}
                assert set(res.k_indices()) == direct

    def test_failure_completeness_small(self):
        """Fails iff no equal-size class partition is consistent (n <= 6)."""
        for t in [cyclic_table(4), cyclic_table(5), cyclic_table(6),
                  dihedral_table(3), dihedral_table(5), frobenius_pq_table(5, 2)]:
            m = sigma_matrix(t)
            elements = tuple(range(2, t.n + 1))
            for partition in all_partitions(elements):
                parts = tuple(mask_of(p) for p in partition)
                res = create_kappa(m, parts)
                rows = [m.sigma_values(p) for p in parts]
                consistent_exists = False
                for kp in all_partitions(elements):
                    if len(kp) != len(parts):
                        continue
                    if all(
                        len({row[j - 1] for j in kpart}) == 1
                        for row in rows
                        for kpart in kp
                    ):
                        consistent_exists = True
                        break
                assert isinstance(res, SuperTheory) == consistent_exists, (
                    t.name, partition)


class TestVerifyTheory:
    def test_finest_verifies(self):
        t = cyclic_table(5)
        th = create_kappa(sigma_matrix(t), singleton_parts(5))
        assert verify_theory(t, th)

    def test_residue_theory_verifies(self):
        t = cyclic_table(7)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 3, 5]), mask_of([4, 6, 7])))
        assert verify_theory(t, th)

    def test_swapped_class_parts_fail(self):
        t = cyclic_table(7)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 3, 5]), mask_of([4, 6, 7])))
        broken = SuperTheory(
            x_parts=th.x_parts,
            k_parts=(th.k_parts[0], mask_of([2, 3, 4]), mask_of([5, 6, 7])),
            st=th.st,
        )
        assert not verify_theory(t, broken)

    def test_tampered_table_fails(self):
        t = cyclic_table(3)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 3]),))
        wrong = tuple(
            tuple(v + 1 for v in row) if i == 1 else row
            for i, row in enumerate(th.st)
        )
        assert not verify_theory(t, SuperTheory(th.x_parts, th.k_parts, wrong))

    def test_size_mismatch_fails(self):
        t = cyclic_table(4)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 4]), mask_of([3])))
        assert isinstance(th, SuperTheory)
        broken = SuperTheory(
            x_parts=th.x_parts,
            k_parts=(1, mask_of([2, 3, 4])),
            st=th.st,
        )
        assert not verify_theory(t, broken)

    def test_missing_identity_class_part_fails(self):
        t = cyclic_table(4)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 4]), mask_of([3])))
        broken = SuperTheory(
            x_parts=th.x_parts,
            k_parts=(mask_of([1, 3]), mask_of([2, 4]), mask_of([3])),
            st=th.st,
        )
        assert not verify_theory(t, broken)

    def test_incomplete_cover_fails(self):
        t = cyclic_table(4)
        th = create_kappa(sigma_matrix(t), (mask_of([2, 4]), mask_of([3])))
        broken = SuperTheory(
            x_parts=(1, mask_of([2, 4])),
            k_parts=th.k_parts,
            st=th.st,
        )
        assert not verify_theory(t, broken)

    def test_direct_values_route(self):
        """supercharacter_values recomputes sigma rows from raw table entries."""
        t = dihedral_table(7)
        m = sigma_matrix(t)
        for part in [mask_of([2]), mask_of([3, 4]), mask_of(range(2, 6))]:
            assert supercharacter_values(t, part) == m.sigma_values(part)
