"""Weighted character rows, part sums, and bad-part detection."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import supchar.sigma
from supchar.chartab import cyclic_table, dihedral_table, frobenius_pq_table
from supchar.exactnum import Cyclotomic, root_of_unity
from supchar.sigma import (
    BadPartSet,
    alpha_ratio,
    find_bad_parts,
    indices_of,
    is_bad_part,
    mask_of,
    sigma_matrix,
)

SMALL_TABLES = [
    cyclic_table(2), cyclic_table(3), cyclic_table(4), cyclic_table(5),
    cyclic_table(6), dihedral_table(3), dihedral_table(4), dihedral_table(5),
    dihedral_table(7), frobenius_pq_table(5, 2), frobenius_pq_table(7, 2),
]


def scale_nontrivial_rows(t, factor):
    """The table with every non-trivial character row multiplied by factor
    (no longer a character table, so it is left unvalidated)."""
    rows = (t.values[0],) + tuple(
        tuple(v.scale(factor) for v in row) for row in t.values[1:])
    return dataclasses.replace(t, values=rows)


def bad_parts_one_by_one(m):
    return {
        mask_of(combo)
        for r in range(1, m.n)
        for combo in itertools.combinations(range(2, m.n + 1), r)
        if is_bad_part(m, mask_of(combo))
    }


class TestMasks:
    def test_round_trip(self):
        assert mask_of([2, 4, 5]) == 0b11010
        assert indices_of(0b11010) == (2, 4, 5)
        assert indices_of(mask_of([1])) == (1,)

    def test_indices_sorted(self):
        assert indices_of(mask_of([9, 3, 7])) == (3, 7, 9)


class TestSigmaMatrix:
    def test_cyclic3_rows(self):
        m = sigma_matrix(cyclic_table(3))
        z = lambda k: root_of_unity(3, k)
        assert m.base[0] == (z(0), z(0), z(0))
        assert m.base[1] == (z(0), z(1), z(2))
        assert m.base[2] == (z(0), z(2), z(1))

    def test_first_column_is_degree_squared(self):
        for t in [cyclic_table(5), dihedral_table(7), frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            for i in range(t.n):
                assert m.base[i][0] == t.degree(i + 1) ** 2

    def test_dihedral_degree_two_row_starts_at_four(self):
        t = dihedral_table(7)
        m = sigma_matrix(t)
        row = m.base[2]  # first degree-2 character
        assert row[0] == 4

    def test_column_sums(self):
        """Summing all weighted rows gives the regular character."""
        for t in SMALL_TABLES:
            m = sigma_matrix(t)
            for j in range(t.n):
                acc = Cyclotomic.zero(t.root_order)
                for i in range(t.n):
                    acc = acc + m.base[i][j]
                assert acc == (t.order if j == 0 else 0)


class TestSigmaOfPart:
    def test_full_nontrivial_part(self):
        for t in [cyclic_table(5), dihedral_table(9), frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            vec = m.sigma_values(mask_of(range(2, t.n + 1)))
            assert vec[0] == t.order - 1
            assert all(v == -1 for v in vec[1:])

    def test_trivial_part(self):
        m = sigma_matrix(cyclic_table(6))
        assert all(v == 1 for v in m.sigma_values(mask_of([1])))

    def test_cyclic3_pair(self):
        m = sigma_matrix(cyclic_table(3))
        vec = m.sigma_values(mask_of([2, 3]))
        assert [str(v) for v in vec] == ["2", "-1", "-1"]

    def test_empty_part_rejected(self):
        m = sigma_matrix(cyclic_table(3))
        with pytest.raises(ValueError):
            m.sigma_values(0)

    def test_out_of_range_rejected(self):
        m = sigma_matrix(cyclic_table(3))
        with pytest.raises(ValueError):
            m.sigma_values(mask_of([4]))

    def test_partition_rows_sum_to_regular(self):
        rng = random.Random(7)
        for t in [cyclic_table(7), dihedral_table(8)]:
            m = sigma_matrix(t)
            for _ in range(5):
                labels = [rng.randrange(3) for _ in range(t.n)]
                parts = {}
                for idx, lab in enumerate(labels, start=1):
                    parts.setdefault(lab, []).append(idx)
                total = [Cyclotomic.zero(t.root_order)] * t.n
                for part in parts.values():
                    vec = m.sigma_values(mask_of(part))
                    total = [a + b for a, b in zip(total, vec)]
                assert total[0] == t.order
                assert all(v == 0 for v in total[1:])


class TestIsBadPart:
    def test_cyclic13_singleton(self):
        m = sigma_matrix(cyclic_table(13))
        assert is_bad_part(m, mask_of([2]))
        assert is_bad_part(m, mask_of([3]))

    def test_full_part_never_bad(self):
        for t in [cyclic_table(5), dihedral_table(7), frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            assert not is_bad_part(m, mask_of(range(2, t.n + 1)))

    def test_cyclic7_residue_part_not_bad(self):
        m = sigma_matrix(cyclic_table(7))
        assert not is_bad_part(m, mask_of([2, 3, 5]))

    def test_rejects_trivial_index(self):
        m = sigma_matrix(cyclic_table(5))
        with pytest.raises(ValueError):
            is_bad_part(m, mask_of([1, 2]))

    def test_rejects_empty(self):
        m = sigma_matrix(cyclic_table(5))
        with pytest.raises(ValueError):
            is_bad_part(m, 0)

    def test_n2_vacuous(self):
        m = sigma_matrix(cyclic_table(2))
        assert is_bad_part(m, mask_of([2]))

    def test_semantic_oracle_small(self):
        """Bad iff no candidate class subset of size >= 2 has constant sigma."""
        for t in SMALL_TABLES:
            if t.n > 6:
                continue
            m = sigma_matrix(t)
            others = list(range(2, t.n + 1))
            for r in range(1, len(others) + 1):
                for combo in itertools.combinations(others, r):
                    part = mask_of(combo)
                    vec = m.sigma_values(part)
                    constant_somewhere = False
                    for size in range(2, len(others) + 1):
                        for cols in itertools.combinations(others, size):
                            vals = {vec[j - 1] for j in cols}
                            if len(vals) == 1:
                                constant_somewhere = True
                                break
                        if constant_somewhere:
                            break
                    assert is_bad_part(m, part) == (not constant_somewhere), (
                        t.name, combo)


class TestFindBadParts:
    @pytest.mark.parametrize("t,count", [
        (cyclic_table(13), 4020),
        (cyclic_table(11), 990),
        (cyclic_table(10), 376),
        (dihedral_table(14), 144),
        (dihedral_table(17), 480),
        (dihedral_table(19), 1008),
        (dihedral_table(23), 4092),
    ])
    def test_pinned_counts(self, t, count):
        assert len(find_bad_parts(t)) == count

    def test_matches_per_part_filter(self):
        """The scan agrees with testing each subset independently, also on
        Fraction coefficients and on ints beyond 64 bits."""
        base = SMALL_TABLES + [cyclic_table(8), dihedral_table(9)]
        rescaled = [cyclic_table(7), dihedral_table(9), frobenius_pq_table(7, 3),
                    cyclic_table(10)]
        tables = (base + [scale_nontrivial_rows(t, Fraction(1, 3)) for t in rescaled]
                  + [scale_nontrivial_rows(t, 2 ** 70) for t in rescaled])
        for t in tables:
            m = sigma_matrix(t)
            assert set(find_bad_parts(t, matrix=m).masks) == bad_parts_one_by_one(m)

    def test_key_collisions_are_rechecked_exactly(self, monkeypatch):
        """With every uint64 key equal, each part goes through the exact
        pair recheck and, when the pair differs, through is_bad_part."""
        keys = supchar.sigma._class_keys

        def colliding_keys(m):
            hashed, exact = keys(m)
            return np.zeros_like(hashed), exact

        fallbacks = []

        def counted_is_bad_part(m, mask):
            fallbacks.append(mask)
            return is_bad_part(m, mask)

        monkeypatch.setattr(supchar.sigma, "_class_keys", colliding_keys)
        monkeypatch.setattr(supchar.sigma, "is_bad_part", counted_is_bad_part)
        for t in [cyclic_table(3), cyclic_table(7), dihedral_table(9),
                  frobenius_pq_table(7, 3), cyclic_table(10)]:
            m = sigma_matrix(t)
            fallbacks.clear()
            found = find_bad_parts(t, matrix=m).masks
            assert found == bad_parts_one_by_one(m)
            assert found <= set(fallbacks)

    def test_membership_and_iteration(self):
        bad = find_bad_parts(cyclic_table(7))
        masks = list(bad)
        assert masks == sorted(masks)
        assert all(mask in bad for mask in masks)
        assert len(bad) == bad.count == len(masks)

    def test_every_member_is_bad(self):
        t = dihedral_table(9)
        m = sigma_matrix(t)
        for mask in find_bad_parts(t, matrix=m):
            assert is_bad_part(m, mask)


class TestAlphaRatio:
    def test_cyclic13(self):
        assert alpha_ratio(cyclic_table(13)) == Fraction(4020, 4095)

    def test_dihedral46(self):
        assert alpha_ratio(dihedral_table(23)) == Fraction(4092, 4095)

    def test_frobenius73_near_26_percent(self):
        a = alpha_ratio(frobenius_pq_table(7, 3))
        assert a == Fraction(4, 15)
        assert abs(100 * a - 26) <= 1

    def test_cyclic2_is_one(self):
        assert alpha_ratio(cyclic_table(2)) == 1

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            alpha_ratio(cyclic_table(1))

    def test_reuses_precomputed_set(self):
        t = cyclic_table(10)
        bad = find_bad_parts(t)
        assert alpha_ratio(t, bad=bad) == Fraction(len(bad), 2 ** 9 - 1)
