"""Weighted character rows, part sums, and bad-part detection."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import supchar.sigma
from supchar.chartab import (
    MAX_CLASSES,
    CharacterTable,
    SizeLimitError,
    cyclic_table,
    dihedral_table,
    frobenius_pq_table,
    integer_coefficients,
)
from supchar.exactnum import Cyclotomic, root_of_unity
from supchar.kappa import class_side_builder, supercharacter_values
from supchar.sigma import (
    MAX_SCAN_CLASSES,
    alpha_ratio,
    count_bad_parts,
    find_bad_parts,
    indices_of,
    is_bad_part,
    mask_of,
    scan_parts,
    sigma_matrix,
)
from supchar.setparts import er_partitions, walk_pool

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


def scale_row(t, row, factor):
    """The table with character row `row` (1-based) multiplied by factor,
    unvalidated like scale_nontrivial_rows."""
    rows = tuple(tuple(v.scale(factor) for v in values) if i == row - 1 else values
                 for i, values in enumerate(t.values))
    return dataclasses.replace(t, values=rows)


# tables with plain, Fraction and beyond-64-bit coefficients
_RESCALED = [cyclic_table(7), dihedral_table(9), frobenius_pq_table(7, 3), cyclic_table(10)]
SCAN_TABLES = (
    SMALL_TABLES + [cyclic_table(8), dihedral_table(9)]
    + [scale_nontrivial_rows(t, Fraction(1, 3)) for t in _RESCALED]
    + [scale_nontrivial_rows(t, 2 ** 70) for t in _RESCALED]
)


# the join's splits under test, as the number of low rows out of k: one row,
# the default ceil(k/2), and k - 1, which leaves one high row
SPLITS = (lambda k: 1, supchar.sigma._low_rows, lambda k: k - 1)
COLLISION_TABLES = [cyclic_table(3), cyclic_table(7), dihedral_table(9),
                    frobenius_pq_table(7, 3), cyclic_table(10)]


def every_split(monkeypatch):
    """Sets the join's split to each of SPLITS in turn."""
    for index, split in enumerate(SPLITS):
        monkeypatch.setattr(supchar.sigma, "_low_rows", split)
        yield index


def collide_every_key(monkeypatch):
    """Makes every uint64 class key 0, so that every part matches on every
    class pair, and returns the set of (part code, a, b) matches that then
    reach the exact recheck.  The recheck then takes 7 matches at a time, so
    its chunks also split the runs of equal keys."""
    keys = supchar.sigma._class_keys
    exact_matches = supchar.sigma._exact_matches

    def colliding_keys(m):
        hashed, exact = keys(m)
        return np.zeros_like(hashed), exact

    reached = set()

    def counted_exact_matches(low_exact, high_exact, b, a, low_part, high_part):
        low_bits = len(low_exact).bit_length() - 1
        codes = low_part | high_part << low_bits
        reached.update((code, a_, b) for code, a_ in zip(codes.tolist(), a.tolist()))
        return exact_matches(low_exact, high_exact, b, a, low_part, high_part)

    monkeypatch.setattr(supchar.sigma, "_class_keys", colliding_keys)
    monkeypatch.setattr(supchar.sigma, "_exact_matches", counted_exact_matches)
    monkeypatch.setattr(supchar.sigma, "_JOIN_CHUNK", 7)
    return reached


def keep_two_key_bits(monkeypatch):
    """Makes each uint64 class key keep two bits of its hash (times 2^62,
    still linear mod 2^64), so that keys collide on some classes only."""
    keys = supchar.sigma._class_keys

    def two_bit_keys(m):
        hashed, exact = keys(m)
        return hashed << np.uint64(62), exact

    monkeypatch.setattr(supchar.sigma, "_class_keys", two_bit_keys)


def every_match(m):
    """Every (part code, a, b) with a < b < n - 1: with all keys equal, each
    part matches on each pair of its classes."""
    k = m.n - 1
    return {(code, a, b) for code in range(1, 1 << k) for b in range(k) for a in range(b)}


def bad_parts_one_by_one(m):
    return {
        mask_of(combo)
        for r in range(1, m.n)
        for combo in itertools.combinations(range(2, m.n + 1), r)
        if is_bad_part(m, mask_of(combo))
    }


def admissible_parts_one_by_one(m):
    """Every part with c(X) + |X| <= n, in mask order, from exact level sets."""
    return [
        mask for mask in range(2, 1 << m.n, 2)
        if m.level_count(m.level_id(mask)) + mask.bit_count() <= m.n
    ]


class TestMasks:
    def test_round_trip(self):
        assert mask_of([2, 4, 5]) == 0b11010
        assert indices_of(0b11010) == (2, 4, 5)
        assert indices_of(mask_of([1])) == (1,)

    def test_indices_sorted(self):
        assert indices_of(mask_of([9, 3, 7])) == (3, 7, 9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            indices_of(-1)
        with pytest.raises(ValueError):
            mask_of([0])


class TestSigmaMatrix:
    """sigma_values(1 << i) is the weighted row chi(1) * chi of character i + 1."""

    def test_cyclic3_rows(self):
        m = sigma_matrix(cyclic_table(3))
        z = lambda k: root_of_unity(3, k)
        assert m.sigma_values(1 << 0) == (z(0), z(0), z(0))
        assert m.sigma_values(1 << 1) == (z(0), z(1), z(2))
        assert m.sigma_values(1 << 2) == (z(0), z(2), z(1))

    def test_first_column_is_degree_squared(self):
        for t in [cyclic_table(5), dihedral_table(7), frobenius_pq_table(7, 3)]:
            m = sigma_matrix(t)
            for i in range(t.n):
                assert m.sigma_values(1 << i)[0] == t.degree(i + 1) ** 2

    def test_dihedral_degree_two_row_starts_at_four(self):
        t = dihedral_table(7)
        m = sigma_matrix(t)
        row = m.sigma_values(1 << 2)  # first degree-2 character
        assert row[0] == 4

    def test_column_sums(self):
        """Summing all weighted rows gives the regular character."""
        for t in SMALL_TABLES:
            m = sigma_matrix(t)
            for j in range(t.n):
                acc = Cyclotomic.zero(t.root_order)
                for i in range(t.n):
                    acc = acc + m.sigma_values(1 << i)[j]
                assert acc == (t.order if j == 0 else 0)

    def test_rows_equal_cyclotomic_products(self):
        """Also on the rescaled tables, whose degrees are Fractions."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            for i, row in enumerate(t.values):
                assert m.sigma_values(1 << i) == tuple(row[0] * v for v in row)

    def test_parts_of_up_to_three_rows_match_the_table(self):
        """sigma_values agrees with the direct sum over the table's values,
        also on the rescaled tables, for every part of at most three rows."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            for r in (1, 2, 3):
                for combo in itertools.combinations(range(1, t.n + 1), r):
                    part = mask_of(combo)
                    assert m.sigma_values(part) == supercharacter_values(t, part), (t.name, combo)

    def test_degree_that_is_not_rational_rejected(self):
        t = cyclic_table(3)
        rows = list(t.values)
        rows[2] = (root_of_unity(3, 1),) + rows[2][1:]
        with pytest.raises(ValueError, match="character 3"):
            sigma_matrix(dataclasses.replace(t, values=tuple(rows)))

    def test_degree_zero_rejected(self):
        """dual_blocks divides by chi(1), so a zero degree is refused."""
        t = cyclic_table(3)
        rows = list(t.values)
        rows[1] = (Cyclotomic.zero(3),) + rows[1][1:]
        with pytest.raises(ValueError, match="character 2"):
            sigma_matrix(dataclasses.replace(t, values=tuple(rows)))

    def test_past_the_class_limit_rejected(self):
        """The loaders refuse more than MAX_CLASSES classes, and so does the
        matrix of a table built by hand: the builder's shared failures cover
        the columns up to the limit."""
        one, n = Cyclotomic.one(1), MAX_CLASSES + 1
        t = CharacterTable(name="wide", order=n, n=n, root_order=1,
                           class_sizes=(1,) * n, values=((one,) * n,) * n)
        with pytest.raises(SizeLimitError, match="65 classes"):
            sigma_matrix(t)


class TestIntegerLift:
    def test_values_rebuild_from_the_lift(self):
        """a[i, j] / den is values[i][j] on the power basis, also on the
        rescaled tables, and the coefficients are Python ints."""
        for t in SCAN_TABLES:
            a, den = integer_coefficients(t)
            assert a.shape == (t.n, t.n, sigma_matrix(t).degree)
            assert all(type(c) is int for c in a.flat)
            for i, row in enumerate(t.values):
                for j, v in enumerate(row):
                    terms = [(e, Fraction(c, den)) for e, c in enumerate(a[i, j].tolist())]
                    assert Cyclotomic(t.root_order, terms) == v, (t.name, i, j)


class TestLevelSets:
    def test_level_id_matches_sigma_values(self):
        """The level-set partition of every part, read from the packed keys,
        equals the one read from sigma_values by Cyclotomic equality."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            for r in range(1, t.n):
                for combo in itertools.combinations(range(2, t.n + 1), r):
                    part = mask_of(combo)
                    values = m.sigma_values(part)[1:]
                    reference = []
                    firsts = []
                    for v in values:
                        label = next((k for k, w in enumerate(firsts) if w == v), None)
                        if label is None:
                            label = len(firsts)
                            firsts.append(v)
                        reference.append(label)
                    pid = m.level_id(part)
                    assert m.level_rgs(pid) == tuple(reference), (t.name, combo)
                    assert m.level_count(pid) == len(firsts)

    @pytest.mark.parametrize("part", [mask_of([1, 2]), 0, 1 << 5],
                             ids=["trivial_row", "empty", "out_of_range"])
    def test_level_id_rejects_trivial_row(self, part):
        m = sigma_matrix(cyclic_table(5))
        with pytest.raises(ValueError):
            m.level_id(part)

    @pytest.mark.parametrize("t,sample", [
        (cyclic_table(7), None),
        (dihedral_table(9), None),
        (frobenius_pq_table(7, 3), None),
        (cyclic_table(12), 80),
    ], ids=["Z7", "D18", "T(7,3)", "Z12-sample80"])
    def test_meet_relabels_label_pairs(self, t, sample):
        """meet(a, b) is the partition whose labels are the pairs of a's and
        b's labels, renumbered by first appearance; it is symmetric and
        idempotent, also when a or b is the finest partition."""
        m = sigma_matrix(t)
        parts = range(2, 1 << t.n, 2)
        if sample is not None:
            parts = random.Random(12).sample(parts, sample)
        ids = sorted({m.level_id(part) for part in parts})
        assert any(m.level_count(pid) == t.n - 1 for pid in ids)
        for a in ids:
            assert m.meet(a, a) == a
            for b in ids:
                labels: dict = {}
                pairs = zip(m.level_rgs(a), m.level_rgs(b))
                expected = tuple(labels.setdefault(pair, len(labels)) for pair in pairs)
                assert m.level_rgs(m.meet(a, b)) == expected, (t.name, a, b)
                assert m.meet(a, b) == m.meet(b, a)

    def test_firsts_start_each_level(self):
        """_id_firsts[pid] holds the first index of each label of
        _id_rgs[pid], for the ids the scan's labels intern and for those
        level_id and the builder's meets add over every partition."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            scan_parts(m)
            er_partitions(range(2, t.n + 1), class_side_builder(m))
            assert len(m._id_firsts) == len(m._id_rgs)
            for pid, rgs in enumerate(m._id_rgs):
                starts: dict = {}
                for i, label in enumerate(rgs):
                    starts.setdefault(label, i)
                assert m._id_firsts[pid] == tuple(starts[label] for label in range(len(starts)))


def label_every_part(m):
    """Labels every part of m from the scan's sums, as scan_parts labels
    its pool."""
    _, halves = supchar.sigma._merged_counts(m)
    codes = np.arange(1, 1 << (m.n - 1))
    supchar.sigma._label_parts(m, halves, codes, (codes << 1).tolist())


class TestPoolLabels:
    """The level ids scan_parts caches from the scan's sums are level_id's."""

    def assert_labels_are_level_ids(self, t, m, masks):
        reference = sigma_matrix(t)
        for mask in masks:
            want = reference.level_rgs(reference.level_id(mask))
            assert m.level_rgs(m._level_ids[mask]) == want, (t.name, mask)

    def test_every_part(self, monkeypatch):
        """Also on Fraction coefficients, on ints beyond 64 bits, on object
        words and on several words, at every split."""
        for t in JOIN_TABLES:
            for split in every_split(monkeypatch):
                m = sigma_matrix(t)
                label_every_part(m)
                self.assert_labels_are_level_ids(t, m, range(2, 1 << t.n, 2))

    def test_scan_parts_labels_its_pool(self, monkeypatch):
        for t in JOIN_TABLES:
            for split in every_split(monkeypatch):
                m = sigma_matrix(t)
                _, pool = scan_parts(m)
                assert sorted(m._level_ids) == pool, (t.name, split)
                self.assert_labels_are_level_ids(t, m, pool)

    @pytest.mark.parametrize("collide", [collide_every_key, keep_two_key_bits],
                             ids=["all_equal", "two_bits"])
    def test_hash_collisions_leave_labels_exact(self, monkeypatch, collide):
        """With every uint64 key equal, or with keys that collide on some
        classes only, the pool and its labels are level_id's, and scan_parts
        never calls level_id: its labels read no hash."""
        collide(monkeypatch)
        for t in SCAN_TABLES:
            for split in every_split(monkeypatch):
                m = sigma_matrix(t)
                calls = []
                m.level_id = lambda mask: calls.append(mask)
                _, pool = scan_parts(m)
                assert calls == [], (t.name, split)
                assert pool == admissible_parts_one_by_one(sigma_matrix(t)), (t.name, split)
                assert sorted(m._level_ids) == pool, (t.name, split)
                self.assert_labels_are_level_ids(t, m, pool)


class TestDualBlocks:
    def test_matches_central_characters(self):
        """dual_blocks of every level-set partition groups the characters
        2..n by sum_{C in block} |C| chi(C) / chi(1) over every block, computed
        from the table's values; also on the rescaled tables, whose degrees
        are Fractions or beyond 64 bits."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            zero = Cyclotomic.zero(t.root_order)
            for pid in sorted({m.level_id(part) for part in range(2, 1 << t.n, 2)}):
                cols: dict[int, list[int]] = {}
                for c, label in enumerate(m.level_rgs(pid), start=1):
                    cols.setdefault(label, []).append(c)
                keys = [
                    tuple(sum((row[c].scale(Fraction(t.class_sizes[c]) / row[0].rational_value())
                               for c in cs), zero) for cs in cols.values())
                    for row in t.values[1:]
                ]
                blocks = m.dual_blocks(pid)
                assert sorted(blocks) == [1 << i for i in range(1, t.n)]
                for i, key in enumerate(keys, start=1):
                    same = {j for j, other in enumerate(keys, start=1) if other == key}
                    assert blocks[1 << i] == sum(1 << j for j in same), (t.name, pid, i)

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_at_least_as_many_blocks_as_the_meet(self, seed):
        """X(M) has at least as many blocks as M on every partition that the
        walk of the admissible pool interns, meets included: the lemma by
        which the dual rule leaves only theories (setparts).  A seed shuffles
        the non-trivial rows."""
        for t in SCAN_TABLES:
            if seed is not None:
                rows = list(t.values[1:])
                random.Random(seed).shuffle(rows)
                t = dataclasses.replace(t, values=(t.values[0], *rows))
            m = sigma_matrix(t)
            _, pool = scan_parts(m)
            walk_pool(tuple(range(2, t.n + 1)), pool, lambda parts: None, matrix=m)
            for pid in range(len(m._id_rgs)):
                blocks = len(set(m.dual_blocks(pid).values()))
                assert blocks >= m.level_count(pid), (t.name, seed, pid)

    @pytest.mark.parametrize("t", SMALL_TABLES[1:], ids=lambda t: t.name)
    def test_coarsest_and_finest(self, t):
        """The one-block partition, that of sigma over all of 2..n, leaves
        one block, since every omega_chi of the non-identity classes is -1;
        the partition of a bad part separates every character, since the
        table is invertible."""
        m = sigma_matrix(t)
        full = (1 << t.n) - 2
        bits = [1 << i for i in range(1, t.n)]
        assert m.dual_blocks(m.level_id(full)) == {bit: full for bit in bits}
        for bad in find_bad_parts(t, matrix=m):
            assert m.dual_blocks(m.level_id(bad)) == {bit: bit for bit in bits}


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


def reference_merged(m):
    """merged(X) for every part code, from each part's exact level sets:
    n - 1 - c(X).  The empty part's sums are 0 on all n - 1 classes."""
    return [m.n - 2] + [m.n - 1 - m.level_count(m.level_id(code << 1))
                        for code in range(1, 1 << (m.n - 1))]


# one row scaled by 2^70 and the rest by 1: no common factor cancels, so the
# exact words overflow int64
UNEQUALLY_SCALED = [scale_row(cyclic_table(7), 2, 2 ** 70),
                    scale_row(dihedral_table(9), 3, 2 ** 70)]
# degrees 24 and 36: their slots fill more than one int64 word
MULTI_WORD = [frobenius_pq_table(13, 3), frobenius_pq_table(19, 3)]
JOIN_TABLES = SCAN_TABLES + UNEQUALLY_SCALED + MULTI_WORD


class TestJoin:
    """_merged_counts against each part's level sets."""

    def assert_reference_counts(self, monkeypatch, tables):
        for t in tables:
            for split in every_split(monkeypatch):
                m = sigma_matrix(t)
                merged, _ = supchar.sigma._merged_counts(m)
                assert merged.tolist() == reference_merged(m), (t.name, split)

    def test_every_part(self, monkeypatch):
        """Also on Fraction coefficients and on ints beyond 64 bits, at every
        split."""
        self.assert_reference_counts(monkeypatch, JOIN_TABLES)

    def test_tiny_key_weights(self, monkeypatch):
        """With every weight 1 the hashes are small sums, so most distinct
        ones agree above the entry index packed into each sorted key, and
        only the exact recheck tells them apart."""
        keys = supchar.sigma._class_keys
        exact_matches = supchar.sigma._exact_matches
        rejected = []

        def summed_keys(m):
            _, exact = keys(m)
            return (m._scaled.sum(axis=2) % 2 ** 64).astype(np.uint64), exact

        def counted_exact_matches(*args):
            real = exact_matches(*args)
            rejected.append(int(np.count_nonzero(~real)))
            return real

        monkeypatch.setattr(supchar.sigma, "_class_keys", summed_keys)
        monkeypatch.setattr(supchar.sigma, "_exact_matches", counted_exact_matches)
        self.assert_reference_counts(monkeypatch, JOIN_TABLES)
        assert sum(rejected) > 0

    @pytest.mark.parametrize("t,dtype", [(t, np.int64) for t in SCAN_TABLES + MULTI_WORD]
                             + [(t, object) for t in UNEQUALLY_SCALED])
    def test_recheck_dtype(self, monkeypatch, t, dtype):
        """The exact words are int64 unless one slot does not fit, and the
        recheck reads them in that dtype (from two classes on, the empty
        part always reaches it)."""
        exact_matches = supchar.sigma._exact_matches
        seen = set()

        def spied_exact_matches(low_exact, high_exact, *rest):
            seen.update((low_exact.dtype, high_exact.dtype))
            return exact_matches(low_exact, high_exact, *rest)

        monkeypatch.setattr(supchar.sigma, "_exact_matches", spied_exact_matches)
        m = sigma_matrix(t)
        assert supchar.sigma._class_keys(m)[1].dtype == dtype
        merged, _ = supchar.sigma._merged_counts(m)
        assert merged.tolist() == reference_merged(m)
        assert seen == ({np.dtype(dtype)} if t.n > 2 else set())

    @pytest.mark.parametrize("t", MULTI_WORD, ids=lambda t: t.name)
    def test_high_degree_takes_several_words(self, t):
        """_class_keys packs as many slots to an int64 word as fit below
        2^62, so a high-degree table takes several words."""
        m = sigma_matrix(t)
        words = supchar.sigma._class_keys(m)[1].shape[1]
        assert words == -(-m.degree // (62 // m._width)) >= 2


class TestComplementLaw:
    """The rows of a character table sum to -1 on every class but the
    identity (column orthogonality against the identity column), so sigma_X
    and sigma_Y of X's complement Y in {2..n} add to a constant there: X and
    Y have the same level partition, and merged[code] == merged[full ^ code].
    full ^ code is full - code, so merged reads the same reversed."""

    def test_holds_on_character_tables(self):
        """Also with every non-trivial row scaled alike, by 1/3 or 2^70."""
        for t in SCAN_TABLES + MULTI_WORD:
            merged, _ = supchar.sigma._merged_counts(sigma_matrix(t))
            assert (merged == merged[::-1]).all(), t.name

    def test_breaks_where_one_row_is_scaled(self):
        """One row scaled by 2^70: the rows no longer sum to a constant, and
        the law fails on nonempty proper parts (the check catches a break)."""
        for t, broken in zip(UNEQUALLY_SCALED, (8, 12)):
            inner = supchar.sigma._merged_counts(sigma_matrix(t))[0][1:-1]
            assert np.count_nonzero(inner != inner[::-1]) == broken, t.name


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

    def test_matches_per_part_filter(self, monkeypatch):
        """The scan agrees with testing each subset independently, also on
        Fraction coefficients and on ints beyond 64 bits, at every split."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            expected = bad_parts_one_by_one(m)
            for split in every_split(monkeypatch):
                assert find_bad_parts(t, matrix=m) == expected, (t.name, split)

    def test_key_collisions_are_rechecked_exactly(self, monkeypatch):
        """With every uint64 key equal, every part matches on every class
        pair, and each of those matches goes through the exact recheck."""
        reached = collide_every_key(monkeypatch)
        for t in COLLISION_TABLES:
            m = sigma_matrix(t)
            expected = bad_parts_one_by_one(m)
            for split in every_split(monkeypatch):
                reached.clear()
                found = find_bad_parts(t, matrix=m)
                assert found == expected, (t.name, split)
                assert reached >= every_match(m), (t.name, split)

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

    def test_counts_without_holding_the_set(self, monkeypatch):
        t = frobenius_pq_table(19, 3)
        expected = Fraction(len(find_bad_parts(t)), 2 ** 8 - 1)
        monkeypatch.setattr(supchar.sigma, "find_bad_parts", None)
        assert alpha_ratio(t) == expected


class TestCountBadParts:
    def test_matches_the_set(self, monkeypatch):
        """Also on Fraction coefficients and on ints beyond 64 bits, at every
        split."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            expected = len(bad_parts_one_by_one(m))
            for split in every_split(monkeypatch):
                assert count_bad_parts(m) == expected, (t.name, split)

    def test_counts_each_confirmed_part_once(self, monkeypatch):
        """With every uint64 key equal, every match of every part reaches the
        exact recheck, and both counts take each bad part exactly once."""
        reached = collide_every_key(monkeypatch)
        for t in COLLISION_TABLES:
            m = sigma_matrix(t)
            expected = len(bad_parts_one_by_one(m))
            for split in every_split(monkeypatch):
                reached.clear()
                assert count_bad_parts(m) == expected, (t.name, split)
                assert reached >= every_match(m), (t.name, split)
                reached.clear()
                assert scan_parts(m)[0] == expected, (t.name, split)
                assert reached >= every_match(m), (t.name, split)

    def test_trivial_group(self):
        m = sigma_matrix(cyclic_table(1))
        assert count_bad_parts(m) == 0
        assert scan_parts(m) == (0, [])
        assert len(find_bad_parts(m.table, matrix=m)) == 0

    def test_refused_past_the_limit(self):
        with pytest.raises(SizeLimitError, match=str(MAX_SCAN_CLASSES)):
            count_bad_parts(sigma_matrix(cyclic_table(MAX_SCAN_CLASSES + 1)))


class TestScanParts:
    def test_pool_matches_per_part_filter(self, monkeypatch):
        """The scan's admissible pool and bad count agree with testing each
        part alone, also on Fraction coefficients and on ints beyond 64 bits,
        at every split."""
        for t in SCAN_TABLES:
            m = sigma_matrix(t)
            expected = admissible_parts_one_by_one(sigma_matrix(t)), len(bad_parts_one_by_one(m))
            for split in every_split(monkeypatch):
                bad_count, pool = scan_parts(sigma_matrix(t))
                assert (pool, bad_count) == expected, (t.name, split)

    def test_pool_survives_key_collisions(self, monkeypatch):
        """With every uint64 key equal, each part has one hashed level, so the
        join matches every class pair and the exact recheck alone decides."""
        collide_every_key(monkeypatch)
        for t in COLLISION_TABLES:
            m = sigma_matrix(t)
            expected = admissible_parts_one_by_one(m), len(bad_parts_one_by_one(m))
            for split in every_split(monkeypatch):
                bad_count, pool = scan_parts(m)
                assert (pool, bad_count) == expected, (t.name, split)

    @pytest.mark.parametrize("t,bad_count,admissible", [
        (cyclic_table(17), 65_280, 183),
        (cyclic_table(19), 261_576, 453),
        (dihedral_table(31), 65_460, 80),
        (dihedral_table(25), 6_160, 157),
        (dihedral_table(27), 12_150, 368),
        (cyclic_table(14), 7_236, 410),
        (dihedral_table(35), 189_456, 2_049),
        (cyclic_table(20), 319_296, 11_539),
        (cyclic_table(16), 18_816, 2_177),
        (cyclic_table(18), 66_600, 4_442),
        (dihedral_table(33), 107_640, 1_600),
        (cyclic_table(22), 2_065_620, 6_271),
    ], ids=lambda v: v.name if hasattr(v, "name") else None)
    def test_pinned_on_benchmark_and_hard_groups(self, t, bad_count, admissible):
        """Z20 and Z22 recheck more than one chunk of hashed matches for some
        classes."""
        m = sigma_matrix(t)
        count, pool = scan_parts(m)
        assert (count, len(pool)) == (bad_count, admissible)
        assert count_bad_parts(m) == bad_count

    def test_bad_singletons_are_admissible(self):
        m = sigma_matrix(cyclic_table(13))
        _, pool = scan_parts(m)
        assert all(mask_of([j]) in pool for j in range(2, 14))
        bad = find_bad_parts(m.table, matrix=m)
        assert not any(mask in bad for mask in pool if mask.bit_count() > 1)


class TestScanSizeLimit:
    def test_refused_past_the_limit(self):
        t = cyclic_table(MAX_SCAN_CLASSES + 1)
        m = sigma_matrix(t)
        with pytest.raises(SizeLimitError, match=str(MAX_SCAN_CLASSES)):
            find_bad_parts(t, matrix=m)
        with pytest.raises(SizeLimitError):
            scan_parts(m)
        with pytest.raises(SizeLimitError):
            alpha_ratio(t)

    def test_limit_is_on_the_class_count(self, monkeypatch):
        monkeypatch.setattr(supchar.sigma, "MAX_SCAN_CLASSES", 7)
        assert len(find_bad_parts(cyclic_table(7))) == 54
        with pytest.raises(SizeLimitError):
            find_bad_parts(cyclic_table(8))
