"""Pruned partition generation, Bell numbers, codewords."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from supchar.exactnum import Cyclotomic
from supchar.setparts import (
    MAX_CODEWORD_LENGTH,
    VisitStats,
    bell_number,
    enumerate_partitions,
    er_codewords,
    er_partitions,
    er_siblings,
    walk_pool,
)
from supchar.chartab import SizeLimitError, cyclic_table, dihedral_table, frobenius_pq_table
from supchar.kappa import SuperTheory, create_kappa
from supchar.sigma import find_bad_parts, indices_of, mask_of, scan_parts, sigma_matrix


def collect(elements, forbidden):
    seen = []
    stats = enumerate_partitions(elements, forbidden, lambda p: seen.append(list(p)))
    return seen, stats


class TestEnumeratePartitions:
    def test_pruned_scenario(self):
        """Forbidding {2,3},{2,4},{3},{4} leaves exactly 2 of the 5 partitions."""
        forbidden = {mask_of([2, 3]), mask_of([2, 4]), mask_of([3]), mask_of([4])}
        seen, stats = collect((2, 3, 4), forbidden)
        as_indices = [[indices_of(p) for p in parts] for parts in seen]
        assert as_indices == [[(2,), (3, 4)], [(2, 3, 4)]]
        assert stats.visited_partitions == 2
        assert stats.pruned_nodes == 3

    def test_unpruned_three(self):
        seen, stats = collect((2, 3, 4), frozenset())
        as_indices = [[indices_of(p) for p in parts] for parts in seen]
        assert as_indices == [
            [(2,), (3,), (4,)],
            [(2,), (3, 4)],
            [(2, 3), (4,)],
            [(2, 4), (3,)],
            [(2, 3, 4)],
        ]
        assert stats.visited_partitions == 5

    @pytest.mark.parametrize("size", range(0, 11))
    def test_unpruned_counts_are_bell(self, size):
        elements = tuple(range(2, 2 + size))
        count = 0

        def visitor(parts):
            nonlocal count
            count += 1

        stats = enumerate_partitions(elements, frozenset(), visitor)
        assert count == stats.visited_partitions == bell_number(size)

    def test_size_nine_count(self):
        stats = enumerate_partitions(tuple(range(2, 11)), frozenset(), lambda p: None)
        assert stats.visited_partitions == 21147

    def test_partitions_are_valid_and_distinct(self):
        for size in range(1, 8):
            elements = tuple(range(2, 2 + size))
            full = mask_of(elements)
            seen, _ = collect(elements, frozenset())
            keys = set()
            for parts in seen:
                union = 0
                for p in parts:
                    assert union & p == 0
                    union |= p
                assert union == full
                mins = [min(indices_of(p)) for p in parts]
                assert mins == sorted(mins)
                keys.add(tuple(sorted(parts)))
            assert len(keys) == len(seen)

    def test_filter_equivalence_random(self):
        rng = random.Random(11)
        for size in range(2, 9):
            elements = tuple(range(2, 2 + size))
            subsets = [
                mask_of(combo)
                for r in range(1, size + 1)
                for combo in combinations(elements, r)
            ]
            for _ in range(3):
                forbidden = set(rng.sample(subsets, min(len(subsets), 6)))
                pruned, _ = collect(elements, forbidden)
                unpruned, _ = collect(elements, frozenset())
                filtered = [
                    parts for parts in unpruned
                    if not any(p in forbidden for p in parts)
                ]
                assert pruned == filtered

    def test_tree_edges_identity(self):
        """Edges visited = 2*B(size) - 1, the doubling recurrence sequence."""
        a = [1]  # recurrence a(n+1) = a(n) + sum C(n,i)*(a(i)+1)
        for n in range(0, 9):
            a.append(a[n] + sum(math.comb(n, i) * (a[i] + 1) for i in range(n + 1)))
        for size in range(1, 9):
            elements = tuple(range(2, 2 + size))
            _, stats = collect(elements, frozenset())
            assert stats.tree_edges == 2 * bell_number(size) - 1
            assert stats.tree_edges == a[size - 1]

    def test_forbidding_everything(self):
        elements = (2, 3, 4)
        subsets = {
            mask_of(c) for r in range(1, 4) for c in combinations(elements, r)
        }
        seen, stats = collect(elements, subsets)
        assert seen == []
        assert stats.visited_partitions == 0

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions((2, 2, 3), frozenset(), lambda p: None)

    def test_empty_set_single_empty_partition(self):
        seen, stats = collect((), frozenset())
        assert seen == [[]]
        assert stats.visited_partitions == 1

    def test_meet_cut_leaves_only_theories(self):
        """With the table's matrix, the walk of Z7's parts that are not bad
        reaches 3 leaves, each a theory (the fourth theory, all singletons,
        has bad parts).  The dual rule cuts there, and on D54, whose
        admissible pool is walked."""
        table = cyclic_table(7)
        matrix = sigma_matrix(table)
        bad = find_bad_parts(table, matrix=matrix)
        seen = []
        allowed = [mask for mask in range(2, 1 << 7, 2) if mask not in bad]  # code order
        stats = walk_pool(tuple(range(2, 8)), allowed, lambda p: seen.append(tuple(p)),
                          matrix=matrix)
        assert stats.visited_partitions == len(seen) == 3
        assert stats.dual_cuts > 0
        for parts in seen:
            assert isinstance(create_kappa(matrix, parts), SuperTheory)
        table = dihedral_table(27)
        matrix = sigma_matrix(table)
        _, pool = scan_parts(matrix)
        seen = []
        stats = walk_pool(tuple(range(2, table.n + 1)), pool, lambda p: seen.append(tuple(p)),
                          matrix=matrix)
        assert stats.visited_partitions == len(seen) == 13
        assert stats.dual_cuts > 0
        for parts in seen:
            assert isinstance(create_kappa(matrix, parts), SuperTheory)

    def test_pool_walk_equals_forbidden_complement(self):
        """Walking a pool visits what forbidding every other subset visits,
        with the same counters."""
        rng = random.Random(5)
        for size in range(1, 8):
            elements = tuple(range(2, 2 + size))
            subsets = list(range(2, 2 << size, 2))  # code order
            for _ in range(3):
                pool = [m for m in subsets if rng.random() < 0.6]
                walked = []
                stats = walk_pool(elements, pool, lambda p: walked.append(list(p)))
                forbidden = set(subsets) - set(pool)
                assert (walked, stats) == collect(elements, forbidden)

    def test_admissible_pool_finds_every_theory(self):
        """Walking Z7's admissible pool with the meet cut also reaches the
        all-singleton theory, whose parts are bad."""
        table = cyclic_table(7)
        matrix = sigma_matrix(table)
        _, pool = scan_parts(matrix)
        seen = []
        stats = walk_pool(tuple(range(2, 8)), pool, lambda p: seen.append(tuple(p)),
                          matrix=matrix)
        assert stats.visited_partitions == len(seen) == 4
        assert tuple(mask_of([j]) for j in range(2, 8)) in seen
        for parts in seen:
            assert isinstance(create_kappa(matrix, parts), SuperTheory)

    def test_pool_past_ten_elements(self):
        """On 12 non-contiguous elements, with every singleton and a seeded
        sample of larger parts allowed, the walk of a forbidden set equals
        the list walk of the allowed parts in code order."""
        elements = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        bits = [1 << (e - 1) for e in elements]
        by_code = [sum(b for i, b in enumerate(bits) if code >> i & 1)
                   for code in range(1, 1 << len(bits))]
        larger = [mask for mask in by_code if mask.bit_count() > 1]
        allowed = set(bits) | set(random.Random(12).sample(larger, 400))
        forbidden = frozenset(by_code) - allowed
        pool = [mask for mask in by_code if mask in allowed]
        seen, stats = collect(elements, forbidden)
        high = bits[10] | bits[11]  # past the first ten elements
        assert any(p & high and p.bit_count() > 1 for parts in seen for p in parts)
        leaves = [tuple(parts) for parts in seen]
        assert (leaves, stats) == leaves_and_stats(reference_walk, elements, pool, None)

    def test_forbidden_probed_once_per_subset_in_code_order(self):
        """forbidden sees each nonempty subset of the elements exactly once,
        in code order (bit i of the code for elements[i])."""

        class Probes:
            def __init__(self):
                self.seen = []

            def __contains__(self, mask):
                self.seen.append(mask)
                return False

        elements = (3, 5, 6, 10, 14)
        probes = Probes()
        enumerate_partitions(elements, probes, lambda p: None)
        bits = [1 << (e - 1) for e in elements]
        assert probes.seen == [
            sum(b for i, b in enumerate(bits) if code >> i & 1)
            for code in range(1, 1 << len(bits))
        ]

    def test_visitor_borrows_list(self):
        grabbed = []
        enumerate_partitions((2, 3), frozenset(), grabbed.append)
        # the borrowed list was mutated after the fact; copies are the caller's job
        assert all(isinstance(x, list) for x in grabbed)


def reference_walk(elements, pool, visitor, *, matrix=None):
    """A list walk kept as walk_pool's leaf oracle: where walk_pool reads one
    bucket of parts by least element, each node here filters its whole pool
    list into the candidates, which hold the least remaining element, and
    the others, and passes down the others that miss the chosen part.  With
    a matrix it applies the class-side meet cut instead of the dual rule, to
    one candidate at a time: a child is cut once its meet has more class
    parts than any completion could have character parts.  Its meet cuts
    are not counted."""
    stats = VisitStats()
    parts = []

    def node(rest, pool, meet):
        if not rest:
            stats.visited_partitions += 1
            visitor(parts)
            return
        first_bit = rest & -rest
        candidates = [p for p in pool if p & first_bit]
        others = [p for p in pool if not p & first_bit]
        size = rest.bit_count()
        stats.pruned_nodes += (1 << (size - 1)) - len(candidates)
        budget = len(parts) + size + 1
        for mask in candidates:
            child_meet = None
            if matrix is not None:
                pid = matrix.level_id(mask)
                child_meet = pid if meet is None else matrix.meet(meet, pid)
                if matrix.level_count(child_meet) > budget - mask.bit_count():
                    continue
            stats.tree_edges += 1
            parts.append(mask)
            node(rest & ~mask, [p for p in others if not p & mask], child_meet)
            parts.pop()

    node(mask_of(elements), pool, None)
    return stats


def dual_reference_walk(elements, pool, visitor, *, matrix):
    """reference_walk with the dual rule in place of the meet cut, X(M) taken
    from the table's values rather than from SigmaMatrix: at a node with
    meet M, the candidates outside the X(M)-block of the least remaining
    element are dropped, and a child whose meet M' splits one of its parts
    across two blocks of X(M') is cut; both count in dual_cuts.  X(M) groups
    the characters 2..n by their sums of |C| chi(C) / chi(1) over the blocks
    of M, in Cyclotomic arithmetic, and maps each character's bit to the
    mask of its block."""
    table = matrix.table
    stats = VisitStats()
    parts = []
    duals = {}

    def dual(pid):
        rgs = matrix.level_rgs(pid)
        if rgs not in duals:
            groups = {}
            for i in range(2, table.n + 1):
                degree = table.value(i, 1).rational_value()
                sums = [Cyclotomic.zero(table.root_order)] * (max(rgs) + 1)
                for c, label in enumerate(rgs, start=2):
                    weight = Fraction(table.class_sizes[c - 1]) / degree
                    sums[label] = sums[label] + table.value(i, c).scale(weight)
                groups.setdefault(tuple(sums), []).append(1 << (i - 1))
            duals[rgs] = {bit: sum(bits) for bits in groups.values() for bit in bits}
        return duals[rgs]

    def inside_one_block(pid, mask):
        return dual(pid)[mask & -mask] & mask == mask

    def node(rest, pool, meet):
        if not rest:
            stats.visited_partitions += 1
            visitor(parts)
            return
        first_bit = rest & -rest
        candidates = [p for p in pool if p & first_bit]
        others = [p for p in pool if not p & first_bit]
        size = rest.bit_count()
        stats.pruned_nodes += (1 << (size - 1)) - len(candidates)
        if meet is not None:
            kept = [p for p in candidates if inside_one_block(meet, p)]
            stats.dual_cuts += len(candidates) - len(kept)
            candidates = kept
        for mask in candidates:
            pid = matrix.level_id(mask)
            child_meet = pid if meet is None else matrix.meet(meet, pid)
            if not all(inside_one_block(child_meet, p) for p in parts + [mask]):
                stats.dual_cuts += 1
                continue
            stats.tree_edges += 1
            parts.append(mask)
            node(rest & ~mask, [p for p in others if not p & mask], child_meet)
            parts.pop()

    node(mask_of(elements), pool, None)
    return stats


def leaves_and_stats(walk, elements, pool, matrix):
    leaves = []
    stats = walk(elements, pool, lambda p: leaves.append(tuple(p)), matrix=matrix)
    return leaves, stats


def assert_walks_agree(elements, pool, matrix):
    """walk_pool visits the leaves of reference_walk in the same order.  Its
    counters are those of dual_reference_walk with a matrix, and those of
    reference_walk without one.  The reference walks get a fresh matrix, so
    their level ids never come from the labels scan_parts cached."""
    walked = leaves_and_stats(walk_pool, elements, pool, matrix)
    fresh = None if matrix is None else sigma_matrix(matrix.table)
    reference = leaves_and_stats(reference_walk, elements, pool, fresh)
    if matrix is None:
        assert walked == reference
    else:
        assert walked[0] == reference[0]
        assert walked == leaves_and_stats(dual_reference_walk, elements, pool, fresh)


def shuffled_rows(t, seed):
    """The table with its non-trivial character rows in a seeded random
    order: the same group, so the same theories up to relabelling."""
    rows = list(t.values[1:])
    random.Random(seed).shuffle(rows)
    return dataclasses.replace(t, values=(t.values[0],) + tuple(rows), name=f"{t.name}/{seed}")


# the generator tables of test_engine, and the groups of the benchmark's
# composite and prime workloads
WALK_TABLES = (
    [cyclic_table(m) for m in range(2, 11)]
    + [dihedral_table(m) for m in range(2, 10)]
    + [frobenius_pq_table(5, 2), frobenius_pq_table(7, 2), frobenius_pq_table(7, 3)]
    + [dihedral_table(25), dihedral_table(27), cyclic_table(14)]
    + [cyclic_table(13), cyclic_table(17), cyclic_table(19), dihedral_table(31),
       frobenius_pq_table(19, 3)]
)
SHUFFLED_TABLES = [shuffled_rows(t, seed) for t in WALK_TABLES for seed in (1, 2)]
HARD_TABLES = [cyclic_table(16), dihedral_table(33)] + [
    pytest.param(t, id=t.name, marks=pytest.mark.stretch)
    for t in [cyclic_table(18), dihedral_table(35)] + [cyclic_table(m) for m in range(20, 24)]
]


class TestAgainstReferenceWalk:
    """walk_pool visits the leaves of the list walk in the same order, with
    and without the table's matrix.  With it, the list walk cuts by the
    class-side meet and walk_pool by the dual rule, so the leaves of
    either rule alone agree, and the counters are checked against the list
    walk with the dual rule."""

    @pytest.mark.parametrize("t", WALK_TABLES, ids=lambda t: t.name)
    @pytest.mark.parametrize("cut", [True, False], ids=["meet-cut", "no-cut"])
    def test_admissible_pool(self, t, cut):
        matrix = sigma_matrix(t)
        _, pool = scan_parts(matrix)
        assert_walks_agree(tuple(range(2, t.n + 1)), pool, matrix if cut else None)

    @pytest.mark.parametrize("t", SHUFFLED_TABLES, ids=lambda t: t.name)
    def test_shuffled_rows(self, t):
        matrix = sigma_matrix(t)
        _, pool = scan_parts(matrix)
        assert_walks_agree(tuple(range(2, t.n + 1)), pool, matrix)

    @pytest.mark.parametrize("t", HARD_TABLES, ids=lambda t: t.name)
    def test_hard_groups(self, t):
        matrix = sigma_matrix(t)
        _, pool = scan_parts(matrix)
        assert_walks_agree(tuple(range(2, t.n + 1)), pool, matrix)

    @pytest.mark.parametrize("size", range(1, 8))
    def test_random_pools(self, size):
        """Pools that are not admissible, so the cut also removes parts at
        the root; the matrix is that of Z(size + 1) or of the dihedral group
        with as many classes."""
        rng = random.Random(size)
        elements = tuple(range(2, 2 + size))
        subsets = list(range(2, 2 << size, 2))  # code order
        tables = [cyclic_table(size + 1)]
        if size >= 2:  # D_{2m} with m odd has (m + 3) / 2 classes
            tables.append(dihedral_table(2 * size - 1))
        for t in tables:
            matrix = sigma_matrix(t)
            assert t.n == size + 1
            for _ in range(4):
                pool = [mask for mask in subsets if rng.random() < 0.7]
                for m in (matrix, None):
                    assert_walks_agree(elements, pool, m)


class TestBellNumbers:
    def test_pinned_values(self):
        assert bell_number(0) == 1
        assert bell_number(10) == 115975
        assert bell_number(12) == 4213597
        assert bell_number(17) == 82864869804

    def test_small_sequence(self):
        assert [bell_number(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_bell_triangle_oracle(self):
        """Independent route: the difference-triangle construction."""
        rows = [[1]]
        for _ in range(15):
            prev = rows[-1]
            nxt = [prev[-1]]
            for v in prev:
                nxt.append(nxt[-1] + v)
            rows.append(nxt)
        for m in range(16):
            assert bell_number(m) == rows[m][0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestErCodewords:
    def test_three(self):
        seen = []
        count = er_codewords(3, seen.append)
        assert count == 5
        assert seen == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]

    def test_one(self):
        seen = []
        assert er_codewords(1, seen.append) == 1
        assert seen == [(1,)]

    def test_ten_count(self):
        assert er_codewords(10, lambda c: None) == 115975

    def test_lexicographic_and_restricted_growth(self):
        seen = []
        er_codewords(6, seen.append)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen) == bell_number(6)
        for code in seen:
            assert code[0] == 1
            running = 1
            for c in code[1:]:
                assert 1 <= c <= running + 1
                running = max(running, c)

    def test_matches_partition_enumeration(self):
        for size in range(1, 7):
            elements = tuple(range(2, 2 + size))
            from_codes = set()

            def to_partition(code):
                parts = [0] * max(code)
                for pos, label in enumerate(code):
                    parts[label - 1] |= 1 << (pos + 1)
                from_codes.add(tuple(sorted(parts)))

            er_codewords(size, to_partition)
            direct, _ = collect(elements, frozenset())
            assert from_codes == {tuple(sorted(parts)) for parts in direct}

    def test_limits(self):
        with pytest.raises(ValueError):
            er_codewords(0, lambda c: None)
        with pytest.raises(ValueError):
            er_codewords(MAX_CODEWORD_LENGTH + 1, lambda c: None)


class TestErPartitions:
    @pytest.mark.parametrize("size", range(11))
    def test_counts_are_bell(self, size):
        seen = []
        count = er_partitions(range(2, 2 + size), lambda parts: seen.append(len(parts)))
        assert count == len(seen) == bell_number(size)

    @pytest.mark.parametrize("size", range(1, 9))
    def test_order_is_codeword_order(self, size):
        """Visit i is codeword i of er_codewords, mapped to part masks of the
        elements 2..size+1 (block b is part b-1, so parts follow their minima)."""
        from_codes = []

        def to_masks(code):
            parts = [0] * max(code)
            for pos, label in enumerate(code):
                parts[label - 1] |= 1 << (pos + 1)
            from_codes.append(parts)

        er_codewords(size, to_masks)
        walked = []
        er_partitions(range(2, 2 + size), lambda parts: walked.append(list(parts)))
        assert walked == from_codes

    def test_elements_need_not_be_contiguous(self):
        seen = []
        er_partitions((5, 2), lambda parts: seen.append(list(parts)))
        assert seen == [[mask_of([2, 5])], [mask_of([5]), mask_of([2])]]

    def test_visitor_borrows_list(self):
        """Every visit hands over the same list, which the walk keeps
        mutating; the caller copies what it keeps."""
        grabbed = []
        copies = []

        def visit(parts):
            grabbed.append(parts)
            copies.append(list(parts))

        er_partitions((2, 3, 4), visit)
        assert len(grabbed) == 5
        assert all(parts is grabbed[0] for parts in grabbed)
        assert grabbed[0] == []
        assert len({tuple(c) for c in copies}) == 5

    def test_rejects_bad_elements(self):
        for elements in [(2, 2), (0, 2)]:
            with pytest.raises(ValueError):
                er_partitions(elements, lambda parts: None)

    def test_size_limit_boundary(self):
        """MAX_CODEWORD_LENGTH elements start walking; one more is refused
        before any visit."""

        class Started(Exception):
            pass

        def stop(parts):
            raise Started

        with pytest.raises(Started):
            er_partitions(range(2, 2 + MAX_CODEWORD_LENGTH), stop)
        with pytest.raises(SizeLimitError):
            er_partitions(range(2, 3 + MAX_CODEWORD_LENGTH), stop)
        with pytest.raises(SizeLimitError):
            er_codewords(MAX_CODEWORD_LENGTH + 1, stop)


class TestErSiblings:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_groups_are_er_partitions_in_order(self, size):
        """Each call lends a partition of all elements but the last and the
        last one's bit; its siblings (the bit in each part, then alone) are
        the next partitions er_partitions visits, and the count is theirs."""
        elements = range(2, 2 + size)
        walked, grouped, lent = [], [], []
        er_partitions(elements, lambda parts: walked.append(list(parts)))

        def visit(parts, bit):
            assert bit == mask_of([1 + size])
            lent.append(parts)
            grouped.extend([*parts[:i], parts[i] | bit, *parts[i + 1:]] for i in range(len(parts)))
            grouped.append([*parts, bit])

        assert er_siblings(elements, visit) == len(walked) == bell_number(size)
        assert grouped == walked
        assert all(parts is lent[0] for parts in lent) and lent[0] == []

    def test_rejects_no_elements(self):
        with pytest.raises(ValueError):
            er_siblings((), lambda parts, bit: None)

    def test_size_limit_counts_every_element(self):
        """The limit is on all the elements, the last one included, though
        the recursion runs over one fewer."""

        class Started(Exception):
            pass

        def stop(parts, bit):
            raise Started

        with pytest.raises(Started):
            er_siblings(range(2, 2 + MAX_CODEWORD_LENGTH), stop)
        with pytest.raises(SizeLimitError, match=f"partitions of {MAX_CODEWORD_LENGTH + 1} elements"):
            er_siblings(range(2, 3 + MAX_CODEWORD_LENGTH), stop)
