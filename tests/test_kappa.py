"""Forced class partitions, failure kinds, and independent re-verification."""

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest

from supchar.chartab import CharacterTable, cyclic_table, dihedral_table, frobenius_pq_table
from supchar.engine import find_supertheories
from supchar.exactnum import Cyclotomic
from supchar.kappa import (
    TOO_FEW,
    TOO_FEW_PARTS,
    TOO_MANY_PARTS,
    KappaFailure,
    SuperTheory,
    class_side_builder,
    create_kappa,
    sibling_builder,
    supercharacter_values,
    verify_theory,
)
from supchar.setparts import er_partitions
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


def rescaled(t, factor):
    """t with every non-trivial row times factor: same level sets, and
    values with a denominator (1/3) or a wide numerator (2^70)."""
    rows = (t.values[0],) + tuple(tuple(v.scale(factor) for v in row) for row in t.values[1:])
    return dataclasses.replace(t, values=rows, name=f"{t.name}*{factor}")


def flat_table():
    """Rows that separate nothing: the class side falls short of the
    character side, which no character table does."""
    one = Cyclotomic.one(1)
    return CharacterTable(name="flat", order=3, n=3, root_order=1,
                          class_sizes=(1, 1, 1), values=((one, one, one),) * 3)


def skew_table():
    """Rows that do not sum to a constant off the identity, unlike a
    character table's, where the last part's level sets follow from the
    others': here the last part of {2, 3}, {4} splits classes 2 and 4."""
    one = Cyclotomic.one(1)
    rows = ((1, 1, 1, 1), (1, 1, 1, 0), (1, 0, 1, 1), (1, 0, 0, 1))
    return CharacterTable(name="skew", order=4, n=4, root_order=1, class_sizes=(1,) * 4,
                          values=tuple(tuple(one.scale(v) for v in row) for row in rows))


def reference_kappa(table, parts, values):
    """create_kappa's result, forced straight from the table's sigma values
    (values(mask) is supercharacter_values, cached): the classes 2..n are
    keyed by their values under the parts taken in order, and the first
    class whose key exceeds the part budget certifies an abort."""
    n, target = table.n, len(parts)
    keys = [()] * (n + 1)
    for mask in parts:
        row = values(mask)
        labels = {}
        for j in range(2, n + 1):
            keys[j] += (row[j - 1],)
            if labels.setdefault(keys[j], len(labels)) == target:
                return KappaFailure(TOO_MANY_PARTS, j)
    blocks = {}
    for j in range(2, n + 1):
        blocks[keys[j]] = blocks.get(keys[j], 0) | 1 << (j - 1)
    if len(blocks) < target:
        return KappaFailure(TOO_FEW_PARTS)
    x_parts = (1,) + tuple(sorted(parts, key=lambda m: m & -m))
    k_parts = (1,) + tuple(blocks.values())
    reps = [(k & -k).bit_length() - 1 for k in k_parts]
    st = tuple(tuple(values(x)[c] for c in reps) for x in x_parts)
    return SuperTheory(x_parts=x_parts, k_parts=k_parts, st=st)


# Every generator table of tests/test_engine.py with 2 <= n <= 9 (at most
# B(8) = 4,140 partitions), its rescaled tables, and the flat and skew tables.
BUILDER_SUITE = (
    [cyclic_table(m) for m in range(2, 10)]
    + [dihedral_table(m) for m in range(2, 10)]
    + [frobenius_pq_table(5, 2), frobenius_pq_table(7, 2), frobenius_pq_table(7, 3)]
    + [rescaled(t, factor)
       for t in [cyclic_table(7), dihedral_table(9), frobenius_pq_table(7, 3), cyclic_table(10)]
       for factor in (Fraction(1, 3), 2 ** 70)]
    + [flat_table(), skew_table()]
)


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
        m = sigma_matrix(flat_table())
        res = create_kappa(m, (mask_of([2]), mask_of([3])))
        assert isinstance(res, KappaFailure)
        assert res.reason == TOO_FEW_PARTS
        assert res.column is None
        assert res is TOO_FEW

    def test_rejects_non_partition(self):
        m = sigma_matrix(cyclic_table(4))
        with pytest.raises(ValueError):
            create_kappa(m, (mask_of([2]),))  # misses 3, 4
        with pytest.raises(ValueError):
            create_kappa(m, ())

    @pytest.mark.parametrize("t", [cyclic_table(4), cyclic_table(5)], ids=lambda t: t.name)
    def test_rejects_exactly_what_the_part_loop_rejected(self, t):
        """Every tuple of up to 3 masks below 2^n, and (): create_kappa raises
        ValueError exactly when the former per-part validation loop does."""

        def loop_rejects(irrp, n):
            covered = 0
            for mask in irrp:
                if mask == 0 or mask & 1 or mask >= (1 << n) or (covered & mask):
                    return True
                covered |= mask
            return covered != (1 << n) - 2

        m = sigma_matrix(t)
        masks = range(1 << t.n)
        inputs = [()] + [
            irrp for size in (1, 2, 3) for irrp in itertools.product(masks, repeat=size)
        ]
        rejected = 0
        for irrp in inputs:
            try:
                create_kappa(m, irrp)
                raised = False
            except ValueError:
                raised = True
            assert raised == loop_rejects(irrp, t.n), irrp
            rejected += raised
        assert 0 < rejected < len(inputs)

    def test_equal_aborts_share_one_value(self):
        """Aborts certified by the same column are one shared value."""
        m = sigma_matrix(cyclic_table(13))
        a = create_kappa(m, (mask_of([2]), mask_of(range(3, 14))))
        b = create_kappa(m, (mask_of([2, 3]), mask_of(range(4, 14))))
        c = create_kappa(m, (mask_of([2]), mask_of([3]), mask_of(range(4, 14))))
        assert a == b == KappaFailure(TOO_MANY_PARTS, 4)
        assert (a.reason, a.column) == (b.reason, b.column)
        assert a is b
        assert c == KappaFailure(TOO_MANY_PARTS, 5)
        assert c is not a

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


class TestBuildClassSide:
    @pytest.mark.parametrize("t", BUILDER_SUITE, ids=lambda t: t.name)
    def test_equals_create_kappa_on_every_partition(self, t):
        """class_side_builder(matrix), fed the list er_partitions lends (as
        the engine does), returns what create_kappa returns on a copy of
        it, and both equal the reference: the same theory (x_parts, k_parts
        and st) or the same failure (reason and column)."""
        build, built, copies = class_side_builder(sigma_matrix(t)), [], []

        def visit(parts):
            built.append(build(parts))
            copies.append(tuple(parts))

        er_partitions(range(2, t.n + 1), visit)
        checked = sigma_matrix(t)
        values = functools.cache(lambda mask: supercharacter_values(t, mask))
        for parts, got in zip(copies, built):
            want = create_kappa(checked, parts)
            assert got == want == reference_kappa(t, parts, values), (
                t.name, [indices_of(p) for p in parts])
        assert any(isinstance(r, SuperTheory) for r in built)
        if t.name == "flat":
            assert KappaFailure(TOO_FEW_PARTS) in built
        if t.name == "skew":
            assert KappaFailure(TOO_MANY_PARTS, 4) in built


    @pytest.mark.parametrize(
        "t", [cyclic_table(7), dihedral_table(5), flat_table(), skew_table()],
        ids=lambda t: t.name)
    def test_engine_builder_equals_create_kappa(self, t):
        """The builder the engine walks with, class_side_builder(matrix,
        keep), returns on each partition er_partitions lends what
        create_kappa returns on a copy of it: the identical failure value,
        or an equal theory; keep sees exactly the theories and the TOO_FEW
        results, the same objects, in visit order."""
        matrix, kept, built, copies = sigma_matrix(t), [], [], []
        build = class_side_builder(matrix, kept.append)

        def visit(parts):
            built.append(build(parts))
            copies.append(tuple(parts))

        er_partitions(range(2, t.n + 1), visit)
        checked = sigma_matrix(t)
        for parts, got in zip(copies, built):
            want = create_kappa(checked, parts)
            if isinstance(want, SuperTheory):
                assert got == want, (t.name, [indices_of(p) for p in parts])
            else:
                assert got is want, (t.name, [indices_of(p) for p in parts])
        expected = [r for r in built if isinstance(r, SuperTheory) or r is TOO_FEW]
        assert len(kept) == len(expected)
        assert all(a is b for a, b in zip(kept, expected))
        assert any(isinstance(r, SuperTheory) for r in kept)
        assert (TOO_FEW in kept) == (t.name == "flat")
        assert len(kept) < len(built) or t.name == "flat"  # the rest are aborts


class TestSiblingPass:
    @pytest.mark.parametrize("t", BUILDER_SUITE, ids=lambda t: t.name)
    def test_keeps_what_the_builder_keeps(self, t):
        """The sibling pass, fed each partition of 2..n-1 that er_partitions
        lends and class n's bit, keeps what class_side_builder's builder
        keeps on the p + 1 partitions that put the bit into each part, then
        alone: the same TOO_FEW object and equal theories, in that order.
        It hands back the lent list unchanged."""
        kept, want = [], []
        place = sibling_builder(sigma_matrix(t), kept.append)
        build = class_side_builder(sigma_matrix(t), want.append)
        bit = 1 << (t.n - 1)

        def visit(parts):
            before = list(parts)
            place(parts, bit)
            assert parts == before
            for i in range(len(parts)):
                build([*parts[:i], parts[i] | bit, *parts[i + 1:]])
            build([*parts, bit])
            assert kept == want, (t.name, [indices_of(p) for p in parts])
            assert all(a is b for a, b in zip(kept, want) if b is TOO_FEW)

        er_partitions(range(2, t.n), visit)
        assert any(isinstance(r, SuperTheory) for r in kept)
        assert (TOO_FEW in kept) == (t.name == "flat")


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

    def test_value_of_another_root_order_fails(self):
        """An st entry over another root order is rejected, not compared:
        comparing Cyclotomics of orders 5 and 7 raises OrderMismatchError."""
        t = cyclic_table(5)
        th = find_supertheories(t)[0][0]
        st = ((Cyclotomic.one(7),) + th.st[0][1:],) + th.st[1:]
        assert not verify_theory(t, SuperTheory(th.x_parts, th.k_parts, st))

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
