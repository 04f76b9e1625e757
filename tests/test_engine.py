"""Search drivers: counts, mode agreement, oracle agreement, counters."""

import json

import pytest

from supchar.chartab import SizeLimitError, cyclic_table, dihedral_table, frobenius_pq_table
from supchar.engine import (
    TheorySet,
    brute_force_supertheories,
    count_supertheories,
    find_supertheories,
    result_document,
    theory_document,
)
from supchar.kappa import SuperTheory, create_kappa, verify_theory
from supchar.setparts import bell_number, enumerate_partitions
from supchar.sigma import find_bad_parts, mask_of, sigma_matrix


def tau(x):
    return sum(1 for d in range(1, x + 1) if x % d == 0)


GENERATOR_SUITE = (
    [cyclic_table(m) for m in range(1, 11)]
    + [dihedral_table(m) for m in range(2, 10)]
    + [frobenius_pq_table(5, 2), frobenius_pq_table(7, 2), frobenius_pq_table(7, 3)]
)

# Tables (n = 9..11) where the class-side meet cut fires at inner nodes of the
# walk, not only at leaves; first mode still finishes on each in about a second.
MEET_CUT_SUITE = [dihedral_table(m) for m in (12, 14, 15, 16, 19)] + [cyclic_table(11)]


class TestCounts:
    @pytest.mark.parametrize("m,count", [
        (2, 1), (3, 2), (5, 3), (7, 4), (11, 4), (13, 6),
    ])
    def test_cyclic(self, m, count):
        theories, _ = find_supertheories(cyclic_table(m))
        assert len(theories) == count

    @pytest.mark.parametrize("m,count", [
        (3, 2), (5, 3), (7, 3), (11, 3), (13, 5), (17, 5), (19, 4), (23, 3),
    ])
    def test_dihedral(self, m, count):
        theories, _ = find_supertheories(dihedral_table(m))
        assert len(theories) == count

    @pytest.mark.parametrize("p,q", [(5, 2), (7, 2), (7, 3), (13, 3)])
    def test_frobenius_divisor_formula(self, p, q):
        theories, _ = find_supertheories(frobenius_pq_table(p, q))
        assert len(theories) == 1 + tau((p - 1) // q) * tau(q - 1)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_cyclic_prime_divisor_law(self, p):
        theories, _ = find_supertheories(cyclic_table(p))
        assert len(theories) == tau(p - 1)

    def test_count_matches_find(self):
        for t in [cyclic_table(9), dihedral_table(8), frobenius_pq_table(7, 3)]:
            for mode in ("main", "first"):
                theories, fstats = find_supertheories(t, mode)
                count, cstats = count_supertheories(t, mode)
                assert count == len(theories)
                assert cstats.counters() == fstats.counters()


class TestExplicitStructures:
    def test_cyclic7_theories(self):
        theories, _ = find_supertheories(cyclic_table(7))
        encs = theories.encodings()
        residue = (((1,), (2, 3, 5), (4, 6, 7)), ((1,), (2, 3, 5), (4, 6, 7)))
        pairing = (
            ((1,), (2, 7), (3, 6), (4, 5)),
            ((1,), (2, 7), (3, 6), (4, 5)),
        )
        assert residue in encs
        assert pairing in encs
        assert len(encs) == 4

    def test_trivial_theories_always_present(self):
        for t in GENERATOR_SUITE:
            theories, _ = find_supertheories(t)
            encs = theories.encodings()
            n = t.n
            finest = (
                tuple((i,) for i in range(1, n + 1)),
                tuple((i,) for i in range(1, n + 1)),
            )
            assert finest in encs
            if n >= 2:
                coarsest = (
                    ((1,), tuple(range(2, n + 1))),
                    ((1,), tuple(range(2, n + 1))),
                )
                assert coarsest in encs

    def test_coarsest_table_shape(self):
        theories, _ = find_supertheories(dihedral_table(9))
        coarse = theories[0]
        assert coarse.r == 2
        mat = coarse.st
        assert [str(v) for v in mat[0]] == ["1", "1"]
        assert [str(v) for v in mat[1]] == ["17", "-1"]

    def test_canonical_order(self):
        theories, _ = find_supertheories(cyclic_table(13))
        keys = [th.sort_key() for th in theories]
        assert keys == sorted(keys)
        assert theories[0].r == 2
        assert theories[-1].r == 13


class TestModeAgreement:
    @pytest.mark.parametrize("t", GENERATOR_SUITE + MEET_CUT_SUITE, ids=lambda t: t.name)
    def test_main_equals_first(self, t):
        main_set, _ = find_supertheories(t, "main")
        first_set, _ = find_supertheories(t, "first")
        assert main_set == first_set

    @pytest.mark.parametrize(
        "t",
        [t for t in GENERATOR_SUITE if t.n <= 6],
        ids=lambda t: t.name,
    )
    def test_oracle_agreement(self, t):
        theories, _ = find_supertheories(t)
        assert theories.encodings() == brute_force_supertheories(t)

    def test_oracle_size_limit(self):
        with pytest.raises(SizeLimitError):
            brute_force_supertheories(cyclic_table(8))

    def test_first_mode_size_limit(self):
        with pytest.raises(SizeLimitError):
            find_supertheories(cyclic_table(22), "first")


class TestPruningSoundness:
    def test_bad_part_partitions_never_succeed_small(self):
        """Other than all-singletons, a partition with a bad part never
        extends to a theory."""
        for t in GENERATOR_SUITE:
            if not 3 <= t.n <= 6:
                continue
            matrix = sigma_matrix(t)
            bad = find_bad_parts(t, matrix=matrix)
            elements = tuple(range(2, t.n + 1))
            singletons = tuple(mask_of([j]) for j in elements)
            visited = []
            enumerate_partitions(elements, frozenset(), lambda p: visited.append(tuple(p)))
            for parts in visited:
                if not any(p in bad for p in parts):
                    continue
                if parts == singletons:
                    continue
                assert not isinstance(create_kappa(matrix, parts), SuperTheory), (
                    t.name, parts)


class TestCounterLaws:
    def test_main_visits_only_clean_partitions(self):
        """Every partition the pruned search visits has no bad part and is a
        theory, so no builder call in main mode fails."""
        for t in GENERATOR_SUITE:
            if t.n < 2:
                continue
            matrix = sigma_matrix(t)
            bad = find_bad_parts(t, matrix=matrix)
            visited = []
            enumerate_partitions(
                range(2, t.n + 1), bad, lambda p: visited.append(tuple(p)),
                matrix=matrix,
            )
            for parts in visited:
                assert not any(p in bad for p in parts), (t.name, parts)
                assert isinstance(create_kappa(matrix, parts), SuperTheory), (
                    t.name, parts)
            _, stats = find_supertheories(t)
            assert stats.partitions_visited == stats.kappa_calls == len(visited)
            assert stats.partitions_visited == stats.kappa_successes
            assert stats.early_aborts == 0

    def test_first_mode_visits_everything(self):
        for t in [cyclic_table(8), dihedral_table(7), frobenius_pq_table(7, 3)]:
            _, stats = find_supertheories(t, "first")
            assert stats.kappa_calls == bell_number(t.n - 1)
            assert stats.partitions_visited == bell_number(t.n - 1)
            assert stats.bad_part_count is None

    def test_success_counter_accounts_for_injection(self):
        for t in GENERATOR_SUITE:
            if t.n < 2:
                continue
            theories, stats = find_supertheories(t, "main")
            matrix = sigma_matrix(t)
            bad = find_bad_parts(t, matrix=matrix)
            singleton_bad = any(mask_of([j]) in bad for j in range(2, t.n + 1))
            injected = 1 if singleton_bad else 0
            assert stats.kappa_successes == len(theories) - injected
            first_set, first_stats = find_supertheories(t, "first")
            assert first_stats.kappa_successes == len(first_set)

    def test_early_aborts_are_failures(self):
        for t, mode in [(cyclic_table(13), "main"), (cyclic_table(9), "first")]:
            _, stats = find_supertheories(t, mode)
            assert stats.kappa_calls == stats.kappa_successes + stats.early_aborts
            if mode == "first":
                assert stats.early_aborts > 0

    def test_cyclic13_pruning_law(self):
        _, main_stats = find_supertheories(cyclic_table(13), "main")
        _, first_stats = find_supertheories(cyclic_table(13), "first")
        b12 = bell_number(12)
        assert first_stats.kappa_calls == b12
        assert main_stats.kappa_calls < b12 * 0.02
        assert main_stats.bad_part_count == 4020


class TestThreads:
    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_threaded_equals_sequential(self, threads):
        for t in [cyclic_table(11), dihedral_table(10)]:
            seq_set, seq_stats = find_supertheories(t, threads=1)
            par_set, par_stats = find_supertheories(t, threads=threads)
            assert seq_set == par_set
            assert seq_stats.counters() == par_stats.counters()

    def test_document_bytes_identical(self):
        t = cyclic_table(13)
        docs = []
        for threads in (1, 8):
            theories, stats = find_supertheories(t, threads=threads)
            docs.append(json.dumps(
                result_document(t, "main", theories, stats), sort_keys=True))
        assert docs[0] == docs[1]

    def test_bad_thread_count(self):
        with pytest.raises(ValueError):
            find_supertheories(cyclic_table(5), threads=0)


class TestDegenerate:
    def test_trivial_group(self):
        for mode in ("main", "first"):
            theories, stats = find_supertheories(cyclic_table(1), mode)
            assert len(theories) == 1
            th = theories[0]
            assert th.x_parts == (1,) and th.k_parts == (1,)
            assert verify_theory(cyclic_table(1), th)
            assert stats.partitions_visited == 0

    def test_two_classes(self):
        for mode in ("main", "first"):
            theories, stats = find_supertheories(cyclic_table(2), mode)
            assert len(theories) == 1
            assert theories[0].encoding() == ((((1,), (2,))), (((1,), (2,))))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            find_supertheories(cyclic_table(3), "fastest")
        with pytest.raises(ValueError):
            find_supertheories(cyclic_table(1), "fastest")


class TestVerification:
    def test_all_emitted_theories_verify(self):
        for t in GENERATOR_SUITE:
            theories, _ = find_supertheories(t)
            for th in theories:
                assert verify_theory(t, th), (t.name, th.encoding())


class TestDocuments:
    def test_result_document_shape(self):
        t = cyclic_table(7)
        theories, stats = find_supertheories(t)
        doc = result_document(t, "main", theories, stats)
        assert doc["group"] == "Z7" and doc["n"] == 7 and doc["mode"] == "main"
        assert doc["theory_count"] == 4 == len(doc["theories"])
        assert set(doc["stats"]) == {
            "bad_part_count", "partitions_visited", "pruned_nodes", "meet_cuts",
            "tree_edges", "kappa_calls", "kappa_successes", "early_aborts",
        }
        for th_doc in doc["theories"]:
            assert set(th_doc) == {"x_partition", "k_partition", "st"}
        assert "wall" not in json.dumps(doc)

    def test_document_json_round_trip_reverifies(self):
        """k_partition and st in the document are re-derivable from
        x_partition alone."""
        t = dihedral_table(7)
        theories, stats = find_supertheories(t)
        doc = json.loads(json.dumps(result_document(t, "main", theories, stats)))
        matrix = sigma_matrix(t)
        for th_doc in doc["theories"]:
            x_parts = tuple(
                mask_of(p) for p in th_doc["x_partition"] if p != [1])
            rebuilt = create_kappa(matrix, x_parts)
            assert isinstance(rebuilt, SuperTheory)
            assert [list(p) for p in rebuilt.k_indices()] == th_doc["k_partition"]
            st_doc = json.loads(json.dumps(theory_document(rebuilt)))["st"]
            assert st_doc == th_doc["st"]

    def test_theory_document_terms(self):
        t = cyclic_table(3)
        theories, _ = find_supertheories(t)
        doc = json.loads(json.dumps(theory_document(theories[0])))
        assert doc["x_partition"] == [[1], [2, 3]]
        assert doc["k_partition"] == [[1], [2, 3]]
        assert doc["st"] == [[[[1, 1, 0]], [[1, 1, 0]]], [[[2, 1, 0]], [[-1, 1, 0]]]]
