"""Search drivers: counts, mode agreement, oracle agreement, counters."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import pytest

import supchar.engine
from supchar.chartab import SizeLimitError, cyclic_table, dihedral_table, frobenius_pq_table
from supchar.exactnum import Cyclotomic, OrderMismatchError, root_of_unity
from supchar.engine import (
    MODES,
    TheorySet,
    brute_force_supertheories,
    count_supertheories,
    find_supertheories,
    result_document,
    theory_document,
)
from supchar.kappa import (
    TOO_MANY_PARTS,
    KappaFailure,
    SuperTheory,
    create_kappa,
    supercharacter_values,
    verify_theory,
)
from supchar.setparts import (
    bell_number,
    enumerate_partitions,
    er_codewords,
    er_partitions,
    walk_pool,
)
from supchar.sigma import find_bad_parts, indices_of, mask_of, scan_parts, sigma_matrix
from test_kappa import flat_table, skew_table


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

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_cyclic_prime_divisor_law(self, p):
        """Every Schur ring over Z_p is the orbit ring of a subgroup of
        (Z/p)^x (Leung and Man 1996), so Z_p has d(p - 1) theories; past
        first mode's 15 classes this is the only completeness check."""
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

    def test_main_mode_size_limit(self):
        with pytest.raises(SizeLimitError):
            find_supertheories(cyclic_table(25))


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


def admissible(matrix, mask):
    """c(X) + |X| <= n, with c(X) the level sets of sigma_X on classes 2..n."""
    return matrix.level_count(matrix.level_id(mask)) + mask.bit_count() <= matrix.n


class TestAdmissibilityBound:
    """Every character part of a theory is admissible, checked on theories
    found without the admissible pool."""

    @pytest.mark.parametrize(
        "t", [t for t in GENERATOR_SUITE if 2 <= t.n <= 10], ids=lambda t: t.name)
    def test_first_mode_theories(self, t):
        matrix = sigma_matrix(t)
        theories, _ = find_supertheories(t, "first")
        for th in theories:
            for part in th.x_indices():
                if part != (1,):
                    assert admissible(matrix, mask_of(part)), (t.name, part)

    @pytest.mark.parametrize(
        "t", [t for t in GENERATOR_SUITE if 2 <= t.n <= 7], ids=lambda t: t.name)
    def test_brute_force_theories(self, t):
        matrix = sigma_matrix(t)
        for x_enc, _ in brute_force_supertheories(t):
            for part in x_enc:
                if part != (1,):
                    assert admissible(matrix, mask_of(part)), (t.name, part)


class TestCounterLaws:
    def test_main_visits_only_theories(self):
        """Every partition the pruned search visits is a theory made of
        admissible parts, so no builder call in main mode fails; a bad part
        appears only in the all-singleton partition."""
        for t in GENERATOR_SUITE:
            if t.n < 2:
                continue
            matrix = sigma_matrix(t)
            bad = find_bad_parts(t, matrix=matrix)
            _, pool = scan_parts(matrix)
            visited = []
            walk_pool(tuple(range(2, t.n + 1)), pool,
                      lambda p: visited.append(tuple(p)), matrix=matrix)
            for parts in visited:
                assert all(admissible(matrix, p) for p in parts), (t.name, parts)
                if any(p in bad for p in parts):
                    assert len(parts) == t.n - 1, (t.name, parts)
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
            assert stats.admissible_parts is None

    def test_every_theory_comes_from_the_walk(self):
        """Nothing is added outside the walk: each theory is one visit and
        one successful builder call, also where singletons are bad."""
        for t in GENERATOR_SUITE:
            if t.n < 2:
                continue
            theories, stats = find_supertheories(t, "main")
            assert (stats.partitions_visited == stats.kappa_calls
                    == stats.kappa_successes == len(theories)), t.name
            first_set, first_stats = find_supertheories(t, "first")
            assert first_stats.kappa_successes == len(first_set)

    def test_wall_times_split_total_by_phase(self):
        t = dihedral_table(9)
        for mode, phases in [("main", {"matrix", "bad_parts", "search", "total"}),
                             ("first", {"matrix", "search", "total"})]:
            _, stats = find_supertheories(t, mode)
            assert set(stats.wall_times) == phases
            parts = sum(v for k, v in stats.wall_times.items() if k != "total")
            assert parts <= stats.wall_times["total"]

    def test_early_aborts_are_failures(self):
        for t, mode in [(cyclic_table(13), "main"), (cyclic_table(9), "first")]:
            _, stats = find_supertheories(t, mode)
            assert stats.kappa_calls == stats.kappa_successes + stats.early_aborts
            if mode == "first":
                assert stats.early_aborts > 0

    @pytest.mark.parametrize("t,mode", [
        pytest.param(t, mode, id=f"{t.name}-{mode}")
        for t in [cyclic_table(7), dihedral_table(5), frobenius_pq_table(7, 3), cyclic_table(9)]
        for mode in ("main", "first")
    ] + [pytest.param(t, "first", id=f"{t.name}-first") for t in [flat_table(), skew_table()]])
    def test_counters_count_builder_calls(self, monkeypatch, t, mode):
        """kappa_calls, kappa_successes and early_aborts count builder calls
        and their outcomes; the results the builder keeps are the theories
        and the TOO_FEW_PARTS results (flat gives one, skew aborts), and the
        engine derives the aborts from the calls and those.

        In main mode a spy on the builder the engine walks with (the closure
        class_side_builder returns to it) sees one call per partition.  In
        first mode the sibling pass builds p + 1 partitions per call, so the
        counters are checked against a reference instead: create_kappa on a
        copy of each partition er_partitions lends, in the same order as
        the results the pass keeps."""
        if mode == "main":
            results = []
            real = supchar.engine.class_side_builder

            def spy_builder(matrix, keep):
                build = real(matrix, keep)

                def spy(parts):
                    results.append(build(parts))
                    return results[-1]

                return spy

            monkeypatch.setattr(supchar.engine, "class_side_builder", spy_builder)
        else:
            kept, placements = [], []
            real = supchar.engine.sibling_builder

            def spy_builder(matrix, keep):
                def spy_keep(result):
                    kept.append(result)
                    keep(result)

                place = real(matrix, spy_keep)

                def spy(parts, bit):
                    placements.append(len(parts) + 1)
                    place(parts, bit)

                return spy

            monkeypatch.setattr(supchar.engine, "sibling_builder", spy_builder)
            matrix, results = sigma_matrix(t), []
            er_partitions(range(2, t.n + 1),
                          lambda parts: results.append(create_kappa(matrix, tuple(parts))))
        theories, stats = find_supertheories(t, mode)
        successes = sum(isinstance(r, SuperTheory) for r in results)
        aborts = sum(isinstance(r, KappaFailure) and r.reason == TOO_MANY_PARTS
                     for r in results)
        assert stats.kappa_calls == len(results)
        assert stats.kappa_successes == successes == len(theories)
        assert stats.early_aborts == aborts
        assert len(results) - successes - aborts == (t.name == "flat")
        if mode == "first":
            assert stats.kappa_calls == sum(placements) == bell_number(t.n - 1)
            assert kept == [r for r in results
                            if not (isinstance(r, KappaFailure) and r.reason == TOO_MANY_PARTS)]

    @pytest.mark.parametrize("t,counts", [
        pytest.param(t, counts, id=t.name) for t, counts in [
            (cyclic_table(13), (4020, 69, 5105, 104, 28, 6)),
            (cyclic_table(14), (7236, 410, 11048, 881, 58, 13)),
            (dihedral_table(25), (6160, 157, 9247, 190, 34, 10)),
            (dihedral_table(27), (12150, 368, 19081, 497, 46, 13)),
            (dihedral_table(31), (65460, 80, 68300, 77, 26, 5)),
            (frobenius_pq_table(19, 3), (108, 46, 251, 67, 28, 9)),
            (cyclic_table(17), (65280, 183, 78431, 307, 31, 5)),
            (cyclic_table(19), (261576, 453, 326088, 766, 39, 6)),
            (cyclic_table(16), (18816, 2177, 52141, 6116, 172, 37)),
            (dihedral_table(33), (107640, 1600, 165533, 2659, 61, 13)),
        ]
    ] + [
        pytest.param(t, counts, id=t.name, marks=pytest.mark.stretch) for t, counts in [
            (cyclic_table(18), (66600, 4442, 189629, 10400, 174, 42)),
            (dihedral_table(35), (189456, 2049, 322850, 3806, 83, 20)),
            (cyclic_table(20), (319296, 11539, 933735, 34986, 230, 47)),
            (cyclic_table(21), (795816, 6820, 1789725, 19319, 138, 27)),
            (cyclic_table(22), (2065620, 6271, 2889055, 14054, 82, 13)),
            (cyclic_table(23), (4192254, 1510, 4892008, 2333, 36, 4)),
        ]
    ])
    def test_pinned_walk_counters(self, t, counts):
        """bad_part_count, admissible_parts, pruned_nodes, dual_cuts,
        tree_edges and the visits (every visit a kappa call and a success) of
        the main walk."""
        bad, pool, pruned, dual, edges, visits = counts
        _, stats = find_supertheories(t)
        assert stats.counters() == {
            "bad_part_count": bad,
            "admissible_parts": pool,
            "partitions_visited": visits,
            "pruned_nodes": pruned,
            "dual_cuts": dual,
            "tree_edges": edges,
            "kappa_calls": visits,
            "kappa_successes": visits,
            "early_aborts": 0,
        }

    @pytest.mark.stretch
    def test_z24_theories_verify(self):
        """Z24 has 172 theories, as many as the Schur rings over Z24 by the
        Leung-Man recursion, and each re-verifies against the table.  Its
        pool is the widest of any table here, so every counter of the walk
        over it is pinned."""
        t = cyclic_table(24)
        theories, stats = find_supertheories(t)
        assert len(theories) == 172
        assert all(verify_theory(t, th) for th in theories)
        assert stats.counters() == {
            "bad_part_count": 3017984,
            "admissible_parts": 206611,
            "partitions_visited": 172,
            "pruned_nodes": 22502978,
            "dual_cuts": 1014303,
            "tree_edges": 927,
            "kappa_calls": 172,
            "kappa_successes": 172,
            "early_aborts": 0,
        }


class TestFirstModeRoute:
    """first mode walks the part masks of er_partitions; these tests keep it
    equal to the codeword route it replaced: er_codewords, each codeword
    turned into part masks, and one create_kappa call per codeword."""

    @staticmethod
    def codeword_route(t):
        matrix = sigma_matrix(t)
        found, calls, aborts = {}, 0, 0

        def visit(code):
            nonlocal calls, aborts
            parts = [0] * max(code)
            for pos, label in enumerate(code):
                parts[label - 1] |= 1 << (pos + 1)
            calls += 1
            result = create_kappa(matrix, tuple(parts))
            if isinstance(result, SuperTheory):
                found.setdefault(result.encoding(), result)
            elif result.reason == TOO_MANY_PARTS:
                aborts += 1

        visits = er_codewords(t.n - 1, visit)
        return TheorySet(found.values()), (visits, calls, len(found), aborts)

    @pytest.mark.parametrize(
        "t", [t for t in GENERATOR_SUITE if t.n >= 2], ids=lambda t: t.name)
    def test_equals_codeword_route(self, t):
        theories, stats = find_supertheories(t, "first")
        expected, (visits, calls, successes, aborts) = self.codeword_route(t)
        assert theories == expected
        assert [th.st for th in theories] == [th.st for th in expected]
        assert stats.counters() == {
            "bad_part_count": None,
            "admissible_parts": None,
            "partitions_visited": visits,
            "pruned_nodes": 0,
            "dual_cuts": 0,
            "tree_edges": 0,
            "kappa_calls": calls,
            "kappa_successes": successes,
            "early_aborts": aborts,
        }

    @pytest.mark.parametrize("t,counts", [
        (cyclic_table(7), (4, 203, 199)),
        (cyclic_table(9), (7, 4140, 4133)),
        (cyclic_table(11), (4, 115975, 115971)),
        (cyclic_table(12), (32, 678570, 678538)),
    ], ids=["Z7", "Z9", "Z11", "Z12"])
    def test_pinned_first_counters(self, t, counts):
        """Theories, visits (each one kappa call) and early aborts."""
        count, visits, aborts = counts
        theories, stats = find_supertheories(t, "first")
        assert len(theories) == stats.kappa_successes == count
        assert stats.partitions_visited == stats.kappa_calls == visits
        assert stats.early_aborts == aborts


def _join(a, b):
    """Finest partition coarser than both partitions (tuples of masks)."""
    blocks = list(a)
    for q in b:
        merged = q
        for p in blocks:
            if p & q:
                merged |= p
        blocks = [p for p in blocks if not p & q] + [merged]
    return tuple(indices_of(m) for m in sorted(blocks, key=lambda m: m & -m))


JOIN_TABLES = [
    t for t in GENERATOR_SUITE + MEET_CUT_SUITE + [cyclic_table(12), frobenius_pq_table(13, 3)]
    if t.n <= 12
]


class TestJoinLaw:
    def test_join_of_partitions(self):
        a = (mask_of([1]), mask_of([2, 3]), mask_of([4]), mask_of([5]), mask_of([6]))
        b = (mask_of([1]), mask_of([2]), mask_of([3, 4]), mask_of([5, 6]))
        assert _join(a, b) == ((1,), (2, 3, 4), (5, 6))
        assert _join(a, a) == tuple(indices_of(m) for m in a)

    @pytest.mark.parametrize("t", JOIN_TABLES, ids=lambda t: t.name)
    def test_theories_are_closed_under_join(self, t):
        """The supercharacter theories of a group form a lattice whose join
        joins both partitions (Hendrickson, Comm. Algebra 2012): joining the
        character sides and the class sides of two found theories gives a
        found theory."""
        theories, _ = find_supertheories(t)
        encodings = set(theories.encodings())
        for a, b in itertools.combinations_with_replacement(theories, 2):
            joined = (_join(a.x_parts, b.x_parts), _join(a.k_parts, b.k_parts))
            assert joined in encodings, (t.name, a.encoding(), b.encoding())


def _galois_images(t):
    """For each k coprime to the root order, the character index that
    zeta -> zeta^k sends each character to, as a dict."""
    order = t.root_order
    rows = {row: i for i, row in enumerate(t.values, 1)}
    for k in range(1, order + 1):
        if math.gcd(k, order) == 1:
            yield k, {
                i: rows[tuple(Cyclotomic(order, [(e * k, c) for e, c in v.terms()])
                              for v in row)]
                for i, row in enumerate(t.values, 1)
            }


class TestGaloisLaw:
    @pytest.mark.parametrize(
        "t", GENERATOR_SUITE + [cyclic_table(12), dihedral_table(27)], ids=lambda t: t.name)
    def test_galois_conjugation_permutes_the_theories(self, t):
        """Applying zeta -> zeta^k to every value, for k coprime to the root
        order, permutes the irreducible characters, and that permutation
        maps the set of main's character partitions to itself.  The law
        cannot see an omission of a whole Galois orbit of theories: the set
        without that orbit is mapped to itself as well.  On these tables
        every orbit is a single theory, so it sees no omission at all; it
        sees a partition whose conjugate is missing, as when the search
        reads two character rows in swapped order (14 of these tables)."""
        sides = {th.x_indices() for th in find_supertheories(t)[0]}
        for k, image in _galois_images(t):
            assert sorted(image.values()) == list(range(1, t.n + 1)), (t.name, k)
            mapped = {tuple(sorted(tuple(sorted(image[i] for i in part)) for part in x))
                      for x in sides}
            assert mapped == sides, (t.name, k)


class TestThreads:
    def test_bad_thread_count(self):
        for threads in (0, 2):
            with pytest.raises(ValueError):
                find_supertheories(cyclic_table(5), threads=threads)


class TestDegenerate:
    def test_trivial_group(self):
        for mode in ("main", "first"):
            theories, stats = find_supertheories(cyclic_table(1), mode)
            assert len(theories) == 1
            th = theories[0]
            assert th.x_parts == (1,) and th.k_parts == (1,)
            assert verify_theory(cyclic_table(1), th)
            assert stats.partitions_visited == 0
            scanned = 0 if mode == "main" else None
            assert stats.bad_part_count == stats.admissible_parts == scanned

    def test_two_classes(self):
        for mode in ("main", "first"):
            theories, stats = find_supertheories(cyclic_table(2), mode)
            assert len(theories) == 1
            assert theories[0].encoding() == ((((1,), (2,))), (((1,), (2,))))

    @pytest.mark.parametrize("order", [3, 7])
    def test_value_of_another_root_order_rejected(self, order):
        """One Z5 value at root order 3 or 7 stops the search with a typed
        error naming its row and column, in both modes."""
        t = cyclic_table(5)
        rows = [list(r) for r in t.values]
        rows[2][3] = root_of_unity(order, 1)
        mixed = dataclasses.replace(t, values=tuple(map(tuple, rows)))
        for mode in ("main", "first"):
            with pytest.raises(OrderMismatchError, match=f"row 3, column 4 has root order {order}"):
                find_supertheories(mixed, mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            find_supertheories(cyclic_table(3), "fastest")
        with pytest.raises(ValueError):
            find_supertheories(cyclic_table(1), "fastest")


def rescaled(t, factor):
    """The table with every non-trivial row times factor: no longer a
    character table, but its level sets and central characters, and so its
    theories, are those of t."""
    rows = (t.values[0],) + tuple(tuple(v.scale(factor) for v in row) for row in t.values[1:])
    return dataclasses.replace(t, values=rows, name=f"{t.name}*{factor}")


RESCALED_SUITE = [
    rescaled(t, factor)
    for t in [cyclic_table(7), dihedral_table(9), frobenius_pq_table(7, 3), cyclic_table(10)]
    for factor in (Fraction(1, 3), 2 ** 70)
]


class TestVerification:
    def test_all_emitted_theories_verify(self):
        for t in GENERATOR_SUITE:
            theories, _ = find_supertheories(t)
            for th in theories:
                assert verify_theory(t, th), (t.name, th.encoding())

    @pytest.mark.parametrize("t", GENERATOR_SUITE + RESCALED_SUITE, ids=lambda t: t.name)
    @pytest.mark.parametrize("mode", MODES)
    def test_st_equals_sigma_values(self, t, mode):
        """Each st row, built from per-(row, class) lists, is sigma of its
        part at the first class of each class part, term by term and with
        the same coefficient types, as supercharacter_values sums it from
        the table's own values."""
        theories, _ = find_supertheories(t, mode)
        for th in theories:
            cols = [(k & -k).bit_length() - 1 for k in th.k_parts]
            for x_mask, row in zip(th.x_parts, th.st):
                values = supercharacter_values(t, x_mask)
                want = [[(e, c, type(c)) for e, c in values[c].terms()] for c in cols]
                got = [[(e, c, type(c)) for e, c in v.terms()] for v in row]
                assert got == want, (t.name, th.encoding(), x_mask)


class TestDocuments:
    def test_result_document_shape(self):
        t = cyclic_table(7)
        theories, stats = find_supertheories(t)
        doc = result_document(t, "main", theories, stats)
        assert doc["group"] == "Z7" and doc["n"] == 7 and doc["mode"] == "main"
        assert doc["theory_count"] == 4 == len(doc["theories"])
        assert set(doc["stats"]) == {
            "bad_part_count", "admissible_parts", "partitions_visited",
            "pruned_nodes", "dual_cuts", "tree_edges", "kappa_calls",
            "kappa_successes", "early_aborts",
        }
        assert doc["stats"]["bad_part_count"] == 54
        assert doc["stats"]["admissible_parts"] == 15
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
