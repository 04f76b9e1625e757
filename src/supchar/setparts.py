"""Set-partition enumeration over a pool of parts, with class-side-meet
pruning.

The search walks a generating tree: at each node the least remaining
element is grouped with every subset of the other remaining elements (odd
codes k, least-significant bit first, so parts are created in increasing
order of their minima), and each choice in the pool recurses on the
remainder.  Cutting a branch prunes every partition below it.

The walk reads only the parts of its pool, as an exact-cover search does
(Knuth, Dancing Links, 2000).  The pool is given in code order (bit i of a
code is elements[i]): either the parts a forbidden set allows, probed once
per nonempty subset by enumerate_partitions, which walks them without the
meet cut, or, in the engine, the admissible parts that sigma's scan keeps.
Each node holds the mask of the remaining elements and, as a bitset over the
pool (bit i for pool[i]), the pool's parts inside it.  With contains[e] the
bitset of the parts holding element e, the candidates are the node's parts
AND contains[least remaining element], and a child's bitset is the others
with contains[x] cleared for each x of the chosen part.  The candidates are
taken in ascending bit order, which is the order of their odd codes, so the
visit order and every counter are those of trying all 2^(r-1) odd codes at
a node with r remaining elements; pruned_nodes adds the 2^(r-1) less the
candidates.

Given the table's SigmaMatrix, walk_pool also carries the meet (common
refinement) of the level-set partitions of the chosen parts, i.e. the class
partition those parts force, and cuts a candidate once that meet has more
parts than len(parts) + 1 + len(remainder), counting the candidate in
len(parts) + 1.  At a node with meet M, r remaining elements and
budget = len(parts) + r + 1, a candidate X with level-set partition L(X) is
cut iff level_count(meet(M, L(X))) + |X| > budget.  Which parts pass thus
depends only on (M, budget), and the walk applies this same rule in bulk: a
pass set, the bitset of the pool parts that pass, is built once per
(M, budget) in numpy from the part counts of the meets of M with the pool's
distinct level-set partitions, kept in a bounded LRU cache and ANDed with
the candidates.  meet_cuts counts the candidates it removes.
SigmaMatrix.meet runs on tree edges only, and parts outside the pool never
pay for a meet.

Soundness: adding parts only refines the meet, so its part count never
falls below the current one; any completion of the branch has at most
len(parts) + 1 + len(remainder) non-trivial character parts; and in a
supercharacter theory the character side and the class side have equal
numbers of parts (Diaconis-Isaacs, Trans. AMS 2008).  So no theory lies
below a cut branch.  At the root this cut is the admissibility bound
c(X) + |X| <= n of sigma, and its budget only shrinks with depth, so a pool
of admissible parts loses no visit and no tree edge.

Every visited leaf is a theory: the sigma_X of the parts (with the trivial
part) are linearly independent, having disjoint supports in the basis of
irreducible characters, and each is constant on the parts of the forced
class partition, so the class side never has fewer parts than the character
side.  At a leaf the remainder is empty and the cut removes the case of more
parts, leaving equality.

Also here: Bell numbers and the unpruned baseline partition source, one
restricted-growth codeword recursion that hands its visitor either the part
masks (er_partitions) or the codeword itself (er_codewords).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chartab import SizeLimitError
from .sigma import SigmaMatrix, mask_of

# The first-mode search spends ~2.5 us per partition on a 2-core x86 host:
# Bell(14) = 190,899,322 partitions take about 9 minutes, Bell(15) an hour
MAX_CODEWORD_LENGTH = 14
# pass sets a walk keeps, least recently used dropped first; each holds one
# bit per pool part, so 3,000 take about 78 MB on Z24's 206,611 parts
PASS_SET_LIMIT = 3000


@dataclass
class VisitStats:
    """Counters from one enumeration run."""

    visited_partitions: int = 0
    pruned_nodes: int = 0
    meet_cuts: int = 0
    tree_edges: int = 0


def enumerate_partitions(
    elements: Sequence[int],
    forbidden,
    visitor: Callable[[list[int]], None],
) -> VisitStats:
    """Visit every partition of `elements` that uses no forbidden part.

    `forbidden` is any container of global part masks supporting `in`; it is
    probed once for each nonempty subset of `elements`, in code order, and
    walk_pool then reads only the allowed parts, without the meet cut;
    pruned_nodes counts the forbidden candidates.  Candidates come in odd-code
    order.  The visitor borrows the current list of part masks (ordered by
    part minima) and must copy it to retain it.
    """
    elements = _checked(elements)
    prefix = [mask_of(elements[: i + 1]) for i in range(len(elements))]
    pool, mask = [], 0
    for code in range(1, 1 << len(elements)):
        # code - 1 to code flips the low set bit of code and every bit below
        mask ^= prefix[(code & -code).bit_length() - 1]
        if mask not in forbidden:
            pool.append(mask)
    return walk_pool(elements, pool, visitor)


def walk_pool(
    elements: tuple[int, ...],
    pool: list[int],
    visitor: Callable[[list[int]], None],
    *,
    matrix: SigmaMatrix | None = None,
) -> VisitStats:
    """Visit every partition of `elements` (increasing indices) into parts
    of `pool`, which holds global masks of nonempty subsets of `elements` in
    code order; pruned_nodes counts the subsets missing from the pool where
    they were candidates.

    `matrix` turns on the class-side meet cut described in the module
    docstring, and meet_cuts counts the candidates it removes.  It is the
    per-candidate rule applied in bulk, one pass set per (meet, budget), so
    SigmaMatrix.meet runs only on tree edges.  Elements are then class
    indices 2..n of that matrix's table.
    """
    stats = VisitStats()
    parts: list[int] = []
    masks = np.array(pool, dtype=object)
    contains: dict[int, int] = {}  # element bit -> bitset of the parts holding it
    for e in elements:
        bit = 1 << (e - 1)
        contains[bit] = _bitset((masks & bit) != 0)
    excluded = {bit: ~c for bit, c in contains.items()}
    if matrix is not None:
        ids = [matrix.level_id(mask) for mask in pool]
        pass_set = _pass_sets(matrix, pool, ids)

    def node(rest: int, avail: int, meet: int | None) -> None:
        """Walk below the remaining elements `rest`, whose pool parts are the
        bits of `avail`."""
        if not rest:
            stats.visited_partitions += 1
            visitor(parts)
            return
        first = rest & -rest
        candidates = avail & contains[first]
        others = avail ^ candidates
        size = rest.bit_count()
        found = candidates.bit_count()
        stats.pruned_nodes += (1 << (size - 1)) - found
        if matrix is not None and candidates:
            # len(parts) + 1 + len(remainder) plus the candidate's size
            candidates &= pass_set(meet, len(parts) + size + 1)
            stats.meet_cuts += found - candidates.bit_count()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            mask = pool[i]
            child_meet = None
            if matrix is not None:
                child_meet = ids[i] if meet is None else matrix.meet(meet, ids[i])
            stats.tree_edges += 1
            child = others
            tail = mask ^ first
            while tail:
                bit = tail & -tail
                tail ^= bit
                child &= excluded[bit]
            parts.append(mask)
            node(rest ^ mask, child, child_meet)
            parts.pop()

    node(mask_of(elements), (1 << len(pool)) - 1, None)
    return stats


def _pass_sets(
    matrix: SigmaMatrix, pool: list[int], ids: list[int]
) -> Callable[[int | None, int], int]:
    """pass_set(meet, budget): the bitset of the pool parts X (bit i for
    pool[i], whose level id is ids[i]) with
    level_count(meet(M, L(X))) + |X| <= budget, M the partition of id meet;
    meet None stands for the root, where the meet is L(X) itself.

    The count for X depends only on X's level partition, so it is computed
    once per meet over the pool's distinct level partitions, by counting the
    distinct (L, M) label pairs of each in numpy.  The pass sets themselves,
    one bit per pool part, go to an LRU cache of PASS_SET_LIMIT entries; a
    per-meet array as long as the pool would not fit in memory on the large
    pools (206,611 parts on Z24, with about 3,900 meets)."""
    classes, class_of = np.unique(np.array(ids, dtype=np.intp), return_inverse=True)
    # labels run below width, so L label * width + M label names an (L, M) pair
    width = matrix.n - 1
    shifted = np.array(
        [matrix.level_rgs(pid) for pid in classes.tolist()], dtype=np.int16
    ).reshape(len(classes), width) * width
    sizes = np.array([mask.bit_count() for mask in pool], dtype=np.int16)
    counts: dict[int | None, np.ndarray] = {}

    def meet_counts(meet: int | None) -> np.ndarray:
        out = counts.get(meet)
        if out is None:
            pairs = shifted if meet is None else shifted + np.array(
                matrix.level_rgs(meet), dtype=np.int16)
            pairs = np.sort(pairs, axis=1)
            out = (np.count_nonzero(np.diff(pairs, axis=1), axis=1) + 1).astype(np.uint8)
            counts[meet] = out
        return out

    @functools.lru_cache(maxsize=PASS_SET_LIMIT)
    def pass_set(meet: int | None, budget: int) -> int:
        return _bitset(meet_counts(meet)[class_of] + sizes <= budget)

    return pass_set


def _bitset(flags: np.ndarray) -> int:
    """The int with bit i set where flags[i] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def bell_number(m: int) -> int:
    """Number of set partitions of an m-element set.

    >>> [bell_number(i) for i in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if m < 0:
        raise ValueError(f"negative set size {m}")
    bells = [1]
    for k in range(m):
        nxt = sum(math.comb(k, i) * bells[i] for i in range(k + 1))
        bells.append(nxt)
    return bells[m]


def er_partitions(
    elements: Sequence[int], visitor: Callable[[list[int]], None]
) -> int:
    """Visit every partition of `elements` (1-based indices), unpruned, in
    restricted-growth codeword order.  Returns the visit count (a Bell number).
    More than MAX_CODEWORD_LENGTH elements raise SizeLimitError.

    The visitor borrows the list of part masks, ordered by part minima, and
    must copy it to retain it.

    >>> er_partitions((2, 3), print)
    [6]
    [2, 4]
    2
    """
    elements = _checked(elements)
    return _restricted_growth([1 << (e - 1) for e in elements], visitor, [0] * len(elements))


def er_codewords(m: int, visitor: Callable[[tuple[int, ...]], None]) -> int:
    """Emit the restricted-growth codewords of length m in lexicographic order.

    A codeword c assigns element i to block c[i]; the first entry is 1 and
    each later entry may exceed the running maximum by at most one, so each
    partition appears exactly once.  Returns the emission count (the m-th
    Bell number).
    """
    if m < 1:
        raise ValueError(f"codeword length must be positive, got {m}")
    word = [0] * m
    return _restricted_growth([1 << i for i in range(m)], lambda _: visitor(tuple(word)), word)


def _restricted_growth(
    bits: list[int], visitor: Callable[[list[int]], None], word: list[int]
) -> int:
    """The codeword recursion (Er, Comput. J. 1988) behind er_partitions and
    er_codewords.  Element i, of mask bits[i], joins each open block in turn
    (its bit ORed into that part, undone on return) and then opens a new one,
    while word[i] holds its 1-based block label; the visitor sees each
    complete list of parts.  Returns the visit count."""
    m = len(bits)
    if m > MAX_CODEWORD_LENGTH:
        raise SizeLimitError(
            f"the unpruned baseline visits all partitions of {m} elements; "
            f"the limit is {MAX_CODEWORD_LENGTH}"
        )
    parts: list[int] = []
    count = 0

    def extend(pos: int) -> None:
        nonlocal count
        if pos == m:
            count += 1
            visitor(parts)
            return
        bit = bits[pos]
        for i in range(len(parts)):
            word[pos] = i + 1
            parts[i] |= bit
            extend(pos + 1)
            parts[i] ^= bit
        word[pos] = len(parts) + 1
        parts.append(bit)
        extend(pos + 1)
        parts.pop()

    extend(0)
    return count


def _checked(elements: Sequence[int]) -> tuple[int, ...]:
    elements = tuple(elements)
    if len(set(elements)) != len(elements) or any(e < 1 for e in elements):
        raise ValueError("elements must be distinct 1-based indices")
    return elements
