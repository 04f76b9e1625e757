"""Set-partition enumeration over a pool of parts, pruned by the dual
character partition.

The search walks a generating tree: at each node the least remaining
element is grouped with every subset of the other remaining elements (odd
codes k, least-significant bit first, so parts are created in increasing
order of their minima), and each choice in the pool recurses on the
remainder.  Cutting a branch prunes every partition below it.

The walk reads only the parts of its pool, as an exact-cover search does
(Knuth, Dancing Links, 2000).  The pool is given in code order (bit i of a
code is elements[i]): the parts a forbidden set allows (enumerate_partitions,
walked without a matrix) or, in the engine, the admissible parts of sigma's
scan.  The walk buckets the pool's parts by their least element, keeping
pool order, and a node holds only the mask of its remaining elements.
Every element below the node's least remaining element is covered by a
chosen part, so a pool part inside the remaining elements that holds the
least one has it as its minimum: the candidates are that element's bucket
filtered to the remaining elements, and no other bucket is read.  They come
in pool order, the order of their odd codes, so the visit order is that of
trying all 2^(r-1) odd codes at a node with r remaining elements;
pruned_nodes adds the 2^(r-1) less the candidates.

Given the table's SigmaMatrix, walk_pool also carries the meet M (common
refinement) of the level-set partitions of the chosen parts, i.e. the class
partition they force, and applies one rule.

The dual rule.  X(M) groups the characters 2..n by their central characters
summed over the blocks of M, omega_chi(B) = sum_{C in B} |C| chi(C) / chi(1).
Below the root, a node keeps only the candidates inside the X(M)-block of
its least remaining element, and a child is cut if its meet M' splits the
candidate or a chosen part across two blocks of X(M'); dual_cuts counts
both.  Soundness, for a theory (X, K) below the node:
1. each class part of K lies in one level set of every sigma_X, so K
   refines the meet of its parts' level partitions, and hence M;
2. the superclass sums span the same algebra as the idempotents of the
   character parts (Diaconis-Isaacs, Trans. AMS 360, 2008, Thm 2.2), so two
   characters share a part exactly when their central characters agree on
   every superclass sum;
3. each block of M is a union of superclasses, so such characters also
   agree on every block of M, and X refines X(M);
4. so every part of X lies in one block of X(M), and no theory lies below a
   dropped candidate or a cut child.

The rule bounds the class side.  Lemma: if M has m blocks of non-identity
classes, X(M) has at least m blocks.  The identity and the m block sums
K_B are linearly independent in the centre Z(CG), their supports being
disjoint.  Each K_B = sum_chi omega_chi(K_B) e_chi over the central
idempotents, and omega_chi(K_B) is constant on each block Y of X(M), so
all m + 1 lie in span{e_1} + span{sum_{chi in Y} e_chi : Y in X(M)}, of
dimension 1 + |X(M)|.  Now say a child passes the dual check with j chosen
parts and r remaining elements.  The chosen parts meet at most j blocks of
X(M'), and the other blocks hold only remaining elements, so
level_count(M') <= |X(M')| <= j + r, the most non-trivial character parts
a completion could have.  A class-side meet cut (level_count(M') > j + r,
as a theory has as many class parts as character parts) would thus remove
only children the dual check removes, so the walk has none; at the root
it is the admissibility bound c(X) + |X| <= n of sigma's scan.

A candidate's level id comes from the matrix's cache, which
sigma.scan_parts fills for the whole admissible pool from its own sums;
X(M) is computed once per meet id by SigmaMatrix.dual_blocks.

Every visited leaf is a theory: the sigma_X of the parts (with the trivial
part) are linearly independent, having disjoint supports in the basis of
irreducible characters, and each is constant on the parts of the forced
class partition, so the class side never has fewer parts than the character
side.  At a leaf r = 0, so by the lemma it has at most j, leaving equality.
The dual rule removes only branches without a theory, so the leaves are
the theories whose parts are in the pool, in tree order, as with the meet
cut alone.

Also here: Bell numbers and the unpruned baseline partition source, one
restricted-growth codeword recursion that hands its visitor the part masks;
er_partitions passes them on and er_codewords reads each codeword off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .chartab import SizeLimitError
from .sigma import SigmaMatrix, mask_of

# The first-mode search spends ~0.33 us per partition on a 2-core x86 host:
# Bell(14) = 190,899,322 partitions took 64 s, so Bell(15) would take about 8
# minutes (extrapolated)
MAX_CODEWORD_LENGTH = 14


@dataclass
class VisitStats:
    """Counters from one enumeration run."""

    visited_partitions: int = 0
    pruned_nodes: int = 0
    dual_cuts: int = 0
    tree_edges: int = 0


def enumerate_partitions(
    elements: Sequence[int],
    forbidden,
    visitor: Callable[[list[int]], None],
) -> VisitStats:
    """Visit every partition of `elements` that uses no forbidden part.

    `forbidden` is any container of global part masks supporting `in`; it is
    probed once for each nonempty subset of `elements`, in code order, and
    walk_pool then reads only the allowed parts, without the dual rule;
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

    `matrix` turns on the dual rule described in the module docstring, the
    walk's one cut beyond the pool: dual_cuts counts the candidates and
    children it removes, and every visited partition is a theory.  Elements
    are then the class indices 2..n of that matrix's table.
    """
    stats = VisitStats()
    parts: list[int] = []
    # least element bit -> the pool's parts with that minimum, in pool order
    by_least: dict[int, list[int]] = {}
    for mask in pool:
        by_least.setdefault(mask & -mask, []).append(mask)
    if matrix is not None:
        level_id, meet_of, dual_blocks = matrix.level_id, matrix.meet, matrix.dual_blocks

    def node(rest: int, meet: int | None) -> None:
        """Walk below the remaining elements `rest`; meet is the id of the
        class partition the parts force (None at the root)."""
        if not rest:
            stats.visited_partitions += 1
            visitor(parts)
            return
        first = rest & -rest
        # every element below first is covered, so a part inside rest that
        # holds first has first as its minimum: the candidates are exactly
        # first's bucket filtered to rest
        candidates = [p for p in by_least.get(first, ()) if p & rest == p]
        stats.pruned_nodes += (1 << (rest.bit_count() - 1)) - len(candidates)
        if meet is not None and candidates:
            # keep the candidates inside the X(M)-block of the least element
            block = dual_blocks(meet)[first]
            found = len(candidates)
            candidates = [p for p in candidates if p & block == p]
            stats.dual_cuts += found - len(candidates)
        for mask in candidates:
            child_meet = None
            if matrix is not None:
                pid = level_id(mask)
                child_meet = pid if meet is None else meet_of(meet, pid)
                blocks = dual_blocks(child_meet)
                if blocks[first] & mask != mask or any(blocks[p & -p] & p != p for p in parts):
                    stats.dual_cuts += 1
                    continue
            stats.tree_edges += 1
            parts.append(mask)
            node(rest ^ mask, child_meet)
            parts.pop()

    node(mask_of(elements), None)
    return stats


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
    return _restricted_growth([1 << (e - 1) for e in elements], visitor)


def er_codewords(m: int, visitor: Callable[[tuple[int, ...]], None]) -> int:
    """Emit the restricted-growth codewords of length m in lexicographic order.

    A codeword c assigns element i to block c[i]; the first entry is 1 and
    each later entry may exceed the running maximum by at most one, so each
    partition appears exactly once.  Returns the emission count (the m-th
    Bell number).
    """
    if m < 1:
        raise ValueError(f"codeword length must be positive, got {m}")

    def emit(parts: list[int]) -> None:
        # element i is byte i of a mask and part j holds label j + 1, so the
        # sum of label * part holds each element's label in its byte (labels
        # stay below 256: _restricted_growth refuses m > MAX_CODEWORD_LENGTH)
        code = 0
        for label, part in enumerate(parts, 1):
            code += label * part
        visitor(tuple(code.to_bytes(m, "little")))

    return _restricted_growth([1 << 8 * i for i in range(m)], emit)


def _restricted_growth(bits: list[int], visitor: Callable[[list[int]], None]) -> int:
    """The codeword recursion (Er, Comput. J. 1988) behind er_partitions and
    er_codewords.  Element i, of mask bits[i], joins each open block in turn
    (its bit ORed into that part, undone on return) and then opens a new one;
    the visitor sees each complete list of parts, ordered by their minima, so
    part j is block j + 1 of the codeword.  Returns the visit count."""
    m = len(bits)
    if m > MAX_CODEWORD_LENGTH:
        raise SizeLimitError(
            f"the unpruned baseline visits all partitions of {m} elements; "
            f"the limit is {MAX_CODEWORD_LENGTH}"
        )
    parts: list[int] = []
    if not m:
        visitor(parts)
        return 1
    count = 0
    last = m - 1

    def extend(pos: int) -> None:
        nonlocal count
        bit = bits[pos]
        deeper = pos < last
        if not deeper:  # the last element closes one partition per choice
            count += len(parts) + 1
        for i in range(len(parts)):
            parts[i] |= bit
            if deeper:
                extend(pos + 1)
            else:
                visitor(parts)
            parts[i] ^= bit
        parts.append(bit)
        if deeper:
            extend(pos + 1)
        else:
            visitor(parts)
        parts.pop()

    extend(0)
    return count


def _checked(elements: Sequence[int]) -> tuple[int, ...]:
    elements = tuple(elements)
    if len(set(elements)) != len(elements) or any(e < 1 for e in elements):
        raise ValueError("elements must be distinct 1-based indices")
    return elements
