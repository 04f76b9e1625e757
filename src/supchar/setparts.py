"""Set-partition enumeration with forbidden-part and class-side-meet pruning.

The search walks a generating tree: at each node the smallest remaining
element is grouped with every subset of the other remaining elements (odd
codes k, least-significant bit first, so parts are created in increasing
order of their minima), the chosen part is checked against a forbidden set,
and surviving branches recurse on the remainder.  Cutting a branch prunes
every partition below it, which is what makes the forbidden-part filter
worthwhile.

Given the table's SigmaMatrix, the walk also carries the meet (common
refinement) of the level-set partitions of the chosen parts, i.e. the class
partition those parts force, and cuts a candidate once that meet has more
parts than len(parts) + 1 + len(remainder), counting the candidate in
len(parts) + 1.  The forbidden lookup runs first, so only candidates that
pass it pay for a meet.

Soundness: adding parts only refines the meet, so its part count never
falls below the current one; any completion of the branch has at most
len(parts) + 1 + len(remainder) non-trivial character parts; and in a
supercharacter theory the character side and the class side have equal
numbers of parts (Diaconis-Isaacs, Trans. AMS 2008).  So no theory lies
below a cut branch.

Every visited leaf is a theory: the sigma_X of the parts (with the trivial
part) are linearly independent, having disjoint supports in the basis of
irreducible characters, and each is constant on the parts of the forced
class partition, so the class side never has fewer parts than the character
side.  At a leaf the remainder is empty and the cut removes the case of more
parts, leaving equality.

Also here: Bell numbers and the restricted-growth codeword generator used
as the unpruned baseline partition source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .sigma import SigmaMatrix

MAX_CODEWORD_LENGTH = 20


@dataclass
class VisitStats:
    """Counters from one enumeration run."""

    visited_partitions: int = 0
    pruned_nodes: int = 0
    meet_cuts: int = 0
    tree_edges: int = 0


def alpha_decode(elements: Sequence[int], k: int) -> int:
    """Subset of `elements` selected by code k, as a global index mask.

    Bit i-1 of k (least significant first) selects the i-th element, so odd
    codes are exactly the subsets containing the first element.

    >>> alpha_decode((2, 3, 4, 5, 6), 13)  # picks elements 1, 3, 4
    26
    """
    size = len(elements)
    if not 1 <= k <= (1 << size) - 1:
        raise ValueError(f"code {k} out of range for {size} elements")
    mask = 0
    i = 0
    while k:
        if k & 1:
            mask |= 1 << (elements[i] - 1)
        k >>= 1
        i += 1
    return mask


def alpha_encode(elements: Sequence[int], subset_mask: int) -> int:
    """Inverse of alpha_decode: the code of a nonempty subset of `elements`."""
    if subset_mask == 0:
        raise ValueError("subset is empty")
    k = 0
    remaining = subset_mask
    for i, e in enumerate(elements):
        bit = 1 << (e - 1)
        if remaining & bit:
            k |= 1 << i
            remaining ^= bit
    if remaining:
        raise ValueError(f"subset {subset_mask:#x} is not contained in the element list")
    return k


def enumerate_partitions(
    elements: Sequence[int],
    forbidden,
    visitor: Callable[[list[int]], None],
    *,
    top_keys: Iterable[int] | None = None,
    matrix: SigmaMatrix | None = None,
) -> VisitStats:
    """Visit every partition of `elements` that uses no forbidden part.

    `forbidden` is any container of global part masks supporting `in`.  The
    visitor borrows the current list of part masks (ordered by part minima)
    and must copy it to retain it.  `top_keys` optionally restricts the
    root-level part codes to a subset of the odd codes, which is how
    independent branches are handed to worker threads; stats then cover just
    those branches.

    `matrix` turns on the class-side meet cut described in the module
    docstring; pruned_nodes counts forbidden parts and meet_cuts counts the
    candidates the meet cut removes.  Elements are then class indices 2..n of
    that matrix's table.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements) or any(e < 1 for e in elements):
        raise ValueError("elements must be distinct 1-based indices")
    stats = VisitStats()
    parts: list[int] = []

    def recurse(
        rest: tuple[int, ...], keys: Iterable[int] | None, meet: int | None
    ) -> None:
        if not rest:
            stats.visited_partitions += 1
            visitor(parts)
            return
        first = rest[0]
        others = rest[1:]
        first_bit = 1 << (first - 1)
        # parts allowed to a completion, less the candidate's extra elements
        budget = len(parts) + len(rest)
        if keys is None:
            keys = range(1, 1 << len(rest), 2)
        for k in keys:
            sub = k >> 1
            mask = first_bit
            chosen = sub
            i = 0
            while chosen:
                if chosen & 1:
                    mask |= 1 << (others[i] - 1)
                chosen >>= 1
                i += 1
            if mask in forbidden:
                stats.pruned_nodes += 1
                continue
            child_meet = None
            if matrix is not None:
                pid = matrix.level_id(mask)
                child_meet = pid if meet is None else matrix.meet(meet, pid)
                if matrix.level_count(child_meet) > budget - sub.bit_count():
                    stats.meet_cuts += 1
                    continue
            stats.tree_edges += 1
            if sub:
                remainder = tuple(
                    e for i, e in enumerate(others) if not (sub >> i) & 1
                )
            else:
                remainder = others
            parts.append(mask)
            recurse(remainder, None, child_meet)
            parts.pop()

    if top_keys is not None:
        size = len(elements)
        checked = []
        for k in top_keys:
            if not 1 <= k <= (1 << size) - 1 or k % 2 == 0:
                raise ValueError(f"top-level code {k} is not an odd code for {size} elements")
            checked.append(k)
        recurse(elements, checked, None)
    else:
        recurse(elements, None, None)
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


def er_codewords(m: int, visitor: Callable[[tuple[int, ...]], None]) -> int:
    """Emit the restricted-growth codewords of length m in lexicographic order.

    A codeword c assigns element i to block c[i]; the first entry is 1 and
    each later entry may exceed the running maximum by at most one, so each
    partition appears exactly once.  Returns the emission count (the m-th
    Bell number).
    """
    if m < 1:
        raise ValueError(f"codeword length must be positive, got {m}")
    if m > MAX_CODEWORD_LENGTH:
        raise ValueError(
            f"codeword length {m} exceeds the baseline limit {MAX_CODEWORD_LENGTH}"
        )
    word = [1] * m
    count = 0

    def extend(pos: int, peak: int) -> None:
        nonlocal count
        if pos == m:
            count += 1
            visitor(tuple(word))
            return
        for c in range(1, peak + 2):
            word[pos] = c
            extend(pos + 1, peak if c <= peak else c)

    extend(1, 1)
    return count
