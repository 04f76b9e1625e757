"""Building the class-side partition for a candidate character partition.

Given a partition of the non-trivial character indices (the trivial
character is an implicit extra part), the class side is forced: two classes
can share a part only if every sigma row of the candidate takes equal
values on them.  The builder therefore intersects the per-part level-set
partitions of the non-identity classes, keeping the identity class alone.
The candidate extends to a supercharacter theory exactly when the forced
class partition has the same number of parts as the character side.

Failures are shared values, not exceptions.  Exceeding the part budget is
reported with a certifying column: restricted to classes 2..column, the rows
already processed force more parts than allowed.  Each column has one such
value, and TOO_FEW is the one value for a class side that falls short, so
the engine tells failures apart by identity.

The sibling pass.  First mode visits every partition, and its last level
comes in sibling groups: for each partition `parts` (p parts) of the other
classes' characters, the last character's bit joins part i for each i in
turn (budget p), then stands alone (budget p + 1).  Placement i leaves
parts[:i] untouched, so the pass resumes the one fold from the meet of
parts[:i], carried from placement to placement, and returns as soon as that
prefix meet has more than p + 1 levels.  This shares work and prunes
nothing.  The meet is associative, so a resumed fold ends at the meet a
fold from nothing reaches.  The meet only refines, so level counts only
grow along a fold, and a partition aborts exactly when its final meet has
more levels than its budget.  The final meet of every later placement, the
lone one included, refines that prefix meet, so it exceeds p + 1 and with
it every later budget: each skipped partition aborts.  Every partition's
outcome is thus decided exactly, and the kept results come in visit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Literal, Sequence, Union

from .chartab import MAX_CLASSES
from .exactnum import Cyclotomic
from .sigma import SigmaMatrix, indices_of

CharPartition = tuple[int, ...]

TOO_MANY_PARTS: Literal["too_many_parts"] = "too_many_parts"
TOO_FEW_PARTS: Literal["too_few_parts"] = "too_few_parts"


@dataclass(frozen=True)
class KappaFailure:
    """Why a candidate character partition admits no matching class partition."""

    reason: str
    column: int | None = None


@dataclass(frozen=True)
class SuperTheory:
    """A supercharacter theory given by matching character and class partitions.

    x_parts and k_parts are tuples of index masks ordered by part minima,
    both including the index-1 singleton.  st is the square table of
    sigma_X values at one representative class per class part (first
    occurrence order, so the first column belongs to the identity class).
    """

    x_parts: tuple[int, ...]
    k_parts: tuple[int, ...]
    st: tuple[tuple[Cyclotomic, ...], ...]

    @property
    def r(self) -> int:
        return len(self.x_parts)

    def x_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_of(m) for m in self.x_parts)

    def k_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(indices_of(m) for m in self.k_parts)

    def encoding(self) -> tuple:
        """Canonical identity: the two index partitions."""
        return (self.x_indices(), self.k_indices())

    def sort_key(self) -> tuple:
        return (self.r, self.x_indices(), self.k_indices())


KappaResult = Union[SuperTheory, KappaFailure]


# one value per failure: _TOO_MANY[i] is certified by column i + 2, the class
# at index i of a label string, and TOO_FEW is the only short class side
_TOO_MANY = tuple(KappaFailure(TOO_MANY_PARTS, i + 2) for i in range(MAX_CLASSES - 1))
TOO_FEW = KappaFailure(TOO_FEW_PARTS, None)


def create_kappa(matrix: SigmaMatrix, irrp: CharPartition) -> KappaResult:
    """Force the class partition for a character partition of {2..n}.

    irrp holds the non-trivial parts as masks; the trivial part {1} is
    implicit.  Returns the completed SuperTheory when the class side ends up
    with exactly len(irrp)+1 parts, otherwise a KappaFailure.  Raises
    ValueError unless irrp partitions 2..n, then runs the matrix's
    keep-less builder, made once per matrix: a closure per call would cost
    more than the fold it runs.
    """
    n = matrix.n
    if n < 2:
        raise ValueError("class-partition construction needs at least 2 classes")
    # The union of the parts is {2..n} (so no part is negative, holds index 1
    # or passes n, and no index is missing), and their sum equals that union
    # only when no bit is carried, i.e. the parts are disjoint; with no empty
    # part this is a partition.  Three C-level builtins check it.
    full = (1 << n) - 2
    if not all(irrp) or reduce(or_, irrp, 0) != full or sum(irrp) != full:
        raise ValueError("parts must partition the indices 2..n")
    if matrix._class_side is None:
        matrix._class_side = class_side_builder(matrix)
    return matrix._class_side(irrp)


def class_side_builder(
    matrix: SigmaMatrix, keep: Callable[[KappaResult], object] | None = None
) -> Callable[[Sequence[int]], KappaResult]:
    """The class-side builder of one matrix, the visitor of main's walk.

    The returned function takes the non-trivial parts of a valid partition
    of 2..n (a lent list is fine: it is copied only on success) and returns
    what create_kappa returns.  It hands keep every result but the shared
    part-budget aborts, in call order: each SuperTheory and each TOO_FEW.
    The matrix's lookups are bound once here.
    """
    return _builders(matrix, keep)[0]


def sibling_builder(
    matrix: SigmaMatrix, keep: Callable[[KappaResult], object] | None = None
) -> Callable[[list[int], int], None]:
    """The sibling pass of one matrix, the visitor of first mode's walk.

    The returned function takes a lent list of the parts of a partition of
    all of 2..n but one element, and that element's bit.  It builds the
    len(parts) + 1 partitions that put the bit into each part in turn and
    then alone, in that order, sharing their fold as the module docstring
    says, and hands keep what class_side_builder's builder would keep on
    each.  The list comes back unchanged.
    """
    return _builders(matrix, keep)[1]


def _builders(matrix: SigmaMatrix, keep: Callable[[KappaResult], object] | None):
    """The builder and the sibling pass of one matrix, over one fold."""
    get_id, level_id, meet_of = matrix._level_ids.get, matrix.level_id, matrix.meet
    counts, firsts = matrix._id_counts, matrix._id_firsts

    def fold(meet: int | None, masks, target: int):
        """meet (None for no part yet) refined by the level partition of each
        mask in turn: the final meet id, or the shared abort as soon as the
        meet has more than target levels."""
        for mask in masks:
            pid = get_id(mask)
            if pid is None:
                pid = level_id(mask)
            meet = pid if meet is None else meet_of(meet, pid)
            if counts[meet] > target:
                return _TOO_MANY[firsts[meet][target]]
        return meet

    def settle(parts: Sequence[int], meet: int, target: int) -> KappaResult:
        result = TOO_FEW if counts[meet] < target else _theory(matrix, parts, meet)
        if keep is not None:
            keep(result)
        return result

    def build(parts: Sequence[int]) -> KappaResult:
        target = len(parts)  # allowed class parts beyond the identity singleton
        meet = fold(None, parts, target)
        return meet if meet.__class__ is KappaFailure else settle(parts, meet, target)

    def place(parts: list[int], bit: int) -> None:
        p = len(parts)
        meet = None  # the meet of the untouched parts[:i]
        for i, mask in enumerate(parts):
            parts[i] = mask | bit
            end = fold(meet, parts[i:] if i else parts, p)
            if end.__class__ is not KappaFailure:
                settle(parts, end, p)
            parts[i] = mask
            meet = fold(meet, (mask,), p + 1)
            if meet.__class__ is KappaFailure:  # every later placement aborts too
                return
        parts.append(bit)
        end = fold(meet, (bit,), p + 1)
        if end.__class__ is not KappaFailure:
            settle(parts, end, p + 1)
        parts.pop()

    return build, place


def _theory(matrix: SigmaMatrix, parts: Sequence[int], meet: int) -> SuperTheory:
    """The theory of a partition whose class side, the level partition of id
    meet, has as many parts as the character side."""
    k_masks = [0] * len(parts)
    for col, label in enumerate(matrix._id_rgs[meet], start=1):
        k_masks[label] |= 1 << col
    rep_cols = (0, *(i + 1 for i in matrix._id_firsts[meet]))  # 0-based, the identity first
    x_parts = (1,) + tuple(sorted(parts, key=lambda m: m & -m))
    k_parts = (1,) + tuple(k_masks)
    rows = tuple(matrix._st_row(mask, rep_cols) for mask in x_parts)
    return SuperTheory(x_parts=x_parts, k_parts=k_parts, st=rows)


def supercharacter_values(table, part_mask: int) -> tuple[Cyclotomic, ...]:
    """sigma_X on every class, computed directly from the table values.

    Deliberately avoids SigmaMatrix so verification does not share the
    search's code path.
    """
    n = table.n
    order = table.root_order
    out = []
    idxs = indices_of(part_mask)
    for j in range(1, n + 1):
        acc = Cyclotomic.zero(order)
        for i in idxs:
            acc = acc + table.value(i, 1) * table.value(i, j)
        out.append(acc)
    return tuple(out)


def verify_theory(table, theory: SuperTheory) -> bool:
    """Re-check the definition directly from the table.

    Conditions: both sides partition {1..n}, the identity class is alone in
    a part, the sides have equal size, st is square over the table's root
    order, and each sigma_X is constant on each class part (matching st).
    """
    n = table.n
    full = (1 << n) - 1
    for parts in (theory.x_parts, theory.k_parts):
        union = 0
        for mask in parts:
            if mask == 0 or (union & mask):
                return False
            union |= mask
        if union != full:
            return False
    if 1 not in theory.k_parts:
        return False
    if len(theory.x_parts) != len(theory.k_parts):
        return False
    if len(theory.st) != len(theory.x_parts) or any(
        len(row) != len(theory.k_parts)
        or any(not isinstance(v, Cyclotomic) or v.order != table.root_order for v in row)
        for row in theory.st
    ):
        return False
    for row_idx, x_mask in enumerate(theory.x_parts):
        values = supercharacter_values(table, x_mask)
        for col_idx, k_mask in enumerate(theory.k_parts):
            expected = theory.st[row_idx][col_idx]
            for j in indices_of(k_mask):
                if values[j - 1] != expected:
                    return False
    return True
