"""Weighted character-sum rows and the distinguishing-part test.

For a subset X of characters, sigma_X is the class function
sum_{chi in X} chi(1) * chi.  A nonempty subset of the non-trivial indices
{2..n} is a *bad part* when sigma_X takes pairwise distinct values on the
non-identity classes: such a part forces the class side of any containing
theory to split completely, so partitions using it (other than the
all-singleton one) can never extend to a supercharacter theory.

Index subsets are plain ints used as bitmasks: bit j-1 set means index j is
in the subset, so masks stay within one machine word for n <= 64.

find_bad_parts scans all 2^(n-1) - 1 candidate parts in one exact way,
whatever the coefficients (ints of any size or Fractions).  Each class
coefficient vector of each row gets a uint64 key through a fixed linear
map, and numpy sums the keys over blocks of subsets and sorts every row.
A linear map sends equal vectors to equal keys, so pairwise distinct keys
prove a part bad.  A part with a key collision is rechecked exactly on the
colliding class pair; only a collision of unequal vectors falls back to the
per-part reference test is_bad_part.

SigmaMatrix also caches, per part, the partition of the non-identity
classes into level sets of sigma_X (as a restricted-growth label string),
plus memoized pairwise meets of those partitions; the class-partition
builder consumes these.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .chartab import CharacterTable
from .exactnum import Cyclotomic, _context

_CHUNK_BITS = 8  # a scan block holds every subset of this many low rows
_KEY_SEED = 0x5C7A_B1E5  # seeds the odd weights of the uint64 key map
_KEY_MODULUS = 1 << 64


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of 1-based indices."""
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"indices are 1-based, got {i}")
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class BadPartSet:
    """Bad parts in global mask encoding."""

    masks: frozenset[int]

    @property
    def count(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.masks))


class SigmaMatrix:
    """Degree-weighted character rows of one table, with level-set caches."""

    def __init__(self, table: CharacterTable):
        self.table = table
        self.n = table.n
        self.degree = _context(table.root_order).degree
        base_rows = []
        for i in range(self.n):
            d = table.values[i][0]
            base_rows.append(tuple(d * v for v in table.values[i]))
        self.base: tuple[tuple[Cyclotomic, ...], ...] = tuple(base_rows)
        self._vecs = [
            [v.coeff_vector() for v in row] for row in self.base
        ]
        # level-partition caches (append-only; safe under the GIL)
        self._level_ids: dict[int, int] = {}
        self._interned: dict[tuple[int, ...], int] = {}
        self._id_rgs: list[tuple[int, ...]] = []
        self._id_counts: list[int] = []
        self._meets: dict[tuple[int, int], int] = {}

    # -- sigma values ----------------------------------------------------------

    def _part_vectors(self, part_mask: int, cols: range) -> list[list]:
        vecs = [[0] * self.degree for _ in cols]
        m = part_mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            row = self._vecs[i]
            for slot, j in enumerate(cols):
                rv = row[j]
                tv = vecs[slot]
                for a in range(self.degree):
                    c = rv[a]
                    if c:
                        tv[a] += c
        return vecs

    def sigma_values(self, part_mask: int) -> tuple[Cyclotomic, ...]:
        """sigma_X on every class, identity first."""
        if part_mask <= 0 or part_mask >= (1 << self.n):
            raise ValueError(f"part mask {part_mask:#x} out of range for n={self.n}")
        order = self.table.root_order
        vecs = self._part_vectors(part_mask, range(self.n))
        return tuple(
            Cyclotomic(order, tuple((e, c) for e, c in enumerate(vec) if c), _reduced=True)
            for vec in vecs
        )

    # -- level-set partitions ---------------------------------------------------

    def _intern(self, rgs: tuple[int, ...]) -> int:
        pid = self._interned.get(rgs)
        if pid is None:
            pid = len(self._id_rgs)
            self._id_rgs.append(rgs)
            self._id_counts.append((max(rgs) + 1) if rgs else 0)
            self._interned[rgs] = pid
        return pid

    def level_id(self, part_mask: int) -> int:
        """Interned id of the level-set partition of classes 2..n under sigma_part."""
        pid = self._level_ids.get(part_mask)
        if pid is None:
            vecs = self._part_vectors(part_mask, range(1, self.n))
            labels: dict[tuple, int] = {}
            rgs = []
            for vec in vecs:
                key = tuple(vec)
                label = labels.get(key)
                if label is None:
                    label = len(labels)
                    labels[key] = label
                rgs.append(label)
            pid = self._intern(tuple(rgs))
            self._level_ids[part_mask] = pid
        return pid

    def level_rgs(self, pid: int) -> tuple[int, ...]:
        return self._id_rgs[pid]

    def level_count(self, pid: int) -> int:
        return self._id_counts[pid]

    def meet(self, a: int, b: int) -> int:
        """Common refinement of two interned class partitions."""
        if a == b:
            return a
        if self._id_counts[a] == self.n - 1:
            return a
        if self._id_counts[b] == self.n - 1:
            return b
        if a > b:
            a, b = b, a
        key = (a, b)
        out = self._meets.get(key)
        if out is None:
            ra, rb = self._id_rgs[a], self._id_rgs[b]
            labels: dict[tuple[int, int], int] = {}
            rgs = []
            for pair in zip(ra, rb):
                label = labels.get(pair)
                if label is None:
                    label = len(labels)
                    labels[pair] = label
                rgs.append(label)
            out = self._intern(tuple(rgs))
            self._meets[key] = out
        return out


def sigma_matrix(t: CharacterTable) -> SigmaMatrix:
    """Matrix of the rows chi(1)*chi for every character of the table."""
    return SigmaMatrix(t)


def _check_part_argument(matrix: SigmaMatrix, part_mask: int) -> None:
    if part_mask == 0:
        raise ValueError("part is empty")
    if part_mask & 1:
        raise ValueError("part may not contain index 1 (the trivial character)")
    if part_mask >= (1 << matrix.n):
        raise ValueError(f"part mask {part_mask:#x} out of range for n={matrix.n}")


def is_bad_part(matrix: SigmaMatrix, part_mask: int) -> bool:
    """True when sigma_part separates all non-identity classes pairwise."""
    _check_part_argument(matrix, part_mask)
    vecs = matrix._part_vectors(part_mask, range(1, matrix.n))
    return len({tuple(v) for v in vecs}) == matrix.n - 1


def find_bad_parts(t: CharacterTable, *, matrix: SigmaMatrix | None = None) -> BadPartSet:
    """All bad parts among the nonempty subsets of {2..n}, as global masks."""
    m = matrix if matrix is not None else SigmaMatrix(t)
    if m.n < 2:
        return BadPartSet(frozenset())
    return BadPartSet(frozenset(_scan_bad_parts(m)))


def _class_keys(m: SigmaMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Two linear images, at [p, c], of the coefficient vector of row p+2 on
    class c+2, taken after scaling all coefficients to coprime integers.

    The first is a uint64 hash (a dot product with fixed odd weights, mod
    2^64) that the scan sums and sorts.  The second is an exact int: the
    slots are packed far enough apart that a difference of two part sums
    packs to 0 only when the two sums are equal.
    """
    rows = [m._vecs[i][1:] for i in range(1, m.n)]
    scale = math.lcm(*(x.denominator for row in rows for vec in row for x in vec))
    ints = [[[x.numerator * (scale // x.denominator) for x in vec] for vec in row] for row in rows]
    common = math.gcd(*(x for row in ints for vec in row for x in vec)) or 1
    ints = [[[x // common for x in vec] for vec in row] for row in ints]
    bound = sum(max(abs(x) for vec in row for x in vec) for row in ints)
    width = (2 * bound).bit_length() + 1
    rng = random.Random(_KEY_SEED)
    weights = [rng.getrandbits(64) | 1 for _ in range(m.degree)]
    hashed = [
        [sum(w * x for w, x in zip(weights, vec)) % _KEY_MODULUS for vec in row]
        for row in ints
    ]
    exact = [[sum(x << (a * width) for a, x in enumerate(vec)) for vec in row] for row in ints]
    return np.array(hashed, dtype=np.uint64), np.array(exact, dtype=object)


def _subset_sums(keys: np.ndarray) -> np.ndarray:
    """Row s holds the sum of keys[p] over the bits p of s."""
    sums = np.zeros((1 << len(keys), keys.shape[1]), dtype=keys.dtype)
    for p, row in enumerate(keys):
        sums[1 << p : 2 << p] = sums[: 1 << p] + row
    return sums


def _scan_bad_parts(m: SigmaMatrix) -> Iterator[int]:
    """Bad parts, block by block: every subset of the low rows plus one
    subset of the high rows.  A part whose hashed class keys are pairwise
    distinct is bad, since equal class vectors hash equally.  Otherwise the
    first hashed collision is checked with the exact keys, and a collision
    that is not real leaves the part to is_bad_part."""
    hashed, exact = _class_keys(m)
    k = m.n - 1
    lo = min(k, _CHUNK_BITS)
    low_hashed, low_exact = _subset_sums(hashed[:lo]), _subset_sums(exact[:lo])
    for h in range(1 << (k - lo)):
        high = [lo + j for j in range(k - lo) if h >> j & 1]
        start = 1 if h == 0 else 0  # skip the empty subset
        first = (h << lo) + start
        block = low_hashed[start:] + hashed[high].sum(axis=0, dtype=np.uint64)
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        same = ranked[:, 1:] == ranked[:, :-1]
        clash = same.any(axis=1)
        yield from ((np.flatnonzero(~clash) + first) << 1).tolist()
        rows = np.flatnonzero(clash)
        if not rows.size:
            continue
        at = same[rows].argmax(axis=1)
        c1, c2 = order[rows, at], order[rows, at + 1]
        offset = exact[high].sum(axis=0)
        gap = low_exact[rows + start, c1] - low_exact[rows + start, c2] + (offset[c1] - offset[c2])
        for r in rows[gap != 0].tolist():
            mask = (first + r) << 1
            if is_bad_part(m, mask):
                yield mask


def alpha_ratio(t: CharacterTable, *, bad: BadPartSet | None = None) -> Fraction:
    """Share of bad parts among the 2^(n-1) - 1 candidate parts, exact."""
    if t.n < 2:
        raise ValueError("alpha ratio needs at least one non-trivial index")
    if bad is None:
        bad = find_bad_parts(t)
    return Fraction(bad.count, (1 << (t.n - 1)) - 1)
