"""Weighted character-sum rows, bad parts and admissible parts.

For a subset X of characters, sigma_X is the class function
sum_{chi in X} chi(1) * chi, and c(X) is the number of level sets of sigma_X
on the non-identity classes.  A nonempty subset of the non-trivial indices
{2..n} is a *bad part* when sigma_X takes pairwise distinct values on the
non-identity classes (c(X) = n - 1): such a part forces the class side of
any containing theory to split completely, so partitions using it (other
than the all-singleton one) can never extend to a supercharacter theory.

A part is *admissible* when c(X) + |X| <= n, and every character part of a
theory is.  Say the theory has r parts.  Its r - 1 non-identity class parts
refine the level sets of sigma_X, so c(X) <= r - 1; its character side has
X, the trivial part and at most n - 1 - |X| other parts, so r <= n + 1 - |X|;
together c(X) + |X| <= n.  The bad parts of size >= 2 are inadmissible, and
the bad singletons are admissible.

Index subsets are plain ints used as bitmasks: bit j-1 set means index j is
in the subset, so masks stay within one machine word for n <= 64.

SigmaMatrix builds its rows once per table from chartab's
integer_coefficients, the lift that validate_table also reads.  It keeps the
non-trivial rows on the non-identity classes as coprime ints, and packs each
class coefficient vector of each row into one int, with slots spaced wider
than any difference of two part sums.  The packing is linear, so the packed
sum over a part's rows equals the packed sum over another set of rows
exactly when the two coefficient vectors are equal.

find_bad_parts, count_bad_parts and scan_parts share one exact scan of all
2^(n-1) - 1 candidate parts, refused past MAX_SCAN_CLASSES classes.  For
every part X it counts merged(X), the non-identity classes b on which
sigma_X equals its value on some lower class a.  Level sets are equivalence
classes, so c(X) = n - 1 - merged(X): X is bad when merged(X) = 0 and
admissible when |X| <= merged(X) + 1.  Each class vector of each row also
gets a uint64 key through a fixed linear map, so sigma_X agrees on classes
a and b only if the keys key(a) - key(b) of X's rows sum to 0 mod 2^64, a
subset-sum coincidence.  Per class b, a meet-in-the-middle join
(Horowitz-Sahni, J. ACM 21, 1974) finds them without a pass over the parts:
it splits the rows into a low and a high half, sorts each half's subset
sums for every a < b, and binary-searches the negated high sums among the
low ones: O(2^((n-1)/2)) sums per class pair, plus one step per match.
The join is exact both ways.  The key map is linear mod 2^64, so every
true coincidence is a hashed match; every hashed match is rechecked on the
packed ints, so a hash collision never merges two classes.  The rechecks run in chunks of bounded
size, and numpy counts the bad parts; only find_bad_parts builds masks.
The per-part reference test is_bad_part, like sigma_values, sums the rows'
coefficient vectors directly.

level_id labels the non-identity classes by the packed sums over a part's
rows, which gives the partition of those classes into level sets of sigma_X
(as a restricted-growth label string).  SigmaMatrix caches the interned id
of that partition per part, plus memoized pairwise meets of those
partitions; the walk's meet cut and the class-partition builder consume
these.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .chartab import CharacterTable, SizeLimitError, integer_coefficients
from .exactnum import Cyclotomic, _simplify

_JOIN_CHUNK = 1 << 12  # hashed matches rechecked at once, bounding the scan's memory
_KEY_SEED = 0x5C7A_B1E5  # seeds the odd weights of the uint64 key map
_SALT_SEED = 0x5A17_5EED  # seeds the join's per-class salts
_KEY_MODULUS = 1 << 64
MAX_SCAN_CLASSES = 24  # the part scan covers 2^(n-1) - 1 parts, 8.4M at the limit


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
    if mask < 0:
        raise ValueError(f"masks are nonnegative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


class SigmaMatrix:
    """Degree-weighted character rows of one table, with level-set caches:
    _rows[i, j] holds the power-basis coefficients of
    table.values[i][0] * table.values[i][j] times _den2, as Python ints,
    and sigma_values sums them."""

    def __init__(self, table: CharacterTable):
        self.table = table
        self.n = table.n
        a, den = integer_coefficients(table)
        self.degree = a.shape[2]
        irrational = np.flatnonzero((a[:, 0, 1:] != 0).any(axis=1))
        if irrational.size:
            raise ValueError(f"character {irrational[0] + 1} has a degree that is not rational")
        self._rows, self._den2 = a * a[:, :1, :1], den * den
        # rows 2..n on classes 2..n as coprime ints, then packed
        block = self._rows[1:, 1:]
        self._scaled = block // (math.gcd(*block.flat) or 1)
        bound = sum(np.abs(row).max() for row in self._scaled)
        width = (2 * bound).bit_length() + 1
        shifts = np.array([1 << (e * width) for e in range(self.degree)], dtype=object)
        self._packed = (self._scaled @ shifts).tolist()  # lists: level_id sums them fastest
        # level-partition caches, filled on demand and only appended to, so
        # an id handed out stays valid for the matrix's lifetime
        self._level_ids: dict[int, int] = {}
        self._interned: dict[tuple[int, ...], int] = {}
        self._id_rgs: list[tuple[int, ...]] = []
        self._id_counts: list[int] = []
        self._meets: dict[tuple[int, int], int] = {}

    # -- sigma values ----------------------------------------------------------

    def _part_vectors(self, part_mask: int, cols: Sequence[int]) -> np.ndarray:
        """_den2 sigma_X on the classes cols, one coefficient vector per class."""
        return self._rows[np.ix_([i - 1 for i in indices_of(part_mask)], cols)].sum(axis=0)

    def sigma_values(self, part_mask: int) -> tuple[Cyclotomic, ...]:
        """sigma_X on every class, identity first."""
        if part_mask <= 0 or part_mask >= (1 << self.n):
            raise ValueError(f"part mask {part_mask:#x} out of range for n={self.n}")
        return self._values_at(part_mask, range(self.n))

    def _values_at(self, part_mask: int, cols: Sequence[int]) -> tuple[Cyclotomic, ...]:
        """sigma_X on the classes cols (0-based), for a valid part mask."""
        order, den2 = self.table.root_order, self._den2
        vecs = self._part_vectors(part_mask, cols).tolist()
        if den2 > 1:
            vecs = [[_simplify(Fraction(c, den2)) for c in vec] for vec in vecs]
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
        """Interned id of the level-set partition of classes 2..n under
        sigma_part: two classes share a level when the packed sums of the
        part's rows on them are equal."""
        pid = self._level_ids.get(part_mask)
        if pid is None:
            _check_part_argument(self, part_mask)
            sums = [0] * (self.n - 1)
            for i in indices_of(part_mask >> 1):
                sums = list(map(operator.add, sums, self._packed[i - 1]))
            labels: dict[int, int] = {}
            pid = self._intern(tuple(labels.setdefault(s, len(labels)) for s in sums))
            self._level_ids[part_mask] = pid
        return pid

    def level_rgs(self, pid: int) -> tuple[int, ...]:
        return self._id_rgs[pid]

    def level_count(self, pid: int) -> int:
        return self._id_counts[pid]

    def meet(self, a: int, b: int) -> int:
        """Common refinement of two interned class partitions."""
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
    vecs = matrix._part_vectors(part_mask, range(1, matrix.n)).tolist()
    return len({tuple(v) for v in vecs}) == matrix.n - 1


def find_bad_parts(t: CharacterTable, *, matrix: SigmaMatrix | None = None) -> frozenset[int]:
    """All bad parts among the nonempty subsets of {2..n}, as global masks
    (bit j-1 for index j), in a frozenset: sort it for mask order."""
    merged = _merged_counts(matrix if matrix is not None else SigmaMatrix(t))
    return frozenset(((np.flatnonzero(merged[1:] == 0) + 1) << 1).tolist())


def count_bad_parts(m: SigmaMatrix) -> int:
    """Number of bad parts, counted without holding them (0 for the trivial
    group)."""
    merged = _merged_counts(m)[1:]
    return merged.size - int(np.count_nonzero(merged))


def scan_parts(m: SigmaMatrix) -> tuple[int, list[int]]:
    """The number of bad parts and the admissible parts, in mask order, from
    one scan ((0, []) for the trivial group)."""
    merged = _merged_counts(m)[1:]
    sizes = _subset_sums(np.ones((m.n - 1, 1), dtype=np.uint8))[1:, 0]
    # c(X) + |X| <= n with c(X) = n - 1 - merged, so |X| <= merged + 1
    pool = np.flatnonzero(sizes <= merged + 1) + 1
    return merged.size - int(np.count_nonzero(merged)), (pool << 1).tolist()


def _class_keys(m: SigmaMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Two linear images, at [p, c], of the coefficient vector of row p+2 on
    class c+2: a uint64 hash (a dot product of the matrix's scaled integer
    coefficients with fixed odd weights, mod 2^64) that the join sums and
    sorts, and the matrix's exact packed int.
    """
    rng = random.Random(_KEY_SEED)
    weights = np.array([rng.getrandbits(64) | 1 for _ in range(m.degree)], dtype=object)
    hashed = (m._scaled @ weights % _KEY_MODULUS).astype(np.uint64)
    return hashed, np.array(m._packed, dtype=object)


def _subset_sums(keys: np.ndarray) -> np.ndarray:
    """Row s holds the sum of keys[p] over the bits p of s."""
    sums = np.zeros((1 << len(keys), keys.shape[1]), dtype=keys.dtype)
    for p, row in enumerate(keys):
        sums[1 << p : 2 << p] = sums[: 1 << p] + row
    return sums


def _low_rows(k: int) -> int:
    """How many of the k rows the join puts in its low half."""
    return (k + 1) // 2


def _merged_counts(m: SigmaMatrix) -> np.ndarray:
    """merged[code] for every part code 0 .. 2^(n-1) - 1 (a part's mask is
    its code << 1): the number of classes b among 3..n on which sigma_X
    equals its value on some class a < b.  Level sets are equivalence
    classes, so c(X) = n - 1 - merged[code].

    sigma_X agrees on classes a and b when the sum over X's rows of
    key(a) - key(b) is 0, that is when the sum over X's low rows equals
    minus the sum over its high rows.  Per class b, both sides list their
    subset sums for every a < b, each salted by a, and are sorted; binary
    search then finds every hashed match, and matches between different
    classes a are dropped.  The packed ints recheck each match, a bounded
    chunk at a time, and each (X, b) is counted once."""
    if m.n > MAX_SCAN_CLASSES:
        raise SizeLimitError(
            f"the part scan covers 2^{m.n - 1} - 1 parts for n={m.n}; "
            f"the limit is {MAX_SCAN_CLASSES} classes"
        )
    k = m.n - 1
    merged = np.zeros(1 << k, dtype=np.uint8)
    if k < 2:  # no class pair
        return merged
    hashed, exact = _class_keys(m)
    lo, hi = _low_rows(k), k - _low_rows(k)
    low_hashed, high_hashed = _subset_sums(hashed[:lo]), _subset_sums(hashed[lo:])
    low_exact, high_exact = _subset_sums(exact[:lo]), _subset_sums(exact[lo:])
    rng = random.Random(_SALT_SEED)
    salt = np.array([rng.getrandbits(64) for _ in range(k)], dtype=np.uint64)
    hit = np.zeros(1 << k, dtype=bool)
    for b in range(1, k):
        # low[(a << lo) + s] for each class a < b and subset s of the low
        # rows, and high[(a << hi) + s] alike for the high rows
        low = (low_hashed[:, :b] - low_hashed[:, b, None] + salt[:b]).T.ravel()
        high = (high_hashed[:, b, None] - high_hashed[:, :b] + salt[:b]).T.ravel()
        low_order, high_order = np.argsort(low), np.argsort(high)
        low_sorted, needles = low[low_order], high[high_order]
        first = np.searchsorted(low_sorted, needles, "left")
        count = np.searchsorted(low_sorted, needles, "right") - first
        # match t overall, of the i-th matched needle, is low_order[start[i] + t]
        matched = np.flatnonzero(count)
        ends = np.cumsum(count[matched])
        start = first[matched] - ends + count[matched]
        hit.fill(False)
        total = int(ends[-1]) if ends.size else 0
        for done in range(0, total, _JOIN_CHUNK):
            at = np.arange(done, min(done + _JOIN_CHUNK, total))
            i = np.searchsorted(ends, at, "right")
            low_at, high_at = low_order[start[i] + at], high_order[matched[i]]
            a = low_at >> lo
            same = a == high_at >> hi
            low_part = low_at[same] & ((1 << lo) - 1)
            high_part = high_at[same] & ((1 << hi) - 1)
            real = _exact_matches(low_exact, high_exact, b, a[same], low_part, high_part)
            hit[low_part[real] | high_part[real] << lo] = True
        merged += hit
    return merged


def _exact_matches(low_exact, high_exact, b, a, low_part, high_part) -> np.ndarray:
    """Which hashed matches are real: the part's packed sums, low half plus
    high half, are equal on classes a and b."""
    return (low_exact[low_part, a] + high_exact[high_part, a]
            == low_exact[low_part, b] + high_exact[high_part, b])


def alpha_ratio(t: CharacterTable) -> Fraction:
    """Share of bad parts among the 2^(n-1) - 1 candidate parts, exact.
    The parts are counted, not held."""
    if t.n < 2:
        raise ValueError("alpha ratio needs at least one non-trivial index")
    return Fraction(count_bad_parts(SigmaMatrix(t)), (1 << (t.n - 1)) - 1)
