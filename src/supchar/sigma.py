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
exactly when the two coefficient vectors are equal.  dual_blocks packs the
central characters the same way, with slots sized for sums over classes.

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
it splits the rows into a low and a high half, puts both halves' subset
sums for every a < b into one uint64 array, each key carrying its entry's
index in its low bits, and sorts it once: O(2^((n-1)/2)) sums per class
pair, plus one step per match.  The join is exact both ways.  The key map
is linear mod 2^64, so every true coincidence is a candidate; every
candidate is rechecked on the packed slots (int64 words where they fit),
so a hash collision never merges two classes.  The rechecks run in bounded
chunks, and numpy counts the bad parts; only find_bad_parts builds masks.
The per-part reference test is_bad_part sums the rows' coefficient vectors
directly, in numpy.

level_id labels the non-identity classes by the packed sums over a part's
rows, which gives the partition of those classes into level sets of sigma_X
(as a restricted-growth label string).  SigmaMatrix caches the interned id
of that partition per part, the pairwise meets of those partitions and, per
meet, the dual character partition of the walk's dual rule (dual_blocks).
scan_parts fills the level-id cache for its whole pool in numpy from the
join's exact half sums, the words that recheck its matches: equal words are
equal packed slots, so these labels are level_id's with no hash involved.
level_id, the per-part route, labels the parts outside the pool.

sigma_values and create_kappa's st rows share one route, _st_row:
per-(row, class) term tuples, made once per matrix, so a one-row part costs
one Cyclotomic per class and a larger part one coefficient list per class,
summed in Python.  kappa.supercharacter_values, which sums the table's own
values, is the independent reference.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Sequence

import numpy as np

from .chartab import MAX_CLASSES, CharacterTable, SizeLimitError, integer_coefficients
from .exactnum import Cyclotomic, _simplify

_JOIN_CHUNK = 1 << 12  # hashed matches rechecked at once, bounding the scan's memory
_KEY_SEED = 0x5C7A_B1E5  # seeds the odd weights of the uint64 key map
_SALT_SEED = 0x5A17_5EED  # seeds the join's per-class salts
_KEY_MODULUS = 1 << 64
_LABEL_CHUNK = 1 << 13  # pool parts labelled at once, bounding the [part, word, class, class] test
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
    table.values[i][0] * table.values[i][j] times _den2, as Python ints;
    sigma_values and create_kappa's st rows sum them through _st_row."""

    def __init__(self, table: CharacterTable):
        if table.n > MAX_CLASSES:  # a hand-built table skips the loaders' limit
            raise SizeLimitError(f"{table.n} classes > {MAX_CLASSES}")
        self.table = table
        self.n = table.n
        a, den = integer_coefficients(table)
        self.degree = a.shape[2]
        invalid = np.flatnonzero((a[:, 0, 1:] != 0).any(axis=1) | (a[:, 0, 0] == 0))
        if invalid.size:  # dual_blocks divides by the degrees
            raise ValueError(f"character {invalid[0] + 1} has a zero or irrational degree")
        self._rows, self._den2 = a * a[:, :1, :1], den * den
        # rows 2..n on classes 2..n as coprime ints, then packed
        block = self._rows[1:, 1:]
        self._scaled = block // (math.gcd(*block.flat) or 1)
        packed, self._width = _packed(self._scaled, 0)
        self._packed = packed.tolist()  # lists: level_id sums them fastest
        # level-partition caches, filled on demand and only appended to, so
        # an id handed out stays valid for the matrix's lifetime
        self._level_ids: dict[int, int] = {}
        self._interned: dict[tuple[int, ...], int] = {}
        self._id_rgs: list[tuple[int, ...]] = []
        self._id_counts: list[int] = []
        self._id_firsts: list[tuple[int, ...]] = []
        self._meets: dict[tuple[int, int], int] = {}
        # X(M) per meet id, and the packed central rows behind it, built on
        # the first dual_blocks call: first mode never walks
        self._duals: dict[int, dict[int, int]] = {}
        self._central: np.ndarray | None = None
        # per (row, class), the value's integer terms and reduced terms,
        # built on the first _st_row call
        self._entries: tuple[list, list] | None = None
        # kappa's keep-less class-side builder, bound to these caches on first use
        self._class_side: Callable | None = None

    # -- sigma values ----------------------------------------------------------

    def _part_vectors(self, part_mask: int, cols: Sequence[int]) -> np.ndarray:
        """_den2 sigma_X on the classes cols, one coefficient vector per class."""
        return self._rows[np.ix_([i - 1 for i in indices_of(part_mask)], cols)].sum(axis=0)

    def sigma_values(self, part_mask: int) -> tuple[Cyclotomic, ...]:
        """sigma_X on every class, identity first."""
        if part_mask <= 0 or part_mask >= (1 << self.n):
            raise ValueError(f"part mask {part_mask:#x} out of range for n={self.n}")
        return self._st_row(part_mask, range(self.n))

    def _st_row(self, part_mask: int, cols: Sequence[int]) -> tuple[Cyclotomic, ...]:
        """sigma_X on the classes cols (0-based), for a valid part mask, from
        per-(row, class) term tuples: a one-row part reads its reduced terms,
        a larger part adds its rows' integer terms into one coefficient list
        per class."""
        if self._entries is None:
            sparse = [[tuple(compress(enumerate(vec), vec)) for vec in row]
                      for row in self._rows.tolist()]
            self._entries = sparse, sparse if self._den2 == 1 else [
                [self._reduced(t) for t in row] for row in sparse]
        sparse, terms = self._entries
        order = self.table.root_order
        rows = [i - 1 for i in indices_of(part_mask)]
        if len(rows) == 1:
            row = terms[rows[0]]
            return tuple(Cyclotomic(order, row[c], _reduced=True) for c in cols)
        out = []
        for c in cols:
            vec = [0] * self.degree
            for i in rows:
                for e, v in sparse[i][c]:
                    vec[e] += v
            out.append(Cyclotomic(order, self._reduced(tuple(compress(enumerate(vec), vec))),
                                  _reduced=True))
        return tuple(out)

    def _reduced(self, terms: tuple[tuple[int, int], ...]) -> tuple:
        """Integer terms divided by _den2, each coefficient reduced."""
        if self._den2 == 1:
            return terms
        return tuple((e, _simplify(Fraction(c, self._den2))) for e, c in terms)

    # -- level-set partitions ---------------------------------------------------

    def _intern(self, rgs: tuple[int, ...]) -> int:
        pid = self._interned.get(rgs)
        if pid is None:
            pid = len(self._id_rgs)
            self._id_rgs.append(rgs)
            self._id_counts.append((max(rgs) + 1) if rgs else 0)
            # where each level starts: the builder's abort column and st classes
            self._id_firsts.append(tuple(map(rgs.index, range(self._id_counts[pid]))))
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

    def dual_blocks(self, pid: int) -> dict[int, int]:
        """X(M) for the class partition M of id pid: the characters 2..n
        grouped by their central characters summed over each block of M,
        omega_chi(B) = sum_{C in B} |C| chi(C) / chi(1), as a map from each
        character's bit to the mask of its group.

        _central[i][c] packs |C| chi(C) / chi(1) for character i + 2 on
        class c + 2 times one factor common to all (i, c): row i of _scaled
        times (lcm of the squared degrees) / (den chi(1))^2 and |C|.  Its
        slots hold any sum over classes, so two characters share a group
        exactly when their packed block sums are equal."""
        blocks = self._duals.get(pid)
        if blocks is None:
            if self._central is None:
                squares = self._rows[1:, 0, 0]
                weights = math.lcm(*squares.tolist()) // squares
                sizes = np.array(self.table.class_sizes[1:], dtype=object)
                central = self._scaled * np.outer(weights, sizes)[:, :, None]
                self._central = _packed(central, 1)[0]
            # with the classes in block order, one reduceat sums every block
            labels = np.array(self._id_rgs[pid])
            order = np.argsort(labels, kind="stable")
            starts = np.searchsorted(labels[order], np.arange(self._id_counts[pid]))
            keys = list(map(tuple, np.add.reduceat(self._central[:, order], starts, axis=1).tolist()))
            groups: dict[tuple[int, ...], int] = {}
            for i, key in enumerate(keys):  # row i is character i + 2, bit 2 << i
                groups[key] = groups.get(key, 0) | 2 << i
            blocks = self._duals[pid] = {2 << i: groups[key] for i, key in enumerate(keys)}
        return blocks


def _packed(coefficients: np.ndarray, axis: int) -> tuple[np.ndarray, int]:
    """Each coefficient vector (the last axis) of a row x class array of
    ints packed into one int, with slots wider than twice any sum of
    magnitudes along `axis` (0 for the rows on one class, 1 for the classes
    of one row): two packed sums of entries along that axis are equal
    exactly when their coefficient vectors are.  Also returns the width."""
    bound = int(np.abs(coefficients).sum(axis=axis).max(initial=0))
    width = (2 * bound).bit_length() + 1
    shifts = np.array([1 << (e * width) for e in range(coefficients.shape[2])], dtype=object)
    return coefficients @ shifts, width


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
    merged, _ = _merged_counts(matrix if matrix is not None else SigmaMatrix(t))
    return frozenset(((np.flatnonzero(merged[1:] == 0) + 1) << 1).tolist())


def count_bad_parts(m: SigmaMatrix) -> int:
    """Number of bad parts, counted without holding them (0 for the trivial
    group)."""
    merged = _merged_counts(m)[0][1:]
    return merged.size - int(np.count_nonzero(merged))


def scan_parts(m: SigmaMatrix) -> tuple[int, list[int]]:
    """The number of bad parts and the admissible parts, in mask order, from
    one scan ((0, []) for the trivial group).  The scan's exact sums also
    label the pool: each admissible part's level id is cached in m."""
    merged, halves = _merged_counts(m)
    merged = merged[1:]
    sizes = _subset_sums(np.ones((m.n - 1, 1), dtype=np.uint8))[1:, 0]
    # c(X) + |X| <= n with c(X) = n - 1 - merged, so |X| <= merged + 1
    codes = np.flatnonzero(sizes <= merged + 1) + 1
    pool = (codes << 1).tolist()
    for start in range(0, len(pool), _LABEL_CHUNK):
        chunk = slice(start, start + _LABEL_CHUNK)
        _label_parts(m, halves, codes[chunk], pool[chunk])
    return merged.size - int(np.count_nonzero(merged)), pool


def _label_parts(m: SigmaMatrix, halves: tuple, codes: np.ndarray, masks: list[int]) -> None:
    """Cache the level id of each part (code codes[i], mask masks[i]) in m,
    read from the scan's exact subset sums: two classes share a level when
    all their words are equal, and each level is led by its least class.
    Each class's label is its leader's rank among the leaders, and the label
    rows are interned by their bytes."""
    lo, low_exact, high_exact = halves
    sums = low_exact[codes & ((1 << lo) - 1)] + high_exact[codes >> lo]  # [part, word, class]
    k = sums.shape[2]
    # the least class whose words all equal each class's words
    leader = (sums[:, :, :, None] == sums[:, :, None, :]).all(axis=1).argmax(axis=2)
    is_leader = leader == np.arange(k)
    labels = np.take_along_axis(np.cumsum(is_leader, axis=1) - 1, leader, axis=1)
    rows = labels.astype(np.uint8).tobytes()  # labels run below k < MAX_SCAN_CLASSES
    keys = [rows[i : i + k] for i in range(0, len(rows), k)]
    pids = {key: m._intern(tuple(key)) for key in dict.fromkeys(keys)}
    m._level_ids.update(zip(masks, map(pids.__getitem__, keys)))


def _class_keys(m: SigmaMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Two linear images of the coefficient vector of row p+2 on class c+2:
    at [p, c] a uint64 hash (a dot product with fixed odd weights, by a
    wrapping uint64 matmul) that the join sums and sorts, and at [p, :, c]
    the exact words that recheck its matches: _packed's slots, as many to
    an int64 word as fit below 2^62 (a sum of s slots stays below
    2^(s * width - 1)), or one Python int when one slot does not fit."""
    rng = random.Random(_KEY_SEED)
    weights = np.array([rng.getrandbits(64) | 1 for _ in range(m.degree)], dtype=np.uint64)
    per = 62 // m._width or m.degree  # slots per word
    dtype = np.int64 if m._width <= 62 else object
    k, words = m.n - 1, -(-m.degree // per)
    padded = np.zeros((k, k, words * per), dtype)
    padded[:, :, : m.degree] = m._scaled
    # int64 coefficients wrap to their residues mod 2^64 in the cast
    residues = padded[:, :, : m.degree] if dtype is np.int64 else m._scaled % _KEY_MODULUS
    shifts = np.array([1 << (e * m._width) for e in range(per)], dtype)
    exact = (padded.reshape(k, k, words, per) @ shifts).transpose(0, 2, 1)
    return residues.astype(np.uint64) @ weights, np.ascontiguousarray(exact)


def _subset_sums(keys: np.ndarray) -> np.ndarray:
    """Row s holds the sum of keys[p] over the bits p of s."""
    sums = np.zeros((1 << len(keys),) + keys.shape[1:], dtype=keys.dtype)
    for p, row in enumerate(keys):
        sums[1 << p : 2 << p] = sums[: 1 << p] + row
    return sums


def _low_rows(k: int) -> int:
    """How many of the k rows the join puts in its low half."""
    return (k + 1) // 2


def _merged_counts(m: SigmaMatrix) -> tuple[np.ndarray, tuple | None]:
    """merged[code] for every part code 0 .. 2^(n-1) - 1 (a part's mask is
    its code << 1): the number of classes b among 3..n on which sigma_X
    equals its value on some class a < b.  Level sets are equivalence
    classes, so c(X) = n - 1 - merged[code].  Also returns the exact
    halves (lo, low sums, high sums), the subset sums of the words of
    _class_keys over the low and the high rows at [subset, word, class],
    for scan_parts to label its pool with (None for the trivial group).

    sigma_X agrees on classes a and b when the sum over X's rows of
    key(a) - key(b) is 0, that is when the sum over X's low rows equals
    minus the sum over its high rows.  Per class b, both sides' subset sums
    for every a < b, salted by a, share one array whose keys carry their
    entry's index in the low bits.  After one in-place sort, equal sums lie
    in one run of equal high bits, which lists its low entries first; each
    (low, high) pair in it is rechecked on the exact words at the low
    entry's class a, a bounded chunk at a time, and each (X, b) is counted
    once."""
    if m.n > MAX_SCAN_CLASSES:
        raise SizeLimitError(
            f"the part scan covers 2^{m.n - 1} - 1 parts for n={m.n}; "
            f"the limit is {MAX_SCAN_CLASSES} classes"
        )
    k = m.n - 1
    merged = np.zeros(1 << k, dtype=np.uint8)
    if k < 1:
        return merged, None
    hashed, exact = _class_keys(m)
    lo, hi = _low_rows(k), k - _low_rows(k)
    low_hashed, high_hashed = _subset_sums(hashed[:lo]), _subset_sums(hashed[lo:])
    low_exact, high_exact = _subset_sums(exact[:lo]), _subset_sums(exact[lo:])
    # [class, subset], salted on the side of class a: the salts cancel in a match
    rng = random.Random(_SALT_SEED)
    salt = np.array([rng.getrandbits(64) for _ in range(k)], dtype=np.uint64)[:, None]
    low_rows, high_rows = low_hashed.T.copy(), high_hashed.T.copy()
    low_salted, high_salted = low_rows + salt, high_rows - salt
    hit = np.zeros(1 << k, dtype=bool)
    for b in range(1, k):
        # entry (a << lo) + s for each class a < b and subset s of the low
        # rows, then lows + (a << hi) + s alike for the high rows
        keys = np.concatenate(((low_salted[:b] - low_rows[b]).ravel(),
                               (high_rows[b] - high_salted[:b]).ravel()))
        lows, bits = b << lo, (keys.size - 1).bit_length()
        keys &= np.uint64(_KEY_MODULUS - (1 << bits))
        keys |= np.arange(keys.size, dtype=np.uint64)
        keys.sort()
        runs, index = keys >> np.uint64(bits), (keys & np.uint64((1 << bits) - 1)).view(np.int64)
        # each run with both sides: its last low entry, then its first high one
        turn = np.flatnonzero(runs[1:] == runs[:-1])
        turn = turn[(index[turn] < lows) & (index[turn + 1] >= lows)]
        first, after = np.searchsorted(runs, runs[turn]), turn + 1
        highs = np.searchsorted(runs, runs[turn], "right") - after
        count = (after - first) * highs
        ends = np.cumsum(count)
        hit.fill(False)
        total = int(ends[-1]) if ends.size else 0
        for done in range(0, total, _JOIN_CHUNK):
            at = np.arange(done, min(done + _JOIN_CHUNK, total))
            i = np.searchsorted(ends, at, "right")
            # the pair's rank in its run gives its low and its high entry
            row, col = np.divmod(at - ends[i] + count[i], highs[i])
            low_at, high_at = index[first[i] + row], index[after[i] + col] - lows
            # a pair's classes a may differ: a recheck at either is exact
            low_part, high_part = low_at & ((1 << lo) - 1), high_at & ((1 << hi) - 1)
            real = _exact_matches(low_exact, high_exact, b, low_at >> lo, low_part, high_part)
            hit[low_part[real] | high_part[real] << lo] = True
        merged += hit
    return merged, (lo, low_exact, high_exact)


def _exact_matches(low_exact, high_exact, b, a, low_part, high_part) -> np.ndarray:
    """Which hashed matches are real: the part's exact words, low half plus
    high half, are equal on classes a and b.  Row w of each take holds word
    w of every match, so the rows reduce fast."""
    words, k = low_exact.shape[1:]
    word = np.arange(0, words * k, k)[:, None]  # take reads the flattened words
    low_at, high_at = low_part * (words * k) + word, high_part * (words * k) + word
    return np.logical_and.reduce(low_exact.take(low_at + a) + high_exact.take(high_at + a)
                                 == low_exact.take(low_at + b) + high_exact.take(high_at + b))


def alpha_ratio(t: CharacterTable) -> Fraction:
    """Share of bad parts among the 2^(n-1) - 1 candidate parts, exact.
    The parts are counted, not held."""
    if t.n < 2:
        raise ValueError("alpha ratio needs at least one non-trivial index")
    return Fraction(count_bad_parts(SigmaMatrix(t)), (1 << (t.n - 1)) - 1)
