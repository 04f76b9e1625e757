"""Character tables: generators, JSON serialization, validation.

A table holds exact cyclotomic values for every irreducible character on
every conjugacy class, plus class sizes.  Conventions are fixed so results
are reproducible: row 1 is the trivial character, column 1 is the identity
class, and generated tables order rotation-type classes ascending before
reflection/complement classes.  Indices are 1-based in every public
interface; internal storage is 0-based tuples.

The class count n is limited to 64 so index subsets fit one machine word.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .exactnum import Cyclotomic, OrderMismatchError, _context, root_of_unity

MAX_CLASSES = 64

_DOCUMENT_FIELDS = {"name", "order", "num_classes", "root_order", "class_sizes", "characters"}


class SizeLimitError(ValueError):
    """A table or requested group exceeds the 64-class limit."""


class TableFormatError(ValueError):
    """A table document is structurally malformed."""


class TableValidationError(ValueError):
    """A structurally sound table violates character-table invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class CharacterTable:
    """Exact character table of a finite group.

    values[i][j] is the value of character i+1 on class j+1; class_sizes[j]
    the size of class j+1.  All values share one root order.
    """

    name: str
    order: int
    n: int
    root_order: int
    class_sizes: tuple[int, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]

    def value(self, char_index: int, class_index: int) -> Cyclotomic:
        """1-based accessor."""
        return self.values[char_index - 1][class_index - 1]

    def degree(self, char_index: int) -> int:
        r = self.values[char_index - 1][0].rational_value()
        if r is None or r.denominator != 1:
            raise TableValidationError([f"character {char_index} has non-integer degree"])
        return int(r)


# ---------------------------------------------------------------------------
# generators

def cyclic_table(m: int) -> CharacterTable:
    """Character table of the cyclic group of order m.

    Character i on class j is zeta_m^((i-1)(j-1)); all classes are singletons.
    """
    if m < 1:
        raise ValueError(f"cyclic order must be positive, got {m}")
    if m > MAX_CLASSES:
        raise SizeLimitError(f"cyclic group of order {m} has {m} classes > {MAX_CLASSES}")
    rows = tuple(
        tuple(root_of_unity(m, (i * j) % m) for j in range(m)) for i in range(m)
    )
    return CharacterTable(
        name=f"Z{m}",
        order=m,
        n=m,
        root_order=m,
        class_sizes=tuple(1 for _ in range(m)),
        values=rows,
    )


def dihedral_table(m: int) -> CharacterTable:
    """Character table of the dihedral group with 2m elements (rotation order m).

    Classes: identity, rotation pairs {r^j, r^-j} ascending in j (for even m
    the central rotation r^(m/2) closes the rotation block), then reflection
    classes.  Characters: the linear ones first (trivial, then the character
    negating reflections, then for even m the two negating the rotation
    generator), then the degree-2 characters ascending.
    """
    if m < 2:
        raise ValueError(f"rotation order must be at least 2, got {m}")
    if m > 60:  # so at most 33 classes
        raise SizeLimitError(f"rotation order {m} exceeds the supported limit 60")
    N = m if m % 2 == 0 else 2 * m
    one = Cyclotomic.one(N)
    neg = Cyclotomic.constant(N, -1)
    two = Cyclotomic.constant(N, 2)
    zero = Cyclotomic.zero(N)

    def rot_value(k: int, j: int) -> Cyclotomic:
        # zeta_m^(kj) + zeta_m^(-kj) expressed at root order N
        step = N // m
        return root_of_unity(N, (k * j * step) % N) + root_of_unity(N, (-k * j * step) % N)

    if m % 2 == 1:
        half = (m - 1) // 2
        n = half + 2
        class_sizes = (1,) + tuple(2 for _ in range(half)) + (m,)
        rows = [tuple(one for _ in range(n))]
        rows.append(tuple([one] + [one] * half + [neg]))
        for k in range(1, half + 1):
            rows.append(tuple([two] + [rot_value(k, j) for j in range(1, half + 1)] + [zero]))
    else:
        half = m // 2
        n = half + 3
        class_sizes = (1,) + tuple(2 for _ in range(half - 1)) + (1, half, half)
        rotations = list(range(1, half + 1))  # class j+1 holds r^j; r^(m/2) is last
        rows = [tuple(one for _ in range(n))]
        sign_r = lambda j: one if j % 2 == 0 else neg
        rows.append(tuple([one] + [one for _ in rotations] + [neg, neg]))
        rows.append(tuple([one] + [sign_r(j) for j in rotations] + [one, neg]))
        rows.append(tuple([one] + [sign_r(j) for j in rotations] + [neg, one]))
        for k in range(1, half):
            rows.append(tuple([two] + [rot_value(k, j) for j in rotations] + [zero, zero]))
    return CharacterTable(
        name=f"D{2 * m}",
        order=2 * m,
        n=n,
        root_order=N,
        class_sizes=class_sizes,
        values=tuple(rows),
    )


def frobenius_pq_table(p: int, q: int) -> CharacterTable:
    """Character table of the Frobenius group of order p*q (q dividing p-1).

    Classes: identity, then one class per orbit of the order-q multiplicative
    action on 1..p-1 (size q, ordered by smallest member), then q-1 classes
    of size p for the nontrivial complement powers.  Characters: the q linear
    characters lifted from the complement, then the (p-1)/q induced degree-q
    characters ordered by smallest orbit member.
    """
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got ({p}, {q})")
    if (p - 1) % q != 0:
        raise ValueError(f"q={q} does not divide p-1={p - 1}")
    if any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError(f"p={p} is not prime")
    n = 1 + (p - 1) // q + (q - 1)
    if n > MAX_CLASSES:
        raise SizeLimitError(f"Frobenius group of order {p * q} has {n} classes > {MAX_CLASSES}")
    h = None
    for candidate in range(2, p):
        e, x = 0, 1
        for e in range(1, q + 1):
            x = (x * candidate) % p
            if x == 1:
                break
        if x == 1 and e == q:
            h = candidate
            break
    if h is None:
        raise ValueError(f"no element of multiplicative order {q} mod {p}")
    seen = [False] * p
    orbits: list[tuple[int, ...]] = []
    for a in range(1, p):
        if seen[a]:
            continue
        orbit = []
        x = a
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = (x * h) % p
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: o[0])

    N = p * q
    one = Cyclotomic.one(N)
    zero = Cyclotomic.zero(N)
    qq = Cyclotomic.constant(N, q)
    class_sizes = (1,) + tuple(q for _ in orbits) + tuple(p for _ in range(q - 1))
    rows = []
    for t in range(q):
        linear = [one] + [one for _ in orbits]
        linear += [root_of_unity(N, (t * c * p) % N) for c in range(1, q)]
        rows.append(tuple(linear))
    for orbit in orbits:
        vals = [qq]
        for other in orbits:
            acc = Cyclotomic.zero(N)
            for x in other:
                acc = acc + root_of_unity(N, (orbit[0] * x * q) % N)
            vals.append(acc)
        vals += [zero for _ in range(q - 1)]
        rows.append(tuple(vals))
    return CharacterTable(
        name=f"T({p},{q})",
        order=p * q,
        n=n,
        root_order=N,
        class_sizes=class_sizes,
        values=tuple(rows),
    )


# ---------------------------------------------------------------------------
# serialization

def table_to_document(t: CharacterTable) -> dict[str, Any]:
    """Serializable document; cyclotomic values as [num, den, exp] term lists."""
    return {
        "name": t.name,
        "order": t.order,
        "num_classes": t.n,
        "root_order": t.root_order,
        "class_sizes": list(t.class_sizes),
        "characters": [[v.to_terms() for v in row] for row in t.values],
    }


def save_table(t: CharacterTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_document(t), fh, indent=2)
        fh.write("\n")


def load_table(document: dict[str, Any]) -> CharacterTable:
    """Parse and fully validate a table document.

    Raises TableFormatError for structural problems, SizeLimitError past the
    class limit, and TableValidationError carrying the complete list of
    violated invariants otherwise.
    """
    if not isinstance(document, dict):
        raise TableFormatError("table document must be a JSON object")
    unknown = set(document) - _DOCUMENT_FIELDS
    if unknown:
        raise TableFormatError(f"unknown fields: {sorted(unknown)}")
    missing = _DOCUMENT_FIELDS - set(document)
    if missing:
        raise TableFormatError(f"missing fields: {sorted(missing)}")
    name = document["name"]
    order = document["order"]
    n = document["num_classes"]
    root_order = document["root_order"]
    sizes = document["class_sizes"]
    chars = document["characters"]
    if not isinstance(name, str):
        raise TableFormatError("name must be a string")
    for label, v in (("order", order), ("num_classes", n), ("root_order", root_order)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise TableFormatError(f"{label} must be a positive integer")
    if n > MAX_CLASSES:
        raise SizeLimitError(f"num_classes {n} > {MAX_CLASSES}")
    if not isinstance(sizes, list) or len(sizes) != n:
        raise TableFormatError(f"class_sizes must be a list of length {n}")
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in sizes):
        raise TableFormatError("class_sizes must be integers")
    if not isinstance(chars, list) or len(chars) != n:
        raise TableFormatError(f"characters must be a list of {n} rows")
    rows = []
    for i, row in enumerate(chars, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise TableFormatError(f"character row {i} must be a list of {n} values")
        parsed = []
        for j, terms in enumerate(row, start=1):
            if not isinstance(terms, list):
                raise TableFormatError(f"value at row {i}, column {j} must be a term list")
            triples = []
            for term in terms:
                if (
                    not isinstance(term, list)
                    or len(term) != 3
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in term)
                    or term[1] == 0
                ):
                    raise TableFormatError(
                        f"value at row {i}, column {j} has a malformed term {term!r}"
                    )
                triples.append((term[0], term[1], term[2]))
            parsed.append(Cyclotomic.from_terms(root_order, triples))
        rows.append(tuple(parsed))
    t = CharacterTable(
        name=name,
        order=order,
        n=n,
        root_order=root_order,
        class_sizes=tuple(sizes),
        values=tuple(rows),
    )
    violations = validate_table(t)
    if violations:
        raise TableValidationError(violations)
    return t


def load_table_file(path) -> CharacterTable:
    """Load a table from a JSON file; corrupt JSON counts as an invalid table."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"not valid JSON: {exc}") from None
    return load_table(document)


# ---------------------------------------------------------------------------
# validation

def integer_coefficients(t: CharacterTable) -> tuple[np.ndarray, int]:
    """The values lifted to integers: a[i, j] holds the power-basis
    coefficients over Q(zeta_N) of values[i][j] times den, the lcm of all
    their denominators, as Python ints in an object array of shape (n, n, d),
    d = deg Phi_N.  A value of another root order raises OrderMismatchError."""
    n, m = t.n, t.root_order
    d = _context(m).degree
    at, coeffs = [], []  # flat index (i n + j) d + e of each term, and its coefficient
    for i, row in enumerate(t.values):
        for j, v in enumerate(row):
            if v.order != m:
                raise OrderMismatchError(
                    f"value at row {i + 1}, column {j + 1} has root order {v.order}, not {m}"
                )
            for e, c in v.terms():
                at.append((i * n + j) * d + e)
                coeffs.append(c)
    den = math.lcm(*(c.denominator for c in coeffs))
    a = np.zeros(n * n * d, dtype=object)
    a[at] = np.array([c.numerator * (den // c.denominator) for c in coeffs], dtype=object)
    return a.reshape(n, n, d), den


def validate_table(t: CharacterTable) -> list[str]:
    """All violated character-table invariants, empty when the table is valid.

    Row orthogonality, sum_j |K_j| chi_a(j) conj(chi_b(j)) = |G| [a = b], is
    checked in exact integer linear algebra on integer_coefficients (shared
    with SigmaMatrix): the lifted coefficients are conjugated and multiplied
    by matmuls against the integer rows of zeta^e, and the sums must be
    |G| den^2 on the diagonal and 0 elsewhere.  Every intermediate is at most
    (2d-1) d^2 n max|K_j| (max|coeff| max|row entry|)^2, d = deg Phi_N;
    when that bound and |G| den^2 are below 2^62 the arithmetic is int64,
    else Python ints (dtype object).  A value whose root order is not N is
    reported, and the orthogonality check is then skipped.
    """
    out: list[str] = []
    n = t.n
    if n < 1:
        return ["table has no classes"]
    if n > MAX_CLASSES:
        out.append(f"num_classes {n} > {MAX_CLASSES}")
    if len(t.class_sizes) != n or len(t.values) != n or any(len(r) != n for r in t.values):
        return out + ["table is not square with matching class_sizes length"]
    if t.class_sizes[0] != 1:
        out.append(f"identity class size is {t.class_sizes[0]}, not 1")
    for j, s in enumerate(t.class_sizes, start=1):
        if s < 1:
            out.append(f"class {j} has non-positive size {s}")
    if sum(t.class_sizes) != t.order:
        out.append(f"class sizes sum to {sum(t.class_sizes)}, not the group order {t.order}")
    for j in range(n):
        if t.values[0][j] != 1:
            out.append(f"trivial character is not 1 on class {j + 1}")
    degrees = []
    for i in range(n):
        v = t.values[i][0]
        if not v.is_positive_integer():
            out.append(f"character {i + 1} degree {v} is not a positive integer")
            degrees.append(None)
        else:
            degrees.append(int(v.rational_value()))
    if all(d is not None for d in degrees) and sum(d * d for d in degrees) != t.order:
        out.append(
            f"sum of squared degrees is {sum(d * d for d in degrees)}, not the group order {t.order}"
        )
    mismatched = [
        f"value at row {i + 1}, column {j + 1} has root order {v.order}, not {t.root_order}"
        for i, row in enumerate(t.values)
        for j, v in enumerate(row)
        if v.order != t.root_order
    ]
    if mismatched:
        return out + mismatched
    failing = np.triu((_orthogonality_defect(t) != 0).any(axis=2))
    for a, b in zip(*np.nonzero(failing)):
        out.append(f"row orthogonality fails for characters ({a + 1}, {b + 1})")
    return out


def _orthogonality_defect(t: CharacterTable) -> np.ndarray:
    """den^2 (sum_j |K_j| chi_a(j) conj(chi_b(j)) - |G| [a = b]) on the power
    basis, shape (n, n, d); see validate_table."""
    n, m, ctx = t.n, t.root_order, _context(t.root_order)
    d = ctx.degree
    a, den = integer_coefficients(t)
    try:
        a = a.astype(np.int64)  # numpy scans the cast array; object only when it must
    except OverflowError:
        pass
    amax = max(int(a.max()), -int(a.min()))
    smax = max(1, *map(abs, t.class_sizes))
    cmax = max(max(max(r), -min(r)) for r in ctx.rows)
    bound = max((2 * d - 1) * d * d * n * smax * (amax * cmax) ** 2, abs(t.order) * den * den)
    dtype = np.int64 if bound < 1 << 62 else object
    a = a.astype(dtype)
    zeta_rows = np.array(ctx.rows, dtype)  # row e: power-basis coefficients of zeta^e
    # only exponents with a nonzero coefficient somewhere take part
    ks = np.flatnonzero((a != 0).any(axis=(0, 1)))
    conj_a = a[:, :, ks] @ zeta_rows[-ks % m]
    ls = np.flatnonzero((conj_a != 0).any(axis=(0, 1)))
    conj_t = conj_a[:, :, ls].transpose(1, 0, 2).reshape(n, n * len(ls))  # [j, (b, l)]
    weighted = a * np.array(t.class_sizes, dtype)[None, :, None]
    products = np.zeros((n, n, 2 * d - 1), dtype)
    for k in ks:
        products[:, :, k + ls] += (weighted[:, :, k] @ conj_t).reshape(n, n, len(ls))
    used = np.flatnonzero((products != 0).any(axis=(0, 1)))
    defect = products[:, :, used] @ zeta_rows[used % m]
    defect[range(n), range(n), 0] -= t.order * den * den
    return defect
