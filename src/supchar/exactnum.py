"""Exact arithmetic in cyclotomic fields.

Values live in Q(zeta_N) for a fixed root order N and are kept in canonical
reduced form on the power basis 1, zeta, ..., zeta^(d-1), where d is the
degree of the N-th cyclotomic polynomial.  Canonical form makes equality,
hashing and serialization exact: two values are mathematically equal iff
their stored term lists are identical.

The scalar type is `Rational`, an alias of `fractions.Fraction` (always in
lowest terms with positive denominator).  Integer coefficients are stored as
plain ints; Python's numeric tower keeps int/Fraction equality and hashing
consistent, so mixed coefficient tuples still compare and hash by value.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction

ScalarLike = Union[int, Fraction]


class OrderMismatchError(ValueError):
    """Raised when combining cyclotomic values with different root orders."""


# ---------------------------------------------------------------------------
# integer polynomials (dense coefficient tuples, constant term first)

def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # exact division of monic-leading integer polynomials; remainder must vanish
    num_l = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(num_l[i + dn], lead)
        if r:
            raise ArithmeticError("division is not exact")
        out[i] = c
        if c:
            for j, cd in enumerate(den):
                num_l[i + j] -= c * cd
    if any(num_l[: dn]):
        raise ArithmeticError("division left a remainder")
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


class _Context:
    """Per-order reduction data: degree and power-basis rows for zeta^e."""

    __slots__ = ("order", "degree", "rows")

    def __init__(self, order: int):
        phi = cyclotomic_polynomial(order)
        deg = len(phi) - 1
        rows: list[tuple[int, ...]] = []
        for e in range(deg):
            rows.append(tuple(1 if i == e else 0 for i in range(deg)))
        # zeta^deg = -(phi - x^deg), then shift repeatedly
        if deg < order:
            top = tuple(-c for c in phi[:deg])
            rows.append(top)
            for _ in range(deg + 1, order):
                prev = rows[-1]
                shifted = [0] + list(prev[: deg - 1])
                carry = prev[deg - 1]
                if carry:
                    shifted = [s + carry * t for s, t in zip(shifted, top)]
                rows.append(tuple(shifted))
        self.order = order
        self.degree = deg
        self.rows = tuple(rows)


@functools.lru_cache(maxsize=None)
def _context(order: int) -> _Context:
    return _Context(order)


def _simplify(c: ScalarLike) -> ScalarLike:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class Cyclotomic:
    """An exact element of Q(zeta_order), reduced mod the cyclotomic polynomial.

    >>> z = root_of_unity(4, 1)
    >>> z * z == -1
    True
    >>> (root_of_unity(3, 1) + root_of_unity(3, 2)).rational_value()
    Fraction(-1, 1)
    """

    __slots__ = ("_order", "_terms", "_hash")

    def __init__(self, order: int, terms: Iterable[tuple[int, ScalarLike]], *, _reduced: bool = False):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if _reduced:
            self._terms = tuple(terms)
        else:
            ctx = _context(order)
            acc: dict[int, ScalarLike] = {}
            for e, c in terms:
                if not c:
                    continue
                acc[e % order] = acc.get(e % order, 0) + c
            vec: dict[int, ScalarLike] = {}
            for e, c in acc.items():
                if not c:
                    continue
                if e < ctx.degree:
                    vec[e] = vec.get(e, 0) + c
                else:
                    for i, r in enumerate(ctx.rows[e]):
                        if r:
                            vec[i] = vec.get(i, 0) + c * r
            self._terms = tuple(
                (e, _simplify(c)) for e, c in sorted(vec.items()) if c
            )
        self._order = order
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, order: int, value: ScalarLike) -> "Cyclotomic":
        value = _simplify(Fraction(value) if not isinstance(value, int) else value)
        return cls(order, [(0, value)] if value else [], _reduced=True)

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls.constant(order, 0)

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls.constant(order, 1)

    @classmethod
    def from_terms(cls, order: int, terms: Iterable[tuple[int, int, int]]) -> "Cyclotomic":
        """Build from (numerator, denominator, exponent) triples."""
        return cls(order, [(e, Fraction(num, den)) for num, den, e in terms])

    # -- basic accessors ----------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    def terms(self) -> tuple[tuple[int, ScalarLike], ...]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and self._terms[0][0] == 0:
            return Fraction(self._terms[0][1])
        return None

    def is_positive_integer(self) -> bool:
        r = self.rational_value()
        return r is not None and r.denominator == 1 and r > 0

    def coeff_vector(self) -> list[ScalarLike]:
        """Dense coordinates on the power basis (length = degree of Phi_N)."""
        vec: list[ScalarLike] = [0] * _context(self._order).degree
        for e, c in self._terms:
            vec[e] = c
        return vec

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Cyclotomic") -> None:
        if self._order != other._order:
            raise OrderMismatchError(
                f"cannot combine root orders {self._order} and {other._order}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.constant(self._order, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        acc = dict(self._terms)
        for e, c in other._terms:
            acc[e] = acc.get(e, 0) + c
        return Cyclotomic(
            self._order,
            tuple((e, _simplify(c)) for e, c in sorted(acc.items()) if c),
            _reduced=True,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(
            self._order, tuple((e, -c) for e, c in self._terms), _reduced=True
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.constant(self._order, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, r: ScalarLike) -> "Cyclotomic":
        """Multiply by a rational scalar."""
        if not r:
            return Cyclotomic.zero(self._order)
        return Cyclotomic(
            self._order,
            tuple((e, _simplify(c * r)) for e, c in self._terms),
            _reduced=True,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        order = self._order
        acc: dict[int, ScalarLike] = {}
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                e = e1 + e2
                if e >= order:
                    e -= order
                acc[e] = acc.get(e, 0) + c1 * c2
        return Cyclotomic(order, acc.items())

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(order-1)."""
        order = self._order
        return Cyclotomic(
            order, [((order - e) % order, c) for e, c in self._terms]
        )

    # -- equality and hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            self._check(other)
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            r = self.rational_value()
            return r is not None and r == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            r = self.rational_value()
            self._hash = hash(r) if r is not None else hash(self._terms)
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- serialization -------------------------------------------------------

    def to_terms(self) -> list[list[int]]:
        """Serialize as [numerator, denominator, exponent] triples."""
        out = []
        for e, c in self._terms:
            f = Fraction(c)
            out.append([f.numerator, f.denominator, e])
        return out

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for e, c in self._terms:
            f = Fraction(c)
            mag = abs(f)
            if e == 0:
                body = str(mag)
            else:
                z = "z" if e == 1 else f"z^{e}"
                body = z if mag == 1 else f"{mag}*{z}"
            if not chunks:
                chunks.append(body if f >= 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if f >= 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Cyclotomic({self._order}, {list(self._terms)!r})"


def root_of_unity(order: int, k: int = 1) -> Cyclotomic:
    """zeta_order^k in canonical form.

    >>> root_of_unity(2, 1) == -1
    True
    >>> str(root_of_unity(5, 7))
    'z^2'
    """
    return Cyclotomic(order, [(k, 1)])
