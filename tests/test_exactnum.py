"""Exact cyclotomic arithmetic: canonical form, ring laws, serialization.

The independent oracle here is sympy: its cyclotomic polynomials and
polynomial reduction are a separate code path from supchar's own, so
canonical-form soundness is checked against it rather than against the
implementation under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from supchar.exactnum import (
    Cyclotomic,
    OrderMismatchError,
    Rational,
    cyclotomic_polynomial,
    root_of_unity,
)


def sympy_phi(n: int) -> tuple[int, ...]:
    """Independent cyclotomic polynomial, constant term first."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def sympy_reduce(order: int, terms: list[tuple[int, Fraction]]) -> tuple:
    """Independent reduction of sum c_i * zeta^e_i mod Phi_order."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** (e % order) for e, c in terms)
    poly = sympy.Poly(expr, x, domain="QQ")
    phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")
    rem = poly.rem(phi)
    coeffs = [Fraction(c.p, c.q) for c in reversed(rem.all_coeffs())]
    degree = phi.degree()
    coeffs += [Fraction(0)] * (degree - len(coeffs))
    return tuple(coeffs)


def as_vector(v: Cyclotomic, degree: int) -> tuple:
    vec = [Fraction(0)] * degree
    for e, c in v.terms():
        vec[e] = Fraction(c)
    return tuple(vec)


class TestCyclotomicPolynomial:
    def test_first_orders(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_order_twelve_frozen(self):
        # x^4 - x^2 + 1, cross-derived by dividing x^12-1 by the proper-divisor
        # cyclotomics; frozen here and matched against the sympy oracle below
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", list(range(1, 31)) + [36, 40, 62, 105])
    def test_against_sympy(self, n):
        assert cyclotomic_polynomial(n) == sympy_phi(n)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_root_annihilates(self, n):
        z = root_of_unity(n)
        acc = Cyclotomic.zero(n)
        power = Cyclotomic.one(n)
        for c in cyclotomic_polynomial(n):
            acc = acc + power.scale(c)
            power = power * z
        assert acc.is_zero()

    def test_bad_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestCanonicalForm:
    def test_root_wraps_modulo_order(self):
        assert root_of_unity(5, 7) == root_of_unity(5, 2)
        assert root_of_unity(5, -1) == root_of_unity(5, 4)

    def test_high_power_reduces(self):
        # zeta_4^2 = -1 has no degree-2 slot in Q(i)
        v = root_of_unity(4, 1) * root_of_unity(4, 1)
        assert v == -1
        assert v.rational_value() == Fraction(-1)

    def test_sixth_vs_third_roots(self):
        # zeta_6 = -zeta_3^2, both written in order 6: zeta_3^2 = zeta_6^4
        lhs = root_of_unity(6, 1)
        rhs = -root_of_unity(6, 4)
        assert lhs == rhs
        assert sympy_reduce(6, [(1, Fraction(1))]) == sympy_reduce(6, [(4, Fraction(-1))])

    def test_full_root_sum_vanishes(self):
        for n in (3, 5, 7, 12):
            total = Cyclotomic.zero(n)
            for k in range(n):
                total = total + root_of_unity(n, k)
            assert total.is_zero()

    @pytest.mark.parametrize("order", [3, 4, 5, 6, 8, 9, 12, 15, 16, 21, 24])
    def test_reduction_matches_sympy(self, order):
        rng = random.Random(order * 1009)
        degree = len(cyclotomic_polynomial(order)) - 1
        for _ in range(25):
            terms = [
                (rng.randrange(0, 2 * order), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            mine = Cyclotomic(order, terms)
            assert as_vector(mine, degree) == sympy_reduce(order, terms)

    def test_equality_is_canonical(self):
        a = Cyclotomic(7, [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1)])
        assert a == -1
        assert a == Cyclotomic.constant(7, -1)
        assert hash(a) == hash(Cyclotomic.constant(7, -1))

    def test_hash_matches_rational_embedding(self):
        assert hash(Cyclotomic.constant(9, 5)) == hash(Fraction(5))


class TestArithmetic:
    def test_examples(self):
        assert root_of_unity(3, 1) + root_of_unity(3, 2) == -1
        assert root_of_unity(7, 3) * root_of_unity(7, 5) == root_of_unity(7, 1)
        x = root_of_unity(4).scale(Fraction(3, 2))
        assert (x + x.conjugate()).is_zero()

    def test_golden_ratio_relation(self):
        c = root_of_unity(5, 1) + root_of_unity(5, 4)
        assert c * c + c - 1 == 0

    def test_conjugate_fixes_rationals(self):
        v = Cyclotomic.constant(11, Fraction(5, 3))
        assert v.conjugate() == v

    def test_conjugate_involution(self):
        rng = random.Random(7)
        for _ in range(40):
            order = rng.choice([3, 4, 5, 8, 12, 20])
            v = Cyclotomic(
                order,
                [(rng.randrange(order), Fraction(rng.randint(-5, 5))) for _ in range(4)],
            )
            assert v.conjugate().conjugate() == v

    def test_conjugate_of_root(self):
        assert root_of_unity(3).conjugate() == root_of_unity(3, 2)

    def test_ring_laws_random(self):
        rng = random.Random(13)
        for _ in range(60):
            order = rng.choice([4, 5, 6, 9, 12])
            mk = lambda: Cyclotomic(
                order,
                [
                    (rng.randrange(order), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(3)
                ],
            )
            a, b, c = mk(), mk(), mk()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == 0

    def test_scalar_mixing(self):
        v = root_of_unity(8)
        assert 2 * v == v + v
        assert v * Fraction(1, 2) + v * Fraction(1, 2) == v
        assert 1 + v - 1 == v

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            root_of_unity(3) + root_of_unity(4)
        with pytest.raises(OrderMismatchError):
            root_of_unity(3) * root_of_unity(4)
        with pytest.raises(OrderMismatchError):
            root_of_unity(3) == root_of_unity(4)


class TestKeysAndSerialization:
    def test_term_round_trip(self):
        rng = random.Random(99)
        for _ in range(30):
            order = rng.choice([5, 8, 12, 21])
            v = Cyclotomic(
                order,
                [
                    (rng.randrange(2 * order), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                    for _ in range(4)
                ],
            )
            again = Cyclotomic.from_terms(order, [tuple(t) for t in v.to_terms()])
            assert again == v

    def test_terms_are_sorted_and_normalized(self):
        v = root_of_unity(5, 3) + root_of_unity(5, 1).scale(Fraction(2, 4))
        triples = v.to_terms()
        exps = [t[2] for t in triples]
        assert exps == sorted(exps)
        for num, den, _ in triples:
            assert den > 0
            from math import gcd

            assert gcd(num, den) == 1


class TestRationalScalar:
    def test_alias(self):
        assert Rational is Fraction

    def test_normalization_invariants(self):
        r = Rational(6, -4)
        assert r.denominator > 0
        assert abs(Rational(0, 5).numerator) == 0 and Rational(0, 5).denominator == 1
        from math import gcd

        assert gcd(r.numerator, r.denominator) == 1

    def test_exactness(self):
        assert Rational(1, 3) + Rational(1, 6) == Rational(1, 2)
