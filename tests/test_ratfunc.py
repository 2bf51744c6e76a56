"""`ratfunc.Polynomial`'s integer kernels against Fraction loops.

The oracle functions below are the polynomial arithmetic as it read when
the coefficients were stored as Fractions: Horner in Fractions, schoolbook
products, coefficient-wise sums.  The properties check that the integer
numerators over one denominator give the same coefficients and values, and
that the stored form is canonical.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haarwords.errors import ValidationError
from haarwords.ratfunc import Polynomial, RationalFunction

_coefficient = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                         st.fractions(max_denominator=60, min_value=-1000, max_value=1000))
_coeff_lists = st.lists(_coefficient, max_size=7)
_points = st.one_of(st.integers(min_value=-40, max_value=40),
                    st.fractions(max_denominator=50, min_value=-40, max_value=40))


# --- the Fraction oracle ---------------------------------------------------

def _trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _oracle_call(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _oracle_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _oracle_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _oracle_derivative(a):
    return _trim([c * i for i, c in enumerate(a) if i > 0])


def _oracle_monic(a):
    return tuple(c / a[-1] for c in a) if a else ()


# --- helpers ---------------------------------------------------------------

def _coeffs(p):
    """The Fraction coefficients of p, after checking its stored form is
    canonical: integer numerators, no trailing zero, a positive
    denominator, lowest terms."""
    assert all(type(a) is int for a in p.nums) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert not p.is_zero() or p.den == 1
    return p.coeffs


@given(_coeff_lists, _points)
def test_call_matches_fraction_horner(cs, x):
    value = Polynomial(cs)(x)
    assert type(value) is Fraction and value == _oracle_call(_trim(cs), x)


@pytest.mark.parametrize("x", [0, -3, Fraction(0), Fraction(-2, 7), Fraction(5, 3)])
def test_call_at_zero_negative_and_on_the_zero_polynomial(x):
    assert Polynomial()(x) == 0 and type(Polynomial()(x)) is Fraction
    p = Polynomial((Fraction(1, 2), -3, 0, Fraction(-4, 9)))
    assert p(x) == _oracle_call(p.coeffs, Fraction(x))


def test_call_rejects_a_float():
    with pytest.raises(ValidationError):
        Polynomial((1, 2))(0.5)


@given(_coeff_lists)
def test_construction_keeps_the_coefficients(cs):
    assert _coeffs(Polynomial(cs)) == _trim(cs)


@given(_coeff_lists, _coeff_lists)
def test_sum_difference_product_match_fraction_loops(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    ta, tb = _trim(a), _trim(b)
    assert _coeffs(pa + pb) == _oracle_add(ta, tb)
    assert _coeffs(pa - pb) == _oracle_add(ta, tuple(-c for c in tb))
    assert _coeffs(-pa) == tuple(-c for c in ta)
    assert _coeffs(pa * pb) == _oracle_mul(ta, tb)


@given(_coeff_lists, _coefficient)
def test_scalar_sum_and_product_match_fraction_loops(a, c):
    pa, ta = Polynomial(a), _trim(a)
    assert _coeffs(pa * c) == _coeffs(c * pa) == _trim([x * c for x in ta])
    assert _coeffs(pa + c) == _coeffs(c + pa) == _oracle_add(ta, (Fraction(c),))
    assert _coeffs(c - pa) == _oracle_add(tuple(-x for x in ta), (Fraction(c),))


@given(st.lists(_coefficient, max_size=4), st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_fraction_products(a, e):
    want = (Fraction(1),)
    for _ in range(e):
        want = _oracle_mul(want, _trim(a))
    assert _coeffs(Polynomial(a) ** e) == want


@given(_coeff_lists, st.integers(min_value=1, max_value=3))
def test_derivative_matches_fraction_loop(a, order):
    want = _trim(a)
    for _ in range(order):
        want = _oracle_derivative(want)
    assert _coeffs(Polynomial(a).derivative(order)) == want


@given(_coeff_lists)
def test_monic_matches_fraction_division(a):
    p = Polynomial(a).monic()
    assert _coeffs(p) == _oracle_monic(_trim(a))
    assert p.is_zero() or p.nums[-1] == p.den


def test_monic_with_a_negative_leading_coefficient():
    p = Polynomial((Fraction(1, 3), 2, Fraction(-2, 5))).monic()
    assert p.den > 0 and p.nums == (-5, -30, 6) and p.den == 6
    assert p.coeffs == (Fraction(-5, 6), Fraction(-5), Fraction(1))


def test_equal_polynomials_have_equal_fields_and_hashes():
    a = Polynomial((Fraction(2, 4), 1))
    b = Polynomial((Fraction(1, 2), Fraction(3, 3)))
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == (b.nums, b.den) == ((1, 2), 2)
    assert Polynomial((0, 0)) == Polynomial() == 0
    assert Polynomial((Fraction(6, 2),)) == 3 and hash(Polynomial((3,))) == hash(Polynomial((Fraction(3),)))
    assert len({a, b, Polynomial((1, 2))}) == 2


@given(_coeff_lists, _coeff_lists)
def test_equality_and_hash_follow_the_coefficients(a, b):
    pa, pb = Polynomial(a), Polynomial(b)
    assert (pa == pb) == (_trim(a) == _trim(b))
    if pa == pb:
        assert hash(pa) == hash(pb)


@pytest.mark.parametrize("den, pole", [((-2, 1), 2), ((-1, 2), Fraction(1, 2)), ((0, 1), 0)])
def test_rational_function_raises_at_a_pole(den, pole):
    f = RationalFunction(Polynomial((1,)), Polynomial(den))
    with pytest.raises(ZeroDivisionError):
        f(pole)
