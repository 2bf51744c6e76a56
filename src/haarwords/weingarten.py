"""The unitary Weingarten function as an exact rational function of the
dimension n, and its numerators over the shared denominator D_L.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import perms
from .errors import StructureViolationError, UnsupportedSizeError, ValidationError
from .ratfunc import Polynomial, RationalFunction
from .symgroup import Partition, char_table

WG_DEGREE_CAP = 8


@lru_cache(maxsize=None)
def pole_orders(L):
    """The common denominator D_L(n) = prod (n + c)^m(L, c) over |c| < L,
    as {c: m(L, c)}.  Every content c of lambda |- L has |c| < L and occurs
    at most m(L, c) times, so every Wg_L denominator divides D_L."""
    return {c: pole_multiplicity(L, c) for c in range(1 - L, L)}


@lru_cache(maxsize=None)
def common_denominator(L):
    """D_L(n) as a monic Polynomial."""
    den = Polynomial((1,))
    for c, m in pole_orders(L).items():
        den = den * Polynomial((c, 1)) ** m
    return den


@lru_cache(maxsize=None)
def lifted_wg(L, ct):
    """The numerator N with Wg_L(ct) = N / D_L: the character sum over
    lambda |- L, each term chi(1)^2 / s_lambda(1) * chi(ct) / L!^2 with
    s_lambda(1) = prod (n + c) / prod hooks lifted onto D_L.  Sums of
    Weingarten values over D_L add numerators and normalise once."""
    table = char_table(L)
    rho = Partition(ct)
    num = Polynomial()
    for lam in table.partitions:
        chi = table.chi(lam, rho)
        if chi == 0:
            continue
        excess = dict(pole_orders(L))
        for c in lam.contents():
            excess[c] -= 1
        if min(excess.values()) < 0:
            raise StructureViolationError(
                f"content multiplicities of {lam} exceed the pole orders of D_{L}",
                details={"lambda": lam.to_json(), "excess": excess})
        term = Polynomial((table.dim(lam) ** 2 * math.prod(lam.hooks()) * chi,))
        for c, e in excess.items():
            term = term * Polynomial((c, 1)) ** e
        num = num + term
    return num * Fraction(1, math.factorial(L) ** 2)


@lru_cache(maxsize=None)
def _wg_by_cycle_type(L, ct):
    return RationalFunction(lifted_wg(L, ct), common_denominator(L))


def wg(L, pi):
    """Weingarten function Wg_L(pi) as an exact rational function of n.

    pi may be a permutation tuple of degree L or a cycle type; the value
    depends only on the conjugacy class.
    """
    if not 1 <= L <= WG_DEGREE_CAP:
        raise UnsupportedSizeError(f"Weingarten degree {L} outside 1..{WG_DEGREE_CAP}")
    if isinstance(pi, Partition):
        ct = pi.parts
    else:
        pi = tuple(pi)
        if len(pi) == L and sorted(pi) == list(range(L)):
            ct = perms.cycle_type(pi)
        elif all(x >= 1 for x in pi) and sorted(pi, reverse=True) == list(pi):
            ct = pi
        else:
            raise ValidationError(f"neither a permutation of degree {L} nor a cycle type: {pi}")
    if sum(ct) != L:
        raise ValidationError(f"cycle type {ct} does not sum to {L}")
    return _wg_by_cycle_type(L, tuple(ct))


def wg_value(L, pi, n):
    """Wg_L(pi) evaluated at integer n >= L, as an exact Fraction."""
    if n < L:
        raise ValidationError(f"need n >= {L} for the exact Weingarten value, got {n}")
    return wg(L, pi)(Fraction(n))


def pole_multiplicity(L, c):
    """Largest multiplicity of the factor (n + c) over all denominators of
    Wg_L: the largest d with d*(d + |c|) <= L."""
    if abs(c) > L:
        raise ValidationError(f"|content| {abs(c)} exceeds {L}")
    d = 0
    while (d + 1) * (d + 1 + abs(c)) <= L:
        d += 1
    return d
