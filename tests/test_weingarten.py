import math
from fractions import Fraction

import pytest

from haarwords import perms, weingarten as wg
from haarwords import selftest
from haarwords.errors import StructureViolationError, UnsupportedSizeError, ValidationError
from haarwords.ratfunc import Polynomial, RationalFunction
from haarwords.symgroup import Partition, char_table, partitions_of
from oracles import (SymAlgebraElement, central_projection, norm_kl, schur_dim_poly,
                     transpositions, valuation_at_infinity, z_element)


def test_wg_closed_forms():
    n = Polynomial((0, 1))
    assert wg.wg(1, (0,)) == RationalFunction(Polynomial((1,)), n)
    assert wg.wg(2, (0, 1)) == RationalFunction(Polynomial((1,)), Polynomial((-1, 0, 1)))
    assert wg.wg(2, (1, 0)) == RationalFunction(Polynomial((-1,)), Polynomial((0, -1, 0, 1)))


def test_wg_accepts_cycle_types_and_checks_input():
    assert wg.wg(3, (1, 1, 1)) == wg.wg(3, (0, 1, 2))
    assert wg.wg(3, (3,)) == wg.wg(3, (1, 2, 0))
    with pytest.raises(ValidationError):
        wg.wg(3, (2,))
    with pytest.raises(UnsupportedSizeError):
        wg.wg(9, (9,))


def test_wg_conjugation_invariance():
    for L in (3, 4):
        for pi in perms.all_perms(L)[:8]:
            for rho in perms.all_perms(L)[::5]:
                conj = perms.compose(rho, perms.compose(pi, perms.inverse(rho)))
                assert wg.wg(L, pi) == wg.wg(L, conj)


def test_gram_inversion_identity():
    rows = selftest.gram_inversion(L_max=4)
    assert all(r["ok"] for r in rows)


def test_wg_value_requires_large_n():
    with pytest.raises(ValidationError):
        wg.wg_value(3, (3,), 2)
    assert wg.wg_value(2, (1, 1), 5) == Fraction(1, 24)


def test_pole_multiplicity_examples():
    assert wg.pole_multiplicity(2, 1) == 1
    assert wg.pole_multiplicity(4, 0) == 2
    for L in range(1, 7):
        assert wg.pole_multiplicity(L, L) == 0
    with pytest.raises(ValidationError):
        wg.pole_multiplicity(3, 5)


def factor_multiplicity(poly, c):
    """Multiplicity of (x + c) in an exact polynomial."""
    mult = 0
    probe = poly
    divisor = Polynomial((c, 1))
    while not probe.is_zero():
        q, r = probe.divmod(divisor)
        if not r.is_zero():
            break
        mult += 1
        probe = q
    return mult


@pytest.mark.parametrize("L", range(1, 6))
def test_pole_multiplicity_bounds_actual_denominators(L):
    for ct in partitions_of(L):
        den = wg.wg(L, ct.parts).den
        for c in range(-L, L + 1):
            assert factor_multiplicity(den, c) <= wg.pole_multiplicity(L, c)


def wg_by_character_sum(L, ct):
    """Wg_L(ct) as one RationalFunction add per lambda |- L:
    sum chi(1)^2 chi(ct) / (L!^2 s_lambda(1))."""
    table = char_table(L)
    total = RationalFunction(0)
    for lam in table.partitions:
        total = total + table.dim(lam) ** 2 * table.chi(lam, ct) / schur_dim_poly(lam)
    return total * Fraction(1, math.factorial(L) ** 2)


@pytest.mark.parametrize("L", range(1, 7))
def test_shared_denominator_sum_matches_per_lambda_sum(L):
    D = wg.common_denominator(L)
    assert D == math.prod((Polynomial((c, 1)) ** m for c, m in wg.pole_orders(L).items()),
                          start=Polynomial((1,)))
    for ct in partitions_of(L):
        value = wg.wg(L, ct.parts)
        assert value == wg_by_character_sum(L, ct)
        quotient, remainder = D.divmod(value.den)
        assert remainder.is_zero()
        assert wg.lifted_wg(L, ct.parts) == value.num * quotient


def test_content_beyond_pole_order_raises(monkeypatch):
    monkeypatch.setattr(wg, "pole_orders", lambda L: {c: 0 for c in range(1 - L, L)})
    with pytest.raises(StructureViolationError, match="exceed the pole orders"):
        wg.lifted_wg.__wrapped__(3, (1, 1, 1))


def test_norm_kl_examples():
    assert norm_kl((0, 1, 2), 2, 1) == 0
    assert norm_kl((1, 0), 2, 0) == 0
    assert norm_kl((1, 0), 1, 1) == 1


def preserves_blocks(p, k):
    """True when p maps {0..k-1} into itself (hence lives in S_k x S_rest)."""
    return all(p[i] < k for i in range(k))


def test_norm_kl_against_brute_force():
    k, ell = 2, 1
    m = k + ell
    subgroup = {p for p in perms.all_perms(m) if preserves_blocks(p, k)}
    # brute-force: distance 0 = subgroup, 1 = subgroup * transposition, ...
    reach = {p: 0 for p in subgroup}
    frontier = set(subgroup)
    level = 0
    while len(reach) < math.factorial(m):
        level += 1
        nxt = set()
        for sigma in frontier:
            for t in transpositions(m):
                tau = perms.compose(sigma, t)
                if tau not in reach:
                    reach[tau] = level
                    nxt.add(tau)
        frontier = nxt
    for p in perms.all_perms(m):
        assert norm_kl(p, k, ell) == reach[p]
        assert (norm_kl(p, k, ell) == 0) == preserves_blocks(p, k)


def test_central_projections_are_orthogonal_idempotents():
    for k in range(1, 5):
        elements = {lam: SymAlgebraElement(lam.size, central_projection(lam))
                    for lam in partitions_of(k)}
        for lam, p in elements.items():
            assert p * p == p
            for lam2, p2 in elements.items():
                if lam2 != lam:
                    prod = p * p2
                    assert not prod.coeffs


def test_z_element_smallest_case():
    z = z_element(Partition((1,)), Partition(()))
    assert set(z.coeffs) == {(0,)}
    assert z.coefficient((0,)) == RationalFunction(Polynomial((1,)), Polynomial((0, 1)))


def test_z_element_degree_profile_adjoint_case():
    z = z_element(Partition((1,)), Partition((1,)))
    ident = z.coefficient((0, 1))
    swap = z.coefficient((1, 0))
    assert valuation_at_infinity(ident) == 2
    assert valuation_at_infinity(swap) >= 3


@pytest.mark.parametrize("lam,mu", [((1,), (1,)), ((2,), ()), ((2,), (1,)), ((1, 1), (1,))])
def test_z_element_decay_and_selfadjointness(lam, mu):
    lam, mu = Partition(lam), Partition(mu)
    k, ell = lam.size, mu.size
    z = z_element(lam, mu)
    for tau, coeff in z.coeffs.items():
        assert valuation_at_infinity(coeff) >= k + ell + norm_kl(tau, k, ell)
        assert z.coefficient(perms.inverse(tau)) == coeff


def test_sym_algebra_element_eval():
    z = z_element(Partition((1,)), Partition(()))
    vals = z.eval_at(5)
    assert vals[(0,)] == Fraction(1, 5)
