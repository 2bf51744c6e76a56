"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured value and elapsed time.  Tolerances are pinned here and
must not be loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from haarwords import bounds, freegroup as fg, montecarlo as mc, rwalk, selftest
from haarwords import wordint as wi
from haarwords.symgroup import Partition, partitions_of
from haarwords.ratfunc import Polynomial, RationalFunction
from oracles import dense, markov_check, q_projector

COMM = fg.parse_word("abAB")


def report(number, text, elapsed):
    print(f"ACCEPTANCE {number}: PASS - {text} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def interp_reports():
    reports = {}
    t0 = time.time()
    for lam, mu in (((2,), ()), ((1, 1), ()), ((1,), (1,))):
        reports[(lam, mu)] = wi.interpolate_phi(lam, mu, COMM)
    reports["elapsed"] = time.time() - t0
    return reports


def test_criterion_1_weingarten_closed_forms():
    t0 = time.time()
    from haarwords.weingarten import wg
    n = Polynomial((0, 1))
    assert wg(2, (1, 1)) == RationalFunction(Polynomial((1,)), Polynomial((-1, 0, 1)))
    assert wg(2, (2,)) == RationalFunction(Polynomial((-1,)), Polynomial((0, -1, 0, 1)))
    rows = selftest.gram_inversion(L_max=4)
    assert all(r["ok"] for r in rows)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "Wg closed forms and exact Gram inversion for L<=4, n in {L..L+2}", elapsed)


def test_criterion_2_commutator_integral():
    t0 = time.time()
    for n in range(2, 11):
        assert wi.expect_stable_character((1,), (), COMM, n=n) == Fraction(1, n)
    res = mc.mc_expect(Partition((1,)), Partition(()), COMM, 5, 100000,
                       mc.substream(20250808, "crit2"))
    assert abs(res.mean - 0.2) <= 4 * res.se
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"commutator = 1/n exactly for n=2..10; MC {res.mean.real:.5f}"
              f" +- {res.se:.5f} vs 0.2", elapsed)


def test_criterion_3_rational_structure(interp_reports):
    t0 = time.time()
    rep = interp_reports[((2,), ())]
    assert rep.degree_cap == math.ceil(3 * 8 * (1 + math.log(8))) == 74
    assert rep.fitted_degree <= rep.degree_cap
    assert len(rep.residuals) == 5
    assert all(r == 0 for r in rep.residuals)
    elapsed = time.time() - t0 + interp_reports["elapsed"] / 3
    report(3, f"exact interpolation for lambda=(2): degree {rep.fitted_degree}"
              f" <= 74, all 5 held-out residuals exactly zero", elapsed)


def test_criterion_4_decay_orders(interp_reports):
    t0 = time.time()
    orders = {}
    for lam in partitions_of(2):
        rep = interp_reports[(lam.parts, ())]
        verdict = wi.decay_order_check(rep)
        assert verdict["passed"] and verdict["required_order"] == 2
        orders[lam.parts] = verdict["observed_order"]
    rep = interp_reports[((1,), (1,))]
    verdict = wi.decay_order_check(rep)
    assert verdict["passed"] and verdict["required_order"] == 1
    orders["mixed"] = verdict["observed_order"]
    elapsed = time.time() - t0 + 2 * interp_reports["elapsed"] / 3
    report(4, f"vanishing orders {orders} meet the guaranteed 2, 2, 1", elapsed)


def test_criterion_5_strong_convergence_norms():
    ref = 2 * math.sqrt(3)
    terms = [(fg.parse_word(s), 1.0) for s in ("a", "A", "b", "B")]
    t0 = time.time()
    rep = mc.strong_convergence_experiment(2, 300, 1, 0, terms, samples=1,
                                           seed=20250805, reference=ref)
    e1 = time.time() - t0
    assert e1 < 120.0
    assert abs(rep.norm_estimates[0] - ref) <= 0.15
    t0 = time.time()
    rep2 = mc.strong_convergence_experiment(2, 80, 1, 1, terms, samples=1,
                                            seed=20250806, reference=ref)
    e2 = time.time() - t0
    assert e2 < 120.0
    assert abs(rep2.norm_estimates[0] - ref) <= 0.25
    report(5, f"norms {rep.norm_estimates[0]:.4f} (n=300, k=1,l=0; tol 0.15) and "
              f"{rep2.norm_estimates[0]:.4f} (n=80, k=l=1; tol 0.25) vs 2*sqrt(3)={ref:.4f}",
           e1 + e2)


def test_criterion_6_projector_identities():
    t0 = time.time()
    m = q_projector(Partition((1,)), Partition((1,)), 4)
    assert np.max(np.abs(m @ m - m)) < 1e-10
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    assert abs(np.trace(m) - 15) < 1e-10
    u = mc.sample_tuple(1, 4, mc.substream(20250807, "crit6"))[0]
    r = dense(mc.tensor_representation(u, 1, 1))
    assert np.max(np.abs(m @ r - r @ m)) < 1e-10
    t = m.reshape(4, 4, 4, 4)
    assert np.max(np.abs(np.einsum("abuu->ab", t))) < 1e-12
    assert np.max(np.abs(np.einsum("uuab->ab", t))) < 1e-12
    report(6, "mixed projector: idempotent, self-adjoint, trace 15, commutes, "
              "contraction sums vanish", time.time() - t0)


def test_criterion_7_dimension_bounds():
    t0 = time.time()
    checked = 0
    for n in range(4, 41):
        for total in range(0, 9):
            for k in range(total + 1):
                for lam in partitions_of(k):
                    for mu in partitions_of(total - k):
                        if lam.length + mu.length > n:
                            continue
                        rec = mc.dim_bounds_check(mc.mixed_weight(lam, mu, n), n)
                        assert rec["passed"]
                        checked += 1
    # threshold classifier at n = 30, A = 0.5
    n, a_exp = 30, 0.5
    threshold = mc.DIM_LOWER_BOUND_CONSTANT * n ** a_exp
    for total in range(0, 9):
        for k in range(total + 1):
            for lam in partitions_of(k):
                for mu in partitions_of(total - k):
                    rec = mc.dim_bounds_check(mc.mixed_weight(lam, mu, n), n)
                    if mc._log_int(rec["dim"]) < threshold:
                        assert rec["l1"] <= n ** a_exp
    report(7, f"Weyl dimension bounds with c=log(2)/8 over {checked} weights, "
              f"n in 4..40, plus the n=30 threshold classifier", time.time() - t0)


def test_criterion_8_random_walk():
    t0 = time.time()
    mu = rwalk.WalkMeasure.uniform_generators(2)
    assert rwalk.return_probability(mu, 4) == Fraction(7, 64)
    bracket = rwalk.spectral_radius(mu)
    kesten = math.sqrt(3) / 2
    assert bracket.width() < 0.05
    assert bracket.lower <= kesten <= bracket.upper
    stats = rwalk.proper_power_stats(mu, steps=30, samples=100000, seed=20250808)
    log_rho = math.log(kesten)
    assert abs(stats.slope - log_rho) < 0.05
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(8, f"P4=7/64 exact; bracket [{bracket.lower:.4f},{bracket.upper:.4f}] "
              f"width {bracket.width():.4f}; slope {stats.slope:.4f} vs "
              f"log rho {log_rho:.4f}", elapsed)


def test_criterion_9_analytic_gadgets():
    t0 = time.time()
    for L in range(1, 21):
        for i in (0, 1, 2, 3, 4, 6, 8, 10, 12):
            rec = bounds.g_derivative_bound_check(L, i)
            assert rec["sup_derivative"] <= rec["derivative_bound"] * (1 + 1e-9)
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(500):
        deg = int(rng.integers(1, 11))
        coeffs = rng.standard_normal(deg + 1)
        coeffs[-1] += np.sign(coeffs[-1]) + 1e-3
        k = int(rng.integers(1, min(deg, 3) + 1))
        rec = markov_check(list(coeffs), k)
        worst = max(worst, rec["ratio"])
        assert rec["ratio"] <= 1 + 1e-9
    # Chebyshev extremal equality
    cheb = [np.array([1.0]), np.array([0.0, 1.0])]
    for _ in range(9):
        nxt = np.zeros(len(cheb[-1]) + 1)
        nxt[1:] += 2 * cheb[-1]
        nxt[:len(cheb[-2])] -= cheb[-2]
        cheb.append(nxt)
    for deg in (4, 6, 8, 10):
        rec = markov_check(list(cheb[deg]), 1)
        assert abs(rec["ratio"] - 1.0) <= 1e-9
    report(9, f"g_L suite passes for L<=20, i<=12; Markov worst ratio {worst:.12f} "
              f"over 500 random polynomials; Chebyshev extremal ratio = 1",
           time.time() - t0)


def test_criterion_10_special_unitary_sampling():
    t0 = time.time()
    res = mc.mc_expect(Partition((1,)), Partition(()), COMM, 5, 30000,
                       mc.substream(20250810, "crit10"), group="SU")
    assert abs(res.mean - 0.2) <= 4 * res.se
    report(10, f"SU(5) commutator MC {res.mean.real:.5f} +- {res.se:.5f} vs 1/5",
           time.time() - t0)


def test_criterion_11_oracle_agreement():
    t0 = time.time()
    rows = selftest.monomial_agreement(samples=20000, seed=20250811)
    assert all(r["ok"] for r in rows)
    koike_rows = selftest.koike_agreement()      # raises on any mismatch
    assert len(koike_rows) == 38 and all(r["terms"] >= 1 for r in koike_rows)
    report(11, f"exact vs MC agreement on {len(rows)} monomials within 4 SE; "
               f"all {len(koike_rows)} expansions satisfy the character identity exactly",
           time.time() - t0)
