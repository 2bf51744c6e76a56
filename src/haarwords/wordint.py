"""Exact expectations of trace monomials and stable characters of word
maps over tuples of independent Haar unitaries, plus the exact
pole-cleared polynomial g_L(x) E(1/x) in x = 1/n.

The integration core enumerates, per generator, all pairings of row and
column index slots (Weingarten calculus); each pairing contributes the
product of Weingarten values times n to the number of closed loops of the
slot-wiring graph.  Everything is exact: Fractions at fixed n, rational
functions of n symbolically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import perms
from .errors import (StructureViolationError, TheoremViolationError,
                     UnsupportedSizeError, ValidationError)
from .freegroup import Word, is_proper_power, whitehead_minimal
from .ratfunc import Polynomial, RationalFunction
from .symgroup import Partition, koike_expand, powersum_schur_basechange
from .weingarten import common_denominator, lifted_wg, wg

OCCURRENCE_CAP = 4
HELD_OUT_POINTS = 5


@dataclass(frozen=True)
class TraceMonomial:
    """A product of trace factors tr(w(u)) / tr(w(u)^-1), given as
    (word, inverted) pairs.  Inversion is folded into the word itself when
    the factor is created, so `factors` always holds plain words."""

    factors: tuple

    @classmethod
    def of(cls, *factors):
        normalized = []
        for item in factors:
            if isinstance(item, Word):
                word, inverted = item, False
            else:
                word, inverted = item
            normalized.append(word.inverse() if inverted else word)
        return cls(tuple(normalized))

    @property
    def rank(self):
        return max((w.rank for w in self.factors), default=0)

    def occurrences(self):
        """Per-generator counts of plus and minus letters across factors."""
        plus = {}
        minus = {}
        for w in self.factors:
            for x in w.letters:
                if x > 0:
                    plus[x] = plus.get(x, 0) + 1
                else:
                    minus[-x] = minus.get(-x, 0) + 1
        return plus, minus

    def is_balanced(self):
        plus, minus = self.occurrences()
        gens = set(plus) | set(minus)
        return all(plus.get(g, 0) == minus.get(g, 0) for g in gens)

    def __iter__(self):
        return iter(self.factors)


def slot_families(monomial):
    """Index-slot layout: per generator, the (row, col) variable pairs of
    its plus and minus (conjugated) matrix entries, plus the variable count.

    Within a trace factor of length q the cyclic index variables are
    v_0..v_{q-1}; the letter at position t contributes u[v_t, v_{t+1}] for
    a generator and conj(u)[v_{t+1}, v_t] for an inverse.  An empty factor
    keeps one free variable (its trace is n).  The matchings summed by the
    integrator are, per generator, pairs of bijections between the plus
    and minus slot families (one for rows, one for columns); the families
    returned here are exactly those domains.
    """
    plus = {}
    minus = {}
    nvars = 0
    for w in monomial.factors:
        q = len(w)
        if q == 0:
            nvars += 1
            continue
        base = nvars
        nvars += q
        for t, x in enumerate(w.letters):
            row, col = base + t, base + (t + 1) % q
            if x > 0:
                plus.setdefault(x, []).append((row, col))
            else:
                minus.setdefault(-x, []).append((col, row))
    return plus, minus, nvars


def _moment_term_table(monomial, max_occurrence):
    """Group the Weingarten expansion by (per-generator cycle types, loop
    count): the result maps those keys to integer multiplicities and does
    not depend on n, so repeated evaluations at many n are cheap.

    Every index variable is the outgoing end of exactly one slot: the row
    of a plus slot or the column of a minus slot.  A pairing (sigma, tau)
    per generator therefore defines a permutation f of the variables,
    f[row of plus slot s] = row of minus slot sigma(s) and
    f[col of minus slot tau(s)] = col of plus slot s, with the variables
    of empty factors fixed; the closed loops are the cycles of f.
    """
    plus, minus, nvars = slot_families(monomial)
    gens = sorted(set(plus) | set(minus))
    for g in gens:
        if len(plus.get(g, [])) != len(minus.get(g, [])):
            raise ValidationError("unbalanced monomial has no Weingarten expansion")
        if len(plus.get(g, [])) > max_occurrence:
            raise UnsupportedSizeError(
                f"generator x{g} occurs {len(plus[g])} times, cap is {max_occurrence}")
    degrees = [len(plus[g]) for g in gens]
    # Per generator and (sigma, tau): the cycle type of sigma tau^-1 and
    # the (variable, image) assignments the pairing makes in f.
    choices = []
    for g, p in zip(gens, degrees):
        pslots, mslots = plus[g], minus[g]
        options = []
        for sigma, tau in itertools.product(perms.all_perms(p), perms.all_perms(p)):
            ct = perms.cycle_type(perms.compose(sigma, perms.inverse(tau)))
            arrows = ([(row, mslots[sigma[s]][0]) for s, (row, _) in enumerate(pslots)]
                      + [(mslots[tau[s]][1], col) for s, (_, col) in enumerate(pslots)])
            options.append((ct, arrows))
        choices.append(options)
    table = {}
    f = list(range(nvars))
    for combo in itertools.product(*choices):
        for _, arrows in combo:
            for v, image in arrows:
                f[v] = image
        key = (tuple(ct for ct, _ in combo), perms.num_cycles(f))
        table[key] = table.get(key, 0) + 1
    return table, tuple(degrees)


@lru_cache(maxsize=None)
def _cached_term_table(factor_key, max_occurrence):
    monomial = TraceMonomial(tuple(Word(letters) for letters in factor_key))
    return _moment_term_table(monomial, max_occurrence)


def exact_word_moment(monomial, n=None, max_occurrence=OCCURRENCE_CAP, explain=False):
    """E over Haar-independent unitaries of the product of trace factors.

    With integer n the value is an exact Fraction (requires n >= the
    largest per-generator occurrence count); with n None it is an exact
    RationalFunction of the dimension.  Unbalanced monomials integrate to
    exactly 0 by phase invariance of the Haar measure.
    """
    if not isinstance(monomial, TraceMonomial):
        monomial = TraceMonomial.of(*monomial)
    if not monomial.is_balanced():
        zero = Fraction(0) if n is not None else RationalFunction(0)
        return (zero, "phase-invariance") if explain else zero
    key = tuple(w.letters for w in monomial.factors)
    table, degrees = _cached_term_table(key, max_occurrence)
    if n is not None:
        if degrees and n < max(degrees):
            raise ValidationError(
                f"need n >= {max(degrees)} for the exact Weingarten value at n={n}")
        nf = Fraction(n)
        total = Fraction(0)
        for (cts, loops), count in table.items():
            term = nf**loops * count
            for L, ct in zip(degrees, cts):
                term *= wg(L, ct)(nf)
            total += term
        return (total, None) if explain else total
    # Symbolically: per group of cycle types, the integer polynomial
    # sum count * n^loops times each generator's Weingarten numerator over
    # its D_L; the numerators add, and the sum normalises once.
    loops_by_cts = {}
    for (cts, loops), count in table.items():
        loops_by_cts.setdefault(cts, {})[loops] = count
    num = Polynomial()
    for cts, counts in loops_by_cts.items():
        term = Polynomial([counts.get(i, 0) for i in range(max(counts) + 1)])
        for L, ct in zip(degrees, cts):
            term = term * lifted_wg(L, ct)
        num = num + term
    total = RationalFunction(num, math.prod(common_denominator(L) for L in degrees))
    return (total, None) if explain else total


def _powersum_terms(lam):
    """s_lambda as a power-sum combination: [(cycle type rho, coeff)]."""
    if lam.size == 0:
        return [(Partition(), Fraction(1))]
    bc = powersum_schur_basechange(lam.size)
    return [(rho, c) for rho, c in bc.schur_to_powersum[lam].items() if c != 0]


def expect_stable_character(lam, mu, w, n=None, max_occurrence=OCCURRENCE_CAP):
    """E_n of the stable character s_{lambda,mu} of the word map w.

    For phi in Aut(F_r), phi(U_1..U_r) is again a Haar tuple, so w and
    phi(w) have the same law and the same expectation, at every n and as
    rational functions; a character is also conjugation invariant.  So
    the integrand is the Whitehead-minimal word of w (`whitehead_minimal`,
    cached by letters), and the occurrence cap and the n >= occurrences
    guard apply to that word.
    """
    return _expect_raw(lam, mu, whitehead_minimal(w), n=n, max_occurrence=max_occurrence)


def _expect_raw(lam, mu, w, n=None, max_occurrence=OCCURRENCE_CAP):
    """`expect_stable_character` on w exactly as given.

    Route: expand the mixed character into products of polynomial
    characters of w and w^-1, convert those to power sums (products of
    traces of word powers), and integrate each trace monomial exactly.
    """
    lam, mu = Partition(tuple(lam)), Partition(tuple(mu))
    expansion = koike_expand(lam.parts, mu.parts)
    w_inv = w.inverse()
    total = Fraction(0) if n is not None else RationalFunction(0)
    for (lam_p, mu_p), alpha in expansion.items():
        for rho1, c1 in _powersum_terms(lam_p):
            for rho2, c2 in _powersum_terms(mu_p):
                factors = [w**p for p in rho1.parts] + [w_inv**p for p in rho2.parts]
                moment = exact_word_moment(TraceMonomial(tuple(factors)), n=n,
                                           max_occurrence=max_occurrence)
                total = total + moment * (alpha * c1 * c2)
    return total


def degree_bound(K, q):
    """Ceiling of 3 K q (1 + log(K q)): the fitted-polynomial degree cap."""
    L = K * q
    if L < 1:
        raise ValidationError("need K*q >= 1")
    return math.ceil(3 * L * (1 + math.log(L)))


@dataclass
class InterpolationReport:
    """Exact reconstruction of g_L(x) * E(x) as a polynomial in x = 1/n."""

    lam: Partition
    mu: Partition
    word: Word
    n_start: int
    sample_points: list          # (n, exact E_n) pairs checked against the fit
    held_out_points: list        # (n, exact E_n) pairs used for verification
    degree_cap: int
    poly_coeffs: tuple           # Fractions, ascending in x = 1/n
    fitted_degree: int
    residuals: list              # exact residuals at held-out points (all 0)
    vanishing_order: object      # int or math.inf
    v_functionals: list          # Taylor coefficients of E at x = 0

    @property
    def K(self):
        return self.lam.size + self.mu.size

    def to_json(self):
        order = self.vanishing_order
        return {
            "lambda": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "word": self.word.format(),
            "n_start": self.n_start,
            "degree_cap": self.degree_cap,
            "fitted_degree": self.fitted_degree,
            "poly_coeffs": [str(c) for c in self.poly_coeffs],
            "sample_points": [[n, str(v)] for n, v in self.sample_points],
            "held_out_points": [[n, str(v)] for n, v in self.held_out_points],
            "residuals": [str(r) for r in self.residuals],
            "vanishing_order": ("inf" if order == math.inf else order),
            "v_functionals": [str(v) for v in self.v_functionals],
        }


def _taylor_of_quotient(p_coeffs, g_coeffs, terms):
    """First `terms` Taylor coefficients of P/g at 0, with g(0) = 1."""
    out = []
    for i in range(terms):
        acc = p_coeffs[i] if i < len(p_coeffs) else Fraction(0)
        for j in range(1, i + 1):
            gj = g_coeffs[j] if j < len(g_coeffs) else Fraction(0)
            acc -= gj * out[i - j]
        out.append(acc)
    return out


def _pole_cleared_polynomial(expectation, g, D):
    """Coefficients of g(x) * E(1/x), exactly D + 1 of them, ascending in x.

    With E = num/den in n, E(1/x) = x^(deg den - deg num) rev(num)/rev(den),
    where rev reverses the coefficient list, so the product is one exact
    division by rev(den).  A pole at x = 0 (deg num > deg den), a remainder
    or a quotient above degree D contradicts the guaranteed rational form
    and raises StructureViolationError.
    """
    num, den = expectation.num, expectation.den
    shift = den.degree - num.degree
    lifted = g * Polynomial((0,) * max(shift, 0) + num.coeffs[::-1])
    quotient, remainder = lifted.divmod(Polynomial(den.coeffs[::-1]))
    if shift < 0 or not remainder.is_zero() or quotient.degree > D:
        raise StructureViolationError(
            f"g_L(x) E(1/x) is not a polynomial of degree <= {D}",
            details={"expectation": expectation.to_json(),
                     "remainder": remainder.to_json(),
                     "quotient_degree": quotient.degree})
    return quotient.coeffs + (Fraction(0),) * (D - quotient.degree)


def interpolate_phi(lam, mu, w, n_start=None, held_out=HELD_OUT_POINTS,
                    max_occurrence=OCCURRENCE_CAP):
    """The polynomial g_{Kq}(x) * E(1/x) of degree at most D, exactly.

    It comes from the symbolic expectation by one exact division.  The
    second route is the fixed-n Fraction sum: E_n at the D + 1 sample
    points and at `held_out` further consecutive n must satisfy
    P(1/n) = g(1/n) E_n exactly; any nonzero residual raises
    StructureViolationError.  The held-out residuals go into the report.

    Every E_n integrates the Whitehead-minimal word of w; the reduction is
    cached by letters, so it runs once, not once per evaluation.  q, D,
    L = Kq and g_L stay those of w as given: the minimal word has length
    q' <= q, so its poles divide g_{Kq'}, which divides g_{Kq}.  The report
    keeps w.
    """
    from .bounds import g_polynomial

    lam, mu = Partition(tuple(lam)), Partition(tuple(mu))
    K = lam.size + mu.size
    q = len(w)
    if K < 1 or q < 1:
        raise ValidationError("need a nonempty word and at least one box")
    L = K * q
    D = degree_bound(K, q)
    if n_start is None:
        n_start = max(L, K, 2)
    if n_start < 1:
        raise ValidationError(f"need n_start >= 1, got {n_start}")
    g = g_polynomial(L)
    expectation = expect_stable_character(lam, mu, w, n=None,
                                          max_occurrence=max_occurrence)
    coeffs = _pole_cleared_polynomial(expectation, g, D)
    poly = Polynomial(coeffs)

    def checked(ns):
        points, residuals = [], []
        for n in ns:
            value = expect_stable_character(lam, mu, w, n=n, max_occurrence=max_occurrence)
            x = Fraction(1, n)
            points.append((n, value))
            residuals.append(poly(x) - g(x) * value)
        return points, residuals

    samples, sample_residuals = checked(range(n_start, n_start + D + 1))
    held_samples, residuals = checked(range(n_start + D + 1, n_start + D + 1 + held_out))
    if any(r != 0 for r in sample_residuals + residuals):
        raise StructureViolationError(
            "fixed-n residuals are nonzero; the exact expectation does not "
            "match the guaranteed rational form",
            details={"sample_residuals": [str(r) for r in sample_residuals],
                     "residuals": [str(r) for r in residuals]})

    order = poly.order_at_zero()
    v_funcs = _taylor_of_quotient(list(poly.coeffs), list(g.coeffs), K + 4)
    return InterpolationReport(
        lam=lam, mu=mu, word=w, n_start=n_start,
        sample_points=samples, held_out_points=held_samples,
        degree_cap=D, poly_coeffs=tuple(coeffs),
        fitted_degree=poly.degree if not poly.is_zero() else -1,
        residuals=residuals,
        vanishing_order=order,
        v_functionals=v_funcs)


def decay_order_check(report, proper_power=None, mu_empty=None):
    """Check the vanishing order of E(x) at x = 0 against what the decay
    theory guarantees: order >= ceil(K/6) when the word is not a proper
    power, strengthened to order >= K when in addition mu is empty."""
    if proper_power is None:
        proper_power = is_proper_power(report.word) is not None
    if mu_empty is None:
        mu_empty = report.mu.size == 0
    K = report.K
    required = 0
    if not proper_power:
        required = K if mu_empty else math.ceil(K / 6)
    observed = report.vanishing_order
    verdict = {
        "word": report.word.format(),
        "lambda": list(report.lam.parts),
        "mu": list(report.mu.parts),
        "proper_power": proper_power,
        "mu_empty": mu_empty,
        "required_order": required,
        "observed_order": ("inf" if observed == math.inf else observed),
        "passed": observed >= required,
    }
    if not verdict["passed"]:
        raise TheoremViolationError(
            f"vanishing order {observed} below the guaranteed {required}",
            details=verdict)
    return verdict
