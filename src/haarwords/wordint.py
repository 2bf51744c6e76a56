"""Exact expectations of trace monomials and stable characters of word
maps over tuples of independent Haar unitaries, plus the exact
pole-cleared polynomial g_L(x) E(1/x) in x = 1/n.

The integration core lays the trace factors out as open strings and
enumerates, per generator, all pairings of row and column index slots
(Weingarten calculus); each pairing contributes the product of Weingarten
values times n to the number of closed loops once the strings are glued
into traces.  Everything is exact: Fractions at fixed n, rational
functions of n symbolically.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import perms
from .errors import (ResourceCapError, StructureViolationError, TheoremViolationError,
                     UnsupportedSizeError, ValidationError)
from .freegroup import Word, proper_power_mask, whitehead_minimal
from .ratfunc import Polynomial, RationalFunction
from .symgroup import Partition, character, koike_expand
from .weingarten import common_denominator, lifted_wg

# Occurrences of one generator: the option table of `_pairing_options`
# holds (p!)^2 rows of 2p node indices, 50 MB at p = 6 and 2.8 GB at p = 7.
OCCURRENCE_CAP = 6
# Pairings one table may enumerate: 1.6-2.2 million a second on one core
# (2-vCPU host), so a table at the cap takes 1.5-2 minutes; 576^3 (three
# generators, four occurrences each) fits, 576^4 (16 hours) does not.
PAIRING_CAP = 2 * 10**8
CHUNK_ENTRIES = 1 << 16     # node entries per chunk: 512 KiB per int64 array
HELD_OUT_POINTS = 5


def _balanced(strings):
    """Whether every generator occurs as often with each sign across the
    letter tuples; an unbalanced product of traces integrates to 0."""
    count = collections.Counter(x for letters in strings for x in letters)
    return all(count[x] == count[-x] for x in count)


def _string_layout(strings):
    """Lay the trace factors out as open strings, after the size checks.

    Nodes: the start of every letter, grouped by generator with its plus
    letters before its minus letters; then one terminal N + i for the end
    of string i.  nxt[v] is the node the letter starting at v ends on,
    the next letter's start or its string's terminal; first[i] is the
    start of string i, its own terminal when the string is empty.
    Returns (degrees, pairings, nxt, first), with degrees the per-generator
    occurrence counts and pairings = prod (p!)^2 the combinations to sum.
    """
    slots = {}
    for i, letters in enumerate(strings):
        for t, x in enumerate(letters):
            slots.setdefault(abs(x), ([], []))[x < 0].append((i, t))
    gens = sorted(slots)
    degrees = []
    for g in gens:
        plus, minus = slots[g]
        if len(plus) != len(minus):
            raise ValidationError("unbalanced monomial has no Weingarten expansion")
        if len(plus) > OCCURRENCE_CAP:
            raise UnsupportedSizeError(
                f"generator x{g} occurs {len(plus)} times, cap is {OCCURRENCE_CAP}")
        degrees.append(len(plus))
    pairings = math.prod(math.factorial(p) ** 2 for p in degrees)
    if pairings > PAIRING_CAP:
        raise ResourceCapError(
            f"{pairings} Weingarten pairings to enumerate, cap is {PAIRING_CAP}")
    order = [slot for g in gens for family in slots[g] for slot in family]
    node = {slot: v for v, slot in enumerate(order)}
    N = len(order)
    nxt = np.array([node[(i, t + 1)] if t + 1 < len(strings[i]) else N + i
                    for i, t in order], dtype=np.intp)
    first = np.array([node[(i, 0)] if letters else N + i
                      for i, letters in enumerate(strings)], dtype=np.intp)
    return tuple(degrees), pairings, nxt, first


@lru_cache(maxsize=None)
def _pairing_options(p):
    """Every pairing (sigma, tau) of one generator's p plus and p minus
    letters, sigma-major over the permutations in lexicographic order: the
    rows of sigma and of nu = tau^-1 as index arrays, the position of the
    cycle type of sigma tau^-1 in `types` (looked up by the Lehmer rank of
    the row of sigma nu), and `types`."""
    elements = perms.all_perms(p)
    cycle_types = [perms.cycle_type(s) for s in elements]
    types = tuple(sorted(set(cycle_types), reverse=True))
    position = {ct: i for i, ct in enumerate(types)}
    type_of_rank = np.array([position[ct] for ct in cycle_types], dtype=np.int64)
    rows = np.array(elements, dtype=np.intp)
    sigma = np.repeat(rows, len(rows), axis=0)
    nu = np.tile(rows, (len(rows), 1))
    product = np.take_along_axis(sigma, nu, axis=1)
    rank = np.zeros(len(product), dtype=np.intp)
    for i in range(p - 1):
        smaller = (product[:, i + 1:] < product[:, i, None]).sum(axis=1)
        rank += smaller * math.factorial(p - 1 - i)
    return sigma, nu, type_of_rank[rank], types


@lru_cache(maxsize=None)
def _pairing_table(strings):
    """The Weingarten expansion of the open strings, grouped: returns
    (degrees, table) with table[cts] the (closed, M, count) rows of the
    pairings whose per-generator cycle types are cts.

    A pairing (sigma, tau) per generator wires every letter start to a
    letter end: the start of plus letter s to the end of minus letter
    sigma(s), and the start of minus letter tau(s) to the end of plus
    letter s (rows and columns of the paired matrix entries).  That map F
    sends a node to a node; terminals are fixed.  Its cycles are the
    closed loops, and the path from the start of string j ends at the
    terminal of string M(j), a permutation of the strings.  Gluing the end
    of string i to the start of string gamma(i) closes the paths into
    cycles(gamma M) further loops; gamma = id is the product of the traces
    of the strings.

    The pairings are counted with numpy, CHUNK_ENTRIES node entries at a
    time: each chunk's rows of F are gathered from the per-generator
    options, and pointer doubling gives F^(2^s) with 2^s >= N, which maps
    every path to its terminal, together with the least node of each
    cycle.  The rows are keyed by (cycle types, closed, M) and counted.
    """
    degrees, pairings, nxt, first = _string_layout(strings)
    N, m = len(nxt), len(strings)
    width = N + m
    factors = []     # per generator: (first column, option rows, cycle-type code, place)
    column, place, ct_place, types = 0, 1, 1, []
    for p in degrees:
        sigma, nu, ids, cts = _pairing_options(p)
        # filled half by half: one (p!)^2 x p temporary at a time, not two
        options = np.empty((len(ids), 2 * p), dtype=np.intp)
        options[:, :p] = nxt[column + p:column + 2 * p][sigma]
        options[:, p:] = nxt[column:column + p][nu]
        factors.append((column, options, ids * ct_place, place))
        column, place, ct_place = column + 2 * p, place * len(ids), ct_place * len(cts)
        types.append(cts)
    span = m ** m
    if ct_place * (N + 1) * span >= 2**63:
        raise UnsupportedSizeError(f"{m} trace factors exceed the 64-bit pairing key")
    steps = (N - 1).bit_length() if N else 0
    rows = max(1, CHUNK_ENTRIES // max(width, 1))
    code_of_end = m ** np.arange(m, dtype=np.int64)
    counter = collections.Counter()
    for lo in range(0, pairings, rows):
        combo = np.arange(lo, min(pairings, lo + rows), dtype=np.int64)
        offsets = (np.arange(len(combo), dtype=np.intp) * width)[:, None]
        F = np.empty((len(combo), width), dtype=np.intp)
        F[:, N:] = np.arange(N, width)
        ct_code = np.zeros(len(combo), dtype=np.int64)
        for start, options, ids, place in factors:
            digit = combo // place % len(ids)
            F[:, start:start + options.shape[1]] = options[digit]
            ct_code += ids[digit]
        F += offsets
        least = np.tile(np.arange(width, dtype=np.int16), (len(combo), 1))
        for _ in range(steps):
            np.minimum(least, least.ravel()[F], out=least)
            F = F.ravel()[F]
        on_cycle = F[:, :N] < offsets + N
        closed = ((least[:, :N] == np.arange(N)) & on_cycle).sum(axis=1)
        ends = F[:, first] - offsets - N
        # stable: the default SIMD sort (and np.unique) raise peak RSS more
        keys = np.sort((ct_code * (N + 1) + closed) * span + ends @ code_of_end, kind="stable")
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(starts, append=len(keys))
        counter.update(dict(zip(keys[starts].tolist(), counts.tolist())))
    table = {}
    for key, count in sorted(counter.items()):
        rest, code = divmod(key, span)
        ct_code, closed = divmod(rest, N + 1)
        cts = []
        for choices in types:
            ct_code, i = divmod(ct_code, len(choices))
            cts.append(choices[i])
        M = tuple(code // m**j % m for j in range(m))
        table.setdefault(tuple(cts), []).append((closed, M, count))
    return degrees, table


def _loop_polynomials(table, gluing):
    """Per cycle types, the integer coefficients in n of the sum over the
    table rows of count * n^closed * gluing(M), where gluing(M) lists the
    coefficients contributed by the paths."""
    by_matching = {}
    polys = {}
    for cts, rows in table.items():
        coeffs = []
        for closed, M, count in rows:
            if M not in by_matching:
                by_matching[M] = gluing(M)
            for i, c in enumerate(by_matching[M], closed):
                coeffs.extend([0] * (i + 1 - len(coeffs)))
                coeffs[i] += count * c
        if any(coeffs):
            polys[cts] = coeffs
    return polys


def _integrate(degrees, polys, n, scale=1):
    """scale * sum over cycle types cts of polys[cts](n) * prod_g
    Wg_{L_g}(ct_g), with each Wg_L(ct) written as its numerator over the
    shared denominator D_L (`lifted_wg`): the numerators multiply and add,
    and the sum is divided by prod_g D_{L_g} once.  A Fraction at integer
    n, each distinct numerator evaluated at n once; a RationalFunction of
    n when n is None."""
    if n is not None:
        values = {key: lifted_wg(*key)(n)
                  for cts in polys for key in zip(degrees, cts)}
        total = Fraction(0)
        for cts, coeffs in polys.items():
            term = Fraction(sum(c * n**i for i, c in enumerate(coeffs)))
            for key in zip(degrees, cts):
                term *= values[key]
            total += term
        return total * scale / math.prod(common_denominator(L)(n) for L in degrees)
    num = Polynomial()
    for cts, coeffs in polys.items():
        term = Polynomial(coeffs)
        for L, ct in zip(degrees, cts):
            term = term * lifted_wg(L, ct)
        num = num + term
    return RationalFunction(num * scale, math.prod(common_denominator(L) for L in degrees))


def _check_dimension(degrees, n):
    if n is not None and degrees and n < max(degrees):
        raise ValidationError(
            f"need n >= {max(degrees)} for the exact Weingarten value at n={n}")


def exact_word_moment(factors, n=None):
    """E over Haar-independent unitaries of the trace monomial
    prod_j tr(w_j(U)), given as its sequence of words w_j; a factor
    tr(w^-1) is written as w.inverse().

    With integer n the value is an exact Fraction (requires n >= the
    largest per-generator occurrence count); with n None it is an exact
    RationalFunction of the dimension.  Unbalanced monomials integrate to
    exactly 0 by phase invariance of the Haar measure.  The factors are
    the open strings of `_pairing_table`, each closed on itself.
    """
    strings = tuple(w.letters for w in factors)
    if not _balanced(strings):
        return Fraction(0) if n is not None else RationalFunction(0)
    degrees, table = _pairing_table(strings)
    _check_dimension(degrees, n)
    polys = _loop_polynomials(table, lambda M: (0,) * perms.num_cycles(M) + (1,))
    return _integrate(degrees, polys, n)


def expect_stable_character(lam, mu, w, n=None):
    """E_n of the stable character s_{lambda,mu} of the word map w.

    For phi in Aut(F_r), phi(U_1..U_r) is again a Haar tuple, so w and
    phi(w) have the same law and the same expectation, at every n and as
    rational functions; a character is also conjugation invariant.  So
    the integrand is the Whitehead-minimal word of w (`whitehead_minimal`,
    cached by letters).  The size limits of `_string_layout`
    (OCCURRENCE_CAP per generator, PAIRING_CAP per table) and the
    n >= occurrences guard apply to that word.
    """
    return _expect_raw(lam, mu, whitehead_minimal(w), n=n)


def _expect_raw(lam, mu, w, n=None):
    """`expect_stable_character` on w exactly as given.  Its copies are
    laid out letter for letter, so OCCURRENCE_CAP, PAIRING_CAP and the n
    guard see k' times the occurrences of w, even where w is not
    cyclically reduced and its powers would cancel."""
    lam, mu = Partition(tuple(lam)), Partition(tuple(mu))
    blocks = _character_blocks(w.letters, lam.parts, mu.parts)
    total = Fraction(0) if n is not None else RationalFunction(0)
    for degrees, polys, scale in blocks:
        _check_dimension(degrees, n)
        total = total + _integrate(degrees, polys, n, scale)
    return total


def _glued_loops(weights, M):
    """Coefficients of sum over (gamma, c) in weights of c * n^cycles(gamma M)."""
    coeffs = [0] * (len(M) + 1)
    for gamma, c in weights:
        coeffs[perms.num_cycles(perms.compose(gamma, M))] += c
    return coeffs


@lru_cache(maxsize=None)
def _character_blocks(letters, lam_parts, mu_parts):
    """s_{lambda,mu}(w) as (degrees, polynomials, scale) blocks for
    `_integrate`, one per size (k', l') of its mixed-character expansion.

    Koike: s_{lambda,mu}(g) = sum alpha s_lambda'(g) s_mu'(g^-1), and
    s_lambda'(w) s_mu'(w^-1) = 1/(k'! l'!) sum over gamma in S_k' x S_l' of
    chi_lambda'(gamma_1) chi_mu'(gamma_2) times the product of traces that
    gamma glues from k' copies of w and l' copies of w^-1.  So one table
    of those copies as open strings serves every lambda', mu' and cycle
    type of that size: a pairing with endpoint matching M gives
    n^closed * sum_gamma c(gamma) n^cycles(gamma M), with c summing the
    alpha-weighted characters.  Blocks whose copies are unbalanced
    integrate to 0 and are left out.  The sizes are (|lambda| - j,
    |mu| - j), a chain, and the largest comes first, so its table meets
    the size caps before any other is built.
    """
    inverse = tuple(-x for x in reversed(letters))
    by_size = {}
    for (lam_p, mu_p), alpha in koike_expand(lam_parts, mu_parts).items():
        by_size.setdefault((lam_p.size, mu_p.size), []).append((lam_p, mu_p, alpha))
    blocks = []
    for (k, ell), labels in sorted(by_size.items(), reverse=True):
        strings = (letters,) * k + (inverse,) * ell
        if not _balanced(strings):
            continue
        degrees, table = _pairing_table(strings)
        weights = []
        for g1 in perms.all_perms(k):
            for g2 in perms.all_perms(ell):
                rho1 = Partition(perms.cycle_type(g1))
                rho2 = Partition(perms.cycle_type(g2))
                c = sum(alpha * character(lam_p, rho1) * character(mu_p, rho2)
                        for lam_p, mu_p, alpha in labels)
                if c:
                    weights.append((g1 + tuple(k + x for x in g2), c))
        polys = _loop_polynomials(table, partial(_glued_loops, weights))
        blocks.append((degrees, polys, Fraction(1, math.factorial(k) * math.factorial(ell))))
    return tuple(blocks)


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


def interpolate_phi(lam, mu, w, n_start=None):
    """The polynomial g_{Kq}(x) * E(1/x) of degree at most D, exactly.

    It comes from the symbolic expectation by one exact division.  The
    second route is the fixed-n Fraction sum: E_n at the D + 1 sample
    points and at HELD_OUT_POINTS further consecutive n must satisfy
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
    expectation = expect_stable_character(lam, mu, w, n=None)
    coeffs = _pole_cleared_polynomial(expectation, g, D)
    poly = Polynomial(coeffs)

    def checked(ns):
        points, residuals = [], []
        for n in ns:
            value = expect_stable_character(lam, mu, w, n=n)
            x = Fraction(1, n)
            points.append((n, value))
            residuals.append(poly(x) - g(x) * value)
        return points, residuals

    samples, sample_residuals = checked(range(n_start, n_start + D + 1))
    held_samples, residuals = checked(range(n_start + D + 1, n_start + D + 1 + HELD_OUT_POINTS))
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


def decay_order_check(report):
    """Check the vanishing order of E(x) at x = 0 against what the decay
    theory guarantees: order >= ceil(K/6) when the report's word is not a
    proper power, strengthened to order >= K when in addition mu is empty."""
    letters = report.word.letters
    proper_power = bool(proper_power_mask(np.array([letters], dtype=np.int8),
                                          np.array([len(letters)]))[0])
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
