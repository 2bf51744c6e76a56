import collections
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from haarwords import cli
from haarwords import freegroup as fg
from haarwords import perms
from haarwords import wordint as wi
from haarwords.montecarlo import weyl_dim
from haarwords.bounds import g_polynomial
from haarwords.errors import (StructureViolationError, TheoremViolationError,
                              UnsupportedSizeError, ValidationError)
from haarwords.ratfunc import Polynomial, RationalFunction, solve_exact
from haarwords.symgroup import (Partition, koike_expand, mixed_weight, partitions_of,
                                powersum_schur_basechange)
from haarwords.weingarten import wg
from oracles import is_proper_power, schur_dim_poly, valuation_at_infinity

A = fg.parse_word("a")
B = fg.parse_word("b")
COMM = fg.parse_word("abAB")


# The second route: one Weingarten expansion per trace monomial, closed
# traces and a Python loop over the pairings, and characters expanded into
# power sums.  `wordint` enumerated this way before its open-string tables.
# The loop stays small only up to ORACLE_CAP occurrences per generator
# ((3!)^2 = 36 pairings each), and refuses more.
ORACLE_CAP = 3


def letter_counts(monomial):
    """Occurrences of each signed letter across a trace monomial's words."""
    return collections.Counter(x for w in monomial for x in w.letters)


def is_balanced(monomial):
    count = letter_counts(monomial)
    return all(count[x] == count[-x] for x in count)


def max_occurrence(monomial):
    """The most plus letters of one generator, 0 for no letters."""
    return max((c for x, c in letter_counts(monomial).items() if x > 0), default=0)


def within_oracle_cap(lam, mu, w):
    """Whether the engine's tables for s_{lambda,mu}(w), w as given, stay
    within ORACLE_CAP occurrences per generator.  The largest table holds
    |lambda| copies of w and |mu| of w^-1; the smaller ones are balanced
    exactly when it is, and the engine skips unbalanced ones."""
    m = (w,) * sum(lam) + (w.inverse(),) * sum(mu)
    return not is_balanced(m) or max_occurrence(m) <= ORACLE_CAP


def oracle_pairing_options(p):
    """`wordint._pairing_options` as a Python loop over the pairs."""
    elements = perms.all_perms(p)
    types = tuple(sorted({perms.cycle_type(s) for s in elements}, reverse=True))
    position = {ct: i for i, ct in enumerate(types)}
    pairs = list(itertools.product(elements, elements))
    sigma = np.array([s for s, _ in pairs], dtype=np.intp).reshape(len(pairs), p)
    nu = np.array([v for _, v in pairs], dtype=np.intp).reshape(len(pairs), p)
    ids = np.array([position[perms.cycle_type(perms.compose(s, v))] for s, v in pairs],
                   dtype=np.int64)
    return sigma, nu, ids, types


def oracle_term_table(monomial):
    """{(per-generator cycle types, loop count): count} and the degrees.

    Within a factor of length q the cyclic index variables are v_0..v_q-1;
    the letter at position t contributes u[v_t, v_t+1] for a generator and
    conj(u)[v_t+1, v_t] for an inverse, and an empty factor keeps one free
    variable.  A pairing (sigma, tau) per generator defines a permutation
    f of the variables, f[row of plus slot s] = row of minus slot sigma(s)
    and f[col of minus slot tau(s)] = col of plus slot s; the closed loops
    are the cycles of f.
    """
    plus, minus, nvars = {}, {}, 0
    for w in monomial:
        q = len(w)
        if q == 0:
            nvars += 1
            continue
        for t, x in enumerate(w.letters):
            row, col = nvars + t, nvars + (t + 1) % q
            if x > 0:
                plus.setdefault(x, []).append((row, col))
            else:
                minus.setdefault(-x, []).append((col, row))
        nvars += q
    gens = sorted(set(plus) | set(minus))
    for g in gens:
        if len(plus.get(g, [])) != len(minus.get(g, [])):
            raise ValidationError("unbalanced monomial has no Weingarten expansion")
        if len(plus.get(g, [])) > ORACLE_CAP:
            raise UnsupportedSizeError(f"generator x{g} occurs {len(plus[g])} times")
    degrees = [len(plus[g]) for g in gens]
    choices = []
    for g, p in zip(gens, degrees):
        options = []
        for sigma, tau in itertools.product(perms.all_perms(p), perms.all_perms(p)):
            ct = perms.cycle_type(perms.compose(sigma, perms.inverse(tau)))
            arrows = ([(row, minus[g][sigma[s]][0]) for s, (row, _) in enumerate(plus[g])]
                      + [(minus[g][tau[s]][1], col) for s, (_, col) in enumerate(plus[g])])
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


def oracle_moment(monomial, n=None):
    """The oracle table summed entry by entry at integer n; symbolically,
    per cycle types, sum count * n^loops times each Wg_L(ct) as its own
    rational function."""
    if not is_balanced(monomial):
        return Fraction(0) if n is not None else RationalFunction(0)
    table, degrees = oracle_term_table(monomial)
    if n is not None:
        nf = Fraction(n)
        return sum((nf**loops * count * math.prod(wg(L, ct)(nf) for L, ct in zip(degrees, cts))
                    for (cts, loops), count in table.items()), Fraction(0))
    loops_by_cts = {}
    for (cts, loops), count in table.items():
        coeffs = loops_by_cts.setdefault(cts, [0] * (loops + 1))
        coeffs.extend([0] * (loops + 1 - len(coeffs)))
        coeffs[loops] += count
    total = RationalFunction(0)
    for cts, coeffs in loops_by_cts.items():
        term = RationalFunction(Polynomial(coeffs))
        for L, ct in zip(degrees, cts):
            term = term * wg(L, ct)
        total = total + term
    return total


def oracle_expect(lam, mu, w, n=None):
    """s_{lambda,mu}(w) expanded by Koike into s_lambda'(w) s_mu'(w^-1),
    each Schur function into power sums p_rho (products of traces of
    powers of w), and every trace monomial integrated on its own."""
    def powersum_terms(lam):
        if lam.size == 0:
            return [(Partition(), Fraction(1))]
        bc = powersum_schur_basechange(lam.size)
        return [(rho, c) for rho, c in bc.schur_to_powersum[lam].items() if c != 0]

    total = Fraction(0) if n is not None else RationalFunction(0)
    for (lam_p, mu_p), alpha in koike_expand(tuple(lam), tuple(mu)).items():
        for rho1, c1 in powersum_terms(lam_p):
            for rho2, c2 in powersum_terms(mu_p):
                factors = [w**p for p in rho1.parts] + [w.inverse()**p for p in rho2.parts]
                moment = oracle_moment(factors, n)
                total = total + moment * (alpha * c1 * c2)
    return total


def open_string_table(monomial):
    """The open-string table of the factors glued into their own traces
    (gamma = id), keyed as the oracle table: (cycle types, closed +
    cycles(M)) -> count."""
    degrees, table = wi._pairing_table(tuple(w.letters for w in monomial))
    out = collections.Counter()
    for cts, rows in table.items():
        for closed, M, count in rows:
            out[(cts, closed + perms.num_cycles(M))] += count
    return dict(out), degrees


def as_constant(rf):
    """The value of a rational function that must be constant."""
    assert rf.num.degree <= 0 and rf.den.degree == 0, f"{rf} is not constant"
    return rf.num.leading() if not rf.num.is_zero() else Fraction(0)


def test_unbalanced_monomial_is_zero():
    assert wi.exact_word_moment([A]).is_zero()
    assert wi.exact_word_moment([A], n=7) == 0


def test_single_trace_pair_is_one():
    m = [A, A.inverse()]
    assert as_constant(wi.exact_word_moment(m)) == 1


def test_commutator_trace_is_one_over_n():
    value = wi.exact_word_moment([COMM])
    assert value == RationalFunction(Polynomial((1,)), Polynomial((0, 1)))


def test_power_trace_variance_matches_min_oracle():
    # E |tr u^j|^2 = min(j, n); symbolically the engine sees the regime
    # n >= j, where the value is the constant j
    for j in (1, 2, 3):
        m = [A**j, (A**j).inverse()]
        assert as_constant(wi.exact_word_moment(m)) == j
        for n in range(j, j + 3):
            assert wi.exact_word_moment(m, n=n) == j
    with pytest.raises(ValidationError):
        wi.exact_word_moment([A**3, (A**3).inverse()], n=2)


def test_occurrence_cap():
    m = [A**7, (A**7).inverse()]
    with pytest.raises(UnsupportedSizeError):
        wi.exact_word_moment(m)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_pairing_options_match_python_loop(p):
    sigma, nu, ids, types = wi._pairing_options(p)
    expected = oracle_pairing_options(p)
    for got, want in zip((sigma, nu, ids), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert types == expected[3]


@pytest.mark.parametrize("k", [5, 6])
def test_commutator_with_a_power_is_min_over_n(k):
    # E tr(a^k b a^-k b^-1) = E |tr a^k|^2 / n = min(k, n)/n; symbolically
    # the engine sees the regime n >= k, where it is k/n
    m = [A**k * B * (A**k).inverse() * B.inverse()]
    assert wi.exact_word_moment(m) == RationalFunction(Polynomial((k,)), Polynomial((0, 1)))
    for n in (k, 2 * k):
        assert wi.exact_word_moment(m, n=n) == Fraction(min(k, n), n)


def test_too_many_factors_for_the_pairing_key():
    # tr(a) tr(A) ... tr(h) tr(H): one pairing, but 16^16 endpoint
    # matchings do not fit the 64-bit key, so the table is refused
    letters = [x for g in range(1, 9) for x in (g, -g)]
    m = [fg.Word((x,)) for x in letters]
    with pytest.raises(UnsupportedSizeError):
        wi.exact_word_moment(m, n=3)
    assert wi.exact_word_moment(m[:12], n=3) == 1


def test_empty_factor_is_dimension():
    m = [fg.Word(())]
    assert wi.exact_word_moment(m, n=6) == 6
    sym = wi.exact_word_moment(m)
    assert sym == RationalFunction(Polynomial((0, 1)))


@st.composite
def balanced_monomials(draw):
    """Up to three factors cut from one shuffled list holding a and b
    one to three times each with each sign (fewer after free reduction)."""
    ka, kb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # unshuffled, the letters spell the reduced word a^ka b^kb A^ka B^kb
    letters = draw(st.permutations([1] * ka + [2] * kb + [-1] * ka + [-2] * kb))
    cuts = sorted(draw(st.lists(st.integers(0, len(letters)), max_size=2)))
    bounds = [0, *cuts, len(letters)]
    return tuple(fg.Word(letters[i:j]) for i, j in zip(bounds, bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(balanced_monomials())
def test_symbolic_moment_matches_fixed_n_sum(monomial):
    # the shared-denominator sum against the Fraction sum at each n
    symbolic = wi.exact_word_moment(monomial)
    n0 = max(max_occurrence(monomial), 1)
    for n in range(n0, n0 + 5):
        assert symbolic(Fraction(n)) == wi.exact_word_moment(monomial, n=n)


@settings(max_examples=40, deadline=None)
@given(balanced_monomials())
def test_open_string_tables_match_oracle_tables(monomial):
    # glued by gamma = id, the vectorised open-string table is the
    # closed-trace table of the Python loop over pairings
    assert open_string_table(monomial) == oracle_term_table(monomial)


def test_k4_table_memory_is_bounded_by_the_chunk():
    # abAB four times: 576^2 pairings, 20 nodes each.  Unchunked, one int64
    # node array would take 53 MB; in chunks of CHUNK_ENTRIES node entries
    # the peak stays under eight int64 arrays of one chunk (4 MiB)
    strings = (COMM.letters,) * 4
    wi._pairing_table(((1, -1),))   # numpy's lazy set-up, untraced
    wi._pairing_table.cache_clear()
    tracemalloc.start()
    try:
        _, table = wi._pairing_table(strings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(count for rows in table.values() for *_, count in rows) == 576**2
    assert peak < 8 * 8 * wi.CHUNK_ENTRIES


def test_commutator_stable_character_examples():
    sym = wi.expect_stable_character((1,), (), COMM)
    assert sym == RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
    for n in range(2, 11):
        assert wi.expect_stable_character((1,), (), COMM, n=n) == Fraction(1, n)
    assert wi.expect_stable_character((1,), (1,), A).is_zero()
    assert wi.expect_stable_character((2,), (), A).is_zero()


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (2, 1)])
def test_commutator_matches_frobenius_formula(lam):
    # classical identity: integrating an irreducible character over a
    # commutator gives 1/dimension, uniformly in n
    lam = Partition(lam)
    expected = RationalFunction(Polynomial((1,))) / schur_dim_poly(lam)
    assert wi.expect_stable_character(lam, (), COMM) == expected


def _mixed_labels(max_boxes):
    """Every (lambda, mu) with 1 <= |lambda| + |mu| <= max_boxes."""
    return [(lam, mu)
            for total in range(1, max_boxes + 1)
            for k in range(total + 1)
            for lam in partitions_of(k)
            for mu in partitions_of(total - k)]


@pytest.mark.parametrize("lam,mu", _mixed_labels(4),
                         ids=lambda p: ",".join(map(str, p.parts)) or "0")
def test_commutator_mixed_character_is_inverse_dimension(lam, mu):
    # Frobenius/Mednykh: the commutator integrates every irreducible
    # character of U(n) to 1/dimension; the Weyl dimension is computed
    # without the term table.  n = 4 >= l(lambda) + l(mu) for every label
    # with K <= 4, so each is irreducible at both n
    for n in (4, 5):
        expected = Fraction(1, weyl_dim(mixed_weight(lam, mu, n)))
        assert wi.expect_stable_character(lam, mu, COMM, n=n) == expected


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abAB", max_size=6), st.sampled_from(_mixed_labels(3)),
       st.integers(3, 6))
def test_stable_character_matches_oracle_route(text, labels, n):
    # K <= 3 and within the oracle's cap: one table per (k', l') against
    # one per power-sum monomial, both on the Whitehead-minimal word, at n
    # and symbolically
    lam, mu = labels
    w = fg.parse_word(text)
    minimal = fg.whitehead_minimal(w)
    if not within_oracle_cap(lam, mu, minimal):
        return
    assert wi.expect_stable_character(lam, mu, w, n=n) == oracle_expect(lam, mu, minimal, n=n)
    assert wi.expect_stable_character(lam, mu, w) == oracle_expect(lam, mu, minimal)


@pytest.mark.parametrize("word", ["ab", "aab"])
def test_primitive_word_integrates_characters_to_zero(word):
    # a primitive word map pushes Haar measure to Haar measure, so every
    # nontrivial irreducible character integrates to 0; the raw engine
    # integrates the word as given, the reduced path the one-letter word
    w = fg.parse_word(word)
    for lam, mu in _mixed_labels(4):
        for n in (4, 5):
            assert wi._expect_raw(lam, mu, w, n=n) == 0
            assert wi.expect_stable_character(lam, mu, w, n=n) == 0


def test_conjugation_invariance():
    # raw engine on the conjugate, reduced path on the commutator
    for v_text in ("a", "b", "ab", "Ba"):
        v = fg.parse_word(v_text)
        w = v * COMM * v.inverse()
        assert wi._expect_raw((1,), (1,), w) == \
            wi.expect_stable_character((1,), (1,), COMM)
        assert wi._expect_raw((2,), (), w) == \
            wi.expect_stable_character((2,), (), COMM)


def test_inversion_symmetry():
    for lam, mu in (((1,), ()), ((1,), (1,))):
        for w in (COMM, fg.parse_word("abab"), fg.parse_word("aabABA")):
            lhs = wi._expect_raw(mu, lam, w)
            rhs = wi.expect_stable_character(lam, mu, w.inverse())
            assert lhs == rhs
    lhs = wi._expect_raw((1,), (2,), COMM)
    rhs = wi.expect_stable_character((2,), (1,), COMM.inverse())
    assert lhs == rhs


@pytest.mark.parametrize("word", ["aaabABAA", "ababABBA", "abaabABAAB", "aabAAB", "abAABB",
                                  "aabbAB", "aabAb", "abcABC", "abcaBC"])
def test_reduced_path_matches_raw_engine(word):
    w = fg.parse_word(word)
    checked = 0
    for lam, mu in _mixed_labels(2):
        if not within_oracle_cap(lam, mu, w):
            continue
        raw = wi._expect_raw(lam, mu, w, n=5)
        assert raw == wi.expect_stable_character(lam, mu, w, n=5)
        checked += 1
    assert checked


def nielsen_image(w, moves):
    """Apply x_i -> y x_i (left) or x_i y, one substitution per move."""
    for i, y, left in moves:
        image = (y, i) if left else (i, y)
        inverse = tuple(-z for z in reversed(image))
        letters = []
        for x in w.letters:
            letters.extend(image if x == i else inverse if x == -i else (x,))
        w = fg.Word(letters)
    return w


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "aab", "abAB", "aabAAB", "abAABB", "aabb", "abAb", "abab", "abaB"]),
       st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, -1]), st.booleans())
                .map(lambda move: (move[0], move[1] * (3 - move[0]), move[2])),
                max_size=3),
       st.sampled_from([((1,), ()), ((1,), (1,)), ((2,), ()), ((1, 1), ()), ((), (2,))]))
def test_nielsen_moves_preserve_expectation(base, moves, labels):
    # phi(U) is a Haar tuple for phi in Aut(F_2): the raw engine on the
    # moved word must match the reduced path on the moved and the base word
    lam, mu = labels
    w = fg.parse_word(base)
    moved = nielsen_image(w, moves)
    assume(within_oracle_cap(lam, mu, moved))
    raw = wi._expect_raw(lam, mu, moved, n=5)
    assert raw == wi.expect_stable_character(lam, mu, moved, n=5)
    assert raw == wi.expect_stable_character(lam, mu, w, n=5)


@pytest.mark.parametrize("lam,n,expected", [((1,), 7, Fraction(1, 343)),
                                            ((2,), 7, Fraction(1, 21952))])
def test_genus_two_surface_word_gives_inverse_dimension_cubed(lam, n, expected):
    # [a,b][c,d] integrates chi_lambda to 1/dim^(2g-1) with g = 2
    w = fg.parse_word("abABcdCD")
    assert expected == Fraction(1, schur_dim_poly(Partition(lam))(Fraction(n)) ** 3)
    assert wi.expect_stable_character(lam, (), w, n=n) == expected
    assert wi._expect_raw(lam, (), w, n=n) == expected


def _power_monomial(rho, inverted):
    """prod_j tr(U^j)^(a_j), or its conjugate, with a_j the multiplicity
    of j in rho: one factor A**j per part."""
    return [(A.inverse() if inverted else A)**j for j in rho.parts]


def test_diaconis_shahshahani_power_moments():
    # E prod_j tr(U^j)^(a_j) conj(tr(U^j))^(b_j) = [a = b] prod_j j^(a_j) a_j!
    # for n >= sum_j j a_j (Diaconis-Shahshahani 1994); rho = sigma = (k)
    # with k = 5, 6 gives E |tr U^k|^2 = k
    rhos = [rho for k in range(5) for rho in partitions_of(k)]
    pairs = [(rho, sigma) for rho in rhos for sigma in rhos]
    pairs += [(Partition((k,)), Partition((k,))) for k in (5, 6)]
    for rho, sigma in pairs:
        m = _power_monomial(rho, False) + _power_monomial(sigma, True)
        expected = 0
        if rho == sigma:
            expected = math.prod(j**a * math.factorial(a)
                                 for j, a in collections.Counter(rho.parts).items())
        for n in range(max(rho.size, sigma.size, 1), max(rho.size, sigma.size) + 3):
            assert wi.exact_word_moment(m, n=n) == expected


def test_weight_mismatch_gives_zero():
    w = fg.parse_word("aab")
    assert wi.expect_stable_character((2,), (), w).is_zero()
    assert wi.expect_stable_character((1,), (1,), w).is_zero()


def test_degree_bound_value():
    assert wi.degree_bound(2, 4) == math.ceil(24 * (1 + math.log(8)))
    assert wi.degree_bound(2, 4) == 74
    assert wi.degree_bound(1, 4) == math.ceil(12 * (1 + math.log(4)))


@pytest.fixture(scope="module")
def commutator_report():
    return wi.interpolate_phi((1,), (), COMM)


def test_interpolation_reconstructs_exact_form(commutator_report):
    rep = commutator_report
    assert rep.degree_cap == wi.degree_bound(1, 4)
    assert rep.fitted_degree <= rep.degree_cap
    assert all(r == 0 for r in rep.residuals)
    # E = 1/n exactly, so the fitted polynomial is g_4(x) * x
    expected = g_polynomial(4) * Polynomial((0, 1))
    assert Polynomial(rep.poly_coeffs) == expected
    assert rep.vanishing_order == 1
    assert rep.v_functionals[0] == 0 and rep.v_functionals[1] == 1
    assert all(v == 0 for v in rep.v_functionals[2:])


def test_interpolation_matches_symbolic_route(commutator_report):
    rep = commutator_report
    sym = wi.expect_stable_character((1,), (), COMM)
    assert valuation_at_infinity(sym) == rep.vanishing_order
    g = g_polynomial(4)
    poly = Polynomial(rep.poly_coeffs)
    for n, value in rep.held_out_points:
        assert sym(Fraction(n)) == value
        assert poly(Fraction(1, n)) == g(Fraction(1, n)) * value


def test_interpolation_of_identically_zero_expectation():
    rep = wi.interpolate_phi((1,), (1,), fg.parse_word("ab"))
    assert all(v == 0 for _, v in rep.sample_points)
    assert rep.vanishing_order == math.inf
    verdict = wi.decay_order_check(rep)
    assert verdict["passed"] and verdict["observed_order"] == "inf"


def test_decay_order_check_verdicts(commutator_report):
    verdict = wi.decay_order_check(commutator_report)
    assert verdict["passed"]
    assert verdict["required_order"] == 1 and verdict["observed_order"] == 1
    # a fake report whose observed order 0 is below the requirement must raise
    fake = wi.InterpolationReport(
        lam=Partition((2,)), mu=Partition(()), word=COMM,
        n_start=8, sample_points=[], held_out_points=[],
        degree_cap=74, poly_coeffs=(Fraction(1),), fitted_degree=0,
        residuals=[], vanishing_order=0, v_functionals=[Fraction(1)])
    # COMM is not a proper power and mu is empty, so order K = 2 is required
    with pytest.raises(TheoremViolationError):
        wi.decay_order_check(fake)


def test_proper_power_relaxes_requirement():
    # abab = (ab)^2 is detected as a proper power, which guarantees nothing
    rep = wi.interpolate_phi((1,), (), fg.parse_word("abab"))
    verdict = wi.decay_order_check(rep)
    assert verdict["proper_power"] is True
    assert verdict["required_order"] == 0


@pytest.mark.parametrize("text", ["aa", "abab", "ABAB", "bAbA", "abAB", "cabcabC"])
def test_decay_proper_power_field_matches_kmp(text):
    # decay's mask reads a row exactly as wide as the word; order inf always passes
    w = fg.parse_word(text)
    report = wi.InterpolationReport(
        lam=Partition((1,)), mu=Partition(()), word=w,
        n_start=4, sample_points=[], held_out_points=[],
        degree_cap=29, poly_coeffs=(), fitted_degree=-1,
        residuals=[], vanishing_order=math.inf, v_functionals=[])
    assert wi.decay_order_check(report)["proper_power"] is (is_proper_power(w) is not None)


def test_report_json_round(commutator_report):
    blob = commutator_report.to_json()
    assert blob["word"] == "abAB"
    assert blob["degree_cap"] == 29
    assert all(r == "0" for r in blob["residuals"])


@pytest.mark.parametrize("word,lam", [("abAB", (1,)), ("aB", (2,))])
def test_division_fit_matches_vandermonde_solve(word, lam):
    # independent route: the (D+1) x (D+1) Vandermonde system in x = 1/n
    # through the sample points, solved by Bareiss elimination
    w = fg.parse_word(word)
    rep = wi.interpolate_phi(lam, (), w)
    assert rep.degree_cap == 29
    g = g_polynomial(rep.K * len(w))
    xs = [Fraction(1, n) for n, _ in rep.sample_points]
    rows = [[x**j for j in range(rep.degree_cap + 1)] for x in xs]
    rhs = [g(x) * v for x, (_, v) in zip(xs, rep.sample_points)]
    expected = solve_exact(rows, rhs)
    assert len(rep.poly_coeffs) == len(expected) == rep.degree_cap + 1
    assert list(rep.poly_coeffs) == expected


def test_uncleared_pole_raises_structure_violation(monkeypatch, capsys):
    # give the symbolic expectation a pole at n = L + 1, which g_L does not
    # clear; fixed-n values stay untouched
    original = wi.expect_stable_character

    def patched(lam, mu, w, n=None):
        value = original(lam, mu, w, n=n)
        if n is not None:
            return value
        L = (sum(lam) + sum(mu)) * len(w)
        return value + RationalFunction(Polynomial((1,)), Polynomial((-(L + 1), 1)))

    monkeypatch.setattr(wi, "expect_stable_character", patched)
    with pytest.raises(StructureViolationError):
        wi.interpolate_phi((1,), (), COMM)
    code = cli.run(["interp", "--word", "abAB", "--lambda", "1"])
    out, err = capsys.readouterr()
    assert code == 4 and out == "" and "theorem violation" in err


def test_wrong_sample_value_raises_structure_violation(monkeypatch):
    # the division does not use the sample points, so each one is checked
    # against the fit: corrupt a single one
    original = wi.expect_stable_character
    bad_n = 6

    def patched(lam, mu, w, n=None):
        value = original(lam, mu, w, n=n)
        return value + 1 if n == bad_n else value

    monkeypatch.setattr(wi, "expect_stable_character", patched)
    with pytest.raises(StructureViolationError) as info:
        wi.interpolate_phi((1,), (), COMM)
    assert info.value.details["residuals"] == ["0"] * wi.HELD_OUT_POINTS
    assert any(r != "0" for r in info.value.details["sample_residuals"])
