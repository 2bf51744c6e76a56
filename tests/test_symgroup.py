import itertools
import math
from fractions import Fraction

import pytest

from haarwords import symgroup as sg
from haarwords.errors import (ResourceCapError, TheoremViolationError, UnsupportedSizeError,
                              ValidationError)
from haarwords.symgroup import Partition


def frobenius_character(lam, rho):
    """Independent character oracle: chi_lambda(rho) is the coefficient of
    x^(lambda + delta) in the alternant a_delta times the power sum p_rho,
    computed with sparse exponent-vector polynomials."""
    k = lam.size
    delta = tuple(range(k - 1, -1, -1))
    alternant = {}
    for sigma in itertools.permutations(range(k)):
        sign = 1
        seen = list(sigma)
        # count inversions for the sign
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        expo = tuple(delta[sigma[i]] for i in range(k))
        alternant[expo] = alternant.get(expo, 0) + sign
    poly = alternant
    for part in rho.parts:
        new = {}
        for expo, c in poly.items():
            for var in range(k):
                e2 = list(expo)
                e2[var] += part
                e2 = tuple(e2)
                new[e2] = new.get(e2, 0) + c
        poly = new
    target = tuple(lam.parts[i] + delta[i] if i < lam.length else delta[i]
                   for i in range(k))
    return poly.get(target, 0)


def count_ssyt(lam, n):
    """Semistandard tableaux of shape lam with entries in 1..n; their count
    is the polynomial irrep dimension s_lambda(1^n)."""
    cells = lam.cells()
    total = 0
    fill = {}

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        left = fill.get((i, j - 1), 1)
        up = fill.get((i - 1, j), 0)
        for v in range(max(left, up + 1), n + 1):
            fill[(i, j)] = v
            place(idx + 1)
        fill.pop((i, j), None)

    place(0)
    return total


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition((1, 2))
    with pytest.raises(ValidationError):
        Partition((2, 0))
    assert Partition(()).size == 0


def test_partitions_of_counts_and_order():
    assert len(sg.partitions_of(0)) == 1
    assert len(sg.partitions_of(4)) == 5
    assert len(sg.partitions_of(6)) == 11
    parts = sg.partitions_of(5)
    assert parts == sorted(parts, key=lambda p: p.parts, reverse=True)
    with pytest.raises(ResourceCapError):
        sg.partitions_of(25)


def test_character_examples():
    for rho in sg.partitions_of(4):
        assert sg.character(Partition((4,)), rho) == 1
    assert sg.character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert sg.character(Partition((2, 1)), Partition((3,))) == -1
    with pytest.raises(ValidationError):
        sg.character(Partition((2,)), Partition((3,)))


@pytest.mark.parametrize("k", range(1, 6))
def test_character_against_frobenius_oracle(k):
    for lam in sg.partitions_of(k):
        for rho in sg.partitions_of(k):
            assert sg.character(lam, rho) == frobenius_character(lam, rho)


@pytest.mark.parametrize("k", range(1, 7))
def test_dimension_and_orthogonality(k):
    parts = sg.partitions_of(k)
    one = Partition((1,) * k)
    for lam in parts:
        assert sg.character(lam, one) == lam.dimension()
    for lam in parts:
        for lam2 in parts:
            acc = Fraction(0)
            for rho in parts:
                acc += Fraction(sg.character(lam, rho) * sg.character(lam2, rho),
                                sg.cycle_type_order(rho))
            assert acc == (1 if lam == lam2 else 0)


def test_class_sizes_sum_to_group_order():
    for k in range(1, 7):
        assert sum(math.factorial(k) // sg.cycle_type_order(rho)
                   for rho in sg.partitions_of(k)) == math.factorial(k)


def test_char_table_csv():
    table = sg.char_table(3)
    text = table.to_csv()
    assert text.splitlines()[0].startswith("lambda\\rho")
    assert len(text.splitlines()) == 1 + 3


def test_schur_dim_poly_examples():
    n = sg.schur_dim_poly(Partition((1,)))
    assert n(Fraction(7)) == 7
    s2 = sg.schur_dim_poly(Partition((2,)))
    assert s2(Fraction(7)) == Fraction(7 * 8, 2)
    s11 = sg.schur_dim_poly(Partition((1, 1)))
    assert s11(Fraction(7)) == Fraction(7 * 6, 2)


def test_schur_dim_poly_vs_ssyt_count():
    for total in range(1, 5):
        for lam in sg.partitions_of(total):
            for n in range(1, 7):
                assert sg.schur_dim_poly(lam)(Fraction(n)) == count_ssyt(lam, n)


def test_lr_examples():
    assert sg.lr_coeff(Partition((1,)), Partition((1,)), Partition((2,))) == 1
    assert sg.lr_coeff(Partition((2,)), Partition((2,)), Partition((2, 2))) == 1
    for nu in sg.partitions_of(3):
        assert sg.lr_coeff(nu, Partition(()), nu) == 1
        assert sg.lr_coeff(Partition((2,)), Partition(()), nu) == (nu == Partition((2,)))


def test_lr_symmetry_and_dimension_identity():
    n = Fraction(5)
    for ka in range(0, 3):
        for kb in range(0, 5 - 2 * ka + 1):
            if ka + kb > 4:
                continue
            for lam in sg.partitions_of(ka):
                for mu in sg.partitions_of(kb):
                    prod = sg.schur_dim_poly(lam)(n) * sg.schur_dim_poly(mu)(n)
                    acc = Fraction(0)
                    for nu in sg.partitions_of(ka + kb):
                        c = sg.lr_coeff(lam, mu, nu)
                        assert c == sg.lr_coeff(mu, lam, nu)
                        assert c >= 0
                        acc += c * sg.schur_dim_poly(nu)(n)
                    assert acc == prod


def test_basechange_examples():
    bc1 = sg.powersum_schur_basechange(1)
    assert bc1.schur_to_powersum[Partition((1,))][Partition((1,))] == 1
    bc2 = sg.powersum_schur_basechange(2)
    s2 = bc2.schur_to_powersum[Partition((2,))]
    assert s2[Partition((1, 1))] == Fraction(1, 2)
    assert s2[Partition((2,))] == Fraction(1, 2)
    p2 = bc2.powersum_to_schur[Partition((2,))]
    assert p2[Partition((2,))] == 1 and p2[Partition((1, 1))] == -1


@pytest.mark.parametrize("k", range(1, 6))
def test_basechange_matrices_inverse(k):
    bc = sg.powersum_schur_basechange(k)
    parts = bc.partitions
    for lam in parts:
        for lam2 in parts:
            acc = Fraction(0)
            for rho in parts:
                acc += bc.schur_to_powersum[lam][rho] * bc.powersum_to_schur[rho][lam2]
            assert acc == (1 if lam == lam2 else 0)


def test_koike_examples():
    e = sg.koike_expand((1,), ())
    assert dict(e.items()) == {(Partition((1,)), Partition(())): 1}
    e = sg.koike_expand((1,), (1,))
    assert e[(Partition((1,)), Partition((1,)))] == 1
    assert e[(Partition(()), Partition(()))] == -1
    assert len(dict(e.items())) == 2


def test_koike_leading_coefficient_and_cap():
    for k, l in ((1, 1), (2, 1), (2, 2), (1, 0)):
        for lam in sg.partitions_of(k):
            for mu in sg.partitions_of(l):
                e = sg.koike_expand(lam.parts, mu.parts)
                assert e[(lam, mu)] == 1
    with pytest.raises(UnsupportedSizeError):
        sg.koike_expand((3,), (2,))


def test_koike_against_forward_decomposition():
    """Independent route: the product s_lam(g) s_mu(g^-1) decomposes into
    mixed characters with multiplicities sum_k c^lam_{k,lam'} c^mu_{k,mu'};
    inverting that unitriangular system must reproduce the expansion."""
    pairs = []
    for total in range(0, 5):
        for k in range(total + 1):
            for lam in sg.partitions_of(k):
                for mu in sg.partitions_of(total - k):
                    pairs.append((lam, mu))

    def forward(lam, mu, lam2, mu2):
        j = lam.size - lam2.size
        if j != mu.size - mu2.size or j < 0:
            return 0
        return sum(sg.lr_coeff(kappa, lam2, lam) * sg.lr_coeff(kappa, mu2, mu)
                   for kappa in sg.partitions_of(j))

    index = {pair: i for i, pair in enumerate(pairs)}
    size = len(pairs)
    fwd = [[Fraction(forward(a, b, c, d)) for (c, d) in pairs] for (a, b) in pairs]
    # the expansion matrix A satisfies A F = I, so A[i][j] = (F^-1)[i][j];
    # solve_exact(F, e_j) is the j-th column of F^-1
    import haarwords.ratfunc as rf
    cols = [rf.solve_exact(fwd, [Fraction(1 if i == j else 0) for i in range(size)])
            for j in range(size)]
    for (lam, mu) in pairs:
        e = sg.koike_expand(lam.parts, mu.parts)
        i = index[(lam, mu)]
        for (lam2, mu2) in pairs:
            j = index[(lam2, mu2)]
            assert Fraction(e.get((lam2, mu2), 0)) == cols[j][i], (lam, mu, lam2, mu2)


def test_koike_check_catches_every_off_by_one_coefficient():
    for lam, mu in (((2,), (1, 1)), ((1,), (1,)), ((2, 1), (1,))):
        lam, mu = Partition(lam), Partition(mu)
        terms = sg._koike_terms(lam, mu)
        sg._validate_koike(lam, mu, terms)
        for key in terms:
            for step in (1, -1):
                with pytest.raises(TheoremViolationError):
                    sg._validate_koike(lam, mu, {**terms, key: terms[key] + step})


def ssyt_schur(lam, xs):
    """Brute-force Schur polynomial: the sum over semistandard tableaux of
    shape lam with entries in 0..n-1 of the product of x_entry."""
    cells = lam.cells()
    total = 0
    fill = {}

    def place(idx, prod):
        nonlocal total
        if idx == len(cells):
            total += prod
            return
        i, j = cells[idx]
        left = fill.get((i, j - 1), 0)
        up = fill.get((i - 1, j), -1)
        for v in range(max(left, up + 1), len(xs)):
            fill[(i, j)] = v
            place(idx + 1, prod * xs[v])
        fill.pop((i, j), None)

    place(0, 1)
    return total


def test_schur_from_elementary_against_tableau_count():
    points = [(3,), (-2, 5), (1, -1), (2, 3, -7), (4, 4, 4), (-3, 2, 5, 1), (0, 6, -2, 9)]
    for size in range(0, 5):
        for lam in sg.partitions_of(size):
            for xs in points:
                e = sg.elementary_symmetric(xs)
                assert sg.schur_from_elementary(lam.parts + (0,), e) == ssyt_schur(lam, xs), \
                    (lam, xs)


def test_schur_from_elementary_refuses_a_negative_weight():
    # e_n^c with c < 0 would leave the integers
    with pytest.raises(ValidationError):
        sg.schur_from_elementary((1, 0, -1), sg.elementary_symmetric((2, 3, 5)))
