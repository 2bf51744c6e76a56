import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from haarwords import freegroup as fg
from haarwords import montecarlo as mc
from haarwords import perms, selftest, weingarten
from haarwords.errors import ConvergenceError, TheoremViolationError, ValidationError
from haarwords.symgroup import Partition, koike_expand, partitions_of
from oracles import dense, q_projector, schur_dim_poly, weyl_dim_pairwise

COMM = fg.parse_word("abAB")


def matrix_operator(mat):
    """The ImplicitTensorOperator of a dense matrix."""
    mat = np.asarray(mat, dtype=complex)
    mat_h = mat.conj().T
    return mc.ImplicitTensorOperator(len(mat), lambda v: mat @ v, lambda v: mat_h @ v)


def unitarity_residual(u):
    """max |u* u - 1| over a matrix."""
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())


def random_unitary(n, seed):
    return mc.sample_tuple(1, n, np.random.default_rng(seed))[0]


def test_haar_unitary_residual_and_determinism():
    u = mc.sample_tuple(1, 7, np.random.default_rng(0))[0]
    assert unitarity_residual(u) < 1e-12
    v = mc.sample_tuple(1, 7, np.random.default_rng(0))[0]
    assert np.array_equal(u, v)


def test_haar_phase_mean_n1():
    # one batch of 100,000 draws consumes the stream as single draws do
    vals = mc.sample_tuple(1, 1, mc.substream(123, "phase"), batch=100000)[0][:, 0, 0]
    assert abs(vals.mean()) < 0.02
    rng = mc.substream(123, "phase")
    assert [mc.sample_tuple(1, 1, rng)[0][0, 0] for _ in range(5)] == list(vals[:5])


def test_haar_trace_moments():
    rng = mc.substream(42, "tr")
    n, samples = 10, 20000
    traces = np.array([np.trace(mc.sample_tuple(1, n, rng)[0]) for _ in range(samples)])
    se1 = np.abs(traces).std() / math.sqrt(samples)
    assert abs(traces.mean()) <= 4 * se1
    sq = np.abs(traces) ** 2
    assert abs(sq.mean() - 1) <= 4 * sq.std() / math.sqrt(samples)


def test_special_unitary_determinant_and_mean_trace():
    rng = mc.substream(9, "su")
    for _ in range(50):
        v = mc.sample_tuple(1, 3, rng, group="SU")[0]
        assert abs(np.linalg.det(v) - 1) < 1e-10
        assert unitarity_residual(v) < 1e-12
    vals = np.array([np.trace(mc.sample_tuple(1, 3, rng, group="SU")[0]) for _ in range(20000)])
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean()) <= 4 * se  # matches the U(3) value 0


def mezzadri_unitary(n, rng):
    """The per-matrix Haar draw: Ginibre, QR, phase-fixed diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_batched_draws_match_sequential_draws(n):
    batch = mc.sample_tuple(2, n, np.random.default_rng(8), batch=7)
    assert len(batch) == 2 and batch[0].shape == (7, n, n)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for s in range(7):
        for j in range(2):
            u = mc.sample_tuple(1, n, rng)[0]
            assert np.array_equal(batch[j][s], u)
            assert np.array_equal(u, mezzadri_unitary(n, ref))
    if n < 2:
        return
    batch = mc.sample_tuple(2, n, np.random.default_rng(9), batch=7, group="SU")
    rng = np.random.default_rng(9)
    for s in range(7):
        for j in range(2):
            v = mezzadri_unitary(n, rng)
            det = np.linalg.det(v)
            v[:, 0] *= det.conjugate() / abs(det)
            assert np.max(np.abs(batch[j][s] - v)) < 1e-14


def test_unknown_group_is_rejected():
    with pytest.raises(ValidationError):
        mc.mc_expect(Partition((1,)), Partition(()), COMM, 3, 10, 1, group="Sp")
    with pytest.raises(ValidationError):
        mc.sample_tuple(2, 3, np.random.default_rng(0), group="su")


def test_every_drawn_matrix_is_checked(monkeypatch):
    qr = np.linalg.qr

    def one_bad_qr(z):
        q, r = qr(z)
        q = q.copy()
        q[2, 1] *= 1 + 1e-9        # one matrix of the stack stops being unitary
        return q, r

    monkeypatch.setattr(mc.np.linalg, "qr", one_bad_qr)
    with pytest.raises(ValidationError, match="unitarity"):
        mc.sample_tuple(2, 4, np.random.default_rng(0), batch=5)
    monkeypatch.undo()
    stack = mc.sample_tuple(1, 4, np.random.default_rng(0), group="SU", batch=5)[0].copy()
    stack[3, :, 0] *= 1j               # still unitary, determinant i
    mc._check_draws(stack, "U")
    with pytest.raises(ValidationError, match="determinant"):
        mc._check_draws(stack, "SU")


def per_sample_mc_expect(lam, mu, w, n, samples, rng, group="U"):
    """The one-tuple-at-a-time estimator the chunked one replaced."""
    rng = np.random.default_rng(rng)
    vals = np.empty(samples, dtype=complex)
    for i in range(samples):
        us = mc.sample_tuple(max(w.rank, 1), n, rng, group=group)
        eig = np.linalg.eigvals(fg.evaluate_word(w, us))
        eig /= np.abs(eig)
        vals[i] = mc.weyl_character_eval(lam, mu, eig)
    mean = complex(vals.mean())
    return mean, float(np.sqrt(np.mean(np.abs(vals - mean) ** 2) / samples))


def test_chunked_mc_expect_matches_per_sample_loop():
    samples = mc.HAAR_CHUNK + 1
    lam, mu = Partition((2,)), Partition((1,))
    res = mc.mc_expect(lam, mu, COMM, 4, samples, 3)
    assert res.samples == samples
    assert (res.mean, res.se) == per_sample_mc_expect(lam, mu, COMM, 4, samples, 3)
    res = mc.mc_expect(lam, mu, COMM, 4, samples, 3, group="SU")
    mean, se = per_sample_mc_expect(lam, mu, COMM, 4, samples, 3, group="SU")
    assert abs(res.mean - mean) <= 1e-12 * abs(mean) and abs(res.se - se) <= 1e-12 * se


def test_su_u_agreement_above_threshold():
    # n = 5 > (k+l)|w| = 4: SU-sampled estimate must match the exact 1/5
    res = mc.mc_expect(Partition((1,)), Partition(()), COMM, 5, 8000,
                       mc.substream(31, "su-comm"), group="SU")
    assert res.within(0.2)


def test_su_u_disagreement_below_threshold():
    # w = a^2, lambda = (1): the U(n) integral vanishes by phase
    # invariance, but w^(k-l) = a^2 dies mod n = 2, so the SU(2) integral
    # does not (it equals -1); the threshold n > (k+l)|w| fails here.
    res = mc.mc_expect(Partition((1,)), Partition(()), fg.parse_word("aa"), 2,
                       8000, mc.substream(31, "su-a2"), group="SU")
    assert abs(res.mean - (-1.0)) <= 4 * res.se
    assert abs(res.mean) > 10 * res.se


def test_weyl_character_examples():
    rng = np.random.default_rng(3)
    eig = np.exp(2j * np.pi * rng.random(5))
    assert abs(mc.weyl_character_eval(Partition((1,)), Partition(()), eig) - eig.sum()) < 1e-9
    assert abs(mc.weyl_character_eval(Partition((1,)), Partition((1,)), np.ones(4)) - 15) < 1e-6
    x, y = np.exp(2j * np.pi * rng.random(2))
    val = mc.weyl_character_eval(Partition((2,)), Partition(()), np.array([x, y]))
    assert abs(val - (x * x + x * y + y * y)) < 1e-9
    with pytest.raises(ValidationError):
        mc.weyl_character_eval(Partition((2, 1)), Partition((1,)), np.ones(2))


def ssyt_schur_eval(lam, xs):
    """Brute-force Schur polynomial via semistandard tableaux."""
    cells = lam.cells()
    n = len(xs)
    total = 0j
    fill = {}

    def place(idx, prod):
        nonlocal total
        if idx == len(cells):
            total += prod
            return
        i, j = cells[idx]
        left = fill.get((i, j - 1), 0)
        up = fill.get((i - 1, j), -1)
        for v in range(max(left, up + 1), n):
            fill[(i, j)] = v
            place(idx + 1, prod * xs[v])
        fill.pop((i, j), None)

    place(0, 1.0 + 0j)
    return total


_MIXED_LABELS = [(lam, mu) for total in range(5) for k in range(total + 1)
                 for lam in partitions_of(k) for mu in partitions_of(total - k)]


@st.composite
def _labelled_spectra(draw):
    """A label with |lambda| + |mu| <= 4, and a stack of 1-3 spectra in U(n),
    n <= 8, whose eigenvalues come from a pool of `distinct` phases: every
    spectrum has forced collisions when distinct < n, and is scalar when
    distinct = 1."""
    lam, mu = draw(st.sampled_from(_MIXED_LABELS))
    n = draw(st.integers(max(lam.length + mu.length, 1), 8))
    distinct = draw(st.integers(1, n))
    phases = draw(st.lists(st.floats(0, 2 * math.pi), min_size=distinct, max_size=distinct))
    picks = draw(st.lists(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n),
                          min_size=1, max_size=3))
    return lam, mu, np.exp(1j * np.array(phases))[np.array(picks)]


@settings(max_examples=150, deadline=None)
@given(_labelled_spectra())
def test_character_matches_koike_tableau_sum(case):
    """weyl_character_eval against a route it does not use: the mixed
    expansion sum alpha s_{lambda'}(x) s_{mu'}(1/x), each Schur value a sum
    over semistandard tableaux.  A stack's rows equal single-spectrum calls
    bit for bit."""
    lam, mu, stack = case
    values = mc.weyl_character_eval(lam, mu, stack)
    rows = [mc.weyl_character_eval(lam, mu, xs) for xs in stack]
    assert np.array_equal(values, rows)
    for value, xs in zip(values, stack):
        want = sum(alpha * ssyt_schur_eval(Partition(lp), xs) * ssyt_schur_eval(Partition(mp), 1 / xs)
                   for (lp, mp), alpha in koike_expand(lam.parts, mu.parts).items())
        assert abs(value - want) <= 1e-10, (lam, mu, xs)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_schur_eval_against_tableau_oracle(size):
    rng = np.random.default_rng(17)
    for lam in partitions_of(size):
        for n in (3, 4):
            xs = np.exp(2j * np.pi * rng.random(n))
            value = mc.weyl_character_eval(lam, Partition(()), xs)
            assert abs(value - ssyt_schur_eval(lam, xs)) < 1e-8


def test_weyl_dim_examples():
    assert mc.weyl_dim((1, 0)) == 2
    for n in range(2, 7):
        for k in range(1, 5):
            assert mc.weyl_dim((k,) + (0,) * (n - 1)) == math.comb(n + k - 1, k)
    for n in range(2, 8):
        assert mc.weyl_dim((1,) + (0,) * (n - 2) + (-1,)) == n * n - 1


def test_weyl_dim_closed_forms_at_large_n():
    n = 10 ** 5
    for k in range(1, 5):
        assert mc.weyl_dim((k,) + (0,) * (n - 1)) == math.comb(n + k - 1, k)
        assert mc.weyl_dim((1,) * k + (0,) * (n - k)) == math.comb(n, k)
    assert mc.weyl_dim((1,) + (0,) * (n - 2) + (-1,)) == n * n - 1


def test_weyl_dim_refuses_an_ascent():
    with pytest.raises(ValidationError, match="entry 1 = 2 exceeds entry 0 = 0"):
        mc.weyl_dim((0, 2))
    with pytest.raises(ValidationError, match="entry 4 = 2 exceeds entry 3 = 1"):
        mc.weyl_dim((3, 3, 1, 1, 2, 0))


def _dominant_weights():
    return st.lists(st.integers(-6, 6), max_size=40).map(lambda xs: tuple(sorted(xs, reverse=True)))


def _agrees_with_pairwise(weyl, weight):
    try:
        return weyl(weight) == weyl_dim_pairwise(weight)
    except TheoremViolationError:
        return False


@settings(max_examples=300, deadline=None)
@given(_dominant_weights())
def test_weyl_dim_matches_the_pairwise_product(weight):
    assert _agrees_with_pairwise(mc.weyl_dim, weight)


@pytest.mark.parametrize("exact,mutant", [
    ("d2 = d1 + longer - 1", "d2 = d1 + longer"),
    ("perm(d1 + c - 1, c)", "perm(d1 + c, c)"),
], ids=["D2-plus-one", "D1-plus-one"])
def test_pairwise_property_catches_an_off_by_one_telescope(exact, mutant):
    source = inspect.getsource(mc.weyl_dim)
    assert source.count(exact) == 1
    namespace = dict(vars(mc))
    exec(source.replace(exact, mutant), namespace)
    find(_dominant_weights(), lambda w: not _agrees_with_pairwise(namespace["weyl_dim"], w),
         settings=settings(database=None, derandomize=True, max_examples=300))


def test_weyl_dim_matches_schur_dim_poly():
    for size in range(1, 5):
        for lam in partitions_of(size):
            for n in range(lam.length, 7):
                weight = tuple(lam.parts) + (0,) * (n - lam.length)
                assert mc.weyl_dim(weight) == schur_dim_poly(lam)(Fraction(n))


def test_mixed_dimension_consistent_with_expansion():
    # s_{lam,mu}(1) must equal the expansion evaluated at the identity
    from haarwords.symgroup import koike_expand

    for lam, mu in (((1,), (1,)), ((2,), (1,)), ((2,), (2,)), ((1, 1), (1,))):
        lam, mu = Partition(lam), Partition(mu)
        for n in range(lam.length + mu.length, 8):
            expansion = koike_expand(lam.parts, mu.parts)
            total = sum(c * schur_dim_poly(l2)(Fraction(n)) * schur_dim_poly(m2)(Fraction(n))
                        for (l2, m2), c in expansion.items())
            assert mc.weyl_dim(mc.mixed_weight(lam, mu, n)) == total


def test_highest_weight_normalization():
    # a weight counts up to (1, ..., 1): the record holds the minimal-l1 one
    rec = mc.dim_bounds_check((3, 1), 2)
    assert rec["weight"] == [2, 0] and rec["l1"] == 2
    rec = mc.dim_bounds_check((1, 0, 0, -1), 4)
    assert rec["weight"] == [1, 0, 0, -1] and rec["l1"] == 2
    with pytest.raises(ValidationError):
        mc.dim_bounds_check((1, 0), 3)


def test_dim_bounds_check_small():
    for n in (4, 10):
        for total in range(0, 5):
            for k in range(total + 1):
                for lam in partitions_of(k):
                    for mu in partitions_of(total - k):
                        if lam.length + mu.length > n:
                            continue
                        rec = mc.dim_bounds_check(mc.mixed_weight(lam, mu, n), n)
                        assert rec["passed"]


def test_representation_property():
    rng = np.random.default_rng(11)
    for n, k, l in ((4, 2, 1), (8, 1, 1), (3, 3, 0)):
        u, v = mc.sample_tuple(1, n, rng)[0], mc.sample_tuple(1, n, rng)[0]
        op_uv = mc.tensor_representation(u @ v, k, l)
        op_u = mc.tensor_representation(u, k, l)
        op_v = mc.tensor_representation(v, k, l)
        for _ in range(20):
            vec = rng.standard_normal(n ** (k + l)) + 1j * rng.standard_normal(n ** (k + l))
            lhs = op_uv.apply(vec)
            rhs = op_u.apply(op_v.apply(vec))
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_tensor_operator_adjoint_pairing():
    rng = np.random.default_rng(4)
    n, k, l = 3, 1, 2
    op = mc.tensor_representation(mc.sample_tuple(1, n, rng)[0], k, l)
    x = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
    y = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
    assert abs(np.vdot(y, op.apply(x)) - np.vdot(op.adjoint().apply(y), x)) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_representation_matches_kron(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for k, l in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)):
        kron = np.ones((1, 1))
        for factor in [m] * k + [m.conj()] * l:
            kron = np.kron(kron, factor)
        op = mc.tensor_representation(m, k, l)
        assert np.max(np.abs(dense(op) - kron)) < 1e-12
        assert np.max(np.abs(dense(op.adjoint()) - kron.conj().T)) < 1e-12


def _gram_projector_apply(k, n, vec):
    """P vec = V^T (V V^T)^-1 V vec for the rows v_sigma of V, built densely
    with components delta(A = B o sigma)."""
    grids = np.indices((n,) * k).reshape(k, -1)
    rows = []
    for sigma in perms.all_perms(k):
        v = np.zeros((n,) * (2 * k))
        v[tuple(grids[list(sigma)]) + tuple(grids)] = 1.0
        rows.append(v.reshape(-1))
    v = np.array(rows)
    return v.T @ np.linalg.solve(v @ v.T, v @ vec)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_invariant_projector_matches_dense_gram(k):
    rng = np.random.default_rng(k)
    for n in range(k, k + 3):
        p = mc.invariant_projector(k, n)
        for _ in range(2):
            x = rng.standard_normal(n ** (2 * k)) + 1j * rng.standard_normal(n ** (2 * k))
            assert np.max(np.abs(p.apply(x) - _gram_projector_apply(k, n, x))) < 1e-12


def test_invariant_projector_stores_no_dense_vectors():
    k, n = 3, 12
    x = np.random.default_rng(3).standard_normal(n ** (2 * k)).astype(complex)
    mc.invariant_projector(k, n)     # fills the Weingarten caches
    tracemalloc.start()
    try:
        mc.invariant_projector(k, n).apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.nbytes


def test_invariant_projector_ranks_and_commutation():
    rng = np.random.default_rng(8)
    p1 = mc.invariant_projector(1, 5)
    d1 = dense(p1)
    assert abs(np.trace(d1).real - 1) < 1e-9
    p2 = mc.invariant_projector(2, 4)
    d2 = dense(p2)
    assert abs(np.trace(d2).real - 2) < 1e-9
    assert np.max(np.abs(d2 @ d2 - d2)) < 1e-9
    u = mc.sample_tuple(1, 4, rng)[0]
    r = mc.tensor_representation(u, 2, 2)
    vec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    lhs = p2.apply(r.apply(vec))
    rhs = r.apply(p2.apply(vec))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_q_projector_identities():
    m = q_projector(Partition((1,)), Partition((1,)), 4)
    assert abs(np.trace(m) - 15) < 1e-10
    assert np.max(np.abs(m @ m - m)) < 1e-10
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    rng = np.random.default_rng(15)
    u = mc.sample_tuple(1, 4, rng)[0]
    r = dense(mc.tensor_representation(u, 1, 1))
    assert np.max(np.abs(m @ r - r @ m)) < 1e-10
    t = m.reshape(4, 4, 4, 4)
    assert np.max(np.abs(np.einsum("abuu->ab", t))) < 1e-12
    assert np.max(np.abs(np.einsum("uuab->ab", t))) < 1e-12


def test_q_projector_trace_other_labels():
    q = q_projector(Partition((2,)), Partition(()), 3)
    dim = mc.weyl_dim(mc.mixed_weight(Partition((2,)), Partition(()), 3))
    assert abs(np.trace(q) - dim) < 1e-9
    q = q_projector(Partition((1,)), Partition(()), 5)
    assert np.max(np.abs(q - np.eye(5))) < 1e-12


def test_estimate_norm_basics():
    ident = matrix_operator(np.eye(7))
    est = mc.estimate_norm(ident, rng=1)
    assert abs(est.value - 1) < 1e-10
    zero = matrix_operator(np.zeros((7, 7)))
    assert mc.estimate_norm(zero, rng=1).value == 0


def test_estimate_norm_u_plus_ustar():
    u = mc.sample_tuple(1, 200, np.random.default_rng(123))[0]
    op = matrix_operator(u + u.conj().T)
    est = mc.estimate_norm(op, tol=5e-2, max_iter=3000, rng=5)
    assert 1.9 <= est.value <= 2.0 + 1e-9


def test_estimate_norm_never_exceeds_dense_oracle():
    rng = np.random.default_rng(77)
    for n in (20, 60):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = matrix_operator(m)
        true = float(np.linalg.svd(m, compute_uv=False)[0])
        est = mc.estimate_norm(op, tol=5e-2, max_iter=4000, rng=3)
        assert est.value <= true + 1e-9
        assert est.value >= 0.9 * true


def _hermitian(eigenvalues, seed):
    u = random_unitary(len(eigenvalues), seed)
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def test_estimate_norm_brackets_sigma_max():
    rng = np.random.default_rng(41)
    dense = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    rank_one = np.outer(x, x.conj())
    clustered = _hermitian(np.concatenate([[3.0, -3.0 + 1e-6, 3.0 - 2e-6],
                                           np.linspace(-2.9, 2.9, 57)]), 42)
    for m in (dense, rank_one, clustered):
        sigma_max = float(np.linalg.svd(m, compute_uv=False)[0])
        for tol in (1e-2, 5e-2):
            est = mc.estimate_norm(matrix_operator(m),
                                   tol=tol, rng=9)
            assert est.value <= sigma_max + 1e-9
            assert est.value >= (1 - tol) * sigma_max
            assert est.residual <= tol * tol


def test_estimate_norm_raises_with_best_estimate():
    rng = np.random.default_rng(43)
    m = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    sigma_max = float(np.linalg.svd(m, compute_uv=False)[0])
    with pytest.raises(ConvergenceError) as info:
        mc.estimate_norm(matrix_operator(m),
                         max_iter=2, rng=3)
    best = info.value.best_estimate
    assert best.iterations == 2
    assert 0 < best.value <= sigma_max + 1e-9


def test_polynomial_operator_matches_dense_sum():
    u = random_unitary(5, 44)
    v = random_unitary(5, 45)
    terms = [(fg.parse_word("ab"), 1.5), (fg.parse_word("B"), -0.5j)]
    op = mc.polynomial_operator(terms, (u, v), 1, 1)
    kron = sum(c * np.kron(m, m.conj()) for c, m in ((1.5, u @ v), (-0.5j, v.conj().T)))
    want = kron @ (np.eye(25) - dense(mc.invariant_projector(1, 5)))
    assert np.max(np.abs(dense(op) - want)) < 1e-12
    assert np.max(np.abs(dense(op.adjoint()) - want.conj().T)) < 1e-12


# (n, k, l): Lanczos steps and norm estimate of a+A+b+B at seed 20251017,
# the `norms` bench shapes.  A change that moves them changes the seeded
# stream and has to say so.
NORM_STREAM = {
    (300, 1, 0): (33, 3.41787046348652),
    (80, 1, 1): (44, 3.4698558402629747),
    (20, 2, 1): (40, 3.4581135631593503),
    (12, 2, 2): (64, 3.4619448669812236),
}


def test_seeded_norm_stream_is_locked(monkeypatch):
    estimate_norm = mc.estimate_norm
    steps = []

    def counted(*args, **kwargs):
        est = estimate_norm(*args, **kwargs)
        steps.append(est.iterations)
        return est

    monkeypatch.setattr(mc, "estimate_norm", counted)
    terms = [(fg.parse_word(t, 2), 1) for t in ("a", "A", "b", "B")]
    for (n, k, l), (iterations, value) in NORM_STREAM.items():
        report = mc.strong_convergence_experiment(2, n, k, l, terms, 1, 20251017,
                                                  reference=2 * math.sqrt(3))
        assert steps.pop() == iterations
        assert report.norm_estimates[0] == pytest.approx(value, rel=1e-12, abs=0)


def test_mc_sample_count_needs_two():
    for samples in (0, 1):
        with pytest.raises(ValidationError):
            mc.mc_expect(Partition((1,)), Partition(()), COMM, 3, samples, 1)
        with pytest.raises(ValidationError):
            mc.mc_trace_moment([COMM], 3, samples, 1)


def test_mc_expect_commutator_and_zero_cases():
    res = mc.mc_expect(Partition((1,)), Partition(()), COMM, 5, 6000,
                       mc.substream(1, "comm"))
    assert res.within(0.2)
    res = mc.mc_expect(Partition((1,)), Partition((1,)), fg.parse_word("a"), 6,
                       4000, mc.substream(1, "zero"))
    assert res.within(0.0)
    res = mc.mc_expect(Partition((2,)), Partition(()), fg.parse_word("aab"), 5,
                       4000, mc.substream(1, "unbal"))
    assert res.within(0.0)


def test_monomial_oracle_agreement_small():
    rows = selftest.monomial_agreement(samples=4000, seed=77)
    assert all(r["ok"] for r in rows)


def test_gram_inversion_catches_one_wrong_weingarten_value(monkeypatch):
    wg = weingarten.wg

    def off_by_a_thousandth(L, ct):
        value = wg(L, ct)
        if (L, tuple(ct)) == (3, (2, 1)):
            return lambda n: value(n) + Fraction(1, 1000)
        return value

    assert all(r["ok"] for r in selftest.gram_inversion(L_max=3))
    monkeypatch.setattr(weingarten, "wg", off_by_a_thousandth)
    rows = selftest.gram_inversion(L_max=3)
    assert [r["ok"] for r in rows] == [True] * 6 + [False] * 3


def test_strong_convergence_small():
    terms = [(fg.parse_word(s), 1.0) for s in ("a", "A", "b", "B")]
    rep = mc.strong_convergence_experiment(2, 60, 1, 0, terms, samples=1,
                                           seed=12, reference=2 * math.sqrt(3))
    assert abs(rep.deviation) < 0.3
    blob = rep.to_json()
    assert blob["seed"] == 12 and blob["type"] == "float"


def test_strong_convergence_degenerate_scalar():
    terms = [(fg.parse_word("a"), 0.5), (fg.parse_word("A"), 0.5)]
    rep = mc.strong_convergence_experiment(1, 10, 0, 0, terms, samples=2, seed=3,
                                           reference=1.0)
    assert rep.norm_estimates == [1.0, 1.0]


CONCENTRATION_FLAG_SCALES = 10.0  # a norm this many Lipschitz scales off its mean is flagged


def concentration_probe(terms, k, l, n_list, trials, seed):
    """Empirical spread of the operator norm across independent samples for
    each n, checked against the sub-Gaussian Lipschitz scale
    C(x) K / sqrt(n - 2) where C(x) = sum |coeff| |w|."""
    if k < 0 or l < 0:
        raise ValidationError(f"tensor degrees must be >= 0, got k={k}, l={l}")
    r = max(max(w.rank for w, _ in terms), 1)
    big_k = k + l
    c_x = sum(abs(c) * max(len(w), 1) for w, c in terms)
    rows = []
    for n in n_list:
        norms = []
        for t in range(trials):
            us = mc.sample_tuple(r, n, mc.substream(seed, "probe", n, t))
            op = mc.polynomial_operator(terms, us, k, l)
            norms.append(mc.estimate_norm(op, rng=mc.substream(seed, "probe-restart", n, t)).value)
        norms = np.array(norms)
        scale = c_x * big_k / math.sqrt(max(n - 2, 1))
        deviations = np.abs(norms - norms.mean())
        flagged = float(np.mean(deviations > CONCENTRATION_FLAG_SCALES * scale))
        rows.append({
            "n": n,
            "trials": trials,
            "mean": float(norms.mean()),
            "std": float(norms.std()),
            "lipschitz_scale": float(scale),
            "flagged_fraction": flagged,
        })
    monotone = rows[-1]["std"] < rows[0]["std"] if len(rows) >= 2 else True
    return {"rows": rows, "std_decreases": monotone,
            "c_x": float(c_x), "k_plus_l": big_k}


def test_concentration_probe_shape():
    terms = [(fg.parse_word(s), 1.0) for s in ("a", "A", "b", "B")]
    report = concentration_probe(terms, 1, 0, [30, 100], trials=8, seed=21)
    assert report["std_decreases"]
    for row in report["rows"]:
        assert row["flagged_fraction"] <= 0.05 or row["std"] < row["lipschitz_scale"]
        assert math.isfinite(row["std"])
