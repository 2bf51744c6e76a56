import math
from fractions import Fraction

import numpy as np
import pytest

from haarwords import freegroup as fg
from haarwords import montecarlo as mc
from haarwords import selftest, weingarten
from haarwords.errors import ConvergenceError, ValidationError
from haarwords.symgroup import Partition, partitions_of, schur_dim_poly

COMM = fg.parse_word("abAB")


def random_unitary(n, seed):
    return mc.haar_unitary(n, np.random.default_rng(seed))


def test_haar_unitary_residual_and_determinism():
    u = mc.haar_unitary(7, np.random.default_rng(0))
    assert mc.unitarity_residual(u) < 1e-12
    v = mc.haar_unitary(7, np.random.default_rng(0))
    assert np.array_equal(u, v)


def test_haar_phase_mean_n1():
    rng = mc.substream(123, "phase")
    vals = np.array([mc.haar_unitary(1, rng)[0, 0] for _ in range(100000)])
    assert abs(vals.mean()) < 0.02


def test_haar_trace_moments():
    rng = mc.substream(42, "tr")
    n, samples = 10, 20000
    traces = np.array([np.trace(mc.haar_unitary(n, rng)) for _ in range(samples)])
    se1 = np.abs(traces).std() / math.sqrt(samples)
    assert abs(traces.mean()) <= 4 * se1
    sq = np.abs(traces) ** 2
    assert abs(sq.mean() - 1) <= 4 * sq.std() / math.sqrt(samples)


def test_special_unitary_determinant_and_mean_trace():
    rng = mc.substream(9, "su")
    for _ in range(50):
        v = mc.haar_special_unitary(3, rng)
        assert abs(np.linalg.det(v) - 1) < 1e-10
        assert mc.unitarity_residual(v) < 1e-12
    vals = np.array([np.trace(mc.haar_special_unitary(3, rng)) for _ in range(20000)])
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
    batch = mc.sample_tuple(2, n, np.random.default_rng(8), batch=7).matrices
    assert len(batch) == 2 and batch[0].shape == (7, n, n)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    for s in range(7):
        for j in range(2):
            u = mc.haar_unitary(n, rng)
            assert np.array_equal(batch[j][s], u)
            assert np.array_equal(u, mezzadri_unitary(n, ref))
    if n < 2:
        return
    batch = mc.sample_tuple(2, n, np.random.default_rng(9), batch=7, group="SU").matrices
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
    stack = mc.sample_tuple(1, 4, np.random.default_rng(0), group="SU", batch=5).matrices[0].copy()
    stack[3, :, 0] *= 1j               # still unitary, determinant i
    mc._check_draws(stack, "U")
    with pytest.raises(ValidationError, match="determinant"):
        mc._check_draws(stack, "SU")


def per_sample_mc_expect(lam, mu, w, n, samples, rng, group="U"):
    """The one-tuple-at-a-time estimator the chunked one replaced."""
    rng = np.random.default_rng(rng)
    vals = np.empty(samples, dtype=complex)
    for i in range(samples):
        us = mc.sample_tuple(max(w.rank, 1), n, rng, group=group).matrices
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


def test_stacked_character_matches_rows(monkeypatch):
    rng = np.random.default_rng(4)
    eig = np.exp(2j * np.pi * rng.random((6, 4)))
    eig[1, 2] = eig[1, 0] * np.exp(1e-9j)              # near collision: Richardson
    us = mc.sample_tuple(1, 4, rng, batch=6).matrices
    eig[4] = np.linalg.eigvals(fg.evaluate_word(fg.parse_word("aA"), us))[4]   # scalar
    weight = (2, 1, 0, -1)
    rows = [mc._char_eval(weight, e) for e in eig]
    char_eval, one_spectrum = mc._char_eval, []

    def spy(w, e):
        one_spectrum.append(np.ndim(e) == 1)
        return char_eval(w, e)

    monkeypatch.setattr(mc, "_char_eval", spy)
    stacked = mc._char_eval(weight, eig.reshape(2, 3, 4))
    assert stacked.shape == (2, 3)
    assert sum(one_spectrum) == 2                      # rows 1 and 4 only
    assert np.max(np.abs(stacked.reshape(-1) - rows)) < 1e-12
    assert abs(rows[4] - mc.weyl_dim(weight)) < 1e-9
    monkeypatch.undo()
    lines = np.exp(2j * np.pi * rng.random((5, 1)))
    assert np.array_equal(mc._char_eval((3,), lines), [mc._char_eval((3,), e) for e in lines])
    lam = Partition((1,))
    assert np.array_equal(mc.schur_eval(Partition((1, 1)), lines), np.zeros(5))
    assert np.array_equal(mc.weyl_character_eval(lam, Partition(()), lines), lines[:, 0])


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
    val = mc.schur_eval(Partition((2,)), np.array([x, y]))
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


@pytest.mark.parametrize("size", [1, 2, 3])
def test_schur_eval_against_tableau_oracle(size):
    rng = np.random.default_rng(17)
    for lam in partitions_of(size):
        for n in (3, 4):
            xs = np.exp(2j * np.pi * rng.random(n))
            assert abs(mc.schur_eval(lam, xs) - ssyt_schur_eval(lam, xs)) < 1e-8


def test_weyl_dim_examples():
    assert mc.weyl_dim((1, 0)) == 2
    for n in range(2, 7):
        for k in range(1, 5):
            assert mc.weyl_dim((k,) + (0,) * (n - 1)) == math.comb(n + k - 1, k)
    for n in range(2, 8):
        assert mc.weyl_dim((1,) + (0,) * (n - 2) + (-1,)) == n * n - 1


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
            assert mc.mixed_dimension(lam, mu, n) == total


def test_highest_weight_normalization():
    hw = mc.HighestWeight((3, 1))
    assert hw.entries == (2, 0) and hw.l1() == 2
    hw = mc.HighestWeight((1, 0, 0, -1))
    assert hw.entries == (1, 0, 0, -1)
    with pytest.raises(ValidationError):
        mc.HighestWeight((0, 1))


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
        u, v = mc.haar_unitary(n, rng), mc.haar_unitary(n, rng)
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
    op = mc.tensor_representation(mc.haar_unitary(n, rng), k, l)
    x = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
    y = rng.standard_normal(n ** 3) + 1j * rng.standard_normal(n ** 3)
    assert abs(np.vdot(y, op.apply(x)) - np.vdot(op.adjoint().apply(y), x)) < 1e-10


def test_invariant_projector_ranks_and_commutation():
    rng = np.random.default_rng(8)
    z = mc.invariant_projector(1, 2, 4)
    assert np.max(np.abs(z.to_dense())) == 0
    p1 = mc.invariant_projector(1, 1, 5)
    d1 = p1.to_dense()
    assert abs(np.trace(d1).real - 1) < 1e-9
    p2 = mc.invariant_projector(2, 2, 4)
    d2 = p2.to_dense()
    assert abs(np.trace(d2).real - 2) < 1e-9
    assert np.max(np.abs(d2 @ d2 - d2)) < 1e-9
    u = mc.haar_unitary(4, rng)
    r = mc.tensor_representation(u, 2, 2)
    vec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    lhs = p2.apply(r.apply(vec))
    rhs = r.apply(p2.apply(vec))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_q_projector_identities():
    q = mc.q_projector(Partition((1,)), Partition((1,)), 4)
    m = q.matrix
    assert abs(np.trace(m) - 15) < 1e-10
    assert np.max(np.abs(m @ m - m)) < 1e-10
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    rng = np.random.default_rng(15)
    u = mc.haar_unitary(4, rng)
    r = mc.tensor_representation(u, 1, 1).to_dense()
    assert np.max(np.abs(m @ r - r @ m)) < 1e-10
    t = m.reshape(4, 4, 4, 4)
    assert np.max(np.abs(np.einsum("abuu->ab", t))) < 1e-12
    assert np.max(np.abs(np.einsum("uuab->ab", t))) < 1e-12


def test_q_projector_trace_other_labels():
    q = mc.q_projector(Partition((2,)), Partition(()), 3)
    assert abs(np.trace(q.matrix) - mc.mixed_dimension(Partition((2,)), Partition(()), 3)) < 1e-9
    q = mc.q_projector(Partition((1,)), Partition(()), 5)
    assert np.max(np.abs(q.matrix - np.eye(5))) < 1e-12


def test_estimate_norm_basics():
    ident = mc.ImplicitTensorOperator.identity(7, 1, 0)
    est = mc.estimate_norm(ident, rng=1)
    assert abs(est.value - 1) < 1e-10
    zero = mc.ImplicitTensorOperator.zero(7, 1, 0)
    assert mc.estimate_norm(zero, rng=1).value == 0


def test_estimate_norm_u_plus_ustar():
    u = mc.haar_unitary(200, np.random.default_rng(123))
    op = mc.ImplicitTensorOperator.from_matrix(u + u.conj().T, 200, 1, 0)
    est = mc.estimate_norm(op, tol=5e-2, max_iter=3000, rng=5)
    assert 1.9 <= est.value <= 2.0 + 1e-9


def test_estimate_norm_never_exceeds_dense_oracle():
    rng = np.random.default_rng(77)
    for n in (20, 60):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = mc.ImplicitTensorOperator.from_matrix(m, n, 1, 0)
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
        n = m.shape[0]
        sigma_max = float(np.linalg.svd(m, compute_uv=False)[0])
        for tol in (1e-2, 5e-2):
            est = mc.estimate_norm(mc.ImplicitTensorOperator.from_matrix(m, n, 1, 0),
                                   tol=tol, rng=9)
            assert est.value <= sigma_max + 1e-9
            assert est.value >= (1 - tol) * sigma_max
            assert est.residual <= tol * tol


def test_estimate_norm_raises_with_best_estimate():
    rng = np.random.default_rng(43)
    m = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    sigma_max = float(np.linalg.svd(m, compute_uv=False)[0])
    with pytest.raises(ConvergenceError) as info:
        mc.estimate_norm(mc.ImplicitTensorOperator.from_matrix(m, 60, 1, 0),
                         max_iter=2, rng=3)
    best = info.value.best_estimate
    assert best.iterations == 2
    assert 0 < best.value <= sigma_max + 1e-9


def test_polynomial_operator_matches_dense_sum():
    u = random_unitary(5, 44)
    v = random_unitary(5, 45)
    terms = [(fg.parse_word("ab"), 1.5), (fg.parse_word("B"), -0.5j)]
    op = mc.polynomial_operator(terms, (u, v), 1, 1)
    dense = sum(c * np.kron(m, m.conj()) for c, m in ((1.5, u @ v), (-0.5j, v.conj().T)))
    want = dense @ (np.eye(25) - mc.invariant_projector(1, 1, 5).to_dense())
    assert np.max(np.abs(op.to_dense() - want)) < 1e-12
    assert np.max(np.abs(op.adjoint().to_dense() - want.conj().T)) < 1e-12


def test_mc_sample_count_needs_two():
    for samples in (0, 1):
        with pytest.raises(ValidationError):
            mc.mc_expect(Partition((1,)), Partition(()), COMM, 3, samples, 1)
        with pytest.raises(ValidationError):
            mc.mc_trace_moment([(COMM, False)], 3, samples, 1)


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


def test_concentration_probe_shape():
    terms = [(fg.parse_word(s), 1.0) for s in ("a", "A", "b", "B")]
    report = mc.concentration_probe(terms, 1, 0, [30, 100], trials=8, seed=21)
    assert report["std_decreases"]
    for row in report["rows"]:
        assert row["flagged_fraction"] <= 0.05 or row["std"] < row["lipschitz_scale"]
        assert math.isfinite(row["std"])
