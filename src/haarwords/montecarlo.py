"""Haar sampling on U(n) and SU(n), matrix-free mixed tensor
representations, Weyl characters and dimensions, invariant projectors,
operator-norm estimation, and the Monte Carlo word-integral experiments.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import perms, weingarten
from .errors import (ConvergenceError, ResourceCapError, TheoremViolationError,
                     UnsupportedSizeError, ValidationError)
from .freegroup import evaluate_word
from .symgroup import dual_jacobi_trudi

DENSE_PROJECTOR_CAP = 10_000
APPLY_VECTOR_CAP = 10_000_000
DIM_LOWER_BOUND_CONSTANT = math.log(2) / 8
STRONGCONV_TOL = 5e-2            # Ritz tolerance of each `strongconv` norm estimate
CONCENTRATION_FLAG_SCALES = 10.0  # a norm this many Lipschitz scales off its mean is flagged


def substream(seed, *path):
    """A named, reproducible random substream of a 64-bit root seed."""
    key = tuple(p if isinstance(p, int) else zlib.crc32(str(p).encode()) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _as_rng(rng_or_seed):
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)


HAAR_CHUNK = 1024     # tuples per Monte Carlo batch; bounds memory at any sample count


def sample_tuple(r, n, rng, group="U", batch=None):
    """A tuple of r independent Haar matrices on U(n) or SU(n), or with
    `batch` = S that many independent r-tuples, each entry of the tuple
    then being one generator's (S, n, n) stack.

    U(n): complex Ginibre, QR, then the phase gauge fixed so R has positive
    real diagonal (this removes the QR ambiguity and makes the law exactly
    Haar, not just approximately; Mezzadri 2007).  SU(n): one fixed column
    times the conjugate determinant.  For fixed W in SU(n), WU gets the same
    column correction as U because det(WU) = det(U), so left translation
    invariance is inherited from U(n); uniqueness of Haar measure then gives
    exact SU(n) distribution.

    The Gaussians are drawn in the order tuple, generator, real part,
    imaginary part, so a batch of S consumes the stream exactly as S
    unbatched calls do.  Every matrix must pass the unitarity residual bound
    1e-12 and, on SU(n), the determinant bound 1e-10.
    """
    if group not in ("U", "SU"):
        raise ValidationError(f"group must be 'U' or 'SU', got {group!r}")
    if n < 1:
        raise ValidationError("dimension must be >= 1")
    if group == "SU" and n < 2:
        raise ValidationError("SU(n) sampling needs n >= 2")
    rng = _as_rng(rng)
    shape = (r,) if batch is None else (batch, r)
    g = rng.standard_normal(shape + (2, n, n))
    u, rr = np.linalg.qr((g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2))
    d = rr.diagonal(0, -2, -1)
    u *= (d / np.abs(d))[..., None, :]
    if group == "SU":
        det = np.linalg.det(u)
        # hypot rounds as abs() of one complex scalar does; np.abs of an array may not
        u[..., :, 0] *= (det.conjugate() / np.hypot(det.real, det.imag))[..., None]
    _check_draws(u, group)
    return tuple(u.swapaxes(0, -3))


def _check_draws(u, group):
    """Every matrix of the (..., n, n) stack is unitary to 1e-12 and, on
    SU(n), has determinant 1 to 1e-10."""
    if unitarity_residual(u) >= 1e-12:
        raise ValidationError("matrix fails the unitarity residual bound")
    if group == "SU" and np.any(np.abs(np.linalg.det(u) - 1) >= 1e-10):
        raise ValidationError("matrix fails the SU determinant bound")


def _haar_chunks(samples, r, n, rng, group):
    """`samples` Haar r-tuples as `sample_tuple` batches of at most
    HAAR_CHUNK tuples."""
    rng = _as_rng(rng)
    for start in range(0, samples, HAAR_CHUNK):
        yield sample_tuple(r, n, rng, group=group, batch=min(HAAR_CHUNK, samples - start))


def haar_unitary(n, rng):
    """One Haar-distributed U(n) matrix (see `sample_tuple`)."""
    return sample_tuple(1, n, rng)[0]


def haar_special_unitary(n, rng):
    """One Haar-distributed SU(n) matrix (see `sample_tuple`)."""
    return sample_tuple(1, n, rng, group="SU")[0]


def unitarity_residual(u):
    """max |u* u - 1| over a matrix, or over every matrix of a (..., n, n)
    stack."""
    gram = u.swapaxes(-1, -2).conj() @ u
    gram -= np.eye(u.shape[-1])
    return float(np.abs(gram).max())


# ---------------------------------------------------------------------------
# Highest weights, Weyl dimension formula, and character evaluation


class HighestWeight:
    """Weakly decreasing integer n-tuple modulo (1,...,1), stored as the
    minimal-l1 representative (translate by the lower median)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(x) for x in entries)
        if any(entries[i] < entries[i + 1] for i in range(len(entries) - 1)):
            raise ValidationError("weight entries must be weakly decreasing")
        n = len(entries)
        if n:
            shift = sorted(entries)[(n - 1) // 2]
            entries = tuple(x - shift for x in entries)
        self.entries = entries

    @property
    def n(self):
        return len(self.entries)

    def l1(self):
        return sum(abs(x) for x in self.entries)

    def __eq__(self, other):
        return isinstance(other, HighestWeight) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HighestWeight({list(self.entries)})"


def mixed_weight(lam, mu, n):
    """The dominant weight (lambda, 0, ..., 0, -reversed(mu)) in length n."""
    if lam.length + mu.length > n:
        raise ValidationError(
            f"n={n} too small for lambda of length {lam.length} and mu of length {mu.length}")
    pad = n - lam.length - mu.length
    return tuple(lam.parts) + (0,) * pad + tuple(-p for p in reversed(mu.parts))


def weyl_dim(weight, n=None):
    """Irreducible dimension from the Weyl dimension formula, exact integer:
    prod_{i<j} (j - i + L_i - L_j) / (j - i)."""
    entries = weight.entries if isinstance(weight, HighestWeight) else tuple(weight)
    if n is None:
        n = len(entries)
    if len(entries) != n:
        raise ValidationError("weight length must equal n")
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (j - i) + entries[i] - entries[j]
            den *= j - i
    if num % den:
        raise TheoremViolationError(
            f"Weyl dimension {num}/{den} is not an integer", details={"weight": list(entries)})
    return num // den


def mixed_dimension(lam, mu, n):
    """Dimension of the U(n) irrep with stable-character label (lambda, mu)."""
    return weyl_dim(mixed_weight(lam, mu, n), n)


def _log_int(x):
    """Natural log of a (possibly huge) positive integer."""
    if x <= 0:
        raise ValidationError("log of nonpositive integer")
    bits = x.bit_length()
    if bits <= 900:
        return math.log(x)
    shift = bits - 900
    return math.log(x >> shift) + shift * math.log(2)


def dim_bounds_check(weight, n):
    """Check exp(c min(|L|_1, n)) <= dim <= exp(|L|_1 log n) with
    c = log(2)/8; returns the three quantities and raises on violation."""
    hw = weight if isinstance(weight, HighestWeight) else HighestWeight(weight)
    if hw.n != n:
        raise ValidationError("weight length must equal n")
    dim = weyl_dim(hw, n)
    l1 = hw.l1()
    log_dim = _log_int(dim)
    log_lower = DIM_LOWER_BOUND_CONSTANT * min(l1, n)
    log_upper = l1 * math.log(n)
    record = {
        "n": n,
        "weight": list(hw.entries),
        "l1": l1,
        "dim": dim,
        "log_dim": log_dim,
        "log_lower": log_lower,
        "log_upper": log_upper,
        "passed": log_lower <= log_dim + 1e-12 and log_dim <= log_upper + 1e-12,
    }
    if not record["passed"]:
        raise TheoremViolationError(
            f"dimension bounds failed for weight {hw.entries} at n={n}", details=record)
    return record


def weyl_character_eval(lam, mu, eig):
    """Stable character s_{lambda,mu} evaluated on a spectrum of unit
    complex numbers, or on each row of a (..., n) stack of spectra; at the
    identity this is the irrep dimension.  It is the polynomial
    e_n^c det[e_{D_ij}] of `symgroup.dual_jacobi_trudi` in the elementary
    symmetric values e_j of each spectrum, so coinciding eigenvalues need
    no special case.  A single spectrum is a stack of one row, and gets
    bit for bit the value its row gets in any stack."""
    eig = np.asarray(eig, dtype=complex)
    n = eig.shape[-1]
    if n < lam.length + mu.length:
        raise ValidationError(
            f"need n >= {lam.length + mu.length} eigenvalues, got {n}")
    c, rows = dual_jacobi_trudi(mixed_weight(lam, mu, n))
    spectra = eig.reshape(-1, n)
    # e[:, j] = e_j for j <= n; column n + 1 is the zero read for every
    # index outside 0..n
    e = np.zeros((len(spectra), n + 2), dtype=complex)
    e[:, 0] = 1
    for j in range(n):
        e[:, 1:j + 2] = e[:, 1:j + 2] + spectra[:, j:j + 1] * e[:, :j + 1]
    index = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    index[(index < 0) | (index > n)] = n + 1
    vals = _unfused_product(np.linalg.det(e[:, index]), e[:, n] ** c)
    return vals.reshape(eig.shape[:-1])[()]


# ---------------------------------------------------------------------------
# Matrix-free operators on (C^n)^{(x)k} (x) dual^{(x)l}


class ImplicitTensorOperator:
    """Linear operator given by apply/adjoint callables on flat complex
    vectors of length `dim`."""

    def __init__(self, dim, apply_fn, adjoint_fn):
        self.dim = dim
        self._apply = apply_fn
        self._adjoint = adjoint_fn

    def apply(self, vec):
        return self._apply(vec)

    def adjoint(self):
        return ImplicitTensorOperator(self.dim, self._adjoint, self._apply)

    @classmethod
    def identity(cls, dim):
        return cls(dim, lambda v: v.copy(), lambda v: v.copy())

    @classmethod
    def zero(cls, dim):
        return cls(dim, lambda v: np.zeros_like(v), lambda v: np.zeros_like(v))

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat, dtype=complex)
        mat_h = mat.conj().T
        op = cls(len(mat), lambda v: mat @ v, lambda v: mat_h @ v)
        op.matrix = mat
        return op

    def to_dense(self):
        d = self.dim
        if d > 4096:
            raise ResourceCapError(f"dense realization of dimension {d} refused")
        out = np.zeros((d, d), dtype=complex)
        basis = np.zeros(d, dtype=complex)
        for j in range(d):
            basis[:] = 0
            basis[j] = 1
            out[:, j] = self._apply(basis)
        return out


def tensor_representation(u, k, l):
    """pi0_{k,l}(u) = u^{(x)k} (x) conj(u)^{(x)l} as a matrix-free operator.

    Each leg is one gemm on the leading axis of the flat vector:
    t.reshape(n, -1).T @ g contracts that axis with g and puts the new leg
    last, so after the k + l products the axes are back in order.  The
    transpose is a BLAS flag, so no leg copies the vector.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]

    def legs(upper, lower):
        def apply(vec):
            for g in (upper,) * k + (lower,) * l:
                vec = (vec.reshape(n, -1).T @ g).reshape(-1)
            return vec
        return apply

    # (u t)_j = sum_i t_i u_ji, so a leg of u is a product with u.T
    return ImplicitTensorOperator(n ** (k + l), legs(u.T, u.conj().T), legs(u.conj(), u))


def word_representation(w, unitaries, k, l):
    """pi0_{k,l}(w(u_1, ..., u_r))."""
    return tensor_representation(evaluate_word(w, unitaries), k, l)


@lru_cache(maxsize=None)
def _perm_gram_inverse(kfact_perms, n):
    """Inverse of the Gram matrix n^#cycles(s t^-1) of the permutation
    tensors, which is by definition the Weingarten matrix Wg(s t^-1)."""
    k = len(kfact_perms[0])
    if n < k:
        raise ValidationError(
            f"need n >= k = {k}: the permutation tensors are dependent below that")
    nf = Fraction(n)
    return np.array([[float(weingarten.wg(k, perms.compose(s, perms.inverse(t)))(nf))
                      for t in kfact_perms] for s in kfact_perms])


def invariant_projector(k, l, n):
    """Orthogonal projector onto U(n)-invariant vectors of the mixed tensor
    power; the zero operator unless k = l, in which case the invariants are
    spanned by the k! permutation tensors (rank k! for n >= k).

    The permutation tensor v_sigma has components delta(A = B o sigma), so
    it is the indicator of n^k flat indices.  Only those indices are
    stored: the overlaps <v_sigma, x> are gathers, and the projection
    sum_{s,t} v_s Wg(s t^-1) <v_t, x> adds each weight back on its support.
    """
    if k != l:
        return ImplicitTensorOperator.zero(n ** (k + l))
    if k == 0:
        return ImplicitTensorOperator.identity(1)
    if k > 4:
        raise UnsupportedSizeError("invariant projector supported for k <= 4")
    sigmas = perms.all_perms(k)
    ginv = _perm_gram_inverse(sigmas, n)
    grids = np.indices((n,) * k).reshape(k, -1)
    support = np.stack([np.ravel_multi_index(tuple(grids[list(s)]) + tuple(grids), (n,) * (2 * k))
                        for s in sigmas])

    def apply_fn(vec):
        weights = ginv @ vec[support].sum(axis=1)
        out = np.zeros_like(vec, dtype=weights.dtype)
        # a support lists each index once, so the buffered += drops no add
        for idx, w in zip(support, weights):
            out[idx] += w
        return out

    return ImplicitTensorOperator(n ** (2 * k), apply_fn, apply_fn)


def q_projector(lam, mu, n):
    """The mixed-irrep projector: dimension times the tensor action of the
    Weingarten-based group-algebra element, realized densely."""
    k, l = lam.size, mu.size
    if n < k + l:
        raise ValidationError(f"need n >= k+l = {k + l}")
    dim = n ** (k + l)
    if dim > DENSE_PROJECTOR_CAP:
        raise UnsupportedSizeError(f"dense dimension {dim} exceeds cap {DENSE_PROJECTOR_CAP}")
    z = weingarten.z_element(lam, mu)
    coeffs = z.eval_at(n)
    d_mixed = mixed_dimension(lam, mu, n)
    mat = np.zeros((dim, dim), dtype=complex)
    m = k + l
    grids = np.indices((n,) * m).reshape(m, -1)   # X = C (+) B, free
    weights_row = n ** np.arange(k + l - 1, -1, -1)
    for pi, c in coeffs.items():
        upper_out = [grids[pi[t]] for t in range(k)]            # A
        lower_in = [grids[pi[k + t]] for t in range(l)]         # D
        row_parts = upper_out + [grids[k + t] for t in range(l)]    # (A, B)
        col_parts = [grids[t] for t in range(k)] + lower_in         # (C, D)
        rows = sum(w * p for w, p in zip(weights_row, row_parts))
        cols = sum(w * p for w, p in zip(weights_row, col_parts))
        np.add.at(mat, (rows, cols), float(c) * d_mixed)
    return ImplicitTensorOperator.from_matrix(mat)


# ---------------------------------------------------------------------------
# Norm estimation


@dataclass
class NormEstimate:
    value: float
    residual: float
    iterations: int

    def __float__(self):
        return self.value


def estimate_norm(op, tol=1e-2, max_iter=500, rng=0):
    """Largest singular value of op: three-term Lanczos on op* op from one
    random start vector, without reorthogonalisation.

    The top Ritz value theta of T_j is a Rayleigh quotient of op* op and, by
    Paige's analysis, stays below its top eigenvalue up to rounding even
    after the Lanczos vectors lose orthogonality, so sqrt(theta) is a lower
    bound for the norm.  Stops when the Ritz residual beta_j |s_j| is at
    most tol^2 theta (beta_j = 0, an invariant subspace, passes at once);
    `residual` is beta_j |s_j| / theta.  After max_iter steps a
    ConvergenceError carries the best estimate; each step solves T_j densely,
    so max_iter also bounds that O(j^3) cost.
    """
    if op.dim > APPLY_VECTOR_CAP:
        raise ResourceCapError(f"vector dimension {op.dim} exceeds apply cap")
    rng = _as_rng(rng)
    adjoint = op.adjoint()
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    v /= np.linalg.norm(v)
    v_prev = np.zeros_like(v)
    alphas, betas = [], []
    beta = 0.0
    for it in range(1, max_iter + 1):
        w = adjoint.apply(op.apply(v))
        alpha = float(np.real(np.vdot(v, w)))
        w -= alpha * v + beta * v_prev
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = max(float(evals[-1]), 0.0)
        ritz_residual = beta * abs(float(evecs[-1, -1]))
        result = NormEstimate(math.sqrt(theta), ritz_residual / theta if theta > 0 else 0.0, it)
        if ritz_residual <= tol * tol * theta:
            return result
        betas.append(beta)
        v_prev, v = v, w / beta
    raise ConvergenceError(
        f"Lanczos Ritz residual {result.residual:.3g} above {tol * tol:.3g} "
        f"after {max_iter} steps", best_estimate=result)


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass
class MCResult:
    mean: complex
    se: float
    samples: int
    n: int

    def within(self, target, k_se=4.0):
        return abs(self.mean - target) <= k_se * max(self.se, 1e-300)


def _unfused_product(a, b):
    """a * b for complex arrays, each entry rounded as a scalar complex
    product is: numpy's vectorised complex multiply may fuse multiply-adds,
    which moves a seeded mean in its last bits."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _mc_result(vals, n):
    mean = complex(vals.mean())
    se = float(np.sqrt(np.mean(np.abs(vals - mean) ** 2) / len(vals)))
    return MCResult(mean, se, len(vals), n)


def mc_expect(lam, mu, w, n, samples, rng, group="U"):
    """Monte Carlo estimate of the expected stable character of the word
    map, averaging character evaluations on the spectrum of w(U)."""
    if n < lam.length + mu.length:
        raise ValidationError("n too small for this character")
    if samples < 2:
        raise ValidationError(f"a standard error needs at least 2 samples, got {samples}")
    vals = []
    for us in _haar_chunks(samples, max(w.rank, 1), n, rng, group):
        eig = np.linalg.eigvals(evaluate_word(w, us))
        eig /= np.abs(eig)
        vals.append(weyl_character_eval(lam, mu, eig))
    return _mc_result(np.concatenate(vals), n)


def mc_trace_moment(factors, n, samples, rng):
    """Monte Carlo estimate on U(n) of E prod_j tr(w_j(U)) for a trace
    monomial given as its sequence of words w_j."""
    if samples < 2:
        raise ValidationError(f"a standard error needs at least 2 samples, got {samples}")
    r = max((w.rank for w in factors), default=1)
    vals = []
    for us in _haar_chunks(samples, max(r, 1), n, rng, "U"):
        prod = np.ones(len(us[0]), dtype=complex)
        for w in factors:
            tr = np.trace(evaluate_word(w, us), axis1=-2, axis2=-1)
            prod = _unfused_product(prod, tr)
        vals.append(prod)
    return _mc_result(np.concatenate(vals), n)


@dataclass
class StrongConvergenceReport:
    n: int
    k: int
    l: int
    r: int
    samples: int
    seed: int
    norm_estimates: list
    reference: float
    deviation: float
    residuals: list = field(default_factory=list)

    def to_json(self):
        return {
            "n": self.n, "k": self.k, "l": self.l, "r": self.r,
            "samples": self.samples, "seed": self.seed,
            "norm_estimates": self.norm_estimates,
            "reference": self.reference,
            "deviation": self.deviation,
            "residuals": self.residuals,
            "type": "float",
        }


def polynomial_operator(terms, unitaries, k, l):
    """sum_w coeff * pi_{k,l}(w(U)), with the invariant block projected out
    when k = l (the representation on the orthocomplement)."""
    n = unitaries[0].shape[0]
    reps = [(complex(coeff), word_representation(w, unitaries, k, l)) for w, coeff in terms]
    project = invariant_projector(k, l, n)._apply if k == l and k > 0 else None

    def apply_fn(vec):
        if project is not None:
            vec = vec - project(vec)
        out = np.zeros_like(vec)
        for c, rep in reps:
            out += c * rep._apply(vec)
        return out

    def adjoint_fn(vec):
        out = np.zeros_like(vec)
        for c, rep in reps:
            out += c.conjugate() * rep._adjoint(vec)
        return out - project(out) if project is not None else out

    return ImplicitTensorOperator(n ** (k + l), apply_fn, adjoint_fn)


def strong_convergence_experiment(r, n, k, l, terms, samples, seed, reference=None):
    """Sample Haar tuples, build the word-polynomial operator in the (k,l)
    tensor representation with invariants removed, and estimate its norm
    against a reduced-free-group reference value."""
    if r < 1:
        raise ValidationError(f"rank r must be >= 1, got r={r}")
    for w, _ in terms:
        if w.rank > r:
            raise ValidationError(f"term {w} needs rank {w.rank}, above r={r}")
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got n={n}")
    if k < 0 or l < 0:
        raise ValidationError(f"tensor degrees must be >= 0, got k={k}, l={l}")
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    if n ** (k + l) > APPLY_VECTOR_CAP:
        raise ResourceCapError("tensor dimension exceeds apply cap")
    if reference is None:
        from . import rwalk
        reference = rwalk.reduced_norm_lower_bound(terms, r)
    estimates = []
    residuals = []
    for s in range(samples):
        if k == 0 and l == 0:
            estimates.append(abs(sum(c for _, c in terms)))
            residuals.append(0.0)
            continue
        us = sample_tuple(r, n, substream(seed, "sample", s))
        op = polynomial_operator(terms, us, k, l)
        # "restart" names the start-vector substream; renaming it would
        # change every seeded estimate
        est = estimate_norm(op, tol=STRONGCONV_TOL, rng=substream(seed, "restart", s))
        estimates.append(est.value)
        residuals.append(est.residual)
    mean_norm = float(np.mean(estimates))
    return StrongConvergenceReport(
        n=n, k=k, l=l, r=r, samples=samples, seed=seed,
        norm_estimates=[float(e) for e in estimates],
        reference=float(reference),
        deviation=float(mean_norm - reference),
        residuals=residuals)


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
            us = sample_tuple(r, n, substream(seed, "probe", n, t))
            op = polynomial_operator(terms, us, k, l)
            norms.append(estimate_norm(op, rng=substream(seed, "probe-restart", n, t)).value)
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
