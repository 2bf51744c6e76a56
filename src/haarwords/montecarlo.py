"""Haar sampling on U(n) and SU(n), matrix-free mixed tensor
representations, Weyl characters and dimensions, the projector onto
invariant tensors, operator-norm estimation, and the Monte Carlo
word-integral experiments.
"""

from __future__ import annotations

import itertools
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
from .symgroup import dual_jacobi_trudi, mixed_weight

APPLY_VECTOR_CAP = 10_000_000
DIM_LOWER_BOUND_CONSTANT = math.log(2) / 8
STRONGCONV_TOL = 5e-2  # Ritz tolerance of each `strongconv` norm estimate


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
    """Every matrix of the (..., n, n) stack is unitary, max |u* u - 1| below
    1e-12, and, on SU(n), has determinant 1 to 1e-10."""
    gram = u.swapaxes(-1, -2).conj() @ u
    gram -= np.eye(u.shape[-1])
    if np.abs(gram).max() >= 1e-12:
        raise ValidationError("matrix fails the unitarity residual bound")
    if group == "SU" and np.any(np.abs(np.linalg.det(u) - 1) >= 1e-10):
        raise ValidationError("matrix fails the SU determinant bound")


def _haar_chunks(samples, r, n, rng, group):
    """`samples` Haar r-tuples as `sample_tuple` batches of at most
    HAAR_CHUNK tuples."""
    rng = _as_rng(rng)
    for start in range(0, samples, HAAR_CHUNK):
        yield sample_tuple(r, n, rng, group=group, batch=min(HAAR_CHUNK, samples - start))


# ---------------------------------------------------------------------------
# Highest weights, Weyl dimension formula, and character evaluation


def _runs(weight):
    """[(value, length)] of the runs of equal entries of a weight, which
    must be weakly decreasing: the first ascent raises."""
    runs = []
    start = 0
    for value, group in itertools.groupby(weight):
        if runs and value > runs[-1][0]:
            raise ValidationError(
                f"weight must be weakly decreasing: entry {start} = {value} exceeds "
                f"entry {start - 1} = {runs[-1][0]}")
        length = len(list(group))
        runs.append((value, length))
        start += length
    return runs


def weyl_dim(weight):
    """Irreducible dimension from the Weyl dimension formula, exact integer:
    prod_{i<j} (j - i + L_i - L_j) / (j - i) over the n entries of a weakly
    decreasing weight.

    The product is taken over runs of equal entries.  A pair inside a run
    contributes 1.  For runs a before b with c = L_a - L_b, fix a position
    of the shorter run; its distances d to the positions of the longer run
    are D1 <= d <= D2 = D1 + (longer - 1), and the factors telescope:
    prod (d + c)/d = perm(D2 + c, c) / perm(D1 + c - 1, c).  So a weight
    with few runs, such as (lambda, 0, ..., 0, -mu^rev), costs a few perm
    calls of c factors each per pair of runs, whatever n is.
    """
    runs = _runs(weight)
    ends = list(itertools.accumulate(length for _, length in runs))
    num = 1
    den = 1
    for a, (va, ma) in enumerate(runs):
        for b in range(a + 1, len(runs)):
            vb, mb = runs[b]
            c = va - vb
            gap = ends[b - 1] - ends[a]   # positions strictly between the runs
            shorter, longer = sorted((ma, mb))
            for d1 in range(gap + 1, gap + 1 + shorter):
                d2 = d1 + longer - 1
                num *= math.perm(d2 + c, c)
                den *= math.perm(d1 + c - 1, c)
    if num % den:
        raise TheoremViolationError(
            f"Weyl dimension {num}/{den} is not an integer", details={"weight": list(weight)})
    return num // den


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
    c = log(2)/8 for a dominant weight of length n; returns the three
    quantities and raises on violation.  A weight counts up to adding
    (1, ..., 1), so |L|_1 and the record's `weight` are those of the
    minimal-l1 representative: the weight less its lower median."""
    if len(weight) != n:
        raise ValidationError("weight length must equal n")
    runs = _runs(weight)
    dim = weyl_dim(weight)
    shift = weight[n - 1 - (n - 1) // 2]   # the lower median of a decreasing weight
    l1 = sum(length * abs(value - shift) for value, length in runs)
    entries = list(itertools.chain.from_iterable(
        itertools.repeat(value - shift, length) for value, length in runs))
    log_dim = _log_int(dim)
    log_lower = DIM_LOWER_BOUND_CONSTANT * min(l1, n)
    log_upper = l1 * math.log(n)
    record = {
        "n": n,
        "weight": entries,
        "l1": l1,
        "dim": dim,
        "log_dim": log_dim,
        "log_lower": log_lower,
        "log_upper": log_upper,
        "passed": log_lower <= log_dim + 1e-12 and log_dim <= log_upper + 1e-12,
    }
    if not record["passed"]:
        raise TheoremViolationError(
            f"dimension bounds failed for weight {tuple(entries)} at n={n}", details=record)
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


def invariant_projector(k, n):
    """Orthogonal projector onto the U(n)-invariant vectors of the mixed
    tensor power (C^n)^{(x)k} (x) dual^{(x)k}, k >= 1: the span of the k!
    permutation tensors (rank k! for n >= k).  With unequal degrees there
    are no invariants, so `polynomial_operator` projects only when k = l.

    The permutation tensor v_sigma has components delta(A = B o sigma), so
    it is the indicator of n^k flat indices.  Only those indices are
    stored: the overlaps <v_sigma, x> are gathers, and the projection
    sum_{s,t} v_s Wg(s t^-1) <v_t, x> adds each weight back on its support.
    """
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
    reps = [(complex(coeff), tensor_representation(evaluate_word(w, unitaries), k, l))
            for w, coeff in terms]
    project = invariant_projector(k, n)._apply if k == l and k > 0 else None

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


def check_experiment_inputs(r, n, k, l, terms, samples):
    """Raise on the inputs `strong_convergence_experiment` refuses, so a
    caller can check them before it computes the reference."""
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


def strong_convergence_experiment(r, n, k, l, terms, samples, seed, reference):
    """Sample Haar tuples, build the word-polynomial operator in the (k,l)
    tensor representation with invariants removed, and estimate its norm
    against a reduced-free-group reference value."""
    check_experiment_inputs(r, n, k, l, terms, samples)
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
