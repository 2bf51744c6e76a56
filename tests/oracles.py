"""Reference implementations that only the tests call, shared by more than
one test file; pytest does not collect this module.

- Cyclic reduction and the KMP proper-power test on Words, the second
  route to `freegroup.proper_power_mask`.
- The dense group-algebra layer: exact elements of Q(n)[S_m], the
  relative transposition norm on S_{k+l}, the central projections and
  the Weingarten element z whose tensor action, times the mixed-irrep
  dimension, is the projector onto one copy of V_{lambda,mu}
  (`q_projector`, built as a dense matrix).
- The polynomial dimension s_lambda(1) of U(n) as a rational function,
  the Weyl dimension as the product over all pairs, the hook-length
  dimension of an S_k irreducible, and the valuation at infinity of a
  rational function.
- The dense matrix of a matrix-free operator.
- The Markov-brothers and epsilon-net checks of the polynomial method, on
  float coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from haarwords import perms
from haarwords.bounds import GRID_SLACK
from haarwords.errors import (ResourceCapError, TheoremViolationError,
                              UnsupportedSizeError, ValidationError)
from haarwords.freegroup import Word
from haarwords.montecarlo import weyl_dim
from haarwords.ratfunc import Polynomial, RationalFunction
from haarwords.symgroup import Partition, char_table, mixed_weight
from haarwords.weingarten import common_denominator, lifted_wg

Z_DEGREE_CAP = 6
DENSE_PROJECTOR_CAP = 10_000


# ---------------------------------------------------------------------------
# Proper powers


@dataclass(frozen=True)
class CyclicForm:
    """w = conjugator * core * conjugator^-1 with core cyclically reduced."""

    core: Word
    conjugator: Word

    def recompose(self):
        return self.conjugator * self.core * self.conjugator.inverse()


def cyclic_reduce(w):
    """Strip matching end pairs until the core is cyclically reduced."""
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return CyclicForm(Word(letters[lo:hi], w.rank), Word(letters[:lo], w.rank))


def is_proper_power(w):
    """Return (root, exponent) with exponent >= 2 maximal and root^exponent == w,
    or None.  The identity is by convention not a proper power."""
    form = cyclic_reduce(w)
    core = form.core.letters
    m = len(core)
    if m == 0:
        return None
    # Smallest period of the cyclically reduced core via the KMP failure
    # function; a proper power exists iff the period properly divides m.
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and core[i] != core[k]:
            k = fail[k - 1]
        if core[i] == core[k]:
            k += 1
        fail[i] = k
    period = m - fail[m - 1]
    if period == m or m % period != 0:
        return None
    exponent = m // period
    root = form.conjugator * Word(core[:period], w.rank) * form.conjugator.inverse()
    return root, exponent


# ---------------------------------------------------------------------------
# Permutations


@lru_cache(maxsize=None)
def transpositions(m):
    return tuple(
        tuple(j if k == i else i if k == j else k for k in range(m))
        for i in range(m) for j in range(i + 1, m)
    )


def embed(p, m, offset):
    """Embed a permutation of S_d into S_m acting on [offset, offset+d)."""
    d = len(p)
    if offset + d > m:
        raise ValueError("embedding does not fit")
    img = list(range(m))
    for i in range(d):
        img[offset + i] = offset + p[i]
    return tuple(img)


# ---------------------------------------------------------------------------
# The dense group-algebra layer


@lru_cache(maxsize=None)
def _norm_table(k, ell):
    m = k + ell
    if m > Z_DEGREE_CAP:
        raise UnsupportedSizeError(f"k+l={m} exceeds cap {Z_DEGREE_CAP}")
    subgroup = _young_product_perms((k,), (ell,), k, ell)
    dist = {sigma: 0 for sigma in subgroup}
    frontier = list(subgroup)
    ts = transpositions(m)
    level = 0
    while frontier:
        level += 1
        nxt = []
        for sigma in frontier:
            for t in ts:
                tau = perms.compose(sigma, t)
                if tau not in dist:
                    dist[tau] = level
                    nxt.append(tau)
        frontier = nxt
    return dist


def norm_kl(sigma, k, ell):
    """Minimal m with sigma in (S_k x S_l) t_1 ... t_m over transpositions."""
    if len(sigma) != k + ell:
        raise ValidationError(f"permutation degree {len(sigma)} != k+l = {k + ell}")
    return _norm_table(k, ell)[tuple(sigma)]


def _young_product_perms(lam_parts, mu_parts, k, ell):
    """All permutations of the Young subgroup S_lam x S_mu inside S_{k+l},
    with lam blocking the first k points and mu the last l."""
    m = k + ell
    blocks = []
    pos = 0
    for part in lam_parts:
        blocks.append(list(range(pos, pos + part)))
        pos += part
    if pos != k:
        raise ValidationError("lambda does not partition the first k points")
    pos = k
    for part in mu_parts:
        blocks.append(list(range(pos, pos + part)))
        pos += part
    if pos != m:
        raise ValidationError("mu does not partition the last l points")
    out = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        img = list(range(m))
        for block, perm_block in zip(blocks, choice):
            for src, dst in zip(block, perm_block):
                img[src] = dst
        out.append(tuple(img))
    return out


class SymAlgebraElement:
    """Sparse element of the group algebra of S_m with coefficients that
    are exact rational functions of n."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = m
        clean = {}
        for sigma, c in coeffs.items():
            if len(sigma) != m:
                raise ValidationError(f"permutation degree {len(sigma)} != {m}")
            if isinstance(c, (int, Fraction)):
                c = RationalFunction(c)
            if not c.is_zero():
                clean[tuple(sigma)] = c
        self.coeffs = clean

    def coefficient(self, sigma):
        return self.coeffs.get(tuple(sigma), RationalFunction(0))

    def __eq__(self, other):
        return (isinstance(other, SymAlgebraElement)
                and self.m == other.m and self.coeffs == other.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return SymAlgebraElement(self.m, {s: c * other for s, c in self.coeffs.items()})
        if self.m != other.m:
            raise ValidationError("degree mismatch")
        out = {}
        for s1, c1 in self.coeffs.items():
            for s2, c2 in other.coeffs.items():
                key = perms.compose(s1, s2)
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return SymAlgebraElement(self.m, out)

    __rmul__ = __mul__

    def eval_at(self, n):
        return {s: c(Fraction(n)) for s, c in self.coeffs.items()}

    def __repr__(self):
        return f"SymAlgebraElement(S_{self.m}, {len(self.coeffs)} terms)"


def _const_convolve(a, b, m):
    out = {}
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            key = perms.compose(s1, s2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {s: c for s, c in out.items() if c != 0}


def central_projection(lam, m=None, offset=0):
    """p_lambda = (d/k!) sum chi(sigma) sigma, embedded into S_m at offset.
    Returned as a plain Fraction-coefficient dict."""
    k = lam.size
    if m is None:
        m = k
    table = char_table(k)
    d = table.dim(lam)
    scale = Fraction(d, math.factorial(k))
    out = {}
    for sigma in perms.all_perms(k):
        chi = table.chi(lam, Partition(perms.cycle_type(sigma)))
        if chi:
            out[embed(sigma, m, offset)] = scale * chi
    return out


def z_element(lam, mu):
    """The group-algebra element whose image under the tensor action gives,
    after scaling by the mixed-irrep dimension, the orthogonal projector
    onto an invariant copy of that irrep.

    z = ([S_k:S_lam][S_l:S_mu] / (d_lam d_mu)) *
        p_{lam(x)mu} (sum over the Young subgroup) p_{lam(x)mu} * Wg_{k+l}
    """
    k, ell = lam.size, mu.size
    m = k + ell
    if m > Z_DEGREE_CAP:
        raise UnsupportedSizeError(f"k+l={m} exceeds cap {Z_DEGREE_CAP}")
    if m == 0:
        raise ValidationError("need at least one box overall")

    p = central_projection(lam, m, 0)
    if ell:
        p = _const_convolve(p, central_projection(mu, m, k), m)
    young = {sigma: Fraction(1) for sigma in _young_product_perms(lam.parts, mu.parts, k, ell)}

    const = _const_convolve(_const_convolve(p, young, m), p, m)
    d_lam = hook_dimension(lam) if k else 1
    d_mu = hook_dimension(mu) if ell else 1
    index = Fraction(math.factorial(k), math.prod(math.factorial(x) for x in lam.parts))
    index *= Fraction(math.factorial(ell), math.prod(math.factorial(x) for x in mu.parts))
    scale = index / (d_lam * d_mu)
    const = {s: scale * c for s, c in const.items()}

    # Multiply by the central Weingarten element, grouping by the cycle
    # type of sigma^-1 pi; each target permutation sums the lifted
    # numerators over D_m and normalises once.
    den = common_denominator(m)
    out = {}
    for pi in perms.all_perms(m):
        by_type = {}
        for sigma, c in const.items():
            ct = perms.cycle_type(perms.compose(perms.inverse(sigma), pi))
            by_type[ct] = by_type.get(ct, Fraction(0)) + c
        num = Polynomial()
        for ct, c in by_type.items():
            if c != 0:
                num = num + lifted_wg(m, ct) * c
        if not num.is_zero():
            out[pi] = RationalFunction(num, den)
    return SymAlgebraElement(m, out)


def q_projector(lam, mu, n):
    """The mixed-irrep projector as a dense matrix: dimension times the
    tensor action of the Weingarten-based group-algebra element."""
    k, l = lam.size, mu.size
    if n < k + l:
        raise ValidationError(f"need n >= k+l = {k + l}")
    dim = n ** (k + l)
    if dim > DENSE_PROJECTOR_CAP:
        raise UnsupportedSizeError(f"dense dimension {dim} exceeds cap {DENSE_PROJECTOR_CAP}")
    z = z_element(lam, mu)
    coeffs = z.eval_at(n)
    d_mixed = weyl_dim(mixed_weight(lam, mu, n))
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
    return mat


def dense(op):
    """The dense matrix of a matrix-free operator, one column per basis
    vector."""
    d = op.dim
    if d > 4096:
        raise ResourceCapError(f"dense realization of dimension {d} refused")
    out = np.zeros((d, d), dtype=complex)
    basis = np.zeros(d, dtype=complex)
    for j in range(d):
        basis[:] = 0
        basis[j] = 1
        out[:, j] = op.apply(basis)
    return out


# ---------------------------------------------------------------------------
# Dimensions


def schur_dim_poly(lam):
    """The polynomial irrep dimension of U(n) as a rational function of n:
    prod over cells (n + content) / prod of hook lengths."""
    num = Polynomial((1,))
    for c in lam.contents():
        num = num * Polynomial((c, 1))
    den = 1
    for h in lam.hooks():
        den *= h
    return RationalFunction(num, Polynomial((den,)))


def weyl_dim_pairwise(weight):
    """The Weyl dimension formula as written: the product of
    (j - i + L_i - L_j) / (j - i) over all n(n-1)/2 pairs i < j, one big
    numerator over one big denominator.  The second route to
    `montecarlo.weyl_dim`, which telescopes over runs of equal entries."""
    n = len(weight)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (j - i) + weight[i] - weight[j]
            den *= j - i
    if num % den:
        raise TheoremViolationError(f"Weyl dimension {num}/{den} is not an integer")
    return num // den


def hook_dimension(lam):
    """Dimension of the S_k irreducible, by the hook length formula: the
    second route to `CharTable.dim`."""
    denom = 1
    for h in lam.hooks():
        denom *= h
    return math.factorial(lam.size) // denom


def valuation_at_infinity(rf):
    """deg(den) - deg(num), the decay exponent of a rational function at
    infinity; inf for zero."""
    if rf.num.is_zero():
        return math.inf
    return rf.den.degree - rf.num.degree


# ---------------------------------------------------------------------------
# Markov-brothers and epsilon-net checks


def chebyshev_grid(a, b, points):
    """Chebyshev extrema mapped to [a, b]; includes both endpoints."""
    j = np.arange(points + 1)
    return (a + b) / 2 + (b - a) / 2 * np.cos(np.pi * j / points)


def _float_poly(coeffs):
    return np.array([float(c) for c in coeffs][::-1])


def markov_factor(D, k):
    """D^2 (D^2 - 1) ... (D^2 - (k-1)^2) / (2k-1)!!, exact."""
    num = 1
    for j in range(k):
        num *= D * D - j * j
    den = 1
    for j in range(1, 2 * k, 2):
        den *= j
    return Fraction(num, den)


def markov_check(coeffs, k, interval=(-1.0, 1.0)):
    """sup |P^{(k)}| against the Markov-brothers bound on [a, b], on the
    64 D + 1 Chebyshev extrema; the ratio must stay below 1 + 1e-9."""
    a, b = interval
    if b <= a:
        raise ValidationError("empty interval")
    pol = np.asarray([float(c) for c in coeffs], dtype=float)
    D = len(pol) - 1
    while D > 0 and pol[D] == 0:
        D -= 1
    if k < 1 or k > D:
        raise ValidationError("need degree >= k >= 1")
    xs = chebyshev_grid(a, b, 64 * D)
    base = _float_poly(pol[:D + 1])
    sup_p = float(np.abs(np.polyval(base, xs)).max())
    deriv = base
    for _ in range(k):
        deriv = np.polyder(deriv)
    lhs = float(np.abs(np.polyval(deriv, xs)).max())
    rhs = float(markov_factor(D, k)) * (2.0 / (b - a)) ** k * sup_p
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    record = {"degree": D, "k": k, "interval": [a, b], "lhs": lhs, "rhs": rhs, "ratio": ratio}
    if ratio > 1 + GRID_SLACK:
        raise TheoremViolationError("Markov-brothers ratio exceeded 1", details=record)
    return record


def epsilon_net_check(coeffs, N):
    """Check sup_{[0,1/N]} |P| <= (1 - D^2/(N+1))^{-1} sup_{n>=N} |P(1/n)|,
    and the derived derivative bound
    sup_{[0,1/(2D^2)]} |P^{(k)}| <= 2^{2k+1} D^{4k} / (2k-1)!! * sup_{n>=D^2} |P(1/n)|.

    The right-hand sups are evaluated at n up to N(N+1) together with the
    limit value P(0); that point set has mesh <= 1/(2N(N+1)) in [0, 1/N],
    which is what the underlying argument needs.
    """
    base = _float_poly([float(c) for c in coeffs])
    D = len(base) - 1
    if N < max(D * D, 1):
        raise ValidationError(f"need N >= D^2 = {D * D}")
    xs = chebyshev_grid(0.0, 1.0 / N, 64 * max(D, 1))
    lhs = float(np.abs(np.polyval(base, xs)).max())
    cap = max(N * (N + 1), 4 * N)
    ns = np.arange(N, cap + 1, dtype=float)
    rhs_sup = float(np.abs(np.polyval(base, 1.0 / ns)).max())
    rhs_sup = max(rhs_sup, abs(float(np.polyval(base, 0.0))))
    factor = 1.0 / (1.0 - D * D / (N + 1.0))
    record = {
        "degree": D, "N": N, "lhs": lhs, "rhs_sup": rhs_sup, "factor": factor,
        "net_ok": lhs <= factor * rhs_sup * (1 + GRID_SLACK) + 1e-300,
        "derivative_checks": [],
    }
    if not record["net_ok"]:
        raise TheoremViolationError("epsilon-net comparison failed", details=record)

    if D >= 1:
        n0 = D * D
        cap0 = max(n0 * (n0 + 1), 4 * n0)
        ns0 = np.arange(max(n0, 1), cap0 + 1, dtype=float)
        rhs0 = float(np.abs(np.polyval(base, 1.0 / ns0)).max())
        rhs0 = max(rhs0, abs(float(np.polyval(base, 0.0))))
        xs0 = chebyshev_grid(0.0, 1.0 / (2 * D * D), 64 * D)
        deriv = base
        for k in range(1, min(D, 4) + 1):
            deriv = np.polyder(deriv)
            lhs_k = float(np.abs(np.polyval(deriv, xs0)).max())
            bound = 2.0 ** (2 * k + 1) * float(D) ** (4 * k) / float(math.prod(range(1, 2 * k, 2))) * rhs0
            ok = lhs_k <= bound * (1 + GRID_SLACK) + 1e-300
            record["derivative_checks"].append(
                {"k": k, "lhs": lhs_k, "bound": bound, "ok": ok})
            if not ok:
                raise TheoremViolationError(
                    f"derivative epsilon-net bound failed at k={k}", details=record)
    return record
