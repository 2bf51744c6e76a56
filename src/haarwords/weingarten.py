"""The unitary Weingarten function as an exact rational function of the
dimension n, the relative transposition norm on S_{k+l}, and the
group-algebra elements used to build invariant tensor projectors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import perms
from .errors import StructureViolationError, UnsupportedSizeError, ValidationError
from .ratfunc import Polynomial, RationalFunction
from .symgroup import Partition, char_table

WG_DEGREE_CAP = 8
Z_DEGREE_CAP = 6


@lru_cache(maxsize=None)
def pole_orders(L):
    """The common denominator D_L(n) = prod (n + c)^m(L, c) over |c| < L,
    as {c: m(L, c)}.  Every content c of lambda |- L has |c| < L and occurs
    at most m(L, c) times, so every Wg_L denominator divides D_L."""
    return {c: pole_multiplicity(L, c) for c in range(1 - L, L)}


@lru_cache(maxsize=None)
def common_denominator(L):
    """D_L(n) as a monic Polynomial."""
    den = Polynomial((1,))
    for c, m in pole_orders(L).items():
        den = den * Polynomial((c, 1)) ** m
    return den


@lru_cache(maxsize=None)
def lifted_wg(L, ct):
    """The numerator N with Wg_L(ct) = N / D_L: the character sum over
    lambda |- L, each term chi(1)^2 / s_lambda(1) * chi(ct) / L!^2 with
    s_lambda(1) = prod (n + c) / prod hooks lifted onto D_L.  Sums of
    Weingarten values over D_L add numerators and normalise once."""
    table = char_table(L)
    rho = Partition(ct)
    num = Polynomial()
    for lam in table.partitions:
        chi = table.chi(lam, rho)
        if chi == 0:
            continue
        excess = dict(pole_orders(L))
        for c in lam.contents():
            excess[c] -= 1
        if min(excess.values()) < 0:
            raise StructureViolationError(
                f"content multiplicities of {lam} exceed the pole orders of D_{L}",
                details={"lambda": lam.to_json(), "excess": excess})
        term = Polynomial((table.dim(lam) ** 2 * math.prod(lam.hooks()) * chi,))
        for c, e in excess.items():
            term = term * Polynomial((c, 1)) ** e
        num = num + term
    return num * Fraction(1, math.factorial(L) ** 2)


@lru_cache(maxsize=None)
def _wg_by_cycle_type(L, ct):
    return RationalFunction(lifted_wg(L, ct), common_denominator(L))


def wg(L, pi):
    """Weingarten function Wg_L(pi) as an exact rational function of n.

    pi may be a permutation tuple of degree L or a cycle type; the value
    depends only on the conjugacy class.
    """
    if not 1 <= L <= WG_DEGREE_CAP:
        raise UnsupportedSizeError(f"Weingarten degree {L} outside 1..{WG_DEGREE_CAP}")
    if isinstance(pi, Partition):
        ct = pi.parts
    else:
        pi = tuple(pi)
        if len(pi) == L and sorted(pi) == list(range(L)):
            ct = perms.cycle_type(pi)
        elif all(x >= 1 for x in pi) and sorted(pi, reverse=True) == list(pi):
            ct = pi
        else:
            raise ValidationError(f"neither a permutation of degree {L} nor a cycle type: {pi}")
    if sum(ct) != L:
        raise ValidationError(f"cycle type {ct} does not sum to {L}")
    return _wg_by_cycle_type(L, tuple(ct))


def wg_value(L, pi, n):
    """Wg_L(pi) evaluated at integer n >= L, as an exact Fraction."""
    if n < L:
        raise ValidationError(f"need n >= {L} for the exact Weingarten value, got {n}")
    return wg(L, pi)(Fraction(n))


def pole_multiplicity(L, c):
    """Largest multiplicity of the factor (n + c) over all denominators of
    Wg_L: the largest d with d*(d + |c|) <= L."""
    if abs(c) > L:
        raise ValidationError(f"|content| {abs(c)} exceeds {L}")
    d = 0
    while (d + 1) * (d + 1 + abs(c)) <= L:
        d += 1
    return d


@lru_cache(maxsize=None)
def _norm_table(k, ell):
    m = k + ell
    if m > Z_DEGREE_CAP:
        raise UnsupportedSizeError(f"k+l={m} exceeds cap {Z_DEGREE_CAP}")
    subgroup = _young_product_perms((k,), (ell,), k, ell)
    dist = {sigma: 0 for sigma in subgroup}
    frontier = list(subgroup)
    ts = perms.transpositions(m)
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
            out[perms.embed(sigma, m, offset)] = scale * chi
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
    d_lam = lam.dimension() if k else 1
    d_mu = mu.dimension() if ell else 1
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
