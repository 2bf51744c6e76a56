"""Partitions, symmetric-group characters, Littlewood-Richardson
coefficients, Schur/power-sum base change, and the expansion of mixed
(rational) unitary-group characters into products of polynomial ones.

This is the symmetric-function backbone of the exact integration engine.
All values are exact integers or Fractions.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceCapError, TheoremViolationError, UnsupportedSizeError, ValidationError
from .ratfunc import Polynomial, RationalFunction

PARTITION_ENUMERATION_CAP = 20
KOIKE_SIZE_CAP = 4


class Partition:
    """Weakly decreasing positive integer parts; the empty partition is ()."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValidationError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValidationError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.parts == other
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def conjugate(self):
        if not self.parts:
            return Partition()
        out = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                out[j] += 1
        return Partition(out)

    def contains(self, other):
        if other.length > self.length:
            return False
        return all(self.parts[i] >= other.parts[i] for i in range(other.length))

    def cells(self):
        """(row, col) 0-indexed cells of the Young diagram."""
        return [(i, j) for i, p in enumerate(self.parts) for j in range(p)]

    def contents(self):
        return [j - i for i, j in self.cells()]

    def hooks(self):
        conj = self.conjugate().parts
        return [self.parts[i] - j + conj[j] - i - 1 for i, j in self.cells()]

    def dimension(self):
        """Dimension of the S_k irreducible, by the hook length formula."""
        k = self.size
        denom = 1
        for h in self.hooks():
            denom *= h
        return math.factorial(k) // denom

    def to_json(self):
        return list(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"


EMPTY = Partition()


def partitions_of(k, cap=PARTITION_ENUMERATION_CAP):
    """All partitions of k in lexicographically decreasing order."""
    if k < 0:
        raise ValidationError("cannot partition a negative integer")
    if k > cap:
        raise ResourceCapError(f"partition enumeration of {k} exceeds cap {cap}")

    out = []

    def descend(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            descend(remaining - p, p, prefix + (p,))

    descend(k, k if k else 1, ())
    return out


def cycle_type_order(rho):
    """z_rho = prod_j j^{m_j} m_j!, the centralizer order of the class."""
    z = 1
    for part, group in itertools.groupby(rho.parts):
        m = len(list(group))
        z *= part**m * math.factorial(m)
    return z


def _beta_set(parts):
    ell = len(parts)
    return tuple(parts[i] + (ell - 1 - i) for i in range(ell))


def _partition_from_beta(beta):
    beta = sorted(beta, reverse=True)
    ell = len(beta)
    parts = [beta[i] - (ell - 1 - i) for i in range(ell)]
    return Partition(tuple(p for p in parts if p > 0))


@lru_cache(maxsize=None)
def _character_cached(lam_parts, rho_parts):
    if not rho_parts:
        return 1 if not lam_parts else 0
    t = rho_parts[0]
    rest = rho_parts[1:]
    total = 0
    # Murnaghan-Nakayama step: remove a border strip of length t, realized
    # on the beta-set as replacing b with b - t.
    beta = _beta_set(lam_parts)
    beta_set = set(beta)
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        crossings = sum(1 for c in beta if nb < c < b)
        sign = -1 if crossings % 2 else 1
        new_parts = _partition_from_beta([c for c in beta if c != b] + [nb]).parts
        total += sign * _character_cached(new_parts, rest)
    return total


def character(lam, rho):
    """Irreducible S_k character value chi_lambda(rho), exact integer."""
    if lam.size != rho.size:
        raise ValidationError(f"|lambda|={lam.size} != |rho|={rho.size}")
    return _character_cached(lam.parts, rho.parts)


class CharTable:
    """Full character table of S_k with class data, cached per k."""

    def __init__(self, k):
        self.k = k
        self.partitions = partitions_of(k)
        self.values = {
            (lam, rho): character(lam, rho)
            for lam in self.partitions for rho in self.partitions
        }
        self.class_orders = {rho: cycle_type_order(rho) for rho in self.partitions}

    def chi(self, lam, rho):
        return self.values[(lam, rho)]

    def dim(self, lam):
        return self.values[(lam, Partition((1,) * self.k if self.k else ()))]

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["lambda\\rho"] + [str(list(r.parts)) for r in self.partitions])
        for lam in self.partitions:
            writer.writerow([str(list(lam.parts))] + [self.values[(lam, rho)] for rho in self.partitions])
        return buf.getvalue()


@lru_cache(maxsize=None)
def char_table(k):
    return CharTable(k)


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


def _lr_fill(shape, inner, weight):
    """Count LR skew tableaux of shape/inner with content weight.

    Cells are filled in reading-word order (rows top to bottom, right to
    left within a row) so the lattice condition is a prefix property:
    after each placement of value v >= 1, #v <= #(v-1).
    """
    rows = shape.length
    inner_parts = inner.parts + (0,) * (rows - inner.length)
    cells = []
    for i in range(rows):
        for j in range(shape.parts[i] - 1, inner_parts[i] - 1, -1):
            cells.append((i, j))
    total = 0
    fill = {}
    counts = [0] * weight.length

    def place(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        right = fill.get((i, j + 1))
        up = fill.get((i - 1, j))
        for v in range(weight.length):
            if counts[v] >= weight.parts[v]:
                continue
            if right is not None and v > right:
                continue
            if up is not None and v <= up:
                continue
            if v > 0 and counts[v] + 1 > counts[v - 1]:
                continue
            fill[(i, j)] = v
            counts[v] += 1
            place(idx + 1)
            counts[v] -= 1
            del fill[(i, j)]

    place(0)
    return total


def lr_coeff(lam, mu, nu):
    """Littlewood-Richardson coefficient c^nu_{lambda,mu}."""
    if nu.size != lam.size + mu.size:
        return 0
    if not nu.contains(lam):
        return 0
    if mu.size == 0:
        return 1
    return _lr_fill(nu, lam, mu)


class BaseChange:
    """Schur <-> power-sum transition data for symmetric functions of degree k.

    s_lambda = sum_rho chi_lambda(rho)/z_rho * p_rho
    p_rho    = sum_lambda chi_lambda(rho) * s_lambda
    """

    def __init__(self, k):
        self.k = k
        table = char_table(k)
        self.partitions = table.partitions
        self.schur_to_powersum = {
            lam: {rho: Fraction(table.chi(lam, rho), table.class_orders[rho])
                  for rho in self.partitions}
            for lam in self.partitions
        }
        self.powersum_to_schur = {
            rho: {lam: Fraction(table.chi(lam, rho)) for lam in self.partitions}
            for rho in self.partitions
        }


@lru_cache(maxsize=None)
def powersum_schur_basechange(k):
    return BaseChange(k)


class KoikeExpansion:
    """Expansion of the mixed stable character s_{lambda,mu} into products
    s_{lambda'}(g) * s_{mu'}(g^{-1}) with n-independent integer coefficients."""

    def __init__(self, lam, mu, terms):
        self.lam = lam
        self.mu = mu
        self.terms = terms  # {(lam', mu'): int}

    def __getitem__(self, key):
        return self.terms.get(key, 0)

    def items(self):
        return self.terms.items()

    def to_json(self):
        return [
            {"lambda": list(l.parts), "mu": list(m.parts), "coeff": c}
            for (l, m), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0].parts, kv[0][1].parts))
        ]


def _koike_terms(lam, mu):
    """Closed-form coefficients: alternating sum over a cancelled partition
    delta, pairing c^lam_{delta,lam'} with c^mu_{delta',mu'} (delta' the
    conjugate)."""
    k, ell = lam.size, mu.size
    terms = {}
    for j in range(min(k, ell) + 1):
        for delta in partitions_of(j):
            delta_c = delta.conjugate()
            sign = -1 if j % 2 else 1
            for lam_p in partitions_of(k - j):
                c1 = lr_coeff(delta, lam_p, lam)
                if c1 == 0:
                    continue
                for mu_p in partitions_of(ell - j):
                    c2 = lr_coeff(delta_c, mu_p, mu)
                    if c2 == 0:
                        continue
                    key = (lam_p, mu_p)
                    terms[key] = terms.get(key, 0) + sign * c1 * c2
    return {key: c for key, c in terms.items() if c != 0}


KOIKE_VALIDATION_TOLERANCE = 1e-9
_KOIKE_VALIDATION_SEED = 413659


def _validate_koike(lam, mu, terms):
    """Cross-check the expansion against direct character evaluation on
    random diagonal unitaries.  Failure is a hard error."""
    from . import montecarlo

    import numpy as np

    k, ell = lam.size, mu.size
    rng = np.random.default_rng(_KOIKE_VALIDATION_SEED + 1000 * k + ell)
    worst = 0.0
    for n in range(max(k + ell, 1), max(k + ell, 1) + 4):
        if n < lam.length + mu.length:
            continue
        # 50 spectra of jittered equispaced phases (n jitters, then one
        # rotation, per row): random but with a spacing floor, keeping the
        # determinant-ratio evaluation well conditioned
        draws = rng.random((50, n + 1))
        phases = (np.arange(n) + 0.35 + 0.3 * draws[:, :n]) / n + draws[:, n:]
        eig = np.exp(2j * np.pi * phases)
        lhs = montecarlo.weyl_character_eval(lam, mu, eig)
        rhs = np.zeros(len(eig), dtype=complex)
        for (lam_p, mu_p), c in terms.items():
            rhs += c * montecarlo.schur_eval(lam_p, eig) * montecarlo.schur_eval(mu_p, eig.conj())
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    if worst >= KOIKE_VALIDATION_TOLERANCE:
        raise TheoremViolationError(
            f"mixed-character expansion for {lam!r},{mu!r} failed its "
            f"character-identity validation (max error {worst:.3e})",
            details={"lambda": lam.parts, "mu": mu.parts, "max_error": worst},
        )
    return worst


@lru_cache(maxsize=None)
def koike_expand(lam_parts, mu_parts):
    """Expansion of s_{lambda,mu}(g) as sum of alpha * s_{lambda'}(g) s_{mu'}(g^-1).

    Accepts part tuples (hashable); validated at construction against the
    character-evaluation oracle, which turns any transcription error into
    a hard failure instead of silently wrong integrals.
    """
    lam = Partition(lam_parts)
    mu = Partition(mu_parts)
    if lam.size + mu.size > KOIKE_SIZE_CAP:
        raise UnsupportedSizeError(
            f"mixed-character expansion validated only for |lambda|+|mu| <= {KOIKE_SIZE_CAP}")
    terms = _koike_terms(lam, mu)
    _validate_koike(lam, mu, terms)
    return KoikeExpansion(lam, mu, terms)
