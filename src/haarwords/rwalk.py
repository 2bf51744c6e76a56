"""Random walks on free groups: exact return probabilities, spectral
radius brackets, empirical proper-power decay, and ball-compression
lower bounds for reduced free-group norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (ResourceCapError, TheoremViolationError,
                     UnsupportedSizeError, ValidationError)
from .freegroup import RankedBall, Word, _prime_shifts, ball_size, proper_power_mask

GENERAL_CONVOLUTION_STEP_CAP = 20
RADIAL_EXACT_STEP_CAP = 40
CONVOLUTION_STATE_CAP = 500_000
BALL_COMPRESSION_CAP = 200_000
WALK_BUFFER_CAP = 50_000_000  # bytes of a walk: its int8 stack plus one step's temporaries
# int64 and bool temporaries per sample of one walker step and its proper-power
# detection; tracemalloc reads 75-170 bytes up to 1,000 steps
WALK_STEP_BYTES = 160
COMPRESSION_TOL = 1e-5  # Ritz residual 1e-10: the bound is solved to near float accuracy
WILSON_Z = 1.96         # two-sided 95% normal quantile of the per-step Wilson intervals
SLOPE_WINDOW = (10, 30)  # steps whose proper-power frequencies fit the decay slope


class WalkMeasure:
    """Finitely supported probability measure on F_r.

    Flags: symmetric (mu(w) = mu(w^-1)), contains_identity, generating
    (the support generates the whole free group, decided by Stallings
    folding).  "Reasonable" is the conjunction of all three.
    """

    def __init__(self, support, rank=None):
        probs = {}
        for w, p in support.items():
            p = Fraction(p)
            if p < 0:
                raise ValidationError("negative probability")
            if p > 0:
                probs[w] = probs.get(w, Fraction(0)) + p
        if sum(probs.values()) != 1:
            raise ValidationError("probabilities must sum to 1")
        self.support = probs
        self.rank = rank if rank is not None else max((w.rank for w in probs), default=1)
        self.symmetric = all(probs.get(w.inverse(), Fraction(0)) == p
                             for w, p in probs.items())
        self.contains_identity = any(w.is_identity() for w in probs)
        self.generating = _support_generates(
            [w for w in probs if not w.is_identity()], self.rank)

    def support_radius(self):
        return max((len(w) for w in self.support), default=0)

    @classmethod
    def uniform_generators(cls, r):
        """Uniform on the 2r generators and inverses (no identity atom)."""
        p = Fraction(1, 2 * r)
        support = {}
        for i in range(1, r + 1):
            support[Word((i,), r)] = p
            support[Word((-i,), r)] = p
        return cls(support, rank=r)

    @classmethod
    def lazy_uniform(cls, r):
        """Uniform on {identity} union generators and inverses."""
        p = Fraction(1, 2 * r + 1)
        support = {Word((), r): p}
        for i in range(1, r + 1):
            support[Word((i,), r)] = p
            support[Word((-i,), r)] = p
        return cls(support, rank=r)

    def is_radial_nearest_neighbor(self):
        """True when the measure is a function of word length with support
        radius <= 1 (the regime of the exact distance-chain DP)."""
        if self.support_radius() > 1:
            return False
        letters = [w for w in self.support if len(w) == 1]
        if len(letters) != 2 * self.rank:
            return not letters  # identity-only point mass is radial
        probs = {self.support[w] for w in letters}
        return len(probs) == 1


def _support_generates(words, r):
    """Stallings folding: the subgroup generated by the words equals F_r
    iff the folded core graph is the wedge of r labelled loops."""
    if r == 0:
        return True
    parent = [0]

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    edges = []  # (src, dst, label) with label in 1..r
    for w in words:
        prev = 0
        for idx, x in enumerate(w.letters):
            nxt = 0 if idx == len(w.letters) - 1 else fresh()
            if x > 0:
                edges.append((prev, nxt, x))
            else:
                edges.append((nxt, prev, -x))
            prev = nxt

    changed = True
    while changed:
        changed = False
        out = {}
        inc = {}
        for src, dst, lab in edges:
            src, dst = find(src), find(dst)
            for table, key, other in ((out, (src, lab), dst), (inc, (dst, lab), src)):
                if key in table and find(table[key]) != other:
                    a, b = find(table[key]), other
                    parent[a] = b
                    changed = True
                else:
                    table[key] = other
        if changed:
            edges = [(find(s), find(d), l) for s, d, l in edges]

    vertices = {find(v) for s, d, _ in edges for v in (s, d)}
    vertices.add(find(0))
    if len(vertices) != 1:
        return False
    labels = {lab for _, _, lab in edges}
    return labels == set(range(1, r + 1))


def _radial_transition(measure):
    """Distance-chain step probabilities (p_stay, p_single) for a radial
    nearest-neighbor measure."""
    p_stay = Fraction(0)
    p_single = Fraction(0)
    for w, p in measure.support.items():
        if w.is_identity():
            p_stay = p
        else:
            p_single = p
    return p_stay, p_single


def _radial_return_probabilities(measure, steps):
    """Exact P(g_t = e) for t = 0..steps via the birth-death distance
    chain, on an object array of Fractions."""
    p0, p1 = _radial_transition(measure)
    fwd = p1 * (2 * measure.rank - 1)
    dist = np.full(steps + 1, Fraction(0), dtype=object)
    dist[0] = Fraction(1)
    out = [dist[0]]
    for _ in range(steps):
        # new[d] = dist[d-1] fwd + dist[d] p0 + dist[d+1] p1, and from the
        # identity every one of the 2r letters leads out: fwd + p1
        new = dist * p0
        new[1:] += dist[:-1] * fwd
        new[1] += dist[0] * p1
        new[:-1] += dist[1:] * p1
        dist = new
        out.append(dist[0])
    return out


def _convolve_distribution(measure, steps, cap=CONVOLUTION_STATE_CAP,
                           stop_at_cap=False):
    """Exact walk distribution after each step as Word -> Fraction maps.
    With stop_at_cap the history is truncated at the last step whose
    support fits, instead of raising."""
    state = {Word((), measure.rank): Fraction(1)}
    history = [state]
    for _ in range(steps):
        new = {}
        for w, p in state.items():
            for s, ps in measure.support.items():
                key = w * s
                new[key] = new.get(key, Fraction(0)) + p * ps
        if len(new) > cap:
            if stop_at_cap:
                return history
            raise ResourceCapError(f"convolution support {len(new)} exceeds cap {cap}")
        state = new
        history.append(state)
    return history


def return_probability(measure, steps):
    """P(g_steps = e) as a Fraction, for radial nearest-neighbor measures
    via the distance chain (steps <= 40) and for general measures via
    truncated convolution (steps <= 20); the walk cannot leave the ball of
    radius steps * support_radius, so truncation is not an approximation."""
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if measure.is_radial_nearest_neighbor():
        if steps > RADIAL_EXACT_STEP_CAP:
            raise UnsupportedSizeError(
                f"exact radial return probability capped at {RADIAL_EXACT_STEP_CAP} steps")
        return _radial_return_probabilities(measure, steps)[steps]
    if steps > GENERAL_CONVOLUTION_STEP_CAP:
        raise UnsupportedSizeError(
            f"general convolution capped at {GENERAL_CONVOLUTION_STEP_CAP} steps")
    history = _convolve_distribution(measure, steps)
    return history[steps].get(Word((), measure.rank), Fraction(0))


@dataclass
class SpectralRadiusBracket:
    lower: float
    upper: float
    details: dict = field(default_factory=dict)

    def width(self):
        return self.upper - self.lower

def _float_enclosure(lo, hi):
    """The narrowest float interval holding the Fractions lo <= hi."""
    a, b = float(lo), float(hi)
    return (math.nextafter(a, -math.inf) if a > lo else a,
            math.nextafter(b, math.inf) if b < hi else b)


def _kesten_bracket(measure):
    """Kesten's (1959) spectral radius p0 + 2 p1 sqrt(2r - 1) of a radial
    nearest-neighbour measure, enclosed between adjacent floats.

    2 p1 sqrt(2r - 1) = sqrt(a / b) with a / b = 4 p1^2 (2r - 1) in lowest
    terms, and sqrt(a / b) = sqrt(a b 4^64) / (b 2^64), so math.isqrt
    encloses it in Fractions 1 / (b 2^64) apart; the float ends are rounded
    outward, and the upper one is clamped at the l1 bound 1."""
    p0, p1 = _radial_transition(measure)
    x = 4 * p1 * p1 * (2 * measure.rank - 1)
    scaled = x.numerator * x.denominator << 128
    root = math.isqrt(scaled)
    top = root if root * root == scaled else root + 1
    den = x.denominator << 64
    lower, upper = _float_enclosure(p0 + Fraction(root, den), p0 + Fraction(top, den))
    return SpectralRadiusBracket(lower=lower, upper=min(upper, 1.0),
                                 details={"closed_form": "Kesten"})


def spectral_radius(measure, ball_radius=None):
    """Spectral radius of a symmetric measure's Markov operator as a float
    interval.  Radial nearest-neighbour measures have Kesten's closed form
    (`_kesten_bracket`, no ball is built).  Any other measure gets a
    bracket: even-step return probabilities and a ball-compression Rayleigh
    quotient (radius `ball_radius`, by default the largest up to 12 that
    fits the cap) give lower bounds, and the l1 norm 1 of the measure is the
    upper bound."""
    if not measure.symmetric:
        raise ValidationError("spectral radius bracketing needs a symmetric measure")
    if measure.is_radial_nearest_neighbor():
        return _kesten_bracket(measure)
    history = _convolve_distribution(measure, GENERAL_CONVOLUTION_STEP_CAP,
                                     cap=100_000, stop_at_cap=True)
    e = Word((), measure.rank)
    probs = [float(h.get(e, 0)) for h in history]
    lower = max((probs[m] ** (1.0 / m) for m in range(2, len(probs), 2)), default=0.0)
    details = {"return_probability_lower": lower, "convolution_steps": len(probs) - 1}
    if ball_radius is None:
        ball_radius = 1
        while (ball_radius < 12
               and ball_size(ball_radius + 1, measure.rank) <= BALL_COMPRESSION_CAP):
            ball_radius += 1
    try:
        ball = _compressed_norm({w: complex(p) for w, p in measure.support.items()},
                                measure.rank, ball_radius)
        details.update(ball_lower=ball, ball_radius=ball_radius)
        lower = max(lower, ball)
    except ResourceCapError:
        pass
    if lower > 1.0 + 1e-9:
        raise TheoremViolationError(
            "spectral radius lower bound exceeded the upper bound",
            details={"lower": lower, "upper": 1.0})
    return SpectralRadiusBracket(lower=lower, upper=1.0, details=details)


# ---------------------------------------------------------------------------
# Proper-power statistics


def _wilson_interval(hits, n):
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _walker(measure, steps, samples, rng):
    """Vectorized walk for any finite support.  The support is a padded
    (K, m) letters table (the identity a length-0 row), and each step draws
    one support index per sample.  Yields (step, letter stacks, lengths)
    after each step; the stacks are live buffers, so callers must not
    mutate them, and only the first `length` letters of a row are the
    word."""
    words = list(measure.support)
    probs = np.array([float(p) for p in measure.support.values()])
    probs = probs / probs.sum()
    sizes = np.array([len(w) for w in words], dtype=np.int64)
    table = np.zeros((len(words), int(sizes.max())), dtype=np.int8)
    for i, w in enumerate(words):
        table[i, :len(w)] = w.letters
    # one spare column, so a write just past the end of a row always fits
    width = steps * table.shape[1] + 1
    if samples * (width + WALK_STEP_BYTES) > WALK_BUFFER_CAP:
        raise ResourceCapError(f"walk of {samples} samples x ({width} stack + "
                               f"{WALK_STEP_BYTES} step) bytes exceeds cap {WALK_BUFFER_CAP}")
    buf = np.zeros((samples, width), dtype=np.int8)
    lengths = np.zeros(samples, dtype=np.int64)
    for t in range(steps):
        pick = rng.choice(len(words), size=samples, p=probs)
        lengths = _right_multiply(buf, lengths, table[pick], sizes[pick])
        yield t, buf, lengths


def _right_multiply(buf, lengths, s, size):
    """Multiply each stack row on the right by its reduced word s (rows of
    an (N, m) padded letters array, true lengths `size`) in place, and
    return the new lengths: cancel the leading letters of s against the top
    of the stack with at most m column compares, then push the rest."""
    rows = np.arange(len(buf))
    cancel = np.zeros(len(buf), dtype=np.int64)
    live = np.ones(len(buf), dtype=bool)
    for j in range(s.shape[1]):
        # a row shorter than j + 1 reads a wrapped index, masked out
        live &= (lengths > j) & (buf[rows, lengths - 1 - j] == -s[:, j])
        cancel += live
    base = lengths - 2 * cancel
    lengths = base + size
    for j in range(s.shape[1]):
        # letter j of s goes to base + j unless it cancelled; a cancelled
        # letter, and the padding past |s|, land at or past the new end
        buf[rows, np.where(j >= cancel, base + j, lengths)] = s[:, j]
    return lengths


@dataclass
class ProperPowerStats:
    steps: int
    samples: int
    seed: int
    rows: list                # per step: dict with n, hits, phat, ci
    slope: float
    slope_stderr: float
    parity_locked: bool
    return_probabilities: list  # exact P(g_t = e), t <= RADIAL_EXACT_STEP_CAP; [] if not radial


def proper_power_stats(measure, steps, samples, seed):
    """Empirical probability that the walk sits at a proper power, per
    step, with Wilson intervals and an exponential decay slope fitted
    over the steps of SLOPE_WINDOW.

    The guarantee this probes assumes a reasonable measure; the sampler
    also accepts symmetric generating measures without an identity atom.
    When every support word has odd length, each step changes the word
    length by |s| - 2c, an odd number, so the length parity is locked to
    the step parity and the slope is fitted on the dominant parity class.
    """
    if not (measure.symmetric and measure.generating):
        raise ValidationError("need a symmetric generating measure")
    if steps < 0 or samples < 1:
        raise ValidationError(f"need steps >= 0 and samples >= 1, got {steps} and {samples}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    rows = []
    shifts = _prime_shifts(0)
    for t, buf, lengths in _walker(measure, steps, samples, rng):
        longest = int(lengths.max())
        if longest >= len(shifts):  # doubling: O(longest word) table work per call
            shifts = _prime_shifts(2 * longest)
        mask = proper_power_mask(buf, lengths, shifts)
        hits = int(mask.sum())
        lo, hi = _wilson_interval(hits, samples)
        rows.append({"n": t + 1, "hits": hits, "phat": hits / samples,
                     "ci_low": lo, "ci_high": hi})
    parity_locked = not measure.contains_identity and all(
        len(w) % 2 == 1 for w in measure.support)
    slope, stderr = _fit_slope(rows, samples, parity_locked)
    exact_returns = []
    if measure.is_radial_nearest_neighbor():
        exact_returns = _radial_return_probabilities(
            measure, min(steps, RADIAL_EXACT_STEP_CAP))
    return ProperPowerStats(steps=steps, samples=samples, seed=seed, rows=rows,
                            slope=slope, slope_stderr=stderr, parity_locked=parity_locked,
                            return_probabilities=exact_returns)


def _fit_slope(rows, samples, parity_locked):
    """Weighted least-squares slope of log phat over SLOPE_WINDOW; when word
    lengths have a locked parity only the dominant parity class is used."""
    lo, hi = SLOPE_WINDOW
    usable = [r for r in rows if lo <= r["n"] <= hi and r["hits"] > 0]
    if parity_locked:
        even = [r for r in usable if r["n"] % 2 == 0]
        odd = [r for r in usable if r["n"] % 2 == 1]
        usable = even if sum(r["hits"] for r in even) >= sum(r["hits"] for r in odd) else odd
    if len(usable) < 3:
        return math.nan, math.inf
    xs = np.array([r["n"] for r in usable], dtype=float)
    ys = np.log(np.array([r["phat"] for r in usable]))
    # inverse variance of log(phat): var ~ (1 - p) / (N p)
    ws = np.array([samples * r["phat"] / max(1 - r["phat"], 1e-9) for r in usable])
    wmean_x = np.average(xs, weights=ws)
    wmean_y = np.average(ys, weights=ws)
    cov = np.average((xs - wmean_x) * (ys - wmean_y), weights=ws)
    var = np.average((xs - wmean_x) ** 2, weights=ws)
    slope = cov / var
    resid = ys - (wmean_y + slope * (xs - wmean_x))
    dof = max(len(usable) - 2, 1)
    stderr = math.sqrt(max(np.average(resid**2, weights=ws), 1e-300) / (var * dof))
    return float(slope), float(stderr)


# ---------------------------------------------------------------------------
# Ball compression


def _compressed_norm(a_map, r, radius):
    """Largest singular value of the convolution operator compressed to the
    ball of the given radius: a rigorous lower bound for the true norm."""
    from .montecarlo import ImplicitTensorOperator, estimate_norm

    ball = RankedBall(radius, r, cap=BALL_COMPRESSION_CAP)
    # Left multiplication by s is injective, so the dst entries of one block
    # are distinct and out[dst] += c v[src] is an exact scatter.
    blocks = []
    for s, c in a_map.items():
        if abs(c) == 0:
            continue
        dst = ball.left_multiply(s)
        src = np.flatnonzero(dst >= 0)
        blocks.append((complex(c), src, dst[src]))

    def apply_fn(v):
        out = np.zeros_like(v)
        for c, src, dst in blocks:
            out[dst] += c * v[src]
        return out

    def adjoint_fn(v):
        out = np.zeros_like(v)
        for c, src, dst in blocks:
            out[src] += c.conjugate() * v[dst]
        return out

    op = ImplicitTensorOperator(len(ball), apply_fn, adjoint_fn)
    return estimate_norm(op, tol=COMPRESSION_TOL, rng=7).value


def reduced_norm_lower_bound(terms, r):
    """Ball-compression estimate of the reduced free-group norm of a word
    polynomial: a lower bound, on the ball of the largest radius up to 11
    (and at least q + 3) that holds at most half of BALL_COMPRESSION_CAP
    words."""
    a_map = {}
    for w, c in terms:
        a_map[w] = a_map.get(w, 0) + complex(c)
    q = max(max((len(w) for w in a_map), default=1), 1)
    radius, limit = q + 3, max(q + 3, 11)
    while radius < limit and ball_size(radius + 1, r) <= BALL_COMPRESSION_CAP // 2:
        radius += 1
    return _compressed_norm(a_map, r, radius)
