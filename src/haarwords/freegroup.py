"""Reduced words in a free group, word maps on matrices, and word predicates.

Letters are nonzero signed integers: +i is the i-th generator, -i its
inverse, with 1 <= i <= rank.  Text form uses 'a'..'z' for generators and
'A'..'Z' for inverses, e.g. "abAB" is the commutator of the first two
generators.  Words are always stored freely reduced and are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import RankError, ResourceCapError, ShapeError, ValidationError, WordParseError

DEFAULT_BALL_CAP = 2_000_000
WHITEHEAD_RANK_CAP = 4   # most generators a word may use for the Whitehead descent to run


def _code(x):
    """Letter code: a=0, A=1, b=2, B=3, ...; the inverse letter's code is
    code ^ 1."""
    return 2 * x - 2 if x > 0 else -2 * x - 1


def _reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """A freely reduced word over generators x_1..x_r."""

    __slots__ = ("letters", "rank", "_hash")

    def __init__(self, letters, rank=None):
        letters = _reduce_letters(letters)
        used = max((abs(x) for x in letters), default=0)
        for x in letters:
            if x == 0:
                raise ValidationError("letter 0 is not a generator")
        if rank is None:
            rank = used
        elif used > rank:
            raise RankError(f"letter index {used} exceeds rank {rank}")
        self.letters = letters
        self.rank = rank
        self._hash = None

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        # Hash the letter codes, not the letters: hash(-1) == hash(-2) in
        # CPython, so tuples differing only by A <-> B would collide.
        if self._hash is None:
            self._hash = hash(tuple(map(_code, self.letters)))
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters, max(self.rank, other.rank))

    def inverse(self):
        return Word(tuple(-x for x in reversed(self.letters)), self.rank)

    def __pow__(self, e):
        if e == 0:
            return Word((), self.rank)
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def format(self):
        chars = []
        for x in self.letters:
            i = abs(x)
            if i > 26:
                raise ValidationError("letters beyond index 26 have no text form")
            c = chr(ord("a") + i - 1)
            chars.append(c if x > 0 else c.upper())
        return "".join(chars)

    __str__ = format

    def __repr__(self):
        return f"Word({self.format()!r})" if self.letters else "Word(identity)"


def parse_word(text, rank=None):
    """Parse the letters-only word grammar into a reduced Word.

    Lowercase letters are generators, uppercase their inverses; the empty
    string is the identity.  Any other character is a parse error naming
    its offset; an index beyond `rank` (when given) is a rank error.
    """
    letters = []
    for off, ch in enumerate(text):
        if "a" <= ch <= "z":
            idx = ord(ch) - ord("a") + 1
            letters.append(idx)
        elif "A" <= ch <= "Z":
            idx = ord(ch) - ord("A") + 1
            letters.append(-idx)
        else:
            raise WordParseError(f"unexpected character {ch!r}", off)
        if rank is not None and idx > rank:
            raise RankError(f"generator x{idx} at offset {off} exceeds rank {rank}")
    return Word(letters, rank)


@dataclass(frozen=True)
class CyclicForm:
    """w = conjugator * core * conjugator^-1 with core cyclically reduced."""

    core: Word
    conjugator: Word

    def recompose(self):
        return self.conjugator * self.core * self.conjugator.inverse()


def cyclic_reduce(w):
    """Strip matching end pairs until the core is cyclically reduced."""
    core = _cyclic_core(w.letters)
    conjugator = w.letters[:(len(w) - len(core)) // 2]
    return CyclicForm(Word(core, w.rank), Word(conjugator, w.rank))


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


def _cyclic_core(letters):
    """Cyclic reduction of a freely reduced letters tuple."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return letters[lo:hi]


def _relabel(letters):
    """Rename the generators 1, 2, ... in order of first appearance, each
    with the sign of its first appearance (so the first letter is +1)."""
    names = {}
    out = []
    for y in letters:
        if abs(y) not in names:
            names[abs(y)] = (len(names) + 1) * (1 if y > 0 else -1)
        out.append(names[abs(y)] if y > 0 else -names[abs(y)])
    return tuple(out)


def _canonical_rotation(letters):
    """Least relabelled rotation, letters ordered a < A < b < B < ...:
    the same for every rotation and signed renaming of the generators."""
    rotations = (_relabel(letters[s:] + letters[:s]) for s in range(len(letters)))
    return min(rotations, key=lambda word: [2 * abs(y) + (y < 0) for y in word], default=())


@lru_cache(maxsize=None)
def _whitehead_moves(rank):
    """The 2 rank (2^(2 rank - 2) - 1) nontrivial type-2 Whitehead
    automorphisms (A, x) of F_rank: x a letter, A a set of letters holding
    x, not x^-1, and at least one other letter."""
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    moves = []
    for x in letters:
        others = [y for y in letters if abs(y) != abs(x)]
        for size in range(1, len(others) + 1):
            moves.extend((frozenset(extra) | {x}, x) for extra in combinations(others, size))
    return tuple(moves)


def _whitehead_image(letters, subset, x):
    """Cyclic core of the image under (A, x), which fixes x and sends every
    other letter y to x^-1 y if y^-1 is in A, times x if y is in A."""
    image = []
    for y in letters:
        if abs(y) != abs(x) and -y in subset:
            image.append(-x)
        image.append(y)
        if abs(y) != abs(x) and y in subset:
            image.append(x)
    return _cyclic_core(_reduce_letters(image))


@lru_cache(maxsize=4096)
def _minimal_letters(letters):
    core = _canonical_rotation(_cyclic_core(letters))
    rank = max(core, default=0)
    if rank <= WHITEHEAD_RANK_CAP:
        moves = _whitehead_moves(rank)
        shorter = True
        while shorter:
            shorter = False
            for subset, x in moves:
                image = _whitehead_image(core, subset, x)
                if len(image) < len(core):
                    core, shorter = image, True
                    break
    return _canonical_rotation(core)


def whitehead_minimal(w):
    """A shortest word in the orbit of w's conjugacy class under Aut(F_r),
    in a canonical rotation and naming of its generators.

    Three steps: cyclic reduction; greedy descent over the nontrivial
    type-2 Whitehead automorphisms (by Whitehead's theorem a cyclic word of
    non-minimal length in its orbit is shortened by one of them, so the
    descent stops at the minimum); then the least rotation, with the
    generators renamed in order of first appearance (`_canonical_rotation`).
    The descent starts from that canonical form too, so conjugates and
    renamings of w give the same result.  It runs only for words on at
    most WHITEHEAD_RANK_CAP generators; words on more get the other two
    steps.  Results are cached by letters.
    """
    return Word(_minimal_letters(w.letters))


def evaluate_word(w, matrices):
    """Product of the given square matrices along the word.

    `matrices` holds one matrix per generator: each (n, n), or each a
    stack (..., n, n) with the same leading batch axes, in which case the
    word is evaluated on every tuple of the batch.  Inverse letters use the
    adjoint of each matrix that is unitary (to within 1e-10) and a true
    inverse otherwise.
    """
    if w.rank > len(matrices):
        raise RankError(f"word needs {w.rank} matrices, got {len(matrices)}")
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValidationError("at least one matrix required to fix the dimension")
    shape = mats[0].shape
    for m in mats:
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape != shape:
            raise ShapeError(f"matrices must all be square of one size, got {m.shape}")
    n = shape[-1]
    if not w.letters:
        return np.broadcast_to(np.eye(n, dtype=complex), shape).copy()
    out = None
    inverses = {}
    for x in w.letters:
        u = mats[abs(x) - 1]
        if x < 0:
            key = abs(x) - 1
            if key not in inverses:
                adjoint = u.swapaxes(-1, -2).conj()
                unitary = np.max(np.abs(adjoint @ u - np.eye(n)), axis=(-2, -1)) < 1e-10
                if not np.all(unitary):
                    adjoint = np.where(unitary[..., None, None], adjoint, np.linalg.inv(u))
                inverses[key] = adjoint
            u = inverses[key]
        # a copy, not the caller's matrix: the result must not alias an input
        out = u.copy() if out is None else out @ u
    return out


def ball_size(radius, r):
    """Number of reduced words of length <= radius in F_r."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    if r == 0:
        return 1
    if r == 1:
        return 1 + 2 * radius
    q = 2 * r - 1
    return 1 + 2 * r * (q**radius - 1) // (q - 1)


class RankedBall:
    """The reduced words of length <= radius in F_r as rows of an (N, radius)
    int8 array of letter codes (padded with -1), indexed by breadth-first
    rank: identity first, then each sphere in lexicographic order with
    letters ordered a, A, b, B, ...

    A word x_1..x_L has index ball_size(L - 1) + v, where v is the mixed
    radix number with first digit code(x_1) in base 2r and each later digit
    code(x_k) - [code(x_k) > code(x_(k-1)) ^ 1] in base q = 2r - 1.
    `left_multiply` computes the index of s*g for every row g from that
    formula alone, with no word products or lookups.
    """

    def __init__(self, radius, r, cap=DEFAULT_BALL_CAP):
        if r < 0:
            raise ValidationError("rank must be >= 0")
        total = ball_size(radius, r)
        if total > cap:
            raise ResourceCapError(f"ball of size {total} exceeds cap {cap}")
        self.radius, self.rank, self.q = radius, r, max(2 * r - 1, 1)
        # allowed[c]: the codes that may follow code c, in increasing order
        allowed = np.array([[y for y in range(2 * r) if y != c ^ 1] for c in range(2 * r)],
                           dtype=np.int8)
        codes = np.full((1, radius), -1, dtype=np.int8)
        spheres = [codes]
        for length in range(1, radius + 1 if r else 1):
            if length == 1:
                codes = np.repeat(codes, 2 * r, axis=0)
                codes[:, 0] = np.arange(2 * r)
            else:
                last = codes[:, length - 2]
                codes = np.repeat(codes, 2 * r - 1, axis=0)
                codes[:, length - 1] = allowed[last].ravel()
            spheres.append(codes)
        self.codes = np.concatenate(spheres)
        self.lengths = np.repeat(np.arange(len(spheres)), [len(c) for c in spheres])
        # offsets[L] = number of words shorter than L
        self._offsets = np.array([ball_size(L - 1, r) if L else 0
                                  for L in range(radius + 1)], dtype=np.int64)
        self._powers = self.q ** np.arange(radius + 1, dtype=np.int64)
        self._values = np.arange(len(self.codes)) - self._offsets[self.lengths]

    def __len__(self):
        return len(self.codes)

    def _value(self, codes):
        """Mixed radix value v of a nonempty reduced word given by its codes."""
        v = codes[0]
        for prev, c in zip(codes, codes[1:]):
            v = v * self.q + c - (c > prev ^ 1)
        return v

    def left_multiply(self, s):
        """Index of s*g for every row g (an intp array), -1 where s*g is
        longer than the radius or uses a generator beyond the rank."""
        out = np.full(len(self), -1, dtype=np.intp)
        if any(abs(x) > self.rank for x in s.letters):
            return out
        sc = [_code(x) for x in s.letters]
        m, radius = len(sc), self.radius
        # cancel[g] = c, the number of letters s*g cancels: s[m-1-j] == g[j]^-1 for j < c
        cancel = np.zeros(len(self), dtype=np.intp)
        alive = np.ones(len(self), dtype=bool)
        for j in range(min(m, radius)):
            alive &= self.codes[:, j] == sc[m - 1 - j] ^ 1
            cancel += alive
        for c in range(min(m, radius) + 1):
            rows = np.flatnonzero((cancel == c) & (self.lengths <= radius - m + 2 * c))
            if not rows.size:
                continue
            # s*g = s[:m-c] followed by g[c:], of length len(prefix) + rest
            prefix = sc[:m - c]
            vp = self._value(prefix) if prefix else 0
            rest = self.lengths[rows] - c
            index = np.full(len(rows), vp, dtype=np.int64)
            grow = np.flatnonzero(rest > 0)
            if grow.size:
                head = self.codes[rows[grow], c].astype(np.int64)
                if prefix:
                    head -= head > prefix[-1] ^ 1
                tail = self._powers[rest[grow] - 1]
                index[grow] = (vp * self._powers[rest[grow]] + head * tail
                               + self._values[rows[grow]] % tail)
            out[rows] = self._offsets[len(prefix) + rest] + index
        return out


def ball(radius, r, cap=DEFAULT_BALL_CAP):
    """All reduced words of length <= radius over F_r, identity first,
    in breadth-first order with letters ordered a, A, b, B, ...
    """
    kernel = RankedBall(radius, r, cap)
    letters = [(c // 2 + 1) * (-1 if c % 2 else 1) for c in range(2 * r)]
    return [Word(tuple(letters[c] for c in row[:length]), r)
            for row, length in zip(kernel.codes.tolist(), kernel.lengths.tolist())]
