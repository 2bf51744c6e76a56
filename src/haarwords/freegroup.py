"""Reduced words in a free group, word maps on matrices, and word predicates.

Letters are nonzero signed integers: +i is the i-th generator, -i its
inverse, with 1 <= i <= rank.  Text form uses 'a'..'z' for generators and
'A'..'Z' for inverses, e.g. "abAB" is the commutator of the first two
generators.  Words are always stored freely reduced and are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, ResourceCapError, ShapeError, ValidationError, WordParseError

DEFAULT_BALL_CAP = 2_000_000


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

    __slots__ = ("letters", "rank")

    def __init__(self, letters=(), rank=None):
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

    @classmethod
    def identity(cls, rank=0):
        return cls((), rank)

    @classmethod
    def generator(cls, i, rank=None):
        return cls((i,), rank)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

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
    letters = list(w.letters)
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    core = Word(tuple(letters[lo:hi]), w.rank)
    conjugator = Word(tuple(letters[:lo]), w.rank)
    return CyclicForm(core, conjugator)


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


def evaluate_word(w, matrices):
    """Product of the given square matrices along the word.

    Inverse letters use the adjoint when the matrix is unitary (to within
    1e-10) and a true inverse otherwise.
    """
    if w.rank > len(matrices):
        raise RankError(f"word needs {w.rank} matrices, got {len(matrices)}")
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValidationError("at least one matrix required to fix the dimension")
    n = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != n:
            raise ShapeError(f"matrices must all be square of one size, got {m.shape}")
    out = np.eye(n, dtype=complex)
    inverses = {}
    for x in w.letters:
        u = mats[abs(x) - 1]
        if x > 0:
            out = out @ u
        else:
            key = abs(x) - 1
            if key not in inverses:
                if np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-10:
                    inverses[key] = u.conj().T
                else:
                    inverses[key] = np.linalg.inv(u)
            out = out @ inverses[key]
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


def ball(radius, r, cap=DEFAULT_BALL_CAP):
    """All reduced words of length <= radius over F_r, identity first,
    in breadth-first order with letters ordered a, A, b, B, ...
    """
    if r < 0:
        raise ValidationError("rank must be >= 0")
    total = ball_size(radius, r)
    if total > cap:
        raise ResourceCapError(f"ball of size {total} exceeds cap {cap}")
    letter_order = [s * i for i in range(1, r + 1) for s in (1, -1)]
    words = [Word((), r)]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for letters in frontier:
            last = letters[-1] if letters else 0
            for x in letter_order:
                if x == -last:
                    continue
                grown = letters + (x,)
                nxt.append(grown)
                words.append(Word(grown, r))
        frontier = nxt
    return words
