"""Permutations of {0, ..., m-1} as tuples: p[i] is the image of i."""

from __future__ import annotations

import itertools
from functools import lru_cache


def identity(m):
    return tuple(range(m))


def compose(p, q):
    """p after q: (compose(p, q))(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles(p):
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def cycle_type(p):
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def num_cycles(p):
    return len(cycles(p))


@lru_cache(maxsize=None)
def all_perms(m):
    return tuple(itertools.permutations(range(m)))


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


def preserves_blocks(p, k):
    """True when p maps {0..k-1} into itself (hence lives in S_k x S_rest)."""
    return all(p[i] < k for i in range(k))
