from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarwords import freegroup as fg
from haarwords.errors import RankError, ResourceCapError, ShapeError, WordParseError


def test_parse_examples():
    w = fg.parse_word("abAB")
    assert w.letters == (1, 2, -1, -2)
    assert fg.parse_word("aA").is_identity()
    assert fg.parse_word("aab").inverse().format() == "BAA"


def test_parse_errors_name_offset_and_rank():
    with pytest.raises(WordParseError) as err:
        fg.parse_word("ab1c")
    assert err.value.offset == 2
    with pytest.raises(RankError):
        fg.parse_word("abc", rank=2)


letters_strategy = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda i: st.sampled_from([i, -i])),
    max_size=20)


@given(letters_strategy)
def test_reduction_idempotent(letters):
    w = fg.Word(letters)
    assert fg.Word(w.letters).letters == w.letters
    for a, b in zip(w.letters, w.letters[1:]):
        assert a != -b


@given(letters_strategy)
def test_format_parse_roundtrip(letters):
    w = fg.Word(letters)
    assert fg.parse_word(w.format()).letters == w.letters


@given(letters_strategy, letters_strategy)
def test_product_and_inverse(l1, l2):
    w, v = fg.Word(l1), fg.Word(l2)
    assert (w * w.inverse()).is_identity()
    assert ((w * v) * v.inverse()).letters == w.letters


def test_cyclic_reduce_examples():
    form = fg.cyclic_reduce(fg.parse_word("abA"))
    assert form.core.format() == "b" and form.conjugator.format() == "a"
    form = fg.cyclic_reduce(fg.parse_word("abAB"))
    assert form.core.format() == "abAB" and form.conjugator.is_identity()
    form = fg.cyclic_reduce(fg.Word(()))
    assert form.core.is_identity() and form.conjugator.is_identity()


@given(letters_strategy)
def test_cyclic_reduce_invariants(letters):
    w = fg.Word(letters)
    form = fg.cyclic_reduce(w)
    core = form.core.letters
    assert not (len(core) >= 2 and core[0] == -core[-1])
    assert form.recompose().letters == w.letters
    assert len(core) + 2 * len(form.conjugator) == len(w)


def test_proper_power_examples():
    root, e = fg.is_proper_power(fg.parse_word("abab"))
    assert root.format() == "ab" and e == 2
    assert fg.is_proper_power(fg.parse_word("abAB")) is None
    root, e = fg.is_proper_power(fg.parse_word("aaaa"))
    assert root.format() == "a" and e == 4
    assert fg.is_proper_power(fg.Word(())) is None


def test_proper_power_exhaustive_oracle():
    # forward-construct all powers h^d that land in the ball of radius 8
    # and compare against the detector on every word there; conjugated
    # roots as long as 7 letters can still square into the ball
    powers = {}
    for h in fg.ball(7, 2):
        if h.is_identity():
            continue
        for d in range(2, 9):
            w = h**d
            if len(w) > 8:
                break  # |h^d| = 2|conj| + d|core| grows with d
            prev = powers.get(w.letters, 0)
            powers[w.letters] = max(prev, d)
    for w in fg.ball(8, 2):
        got = fg.is_proper_power(w)
        if w.letters in powers:
            assert got is not None
            root, e = got
            assert e == powers[w.letters]
            assert (root**e).letters == w.letters
        else:
            assert got is None


@given(letters_strategy)
def test_proper_power_cyclic_invariance(letters):
    w = fg.Word(letters)
    core = fg.cyclic_reduce(w).core
    a, b = fg.is_proper_power(w), fg.is_proper_power(core)
    assert (a is None) == (b is None)
    if a is not None:
        assert a[1] == b[1]


def _minimal(text):
    return fg.whitehead_minimal(fg.parse_word(text))


def test_whitehead_minimal_examples():
    commutator = _minimal("abAB")
    assert commutator.format() == "abAB"
    for text in ("aaabABAA", "ababABBA", "abcABC"):
        assert _minimal(text) == commutator
    # [a, b^2] = abbABB
    assert _minimal("abaabABAAB") == _minimal("abbABB")
    assert len(_minimal("abaabABAAB")) == 6
    for text in ("ab", "aB", "aab", "abb"):
        assert _minimal(text).format() == "a"
    for text in ("abAB", "aabAAB", "abAABB", "aabAb", "aabbAB"):
        assert len(_minimal(text)) == len(text)
    assert _minimal("").is_identity() and _minimal("aBbA").is_identity()


def test_whitehead_minimal_above_rank_cap_only_reduces_and_renames():
    assert fg.WHITEHEAD_RANK_CAP == 4
    assert _minimal("abcd").format() == "a"          # primitive, four generators
    assert _minimal("fEDCBAF").format() == "abcde"   # primitive, five generators


def nielsen_image(w, moves):
    """Apply x_i -> y x_i (left) or x_i y, one substitution per move."""
    for i, y, left in moves:
        image = (y, i) if left else (i, y)
        inverse = tuple(-z for z in reversed(image))
        letters = []
        for x in w.letters:
            letters.extend(image if x == i else inverse if x == -i else (x,))
        w = fg.Word(letters)
    return w


rank3_letters = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(lambda i: st.sampled_from([i, -i])),
    max_size=10)
nielsen_moves = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([1, 2]), st.sampled_from([1, -1]), st.booleans())
    .map(lambda move: (move[0], move[2] * ((move[0] + move[1] - 1) % 3 + 1), move[3])),
    max_size=4)


@given(letters_strategy)
def test_whitehead_minimal_is_cyclically_reduced_and_idempotent(letters):
    w = fg.Word(letters)
    m = fg.whitehead_minimal(w)
    assert fg.cyclic_reduce(m).core == m
    assert len(m) <= len(fg.cyclic_reduce(w).core)
    assert fg.whitehead_minimal(m) == m


@given(rank3_letters, rank3_letters, nielsen_moves)
def test_whitehead_minimal_is_an_orbit_invariant(letters, conjugator, moves):
    # Whitehead: the minimal length is the same across the Aut(F_3) orbit;
    # conjugates share the canonical form itself
    w, v = fg.Word(letters), fg.Word(conjugator)
    m = fg.whitehead_minimal(w)
    assert fg.whitehead_minimal(v * w * v.inverse()) == m
    assert len(fg.whitehead_minimal(nielsen_image(w, moves))) == len(m)


def test_evaluate_word_examples():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    out = fg.evaluate_word(fg.parse_word("aA"), (u,))
    assert np.allclose(out, np.eye(4))
    d1 = np.diag(np.exp(2j * np.pi * rng.random(4)))
    d2 = np.diag(np.exp(2j * np.pi * rng.random(4)))
    out = fg.evaluate_word(fg.parse_word("abAB"), (d1, d2))
    assert np.allclose(out, np.eye(4))
    out = fg.evaluate_word(fg.parse_word("aa"), (u,))
    assert np.allclose(out, u @ u)


def test_evaluate_word_is_multiplicative():
    rng = np.random.default_rng(11)
    us = tuple(np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
               for _ in range(2))
    w, v = fg.parse_word("abA"), fg.parse_word("aBB")
    lhs = fg.evaluate_word(w * v, us)
    rhs = fg.evaluate_word(w, us) @ fg.evaluate_word(v, us)
    assert np.allclose(lhs, rhs)


def test_evaluate_word_on_stacks_matches_per_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = np.linalg.qr(rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))[0]
    a[1] = b[1]                    # one unitary in a stack of non-unitary matrices
    for text in ("", "aBA", "abAB"):
        w = fg.parse_word(text)
        stacked = fg.evaluate_word(w, (a, b))
        assert stacked.shape == (5, 3, 3)
        for s in range(5):
            assert np.allclose(stacked[s], fg.evaluate_word(w, (a[s], b[s])), atol=1e-12)
    identity = fg.evaluate_word(fg.parse_word(""), (a, b))
    assert np.array_equal(identity, np.broadcast_to(np.eye(3), (5, 3, 3)))
    with pytest.raises(ShapeError):
        fg.evaluate_word(fg.parse_word("ab"), (a, b[:4]))


def test_one_letter_word_is_a_copy_of_its_matrix():
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    m = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    for mats in ((u,), (m,)):
        out = fg.evaluate_word(fg.parse_word("a"), mats)
        assert np.array_equal(out, mats[0])
        assert not np.shares_memory(out, mats[0])
        inverse = fg.evaluate_word(fg.parse_word("A"), mats)
        assert np.allclose(inverse @ mats[0], np.eye(3), atol=1e-12)
        assert not np.shares_memory(inverse, mats[0])
    assert np.array_equal(fg.evaluate_word(fg.parse_word("A"), (u,)), u.conj().T)


def test_evaluate_word_shape_error():
    with pytest.raises(ShapeError):
        fg.evaluate_word(fg.parse_word("ab"), (np.eye(2), np.eye(3)))


def test_ball_counts_and_order():
    assert [w.format() for w in fg.ball(0, 2)] == [""]
    assert len(fg.ball(1, 2)) == 5
    assert len(fg.ball(3, 2)) == 53
    words = fg.ball(3, 2)
    assert words[0].is_identity()
    assert len({w.letters for w in words}) == len(words)
    assert all(len(w) <= 3 for w in words)


def test_ball_cap():
    with pytest.raises(ResourceCapError):
        fg.ball(10, 2, cap=100)


def _bfs_ball(radius, r):
    """Reference enumeration: grow every word of the last sphere by each
    letter, in the order a, A, b, B, ..., that does not cancel."""
    letter_order = [s * i for i in range(1, r + 1) for s in (1, -1)]
    words = [fg.Word((), r)]
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
                words.append(fg.Word(grown, r))
        frontier = nxt
    return words


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_ranked_ball_matches_bfs(r):
    for radius in range(7):
        oracle = _bfs_ball(radius, r)
        words = fg.ball(radius, r)
        assert [w.letters for w in words] == [w.letters for w in oracle]
        assert all(w.rank == r for w in words)
        ranked = fg.RankedBall(radius, r)
        assert len(ranked) == len(oracle) == fg.ball_size(radius, r)
        assert ranked.lengths.tolist() == [len(w) for w in oracle]


@lru_cache(maxsize=None)
def _oracle_index(radius, r):
    words = _bfs_ball(radius, r)
    return words, {w: i for i, w in enumerate(words)}


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(lambda r: st.tuples(
    st.just(r), st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=1, max_value=r).flatmap(lambda i: st.sampled_from([i, -i])),
             max_size=5))))
def test_left_multiply_matches_word_products(case):
    r, radius, letters = case
    s = fg.Word(letters, r)
    words, index = _oracle_index(radius, r)
    expected = [index.get(s * g, -1) for g in words]
    assert fg.RankedBall(radius, r).left_multiply(s).tolist() == expected


def test_left_multiply_drops_generators_beyond_rank():
    assert (fg.RankedBall(3, 2).left_multiply(fg.parse_word("c")) == -1).all()


def test_word_hash_separates_inverse_letters():
    assert hash(fg.Word((-1,))) != hash(fg.Word((-2,)))
    words = fg.ball(9, 2)
    assert len({hash(w) for w in words}) == len(words) == 39365
