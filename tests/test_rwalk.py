import importlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarwords import freegroup as fg
from haarwords import rwalk
from haarwords.errors import (ResourceCapError, TheoremViolationError, UnsupportedSizeError,
                              ValidationError)
from haarwords.freegroup import Word
from oracles import is_proper_power


def reasonable(measure):
    """The paper's reasonable measures: symmetric, with an identity atom,
    and generating."""
    return measure.symmetric and measure.contains_identity and measure.generating


def test_measure_flags():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    assert mu.symmetric and mu.generating and not mu.contains_identity
    assert not reasonable(mu)
    lazy = rwalk.WalkMeasure.lazy_uniform(2)
    assert reasonable(lazy)
    half = Fraction(1, 2)
    non_gen = rwalk.WalkMeasure({Word((1,), 2): half, Word((-1,), 2): half}, rank=2)
    assert non_gen.symmetric and not non_gen.generating
    asym = rwalk.WalkMeasure({Word((1,), 2): half, Word((2,), 2): half}, rank=2)
    assert not asym.symmetric


def test_generating_detection_for_longer_words():
    # {ab, ba} generates a proper subgroup of F_2; adding a generator fixes it
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    ab, ba = fg.parse_word("ab"), fg.parse_word("ba")
    m1 = rwalk.WalkMeasure({ab: quarter, ab.inverse(): quarter,
                            ba: quarter, ba.inverse(): quarter}, rank=2)
    assert not m1.generating
    a = fg.parse_word("a")
    m2 = rwalk.WalkMeasure({ab: quarter, ab.inverse(): quarter,
                            a: quarter, a.inverse(): quarter}, rank=2)
    assert m2.generating


def test_measure_validation():
    with pytest.raises(ValidationError):
        rwalk.WalkMeasure({Word((1,), 1): Fraction(1, 2)})
    with pytest.raises(ValidationError):
        rwalk.WalkMeasure({Word((1,), 1): Fraction(3, 2),
                           Word((-1,), 1): Fraction(-1, 2)})


def test_return_probability_examples():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    assert rwalk.return_probability(mu, 2) == Fraction(1, 4)
    assert rwalk.return_probability(mu, 4) == Fraction(7, 64)
    assert rwalk.return_probability(mu, 3) == 0
    assert rwalk.return_probability(mu, 0) == 1


def test_return_probability_radial_vs_convolution():
    cases = [(rwalk.WalkMeasure.uniform_generators(2), 8),
             (rwalk.WalkMeasure.lazy_uniform(2), 8),
             (rwalk.WalkMeasure.uniform_generators(1), 12),
             (rwalk.WalkMeasure.lazy_uniform(1), 12)]
    for measure, max_steps in cases:
        hist = rwalk._convolve_distribution(measure, max_steps)
        e = Word((), measure.rank)
        for steps in range(max_steps + 1):
            assert rwalk.return_probability(measure, steps) == \
                hist[steps].get(e, Fraction(0))


def test_return_probability_caps():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    with pytest.raises(UnsupportedSizeError):
        rwalk.return_probability(mu, 41)
    q = Fraction(1, 4)
    ab, ba = fg.parse_word("ab"), fg.parse_word("ba")
    general = rwalk.WalkMeasure({ab: q, ab.inverse(): q, ba: q, ba.inverse(): q},
                                rank=2)
    with pytest.raises(UnsupportedSizeError):
        rwalk.return_probability(general, 21)


def test_submultiplicativity_of_returns():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    probs = rwalk._radial_return_probabilities(mu, 40)
    for m1 in range(1, 10):
        for m2 in range(1, 10):
            assert probs[2 * (m1 + m2)] >= probs[2 * m1] * probs[2 * m2]


def _loop_return_probabilities(measure, steps):
    """Reference distance-chain DP, one mass at a time."""
    r = measure.rank
    p0, p1 = rwalk._radial_transition(measure)
    dist = [Fraction(0)] * (steps + 1)
    dist[0] = Fraction(1)
    out = [dist[0]]
    fwd = p1 * (2 * r - 1)
    for _ in range(steps):
        new = [Fraction(0)] * (steps + 1)
        for d, mass in enumerate(dist):
            if d == 0:
                new[0] += mass * p0
                new[1] += mass * p1 * 2 * r
            else:
                new[d] += mass * p0
                new[d - 1] += mass * p1
                if d + 1 <= steps:
                    new[d + 1] += mass * fwd
        dist = new
        out.append(dist[0])
    return out


def _radial_measure(r, lazy):
    return rwalk.WalkMeasure.lazy_uniform(r) if lazy else rwalk.WalkMeasure.uniform_generators(r)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("lazy", [False, True])
def test_radial_brackets_match_scalar_loops(r, lazy):
    mu = _radial_measure(r, lazy)
    fractions = rwalk._radial_return_probabilities(mu, 40)
    assert fractions == _loop_return_probabilities(mu, 40)
    assert all(type(p) is Fraction for p in fractions)


def test_spectral_radius_kesten():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    bracket = rwalk.spectral_radius(mu, ball_radius=8)
    kesten = math.sqrt(3) / 2
    assert bracket.lower <= kesten <= bracket.upper
    assert bracket.width() <= 4 * math.ulp(kesten)
    probs = rwalk._radial_return_probabilities(mu, 40)
    for n in range(41):
        assert float(probs[n]) <= bracket.upper ** n + 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("lazy", [False, True])
def test_kesten_closed_form_against_returns_and_balls(r, lazy):
    """Two routes the closed form does not use.  Every even-step return
    probability gives P(2m)^(1/2m) <= rho.  The ball of radius R holds the
    radial test function q^(-d/2) sin(pi (d + 1) / (R + 2)), on which the
    walk without its identity atom acts as at least rho' cos(pi / (R + 2))
    times itself (q = 2r - 1, rho' = 2 p1 sqrt(q)); so the compressed norm
    lies in [p0 + rho' cos(pi / (R + 2)), rho]."""
    mu = _radial_measure(r, lazy)
    bracket = rwalk.spectral_radius(mu)
    assert bracket.details == {"closed_form": "Kesten"}
    assert 0 <= bracket.width() <= 4 * math.ulp(bracket.upper)
    if r == 1:
        assert bracket.upper <= 1.0
    probs = rwalk._radial_return_probabilities(mu, 40)
    for m in range(1, 21):
        assert float(probs[2 * m]) ** (1 / (2 * m)) <= bracket.upper
    radius = 8 if r < 3 else 7            # radius 8 on F_3 is over the ball cap
    ball = rwalk._compressed_norm({w: complex(p) for w, p in mu.support.items()}, r, radius)
    p0, p1 = (float(p) for p in rwalk._radial_transition(mu))
    radial = p0 + 2 * p1 * math.sqrt(2 * r - 1) * math.cos(math.pi / (radius + 2))
    assert radial - 1e-9 <= ball <= bracket.upper


def test_spectral_radius_point_mass():
    mu = rwalk.WalkMeasure({Word((), 2): Fraction(1)}, rank=2)
    bracket = rwalk.spectral_radius(mu)
    assert bracket.lower > 0.999 and bracket.upper <= 1.0 + 1e-9


def test_spectral_radius_general_measure_brackets():
    q = Fraction(1, 4)
    ab, ba = fg.parse_word("ab"), fg.parse_word("ba")
    general = rwalk.WalkMeasure({ab: q, ab.inverse(): q, ba: q, ba.inverse(): q},
                                rank=2)
    bracket = rwalk.spectral_radius(general)
    assert 0 < bracket.lower <= bracket.upper == 1.0
    assert "closed_form" not in bracket.details      # not radial: no Kesten path


def test_ball_compression_monotone():
    a_map = {fg.parse_word(s): 1.0 for s in ("a", "A", "b", "B")}
    values = [rwalk._compressed_norm(a_map, 2, radius) for radius in (2, 4, 6, 8)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9
    assert values[-1] <= 2 * math.sqrt(3) + 1e-6


def test_compressed_norm_matches_dense_svd():
    e = Word((), 2)
    maps = [
        {fg.parse_word(s): 1.0 for s in ("a", "A", "b", "B")},
        {fg.parse_word("ab"): 1.0, fg.parse_word("BA"): 2.0, fg.parse_word("a"): 0.5j, e: 0.3},
        {fg.parse_word("aab"): 1 - 1j, fg.parse_word("b"): 0.25},
    ]
    for a_map in maps:
        for radius in (1, 2, 3):
            words = fg.ball(radius, 2)
            index = {w: i for i, w in enumerate(words)}
            dense = np.zeros((len(words), len(words)), dtype=complex)
            for s, c in a_map.items():
                for j, g in enumerate(words):
                    i = index.get(s * g)
                    if i is not None:
                        dense[i, j] += c
            sigma_max = float(np.linalg.svd(dense, compute_uv=False)[0])
            assert abs(rwalk._compressed_norm(a_map, 2, radius) - sigma_max) < 1e-9


def test_compressed_norm_values_are_stable():
    # The Lanczos sums round differently with more BLAS threads, so the
    # exact floats are pinned to one thread, as the benchmark runs them.
    script = ("from haarwords import freegroup as fg, rwalk\n"
              "a_map = {fg.parse_word(s): 1.0 for s in ('a', 'A', 'b', 'B')}\n"
              "print([rwalk._compressed_norm(a_map, 2, radius) for radius in (8, 9)])\n")
    src = os.path.dirname(os.path.dirname(rwalk.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[3.320059590314452, 3.343620014485019]"


def test_compression_cap_raises_before_allocating():
    a_map = {fg.parse_word(s): 1.0 for s in ("a", "A", "b", "B")}
    assert fg.ball_size(12, 2) > rwalk.BALL_COMPRESSION_CAP
    importlib.import_module("haarwords.montecarlo")  # loaded lazily by the call
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            rwalk._compressed_norm(a_map, 2, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_rank_zero_norm_bound_terminates():
    assert rwalk.reduced_norm_lower_bound([(Word(()), 2.0)], 0) == pytest.approx(2.0)


def haagerup_check(a_map, radius=None):
    """For a finitely supported a, compare the compressed-ball lower bound
    for ||lambda(a)|| with the rapid-decay upper bound 3 (1 + q^2) ||a||_2.
    Returns {l2, upper, lower, radius, q}."""
    if not a_map:
        raise ValidationError("empty support")
    q = max(len(w) for w in a_map)
    r = max(max((w.rank for w in a_map), default=1), 1)
    l2 = math.sqrt(sum(abs(c) ** 2 for c in a_map.values()))
    upper = 3.0 * (1 + q * q) * l2
    if radius is None:
        radius = q + 3
    lower = rwalk._compressed_norm(a_map, r, radius)
    record = {"l2": l2, "upper": upper, "lower": lower, "radius": radius, "q": q}
    if lower > upper * (1 + 1e-9):
        raise TheoremViolationError("rapid-decay upper bound violated", details=record)
    return record


def test_haagerup_check_examples():
    rec = haagerup_check({fg.parse_word("a"): 1.0})
    assert abs(rec["l2"] - 1) < 1e-12
    assert abs(rec["upper"] - 6) < 1e-12
    assert rec["lower"] <= 1.0 + 1e-9 and rec["lower"] > 0.99
    rec = haagerup_check({Word(()): 1.0})
    assert rec["upper"] == 3.0 and abs(rec["lower"] - 1.0) < 1e-9
    gens = {fg.parse_word(s): 1.0 for s in ("a", "A", "b", "B")}
    rec = haagerup_check(gens, radius=9)
    assert rec["lower"] > 3.25
    assert rec["lower"] <= 2 * math.sqrt(3) + 1e-6
    assert rec["lower"] <= rec["upper"]


def test_proper_power_stats_first_step_zero():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    stats = rwalk.proper_power_stats(mu, steps=4, samples=2000, seed=5)
    assert stats.rows[0]["phat"] == 0.0
    assert stats.parity_locked


def test_proper_power_stats_matches_exact_enumeration():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    hist = rwalk._convolve_distribution(mu, 6)
    exact = []
    for t in range(1, 7):
        p = sum(prob for w, prob in hist[t].items()
                if is_proper_power(w) is not None)
        exact.append(float(p))
    stats = rwalk.proper_power_stats(mu, steps=6, samples=40000, seed=11)
    for t, row in enumerate(stats.rows):
        se = math.sqrt(max(exact[t] * (1 - exact[t]), 1e-12) / stats.samples)
        assert abs(row["phat"] - exact[t]) <= 5 * se + 1e-9


def test_vectorized_proper_power_against_reference():
    rng = np.random.default_rng(3)
    words = []
    for _ in range(300):
        length = rng.integers(0, 12)
        w = Word(tuple(int(x) for x in rng.choice([1, -1, 2, -2], size=length)), 2)
        words.append(w)
    width = 16
    buf = np.zeros((len(words), width), dtype=np.int8)
    lengths = np.zeros(len(words), dtype=np.int64)
    for i, w in enumerate(words):
        lengths[i] = len(w)
        buf[i, :len(w)] = w.letters
    mask = fg.proper_power_mask(buf, lengths)
    for i, w in enumerate(words):
        assert mask[i] == (is_proper_power(w) is not None)


def _cyclically_reduced(r, picks):
    """A cyclically reduced letter tuple of length len(picks): pick k takes
    entry k (mod the choices) among the letters that cancel neither the
    previous letter nor, in the last position, the first."""
    alphabet = [x for i in range(1, r + 1) for x in (i, -i)]
    out = []
    for j, k in enumerate(picks):
        allowed = [x for x in alphabet if not out or x != -out[-1]]
        if j == len(picks) - 1 and out:
            allowed = [x for x in allowed if x != -out[0]]
        out.append(allowed[k % len(allowed)])
    return tuple(out)


_picks = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)
_conjugators = st.lists(st.integers(min_value=0, max_value=5), max_size=4)


@st.composite
def _proper_power_rows(draw):
    """Words shaped like the walker's rows: random reduced words of length
    0..31, conjugated powers u^k (k = 2..6), one-letter powers of prime
    length, length-30 cores with periods 6, 10 and 15, and near misses
    (a power times one more letter)."""
    r = draw(st.integers(min_value=1, max_value=3))
    alphabet = [x for i in range(1, r + 1) for x in (i, -i)]
    kind = st.sampled_from(["random", "power", "prime", "period30", "near"])
    words = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        case = draw(kind)
        if case == "random":
            w = Word(tuple(draw(st.lists(st.sampled_from(alphabet), max_size=31))), r)
        elif case == "prime":
            q = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
            w = Word((draw(st.sampled_from(alphabet)),) * q, r)
        else:
            if case == "period30":
                p = draw(st.sampled_from([6, 10, 15]))
                u = Word(_cyclically_reduced(r, draw(st.lists(
                    st.integers(min_value=0, max_value=5), min_size=p, max_size=p))), r)
                w = u ** (30 // p)
            else:
                w = Word(_cyclically_reduced(r, draw(_picks)), r) ** draw(
                    st.integers(min_value=2, max_value=6))
            if case == "near":
                w = w * Word((draw(st.sampled_from(alphabet)),), r)
            g = Word(_cyclically_reduced(r, draw(_conjugators)), r) if draw(
                st.booleans()) else Word((), r)
            w = g * w * g.inverse()
        words.append(w)
    return r, words, draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_proper_power_rows())
def test_vectorized_proper_power_matches_kmp_on_walker_rows(case):
    r, words, seed = case
    alphabet = np.array([x for i in range(1, r + 1) for x in (i, -i)], dtype=np.int8)
    width = max(len(w) for w in words) + 3
    # stale non-zero letters past each row's end, as the walker leaves them
    buf = np.random.default_rng(seed).choice(alphabet, size=(len(words), width))
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    for i, w in enumerate(words):
        buf[i, :len(w)] = w.letters
    want = [is_proper_power(w) is not None for w in words]
    assert fg.proper_power_mask(buf, lengths).tolist() == want
    wide = fg._prime_shifts(2 * width)
    assert fg.proper_power_mask(buf, lengths, wide).tolist() == want


def test_prime_shifts_table():
    table = fg._prime_shifts(30)
    assert table.shape == (31, 3)
    assert table[30].tolist() == [15, 10, 6]
    assert table[7].tolist() == [1, 0, 0]
    assert table[12].tolist() == [6, 4, 0]
    assert not table[:2].any()
    assert fg._prime_shifts(0).shape == (1, 1)


def test_walker_cap_raises_before_allocating():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    just_over = rwalk.WALK_BUFFER_CAP // 31 + 1
    # the first call of a process sets up numpy's random machinery (about
    # 1 MB); refuse once outside the window so only the refusal is measured
    with pytest.raises(ResourceCapError, match="exceeds cap"):
        rwalk.proper_power_stats(mu, 30, just_over, 1)
    tracemalloc.start()
    try:
        for steps, samples in ((30, just_over), (10**4, 10**9)):
            with pytest.raises(ResourceCapError, match="exceeds cap"):
                rwalk.proper_power_stats(mu, steps, samples, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_walker_cap_bounds_the_real_peak(monkeypatch):
    """The cap counts the per-sample step temporaries, not only the int8
    stack, so a walk just under it peaks at about the cap."""
    cap = 4_000_000
    monkeypatch.setattr(rwalk, "WALK_BUFFER_CAP", cap)
    for mu, steps in ((rwalk.WalkMeasure.uniform_generators(2), 1),
                      (rwalk.WalkMeasure.uniform_generators(2), 30),
                      (_support_measure(["ab", "BA", "a", "A"], 2), 20)):
        width = steps * max(len(w) for w in mu.support) + 1
        samples = cap // (width + rwalk.WALK_STEP_BYTES)
        tracemalloc.start()
        try:
            rwalk.proper_power_stats(mu, steps, samples, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cap
        with pytest.raises(ResourceCapError, match="exceeds cap"):
            rwalk.proper_power_stats(mu, steps, samples + 1, 1)


def test_return_probabilities_are_exact_up_to_the_cap():
    mu = rwalk.WalkMeasure.lazy_uniform(2)
    stats = rwalk.proper_power_stats(mu, steps=6, samples=10, seed=1)
    assert stats.return_probabilities == [rwalk.return_probability(mu, n) for n in range(7)]
    mu = rwalk.WalkMeasure.uniform_generators(2)
    stats = rwalk.proper_power_stats(mu, steps=42, samples=10, seed=1)
    assert len(stats.return_probabilities) == rwalk.RADIAL_EXACT_STEP_CAP + 1
    assert stats.return_probabilities[40] == rwalk.return_probability(mu, 40)


def _support_measure(texts, rank):
    """The uniform measure on the given words ('' is the identity)."""
    words = [fg.parse_word(t, rank) for t in texts]
    return rwalk.WalkMeasure({w: Fraction(1, len(words)) for w in words}, rank=rank)


def _replayed_walks(measure, steps, samples, seed):
    """The oracle for the vectorised walker: per step, the same single
    `choice` draw over the support in support order, then one `Word`
    product per sample.  Yields the list of sample words after each step."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    words = list(measure.support)
    probs = np.array([float(p) for p in measure.support.values()])
    probs = probs / probs.sum()
    gs = [Word((), measure.rank)] * samples
    for _ in range(steps):
        pick = rng.choice(len(words), size=samples, p=probs)
        gs = [g * words[k] for g, k in zip(gs, pick)]
        yield gs


def _assert_walker_matches_words(measure, steps, samples, seed):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    walks = rwalk._walker(measure, steps, samples, rng)
    for (t, buf, lengths), gs in zip(walks, _replayed_walks(measure, steps, samples, seed)):
        for i, g in enumerate(gs):
            assert lengths[i] == len(g), (t, i)
            assert tuple(int(x) for x in buf[i, :lengths[i]]) == g.letters, (t, i)


@pytest.mark.parametrize("texts", [("ab", "BA", "ba", "AB"), ("", "a", "A", "abA", "aBA"),
                                   ("", "a", "A", "b", "B")])
def test_walker_rows_are_word_products(texts):
    _assert_walker_matches_words(_support_measure(texts, 2), 12, 3000, 17)


_supports = st.integers(min_value=1, max_value=3).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(st.lists(st.sampled_from([x for i in range(1, r + 1) for x in (i, -i)]),
                          min_size=1, max_size=3), min_size=1, max_size=4),
        st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_supports, st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32))
def test_walker_matches_replayed_word_products(case, steps, seed):
    r, letter_lists, with_identity = case
    support = {Word(tuple(letters), r) for letters in letter_lists}
    if with_identity:
        support.add(Word((), r))
    measure = rwalk.WalkMeasure({w: Fraction(1, len(support)) for w in support}, rank=r)
    _assert_walker_matches_words(measure, steps, 40, seed)


@pytest.mark.parametrize("texts", [("", "a", "A", "abA", "aBA"), ("ab", "BA", "a", "A")])
def test_proper_power_hits_match_word_loop(texts):
    measure = _support_measure(texts, 2)
    stats = rwalk.proper_power_stats(measure, steps=10, samples=800, seed=3)
    for row, gs in zip(stats.rows, _replayed_walks(measure, 10, 800, 3)):
        assert row["hits"] == sum(is_proper_power(g) is not None for g in gs)


def test_proper_power_stats_non_radial_matches_exact():
    measure = _support_measure(("ab", "BA", "a", "A"), 2)
    assert not measure.is_radial_nearest_neighbor()
    hist = rwalk._convolve_distribution(measure, 6)
    stats = rwalk.proper_power_stats(measure, steps=6, samples=40000, seed=23)
    assert stats.return_probabilities == []
    for t, row in enumerate(stats.rows, start=1):
        exact = float(sum(p for w, p in hist[t].items() if is_proper_power(w) is not None))
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / stats.samples)
        assert abs(row["phat"] - exact) <= 5 * se + 1e-9


def test_parity_lock_follows_support_lengths():
    odd = _support_measure(("a", "A", "abA", "aBA"), 2)
    assert rwalk.proper_power_stats(odd, steps=3, samples=10, seed=1).parity_locked
    mixed = _support_measure(("ab", "BA", "a", "A"), 2)
    assert not rwalk.proper_power_stats(mixed, steps=3, samples=10, seed=1).parity_locked


def test_slope_of_proper_power_decay():
    mu = rwalk.WalkMeasure.uniform_generators(2)
    stats = rwalk.proper_power_stats(mu, steps=30, samples=30000, seed=13)
    log_rho = math.log(math.sqrt(3) / 2)
    assert abs(stats.slope - log_rho) < 0.05
