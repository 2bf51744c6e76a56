import math
from fractions import Fraction

import numpy as np
import pytest

from haarwords import bounds
from haarwords.errors import ValidationError
from haarwords.ratfunc import Polynomial
from oracles import epsilon_net_check, markov_check

CHEB_T8 = [1.0, 0.0, -32.0, 0.0, 160.0, 0.0, -256.0, 0.0, 128.0]


def test_g_polynomial_small_cases():
    assert bounds.g_polynomial(1) == Polynomial((1, 0, -1))
    g2 = Polynomial((1, 0, -1)) ** 2 * Polynomial((1, 0, -4))
    assert bounds.g_polynomial(2) == g2


def test_g_eval_examples():
    assert bounds.g_polynomial(1)(0) == 1.0
    assert abs(bounds.g_polynomial(2)(Fraction(1, 10)) - 0.940896) < 1e-12
    ts = np.linspace(0, 1 / 200, 100)
    vals = [bounds.g_polynomial(10)(Fraction(t).limit_denominator(10**9)) for t in ts]
    assert all(0.5 <= v <= 1.0 for v in vals)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_g_derivative_vs_finite_differences(i):
    L = 5
    h = 1e-5
    for t in np.linspace(1e-4, 1 / (2 * L * L) - 1e-4, 7):
        stencil = [bounds.g_polynomial(L).derivative(i - 1)(
                       Fraction(t + k * h).limit_denominator(10**12)) for k in (-1, 1)]
        fd = (stencil[1] - stencil[0]) / (2 * h)
        exact = bounds.g_polynomial(L).derivative(i)(Fraction(t).limit_denominator(10**12))
        assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1.0) + 1e-4


def test_g_derivative_bound_check_examples():
    rec = bounds.g_derivative_bound_check(5, 0)
    assert rec["g_min"] >= 0.5 and rec["g_max"] <= 1.0
    rec = bounds.g_derivative_bound_check(5, 2)
    assert rec["sup_derivative"] <= rec["derivative_bound"]
    rec = bounds.g_derivative_bound_check(10, 6)
    assert rec["sup_derivative"] <= rec["derivative_bound"]
    assert rec["inverse_bound_holds"]


def test_markov_chebyshev_extremal():
    rec = markov_check(CHEB_T8, 1)
    assert abs(rec["lhs"] - 64.0) < 1e-9
    assert abs(rec["ratio"] - 1.0) < 1e-9


def test_markov_linear_equality():
    rec = markov_check([0.0, 1.0], 1)
    assert abs(rec["ratio"] - 1.0) < 1e-12


def test_markov_random_polynomials():
    rng = np.random.default_rng(20)
    for _ in range(60):
        deg = int(rng.integers(1, 11))
        coeffs = rng.standard_normal(deg + 1)
        coeffs[-1] += np.sign(coeffs[-1]) + 1e-3
        for k in range(1, min(deg, 3) + 1):
            rec = markov_check(list(coeffs), k, interval=(-1.0, 1.0))
            assert rec["ratio"] <= 1 + 1e-9


def test_markov_scaled_interval():
    rec = markov_check(CHEB_T8, 2, interval=(0.0, 0.5))
    assert rec["ratio"] <= 1 + 1e-9
    with pytest.raises(ValidationError):
        markov_check(CHEB_T8, 0)


def test_epsilon_net_constant_and_square():
    rec = epsilon_net_check([3.0], 5)
    assert rec["net_ok"]
    rec = epsilon_net_check([0.0, 0.0, 1.0], 4)
    assert rec["net_ok"]
    assert all(c["ok"] for c in rec["derivative_checks"])


def test_epsilon_net_random_quintics():
    rng = np.random.default_rng(8)
    for _ in range(30):
        coeffs = list(rng.standard_normal(6))
        rec = epsilon_net_check(coeffs, 25)
        assert rec["net_ok"]
        assert all(c["ok"] for c in rec["derivative_checks"])
    with pytest.raises(ValidationError):
        epsilon_net_check(coeffs, 24)


def fit_decay_constant(profile, ts):
    """M = inf over the grid of -log|mu-hat(t)| * log(2+t)^{1+eps} / t; a
    positive fit certifies quasi-exponential decay on the grid."""
    best = math.inf
    for t in ts:
        t = float(t)
        if t <= 0:
            continue
        v = abs(bounds.bump_fourier(profile, t))
        if v == 0.0:
            continue
        m = -math.log(v) * math.log(2.0 + t) ** (1.0 + profile.epsilon) / t
        best = min(best, m)
    return best


def periodized_coefficient(profile, alpha, k):
    """Fourier coefficient of the 2-pi periodization scaled to (-alpha, alpha):
    phi_alpha-hat(k) = alpha/(2 pi) mu-hat(k alpha)."""
    if not 0 < alpha < math.pi:
        raise ValidationError("alpha must lie in (0, pi)")
    return alpha / (2 * math.pi) * bounds.bump_fourier(profile, k * alpha)


@pytest.fixture(scope="module")
def profile():
    return bounds.BumpProfile(0.5)


def test_bump_profile_normalization(profile):
    assert abs(profile.head_sum + profile.tail_sum - 1.0) < 1e-9
    a = profile.a(np.arange(1, 50))
    assert np.all(np.diff(a) < 0)


def test_bump_fourier_basics(profile):
    assert bounds.bump_fourier(profile, 0.0) == 1.0
    assert bounds.bump_fourier(profile, 3.0) == bounds.bump_fourier(profile, -3.0)
    assert abs(bounds.bump_fourier(profile, 5.0)) < 1.0


def test_bump_fourier_against_direct_product(profile):
    # direct high-truncation product as an oracle at moderate t
    for t in (2.0, 11.0, 47.0):
        J = 2_000_000
        js = np.arange(1, J + 1, dtype=float)
        direct = float(np.prod(np.sinc(t * profile.a(js) / np.pi)))
        clever = bounds.bump_fourier(profile, t)
        assert abs(direct - clever) < 1e-7 * max(abs(direct), 1e-3)


def test_bump_envelope_and_decay_fit(profile):
    ts = np.geomspace(1.0, 10000.0, 40)
    check = bounds.bump_envelope_check(profile, ts)
    assert check["all_ok"]
    m = fit_decay_constant(profile, ts)
    assert m > 0


def test_periodized_coefficients(profile):
    alpha = math.pi / 3
    ts = np.geomspace(1.0, 1100.0, 60)
    m = fit_decay_constant(profile, list(ts) + [k * alpha for k in range(1, 40)])
    for k in list(range(1, 30)) + [100, 500, 1000]:
        coeff = periodized_coefficient(profile, alpha, k)
        envelope = math.exp(-m * abs(k) * alpha /
                            math.log(2 + abs(k) * alpha) ** 1.5)
        assert abs(coeff) <= envelope * (1 + 1e-9)
    with pytest.raises(ValidationError):
        periodized_coefficient(profile, 4.0, 1)


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
def test_integrate_tail_agrees_with_quad(monkeypatch, eps):
    # second route: scipy's quad on the very integrands the profile hands
    # to integrate_tail, the p = 1 correction at x0 = 200001 and the
    # p = 2, 4, 6, 8 tails at x0 = 1025
    integrate = pytest.importorskip("scipy.integrate")
    port = bounds.integrate_tail
    calls = []

    def recording(f, x0):
        value = port(f, x0)
        calls.append((f, x0, value))
        return value

    monkeypatch.setattr(bounds, "integrate_tail", recording)
    profile = bounds.BumpProfile(eps)
    for p in (2, 4, 6, 8):
        profile.tail_power_sum(1024, p)
    assert [x0 for _, x0, _ in calls] == [200001.0] + [1025.0] * 4
    for i, (f, x0, value) in enumerate(calls):
        want, abserr = integrate.quad(f, x0, np.inf, limit=200)
        assert abs(value - want) <= abserr
        if i == 0:  # the p = 1 correction, which sets the normalisation c
            assert abs(value - want) <= 1e-12 * abs(want)
