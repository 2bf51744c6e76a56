"""Analytic gadget suite: the pole-clearing polynomial g_L and its
derivative bounds, Markov-brothers inequality checkers, epsilon-net
comparisons between an interval sup and values at reciprocal integers,
and smooth bump functions with quasi-exponentially decaying Fourier
transforms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import TheoremViolationError, ValidationError
from .ratfunc import Polynomial

G_L_CAP = 64
INV_G_CALIBRATED_CONSTANT = 8.0  # fitted, not asserted
GRID_SLACK = 1e-9
G_CHECK_GRID = 100  # evenly spaced points of [0, 1/(2 L^2)] in `g_derivative_bound_check`


@lru_cache(maxsize=None)
def g_polynomial(L):
    """g_L(x) = prod_{c=1}^{L} (1 - c^2 x^2)^{floor(L/c)}, exact coefficients."""
    if not 1 <= L <= G_L_CAP:
        raise ValidationError(f"L must be in 1..{G_L_CAP}")
    out = Polynomial((1,))
    for c in range(1, L + 1):
        out = out * Polynomial((1, 0, -c * c)) ** (L // c)
    return out


@lru_cache(maxsize=None)
def _g_derivative_float(L, order):
    return np.array([float(c) for c in g_polynomial(L).derivative(order).coeffs][::-1])


def g_eval(L, t, derivative_order=0):
    """Value of g_L^{(i)}(t); exact polynomial differentiated, evaluated at
    the exact binary rational t, returned as a float."""
    if derivative_order < 0:
        raise ValidationError("derivative order must be >= 0")
    p = g_polynomial(L).derivative(derivative_order)
    return float(p(Fraction(t)))


def _g_derivatives_on_grid(L, max_order, ts):
    """g_L^{(j)}(t) for j <= max_order on a float grid, shape (order+1, len(ts))."""
    return np.stack([np.polyval(_g_derivative_float(L, j), ts)
                     for j in range(max_order + 1)])


def _inv_g_derivatives(g_derivs):
    """Derivatives of 1/g from those of g via the Leibniz recursion
    sum_j C(i,j) g^(j) h^(i-j) = 0 for i >= 1."""
    orders = g_derivs.shape[0]
    h = np.empty_like(g_derivs)
    h[0] = 1.0 / g_derivs[0]
    for i in range(1, orders):
        acc = np.zeros_like(h[0])
        for j in range(1, i + 1):
            acc += math.comb(i, j) * g_derivs[j] * h[i - j]
        h[i] = -acc / g_derivs[0]
    return h


def g_derivative_bound_check(L, i):
    """Check 1/2 <= g_L <= 1 and |g_L^{(i)}| <= (3 i L^{3/2})^i on
    G_CHECK_GRID points of [0, 1/(2 L^2)]; also report how the 1/g_L
    derivative compares with 2 i! (C sqrt(i) L^{3/2})^i for the calibrated C."""
    if L < 1 or i < 0:
        raise ValidationError("need L >= 1 and i >= 0")
    ts = np.linspace(0.0, 1.0 / (2 * L * L), G_CHECK_GRID)
    derivs = _g_derivatives_on_grid(L, i, ts)
    g_vals = derivs[0]
    g_min, g_max = float(g_vals.min()), float(g_vals.max())
    bound_i = 1.0 if i == 0 else (3.0 * i * L**1.5) ** i
    sup_gi = float(np.abs(derivs[i]).max())

    inv = _inv_g_derivatives(derivs)
    sup_inv = float(np.abs(inv[i]).max())
    inv_bound = 2.0 * math.factorial(i) * (INV_G_CALIBRATED_CONSTANT * math.sqrt(max(i, 1)) * L**1.5) ** i
    record = {
        "L": L, "i": i, "grid": len(ts),
        "g_min": g_min, "g_max": g_max,
        "sup_derivative": sup_gi, "derivative_bound": bound_i,
        "sup_inverse_derivative": sup_inv,
        "inverse_bound_constant": INV_G_CALIBRATED_CONSTANT,
        "inverse_bound": inv_bound,
        "inverse_bound_holds": sup_inv <= inv_bound * (1 + GRID_SLACK),
    }
    if g_min < 0.5 - GRID_SLACK or g_max > 1.0 + GRID_SLACK:
        raise TheoremViolationError(f"g_{L} left [1/2, 1] on the grid", details=record)
    if sup_gi > bound_i * (1 + GRID_SLACK):
        raise TheoremViolationError(
            f"|g_{L}^({i})| exceeded (3 i L^1.5)^i on the grid", details=record)
    return record


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


# ---------------------------------------------------------------------------
# Bump functions: mu = law of sum a_j X_j, X_j uniform in [-1, 1], with
# a_j = c / (j log(2+j)^{1+eps}) normalized so sum a_j = 1.  Then
# mu-hat(t) = prod_j sinc(t a_j).


_NORMALIZATION_HEAD = 200_000
_SINC_LOG_COEFFS = (Fraction(-1, 6), Fraction(-1, 180), Fraction(-1, 2835), Fraction(-1, 37800))
_TAIL_THRESHOLD = 0.3

# QUADPACK's QK15I rule (dqk15i.f): the 15-point Kronrod abscissae of
# [-1, 1] as (positive half, centre last), their weights, and the weights
# of the embedded 7-point Gauss rule (zero where a node is Kronrod-only).
_QK15I_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993944,
              0.5860872354676911, 0.4058451513773972, 0.2077849550078985, 0.0)
_QK15I_WGK = (0.02293532201052922, 0.06309209262997855, 0.1047900103222502, 0.1406532597155259,
              0.1690047266392679, 0.1903505780647854, 0.2044329400752989, 0.2094821410847278)
_QK15I_WG = (0.0, 0.1294849661688697, 0.0, 0.2797053914892767,
             0.0, 0.3818300505051189, 0.0, 0.4179591836734694)
_QAGI_EPSABS = 1.49e-8  # scipy.integrate.quad's defaults
_QAGI_EPSREL = 1.49e-8
_QAGI_LIMIT = 200
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _qk15i(f, x0, a, b):
    """QK15I on the cell [a, b] of s in (0, 1], where x = x0 + (1 - s)/s:
    (Kronrod value, error estimate, integral of |f|, integral of
    |f - mean|), summed in QUADPACK's order."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    offsets = [half * x for x in _QK15I_XGK[:7]]
    s = np.array([centre] + [centre - d for d in offsets] + [centre + d for d in offsets])
    vals = (f(x0 + (1.0 - s) / s) / s / s).tolist()
    fc, fv1, fv2 = vals[0], vals[1:8], vals[8:]
    resg = _QK15I_WG[7] * fc
    resk = _QK15I_WGK[7] * fc
    resabs = abs(resk)
    for j in range(7):
        fsum = fv1[j] + fv2[j]
        resg += _QK15I_WG[j] * fsum
        resk += _QK15I_WGK[j] * fsum
        resabs += _QK15I_WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _QK15I_WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _QK15I_WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    resasc *= half
    resabs *= half
    abserr = abs((resk - resg) * half)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * half, abserr, resabs, resasc


def integrate_tail(f, x0):
    """Integral of f over [x0, inf) by QUADPACK's QAGI, the routine
    `scipy.integrate.quad` runs on a half-infinite interval, with quad's
    tolerances (absolute and relative 1.49e-8) and its limit of 200
    cells.  `f` maps a numpy array of x to the array of values.

    One QK15I pass over s in (0, 1] decides as QAGI's first stage does;
    after that the cell with the largest error estimate is bisected until
    the summed estimate meets the tolerance.  QAGI's Wynn epsilon
    extrapolation is left out.  Measured on the bump integrands at
    J = 1024: at eps = 0.5 the p = 2 tail takes 14 cells against quad's
    10 and moves by 1.6e-7 relative, while the p = 1 correction and the
    p = 4, 6, 8 tails agree with quad to 1-2 ulps.  Where the
    extrapolation fails (eps = 0.05, p = 2, J = 32768: quad warns
    "probably divergent" and returns 4.4e-10) this returns 1.88074e-7
    against the true 1.88068e-7.

    Like quad's, the result is an estimate, not an enclosure, and its
    error estimate is dropped.  A run that ends on one of QAGI's failure
    tests (cell limit, roundoff, cells too short) returns what it has, as
    quad does after its warning.
    """
    result, abserr, defabs, resasc = _qk15i(f, x0, 0.0, 1.0)
    errbnd = max(_QAGI_EPSABS, _QAGI_EPSREL * abs(result))
    if ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resasc) or abserr == 0.0):
        return result
    # cells as [a, b, value, error]; a bisected cell keeps its slot for
    # the half with the larger error and the other half is appended
    cells = [[0.0, 1.0, result, abserr]]
    area, errsum = result, abserr
    iroff1 = iroff3 = 0
    for last in range(2, _QAGI_LIMIT + 1):
        worst = max(range(len(cells)), key=lambda i: cells[i][3])
        a, b, value, errmax = cells[worst]
        mid = 0.5 * (a + b)
        area1, error1, _, defab1 = _qk15i(f, x0, a, mid)
        area2, error2, _, defab2 = _qk15i(f, x0, mid, b)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - value
        if defab1 != error1 and defab2 != error2:
            if abs(value - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        if error2 > error1:
            cells[worst], new = [mid, b, area2, error2], [a, mid, area1, error1]
        else:
            cells[worst], new = [a, mid, area1, error1], [mid, b, area2, error2]
        cells.append(new)
        errbnd = max(_QAGI_EPSABS, _QAGI_EPSREL * abs(area))
        failed = (iroff1 >= 10 or iroff3 >= 20 or last == _QAGI_LIMIT
                  or max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPMACH) * (abs(mid) + 1000.0 * _UFLOW))
        if errsum <= errbnd or failed:
            break
    result = 0.0
    for cell in cells:  # slot order, as QUADPACK sums; sum() may compensate
        result += cell[2]
    return result


class BumpProfile:
    """Coefficient profile a_j = c / (j log(2+j)^{1+eps}) with sum 1.

    The normalization and all tail sums use Euler-Maclaurin corrected
    integrals; partial sums alone converge far too slowly.  The integrals
    come from `integrate_tail`, a port of the QUADPACK rule behind scipy's
    `quad`, and are estimates, not enclosures: the error estimate is
    dropped, and on these slowly decaying integrands the rule can be far
    off (the p = 1 correction at J = 200000 reads 1.6e-9 where the
    integral is 2.1e-7, which moves c by about -7e-8 relative).
    """

    def __init__(self, epsilon):
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._tail_cache = {}
        s_head, s_tail = self._raw_sum()
        self.c = 1.0 / (s_head + s_tail)
        self.head_sum = s_head * self.c
        self.tail_sum = s_tail * self.c
        self.normalization_head = _NORMALIZATION_HEAD
        self.fitted_m = None

    def _raw_sum(self):
        js = np.arange(1, _NORMALIZATION_HEAD + 1, dtype=float)
        head = float((1.0 / (js * np.log(2.0 + js) ** (1.0 + self.epsilon))).sum())
        tail = self._tail_raw(_NORMALIZATION_HEAD, 1)
        return head, tail

    def _tail_raw(self, J, p):
        """sum_{j>J} (1/(j log(2+j)^{1+eps}))^p by Euler-Maclaurin."""
        eps = self.epsilon

        def f(x):
            return (1.0 / (x * np.log(2.0 + x) ** (1.0 + eps))) ** p

        def fprime(x):
            return f(x) * (-p) * (1.0 / x + (1.0 + eps) / ((2.0 + x) * np.log(2.0 + x)))

        x0 = J + 1.0
        if p == 1:
            # exact integral of 1/((2+x) log(2+x)^{1+eps}) plus a fast
            # correction for the difference 1/x - 1/(2+x)
            u0 = math.log(2.0 + x0)
            main = u0 ** (-eps) / eps
            corr = integrate_tail(
                lambda x: 2.0 / (x * (2.0 + x) * np.log(2.0 + x) ** (1.0 + eps)), x0)
            integral = main + corr
        else:
            integral = integrate_tail(f, x0)
        return float(integral + f(x0) / 2.0 - fprime(x0) / 12.0)

    def a(self, j):
        """Coefficient a_j; accepts scalars or numpy arrays."""
        j = np.asarray(j, dtype=float)
        return self.c / (j * np.log(2.0 + j) ** (1.0 + self.epsilon))

    def tail_power_sum(self, J, p):
        """sum_{j>J} a_j^p, estimated by Euler-Maclaurin around an
        `integrate_tail` integral (see the class docstring for its accuracy)."""
        key = (J, p)
        if key not in self._tail_cache:
            self._tail_cache[key] = self.c ** p * self._tail_raw(J, p)
        return self._tail_cache[key]

    def truncation_for(self, t):
        """Smallest power-of-two J >= 1024 with t * a_J below the Taylor
        tail threshold (so the log-sinc series certifies the tail)."""
        t = abs(t)
        J = 1024
        while t * float(self.a(J)) > _TAIL_THRESHOLD:
            J *= 2
            if J > 2 ** 26:
                raise ValidationError("t too large for the bump evaluation")
        return J


def bump_fourier(profile, t):
    """mu-hat(t) = prod_{j>=1} sinc(t a_j), evaluated with an explicit head
    product and a certified log-sinc Taylor tail; mu-hat(0) = 1."""
    t = float(abs(t))
    if t == 0.0:
        return 1.0
    J = profile.truncation_for(t)
    js = np.arange(1, J + 1, dtype=float)
    x = t * profile.a(js)
    vals = np.sinc(x / np.pi)
    if np.any(vals == 0.0):
        return 0.0
    sign = -1.0 if int(np.sum(vals < 0)) % 2 else 1.0
    log_head = float(np.log(np.abs(vals)).sum())
    log_tail = 0.0
    for m, coef in enumerate(_SINC_LOG_COEFFS, start=1):
        log_tail += float(coef) * t ** (2 * m) * profile.tail_power_sum(J, 2 * m)
    return sign * math.exp(log_head + log_tail)


def bump_envelope_check(profile, ts):
    """Check |mu-hat(t)| <= prod_{j <= t / log(2+t)^{1+eps}} 1/(t a_j), as
    log|mu-hat(t)| <= log of the envelope (up to 1e-9)."""
    rows = []
    ok = True
    for t in ts:
        t = float(t)
        j_star = int(t / math.log(2.0 + t) ** (1.0 + profile.epsilon))
        value = abs(bump_fourier(profile, t))
        log_env = 0.0
        if j_star >= 1:
            js = np.arange(1, j_star + 1, dtype=float)
            log_env = float(-np.log(t * profile.a(js)).sum())
        try:
            env = math.exp(log_env)
        except OverflowError:  # printed as inf; the check below compares logs
            env = math.inf
        good = value == 0.0 or math.log(value) <= log_env + 1e-9
        ok = ok and good
        rows.append({"t": t, "fourier": value, "envelope": env, "ok": good})
    return {"rows": rows, "all_ok": ok}


def fit_decay_constant(profile, ts):
    """M = inf over the grid of -log|mu-hat(t)| * log(2+t)^{1+eps} / t; a
    positive fit certifies quasi-exponential decay on the grid."""
    best = math.inf
    for t in ts:
        t = float(t)
        if t <= 0:
            continue
        v = abs(bump_fourier(profile, t))
        if v == 0.0:
            continue
        m = -math.log(v) * math.log(2.0 + t) ** (1.0 + profile.epsilon) / t
        best = min(best, m)
    profile.fitted_m = best
    return best


def periodized_coefficient(profile, alpha, k):
    """Fourier coefficient of the 2-pi periodization scaled to (-alpha, alpha):
    phi_alpha-hat(k) = alpha/(2 pi) mu-hat(k alpha)."""
    if not 0 < alpha < math.pi:
        raise ValidationError("alpha must lie in (0, pi)")
    return alpha / (2 * math.pi) * bump_fourier(profile, k * alpha)
