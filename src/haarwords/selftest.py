"""Oracle-agreement suite: the exact Weingarten engine against Monte
Carlo on a fixed set of trace monomials, the mixed-character expansion
identity, and the Gram-inversion characterization of the Weingarten
function.  Used by the CLI `selftest` subcommand and by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from . import montecarlo, perms, weingarten
from .freegroup import parse_word
from .symgroup import partitions_of
from .wordint import TraceMonomial, exact_word_moment

# (factors as word strings, n); inverted factors are written as the
# inverse word directly.  Occurrences per generator stay within the cap.
MONOMIAL_SUITE = (
    (("a", "A"), 3),
    (("abAB",), 3),
    (("aa", "AA"), 4),
    (("aaa", "AAA"), 3),
    (("ab", "BA"), 4),
    (("a", "b", "BA"), 5),
    (("abaB",), 5),
    (("",), 3),
    (("aabABA",), 4),
    (("ab", "ab", "BABA"), 5),
)


def monomial_agreement(samples=20000, seed=20250808, k_se=4.0):
    """Exact engine vs Monte Carlo on the fixed suite; returns one record
    per case with the exact value, the MC estimate, and the verdict."""
    rows = []
    for idx, (factor_texts, n) in enumerate(MONOMIAL_SUITE):
        factors = tuple(parse_word(t) for t in factor_texts)
        monomial = TraceMonomial(factors)
        exact = exact_word_moment(monomial, n=n)
        rng = montecarlo.substream(seed, "monomial", idx)
        mc = montecarlo.mc_trace_moment([(w, False) for w in factors], n, samples, rng)
        ok = abs(mc.mean - float(exact)) <= k_se * max(mc.se, 1e-12)
        rows.append({
            "factors": list(factor_texts),
            "n": n,
            "exact": str(exact),
            "mc_mean_re": mc.mean.real,
            "mc_mean_im": mc.mean.imag,
            "se": mc.se,
            "samples": samples,
            "ok": bool(ok),
        })
    return rows


def koike_agreement():
    """Re-run the character-identity validation for every expansion with
    |lambda| + |mu| <= 4; construction already enforces it, so this simply
    reconstructs each expansion and records the worst error bound."""
    from .symgroup import _validate_koike, _koike_terms

    rows = []
    for total in range(0, 5):
        for k in range(total + 1):
            for lam in partitions_of(k):
                for mu in partitions_of(total - k):
                    terms = _koike_terms(lam, mu)
                    worst = _validate_koike(lam, mu, terms)
                    rows.append({
                        "lambda": list(lam.parts),
                        "mu": list(mu.parts),
                        "terms": len(terms),
                        "max_error": worst,
                        "ok": worst < 1e-9,
                    })
    return rows


def gram_inversion(L_max=4):
    """sum_tau n^{cycles(sigma^-1 tau)} Wg_L(tau^-1 pi) = [sigma = pi],
    exactly, for L <= L_max and n in {L, L+1, L+2}.

    With tau = sigma rho the (sigma, pi) sum is, term for term,
    sum_rho n^{cycles(rho)} Wg_L(rho^-1 g) with g = sigma^-1 pi, so checking
    that sum against [g = e] for every g in S_L checks every (sigma, pi).
    """
    rows = []
    for L in range(1, L_max + 1):
        elements = perms.all_perms(L)
        identity = perms.identity(L)
        cycle_counts = [perms.num_cycles(rho) for rho in elements]
        types = [[perms.cycle_type(perms.compose(perms.inverse(rho), g)) for rho in elements]
                 for g in elements]
        all_types = {perms.cycle_type(p) for p in elements}
        for n in (L, L + 1, L + 2):
            nf = Fraction(n)
            wg_vals = {ct: weingarten.wg(L, ct)(nf) for ct in all_types}
            powers = [nf ** c for c in cycle_counts]
            ok = all(
                sum(p * wg_vals[ct] for p, ct in zip(powers, row)) == (1 if g == identity else 0)
                for g, row in zip(elements, types))
            rows.append({"L": L, "n": n, "ok": ok})
    return rows


def run_selftest(samples=20000, seed=20250808, emit=print):
    """Run the whole suite, emitting one line per check; returns True when
    everything agreed."""
    all_ok = True
    for row in monomial_agreement(samples=samples, seed=seed):
        status = "PASS" if row["ok"] else "FAIL"
        emit(f"[{status}] monomial {'*'.join('tr(' + (f or 'e') + ')' for f in row['factors'])} "
             f"n={row['n']}: exact={row['exact']} mc={row['mc_mean_re']:.5f}+-{row['se']:.5f}")
        all_ok = all_ok and row["ok"]
    worst = 0.0
    koike_rows = koike_agreement()
    worst = max(r["max_error"] for r in koike_rows)
    ok = all(r["ok"] for r in koike_rows)
    emit(f"[{'PASS' if ok else 'FAIL'}] mixed-character expansions ({len(koike_rows)} cases), "
         f"max identity error {worst:.2e}")
    all_ok = all_ok and ok
    for row in gram_inversion():
        status = "PASS" if row["ok"] else "FAIL"
        emit(f"[{status}] Weingarten Gram inversion L={row['L']} n={row['n']}")
        all_ok = all_ok and row["ok"]
    return all_ok
