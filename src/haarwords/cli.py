"""Command-line surface.

One subcommand per library area; every run emits a single JSON document
(or a CSV table) on stdout.  Exit codes: 0 success, 2 validation error,
3 resource-cap or convergence error, 4 theorem-violation (a guaranteed
identity failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from functools import lru_cache

from .errors import (ConvergenceError, ResourceCapError, TheoremViolationError,
                     ValidationError)
from .freegroup import Word, parse_word
from .symgroup import Partition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_THEOREM = 4

# `strongconv` estimates a norm from the squared operator and the squared
# length of its output, so the fourth power of the coefficients' l1 norm
# has to stay a normal float.
POLY_L1_RANGE = (2.0 ** -255, 2.0 ** 255)


def _parse_partition(text):
    if text is None or text.strip() == "":
        return Partition(())
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad partition {text!r}: {exc}") from None
    return Partition(parts)


# A coefficient read up to its exponent marker, as in '1e' of '1e-3*a':
# the sign that follows belongs to the exponent, not to the next term.
_MANTISSA = r"(\d+\.?\d*|\.\d+)[eE]"


def _parse_poly(text):
    """Word polynomial grammar: terms joined by + or -, each term an
    optional real coefficient, '*', then a word ('e' for the identity)."""
    terms = []
    token = ""
    chunks = []
    sign = 1.0
    for ch in text.replace(" ", ""):
        if ch in "+-" and token and not re.fullmatch(_MANTISSA, token):
            chunks.append((sign, token))
            sign = 1.0 if ch == "+" else -1.0
            token = ""
        elif ch in "+-" and not token:
            sign *= 1.0 if ch == "+" else -1.0
        else:
            token += ch
    if token:
        chunks.append((sign, token))
    if not chunks:
        raise ValidationError("empty polynomial")
    for sign, chunk in chunks:
        if "*" in chunk:
            coeff_text, word_text = chunk.split("*", 1)
            coeff = float(coeff_text)
            if not math.isfinite(coeff):
                raise ValidationError(f"term {chunk!r} has a non-finite coefficient")
        else:
            coeff, word_text = 1.0, chunk
        w = Word(()) if word_text == "e" else parse_word(word_text)
        terms.append((w, sign * coeff))
    l1 = sum(abs(c) for _, c in terms)
    if l1 != 0.0 and not POLY_L1_RANGE[0] <= l1 <= POLY_L1_RANGE[1]:
        raise ValidationError(
            f"the coefficients {[c for _, c in terms]} of {text!r} have l1 norm {l1:.3g}, "
            "outside [2^-255, 2^255]: the norm estimate works with its fourth power")
    return terms


def _emit_json(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _cmd_expect(args):
    from . import wordint

    w = parse_word(args.word)
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    if not args.symbolic and args.n is None:
        raise ValidationError("--n is required unless --symbolic is given")
    if not args.symbolic and args.n < lam.length + mu.length:
        # s_{lambda,mu} is an irreducible of U(n) only from there on
        raise ValidationError(
            f"need n >= {lam.length + mu.length} for lambda, mu, got {args.n}")
    if args.symbolic:
        value = wordint.expect_stable_character(lam, mu, w, n=None)
        _emit_json({"word": args.word, "lambda": list(lam.parts), "mu": list(mu.parts),
                    "symbolic": value.to_json()})
    else:
        value = wordint.expect_stable_character(lam, mu, w, n=args.n)
        _emit_json({"word": args.word, "lambda": list(lam.parts), "mu": list(mu.parts),
                    "n": args.n, "value": str(value)})
    return EXIT_OK


def _cmd_wg(args):
    from . import weingarten

    ct = Partition(int(p) for p in args.cycle_type.split(","))
    out = {"L": args.L, "cycle_type": list(ct)}
    if args.n is not None:
        out["n"] = args.n
        out["value"] = str(weingarten.wg_value(args.L, ct, args.n))
    else:
        out["symbolic"] = weingarten.wg(args.L, ct).to_json()
    _emit_json(out)
    return EXIT_OK


def _cmd_interp(args):
    from . import wordint

    w = parse_word(args.word)
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    report = wordint.interpolate_phi(lam, mu, w, n_start=args.n_start)
    _emit_json(report.to_json())
    return EXIT_OK


def _cmd_decay(args):
    from . import wordint

    w = parse_word(args.word)
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    report = wordint.interpolate_phi(lam, mu, w, n_start=args.n_start)
    verdict = wordint.decay_order_check(report)
    _emit_json({"report": report.to_json(), "verdict": verdict})
    return EXIT_OK


def _cmd_strongconv(args):
    from . import montecarlo

    terms = _parse_poly(args.poly)
    reference = args.reference
    if reference is not None and not math.isfinite(reference):
        raise ValidationError(f"--reference must be finite, got {reference}")
    if args.n is None and not args.n_list:
        raise ValidationError("strongconv needs --n or --n-list")
    n_values = ([int(x) for x in args.n_list.split(",")] if args.n_list else [args.n])
    for n in n_values:
        montecarlo.check_experiment_inputs(args.r, n, args.k, args.l, terms, args.samples)
    if reference is None:
        from . import rwalk
        reference = rwalk.reduced_norm_lower_bound(terms, args.r)
    reports = []
    for n in n_values:
        reports.append(montecarlo.strong_convergence_experiment(
            args.r, n, args.k, args.l, terms, samples=args.samples,
            seed=args.seed, reference=reference))
    if args.format == "csv" or args.n_list:
        _emit_csv(["n", "k", "l", "norm_estimate", "reference", "deviation", "seed"],
                  [[rep.n, rep.k, rep.l,
                    float(sum(rep.norm_estimates) / len(rep.norm_estimates)),
                    rep.reference, rep.deviation, rep.seed] for rep in reports])
    else:
        _emit_json(reports[0].to_json())
    return EXIT_OK


def _cmd_rwalk(args):
    from . import rwalk

    if args.r < 1:
        raise ValidationError(f"--r must be >= 1, got {args.r}")
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    if args.measure == "uniform-gen":
        mu = rwalk.WalkMeasure.uniform_generators(args.r)
    else:
        mu = rwalk.WalkMeasure.lazy_uniform(args.r)
    stats = rwalk.proper_power_stats(mu, args.steps, args.samples, args.seed)
    # exact up to RADIAL_EXACT_STEP_CAP steps; later rows leave the cell empty
    returns = stats.return_probabilities
    rows = []
    for row in stats.rows:
        n = row["n"]
        rows.append([n, str(returns[n]) if n < len(returns) else "",
                     row["phat"], row["ci_low"], row["ci_high"]])
    _emit_csv(["n", "return_prob", "proper_power_prob", "ci_low", "ci_high"], rows)
    return EXIT_OK


def _cmd_gcheck(args):
    from . import bounds

    record = bounds.g_derivative_bound_check(args.L, args.i)
    record["type"] = "float"
    _emit_json(record)
    return EXIT_OK


def _cmd_bump(args):
    import numpy as np

    from . import bounds

    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise ValidationError(f"--tmax must be finite and positive, got {args.tmax}")
    profile = bounds.BumpProfile(args.eps)
    ts = np.geomspace(1.0, args.tmax, args.points)
    check = bounds.bump_envelope_check(profile, ts)
    _emit_csv(["t", "fourier", "envelope"],
              [[row["t"], row["fourier"], row["envelope"]] for row in check["rows"]])
    return EXIT_OK if check["all_ok"] else EXIT_THEOREM


def _cmd_dims(args):
    from . import montecarlo
    from .symgroup import partitions_of

    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if args.l1_cap < 0:
        raise ValidationError(f"--l1-cap must be >= 0, got {args.l1_cap}")
    if args.A is not None and not math.isfinite(args.A):
        raise ValidationError(f"--A must be finite, got {args.A}")
    rows = []
    worst_margin = math.inf
    classifier_ok = True
    if args.A is not None:
        try:
            n_to_A = args.n ** args.A
        except OverflowError:  # above every l1 the loop reaches
            n_to_A = math.inf
        threshold = montecarlo.DIM_LOWER_BOUND_CONSTANT * n_to_A
    for total in range(0, args.l1_cap + 1):
        for k in range(total + 1):
            for lam in partitions_of(k):
                for mu in partitions_of(total - k):
                    if lam.length + mu.length > args.n:
                        continue
                    weight = montecarlo.mixed_weight(lam, mu, args.n)
                    rec = montecarlo.dim_bounds_check(weight, args.n)
                    worst_margin = min(worst_margin,
                                       rec["log_dim"] - rec["log_lower"],
                                       rec["log_upper"] - rec["log_dim"])
                    rows.append(rec["passed"])
                    if (args.A is not None and rec["log_dim"] < threshold
                            and rec["l1"] > n_to_A):
                        classifier_ok = False
    _emit_json({"n": args.n, "l1_cap": args.l1_cap, "count": len(rows),
                "all_passed": all(rows), "worst_log_margin": worst_margin,
                "classifier_ok": classifier_ok, "A": args.A, "type": "float"})
    return EXIT_OK if all(rows) and classifier_ok else EXIT_THEOREM


def _cmd_selftest(args):
    from . import selftest

    ok = selftest.run_selftest(samples=args.samples, seed=args.seed)
    return EXIT_OK if ok else EXIT_THEOREM


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `run` call can share it."""
    parser = argparse.ArgumentParser(
        prog="haarwords",
        description="Exact Haar-unitary word integrals, strong-convergence "
                    "experiments, and free-group random walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="exact expected stable character of a word map")
    p.add_argument("--word", required=True)
    p.add_argument("--lambda", dest="lam", default="", help="partition, e.g. 2,1")
    p.add_argument("--mu", default="")
    at = p.add_mutually_exclusive_group()
    at.add_argument("--n", type=int, default=None)
    at.add_argument("--symbolic", action="store_true",
                    help="return the rational function of n instead of a value")
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("wg", help="Weingarten function value")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--cycle-type", dest="cycle_type", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_wg)

    p = sub.add_parser("interp", help="exact rational-form interpolation report")
    p.add_argument("--word", required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--mu", default="")
    p.add_argument("--n-start", dest="n_start", type=int, default=None)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("decay", help="interpolate and check vanishing order")
    p.add_argument("--word", required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--mu", default="")
    p.add_argument("--n-start", dest="n_start", type=int, default=None)
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("strongconv", help="strong-convergence norm experiment")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", dest="n_list", default=None, help="CSV sweep over n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--poly", required=True, help='e.g. "a+A+b+B"')
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_strongconv)

    p = sub.add_parser("rwalk", help="random-walk return and proper-power table")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--measure", default="uniform-gen",
                   choices=("uniform-gen", "lazy-uniform"))
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_rwalk)

    p = sub.add_parser("bounds", help="analytic bound checkers")
    bsub = p.add_subparsers(dest="bounds_cmd", required=True)
    g = bsub.add_parser("gcheck", help="pole-clearing polynomial derivative bounds")
    g.add_argument("--L", type=int, required=True)
    g.add_argument("--i", type=int, required=True)
    g.set_defaults(func=_cmd_gcheck)
    b = bsub.add_parser("bump", help="bump-function Fourier decay table")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--tmax", type=float, default=10000.0)
    b.add_argument("--points", type=int, default=40)
    b.set_defaults(func=_cmd_bump)

    p = sub.add_parser("dims", help="Weyl dimension bound checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l1-cap", dest="l1_cap", type=int, default=8)
    p.add_argument("--A", type=float, default=None)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("selftest", help="oracle-agreement suite")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=20250808)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValidationError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:
        print(f"float overflow: {exc}; a float value left the float range at this size",
              file=sys.stderr)
        return EXIT_RESOURCE
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_THEOREM


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
