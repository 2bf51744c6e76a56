"""The four workloads: fixed case lists, each case with its correctness
oracle.

A case is one call into a public entry point: `haarwords.cli.run(argv)`
with stdout captured, or a library function where no subcommand exists.
Cases run in list order inside one fresh process, so the quick cases come
first and pay the cold caches, as a CLI user would.

Exact cases must print exactly what `expected.json` holds (the stdout of
this benchmark's first commit).  Seeded cases (`norms`, `sampling`) are
checked against known values with tolerances instead, because a later
change may declare a new random-number stream.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

DEFAULT_SEED = 20251017

TWO_SQRT3 = 2.0 * math.sqrt(3.0)
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
FLOAT_RTOL = 1e-9

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


class CaseFailure(Exception):
    pass


class Case:
    """`run()` makes the timed call and returns its output; `check(output)`
    raises CaseFailure on a wrong output and may return quality figures."""

    def __init__(self, case_id, run, check, quick=False):
        self.id = case_id
        self.run = run
        self.check = check
        self.quick = quick


def _require(condition, message):
    if not condition:
        raise CaseFailure(message)


def cli_case(hw, case_id, argv, check, quick=False):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hw["cli"].run(list(argv))
        return code, out.getvalue(), err.getvalue()

    return Case(case_id, run, check, quick)


def _exit_ok(output):
    code, _, err = output
    _require(code == 0, f"exit code {code}: {err.strip()[-300:]}")


def exact(case_id, same_value_as=None):
    """Byte-identical stdout; optionally the same `value` as another case
    (conjugate and rotated words equal their base word)."""
    def check(output):
        _exit_ok(output)
        _require(output[1] == EXPECTED[case_id], "stdout differs from expected.json")
        if same_value_as is not None:
            base = json.loads(EXPECTED[same_value_as])["value"]
            _require(json.loads(output[1])["value"] == base,
                     f"value differs from {same_value_as}")
    return check


def _close(a, b):
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)


def floats_json(case_id):
    """Same keys, every number within FLOAT_RTOL of expected.json."""
    def check(output):
        _exit_ok(output)
        got, want = json.loads(output[1]), json.loads(EXPECTED[case_id])
        _require(got.keys() == want.keys(), "JSON keys differ")
        for key, value in want.items():
            if isinstance(value, float):
                _require(_close(got[key], value), f"{key}: {got[key]} != {value}")
            else:
                _require(got[key] == value, f"{key}: {got[key]!r} != {value!r}")
    return check


def floats_csv(case_id):
    def check(output):
        _exit_ok(output)
        got = list(csv.reader(io.StringIO(output[1])))
        want = list(csv.reader(io.StringIO(EXPECTED[case_id])))
        _require(len(got) == len(want) and got[0] == want[0], "CSV shape differs")
        for g_row, w_row in zip(got[1:], want[1:]):
            _require(len(g_row) == len(w_row)
                     and all(_close(float(g), float(w)) for g, w in zip(g_row, w_row)),
                     f"row {g_row} != {w_row}")
    return check


def norm_near_free(k_plus_l, default_reference=False):
    """strongconv: the estimate is within the acceptance suite's tolerance
    of the free-group norm 2 sqrt 3 of a + A + b + B."""
    tol = 0.15 if k_plus_l == 1 else 0.25

    def check(output):
        _exit_ok(output)
        report = json.loads(output[1])
        (estimate,) = report["norm_estimates"]
        _require(abs(estimate - TWO_SQRT3) <= tol,
                 f"norm {estimate} not within {tol} of 2 sqrt 3")
        if not default_reference:
            return {}
        reference = report["reference"]
        _require(0.0 < reference <= TWO_SQRT3,
                 f"default reference {reference} above the true norm 2 sqrt 3")
        return {"reference_gap": TWO_SQRT3 - reference}
    return check


def bracket_contains_sqrt3_over_2(bracket):
    _require(bracket.lower <= SQRT3_OVER_2 <= bracket.upper,
             f"bracket [{bracket.lower}, {bracket.upper}] misses sqrt 3 / 2")
    return {"bracket_width": bracket.width()}


def within_4se(value):
    def check(result):
        _require(result.within(value, k_se=4.0),
                 f"MC mean {result.mean} not within 4 SE ({result.se}) of {value}")
    return check


def selftest_passes(output):
    _exit_ok(output)
    _require("[FAIL]" not in output[1], "selftest reported a failure")


def dims_pass(output):
    _exit_ok(output)
    record = json.loads(output[1])
    _require(record["all_passed"] and record["classifier_ok"] and record["count"] == 434,
             f"dims record {record}")


def rwalk_table(case_id, samples, step2):
    """Exact return probabilities equal expected.json; the proper-power
    frequency at step 2 is within 4 SE of `step2`, the chance that two
    steps draw the same letter (a reduced word of length 2 is a proper
    power exactly when it repeats its letter)."""
    def check(output):
        _exit_ok(output)
        rows = list(csv.DictReader(io.StringIO(output[1])))
        want = list(csv.DictReader(io.StringIO(EXPECTED[case_id])))
        _require([r["return_prob"] for r in rows] == [r["return_prob"] for r in want],
                 "exact return probabilities differ from expected.json")
        phat = float(rows[1]["proper_power_prob"])
        se = math.sqrt(step2 * (1 - step2) / samples)
        _require(abs(phat - step2) <= 4 * se, f"step-2 proper-power rate {phat} vs {step2}")
    return check


def _exact_expect(hw, seed):
    def expect(case_id, word, lam, n=None, mu=None, quick=False, same_value_as=None):
        argv = ["expect", "--word", word, "--lambda", lam]
        argv += ["--mu", mu] if mu else []
        argv += ["--n", str(n)] if n else ["--symbolic"]
        return cli_case(hw, case_id, argv, exact(case_id, same_value_as), quick)

    return [
        expect("expect-abAB-1-n5", "abAB", "1", n=5, quick=True),
        expect("expect-abAB-21-n6", "abAB", "2,1", n=6, quick=True),
        expect("expect-bABa-21-n6", "bABa", "2,1", n=6, quick=True,
               same_value_as="expect-abAB-21-n6"),
        expect("expect-abAB-21-sym", "abAB", "2,1", quick=True),
        expect("expect-abAB-111-sym", "abAB", "1,1,1", quick=True),
        cli_case(hw, "wg-6-2211", ["wg", "--L", "6", "--cycle-type", "2,2,1,1"],
                 exact("wg-6-2211"), quick=True),
        # a word, then its conjugate a.w.a^-1: equal values, largely shared work
        expect("expect-abcABC-1-1-n6", "abcABC", "1", mu="1", n=6),
        expect("expect-aabcABCA-1-1-n6", "aabcABCA", "1", mu="1", n=6,
               same_value_as="expect-abcABC-1-1-n6"),
        # heavy: two trace monomials with (3!)^2 pairings per generator
        expect("expect-abcABC-21-n6", "abcABC", "2,1", n=6),
    ]


def _exact_interp(hw, seed):
    def interp(case_id, command, word, lam, mu=None, quick=False):
        argv = [command, "--word", word, "--lambda", lam] + (["--mu", mu] if mu else [])
        return cli_case(hw, case_id, argv, exact(case_id), quick)

    return [
        interp("interp-abAB-1", "interp", "abAB", "1", quick=True),
        interp("interp-aB-2", "interp", "aB", "2", quick=True),
        interp("decay-aB-1-1", "decay", "aB", "1", mu="1", quick=True),
        interp("decay-abAB-1", "decay", "abAB", "1", quick=True),
        cli_case(hw, "gcheck-10-6", ["bounds", "gcheck", "--L", "10", "--i", "6"],
                 floats_json("gcheck-10-6"), quick=True),
        cli_case(hw, "bump-0.5", ["bounds", "bump", "--eps", "0.5", "--tmax", "10000"],
                 floats_csv("bump-0.5"), quick=True),
        # heavy: K q = 6, so each is a 52 x 52 exact Vandermonde solve
        interp("interp-abcABC-1", "interp", "abcABC", "1"),
        interp("interp-aabAAB-1", "interp", "aabAAB", "1"),
    ]


def _norms(hw, seed):
    def strongconv(n, k, l, quick=False, default_reference=False):
        argv = ["strongconv", "--poly", "a+A+b+B", "--r", "2", "--samples", "1",
                "--n", str(n), "--k", str(k), "--l", str(l), "--seed", str(seed)]
        if not default_reference:
            argv += ["--reference", "3.4641016"]
        suffix = "-ballref" if default_reference else ""
        return cli_case(hw, f"strongconv-{n}-{k}-{l}{suffix}", argv,
                        norm_near_free(k + l, default_reference), quick)

    measure = hw["rwalk"].WalkMeasure.uniform_generators(2)
    return [
        strongconv(300, 1, 0, quick=True),
        strongconv(80, 1, 1, quick=True),
        strongconv(20, 2, 1),
        strongconv(12, 2, 2),        # k = l: goes through the invariant projector
        strongconv(300, 1, 0, default_reference=True),
        Case("spectral-radius-uniform-F2",
             lambda: hw["rwalk"].spectral_radius(measure, ball_radius=8),
             bracket_contains_sqrt3_over_2),
    ]


def _sampling(hw, seed):
    lam, empty = hw["symgroup"].Partition((1,)), hw["symgroup"].Partition(())
    commutator = hw["freegroup"].parse_word("abAB")

    # E tr(a b a^-1 b^-1) = 1/n; a commutator has the same law under U(n) and SU(n)
    def mc(case_id, n, group, samples, quick=False):
        return Case(case_id,
                    lambda: hw["montecarlo"].mc_expect(lam, empty, commutator, n, samples,
                                                       seed, group=group),
                    within_4se(1.0 / n), quick)

    def rwalk(case_id, measure, steps, samples, step2, quick=False):
        argv = ["rwalk", "--r", "2", "--measure", measure, "--steps", str(steps),
                "--samples", str(samples), "--seed", str(seed)]
        return cli_case(hw, case_id, argv, rwalk_table(case_id, samples, step2), quick)

    return [
        cli_case(hw, "dims-30-8", ["dims", "--n", "30", "--l1-cap", "8", "--A", "0.5"],
                 dims_pass, quick=True),
        rwalk("rwalk-lazy-16", "lazy-uniform", 16, 10000, 4 / 25, quick=True),
        mc("mc-commutator-U3", 3, "U", 400, quick=True),
        cli_case(hw, "selftest-400", ["selftest", "--samples", "400", "--seed", str(seed)],
                 selftest_passes),
        mc("mc-commutator-U5", 5, "U", 3000),
        mc("mc-commutator-SU5", 5, "SU", 1500),
        rwalk("rwalk-uniform-30", "uniform-gen", 30, 30000, 1 / 4),
    ]


WORKLOAD_CASES = {
    "exact-expect": _exact_expect,
    "exact-interp": _exact_interp,
    "norms": _norms,
    "sampling": _sampling,
}
WORKLOADS = tuple(WORKLOAD_CASES)

# The haarwords submodules each workload's cases are built from; the CLI
# imports the rest lazily inside the case that needs them.
MODULES = {
    "exact-expect": ("cli",),
    "exact-interp": ("cli",),
    "norms": ("cli", "rwalk"),
    "sampling": ("cli", "symgroup", "freegroup", "montecarlo"),
}


def build(workload, seed, hw):
    """The case list of a workload; `hw` maps haarwords module short names
    to modules, and `seed` reaches the library only as call arguments."""
    return WORKLOAD_CASES[workload](hw, seed)
