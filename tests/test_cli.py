import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarwords import cli, montecarlo, rwalk, wordint
from haarwords.errors import ConvergenceError


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expect_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "expect", "--word", "abAB",
                           "--lambda", "1", "--mu", "", "--n", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == "1/5"
    assert blob["lambda"] == [1] and blob["mu"] == []


def test_expect_symbolic(capsys):
    code, out, _ = run_cli(capsys, "expect", "--word", "abAB",
                           "--lambda", "1", "--symbolic")
    assert code == 0
    blob = json.loads(out)
    assert blob["symbolic"] == {"num": ["1"], "den": ["0", "1"]}


@pytest.mark.parametrize("argv,value", [
    (["--word", "aaabABAA", "--lambda", "1", "--mu", "1", "--n", "5"], "1/24"),
    (["--word", "abaabABAAB", "--lambda", "1", "--n", "5"], "2/5"),
    (["--word", "aaabABAA", "--lambda", "1", "--n", "2"], "1/2"),
], ids=["conjugate-of-commutator", "commutator-a-b-squared", "n-below-raw-occurrences"])
def test_expect_integrates_the_whitehead_minimal_word(capsys, argv, value):
    # as typed, the first has a table of (6!)^2 (2!)^2 pairings and the
    # last fails the n >= occurrences guard; their minimal words are the
    # commutator
    code, out, _ = run_cli(capsys, "expect", *argv)
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == value and blob["word"] == argv[1]


@pytest.mark.parametrize("argv,stdout", [
    (["--lambda", "2,2", "--n", "10"],
     '{"lambda": [2, 2], "mu": [], "n": 10, "value": "1/825", "word": "abAB"}\n'),
    (["--lambda", "1,1", "--mu", "1,1", "--n", "10"],
     '{"lambda": [1, 1], "mu": [1, 1], "n": 10, "value": "1/1925", "word": "abAB"}\n'),
    (["--lambda", "2,2", "--symbolic"],
     '{"lambda": [2, 2], "mu": [], "symbolic": {"den": ["0", "0", "-1", "0", "1"], '
     '"num": ["12"]}, "word": "abAB"}\n'),
], ids=["2,2-n10", "1,1-1,1-n10", "2,2-symbolic"])
def test_expect_k4_matches_pinned_output(capsys, argv, stdout):
    # K = 4 on the commutator: the stdout of the per-monomial engine,
    # byte for byte (1/dim s_{lambda,mu} at n = 10, 12/(n^2 (n^2 - 1)))
    code, out, _ = run_cli(capsys, "expect", "--word", "abAB", *argv)
    assert code == 0 and out == stdout


@pytest.mark.parametrize("argv, digest", [
    (["wg", "--L", "8", "--cycle-type", "3,2,2,1"],
     "c38dd825ff100a0d7630d581a4657c8a51d721f20a1744c65d60cbb1c9aeff4b"),
    (["interp", "--word", "abAB", "--lambda", "2"],
     "58ee7afa55f41ebd06b7f611d2644a8659ced8d2a0c1fcdbb9a805082d47e59c"),
    (["interp", "--word", "abAB", "--lambda", "1,1", "--mu", "1"],
     "1484080e6f5e447dd5b49070eb9b7443b530e8ee27d8deb9e22f6283d1de19fc"),
    (["decay", "--word", "abAB", "--lambda", "2,2"],
     "b1e18017075a758e41ceca3af33b557d9826f86aebc3c84f3bf79219fc43db39"),
], ids=["wg-L8", "interp-2", "interp-1,1-1", "decay-2,2"])
def test_exact_outputs_match_pinned_digests(capsys, argv, digest):
    # sha256 of the stdout recorded at commit f6ecbee, when polynomials kept
    # Fraction coefficients: the exact values stay byte-identical
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_pairing_cap_refuses_before_enumerating(capsys):
    # [a,b][c,d] with lambda = 2,2: four copies of the word, four
    # occurrences of each of four generators, (4!)^8 pairings in one table
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "expect", "--word", "abABcdCD", "--lambda", "2,2",
                             "--n", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert str(math.factorial(4) ** 8) in err and str(wordint.PAIRING_CAP) in err


def test_expect_commutator_of_a_fifth_power(capsys):
    # [a^5, b]: a occurs 5 times, and E tr = min(5, n)/n
    code, out, _ = run_cli(capsys, "expect", "--word", "aaaaabAAAAAB", "--lambda", "1",
                           "--n", "5")
    assert code == 0 and json.loads(out)["value"] == "1"


def test_occurrence_cap_refuses_before_allocating(capsys):
    # [a^7, b]: a occurs 7 times.  The option table would hold (7!)^2
    # rows of 14 indices, 2.8 GB, and the 7! permutations alone half a
    # megabyte; the refusal comes before either (about 7 KB traced)
    run_cli(capsys, "expect", "--word", "abAB", "--lambda", "1", "--n", "3")   # warm-up
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "expect", "--word", "aaaaaaabAAAAAAAB",
                                 "--lambda", "1", "--symbolic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "occurs 7 times" in err and f"cap is {wordint.OCCURRENCE_CAP}" in err
    assert peak < 1 << 16


def test_parser_reuse_matches_fresh_processes():
    # one process: a call argparse rejects, then two good ones, through the
    # parser built once; each good call's stdout equals a fresh process's
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    calls = [["expect", "--word", "abAB", "--lambda", "1", "--symbolic", "--n", "3"],
             ["expect", "--word", "abAB", "--lambda", "2,1", "--n", "6"],
             ["wg", "--L", "4", "--cycle-type", "2,1,1"]]
    script = ("import contextlib, io, json\n"
              "from haarwords import cli\n"
              "results = []\n"
              f"for argv in {calls!r}:\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        results.append([cli.run(argv), out.getvalue()])\n"
              "print(json.dumps([results, cli.build_parser.cache_info().misses]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    results, builds = json.loads(done.stdout.splitlines()[-1])
    assert builds == 1
    assert results[0] == [2, ""]
    for argv, (code, stdout) in zip(calls[1:], results[1:]):
        fresh = subprocess.run([sys.executable, "-m", "haarwords.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert code == fresh.returncode == 0
        assert stdout == fresh.stdout and stdout


def test_wg_value(capsys):
    code, out, _ = run_cli(capsys, "wg", "--L", "2", "--cycle-type", "1,1", "--n", "5")
    assert code == 0
    assert json.loads(out)["value"] == "1/24"


def test_decay_verdict(capsys):
    code, out, _ = run_cli(capsys, "decay", "--word", "abAB", "--lambda", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"]["passed"] is True
    assert blob["report"]["vanishing_order"] == 1


def test_rwalk_csv(capsys):
    code, out, _ = run_cli(capsys, "rwalk", "--r", "2", "--measure", "uniform-gen",
                           "--steps", "4", "--samples", "2000", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,return_prob,proper_power_prob,ci_low,ci_high"
    assert len(lines) == 5
    row2 = lines[2].split(",")
    assert row2[0] == "2" and row2[1] == "1/4"
    row4 = lines[4].split(",")
    assert row4[1] == "7/64"


def test_rwalk_return_column_stops_at_the_exact_cap(capsys):
    code, out, _ = run_cli(capsys, "rwalk", "--r", "2", "--measure", "uniform-gen",
                           "--steps", "42", "--samples", "500")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 42
    mu = rwalk.WalkMeasure.uniform_generators(2)
    for n, line in enumerate(rows, start=1):
        cells = line.split(",")
        assert cells[0] == str(n)
        want = str(rwalk.return_probability(mu, n)) if n <= rwalk.RADIAL_EXACT_STEP_CAP else ""
        assert cells[1] == want, n


def test_strongconv_reproducible(capsys):
    args = ("strongconv", "--r", "2", "--n", "40", "--k", "1", "--l", "0",
            "--poly", "a+A+b+B", "--samples", "1", "--seed", "5",
            "--reference", "3.4641")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["seed"] == 5 and blob["type"] == "float"


def test_strongconv_default_reference_is_the_compression_bound(capsys, monkeypatch):
    terms = cli._parse_poly("a+A+b+B")
    want = rwalk.reduced_norm_lower_bound(terms, 2)
    code, out, _ = run_cli(capsys, "strongconv", "--r", "2", "--n", "6", "--k", "1", "--l", "0",
                           "--poly", "a+A+b+B", "--samples", "2", "--seed", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["reference"] == want
    assert blob["deviation"] == float(np.mean(blob["norm_estimates"]) - want)
    # an --n-list sweep compresses the ball once and shares the reference
    calls = []
    bound = rwalk.reduced_norm_lower_bound
    monkeypatch.setattr(rwalk, "reduced_norm_lower_bound",
                        lambda terms, r: calls.append(r) or bound(terms, r))
    code, out, _ = run_cli(capsys, "strongconv", "--r", "2", "--n-list", "6,8", "--k", "1",
                           "--l", "0", "--poly", "a+A+b+B", "--samples", "1")
    assert code == 0 and calls == [2]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[4]) for row in rows] == [want, want]


def test_bounds_gcheck(capsys):
    code, out, _ = run_cli(capsys, "bounds", "gcheck", "--L", "6", "--i", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["sup_derivative"] <= blob["derivative_bound"]


def test_bounds_bump_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "bump", "--eps", "0.5",
                           "--tmax", "100", "--points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,fourier,envelope"
    assert len(lines) == 6


def test_bounds_bump_csv_pinned(capsys):
    # the table as it read when the tails came from scipy's quad, within
    # the benchmark's tolerance
    pinned = os.path.join(os.path.dirname(__file__), "data", "bump_eps0.5_tmax10000.csv")
    with open(pinned) as fh:
        want = [line.split(",") for line in fh.read().splitlines()]
    code, out, _ = run_cli(capsys, "bounds", "bump", "--eps", "0.5", "--tmax", "10000")
    assert code == 0
    got = [line.split(",") for line in out.splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert all(math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-9)
                   for g, w in zip(got_row, want_row))


def test_bounds_bump_envelope_past_float_range(capsys):
    # at eps = 0.1 the envelope at t = 10000 is above the float range: the
    # row prints inf and the check, made on logs, passes
    code, out, _ = run_cli(capsys, "bounds", "bump", "--eps", "0.1", "--tmax", "10000")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert rows[-1][2] == math.inf
    assert all(fourier <= envelope for _, fourier, envelope in rows)


def test_dims_classifier_with_n_to_the_A_past_float_range(capsys):
    # 30^1e10 overflows a float; no weight has that many boxes
    code, out, _ = run_cli(capsys, "dims", "--n", "30", "--A", "1e10")
    assert code == 0
    assert json.loads(out)["classifier_ok"] is True


@pytest.mark.parametrize("coeff, shown", [("1e300", "1e+300"), ("0." + "0" * 99 + "1", "1e-100")],
                         ids=["huge", "tiny"])
def test_strongconv_rejects_coefficients_it_cannot_square(capsys, coeff, shown):
    # the norm estimate squares the operator and then the length of its
    # output: 1e300 overflowed with numpy warnings, and 1e-100 underflowed
    # to a zero residual and an estimate of 1.5e-100 for a norm of 2e-100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "strongconv", "--r", "1", "--k", "1", "--l", "0",
                                 "--n", "20", "--poly", f"{coeff}*a+{coeff}*A",
                                 "--samples", "1", "--reference", "1")
    assert code == 2 and out == ""
    assert f"coefficients [{shown}, {shown}]" in err


@pytest.mark.parametrize("text, terms", [
    ("1e-3*a+A", [("a", 1e-3), ("A", 1.0)]),
    ("2E+0*a+A", [("a", 2.0), ("A", 1.0)]),
    ("e-a", [("", 1.0), ("a", -1.0)]),
    ("2*e-a", [("", 2.0), ("a", -1.0)]),
], ids=["exponent-minus", "exponent-plus", "identity-minus-a", "scaled-identity-minus-a"])
def test_parse_poly_float_exponents(text, terms):
    # the sign after a mantissa's e belongs to the coefficient; a lone 'e'
    # is the identity word
    assert [(w.format(), c) for w, c in cli._parse_poly(text)] == terms


def test_dims_check(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "10", "--l1-cap", "4", "--A", "0.5")
    assert code == 0
    blob = json.loads(out)
    assert blob["all_passed"] and blob["classifier_ok"]


def test_dims_in_the_paper_regime(capsys):
    # n = 10^4: the weights are a few runs of equal entries, so the Weyl
    # dimensions cost what they cost at n = 30
    code, out, _ = run_cli(capsys, "dims", "--n", "10000", "--l1-cap", "8", "--A", "0.5")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 434 and blob["all_passed"] and blob["classifier_ok"]


def test_strongconv_checks_its_inputs_before_the_reference(capsys, monkeypatch):
    calls = []
    bound = rwalk.reduced_norm_lower_bound
    monkeypatch.setattr(rwalk, "reduced_norm_lower_bound",
                        lambda terms, r: calls.append(r) or bound(terms, r))
    code, out, err = run_cli(capsys, "strongconv", "--r", "2", "--n", "0", "--k", "1",
                             "--l", "0", "--poly", "a+A+b+B")
    assert code == 2 and out == "" and "n=0" in err
    code, out, err = run_cli(capsys, "strongconv", "--r", "2", "--n-list", "6,0", "--k", "1",
                             "--l", "0", "--poly", "a+A+b+B")
    assert code == 2 and out == "" and "n=0" in err
    code, out, err = run_cli(capsys, "strongconv", "--r", "-1", "--n", "3", "--k", "1",
                             "--l", "0", "--poly", "e")
    assert code == 2 and "rank r must be >= 1, got r=-1" in err
    assert calls == []


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(capsys, "expect", "--word", "a1b", "--lambda", "1", "--n", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "nosuchcommand")
    assert code == 2
    code, _, err = run_cli(capsys, "expect", "--word", "abAB", "--lambda", "5", "--n", "9")
    assert code == 3


def _no_convergence(*args, **kwargs):
    raise ConvergenceError("power iteration did not settle")


@pytest.mark.parametrize("argv,patch,expected,stderr_has", [
    (["rwalk", "--samples", "0"], None, 2, None),
    (["rwalk", "--r", "0"], None, 2, None),
    (["rwalk", "--r", "1", "--steps", "-1", "--samples", "1"], None, 2, "steps >= 0"),
    (["dims", "--n", "0"], None, 2, None),
    (["strongconv", "--r", "2", "--n", "1", "--k", "2", "--l", "2",
      "--poly", "a+A+b+B", "--reference", "3.4641016"], None, 2, None),
    (["strongconv", "--r", "2", "--n", "5", "--k", "1", "--l", "0",
      "--poly", "a+A+b+B", "--reference", "3.4641016"], _no_convergence, 3, None),
    (["wg", "--L", "2", "--cycle-type", "1,1", "--n", "1"], None, 2, None),
    (["strongconv", "--r", "2", "--n", "5", "--k", "1", "--l", "0",
      "--poly", "a+A", "--reference", "2", "--samples", "0"], None, 2, None),
    (["bounds", "gcheck", "--L", "56", "--i", "2"], None, 3, None),
    (["interp", "--word", "a", "--lambda", "1", "--n-start", "0"], None, 2, None),
    (["strongconv", "--r", "2", "--n", "5", "--k", "-1", "--l", "0",
      "--poly", "a+A", "--reference", "2"], None, 2, None),
    (["strongconv", "--r", "2", "--n", "5", "--k", "1", "--l", "-1",
      "--poly", "a+A", "--reference", "2"], None, 2, None),
    (["selftest", "--samples", "0"], None, 2, None),
    (["selftest", "--samples", "1"], None, 2, None),
    (["expect", "--word", "a", "--lambda", "1", "--mu", "1", "--n", "1"], None, 2, None),
    (["strongconv", "--r", "0", "--poly", "e", "--n", "3", "--k", "1", "--l", "0"],
     None, 2, "r=0"),
    (["strongconv", "--r", "1", "--poly", "a+b", "--n", "3", "--k", "1", "--l", "0"],
     None, 2, "above r=1"),
    (["strongconv", "--r", "2", "--poly", "a", "--k", "1", "--l", "0"], None, 2, "--n"),
    (["rwalk", "--steps", "10000", "--samples", "1000000000"], None, 3, "exceeds cap"),
    (["wg", "--L", "3", "--cycle-type", "1,2,0"], None, 2, None),
    (["wg", "--L", "3", "--cycle-type", "2,1,0"], None, 2, None),
    (["bounds", "bump", "--eps", "inf"], None, 2, "epsilon"),
    (["bounds", "bump", "--eps", "nan"], None, 2, "epsilon"),
    (["bounds", "bump", "--eps", "0.5", "--tmax", "-5"], None, 2, "--tmax"),
    (["dims", "--n", "3", "--l1-cap", "-1"], None, 2, "--l1-cap"),
    (["expect", "--word", "abAB", "--lambda", "1", "--symbolic", "--n", "3"], None, 2,
     "not allowed with"),
    (["strongconv", "--r", "2", "--n", "5", "--k", "1", "--l", "0",
      "--poly", "a", "--reference", "nan"], None, 2, "--reference"),
    (["dims", "--n", "3", "--A", "nan"], None, 2, "--A"),
    (["strongconv", "--r", "2", "--n", "5", "--k", "1", "--l", "0",
      "--poly", "nan*a", "--reference", "1"], None, 2, "nan*a"),
], ids=["rwalk-samples-0", "rwalk-r-0", "rwalk-steps-negative", "dims-n-0",
        "strongconv-n-below-k", "strongconv-no-convergence", "wg-n-below-L", "strongconv-samples-0",
        "gcheck-float-overflow", "interp-n-start-0", "strongconv-k-negative",
        "strongconv-l-negative", "selftest-samples-0", "selftest-samples-1",
        "expect-n-below-lengths", "strongconv-r-0", "strongconv-term-above-r",
        "strongconv-no-n", "rwalk-stack-over-cap", "wg-permutation-120",
        "wg-permutation-210", "bump-eps-inf", "bump-eps-nan", "bump-tmax-negative",
        "dims-l1-cap-negative", "expect-symbolic-with-n", "strongconv-reference-nan",
        "dims-A-nan", "strongconv-coefficient-nan"])
def test_failures_end_with_mapped_exit_code(capsys, monkeypatch, argv, patch, expected,
                                            stderr_has):
    if patch is not None:
        monkeypatch.setattr(montecarlo, "estimate_norm", patch)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == "" and err.strip()
    if stderr_has is not None:
        assert stderr_has in err


def test_selftest_small_sample(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--samples", "1500")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_rwalk_and_interp_import_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = ("import sys\n"
              "import haarwords.rwalk\n"
              "from haarwords import cli\n"
              "assert cli.run(['interp', '--word', 'abAB', '--lambda', '1']) == 0\n"
              "assert cli.run(['bounds', 'bump', '--eps', '0.5', '--tmax', '100']) == 0\n"
              "assert cli.run(['bounds', 'gcheck', '--L', '10', '--i', '6']) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_exact_commands_leave_montecarlo_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    script = ("import sys\n"
              "from haarwords import cli\n"
              "for argv in (['expect', '--word', 'abAB', '--lambda', '1', '--mu', '1', '--n', '4'],\n"
              "             ['interp', '--word', 'abAB', '--lambda', '1'],\n"
              "             ['wg', '--L', '3', '--cycle-type', '2,1']):\n"
              "    assert cli.run(argv) == 0\n"
              "print('haarwords.montecarlo' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


_small = st.integers(min_value=-2, max_value=6).map(str)
_words = st.text(alphabet="abcAB", max_size=4)
_partitions = st.lists(st.integers(min_value=-2, max_value=6), max_size=2).map(
    lambda parts: ",".join(map(str, parts)))


def _argv_for(command):
    if command in ("expect", "interp"):
        fixed = st.sampled_from([["--symbolic"], []]) if command == "expect" else st.just([])
        n_flag = "--n" if command == "expect" else "--n-start"
        return st.tuples(_words, _partitions, _partitions, fixed,
                         st.lists(_small, max_size=1)).map(
            lambda t: [command, "--word", t[0], "--lambda", t[1], "--mu", t[2], *t[3],
                       *(x for n in t[4] for x in (n_flag, n))])
    if command == "wg":
        return st.tuples(_small, _partitions, st.lists(_small, max_size=1)).map(
            lambda t: ["wg", "--L", t[0], "--cycle-type", t[1],
                       *(x for n in t[2] for x in ("--n", n))])
    if command == "dims":
        return st.tuples(_small, _small).map(
            lambda t: ["dims", "--n", t[0], "--l1-cap", t[1]])
    if command == "strongconv":
        degree = st.integers(min_value=-1, max_value=2).map(str)
        return st.tuples(st.integers(min_value=-1, max_value=3).map(str), _small, degree,
                         degree, st.sampled_from(["e", "a+A", "a+b", "b"])).map(
            lambda t: ["strongconv", "--reference", "1", "--r", t[0], "--n", t[1],
                       "--k", t[2], "--l", t[3], "--poly", t[4]])
    return st.tuples(_small, st.sampled_from(["uniform-gen", "lazy-uniform"]),
                     _small, _small).map(
        lambda t: ["rwalk", "--r", t[0], "--measure", t[1], "--steps", t[2],
                   "--samples", t[3]])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["expect", "wg", "interp", "dims", "rwalk", "strongconv"])
       .flatmap(_argv_for))
def test_small_inputs_exit_with_a_mapped_code(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err
