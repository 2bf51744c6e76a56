"""Every parameter with a default in `src/haarwords`, pinned.

A default is a value a caller may override.  One that no caller sets is
a module constant in disguise, so a new default shows up here as an edit
to DEFAULTED, and each entry names a caller that sets it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "haarwords"

DEFAULTED = {
    ("bounds.g_eval", "derivative_order"),            # tests/test_bounds.py
    ("bounds.markov_check", "interval"),              # tests only (ROADMAP item 15)
    ("errors.TheoremViolationError.__init__", "details"),  # every theorem check
    ("errors.ConvergenceError.__init__", "best_estimate"),  # montecarlo.estimate_norm
    ("freegroup.Word.__init__", "rank"),              # Word.__mul__, WalkMeasure.lazy_uniform
    ("freegroup.parse_word", "rank"),                 # tests only (ROADMAP item 15)
    ("freegroup.RankedBall.__init__", "cap"),         # rwalk._compressed_norm, freegroup.ball
    ("freegroup.ball", "cap"),                        # tests/test_freegroup.py
    ("montecarlo.sample_tuple", "group"),             # montecarlo._haar_chunks
    ("montecarlo.sample_tuple", "batch"),             # montecarlo._haar_chunks
    ("montecarlo.weyl_dim", "n"),                     # montecarlo.mixed_dimension
    ("montecarlo.estimate_norm", "tol"),              # strong_convergence_experiment, rwalk
    ("montecarlo.estimate_norm", "max_iter"),         # tests only (ROADMAP item 15)
    ("montecarlo.estimate_norm", "rng"),              # strong_convergence_experiment, rwalk
    ("montecarlo.MCResult.within", "k_se"),           # bench/cases.py
    ("montecarlo.mc_expect", "group"),                # bench/cases.py
    ("montecarlo.strong_convergence_experiment", "reference"),  # cli strongconv --reference
    ("ratfunc.Polynomial.__init__", "coeffs"),        # bounds.g_polynomial
    ("ratfunc.Polynomial.derivative", "order"),       # bounds.g_eval
    ("ratfunc.RationalFunction.__init__", "den"),     # wordint._integrate
    ("rwalk.WalkMeasure.__init__", "rank"),           # WalkMeasure.uniform_generators
    ("rwalk._convolve_distribution", "cap"),          # rwalk.spectral_radius
    ("rwalk._convolve_distribution", "stop_at_cap"),  # rwalk.spectral_radius
    ("rwalk.spectral_radius", "ball_radius"),         # bench/cases.py
    ("rwalk._vectorized_proper_power", "shifts"),     # rwalk.proper_power_stats
    ("rwalk.haagerup_check", "radius"),               # tests only (ROADMAP item 15)
    ("selftest.gram_inversion", "L_max"),             # tests only (ROADMAP item 15)
    ("symgroup.Partition.__init__", "parts"),         # cli._parse_partition
    ("weingarten.central_projection", "m"),           # weingarten.z_element
    ("weingarten.central_projection", "offset"),      # weingarten.z_element
    ("wordint._integrate", "scale"),                  # wordint._expect_raw
    ("wordint.exact_word_moment", "n"),               # selftest.monomial_agreement
    ("wordint.expect_stable_character", "n"),         # cli expect --n
    ("wordint._expect_raw", "n"),                     # wordint.expect_stable_character
    ("wordint.interpolate_phi", "n_start"),           # cli interp and decay --n-start
}


def _defaulted(node, prefix):
    """(qualified name, parameter) for every defaulted parameter of the
    functions defined under `node`, methods and nested functions too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaulted(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.FunctionDef):
            name = f"{prefix}.{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield name, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg
            yield from _defaulted(child, name)


def test_defaulted_parameters_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_defaulted(ast.parse(path.read_text()), path.stem))
    assert found - DEFAULTED == set(), "new defaulted parameters: name a caller that sets each"
    assert DEFAULTED - found == set(), "pinned defaults that are gone: drop them from DEFAULTED"
