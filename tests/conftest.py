"""Hypothesis profiles for the test suite.

Runs use Hypothesis' default profile. The "mutants" profile, which
`tests/mutants.py` selects with --hypothesis-profile, drops the shrink
and explain phases: a mutant is killed by any failing example, and each
mutant runs in a fresh directory with no example database, so shrinking
would start from scratch for every one.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)]
)
