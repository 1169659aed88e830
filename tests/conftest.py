"""Hypothesis profiles.  The default, ``derandomized``, draws the same
examples on every run, so the suite's outcome is a function of the code;
``--hypothesis-profile fresh`` draws new examples each run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("fresh", derandomize=False)
settings.load_profile("derandomized")
