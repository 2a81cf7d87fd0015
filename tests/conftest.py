"""Hypothesis runs derandomized and without deadlines, so every run of the
suite draws the same examples and a slow or loaded machine cannot fail a test
on time alone."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
