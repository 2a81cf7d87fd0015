"""Hypothesis runs derandomized and without deadlines, so every run of the
suite draws the same examples and a slow or loaded machine cannot fail a test
on time alone."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def count_fractions():
    """`with count_fractions() as created:` records the arguments of every
    Fraction constructed inside the block."""
    @contextmanager
    def counting():
        created = []
        original = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            created.append(args)
            return original.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            yield created
        finally:
            Fraction.__new__ = original

    return counting
