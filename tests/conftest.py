"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci``, which the CI tier-1 step selects, runs the
properties that leave their example count to the profile (the pruned MLE
engine against its scalar reference) on 1,000 examples instead of the
default 100.  Properties with their own ``max_examples`` keep it.
"""
from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
