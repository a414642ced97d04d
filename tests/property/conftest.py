"""Hypothesis profiles for the property suite.

The default profile keeps Hypothesis' own settings.  CI selects the
``ci`` profile (``HYPOTHESIS_PROFILE=ci``) for a bounded, deterministic
run: fewer examples, no deadline (shared runners have noisy clocks), no
example database, and derandomized generation so every run draws the same
examples.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=50, deadline=None)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
