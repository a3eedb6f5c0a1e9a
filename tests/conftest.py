"""Hypothesis profiles.  ``pytest --hypothesis-profile=ci`` keeps no example
database and prints a ``@reproduce_failure`` blob for a failing draw, so a
property that fails once on a CI runner can be replayed locally."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True, database=None)
