"""Test-suite settings.

Property tests run under the `tier1` hypothesis profile: derandomized, so
every run draws the same examples; bounded in examples; and without an
example database, so a run leaves no state behind.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=25, deadline=None, print_blob=False)
settings.load_profile("tier1")
