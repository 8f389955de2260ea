"""Every hypothesis test draws the same examples on every run.

With `derandomize=True` each test's examples follow from the test itself, so
a failing id repeats, and a fault that only some draws reach is either caught
on every run or on none.  The profile keeps no example database (its
`database` is None), so no earlier run's failures are replayed first.
"""

from hypothesis import settings

settings.register_profile("fixed-draws", derandomize=True)
settings.load_profile("fixed-draws")
