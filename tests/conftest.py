"""Suite-wide test settings.

Hypothesis seeds each property test from a hash of the test itself, so every
run of the suite draws the same examples.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
