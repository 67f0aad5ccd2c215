import tempfile

import pytest
from hypothesis import configuration

# While collecting, hypothesis caches the constants it mines from source files
# in its home directory, database=None or not.  Point that home at a directory
# removed at exit, so test runs leave no .hypothesis/ in the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


class _NoDraws:
    def randbelow(self, n):
        raise AssertionError("drew a scalar")


@pytest.fixture
def no_draws():
    """An rng that refuses every draw."""
    return _NoDraws()
