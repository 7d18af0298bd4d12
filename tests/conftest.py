import pytest
from hypothesis import settings

from pomest.sampling import make_rng


@pytest.fixture
def rng():
    return make_rng(20260811)


# Property tests draw the same examples on every run and keep no example
# database, so Tier-1 stays reproducible.
settings.register_profile("pomest", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("pomest")
