import pytest

from pathcoalg import hopf


@pytest.fixture(autouse=True)
def fresh_family_certificates():
    """`hopf.family_certificate` caches one certificate per (m, n) across
    calls.  Clearing it around each test makes a test that monkeypatches a
    term function see its mutant, and keeps a mutant's certificate out of
    later tests."""
    hopf.family_certificate.cache_clear()
    yield
    hopf.family_certificate.cache_clear()
