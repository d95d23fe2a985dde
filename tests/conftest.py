import pytest

from pathcoalg import classify, hopf

FAMILY_CACHES = (hopf.family_certificate, classify._witness_family)


@pytest.fixture(autouse=True)
def fresh_family_certificates():
    """`hopf.family_certificate` caches one certificate per (m, n), and
    `classify._witness_family` one witness check per (m1, n1, m2, n2, kind),
    across calls.  Clearing both around each test makes a test that
    monkeypatches a term function see its mutant in `verify_hopf_axioms` and
    in `verify_witness`, and keeps a mutant's family out of later tests."""
    for cache in FAMILY_CACHES:
        cache.cache_clear()
    yield
    for cache in FAMILY_CACHES:
        cache.cache_clear()
