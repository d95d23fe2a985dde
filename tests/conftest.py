import pytest

from pathcoalg import hopf
from pathcoalg.scalar import CycScalar

FAMILY_CACHES = (hopf.family_certificate,)


@pytest.fixture(autouse=True)
def fresh_family_certificates():
    """`hopf.family_certificate` caches the one certificate of B(0, 0) across
    calls; it keeps the rows of its residues, which are all
    `verify_hopf_axioms` evaluates.  Clearing it around each test makes a
    test that monkeypatches a term function see its mutant, rather than
    stale rows, and keeps a mutant's results out of later tests."""
    for cache in FAMILY_CACHES:
        cache.cache_clear()
    yield
    for cache in FAMILY_CACHES:
        cache.cache_clear()


# the CycScalar arithmetic that the benchmark's tracer counts as scalar.ops
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse")


@pytest.fixture
def forbid_boxed_arithmetic(monkeypatch):
    """A function that, once called, makes every CycScalar arithmetic method
    raise for the rest of the test: what runs after it must stay on bare
    values.  Build inputs that need boxed arithmetic before calling it."""

    def refuse(name):
        def method(self, *args):
            raise AssertionError(f"CycScalar.{name} on a bare-valued path")
        return method

    def forbid():
        for name in SCALAR_OPS:
            monkeypatch.setattr(CycScalar, name, refuse(name))

    return forbid
