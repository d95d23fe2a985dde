"""The Hopf certificate run once per (m, n) over Q[lam^+-1, s, t, k].

`hopf._residues` on concrete parameters is the numeric certificate and the
oracle here: `verify_hopf_axioms` must name the same first failing check, with
the same witness text, as the first nonzero residue of the oracle, and return
the same report where none is nonzero.  The residues cached by
`family_certificate` must also cut out exactly the laws of `validate_params`.
"""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pathcoalg import hopf
from pathcoalg.errors import AxiomFailure, ForbiddenPair, PathcoalgError
from pathcoalg.hopf import (
    GENERATOR_NAMES,
    BmnElement,
    BmnParams,
    family_certificate,
    relations,
    validate_params,
    verify_hopf_axioms,
)
from pathcoalg.scalar import CycScalar, Laurent, cyc

import test_hopf

SWEEP_PAIRS = [(0, 0), (2, 0), (3, 1), (4, 2), (2, -2), (1, 1), (2, 1), (4, 0), (6, 2)]
SWEEP_LAMBDAS = ["1", "-1", "2", "z3", "z4", "-z4", "1/2"]
LAMBDA, S, T, K = (Laurent({(0,) * i + (1,) + (0,) * (3 - i): 1}) for i in range(4))


def numeric_verdict(params, radius):
    """What the certificate run on the concrete parameters says: the first
    nonzero residue as (message, witness text), or the report."""
    for message, witness, residue in hopf._residues(params):
        if residue:
            if not isinstance(witness, str):
                witness = str(BmnElement(params, witness))
            return message, witness
    return {
        "params": params.to_json(),
        "window_radius": radius,
        "basis_checked": 4 * len(params.window(radius)),
        "product_pairs": 0,
        "certificate": {
            "relations": [name for name, _ in relations(params)],
            "generators": list(GENERATOR_NAMES.values()),
            "translates": ["1", "a", "a^-1", "b", "b^-1"],
        },
        "ok": True,
    }


def parametric_verdict(params, radius):
    try:
        return verify_hopf_axioms(params, radius)
    except AxiomFailure as exc:
        return exc.detail, exc.witness


def assert_verdicts_agree(params, radius=2):
    want, got = numeric_verdict(params, radius), parametric_verdict(params, radius)
    assert got == want and str(got) == str(want), params


class TestAgainstNumericCertificate:
    @pytest.mark.parametrize("m, n", SWEEP_PAIRS)
    def test_sweep(self, m, n):
        """The 756-set sweep, built past `validate_params`."""
        failed = 0
        for lam, s, t, k in itertools.product(SWEEP_LAMBDAS, [0, 1, 2], [0, 1], [0, 1]):
            params = BmnParams(m, n, cyc(lam), cyc(s), cyc(t), cyc(k))
            assert_verdicts_agree(params)
            failed += isinstance(parametric_verdict(params, 2), tuple)
        # every family fails somewhere and odd m + n fails everywhere
        assert failed == 84 if (m + n) % 2 else 0 < failed < 84

    @given(
        m=st.integers(-4, 6),
        n=st.integers(-4, 6),
        lam=st.one_of(
            st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
            st.sampled_from(["z3", "z4", "-z4"]),
        ),
        stk=st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
                     min_size=3, max_size=3),
        radius=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_parameters(self, m, n, lam, stk, radius):
        assert_verdicts_agree(BmnParams(m, n, cyc(lam), *map(cyc, stk)), radius)

    @pytest.mark.parametrize("name", sorted(test_hopf.MUTANTS) + ["Delta(u) = 1 (x) u"])
    def test_mutants(self, monkeypatch, name):
        """A mutated term function reaches the generic run as it reaches the
        numeric one, so both name the same first failure."""
        owner, attr, mutant = test_hopf.MUTANTS.get(
            name, (hopf, "_comul_terms", test_hopf.comul_terms_left_unit))
        monkeypatch.setattr(owner, attr, mutant)
        for params in test_hopf.mutant_params():
            assert_verdicts_agree(params, 1)

    def test_valid_parameters_pass(self):
        for (m, n), lam, s, t, k in itertools.product(
                SWEEP_PAIRS, SWEEP_LAMBDAS, [0, 2], [0, 1], [0, 3]):
            try:
                params = validate_params(m, n, lam, s, t, k)
            except PathcoalgError:
                continue
            assert verify_hopf_axioms(params, 1)["ok"]

    def test_relations_are_built_once_per_family(self, monkeypatch):
        calls = []
        build = hopf.relations

        def counting(params):
            calls.append(params)
            return build(params)

        monkeypatch.setattr(hopf, "relations", counting)
        verify_hopf_axioms(validate_params(0, 0, 1, 0, 0, 0), 2)
        built = len(calls)
        assert built and all(isinstance(p.lam, Laurent) for p in calls)
        for lam in ["1", "-1", "z3"]:
            report = verify_hopf_axioms(validate_params(0, 0, lam, 0, 0, 0), 2)
            assert report["certificate"]["relations"] == [name for name, _ in build(calls[0])]
        assert len(calls) == built


class TestLaurent:
    def test_ring_operations(self):
        p = LAMBDA * S - 2 * K + Fraction(1, 2)
        assert p - p == 0 and not (p - p)
        assert (p + 1) - 1 == p and 3 - p == -(p - 3)
        assert LAMBDA * LAMBDA.inverse() == 1 and LAMBDA ** 0 == 1
        assert (-LAMBDA) ** -2 == LAMBDA.inverse() * LAMBDA.inverse()
        assert (S + T) ** 2 == S * S + 2 * S * T + T * T
        assert p * cyc("1/3") == p * Fraction(1, 3)
        with pytest.raises(ValueError):
            (S + 1) ** -1
        with pytest.raises(TypeError):
            S * CycScalar.root_of_unity(3)

    def test_products_without_collection(self):
        """A monomial or bare rational factor: the terms cannot collide."""
        mono = 2 * LAMBDA * S
        assert (mono * (Fraction(1, 2) * LAMBDA ** -1 * K)).terms == {(0, 1, 0, 1): 1}
        assert (mono * mono).terms == {(2, 2, 0, 0): 4}
        p = LAMBDA * S - 2 * K + 1
        assert (LAMBDA * p).terms == (p * LAMBDA).terms == {
            (2, 1, 0, 0): 1, (1, 0, 0, 1): -2, (1, 0, 0, 0): 1}
        for zero in (p * 0, 0 * p, mono * 0):
            assert zero.terms == {} and not zero and zero == 0
        third = Fraction(1, 3)
        assert (p * 2 * third).terms == (2 * third * p).terms == {
            (1, 1, 0, 0): 2 * third, (0, 0, 0, 1): -4 * third, (0, 0, 0, 0): 2 * third}
        # a product that cancels: to the zero polynomial, and in its cross terms
        zero = S - S
        assert (zero * mono).terms == (p * zero).terms == (zero * zero).terms == {}
        assert ((S + T) * (S - T)).terms == {(0, 2, 0, 0): 1, (0, 0, 2, 0): -1}

    def test_bare_keeps_polynomials_and_unboxes_constants(self):
        from pathcoalg.scalar import bare

        assert bare(S + 1) == S + 1 and isinstance(bare(S + 1), Laurent)
        for value in (S - S + 2, LAMBDA * LAMBDA ** -1, LAMBDA - LAMBDA):
            assert type(bare(value)) is int
        assert bare(S * Fraction(1, 2) - S * Fraction(1, 2) + Fraction(1, 3)) == Fraction(1, 3)


# -- the parameter laws: where the cached residues vanish --------------------


def law_components(m, n):
    """The components of the `validate_params` laws for (m, n), as points
    (lam, s, t, k) whose entries may be the generic variables."""
    if (m + n) % 2:
        return []
    d = math.gcd(m, n)
    points = [(1, S, T, K)]
    if d % 2 == 0:
        points.append((-1, S, T, 0))
    roots = [LAMBDA] if d == 0 else [CycScalar.root_of_unity(d, j) for j in range(d)]
    return points + [(lam, 0, 0, 0) for lam in roots]


def specialize(c, point):
    params = SimpleNamespace(**dict(zip(["lam", "s", "t", "k"], point)))
    params.lam_inv = hopf._power(point[0], -1)
    return hopf._specializer(params)(c)


def up_to_unit(c):
    """c divided by the lowest power of lam and the coefficient of its least
    exponent, as a hashable normal form."""
    low = min(e[0] for e in c.terms)
    terms = {(e[0] - low, *e[1:]): q for e, q in c.terms.items()}
    lead = terms[min(terms)]
    return frozenset((e, Fraction(q) / lead) for e, q in terms.items())


LAW_PAIRS = SWEEP_PAIRS + [(0, 2), (0, -4), (3, 3), (5, 1), (6, 0), (-2, 4)]


class TestParameterLaws:
    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    def test_residues_vanish_on_every_law_component(self, m, n):
        _, checks = family_certificate(m, n)
        assert checks
        for point in law_components(m, n):
            for message, _, residue in checks:
                assert not any(specialize(c, point) for c in residue), (point, message)

    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    def test_components_are_the_validated_sets(self, m, n):
        """Each component, sampled at lambda = z5 where lambda is free and at
        s = 2, t = 3, k = 5, passes `validate_params` (except for the excluded
        pair) and the axioms."""
        for point in law_components(m, n):
            lam, s, t, k = (specialize(c, (cyc("z5"), 2, 3, 5)) if isinstance(c, Laurent)
                            else c for c in point)
            if (m, n) in ((1, 1), (-1, -1)):
                with pytest.raises(ForbiddenPair):
                    validate_params(m, n, lam, s, t, k)
                params = BmnParams(m, n, cyc(lam), cyc(s), cyc(t), cyc(k))
            else:
                params = validate_params(m, n, lam, s, t, k)
            assert verify_hopf_axioms(params, 1)["ok"]

    @pytest.mark.parametrize("m, n", [pair for pair in LAW_PAIRS if pair != (1, 1)])
    def test_laws_cite_their_residues(self, m, n):
        """The residues the `validate_params` docstring names are among those
        part 1 leaves, up to a unit +/- lam^j."""
        sign = -1 if (m + n) % 2 else 1
        named = [sign * LAMBDA ** n - 1, sign * LAMBDA ** -m - 1,
                 (LAMBDA * LAMBDA - 1) * S, (LAMBDA * LAMBDA - 1) * T, (LAMBDA - 1) * K]
        _, checks = family_certificate(m, n)
        part_1 = {up_to_unit(c) for message, _, residue in checks
                  if message.startswith("right multiplication") for c in residue}
        for c in named:
            assert not c or up_to_unit(c) in part_1, c

    def test_forbidden_pair_is_no_axiom_law(self):
        """At (m, n) = +/-(1, 1) the axioms hold with lambda = 1 and fail
        otherwise: `ForbiddenPair` excludes a Hopf algebra."""
        for (m, n), s, t, k in itertools.product([(1, 1), (-1, -1)], [0, 2], [0, 1], [0, 3]):
            assert verify_hopf_axioms(BmnParams(m, n, cyc(1), cyc(s), cyc(t), cyc(k)), 2)["ok"]
            with pytest.raises(AxiomFailure):
                verify_hopf_axioms(BmnParams(m, n, cyc(-1), cyc(s), cyc(t), cyc(k)), 2)
            with pytest.raises(ForbiddenPair):
                validate_params(m, n, 1, s, t, k)


class TestResiduesCutOutTheLaws:
    """Conversely, the part-1 residues alone have no common zero with lam != 0
    off the laws: each generator f of the ideal of the law set lies in the
    radical of the residues and lam*u - 1 (Rabinowitsch: 1 is in the ideal
    with 1 - z*f added).  So the laws are exactly where all residues vanish."""

    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    def test_no_common_zero_off_the_laws(self, m, n):
        sympy = pytest.importorskip("sympy")
        lam, s, t, k, u, z = sympy.symbols("lam s t k u z")

        def poly(c):
            if not isinstance(c, Laurent):
                return sympy.Rational(c)
            low = min(0, *(e[0] for e in c.terms))
            return sympy.expand(sum(sympy.Rational(q) * lam ** (e[0] - low) * s ** e[1]
                                    * t ** e[2] * k ** e[3] for e, q in c.terms.items()))

        def in_radical(f, ideal):
            basis = sympy.groebner(ideal + [1 - z * f], lam, s, t, k, u, z, order="grevlex")
            return basis.exprs == [1]

        _, checks = family_certificate(m, n)
        ideal = sorted({poly(c) for message, _, residue in checks
                        if message.startswith("right multiplication") for c in residue},
                       key=sympy.default_sort_key) + [lam * u - 1]
        d = math.gcd(m, n)
        if (m + n) % 2:
            laws = [sympy.Integer(1)]
        else:
            laws = [lam ** d - 1] if d else []
            laws += [(lam - 1) * g * h for g in (lam + 1, k) for h in (k, s, t)]
        for f in laws:
            assert in_radical(f, ideal), f
        if (m + n) % 2 == 0:
            # controls: lam = 1 with s free, and lam != 1 where d != 1, are zeros
            assert not in_radical(s, ideal)
            assert d == 1 or not in_radical(lam - 1, ideal)
