"""The Hopf certificate run once, on B(0, 0) over Q[lam^+-1, s, t, k], with
every B(m, n) checked as its quotient by (a^m b^-n - 1).

`hopf._residues` on concrete parameters is the numeric certificate and the
oracle here: `verify_hopf_axioms` must name the same first failing check, with
the same witness text, as the first nonzero residue of the oracle, and return
the same report where none is nonzero.  `_residues` on generic B(m, n), the
former per-(m, n) certificate (`_family_residues`), is the oracle of the
quotient route: the B(0, 0) residues and the two characters of a^m b^-n must
cut out exactly the laws of `validate_params`, as its residues do, and the
route must pass exactly where they vanish.  Mutants of `canon` must fail the
check that trusts it.
"""

import functools
import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pathcoalg import hopf, quiver
from pathcoalg.errors import AxiomFailure, ForbiddenPair, PathcoalgError
from pathcoalg.classify import IsoWitness, verify_witness
from pathcoalg.hopf import (
    BmnParams,
    family_certificate,
    validate_params,
    verify_hopf_axioms,
)
from pathcoalg.linalg import accumulate
from pathcoalg.quiver import grid_window, group_canonical_pair
from pathcoalg.scalar import CycScalar, Laurent, bare, cyc

import test_hopf
from reference import (
    _family_residues,
    lattices_equal,
    numeric_verdict,
    numeric_witness,
    witness_residues,
)

SWEEP_PAIRS = [(0, 0), (2, 0), (3, 1), (4, 2), (2, -2), (1, 1), (2, 1), (4, 0), (6, 2)]
SWEEP_LAMBDAS = ["1", "-1", "2", "z3", "z4", "-z4", "1/2"]
LAMBDA, S, T, K = (Laurent({(0,) * i + (1,) + (0,) * (3 - i): 1}) for i in range(4))


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


def character_residues(m, n):
    """sign_x(m, -n) - 1 and sign_y(m, -n) - 1 on generic parameters: both
    vanish iff g = a^m b^-n is central, check (b) of `verify_hopf_axioms`."""
    generic = hopf._generic_params(m, n)
    return [generic.sign_x(m, -n) - 1, generic.sign_y(m, -n) - 1]


def quotient_residues(m, n):
    """The coefficients the quotient route specializes for B(m, n), as
    (message, coefficients): the rows of the B(0, 0) certificate and the two
    character residues of g."""
    return [("B(0, 0) certificate row", family_certificate()[1]),
            ("g is not central", tuple(character_residues(m, n)))]


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


def part_1(checks):
    """The coefficients of the right-multiplication residues among checks."""
    return [c for message, *_, residue in checks
            if message.startswith("right multiplication") for c in residue]


LAW_PAIRS = SWEEP_PAIRS + [(0, 2), (0, -4), (3, 3), (5, 1), (6, 0), (-2, 4)]


class TestParameterLaws:
    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    def test_residues_vanish_on_every_law_component(self, m, n):
        """Both the quotient route's residues and the oracle's vanish on the laws."""
        assert family_certificate()[1] and _family_residues(m, n)
        for point in law_components(m, n):
            for message, residue in quotient_residues(m, n) + [
                    (message, residue) for message, _, residue in _family_residues(m, n)]:
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

    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    def test_laws_cite_their_residues(self, m, n):
        """The residues the `validate_params` docstring names: the characters
        of g, which are part-1 residues of the oracle away from (1, 1) (up to
        a unit +/- lam^j), and three part-1 residues of B(0, 0)."""
        sign = -1 if (m + n) % 2 else 1
        characters = [sign * LAMBDA ** -n - 1, sign * LAMBDA ** -m - 1]
        assert character_residues(m, n) == characters
        if (m, n) != (1, 1):
            oracle = {up_to_unit(c) for c in part_1(_family_residues(m, n))}
            assert all(not c or up_to_unit(c) in oracle for c in characters)
        named = [(LAMBDA * LAMBDA - 1) * S, (LAMBDA * LAMBDA - 1) * T, (LAMBDA - 1) * K]
        free = {up_to_unit(c) for c in part_1(_family_residues(0, 0))}
        assert all(up_to_unit(c) in free for c in named)

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
    """Conversely, the part-1 residues of B(0, 0) and the two character
    residues of g alone have no common zero with lam != 0 off the laws: each
    generator f of the ideal of the law set lies in the radical of those
    residues and lam*u - 1 (Rabinowitsch: 1 is in the ideal with 1 - z*f
    added).  So the laws are exactly where the quotient route's residues
    vanish.  The oracle's part-1 residues cut out the same set."""

    @pytest.mark.parametrize("m, n", LAW_PAIRS)
    @pytest.mark.parametrize("route", ["quotient", "oracle"])
    def test_no_common_zero_off_the_laws(self, m, n, route):
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

        if route == "quotient":
            residues = part_1(_family_residues(0, 0)) + character_residues(m, n)
        else:
            residues = part_1(_family_residues(m, n))
        ideal = sorted({poly(c) for c in residues if c},
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


# -- the quotient route: B(m, n) from B(0, 0) ---------------------------------


class TestQuotientRoute:
    @given(
        m=st.integers(-8, 8),
        n=st.integers(-8, 8),
        lam=st.one_of(
            st.sampled_from(["1", "-1", "z3", "z4", "-z4", "z6", "z8", "-z8"]),
            st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        ),
        stk=st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]), min_size=3, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_passes_iff_the_oracle_has_no_nonzero_residue(self, m, n, lam, stk):
        params = BmnParams(m, n, cyc(lam), *map(cyc, stk))
        value = hopf._specializer(params)
        oracle = not any(value(c) for _, _, residue in _family_residues(m, n) for c in residue)
        try:
            passed = verify_hopf_axioms(params, 1)["ok"]
        except AxiomFailure:
            passed = False
        assert passed == oracle, params

    def test_certificate_is_built_once_for_every_family(self, monkeypatch):
        """One generic `_residues` run, on B(0, 0), serves every (m, n), and
        the witness check, which reads the parameters alone, adds none.  A
        failing query runs `_residues` on its own parameters."""
        runs, residues = [], hopf._residues

        def counting(params):
            runs.append(params)
            return residues(params)

        monkeypatch.setattr(hopf, "_residues", counting)
        failed = 0
        for (m, n), lam in itertools.product(SWEEP_PAIRS, ["1", "-1", "z3"]):
            params = BmnParams(m, n, cyc(lam), cyc(1), cyc(0), cyc(1))
            verify_witness(IsoWitness("phi", 1, 1), params, params)
            try:
                verify_hopf_axioms(params, 1)
            except AxiomFailure:
                failed += 1
        generic = [(p.m, p.n) for p in runs if isinstance(p.lam, Laurent)]
        assert generic == [(0, 0)] and 0 < failed == len(runs) - 1
        assert family_certificate.cache_info().misses == 1

    @pytest.mark.parametrize("m, n", SWEEP_PAIRS)
    def test_products_are_the_quotient_of_b00_products(self, m, n):
        """On generic parameters, `_mono_mul` at (m, n) is `canon` applied to
        the B(0, 0) product, for group parts in the radius-1 box and (m, -n):
        the multiplication reaches (m, n) only through `canon`."""
        quotient, free = hopf._generic_params(m, n), hopf._generic_params(0, 0)
        groups = list(itertools.product(range(-1, 2), repeat=2)) + [(m, -n)]
        keys = [(g, p, q) for g in groups for p in (0, 1) for q in (0, 1)]
        for key1, key2 in itertools.product(keys, repeat=2):
            expected = {}
            for (g, p, q), c in hopf._mono_mul(free, key1, key2).items():
                accumulate(expected, (quotient.canon(*g), p, q), c)
            assert hopf._mono_mul(quotient, key1, key2) == expected, (key1, key2)


def canon_not_additive(self, i, j):
    """The quotient map with the class of a sent to the class of 1: it is
    idempotent and sends (m, -n) to canon(0, 0), but moving by b after a
    differs from moving by ab."""
    g = group_canonical_pair(self.m, self.n, i, j)
    one = group_canonical_pair(self.m, self.n, 0, 0)
    return one if g == group_canonical_pair(self.m, self.n, 1, 0) else g


def canon_not_idempotent(self, i, j):
    """The quotient map after a shift by a: it respects the classes, but
    applied twice it shifts twice."""
    return group_canonical_pair(self.m, self.n, i + 1, j)


def canon_identity(self, i, j):
    """No quotient at all: idempotent and additive, but a^m b^-n is not 1."""
    return (i, j)


CANON_MUTANTS = {
    "it is not additive": canon_not_additive,
    "it is not idempotent": canon_not_idempotent,
    "a^m b^-n is not 1": canon_identity,
}


class TestCanonMutants:
    """The quotient route trusts `canon` only after its constant checks
    (`_certify_quotient_map`), so each mutant of `BmnParams.canon` fails the
    certificate with its own check."""

    @pytest.mark.parametrize("check", sorted(CANON_MUTANTS))
    def test_mutant_names_its_check(self, monkeypatch, check):
        cases = [p for p in test_hopf.mutant_params() + [validate_params(6, 2, 1, 1, 0, 0)]
                 if (p.m, p.n) != (0, 0) or check != "a^m b^-n is not 1"]
        monkeypatch.setattr(BmnParams, "canon", CANON_MUTANTS[check])
        for params in cases:
            message = f"canon is not the quotient map of B({params.m}, {params.n}): {check}"
            with pytest.raises(AxiomFailure, match=re.escape(message)) as failure:
                verify_hopf_axioms(params, 1)
            assert failure.value.witness.startswith("(")

    def test_unmutated_canon_passes_on_every_pair(self):
        for m, n in itertools.product(range(-8, 9), repeat=2):
            hopf._certify_quotient_map(hopf._generic_params(m, n))


BIG = st.integers(-10**6, 10**6)


def canon_laws_hold(canon, m, n, i, j, k):
    """The laws the proof in `group_canonical_pair` gives, at one pair and one
    lattice multiple: (i, j) - canon(i, j) lies in L = <(m, -n)>, canon(i, j)
    lies in [0, |m|) x Z (Z x [0, |n|) if m = 0), and canon(i + km, j - kn) =
    canon(i, j), so canon picks one representative per coset of L."""
    r = canon(i, j)
    di, dj = i - r[0], j - r[1]
    if m:
        in_lattice = di % m == 0 and dj == -(di // m) * n
        in_range = 0 <= r[0] < abs(m)
    else:
        in_lattice = di == 0 and (dj % n == 0 if n else dj == 0)
        in_range = 0 <= r[1] < abs(n) if n else True
    return in_lattice and in_range and canon(i + k * m, j - k * n) == r


@st.composite
def canon_cases(draw):
    """(m, n, i, j, k), each at most 10^6 in size; half the pairs lie within
    one step of a lattice point q(m, -n), where the branches of canon meet."""
    m, n, i, j, k = (draw(BIG) for _ in range(5))
    if draw(st.booleans()):
        q = draw(BIG)
        i, j = draw(st.integers(-1, 1)) + q * m, draw(st.integers(-1, 1)) - q * n
    return m, n, i, j, k


class TestCanonLaws:
    """`canon` is proved the quotient map in its docstring; these check the
    proof's laws over |m|, |n| <= 10^6.  The source mutants of the formula
    (k off by one, the wrong sign of n, the m = 0 branch reducing i) are in
    `tools/mutants.py`."""

    @settings(max_examples=300)
    @given(canon_cases())
    def test_laws_hold(self, case):
        m, n, *rest = case
        assert canon_laws_hold(functools.partial(group_canonical_pair, m, n), m, n, *rest)

    @pytest.mark.parametrize("name", sorted(CANON_MUTANTS))
    def test_each_mutant_fails_the_laws(self, name):
        mutant = CANON_MUTANTS[name]

        @settings(max_examples=300, derandomize=True, database=None)
        @given(canon_cases())
        def laws(case):
            m, n, *rest = case
            canon = functools.partial(mutant, SimpleNamespace(m=m, n=n))
            assert canon_laws_hold(canon, m, n, *rest)

        with pytest.raises(AssertionError):
            laws()


class TestCanonCallCount:
    """The Hopf certificate and a truncation call `canon` a number of times
    that depends on the radius, not on (m, n): the constant checks replace the
    box, which made 10(2 * 10^6 + 1)^2 calls at (10^6, 0)."""

    @staticmethod
    def canon_calls(m, n, radius):
        calls = []

        def counted(*args):
            calls.append(args)
            return group_canonical_pair(*args)

        params = validate_params(m, n, 1, 0, 0, 0)
        family_certificate()  # built once per process, not per query
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hopf, "group_canonical_pair", counted)
            patch.setattr(quiver, "group_canonical_pair", counted)
            verify_hopf_axioms(params, radius)
            hopf.truncate_to_subcoalgebra(params, radius)
        return len(calls)

    def test_equal_at_huge_and_small_m(self):
        # at radius 0 the window (0, 0) and its shifts by a, b and ab wrap
        # at neither m, so the two runs make the same calls
        assert self.canon_calls(10**6, 0, 0) == self.canon_calls(2, 0, 0)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_equal_once_the_window_does_not_wrap(self, radius):
        assert self.canon_calls(10**6, 0, radius) == self.canon_calls(10, 0, radius)
        assert self.canon_calls(0, 10**6, radius) == self.canon_calls(0, 10, radius)


# -- the span gate: the certificates evaluate the rows of their residues -----


def is_laurent_multiple(c, row):
    """Whether c is a Laurent multiple of row, a binomial whose two terms
    share their exponents of s, t and k: long division from the least term,
    each step cancelling it against a multiple of row's least term, until
    c is 0 or its least term lies past c's top power of lam or off row's
    monomial of s, t, k."""
    (low, lead), _ = sorted(row.terms.items())
    top = max(e[0] for e in c.terms)
    while c:
        e, q = min(c.terms.items())
        if e[0] > top or any(a < b for a, b in zip(e[1:], low[1:])):
            return False
        c = c - row * Laurent({tuple(a - b for a, b in zip(e, low)): Fraction(q) / lead})
    return True


def sign_x_commutes_with_a(self, i, j):
    """`BmnParams.sign_x` with the wrong sign for xa: x commutes with a."""
    return hopf._power(-self._lam, j)


POINT_SCALARS = st.sampled_from(["0", "1", "2", "z4"])
WITNESS_SCALES = st.sampled_from([1, -1, 2, "1/2", "z4", "z8"])


def unvalidated(m, n, *raw):
    """An unvalidated parameter set."""
    return BmnParams(m, n, *map(cyc, raw))


@st.composite
def points(draw):
    """A parameter set on or off the laws, validated when the laws allow."""
    m, n = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    raw = (draw(st.sampled_from(["1", "-1", "2", "-2", "z3", "z4"])),
           draw(POINT_SCALARS), draw(POINT_SCALARS), draw(POINT_SCALARS))
    if draw(st.booleans()):
        try:
            return validate_params(m, n, *raw)
        except PathcoalgError:
            pass
    return BmnParams(m, n, *map(cyc, raw))


class TestSpanGate:
    def test_hopf_rows(self):
        """30 coefficients, 3 rows: k(1 - lam), s(1 - lam^2) and t(1 - lam^2)
        up to a unit, and each coefficient a Laurent multiple of one of them."""
        rows = family_certificate()[1]
        coefficients = [c for *_, residue in _family_residues(0, 0) for c in residue]
        laws = [(1 - LAMBDA) * K, (1 - LAMBDA ** 2) * S, (1 - LAMBDA ** 2) * T]
        assert len(coefficients) == 30 and len(rows) == 3
        assert {up_to_unit(row) for row in rows} == {up_to_unit(law) for law in laws}
        for c in coefficients:
            assert any(is_laurent_multiple(c, row) for row in rows), c.terms
        # the division fails off the multiples
        assert is_laurent_multiple((LAMBDA ** -1 - LAMBDA ** 3) * K * S, laws[1])
        assert not is_laurent_multiple((1 - LAMBDA) * S, laws[1])
        assert not is_laurent_multiple((1 - LAMBDA ** 3) * K * S, laws[1])
        assert not is_laurent_multiple(LAMBDA - LAMBDA ** 3, laws[1])

    def test_witness_rows(self):
        """The structure-map residues of a witness vanish identically, on
        generic parameters and for both kinds: a rescaling commutes with
        Delta, epsilon and S, which `verify_witness` does not check."""
        for key in [(0, 0, 0, 0, "phi"), (2, -2, 2, -2, "psi"), (3, 1, 1, 3, "psi"),
                    (4, 2, 4, 2, "phi"), (0, 0, 0, 0, "psi"), (2, 0, 2, 0, "phi")]:
            assert witness_residues(*key) == ()

    @pytest.mark.parametrize("point", [(-1, 0, 0, 1), (2, 1, 0, 0), (2, 0, 1, 0)])
    def test_a_dropped_row_is_caught(self, monkeypatch, point):
        """Each row is the only one nonzero at its point (lam, s, t, k), so a
        certificate without it passes B(0, 0) there, where the residues of
        the concrete parameters, like the whole certificate, name a failure."""
        params = BmnParams(0, 0, *map(cyc, point))
        names, rows = family_certificate()
        assert parametric_verdict(params, 1) == numeric_verdict(params, 1)
        kept = tuple(row for row in rows if not specialize(row, point))
        assert len(kept) == 2
        monkeypatch.setattr(hopf, "family_certificate", lambda: (names, kept))
        assert isinstance(numeric_verdict(params, 1), tuple)
        assert parametric_verdict(params, 1) != numeric_verdict(params, 1)

    @pytest.mark.parametrize("given_rows, kept", [
        # no divisor: lam^2 - 1 does not divide lam^3 - 1, nor s divide t
        ([(1 - LAMBDA ** 2) * S, (1 - LAMBDA ** 3) * S * T], [0, 1]),
        ([(1 - LAMBDA ** 2) * S, (1 - LAMBDA ** 4) * T], [0, 1]),
        # a divisor up to a unit lam^j, in either order
        ([LAMBDA ** -1 * K - K, LAMBDA ** 2 * K * S - LAMBDA ** 5 * K * S], [0]),
        ([(1 - LAMBDA ** 6) * S * T * K, (1 - LAMBDA ** 3) * T], [1]),
        # two rows equal up to a unit are kept once
        ([K - LAMBDA * K, LAMBDA ** -1 * K - K], [0]),
        # 1 + lam and a row that is no binomial at one monomial divide nothing
        ([S + LAMBDA * S, (1 - LAMBDA ** 2) * S * T, T - S, (T - S) * (1 - LAMBDA)], [0, 1, 2, 3]),
    ])
    def test_row_reduction_rule(self, monkeypatch, given_rows, kept):
        """`family_certificate` keeps rows up to lam^j and drops a binomial
        M(1 - lam^v) only for a divisor M'(1 - lam^v'), M' | M and v' | v."""
        monkeypatch.setattr(hopf, "_span_rows", lambda coefficients: tuple(given_rows))
        rows = family_certificate()[1]
        assert len(rows) == len(kept)
        assert {up_to_unit(row) for row in rows} == {up_to_unit(given_rows[i]) for i in kept}

    @pytest.mark.parametrize("index", range(13))
    def test_every_span_row_vanishes_with_the_certificate(self, index):
        """Each of the 13 rows of the residues' Q-span vanishes wherever the 3
        certificate rows do, on 576 points (lam, s, t, k), lam among 1, -1,
        2, -2, z3, z4, 1/2, z6 and z8 and s, t, k among 0, 1, 2 and z4."""
        coefficients = [c for *_, residue in _family_residues(0, 0) for c in residue]
        span = hopf._span_rows(coefficients)
        assert len(span) == 13
        rows, scalars = family_certificate()[1], [cyc(v) for v in ("0", "1", "2", "z4")]
        for lam in ("1", "-1", "2", "-2", "z3", "z4", "1/2", "z6", "z8"):
            for stk in itertools.product(scalars, repeat=3):
                point = (cyc(lam), *stk)
                if not any(specialize(row, point) for row in rows):
                    assert not specialize(span[index], point), point

    def test_a_wrong_sign_for_xa_fails_the_witness(self, monkeypatch):
        """With x commuting with a, the target's character of x at a is 1, not
        -1, so "ax = -xa" goes to 2ax and the identity witness fails, in the
        closed form and in the reference."""
        monkeypatch.setattr(BmnParams, "sign_x", sign_x_commutes_with_a)
        params, w = BmnParams(0, 0, *map(cyc, (1, 0, 0, 0))), IsoWitness("phi", 1, 1)
        assert not verify_witness(w, params, params)
        assert not numeric_witness(w, params, params)

    @given(params=points(), radius=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_hopf_gate_matches_per_residue_gate(self, params, radius):
        assert parametric_verdict(params, radius) == numeric_verdict(params, radius)

    @given(p1=points(), p2=points(), same=st.booleans(), kind=st.sampled_from(["phi", "psi"]),
           alpha=WITNESS_SCALES, beta=WITNESS_SCALES)
    @settings(max_examples=150, deadline=None)
    @example(p1=unvalidated(4, 0, 1, 0, 0, 0), p2=unvalidated(2, 0, 1, 0, 0, 0), same=False,
             kind="phi", alpha=1, beta=1)
    @example(p1=unvalidated(0, 0, 1, 0, 0, 0), p2=unvalidated(2, 0, 1, 0, 0, 0), same=False,
             kind="phi", alpha=1, beta=1)
    @example(p1=unvalidated(0, 0, 1, 0, 0, 0), p2=unvalidated(0, 2, 1, 0, 0, 0), same=False,
             kind="psi", alpha=1, beta=1)
    @example(p1=unvalidated(1, -1, 2, 0, 0, 0), p2=unvalidated(1, -1, 2, 0, 0, 0), same=True,
             kind="phi", alpha=1, beta=1)
    @example(p1=unvalidated(1, -1, 1, 1, 1, 1), p2=unvalidated(1, -1, 1, 1, 1, 0), same=False,
             kind="phi", alpha=1, beta=1)
    @example(p1=unvalidated(2, 0, 1, 1, 0, 0), p2=unvalidated(0, 2, 1, 0, 0, 0), same=False,
             kind="psi", alpha=1, beta=1)
    @example(p1=unvalidated(0, 2, 1, 1, 1, 0), p2=unvalidated(0, 2, 1, 1, 0, 0), same=False,
             kind="phi", alpha=1, beta=1)
    @example(p1=unvalidated(0, 0, 2, 0, 0, 1), p2=unvalidated(0, 0, "1/2", 0, 0, 2), same=False,
             kind="psi", alpha=1, beta=1)
    @example(p1=unvalidated(0, 0, 2, 0, 0, 1), p2=unvalidated(0, 0, "1/2", 0, 0, 1), same=False,
             kind="psi", alpha=1, beta=1)
    def test_closed_form_matches_per_residue_witness(self, p1, p2, same, kind, alpha, beta):
        """Against `numeric_witness`, on parameters on and off the laws.  The
        examples: three quotient maps, well defined but not bijective, which
        both sides reject; an unvalidated B(1, -1) whose character of x at a
        is -1/2, not -1; a void k(1 - ab), s(1 - a^2) or t(1 - b^2) on the
        target; and psi with k1 = alpha beta k2/lam2 at lam2 = 1/2, and with
        k1 = alpha beta k2."""
        p2 = p1 if same else p2
        w = IsoWitness(kind, alpha, beta)
        assert verify_witness(w, p1, p2) == (
            numeric_witness(w, p1, p2) and lattices_equal(w, p1, p2))


class TestClosedFormCount:
    @pytest.mark.parametrize("radius", range(9))
    def test_basis_checked_counts_the_window(self, radius):
        """Every (m, n) with |m|, |n| <= 6 on which the axioms can hold."""
        for m, n in itertools.product(range(-6, 7), repeat=2):
            if (m + n) % 2 == 0:
                report = verify_hopf_axioms(BmnParams(m, n, *map(cyc, (1, 0, 0, 0))), radius)
                assert report["basis_checked"] == 4 * len(grid_window(m, n, radius)), (m, n)

    def test_huge_radius_lists_no_window(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the window was listed")

        monkeypatch.setattr(hopf, "grid_window", refuse)
        side = 2 * 10 ** 6 + 1
        for (m, n), width in [((0, 0), side), ((4, 2), 4), ((0, 6), 6), ((2, -2), 2)]:
            report = verify_hopf_axioms(validate_params(m, n, 1, 0, 0, 0), 10 ** 6)
            assert report["basis_checked"] == 4 * side * width


class TestPower:
    @given(x=st.one_of(st.integers(-5, 5), st.fractions(max_denominator=4)),
           e=st.integers(-4, 6))
    def test_exact_values_in_normal_form(self, x, e):
        """An int or Fraction to any power is an int, or a Fraction that is
        not integral; never a float."""
        assume(x or e >= 0)
        got = hopf._power(x, e)
        assert type(got) in (int, Fraction) and got == Fraction(x) ** e
        assert type(got) is int or got.denominator != 1

    def test_boxed_and_polynomial_bases(self):
        z4 = CycScalar.root_of_unity(4)
        assert hopf._power(z4, 2) == -1 and type(hopf._power(z4, 2)) is int
        assert hopf._power(z4, -1) == -z4
        assert hopf._power(LAMBDA, -2) == LAMBDA.inverse() * LAMBDA.inverse()
