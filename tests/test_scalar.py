import contextlib
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import assume, example, given, settings, strategies as st

from pathcoalg import scalar
from pathcoalg.errors import (
    CapacityExceeded,
    DivisionByZero,
    ParseError,
    SquareRootUnavailable,
    ZeroInput,
)
from pathcoalg.scalar import (
    ONE,
    ZERO,
    CycScalar,
    bare,
    cyc,
    cyclotomic_poly,
    parse_scalar,
    root_of_unity_order,
    sqrt,
)
from reference import order_by_divisor_powers, root_by_demotion, sqrt_by_trial_products


def zeta(n, e=1):
    return CycScalar.root_of_unity(n, e)


class TestBasics:
    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == [-1, 1]
        assert cyclotomic_poly(2) == [1, 1]
        assert cyclotomic_poly(3) == [1, 1, 1]
        assert cyclotomic_poly(4) == [1, 0, 1]
        assert cyclotomic_poly(6) == [1, -1, 1]
        assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]

    def test_zeta2_is_minus_one(self):
        assert zeta(2) == cyc(-1)
        assert zeta(2) * zeta(2) == ONE

    def test_zeta4_squares_to_minus_one(self):
        i = zeta(4)
        assert i * i == cyc(-1)
        assert i ** 4 == ONE

    def test_zeta3_sum(self):
        w = zeta(3)
        assert ONE + w + w * w == ZERO

    def test_rational_arithmetic(self):
        a = cyc(Fraction(2, 3))
        b = cyc(Fraction(1, 6))
        assert a + b == cyc(Fraction(5, 6))
        assert a * b == cyc(Fraction(1, 9))
        assert (a / b) == cyc(4)

    def test_mixed_conductors(self):
        # zeta_6 = -zeta_3^2
        assert zeta(6) == -(zeta(3) ** 2)
        assert zeta(4) * zeta(3) == zeta(12, 7)

    def test_canonical_demotion(self):
        # zeta_8^2 lives in Q(i)
        v = zeta(8) * zeta(8)
        assert v.n == 4
        assert v == zeta(4)
        # zeta_5 + zeta_5^2 + zeta_5^3 + zeta_5^4 = -1 is rational
        s = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
        assert s.n == 1 and bare(s) == -1
        # subfields whose embedded power basis is not a set of coordinates
        for n, e, minimal in [(15, 5, 3), (60, 12, 5), (20, 5, 4)]:
            assert zeta(n, e).n == minimal

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_hash_consistency(self):
        assert hash(zeta(8, 2)) == hash(zeta(4))
        assert len({zeta(8, 2), zeta(4), zeta(12, 3)}) == 1

    @pytest.mark.parametrize("q", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_hashes_as_its_coordinate(self, q):
        # cyc(q) == q, so the eq/hash contract needs equal hashes too
        assert cyc(q) == q
        assert hash(cyc(q)) == hash(q)
        assert len({cyc(q), q}) == 1


class TestRootOrder:
    def test_known_orders(self):
        assert root_of_unity_order(ONE) == 1
        assert root_of_unity_order(cyc(-1)) == 2
        assert root_of_unity_order(zeta(6)) == 6
        assert root_of_unity_order(zeta(4)) == 4
        assert root_of_unity_order(cyc(2)) is None
        assert root_of_unity_order(ONE + zeta(3)) == 6  # 1 + w = -w^2
        assert root_of_unity_order(ONE + zeta(5)) is None

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            root_of_unity_order(ZERO)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 24])
    def test_order_formula(self, n):
        from math import gcd

        for e in range(n):
            a = zeta(n, e)
            assert root_of_unity_order(a) == n // gcd(n, e)


class TestSqrt:
    def test_rational_squares(self):
        assert sqrt(cyc(4)) == cyc(2)
        assert sqrt(cyc(Fraction(9, 4))) == cyc(Fraction(3, 2))
        assert sqrt(ZERO) == ZERO

    def test_negative_rational(self):
        r = sqrt(cyc(-1))
        assert r * r == cyc(-1)

    def test_root_of_unity(self):
        for n in (2, 3, 4, 6, 8):
            for e in range(n):
                r = sqrt(zeta(n, e))
                assert r * r == zeta(n, e)

    def test_scaled_root(self):
        v = cyc(4) * zeta(3)
        r = sqrt(v)
        assert r * r == v

    def test_unavailable(self):
        with pytest.raises(SquareRootUnavailable):
            sqrt(cyc(2))
        with pytest.raises(SquareRootUnavailable):
            sqrt(ONE + zeta(5))


# The former searching routes, kept as references for the closed forms of
# `CycScalar.root_of_unity`, `sqrt` and `root_of_unity_order`.


def kinds(x):
    """Conductor, coordinates and coordinate types of a scalar."""
    return x.n, x.coeffs, [type(c) for c in x.coeffs]


def sqrt_or_none(sqrt_route, a):
    try:
        return kinds(sqrt_route(a))
    except SquareRootUnavailable:
        return None


SQRT_FACTORS = [1, -1, 4, Fraction(-9, 4), 2, Fraction(-1, 3)]


class TestClosedForms:
    """The closed forms give the former routes' values bit for bit."""

    def test_root_of_unity(self):
        for n in range(1, 131):
            for r in range(n):
                want = kinds(root_by_demotion(n, r))
                for e in (r - n, r, r + n):
                    assert kinds(zeta(n, e)) == want, (n, e)

    def test_sqrt(self):
        inputs = [cyc(q) * zeta(n, e) for n in (*range(1, 13), 15, 16, 20, 24, 30)
                  for e in range(n) for q in SQRT_FACTORS]
        inputs += [zeta(n) + zeta(n, 2) for n in range(3, 31)]  # no root of unity
        inputs += [ONE + zeta(n) for n in range(3, 31)]
        for a in inputs:
            assert sqrt_or_none(sqrt, a) == sqrt_or_none(sqrt_by_trial_products, a), a

    def test_order(self):
        for n in range(1, 61):
            for e in range(n):
                values = [zeta(n, e), -zeta(n, e)]
                if n <= 16:  # the divisor powers of a non-root are slow
                    values += [2 * zeta(n, e), ONE + zeta(n, e)]
                for a in values:
                    if a:
                        assert root_of_unity_order(a) == order_by_divisor_powers(a), a

    @given(st.integers(1, 200), st.integers(-400, 400), st.sampled_from(SQRT_FACTORS))
    @settings(max_examples=40, deadline=None)
    def test_property(self, n, e, q):
        root = zeta(n, e)
        assert kinds(root) == kinds(root_by_demotion(n, e))
        a = cyc(q) * root
        assert sqrt_or_none(sqrt, a) == sqrt_or_none(sqrt_by_trial_products, a)
        assert root_of_unity_order(a) == order_by_divisor_powers(a)

    def test_no_search_for_z910(self):
        """Neither the root nor its square root eliminates or multiplies two
        irrationals: z910 took 2.4 s through `_canonical` and its square root
        3.1 s through trial products."""
        from pathcoalg.linalg import SparseBasis

        irrational_products = []
        mul = CycScalar.__mul__

        def counted(self, other):
            if self.n != 1 and isinstance(other, CycScalar) and other.n != 1:
                irrational_products.append((self, other))
            return mul(self, other)

        with mock.patch.object(SparseBasis, "add", autospec=True,
                               side_effect=SparseBasis.add) as add, \
                mock.patch.object(SparseBasis, "residue", autospec=True,
                                  side_effect=SparseBasis.residue) as residue, \
                mock.patch.object(CycScalar, "__mul__", counted), \
                mock.patch.object(CycScalar, "__rmul__", counted):
            z = parse_scalar("z910")
            root = sqrt(z)
        assert (add.call_count, residue.call_count, irrational_products) == (0, 0, [])
        # zeta_910 = -zeta_455^228, and sqrt(zeta_910) = zeta_1820^911 = -zeta_1820
        assert kinds(z) == kinds(-zeta(455, 228)) and kinds(root) == kinds(-zeta(1820))


class TestSerialization:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-1", "2/3", "z3^1", "-z4^1", "1/2*z8^3", "1+z3^1", "2-3/5*z12^7"],
    )
    def test_round_trip(self, text):
        v = parse_scalar(text)
        assert parse_scalar(str(v)) == v

    def test_canonical_strings(self):
        assert str(ZERO) == "0"
        assert str(cyc(Fraction(-2, 3))) == "-2/3"
        assert str(zeta(3)) == "z3^1"
        assert str(ONE + zeta(3)) == "1+z3^1"

    def test_parse_expressions(self):
        assert parse_scalar("(1+z3^1)*(1+z3^2)") == ONE  # norm of 1+w is 1
        assert parse_scalar("z8^1*z8^1") == zeta(4)
        assert parse_scalar("-(2/3)") == cyc(Fraction(-2, 3))

    def test_parse_errors(self):
        for bad in ["", "1+", "z0^1", "1..2", "(1", "1 1", "1/0"]:
            with pytest.raises(ParseError):
                parse_scalar(bad)

    def test_conductor_cap(self):
        """A root-of-unity index past MAX_CONDUCTOR is refused before any
        field arithmetic: z100000 did not parse in 10 s before the cap."""
        cap = scalar.MAX_CONDUCTOR
        assert parse_scalar(f"z{cap}^{cap // 2}") == cyc(-1)
        for index in (cap + 1, 100000, 10**40):
            with pytest.raises(CapacityExceeded, match=f"index {index} exceeds {cap}"):
                parse_scalar(f"1+2*z{index}^3")

    def test_promotion_cap(self):
        """A sum or product of two irrationals is promoted to conductor at
        most 4 * MAX_CONDUCTOR: z97 * z89 and z97 + z89 built conductor
        8633, and z997 + z991 did not parse in 20 s."""
        bound = 4 * scalar.MAX_CONDUCTOR
        for make in (lambda: cyc("z97") * cyc("z89"), lambda: parse_scalar("z97+z89"),
                     lambda: parse_scalar("z997+z991")):
            with pytest.raises(CapacityExceeded, match=f"conductor \\d+ exceeds {bound}"):
                make()
        assert len(zeta(8).promote(bound)) == scalar.phi(bound)
        with pytest.raises(CapacityExceeded):
            zeta(8).promote(2 * bound)

    def test_root_past_the_promotion_bound(self):
        """A root of unity past conductor 4 * MAX_CONDUCTOR is refused before
        Phi is built, so sqrt(-z997 * z3), of conductor 2991, raises: it
        returned a root of conductor 11964, and squaring that raised."""
        bound = 4 * scalar.MAX_CONDUCTOR
        assert CycScalar.root_of_unity(bound + 2, 1).n == bound // 2 + 1
        for n, e in ((bound + 1, 1), (2 * bound + 2, 2)):
            with pytest.raises(CapacityExceeded, match=f"conductor {bound + 1} exceeds {bound}"):
                CycScalar.root_of_unity(n, e)
        with pytest.raises(CapacityExceeded, match=f"conductor 11964 exceeds {bound}"):
            sqrt(parse_scalar("-z997*z3"))


scalars = st.builds(
    lambda n, e, p, q: zeta(n, e) * cyc(Fraction(p, q)) + cyc(Fraction(e, q)),
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


class TestProperties:
    @given(scalars, scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars)
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == ONE
        assert (a ** 3) * (a ** -3) == ONE

    @given(scalars)
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip(self, a):
        assert parse_scalar(str(a)) == a

    @given(scalars)
    @settings(max_examples=60, deadline=None)
    def test_promotion_is_faithful(self, a):
        lifted = a.promote(24)
        from pathcoalg.scalar import _canonical

        assert _canonical(24, lifted) == a


# Q(zeta_5) and the fields Q(zeta_9), Q(zeta_15), Q(zeta_20), whose proper
# subfields are spanned by reduced vectors such as zeta_9^6 = -1 - zeta_9^3,
# not by a subset of the power basis
subfield_scalars = st.builds(
    lambda n, cs, q: sum((cyc(Fraction(c, q)) * zeta(n, j) for j, c in enumerate(cs)), ZERO),
    st.sampled_from([5, 9, 15, 20]),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
)


class TestSubfieldConductors:
    @given(subfield_scalars)
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == ONE

    @given(subfield_scalars)
    @settings(max_examples=60, deadline=None)
    def test_demotion_from_common_field(self, a):
        from pathcoalg.scalar import _canonical

        m = 60 if 60 % a.n == 0 else 36
        assert _canonical(m, a.promote(m)) == a


# small coefficients over a few roots of unity, so that sums often cancel
field_elements = st.builds(
    lambda n, cs: sum((cyc(c) * zeta(n, j) for j, c in enumerate(cs)), ZERO),
    st.sampled_from([1, 3, 4, 12]),
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=12),
)


class TestZeroInvariant:
    """`is_zero` reads only the conductor and the constant coordinate; that is
    exact because every result is at minimal conductor and zero is (1, (0,))."""

    @given(field_elements, field_elements)
    @settings(max_examples=200, deadline=None)
    def test_zero_is_canonical(self, a, b):
        results = [a, b, a + b, a - b, b - a, a - a, a * b, (a - a) * b, -(a - a)]
        for x in (a, b):
            if not all(c == 0 for c in x.coeffs):
                results += [x.inverse(), x * x.inverse() - ONE, x / x - ONE]
        for x in results:
            assert x.is_zero() == all(c == 0 for c in x.coeffs)
            if x.is_zero():
                assert x.n == 1


def assert_normal_form(x):
    """Every coordinate is an int, or a Fraction that is not integral."""
    for c in x.coeffs:
        normal = type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert normal, (x.n, x.coeffs)


class TestNormalForm:
    """A rational coordinate is an int when integral and a reduced Fraction
    otherwise; no operation may leave an integral Fraction or a float.  Every
    result is at its minimal conductor: demoting it again changes nothing."""

    @given(st.one_of(field_elements, scalars), st.one_of(field_elements, scalars))
    @example(zeta(12), zeta(12))  # z12^2 = z6, at conductor 3
    @settings(max_examples=200, deadline=None)
    def test_every_result_is_normal(self, a, b):
        from pathcoalg.scalar import _canonical

        results = [a, b, a + b, a - b, b - a, a - a, a * b, (a - a) * b, -(a - a)]
        for x in (a, b):
            if not x.is_zero():
                results += [x.inverse(), x * x.inverse() - ONE, x / x - ONE, x ** -2]
        results += [parse_scalar(str(x)) for x in results]
        results += [_canonical(24, x.promote(24)) for x in (a, b)]
        for x in results:
            assert_normal_form(x)
            y = _canonical(x.n, list(x.coeffs))
            assert (y.n, y.coeffs) == (x.n, x.coeffs)

    @given(
        st.fractions(max_denominator=12).filter(lambda q: q != 0),
        st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
        st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=100, deadline=None)
    def test_sqrt_of_square_is_normal(self, q, n, e):
        v = cyc(q) * zeta(n, e)
        r = sqrt(v * v)
        assert r * r == v * v
        assert_normal_form(r)

    @pytest.mark.parametrize("text", ["4/2", "-6/3", "1/2", "2/4*z4^1", "3/3-z3^1"])
    def test_parsed_rationals_are_normal(self, text):
        assert_normal_form(parse_scalar(text))


class TestExactness:
    """The int normal form changes no equality, hash or text."""

    def test_integral_spellings_agree(self):
        values = [
            cyc(2),
            cyc(Fraction(4, 2)),
            parse_scalar("4/2"),
            cyc(Fraction(5, 2)) + cyc(Fraction(-1, 2)),
        ]
        for v in values:
            assert v == values[0]
            assert hash(v) == hash(values[0])
            assert str(v) == "2"
            assert v.coeffs == (2,) and type(v.coeffs[0]) is int
        table = {values[0]: "two"}
        for v in values:
            assert table[v] == "two"
        assert len(set(values)) == 1

    @pytest.mark.parametrize(
        "make, text",
        [
            (lambda: cyc(Fraction(-2, 3)), "-2/3"),
            (lambda: cyc(3) * zeta(4), "3*z4^1"),
            (lambda: cyc(Fraction(1, 2)) - zeta(3), "1/2-z3^1"),
            (lambda: cyc(Fraction(3, 2)) * 2, "3"),
            (lambda: cyc(Fraction(1, 3)) * zeta(12, 7) * 3, "-z12^1"),
            (lambda: cyc(4) / cyc(6), "2/3"),
            (lambda: (ONE + zeta(3)).inverse(), "-z3^1"),
            (lambda: cyc(2) * zeta(8) * zeta(8), "2*z4^1"),
        ],
    )
    def test_text_is_unchanged(self, make, text):
        value = make()
        assert str(value) == text
        assert parse_scalar(text) == value


class TestBareCoercion:
    """`bare`: rationals unboxed in the normal form of `_q`, a rational
    literal straight to Fraction, every other string through the parser."""

    def test_values(self):
        assert bare(cyc(Fraction(4, 2))) == 2 and type(bare(cyc(Fraction(4, 2)))) is int
        assert bare(Fraction(-2, 3)) == Fraction(-2, 3)
        assert type(bare(Fraction(6, 3))) is int and bare(True) == 1
        z = zeta(4)
        assert bare(z) is z
        with pytest.raises(TypeError):
            bare(0.5)

    @given(st.from_regex(r"-?\d+(/\d+)?", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_literal_fast_path_equals_parser(self, text):
        """A literal never reaches the parser, and gives its value, or a
        ParseError for a zero denominator, as the parser does."""
        den = text.partition("/")[2]
        zero_den = bool(den) and int(den) == 0
        with mock.patch.object(scalar, "parse_scalar", wraps=parse_scalar) as spy:
            with pytest.raises(ParseError) if zero_den else contextlib.nullcontext():
                value = bare(text)
        assert spy.call_count == 0
        if zero_den:
            with pytest.raises(ParseError):
                parse_scalar(text)
        else:
            assert type(value) in (int, Fraction) and value == parse_scalar(text)
            assert type(value) is int or value.denominator > 1

    @given(st.from_regex(r"-?\d+(/\d+)?", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_cyc_takes_the_literal_fast_path(self, text):
        """`cyc` of a literal never reaches the parser either, and gives the
        parser's value, or its ParseError for a zero denominator."""
        try:
            want = parse_scalar(text)
        except ParseError:
            want = None
        with mock.patch.object(scalar, "parse_scalar", wraps=parse_scalar) as spy:
            with pytest.raises(ParseError) if want is None else contextlib.nullcontext():
                value = cyc(text)
        assert spy.call_count == 0
        if want is not None:
            assert isinstance(value, CycScalar) and value == want and value.n == 1
            assert str(value) == str(want) and hash(value) == hash(want)

    @given(st.lists(st.sampled_from(
        [" ", "-", "+", "/", "*", "(", ")", "^", "0", "1", "7", "2/3", "z3", "z4^1"]),
        max_size=7).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_other_strings_fall_through(self, text):
        """Any other string, spaces and parser rejects among them, goes
        through the parser once and gives its verdict."""
        assume(scalar._RATIONAL_LITERAL.fullmatch(text) is None)
        assume(re.search(r"z\d{3}", text) is None)  # keep conductors small
        try:
            want = parse_scalar(text)
        except ParseError:
            want = None
        with mock.patch.object(scalar, "parse_scalar", wraps=parse_scalar) as spy:
            try:
                got = bare(text)
            except ParseError:
                got = None
        assert spy.call_count == 1
        assert (got is None) == (want is None)
        if want is not None:
            assert got == want and not (isinstance(got, CycScalar) and got.n == 1)

    @pytest.mark.parametrize("text", ["1/0", "-3/0", " 1", "1 ", "- 1", "+1", "1/-2", "--1"])
    def test_edge_literals(self, text):
        try:
            want = parse_scalar(text)
        except ParseError:
            with pytest.raises(ParseError):
                bare(text)
        else:
            assert bare(text) == want


# decimal digit sets that both `\d` and int() read: ASCII, Arabic-Indic,
# Devanagari and fullwidth
DIGIT_ZEROS = ("0", "٠", "०", "０")
# Python caps int() at this many digits; 0 means no cap
INT_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def spell(value, zero="0", leading=0, minus=False):
    """|value| in the digit set whose zero is `zero`, after `leading` zeros,
    signed if value < 0 or minus."""
    digits = "0" * leading + str(abs(value))
    sign = "-" if value < 0 or minus else ""
    return sign + digits.translate({ord("0") + i: ord(zero) + i for i in range(10)})


class TestLiteralReader:
    """`_parse` and `_tokenize` read each matched literal once, off its digit
    groups; value and type are those of `_q(Fraction(n, d))`."""

    @given(n=st.integers(-10 ** 40, 10 ** 40) | st.integers(-20, 20),
           d=st.integers(1, 10 ** 40) | st.integers(1, 12), e=st.integers(-9, 9),
           zero=st.sampled_from(DIGIT_ZEROS), leading=st.integers(0, 3),
           minus_zero=st.booleans())
    @example(n=3, d=4, e=1, zero="٠", leading=0, minus_zero=False)  # "٣/٤" is 3/4
    @example(n=0, d=7, e=0, zero="0", leading=2, minus_zero=True)  # "-000/007"
    @example(n=-10 ** 39 - 7, d=10 ** 39 + 3, e=-9, zero="０", leading=1, minus_zero=False)
    @settings(max_examples=300, deadline=None)
    def test_values_and_types(self, n, d, e, zero, leading, minus_zero):
        num, den = spell(n, zero, leading, minus_zero and n == 0), spell(d, zero, leading)
        for text, want in ((f"{num}/{den}", scalar._q(Fraction(n, d))), (num, n)):
            got = scalar._parse(text)
            assert got == want and type(got) is type(want)
        assert parse_scalar(f"-({num}/{den})*z4^1") == cyc(-Fraction(n, d)) * zeta(4)
        assert parse_scalar(f"z{spell(8, zero, leading)}^{spell(e, zero)}") == zeta(8, e)

    @given(n=st.integers(-10 ** 40, 10 ** 40), zero=st.sampled_from(DIGIT_ZEROS),
           leading=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_zero_denominator(self, n, zero, leading):
        den = spell(0, zero, leading)
        for text in (f"{spell(n, zero)}/{den}", f"-({spell(n, zero)}/{den})*z4^1"):
            with pytest.raises(ParseError, match="zero denominator"):
                scalar._parse(text)

    @pytest.mark.parametrize("text, want", [("+3", 3), (" 3", 3), ("1_000", None),
                                            ("3/-2", None)])
    def test_outside_the_literal_grammar(self, text, want):
        """Strings the literal regex does not match keep the parser's verdict."""
        if want is None:
            with pytest.raises(ParseError, match="bad scalar syntax"):
                scalar._parse(text)
        else:
            got = scalar._parse(text)
            assert isinstance(got, CycScalar) and got == cyc(want)

    @pytest.mark.skipif(not INT_DIGIT_CAP, reason="int() has no digit cap here")
    @pytest.mark.parametrize("before, digits, after", [
        ("", "1", ""), ("-", "7", ""), ("3/", "2", ""), ("", "9", "/4"),
        ("z4^", "1", ""), ("z", "1", "^2"), ("1+(2/", "3", ")*z4^1")])
    def test_over_long_literal_is_a_parse_error(self, before, digits, after):
        """A literal longer than int() reads raises ParseError naming it, as
        `bare`, `cyc` and `parse_scalar` see it; it was a bare ValueError."""
        run = digits * (INT_DIGIT_CAP + 1)
        for read in (bare, cyc, parse_scalar):
            with pytest.raises(ParseError, match="^too many digits in '") as info:
                read(before + run + after)
            assert run in str(info.value)
