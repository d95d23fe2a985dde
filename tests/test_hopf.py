import functools
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pathcoalg import classify, hopf, linalg
from pathcoalg.classify import IsoWitness, are_isomorphic, canonical_form, verify_witness
from pathcoalg.coalgebra import (
    CoElement,
    coradical_filtration,
    ext_quiver,
    path_element,
    skew_primitives,
    span_subcoalgebra,
    SubCoalgebra,
)
from pathcoalg.errors import (
    AxiomFailure,
    ConstraintViolation,
    ForbiddenPair,
    InvalidDescription,
    LambdaOrderViolation,
    NotClosedUnderDelta,
    ParamMismatch,
    ParityViolation,
    PathcoalgError,
    UnknownVertex,
    WindowTooSmall,
)
from pathcoalg.hopf import (
    BmnElement,
    TensorElement,
    antipode,
    basis_element,
    comultiply,
    contains_path_combination,
    counit,
    gen_x,
    gen_y,
    group_element,
    multiply,
    relations,
    truncate_to_subcoalgebra,
    validate_params,
    verify_hopf_axioms,
)
from pathcoalg.linalg import accumulate
from pathcoalg.quiver import Path, Quiver, grid_quiver, grid_vertex_label, grid_window, group_canonical_pair
from pathcoalg.scalar import ONE, ZERO, CycScalar, bare, cyc

from test_acceptance import PAIRS, _valid_grid


def params_free(lam="1", s="1", t="1", k="0"):
    return validate_params(0, 0, cyc(lam), cyc(s), cyc(t), cyc(k))


class TestValidateParams:
    def test_parity(self):
        with pytest.raises(ParityViolation):
            validate_params(2, 1, 1, 0, 0, 0)

    def test_lambda_order(self):
        with pytest.raises(LambdaOrderViolation):
            validate_params(4, 2, cyc("z3^1"), 0, 0, 0)
        # gcd(4, 2) = 2 so lambda = -1 works
        validate_params(4, 2, -1, 1, 1, 0)

    def test_forbidden_pair(self):
        with pytest.raises(ForbiddenPair):
            validate_params(1, 1, 1, 0, 0, 0)
        with pytest.raises(ForbiddenPair):
            validate_params(-1, -1, 1, 0, 0, 0)

    def test_constraint_cases(self):
        validate_params(0, 0, -1, 1, 1, 0)
        with pytest.raises(ConstraintViolation):
            validate_params(0, 0, -1, 1, 1, 1)
        with pytest.raises(ConstraintViolation):
            validate_params(0, 0, cyc("z4^1"), 1, 0, 0)
        validate_params(0, 0, cyc("z4^1"), 0, 0, 0)

    def test_lambda_zero(self):
        with pytest.raises(LambdaOrderViolation):
            validate_params(0, 0, 0, 0, 0, 0)

    def test_sign_normalization(self):
        p = validate_params(-3, -1, 1, 0, 0, 0)
        assert (p.m, p.n) == (3, 1)
        p = validate_params(0, -2, 1, 0, 0, 0)
        assert (p.m, p.n) == (0, 2)
        p = validate_params(2, -2, 1, 0, 0, 0)
        assert (p.m, p.n) == (2, -2)

    def test_json_round_trip(self):
        p = validate_params(3, 1, 1, cyc("1/2"), 0, cyc("z2^1"))
        data = p.to_json()
        scalars = (cyc(data[name]) for name in ("lambda", "s", "t", "k"))
        q = validate_params(data["m"], data["n"], *scalars)
        assert p == q


class TestGroupCanonical:
    def test_examples(self):
        p31 = validate_params(3, 1, 1, 0, 0, 0)
        assert p31.canon(4, 0) == (1, 1)
        pfree = params_free()
        assert pfree.canon(-2, 5) == (-2, 5)
        p22 = validate_params(2, 2, 1, 1, 1, 0)
        assert p22.canon(3, 0) == (1, 2)

    def test_idempotent(self):
        p = validate_params(4, 2, -1, 1, 1, 0)
        for i in range(-5, 6):
            for j in range(-5, 6):
                c = p.canon(i, j)
                assert p.canon(*c) == c


class TestMultiply:
    def test_x_times_a(self):
        p = params_free()
        assert gen_x(p) * group_element(p, 1, 0) == -(group_element(p, 1, 0) * gen_x(p))
        assert gen_x(p) * group_element(p, 1, 0) == BmnElement(p, {((1, 0), 1, 0): -ONE})

    def test_x_squared(self):
        p = params_free(s="2")
        expect = group_element(p, 0, 0) * 2 - group_element(p, 2, 0) * 2
        assert gen_x(p) * gen_x(p) == expect

    def test_y_squared(self):
        p = params_free(t="3")
        expect = group_element(p, 0, 0) * 3 - group_element(p, 0, 2) * 3
        assert gen_y(p) * gen_y(p) == expect

    def test_y_times_x(self):
        p = params_free(k="5")
        lam_inv = p.lam_inv
        expect = (
            group_element(p, 0, 0) * (lam_inv * p.k)
            - group_element(p, 1, 1) * (lam_inv * p.k)
            - basis_element(p, 0, 0, 1, 1) * lam_inv
        )
        assert gen_y(p) * gen_x(p) == expect

    def test_defining_relations(self):
        for p in (
            params_free(k="5"),
            params_free(lam="-1"),
            validate_params(3, 1, 1, 1, 1, 2),
            validate_params(2, -2, -1, 1, 1, 0),
            validate_params(0, 0, "z4^1", 0, 0, 0),
        ):
            a, b, x, y = group_element(p, 1, 0), group_element(p, 0, 1), gen_x(p), gen_y(p)
            one = group_element(p, 0, 0)
            assert a * b == b * a
            assert group_element(p, p.m, 0) == group_element(p, 0, p.n)
            assert x * x == (one - group_element(p, 2, 0)) * p.s
            assert y * y == (one - group_element(p, 0, 2)) * p.t
            assert a * x + x * a == BmnElement(p, {})
            assert b * x * p.lam + x * b == BmnElement(p, {})
            assert b * y + y * b == BmnElement(p, {})
            assert a * y + y * a * p.lam == BmnElement(p, {})
            assert x * y + y * x * p.lam == (one - a * b) * p.k

    def test_conjugation_identities(self):
        for p in (params_free(lam="-1"), validate_params(0, 0, "z4^1", 0, 0, 0)):
            a_inv = group_element(p, -1, 0)
            b_inv = group_element(p, 0, -1)
            x = gen_x(p)
            assert a_inv * x * group_element(p, 1, 0) == -x
            assert b_inv * x * group_element(p, 0, 1) == -(x * p.lam)

    def test_associativity_random(self):
        rng = random.Random(7)
        for p in (params_free(k="5"), validate_params(3, 1, 1, 2, 3, 1)):
            keys = [
                ((i, j), pp, qq)
                for (i, j) in grid_window(p.m, p.n, 2)
                for pp in (0, 1)
                for qq in (0, 1)
            ]
            for _ in range(40):
                u, v, w = (
                    BmnElement(p, {keys[rng.randrange(len(keys))]: cyc(rng.randint(-3, 3))})
                    for _ in range(3)
                )
                assert (u * v) * w == u * (v * w)

    def test_param_mismatch(self):
        with pytest.raises(ParamMismatch):
            multiply(gen_x(params_free()), gen_x(params_free(k="5")))

    def test_tensor_param_mismatch(self):
        one = ((0, 0), 0, 0)
        t1, t2 = (TensorElement(params_free(k=k), {(one, one): ONE}) for k in ("0", "5"))
        with pytest.raises(ParamMismatch):
            t1 + t2


class TestCoalgebraStructure:
    def test_grouplike(self):
        p = params_free()
        g = group_element(p, 2, -1)
        key = ((2, -1), 0, 0)
        assert comultiply(g) == TensorElement(p, {(key, key): ONE})
        assert counit(g) == ONE

    def test_delta_x(self):
        p = params_free()
        one_k = ((0, 0), 0, 0)
        x_k = ((0, 0), 1, 0)
        a_k = ((1, 0), 0, 0)
        assert comultiply(gen_x(p)) == TensorElement(
            p, {(one_k, x_k): ONE, (x_k, a_k): ONE}
        )

    def test_delta_xy(self):
        p = params_free(k="5")
        xy = basis_element(p, 0, 0, 1, 1)
        expect = TensorElement(
            p,
            {
                (((0, 0), 0, 0), ((0, 0), 1, 1)): ONE,
                (((0, 0), 0, 1), ((0, 1), 1, 0)): -p.lam,
                (((0, 0), 1, 0), ((1, 0), 0, 1)): ONE,
                (((0, 0), 1, 1), ((1, 1), 0, 0)): ONE,
            },
        )
        assert comultiply(xy) == expect

    def test_antipode_values(self):
        p = params_free()
        assert antipode(group_element(p, 1, 0)) == group_element(p, -1, 0)
        assert antipode(group_element(p, 0, 0)) == group_element(p, 0, 0)
        assert antipode(gen_x(p)) == group_element(p, -1, 0) * gen_x(p)
        assert antipode(gen_y(p)) == group_element(p, 0, -1) * gen_y(p)


SHAPES = [
    (3, 1, 1, 1, 0, 1),
    (2, -2, -1, 1, 1, 0),
    (2, 0, "z2^1", 0, 1, 0),
    (0, 0, "z4^1", 0, 0, 0),
]


def shape_params():
    return [validate_params(*shape) for shape in SHAPES]


class TestHopfAxioms:
    def test_full_suite_row_5b(self):
        p = validate_params(0, 0, 1, 1, 1, 5)
        report = verify_hopf_axioms(p, 2)
        assert report["ok"]
        assert report["basis_checked"] == 4 * 25

    def test_other_shapes(self):
        for p in shape_params():
            assert verify_hopf_axioms(p, 1)["ok"]

    def test_tables_make_no_reference_cycle(self):
        """The per-params tables hold term dicts, not elements (which point
        back at the params), so the params die without the cycle collector."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            p = validate_params(0, 0, 1, 1, 1, 5)
            verify_hopf_axioms(p, 1)
            u = gen_x(p) * gen_y(p) * group_element(p, 1, 0)
            comultiply(u)
            antipode(u)
            ref = weakref.ref(p)
            del p, u
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestTruncation:
    def test_rank_free_case(self):
        p = params_free(k="5")
        tr = truncate_to_subcoalgebra(p, 1)
        assert tr.rank == 4 * 9
        assert len(tr.window) == 9
        # images really are independent inside the coalgebra
        assert tr.coalgebra.dim >= tr.rank

    def test_rank_folded(self):
        p = validate_params(3, 1, 1, 1, 1, 0)
        tr = truncate_to_subcoalgebra(p, 1)
        assert tr.rank == 4 * len(grid_window(p.m, p.n, 1))

    def test_loewy_length_three(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        _, loewy = coradical_filtration(tr.coalgebra)
        assert loewy == 3

    def test_image_examples(self):
        p = params_free(k="5")
        tr = truncate_to_subcoalgebra(p, 1)
        assert tr.image_of(0, 0, 0, 0) == path_element(tr.quiver, Path("a0b0"))
        xy = tr.image_of(0, 0, 1, 1)
        assert xy == path_element(
            tr.quiver, Path("a0b0", ("x@a0b0", "y@a1b0"))
        ) - path_element(tr.quiver, Path("a0b0", ("y@a0b0", "x@a0b1")), p.lam)
        assert tr.coalgebra.contains(xy)

    def test_skew_primitive_dimensions(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        c = tr.coalgebra
        assert len(skew_primitives(c, "a0b0", "a1b0")) == 2
        assert len(skew_primitives(c, "a0b0", "a0b1")) == 2
        assert len(skew_primitives(c, "a0b0", "a1b1")) == 1
        assert len(skew_primitives(c, "a1b0", "a0b0")) == 1
        assert len(skew_primitives(c, "a0b0", "a0b0")) == 0

    def test_negative_radius(self):
        p = params_free()
        with pytest.raises(WindowTooSmall, match="radius must be nonnegative"):
            truncate_to_subcoalgebra(p, -1)
        assert truncate_to_subcoalgebra(p, 0).window == [(0, 0)]

    def test_window_too_small(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        with pytest.raises(WindowTooSmall):
            tr.image_of(5, 5, 0, 0)

    def test_boundary_keys(self):
        """`image_of` reads every key of the coalgebra's basis, the boundary
        keys that close it under Delta included; `images` and `rank` keep
        the window's keys only."""
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        assert list(tr.iota) == truncation_keys(p, 1)
        assert list(tr.iota.values()) == tr.coalgebra.basis
        assert ((1, 2), 1, 0) not in tr.images
        assert tr.image_of(1, 2, 1, 0) == path_element(tr.quiver, Path("a1b2", ("x@a1b2",)))
        assert tr.image_of(2, 2, 0, 0) == path_element(tr.quiver, Path("a2b2"))
        for key in [(2, 2, 1, 0), (2, 2, 0, 1), (1, 2, 0, 1), (1, 2, 1, 1)]:
            with pytest.raises(WindowTooSmall):
                tr.image_of(*key)
        assert list(tr.images) == [(g, a, b) for g in tr.window for a in (0, 1) for b in (0, 1)]


class TestPathMembership:
    @pytest.mark.parametrize("lam_str,extras", [("1", ("1", "1", "0")), ("-1", ("1", "1", "0")), ("z4^1", ("0", "0", "0"))])
    def test_iff_rule(self, lam_str, extras):
        s, t, k = extras
        p = validate_params(0, 0, cyc(lam_str), cyc(s), cyc(t), cyc(k))
        tr = truncate_to_subcoalgebra(p, 1)
        assert contains_path_combination(p, 1, 0, 0, ONE, -p.lam, truncation=tr)
        assert not contains_path_combination(p, 1, 0, 0, ONE, cyc(0), truncation=tr)
        assert not contains_path_combination(p, 1, 0, 0, cyc(0), ONE, truncation=tr)
        rng = random.Random(3)
        for _ in range(20):
            c1 = cyc(rng.randint(-4, 4))
            c2 = cyc(rng.randint(-4, 4))
            expected = (c2 + p.lam * c1).is_zero()
            for (i, j) in [(0, 0), (-1, 0), (0, -1)]:
                got = contains_path_combination(p, 1, i, j, c1, c2, truncation=tr)
                assert got == expected

    @pytest.mark.parametrize("lam", ["1", "-1", "z3", "z4"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_bare_and_boxed_windows_agree(self, monkeypatch, lam, radius):
        """A truncation whose path elements keep every value a CycScalar gives
        the same probe verdicts and Ext-quiver arrows as the one on bare
        rationals."""
        p = validate_params(0, 0, lam, 0, 0, 0)
        on = [(1, -p.lam), ("2/3", str(-p.lam * cyc("2/3"))), (cyc("z3"), -p.lam * cyc("z3"))]
        off = [("1", "0"), ("-5", "5 "), (" 2", "2"), ("z4", 1), ("1+z3", "-1/2")]

        def outcomes():
            tr = truncate_to_subcoalgebra(p, radius)
            verdicts = [contains_path_combination(p, radius, i, j, c1, c2, truncation=tr)
                        for i, j in grid_window(p.m, p.n, radius) for c1, c2 in on + off]
            values = [c for b in tr.coalgebra.basis for c in b.terms.values()]
            return values, verdicts, ext_quiver(tr.coalgebra).arrows

        bare_values, *bare = outcomes()
        monkeypatch.setattr(linalg, "bare", cyc)
        boxed_values, *boxed = outcomes()
        assert not any(isinstance(c, CycScalar) and c.n == 1 for c in bare_values)
        assert all(isinstance(c, CycScalar) for c in boxed_values)
        assert bare == boxed
        assert set(bare[0]) == {True, False} and bare[1]

    @pytest.mark.parametrize("lam", ["1", "-1", "z3", "z4"])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_closed_form_matches_elimination(self, lam, radius):
        """The verdict read off the certified (g, 1, 1) image is the
        subcoalgebra's elimination test on the probe element."""
        p = validate_params(0, 0, lam, 0, 0, 0)
        tr = truncate_to_subcoalgebra(p, radius)
        rng = random.Random(radius)
        coeffs = [0, 1, -p.lam, cyc("z4"), -p.lam * cyc("z4"), Fraction(-2, 3),
                  -p.lam * Fraction(-2, 3)]
        coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        coeffs += [cyc("z4") * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(2)]
        seen = set()
        for i, j in grid_window(p.m, p.n, radius):
            xy, yx = sorted(tr.images[(i, j), 1, 1].terms)
            for c1 in coeffs:
                for c2 in coeffs:
                    want = tr.coalgebra.contains(CoElement(tr.quiver, {xy: c1, yx: c2}))
                    got = contains_path_combination(p, radius, i, j, c1, c2, truncation=tr)
                    assert got is want, (i, j, c1, c2)
                    seen.add(got)
        assert seen == {True, False}

    def test_truncation_of_other_params_refused(self):
        """At lam = 1, 1*xy - 1*yx lies in the window; the image xy + yx of a
        lam = -1 truncation would say it does not.  A truncation built for
        other parameters or at another radius raises ParamMismatch; one built
        for equal parameters is used."""
        p, other = params_free(lam="1"), params_free(lam="-1")
        assert contains_path_combination(p, 1, 0, 0, 1, -1)
        for trunc in (truncate_to_subcoalgebra(other, 1), truncate_to_subcoalgebra(p, 2)):
            with pytest.raises(ParamMismatch):
                contains_path_combination(p, 1, 0, 0, 1, -1, truncation=trunc)
        same = truncate_to_subcoalgebra(params_free(lam="1"), 1)
        assert contains_path_combination(p, 1, 0, 0, 1, -1, truncation=same)

    def test_single_paths_rejected(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        q = tr.quiver
        probes = [
            Path("a0b0", ("x@a0b0", "x@a1b0")),  # (x|ax)
            Path("a0b0", ("y@a0b0", "y@a0b1")),  # (y|by)
            Path("a0b0", ("x@a0b0", "y@a1b0")),  # (x|ay)
            Path("a0b0", ("y@a0b0", "x@a0b1")),  # (y|bx)
        ]
        for probe in probes:
            assert not tr.coalgebra.contains(path_element(q, probe))

    def test_out_of_window(self):
        p = params_free()
        with pytest.raises(WindowTooSmall):
            contains_path_combination(p, 1, 5, 5, ONE, -ONE)

    def test_window_edge(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        for i, j in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
            assert contains_path_combination(p, 1, i, j, ONE, -p.lam, truncation=tr)
        for i, j in [(2, 1), (1, 2), (-2, -1), (-1, -2)]:
            with pytest.raises(WindowTooSmall):
                contains_path_combination(p, 1, i, j, ONE, -p.lam, truncation=tr)


class TestTranslate:
    """Left multiplication by a group element translates the grid: it shifts
    every basis monomial and, in the truncation, every path."""

    def test_examples(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 2)
        u = basis_element(p, 0, 0, 1, 1)
        assert group_element(p, 1, 0) * u == basis_element(p, 1, 0, 1, 1)
        assert group_element(p, 0, 0) * u == u
        assert tr.image_of(0, 0, 1, 1).support() == [
            Path("a0b0", ("x@a0b0", "y@a1b0")), Path("a0b0", ("y@a0b0", "x@a0b1"))]
        assert tr.image_of(1, 0, 1, 1).support() == [
            Path("a1b0", ("x@a1b0", "y@a2b0")), Path("a1b0", ("y@a1b0", "x@a1b1"))]
        assert tr.image_of(0, 1, 0, 1).support() == [Path("a0b1", ("y@a0b1",))]

    def test_folding(self):
        p = validate_params(3, 1, 1, 0, 0, 0)
        tr = truncate_to_subcoalgebra(p, 2)
        # shifting a^2 by a wraps to (0, 1)
        assert group_element(p, 1, 0) * group_element(p, 2, 0) == group_element(p, 0, 1)
        assert tr.image_of(3, 0, 0, 0) == tr.image_of(0, 1, 0, 0) == path_element(
            tr.quiver, Path("a0b1"))

    def test_leaves_window(self):
        p = params_free()
        tr = truncate_to_subcoalgebra(p, 1)
        assert group_element(p, 10, 0) * group_element(p, 0, 0) == group_element(p, 10, 0)
        with pytest.raises(WindowTooSmall):
            tr.image_of(10, 0, 0, 0)

    @pytest.mark.parametrize("shift", [(1, 0), (0, 1), (-2, 3)])
    def test_shift_commutes_with_comultiply(self, shift):
        # Delta(g u) = (g (x) g) Delta(u) for a grouplike g
        p = params_free(k="5")
        g = group_element(p, *shift)

        def moved(key):
            (i, j), a, b = key
            return p.canon(i + shift[0], j + shift[1]), a, b

        one = group_element(p, 0, 0)
        for u in (basis_element(p, 0, 0, 1, 1), basis_element(p, -1, 2, 1, 0), one):
            assert comultiply(g * u).terms == {
                (moved(l), moved(r)): c for (l, r), c in comultiply(u).terms.items()}


class TestText:
    def test_text_form(self):
        p = params_free(k="5")
        elems = [
            group_element(p, 0, 0),
            gen_y(p) * gen_x(p),
            basis_element(p, -2, 3, 1, 0) * cyc("1/2") - group_element(p, 0, 0),
            antipode(basis_element(p, 1, 1, 1, 1)),
        ]
        assert [str(e) for e in elems] == [
            "1*1",
            "5*1+(-1)*x*y+(-5)*a*b",
            "1/2*a^-2*b^3*x+(-1)*1",
            "(-5)*a^-2*b^-2+1*a^-2*b^-2*x*y+5*a^-1*b^-1",
        ]

    def test_star_in_coefficient(self):
        p = params_free(k="5")
        ax = group_element(p, 1, 0) * gen_x(p)
        assert [str(ax * cyc(c) + group_element(p, 0, 0)) for c in ("-3*z4", "-1-2*z3")] == [
            "1*1+(-3*z4^1)*a*x",
            "1*1+(-1-2*z3^1)*a*x",
        ]


class TestFoldedSquares:
    def test_x_square_vanishes_when_a_square_folds(self):
        # a^2 = 1 in the (2,0) group, so x^2 = s(1 - a^2) = 0
        p = validate_params(2, 0, -1, 1, 0, 0)
        x = gen_x(p)
        assert x * x == BmnElement(p, {})
        assert verify_hopf_axioms(p, 1)["ok"]

    def test_y_square_vanishes_when_b_square_folds(self):
        p = validate_params(0, 2, -1, 0, 1, 0)
        y = gen_y(p)
        assert y * y == BmnElement(p, {})
        assert verify_hopf_axioms(p, 1)["ok"]


# -- value kinds: bare rationals against boxed ones -------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def rational_params(draw):
    """A criterion-1 pair with rational lambda, s, t and k the laws allow."""
    m, n = draw(st.sampled_from(PAIRS))
    lam = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    s, t, k = draw(rationals), draw(rationals), draw(rationals)
    if lam == -1:
        k = 0
    elif lam != 1:
        s = t = k = 0
    try:
        return validate_params(m, n, lam, s, t, k)
    except LambdaOrderViolation:
        assume(False)


def is_bare(u):
    return not any(isinstance(c, CycScalar) for c in u.terms.values())


class TestValueKinds:
    def test_bare_and_boxed_elements_hash_alike(self):
        p = validate_params(3, 1, 1, 1, 0, 1)
        key = ((1, 0), 1, 0)
        bare = basis_element(p, 1, 0, 1, 0) * Fraction(1, 2)
        # the constructor unboxes a rational CycScalar; set the boxed value
        # directly, as a term dict of mixed kinds holds it
        assert is_bare(BmnElement(p, {key: cyc("1/2")}))
        boxed = BmnElement(p, {})
        boxed.terms = {key: cyc("1/2")}
        assert is_bare(bare) and not is_bare(boxed)
        assert bare == boxed and hash(bare) == hash(boxed) and str(bare) == str(boxed)
        assert len({bare, boxed}) == 1

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bare_and_boxed_agree(self, data):
        p = data.draw(rational_params())
        keys = [(g, a, b) for g in grid_window(p.m, p.n, 1) for a in (0, 1) for b in (0, 1)]
        terms = [data.draw(st.dictionaries(st.sampled_from(keys), rationals, max_size=3))
                 for _ in range(3)]
        u, v, w = (BmnElement(p, t) for t in terms)
        bu, bv = (BmnElement(p, {k: cyc(c) for k, c in t.items()}) for t in terms[:2])
        pairs = [
            (u * v, bu * bv),
            (comultiply(u), comultiply(bu)),
            (antipode(u), antipode(bu)),
            (counit(u), counit(bu)),
        ]
        for bare, boxed in pairs:
            assert bare == boxed and hash(bare) == hash(boxed) and str(bare) == str(boxed)
        assert all(is_bare(x) for x in (u, u * v, comultiply(u), antipode(u)))
        assert isinstance(counit(u), CycScalar)
        assert (u * v) * w == u * (v * w)


def _cyclotomic_sets():
    """lambda in {z3, z4, -z4}, and s = z4 at lambda = 1, on every (m, n) the
    laws allow."""
    out = []
    for rest in [("z3", 0, 0, 0), ("z4", 0, 0, 0), ("-z4", 0, 0, 0), (1, "z4", "1/2", 1)]:
        for m, n in PAIRS + [(3, 3), (4, 0), (4, 4), (6, 0)]:
            try:
                validate_params(m, n, *rest)
            except LambdaOrderViolation:
                continue
            out.append((m, n, *rest))
    return out


class TestMixedAgainstBoxed:
    """On a cyclotomic parameter set elements store rationals bare and
    irrationals boxed.  The oracle keeps every stored value a CycScalar: it
    patches the one coercion, `bare`, to `cyc` and builds its own BmnParams."""

    @pytest.mark.parametrize("raw", _cyclotomic_sets(), ids=repr)
    def test_mixed_path_equals_all_boxed(self, monkeypatch, raw):
        values = [1, -2, Fraction(1, 2), "z3", "z4", "-z4", "1+z4", "2/3-z3"]
        rng = random.Random(repr(raw))
        keys = [(g, a, b) for g in grid_window(*raw[:2], 1) for a in (0, 1) for b in (0, 1)]
        terms = [{rng.choice(keys): rng.choice(values) for _ in range(3)} for _ in range(4)]
        witnesses = [("phi", 1, 1), ("phi", -1, -1), ("phi", 2, 1), ("phi", "z4", 1),
                     ("phi", 1, "z8"), ("psi", 1, 1)]

        def run():
            p = validate_params(*raw)
            u, v, w, x = (BmnElement(p, t) for t in terms)
            elements = [u * v, v * w, (u * v) * x, comultiply(u), comultiply(w),
                        antipode(v), antipode(x)]
            scalars = [counit(t) for t in (u, v, w, x)]
            report = verify_hopf_axioms(p, 2)
            verdicts = [verify_witness(IsoWitness(*wt), p, p) for wt in witnesses]
            # the cached certificate above is built once, on the mixed run; the
            # numeric certificate and the element oracle build nothing cached
            residues = list(hopf._residues(p))
            oracle = [relations_vanish(IsoWitness(*wt), p, p) for wt in witnesses]
            return elements, scalars, report, verdicts, residues, oracle

        mixed = run()
        with monkeypatch.context() as patch:
            for module in (linalg, hopf, classify):
                patch.setattr(module, "bare", cyc)
            boxed = run()
        assert len(mixed[4]) == len(boxed[4])
        for got, want in zip(mixed[4], boxed[4]):
            assert got == want
        assert boxed[3] == boxed[5] == mixed[5]
        stored = [c for e in mixed[0] for c in e.terms.values()]
        assert not any(isinstance(c, CycScalar) and c.n == 1 for c in stored)
        assert any(isinstance(c, CycScalar) for c in stored)
        assert all(isinstance(c, CycScalar) for e in boxed[0] for c in e.terms.values())
        for got, want in zip(mixed[0] + mixed[1], boxed[0] + boxed[1]):
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert mixed[2] == boxed[2] and str(mixed[2]) == str(boxed[2])
        assert mixed[3] == boxed[3] and mixed[3][0]


def cycscalars(value):
    """The CycScalars anywhere in nested dicts, lists and tuples."""
    if isinstance(value, CycScalar):
        return [value]
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple)):
        return [c for item in value for c in cycscalars(item)]
    return []


class TestTablesStoreValues:
    """The rule and structure tables, the monomial cache, the window images
    and Delta of every window key store a rational bare, products of
    irrationals such as lam * lam^-1 included (279 rational CycScalars on
    B(0, 0; z3) at radius 3 while the tables kept their products boxed)."""

    @pytest.mark.parametrize("raw", [(0, 0, lam, 0, 0, 0) for lam in ("z3", "z4", "z6", "z12")]
                             + [(6, 0, "z3", 0, 0, 0), (4, 0, "z4", 0, 0, 0)], ids=repr)
    def test_no_rational_cycscalar(self, raw):
        for radius in (1, 2, 3):
            params = validate_params(*raw)
            trunc = truncate_to_subcoalgebra(params, radius)
            stored = [params._tables, params._mono_cache,
                      [image.terms for image in trunc.iota.values()],
                      [hopf._comul_terms(params, {key: 1}) for key in trunc.iota]]
            found = cycscalars(stored)
            assert found and [c for c in found if c.n == 1] == []


WINDOW_PARAMS = _valid_grid() + [
    validate_params(0, 0, "z3", 0, 0, 0), validate_params(0, 0, "z4", 0, 0, 0),
    validate_params(4, 0, "z4", 0, 0, 0),
]


class TestWindowEmbedding:
    @pytest.mark.parametrize("params", WINDOW_PARAMS, ids=repr)
    def test_iota_is_a_coalgebra_map(self, params):
        """Delta_path iota(u) = (iota (x) iota) Delta_H(u) on every key of the
        radius-2 window."""
        tr = truncate_to_subcoalgebra(params, 2)

        def iota(key):
            return hopf._image_of_key(params, tr.quiver, key)

        for key, image in tr.images.items():
            assert image == iota(key)
            pushed = {}
            for (l, r), c in comultiply(basis_element(params, *key[0], *key[1:])).terms.items():
                for pl, cl in iota(l).terms.items():
                    for pr, cr in iota(r).terms.items():
                        accumulate(pushed, (pl, pr), c * cl * cr)
            assert image.delta_dict() == pushed, key

    @pytest.mark.parametrize("params", WINDOW_PARAMS, ids=repr)
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_both_certificates_accept(self, params, radius):
        """The translation certificate and the per-key reference accept
        every window."""
        tr = truncate_to_subcoalgebra(params, radius)
        assert reference_certify_embedding(params, tr.iota)["keys"] == len(tr.iota)
        assert certify(params, tr.iota) == tr.certificate

    def test_certificate_is_stored(self):
        """The certificate counts every key and path, and the coproduct terms
        of the four representatives x^p y^q, where alone it compares Delta."""
        p = params_free(k="5")
        tr = truncate_to_subcoalgebra(p, 1)
        reps = [tr.image_of(0, 0, a, b) for a in (0, 1) for b in (0, 1)]
        assert tr.certificate == {
            "keys": tr.coalgebra.dim, "representatives": 4,
            "coproduct_terms": sum(len(b.delta_dict()) for b in reps),
            "paths": sum(len(b.terms) for b in tr.coalgebra.basis)}
        assert (tr.coalgebra.dim, tr.certificate["coproduct_terms"]) == (49, 11)

    @staticmethod
    def certificate_calls(m, n, radius):
        """`canon` and `delta_dict` calls inside `_certify_embedding` on the
        truncation of B(m, n; 1, 0, 0, 0) at radius, its tables built.  The
        images and the sizes are read first: building them is not
        certificate work."""
        params = validate_params(m, n, 1, 0, 0, 0)
        tr = truncate_to_subcoalgebra(params, radius)
        iota, sizes = tr.iota, tr.certificate
        calls = {"canon": 0, "delta_dict": 0}
        canon, delta_dict = hopf.group_canonical_pair, CoElement.delta_dict

        def counted_canon(*args):
            calls["canon"] += 1
            return canon(*args)

        def counted_delta_dict(self):
            calls["delta_dict"] += 1
            return delta_dict(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hopf, "group_canonical_pair", counted_canon)
            patch.setattr(CoElement, "delta_dict", counted_delta_dict)
            assert certify(params, iota) == sizes
        return calls

    def test_certificate_work_is_constant(self):
        """The certificate compares Delta on the four representatives and
        checks canon at the branch edges, whatever the window: the per-key
        closure and translation checks made canon calls per key."""
        small = self.certificate_calls(0, 0, 1)
        assert small["delta_dict"] == 4
        assert small == self.certificate_calls(0, 0, 3)
        assert self.certificate_calls(2, 0, 1) == self.certificate_calls(100000, 0, 1)


# -- the per-key reference: the oracle for the proof, and the mutants it fails


def certify(params, images):
    """`_certify_embedding` on an image dict, with the sizes a Truncation
    reports of its own images as `certificate`."""
    return {"keys": len(images), "representatives": 4,
            "coproduct_terms": hopf._certify_embedding(params, images.__getitem__),
            "paths": sum(len(img.terms) for img in images.values())}


def reference_certify_embedding(params, images):
    """The former per-key certificate, kept as the oracle for the proof in
    `_certify_embedding`: the images are nonzero with pairwise disjoint
    supports, Delta_H of every key lands on keys, and Delta_path iota(u) =
    (iota (x) iota) Delta_H(u) for every key u, one dict comparison each."""
    owner = {}
    for key, img in images.items():
        if not img.terms:
            raise NotClosedUnderDelta(f"iota({hopf._fmt_key(key)}) is zero")
        for path in img.terms:
            other = owner.setdefault(path, key)
            if other != key:
                raise NotClosedUnderDelta(f"iota({hopf._fmt_key(key)}) and "
                                          f"iota({hopf._fmt_key(other)}) share a path")
    compared = 0
    for key, img in images.items():
        name, expected = hopf._fmt_key(key), {}
        for (l, r), c in hopf._comul_terms(params, {key: 1}).items():
            if l not in images or r not in images:
                raise NotClosedUnderDelta(f"Delta({name}) leaves the keys at "
                                          f"{hopf._fmt_key(l)} (x) {hopf._fmt_key(r)}")
            linalg.tensor_axpy(expected, c, images[l].terms, images[r].terms)
        if img.delta_dict() != expected:
            raise NotClosedUnderDelta(
                f"Delta(iota({name})) differs from (iota (x) iota) Delta({name})")
        compared += len(expected)
    return {"keys": len(images), "coproduct_terms": compared, "paths": len(owner)}


def image_of_key_variant(lam_power=1, swap=False, drop=None, only=None):
    """`_image_of_key` with lam^lam_power for lam on the yx path of the xy
    image (of group part `only` alone, if given), with the x and y arrows of
    the degree-one images swapped wherever the other arrow exists, or with
    the image of the key `drop` replaced by 0; the defaults are the
    original."""
    original = hopf._image_of_key

    def image_of_key(params, quiver, key):
        (i, j), p, q = key
        g = grid_vertex_label(i, j)
        if key == drop:
            return CoElement(quiver, {})
        if swap and p + q == 1 and f"{'y' if p else 'x'}@{g}" in quiver.arrow_by_id:
            return original(params, quiver, ((i, j), q, p))
        img = original(params, quiver, key)
        if p and q and only in (None, (i, j)):
            gb = grid_vertex_label(*params.canon(i, j + 1))
            yx = Path(g, (f"y@{g}", f"x@{gb}"))
            img = img + path_element(quiver, yx, params.lam - params.lam ** lam_power)
        return img

    return image_of_key


def truncation_keys(params, radius, group_shifts=((1, 0), (0, 1), (1, 1)), x_shifts=((0, 1),)):
    """The basis keys of the truncation, in its basis order: group parts of
    the window and its a-, b- and ab-shifts, x on the window and its
    b-shift, y on the window and its a-shift, xy on the window.  Fewer
    group_shifts or x_shifts give the key-set mutants."""
    window = grid_window(params.m, params.n, radius)

    def shifted(*shifts):
        return sorted(set(window).union(*({params.canon(i + di, j + dj) for i, j in window}
                                          for di, dj in shifts)))

    keys = [(g, 0, 0) for g in shifted(*group_shifts)]
    keys += [(g, 1, 0) for g in shifted(*x_shifts)]
    keys += [(g, 0, 1) for g in shifted((1, 0))]
    return keys + [(g, 1, 1) for g in window]


def boundary_group(params, radius):
    """The smallest group part of the truncation keys outside the window
    (None if there is none: ab = 1 at (1, -1))."""
    window = grid_window(params.m, params.n, radius)
    corners = {params.canon(i + 1, j + 1) for i, j in window}
    return min(corners - set(window), default=None)


EMBEDDING_MUTANT_PARAMS = [
    validate_params(0, 0, -1, 1, 1, 0), validate_params(2, 0, -1, 0, 0, 0),
    validate_params(0, 0, "z3", 0, 0, 0), validate_params(4, 0, "z4", 0, 0, 0),
]


ORACLE_PAIRS = PAIRS + [(1, -1), (3, 3), (6, 0), (0, 2)]


@functools.lru_cache(maxsize=None)
def oracle_grid():
    """(params, radius, truncation) on the oracle grid: every parameter set
    with (m, n) in ORACLE_PAIRS, lam in {1, -1, z3, z4} and (s, t, k) in
    {0, (1, 1, 0), (1, 1, 1)} that `validate_params` allows, at R = 1..3."""
    grid = []
    for (m, n), lam, stk in itertools.product(ORACLE_PAIRS, (1, -1, "z3", "z4"),
                                              ((0, 0, 0), (1, 1, 0), (1, 1, 1))):
        try:
            params = validate_params(m, n, lam, *stk)
        except PathcoalgError:
            continue
        grid += [(params, r, truncate_to_subcoalgebra(params, r)) for r in (1, 2, 3)]
    return grid


def image_mutant(name, params, radius):
    """The `image_of_key_variant` mutant called name on the window."""
    return image_of_key_variant(**{
        "lam^2 on xy": {"lam_power": 2},
        "lam^2 on one xy": {"lam_power": 2, "only": params.canon(1, 0)},
        "swapped arrows": {"swap": True},
        "dropped boundary group": {"drop": (boundary_group(params, radius), 0, 0)},
    }[name])


# the runtime certificate on each image mutant: the error and message it
# raises, or None where only the per-key reference sees the mutant
RUNTIME_VERDICTS = {
    "lam^2 on xy": (NotClosedUnderDelta, r"Delta\(iota\(x\*y\)\) differs"),
    "lam^2 on one xy": None,
    "swapped arrows": (NotClosedUnderDelta, r"Delta\(iota\(y\)\) differs"),
    "dropped boundary group": (InvalidDescription, "zero element in basis"),
}
IMAGE_MUTANTS = list(RUNTIME_VERDICTS)
KEY_SET_MUTANTS = {"no ab-shift of the group parts": {"group_shifts": ((1, 0), (0, 1))},
                   "no b-shift of the x keys": {"x_shifts": ()}}


def mutant_images(name, params, radius, quiver):
    """The image dict the mutant called name builds on the window."""
    if name in KEY_SET_MUTANTS:
        keys = truncation_keys(params, radius, **KEY_SET_MUTANTS[name])
        return {k: hopf._image_of_key(params, quiver, k) for k in keys}
    mutant = image_mutant(name, params, radius)
    return {k: mutant(params, quiver, k) for k in truncation_keys(params, radius)}


def reference_rejects(params, images):
    try:
        reference_certify_embedding(params, images)
    except NotClosedUnderDelta:
        return True
    return False


@functools.lru_cache(maxsize=None)
def certified_window(index, radius):
    """EMBEDDING_MUTANT_PARAMS[index] and the image dict of its truncation at
    radius, built once for the hypothesis examples."""
    params = EMBEDDING_MUTANT_PARAMS[index]
    return params, dict(truncate_to_subcoalgebra(params, radius).iota)


# -- the eager truncation: the oracle for the lazy one ------------------------


def reference_grid_quiver(m, n, radius):
    """The former `grid_quiver`, its lists built at once."""
    coords = grid_window(m, n, radius)
    coord_set = set(coords)
    vertices = [grid_vertex_label(i, j) for i, j in coords]
    arrows = []
    for i, j in coords:
        v = grid_vertex_label(i, j)
        tx = group_canonical_pair(m, n, i + 1, j)
        if tx in coord_set:
            arrows.append((f"x@{v}", v, grid_vertex_label(*tx)))
        ty = group_canonical_pair(m, n, i, j + 1)
        if ty in coord_set:
            arrows.append((f"y@{v}", v, grid_vertex_label(*ty)))
    return Quiver(vertices, arrows)


def reference_image_of_key(params, quiver, key):
    """The former `_image_of_key`, through `path_element`."""
    (i, j), p, q = key
    g = grid_vertex_label(i, j)
    if (p, q) != (1, 1):
        return path_element(quiver, Path(g, (f"x@{g}",) * p + (f"y@{g}",) * q))
    ga = grid_vertex_label(*params.canon(i + 1, j))
    gb = grid_vertex_label(*params.canon(i, j + 1))
    return path_element(quiver, Path(g, (f"x@{g}", f"y@{ga}"))) - path_element(
        quiver, Path(g, (f"y@{g}", f"x@{gb}")), params.lam)


class ReferenceTruncation:
    """The former `Truncation`: everything built by `reference_truncation`."""

    def __init__(self, params, radius, quiver, coalgebra, iota, window, certificate):
        self.params, self.radius, self.quiver, self.coalgebra = params, radius, quiver, coalgebra
        self.iota, self.window, self.certificate = iota, window, certificate
        self.images = {(g, p, q): iota[g, p, q] for g in window for p in (0, 1) for q in (0, 1)}
        self.rank = len(self.images)

    def image_of(self, i, j, p, q):
        key = (self.params.canon(i, j), p, q)
        if key not in self.iota:
            raise WindowTooSmall(f"{hopf._fmt_key(key)} has no image in the window")
        return self.iota[key]


def reference_truncation(params, radius):
    """The former eager `truncate_to_subcoalgebra`: every key image, the
    whole grid quiver of the ambient box and the `SubCoalgebra` elimination,
    built at once."""
    window = grid_window(params.m, params.n, radius)
    shift_a = {params.canon(i + 1, j) for i, j in window}
    shift_b = {params.canon(i, j + 1) for i, j in window}
    shift_ab = {params.canon(i + 1, j + 1) for i, j in window}
    groups = sorted(set(window) | shift_a | shift_b | shift_ab)
    x_groups = sorted(set(window) | shift_b)
    y_groups = sorted(set(window) | shift_a)
    ambient = max(abs(c) for g in groups for c in g)
    quiver = reference_grid_quiver(params.m, params.n, ambient)
    keys = [(g, 0, 0) for g in groups] + [(g, 1, 0) for g in x_groups]
    keys += [(g, 0, 1) for g in y_groups] + [(g, 1, 1) for g in window]
    basis = {key: reference_image_of_key(params, quiver, key) for key in keys}
    certificate = certify(params, basis)
    coalg = SubCoalgebra(quiver, basis.values(), validate=False)
    return ReferenceTruncation(params, radius, quiver, coalg, basis, window, certificate)


class TestLazyTruncation:
    def test_equals_the_eager_build_on_the_oracle_grid(self):
        """On all 129 windows, the lazy truncation's full reads give what the
        eager build gives: iota in key order, images, window, rank,
        certificate and the coalgebra's JSON, its quiver included."""
        for params, radius, tr in oracle_grid():
            ref = reference_truncation(params, radius)
            assert list(tr.iota.items()) == list(ref.iota.items())
            assert list(tr.images.items()) == list(ref.images.items())
            assert (tr.window, tr.rank, tr.certificate) == (ref.window, ref.rank, ref.certificate)
            assert tr.coalgebra.to_json() == ref.coalgebra.to_json()

    def test_ambient_box_is_the_eager_one(self):
        """The ambient radius read off (m, n, R) gives the grid quiver of the
        eager build, which took the largest |coordinate| over all keys."""
        for m, n in itertools.product(range(0, 7), range(-6, 7)):
            if (m + n) % 2 or (m, n) == (1, 1) or m == 0 and n < 0:
                continue
            params = validate_params(m, n, 1, 0, 0, 0)
            for radius in range(0, 7):
                window = grid_window(m, n, radius)
                groups = set(window).union(*({params.canon(i + di, j + dj) for i, j in window}
                                             for di, dj in ((1, 0), (0, 1), (1, 1))))
                ambient = max(abs(c) for g in groups for c in g)
                assert truncate_to_subcoalgebra(params, radius).quiver.to_json() == \
                    reference_grid_quiver(m, n, ambient).to_json(), (m, n, radius)

    def test_partial_reads_build_only_what_they_read(self):
        """A truncation builds the certificate's images and nothing else; an
        image read builds its key alone, and the window, the grid quiver's
        lists and the elimination stay unbuilt until read.  The truncation is
        its own coalgebra."""
        params = validate_params(0, 0, 1, 0, 0, 0)
        tr = truncate_to_subcoalgebra(params, 50)
        certified = len(tr._built)
        assert certified == len({k for r in ((params.canon(0, 0), p, q) for p in (0, 1) for q in (0, 1))
                                 for pair in hopf._comul_terms(params, {r: 1}) for k in pair})
        assert tr.image_of(50, -50, 1, 1).terms == reference_image_of_key(
            params, reference_grid_quiver(0, 0, 51), ((50, -50), 1, 1)).terms
        assert len(tr._built) == certified + 1
        for name in ("window", "iota", "images"):
            assert name not in vars(tr)
        assert not {"vertices", "vertex_set", "arrows", "arrow_by_id"} & set(vars(tr.quiver))
        assert tr.coalgebra is tr and isinstance(tr, SubCoalgebra)
        assert not {"basis", "_engine"} & set(vars(tr))
        with pytest.raises(WindowTooSmall, match=r"a\^51\*x\*y has no image"):
            tr.image_of(51, 0, 1, 1)
        assert tr.image_of(51, 0, 0, 0).terms == {Path("a51b0"): 1}  # an a-shift of W

    def test_grid_lookups_match_the_lists(self):
        """Arrow lookups answered from the ids agree with the lists, before
        the lists are built and after, for ids in and around the box and
        malformed ones; a lookup after the listing adds nothing to them, and
        two grid quivers of one (m, n, radius) compare equal without them."""
        junk = ["", "a", "ab", "a1b", "a01b0", "a1b2b3", "b1a1", "x@", "x@a0b0b", 7, None, ("a0b0",)]
        for m, n, radius in [(0, 0, 2), (2, 0, 3), (3, 1, 2), (0, 3, 3), (2, -2, 2), (4, 2, 1)]:
            lazy, eager = grid_quiver(m, n, radius), reference_grid_quiver(m, n, radius)
            assert lazy == grid_quiver(m, n, radius) and lazy.shape == (m, n, radius)
            labels = [grid_vertex_label(i, j) for i in range(-radius - 2, radius + 3)
                      for j in range(-radius - 2, radius + 3)]
            ids = junk + [f"{x}@{v}" for v in labels + junk if isinstance(v, str) for x in "xyz"]
            for listed in (False, True):
                for aid in ids:
                    if aid in eager.arrow_by_id:
                        assert lazy.arrow(aid) == eager.arrow(aid)
                    else:
                        with pytest.raises(UnknownVertex):
                            lazy.arrow(aid)
                assert bool(vars(lazy).keys() & {"vertices", "arrows", "arrow_by_id"}) is listed
                assert lazy.to_json() == eager.to_json() and lazy == eager
            assert lazy.arrow_by_id == eager.arrow_by_id

    def test_image_validity_is_path_validity(self):
        """`_image_of_key` decides its paths valid from the group pairs their
        words pass.  On every key whose group part lies in a window's box,
        or one step outside it, on all 129 windows, it gives the former
        image, built through `Path.is_valid` on the eager grid quiver, or
        raises InvalidDescription naming the key where that one raised; and
        outside the box it raises."""
        for params, radius, tr in oracle_grid():
            m, n, box = tr.quiver.shape
            eager = reference_grid_quiver(m, n, box)
            for key in itertools.product(grid_window(m, n, box + 1), (0, 1), (0, 1)):
                try:
                    expected = reference_image_of_key(params, eager, key).terms
                except InvalidDescription:
                    expected = "invalid"
                try:
                    got = hopf._image_of_key(params, tr.quiver, key).terms
                except InvalidDescription as error:
                    got = "invalid"
                    assert f"image of {hopf._fmt_key(key)} leaves" in str(error)
                assert got == expected, key
                assert max(map(abs, key[0])) <= box or isinstance(got, str), key


class TestEmbeddingMutants:
    def test_reference_accepts_the_oracle_grid(self):
        """The per-key reference, the oracle for the proof in
        `_certify_embedding`, accepts all 129 truncations of the grid, and
        the runtime certificate gives the stored sizes."""
        grid = oracle_grid()
        assert len(grid) == 129
        for params, radius, tr in grid:
            assert reference_certify_embedding(params, tr.iota)["keys"] == len(tr.iota)
            assert certify(params, tr.iota) == tr.certificate

    @pytest.mark.parametrize("name", IMAGE_MUTANTS + list(KEY_SET_MUTANTS))
    def test_each_mutant_fails_the_reference_on_the_grid(self, name):
        """Each image mutant and each key-set mutant of
        `truncate_to_subcoalgebra` (a boundary shift dropped) fails the
        per-key reference on some window of the oracle grid."""
        assert any(reference_rejects(params, mutant_images(name, params, radius, tr.quiver))
                   for params, radius, tr in oracle_grid()), name

    @pytest.mark.parametrize("params", EMBEDDING_MUTANT_PARAMS, ids=repr)
    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("name", IMAGE_MUTANTS)
    def test_certificate_names_the_key(self, monkeypatch, params, radius, name):
        """Each mutant fails the per-key reference.  The runtime certificate
        reads only the representatives and the keys of their Delta_H
        (`RUNTIME_VERDICTS`): it names the changed x*y under lam^2 and the
        changed y under the swap; it accepts lam^2 on the xy image of the
        group part a alone, which leaves all of those as they were; and the
        dropped boundary group is found zero by the read that builds its
        image: `SubCoalgebra` on a full read, `image_of` on a partial one.
        SubCoalgebra(validate=True) sees only the span of the
        images.  It rejects the dropped group, whose span misses a
        grouplike, and accepts lam^2, since the span is a subcoalgebra
        whatever scalar the yx path carries."""
        tr = truncate_to_subcoalgebra(params, radius)
        keys = truncation_keys(params, radius)
        assert tr.coalgebra.basis == [hopf._image_of_key(params, tr.quiver, k) for k in keys]
        images = list(mutant_images(name, params, radius, tr.quiver).values())
        changed = [k for k, img, old in zip(keys, images, tr.coalgebra.basis) if img != old]
        assert changed
        if name == "lam^2 on one xy":
            assert changed == [(params.canon(1, 0), 1, 1)] != [(params.canon(0, 0), 1, 1)]
        assert reference_rejects(params, dict(zip(keys, images)))
        monkeypatch.setattr(hopf, "_image_of_key", image_mutant(name, params, radius))
        verdict = RUNTIME_VERDICTS[name]
        if verdict is None:
            assert truncate_to_subcoalgebra(params, radius).coalgebra.basis == images
        else:
            with pytest.raises(verdict[0], match=verdict[1]) as info:
                truncate_to_subcoalgebra(params, radius).coalgebra.basis
            message = str(info.value)
            assert verdict[0] is InvalidDescription or any(
                f"iota({hopf._fmt_key(k)})" in message for k in changed), message
        if name == "dropped boundary group":
            [((i, j), _, _)] = changed
            lazy = truncate_to_subcoalgebra(params, radius)
            with pytest.raises(verdict[0], match=verdict[1]):
                lazy.image_of(i, j, 0, 0)
            with pytest.raises(NotClosedUnderDelta):
                span_subcoalgebra(tr.quiver, images)
        elif name.startswith("lam^2"):
            assert span_subcoalgebra(tr.quiver, images).dim == len(images)

    def test_each_check_rejects_alone(self):
        """Each check of the per-key reference rejects a corrupted image dict
        before the others see it, with its own message.  The runtime
        certificate does not look at a^-1 b^-1 or at the corner a^2 b^2, so
        it accepts the corruptions there, and `SubCoalgebra` still refuses
        the zero and the shared path; it rejects a corruption that reaches a
        representative."""
        p = validate_params(0, 0, -1, 1, 1, 0)
        tr = truncate_to_subcoalgebra(p, 1)
        images = dict(zip(truncation_keys(p, 1), tr.coalgebra.basis))
        x, y, corner = ((-1, -1), 1, 0), ((-1, -1), 0, 1), ((2, 2), 0, 0)
        cases = [
            ({**images, x: CoElement(tr.quiver, {})}, r"iota\(a\^-1\*b\^-1\*x\) is zero", None),
            ({**images, y: images[x]},
             r"iota\(a\^-1\*b\^-1\*y\) and iota\(a\^-1\*b\^-1\*x\) share a path", None),
            ({k: v for k, v in images.items() if k != corner},
             r"Delta\(a\*b\^2\*x\) leaves the keys at a\*b\^2\*x \(x\) a\^2\*b\^2$", None),
            ({**images, x: images[x] * 2}, r"Delta\(iota\(a\^-1\*b\^-1\*x\*y\)\) differs", None),
            ({k: v * 2 if k[1:] == (1, 0) else v for k, v in images.items()},
             r"Delta\(iota\(a\^-1\*b\^-1\*x\*y\)\) differs", r"Delta\(iota\(x\*y\)\) differs"),
        ]
        assert certify(p, images) == tr.certificate
        assert reference_certify_embedding(p, images)["keys"] == len(images)
        for corrupted, reference, runtime in cases:
            with pytest.raises(NotClosedUnderDelta, match=reference):
                reference_certify_embedding(p, corrupted)
            if runtime is None:
                assert certify(p, corrupted)["keys"] == len(corrupted)
            else:
                with pytest.raises(NotClosedUnderDelta, match=runtime):
                    certify(p, corrupted)
        for (corrupted, _, _), error in zip(cases, ["zero element", "linearly dependent"]):
            with pytest.raises(InvalidDescription, match=error):
                SubCoalgebra(tr.quiver, corrupted.values(), validate=False)

    def test_representatives_are_required(self):
        """A dict without the representative x*y leaves the certificate no
        image to compare Delta(x*y) on: it reads the representatives, which
        `truncate_to_subcoalgebra` always builds, so it fails on the lookup.
        The per-key reference accepts it: each remaining key's Delta is
        right, and no other key's Delta reaches x*y."""
        p = validate_params(0, 0, -1, 1, 1, 0)
        images = dict(truncate_to_subcoalgebra(p, 1).iota)
        del images[(0, 0), 1, 1]
        with pytest.raises(KeyError):
            certify(p, images)
        assert reference_certify_embedding(p, images)["keys"] == len(images)

    @settings(max_examples=80, deadline=None)
    @given(index=st.integers(0, len(EMBEDDING_MUTANT_PARAMS) - 1), radius=st.integers(1, 2),
           data=st.data())
    def test_doubling_one_image_names_its_key(self, index, radius, data):
        """Twice the image of any one key makes the per-key reference raise
        NotClosedUnderDelta naming that key or a key whose Delta_H reaches
        it (a letter image, doubled on both sides of its own Delta, is seen
        through an xy key).  The runtime certificate rejects it exactly when
        the key is one of the images it reads: a representative or a key of
        a representative's Delta_H."""
        params, images = certified_window(index, radius)
        key = data.draw(st.sampled_from(sorted(images)))
        doubled = {**images, key: images[key] * 2}
        with pytest.raises(NotClosedUnderDelta) as info:
            reference_certify_embedding(params, doubled)
        reaching = [u for u in images
                    if key in {k for pair in hopf._comul_terms(params, {u: 1}) for k in pair}]
        assert any(f"Delta(iota({hopf._fmt_key(u)}))" in str(info.value) for u in reaching), \
            str(info.value)
        reps = [(params.canon(0, 0), p, q) for p in (0, 1) for q in (0, 1)]
        read = {k for r in reps for pair in hopf._comul_terms(params, {r: 1}) for k in pair}
        if key in read:
            with pytest.raises(NotClosedUnderDelta):
                certify(params, doubled)
        else:
            assert certify(params, doubled)["keys"] == len(images)

    def test_unmutated_variant_passes(self, monkeypatch):
        monkeypatch.setattr(hopf, "_image_of_key", image_of_key_variant())
        for params in EMBEDDING_MUTANT_PARAMS:
            for radius in (1, 2):
                tr = truncate_to_subcoalgebra(params, radius)
                assert tr.certificate["keys"] == tr.coalgebra.dim


# -- the window sweep: reference oracle for the certificate ------------------


def sweep_hopf_axioms(params, radius, product_pairs=12, seed=0):
    """The former verifier, kept as a reference: every Hopf axiom on every
    basis monomial with group part in the window, plus multiplicativity on
    random monomial pairs.  Reaches the structure maps through the module so
    that monkeypatched mutants are seen."""
    keys = [
        ((i, j), p, q)
        for (i, j) in grid_window(params.m, params.n, radius)
        for p in (0, 1)
        for q in (0, 1)
    ]

    def delta_key(key):
        return hopf.comultiply(BmnElement(params, {key: ONE})).terms

    one = hopf.group_element(params, 0, 0)
    for key in keys:
        u = BmnElement(params, {key: ONE})
        du = hopf.comultiply(u)
        lhs, rhs = {}, {}
        for (l, r), c in du.terms.items():
            for (l2, r2), c2 in delta_key(l).items():
                accumulate(lhs, (l2, r2, r), c * c2)
            for (l2, r2), c2 in delta_key(r).items():
                accumulate(rhs, (l, l2, r2), c * c2)
        if lhs != rhs:
            raise AxiomFailure("coassociativity fails", witness=str(u))
        left = BmnElement(params, {})
        right = BmnElement(params, {})
        for (l, r), c in du.terms.items():
            if l[1] == 0 and l[2] == 0:
                left = left + BmnElement(params, {r: c})
            if r[1] == 0 and r[2] == 0:
                right = right + BmnElement(params, {l: c})
        if left != u or right != u:
            raise AxiomFailure("counit law fails", witness=str(u))
        target = one * hopf.counit(u)
        conv_l = BmnElement(params, {})
        conv_r = BmnElement(params, {})
        for (l, r), c in du.terms.items():
            el = BmnElement(params, {l: ONE})
            er = BmnElement(params, {r: ONE})
            conv_l = conv_l + (hopf.antipode(el) * er) * c
            conv_r = conv_r + (el * hopf.antipode(er)) * c
        if conv_l != target or conv_r != target:
            raise AxiomFailure("antipode law fails", witness=str(u))
    rng = random.Random(seed)
    for _ in range(product_pairs):
        u = BmnElement(params, {keys[rng.randrange(len(keys))]: ONE})
        v = BmnElement(params, {keys[rng.randrange(len(keys))]: ONE})
        uv = u * v
        if hopf.comultiply(uv) != hopf.comultiply(u) * hopf.comultiply(v):
            raise AxiomFailure("comultiplication is not multiplicative")
        if hopf.counit(uv) != hopf.counit(u) * hopf.counit(v):
            raise AxiomFailure("counit is not multiplicative")
        if hopf.antipode(uv) != hopf.antipode(v) * hopf.antipode(u):
            raise AxiomFailure("antipode is not anti-multiplicative")
    return True


def rejects(check, params):
    try:
        check(params)
    except AxiomFailure:
        return True
    return False


class TestCertificate:
    def test_negative_radius(self):
        with pytest.raises(WindowTooSmall):
            verify_hopf_axioms(params_free(), -1)

    def test_report(self):
        p = validate_params(3, 1, 1, 1, 0, 1)
        for radius in range(7):
            report = verify_hopf_axioms(p, radius, seed=5)
            assert report["ok"] is True
            assert report["window_radius"] == radius
            assert report["basis_checked"] == 4 * len(grid_window(p.m, p.n, radius))
            assert report["product_pairs"] == 0
        cert = report["certificate"]
        assert len(cert["relations"]) == len(relations(p)) == 13
        assert cert["generators"] == ["a", "a^-1", "b", "b^-1", "x", "y"]

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_agrees_with_sweep_on_grid(self, radius):
        for p in _valid_grid():
            assert sweep_hopf_axioms(p, radius)
            assert verify_hopf_axioms(p, radius)["ok"]

    def test_agrees_with_sweep_on_shapes(self):
        for p in shape_params() + [validate_params(0, 0, 1, 1, 1, 5)]:
            assert sweep_hopf_axioms(p, 2)
            assert verify_hopf_axioms(p, 2)["ok"]


# -- the term-dict evaluator against element arithmetic ----------------------


def evaluate_relation(relation, images, start, reverse=False):
    """The former element-level evaluator, kept as a reference:
    sum(c * start * images[w_1] * ... * images[w_l]) over the relation's terms
    (c, w), with algebra elements or tensors as images.  With reverse=True
    each word is read right to left."""
    total = start * ZERO
    for coeff, word in relation:
        if coeff.is_zero():
            continue
        value = start
        for gen in reversed(word) if reverse else word:
            value = value * images[gen]
        total = total + value * coeff
    return total


def witness_images(w, p2):
    """The images `verify_witness` gives the generators under w, as elements."""
    (va, vb), (gx, gy) = ((1, 0), (0, 1)), (gen_x, gen_y)
    if w.kind == "psi":
        (va, vb), (gx, gy) = (vb, va), (gy, gx)
    return {
        "a": group_element(p2, *va), "A": group_element(p2, -va[0], -va[1]),
        "b": group_element(p2, *vb), "B": group_element(p2, -vb[0], -vb[1]),
        "x": gx(p2) * bare(w.alpha),
        "y": gy(p2) * bare(w.beta),
    }


def lattices_equal(w, p1, p2):
    """Whether w is bijective on the group parts: (m1, -n1) and the image
    under w^-1 of (m2, -n2) generate one subgroup of Z^2, that is (m1, n1) =
    +-(m2, n2) for phi and +-(n2, m2) for psi."""
    m2, n2 = (p2.m, p2.n) if w.kind == "phi" else (p2.n, p2.m)
    return (p1.m, p1.n) in ((m2, n2), (-m2, -n2))


def numeric_witness(w, p1, p2):
    """An earlier `verify_witness`, kept as the oracle of the closed form:
    the relations of p1 and the structure maps multiplied out in the concrete
    target p2.  It looks the term functions up on `hopf` at each call, so a
    monkeypatched mutant reaches it.  It checks that w is a well-defined
    algebra map, not that it is bijective (`lattices_equal`)."""
    if w.alpha.is_zero() or w.beta.is_zero():
        return False
    images = {g: u.terms for g, u in witness_images(w, p2).items()}
    one = group_element(p2, 0, 0).terms
    if any(hopf._evaluate(p2, hopf._term_relation(p2, rel), images, one)
           for _, rel in relations(p1)):
        return False
    for g in (images["a"], images["b"]):
        g_tensor_g = {}
        linalg.tensor_axpy(g_tensor_g, 1, g, g)
        if hopf._comul_terms(p2, g) != g_tensor_g or hopf._counit_terms(p2, g) != one:
            return False
    for skew, grouplike, inv in (("x", "a", "A"), ("y", "b", "B")):
        skew, grouplike, inv = images[skew], images[grouplike], images[inv]
        expected = {}
        linalg.tensor_axpy(expected, 1, one, skew)
        linalg.tensor_axpy(expected, 1, skew, grouplike)
        if hopf._comul_terms(p2, skew) != expected or hopf._counit_terms(p2, skew):
            return False
        minus_inv = {k: -c for k, c in inv.items()}
        if hopf._anti_terms(p2, skew) != hopf._mul_terms(p2, skew, minus_inv):
            return False
    return True


def relations_vanish(w, p1, p2):
    """The element oracle: w sends every relation of p1 to 0 in p2 (a
    rescaling always commutes with Delta, epsilon and S)."""
    images = witness_images(w, p2)
    one = group_element(p2, 0, 0)
    return all(evaluate_relation(rel, images, one).is_zero() for _, rel in relations(p1))


def assert_evaluator_matches(p, relation, images, terms, start, mul=hopf._mul_terms,
                             reverse=False):
    """The term-dict evaluator on the term dicts `terms` equals the oracle on
    the elements `images`, on the relation and on each of its terms alone (a
    relation sent to 0 would compare only empty dicts).  From bare inputs,
    rational coefficients and rational lam, s, t and k it makes a bare result:
    it re-boxes nothing.  (On lam = z3 the table product lam * lam^-1 is a
    rational CycScalar.)"""
    inputs = [c for t in (*terms.values(), start.terms) for c in t.values()]
    bare = (not any(isinstance(c, CycScalar) for c in inputs)
            and all(v.n == 1 for v in (p.lam, p.s, p.t, p.k)))
    for part in [relation] + [[term] for term in relation]:
        want = evaluate_relation(part, images, start, reverse)
        got = hopf._evaluate(p, hopf._term_relation(p, part), terms, start.terms, mul,
                             reverse)
        assert got == want.terms and str(type(want)(p, got)) == str(want), part
        if bare and all(c.n == 1 for c, _ in part):
            assert not any(isinstance(c, CycScalar) for c in got.values()), part


EVALUATOR_PARAMS = _valid_grid() + [
    validate_params(0, 0, "z4", 0, 0, 0), validate_params(4, 0, "z4", 0, 0, 0),
    validate_params(0, 0, 1, 2, 1, 0), validate_params(2, 0, -1, 3, 5, 0),
]


def witness_cases():
    """(source, target, witness): canonical forms of the criterion-1 grid,
    rescalings of non-square s, and z4 sets, one of them reached by alpha = z8
    from s = z4 onto a rational target."""
    cases = []
    for p in _valid_grid() + [validate_params(0, 0, 1, "z4", 0, 0)]:
        _, canon, w = canonical_form(p)
        cases.append((p, canon, w))
    for raw1, raw2 in [((0, 0, 1, 2, 1, 0), (0, 0, 1, 8, 1, 0)),
                       ((2, 0, -1, 3, 5, 0), (2, 0, -1, 12, 5, 0)),
                       ((0, 0, "z4", 0, 0, 0), (0, 0, "z4", 0, 0, 0)),
                       ((4, 0, "z4", 0, 0, 0), (4, 0, "z4", 0, 0, 0))]:
        p1, p2 = validate_params(*raw1), validate_params(*raw2)
        cases.append((p1, p2, are_isomorphic(p1, p2)))
    return cases


WITNESS_SOURCES = _valid_grid() + [validate_params(*raw) for raw in [
    (0, 0, 1, 2, 1, 0), (2, 0, -1, 3, 5, 0), (0, 0, "z4", 0, 0, 0), (4, 0, "z4", 0, 0, 0),
    (0, 0, 1, "z4", 0, 0)]]
witness_scales = st.one_of(rationals.filter(bool), st.sampled_from(["z4", "z8", "-z4"]))


class TestEvaluator:
    @pytest.mark.parametrize("p", EVALUATOR_PARAMS, ids=repr)
    def test_structure_maps_match_oracle(self, p):
        """Delta, epsilon * 1 and S of the generators, by the public maps for
        the oracle and by the term functions the certificate reads."""
        gens = hopf.generator_images(p)
        one, key = group_element(p, 0, 0), (p.canon(0, 0), 0, 0)
        maps = [
            (comultiply, hopf._comul_terms, TensorElement(p, {(key, key): 1}),
             hopf._tensor_mul, False),
            (lambda u: one * counit(u), hopf._counit_terms, one, hopf._mul_terms, False),
            (antipode, hopf._anti_terms, one, hopf._mul_terms, True),
        ]
        for _, rel in relations(p):
            assert_evaluator_matches(p, rel, gens, {g: u.terms for g, u in gens.items()}, one)
            for public, term_map, start, mul, reverse in maps:
                images = {g: public(u) for g, u in gens.items()}
                terms = {g: term_map(p, u.terms) for g, u in gens.items()}
                assert_evaluator_matches(p, rel, images, terms, start, mul, reverse)

    @pytest.mark.parametrize("p1, p2, w", witness_cases(), ids=repr)
    def test_witness_images_match_oracle(self, p1, p2, w):
        """The witness and its corruption alpha -> 2 alpha: the evaluator
        matches the oracle, and since a rescaling always commutes with Delta,
        epsilon and S, `verify_witness` accepts exactly when the oracle sends
        every relation to 0."""
        one = group_element(p2, 0, 0)
        for alpha in (w.alpha, w.alpha * 2):
            witness = IsoWitness(w.kind, alpha, w.beta)
            images = witness_images(witness, p2)
            terms = {g: u.terms for g, u in images.items()}
            vanish = True
            for _, rel in relations(p1):
                assert_evaluator_matches(p2, rel, images, terms, one)
                vanish = vanish and evaluate_relation(rel, images, one).is_zero()
            bijective = lattices_equal(witness, p1, p2)
            assert verify_witness(witness, p1, p2) == (vanish and bijective)
            assert verify_witness(witness, p1, p2) == (
                numeric_witness(witness, p1, p2) and bijective)
            assert vanish and bijective or alpha != w.alpha

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_numeric_witness(self, data):
        """A random source, a random witness of either kind with scales from
        the nonzero rationals and z4, z8, -z4, and as target the source, the
        image of the source under the witness, or another source."""
        p1 = data.draw(st.sampled_from(WITNESS_SOURCES))
        kind = data.draw(st.sampled_from(["phi", "psi"]))
        alpha, beta = data.draw(witness_scales), data.draw(witness_scales)
        targets = [p1, data.draw(st.sampled_from(WITNESS_SOURCES))]
        a, b = cyc(alpha), cyc(beta)
        lam, s, t, k = p1.lam, p1.s / (a * a), p1.t / (b * b), p1.k / (a * b)
        try:
            targets.append(validate_params(p1.m, p1.n, lam, s, t, k) if kind == "phi"
                           else validate_params(p1.n, p1.m, lam, t, s, k))
        except PathcoalgError:
            pass
        p2 = data.draw(st.sampled_from(targets))
        w = IsoWitness(kind, alpha, beta)
        assert verify_witness(w, p1, p2) == (
            numeric_witness(w, p1, p2) and lattices_equal(w, p1, p2))

    @pytest.mark.parametrize("raw1, raw2", [
        ((3, 1, 1, 1, 1, 1), (3, 1, 1, 4, 1, 2)),
        ((0, 0, 1, 2, 1, 0), (0, 0, 1, 8, 1, 0)),
        ((0, 0, 1, "z4", 0, 0), (0, 0, 1, 1, 0, 0)),
        ((2, -2, 1, 2, 0, 0), (2, -2, 1, 0, 8, 0)),
    ])
    def test_corrupted_witness_is_rejected(self, raw1, raw2):
        p1, p2 = validate_params(*raw1), validate_params(*raw2)
        w = are_isomorphic(p1, p2)
        assert verify_witness(w, p1, p2)
        assert not verify_witness(IsoWitness(w.kind, w.alpha * 2, w.beta), p1, p2)


# -- mutants: each must fail the certificate wherever it fails the sweep -----


def rule_table_variant(square=1, commute=1, k_term=1, shifted=1, y_square=1):
    """`_rule_table` with a sign factor on some of its terms; all 1 is the
    original.  `square` is on x*x = s(1 - a^2) wherever the table uses it,
    `commute` on the -lam^-1 xy of yx, `k_term` on both k-terms of yx and
    `shifted` on the ab one, and `y_square` on y*y = t(1 - b^2).  Like the
    original, it drops zero terms."""

    def rule_table(params):
        s, t, li = params.s * square, params.t * y_square, params.lam_inv
        lk = li * params.k * k_term
        rules = {
            (0, 0, "x"): [((0, 0), 1, 0, ONE)],
            (0, 0, "y"): [((0, 0), 0, 1, ONE)],
            (1, 0, "x"): [((0, 0), 0, 0, s), ((2, 0), 0, 0, -s)],
            (1, 0, "y"): [((0, 0), 1, 1, ONE)],
            (0, 1, "x"): [((0, 0), 0, 0, lk), ((1, 1), 0, 0, -lk * shifted),
                          ((0, 0), 1, 1, -li * commute)],
            (0, 1, "y"): [((0, 0), 0, 0, t), ((0, 2), 0, 0, -t)],
            (1, 1, "x"): [((0, 0), 1, 0, lk),
                          ((1, 1), 1, 0, -lk * shifted * params.sign_x(1, 1)),
                          ((0, 0), 0, 1, -li * s * commute),
                          ((2, 0), 0, 1, li * s * commute)],
            (1, 1, "y"): [((0, 0), 1, 0, t), ((0, 2), 1, 0, -t * params.sign_x(0, 2))],
        }
        return {key: [term for term in terms if term[3]] for key, terms in rules.items()}

    return rule_table


def delta_variant(x_right=(1, 0), y_right=(0, 1)):
    """`_delta_generators` with Delta x = 1(x)x + x(x)g and Delta y =
    1(x)y + y(x)h for the given g, h; the defaults a, b are the original."""

    def delta_generators(params):
        one = (params.canon(0, 0), 0, 0)
        x = (params.canon(0, 0), 1, 0)
        y = (params.canon(0, 0), 0, 1)
        gx = (params.canon(*x_right), 0, 0)
        gy = (params.canon(*y_right), 0, 0)
        dx = TensorElement(params, {(one, x): ONE, (x, gx): ONE})
        dy = TensorElement(params, {(one, y): ONE, (y, gy): ONE})
        return dx, dy

    return delta_generators


def comul_terms_dy_first(params, terms):
    """`_comul_terms` with Delta(y) multiplied in on the left."""
    dx, dy = hopf._delta_generators(params)
    out = TensorElement(params, {})
    for (g, p, q), c in terms.items():
        gk = (g, 0, 0)
        t = TensorElement(params, {(gk, gk): c})
        if p:
            t = t * dx
        if q:
            t = dy * t
        out = out + t
    return out.terms


def antipode_variant(reverse=False, s_x_sign=-1):
    """`_anti_terms` from S(x) = s_x_sign * x a^-1 and S(y) = -y b^-1, with the
    factors of S(g x^p y^q) in the order S(y) S(x) g^-1, or reversed; the
    defaults are the original."""

    def mutant(params, terms):
        s_x = gen_x(params) * group_element(params, -1, 0) * s_x_sign
        s_y = -(gen_y(params) * group_element(params, 0, -1))
        out = BmnElement(params, {})
        for (g, p, q), c in terms.items():
            term = group_element(params, -g[0], -g[1])
            for flag, factor in ((p, s_x), (q, s_y)):
                if flag:
                    term = term * factor if reverse else factor * term
            out = out + term * c
        return out.terms

    return mutant


def counit_of_x_is_one(params, terms):
    """`_counit_terms` that counts x^p, not only the group parts."""
    total = sum((c for (_, p, q), c in terms.items() if q == 0), 0)
    return {(params.canon(0, 0), 0, 0): total} if total else {}


def comul_terms_left_unit(params, terms):
    """`_comul_terms` as Delta(u) = 1 (x) u: an algebra map that is
    coassociative and obeys the left counit law, but not the right one."""
    one = (params.canon(0, 0), 0, 0)
    return {(one, key): c for key, c in terms.items()}


def sign_x_inverted(self, i, j):
    return (-ONE) ** i * (-self.lam_inv) ** j


MUTANTS = {
    "x*x sign": (hopf, "_rule_table", rule_table_variant(square=-1)),
    "y*x commutation sign": (hopf, "_rule_table", rule_table_variant(commute=-1)),
    "y*x k-term sign": (hopf, "_rule_table", rule_table_variant(k_term=-1)),
    "y*x shifted-term sign": (hopf, "_rule_table", rule_table_variant(shifted=-1)),
    "y*y sign": (hopf, "_rule_table", rule_table_variant(y_square=-1)),
    "x past b with lam^-1": (hopf.BmnParams, "sign_x", sign_x_inverted),
    "Delta x = 1(x)x + x(x)b": (hopf, "_delta_generators", delta_variant(x_right=(0, 1))),
    "Delta y = 1(x)y + y(x)a": (hopf, "_delta_generators", delta_variant(y_right=(1, 0))),
    "dy * t in comultiply": (hopf, "_comul_terms", comul_terms_dy_first),
    "reversed antipode factors": (hopf, "_anti_terms", antipode_variant(reverse=True)),
    "S(x) = x*a^-1": (hopf, "_anti_terms", antipode_variant(s_x_sign=1)),
    "epsilon(x) = 1": (hopf, "_counit_terms", counit_of_x_is_one),
}


def counit_doubled(params, terms):
    """`_counit_terms` times 2: epsilon(g) = 2 on a group element g."""
    total = sum((2 * c for (_, p, q), c in terms.items() if p == q == 0), 0)
    return {(params.canon(0, 0), 0, 0): total} if total else {}


def comul_doubled_on_group(params, terms, comul=hopf._comul_terms):
    """`_comul_terms` with Delta(g) = 2 g (x) g on a group element g != 1."""
    e = (params.canon(0, 0), 0, 0)
    return {(l, r): 2 * c if l == r != e and l[1:] == (0, 0) else c
            for (l, r), c in comul(params, terms).items()}


WITNESS_MUTANTS = {**MUTANTS, "Delta(u) = 1 (x) u": (hopf, "_comul_terms", comul_terms_left_unit),
                   "epsilon(g) = 2": (hopf, "_counit_terms", counit_doubled),
                   "Delta(g) = 2 g (x) g": (hopf, "_comul_terms", comul_doubled_on_group)}


# These mutants present B(m, n; lam, -s, t, k), B(m, n; lam, s, -t, k) and
# B(m, n; lam, s, t, -k): Hopf algebras again, so the sweep accepts them, and
# only the relation table of the certificate tells them from the parameters.
SWEEP_BLIND = {"x*x sign", "y*y sign", "y*x k-term sign"}


def mutant_params():
    return shape_params() + [
        validate_params(0, 0, 1, 1, 1, 5),
        validate_params(0, 0, 1, 2, 3, 0),
        validate_params(0, 0, -1, 1, 1, 0),
        validate_params(4, 2, -1, 1, 1, 0),
        validate_params(0, 0, "z3^1", 0, 0, 0),
    ]


class TestMutants:
    def test_unmutated_variants_pass(self, monkeypatch):
        for p in mutant_params():
            assert rule_table_variant()(p) == hopf._rule_table(p)
        monkeypatch.setattr(hopf, "_rule_table", rule_table_variant())
        monkeypatch.setattr(hopf, "_delta_generators", delta_variant())
        monkeypatch.setattr(hopf, "_anti_terms", antipode_variant())
        for p in mutant_params():
            assert sweep_hopf_axioms(p, 1)
            assert verify_hopf_axioms(p, 1)["ok"]

    def test_right_counit_law_is_checked(self, monkeypatch):
        """Delta(u) = 1 (x) u passes parts 1-3, coassociativity and the left
        counit law, so only the right counit law can reject it (the antipode
        laws, checked after it, would too, with another message)."""
        monkeypatch.setattr(hopf, "_comul_terms", comul_terms_left_unit)
        for p in mutant_params():
            with pytest.raises(AxiomFailure, match="counit law fails"):
                verify_hopf_axioms(p, 1)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_certificate_rejects_what_sweep_rejects(self, monkeypatch, name):
        owner, attr, mutant = MUTANTS[name]
        monkeypatch.setattr(owner, attr, mutant)
        swept = certified = 0
        for p in mutant_params():
            by_sweep = rejects(lambda q: sweep_hopf_axioms(q, 1), p)
            by_certificate = rejects(lambda q: verify_hopf_axioms(q, 1), p)
            assert by_certificate or not by_sweep, p
            swept += by_sweep
            certified += by_certificate
        assert certified
        assert (swept > 0) == (name not in SWEEP_BLIND)

    @pytest.mark.parametrize("name", sorted(WITNESS_MUTANTS))
    def test_certificate_rejects_witness_mutant(self, monkeypatch, name):
        """`verify_witness` trusts that the normal-form monomials are a basis
        and that Delta, epsilon and S are the maps on the generators that a
        rescaling commutes with; the Hopf certificate checks both, so it
        rejects each mutant on some source or target of the witness cases.
        Fresh parameters keep cached tables out of the check."""
        cases = {p for p1, p2, _ in witness_cases() for p in (p1, p2)}
        owner, attr, mutant = WITNESS_MUTANTS[name]
        monkeypatch.setattr(owner, attr, mutant)
        cases = [validate_params(*p.as_tuple()) for p in cases]
        assert any(rejects(lambda q: verify_hopf_axioms(q, 1), p) for p in cases)
