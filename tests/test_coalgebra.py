import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pathcoalg import coalgebra
from pathcoalg.coalgebra import (
    CoalgebraMap,
    CoElement,
    Diamond,
    DualAlgebra,
    SubCoalgebra,
    coradical_filtration,
    diamond_basis,
    dualize,
    ext_quiver,
    gabriel_quiver,
    grouplike,
    localize,
    map_path,
    parse_path,
    path_coalgebra,
    path_element,
    push_forward,
    separability_check,
    skew_primitives,
    span_subcoalgebra,
    verify_covering,
)
from pathcoalg.errors import (
    BasisNotDiamond,
    EmptySubset,
    InvalidDescription,
    InvalidMorphism,
    NotACovering,
    NotClosedUnderDelta,
    NotGrouplike,
    NotPointed,
    ParseError,
)
from pathcoalg.hopf import truncate_to_subcoalgebra, validate_params
from pathcoalg.linalg import SparseBasis, axpy
from pathcoalg.quiver import (
    Path,
    Quiver,
    QuiverMorphism,
    graph_class,
    grid_quiver,
    grid_vertex_label,
    group_canonical_pair,
    quotient,
)
from pathcoalg.scalar import ONE, ZERO, CycScalar, cyc
from reference import (
    former_apply,
    grouplikes,
    reference_coradical_filtration,
    reference_dualize,
    reference_ext_quiver,
    reference_localize,
    reference_radical_basis,
    reference_separability,
    reference_skew_primitives,
    skew_condition,
    solve_combination,
)


def square_tilde():
    return Quiver(
        ["1", "2", "3", "4"],
        [("bt", "1", "2"), ("gt", "2", "4"), ("at", "1", "3"), ("dt", "3", "4")],
    )


def two_loop_quiver():
    return Quiver(
        ["1", "2"], [("al", "1", "1"), ("be", "1", "2"), ("ga", "2", "2")]
    )


def two_loop_subcoalgebra():
    q = two_loop_quiver()
    paths = [
        Path("1"),
        Path("2"),
        Path("1", ("al",)),
        Path("1", ("be",)),
        Path("2", ("ga",)),
        Path("1", ("al", "be")),
        Path("1", ("be", "ga")),
    ]
    return SubCoalgebra(q, [path_element(q, p) for p in paths])


def covering_example():
    """The square path coalgebra covering the two-loop subcoalgebra."""
    qt = square_tilde()
    c = path_coalgebra(qt, 2)
    d = two_loop_subcoalgebra()
    fold = QuiverMorphism(
        qt,
        d.quiver,
        {"1": "1", "2": "2", "3": "1", "4": "2"},
        {"bt": "be", "gt": "ga", "at": "al", "dt": "be"},
    )
    return c, d, CoalgebraMap(c, d, push_forward(c, fold))


def quotient_covering(coalg, morphism):
    """The map of `coalg` onto the span of its images under a vertex-gluing
    quiver morphism: the image subcoalgebra and the map."""
    images = push_forward(coalg, morphism)
    image = span_subcoalgebra(morphism.codomain, images)
    return image, CoalgebraMap(coalg, image, images)


def identity_map(coalg):
    """The identity of a subcoalgebra, a covering of itself."""
    return CoalgebraMap(coalg, coalg, list(coalg.basis))


def is_associative(alg):
    mul = alg.multiply
    basis = [{i: 1} for i in range(alg.dim)]
    return all(
        mul(mul(a, b), c) == mul(a, mul(b, c)) for a in basis for b in basis for c in basis
    )


def is_unital(alg):
    one = {}
    for _, vec in alg.idempotents:
        axpy(one, 1, vec)
    return all(
        alg.multiply(one, {i: 1}) == {i: 1} == alg.multiply({i: 1}, one)
        for i in range(alg.dim)
    )


class TestDelta:
    def test_trivial_path(self):
        q = square_tilde()
        e = grouplike(q, "1")
        assert e.delta() == [(Path("1"), Path("1"), ONE)]

    def test_arrow(self):
        q = square_tilde()
        a = path_element(q, Path("1", ("bt",)))
        parts = {(l, r): c for l, r, c in a.delta()}
        assert parts == {
            (Path("1"), Path("1", ("bt",))): ONE,
            (Path("1", ("bt",)), Path("2")): ONE,
        }

    def test_length_two(self):
        q = square_tilde()
        p = Path("1", ("bt", "gt"))
        parts = {(l, r): c for l, r, c in path_element(q, p).delta()}
        assert parts == {
            (Path("1"), p): ONE,
            (Path("1", ("bt",)), Path("2", ("gt",))): ONE,
            (p, Path("4")): ONE,
        }

    def test_counit_axiom(self):
        q = square_tilde()
        x = (
            path_element(q, Path("1", ("bt", "gt")), 3)
            + path_element(q, Path("1", ("at",)), cyc("z4^1"))
            + grouplike(q, "2") * cyc(Fraction(1, 2))
        )
        left = CoElement(q, {})
        for l, r, c in x.delta():
            if l.length == 0:
                left = left + path_element(q, r, c)
        assert left == x

    def test_coassociativity_on_basis(self):
        c = two_loop_subcoalgebra()
        for b in c.basis:
            lhs = {}
            for l, r, coef in b.delta():
                for l2, r2, coef2 in path_element(c.quiver, l).delta():
                    key = (l2, r2, r)
                    lhs[key] = lhs.get(key, ZERO) + coef * coef2
            rhs = {}
            for l, r, coef in b.delta():
                for l2, r2, coef2 in path_element(c.quiver, r).delta():
                    key = (l, l2, r2)
                    rhs[key] = rhs.get(key, ZERO) + coef * coef2
            assert {k: v for k, v in lhs.items() if not v.is_zero()} == {
                k: v for k, v in rhs.items() if not v.is_zero()
            }


class TestValueKinds:
    def test_stored_bare_and_returned_boxed(self):
        """Rational coefficients are stored bare and irrational ones boxed,
        also in one element; `coefficient`, `counit` and `coords` return
        CycScalars."""
        tr = truncate_to_subcoalgebra(validate_params(0, 0, "z3", 0, 0, 0), 1)
        xy = tr.image_of(0, 0, 1, 1)
        kinds = {type(c) for c in xy.terms.values()}
        assert kinds == {int, CycScalar}
        assert all(c.n != 1 for c in xy.terms.values() if isinstance(c, CycScalar))
        e = tr.image_of(0, 0, 0, 0) * "2/3" + xy
        paths = sorted(e.terms)
        assert e.terms[Path("a0b0")] == Fraction(2, 3)
        for value in [e.coefficient(p) for p in paths] + [e.counit()] + tr.coalgebra.coords(e):
            assert isinstance(value, CycScalar)
        assert e.coefficient(Path("a0b0")) == cyc("2/3") and e.counit() == cyc("2/3")
        assert [c for c in tr.coalgebra.coords(e) if c] == [cyc("2/3"), ONE]
        assert isinstance(e.coefficient(Path("a1b1")), CycScalar)

    def test_rational_work_makes_no_boxed_arithmetic(self, forbid_boxed_arithmetic):
        """Dual algebras, corners, coverings and separability run on bare
        values when every coefficient is rational."""
        window = truncate_to_subcoalgebra(validate_params(3, 1, 1, 0, 0, 0), 2).coalgebra
        forbid_boxed_arithmetic()
        assert len(coradical_filtration(window)[0]) == 3
        assert ext_quiver(window).vertices == gabriel_quiver(dualize(window)).vertices
        _, _, pi = covering_example()
        assert verify_covering(pi, diamond_basis(pi.domain), diamond_basis(pi.codomain))[0]
        assert separability_check(pi) and separability_check(six_cycle_covering())
        alg = dualize(localization_example(lam="3/2"))
        corner = localize(alg, [l for l, _ in alg.idempotents if l not in ("a", "b")])
        assert is_associative(corner) and is_unital(corner)
        assert str(graph_class(gabriel_quiver(corner))) == "D~7"


class TestSubCoalgebra:
    def test_valid_construction(self):
        c = two_loop_subcoalgebra()
        assert c.dim == 7
        assert grouplikes(c) == ["1", "2"]

    def test_not_closed(self):
        q = square_tilde()
        with pytest.raises(NotClosedUnderDelta):
            SubCoalgebra(q, [grouplike(q, "1") + grouplike(q, "2")])
        with pytest.raises(NotClosedUnderDelta):
            SubCoalgebra(q, [path_element(q, Path("1", ("bt",)))])

    def test_missing_grouplike(self):
        q = square_tilde()
        with pytest.raises(NotClosedUnderDelta):
            SubCoalgebra(
                q, [grouplike(q, "1"), path_element(q, Path("1", ("bt",)))]
            )

    def test_json_round_trip(self):
        c = two_loop_subcoalgebra()
        c2 = SubCoalgebra.from_json(c.to_json())
        assert c2.dim == c.dim
        assert all(c2.contains(b) for b in c.basis)

    def test_json_path_listed_twice(self):
        # a repeated path is an error, not a silent overwrite by its last coefficient
        data = two_loop_subcoalgebra().to_json()
        data["basis"][2] = [["(al)", "1"], ["(al)", "2"]]
        with pytest.raises(ParseError) as info:
            SubCoalgebra.from_json(data)
        assert "'(al)'" in str(info.value)


class TestDiamondBasis:
    def test_path_coalgebra_level_one(self):
        q = square_tilde()
        c = path_coalgebra(q, 1)
        db = diamond_basis(c)
        assert len(db) == 8
        elems = {d.element for d in db}
        for v in q.vertices:
            assert grouplike(q, v) in elems
        for aid, src, _ in q.arrows:
            assert path_element(q, Path(src, (aid,))) in elems

    def test_two_loop_example(self):
        c = two_loop_subcoalgebra()
        db = diamond_basis(c)
        assert len(db) == 7
        assert {(d.source, d.sink) for d in db} == {
            ("1", "1"),
            ("2", "2"),
            ("1", "2"),
        }

    def test_parallel_loops(self):
        q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
        e = grouplike(q, "v")
        alpha = path_element(q, Path("v", ("a",)))
        beta = path_element(q, Path("v", ("b",)))
        c = SubCoalgebra(q, [e, alpha, alpha + beta])
        db = diamond_basis(c)
        assert len(db) == 3
        assert db[0].element == e
        # non-grouplike loop diamonds have counit zero
        for d in db[1:]:
            assert d.element.counit().is_zero()

    def test_spans_the_same_space(self):
        c, _, _ = covering_example()
        db = diamond_basis(c)
        assert len(db) == c.dim
        assert all(c.contains(d.element) for d in db)


def assert_same_span(got, want):
    """Both lists are independent and span one space."""
    span = SparseBasis()
    assert all(span.add(dict(x.terms)) for x in want)
    assert len(got) == span.dim and all(span.contains(x.terms) for x in got)


class TestSkewPrimitives:
    def test_grid_arrow_space(self):
        q = grid_quiver(0, 0, 1)
        c = path_coalgebra(q, 1)
        ps = skew_primitives(c, "a0b0", "a1b0")
        assert len(ps) == 2

    def test_no_loops(self):
        q = grid_quiver(0, 0, 1)
        c = path_coalgebra(q, 1)
        assert skew_primitives(c, "a0b0", "a0b0") == []

    def test_difference_of_grouplikes(self):
        q = square_tilde()
        c = path_coalgebra(q, 0)
        ps = skew_primitives(c, "1", "4")
        assert len(ps) == 1
        diff = grouplike(q, "1") - grouplike(q, "4")
        assert ps[0] in (diff, -diff)

    def test_not_grouplike(self):
        c = two_loop_subcoalgebra()
        with pytest.raises(NotGrouplike):
            skew_primitives(c, "1", "zzz")

    def test_against_full_solve(self):
        # oracle: the defining linear system solved over the whole coalgebra
        window = truncate_to_subcoalgebra(validate_params(2, 0, -1, 1, 0, 0), 1).coalgebra
        for c, pairs in (
            (two_loop_subcoalgebra(), [("1", "1"), ("1", "2"), ("2", "2")]),
            (path_coalgebra(grid_quiver(1, 0, 1), 2), [("a0b0", "a0b0"), ("a0b0", "a0b1")]),
            (window, [("a0b0", "a0b0"), ("a0b0", "a1b0"), ("a0b0", "a1b1"), ("a1b0", "a0b0")]),
        ):
            for g, h in pairs:
                assert_same_span(skew_primitives(c, g, h),
                                 solve_combination(c, c.basis, skew_condition(g, h)))

    def test_one_elimination_for_every_pair(self, monkeypatch):
        """`ext_quiver` and `skew_primitives` on every pair of grouplikes share
        one elimination, kept on the coalgebra as its diamonds are."""
        built = []
        monkeypatch.setattr(coalgebra, "SparseBasis",
                            lambda *args, **kw: built.append(1) or SparseBasis(*args, **kw))
        c = truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 1).coalgebra
        vertices = ext_quiver(c).vertices
        assert sum(len(skew_primitives(c, g, h)) for g in vertices for h in vertices) == 264
        assert len(built) == 1


class TestExtQuiver:
    def test_reconstruction(self):
        for q in (
            square_tilde(),
            two_loop_quiver(),
            grid_quiver(2, 0, 1),
            Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
        ):
            eq = ext_quiver(path_coalgebra(q, 1))
            assert sorted(eq.vertices) == sorted(q.vertices)
            original = sorted((s, t) for _, s, t in q.arrows)
            recovered = sorted((s, t) for _, s, t in eq.arrows)
            assert original == recovered

    def test_grouplike_span_edgeless(self):
        q = square_tilde()
        eq = ext_quiver(path_coalgebra(q, 0))
        assert eq.arrows == []
        assert sorted(eq.vertices) == sorted(q.vertices)


class TestCoradicalFiltration:
    def test_path_grading(self):
        q = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3")])
        chain, loewy = coradical_filtration(path_coalgebra(q, 2))
        assert loewy == 3
        assert [c.dim for c in chain] == [3, 5, 6]

    def test_grouplike_span(self):
        chain, loewy = coradical_filtration(path_coalgebra(square_tilde(), 0))
        assert loewy == 1
        assert chain[0].dim == 4

    def test_level_one(self):
        chain, loewy = coradical_filtration(path_coalgebra(square_tilde(), 1))
        assert loewy == 2


class TestCovering:
    def test_square_covers_two_loops(self):
        c, d, pi = covering_example()
        assert pi.coalgebra_map_failure() is None
        ok, report = verify_covering(pi, diamond_basis(c), diamond_basis(d))
        assert ok
        assert report["counterexample"] is None

    def test_identity_covering(self):
        c = two_loop_subcoalgebra()
        pi = identity_map(c)
        ok, _ = verify_covering(pi, diamond_basis(c), diamond_basis(c))
        assert ok

    @pytest.mark.parametrize("arrows, vertex_map", [
        ([("a", "1", "2"), ("b", "1", "2")], {"1": "p", "2": "q"}),
        ([("a", "1", "2"), ("b", "1", "3")], {"1": "p", "2": "q", "3": "q"}),
        ([("a", "1", "3"), ("b", "2", "3")], {"1": "p", "2": "p", "3": "q"}),
    ], ids=["parallel", "shared-source", "shared-sink"])
    def test_collapse_rejected(self, arrows, vertex_map):
        # two arrows onto p -> q: the proof of separability_check needs
        # both halves of the shared source-or-sink check
        cod_q = Quiver(["p", "q"], [("x", "p", "q")])
        fold = QuiverMorphism(Quiver(sorted(vertex_map), arrows), cod_q, vertex_map,
                              {"a": "x", "b": "x"})
        dom, cod = path_coalgebra(fold.domain, 1), path_coalgebra(cod_q, 1)
        pi = CoalgebraMap(dom, cod, push_forward(dom, fold))
        ok, report = verify_covering(pi, diamond_basis(dom), diamond_basis(cod))
        assert not ok
        assert report["counterexample"] == {
            "reason": "two diamonds with shared source or sink have equal image",
            "witness": ["1*(a)", "1*(b)"]}
        with pytest.raises(NotACovering):
            separability_check(pi)
        assert reference_separability(pi) is False

    def test_image_must_cover_the_codomain_basis(self):
        # the inclusion of the arrows of 1 -> 2 -> 3 into its paths misses (a|b)
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        dom, cod = path_coalgebra(q, 1), path_coalgebra(q, 2)
        pi = CoalgebraMap(dom, cod, list(dom.basis))
        ok, report = verify_covering(pi, diamond_basis(dom), diamond_basis(cod))
        assert not ok
        assert report["counterexample"] == {
            "reason": "basis image does not cover the codomain basis", "witness": None}
        with pytest.raises(NotACovering):
            separability_check(pi)

    def test_basis_preconditions(self):
        c = two_loop_subcoalgebra()
        pi = identity_map(c)
        with pytest.raises(BasisNotDiamond):
            verify_covering(pi, diamond_basis(c)[1:], diamond_basis(c))

    def test_arrow_onto_two_parallel_arrows(self):
        # a -> b + c is a coalgebra map, but b + c is no basis diamond
        dom_q = Quiver(["1", "2"], [("a", "1", "2")])
        cod_q = Quiver(["1", "2"], [("b", "1", "2"), ("c", "1", "2")])
        dom, cod = path_coalgebra(dom_q, 1), path_coalgebra(cod_q, 1)
        b, c = (path_element(cod_q, Path("1", (aid,))) for aid in "bc")
        images = {Path("1"): grouplike(cod_q, "1"), Path("2"): grouplike(cod_q, "2"),
                  Path("1", ("a",)): b + c}
        pi = CoalgebraMap(dom, cod, [images[x.support()[0]] for x in dom.basis])
        assert pi.coalgebra_map_failure() is None
        ok, report = verify_covering(pi, diamond_basis(dom), diamond_basis(cod))
        assert not ok
        assert report["counterexample"] == {
            "reason": "image of a basis diamond is not a basis diamond",
            "witness": "1*(a)"}
        with pytest.raises(NotACovering):
            separability_check(pi)

    def test_swapped_vertices_are_not_a_coalgebra_map(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        c = path_coalgebra(q, 1)
        swap = {Path("1"): grouplike(q, "2"), Path("2"): grouplike(q, "1")}
        pi = CoalgebraMap(c, c, [swap.get(x.support()[0], x) for x in c.basis])
        ok, report = verify_covering(pi, diamond_basis(c), diamond_basis(c))
        assert not ok
        assert report["counterexample"] == {
            "reason": "not a coalgebra map",
            "witness": {"element": "1*(a)", "axiom": "comultiplication"}}

    @pytest.mark.parametrize("side", ["domain", "codomain"])
    @pytest.mark.parametrize("how, message", [
        ("outside", "basis element outside the coalgebra"),
        ("repeated", "basis is linearly dependent"),
        ("short", "basis does not span"),
        ("vertex", "basis must contain every vertex"),
        ("arrow", "basis must contain every arrow"),
    ])
    def test_basis_not_diamond(self, side, how, message):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        c = path_coalgebra(q, 1)
        e1, e2, e3, a, b, ab = (path_element(q, p) for p in (
            Path("1"), Path("2"), Path("3"), Path("1", ("a",)), Path("2", ("b",)),
            Path("1", ("a", "b"))))
        basis = {
            "outside": [e1, e2, e3, a, b, ab],
            "repeated": [e1, e2, e3, a, b, b],
            "short": [e1, e2, e3, a],
            "vertex": [e1 + a, e2, e3, a, b],
            "arrow": [e1, e2, e3, a * 2, b],
        }[how]
        bad = [Diamond(x, p.start, p.target(q)) for x in basis for p in x.support()[:1]]
        good = diamond_basis(c)
        args = (bad, good) if side == "domain" else (good, bad)
        with pytest.raises(BasisNotDiamond, match=f"^{side} {message}$"):
            verify_covering(identity_map(c), *args)


def bipartite_six_cycle():
    return Quiver(
        ["1", "2", "2x", "3", "3x", "4"],
        [
            ("s12", "1", "2"),
            ("l2", "2x", "2"),
            ("s24", "2x", "4"),
            ("s34", "3x", "4"),
            ("l3", "3x", "3"),
            ("s13", "1", "3"),
        ],
    )


class TestQuotientCovering:
    def test_six_cycle_glue(self):
        q = bipartite_six_cycle()
        c = path_coalgebra(q, 1)
        _, morph = quotient(q, [["1"], ["2", "2x"], ["3", "3x"], ["4"]])
        image, pi = quotient_covering(c, morph)
        assert image.dim == 10  # 4 glued vertices + 6 arrows
        ok, _ = verify_covering(pi, diamond_basis(c), diamond_basis(image))
        assert ok
        assert separability_check(pi)

    def test_trivial_partition_identity(self):
        q = square_tilde()
        c = path_coalgebra(q, 2)
        _, morph = quotient(q, [[v] for v in q.vertices])
        image, pi = quotient_covering(c, morph)
        assert image.dim == c.dim
        ok, _ = verify_covering(pi, diamond_basis(c), diamond_basis(image))
        assert ok

    def test_four_cycle_to_two_cycle(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
        )
        c = path_coalgebra(q, 1)
        _, morph = quotient(q, [["1", "3"], ["2", "4"]])
        image, pi = quotient_covering(c, morph)
        ok, _ = verify_covering(pi, diamond_basis(c), diamond_basis(image))
        assert ok
        assert separability_check(pi)


def z4_scaled_map():
    """A map of the two-loop subcoalgebra into itself that scales the basis
    by z4 and -3/2 in turn."""
    c = two_loop_subcoalgebra()
    z4 = CycScalar.root_of_unity(4)
    return CoalgebraMap(c, c, [b * (z4 if i % 2 else Fraction(-3, 2))
                               for i, b in enumerate(c.basis)])


class TestMapApply:
    """`apply` sums the images over the domain engine's bare coordinates and
    gives the former route's element, coefficient types included."""

    @staticmethod
    def maps():
        return [covering_example()[2], six_cycle_covering(),
                identity_map(localization_example(CycScalar.root_of_unity(3))),
                z4_scaled_map()]

    @pytest.mark.parametrize("index", range(4), ids=["square", "six-cycle", "local-z3", "z4"])
    def test_equals_former_route(self, index):
        pi = self.maps()[index]
        z4 = CycScalar.root_of_unity(4)
        basis = pi.domain.basis
        elements = [*basis, *(d.element for d in diamond_basis(pi.domain))]
        elements += [basis[0] * z4 + basis[-1] * Fraction(2, 3), basis[1] - basis[1]]
        for x in elements:
            got, want = pi.apply(x), former_apply(pi, x)
            assert got == want and got.quiver is want.quiver
            assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
            assert list(got.terms) == list(want.terms)

    def test_element_outside_the_domain(self):
        pi = z4_scaled_map()
        outside = path_element(pi.domain.quiver, Path("1", ("al", "al")))
        for route in (pi.apply, lambda x: former_apply(pi, x)):
            with pytest.raises(InvalidMorphism, match="element outside the domain"):
                route(outside)


class TestDualAlgebra:
    def test_a2_dual(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        alg = dualize(path_coalgebra(q, 1))
        assert alg.dim == 3
        assert is_associative(alg)
        assert is_unital(alg)
        # idempotent duals are orthogonal
        e1 = dict(alg.idempotents)["1"]
        e2 = dict(alg.idempotents)["2"]
        assert alg.multiply(e1, e2) == {}

    def test_grouplike_span_semisimple(self):
        q = Quiver([str(i) for i in range(5)], [])
        alg = dualize(path_coalgebra(q, 0))
        assert alg.dim == 5
        assert alg.radical_basis() == []

    def test_square_dual_radical_cube_zero(self):
        c, d, _ = covering_example()
        alg_c = dualize(c)
        assert alg_c.dim == 10
        chain = alg_c.radical_chain()
        assert [len(level) for level in chain] == [6, 2]
        alg_d = dualize(d)
        assert alg_d.dim == 7
        assert [len(level) for level in alg_d.radical_chain()] == [5, 2]

    def test_separability_example(self):
        _, _, pi = covering_example()
        assert separability_check(pi)


def six_cycle_covering():
    q = bipartite_six_cycle()
    _, morph = quotient(q, [["1"], ["2", "2x"], ["3", "3x"], ["4"]])
    return quotient_covering(path_coalgebra(q, 1), morph)[1]


def four_cycle_covering():
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
    )
    _, morph = quotient(q, [["1", "3"], ["2", "4"]])
    return quotient_covering(path_coalgebra(q, 1), morph)[1]


def random_fold(rng):
    """A quiver morphism onto its image, with at most 4 target vertices and 5
    target arrows, and at most 6 domain vertices and 8 domain arrows."""
    targets = rng.randint(1, 4)
    vertex_map = {str(i): f"t{i if i < targets else rng.randrange(targets)}"
                  for i in range(rng.randint(targets, 6))}
    arrows, arrow_map, images = [], {}, {}  # images: target (source, sink) -> arrow ids
    for k in range(rng.randint(1, 8)):
        s, t = rng.choice(list(vertex_map)), rng.choice(list(vertex_map))
        ids = images.setdefault((vertex_map[s], vertex_map[t]), [])
        count = sum(map(len, images.values()))
        if ids and (count == 5 or rng.random() < 0.6):
            arrow_map[f"a{k}"] = rng.choice(ids)
        elif count < 5:
            ids.append(f"b{count}")
            arrow_map[f"a{k}"] = ids[-1]
        else:
            continue
        arrows.append((f"a{k}", s, t))
    target = Quiver(sorted(set(vertex_map.values())),
                    [(b, *ends) for ends, ids in images.items() for b in ids])
    return QuiverMorphism(Quiver(list(vertex_map), arrows), target, vertex_map, arrow_map)


def random_coverings(count):
    """Coverings, as `verify_covering` accepts them, of path coalgebras of
    length 1 or 2 and dimension at most 45 onto their `random_fold` images."""
    rng = random.Random(45)
    found = []
    while len(found) < count:
        fold = random_fold(rng)
        coalg = path_coalgebra(fold.domain, rng.randint(1, 2))
        if coalg.dim <= 45:
            image, pi = quotient_covering(coalg, fold)
            if verify_covering(pi, diamond_basis(coalg), diamond_basis(image))[0]:
                found.append(pi)
    return found


def window_fold(lam, radius, m, n):
    """The B(0, 0) window of the given radius, on the grid vertices and
    arrows it uses, folded onto B(m, n) by a^i b^j -> canon(i, j): the map
    onto its image."""
    trunc = truncate_to_subcoalgebra(validate_params(0, 0, lam, 0, 0, 0), radius)
    glue = {grid_vertex_label(*g): grid_vertex_label(*group_canonical_pair(m, n, *g))
            for g, p, q in trunc.iota if (p, q) == (0, 0)}
    arrows = [a for a in trunc.quiver.arrows if a[1] in glue and a[2] in glue]
    arrow_map = {aid: f"{aid[0]}@{glue[src]}" for aid, src, _ in arrows}
    window = Quiver(list(glue), arrows)
    folded = Quiver(sorted(set(glue.values())),
                    sorted({(arrow_map[aid], glue[s], glue[t]) for aid, s, t in arrows}))
    coalg = SubCoalgebra(window, [CoElement(window, b.terms) for b in trunc.coalgebra.basis])
    return quotient_covering(coalg, QuiverMorphism(window, folded, glue, arrow_map))[1]


WINDOW_FOLDS = [(lam, radius, m, n) for lam in (1, -1) for radius in (1, 2)
                for m, n in [(2, 0), (0, 2), (4, 2), (3, 1), (2, -2), (4, 0)]]


class TestSeparabilityReference:
    """separability_check is proved (see its docstring): it and the
    relation-space oracle return True on every covering here.  The oracle also notices a
    perturbed structure cell of the domain's dual algebra (through
    `dualize`), which separability_check does not read."""

    PERTURBATIONS = {
        "double": lambda cell: {k: c * 2 for k, c in cell.items()},
        "negate": lambda cell: {k: -c for k, c in cell.items()},
        "drop": lambda cell: {},
    }

    def verdicts(self, pi, how, monkeypatch):
        real = coalgebra.dualize
        perturb = self.PERTURBATIONS[how]
        out = []
        for key in sorted(real(pi.domain).structure):

            def perturbed(coalg, key=key):
                alg = real(coalg)
                alg.structure[key] = perturb(alg.structure[key])
                if not alg.structure[key]:
                    del alg.structure[key]
                return alg

            monkeypatch.setattr(coalgebra, "dualize", perturbed)
            assert separability_check(pi) is True
            out.append(reference_separability(pi))
        return out

    @pytest.mark.parametrize("make", [
        lambda: [covering_example()[2], six_cycle_covering(), four_cycle_covering()],
        lambda: random_coverings(60),
        lambda: [window_fold(*fold) for fold in WINDOW_FOLDS],
    ], ids=["examples", "random-folds", "window-fold"])
    def test_oracle_accepts_every_covering(self, make):
        for pi in make():
            assert separability_check(pi) is reference_separability(pi) is True

    @pytest.mark.parametrize("lam, radius, m, n", WINDOW_FOLDS)
    def test_window_folds_are_coverings(self, lam, radius, m, n):
        assert separability_check(window_fold(lam, radius, m, n)) is True

    @pytest.mark.parametrize("how", sorted(PERTURBATIONS))
    @pytest.mark.parametrize(
        "make",
        [lambda: covering_example()[2], six_cycle_covering, four_cycle_covering],
        ids=["square", "six_cycle", "four_cycle"],
    )
    def test_oracle_notices_perturbed_cells(self, make, how, monkeypatch):
        assert False in self.verdicts(make(), how, monkeypatch)

    def test_doubled_square_cells(self, monkeypatch):
        verdicts = self.verdicts(covering_example()[2], "double", monkeypatch)
        assert len(verdicts) == 18
        assert verdicts.count(False) == 4


def localization_example(lam=2):
    q = Quiver(
        ["a", "1", "2", "4", "5", "6", "7", "8", "9", "b"],
        [
            ("x1", "4", "a"),
            ("y1", "a", "1"),
            ("u1", "4", "2"),
            ("v1", "2", "1"),
            ("c1", "2", "5"),
            ("c2", "6", "5"),
            ("c3", "6", "7"),
            ("x2", "8", "7"),
            ("y2", "7", "9"),
            ("u2", "8", "b"),
            ("v2", "b", "9"),
        ],
    )
    elems = [grouplike(q, v) for v in q.vertices]
    elems += [path_element(q, Path(src, (aid,))) for aid, src, _ in q.arrows]
    d1 = path_element(q, Path("4", ("x1", "y1"))) - path_element(
        q, Path("4", ("u1", "v1")), lam
    )
    d2 = path_element(q, Path("8", ("x2", "y2"))) - path_element(
        q, Path("8", ("u2", "v2")), lam
    )
    elems += [
        d1,
        d2,
        path_element(q, Path("4", ("u1", "c1"))),
        path_element(q, Path("6", ("c3", "y2"))),
    ]
    return SubCoalgebra(q, elems)


class TestLocalization:
    def test_corner_algebra_is_extended_d7(self):
        c = localization_example()
        alg = dualize(c)
        assert alg.dim == 25
        inner = [l for l, _ in alg.idempotents if l not in ("a", "b")]
        corner = localize(alg, inner)
        assert corner.dim == 19
        assert is_associative(corner) and is_unital(corner)
        gq = gabriel_quiver(corner)
        assert len(gq.vertices) == 8
        assert len(gq.arrows) == 7
        assert str(graph_class(gq)) == "D~7"

    def test_full_idempotent_set(self):
        c = two_loop_subcoalgebra()
        alg = dualize(c)
        again = localize(alg, [l for l, _ in alg.idempotents])
        assert again.dim == alg.dim

    def test_single_idempotent(self):
        q = Quiver(["1", "2", "3"], [])
        alg = dualize(path_coalgebra(q, 0))
        corner = localize(alg, ["2"])
        assert corner.dim == 1

    def test_empty_subset(self):
        alg = dualize(two_loop_subcoalgebra())
        with pytest.raises(EmptySubset):
            localize(alg, [])

    def test_repeated_label(self, monkeypatch):
        # refused before any product: e would be 2 e_1, not an idempotent
        alg = dualize(two_loop_subcoalgebra())

        def forbidden(self, u, v):
            raise AssertionError("product computed")

        monkeypatch.setattr(DualAlgebra, "multiply", forbidden)
        with pytest.raises(InvalidDescription, match="'1'"):
            localize(alg, ["1", "2", "1"])

    def test_corner_not_spanned_by_basis_vectors(self):
        # e d_1 e = 2 d_1 for e = d_0: the basis is not pointed
        alg = DualAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 2}, (1, 0): {1: 1}},
                          [("1", {0: 1})])
        with pytest.raises(InvalidDescription):
            localize(alg, ["1"])


# -- corners against the former eliminating route --


# name -> () -> dual algebras whose corners are checked
CORNER_CORPUS = {
    "localization": lambda: [dualize(localization_example(lam)) for lam in (1, -1, 2, "z3")],
    "truncations": lambda: [
        dualize(truncate_to_subcoalgebra(validate_params(*raw), 1).coalgebra)
        for raw in [(0, 0, 1, 0, 0, 0), (2, 0, -1, 0, 0, 0), (0, 0, "z3", 0, 0, 0),
                    (3, 1, 1, 0, 0, 0), (2, -2, 1, 0, 0, 0)]
    ],
    "coverings": lambda: [
        dualize(c) for pi in (covering_example()[2], six_cycle_covering(), four_cycle_covering())
        for c in (pi.domain, pi.codomain)
    ],
}


@pytest.mark.parametrize("name", list(CORNER_CORPUS))
def test_corners_match_reference(name):
    """Every label set in turn, the full one and eight random subsets of
    each algebra give the reference's dimension, structure, idempotents and
    Gabriel quiver."""
    rng = random.Random(name)
    for alg in CORNER_CORPUS[name]():
        labels = [l for l, _ in alg.idempotents]
        subsets = [[l] for l in labels] + [labels]
        subsets += [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(8)]
        for chosen in subsets:
            corner, ref = localize(alg, chosen), reference_localize(alg, chosen)
            assert (corner.dim, corner.structure, corner.idempotents) == (
                ref.dim, ref.structure, ref.idempotents)
            gq, ref_gq = gabriel_quiver(corner), gabriel_quiver(ref)
            assert (gq.vertices, gq.arrows) == (ref_gq.vertices, ref_gq.arrows)


def mixed_bidegree_coalgebra():
    """A basis whose elements meet two bidegrees, so the diamond elimination
    meets a dependent component and skips a tag."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("c", "2", "3")])
    e1, e2, e3, a, c = (path_element(q, p) for p in (
        Path("1"), Path("2"), Path("3"), Path("1", ("a",)), Path("2", ("c",))))
    return SubCoalgebra(q, [e1, e2, e3, a + c, a - c * 2])


def kinds(structure):
    return {ij: {k: type(c) for k, c in cell.items()} for ij, cell in structure.items()}


@pytest.mark.parametrize("make", [
    lambda: [c for pi in (covering_example()[2], six_cycle_covering(), four_cycle_covering())
             for c in (pi.domain, pi.codomain)],
    lambda: [localization_example(lam) for lam in (1, -1, "3/2", "z3")],
    lambda: [mixed_bidegree_coalgebra()],
], ids=["coverings", "localization", "mixed"])
def test_dualize_matches_fresh_subcoalgebra(make):
    """`dualize` reads the elimination `diamond_basis` keeps and gives the
    structure constants, of the same kinds, and the idempotents of the
    former route."""
    for coalg in make():
        alg = dualize(coalg)
        structure, idempotents = reference_dualize(coalg)
        assert alg.structure == structure and kinds(alg.structure) == kinds(structure)
        assert alg.idempotents == idempotents


def _dual_case(coalg, drop=None):
    alg = dualize(coalg)
    keep = [l for l, _ in alg.idempotents if l not in drop] if drop else None
    return alg, keep


def _truncation_case(m, n, lam):
    trunc = truncate_to_subcoalgebra(validate_params(m, n, lam, 0, 0, 0), 1)
    return dualize(trunc.coalgebra), None


# name -> () -> (algebra, labels of a corner to check too, or None)
ORACLE_CASES = {
    "covering-domain": lambda: _dual_case(covering_example()[0]),
    "covering-codomain": lambda: _dual_case(covering_example()[1]),
    "localization": lambda: _dual_case(localization_example(), ("a", "b")),
    "localization-3": lambda: _dual_case(localization_example(3), ("a", "b")),
    "two-loop": lambda: _dual_case(two_loop_subcoalgebra(), ("2",)),
    "a2": lambda: _dual_case(path_coalgebra(Quiver(["1", "2"], [("a", "1", "2")]), 1), ("1",)),
    "grouplikes": lambda: _dual_case(path_coalgebra(Quiver(["1", "2", "3"], []), 0), ("2",)),
    "truncation-0,0,1": lambda: _truncation_case(0, 0, 1),
    "truncation-0,0,z3": lambda: _truncation_case(0, 0, "z3"),
    "truncation-2,0,-1": lambda: _truncation_case(2, 0, -1),
}


class TestRadicalOracle:
    """`radical_basis` (the non-idempotent basis vectors) equals the dense
    trace-form reference vector for vector, and so leaves the Gabriel
    quivers unchanged."""

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_reference(self, name, monkeypatch):
        alg, labels = ORACLE_CASES[name]()
        algebras = [alg] if labels is None else [alg, localize(alg, labels)]

        def sparse_reference(a):
            return [{k: c for k, c in enumerate(r) if c} for r in reference_radical_basis(a)]

        for a in algebras:
            assert a.radical_basis() == sparse_reference(a)
        quivers = [gabriel_quiver(a) for a in algebras]
        monkeypatch.setattr(DualAlgebra, "radical_basis", sparse_reference)
        for a, gq in zip(algebras, quivers):
            ref = gabriel_quiver(a)
            assert gq.vertices == ref.vertices
            assert gq.arrows == ref.arrows


class TestPointedShape:
    """The dual algebras keep the shape `radical_basis` relies on: every
    idempotent is one basis vector with coefficient 1."""

    @pytest.mark.parametrize("vec", [{0: ONE, 1: ONE}, {0: 2}], ids=["sum", "scaled"])
    def test_guard(self, vec):
        with pytest.raises(InvalidDescription):
            DualAlgebra(2, {}, [("1", vec)])

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_localize_keeps_unit_idempotents(self, name):
        alg, labels = ORACLE_CASES[name]()
        corner = localize(alg, labels or [l for l, _ in alg.idempotents])
        keys = [k for _, vec in corner.idempotents for k in vec]
        assert len(set(keys)) == len(keys) == len(corner.idempotents)
        assert all(list(vec.values()) == [ONE] for _, vec in corner.idempotents)


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("m, n", [(0, 0), (3, 1), (2, -2)])
def test_ext_quiver_is_gabriel_quiver_of_dual(m, n, radius):
    """For a pointed coalgebra C the Ext-quiver of C is the Gabriel quiver of
    C* (Chin-Montgomery, "Basic coalgebras", 1997)."""
    coalg = truncate_to_subcoalgebra(validate_params(m, n, 1, 0, 0, 0), radius).coalgebra
    ext = ext_quiver(coalg)
    gab = gabriel_quiver(dualize(coalg))
    assert ext.vertices == gab.vertices
    assert sorted((src, dst) for _, src, dst in ext.arrows) == sorted(
        (src, dst) for _, src, dst in gab.arrows
    )


class TestParsePath:
    """The path syntax of coalgebra files: e_v for a vertex, (a|b|...) for a
    composable arrow sequence."""

    def test_forms(self):
        q = square_tilde()
        assert parse_path(q, "e_1") == Path("1")
        assert parse_path(q, "(bt)") == Path("1", ("bt",))
        assert parse_path(q, " ( bt | gt ) ") == Path("1", ("bt", "gt"))

    def test_errors(self):
        q = square_tilde()
        for bad in ["", "e_9", "(zz)", "(gt|bt)", "()", "(bt|)", "bt", "1", "(bt"]:
            with pytest.raises(ParseError):
                parse_path(q, bad)


class TestPushForward:
    def test_identity_morphism(self):
        q = square_tilde()
        c = path_coalgebra(q, 2)
        ident = QuiverMorphism(q, q, {v: v for v in q.vertices},
                               {a: a for a, _, _ in q.arrows})
        assert push_forward(c, ident) == list(c.basis)

    def test_maps_path_by_path(self):
        c, d, _ = covering_example()
        fold = QuiverMorphism(
            square_tilde(), d.quiver,
            {"1": "1", "2": "2", "3": "1", "4": "2"},
            {"bt": "be", "gt": "ga", "at": "al", "dt": "be"},
        )
        expected = []
        for b in c.basis:
            (p, coeff), = b.terms.items()
            expected.append(path_element(d.quiver, map_path(fold, p), coeff))
        assert push_forward(c, fold) == expected

    def test_coefficients_add_on_one_image(self):
        # both sides of the square go to the one path (u|v), so the diamond
        # (bt|gt) - (at|dt) goes to 0 and (bt|gt) + 2*(at|dt) to 3*(u|v)
        q = square_tilde()
        line = Quiver(["1", "2", "4"], [("u", "1", "2"), ("v", "2", "4")])
        squash = QuiverMorphism(q, line, {"1": "1", "2": "2", "3": "2", "4": "4"},
                                {"bt": "u", "at": "u", "gt": "v", "dt": "v"})
        top, bottom = path_element(q, Path("1", ("bt", "gt"))), path_element(q, Path("1", ("at", "dt")))
        c = SubCoalgebra(q, [top - bottom, top + bottom * 2], validate=False)
        zero, three = push_forward(c, squash)
        assert zero.is_zero()
        assert three == path_element(line, Path("1", ("u", "v")), 3)


class TestText:
    def test_text_form(self):
        q = square_tilde()
        x = (
            path_element(q, Path("1", ("bt", "gt")), cyc("1+z3^1"))
            - path_element(q, Path("1", ("at",)), cyc(Fraction(2, 3)))
            + grouplike(q, "4")
        )
        assert str(x) == "1*e_4+(-2/3)*(at)+(1+z3^1)*(bt|gt)"


# -- the coradical filtration and the Ext-quiver against the iterative route --


def assert_matches_reference(coalg):
    ext, ref = ext_quiver(coalg), reference_ext_quiver(coalg)
    assert (ext.vertices, ext.arrows) == (ref.vertices, ref.arrows)
    chain, loewy = coradical_filtration(coalg)
    ref_chain, ref_loewy = reference_coradical_filtration(coalg)
    assert loewy == ref_loewy == len(chain) == len(ref_chain)
    assert chain[-1].dim == coalg.dim
    for level, ref in zip(chain, ref_chain):
        assert level.dim == ref.dim
        assert all(level.contains(b) for b in ref.basis)
        assert all(ref.contains(b) for b in level.basis)
    return ext


# z4 sets and non-square lambda = -1 and lambda = 1 sets beside the
# criterion-1 grid, which already holds z3 and lambda = -1 at s = t = 0
EXTRA_WINDOW_PARAMS = [(0, 0, "z4", 0, 0, 0), (4, 0, "z4", 0, 0, 0),
                       (2, 0, -1, 3, 5, 0), (0, 0, 1, 2, 1, 0)]

PATH_QUIVERS = [
    square_tilde,
    two_loop_quiver,
    bipartite_six_cycle,
    lambda: grid_quiver(2, 0, 1),
    lambda: Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    lambda: Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")]),
]


def window_corpus(radius, ms=None):
    import test_acceptance  # imports this module, so not at load time

    sets = test_acceptance._valid_grid() + [validate_params(*raw) for raw in EXTRA_WINDOW_PARAMS]
    return [truncate_to_subcoalgebra(p, radius).coalgebra
            for p in sets if ms is None or p.m in ms]


# name -> () -> coalgebras
REFERENCE_CORPUS = {
    "windows-R1": lambda: window_corpus(1),
    "windows-R2": lambda: window_corpus(2),
    "windows-R3-m0-m2": lambda: window_corpus(3, ms=(0, 2)),
    "path-coalgebras": lambda: [path_coalgebra(make(), length)
                                for make in PATH_QUIVERS for length in range(4)],
    "localization": lambda: [localization_example(lam)
                             for lam in (1, -2, Fraction(1, 2), "z3")],
    "covering": lambda: list(covering_example()[:2]),
}


@pytest.mark.parametrize("name", list(REFERENCE_CORPUS))
def test_filtration_and_ext_quiver_match_reference(name):
    """Same Ext-quiver vertices and arrow list, and the same levels, as the
    iterative filtration and the skew-primitive systems."""
    for coalg in REFERENCE_CORPUS[name]():
        assert_matches_reference(coalg)


@st.composite
def recombined_path_spans(draw):
    """(coalgebra, closed paths): the span of a random set of paths closed
    under subpaths, a subcoalgebra, in a basis recombined by a random
    invertible upper-triangular rational matrix."""
    vertices = [str(i) for i in range(draw(st.integers(1, 4)))]
    ends = st.sampled_from(vertices)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=5))
    q = Quiver(vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(pairs)])
    closed = set()
    nontrivial = [p for p in q.paths_up_to(3) if p.length]
    for p in draw(st.lists(st.sampled_from(nontrivial), min_size=1, max_size=4)):
        starts = [p.start] + [q.arrow(a)[2] for a in p.arrows]
        for i in range(p.length + 1):
            for j in range(i, p.length + 1):
                closed.add(Path(starts[i], p.arrows[i:j]))
    paths = draw(st.permutations(sorted(closed)))
    entries = st.sampled_from([0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3)])
    basis = []
    for j in range(len(paths)):
        coeffs = [draw(entries) for _ in range(j)] + [draw(entries.filter(bool))]
        basis.append(CoElement.combination(q, coeffs, [path_element(q, p) for p in paths]))
    return SubCoalgebra(q, basis), paths


@settings(max_examples=60, deadline=None)
@given(recombined_path_spans())
def test_recombined_path_spans_match_reference(case):
    coalg, paths = case
    ext = assert_matches_reference(coalg)
    assert ext.vertices == sorted(p.start for p in paths if p.length == 0)
    quiver = coalg.quiver
    assert Counter((src, dst) for _, src, dst in ext.arrows) == Counter(
        (p.start, p.target(quiver)) for p in paths if p.length == 1
    )
    for g, h in product(ext.vertices, repeat=2):
        assert_same_span(skew_primitives(coalg, g, h), reference_skew_primitives(coalg, g, h))


NOT_POINTED = {
    "empty": lambda q: [],
    "vertex-sum": lambda q: [grouplike(q, "1") + grouplike(q, "2")],
}


@pytest.mark.parametrize(
    "f", [coradical_filtration, ext_quiver, reference_coradical_filtration, reference_ext_quiver]
)
@pytest.mark.parametrize("case", list(NOT_POINTED))
def test_not_pointed(case, f):
    """An unvalidated span whose coradical is not spanned by grouplikes: the
    empty one and span{e_1 + e_2}."""
    q = square_tilde()
    with pytest.raises(NotPointed):
        f(SubCoalgebra(q, NOT_POINTED[case](q), validate=False))
