from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathcoalg.coalgebra import CoElement
from pathcoalg.hopf import BmnElement, TensorElement, validate_params
from pathcoalg.linalg import SparseBasis, _inverse, axpy, nullspace, rref, tensor_axpy
from pathcoalg.quiver import Path, Quiver, grid_window
from pathcoalg.scalar import ONE, ZERO, CycScalar, cyc

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def sparse_systems(draw, max_rows=6, max_cols=7):
    """(rows, ncols): sparse rational rows, some of them combinations of
    earlier rows so that dependent systems are common."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.booleans()):
            a, b = draw(entries), draw(entries)
            r1 = draw(st.sampled_from(rows))
            r2 = draw(st.sampled_from(rows))
            row = {}
            for k in set(r1) | set(r2):
                row[k] = a * r1.get(k, 0) + b * r2.get(k, 0)
        else:
            row = draw(
                st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
            )
        rows.append(row)
    return rows, ncols


def as_cyc(row):
    return {k: cyc(v) for k, v in row.items()}


def reference_rref(rows, ncols):
    """Textbook dense Gauss-Jordan over Fraction: (rows, pivots)."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def full_scan_residue(engine, vec):
    """Reduce against every row in turn, reading each coefficient afresh."""
    res = {k: v for k, v in vec.items() if not v.is_zero()}
    for pivot, row in engine.rows.items():
        c = res.get(pivot)
        if c is None:
            continue
        for k, val in row.items():
            new = res.get(k, ZERO) - c * val
            if new.is_zero():
                res.pop(k, None)
            else:
                res[k] = new
    return res


def dot(row, vec):
    total = ZERO
    for k, c in row.items():
        total = total + c * vec[k]
    return total


class TestNullspace:
    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_vectors_are_annihilated(self, system):
        rows, ncols = system
        crows = [as_cyc(r) for r in rows]
        for vec in nullspace(crows, ncols):
            assert len(vec) == ncols
            assert all(dot(row, vec).is_zero() for row in crows)

    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_dimension_is_ncols_minus_rank(self, system):
        rows, ncols = system
        _, pivots = reference_rref(rows, ncols)
        assert len(nullspace([as_cyc(r) for r in rows], ncols)) == ncols - len(pivots)

    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_free_column_form(self, system):
        rows, ncols = system
        _, pivots = reference_rref(rows, ncols)
        free = [c for c in range(ncols) if c not in pivots]
        vecs = nullspace([as_cyc(r) for r in rows], ncols)
        for i, vec in enumerate(vecs):
            for j, f in enumerate(free):
                assert vec[f] == (ONE if i == j else ZERO)

    def test_no_rows_gives_unit_vectors(self):
        assert nullspace([], 3) == [
            [ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]
        ]
        assert nullspace([{}], 2) == [[ONE, ZERO], [ZERO, ONE]]

    def test_pinned_example(self):
        # x0 + 2 x2 = 0, x1 - x2 + 3 x3 = 0: free columns 2 and 3
        rows = [as_cyc({0: 1, 2: 2}), as_cyc({1: 1, 2: -1, 3: 3})]
        assert nullspace(rows, 4) == [
            [cyc(-2), ONE, ONE, ZERO],
            [ZERO, cyc(-3), ZERO, ONE],
        ]


class TestRref:
    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_reduced_echelon_form(self, system):
        rows, ncols = system
        dense = [[cyc(r.get(c, 0)) for c in range(ncols)] for r in rows]
        reduced, pivots = rref(dense)
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            for k, row in enumerate(reduced):
                assert row[p] == (ONE if i == k else ZERO)
        ref_rows, ref_pivots = reference_rref(rows, ncols)
        assert pivots == ref_pivots
        assert reduced == [[cyc(x) for x in row] for row in ref_rows]

    def test_empty(self):
        assert rref([]) == ([], [])


class TestSparseBasis:
    @given(sparse_systems(), st.lists(entries, min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_coords_reconstruct_vector(self, system, extra):
        rows, ncols = system
        gens = [as_cyc(r) for r in rows]
        engine = SparseBasis(coords=True)
        for g in gens:
            engine.add(g)
        # an arbitrary vector and one in the span
        probes = [as_cyc(dict(enumerate(extra[:ncols])))]
        inside = {}
        for g, w in zip(gens, extra):
            for k, c in g.items():
                inside[k] = inside.get(k, ZERO) + cyc(w) * c
        probes.append(inside)
        for vec in probes:
            res, comb = engine.residue(vec)
            total = dict(res)
            for tag, c in comb.items():
                for k, val in gens[tag].items():
                    total[k] = total.get(k, ZERO) + c * val
            for k in set(total) | set(vec):
                assert total.get(k, ZERO) == vec.get(k, ZERO)
            assert engine.contains(vec) == (engine.coords(vec) is not None)
        assert engine.coords(inside) is not None

    @given(sparse_systems(), st.lists(entries, min_size=7, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_residue_matches_full_scan(self, system, extra):
        rows, ncols = system
        engine = SparseBasis()
        for r in rows:
            engine.add(as_cyc(r))
        vec = as_cyc(dict(enumerate(extra[:ncols])))
        res, comb = engine.residue(vec)
        assert comb is None
        assert res == full_scan_residue(engine, vec)
        assert not set(res) & set(engine.rows)

    @given(sparse_systems())
    @settings(max_examples=60, deadline=None)
    def test_add_reports_rank_growth(self, system):
        rows, ncols = system
        engine = SparseBasis()
        prev = 0
        for i, r in enumerate(rows):
            rank = len(reference_rref(rows[: i + 1], ncols)[1])
            assert engine.add(as_cyc(r)) == (rank > prev)
            assert engine.dim == rank
            prev = rank

    def test_coords_require_tracking(self):
        engine = SparseBasis()
        engine.add({0: ONE})
        with pytest.raises(RuntimeError):
            engine.coords({0: ONE})



class FullScanBasis(SparseBasis):
    """Reference kernel: `add` scans every stored row for the new pivot."""

    def add(self, vec, tag=None):
        if tag is None:
            tag = self._adds
        self._adds += 1
        res, comb = self.residue(vec)
        if not res:
            return False
        pivot = min(res)
        inv = _inverse(res[pivot])
        row = {k: v * inv for k, v in res.items()}
        crow = None
        if comb is not None:
            crow = {tag: inv}
            axpy(crow, -inv, comb)
        for p, r in self.rows.items():
            c = r.get(pivot)
            if c is not None:
                axpy(r, -c, row)
                if crow is not None:
                    axpy(self.crows[p], -c, crow)
        self.rows[pivot] = row
        if crow is not None:
            self.crows[pivot] = crow
        return True


def assert_same_as_full_scan(vectors):
    engine, ref = SparseBasis(coords=True), FullScanBasis(coords=True)
    for vec in vectors:
        assert engine.add(dict(vec)) == ref.add(dict(vec))
    assert list(engine.rows.items()) == list(ref.rows.items())
    assert list(engine.crows.items()) == list(ref.crows.items())


# sparse rational vectors on six keys, so that a later pivot often sits in an
# earlier row
small_vectors = st.dictionaries(st.integers(0, 5), entries.filter(bool), max_size=4)


class TestSkippedBackElimination:
    @given(st.lists(small_vectors, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, vectors):
        assert_same_as_full_scan(vectors)

    @given(st.lists(small_vectors, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_supports(self, vectors):
        # the same vectors moved onto pairwise disjoint supports
        assert_same_as_full_scan(
            [{(i, k): v for k, v in vec.items()} for i, vec in enumerate(vectors)])

    @pytest.mark.parametrize("lead, rows, crows", [
        (1, {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}, {0: {0: 1, 1: -2}, 1: {1: 1}}),
        (-1, {0: {0: 1, 2: -5}, 1: {1: 1, 2: -1}}, {0: {0: -1, 1: -2}, 1: {1: -1}}),
    ])
    def test_later_pivot_in_earlier_row(self, lead, rows, crows):
        # the second pivot, key 1, is held by the first row and must leave it;
        # a unit pivot, 1 or -1, leaves every value a bare int
        vectors = [{0: lead, 1: 2, 2: 3}, {1: lead, 2: 1}]
        assert_same_as_full_scan(vectors)
        engine = SparseBasis(coords=True)
        for vec in vectors:
            engine.add(vec)
        assert (engine.rows, engine.crows) == (rows, crows)
        stored = [*engine.rows.values(), *engine.crows.values()]
        assert {type(v) for vec in stored for v in vec.values()} == {int}

    def test_cyclotomic(self):
        z3 = cyc("z3")
        assert_same_as_full_scan([{0: z3, 2: ONE}, {1: ONE, 2: z3 * z3}, {2: 1 + z3},
                                  {0: ONE, 1: ONE, 3: z3}])


# -- the sparse-combination base of the three element types -----------------

QUIVER = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3"), ("w", "1", "3")])
PARAMS = validate_params(3, 1, 1, 1, 0, 1)
PATHS = QUIVER.paths_up_to(2)
MONOMIALS = [(g, p, q) for g in grid_window(PARAMS.m, PARAMS.n, 1)
             for p in (0, 1) for q in (0, 1)]

# integral, fractional and cyclotomic coefficients, zero among them
coefficients = st.builds(
    lambda n, e, a, b: cyc(Fraction(a, b)) * CycScalar.root_of_unity(n, e),
    st.sampled_from([1, 3, 4]),
    st.integers(0, 3),
    st.integers(-4, 4),
    st.sampled_from([1, 1, 2, 3]),
)


def _elements(make, keys):
    return st.dictionaries(st.sampled_from(keys), coefficients, max_size=5).map(make)


KINDS = {
    "CoElement": _elements(lambda t: CoElement(QUIVER, t), PATHS),
    "BmnElement": _elements(lambda t: BmnElement(PARAMS, t), MONOMIALS),
    "TensorElement": _elements(
        lambda t: TensorElement(PARAMS, t),
        [(l, r) for l in MONOMIALS[:6] for r in MONOMIALS[-6:]],
    ),
}


def _stores_no_zero(x):
    # a value is a bare rational or a CycScalar; both compare with 0
    return all(c != 0 for c in x.terms.values())


class TestSparseElement:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_combination_rules(self, kind, data):
        a, b = data.draw(KINDS[kind]), data.draw(KINDS[kind])
        c = data.draw(coefficients)
        for x in (a, a + b, a - b, -a, a * c, c * a,
                  type(a).combination(a.ambient, [c, 2], [a, b])):
            assert _stores_no_zero(x)
            # one value rule for every kind: a rational is stored bare
            assert not any(isinstance(v, CycScalar) and v.n == 1
                           for v in x.terms.values())
        assert (a + (-a)).is_zero()
        assert (a + b) - b == a
        assert hash((a + b) - b) == hash(a)
        reordered = type(a)(a.ambient, dict(reversed(list(a.terms.items()))))
        assert reordered == a and hash(reordered) == hash(a)

    def test_text_form(self):
        # `coeff*key` terms in key order; a coefficient with a sign inside is
        # parenthesized
        x = CoElement(QUIVER, {Path("1", ("u", "v")): cyc("1+z3"),
                               Path("1", ("w",)): Fraction(-2, 3), Path("2"): 1})
        u = BmnElement(PARAMS, {((0, -1), 0, 0): cyc("-z4"), ((0, -1), 1, 1): Fraction(1, 2),
                                ((0, 0), 0, 1): -2})
        assert str(x) == "1*e_2+(-2/3)*(w)+(1+z3^1)*(u|v)"
        assert str(u) == "(-z4^1)*b^-1+1/2*b^-1*x*y+(-2)*y"
        assert str(CoElement(QUIVER, {})) == "0"


# -- the forced-zero shortcut of nullspace and the bare-rational kernel -------


def reference_nullspace(rows, ncols):
    """Every row through one SparseBasis, the kernel read off its reduced rows."""
    engine = SparseBasis()
    for row in rows:
        engine.add(row)
    vecs = {
        f: [ONE if c == f else ZERO for c in range(ncols)]
        for f in range(ncols) if f not in engine.rows
    }
    for p, row in engine.rows.items():
        for f, c in row.items():
            if f != p:
                vecs[f][p] = -c
    return list(vecs.values())


@st.composite
def mixed_systems(draw, max_rows=8, max_cols=7):
    """(rows, ncols): boxed rows that mix one-entry rows, zero-valued entries
    and rational and cyclotomic coefficients."""
    ncols = draw(st.integers(1, max_cols))
    column = st.integers(0, ncols - 1)
    row = st.one_of(
        st.builds(lambda k, c: {k: c}, column, coefficients),
        st.dictionaries(column, coefficients, max_size=ncols),
    )
    return draw(st.lists(row, max_size=max_rows)), ncols


def bare(value):
    """A rational as int when integral, as Fraction otherwise."""
    return value.numerator if value.denominator == 1 else value


class TestKernelFastPaths:
    @given(mixed_systems())
    @settings(max_examples=80, deadline=None)
    def test_nullspace_matches_full_reduction(self, system):
        rows, ncols = system
        assert nullspace(rows, ncols) == reference_nullspace(rows, ncols)

    def test_zero_valued_entry_forces_nothing(self):
        rows = [{3: ZERO}, {0: ONE, 1: ZERO}]
        assert nullspace(rows, 4) == [
            [ZERO, ONE, ZERO, ZERO], [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]
        ]

    def test_zero_and_one_entries_are_bare(self):
        # whatever kind the rows hold; the pivot entry -1 comes from a boxed row
        vecs = nullspace([{0: ONE, 1: ONE}, {3: cyc("z3")}], 4)
        assert vecs == [[-ONE, ONE, ZERO, ZERO], [ZERO, ZERO, ONE, ZERO]]
        assert [[type(x) for x in vec[1:]] for vec in vecs] == [[int] * 3] * 2

    def test_forced_column_reaches_longer_rows(self):
        # x1 = 0 turns x0 + x1 = 0 into x0 = 0 and x0 + x1 + x2 into x2 = 0
        rows = [{0: ONE, 1: ONE}, {1: cyc(5)}, {0: ONE, 1: ONE, 2: ONE}]
        assert nullspace(rows, 4) == [[ZERO, ZERO, ZERO, ONE]]

    @given(sparse_systems())
    @settings(max_examples=80, deadline=None)
    def test_bare_rows_reduce_like_boxed_rows(self, system):
        rows, ncols = system
        plain, boxed = SparseBasis(), SparseBasis()
        for r in rows:
            assert plain.add({k: bare(v) for k, v in r.items()}) == boxed.add(as_cyc(r))
        assert {p: as_cyc(r) for p, r in plain.rows.items()} == boxed.rows
        values = [v for r in plain.rows.values() for v in r.values()]
        assert all(type(v) in (int, Fraction) and v for v in values)
        bare_kernel = nullspace([{k: bare(v) for k, v in r.items()} for r in rows], ncols)
        if any(v for r in rows for v in r.values()):
            assert all(type(x) in (int, Fraction) for vec in bare_kernel for x in vec)
        assert [[cyc(x) for x in vec] for vec in bare_kernel] == nullspace(
            [as_cyc(r) for r in rows], ncols
        )


class TestTensorAxpy:
    @given(
        target=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients),
        coeff=coefficients,
        left=st.dictionaries(st.integers(0, 2), coefficients, max_size=3),
        right=st.dictionaries(st.integers(0, 2), coefficients, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_double_loop(self, target, coeff, left, right):
        target = {k: v for k, v in target.items() if v}
        expected = dict(target)
        for k, a in left.items():
            for l, b in right.items():
                expected[k, l] = expected.get((k, l), ZERO) + coeff * a * b
        got = dict(target)
        tensor_axpy(got, coeff, left, right)
        assert got == {k: v for k, v in expected.items() if v}

    def test_cancelled_entry_is_dropped(self):
        target = {(0, 1): 6, (1, 1): 1}
        tensor_axpy(target, -2, {0: 3}, {1: Fraction(1), 2: cyc("z4")})
        assert target == {(1, 1): 1, (0, 2): -6 * cyc("z4")}
