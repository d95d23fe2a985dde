import gc
import random
import weakref
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from pathcoalg import comodules, hopf
from pathcoalg.comodules import (
    Comodule,
    HomSpace,
    StringSpec,
    are_isomorphic,
    build_band_family,
    build_diamond,
    build_simple,
    build_string,
    decide_discrete,
    direct_sum,
    enumerate_indecomposables,
    hom,
    is_indecomposable,
    loewy_length,
    socle_series_dims,
)
from pathcoalg.errors import (
    InvalidDescription,
    InvalidSpec,
    NotDiscreteParams,
    ParamMismatch,
    RequiresMEqualsN,
    WindowTooSmall,
)
from pathcoalg.coalgebra import CoElement, SubCoalgebra, path_element, span_subcoalgebra
from pathcoalg.hopf import truncate_to_subcoalgebra, validate_params
from pathcoalg.linalg import SparseBasis, accumulate, nullspace
from pathcoalg.quiver import Path, grid_vertex_label
from pathcoalg.scalar import ONE, ZERO, CycScalar, cyc


@pytest.fixture(scope="module")
def free_trunc():
    return truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 1)


@pytest.fixture(scope="module")
def skew_trunc():
    return truncate_to_subcoalgebra(validate_params(0, 0, "z4", 0, 0, 0), 1)


class TestConstruction:
    def test_simple_valid(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        assert s.dim == 1
        assert s.dimension_vector() == {"a0b0": ONE}

    def test_simple_out_of_window(self, free_trunc):
        with pytest.raises(WindowTooSmall):
            build_simple(free_trunc, 5, 0)

    def test_diamond_valid(self, free_trunc):
        d = build_diamond(free_trunc, 0, 0)
        assert d.dim == 4
        dv = d.dimension_vector()
        assert set(dv) == {"a0b0", "a1b0", "a0b1", "a1b1"}

    def test_diamond_skew_lambda(self, skew_trunc):
        d = build_diamond(skew_trunc, -1, -1)
        assert d.dim == 4

    def test_string_valley(self, free_trunc):
        # two sources into a shared target: descend, then ascend
        m = build_string(free_trunc, StringSpec((0, 0), "x", 2, up_first=False))
        assert m.dim == 3
        assert socle_series_dims(m) == [2, 1]

    def test_string_peak(self, free_trunc):
        # e_g with both arrows out: ascend into the source, then descend
        m = build_string(free_trunc, StringSpec((1, 0), "x", 2, up_first=True))
        assert m.dim == 3
        assert socle_series_dims(m) == [1, 2]

    def test_string_single_arrow(self, free_trunc):
        m = build_string(free_trunc, StringSpec((0, 0), "y", 1))
        assert m.dim == 2
        assert socle_series_dims(m) == [1, 1]

    def test_string_out_of_window(self, free_trunc):
        with pytest.raises(WindowTooSmall):
            build_string(free_trunc, StringSpec((2, 2), "x", 1))

    def test_string_bad_letter(self, free_trunc):
        with pytest.raises(InvalidSpec):
            build_string(free_trunc, StringSpec((0, 0), "z", 1))

    def test_string_zero_length(self, free_trunc):
        with pytest.raises(InvalidSpec):
            build_string(free_trunc, StringSpec((0, 0), "x", 0))

    def test_string_closing_into_band_rejected(self):
        params = validate_params(2, 2, 1, 1, 1, 0)
        trunc = truncate_to_subcoalgebra(params, 2)
        # 2n alternating arrows wrap around via a^2 = b^2
        with pytest.raises(InvalidSpec):
            build_string(trunc, StringSpec((0, 0), "x", 4))

    def test_comatrix_validation_rejects_garbage(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        t = build_simple(free_trunc, 1, 0)
        bad = [[s.coaction[0][0], t.coaction[0][0]],
               [t.coaction[0][0], t.coaction[0][0]]]
        with pytest.raises(InvalidDescription):
            Comodule(free_trunc.coalgebra, bad)

    def test_counit_failure_names_the_value(self, free_trunc):
        e = build_simple(free_trunc, 0, 0).coaction[0][0]
        with pytest.raises(InvalidDescription) as info:
            Comodule(free_trunc.coalgebra, [[e * 2]])
        assert str(info.value) == "counit law fails at entry (0,0): eps = 2"
        with pytest.raises(InvalidDescription) as info:
            Comodule(free_trunc.coalgebra, [[e, e], [e * 0, e]])
        assert str(info.value) == "counit law fails at entry (0,1): eps = 1"

    def test_comatrix_failure_names_the_first_difference(self, free_trunc):
        # Delta(e + x) = e(x)e + e(x)x + x(x)e_t, while (e + x)(x)(e + x) has
        # e(x)e + e(x)x + x(x)e + x(x)x: they differ at (x, e), (x, e_t) and
        # (x, x), and paths order shortest first, then by start vertex
        e = build_simple(free_trunc, 0, 0).coaction[0][0]
        x = build_string(free_trunc, StringSpec((0, 0), "x", 1)).coaction[0][1]
        with pytest.raises(InvalidDescription) as info:
            Comodule(free_trunc.coalgebra, [[e + x]])
        assert str(info.value) == (
            "comatrix identity fails at entry (0,0): at ((x@a0b0), e_a0b0) "
            "Delta gives 0, sum_l c_il (x) c_lj gives 1"
        )
        with pytest.raises(InvalidDescription) as info:
            Comodule(free_trunc.coalgebra, [[e - x * Fraction(1, 2)]])
        assert str(info.value) == (
            "comatrix identity fails at entry (0,0): at ((x@a0b0), e_a0b0) "
            "Delta gives 0, sum_l c_il (x) c_lj gives -1/2"
        )

    def test_label_count_must_match_dimension(self, free_trunc):
        e = build_simple(free_trunc, 0, 0).coaction[0][0]
        with pytest.raises(InvalidDescription) as info:
            Comodule(free_trunc.coalgebra, [[e]], ["p", "q", "r"])
        assert str(info.value) == "3 labels for a comodule of dimension 1"
        assert Comodule(free_trunc.coalgebra, [[e]], ["p"]).to_json()["labels"] == ["p"]

    def test_json_round_trip_shape(self, free_trunc):
        d = build_diamond(free_trunc, -1, 0)
        data = d.to_json()
        assert data["dimension"] == 4
        assert len(data["coaction"]) == 4


class TestCoefficientCoalgebra:
    """The coaction entries of a comodule span a subcoalgebra (the comatrix
    identity Delta(c_ij) = sum_l c_il (x) c_lj), the coefficient coalgebra."""

    @staticmethod
    def coefficients(mod):
        entries = [e for row in mod.coaction for e in row if not e.is_zero()]
        span = span_subcoalgebra(mod.coalgebra.quiver, entries)
        assert all(span.contains(e) for e in entries)
        return span

    def test_simple(self, free_trunc):
        assert self.coefficients(build_simple(free_trunc, 0, 1)).dim == 1

    def test_diamond(self, free_trunc):
        # 4 grouplikes + 4 arrows + the length-2 combination
        assert self.coefficients(build_diamond(free_trunc, 0, 0)).dim == 9

    def test_string(self, free_trunc):
        m = build_string(free_trunc, StringSpec((0, 0), "x", 2))
        assert self.coefficients(m).dim == 5


class TestHom:
    def test_simple_simple(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        t = build_simple(free_trunc, 1, 0)
        assert hom(s, s).dim == 1
        assert hom(s, t).dim == 0

    def test_diamond_to_socle(self, free_trunc):
        d = build_diamond(free_trunc, 0, 0)
        s = build_simple(free_trunc, 0, 0)
        assert hom(s, d).dim == 1  # socle inclusion
        assert hom(d, s).dim == 0
        top = build_simple(free_trunc, 1, 1)
        assert hom(d, top).dim == 1  # projection onto the top
        assert hom(top, d).dim == 0

    def test_end_of_direct_sum(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        ss = direct_sum(s, s)
        assert hom(ss, ss).dim == 4

    def test_string_end_is_local(self, free_trunc):
        m = build_string(free_trunc, StringSpec((0, 0), "x", 2))
        assert hom(m, m).dim == 1

    def test_basis_of_sum_of_simples_is_unit_matrices(self, free_trunc):
        # the Hom basis order is pinned (free-column form); are_isomorphic's
        # answer does not depend on it
        s = build_simple(free_trunc, 0, 0)
        ss = direct_sum(s, s)
        units = [
            [[ONE if (r, c) == rc else ZERO for c in range(2)] for r in range(2)]
            for rc in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]
        assert hom(ss, ss).basis == units

    def test_basis_free_column_form(self, free_trunc):
        # flattened row-major, basis vector i has 1 at its last nonzero
        # entry f_i, every other basis vector is 0 there, and f_i increases
        m = build_string(free_trunc, StringSpec((0, 0), "x", 2))
        for g in ((0, 0), (1, 0), (0, 1)):
            ms = direct_sum(m, build_simple(free_trunc, *g))
            for a, b in ((ms, ms), (m, ms), (ms, m), (m, m)):
                vecs = [[x for row in f for x in row] for f in hom(a, b).basis]
                assert vecs
                lead = [
                    max(k for k, x in enumerate(vec) if not x.is_zero())
                    for vec in vecs
                ]
                assert lead == sorted(set(lead))
                for i, vec in enumerate(vecs):
                    for j, f in enumerate(lead):
                        assert vec[f] == (ONE if i == j else ZERO)


class TestIndecomposability:
    def test_simple(self, free_trunc):
        assert is_indecomposable(build_simple(free_trunc, -1, 1))

    def test_diamond(self, free_trunc):
        assert is_indecomposable(build_diamond(free_trunc, 0, -1))

    def test_strings(self, free_trunc):
        for up in (False, True):
            m = build_string(free_trunc, StringSpec((0, 0) if not up else (1, 0),
                                                    "x", 2, up_first=up))
            assert is_indecomposable(m)

    def test_direct_sum_decomposable(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        assert not is_indecomposable(direct_sum(s, s))
        t = build_simple(free_trunc, 0, 1)
        assert not is_indecomposable(direct_sum(s, t))

    def test_iso_detection(self, free_trunc):
        d1 = build_diamond(free_trunc, 0, 0)
        d2 = build_diamond(free_trunc, 0, 0)
        d3 = build_diamond(free_trunc, -1, 0)
        assert are_isomorphic(d1, d2)
        assert not are_isomorphic(d1, d3)
        s = build_simple(free_trunc, 0, 0)
        assert not are_isomorphic(d1, direct_sum(direct_sum(s, s),
                                                 direct_sum(s, s)))

    def test_cyclotomic_coaction(self):
        # at lambda = z3 the diamond's coaction has the coefficient -z3, so
        # hom cannot work on bare rationals; a rescaled copy of the diamond
        # makes the Hom basis cyclotomic too
        trunc = truncate_to_subcoalgebra(validate_params(0, 0, "z3", 0, 0, 0), 1)
        d = build_diamond(trunc, 0, 0)
        assert any(
            cyc(c).n != 1 for row in d.coaction for e in row
            for c in e.terms.values()
        )
        scale = [ONE, ONE, cyc("z3"), cyc("z3")]
        e = Comodule(d.coalgebra, [
            [d.coaction[i][j] * (scale[j] / scale[i]) for j in range(4)] for i in range(4)
        ])
        zero = d.coaction[1][0]
        for m1, m2 in ((d, d), (d, e), (e, d)):
            (f,) = hom(m1, m2).basis
            assert all(isinstance(x, CycScalar) for row in f for x in row)
            # rho_N(f(m_j)) = (f (x) id)(rho_M(m_j)), entry by entry
            for l in range(4):
                for j in range(4):
                    lhs = sum((m2.coaction[l][k] * f[k][j] for k in range(4)), zero)
                    rhs = sum((m1.coaction[i][j] * f[l][i] for i in range(4)), zero)
                    assert lhs == rhs
        (f,) = hom(d, e).basis
        assert not all(x.n == 1 for row in f for x in row)
        assert is_indecomposable(d) and are_isomorphic(d, e)


def _conjugate(mod, rng):
    """The same comodule in the basis m'_j = sum_i m_i P[i][j] for a random
    invertible rational P: coaction P^-1 c P, validated."""
    d = mod.dim
    p = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    pinv = [row[:] for row in p]
    for _ in range(3 * d):
        # P <- P E with E = 1 + t e_ij, so P^-1 <- E^-1 P^-1, E^-1 = 1 - t e_ij
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            t = Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 4))
            for r in range(d):
                p[r][i] *= t
            pinv[i] = [x / t for x in pinv[i]]
            continue
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for r in range(d):
            p[r][j] += t * p[r][i]
        pinv[i] = [x - t * y for x, y in zip(pinv[i], pinv[j])]
    c = mod.coaction
    zero = c[0][0] - c[0][0]
    new = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            entry = zero
            for k in range(d):
                for l in range(d):
                    w = pinv[i][k] * p[l][j]
                    if w and not c[k][l].is_zero():
                        entry = entry + c[k][l] * cyc(w)
            new[i][j] = entry
    return Comodule(mod.coalgebra, new)


def _sum(mods):
    out = mods[0]
    for m in mods[1:]:
        out = direct_sum(out, m)
    return out


def _hom_full(m1, m2):
    """The Hom oracle: one unknown per entry of the dim N x dim M matrix f,
    unknown f[r][c] in column r * dim M + c, and one equation per
    (l, j, path), whatever the bases."""
    comodules._check_ambient(m1, m2)
    dm, dn = m1.dim, m2.dim
    ids = {}

    def terms(e):
        return [(ids.setdefault(p, len(ids)), c) for p, c in e.terms.items()]

    out2 = [[(k * dm, p, c) for k, e in enumerate(row) for p, c in terms(e)]
            for row in m2.coaction]
    in1 = [[(i, p, -c) for i, row in enumerate(m1.coaction) for p, c in terms(row[j])]
           for j in range(dm)]
    rows = []
    for l in range(dn):
        for j in range(dm):
            per_path = {}
            for k, p, c in out2[l]:
                per_path.setdefault(p, {})[k + j] = c
            for i, p, c in in1[j]:
                accumulate(per_path.setdefault(p, {}), l * dm + i, c)
            rows.extend(row for row in per_path.values() if row)
    return HomSpace(m1, m2, [
        [vec[r * dm:(r + 1) * dm] for r in range(dn)] for vec in nullspace(rows, dn * dm)
    ])


def _hom_rows_all_pairs(m1, m2):
    """The equations of `hom` as (rows, number of unknowns), assembled by a
    loop over every pair (l, j) of basis vectors of N and M, in order,
    writing one row per path.  The unknowns are `hom`'s: f[r][c] for
    the same-vertex pairs on adapted bases, every entry otherwise, numbered
    in the order of r * dim M + c."""
    dm, dn = m1.dim, m2.dim
    w1, w2 = m1.weights, m2.weights
    if w1 is None or w2 is None:
        w1, w2 = [0] * dm, [0] * dn
    number = count()
    col = [[next(number) if g == h else None for h in w1] for g in w2]
    out2, in1 = [{} for _ in range(dn)], [{} for _ in range(dm)]
    for l, row in enumerate(m2.coaction):
        for k, e in enumerate(row):
            for p, c in e.terms.items():
                out2[l].setdefault(w2[k], []).append((col[k], p, c))
    for i, row in enumerate(m1.coaction):
        for j, e in enumerate(row):
            for p, c in e.terms.items():
                in1[j].setdefault(w1[i], []).append((i, p, -c))
    rows = []
    for l, g in enumerate(w2):
        for j, h in enumerate(w1):
            per_path = {}
            for col_k, p, c in out2[l].get(h, ()):
                per_path.setdefault(p, {})[col_k[j]] = c
            for i, p, c in in1[j].get(g, ()):
                accumulate(per_path.setdefault(p, {}), col[l][i], c)
            rows.extend(row for row in per_path.values() if row)
    return rows, next(number)


def _exact(matrices):
    """The matrices with each entry's type, so that 0 and Fraction(0) differ."""
    return [[[(type(x), x) for x in row] for row in f] for f in matrices]


def _exact_rows(rows):
    """The rows as (key, type, value) lists, in their key order."""
    return [[(k, type(v), v) for k, v in row.items()] for row in rows]


def _assert_hom_matches_oracle(m1, m2):
    """`hom` hands `nullspace` the all-pairs loop's rows, the same rows in the
    same order, and its matrices are the full system's."""
    handed = []

    def recording(rows, n):
        handed.append((_exact_rows(rows), n))
        return nullspace(rows, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comodules, "nullspace", recording)
        got = hom(m1, m2)
    rows, n = _hom_rows_all_pairs(m1, m2)
    assert handed == [(_exact_rows(rows), n)]
    assert _exact(got.matrices) == _exact(_hom_full(m1, m2).matrices)


# the comodule-hom benchmark's inventories: (parameters, radius, dimension bound)
HOM_INVENTORIES = [
    ((0, 0, 1, 0, 0, 0), 2, 8),
    ((2, 0, -1, 0, 0, 0), 2, 6),
    ((3, 1, 1, 0, 0, 0), 2, 6),
]


class TestHomBlocks:
    """`hom` solves only for same-vertex entries on adapted bases and for
    every entry otherwise; either way its matrices are the full system's, and
    the rows it hands `nullspace` are those of the all-pairs loop."""

    @pytest.mark.parametrize("raw, radius, max_dim", HOM_INVENTORIES)
    def test_inventory_matches_full_system(self, raw, radius, max_dim):
        found = enumerate_indecomposables(validate_params(*raw), radius, max_dim)
        mods = [item["module"] for item in found]
        assert all(m.weights is not None for m in mods)
        for m1 in mods:
            for m2 in mods:
                _assert_hom_matches_oracle(m1, m2)

    @pytest.mark.parametrize("m", [2, 4])
    def test_bands_match_full_system(self, m):
        bands = build_band_family(validate_params(m, m, 1, 0, 0, 0), m, [1, 2, 3])
        for b1 in bands:
            for b2 in bands:
                _assert_hom_matches_oracle(b1, b2)

    def test_unknowns_are_same_vertex_pairs(self, free_trunc, monkeypatch):
        ncols = []

        def recording(rows, n):
            ncols.append(n)
            return nullspace(rows, n)

        monkeypatch.setattr(comodules, "nullspace", recording)
        d = build_diamond(free_trunc, 0, 0)
        s = build_simple(free_trunc, 0, 0)
        conj = _conjugate(d, random.Random(3))
        assert d.weights == ["a0b0", "a1b0", "a0b1", "a1b1"]
        assert conj.weights is None
        assert hom(d, d).dim == 1 and ncols == [4]
        assert hom(s, d).dim == 1 and ncols[-1] == 1
        for m1, m2 in ((conj, d), (d, conj), (conj, conj)):
            assert hom(m1, m2).dim == 1 and ncols[-1] == 16

    def test_weights_and_direct_sums(self, free_trunc):
        d = build_diamond(free_trunc, 0, 0)
        s = build_simple(free_trunc, 1, 1)
        ds = direct_sum(d, s)
        # the counit law makes a validated diagonal coefficient 1
        assert Comodule(d.coalgebra, [[s.coaction[0][0] * 2]], validate=False).weights is None
        # filled from the summands, not by scanning the sum's coaction
        assert vars(ds)["weights"] == d.weights + s.weights
        assert direct_sum(_conjugate(d, random.Random(1)), s).weights is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_matches_full_system(self, free_trunc, data):
        # builder modules, conjugated (generally non-adapted) copies and
        # direct sums mixing the two kinds, in both argument orders
        pool = [build_simple(free_trunc, *g) for g in ((0, 0), (1, 0), (1, 1))]
        pool += [
            build_string(free_trunc, StringSpec((0, 0), "x", 1)),
            build_string(free_trunc, StringSpec((0, 0), "x", 2)),
            build_string(free_trunc, StringSpec((1, 0), "x", 2, up_first=True)),
            build_diamond(free_trunc, 0, 0),
        ]
        summand = st.tuples(st.sampled_from(range(len(pool))), st.booleans(),
                            st.integers(0, 2**16))

        def module():
            parts = []
            for idx, conj, seed in data.draw(st.lists(summand, min_size=1, max_size=2)):
                parts.append(_conjugate(pool[idx], random.Random(seed)) if conj else pool[idx])
            return _sum(parts)

        m1, m2 = module(), module()
        _assert_hom_matches_oracle(m1, m2)
        _assert_hom_matches_oracle(m2, m1)


class TestIsomorphism:
    def test_self_sum_of_simple(self, free_trunc):
        ss = direct_sum(build_simple(free_trunc, 0, 0), build_simple(free_trunc, 0, 0))
        again = direct_sum(build_simple(free_trunc, 0, 0), build_simple(free_trunc, 0, 0))
        assert are_isomorphic(ss, again)

    def test_multiplicity_differs(self, free_trunc):
        a = build_string(free_trunc, StringSpec((0, 0), "x", 1))
        b = build_string(free_trunc, StringSpec((0, 0), "y", 1))
        c = build_simple(free_trunc, 1, 1)
        assert not are_isomorphic(_sum([a, a, c]), _sum([a, b, c]))
        assert not are_isomorphic(_sum([a, b, c]), _sum([a, a, c]))

    def test_same_composition_factors(self, free_trunc):
        split = direct_sum(build_simple(free_trunc, 0, 0), build_simple(free_trunc, 1, 0))
        string = build_string(free_trunc, StringSpec((0, 0), "x", 1))
        assert split.dimension_vector() == string.dimension_vector()
        assert not are_isomorphic(split, string)
        assert not are_isomorphic(string, split)

    @pytest.mark.parametrize("shortcuts", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_krull_schmidt(self, free_trunc, seed, shortcuts, monkeypatch):
        # pairwise non-isomorphic indecomposables: M + ... is isomorphic to
        # N + ... iff the multisets of summands agree; without the positive
        # proof the trace-rank criterion answers every case alone
        if not shortcuts:
            monkeypatch.setattr(comodules, "_mat_rank", lambda mat: -1)
        pool = [build_simple(free_trunc, *g) for g in ((0, 0), (1, 0), (0, 1), (1, 1))]
        pool += [
            build_string(free_trunc, StringSpec((0, 0), "x", 1)),
            build_string(free_trunc, StringSpec((0, 0), "y", 1)),
            build_string(free_trunc, StringSpec((0, 0), "x", 2)),
        ]
        rng = random.Random(seed)
        for _ in range(10):
            left = sorted(rng.choices(range(len(pool)), k=rng.randint(1, 3)))
            right = list(left)
            if rng.random() < 0.5:
                dim = sum(pool[i].dim for i in left)
                for _ in range(50):
                    right = sorted(rng.choices(range(len(pool)), k=rng.randint(1, 4)))
                    if right != left and sum(pool[i].dim for i in right) == dim:
                        break
            rng.shuffle(left)
            rng.shuffle(right)
            m = _sum([pool[i] for i in left])
            n = _conjugate(_sum([pool[i] for i in right]), rng)
            assert are_isomorphic(m, n) == (sorted(left) == sorted(right))


class TestSocleSeries:
    def test_simple(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        assert socle_series_dims(s) == [1]
        assert loewy_length(s) == 1

    def test_single_arrow_string(self, free_trunc):
        m = build_string(free_trunc, StringSpec((0, 0), "x", 1))
        assert socle_series_dims(m) == [1, 1]
        assert loewy_length(m) == 2

    def test_valley_string(self, free_trunc):
        # two arrows into or out of one middle vertex: a two-dimensional layer
        m = build_string(free_trunc, StringSpec((0, 0), "x", 2))
        assert socle_series_dims(m) == [2, 1]
        assert loewy_length(m) == 2

    def test_diamond(self, free_trunc):
        d = build_diamond(free_trunc, 0, 0)
        assert socle_series_dims(d) == [1, 2, 1]
        assert loewy_length(d) == 3

    def test_direct_sum_socle(self, free_trunc):
        s = build_simple(free_trunc, 0, 0)
        t = build_simple(free_trunc, 1, 0)
        assert socle_series_dims(direct_sum(s, t)) == [2]

    def test_vanishing_socle(self, free_trunc):
        # rho(m0) = m0 (x) x, with no length-0 part, never lies in M (x) C_0
        m = build_string(free_trunc, StringSpec((0, 0), "x", 1))
        (arrow,) = [e for row in m.coaction for e in row if e.terms and e.counit() == 0]
        bad = Comodule(free_trunc.coalgebra, [[arrow]], validate=False)
        for f in (socle_series_dims, reference_socle_series_dims):
            with pytest.raises(InvalidDescription):
                f(bad)


# -- the socle series against the former quotient-comodule route --


def reference_socle_series_dims(mod):
    """The former `socle_series_dims`: soc M = {v : rho(v) in M (x) C_0} by
    one nullspace, then the same on the quotient comodule M / soc M, layer
    after layer."""
    dims = []
    current = mod
    while current.dim > 0:
        rows = []
        for i in range(current.dim):
            per_path = {}
            for j in range(current.dim):
                for p, coeff in current.coaction[i][j].terms.items():
                    if p.length > 0:
                        accumulate(per_path.setdefault(p, {}), j, coeff)
            rows.extend(row for row in per_path.values() if row)
        soc = nullspace(rows, current.dim)
        if not soc:
            raise InvalidDescription("socle vanished on a nonzero comodule")
        dims.append(len(soc))
        if len(soc) == current.dim:
            break
        current = _quotient_comodule(current, soc)
    return dims


def _quotient_comodule(mod, sub_vectors):
    """M / span(sub_vectors) on the unit vectors that are no pivot of the
    subspace's reduced basis."""
    engine = SparseBasis()
    for v in sub_vectors:
        engine.add(dict(enumerate(v)))
    keep = [i for i in range(mod.dim) if i not in engine.rows]
    # residues of the unit vectors give the projection onto the complement
    proj = [engine.residue({i: 1})[0] for i in range(mod.dim)]
    zero = CoElement(mod.coalgebra.quiver, {})
    c = [[zero] * len(keep) for _ in range(len(keep))]
    for jj, j in enumerate(keep):
        for i in range(mod.dim):
            entry = mod.coaction[i][j]
            if entry.is_zero():
                continue
            for ii, knew in enumerate(keep):
                w = proj[i].get(knew)
                if w:
                    c[ii][jj] = c[ii][jj] + entry * w
    return Comodule(mod.coalgebra, c, [mod.labels[i] for i in keep], validate=False)


def _assert_socles_match(mods):
    for m in mods:
        assert socle_series_dims(m) == reference_socle_series_dims(m)


@pytest.fixture(scope="module")
def socle_pool(free_trunc):
    return [item["module"] for item in enumerate_indecomposables(
        free_trunc.params, 1, 4, truncation=free_trunc)]


class TestSocleReference:
    """`socle_series_dims` gives the quotient-comodule route's layers."""

    @pytest.mark.parametrize("raw, radius, max_dim", HOM_INVENTORIES + [
        ((4, 2, 1, 0, 0, 0), 2, 6),
        ((0, 0, "z3", 0, 0, 0), 2, 6),
    ])
    def test_inventory(self, raw, radius, max_dim):
        found = enumerate_indecomposables(validate_params(*raw), radius, max_dim)
        _assert_socles_match([item["module"] for item in found])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bands(self, m):
        _assert_socles_match(build_band_family(validate_params(m, m, 1, 0, 0, 0), m, [1, 2, 3]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_sums_and_conjugates(self, socle_pool, data):
        summand = st.tuples(st.sampled_from(range(len(socle_pool))), st.booleans(),
                            st.integers(0, 2**16))
        parts = []
        for idx, conj, seed in data.draw(st.lists(summand, min_size=1, max_size=2)):
            mod = socle_pool[idx]
            parts.append(_conjugate(mod, random.Random(seed)) if conj else mod)
        mod = _sum(parts)
        _assert_socles_match([mod, _conjugate(mod, random.Random(len(parts)))])


class TestEnumeration:
    def test_only_simples_at_dim_one(self):
        params = validate_params(0, 0, 1, 0, 0, 0)
        found = enumerate_indecomposables(params, 1, 1)
        assert len(found) == 9
        assert all(item["kind"] == "simple" for item in found)

    def test_diamond_count_at_dim_four(self):
        params = validate_params(0, 0, 1, 0, 0, 0)
        found = enumerate_indecomposables(params, 1, 4)
        diamonds = [f for f in found if f["kind"] == "diamond"]
        assert len(diamonds) == 4  # one per unit square inside the window

    def test_all_entries_indecomposable_and_distinct(self):
        params = validate_params(0, 0, 1, 0, 0, 0)
        found = enumerate_indecomposables(params, 1, 3)
        mods = [f["module"] for f in found]
        assert all(is_indecomposable(m) for m in mods)
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                assert not are_isomorphic(mods[i], mods[j])

    def test_requires_discrete(self):
        params = validate_params(2, 2, 1, 1, 1, 0)
        with pytest.raises(NotDiscreteParams):
            enumerate_indecomposables(params, 1, 2)

    def test_truncation_of_other_radius_refused(self):
        """The enumeration reads its window off the truncation, so one at
        another radius would answer for that radius: 21 modules at radius 1
        for the 133 of radius 3.  It raises ParamMismatch, as one built for
        other parameters does."""
        params = validate_params(0, 0, 1, 0, 0, 0)
        assert len(enumerate_indecomposables(params, 3, 2)) == 133
        for trunc in (truncate_to_subcoalgebra(params, 1),
                      truncate_to_subcoalgebra(validate_params(0, 0, -1, 0, 0, 0), 3)):
            with pytest.raises(ParamMismatch):
                enumerate_indecomposables(params, 3, 2, truncation=trunc)

    def test_folded_window(self):
        params = validate_params(3, 1, 1, 1, 1, 0)
        found = enumerate_indecomposables(params, 1, 2)
        simples = [f for f in found if f["kind"] == "simple"]
        trunc = truncate_to_subcoalgebra(params, 1)
        assert len(simples) == len(trunc.window)


# -- the former builders and enumeration, kept as oracles --------------------
# They rebuilt every coaction entry as a path from vertex and arrow labels and
# tested it by elimination (`SubCoalgebra.contains`), built every walk met by
# the enumeration loop, and kept the first string of each (node set, path
# support) pair.


def _old_path(trunc, label, arrows=()):
    try:
        elem = path_element(trunc.quiver, Path(label, arrows))
    except InvalidDescription:
        raise WindowTooSmall(f"{label} {arrows} outside the window")
    if not trunc.coalgebra.contains(elem):
        raise WindowTooSmall(f"{label} {arrows} outside the window")
    return elem


def _old_vertex(trunc, g):
    return _old_path(trunc, grid_vertex_label(*g))


def _old_simple(trunc, i, j):
    g = trunc.params.canon(i, j)
    return Comodule(trunc.coalgebra, [[_old_vertex(trunc, g)]], [grid_vertex_label(*g)])


def _old_arrow(trunc, letter, g):
    label = grid_vertex_label(*g)
    return _old_path(trunc, label, (f"{letter}@{label}",))


def _old_string(trunc, spec):
    if spec.length < 1:
        raise InvalidSpec("string needs at least one arrow")
    params, letter, down = trunc.params, spec.first_letter, not spec.up_first
    if letter not in ("x", "y"):
        raise InvalidSpec(f"unknown step letter {letter!r}")
    nodes, arrows = [params.canon(*spec.start)], []
    for _ in range(spec.length):
        cur = nodes[-1]
        di, dj = (1, 0) if letter == "x" else (0, 1)
        if down:
            nxt = params.canon(cur[0] + di, cur[1] + dj)
            arrows.append((len(nodes) - 1, len(nodes), letter, cur))
        else:
            nxt = params.canon(cur[0] - di, cur[1] - dj)
            arrows.append((len(nodes), len(nodes) - 1, letter, nxt))
        nodes.append(nxt)
        down, letter = not down, "y" if letter == "x" else "x"
    if len(set(nodes)) != len(nodes):
        raise InvalidSpec("walk revisits a node; use a band instead")
    zero = CoElement(trunc.quiver, {})
    c = [[zero] * len(nodes) for _ in nodes]
    for idx, g in enumerate(nodes):
        c[idx][idx] = _old_vertex(trunc, g)
    for src, tgt, let, pos in arrows:
        c[src][tgt] = c[src][tgt] + _old_arrow(trunc, let, pos)
    return Comodule(trunc.coalgebra, c, [grid_vertex_label(*g) for g in nodes])


def _old_diamond(trunc, i, j):
    params = trunc.params
    g = params.canon(i, j)
    ga, gb = params.canon(g[0] + 1, g[1]), params.canon(g[0], g[1] + 1)
    gab = params.canon(g[0] + 1, g[1] + 1)
    zero = CoElement(trunc.quiver, {})
    c = [[zero] * 4 for _ in range(4)]
    for idx, v in enumerate((g, ga, gb, gab)):
        c[idx][idx] = _old_vertex(trunc, v)
    c[0][1], c[0][2] = _old_arrow(trunc, "x", g), _old_arrow(trunc, "y", g)
    c[0][3] = trunc.image_of(g[0], g[1], 1, 1)
    c[1][3] = _old_arrow(trunc, "y", ga)
    c[2][3] = _old_arrow(trunc, "x", gb) * -params.lam
    return Comodule(trunc.coalgebra, c, [grid_vertex_label(*v) for v in (g, ga, gb, gab)])


def _old_bands(params, length, mus, trunc):
    peaks = [params.canon(t, -t) for t in range(length)]
    valleys = [params.canon(t + 1, -t) for t in range(length)]
    out = []
    for mu in mus:
        zero = CoElement(trunc.quiver, {})
        c = [[zero] * (2 * length) for _ in range(2 * length)]
        for t in range(length):
            vt, nxt = length + t, (t + 1) % length
            c[t][t] = _old_vertex(trunc, peaks[t])
            c[vt][vt] = _old_vertex(trunc, valleys[t])
            c[t][vt] = _old_arrow(trunc, "x", peaks[t])
            ya = _old_arrow(trunc, "y", peaks[nxt])
            c[nxt][vt] = c[nxt][vt] + (ya * mu if nxt == 0 else ya)
        labels = [f"p{t}" for t in range(length)] + [f"v{t}" for t in range(length)]
        out.append(Comodule(trunc.coalgebra, c, labels))
    return out


def _old_enumerate(params, radius, max_total_dim):
    trunc = truncate_to_subcoalgebra(params, radius)
    window = set(trunc.window)
    window_labels = {grid_vertex_label(*g) for g in window}
    out, seen = [], set()
    if max_total_dim >= 1:
        out += [("simple", (g,), _old_simple(trunc, *g)) for g in sorted(window)]
    if max_total_dim >= 4:
        for g in sorted(window):
            corners = (g, params.canon(g[0] + 1, g[1]), params.canon(g[0], g[1] + 1),
                       params.canon(g[0] + 1, g[1] + 1))
            if all(v in window for v in corners) and len(set(corners)) == 4:
                out.append(("diamond", (g,), _old_diamond(trunc, *g)))
    if max_total_dim >= 2:
        for g in sorted(window):
            for first in ("x", "y"):
                for up_first in (False, True):
                    for length in range(1, max_total_dim):
                        try:
                            mod = _old_string(trunc, StringSpec(g, first, length, up_first))
                        except (WindowTooSmall, InvalidSpec):
                            break
                        if not set(mod.labels) <= window_labels:
                            break
                        nodes = frozenset(mod.labels)
                        key = (nodes, frozenset(p for row in mod.coaction for e in row
                                                for p in e.terms))
                        if key not in seen:
                            seen.add(key)
                            out.append(("string", nodes, mod))
    return out


def _text(mod):
    return mod.labels, [[str(e) for e in row] for row in mod.coaction]


class TestFormerRoutes:
    """The builders fill each coaction from one walk and the certified images,
    and the enumeration keeps each string from the end its loop meets first;
    kinds, supports, labels, coaction text and order are the former
    routes'."""

    @pytest.mark.parametrize("raw, radius, max_dim", HOM_INVENTORIES + [
        ((0, 0, 1, 0, 0, 0), 2, 6),  # the CI `enumerate` cases
        ((2, 0, -1, 0, 0, 0), 2, 4),
        ((0, 0, "z4", 0, 0, 0), 2, 6),
    ])
    def test_enumeration(self, raw, radius, max_dim):
        params = validate_params(*raw)
        got = enumerate_indecomposables(params, radius, max_dim)
        want = _old_enumerate(params, radius, max_dim)
        assert [(f["kind"], f["support"], _text(f["module"])) for f in got] == [
            (kind, support, _text(mod)) for kind, support, mod in want]

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_band_families(self, m):
        params = validate_params(m, m, 1, 0, 0, 0)
        trunc = truncate_to_subcoalgebra(params, m)
        mus = [1, 2, 3, "z4"]
        for length in (m, 2 * m):
            got = build_band_family(params, length, mus, truncation=trunc)
            want = _old_bands(params, length, [cyc(mu) for mu in mus], trunc)
            assert [_text(b) for b in got] == [_text(b) for b in want]

    def test_not_discrete_witness(self):
        # the third CI `enumerate` case prints this witness
        params = validate_params(2, 2, 1, 0, 0, 0)
        bands = _old_bands(params, 2, [cyc(mu) for mu in (1, 2, 3)],
                           truncate_to_subcoalgebra(params, 2))
        assert decide_discrete(params)["witness"]["modules"] == [b.to_json() for b in bands]

    @pytest.mark.parametrize("raw", [(0, 0, 1, 0, 0, 0), (0, 0, "z4", 0, 0, 0),
                                     (3, 1, 1, 0, 0, 0)])
    def test_builders_on_every_spec(self, raw):
        """Every string spec from the window and its boundary, each diamond
        and simple: the same module or the same error type."""
        params = validate_params(*raw)
        trunc = truncate_to_subcoalgebra(params, 1)
        groups = sorted({g for g, _, _ in trunc.iota} | {(3, 3)})

        def outcome(build, *args):
            try:
                return _text(build(trunc, *args))
            except (WindowTooSmall, InvalidSpec) as exc:
                return type(exc)

        cases = [(build_simple, _old_simple, g) for g in groups]
        cases += [(build_diamond, _old_diamond, g) for g in groups]
        for new, old, g in cases:
            assert outcome(new, *g) == outcome(old, *g), g
        kinds = set()
        for g in groups:
            for spec in (StringSpec(g, letter, length, up) for letter in ("x", "y", "z")
                         for length in range(5) for up in (False, True)):
                got = outcome(build_string, spec)
                assert got == outcome(_old_string, spec), spec
                kinds.add(got if isinstance(got, type) else "module")
        assert kinds == {"module", WindowTooSmall, InvalidSpec}

    def test_builders_run_no_membership_test(self, monkeypatch):
        """The builders read certified images and validate nothing: neither
        a membership test nor `Comodule._validate` runs."""
        free = truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 1)
        params = validate_params(2, 2, 1, 0, 0, 0)
        band_trunc = truncate_to_subcoalgebra(params, 2)

        def forbidden(name):
            def method(self, *args):
                raise AssertionError(f"{name} called")
            return method

        monkeypatch.setattr(SubCoalgebra, "contains", forbidden("SubCoalgebra.contains"))
        monkeypatch.setattr(Comodule, "_validate", forbidden("Comodule._validate"))
        build_simple(free, 0, 0)
        build_diamond(free, 0, 0)
        build_string(free, StringSpec((0, 0), "x", 3))
        build_band_family(params, 2, [1, 2], truncation=band_trunc)
        enumerate_indecomposables(validate_params(0, 0, 1, 0, 0, 0), 1, 4, truncation=free)


def revalidated(mod):
    """The module through the validating constructor, the oracle of the proof
    in `comodules._comodule`; raises InvalidDescription where it fails."""
    return Comodule(mod.coalgebra, mod.coaction, mod.labels)


def every_spec_module(trunc):
    """The simples, diamonds and strings that build on every spec of
    `TestFormerRoutes.test_builders_on_every_spec`."""
    groups = sorted({g for g, _, _ in trunc.iota} | {(3, 3)})
    builds = [(build, g) for g in groups for build in (build_simple, build_diamond)]
    builds += [(build_string, (StringSpec(g, letter, length, up),)) for g in groups
               for letter in ("x", "y", "z") for length in range(5) for up in (False, True)]
    for build, args in builds:
        try:
            yield build(trunc, *args)
        except (WindowTooSmall, InvalidSpec):
            pass


def wrong_first_letter(entries):
    """The first arrow entry with the other letter's image."""
    (r, col, (p, q), c), *rest = entries
    return [(r, col, (q, p), c), *rest]


def diamond_sign_flipped(entries):
    """The diamond's -lam entry with its sign flipped; others as they are."""
    return [(r, col, pq, -c if (r, col) == (2, 3) else c) for r, col, pq, c in entries]


class TestBuilderProof:
    """`comodules._comodule` builds without validation, on the proof in its
    docstring; `Comodule._validate` is the oracle.  It accepts every builder
    module and rejects builders that break the proof's premises."""

    @pytest.mark.parametrize("raw, radius, max_dim, size", [
        (*inventory, size) for inventory, size in zip(HOM_INVENTORIES, (179, 88, 136))])
    def test_inventories(self, raw, radius, max_dim, size):
        found = enumerate_indecomposables(validate_params(*raw), radius, max_dim)
        assert len(found) == size
        for item in found:
            revalidated(item["module"])

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_band_families(self, m):
        for band in build_band_family(validate_params(m, m, 1, 0, 0, 0), m, [1, 2, 3]):
            revalidated(band)

    @pytest.mark.parametrize("raw", [(0, 0, 1, 0, 0, 0), (0, 0, "z4", 0, 0, 0),
                                     (3, 1, 1, 0, 0, 0)])
    def test_every_spec(self, raw):
        mods = list(every_spec_module(truncate_to_subcoalgebra(validate_params(*raw), 1)))
        assert {m.dim for m in mods} == {1, 2, 3, 4, 5}
        for mod in mods:
            revalidated(mod)

    @pytest.mark.parametrize("mutate", [wrong_first_letter, diamond_sign_flipped])
    def test_mutant_builders_fail(self, monkeypatch, mutate):
        free = truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 1)
        band_params = validate_params(2, 2, 1, 0, 0, 0)
        built = comodules._comodule
        monkeypatch.setattr(comodules, "_comodule",
                            lambda trunc, nodes, entries, labels=None:
                            built(trunc, nodes, mutate(entries), labels))
        mods = [build_diamond(free, 0, 0), build_diamond(free, -1, 0)]
        if mutate is wrong_first_letter:
            mods += [build_string(free, StringSpec((0, 0), "x", 3)),
                     build_string(free, StringSpec((0, 0), "y", 2, up_first=True))]
            mods += build_band_family(band_params, 2, [1, 3])
        for mod in mods:
            with pytest.raises(InvalidDescription, match="comatrix identity fails"):
                revalidated(mod)


class TestBands:
    def test_requires_m_equals_n(self):
        params = validate_params(2, 0, 1, 1, 1, 0)
        with pytest.raises(RequiresMEqualsN):
            build_band_family(params, 2, [1])

    def test_period_must_be_multiple(self):
        params = validate_params(2, 2, 1, 1, 1, 0)
        with pytest.raises(InvalidSpec):
            build_band_family(params, 3, [1])
        with pytest.raises(InvalidSpec):
            build_band_family(params, 2, [0])

    def test_band_family_orthogonal(self):
        params = validate_params(2, 2, 1, 1, 1, 0)
        mods = build_band_family(params, 2, [1, 2, 3])
        assert all(m.dim == 4 for m in mods)
        assert all(is_indecomposable(m) for m in mods)
        dv = mods[0].dimension_vector()
        for m in mods[1:]:
            assert m.dimension_vector() == dv
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert hom(mods[i], mods[j]).dim == 0

    def test_truncation_of_other_params_refused(self):
        """A band family built on a truncation of other parameters would live
        in the window of their lambda: ParamMismatch.  A truncation of equal
        parameters at a larger radius serves."""
        params = validate_params(2, 2, 1, 0, 0, 0)
        with pytest.raises(ParamMismatch):
            build_band_family(params, 2, [1], truncation=truncate_to_subcoalgebra(
                validate_params(2, 2, -1, 0, 0, 0), 2))
        wide = truncate_to_subcoalgebra(validate_params(2, 2, 1, 0, 0, 0), 3)
        assert [m.to_json() for m in build_band_family(params, 2, [2], truncation=wide)] == [
            m.to_json() for m in build_band_family(params, 2, [2])]

    def test_equal_parameter_isomorphic(self):
        params = validate_params(2, 2, 1, 1, 1, 0)
        m1, m2 = build_band_family(params, 2, [cyc(5), cyc(5)])
        assert are_isomorphic(m1, m2)


class TestDecideDiscrete:
    @pytest.mark.parametrize("mn", [(0, 0), (2, 0), (3, 1), (4, 2), (2, -2)])
    def test_discrete(self, mn):
        params = validate_params(mn[0], mn[1], 1, 1, 1, 0)
        assert decide_discrete(params) == {"discrete": True, "witness": None}

    def test_not_discrete_with_witness(self):
        params = validate_params(2, 2, 1, 0, 0, 0)
        out = decide_discrete(params)
        assert out["discrete"] is False
        w = out["witness"]
        assert w["pairwise_hom_orthogonal"]
        assert w["all_indecomposable"]
        assert w["dimension_vectors_equal"]
        assert len(w["modules"]) == 3


def reference_weights(mod):
    """The former `Comodule.weights`, a dict for every entry."""
    trivial = [[{p.start: c for p, c in e.terms.items() if p.length == 0} for e in row]
               for row in mod.coaction]
    w = [next(iter(row[i]), None) for i, row in enumerate(trivial)]
    adapted = all(t == ({w[i]: 1} if i == j else {})
                  for i, row in enumerate(trivial) for j, t in enumerate(row))
    return w if adapted else None


class TestLazyWindows:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_bands_match_the_eager_truncation(self, n):
        """The bands built on the lazy truncation print as those built on
        the former eager one, and have its weights."""
        from test_hopf import reference_truncation
        params = validate_params(n, n, 1, 0, 0, 0)
        lazy = build_band_family(params, n, [1, 2, 3])
        eager = build_band_family(params, n, [1, 2, 3], truncation=reference_truncation(params, n))
        assert [m.to_json() for m in lazy] == [m.to_json() for m in eager]
        assert [m.weights for m in lazy] == [reference_weights(m) for m in eager]

    @pytest.mark.parametrize("n", [40, 160, 320])
    def test_band_reads_are_linear_in_n(self, monkeypatch, n):
        """A band family at m = n = N builds at most 5 N key images, and
        never the window, the grid quiver's lists or the elimination."""
        calls = count()
        image_of_key = hopf._image_of_key
        monkeypatch.setattr(hopf, "_image_of_key", lambda *a: next(calls) and 0 or image_of_key(*a))
        params = validate_params(n, n, 1, 0, 0, 0)
        trunc = truncate_to_subcoalgebra(params, n)
        mods = build_band_family(params, n, [1, 2], truncation=trunc)
        assert next(calls) <= 5 * n
        assert mods[0].coalgebra is trunc.coalgebra is mods[1].coalgebra
        assert "window" not in vars(trunc) and "iota" not in vars(trunc)
        assert not {"vertices", "vertex_set", "arrows", "arrow_by_id"} & set(vars(trunc.quiver))
        assert not {"basis", "_engine"} & set(vars(trunc.coalgebra))

    def test_repr_builds_nothing(self, monkeypatch):
        """A truncation's repr names its params and radius and reads no image:
        the repr of a SubCoalgebra reads `dim`, which at N = 320 would
        eliminate all 821 760 images."""
        params = validate_params(320, 320, 1, 0, 0, 0)
        trunc = truncate_to_subcoalgebra(params, 320)
        calls = count()
        image_of_key = hopf._image_of_key
        monkeypatch.setattr(hopf, "_image_of_key", lambda *a: next(calls) and 0 or image_of_key(*a))
        assert repr(trunc.coalgebra) == repr(trunc) == f"Truncation({params!r}, radius 320)"
        assert next(calls) == 0
        assert not {"window", "iota", "basis", "_engine"} & set(vars(trunc))
        assert not {"vertices", "vertex_set", "arrows", "arrow_by_id"} & set(vars(trunc.quiver))

    def test_dropped_truncations_leave_no_cycle(self):
        """A truncation is its own coalgebra and nothing it holds points back
        at it: dropped after partial reads (a simple comodule, the m = n = 4
        band witness) or after a full read, it dies on its last reference and
        the cycle collector finds nothing.  A lazy coalgebra that kept a
        reference to its truncation left 390 objects here."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            trunc = truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 2)
            simple, ref = build_simple(trunc, 1, 0), weakref.ref(trunc)
            witness = decide_discrete(validate_params(4, 4, 1, 0, 0, 0))
            assert witness["discrete"] is False and "basis" not in vars(trunc)
            del trunc, simple, witness
            assert ref() is None and gc.collect() == 0
            trunc = truncate_to_subcoalgebra(validate_params(2, 0, -1, 1, 1, 0), 2)
            ref = weakref.ref(trunc)
            assert trunc.contains(trunc.image_of(0, 0, 1, 1)) and trunc.dim == len(trunc.iota)
            del trunc
            assert ref() is None and gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_weights_match_the_former_reading(self, free_trunc):
        """`weights` reads only the nonzero entries and gives the former
        answers on an inventory, on bands and on sums and conjugates."""
        inventory = [e["module"] for e in enumerate_indecomposables(
            validate_params(0, 0, 1, 0, 0, 0), 1, 4, truncation=free_trunc)]
        bands = build_band_family(validate_params(2, 2, 1, 0, 0, 0), 2, [1, 3])
        mods = inventory + bands + [direct_sum(inventory[0], inventory[-1]),
                                    _conjugate(inventory[-1], random.Random(2))]
        assert [m.weights for m in mods] == [reference_weights(m) for m in mods]
        assert mods[-1].weights is None and all(w is not None for w in (m.weights for m in mods[:-1]))


class TestValueKinds:
    """Comodules and their Hom spaces are computed on the values
    `scalar.bare` gives; `cyc` boxes only the public returns."""

    def test_rational_work_makes_no_boxed_arithmetic(self, forbid_boxed_arithmetic):
        trunc = truncate_to_subcoalgebra(validate_params(0, 0, 1, 0, 0, 0), 2)
        params = validate_params(2, 2, 1, 1, 1, 0)
        band_trunc = truncate_to_subcoalgebra(params, 2)
        forbid_boxed_arithmetic()
        s = build_simple(trunc, 0, 0)
        d = build_diamond(trunc, 0, 0)
        m = build_string(trunc, StringSpec((0, 0), "x", 3))
        n = _conjugate(d, random.Random(0))  # a validated rational coaction
        ds = direct_sum(d, s)
        assert (hom(ds, ds).dim, hom(d, m).dim, hom(m, d).dim) == (3, 0, 1)
        assert is_indecomposable(d) and is_indecomposable(m)
        assert not is_indecomposable(ds)
        assert are_isomorphic(d, n) and are_isomorphic(direct_sum(s, n), ds)
        assert not are_isomorphic(d, build_diamond(trunc, -1, 0))
        split = direct_sum(s, build_simple(trunc, 1, 0))
        assert not are_isomorphic(split, build_string(trunc, StringSpec((0, 0), "x", 1)))
        assert socle_series_dims(d) == [1, 2, 1]
        bands = build_band_family(params, 2, [1, 2, "1/3"], truncation=band_trunc)
        assert all(is_indecomposable(b) for b in bands)
        assert hom(bands[0], bands[2]).dim == 0
        assert d.dimension_vector() == {v: ONE for v in ("a0b0", "a1b0", "a0b1", "a1b1")}

    def test_rational_hom_basis_is_boxed(self, free_trunc):
        d = build_diamond(free_trunc, 0, 0)
        s = build_simple(free_trunc, 0, 0)
        ds = direct_sum(d, s)
        for space in (hom(ds, ds), hom(_conjugate(d, random.Random(1)), d)):
            assert space.dim and len(space.basis) == space.dim
            assert all(type(x) is CycScalar for f in space.basis for row in f for x in row)
            bare = [x for f in space.matrices for row in f for x in row]
            assert all(type(x) in (int, Fraction) for x in bare)
            assert space.basis == space.matrices
