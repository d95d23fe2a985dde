import copy
import json
import pickle
import random
import time
from fractions import Fraction
from collections import Counter, deque
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from pathcoalg import quiver as quiver_module
from pathcoalg.errors import (
    Disconnected,
    ForbiddenPair,
    InvalidDescription,
    InvalidPartition,
    ParseError,
)
from pathcoalg.quiver import (
    GraphClass,
    Path,
    OTHER,
    Quiver,
    QuiverMorphism,
    _arm_lengths,
    _underlying_class,
    _star_records,
    _stars_isomorphic,
    check_homogeneous,
    classify_link_component,
    find_nondynkin_cover,
    graph_class,
    grid_quiver,
    group_canonical_pair,
    quotient,
)


def in_arrows(q, v):
    return [a for a in q.arrows if a[2] == v]


class TestGridQuiver:
    def test_free_grid_counts(self):
        q = grid_quiver(0, 0, 1)
        assert len(q.vertices) == 9
        assert len(q.arrows) == 12

    def test_one_zero_has_loops(self):
        q = grid_quiver(1, 0, 1)
        assert sorted(q.vertices) == ["a0b-1", "a0b0", "a0b1"]
        loops = [a for a in q.arrows if a[1] == a[2]]
        assert len(loops) == 3  # a loop x at every vertex

    def test_one_minus_one_figure(self):
        # group is infinite cyclic with b = a^(-1); the radius-1 window shows
        # 2-cycles around the identity
        q = grid_quiver(1, -1, 1)
        assert sorted(q.vertices) == ["a0b-1", "a0b0", "a0b1"]
        arrow_set = {(src, dst) for _, src, dst in q.arrows}
        assert arrow_set == {
            ("a0b0", "a0b-1"),  # x: 1 -> a
            ("a0b-1", "a0b0"),  # ay: a -> 1
            ("a0b0", "a0b1"),  # y: 1 -> b
            ("a0b1", "a0b0"),  # bx: b -> 1
        }

    def test_forbidden_pair(self):
        with pytest.raises(ForbiddenPair):
            grid_quiver(1, 1, 2)
        with pytest.raises(ForbiddenPair):
            grid_quiver(-1, -1, 2)

    def test_canonical_pair(self):
        assert group_canonical_pair(3, 1, -1, 0) == (2, -1)
        assert group_canonical_pair(3, 1, 3, 0) == (0, 1)
        assert group_canonical_pair(0, 2, 5, 7) == (5, 1)
        assert group_canonical_pair(0, 0, -4, 9) == (-4, 9)
        assert group_canonical_pair(-2, -2, 2, 0) == (0, 2)

    def test_interior_regular(self):
        q = grid_quiver(0, 0, 3)
        interior = {f"a{i}b{j}" for i in range(-2, 3) for j in range(-2, 3)}
        for v in interior:
            assert len(q.out_arrows(v)) == 2
            assert len(in_arrows(q, v)) == 2


class TestPath:
    def test_paths_and_validity(self):
        q = grid_quiver(0, 0, 1)
        p = Path("a0b0", ("x@a0b0", "y@a1b0"))
        assert p.is_valid(q)
        assert p.target(q) == "a1b1"
        assert not Path("a0b0", ("y@a1b0",)).is_valid(q)
        assert q.trivial_path("a0b0").length == 0

    def test_paths_up_to(self):
        q = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3")])
        ps = q.paths_up_to(2)
        assert len(ps) == 3 + 2 + 1


GRID = grid_quiver(0, 0, 2)


@st.composite
def grid_paths(draw):
    """A random path of length <= 4 in the radius-2 free grid window."""
    start = v = draw(st.sampled_from(GRID.vertices))
    arrows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        outs = GRID.out_arrows(v)
        if not outs:
            break
        aid, _, v = draw(st.sampled_from(outs))
        arrows.append(aid)
    return Path(start, arrows)


def field_key(p):
    return (p.length, p.start, p.arrows)


class TestPathValue:
    @given(st.lists(grid_paths(), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_sorted_and_min_follow_the_field_key(self, paths):
        assert sorted(paths) == sorted(paths, key=field_key)
        assert field_key(min(paths)) == min(map(field_key, paths))

    @given(grid_paths(), grid_paths())
    @settings(max_examples=100, deadline=None)
    def test_comparisons_agree(self, p, q):
        kp, kq = field_key(p), field_key(q)
        assert (p < q) == (kp < kq) == (q > p)
        assert (p <= q) == (kp <= kq) == (q >= p)
        assert (p <= q) == (p < q or p == q)
        assert (p == q) == (kp == kq) != (p != q)
        assert [p < q, p == q, p > q].count(True) == 1

    @given(grid_paths())
    @settings(max_examples=60, deadline=None)
    def test_equal_paths_hash_equal(self, p):
        twin = Path(p.start, list(p.arrows))
        assert twin is not p and twin == p and hash(twin) == hash(p)
        assert p == field_key(p) and hash(p) == hash(field_key(p))
        assert p.target(GRID) == twin.target(GRID)

    @given(grid_paths())
    @settings(max_examples=30, deadline=None)
    def test_pickle_and_copy_round_trip(self, p):
        clones = [copy.copy(p), copy.deepcopy(p)]
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            clones.append(pickle.loads(pickle.dumps(p, proto)))
        for clone in clones:
            assert type(clone) is Path and clone == p and clone.arrows == p.arrows

    def test_fields_are_read_only(self):
        p = Path("a0b0", ("x@a0b0",))
        for name in ("length", "start", "arrows"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)

    def test_text_is_pinned(self):
        e = Path("a0b0")
        p = Path("a0b0", ("x@a0b0", "y@a1b0"))
        assert (repr(e), str(e)) == ("Path(e_a0b0)", "e_a0b0")
        assert (repr(p), str(p)) == ("Path(a0b0:x@a0b0|y@a1b0)", "(x@a0b0|y@a1b0)")
        assert repr([e, p]) == "[Path(e_a0b0), Path(a0b0:x@a0b0|y@a1b0)]"


class TestHomogeneous:
    def test_grid_interior(self):
        q = grid_quiver(0, 0, 5)
        interior = {f"a{i}b{j}" for i in range(-4, 5) for j in range(-4, 5)}
        report = check_homogeneous(q, vertices=interior)
        assert report["is_homogeneous"]
        assert report["out_degree"] == 2
        assert report["loops"] == 0

    def test_same_keys_in_every_case(self):
        q = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3")])
        keys = set(check_homogeneous(q))
        assert "per_vertex" in keys
        assert set(check_homogeneous(Quiver([], []))) == keys
        assert set(check_homogeneous(q, vertices=[])) == keys
        assert check_homogeneous(q, vertices=[])["per_vertex"] == {}

    def test_path_not_homogeneous(self):
        q = Quiver(["1", "2", "3"], [("u", "1", "2"), ("v", "2", "3")])
        assert not check_homogeneous(q)["is_homogeneous"]

    def test_oriented_cycle(self):
        q = Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "1")],
        )
        report = check_homogeneous(q)
        assert report["is_homogeneous"]
        assert report["out_degree"] == 1
        assert all(w is not None for w in report["star_iso_witnesses"].values())

    def test_circulant_with_parallel_arrow(self):
        # v_i -> v_{i+1}, ..., v_{i+6} mod 20 and a second v19 -> v00: the
        # stars of v00 and v19 differ from the others in one profile, which
        # the former backtracking refuted by trying every pairing
        names = [f"v{i:02d}" for i in range(20)]
        arrows = [(f"a{i}_{d}", names[i], names[(i + d) % 20])
                  for i in range(20) for d in range(1, 7)]
        q = Quiver(names, arrows + [("extra", "v19", "v00")])
        start = time.perf_counter()
        report = check_homogeneous(q)
        assert time.perf_counter() - start < 2
        assert not report["is_homogeneous"]
        witnesses = report["star_iso_witnesses"]
        assert witnesses["v00"] == {v: v for v in star(q, "v00").vertices}
        assert all(witnesses[v] is None for v in names[1:])


# -- the former star-quiver route of check_homogeneous, kept as a reference --


def star(quiver, v):
    """The former `quiver.star`: the subquiver on v, its neighbors and all
    arrows incident to v."""
    incident = [a for a in quiver.arrows if a[1] == v or a[2] == v]
    verts = [v] + sorted({w for _, s, t in incident for w in (s, t) if w != v})
    return Quiver(verts, incident)


def reference_star_signature(quiver, v):
    out = {t for _, s, t in quiver.arrows if s == v and t != v}
    inn = {s for _, s, t in quiver.arrows if t == v and s != v}
    loops = sum(1 for _, s, t in quiver.arrows if s == v and t == v)
    return len(out), len(inn), loops


def reference_stars_isomorphic(s1, c1, s2, c2):
    """The former `_stars_isomorphic` on two star quivers."""

    def shape(q, center):
        out = {w: [0, 0] for w in q.vertices if w != center}
        for _, s, t in q.arrows:
            if s != t:
                out[t if s == center else s][s != center] += 1
        return sum(s == t for _, s, t in q.arrows), {w: tuple(p) for w, p in out.items()}

    (loops1, p1), (loops2, p2) = shape(s1, c1), shape(s2, c2)
    if loops1 != loops2 or Counter(p1.values()) != Counter(p2.values()):
        return None
    by_profile = {}
    for w, p in p2.items():
        by_profile.setdefault(p, []).append(w)
    mapping = {c1: c2}
    for w, p in p1.items():
        mapping[w] = by_profile[p].pop(0)
    return mapping


def reference_check_homogeneous(quiver, vertices=None):
    """The former `check_homogeneous`: a signature pass and a `star` quiver
    per vertex."""
    checked = list(quiver.vertices) if vertices is None else [
        v for v in quiver.vertices if v in set(vertices)
    ]
    if not checked:
        return {"out_degree": 0, "in_degree": 0, "loops": 0, "is_homogeneous": True,
                "star_iso_witnesses": {}, "per_vertex": {}}
    sigs = {v: reference_star_signature(quiver, v) for v in checked}
    uniform = len(set(sigs.values())) == 1
    base = checked[0]
    base_star = star(quiver, base)
    witnesses = {v: reference_stars_isomorphic(base_star, base, star(quiver, v), v)
                 if uniform else None for v in checked}
    homogeneous = uniform and all(w is not None for w in witnesses.values())
    out_d, in_d, loops = sigs[base]
    return {
        "out_degree": out_d if homogeneous else None,
        "in_degree": in_d if homogeneous else None,
        "loops": loops if homogeneous else None,
        "is_homogeneous": homogeneous,
        "star_iso_witnesses": witnesses,
        "per_vertex": {v: {"out": s[0], "in": s[1], "loops": s[2]} for v, s in sigs.items()},
    }


def random_homogeneity_case(rng):
    """A quiver on at most 6 vertices with at most 10 arrows, loops and
    parallel arrows allowed, or a circulant with an optional extra arrow;
    with a vertex subset, possibly empty, a third of the time."""
    names = [f"v{i}" for i in range(rng.randint(0, 6))]
    rng.shuffle(names)
    if names and rng.random() < 0.2:
        steps = rng.sample(range(1, len(names) + 1), rng.randint(1, min(3, len(names))))
        arrows = [(f"c{i}_{d}", names[i], names[(i + d) % len(names)])
                  for i in range(len(names)) for d in steps]
        if rng.random() < 0.5:
            arrows.append(("extra", rng.choice(names), rng.choice(names)))
    else:
        arrows = [(f"a{i}", rng.choice(names), rng.choice(names))
                  for i in range(rng.randint(0, 10) if names else 0)]
    subset = rng.sample(names, rng.randint(0, len(names))) if rng.random() < 0.3 else None
    return Quiver(names, arrows), subset


def circulant(n, steps, extra=()):
    """v_i -> v_{i+d} mod n for each step d (0 gives loops), plus extra arrows."""
    names = [f"w{i}" for i in range(n)]
    arrows = [(f"c{i}_{k}", names[i], names[(i + d) % n])
              for i in range(n) for k, d in enumerate(steps)]
    return Quiver(names, arrows + [(f"x{k}", names[u], names[w]) for k, (u, w) in enumerate(extra)])


class TestHomogeneityIdentity:
    """One pass over the arrows gives the dicts the star-quiver route gave."""

    def test_random_quivers(self):
        rng = random.Random(30)
        cases = [(Quiver([], []), None), (Quiver([], []), [])]
        cases += [(circulant(n, steps, extra), None) for n in range(1, 9)
                  for steps in ((1,), (1, 2), (0, 3), (1, n - 1)) for extra in ((), ((0, n - 1),))]
        cases += [random_homogeneity_case(rng) for _ in range(2500)]
        homogeneous = 0
        for q, subset in cases:
            got = check_homogeneous(q, subset)
            # the witness maps and per-vertex entries keep their order too
            assert json.dumps(got) == json.dumps(reference_check_homogeneous(q, subset)), (
                q.to_json(), subset)
            homogeneous += got["is_homogeneous"] and bool(got["star_iso_witnesses"])
        assert homogeneous > 100


def backtracking_stars_isomorphic(s1, c1, s2, c2):
    """The former `_stars_isomorphic`: pairs the neighbors of s1, in order,
    with unused neighbors of s2 of equal profile, backtracking on failure."""

    def profile(q, center, w):
        to_w = sum(1 for _, s, t in q.arrows if s == center and t == w)
        from_w = sum(1 for _, s, t in q.arrows if s == w and t == center)
        return (to_w, from_w)

    n1 = [w for w in s1.vertices if w != c1]
    n2 = [w for w in s2.vertices if w != c2]
    if len(n1) != len(n2):
        return None
    if sum(1 for _, s, t in s1.arrows if s == t) != sum(1 for _, s, t in s2.arrows if s == t):
        return None
    by_profile = {}
    for w in n2:
        by_profile.setdefault(profile(s2, c2, w), []).append(w)
    mapping = {c1: c2}
    used = set()

    def assign(idx):
        if idx == len(n1):
            return True
        w = n1[idx]
        for cand in by_profile.get(profile(s1, c1, w), []):
            if cand not in used:
                used.add(cand)
                mapping[w] = cand
                if assign(idx + 1):
                    return True
                used.discard(cand)
                del mapping[w]
        return False

    return dict(mapping) if assign(0) else None


NEIGHBOR_PROFILE = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


@st.composite
def star_pairs(draw):
    """Two stars of at most 6 neighbors, each neighbor named at random and
    given a profile (arrows to it, arrows from it); the second permutes the
    first's profiles and may change one profile or the loop count."""
    first = draw(st.lists(NEIGHBOR_PROFILE, max_size=6))
    second = draw(st.permutations(first))
    if second and draw(st.booleans()):
        second[draw(st.integers(0, len(second) - 1))] = draw(NEIGHBOR_PROFILE)
    loops = draw(st.integers(0, 2))
    stars = []
    other_loops = draw(st.sampled_from([loops, 1]))
    for center, profiles, nloops in (("c", first, loops), ("d", second, other_loops)):
        names = draw(st.permutations("pqrstu"))[: len(profiles)]
        arrows = [(f"{center}l{i}", center, center) for i in range(nloops)]
        for w, (to_w, from_w) in zip(names, profiles):
            arrows += [(f"{center}{w}t{i}", center, w) for i in range(to_w)]
            arrows += [(f"{center}{w}f{i}", w, center) for i in range(from_w)]
        stars.append((star(Quiver([center, *names], arrows), center), center))
    return stars


@settings(max_examples=300, deadline=None)
@given(star_pairs())
def test_stars_isomorphic_matches_backtracking(pair):
    (s1, c1), (s2, c2) = pair
    got = _stars_isomorphic(_star_records(s1)[c1], c1, _star_records(s2)[c2], c2)
    assert got == backtracking_stars_isomorphic(s1, c1, s2, c2)


def path_quiver(n):
    return Quiver(
        [str(i) for i in range(n)],
        [(f"e{i}", str(i), str(i + 1)) for i in range(n - 1)],
    )


def cycle_quiver(n, flip=()):
    arrows = []
    for i in range(n):
        s, t = str(i), str((i + 1) % n)
        if i in flip:
            s, t = t, s
        arrows.append((f"e{i}", s, t))
    return Quiver([str(i) for i in range(n)], arrows)


class TestGraphClass:
    def test_paths(self):
        assert str(graph_class(path_quiver(4))) == "A4"
        assert str(graph_class(path_quiver(1))) == "A1"

    def test_cycles_any_orientation(self):
        assert str(graph_class(cycle_quiver(6))) == "A~5"
        assert str(graph_class(cycle_quiver(6, flip=(1, 4)))) == "A~5"

    def test_kronecker(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        assert str(graph_class(q)) == "A~1"

    def test_d_and_e_types(self):
        def tree(edges):
            vs = sorted({v for e in edges for v in e})
            return Quiver(vs, [(f"e{i}", s, t) for i, (s, t) in enumerate(edges)])

        d5 = tree([("c", "l1"), ("c", "l2"), ("c", "p1"), ("p1", "p2")])
        assert str(graph_class(d5)) == "D5"
        e6 = tree(
            [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1")]
        )
        assert str(graph_class(e6)) == "E6"
        e6t = tree(
            [("c", "a1"), ("a1", "a2"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2")]
        )
        assert str(graph_class(e6t)) == "E~6"
        d4t = tree([("c", "1"), ("c", "2"), ("c", "3"), ("c", "4")])
        assert str(graph_class(d4t)) == "D~4"
        d6t = tree(
            [("b1", "l1"), ("b1", "l2"), ("b1", "m"), ("m", "b2"), ("b2", "l3"), ("b2", "l4")]
        )
        assert str(graph_class(d6t)) == "D~6"

    def test_loop_is_other(self):
        q = Quiver(["1"], [("l", "1", "1")])
        assert str(graph_class(q)) == "Other"

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            graph_class(Quiver(["1", "2"], []))


# Oracle: the Tits/Cartan form of a simply-laced diagram is positive definite
# exactly for Dynkin graphs and positive semidefinite (degenerate) exactly for
# the extended ones.  Computed exactly over the rationals via principal minors.


def cartan_matrix(quiver):
    vs = quiver.vertices
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    c = [[Fraction(2 if i == j else 0) for j in range(n)] for i in range(n)]
    for _, s, t in quiver.arrows:
        c[idx[s]][idx[t]] -= 1
        c[idx[t]][idx[s]] -= 1
    return c


def det(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            result = -result
        result *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return result


def definiteness(c):
    n = len(c)
    if all(det([row[: k + 1] for row in c[: k + 1]]) > 0 for k in range(n)):
        return "posdef"
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            minor = det([[c[i][j] for j in sub] for i in sub])
            if minor < 0:
                return "indefinite"
    return "psd"


@st.composite
def connected_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((u, v))
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(st.integers(min_value=0, max_value=n - 1))
        if u != w:
            edges.append((u, w))
    arrows = []
    for i, (u, w) in enumerate(edges):
        if draw(st.booleans()):
            u, w = w, u
        arrows.append((f"e{i}", str(u), str(w)))
    return Quiver([str(v) for v in range(n)], arrows)


class TestGraphClassOracle:
    @given(connected_quivers())
    @settings(max_examples=120, deadline=None)
    def test_matches_tits_form(self, q):
        cls = graph_class(q)
        verdict = definiteness(cartan_matrix(q))
        if cls.kind == "Dynkin":
            assert verdict == "posdef"
        elif cls.kind == "Euclidean":
            assert verdict == "psd"
        else:
            assert verdict == "indefinite"


class TestQuotient:
    def test_trivial_partition(self):
        q = grid_quiver(0, 0, 1)
        q2, phi = quotient(q, [[v] for v in q.vertices])
        assert q2 == q
        assert phi.is_valid()
        assert all(phi.vertex_map[v] == v for v in q.vertices)

    def test_cycle_to_point(self):
        q = cycle_quiver(4)
        q2, phi = quotient(q, [list(q.vertices)])
        assert len(q2.vertices) == 1
        assert len(q2.arrows) == 4
        assert all(a[1] == a[2] for a in q2.arrows)

    def test_arrow_count_preserved(self):
        q = grid_quiver(2, 0, 2)
        q2, _ = quotient(q, [[v] for v in q.vertices][:1] + [q.vertices[1:]])
        assert len(q2.arrows) == len(q.arrows)

    def test_bad_partition(self):
        q = path_quiver(3)
        with pytest.raises(InvalidPartition):
            quotient(q, [["0", "1"]])
        with pytest.raises(InvalidPartition):
            quotient(q, [["0", "1"], ["1", "2"]])


def square_with_loops():
    """Square 1 -> 2, 2 -> 4, 1 -> 3, 3 -> 4 with a loop at 2 and at 3."""
    return Quiver(
        ["1", "2", "3", "4"],
        [
            ("s12", "1", "2"),
            ("s24", "2", "4"),
            ("s13", "1", "3"),
            ("s34", "3", "4"),
            ("l2", "2", "2"),
            ("l3", "3", "3"),
        ],
    )


class TestNonDynkinCover:
    def test_square_with_loops_has_six_cycle_cover(self):
        found = find_nondynkin_cover(square_with_loops(), 6)
        assert found is not None
        cover, phi = found
        assert phi.is_valid()
        assert len(cover.vertices) <= 6
        assert not graph_class(cover).is_dynkin
        # bipartite: every vertex is a pure source or a pure sink
        for v in cover.vertices:
            assert not (cover.out_arrows(v) and in_arrows(cover, v))
        # arrow map injective (vertex-gluing morphisms keep arrows distinct)
        imgs = list(phi.arrow_map.values())
        assert len(imgs) == len(set(imgs))

    def test_single_arrow_has_none(self):
        q = Quiver(["1", "2"], [("a", "1", "2")])
        assert find_nondynkin_cover(q, 8) is None

    def test_kronecker_covers_itself(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        found = find_nondynkin_cover(q, 2)
        assert found is not None
        cover, phi = found
        assert len(cover.vertices) == 2
        assert str(graph_class(cover)) == "A~1"

    @pytest.mark.parametrize("bound", [-1, 0, 1])
    def test_bound_below_two_has_none(self, bound):
        # every cover has an arrow and so two vertices; a bound below 2 used
        # to be ignored and the Kronecker quiver returned its 2-vertex cover
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        assert find_nondynkin_cover(q, bound) is None
        loops = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1"), ("z", "1", "1")])
        assert find_nondynkin_cover(loops, bound) is None

    def test_a3_tree_has_none(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])
        assert find_nondynkin_cover(q, 6) is None



# -- the one arm-rule classifier of graph_class and the cover search ---------


def reference_underlying_class(vertices, edges):
    """The former table-based `graph_class` on a connected loopless
    multigraph: parallel edges counted pair by pair, trees read off a
    hand-written table of arm patterns."""
    nv, ne = len(vertices), len(edges)
    if len({frozenset(e) for e in edges}) < ne:  # a pair of vertices joined twice
        return GraphClass("Euclidean", "A", 1) if nv == 2 and ne == 2 else OTHER
    adj = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    degrees = {v: len(adj[v]) for v in vertices}
    if ne == nv:
        if all(d == 2 for d in degrees.values()):
            return GraphClass("Euclidean", "A", nv - 1)
        return OTHER
    if ne != nv - 1:
        return OTHER
    branch = [v for v in vertices if degrees[v] >= 3]
    if not branch:
        return GraphClass("Dynkin", "A", nv)
    if len(branch) == 1:
        c = branch[0]
        arms = _arm_lengths(adj, c)
        if degrees[c] == 4:
            return GraphClass("Euclidean", "D", 4) if arms == [1, 1, 1, 1] else OTHER
        if degrees[c] > 4:
            return OTHER
        if arms[0] == 1 and arms[1] == 1:
            return GraphClass("Dynkin", "D", nv)
        table = {(2, 2, 2): ("Euclidean", "E", 6), (1, 2, 2): ("Dynkin", "E", 6),
                 (1, 2, 3): ("Dynkin", "E", 7), (1, 3, 3): ("Euclidean", "E", 7),
                 (1, 2, 4): ("Dynkin", "E", 8), (1, 2, 5): ("Euclidean", "E", 8)}
        return GraphClass(*table[tuple(arms)]) if tuple(arms) in table else OTHER
    if len(branch) == 2:
        b1, b2 = branch
        if degrees[b1] == degrees[b2] == 3:
            leaves1 = sum(1 for w in adj[b1] if degrees[w] == 1)
            leaves2 = sum(1 for w in adj[b2] if degrees[w] == 1)
            if leaves1 == 2 and leaves2 == 2:
                return GraphClass("Euclidean", "D", nv - 1)
    return OTHER


def reference_graph_class(quiver):
    """The former `graph_class`: its checks, then the table."""
    if not quiver.is_connected() or not quiver.vertices:
        raise Disconnected("reference")
    if any(s == t for _, s, t in quiver.arrows):
        return OTHER
    return reference_underlying_class(quiver.vertices, [(s, t) for _, s, t in quiver.arrows])


def prufer_tree(seq):
    """Edges of the labelled tree on 0..len(seq)+1 with Prufer sequence seq."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges, leaf = [], degree.index(1)
    ptr = leaf
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if v < ptr and degree[v] == 1:
            leaf = v
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    return edges + [(leaf, n - 1)]


def oriented(edges, flips):
    """Cover arrows (id, source, sink) of the edges, edge i reversed when
    flips[i]."""
    return [(f"e{i}", w, u) if flip else (f"e{i}", u, w)
            for i, ((u, w), flip) in enumerate(zip(edges, flips))]


def assert_class_matches(q):
    got, expected = graph_class(q), reference_graph_class(q)
    assert (got.kind, got.family, got.index) == (expected.kind, expected.family,
                                                 expected.index), q.arrows


@st.composite
def trees(draw, min_vertices=1, max_vertices=12):
    """(n, arrows): a random labelled tree with a random orientation."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    return n, oriented(edges, draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))


def star_target(arms):
    """A tree with one branch vertex c and arms of the given edge counts,
    oriented bipartitely: every arrow leaves its end at even distance from c."""
    vertices, arrows = ["c"], []
    for a, length in enumerate(arms):
        prev = "c"
        for k in range(1, length + 1):
            v = f"{a}.{k}"
            vertices.append(v)
            src, dst = (prev, v) if k % 2 else (v, prev)
            arrows.append((f"e{a}.{k}", src, dst))
            prev = v
    return Quiver(vertices, arrows)


# arm lengths (edge counts) of the stars on either side of the Dynkin boundary
STAR_ARMS = {"D5": (1, 1, 2), "E6": (1, 2, 2), "E7": (1, 2, 3), "E8": (1, 2, 4),
             "D~4": (1, 1, 1, 1), "E~6": (2, 2, 2), "E~7": (1, 3, 3), "E~8": (1, 2, 5)}


class TestDynkinRule:
    """The arm rule gives exactly the classes of the former table."""

    def test_prufer_trees_are_every_labelled_tree(self):
        for n in range(2, 7):
            seen = {frozenset(map(frozenset, prufer_tree(seq)))
                    for seq in product(range(n), repeat=n - 2)}
            assert len(seen) == n ** (n - 2)
            assert all(len(t) == n - 1 for t in seen)

    def test_every_small_labelled_tree(self):
        # every labelled tree on up to 8 vertices, with one extra edge that
        # closes a cycle and with one edge doubled
        rng = random.Random(30)
        assert _underlying_class([0], []) == reference_underlying_class([0], [])
        seen = Counter()
        for n in range(2, 9):
            vertices = range(n)
            for seq in product(vertices, repeat=n - 2):
                edges = prufer_tree(seq)
                u = int(rng.random() * n)
                w = (u + 1 + int(rng.random() * (n - 1))) % n
                for graph in (edges, edges + [(u, w)], edges + [edges[u % (n - 1)]]):
                    got = _underlying_class(vertices, graph)
                    expected = reference_underlying_class(vertices, graph)
                    assert (got.kind, got.family, got.index) == (
                        expected.kind, expected.family, expected.index), graph
                    seen[str(got)] += 1
        # every family on both sides of the boundary occurs
        for name in ("A8", "D8", "E6", "E7", "E8", "A~1", "A~7", "D~4", "D~7",
                     "E~6", "E~7", "Other"):
            assert seen[name], name

    @given(trees())
    @settings(max_examples=300, deadline=None)
    def test_random_trees(self, tree):
        n, arrows = tree
        assert_class_matches(Quiver(range(n), arrows))

    @given(trees(min_vertices=2, max_vertices=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_parallel_edge_or_cycle(self, tree, data):
        n, arrows = tree
        # one more arrow, parallel to an existing one or closing a cycle
        if data.draw(st.booleans()):
            _, u, w = data.draw(st.sampled_from(arrows))
        else:
            u, w = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
        assert_class_matches(Quiver(range(n), arrows + [("extra", u, w)]))

    @pytest.mark.parametrize("name", list(STAR_ARMS))
    def test_star_targets(self, name):
        target = star_target(STAR_ARMS[name])
        assert_class_matches(target)
        assert str(graph_class(target)) == name
        reversed_target = Quiver(target.vertices, [(a, t, s) for a, s, t in target.arrows])
        assert str(graph_class(reversed_target)) == name

    @pytest.mark.parametrize("name", ["D5", "E6", "E7", "E8"])
    def test_dynkin_stars_have_no_cover(self, name):
        target = star_target(STAR_ARMS[name])
        assert find_nondynkin_cover(target, len(target.vertices) + 2) is None

    @pytest.mark.parametrize("name", ["D~4", "E~6", "E~7", "E~8"])
    def test_euclidean_stars_cover_themselves(self, name):
        target = star_target(STAR_ARMS[name])
        nv = len(target.vertices)
        assert find_nondynkin_cover(target, nv - 1) is None
        for bound in (nv, nv + 2):
            cover, phi = find_nondynkin_cover(target, bound)
            assert phi.is_valid()
            assert str(graph_class(cover)) == name


def random_target(rng, max_vertices=4, max_arrows=6):
    """A quiver on at most max_vertices vertices with at most max_arrows
    arrows, loops allowed."""
    vertices = [str(v) for v in range(rng.randint(1, max_vertices))]
    arrows = [(f"a{i}", rng.choice(vertices), rng.choice(vertices))
              for i in range(rng.randint(1, max_arrows))]
    return Quiver(vertices, arrows)


def cover_json(found):
    if found is None:
        return None
    cover, phi = found
    return cover.to_json(), phi.to_json()


class TestCoverAnswerIdentity:
    """The incremental Dynkin test and the arm rule return the covers of the
    former search classifying every state by the former table."""

    def test_covers_and_morphisms_unchanged(self):
        rng = random.Random(28)
        cases = [(square_with_loops(), bound) for bound in (4, 5, 6)]
        cases += [(random_target(rng), rng.randint(4, 6)) for _ in range(1500)]
        got = [cover_json(find_nondynkin_cover(q, bound)) for q, bound in cases]
        expected = [cover_json(former_find_nondynkin_cover(q, bound, reference_underlying_class))
                    for q, bound in cases]
        assert got == expected
        assert any(g is not None for g in got) and any(g is None for g in got)


def former_find_nondynkin_cover(qtarget, size_bound, classify=_underlying_class):
    """The former cover search: a state keyed by its renumbered arrows and
    its images, tested by `classify` when it leaves the queue."""
    if size_bound < 2:
        return None
    target_arrows = sorted(qtarget.arrows)
    queue, seen = deque(), set()

    def push(cover_arrows, images):
        order = {}
        for _, u, w in cover_arrows:
            order.setdefault(u, len(order))
            order.setdefault(w, len(order))
        key = (tuple((aid, order[u], order[w]) for aid, u, w in cover_arrows),
               tuple(images[v] for v in order))
        if key not in seen:
            seen.add(key)
            queue.append((cover_arrows, images))

    for aid, src, dst in target_arrows:
        push(((aid, 0, 1),), (src, dst))
    while queue:
        cover_arrows, images = queue.popleft()
        vertices = range(len(images))
        if len(cover_arrows) >= len(images) or not classify(
                vertices, [(u, w) for _, u, w in cover_arrows]).is_dynkin:
            cover = Quiver([f"v{i}" for i in vertices],
                           [(f"{aid}#{i}", f"v{u}", f"v{w}")
                            for i, (aid, u, w) in enumerate(cover_arrows)])
            return cover, QuiverMorphism(
                cover, qtarget, {f"v{i}": img for i, img in enumerate(images)},
                {f"{aid}#{i}": aid for i, (aid, _, _) in enumerate(cover_arrows)})
        used = {aid for aid, _, _ in cover_arrows}
        sources = {u for _, u, _ in cover_arrows}
        new = len(images)
        for aid, src, dst in target_arrows:
            if aid in used:
                continue
            src_hosts = [v for v in vertices if images[v] == src and v in sources]
            dst_hosts = [v for v in vertices if images[v] == dst and v not in sources]
            candidates = []
            for u in src_hosts:
                candidates += [(u, w, images) for w in dst_hosts]
                if new < size_bound:
                    candidates.append((u, new, images + (dst,)))
            if new < size_bound:
                candidates += [(new, w, images + (src,)) for w in dst_hosts]
            for u, w, grown in candidates:
                push(tuple(sorted(cover_arrows + ((aid, u, w),))), grown)
    return None


def relabelled_square_with_loops(rng):
    """`square_with_loops` under random vertex and arrow names, as the
    benchmark's cover queries draw it (the names reorder the search)."""
    names = {old: f"q{x}" for old, x in zip("1234", rng.sample(range(100), 4))}
    ids = rng.sample(range(100), 6)
    return Quiver([names[v] for v in "1234"],
                  [(f"e{i}", names[s], names[t])
                   for i, (_, s, t) in zip(ids, square_with_loops().arrows)])


class TestCoverSearchOrder:
    """The search that tests a state when it is queued, keyed by its arrows
    alone, returns the cover of the former search, which tested a state when
    it left the queue and keyed it by its images too."""

    def test_answer_identity_targets(self):
        rng = random.Random(28)
        cases = [(square_with_loops(), bound) for bound in (4, 5, 6)]
        cases += [(random_target(rng), rng.randint(4, 6)) for _ in range(1500)]
        for q, bound in cases:
            assert cover_json(find_nondynkin_cover(q, bound)) == cover_json(
                former_find_nondynkin_cover(q, bound)), (q.arrows, bound)

    @pytest.mark.parametrize("seed, max_vertices, max_arrows, max_bound, count", [
        (40, 4, 6, 7, 1200), (44, 7, 10, 8, 3000)], ids=["4v-6a-bound7", "7v-10a-bound8"])
    def test_random_targets(self, seed, max_vertices, max_arrows, max_bound, count):
        rng = random.Random(seed)
        found = 0
        for _ in range(count):
            q = random_target(rng, max_vertices, max_arrows)
            bound = rng.randint(2, max_bound)
            got = cover_json(find_nondynkin_cover(q, bound))
            assert got == cover_json(former_find_nondynkin_cover(q, bound)), (q.arrows, bound)
            found += got is not None
        assert 0 < found < count

    def test_relabelled_squares_with_loops(self):
        rng = random.Random(13)
        for _ in range(200):
            q = relabelled_square_with_loops(rng)
            for bound in (5, 6, 7):
                got = cover_json(find_nondynkin_cover(q, bound))
                assert got == cover_json(former_find_nondynkin_cover(q, bound))
            assert got is not None



class TestIncrementalDynkinTest:
    """The cover search classifies only the trees with one vertex of degree
    3; it decides paths, cycles, parallel edges and the other trees itself."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []

        def counted(vertices, edges):
            degrees = Counter(v for e in edges for v in e)
            assert len(edges) == len(vertices) - 1 and max(degrees.values()) == 3 \
                and Counter(degrees.values())[3] == 1, edges
            calls.append(len(vertices))
            return _underlying_class(vertices, edges)

        monkeypatch.setattr(quiver_module, "_underlying_class", counted)
        return calls

    def test_paths_and_the_hexagon_are_not_classified(self, monkeypatch):
        # the separated quiver of the square with loops is a hexagon, so
        # every state is a path until the one that closes it
        calls = self.count_calls(monkeypatch)
        assert find_nondynkin_cover(square_with_loops(), 6) is not None
        rng = random.Random(13)
        for _ in range(200):
            q = relabelled_square_with_loops(rng)
            for bound in (5, 6, 7):
                find_nondynkin_cover(q, bound)
        assert calls == []

    def test_only_one_branch_trees_are_classified(self, monkeypatch):
        # random trees, each arrow leaving its end at even depth: the
        # separated quiver holds the tree, so the search meets trees with a
        # vertex of degree 4 and trees with two of degree 3
        calls = self.count_calls(monkeypatch)
        rng = random.Random(48)
        covers = [find_nondynkin_cover(star_target(STAR_ARMS["E~6"]), 7)]
        assert calls and max(calls) == 7  # the star itself went to the arm rule
        for _ in range(300):
            n, depth, arrows = rng.randint(5, 9), [0], []
            for v in range(1, n):
                p = rng.randrange(v)
                depth.append(depth[p] + 1)
                arrows.append((f"e{v}", p, v) if depth[p] % 2 == 0 else (f"e{v}", v, p))
            covers.append(find_nondynkin_cover(Quiver(range(n), arrows), n))
        monkeypatch.undo()
        found = Counter(str(graph_class(cover)) for cover, _ in filter(None, covers))
        assert found["D~4"] and found["D~5"] and found["E~6"], found

class TestLinkComponent:
    def test_cases(self):
        assert classify_link_component(0, 0, 0) == 1
        assert classify_link_component(0, 0, 1, cyclic_order=5) == 2
        assert classify_link_component(0, 0, 1, cyclic_order=None) == 3
        assert classify_link_component(2, 0, 2) == 4

    def test_invalid(self):
        with pytest.raises(InvalidDescription):
            classify_link_component(0, 0, 3)
        with pytest.raises(InvalidDescription):
            classify_link_component(1, 1, 2)
        with pytest.raises(InvalidDescription):
            classify_link_component(0, 0, 1, cyclic_order=-2)


class TestSerialization:
    def test_mixed_label_types_are_refused(self):
        """Vertex labels of two types, or arrow ids of two, are refused at
        construction: `check_homogeneous` and `find_nondynkin_cover` sort
        them, and raised TypeError on this quiver.  One type each, ints
        included, stays valid."""
        with pytest.raises(InvalidDescription, match="one type"):
            Quiver(["a", 1, "b"], [("p", "a", 1), (2, 1, "a"), ("r", "a", "b")])
        with pytest.raises(InvalidDescription, match="one type"):
            Quiver(["a", "b"], [("p", "a", "b"), (2, "b", "a")])
        assert check_homogeneous(Quiver(range(3), [("p", 0, 1), ("q", 1, 2), ("r", 2, 0)]))[
            "is_homogeneous"]
        assert find_nondynkin_cover(Quiver(range(2), [("p", 0, 1), ("q", 0, 1)]), 2)
        assert Quiver(["a", "b"], [(0, "a", "b"), (1, "b", "a")]).arrow(1) == (1, "b", "a")

    def test_text_format(self):
        q = Quiver.from_text("# two vertices\nv 1\nv 2\n\na al 1 2\n  a be 2 2\n")
        assert q.vertices == ["1", "2"]
        assert q.arrows == [("al", "1", "2"), ("be", "2", "2")]

    def test_json_round_trip(self):
        q = square_with_loops()
        q2 = Quiver.from_json(q.to_json())
        assert q2 == q

    def test_parse_error(self):
        with pytest.raises(ParseError):
            Quiver.from_text("vertex 1\n")
        for data in ({"vertices": ["1"]}, ["1"]):
            with pytest.raises(ParseError):
                Quiver.from_json(data)

    @pytest.mark.parametrize("data", [
        {"vertices": ["a", "b"], "arrows": [[1, "a", "b"], ["x", "b", "a"]]},
        {"vertices": [1, "b"], "arrows": [["p", 1, "b"], ["q", "b", 1]]},
        {"vertices": "ab", "arrows": [["p", "a", "b"]]},
        {"vertices": ["a", "b"], "arrows": ["pab"]},
    ], ids=["int-arrow-id", "int-vertex", "vertex-string", "arrow-string"])
    def test_json_field_types(self, data):
        # an integer label once died in sorting with a TypeError, and a string
        # was read as the list of its characters
        with pytest.raises(ParseError):
            Quiver.from_json(data)

    def test_duplicate_arrow_id(self):
        with pytest.raises(InvalidDescription):
            Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])
