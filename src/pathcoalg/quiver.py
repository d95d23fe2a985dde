"""Quiver combinatorics.

Quivers are finite directed multigraphs with labeled vertices and identified
arrows.  This module provides the folded grid quivers attached to the abelian
groups <a, b | ab=ba, a^m=b^n>, homogeneity checks, quotient
(vertex-gluing) morphisms, and one Dynkin/Euclidean classifier, by the arm
rule, for `graph_class` and a bounded exhaustive search for bipartite
non-Dynkin covers.
"""

from __future__ import annotations

import functools
from collections import Counter, deque
from itertools import product
from operator import attrgetter, itemgetter

from .errors import (
    Disconnected,
    ForbiddenPair,
    InvalidDescription,
    InvalidPartition,
    ParseError,
    UnknownVertex,
)


class Path(tuple):
    """A path in a quiver: a start vertex and a composable arrow id sequence.

    The empty sequence is the trivial path at its start vertex.  A path is
    the tuple (length, start, arrows) and equals, hashes and orders as the
    plain tuple with the same fields: shortest first, then by start vertex,
    then by arrow ids.
    """

    __slots__ = ()
    length = property(itemgetter(0))
    start = property(itemgetter(1))
    arrows = property(itemgetter(2))

    def __new__(cls, start, arrows=()):
        arrows = tuple(arrows)
        return tuple.__new__(cls, (len(arrows), start, arrows))

    def __getnewargs__(self):
        return self[1], self[2]

    def target(self, quiver):
        v = self.start
        for a in self.arrows:
            v = quiver.arrow(a)[2]
        return v

    def is_valid(self, quiver):
        if self.start not in quiver.vertex_set:
            return False
        v = self.start
        for a in self.arrows:
            try:
                _, src, dst = quiver.arrow(a)
            except UnknownVertex:
                return False
            if src != v:
                return False
            v = dst
        return True

    def __repr__(self):
        if not self.arrows:
            return f"Path(e_{self.start})"
        return f"Path({self.start}:{'|'.join(self.arrows)})"

    def __str__(self):
        if not self.arrows:
            return f"e_{self.start}"
        return f"({'|'.join(self.arrows)})"


class Quiver:
    """A finite quiver: vertex labels plus arrows (id, source, target).  The
    labels are of one type, and so are the ids, since the stars and the
    cover search sort them."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.vertex_set = set(self.vertices)
        if len(self.vertex_set) != len(self.vertices):
            raise InvalidDescription("duplicate vertex labels")
        self.arrows = [tuple(a) for a in arrows]
        if len(set(map(type, self.vertices))) > 1 or len({type(a[0]) for a in self.arrows}) > 1:
            raise InvalidDescription("vertex labels, and arrow ids, must each be of one type")
        self.arrow_by_id = {}
        for aid, src, dst in self.arrows:
            if aid in self.arrow_by_id:
                raise InvalidDescription(f"duplicate arrow id {aid!r}")
            if src not in self.vertex_set or dst not in self.vertex_set:
                raise UnknownVertex(f"arrow {aid!r} has undeclared endpoint")
            self.arrow_by_id[aid] = (aid, src, dst)

    def arrow(self, aid):
        if aid not in self.arrow_by_id:
            raise UnknownVertex(f"unknown arrow id {aid!r}")
        return self.arrow_by_id[aid]

    def out_arrows(self, v):
        return [a for a in self.arrows if a[1] == v]

    def trivial_path(self, v):
        if v not in self.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return Path(v)

    def paths_up_to(self, max_length):
        """All paths of length <= max_length, shortest first."""
        result = [Path(v) for v in self.vertices]
        frontier = list(result)
        for _ in range(max_length):
            nxt = []
            for p in frontier:
                tail = p.target(self)
                for aid, _, _ in self.out_arrows(tail):
                    nxt.append(Path(p.start, p.arrows + (aid,)))
            result.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        return result

    def undirected_adjacency(self):
        """Neighbor multiset map ignoring orientation (loops excluded)."""
        adj = {v: [] for v in self.vertices}
        for _, src, dst in self.arrows:
            if src != dst:
                adj[src].append(dst)
                adj[dst].append(src)
        return adj

    def is_connected(self):
        if not self.vertices:
            return True
        adj = self.undirected_adjacency()
        seen = {self.vertices[0]}
        todo = deque(seen)
        while todo:
            v = todo.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_text(text):
        vertices, arrows = [], []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 2:
                vertices.append(parts[1])
            elif parts[0] == "a" and len(parts) == 4:
                arrows.append((parts[1], parts[2], parts[3]))
            else:
                raise ParseError(f"bad quiver line {lineno}: {raw!r}")
        return Quiver(vertices, arrows)

    def to_json(self):
        return {"vertices": list(self.vertices), "arrows": [list(a) for a in self.arrows]}

    @staticmethod
    def from_json(data):
        """Read {"vertices": [label, ...], "arrows": [[id, source, target], ...]}
        of strings."""
        def strings(xs):
            return isinstance(xs, list) and all(isinstance(x, str) for x in xs)
        vertices, arrows = (data.get(k) if isinstance(data, dict) else None
                            for k in ("vertices", "arrows"))
        if not (strings(vertices) and isinstance(arrows, list)
                and all(strings(a) and len(a) == 3 for a in arrows)):
            raise ParseError("bad quiver JSON: want string vertices and string arrow lists")
        return Quiver(vertices, [tuple(a) for a in arrows])

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Quiver):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and set(self.arrows) == set(
            other.arrows
        )


class QuiverMorphism:
    """A quiver map: compatible vertex and arrow assignments."""

    def __init__(self, domain, codomain, vertex_map, arrow_map):
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = dict(vertex_map)
        self.arrow_map = dict(arrow_map)

    def is_valid(self):
        for v in self.domain.vertices:
            if self.vertex_map.get(v) not in self.codomain.vertex_set:
                return False
        for aid, src, dst in self.domain.arrows:
            img = self.arrow_map.get(aid)
            if img not in self.codomain.arrow_by_id:
                return False
            _, isrc, idst = self.codomain.arrow(img)
            if isrc != self.vertex_map[src] or idst != self.vertex_map[dst]:
                return False
        return True

    def to_json(self):
        return {"vertex_map": dict(self.vertex_map), "arrow_map": dict(self.arrow_map)}


# -- grid quivers -----------------------------------------------------------


def group_canonical_pair(m, n, i, j):
    """Canonical exponent pair for a^i b^j in <a, b | ab=ba, a^m=b^n> =
    Z^2/L, L = <(m, -n)>, by Hermite normal form.  Negating (m, n) keeps L.
    For m > 0, k = i // m gives 0 <= i - km < m and (i, j) - canon(i, j) =
    k(m, -n) in L, and two pairs in [0, m) x Z differ by k(m, -n) only for
    k = 0: canon picks the unique representative of each coset there, so it
    is the quotient map.  Likewise in Z x [0, n) for m = 0 < n; at m = n = 0
    it is the identity."""
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
    if m > 0:
        k = i // m
        return (i - k * m, j + k * n)
    if n > 0:
        k = j // n
        return (i, j - k * n)
    return (i, j)


def grid_vertex_label(i, j):
    return f"a{i}b{j}"


def grid_window(m, n, radius):
    """The canonical exponent pairs (i, j) of the box |i|, |j| <= radius,
    row by row."""
    box = product(range(-radius, radius + 1), repeat=2)
    return [g for g in box if group_canonical_pair(m, n, *g) == g]


def grid_quiver(m, n, radius):
    """The finite window of the folded grid quiver: canonical vertices a^i b^j
    with |i|, |j| <= radius, an a-arrow and a b-arrow out of each vertex when
    the target stays in the window."""
    if (m, n) in ((1, 1), (-1, -1)):
        raise ForbiddenPair("(m, n) = +/-(1, 1) has no grid quiver")
    if radius < 0:
        raise InvalidDescription("radius must be nonnegative")
    return _GridQuiver(m, n, radius)


class _GridQuiver(Quiver):
    """A `grid_quiver` of `shape` (m, n, radius).  `arrow` answers the arrows
    `hopf._image_of_key` records in `_found` as it builds images; any other
    lookup, and `vertices`, `vertex_set`, `arrows` and `arrow_by_id`, read
    `_listing`, the whole window listed once as a plain `Quiver`."""

    vertices = property(attrgetter("_listing.vertices"))
    vertex_set = property(attrgetter("_listing.vertex_set"))
    arrows = property(attrgetter("_listing.arrows"))
    arrow_by_id = property(attrgetter("_listing.arrow_by_id"))

    def __init__(self, m, n, radius):
        self.shape, self._found = (m, n, radius), {}

    @functools.cached_property
    def _listing(self):
        m, n, radius = self.shape
        label = {g: grid_vertex_label(*g) for g in grid_window(m, n, radius)}
        arrows = []
        for (i, j), v in label.items():  # an a-arrow, then a b-arrow, if its target is in
            w = label.get(group_canonical_pair(m, n, i + 1, j))
            if w:
                arrows.append(("x@" + v, v, w))
            w = label.get(group_canonical_pair(m, n, i, j + 1))
            if w:
                arrows.append(("y@" + v, v, w))
        return Quiver(list(label.values()), arrows)

    def arrow(self, aid):
        return self._found.get(aid) or self._listing.arrow(aid)

    def __eq__(self, other):
        if self is other or isinstance(other, _GridQuiver) and self.shape == other.shape:
            return True
        return super().__eq__(other)


# -- stars and homogeneity --------------------------------------------------


def _star_records(quiver):
    """One pass over the arrows: vertex -> (loop count, {neighbor: (arrows
    to it, arrows from it)}), the neighbors in sorted order."""
    loops = dict.fromkeys(quiver.vertices, 0)
    near = {v: {} for v in quiver.vertices}
    for _, s, t in quiver.arrows:
        if s == t:
            loops[s] += 1
        else:
            near[s].setdefault(t, [0, 0])[0] += 1
            near[t].setdefault(s, [0, 0])[1] += 1
    return {v: (loops[v], {w: tuple(p) for w, p in sorted(near[v].items())})
            for v in quiver.vertices}


def _stars_isomorphic(s1, c1, s2, c2):
    """Digraph isomorphism c1 -> c2 of two stars given as `_star_records` values.

    Returns a vertex map or None.  A star has no arrow between two neighbors,
    so the stars are isomorphic iff their loop counts and their multisets of
    neighbor profiles (arrows to, arrows from) agree; each neighbor of c1, in
    order, is then paired with the first unused neighbor of c2 of its profile.
    """
    (loops1, p1), (loops2, p2) = s1, s2
    if loops1 != loops2 or Counter(p1.values()) != Counter(p2.values()):
        return None
    by_profile = {}
    for w, p in p2.items():
        by_profile.setdefault(p, []).append(w)
    mapping = {c1: c2}
    for w, p in p1.items():
        mapping[w] = by_profile[p].pop(0)
    return mapping


def check_homogeneous(quiver, vertices=None):
    """Report whether every vertex looks alike: same out/in/loop counts and
    pairwise isomorphic stars.  An optional vertex subset restricts which
    vertices are compared; their stars are still taken in the full quiver.
    `out_degree`, `in_degree` and `per_vertex` count neighbours, not arrows:
    two arrows 1 -> 2 give vertex 1 out-degree 1.  The star comparison
    counts arrows, so parallel arrows still decide homogeneity; `loops`
    counts arrows."""
    checked = list(quiver.vertices) if vertices is None else [
        v for v in quiver.vertices if v in set(vertices)
    ]
    if vertices is not None and len(checked) != len(set(vertices)):
        raise UnknownVertex("vertex restriction contains unknown vertices")
    records = _star_records(quiver)
    sigs = {}
    for v in checked:
        loops, profiles = records[v]
        sigs[v] = (sum(1 for to, _ in profiles.values() if to),
                   sum(1 for _, frm in profiles.values() if frm), loops)
    uniform = len(set(sigs.values())) <= 1
    witnesses = {v: _stars_isomorphic(records[checked[0]], checked[0], records[v], v)
                 if uniform else None for v in checked}
    homogeneous = uniform and None not in witnesses.values()
    out_d, in_d, loops = next(iter(sigs.values()), (0, 0, 0))
    return {
        "out_degree": out_d if homogeneous else None,
        "in_degree": in_d if homogeneous else None,
        "loops": loops if homogeneous else None,
        "is_homogeneous": homogeneous,
        "star_iso_witnesses": witnesses,
        "per_vertex": {v: {"out": s[0], "in": s[1], "loops": s[2]} for v, s in sigs.items()},
    }


# -- Dynkin / Euclidean classification --------------------------------------


class GraphClass:
    """Underlying-graph type: Dynkin A/D/E, extended (Euclidean) type, or Other."""

    __slots__ = ("kind", "family", "index")

    def __init__(self, kind, family=None, index=None):
        self.kind = kind  # "Dynkin" | "Euclidean" | "Other"
        self.family = family
        self.index = index

    def __eq__(self, other):
        if not isinstance(other, GraphClass):
            return NotImplemented
        return (self.kind, self.family, self.index) == (other.kind, other.family, other.index)

    def __hash__(self):
        return hash((self.kind, self.family, self.index))

    def __str__(self):
        if self.kind == "Other":
            return "Other"
        tilde = "~" if self.kind == "Euclidean" else ""
        return f"{self.family}{tilde}{self.index}"

    __repr__ = __str__

    @property
    def is_dynkin(self):
        return self.kind == "Dynkin"


OTHER = GraphClass("Other")


def _arm_lengths(adj, center):
    """Lengths of the simple arms leaving a branch vertex of a tree."""
    arms = []
    for first in adj[center]:
        length = 1
        prev, cur = center, first
        while len(adj[cur]) == 2:
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def _underlying_class(vertices, edges):
    """The class of the connected loopless multigraph on `vertices` with the
    (u, w) pairs `edges`, by the arm rule (Bernstein-Gelfand-Ponomarev,
    Russian Math. Surveys 28, 1973).  |E| >= |V| means a cycle or a parallel
    edge.  A lone branch vertex of degree 3 with arms of p, q, r vertices
    (each an `_arm_lengths` edge count plus 1) is Dynkin when 1/p + 1/q + 1/r
    > 1 and Euclidean when it is 1."""
    adj = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    nv = len(adj)
    if len(edges) >= nv:
        cycle = all(len(ws) == 2 for ws in adj.values())
        return GraphClass("Euclidean", "A", nv - 1) if cycle else OTHER
    branch = [v for v, ws in adj.items() if len(ws) > 2]
    if not branch:
        return GraphClass("Dynkin", "A", nv)
    if len(branch) == 2 and all(
            len(adj[b]) == 3 and sum(len(adj[w]) == 1 for w in adj[b]) == 2 for b in branch):
        return GraphClass("Euclidean", "D", nv - 1)
    arms = _arm_lengths(adj, branch[0]) if len(branch) == 1 else ()
    if arms == [1, 1, 1, 1]:
        return GraphClass("Euclidean", "D", 4)
    if len(arms) != 3:
        return OTHER
    p, q, r = (arm + 1 for arm in arms)
    family = "D" if p == q == 2 else "E"
    total, pqr = q * r + p * r + p * q, p * q * r  # total = pqr (1/p + 1/q + 1/r)
    if total == pqr:
        return GraphClass("Euclidean", family, nv - 1)
    return GraphClass("Dynkin", family, nv) if total > pqr else OTHER


def graph_class(quiver):
    """Classify the underlying multigraph (orientation ignored)."""
    if not quiver.is_connected():
        raise Disconnected("graph classification needs a connected quiver")
    if not quiver.vertices:
        raise Disconnected("empty quiver")
    if any(s == t for _, s, t in quiver.arrows):
        return OTHER
    return _underlying_class(quiver.vertices, [(s, t) for _, s, t in quiver.arrows])


# -- quotients --------------------------------------------------------------


def quotient(quiver, partition):
    """Glue the vertices inside each partition block; arrows are kept with
    multiplicity.  Returns (quotient quiver, canonical morphism)."""
    blocks = [sorted(set(block)) for block in partition]
    flat = [v for block in blocks for v in block]
    if len(flat) != len(set(flat)):
        raise InvalidPartition("partition blocks overlap")
    if set(flat) != quiver.vertex_set:
        raise InvalidPartition("partition must cover the vertices exactly")
    labels = {}
    new_vertices = []
    for block in blocks:
        label = block[0] if len(block) == 1 else "+".join(str(v) for v in block)
        new_vertices.append(label)
        for v in block:
            labels[v] = label
    new_arrows = [(aid, labels[src], labels[dst]) for aid, src, dst in quiver.arrows]
    q = Quiver(new_vertices, new_arrows)
    morphism = QuiverMorphism(quiver, q, labels, {aid: aid for aid, _, _ in quiver.arrows})
    return q, morphism


# -- bipartite non-Dynkin covers --------------------------------------------


def find_nondynkin_cover(qtarget, size_bound):
    """Search for a connected bipartite quiver with non-Dynkin underlying graph,
    at most size_bound vertices, and a vertex-gluing morphism onto a subquiver
    of qtarget (arrows map injectively).  Returns (Quiver, QuiverMorphism) or
    None; the search is exhaustive up to the bound, and below 2 finds none.

    It searches Gabriel's separated quiver (Auslander-Reiten-Smalo, X.2): a
    source copy (v, "+") and a sink copy (v, "-") of each vertex v, and an
    edge (u, "+") - (w, "-") per arrow u -> w.  A connected arrow set there,
    its copies as vertices, is such a cover.  Conversely, gluing the cover
    vertices of one image and role maps a cover C onto a connected arrow set
    I with C's edges and no more vertices; I = C, or |E| >= |V(C)| - 1 >=
    |V(I)| forces a cycle or a parallel edge in I, so I is non-Dynkin if C is.

    A state is its cover arrows (target arrow id, source, sink), its copies
    by first appearance, cover vertex i over copy i, and their degrees; its
    key is the bitmask of its arrows' indices among the sorted target arrows.
    Breadth-first from the single arrows, a state grows by each unused target
    arrow, in sorted order, that meets a held copy, appending the other copy
    if it is not held and the bound allows.  Each new key is tested at once,
    and the first non-Dynkin state is returned, its arrows sorted by id.

    So a queued state is Dynkin, a tree, and the test is incremental.  A
    growth between two held copies has |E| = |V|: a cycle or a parallel edge.
    Else it adds a leaf and raises its held end's degree.  A tree of degrees
    <= 2 is A_n.  A vertex of degree >= 4 and four neighbours form a D~4; two
    of degree 3, the path between them and two more neighbours of each form
    a D~n; a graph holding a Euclidean one is not Dynkin.  Only a tree with
    one vertex of degree 3 goes to `_underlying_class`, for the arm rule."""
    if size_bound < 2:  # every state holds an arrow, so two vertices
        return None
    ends = [(1 << i, aid, (src, "+"), (dst, "-"))
            for i, (aid, src, dst) in enumerate(sorted(qtarget.arrows))]
    queue = deque((bit, ((aid, 0, 1),), (s, t), (1, 1), False) for bit, aid, s, t in ends)
    seen = {bit for bit, _, _, _ in ends}
    while queue:
        mask, cover_arrows, copies, degrees, branched = queue.popleft()
        index = {c: i for i, c in enumerate(copies)}
        new = len(copies)  # the index of an appended copy
        for bit, aid, s, t in ends:
            u, w = index.get(s, new), index.get(t, new)
            # u == w only when the arrow meets no copy the state holds
            if mask & bit or u == w or new in (u, w) and new == size_bound or mask | bit in seen:
                continue
            seen.add(mask | bit)
            held = min(u, w)  # the held end of a leaf, whose degree rises
            d = degrees[held] + 1
            grown = cover_arrows + ((aid, u, w),)
            grown_copies = copies + ((s,) if u == new else (t,) if w == new else ())
            if new not in (u, w) or d > 3 or d == 3 and branched or (d == 3 or branched) and not \
                    _underlying_class(range(new + 1), [(p, q) for _, p, q in grown]).is_dynkin:
                grown = sorted(grown)
                cover = Quiver([f"v{i}" for i in range(len(grown_copies))],
                               [(f"{aid}#{i}", f"v{u}", f"v{w}")
                                for i, (aid, u, w) in enumerate(grown)])
                return cover, QuiverMorphism(
                    cover, qtarget, {f"v{i}": v for i, (v, _) in enumerate(grown_copies)},
                    {f"{aid}#{i}": aid for i, (aid, _, _) in enumerate(grown)})
            queue.append((mask | bit, grown, grown_copies,
                          degrees[:held] + (d,) + degrees[held + 1:] + (1,), branched or d == 3))
    return None


# -- link components of the grouplike graph ---------------------------------


def classify_link_component(m, n, num_generators, cyclic_order=None):
    """Shape of one connected component of the arrow-link structure over the
    grouplike group: (1) single vertex, (2) oriented cycle, (3) infinite line,
    (4) folded grid quiver."""
    if num_generators == 0:
        if cyclic_order not in (None, 1):
            raise InvalidDescription("no generators means a trivial group")
        return 1
    if num_generators == 1:
        if cyclic_order is None or cyclic_order == 0:
            return 3
        if cyclic_order < 1:
            raise InvalidDescription("cyclic order must be positive or None")
        return 2
    if num_generators == 2:
        if (m, n) in ((1, 1), (-1, -1)):
            raise InvalidDescription("(m, n) = +/-(1, 1) is excluded")
        return 4
    raise InvalidDescription("num_generators must be 0, 1, or 2")
