"""The tests' oracles: every former route of a `pathcoalg` function that a
proof or a faster route replaced, and every independent reference computation
the tests compare the library against.  Each docstring names the function it
checks and the proof or rewrite it stands for.  The test modules import them
from here; `tools/mutants.py` runs the source mutants they must catch.
"""

import functools
import random
from collections import deque
from fractions import Fraction
from itertools import count

from pathcoalg import coalgebra, comodules, hopf, linalg, scalar
from pathcoalg.coalgebra import (
    CoElement,
    DualAlgebra,
    SubCoalgebra,
    diamond_basis,
    grouplike,
    path_element,
)
from pathcoalg.comodules import Comodule, HomSpace, StringSpec
from pathcoalg.errors import (
    AxiomFailure,
    Disconnected,
    InvalidDescription,
    InvalidMorphism,
    InvalidSpec,
    NotClosedUnderDelta,
    NotGrouplike,
    NotPointed,
    SquareRootUnavailable,
    WindowTooSmall,
)
from pathcoalg.hopf import (
    BmnElement,
    GENERATOR_NAMES,
    gen_x,
    gen_y,
    group_element,
    relations,
    truncate_to_subcoalgebra,
)
from pathcoalg.linalg import SparseBasis, _inverse, accumulate, axpy, nullspace, tensor_axpy
from pathcoalg.quiver import (
    GraphClass,
    OTHER,
    Path,
    Quiver,
    QuiverMorphism,
    _arm_lengths,
    _underlying_class,
    grid_vertex_label,
    grid_window,
    group_canonical_pair,
)
from pathcoalg.scalar import ONE, ZERO, bare, cyc


# -- linalg -----------------------------------------------------------


def reference_rref(rows, ncols):
    """Checks `linalg.rref` and the pivots of `SparseBasis`: textbook dense
    Gauss-Jordan over Fraction, (rows, pivots)."""
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
    """Checks `SparseBasis.residue`, which reads each pivot once in pivot
    order: reduce against every row in turn, reading each coefficient afresh."""
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


class FullScanBasis(SparseBasis):
    """Checks `SparseBasis.add`, which skips the back-elimination of rows
    without the new pivot: `add` scans every stored row for the new pivot."""

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


def reference_nullspace(rows, ncols):
    """Checks `linalg.nullspace`, which reads the kernel off one reduced
    basis built with coordinates: every row through one SparseBasis, the
    kernel read off its reduced rows."""
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


# -- scalar -----------------------------------------------------------


def root_by_demotion(n, e=1):
    """Checks `CycScalar.root_of_unity`, built at its minimal conductor in
    closed form: zeta_n^e demoted by `_canonical`'s subfield search."""
    return scalar._canonical(n, scalar._reduce_mod_cyclo([0] * (e % n) + [1], n))


def sqrt_by_trial_products(a):
    """Checks `scalar.sqrt`, which rotates the coordinates of a by zeta_n:
    the square root found by up to n field products a * zeta_n^e."""
    a = cyc(a)
    if a.is_zero():
        return ZERO
    n = a.n
    for e in range(n):
        r = a * root_by_demotion(n, e)
        if r.n == 1:
            q = bare(r)
            root = scalar._rational_sqrt(q) if q > 0 else None
            if root is None:
                root = scalar._rational_sqrt(-q) if q < 0 else None
                if root is None:
                    break
                root = cyc(root) * root_by_demotion(4, 1)
            else:
                root = cyc(root)
            return root if e == 0 else root * root_by_demotion(2 * n, n - e)
    raise SquareRootUnavailable(f"no constructible square root for {a}")


def order_by_divisor_powers(a):
    """Checks `scalar.root_of_unity_order`: the least divisor d of lcm(2, n)
    with a^d = 1, by powers."""
    a = cyc(a)
    for d in scalar._divisors(scalar._lcm(2, a.n)):
        if a ** d == ONE:
            return d
    return None


# -- quiver -----------------------------------------------------------


def star(quiver, v):
    """Helper of `reference_check_homogeneous`, the former `quiver.star`: the
    subquiver on v, its neighbors and all arrows incident to v."""
    incident = [a for a in quiver.arrows if a[1] == v or a[2] == v]
    verts = [v] + sorted({w for _, s, t in incident for w in (s, t) if w != v})
    return Quiver(verts, incident)


def reference_star_signature(quiver, v):
    """Helper of `reference_check_homogeneous`: (out-neighbors, in-neighbors,
    loops) of v, each arrow read from the whole quiver."""
    out = {t for _, s, t in quiver.arrows if s == v and t != v}
    inn = {s for _, s, t in quiver.arrows if t == v and s != v}
    loops = sum(1 for _, s, t in quiver.arrows if s == v and t == v)
    return len(out), len(inn), loops


def reference_check_homogeneous(quiver, vertices=None):
    """Checks `quiver.check_homogeneous`, one pass over the arrows
    (`_star_records`): the former route, a signature pass and a `star`
    quiver per vertex, compared by `backtracking_stars_isomorphic`."""
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
    witnesses = {v: backtracking_stars_isomorphic(base_star, base, star(quiver, v), v)
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


def backtracking_stars_isomorphic(s1, c1, s2, c2):
    """Checks `quiver._stars_isomorphic`, which pairs neighbors greedily once
    the profile multisets agree: the former route on two star quivers, pairing
    the neighbors of s1, in order, with unused neighbors of s2 of equal
    profile, backtracking on failure."""

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


def reference_underlying_class(vertices, edges):
    """Checks `quiver._underlying_class`, the arm rule: the former
    table-based `graph_class` on a connected loopless multigraph, parallel
    edges counted pair by pair, trees read off a hand-written table of arm
    patterns."""
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
    """Checks `quiver.graph_class`: the former route, its checks, then the
    table of `reference_underlying_class`."""
    if not quiver.is_connected() or not quiver.vertices:
        raise Disconnected("reference")
    if any(s == t for _, s, t in quiver.arrows):
        return OTHER
    return reference_underlying_class(quiver.vertices, [(s, t) for _, s, t in quiver.arrows])


def former_find_nondynkin_cover(qtarget, size_bound, classify=_underlying_class):
    """Checks `quiver.find_nondynkin_cover`, which keys states by arrow
    bitmasks and tests Dynkin incrementally: the former search, a state keyed
    by its renumbered arrows and its images, tested by `classify` when it
    leaves the queue."""
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


# -- coalgebra --------------------------------------------------------


def former_apply(pi, element):
    """Checks `CoalgebraMap.apply`, which sums the images over bare
    coordinates: the former route, the coordinates boxed by
    `SubCoalgebra.coords`, then unboxed again by `CoElement.combination`."""
    coords = pi.domain.coords(element)
    if coords is None:
        raise InvalidMorphism("element outside the domain")
    return CoElement.combination(pi.codomain.quiver, coords, pi.images)


def reference_separability(pi):
    """Checks `coalgebra.separability_check`, which proves e = sum_g g* (x)
    g* a separability element for a covering: the former route, which spans
    the relations x s_j (x) y - x (x) s_j y of C* (x)_{D*} C* over the dual
    basis x, y, s_j = pi*(d'_j*), and tests u(e) = 1 and x e = e x on each
    x.  Sparse, each s_j y built once and only nonzero relations built; the
    covering precondition is left to the caller."""
    alg = coalgebra.dualize(pi.domain)

    def mul(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                axpy(out, a * b, alg.structure.get((i, j), {}))
        return out

    cod = SubCoalgebra(pi.codomain.quiver, [d.element for d in diamond_basis(pi.codomain)],
                       validate=False)
    gens = {}
    for i, d in enumerate(diamond_basis(pi.domain)):
        for j, c in cod._engine.coords(pi.apply(d.element).terms).items():
            gens.setdefault(j, {})[i] = c
    units = [{k: 1} for k in range(alg.dim)]
    relations = SparseBasis()
    for s in gens.values():
        s_y = [(y, mul(s, y)) for y in units]
        nonzero = [(y, sy) for y, sy in s_y if sy]
        for x in units:
            x_s = mul(x, s)
            for y, sy in s_y if x_s else nonzero:
                rel = {}
                tensor_axpy(rel, 1, x_s, y)
                tensor_axpy(rel, -1, x, sy)
                if rel:
                    relations.add(rel)
    idempotents = [vec for _, vec in alg.idempotents]
    u_of_e, unit = {}, {}
    for g in idempotents:
        axpy(u_of_e, 1, mul(g, g))
        axpy(unit, 1, g)
    if u_of_e != unit:
        return False
    for x in units:
        diff = {}
        for g in idempotents:
            tensor_axpy(diff, 1, mul(x, g), g)
            tensor_axpy(diff, -1, g, mul(g, x))
        if relations.residue(diff)[0]:
            return False
    return True


def reference_localize(algebra, labels):
    """Checks `coalgebra.localize`, which reads eAe off the pointed basis:
    the former route, eAe spanned by the products e d_k e, kept where they
    enlarge one elimination, with every product solved for coordinates in
    them."""
    by_label = dict(algebra.idempotents)
    e = {}
    for l in labels:
        axpy(e, 1, by_label[l])
    engine = SparseBasis(coords=True)
    basis = []
    for k in range(algebra.dim):
        w = algebra.multiply(algebra.multiply(e, {k: 1}), e)
        if engine.add(w, len(basis)):
            basis.append(w)

    def coords(vec):
        comb = engine.coords(vec)
        if comb is None:
            raise InvalidDescription("product escaped the corner algebra")
        return comb

    structure = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            cell = coords(algebra.multiply(u, v))
            if cell:
                structure[(i, j)] = cell
    return DualAlgebra(len(basis), structure, [(l, coords(by_label[l])) for l in labels])


def reference_dualize(coalg):
    """Checks `coalgebra.dualize`, which reads the elimination
    `diamond_basis` keeps: the former route, the structure constants over a
    fresh SubCoalgebra of the diamonds, which eliminates them a second time."""
    db = diamond_basis(coalg)
    base = SubCoalgebra(coalg.quiver, [d.element for d in db], validate=False)
    structure = {}
    for k, d in enumerate(db):
        for ij, c in coalgebra._delta_over_basis(d.element, base._engine).items():
            structure.setdefault(ij, {})[k] = c
    idempotents = [(d.source, {k: 1}) for k, d in enumerate(db)
                   if d.source == d.sink and Path(d.source) in d.element.terms]
    return structure, idempotents


def reference_radical_basis(alg):
    """Checks `DualAlgebra.radical_basis`, the non-idempotent basis vectors
    of a pointed basis: the trace-form radical from the Gram matrix
    tr(L_i L_j) of the dense left-multiplication matrices, (L_i)[k][j] =
    c_ij^k.  O(D^4); it does not use the pointed shape of the basis."""
    d = alg.dim
    mats = [
        [[alg.structure.get((i, j), {}).get(k, ZERO) for j in range(d)] for k in range(d)]
        for i in range(d)
    ]
    gram = []
    for i in range(d):
        nonzero = [(k, l, x) for k in range(d) for l, x in enumerate(mats[i][k]) if x]
        row = {}
        for j in range(d):
            tr = ZERO
            for k, l, x in nonzero:
                y = mats[j][l][k]
                if y:
                    tr = tr + x * y
            if tr:
                row[j] = tr
        gram.append(row)
    return nullspace(gram, d)


def grouplikes(coalg):
    """Helper of the coalgebra references: the vertices v with e_v in the
    subcoalgebra."""
    return [v for v in coalg.vertices_used() if coalg.contains(grouplike(coalg.quiver, v))]


def reference_coradical_filtration(coalg):
    """Checks `coalgebra.coradical_filtration`, read off path lengths
    (Montgomery 1993, 5.2): the filtration by its definition, one nullspace
    per level, C_0 the grouplike span and C_{i+1} = {x : delta(x) in C_i (x)
    C + C (x) C_0}.  Raises NotPointed if there is no grouplike or the chain
    stalls below C."""
    gs = grouplikes(coalg)
    if not gs:
        raise NotPointed("no grouplikes found")
    quiver = coalg.quiver
    level = SparseBasis()
    for v in gs:
        level.add({Path(v): ONE})
    chain = [SubCoalgebra(quiver, [grouplike(quiver, v) for v in gs], validate=False)]
    if chain[0].dim == coalg.dim:
        return chain, 1
    while True:
        current = level
        rows_by_key = {}
        for i, b in enumerate(coalg.basis):
            cols = {}
            for (l, r), c in b.delta_dict().items():
                if r.length > 0:
                    cols.setdefault(r, {})[l] = c
            for q, col in cols.items():
                res, _ = current.residue(col)
                for p, c in res.items():
                    rows_by_key.setdefault((q, p), {})[i] = c
        sols = nullspace(rows_by_key.values(), coalg.dim)
        members = []
        nxt = SparseBasis()
        for c in sols:
            x = CoElement.combination(quiver, c, coalg.basis)
            if not x.is_zero() and nxt.add(dict(x.terms)):
                members.append(x)
        if nxt.dim <= current.dim:
            raise NotPointed("coradical filtration stalls below the coalgebra")
        chain.append(SubCoalgebra(quiver, members, validate=False))
        level = nxt
        if nxt.dim == coalg.dim:
            return chain, len(chain)


def solve_combination(coalg, candidates, condition):
    """Helper of `reference_skew_primitives`: every combination x = sum c_i
    candidates_i with condition(x) == {}, a linear map to sparse dicts, as a
    basis of the solutions by one nullspace."""
    rows = {}
    for i, cand in enumerate(candidates):
        for k, c in condition(cand).items():
            rows.setdefault(k, {})[i] = c
    sols = (CoElement.combination(coalg.quiver, c, candidates)
            for c in nullspace(rows.values(), len(candidates)))
    return [x for x in sols if not x.is_zero()]


def skew_condition(g, h):
    """Helper of `reference_skew_primitives`: x -> delta(x) - e_g (x) x -
    x (x) e_h, as a sparse dict."""
    pg, ph = Path(g), Path(h)

    def condition(x):
        out = dict(x.delta_dict())
        for p, c in x.terms.items():
            accumulate(out, (pg, p), -c)
            accumulate(out, (p, ph), -c)
        return out

    return condition


def reference_skew_primitives(coalg, g, h):
    """Checks `coalgebra.skew_primitives`, which reads P(g, h) off the rows
    of one elimination: the former route, the defining system solved over
    e_g, e_h and the diamonds from g to h by one nullspace."""
    for v in (g, h):
        if v not in coalg.quiver.vertex_set:
            raise NotGrouplike(f"{v!r} is not a vertex of the ambient quiver")
        if not coalg.contains(grouplike(coalg.quiver, v)):
            raise NotGrouplike(f"{v!r} is not grouplike in the subcoalgebra")
    e_g, e_h = grouplike(coalg.quiver, g), grouplike(coalg.quiver, h)
    candidates = [e_g] + ([] if g == h else [e_h])
    for d in diamond_basis(coalg):
        if d.source == g and d.sink == h and d.element.terms.get(Path(g)) is None:
            if not (g == h and d.element == e_g):
                candidates.append(d.element)
    return solve_combination(coalg, candidates, skew_condition(g, h))


def reference_ext_quiver(coalg):
    """Checks `coalgebra.ext_quiver`, which counts the length-1 rows of one
    elimination: dim P(g, h) - [g != h] arrows g -> h from
    `reference_skew_primitives` per pair of grouplikes that a diamond joins."""
    reference_coradical_filtration(coalg)  # raises NotPointed when not pointed
    gs = grouplikes(coalg)
    pairs = {(g, g) for g in gs}
    for d in diamond_basis(coalg):
        pairs.add((d.source, d.sink))
    arrows = []
    for g, h in sorted(pairs):
        count = len(reference_skew_primitives(coalg, g, h)) - (1 if g != h else 0)
        for k in range(count):
            arrows.append((f"p{k}@{g}>{h}", g, h))
    return Quiver(gs, arrows)


# -- hopf -------------------------------------------------------------


def certify(params, images):
    """Helper of the embedding tests: `_certify_embedding` on an image dict,
    with the sizes a Truncation reports of its own images as `certificate`."""
    return {"keys": len(images), "representatives": 4,
            "coproduct_terms": hopf._certify_embedding(params, images.__getitem__),
            "paths": sum(len(img.terms) for img in images.values())}


def reference_certify_embedding(params, images):
    """Checks `hopf._certify_embedding`, which proves closure and translation
    once and compares Delta on the four representatives: the former per-key
    certificate, the images nonzero with pairwise disjoint supports, Delta_H
    of every key landing on keys, and Delta_path iota(u) = (iota (x) iota)
    Delta_H(u) for every key u, one dict comparison each."""
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
    """Mutants of `hopf._image_of_key` for `reference_certify_embedding` to
    reject: lam^lam_power for lam on the yx path of the xy image (of group
    part `only` alone, if given), the x and y arrows of the degree-one images
    swapped wherever the other arrow exists, or the image of the key `drop`
    replaced by 0; the defaults are the original."""
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
    """Checks `Truncation._keys`, read off `_KEY_SHIFTS`: the basis keys in
    basis order, group parts of the window and its a-, b- and ab-shifts, x
    on the window and its b-shift, y on the window and its a-shift, xy on
    the window.  Fewer group_shifts or x_shifts give the key-set mutants."""
    window = grid_window(params.m, params.n, radius)

    def shifted(*shifts):
        return sorted(set(window).union(*({params.canon(i + di, j + dj) for i, j in window}
                                          for di, dj in shifts)))

    keys = [(g, 0, 0) for g in shifted(*group_shifts)]
    keys += [(g, 1, 0) for g in shifted(*x_shifts)]
    keys += [(g, 0, 1) for g in shifted((1, 0))]
    return keys + [(g, 1, 1) for g in window]


def reference_rejects(params, images):
    """Whether `reference_certify_embedding` rejects the images."""
    try:
        reference_certify_embedding(params, images)
    except NotClosedUnderDelta:
        return True
    return False


def reference_grid_quiver(m, n, radius):
    """Checks `quiver.grid_quiver`, which lists its window only when read:
    the former route, its lists built at once."""
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
    """Checks `hopf._image_of_key`, which decides validity from the group
    pairs its words pass: the former route, through `path_element`."""
    (i, j), p, q = key
    g = grid_vertex_label(i, j)
    if (p, q) != (1, 1):
        return path_element(quiver, Path(g, (f"x@{g}",) * p + (f"y@{g}",) * q))
    ga = grid_vertex_label(*params.canon(i + 1, j))
    gb = grid_vertex_label(*params.canon(i, j + 1))
    return path_element(quiver, Path(g, (f"x@{g}", f"y@{ga}"))) - path_element(
        quiver, Path(g, (f"y@{g}", f"x@{gb}")), params.lam)


class ReferenceTruncation:
    """The truncation `reference_truncation` builds, every part at once."""

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
    """Checks `hopf.truncate_to_subcoalgebra`, whose `Truncation` builds only
    what is read: the former eager route, every key image, the whole grid
    quiver of the ambient box and the `SubCoalgebra` elimination, built at
    once."""
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


def sweep_hopf_axioms(params, radius, product_pairs=12, seed=0):
    """Checks the element maps that `hopf.verify_hopf_axioms` proves the
    axioms of through term functions (`comultiply`, `counit`, `antipode` and
    the products of `BmnElement` and `TensorElement`): the former verifier,
    every Hopf axiom on every basis monomial with group part in the window,
    plus multiplicativity on random monomial pairs.  Reaches the structure
    maps through the module so that monkeypatched mutants are seen."""
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


def evaluate_relation(relation, images, start, reverse=False):
    """Checks `hopf._evaluate`, the term-dict evaluator: the former
    element-level route, sum(c * start * images[w_1] * ... * images[w_l]) over
    the relation's terms (c, w), with algebra elements or tensors as images.
    With reverse=True each word is read right to left."""
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
    """Helper of the witness references: the images `verify_witness` gives
    the generators under w, as elements."""
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
    """Helper of the witness references: whether w is bijective on the group
    parts, that is (m1, -n1) and the image under w^-1 of (m2, -n2) generate
    one subgroup of Z^2: (m1, n1) = +-(m2, n2) for phi and +-(n2, m2) for psi."""
    m2, n2 = (p2.m, p2.n) if w.kind == "phi" else (p2.n, p2.m)
    return (p1.m, p1.n) in ((m2, n2), (-m2, -n2))


def numeric_witness(w, p1, p2):
    """Checks `classify.verify_witness`, decided in closed form on the
    parameters: an earlier route, the relations of p1 and the structure maps
    multiplied out in the concrete target p2.  It looks the term functions up
    on `hopf` at each call, so a monkeypatched mutant reaches it.  It checks
    that w is a well-defined algebra map, not that it is bijective
    (`lattices_equal`)."""
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


# -- hopf: the certificate on generic parameters -------------------


def first_failure(params):
    """Helper of `numeric_verdict`: the first nonzero residue of `_residues`
    on the concrete parameters, as (message, witness text), or None."""
    for message, witness, residue in hopf._residues(params):
        if residue:
            if not isinstance(witness, str):
                witness = str(BmnElement(params, witness))
            return message, witness
    return None


def numeric_verdict(params, radius):
    """Checks `hopf.verify_hopf_axioms`, which specializes the B(0, 0)
    certificate rows and checks the quotient map: `_residues` run on the
    concrete parameters, the first nonzero residue as (message, witness
    text), or the report."""
    return first_failure(params) or listed_report(params, radius)


def listed_report(params, radius):
    """Helper of `numeric_verdict`: the success report, with the window
    listed to count its monomials."""
    return {
        "params": params.to_json(),
        "window_radius": radius,
        "basis_checked": 4 * len(grid_window(params.m, params.n, radius)),
        "product_pairs": 0,
        "certificate": {
            "relations": [name for name, _ in relations(params)],
            "generators": list(GENERATOR_NAMES.values()),
            "translates": ["1", "a", "a^-1", "b", "b^-1"],
        },
        "ok": True,
    }


@functools.lru_cache(maxsize=None)
def _family_residues(m, n):
    """Checks the laws of `hopf.validate_params` and the quotient route of
    `hopf.verify_hopf_axioms` (B(0, 0)'s rows and the character of g = a^m
    b^-n): `_residues` of B(m, n) itself on generic parameters over
    Q[lam^+-1, s, t, k], as (message, witness, coefficients) for each residue
    that is not the zero polynomial.  Only unmutated tests read it, so its
    cache outlives them."""
    generic = hopf._generic_params(m, n)
    return tuple((message, witness, tuple(r.values()))
                 for message, witness, r in hopf._residues(generic) if r)


def generic_images(m2, n2, kind):
    """Helper of `witness_residues`: the generic target B(m2, n2), phi_1's
    images of the generators there by relation letter, and its unit."""
    target = hopf._generic_params(m2, n2)
    gens = {g: u.terms for g, u in hopf.generator_images(target).items()}
    images = gens if kind == "phi" else {g: gens[h] for g, h in zip("aAbBxy", "bBaAyx")}
    return target, images, {(target.canon(0, 0), 0, 0): 1}


def witness_residues(m1, n1, m2, n2, kind):
    """Checks what `classify.verify_witness` leaves unchecked, that a
    rescaling commutes with Delta, epsilon and S: the coefficients of those
    residues for a witness of `kind` with alpha = beta = 1 on generic
    parameters, one tuple per nonzero residue: Delta(g) = g (x) g, epsilon(g)
    = 1, Delta(u) = 1 (x) u + u (x) g, epsilon(u) = 0 and S(u) = -u g^-1 on
    the images g of a, b and u of x, y."""
    target, images, one = generic_images(m2, n2, kind)
    residues = []
    for g, u, g_inv in (("a", "x", "A"), ("b", "y", "B")):
        g, u, g_inv = images[g], images[u], images[g_inv]
        delta_g, eps_g = dict(hopf._comul_terms(target, g)), dict(hopf._counit_terms(target, g))
        delta_u, anti_u = dict(hopf._comul_terms(target, u)), dict(hopf._anti_terms(target, u))
        tensor_axpy(delta_g, -1, g, g)
        axpy(eps_g, -1, one)
        tensor_axpy(delta_u, -1, one, u)
        tensor_axpy(delta_u, -1, u, g)
        axpy(anti_u, 1, hopf._mul_terms(target, u, g_inv))
        residues += [delta_g, eps_g, delta_u, hopf._counit_terms(target, u), anti_u]
    return tuple(tuple(r.values()) for r in residues if r)


# -- comodules --------------------------------------------------------


def _hom_full(m1, m2):
    """Checks `comodules.hom`, solved on vertex blocks: one unknown per
    entry of the dim N x dim M matrix f, unknown f[r][c] in column r * dim M +
    c, and one equation per (l, j, path), whatever the bases."""
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
    """Checks the rows `comodules.hom` hands `nullspace`, built from the
    nonzero coaction terms: the former loop over every pair (l, j) of basis
    vectors of N and M, in order, writing one row per path, as (rows, number
    of unknowns).  The unknowns are `hom`'s: f[r][c] for the same-vertex
    pairs on adapted bases, every entry otherwise, numbered in the order of
    r * dim M + c."""
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


def reference_socle_series_dims(mod):
    """Checks `comodules.socle_series_dims`: the former route, soc M = {v :
    rho(v) in M (x) C_0} by one nullspace, then the same on the quotient
    comodule M / soc M, layer after layer."""
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
    """Helper of `reference_socle_series_dims`: M / span(sub_vectors) on the
    unit vectors that are no pivot of the subspace's reduced basis."""
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


# The former builders tested every coaction entry by `SubCoalgebra.contains`;
# the former enumeration kept the first string of each (nodes, paths) pair.


def _old_path(trunc, label, arrows=()):
    """Helper of the former builders: the path as an element, refused unless
    the truncation contains it."""
    try:
        elem = path_element(trunc.quiver, Path(label, arrows))
    except InvalidDescription:
        raise WindowTooSmall(f"{label} {arrows} outside the window")
    if not trunc.coalgebra.contains(elem):
        raise WindowTooSmall(f"{label} {arrows} outside the window")
    return elem


def _old_vertex(trunc, g):
    """Helper of the former builders: e_g."""
    return _old_path(trunc, grid_vertex_label(*g))


def _old_simple(trunc, i, j):
    """Checks `comodules.build_simple`: the former builder, by membership."""
    g = trunc.params.canon(i, j)
    return Comodule(trunc.coalgebra, [[_old_vertex(trunc, g)]], [grid_vertex_label(*g)])


def _old_arrow(trunc, letter, g):
    """Helper of the former builders: the arrow of `letter` at g."""
    label = grid_vertex_label(*g)
    return _old_path(trunc, label, (f"{letter}@{label}",))


def _old_string(trunc, spec):
    """Checks `comodules.build_string`, one zig-zag walk filled from certified
    images: the former builder, walk and coaction built path by path."""
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
    """Checks `comodules.build_diamond`: the former builder, path by path."""
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
    """Checks `comodules.build_band_family`: the former builder of the band
    modules, path by path."""
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
    """Checks `comodules.enumerate_indecomposables`, which keeps a string
    only where its start sorts first: the former route, every walk built and
    deduplicated by its nodes and paths."""
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


def reference_weights(mod):
    """Checks `Comodule.weights`, which reads only nonzero entries: the
    former route, a dict for every entry."""
    trivial = [[{p.start: c for p, c in e.terms.items() if p.length == 0} for e in row]
               for row in mod.coaction]
    w = [next(iter(row[i]), None) for i, row in enumerate(trivial)]
    adapted = all(t == ({w[i]: 1} if i == j else {})
                  for i, row in enumerate(trivial) for j, t in enumerate(row))
    return w if adapted else None
