"""Finite-dimensional right comodules over truncated subcoalgebras.

A comodule is stored by its coaction matrix: rho(m_j) = sum_i m_i (x) c[i][j]
with entries in a fixed SubCoalgebra, satisfying the comatrix identities
Delta(c_ij) = sum_l c_il (x) c_lj and eps(c_ij) = delta_ij.

The vertex duals e_g* are orthogonal idempotents summing to 1 on a comodule,
so M is the sum of its blocks M_g and comodule maps preserve them (Chin and
Montgomery, Basic coalgebras, 1997).  Every builder's basis is adapted: the
length-0 part of its coaction is the diagonal of trivial paths e_g with
coefficient 1.  `hom` then solves only for same-vertex entries; a basis that
is not adapted, such as a user's, is solved whole as one block.

The module builds the simple / string / diamond / band comodules over the
grid-window coalgebras, computes Hom spaces and endomorphism rings exactly,
decides indecomposability, and settles discreteness of the corepresentation
type.  Strings and bands are alternating walks (`_zigzag`); every builder
fills its coaction with the truncation's certified images
(`Truncation.image_of`), and `_comodule` proves the comodule axioms of what
it builds, so validation runs only on a coaction given to `Comodule`.

Coaction coefficients, Hom matrices, traces and constants are the values
`scalar.bare` gives, a CycScalar only if irrational; `cyc` boxes only the
public returns `Comodule.dimension_vector` and `HomSpace.basis`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count, permutations

from .coalgebra import CoElement
from .errors import (
    AmbientMismatch,
    InvalidDescription,
    InvalidSpec,
    NotDiscreteParams,
    RequiresMEqualsN,
)
from .hopf import _truncation
from .linalg import SparseBasis, accumulate, nullspace, tensor_axpy
from .quiver import grid_vertex_label
from .scalar import bare, cyc


class Comodule:
    """A right comodule given by a coaction matrix over a subcoalgebra."""

    def __init__(self, coalgebra, coaction, labels=None, validate=True):
        self.coalgebra = coalgebra
        self.coaction = [list(row) for row in coaction]
        self.dim = len(self.coaction)
        if any(len(row) != self.dim for row in self.coaction):
            raise InvalidDescription("coaction matrix must be square")
        self.labels = list(labels) if labels else [f"m{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise InvalidDescription(
                f"{len(self.labels)} labels for a comodule of dimension {self.dim}")
        if validate:
            self._validate()

    @cached_property
    def weights(self):
        """The vertex g of each basis vector if the basis is adapted (the length-0
        part of the coaction is the diagonal of trivial paths e_g, each with
        coefficient 1), else None.  Only the terms of nonzero entries are read."""
        trivial = [(i, j, p.start, c) for i, row in enumerate(self.coaction)
                   for j, e in enumerate(row) if e.terms
                   for p, c in e.terms.items() if p.length == 0]
        adapted = [(i, j, c) for i, j, _, c in trivial] == [(i, i, 1) for i in range(self.dim)]
        return [g for _, _, g, _ in trivial] if adapted else None

    def _validate(self):
        c = self.coaction
        for i in range(self.dim):
            for j in range(self.dim):
                entry = c[i][j]
                if not entry.is_zero() and not self.coalgebra.contains(entry):
                    raise InvalidDescription(
                        f"coaction entry ({i},{j}) leaves the coalgebra"
                    )
                if sum(c for p, c in entry.terms.items() if p.length == 0) != (1 if i == j else 0):
                    raise InvalidDescription(
                        f"counit law fails at entry ({i},{j}): eps = {entry.counit()}")
                rhs = {}
                for l in range(self.dim):
                    tensor_axpy(rhs, 1, c[i][l].terms, c[l][j].terms)
                lhs = entry.delta_dict()
                if lhs != rhs:
                    k = min(x for x in lhs.keys() | rhs.keys() if lhs.get(x) != rhs.get(x))
                    raise InvalidDescription(
                        f"comatrix identity fails at entry ({i},{j}): at ({k[0]}, {k[1]}) "
                        f"Delta gives {lhs.get(k, 0)}, sum_l c_il (x) c_lj gives {rhs.get(k, 0)}")

    def dimension_vector(self):
        """Composition multiplicities, keyed by grouplike vertex."""
        out = {}
        for i in range(self.dim):
            for p, coeff in self.coaction[i][i].terms.items():
                if p.length == 0:
                    accumulate(out, p.start, coeff)
        return {v: cyc(c) for v, c in out.items()}

    def to_json(self):
        return {
            "dimension": self.dim,
            "labels": self.labels,
            "coaction": [[str(e) for e in row] for row in self.coaction],
        }

    def __repr__(self):
        return f"Comodule(dim {self.dim})"


def direct_sum(m1, m2):
    _check_ambient(m1, m2)
    d1, d2 = m1.dim, m2.dim
    zero = CoElement(m1.coalgebra.quiver, {})
    c = [[zero] * (d1 + d2) for _ in range(d1 + d2)]
    for i, row in enumerate(m1.coaction):
        c[i][:d1] = row
    for i, row in enumerate(m2.coaction):
        c[d1 + i][d1:] = row
    labels = [f"l.{x}" for x in m1.labels] + [f"r.{x}" for x in m2.labels]
    out = Comodule(m1.coalgebra, c, labels, validate=False)
    out.weights = None if None in (m1.weights, m2.weights) else m1.weights + m2.weights
    return out


def _check_ambient(m1, m2):
    if m1.coalgebra is not m2.coalgebra and m1.coalgebra.quiver != m2.coalgebra.quiver:
        raise AmbientMismatch("comodules over different coalgebras")


class HomSpace:
    """Basis of comodule morphisms M -> N, as dim(N) x dim(M) matrices:
    `matrices` holds them bare, as `nullspace` gives them, and `basis`
    boxes every entry with `cyc`."""

    def __init__(self, source, target, matrices):
        self.source = source
        self.target = target
        self.matrices = matrices

    @property
    def basis(self):
        return [[[cyc(x) for x in row] for row in f] for f in self.matrices]

    @property
    def dim(self):
        return len(self.matrices)


def hom(m1, m2):
    """All f with rho_N(f(m)) = (f (x) id)(rho_M(m)), solved on vertex blocks.

    On adapted bases (`Comodule.weights`) f[r][c] is an unknown only where N's
    vector r and M's vector c lie over one vertex, as the length-0 equations
    force the other entries to 0; otherwise every entry is.  With the unknowns
    in the order of r * dim M + c, one equation per (l, j, path) gives the full
    system's free columns and basis, in the coaction's values as stored.  The
    equations are built from the nonzero coaction terms alone, each feeding
    the (l, j) whose unknown it meets, and reach `nullspace` in (l, j) order,
    as a loop over every pair of basis vectors would build them."""
    _check_ambient(m1, m2)
    dm, dn = m1.dim, m2.dim
    w1, w2 = m1.weights, m2.weights
    if w1 is None or w2 is None:  # one block: every entry is an unknown
        w1, w2 = [0] * dm, [0] * dn
    number = count()  # col[r][c] is the number of the unknown f[r][c], or None
    col = [[next(number) if g == h else None for h in w1] for g in w2]
    over1, over2 = {}, {}  # vertex -> the basis vectors of M, of N over it
    for over, w in ((over1, w1), (over2, w2)):
        for r, g in enumerate(w):
            over.setdefault(g, []).append(r)
    eqs = {}  # (l, j) -> path -> that equation's row
    # a term of N's c_lk meets f[k][j], an unknown only for j over k's vertex;
    # each (k, path) is met once per (l, j), so these entries are new
    for l, row in enumerate(m2.coaction):
        for k, e in enumerate(row):
            for j in over1.get(w2[k], ()) if e.terms else ():
                per_path = eqs.setdefault((l, j), {})
                for p, c in e.terms.items():
                    per_path.setdefault(p, {})[col[k][j]] = c
    # a term of M's c_ij meets f[l][i], an unknown only for l over i's vertex
    for i, row in enumerate(m1.coaction):
        for j, e in enumerate(row):
            for l in over2.get(w1[i], ()) if e.terms else ():
                per_path = eqs.setdefault((l, j), {})
                for p, c in e.terms.items():
                    accumulate(per_path.setdefault(p, {}), col[l][i], -c)
    # in (l, j) order, the rows of the all-pairs loop: those that meet a term
    rows = [row for lj in sorted(eqs) for row in eqs[lj].values() if row]
    return HomSpace(m1, m2, [
        [[0 if x is None else vec[x] for x in row] for row in col]
        for vec in nullspace(rows, next(number))
    ])


def _mat_rank(mat):
    engine = SparseBasis()
    for row in mat:
        engine.add(dict(enumerate(row)))
    return engine.dim


def _trace_rank(fs, gs):
    """Rank of the pairing (f, g) -> tr(f g) = sum_ab f[a][b] g[b][a]."""
    engine = SparseBasis()
    for f in fs:
        entries = [(a, b, x) for a, row in enumerate(f) for b, x in enumerate(row) if x]
        traces = [sum((x * g[b][a] for a, b, x in entries if g[b][a]), 0) for g in gs]
        engine.add(dict(enumerate(traces)))
    return engine.dim


def is_indecomposable(mod):
    """True iff End(M) is local, via the trace-form radical (char 0)."""
    end = hom(mod, mod).matrices
    return _trace_rank(end, end) == 1


def are_isomorphic(m1, m2):
    """Exact isomorphism test (characteristic 0).

    One positive proof comes first: sum_i (i + 1) f_i over the Hom(M, N)
    basis, f_0 itself when Hom has dimension 1, of full rank.  Otherwise the
    trace pairings decide.  For S = End(M + N)/rad and e, e' the projections
    onto M and N, the pairings (f, g) -> tr(f g) on End(M), on Hom(M, N) x
    Hom(N, M) and on End(N) have ranks dim eSe, dim eSe' and dim e'Se'.  Over
    the simple blocks M_n(D) of S, where e and e' have ranks r and r', these
    are the sums of r^2, r r' and r'^2 times dim D.  If they agree, the sum
    of (r - r')^2 dim D vanishes, so e ~ e' in S.  Equivalence of idempotents
    lifts modulo the radical (Lam, A First Course in Noncommutative Rings,
    section 21), and e ~ e' in End(M + N) means M is isomorphic to N.
    Differing dimensions are answered first, as dimension is an isomorphism
    invariant."""
    if m1.dim != m2.dim:
        return False
    forth = hom(m1, m2).matrices
    combo = [[sum((f[r][c] * (idx + 1) for idx, f in enumerate(forth) if f[r][c]), 0)
              for c in range(m1.dim)] for r in range(m1.dim)]
    if _mat_rank(combo) == m1.dim:
        return True
    pairing = _trace_rank(forth, hom(m2, m1).matrices) if forth else 0
    end1 = hom(m1, m1).matrices
    if _trace_rank(end1, end1) != pairing:
        return False
    end2 = hom(m2, m2).matrices
    return _trace_rank(end2, end2) == pairing


# -- socle series ------------------------------------------------------------


def socle_series_dims(mod):
    """Dimensions of the socle layers, bottom first.

    soc^n M = rho^-1(M (x) C_{n-1}), and C_{n-1} is C intersected with the
    paths of length < n (Montgomery 1993, 5.2).  So v lies in soc^n M iff
    sum_j v_j c_ij has no path of length >= n for every i, and dim soc^n M
    is dim M minus the rank of the rows {j: c_ij[p]} with p of length >= n,
    read off one elimination that adds the rows longest first."""
    rows = {}  # length n -> {(i, p): {j: c_ij[p]}} over the paths p of length n
    for i, row in enumerate(mod.coaction):
        for j, entry in enumerate(row):
            for p, coeff in entry.terms.items():
                if p.length > 0:
                    rows.setdefault(p.length, {}).setdefault((i, p), {})[j] = coeff
    engine = SparseBasis()
    socles = [mod.dim]  # dim soc^n M for n = top + 1 down to 1
    for n in range(max(rows, default=0), 0, -1):
        for r in rows.get(n, {}).values():
            engine.add(r)
        socles.append(mod.dim - engine.dim)
    dims, below = [], 0
    for soc in reversed(socles):
        if below == mod.dim:
            break
        if soc == below:
            raise InvalidDescription("socle vanished on a nonzero comodule")
        dims.append(soc - below)
        below = soc
    return dims


def loewy_length(mod):
    return len(socle_series_dims(mod))


# -- constructions over grid windows -----------------------------------------


class StringSpec:
    """An alternating zig-zag walk: start position, first letter 'x' or 'y',
    number of arrows, and whether the first step ascends (walk starts at a
    valley) or descends (starts at a peak)."""

    def __init__(self, start, first_letter, length, up_first=False):
        self.start = tuple(start)
        self.first_letter = first_letter
        self.length = length
        self.up_first = up_first

    def __repr__(self):
        return (
            f"StringSpec({self.start}, {self.first_letter!r}, "
            f"{self.length}, up_first={self.up_first})"
        )


# the grid step of each arrow letter, which is also the (p, q) of its image key
_LETTERS = {"x": (1, 0), "y": (0, 1)}


def _zigzag(params, start, letter, length, up_first):
    """The alternating walk of `length` arrows from `start`: its canonical
    nodes and its arrows as coaction entries (source index, target index,
    (p, q), 1).  A descending step follows its arrow, an ascending one runs
    against it; the letters and the directions alternate."""
    if letter not in _LETTERS:
        raise InvalidSpec(f"unknown step letter {letter!r}")
    nodes, arrows, down = [params.canon(*start)], [], not up_first
    for k in range(length):
        (i, j), (di, dj) = nodes[-1], _LETTERS[letter]
        sign = 1 if down else -1
        nodes.append(params.canon(i + sign * di, j + sign * dj))
        arrows.append((k, k + 1, (di, dj), 1) if down else (k + 1, k, (di, dj), 1))
        down, letter = not down, "y" if letter == "x" else "x"
    return nodes, arrows


def _comodule(trunc, nodes, entries, labels=None):
    """The comodule with one basis vector (slot) per node g, e_g on the
    diagonal, and c times the image of nodes[r] x^p y^q added at (r, col) for
    each entry (r, col, (p, q), c); the labels default to the nodes' vertex
    labels.  Built unvalidated: every entry is a sum of certified images, e_g
    has counit 1 and a longer path 0, and the comatrix identity holds.  The
    arrow at nodes[r] ends at nodes[col], as canon is the quotient map
    (`group_canonical_pair`).  On a string or band each off-diagonal c_ij
    is a combination of such arrows, i a source slot and j a sink slot, no slot
    being both, so c_il (x) c_lj = 0 for l not in {i, j} and Delta(c_ij) = c_ii (x)
    c_ij + c_ij (x) c_jj, 0 where c_ij = 0.  A diamond is upper triangular
    with c12 = 0, which gives the same on its arrows, and Delta(xy - lam*yx)
    adds x (x) y - lam*y (x) x = c01 (x) c13 + c02 (x) c23 to it."""
    zero = CoElement(trunc.quiver, {})
    c = [[zero] * len(nodes) for _ in nodes]
    for r, g in enumerate(nodes):
        c[r][r] = trunc.image_of(*g, 0, 0)
    for r, col, (p, q), coeff in entries:
        c[r][col] = c[r][col] + trunc.image_of(*nodes[r], p, q) * coeff
    return Comodule(trunc.coalgebra, c, labels or [grid_vertex_label(*g) for g in nodes],
                    validate=False)


def build_simple(trunc, i, j):
    return _comodule(trunc, [trunc.params.canon(i, j)], [])


def build_string(trunc, spec):
    """The string comodule of an alternating walk.

    Basis: one vector per walk node; each walk arrow u -> w contributes
    m_u (x) arrow to the coaction of the node at w."""
    if spec.length < 1:
        raise InvalidSpec("string needs at least one arrow")
    nodes, arrows = _zigzag(trunc.params, spec.start, spec.first_letter, spec.length,
                            spec.up_first)
    if len(set(nodes)) != len(nodes):
        raise InvalidSpec("walk revisits a node; use a band instead")
    return _comodule(trunc, nodes, arrows)


def build_diamond(trunc, i, j):
    """The 4-dimensional comodule with socle at a^i b^j and top at
    a^{i+1} b^{j+1}."""
    params = trunc.params
    i, j = params.canon(i, j)
    nodes = [(i, j)] + [params.canon(i + di, j + dj) for di, dj in ((1, 0), (0, 1), (1, 1))]
    entries = [(0, 1, (1, 0), 1), (0, 2, (0, 1), 1), (0, 3, (1, 1), 1),
               (1, 3, (0, 1), 1), (2, 3, (1, 0), -bare(params.lam))]
    return _comodule(trunc, nodes, entries)


def build_band_family(params, length, mus, truncation=None):
    """Band comodules for m = n != 0: the closed zig-zag of 2 * length arrows
    from (0, 0), peaks (t, -t) and valleys (t + 1, -t), which closes as
    a^n = b^n.  The basis lists the peaks, then the valleys, and the scalar
    mu sits on the closing arrow."""
    if params.m != params.n or params.m == 0:
        raise RequiresMEqualsN("bands exist only for m = n != 0")
    n = params.n
    if length % n != 0 or length <= 0:
        raise InvalidSpec(f"band period must be a positive multiple of {n}")
    if not all(map(bare, mus)):
        raise InvalidSpec("band parameter mu must be nonzero")
    trunc = _truncation(params, n, truncation, any_radius=True)
    nodes, arrows = _zigzag(params, (0, 0), "x", 2 * length, False)
    # walk node k is peak k / 2 (the last one is peak 0) or valley (k - 1) / 2
    slot = [k // 2 % length if k % 2 == 0 else length + k // 2 for k in range(len(nodes))]
    labels = [f"p{t}" for t in range(length)] + [f"v{t}" for t in range(length)]
    return [
        _comodule(trunc, nodes[0:-1:2] + nodes[1::2], [
            (slot[src], slot[tgt], pq, bare(mu) if src == 2 * length else 1)
            for src, tgt, pq, _ in arrows
        ], labels)
        for mu in mus
    ]


# -- enumeration and discreteness --------------------------------------------


def enumerate_indecomposables(params, radius, max_total_dim, truncation=None):
    """All simples, strings, and diamonds fully supported in the window, up to
    the total-dimension bound, pairwise non-isomorphic.

    The string modules of a walk w and of its reverse are isomorphic, and no
    others are (Butler and Ringel, Comm. Algebra 15, 1987).  Both ends of a
    string supported in the window start a walk of the loop below, so each
    string is kept from the end met first: where (start, first letter,
    up_first) of w sorts before that of its reverse.  The two starts are the
    walk's distinct end nodes, so they alone decide."""
    if params.m == params.n and params.m != 0:
        raise NotDiscreteParams("enumeration requires m != n or m = n = 0")
    trunc = _truncation(params, radius, truncation)
    window = set(trunc.window)
    out = []
    if max_total_dim >= 1:
        for g in sorted(window):
            out.append(("simple", (g,), build_simple(trunc, *g)))
    if max_total_dim >= 4:
        for g in sorted(window):
            corners = [g] + [params.canon(g[0] + di, g[1] + dj)
                             for di, dj in ((1, 0), (0, 1), (1, 1))]
            if all(v in window for v in corners) and len(set(corners)) == 4:
                out.append(("diamond", (g,), build_diamond(trunc, *g)))
    for g in sorted(window):
        for first in ("x", "y"):
            for up_first in (False, True):
                nodes, arrows = _zigzag(params, g, first, max_total_dim - 1, up_first)
                for length in range(1, max_total_dim):
                    end = nodes[length]
                    if end not in window or end in nodes[:length]:
                        break
                    if g < end:
                        mod = _comodule(trunc, nodes[:length + 1], arrows[:length])
                        out.append(("string", frozenset(mod.labels), mod))
    return [
        {"kind": kind, "support": support, "module": mod}
        for kind, support, mod in out
    ]


# the band parameters mu of the witness family
BAND_MUS = (1, 2, 3)


def decide_discrete(params):
    """Discrete iff m != n or m = n = 0; otherwise returns a band-family
    witness of pairwise hom-orthogonal equal-dimension-vector
    indecomposables."""
    if params.m != params.n or params.m == 0:
        return {"discrete": True, "witness": None}
    mods = build_band_family(params, params.n, list(BAND_MUS))
    pairwise = all(hom(a, b).dim == 0 for a, b in permutations(mods, 2))
    witness = {
        "band_parameters": [str(cyc(mu)) for mu in BAND_MUS],
        "dimension": mods[0].dim,
        "dimension_vectors_equal": all(
            m.dimension_vector() == mods[0].dimension_vector() for m in mods
        ),
        "pairwise_hom_orthogonal": pairwise,
        "all_indecomposable": all(is_indecomposable(m) for m in mods),
        "modules": [m.to_json() for m in mods],
    }
    return {"discrete": False, "witness": witness}
