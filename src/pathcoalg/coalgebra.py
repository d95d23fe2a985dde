"""Finite-dimensional pointed subcoalgebras of path coalgebras.

Elements are sparse linear combinations of paths, with bare rational or
CycScalar coefficients (see `CoElement`); comultiplication splits paths.
Every vector, structure constant and constant here is the value
`scalar.bare` gives, a CycScalar only if irrational; `cyc` boxes a scalar
only where a public function returns one: `CoElement.coefficient` and
`counit` and `SubCoalgebra.coords`.
The module provides diamond bases, skew-primitive spaces, Ext-quivers, the
coradical filtration, covering-map verification, dual algebras,
separability-element checks, and localization of dual algebras.

The coradical filtration of a subcoalgebra C of a path coalgebra is C
intersected with the path-length filtration (Montgomery, *Hopf algebras and
their actions on rings*, 1993, 5.2), so both it and the Ext-quiver are read
off one elimination of C that pivots each row on its longest path.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter

from .errors import (
    AmbientMismatch,
    BasisNotDiamond,
    EmptySubset,
    InvalidDescription,
    InvalidMorphism,
    NotACovering,
    NotClosedUnderDelta,
    NotGrouplike,
    NotPointed,
    ParseError,
    PathcoalgError,
    UnknownVertex,
)
from .linalg import SparseBasis, SparseElement, accumulate, axpy, tensor_axpy
from .quiver import Path, Quiver
from .scalar import cyc, parse_scalar


class CoElement(SparseElement):
    """A sparse linear combination of paths in a fixed ambient quiver.  A
    coefficient is stored as `bare` gives it (a CycScalar only if irrational);
    `coefficient` and `counit` return CycScalars."""

    __slots__ = ()
    mismatch = AmbientMismatch
    quiver = property(attrgetter("ambient"))
    _format_key = staticmethod(str)

    def support(self):
        return sorted(self.terms)

    def coefficient(self, path):
        return cyc(self.terms.get(path, 0))

    def delta(self):
        """Comultiplication: list of (left path, right path, coefficient).
        A path is the only concatenation of each of its splits, so no two
        terms share a split."""
        out = []
        for path, coeff in self.terms.items():
            for k in range(path.length + 1):
                left = Path(path.start, path.arrows[:k])
                out.append((left, Path(left.target(self.quiver), path.arrows[k:]), coeff))
        return out

    def delta_dict(self):
        return {(l, r): c for l, r, c in self.delta()}

    def counit(self):
        return cyc(sum(c for path, c in self.terms.items() if path.length == 0))


def path_element(quiver, path, coeff=1):
    if not path.is_valid(quiver):
        raise InvalidDescription(f"path {path!r} is not valid in the quiver")
    return CoElement(quiver, {path: coeff})


def grouplike(quiver, v):
    return path_element(quiver, quiver.trivial_path(v))


def parse_path(quiver, text):
    text = text.strip()
    if text.startswith("e_"):
        v = text[2:]
        if v not in quiver.vertex_set:
            raise ParseError(f"unknown vertex in path {text!r}")
        return Path(v)
    if text.startswith("(") and text.endswith(")"):
        ids = [a.strip() for a in text[1:-1].split("|")]
        if not ids or any(not a for a in ids):
            raise ParseError(f"bad path {text!r}")
        first = ids[0]
        if first not in quiver.arrow_by_id:
            raise ParseError(f"unknown arrow {first!r}")
        p = Path(quiver.arrow(first)[1], tuple(ids))
        if not p.is_valid(quiver):
            raise ParseError(f"non-composable path {text!r}")
        return p
    raise ParseError(f"bad path syntax {text!r}")


class Diamond:
    """A basis element whose supported paths share a source and a sink."""

    __slots__ = ("element", "source", "sink")

    def __init__(self, element, source, sink):
        self.element = element
        self.source = source
        self.sink = sink

    def __eq__(self, other):
        if not isinstance(other, Diamond):
            return NotImplemented
        return self.element == other.element

    def __hash__(self):
        return hash(self.element)

    def __repr__(self):
        return f"Diamond({self.element}, {self.source}->{self.sink})"


def _eliminate(quiver, basis):
    """An engine of the basis, tagged 0, 1, ...; raises on a zero element,
    one in another quiver, or a dependent one."""
    engine = SparseBasis(coords=True)
    for i, b in enumerate(basis):
        if b.is_zero():
            raise InvalidDescription("zero element in basis")
        if b.quiver != quiver:
            raise AmbientMismatch("basis element in wrong quiver")
        if not engine.add(dict(b.terms), i):
            raise InvalidDescription("basis is linearly dependent")
    return engine


class SubCoalgebra:
    """A finite-dimensional subcoalgebra of a path coalgebra, given by a basis.

    The basis is eliminated at construction (`_eliminate`); with `validate`,
    closure under comultiplication and the grouplikes are verified too.
    """

    _diamonds = _levels = None

    def __init__(self, quiver, basis, validate=True):
        self.quiver = quiver
        self.basis = list(basis)
        self._engine = _eliminate(quiver, self.basis)
        if validate:
            self._validate()

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, element):
        return self._engine.contains(element.terms)

    def coords(self, element):
        """Coordinates in the stored basis, or None."""
        comb = self._engine.coords(element.terms)
        if comb is None:
            return None
        return [cyc(comb.get(i, 0)) for i in range(self.dim)]

    def vertices_used(self):
        vs = set()
        for b in self.basis:
            for p in b.terms:
                vs.add(p.start)
                vs.add(p.target(self.quiver))
        return sorted(vs)

    def _validate(self):
        for b in self.basis:
            dd = b.delta_dict()
            rows, cols = {}, {}
            for (l, r), c in dd.items():
                rows.setdefault(l, {})[r] = c
                cols.setdefault(r, {})[l] = c
            for parts, side in ((rows, "right"), (cols, "left")):
                for part in parts.values():
                    if not self._engine.contains(part):
                        raise NotClosedUnderDelta(
                            f"delta({b}) leaves the span ({side} tensor factor)")
        for v in self.vertices_used():
            if not self.contains(grouplike(self.quiver, v)):
                raise NotClosedUnderDelta(f"missing grouplike at vertex {v!r}")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "quiver": self.quiver.to_json(),
            "basis": [
                [[str(p), str(b.terms[p])] for p in b.support()] for b in self.basis
            ],
        }

    @staticmethod
    def from_json(data):
        try:
            quiver = Quiver.from_json(data["quiver"])
            basis = []
            for entry in data["basis"]:
                terms = {}
                for path_str, scalar_str in entry:
                    if not isinstance(path_str, str):
                        raise ParseError(f"path {path_str!r} is not a string")
                    path = parse_path(quiver, path_str)
                    if path in terms:
                        raise ParseError(f"path {path_str!r} listed twice in a basis element")
                    terms[path] = parse_scalar(scalar_str)
                basis.append(CoElement(quiver, terms))
        except PathcoalgError:  # many are ValueErrors; they keep their own code
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad coalgebra JSON: {exc}") from exc
        return SubCoalgebra(quiver, basis)

    def __repr__(self):
        return f"SubCoalgebra(dim {self.dim} in {self.quiver!r})"


def path_coalgebra(quiver, max_length):
    """The subcoalgebra spanned by all paths of length <= max_length."""
    basis = [path_element(quiver, p) for p in quiver.paths_up_to(max_length)]
    return SubCoalgebra(quiver, basis, validate=False)


def span_subcoalgebra(quiver, elements):
    """Subcoalgebra spanned by the given elements (dependencies dropped),
    validated."""
    engine = SparseBasis()
    basis = []
    for e in elements:
        if not e.is_zero() and engine.add(dict(e.terms)):
            basis.append(e)
    return SubCoalgebra(quiver, basis)


def diamond_basis(coalg):
    """A basis of diamonds, grouped by (source, sink); grouplikes come first in
    their block and the other loop-block diamonds are normalized to counit 0.
    `coalg._diamonds` keeps them with their elimination, tagged by index."""
    if coalg._diamonds is not None:
        return coalg._diamonds[0]
    quiver = coalg.quiver
    blocks = {}
    for b in coalg.basis:
        comps = {}
        for p, c in b.terms.items():
            comps.setdefault((p.start, p.target(quiver)), {})[p] = c
        for key, terms in comps.items():
            comp = CoElement(quiver, terms)
            if not coalg.contains(comp):
                raise NotClosedUnderDelta(
                    "bidegree component leaves the subcoalgebra"
                )
            blocks.setdefault(key, []).append(comp)
    diamonds = []
    engine = SparseBasis(coords=True)
    for key in sorted(blocks):
        u, v = key
        members, e_v = blocks[key], CoElement(quiver, {Path(v): 1})  # v ends a path: a vertex
        if u == v and coalg.contains(e_v):
            if engine.add(dict(e_v.terms), len(diamonds)):
                diamonds.append(Diamond(e_v, v, v))
            members = [c - e_v * c.counit() for c in members]
        for comp in members:
            if not comp.is_zero() and engine.add(dict(comp.terms), len(diamonds)):
                diamonds.append(Diamond(comp, u, v))
    if len(diamonds) != coalg.dim:
        raise BasisNotDiamond("diamond decomposition does not span")
    coalg._diamonds = diamonds, engine
    return diamonds


def skew_primitives(coalg, g, h):
    """Basis of P(g,h) = {x : delta(x) = e_g (x) x + x (x) e_h}: e_g - e_h when
    g != h, then each `_rows_by_length` row pivoting on an arrow g -> h, by
    the proof `ext_quiver` counts them with.  Such a row is its own (g,
    h)-block: C is the sum of its blocks, whose supports are disjoint, so a
    fully reduced row lies in one.  Raises NotGrouplike unless e_g and e_h
    lie in C, and NotPointed as `coradical_filtration`."""
    levels = _rows_by_length(coalg)
    grouplikes = {p.start for p, _ in levels[0]}
    for v in (g, h):
        if v not in grouplikes:
            raise NotGrouplike(f"{v!r} is not grouplike in the subcoalgebra")
    quiver = coalg.quiver
    basis = [] if g == h else [CoElement(quiver, {Path(g): 1, Path(h): -1})]
    return basis + [row for p, row in levels.get(1, ()) if p.start == g and p.target(quiver) == h]


def _rows_by_length(coalg):
    """{n: [(pivot, row)]} in pivot order for the rows, pivoting on length n,
    of one fully reduced basis of C keyed by (-length, path).  A row's other
    paths are no longer than its pivot, and a combination of rows contains
    the longest pivot it uses, so the rows of length <= n span C intersected
    with the paths of length <= n.  Raises NotPointed unless those of length
    0 are single vertices, that is unless grouplikes span that intersection.
    `coalg._levels` keeps them, as `coalg._diamonds` keeps the diamonds."""
    if coalg._levels is not None:
        return coalg._levels
    engine = SparseBasis()
    for b in coalg.basis:
        engine.add({(-p.length, p): c for p, c in b.terms.items()})
    levels = {}
    for (_, pivot), row in sorted(engine.rows.items(), key=lambda item: item[0][1]):
        element = CoElement(coalg.quiver, {p: c for (_, p), c in row.items()})
        levels.setdefault(pivot.length, []).append((pivot, element))
    if not levels.get(0) or any(len(row.terms) != 1 for _, row in levels[0]):
        raise NotPointed("the coradical is not spanned by grouplikes")
    coalg._levels = levels
    return levels


def coradical_filtration(coalg):
    """The chain C_0 <= C_1 <= ... ending at C; returns (chain, loewy_length).

    C_n = {x : delta(x) in C_{n-1} (x) C + C (x) C_0} is C intersected with
    the paths of length <= n (Montgomery 1993, 5.2), the span of the rows of
    `_rows_by_length` up to length n; the Loewy length is the longest row
    length + 1.  Raises NotPointed when grouplikes do not span C_0."""
    levels = _rows_by_length(coalg)
    top = max(levels)
    chain, members = [], []
    for n in range(top + 1):
        members += [row for _, row in levels.get(n, ())]
        chain.append(SubCoalgebra(coalg.quiver, members, validate=False))
    return chain, top + 1


def ext_quiver(coalg):
    """The quiver with vertices the grouplikes and dim P(g,h) - [g != h]
    arrows g -> h, the Gabriel quiver of the dual algebra (Chin-Montgomery,
    "Basic coalgebras", 1997); raises NotPointed as `coradical_filtration`.

    P(g, h) is e_g - e_h (g != h) plus the combinations of arrows g -> h in
    C, as many as `_rows_by_length` rows pivoting on an arrow g -> h: the
    (g, h)-block of such a row lies in C, and without its e_g term it is
    (g, h)-primitive; the rows are independent at their pivots, and a
    combination of arrows in C uses only rows with arrow pivots."""
    levels = _rows_by_length(coalg)
    counts = Counter((p.start, p.target(coalg.quiver)) for p, _ in levels.get(1, ()))
    arrows = [(f"p{k}@{g}>{h}", g, h)
              for (g, h), count in sorted(counts.items()) for k in range(count)]
    return Quiver([p.start for p, _ in levels[0]], arrows)


def _delta_over_basis(element, engine):
    """Coefficients of delta(element) over basis (x) basis, keyed by index
    pairs (i, j), read off `crows` of an engine of the basis tagged 0, 1, ...
    (a reduced row is 1 at its pivot and 0 at the other pivots)."""
    lookup = engine.crows
    out = {}
    for (l, r), c in element.delta_dict().items():
        cl = lookup.get(l)
        cr = lookup.get(r)
        if cl is not None and cr is not None:
            tensor_axpy(out, c, cl, cr)
    return out


class CoalgebraMap:
    """A linear map between subcoalgebras, given by images of the domain basis."""

    def __init__(self, domain, codomain, images):
        self.domain = domain
        self.codomain = codomain
        self.images = list(images)
        if len(self.images) != domain.dim:
            raise InvalidMorphism("one image per domain basis element required")
        for img in self.images:
            if not codomain.contains(img):
                raise InvalidMorphism("image leaves the codomain")

    def apply(self, element):
        """The images summed over the element's bare coordinates, as the
        domain's engine gives them; raises InvalidMorphism outside the domain."""
        comb = self.domain._engine.coords(element.terms)
        if comb is None:
            raise InvalidMorphism("element outside the domain")
        tags = sorted(comb)
        return CoElement.combination(self.codomain.quiver, [comb[i] for i in tags],
                                     [self.images[i] for i in tags])

    def coalgebra_map_failure(self):
        """None if the map is a coalgebra homomorphism, else a witness."""
        for b, img in zip(self.domain.basis, self.images):
            if b.counit() != img.counit():
                return {"element": str(b), "axiom": "counit"}
            # delta(pi(b)) must equal (pi (x) pi)(delta(b))
            lhs = img.delta_dict()
            rhs = {}
            for (i, j), c in _delta_over_basis(b, self.domain._engine).items():
                tensor_axpy(rhs, c, self.images[i].terms, self.images[j].terms)
            if lhs != rhs:
                return {"element": str(b), "axiom": "comultiplication"}
        return None


def verify_covering(pi, basis_dom, basis_cod):
    """Check the covering conditions for pi with the given diamond bases,
    lists of `Diamond`s such as `diamond_basis` gives.

    Returns (ok, report); on failure the report carries a counterexample."""
    report = {
        "domain_basis_size": len(basis_dom),
        "codomain_basis_size": len(basis_cod),
        "counterexample": None,
    }

    def fail(reason, witness=None):
        report["counterexample"] = {"reason": reason, "witness": witness}
        report["is_covering"] = False
        return False, report

    for coalg, basis, name in ((pi.domain, basis_dom, "domain"),
                               (pi.codomain, basis_cod, "codomain")):
        engine = SparseBasis()
        for d in basis:
            if not coalg.contains(d.element):
                raise BasisNotDiamond(f"{name} basis element outside the coalgebra")
            if not engine.add(dict(d.element.terms)):
                raise BasisNotDiamond(f"{name} basis is linearly dependent")
        if engine.dim != coalg.dim:
            raise BasisNotDiamond(f"{name} basis does not span")
        elems = {d.element for d in basis}
        for v in coalg.quiver.vertices:
            if grouplike(coalg.quiver, v) not in elems:
                raise BasisNotDiamond(f"{name} basis must contain every vertex")
        for aid, src, _dst in coalg.quiver.arrows:
            arrow_elem = path_element(coalg.quiver, Path(src, (aid,)))
            if arrow_elem not in elems:
                raise BasisNotDiamond(f"{name} basis must contain every arrow")

    witness = pi.coalgebra_map_failure()
    if witness is not None:
        return fail("not a coalgebra map", witness)

    cod_elems = {d.element for d in basis_cod}
    images = {}
    for d in basis_dom:
        img = pi.apply(d.element)
        if img not in cod_elems:
            return fail("image of a basis diamond is not a basis diamond", str(d.element))
        images[d] = img
    if {i for i in images.values()} != cod_elems:
        return fail("basis image does not cover the codomain basis")

    for i, d1 in enumerate(basis_dom):
        for d2 in basis_dom[i + 1 :]:
            if d1.source == d2.source or d1.sink == d2.sink:
                if images[d1] == images[d2]:
                    return fail(
                        "two diamonds with shared source or sink have equal image",
                        [str(d1.element), str(d2.element)],
                    )
    report["is_covering"] = True
    return True, report


def map_path(morphism, path):
    v = morphism.vertex_map[path.start]
    return Path(v, tuple(morphism.arrow_map[a] for a in path.arrows))


def push_forward(coalg, morphism):
    """The images of the basis of `coalg` under the map of path coalgebras
    that a valid quiver morphism induces, path by path."""
    images = []
    for b in coalg.basis:
        terms = {}
        for p, c in b.terms.items():
            accumulate(terms, map_path(morphism, p), c)
        images.append(CoElement(morphism.codomain, terms))
    return images


class DualAlgebra:
    """A finite-dimensional algebra by structure constants, with distinguished
    orthogonal idempotents (one per grouplike of the dualized coalgebra).

    Elements are sparse dicts {index: scalar} over the basis d_0 .. d_{dim-1},
    storing no zero; `structure` maps (i, j) to the sparse vector d_i d_j.
    The algebra is pointed in this basis: each idempotent is one basis vector
    with coefficient 1, and the other basis vectors span the Jacobson
    radical.  `dualize` gives this shape, since rad(C*) = C_0^perp for a
    pointed coalgebra C, and `localize` keeps it, since e d_k e is d_k or 0."""

    def __init__(self, dim, structure, idempotents):
        self.dim = dim
        self.structure = structure
        # (label, vector) pairs, each vector {k: 1}
        self.idempotents = list(idempotents)
        for label, vec in self.idempotents:
            if list(vec.values()) != [1]:
                raise InvalidDescription(
                    f"idempotent {label!r} is not a single basis vector"
                )

    def multiply(self, u, v):
        out = {}
        structure = self.structure
        for i, a in u.items():
            for j, b in v.items():
                cell = structure.get((i, j))
                if cell:
                    axpy(out, a * b, cell)
        return out

    def radical_basis(self):
        """Basis of the Jacobson radical: the basis vectors that are not
        idempotents (see the class docstring)."""
        idempotent = {k for _, vec in self.idempotents for k in vec}
        return [{k: 1} for k in range(self.dim) if k not in idempotent]

    def radical_chain(self):
        """Radical powers rad >= rad^2 >= ... as lists of vectors."""
        rad = self.radical_basis()
        chain = [rad]
        current = rad
        while current:
            nxt_engine = SparseBasis()
            nxt = []
            for u in current:
                for v in rad:
                    w = self.multiply(u, v)
                    if nxt_engine.add(w):
                        nxt.append(w)
            if not nxt:
                break
            chain.append(nxt)
            current = nxt
        return chain


def dualize(coalg):
    """The dual algebra on the dual of a diamond basis, read off the
    elimination `diamond_basis` keeps; idempotents are the grouplike duals."""
    db = diamond_basis(coalg)
    structure = {}
    for k, d in enumerate(db):
        for ij, c in _delta_over_basis(d.element, coalg._diamonds[1]).items():
            structure.setdefault(ij, {})[k] = c
    idempotents = [
        (d.source, {k: 1})
        for k, d in enumerate(db)
        if d.source == d.sink and Path(d.source) in d.element.terms
    ]
    return DualAlgebra(len(db), structure, idempotents)


def localize(algebra, idempotent_labels):
    """The corner algebra eAe for e the sum of the chosen vertex idempotents.

    The algebra is pointed in its basis, so e d_k e is d_k or 0 (see
    `DualAlgebra`): eAe is spanned by the d_k with e d_k e = d_k, and for
    two of them d_i d_j = e d_i d_j e lies in that span.  The corner keeps
    those d_k in their order and renumbers the structure cells and the
    idempotents among them; any other e d_k e raises InvalidDescription."""
    chosen = list(idempotent_labels)
    if not chosen:
        raise EmptySubset("need at least one idempotent")
    by_label = dict(algebra.idempotents)
    missing = [l for l in chosen if l not in by_label]
    if missing:
        raise UnknownVertex(f"unknown idempotents {missing!r}")
    repeated = sorted({l for l in chosen if chosen.count(l) > 1})
    if repeated:
        raise InvalidDescription(f"idempotents chosen more than once: {repeated!r}")
    e = {}
    for l in chosen:
        axpy(e, 1, by_label[l])
    new = {}  # kept index k -> its number in the corner
    for k in range(algebra.dim):
        w = algebra.multiply(algebra.multiply(e, {k: 1}), e)
        if w == {k: 1}:
            new[k] = len(new)
        elif w:
            raise InvalidDescription(f"e d_{k} e is neither d_{k} nor 0")

    def renumber(vec):
        return {new[k]: c for k, c in vec.items()}

    structure = {(new[i], new[j]): renumber(cell)
                 for (i, j), cell in algebra.structure.items()
                 if cell and i in new and j in new}
    idempotents = [(l, renumber(by_label[l])) for l in chosen]
    return DualAlgebra(len(new), structure, idempotents)


def gabriel_quiver(algebra):
    """Quiver of an algebra with the given orthogonal idempotents: arrows
    u -> v count dim e_u (rad/rad^2) e_v, the rank of the residues of the
    e_u r e_v (r in rad) modulo one fully reduced basis of rad^2."""
    chain = algebra.radical_chain()
    rad2 = SparseBasis()
    for w in chain[1] if len(chain) > 1 else ():
        rad2.add(w)
    labels = [l for l, _ in algebra.idempotents]
    arrows = []
    for u, eu in algebra.idempotents:
        left = [w for w in (algebra.multiply(eu, r) for r in chain[0]) if w]
        for v, ev in algebra.idempotents:
            engine = SparseBasis()
            for w in left:
                engine.add(rad2.residue(algebra.multiply(w, ev), coords=False)[0])
            for k in range(engine.dim):
                arrows.append((f"r{k}@{u}>{v}", u, v))
    return Quiver(labels, arrows)


def separability_check(pi):
    """Whether e = sum_g g* (x)_{D*} g*, g over the grouplikes of C, is a
    separability element of C* over D* for pi: C -> D.  It is for every map
    `verify_covering` accepts on the diamond bases, so only that check runs:
    NotACovering if it fails, else True.  Proof, with (f h)(x) = f(x_1) h(x_2)
    in C* = `dualize(C)` and d* the dual of a basis diamond d from u to v:
    (i) Grouplikes come first in `diamond_basis` and the other loop-block
    diamonds have counit 0, so e_g is the one diamond with a length-0 path
    and g* is the coefficient of e_g.  Delta(d) = e_u (x) d + d (x) e_v +
    terms whose two factors both have positive length, so g* d* = [g = u] d*,
    d* g* = [g = v] d* and g* h* = [g = h] g*; and sum_g g* = counit = 1.
    (ii) pi is a coalgebra map, so pi* is an algebra map D* -> C*, and pi
    maps each diamond d_i of C onto a diamond d'_j of D, so pi*(d'_j*) = s_j,
    the sum of the d_i* over d'_j, and the s_j span pi*(D*).  A covering has
    at most one diamond in a fibre with a given source, and at most one with
    a given sink, so u* s_j = d* = s_j v* for d over d'_j by (i).
    (iii) mu(e) = sum_g g* g* = 1 by (i).  For x = d*,
    x e - e x = d* (x) v* - u* (x) d* = (u* s_j) (x) v* - u* (x) (s_j v*) by
    (i) and (ii), a defining relation of the tensor product over D*, so 0;
    for x = h*, x e = h* (x) h* = e x.  So e commutes with C*.  The relation
    space, computed densely, stays in the tests as the proof's oracle."""
    ok, _report = verify_covering(pi, diamond_basis(pi.domain), diamond_basis(pi.codomain))
    if not ok:
        raise NotACovering("separability check requires a covering map")
    return True
