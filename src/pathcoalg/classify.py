"""Isomorphism testing, canonical forms, and automorphism groups for the
four-parameter family.

Two parameter tuples give isomorphic algebras iff a generator rescaling
(a,b,x,y) -> (a',b',alpha x',beta y') matches the parameters
(lambda,s,t,k) = (lambda', alpha^2 s', beta^2 t', alpha beta k'), or the
same with a<->b and x<->y swapped (requires the grid pair to swap and
lambda = lambda' = 1).  Witnesses are verified at the level of defining
relations and the Hopf structure maps, once per pair of families and witness
kind over Q[lambda^+-1, s, t, k] and specialized per query: a rescaling
sends a word w to alpha^#x(w) beta^#y(w) times its image under the witness
with alpha = beta = 1 (see `verify_witness`).
"""

from __future__ import annotations

import functools

from . import hopf
from .errors import NotCanonical, NotDiscreteParams
from .hopf import validate_params
from .linalg import axpy, tensor_axpy
from .scalar import ONE, Laurent, bare, cyc, sqrt


class IsoWitness:
    """A generator rescaling: phi keeps (a,b) fixed, psi swaps a<->b and
    x<->y.  alpha and beta scale the images of x and y."""

    def __init__(self, kind, alpha, beta):
        if kind not in ("phi", "psi"):
            raise ValueError(f"unknown witness kind {kind!r}")
        self.kind = kind
        self.alpha = cyc(alpha)
        self.beta = cyc(beta)

    def to_json(self):
        return {
            "kind": self.kind,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
        }

    def __eq__(self, other):
        if not isinstance(other, IsoWitness):
            return NotImplemented
        return (self.kind, self.alpha, self.beta) == (other.kind, other.alpha, other.beta)

    def __repr__(self):
        return f"IsoWitness({self.kind}, {self.alpha}, {self.beta})"


def _pair_matches_swapped(p1, p2):
    """(m1,n1) = +-(n2,m2) after the sign normalization both params carry."""
    m, n = p2.n, p2.m
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
    return (p1.m, p1.n) == (m, n)


def _solve_rescaling(s, t, k, s2, t2, k2):
    """alpha, beta with s = alpha^2 s2, t = beta^2 t2, k = alpha beta k2,
    or None.  Zero patterns must agree."""
    for left, right in ((s, s2), (t, t2), (k, k2)):
        if left.is_zero() != right.is_zero():
            return None
    alpha = sqrt(s / s2) if not s2.is_zero() else None
    beta = sqrt(t / t2) if not t2.is_zero() else None
    if k2.is_zero():
        return (alpha or ONE, beta or ONE)
    ratio = k / k2
    if alpha is not None and beta is not None:
        if alpha * beta == ratio:
            return (alpha, beta)
        if alpha * beta == -ratio:
            return (alpha, -beta)
        return None  # (s/s2)(t/t2) != (k/k2)^2
    if alpha is not None:
        return (alpha, ratio / alpha)
    if beta is not None:
        return (ratio / beta, beta)
    return (ONE, ratio)


def are_isomorphic(p1, p2):
    """A witness mapping the first algebra onto the second, or None."""
    if (p1.m, p1.n) == (p2.m, p2.n) and p1.lam == p2.lam:
        sol = _solve_rescaling(p1.s, p1.t, p1.k, p2.s, p2.t, p2.k)
        if sol is not None:
            return IsoWitness("phi", sol[0], sol[1])
    if (
        _pair_matches_swapped(p1, p2)
        and p1.lam == ONE
        and p2.lam == ONE
    ):
        sol = _solve_rescaling(p1.s, p1.t, p1.k, p2.t, p2.s, p2.k)
        if sol is not None:
            return IsoWitness("psi", sol[0], sol[1])
    return None


@functools.lru_cache(maxsize=256)
def _witness_family(m1, n1, m2, n2, kind):
    """`verify_witness` for witnesses of `kind` from B(m1, n1) to B(m2, n2) on
    generic parameters over Q[lam^+-1, s, t, k]: the source's relations that
    can fail as (coefficient, word) tuples, their words w as (#x, #y, phi_1(w))
    in the target, and `hopf._span_rows` of the residues of Delta(g) = g (x) g,
    epsilon(g) = 1, Delta(u) = 1 (x) u + u (x) g, epsilon(u) = 0 and S(u) =
    -u g^-1 on the images g of a, b and u of x, y under phi_1.  A relation with
    rational coefficients and one (#x, #y) goes to alpha^#x beta^#y times its
    generic residue sum c phi_1(w), so it is dropped where that is 0 (8 of 13)."""
    source, target = hopf._generic_params(m1, n1), hopf._generic_params(m2, n2)
    gens = {g: u.terms for g, u in hopf.generator_images(target).items()}
    images = gens if kind == "phi" else {g: gens[h] for g, h in zip("aAbBxy", "bBaAyx")}
    one = {(target.canon(0, 0), 0, 0): 1}
    rels = [tuple(hopf._term_relation(source, rel)) for _, rel in hopf.relations(source)]
    words = {word: (word.count("x"), word.count("y"),
                    hopf._evaluate(target, [(1, word)], images, one))
             for rel in rels for _, word in rel}
    rels = tuple(rel for rel in rels if any(isinstance(c, Laurent) for c, _ in rel) or len(
        {words[w][:2] for _, w in rel}) > 1 or hopf._evaluate(target, rel, images, one))
    words = {word: words[word] for rel in rels for _, word in rel}
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
    return rels, words, hopf._span_rows(c for r in residues for c in r.values())


def verify_witness(w, p1, p2):
    """Check that the generator assignment sends every defining relation to a
    relation and commutes with the comultiplication, counit, and antipode.

    Runs once per (m1, n1, m2, n2, kind) on generic parameters
    (`_witness_family`), specialized per call as in `verify_hopf_axioms`.  phi
    is multiplicative and sends a, b to group elements with no scalar, so
    phi(w) = alpha^#x(w) beta^#y(w) phi_1(w), phi_1 the witness with alpha =
    beta = 1: a relation sum c_i w_i of p1 goes to sum c_i(p1) alpha^#x(w_i)
    beta^#y(w_i) phi_1(w_i)(p2).  The structure-map residues are linear in
    the nonzero alpha and beta: they vanish at p2 iff phi_1's `_span_rows` do.
    Only the relations that can fail are checked (see `_witness_family`)."""
    if w.alpha.is_zero() or w.beta.is_zero():
        return False
    rels, words, rows = _witness_family(p1.m, p1.n, p2.m, p2.n, w.kind)
    at_p2 = hopf._specializer(p2)
    at_p1 = at_p2 if p2 is p1 else hopf._specializer(p1)
    if any(map(at_p2, rows)):
        return False
    alpha, beta = bare(w.alpha), bare(w.beta)
    values = {word: (alpha ** nx * beta ** ny, {key: at_p2(c) for key, c in image.items()})
              for word, (nx, ny, image) in words.items()}
    for rel in rels:
        total = {}
        for c, word in rel:
            scale, image = values[word]
            axpy(total, at_p1(c) * scale, image)
        if total:
            return False
    return True


def _prefer_sign(value):
    """Deterministic pick between value and -value (shortest printed form,
    ties broken lexicographically)."""
    return min(value, -value, key=lambda v: (len(str(v)), str(v)))


def canonical_form(params):
    """The table representative of the isomorphism class (`params` itself
    when its scalars are the representative's), with the witness reaching it."""
    if params.m == params.n and params.m != 0:
        raise NotDiscreteParams("canonical forms cover m != n or m = n = 0")
    lam, s, t, k = params.lam, params.s, params.t, params.k
    s0, t0, k0 = s.is_zero(), t.is_zero(), k.is_zero()
    swap_available = params.m == -params.n and lam == ONE
    kind = "phi"
    if s0 and t0 and k0:
        tag, rep, alpha, beta = "1", (lam, 0, 0, 0), ONE, ONE
    elif lam == -ONE:
        if s0:
            tag, rep, alpha, beta = "2", (-1, 0, 1, 0), ONE, sqrt(t)
        elif t0:
            tag, rep, alpha, beta = "3", (-1, 1, 0, 0), sqrt(s), ONE
        else:
            tag, rep, alpha, beta = "4", (-1, 1, 1, 0), sqrt(s), sqrt(t)
    elif not s0 and not t0:
        alpha, beta = sqrt(s), sqrt(t)
        kc = _prefer_sign(k / (alpha * beta))
        if kc != k / (alpha * beta):
            alpha = -alpha
        tag, rep = "5", (1, 1, 1, kc)
    elif not s0 and k0:
        tag, rep, alpha, beta = "6", (1, 1, 0, 0), sqrt(s), ONE
    elif not t0 and k0:
        if swap_available:
            kind = "psi"
            tag, rep, alpha, beta = "6", (1, 1, 0, 0), ONE, sqrt(t)
        else:
            tag, rep, alpha, beta = "6'", (1, 0, 1, 0), ONE, sqrt(t)
    elif not s0:  # k != 0
        alpha = sqrt(s)
        tag, rep, beta = "7", (1, 1, 0, 1), k / alpha
    elif not t0:  # k != 0
        beta = sqrt(t)
        if swap_available:
            kind = "psi"
            tag, rep, alpha = "7", (1, 1, 0, 1), k / beta
        else:
            tag, rep, alpha = "7'", (1, 0, 1, 1), k / beta
    else:  # only k nonzero
        tag, rep, alpha, beta = "8", (1, 0, 0, 1), ONE, k
    canonical = params if (lam, s, t, k) == rep else validate_params(params.m, params.n, *rep)
    return tag, canonical, IsoWitness(kind, alpha, beta)


_GENERIC = "any"
_SIGN = "square is 1"
_PRODUCT = "product is 1"

_GROUP_NAMES = {
    # (alpha constrained, beta constrained, product constrained, swap)
    (False, False, False, False): "Kx x Kx",
    (False, False, False, True): "(Kx x Kx) : Z/2",
    (False, True, False, False): "Kx x Z/2",
    (True, False, False, False): "Kx x Z/2",
    (True, True, False, False): "Z/2 x Z/2",
    (True, True, False, True): "D_4",
    (True, True, True, False): "Z/2",
    (True, True, True, True): "Z/2 x Z/2",
    (True, False, True, False): "Z/2",
    (False, True, True, False): "Z/2",
    (False, False, True, False): "Kx",
    (False, False, True, True): "Dih(Kx)",
}


class AutDescription:
    def __init__(self, family, group_name, alpha_constraint, beta_constraint,
                 product_constraint, includes_swap):
        self.family = family
        self.group_name = group_name
        self.alpha_constraint = alpha_constraint
        self.beta_constraint = beta_constraint
        self.product_constraint = product_constraint
        self.includes_swap = includes_swap

    def to_json(self):
        return {
            "family": self.family,
            "group_name": self.group_name,
            "constraints": {
                "alpha": self.alpha_constraint,
                "beta": self.beta_constraint,
                "alpha_beta": self.product_constraint,
            },
            "includes_swap": self.includes_swap,
        }

    def __repr__(self):
        return f"AutDescription({self.family}, {self.group_name})"


def family_label(tag, canonical):
    """The family of a canonical form: tag 5 splits into 5A (k = 0) and 5B."""
    return tag if tag != "5" else "5A" if canonical.k.is_zero() else "5B"


def automorphism_group(params):
    """The automorphism group of a canonical representative, as generator
    constraints plus the structured group name from the tables."""
    tag, canonical, _ = canonical_form(params)
    if canonical != params:
        raise NotCanonical(f"parameters reduce to {canonical}")
    s0, t0, k0 = params.s.is_zero(), params.t.is_zero(), params.k.is_zero()
    alpha_sign = not s0
    beta_sign = not t0
    product_one = not k0
    swap = (
        params.m == -params.n
        and params.lam == ONE
        and s0 == t0
    )
    name = _GROUP_NAMES[(alpha_sign, beta_sign, product_one, swap)]
    return AutDescription(
        family_label(tag, canonical),
        name,
        _SIGN if alpha_sign else _GENERIC,
        _SIGN if beta_sign else _GENERIC,
        _PRODUCT if product_one else None,
        swap,
    )
