"""Isomorphism testing, canonical forms, and automorphism groups for the
four-parameter family.

Two parameter tuples give isomorphic algebras iff a generator rescaling
(a,b,x,y) -> (a',b',alpha x',beta y') matches the parameters
(lambda,s,t,k) = (lambda', alpha^2 s', beta^2 t', alpha beta k'), or the
same with a<->b and x<->y swapped (requires the grid pair to swap and
lambda = lambda' = 1).  `verify_witness` decides a witness in closed form:
it carries one grouplike lattice onto the other, the target's characters
obey the source's commutation rules, and it rescales (lambda, s, t, k) onto
the target's, each relation going to a multiple of one basis monomial.
"""

from __future__ import annotations

from .errors import NotCanonical, NotDiscreteParams
from .hopf import validate_params
from .scalar import ONE, bare, cyc, sqrt


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


def _lattices_match(p1, p2, kind):
    """Whether the witness kind carries the lattice <(m1, -n1)> of p1 onto
    the lattice <(m2, -n2)> of p2: phi fixes Z^2, psi swaps its coordinates.
    Each lattice vector, moved, is 1 under the other side's `canon`."""
    e1, e2 = p1.canon(0, 0), p2.canon(0, 0)
    v1, v2 = ((p.m, -p.n) if kind == "phi" else (-p.n, p.m) for p in (p1, p2))
    return p2.canon(*v1) == e2 and p1.canon(*v2) == e1


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
    if _lattices_match(p1, p2, "phi") and p1.lam == p2.lam:
        sol = _solve_rescaling(p1.s, p1.t, p1.k, p2.s, p2.t, p2.k)
        if sol is not None:
            return IsoWitness("phi", sol[0], sol[1])
    if _lattices_match(p1, p2, "psi") and p1.lam == ONE and p2.lam == ONE:
        sol = _solve_rescaling(p1.s, p1.t, p1.k, p2.t, p2.s, p2.k)
        if sol is not None:
            return IsoWitness("psi", sol[0], sol[1])
    return None


def verify_witness(w, p1, p2):
    """Whether the witness is an isomorphism of Hopf algebras B(p1) -> B(p2),
    decided in closed form on the parameters.

    The images a', b' of a, b are the target's group elements (swapped for
    psi), x', y' the scaled skew-primitives alpha x'', beta y'' (x'', y''
    the target's y, x for psi).  Every relation of `hopf.relations` goes to
    a multiple of one normal-form monomial of B(p2), and these monomials are
    a basis (Bergman's diamond lemma, part 1 of `verify_hopf_axioms`), so it
    holds iff that multiple is 0:
    - the group relations hold, and a^m1 = b^n1 iff the image of (m1, -n1)
      lies in the lattice of p2 (`_lattices_match`);
    - each commutation rule goes to (c + chi(g)) g x'' or g y'', g = a' or
      b' and chi the target's character of x'' or y'' (`sign_x`, `sign_y`),
      so chi(a') = -1 and chi(b') = -lam1 for x'', lam1 chi(a') = -1 and
      chi(b') = -1 for y'';
    - x^2 = s1(1 - a^2) goes to (alpha^2 s'' - s1)(1 - a'^2), s'' = s2 (t2
      for psi), and y^2 the same with beta, t'' = t2 (s2);
    - xy + lam1 yx = k1(1 - ab) goes to alpha beta c xy + (alpha beta k''
      - k1)(1 - a'b') by yx = (k2(1 - ab) - xy)/lam2 in B(p2), with c = 1 -
      lam1/lam2 and k'' = lam1 k2/lam2 for phi, c = lam1 - 1/lam2 and k'' =
      k2/lam2 for psi: lam1 = lam2 (phi) or lam1 lam2 = 1 (psi), and then
      k1 = alpha beta k2 (phi) or alpha beta k2/lam2 (psi).
    A term times 1 - g is void where g = 1 in B(p2), and there its equation
    is waived.  The map is then a surjective algebra map, and injective iff
    it is bijective on the group parts: iff the lattices are equal.  It
    commutes with Delta, epsilon and S, as it sends group elements to group
    elements and x, y to skew-primitives with the same grouplikes, scaled.
    On parameters off the laws the same identities are decided in the
    normal-form space.  Only bare values are compared (`scalar.bare`)."""
    if w.alpha.is_zero() or w.beta.is_zero() or not _lattices_match(p1, p2, w.kind):
        return False
    alpha, beta, lam1 = bare(w.alpha), bare(w.beta), p1._lam
    s1, t1, k1 = bare(p1.s), bare(p1.t), bare(p1.k)
    a, b, e = p2.canon(1, 0), p2.canon(0, 1), p2.canon(0, 0)
    chi_x, chi_y, s2, t2, k2 = p2.sign_x, p2.sign_y, bare(p2.s), bare(p2.t), bare(p2.k)
    if w.kind == "phi":
        lam_ok = lam1 == p2._lam
    else:
        a, b, chi_x, chi_y, s2, t2 = b, a, chi_y, chi_x, t2, s2
        lam_ok, k2 = lam1 == p2._lam_inv, k2 * p2._lam_inv
    return (lam_ok and chi_x(*a) == -1 and chi_x(*b) == -lam1
            and chi_y(*a) * lam1 == -1 and chi_y(*b) == -1
            and (p2.canon(2 * a[0], 2 * a[1]) == e or s1 == alpha * alpha * s2)
            and (p2.canon(2 * b[0], 2 * b[1]) == e or t1 == beta * beta * t2)
            and (p2.canon(1, 1) == e or k1 == alpha * beta * k2))


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
