"""The pointed Hopf algebras B(m, n; lambda, s, t, k).

Generators a, b (grouplike) and x, y (skew-primitive) subject to
ab = ba, a^m = b^n, x^2 = s(1 - a^2), y^2 = t(1 - b^2), xy + lam*yx = k(1 - ab),
ax = -xa, bx = -lam^-1*xb, ay = -lam*ya, by = -yb.  Elements are kept in the
normal form a^i b^j x^p y^q with p, q in {0, 1}, multiplied as a crossed
product of the group algebra and {1, x, y, xy} (see `_mono_mul`).

Value kind: for every parameter set, tables, relations and elements store
values as `scalar.bare` gives them, a rational bare and an irrational (z3,
a witness alpha = z4) as a CycScalar.  The scalars of `BmnParams`, `counit`
and the certificate report stay CycScalars.
Delta, epsilon and S are term functions that `comultiply`, `counit` and
`antipode` wrap; the Hopf certificate runs on them and on `_evaluate`,
without elements, once, on B(0, 0) over Q[lam^+-1, s, t, k], whose quotients
by central Hopf ideals are the B(m, n), and is specialized per query.

The module also embeds finite windows of the basis into the grid path
coalgebra (vertices = canonical group elements), certifies that the embedding
is an injective coalgebra map, and answers path-membership queries there off
the certified images, without elimination.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import attrgetter, le

from .coalgebra import CoElement, SubCoalgebra
from .errors import (
    AxiomFailure,
    ConstraintViolation,
    ForbiddenPair,
    InvalidDescription,
    LambdaOrderViolation,
    NotClosedUnderDelta,
    ParamMismatch,
    ParityViolation,
    WindowTooSmall,
)
from .linalg import SparseElement, accumulate, axpy, tensor_axpy
from .quiver import Path, grid_quiver, grid_vertex_label, grid_window, group_canonical_pair
from .scalar import _UNIT, ONE, CycScalar, Laurent, _q, bare, cyc


def _power(x, e):
    """x^e as a value (`bare`); an int to a negative power goes through Fraction."""
    return _q(Fraction(x) ** e) if e < 0 and isinstance(x, int) else bare(x ** e)


_SCALAR_NAMES = ("lambda", "s", "t", "k")


class BmnParams:
    """Validated, sign-normalized parameters (m, n, lam, s, t, k)."""

    def __init__(self, m, n, lam, s, t, k):
        self.m = m
        self.n = n
        self.lam = lam
        self.s = s
        self.t = t
        self.k = k
        self.lam_inv = lam.inverse()
        self._lam, self._lam_inv = bare(lam), bare(self.lam_inv)
        self._mono_cache = {}
        self._tables = {}

    def canon(self, i, j):
        return group_canonical_pair(self.m, self.n, i, j)

    def sign_x(self, i, j):
        """Scalar from commuting x rightward past a^i b^j."""
        c = _power(-self._lam, j)
        return -c if i % 2 else c

    def sign_y(self, i, j):
        """Scalar from commuting y rightward past a^i b^j."""
        c = _power(-self._lam_inv, i)
        return -c if j % 2 else c

    def as_tuple(self):
        return (self.m, self.n, self.lam, self.s, self.t, self.k)

    def __eq__(self, other):
        if not isinstance(other, BmnParams):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def to_json(self):
        scalars = zip(_SCALAR_NAMES, (self.lam, self.s, self.t, self.k))
        return {"m": self.m, "n": self.n, **{name: str(v) for name, v in scalars}}

    def __repr__(self):
        return (
            f"BmnParams(m={self.m}, n={self.n}, lam={self.lam}, "
            f"s={self.s}, t={self.t}, k={self.k})"
        )


def validate_params(m, n, lam, s, t, k):
    """Check the parameter laws and sign-normalize (m, n) so that m >= 0
    (and n >= 0 when m = 0).  The laws are where `verify_hopf_axioms` passes.
    Its check (b), that the characters (-1)^(m+n) lam^-n and (-1)^(m+n) lam^-m
    of a^m b^-n are 1, gives lam^gcd(m, n) = 1 and m + n even.  On y, part 1
    of the B(0, 0) certificate leaves (lam^2 - 1)s from x^2 = s(1 - a^2), and
    (lam^2 - 1)t and (lam - 1)k from xy + lam*yx = k(1 - ab): lam = 1, or
    lam = -1 with k = 0, or k = s = t = 0.  ForbiddenPair is no such law."""
    lam, s, t, k = cyc(lam), cyc(s), cyc(t), cyc(k)
    if m < 0 or (m == 0 and n < 0):
        m, n = -m, -n
    if (m, n) == (1, 1):
        raise ForbiddenPair("(m, n) = +/-(1, 1) is excluded")
    if (m + n) % 2 != 0:
        raise ParityViolation(f"m + n = {m + n} must be even")
    if lam.is_zero():
        raise LambdaOrderViolation("lambda must be nonzero")
    if (m, n) != (0, 0):
        d = math.gcd(abs(m), abs(n))
        if lam ** d != ONE:
            raise LambdaOrderViolation(
                f"lambda^gcd(m, n) = lambda^{d} must equal 1"
            )
    if not (lam == ONE or k.is_zero() and (lam == -ONE or s.is_zero() and t.is_zero())):
        raise ConstraintViolation(
            "need lambda = 1, or lambda = -1 with k = 0, or k = s = t = 0"
        )
    return BmnParams(m, n, lam, s, t, k)


# -- elements and normal-form arithmetic -------------------------------------
# basis key: ((i, j), p, q) for a^i b^j x^p y^q


def _rule_table(params):
    """x^p y^q * x and x^p y^q * y for p, q in {0, 1}, read off the relations:
    (p, q, letter) -> [(h, p', q', c)], the sum of c * a^h x^p' y^q', each c a
    nonzero value (`bare`).  Moving x past h picks up the character sign_x(h)."""
    s, t, k, li = map(bare, (params.s, params.t, params.k, params.lam_inv))
    rules = {
        (0, 0, "x"): [((0, 0), 1, 0, 1)],
        (0, 0, "y"): [((0, 0), 0, 1, 1)],
        # x^2 = s(1 - a^2)
        (1, 0, "x"): [((0, 0), 0, 0, s), ((2, 0), 0, 0, -s)],
        (1, 0, "y"): [((0, 0), 1, 1, 1)],
        # yx = lam^-1 k(1 - ab) - lam^-1 xy
        (0, 1, "x"): [((0, 0), 0, 0, li * k), ((1, 1), 0, 0, -li * k),
                      ((0, 0), 1, 1, -li)],
        # y^2 = t(1 - b^2)
        (0, 1, "y"): [((0, 0), 0, 0, t), ((0, 2), 0, 0, -t)],
        # x(yx), then x^2 = s(1 - a^2)
        (1, 1, "x"): [((0, 0), 1, 0, li * k),
                      ((1, 1), 1, 0, -li * k * params.sign_x(1, 1)),
                      ((0, 0), 0, 1, -li * s), ((2, 0), 0, 1, li * s)],
        # x y^2 = x t(1 - b^2)
        (1, 1, "y"): [((0, 0), 1, 0, t), ((0, 2), 1, 0, -t * params.sign_x(0, 2))],
    }
    return {key: [(h, p, q, bare(c)) for h, p, q, c in terms if c]
            for key, terms in rules.items()}


def _table(params, build):
    """build(params), computed on first use and kept on params.  A table
    holds term dicts, tuples and scalars only: an element points back at
    params, so keeping one there would make a reference cycle."""
    table = params._tables.get(build)
    if table is None:
        table = params._tables[build] = build(params)
    return table


def _shift(params, g, key):
    """g * key for a group part g: left multiplication is a pure shift."""
    (i, j), p, q = key
    return params.canon(g[0] + i, g[1] + j), p, q


def _bare_terms(terms):
    """A term dict with its coefficients as values (`bare`)."""
    return {key: bare(c) for key, c in terms.items()}


def _mono_mul(params, key1, key2):
    """(g1 u)(g2 v) as a dict of basis keys: the character of u at g2, the
    shift by g1 g2, then the rule table letter by letter for v."""
    cached = params._mono_cache.get((key1, key2))
    if cached is not None:
        return cached
    (g1, p1, q1), (g2, p2, q2) = key1, key2
    coeff = params.sign_x(*g2) if p1 else 1
    if q1:
        coeff = coeff * params.sign_y(*g2)
    terms = {_shift(params, g1, (g2, p1, q1)): coeff}
    rules = _table(params, _rule_table)
    for letter in "x" * p2 + "y" * q2:
        nxt = {}
        for key, c in terms.items():
            for h, p, q, c2 in rules[key[1], key[2], letter]:
                accumulate(nxt, _shift(params, key[0], (h, p, q)), c * c2)
        terms = nxt
    terms = params._mono_cache[(key1, key2)] = _bare_terms(terms)
    return terms


def _fmt_key(key):
    (i, j), p, q = key
    parts = [f"{g}^{e}" if e != 1 else g for g, e in (("a", i), ("b", j)) if e]
    return "*".join(parts + ["x"] * p + ["y"] * q) or "1"


def _mul_terms(params, left, right):
    """The product of two term dicts, monomial pair by monomial pair."""
    out = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            c = c1 * c2
            for key, c3 in _mono_mul(params, k1, k2).items():
                accumulate(out, key, c * c3)
    return out


def _tensor_mul(params, left, right):
    """The product of two term dicts of H (x) H, factor by factor."""
    out = {}
    for (l1, r1), c1 in left.items():
        for (l2, r2), c2 in right.items():
            c = c1 * c2
            for kl, cl in _mono_mul(params, l1, l2).items():
                for kr, cr in _mono_mul(params, r1, r2).items():
                    accumulate(out, (kl, kr), c * cl * cr)
    return out


class BmnElement(SparseElement):
    """A sparse combination of normal-form basis monomials."""

    __slots__ = ()
    mismatch = ParamMismatch
    params = property(attrgetter("ambient"))
    _format_key = staticmethod(_fmt_key)

    def __mul__(self, other):
        if isinstance(other, BmnElement):
            return multiply(self, other)
        return super().__mul__(other)


def group_element(params, i, j):
    return BmnElement(params, {(params.canon(i, j), 0, 0): 1})


def basis_element(params, i, j, p, q):
    return BmnElement(params, {(params.canon(i, j), p, q): 1})


def gen_x(params):
    return basis_element(params, 0, 0, 1, 0)


def gen_y(params):
    return basis_element(params, 0, 0, 0, 1)


def multiply(u, v):
    u._check(v)
    return BmnElement(u.params, _mul_terms(u.params, u.terms, v.terms))


def _counit_terms(params, terms):
    """epsilon(u) * 1 as a term dict, from the coefficients on group parts."""
    total = sum((c for (_, p, q), c in terms.items() if p == 0 and q == 0), 0)
    return {(params.canon(0, 0), 0, 0): total} if total else {}


def counit(u):
    return cyc(sum(_counit_terms(u.params, u.terms).values()))


class TensorElement(SparseElement):
    """A sparse element of the tensor square, keyed by basis-key pairs."""

    __slots__ = ()
    mismatch = ParamMismatch
    params = property(attrgetter("ambient"))

    @staticmethod
    def _format_key(key):
        return f"({_fmt_key(key[0])} (x) {_fmt_key(key[1])})"

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return super().__mul__(other)
        self._check(other)
        return TensorElement(self.params, _tensor_mul(self.params, self.terms, other.terms))


def _delta_generators(params):
    one, x, y = ((params.canon(0, 0), p, q) for p, q in ((0, 0), (1, 0), (0, 1)))
    a, b = (params.canon(1, 0), 0, 0), (params.canon(0, 1), 0, 0)
    return (TensorElement(params, {(one, x): 1, (x, a): 1}),
            TensorElement(params, {(one, y): 1, (y, b): 1}))


def _delta_table(params):
    """Delta on x^p y^q as term dicts, by (p, q): Delta(x)^p Delta(y)^q."""
    dx, dy = (d.terms for d in _delta_generators(params))
    e = params.canon(0, 0)
    d1 = {((e, 0, 0), (e, 0, 0)): 1}
    return {(p, q): _bare_terms(_tensor_mul(params, dx if p else d1, dy if q else d1))
            for p in (0, 1) for q in (0, 1)}


def _antipode_table(params):
    """S on x^p y^q as term dicts, by (p, q): S(y)^q S(x)^p, S(x) = -x a^-1, S(y) = -y b^-1."""
    u1 = {(params.canon(0, 0), 0, 0): 1}
    s_x = (-(gen_x(params) * group_element(params, -1, 0))).terms
    s_y = (-(gen_y(params) * group_element(params, 0, -1))).terms
    return {(p, q): _bare_terms(_mul_terms(params, s_y if q else u1, s_x if p else u1))
            for p in (0, 1) for q in (0, 1)}


def _comul_terms(params, terms):
    """Delta(g x^p y^q) = (g (x) g) Delta(x^p y^q), a shift of the table."""
    table = _table(params, _delta_table)
    out = {}
    for (g, p, q), c in terms.items():
        for (l, r), c2 in table[p, q].items():
            accumulate(out, (_shift(params, g, l), _shift(params, g, r)), c * c2)
    return out


def _anti_terms(params, terms):
    """S(g x^p y^q) = S(x^p y^q) g^-1, from the table."""
    table = _table(params, _antipode_table)
    out = {}
    for (g, p, q), c in terms.items():
        g_inv = (params.canon(-g[0], -g[1]), 0, 0)
        axpy(out, c, _mul_terms(params, table[p, q], {g_inv: 1}))
    return out


def comultiply(u):
    return TensorElement(u.params, _comul_terms(u.params, u.terms))


def antipode(u):
    return BmnElement(u.params, _anti_terms(u.params, u.terms))


# -- defining relations ------------------------------------------------------
# A relation is a list of (coefficient, word) read as sum(c * word) = 0.  A word
# is a string over the generators a, A = a^-1, b, B = b^-1, x, y.

GENERATOR_NAMES = {"a": "a", "A": "a^-1", "b": "b", "B": "b^-1", "x": "x", "y": "y"}
# group parts on which the certificate checks the structure maps' products
_TRANSLATES = ("", "a", "A", "b", "B")


def _power_word(gen, inverse, exponent):
    return gen * exponent if exponent >= 0 else inverse * -exponent


def relations(params):
    """The 13 defining relations of the algebra as (name, relation) pairs:
    the group inverses, ab = ba, a^m = b^n, the two squares, the mixed
    relation and the four commutation rules."""
    lam, s, t, k = params.lam, params.s, params.t, params.k
    return [
        ("a*a^-1 = 1", [(ONE, "aA"), (-ONE, "")]),
        ("a^-1*a = 1", [(ONE, "Aa"), (-ONE, "")]),
        ("b*b^-1 = 1", [(ONE, "bB"), (-ONE, "")]),
        ("b^-1*b = 1", [(ONE, "Bb"), (-ONE, "")]),
        ("ab = ba", [(ONE, "ab"), (-ONE, "ba")]),
        ("a^m = b^n", [(ONE, _power_word("a", "A", params.m)),
                       (-ONE, _power_word("b", "B", params.n))]),
        ("x^2 = s(1 - a^2)", [(ONE, "xx"), (-s, ""), (s, "aa")]),
        ("y^2 = t(1 - b^2)", [(ONE, "yy"), (-t, ""), (t, "bb")]),
        ("xy + lam*yx = k(1 - ab)",
         [(ONE, "xy"), (lam, "yx"), (-k, ""), (k, "ab")]),
        ("ax = -xa", [(ONE, "ax"), (ONE, "xa")]),
        ("lam*bx = -xb", [(lam, "bx"), (ONE, "xb")]),
        ("ay = -lam*ya", [(ONE, "ay"), (lam, "ya")]),
        ("by = -yb", [(ONE, "by"), (ONE, "yb")]),
    ]


def _term_relation(params, relation):
    """The relation with its coefficients as term-dict values (`bare`) and
    its zero terms dropped, for `_evaluate`."""
    return [(bare(c), word) for c, word in relation if c]


def _evaluate(params, relation, images, start, mul=_mul_terms, reverse=False):
    """sum(c * start * images[w_1] * ... * images[w_l]) over the terms (c, w)
    of a relation from `_term_relation`, on term dicts of H (mul=_mul_terms)
    or H (x) H (_tensor_mul).  With reverse=True a word is read right to
    left, for an anti-homomorphism."""
    total = {}
    for coeff, word in relation:
        value = start
        for gen in reversed(word) if reverse else word:
            value = mul(params, value, images[gen])
        axpy(total, coeff, value)
    return total


def generator_images(params):
    """The generators a, a^-1, b, b^-1, x, y as elements, by relation letter."""
    steps = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}
    return {**{g: group_element(params, *e) for g, e in steps.items()},
            "x": gen_x(params), "y": gen_y(params)}


# -- axiom verification ------------------------------------------------------


def _residues(params):
    """Every check of `verify_hopf_axioms`, in order, as (message, witness,
    residue): it passes iff the residue, a term dict (lhs - rhs in parts 3
    and 4), is empty.  The witness is a name or the term dict of a monomial."""
    gens = {g: u.terms for g, u in generator_images(params).items()}
    rels = [(name, _term_relation(params, rel)) for name, rel in relations(params)]
    e = params.canon(0, 0)
    one, tensor_one = {(e, 0, 0): 1}, {((e, 0, 0), (e, 0, 0)): 1}
    monos = [{(e, p, q): 1} for p in (0, 1) for q in (0, 1)]
    for name, rel in rels:
        for mono in monos:
            yield f"right multiplication violates {name}", mono, _evaluate(params, rel, gens, mono)
    # each structure map: its name, its term function, and how its values multiply
    maps = [("comultiplication", _comul_terms, tensor_one, _tensor_mul, False),
            ("counit", _counit_terms, one, _mul_terms, False),
            ("antipode", _anti_terms, one, _mul_terms, True)]
    images = [{g: term_map(params, u) for g, u in gens.items()} for _, term_map, *_ in maps]
    for name, rel in rels:
        for (label, _, start, mul, reverse), imgs in zip(maps, images):
            yield (f"{label} does not respect a relation", name,
                   _evaluate(params, rel, imgs, start, mul, reverse))
    for g in _TRANSLATES:
        for tail in ("", "x", "y", "xy"):
            # the monomial g * tail and the products of the maps' values
            word = [(1, g + tail)]
            mono = _evaluate(params, word, gens, one)
            for (label, term_map, start, mul, reverse), imgs in zip(maps, images):
                residue = term_map(params, mono)
                axpy(residue, -1, _evaluate(params, word, imgs, start, mul, reverse))
                anti = "anti-" if reverse else ""
                yield f"{label} is not {anti}multiplicative", mono, residue
    for g, u in gens.items():
        lhs, rhs, left, right, conv_l, conv_r = {}, {}, {}, {}, {}, {}
        for (l, r), c in _comul_terms(params, u).items():
            el, er = {l: c}, {r: 1}
            for (l2, r2), c2 in _comul_terms(params, el).items():
                accumulate(lhs, (l2, r2, r), c2)
            for (l2, r2), c2 in _comul_terms(params, {r: c}).items():
                accumulate(rhs, (l, l2, r2), c2)
            axpy(left, 1, _mul_terms(params, _counit_terms(params, el), er))
            axpy(right, 1, _mul_terms(params, el, _counit_terms(params, er)))
            axpy(conv_l, 1, _mul_terms(params, _anti_terms(params, el), er))
            axpy(conv_r, 1, _mul_terms(params, el, _anti_terms(params, er)))
        target = _counit_terms(params, u)
        for message, side, other in [
                ("coassociativity fails", lhs, rhs), ("counit law fails", left, u),
                ("counit law fails", right, u), ("antipode law fails", conv_l, target),
                ("antipode law fails", conv_r, target)]:
            axpy(side, -1, other)
            yield message, GENERATOR_NAMES[g], side


def _generic_params(m, n):
    """B(m, n) with the variables of Q[lam^+-1, s, t, k] as parameters, unvalidated."""
    return BmnParams(m, n, *(Laurent({(0,) * i + (1,) + (0,) * (3 - i): 1}) for i in range(4)))


def _span_rows(coefficients):
    """The nonzero coefficients up to a rational factor, each once, as Laurents with 1 at
    their least exponent: all vanish iff all rows do; `family_certificate` prunes them."""
    rows = {}
    for c in coefficients:
        terms = sorted(c.terms.items()) if isinstance(c, Laurent) else [(_UNIT, 1)]
        rows.setdefault(tuple((e, _q(Fraction(q) / terms[0][1])) for e, q in terms), None)
    return tuple(Laurent(dict(row)) for row in rows)


@functools.lru_cache(maxsize=1)
def family_certificate():
    """`_residues` of B(0, 0; lam, s, t, k) on generic parameters, over
    Q[lam^+-1, s, t, k]: the relation names, and the `_span_rows` of the
    residues' coefficients up to the unit lam^j, less each binomial row
    M(1 - lam^v), M a monomial in s, t, k, that another one M'(1 - lam^v')
    divides (M' | M, v' | v), as it vanishes wherever its divisor does.  The
    30 coefficients give 3 rows, k(1 - lam), s(1 - lam^2) and t(1 - lam^2)."""
    generic, rows = _generic_params(0, 0), {}
    for row in _span_rows(c for _, _, residue in _residues(generic) for c in residue.values()):
        low = min(e[0] for e in row.terms)
        rows.setdefault(tuple(sorted(((e[0] - low, *e[1:]), q) for e, q in row.terms.items())))
    # (M, v) for each row M(1 - lam^v): its first term is M, at lam^0
    binomials = {row: (row[0][0][1:], row[1][0][0]) for row in rows
                 if len(row) == 2 and row[0][0][1:] == row[1][0][1:] and row[1][1] == -1}
    divided = {row for row, (m, v) in binomials.items() for m2, v2 in binomials.values()
               if (m2, v2) != (m, v) and v % v2 == 0 and all(map(le, m2, m))}
    rows = tuple(Laurent(dict(row)) for row in rows if row not in divided)
    return tuple(name for name, _ in relations(generic)), rows


def _certify_quotient_map(params):
    """Check, by a constant number of integer checks, that `params.canon` is
    the quotient map Z^2 -> Z^2/<(m, -n)> that `group_canonical_pair` proves
    it to be: canon(m, -n) = canon(0, 0); and at the branch edges g = (i, 0),
    i in {-1, 0, p - 1, p}, p = |m| (g = (0, j) and p = |n| if m = 0), canon
    fixes canon(g) and canon(canon(g) + canon(e)) = canon(g + e) for the
    generators e = (1, 0), (0, 1); from -1 and p - 1, a crosses both branch
    edges.  Raises AxiomFailure naming the failing check, with the group pair
    as witness."""
    m, n, canon = params.m, params.n, params.canon
    failure = f"canon is not the quotient map of B({m}, {n}): "
    if canon(m, -n) != canon(0, 0):
        raise AxiomFailure(failure + "a^m b^-n is not 1", witness=f"({m}, {-n})")
    steps = {e: canon(*e) for e in ((1, 0), (0, 1))}
    period = abs(m or n)
    for i, j in ((c, 0) if m else (0, c) for c in sorted({-1, 0, period - 1, period})):
        g = canon(i, j)
        if canon(*g) != g:
            raise AxiomFailure(failure + "it is not idempotent", witness=f"({i}, {j})")
        for (di, dj), (si, sj) in steps.items():
            if canon(g[0] + si, g[1] + sj) != canon(i + di, j + dj):
                raise AxiomFailure(failure + "it is not additive",
                                   witness=f"({i}, {j}) + ({di}, {dj})")


def _specializer(params):
    """Evaluation at the (lam, s, t, k) of params, a Q-linear ring map; monomials computed once."""
    point = [bare(v) for v in (params.lam, params.s, params.t, params.k)]
    lam_inv = bare(params.lam_inv)  # only lam has negative exponents
    monomials = {}

    def value(c):
        if not isinstance(c, Laurent):
            return c
        total = 0
        for exps, coeff in c.terms.items():
            if exps not in monomials:
                monomials[exps] = math.prod(_power(point[v], e) if e > 0 else _power(lam_inv, -e)
                                            for v, e in enumerate(exps) if e)
            total = total + coeff * monomials[exps]
        return total

    return value


def verify_hopf_axioms(params, radius, seed=None):
    """Prove the Hopf axioms by a finite certificate whose size does not
    depend on the radius.  Raises AxiomFailure with a witness; returns a
    report dict on success.  The four parts below run on term dicts, through
    `_evaluate` and the term functions behind `comultiply`, `counit` and
    `antipode`, once, on B(0, 0) over Q[lam^+-1, s, t, k] (`family_certificate`).

    B(m, n) = B(0, 0)/(g - 1) with g = a^m b^-n, and (g - 1) is a Hopf ideal
    when g is central (Delta(g - 1) = (g - 1) (x) g + 1 (x) (g - 1),
    epsilon(g - 1) = 0, S(g - 1) = -g^-1 (g - 1)), so B(m, n) is a Hopf
    algebra when B(0, 0) is.  `_mono_mul` and the structure tables see group
    parts only through `canon` and the characters sign_x, sign_y, so a query
    checks: (a) `canon` is the quotient map Z^2 -> Z^2/<(m, -n)>, proved in
    `group_canonical_pair` and checked at constant cost by
    `_certify_quotient_map`; (b) g is central,
    sign_x(m, -n) = sign_y(m, -n) = 1; (c) the nonzero B(0, 0) residues
    vanish at its parameters, sound since evaluation is a ring map, and read
    off the 3 rows of `family_certificate`.  If (b) or (c) fails, the first
    nonzero residue of `_residues` on the query's own parameters is raised.

    1. Associativity, by Bergman's diamond lemma.  `multiply` computes
       (g1 u)(g2 v) as a character of g2, a shift by g1 g2 and the rule table
       for the letters of v (`_mono_mul`).  Each of the 13 relations is
       checked as an identity of right-multiplication operators on the four
       monomials x^p y^q, one generator at a time.  A group part enters a
       product only as that shift, so the identities hold on every monomial
       by construction of the table, not by assumption.  The normal-form space is then a right
       module over the algebra the relations present, the monomials
       a^i b^j x^p y^q are a basis, and `multiply` is its associative product.
    2. The structure maps are well defined: the values of Delta, epsilon and
       S on the generators send every relation to 0, in H (x) H, in K 1 and
       in H read as an anti-map.
    3. `comultiply`, `counit` and `antipode` agree with the products of
       their generator values on every monomial whose group part is 1,
       a^+-1 or b^+-1.  The translates catch a factor order that group part
       1 alone cannot see.
    4. Coassociativity, the counit laws and the antipode laws hold on a^+-1,
       b^+-1, x and y.  Both sides of each law are algebra maps (anti-maps
       for S), so they hold on all of H.

    The report keeps `basis_checked` = 4 |grid_window(m, n, R)|, the monomials
    with group part in the window, all covered: i in [0, |m|) (j in [0, |n|)
    if m = 0) and the other coordinate free, (2R + 1)^2 pairs on B(0, 0).
    `product_pairs` = 0, since no pairs are sampled.  `seed` is ignored:
    callers of the former sampling verifier, the benchmark among them, pass it."""
    if radius < 0:
        raise WindowTooSmall("radius must be nonnegative")
    _certify_quotient_map(params)
    names, rows = family_certificate()
    value, g = _specializer(params), (params.m, -params.n)
    if params.sign_x(*g) != 1 or params.sign_y(*g) != 1 or any(map(value, rows)):
        for message, witness, residue in _residues(params):
            if residue:
                text = witness if isinstance(witness, str) else str(BmnElement(params, witness))
                raise AxiomFailure(message, witness=text)
        raise RuntimeError(f"the B(0, 0) certificate rejects {params}, its own residues do not")
    side, period = 2 * radius + 1, abs(params.m) or abs(params.n)
    return {
        "params": params.to_json(),
        "window_radius": radius,
        "basis_checked": 4 * side * (min(period, radius + 1) if period else side),
        "product_pairs": 0,
        "certificate": {
            "relations": list(names),
            "generators": list(GENERATOR_NAMES.values()),
            "translates": [GENERATOR_NAMES.get(g, "1") for g in _TRANSLATES],
        },
        "ok": True,
    }


# -- embedding into the grid path coalgebra ----------------------------------


# the shifts s of the window W whose union W + sW carries the group parts of
# the keys (g, p, q): 1 on W + aW + bW + abW, x on W + bW, y on W + aW, xy on W
_KEY_SHIFTS = {(0, 0): ((0, 0), (1, 0), (0, 1), (1, 1)), (1, 0): ((0, 0), (0, 1)),
               (0, 1): ((0, 0), (1, 0)), (1, 1): ((0, 0),)}


class Truncation(SubCoalgebra):
    """A finite window of the Hopf algebra realized inside the grid path
    coalgebra, and its own coalgebra: the smallest closed subcoalgebra
    containing the window images, the SubCoalgebra of iota's images.  Only
    what is read is built: `image_of` builds one image, once; `window`,
    `iota` and `images` are each built in one pass when first read, and the
    elimination on the first read of `basis` (`contains`, `dim`, ...).

    iota: basis key -> certified image for every key of the basis, the
    boundary keys that close it under Delta included;
    images: iota on the keys with group part in the window, in window order;
    rank: dimension of the span of those images, 4 |window|;
    certificate: the sizes of the embedding `_certify_embedding` proves (keys,
    representatives, the coproduct terms compared on them, paths)."""

    def __init__(self, params, radius):
        self.params, self.radius, (m, n) = params, radius, (params.m, params.n)
        # the box of the keys' group parts: the b-shift reaches R + 1, and for
        # 0 < m <= R + 1 the a-shift wraps (m - 1, j) to (0, j + n), |j| <= R
        self.quiver = grid_quiver(m, n, radius + (max(n + 1, -n) if 0 < m <= radius + 1 else 1))
        self._built, self._owner = {}, {}
        self._compared = _certify_embedding(params, self._image)

    def __getattr__(self, name):  # basis, _engine, _diamonds: eliminate iota's images
        if name not in ("basis", "_engine", "_diamonds"):
            raise AttributeError(name)
        SubCoalgebra.__init__(self, self.quiver, self.iota.values(), validate=False)
        return getattr(self, name)

    @property
    def coalgebra(self):
        return self

    def __repr__(self):
        return f"Truncation({self.params!r}, radius {self.radius})"

    def _image(self, key):
        """The image of a key, built once.  As `SubCoalgebra` does on a whole
        basis, it refuses a zero image or one sharing a path with another."""
        if key not in self._built:
            img = _image_of_key(self.params, self.quiver, key)
            if not img.terms:
                raise InvalidDescription("zero element in basis")
            for path in img.terms:
                if self._owner.setdefault(path, key) != key:
                    raise InvalidDescription("basis is linearly dependent")
            self._built[key] = img
        return self._built[key]

    def image_of(self, i, j, p, q):
        """The certified image of a^i b^j x^p y^q, boundary keys included."""
        canon, radius = self.params.canon, self.radius
        (i, j) = g = canon(i, j)
        # (g, p, q) is a key iff canon(g - s) lies in the box for a shift s of it
        if (g, p, q) not in self._built and not any(max(map(abs, canon(i - di, j - dj))) <= radius
                                                    for di, dj in _KEY_SHIFTS.get((p, q), ())):
            raise WindowTooSmall(f"{_fmt_key((g, p, q))} has no image in the window")
        return self._image((g, p, q))

    def _keys(self):
        """The keys in basis order: 1, x, y, xy, each on its sorted group parts."""
        canon, window = self.params.canon, self.window
        shifted = {s: {canon(i + s[0], j + s[1]) for i, j in window}
                   for s in _KEY_SHIFTS[0, 0][1:]}
        shifted[0, 0] = window
        return [(g, p, q) for (p, q), shifts in _KEY_SHIFTS.items()
                for g in sorted(set().union(*map(shifted.get, shifts)))]

    @functools.cached_property
    def window(self):
        return grid_window(self.params.m, self.params.n, self.radius)

    @functools.cached_property
    def iota(self):
        built, params, quiver = self._built, self.params, self.quiver
        quiver.arrows  # later reads look arrows up: list them at once, not one by one
        self._built = {key: built.get(key) or _image_of_key(params, quiver, key)
                       for key in self._keys()}
        return self._built

    @functools.cached_property
    def images(self):
        iota = self.iota
        return {(g, p, q): iota[g, p, q] for g in self.window for p in (0, 1) for q in (0, 1)}

    @property
    def rank(self):
        return 4 * len(self.window)

    @functools.cached_property
    def certificate(self):
        keys = len(self._keys())  # each image is one path, and xy - lam*yx two
        return {"keys": keys, "representatives": 4, "coproduct_terms": self._compared,
                "paths": keys + len(self.window)}


def _image_of_key(params, quiver, key):
    """The image of a^i b^j x^p y^q: its path of word x^p y^q from a^i b^j,
    and for xy the combination xy - lam*yx.  From a canonical g, its paths
    are valid (`Path.is_valid`) iff the group pairs their words pass lie in
    the grid quiver's box, since an arrow is there iff its ends are: g, and
    canon(g + a) for x, canon(g + b) for y, all three with canon(g + ab) for xy."""
    (i, j), p, q = key
    canon, g = params.canon, grid_vertex_label(i, j)
    if p and q:
        ga, gb = canon(i + 1, j), canon(i, j + 1)
        terms = {Path(g, (f"x@{g}", f"y@{grid_vertex_label(*ga)}")): 1,
                 Path(g, (f"y@{g}", f"x@{grid_vertex_label(*gb)}")): -params._lam}
        passed = ga + gb + canon(i + 1, j + 1)
    else:
        terms = {Path(g, (f"x@{g}",) * p + (f"y@{g}",) * q): 1}
        passed = canon(i + p, j + q) if p or q else ()
    if max(map(abs, (i, j) + passed)) > quiver.shape[2]:
        raise InvalidDescription(f"the image of {_fmt_key(key)} leaves the grid quiver")
    return CoElement(quiver, terms)


def _certify_embedding(params, image):
    """Certify that iota: key -> image(key), as `Truncation` builds it on a
    window W, is a coalgebra map.  Only the checks that read
    the input run: `_certify_quotient_map`, and Delta_path iota(r) =
    (iota (x) iota) Delta_H(r) on the representatives r = (canon(0, 0), p, q),
    where lam enters.  The rest is proved once.
    (1) Closure: the keys are W x {xy}, (W + bW) x {x}, (W + aW) x {y} and
    (W + aW + bW + abW) x {1}, and the keys of Delta_H(r) (`_delta_table`)
    are 1, x, a at x; 1, y, b at y; 1, x, y, xy, b x, a y, ab at xy.  So the
    g-shift of each key of Delta_H(r) is a key when g r is one.
    (2) Translation: the image of (g, p, q) is built from the labels of g,
    canon(g + a) and canon(g + b), and canon is the quotient map Z^2 ->
    Z^2/<(m, -n)> (proved in `group_canonical_pair`), so canon(g + canon(v))
    = canon(g + v).  So tau_g: v -> canon(g + v), each arrow following its
    source, is an automorphism of the folded grid quiver, commutes with
    Delta_path, and iota(g u) = tau_g iota(u) for every key u.
    (3) For u = g r, by (2), the check on r, then (2) and (1) on the keys of
    Delta_H(r), and Delta_H(g r) = (g (x) g) Delta_H(r) (`_comul_terms`):
    Delta_path iota(u) = (tau_g (x) tau_g)(iota (x) iota) Delta_H(r) =
    (iota (x) iota) Delta_H(u).  The image of (g, p, q) has coefficient 1 on
    the path from g of word x^p y^q, and its other path, yx, starts at g: the
    images are nonzero with disjoint supports (`paths` counts them), and
    their span is a subcoalgebra.  `Truncation._image` and `SubCoalgebra`
    still raise on a zero or dependent image.  Raises NotClosedUnderDelta
    naming the failing representative; returns the coproduct terms compared."""
    _certify_quotient_map(params)
    table, e = _table(params, _delta_table), params.canon(0, 0)
    compared = 0
    for rep in ((e, p, q) for p, q in table):
        name, expected = _fmt_key(rep), {}
        for (l, r), c in _comul_terms(params, {rep: 1}).items():
            tensor_axpy(expected, c, image(l).terms, image(r).terms)
        if image(rep).delta_dict() != expected:
            raise NotClosedUnderDelta(
                f"Delta(iota({name})) differs from (iota (x) iota) Delta({name})")
        compared += len(expected)
    return compared


def truncate_to_subcoalgebra(params, radius):
    """Embed the window-indexed basis into the grid path coalgebra.

    Returns a Truncation whose coalgebra is spanned by the images of
    a^i b^j x^p y^q for (i, j) in the window, completed at the boundary by the
    a-, b- and ab-shifts so the span is closed under comultiplication: the
    docstring of `_certify_embedding` proves it, with no elimination check."""
    if radius < 0:
        raise WindowTooSmall("radius must be nonnegative")
    return Truncation(params, radius)


def _truncation(params, radius, truncation, any_radius=False):
    """truncation, or a new one at radius if it is None.  Raises ParamMismatch
    if it was built for other params or, unless any_radius, another radius."""
    if truncation is None:
        return truncate_to_subcoalgebra(params, radius)
    if truncation.params is not params and truncation.params != params or (
            truncation.radius != radius and not any_radius):
        raise ParamMismatch(f"truncation of {truncation.params} at radius {truncation.radius}")
    return truncation


def contains_path_combination(params, radius, i, j, c1, c2, truncation=None):
    """Whether c1*(a^i b^j x | a^{i+1} b^j y) + c2*(a^i b^j y | a^i b^{j+1} x)
    lies in the embedded subcoalgebra.

    The certified image of (g, 1, 1) is xy - lam*yx, and no other image meets
    those two paths: `_certify_embedding` proves the supports disjoint.  So the
    combination lies in the span iff it is a multiple of that image:
    c1*img[yx] == c2*img[xy].  Only that image is built."""
    trunc = _truncation(params, radius, truncation)
    g = params.canon(i, j)
    img = trunc._built.get((g, 1, 1))
    if img is None:
        if max(map(abs, g)) > radius:  # g is canonical: in the window iff in the box
            raise WindowTooSmall(f"group part {g} outside the window")
        img = trunc.image_of(*g, 1, 1)
    # paths of one start and length order by arrow ids, so xy is first
    (xy, at_xy), (yx, at_yx) = sorted(img.terms.items())
    return bare(c1) * at_yx == bare(c2) * at_xy

