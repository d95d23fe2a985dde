"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) of zeta_N modulo
the N-th cyclotomic polynomial.  Rational coordinates have one normal form
(``_q``): an ``int`` when integral, a reduced ``Fraction`` otherwise.  The two
compare and hash equal, so the form changes no result, only its cost.  A
coordinate is divided only through ``Fraction``: ``1 / c`` on an ``int`` is a
float.  Mixed conductors are handled by lazy promotion to the lcm.  Every
element is kept at its minimal conductor, so equality and hashing are
structural, and a rational element hashes as its coordinate, which it equals.
v + q, q * v (q != 0) and 1 / v generate the field of v, and a root of unity
is built at its minimal conductor in closed form, so only a sum or product of
two irrationals is demoted to a subfield Q(zeta_d); that and inverting an
element are small exact linear problems, solved on bare rationals by
`linalg.SparseBasis`, the one elimination kernel.

Text grammar (bit-exact round trip): rationals as ``p/q``, roots of unity as
``z<N>^<e>`` with N <= MAX_CONDUCTOR, products with ``*``, sums with
``+``/``-``, parentheses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add

from .errors import CapacityExceeded, DivisionByZero, ParseError, SquareRootUnavailable, ZeroInput

_ZERO = 0
_ONE = 1
# the largest N a literal z<N> may name: Q(zeta_N) has dimension phi(N), and
# building Phi_N and reducing modulo it take time quadratic in N and more;
# sums and products of irrationals stop at 4 * MAX_CONDUCTOR (`promote`)
MAX_CONDUCTOR = 1000


def _q(x):
    """The normal form of a rational coordinate: int when integral."""
    return x.numerator if x.denominator == 1 else x


def _lcm(a, b):
    return a * b // gcd(a, b)


def phi(n):
    """Euler totient."""
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            result *= p - 1
            m //= p
            while m % p == 0:
                result *= p
                m //= p
        p += 1
    if m > 1:
        result *= m - 1
    return result


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


_cyclo_cache = {1: [-1, 1]}


def cyclotomic_poly(n):
    """Integer coefficient list (low degree first) of the n-th cyclotomic polynomial."""
    if n in _cyclo_cache:
        return _cyclo_cache[n]
    # (x^n - 1) divided by the product of Phi_d over proper divisors d of n
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n):
        if d == n:
            continue
        den = cyclotomic_poly(d)
        # exact polynomial division num // den
        quot = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(den) - 1] // den[-1]
            quot[i] = c
            if c:
                for j, dc in enumerate(den):
                    rem[i + j] -= c * dc
        num = quot
    _cyclo_cache[n] = num
    return num


def _reduce_mod_cyclo(coeffs, n):
    """Reduce a polynomial (list of ints and Fractions) modulo Phi_n; return a
    vector of length phi(n).  Phi_n is monic, so no coordinate is divided."""
    deg = phi(n)
    poly = cyclotomic_poly(n)
    work = list(coeffs)
    if len(work) < deg:
        work += [_ZERO] * (deg - len(work))
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(len(poly) - 1):
                work[i - deg + j] -= c * poly[j]
            work[i] = _ZERO
    return work[:deg]


_embed_cache = {}


def _embed_vec(d, n, j):
    """Coordinates of zeta_d^j in the power basis of zeta_n (d | n)."""
    key = (d, n, j)
    if key not in _embed_cache:
        e = (n // d) * j
        poly = [_ZERO] * e + [_ONE]
        _embed_cache[key] = tuple(_reduce_mod_cyclo(poly, n))
    return _embed_cache[key]


_subfield_cache = {}


def _subfield_basis(d, n):
    """The power basis of zeta_d embedded in Q(zeta_n) (d | n), as a
    coordinate-tracking `SparseBasis` whose generator zeta_d^j is tagged j."""
    key = (d, n)
    if key not in _subfield_cache:
        from .linalg import SparseBasis  # linalg imports this module at load time

        basis = SparseBasis(coords=True)
        for j in range(phi(d)):
            basis.add(dict(enumerate(_embed_vec(d, n, j))), j)
        _subfield_cache[key] = basis
    return _subfield_cache[key]


class CycScalar:
    """An element of a cyclotomic field Q(zeta_n), immutable."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        # assumes coeffs already reduced mod Phi_n, at minimal conductor and in
        # the normal form of _q (int when integral); use the constructors below
        self.n = n
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def root_of_unity(n, e=1):
        """zeta_n^e at its minimal conductor, in closed form.

        zeta_n^e = zeta_d^f, d = n / gcd(n, e), f = (e mod n) / gcd(n, e), is a
        primitive d-th root of unity.  Q(zeta_c) holds exactly the roots of
        unity of orders dividing lcm(2, c), so the minimal conductor is d,
        unless d = 2 mod 4.  Then h = d / 2 is odd and it is h:
        w = -zeta_h^((h+1)/2) has w^2 = zeta_h = zeta_d^2 and w^h = -1 =
        zeta_d^h != (-zeta_d)^h, so w = zeta_d; f is odd, so
        zeta_d^f = -zeta_h^(f(h+1)/2).  zeta_c^j is x^j reduced modulo Phi_c.
        Past conductor 4 * MAX_CONDUCTOR, CapacityExceeded before Phi_c is built."""
        g = gcd(n, e)
        d, f, sign = n // g, e % n // g, _ONE
        if d % 4 == 2:
            d //= 2
            f, sign = f * (d + 1) // 2 % d, -_ONE
        if d > 4 * MAX_CONDUCTOR:
            raise CapacityExceeded(f"conductor {d} exceeds {4 * MAX_CONDUCTOR}")
        return CycScalar(d, _reduce_mod_cyclo([_ZERO] * f + [sign], d))

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        """Zero is kept at its minimal conductor, 1, like every element: it
        is the one element with n == 1 and a zero constant coordinate."""
        return self.n == 1 and not self.coeffs[0]

    def __bool__(self):
        return self.n != 1 or bool(self.coeffs[0])

    # -- conductor handling -------------------------------------------------

    def promote(self, n):
        """Re-express in conductor n (self.n must divide n).  Not canonical;
        internal use for common-field arithmetic.  Past n = 4 * MAX_CONDUCTOR,
        CapacityExceeded: `sqrt` returns roots up to this bound (`root_of_unity`
        refuses the rest), and `classify.verify_witness` multiplies them."""
        if n > 4 * MAX_CONDUCTOR:
            raise CapacityExceeded(f"conductor {n} exceeds {4 * MAX_CONDUCTOR}")
        if n == self.n:
            return self.coeffs
        vec = [_ZERO] * phi(n)
        for j, c in enumerate(self.coeffs):
            if c:
                emb = _embed_vec(self.n, n, j)
                for i, e in enumerate(emb):
                    if e:
                        vec[i] += c * e
        return vec

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return CycScalar(1, (_q(other),))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1:
            self, other = other, self
        if other.n == 1:
            return CycScalar(self.n, (_q(self.coeffs[0] + other.coeffs[0]), *self.coeffs[1:]))
        n = _lcm(self.n, other.n)
        a, b = self.promote(n), other.promote(n)
        return _canonical(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == 1:
            self, other = other, self
        if other.n == 1:
            q = other.coeffs[0]
            if not q:
                return ZERO
            return CycScalar(self.n, [_q(q * c) for c in self.coeffs])
        n = _lcm(self.n, other.n)
        a, b = self.promote(n), other.promote(n)
        prod = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _canonical(n, _reduce_mod_cyclo(prod, n))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero scalar")
        if self.n == 1:
            return CycScalar(1, (_q(1 / Fraction(self.coeffs[0])),))
        from .linalg import SparseBasis  # linalg imports this module at load time

        # solve x * y = 1 over the columns x * zeta^j, j < phi(n)
        n, deg = self.n, phi(self.n)
        system = SparseBasis(coords=True)
        for j in range(deg):
            col = _reduce_mod_cyclo([_ZERO] * j + list(self.coeffs), n)
            system.add(dict(enumerate(col)), j)
        inv = system.coords({0: _ONE})
        return CycScalar(n, [_q(inv.get(j, _ZERO)) for j in range(deg)])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs[0] if self.n == 1 else (self.n, self.coeffs))

    # -- serialization ------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            neg = c < 0
            mag = -c if neg else c
            if j == 0:
                body = _fmt_rational(mag)
            elif mag == 1:
                body = f"z{self.n}^{j}"
            else:
                body = f"{_fmt_rational(mag)}*z{self.n}^{j}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("-" if neg else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return f"CycScalar({self!s})"


def _fmt_rational(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _canonical(n, vec):
    """Demote (n, vec) to the minimal conductor representation."""
    vec = [_q(c) for c in vec]
    if all(c == 0 for c in vec[1:]):
        return CycScalar(1, (vec[0],))
    sparse = dict(enumerate(vec))
    for d in _divisors(n)[:-1]:
        if d <= 2:  # Q(zeta_1) = Q(zeta_2) = Q, ruled out above
            continue
        sol = _subfield_basis(d, n).coords(sparse)
        if sol is not None:
            return CycScalar(d, tuple(_q(sol.get(j, _ZERO)) for j in range(phi(d))))
    return CycScalar(n, tuple(vec))


ZERO = CycScalar(1, (_ZERO,))
ONE = CycScalar(1, (_ONE,))


def _parse(text):
    """A rational literal (``-3``, ``2/5``, no whitespace) straight to its `_q`
    value through `_literal`, any other string through `parse_scalar`."""
    m = _RATIONAL_LITERAL.fullmatch(text)
    return parse_scalar(text) if m is None else _literal(text, *m.groups())


def _literal(text, p, q=None):
    """A literal its regex has matched, read once off its digit groups:
    ``int(p)``, or ``_q(Fraction(int(p), int(q)))``.  Raises ParseError naming
    it for a zero denominator or more digits than int() reads (Python caps
    them at sys.get_int_max_str_digits())."""
    try:
        return int(p) if q is None else _q(Fraction(int(p), int(q)))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"too many digits in {text!r}") from None


def cyc(value):
    """Coerce an int, Fraction, str (scalar grammar, see `_parse`), or CycScalar."""
    if isinstance(value, CycScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return CycScalar(1, (_q(value),))
    if isinstance(value, str):
        return cyc(_parse(value))
    raise TypeError(f"cannot coerce {value!r} to a scalar")


def bare(value):
    """A coefficient as a value: a rational as a bare int or Fraction in the
    normal form of `_q`, a `Laurent` as itself unless constant, anything
    else as the CycScalar `cyc` gives; a string as `_parse` reads it."""
    if isinstance(value, CycScalar):
        return value.coeffs[0] if value.n == 1 else value
    if isinstance(value, (int, Fraction)):
        return _q(value)
    if isinstance(value, Laurent):
        return value if value.terms.keys() - {_UNIT} else value.terms.get(_UNIT, 0)
    return bare(_parse(value) if isinstance(value, str) else cyc(value))


_UNIT = (0, 0, 0, 0)


class Laurent:
    """A Laurent polynomial in Q[lam^+-1, s, t, k]: `terms` maps exponent
    4-tuples to nonzero bare rationals.  +, - and * take bare rationals and
    rational CycScalars too; a negative power of a polynomial that is no
    monomial raises ValueError; truth value is "not the zero polynomial"."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def _collect(items):
        out = {}
        for e, c in items:
            c = out.pop(e, 0) + c
            if c:
                out[e] = c
        return Laurent(out)

    @staticmethod
    def _coerce(other):
        if isinstance(other, (int, Fraction)) or isinstance(other, CycScalar) and other.n == 1:
            return {_UNIT: bare(other)} if other else {}
        return other.terms if isinstance(other, Laurent) else None

    def __add__(self, other):
        terms = self._coerce(other)
        return NotImplemented if terms is None else self._collect(
            [*self.terms.items(), *terms.items()])

    def __mul__(self, other):
        # a bare rational or a monomial factor lets no two terms collide
        if isinstance(other, (int, Fraction)):
            return Laurent({e: c * other for e, c in self.terms.items()} if other else {})
        terms = self._coerce(other)
        if terms is not None and 1 in (len(self.terms), len(terms)):
            one, many = (terms, self.terms) if len(terms) == 1 else (self.terms, terms)
            ((e2, c2),) = one.items()
            return Laurent({tuple(map(add, e, e2)): c * c2 for e, c in many.items()})
        return NotImplemented if terms is None else self._collect(
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in terms.items())

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, e):
        if len(self.terms) == 1:
            ((exps, c),) = self.terms.items()
            return Laurent({tuple(x * e for x in exps): _q(Fraction(c) ** e)})
        if e < 0:
            raise ValueError("a negative power of a Laurent polynomial that is no monomial")
        return prod([self] * e, start=Laurent({_UNIT: 1}))

    def inverse(self):
        return self ** -1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        terms = self._coerce(other)
        return NotImplemented if terms is None else self.terms == terms


def root_of_unity_order(a):
    """Least d with a^d = 1, or None if a is not a root of unity.  A primitive
    d-th root of unity has minimal conductor d, or d / 2 when d = 2 mod 4,
    so d is a.n or 2 * a.n, and a^(a.n) = 1 or -1 tells which."""
    a = cyc(a)
    if a.is_zero():
        raise ZeroInput("root_of_unity_order of zero")
    power = a ** a.n
    return a.n if power == ONE else 2 * a.n if power == -ONE else None


def sqrt(a):
    """An exact square root when the element is (rational) * zeta_N^e with a
    +/- perfect-square rational part; raises SquareRootUnavailable otherwise.
    The coordinates of a are rotated by zeta_n to the least e with
    a * zeta_n^e = q rational, so a = q * zeta_n^k, k = (n - e) mod n, and a
    root is sqrt(q) * zeta_2n^k, or sqrt(-q) * zeta_4n^(n + 2k) if q < 0."""
    a = cyc(a)
    if a.is_zero():
        return ZERO
    n, vec = a.n, a.coeffs
    for e in range(n):
        if not any(vec[1:]):
            q, k = vec[0], (n - e) % n
            m, j = (2 * n, k) if q > 0 else (4 * n, n + 2 * k)
            root = _rational_sqrt(abs(q))
            if root is None:
                break
            return cyc(root) * CycScalar.root_of_unity(m, j)
        vec = _reduce_mod_cyclo([_ZERO, *vec], n)
    raise SquareRootUnavailable(f"no constructible square root for {a}")


def _rational_sqrt(q):
    """The square root of a rational q > 0, or None if it is irrational."""
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


# -- parser -----------------------------------------------------------------

_RATIONAL_LITERAL = re.compile(r"(-?\d+)(?:/(\d+))?")
_TOKEN = re.compile(r"\s*(?:(?P<rat>(\d+)(?:/(\d+))?)|(?P<root>z(\d+)(?:\^(-?\d+))?)"
                    r"|(?P<op>[-+*()]))")


def _tokenize(text):
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad scalar syntax at {text[pos:]!r}")
            break
        pos = m.end()
        rat, p, q, root, n, e, op = m.groups()
        if rat:
            tokens.append(("rat", _literal(rat, p, q)))
        elif root:
            tokens.append(("root", (_literal(root, n), _literal(root, e or "1"))))
        else:
            tokens.append((op, None))
    return tokens


def parse_scalar(text):
    """Parse the scalar grammar into a CycScalar."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0] if pos[0] < len(tokens) else None

    def take():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def atom():
        kind = peek()
        if kind == "rat":
            return cyc(take()[1])
        if kind == "root":
            n, e = take()[1]
            if n < 1:
                raise ParseError("root-of-unity index must be positive")
            if n > MAX_CONDUCTOR:
                raise CapacityExceeded(f"root-of-unity index {n} exceeds {MAX_CONDUCTOR}")
            return CycScalar.root_of_unity(n, e % n)
        if kind == "(":
            take()
            v = expr()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            take()
            return v
        raise ParseError(f"unexpected token in scalar: {text!r}")

    def factor():
        if peek() == "-":
            take()
            return -factor()
        if peek() == "+":
            take()
            return factor()
        return atom()

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = v * factor()
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = take()[0]
            w = term()
            v = v + w if op == "+" else v - w
        return v

    if not tokens:
        raise ParseError("empty scalar")
    v = expr()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing input in scalar: {text!r}")
    return v
