"""Exact sparse linear algebra over the cyclotomic scalars.

A sparse vector is a dict key -> value that stores no zero.  A value is a
`CycScalar` or a bare rational (`int` or `Fraction`), and one vector may mix
the two kinds.  A stored value follows one rule, `scalar.bare`: a rational
is bare and only an irrational is a `CycScalar`.  Arithmetic may still make
a rational `CycScalar` (z3 * z3^-1) inside a computation; that is sound
because a rational `CycScalar` compares and hashes like its value, and zero
is tested by truthiness, which both kinds share.  Nothing here boxes a
value: `rref`, `nullspace` and the rows of `SparseBasis` hold what
elimination leaves, with bare 0 and 1; `cyc` is applied only where
`coalgebra` and `comodules` return a scalar.  `accumulate` adds into
one entry, `axpy` adds a multiple of a whole vector and `tensor_axpy` a
multiple of a tensor product of two; all drop an entry that cancels.
`SparseElement` is that format as a value: the base of the path-coalgebra
elements, the algebra elements of B(m, n; lambda, s, t, k) and their tensor
square, which add only an ambient space and products.

One elimination kernel, `SparseBasis`, serves every caller.  Its keys are
totally ordered.  The basis is kept fully reduced: each row has coefficient
1 at its pivot (its smallest key) and 0 at every other row's pivot.  That is
the unique reduced row echelon form of the span, so `rref` and `nullspace` do
not depend on the order the rows arrive in.  No row is scanned for a new
pivot that no row has ever held, so disjoint supports need no back-elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import CycScalar, _q, bare


def accumulate(target, key, value):
    """target[key] += value, dropping the entry if it cancels."""
    new = target[key] + value if key in target else value
    if new:
        target[key] = new
    else:
        target.pop(key, None)


def axpy(target, coeff, source):
    """target += coeff * source, dropping entries that cancel."""
    for k, val in source.items():
        new = target[k] + coeff * val if k in target else coeff * val
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def tensor_axpy(target, coeff, left, right):
    """target[(k, l)] += coeff * left[k] * right[l], dropping entries that
    cancel."""
    for k, a in left.items():
        a = coeff * a
        for l, b in right.items():
            accumulate(target, (k, l), a * b)


def _inverse(value):
    """1 / value for a nonzero CycScalar or bare rational, of the same kind."""
    if isinstance(value, CycScalar):
        return value.inverse()
    return value if value in (1, -1) else _q(Fraction(1, value))


def _fmt_scalar(s):
    body = str(s)
    if "+" in body or "-" in body:
        return f"({body})"
    return body


class SparseElement:
    """A sparse combination of basis keys in an ambient space.

    `terms` is a sparse vector; the constructor stores each coefficient as
    `scalar.bare` gives it and drops zeros, and sums, multiples and
    `combination` go through it.  A subclass names its ambient space
    (`mismatch` is raised when two differ) and prints its keys with
    `_format_key`.  Sums, differences and equality need the same subclass;
    the text form is `coeff*key` terms in key order joined by `+`, and `0`
    when empty."""

    __slots__ = ("ambient", "terms")
    mismatch = None  # the error raised for elements of different spaces

    def __init__(self, ambient, terms):
        self.ambient = ambient
        clean = {}
        for key, coeff in terms.items():
            coeff = bare(coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def combination(cls, ambient, coeffs, elements):
        """sum c_i * x_i, summed in one dict; a product of irrationals that
        is rational ends up bare."""
        out = cls(ambient, {})
        for c, x in zip(coeffs, elements):
            c = bare(c)
            if c:
                out._check(x)
                axpy(out.terms, c, x.terms)
        return cls(ambient, out.terms)

    def _check(self, other):
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise self.mismatch(f"{type(self).__name__} operands live in different spaces")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return type(self)(self.ambient, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.ambient, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        s = bare(scalar)
        return type(self)(self.ambient, {k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ambient == other.ambient and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        return "+".join(
            f"{_fmt_scalar(self.terms[key])}*{self._format_key(key)}"
            for key in sorted(self.terms)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class SparseBasis:
    """An incrementally built, fully reduced basis of sparse vectors.

    `rows` maps each pivot to its reduced row.  With ``coords=True`` the engine
    also records, per pivot, the row as a combination of the inserted
    generators (`crows`), so membership tests yield coordinates in terms of
    the generators; without it `coords` raises.  `add` skips the scan for a new
    pivot no row has held (`_held`): no row holds it, so the form is unchanged.
    """

    def __init__(self, coords=False):
        self.rows = {}  # pivot -> row dict, coefficient 1 at the pivot
        self.crows = {} if coords else None  # pivot -> {tag: coeff}
        self._adds = 0
        self._held = set()  # a superset of the keys the rows hold

    @property
    def dim(self):
        return len(self.rows)

    def residue(self, vec, coords=True):
        """Reduce vec; returns (residue, coords) with
        vec = residue + sum(coords[tag] * generator_tag).  coords is None
        when the engine does not track coordinates or coords=False, which
        skips that bookkeeping.

        Only the rows whose pivot is in the support of vec are subtracted, with
        the coefficients vec has there: subtracting a reduced row leaves every
        other pivot's entry unchanged."""
        res = {k: v for k, v in vec.items() if v}
        rows = self.rows
        hits = [(p, c) for p, c in res.items() if p in rows]
        comb = {} if coords and self.crows is not None else None
        for p, c in hits:
            axpy(res, -c, rows[p])
            if comb is not None:
                axpy(comb, c, self.crows[p])
        return res, comb

    def contains(self, vec):
        res, _ = self.residue(vec, coords=False)
        return not res

    def coords(self, vec):
        """Coordinates over the original generators, or None if not in span."""
        if self.crows is None:
            raise RuntimeError("engine built without coordinate tracking")
        res, comb = self.residue(vec)
        return None if res else comb

    def add(self, vec, tag=None):
        """Insert a generator; returns True if it enlarged the span.  The tag
        names the generator in coordinates (default: the number of earlier
        add calls)."""
        if tag is None:
            tag = self._adds
        self._adds += 1
        res, comb = self.residue(vec)
        if not res:
            return False
        pivot = min(res)
        row, inv = res, res[pivot]
        if inv.__class__ is not int or inv != 1:  # an int 1 pivot is kept as is
            inv = _inverse(inv)
            row = {k: v * inv for k, v in res.items()}
        crow = None
        if comb is not None:
            crow = {tag: inv}
            axpy(crow, -inv, comb)
        # eliminate the new pivot from the existing rows, if one can hold it
        if pivot in self._held:
            for p, r in self.rows.items():
                c = r.get(pivot)
                if c is not None:
                    axpy(r, -c, row)
                    if crow is not None:
                        axpy(self.crows[p], -c, crow)
        self._held.update(row)
        self.rows[pivot] = row
        if crow is not None:
            self.crows[pivot] = crow
        return True


def rref(matrix):
    """Reduced row echelon form of a dense matrix.  Returns (rows,
    pivot_columns) with the rows sorted by pivot; zero rows are dropped and
    a zero entry is the bare int 0."""
    engine = SparseBasis()
    for row in matrix:
        engine.add(dict(enumerate(row)))
    ncols = len(matrix[0]) if matrix else 0
    pivots = sorted(engine.rows)
    return [[engine.rows[p].get(c, 0) for c in range(ncols)] for p in pivots], pivots


def nullspace(rows, ncols):
    """Basis of {x : sum_c row[c] * x[c] = 0 for every row}, for sparse rows
    over the columns 0..ncols-1, as dense vectors.

    Zero entries are dropped first.  A row left with one entry forces its
    column to 0, a pivot with a unit row, so only the longer rows, with the
    forced columns removed, go through `SparseBasis`; by the uniqueness of
    the reduced form the result is what full elimination gives.  The 0 and 1
    entries are bare ints, by the rule of `scalar.bare`; the others are
    reduced-row entries, negated, of the kind elimination leaves them.

    One vector per free (non-pivot) column f, in increasing order of f: 1 at
    f, -row_p[f] at each pivot p, 0 elsewhere."""
    forced, long_rows = {}, []  # forced: column -> its one-entry row's value
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        if len(row) == 1:
            forced.update(row)
        elif row:
            long_rows.append(row)
    engine = SparseBasis()
    for row in long_rows:
        row = {k: v for k, v in row.items() if k not in forced}
        if row:
            engine.add(row)
    pivot_rows = engine.rows
    vecs = {
        f: [1 if c == f else 0 for c in range(ncols)]
        for f in range(ncols) if f not in pivot_rows and f not in forced
    }
    # a reduced row is zero at every other pivot, so its other keys are free
    for p, row in pivot_rows.items():
        for f, c in row.items():
            if f != p:
                vecs[f][p] = -c
    return list(vecs.values())
