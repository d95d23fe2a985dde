"""Exact sparse linear algebra over the cyclotomic scalars.

One elimination kernel, `SparseBasis`, serves every caller.  Vectors are
dicts key -> CycScalar over totally ordered keys.  The basis is kept fully
reduced: each row has coefficient 1 at its pivot (its smallest key) and 0 at
every other row's pivot.  That is the unique reduced row echelon form of the
span, so `rref` and `nullspace` do not depend on the order the rows arrive in.
"""

from __future__ import annotations

from .scalar import ONE, ZERO


def _axpy(target, coeff, source):
    """target += coeff * source, dropping entries that cancel."""
    for k, val in source.items():
        new = target.get(k, ZERO) + coeff * val
        if new.is_zero():
            target.pop(k, None)
        else:
            target[k] = new


class SparseBasis:
    """An incrementally built, fully reduced basis of sparse vectors.

    `rows` maps each pivot to its reduced row.  With ``coords=True`` the engine
    also records, per pivot, the row as a combination of the inserted
    generators (`crows`), so membership tests yield coordinates in terms of
    the generators; without it `coords` raises.
    """

    def __init__(self, coords=False):
        self.rows = {}  # pivot -> row dict, coefficient 1 at the pivot
        self.crows = {} if coords else None  # pivot -> {tag: coeff}
        self._adds = 0

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
        res = {k: v for k, v in vec.items() if not v.is_zero()}
        rows = self.rows
        hits = [(p, c) for p, c in res.items() if p in rows]
        comb = {} if coords and self.crows is not None else None
        for p, c in hits:
            _axpy(res, -c, rows[p])
            if comb is not None:
                _axpy(comb, c, self.crows[p])
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
        inv = res[pivot].inverse()
        row = {k: v * inv for k, v in res.items()}
        crow = None
        if comb is not None:
            crow = {tag: inv}
            for t, v in comb.items():
                val = -v * inv
                if not val.is_zero():
                    crow[t] = crow.get(t, ZERO) + val
        # eliminate the new pivot from the existing rows
        for p, r in self.rows.items():
            c = r.get(pivot)
            if c is not None:
                _axpy(r, -c, row)
                if crow is not None:
                    _axpy(self.crows[p], -c, crow)
        self.rows[pivot] = row
        if crow is not None:
            self.crows[pivot] = crow
        return True


def rref(matrix):
    """Reduced row echelon form of a dense matrix.  Returns (rows,
    pivot_columns) with the rows sorted by pivot; zero rows are dropped."""
    engine = SparseBasis()
    for row in matrix:
        engine.add(dict(enumerate(row)))
    ncols = len(matrix[0]) if matrix else 0
    pivots = sorted(engine.rows)
    return [[engine.rows[p].get(c, ZERO) for c in range(ncols)] for p in pivots], pivots


def nullspace(rows, ncols):
    """Basis of {x : sum_c row[c] * x[c] = 0 for every row}, for sparse rows
    over the columns 0..ncols-1, as dense vectors.

    One vector per free (non-pivot) column f, in increasing order of f: 1 at
    f, -row_p[f] at each pivot p, 0 elsewhere."""
    engine = SparseBasis()
    for row in rows:
        engine.add(row)
    pivot_rows = engine.rows
    vecs = {}
    for f in range(ncols):
        if f not in pivot_rows:
            vec = [ZERO] * ncols
            vec[f] = ONE
            vecs[f] = vec
    # a reduced row is zero at every other pivot, so its other keys are free
    for p, row in pivot_rows.items():
        for f, c in row.items():
            if f != p:
                vecs[f][p] = -c
    return list(vecs.values())
