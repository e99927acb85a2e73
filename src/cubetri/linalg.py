"""Exact sparse linear algebra over Q(i).

A matrix is stored in one canonical integer form: a denominator den > 0
and `rows`, a dict mapping each row index that holds a stored entry to a
list of (col, re, im), so that entry (r, col) is (re + im*i)/den with re,
im integers.  No zero is stored, and gcd(den, every re and im) = 1.  The
canonical form of a matrix is unique: den is the lcm of the denominators
of its entries in lowest terms.  So `==` and `hash` read the stored form
as it is, and every operation runs on integers and reduces its result
once, by one gcd over den and all the parts (`_canonical`).  The column
form (`ExactMatrix.columns`) is computed only where it is read, and kept
on the matrix, as the hash is.  `GaussianRational` appears only at the
edges: `get`, the read-only `entries` view, the constructor, `trace` and
the exchange format.

Every product of stored rows is the one integer walk `_walk`, whose steps
are integer multiply-adds: `matmul` walks the rows of its left operand
against those of its right; `exp_nilpotent` sums its series over the
single denominator delta^j j!; `bracket` forms ab ± ba in one walk, for
every (anti)commutator of the package: the relations of both algebras
(`acsa.check_relations`, `sl2rep.check_brackets`), the skew checks of
`sl2rep.build_skew`, the nu scalars and the generator z of a T-module.
`_echelon` eliminates fraction-free in Z[i], and `_char_poly` works in Z[i]
as well.  No code path forms a dense 2^D-dimensional product: the cube
operators are sparse, and the skew operator is built per T-module class
(`tmodules.h_by_class`).

A basis of a subspace is the matrix whose columns are its vectors; there is
no separate basis type.  `ExactMatrix.from_columns` scales each column so
its first nonzero coordinate is 1, `kernel_basis` returns such a matrix,
and `restrict` takes one.

Every elimination runs through the one forward row reducer `_echelon` and
the one back substitution `_null_vector`: `rank` counts pivots,
`kernel_basis` reads a null vector per free column, and `invert` and
`restrict` go through `_solve`, which proves from where the pivots of
[S | B] fall that S has full column rank and that every column of B lies
in span S, then reads the unique X with S X = B off null vectors of
[S | B].  A change of basis to the columns of P is `restrict(M, P)` =
P^-1 M P, so P^-1 is never formed.  Every elimination is module-sized: a
(d+1)-dimensional action on a T-module, or a triple that `classify` reads
under its `--max-D` cap.  None runs on the 2^D-dimensional space: the one
kernel there, ker psi, is proved by its structure (`suites.suite_transport`).
"""
from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .exactnum import ZERO, GaussianRational, _reduced


class ExactMatrix:
    """Sparse exact matrix over Q(i), immutable: entry (r, c) is
    (re + im*i)/den for each (c, re, im) of rows[r], in the canonical form
    the module docstring describes.  `den` and `rows` are read, never
    changed; a row list may be shared by several matrices."""

    __slots__ = ("nrows", "ncols", "den", "rows", "_hash", "_cols")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        items = []
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ValueError(f"entry index ({r},{c}) out of bounds for {nrows}x{ncols}")
                a, b, d = _triple(v)
                if a or b:
                    items.append((r, c, a, b, d))
        # reduced triples over the lcm of their denominators are canonical
        # already: a prime power exactly dividing the lcm exactly divides
        # some entry's d, whose parts it does not both divide
        den, rows = _over_lcm(items)
        _set(self, "nrows", nrows)
        _set(self, "ncols", ncols)
        _set(self, "den", den)
        _set(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _make(cls, nrows, ncols, den, rows) -> "ExactMatrix":
        # internal: rows/den already canonical, every index in bounds
        m = object.__new__(cls)
        _set(m, "nrows", nrows)
        _set(m, "ncols", ncols)
        _set(m, "den", den)
        _set(m, "rows", rows)
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._make(nrows, ncols, 1, {})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._make(n, n, 1, {i: [(i, 1, 0)] for i in range(n)})

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        values = list(values)
        return cls(len(values), len(values), {(i, i): v for i, v in enumerate(values)})

    @classmethod
    def from_columns(cls, nrows: int, columns) -> "ExactMatrix":
        """The nrows x len(columns) matrix whose column j is columns[j], a
        dict row -> value, scaled so its first nonzero coordinate is 1.
        A column is read as Gaussian integers over the lcm of its
        denominators, which the scaling cancels (`_first_entry_one`)."""
        int_columns = []
        for col in columns:
            parts = [(r, *_triple(v)) for r, v in col.items()]
            d = lcm(*(t[3] for t in parts))
            int_columns.append(
                [(r, a * (d // e), b * (d // e)) for r, a, b, e in parts if a or b]
            )
        return _first_entry_one(nrows, int_columns)

    @classmethod
    def hstack(cls, blocks) -> "ExactMatrix":
        """The matrix whose columns are those of blocks, in order, over the
        lcm of their denominators.  Each block is canonical, so the result
        is: a prime power exactly dividing the lcm exactly divides the
        denominator of some block, which has a part it does not divide."""
        blocks = list(blocks)
        den = lcm(*(m.den for m in blocks))
        rows: dict = {}
        offset = 0
        for m in blocks:
            f = den // m.den
            for r, row in m.rows.items():
                rows.setdefault(r, []).extend((c + offset, a * f, b * f) for c, a, b in row)
            offset += m.ncols
        nrows = blocks[0].nrows if blocks else 0
        return cls._make(nrows, offset, den, rows)

    # -- access ------------------------------------------------------------

    def get(self, r: int, c: int) -> GaussianRational:
        for j, a, b in self.rows.get(r, ()):
            if j == c:
                return _reduced(a, b, self.den)
        return ZERO

    @property
    def entries(self) -> Mapping:
        """A read-only view (row, col) -> GaussianRational of the stored
        entries; each value is formed when it is read."""
        return _Entries(self)

    def nnz(self) -> int:
        return sum(map(len, self.rows.values()))

    def is_zero(self) -> bool:
        return not self.rows

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> "ExactMatrix":
        """Column j as an nrows x 1 matrix."""
        col = {r: [(0, a, b)] for r, row in self.rows.items() for c, a, b in row if c == j}
        return _canonical(self.nrows, 1, self.den, col)

    def columns(self) -> dict:
        """The column form of the stored entries: each column index holding
        a stored entry maps to a list of (row, re, im) over `den`.  Formed
        on the first call and kept on the matrix; entries of one row that
        follow each other with equal values share one triple."""
        try:
            return self._cols
        except AttributeError:
            cols: dict = {}
            for r, row in self.rows.items():
                t = None
                for c, a, b in row:
                    if t is None or t[1] != a or t[2] != b:
                        t = (r, a, b)
                    col = cols.get(c)
                    if col is None:
                        cols[c] = [t]
                    else:
                        col.append(t)
            _set(self, "_cols", cols)
            return cols

    def __eq__(self, other):
        """Equal stored forms, as the canonical form is unique; a row may
        list its entries in any order."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols, self.den) != (other.nrows, other.ncols, other.den):
            return False
        mine, theirs = self.rows, other.rows
        if mine == theirs:
            return True
        if mine.keys() != theirs.keys():
            return False
        return all(
            row == theirs[r] or sorted(row) == sorted(theirs[r]) for r, row in mine.items()
        )

    def __hash__(self):
        # computed once per matrix from the stored form, with no scalar
        # formed: every lookup of a builder cached on a module basis hashes
        # that basis
        try:
            return self._hash
        except AttributeError:
            stored = frozenset((r, frozenset(row)) for r, row in self.rows.items())
            h = hash((self.nrows, self.ncols, self.den, stored))
            _set(self, "_hash", h)
            return h

    def __repr__(self):
        return f"<ExactMatrix {self.nrows}x{self.ncols}, {self.nnz()} nonzero>"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign*other, sign = ±1, over the lcm of the denominators;
        a row of one side only is scaled, or kept as it is."""
        self._same_shape(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        rows = {r: _scaled(row, fa) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            mine = rows.get(r)
            if mine is None:
                rows[r] = _scaled(row, fb)
                continue
            sums = {c: (a, b) for c, a, b in mine}
            for c, a, b in row:
                cur = sums.get(c)
                sums[c] = (a * fb, b * fb) if cur is None else (cur[0] + a * fb, cur[1] + b * fb)
            merged = [(c, a, b) for c, (a, b) in sums.items() if a or b]
            if merged:
                rows[r] = merged
            else:
                del rows[r]
        return _canonical(self.nrows, self.ncols, den, rows)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._make(self.nrows, self.ncols, self.den, {
            r: [(c, -a, -b) for c, a, b in row] for r, row in self.rows.items()
        })

    def __mul__(self, scalar) -> "ExactMatrix":
        p, q, e = _triple(scalar)
        if not (p or q):
            return ExactMatrix.zeros(self.nrows, self.ncols)
        if q:
            rows = {
                r: [(c, a * p - b * q, a * q + b * p) for c, a, b in row]
                for r, row in self.rows.items()
            }
        else:
            rows = {r: _scaled(row, p) for r, row in self.rows.items()}
        return _canonical(self.nrows, self.ncols, self.den * e, rows)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return matmul(self, other)

    def trace(self) -> GaussianRational:
        re = im = 0
        for r, row in self.rows.items():
            for c, a, b in row:
                if c == r:
                    re, im = re + a, im + b
        return _reduced(re, im, self.den)

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )


_set = object.__setattr__


class _Entries(Mapping):
    """The `ExactMatrix.entries` view: keys (row, col) in stored order,
    values GaussianRational, formed as they are read."""

    __slots__ = ("_m",)

    def __init__(self, m: ExactMatrix):
        self._m = m

    def __len__(self):
        return self._m.nnz()

    def __iter__(self):
        for r, row in self._m.rows.items():
            for c, _a, _b in row:
                yield r, c

    def __getitem__(self, key):
        v = self._m.get(*key)
        if not v:  # no zero is stored
            raise KeyError(key)
        return v


def unit_entries(n: int, re: int = 1, im: int = 0) -> list:
    """The stored triples (c, re, im) of an entry re + im*i in column c < n,
    for builders of matrices whose entries are the units 1, -1, i or -i of
    Z[i]: rows that share a triple share its memory."""
    return [(c, re, im) for c in range(n)]


def _triple(value) -> tuple[int, int, int]:
    """The reduced triple (a, b, d) of an int, Fraction or GaussianRational,
    formed without a GaussianRational."""
    if type(value) is GaussianRational:
        return value.triple
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")


def _scaled(row, f: int):
    """A stored row times the integer f; the row itself when f = 1."""
    if f == 1:
        return row
    return [(c, a * f, b * f) for c, a, b in row]


def _canonical(nrows: int, ncols: int, den: int, rows: dict) -> ExactMatrix:
    """The matrix rows/den, for den > 0 and rows with no zero stored,
    divided by g = gcd(den, every part): the one gcd of an operation.  The
    scan stops at the end of the row where g reaches 1."""
    g = den
    for row in rows.values():
        if g == 1:
            break
        for _c, a, b in row:
            g = gcd(g, a, b)
    if g != 1:
        den //= g
        rows = {r: [(c, a // g, b // g) for c, a, b in row] for r, row in rows.items()}
    return ExactMatrix._make(nrows, ncols, den, rows)


def _over_lcm(items) -> tuple[int, dict]:
    """(den, rows) with entry (r, c) = (a + b*i)/d for each (r, c, a, b, d)
    of items, d > 0 and a + b*i != 0, over the lcm den of the d; not yet
    reduced (`_canonical`)."""
    den = lcm(*{t[4] for t in items})
    rows: dict = {}
    for r, c, a, b, d in items:
        if d != den:
            a, b = a * (den // d), b * (den // d)
        row = rows.get(r)
        if row is None:
            rows[r] = [(c, a, b)]
        else:
            row.append((c, a, b))
    return den, rows


def _first_entry_one(nrows: int, columns) -> ExactMatrix:
    """The matrix whose column j is columns[j], a list of (row, re, im)
    Gaussian integers with no zero, divided by its entry f at the least
    row: entry (a + b*i) conj(f)/|f|^2, or (a + b*i)/f for a real f."""
    items = []
    for j, col in enumerate(columns):
        if not col:
            raise ValueError(f"basis vector {j} is zero")
        col = sorted(col)
        _r, fr, fi = col[0]
        if fi:
            n = fr * fr + fi * fi
            items += [(r, j, a * fr + b * fi, b * fr - a * fi, n) for r, a, b in col]
        else:
            s = -1 if fr < 0 else 1
            items += [(r, j, s * a, s * b, s * fr) for r, a, b in col]
    return _canonical(nrows, len(columns), *_over_lcm(items))


# -- products ----------------------------------------------------------------


def _walk(rows, b_rows):
    """The one integer walk of a product: for each (i, row) of `rows`, a
    row as (k, re, im) Gaussian integers (the stored form), yield (i, sums),
    sums the dict j -> [re, im] of row i of the product with `b_rows`.
    Each stored (i, k) meets the stored entries of row k of b_rows, one
    integer multiply-add per pair; an entry whose row of b_rows is empty
    is passed over.  Sums that cancel to 0 stay in the dict."""
    for i, row in rows:
        sums: dict = {}
        for k, ar, ai in row:
            b_row = b_rows.get(k)
            if b_row is None:
                continue
            for j, br, bi in b_row:
                cur = sums.get(j)
                if cur is None:
                    sums[j] = [ar * br - ai * bi, ar * bi + ai * br]
                else:
                    cur[0] += ar * br - ai * bi
                    cur[1] += ar * bi + ai * br
        yield i, sums


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact product by the integer walk `_walk` of the stored rows: with
    a = A/d and b = B/e, A B is walked over d*e and reduced once
    (`_canonical`).  The cost is the number of pairs of a stored A[i, k]
    and a stored entry of row k of B, and besides the result only one row
    of sums is held at a time."""
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    rows = {}
    for i, sums in _walk(a.rows.items(), b.rows):
        row = [(j, re, im) for j, (re, im) in sums.items() if re or im]
        if row:
            rows[i] = row
    return _canonical(a.nrows, b.ncols, a.den * b.den, rows)


def bracket(a: ExactMatrix, b: ExactMatrix, sign: int = 1) -> ExactMatrix:
    """ab + sign*ba for square a and b of one size and sign = ±1: the
    anticommutator for 1, the commutator for -1.  With a = A/d and b = B/e,
    AB + sign*BA is one integer walk (`_walk`) of the rows of [A | sign*B]
    against the stacked rows [B; A], over d*e and reduced once
    (`_canonical`)."""
    n = a.nrows
    if not a.ncols == b.nrows == b.ncols == n:
        raise ValueError(f"bracket of {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols}")
    rows = {i: list(row) for i, row in a.rows.items()}
    for i, row in b.rows.items():
        rows.setdefault(i, []).extend((k + n, sign * re, sign * im) for k, re, im in row)
    stacked = dict(b.rows)
    stacked.update((k + n, row) for k, row in a.rows.items())
    out = {}
    for i, sums in _walk(rows.items(), stacked):
        row = [(j, re, im) for j, (re, im) in sums.items() if re or im]
        if row:
            out[i] = row
    return _canonical(n, n, a.den * b.den, out)


# -- elimination: echelon form, rank, kernels ----------------------------------


def _echelon(rows):
    """Fraction-free forward elimination over Z[i]; returns the pivot rows
    as (col, row) in increasing col, each a dict col -> (re, im) with a
    real pivot and zero below it, left undivided.

    Each of `rows` lists (col, re, im) for its nonzero entries, Gaussian
    integers (the stored form).  The next pivot column is the least leading
    column of a remaining row, and one row led there becomes the pivot row.
    A non-real pivot p is made real first, by multiplying its row by
    conj(p).  Every other row led there is replaced by p*row - f*pivot_row,
    for f its entry in that column (`_eliminate`), and divided by the gcd
    of its integer parts.  With real pivots that gcd can take out the
    previous pivot, the exact divisor of Bareiss (1968): on dense Gaussian
    matrices up to 60 x 60 the integers stayed within about twice the bit
    length of his minors.  A Gaussian factor such as 1 + 2i escapes an
    integer gcd, so with non-real pivots they would grow exponentially."""
    leading: dict = {}
    for row in rows:
        if row:
            row = {c: (a, b) for c, a, b in row}
            leading.setdefault(min(row), []).append(row)
    pivots = []
    while leading:
        col = min(leading)
        pivot_row, *led = leading.pop(col)
        pr, pi = pivot_row[col]
        if pi:
            pivot_row = _primitive(
                {j: (a * pr + b * pi, b * pr - a * pi) for j, (a, b) in pivot_row.items()}
            )
        for row in led:
            row = _eliminate(row, pivot_row, col)
            if row:
                leading.setdefault(min(row), []).append(row)
        pivots.append((col, pivot_row))
    return pivots


def _eliminate(row, pivot_row, col):
    """p*row - f*pivot_row for the real pivot p = pivot_row[col] and
    f = row[col], which is 0 at col, divided by its content (`_primitive`)."""
    p = pivot_row[col][0]
    fr, fi = row[col]
    out = {j: (p * a, p * b) for j, (a, b) in row.items()} if p != 1 else dict(row)
    del out[col]
    for j, (a, b) in pivot_row.items():
        if j != col:
            re, im = fr * a - fi * b, fr * b + fi * a
            cur = out.get(j)
            if cur is None:
                out[j] = (-re, -im)
            elif cur[0] != re or cur[1] != im:
                out[j] = (cur[0] - re, cur[1] - im)
            else:
                del out[j]
    return _primitive(out)


def _primitive(row):
    """row divided by the gcd of its integer parts."""
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


def rank(m: ExactMatrix) -> int:
    return len(_echelon(list(m.rows.values())))


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the right null space as columns, each scaled so its first
    nonzero coordinate is 1; m.ncols x 0 if m is injective.

    The column of free column f is the null vector `_null_vector` finds
    for f, 0 at every other free column, over its first nonzero
    coordinate (`_first_entry_one`)."""
    pivots = _echelon(list(m.rows.values()))
    pivot_cols = {c for c, _row in pivots}
    free = [f for f in range(m.ncols) if f not in pivot_cols]
    return _first_entry_one(m.ncols, [
        [(j, a, b) for j, (a, b) in _null_vector(pivots, f).items()] for f in free
    ])


def _null_vector(pivots, f):
    """The null vector y over Z[i] of the echelon rows `pivots` (`_echelon`)
    with y_f real and nonzero and y = 0 at every other column that holds no
    pivot, as a dict col -> (re, im) of its nonzero coordinates.

    Back substitution, last pivot row first: for the pivot row R_c with
    pivot p, y_c = -(sum_{j > c} R_c[j] y_j) / p, and y_c = 0 for c > f.
    When p does not divide the sum, y is scaled by p first, so every
    coordinate stays a Gaussian integer.  Each sum walks the shorter of R_c
    and y: a pivot row with three entries, as in the tridiagonal shifts of
    `integer_eigenspaces`, costs O(1), and a row of [S | B] in `_solve`
    costs no more than the coordinates of y found so far."""
    y = {f: (1, 0)}
    for c, row in reversed(pivots):
        if c > f:
            continue
        sr = si = 0
        short, long = (row, y) if len(row) < len(y) else (y, row)
        for j, (a, b) in short.items():
            other = long.get(j)
            if other is not None:
                sr += a * other[0] - b * other[1]
                si += a * other[1] + b * other[0]
        if sr or si:
            p = row[c][0]
            if sr % p or si % p:
                y = {j: (a * p, b * p) for j, (a, b) in y.items()}
                y[c] = (-sr, -si)
            else:
                y[c] = (-sr // p, -si // p)
    return y


def _char_poly(m: ExactMatrix):
    """(d, coeffs): coeffs of det(t*I - d*m), highest degree first, as
    (re, im) integer pairs, where d is the common denominator of m.

    Division-free Berkowitz (1984) over Z[i].  With A the leading k x k
    block of d*m, bordered by row r, column c and corner a, and
    det(t*I - A) = sum_i p_i t^(k-i), the next leading block has
    det = (t - a) det(t*I - A) - sum_{j<k} t^(k-1-j) sum_{i<=j} p_i r A^(j-i) c.
    """
    d, rows = m.den, m.rows
    n, zero = m.nrows, (0, 0)
    a = [[zero] * n for _ in range(n)]
    for r, row in rows.items():
        for c, re, im in row:
            a[r][c] = (re, im)
    poly = [(1, 0)]
    for k in range(n):
        vec, moments = [a[r][k] for r in range(k)], []
        for _ in range(k):
            moments.append(_gauss_dot(a[k], vec))
            vec = [_gauss_dot(a[r], vec) for r in range(k)]
        scaled = [zero] + [_gauss_dot((a[k][k],), (p,)) for p in poly]
        conv = [zero, zero] + [_gauss_dot(poly, moments[j::-1]) for j in range(k)]
        poly = [
            (p[0] - q[0] - s[0], p[1] - q[1] - s[1])
            for p, q, s in zip(poly + [zero], scaled, conv)
        ]
    return d, poly


def _gauss_dot(a, b):
    """sum a_j b_j over Z[i] for (re, im) pairs, on the common length."""
    re = im = 0
    for (ar, ai), (br, bi) in zip(a, b):
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    return re, im


def integer_eigenspaces(m: ExactMatrix):
    """Yield (theta, kernel basis of m - theta) for each integer eigenvalue
    theta of m, in increasing order.

    The scan range is [-b, b] for the row-sum bound b: at the entry r of
    largest modulus of an eigenvector v, |theta v_r| = |(m v)_r| <=
    sum_c |m_rc| |v_r|, and |re + im*i| <= |re| + |im|, so
    b = floor(max_r sum_c (|re| + |im|) / den) over the stored form.  The
    candidates are filtered by one exact characteristic polynomial:
    with d the common denominator of m and chi(t) = det(t*I - d*m),
    chi(d*theta) = d^n det(theta*I - m), so a nonzero value proves that
    m - theta is invertible and its kernel need not be computed.  Only the
    roots reach `kernel_basis`.  The candidates run by modulus, 0, -1, 1,
    -2, 2, ..., and the scan stops once the eigenspaces found span the
    space, so on an integer diagonalizable m it tries 2 rho + 1 candidates
    for rho the spectral radius, however large the entries of m are in its
    basis.  If the range runs out first, the spectrum of m is not integer
    or m is not diagonalizable, outside the class this package supports,
    and ValueError is raised.  That span check, not the filter, proves
    completeness: a wrongly skipped candidate could only end in this error.
    """
    if not m.is_square():
        raise ValueError(f"integer eigenvalues of a non-square {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    sums = (sum(abs(re) + abs(im) for _c, re, im in row) for row in m.rows.values())
    b = max(sums, default=0) // m.den
    d, chi = _char_poly(m)
    eye = ExactMatrix.identity(n)
    found, total = {}, 0
    for j in range(2 * b + 1):
        if total == n:
            break
        theta = -(j + 1) // 2 if j % 2 else j // 2
        t, re, im = d * theta, 0, 0
        for c_re, c_im in chi:
            re, im = re * t + c_re, im * t + c_im
        if re or im:
            continue
        k = kernel_basis(m - eye * theta)
        if k.ncols:
            total += k.ncols
            found[theta] = k
    if total != n:
        raise ValueError(
            f"integer eigenvalues in [-{b},{b}] span {total} of {n} dimensions; "
            "input is outside the supported class"
        )
    yield from sorted(found.items())


# -- solving against a basis: inverse, restriction, change of basis -----------


def _solve(s: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The unique X with s @ X == b, from one `_echelon` of [s | b] over
    the rows nonzero in s or in b (a zero row holds no pivot), over the
    product of their denominators.  With k = s.ncols,
    rank [s | b] = rank s = k holds exactly when s has full column rank and
    every column of b lies in span s.  Pivot columns increase, so if the
    first k are not 0..k-1 the columns of s are dependent; otherwise the
    first further pivot, in column k+j, marks the first b_j outside
    span(s, b_0..b_{j-1}) = span s.  Either failure raises ValueError.

    Else no column of b holds a pivot, and column j of X is -y/y_{k+j} for
    y = `_null_vector` at k+j: the kernel vector of [s | b] that is -1 at
    k+j and 0 at every other column of b, so s x = b_j.  X is formed over
    the lcm of the |y_{k+j}| and reduced once."""
    k = s.ncols
    ds, db = s.den, b.den
    rows = {r: [(c, x * db, y * db) for c, x, y in row] for r, row in s.rows.items()}
    for r, b_row in b.rows.items():
        rows.setdefault(r, []).extend((k + c, x * ds, y * ds) for c, x, y in b_row)
    pivots = _echelon(list(rows.values()))
    pivot_cols = [c for c, _row in pivots]
    if pivot_cols[:k] != list(range(k)):
        raise ValueError("basis columns are linearly dependent")
    if len(pivot_cols) > k:
        raise ValueError(
            f"subspace not invariant: image of basis vector {pivot_cols[k] - k} leaves the span"
        )
    items = []
    for j in range(b.ncols):
        y = _null_vector(pivots, k + j)
        t = y.pop(k + j)[0]
        sign = -1 if t > 0 else 1
        items += [(i, j, sign * re, sign * im, abs(t)) for i, (re, im) in y.items()]
    return _canonical(k, b.ncols, *_over_lcm(items))


def invert(m: ExactMatrix) -> ExactMatrix:
    """m^-1 as the unique X with m @ X == I (`_solve`); [m | I] has rank
    n, so m is singular exactly when its own columns are dependent."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    try:
        return _solve(m, ExactMatrix.identity(m.nrows))
    except ValueError:
        raise ValueError("matrix is singular") from None


def restrict(m: ExactMatrix, s: ExactMatrix) -> ExactMatrix:
    """Matrix of m in the coordinates of the basis columns of s: the X with
    m S = S X, unique as S has full column rank.  `_solve(S, m S)`
    succeeds exactly when rank [S | m S] = rank S = k, i.e. S has full
    column rank and m maps span S into itself; otherwise it fails loudly,
    naming dependent columns first and else the first basis vector whose
    image leaves the span."""
    if not m.nrows == m.ncols == s.nrows:
        raise ValueError("matrix and basis ambient dimensions differ")
    return _solve(s, m @ s)


# -- nilpotent exponentials ------------------------------------------------------


def exp_nilpotent(n: ExactMatrix) -> ExactMatrix:
    """Sum_{j<k} n^j/j! for nilpotent n with n^k = 0.  An n x n nilpotent
    has n^n = 0, so the series runs at most n terms (none for 0 x 0, whose
    exponential is the 0 x 0 identity); ValueError if n^n != 0.

    The series runs on Gaussian integers.  With n = N/delta (stored form),
    n^j/j! = N^j/(delta^j j!), and delta^j j! = delta^(j-1) (j-1)! * delta*j,
    so the partial sum through term j is T_j/(delta^j j!) for T_0 = I and
    T_j = delta*j*T_{j-1} + N^j: the same exact sum, over one denominator.
    N^j is the integer walk (`_walk`) of the rows of N^(j-1) against N, and
    the sum is reduced once, when the first N^j = 0 ends the series."""
    if not n.is_square():
        raise ValueError("exponential of a non-square matrix")
    delta, n_rows = n.den, n.rows
    power = {i: [(i, 1, 0)] for i in range(n.nrows)}
    total = {(i, i): (1, 0) for i in range(n.nrows)}
    den = 1
    for j in range(1, n.nrows + 1):
        previous, power = power, {}
        for i, sums in _walk(previous.items(), n_rows):
            row = [(c, re, im) for c, (re, im) in sums.items() if re or im]
            if row:
                power[i] = row
        if not power:
            break
        scale = delta * j
        den *= scale
        total = {key: (re * scale, im * scale) for key, (re, im) in total.items()}
        for i, row in power.items():
            for c, re, im in row:
                cur = total.get((i, c))
                total[(i, c)] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    if power:
        raise ValueError(
            f"power series did not terminate within {n.nrows} terms; input is not nilpotent there"
        )
    rows: dict = {}
    for (i, c), (re, im) in total.items():
        if re or im:
            rows.setdefault(i, []).append((c, re, im))
    return _canonical(n.nrows, n.ncols, den, rows)


# -- exchange format --------------------------------------------------------------


def format_matrix(m: ExactMatrix) -> str:
    """Line-oriented text form: 'dims r c' then 'row col value' per nonzero."""
    lines = [f"dims {m.nrows} {m.ncols}"]
    for r in sorted(m.rows):
        for c, a, b in sorted(m.rows[r]):
            lines.append(f"{r} {c} {_reduced(a, b, m.den)}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ExactMatrix:
    """Inverse of format_matrix; a malformed line raises ValueError naming
    its 1-based line number."""
    nrows, ncols = parse_dims(text)
    entries = {}
    for no, ln in islice(_lines(text), 1, None):
        with _at_line(no):
            r, c, val = _three_fields(ln)
            key = (int(r), int(c))
            if not (0 <= key[0] < nrows and 0 <= key[1] < ncols):
                raise ValueError(f"entry index {key} out of bounds for {nrows}x{ncols}")
            if key in entries:
                raise ValueError(f"duplicate entry at {key}")
            entries[key] = GaussianRational.parse(val)
    return ExactMatrix(nrows, ncols, entries)


def parse_dims(text: str) -> tuple[int, int]:
    """(nrows, ncols) of the 'dims' line that starts a matrix text, the
    first line that is not blank, read with no entry parsed."""
    no, line = next(_lines(text), (0, ""))
    if not line.startswith("dims "):
        raise ValueError("matrix text must start with a 'dims <nrows> <ncols>' line")
    with _at_line(no):
        _, nr, nc = _three_fields(line)
        return int(nr), int(nc)


def _lines(text: str):
    """(1-based number, stripped text) of each line that is not blank."""
    return ((no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip())


@contextmanager
def _at_line(no: int):
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None


def _three_fields(line: str) -> list[str]:
    fields = line.split(maxsplit=2)
    if len(fields) != 3:
        raise ValueError(f"expected three fields, got {line!r}")
    return fields


def write_matrix(m: ExactMatrix, path) -> None:
    with open(path, "w") as fp:
        fp.write(format_matrix(m))
