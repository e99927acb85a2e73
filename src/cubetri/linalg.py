"""Exact sparse linear algebra over Q(i).

Matrices are immutable maps (row, col) -> nonzero GaussianRational, each
scalar one reduced integer triple (a, b, d) = (a + b*i)/d.  The inner loops
run on integers: `_int_rows` reads a matrix as Gaussian integers over the
lcm of its denominators, and every product of such rows is the one integer
walk `_walk`, whose steps are integer multiply-adds.  `matmul` reduces each
entry of a product once; `exp_nilpotent` sums its series over the single
denominator delta^j j! and reduces once at the end; `acsa.check_relations`
compares both sides of a relation cross-multiplied, as integers.  `_echelon`
eliminates fraction-free in Z[i], and `_char_poly` works in Z[i] as well.
A matrix hashes its entries once and keeps the hash.  No code path forms
a dense 2^D-dimensional product: the cube operators are sparse, and the
skew operator is built per T-module class (`tmodules.h_by_class`).

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
P^-1 M P, so P^-1 is never formed.
"""
from __future__ import annotations

from contextlib import contextmanager
from math import gcd, lcm

from .exactnum import ZERO, GaussianRational, _reduced


class ExactMatrix:
    """Sparse exact matrix over Q(i); no stored zeros, immutable."""

    __slots__ = ("nrows", "ncols", "entries", "_hash")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        clean = {}
        if entries:
            coerce = GaussianRational.coerce
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ValueError(f"entry index ({r},{c}) out of bounds for {nrows}x{ncols}")
                if type(v) is not GaussianRational:
                    v = coerce(v)
                if v:
                    clean[(r, c)] = v
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _make(cls, nrows, ncols, entries) -> "ExactMatrix":
        # internal: entries already clean (bounded, nonzero GaussianRational)
        m = object.__new__(cls)
        object.__setattr__(m, "nrows", nrows)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "entries", entries)
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "ExactMatrix":
        return cls._make(nrows, ncols, {})

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        one = GaussianRational(1)
        return cls._make(n, n, {(i, i): one for i in range(n)})

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
        dict row -> value, scaled so its first nonzero coordinate is 1."""
        entries = {}
        for j, col in enumerate(columns):
            items = [(r, GaussianRational.coerce(v)) for r, v in sorted(col.items())]
            items = [(r, v) for r, v in items if v]
            if not items:
                raise ValueError(f"basis vector {j} is zero")
            inv = items[0][1].inverse()
            for r, v in items:
                entries[(r, j)] = v * inv
        return cls._make(nrows, len(columns), entries)

    @classmethod
    def column_vector(cls, values) -> "ExactMatrix":
        values = list(values)
        return cls(len(values), 1, {(i, 0): v for i, v in enumerate(values)})

    # -- access ------------------------------------------------------------

    def get(self, r: int, c: int) -> GaussianRational:
        return self.entries.get((r, c), ZERO)

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> "ExactMatrix":
        """Column j as an nrows x 1 matrix."""
        col = {(r, 0): v for (r, c), v in self.entries.items() if c == j}
        return ExactMatrix._make(self.nrows, 1, col)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        # computed once per matrix: every lookup of a builder cached on a
        # module basis hashes that basis
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nrows, self.ncols, frozenset(self.entries.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"<ExactMatrix {self.nrows}x{self.ncols}, {self.nnz()} nonzero>"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign*other, sign = ±1, with no stored zeros."""
        self._same_shape(other)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key)
            if s is None:
                entries[key] = v if sign > 0 else -v
                continue
            t = s + v if sign > 0 else s - v
            if t:
                entries[key] = t
            else:
                del entries[key]
        return ExactMatrix._make(self.nrows, self.ncols, entries)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._make(
            self.nrows, self.ncols, {k: -v for k, v in self.entries.items()}
        )

    def __mul__(self, scalar) -> "ExactMatrix":
        s = GaussianRational.coerce(scalar)
        if not s:
            return ExactMatrix.zeros(self.nrows, self.ncols)
        return ExactMatrix._make(
            self.nrows, self.ncols, {k: v * s for k, v in self.entries.items()}
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return matmul(self, other)

    def trace(self) -> GaussianRational:
        t = ZERO
        for (r, c), v in self.entries.items():
            if r == c:
                t = t + v
        return t

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )


# -- products ----------------------------------------------------------------


def _den(m: ExactMatrix) -> int:
    """The lcm of the denominators of m's entries."""
    return lcm(*{v.triple[2] for v in m.entries.values()})


def _int_rows(m: ExactMatrix):
    """(den, rows) with m = rows/den: rows maps each row index holding a
    stored entry to a list of (col, re, im) with integer parts, and den is
    the lcm of the entries' denominators (`_den`).  This is the one integer
    form of a matrix: `matmul`, the row reducer and `_char_poly` read it,
    and `tmodules._columns` is its column form."""
    den = _den(m)
    rows: dict = {}
    for (r, c), v in m.entries.items():
        a, b, d = v.triple
        if d != den:
            a, b = a * (den // d), b * (den // d)
        row = rows.get(r)
        if row is None:
            rows[r] = [(c, a, b)]
        else:
            row.append((c, a, b))
    return den, rows


def _walk(rows, b_rows):
    """The one integer walk of a product: for each (i, row) of `rows`, a
    row as (k, re, im) Gaussian integers (`_int_rows`), yield (i, sums),
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
    """Exact product by the integer walk `_walk`: with a = A/d and
    b = B/e (`_int_rows`), the cost is the number of pairs of a stored
    A[i, k] and a stored entry of row k of B, and each nonzero entry of A B
    is reduced once over d*e.

    a is read in place, one row at a time, and an entry of a whose row of
    B is empty is dropped before it is scaled to an integer, so besides the
    result only the integer rows of b and one row of a and of its sums are
    held: a copy of a, or the sums of every row at once, would each raise
    the peak memory of a run."""
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    da = _den(a)
    db, b_rows = _int_rows(b)
    den = da * db
    entries = {}
    for i, sums in _walk(_rows_in_place(a, da, b_rows), b_rows):
        for j, (re, im) in sums.items():
            if re or im:
                entries[(i, j)] = _reduced(re, im, den)
    return ExactMatrix._make(a.nrows, b.ncols, entries)


def _rows_in_place(a: ExactMatrix, da: int, b_rows):
    """a's rows over the common denominator da, as `_walk` reads them, one
    row at a time, keeping only the entries whose column has a row in
    b_rows."""
    a_entries = a.entries
    a_rows: dict = {}
    for key in a_entries:
        if key[1] in b_rows:
            a_rows.setdefault(key[0], []).append(key)
    for i, keys in a_rows.items():
        row = []
        for key in keys:
            ar, ai, d = a_entries[key].triple
            if d != da:
                ar, ai = ar * (da // d), ai * (da // d)
            row.append((key[1], ar, ai))
        yield i, row


# -- elimination: echelon form, rank, kernels ----------------------------------


def _echelon(rows):
    """Fraction-free forward elimination over Z[i]; returns the pivot rows
    as (col, row) in increasing col, each a dict col -> (re, im) with a
    real pivot and zero below it, left undivided.

    Each of `rows` lists (col, re, im) for its nonzero entries, Gaussian
    integers (`_int_rows`).  The next pivot column is the least leading
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
    return len(_echelon(list(_int_rows(m)[1].values())))


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the right null space as columns, each scaled so its first
    nonzero coordinate is 1; m.ncols x 0 if m is injective.

    The column of free column f is the null vector `_null_vector` finds
    for f, 0 at every other free column, over its first nonzero
    coordinate: one division per coordinate."""
    pivots = _echelon(list(_int_rows(m)[1].values()))
    pivot_cols = {c for c, _row in pivots}
    entries: dict = {}
    free = [f for f in range(m.ncols) if f not in pivot_cols]
    for k, f in enumerate(free):
        y = _null_vector(pivots, f)
        pr, pi = y[min(y)]
        n = pr * pr + pi * pi
        for j, (a, b) in y.items():
            entries[(j, k)] = _reduced(a * pr + b * pi, b * pr - a * pi, n)
    return ExactMatrix._make(m.ncols, len(free), entries)


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
    d, rows = _int_rows(m)
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


def integer_eigenspaces(m: ExactMatrix, bound: int):
    """Yield (theta, kernel basis of m - theta) for each integer eigenvalue
    theta in [-bound, bound], in increasing order.

    The candidates are filtered by one exact characteristic polynomial:
    with d the common denominator of m and chi(t) = det(t*I - d*m),
    chi(d*theta) = d^n det(theta*I - m), so a nonzero value proves that
    m - theta is invertible and its kernel need not be computed.  Only the
    roots reach `kernel_basis`.  The scan stops once the eigenspaces found
    span the space; if the range runs out first, m is outside the class
    this package supports (integer spectrum, diagonalizable) and ValueError
    is raised.  That span check, not the filter, proves completeness: a
    wrongly skipped candidate could only end in this error.
    """
    if not m.is_square():
        raise ValueError(f"integer eigenvalues of a non-square {m.nrows}x{m.ncols} matrix")
    n = m.nrows
    d, chi = _char_poly(m)
    eye = ExactMatrix.identity(n)
    total = 0
    for theta in range(-bound, bound + 1):
        if total == n:
            return
        t, re, im = d * theta, 0, 0
        for c_re, c_im in chi:
            re, im = re * t + c_re, im * t + c_im
        if re or im:
            continue
        k = kernel_basis(m - eye * theta)
        if k.ncols:
            total += k.ncols
            yield theta, k
    if total != n:
        raise ValueError(
            f"integer eigenvalues in [-{bound},{bound}] span {total} of {n} dimensions; "
            "input is outside the supported class"
        )


# -- solving against a basis: inverse, restriction, change of basis -----------


def _solve(s: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """The unique X with s @ X == b, from one `_echelon` of [s | b] over
    the rows nonzero in s or in b (a zero row holds no pivot), scaled to
    Gaussian integers (`_int_rows`).  With k = s.ncols,
    rank [s | b] = rank s = k holds exactly when s has full column rank and
    every column of b lies in span s.  Pivot columns increase, so if the
    first k are not 0..k-1 the columns of s are dependent; otherwise the
    first further pivot, in column k+j, marks the first b_j outside
    span(s, b_0..b_{j-1}) = span s.  Either failure raises ValueError.

    Else no column of b holds a pivot, and column j of X is -y/y_{k+j} for
    y = `_null_vector` at k+j: the kernel vector of [s | b] that is -1 at
    k+j and 0 at every other column of b, so s x = b_j."""
    k = s.ncols
    ds, rows = _int_rows(s)
    db, b_rows = _int_rows(b)
    if db != 1:
        rows = {r: [(c, x * db, y * db) for c, x, y in row] for r, row in rows.items()}
    for r, b_row in b_rows.items():
        rows.setdefault(r, []).extend((k + c, x * ds, y * ds) for c, x, y in b_row)
    pivots = _echelon(list(rows.values()))
    pivot_cols = [c for c, _row in pivots]
    if pivot_cols[:k] != list(range(k)):
        raise ValueError("basis columns are linearly dependent")
    if len(pivot_cols) > k:
        raise ValueError(
            f"subspace not invariant: image of basis vector {pivot_cols[k] - k} leaves the span"
        )
    entries = {}
    for j in range(b.ncols):
        y = _null_vector(pivots, k + j)
        t = y.pop(k + j)[0]
        sign = -1 if t > 0 else 1
        for i, (re, im) in y.items():
            entries[(i, j)] = _reduced(sign * re, sign * im, abs(t))
    return ExactMatrix._make(k, b.ncols, entries)


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


def exp_nilpotent(n: ExactMatrix, bound: int) -> ExactMatrix:
    """Sum_{j<k} n^j/j! for nilpotent n with n^k = 0, k <= bound; ValueError
    if n^bound != 0, so always for bound = 0.

    The series runs on Gaussian integers.  With n = N/delta (`_int_rows`),
    n^j/j! = N^j/(delta^j j!), and delta^j j! = delta^(j-1) (j-1)! * delta*j,
    so the partial sum through term j is T_j/(delta^j j!) for T_0 = I and
    T_j = delta*j*T_{j-1} + N^j: the same exact sum, over one denominator.
    N^j is the integer walk (`_walk`) of the rows of N^(j-1) against N, and
    each entry of the sum is reduced once, when the first N^j = 0 ends the
    series."""
    if not n.is_square():
        raise ValueError("exponential of a non-square matrix")
    delta, n_rows = _int_rows(n)
    power = {i: [(i, 1, 0)] for i in range(n.nrows)}
    total = {(i, i): (1, 0) for i in range(n.nrows)}
    den = 1
    for j in range(1, bound + 1):
        previous, power = power, {}
        for i, sums in _walk(previous.items(), n_rows):
            row = [(c, re, im) for c, (re, im) in sums.items() if re or im]
            if row:
                power[i] = row
        if not power:
            return ExactMatrix._make(n.nrows, n.ncols, {
                key: _reduced(re, im, den) for key, (re, im) in total.items() if re or im
            })
        scale = delta * j
        den *= scale
        total = {key: (re * scale, im * scale) for key, (re, im) in total.items()}
        for i, row in power.items():
            for c, re, im in row:
                cur = total.get((i, c))
                total[(i, c)] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    raise ValueError(
        f"power series did not terminate within {bound} terms; input is not nilpotent there"
    )


# -- exchange format --------------------------------------------------------------


def format_matrix(m: ExactMatrix) -> str:
    """Line-oriented text form: 'dims r c' then 'row col value' per nonzero."""
    lines = [f"dims {m.nrows} {m.ncols}"]
    for (r, c) in sorted(m.entries):
        lines.append(f"{r} {c} {m.entries[(r, c)]}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> ExactMatrix:
    """Inverse of format_matrix; a malformed line raises ValueError naming
    its 1-based line number."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("dims "):
        raise ValueError("matrix text must start with a 'dims <nrows> <ncols>' line")
    dims_no, dims_line = lines[0]
    with _at_line(dims_no):
        _, nr, nc = _three_fields(dims_line)
        nrows, ncols = int(nr), int(nc)
    entries = {}
    for no, ln in lines[1:]:
        with _at_line(no):
            r, c, val = _three_fields(ln)
            key = (int(r), int(c))
            if not (0 <= key[0] < nrows and 0 <= key[1] < ncols):
                raise ValueError(f"entry index {key} out of bounds for {nrows}x{ncols}")
            if key in entries:
                raise ValueError(f"duplicate entry at {key}")
            entries[key] = GaussianRational.parse(val)
    return ExactMatrix(nrows, ncols, entries)


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


def read_matrix(path) -> ExactMatrix:
    with open(path) as fp:
        return parse_matrix(fp.read())
