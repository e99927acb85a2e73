"""Exact sparse linear algebra over Q(i).

Matrices are immutable maps (row, col) -> nonzero GaussianRational, and
every product is one dict walk over the stored entries.  Each scalar is one
reduced integer triple (a, b, d) = (a + b*i)/d, so a step of the walk or of
`_echelon` is a few integer operations and at most one gcd, and
`_char_poly` reads the triples as integers over one common denominator.
A matrix hashes its entries once and keeps the hash.  No code path forms
a dense 2^D-dimensional product: the cube operators are sparse, and the
skew operator is built per T-module class (`tmodules.h_by_class`).

A basis of a subspace is the matrix whose columns are its vectors; there is
no separate basis type.  `ExactMatrix.from_columns` scales each column so
its first nonzero coordinate is 1, `kernel_basis` returns such a matrix,
and `restrict` takes one.

Every elimination runs through the one row reducer `_echelon`: `rank` and
`kernel_basis` directly, and `invert` and `restrict` through `_solve`,
which reads the unique X with S X = B off the reduced form of [S | B] and
proves, from where its pivots fall, that S has full column rank and that
every column of B lies in span S.  A change of basis to the columns of P
is `restrict(M, P)` = P^-1 M P, so P^-1 is never formed.
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import lcm

from .exactnum import ZERO, GaussianRational


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

    def to_rows(self):
        rows = [[ZERO] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

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
        self._same_shape(other)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key)
            t = v if s is None else s + v
            if t:
                entries[key] = t
            elif s is not None:
                del entries[key]
        return ExactMatrix._make(self.nrows, self.ncols, entries)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        entries = dict(self.entries)
        for key, v in other.entries.items():
            s = entries.get(key)
            t = -v if s is None else s - v
            if t:
                entries[key] = t
            elif s is not None:
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


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact product by a dict walk: each stored a[i, k] meets the stored
    entries of row k of b, so the cost is the number of those pairs."""
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    b_rows: dict = {}
    for (k, j), v in b.entries.items():
        b_rows.setdefault(k, []).append((j, v))
    acc: dict = {}
    for (i, k), av in a.entries.items():
        hits = b_rows.get(k)
        if hits is None:
            continue
        for j, bv in hits:
            key = (i, j)
            cur = acc.get(key)
            acc[key] = av * bv if cur is None else cur + av * bv
    return ExactMatrix._make(a.nrows, b.ncols, {k: v for k, v in acc.items() if v})


def _scaled_int_parts(m: ExactMatrix):
    """(den, rows) with m = rows/den, where rows is dense and each entry an
    integer (re, im) pair; den is the lcm of the entries' denominators."""
    den = lcm(1, *(v.triple[2] for v in m.entries.values()))
    rows = [[(0, 0)] * m.ncols for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        a, b, d = v.triple
        rows[r][c] = (a * (den // d), b * (den // d))
    return den, rows


# -- elimination: echelon form, rank, kernels ----------------------------------


def _echelon(rows, ncols, reduce_up=True):
    """In-place row echelon over Q(i); returns pivot (row, col) list.

    Pivot choice is the first row with a nonzero entry in column order,
    which keeps every output deterministic.
    """
    pivots = []
    pivot_row = 0
    nrows = len(rows)
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, nrows):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        prow = rows[pivot_row]
        inv = prow[col].inverse()
        for j in range(col, ncols):
            if prow[j]:
                prow[j] = prow[j] * inv
        sweep = range(nrows) if reduce_up else range(pivot_row + 1, nrows)
        for r in sweep:
            if r == pivot_row:
                continue
            factor = rows[r][col]
            if factor:
                row = rows[r]
                for j in range(col, ncols):
                    if prow[j]:
                        row[j] = row[j] - factor * prow[j]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return pivots


def rank(m: ExactMatrix) -> int:
    rows = m.to_rows()
    return len(_echelon(rows, m.ncols, reduce_up=False))


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Basis of the right null space as columns, reduced and normalized;
    m.ncols x 0 if m is injective."""
    rows = m.to_rows()
    pivots = _echelon(rows, m.ncols)
    pivot_cols = [c for (_r, c) in pivots]
    pivot_of_col = {c: r for (r, c) in pivots}
    free_cols = [c for c in range(m.ncols) if c not in pivot_of_col]
    columns = []
    one = GaussianRational(1)
    for f in free_cols:
        vec = {f: one}
        for c in pivot_cols:
            coeff = rows[pivot_of_col[c]][f]
            if coeff:
                vec[c] = -coeff
        columns.append(vec)
    return ExactMatrix.from_columns(m.ncols, columns)


def _char_poly(m: ExactMatrix):
    """(d, coeffs): coeffs of det(t*I - d*m), highest degree first, as
    (re, im) integer pairs, where d is the common denominator of m.

    Division-free Berkowitz (1984) over Z[i].  With A the leading k x k
    block of d*m, bordered by row r, column c and corner a, and
    det(t*I - A) = sum_i p_i t^(k-i), the next leading block has
    det = (t - a) det(t*I - A) - sum_{j<k} t^(k-1-j) sum_{i<=j} p_i r A^(j-i) c.
    """
    d, a = _scaled_int_parts(m)
    n, zero = m.nrows, (0, 0)
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
    the rows nonzero in s or in b, in sorted order (a zero row holds no
    pivot).  With k = s.ncols, rank [s | b] = rank s = k holds exactly when
    s has full column rank and every column of b lies in span s; the first
    k rows are then [I | X].  Pivot columns increase, so if the first k are
    not 0..k-1 the columns of s are dependent; otherwise the first further
    pivot, in column k+j, marks the first b_j outside
    span(s, b_0..b_{j-1}) = span s.  Either failure raises ValueError."""
    k, width = s.ncols, s.ncols + b.ncols
    rows: dict = {}
    for offset, m in ((0, s), (k, b)):
        for (r, c), v in m.entries.items():
            rows.setdefault(r, [ZERO] * width)[offset + c] = v
    aug = [rows[r] for r in sorted(rows)]
    pivot_cols = [c for (_r, c) in _echelon(aug, width)]
    if pivot_cols[:k] != list(range(k)):
        raise ValueError("basis columns are linearly dependent")
    if len(pivot_cols) > k:
        raise ValueError(
            f"subspace not invariant: image of basis vector {pivot_cols[k] - k} leaves the span"
        )
    entries = {(i, j): v for i in range(k) for j, v in enumerate(aug[i][k:]) if v}
    return ExactMatrix._make(k, b.ncols, entries)


def invert(m: ExactMatrix) -> ExactMatrix:
    """m^-1 as the unique X with m @ X == I (`_solve`); a square m has n
    rows, so [m | I] can hold no pivot beyond m's n columns, and m is
    singular exactly when its own columns are dependent."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    try:
        return _solve(m, ExactMatrix.identity(m.nrows))
    except ValueError:
        raise ValueError("matrix is singular") from None


def restrict(m: ExactMatrix, s: ExactMatrix) -> ExactMatrix:
    """Matrix of m in the coordinates of the basis columns of s: the unique
    X with m S = S X.  `_solve(S, m S)` succeeds exactly when
    rank [S | m S] = rank S = k, i.e. S has full column rank and m maps
    span S into itself; otherwise it fails loudly, naming dependent columns
    first and else the first basis vector whose image leaves the span."""
    if not m.nrows == m.ncols == s.nrows:
        raise ValueError("matrix and basis ambient dimensions differ")
    return _solve(s, m @ s)


# -- nilpotent exponentials ------------------------------------------------------


def exp_nilpotent(n: ExactMatrix, bound: int) -> ExactMatrix:
    """Sum_{j<k} n^j/j! for nilpotent n with n^k = 0, k <= bound."""
    if not n.is_square():
        raise ValueError("exponential of a non-square matrix")
    total = ExactMatrix.identity(n.nrows)
    term = total
    for j in range(1, bound + 1):
        term = (term @ n) * Fraction(1, j)
        if term.is_zero():
            return total
        total = total + term
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
