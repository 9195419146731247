"""Exact rational linear algebra: sparse matrices, subspaces, kernels and
a Schur complement, all reduced by one sparse elimination step.

All arithmetic is over the rationals, so every identity checked
elsewhere in the package holds exactly, not up to rounding. The number
rule: an entry is an exact rational, made as an `int` when it is
integral and as a `fractions.Fraction` otherwise. The readers (`frac`,
`frac_reader`, `vec`, `Matrix.from_rows`), the readouts of the
elimination and the builders all follow it, so the integer matrices of
the package's models run on plain ints. A sum or product of Fractions
may still be an integral Fraction; it compares, hashes and prints like
the int. The one trap is `/`: an int over an int is a float, so a true
division whose operands can both be ints builds a Fraction instead
(`Fraction(a, b)`). Values are immutable after construction.

The elimination itself (`_eliminate`, under `rref`, `sparse_rank` and
`schur_complement`) is fraction-free: each row is a dict of its nonzero
integer entries, and a step combines two rows by integer multiples and
divides the result by its content (Bareiss, Math. Comp. 1968). A row
space does not see the scale of a row, so rank and RREF work on primitive
rows; only the Schur complement, whose values are read out, keeps one
positive denominator per row. A quotient is made only when a result is
read out.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Number = Union[int, Fraction]
Vector = tuple[Number, ...]


def frac(x) -> Number:
    """Read an int, a string like "3/4" or a Fraction as an exact entry:
    an int when it is integral, a Fraction otherwise. Booleans are
    refused, though Fraction() would read them as 1 and 0."""
    if type(x) is int:
        return x
    if type(x) is bool:
        raise TypeError(f"a boolean is not a number: {x!r}")
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def frac_reader():
    """A `frac` that parses each distinct string once. Make one per input
    document, so that its memo lives only while the document is read."""
    parsed: dict[str, Number] = {}

    def read(x) -> Number:
        if type(x) is not str:
            return frac(x)
        y = parsed.get(x)
        if y is None:
            y = parsed[x] = frac(x)
        return y
    return read


def _quotient(x: int, a: int) -> Number:
    """x / a for ints, a != 0, by the number rule."""
    q, r = divmod(x, a)
    return Fraction(x, a) if r else q


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    return sum(a * b for a, b in zip(u, v, strict=True) if a and b)


class Matrix:
    """Sparse rational matrix: `data[i]` is row i as a dict {column:
    value} of its nonzero entries, ints or Fractions by the number rule
    of this module, so `/` of two entries may be a float; divide with
    `Fraction(a, b)`. No operation stores a zero, so two
    matrices are equal exactly when their shapes and row dicts are, and
    every operation touches only nonzeros. Row dicts may be shared
    between matrices and are never modified after construction.
    `entries`, a tuple of dense row tuples, is built on each read."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int,
                 data: Sequence[dict[int, Number]]):
        self.rows, self.cols, self.data = rows, cols, tuple(data)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        dense = [vec(r) for r in rows]
        ncols = len(dense[0]) if dense else 0
        if any(len(r) != ncols for r in dense):
            raise ValueError("column count mismatch")
        return Matrix(len(dense), ncols, [{j: x for j, x in enumerate(r) if x}
                                          for r in dense])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [{i: 1} for i in range(n)])

    @property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(tuple(r.get(j, 0) for j in range(self.cols))
                     for r in self.data)

    def __getitem__(self, ij: tuple[int, int]) -> Number:
        return self.data[ij[0]].get(ij[1], 0)

    def transpose(self) -> "Matrix":
        out: list[dict[int, Number]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, x in r.items():
                out[j][i] = x
        return Matrix(self.cols, self.rows, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        out = []
        for ra, rb in zip(self.data, other.data):
            if rb:
                ra = dict(ra)
                for j, x in rb.items():
                    y = ra.pop(j, 0) + x
                    if y:
                        ra[j] = y
            out.append(ra)
        return Matrix(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols,
                      [{j: -x for j, x in r.items()} for r in self.data])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols,
                      [{j: c * x for j, x in r.items()} if c else {}
                       for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for r in self.data:
            acc: dict[int, Number] = {}
            for k, a in r.items():
                for j, b in other.data[k].items():
                    y = acc.get(j)
                    acc[j] = a * b if y is None else y + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix(self.rows, other.cols, out)

    def apply(self, v: Sequence[Number]) -> Vector:
        if self.cols != len(v):
            raise ValueError("vector length mismatch")
        return tuple(sum(x * v[j] for j, x in r.items() if v[j])
                     for r in self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self) -> str:
        return f"Matrix({self.rows}, {self.cols}, {self.data!r})"

    def is_zero(self) -> bool:
        return not any(self.data)

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        data = self.data
        return all(data[j].get(i) == -x
                   for i, r in enumerate(data) for j, x in r.items())

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        c = self.cols
        return Matrix(self.rows, c + other.cols, [
            {**ra, **{j + c: x for j, x in rb.items()}}
            for ra, rb in zip(self.data, other.data)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols,
                      self.data + other.data)

    def submatrix(self, row_idx: Sequence[int],
                  col_idx: Sequence[int]) -> "Matrix":
        to: dict[int, list[int]] = {}
        for k, j in enumerate(col_idx):
            to.setdefault(j, []).append(k)
        return Matrix(len(row_idx), len(col_idx), [
            {k: x for j, x in self.data[i].items() for k in to.get(j, ())}
            for i in row_idx])

    def _check_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def block_diag(*blocks: Matrix) -> Matrix:
    out: list[dict[int, Number]] = []
    c0 = 0
    for b in blocks:
        out += ({j + c0: x for j, x in r.items()} for r in b.data)
        c0 += b.cols
    return Matrix(len(out), c0, out)


def _int_row(row: dict[int, Number]) -> dict[int, int]:
    """The primitive integer multiple of `row`, a dict of nonzero values:
    scaled by the lcm of their denominators, then divided by the gcd of
    the result. `gcd` refuses a Fraction, so a row of ints is read as it
    is; ints and Fractions both have `.numerator` and `.denominator`."""
    try:
        g = gcd(*row.values())
    except TypeError:
        d = lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
        g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else dict(row)


def _int_rows(rows: Iterable[dict[int, Number]]) -> dict[int, dict[int, int]]:
    """`_int_row` of each row, keyed by position."""
    return {i: _int_row(row) for i, row in enumerate(rows)}


def _eliminate(rows: dict[int, dict[int, int]],
               dens: Optional[dict[int, int]],
               cols: dict[int, set[int]], p: int, q: int) -> None:
    """Clear column q from every row but p, fraction-free; the column row
    sets follow.

    With `dens`, row i stands for rows[i] / dens[i], with integer entries
    and dens[i] > 0; without it, row i is rows[i] up to scale, which is
    all a row space needs. With a = R_p[q] and b = R_i[q] divided by their
    gcd, R_i <- a R_i - b R_p and d_i <- a d_i (signs flipped so that
    a > 0), then R_i and d_i are divided by gcd(d_i, content(R_i)), or
    R_i by its content when there is no d_i.
    """
    prow = rows[p]
    pivot = prow[q]
    rest = [(j, x) for j, x in prow.items() if j != q]
    for i in cols[q]:
        if i == p:
            continue
        row = rows[i]
        b = row.pop(q)
        g = gcd(pivot, b)
        a, b = pivot // g, b // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for j in row:
                row[j] *= a
        for j, x in rest:
            y = row.get(j)
            if y is None:
                row[j] = -b * x
                cols[j].add(i)
            else:
                y -= b * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
        if dens is None:
            g = gcd(*row.values())
        else:
            d = dens[i] * a
            g = gcd(d, *row.values())
            dens[i] = d // g
        if g > 1:
            for j in row:
                row[j] //= g
    cols[q] = {p}


def _pivot_columns(rows: dict[int, dict[int, int]], n_cols: int,
                   reduced: bool, start: int = 0) -> list[tuple[int, int]]:
    """Eliminate the columns start, ..., n_cols - 1 of sparse integer
    `rows`, whose columns all lie in range(n_cols), in increasing order
    and return the (column, row) pivots.

    Each column pivots on the not-yet-pivot row that meets it with the
    fewest nonzeros (ties to the lowest row) and `_eliminate` clears it
    from every other row, keeping each row primitive. With `reduced`,
    pivot rows are kept, so each ends as a multiple of its row in the
    reduced row-echelon form; without
    it, each pivot row is dropped once its column is cleared, which is all
    a rank needs, and the rows left span the vectors of the row space
    that vanish on the eliminated columns. A step fills in only columns
    that its pivot row meets, so a column that no row meets at the start
    is skipped.
    """
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    free = {i for i, row in rows.items() if row}
    pivots: list[tuple[int, int]] = []
    for q in range(start, n_cols):
        if q not in cols:
            continue
        live = cols[q] & free
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        free.remove(p)
        _eliminate(rows, None, cols, p, q)
        if not reduced:
            for j in rows.pop(p):
                cols[j].discard(p)
        pivots.append((q, p))
    return pivots


def _rref_rows(rows: Iterable[dict[int, Number]], n_cols: int
               ) -> tuple[list[dict[int, Number]], list[int]]:
    """The nonzero RREF rows as {col: value} dicts and their strictly
    increasing pivot columns, for rows given as dicts of nonzero ints or
    Fractions in range(n_cols), which are not modified."""
    return _rref_int_rows(_int_rows(rows), n_cols)


def _rref_int_rows(rows: dict[int, dict[int, int]], n_cols: int
                   ) -> tuple[list[dict[int, Number]], list[int]]:
    """`_rref_rows` of integer rows, reduced in place. `_pivot_columns`
    reduces; each pivot row is divided by its pivot entry only here."""
    pivots = _pivot_columns(rows, n_cols, reduced=True)
    out = []
    for q, p in pivots:
        row = rows[p]
        a = row[q]
        out.append({j: _quotient(x, a) for j, x in row.items()})
    return out, [q for q, _ in pivots]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form with leftmost pivots scaled to 1, as a
    dense view of `_rref_rows`: the reduced matrix, zero rows last, and
    the strictly increasing pivot column list. Canonical: two
    row-equivalent matrices reduce identically."""
    if not m.rows:
        return m, []
    rows, pivots = _rref_rows(m.data, m.cols)
    dense = [[row.get(j, 0) for j in range(m.cols)] for row in rows]
    dense += [[0] * m.cols] * (m.rows - len(rows))
    return Matrix.from_rows(dense), pivots


def sparse_rank(rows: Iterable[dict[int, Number]], n_cols: int) -> int:
    """Exact rank of the matrix whose rows are given as {col: value}
    dicts (ints or Fractions) with columns in range(n_cols); the dicts
    are not modified."""
    work = _int_rows({j: x for j, x in row.items() if x} for row in rows)
    return len(_pivot_columns(work, n_cols, reduced=False))


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Exact nullspace {v : m @ v = 0} as a canonical Subspace."""
    rows, pivots = _rref_rows(m.data, m.cols)
    basis = {f: {f: 1} for f in range(m.cols)}
    for p in pivots:
        del basis[p]
    for p, row in zip(pivots, rows):
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return Subspace.from_span(m.cols, list(basis.values()))


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve a @ X = b columnwise, free variables set to zero; None if any
    column is inconsistent."""
    if b.rows != a.rows:
        raise ValueError("rhs row count mismatch")
    rows, pivots = _rref_rows(a.hstack(b).data, a.cols + b.cols)
    if any(p >= a.cols for p in pivots):
        return None
    x: list[dict[int, Number]] = [{} for _ in range(a.cols)]
    for p, row in zip(pivots, rows):
        x[p] = {j - a.cols: v for j, v in row.items() if j >= a.cols}
    return Matrix(a.cols, b.cols, x)


def invert(a: Matrix) -> Optional[Matrix]:
    """The inverse of a square matrix, or None when it is singular. A
    monomial matrix (one nonzero per row and per column) is read off as
    inv[j][i] = 1 / a[i][j], ±1 entries reused; others go to `solve_matrix`."""
    if a.rows != a.cols:
        raise ValueError("only square matrices are invertible")
    inv: list[dict[int, Number]] = [{} for _ in range(a.rows)]
    for i, row in enumerate(a.data):
        if len(row) != 1:
            break
        (j, x), = row.items()
        if inv[j]:
            break
        inv[j] = {i: x if x == 1 or x == -1 else frac(Fraction(1, x))}
    else:
        return Matrix(a.rows, a.rows, inv)
    return solve_matrix(a, Matrix.identity(a.rows))


def schur_complement(d: int, rows: Sequence[dict[int, int]],
                     keep: Sequence[int],
                     drop: Sequence[int]) -> Optional[Matrix]:
    """a[keep,keep] - a[keep,drop] a[drop,drop]^-1 a[drop,keep] in `keep`
    order, or None when a[drop,drop] is singular, for the square matrix
    a = R / d given by one positive denominator d and the rows of R as
    {col: int} dicts; only rows and columns in keep and drop are read,
    and the dicts are not modified. The readout of `_schur_int_rows`:
    each of its rows is read out once."""
    kept = _schur_int_rows(d, rows, keep, drop)
    if kept is None:
        return None
    pos = {j: k for k, j in enumerate(keep)}
    return Matrix(len(keep), len(keep), [
        {pos[j]: _quotient(x, dk) for j, x in row.items()}
        for row, dk in kept])


def _schur_int_rows(d: int, rows: Sequence[dict[int, int]],
                    keep: Sequence[int], drop: Sequence[int]
                    ) -> Optional[list[tuple[dict[int, int], int]]]:
    """The integer core of `schur_complement`: its k-th row as (R'_k,
    d_k), the row R'_k / d_k keyed by the indices in `keep`, with
    d_k = d times the row's own denominator; None when a[drop,drop] is
    singular.

    Sparse exact elimination of the dropped indices one pivot at a time
    (Kron reduction when `a` is a graph Laplacian). Each row is worked as
    an integer dict of its nonzero entries with a denominator of its own,
    starting from R's rows over 1, and each column keeps the set of rows
    it meets, so only nonzeros are touched and fill-in follows the
    sparsity pattern.
    The pivot is the nonzero dropped diagonal entry whose row has the
    fewest nonzeros (ties to the lowest index), popped from a heap of
    (row length, index) entries: every row an elimination step touches
    is pushed again, and an entry whose row has since been pivoted,
    lost its diagonal or changed length is skipped. When every remaining
    diagonal entry is zero, the same rule picks an entry anywhere in the
    dropped block and its row and column go together. The Schur
    complement is unique, so the pivot order does not change the result.
    """
    idx = list(keep) + list(drop)
    work: dict[int, dict[int, int]] = {}
    dens = dict.fromkeys(idx, 1)
    cols: dict[int, set[int]] = {j: set() for j in idx}
    for i in idx:
        work[i] = {j: x for j, x in rows[i].items() if x and j in cols}
        for j in work[i]:
            cols[j].add(i)
    drop_rows, drop_cols = set(drop), set(drop)

    def is_diagonal_pivot(p: int) -> bool:
        return p in drop_rows and p in drop_cols and p in work[p]

    heap = [(len(work[p]), p) for p in drop_rows if is_diagonal_pivot(p)]
    heapify(heap)
    while drop_rows:
        while heap:
            n, p = heappop(heap)
            if is_diagonal_pivot(p) and len(work[p]) == n:
                q = p
                break
        else:
            live = [(len(work[p]), p) for p in drop_rows
                    if not drop_cols.isdisjoint(work[p])]
            if not live:
                return None
            p = min(live)[1]
            q = min(drop_cols.intersection(work[p]))
        drop_rows.remove(p)
        drop_cols.remove(q)
        touched = cols[q] & drop_rows
        _eliminate(work, dens, cols, p, q)
        for j in work.pop(p):
            cols[j].discard(p)
        for i in touched:
            if is_diagonal_pivot(i):
                heappush(heap, (len(work[i]), i))
    return [(work[i], d * dens[i]) for i in keep]


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n presented by its RREF row basis: the nonzero RREF
    rows as {col: value} dicts of their nonzeros, each row's pivot its
    smallest column.

    The canonical RREF presentation makes equality of subspaces equality
    of representations.
    """

    ambient_dim: int
    basis: tuple[dict[int, Number], ...]

    @staticmethod
    def from_span(ambient_dim: int,
                  vectors: Sequence[dict[int, Number]]) -> "Subspace":
        """The span of `vectors`, {col: value} dicts with columns in
        range(ambient_dim); a vector that is not a dict is refused."""
        if not all(isinstance(v, dict) for v in vectors):
            raise TypeError("a spanning vector is not a {col: value} dict")
        rows = [{j: x for j, x in v.items() if x} for v in vectors]
        return Subspace(ambient_dim,
                        tuple(_rref_rows(rows, ambient_dim)[0]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim,
                        tuple({i: 1} for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix(self.dim, self.ambient_dim, self.basis)

    def contains(self, v: dict[int, Number]) -> bool:
        """Whether v, a {col: value} dict, lies in the subspace."""
        if not isinstance(v, dict):
            raise TypeError("a vector is not a {col: value} dict")
        w = dict(v)
        # the basis is in RREF: each row's pivot entry is 0 in every other
        # row, so v lies in the span iff v - sum v[pivot_i] b_i vanishes
        for b in self.basis:
            c = w.get(min(b))
            if c:
                for j, x in b.items():
                    w[j] = w.get(j, 0) - c * x
        return not any(w.values())

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains(b) for b in other.basis)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
