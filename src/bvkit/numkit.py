"""Exact rational linear algebra: dense matrices, subspaces, quotients,
and a sparse Schur complement.

All arithmetic is over the rationals (`fractions.Fraction`), so every
identity checked elsewhere in the package holds exactly, not up to
rounding. Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def frac(x) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix; `entries` is a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        ncols = len(data[0]) if data else 0
        return Matrix(len(data), ncols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vec(n, i) for i in range(n)))

    @staticmethod
    def diagonal(diag: Sequence) -> "Matrix":
        d = vec(diag)
        n = len(d)
        return Matrix(n, n, tuple(
            tuple(d[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(-a for a in r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        # accumulate along nonzero entries only; same result, much faster
        # on the sparse incidence matrices used throughout
        out = []
        zero = Fraction(0)
        for r in self.entries:
            acc = [zero] * other.cols
            for k, a in enumerate(r):
                if a:
                    for j, b in enumerate(other.entries[k]):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if self.cols != len(v):
            raise ValueError("vector length mismatch")
        return tuple(dot(r, v) for r in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self.transpose() == -self

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            ra + rb for ra, rb in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols,
                      self.entries + other.entries)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(len(row_idx), len(col_idx), tuple(
            tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def _check_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def block_diag(*blocks: Matrix) -> Matrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b[i, j]
        r0 += b.rows
        c0 += b.cols
    return Matrix.from_rows(out)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form with leftmost pivots scaled to 1.

    Returns the reduced matrix and the strictly increasing pivot column
    list. Canonical: two row-equivalent matrices reduce identically.
    """
    a = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for i in range(pr, m.rows):
            if a[i][pc] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = 1 / a[pr][pc]
        a[pr] = [x * inv for x in a[pr]]
        # skip zero entries of the pivot row; elimination rows stay sparse
        hot = [j for j, y in enumerate(a[pr]) if y != 0]
        for i in range(m.rows):
            if i != pr and a[i][pc] != 0:
                f = a[i][pc]
                row = a[i]
                prow = a[pr]
                for j in hot:
                    row[j] = row[j] - f * prow[j]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix.from_rows(a) if m.rows else m, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel(m: Matrix) -> "Subspace":
    """Exact nullspace {v : m @ v = 0} as a canonical Subspace."""
    red, pivots = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(v)
    return Subspace.from_span(m.cols, basis)


def solve(a: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of a @ x = b, or None when b is not in the image."""
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    aug = a.hstack(Matrix(a.rows, 1, tuple((frac(x),) for x in b)))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = red[r, a.cols]
    return tuple(x)


def solve_matrix(a: Matrix, b: Matrix,
                 require_unique: bool = False) -> Optional[Matrix]:
    """Solve a @ X = b columnwise; None if any column is inconsistent
    (or, with require_unique, if a has a nontrivial kernel)."""
    if b.rows != a.rows:
        raise ValueError("rhs row count mismatch")
    red, pivots = rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        return None
    if require_unique and len(pivots) < a.cols:
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        for j in range(b.cols):
            x[p][j] = red[r, a.cols + j]
    return Matrix.from_rows(x) if a.cols else Matrix.zeros(0, b.cols)


def invert(a: Matrix) -> Optional[Matrix]:
    if a.rows != a.cols:
        raise ValueError("only square matrices are invertible")
    return solve_matrix(a, Matrix.identity(a.rows))


def schur_complement(a: Matrix, keep: Sequence[int],
                     drop: Sequence[int]) -> Optional[Matrix]:
    """a[keep,keep] - a[keep,drop] a[drop,drop]^-1 a[drop,keep] in `keep`
    order, or None when a[drop,drop] is singular.

    Sparse exact elimination of the dropped indices one pivot at a time
    (Kron reduction when `a` is a graph Laplacian). Rows are dicts of
    their nonzero entries and each column keeps the set of rows it meets,
    so only nonzeros are touched and fill-in follows the sparsity pattern.
    The pivot is the nonzero dropped diagonal entry whose row has the
    fewest nonzeros (ties to the lowest index); when every remaining one
    is zero, the same rule picks an entry anywhere in the dropped block
    and its row and column go together. The Schur complement is unique, so
    the pivot order does not change the result.
    """
    idx = list(keep) + list(drop)
    rows: dict[int, dict[int, Fraction]] = {}
    cols: dict[int, set[int]] = {j: set() for j in idx}
    for i in idx:
        src = a.entries[i]
        rows[i] = {j: src[j] for j in idx if src[j]}
        for j in rows[i]:
            cols[j].add(i)
    drop_rows, drop_cols = set(drop), set(drop)
    while drop_rows:
        diag = [(len(rows[p]), p) for p in drop_rows
                if p in drop_cols and p in rows[p]]
        if diag:
            p = q = min(diag)[1]
        else:
            live = [(len(rows[p]), p) for p in drop_rows
                    if not drop_cols.isdisjoint(rows[p])]
            if not live:
                return None
            p = min(live)[1]
            q = min(drop_cols.intersection(rows[p]))
        drop_rows.remove(p)
        drop_cols.remove(q)
        prow = rows.pop(p)
        pivot = prow.pop(q)
        for j in prow:
            cols[j].discard(p)
        for i in cols.pop(q) - {p}:
            row = rows[i]
            f = row.pop(q) / pivot
            for j, x in prow.items():
                y = row.get(j, _ZERO) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
    return Matrix(len(keep), len(keep), tuple(
        tuple(rows[i].get(j, _ZERO) for j in keep) for i in keep))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n presented by an RREF row basis.

    The canonical RREF presentation makes equality of subspaces equality
    of representations.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @staticmethod
    def from_span(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        if not vectors:
            return Subspace(ambient_dim, ())
        m = Matrix.from_rows(vectors)
        if m.cols != ambient_dim:
            raise ValueError("spanning vectors do not match ambient dimension")
        red, pivots = rref(m)
        return Subspace(ambient_dim, red.entries[:len(pivots)])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix(self.dim, self.ambient_dim, self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if all(x == 0 for x in v):
            return True
        stacked = Subspace.from_span(self.ambient_dim, list(self.basis) + [vec(v)])
        return stacked.dim == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return sum_spaces(self, other).dim == self.dim

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def sum_spaces(u: Subspace, v: Subspace) -> Subspace:
    u._check_ambient(v)
    return Subspace.from_span(u.ambient_dim, list(u.basis) + list(v.basis))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block reduction."""
    u._check_ambient(v)
    n = u.ambient_dim
    rows = [list(b) + list(b) for b in u.basis]
    rows += [list(b) + [0] * n for b in v.basis]
    if not rows:
        return Subspace.zero(n)
    red, pivots = rref(Matrix.from_rows(rows))
    inter = []
    for i in range(len(pivots)):
        left = red.entries[i][:n]
        if all(x == 0 for x in left):
            inter.append(red.entries[i][n:])
    return Subspace.from_span(n, inter)


def quotient(ambient_dim: int, w: Subspace) -> tuple[int, Matrix]:
    """Quotient Q^n / W: returns (dim, projection) with ker(projection) = W.

    The projection rows are a basis of the dot-orthogonal complement of W,
    so it is surjective onto Q^(n - dim W).
    """
    if w.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if w.dim == 0:
        return ambient_dim, Matrix.identity(ambient_dim)
    comp = kernel(w.matrix())
    return comp.dim, comp.matrix()


def section_of(projection: Matrix) -> Matrix:
    """A right inverse S of a surjective projection: projection @ S = I."""
    if projection.rows == 0:
        return Matrix.zeros(projection.cols, 0)
    s = solve_matrix(projection, Matrix.identity(projection.rows))
    if s is None:
        raise ValueError("projection is not surjective")
    return s


def image(m: Matrix) -> Subspace:
    """Column space of m, as a subspace of Q^rows."""
    return Subspace.from_span(m.rows, m.transpose().entries)
