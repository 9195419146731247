import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvkit.numkit import (
    Matrix,
    Subspace,
    block_diag,
    dot,
    frac,
    frac_reader,
    invert,
    kernel,
    rank,
    rref,
    schur_complement,
    solve_matrix,
    sparse_rank,
    vec,
)
from bvkit.relations import LinearRelation, compose
from bvkit.symplect import PresymplecticSpace


def from_dense(rows, cols, a):
    """The Matrix with the dense rows `a`, also when it has no rows."""
    return Matrix.from_rows(a) if rows else Matrix.zeros(0, cols)


def sparse_vec(v):
    """The {col: value} dict of the nonzeros of a dense vector, the one
    vector form that bvkit's spans, subspaces and one-forms take."""
    return {j: x for j, x in enumerate(vec(v)) if x}


def span_of(n, vectors):
    """`Subspace.from_span` of dense vectors, each of length n."""
    if any(len(v) != n for v in vectors):
        raise ValueError("spanning vectors do not match ambient dimension")
    return Subspace.from_span(n, [sparse_vec(v) for v in vectors])


def unit(n, i):
    """The i-th dense unit vector of Q^n."""
    return tuple(int(j == i) for j in range(n))


def random_matrix(rng, rows, cols, den=4, num=6):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(cols)]
         for _ in range(rows)])


def bareiss_rank(m):
    """Fraction-free Bareiss elimination on the integer-scaled matrix."""
    from math import lcm

    scale = lcm(*[x.denominator for row in m.entries for x in row], 1)
    a = [[int(x * scale) for x in row] for row in m.entries]
    rows, cols = m.rows, m.cols
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def dense_rref(m):
    """Dense Gauss-Jordan with the first nonzero row as pivot: the oracle
    for the sparse `rref`."""
    a = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = next((i for i in range(pr, m.rows) if a[i][pc] != 0),
                         None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = Fraction(1, a[pr][pc])
        a[pr] = [x * inv for x in a[pr]]
        for i in range(m.rows):
            if i != pr and a[i][pc] != 0:
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
    return from_dense(m.rows, m.cols, a), pivots


def random_rref_case(rng):
    """A seeded matrix with the shapes and structure RREF must handle:
    empty and 1x1 shapes, zero rows and columns, duplicate and dependent
    rows, and entries with large numerators."""
    shape = rng.random()
    if shape < 0.05:
        rows, cols = 0, rng.randint(0, 5)
    elif shape < 0.1:
        rows, cols = rng.randint(1, 5), 0
    elif shape < 0.15:
        rows, cols = 1, 1
    else:
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
    num = 10 ** 30 if rng.random() < 0.2 else 6
    density = rng.choice([0.2, 0.5, 0.9])
    a = [[Fraction(rng.randint(-num, num), rng.randint(1, 5))
          if rng.random() < density else Fraction(0) for _ in range(cols)]
         for _ in range(rows)]
    if rows and cols:
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for r in a:
                r[j] = Fraction(0)
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [Fraction(0)] * cols
        if rows >= 2 and rng.random() < 0.4:
            a[rng.randrange(rows)] = list(a[rng.randrange(rows)])
        if rows >= 3 and rng.random() < 0.4:
            u, w = rng.sample(range(rows), 2)
            c, d = Fraction(rng.randint(-3, 3)), Fraction(1, rng.randint(1, 4))
            a[rng.randrange(rows)] = [c * x + d * y for x, y in zip(a[u], a[w])]
    return from_dense(rows, cols, a)


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(23)
    seen = {"empty": 0, "one": 0, "deficient": 0, "big": 0}
    for _ in range(300):
        m = random_rref_case(rng)
        red, pivots = rref(m)
        assert (red, pivots) == dense_rref(m)
        seen["empty"] += 0 in m.shape
        seen["one"] += m.shape == (1, 1)
        seen["deficient"] += 0 < len(pivots) < min(m.shape)
        seen["big"] += any(abs(x.numerator) > 10 ** 20
                           for r in m.entries for x in r)
    assert min(seen.values()) >= 10, seen


def test_products_skip_zeros_exactly():
    rng = random.Random(29)

    def sparse(n):
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if rng.random() < 0.25 else Fraction(0) for _ in range(n)]

    for _ in range(100):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = from_dense(rows, cols, [sparse(cols) for _ in range(rows)])
        v = sparse(cols)
        dense = tuple(sum((r[j] * v[j] for j in range(cols)), Fraction(0))
                      for r in m.entries)
        assert m.apply(v) == dense
        u = sparse(cols)
        assert dot(u, v) == sum((a * b for a, b in zip(u, v)), Fraction(0))


class DenseMatrix:
    """Oracle: the former dense `Matrix`, a tuple of row tuples, with
    every operation by the textbook entry-by-entry rule."""

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("column count mismatch")
        self.rows, self.cols = rows, cols
        self.entries = tuple(tuple(Fraction(x) for x in r) for r in entries)

    @staticmethod
    def from_rows(rows):
        return DenseMatrix(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def zeros(rows, cols):
        return DenseMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return DenseMatrix.diagonal([1] * n)

    @staticmethod
    def diagonal(diag):
        n = len(diag)
        return DenseMatrix(n, n, [[diag[i] if i == j else 0 for j in range(n)]
                                  for i in range(n)])

    @property
    def shape(self):
        return self.rows, self.cols

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return DenseMatrix(self.cols, self.rows,
                           [self.col(j) for j in range(self.cols)])

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_shape(other)
        return DenseMatrix(self.rows, self.cols, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_shape(other)
        return DenseMatrix(self.rows, self.cols, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return DenseMatrix(self.rows, self.cols,
                           [[c * a for a in r] for r in self.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return DenseMatrix(self.rows, other.cols, [
            [sum((r[k] * other[k, j] for k in range(self.cols)), Fraction(0))
             for j in range(other.cols)] for r in self.entries])

    def apply(self, v):
        if self.cols != len(v):
            raise ValueError("vector length mismatch")
        return tuple(sum((a * x for a, x in zip(r, v)), Fraction(0))
                     for r in self.entries)

    def is_zero(self):
        return all(a == 0 for r in self.entries for a in r)

    def is_antisymmetric(self):
        return self.rows == self.cols and all(
            self[i, j] == -self[j, i]
            for i in range(self.rows) for j in range(self.rows))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return DenseMatrix(self.rows, self.cols + other.cols, [
            ra + rb for ra, rb in zip(self.entries, other.entries)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return DenseMatrix(self.rows + other.rows, self.cols,
                           self.entries + other.entries)

    def submatrix(self, row_idx, col_idx):
        return DenseMatrix(len(row_idx), len(col_idx), [
            [self[i, j] for j in col_idx] for i in row_idx])


def assert_matches(s, d):
    """The sparse s holds exactly the nonzeros of the dense oracle d: the
    same shape, the same dense view, and no stored zero."""
    assert isinstance(s, Matrix) and s.shape == d.shape
    assert s.data == tuple({j: x for j, x in enumerate(r) if x}
                           for r in d.entries)
    assert s.entries == d.entries
    assert all(type(x) in (int, Fraction) for r in s.entries for x in r)


def follows_number_rule(xs):
    """Every value is an int when integral and a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction)
               for x in xs)


def test_sparse_matrix_matches_dense_oracle():
    rng = random.Random(83)
    values = [0, 0, 0, Fraction(0), 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    seen = {"empty": 0, "zero_row": 0, "cancel": 0, "antisymmetric": 0}

    def size():
        return rng.choice([0, 1, 2, 3, 4, 5])

    def pair(rows, cols, density=None):
        """A sparse matrix and its oracle from the same dense rows, which
        carry explicit zeros (ints and Fractions) and all-zero rows."""
        p = rng.choice([0.2, 0.5, 0.9]) if density is None else density
        a = [[rng.choice(values[4:]) if rng.random() < p
              else rng.choice(values[:4]) for _ in range(cols)]
             for _ in range(rows)]
        if rows and rng.random() < 0.3:
            a[rng.randrange(rows)] = [0] * cols
        d = DenseMatrix(rows, cols, a)
        s = Matrix.from_rows(a) if rows else Matrix.zeros(0, cols)
        assert_matches(s, d)
        assert follows_number_rule(x for r in s.entries for x in r)
        return s, d

    for _ in range(600):
        r, c, k = size(), size(), size()
        s, d = pair(r, c)
        seen["empty"] += 0 in s.shape
        seen["zero_row"] += any(not row for row in s.data) and c > 0
        assert (s.rows, s.cols) == (r, c)
        ent, ent_t = s.entries, s.transpose().entries
        for i in range(r):
            assert ent[i] == d.row(i)
            assert all(s[i, j] == d[i, j] for j in range(c))
        assert all(ent_t[j] == d.col(j) for j in range(c))
        assert_matches(s.transpose(), d.transpose())
        assert_matches(-s, -d)
        x = rng.choice([0, 1, -2, Fraction(1, 3)])
        assert_matches(s.scale(x), d.scale(x))
        assert s.is_zero() == d.is_zero()
        v = [rng.choice(values) for _ in range(c)]
        assert s.apply(v) == d.apply(v)
        s2, d2 = pair(r, c)
        assert_matches(s + s2, d + d2)
        assert_matches(s - s2, d - d2)
        assert (s == s2) == (d.entries == d2.entries)
        s3, d3 = pair(c, k)
        assert_matches(s @ s3, d @ d3)
        h, dh = pair(r, k)
        assert_matches(s.hstack(h), d.hstack(dh))
        w, dw = pair(k, c)
        assert_matches(s.vstack(w), d.vstack(dw))
        rows = [rng.randrange(r) for _ in range(size())] if r else []
        cols = [rng.randrange(c) for _ in range(size())] if c else []
        assert_matches(s.submatrix(rows, cols), d.submatrix(rows, cols))
        diag = [rng.choice(values) for _ in range(r)]
        assert_matches(block_diag(*(Matrix.from_rows([[x]]) for x in diag)),
                       DenseMatrix.diagonal(diag))
        assert_matches(Matrix.identity(r), DenseMatrix.identity(r))
        assert_matches(Matrix.zeros(r, c), DenseMatrix.zeros(r, c))
        # antisymmetry: the upper triangle of a square case mirrored
        sq, _ = pair(r, r)
        anti = sq - sq.transpose()
        if rng.random() < 0.5 and r:
            i, j = rng.randrange(r), rng.randrange(r)
            anti = anti + Matrix.from_rows(
                [[1 if (a, b) == (i, j) else 0 for b in range(r)]
                 for a in range(r)])
        dense_anti = DenseMatrix(r, r, anti.entries)
        assert anti.is_antisymmetric() == dense_anti.is_antisymmetric()
        seen["antisymmetric"] += dense_anti.is_antisymmetric() and r > 1
        assert s.is_antisymmetric() == d.is_antisymmetric()
        # cancellation leaves no stored zero: m - m, m + (-m), scale(0),
        # and [p | p] @ [q; t - q] == p @ t, whose terms cancel pairwise
        zero = Matrix.zeros(r, c)
        for cancelled in (s - s, s + -s, s.scale(0)):
            assert cancelled == zero and cancelled.is_zero()
        p, dp = pair(r, k, density=0.9)
        q, dq = pair(k, c, density=0.9)
        t, dt = pair(k, c, density=rng.choice([0.0, 0.2]))
        prod = p.hstack(p) @ q.vstack(t - q)
        assert_matches(prod, dp @ dt)
        if t.is_zero():
            assert prod == zero and prod.is_zero()
            seen["cancel"] += not (p @ q).is_zero()
    assert min(seen.values()) >= 50, seen


def test_sparse_matrix_refusals_match_dense_oracle():
    a, b = Matrix.from_rows([[1, 2]]), Matrix.from_rows([[1], [2], [3]])
    for op in (lambda m, n: m + n, lambda m, n: m - n, lambda m, n: m @ n,
               lambda m, n: m.hstack(n), lambda m, n: m.vstack(n)):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(DenseMatrix.from_rows(a.entries),
               DenseMatrix.from_rows(b.entries))
    with pytest.raises(ValueError, match="vector length mismatch"):
        a.apply([1])
    with pytest.raises(ValueError, match="column count mismatch"):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="column count mismatch"):
        DenseMatrix.from_rows([[1, 2], [3]])


def test_rref_identity():
    m = Matrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_rank_one():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_rank_matches_bareiss_oracle():
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, 6, 9)
        assert rank(m) == bareiss_rank(m)


def test_sparse_rank_matches_bareiss_oracle():
    rng = random.Random(31)
    for _ in range(300):
        m = random_rref_case(rng)
        rows = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
        # zero entries given explicitly are ignored
        for r in rows[:1]:
            r.update({j: Fraction(0) for j in range(m.cols) if j not in r})
        before = [dict(r) for r in rows]
        assert sparse_rank(rows, m.cols) == bareiss_rank(m) == rank(m)
        assert rows == before
    assert sparse_rank([], 3) == 0
    assert sparse_rank([{}, {}], 0) == 0


def test_is_antisymmetric_matches_transpose_rule():
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 6)
        cols = n if rng.random() < 0.8 else rng.randint(0, 6)
        a = [[Fraction(0)] * cols for _ in range(n)]
        for i in range(n):
            for j in range(min(i, cols)):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                a[i][j] = x
                if j < n and i < cols:
                    a[j][i] = -x
        if n and cols and rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(cols)
            a[i][j] += rng.choice([1, -1, Fraction(1, 2)])
        m = from_dense(n, cols, a)
        want = m.rows == m.cols and m.transpose() == -m
        assert m.is_antisymmetric() == want
        seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_kernel_zero_matrix():
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_identity():
    assert kernel(Matrix.identity(2)) == Subspace(2, ())


def test_kernel_hand_example():
    k = kernel(Matrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    assert k == span_of(3, [[1, -1, 0]])


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, 4, 7)
        k = kernel(m)
        assert k.dim == 7 - rank(m)
        for v in k.matrix().entries:
            assert all(x == 0 for x in m.apply(v))


def column(v):
    return Matrix.from_rows([[x] for x in v])


def test_solve_identity():
    b = vec([3, Fraction(1, 2), -5])
    assert solve_matrix(Matrix.identity(3), column(b)) == column(b)


def test_solve_underdetermined_residual_zero():
    a = Matrix.from_rows([[1, 1]])
    x = solve_matrix(a, column([2]))
    assert x is not None
    assert a @ x == column([2])


def test_solve_recovers_constructed_solution():
    rng = random.Random(3)
    while True:
        a = random_matrix(rng, 8, 8)
        if rank(a) == 8:
            break
    x0 = vec([rng.randint(-5, 5) for _ in range(8)])
    x = solve_matrix(a, column(a.apply(x0)))
    assert x == column(x0)


def test_solve_inconsistent_returns_none():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve_matrix(a, column([1, 2])) is None


def test_invert_roundtrip():
    a = Matrix.from_rows([[2, 1], [1, 1]])
    ainv = invert(a)
    assert a @ ainv == Matrix.identity(2)


def test_invert_matches_the_elimination_path():
    """`invert` reads the inverse of a monomial matrix off its entries;
    it must agree with solving a @ X = I by elimination on signed
    permutations with rational scalings, on one-entry-per-row matrices
    that repeat a column (singular) and on non-monomial matrices."""
    rng = random.Random(29)

    def by_elimination(a):
        return solve_matrix(a, Matrix.identity(a.rows))

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 4))

    seen = {"unit": 0, "scaled": 0, "repeated": 0, "dense": 0,
            "singular": 0}
    for n in range(13):
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            for kind in ("unit", "scaled"):
                a = Matrix(n, n, [{j: Fraction(rng.choice((-1, 1)))
                                   if kind == "unit" else nonzero()}
                                  for j in perm])
                inv = invert(a)
                assert inv == by_elimination(a), (kind, a)
                assert a @ inv == inv @ a == Matrix.identity(n)
                seen[kind] += 1
            if n >= 2:
                cols = list(perm)
                cols[rng.randrange(n)] = cols[rng.randrange(n)]
                if len(set(cols)) < n:
                    a = Matrix(n, n, [{j: nonzero()} for j in cols])
                    assert invert(a) is None is by_elimination(a)
                    seen["repeated"] += 1
            # a signed permutation with some rows filled in; a zero row
            # or a repeated row makes it singular
            rows = [{j: nonzero()} for j in perm]
            for row in rows:
                for j in range(n):
                    if rng.random() < 0.3:
                        row[j] = nonzero()
            if n and rng.random() < 0.3:
                i = rng.randrange(n)
                rows[i] = dict(rows[rng.randrange(n)]) if i else {}
            a = Matrix(n, n, rows)
            inv = invert(a)
            assert inv == by_elimination(a)
            if inv is None:
                seen["singular"] += 1
            else:
                assert a @ inv == Matrix.identity(n)
                seen["dense"] += any(len(r) > 1 for r in a.data)
    assert min(seen.values()) >= 5, seen
    with pytest.raises(ValueError):
        invert(Matrix.zeros(2, 3))


def dense_schur(a, keep, drop):
    """The textbook formula through one dense joint elimination
    (`dense_rref` of [a[drop,drop] | a[drop,keep]])."""
    joint = a.submatrix(drop, drop).hstack(a.submatrix(drop, keep))
    red, pivots = dense_rref(joint)
    if pivots != list(range(len(drop))):
        return None
    x = red.submatrix(range(len(drop)), range(len(drop), joint.cols))
    return a.submatrix(keep, keep) - a.submatrix(keep, drop) @ x


def gram(b):
    """BᵀB: symmetric positive semidefinite for any B, the contract of
    `schur_complement`, and singular on any index set where B's columns
    are dependent."""
    return b.transpose() @ b


def test_schur_complement_matches_dense_formula():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 8)
        density = rng.choice([0.2, 0.4, 0.7])
        k = rng.randint(0, n + 2)
        # zero and dependent columns of b make dropped blocks singular
        a = gram(from_dense(k, n, [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else 0 for _ in range(n)]
            for _ in range(k)]))
        role = [rng.choice(["keep", "drop", "drop", "neither"])
                for _ in range(n)]
        keep = [i for i in range(n) if role[i] == "keep"]
        drop = [i for i in range(n) if role[i] == "drop"]
        rng.shuffle(keep)
        rng.shuffle(drop)
        rows = sparse_rows(a)
        before = [dict(r) for r in rows]
        got = schur_complement(*int_form(rows), keep, drop)
        assert got == dense_schur(a, keep, drop)
        assert rows == before
        outcomes[got is None] += 1
    assert min(outcomes.values()) > 30


def test_schur_complement_refuses_a_matrix_that_is_not_symmetric():
    """An entry missing on one side, or different on the two sides, is
    named; an entry outside keep and drop is not read."""
    with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
        schur_complement(1, [{0: 2}, {0: 1, 1: 3}], [0], [1])
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        schur_complement(1, [{0: 2, 1: 1}, {0: 5, 1: 3}], [0], [1])
    assert schur_complement(1, [{0: 2, 1: 1}, {0: 1, 1: 3}, {0: 7}],
                            [0], [1]) == Matrix(1, 1, [{0: Fraction(5, 3)}])
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(2, 6)
        a = gram(from_dense(n, n, [[rng.randint(-3, 3) for _ in range(n)]
                                   for _ in range(n)]))
        rows = sparse_rows(a)
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[i].get(j, 0) + rng.choice([-1, 1])
        if not rows[i][j]:
            del rows[i][j]
        keep = list(range(n))
        drop = [keep.pop(rng.randrange(n))]
        with pytest.raises(ValueError, match="not symmetric") as e:
            schur_complement(1, rows, keep, drop)
        assert str(e.value).endswith((f"({i}, {j})", f"({j}, {i})"))


def wide_matrix(rng, rows, cols, bits=40, density=0.6):
    """Entries with numerators and denominators up to 2**bits."""
    top = 2 ** bits
    return from_dense(rows, cols, [
        [Fraction(rng.randint(-top, top), rng.randint(1, top))
         if rng.random() < density else Fraction(0)
         for _ in range(cols)] for _ in range(rows)])


def hilbert(n, extra=0):
    return from_dense(n, n + extra, [
        [Fraction(1, i + j + 1) for j in range(n + extra)]
        for i in range(n)])


def low_rank(rng, rows, cols, r):
    """A rows x cols product of random rows x r and r x cols factors, with
    negative entries, so pivots of either sign and zero rows occur."""
    u = [[rng.choice([0, 1, -1, -3, Fraction(-2, 7)]) for _ in range(r)]
         for _ in range(rows)]
    v = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
         for _ in range(r)]
    return from_dense(rows, cols, [
        [sum((u[i][k] * v[k][j] for k in range(r)), Fraction(0))
         for j in range(cols)] for i in range(rows)])


def sparse_rows(m):
    return [{j: x for j, x in enumerate(r) if x} for r in m.entries]


def int_form(rows):
    """(D, R) with R / D == rows, the form `schur_complement` takes: D is
    the lcm of the entries' denominators and R the integer rows."""
    from math import lcm

    d = lcm(1, *(x.denominator for r in rows for x in r.values()))
    return d, [{j: x.numerator * (d // x.denominator) for j, x in r.items()}
               for r in rows]


def check_kernel(m, keep=None, drop=None):
    """rref, sparse_rank and (when keep/drop are given) schur_complement of
    m against the dense Fraction oracles; the row dicts given to
    sparse_rank come back unmodified. Returns the Schur complement."""
    rows = sparse_rows(m)
    before = [dict(r) for r in rows]
    assert rref(m) == dense_rref(m)
    assert sparse_rank(rows, m.cols) == bareiss_rank(m) == len(rref(m)[1])
    assert rows == before
    if keep is None:
        return None
    d, ints = int_form(rows)
    before_ints = [dict(r) for r in ints]
    got = schur_complement(d, ints, keep, drop)
    assert got == dense_schur(m, keep, drop)
    assert ints == before_ints
    assert rows == before
    return got


def test_integer_kernel_wide_coefficients():
    rng = random.Random(43)
    big = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        m = wide_matrix(rng, n, n, density=rng.choice([0.3, 0.7, 1.0]))
        order = list(range(n))
        rng.shuffle(order)
        cut = rng.randint(0, n)
        check_kernel(m)
        g = gram(m)
        check_kernel(g, order[:cut], order[cut:])
        r = wide_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        check_kernel(r)
        big += any(x.denominator > 2 ** 30 for row in g.entries for x in row)
    assert big >= 30


@pytest.mark.parametrize("n", range(1, 11))
def test_integer_kernel_hilbert(n):
    h = hilbert(n)
    # nonsingular: the RREF is the identity, and every Schur complement
    # of a Hilbert matrix exists
    assert rref(h) == (Matrix.identity(n), list(range(n)))
    s = check_kernel(h, list(range(n // 2)), list(range(n // 2, n)))
    assert s is not None
    red, pivots = rref(hilbert(n, extra=2))
    assert (red, pivots) == dense_rref(hilbert(n, extra=2))
    assert pivots == list(range(n))
    tall = hilbert(n + 2).submatrix(range(n + 2), range(n))
    assert sparse_rank(sparse_rows(tall), n) == n


def test_integer_kernel_negative_pivots_zero_rows_and_rank_deficiency():
    rng = random.Random(47)
    seen = {"negative": 0, "zero_row": 0, "deficient": 0, "none": 0}
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))
        if rng.random() < 0.5:  # negate so that leading entries are < 0
            m = -m
        check_kernel(m)
        # the Schur complement of its Gram matrix, singular where m's
        # columns are dependent
        order = list(range(cols))
        rng.shuffle(order)
        cut = rng.randint(0, cols - 1)
        seen["none"] += check_kernel(gram(m), order[:cut],
                                     order[cut:]) is None
        red, pivots = rref(m)
        seen["negative"] += any(m[i, q] < 0 for i in range(rows)
                                for q in pivots[:1])
        seen["zero_row"] += any(not any(r) for r in m.entries)
        seen["deficient"] += len(pivots) < min(rows, cols)
    assert min(seen.values()) >= 10, seen


def test_sparse_rank_on_int_fraction_and_mixed_values():
    rng = random.Random(53)
    kinds = {"int": 0, "fraction": 0, "mixed": 0}
    for _ in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        kind = rng.choice(list(kinds))
        dense = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                x = rng.choice([0, 0, 1, -1, 2, -4, 6])
                as_int = kind == "int" or (kind == "mixed"
                                           and rng.random() < 0.5)
                row.append(x if as_int else Fraction(x, rng.randint(1, 3)))
            dense.append(row)
        given = [{j: x for j, x in enumerate(r) if x or rng.random() < 0.3}
                 for r in dense]
        before = [dict(r) for r in given]
        m = from_dense(rows, cols, dense)
        assert sparse_rank(given, cols) == bareiss_rank(m)
        assert given == before
        assert all(type(x) is type(y) for r, b in zip(given, before)
                   for x, y in zip(r.values(), b.values()))
        kinds[kind] += 1
    assert min(kinds.values()) >= 50, kinds


def test_schur_complement_denominators_and_singular_drop():
    rng = random.Random(59)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        k, d = rng.randint(0, 4), rng.randint(1, 5)
        n = k + d
        b = [[Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7, 12]))
              for _ in range(n)] for _ in range(n)]
        singular = rng.random() < 0.5
        if singular:  # a dropped column of b that combines the others
            drop_cols = list(range(k, n))
            c = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 for _ in drop_cols]
            target = rng.choice(drop_cols)
            for row in b:
                row[target] = sum((ci * row[j] for ci, j in zip(c, drop_cols)
                                   if j != target), Fraction(0))
        m = gram(from_dense(n, n, b))
        got = check_kernel(m, list(range(k)), list(range(k, n)))
        if singular:
            assert got is None
        outcomes[got is None] += 1
        if got is not None:
            assert got.shape == (k, k)
    assert min(outcomes.values()) >= 30, outcomes


def test_schur_integer_rows_read_out_as_the_schur_complement():
    """The integer core's k-th row R'_k / d_k, keyed by the kept indices,
    is the k-th row of `schur_complement`, with d_k a positive multiple
    of d; both return None together."""
    from bvkit.numkit import _schur_int_rows

    rng = random.Random(83)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        m = gram(random_matrix(rng, n, n) if rng.random() < 0.5 else
                 low_rank(rng, n, n, rng.randint(1, n)))
        order = list(range(n))
        rng.shuffle(order)
        cut = rng.randint(0, n)
        keep, drop = order[:cut], order[cut:]
        d, ints = int_form(sparse_rows(m))
        kept = _schur_int_rows(d, ints, keep, drop)
        want = schur_complement(d, ints, keep, drop)
        outcomes[kept is None] += 1
        assert (kept is None) == (want is None)
        if kept is None:
            continue
        for k, (row, dk) in enumerate(kept):
            assert dk > 0 and dk % d == 0
            assert set(row) <= set(keep) and 0 not in row.values()
            assert {keep.index(j): Fraction(x, dk)
                    for j, x in row.items()} == want.data[k]
    assert min(outcomes.values()) >= 20, outcomes


def test_kernel_rows_keep_positive_coprime_denominators():
    """Outside the Schur complement a row keeps no denominator: every
    nonzero row the kernel leaves is a primitive integer row (content 1)
    with no stored zero, in reduced and in rank mode, and the pivots are
    rref's."""
    from math import gcd

    from bvkit.numkit import _int_rows, _pivot_columns

    rng = random.Random(67)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = low_rank(rng, rows, cols, rng.randint(1, min(rows, cols)))
        if rng.random() < 0.5:
            m = -m
        for reduced in (True, False):
            work = _int_rows(sparse_rows(m))
            pivots = _pivot_columns(work, cols, reduced)
            assert [q for q, _ in pivots] == rref(m)[1]
            for row in work.values():
                assert all(type(x) is int for x in row.values())
                assert not row or gcd(*row.values()) == 1
                assert 0 not in row.values()


def test_schur_denominators_are_coprime_to_their_rows():
    """With D = 1 each row the Schur core returns is R'_k / d_k with
    d_k > 0 and gcd(d_k, content(R'_k)) == 1."""
    from math import gcd

    from bvkit.numkit import _schur_int_rows

    rng = random.Random(89)
    seen = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        b = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(n)]
                              for _ in range(rng.randint(1, n))])
        ints = list(gram(b).data)
        cut = rng.randint(1, n - 1)
        kept = _schur_int_rows(1, ints, list(range(cut)), list(range(cut, n)))
        if kept is None:
            continue
        for row, dk in kept:
            assert dk > 0 and gcd(dk, *row.values()) == 1
            seen += dk > 1
    assert seen >= 50, seen


def test_elimination_does_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(61)
    cases = [wide_matrix(rng, 5, 5, bits=20) for _ in range(5)]
    cases += [hilbert(6), -low_rank(rng, 6, 6, 3)]
    rows = [sparse_rows(m) for m in cases]
    ints = [int_form(sparse_rows(gram(m))) for m in cases]
    want = [(rref(m), sparse_rank(r, m.cols),
             schur_complement(*i, [0, 1], [2, 3, 4]))
            for m, r, i in zip(cases, rows, ints)]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the elimination")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [(rref(m), sparse_rank(r, m.cols),
            schur_complement(*i, [0, 1], [2, 3, 4]))
           for m, r, i in zip(cases, rows, ints)]
    monkeypatch.undo()
    assert got == want


def rescan_pivots(rows, keep, drop):
    """Oracle: the pivots of the Kron reduction when each step rescans
    every remaining dropped row for the positive diagonal entry with the
    shortest row (ties to the lowest index), and clears the pivot column
    from every row that meets it by Fraction arithmetic; None if no such
    entry is left before the dropped rows run out."""
    idx = set(keep) | set(drop)
    work = {i: {j: Fraction(x) for j, x in rows[i].items()
                if x and j in idx} for i in idx}
    left, pivots = set(drop), []
    while left:
        diag = [(len(work[p]), p) for p in left if work[p].get(p, 0) > 0]
        if not diag:
            return None
        p = min(diag)[1]
        pivots.append(p)
        left.remove(p)
        prow = work.pop(p)
        for row in work.values():
            f = row.pop(p, 0) / prow[p]
            for j, x in prow.items():
                if f and j != p:
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
    return pivots


def schur_pivots(monkeypatch, rows, keep, drop):
    """schur_complement's result, the dropped indices in the order it
    pivoted on them, and how many heap entries it popped. Each pop reads
    the set of dropped rows not yet pivoted, so the pivots are the rows
    that leave it between one pop and the next, or after the last."""
    import sys

    from bvkit import numkit

    snapshots, pop, live = [], numkit.heappop, {}

    def record(heap):
        live["left"] = sys._getframe(1).f_locals["left"]
        snapshots.append(set(live["left"]))
        return pop(heap)

    monkeypatch.setattr(numkit, "heappop", record)
    got = schur_complement(*int_form(rows), keep, drop)
    monkeypatch.undo()
    if live:
        snapshots.append(set(live["left"]))
    taken = [p for s, t in zip(snapshots, snapshots[1:]) for p in s - t]
    return got, taken, len(snapshots) - 1


def random_psd_rows(rng, n):
    """Sparse rows of a seeded n x n symmetric positive semidefinite
    matrix: a graph Laplacian with non-negative weights, zeros among
    them, or a Gram matrix of sparse rows."""
    density = rng.choice([0.2, 0.4, 0.7])
    if rng.random() < 0.5:
        a = [[Fraction(0)] * n for _ in range(n)]
        for u in range(n):
            for v in range(u):
                if rng.random() < density:
                    w = Fraction(rng.choice([0, 1, 2, 3]), rng.randint(1, 2))
                    a[u][u] += w
                    a[v][v] += w
                    a[u][v] -= w
                    a[v][u] -= w
        return sparse_rows(from_dense(n, n, a))
    b = from_dense(n, n, [[Fraction(rng.choice([-3, -1, 1, 2]),
                                    rng.randint(1, 2))
                           if rng.random() < density else 0
                           for _ in range(n)] for _ in range(n)])
    return sparse_rows(gram(b))


def test_schur_pivot_heap_follows_the_rescan_rule(monkeypatch):
    rng = random.Random(79)
    kinds = {"regular": 0, "stale": 0, "singular": 0}
    for _ in range(300):
        n = rng.randint(1, 14)
        rows = random_psd_rows(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        cut = rng.randint(0, n - 1)
        keep, drop = order[:cut], order[cut:]
        before = [dict(r) for r in rows]
        got, taken, pops = schur_pivots(monkeypatch, rows, keep, drop)
        want = rescan_pivots(rows, keep, drop)
        assert rows == before
        a = Matrix.from_rows([[r.get(j, 0) for j in range(n)] for r in rows])
        assert got == dense_schur(a, keep, drop)
        if want is None:
            assert got is None
            kinds["singular"] += 1
        else:
            assert taken == want
            kinds["regular"] += 1
            kinds["stale"] += pops > len(taken)
    assert min(kinds.values()) >= 30, kinds


def test_schur_refuses_a_dropped_diagonal_that_is_not_positive():
    """No positive semidefinite matrix has a row whose diagonal is not
    positive but which is nonzero. Each of these has an invertible
    dropped block, whose Schur complement the kernel refuses: a zero
    diagonal ([[0, 1], [1, 0]], once met by an off-diagonal pivot), a
    zero diagonal that pivot 0 fills with 0 - 1 * 1, and a negative
    one."""
    for rows, keep, drop in (
            ([{1: 1, 2: 1}, {0: 1}, {0: 1, 2: 1}], [2], [0, 1]),
            ([{0: 1, 1: 1}, {0: 1, 2: 1, 3: 1}, {1: 1, 2: 2, 3: 1},
              {1: 1, 2: 1, 3: 1}], [3], [0, 1, 2]),
            ([{0: -2, 1: 1}, {0: 1, 1: 1}], [1], [0])):
        n = len(rows)
        a = Matrix.from_rows([[r.get(j, 0) for j in range(n)] for r in rows])
        assert a.transpose() == a and dense_schur(a, keep, drop) is not None
        before = [dict(r) for r in rows]
        with pytest.raises(ValueError,
                           match="^matrix is not positive semidefinite$"):
            schur_complement(1, rows, keep, drop)
        assert rows == before


def test_schur_singular_dropped_block_is_none():
    # the dropped block [[1, 1], [1, 1]] of the Gram matrix of
    # [[1, 1, 0], [0, 0, 1]], and one with an empty dropped row
    for rows in ([{0: 1, 1: 1}, {0: 1, 1: 1}, {2: 1}],
                 [{0: 2, 2: 1}, {}, {0: 1, 2: 1}]):
        before = [dict(r) for r in rows]
        assert schur_complement(1, rows, [2], [0, 1]) is None
        assert rows == before


def check_ambient(u, v):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def contains_subspace(u, v):
    """Whether the subspace v lies in u, one basis row at a time."""
    check_ambient(u, v)
    return all(u.contains(b) for b in v.basis)


def project_relation(rel, side):
    """Image of the relation body in the source ("domain") or target
    ("range") factor."""
    ns, nt = rel.source.dim, rel.target.dim
    if side == "domain":
        return Subspace.from_span(ns, [{j: x for j, x in b.items() if j < ns}
                                       for b in rel.body.basis])
    if side == "range":
        return Subspace.from_span(nt, [
            {j - ns: x for j, x in b.items() if j >= ns}
            for b in rel.body.basis])
    raise ValueError("side must be 'domain' or 'range'")


def sum_spaces(u, v):
    """Oracle: the span of both bases."""
    check_ambient(u, v)
    return Subspace.from_span(u.ambient_dim, list(u.basis) + list(v.basis))


def intersect(u, v):
    """Oracle: intersection by the Zassenhaus double-block reduction."""
    check_ambient(u, v)
    n = u.ambient_dim
    rows = [list(b) + list(b) for b in u.matrix().entries]
    rows += [list(b) + [0] * n for b in v.matrix().entries]
    if not rows:
        return Subspace(n, ())
    red, pivots = rref(Matrix.from_rows(rows))
    ent = red.entries
    inter = [ent[i][n:] for i in range(len(pivots))
             if all(x == 0 for x in ent[i][:n])]
    return span_of(n, inter)


def quotient(ambient_dim, w):
    """Oracle: Q^n / W as (dim, projection) with ker(projection) = W; the
    projection rows are a basis of the dot-orthogonal complement of W."""
    if w.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if w.dim == 0:
        return ambient_dim, Matrix.identity(ambient_dim)
    comp = kernel(w.matrix())
    return comp.dim, comp.matrix()


def section_of(projection):
    """Oracle: a right inverse S of a surjective projection, by solving
    projection @ S = I."""
    if projection.rows == 0:
        return Matrix.zeros(projection.cols, 0)
    s = solve_matrix(projection, Matrix.identity(projection.rows))
    if s is None:
        raise ValueError("projection is not surjective")
    return s


def image(m):
    """Oracle: the column space of m, as a subspace of Q^rows."""
    return Subspace.from_span(m.rows, m.transpose().data)


def test_subspace_sum_intersect_axes():
    u = span_of(2, [[1, 0]])
    v = span_of(2, [[0, 1]])
    assert sum_spaces(u, v) == Subspace.full(2)
    assert intersect(u, v) == Subspace(2, ())


def test_quotient_drops_spanned_coordinate():
    dim, proj = quotient(3, span_of(3, [[0, 0, 1]]))
    assert dim == 2
    assert kernel(proj) == span_of(3, [[0, 0, 1]])


def test_dimension_formula_random():
    rng = random.Random(5)
    for _ in range(15):
        u = span_of(10, [[rng.randint(-3, 3) for _ in range(10)]
                         for _ in range(rng.randint(0, 6))])
        v = span_of(10, [[rng.randint(-3, 3) for _ in range(10)]
                         for _ in range(rng.randint(0, 6))])
        assert sum_spaces(u, v).dim + intersect(u, v).dim == u.dim + v.dim


def test_quotient_section_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        w = span_of(6, [[rng.randint(-3, 3) for _ in range(6)]
                        for _ in range(rng.randint(0, 4))])
        dim, proj = quotient(6, w)
        assert dim == 6 - w.dim
        assert kernel(proj) == w
        s = section_of(proj)
        assert proj @ s == Matrix.identity(dim)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                min_size=1, max_size=6))
def test_rank_equals_rank_of_transpose(rows):
    m = Matrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=2, max_size=5),
       st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_subspace_equality_is_canonical(rows_a, rows_b):
    u = span_of(4, rows_a)
    both = span_of(4, rows_a + rows_b)
    again = span_of(4, rows_b + rows_a)
    assert both == again
    if both.dim == u.dim:
        assert both == u


def test_contains_matches_stacked_span():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 7)
        gens = [[rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        u = span_of(n, gens)
        coeffs = [rng.randint(-2, 2) for _ in gens]
        inside = [sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
                  for j in range(n)]
        for v in (vec(inside), vec([rng.randint(-2, 2) for _ in range(n)])):
            stacked = span_of(n, list(u.matrix().entries) + [v])
            assert u.contains(sparse_vec(v)) == (stacked.dim == u.dim)
        assert u.contains(sparse_vec(inside))


def test_contains_subspace_matches_stacked_span():
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(1, 6)
        gens = [[rng.choice([0, 0, 1, -2, Fraction(3, 2)]) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        u = span_of(n, gens)
        # a subspace of u half the time, an unrelated one otherwise
        if rng.random() < 0.5:
            others = [[sum((rng.randint(-2, 2) * g[j] for g in gens),
                           Fraction(0)) for j in range(n)]
                      for _ in range(rng.randint(0, 3))]
        else:
            others = [[rng.randint(-2, 2) for _ in range(n)]
                      for _ in range(rng.randint(0, 3))]
        v = span_of(n, others)
        stacked = Subspace.from_span(n, list(u.basis) + list(v.basis))
        want = stacked.dim == u.dim
        assert contains_subspace(u, v) == want
        seen[want] += 1
    assert min(seen.values()) > 40, seen


def dense_span(n, vectors):
    """Oracle: the dense RREF basis `Subspace.from_span` held while its
    rows were tuples, the nonzero rows of the RREF of the spanning
    vectors, with `dense_rref` for `rref`."""
    if not vectors:
        return ()
    m = Matrix.from_rows(vectors)
    if m.cols != n:
        raise ValueError("spanning vectors do not match ambient dimension")
    red, pivots = dense_rref(m)
    return red.entries[:len(pivots)]


def dense_kernel(m):
    """Oracle: the dense kernel basis, one vector per free column of the
    RREF."""
    red, pivots = dense_rref(m)
    free = [f for f in range(m.cols) if f not in pivots]
    ent = red.entries
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -ent[i][f]
        basis.append(v)
    return dense_span(m.cols, basis)


def dense_solve(a, b):
    """Oracle: X with a @ X = b from the RREF of [a | b], or None."""
    red, pivots = dense_rref(a.hstack(b))
    if any(p >= a.cols for p in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    ent = red.entries
    for i, p in enumerate(pivots):
        x[p] = list(ent[i][a.cols:])
    return from_dense(a.cols, b.cols, x)


def dense_compose(first, second):
    """Oracle: the composite's dense basis from the joint span of the
    rows (y, x, 0) and (-y, 0, z)."""
    ns, nm, nt = first.source.dim, first.target.dim, second.target.dim
    span = [b[ns:] + b[:ns] + (0,) * nt
            for b in dense_span(ns + nm, first.body.matrix().entries)]
    span += [tuple(-y for y in b[:nm]) + (0,) * ns + b[nm:]
             for b in dense_span(nm + nt, second.body.matrix().entries)]
    joint = dense_span(nm + ns + nt, span)
    return tuple(b[nm:] for b in joint if not any(b[:nm]))


def dense_classify(v, l):
    """Oracle: (isotropic, coisotropic) from the pairings of the basis
    and the inclusion of l^omega = ker(B omega) in l."""
    basis = dense_span(v.dim, l.matrix().entries)
    b_omega = [v.omega.transpose().apply(b) for b in basis]
    isotropic = all(dot(r, b) == 0 for r in b_omega for b in basis)
    perp = dense_kernel(from_dense(len(basis), v.dim, b_omega))
    coisotropic = all(
        len(dense_span(v.dim, list(basis) + [w])) == len(basis)
        for w in perp)
    return isotropic, coisotropic


def random_span(rng, n, seen):
    """Seeded spanning vectors of Q^n: none, the whole space, or a few
    sparse rows with zero and duplicate rows mixed in; each case named in
    `seen`, as {col: value} dicts. Half of them keep their zero entries,
    which `Subspace.from_span` drops."""
    r = rng.random()
    if r < 0.1:
        seen["empty"] += 1
        vs = []
    elif r < 0.2:
        seen["full"] += 1
        vs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        vs += [[Fraction(rng.randint(-2, 2)) for _ in range(n)]]
        rng.shuffle(vs)
    else:
        vs = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
               if rng.random() < 0.5 else Fraction(0) for _ in range(n)]
              for _ in range(rng.randint(1, n + 2))]
        if rng.random() < 0.3:
            seen["zero row"] += 1
            vs.insert(rng.randint(0, len(vs)), [Fraction(0)] * n)
        if rng.random() < 0.3:
            seen["duplicate row"] += 1
            vs.append(list(rng.choice(vs)))
    if rng.random() < 0.5:
        return [{j: x for j, x in enumerate(v) if x} for v in vs]
    return [dict(enumerate(v)) for v in vs]


def as_dense(n, vs):
    return [[v.get(j, Fraction(0)) for j in range(n)] for v in vs]


def random_space(rng, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(rng.choice([0, 0, 1, -1, 2]))
            a[j][i] = -a[i][j]
    return PresymplecticSpace(n, from_dense(n, n, a))


def test_sparse_subspace_matches_dense_oracles():
    """Every sparse `Subspace` operation against the dense basis it had
    when its rows were tuples: 600 seeded cases in ambients of dimension
    0 to 6."""
    rng = random.Random(83)
    seen = {"empty": 0, "full": 0, "zero row": 0, "duplicate row": 0,
            "zero ambient": 0, "contained": 0, "not contained": 0,
            "solvable": 0, "unsolvable": 0, "composite": 0}
    for _ in range(600):
        n = rng.randint(0, 6)
        seen["zero ambient"] += n == 0
        vs, ws = random_span(rng, n, seen), random_span(rng, n, seen)
        u, w = Subspace.from_span(n, vs), Subspace.from_span(n, ws)
        assert u.matrix().entries == dense_span(n, as_dense(n, vs))
        assert u == span_of(n, as_dense(n, vs))
        assert all(min(b) == next(j for j, x in enumerate(row) if x)
                   for b, row in zip(u.basis, u.matrix().entries))
        stacked = dense_span(n, as_dense(n, vs + ws))
        assert contains_subspace(u, w) == (len(stacked) == u.dim)
        for x in as_dense(n, ws[:2]):
            want = len(dense_span(n, as_dense(n, vs) + [x])) == u.dim
            assert u.contains(sparse_vec(x)) == u.contains(
                dict(enumerate(x))) == want
            seen["contained" if want else "not contained"] += 1
        m = from_dense(len(vs), n, as_dense(n, vs))
        assert kernel(m).matrix().entries == dense_kernel(m)
        b = from_dense(len(vs), 2, [[Fraction(rng.randint(-2, 2))
                                     for _ in range(2)] for _ in vs])
        x = dense_solve(m, b)
        assert solve_matrix(m, b) == x
        seen["solvable" if x is not None else "unsolvable"] += 1

        ns, nm, nt = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        src, mid, tgt = (random_space(rng, k) for k in (ns, nm, nt))
        first = LinearRelation(src, mid, Subspace.from_span(
            ns + nm, random_span(rng, ns + nm, seen)))
        second = LinearRelation(mid, tgt, Subspace.from_span(
            nm + nt, random_span(rng, nm + nt, seen)))
        got = compose(first, second)
        assert got.body.matrix().entries == dense_compose(first, second)
        seen["composite"] += got.body.dim > 0
        body = first.body.matrix().entries
        assert first.transpose().body.matrix().entries == dense_span(
            ns + nm, [r[ns:] + r[:ns] for r in body])
        assert project_relation(first, "domain").matrix().entries == (
            dense_span(ns, [r[:ns] for r in body]))
        assert project_relation(first, "range").matrix().entries == (
            dense_span(nm, [r[ns:] for r in body]))
        c = first.classify()
        assert (c.is_isotropic, c.is_coisotropic) == dense_classify(
            first.ambient, first.body)
    assert min(seen.values()) >= 40, seen


def test_no_runtime_asserts_in_src():
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports_in_src():
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno}:{name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  for name in [(alias.asname or alias.name).split(".")[0]]
                  if name not in used]
    assert found == []


def test_dense_entries_read_only_in_numkit_and_render():
    """`Matrix.entries` is a dense view; outside numkit nothing in src/
    reads it, and the JSON renderer `cli.mat_to_json` writes from the
    nonzeros. The sparse dict row is the only vector form src/ builds: no
    module names a dense unit or zero vector or reads a dense row, column
    or diagonal off a matrix, and spans and membership refuse a row that
    is not a dict."""
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found, dense = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        dense += [f"{path.name}:{getattr(node, 'lineno', '?')}:{name}"
                  for node in ast.walk(tree)
                  for name in [getattr(node, "id", None)
                               or getattr(node, "name", None)
                               or getattr(node, "attr", None)]
                  if name in ("unit_vec", "zero_vec") or (
                      isinstance(node, ast.Attribute)
                      and name in ("row", "col", "diagonal"))]
        if path.name == "numkit.py":
            continue
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert found == [] and dense == []
    with pytest.raises(TypeError):
        Subspace.from_span(2, [(1, 0)])
    with pytest.raises(TypeError):
        Subspace.full(2).contains((1, 0))


# Options, wrappers and test builders taken out of src/bvkit, by module,
# class and name; a parameter is named after its function.
REMOVED = {
    "collar.CollarModel", "collar.NonlocalAction",
    "collar.QuadraticLocalTheory.stencil",
    "collar.QuadraticLocalTheory.variation",
    "complexes.CellComplex.euler_characteristic",
    "complexes.CohomologyReport.representative_basis",
    "complexes.disjoint_union", "complexes.hodge_star",
    "complexes.triangulated_grid_complex", "complexes.validate",
    "graded.GradedVectorSpace.indices_of_degree",
    "graded.Polynomial.degree", "graded.Polynomial.degrees",
    "graded.Polynomial.generator", "graded.Polynomial.max_word_length",
    "graded.Polynomial.monomial_degree", "graded.TruncationOverflow",
    "graded.poisson_bracket.max_total_degree",
    "numkit.Subspace._check_ambient", "numkit.Subspace.contains_subspace",
    "numkit.Subspace.zero",
    "relations.identity_relation", "relations.project_relation",
    "theories.ScalarFieldTheory.energy", "theories.with_boundary_vertices",
}

# The public names of src/bvkit that no command reaches: the rows of the
# README's table of library functions with no command, in its order.
LIBRARY = [
    "bvbfv.hamiltonian_of", "collar.prism", "collar.el_form", "complexes.cohomology",
    "symplect.coisotropic_reduce", "symplect.gotay_embed",
    "theories.ed_boundary_space", "theories.classical_boundary_ed",
    "theories.classical_boundary_bf", "theories.mechanics_relation",
    "theories.oscillator_flow", "theories.geodesic_fixture",
    "theories.reduce_relation",
]


def _src_trees():
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(src.glob("*.py"))}


def _defined(prefix, node):
    """Qualified names of the functions, classes, class fields and
    function parameters defined in the body of `node`."""
    out = set()
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(child.target,
                                                           ast.Name):
            out.add(f"{prefix}.{child.target.id}")
        elif isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            out.add(name)
            if isinstance(child, ast.ClassDef):
                out |= _defined(name, child)
            else:
                out |= {f"{name}.{a.arg}" for a in ast.walk(child.args)
                        if isinstance(a, ast.arg)}
    return out


def _names_in(node):
    return Counter(n.id if isinstance(n, ast.Name)
                   else n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_src_keeps_only_what_a_command_or_the_library_table_reaches():
    """No removed option, wrapper or test builder is defined in src/
    again, and `complexes` reads no kernel or RREF. Every public
    module-level function and class is named somewhere else in src/, or
    is a library function that the README lists with its pinning test."""
    trees = _src_trees()
    defined = set()
    for module, tree in trees.items():
        defined |= _defined(module, tree)
    assert REMOVED.isdisjoint(defined), sorted(REMOVED & defined)
    imported = {a.name for node in ast.walk(trees["complexes"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"kernel", "_rref_rows"}

    named = sum((_names_in(tree) for tree in trees.values()), Counter())
    unnamed = [f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")
               and named[node.name] == _names_in(node)[node.name]]
    assert set(unnamed) <= set(LIBRARY), sorted(set(unnamed) - set(LIBRARY))
    assert set(LIBRARY) <= defined

    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split(
        "## Library functions with no command\n")[1].split("\n## ")[0]
    rows = [[c.strip().strip("`") for c in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert [name for name, _, _ in rows] == LIBRARY
    for _, _, pin in rows:
        path, test = pin.split("::")
        assert f"def {test}(" in (root / path).read_text(), pin


def test_only_rank_reads_the_dense_rref():
    """`rref` is a dense view of the elimination kernel's sparse readout;
    in src/ only `numkit.rank` calls it."""
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            found += [f"{path.name}:{fn.name}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and "rref" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    assert found == ["numkit.py:rank"]


def test_true_divisions_in_src_are_listed():
    """Entries are ints when integral, and an int over an int under `/`
    is a float, so each true division in src/ is listed here: exact ones
    build a Fraction operand, float ones are the oscillator's."""
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            found += [f"{path.name}:{fn.name}:{ast.unparse(node)}"
                      for node in ast.walk(fn)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.Div)]
    assert found == [
        "theories.py:mechanics_relation:dt / Fraction(f.mass)",
        "theories.py:oscillator_flow:k / m",
        "theories.py:oscillator_flow:math.sin(w * dt) / (m * w)",
    ]


def test_readers_and_readouts_follow_the_number_rule():
    """frac, vec, from_rows, the RREF readout and the Schur readout make
    ints when integral and Fractions otherwise; booleans are refused."""
    read = frac_reader()
    values = [read(x) for x in ("2", "-4/2", "1/3", 3, Fraction(6, 3),
                                Fraction(-1, 2), 0.5, 2.0)]
    assert values == [2, -2, Fraction(1, 3), 3, 2, Fraction(-1, 2),
                      Fraction(1, 2), 2]
    assert follows_number_rule(values)
    assert follows_number_rule(vec(["4/2", Fraction(1, 2), 7]))
    with pytest.raises(TypeError):
        frac(True)
    m = Matrix.from_rows([[2, Fraction(4, 2), "1/2"], [0, 6, Fraction(3)]])
    assert follows_number_rule(x for r in m.data for x in r.values())
    red, _ = rref(m)
    assert follows_number_rule(x for r in red.data for x in r.values())
    assert {type(x) for r in red.data for x in r.values()} == {int, Fraction}
    s = schur_complement(2, [{0: 4, 1: 2}, {0: 2, 1: 6}], [0], [1])
    assert s.data == ({0: Fraction(5, 3)},)
    s = schur_complement(1, [{0: 5, 1: 2}, {0: 2, 1: 1}], [0], [1])
    assert s.data == ({0: 1},) and type(s[0, 0]) is int


@pytest.mark.parametrize("row", [{3: 1}, {0: 1, -1: 1}, {1: 1, 2: 1}])
def test_from_span_refuses_a_column_outside_its_space(row):
    col = next(j for j in row if not 0 <= j < 2)
    with pytest.raises(ValueError,
                       match=f"spanning vector 1 holds column {col} outside"):
        Subspace.from_span(2, [{0: 1}, row])


def test_subspace_ambient_mismatch_raises():
    u = span_of(2, [[1, 0]])
    v = span_of(3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        contains_subspace(u, v)
    with pytest.raises(ValueError):
        contains_subspace(u, Subspace(3, ()))
