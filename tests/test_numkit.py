import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvkit.complexes import path_complex
from bvkit.numkit import (
    Matrix,
    Subspace,
    intersect,
    invert,
    kernel,
    quotient,
    rank,
    rref,
    schur_complement,
    section_of,
    solve,
    solve_matrix,
    sum_spaces,
    vec,
)
from bvkit.theories import ScalarFieldTheory, dtn


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


def test_kernel_zero_matrix():
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_identity():
    assert kernel(Matrix.identity(2)) == Subspace.zero(2)


def test_kernel_hand_example():
    k = kernel(Matrix.from_rows([[1, 1, 0], [0, 0, 1]]))
    assert k == Subspace.from_span(3, [[1, -1, 0]])


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, 4, 7)
        k = kernel(m)
        assert k.dim == 7 - rank(m)
        for v in k.basis:
            assert all(x == 0 for x in m.apply(v))


def test_solve_identity():
    b = vec([3, Fraction(1, 2), -5])
    assert solve(Matrix.identity(3), b) == b


def test_solve_underdetermined_residual_zero():
    a = Matrix.from_rows([[1, 1]])
    x = solve(a, vec([2]))
    assert x is not None
    assert a.apply(x) == vec([2])


def test_solve_recovers_constructed_solution():
    rng = random.Random(3)
    while True:
        a = random_matrix(rng, 8, 8)
        if rank(a) == 8:
            break
    x0 = vec([rng.randint(-5, 5) for _ in range(8)])
    x = solve(a, a.apply(x0))
    assert x == x0


def test_solve_inconsistent_returns_none():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    assert solve(a, vec([1, 2])) is None


def test_invert_roundtrip():
    a = Matrix.from_rows([[2, 1], [1, 1]])
    ainv = invert(a)
    assert a @ ainv == Matrix.identity(2)


def dense_schur(a, keep, drop):
    """The textbook formula through one dense joint elimination."""
    x = solve_matrix(a.submatrix(drop, drop), a.submatrix(drop, keep),
                     require_unique=True)
    if x is None:
        return None
    return a.submatrix(keep, keep) - a.submatrix(keep, drop) @ x


def test_schur_complement_matches_dense_formula():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 8)
        density = rng.choice([0.2, 0.4, 0.7])
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.4:  # force off-diagonal pivots
            for i in range(n):
                rows[i][i] = 0
        a = Matrix(n, n, tuple(vec(r) for r in rows))
        role = [rng.choice(["keep", "drop", "drop", "neither"])
                for _ in range(n)]
        keep = [i for i in range(n) if role[i] == "keep"]
        drop = [i for i in range(n) if role[i] == "drop"]
        rng.shuffle(keep)
        rng.shuffle(drop)
        got = schur_complement(a, keep, drop)
        assert got == dense_schur(a, keep, drop)
        outcomes[got is None] += 1
    assert min(outcomes.values()) > 30


def test_schur_complement_with_zero_diagonal_interior():
    # interior block [[0, 1], [1, 0]]: invertible, but no diagonal pivot
    t = ScalarFieldTheory(path_complex(4, weights=[1, -1, 1]))
    lap = t.laplacian()
    assert lap.submatrix([1, 2], [1, 2]) == Matrix.from_rows([[0, 1], [1, 0]])
    assert dtn(t).matrix == Matrix.from_rows([[1, -1], [-1, 1]])


def test_subspace_sum_intersect_axes():
    u = Subspace.from_span(2, [[1, 0]])
    v = Subspace.from_span(2, [[0, 1]])
    assert sum_spaces(u, v) == Subspace.full(2)
    assert intersect(u, v) == Subspace.zero(2)


def test_quotient_drops_spanned_coordinate():
    dim, proj = quotient(3, Subspace.from_span(3, [[0, 0, 1]]))
    assert dim == 2
    assert kernel(proj) == Subspace.from_span(3, [[0, 0, 1]])


def test_dimension_formula_random():
    rng = random.Random(5)
    for _ in range(15):
        u = Subspace.from_span(10, [[rng.randint(-3, 3) for _ in range(10)]
                                    for _ in range(rng.randint(0, 6))])
        v = Subspace.from_span(10, [[rng.randint(-3, 3) for _ in range(10)]
                                    for _ in range(rng.randint(0, 6))])
        assert sum_spaces(u, v).dim + intersect(u, v).dim == u.dim + v.dim


def test_quotient_section_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        w = Subspace.from_span(6, [[rng.randint(-3, 3) for _ in range(6)]
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
    u = Subspace.from_span(4, rows_a)
    both = Subspace.from_span(4, rows_a + rows_b)
    again = Subspace.from_span(4, rows_b + rows_a)
    assert both == again
    if both.dim == u.dim:
        assert both == u


def test_subspace_ambient_mismatch_raises():
    u = Subspace.from_span(2, [[1, 0]])
    v = Subspace.from_span(3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        sum_spaces(u, v)
