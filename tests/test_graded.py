import random
from fractions import Fraction

import pytest

from bvkit.graded import (
    GradedSymplecticSpace,
    GradedVectorSpace,
    Polynomial,
    left_derivative,
    normalize_monomial,
    poisson_bracket,
    right_derivative,
)
from bvkit.numkit import Matrix, block_diag


def generator(space, i):
    """The polynomial x_i."""
    return Polynomial.build(space, [((i,), 1)])


def indices_of_degree(space, d):
    """The coordinates of degree d, in order."""
    return [i for i, (_, deg) in enumerate(space.labels) if deg == d]


def degrees(p):
    """The degrees of p's monomials."""
    return {sum(p.space.degree(i) for i in m) for m, _ in p.terms}


def derivation_apply(space, images, p):
    """Oracle: extend generator images x_i -> images[i] as a left
    derivation of the parity carried by the images, term by term through
    left derivatives and products."""
    out = Polynomial.zero(space)
    for i in range(space.dim):
        if not images[i].is_zero():
            out = out + images[i] * left_derivative(p, i)
    return out


def monomials(space, max_len):
    """Oracle: the monomial basis of word length at most max_len, as
    nondecreasing generator tuples in which no odd generator repeats."""
    out = frontier = [()]
    for _ in range(max_len):
        frontier = [m + (i,) for m in frontier
                    for i in range(m[-1] if m else 0, space.dim)
                    if not (m and m[-1] == i and space.parity(i))]
        out = out + frontier
    return out


def monomials_by_ghost_degree(space, max_len):
    """The oracle's monomials grouped by ghost degree, in its order."""
    out = {}
    for m in monomials(space, max_len):
        out.setdefault(sum(space.degree(i) for i in m), []).append(m)
    return out


def mixed_space():
    gv = GradedVectorSpace.make([("q", 0), ("p", 0), ("b", -1), ("c", 1)])
    om = block_diag(Matrix.from_rows([[0, -1], [1, 0]]),
                    Matrix.from_rows([[0, 1], [1, 0]]))
    return gv, GradedSymplecticSpace(gv, om, 0)


def random_homogeneous(rng, gv, deg, maxlen=2):
    for _ in range(2000):
        terms = []
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(gv.dim) for _ in range(rng.randint(0, maxlen)))
            terms.append((w, Fraction(rng.randint(-3, 3))))
        f = Polynomial.build(gv, terms)
        keep = [(m, c) for m, c in f.terms
                if sum(gv.degree(i) for i in m) == deg]
        if keep:
            return Polynomial(gv, tuple(keep))
    raise RuntimeError("no homogeneous sample found")


def test_odd_generators_anticommute_and_square_to_zero():
    gv = GradedVectorSpace.make([("b", -1), ("c", 1)])
    assert normalize_monomial(gv, (1, 0)) == ((0, 1), -1)
    assert normalize_monomial(gv, (0, 0)) == (None, 0)
    b, c = generator(gv, 0), generator(gv, 1)
    assert (b * c + c * b).is_zero()
    assert (b * b).is_zero()


def insertion_sort_monomial(space, word):
    """Oracle: sort by adjacent swaps, one sign per odd-odd swap, then
    kill a repeated odd generator."""
    w, sign = list(word), 1
    for i in range(1, len(w)):
        for j in range(i, 0, -1):
            if w[j - 1] <= w[j]:
                break
            if space.parity(w[j - 1]) and space.parity(w[j]):
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
    if any(a == b and space.parity(a) for a, b in zip(w, w[1:])):
        return None, 0
    return tuple(w), sign


def test_two_letter_words_sort_as_insertion_sort():
    """Every ordered pair, repeats included, over both parities; and some
    longer words, which keep the general rule."""
    gv = GradedVectorSpace.make([("x", 0), ("b", -1), ("c", 1), ("y", 2),
                                 ("e", 1), ("z", -2)])
    words = [(a, b) for a in range(gv.dim) for b in range(gv.dim)]
    assert sum(normalize_monomial(gv, w)[1] == -1 for w in words) == 3
    assert sum(normalize_monomial(gv, w)[0] is None for w in words) == 3
    rng = random.Random(5)
    words += [tuple(rng.randrange(gv.dim) for _ in range(rng.randint(0, 5)))
              for _ in range(200)]
    for w in words:
        assert normalize_monomial(gv, w) == insertion_sort_monomial(gv, w), w


def test_even_generators_commute():
    gv = GradedVectorSpace.make([("x", 0), ("y", 2)])
    x, y = generator(gv, 0), generator(gv, 1)
    assert (x * y - y * x).is_zero()


def test_left_right_derivative_agree_on_even_disagree_on_odd():
    gv = GradedVectorSpace.make([("b", -1), ("c", 1)])
    bc = Polynomial.build(gv, [((0, 1), Fraction(1))])
    assert left_derivative(bc, 0).terms == (((1,), Fraction(1)),)
    assert right_derivative(bc, 0).terms == (((1,), Fraction(-1)),)
    assert left_derivative(bc, 1).terms == (((0,), Fraction(-1)),)
    assert right_derivative(bc, 1).terms == (((0,), Fraction(1)),)


def test_canonical_bracket_values():
    gv, sp = mixed_space()
    q, p, b, c = [generator(gv, i) for i in range(4)]
    one = Polynomial.build(gv, [((), 1)])
    assert poisson_bracket(q, p, sp).terms == one.terms
    assert poisson_bracket(b, c, sp).terms == one.terms
    assert poisson_bracket(c, b, sp).terms == one.terms
    assert poisson_bracket(q, b, sp).is_zero()


def test_bracket_graded_antisymmetry():
    rng = random.Random(41)
    gv, sp = mixed_space()
    for _ in range(40):
        df, dg = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
        f = random_homogeneous(rng, gv, df)
        g = random_homogeneous(rng, gv, dg)
        s = -1 if (df % 2) and (dg % 2) else 1
        assert poisson_bracket(f, g, sp).terms == \
            poisson_bracket(g, f, sp).scale(-s).terms


def test_bracket_jacobi_and_leibniz():
    rng = random.Random(43)
    gv, sp = mixed_space()
    pb = lambda f, g: poisson_bracket(f, g, sp)
    for _ in range(30):
        df, dg, dh = (rng.choice([-1, 0, 1]) for _ in range(3))
        f = random_homogeneous(rng, gv, df)
        g = random_homogeneous(rng, gv, dg)
        h = random_homogeneous(rng, gv, dh)
        s = -1 if (df % 2) and (dg % 2) else 1
        assert pb(f, pb(g, h)).terms == \
            (pb(pb(f, g), h) + pb(g, pb(f, h)).scale(s)).terms
        assert pb(f, g * h).terms == \
            (pb(f, g) * h + (g * pb(f, h)).scale(s)).terms


def test_odd_bracket_shifted_identities():
    gv = GradedVectorSpace.make([("A", 0), ("Ap", -1), ("c", 1), ("cp", -2)])
    om = block_diag(Matrix.from_rows([[0, 1], [-1, 0]]),
                    Matrix.from_rows([[0, 1], [-1, 0]]))
    sp = GradedSymplecticSpace(gv, om, -1)
    pb = lambda f, g: poisson_bracket(f, g, sp)
    rng = random.Random(47)
    for _ in range(30):
        df, dg = rng.choice([-2, -1, 0, 1]), rng.choice([-2, -1, 0, 1])
        f = random_homogeneous(rng, gv, df)
        g = random_homogeneous(rng, gv, dg)
        s = -1 if ((df + 1) % 2) and ((dg + 1) % 2) else 1
        assert pb(f, g).terms == pb(g, f).scale(-s).terms


def test_bracket_degree_shift():
    gv = GradedVectorSpace.make([("A", 0), ("Ap", -1)])
    sp = GradedSymplecticSpace(gv, Matrix.from_rows([[0, 1], [-1, 0]]), -1)
    a, ap = generator(gv, 0), generator(gv, 1)
    out = poisson_bracket(a * a, ap * a, sp)
    # degree 0 + (-1) - (-1) = 0
    assert degrees(out) == {0}


def test_omega_validation_rejects_wrong_degrees():
    gv = GradedVectorSpace.make([("b", -1), ("x", 0)])
    with pytest.raises(ValueError):
        GradedSymplecticSpace(gv, Matrix.from_rows([[0, 1], [-1, 0]]), 0)


def test_omega_validation_rejects_degenerate_forms():
    gv = GradedVectorSpace.make([("a", 0), ("b", 0), ("c", 0), ("d", 0)])
    # graded antisymmetric, right degrees, nonzero rows, but rank 2
    om = Matrix.from_rows([[0, 1, 0, 1], [-1, 0, -1, 0],
                           [0, 1, 0, 1], [-1, 0, -1, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        GradedSymplecticSpace(gv, om, 0)
    with pytest.raises(ValueError, match="degenerate"):
        GradedSymplecticSpace(gv, Matrix.zeros(4, 4), 0)
    # one pair and two unpaired coordinates: one entry in each paired row
    # and none in the others
    pair = Matrix(4, 4, [{1: Fraction(1)}, {0: Fraction(-1)}, {}, {}])
    with pytest.raises(ValueError, match="omega is degenerate"):
        GradedSymplecticSpace(gv, pair, 0)
    odd = GradedVectorSpace.make([("b", -1), ("c", 1)])
    sp = GradedSymplecticSpace(odd, Matrix.from_rows([[0, 2], [2, 0]]), 0)
    assert sp.bracket_matrix() == Matrix.from_rows([["0", "1/2"],
                                                    ["1/2", "0"]])


def test_monomial_enumeration_counts():
    gv = GradedVectorSpace.make([("q", 0), ("p", 0)])
    assert len(monomials(gv, 2)) == 6  # 1, q, p, q2, qp, p2
    gv2 = GradedVectorSpace.make([("b", -1), ("c", 1)])
    assert len(monomials(gv2, 2)) == 4  # 1, b, c, bc
    assert monomials_by_ghost_degree(gv2, 2)[0] == [(), (0, 1)]


def test_derivation_apply_is_a_derivation():
    gv, sp = mixed_space()
    q, p = generator(gv, 0), generator(gv, 1)
    images = [p, Polynomial.zero(gv), Polynomial.zero(gv), Polynomial.zero(gv)]
    out = derivation_apply(gv, images, q * q)
    assert out.terms == (q * p).scale(2).terms
