import dataclasses
import random
import time
from fractions import Fraction
from functools import cache

import pytest

from bvkit import bvbfv, cli, numkit
from bvkit.bvbfv import (
    ConstraintSet,
    DependentConstraints,
    LinearCohomologicalField,
    NonAbelianBrackets,
    NotSymplecticField,
    _bracket_matrix_of,
    bfv_cohomology,
    bfv_resolve,
    boundary_bfv_reduction,
    build_ed_package,
    check_bvbfv,
    corner_extend,
    field_from_hamiltonian,
    hamiltonian_of,
    moduli_of_vacua,
)
from bvkit.collar import prism
from bvkit.complexes import (
    annulus_complex,
    circle_complex,
    grid_complex,
    path_complex,
    torus_complex,
)
from bvkit.graded import (
    GradedSymplecticSpace,
    GradedVectorSpace,
    Polynomial,
    normalize_monomial,
    poisson_bracket,
)
from bvkit.numkit import (
    Matrix,
    Subspace,
    block_diag,
    invert,
    kernel,
    rank,
    sparse_rank,
    vec,
)
from bvkit.symplect import NotBasic, NotProjectable, OneForm
from bvkit.theories import classical_boundary_ed
from test_complexes import disjoint_union
from test_graded import (
    degrees,
    derivation_apply,
    generator,
    indices_of_degree,
    monomials,
    monomials_by_ghost_degree,
)
from test_numkit import image, intersect, sum_spaces


def darboux_space(n_pairs):
    # alpha = p dq convention: omega[q_i, p_i] = -1
    labels = [(f"q{i}", 0) for i in range(n_pairs)]
    labels += [(f"p{i}", 0) for i in range(n_pairs)]
    rows = [[Fraction(0)] * 2 * n_pairs for _ in range(2 * n_pairs)]
    for i in range(n_pairs):
        rows[i][n_pairs + i] = Fraction(-1)
        rows[n_pairs + i][i] = Fraction(1)
    return GradedSymplecticSpace(GradedVectorSpace.make(labels),
                                 Matrix.from_rows(rows), 0)


def momentum_constraints(n_pairs, rows):
    """Constraints built from momentum covectors only, hence abelian."""
    out = []
    for r in rows:
        out.append(vec([0] * n_pairs + list(r)))
    return ConstraintSet(darboux_space(n_pairs), tuple(out))


def monomial_count(n_vars, max_len):
    # commuting monomials of word length at most max_len
    from math import comb

    if n_vars == 0:
        return 1
    return sum(comb(n_vars + k - 1, k) for k in range(max_len + 1))


def test_resolution_generator_and_nilpotency():
    cs = momentum_constraints(2, [[1, 0]])
    ext, s, q = bfv_resolve(cs)
    assert ext.base.dim == 6
    assert poisson_bracket(s, s, ext).is_zero()
    assert (q.matrix @ q.matrix).is_zero()
    # Q kills the constraint direction and moves the ghost partner
    assert hamiltonian_of(q, ext) == s


def test_dependent_constraints_rejected():
    cs = momentum_constraints(2, [[1, 0], [2, 0]])
    with pytest.raises(DependentConstraints):
        bfv_resolve(cs)


def test_nonabelian_brackets_rejected():
    amb = darboux_space(1)
    cs = ConstraintSet(amb, (vec([1, 0]), vec([0, 1])))
    with pytest.raises(NonAbelianBrackets):
        bfv_resolve(cs)


def test_cohomology_of_momentum_constraint():
    cs = momentum_constraints(2, [[1, 0]])
    _, _, q = bfv_resolve(cs)
    # observables at truncation 2: polynomials in the surviving pair
    dims = bfv_cohomology(q, 2, (-1, 0, 1))
    assert dims[0] == monomial_count(2, 2) == 6
    assert dims[1] == 0
    assert dims[-1] == 0


def test_cohomology_random_abelian_sets():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if Matrix.from_rows(rows).transpose().cols == k and \
                    len({tuple(r) for r in rows}) == k:
                if rank(Matrix.from_rows(rows)) == k:
                    break
        cs = momentum_constraints(n, rows)
        _, _, q = bfv_resolve(cs)
        d_max = rng.randint(1, 2)
        want = monomial_count(2 * (n - k), d_max)
        dims = bfv_cohomology(q, d_max, (0, 1))
        assert dims[0] == want
        assert dims[1] == 0


def abelian_constraints(rng, n_pairs, k, shear=True):
    """k independent abelian constraints (S r, r) for random momentum rows
    r and, with shear, a random symmetric S (else S = 0), so that Q moves
    positions as well as ghosts."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n_pairs)] for _ in range(k)]
        if rank(Matrix.from_rows(rows)) == k:
            break
    sym = [[0] * n_pairs for _ in range(n_pairs)]
    for a in range(n_pairs):
        for b in range(a + 1):
            sym[a][b] = sym[b][a] = rng.randint(-2, 2) if shear else 0
    out = [vec([sum(sym[a][c] * r[c] for c in range(n_pairs))
                for a in range(n_pairs)] + r) for r in rows]
    return ConstraintSet(darboux_space(n_pairs), tuple(out))


def seeded_fields(seed, count):
    """(q, truncation) over seeded constraint sets: k = 0 included,
    truncations 0-3 (3 only for up to 8 generators)."""
    rng = random.Random(seed)
    for i in range(count):
        t = i % 4
        n = rng.randint(1, 2 if t == 3 else 3)
        k = 0 if i % 5 == 0 else rng.randint(1, n)
        yield bfv_resolve(abelian_constraints(rng, n, k))[2], t


def oracle_images(q):
    gv = q.space
    return [Polynomial.build(gv, [((b,), q.matrix[a, b])
                                  for b in range(gv.dim)])
            for a in range(gv.dim)]


def oracle_cohomology(q, t, degree):
    """The dense formula dim ker Q_d - dim im Q_(d-1) over the monomials
    of word length at most t, with Q applied through the derivation
    oracle."""
    gv = q.space
    images = oracle_images(q)
    by_degree = monomials_by_ghost_degree(gv, t)

    def q_matrix(src, tgt):
        idx = {m: i for i, m in enumerate(tgt)}
        cols = []
        for m in src:
            p = derivation_apply(gv, images, Polynomial.build(gv, [(m, 1)]))
            col = [Fraction(0)] * len(tgt)
            for mono, cf in p.terms:
                col[idx[mono]] = cf
            cols.append(col)
        if not cols:
            return Matrix.zeros(len(tgt), 0)
        return Matrix.from_rows(cols).transpose()

    below, here, above = (by_degree.get(degree + j, []) for j in (-1, 0, 1))
    cocycles = kernel(q_matrix(here, above)).dim if here else 0
    return cocycles - image(q_matrix(below, here)).dim


def field_words(q, m):
    """Q(m) as unnormalized words: Q is linear and odd, so the generator
    at each position is replaced by each Q[a, b] x_b, with sign
    (-1)^(odd generators before it)."""
    odd = 0
    for pos, a in enumerate(m):
        for b, x in q.matrix.data[a].items():
            yield m[:pos] + (b,) + m[pos + 1:], -x if odd else x
        odd ^= q.space.parity(a)


def field_apply(q, p):
    """Oracle: Q applied to a polynomial, one monomial at a time."""
    return Polynomial.build(q.space, (
        (word, c * x) for m, c in p.terms for word, x in field_words(q, m)))


def word_polynomial(gv, w):
    """The polynomial sum_ab W[a, b] x_a x_b of a word matrix W."""
    return Polynomial.build(gv, [((a, b), x) for a, row in enumerate(w.data)
                                 for b, x in row.items()])


def on_monomial(q, m):
    """The nonzero terms of Q(m): the field's words, each normalized."""
    out = {}
    for word, x in field_words(q, m):
        mono, sign = normalize_monomial(q.space, word)
        if mono is not None:
            out[mono] = out.get(mono, 0) + sign * x
    return {w: x for w, x in out.items() if x}


def rank_cohomology(q, t, degrees):
    """Oracle: dim H^d = n_d - rank Q_d - rank Q_(d-1) over the monomials
    of word length at most t, each rank exact over the sparse rows Q(m)
    of the degree-d monomials m."""
    by_degree = monomials_by_ghost_degree(q.space, t)

    @cache
    def rank_of(d):
        index = {m: i for i, m in enumerate(by_degree.get(d + 1, []))}
        return sparse_rank(({index[w]: x for w, x in on_monomial(q, m).items()}
                            for m in by_degree.get(d, [])), len(index))

    return {d: len(by_degree.get(d, [])) - rank_of(d) - rank_of(d - 1)
            for d in degrees}


def test_q_rule_matches_derivation_oracle():
    """The oracle's rule on monomials, and the field's rule on word
    matrices, Q(W) = Q^T W + P W Q, on seeded quadratics."""
    rng = random.Random(43)
    seen = {"k0": 0, "signed": 0, "t0": 0, "t3": 0}
    for q, t in seeded_fields(41, 40):
        gv = q.space
        images = oracle_images(q)
        for m in monomials(gv, t):
            want = derivation_apply(gv, images, Polynomial.build(gv, [(m, 1)]))
            assert on_monomial(q, m) == dict(want.terms)
        for _ in range(5):
            rows = [{} for _ in range(gv.dim)]
            for _ in range(rng.randint(0, 6)):
                a, b = rng.randrange(gv.dim), rng.randrange(gv.dim)
                rows[a][b] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            w = Matrix(gv.dim, gv.dim, rows)
            assert word_polynomial(gv, q.on_words(w)) == \
                derivation_apply(gv, images, word_polynomial(gv, w))
        k = len(indices_of_degree(gv, 1))
        seen["k0"] += k == 0
        seen["signed"] += k >= 2 and t >= 2
        seen["t0"] += t == 0
        seen["t3"] += t == 3
    assert min(seen.values()) >= 3, seen


def test_bfv_cohomology_matches_kernel_image_formula():
    seen = {"k0": 0, "t0": 0, "t3": 0}
    for q, t in seeded_fields(47, 32):
        degrees = range(-t - 1, t + 2)
        assert bfv_cohomology(q, t, degrees) == {
            d: oracle_cohomology(q, t, d) for d in degrees}
        seen["k0"] += not indices_of_degree(q.space, 1)
        seen["t0"] += t == 0
        seen["t3"] += t == 3
    assert min(seen.values()) >= 3, seen


def random_linear_field(rng):
    """A field on generators of degrees -2..2: a standard differential,
    each chosen source x_a -> one target x_b of the next degree, conjugated
    by a random invertible change of basis inside each degree."""
    sizes = {g: rng.randint(0, 2) for g in range(-2, 3)}
    gv = GradedVectorSpace.make((f"x{g}_{i}", g)
                                for g, m in sizes.items() for i in range(m))
    n = gv.dim
    rows = [{} for _ in range(n)]
    free = set(range(n))     # neither a source nor a target yet
    for g in range(-2, 2):
        src = [a for a in indices_of_degree(gv, g) if a in free]
        tgt = indices_of_degree(gv, g + 1)
        for a, b in zip(src, tgt[:rng.randint(0, min(len(src), len(tgt)))]):
            rows[a][b] = Fraction(1)
            free -= {a, b}
    # unit lower times unit upper triangular blocks: determinant one
    lower = [{} for _ in range(n)]
    upper = [{} for _ in range(n)]
    for g in sizes:
        block = indices_of_degree(gv, g)
        for i, a in enumerate(block):
            lower[a][a] = upper[a][a] = Fraction(1)
            for b in block[:i]:
                lower[a][b] = Fraction(rng.randint(-2, 2))
                upper[b][a] = Fraction(rng.randint(-2, 2))
    p = Matrix(n, n, lower) @ Matrix(n, n, upper)
    return LinearCohomologicalField(gv, invert(p) @ Matrix(n, n, rows) @ p)


def test_bfv_cohomology_counts_random_linear_fields():
    # the seeded resolutions have cohomology in degree 0 only; these
    # fields reach the Kunneth count's odd and negative factors too
    rng = random.Random(61)
    outside = 0
    for i in range(60):
        q, t = random_linear_field(rng), i % 4
        dims = bfv_cohomology(q, t, range(-6, 7))
        assert dims == rank_cohomology(q, t, range(-6, 7))
        outside += any(v for d, v in dims.items() if d)
    assert outside >= 20, outside


@pytest.mark.parametrize("n, k, t, want, shear, oracle", [
    pytest.param(5, 3, 3, 35, False, True, id="5-3-3-35"),
    pytest.param(5, 5, 3, 1, False, True, id="5-5-3-1"),
    pytest.param(4, 4, 4, 1, False, True, id="4-4-4-1"),
    pytest.param(6, 6, 3, 1, False, True, id="6-6-3-1"),
    # constraints that mix positions and momenta fill in the rank
    # oracle's elimination; beyond (6, 6, 3) it takes minutes, so the
    # count is checked against the closed form alone
    pytest.param(5, 5, 3, 1, True, True, id="5-5-3-1-shear"),
    pytest.param(6, 6, 3, 1, True, True, id="6-6-3-1-shear"),
    pytest.param(6, 6, 4, 1, True, False, id="6-6-4-1-shear"),
    pytest.param(10, 6, 6, 3003, True, False, id="10-6-6-3003-shear")])
def test_bfv_cohomology_ladder(n, k, t, want, shear, oracle):
    start = time.monotonic()
    rng = random.Random(53)
    q = bfv_resolve(abelian_constraints(rng, n, k, shear=shear))[2]
    dims = bfv_cohomology(q, t, (-1, 0, 1))
    # degree 0: the invariant monomials in the 2(n - k) free coordinates
    assert dims == {-1: 0, 0: monomial_count(2 * (n - k), t), 1: 0}
    assert dims[0] == want
    if oracle:
        assert rank_cohomology(q, t, (-1, 0, 1)) == dims
    assert time.monotonic() - start < 10


def test_hamiltonian_round_trip():
    cs = momentum_constraints(3, [[1, 0, 0], [0, 1, 1]])
    ext, s, q = bfv_resolve(cs)
    q2 = field_from_hamiltonian(hamiltonian_of(q, ext), ext)
    assert q2.matrix == q.matrix


def test_non_hamiltonian_field_rejected():
    labels = [("q", 0), ("p", 0), ("b", -1), ("c", 1)]
    gv = GradedVectorSpace.make(labels)
    om = block_diag(Matrix.from_rows([[0, -1], [1, 0]]),
                    Matrix.from_rows([[0, 1], [1, 0]]))
    sp = GradedSymplecticSpace(gv, om, 0)
    # Q(q) = c and Q(b) = 2p cannot come from one quadratic generator
    rows = [[0, 0, 0, 1], [0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]]
    q = LinearCohomologicalField(gv, Matrix.from_rows(rows))
    with pytest.raises(NotSymplecticField):
        hamiltonian_of(q, sp)


def dense_field_refusal(gv, m):
    """Reference: the dense rules for a linear cohomological field, the
    degree of every nonzero entry first, then Q @ Q == 0."""
    n = gv.dim
    if any(m[a, b] and gv.degree(b) != gv.degree(a) + 1
           for a in range(n) for b in range(n)):
        return "field must raise degree by one"
    if not (m @ m).is_zero():
        return "field must square to zero"
    return None


def test_field_refusals_match_dense_rule():
    rng = random.Random(59)
    seen = {}
    for trial in range(200):
        degs = [rng.randint(0, 2) for _ in range(rng.randint(1, 8))]
        gv = GradedVectorSpace.make([(f"x{i}", d) for i, d in enumerate(degs)])
        n = len(degs)
        # on even trials Q maps only into coordinates it kills: Q^2 = 0
        dead = set() if trial % 2 else {b for b in range(n)
                                         if rng.random() < 0.5}
        rows = [[0] * n for _ in range(n)]
        for a in set(range(n)) - dead:
            for b in range(n):
                if (degs[b] == degs[a] + 1 and (trial % 2 or b in dead)
                        and rng.random() < 0.7):
                    rows[a][b] = rng.choice([-2, -1, 1, 2])
        if trial % 5 == 0:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(1, 2)
        m = Matrix.from_rows(rows)
        want = dense_field_refusal(gv, m)
        seen[want] = seen.get(want, 0) + 1
        try:
            LinearCohomologicalField(gv, m)
        except ValueError as e:
            assert str(e) == want
        else:
            assert want is None
    assert min(seen.values()) >= 20 and len(seen) == 3


def oracle_field_matrix(s, space):
    """Oracle: row a holds {s, x_a}, one polynomial Poisson bracket per
    generator."""
    gv = space.base
    rows = []
    for a in range(gv.dim):
        img = poisson_bracket(s, generator(gv, a), space)
        row = [Fraction(0)] * gv.dim
        for mono, coeff in img.terms:
            if len(mono) != 1:
                raise ValueError("generator is not quadratic")
            row[mono[0]] = coeff
        rows.append(row)
    return Matrix.from_rows(rows) if rows else Matrix.zeros(0, 0)


def oracle_hamiltonian_of(q, space):
    """Oracle: the graded-symmetric part of (1/2) Q^T omega, checked by
    {S, x_a} = Q(x_a) through polynomial brackets."""
    gv = space.base
    n = gv.dim
    m = (q.matrix.transpose() @ space.omega).scale(Fraction(1, 2))
    terms = []
    for a in range(n):
        for b in range(n):
            koszul = -1 if (gv.parity(a) and gv.parity(b)) else 1
            sym = Fraction(m[a, b] + koszul * m[b, a], 2)
            if sym != 0:
                terms.append(((a, b), sym))
    s = Polynomial.build(gv, terms)
    for a in range(n):
        br = poisson_bracket(s, generator(gv, a), space)
        want = Polynomial.build(gv, [((b,), q.matrix[a, b]) for b in range(n)])
        if not (br - want).is_zero():
            raise NotSymplecticField("field has no quadratic generator")
    return s


def random_graded_space(rng, form_degree):
    """A graded symplectic space of the given form degree made of blocks
    pairing k coordinates of degree d with k of degree form_degree - d
    through a random invertible k x k matrix (plus, in degree 0, an even
    Darboux pair), in shuffled coordinate order. Also returns one side of
    each block, chosen at random: a set on which all brackets vanish."""
    blocks = []
    for _ in range(rng.randint(1, 3)):
        d = rng.choice([x for x in range(-3, 3) if 2 * x < form_degree])
        k = rng.randint(1, 2)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if rank(Matrix.from_rows(b)) == k:
                break
        blocks.append((d, form_degree - d, b))
    if form_degree == 0 and rng.random() < 0.5:
        blocks.append((0, 0, [[rng.choice([-2, -1, 1, 3])]]))
    labels, pairs, isotropic = [], [], []
    for d, e, b in blocks:
        k = len(b)
        xs = list(range(len(labels), len(labels) + k))
        ys = list(range(len(labels) + k, len(labels) + 2 * k))
        labels += [(f"x{i}", d) for i in xs] + [(f"y{i}", e) for i in ys]
        pairs += [(xs[i], ys[j], b[i][j]) for i in range(k) for j in range(k)]
        isotropic += rng.choice([xs, ys])
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    gv = GradedVectorSpace.make([labels[perm.index(i)] for i in range(n)])
    omega = [[Fraction(0)] * n for _ in range(n)]
    for x, y, v in pairs:
        a, b = perm[x], perm[y]
        odd = gv.parity(a) and gv.parity(b)
        omega[a][b] = Fraction(v)
        omega[b][a] = Fraction(v if odd else -v)
    return (GradedSymplecticSpace(gv, Matrix.from_rows(omega), form_degree),
            [perm[i] for i in isotropic])


def random_quadratic(rng, gv, coords, degree=None):
    """Random quadratic words over `coords`, in random factor order, of
    total degree `degree` when given."""
    words = [(a, b) for a in coords for b in coords
             if degree is None or gv.degree(a) + gv.degree(b) == degree]
    return Polynomial.build(gv, [
        (rng.choice(words), Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(1, 5))] if words else [])


def test_field_rule_matches_bracket_oracle():
    rng = random.Random(61)
    seen = {"odd_odd": 0, "form0": 0, "form-1": 0, "refused": 0}
    for i in range(80):
        f = -(i % 2)
        sp, _ = random_graded_space(rng, f)
        gv = sp.base
        s = random_quadratic(rng, gv, range(gv.dim))
        assert _bracket_matrix_of(s, sp) == oracle_field_matrix(s, sp)
        seen[f"form{f}"] += 1
        seen["odd_odd"] += any(gv.parity(a) and gv.parity(b)
                               for (a, b), _ in s.terms)
        extra = tuple(rng.randrange(gv.dim)
                      for _ in range(rng.choice([1, 3])))
        bad = s + Polynomial.build(gv, [(extra, 1)])
        if any(len(m) in (1, 3) for m, _ in bad.terms):
            for rule in (_bracket_matrix_of, oracle_field_matrix):
                with pytest.raises(ValueError, match="not quadratic"):
                    rule(bad, sp)
            seen["refused"] += 1
    assert min(seen.values()) >= 20, seen


def test_hamiltonian_of_matches_bracket_oracle():
    rng = random.Random(67)
    seen = {"form0": 0, "form-1": 0, "mutated": 0, "rejected": 0}
    for i in range(60):
        f = -(i % 2)
        sp, iso = random_graded_space(rng, f)
        gv = sp.base
        s = random_quadratic(rng, gv, iso, degree=f + 1)
        q = field_from_hamiltonian(s, sp)
        assert q.matrix == oracle_field_matrix(s, sp)
        assert hamiltonian_of(q, sp) == oracle_hamiltonian_of(q, sp) == s
        seen[f"form{f}"] += 1
        # mutate one entry where the field may have one; a field that is
        # no longer Hamiltonian must be refused by both
        slots = [(a, b) for a in range(gv.dim) for b in range(gv.dim)
                 if gv.degree(b) == gv.degree(a) + 1]
        if not slots:
            continue
        a, b = rng.choice(slots)
        rows = [list(r) for r in q.matrix.entries]
        rows[a][b] = rows[a][b] * rng.choice([-1, 2, Fraction(1, 2)]) or 1
        try:
            mut = LinearCohomologicalField(gv, Matrix.from_rows(rows))
        except ValueError:
            continue
        seen["mutated"] += 1
        try:
            want = oracle_hamiltonian_of(mut, sp)
        except NotSymplecticField:
            seen["rejected"] += 1
            with pytest.raises(NotSymplecticField):
                hamiltonian_of(mut, sp)
        else:
            assert hamiltonian_of(mut, sp) == want
    assert min(seen.values()) >= 15, seen


def test_bfv_resolve_refusals_match_bracket_loop():
    rng = random.Random(71)
    seen = {"dependent": 0, "nonabelian": 0, "resolved": 0}
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = [vec([rng.randint(-1, 1) for _ in range(2 * n)])
                for _ in range(rng.randint(1, n))]
        if rng.random() < 0.25:
            rows.append(vec([2 * x - y for x, y in zip(rows[0], rows[-1])]))
        k = len(rows)
        cs = ConstraintSet(darboux_space(n), tuple(rows))
        lam = cs.ambient.bracket_matrix()
        if rank(Matrix.from_rows(rows)) < k:
            want = DependentConstraints
        elif any(sum(r[a] * lam[a, b] * t[b] for a in range(2 * n)
                     for b in range(2 * n)) for r in rows for t in rows):
            want = NonAbelianBrackets
        else:
            want = None
        if want is None:
            ext, s, q = bfv_resolve(cs)
            assert poisson_bracket(s, s, ext).is_zero()
            assert q.matrix == oracle_field_matrix(s, ext)
            seen["resolved"] += 1
        else:
            with pytest.raises(want):
                bfv_resolve(cs)
            seen["dependent" if want is DependentConstraints
                 else "nonabelian"] += 1
    assert min(seen.values()) >= 5, seen


def check_all(p):
    rep = check_bvbfv(p)
    assert rep.passed, [k for k, r in rep.residuals.items()
                        if not r.is_zero()]


def test_square_package_identities():
    check_all(build_ed_package(grid_complex(1, 1)))


def test_disk_package_identities():
    check_all(build_ed_package(grid_complex(2, 2)))


def test_disk_bf_package_identities():
    check_all(build_ed_package(grid_complex(2, 2), bf=True))


def test_annulus_package_identities():
    check_all(build_ed_package(annulus_complex(3)))


@pytest.mark.parametrize("cx", [grid_complex(2, 2), annulus_complex(3)],
                         ids=["grid22", "annulus3"])
def test_boundary_bracket_is_the_inverse_of_omega(cx):
    """Building, checking and taking the moduli of a package read no
    inverse of the boundary form; the one built on demand inverts it."""
    p = build_ed_package(cx)
    check_all(p)
    moduli_of_vacua(p)
    assert "_bracket" not in vars(p.boundary)
    n = p.boundary.base.dim
    assert p.boundary.omega @ p.boundary.bracket_matrix() == \
        Matrix.identity(n)


def test_bracket_is_the_inverse_of_omega_on_random_spaces():
    rng = random.Random(73)
    for i in range(40):
        sp, _ = random_graded_space(rng, -(i % 2))
        assert sp.omega @ sp.bracket_matrix() == Matrix.identity(sp.base.dim)


def test_boundary_generator_matches_pairing():
    # S-boundary couples ghosts to the divergence of the dual field
    p = build_ed_package(grid_complex(2, 2))
    s_boundary = hamiltonian_of(p.q_boundary, p.boundary)
    assert not s_boundary.is_zero()
    assert degrees(s_boundary) == {1}
    assert max(len(m) for m, _ in s_boundary.terms) == 2


@pytest.mark.parametrize("cx, bf", [
    (grid_complex(2, 2), False), (torus_complex(2, 2), True),
    (annulus_complex(3), False)], ids=["grid22", "torus22-bf", "annulus3"])
def test_only_the_check_builds_polynomials(monkeypatch, cx, bf):
    """The package holds linear data only: building it and taking its
    moduli builds no polynomial and checks no generator. The check runs
    the boundary field's generator check once and builds one polynomial,
    the master residual."""
    calls = {"generator_matrix": 0, "build": 0}
    generator_matrix, build = bvbfv._generator_matrix, Polynomial.build

    def counted_generator_matrix(*args):
        calls["generator_matrix"] += 1
        return generator_matrix(*args)

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)
    monkeypatch.setattr(bvbfv, "_generator_matrix", counted_generator_matrix)
    monkeypatch.setattr(Polynomial, "build", staticmethod(counted_build))
    p = build_ed_package(cx, bf=bf)
    moduli_of_vacua(p)
    assert calls == {"generator_matrix": 0, "build": 0}
    check_all(p)
    assert calls == {"generator_matrix": 1, "build": 1}


def action_polynomial(g, gv):
    """S = sum over a >= b of G[a, b] x_a x_b, halved on the diagonal."""
    return Polynomial.build(gv, (((a, b), x if b < a else Fraction(x, 2))
                                 for a, row in enumerate(g.data)
                                 for b, x in row.items() if b <= a))


def pullback(p, pi, bulk):
    """Substitute each boundary generator by its linear expression in
    bulk coordinates."""
    images = [Polynomial.build(bulk, [((j,), x) for j, x in row.items()])
              for row in pi.data]
    out_terms = []
    for mono, coeff in p.terms:
        prod = Polynomial.build(bulk, [((), coeff)])
        for i in mono:
            prod = prod * images[i]
        out_terms.extend(prod.terms)
    return Polynomial.build(bulk, out_terms)


def contract(alpha, q, gv):
    """iota of a linear field into a linear one-form: coefficient times
    inserted component, in that order."""
    return Polynomial.build(gv, (
        ((i, j), x * y) for row, q_row in zip(alpha.coeff.data, q.data)
        for i, x in row.items() for j, y in q_row.items()))


def oracle_master(p):
    """Oracle: identity (iv) through polynomials, Q(S) minus the pullback
    of 2 S^bd - iota_(Q^bd) alpha^bd, with Q applied to S one monomial at
    a time."""
    qs = field_apply(p.q_bulk, action_polynomial(p.action_hessian,
                                                 p.bulk.base))
    rhs = hamiltonian_of(p.q_boundary, p.boundary).scale(2) \
        - contract(p.alpha_boundary, p.q_boundary.matrix, p.boundary.base)
    return qs - pullback(rhs, p.reduction.projection, p.bulk.base)


def weighted_grid(rng, n):
    return grid_complex(n, n, weights={
        ("f", x, y): Fraction(rng.randint(1, 9), rng.choice((2, 3)))
        for y in range(n) for x in range(n)})


@pytest.mark.parametrize("make, bf", [
    *[(lambda rng, n=n: grid_complex(n, n), bf)
      for n in range(2, 7) for bf in (False, True)],
    *[(lambda rng, n=n: annulus_complex(n), bf)
      for n in (3, 5, 7) for bf in (False, True)],
    *[(lambda rng, n=n: torus_complex(n, n), True) for n in (2, 3)],
    *[(lambda rng, n=n: weighted_grid(rng, n), bf)
      for n in (2, 3, 4) for bf in (False, True)]],
    ids=[*[f"grid{n}{n}-{m}" for n in range(2, 7) for m in ("ed", "bf")],
         *[f"annulus{n}-{m}" for n in (3, 5, 7) for m in ("ed", "bf")],
         "torus22-bf", "torus33-bf",
         *[f"weighted{n}{n}-{m}" for n in (2, 3, 4) for m in ("ed", "bf")]])
def test_master_word_matrix_matches_polynomial_oracle(make, bf):
    """The check's word-matrix residual of (iv) is the polynomial oracle's,
    term for term and in the bytes of its report: on the package, with
    twice the boundary field, and with one off-diagonal Hessian entry
    changed on both sides of the diagonal, at a pair of coordinates not
    both killed by Q."""
    rng = random.Random(83)
    p = build_ed_package(make(rng), bf=bf)
    g, q = p.action_hessian, p.q_bulk.matrix
    a, b = rng.choice([(a, b) for a, row in enumerate(g.data) for b in row
                       if b < a and (q.data[a] or q.data[b])])
    rows = [dict(r) for r in g.data]
    rows[a][b] = rows[b][a] = rows[a][b] + Fraction(rng.randint(1, 3), 2)
    mutants = {
        "package": p,
        "doubled": dataclasses.replace(p, q_boundary=LinearCohomologicalField(
            p.boundary.base, p.q_boundary.matrix.scale(2))),
        "hessian": dataclasses.replace(
            p, action_hessian=Matrix(g.rows, g.cols, rows)),
    }
    nonzero = set()
    for name, m in mutants.items():
        got, want = check_bvbfv(m).residuals["master"], oracle_master(m)
        assert got == want, name
        assert cli.render({"r": cli.residual("master", got)}) == \
            cli.render({"r": cli.residual("master", want)}), name
        if not got.is_zero():
            nonzero.add(name)
    # a closed complex has no boundary field to double
    closed = p.reduction.projection.rows == 0
    assert nonzero == ({"hessian"} if closed else {"doubled", "hessian"})


def test_mutation_sensitivity():
    rng = random.Random(5)
    p = build_ed_package(grid_complex(1, 1))
    n = p.bulk.base.dim
    caught = 0
    for _ in range(10):
        which = rng.choice(["hessian", "omega", "pi"])
        if which == "hessian":
            while True:
                i = rng.randrange(n)
                j = rng.randrange(n)
                if p.action_hessian[i, j] != 0:
                    break
            rows = [list(r) for r in p.action_hessian.entries]
            rows[i][j] = -rows[i][j]
            if i != j:
                rows[j][i] = -rows[j][i]
            mut = dataclasses.replace(p,
                                      action_hessian=Matrix.from_rows(rows))
        elif which == "omega":
            qm = p.q_bulk.matrix
            while True:
                i = rng.randrange(n)
                j = rng.randrange(n)
                # the pairing only enters the identities through Q, so a
                # flip on a Q-inert pair of directions is undetectable
                if i != j and p.bulk.omega[i, j] != 0 and \
                        any(qm[a, b] != 0
                            for a in (i, j) for b in range(n)):
                    break
            rows = [list(r) for r in p.bulk.omega.entries]
            rows[i][j] = -rows[i][j]
            rows[j][i] = -rows[j][i]
            bulk = GradedSymplecticSpace(p.bulk.base, Matrix.from_rows(rows),
                                         p.bulk.form_degree)
            mut = dataclasses.replace(p, bulk=bulk)
        else:
            pi = p.reduction.projection
            while True:
                i = rng.randrange(pi.rows)
                j = rng.randrange(n)
                if pi[i, j] != 0:
                    break
            rows = [list(r) for r in pi.entries]
            rows[i][j] = -rows[i][j]
            mut = dataclasses.replace(p, reduction=dataclasses.replace(
                p.reduction, projection=Matrix.from_rows(rows)))
        if not check_bvbfv(mut).passed:
            caught += 1
    assert caught == 10


def oracle_moduli(p):
    """Oracle: the moduli by subspace algebra, intersecting the kernels
    with coordinate subspaces and adding the antifield traces."""
    gv = p.bulk.base
    n = gv.dim
    q = p.q_bulk.matrix
    bdeg = p.boundary.base
    pi = p.reduction.projection
    pi0 = [list(r) for i, r in enumerate(pi.entries) if bdeg.degree(i) == 0]
    pi0 = Matrix.from_rows(pi0) if pi0 else Matrix.zeros(0, n)
    trace = Matrix(len(p.boundary_fields), n,
                   [{i: 1} for i in p.boundary_fields])
    locus = kernel(q.vstack(pi0).vstack(trace))
    w = kernel((pi0 @ q).vstack(trace @ q).vstack(trace))
    out = {}
    for d in sorted(set(deg for _, deg in gv.labels)):
        coords = Subspace.from_span(n, [{i: 1}
                                        for i in indices_of_degree(gv, d)])
        rel = [{i: 1} for i in p.boundary_antifields if gv.degree(i) == d]
        locus_d = intersect(locus, coords)
        gauge_src = intersect(w, Subspace.from_span(
            n, [{i: 1} for i in indices_of_degree(gv, d + 1)]))
        moved = Subspace.from_span(
            n, list((gauge_src.matrix() @ q.transpose()).data) + rel)
        out[d] = sum_spaces(locus_d,
                            Subspace.from_span(n, rel)).dim - moved.dim
    return out


def seeded_packages(seed, count):
    """ED and BF packages on grids, tori and annuli with random face
    weights (the weights enter only the ED metric term)."""
    rng = random.Random(seed)
    for i in range(count):
        kind = ("grid", "torus", "annulus")[i % 3]
        periodic = kind == "torus"
        holes = [(1, 1)] if kind == "annulus" else []
        nx, ny = (3, 3) if holes else (rng.randint(1 + periodic, 3),
                                       rng.randint(1 + periodic, 3))
        faces = [(x, y) for y in range(ny) for x in range(nx)
                 if (x, y) not in holes]
        weights = {("f", x, y): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                   for x, y in faces}
        m = grid_complex(nx, ny, holes=holes, periodic=periodic,
                         weights=weights)
        yield kind, build_ed_package(m, bf=bool(i % 2))


def test_moduli_ranks_match_subspace_oracle():
    seen = {"grid": 0, "torus": 0, "annulus": 0, "bf": 0, "nonzero": 0,
            "antifield_rows": 0}
    for i, (kind, p) in enumerate(seeded_packages(73, 9)):
        got = moduli_of_vacua(p)
        assert got == oracle_moduli(p), kind
        seen[kind] += 1
        seen["bf"] += i % 2
        seen["nonzero"] += any(got.values())
        # the package's field drops the rows of the boundary antifields;
        # the full {S, .} keeps them, which the quotient by them must see
        full = dataclasses.replace(p, q_bulk=field_from_hamiltonian(
            action_polynomial(p.action_hessian, p.bulk.base), p.bulk))
        assert moduli_of_vacua(full) == oracle_moduli(full), kind
        seen["antifield_rows"] += any(full.q_bulk.matrix.data[a]
                                      for a in p.boundary_antifields)
    assert min(seen.values()) >= 3, seen


def test_moduli_on_rational_weights_match_subspace_oracle():
    """grid(2, 2), torus(2, 2) and the holed annulus(3), ED and BF, with
    rational face weights: the Hodge star puts non-integer entries in Q
    for ED. The rows of pi are rescaled by random rationals too, which
    moves no kernel, so the moduli stay those of the unscaled package."""
    rng = random.Random(31)
    seen = {"q": 0, "pi": 0}
    for n, holes, periodic in ((2, [], False), (2, [], True),
                               (3, [(1, 1)], False)):
        for bf in (False, True):
            weights = {("f", x, y): Fraction(rng.randint(1, 9),
                                             rng.choice((2, 3)))
                       for y in range(n) for x in range(n)
                       if (x, y) not in holes}
            p = build_ed_package(grid_complex(n, n, holes=holes,
                                              periodic=periodic,
                                              weights=weights), bf=bf)
            proj = p.reduction.projection
            pi = Matrix(proj.rows, proj.cols, [
                {j: c * x for j, x in r.items()}
                for r in proj.data
                for c in [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                                   rng.randint(2, 5))]])
            scaled = dataclasses.replace(p, reduction=dataclasses.replace(
                p.reduction, projection=pi))
            got = moduli_of_vacua(p)
            assert got == moduli_of_vacua(scaled) == oracle_moduli(scaled), \
                (n, periodic, bf)
            seen["q"] += any(x.denominator != 1
                             for r in p.q_bulk.matrix.data
                             for x in r.values())
            seen["pi"] += any(x.denominator != 1
                              for r in pi.data for x in r.values())
    # the torus has no boundary, so its pi has no rows
    assert seen == {"q": 3, "pi": 4}, seen


@pytest.mark.parametrize("cx, bf, calls", [
    (torus_complex(2, 2), True, 3), (torus_complex(3, 3), True, 3),
    (grid_complex(2, 2), False, 7), (annulus_complex(3), False, 6)],
    ids=["torus22-bf", "torus33-bf", "grid22-ed", "annulus3-ed"])
def test_moduli_ranks_each_row_set_once(monkeypatch, cx, bf, calls):
    """Every elimination goes through `numkit._pivot_columns`. A rank per
    restriction is four per degree, 16 on each of these packages; with
    the rows grouped by the degree they meet, an empty row set needs
    none and each distinct one is ranked once (on a closed complex,
    [W; P q] on one degree is M on it)."""
    p = build_ed_package(cx, bf=bf)
    want = oracle_moduli(p)
    original = numkit._pivot_columns
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)
    monkeypatch.setattr(numkit, "_pivot_columns", counted)
    assert moduli_of_vacua(p) == want
    assert len(seen) == calls, seen


def test_moduli_disk_trivial():
    for m in (grid_complex(1, 1), grid_complex(2, 2)):
        mod = moduli_of_vacua(build_ed_package(m))
        assert all(v == 0 for v in mod.values())


def test_moduli_annulus():
    mod = moduli_of_vacua(build_ed_package(annulus_complex(3)))
    assert {d: v for d, v in mod.items() if v} == {0: 1, -1: 1}


def test_moduli_closed_torus_bf():
    mod = moduli_of_vacua(build_ed_package(torus_complex(3, 3), bf=True))
    # flat fields and locally constant duals in the middle, one class of
    # ghosts and one of top antifields at the ends
    assert {d: v for d, v in mod.items() if v} == {1: 1, 0: 3, -1: 3, -2: 1}


# Size-ladder oracles: the closed forms above at sizes past the fixtures,
# each under the 10 s wall-clock limit of the acceptance tests.

def test_moduli_annulus_ladder():
    start = time.monotonic()
    for n in (5, 7, 9, 11, 21):
        mod = moduli_of_vacua(build_ed_package(annulus_complex(n)))
        assert {d: v for d, v in mod.items() if v} == {0: 1, -1: 1}
    assert time.monotonic() - start < 10


def test_moduli_disk_trivial_ladder():
    start = time.monotonic()
    mod = moduli_of_vacua(build_ed_package(grid_complex(4, 4)))
    assert all(v == 0 for v in mod.values())
    assert time.monotonic() - start < 10


def test_moduli_closed_torus_bf_ladder():
    start = time.monotonic()
    p = build_ed_package(torus_complex(4, 4), bf=True)
    check_all(p)
    mod = moduli_of_vacua(p)
    assert {d: v for d, v in mod.items() if v} == {1: 1, 0: 3, -1: 3, -2: 1}
    for n in (20, 30):
        mod = moduli_of_vacua(build_ed_package(torus_complex(n, n), bf=True))
        assert {d: v for d, v in mod.items() if v} == {1: 1, 0: 3, -1: 3,
                                                       -2: 1}
    assert time.monotonic() - start < 10


def test_disk_package_identities_ladder():
    start = time.monotonic()
    check_all(build_ed_package(grid_complex(6, 6)))
    assert time.monotonic() - start < 10


def test_annulus_package_identities_ladder():
    start = time.monotonic()
    check_all(build_ed_package(annulus_complex(9)))
    assert time.monotonic() - start < 10


@cache
def annulus5_package():
    return build_ed_package(annulus_complex(5))


def changed_boundary_field(p):
    """q_boundary with 1 added at the first degree-raising slot where the
    result still squares to zero."""
    gv = p.boundary.base
    for a in range(gv.dim):
        for b in indices_of_degree(gv, gv.degree(a) + 1):
            rows = [list(r) for r in p.q_boundary.matrix.entries]
            rows[a][b] += 1
            try:
                return LinearCohomologicalField(gv, Matrix.from_rows(rows))
            except ValueError:
                continue
    raise AssertionError("no admissible change")


def test_check_catches_a_changed_boundary_field_at_size():
    """A changed boundary field with no quadratic generator is refused;
    twice the field squares to zero and has twice the generator, and it
    breaks exactly the two identities that read the boundary field
    against the bulk."""
    p = annulus5_package()
    with pytest.raises(NotSymplecticField):
        check_bvbfv(dataclasses.replace(
            p, q_boundary=changed_boundary_field(p)))
    doubled = LinearCohomologicalField(p.boundary.base,
                                       p.q_boundary.matrix.scale(2))
    assert hamiltonian_of(doubled, p.boundary) == \
        hamiltonian_of(p.q_boundary, p.boundary).scale(2)
    rep = check_bvbfv(dataclasses.replace(p, q_boundary=doubled))
    assert not rep.passed
    assert {k for k, r in rep.residuals.items() if not r.is_zero()} == \
        {"restriction", "master"}


def test_hamiltonian_of_refuses_a_changed_field_at_size():
    p = annulus5_package()
    assert hamiltonian_of(p.q_boundary, p.boundary) == \
        oracle_hamiltonian_of(p.q_boundary, p.boundary)
    with pytest.raises(NotSymplecticField):
        hamiltonian_of(changed_boundary_field(p), p.boundary)


def kernel_slot(red):
    """(first pivot row, first non-pivot column) of the reduction: an
    entry there reaches along the kernel."""
    return red.pivots[0], next(j for j in range(red.projection.cols)
                               if j not in red.pivots)


def test_descend_refuses_a_kernel_direction_at_size():
    p = annulus5_package()
    red, alpha = p.reduction, p.alpha_boundary
    coeff = red.projection.transpose() @ alpha.coeff @ red.projection
    assert red.descend(OneForm(coeff.rows, coeff)) == alpha
    i, k = kernel_slot(red)
    rows = [list(r) for r in coeff.entries]
    rows[i][k] += 1
    with pytest.raises(NotBasic):
        red.descend(OneForm(coeff.rows, Matrix.from_rows(rows)))


def test_project_vector_field_refuses_a_kernel_breaking_entry_at_size():
    p = annulus5_package()
    red = p.reduction
    assert red.descend_field(p.q_bulk.matrix) == p.q_boundary.matrix
    i, k = kernel_slot(red)
    rows = [list(r) for r in p.q_bulk.matrix.entries]
    rows[i][k] += 1
    with pytest.raises(NotProjectable):
        red.descend_field(Matrix.from_rows(rows))


def test_corner_interval():
    cd = corner_extend(path_complex(3))
    degs = sorted(d for _, d in cd.space.labels)
    assert degs == [0, 0, 1, 1]
    assert cd.q_corner.is_zero()
    assert cd.alpha is not None


def test_corner_cylinder():
    sigma = prism(circle_complex(4), 2)
    cd = corner_extend(sigma)
    degs = [d for _, d in cd.space.labels]
    assert degs.count(1) == 4 and degs.count(0) == 4
    assert cd.q_corner.is_zero()


@pytest.mark.parametrize("n", [3, 7, 12])
@pytest.mark.parametrize("k", [1, 3])
def test_corner_cylinder_ladder(n, k):
    """prism(circle(n), k): one (ghost, field) pair per vertex of the
    corner circle, whatever the height, and a zero corner field."""
    cd = corner_extend(prism(circle_complex(n), k))
    degs = [d for _, d in cd.space.labels]
    assert len(degs) == 2 * n and degs.count(1) == n and degs.count(0) == n
    assert cd.q_corner.is_zero()
    assert cd.alpha is not None


def test_boundary_bfv_circle():
    out = boundary_bfv_reduction(circle_complex(5), 2)
    assert out == {1: 1, 0: 2, -1: 1}


def test_boundary_bfv_two_circles():
    sigma = disjoint_union(circle_complex(4), circle_complex(3, tag="b"))
    out = boundary_bfv_reduction(sigma, 2)
    assert out[1] == 2 and out[-1] == 2


def test_boundary_bfv_torus():
    out = boundary_bfv_reduction(torus_complex(3, 3), 3)
    assert out[1] == 1 and out[-1] == 1


@pytest.mark.parametrize("bf", [False, True], ids=["ed", "bf"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sigma", [
    circle_complex(3), circle_complex(5), circle_complex(12),
    disjoint_union(circle_complex(3, "a"), circle_complex(4, "b"))],
    ids=["circle3", "circle5", "circle12", "circle3+circle4"])
def test_collar_boundary_field_is_the_boundary_theory(sigma, k, bf):
    """On the collar prism(Sigma, k) the bulk package induces the BFV
    theory of Sigma: the cohomology of its boundary field is that of the
    field `boundary_bfv_reduction` writes down on Sigma."""
    q = build_ed_package(prism(sigma, k), bf=bf).q_boundary
    got = bvbfv._linear_cohomology(q.matrix.data,
                                   [d for _, d in q.space.labels])
    assert got == boundary_bfv_reduction(sigma, 2)


@pytest.mark.parametrize("sigma, b0, middle", [
    (torus_complex(2, 2), 1, 10), (torus_complex(3, 3), 1, 20),
    (torus_complex(4, 4), 1, 34), (torus_complex(2, 5), 1, 22),
    (disjoint_union(torus_complex(2, 2), torus_complex(3, 3)), 2, 30)],
    ids=["torus22", "torus33", "torus44", "torus25", "two-tori"])
def test_boundary_bfv_of_electrodynamics_counts_cells(sigma, b0, middle):
    """At d = 3 the boundary field is electrodynamics' on Sigma (A and E
    on edges, c and c+ on vertices): b0 classes in degrees +-1 and
    2(n1 - n0 + b0) in degree 0, which grows with the cells, as Maxwell
    theory in 2 + 1 dimensions has local degrees of freedom."""
    assert middle == 2 * (sigma.n_cells(1) - sigma.n_cells(0) + b0)
    assert boundary_bfv_reduction(sigma, 3) == {-1: b0, 0: middle, 1: b0}


@pytest.mark.parametrize("sigma, h0", [
    (circle_complex(5), 2), (circle_complex(12), 2),
    (disjoint_union(circle_complex(4, "a"), circle_complex(3, "b")), 4),
    (torus_complex(2, 2), 10), (torus_complex(3, 3), 20),
    (torus_complex(2, 5), 22)],
    ids=["circle5", "circle12", "circle4+circle3", "torus22", "torus33",
         "torus25"])
def test_classical_boundary_is_bfv_h0(sigma, h0):
    """The classical reduced phase space of electrodynamics on Sigma,
    dim C - dim char, is H^0 of the BFV field on Sigma; on a circle or a
    union of circles it is also H^0 of the field that the collar
    prism(Sigma, 2) induces on its boundary."""
    _, _, c, char = classical_boundary_ed(sigma)
    assert c.dim - char.dim == h0
    assert boundary_bfv_reduction(sigma, sigma.dim + 1)[0] == h0
    if sigma.dim == 1:
        q = build_ed_package(prism(sigma, 2)).q_boundary
        assert bvbfv._linear_cohomology(
            q.matrix.data, [d for _, d in q.space.labels])[0] == h0


def oracle_boundary_bfv(sigma):
    """Oracle: dim ker D_g - dim im D_(g-1) from dense submatrices of the
    transposed field."""
    nv, ne = sigma.n_cells(0), sigma.n_cells(1)
    n = nv + 2 * ne + nv
    off_c, off_a, off_b, off_ap = 0, nv, nv + ne, nv + 2 * ne
    degs = [1] * nv + [0] * ne + [0] * ne + [-1] * nv
    d0 = sigma.boundary_op(1).transpose()
    dd = sigma.boundary_op(1)
    q = [[Fraction(0)] * n for _ in range(n)]
    for e in range(ne):
        for v in range(nv):
            q[off_a + e][off_c + v] = d0[e, v]
            q[off_ap + v][off_b + e] = dd[v, e]
    qt = Matrix.from_rows(q).transpose()
    out = {}
    for g in sorted(set(degs)):
        here, above, below = ([i for i in range(n) if degs[i] == g + j]
                              for j in (0, 1, -1))
        out[g] = kernel(qt.submatrix(above, here)).dim \
            - image(qt.submatrix(here, below)).dim
    return out


def test_boundary_bfv_ranks_match_kernel_image_oracle():
    rng = random.Random(79)
    for i in range(12):
        sigma = circle_complex(rng.randint(1, 6))
        for c in range(i % 3):
            sigma = disjoint_union(
                sigma, circle_complex(rng.randint(1, 6), tag=f"s{c}"))
        assert boundary_bfv_reduction(sigma, 2) == oracle_boundary_bfv(sigma)
    for nx, ny in ((2, 2), (3, 2), (3, 3)):
        sigma = torus_complex(nx, ny)
        assert boundary_bfv_reduction(sigma, 3) == oracle_boundary_bfv(sigma)


@pytest.mark.parametrize("sigma, d", [
    (circle_complex(4), 3), (circle_complex(4), 1), (torus_complex(2, 2), 2)])
def test_boundary_bfv_needs_sigma_of_dimension_d_minus_one(sigma, d):
    with pytest.raises(ValueError, match="dimension"):
        boundary_bfv_reduction(sigma, d)


def test_boundary_bfv_rejects_open_sigma():
    with pytest.raises(ValueError):
        boundary_bfv_reduction(path_complex(4), 2)
