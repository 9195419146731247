import random
from collections import Counter
from fractions import Fraction

import pytest

from bvkit.numkit import Matrix, Subspace, invert, kernel
from bvkit.relations import (
    LinearRelation,
    MiddleMismatch,
    compose,
    graph,
    identity_relation,
    project_relation,
)
from bvkit.symplect import PresymplecticSpace
from test_numkit import span_of


def random_symmetric(rng, n):
    a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                          for _ in range(n)])
    return a + a.transpose()


def random_symplectomorphism(rng, n_pairs):
    """Product of shear and block-diagonal generators of Sp(2n, Q)."""
    n = n_pairs
    m = Matrix.identity(2 * n)
    for _ in range(3):
        kind = rng.randint(0, 2)
        if kind == 0:
            s = random_symmetric(rng, n)
            top = Matrix.identity(n).hstack(Matrix.zeros(n, n))
            bot = s.hstack(Matrix.identity(n))
            g = top.vstack(bot)
        elif kind == 1:
            s = random_symmetric(rng, n)
            top = Matrix.identity(n).hstack(s)
            bot = Matrix.zeros(n, n).hstack(Matrix.identity(n))
            g = top.vstack(bot)
        else:
            while True:
                a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)])
                ainv = invert(a)
                if ainv is not None:
                    break
            g = a.hstack(Matrix.zeros(n, n)).vstack(
                Matrix.zeros(n, n).hstack(ainv.transpose()))
        m = g @ m
    return m


def random_relation(rng, src, tgt, count):
    n = src.dim + tgt.dim
    return LinearRelation(src, tgt, span_of(
        n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(count)]))


def oracle_compose(first, second):
    """Reference composite: parametrize pairs of body vectors whose middle
    components agree by a kernel, then read off the outer components."""
    ns, nm, nt = first.source.dim, first.target.dim, second.target.dim
    b1, b2 = first.body.matrix(), second.body.matrix()
    k1, k2 = first.body.dim, second.body.dim
    mid1 = b1.submatrix(range(k1), range(ns, ns + nm))
    mid2 = b2.submatrix(range(k2), range(0, nm))
    params = kernel(mid1.transpose().hstack(-mid2.transpose()))
    outer1 = b1.submatrix(range(k1), range(ns)).transpose()
    outer2 = b2.submatrix(range(k2), range(nm, nm + nt)).transpose()
    span = [outer1.apply(p[:k1]) + outer2.apply(p[k1:])
            for p in params.matrix().entries]
    return span_of(ns + nt, span)


def test_compose_matches_kernel_oracle():
    rng = random.Random(71)
    seen = Counter()
    for _ in range(1000):
        ns, nm, nt = (rng.randint(0, 4) for _ in range(3))
        src, mid, tgt = (PresymplecticSpace.trivial(n) for n in (ns, nm, nt))
        # few, sparse spanning rows so that middles often match or vanish
        first, second = (
            LinearRelation(a, b, span_of(a.dim + b.dim, [
                [rng.choice([-2, -1, 0, 0, 1, Fraction(1, 3)])
                 for _ in range(a.dim + b.dim)]
                for _ in range(rng.randint(0, a.dim + b.dim))]))
            for a, b in ((src, mid), (mid, tgt)))
        got = compose(first, second)
        assert got.body == oracle_compose(first, second)
        assert (got.source, got.target) == (src, tgt)
        seen["empty body"] += first.body.dim == 0 or second.body.dim == 0
        seen["zero middle"] += nm == 0
        seen["zero composite"] += got.body.dim == 0
        seen["composite"] += got.body.dim > 0
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def one_rref_compose(first, second):
    """The composite by the rule `compose` used before it eliminated
    forward: one RREF of the rows (y, x, 0) of first and (-y, 0, z) of
    second, middle coordinates first, and its rows with no middle part,
    read without it."""
    ns, nm, nt = first.source.dim, first.target.dim, second.target.dim
    span = [{j - ns if j >= ns else j + nm: x for j, x in b.items()}
            for b in first.body.basis]
    span += [dict((j, -x) if j < nm else (j + ns, x) for j, x in b.items())
             for b in second.body.basis]
    joint = Subspace.from_span(nm + ns + nt, span)
    return Subspace(ns + nt, tuple({j - nm: x for j, x in b.items()}
                                   for b in joint.basis if min(b) >= nm))


def _degenerate_bodies(rng, a, b):
    """Bodies in a x b that exercise the corners of composition: empty,
    full, only middle parts, only outer parts, repeated rows."""
    n, na = a.dim + b.dim, a.dim
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
    return [
        Subspace.zero(n),
        Subspace.full(n),
        Subspace.from_span(n, [{j: 1} for j in range(na)]),
        Subspace.from_span(n, [{j: 1} for j in range(na, n)]),
        span_of(n, rows + rows + [[0] * n]) if n else
        Subspace.zero(0),
    ]


def test_compose_matches_one_rref_oracle():
    """Forward elimination of the middle leaves the same canonical basis
    as the full RREF, entries by the number rule, on random relations
    with rational entries and on degenerate ones."""
    rng = random.Random(2301)
    cases = 0
    for _ in range(150):
        ns, nm, nt = (rng.randint(0, 5) for _ in range(3))
        src, mid, tgt = (PresymplecticSpace.trivial(n) for n in (ns, nm, nt))
        firsts = [LinearRelation(src, mid, span_of(ns + nm, [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             if rng.random() < 0.7 else 0 for _ in range(ns + nm)]
            for _ in range(rng.randint(0, ns + nm))]))]
        seconds = [random_relation(rng, mid, tgt, rng.randint(0, nm + nt))]
        firsts += [LinearRelation(src, mid, body)
                   for body in _degenerate_bodies(rng, src, mid)]
        seconds += [LinearRelation(mid, tgt, body)
                    for body in _degenerate_bodies(rng, mid, tgt)]
        for first in firsts:
            for second in seconds:
                got = compose(first, second)
                assert got.body == one_rref_compose(first, second)
                assert all(type(x) is int or x.denominator > 1
                           for b in got.body.basis for x in b.values())
                cases += 1
    assert cases == 150 * 36


def test_identity_relation_is_canonical_and_neutral():
    v = PresymplecticSpace.standard(2)
    ident = identity_relation(v)
    assert ident.is_canonical()
    rng = random.Random(1)
    r = random_relation(rng, v, v, 4)
    assert compose(ident, r).body == r.body
    assert compose(r, ident).body == r.body


def test_graph_of_symplectomorphism_is_canonical():
    rng = random.Random(2)
    v = PresymplecticSpace.standard(2)
    for _ in range(10):
        m = random_symplectomorphism(rng, 2)
        assert m.transpose() @ v.omega @ m == v.omega
        assert graph(v, v, m).is_canonical()


def test_graph_of_non_symplectic_map_not_canonical():
    v = PresymplecticSpace.standard(1)
    assert not graph(v, v, Matrix.from_rows([[2, 0], [0, 1]])).is_canonical()


def test_composition_is_functorial_on_graphs():
    rng = random.Random(3)
    v = PresymplecticSpace.standard(2)
    for _ in range(10):
        f = random_symplectomorphism(rng, 2)
        g = random_symplectomorphism(rng, 2)
        lhs = compose(graph(v, v, f), graph(v, v, g))
        assert lhs.body == graph(v, v, g @ f).body


def test_composition_associative():
    rng = random.Random(4)
    v = PresymplecticSpace.standard(2)
    for _ in range(15):
        a = random_relation(rng, v, v, rng.randint(1, 5))
        b = random_relation(rng, v, v, rng.randint(1, 5))
        c = random_relation(rng, v, v, rng.randint(1, 5))
        assert compose(compose(a, b), c).body == compose(a, compose(b, c)).body


def test_compose_canonical_stays_canonical():
    # twist the diagonal Lagrangian by symplectomorphisms on either side
    rng = random.Random(5)
    v = PresymplecticSpace.standard(2)
    for _ in range(15):
        a = graph(v, v, random_symplectomorphism(rng, 2))
        b = graph(v, v, random_symplectomorphism(rng, 2))
        assert compose(a, b).is_canonical()


def test_compose_isotropic_stays_isotropic():
    rng = random.Random(6)
    v = PresymplecticSpace.standard(2)
    diag = identity_relation(v)
    for _ in range(15):
        m1 = random_symplectomorphism(rng, 2)
        m2 = random_symplectomorphism(rng, 2)
        # sub-Lagrangian isotropic pieces of twisted graphs
        a = LinearRelation(v, v, Subspace.from_span(
            8, [graph(v, v, m1).body.basis[i] for i in range(2)]))
        b = LinearRelation(v, v, Subspace.from_span(
            8, [graph(v, v, m2).body.basis[i] for i in range(2)]))
        assert compose(a, b).classify().is_isotropic


def test_middle_mismatch_raises():
    a = identity_relation(PresymplecticSpace.standard(1))
    b = identity_relation(PresymplecticSpace.standard(2))
    with pytest.raises(MiddleMismatch):
        compose(a, b)


def test_transpose_is_involution_and_flips_membership():
    rng = random.Random(7)
    v = PresymplecticSpace.standard(2)
    r = random_relation(rng, v, v, 3)
    assert r.transpose().transpose().body == r.body
    for b in r.body.matrix().entries:
        x, y = b[:4], b[4:]
        assert r.transpose().contains(y, x)


def test_contains_checks_each_point_against_its_own_space():
    """A point pair of the right total length is refused when either
    side has the wrong length, not read across the source-target split."""
    v, w = PresymplecticSpace.standard(1), PresymplecticSpace.trivial(1)
    ident = identity_relation(v)
    assert ident.contains((1, 0), (1, 0))
    assert not ident.contains((1, 0), (0, 1))
    for x, y in (((1, 0, 1), (0,)), ((1,), (0, 1, 0)), ((1, 0), (1,))):
        with pytest.raises(ValueError):
            ident.contains(x, y)
    r = LinearRelation(v, w, span_of(3, [[1, 0, 2]]))
    assert r.contains((1, 0), (2,)) and not r.contains((1, 0), (1,))
    with pytest.raises(ValueError):
        r.contains((1,), (0, 2))


def test_projection_of_graph_is_full_domain():
    v = PresymplecticSpace.standard(1)
    r = graph(v, v, Matrix.from_rows([[1, 1], [0, 1]]))
    assert project_relation(r, "domain") == Subspace.full(2)
    assert project_relation(r, "range") == Subspace.full(2)


def test_projection_of_partial_relation():
    v = PresymplecticSpace.standard(1)
    body = span_of(4, [[1, 0, 0, 0]])
    r = LinearRelation(v, v, body)
    assert project_relation(r, "domain") == span_of(2, [[1, 0]])
    assert project_relation(r, "range") == Subspace.zero(2)


def test_compose_empty_overlap_gives_zero_body():
    v = PresymplecticSpace.standard(1)
    a = LinearRelation(v, v, span_of(4, [[1, 0, 1, 0]]))
    b = LinearRelation(v, v, span_of(4, [[0, 1, 0, 1]]))
    assert compose(a, b).body == Subspace.zero(4)
