"""End-to-end acceptance gate: exact structural identities, seeded
property suites, pinned closed-form oracles, and report determinism."""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest

from bvkit import cli
from bvkit.bvbfv import (
    ConstraintSet,
    bfv_cohomology,
    bfv_resolve,
    boundary_bfv_reduction,
    build_ed_package,
    check_bvbfv,
    corner_extend,
    moduli_of_vacua,
)
from bvkit.collar import (
    FieldSpec,
    QuadraticLocalTheory,
    boundary_one_form,
    preboundary_reduce,
    prism,
)
from bvkit.complexes import (
    CellComplex,
    annulus_complex,
    circle_complex,
    cohomology,
    grid_complex,
    path_complex,
    torus_complex,
)
from bvkit.graded import (
    GradedSymplecticSpace,
    GradedVectorSpace,
    poisson_bracket,
)
from bvkit.numkit import Matrix, Subspace, invert, vec
from bvkit.relations import LinearRelation, compose, graph, identity_relation
from bvkit.symplect import NotBasic, PresymplecticSpace, presymplectic_reduce
from bvkit.theories import (
    MechanicsFixture,
    ScalarFieldTheory,
    dirac_counterexample,
    dtn,
    geodesic_fixture,
    glue_scalar,
    mechanics_relation,
    oscillator_flow,
    reduce_relation,
)
from test_complexes import dense_edge_boundary, dense_faces, subgraph_theory
from test_numkit import span_of


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def random_symmetric(rng, n):
    a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                          for _ in range(n)])
    return a + a.transpose()


def random_symplectomorphism(rng, n_pairs):
    n = n_pairs
    m = Matrix.identity(2 * n)
    for _ in range(3):
        kind = rng.randint(0, 2)
        if kind == 0:
            s = random_symmetric(rng, n)
            g = Matrix.identity(n).hstack(Matrix.zeros(n, n)).vstack(
                s.hstack(Matrix.identity(n)))
        elif kind == 1:
            s = random_symmetric(rng, n)
            g = Matrix.identity(n).hstack(s).vstack(
                Matrix.zeros(n, n).hstack(Matrix.identity(n)))
        else:
            while True:
                a = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)])
                if invert(a) is not None:
                    break
            g = a.hstack(Matrix.zeros(n, n)).vstack(
                Matrix.zeros(n, n).hstack(invert(a).transpose()))
        m = g @ m
    return m


def random_relation(rng, src, tgt, count):
    n = src.dim + tgt.dim
    return LinearRelation(src, tgt, span_of(
        n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(count)]))


def random_lagrangian_graph(rng, v):
    return graph(v, v, random_symplectomorphism(rng, v.dim // 2))


def test_criterion_1_relation_algebra():
    rng = random.Random(101)
    start = time.monotonic()
    v = PresymplecticSpace.standard(2)
    w = PresymplecticSpace.standard(3)  # ambient product dim 12
    for _ in range(200):
        a = random_relation(rng, v, v, rng.randint(1, 5))
        b = random_relation(rng, v, v, rng.randint(1, 5))
        c = random_relation(rng, v, v, rng.randint(1, 5))
        assert compose(compose(a, b), c).body == compose(a, compose(b, c)).body
    for _ in range(200):
        f = random_symplectomorphism(rng, 2)
        g = random_symplectomorphism(rng, 2)
        assert compose(graph(v, v, f), graph(v, v, g)).body == \
            graph(v, v, g @ f).body
    ident = identity_relation(w)
    for _ in range(200):
        r = random_relation(rng, w, w, rng.randint(1, 6))
        assert compose(ident, r).body == r.body
        assert compose(r, ident).body == r.body
    for _ in range(200):
        a = random_lagrangian_graph(rng, v)
        b = random_lagrangian_graph(rng, v)
        assert compose(a, b).is_canonical()
    for _ in range(200):
        # sub-spans of Lagrangian bodies are isotropic
        a = random_lagrangian_graph(rng, v)
        b = random_lagrangian_graph(rng, v)
        ra = LinearRelation(v, v, Subspace.from_span(
            8, list(a.body.basis[:rng.randint(1, 4)])))
        rb = LinearRelation(v, v, Subspace.from_span(
            8, list(b.body.basis[:rng.randint(1, 4)])))
        assert ra.classify().is_isotropic
        assert compose(ra, rb).classify().is_isotropic
    assert time.monotonic() - start < 10


def partitioned_theory(rng, n_left, n_right, n_cut):
    """Random connected weighted graph split as left/cut/right."""
    names_l = [f"l{i}" for i in range(n_left)]
    names_r = [f"r{i}" for i in range(n_right)]
    names_c = [f"c{i}" for i in range(n_cut)]
    lv, rv = names_l + names_c, names_r + names_c

    def connected_edges(vs):
        out = [(vs[rng.randrange(i)], vs[i]) for i in range(1, len(vs))]
        for _ in range(rng.randint(0, len(vs) // 2)):
            out.append(tuple(rng.sample(vs, 2)))
        return out

    e_l, e_r = connected_edges(lv), connected_edges(rv)
    names, edges = names_l + names_r + names_c, e_l + e_r
    in_v = rng.sample(names_l, rng.randint(1, 2))
    out_v = rng.sample(names_r, rng.randint(1, 2))
    bset = set(in_v) | set(out_v)
    enames = tuple(f"e{j}" for j in range(len(edges)))
    w = ((Fraction(1),) * len(names),
         tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3))
               for _ in edges))
    cx = CellComplex((tuple(names), enames),
                     (dense_faces(dense_edge_boundary(names, edges)),),
                     (tuple(nm in bset for nm in names),
                      (False,) * len(enames)), w, cubical=True)
    t = ScalarFieldTheory(cx)
    t_l = subgraph_theory(t, lv, names_c + in_v,
                          edges=[enames[j] for j in range(len(e_l))])
    t_r = subgraph_theory(t, rv, names_c + out_v,
                          edges=[enames[len(e_l) + j]
                                 for j in range(len(e_r))])
    return t, names_c, t_l, t_r


def test_criterion_2_dtn_and_gluing():
    start = time.monotonic()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    m3 = dtn(ScalarFieldTheory(path_complex(3))).matrix
    assert m3 == Matrix.from_rows([[half, -half], [-half, half]])
    m5 = dtn(ScalarFieldTheory(path_complex(5))).matrix
    assert m5 == Matrix.from_rows([[quarter, -quarter], [-quarter, quarter]])
    rng = random.Random(202)
    sizes = [(rng.randint(4, 20), rng.randint(4, 20), rng.randint(1, 4))
             for _ in range(49)]
    sizes.append((95, 95, 5))  # one instance near the 200-vertex cap
    for nl, nr, nc in sizes:
        t, cut, t_l, t_r = partitioned_theory(rng, nl, nr, nc)
        rep = glue_scalar(t, cut, t_l.vertex_names, t_r.vertex_names)
        assert rep.exact
        assert rep.lagrangian
    assert time.monotonic() - start < 30


def test_criterion_3_variational_split():
    rng = random.Random(303)
    # scalar field on a path: reduce the boundary one-form and check
    # dS(x)[dx] - EL(x)[dx] equals the reduced form pulled back
    cx = path_complex(5)
    from bvkit.complexes import coboundary, hodge_star

    d0 = coboundary(cx, 0)
    lap = d0.transpose() @ hodge_star(cx, 1) @ d0
    t = QuadraticLocalTheory(cx, (FieldSpec("phi", 0),), lap)
    alpha = boundary_one_form(t)
    red, alpha_red = preboundary_reduce(alpha)
    assert alpha_red is not None
    n = t.n_vars
    for _ in range(20):
        x = vec([rng.randint(-5, 5) for _ in range(n)])
        dx = vec([rng.randint(-5, 5) for _ in range(n)])
        ds = dot(t.action.apply(x), dx)
        el = ds - alpha.evaluate(x, dx)
        pulled = alpha_red.evaluate(red.projection.apply(x),
                                    red.projection.apply(dx))
        assert ds - el - pulled == 0
    # gauge theories: zero the boundary-sourced rows independently and
    # check the reduced one-form restores them exactly
    for bf in (False, True):
        p = build_ed_package(grid_complex(2, 2), bf=bf)
        n = p.bulk.base.dim
        bset = set(p.boundary_fields)
        el_rows = Matrix.from_rows([
            [Fraction(0)] * n if a in bset
            else list(p.action_hessian.entries[a]) for a in range(n)])
        for _ in range(20):
            x = vec([rng.randint(-5, 5) for _ in range(n)])
            dx = vec([rng.randint(-5, 5) for _ in range(n)])
            ds = dot(p.action_hessian.apply(x), dx)
            el = dot(el_rows.apply(x), dx)
            pi = p.reduction.projection
            red = p.alpha_boundary.evaluate(pi.apply(x), pi.apply(dx))
            assert ds - el - red == 0


def test_criterion_4_mechanics():
    a = mechanics_relation(MechanicsFixture("free_particle", t0=0, t1=2))
    b = mechanics_relation(MechanicsFixture("free_particle", t0=2, t1=5))
    whole = mechanics_relation(MechanicsFixture("free_particle", t0=0, t1=5))
    assert compose(a, b).body == whole.body

    rng = random.Random(404)
    for _ in range(25):
        t0 = rng.uniform(-10, 10)
        t1 = rng.uniform(-10, 10)
        t2 = rng.uniform(-10, 10)
        f01 = oscillator_flow(MechanicsFixture("oscillator", t0=t0, t1=t1))
        f12 = oscillator_flow(MechanicsFixture("oscillator", t0=t1, t1=t2))
        f02 = oscillator_flow(MechanicsFixture("oscillator", t0=t0, t1=t2))
        prod = [[sum(f12[i][k] * f01[k][j] for k in range(2))
                 for j in range(2)] for i in range(2)]
        assert all(abs(prod[i][j] - f02[i][j]) < 1e-9
                   for i in range(2) for j in range(2))
        fii = oscillator_flow(MechanicsFixture("oscillator", t0=t0, t1=t0))
        ident = [[1.0, 0.0], [0.0, 1.0]]
        assert all(abs(fii[i][j] - ident[i][j]) < 1e-9
                   for i in range(2) for j in range(2))

    g = geodesic_fixture()
    red = PresymplecticSpace.standard(1)
    assert red.dim == 2
    out = reduce_relation(g.relation, g.source_projection,
                          g.target_projection, red)
    assert out.body == identity_relation(red).body
    with pytest.raises(NotBasic):
        presymplectic_reduce(g.space).descend(g.alpha)


def test_criterion_5_dirac_counterexample():
    for order in range(1, 5):
        _, _, result = dirac_counterexample(order)
        assert result.is_isotropic
        assert not result.is_lagrangian


def _momentum_constraints(n_pairs, rows):
    std = PresymplecticSpace.standard(n_pairs)
    labels = [(f"q{i}", 0) for i in range(n_pairs)]
    labels += [(f"p{i}", 0) for i in range(n_pairs)]
    amb = GradedSymplecticSpace(GradedVectorSpace.make(labels), std.omega, 0)
    return ConstraintSet(amb, tuple(vec([0] * n_pairs + list(r))
                                    for r in rows))


def _monomial_count(n_vars, max_len):
    if n_vars == 0:
        return 1
    return sum(math.comb(n_vars + k - 1, k) for k in range(max_len + 1))


def test_criterion_6_bfv_resolution_and_cohomology():
    from bvkit.numkit import rank

    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(1, 4)  # ambient symplectic dim up to 8
        k = rng.randint(1, n)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(k)]
            if rank(Matrix.from_rows(rows)) == k:
                break
        cs = _momentum_constraints(n, rows)
        ext, s, q = bfv_resolve(cs)
        assert poisson_bracket(s, s, ext).is_zero()
        assert (q.matrix @ q.matrix).is_zero()
        d_max = rng.randint(1, 3) if ext.base.dim <= 10 else rng.randint(1, 2)
        # invariant-monomial oracle: observables in the unconstrained pairs
        assert bfv_cohomology(q, d_max, (0,))[0] == _monomial_count(
            2 * (n - k), d_max)
    _, _, q = bfv_resolve(_momentum_constraints(2, [[1, 0]]))
    assert bfv_cohomology(q, 2, (0,))[0] == 6


def _mutated_package(rng, p):
    n = p.bulk.base.dim
    which = rng.choice(["hessian", "omega", "pi"])
    if which == "hessian":
        while True:
            i, j = rng.randrange(n), rng.randrange(n)
            if p.action_hessian[i, j] != 0:
                break
        rows = [list(r) for r in p.action_hessian.entries]
        rows[i][j] = -rows[i][j]
        if i != j:
            rows[j][i] = -rows[j][i]
        return dataclasses.replace(p, action_hessian=Matrix.from_rows(rows))
    if which == "omega":
        qm = p.q_bulk.matrix
        while True:
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j and p.bulk.omega[i, j] != 0 and \
                    any(qm[a, b] != 0 for a in (i, j) for b in range(n)):
                break
        rows = [list(r) for r in p.bulk.omega.entries]
        rows[i][j] = -rows[i][j]
        rows[j][i] = -rows[j][i]
        bulk = GradedSymplecticSpace(p.bulk.base, Matrix.from_rows(rows),
                                     p.bulk.form_degree)
        return dataclasses.replace(p, bulk=bulk)
    pi = p.reduction.projection
    while True:
        i, j = rng.randrange(pi.rows), rng.randrange(n)
        if pi[i, j] != 0:
            break
    rows = [list(r) for r in pi.entries]
    rows[i][j] = -rows[i][j]
    return dataclasses.replace(p, reduction=dataclasses.replace(
        p.reduction, projection=Matrix.from_rows(rows)))


def test_criterion_7_structure_checker():
    start = time.monotonic()
    fixtures = [build_ed_package(grid_complex(2, 2)),
                build_ed_package(annulus_complex(3)),
                build_ed_package(grid_complex(2, 2), bf=True)]
    for p in fixtures:
        rep = check_bvbfv(p)
        assert rep.passed
        assert all(r.is_zero() for r in rep.residuals.values())
    rng = random.Random(707)
    small = build_ed_package(grid_complex(1, 1))
    for _ in range(10):
        assert not check_bvbfv(_mutated_package(rng, small)).passed
    assert time.monotonic() - start < 30


def test_criterion_8_moduli_of_vacua():
    disk = moduli_of_vacua(build_ed_package(grid_complex(2, 2)))
    assert all(v == 0 for v in disk.values())
    ann = moduli_of_vacua(build_ed_package(annulus_complex(3)))
    assert {d: v for d, v in ann.items() if v} == {0: 1, -1: 1}


def test_criterion_9_boundary_bfv_and_corners():
    circle = circle_complex(5)
    out = boundary_bfv_reduction(circle, 2)
    assert out[1] == cohomology(circle, 0).dimension
    assert out[-1] == cohomology(circle, 1).dimension
    assert out == {1: 1, 0: 2, -1: 1}

    torus = torus_complex(3, 3)
    out = boundary_bfv_reduction(torus, 3)
    assert out[1] == cohomology(torus, 0).dimension
    assert out[-1] == cohomology(torus, 2).dimension

    # interval: ghost and field-divergence pair at each endpoint corner
    cd = corner_extend(path_complex(3))
    assert sorted(d for _, d in cd.space.labels) == [0, 0, 1, 1]
    assert cd.q_corner.is_zero()
    # cylinder over a circle: one pair per corner-circle vertex
    cd = corner_extend(prism(circle_complex(4), 2))
    degs = [d for _, d in cd.space.labels]
    assert degs.count(1) == 4 and degs.count(0) == 4
    assert cd.q_corner.is_zero()


def test_criterion_10_report_determinism(tmp_path):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"fixture": "disk", "size": 1}))
    texts = []
    for run in range(2):
        out = tmp_path / f"out{run}.json"
        code = cli.main(["bv-check", "--input", str(inp),
                         "--seed", "42", "--output", str(out)])
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    rep = json.loads(texts[0])
    assert rep["seed"] == 42 and rep["status"] == "pass"
    a = cli.render(cli.run(cli.build_parser().parse_args(
        ["fixtures", "--fixture", "annulus"])))
    b = cli.render(cli.run(cli.build_parser().parse_args(
        ["fixtures", "--fixture", "annulus"])))
    assert a == b
