import math
import random
import time
from fractions import Fraction

import pytest

from bvkit.complexes import (
    CellComplex,
    NotCubical,
    circle_complex,
    coboundary,
    disjoint_union,
    grid_complex,
    hodge_star,
    path_complex,
    torus_complex,
    triangulated_grid_complex,
)
from bvkit.numkit import Matrix, kernel, schur_complement, vec
from bvkit.relations import compose, identity_relation
from bvkit.symplect import (
    NotBasic,
    classify,
    omega_complement,
    presymplectic_reduce,
    reduce_one_form,
)
from bvkit.theories import (
    MechanicsFixture,
    PartitionMismatch,
    ScalarFieldTheory,
    SingularInterior,
    classical_boundary_bf,
    classical_boundary_ed,
    dirac_counterexample,
    dtn,
    evolution_relation_scalar,
    geodesic_fixture,
    glue_scalar,
    harmonic_extension,
    mechanics_relation,
    on_shell_action,
    oscillator_flow,
    reduce_relation,
    subgraph_theory,
    with_boundary_vertices,
)
from test_acceptance import partitioned_theory


def random_connected_theory(rng, n, boundary_count):
    """Random connected weighted graph theory on n named vertices."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(names, 2)
        edges.append((a, b))
    weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3))
               for _ in edges]
    enames = tuple(f"e{j}" for j in range(len(edges)))
    from bvkit.complexes import _edge_boundary

    bnames = set(rng.sample(names, boundary_count))
    cells = (tuple(names), enames)
    flags = (tuple(nm in bnames for nm in names), (False,) * len(enames))
    w = ((Fraction(1),) * n, tuple(weights))
    cx = CellComplex(cells, (_edge_boundary(names, edges),), flags, w,
                     cubical=True)
    return ScalarFieldTheory(cx)


def test_dtn_path3():
    t = ScalarFieldTheory(path_complex(3))
    op = dtn(t)
    assert op.matrix == Matrix.from_rows(
        [[Fraction(1, 2), Fraction(-1, 2)],
         [Fraction(-1, 2), Fraction(1, 2)]])


def test_dtn_path5():
    t = ScalarFieldTheory(path_complex(5))
    assert dtn(t).matrix == Matrix.from_rows(
        [[Fraction(1, 4), Fraction(-1, 4)],
         [Fraction(-1, 4), Fraction(1, 4)]])


def test_dtn_no_interior_is_laplacian_block():
    t = ScalarFieldTheory(path_complex(2))
    assert dtn(t).matrix == Matrix.from_rows([[1, -1], [-1, 1]])


def test_dtn_singular_interior():
    # an interior vertex with no edges makes the interior block singular
    cells = (("v0", "v1", "v2"), ("e0",))
    d1 = Matrix.from_rows([[-1], [1], [0]])
    flags = ((True, True, False), (False,))
    w = ((Fraction(1),) * 3, (Fraction(1),))
    t = ScalarFieldTheory(CellComplex(cells, (d1,), flags, w, cubical=True))
    with pytest.raises(SingularInterior):
        dtn(t)


def test_dtn_symmetric_psd_constant_kernel():
    rng = random.Random(21)
    for _ in range(10):
        t = random_connected_theory(rng, rng.randint(4, 12), rng.randint(1, 3))
        lam = dtn(t).matrix
        assert lam.transpose() == lam
        m = lam.rows
        ones = vec([1] * m)
        assert all(x == 0 for x in lam.apply(ones))
        assert kernel(lam).dim == 1  # constants only, connected graph
        for _ in range(5):
            x = vec([rng.randint(-4, 4) for _ in range(m)])
            q = sum(a * b for a, b in zip(x, lam.apply(x)))
            assert q >= 0


def test_laplacian_matches_dense_formula():
    rng = random.Random(23)
    for _ in range(10):
        t = random_connected_theory(rng, rng.randint(2, 12), 1)
        d0 = coboundary(t.graph, 0)
        assert t.laplacian() == d0.transpose() @ hodge_star(t.graph, 1) @ d0


def test_laplacian_needs_weighted_cubical_graph():
    t = ScalarFieldTheory(triangulated_grid_complex(1, 1))
    with pytest.raises(NotCubical, match="weighted cubical complex"):
        t.laplacian()


@pytest.mark.parametrize("n", [3, 50, 200, 1000])
def test_dtn_unit_path_ladder(n):
    start = time.monotonic()
    s = Fraction(1, n - 1)
    lam = dtn(ScalarFieldTheory(path_complex(n))).matrix
    assert lam == Matrix.from_rows([[s, -s], [-s, s]])
    assert time.monotonic() - start < 10


def test_evolution_relation_path3_lagrangian():
    t = ScalarFieldTheory(path_complex(3))
    rel = evolution_relation_scalar(t, ["v0"], ["v2"])
    # one phase-space pair (phi, chi) per boundary vertex and side
    assert rel.body.dim == 2
    assert rel.body.ambient_dim == 4
    assert rel.is_canonical()


def test_evolution_relation_pure_out():
    t = ScalarFieldTheory(path_complex(3, boundary=[0]))
    rel = evolution_relation_scalar(t, [], ["v0"])
    assert rel.source.dim == 0
    assert rel.is_canonical()


def test_evolution_relation_grid_lagrangian():
    g = grid_complex(4, 4)
    left = [n for n in g.cells[0] if n.startswith("v0_")]
    right = [n for n in g.cells[0] if n.startswith("v4_")]
    t = with_boundary_vertices(g, left + right)
    rel = evolution_relation_scalar(t, left, right)
    assert rel.is_canonical()


def test_evolution_relation_random_lagrangian():
    rng = random.Random(33)
    for _ in range(8):
        t = random_connected_theory(rng, rng.randint(4, 14), rng.randint(2, 4))
        bd = t.boundary_names()
        cutpoint = rng.randint(0, len(bd))
        rel = evolution_relation_scalar(t, bd[:cutpoint], bd[cutpoint:])
        assert rel.is_canonical()


def test_glue_path5_at_center():
    t5 = ScalarFieldTheory(path_complex(5))
    left = subgraph_theory(t5, ["v0", "v1", "v2"], ["v0", "v2"])
    right = subgraph_theory(t5, ["v2", "v3", "v4"], ["v2", "v4"])
    rep = glue_scalar(t5, ["v2"], left, right)
    assert rep.exact and rep.lagrangian


def test_glue_cut_adjacent_to_boundary():
    # one side has no interior vertices at all
    t5 = ScalarFieldTheory(path_complex(5))
    left = subgraph_theory(t5, ["v0", "v1"], ["v0", "v1"])
    right = subgraph_theory(t5, ["v1", "v2", "v3", "v4"], ["v1", "v4"])
    rep = glue_scalar(t5, ["v1"], left, right)
    assert rep.exact


def test_glue_grid_middle_column():
    g = grid_complex(4, 2)
    left_bd = [n for n in g.cells[0] if n.startswith("v0_")]
    right_bd = [n for n in g.cells[0] if n.startswith("v4_")]
    t = with_boundary_vertices(g, left_bd + right_bd)
    cut = sorted(n for n in g.cells[0] if n.startswith("v2_"))
    lv = [n for n in g.cells[0] if int(n[1:].split("_")[0]) <= 2]
    rv = [n for n in g.cells[0] if int(n[1:].split("_")[0]) >= 2]
    # vertical edges on the cut column go with the left half
    ledges = [n for n in g.cells[1]
              if (n.startswith("h") and int(n[1:].split("_")[0]) < 2)
              or (n.startswith("w") and int(n[1:].split("_")[0]) <= 2)]
    redges = [n for n in g.cells[1] if n not in set(ledges)]
    left = subgraph_theory(t, lv, left_bd + cut, edges=ledges)
    right = subgraph_theory(t, rv, right_bd + cut, edges=redges)
    rep = glue_scalar(t, cut, left, right)
    assert rep.exact and rep.lagrangian


def test_glue_matches_crabtree_haynsworth():
    # the halves' DtN maps, summed on the cut and reduced onto in + out,
    # give the whole DtN map (quotient formula for Schur complements)
    rng = random.Random(404)
    for _ in range(25):
        t, cut, t_l, t_r = partitioned_theory(
            rng, rng.randint(4, 20), rng.randint(4, 20), rng.randint(1, 4))
        wb = set(t.boundary_names())
        in_v = sorted(wb & set(t_l.vertex_names))
        out_v = sorted(wb & set(t_r.vertex_names))
        names = in_v + cut + out_v
        pos = {v: i for i, v in enumerate(names)}
        total = [[Fraction(0)] * len(names) for _ in names]
        for op in (dtn(t_l, order=in_v + cut), dtn(t_r, order=cut + out_v)):
            for i, u in enumerate(op.vertices):
                for j, v in enumerate(op.vertices):
                    total[pos[u]][pos[v]] += op.matrix[i, j]
        glued = schur_complement(Matrix.from_rows(total),
                                 [pos[v] for v in in_v + out_v],
                                 [pos[v] for v in cut])
        assert glued == dtn(t, order=in_v + out_v).matrix


def test_glue_490_vertices():
    start = time.monotonic()
    t, cut, t_l, t_r = partitioned_theory(random.Random(490), 240, 240, 10)
    rep = glue_scalar(t, cut, t_l, t_r)
    assert rep.exact and rep.lagrangian
    assert time.monotonic() - start < 10


def test_glue_rejects_bad_partition():
    t5 = ScalarFieldTheory(path_complex(5))
    left = subgraph_theory(t5, ["v0", "v1"], ["v0", "v1"])
    right = subgraph_theory(t5, ["v2", "v3", "v4"], ["v2", "v4"])
    with pytest.raises(PartitionMismatch):
        glue_scalar(t5, ["v1"], left, right)


def test_on_shell_action_constant_data_is_zero():
    t = ScalarFieldTheory(path_complex(4))
    assert on_shell_action(t, {"v0": 3, "v3": 3}) == 0


def test_on_shell_action_path3():
    t = ScalarFieldTheory(path_complex(3))
    assert on_shell_action(t, {"v0": 0, "v2": 1}) == Fraction(1, 4)


def test_on_shell_action_matches_direct_evaluation():
    rng = random.Random(55)
    for _ in range(8):
        t = random_connected_theory(rng, rng.randint(4, 10), rng.randint(2, 3))
        data = {v: Fraction(rng.randint(-4, 4)) for v in t.boundary_names()}
        phi = harmonic_extension(t, data)
        assert on_shell_action(t, data) == t.energy(phi)


def test_free_particle_identity_and_composition():
    ident = mechanics_relation(MechanicsFixture("free_particle", t1=Fraction(0)))
    v = ident.source
    assert ident.body == identity_relation(v).body
    a = mechanics_relation(MechanicsFixture("free_particle", mass=Fraction(2),
                                            t0=Fraction(0), t1=Fraction(3)))
    b = mechanics_relation(MechanicsFixture("free_particle", mass=Fraction(2),
                                            t0=Fraction(3), t1=Fraction(7)))
    c = mechanics_relation(MechanicsFixture("free_particle", mass=Fraction(2),
                                            t0=Fraction(0), t1=Fraction(7)))
    assert compose(a, b).body == c.body
    assert a.is_canonical()


def test_oscillator_composition_and_identity():
    f01 = oscillator_flow(MechanicsFixture("oscillator", t0=0, t1=Fraction(3, 2)))
    f12 = oscillator_flow(MechanicsFixture("oscillator", t0=Fraction(3, 2),
                                           t1=Fraction(4)))
    f02 = oscillator_flow(MechanicsFixture("oscillator", t0=0, t1=Fraction(4)))
    for i in range(2):
        for j in range(2):
            comp = sum(f12[i][k] * f01[k][j] for k in range(2))
            assert abs(comp - f02[i][j]) < 1e-12
    ident = oscillator_flow(MechanicsFixture("oscillator", t0=5, t1=5))
    assert abs(ident[0][0] - 1) < 1e-12 and abs(ident[0][1]) < 1e-12
    assert abs(ident[1][0]) < 1e-12 and abs(ident[1][1] - 1) < 1e-12


def test_geodesic_reduction_dim_two():
    g = geodesic_fixture()
    red = presymplectic_reduce(g.space)
    assert red.space.dim == 2
    assert g.space.kernel_subspace().dim == 4


def test_geodesic_reduced_relation_is_identity():
    g = geodesic_fixture()
    red = presymplectic_reduce(g.space)
    rr = reduce_relation(g.relation, g.source_projection,
                         g.target_projection, red.space)
    assert rr.body == identity_relation(red.space).body
    assert rr.is_canonical()


def test_geodesic_alpha_not_basic():
    g = geodesic_fixture()
    with pytest.raises(NotBasic):
        reduce_one_form(g.space, g.alpha)


def test_dirac_counterexample_orders():
    for n in range(1, 5):
        space, rel, cls = dirac_counterexample(n)
        assert space.omega.is_zero()
        assert cls.is_isotropic
        assert not cls.is_coisotropic
        assert not cls.is_lagrangian
        assert rel.body.dim == 2 * (n + 2) - 1
        # with a vanishing form the complement is everything
        assert omega_complement(rel.ambient, rel.body).dim == 2 * (n + 2)


def test_dirac_order_one_dimensions():
    space, rel, _ = dirac_counterexample(1)
    assert space.dim == 3
    assert rel.body.dim == 5
    assert rel.body.ambient_dim == 6


def test_ed_boundary_circle():
    pkg, c, char = classical_boundary_ed(circle_complex(5))
    assert pkg.basic
    assert pkg.boundary_space.is_nondegenerate()
    assert classify(pkg.boundary_space, c).is_coisotropic
    assert char.contains_subspace(omega_complement(pkg.boundary_space, c))
    assert omega_complement(pkg.boundary_space, c) == char
    # B closed on one circle: one constant
    assert c.dim == 5 + 1


def test_ed_boundary_two_circles():
    two = disjoint_union(circle_complex(4, "a"), circle_complex(3, "b"))
    pkg, c, char = classical_boundary_ed(two)
    n = 7
    assert c.dim == n + 2  # one B constant per component
    assert classify(pkg.boundary_space, c).is_coisotropic


def test_bf_boundary_circle_reduction_dims():
    c, char = classical_boundary_bf(circle_complex(6))
    assert char.contains_subspace(char)
    assert c.contains_subspace(char)
    assert c.dim - char.dim == 2  # H^1 of the circle plus one B class


def test_bf_boundary_torus_reduction_dims():
    tor = torus_complex(3, 3)
    c, char = classical_boundary_bf(tor)
    assert c.contains_subspace(char)
    assert c.dim - char.dim == 4  # two copies of H^1 of the torus


def test_bf_circle_coisotropic():
    sigma = circle_complex(6)
    from bvkit.theories import ed_boundary_space

    space, _ = ed_boundary_space(sigma)
    c, char = classical_boundary_bf(sigma)
    assert classify(space, c).is_coisotropic
    assert omega_complement(space, c) == char
