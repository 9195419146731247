import ast
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bvkit.complexes import (
    CellComplex,
    NotCubical,
    circle_complex,
    coboundary,
    cohomology,
    grid_complex,
    path_complex,
    torus_complex,
)
from bvkit.numkit import (
    Matrix,
    Subspace,
    _schur_int_rows,
    kernel,
    schur_complement,
    solve_matrix,
    sparse_rank,
    vec,
)
from bvkit.relations import LinearRelation, compose, graph
from bvkit.symplect import (
    NotBasic,
    PresymplecticSpace,
    classify,
    presymplectic_reduce,
)
from bvkit.theories import (
    MechanicsFixture,
    NegativeWeight,
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
    mechanics_relation,
    on_shell_action,
    oscillator_flow,
    reduce_relation,
)
from test_acceptance import partitioned_theory
from test_complexes import (
    dense_edge_boundary,
    dense_faces,
    disjoint_union,
    hodge_star,
    subgraph_theory,
    triangulated_grid_complex,
    with_boundary_vertices,
)
from test_numkit import contains_subspace, dense_schur, int_form
from test_relations import one_rref_compose
from test_symplect import omega_complement


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
    bnames = set(rng.sample(names, boundary_count))
    cells = (tuple(names), enames)
    flags = (tuple(nm in bnames for nm in names), (False,) * len(enames))
    w = ((Fraction(1),) * n, tuple(weights))
    cx = CellComplex(cells, (dense_faces(dense_edge_boundary(names, edges)),),
                     flags, w, cubical=True)
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
    t = ScalarFieldTheory(CellComplex(cells, (dense_faces(d1),), flags, w,
                                      cubical=True))
    with pytest.raises(SingularInterior):
        dtn(t)


def test_dtn_refuses_an_order_that_repeats_a_vertex():
    t = ScalarFieldTheory(path_complex(3))
    for order in (["v0", "v2", "v2"], ["v0", "v0", "v2"], ["v2"]):
        with pytest.raises(ValueError,
                           match="order must enumerate the boundary vertices"):
            dtn(t, order=order)
    assert dtn(t, order=["v2", "v0"]).vertices == ("v2", "v0")


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


def random_incidence_theory(rng, n, n_edges):
    """A weighted graph-like complex whose edges have one to three faces
    (repeats allowed across edges, so parallel edges occur) with
    non-unit, fractional incidence coefficients and fractional weights,
    zeros among them."""
    names = tuple(f"v{i}" for i in range(n))
    d1 = [[Fraction(0)] * n_edges for _ in names]
    for j in range(n_edges):
        for a in rng.sample(range(n), rng.randint(1, min(3, n))):
            d1[a][j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                rng.choice([1, 1, 2, 3]))
    if n_edges > 1 and rng.random() < 0.5:  # an exact parallel copy
        for row in d1:
            row[-1] = row[0]
    cells = (names, tuple(f"e{j}" for j in range(n_edges)))
    flags = ((False,) * n, (False,) * n_edges)
    w = ((Fraction(1),) * n,
         tuple(Fraction(rng.choice([0, 1, 3, 7]), rng.randint(1, 4))
               for _ in range(n_edges)))
    return ScalarFieldTheory(CellComplex(cells,
                                         (dense_faces(Matrix.from_rows(d1)),),
                                         flags, w, cubical=True))


def test_laplacian_matches_dense_formula():
    rng = random.Random(23)
    theories = [random_connected_theory(rng, rng.randint(2, 12), 1)
                for _ in range(10)]
    theories += [random_incidence_theory(rng, rng.randint(1, 7),
                                         rng.randint(1, 9)) for _ in range(40)]
    seen = {"parallel": 0, "non_unit": 0, "fractional_weight": 0}
    for t in theories:
        d0 = coboundary(t.graph, 0)
        dense = d0.transpose() @ hodge_star(t.graph, 1) @ d0
        d, rows = t.laplacian()
        assert [{j: Fraction(x, d) for j, x in r.items()} for r in rows] == [
            {j: x for j, x in enumerate(r) if x} for r in dense.entries]
        assert all(type(x) is int for row in rows for x in row.values())
        faces = t.graph.faces(1)
        seen["parallel"] += len(set(faces)) < len(faces)
        seen["non_unit"] += any(abs(x) != 1 for f in faces for _, x in f)
        seen["fractional_weight"] += any(w.denominator > 1
                                         for w in t.graph.weights[1])
    assert min(seen.values()) >= 10, seen


def test_laplacian_refuses_a_negative_weight():
    """The Dirichlet energy is a minimum only for non-negative weights:
    a negative one is refused, naming its edge, where the Kron reduction
    would need a pivot off the diagonal (path(4) with weights (1, -1, 1)
    has the interior block [[0, 1], [1, 0]]). A zero weight is kept, and
    one that cuts an interior vertex off leaves the interior singular."""
    t = ScalarFieldTheory(path_complex(4, weights=[1, -1, 1]))
    for run in (t.laplacian, lambda: dtn(t),
                lambda: evolution_relation_scalar(t, ["v0"], ["v3"])):
        with pytest.raises(NegativeWeight,
                           match="^edge 'e1' has negative weight -1$"):
            run()
    with pytest.raises(NegativeWeight, match="^edge 'e0' has negative "
                                             "weight -1/2$"):
        ScalarFieldTheory(path_complex(3, weights=["-1/2", 1])).laplacian()
    zero = ScalarFieldTheory(path_complex(4, weights=[1, 0, 1]))
    assert dtn(zero).matrix == Matrix.zeros(2, 2)
    with pytest.raises(SingularInterior):
        dtn(ScalarFieldTheory(path_complex(3, weights=[0, 0])))


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
    rep = glue_scalar(t5, ["v2"], ["v0", "v1", "v2"], ["v2", "v3", "v4"])
    assert rep.exact and rep.lagrangian


def test_glue_cut_adjacent_to_boundary():
    # one side has no interior vertices at all
    t5 = ScalarFieldTheory(path_complex(5))
    rep = glue_scalar(t5, ["v1"], ["v0", "v1"], ["v1", "v2", "v3", "v4"])
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
    rep = glue_scalar(t, cut, lv, rv)
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
        glued = schur_complement(*int_form([{j: x for j, x in enumerate(r)
                                             if x} for r in total]),
                                 [pos[v] for v in in_v + out_v],
                                 [pos[v] for v in cut])
        assert glued == dtn(t, order=in_v + out_v).matrix


def test_glue_490_vertices():
    start = time.monotonic()
    t, cut, t_l, t_r = partitioned_theory(random.Random(490), 240, 240, 10)
    rep = glue_scalar(t, cut, t_l.vertex_names, t_r.vertex_names)
    assert rep.exact and rep.lagrangian
    assert time.monotonic() - start < 10


def test_glue_grid_21_left_to_right():
    # an edge goes left iff both its ends do
    start = time.monotonic()
    g = grid_complex(21, 21)
    column = {n: int(n[1:].split("_")[0]) for n in g.cells[0]}
    left_bd = [n for n in g.cells[0] if column[n] == 0]
    right_bd = [n for n in g.cells[0] if column[n] == 21]
    t = with_boundary_vertices(g, left_bd + right_bd)
    cut = [n for n in g.cells[0] if column[n] == 10]
    lv = {n for n in g.cells[0] if column[n] <= 10}
    rv = {n for n in g.cells[0] if column[n] >= 10}
    rep = glue_scalar(t, cut, lv, rv)
    assert rep.exact and rep.lagrangian
    assert time.monotonic() - start < 10


def solved_schur(a, keep, drop):
    """Oracle: a[K,K] - a[K,D] a[D,D]^-1 a[D,K] through `solve_matrix`,
    numkit's row-space path, which runs no Kron loop; None when a[D,D]
    has rank below its size. It stays fast where `dense_schur` does not:
    that takes 3.6 s at 100 vertices and 28 s at 200."""
    block = a.submatrix(drop, drop)
    if sparse_rank(block.data, block.cols) < len(drop):
        return None
    x = solve_matrix(block, -a.submatrix(drop, keep))
    return a.submatrix(keep, keep) + a.submatrix(keep, drop) @ x


def kron_ladder():
    """(theory, floating) pairs: seeded graphs with non-negative weights
    in two shapes. Glue-shaped graphs of 10 to 200 vertices: a random
    tree of positive weights plus a quarter as many extra edges, a third
    of which weigh 0, with two to four boundary vertices. Grids up to
    10 x 10 with positive weights and their boundary ring. A floating one
    has an interior component that touches no boundary vertex: a path of
    three more vertices for a graph, and an interior vertex whose four
    edges weigh 0 for a grid."""
    rng = random.Random(2011)

    def weight(zero=0):
        if rng.random() < zero:
            return Fraction(0)
        return Fraction(rng.randint(1, 5), rng.randint(1, 3))

    for n in (10, 20, 50, 100, 200):
        for floating in (False, True):
            names = [f"v{i}" for i in range(n + 3 * floating)]
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(n // 4)]
            edges += [(n, n + 1), (n + 1, n + 2)] * floating
            bset = set(rng.sample(range(n), rng.randint(2, 4)))
            cx = CellComplex(
                (tuple(names), tuple(f"e{j}" for j in range(len(edges)))),
                (tuple(((u, -1), (v, 1)) for u, v in edges),),
                (tuple(i in bset for i in range(len(names))),
                 (False,) * len(edges)),
                ((1,) * len(names), tuple(weight(zero=1 / 3 * (j >= n - 1))
                                          for j in range(len(edges)))),
                cubical=True)
            yield ScalarFieldTheory(cx), floating
    for k in range(1, 11):
        for floating in (False, True)[:1 + (k > 1)]:
            w = {(kind, i, j): weight() for kind in "hw"
                 for i in range(k + 1) for j in range(k + 1)}
            if floating:
                i, j = rng.randint(1, k - 1), rng.randint(1, k - 1)
                for key in (("h", i - 1, j), ("h", i, j), ("w", i, j - 1),
                            ("w", i, j)):
                    w[key] = 0
            yield ScalarFieldTheory(grid_complex(k, k, weights=w)), floating


def test_kron_reduction_ladder_matches_the_textbook_formula():
    """`_schur_int_rows` on the Laplacians of the ladder, read out, is
    the Schur complement onto the boundary by `solve_matrix`, and by
    `dense_schur` up to 25 interior vertices; a floating interior
    component makes it None."""
    seen = {"glue": 0, "grid": 0, "floating": 0, "zero_weight": 0,
            "dense": 0}
    for t, floating in kron_ladder():
        d, rows = t.laplacian()
        keep = t.graph.boundary_indices(0)
        drop = t.graph.interior_indices(0)
        a = Matrix(len(rows), len(rows),
                   [{j: Fraction(x, d) for j, x in r.items()} for r in rows])
        kept = _schur_int_rows(d, rows, keep, drop)
        want = solved_schur(a, keep, drop)
        if len(drop) <= 25:
            assert want == dense_schur(a, keep, drop)
            seen["dense"] += 1
        if floating:
            assert kept is None and want is None
            seen["floating"] += 1
            continue
        assert kept is not None
        pos = {j: k for k, j in enumerate(keep)}
        assert all(dk > 0 and dk % d == 0 for _, dk in kept)
        assert Matrix(len(keep), len(keep), [
            {pos[j]: Fraction(x, dk) for j, x in r.items()}
            for r, dk in kept]) == want
        seen["grid" if t.graph.dim == 2 else "glue"] += 1
        seen["zero_weight"] += 0 in t.graph.weights[1]
    assert seen == {"glue": 5, "grid": 10, "floating": 14,
                    "zero_weight": 4, "dense": 15}, seen


def dtn_relation(t, in_v, out_v):
    """Oracle: the evolution relation as it was built from the DtN map's
    Fraction entries, each spanning vector phi = e_j and chi = column j of
    Lambda (incoming chi sign-reversed), put through `Subspace.from_span`."""
    op = dtn(t, order=in_v + out_v)
    m_in, m = len(in_v), len(in_v) + len(out_v)
    span = []
    for j, row in enumerate(op.matrix.data):
        v = {j if j < m_in else m_in + j: 1}
        v.update((m_in + i, -x) if i < m_in else (m + i, x)
                 for i, x in row.items())
        span.append(v)
    return LinearRelation(PresymplecticSpace.standard(m_in),
                          PresymplecticSpace.standard(m - m_in),
                          Subspace.from_span(2 * m, span))


def glue_ladder():
    """(whole, cut, left half, right half): seeded partitioned graphs of
    49, 98 and 197 vertices with rational weights, the sizes of the glue
    benchmark, and grid(10, 10) with its left and right columns as
    boundary, cut at column 5. The halves are the `subgraph_theory`
    oracle's complexes."""
    rng = random.Random(4997)
    for nl, nr, nc in ((23, 23, 3), (47, 47, 4), (96, 96, 5)):
        yield partitioned_theory(rng, nl, nr, nc)
    g = grid_complex(10, 10)
    column = {n: int(n[1:].split("_")[0]) for n in g.cells[0]}
    t = with_boundary_vertices(g, [n for n in g.cells[0]
                                   if column[n] in (0, 10)])
    cut = [n for n in g.cells[0] if column[n] == 5]
    # an edge on the cut column goes left
    ends = [max(column[g.cells[0][i]] for i, _ in f) for f in g.faces(1)]
    halves = [([n for n in g.cells[0] if column[n] <= 5],
               [e for e, c in zip(g.cells[1], ends) if c <= 5], 0),
              ([n for n in g.cells[0] if column[n] >= 5],
               [e for e, c in zip(g.cells[1], ends) if c > 5], 10)]
    yield (t, cut, *(subgraph_theory(t, vs, cut + [n for n in g.cells[0]
                                                   if column[n] == at], es)
                     for vs, es, at in halves))


def test_glue_halves_are_edge_laplacians_over_the_whole_d():
    """Each half's Laplacian, assembled from its edges over the whole
    graph's D and vertex indices, is the oracle complex's Laplacian
    re-indexed; the two halves sum to the whole."""
    for t, cut, t_l, t_r in glue_ladder():
        edge = {e: j for j, e in enumerate(t.graph.cells[1])}
        index = {v: i for i, v in enumerate(t.vertex_names)}
        d, whole = t.laplacian()
        summed = [{} for _ in whole]
        for half in (t_l, t_r):
            d_h, rows = t.laplacian([edge[e] for e in half.graph.cells[1]])
            assert d_h == d
            d_s, oracle = half.laplacian()
            names = half.vertex_names
            for k, v in enumerate(names):
                assert {names[b]: Fraction(x, d_s)
                        for b, x in oracle[k].items()} == {
                    t.vertex_names[b]: Fraction(x, d)
                    for b, x in rows[index[v]].items()}
            assert not any(rows[i] for v, i in index.items()
                           if v not in set(names))
            for acc, row in zip(summed, rows):
                for b, x in row.items():
                    acc[b] = acc.get(b, 0) + x
        assert [{b: x for b, x in r.items() if x} for r in summed] == whole


def test_evolution_relation_matches_the_dtn_fraction_path():
    """The relation spanned by integer rows is the one from the DtN map's
    Fraction entries, on the whole graphs and on the oracle halves."""
    for t, cut, t_l, t_r in glue_ladder():
        wb = set(t.boundary_names())
        in_v = sorted(wb & set(t_l.vertex_names))
        out_v = sorted(wb & set(t_r.vertex_names))
        for theory, a, b in ((t, in_v, out_v), (t_l, in_v, cut),
                             (t_r, cut, out_v), (t, out_v, in_v)):
            assert evolution_relation_scalar(theory, a, b) == \
                dtn_relation(theory, a, b)


def test_glue_ladder_is_exact_and_lagrangian():
    """The composite is the oracle halves' relations composed by one RREF,
    and it equals the whole graph's relation."""
    for t, cut, t_l, t_r in glue_ladder():
        wb = set(t.boundary_names())
        in_v = sorted(wb & set(t_l.vertex_names))
        out_v = sorted(wb & set(t_r.vertex_names))
        rep = glue_scalar(t, cut, t_l.vertex_names, t_r.vertex_names)
        assert rep.exact and rep.lagrangian
        assert rep.composite.body == one_rref_compose(
            dtn_relation(t_l, in_v, cut), dtn_relation(t_r, cut, out_v))
        assert rep.composite.body == dtn_relation(t, in_v, out_v).body


def test_glue_rejects_bad_partition():
    t5 = ScalarFieldTheory(path_complex(5))
    with pytest.raises(PartitionMismatch):
        glue_scalar(t5, ["v1"], ["v0", "v1"], ["v2", "v3", "v4"])


def test_glue_refuses_an_edge_that_crosses_the_cut():
    t = with_boundary_vertices(circle_complex(6), ["v0", "v3"])
    with pytest.raises(PartitionMismatch, match="edge 'e5' crosses the cut"):
        glue_scalar(t, ["v1", "v4"], ["v0", "v1", "v4"],
                    ["v1", "v2", "v3", "v4", "v5"])


def test_only_glue_scalar_cuts_a_graph(monkeypatch):
    """The cut rule has one home, `theories.glue_scalar`, and its halves
    are Laplacian rows, not complexes: src/ defines no `subgraph_theory`
    (the tests keep it as their oracle), and a gluing constructs no
    `CellComplex`."""
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    defined = [f"{path.name}:{fn.name}" for path in sorted(src.glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               and fn.name == "subgraph_theory"]
    assert defined == []
    t, cut, t_l, t_r = partitioned_theory(random.Random(313), 9, 8, 3)
    built = []
    original = CellComplex.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(CellComplex, "__post_init__", counted)
    rep = glue_scalar(t, cut, t_l.vertex_names, t_r.vertex_names)
    assert rep.exact and rep.lagrangian
    assert built == []


def test_on_shell_action_constant_data_is_zero():
    t = ScalarFieldTheory(path_complex(4))
    assert on_shell_action(t, {"v0": 3, "v3": 3}) == 0


def test_on_shell_action_path3():
    t = ScalarFieldTheory(path_complex(3))
    assert on_shell_action(t, {"v0": 0, "v2": 1}) == Fraction(1, 4)


def energy(t, phi):
    """The Dirichlet energy of the field phi: half phi^T (R / D) phi, with
    t's Laplacian as (D, R)."""
    d, rows = t.laplacian()
    r_phi = [sum(x * phi[b] for b, x in row.items()) for row in rows]
    return Fraction(sum(a * b for a, b in zip(phi, r_phi)), 2 * d)


def harmonic_extension(t, boundary_values):
    """Reference solution of the interior field equations for given
    boundary data, by a dense solve of the interior Laplacian block."""
    names = list(t.vertex_names)
    i_idx = t.graph.interior_indices(0)
    lap = t.laplacian()[1]  # D L solves to the same phi as L
    phi = [Fraction(0)] * len(names)
    for v, x in boundary_values.items():
        phi[names.index(v)] = Fraction(x)
    if i_idx:
        interior = set(i_idx)
        a_ii = Matrix.from_rows([[lap[i].get(j, 0) for j in i_idx]
                                 for i in i_idx])
        rhs = Matrix.from_rows([[-sum((x * phi[j] for j, x in lap[i].items()
                                       if j not in interior), Fraction(0))]
                                for i in i_idx])
        sol = solve_matrix(a_ii, rhs)
        if sol is None:
            raise SingularInterior("interior Laplacian block is singular")
        for pos, j in enumerate(i_idx):
            phi[j] = sol[pos, 0]
    return tuple(phi)


def test_on_shell_action_matches_direct_evaluation():
    rng = random.Random(55)
    for _ in range(8):
        t = random_connected_theory(rng, rng.randint(4, 10), rng.randint(2, 3))
        data = {v: Fraction(rng.randint(-4, 4)) for v in t.boundary_names()}
        phi = harmonic_extension(t, data)
        assert on_shell_action(t, data) == energy(t, phi)


def test_free_particle_identity_and_composition():
    ident = mechanics_relation(MechanicsFixture("free_particle", t1=Fraction(0)))
    v = ident.source
    assert ident.body == graph(v, v, Matrix.identity(v.dim)).body
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
    v = red.space
    assert rr.body == graph(v, v, Matrix.identity(v.dim)).body
    assert rr.is_canonical()


def test_geodesic_alpha_not_basic():
    g = geodesic_fixture()
    with pytest.raises(NotBasic):
        presymplectic_reduce(g.space).descend(g.alpha)


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
    red, alpha, c, char = classical_boundary_ed(circle_complex(5))
    assert alpha is not None
    assert red.space.is_nondegenerate()
    assert classify(red.space, c).is_coisotropic
    assert contains_subspace(char, omega_complement(red.space, c))
    assert omega_complement(red.space, c) == char
    # B closed on one circle: one constant
    assert c.dim == 5 + 1


def test_ed_boundary_two_circles():
    two = disjoint_union(circle_complex(4, "a"), circle_complex(3, "b"))
    red, _, c, char = classical_boundary_ed(two)
    n = 7
    assert c.dim == n + 2  # one B constant per component
    assert classify(red.space, c).is_coisotropic


def test_bf_boundary_circle_reduction_dims():
    c, char = classical_boundary_bf(circle_complex(6))
    assert contains_subspace(char, char)
    assert contains_subspace(c, char)
    assert c.dim - char.dim == 2  # H^1 of the circle plus one B class


def test_bf_boundary_torus_reduction_dims():
    """The reduced classical boundary of BF theory is two copies of H^1
    of Sigma, whatever the cell count."""
    for sigma, h1 in ((torus_complex(2, 2), 2), (torus_complex(2, 5), 2),
                      (torus_complex(3, 3), 2), (torus_complex(4, 4), 2),
                      (torus_complex(8, 8), 2),
                      (disjoint_union(torus_complex(2, 2),
                                      torus_complex(2, 3)), 4)):
        c, char = classical_boundary_bf(sigma)
        assert contains_subspace(c, char)
        assert cohomology(sigma, 1).dimension == h1
        assert c.dim - char.dim == 2 * h1


def test_bf_circle_coisotropic():
    sigma = circle_complex(6)
    from bvkit.theories import ed_boundary_space

    space, _ = ed_boundary_space(sigma)
    c, char = classical_boundary_bf(sigma)
    assert classify(space, c).is_coisotropic
    assert omega_complement(space, c) == char
