import json
from fractions import Fraction

import pytest

from bvkit.collar import prism
from bvkit.complexes import (
    CellComplex,
    NotCubical,
    _edge,
    _summed_faces,
    annulus_complex,
    circle_complex,
    coboundary,
    cohomology,
    grid_complex,
    hodge_weights,
    path_complex,
    torus_complex,
)
from bvkit.numkit import Matrix, _rref_rows, block_diag, kernel, vec
from bvkit.theories import ScalarFieldTheory
from test_numkit import from_dense


def validate(k):
    """Check the chain-complex and boundary-closure invariants; return a
    list of human-readable violations, empty when valid."""
    problems = []
    for deg in range(2, k.dim + 1):
        if not (k.boundary_op(deg - 1) @ k.boundary_op(deg)).is_zero():
            problems.append(f"boundary of boundary nonzero in degree {deg}")
    for deg in range(1, k.dim + 1):
        faces = k.faces(deg)
        for j in k.boundary_indices(deg):
            for i, _ in faces[j]:
                if not k.boundary_flags[deg - 1][i]:
                    problems.append(
                        f"boundary cell {k.cells[deg][j]} has unflagged "
                        f"face {k.cells[deg - 1][i]}")
    if k.weights is not None:
        for deg, ws in enumerate(k.weights):
            if any(w <= 0 for w in ws):
                problems.append(f"nonpositive weight in degree {deg}")
    return problems


def euler_characteristic(k):
    return sum((-1) ** d * k.n_cells(d) for d in range(k.dim + 1))


def hodge_star(k, degree):
    """Diagonal pairing of degree-k cochains with dual cochains via the
    per-cell weights; identity for unit weights."""
    w = hodge_weights(k, degree)
    return Matrix(len(w), len(w), [{i: x} if x else {}
                                   for i, x in enumerate(w)])


def disjoint_union(a, b):
    dim = max(a.dim, b.dim)

    def joined(in_a, in_b):
        """Per dimension, a's entries followed by b's."""
        return tuple((in_a[k] if k <= a.dim else ())
                     + (in_b[k] if k <= b.dim else ())
                     for k in range(dim + 1))

    # b's faces move past a's cells of one dimension lower; the leading
    # () below stands in for the vertices, which have no face lists
    b_faces = tuple(tuple(tuple((i + a.n_cells(k), x) for i, x in f)
                          for f in fs)
                    for k, fs in enumerate(b.face_lists))
    face_lists = joined(((),) + a.face_lists, ((),) + b_faces)[1:]
    weights = None
    if a.weights is not None and b.weights is not None:
        weights = joined(a.weights, b.weights)
    return CellComplex(joined(a.cells, b.cells), face_lists,
                       joined(a.boundary_flags, b.boundary_flags), weights,
                       cubical=a.cubical and b.cubical)


def triangulated_grid_complex(nx, ny, holes=()):
    """Triangulation of the grid by the diagonal from (i,j) to (i+1,j+1)."""
    base = grid_complex(nx, ny, holes=holes)
    hole_set = set(holes)
    squares = [(i, j) for j in range(ny) for i in range(nx)
               if (i, j) not in hole_set]
    vidx = {name: k for k, name in enumerate(base.cells[0])}
    # reuse the cubical edge layout and append one diagonal per square
    old_edges = base.cells[1]
    n_old = len(old_edges)
    eidx = {name: k for k, name in enumerate(old_edges)}
    diagonals, tris, tri_faces = [], [], []
    for c, (i, j) in enumerate(squares):
        diagonals.append(_edge(vidx[f"v{i}_{j}"], vidx[f"v{i + 1}_{j + 1}"]))
        bottom = eidx[f"h{i}_{j}"]
        top = eidx[f"h{i}_{j + 1}"]
        left = eidx[f"w{i}_{j}"]
        right = eidx[f"w{i + 1}_{j}"]
        diag = n_old + c
        tri_faces += [
            _summed_faces(((bottom, 1), (right, 1), (diag, -1))),
            _summed_faces(((diag, 1), (top, -1), (left, -1)))]
        tris += [f"t{i}_{j}a", f"t{i}_{j}b"]
    eflags = tuple(base.boundary_flags[1]) + (False,) * len(squares)
    cells = (base.cells[0],
             old_edges + tuple(f"d{i}_{j}" for (i, j) in squares),
             tuple(tris))
    flags = (base.boundary_flags[0], eflags, (False,) * len(tris))
    return CellComplex(cells, (base.faces(1) + tuple(diagonals),
                               tuple(tri_faces)),
                       flags, None, cubical=False)


def with_boundary_vertices(cx, names):
    """The graph theory on the 1-skeleton of a complex with a chosen
    boundary vertex set."""
    bset = set(names)
    cells = (cx.cells[0], cx.cells[1])
    flags = (tuple(n in bset for n in cells[0]), (False,) * len(cells[1]))
    w = cx.weights
    weights = ((1,) * len(cells[0]),
               w[1] if w is not None else (1,) * len(cells[1]))
    return ScalarFieldTheory(CellComplex(cells, (cx.faces(1),), flags,
                                         weights, cubical=True))


def cohomology_representatives(k, degree, relative=False):
    """Oracle for `cohomology`'s rank rule: representative cocycles in
    full cochain coordinates, the kernel basis vectors at pivot columns of
    one RREF of [image of d | kernel of d], that is, each one not in the
    span of the image and those before it."""
    d = coboundary(k, degree, relative)
    image = (coboundary(k, degree - 1, relative) if degree > 0
             else Matrix.zeros(d.cols, 0))
    cocycles = kernel(d)
    joint = image.hstack(cocycles.matrix().transpose())
    _, pivots = _rref_rows(joint.data, joint.cols)
    n = k.n_cells(degree)
    at = k.interior_indices(degree) if relative else range(n)
    reps = []
    for q in pivots:
        if q >= image.cols:
            full = [0] * n
            for pos, x in cocycles.basis[q - image.cols].items():
                full[at[pos]] = x
            reps.append(tuple(full))
    return tuple(reps)


def betti(cx, relative=False):
    return [cohomology(cx, k, relative).dimension for k in range(cx.dim + 1)]


def boundary_subcomplex(cx):
    """The flagged cells as a standalone complex."""
    cells = tuple(tuple(cx.cells[k][i] for i in cx.boundary_indices(k))
                  for k in range(cx.dim + 1))
    dim = max((k for k in range(cx.dim + 1) if cells[k]), default=0)
    faces = tuple(dense_faces(cx.boundary_op(k).submatrix(
        cx.boundary_indices(k - 1), cx.boundary_indices(k)))
        for k in range(1, dim + 1))
    flags = tuple((False,) * len(cells[k]) for k in range(dim + 1))
    return CellComplex(cells[:dim + 1], faces, flags)


def test_validate_interval():
    assert validate(path_complex(3)) == []


def test_validate_flags_sign_error():
    g = grid_complex(1, 1)
    bad_d2 = Matrix.from_rows([[-r[0]] if i == 0 else [r[0]]
                               for i, r in enumerate(g.boundary_op(2).entries)])
    broken = CellComplex(g.cells, (g.faces(1), dense_faces(bad_d2)),
                         g.boundary_flags, g.weights, cubical=True)
    assert any("boundary of boundary" in p for p in validate(broken))


def test_validate_flags_open_boundary_subcomplex():
    g = path_complex(3)
    flags = (g.boundary_flags[0], (True, False))  # edge flagged, faces not
    broken = CellComplex(g.cells, g.face_lists, flags, g.weights,
                         cubical=True)
    assert any("unflagged face" in p for p in validate(broken))


def test_validate_fixtures():
    for cx in [path_complex(5), circle_complex(6), grid_complex(3, 3),
               annulus_complex(3), torus_complex(3, 3),
               triangulated_grid_complex(2, 2),
               triangulated_grid_complex(3, 3, holes=[(1, 1)])]:
        assert validate(cx) == []


def test_coboundary_squares_to_zero():
    for cx in [grid_complex(4, 3), annulus_complex(3), torus_complex(4, 4),
               triangulated_grid_complex(3, 3, holes=[(1, 1)])]:
        for rel in (False, True):
            d0 = coboundary(cx, 0, rel)
            d1 = coboundary(cx, 1, rel)
            assert (d1 @ d0).is_zero()


def test_disk_cohomology():
    disk = grid_complex(3, 3)
    assert betti(disk) == [1, 0, 0]
    assert betti(disk, relative=True) == [0, 0, 1]


def test_annulus_cohomology():
    ann = annulus_complex(3)
    assert euler_characteristic(ann) == 0
    assert betti(ann) == [1, 1, 0]
    assert betti(ann, relative=True) == [0, 1, 1]


def test_circle_cohomology():
    assert betti(circle_complex(7)) == [1, 1]


def test_torus_cohomology():
    assert betti(torus_complex(3, 3)) == [1, 2, 1]


def test_two_circles_cohomology():
    two = disjoint_union(circle_complex(4, "a"), circle_complex(5, "b"))
    assert validate(two) == []
    assert betti(two) == [2, 2]


def test_triangulated_matches_cubical_disk_and_annulus():
    assert betti(triangulated_grid_complex(3, 3)) == [1, 0, 0]
    assert betti(triangulated_grid_complex(3, 3, holes=[(1, 1)])) == [1, 1, 0]


def test_representatives_are_independent_cocycles():
    for cx in [annulus_complex(3), torus_complex(3, 3)]:
        for k in range(cx.dim + 1):
            for rel in (False, True):
                reps = cohomology_representatives(cx, k, rel)
                assert len(reps) == cohomology(cx, k, rel).dimension
                d = coboundary(cx, k)
                for v in reps:
                    assert all(x == 0 for x in d.apply(v))


def test_euler_characteristic_equals_alternating_betti_sum():
    for cx in [path_complex(4), circle_complex(5), grid_complex(3, 2),
               annulus_complex(3), torus_complex(3, 3),
               triangulated_grid_complex(2, 3)]:
        alt = sum((-1) ** k * cohomology(cx, k).dimension
                  for k in range(cx.dim + 1))
        assert euler_characteristic(cx) == alt


def test_long_exact_sequence_alternating_sum_vanishes():
    for cx in [grid_complex(3, 3), annulus_complex(3),
               triangulated_grid_complex(3, 3, holes=[(1, 1)])]:
        bd = boundary_subcomplex(cx)
        total = 0
        for k in range(cx.dim + 1):
            total += (-1) ** k * (cohomology(cx, k, relative=True).dimension
                                  - cohomology(cx, k).dimension
                                  + (cohomology(bd, k).dimension
                                     if k <= bd.dim else 0))
        assert total == 0


def test_relative_inclusion_commutes_with_coboundary():
    cx = annulus_complex(3)
    for k in range(cx.dim):
        d_rel = coboundary(cx, k, relative=True)
        d_abs = coboundary(cx, k)
        inc_k = Matrix.identity(cx.n_cells(k)).submatrix(
            range(cx.n_cells(k)), cx.interior_indices(k))
        inc_k1 = Matrix.identity(cx.n_cells(k + 1)).submatrix(
            range(cx.n_cells(k + 1)), cx.interior_indices(k + 1))
        assert d_abs @ inc_k == inc_k1 @ d_rel


def test_hodge_star_unit_weights():
    cx = path_complex(4)
    assert hodge_star(cx, 0) == Matrix.identity(4)
    g = grid_complex(2, 2)
    assert hodge_star(g, 1) == Matrix.identity(g.n_cells(1))


def test_hodge_star_weighted_pairing_symmetry():
    g = grid_complex(2, 1, weights={("h", (0, 0)): Fraction(3, 2),
                                    ("w", (1, 0)): Fraction(2, 5)})
    star = hodge_star(g, 1)
    n = g.n_cells(1)
    assert all(star[i, j] == 0 for i in range(n) for j in range(n) if i != j)
    assert all(star[i, i] > 0 for i in range(n))
    # induced pairing <a, *b> is symmetric for a diagonal star
    for i in range(n):
        for j in range(n):
            a = vec([1 if t == i else 0 for t in range(n)])
            b = vec([1 if t == j else 0 for t in range(n)])
            lhs = sum(x * y for x, y in zip(a, star.apply(b)))
            rhs = sum(x * y for x, y in zip(b, star.apply(a)))
            assert lhs == rhs


def test_hodge_star_rejects_non_cubical():
    with pytest.raises(NotCubical):
        hodge_star(triangulated_grid_complex(2, 2), 1)


def test_json_roundtrip():
    for cx in [path_complex(4), annulus_complex(3)]:
        again = CellComplex.from_dict(cx.to_dict())
        assert again.cells == cx.cells
        assert again.face_lists == cx.face_lists
        assert all(again.boundary_op(k) == cx.boundary_op(k)
                   for k in range(cx.dim + 2))
        assert again.boundary_flags == cx.boundary_flags
        assert again.weights == cx.weights


def test_grid_boundary_flags_disk():
    g = grid_complex(2, 2)
    assert len(g.boundary_indices(0)) == 8  # all but the center vertex
    assert len(g.boundary_indices(1)) == 8  # outer ring of edges
    assert torus_complex(3, 3).boundary_indices(0) == []


def subgraph_theory(t, vertices, boundary, edges):
    """Oracle for `glue_scalar`'s halves: the theory on a vertex subset
    and the named edges, as a complex of its own. Face lists are the
    parent's, re-indexed to the kept vertices; ends outside the subset
    are dropped."""
    g = t.graph
    vset, eset = set(vertices), set(edges)
    v_idx = [i for i, n in enumerate(g.cells[0]) if n in vset]
    parent_faces = g.faces(1)
    e_idx = [j for j in range(g.n_cells(1)) if g.cells[1][j] in eset]
    pos = {i: k for k, i in enumerate(v_idx)}
    faces = tuple(tuple((pos[i], x) for i, x in parent_faces[j] if i in pos)
                  for j in e_idx)
    cells = (tuple(g.cells[0][i] for i in v_idx),
             tuple(g.cells[1][j] for j in e_idx))
    bset = set(boundary)
    flags = (tuple(n in bset for n in cells[0]), (False,) * len(e_idx))
    w1 = hodge_weights(g, 1)
    w = ((1,) * len(v_idx), tuple(w1[j] for j in e_idx))
    return ScalarFieldTheory(CellComplex(cells, (faces,), flags, w,
                                         cubical=True))


def dense_faces(op):
    """Oracle: the face lists of the columns of a boundary matrix, by a
    scan over its dense entries."""
    return tuple(tuple((i, op[i, j]) for i in range(op.rows) if op[i, j])
                 for j in range(op.cols))


def dense_edge_boundary(vertex_names, edges):
    """Oracle: the vertex-by-edge incidence table of edges given as
    (tail, head) vertex names, one dense entry at a time."""
    idx = {v: i for i, v in enumerate(vertex_names)}
    m = [[Fraction(0)] * len(edges) for _ in vertex_names]
    for j, (a, b) in enumerate(edges):
        m[idx[a]][j] -= 1
        m[idx[b]][j] += 1
    return from_dense(len(m), len(edges), m)


def dense_grid(nx, ny, holes=(), periodic=False):
    """Oracle: grid_complex's incidence tables and boundary flags by
    dense V x E and E x F tables, and the vertex flags by a scan of every
    vertex against every flagged edge."""
    def wrap(i, j):
        return (i % nx, j % ny) if periodic else (i, j)

    squares = [(i, j) for j in range(ny) for i in range(nx)
               if (i, j) not in set(holes)]
    verts = sorted({wrap(i + a, j + b) for i, j in squares
                    for a in (0, 1) for b in (0, 1)})
    hes = sorted({wrap(i, j + b) for i, j in squares for b in (0, 1)})
    ves = sorted({wrap(i + a, j) for i, j in squares for a in (0, 1)})
    vidx = {v: i for i, v in enumerate(verts)}
    eidx = {("h", e): i for i, e in enumerate(hes)}
    eidx.update({("w", e): len(hes) + i for i, e in enumerate(ves)})
    n_e = len(hes) + len(ves)
    d1 = [[Fraction(0)] * n_e for _ in verts]
    for kind, es, step in (("h", hes, (1, 0)), ("w", ves, (0, 1))):
        for i, j in es:
            d1[vidx[wrap(i, j)]][eidx[(kind, (i, j))]] -= 1
            d1[vidx[wrap(i + step[0], j + step[1])]][eidx[(kind, (i, j))]] += 1
    d2 = [[Fraction(0)] * len(squares) for _ in range(n_e)]
    edge_use = [0] * n_e
    for c, (i, j) in enumerate(squares):
        sides = [(("h", wrap(i, j)), 1), (("w", wrap(i + 1, j)), 1),
                 (("h", wrap(i, j + 1)), -1), (("w", wrap(i, j)), -1)]
        for side, sign in sides:
            d2[eidx[side]][c] += sign
            edge_use[eidx[side]] += 1
    eflags = tuple(u < 2 for u in edge_use)
    vflags = tuple(any(eflags[e] and d1[v][e] != 0 for e in range(n_e))
                   for v in range(len(verts)))
    ops = (from_dense(len(verts), n_e, d1),
           from_dense(n_e, len(squares), d2))
    return ops, (vflags, eflags, (False,) * len(squares))


def dense_triangulated(nx, ny, holes=()):
    """Oracle: triangulated_grid_complex's tables, the grid's d1 with one
    diagonal column per square and two triangle columns per square."""
    (d1, d2), _ = dense_grid(nx, ny, holes)
    squares = [(i, j) for j in range(ny) for i in range(nx)
               if (i, j) not in set(holes)]
    names = grid_complex(nx, ny, holes=holes).cells
    vidx = {n: i for i, n in enumerate(names[0])}
    eidx = {n: i for i, n in enumerate(names[1])}
    n_old = len(names[1])
    t1 = [list(r) + [Fraction(0)] * len(squares) for r in d1.entries]
    t2 = [[Fraction(0)] * (2 * len(squares))
          for _ in range(n_old + len(squares))]
    for c, (i, j) in enumerate(squares):
        t1[vidx[f"v{i}_{j}"]][n_old + c] -= 1
        t1[vidx[f"v{i + 1}_{j + 1}"]][n_old + c] += 1
        lo, hi, diag = 2 * c, 2 * c + 1, n_old + c
        for e, col, sign in ((f"h{i}_{j}", lo, 1), (f"w{i + 1}_{j}", lo, 1),
                             (f"h{i}_{j + 1}", hi, -1), (f"w{i}_{j}", hi, -1)):
            t2[eidx[e]][col] += sign
        t2[diag][lo] -= 1
        t2[diag][hi] += 1
    return (from_dense(len(t1), n_old + len(squares), t1),
            from_dense(len(t2), 2 * len(squares), t2))


def dense_prism(base, layers):
    """Oracle: prism's tables, d(edge x interval) = (d edge) x interval -
    edge x d(interval), filled one dense entry at a time."""
    n0, n1, nt = base.n_cells(0), base.n_cells(1), layers + 1
    d_base = base.boundary_op(1).entries if n1 else ()
    n_ve = layers * n0
    d1 = [[Fraction(0)] * (n_ve + nt * n1) for _ in range(nt * n0)]
    for t in range(layers):
        for c in range(n0):
            d1[t * n0 + c][t * n0 + c] -= 1
            d1[(t + 1) * n0 + c][t * n0 + c] += 1
    d2 = [[Fraction(0)] * (layers * n1) for _ in range(n_ve + nt * n1)]
    for t in range(nt):
        for c in range(n1):
            for r in range(n0):
                d1[t * n0 + r][n_ve + t * n1 + c] += d_base[r][c]
                if t < layers:
                    d2[t * n0 + r][t * n1 + c] += d_base[r][c]
            if t < layers:
                d2[n_ve + (t + 1) * n1 + c][t * n1 + c] -= 1
                d2[n_ve + t * n1 + c][t * n1 + c] += 1
    ops = (from_dense(len(d1), n_ve + nt * n1, d1),)
    if base.dim >= 1:
        ops += (from_dense(len(d2), layers * n1, d2),)
    return ops


def dense_from_dict(data):
    """Oracle: the incidence matrices and weights by the dense rule, one
    matrix entry per listed face with later entries overwriting earlier
    ones; raises what a malformed complex makes that rule raise."""
    cells = tuple(tuple(c) for c in data["cells"])
    index = [{name: i for i, name in enumerate(cs)} for cs in cells]
    face_map = {entry["cell"]: entry["faces"] for entry in data["boundary"]}
    ops = []
    for k in range(1, data["dims"] + 1):
        m = [[Fraction(0)] * len(cells[k]) for _ in range(len(cells[k - 1]))]
        for j, name in enumerate(cells[k]):
            for face, sign in face_map.get(name, []):
                m[index[k - 1][face]][j] = Fraction(sign)
        ops.append(from_dense(len(m), len(cells[k]), m))
    weights = None
    if "weights" in data:
        weights = tuple(tuple(Fraction(w) for w in ws)
                        for ws in data["weights"])
    return tuple(ops), weights


def random_complex_dict(rng, dims=2, any_faces=False):
    """A JSON complex whose face lists repeat faces (the last entry
    counts), carry "0" signs, come out of face order, and sometimes list
    a cell twice (the last listing counts). A cell of dimension 2 or more
    takes its faces from the cells below it that are listed with none,
    so that the boundary of its boundary is zero; with `any_faces`, from
    all of them, so that it seldom is."""
    cells = [[f"c{k}_{i}" for i in range(rng.randint(1, 6))]
             for k in range(dims + 1)]
    signs = ["1", "-1", "0", "2", "-1/3", "5/2", 1, -2]
    boundary = []
    bare = set(cells[0])
    for k in range(1, dims + 1):
        pool = [c for c in cells[k - 1] if any_faces or c in bare]
        for name in cells[k]:
            if rng.random() < 0.1 or not pool:
                bare.add(name)
                continue
            listed_bare = k < dims and rng.random() < 0.3
            for _ in range(1 + (rng.random() < 0.2)):
                faces = [] if listed_bare else [
                    [rng.choice(pool), rng.choice(signs)]
                    for _ in range(rng.randint(0, 5))]
                rng.shuffle(faces)
                boundary.append({"cell": name, "faces": faces})
            if listed_bare:
                bare.add(name)
    rng.shuffle(boundary)
    return {"dims": dims, "cells": cells, "boundary": boundary,
            "weights": [[rng.choice(signs[3:]) for _ in cs] for cs in cells]}


def test_face_lists_from_json_match_dense_scan():
    import random

    rng = random.Random(71)
    seen = {"repeat": 0, "zero": 0, "unordered": 0, "two_cells": 0}
    for _ in range(60):
        data = random_complex_dict(rng, rng.randint(1, 3))
        cx = CellComplex.from_dict(data)
        ops, weights = dense_from_dict(data)
        assert cx.weights == weights
        assert tuple(cx.boundary_op(k) for k in range(1, cx.dim + 1)) == ops
        for k in range(1, cx.dim + 1):
            assert cx.faces(k) == dense_faces(ops[k - 1])
            assert coboundary(cx, k - 1) == ops[k - 1].transpose()
            assert type(cx.faces(k)) is tuple
            assert all(type(f) is tuple for f in cx.faces(k))
        seen["two_cells"] += any(cx.faces(k)[j] for k in range(2, cx.dim + 1)
                                 for j in range(cx.n_cells(k)))
        for entry in data["boundary"]:
            names = [f for f, _ in entry["faces"]]
            seen["repeat"] += len(set(names)) < len(names)
            seen["zero"] += any(s == "0" for _, s in entry["faces"])
            seen["unordered"] += names != sorted(names)
    assert min(seen.values()) >= 20, seen


def test_from_dict_refuses_a_cell_whose_boundary_has_a_boundary():
    """d(d(c)) = 0 for every cell c of dimension 2 or more, checked
    against the dense product of the incidence matrices: a complex where
    it fails is refused, naming its first such cell."""
    import random

    rng = random.Random(75)
    seen = {True: 0, False: 0}
    for _ in range(120):
        data = random_complex_dict(rng, rng.randint(2, 3), any_faces=True)
        ops, _ = dense_from_dict(data)
        bad = [name for k in range(2, len(ops) + 1)
               for name, col in zip(data["cells"][k],
                                    (ops[k - 2] @ ops[k - 1]).transpose().data)
               if col]
        seen[bool(bad)] += 1
        if not bad:
            assert CellComplex.from_dict(data).boundary_op(1) == ops[0]
            continue
        want = f"^the boundary of the boundary of cell '{bad[0]}' is not zero$"
        with pytest.raises(ValueError, match=want):
            CellComplex.from_dict(data)
    assert min(seen.values()) >= 20, seen


def test_face_lists_of_subgraphs_and_boundary_choices_match_dense_scan():
    import random

    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(2, 12)
        names = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randint(1, 2 * n))]
        enames = [f"e{j}" for j in range(len(edges))]
        data = {"dims": 1, "cells": [names, enames],
                "boundary": [{"cell": f"e{j}", "faces": [[a, "-1"], [b, "1"]]}
                             for j, (a, b) in enumerate(edges)],
                "weights": [["1"] * n,
                            [f"{rng.randint(1, 5)}/{rng.randint(1, 3)}"
                             for _ in edges]],
                "cubical": True}
        cx = CellComplex.from_dict(data)
        chosen = rng.sample(names, rng.randint(0, n))
        t = with_boundary_vertices(cx, chosen)
        assert t.graph.faces(1) == dense_faces(t.graph.boundary_op(1)) \
            == cx.faces(1)
        vs = rng.sample(names, rng.randint(0, n))
        bd = rng.sample(vs, rng.randint(0, len(vs)))
        picked = rng.sample(data["cells"][1], rng.randint(0, len(edges)))
        induced = [e for e, (a, b) in zip(enames, edges)
                   if a in vs and b in vs]
        for es in (induced, picked):
            sub = subgraph_theory(ScalarFieldTheory(cx), vs, bd, edges=es)
            g = sub.graph
            v_idx = [i for i, nm in enumerate(names) if nm in g.cells[0]]
            e_idx = [j for j, nm in enumerate(cx.cells[1]) if nm in g.cells[1]]
            assert g.boundary_op(1) == cx.boundary_op(1).submatrix(v_idx,
                                                                   e_idx)
            assert g.faces(1) == dense_faces(g.boundary_op(1))


def test_replaced_complex_does_not_reuse_face_lists():
    from dataclasses import replace

    cx = CellComplex.from_dict(annulus_complex(3).to_dict())
    before = cx.boundary_op(1)
    flipped = replace(cx, face_lists=(dense_faces(-before),)
                      + cx.face_lists[1:])
    assert flipped.boundary_op(1) == -before != before
    assert coboundary(flipped, 0) == -coboundary(cx, 0)
    assert flipped.boundary_op(2) == cx.boundary_op(2)
    assert cx.boundary_op(1) == before


def _mutated(data, where, value):
    data = json.loads(json.dumps(data))
    if where == "sign":
        data["boundary"][0]["faces"][0][1] = value
    elif where == "face":
        data["boundary"][0]["faces"][0][0] = value
    else:
        data["weights"][1][0] = value
    return data


@pytest.mark.parametrize("where, value", [
    ("sign", ["1"]), ("sign", {"1": 1}), ("sign", "1/0"), ("sign", "one"),
    ("sign", None), ("face", "nope"), ("face", ["v0"]),
    ("weight", "1/0"), ("weight", [1]), ("weight", "x"),
], ids=["unhashable-list-sign", "unhashable-dict-sign", "zero-denominator",
        "non-number-sign", "null-sign", "unknown-face", "unhashable-face",
        "zero-denominator-weight", "unhashable-weight", "non-number-weight"])
def test_malformed_complex_raises_what_the_dense_rule_raises(where, value):
    data = _mutated(path_complex(3).to_dict(), where, value)
    with pytest.raises(Exception) as want:
        dense_from_dict(data)
    with pytest.raises(type(want.value)) as got:
        CellComplex.from_dict(data)
    assert repr(got.value) == repr(want.value)


@pytest.mark.parametrize("weights", [
    ((Fraction(1),) * 3, (Fraction(1),)),
    ((Fraction(1),) * 3, (Fraction(1),) * 3),
    ((Fraction(1),) * 2, (Fraction(1),) * 2),
    ((Fraction(1),) * 3,),
    ((Fraction(1),) * 3, (Fraction(1),) * 2, ()),
], ids=["short-edges", "long-edges", "short-vertices", "missing-degree",
        "extra-degree"])
def test_weights_must_match_the_cells(weights):
    g = path_complex(3)
    with pytest.raises(ValueError, match="one weight per cell"):
        CellComplex(g.cells, g.face_lists, g.boundary_flags, weights,
                    cubical=True)


def _interior(flags):
    return [i for i, b in enumerate(flags) if not b]


def _prism_flags(base, layers):
    f0, n1 = base.boundary_flags[0], base.n_cells(1)
    vflags = tuple(t == 0 or b for t in range(layers + 1) for b in f0)
    eflags = tuple(t == 0 for t in range(layers + 1) for _ in range(n1))
    flags = (vflags, tuple(f0) * layers + eflags)
    return flags + ((False,) * (layers * n1),) if base.dim >= 1 else flags


def _dense_union(a, b):
    """Oracle: disjoint_union's tables as block sums of the parts'."""
    def op(cx, k):
        return cx.boundary_op(k) if k <= cx.dim else Matrix.zeros(
            cx.n_cells(k - 1), 0)

    dim = max(a.dim, b.dim)
    ops = tuple(block_diag(op(a, k), op(b, k)) for k in range(1, dim + 1))
    flags = tuple((a.boundary_flags[k] if k <= a.dim else ())
                  + (b.boundary_flags[k] if k <= b.dim else ())
                  for k in range(dim + 1))
    return ops, flags


def _oracle_cases():
    point = CellComplex.from_dict({"dims": 0, "cells": [["p"]],
                                   "boundary": [], "boundary_flags": ["p"]})
    for n in (1, 2, 4):
        vs = [f"v{i}" for i in range(n)]
        ends = [(vs[i], vs[i + 1]) for i in range(n - 1)]
        for bd in (None, [n - 1]):
            want = [0, n - 1] if bd is None else bd
            flags = (tuple(i in want for i in range(n)),
                     (False,) * (n - 1))
            yield (f"path{n}", path_complex(n, boundary=bd),
                   (dense_edge_boundary(vs, ends),), flags)
    for n in (1, 2, 5):
        vs = [f"v{i}" for i in range(n)]
        ends = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
        yield (f"circle{n}", circle_complex(n),
               (dense_edge_boundary(vs, ends),), ((False,) * n,) * 2)
    for nx, ny, holes, periodic in [
            (1, 1, (), False), (3, 2, (), False),
            (4, 3, [(0, 0), (2, 1)], False), (5, 5, [(2, 2)], False), (3, 3, [(0, 0), (1, 1), (2, 2)], False),
            (1, 1, (), True), (1, 2, (), True), (2, 1, (), True),
            (3, 3, (), True)]:
        ops, flags = dense_grid(nx, ny, holes, periodic)
        yield (f"grid{nx}x{ny}{holes}{periodic}",
               grid_complex(nx, ny, holes=holes, periodic=periodic), ops,
               flags)
    for nx, ny, holes in [(2, 2, ()), (3, 3, [(1, 1)]), (3, 2, [(0, 1)])]:
        grid_flags = dense_grid(nx, ny, holes)[1]
        n = nx * ny - len(holes)
        flags = (grid_flags[0], grid_flags[1] + (False,) * n,
                 (False,) * (2 * n))
        yield (f"tri{nx}x{ny}{holes}",
               triangulated_grid_complex(nx, ny, holes=holes),
               dense_triangulated(nx, ny, holes), flags)
    for a, b in [(circle_complex(3, "a"), grid_complex(2, 1)),
                 (grid_complex(1, 2), path_complex(3)),
                 (circle_complex(1, "a"), circle_complex(2, "b"))]:
        yield ("union", disjoint_union(a, b)) + _dense_union(a, b)
    for base in (point, path_complex(3), circle_complex(3), circle_complex(1)):
        for layers in (1, 2, 3):
            yield (f"prism{base.cells[0]}x{layers}", prism(base, layers),
                   dense_prism(base, layers), _prism_flags(base, layers))


def test_builders_match_dense_incidence_tables():
    seen = {"cancelled": 0, "prism over a point": 0}
    for name, cx, ops, flags in _oracle_cases():
        assert cx.boundary_flags == flags, name
        assert validate(cx) == [], name
        assert len(cx.face_lists) == len(ops) == cx.dim, name
        for k, op in enumerate(ops, 1):
            assert cx.boundary_op(k) == op, name
            assert cx.faces(k) == dense_faces(op), name
            assert all(x for f in cx.faces(k) for _, x in f), name
            d = op.transpose()
            assert coboundary(cx, k - 1) == d, name
            assert coboundary(cx, k - 1, relative=True) == d.submatrix(
                _interior(flags[k]), _interior(flags[k - 1])), name
            seen["cancelled"] += sum(not any(col)
                                     for col in op.transpose().data)
        top = cx.n_cells(cx.dim)
        assert cx.boundary_op(cx.dim + 1) == Matrix.zeros(top, 0)
        assert coboundary(cx, cx.dim) == Matrix.zeros(0, top)
        assert cx.faces(0) == ((),) * cx.n_cells(0)
        seen["prism over a point"] += cx.dim == 1 and "|" in cx.cells[0][0]
    # circle(1) cancels its edge, torus(1, 1) its square and both edges
    assert seen["cancelled"] >= 10 and seen["prism over a point"] == 3, seen


def grows_span_cohomology(cx, degree, relative=False):
    """Oracle: the representatives by dense elimination, reducing each
    image column and then each kernel basis vector by the pivot rows
    found so far; a kernel vector that leaves a remainder is kept."""
    pivots = []

    def grows_span(v):
        w = list(v)
        for p, row in pivots:
            c = w[p]
            if c:
                w = [y - c * x if x else y for y, x in zip(w, row)]
        p = next((j for j, x in enumerate(w) if x), None)
        if p is not None:
            pivots.append((p, [Fraction(x, w[p]) for x in w]))
        return p is not None

    if degree > 0:
        d_below = coboundary(cx, degree - 1, relative)
        for col in d_below.transpose().entries:
            grows_span(col)
    cocycles = kernel(coboundary(cx, degree, relative))
    reps = [v for v in cocycles.matrix().entries if grows_span(v)]
    if relative:
        idx = cx.interior_indices(degree)
        full = [[Fraction(0)] * cx.n_cells(degree) for _ in reps]
        for f, r in zip(full, reps):
            for pos, i in enumerate(idx):
                f[i] = r[pos]
        reps = [tuple(f) for f in full]
    return tuple(reps)


def test_cohomology_representatives_match_dense_elimination():
    fixtures = [cx for _, cx, _, _ in _oracle_cases()] + [
        annulus_complex(3), annulus_complex(5), torus_complex(1, 1),
        torus_complex(4, 3),
        disjoint_union(circle_complex(4, "a"), circle_complex(5, "b"))]
    nonzero = 0
    for cx in fixtures:
        for k in range(cx.dim + 1):
            for rel in (False, True):
                want = grows_span_cohomology(cx, k, rel)
                assert cohomology_representatives(cx, k, rel) == want
                assert cohomology(cx, k, rel).dimension == len(want)
                nonzero += bool(want)
    assert nonzero >= 40, nonzero


@pytest.mark.parametrize("what, change", [
    ("face list", lambda g: {"face_lists": ()}),
    ("face list", lambda g: {"face_lists": (g.faces(1)[:1],)}),
    ("face list", lambda g: {"face_lists": (g.faces(1) + ((),),)}),
    ("face list", lambda g: {"face_lists": (g.faces(1), ())}),
    ("boundary flag", lambda g: {"boundary_flags": g.boundary_flags[:1]}),
    ("boundary flag", lambda g: {"boundary_flags":
                                 ((True,) * 2, (False,) * 2)}),
    ("boundary flag", lambda g: {"boundary_flags":
                                 g.boundary_flags + ((),)}),
], ids=["no-edge-lists", "short-edge-lists", "long-edge-lists",
        "extra-degree-lists", "missing-flag-degree", "short-vertex-flags",
        "extra-flag-degree"])
def test_face_lists_and_flags_must_match_the_cells(what, change):
    from dataclasses import replace

    with pytest.raises(ValueError, match=f"one {what} per cell"):
        replace(path_complex(3), **change(path_complex(3)))
