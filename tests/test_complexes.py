import json
from fractions import Fraction

import pytest

from bvkit.complexes import (
    CellComplex,
    NotCubical,
    annulus_complex,
    circle_complex,
    coboundary,
    cohomology,
    disjoint_union,
    grid_complex,
    hodge_star,
    path_complex,
    torus_complex,
    triangulated_grid_complex,
    validate,
)
from bvkit.numkit import Matrix, vec
from test_numkit import from_dense


def betti(cx, relative=False):
    return [cohomology(cx, k, relative).dimension for k in range(cx.dim + 1)]


def boundary_subcomplex(cx):
    """The flagged cells as a standalone complex."""
    cells = tuple(tuple(cx.cells[k][i] for i in cx.boundary_indices(k))
                  for k in range(cx.dim + 1))
    dim = max((k for k in range(cx.dim + 1) if cells[k]), default=0)
    ops = []
    for k in range(1, dim + 1):
        ops.append(cx.boundary_op(k).submatrix(cx.boundary_indices(k - 1),
                                               cx.boundary_indices(k)))
    flags = tuple((False,) * len(cells[k]) for k in range(dim + 1))
    return CellComplex(cells[:dim + 1], tuple(ops), flags)


def test_validate_interval():
    assert validate(path_complex(3)) == []


def test_validate_flags_sign_error():
    g = grid_complex(1, 1)
    bad_d2 = Matrix.from_rows([[-r[0]] if i == 0 else [r[0]]
                               for i, r in enumerate(g.boundary_op(2).entries)])
    broken = CellComplex(g.cells, (g.boundary_op(1), bad_d2),
                         g.boundary_flags, g.weights, cubical=True)
    assert any("boundary of boundary" in p for p in validate(broken))


def test_validate_flags_open_boundary_subcomplex():
    g = path_complex(3)
    flags = (g.boundary_flags[0], (True, False))  # edge flagged, faces not
    broken = CellComplex(g.cells, g.boundary_ops, flags, g.weights,
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
    assert ann.euler_characteristic() == 0
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
                rep = cohomology(cx, k, rel)
                d = coboundary(cx, k)
                for v in rep.representative_basis:
                    assert all(x == 0 for x in d.apply(v))


def test_euler_characteristic_equals_alternating_betti_sum():
    for cx in [path_complex(4), circle_complex(5), grid_complex(3, 2),
               annulus_complex(3), torus_complex(3, 3),
               triangulated_grid_complex(2, 3)]:
        alt = sum((-1) ** k * cohomology(cx, k).dimension
                  for k in range(cx.dim + 1))
        assert cx.euler_characteristic() == alt


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
        assert again.boundary_ops == cx.boundary_ops
        assert again.boundary_flags == cx.boundary_flags
        assert again.weights == cx.weights


def test_grid_boundary_flags_disk():
    g = grid_complex(2, 2)
    assert len(g.boundary_indices(0)) == 8  # all but the center vertex
    assert len(g.boundary_indices(1)) == 8  # outer ring of edges
    assert torus_complex(3, 3).boundary_indices(0) == []


def dense_faces(cx, k):
    """Oracle: the face lists by a scan over the dense boundary_op(k)."""
    op = cx.boundary_op(k)
    return tuple(tuple((i, op[i, j]) for i in range(op.rows) if op[i, j])
                 for j in range(op.cols))


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
        ops.append(from_dense(len(m), len(cells[k]) if m else 0, m))
    weights = None
    if "weights" in data:
        weights = tuple(tuple(Fraction(w) for w in ws)
                        for ws in data["weights"])
    return tuple(ops), weights


def random_complex_dict(rng, dims=2):
    """A JSON complex whose face lists repeat faces (the last entry
    counts), carry "0" signs, come out of face order, and sometimes list
    a cell twice (the last listing counts)."""
    cells = [[f"c{k}_{i}" for i in range(rng.randint(1, 6))]
             for k in range(dims + 1)]
    signs = ["1", "-1", "0", "2", "-1/3", "5/2", 1, -2]
    boundary = []
    for k in range(1, dims + 1):
        for name in cells[k]:
            if rng.random() < 0.1:
                continue
            for _ in range(1 + (rng.random() < 0.2)):
                faces = [[rng.choice(cells[k - 1]), rng.choice(signs)]
                         for _ in range(rng.randint(0, 5))]
                rng.shuffle(faces)
                boundary.append({"cell": name, "faces": faces})
    rng.shuffle(boundary)
    return {"dims": dims, "cells": cells, "boundary": boundary,
            "weights": [[rng.choice(signs[3:]) for _ in cs] for cs in cells]}


def test_face_lists_from_json_match_dense_scan():
    import random

    rng = random.Random(71)
    seen = {"repeat": 0, "zero": 0, "unordered": 0}
    for _ in range(60):
        data = random_complex_dict(rng, rng.randint(1, 3))
        cx = CellComplex.from_dict(data)
        ops, weights = dense_from_dict(data)
        assert cx.boundary_ops == ops and cx.weights == weights
        fresh = CellComplex(cx.cells, cx.boundary_ops, cx.boundary_flags,
                            cx.weights)
        for k in range(1, cx.dim + 1):
            assert cx.faces(k) == dense_faces(cx, k) == fresh.faces(k)
            assert type(cx.faces(k)) is tuple
            assert all(type(f) is tuple for f in cx.faces(k))
        for entry in data["boundary"]:
            names = [f for f, _ in entry["faces"]]
            seen["repeat"] += len(set(names)) < len(names)
            seen["zero"] += any(s == "0" for _, s in entry["faces"])
            seen["unordered"] += names != sorted(names)
    assert min(seen.values()) >= 20, seen


def test_face_lists_of_subgraphs_and_boundary_choices_match_dense_scan():
    import random

    from bvkit.theories import (
        ScalarFieldTheory,
        subgraph_theory,
        with_boundary_vertices,
    )

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
        assert t.graph.faces(1) == dense_faces(t.graph, 1) == cx.faces(1)
        vs = rng.sample(names, rng.randint(0, n))
        bd = rng.sample(vs, rng.randint(0, len(vs)))
        picked = rng.sample(data["cells"][1], rng.randint(0, len(edges)))
        for es in (None, picked):
            sub = subgraph_theory(ScalarFieldTheory(cx), vs, bd, edges=es)
            g = sub.graph
            v_idx = [i for i, nm in enumerate(names) if nm in g.cells[0]]
            e_idx = [j for j, nm in enumerate(cx.cells[1]) if nm in g.cells[1]]
            assert g.boundary_op(1) == cx.boundary_op(1).submatrix(v_idx,
                                                                   e_idx)
            assert g.faces(1) == dense_faces(g, 1)


def test_replaced_complex_does_not_reuse_face_lists():
    from dataclasses import replace

    cx = CellComplex.from_dict(annulus_complex(3).to_dict())
    before = cx.faces(1)
    flipped = replace(cx, boundary_ops=(-cx.boundary_op(1),)
                      + cx.boundary_ops[1:])
    assert flipped.faces(1) == dense_faces(flipped, 1) != before
    assert flipped.faces(2) == cx.faces(2)
    assert cx.faces(1) is before


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
        CellComplex(g.cells, g.boundary_ops, g.boundary_flags, weights,
                    cubical=True)
