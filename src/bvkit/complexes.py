"""Finite cell complexes (paths, circles, cubical grids, triangulations)
with boundary subcomplexes, coboundary operators, absolute and relative
rational cohomology, and a diagonal Hodge star on cubical grids.

Cubical orientation convention, fixed once: a square with lower-left
corner (i, j) has boundary bottom + right - top - left; an edge points
from its lexicographically smaller endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .numkit import (
    Matrix,
    Number,
    Vector,
    _rref_rows,
    frac,
    frac_reader,
    kernel,
)


class NotCubical(ValueError):
    pass


# (face index, incidence coefficient) pairs of one cell, by face index
Faces = tuple[tuple[int, Number], ...]


def _summed_faces(terms: Iterable[tuple[int, Number]]) -> Faces:
    """One cell's face list from (face index, coefficient) terms: terms
    on the same face add up, and faces whose terms cancel are dropped."""
    acc: dict[int, Number] = {}
    for i, x in terms:
        acc[i] = acc.get(i, 0) + x
    return tuple((i, x) for i, x in sorted(acc.items()) if x)


@dataclass(frozen=True)
class CellComplex:
    """Cells per dimension, their signed face lists, boundary markers.

    face_lists[k - 1][j] lists the faces of the j-th k-cell as (face
    index, incidence coefficient) pairs, nonzero and in face order. The
    boundary and coboundary matrices are built from them on each call.
    """

    cells: tuple[tuple[str, ...], ...]
    face_lists: tuple[tuple[Faces, ...], ...]
    boundary_flags: tuple[tuple[bool, ...], ...]
    weights: Optional[tuple[tuple[Number, ...], ...]] = None
    cubical: bool = False

    def __post_init__(self):
        for what, per_cell, cells in (
                ("face list", self.face_lists, self.cells[1:]),
                ("boundary flag", self.boundary_flags, self.cells),
                ("weight", self.weights, self.cells)):
            if per_cell is not None and (
                    len(per_cell) != len(cells)
                    or any(len(xs) != len(cs)
                           for xs, cs in zip(per_cell, cells))):
                raise ValueError(f"{what}s must give one {what} per cell "
                                 "in every dimension")

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.dim:
            return len(self.cells[k])
        return 0

    def faces(self, k: int) -> tuple[Faces, ...]:
        """The face list of each k-cell; vertices have empty ones, and
        there are no cells above the top dimension."""
        if 1 <= k <= self.dim:
            return self.face_lists[k - 1]
        if k == self.dim + 1:
            return ()
        if k == 0:
            return ((),) * self.n_cells(0)
        raise ValueError(f"no boundary operator in degree {k}")

    def boundary_op(self, k: int) -> Matrix:
        """The operator taking k-cells to (k-1)-cells: the transpose of
        the coboundary on (k-1)-cochains."""
        fs = self.faces(k)
        return Matrix(len(fs), self.n_cells(k - 1), map(dict, fs)).transpose()

    def interior_indices(self, k: int) -> list[int]:
        return [i for i, b in enumerate(self.boundary_flags[k]) if not b]

    def boundary_indices(self, k: int) -> list[int]:
        return [i for i, b in enumerate(self.boundary_flags[k]) if b]

    def is_closed(self) -> bool:
        """True when no cell of any dimension carries the boundary flag."""
        return not any(any(flags) for flags in self.boundary_flags)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(self.dim + 1))

    def to_dict(self) -> dict:
        out = {
            "dims": self.dim,
            "cells": [list(c) for c in self.cells],
            "boundary": [
                {"cell": self.cells[k][j],
                 "faces": [[self.cells[k - 1][i], str(x)] for i, x in fs]}
                for k in range(1, self.dim + 1)
                for j, fs in enumerate(self.faces(k))
            ],
            "boundary_flags": [
                self.cells[k][i]
                for k in range(self.dim + 1)
                for i in self.boundary_indices(k)
            ],
        }
        if self.weights is not None:
            out["weights"] = [[str(w) for w in ws] for ws in self.weights]
        if self.cubical:
            out["cubical"] = True
        return out

    @staticmethod
    def from_dict(data: dict) -> "CellComplex":
        cells = tuple(tuple(c) for c in data["cells"])
        for name in (x for cs in cells for x in cs):
            if type(name) is not str:
                raise ValueError(f"cell names must be strings, got {name!r}")
        dim = data["dims"]
        index = [{name: i for i, name in enumerate(cs)} for cs in cells]
        face_map = {entry["cell"]: entry["faces"] for entry in data["boundary"]}
        coefficient = frac_reader()
        faces = []
        for k in range(1, dim + 1):
            fs = []
            for name in cells[k]:
                by_face = {}
                for face, sign in face_map.get(name, []):
                    x = coefficient(sign)
                    by_face[index[k - 1][face]] = x
                fs.append(tuple((i, x) for i, x in sorted(by_face.items())
                                if x))
            faces.append(tuple(fs))
        flagged = set(data.get("boundary_flags", []))
        flags = tuple(tuple(name in flagged for name in cs) for cs in cells)
        weights = None
        if "weights" in data:
            weights = tuple(tuple(coefficient(w) for w in ws)
                            for ws in data["weights"])
        return CellComplex(cells, tuple(faces), flags, weights,
                           cubical=data.get("cubical", False))


def validate(k: CellComplex) -> list[str]:
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


def coboundary(k: CellComplex, degree: int, relative: bool = False) -> Matrix:
    """d on degree-`degree` cochains, one row per face list of a
    (degree+1)-cell; with `relative`, on cochains vanishing on the
    boundary subcomplex."""
    if not 0 <= degree <= k.dim:
        raise ValueError(f"degree {degree} out of range")
    fs = k.faces(degree + 1)
    d = Matrix(len(fs), k.n_cells(degree), map(dict, fs))
    if not relative:
        return d
    # boundary cells have boundary faces, so d preserves vanishing there
    return d.submatrix(k.interior_indices(degree + 1) if degree < k.dim
                       else [], k.interior_indices(degree))


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    relative: bool
    dimension: int
    representative_basis: tuple[Vector, ...]


def cohomology(k: CellComplex, degree: int,
               relative: bool = False) -> CohomologyReport:
    """ker d / im d on the (relative) cochain complex, with representative
    cocycles expressed in full cochain coordinates: the kernel basis
    vectors at pivot columns of one RREF of [image of d | kernel of d],
    that is, each one not in the span of the image and those before it."""
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
    return CohomologyReport(degree, relative, len(reps), tuple(reps))


def hodge_weights(k: CellComplex, degree: int) -> tuple[Number, ...]:
    """The per-cell weights on the diagonal of the Hodge star."""
    if not k.cubical or k.weights is None:
        raise NotCubical("hodge star needs a weighted cubical complex")
    return k.weights[degree]


def hodge_star(k: CellComplex, degree: int) -> Matrix:
    """Diagonal pairing of degree-k cochains with dual cochains via the
    per-cell weights; identity for unit weights."""
    w = hodge_weights(k, degree)
    return Matrix(len(w), len(w), [{i: x} if x else {}
                                   for i, x in enumerate(w)])


def _edge(tail: int, head: int) -> Faces:
    """Face list of an edge pointing from vertex `tail` to vertex `head`."""
    return _summed_faces(((tail, -1), (head, 1)))


def path_complex(n_vertices: int, weights: Optional[Sequence] = None,
                 boundary: Optional[Sequence[int]] = None) -> CellComplex:
    """Path graph; endpoints are boundary unless overridden."""
    vs = tuple(f"v{i}" for i in range(n_vertices))
    es = tuple(f"e{i}" for i in range(n_vertices - 1))
    if boundary is None:
        boundary = [0, n_vertices - 1] if n_vertices > 1 else [0]
    vflags = tuple(i in set(boundary) for i in range(n_vertices))
    if weights is None:
        weights = [1] * len(es)
    w = ((1,) * n_vertices, tuple(frac(x) for x in weights))
    edges = tuple(_edge(i, i + 1) for i in range(len(es)))
    return CellComplex((vs, es), (edges,), (vflags, (False,) * len(es)), w,
                       cubical=True)


def circle_complex(n: int, tag: str = "") -> CellComplex:
    """Cycle graph with n vertices, closed (no boundary)."""
    vs = tuple(f"{tag}v{i}" for i in range(n))
    es = tuple(f"{tag}e{i}" for i in range(n))
    edges = tuple(_edge(i, (i + 1) % n) for i in range(n))
    return CellComplex((vs, es), (edges,), ((False,) * n, (False,) * n),
                       ((1,) * n, (1,) * n), cubical=True)


def disjoint_union(a: CellComplex, b: CellComplex) -> CellComplex:
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


def grid_complex(nx: int, ny: int,
                 holes: Sequence[tuple[int, int]] = (),
                 periodic: bool = False,
                 weights: Optional[dict] = None) -> CellComplex:
    """Cubical 2-complex from an nx-by-ny array of unit squares.

    `holes` removes squares (and any cells only they touch); `periodic`
    wraps both directions into a torus. Boundary flags mark edges with
    fewer than two incident squares and their endpoints.
    """
    hole_set = set(holes)

    def wrap(i, j):
        return (i % nx, j % ny) if periodic else (i, j)

    squares = [(i, j) for j in range(ny) for i in range(nx)
               if (i, j) not in hole_set]

    vset, he_set, ve_set = set(), set(), set()
    for (i, j) in squares:
        for (a, b) in [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)]:
            vset.add(wrap(a, b))
        he_set.add(wrap(i, j))
        he_set.add(wrap(i, j + 1))
        ve_set.add(wrap(i, j))
        ve_set.add(wrap(i + 1, j))

    verts = sorted(vset)
    hes = sorted(he_set)
    ves = sorted(ve_set)
    vidx = {v: i for i, v in enumerate(verts)}
    eidx = {("h", e): i for i, e in enumerate(hes)}
    eidx.update({("w", e): len(hes) + i for i, e in enumerate(ves)})

    edge_faces = tuple(
        [_edge(vidx[(i, j)], vidx[wrap(i + 1, j)]) for (i, j) in hes]
        + [_edge(vidx[(i, j)], vidx[wrap(i, j + 1)]) for (i, j) in ves])
    square_faces = []
    edge_use = [0] * len(edge_faces)
    for (i, j) in squares:
        bottom = eidx[("h", wrap(i, j))]
        top = eidx[("h", wrap(i, j + 1))]
        left = eidx[("w", wrap(i, j))]
        right = eidx[("w", wrap(i + 1, j))]
        square_faces.append(_summed_faces(
            ((bottom, 1), (right, 1), (top, -1), (left, -1))))
        for e in (bottom, top, left, right):
            edge_use[e] += 1

    eflags = tuple(n < 2 for n in edge_use)
    vflags = [False] * len(verts)
    for fs, flagged in zip(edge_faces, eflags):
        if flagged:
            for v, _ in fs:
                vflags[v] = True

    cells = (tuple(f"v{i}_{j}" for (i, j) in verts),
             tuple([f"h{i}_{j}" for (i, j) in hes]
                   + [f"w{i}_{j}" for (i, j) in ves]),
             tuple(f"f{i}_{j}" for (i, j) in squares))
    flags = (tuple(vflags), eflags, (False,) * len(squares))

    def wlookup(kind, key, default=1):
        if weights is None:
            return default
        return frac(weights.get((kind,) + key, default))

    ws = (tuple(wlookup("v", v) for v in verts),
          tuple([wlookup("h", e) for e in hes] + [wlookup("w", e) for e in ves]),
          tuple(wlookup("f", s) for s in squares))
    return CellComplex(cells, (edge_faces, tuple(square_faces)),
                       flags, ws, cubical=True)


def torus_complex(nx: int, ny: int) -> CellComplex:
    return grid_complex(nx, ny, periodic=True)


def annulus_complex(n: int = 3) -> CellComplex:
    """Square n-by-n grid with the center square removed (n odd)."""
    if n % 2 == 0 or n < 3:
        raise ValueError("need an odd n of at least 3")
    return grid_complex(n, n, holes=[(n // 2, n // 2)])


def triangulated_grid_complex(nx: int, ny: int,
                              holes: Sequence[tuple[int, int]] = ()) -> CellComplex:
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
