"""Finite cell complexes (paths, circles, cubical grids, triangulations)
with boundary subcomplexes, coboundary operators, absolute and relative
rational cohomology, and a diagonal Hodge star on cubical grids.

Cubical orientation convention, fixed once: a square with lower-left
corner (i, j) has boundary bottom + right - top - left; an edge points
from its lexicographically smaller endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numkit import Matrix, Subspace, Vector, block_diag, frac, kernel


class NotCubical(ValueError):
    pass


@dataclass(frozen=True)
class CellComplex:
    """Cells per dimension, signed incidence matrices, boundary markers.

    boundary_ops[k] is the operator from (k+1)-cells to k-cells, so it has
    one row per k-cell and one column per (k+1)-cell.
    """

    cells: tuple[tuple[str, ...], ...]
    boundary_ops: tuple[Matrix, ...]
    boundary_flags: tuple[tuple[bool, ...], ...]
    weights: Optional[tuple[tuple[Fraction, ...], ...]] = None
    cubical: bool = False

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.dim:
            return len(self.cells[k])
        return 0

    def boundary_op(self, k: int) -> Matrix:
        """The operator taking k-cells to (k-1)-cells."""
        if 1 <= k <= self.dim:
            return self.boundary_ops[k - 1]
        if k == self.dim + 1:
            return Matrix.zeros(self.n_cells(self.dim), 0)
        if k == 0:
            return Matrix.zeros(0, self.n_cells(0))
        raise ValueError(f"no boundary operator in degree {k}")

    def faces(self, k: int) -> list[list[tuple[int, Fraction]]]:
        """For each k-cell, its (face index, incidence coefficient) pairs
        in face order, read in one pass over boundary_op(k)."""
        op = self.boundary_op(k)
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(op.cols)]
        for i, row in enumerate(op.entries):
            for j, x in enumerate(row):
                if x:
                    out[j].append((i, x))
        return out

    def interior_indices(self, k: int) -> list[int]:
        return [i for i, b in enumerate(self.boundary_flags[k]) if not b]

    def boundary_indices(self, k: int) -> list[int]:
        return [i for i, b in enumerate(self.boundary_flags[k]) if b]

    def is_closed(self) -> bool:
        """True when no cell of any dimension carries the boundary flag."""
        return not any(any(flags) for flags in self.boundary_flags)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(self.dim + 1))

    def cell_index(self, k: int, name: str) -> int:
        return self.cells[k].index(name)

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
        dim = data["dims"]
        index = [{name: i for i, name in enumerate(cs)} for cs in cells]
        ops = []
        face_map = {entry["cell"]: entry["faces"] for entry in data["boundary"]}
        for k in range(1, dim + 1):
            m = [[Fraction(0)] * len(cells[k]) for _ in range(len(cells[k - 1]))]
            for j, name in enumerate(cells[k]):
                for face, sign in face_map.get(name, []):
                    m[index[k - 1][face]][j] = Fraction(sign)
            ops.append(Matrix.from_rows(m) if cells[k - 1] or cells[k]
                       else Matrix.zeros(0, 0))
        flagged = set(data.get("boundary_flags", []))
        flags = tuple(tuple(name in flagged for name in cs) for cs in cells)
        weights = None
        if "weights" in data:
            weights = tuple(tuple(frac(w) for w in ws) for ws in data["weights"])
        return CellComplex(cells, tuple(ops), flags, weights,
                           cubical=data.get("cubical", False))


def validate(k: CellComplex) -> list[str]:
    """Check the chain-complex and boundary-closure invariants; return a
    list of human-readable violations, empty when valid."""
    problems = []
    for deg in range(2, k.dim + 1):
        if not (k.boundary_op(deg - 1) @ k.boundary_op(deg)).is_zero():
            problems.append(f"boundary of boundary nonzero in degree {deg}")
    for deg in range(1, k.dim + 1):
        op = k.boundary_op(deg)
        for j in k.boundary_indices(deg):
            for i in range(op.rows):
                if op[i, j] != 0 and not k.boundary_flags[deg - 1][i]:
                    problems.append(
                        f"boundary cell {k.cells[deg][j]} has unflagged "
                        f"face {k.cells[deg - 1][i]}")
    if k.weights is not None:
        for deg, ws in enumerate(k.weights):
            if any(w <= 0 for w in ws):
                problems.append(f"nonpositive weight in degree {deg}")
    return problems


def coboundary(k: CellComplex, degree: int, relative: bool = False) -> Matrix:
    """d on degree-`degree` cochains; with `relative`, on cochains
    vanishing on the boundary subcomplex."""
    if not 0 <= degree <= k.dim:
        raise ValueError(f"degree {degree} out of range")
    d = k.boundary_op(degree + 1).transpose()
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
    cocycles expressed in full cochain coordinates."""
    d_here = coboundary(k, degree, relative)
    if degree > 0:
        d_below = coboundary(k, degree - 1, relative)
    else:
        n = d_here.cols
        d_below = Matrix.zeros(n, 0)
    cocycles = kernel(d_here)
    coboundaries = Subspace.from_span(d_here.cols,
                                      [d_below.col(j) for j in range(d_below.cols)])
    reps: list[Vector] = []
    span = coboundaries
    for v in cocycles.basis:
        grown = Subspace.from_span(span.ambient_dim, list(span.basis) + [v])
        if grown.dim > span.dim:
            reps.append(v)
            span = grown
    if relative:
        idx = k.interior_indices(degree)
        n_full = k.n_cells(degree)
        embedded = []
        for r in reps:
            full = [Fraction(0)] * n_full
            for pos, i in enumerate(idx):
                full[i] = r[pos]
            embedded.append(tuple(full))
        reps = embedded
    return CohomologyReport(degree, relative, len(reps), tuple(reps))


def hodge_weights(k: CellComplex, degree: int) -> tuple[Fraction, ...]:
    """The per-cell weights on the diagonal of the Hodge star."""
    if not k.cubical or k.weights is None:
        raise NotCubical("hodge star needs a weighted cubical complex")
    return k.weights[degree]


def hodge_star(k: CellComplex, degree: int) -> Matrix:
    """Diagonal pairing of degree-k cochains with dual cochains via the
    per-cell weights; identity for unit weights."""
    return Matrix.diagonal(hodge_weights(k, degree))


def _edge_boundary(vertex_names: Sequence[str],
                   edges: Sequence[tuple[str, str]]) -> Matrix:
    idx = {v: i for i, v in enumerate(vertex_names)}
    m = [[Fraction(0)] * len(edges) for _ in vertex_names]
    for j, (a, b) in enumerate(edges):
        m[idx[a]][j] -= 1
        m[idx[b]][j] += 1
    return Matrix.from_rows(m)


def path_complex(n_vertices: int, weights: Optional[Sequence] = None,
                 boundary: Optional[Sequence[int]] = None) -> CellComplex:
    """Path graph; endpoints are boundary unless overridden."""
    vs = tuple(f"v{i}" for i in range(n_vertices))
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n_vertices - 1)]
    es = tuple(f"e{i}" for i in range(n_vertices - 1))
    if boundary is None:
        boundary = [0, n_vertices - 1] if n_vertices > 1 else [0]
    vflags = tuple(i in set(boundary) for i in range(n_vertices))
    if weights is None:
        weights = [1] * len(es)
    w = ((Fraction(1),) * n_vertices, tuple(frac(x) for x in weights))
    return CellComplex((vs, es), (_edge_boundary(vs, edges),),
                       (vflags, (False,) * len(es)), w, cubical=True)


def circle_complex(n: int, tag: str = "") -> CellComplex:
    """Cycle graph with n vertices, closed (no boundary)."""
    vs = tuple(f"{tag}v{i}" for i in range(n))
    edges = [(f"{tag}v{i}", f"{tag}v{(i + 1) % n}") for i in range(n)]
    es = tuple(f"{tag}e{i}" for i in range(n))
    return CellComplex((vs, es), (_edge_boundary(vs, edges),),
                       ((False,) * n, (False,) * n),
                       ((Fraction(1),) * n, (Fraction(1),) * n),
                       cubical=True)


def disjoint_union(a: CellComplex, b: CellComplex) -> CellComplex:
    dim = max(a.dim, b.dim)
    cells = tuple(a.cells[k] if k <= a.dim else () for k in range(dim + 1))
    cells = tuple(cells[k] + (b.cells[k] if k <= b.dim else ())
                  for k in range(dim + 1))
    ops = []
    for k in range(1, dim + 1):
        oa = a.boundary_op(k) if k <= a.dim else Matrix.zeros(
            a.n_cells(k - 1), 0)
        ob = b.boundary_op(k) if k <= b.dim else Matrix.zeros(
            b.n_cells(k - 1), 0)
        ops.append(block_diag(oa, ob))
    flags = tuple(
        (a.boundary_flags[k] if k <= a.dim else ())
        + (b.boundary_flags[k] if k <= b.dim else ())
        for k in range(dim + 1))
    weights = None
    if a.weights is not None and b.weights is not None:
        weights = tuple(
            (a.weights[k] if k <= a.dim else ())
            + (b.weights[k] if k <= b.dim else ())
            for k in range(dim + 1))
    return CellComplex(cells, tuple(ops), flags, weights,
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
    nvx = nx if periodic else nx + 1
    nvy = ny if periodic else ny + 1

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
    vname = {v: f"v{v[0]}_{v[1]}" for v in verts}
    hname = {e: f"h{e[0]}_{e[1]}" for e in hes}
    vnamee = {e: f"w{e[0]}_{e[1]}" for e in ves}
    vidx = {v: i for i, v in enumerate(verts)}
    eidx = {("h", e): i for i, e in enumerate(hes)}
    eidx.update({("w", e): len(hes) + i for i, e in enumerate(ves)})
    n_e = len(hes) + len(ves)

    d1 = [[Fraction(0)] * n_e for _ in verts]
    for e in hes:
        i, j = e
        d1[vidx[wrap(i, j)]][eidx[("h", e)]] -= 1
        d1[vidx[wrap(i + 1, j)]][eidx[("h", e)]] += 1
    for e in ves:
        i, j = e
        d1[vidx[wrap(i, j)]][eidx[("w", e)]] -= 1
        d1[vidx[wrap(i, j + 1)]][eidx[("w", e)]] += 1

    d2 = [[Fraction(0)] * len(squares) for _ in range(n_e)]
    edge_use = [0] * n_e
    for c, (i, j) in enumerate(squares):
        bottom = eidx[("h", wrap(i, j))]
        top = eidx[("h", wrap(i, j + 1))]
        left = eidx[("w", wrap(i, j))]
        right = eidx[("w", wrap(i + 1, j))]
        d2[bottom][c] += 1
        d2[right][c] += 1
        d2[top][c] -= 1
        d2[left][c] -= 1
        for e in (bottom, top, left, right):
            edge_use[e] += 1

    eflags = tuple(edge_use[i] < 2 for i in range(n_e))
    vflags = [False] * len(verts)
    for e in range(n_e):
        if eflags[e]:
            for vi in range(len(verts)):
                if d1[vi][e] != 0:
                    vflags[vi] = True

    cells = (tuple(vname[v] for v in verts),
             tuple([hname[e] for e in hes] + [vnamee[e] for e in ves]),
             tuple(f"f{i}_{j}" for (i, j) in squares))
    flags = (tuple(vflags), eflags, (False,) * len(squares))

    def wlookup(kind, key, default=Fraction(1)):
        if weights is None:
            return default
        return frac(weights.get((kind,) + key, default))

    ws = (tuple(wlookup("v", v) for v in verts),
          tuple([wlookup("h", e) for e in hes] + [wlookup("w", e) for e in ves]),
          tuple(wlookup("f", s) for s in squares))
    return CellComplex(cells, (Matrix.from_rows(d1), Matrix.from_rows(d2)),
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
    vset = set()
    for (i, j) in squares:
        vset.update([(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)])
    verts = sorted(vset)
    vidx = {v: i for i, v in enumerate(verts)}
    # reuse the cubical edge layout and append one diagonal per square
    old_edges = base.cells[1]
    n_old = len(old_edges)
    diag_names = tuple(f"d{i}_{j}" for (i, j) in squares)
    n_e = n_old + len(squares)
    d1 = [list(r) + [Fraction(0)] * len(squares)
          for r in base.boundary_op(1).entries]
    for c, (i, j) in enumerate(squares):
        d1[vidx[(i, j)]][n_old + c] -= 1
        d1[vidx[(i + 1, j + 1)]][n_old + c] += 1
    eidx = {name: k for k, name in enumerate(old_edges)}
    tris = []
    d2 = [[Fraction(0)] * (2 * len(squares)) for _ in range(n_e)]
    for c, (i, j) in enumerate(squares):
        bottom = eidx[f"h{i}_{j}"]
        top = eidx[f"h{i}_{j + 1}"]
        left = eidx[f"w{i}_{j}"]
        right = eidx[f"w{i + 1}_{j}"]
        diag = n_old + c
        lo, hi = 2 * c, 2 * c + 1
        d2[bottom][lo] += 1
        d2[right][lo] += 1
        d2[diag][lo] -= 1
        d2[diag][hi] += 1
        d2[top][hi] -= 1
        d2[left][hi] -= 1
        tris += [f"t{i}_{j}a", f"t{i}_{j}b"]
    eflags = tuple(base.boundary_flags[1]) + (False,) * len(squares)
    cells = (base.cells[0], old_edges + diag_names, tuple(tris))
    flags = (base.boundary_flags[0], eflags, (False,) * len(tris))
    return CellComplex(cells, (Matrix.from_rows(d1), Matrix.from_rows(d2)),
                       flags, None, cubical=False)
