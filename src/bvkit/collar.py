"""From a quadratic local action on a collar to boundary data: extract
the boundary one-form of the variational split and reduce by the kernel
of its exterior derivative.

The variational split reads off rows of the Hessian: with S(x) = half
x^T G x and G symmetric, dS(x)[dx] = sum_a (Gx)_a dx_a; rows indexed by
boundary variables form the boundary one-form, the rest are the interior
field equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import CellComplex
from .numkit import Matrix
from .symplect import (
    NotBasic,
    OneForm,
    PresymplecticSpace,
    Reduction,
    presymplectic_reduce,
)


@dataclass(frozen=True)
class FieldSpec:
    name: str
    cell_dim: int
    degree: int = 0


@dataclass(frozen=True)
class QuadraticLocalTheory:
    """A quadratic action on the total field vector of a complex.

    One variable per cell per field, enumerated field by field in layout
    order. `action` is the symmetric matrix G with S(x) = half x^T G x.
    """

    complex: CellComplex
    field_layout: tuple[FieldSpec, ...]
    action: Matrix

    def __post_init__(self):
        n = self.n_vars
        if self.action.shape != (n, n):
            raise ValueError("action matrix size mismatch")
        rows = self.action.data
        if any(rows[j].get(i) != x
               for i, r in enumerate(rows) for j, x in r.items()):
            raise ValueError("action matrix must be symmetric")

    @property
    def n_vars(self) -> int:
        return sum(self.complex.n_cells(f.cell_dim) for f in self.field_layout)

    def boundary_vars(self) -> list[int]:
        """Variables sitting on boundary-flagged cells."""
        out, off = [], 0
        for f in self.field_layout:
            out += (off + i for i in self.complex.boundary_indices(f.cell_dim))
            off += self.complex.n_cells(f.cell_dim)
        return sorted(out)


def prism(base: CellComplex, layers: int) -> CellComplex:
    """Product of a complex of dimension at most 1 with a path of
    `layers` edges; layer-0 cells (and prisms over the base's own
    boundary) carry the boundary flag."""
    if base.dim > 1:
        raise ValueError("prism construction supports base dimension <= 1")
    if layers < 1:
        raise ValueError("need at least one layer")
    nt = layers + 1
    v_names = tuple(f"{c}|{t}" for t in range(nt) for c in base.cells[0])
    ve_names = tuple(f"{c}|{t}.{t + 1}" for t in range(layers)
                     for c in base.cells[0])
    n0 = base.n_cells(0)
    n1 = base.n_cells(1)
    has_edges = base.dim >= 1
    e_names = tuple(f"{c}|{t}" for t in range(nt)
                    for c in (base.cells[1] if has_edges else ()))
    sq_names = tuple(f"{c}|{t}.{t + 1}" for t in range(layers)
                     for c in (base.cells[1] if has_edges else ()))

    # d(edge x interval) = (d edge) x interval - edge x d(interval), with
    # the vertical edge over vertex c between layers t and t + 1 at
    # t * n0 + c and the copy of edge c in layer t at n_ve + t * n1 + c
    base_faces = base.faces(1)
    n_ve = len(ve_names)
    ve_faces = tuple(((t * n0 + c, -1), ((t + 1) * n0 + c, 1))
                     for t in range(layers) for c in range(n0))
    e_faces = tuple(tuple((t * n0 + r, x) for r, x in f)
                    for t in range(nt) for f in base_faces)
    sq_faces = tuple(tuple((t * n0 + r, x) for r, x in f)
                     + ((n_ve + t * n1 + c, 1),
                        (n_ve + (t + 1) * n1 + c, -1))
                     for t in range(layers) for c, f in enumerate(base_faces))

    vflags = tuple(i < n0 or base.boundary_flags[0][i % n0]
                   for i in range(len(v_names)))
    veflags = tuple(base.boundary_flags[0][i % n0]
                    for i in range(len(ve_names)))
    eflags = tuple((i // n1 == 0) if n1 else False for i in range(len(e_names)))
    sqflags = (False,) * len(sq_names)

    weights = None
    if base.weights is not None:
        w0 = base.weights[0]
        w1 = base.weights[1] if has_edges else ()
        weights = (tuple(w0[i % n0] for i in range(len(v_names))),
                   tuple([w0[i % n0] for i in range(len(ve_names))]
                         + [w1[i % n1] for i in range(len(e_names))]),
                   tuple(w1[i % n1] for i in range(len(sq_names))))

    if has_edges:
        cells = (v_names, ve_names + e_names, sq_names)
        faces = (ve_faces + e_faces, sq_faces)
        flags = (vflags, veflags + eflags, sqflags)
    else:
        cells = (v_names, ve_names)
        faces = (ve_faces,)
        flags = (vflags, veflags)
        weights = weights[:2] if weights else None
    return CellComplex(cells, faces, flags, weights, cubical=base.cubical)


def boundary_one_form(t: QuadraticLocalTheory,
                      boundary_vars: Optional[Sequence[int]] = None) -> OneForm:
    """Boundary residue of dS: the rows of the action matrix indexed by
    boundary variables, as a one-form in the variations."""
    n = t.n_vars
    bset = set(t.boundary_vars() if boundary_vars is None else boundary_vars)
    rows = t.action.data
    return OneForm(n, Matrix(n, n, [rows[a] if a in bset else {}
                                    for a in range(n)]))


def el_form(t: QuadraticLocalTheory,
            boundary_vars: Optional[Sequence[int]] = None) -> Matrix:
    """Interior rows of dS: the discrete field equations."""
    bset = set(t.boundary_vars() if boundary_vars is None else boundary_vars)
    n = t.n_vars
    return Matrix(n, n, [{} if a in bset else t.action.data[a]
                         for a in range(n)])


def preboundary_reduce(a: OneForm) -> tuple[Reduction, Optional[OneForm]]:
    """Reduce the preboundary two-form d(a) by its kernel, and push a
    down when it is basic (None otherwise). A zero form, the boundary
    form of every closed complex, reduces to the 0-dimensional space and
    descends to the zero form there, read off with no elimination."""
    if a.coeff.is_zero() and not a.const:
        return (Reduction(PresymplecticSpace.trivial(0),
                          Matrix.zeros(0, a.ambient_dim), ()),
                OneForm(0, Matrix.zeros(0, 0)))
    red = presymplectic_reduce(PresymplecticSpace(a.ambient_dim, a.d()))
    try:
        return red, red.descend(a)
    except NotBasic:
        return red, None
