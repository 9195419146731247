"""Executable model theories: harmonic scalar fields on weighted graphs
with Dirichlet-to-Neumann evolution relations and exact gluing,
free-particle and oscillator mechanics, the linearized geodesic fixture,
a non-Lagrangian evolution relation on a truncated jet space, and the
classical boundary structures of electrodynamics and abelian BF theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .collar import preboundary_reduce
from .complexes import CellComplex, coboundary, hodge_weights
from .numkit import (
    Matrix,
    Number,
    Subspace,
    _schur_int_rows,
    block_diag,
    dot,
    frac,
    kernel,
    schur_complement,
    vec,
)
from .relations import LinearRelation, compose, graph
from .symplect import (
    ClassificationResult,
    OneForm,
    PresymplecticSpace,
    Reduction,
    d_of_coeff,
)


class SingularInterior(ValueError):
    pass


class PartitionMismatch(ValueError):
    pass


class NegativeWeight(ValueError):
    pass


@dataclass(frozen=True)
class ScalarFieldTheory:
    """Dirichlet energy ½ sum of w_e (phi_u - phi_v)^2 on a weighted graph;
    boundary-flagged vertices carry the boundary data."""

    graph: CellComplex

    def __post_init__(self):
        if self.graph.dim < 1:
            raise ValueError("need a graph with edges")

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self.graph.cells[0]

    def boundary_names(self) -> list[str]:
        return [self.graph.cells[0][i] for i in self.graph.boundary_indices(0)]

    def interior_names(self) -> list[str]:
        return [self.graph.cells[0][i] for i in self.graph.interior_indices(0)]

    def laplacian(self, edges: Optional[Iterable[int]] = None
                  ) -> tuple[int, list[dict[int, int]]]:
        """(D, R) with R / D == d0^T W d0, positive semidefinite as W >= 0
        (a negative weight raises `NegativeWeight`): R is one row of
        nonzero integers per vertex, and D the lcm of the edge weights'
        denominators times the square of the lcm of the incidence
        coefficients' denominators. Assembled edge by edge from the face
        lists: an edge of weight w with faces (a, x_a) adds D w x_a x_b at
        (a, b); with `edges`, a list of edge indices, only those, still
        over the whole graph's D and vertex indices."""
        weights, faces = hodge_weights(self.graph, 1), self.graph.faces(1)
        dw = math.lcm(*[w.denominator for w in weights])
        xs = [x for f in faces for _, x in f]
        dx = math.lcm(*[x.denominator for x in xs])
        # integral coefficients are used as they are
        as_is = dx == 1 and all(type(x) is int for x in xs)
        rows: list[dict[int, int]] = [{} for _ in range(self.graph.n_cells(0))]
        for e in range(len(faces)) if edges is None else edges:
            w = weights[e]
            c = w.numerator * (dw // w.denominator)
            if c < 0:
                raise NegativeWeight(f"edge {self.graph.cells[1][e]!r} has "
                                     f"negative weight {w}")
            terms = faces[e] if as_is else [
                (a, x.numerator * (dx // x.denominator)) for a, x in faces[e]]
            for a, xa in terms:
                row, cxa = rows[a], c * xa
                for b, xb in terms:
                    row[b] = row.get(b, 0) + cxa * xb
        return dw * dx * dx, [row if all(row.values()) else
                              {b: x for b, x in row.items() if x}
                              for row in rows]


@dataclass(frozen=True)
class DtNOperator:
    """Boundary-values-to-normal-differences map, in the given vertex order."""

    vertices: tuple[str, ...]
    matrix: Matrix


def dtn(t: ScalarFieldTheory,
        order: Optional[Sequence[str]] = None) -> DtNOperator:
    """Schur complement of the weighted Laplacian onto the boundary block,
    by Kron reduction of the interior vertices."""
    boundary = t.boundary_names()
    if order is not None:
        if sorted(order) != sorted(boundary):
            raise ValueError("order must enumerate the boundary vertices")
        boundary = list(order)
    index = {v: i for i, v in enumerate(t.vertex_names)}
    s = schur_complement(*t.laplacian(), [index[v] for v in boundary],
                         [index[v] for v in t.interior_names()])
    if s is None:
        raise SingularInterior("interior Laplacian block is singular")
    return DtNOperator(tuple(boundary), s)


def on_shell_action(t: ScalarFieldTheory, boundary_values: dict) -> Number:
    """Value of the action on the solution with the given boundary data:
    ½ phi^T Lambda phi through the boundary-reduced operator."""
    op = dtn(t)
    phi = vec([boundary_values[v] for v in op.vertices])
    return frac(Fraction(dot(phi, op.matrix.apply(phi)), 2))


def _pairing_coeff(n: int) -> Matrix:
    """Coefficient matrix of alpha = sum_i x_(n+i) d(x_i) on Q^(2n): each
    of the last n coordinates is the momentum of one of the first n."""
    return Matrix(2 * n, 2 * n, [{n + i: 1} for i in range(n)]
                  + [{} for _ in range(n)])


def evolution_relation_scalar(t: ScalarFieldTheory,
                              in_vertices: Sequence[str],
                              out_vertices: Sequence[str]) -> LinearRelation:
    """Boundary relation of the harmonic theory on the Darboux spaces
    (phi_1..m, chi_1..m), each momentum chi paired with its field value
    phi: the incoming normal difference is sign-reversed so the relation
    composes under gluing."""
    in_v, out_v = list(in_vertices), list(out_vertices)
    if set(in_v) & set(out_v):
        raise ValueError("in and out vertices must be disjoint")
    if set(in_v) | set(out_v) != set(t.boundary_names()):
        raise ValueError("in and out must cover the boundary")
    index = {v: i for i, v in enumerate(t.vertex_names)}
    return _kron_relation(*t.laplacian(), [index[v] for v in in_v],
                          [index[v] for v in out_v],
                          [index[v] for v in t.interior_names()])


def _kron_relation(d: int, rows: list[dict[int, int]], in_idx: list[int],
                   out_idx: list[int], interior: list[int]) -> LinearRelation:
    """`evolution_relation_scalar` of the Laplacian R / D, the vertices
    given by their indices in its rows. The DtN map Lambda stays integer
    rows: row j of the Kron reduction is R'_j / D_j, so the j-th spanning
    vector, phi = e_j and chi = column j of Lambda (its row j, as Lambda
    is symmetric), times D_j is the integer row D_j at phi_j and the
    numerators at chi, which `Subspace.from_span` takes as it is."""
    keep = in_idx + out_idx
    if len(set(keep)) != len(keep):
        raise ValueError("order must enumerate the boundary vertices")
    kept = _schur_int_rows(d, rows, keep, interior)
    if kept is None:
        raise SingularInterior("interior Laplacian block is singular")
    m_in, m = len(in_idx), len(keep)
    pos = {v: k for k, v in enumerate(keep)}
    # coordinates (phi_in, chi_in, phi_out, chi_out); the incoming chi
    # are sign-reversed
    span = []
    for j, (r, dj) in enumerate(kept):
        v = {j if j < m_in else m_in + j: dj}
        for u, x in r.items():
            i = pos[u]
            if i < m_in:
                v[m_in + i] = -x
            else:
                v[m + i] = x
        span.append(v)
    return LinearRelation(PresymplecticSpace.standard(m_in),
                          PresymplecticSpace.standard(m - m_in),
                          Subspace.from_span(2 * m, span))


@dataclass(frozen=True)
class GluingReport:
    composite: LinearRelation
    exact: bool
    lagrangian: bool


def glue_scalar(t_whole: ScalarFieldTheory, cut: Sequence[str],
                left: Sequence[str], right: Sequence[str]) -> GluingReport:
    """Cut the graph into two halves along `cut`, compose their evolution
    relations across it and compare with the undivided theory's relation,
    exactly.

    `left` and `right` are the halves' vertices; they meet in the cut.
    An edge goes left if all its ends are left vertices, and otherwise
    right, where all its ends must be right vertices. Each half's boundary
    is its cut and whole-boundary vertices. A half is its edges' Laplacian
    rows, over the whole graph's D and vertex indices, so each half's DtN
    map is a Kron reduction over index lists; the whole graph's relation
    comes from its own Laplacian."""
    cset, lv, rv = set(cut), set(left), set(right)
    if lv | rv != set(t_whole.vertex_names) or lv & rv != cset:
        raise PartitionMismatch("parts do not partition the graph along the cut")
    wb = set(t_whole.boundary_names())
    if wb & cset:
        raise PartitionMismatch("whole boundary must split off the cut")
    in_v, out_v = sorted(wb & lv), sorted(wb & rv)
    g = t_whole.graph
    names = g.cells[0]
    e_left, e_right = [], []
    for e, faces in enumerate(g.faces(1)):
        ends = {names[i] for i, _ in faces}
        if not (ends <= lv or ends <= rv):
            raise PartitionMismatch(f"edge {g.cells[1][e]!r} crosses the cut")
        (e_left if ends <= lv else e_right).append(e)
    index = {v: i for i, v in enumerate(names)}
    bd = cset | wb
    halves = []
    for part, edges, a, b in ((lv, e_left, in_v, list(cut)),
                              (rv, e_right, list(cut), out_v)):
        halves.append(_kron_relation(
            *t_whole.laplacian(edges), [index[v] for v in a],
            [index[v] for v in b],
            [i for i, v in enumerate(names) if v in part and v not in bd]))
    composite = compose(*halves)
    whole = evolution_relation_scalar(t_whole, in_v, out_v)
    return GluingReport(composite, exact=composite.body == whole.body,
                        lagrangian=composite.is_canonical())


@dataclass(frozen=True)
class MechanicsFixture:
    kind: str
    mass: Fraction = Fraction(1)
    stiffness: Fraction = Fraction(1)
    t0: Fraction = Fraction(0)
    t1: Fraction = Fraction(1)

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")


def mechanics_relation(f: MechanicsFixture) -> LinearRelation:
    """Exact flow graph on (q, p); only the free particle is rational."""
    if f.kind != "free_particle":
        raise ValueError("exact relation exists only for the free particle")
    dt = Fraction(f.t1) - Fraction(f.t0)
    v = PresymplecticSpace.standard(1)
    flow = Matrix.from_rows([[1, dt / Fraction(f.mass)], [0, 1]])
    return graph(v, v, flow)


def oscillator_flow(f: MechanicsFixture) -> list[list[float]]:
    """Floating-point flow matrix of the harmonic oscillator on (q, p)."""
    m, k = float(f.mass), float(f.stiffness)
    w = math.sqrt(k / m)
    dt = float(f.t1) - float(f.t0)
    return [[math.cos(w * dt), math.sin(w * dt) / (m * w)],
            [-m * w * math.sin(w * dt), math.cos(w * dt)]]


@dataclass(frozen=True)
class GeodesicFixture:
    """Linearization of unit-speed straight-line motion in the plane at a
    basepoint moving along the first axis.

    Coordinates (dq1, dq2, dth, drho, dj1, dj2): transverse position and
    direction angle carry the symplectic pairing; the along-track position,
    speed scale, and both momentum-like jets span the kernel.
    """

    space: PresymplecticSpace
    alpha: OneForm
    relation: LinearRelation
    source_projection: Matrix
    target_projection: Matrix


def geodesic_fixture(step: Number = 1) -> GeodesicFixture:
    n = 6
    # alpha's linear part: dth coefficient on dq2
    coeff = Matrix(n, n, [{}, {2: 1}, {}, {}, {}, {}])
    const = {0: 1}    # velocity times dq picks up d(q1) at the basepoint
    space = PresymplecticSpace(n, d_of_coeff(coeff))
    alpha = OneForm(n, coeff, const)

    lam = frac(step)
    span = [{j: 1} for i in (0, 3, 4, 5) for j in (i, n + i)]
    # dq2 is carried along; dth is carried and moves dq2 by lam dth
    span.append({1: 1, n + 1: 1})
    span.append({2: 1, n + 2: 1, n + 1: lam})
    rel = LinearRelation(space, space, Subspace.from_span(2 * n, span))

    p_src = Matrix.from_rows([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    p_tgt = Matrix.from_rows([[0, 1, -lam, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    return GeodesicFixture(space, alpha, rel, p_src, p_tgt)


def reduce_relation(rel: LinearRelation, p_src: Matrix, p_tgt: Matrix,
                    reduced: PresymplecticSpace) -> LinearRelation:
    """Push a relation body through reduction projections on both sides."""
    m = block_diag(p_src, p_tgt)
    span = (rel.body.matrix() @ m.transpose()).data
    return LinearRelation(reduced, reduced,
                          Subspace.from_span(2 * reduced.dim, span))


def dirac_counterexample(n: int) -> tuple[PresymplecticSpace, LinearRelation,
                                          ClassificationResult]:
    """Evolution relation that preserves one coordinate and forgets a jet
    tower, on a space with vanishing two-form: isotropic, never Lagrangian."""
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    dim = n + 2  # x plus the y-jets up to order n
    space = PresymplecticSpace.trivial(dim)
    span = [{0: 1, dim: 1}]    # x is kept
    span += [{j: 1} for i in range(1, dim) for j in (i, dim + i)]
    rel = LinearRelation(space, space, Subspace.from_span(2 * dim, span))
    return space, rel, rel.classify()


def ed_boundary_space(sigma: CellComplex) -> tuple[PresymplecticSpace, OneForm]:
    """Boundary fields of electrodynamics on a closed Sigma: a gauge field
    on edges and a dual-indexed B on edges, with alpha = sum B dA."""
    if not sigma.is_closed():
        raise ValueError("sigma must be closed")
    n = sigma.n_cells(1)
    coeff = _pairing_coeff(n)
    return PresymplecticSpace(2 * n, d_of_coeff(coeff)), OneForm(2 * n, coeff)


def classical_boundary_ed(sigma: CellComplex) -> tuple[
        Reduction, Optional[OneForm], Subspace, Subspace]:
    """Cauchy data of electrodynamics: pairs (A, B) with B closed as a
    dual form; the characteristic directions are the gauge shifts of A.
    They come with the reduction of alpha and its descent, as from
    `preboundary_reduce`."""
    red, alpha = preboundary_reduce(ed_boundary_space(sigma)[1])
    n = sigma.n_cells(1)
    d_dual = sigma.boundary_op(1)  # closedness of B in the dual complex
    c_b = kernel(d_dual)
    c = Subspace.from_span(2 * n, [{i: 1} for i in range(n)] + [
        {n + j: x for j, x in b.items()} for b in c_b.basis])
    char = Subspace.from_span(2 * n, coboundary(sigma, 0).transpose().data)
    return red, alpha, c, char


def classical_boundary_bf(sigma: CellComplex) -> tuple[Subspace, Subspace]:
    """Cauchy data of abelian BF: flat A times closed dual B; the
    characteristic directions shift A and B by exact forms."""
    if not sigma.is_closed():
        raise ValueError("sigma must be closed")
    n = sigma.n_cells(1)
    flat_a = kernel(coboundary(sigma, 1))
    closed_b = kernel(sigma.boundary_op(1))
    c = Subspace.from_span(2 * n, list(flat_a.basis) + [
        {n + j: x for j, x in b.items()} for b in closed_b.basis])
    d0 = coboundary(sigma, 0)
    d2 = sigma.boundary_op(2)  # exact shifts of B come from the dual d
    char = Subspace.from_span(2 * n, list(d0.transpose().data) + [
        {n + j: x for j, x in r.items()} for r in d2.transpose().data])
    return c, char
