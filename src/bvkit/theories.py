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
from typing import Optional, Sequence

from .collar import BoundaryPackage, preboundary_reduce
from .complexes import CellComplex, coboundary, hodge_weights
from .numkit import (
    Matrix,
    Subspace,
    block_diag,
    dot,
    kernel,
    schur_complement,
    solve,
    unit_vec,
    vec,
    zero_vec,
)
from .relations import LinearRelation, compose, graph
from .symplect import (
    ClassificationResult,
    OneForm,
    PresymplecticSpace,
    classify,
    d_of_coeff,
)


class SingularInterior(ValueError):
    pass


class PartitionMismatch(ValueError):
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

    def laplacian(self) -> Matrix:
        """d0^T W d0, assembled edge by edge: an edge of weight w with
        faces (a, x_a) adds w x_a x_b at (a, b)."""
        n = self.graph.n_cells(0)
        lap = [[Fraction(0)] * n for _ in range(n)]
        for w, faces in zip(hodge_weights(self.graph, 1), self.graph.faces(1)):
            for a, xa in faces:
                for b, xb in faces:
                    lap[a][b] += w * xa * xb
        return Matrix(n, n, tuple(tuple(r) for r in lap))

    def energy(self, phi: Sequence[Fraction]) -> Fraction:
        return dot(phi, self.laplacian().apply(phi)) / 2


@dataclass(frozen=True)
class DtNOperator:
    """Boundary-values-to-normal-differences map, in the given vertex order."""

    vertices: tuple[str, ...]
    matrix: Matrix


def dtn(t: ScalarFieldTheory,
        order: Optional[Sequence[str]] = None) -> DtNOperator:
    """Schur complement of the weighted Laplacian onto the boundary block,
    by Kron reduction of the interior vertices."""
    boundary = list(order) if order is not None else t.boundary_names()
    if set(boundary) != set(t.boundary_names()):
        raise ValueError("order must enumerate the boundary vertices")
    index = {v: i for i, v in enumerate(t.vertex_names)}
    s = schur_complement(t.laplacian(), [index[v] for v in boundary],
                         [index[v] for v in t.interior_names()])
    if s is None:
        raise SingularInterior("interior Laplacian block is singular")
    return DtNOperator(tuple(boundary), s)


def harmonic_extension(t: ScalarFieldTheory,
                       boundary_values: dict) -> tuple[Fraction, ...]:
    """Solve the interior field equations for given boundary data."""
    names = list(t.vertex_names)
    interior = t.interior_names()
    lap = t.laplacian()
    i_idx = [names.index(v) for v in interior]
    phi = [Fraction(0)] * len(names)
    for v, x in boundary_values.items():
        phi[names.index(v)] = Fraction(x)
    if interior:
        b_idx = [names.index(v) for v in t.boundary_names()]
        a_ii = lap.submatrix(i_idx, i_idx)
        a_ib = lap.submatrix(i_idx, b_idx)
        rhs = tuple(-x for x in a_ib.apply(
            [phi[j] for j in b_idx]))
        sol = solve(a_ii, rhs)
        if sol is None:
            raise SingularInterior("interior Laplacian block is singular")
        for pos, j in enumerate(i_idx):
            phi[j] = sol[pos]
    return tuple(phi)


def on_shell_action(t: ScalarFieldTheory, boundary_values: dict) -> Fraction:
    """Value of the action on the solution with the given boundary data:
    ½ phi^T Lambda phi through the boundary-reduced operator."""
    op = dtn(t)
    phi = vec([boundary_values[v] for v in op.vertices])
    return dot(phi, op.matrix.apply(phi)) / 2


def scalar_phase_space(n_points: int) -> PresymplecticSpace:
    """Boundary phase space: coordinates (phi_1..m, chi_1..m) with the
    pairing of each momentum chi with its field value phi."""
    w = Matrix.zeros(2 * n_points, 2 * n_points)
    rows = [list(r) for r in w.entries]
    for i in range(n_points):
        rows[i][n_points + i] = Fraction(1)  # alpha = sum chi d(phi)
    return PresymplecticSpace(2 * n_points,
                              d_of_coeff(Matrix.from_rows(rows)))


def evolution_relation_scalar(t: ScalarFieldTheory,
                              in_vertices: Sequence[str],
                              out_vertices: Sequence[str]) -> LinearRelation:
    """Boundary relation of the harmonic theory: the incoming normal
    difference is sign-reversed so the relation composes under gluing."""
    in_v, out_v = list(in_vertices), list(out_vertices)
    if set(in_v) & set(out_v):
        raise ValueError("in and out vertices must be disjoint")
    if set(in_v) | set(out_v) != set(t.boundary_names()):
        raise ValueError("in and out must cover the boundary")
    op = dtn(t, order=in_v + out_v)
    m_in, m_out = len(in_v), len(out_v)
    m = m_in + m_out
    span = []
    for j in range(m):
        phi = unit_vec(m, j)
        chi = op.matrix.col(j)
        src = tuple(phi[:m_in]) + tuple(-x for x in chi[:m_in])
        tgt = tuple(phi[m_in:]) + tuple(chi[m_in:])
        span.append(src + tgt)
    return LinearRelation(scalar_phase_space(m_in), scalar_phase_space(m_out),
                          Subspace.from_span(2 * m, span))


def with_boundary_vertices(cx: CellComplex,
                           names: Sequence[str]) -> ScalarFieldTheory:
    """The graph theory on the 1-skeleton of a complex with a chosen
    boundary vertex set."""
    bset = set(names)
    cells = (cx.cells[0], cx.cells[1])
    flags = (tuple(n in bset for n in cells[0]), (False,) * len(cells[1]))
    w = cx.weights
    weights = ((Fraction(1),) * len(cells[0]),
               w[1] if w is not None else (Fraction(1),) * len(cells[1]))
    return ScalarFieldTheory(CellComplex(cells, (cx.boundary_op(1),), flags,
                                         weights, cubical=True))


def subgraph_theory(t: ScalarFieldTheory, vertices: Sequence[str],
                    boundary: Sequence[str],
                    edges: Optional[Sequence[str]] = None) -> ScalarFieldTheory:
    """The induced theory on a vertex subset; by default every edge with
    both endpoints inside is kept, or pass the edge names explicitly."""
    g = t.graph
    vset = set(vertices)
    v_idx = [i for i, n in enumerate(g.cells[0]) if n in vset]
    d1 = g.boundary_op(1)
    if edges is not None:
        eset = set(edges)
        e_idx = [j for j in range(g.n_cells(1)) if g.cells[1][j] in eset]
    else:
        e_idx = [j for j, faces in enumerate(g.faces(1))
                 if all(g.cells[0][i] in vset for i, _ in faces)]
    cells = (tuple(g.cells[0][i] for i in v_idx),
             tuple(g.cells[1][j] for j in e_idx))
    bset = set(boundary)
    flags = (tuple(n in bset for n in cells[0]), (False,) * len(e_idx))
    w = ((Fraction(1),) * len(v_idx),
         tuple(g.weights[1][j] for j in e_idx))
    return ScalarFieldTheory(CellComplex(
        cells, (d1.submatrix(v_idx, e_idx),), flags, w, cubical=True))


@dataclass(frozen=True)
class GluingReport:
    composite: LinearRelation
    whole: LinearRelation
    exact: bool
    lagrangian: bool


def glue_scalar(t_whole: ScalarFieldTheory, cut: Sequence[str],
                t_left: ScalarFieldTheory,
                t_right: ScalarFieldTheory) -> GluingReport:
    """Compose the two halves' evolution relations across the cut and
    compare with the undivided theory's relation, exactly."""
    cut = list(cut)
    lv, rv = set(t_left.vertex_names), set(t_right.vertex_names)
    wv = set(t_whole.vertex_names)
    if lv | rv != wv or lv & rv != set(cut):
        raise PartitionMismatch("parts do not partition the graph along the cut")
    if not set(cut) <= set(t_left.boundary_names()) & set(t_right.boundary_names()):
        raise PartitionMismatch("cut vertices must be boundary in both parts")
    n_edges = (t_left.graph.n_cells(1) + t_right.graph.n_cells(1))
    if n_edges != t_whole.graph.n_cells(1):
        raise PartitionMismatch("edges are not partitioned by the cut")
    wb = set(t_whole.boundary_names())
    in_v = sorted(wb & (lv - set(cut)))
    out_v = sorted(wb & (rv - set(cut)))
    if set(in_v) | set(out_v) != wb or (wb & set(cut)):
        raise PartitionMismatch("whole boundary must split off the cut")
    l_rel = evolution_relation_scalar(t_left, in_v, cut)
    r_rel = evolution_relation_scalar(t_right, cut, out_v)
    composite = compose(l_rel, r_rel)
    whole = evolution_relation_scalar(t_whole, in_v, out_v)
    return GluingReport(composite, whole,
                        exact=composite.body == whole.body,
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


def geodesic_fixture(step: Fraction = Fraction(1)) -> GeodesicFixture:
    n = 6
    w = Matrix.zeros(n, n)
    rows = [list(r) for r in w.entries]
    rows[1][2] = Fraction(1)  # alpha's linear part: dth coefficient on dq2
    coeff = Matrix.from_rows(rows)
    const = unit_vec(n, 0)    # velocity times dq picks up d(q1) at the basepoint
    space = PresymplecticSpace(n, d_of_coeff(coeff))
    alpha = OneForm(n, coeff, const)

    lam = Fraction(step)
    span = []
    for i in (0, 3, 4, 5):
        span.append(unit_vec(2 * n, i))
        span.append(unit_vec(2 * n, n + i))
    q2, th = unit_vec(2 * n, 1), unit_vec(2 * n, 2)
    q2p, thp = unit_vec(2 * n, n + 1), unit_vec(2 * n, n + 2)
    span.append(tuple(a + b for a, b in zip(q2, q2p)))
    span.append(tuple(a + b + lam * c
                      for a, b, c in zip(th, thp, q2p)))
    rel = LinearRelation(space, space, Subspace.from_span(2 * n, span))

    p_src = Matrix.from_rows([[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    p_tgt = Matrix.from_rows([[0, 1, -lam, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    return GeodesicFixture(space, alpha, rel, p_src, p_tgt)


def reduce_relation(rel: LinearRelation, p_src: Matrix, p_tgt: Matrix,
                    reduced: PresymplecticSpace) -> LinearRelation:
    """Push a relation body through reduction projections on both sides."""
    m = block_diag(p_src, p_tgt)
    span = [m.apply(b) for b in rel.body.basis]
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
    span = []
    x_pair = tuple(unit_vec(2 * dim, 0)[i] + unit_vec(2 * dim, dim)[i]
                   for i in range(2 * dim))
    span.append(x_pair)
    for i in range(1, dim):
        span.append(unit_vec(2 * dim, i))
        span.append(unit_vec(2 * dim, dim + i))
    rel = LinearRelation(space, space, Subspace.from_span(2 * dim, span))
    return space, rel, rel.classify()


def ed_boundary_space(sigma: CellComplex) -> tuple[PresymplecticSpace, OneForm]:
    """Boundary fields of electrodynamics on a closed Sigma: a gauge field
    on edges and a dual-indexed B on edges, with alpha = sum B dA."""
    if not sigma.is_closed():
        raise ValueError("sigma must be closed")
    n = sigma.n_cells(1)
    rows = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = Fraction(1)
    coeff = Matrix.from_rows(rows)
    return PresymplecticSpace(2 * n, d_of_coeff(coeff)), OneForm(2 * n, coeff)


def classical_boundary_ed(sigma: CellComplex) -> tuple[BoundaryPackage,
                                                       Subspace, Subspace]:
    """Cauchy data of electrodynamics: pairs (A, B) with B closed as a
    dual form; the characteristic directions are the gauge shifts of A."""
    space, alpha = ed_boundary_space(sigma)
    pkg = preboundary_reduce(alpha)
    n = sigma.n_cells(1)
    d_dual = sigma.boundary_op(1)  # closedness of B in the dual complex
    c_b = kernel(d_dual)
    c = Subspace.from_span(2 * n, [
        tuple(unit_vec(n, i)) + zero_vec(n) for i in range(n)
    ] + [zero_vec(n) + tuple(b) for b in c_b.basis])
    d0 = coboundary(sigma, 0)
    char = Subspace.from_span(2 * n, [
        tuple(d0.col(j)) + zero_vec(n) for j in range(d0.cols)])
    return pkg, c, char


def classical_boundary_bf(sigma: CellComplex) -> tuple[Subspace, Subspace]:
    """Cauchy data of abelian BF: flat A times closed dual B; the
    characteristic directions shift A and B by exact forms."""
    if not sigma.is_closed():
        raise ValueError("sigma must be closed")
    n = sigma.n_cells(1)
    flat_a = kernel(coboundary(sigma, 1))
    closed_b = kernel(sigma.boundary_op(1))
    c = Subspace.from_span(2 * n, [
        tuple(a) + zero_vec(n) for a in flat_a.basis
    ] + [zero_vec(n) + tuple(b) for b in closed_b.basis])
    d0 = coboundary(sigma, 0)
    span = [tuple(d0.col(j)) + zero_vec(n) for j in range(d0.cols)]
    d2 = sigma.boundary_op(2)  # exact shifts of B come from the dual d
    span += [zero_vec(n) + tuple(d2.col(j)) for j in range(d2.cols)]
    char = Subspace.from_span(2 * n, span)
    return c, char
