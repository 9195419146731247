"""Ghost resolutions of linear constraint sets, graded symplectic
packages for discrete electrodynamics and abelian BF theory, the five
structural identities coupling bulk and boundary data, moduli of vacua,
boundary function cohomology, and corner data.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .collar import (
    FieldSpec,
    QuadraticLocalTheory,
    boundary_one_form,
    preboundary_reduce,
)
from .complexes import CellComplex, coboundary, hodge_weights
from .graded import (
    GradedSymplecticSpace,
    GradedVectorSpace,
    Monomial,
    Polynomial,
)
from .numkit import (
    Matrix,
    Number,
    block_diag,
    sparse_rank,
    vec,
)
from .symplect import OneForm, Reduction

__all__ = [
    "LinearCohomologicalField", "ConstraintSet", "BVBFVPackage",
    "DependentConstraints", "NonAbelianBrackets", "NotSymplecticField",
    "bfv_resolve", "bfv_cohomology", "hamiltonian_of",
    "field_from_hamiltonian", "build_ed_package", "check_bvbfv",
    "moduli_of_vacua", "corner_extend", "boundary_bfv_reduction",
]


class DependentConstraints(ValueError):
    pass


class NonAbelianBrackets(ValueError):
    pass


class NotSymplecticField(ValueError):
    pass


@dataclass(frozen=True)
class LinearCohomologicalField:
    """Linear vector field Q with Q(x_a) = sum_b matrix[a, b] x_b,
    squaring to zero and raising the coordinate function degree by one
    (so matrix[a, b] != 0 requires deg b = deg a + 1)."""

    space: GradedVectorSpace
    matrix: Matrix

    def __post_init__(self):
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise ValueError("field matrix size mismatch")
        degree = self.space.degree
        for a, row in enumerate(self.matrix.data):
            if any(degree(b) != degree(a) + 1 for b in row):
                raise ValueError("field must raise degree by one")
        if not (self.matrix @ self.matrix).is_zero():
            raise ValueError("field must square to zero")

    def on_words(self, w: Matrix) -> Matrix:
        """Q(W) for a word matrix W: Q(x_a x_b) = Q(x_a) x_b
        + (-1)^|a| x_a Q(x_b), so Q(W) = Q^T W + P W Q, with P negating
        the rows of the odd coordinates."""
        parity = self.space.parity
        pw = Matrix(w.rows, w.cols, [{b: -x for b, x in row.items()}
                                     if parity(a) else row
                                     for a, row in enumerate(w.data)])
        return self.matrix.transpose() @ w + pw @ self.matrix


@dataclass(frozen=True)
class ConstraintSet:
    """Independent commuting linear functionals on an even degree-0
    symplectic space."""

    ambient: GradedSymplecticSpace
    constraints: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        if self.ambient.form_degree != 0:
            raise ValueError("constraints live on a degree-0 space")
        if any(d != 0 for _, d in self.ambient.base.labels):
            raise ValueError("ambient must be purely even of degree zero")


def bfv_resolve(c: ConstraintSet) -> tuple[GradedSymplecticSpace, Polynomial,
                                           LinearCohomologicalField]:
    """Adjoin a ghost pair (b_i, c^i) per constraint and return the
    extended space, the resolution generator S = sum c^i phi_i, and its
    bracket derivation Q = {S, .}."""
    k = len(c.constraints)
    n = c.ambient.base.dim
    if k:
        if sparse_rank(({j: x for j, x in enumerate(r) if x}
                        for r in c.constraints), n) < k:
            raise DependentConstraints("constraints are linearly dependent")
        cm = Matrix.from_rows(c.constraints)
        if not (cm @ c.ambient.bracket_matrix() @ cm.transpose()).is_zero():
            raise NonAbelianBrackets("constraint brackets do not vanish")
    labels = list(c.ambient.base.labels)
    labels += [(f"gh_b{i}", -1) for i in range(k)]
    labels += [(f"gh_c{i}", 1) for i in range(k)]
    gv = GradedVectorSpace.make(labels)
    pair = Matrix(2 * k, 2 * k, [{k + i: 1} for i in range(k)]
                  + [{i: 1} for i in range(k)])
    ext = GradedSymplecticSpace(gv, block_diag(c.ambient.omega, pair), 0)
    s = Polynomial.build(gv, [
        ((n + k + i, a), c.constraints[i][a])
        for i in range(k) for a in range(n)])
    q = field_from_hamiltonian(s, ext)
    return ext, s, q


def _right_derivatives(s: Polynomial) -> Matrix:
    """K for a quadratic s: K[a, b] is the coefficient of x_b in the
    right derivative of s by x_a. A term t x_a x_b adds t to K[b, a] and,
    with the Koszul sign of moving x_a past x_b, to K[a, b]."""
    gv = s.space
    k: list[dict[int, Number]] = [{} for _ in range(gv.dim)]
    for mono, t in s.terms:
        if len(mono) != 2:
            raise ValueError("generator is not quadratic")
        a, b = mono
        koszul = -t if gv.parity(a) and gv.parity(b) else t
        for i, j, x in ((a, b, koszul), (b, a, t)):
            k[i][j] = k[i].get(j, 0) + x
    return Matrix(gv.dim, gv.dim, [{j: x for j, x in r.items() if x}
                                   for r in k])


def _bracket_matrix_of(s: Polynomial, space: GradedSymplecticSpace) -> Matrix:
    """Q with {s, x_c} = sum_b Q[c, b] x_b for a quadratic s: Lambda^T K,
    with K its `_right_derivatives`."""
    return space.bracket_matrix().transpose() @ _right_derivatives(s)


def field_from_hamiltonian(s: Polynomial,
                           space: GradedSymplecticSpace) -> LinearCohomologicalField:
    """The linear field {s, .} of a quadratic generator s."""
    return LinearCohomologicalField(space.base, _bracket_matrix_of(s, space))


def _words(w: Matrix) -> Iterator[tuple[Monomial, Number]]:
    """The words of the word matrix W, which stands for the polynomial
    sum_ab W[a, b] x_a x_b; `Polynomial.build` normalizes them."""
    return (((a, b), x) for a, row in enumerate(w.data) for b, x in row.items())


def _generator_matrix(q: LinearCohomologicalField,
                      space: GradedSymplecticSpace) -> Matrix:
    """N = Q^T omega, the word matrix of twice the quadratic S with
    {S, x_a} = Q(x_a). Such an S exists exactly when N is graded
    symmetric, N[b, a] = (-1)^(|a||b|) N[a, b], so that an odd diagonal
    entry is 0; otherwise NotSymplecticField is raised. No inverse of
    omega is built."""
    parity = space.base.parity
    n = q.matrix.transpose() @ space.omega
    for a, row in enumerate(n.data):
        for b, x in row.items():
            if n.data[b].get(a) != (-x if parity(a) and parity(b) else x):
                raise NotSymplecticField("field has no quadratic generator")
    return n


def hamiltonian_of(q: LinearCohomologicalField,
                   space: GradedSymplecticSpace) -> Polynomial:
    """The quadratic S with {S, x_a} = Q(x_a), of degree form_degree + 1:
    the words of half of `_generator_matrix`, so a field that is not
    graded Hamiltonian is refused."""
    return Polynomial.build(space.base, _words(
        _generator_matrix(q, space).scale(Fraction(1, 2))))


def bfv_cohomology(q: LinearCohomologicalField, truncation: int,
                   degrees: Iterable[int]) -> dict[int, int]:
    """dim H^d of the derivation on the polynomials of word length at most
    `truncation`, at each requested ghost degree d.

    Q is linear, so it keeps word length, and in characteristic 0
    H(Sym^k V, Q) = Sym^k H(V, Q) with Koszul signs (Kunneth for V^(x)k,
    then S_k-coinvariants, which are exact by Maschke). With h_g the
    cohomology of Q on the generators of degree g, dim H^d is the sum
    over k <= truncation of the coefficient of x^d y^k in
    prod_(g odd) (1 + x^g y)^h_g * prod_(g even) (1 - x^g y)^(-h_g).
    """
    h = _linear_cohomology(q.matrix.data, [d for _, d in q.space.labels])
    count = {(0, 0): 1}   # (word length, degree) -> dimension
    for g, hg in h.items():
        if not hg:
            continue
        # coefficient of (x^g y)^j: exterior powers for odd g, symmetric
        # powers for even g
        factor = [comb(hg, j) if g % 2 else comb(hg + j - 1, j)
                  for j in range(truncation + 1)]
        nxt: dict[tuple[int, int], int] = {}
        for (k, d), c in count.items():
            for j, f in enumerate(factor[:truncation - k + 1]):
                key = (k + j, d + g * j)
                nxt[key] = nxt.get(key, 0) + c * f
        count = nxt
    out = {d: 0 for d in degrees}
    for (_, d), c in count.items():
        if d in out:
            out[d] += c
    return out


def _linear_cohomology(rows: Sequence[dict[int, Number]],
                       degrees: Sequence[int]) -> dict[int, int]:
    """{g: h_g}, the cohomology per degree of a differential on
    coordinates of the given degrees, where row a has its entries only in
    degree degrees[a] + 1: h_g = n_g - rank D_g - rank D_(g-1), with D_g
    the rows of degree g."""
    by_degree: dict[int, list[dict[int, Number]]] = {}
    for row, g in zip(rows, degrees):
        by_degree.setdefault(g, []).append(row)
    ranks = {g: sparse_rank(rs, len(degrees)) for g, rs in by_degree.items()}
    return {g: len(by_degree[g]) - ranks[g] - ranks.get(g - 1, 0)
            for g in sorted(by_degree)}


@dataclass(frozen=True)
class BVBFVPackage:
    bulk: GradedSymplecticSpace          # odd form of degree -1
    action_hessian: Matrix               # degree-0 S, a plain quadratic form
    q_bulk: LinearCohomologicalField
    boundary: GradedSymplecticSpace      # even form of degree 0
    alpha_boundary: OneForm
    q_boundary: LinearCohomologicalField
    reduction: Reduction                 # its projection is pi
    # bulk antifield coordinates sitting on boundary cells; vacuum
    # classes are taken modulo these directions (the antifield sector
    # lives on the dual complex relative to the boundary)
    boundary_antifields: tuple[int, ...] = ()
    # bulk field coordinates sitting on boundary cells; the fiber over
    # the trivial boundary point pins these directly, even where the
    # reduced pairing cannot see them
    boundary_fields: tuple[int, ...] = ()


def _graded_from_antisymmetric(plain: Matrix,
                               gv: GradedVectorSpace) -> Matrix:
    """Reinterpret a plainly antisymmetric coefficient matrix in the
    graded convention: entries above the diagonal are kept, the mirror
    entry follows graded antisymmetry (symmetric on odd-odd pairs)."""
    out: list[dict[int, Number]] = [{} for _ in range(plain.rows)]
    for a, row in enumerate(plain.data):
        for b, x in row.items():
            if b > a:
                out[a][b] = x
                out[b][a] = x if gv.parity(a) and gv.parity(b) else -x
    return Matrix(plain.rows, plain.cols, out)


def _graded_fields(m: CellComplex,
                   layout: tuple[FieldSpec, ...]) -> GradedVectorSpace:
    """One coordinate `name.cell` per cell per field, in layout order,
    carrying the field's degree."""
    return GradedVectorSpace.make((f"{f.name}.{x}", f.degree)
                                  for f in layout for x in m.cells[f.cell_dim])


def _infer_boundary_degrees(projection: Matrix,
                            bulk: GradedVectorSpace) -> list[int]:
    degs = [{bulk.degree(j) for j in row} for row in projection.data]
    if any(len(s) != 1 for s in degs):
        raise ValueError("reduced coordinate mixes degrees")
    return [s.pop() for s in degs]


def build_ed_package(m: CellComplex, bf: bool = False) -> BVBFVPackage:
    """Assemble the gauge theory package on a two-dimensional complex:
    ghosts on vertices, gauge field on edges, a dual-face field B, and
    their antifields; `bf` drops the B^2 metric term."""
    if m.dim != 2:
        raise ValueError("only two-dimensional bulk complexes are supported")
    if bf is False and (m.weights is None or not m.cubical):
        raise ValueError("the metric term needs a weighted cubical complex")
    nv, ne, nf = m.n_cells(0), m.n_cells(1), m.n_cells(2)
    layout = (FieldSpec("c", 0, 1), FieldSpec("A", 1, 0), FieldSpec("B", 2, 0),
              FieldSpec("Bp", 2, -1), FieldSpec("Ap", 1, -1),
              FieldSpec("cp", 0, -2))
    off_c, off_a, off_b, off_bp, off_ap, off_cp, n = accumulate(
        (m.n_cells(f.cell_dim) for f in layout), initial=0)
    gv = _graded_fields(m, layout)

    d0 = coboundary(m, 0)
    d1 = coboundary(m, 1)
    star = vec(hodge_weights(m, 2)) if not bf else ()
    bd_e = set(m.boundary_indices(1))
    bd_v = set(m.boundary_indices(0))

    # one pass over the nonzeros of d0, d1 and the star fills the bulk
    # pairing (each field against its antifield), the Hessian of
    # S = B.dA + (half) B*B + A+.(dc), and Q;
    # antifield rows of Q conjugate to boundary cells are dropped so that
    # the boundary term survives in the variational split
    omega: list[dict[int, Number]] = [{} for _ in range(n)]
    g: list[dict[int, Number]] = [{} for _ in range(n)]
    q: list[dict[int, Number]] = [{} for _ in range(n)]
    for field, anti, count, sign in ((off_a, off_ap, ne, 1),
                                     (off_b, off_bp, nf, -1),
                                     (off_c, off_cp, nv, -1)):
        for i in range(count):
            omega[field + i][anti + i] = sign
            omega[anti + i][field + i] = -sign
    for e, row in enumerate(d0.data):
        for v, x in row.items():
            g[off_ap + e][off_c + v] = g[off_c + v][off_ap + e] = x
            q[off_a + e][off_c + v] = x
            if v not in bd_v:
                q[off_cp + v][off_ap + e] = x
    for f, row in enumerate(d1.data):
        for e, x in row.items():
            g[off_b + f][off_a + e] = g[off_a + e][off_b + f] = x
            q[off_bp + f][off_a + e] = x
            if e not in bd_e:
                q[off_ap + e][off_b + f] = -x
    for f, w in enumerate(star):
        if w:
            g[off_b + f][off_b + f] = q[off_bp + f][off_b + f] = w
    bulk = GradedSymplecticSpace(gv, Matrix(n, n, omega), -1)
    hessian = Matrix(n, n, g)
    q_bulk = LinearCohomologicalField(gv, Matrix(n, n, q))

    # variational boundary term: rows of the fields whose conjugates are
    # differentiated in S, at boundary cells; antifield rows stay bulk
    bd_fields = tuple(sorted([off_a + e for e in bd_e]
                             + [off_c + v for v in bd_v]))
    red, alpha = preboundary_reduce(boundary_one_form(
        QuadraticLocalTheory(m, layout, hessian), bd_fields))
    if alpha is None:
        raise ValueError("boundary one-form failed to descend")
    bdegs = _infer_boundary_degrees(red.projection, gv)
    blabels = [(f"y{i}", d) for i, d in enumerate(bdegs)]
    bgv = GradedVectorSpace.make(blabels)
    # the graded reading of the reduced two-form takes the opposite
    # orientation; this makes the quadratic boundary generator satisfy
    # the master identity in its standard shape
    boundary = GradedSymplecticSpace(
        bgv, _graded_from_antisymmetric(red.space.omega.scale(-1), bgv), 0)
    q_boundary = LinearCohomologicalField(bgv,
                                          red.descend_field(q_bulk.matrix))
    bd_anti = tuple(sorted([off_ap + e for e in bd_e]
                           + [off_cp + v for v in bd_v]))
    return BVBFVPackage(bulk, hessian, q_bulk, boundary, alpha, q_boundary,
                        red, bd_anti, bd_fields)


@dataclass(frozen=True)
class CheckReport:
    residuals: dict
    passed: bool


def check_bvbfv(p: BVBFVPackage) -> CheckReport:
    """Verify the five structural identities exactly; residuals are the
    offending matrices or polynomials, zero when the identity holds.

    (i)   contraction of Q into omega equals dS minus the pulled-back
          boundary one-form;
    (ii)  the restriction intertwines Q and the boundary field;
    (iii) both fields square to zero;
    (iv)  Q(S) equals the pullback of twice the boundary generator minus
          the contraction of the boundary field into the boundary
          one-form; on word matrices (W stands for sum_ab W[a, b] x_a x_b)
          Q^T S + P S Q - pi^T (N - C^T Q_bd) pi builds the one residual
          polynomial, with S the Hessian's lower triangle, diagonal
          halved, N from `_generator_matrix` (so NotSymplecticField if the
          boundary field has no generator) and C the one-form's matrix;
    (v)   the Lie derivative of omega along Q equals minus the
          pulled-back boundary two-form (the transpose of (i)).
    """
    omega = p.bulk.omega
    q = p.q_bulk.matrix
    g = p.action_hessian
    pi = p.reduction.projection
    pi_t = pi.transpose()
    qt_omega = q.transpose() @ omega
    c_bd = p.alpha_boundary.coeff
    q_bd = p.q_boundary.matrix
    res = {}

    res["fundamental"] = qt_omega - g + pi_t @ c_bd.transpose() @ pi
    res["restriction"] = pi @ q - q_bd @ pi
    res["nilpotency_bulk"] = q @ q
    res["nilpotency_boundary"] = q_bd @ q_bd

    s = Matrix(g.rows, g.cols, [{b: x if b < a else Fraction(x, 2)
                                 for b, x in row.items() if b <= a}
                                for a, row in enumerate(g.data)])
    rhs = _generator_matrix(p.q_boundary, p.boundary) \
        - c_bd.transpose() @ q_bd
    res["master"] = Polynomial.build(p.bulk.base, _words(
        p.q_bulk.on_words(s) - pi_t @ rhs @ pi))

    res["lie_derivative"] = (qt_omega + omega @ q) \
        + pi_t @ p.reduction.space.omega @ pi

    passed = all(r.is_zero() for r in res.values())
    return CheckReport(res, passed)


def moduli_of_vacua(p: BVBFVPackage) -> dict[int, int]:
    """Graded dimensions of the zero locus of Q over the trivial
    classical boundary point, modulo gauge directions.

    The fiber pins the degree-0 reduced boundary coordinates and the
    field traces on boundary cells; antifield traces are quotiented out
    instead (the antifield sector is relative to the boundary). Gauge
    directions have vanishing field traces and flow inside the fiber.

    The locus is ker M with M = [q; pi_0; trace] and the gauge sources
    are ker W with W = [pi_0 q; trace q; trace]. A kernel meets the
    coordinates I of one degree in the kernel of the columns I, so with
    rel_d the antifield traces of degree d and P dropping the rows of q
    in rel_d, every dimension is a sum of exact ranks:
    dim(locus_d + rel_d) = |I_d| - rk M[:, I_d] + rk M[:, rel_d] and
    dim(q gauge_(d+1) + rel_d) = |rel_d| + rk [W; P q][:, I_(d+1)]
    - rk W[:, I_(d+1)]. Each nonzero row lies in one degree (row a of q
    in deg(a) + 1, pi_0 in 0, pi_0 q in 1, a trace in its own), so the
    rows on I_e are those in degree e, and each distinct set of them is
    ranked once: on a closed complex [W; P q] on I_(d+1) is M on it.
    """
    gv, n = p.bulk.base, p.bulk.base.dim
    pi0 = [r for r, (_, e) in zip(p.reduction.projection.data,
                                  p.boundary.base.labels) if e == 0]
    k = len(pi0)
    pi0_q = (Matrix(k, n, pi0) @ p.q_bulk.matrix).data
    # q's rows at their coordinates, then pi_0, pi_0 q and the traces
    rows = [*p.q_bulk.matrix.data, *pi0, *pi0_q]
    rows += [{i: 1} for i in p.boundary_fields]
    lies_in: defaultdict[int, set[int]] = defaultdict(set)
    for at, e in enumerate([d + 1 for _, d in gv.labels] + [0] * k + [1] * k
                           + [gv.degree(i) for i in p.boundary_fields]):
        if rows[at]:
            lies_in[e].add(at)
    pi0_at, pi0_q_at = set(range(n, n + k)), set(range(n + k, n + 2 * k))
    fields = set(p.boundary_fields)

    @cache
    def rank(at: frozenset[int]) -> int:
        return sparse_rank([rows[i] for i in at], n) if at else 0

    out = {}
    for d, n_d in sorted(gv.components().items()):
        rel = {i for i in p.boundary_antifields if gv.degree(i) == d}
        m_d = frozenset(lies_in[d] - pi0_q_at)
        up = lies_in[d + 1] - pi0_at
        on_rel = [r for i in m_d
                  if (r := {j: x for j, x in rows[i].items() if j in rel})]
        out[d] = (n_d - rank(m_d) - len(rel)
                  + (sparse_rank(on_rel, n) if on_rel else 0)
                  - rank(frozenset(up - (rel - fields)))
                  + rank(frozenset(i for i in up if i in fields or i >= n)))
    return out


@dataclass(frozen=True)
class CornerData:
    space: GradedVectorSpace
    q_corner: Matrix
    reduction: Reduction
    alpha: Optional[OneForm]


def corner_extend(sigma: CellComplex) -> CornerData:
    """Reduce the boundary generator pairing ghosts with the dual-field
    divergence on a piece Sigma with corners: one (ghost, field) pair per
    corner cell survives and the corner field vanishes."""
    if sigma.dim < 1:
        raise ValueError("corners need a complex with edges")
    nv, ne = sigma.n_cells(0), sigma.n_cells(1)
    # ghosts on vertices, dual field on edges, paired by the divergence
    layout = (FieldSpec("c", 0, 1), FieldSpec("B", 1, 0))
    dd = sigma.boundary_op(1)
    action = Matrix.zeros(nv, nv).hstack(dd).vstack(
        dd.transpose().hstack(Matrix.zeros(ne, ne)))
    red, alpha = preboundary_reduce(boundary_one_form(
        QuadraticLocalTheory(sigma, layout, action),
        sigma.boundary_indices(0)))
    degs = _infer_boundary_degrees(red.projection,
                                   _graded_fields(sigma, layout))
    gv = GradedVectorSpace.make([(f"z{i}", d) for i, d in enumerate(degs)])
    q_corner = red.descend_field(Matrix.zeros(nv + ne, nv + ne))
    return CornerData(gv, q_corner, red, alpha)


def boundary_bfv_reduction(sigma: CellComplex, d: int) -> dict[int, int]:
    """Cohomology of the boundary field on linear functionals, per ghost
    degree, for the gauge theory on a closed Sigma of dimension d - 1.

    The differential on linear functionals is the transpose of Q, so its
    rank out of degree g is the rank of the rows of Q in degree g on the
    columns of degree g + 1. At d = 3 this is electrodynamics' boundary
    field (A and E on edges, c and c+ on vertices): b_0 classes in degrees
    +-1 and 2(n_1 - n_0 + b_0) in degree 0, a count that grows with the
    cells, as Maxwell theory in 2 + 1 dimensions has local degrees of
    freedom.
    """
    if not sigma.is_closed():
        raise ValueError("sigma must be closed")
    if d != sigma.dim + 1:
        raise ValueError(f"sigma must have dimension d - 1 = {d - 1}, "
                         f"got {sigma.dim}")
    nv, ne = sigma.n_cells(0), sigma.n_cells(1)
    # c, A, B (dual), A+ (dual top)
    off_c, off_a, off_b, off_ap = 0, nv, nv + ne, nv + 2 * ne
    degs = [1] * nv + [0] * ne + [0] * ne + [-1] * nv
    # Q(A_e) = sum_v d0[e, v] c_v and Q(A+_v) = sum_e dd[v, e] B_e
    q: list[dict[int, Number]] = [{} for _ in degs]
    for e, faces in enumerate(sigma.faces(1)):
        for v, x in faces:
            q[off_a + e][off_c + v] = x
            q[off_ap + v][off_b + e] = x
    return _linear_cohomology(q, degs)
