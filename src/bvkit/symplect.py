"""Linear presymplectic geometry: the isotropic/coisotropic/Lagrangian
trichotomy, kernel reduction, coisotropic reduction, and the
Gotay coisotropic embedding.

Sign convention, fixed here for the whole package: a one-form with
coefficient matrix W (alpha at x is the covector W x + const) has exterior
derivative d(alpha) with matrix W^T - W, i.e. omega(u, v) = u^T (W^T - W) v.
Every module that differentiates a one-form imports `d_of_coeff`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .numkit import (
    Matrix,
    Number,
    Subspace,
    Vector,
    _int_row,
    _rref_rows,
    block_diag,
    dot,
    kernel,
    sparse_rank,
)


def d_of_coeff(w: Matrix) -> Matrix:
    """Exterior derivative of the one-form with coefficient matrix w."""
    return w.transpose() - w


@dataclass(frozen=True)
class PresymplecticSpace:
    """Q^dim with a (possibly degenerate) antisymmetric pairing."""

    dim: int
    omega: Matrix

    def __post_init__(self):
        if self.omega.shape != (self.dim, self.dim):
            raise ValueError("omega must be square of size dim")
        if not self.omega.is_antisymmetric():
            raise ValueError("omega must be antisymmetric")

    @staticmethod
    def standard(n_pairs: int) -> "PresymplecticSpace":
        """Darboux space with omega(p_i, q_i) = 1, coordinates (q1..qn, p1..pn)."""
        n = 2 * n_pairs
        return PresymplecticSpace(n, Matrix(n, n, [
            {n_pairs + i: -1} for i in range(n_pairs)] + [
            {i: 1} for i in range(n_pairs)]))

    @staticmethod
    def trivial(dim: int) -> "PresymplecticSpace":
        return PresymplecticSpace(dim, Matrix.zeros(dim, dim))

    def pairing(self, u, v) -> Number:
        return dot(u, self.omega.apply(v))

    def kernel_subspace(self) -> Subspace:
        return kernel(self.omega)

    def is_nondegenerate(self) -> bool:
        return self.kernel_subspace().dim == 0


@dataclass(frozen=True)
class OneForm:
    """Linear-plus-constant one-form: alpha at x is the covector coeff@x + const.

    The constant part carries affine data (the geodesic fixture needs it)
    as a {col: value} dict of its nonzeros, empty when there is none; it
    is invisible to d.
    """

    ambient_dim: int
    coeff: Matrix
    const: dict[int, Number] = field(default_factory=dict)

    def __post_init__(self):
        if self.coeff.shape != (self.ambient_dim, self.ambient_dim):
            raise ValueError("coeff must be square of size ambient_dim")
        for j in self.const:
            if not 0 <= j < self.ambient_dim:
                raise ValueError(f"const holds column {j} outside "
                                 f"range({self.ambient_dim})")

    def at(self, x) -> Vector:
        """Covector of alpha at the point x."""
        return tuple(a + self.const.get(j, 0)
                     for j, a in enumerate(self.coeff.apply(x)))

    def evaluate(self, x, dx) -> Number:
        return dot(self.at(x), dx)

    def d(self) -> Matrix:
        return d_of_coeff(self.coeff)


@dataclass(frozen=True)
class ClassificationResult:
    is_isotropic: bool
    is_coisotropic: bool

    @property
    def is_lagrangian(self) -> bool:
        return self.is_isotropic and self.is_coisotropic


def classify(v: PresymplecticSpace, l: Subspace) -> ClassificationResult:
    """Isotropic and coisotropic from two exact ranks.

    With B the k x n RREF basis of l and G = B omega B^T,
    dim(l cap l^omega) = k - rank G and dim l^omega = n - rank(B omega).
    So l is isotropic iff rank G = 0, and coisotropic iff
    rank G - rank(B omega) = k - n. Each row of B, and omega as a whole,
    is scaled to integers first, which changes neither rank.
    """
    if l.ambient_dim != v.dim:
        raise ValueError("subspace does not live in the given space")
    scale = lcm(*(x.denominator for r in v.omega.data for x in r.values()))
    omega = [{j: x.numerator * (scale // x.denominator) for j, x in r.items()}
             for r in v.omega.data]
    basis = [_int_row(b) for b in l.basis]
    b_omega = []
    for b in basis:
        row: dict[int, int] = {}
        for i, x in b.items():
            for j, y in omega[i].items():
                row[j] = row.get(j, 0) + x * y
        b_omega.append(row)
    gram = [{s: sum(x * b[j] for j, x in row.items() if j in b)
             for s, b in enumerate(basis)} for row in b_omega]
    rank_g = sparse_rank(gram, len(basis))
    rank_bo = sparse_rank(b_omega, v.dim)
    return ClassificationResult(
        is_isotropic=rank_g == 0,
        is_coisotropic=rank_g - rank_bo == len(basis) - v.dim,
    )


@dataclass(frozen=True)
class Reduction:
    """A presymplectic space together with the projection that produced it.

    The projection is in RREF with its pivot columns `pivots`, so the
    selector S with S[pivots[i], i] = 1 is a right inverse of it.
    """

    space: PresymplecticSpace
    projection: Matrix
    pivots: tuple[int, ...] = field(compare=False)

    def descend(self, a: OneForm) -> OneForm:
        """The one-form on the reduced space whose pullback is a.

        With E = S @ projection, I - E maps onto the kernel, so a is
        basic (coeff and coeff^T vanish on the kernel, const is orthogonal
        to it) exactly when pulling back S^T coeff S = coeff[piv, piv] and
        S^T const = const[piv] gives a again. Raises NotBasic otherwise.
        """
        p, piv = self.projection, self.pivots
        coeff_red = a.coeff.submatrix(piv, piv)
        const = Matrix(1, a.ambient_dim, [a.const])
        const_red = const.submatrix((0,), piv)
        if p.transpose() @ coeff_red @ p != a.coeff:
            raise NotBasic("one-form is not invariant along the kernel")
        if const_red @ p != const:
            raise NotBasic("one-form is not horizontal on the kernel")
        return OneForm(self.space.dim, coeff_red, const_red.data[0])

    def descend_field(self, q: Matrix) -> Matrix:
        """The vector field on the reduced space that the linear field q
        descends to: the unique Q with Q @ projection = projection @ q.

        Q = projection @ q @ S is projection @ q read at the pivots, and
        q preserves the kernel exactly when Q @ projection = projection @ q.
        Raises NotProjectable otherwise.
        """
        p = self.projection
        if q.shape != (p.cols, p.cols):
            raise ValueError("vector field size mismatch")
        pq = p @ q
        out = pq.submatrix(range(pq.rows), self.pivots)
        if out @ p != pq:
            raise NotProjectable("field does not preserve the kernel")
        return out


class PullbackMismatch(ValueError):
    pass


def presymplectic_reduce(v: PresymplecticSpace) -> Reduction:
    """Quotient by ker(omega); the induced form is nondegenerate and
    satisfies projection^T @ omega_red @ projection = omega.

    ker(omega) is the dot-orthogonal complement of omega's row space, so
    the nonzero rows of rref(omega) project onto the quotient, and
    omega_red = S^T omega S is omega read at the pivots."""
    rows, pivots = _rref_rows(v.omega.data, v.dim)
    proj = Matrix(len(pivots), v.dim, rows)
    omega_red = v.omega.submatrix(pivots, pivots)
    reduced = PresymplecticSpace(len(pivots), omega_red)
    if proj.transpose() @ omega_red @ proj != v.omega:
        raise PullbackMismatch("projection^T omega_red projection != omega")
    return Reduction(reduced, proj, tuple(pivots))


class NotCoisotropic(ValueError):
    pass


def coisotropic_reduce(v: PresymplecticSpace, c: Subspace) -> Reduction:
    """Symplectic reduction c / c^perp of a coisotropic c in nondegenerate v.

    The returned projection maps coordinate vectors with respect to c's
    RREF basis to reduced coordinates.
    """
    if not v.is_nondegenerate():
        raise NotCoisotropic("ambient form must be nondegenerate")
    if not classify(v, c).is_coisotropic:
        raise NotCoisotropic("subspace is not coisotropic")
    b = c.matrix()
    restricted = PresymplecticSpace(c.dim, b @ v.omega @ b.transpose())
    return presymplectic_reduce(restricted)


@dataclass(frozen=True)
class GotayEmbedding:
    space: PresymplecticSpace          # symplectic thickening F
    embedding: Matrix                  # C -> F, image coisotropic
    image: Subspace


def gotay_embed(c: PresymplecticSpace) -> GotayEmbedding:
    """Coisotropic embedding of (C, omega) into a symplectic F = C + D*.

    D = ker(omega); the extra coordinates pair with the pivot coordinates
    of D's RREF basis, a deterministic choice of splitting.
    """
    ker = c.kernel_subspace()
    k = ker.dim
    n = c.dim
    if k == 0:
        return GotayEmbedding(c, Matrix.identity(n), Subspace.full(n))
    # the basis is in RREF already: each row's smallest column is its pivot
    pivots = [min(b) for b in ker.basis]
    # selector P with P[i, pivots[i]] = 1; K in RREF makes P k_j = e_j
    sel = Matrix(k, n, [{p: 1} for p in pivots])
    top = c.omega.hstack(sel.transpose())
    bottom = (-sel).hstack(Matrix.zeros(k, k))
    omega_f = top.vstack(bottom)
    space = PresymplecticSpace(n + k, omega_f)
    emb = Matrix.identity(n).vstack(Matrix.zeros(k, n))
    image = Subspace.from_span(n + k, [{i: 1} for i in range(n)])
    return GotayEmbedding(space, emb, image)


class NotBasic(Exception):
    """The one-form does not descend to the kernel reduction.

    The nonlinear story continues via line bundles, which this package
    does not model; callers treat this as a terminal outcome.
    """


class NotProjectable(ValueError):
    pass


def twisted_product(source: PresymplecticSpace,
                    target: PresymplecticSpace) -> PresymplecticSpace:
    """Source-sign-reversed product carrying (-omega_src) + omega_tgt.

    Both forms were checked antisymmetric when their spaces were built,
    so their block diagonal is, and it is not checked again."""
    v = object.__new__(PresymplecticSpace)
    object.__setattr__(v, "dim", source.dim + target.dim)
    object.__setattr__(v, "omega", block_diag(-source.omega, target.omega))
    return v
