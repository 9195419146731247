"""Linear relations between presymplectic spaces and their composition.

A relation from V to W is a subspace of V x W measured against the
sign-twisted product form (-omega_V) + omega_W, so that graphs of
form-preserving maps are isotropic and composition preserves the
canonical (Lagrangian) ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numkit import (
    Matrix,
    Subspace,
    kernel,
)
from .symplect import (
    ClassificationResult,
    PresymplecticSpace,
    classify,
    twisted_product,
)


class MiddleMismatch(ValueError):
    """Composition attempted across unequal middle spaces."""


@dataclass(frozen=True)
class LinearRelation:
    source: PresymplecticSpace
    target: PresymplecticSpace
    body: Subspace

    def __post_init__(self):
        if self.body.ambient_dim != self.source.dim + self.target.dim:
            raise ValueError("relation body must live in source x target")

    @property
    def ambient(self) -> PresymplecticSpace:
        return twisted_product(self.source, self.target)

    def classify(self) -> ClassificationResult:
        return classify(self.ambient, self.body)

    def is_canonical(self) -> bool:
        """Canonical = Lagrangian for the twisted product form."""
        return self.classify().is_lagrangian

    def transpose(self) -> "LinearRelation":
        ns, nt = self.source.dim, self.target.dim
        flipped = [tuple(b[ns:]) + tuple(b[:ns]) for b in self.body.basis]
        return LinearRelation(self.target, self.source,
                              Subspace.from_span(ns + nt, flipped))

    def contains(self, x, y) -> bool:
        return self.body.contains(tuple(x) + tuple(y))


def identity_relation(v: PresymplecticSpace) -> LinearRelation:
    return graph(v, v, Matrix.identity(v.dim))


def graph(source: PresymplecticSpace, target: PresymplecticSpace,
          f: Matrix) -> LinearRelation:
    """Relation {(x, f x)} of a linear map given by the matrix f."""
    if f.shape != (target.dim, source.dim):
        raise ValueError("map shape does not match source and target")
    ft = f.transpose()
    span = [tuple(row) + ft.row(i)
            for i, row in enumerate(Matrix.identity(source.dim).entries)]
    return LinearRelation(source, target,
                          Subspace.from_span(source.dim + target.dim, span))


def compose(first: LinearRelation, second: LinearRelation) -> LinearRelation:
    """Set-theoretic composite second after first.

    Pairs (x, z) such that (x, y) in first and (y, z) in second for some y
    in the shared middle space.
    """
    if first.target != second.source:
        raise MiddleMismatch("target of first must equal source of second")
    ns = first.source.dim
    nm = first.target.dim
    nt = second.target.dim
    b1 = first.body.matrix()
    b2 = second.body.matrix()
    k1, k2 = first.body.dim, second.body.dim
    # parametrize pairs (u in first.body, v in second.body) whose middle
    # components agree, then read off the outer components
    mid1 = b1.submatrix(range(k1), range(ns, ns + nm))
    mid2 = b2.submatrix(range(k2), range(0, nm))
    match = mid1.transpose().hstack(-mid2.transpose())
    params = kernel(match)
    outer1 = b1.submatrix(range(k1), range(ns)).transpose()
    outer2 = b2.submatrix(range(k2), range(nm, nm + nt)).transpose()
    span = [outer1.apply(p[:k1]) + outer2.apply(p[k1:])
            for p in params.basis]
    return LinearRelation(first.source, second.target,
                          Subspace.from_span(ns + nt, span))


def project_relation(rel: LinearRelation, side: str) -> Subspace:
    """Image of the relation body in the source ("domain") or target
    ("range") factor."""
    ns, nt = rel.source.dim, rel.target.dim
    b = rel.body.matrix()
    if side == "domain":
        cols = b.submatrix(range(rel.body.dim), range(ns))
        return Subspace.from_span(ns, list(cols.entries))
    if side == "range":
        cols = b.submatrix(range(rel.body.dim), range(ns, ns + nt))
        return Subspace.from_span(nt, list(cols.entries))
    raise ValueError("side must be 'domain' or 'range'")
