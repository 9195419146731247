"""Linear relations between presymplectic spaces and their composition.

A relation from V to W is a subspace of V x W measured against the
sign-twisted product form (-omega_V) + omega_W, so that graphs of
form-preserving maps are isotropic and composition preserves the
canonical (Lagrangian) ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .numkit import (
    Matrix,
    Subspace,
    _int_rows,
    _pivot_columns,
    _rref_int_rows,
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

    @cached_property
    def ambient(self) -> PresymplecticSpace:
        return twisted_product(self.source, self.target)

    def classify(self) -> ClassificationResult:
        return classify(self.ambient, self.body)

    def is_canonical(self) -> bool:
        """Canonical = Lagrangian for the twisted product form."""
        return self.classify().is_lagrangian

    def transpose(self) -> "LinearRelation":
        ns, nt = self.source.dim, self.target.dim
        flipped = [{j - ns if j >= ns else j + nt: x for j, x in b.items()}
                   for b in self.body.basis]
        return LinearRelation(self.target, self.source,
                              Subspace.from_span(ns + nt, flipped))

    def contains(self, x, y) -> bool:
        """Whether the pair of dense points (x, y) lies in the relation."""
        ns = self.source.dim
        if len(x) != ns or len(y) != self.target.dim:
            raise ValueError("point does not match source and target")
        v = {i: a for i, a in enumerate(x) if a}
        v.update((ns + i, b) for i, b in enumerate(y) if b)
        return self.body.contains(v)


def graph(source: PresymplecticSpace, target: PresymplecticSpace,
          f: Matrix) -> LinearRelation:
    """Relation {(x, f x)} of a linear map given by the matrix f."""
    if f.shape != (target.dim, source.dim):
        raise ValueError("map shape does not match source and target")
    ns = source.dim
    span = [{i: 1, **{ns + j: x for j, x in col.items()}}
            for i, col in enumerate(f.transpose().data)]
    return LinearRelation(source, target,
                          Subspace.from_span(ns + target.dim, span))


def compose(first: LinearRelation, second: LinearRelation) -> LinearRelation:
    """Set-theoretic composite second after first.

    Pairs (x, z) such that (x, y) in first and (y, z) in second for some y
    in the shared middle space. With the middle coordinates last, the
    rows (x, 0, y) of first and (0, z, -y) of second span the sums whose
    middle parts are y - y'. Eliminating the middle columns forward, each
    pivot row dropped once its column is cleared, leaves rows that span
    exactly the pairs (x, z); only those are reduced, and their RREF is
    the composite's basis.
    """
    if first.target != second.source:
        raise MiddleMismatch("target of first must equal source of second")
    ns = first.source.dim
    nm = first.target.dim
    nt = second.target.dim
    span = [{j if j < ns else j + nt: x for j, x in b.items()}
            for b in first.body.basis]
    span += [dict((j + ns + nt, -x) if j < nm else (j - nm + ns, x)
                  for j, x in b.items())
             for b in second.body.basis]
    work = _int_rows(span)
    _pivot_columns(work, ns + nt + nm, reduced=False, start=ns + nt)
    body = _rref_int_rows(work, ns + nt)[0]
    return LinearRelation(first.source, second.target,
                          Subspace(ns + nt, tuple(body)))

