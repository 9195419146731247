"""Graded-commutative polynomial algebra over Q with Koszul signs,
graded derivatives, and the Poisson bracket of a graded symplectic form.

Monomials are tuples of generator indices kept in nondecreasing index
order; reordering odd generators tracks the Koszul sign and repeated odd
generators annihilate the monomial. Variations and derivatives act from
the left unless named otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .numkit import Matrix, Number, frac, invert, sparse_rank

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class GradedVectorSpace:
    """Ordered coordinate list with integer degrees; parity = degree mod 2."""

    labels: tuple[tuple[str, int], ...]

    @staticmethod
    def make(labels: Iterable[tuple[str, int]]) -> "GradedVectorSpace":
        return GradedVectorSpace(tuple((str(n), int(d)) for n, d in labels))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degree(self, i: int) -> int:
        return self.labels[i][1]

    def parity(self, i: int) -> int:
        return self.labels[i][1] % 2

    def components(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, d in self.labels:
            out[d] = out.get(d, 0) + 1
        return out


def normalize_monomial(space: GradedVectorSpace,
                       word: Iterable[int]) -> tuple[Optional[Monomial], int]:
    """Sort a generator word; returns (monomial, Koszul sign) or (None, 0)
    when a repeated odd generator kills it. A two-letter word, the only
    kind a quadratic generator has, is sorted by comparing its letters."""
    w = tuple(word)
    if len(w) == 2:
        a, b = w
        if a < b:
            return w, 1
        if a > b:
            return (b, a), -1 if space.parity(a) and space.parity(b) else 1
        return (None, 0) if space.parity(a) else (w, 1)
    w = list(w)
    sign = 1
    # insertion sort, counting odd-odd transpositions
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            if space.parity(w[j - 1]) and space.parity(w[j]):
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b and space.parity(a):
            return None, 0
    return tuple(w), sign


@dataclass(frozen=True)
class Polynomial:
    space: GradedVectorSpace
    terms: tuple[tuple[Monomial, Number], ...]

    @staticmethod
    def build(space: GradedVectorSpace,
              terms: Iterable[tuple[Iterable[int], Number]]) -> "Polynomial":
        acc: dict[Monomial, Number] = {}
        for word, coeff in terms:
            mono, sign = normalize_monomial(space, word)
            if mono is None or coeff == 0:
                continue
            c = frac(coeff) if sign > 0 else -frac(coeff)
            y = acc.get(mono)
            acc[mono] = c if y is None else y + c
        cleaned = tuple(sorted((m, c) for m, c in acc.items() if c != 0))
        return Polynomial(space, cleaned)

    @staticmethod
    def zero(space: GradedVectorSpace) -> "Polynomial":
        return Polynomial(space, ())

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.build(self.space,
                                list(self.terms) + list(other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        return Polynomial(self.space, tuple(
            (m, c * x) for m, x in self.terms)) if c else Polynomial.zero(self.space)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                terms.append((m1 + m2, c1 * c2))
        return Polynomial.build(self.space, terms)


def _derivative(p: Polynomial, gen: int, left: bool) -> Polynomial:
    """d/dx_gen: an odd x_gen passes the factors before it (from the left)
    or after it (from the right), with a sign for each odd one."""
    space = p.space
    terms = []
    for mono, coeff in p.terms:
        for pos, g in enumerate(mono):
            if g == gen:
                passed = mono[:pos] if left else mono[pos + 1:]
                odd = space.parity(gen) and sum(map(space.parity, passed)) % 2
                terms.append((mono[:pos] + mono[pos + 1:],
                              -coeff if odd else coeff))
    return Polynomial.build(space, terms)


def left_derivative(p: Polynomial, gen: int) -> Polynomial:
    """d/dx_gen acting from the left (signs from factors passed over)."""
    return _derivative(p, gen, left=True)


def right_derivative(p: Polynomial, gen: int) -> Polynomial:
    """d/dx_gen acting from the right."""
    return _derivative(p, gen, left=False)


@dataclass(frozen=True)
class GradedSymplecticSpace:
    """Graded coordinates with a constant-coefficient symplectic pairing.

    omega[a, b] is the pairing of the a-th and b-th coordinate directions;
    nonzero entries require deg a + deg b = form_degree and the graded
    antisymmetry omega[b, a] = -(-1)^(|a||b|) omega[a, b].
    """

    base: GradedVectorSpace
    omega: Matrix
    form_degree: int

    def __post_init__(self):
        n = self.base.dim
        if self.omega.shape != (n, n):
            raise ValueError("omega shape mismatch")
        deg = [d for _, d in self.base.labels]
        rows = self.omega.data
        for a, row in enumerate(rows):
            for b, x in row.items():
                if deg[a] + deg[b] != self.form_degree:
                    raise ValueError("omega pairs wrong degrees")
                odd = deg[a] % 2 and deg[b] % 2
                if rows[b].get(a, 0) != (x if odd else -x):
                    raise ValueError("omega is not graded antisymmetric")
        # with the antisymmetry above, one entry per row makes omega a
        # signed permutation; any other omega is ranked once
        if any(len(row) != 1 for row in rows) and sparse_rank(rows, n) < n:
            raise ValueError("omega is degenerate")

    @cached_property
    def _bracket(self) -> Matrix:
        return invert(self.omega)

    def bracket_matrix(self) -> Matrix:
        """Lambda with {x_a, x_b} = Lambda[a, b], the inverse of omega,
        built when a bracket is first taken."""
        return self._bracket


def poisson_bracket(f: Polynomial, g: Polynomial,
                    space: GradedSymplecticSpace) -> Polynomial:
    """{f, g} = sum_ab (right d f / d x_a) Lambda[a,b] (left d g / d x_b)."""
    lam = space.bracket_matrix()
    n = space.base.dim
    out = Polynomial.zero(space.base)
    for a in range(n):
        fa = right_derivative(f, a)
        if fa.is_zero():
            continue
        for b, x in lam.data[a].items():
            gb = left_derivative(g, b)
            if gb.is_zero():
                continue
            out = out + (fa * gb).scale(x)
    return out

