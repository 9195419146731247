import dataclasses
import random
import time
from fractions import Fraction

import pytest

from bvkit.bvbfv import (
    ConstraintSet,
    DependentConstraints,
    LinearCohomologicalField,
    NonAbelianBrackets,
    NotSymplecticField,
    TruncatedPolynomialAlgebra,
    bfv_cohomology,
    bfv_resolve,
    boundary_bfv_reduction,
    build_ed_package,
    check_bvbfv,
    corner_extend,
    field_from_hamiltonian,
    hamiltonian_of,
    moduli_of_vacua,
    poisson_bracket,
)
from bvkit.collar import prism
from bvkit.complexes import (
    annulus_complex,
    circle_complex,
    disjoint_union,
    grid_complex,
    path_complex,
    torus_complex,
)
from bvkit.graded import GradedSymplecticSpace, GradedVectorSpace
from bvkit.numkit import Matrix, block_diag, vec


def darboux_space(n_pairs):
    # alpha = p dq convention: omega[q_i, p_i] = -1
    labels = [(f"q{i}", 0) for i in range(n_pairs)]
    labels += [(f"p{i}", 0) for i in range(n_pairs)]
    rows = [[Fraction(0)] * 2 * n_pairs for _ in range(2 * n_pairs)]
    for i in range(n_pairs):
        rows[i][n_pairs + i] = Fraction(-1)
        rows[n_pairs + i][i] = Fraction(1)
    return GradedSymplecticSpace(GradedVectorSpace.make(labels),
                                 Matrix.from_rows(rows), 0)


def momentum_constraints(n_pairs, rows):
    """Constraints built from momentum covectors only, hence abelian."""
    out = []
    for r in rows:
        out.append(vec([0] * n_pairs + list(r)))
    return ConstraintSet(darboux_space(n_pairs), tuple(out))


def monomial_count(n_vars, max_len):
    # commuting monomials of word length at most max_len
    from math import comb

    if n_vars == 0:
        return 1
    return sum(comb(n_vars + k - 1, k) for k in range(max_len + 1))


def test_resolution_generator_and_nilpotency():
    cs = momentum_constraints(2, [[1, 0]])
    ext, s, q = bfv_resolve(cs)
    assert ext.base.dim == 6
    assert poisson_bracket(s, s, ext).is_zero()
    assert (q.matrix @ q.matrix).is_zero()
    # Q kills the constraint direction and moves the ghost partner
    assert hamiltonian_of(q, ext) == s


def test_dependent_constraints_rejected():
    cs = momentum_constraints(2, [[1, 0], [2, 0]])
    with pytest.raises(DependentConstraints):
        bfv_resolve(cs)


def test_nonabelian_brackets_rejected():
    amb = darboux_space(1)
    cs = ConstraintSet(amb, (vec([1, 0]), vec([0, 1])))
    with pytest.raises(NonAbelianBrackets):
        bfv_resolve(cs)


def test_cohomology_of_momentum_constraint():
    cs = momentum_constraints(2, [[1, 0]])
    _, _, q = bfv_resolve(cs)
    alg = TruncatedPolynomialAlgebra(q.space, 2)
    # observables at truncation 2: polynomials in the surviving pair
    assert bfv_cohomology(q, alg, 0) == monomial_count(2, 2) == 6
    assert bfv_cohomology(q, alg, 1) == 0
    assert bfv_cohomology(q, alg, -1) == 0


def test_cohomology_random_abelian_sets():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            if Matrix.from_rows(rows).transpose().cols == k and \
                    len({tuple(r) for r in rows}) == k:
                from bvkit.numkit import rank

                if rank(Matrix.from_rows(rows)) == k:
                    break
        cs = momentum_constraints(n, rows)
        _, _, q = bfv_resolve(cs)
        d_max = rng.randint(1, 2)
        alg = TruncatedPolynomialAlgebra(q.space, d_max)
        want = monomial_count(2 * (n - k), d_max)
        assert bfv_cohomology(q, alg, 0) == want
        assert bfv_cohomology(q, alg, 1) == 0


def test_hamiltonian_round_trip():
    cs = momentum_constraints(3, [[1, 0, 0], [0, 1, 1]])
    ext, s, q = bfv_resolve(cs)
    q2 = field_from_hamiltonian(hamiltonian_of(q, ext), ext)
    assert q2.matrix == q.matrix


def test_non_hamiltonian_field_rejected():
    labels = [("q", 0), ("p", 0), ("b", -1), ("c", 1)]
    gv = GradedVectorSpace.make(labels)
    om = block_diag(Matrix.from_rows([[0, -1], [1, 0]]),
                    Matrix.from_rows([[0, 1], [1, 0]]))
    sp = GradedSymplecticSpace(gv, om, 0)
    # Q(q) = c and Q(b) = 2p cannot come from one quadratic generator
    rows = [[0, 0, 0, 1], [0, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]]
    q = LinearCohomologicalField(gv, Matrix.from_rows(rows))
    with pytest.raises(NotSymplecticField):
        hamiltonian_of(q, sp)


def check_all(p):
    rep = check_bvbfv(p)
    assert rep.passed, [k for k, r in rep.residuals.items()
                        if not r.is_zero()]


def test_square_package_identities():
    check_all(build_ed_package(grid_complex(1, 1)))


def test_disk_package_identities():
    check_all(build_ed_package(grid_complex(2, 2)))


def test_disk_bf_package_identities():
    check_all(build_ed_package(grid_complex(2, 2), bf=True))


def test_annulus_package_identities():
    check_all(build_ed_package(annulus_complex(3)))


def test_boundary_generator_matches_pairing():
    # S-boundary couples ghosts to the divergence of the dual field
    p = build_ed_package(grid_complex(2, 2))
    assert not p.s_boundary.is_zero()
    assert p.s_boundary.degree() == 1
    assert p.s_boundary.max_word_length() == 2


def test_mutation_sensitivity():
    rng = random.Random(5)
    p = build_ed_package(grid_complex(1, 1))
    n = p.bulk.base.dim
    caught = 0
    for _ in range(10):
        which = rng.choice(["hessian", "omega", "pi"])
        if which == "hessian":
            while True:
                i = rng.randrange(n)
                j = rng.randrange(n)
                if p.action_hessian[i, j] != 0:
                    break
            rows = [list(r) for r in p.action_hessian.entries]
            rows[i][j] = -rows[i][j]
            if i != j:
                rows[j][i] = -rows[j][i]
            mut = dataclasses.replace(p,
                                      action_hessian=Matrix.from_rows(rows))
        elif which == "omega":
            qm = p.q_bulk.matrix
            while True:
                i = rng.randrange(n)
                j = rng.randrange(n)
                # the pairing only enters the identities through Q, so a
                # flip on a Q-inert pair of directions is undetectable
                if i != j and p.bulk.omega[i, j] != 0 and \
                        any(qm[a, b] != 0
                            for a in (i, j) for b in range(n)):
                    break
            rows = [list(r) for r in p.bulk.omega.entries]
            rows[i][j] = -rows[i][j]
            rows[j][i] = -rows[j][i]
            bulk = GradedSymplecticSpace(p.bulk.base, Matrix.from_rows(rows),
                                         p.bulk.form_degree)
            mut = dataclasses.replace(p, bulk=bulk)
        else:
            while True:
                i = rng.randrange(p.pi.rows)
                j = rng.randrange(n)
                if p.pi[i, j] != 0:
                    break
            rows = [list(r) for r in p.pi.entries]
            rows[i][j] = -rows[i][j]
            mut = dataclasses.replace(p, pi=Matrix.from_rows(rows))
        if not check_bvbfv(mut).passed:
            caught += 1
    assert caught == 10


def test_moduli_disk_trivial():
    for m in (grid_complex(1, 1), grid_complex(2, 2)):
        mod = moduli_of_vacua(build_ed_package(m))
        assert all(v == 0 for v in mod.values())


def test_moduli_annulus():
    mod = moduli_of_vacua(build_ed_package(annulus_complex(3)))
    assert {d: v for d, v in mod.items() if v} == {0: 1, -1: 1}


def test_moduli_closed_torus_bf():
    mod = moduli_of_vacua(build_ed_package(torus_complex(3, 3), bf=True))
    # flat fields and locally constant duals in the middle, one class of
    # ghosts and one of top antifields at the ends
    assert {d: v for d, v in mod.items() if v} == {1: 1, 0: 3, -1: 3, -2: 1}


# Size-ladder oracles: the closed forms above at sizes past the fixtures,
# each under the 10 s wall-clock limit of the acceptance tests.

def test_moduli_annulus_ladder():
    start = time.monotonic()
    mod = moduli_of_vacua(build_ed_package(annulus_complex(5)))
    assert {d: v for d, v in mod.items() if v} == {0: 1, -1: 1}
    assert time.monotonic() - start < 10


def test_moduli_disk_trivial_ladder():
    start = time.monotonic()
    mod = moduli_of_vacua(build_ed_package(grid_complex(4, 4)))
    assert all(v == 0 for v in mod.values())
    assert time.monotonic() - start < 10


def test_moduli_closed_torus_bf_ladder():
    start = time.monotonic()
    p = build_ed_package(torus_complex(4, 4), bf=True)
    check_all(p)
    mod = moduli_of_vacua(p)
    assert {d: v for d, v in mod.items() if v} == {1: 1, 0: 3, -1: 3, -2: 1}
    assert time.monotonic() - start < 10


def test_disk_package_identities_ladder():
    start = time.monotonic()
    check_all(build_ed_package(grid_complex(6, 6)))
    assert time.monotonic() - start < 10


def test_corner_interval():
    cd = corner_extend(path_complex(3))
    degs = sorted(d for _, d in cd.space.labels)
    assert degs == [0, 0, 1, 1]
    assert cd.q_corner.is_zero()
    assert cd.package.basic


def test_corner_cylinder():
    sigma = prism(circle_complex(4), 2)
    cd = corner_extend(sigma)
    degs = [d for _, d in cd.space.labels]
    assert degs.count(1) == 4 and degs.count(0) == 4
    assert cd.q_corner.is_zero()


def test_boundary_bfv_circle():
    out = boundary_bfv_reduction(circle_complex(5), 2)
    assert out == {1: 1, 0: 2, -1: 1}


def test_boundary_bfv_two_circles():
    sigma = disjoint_union(circle_complex(4), circle_complex(3, tag="b"))
    out = boundary_bfv_reduction(sigma, 2)
    assert out[1] == 2 and out[-1] == 2


def test_boundary_bfv_torus():
    out = boundary_bfv_reduction(torus_complex(3, 3), 3)
    assert out[1] == 1 and out[-1] == 1


def test_boundary_bfv_rejects_open_sigma():
    with pytest.raises(ValueError):
        boundary_bfv_reduction(path_complex(4), 2)
