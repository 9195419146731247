import random
from fractions import Fraction

import pytest

from bvkit import cli
from bvkit import collar as collar_module
from bvkit.bvbfv import build_ed_package
from bvkit.collar import (
    CollarModel,
    FieldSpec,
    NonlocalAction,
    QuadraticLocalTheory,
    boundary_one_form,
    el_form,
    preboundary_reduce,
    prism,
)
from bvkit.complexes import (
    circle_complex,
    coboundary,
    hodge_star,
    path_complex,
    torus_complex,
    validate,
)
from bvkit.numkit import Matrix, kernel, vec
from bvkit.symplect import (
    NotBasic,
    NotProjectable,
    OneForm,
    PresymplecticSpace,
    presymplectic_reduce,
)
from test_cli import run_cli
from test_numkit import from_dense, section_of


def point_complex():
    return path_complex(1, boundary=[])


def graph_laplacian(cx):
    d0 = coboundary(cx, 0)
    w = hodge_star(cx, 1)
    return d0.transpose() @ w @ d0


def scalar_theory_on_collar(layers, base=None):
    collar = CollarModel.build(base or point_complex(), layers)
    t = QuadraticLocalTheory(collar.total, (FieldSpec("phi", 0),),
                             graph_laplacian(collar.total))
    return collar, t


def test_prism_of_point_is_path():
    total = prism(point_complex(), 2)
    assert validate(total) == []
    assert total.n_cells(0) == 3 and total.n_cells(1) == 2
    assert total.boundary_indices(0) == [0]


def test_prism_of_circle_is_cylinder():
    total = prism(circle_complex(4), 2)
    assert validate(total) == []
    assert total.dim == 2
    assert total.n_cells(0) == 12
    assert total.n_cells(1) == 8 + 12
    assert total.n_cells(2) == 8
    assert total.euler_characteristic() == 0
    assert len(total.boundary_indices(0)) == 4  # layer-0 circle only


def test_variational_split_is_exact():
    rng = random.Random(3)
    collar, t = scalar_theory_on_collar(3)
    a = boundary_one_form(t)
    el = el_form(t)
    for _ in range(10):
        x = vec([rng.randint(-5, 5) for _ in range(t.n_vars)])
        dx = vec([rng.randint(-5, 5) for _ in range(t.n_vars)])
        ds = sum(u * v for u, v in zip(t.variation(x), dx))
        el_part = sum(u * v for u, v in zip(el.apply(x), dx))
        assert ds == el_part + a.evaluate(x, dx)


def test_scalar_collar_alpha_is_normal_difference():
    _, t = scalar_theory_on_collar(2)
    a = boundary_one_form(t)
    # only the layer-0 row is populated: (phi0 - phi1) d(phi0)
    assert a.coeff.entries[0] == vec([1, -1, 0])
    assert a.coeff.entries[1] == vec([0, 0, 0])
    assert a.coeff.entries[2] == vec([0, 0, 0])


def test_zero_action_gives_zero_boundary_form():
    collar = CollarModel.build(point_complex(), 2)
    t = QuadraticLocalTheory(collar.total, (FieldSpec("phi", 0),),
                             Matrix.zeros(3, 3))
    a = boundary_one_form(t)
    assert a.coeff.is_zero()
    red, _ = preboundary_reduce(a)
    assert red.space.dim == 0


def reduce_by_elimination(a):
    """The general path: reduce d(a) by one RREF, then descend a."""
    red = presymplectic_reduce(PresymplecticSpace(a.ambient_dim, a.d()))
    try:
        return red, red.descend(a)
    except NotBasic:
        return red, None


def counted_reductions(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v.dim)
        return presymplectic_reduce(v)
    monkeypatch.setattr(collar_module, "presymplectic_reduce", counted)
    return calls


@pytest.mark.parametrize("n", [0, 1, 32])
def test_zero_form_reduction_is_read_off(monkeypatch, n):
    """A zero one-form reduces to the 0-dimensional space and descends to
    the zero form on it, the objects the general path builds, with no
    elimination."""
    a = OneForm(n, Matrix.zeros(n, n))
    want_red, want_alpha = reduce_by_elimination(a)
    calls = counted_reductions(monkeypatch)
    red, alpha = preboundary_reduce(a)
    assert calls == []
    assert red == want_red and red.pivots == want_red.pivots == ()
    assert alpha == want_alpha == OneForm(0, Matrix.zeros(0, 0))


def test_closed_torus_package_keeps_the_eliminated_reduction():
    """The boundary form of a closed complex is zero: the torus package's
    reduction and descended form are those of the general path."""
    p = build_ed_package(torus_complex(2, 2), bf=True)
    n = p.bulk.base.dim
    assert n == 32
    want_red, want_alpha = reduce_by_elimination(
        OneForm(n, Matrix.zeros(n, n)))
    assert p.reduction == want_red and p.reduction.pivots == ()
    assert p.alpha_boundary == want_alpha


@pytest.mark.parametrize("n", [1, 3])
def test_zero_coefficients_with_a_constant_take_the_general_path(
        monkeypatch, n):
    """A nonzero constant is not horizontal on the all-kernel reduction,
    so the form still reduces by elimination and does not descend."""
    a = OneForm(n, Matrix.zeros(n, n), {n - 1: 2})
    calls = counted_reductions(monkeypatch)
    red, alpha = preboundary_reduce(a)
    assert calls == [n]
    assert alpha is None
    assert red == reduce_by_elimination(a)[0]
    assert red.space.dim == 0


def test_scalar_collar_reduces_to_darboux_pair():
    _, t = scalar_theory_on_collar(2)
    red, alpha = preboundary_reduce(boundary_one_form(t))
    assert red.space.dim == 2
    assert alpha is not None
    assert alpha.d() == red.space.omega
    assert red.space.is_nondegenerate()


@pytest.mark.parametrize("base, n, k", [
    *(pytest.param(circle_complex, n, k, id=f"{n}-{k}")
      for n, k in [(3, 2), (5, 3), (12, 5), (40, 5)]),
    *(pytest.param(path_complex, n, k, id=f"path-{n}-{k}")
      for n, k in [(2, 1), (3, 2), (4, 1), (5, 3), (12, 5), (40, 5)])])
def test_prism_collar_and_reduce_through_the_cli(tmp_path, base, n, k):
    """phi on prism(base(n), k) with the graph Laplacian as its action,
    both from the complex (`collar`) and from the Laplacian's rows at the
    boundary vertices (`reduce`).

    Over a circle the layer-0 circle is the whole boundary, and the
    reduction keeps phi and its normal derivative at each of its n
    vertices. Over a path the two side columns are boundary too, and the
    reduced dimension is twice the rank of the boundary-to-interior
    adjacency: each boundary vertex pairs with its interior neighbour,
    the two layer-0 corners have none, and the two boundary vertices
    beside a layer-0 corner share one. So it is 2(n + 2k - 4) for n >= 4,
    2k at n = 3 and 0 at n = 2, and the form is not basic."""
    cx = prism(base(n), k)
    lap = graph_laplacian(cx)
    bset = set(cx.boundary_indices(0))
    if base is circle_complex:
        assert bset == set(range(n))
        want = {"dim": 2 * n, "preboundary_dim": n * (k + 1), "basic": True}
    else:
        dim = 2 * (n + 2 * k - 4) if n >= 4 else 2 * k if n == 3 else 0
        want = {"dim": dim, "preboundary_dim": n * (k + 1), "basic": False}
    code, rep, _ = run_cli(tmp_path, ["collar"], {
        "complex": cx.to_dict(), "fields": [{"name": "phi", "cell_dim": 0}],
        "action": cli.mat_to_json(lap)})
    assert code == 0
    assert {key: rep["payload"][key] for key in want} == want
    alpha = Matrix(lap.rows, lap.cols,
                   [row if v in bset else {} for v, row in enumerate(lap.data)])
    code, rep, _ = run_cli(tmp_path, ["reduce"],
                           {"alpha": cli.mat_to_json(alpha)})
    assert code == 0
    assert {key: rep["payload"][key] for key in want} == want


def test_layer_independence():
    _, t2 = scalar_theory_on_collar(2)
    _, t4 = scalar_theory_on_collar(4)
    r2, a2 = preboundary_reduce(boundary_one_form(t2))
    r4, a4 = preboundary_reduce(boundary_one_form(t4))
    assert r2.space.dim == r4.space.dim
    assert (a2 is None) == (a4 is None)


def test_reduction_idempotent():
    _, t = scalar_theory_on_collar(2)
    red, alpha = preboundary_reduce(boundary_one_form(t))
    again, _ = preboundary_reduce(alpha)
    assert again.space == red.space
    assert again.projection == Matrix.identity(red.space.dim)


def test_nonlocal_action_detected():
    collar = CollarModel.build(point_complex(), 3)
    lap = graph_laplacian(collar.total)
    # claim a nearest-neighbor stencil but couple ends of the collar
    n = lap.rows
    rows = [list(r) for r in lap.entries]
    rows[0][n - 1] += 1
    rows[n - 1][0] += 1
    bad = Matrix.from_rows(rows)
    stencil = tuple(tuple(b for b in range(n) if abs(a - b) <= 1)
                    for a in range(n))
    t = QuadraticLocalTheory(collar.total, (FieldSpec("phi", 0),), bad,
                             stencil=stencil)
    with pytest.raises(NonlocalAction):
        boundary_one_form(t)


def test_symmetry_check_matches_transpose_rule():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 6)
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                a[i][j] = a[j][i] = x
        if n and rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            a[i][j] += rng.choice([1, -1, Fraction(1, 2)])
        m = from_dense(n, n, a)
        want = m.transpose() == m
        cx = path_complex(n)
        if want:
            assert QuadraticLocalTheory(cx, (FieldSpec("phi", 0),),
                                        m).action is m
        else:
            with pytest.raises(ValueError,
                               match="^action matrix must be symmetric$"):
                QuadraticLocalTheory(cx, (FieldSpec("phi", 0),), m)
        seen[want] += 1
    assert min(seen.values()) >= 50, seen


def test_project_zero_field():
    _, t = scalar_theory_on_collar(2)
    red, _ = preboundary_reduce(boundary_one_form(t))
    out = red.descend_field(Matrix.zeros(3, 3))
    assert out.is_zero()


def test_project_kernel_rescaling_gives_zero():
    _, t = scalar_theory_on_collar(2)
    red, _ = preboundary_reduce(boundary_one_form(t))
    ker = kernel(red.projection)
    assert ker.dim == 1
    k = ker.matrix().entries[0]
    # rank-one field v -> (k . v) k lands in the kernel
    q = Matrix.from_rows([[k[i] * k[j] for j in range(3)] for i in range(3)])
    out = red.descend_field(q)
    assert out.is_zero()


def test_project_rejects_kernel_breaking_field():
    _, t = scalar_theory_on_collar(2)
    red, _ = preboundary_reduce(boundary_one_form(t))
    q = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]]).transpose()
    with pytest.raises(NotProjectable):
        red.descend_field(q)


def test_projected_square_zero_descends():
    rng = random.Random(9)
    _, t = scalar_theory_on_collar(2)
    red, _ = preboundary_reduce(boundary_one_form(t))
    ker = kernel(red.projection)
    k = ker.matrix().entries[0]
    # nilpotent field mapping everything into the kernel line
    for _ in range(5):
        row = [rng.randint(-3, 3) for _ in range(3)]
        q = Matrix.from_rows([[k[i] * row[j] for j in range(3)]
                              for i in range(3)])
        if not (q @ q).is_zero():
            continue
        out = red.descend_field(q)
        assert (out @ out).is_zero()


def preserves_kernel_vectorwise(q, red):
    """Reference rule: q descends when it maps each kernel basis vector
    of the projection back into the kernel."""
    ker = kernel(red.projection)
    return all(ker.contains(dict(enumerate(q.apply(k))))
               for k in ker.matrix().entries)


def test_project_vector_field_matches_kernel_vector_rule():
    rng = random.Random(43)
    reds = [preboundary_reduce(boundary_one_form(
        scalar_theory_on_collar(layers, base)[1]))[0]
        for layers, base in ((2, None), (3, None), (4, None),
                             (2, path_complex(2)), (2, circle_complex(3)))]
    seen = set()
    for trial in range(60):
        red = reds[trial % len(reds)]
        p = red.projection
        n = p.cols

        def rand():
            return Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                     for _ in range(n)])

        q = rand()
        if trial % 2:
            # q0 E + (I - E) q1 with E = S p maps the kernel into itself
            e = section_of(p) @ p
            q = q @ e + (Matrix.identity(n) - e) @ rand()
        expected = preserves_kernel_vectorwise(q, red)
        seen.add(expected)
        if expected:
            out = red.descend_field(q)
            assert out @ p == p @ q
        else:
            with pytest.raises(NotProjectable):
                red.descend_field(q)
    assert seen == {True, False}
