import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from bvkit.numkit import (
    Matrix,
    Subspace,
    block_diag,
    dot,
    invert,
    kernel,
    rank,
    vec,
)
from bvkit.symplect import (
    NotBasic,
    NotCoisotropic,
    NotProjectable,
    OneForm,
    PresymplecticSpace,
    classify,
    coisotropic_reduce,
    d_of_coeff,
    gotay_embed,
    presymplectic_reduce,
    twisted_product,
)
from bvkit.collar import preboundary_reduce
from test_numkit import (
    from_dense,
    intersect,
    quotient,
    section_of,
    span_of,
    sparse_vec,
    sum_spaces,
    unit,
)


def omega_complement(v, l):
    """Reference omega-orthogonal {w : omega(w, u) = 0 for all u in l}."""
    if l.ambient_dim != v.dim:
        raise ValueError("subspace does not live in the given space")
    if l.dim == 0:
        return Subspace.full(v.dim)
    return kernel(l.matrix() @ v.omega.transpose())


def oracle_classify(v, l):
    """(isotropic, coisotropic) by the two inclusions with l^omega."""
    perp = omega_complement(v, l)
    return perp.contains_subspace(l), l.contains_subspace(perp)


def random_antisymmetric(rng, n):
    a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                          for _ in range(n)])
    return a - a.transpose()


def selector(n, pivots):
    """The n x len(pivots) matrix S with S[pivots[i], i] = 1."""
    return Matrix.from_rows([[1 if p == j else 0 for p in pivots]
                             for j in range(n)])


def random_subspace(rng, n, count):
    return span_of(n, [[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(count)])


def test_sign_convention_matches_pairing_momentum_with_field():
    # alpha = chi d(phi) in coordinates (phi, chi): W[phi-row, chi-col] = 1
    w = Matrix.from_rows([[0, 1], [0, 0]])
    omega = d_of_coeff(w)
    e_phi, e_chi = unit(2, 0), unit(2, 1)
    v = PresymplecticSpace(2, omega)
    assert v.pairing(e_chi, e_phi) == 1
    assert v.pairing(e_phi, e_chi) == -1


def test_standard_space_pairing():
    v = PresymplecticSpace.standard(2)  # coords (q1, q2, p1, p2)
    assert v.is_nondegenerate()
    assert v.pairing(unit(4, 2), unit(4, 0)) == 1


def test_line_in_plane_is_lagrangian():
    v = PresymplecticSpace.standard(1)
    line = span_of(2, [[1, 0]])
    res = classify(v, line)
    assert res.is_lagrangian
    assert omega_complement(v, line) == line


def test_trivial_form_complement_is_everything():
    v = PresymplecticSpace.trivial(3)
    l = span_of(3, [[1, 2, 0]])
    assert omega_complement(v, l) == Subspace.full(3)
    res = classify(v, l)
    assert res.is_isotropic and not res.is_coisotropic


def test_axis_in_four_dims_isotropic_not_coisotropic():
    v = PresymplecticSpace.standard(2)
    axis = span_of(4, [[1, 0, 0, 0]])
    perp = omega_complement(v, axis)
    assert perp == span_of(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    res = classify(v, axis)
    assert res.is_isotropic and not res.is_coisotropic


def test_zero_subspace_isotropic_full_coisotropic():
    v = PresymplecticSpace.standard(1)
    assert classify(v, Subspace.zero(2)).is_isotropic
    assert not classify(v, Subspace.zero(2)).is_coisotropic
    assert classify(v, Subspace.full(2)).is_coisotropic


def test_double_complement_is_span_with_kernel():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 7)
        v = PresymplecticSpace(n, random_antisymmetric(rng, n))
        l = random_subspace(rng, n, rng.randint(0, n))
        perp2 = omega_complement(v, omega_complement(v, l))
        assert perp2 == sum_spaces(l, v.kernel_subspace())


def test_complement_dimension_law():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(2, 7)
        v = PresymplecticSpace(n, random_antisymmetric(rng, n))
        l = random_subspace(rng, n, rng.randint(0, n))
        perp = omega_complement(v, l)
        expected = n - l.dim + intersect(l, v.kernel_subspace()).dim
        assert perp.dim == expected


def random_rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 5]))


def darboux_case(rng):
    """A degenerate rational space and a subspace of known type: omega
    pulls back c_1 dp_1 dq_1 + ... + 0 (kernel) by a random invertible
    q, so q^-1 maps the chosen Darboux coordinate axes to l."""
    m, c = rng.randint(0, 3), rng.randint(0, 2)
    n = 2 * m + c
    weights = [random_rational(rng) for _ in range(m)]
    darboux = Matrix.from_rows(
        [[0] * m + [-w if i == j else 0 for j, w in enumerate(weights)]
         for i in range(m)]
        + [[w if i == j else 0 for j, w in enumerate(weights)] + [0] * m
           for i in range(m)])
    omega0 = block_diag(darboux, Matrix.zeros(c, c))
    while True:
        q = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                              for _ in range(n)])
        q_inv = invert(q)
        if q_inv is not None:
            break
    axes = [j for j in range(n) if rng.random() < 0.5]
    if rng.random() < 0.1:
        axes = rng.choice([[], list(range(n))])
    return (PresymplecticSpace(n, q.transpose() @ omega0 @ q),
            Subspace.from_span(n, [q_inv.transpose().data[j] for j in axes]))


def random_case(rng):
    """A random subspace of Q^n under the form A^T J A, with A random of
    at most n rows and J random antisymmetric, so usually degenerate."""
    n = rng.randint(0, 7)
    a = Matrix.from_rows([[random_rational(rng) if rng.random() < 0.5 else 0
                           for _ in range(n)] for _ in range(rng.randint(0, n))])
    j = random_antisymmetric(rng, a.rows)
    omega = a.transpose() @ j @ a if a.rows else Matrix.zeros(n, n)
    span = [[random_rational(rng) for _ in range(n)]
            for _ in range(rng.randint(0, n + 1))]
    return PresymplecticSpace(n, omega), span_of(n, span)


def test_classify_ranks_match_complement_oracle():
    rng = random.Random(61)
    seen = Counter()
    for trial in range(2000):
        v, l = darboux_case(rng) if trial % 3 else random_case(rng)
        got = classify(v, l)
        assert (got.is_isotropic, got.is_coisotropic) == oracle_classify(v, l)
        seen[got.is_isotropic, got.is_coisotropic] += 1
        seen["zero" if l.dim == 0 else "full" if l.dim == v.dim else
             "proper"] += 1
    assert len(seen) == 7 and min(seen.values()) >= 100, seen


def test_lagrangian_dimension_in_nondegenerate_space():
    rng = random.Random(23)
    v = PresymplecticSpace.standard(3)
    for _ in range(10):
        l = random_subspace(rng, 6, rng.randint(0, 6))
        if classify(v, l).is_lagrangian:
            assert l.dim == 3


def test_reduce_nondegenerate_is_isomorphism():
    v = PresymplecticSpace.standard(2)
    red = presymplectic_reduce(v)
    assert red.space.dim == 4
    assert red.projection @ selector(4, red.pivots) == Matrix.identity(4)
    assert red.space.is_nondegenerate()


def test_reduce_kills_kernel_exactly():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(2, 7)
        v = PresymplecticSpace(n, random_antisymmetric(rng, n))
        red = presymplectic_reduce(v)
        assert red.space.dim == n - v.kernel_subspace().dim
        assert red.space.is_nondegenerate()
        assert kernel(red.projection) == v.kernel_subspace()
        lhs = red.projection.transpose() @ red.space.omega @ red.projection
        assert lhs == v.omega


def oracle_reduce(v):
    """Reference reduction: kernel, quotient by it, a section by solving
    projection @ S = I, then omega_red = S^T omega S."""
    _, proj = quotient(v.dim, v.kernel_subspace())
    sec = section_of(proj)
    return proj, sec.transpose() @ v.omega @ sec, sec


def oracle_descend(proj, sec, a):
    pt, st = proj.transpose(), sec.transpose()
    const = tuple(a.const.get(j, 0) for j in range(a.ambient_dim))
    coeff_red = st @ a.coeff @ sec
    const_red = st.apply(const)
    if pt @ coeff_red @ proj != a.coeff:
        raise NotBasic("one-form is not invariant along the kernel")
    if pt.apply(const_red) != const:
        raise NotBasic("one-form is not horizontal on the kernel")
    return OneForm(proj.rows, coeff_red, sparse_vec(const_red))


def oracle_project(proj, sec, q):
    pq = proj @ q
    out = pq @ sec
    if out @ proj != pq:
        raise NotProjectable("field does not preserve the kernel")
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NotBasic, NotProjectable) as e:
        return type(e).__name__, str(e)


def random_block(rng, rows, cols):
    return from_dense(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                   for _ in range(rows)])


def test_reduce_at_pivots_matches_quotient_section_oracle():
    rng = random.Random(53)
    ranks = set()
    kinds = {"descend": set(), "project": set()}
    for _ in range(300):
        n = rng.randint(0, 8)
        r = rng.randint(0, n)
        # omega = A^T (M - M^T) A has rank at most r: every even rank <= n
        a, m = random_block(rng, r, n), random_block(rng, r, r)
        omega = a.transpose() @ (m - m.transpose()) @ a
        v = PresymplecticSpace(n, omega)
        proj, omega_red, sec = oracle_reduce(v)
        red = presymplectic_reduce(v)
        ranks.add((n, red.space.dim))
        assert red.projection == proj
        assert red.space.omega == omega_red
        assert selector(n, red.pivots) == sec

        k = proj.rows
        coeff = random_block(rng, n, n)
        const = random_block(rng, 1, n).data[0] if n else {}
        pulled = OneForm(n, proj.transpose() @ random_block(rng, k, k) @ proj,
                         sparse_vec(proj.transpose().apply(
                             random_block(rng, 1, k).entries[0] if k else ())))
        for form in (OneForm(n, coeff), OneForm(n, coeff, const), pulled):
            got = outcome(red.descend, form)
            assert got == outcome(oracle_descend, proj, sec, form)
            kinds["descend"].add(type(got).__name__)

        # omega = U - U^T for its strict upper triangle U, so d(-U) = omega
        upper = Matrix.from_rows([[omega[i, j] if j > i else 0
                                   for j in range(n)] for i in range(n)])
        pkg, _ = preboundary_reduce(OneForm(n, -upper))
        assert pkg.projection == proj and pkg.pivots == red.pivots
        e = sec @ proj
        keeps = (random_block(rng, n, n) @ e
                 + (Matrix.identity(n) - e) @ random_block(rng, n, n))
        for q in (random_block(rng, n, n), keeps):
            got = outcome(pkg.descend_field, q)
            assert got == outcome(oracle_project, proj, sec, q)
            kinds["project"].add(type(got).__name__)
    assert {(n, k) for n in range(9) for k in range(0, n + 1, 2)} <= ranks
    assert kinds == {"descend": {"OneForm", "tuple"},
                     "project": {"Matrix", "tuple"}}


def test_coisotropic_reduce_momentum_level_set():
    # c = {p1 = 0} in (q1, q2, p1, p2): kernel of restricted form is the
    # q1 direction, leaving one symplectic pair
    v = PresymplecticSpace.standard(2)
    c = span_of(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert classify(v, c).is_coisotropic
    red = coisotropic_reduce(v, c)
    assert red.space.dim == 2
    assert red.space.is_nondegenerate()


def test_coisotropic_reduce_rejects_isotropic_line():
    v = PresymplecticSpace.standard(2)
    with pytest.raises(NotCoisotropic):
        coisotropic_reduce(v, span_of(4, [[1, 0, 0, 0]]))


def test_coisotropic_reduce_rejects_degenerate_ambient():
    v = PresymplecticSpace.trivial(2)
    with pytest.raises(NotCoisotropic):
        coisotropic_reduce(v, Subspace.full(2))


def test_gotay_of_trivial_line_gives_standard_plane():
    g = gotay_embed(PresymplecticSpace.trivial(1))
    assert g.space.dim == 2
    assert g.space.is_nondegenerate()
    assert classify(g.space, g.image).is_lagrangian


def test_gotay_nondegenerate_is_identity():
    v = PresymplecticSpace.standard(2)
    g = gotay_embed(v)
    assert g.space == v
    assert g.embedding == Matrix.identity(4)


def test_gotay_random_image_coisotropic_and_pullback_agrees():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 6)
        v = PresymplecticSpace(n, random_antisymmetric(rng, n))
        g = gotay_embed(v)
        assert g.space.is_nondegenerate()
        assert g.space.dim == n + v.kernel_subspace().dim
        assert classify(g.space, g.image).is_coisotropic
        pulled = g.embedding.transpose() @ g.space.omega @ g.embedding
        assert pulled == v.omega


def test_gotay_then_coisotropic_reduce_matches_kernel_reduce():
    # reducing the embedded image inside the thickening reproduces the
    # direct kernel quotient, up to a linear symplectomorphism
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 6)
        v = PresymplecticSpace(n, random_antisymmetric(rng, n))
        direct = presymplectic_reduce(v)
        g = gotay_embed(v)
        via = coisotropic_reduce(g.space, g.image)
        assert via.space.dim == direct.space.dim
        # intertwiner: push the section of the direct reduction into the
        # image coordinates and through the coisotropic projection
        b = g.image.matrix()           # image basis rows, each length n + k
        emb_coords = Matrix.from_rows([
            # coordinates of embedding(x) with respect to b: since b is the
            # RREF of [I | 0], embedded vectors have those coordinates
            list(row) for row in
            selector(n, direct.pivots).transpose().entries
        ]).transpose()
        t = via.projection @ emb_coords
        assert t.transpose() @ via.space.omega @ t == direct.space.omega
        assert rank(t) == direct.space.dim


def test_reduce_one_form_basic_case():
    # omega pairs coordinates 0 and 1; coordinate 2 is kernel
    w = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    v = PresymplecticSpace(3, d_of_coeff(w))
    a = OneForm(3, w)
    red = presymplectic_reduce(v).descend(a)
    assert red.ambient_dim == 2
    assert d_of_coeff(red.coeff) == presymplectic_reduce(v).space.omega


def test_reduce_one_form_rejects_linear_kernel_dependence():
    # same omega, primitive shifted by an exact-in-x3 piece that sees the
    # kernel direction: W[0,2] = W[2,0] makes dW symmetric-cancelling
    w = Matrix.from_rows([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
    v = PresymplecticSpace(3, d_of_coeff(w))
    assert v.kernel_subspace().contains({2: 1})
    with pytest.raises(NotBasic):
        presymplectic_reduce(v).descend(OneForm(3, w))


def test_reduce_one_form_rejects_constant_along_kernel():
    w = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    v = PresymplecticSpace(3, d_of_coeff(w))
    a = OneForm(3, w, {2: 1})
    with pytest.raises(NotBasic):
        presymplectic_reduce(v).descend(a)


def basic_by_kernel_vectors(v, a):
    """Reference rule: a descends when coeff, coeff^T and const all
    vanish on each kernel basis vector of omega."""
    wt = a.coeff.transpose()
    const = tuple(a.const.get(j, 0) for j in range(a.ambient_dim))
    return all(not any(a.coeff.apply(k)) and not any(wt.apply(k))
               and dot(const, k) == 0
               for k in v.kernel_subspace().matrix().entries)


def test_reduce_one_form_matches_kernel_vector_rule():
    rng = random.Random(41)
    seen = set()
    for trial in range(80):
        n = rng.randint(1, 6)
        r = rng.randint(1, n)
        # W = R^T M R and c = R^T u vanish on ker R; perturb them sometimes
        rm = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(r)])
        m = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(r)]
                              for _ in range(r)])
        rows = [list(row) for row in (rm.transpose() @ m @ rm).entries]
        c = list(rm.transpose().apply(vec([rng.randint(-2, 2)
                                           for _ in range(r)])))
        if trial % 3 == 1:
            rows[rng.randrange(n)][rng.randrange(n)] += 1
        if trial % 3 == 2:
            c[rng.randrange(n)] += 1
        w = Matrix.from_rows(rows)
        v = PresymplecticSpace(n, d_of_coeff(w))
        a = OneForm(n, w, sparse_vec(c))
        expected = basic_by_kernel_vectors(v, a)
        seen.add((expected, v.kernel_subspace().dim > 0))
        if expected:
            reduction = presymplectic_reduce(v)
            red, p = reduction.descend(a), reduction.projection
            assert p.transpose() @ red.coeff @ p == w
            assert (Matrix(1, p.rows, [red.const]) @ p).data[0] == a.const
        else:
            with pytest.raises(NotBasic):
                presymplectic_reduce(v).descend(a)
    assert {(True, True), (False, True)} <= seen


def test_one_form_evaluate_affine():
    a = OneForm(2, Matrix.from_rows([[0, 1], [0, 0]]), {0: 1})
    # at x = (2, 3): covector is (3 + 1, 0)
    assert a.at(vec([2, 3])) == vec([4, 0])
    assert a.evaluate(vec([2, 3]), vec([1, 1])) == 4


def test_twisted_product_flips_source_sign():
    v = PresymplecticSpace.standard(1)
    t = twisted_product(v, v)
    assert t.pairing(unit(4, 1), unit(4, 0)) == -1
    assert t.pairing(unit(4, 3), unit(4, 2)) == 1


def test_pairing_and_evaluate_refuse_points_of_the_wrong_length():
    with pytest.raises(ValueError):
        PresymplecticSpace.standard(1).pairing((1,), (0, 1))
    with pytest.raises(ValueError):
        OneForm(2, Matrix.identity(2)).evaluate((1, 1), (1,))
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_only_symplect_reads_pivots():
    """The RREF pivot columns are how a `Reduction` descends one-forms and
    vector fields; in src/ no module but `symplect` reads `.pivots`."""
    src = Path(__file__).resolve().parents[1] / "src" / "bvkit"
    found = []
    for path in sorted(src.glob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "pivots"]
    assert found and all(f.startswith("symplect.py:") for f in found), found
