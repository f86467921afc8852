import random
from fractions import Fraction

import pytest

from argshift import liealg
from argshift.liealg import (
    LieAlgebraData,
    LieAlgebraError,
    adjoint_matrix,
    bracket,
    build_classical,
    centralizer,
    coords_of_matrix,
    dual_of,
    index_of,
    is_regular_point,
    kostant_slice,
    principal_sl2,
)
from argshift import linalg
from argshift.exactpoly import Poly


def basis_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def test_constructors_verify_axioms(algebras):
    # construction runs the exact Jacobi / invariance checks; reaching here
    # means they all passed
    dims = {("gl", 2): 4, ("gl", 3): 9, ("sl", 2): 3, ("sl", 3): 8, ("so", 3): 3, ("sp", 4): 10}
    for spec, L in algebras.items():
        assert L.dim == dims[spec]
        liealg.validate(L)


def dense_validate(L):
    """Message of the first check L fails, or None: the checks of validate
    done densely, with every bracket taken through liealg.bracket on basis
    vectors and invariance summed over all basis triples."""
    n = L.dim
    e = [basis_vec(n, i) for i in range(n)]
    b = [[bracket(L, e[i], e[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [bracket(L, b[x][y], e[z]) for x, y, z in ((i, j, k), (j, k, i), (k, i, j))]
                if any(sum(col) for col in zip(*terms)):
                    return f"Jacobi identity fails on basis triple {(i, j, k)}"
    if any(L.form[i][j] != L.form[j][i] for i in range(n) for j in range(n)):
        return "form is not symmetric"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = sum(b[i][j][a] * L.form[a][k] + L.form[j][a] * b[i][k][a] for a in range(n))
                if s != 0:
                    return "form is not invariant"
    if linalg.rank(L.form) != n:
        return "form is degenerate"
    return None


def _corruptions(L, rng, count):
    """count seeded single-entry corruptions of each kind, then the zero form."""
    n = L.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def copy(form=None):
        return LieAlgebraData(
            dim=n,
            basis_labels=L.basis_labels,
            structure={p: dict(c) for p, c in L.structure.items()},
            form=form or [row[:] for row in L.form],
            meta=L.meta,
        )

    for _ in range(count):
        # one structure constant c_ij^k, possibly of a zero bracket
        C = copy()
        pair, k = rng.choice(pairs), rng.randrange(n)
        comps = C.structure.setdefault(pair, {})
        comps[k] = comps.get(k, Fraction(0)) + rng.choice([-2, -1, 1, 2, Fraction(1, 2)])
        yield C
        # one form entry
        C = copy()
        i, j = rng.randrange(n), rng.randrange(n)
        C.form[i][j] += rng.choice([-1, 1, 3])
        yield C
        # a symmetric pair of form entries
        C = copy()
        delta = rng.choice([-1, 1, Fraction(1, 3)])
        C.form[i][j] += delta
        if i != j:
            C.form[j][i] += delta
        yield C
    yield copy(form=[[Fraction(0)] * n for _ in range(n)])


def test_validate_rejects_corruptions_like_dense_reference(algebras, monkeypatch):
    # validated inside build_classical, its one caller, which always checks nondegeneracy
    rng = random.Random(20250810)
    seen = set()
    for spec in [("sl", 2), ("so", 3), ("gl", 2), ("sl", 3)]:
        for C in _corruptions(algebras[spec], rng, 25):
            expected = dense_validate(C)
            monkeypatch.setattr(liealg, "_from_matrices", lambda *args: C)
            try:
                build_classical(*spec)
                got = None
            except LieAlgebraError as err:
                got = str(err)
            assert got == expected
            seen.add(expected and expected.split(" on ")[0])
    assert seen - {None} == {
        "Jacobi identity fails",
        "form is not symmetric",
        "form is not invariant",
        "form is degenerate",
    }


def test_invalid_sizes():
    with pytest.raises(LieAlgebraError):
        build_classical("sp", 3)
    with pytest.raises(LieAlgebraError):
        build_classical("sl", 1)
    with pytest.raises(LieAlgebraError):
        build_classical("xx", 3)


def test_sl2_defining_relations(algebras):
    L = algebras[("sl", 2)]
    assert L.basis_labels == ["E12", "H1", "E21"]
    e, h, f = (basis_vec(3, i) for i in range(3))
    assert bracket(L, e, f) == h
    assert bracket(L, h, e) == [2 * c for c in e]


def test_bracket_alternating(algebras):
    L = algebras[("gl", 3)]
    rng = random.Random(7)
    for _ in range(10):
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)]
        assert bracket(L, v, v) == [Fraction(0)] * 9


def test_gl3_elementary_bracket(algebras):
    L = algebras[("gl", 3)]
    i12 = L.basis_labels.index("E12")
    i23 = L.basis_labels.index("E23")
    i13 = L.basis_labels.index("E13")
    out = bracket(L, basis_vec(9, i12), basis_vec(9, i23))
    assert out == basis_vec(9, i13)


def test_adjoint_of_h_is_diagonal(algebras):
    L = algebras[("sl", 2)]
    h = basis_vec(3, 1)
    ad = adjoint_matrix(L, h)
    assert ad == [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(-2)],
    ]
    assert adjoint_matrix(L, [Fraction(0)] * 3) == [[Fraction(0)] * 3 for _ in range(3)]


def test_adjoint_traceless_for_sl(algebras):
    L = algebras[("sl", 3)]
    rng = random.Random(3)
    for _ in range(5):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        ad = adjoint_matrix(L, v)
        assert sum(ad[i][i] for i in range(8)) == 0


def test_centralizer_of_zero_is_whole_algebra(algebras):
    L = algebras[("gl", 3)]
    Lc, emb = centralizer(L, [Fraction(0)] * 9)
    assert Lc is L
    assert len(emb) == 9


def test_centralizer_dimensions(algebras, triples):
    L = algebras[("gl", 3)]
    e_reg = triples[("gl", 3)].e
    Lc, _ = centralizer(L, e_reg)
    assert Lc.dim == 3
    assert not Lc.structure  # abelian
    e12 = basis_vec(9, L.basis_labels.index("E12"))
    Lc2, emb = centralizer(L, e12)
    assert Lc2.dim == 5
    # dim g^e + rank(ad e) = dim g
    assert Lc2.dim + linalg.rank(adjoint_matrix(L, e12)) == L.dim


CENTRALIZER_CASES = [
    *((("gl", 3), part) for part in [(3,), (2, 1), (1, 1, 1)]),
    *((("gl", 4), part) for part in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]),
    (("sl", 3), "principal"),
    (("sp", 4), "principal"),
    (("so", 5), "principal"),
]


def _centralizer_case_id(case):
    (kind, n), part = case
    return f"{kind}{n}-" + (part if part == "principal" else ",".join(map(str, part)))


@pytest.mark.parametrize("case", CENTRALIZER_CASES, ids=_centralizer_case_id)
def test_centralizer_closed_under_bracket(case):
    from argshift.centralizer_lab import nilpotent_from_partition

    spec, part = case
    L = build_classical(*spec)
    e = principal_sl2(L).e if part == "principal" else nilpotent_from_partition(L, part)
    Lc, emb = centralizer(L, e)
    assert Lc.dim == len(emb) and Lc.defining is not None
    # the coordinate path is the reference: induced constants reproduce the
    # ambient bracket of embedded vectors, and the form is L's form on them
    for a in range(Lc.dim):
        for b in range(Lc.dim):
            rebuilt = [Fraction(0)] * L.dim
            for k, c in Lc.bracket_basis(a, b).items():
                rebuilt = [r + c * x for r, x in zip(rebuilt, emb[k])]
            assert bracket(L, emb[a], emb[b]) == rebuilt
            pairing = sum((x * y for x, y in zip(emb[a], dual_of(L, emb[b]))), Fraction(0))
            assert Lc.form[a][b] == pairing


def test_centralizer_closure_failure_is_internal_error(algebras, monkeypatch):
    L = algebras[("gl", 3)]
    e12 = basis_vec(9, L.basis_labels.index("E12"))
    monkeypatch.setattr(linalg, "solve_many", lambda rows, rhs: None)
    with pytest.raises(liealg.InternalError, match="not closed under bracket"):
        centralizer(L, e12)


def test_index_values(algebras):
    assert index_of(algebras[("sl", 2)]).index == 1
    assert index_of(algebras[("sl", 3)]).index == 2
    assert index_of(algebras[("gl", 3)]).index == 3
    assert index_of(algebras[("gl", 3)]).mode == "exact"
    assert index_of(algebras[("gl", 2)]).index == 2
    assert index_of(algebras[("so", 3)]).index == 1
    assert index_of(algebras[("sp", 4)]).index == 2


def test_every_classical_index_is_certified(algebras):
    # the power traces' gradients meet the structure-matrix rank at a seeded point
    for L in [*algebras.values(), build_classical("gl", 4), build_classical("sl", 4)]:
        rep = index_of(L)
        assert (rep.mode, rep.index) == ("exact", L.meta["rank"])


def test_non_invariant_passed_as_invariant_is_internal_error():
    L = build_classical("sl", 2)
    with pytest.raises(liealg.InternalError):
        index_of(L, [Poly.variable(3, 0)])


def test_generic_rank_is_even_and_b_integral(algebras):
    for L in algebras.values():
        rep = index_of(L)
        assert rep.generic_rank % 2 == 0
        assert (L.dim + rep.index) % 2 == 0
        assert rep.certificate_points
        assert is_regular_point(L, rep.certificate_points[-1])


def test_centralizer_index_equals_rank(algebras):
    # the index of g^e equals the rank of g for every Jordan type of gl_3
    from argshift.centralizer_lab import nilpotent_from_partition

    L = algebras[("gl", 3)]
    for part in [(1, 1, 1), (2, 1), (3,)]:
        e = nilpotent_from_partition(L, part)
        Lc, _ = centralizer(L, e)
        assert index_of(Lc).index == 3


def test_regular_points_gl3(algebras):
    L = algebras[("gl", 3)]
    diag = [Fraction(0)] * 9
    for a, val in zip((1, 2, 3), (1, 2, 3)):
        diag[L.basis_labels.index(f"E{a}{a}")] = Fraction(val)
    assert is_regular_point(L, dual_of(L, diag))
    identity = [Fraction(0)] * 9
    for a in (1, 2, 3):
        identity[L.basis_labels.index(f"E{a}{a}")] = Fraction(1)
    assert not is_regular_point(L, dual_of(L, identity))


def test_every_nonzero_point_of_sl2_is_regular(algebras):
    L = algebras[("sl", 2)]
    rng = random.Random(11)
    for _ in range(25):
        xi = [Fraction(rng.randint(-6, 6)) for _ in range(3)]
        if any(xi):
            assert is_regular_point(L, xi)
    assert not is_regular_point(L, [Fraction(0)] * 3)


def test_principal_triples(algebras, triples):
    L = algebras[("sl", 3)]
    t = triples[("sl", 3)]
    lab = {x: i for i, x in enumerate(L.basis_labels)}
    f_expected = [Fraction(0)] * 8
    f_expected[lab["E21"]] = Fraction(2)
    f_expected[lab["E32"]] = Fraction(2)
    assert t.f == f_expected
    h_expected = [Fraction(0)] * 8
    h_expected[lab["H1"]] = Fraction(2)
    h_expected[lab["H2"]] = Fraction(2)  # h = diag(2, 0, -2)
    assert t.h == h_expected
    # triple relations were verified exactly at construction for all types
    for spec, tt in triples.items():
        liealg.verify_sl2(algebras[spec], tt)


@pytest.mark.parametrize("spec", [("so", 3), ("so", 5), ("so", 7), ("sp", 2), ("sp", 4), ("sp", 6)])
def test_principal_triples_so_sp_closed_form(spec):
    # one Jordan block, +1 on the first n // 2 superdiagonal entries and -1
    # after; h = diag(n-1, ..., 1-n), f_{i+1,i} = e_{i,i+1} * i(n-i)
    L = build_classical(*spec)
    n = spec[1]
    t = principal_sl2(L)
    e, h, f = (liealg.matrix_of_coords(L, v) for v in (t.e, t.h, t.f))
    zero = [[Fraction(0)] * n for _ in range(n)]
    e_expected, h_expected, f_expected = ([row[:] for row in zero] for _ in range(3))
    for i in range(1, n + 1):
        h_expected[i - 1][i - 1] = Fraction(n + 1 - 2 * i)
        if i < n:
            sign = 1 if i <= n // 2 else -1
            e_expected[i - 1][i] = Fraction(sign)
            f_expected[i][i - 1] = Fraction(sign * i * (n - i))
    assert (e, h, f) == (e_expected, h_expected, f_expected)


def test_principal_triple_needs_no_linear_solve(monkeypatch):
    algebras = [build_classical("so", 5), build_classical("sp", 4)]

    def refuse(*args):
        raise AssertionError("linear solve while building a triple")

    monkeypatch.setattr(linalg, "solve_many", refuse)
    for L in algebras:
        liealg.verify_sl2(L, principal_sl2(L))


def test_principal_triple_rejects_even_so():
    with pytest.raises(LieAlgebraError, match="even so"):
        principal_sl2(build_classical("so", 4))


def test_principal_e_has_minimal_centralizer(algebras, triples):
    L = algebras[("gl", 3)]
    Lc, _ = centralizer(L, triples[("gl", 3)].e)
    assert Lc.dim == L.meta["rank"]


def test_principal_span_points_are_regular(algebras, triples):
    # supports the pencil certificate: every nonzero point of span(e, f)
    rng = random.Random(5)
    for spec in [("sl", 2), ("sl", 3), ("gl", 3)]:
        L = algebras[spec]
        t = triples[spec]
        for _ in range(20):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if (a, b) == (0, 0):
                continue
            v = [a * p + b * q for p, q in zip(t.e, t.f)]
            assert is_regular_point(L, dual_of(L, v))


def test_kostant_slice_dimensions(algebras, triples):
    for spec, expected in [(("sl", 2), 1), (("sl", 3), 2), (("gl", 3), 3)]:
        L = algebras[spec]
        chart = kostant_slice(L, triples[spec])
        assert len(chart.directions) == expected
        assert len(chart.ge_basis) == expected
        assert linalg.rank(chart.pairing_gram) == expected


def test_kostant_slice_rejects_degenerate_pairing(algebras, triples):
    L = algebras[("sl", 2)]
    zero_form = [[Fraction(0)] * L.dim for _ in range(L.dim)]
    flat = LieAlgebraData(L.dim, L.basis_labels, L.structure, zero_form, dict(L.meta))
    with pytest.raises(LieAlgebraError, match="degenerate g\\^e x g\\^f pairing"):
        kostant_slice(flat, triples[("sl", 2)])


def test_sl2_slice_direction_is_f(algebras, triples):
    chart = kostant_slice(algebras[("sl", 2)], triples[("sl", 2)])
    assert chart.directions == [[Fraction(0), Fraction(0), Fraction(1)]]


def test_coords_matrix_round_trip(algebras):
    L = algebras[("sp", 4)]
    rng = random.Random(2)
    v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(L.dim)]
    assert coords_of_matrix(L, liealg.matrix_of_coords(L, v)) == v


def test_coords_of_matrix_rejects_matrix_outside_algebra(algebras):
    L = algebras[("sl", 3)]
    identity = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    with pytest.raises(LieAlgebraError, match="does not lie in the algebra"):
        coords_of_matrix(L, identity)  # trace 3: in gl_3, not in sl_3
    assert coords_of_matrix(algebras[("gl", 3)], identity) == [
        Fraction(int(i % 4 == 0)) for i in range(9)
    ]


def test_dual_of_rejects_wrong_length(algebras):
    L = algebras[("sl", 2)]
    for v in ([Fraction(1)], [Fraction(0)] * 4):
        with pytest.raises(LieAlgebraError, match="vector length mismatch"):
            dual_of(L, v)


def test_draw_regular_is_deterministic(algebras):
    L = algebras[("sl", 3)]
    xi1, a1 = liealg.draw_regular_dual_point(L, 42)
    xi2, a2 = liealg.draw_regular_dual_point(L, 42)
    assert (xi1, a1) == (xi2, a2)
    assert is_regular_point(L, xi1)


@pytest.mark.parametrize("spec", [("gl", 5), ("sp", 6), ("so", 7)])
def test_larger_algebras(spec):
    L = build_classical(*spec)
    assert L.dim == {("gl", 5): 25, ("sp", 6): 21, ("so", 7): 21}[spec]
    rep = index_of(L)
    assert (rep.mode, rep.index) == ("exact", L.meta["rank"])
    liealg.verify_sl2(L, principal_sl2(L))
