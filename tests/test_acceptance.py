"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All equalities are exact rational arithmetic; the stated time limits
are asserted with time.monotonic.
"""

import json
import time
from fractions import Fraction

import pytest

from argshift import liealg
from argshift.bicone import (
    bicone_dimension_check,
    bicone_fiber_check,
    smoothness_crosscheck,
)
from argshift.centralizer_lab import condition_star, conjecture_check, nilpotent_from_partition
from argshift.cli import main as cli_main
from argshift.groebner import regular_sequence_verdict
from argshift.liealg import build_classical, centralizer, dual_of, index_of
from argshift.poisson import commutativity_report
from argshift.reports import canonical_json
from argshift.shift import mf_generators

ALGEBRAS = [("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)]
MAIN_TRIO = [("sl", 2), ("sl", 3), ("gl", 3)]
SEED = 42


@pytest.fixture(scope="module")
def state():
    return {}


def _elapsed(t0):
    return time.monotonic() - t0


def test_c01_structure_axioms():
    worst = 0.0
    for kind, size in ALGEBRAS:
        t0 = time.monotonic()
        build_classical(kind, size)  # constructor verifies Jacobi + invariance
        dt = _elapsed(t0)
        worst = max(worst, dt)
        assert dt < 1.0, f"{kind}_{size} took {dt:.2f}s"
    print(f"ACCEPTANCE 1: PASS - structure axioms exact for all six algebras (worst {worst:.2f}s)")


def test_c02_index_values(algebras):
    t0 = time.monotonic()
    assert index_of(algebras[("sl", 2)]).index == 1
    assert index_of(algebras[("sl", 3)]).index == 2
    assert index_of(algebras[("gl", 3)]).index == 3
    for spec in [("sl", 2), ("sl", 3), ("gl", 3)]:
        assert index_of(algebras[spec]).mode == "exact"
    L = algebras[("gl", 3)]
    for part in [(1, 1, 1), (2, 1), (3,)]:
        Lc, _ = centralizer(L, nilpotent_from_partition(L, part))
        assert index_of(Lc).index == 3
    dt = _elapsed(t0)
    assert dt < 10.0
    print(f"ACCEPTANCE 2: PASS - exact indices 1/2/3 and ind(g^e)=3 for all gl3 Jordan types ({dt:.2f}s)")


def test_c03_degree_sums(algebras, families):
    t0 = time.monotonic()
    for spec, fam in families.items():
        L = algebras[spec]
        b = (L.dim + index_of(L).index) // 2
        assert sum(fam.degrees) == b, spec
    dt = _elapsed(t0)
    print(f"ACCEPTANCE 3: PASS - degree sums equal b(g) for all six families ({dt:.2f}s)")


def _xi_points(L, triple):
    ef = [a + b for a, b in zip(triple.e, triple.f)]
    return {
        "principal-e": dual_of(L, triple.e),
        "e-plus-f": dual_of(L, ef),
        "seeded-random-regular": liealg.draw_regular_dual_point(L, SEED)[0],
    }


def test_c04_poisson_commutativity(algebras, families, triples):
    t0 = time.monotonic()
    for spec in MAIN_TRIO:
        L = algebras[spec]
        for name, xi in _xi_points(L, triples[spec]).items():
            mf = mf_generators(L, families[spec], xi)
            rep = commutativity_report(L, mf)
            assert rep.commutes, (spec, name)
    dt = _elapsed(t0)
    assert dt < 120.0
    print(f"ACCEPTANCE 4: PASS - zero failing Poisson pairs at e, e+f, random regular ({dt:.2f}s)")


def test_c05_regular_sequence_verdicts(algebras, families, triples, state):
    limits = {("sl", 2): 1.0, ("sl", 3): 300.0, ("gl", 3): 600.0}
    expected_dim = {("sl", 2): 1, ("sl", 3): 3, ("gl", 3): 3}
    for spec in MAIN_TRIO:
        L = algebras[spec]
        points = {
            "principal-e": dual_of(L, triples[spec].e),
            "seeded-random-regular": liealg.draw_regular_dual_point(L, SEED)[0],
        }
        for name, xi in points.items():
            t0 = time.monotonic()
            mf = mf_generators(L, families[spec], xi)
            rep = regular_sequence_verdict(mf.polynomials(), L.dim)
            dt = _elapsed(t0)
            assert rep.verdict is True, (spec, name)
            assert rep.ideal_dimension == expected_dim[spec]
            assert dt < limits[spec], (spec, name, dt)
            state[("regseq-dim", spec, name)] = rep.ideal_dimension
    print("ACCEPTANCE 5: PASS - shift families are regular sequences (dim = b - l) "
          "for sl2/sl3/gl3 at principal e and seeded regular xi")


def test_c06_nilpotent_cone(algebras, families):
    expected = {("sl", 2): 2, ("sl", 3): 6, ("gl", 3): 6}
    for spec in MAIN_TRIO:
        L = algebras[spec]
        fam = families[spec]
        rep = regular_sequence_verdict(fam.generators, L.dim)
        assert rep.verdict is True, spec
        assert rep.ideal_dimension == expected[spec] == L.dim - len(fam.generators)
    print("ACCEPTANCE 6: PASS - invariant generators alone cut the nilpotent cone "
          "as a complete intersection of codimension l")


def test_c07_bicone_dimension(algebras, families):
    t0 = time.monotonic()
    rep = bicone_dimension_check(algebras[("sl", 2)], families[("sl", 2)])
    dt = _elapsed(t0)
    assert rep.verdict is True and rep.ideal_dimension == 3
    assert dt < 30.0
    # stretch goal: sl3 under a timeout; inconclusive acceptable, false is not
    rep3 = bicone_dimension_check(
        algebras[("sl", 3)], families[("sl", 3)], timeout_secs=120.0
    )
    assert rep3.verdict is not False
    detail = (
        f"sl3 stretch dim {rep3.ideal_dimension}"
        if rep3.status == "ok"
        else "sl3 stretch inconclusive (timeout)"
    )
    if rep3.status == "ok":
        assert rep3.ideal_dimension == 9
    print(f"ACCEPTANCE 7: PASS - sl2 bicone has dimension 3 = 3(b - l) ({dt:.2f}s); {detail}")


def test_c08_bicone_fiber(algebras, families, triples, state):
    expected = {("sl", 2): 1, ("sl", 3): 3, ("gl", 3): 3}
    for spec in MAIN_TRIO:
        rep = bicone_fiber_check(
            algebras[spec], families[spec], triples[spec].e
        )
        assert rep.verdict is True, spec
        assert rep.ideal_dimension == expected[spec]
        assert rep.extra["matches_shift_family"], spec
        regseq_dim = state.get(("regseq-dim", spec, "principal-e"))
        assert regseq_dim == rep.ideal_dimension
    print("ACCEPTANCE 8: PASS - bicone fibers at principal e have dimension b - l "
          "and agree with the shift-family dimensions")


def test_c09_smoothness_crosscheck(algebras, families, triples):
    from test_bicone import conjugate2, random_invertible, sl3_samples

    import random as _random

    L3 = algebras[("sl", 3)]
    samples3 = sl3_samples(L3, count_conjugates=13, seed=SEED)
    assert len(samples3) >= 20
    rep3 = smoothness_crosscheck(L3, families[("sl", 3)], samples3)
    assert rep3.all_agree

    L2 = algebras[("sl", 2)]
    t2 = triples[("sl", 2)]
    rng = _random.Random(SEED)
    samples2 = [(t2.e, [Fraction(0)] * 3), ([Fraction(0)] * 3, [Fraction(0)] * 3)]
    while len(samples2) < 20:
        g = random_invertible(rng, 2)
        xx = conjugate2(L2, g, t2.e)
        lam = Fraction(rng.randint(-5, 5))
        samples2.append((xx, [lam * c for c in xx]))
    rep2 = smoothness_crosscheck(L2, families[("sl", 2)], samples2)
    assert rep2.all_agree
    total = rep2.sample_count + rep3.sample_count
    print(f"ACCEPTANCE 9: PASS - pencil minors certificate matches full Jacobian rank "
          f"on {total} seeded bicone samples (sl2 + sl3)")


def test_c10_degenerate_zero_point(algebras, families):
    t0 = time.monotonic()
    for spec, fam in families.items():
        L = algebras[spec]
        mf = mf_generators(L, fam, [Fraction(0)] * L.dim)
        assert mf.degenerate, spec
        rep = regular_sequence_verdict(
            mf.polynomials(), L.dim, zero_labels=mf.zero_entries
        )
        assert rep.verdict is False and rep.status == "degenerate", spec
    dt = _elapsed(t0)
    assert dt < 5.0
    print(f"ACCEPTANCE 10: PASS - xi = 0 gives a flagged degenerate family and verdict "
          f"false for every algebra ({dt:.2f}s)")


def test_c11_centralizer_pipeline(algebras):
    t0 = time.monotonic()
    L = algebras[("gl", 3)]
    for part in [(1, 1, 1), (2, 1), (3,)]:
        e = nilpotent_from_partition(L, part)
        star = condition_star(L, e)
        assert star.verdict, part
        row = conjecture_check(L, e, seed=SEED)
        assert row.report.verdict is True, part
    dt = _elapsed(t0)
    assert dt < 900.0
    print(f"ACCEPTANCE 11: PASS - condition (*) and the centralizer regular-sequence "
          f"experiment hold for gl3 partitions (1,1,1), (2,1), (3) ({dt:.2f}s)")


def test_c12_shift_bigraded_consistency(algebras, families, triples, shift_matches_bigraded):
    t0 = time.monotonic()
    for spec, fam in families.items():
        L = algebras[spec]
        points = [dual_of(L, triples[spec].e), liealg.draw_regular_dual_point(L, SEED)[0]]
        for xi in points:
            for p, d in zip(fam.generators, fam.degrees):
                for j in range(d + 1):
                    assert shift_matches_bigraded(p, xi, j), (spec, j)
    dt = _elapsed(t0)
    assert dt < 30.0
    print(f"ACCEPTANCE 12: PASS - iterated shift derivative equals j! times the bigraded "
          f"component on every generator of every family ({dt:.2f}s)")


def _cli_payload(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    code = cli_main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_c13_determinism(tmp_path):
    runs = {
        "commute": ["commute", "--type", "sl", "--size", "3", "--xi", "random-regular",
                     "--seed", str(SEED)],
        "regseq": ["regseq", "--type", "gl", "--size", "3", "--xi", "random-regular",
                    "--seed", str(SEED)],
        "conjecture": ["conjecture", "--type", "gl", "--size", "3", "--all-partitions",
                        "--seed", str(SEED)],
    }
    for name, argv in runs.items():
        code_a, payload_a = _cli_payload(tmp_path, name + "-a", argv)
        code_b, payload_b = _cli_payload(tmp_path, name + "-b", argv)
        assert code_a == code_b == 0, name
        assert canonical_json(payload_a) == canonical_json(payload_b), name
    print("ACCEPTANCE 13: PASS - repeated seeded commute/regseq/conjecture runs have "
          "byte-identical canonical JSON")
