from __future__ import annotations

import math

import pytest

from argshift import liealg
from argshift.exactpoly import Poly
from argshift.invariants import invariant_generators
from argshift.shift import bigraded_components, shift_derivative

ALGEBRA_SPECS = [("gl", 2), ("gl", 3), ("sl", 2), ("sl", 3), ("so", 3), ("sp", 4)]


@pytest.fixture(scope="session")
def algebras():
    return {spec: liealg.build_classical(*spec) for spec in ALGEBRA_SPECS}


@pytest.fixture(scope="session")
def families(algebras):
    return {spec: invariant_generators(L) for spec, L in algebras.items()}


@pytest.fixture(scope="session")
def triples(algebras):
    return {spec: liealg.principal_sl2(L) for spec, L in algebras.items()}


def _shift_matches_bigraded(p: Poly, xi, j: int) -> bool:
    """The exact identity shift_derivative(p, xi, j) == j! * p_j(x, xi) between
    the two shift routes, p_j the j-th bigraded component."""
    n = p.arity
    # evaluate the y-block at xi, keep the x-block symbolic
    images = [Poly.variable(n, k) for k in range(n)] + [Poly.constant(n, v) for v in xi]
    specialized = bigraded_components(p)[j].substitute(images)
    return shift_derivative(p, xi, j) == math.factorial(j) * specialized


@pytest.fixture(scope="session")
def shift_matches_bigraded():
    return _shift_matches_bigraded


def _slice_substitution(L, chart, e, p: Poly) -> Poly:
    """p restricted to the slice e + g^f by substitution, x = dual(e + sum u_b v_b)
    over the chart's directions v_b: the reference for the power-trace route."""
    duals = [liealg.dual_of(L, v) for v in chart.directions]
    images = [Poly.linear_form(column) + x
              for column, x in zip(zip(*duals), liealg.dual_of(L, e))]
    return p.substitute(images)


@pytest.fixture(scope="session")
def slice_substitution():
    return _slice_substitution
