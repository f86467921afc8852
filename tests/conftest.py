from __future__ import annotations

import pytest

from argshift import liealg
from argshift.invariants import invariant_generators

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
