from __future__ import annotations

import pytest

from airytau.airy import check_all_routes, kernel_closed
from airytau.npoint import NPointEngine, free_energy
from airytau.wave import padded_weight_cap, tau_from_free_energy


@pytest.fixture(scope="session")
def kernel12():
    """Reference kernel at cutoff 12, produced by the four-route check."""
    return check_all_routes(12)


@pytest.fixture(scope="session")
def engine():
    """Shared closed-route engine, sized for every key the tests touch."""
    return NPointEngine(kernel_closed, 18)


@pytest.fixture(scope="session")
def engine_deep():
    """Engine for puncture keys with large total order."""
    return NPointEngine(kernel_closed, 24)


@pytest.fixture(scope="session")
def tau9(engine):
    f = free_energy(engine, 9)
    return tau_from_free_energy(f, padded_weight_cap(9))


@pytest.fixture(scope="session")
def tau12(engine):
    f = free_energy(engine, 12)
    return tau_from_free_energy(f, padded_weight_cap(12))


@pytest.fixture(scope="session")
def tau15(engine):
    f = free_energy(engine, 15)
    return tau_from_free_energy(f, padded_weight_cap(15))
