"""Shared fixtures: seeded factories for distributions and density matrices,
the reference dephasing map, and a reference von Neumann entropy."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from secrecy_forge.distributions import Dist3
from secrecy_forge.qlinalg import QState

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay acceptance verdict lines after the capture-happy test phase.

    The module is ``test_acceptance`` under the default import mode and
    ``tests.test_acceptance`` under ``--import-mode=importlib``.
    """
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "VERDICTS", None)
    if not lines:
        return
    terminalreporter.section("acceptance verdicts")
    for line in lines:
        terminalreporter.write_line(line)


def _dephase(state: QState, subsystem: int) -> QState:
    """Kill coherences of one subsystem in the computational basis."""
    n = len(state.dims)
    dk = state.dims[subsystem]
    shape = [1] * (2 * n)
    shape[subsystem] = dk
    shape[n + subsystem] = dk
    mask = np.eye(dk).reshape(shape)
    r = state.rho.reshape(state.dims + state.dims) * mask
    return QState(r.reshape(state.dim, state.dim), state.dims)


@pytest.fixture
def dephase():
    """Reference dephasing map: what the embedding chain must reproduce."""
    return _dephase


def _vn_entropy(state: QState) -> float:
    """S(rho) in bits from numpy's eigvalsh alone; eigenvalues below 1e-12
    count as zero, as in the library."""
    w = np.linalg.eigvalsh(state.rho)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


@pytest.fixture(scope="session")
def vn_entropy():
    """Reference von Neumann entropy, independent of the library's."""
    return _vn_entropy


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def make_dist(rng):
    """Random Dist3; sparsity is the fraction of entries zeroed before renormalizing."""

    def _make(dims: tuple[int, int, int] = (2, 2, 2), sparsity: float = 0.0) -> Dist3:
        while True:
            p = rng.random(dims)
            if sparsity:
                p = p * (rng.random(dims) >= sparsity)
            s = p.sum()
            if s > 0.0:
                return Dist3(p / s)

    return _make


@pytest.fixture
def make_density(rng):
    """Random density matrix over the given subsystems, optionally rank-limited."""

    def _make(dims: tuple[int, ...] = (2, 2), rank: int | None = None) -> QState:
        dim = int(np.prod(dims))
        r = rank or dim
        g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        return QState(rho, tuple(dims))

    return _make
