import numpy as np
import pytest
from hypothesis import strategies as st

from gwnet import GwParams, MeasureNetwork

# PASS/FAIL lines recorded by the end-to-end guarantee tests; replayed
# after the run so they stay visible without -s.
REPORT_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if REPORT_LINES:
        terminalreporter.section("guarantee report")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def one_node():
    """One-node network with weight 1."""
    return MeasureNetwork(np.array([[1.0]]), np.array([1.0]))


@pytest.fixture
def two_swap():
    """Two-node network with weights [[0,1],[1,0]] and uniform measure."""
    return MeasureNetwork(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.array([0.5, 0.5]))


def random_network(rng, n, asym=True, uniform_mu=True):
    omega = rng.standard_normal((n, n))
    if not asym:
        omega = (omega + omega.T) / 2
    if uniform_mu:
        mu = np.full(n, 1.0 / n)
    else:
        mu = rng.random(n) + 0.2
        mu /= mu.sum()
    return MeasureNetwork(omega, mu)


def psd_network(rng, n, uniform_mu=True):
    """Symmetric positive semidefinite weights; the squared distortion is
    then concave over the coupling polytope, so its minimum sits at a
    polytope vertex and the vertex sweep in oracles.py is a global oracle.
    """
    a = rng.standard_normal((n, n))
    net = random_network(rng, n, uniform_mu=uniform_mu)
    return MeasureNetwork(a @ a.T, net.mu)


def diagonal_start(net):
    """Solver settings that start from the identity coupling diag(mu)."""
    return GwParams(given=np.diag(net.mu))


@st.composite
def measure_networks(draw):
    """Networks of 1-12 nodes with asymmetric weights of any sign, constant
    weights or 1e8-scale weights, under the uniform measure or a Dirichlet
    draw with entries down to 1e-12."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = draw(st.sampled_from(["normal", "constant", "1e8"]))
    if weights == "constant":
        omega = np.full((n, n), draw(st.floats(-1e3, 1e3)))
    else:
        omega = rng.standard_normal((n, n)) * (1e8 if weights == "1e8" else 1)
    if draw(st.booleans()):
        mu = np.full(n, 1.0 / n)
    else:
        alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
        mu = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-12)
        mu /= mu.sum()
    return MeasureNetwork(omega, mu)
