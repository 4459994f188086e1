import os

import pytest

import hawkesq as hq


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) sets the CPU set that the replication pool sees: with 1 the
    replications run inline, with 2 on two forked workers."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return use


@pytest.fixture(scope="session")
def h1():
    return hq.SumOfExponentialsKernel([0.5], [1.0])


@pytest.fixture(scope="session")
def h2():
    return hq.SumOfExponentialsKernel([0.1, 0.4], [0.25, 4.0])


@pytest.fixture(scope="session")
def phi_h1(h1):
    return hq.solve_phi_grid(h1, dt=0.01, t_max=40.0)


@pytest.fixture(scope="session")
def K_h1(phi_h1):
    return hq.variance_function(phi_h1)


@pytest.fixture(scope="session")
def phi_h2(h2):
    # slowest decay 1/4 per time unit: the default horizon rule gives 80
    return hq.solve_phi_grid(h2, dt=0.01, t_max=80.0)


@pytest.fixture(scope="session")
def K_h2(phi_h2):
    return hq.variance_function(phi_h2)


@pytest.fixture(scope="session")
def phi_h1_exact():
    return hq.phi_exponential_closed_form(0.5, 1.0, dt=0.01, t_max=40.0)


@pytest.fixture(scope="session")
def quarter_matrix():
    q = hq.SumOfExponentialsKernel([0.25], [1.0])
    return hq.KernelMatrix([[q, q], [q, q]], [1.0, 1.0])


@pytest.fixture(scope="session")
def phi_quarter(quarter_matrix):
    return hq.solve_multivariate_phi(quarter_matrix, dt=0.05, t_max=40.0)


@pytest.fixture(scope="session")
def phi_asymmetric():
    # four distinct entries, so Phi_12 != Phi_21 and Phi(-x) = Phi(x)^T differs from Phi(x)
    E = hq.SumOfExponentialsKernel
    km = hq.KernelMatrix([[E([0.3], [1.0]), E([0.1], [2.0])],
                          [E([0.2], [0.5]), E([0.05], [1.0])]], [1.0, 0.5])
    return hq.solve_multivariate_phi(km, dt=0.05, t_max=40.0)
