import functools

import pytest

import solitonlab as sl
from solitonlab.params import dimensionful_norm


@pytest.fixture(scope="session")
def ground():
    """solve_ground with default options, solved once per Omega in a session."""
    return functools.cache(sl.solve_ground)


@pytest.fixture(scope="session")
def sol05(ground):
    return ground(0.5)


@pytest.fixture(scope="session")
def obs05(sol05):
    return sl.compute_integrals(sol05)


@pytest.fixture(scope="session")
def ids05(sol05, obs05):
    return sl.identity_report(obs05, sol05.Omega)


@pytest.fixture(scope="session")
def params05(obs05):
    lam = sl.calibrate_lambda(obs05.Q, ell0=1.0, hbar=1.0)
    return sl.PhysicalParams(omega=0.5, lam=lam)


@pytest.fixture(scope="session")
def singlet05(params05, obs05):
    return sl.build_singlet(dimensionful_norm(params05, obs05.Q) / params05.hbar)
