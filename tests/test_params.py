import math
from dataclasses import replace

import numpy as np
import pytest

from solitonlab import (DomainError, PhysicalParams, calibrate_lambda,
                        dimensionful_norm)


def test_make_params_basic():
    p = PhysicalParams(1, 1, 1, 0.5)
    assert p.Omega == 0.5


def test_make_params_rejects_interval_endpoint():
    # omega = c/ell0 admits no localized solution
    with pytest.raises(DomainError):
        PhysicalParams(1, 1, 1, 1.0)


def test_make_params_scaling():
    p = PhysicalParams(1, 1, 2, 0.25)
    assert p.Omega == 0.5


@pytest.mark.parametrize("kwargs", [
    dict(hbar=0.0), dict(c=-1.0), dict(ell0=0.0),
    dict(omega=-0.1), dict(omega=2.0), dict(omega=math.inf),
    dict(lam=-1.0), dict(lam=0.0),
    dict(hbar=math.nan), dict(c=math.inf), dict(ell0=math.inf),
    dict(omega=math.nan), dict(lam=math.nan), dict(lam=math.inf),
])
def test_make_params_rejects_bad_inputs(kwargs):
    with pytest.raises(DomainError):
        PhysicalParams(**kwargs)


def test_replace_revalidates():
    p = PhysicalParams(omega=0.5)
    assert replace(p, lam=2.0).lam == 2.0
    for bad in (dict(lam=0.0), dict(lam=math.nan), dict(hbar=0.0), dict(omega=1.0)):
        with pytest.raises(DomainError):
            replace(p, **bad)


def test_dimensionless_rejects_omega_zero():
    with pytest.raises(DomainError):
        PhysicalParams(omega=0.0)


def test_round_trip_physical_dimensionless():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = float(rng.uniform(0.1, 10))
        ell0 = float(rng.uniform(0.1, 10))
        omega = float(rng.uniform(0.01, 0.99)) * c / ell0
        d = PhysicalParams(c=c, ell0=ell0, omega=omega)
        assert d.Omega * c / ell0 == pytest.approx(omega, rel=1e-14)


def test_calibrate_lambda_unit_inputs():
    assert calibrate_lambda(1.0, 1.0, 1.0) == pytest.approx(4 * math.pi, rel=1e-15)
    assert calibrate_lambda(2.0, 1.0, 1.0) == pytest.approx(8 * math.pi, rel=1e-15)


def test_calibrate_lambda_homogeneous_in_hbar():
    lam1 = calibrate_lambda(3.7, 1.3, 1.0)
    lam2 = calibrate_lambda(3.7, 1.3, 2.0)
    assert lam2 == pytest.approx(0.5 * lam1, rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_calibrate_lambda_rejects(bad):
    with pytest.raises(DomainError):
        calibrate_lambda(bad)
    with pytest.raises(DomainError):
        calibrate_lambda(1.0, ell0=bad)
    with pytest.raises(DomainError):
        calibrate_lambda(1.0, hbar=bad)


def test_calibration_round_trip_exact():
    # dimensionful norm after calibration is hbar, float-for-float
    q = 30.595593674675264
    p = PhysicalParams(omega=0.5, lam=calibrate_lambda(q))
    assert dimensionful_norm(p, q) == 1.0


def test_dimensionful_norm_requires_lambda():
    with pytest.raises(DomainError):
        dimensionful_norm(PhysicalParams(omega=0.5), 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_dimensionful_norm_rejects_bad_norm(bad):
    # NaN returned NaN and -1 returned -12.57
    with pytest.raises(DomainError, match="norm_tilde"):
        dimensionful_norm(PhysicalParams(omega=0.5, lam=1.0), bad)
