"""Physical model parameters and the calibration of the coupling.

The model has three base constants (hbar, c, ell0), a stationary frequency
omega and a quartic self-coupling lam. Localized solutions exist only for
0 < Omega = omega*ell0/c < 1. The radial problem is solved in dimensionless
form (x = r/ell0, f = kappa*F with kappa = sqrt(4*pi/(lam*ell0))), which
removes lam from the equations; lam is then fixed afterwards by requiring the
dimensionful norm integral to equal hbar ("calibration").
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, _require_positive


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionful model constants. lam is None until calibrated.

    Construction raises DomainError unless hbar, c and ell0 are finite and
    > 0, Omega = omega*ell0/c lies in (0, 1), and lam is None or finite and
    > 0. dataclasses.replace re-validates, so every instance is admissible.
    """

    hbar: float = 1.0
    c: float = 1.0
    ell0: float = 1.0
    omega: float = 0.5
    lam: Optional[float] = None

    def __post_init__(self):
        for name in ("hbar", "c", "ell0"):
            _require_positive(name, getattr(self, name))
        if not 0.0 < self.Omega < 1.0:
            raise DomainError(
                f"omega = {self.omega!r} gives Omega = omega*ell0/c = {self.Omega!r} "
                f"outside the admissible interval (0, 1); no localized solution")
        if self.lam is not None:
            _require_positive("lam", self.lam)

    @property
    def Omega(self) -> float:
        """Dimensionless frequency, the only parameter of the radial system."""
        return self.omega * self.ell0 / self.c


def calibrate_lambda(norm_tilde: float, ell0: float = 1.0, hbar: float = 1.0) -> float:
    """Coupling that makes the dimensionful norm integral equal hbar.

    With f = kappa*F, r = ell0*x the norm integral becomes
    (4*pi*ell0^2/lam) * norm_tilde, so lam = 4*pi*ell0^2*norm_tilde/hbar
    is the unique calibrated coupling.
    """
    for name, value in (("norm_tilde", norm_tilde), ("ell0", ell0), ("hbar", hbar)):
        _require_positive(name, value)
    return 4.0 * math.pi * ell0 * ell0 * norm_tilde / hbar


def dimensionful_norm(params: PhysicalParams, norm_tilde: float) -> float:
    """Dimensionful norm integral of a profile with dimensionless norm norm_tilde.

    Equals hbar to an ulp when params.lam came from calibrate_lambda with the
    same norm_tilde (the expression below is the float-for-float inverse).
    DomainError unless lam is set and norm_tilde is finite and > 0.
    """
    if params.lam is None:
        raise DomainError("lam is uncalibrated; call calibrate_lambda first")
    _require_positive("norm_tilde", norm_tilde)
    return 4.0 * math.pi * params.ell0 * params.ell0 * norm_tilde / params.lam
