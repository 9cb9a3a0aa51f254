"""Radial integrals, integral identities, spin and energy of a solution.

All integrals are over the dimensionless profile:

    Q  = int x^2 (F^2 + G^2) dx        norm
    Qs = int x^2 (F^2 - G^2) dx        scalar norm
    I4 = int x^2 (F^2 - G^2)^2 dx      quartic
    J4 = int x^2 (F^4 - G^4) dx        mixed quartic
    T  = int x^2 [F G' - G F' + 2FG/x] dx   kinetic

Multiplying the radial equations by x^2 F and x^2 G and integrating by parts
gives two identities that hold exactly for any decaying solution:

    D1:  T = Omega*Q - Qs + I4            (pointwise consequence)
    D2:  Omega*Qs - Q + J4 = 0            (boundary term x^2 F G -> 0)

The scale transformation x -> s x gives T = 3*I4/2, which D1 turns into the
T-free P: Omega*Q - Qs - I4/2 = 0 (Derrick, J. Math. Phys. 5, 1252 (1964);
Pohozaev, Sov. Math. Dokl. 6, 1408 (1965)). All three are asserted hard,
though T integrates the stored right-hand side, so D1 restates the quadrature.
Given D1, E/(hbar*omega) = 1 + I4/(2*Omega*Q) > 1, by the quartic term: the
numerics find 1.378, 1.327, 1.135 and 1.052 at Omega = 0.1, 0.5, 0.9, 0.97.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DomainError, GridError, QuadratureError, _require_positive
from .params import PhysicalParams, dimensionful_norm
from .radial import SolitonSolution

if TYPE_CHECKING:  # spin_z imports the grid module when it is called
    from .spingrid import GridSpec

__all__ = [
    "ObservableSet", "IdentityReport", "SpinReport",
    "compute_integrals", "identity_report", "spin_z", "energy",
]


@dataclass(frozen=True)
class ObservableSet:
    Q: float
    Qs: float
    I4: float
    J4: float
    T: float
    quad_error: dict


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the identities relative to Q, and E/(hbar omega).

    d1_residual: D1; restates the quadrature, kept only for the benchmark gates
    d2_residual: D2, |Omega Qs - Q + J4|
    pohozaev_residual: P, |Omega Q - Qs - I4/2|
    energy_ratio: (T + Qs - I4/2)/(Omega Q), in calibrated units
    """
    d1_residual: float
    d2_residual: float
    pohozaev_residual: float
    energy_ratio: float


@dataclass(frozen=True)
class SpinReport:
    Sz_algebraic: float
    Sz_grid: float
    grid_spec: GridSpec


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y on a strictly increasing mesh x.

    Operation for operation scipy 1.17.1's ``simpson(y, x=x)`` for 1-D input
    with N >= 3 points: the irregular-spacing three-point rule over pairs of
    intervals, and for even N Cartwright's correction for the last interval.
    Left out are scipy's ``where=`` masks, which only guard zero spacings,
    and its final ``+= 0.0`` on the even branch, which only turns -0.0 into
    +0.0.
    """
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = np.true_divide(h0, h1)
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - np.true_divide(1.0, h0divh1))
                        + y[1:stop + 1:2] * (hsum * np.true_divide(hsum, hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    result = np.sum(tmp)
    if n % 2 == 0:
        # last interval; the same expressions on the same 0-d values as scipy
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = np.true_divide(2 * b ** 2 + 3 * a * b, 6 * (b + a))
        beta = np.true_divide(b ** 2 + 3.0 * a * b, 6 * a)
        eta = np.true_divide(1 * b ** 3, 6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


def _mesh_integrals(x, F, G, dF, dG) -> dict:
    x2 = x * x
    return {
        "Q": _simpson(x2 * (F * F + G * G), x),
        "Qs": _simpson(x2 * (F * F - G * G), x),
        "I4": _simpson(x2 * (F * F - G * G) ** 2, x),
        "J4": _simpson(x2 * (F ** 4 - G ** 4), x),
        "T": _simpson(x2 * (F * dG - G * dF) + 2.0 * x * F * G, x),
    }


def compute_integrals(solution: SolitonSolution) -> ObservableSet:
    """Composite Simpson quadrature on the stored mesh.

    The quadrature error of each integral is estimated from one mesh-halving
    step (full mesh vs every other point); disagreement beyond 1e-6 relative
    to max(|integral|, Q), or a NaN, raises QuadratureError. No tail term is
    added: beyond the default x_max = max(40, 25/nu) the integrands carry a
    factor below exp(-50) ~ 2e-22, which changes no bit of the sums.
    """
    p = solution.profile
    full = _mesh_integrals(p.grid, p.F, p.G, p.dF, p.dG)
    half = _mesh_integrals(p.grid[::2], p.F[::2], p.G[::2], p.dF[::2], p.dG[::2])
    scale = max(abs(full["Q"]), 1e-300)
    errors = {}
    for key, value in full.items():
        err = abs(value - half[key])
        errors[key] = err
        if not err <= 1e-6 * max(abs(value), scale):
            raise QuadratureError(
                f"{key} changes by {err:.3e} under mesh halving "
                f"(value {value:.6e})")
    return ObservableSet(quad_error=errors, **full)


def identity_report(obs: ObservableSet, Omega: float) -> IdentityReport:
    """The IdentityReport of obs at Omega. DomainError unless 0 < Omega < 1,
    the range of the bound states, and Q is finite and > 0."""
    if not 0.0 < Omega < 1.0:
        raise DomainError(f"Omega must lie in (0, 1), got {Omega!r}")
    _require_positive("Q", obs.Q)
    Q, Qs, I4, J4, T = obs.Q, obs.Qs, obs.I4, obs.J4, obs.T
    return IdentityReport(
        d1_residual=abs(T - (Omega * Q - Qs + I4)) / Q,
        d2_residual=abs(Omega * Qs - Q + J4) / Q,
        pohozaev_residual=abs(Qs + 0.5 * I4 - Omega * Q) / Q,
        energy_ratio=(T + Qs - 0.5 * I4) / (Omega * Q),
    )


def spin_z(solution: SolitonSolution, params: PhysicalParams,
           obs: Optional[ObservableSet] = None,
           grid: Optional[GridSpec] = None) -> SpinReport:
    """Spin projection along z, algebraically and by 3-D grid quadrature.

    Sz_algebraic = (hbar/2) * (dimensionful norm / hbar): exactly hbar/2 once
    the coupling is calibrated. Sz_grid applies the total angular momentum
    operator -i(x d_y - y d_x) + Sigma_3/2 to the sampled 4-spinor by central
    differences and integrates by 3-D trapezoid; a deviation beyond 2% raises
    GridError. The default 64^3 cube of half-width 12 holds the profile only
    for Omega >~ 0.1: below, the wider profile is cut off at the cube's faces,
    and a finer grid of the same extent does not bring it back within 2%.
    Raises DomainError if params.lam is None.
    """
    from .spingrid import GridSpec, sz_grid_integral

    obs = obs or compute_integrals(solution)
    q_dim = dimensionful_norm(params, obs.Q)
    sz_alg = 0.5 * params.hbar * (q_dim / params.hbar)
    spec = grid or GridSpec(n=64, extent=12.0)
    # same kappa^2 * ell0^3 dimension factor as the norm integral
    sz_grid = dimensionful_norm(params, sz_grid_integral(solution, spec))
    if not abs(sz_grid - sz_alg) <= 0.02 * abs(sz_alg):
        raise GridError(
            f"Sz_grid = {sz_grid:.6f} deviates from Sz_algebraic = {sz_alg:.6f} "
            f"by more than 2% at n = {spec.n}")
    return SpinReport(Sz_algebraic=sz_alg, Sz_grid=sz_grid, grid_spec=spec)


def energy(obs: ObservableSet, params: PhysicalParams):
    """(E, hbar*omega, ratio) in calibrated units.

    E = (c*hbar / (ell0 * Q)) * [T + Qs - I4/2]; the prefactor follows from
    eliminating the coupling with the calibration condition. DomainError
    unless lam is set and Q is finite and > 0.
    """
    if params.lam is None:
        raise DomainError("energy requires calibrated params (lam set)")
    _require_positive("Q", obs.Q)
    E = (params.c * params.hbar / (params.ell0 * obs.Q)) * (obs.T + obs.Qs - 0.5 * obs.I4)
    hbar_omega = params.hbar * params.omega
    return E, hbar_omega, E / hbar_omega
