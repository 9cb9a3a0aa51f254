"""Shooting solver for the dimensionless radial soliton equations.

The stationary spinor ansatz reduces the field equation to two coupled radial
amplitudes F (upper) and G (lower) with the single parameter Omega in (0, 1):

    G' + 2G/x = (Omega - 1)F + (F^2 - G^2)F
    F'        = -(Omega + 1)G + (F^2 - G^2)G

Regular solutions start with F(0) = F0, G ~ c1*x and the nodeless ground
state decays like F ~ (A/x)exp(-nu*x) with nu = sqrt(1 - Omega^2). F0 is the
single shooting unknown: below the critical value the trajectory is captured
by the constant state F = sqrt(1 - Omega) (G turns negative), above it F
plunges through zero. Bisection on that dichotomy converges to the ground
state; the far tail is continued analytically once F has dropped several
orders below F0, which keeps the stored profile clean of the exponential
shooting instability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (BracketError, ConvergenceError, DomainError, TailError)
from .ivp import integrate_free, integrate_mesh

__all__ = [
    "Outcome", "RadialState", "TailFit", "RadialProfile", "ShootingResult",
    "ResidualReport", "SolitonSolution", "SolverOptions",
    "rhs", "series_start", "integrate", "classify", "shoot", "solve_ground",
]


class Outcome(Enum):
    DIVERGED_UP = "diverged_up"
    DIVERGED_DOWN = "diverged_down"
    DECAYED = "decayed"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RadialState:
    x: float
    F: float
    G: float


@dataclass(frozen=True)
class TailFit:
    """Exponential tail parameters fitted from the integrated trajectory.

    F is fitted as (A/x)exp(-nu_fit*x) over the last decade of decay of x*F
    ending at the glue radius x_glue; beyond x_glue the stored profile is the
    analytic tail continuation with amplitudes A_glue_F / A_glue_G matched
    for exact continuity.
    """
    A: float
    nu_fit: float
    x_glue: float
    fit_x_lo: float
    fit_x_hi: float
    A_glue_F: float
    A_glue_G: float


@dataclass
class RadialProfile:
    grid: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dF: np.ndarray
    dG: np.ndarray
    tail: TailFit

    @property
    def x_max(self) -> float:
        return float(self.grid[-1])


@dataclass(frozen=True)
class ShootingResult:
    F0: float
    bracket: tuple
    n_iterations: int
    classification_history: tuple


@dataclass(frozen=True)
class ResidualReport:
    """Diagnostics of a converged profile.

    max_midpoint_residual is the worst mismatch between the cubic-Hermite
    midpoint derivative of the stored mesh data and the equations' right-hand
    side, normalized by residual_scale = max|dF|, |dG| over the mesh.
    """
    max_midpoint_residual: float
    residual_scale: float
    min_F: float
    g_sign_changes: int
    tail_ratio_end: float
    nu_rel_dev: float


@dataclass
class SolitonSolution:
    Omega: float
    profile: RadialProfile
    shooting: ShootingResult
    residuals: ResidualReport
    provenance: dict


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and guards of the shooting pipeline."""
    x0: float = 1e-4
    x_max: Optional[float] = None          # default max(40, 25/nu)
    mesh_dx: float = 0.01
    scan_step: float = 0.1
    scan_max: float = 5.0
    scan_rtol: float = 1e-8
    final_rtol: float = 1e-10
    shoot_tol: float = 1e-12
    max_iterations: int = 200
    blowup_factor: float = 1e3
    decay_floor: float = 1e-12
    glue_frac: float = 1e-4
    residual_tol: float = 1e-8
    max_x_extensions: int = 12


def _rhs(x: float, F: float, G: float, Omega: float) -> tuple:
    cub = F * F - G * G
    return ((-(Omega + 1.0) + cub) * G,
            -2.0 * G / x + ((Omega - 1.0) + cub) * F)


def rhs(state: RadialState, Omega: float) -> tuple:
    """Right-hand side (dF, dG) of the radial system at a state."""
    if state.x <= 0:
        raise DomainError(f"rhs requires x > 0, got {state.x}")
    return _rhs(state.x, state.F, state.G, Omega)


def series_start(F0: float, Omega: float, x0: float = 1e-4) -> RadialState:
    """Second-order regular series at the start offset x0.

    G(x0) = c1*x0 with c1 = ((Omega-1)F0 + F0^3)/3, obtained by matching the
    1/x term of the G equation at the origin; F starts flat with curvature
    -(Omega+1)c1.
    """
    if x0 <= 0:
        raise DomainError(f"series_start requires x0 > 0, got {x0}")
    c1 = ((Omega - 1.0) * F0 + F0 ** 3) / 3.0
    return RadialState(x=x0, F=F0 - (Omega + 1.0) * c1 * x0 * x0 / 2.0, G=c1 * x0)


@dataclass
class Trajectory:
    xs: list
    Fs: list
    Gs: list
    halt: str  # 'decay' | 'f_cross' | 'g_cross' | 'blowup' | 'end'

    @property
    def last(self) -> RadialState:
        return RadialState(self.xs[-1], self.Fs[-1], self.Gs[-1])


def _make_check(guard: float, floor: float):
    def check(x, F, G):
        if abs(F) < floor and abs(G) < floor:
            return "decay"
        if F < 0.0:
            return "f_cross"
        if G < 0.0:
            return "g_cross"
        if abs(F) > guard or abs(G) > guard:
            return "blowup"
        return None
    return check


def integrate(start: RadialState, Omega: float, x_max: float, tol: float,
              guard: Optional[float] = None, decay_floor: float = 1e-12):
    """Adaptive integration from a start state with divergence detection.

    Halts when F crosses zero (overshoot), G crosses zero (capture by the
    constant state, i.e. undershoot), both amplitudes fall below the decay
    floor, or either exceeds the blow-up guard (default 1e3 * |F(start)|).
    Returns (Trajectory, Outcome).
    """
    if not 1e-14 <= tol <= 1e-6:
        raise DomainError(f"tol must lie in [1e-14, 1e-6], got {tol}")
    if guard is None:
        guard = 1e3 * max(abs(start.F), 1e-12)
    rec: list = []
    f = lambda x, F, G: _rhs(x, F, G, Omega)
    x, F, G, reason = integrate_free(
        f, start.x, start.F, start.G, x_max, rtol=tol,
        check=_make_check(guard, decay_floor), record=rec)
    traj = Trajectory(xs=[r[0] for r in rec], Fs=[r[1] for r in rec],
                      Gs=[r[2] for r in rec], halt=reason)
    return traj, classify(traj)


def classify(trajectory: Trajectory) -> Outcome:
    """Deterministic labeling of a halted trajectory."""
    halt = trajectory.halt
    if halt == "decay":
        return Outcome.DECAYED
    if halt == "f_cross":
        return Outcome.DIVERGED_DOWN
    if halt == "g_cross":
        return Outcome.DIVERGED_UP
    if halt == "blowup":
        return Outcome.DIVERGED_DOWN if trajectory.Fs[-1] < 0 else Outcome.DIVERGED_UP
    return Outcome.INDETERMINATE


def _build_mesh(x0: float, x_end: float, dx: float) -> np.ndarray:
    """Uniform mesh x0 + dx*k covering [x0, x_end]; growing x_end only appends
    nodes, so the node sequence over any prefix is extension-stable."""
    n = int(math.ceil((x_end - x0) / dx)) + 1
    return x0 + dx * np.arange(n)


class _Shooter:
    """Shared trial machinery with an x_max ratchet for indeterminate runs.

    Bisection trials and the final pass integrate on the same node-clamped
    mesh: the bisected amplitude is then critical for exactly the discrete
    flow that produces the stored profile, which keeps the far tail clean of
    the unstable mode down to rounding level.
    """

    def __init__(self, Omega: float, opts: SolverOptions):
        self.Omega = Omega
        self.nu = math.sqrt(1.0 - Omega * Omega)
        self.opts = opts
        x_max = opts.x_max if opts.x_max is not None else max(40.0, 25.0 / self.nu)
        self.mesh = _build_mesh(opts.x0, x_max, opts.mesh_dx)

    @property
    def x_max(self) -> float:
        return float(self.mesh[-1])

    def _extend(self) -> None:
        self.mesh = _build_mesh(self.opts.x0, 1.5 * self.x_max, self.opts.mesh_dx)

    def trial(self, F0: float, rtol: float, clamped: bool = False) -> tuple:
        """Classify one trial; returns (Outcome, halt_reason).

        A non-positive series slope c1 means G turns negative immediately:
        that is the undershoot side, no integration needed. Indeterminate
        runs extend x_max by 1.5x (truncation, not dynamics) and the larger
        window is kept for subsequent trials.
        """
        opts = self.opts
        start = series_start(F0, self.Omega, opts.x0)
        if F0 == 0.0:
            return Outcome.DECAYED, "decay"
        if start.G <= 0.0:
            return Outcome.DIVERGED_UP, "series"
        guard = opts.blowup_factor * max(abs(F0), 1e-12)
        check = _make_check(guard, opts.decay_floor)
        f = lambda x, F, G: _rhs(x, F, G, self.Omega)
        for _ in range(opts.max_x_extensions + 1):
            if clamped:
                _xs, Fs, Gs, reason = integrate_mesh(
                    f, self.mesh, start.F, start.G, rtol=rtol, check=check)
                if reason != "end":
                    traj = Trajectory(xs=[], Fs=[Fs[-1]], Gs=[Gs[-1]], halt=reason)
                    return classify(traj), reason
            else:
                traj, out = integrate(start, self.Omega, self.x_max, rtol,
                                      guard=guard, decay_floor=opts.decay_floor)
                if out is not Outcome.INDETERMINATE:
                    return out, traj.halt
            self._extend()
        raise ConvergenceError(
            f"trial F0 = {F0} stayed indeterminate up to x_max = {self.x_max:.1f}")


def _scan_label(outcome: Outcome, halt: str) -> str:
    """Position of a trial relative to the ground-state window."""
    if outcome is Outcome.DIVERGED_DOWN:
        return "above"
    if outcome is Outcome.DIVERGED_UP and halt == "blowup":
        return "far_above"
    return "below"


def coarse_scan(Omega: float, opts: SolverOptions, shooter: Optional[_Shooter] = None):
    """Bracket the ground-state amplitude by scanning F0.

    Walks the grid (scan_step, 2*scan_step, ..., scan_max) for the first
    departure from the undershoot class. A direct undershoot->overshoot flip
    gives the bracket; when the overshoot window is narrower than the grid
    (small Omega) the step lands beyond it in the positive blow-up region, and
    the window is recovered by bisecting between the last undershoot and the
    first blow-up point.
    """
    sh = shooter or _Shooter(Omega, opts)
    rtol = opts.scan_rtol
    values = np.arange(opts.scan_step, opts.scan_max + opts.scan_step / 2, opts.scan_step)
    prev = None
    first = _scan_label(*sh.trial(float(values[0]), rtol))
    if first != "below":
        # critical amplitude below the first grid point: extend downward
        lo = float(values[0])
        for _ in range(40):
            lo /= 2.0
            if _scan_label(*sh.trial(lo, rtol)) == "below":
                return _refine_window(sh, lo, 2.0 * lo, rtol)
        raise BracketError(f"no undershoot trial found below F0 = {values[0]}")
    prev = float(values[0])
    for F0 in values[1:]:
        F0 = float(F0)
        label = _scan_label(*sh.trial(F0, rtol))
        if label == "below":
            prev = F0
            continue
        if label == "above":
            return prev, F0
        return _refine_window(sh, prev, F0, rtol)
    raise BracketError(
        f"no overshoot found for F0 up to {opts.scan_max} at Omega = {Omega}")


def _refine_window(sh: _Shooter, lo: float, hi: float, rtol: float):
    """Bisect [lo, hi] (undershoot, blow-up) until an overshoot point appears."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        label = _scan_label(*sh.trial(mid, rtol))
        if label == "above":
            return lo, mid
        if label == "below":
            lo = mid
        else:
            hi = mid
    raise BracketError(
        f"overshoot window vanished between F0 = {lo} and {hi}")


def shoot(Omega: float, bracket0: tuple, shoot_tol: float = 1e-12,
          opts: Optional[SolverOptions] = None,
          shooter: Optional[_Shooter] = None) -> ShootingResult:
    """Bisect the shooting amplitude between opposite classifications.

    Bisection continues to float exhaustion (adjacent representable values),
    which minimizes contamination of the far tail by the unstable mode; the
    shoot_tol contract (bracket width <= shoot_tol * max(1, F0)) is then met
    with large margin.
    """
    if not 0.0 < Omega < 1.0:
        raise DomainError(f"Omega must lie in (0, 1), got {Omega}")
    opts = opts or SolverOptions(shoot_tol=shoot_tol)
    sh = shooter or _Shooter(Omega, opts)
    rtol = opts.final_rtol
    lo, hi = float(bracket0[0]), float(bracket0[1])
    history = []
    out_lo, halt_lo = sh.trial(lo, rtol, clamped=True)
    out_hi, halt_hi = sh.trial(hi, rtol, clamped=True)
    history.append((lo, out_lo.value))
    history.append((hi, out_hi.value))
    sides = {out_lo, out_hi}
    if sides != {Outcome.DIVERGED_UP, Outcome.DIVERGED_DOWN}:
        raise BracketError(
            f"bracket endpoints classify as {out_lo.value}/{out_hi.value}, "
            "need one diverged_up and one diverged_down")
    if out_lo is Outcome.DIVERGED_DOWN:
        lo, hi = hi, lo  # keep lo on the undershoot side
    n_iter = 0
    for n_iter in range(1, opts.max_iterations + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        out, _halt = sh.trial(mid, rtol, clamped=True)
        history.append((mid, out.value))
        if out is Outcome.DECAYED:
            lo = hi = mid
            break
        if out is Outcome.DIVERGED_UP:
            lo = mid
        else:
            hi = mid
    F0 = 0.5 * (lo + hi)
    width = abs(hi - lo)
    if width > shoot_tol * max(1.0, abs(F0)):
        raise ConvergenceError(
            f"bisection stalled with bracket width {width:.3e} at Omega = {Omega}")
    bracket = (min(lo, hi), max(lo, hi))
    return ShootingResult(F0=F0, bracket=bracket, n_iterations=n_iter,
                          classification_history=tuple(history))


def _final_profile(Omega: float, F0: float, sh: _Shooter, opts: SolverOptions):
    """Mesh-clamped final integration plus analytic tail continuation."""
    nu, B = sh.nu, 1.0 + Omega
    mesh = sh.mesh
    n = mesh.size
    thresh = opts.glue_frac * F0

    def check(x, F, G):
        # sign test first: a crossing below the threshold is not a glue point
        if F < 0.0 or G < 0.0:
            return "cross"
        if F <= thresh:
            return "glue"
        return None

    f = lambda x, F, G: _rhs(x, F, G, Omega)
    start = series_start(F0, Omega, opts.x0)
    xs, Fs, Gs, reason = integrate_mesh(f, mesh, start.F, start.G,
                                        rtol=opts.final_rtol, check=check)
    if reason != "glue":
        raise TailError(
            f"final integration halted by '{reason}' before reaching the glue "
            f"threshold (x = {xs[-1]:.2f}); x_max may be too small")
    k_glue = len(xs) - 1
    F = np.empty(n)
    G = np.empty(n)
    F[:k_glue + 1] = Fs
    G[:k_glue + 1] = Gs

    # tail fit over the last decade of x*F of the integrated data
    xi = mesh[:k_glue + 1]
    y = np.log(xi * F[:k_glue + 1])
    y_end = y[k_glue]
    i0 = int(np.searchsorted(-y, -(y_end + math.log(10.0))))
    i0 = min(max(i0, 0), k_glue - 10)
    slope, intercept = np.polyfit(xi[i0:], y[i0:], 1)
    nu_fit = -float(slope)
    A_fit = float(np.exp(intercept))

    # analytic continuation beyond the glue radius, amplitudes matched for
    # exact continuity of both components (uses the exact nu: the continuation
    # must satisfy the linearized equations to keep midpoint residuals clean)
    xg = float(mesh[k_glue])
    A_gF = F[k_glue] * xg * math.exp(nu * xg)
    A_gG = G[k_glue] * B * xg / (nu + 1.0 / xg) * math.exp(nu * xg)
    xt = mesh[k_glue + 1:]
    F[k_glue + 1:] = A_gF * np.exp(-nu * xt) / xt
    G[k_glue + 1:] = A_gG * np.exp(-nu * xt) * (nu + 1.0 / xt) / (B * xt)

    cub = F * F - G * G
    dF = (-(Omega + 1.0) + cub) * G
    dG = -2.0 * G / mesh + ((Omega - 1.0) + cub) * F

    tail = TailFit(A=A_fit, nu_fit=nu_fit, x_glue=xg,
                   fit_x_lo=float(xi[i0]), fit_x_hi=xg,
                   A_glue_F=float(A_gF), A_glue_G=float(A_gG))
    profile = RadialProfile(grid=mesh, F=F, G=G, dF=dF, dG=dG, tail=tail)

    # diagnostics
    res, scale = _midpoint_residual(profile, Omega)
    dF_end = dF[k_glue]
    tail_ratio = float(-G[k_glue] * B / dF_end) if dF_end != 0 else math.nan
    g_core = G[np.abs(G) > opts.decay_floor]
    sign_changes = int(np.sum(np.diff(np.sign(g_core)) != 0)) if g_core.size else 0
    report = ResidualReport(
        max_midpoint_residual=res,
        residual_scale=scale,
        min_F=float(F.min()),
        g_sign_changes=sign_changes,
        tail_ratio_end=tail_ratio,
        nu_rel_dev=abs(nu_fit - nu) / nu,
    )
    return profile, report


def _midpoint_residual(profile: RadialProfile, Omega: float):
    """Max-norm equation residual at mesh midpoints, relative to max|dF|,|dG|.

    Uses cubic-Hermite midpoint values and the superconvergent Hermite
    midpoint derivative (fourth-order accurate), so for accurately integrated
    data the residual reflects solve quality rather than differencing error.
    """
    x, F, G, dF, dG = profile.grid, profile.F, profile.G, profile.dF, profile.dG
    h = np.diff(x)
    xm = x[:-1] + 0.5 * h
    Fm = 0.5 * (F[:-1] + F[1:]) + 0.125 * h * (dF[:-1] - dF[1:])
    Gm = 0.5 * (G[:-1] + G[1:]) + 0.125 * h * (dG[:-1] - dG[1:])
    dFm = 1.5 * (F[1:] - F[:-1]) / h - 0.25 * (dF[:-1] + dF[1:])
    dGm = 1.5 * (G[1:] - G[:-1]) / h - 0.25 * (dG[:-1] + dG[1:])
    cub = Fm * Fm - Gm * Gm
    rF = dFm - ((-(Omega + 1.0) + cub) * Gm)
    rG = dGm - (-2.0 * Gm / xm + ((Omega - 1.0) + cub) * Fm)
    scale = max(float(np.max(np.abs(dF))), float(np.max(np.abs(dG))), 1e-300)
    res = max(float(np.max(np.abs(rF))), float(np.max(np.abs(rG)))) / scale
    return res, scale


def solve_ground(Omega: float, opts: Optional[SolverOptions] = None) -> SolitonSolution:
    """End-to-end ground-state solve: scan, bisect, final pass, tail fit.

    Nothing is retried: trials already lengthen x_max on indeterminate runs.
    A final pass that misses the glue threshold, or a fitted tail exponent
    more than 5% from sqrt(1 - Omega^2), raises TailError; a midpoint
    residual above residual_tol raises ConvergenceError. Both guards reject
    NaN.
    """
    if not 0.0 < Omega < 1.0:
        raise DomainError(f"Omega must lie in (0, 1), got {Omega}")
    opts = opts or SolverOptions()
    sh = _Shooter(Omega, opts)
    bracket = coarse_scan(Omega, opts, shooter=sh)
    shooting = shoot(Omega, bracket, shoot_tol=opts.shoot_tol, opts=opts, shooter=sh)
    profile, report = _final_profile(Omega, shooting.F0, sh, opts)
    if not report.nu_rel_dev <= 0.05:
        raise TailError(
            f"nu_fit = {profile.tail.nu_fit:.6f} deviates "
            f"{report.nu_rel_dev:.1%} from sqrt(1 - Omega^2)")
    if not report.max_midpoint_residual <= opts.residual_tol:
        raise ConvergenceError(
            f"midpoint residual {report.max_midpoint_residual:.3e} exceeds "
            f"{opts.residual_tol:.1e}")
    provenance = {
        "code_version": _version(),
        "options": asdict(opts),
        "x_max_used": sh.x_max,
    }
    return SolitonSolution(Omega=Omega, profile=profile, shooting=shooting,
                           residuals=report, provenance=provenance)


def _version() -> str:
    from . import __version__
    return __version__
