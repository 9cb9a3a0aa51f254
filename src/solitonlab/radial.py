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

Bisection's rule is written once, as a walk (_bisect) that asks a
classifier for each midpoint: shoot classifies by trials, the archive loader
(replay_bisection) by the stored history, and the estimate by its predicted
outcomes. In shoot the zero-crossing radii of overshoot trials estimate the
critical amplitude, trials at the predicted midpoints bracket it within a
few dozen ulps, and only the midpoints near that bracket run trials. The
result is plain bisection's to the bit, at about a third of the trials.

Every integration of a solve runs _march, a DP5 march with this
right-hand side written inline: the coarse scan takes free adaptive steps,
bisection trials and the final pass step clamped to the mesh nodes. It
performs ivp.Stepper.advance_to's arithmetic operation for operation, so its
values are bit-identical to the generic ivp path driving _rhs, which the
tests keep as its oracle.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from . import __version__, ivp
from .errors import (BracketError, ConvergenceError, DomainError,
                     IntegrationError, TailError, _require_positive, is_count)

__all__ = [
    "Outcome", "RadialState", "TailFit", "RadialProfile", "ShootingResult",
    "ResidualReport", "SolitonSolution", "SolverOptions",
    "rhs", "series_start", "shoot", "replay_bisection", "ratchet_nodes",
    "solution_from_shooting", "solve_ground",
]


class Outcome(Enum):
    DIVERGED_UP = "diverged_up"
    DIVERGED_DOWN = "diverged_down"
    DECAYED = "decayed"


@dataclass(frozen=True)
class RadialState:
    x: float
    F: float
    G: float


@dataclass(frozen=True)
class TailFit:
    """Exponential tail parameters fitted from the integrated trajectory.

    F is fitted as (A/x)exp(-nu_fit*x) over [fit_x_lo, x_glue], the last
    decade of decay of x*F ending at the glue radius x_glue; beyond x_glue the
    stored profile is the analytic tail continuation, matched to F and G at
    x_glue for exact continuity.
    """
    A: float
    nu_fit: float
    x_glue: float
    fit_x_lo: float


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
    nu_rel_dev: float


@dataclass
class SolitonSolution:
    Omega: float
    profile: RadialProfile
    shooting: ShootingResult
    residuals: ResidualReport
    provenance: dict


# most coarse-scan grid points, scan_max / scan_step (the default scan has 50)
_MAX_SCAN_POINTS = 10_000
# largest series-start offset. Over a log scan of x0 at Omega in {0.05, 0.5,
# 0.9, 0.98}, every x0 up to 1e-3 solves (F0 within 3e-8 and Q within 2e-11
# of the default x0's) or raises ConvergenceError; x0 = 1 solves to another
# profile (Q -98% at Omega = 0.5), and x0 = 45 leaves the trials no mesh
_MAX_X0 = 1e-3
# smallest: at a subnormal x0 the first step underflows (IntegrationError), while
# the smallest normal float solves at Omega in {0.05, 0.5, 0.98}
_MIN_X0 = sys.float_info.min
# most radial mesh nodes (the default mesh has 4,001 at Omega = 0.5); the
# default x_max = max(40, 25/nu) reaches it at Omega ~ 1 - 3.1e-8
_MAX_MESH_NODES = 10_000_000


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and guards of the shooting pipeline.

    Construction raises DomainError unless x0 lies in [2.2e-308, 1e-3]
    (_MIN_X0, the smallest normal float, to _MAX_X0); mesh_dx, scan_step,
    shoot_tol, decay_floor and residual_tol are finite and > 0; x_max is
    None or finite and > x0; scan_max is finite and >= scan_step, and
    scan_max / scan_step is at most 10^4 (the scan's grid points);
    scan_rtol and final_rtol lie in [1e-14, 1e-6]; blowup_factor is finite
    and > 1; glue_frac lies in (0, 1); max_iterations is an int >= 1 and
    max_x_extensions an int >= 0.
    """
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

    def __post_init__(self):
        # NaN-safe: each test is written so that NaN fails it
        if not _MIN_X0 <= self.x0 <= _MAX_X0:
            raise DomainError(f"x0 must lie in [{_MIN_X0}, {_MAX_X0}], got {self.x0}")
        for name in ("mesh_dx", "scan_step", "shoot_tol", "decay_floor", "residual_tol"):
            _require_positive(name, getattr(self, name))
        for name in ("scan_rtol", "final_rtol"):
            tol = getattr(self, name)
            if not 1e-14 <= tol <= 1e-6:
                raise DomainError(f"{name} must lie in [1e-14, 1e-6], got {tol}")
        if self.x_max is not None and not self.x0 < self.x_max < math.inf:
            raise DomainError(f"x_max must be finite and > x0 = {self.x0}, got {self.x_max}")
        if not self.scan_step <= self.scan_max < math.inf:
            raise DomainError(f"scan_max must be finite and >= scan_step = "
                              f"{self.scan_step}, got {self.scan_max}")
        if not self.scan_max / self.scan_step <= _MAX_SCAN_POINTS:
            raise DomainError(f"scan_max / scan_step must be <= {_MAX_SCAN_POINTS}, got "
                              f"{self.scan_max} / {self.scan_step}")
        if not 1.0 < self.blowup_factor < math.inf:
            raise DomainError(f"blowup_factor must be finite and > 1, got {self.blowup_factor}")
        if not 0.0 < self.glue_frac < 1.0:
            raise DomainError(f"glue_frac must lie in (0, 1), got {self.glue_frac}")
        for name, least in (("max_iterations", 1), ("max_x_extensions", 0)):
            count = getattr(self, name)
            if not (is_count(count) and count >= least):
                raise DomainError(f"{name} must be an integer >= {least}, got {count!r}")


def _rhs(x, F, G, Omega: float) -> tuple:
    """(dF, dG) at floats or elementwise on arrays."""
    cub = F * F - G * G
    return ((-(Omega + 1.0) + cub) * G,
            -2.0 * G / x + ((Omega - 1.0) + cub) * F)


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def rhs(state: RadialState, Omega: float) -> tuple:
    """Right-hand side (dF, dG) of the radial system at a state. DomainError
    unless x > 0 and F, G and Omega are finite."""
    if not state.x > 0:
        raise DomainError(f"rhs requires x > 0, got {state.x}")
    _check_finite(F=state.F, G=state.G, Omega=Omega)
    return _rhs(state.x, state.F, state.G, Omega)


def series_start(F0: float, Omega: float, x0: float = 1e-4) -> RadialState:
    """Second-order regular series at the start offset x0.

    G(x0) = c1*x0 with c1 = ((Omega-1)F0 + F0^3)/3, obtained by matching the
    1/x term of the G equation at the origin; F starts flat with curvature
    -(Omega+1)c1. DomainError unless x0 > 0, F0 and Omega are finite and
    F0^3 is a float (|F0| up to ~5.6e102).
    """
    if not x0 > 0:
        raise DomainError(f"series_start requires x0 > 0, got {x0}")
    _check_finite(F0=F0, Omega=Omega)
    try:
        c1 = ((Omega - 1.0) * F0 + F0 ** 3) / 3.0
    except OverflowError:
        raise DomainError(f"F0^3 overflows a float at F0 = {F0}") from None
    return RadialState(x=x0, F=F0 - (Omega + 1.0) * c1 * x0 * x0 / 2.0, G=c1 * x0)


def _mesh_nodes(x0: float, x_end: float, dx: float) -> int:
    """Node count of the mesh x0 + dx*k that covers [x0, x_end]; DomainError
    for more than _MAX_MESH_NODES."""
    intervals = (x_end - x0) / dx
    if not intervals <= _MAX_MESH_NODES - 1:
        raise DomainError(f"the mesh [{x0}, {x_end}] at spacing {dx} would exceed "
                          f"{_MAX_MESH_NODES} nodes")
    return int(math.ceil(intervals)) + 1


def _build_mesh(x0: float, dx: float, nodes: int) -> np.ndarray:
    """Uniform mesh x0 + dx*k, k < nodes, for a count from _mesh_nodes, which
    bounds it; more nodes only append, so the node sequence over any prefix
    is extension-stable."""
    return x0 + dx * np.arange(nodes)


def _initial_x_max(Omega: float, opts: SolverOptions) -> float:
    """The trials' first x_max. Omega enters the solver here, through every
    _Shooter and ratchet_nodes: DomainError unless it lies in (0, 1)."""
    if not 0.0 < Omega < 1.0:
        raise DomainError(f"Omega must lie in (0, 1), got {Omega}")
    if opts.x_max is not None:
        return opts.x_max
    return max(40.0, 25.0 / math.sqrt(1.0 - Omega * Omega))


def ratchet_nodes(Omega: float, opts: SolverOptions, x_max_used: float) -> int:
    """Node count of the trials' mesh that ends at x_max_used, found without
    building a mesh: the x_max ratchet starts at the initial x_max and
    extends it by 1.5x (_Shooter), and its end is the mesh's last node
    x0 + dx * (nodes - 1). ValueError if x_max_used is not one of its ends."""
    x0, dx = opts.x0, opts.mesh_dx
    nodes = _mesh_nodes(x0, _initial_x_max(Omega, opts), dx)
    while x0 + dx * (nodes - 1) < x_max_used:
        nodes = _mesh_nodes(x0, 1.5 * (x0 + dx * (nodes - 1)), dx)
    if x0 + dx * (nodes - 1) != x_max_used:
        raise ValueError(f"x_max_used = {x_max_used!r} is not an end of the x_max ratchet")
    return nodes


def _march(Omega: float, nodes, F: float, G: float, rtol: float,
           every_step: bool = False):
    """DP5 march from (the first node, F, G), clamped to every node of the
    iterable, which it walks once without copying; yields (x, F, G) at each
    node after the first, or after every accepted step if every_step is set
    (free steps: pass nodes [x0, x_end]).

    This is ivp.Stepper.advance_to driving _rhs (default atol and max_step),
    as ivp.integrate_mesh runs it, with the right-hand side written inline:
    every operation, its order and its parenthesisation are the generic
    path's, so each yielded value is bit-identical to it. The only changes
    are hoisted loop invariants, the tableau bound as locals, and min/max
    written as conditionals with the same tie and NaN results
    (min(a, b) is `b if b < a else a`, max(a, b) is `b if b > a else a`).
    """
    C2, C3, C4, C5 = ivp.C2, ivp.C3, ivp.C4, ivp.C5
    A21 = ivp.A21
    A31, A32 = ivp.A31, ivp.A32
    A41, A42, A43 = ivp.A41, ivp.A42, ivp.A43
    A51, A52, A53, A54 = ivp.A51, ivp.A52, ivp.A53, ivp.A54
    A61, A62, A63, A64, A65 = ivp.A61, ivp.A62, ivp.A63, ivp.A64, ivp.A65
    B1, B3, B4, B5, B6 = ivp.B1, ivp.B3, ivp.B4, ivp.B5, ivp.B6
    E1, E3, E4, E5, E6, E7 = ivp.E1, ivp.E3, ivp.E4, ivp.E5, ivp.E6, ivp.E7
    MIN_FACTOR, MAX_FACTOR, SAFETY = ivp.MIN_FACTOR, ivp.MAX_FACTOR, ivp.SAFETY
    atol, max_step = 1e-300, 1.0
    sqrt = math.sqrt
    nOp = -(Omega + 1.0)
    Om1 = Omega - 1.0

    nodes = iter(nodes)
    x = next(nodes)
    cub = F * F - G * G
    k1F = (nOp + cub) * G
    k1G = -2.0 * G / x + (Om1 + cub) * F
    h = 1e-3  # min(1e-3, max_step)
    for x_node in nodes:
        while x < x_node:
            # h = min(h, max_step, x_node - x)
            if max_step < h:
                h = max_step
            d = x_node - x
            if d < h:
                h = d
            ax = abs(x)
            h_min = 1e-14 * (ax if ax > 1.0 else 1.0)
            while True:
                if h < h_min:
                    raise IntegrationError(f"step size underflow at x = {x}")
                hA21 = h * A21
                xs = x + C2 * h
                Fs = F + hA21 * k1F
                Gs = G + hA21 * k1G
                cub = Fs * Fs - Gs * Gs
                k2F = (nOp + cub) * Gs
                k2G = -2.0 * Gs / xs + (Om1 + cub) * Fs
                xs = x + C3 * h
                Fs = F + h * (A31 * k1F + A32 * k2F)
                Gs = G + h * (A31 * k1G + A32 * k2G)
                cub = Fs * Fs - Gs * Gs
                k3F = (nOp + cub) * Gs
                k3G = -2.0 * Gs / xs + (Om1 + cub) * Fs
                xs = x + C4 * h
                Fs = F + h * (A41 * k1F + A42 * k2F + A43 * k3F)
                Gs = G + h * (A41 * k1G + A42 * k2G + A43 * k3G)
                cub = Fs * Fs - Gs * Gs
                k4F = (nOp + cub) * Gs
                k4G = -2.0 * Gs / xs + (Om1 + cub) * Fs
                xs = x + C5 * h
                Fs = F + h * (A51 * k1F + A52 * k2F + A53 * k3F + A54 * k4F)
                Gs = G + h * (A51 * k1G + A52 * k2G + A53 * k3G + A54 * k4G)
                cub = Fs * Fs - Gs * Gs
                k5F = (nOp + cub) * Gs
                k5G = -2.0 * Gs / xs + (Om1 + cub) * Fs
                xh = x + h
                Fs = F + h * (A61 * k1F + A62 * k2F + A63 * k3F + A64 * k4F + A65 * k5F)
                Gs = G + h * (A61 * k1G + A62 * k2G + A63 * k3G + A64 * k4G + A65 * k5G)
                cub = Fs * Fs - Gs * Gs
                k6F = (nOp + cub) * Gs
                k6G = -2.0 * Gs / xh + (Om1 + cub) * Fs
                Fn = F + h * (B1 * k1F + B3 * k3F + B4 * k4F + B5 * k5F + B6 * k6F)
                Gn = G + h * (B1 * k1G + B3 * k3G + B4 * k4G + B5 * k5G + B6 * k6G)
                cub = Fn * Fn - Gn * Gn
                k7F = (nOp + cub) * Gn
                k7G = -2.0 * Gn / xh + (Om1 + cub) * Fn
                eF = h * (E1 * k1F + E3 * k3F + E4 * k4F + E5 * k5F + E6 * k6F + E7 * k7F)
                eG = h * (E1 * k1G + E3 * k3G + E4 * k4G + E5 * k5G + E6 * k6G + E7 * k7G)
                aF, aFn = abs(F), abs(Fn)
                aG, aGn = abs(G), abs(Gn)
                sF = atol + rtol * (aFn if aFn > aF else aF)
                sG = atol + rtol * (aGn if aGn > aG else aG)
                err = sqrt(0.5 * ((eF / sF) ** 2 + (eG / sG) ** 2))
                if err <= 1.0:
                    if err == 0.0:
                        factor = MAX_FACTOR
                    else:
                        factor = SAFETY * err ** -0.2
                        factor = factor if factor > MIN_FACTOR else MIN_FACTOR
                        factor = factor if factor < MAX_FACTOR else MAX_FACTOR
                    x = xh
                    F, G = Fn, Gn
                    k1F, k1G = k7F, k7G
                    h = h * factor
                    h = max_step if max_step < h else h
                    break
                shrink = SAFETY * err ** -0.2
                h *= shrink if shrink > MIN_FACTOR else MIN_FACTOR
            if every_step:
                yield x, F, G
        if not every_step:
            yield x, F, G


class _Shooter:
    """Shared trial machinery with an x_max ratchet for indeterminate runs.

    Bisection trials and the final pass integrate on the same node-clamped
    mesh: the bisected amplitude is then critical for exactly the discrete
    flow that produces the stored profile, which keeps the far tail clean of
    the unstable mode down to rounding level. Scan trials take free steps.
    """

    def __init__(self, Omega: float, opts: SolverOptions):
        self.Omega = Omega
        self.opts = opts
        self._extend(_initial_x_max(Omega, opts))
        self.nu = math.sqrt(1.0 - Omega * Omega)

    @property
    def x_max(self) -> float:
        return self.nodes[-1]

    def _extend(self, x_end: Optional[float] = None) -> None:
        """Set nodes, the float nodes that _march clamps to, to the mesh over
        [x0, x_end], by default [x0, 1.5 * x_max]."""
        x0, dx = self.opts.x0, self.opts.mesh_dx
        nodes = _mesh_nodes(x0, x_end or 1.5 * self.x_max, dx)
        self.nodes = _build_mesh(x0, dx, nodes).tolist()

    def trial(self, F0: float, rtol: float, clamped: bool = False) -> tuple:
        """Classify one trial; returns (Outcome, halt_reason).

        Free steps (the scan) or steps clamped to the mesh (bisection). The
        halt tests run from the start state on, in this order: both
        amplitudes below decay_floor, F < 0, G < 0, either above the blow-up
        guard; a blow-up has F >= 0, so it is on the undershoot side. A
        non-positive series slope c1 means G turns negative immediately:
        that is the undershoot side, no integration needed. A run that
        reaches x_max undecided extends it by 1.5x (truncation, not
        dynamics) and the larger window is kept for subsequent trials.
        After an f_cross halt, x_cross holds the radius where F crossed
        zero, interpolated linearly between the last two states.
        """
        opts = self.opts
        start = series_start(F0, self.Omega, opts.x0)
        if F0 == 0.0:
            return Outcome.DECAYED, "decay"
        if start.G <= 0.0:
            return Outcome.DIVERGED_UP, "series"
        guard = opts.blowup_factor * max(abs(F0), 1e-12)
        floor = opts.decay_floor
        for _ in range(opts.max_x_extensions + 1):
            nodes = self.nodes if clamped else [self.nodes[0], self.nodes[-1]]
            states = chain(((nodes[0], start.F, start.G),),
                           _march(self.Omega, nodes, start.F, start.G, rtol,
                                  every_step=not clamped))
            xp = Fp = None
            for x, F, G in states:
                if abs(F) < floor and abs(G) < floor:
                    return Outcome.DECAYED, "decay"
                if F < 0.0:
                    # F's zero between the last two states (Fp >= 0 > F)
                    self.x_cross = x if xp is None else xp + (x - xp) * Fp / (Fp - F)
                    return Outcome.DIVERGED_DOWN, "f_cross"
                if G < 0.0:
                    return Outcome.DIVERGED_UP, "g_cross"
                if abs(F) > guard or abs(G) > guard:
                    return Outcome.DIVERGED_UP, "blowup"
                xp, Fp = x, F
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


# The float-level classification is monotone in F0 except in a band around F*
# at most 6 ulps wide (mapped at 63 Omega in [0.02, 0.98]). A real trial thus
# fixes bisection's outcome beyond it: every F0 _BAND_ULPS ulps or more below
# an undershoot is diverged_up, above an overshoot diverged_down.
_BAND_ULPS = 12
# most trials of the estimate phase before shoot falls back to plain bisection
_MAX_ESTIMATE_STEPS = 60


def _bisect(history, opts: SolverOptions, classify) -> ShootingResult:
    """Bisection from history's first two entries (F0, label), one diverged_up
    and one diverged_down: take the midpoint; stop at adjacent floats, a
    decayed midpoint or max_iterations; move the end on the midpoint's side.
    Recorded entries must sit at the predicted midpoints (ValueError), later
    midpoints are classify(mid) -> Outcome. ConvergenceError if the final
    bracket is wider than shoot_tol * max(1, F0).
    """
    history = [(f0, Outcome(label).value) for f0, label in history]
    up, down = Outcome.DIVERGED_UP.value, Outcome.DIVERGED_DOWN.value
    if sorted(label for _, label in history[:2]) != [down, up]:
        raise ValueError("a shooting history starts with one diverged_up and "
                         "one diverged_down entry")
    (lo, label), (hi, _) = history[:2]
    if label == down:
        lo, hi = hi, lo  # keep lo on the undershoot side
    k, n_iter = 2, 0
    for n_iter in range(1, opts.max_iterations + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if k == len(history):
            history.append((mid, classify(mid).value))
        if history[k][0] != mid:
            raise ValueError(f"shooting history entry {k} is not bisection's midpoint {mid!r}")
        label = history[k][1]
        k += 1
        if label == Outcome.DECAYED.value:
            lo = hi = mid
            break
        if label == up:
            lo = mid
        else:
            hi = mid
    if k != len(history):
        raise ValueError(f"shooting history runs {len(history) - k} entries past its end")
    F0 = 0.5 * (lo + hi)
    width = abs(hi - lo)
    if not width <= opts.shoot_tol * max(1.0, abs(F0)):
        raise ConvergenceError(f"bisection stalled with bracket width {width:.3e}")
    return ShootingResult(F0=F0, bracket=(min(lo, hi), max(lo, hi)), n_iterations=n_iter,
                          classification_history=tuple(history))


def _verified_window(sh: _Shooter, lo: float, hi: float, x_hi: float, opts: SolverOptions):
    """(a, c, memo): every F0 <= a classifies diverged_up and every F0 >= c
    diverged_down, and memo holds the outcomes {F0: Outcome} of the trials
    run to find them; or None.

    lo < hi are the bracket's undershoot and overshoot ends, x_hi the radius
    of hi's F crossing. An overshoot at F0 > F* crosses zero at x_h with
    2*nu*x_h + ln(F0 - F*) nearly constant, so the two best f_cross
    overshoots b < b2 estimate F* = b - (b2 - b) / expm1(2*nu*(x_b - x_b2)).
    Bisection's own midpoints run until two overshoots are known; then each
    trial is at F*_est + q*(b - F*_est), where q starts at 1e-2, grows
    tenfold after an undershoot (to at most 0.5) and shrinks tenfold after an
    overshoot (to at least 1e-6). Once that step is B = _BAND_ULPS ulps or
    less, trials go to bisection's predicted midpoint nearest F*_est + B,
    and once b is within 2B ulps of F*_est to the one nearest F*_est - B,
    so that the replay reuses them. When the best undershoot lo and
    overshoot b are within 4B ulps, a = lo - B ulps and c = b + B ulps: the
    two real trials fix both, whatever the estimate's error. An x_max
    extension, a decayed trial or more than _MAX_ESTIMATE_STEPS trials give
    None.
    """
    nodes = sh.nodes
    ends = ((lo, Outcome.DIVERGED_UP), (hi, Outcome.DIVERGED_DOWN))
    memo = {}
    overs = [(hi, x_hi)]  # f_cross overshoots, best (smallest F0) last
    q = 1e-2

    def run(F0):
        if F0 not in memo:
            memo[F0] = sh.trial(F0, opts.final_rtol, clamped=True)[0]
        return memo[F0]

    def nearest_midpoint(target, est):
        # the untried midpoint on target's side of est that is nearest to it,
        # on the walk the trials so far and est predict for bisection
        def predict(mid):
            return memo.get(mid, Outcome.DIVERGED_UP if mid < est else Outcome.DIVERGED_DOWN)
        path = _bisect(ends, opts, predict).classification_history[2:]
        side = [m for m, _ in path if lo < m < b and (m < est) == (target < est)]
        return min(side, key=lambda m: abs(m - target), default=target)

    for _ in range(_MAX_ESTIMATE_STEPS):
        b, x_b = overs[-1]
        band = _BAND_ULPS * math.ulp(b)
        if b - lo <= 4.0 * band:
            return lo - band, b + band, memo
        if len(overs) < 2:
            F0 = 0.5 * (lo + b)  # bisection's own midpoint
        else:
            b2, x_b2 = overs[-2]
            d = math.expm1(2.0 * sh.nu * (x_b - x_b2))
            est = max(b - (b2 - b) / d, lo) if d > 0.0 else lo
            if b - est <= 2.0 * band:
                F0 = nearest_midpoint(est - band, est)
            elif q * (b - est) <= band:
                F0 = nearest_midpoint(est + band, est)
            else:
                F0 = est + q * (b - est)
            if not lo < F0 < b:
                F0 = 0.5 * (lo + b)
        out = run(F0)
        if out is Outcome.DECAYED or sh.nodes is not nodes:
            return None
        if out is Outcome.DIVERGED_UP:
            lo, q = F0, min(10.0 * q, 0.5)
        else:
            overs.append((F0, sh.x_cross))
            if len(overs) > 2:
                q = max(q / 10.0, 1e-6)
    return None


def shoot(Omega: float, bracket0: tuple, shoot_tol: float = 1e-12,
          opts: Optional[SolverOptions] = None,
          shooter: Optional[_Shooter] = None) -> ShootingResult:
    """Bisect the shooting amplitude between opposite classifications.

    Bisection continues to float exhaustion (adjacent representable values),
    which minimizes contamination of the far tail by the unstable mode; the
    shoot_tol contract (bracket width <= opts.shoot_tol * max(1, F0)) is
    then met with large margin. The shoot_tol keyword only builds the default
    options when opts is None.

    Estimate-then-replay: _verified_window first locates F* from the halt
    radii of overshoot trials and brackets it by an undershoot and an
    overshoot trial within 4*_BAND_ULPS ulps, which yield a window (a, c)
    _BAND_ULPS ulps wider. The result is bisection's walk (_bisect) from the
    two bracket entries, which classifies a midpoint <= a as diverged_up and
    one >= c as diverged_down, as bisection's trial there would, and runs a
    trial only at a midpoint inside (a, c) that the estimate has not tried.
    At float level the classification is not monotone in a band of a few
    ulps around F*, so any root finder that leaves bisection's path can stop
    at another adjacent pair; walking the path keeps F0, the bracket,
    n_iterations, the classification history and x_max exactly bisection's,
    at about a third of the trials. Without a window (no estimate, or one
    that raised) the mesh is restored to its state before the estimate and
    every midpoint runs a trial.
    """
    opts = opts or SolverOptions(shoot_tol=shoot_tol)
    sh = shooter or _Shooter(Omega, opts)
    rtol = opts.final_rtol
    lo, hi = float(bracket0[0]), float(bracket0[1])
    out_lo = sh.trial(lo, rtol, clamped=True)[0]
    out_hi = sh.trial(hi, rtol, clamped=True)[0]
    if {out_lo, out_hi} != {Outcome.DIVERGED_UP, Outcome.DIVERGED_DOWN}:
        raise BracketError(
            f"bracket endpoints classify as {out_lo.value}/{out_hi.value}, "
            "need one diverged_up and one diverged_down")
    ends = ((lo, out_lo), (hi, out_hi))
    if out_lo is Outcome.DIVERGED_DOWN:
        lo, hi = hi, lo  # the estimate takes the undershoot end first
    nodes = sh.nodes
    try:
        # x_cross is the overshoot end's: the undershoot end's trial leaves it
        window = _verified_window(sh, lo, hi, sh.x_cross, opts) if lo < hi else None
    except (ConvergenceError, IntegrationError, DomainError):
        window = None
    if window is None:
        sh.nodes = nodes  # x_max stays bisection's: undo the estimate's extensions
    a, c, memo = window or (-math.inf, math.inf, {})

    def classify(mid):
        if a < mid < c:
            return memo[mid] if mid in memo else sh.trial(mid, rtol, clamped=True)[0]
        return Outcome.DIVERGED_UP if mid <= a else Outcome.DIVERGED_DOWN

    return _bisect(ends, opts, classify)


def replay_bisection(history, opts: SolverOptions) -> ShootingResult:
    """The ShootingResult that shoot returns for a classification history:
    shoot's walk (_bisect) over the recorded entries, with a ValueError for
    a history off bisection's path or one that ends before it stops."""
    history = tuple(history)

    def refuse(mid):
        raise ValueError(f"shooting history entry {len(history)} is not "
                         f"bisection's midpoint {mid!r}")

    return _bisect(history, opts, refuse)


def _final_profile(Omega: float, F0: float, mesh: np.ndarray, opts: SolverOptions):
    """Final integration clamped to the mesh plus analytic tail continuation."""
    nu, B = math.sqrt(1.0 - Omega * Omega), 1.0 + Omega
    n = mesh.size
    thresh = opts.glue_frac * F0
    start = series_start(F0, Omega, opts.x0)
    states = chain(((float(mesh[0]), start.F, start.G),),
                   _march(Omega, map(float, mesh), start.F, start.G, opts.final_rtol))
    Fs, Gs = [], []
    reason = "end"
    for x, Fx, Gx in states:
        Fs.append(Fx)
        Gs.append(Gx)
        # sign test first: a crossing below the threshold is not a glue point
        if Fx < 0.0 or Gx < 0.0:
            reason = "cross"
            break
        if Fx <= thresh:
            reason = "glue"
            break
    if reason != "glue":
        raise TailError(
            f"final integration halted by '{reason}' before reaching the glue "
            f"threshold (x = {x:.2f}); x_max may be too small")
    k_glue = len(Fs) - 1
    if k_glue < 10:
        # the tail fit below takes at least 11 integrated nodes
        raise TailError(
            f"final integration reached the glue threshold at node {k_glue} "
            f"(x = {x:.2f}); the tail fit needs 11 nodes, mesh_dx may be too coarse")
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

    dF, dG = _rhs(mesh, F, G, Omega)

    tail = TailFit(A=A_fit, nu_fit=nu_fit, x_glue=xg, fit_x_lo=float(xi[i0]))
    profile = RadialProfile(grid=mesh, F=F, G=G, dF=dF, dG=dG, tail=tail)
    res, scale = _midpoint_residual(profile, Omega)
    report = ResidualReport(max_midpoint_residual=res, residual_scale=scale,
                            nu_rel_dev=abs(nu_fit - nu) / nu)
    return profile, report


def _midpoint_residual(profile: RadialProfile, Omega: float):
    """Max-norm equation residual at mesh midpoints, relative to max|dF|,|dG|.

    Uses cubic-Hermite midpoint values and the superconvergent Hermite
    midpoint derivative (fourth-order accurate), so for accurately integrated
    data the residual reflects solve quality rather than differencing error.
    """
    x, F, G, dF, dG = profile.grid, profile.F, profile.G, profile.dF, profile.dG
    scale = max(float(np.max(np.abs(dF))), float(np.max(np.abs(dG))), 1e-300)
    h = np.diff(x)
    q, t = 0.125 * h, np.empty_like(h)
    # each midpoint value and derivative in place, operation for operation as
    # 0.5 (Y0 + Y1) + 0.125 h (dY0 - dY1) and 1.5 (Y1 - Y0) / h - 0.25 (dY0 + dY1)
    mid = []
    for Y, dY in ((F, dF), (G, dG)):
        v = np.add(Y[:-1], Y[1:])
        v *= 0.5
        v += np.multiply(q, np.subtract(dY[:-1], dY[1:], out=t), out=t)
        d = np.subtract(Y[1:], Y[:-1])
        d *= 1.5
        d /= h
        d -= np.multiply(np.add(dY[:-1], dY[1:], out=t), 0.25, out=t)
        mid.append((v, d))
    del q, t
    (Fm, dFm), (Gm, dGm) = mid
    h *= 0.5
    h += x[:-1]  # the midpoints, x0 + 0.5 h
    res = []
    for dYm, ym in zip((dFm, dGm), _rhs(h, Fm, Gm, Omega)):
        dYm -= ym
        res.append(float(np.max(np.abs(dYm, out=dYm))))
    return max(res) / scale, scale


def solution_from_shooting(Omega: float, shooting: ShootingResult, opts: SolverOptions,
                           x_max_used: float) -> SolitonSolution:
    """The one way a SolitonSolution is built: the final pass at shooting.F0
    on the trials' mesh that ends at x_max_used, which must be one of the
    x_max ratchet's ends (ValueError otherwise). A final pass
    that misses the glue threshold, or a fitted tail exponent more than 5%
    from sqrt(1 - Omega^2), raises TailError; a midpoint residual above
    residual_tol raises ConvergenceError. Both guards reject NaN.
    """
    mesh = _build_mesh(opts.x0, opts.mesh_dx, ratchet_nodes(Omega, opts, x_max_used))
    profile, report = _final_profile(Omega, shooting.F0, mesh, opts)
    if not report.nu_rel_dev <= 0.05:
        raise TailError(f"nu_fit = {profile.tail.nu_fit:.6f} deviates "
                        f"{report.nu_rel_dev:.1%} from sqrt(1 - Omega^2)")
    if not report.max_midpoint_residual <= opts.residual_tol:
        raise ConvergenceError(f"midpoint residual {report.max_midpoint_residual:.3e} "
                               f"exceeds {opts.residual_tol:.1e}")
    provenance = {"code_version": __version__, "options": asdict(opts),
                  "x_max_used": float(mesh[-1])}
    return SolitonSolution(Omega=Omega, profile=profile, shooting=shooting,
                           residuals=report, provenance=provenance)


def solve_ground(Omega: float, opts: Optional[SolverOptions] = None) -> SolitonSolution:
    """End-to-end ground-state solve: scan, bisect, solution_from_shooting.
    Nothing is retried: trials already lengthen x_max on indeterminate runs."""
    opts = opts or SolverOptions()
    sh = _Shooter(Omega, opts)
    shooting = shoot(Omega, coarse_scan(Omega, opts, shooter=sh), opts=opts, shooter=sh)
    return solution_from_shooting(Omega, shooting, opts, sh.x_max)
