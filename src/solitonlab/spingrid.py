"""Cartesian-grid sampling of the spin-basis 4-spinors and J operators.

The two basis solitons are sampled on a cube and the total angular momentum
J = -i(r x grad) + Sigma/2 is applied with second-order central differences
(second-order one-sided ones on the faces). This validates, independently of
any algebra, that the sampled fields obey the spin-1/2 ladder relations and
carry J_3 = +-1/2.

Component layout of the 4-spinor (upper 2-spinor, lower 2-spinor):

    phi_up = (f, 0, i g z/r, i g (x+iy)/r) / sqrt(4 pi)
    phi_dn = (0, f, i g (x-iy)/r, -i g z/r) / sqrt(4 pi)

Every component of both spinors is a fixed complex combination of four real
fields, f, g x/r, g y/r and g z/r, so the grid work is real: the four fields
and their twelve gradients are sampled once and shared by both spinors, and
-i(r x grad) acts through the real operators D1 = y dz - z dy,
D2 = z dx - x dz and D3 = x dy - y dx. The complex coefficients of every
spinor and ladder residual on these sixteen real "atoms" are constant tables.

The cube is streamed in slabs of _SLAB x-planes, each sampled with a one-plane
halo on either side so that every stencil is the full grid's; only float sums
cross slab boundaries, so memory is O(n^2 * _SLAB), not O(n^3).

The grid is node-centered with an even point count, so the coordinate origin
(where z/r is undefined) is never sampled.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import GridError

__all__ = ["GridSpec", "LadderReport", "ladder_residuals", "sz_grid_integral"]

# x-planes per slab; even like n, so that every slab with its halo spans >= 3
# planes and the one-sided face stencil (edge_order=2) is the full grid's
_SLAB = 4


@dataclass(frozen=True)
class GridSpec:
    n: int = 64
    extent: float = 12.0  # half-width of the cube in units of ell0

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 4):
            raise GridError(f"grid point count must be an integer >= 4, got {self.n!r}")
        if self.n % 2:
            raise GridError("grid point count must be even to exclude the origin")
        if not (self.extent > 0.0 and math.isfinite(self.extent)):
            raise GridError(f"grid extent must be finite and > 0, got {self.extent!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n - 1)


@dataclass(frozen=True)
class LadderReport:
    """Relative grid L2 residuals of the six ladder relations."""
    jplus_up: float      # J+ phi_up = 0
    j3_up: float         # J3 phi_up = +phi_up/2
    jminus_up: float     # J- phi_up = phi_dn
    jminus_dn: float     # J- phi_dn = 0
    j3_dn: float         # J3 phi_dn = -phi_dn/2
    jplus_dn: float      # J+ phi_dn = phi_up
    grid_spec: GridSpec

    def as_dict(self) -> dict:
        return {
            "jplus_up": self.jplus_up, "j3_up": self.j3_up,
            "jminus_up": self.jminus_up, "jminus_dn": self.jminus_dn,
            "j3_dn": self.j3_dn, "jplus_dn": self.jplus_dn,
        }

    @property
    def max_residual(self) -> float:
        return max(self.as_dict().values())


# Rows: the four components of a spinor; columns: complex coefficients on the
# real fields (f, g x/r, g y/r, g z/r), 1/sqrt(4 pi) included in the fields.
_UP = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1j], [0, 1j, -1, 0]])
_DN = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [0, 1j, 1, 0], [0, 0, 0, -1j]])
# L = sum_k alpha_k D_k: L_3 = -i D3 and L_+- = L_1 +- i L_2 = -i D1 +- D2
_ALPHA = {"3": (0, 0, -1j), "+": (-1j, 1, 0), "-": (-1j, -1, 0)}
# the 2x2 block through which Sigma/2 enters J_3, J_+ and J_-
_SIGMA = {"3": [[0.5, 0], [0, -0.5]], "+": [[0, 1], [0, 0]], "-": [[0, 0], [1, 0]]}


def _plain(phi):
    """phi itself as coefficients on the 16 atoms (fields, D1, D2, D3 of fields)."""
    return np.hstack([phi, np.zeros((4, 12))])


def _j(phi, which: str):
    """Coefficients of J phi on the 16 atoms; Sigma acts blockwise as sigma."""
    spin = np.kron(np.eye(2), _SIGMA[which]) @ phi
    return np.hstack([spin] + [alpha * phi for alpha in _ALPHA[which]])


def _real_rows(coef):
    """Rows giving the real, then the imaginary parts of the four components."""
    return np.vstack([coef.real, coef.imag])


# The eight spinor-valued quantities whose squared grid norms are accumulated:
# the two basis spinors, then the six ladder residuals J phi - target.
_LADDER = np.stack([_real_rows(c) for c in (
    _plain(_UP),
    _plain(_DN),
    _j(_UP, "+"),
    _j(_UP, "3") - _plain(0.5 * _UP),
    _j(_UP, "-") - _plain(_DN),
    _j(_DN, "-"),
    _j(_DN, "3") + _plain(0.5 * _DN),
    _j(_DN, "+") - _plain(_UP),
)])
_SZ_UP, _SZ_J3UP = _real_rows(_plain(_UP)), _real_rows(_j(_UP, "3"))


def _radial_splines(solution):
    """Cubic splines of F and G anchored at the origin (F flat, G linear)."""
    p = solution.profile
    x = np.concatenate([[0.0], p.grid])
    F = np.concatenate([[p.F[0]], p.F])
    G = np.concatenate([[0.0], p.G])
    return CubicSpline(x, F), CubicSpline(x, G)


def _slabs(solution, spec: GridSpec):
    """Yield (atoms, weights) slab by slab: the 16 real atoms as (16, points)
    and the matching 3-D trapezoid weights as (points,)."""
    ax = np.linspace(-spec.extent, spec.extent, spec.n)
    corner = math.sqrt(3.0) * ax[-1]
    if corner > solution.profile.x_max:
        # spline extrapolation beyond the stored grid is not trustworthy
        raise GridError(
            f"grid corner radius {corner:.1f} exceeds profile x_max "
            f"{solution.profile.x_max:.1f}")
    fs, gs = _radial_splines(solution)
    h = ax[1] - ax[0]
    w1 = np.full(spec.n, h)
    w1[0] = w1[-1] = 0.5 * h  # trapezoid end weights
    pre = 1.0 / math.sqrt(4.0 * math.pi)
    Y, Z = ax[None, :, None], ax[None, None, :]
    for i0 in range(0, spec.n, _SLAB):
        i1 = min(i0 + _SLAB, spec.n)
        lo, hi = max(i0 - 1, 0), min(i1 + 1, spec.n)  # with the halo planes
        X = ax[lo:hi, None, None]
        R = np.sqrt(X * X + Y * Y + Z * Z)
        g_over_r = pre * gs(R) / R
        fields = (pre * fs(R), g_over_r * X, g_over_r * Y, g_over_r * Z)
        core = slice(i0 - lo, i1 - lo)
        X = X[core]
        atoms = np.empty((4, 4, i1 - i0, spec.n, spec.n))  # (atom kind, field, ...)
        for j, c in enumerate(fields):
            dx = np.gradient(c, h, axis=0, edge_order=2)[core]
            dy, dz = np.gradient(c[core], h, axis=(1, 2), edge_order=2)
            atoms[:, j] = c[core], Y * dz - Z * dy, Z * dx - X * dz, X * dy - Y * dx
        w = w1[i0:i1, None, None] * w1[None, :, None] * w1[None, None, :]
        yield atoms.reshape(16, -1), w.ravel()


def ladder_residuals(solution, spec: GridSpec) -> LadderReport:
    """Grid L2 residuals of all six ladder relations.

    The cube is streamed in slabs in real arithmetic: per slab, 12 real
    gradients are taken once and shared by both spinors and all six
    relations, and only the weighted squared sums are kept; the square roots
    are taken at the end. Peak memory is O(n^2 * _SLAB), about 50 MB of
    arrays at n = 128.
    """
    rows = _LADDER.reshape(-1, 16)
    sums = np.zeros(len(_LADDER))
    for atoms, w in _slabs(solution, spec):
        r = rows @ atoms
        r *= r
        sums += (r @ w).reshape(len(_LADDER), -1).sum(axis=1)
        del r  # free the slab's rows before the next slab is sampled
    n_up, n_dn, *res = [math.sqrt(s) for s in sums]
    return LadderReport(
        jplus_up=res[0] / n_up, j3_up=res[1] / n_up, jminus_up=res[2] / n_dn,
        jminus_dn=res[3] / n_dn, j3_dn=res[4] / n_dn, jplus_dn=res[5] / n_up,
        grid_spec=spec,
    )


def sz_grid_integral(solution, spec: GridSpec) -> float:
    """Dimensionless grid integral of phi_up^+ J_3 phi_up (converges to Q/2)."""
    total = 0.0
    for atoms, w in _slabs(solution, spec):
        total += float(np.sum((_SZ_UP @ atoms) * (_SZ_J3UP @ atoms), axis=0) @ w)
    return total
