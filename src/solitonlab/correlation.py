"""Entangled two-soliton singlet, spin-correlation algebra and CHSH.

The two spin-basis solitons span a two-dimensional space on which the doubled
angular momentum 2(J.a) acts exactly as the Pauli matrix sigma.a (shown by
the ladder relations, and validated on a 3-D grid by ladder_check_grid). The
correlation operator for the product state therefore factorizes into a
4-dimensional spin-space computation times the squared radial norm, which is
where the engine is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, GridError
from .spingrid import GridSpec, LadderReport, ladder_residuals

__all__ = [
    "EntangledPair", "CorrelationReport", "build_singlet", "pauli_dot",
    "epr_correlation", "pair_correlation_fn", "chsh", "chsh_optimize",
    "chsh_local_strategies", "ladder_check_grid", "unit_vector",
]

UNIT_TOL = 1e-6


@dataclass(frozen=True)
class EntangledPair:
    """Two-particle state over the product basis (uu, ud, du, dd).

    Construction raises DomainError unless there are four finite amplitudes
    and the radial norm is finite and > 0.
    """
    amplitudes: tuple
    radial_norm_per_particle: float

    def __post_init__(self):
        # NaN-safe: each test is written so that NaN fails it
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not (amps.shape == (4,) and np.isfinite(amps).all()):
            raise DomainError(f"a pair needs four finite amplitudes, got {self.amplitudes!r}")
        if not 0.0 < self.radial_norm_per_particle < math.inf:
            raise DomainError(f"radial_norm_per_particle must be finite and > 0, "
                              f"got {self.radial_norm_per_particle!r}")

    @property
    def two_particle_norm(self) -> float:
        amp2 = sum(abs(a) ** 2 for a in self.amplitudes)
        return amp2 * self.radial_norm_per_particle ** 2


@dataclass(frozen=True)
class CorrelationReport:
    a: tuple
    b: tuple
    P_exact: float


def unit_vector(a) -> np.ndarray:
    """Validate a Cartesian analyzer direction; normalize within 1e-6 of unit.

    Silent normalization of grossly non-unit vectors would mask caller bugs,
    so anything farther than 1e-6 from unit length is rejected.
    """
    v = np.asarray(a, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"analyzer direction must be finite, got {a!r}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise DomainError(
            f"analyzer direction has length {norm:.8f}, more than {UNIT_TOL:g} from 1")
    return v / norm


def build_singlet(radial_norm: float) -> EntangledPair:
    """Antisymmetric zero-spin combination of the two basis solitons."""
    s = 1.0 / math.sqrt(2.0)
    return EntangledPair(amplitudes=(0.0 + 0.0j, s + 0.0j, -s + 0.0j, 0.0 + 0.0j),
                         radial_norm_per_particle=radial_norm)


def pauli_dot(a) -> np.ndarray:
    """sigma . a as a 2x2 complex matrix, one for each direction of a (3,) or
    (..., 3) array: the action of 2(J.a) on the coefficients over the two
    basis solitons, phi_up -> a3 phi_up + (a1+ia2) phi_dn and
    phi_dn -> (a1-ia2) phi_up - a3 phi_dn."""
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = a[..., 2]
    out[..., 0, 1] = a[..., 0] - 1j * a[..., 1]
    out[..., 1, 0] = a[..., 0] + 1j * a[..., 1]
    out[..., 1, 1] = -a[..., 2]
    return out


def _scale(pair: EntangledPair, hbar: float) -> float:
    """(radial norm / hbar)^2; DomainError unless hbar is finite and > 0."""
    if not 0.0 < hbar < math.inf:
        raise DomainError(f"hbar must be finite and > 0, got {hbar}")
    return (pair.radial_norm_per_particle / hbar) ** 2


def epr_correlation(pair: EntangledPair, a, b, hbar: float = 1.0) -> CorrelationReport:
    """Exact spin correlation <2(J1.a) x 2(J2.b)> for the two-particle state.

    The spin-space expectation is multiplied by (radial norm / hbar)^2; with
    the calibrated norm the singlet gives exactly -(a.b). DomainError unless
    hbar is finite and > 0.
    """
    scale = _scale(pair, hbar)
    av = unit_vector(a)
    bv = unit_vector(b)
    amps = np.asarray(pair.amplitudes, dtype=complex).reshape(2, 2)
    op_amps = pauli_dot(av) @ amps @ pauli_dot(bv).T
    val = complex(np.sum(amps.conj() * op_amps))
    if not abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)):
        raise DomainError(f"correlation has spurious imaginary part {val.imag:.3e}")
    return CorrelationReport(a=tuple(av), b=tuple(bv), P_exact=val.real * scale)


def pair_correlation_fn(pair: EntangledPair, hbar: float = 1.0) -> Callable:
    """Vectorized correlation closure fn(a, b) for batched unit directions.

    Accepts (3,) or (n, 3) arrays, assumed unit length (no validation, so
    large batches stay cheap). DomainError unless hbar is finite and > 0.
    """
    amps = np.asarray(pair.amplitudes, dtype=complex).reshape(2, 2)
    scale = _scale(pair, hbar)

    def fn(a, b):
        sa = pauli_dot(np.atleast_2d(a))
        sb = pauli_dot(np.atleast_2d(b))
        val = np.einsum("ik,nij,nkl,jl->n", amps.conj(), sa, sb, amps).real * scale
        return val if val.size > 1 else float(val[0])

    return fn


def chsh(a, a_prime, b, b_prime, correlation_fn: Callable) -> float:
    """S = |P(a,b) - P(a,b')| + |P(a',b) + P(a',b')|."""
    return (abs(correlation_fn(a, b) - correlation_fn(a, b_prime))
            + abs(correlation_fn(a_prime, b) + correlation_fn(a_prime, b_prime)))


# non-axis pairs, neither parallel nor orthogonal, on which a bilinear
# correlation must equal a^T T b
_BILINEAR_PROBES = [(np.array(a) / np.linalg.norm(a), np.array(b) / np.linalg.norm(b))
                    for a, b in [((1.0, 1.0, 1.0), (1.0, -2.0, 3.0)),
                                 ((2.0, -1.0, 1.0), (1.0, 3.0, 2.0)),
                                 ((-1.0, 2.0, 2.0), (3.0, 1.0, -1.0))]]


def chsh_optimize(correlation_fn: Callable):
    """Maximal S over all analyzer directions, in closed form.

    A bilinear correlation P(a, b) = a^T T b reaches
    S_max = 2*sqrt(s1^2 + s2^2) from the two largest singular values of the
    3x3 correlation matrix T (Horodecki, Horodecki & Horodecki, Phys. Lett. A
    200, 340 (1995)). T is probed on the axis pairs; a correlation_fn that is
    not bilinear raises DomainError. With T = U diag(s) V^T the optimum is
    b, b' = cos(phi) v1 +- sin(phi) v2 at phi = atan2(s2, s1), a = u2 and
    a' = u1 (parallel to T(b - b') and T(b + b')); singular vectors are unit
    even where T is rank-deficient. Returns ((a, a', b, b'), S_max).
    """
    axes = np.eye(3)
    T = np.array([[float(correlation_fn(ei, ej)) for ej in axes] for ei in axes])
    scale = max(1.0, float(np.max(np.abs(T))))
    for a, b in _BILINEAR_PROBES:
        got = float(correlation_fn(a, b))
        if not abs(got - a @ T @ b) <= 1e-9 * scale:
            raise DomainError(
                f"correlation is not bilinear: P(a, b) = {got!r} but a^T T b = {a @ T @ b!r}")
    u, s, vt = np.linalg.svd(T)
    phi = math.atan2(s[1], s[0])
    b = math.cos(phi) * vt[0] + math.sin(phi) * vt[1]
    b_prime = math.cos(phi) * vt[0] - math.sin(phi) * vt[1]
    return (u[:, 1], u[:, 0], b, b_prime), 2.0 * math.hypot(s[0], s[1])


def chsh_local_strategies() -> list:
    """S values of all 16 deterministic local strategies (each <= 2).

    A deterministic local model assigns fixed outcomes +-1 per analyzer
    setting; P(x, y) = A(x)B(y) then bounds S by 2 for every assignment.
    """
    values = []
    for a1, a2, b1, b2 in product((-1, 1), repeat=4):
        values.append(abs(a1 * b1 - a1 * b2) + abs(a2 * b1 + a2 * b2))
    return values


def ladder_check_grid(solution, tol: float = 0.02,
                      grid: Optional[GridSpec] = None) -> LadderReport:
    """Validate the six ladder relations on a 3-D grid.

    Central differences converge quadratically, so halving the spacing must
    shrink every residual about fourfold; at the 64^3 default all residuals
    stay below 2%. DomainError unless tol is finite and > 0, checked before
    any grid work.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    spec = grid or GridSpec(n=64, extent=10.0)
    report = ladder_residuals(solution, spec)
    if not report.max_residual <= tol:
        failing = {k: v for k, v in report.as_dict().items() if not v <= tol}
        raise GridError(f"ladder residuals {failing} exceed {tol} at n = {spec.n}")
    return report
