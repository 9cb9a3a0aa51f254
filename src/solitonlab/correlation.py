"""Entangled two-soliton singlet, spin-correlation algebra and CHSH.

The two spin-basis solitons span a two-dimensional space on which the doubled
angular momentum 2(J.a) acts exactly as the Pauli matrix sigma.a (shown by
the ladder relations, and validated on a 3-D grid by ladder_check_grid). The
correlation of the product state therefore factorizes into a real 3x3 tensor
T of the 4-dimensional spin state times r^2, r = norm / hbar, where the
engine is exact, and every correlation is its bilinear form P(a, b) = a^T T b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, GridError, _require_positive
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

    radial_norm_per_particle is the dimensionless r = norm / hbar, 1 to
    rounding for a calibrated solution. Construction raises DomainError
    unless there are four finite amplitudes and r is finite and > 0.
    """
    amplitudes: tuple
    radial_norm_per_particle: float

    def __post_init__(self):
        # NaN-safe: each test is written so that NaN fails it
        amps = np.asarray(self.amplitudes, dtype=complex)
        if not (amps.shape == (4,) and np.isfinite(amps).all()):
            raise DomainError(f"a pair needs four finite amplitudes, got {self.amplitudes!r}")
        _require_positive("radial_norm_per_particle", self.radial_norm_per_particle)

    @property
    def two_particle_norm(self) -> float:
        # products, not **: an overflow gives inf, not OverflowError
        amp2 = sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes)
        return amp2 * (self.radial_norm_per_particle * self.radial_norm_per_particle)


@dataclass(frozen=True)
class CorrelationReport:
    a: tuple
    b: tuple
    P_exact: float


def unit_vector(a) -> np.ndarray:
    """Validate a Cartesian analyzer direction; normalize within 1e-6 of unit.

    Silent normalization of grossly non-unit vectors would mask caller bugs,
    so anything but three finite numbers within 1e-6 of unit length is rejected.
    """
    try:
        v = np.asarray(a, dtype=float).reshape(3)
    except (TypeError, ValueError):
        raise DomainError(f"analyzer direction must be three numbers, got {a!r}")
    with np.errstate(over="ignore"):  # a NaN, inf or overflowing norm fails the test below
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


def _tensor(pair: EntangledPair) -> np.ndarray:
    """T_kl = Re<psi|sigma_k x sigma_l|psi> r*r, r the pair's radial norm: the
    sum over s, t of conj(m[s, t]) (sigma_k m sigma_l^T)[s, t], the amplitudes
    as the 2x2 matrix m. DomainError unless T is finite."""
    m = np.asarray(pair.amplitudes, dtype=complex).reshape(2, 2)
    sigma = pauli_dot(np.eye(3))
    r = pair.radial_norm_per_particle
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        T = np.einsum("st,ksa,ab,ltb->kl", m.conj(), sigma, m, sigma).real * (r * r)
    if not np.isfinite(T).all():
        raise DomainError(f"correlation tensor of {pair!r} is not finite")
    return T


def epr_correlation(pair: EntangledPair, a, b) -> CorrelationReport:
    """Exact spin correlation <2(J1.a) x 2(J2.b)> = a^T T b for the pair.

    T carries the factor r^2; with the calibrated r = 1 the singlet gives
    -(a.b) to rounding. DomainError unless T is finite.
    """
    T = _tensor(pair)
    av = unit_vector(a)
    bv = unit_vector(b)
    return CorrelationReport(a=tuple(av), b=tuple(bv), P_exact=float(av @ T @ bv))


def pair_correlation_fn(pair: EntangledPair) -> Callable:
    """Vectorized correlation closure fn(a, b) = a^T T b for batched unit directions.

    Accepts (3,) or (n, 3) arrays, assumed unit length (no validation, so
    large batches stay cheap). DomainError as epr_correlation.
    """
    T = _tensor(pair)

    def fn(a, b):
        val = np.einsum("ni,ij,nj->n", np.atleast_2d(a), T, np.atleast_2d(b))
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
    _require_positive("tol", tol)
    spec = grid or GridSpec(n=64, extent=10.0)
    report = ladder_residuals(solution, spec)
    if not report.max_residual <= tol:
        failing = {k: v for k, v in report.as_dict().items() if not v <= tol}
        raise GridError(f"ladder residuals {failing} exceed {tol} at n = {spec.n}")
    return report
