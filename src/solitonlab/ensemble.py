"""Stochastic ensemble of phase-randomized singlet configurations.

Each trial carries one overall random U(1) phase on the whole two-soliton
configuration (a per-particle relative phase would break the singlet). The
N-trial superposition Psi_N = (hbar^2 N)^{-1/2} sum_j e^{i theta_j} phi_12
gives a correlation (1/N)|sum_j e^{i theta_j}|^2 * P_exact whose expectation
over phases is P_exact, but whose fluctuations do not self-average in N: the
phase average is therefore estimated over R independent realizations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import EntangledPair, epr_correlation
from .errors import DomainError

__all__ = ["EnsembleSpec", "EnsembleEstimate", "draw_phases",
           "realization_estimate", "ensemble_estimate"]

_MASK64 = (1 << 64) - 1
# most trials per realization, and most realizations (a float64 array each)
_MAX_DRAWS = 10_000_000


@dataclass(frozen=True)
class EnsembleSpec:
    n_trials: int
    realizations: int
    seed: int
    a: tuple = (0.0, 0.0, 1.0)
    b: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not 1 <= self.n_trials <= _MAX_DRAWS:
            raise DomainError(f"n_trials must lie in [1, {_MAX_DRAWS}], got {self.n_trials}")
        if not 2 <= self.realizations <= _MAX_DRAWS:
            # a standard error needs two samples
            raise DomainError(f"realizations must lie in [2, {_MAX_DRAWS}], "
                              f"got {self.realizations}")


@dataclass(frozen=True)
class EnsembleEstimate:
    mean: float
    stderr: float
    per_realization: tuple
    seed_used: int


def draw_phases(seed: int, realization_index: int, n: int) -> np.ndarray:
    """n uniform phases in [0, 2*pi) from a counter-based stream.

    The Philox generator is keyed by (seed, realization_index), so every
    realization owns an independent stream and identical inputs reproduce
    identical phases on any platform.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 phases, got {n}")
    key = np.array([seed & _MASK64, realization_index & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(n) * (2.0 * math.pi)


def _coherence(phases: np.ndarray) -> float:
    """Coherence factor (1/N)|sum_j e^{i theta_j}|^2 of one realization."""
    z = np.exp(1j * phases).sum()
    return (z.real * z.real + z.imag * z.imag) / phases.size


def realization_estimate(phases, pair: EntangledPair, a, b, hbar: float = 1.0) -> float:
    """Correlation of one N-trial stochastic superposition (no phase average).

    With identical spatial profiles the double sum over trials reduces to the
    coherence factor (1/N)|sum_j e^{i theta_j}|^2 times the exact correlation;
    all cross-trial terms are included in that modulus.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise DomainError("phases must be non-empty")
    return _coherence(phases) * epr_correlation(pair, a, b, hbar=hbar).P_exact


def ensemble_estimate(spec: EnsembleSpec, pair: EntangledPair,
                      hbar: float = 1.0) -> EnsembleEstimate:
    """Phase average over R independent realizations, with standard error."""
    p_exact = epr_correlation(pair, spec.a, spec.b, hbar=hbar).P_exact
    values = np.empty(spec.realizations)
    for r in range(spec.realizations):
        values[r] = _coherence(draw_phases(spec.seed, r, spec.n_trials)) * p_exact
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(spec.realizations))
    return EnsembleEstimate(mean=mean, stderr=stderr,
                            per_realization=tuple(float(v) for v in values),
                            seed_used=spec.seed)
