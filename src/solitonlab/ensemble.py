"""Stochastic ensemble of phase-randomized singlet configurations.

Each trial carries one overall random U(1) phase on the whole two-soliton
configuration (a per-particle relative phase would break the singlet). The
N-trial superposition Psi_N = (hbar^2 N)^{-1/2} sum_j e^{i theta_j} phi_12
gives a correlation (1/N)|sum_j e^{i theta_j}|^2 * P_exact whose expectation
over phases is P_exact, but whose fluctuations do not self-average in N: the
phase average is therefore estimated over R independent realizations.

Realization r draws from the Philox stream keyed (seed, r). Philox is
counter-based (Salmon et al., SC'11), so one generator re-keyed for each
realization reproduces every stream bit for bit; realizations are drawn in
blocks of at most 2^13 phases, whose coherence factors are taken at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import EntangledPair, epr_correlation
from .errors import DomainError, is_count

__all__ = ["EnsembleSpec", "EnsembleEstimate", "draw_phases",
           "realization_estimate", "ensemble_estimate"]

_MASK64 = (1 << 64) - 1
# most trials per realization, and most realizations (a float64 array each)
_MAX_DRAWS = 10_000_000
# most phases per block (one realization if n_trials is larger), which keeps
# the block's complex temporaries to a few hundred kB
_BLOCK = 1 << 13


@dataclass(frozen=True)
class EnsembleSpec:
    n_trials: int
    realizations: int
    seed: int
    a: tuple = (0.0, 0.0, 1.0)
    b: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        for name in ("n_trials", "realizations", "seed"):
            if not is_count(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _phase_stream(seed: int):
    """fill(r0, rows): row i <- realization r0 + i's phases, from one Philox
    generator re-keyed through its state: key (seed, r), counter 0, empty buffer."""
    bits = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]

    def fill(r0: int, rows: np.ndarray) -> None:
        for r, row in enumerate(rows, r0):
            key[1] = r & _MASK64
            bits.state = state
            gen.random(out=row)
        rows *= 2.0 * math.pi

    return fill


def draw_phases(seed: int, realization_index: int, n: int) -> np.ndarray:
    """n uniform phases in [0, 2*pi) from a counter-based stream.

    The Philox generator is keyed by (seed, realization_index), so every
    realization owns an independent stream and identical inputs reproduce
    identical phases on any platform.
    """
    for name, value in (("seed", seed), ("realization_index", realization_index)):
        if not is_count(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if not (is_count(n) and n >= 1):
        raise DomainError(f"need n >= 1 phases, got {n!r}")
    phases = np.empty((1, n))
    _phase_stream(seed)(realization_index, phases)
    return phases[0]


def _coherence(phases: np.ndarray):
    """Coherence factor (1/N)|sum_j e^{i theta_j}|^2 of each realization (last axis)."""
    z = np.exp(1j * phases).sum(axis=-1)
    return (z.real * z.real + z.imag * z.imag) / phases.shape[-1]


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
    """Phase average over R independent realizations, with standard error.

    DomainError unless hbar is finite and > 0 (epr_correlation's check)."""
    p_exact = epr_correlation(pair, spec.a, spec.b, hbar=hbar).P_exact
    fill = _phase_stream(spec.seed)
    block = np.empty((max(1, _BLOCK // spec.n_trials), spec.n_trials))
    values = np.empty(spec.realizations)
    for r0 in range(0, spec.realizations, len(block)):
        rows = block[:spec.realizations - r0]
        fill(r0, rows)
        values[r0:r0 + len(rows)] = _coherence(rows) * p_exact
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(spec.realizations))
    return EnsembleEstimate(mean=mean, stderr=stderr,
                            per_realization=tuple(float(v) for v in values),
                            seed_used=spec.seed)
