"""Stochastic ensemble of phase-randomized singlet configurations.

Each trial carries one overall random U(1) phase on the whole two-soliton
configuration (a per-particle relative phase would break the singlet). The
N-trial superposition Psi_N = N^{-1/2} sum_j e^{i theta_j} phi_12
gives a correlation C * P_exact, with coherence factor
C = (1/N)|sum_j e^{i theta_j}|^2. Over N independent uniform phases
E|sum|^4 = 2N^2 - N, so E C = 1 and Var C = 1 - 1/N exactly: the phase
average is P_exact, but its fluctuations do not self-average in N, so it is
estimated over R independent realizations, whose exact standard error is
|P_exact| sqrt((1 - 1/N)/R).

Each seed in [0, 2^64) owns one Philox stream, key (seed, 0) (Salmon et al.,
SC'11), and realization r reads its draws r*N ... r*N + N - 1, so a
realization's phases depend on N. Philox is counter-based, so draw_phases
jumps to any realization. ensemble_estimate splits the realizations into
contiguous runs of whole blocks of at most 2^13 phases, one run per core the
process may use; each run reads the stream in order from its own jump, and
a block's coherence factors are taken at once. Every run draws the bits the
one-run read would, so the values are the same for any core count.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .correlation import EntangledPair, epr_correlation
from .errors import DomainError, is_count

__all__ = ["EnsembleSpec", "EnsembleEstimate", "draw_phases",
           "realization_estimate", "ensemble_estimate"]

# seeds and realization indices are 64-bit words: no two alias
_WORDS = 1 << 64
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
        for name in ("n_trials", "realizations"):
            if not is_count(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        _check_word("seed", self.seed)
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
    # the law's standard error |P_exact| sqrt((1 - 1/N)/R): 0 at N = 1 or P = 0
    stderr_exact: float
    per_realization: tuple


def _check_word(name: str, value) -> None:
    if not is_count(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < _WORDS:
        raise DomainError(f"{name} must lie in [0, 2^64), got {value}")


def _stream(seed: int, start: int) -> np.random.Generator:
    """seed's Philox stream, key (seed, 0), at draw start: the counter jumps
    start // 4 blocks of four draws, and the rest are drawn and discarded."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    bits.advance(start // 4)
    gen = np.random.Generator(bits)
    gen.random(start % 4)
    return gen


def draw_phases(seed: int, realization_index: int, n: int) -> np.ndarray:
    """Realization realization_index's n uniform phases in [0, 2*pi).

    They are draws r*n ... r*n + n - 1 of seed's Philox stream, so they
    depend on n, and identical inputs reproduce identical phases on any
    platform. DomainError unless seed and realization_index lie in [0, 2^64)
    and n in [1, 10^7] (_MAX_DRAWS), checked before any draw.
    """
    _check_word("seed", seed)
    _check_word("realization_index", realization_index)
    if not (is_count(n) and 1 <= n <= _MAX_DRAWS):
        raise DomainError(f"need 1 <= n <= {_MAX_DRAWS} phases, got {n!r}")
    # Python ints, so that numpy integers cannot overflow the product
    phases = _stream(seed, int(realization_index) * int(n)).random(n)
    phases *= 2.0 * math.pi
    return phases


def _coherence(phases: np.ndarray):
    """Coherence factor (1/N)|sum_j e^{i theta_j}|^2 of each realization (last
    axis). cos and sin are written into the halves of one complex buffer,
    elementwise == np.exp(1j * phases), in fewer passes."""
    z = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=z.real)
    np.sin(phases, out=z.imag)
    z = z.sum(axis=-1)
    return (z.real * z.real + z.imag * z.imag) / phases.shape[-1]


def realization_estimate(phases, pair: EntangledPair, a, b) -> float:
    """Correlation of one N-trial stochastic superposition (no phase average).

    With identical spatial profiles the double sum over trials reduces to the
    coherence factor (1/N)|sum_j e^{i theta_j}|^2 times the exact correlation;
    all cross-trial terms are included in that modulus. DomainError unless
    the phases are a non-empty, one-dimensional array of finite values.
    """
    phases = np.asarray(phases, dtype=float)
    if not (phases.ndim == 1 and phases.size and np.isfinite(phases).all()):
        raise DomainError(f"phases must be a non-empty 1-D array of finite values, "
                          f"got shape {phases.shape}")
    return float(_coherence(phases) * epr_correlation(pair, a, b).P_exact)


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ensemble_estimate(spec: EnsembleSpec, pair: EntangledPair) -> EnsembleEstimate:
    """Phase average over R independent realizations, with the sample
    standard error and the law's.

    Each run fills its own slice of the values, the first in the calling
    thread and each other in a thread of its own (numpy's Philox fill and
    ufuncs release the GIL), so a one-block ensemble starts none. All have
    ended when this returns or raises, and an exception in any run is raised
    here.

    DomainError as epr_correlation."""
    p_exact = epr_correlation(pair, spec.a, spec.b).P_exact
    n, total = spec.n_trials, spec.realizations
    rows = max(1, _BLOCK // n)
    blocks = -(-total // rows)
    runs = min(_cores(), blocks)
    # run k starts at block k * blocks // runs
    starts = [rows * (k * blocks // runs) for k in range(runs)] + [total]
    values = np.empty(total)
    errors = []

    def fill(r0: int, r1: int) -> None:
        try:
            gen = _stream(spec.seed, r0 * n)
            block = np.empty((min(rows, r1 - r0), n))
            for r in range(r0, r1, rows):
                phases = block[:r1 - r]
                gen.random(out=phases)
                phases *= 2.0 * math.pi
                values[r:r + len(phases)] = _coherence(phases) * p_exact
        except BaseException as err:  # raised below, once every run has ended
            errors.append(err)

    threads = [threading.Thread(target=fill, args=bounds)
               for bounds in zip(starts[1:-1], starts[2:])]
    for thread in threads:
        thread.start()
    fill(starts[0], starts[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(total))
    stderr_exact = abs(p_exact) * math.sqrt((1.0 - 1.0 / n) / total)
    return EnsembleEstimate(mean=mean, stderr=stderr, stderr_exact=stderr_exact,
                            per_realization=tuple(values.tolist()))
