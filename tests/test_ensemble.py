import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import oracles
from solitonlab import DomainError, ensemble
from solitonlab.correlation import build_singlet, epr_correlation
from solitonlab.ensemble import (_MAX_DRAWS, EnsembleSpec, draw_phases,
                                 ensemble_estimate, realization_estimate)

PAIR = build_singlet(1.0)


# --- phase streams -----------------------------------------------------------

def test_draw_phases_deterministic():
    a = draw_phases(42, 3, 100)
    b = draw_phases(42, 3, 100)
    assert np.array_equal(a, b)


def test_draw_phases_independent_streams():
    a = draw_phases(42, 0, 100)
    b = draw_phases(42, 1, 100)
    assert not np.array_equal(a, b)
    c = draw_phases(43, 0, 100)
    assert not np.array_equal(a, c)


def test_draw_phases_range():
    p = draw_phases(7, 0, 10_000)
    assert p.min() >= 0.0 and p.max() < 2.0 * math.pi


def test_draw_phases_uniform_ks():
    p = draw_phases(123, 0, 1_000_000) / (2.0 * math.pi)
    result = stats.kstest(p, "uniform")
    assert result.pvalue > 0.01


@pytest.mark.parametrize("word", [-1, 2 ** 64, 2 ** 64 + 42])
def test_seed_and_index_outside_64_bits_are_refused(word):
    # these aliased 2^64 - 1, 0 and 42 modulo 2^64
    with pytest.raises(DomainError, match="seed"):
        EnsembleSpec(n_trials=4, realizations=8, seed=word)
    with pytest.raises(DomainError, match="seed"):
        draw_phases(word, 0, 4)
    with pytest.raises(DomainError, match="realization_index"):
        draw_phases(0, word, 4)


def test_draw_phases_rejects_empty():
    with pytest.raises(DomainError):
        draw_phases(1, 0, 0)


def test_draw_phases_refuses_more_draws_than_a_spec_may_ask():
    # EnsembleSpec's bound on n_trials; refused before any draw, where
    # n = 10^12 asked numpy for 8 TB and raised MemoryError
    with pytest.raises(DomainError):
        draw_phases(1, 0, _MAX_DRAWS + 1)


# --- single realization --------------------------------------------------------

def test_single_trial_reproduces_exact_value():
    # one trial: the coherence modulus is exactly 1
    p_exact = epr_correlation(PAIR, (0, 0, 1), (0, 0, 1)).P_exact
    val = realization_estimate(np.array([1.234]), PAIR, (0, 0, 1), (0, 0, 1))
    assert val == pytest.approx(p_exact, rel=1e-12)


def test_coherent_phases_scale_with_trials():
    # all phases equal: |sum|^2/N = N, an N-fold coherent enhancement
    n = 32
    p_exact = epr_correlation(PAIR, (0, 0, 1), (0, 0, 1)).P_exact
    val = realization_estimate(np.full(n, 0.7), PAIR, (0, 0, 1), (0, 0, 1))
    assert val == pytest.approx(n * p_exact, rel=1e-12)


def test_global_phase_invariance():
    phases = draw_phases(9, 4, 64)
    v1 = realization_estimate(phases, PAIR, (0, 0, 1), (0, 0, 1))
    v2 = realization_estimate(phases + 2.13, PAIR, (0, 0, 1), (0, 0, 1))
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_realization_rejects_empty_phases():
    with pytest.raises(DomainError):
        realization_estimate(np.array([]), PAIR, (0, 0, 1), (0, 0, 1))


@pytest.mark.parametrize("phases", [[math.nan], [math.inf, 0.0], [[0.1, 0.2], [0.3, 0.4]]])
def test_realization_rejects_non_finite_or_non_flat_phases(phases):
    # these returned nan with RuntimeWarnings, and an array for the 2-D input
    with pytest.raises(DomainError, match="phases"):
        realization_estimate(phases, PAIR, (0, 0, 1), (0, 0, 1))


@pytest.mark.parametrize("phases", [["x"], {"a": 1}, "0.5", [1 + 2j], np.array([1 + 2j]),
                                    np.array([0.5], dtype=complex), [True, False],
                                    [[0.1], [0.2, 0.3]]],
                         ids=["str", "dict", "str-scalar", "complex-list", "complex-array",
                              "complex-dtype", "bool", "ragged"])
@pytest.mark.filterwarnings("error")
def test_realization_refuses_non_real_phases(phases):
    # these raised ValueError or TypeError, and a complex array was cast to
    # its real part with only a ComplexWarning
    with pytest.raises(DomainError, match="phases"):
        realization_estimate(phases, PAIR, (0, 0, 1), (0, 0, 1))


def test_realization_estimate_is_a_python_float():
    assert type(realization_estimate([0.1, 0.2], PAIR, (0, 0, 1), (0, 0, 1))) is float


# --- the half-angle formula against the definition ------------------------------
# _coherence takes C from t = tan(theta/2): sum cos = 2 sum 1/(1 + t^2) - N and
# sum sin = 2 sum t/(1 + t^2). To first order its difference from
# |sum exp(i theta)|^2 / N is 2(X dX + Y dY)/N, where |(X, Y)| = sqrt(N C) and
# dX, dY gather N roundings of terms at most 1 in each formula, so
# |dC| <= 2 b eps sqrt(N C) with b ulps a term; C + 1 in place of C covers
# C ~ 0, where the second-order dX^2/N is left. The largest measured
# |dC| / (eps sqrt(N (C + 1))) was 10.7, for coherent phases, whose roundings
# add in one direction, and at most 3.6 for the other kinds (1000 draws of
# each kind and N): the bound takes b = 8. An N eps bound would not do: the
# coherent phases reach 9.7 N eps, while uniform ones stay below 0.03 N eps
# at N = 3000.

EPS = np.finfo(float).eps
# 0, pi, the float below 2 pi, pi/2 (pi itself has tan(theta/2) ~ 1.6e16),
# huge arguments of both signs and the least subnormal
SPECIAL = np.array([0.0, math.pi, np.nextafter(2.0 * math.pi, 0.0), math.pi * 0.5,
                    1e300, -1e300, 5e-324])


def _phase_sets(n, kind, rng):
    if kind == "special":  # every special value at every position, the rest uniform
        sets = [np.resize(np.roll(SPECIAL, k), n) for k in range(SPECIAL.size)]
        for phases in sets:
            phases[SPECIAL.size:] = rng.random(max(0, n - SPECIAL.size)) * (2.0 * math.pi)
        return sets
    if kind == "uniform":
        return [rng.random(n) * (2.0 * math.pi) for _ in range(20)]
    if kind == "wide":
        return [rng.uniform(-1e6, 1e6, n) for _ in range(20)]
    return [np.full(n, theta) for theta in rng.random(20) * (2.0 * math.pi)]  # coherent


@pytest.mark.parametrize("kind", ["uniform", "special", "wide", "coherent"])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 3000])
def test_coherence_matches_the_definition(n, kind):
    rng = np.random.default_rng(n)
    for phases in _phase_sets(n, kind, rng):
        c = abs(np.exp(1j * phases).sum()) ** 2 / n
        bound = 16.0 * EPS * math.sqrt(n * (c + 1.0))
        assert abs(ensemble._coherence(phases * 0.5) - c) <= bound


def test_phase_mean_is_unbiased():
    # E[(1/N)|sum e^{i theta}|^2] = 1: off-diagonal terms have zero mean
    spec = EnsembleSpec(n_trials=64, realizations=4096, seed=2024,
                        a=(0, 0, 1), b=(0, 0, 1))
    est = ensemble_estimate(spec, PAIR)
    assert abs(est.mean - (-1.0)) <= 4.0 * est.stderr


# --- ensemble ----------------------------------------------------------------

def test_ensemble_reproducible():
    spec = EnsembleSpec(n_trials=16, realizations=64, seed=5, a=(0, 0, 1), b=(1, 0, 0))
    e1 = ensemble_estimate(spec, PAIR)
    e2 = ensemble_estimate(spec, PAIR)
    assert e1 == e2
    # realization 0 is the first 16 draws of seed 5's stream
    assert e1.per_realization[0] == realization_estimate(draw_phases(5, 0, 16), PAIR,
                                                         spec.a, spec.b)
    assert len(e1.per_realization) == 64


def test_ensemble_orthogonal_analyzers_exact_zero():
    spec = EnsembleSpec(n_trials=8, realizations=32, seed=3, a=(1, 0, 0), b=(0, 1, 0))
    est = ensemble_estimate(spec, PAIR)
    assert est.mean == pytest.approx(0.0, abs=1e-12)


def test_ensemble_rejects_single_realization():
    # a standard error needs two samples; one realization is not an estimate
    with pytest.raises(DomainError):
        EnsembleSpec(n_trials=8, realizations=1, seed=3)


@pytest.mark.parametrize("kwargs", [dict(n_trials=0, realizations=4, seed=1),
                                    dict(n_trials=4, realizations=0, seed=1),
                                    dict(n_trials=10 ** 7 + 1, realizations=4, seed=1),
                                    dict(n_trials=4, realizations=10 ** 7 + 1, seed=1),
                                    # counts are integers, as in SolverOptions
                                    dict(n_trials=2.5, realizations=4, seed=1),
                                    dict(n_trials=4, realizations=3.5, seed=1),
                                    dict(n_trials=True, realizations=4, seed=1),
                                    dict(n_trials=4, realizations=4, seed=1.5),
                                    dict(n_trials=4, realizations=4, seed=None)])
def test_ensemble_spec_validation(kwargs):
    with pytest.raises(DomainError):
        EnsembleSpec(**kwargs)


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_draw_phases_takes_an_integer_count(n):
    with pytest.raises(DomainError):
        draw_phases(1, 0, n)


@pytest.mark.parametrize("seed, index", [(1.5, 0), (None, 0), (True, 0), (1, 0.5), (1, None)])
def test_draw_phases_takes_an_integer_seed_and_index(seed, index):
    # as EnsembleSpec does for its seed
    with pytest.raises(DomainError):
        draw_phases(seed, index, 4)


def test_stderr_scaling_with_realizations():
    # quick two-octave check; the full four-octave fit runs in acceptance
    errs = []
    for r in (256, 1024):
        spec = EnsembleSpec(n_trials=16, realizations=r, seed=77, a=(0, 0, 1), b=(0, 0, 1))
        errs.append(ensemble_estimate(spec, PAIR).stderr)
    slope = math.log(errs[1] / errs[0]) / math.log(1024 / 256)
    assert -0.65 <= slope <= -0.35


def test_stderr_exact_is_the_law():
    # |P| sqrt((1 - 1/N)/R): exactly 0 at N = 1, where C = 1, and at P = 0
    spec = EnsembleSpec(n_trials=64, realizations=256, seed=4, a=(0, 0, 1), b=(0.6, 0, 0.8))
    p_exact = epr_correlation(PAIR, spec.a, spec.b).P_exact
    est = ensemble_estimate(spec, PAIR)
    assert est.stderr_exact == abs(p_exact) * math.sqrt((1 - 1 / 64) / 256)
    one = ensemble_estimate(EnsembleSpec(n_trials=1, realizations=8, seed=4), PAIR)
    assert one.stderr_exact == 0.0
    zero = ensemble_estimate(EnsembleSpec(n_trials=8, realizations=8, seed=4,
                                          a=(1, 0, 0), b=(0, 1, 0)), PAIR)
    assert zero.stderr_exact == 0.0


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_coherence_factor_exact_moments(n):
    # C = (1/N)|sum_j e^{i theta_j}|^2 over uniform phases has mean 1 and
    # variance 1 - 1/N exactly; P_exact = -1 for parallel z analyzers
    spec = EnsembleSpec(n_trials=n, realizations=4096, seed=11, a=(0, 0, 1), b=(0, 0, 1))
    c = -np.asarray(ensemble_estimate(spec, PAIR).per_realization)
    r = c.size
    mean, var = c.mean(), c.var(ddof=1)
    m4 = np.mean((c - mean) ** 4)
    assert abs(mean - 1.0) <= 4.0 * math.sqrt(var / r) + 1e-12
    assert abs(var - (1.0 - 1.0 / n)) <= 4.0 * math.sqrt(max(m4 - var * var, 0.0) / r) + 1e-12


# --- against the per-realization oracle ----------------------------------------
# ensemble_estimate splits the realizations into runs of whole 2^13-phase
# blocks, one per core, each read in order from its own jump of the stream
# and each block's coherence factors taken at once; the oracle builds a
# generator per realization at its first draw and takes each coherence alone.
# Every output is == the oracle's, on any core count.

SEEDS = st.one_of(st.sampled_from([0, 1, 2 ** 40 + 7, 2 ** 63, 2 ** 64 - 1]),
                  st.integers(0, 2 ** 64 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=SEEDS, n_trials=st.one_of(st.sampled_from([1, 64, 2 ** 13 + 1]),
                                      st.integers(1, 3000)),
       realizations=st.integers(2, 600), cores=st.sampled_from([1, 2, 3, 8]))
@example(seed=0, n_trials=1, realizations=2, cores=2)
@example(seed=3, n_trials=64, realizations=131, cores=1)               # 128 rows a block
@example(seed=2 ** 63, n_trials=2 ** 13 + 1, realizations=3, cores=2)  # one row a block
@example(seed=2 ** 64 - 1, n_trials=100, realizations=83, cores=8)     # 81 rows a block
@example(seed=7, n_trials=64, realizations=600, cores=3)     # 5 blocks in 3 runs, the last short
@example(seed=2 ** 64 - 1, n_trials=2 ** 13 + 1, realizations=9, cores=8)  # 9 one-row blocks
@example(seed=1, n_trials=3000, realizations=25, cores=8)    # 13 blocks of 2 rows in 8 runs
def test_ensemble_equals_per_realization_oracle(seed, n_trials, realizations, cores):
    spec = EnsembleSpec(n_trials=n_trials, realizations=realizations, seed=seed,
                        a=(0, 0, 1), b=(0.6, 0.0, 0.8))
    with mock.patch.object(ensemble, "_cores", return_value=cores):
        ours = ensemble_estimate(spec, PAIR)
    oracle = oracles.ensemble_estimate(spec, PAIR)
    assert ours.per_realization == oracle.per_realization
    assert (ours.mean, ours.stderr) == (oracle.mean, oracle.stderr)
    assert ours == oracle


@pytest.mark.parametrize("n_trials, realizations", [(1, 2 ** 13), (64, 128), (100, 81)])
def test_one_block_ensemble_starts_no_thread(n_trials, realizations):
    spec = EnsembleSpec(n_trials=n_trials, realizations=realizations, seed=4)
    with mock.patch.object(ensemble, "_cores", return_value=8), \
            mock.patch("threading.Thread", side_effect=AssertionError):
        est = ensemble_estimate(spec, PAIR)
    assert est == oracles.ensemble_estimate(spec, PAIR)


@pytest.mark.parametrize("failing_run", [0, 1, 2])
def test_an_exception_in_any_run_surfaces_and_no_thread_survives(failing_run):
    # 3 cores, 8 blocks of 128 rows: runs start at realizations 0, 256 and 640
    spec = EnsembleSpec(n_trials=64, realizations=1000, seed=9)
    first = (0, 256, 640)[failing_run] * spec.n_trials
    stream = ensemble._stream

    class Failing:
        def random(self, out):
            raise RuntimeError(f"block at draw {first}")

    def failing_stream(seed, start):
        return Failing() if start == first else stream(seed, start)

    before = threading.active_count()
    with mock.patch.object(ensemble, "_cores", return_value=3), \
            mock.patch.object(ensemble, "_stream", failing_stream):
        with pytest.raises(RuntimeError, match=f"block at draw {first}$"):
            ensemble_estimate(spec, PAIR)
    assert threading.active_count() == before


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=SEEDS, r=st.one_of(st.sampled_from([0, 2 ** 63, 2 ** 64 - 1]),
                               st.integers(0, 2 ** 64 - 1)),
       n=st.integers(1, 3000))
def test_draw_phases_equals_oracle(seed, r, n):
    assert np.array_equal(draw_phases(seed, r, n), oracles.draw_phases(seed, r, n))


@pytest.mark.parametrize("n", [1, 3, 5, 64, 2 ** 13 + 1])
def test_realization_r_reads_draws_r_n_on(n):
    # brute force, no jump: realization r is the last n of (r + 1) n draws,
    # and row r of the ensemble, across block edges and for n not a multiple of 4
    seed, rs = 2 ** 64 - 5, (0, 1, 127, 128, 129)
    key = np.array([seed, 0], dtype=np.uint64)
    head = np.random.Generator(np.random.Philox(key=key)).random((max(rs) + 1) * n)
    spec = EnsembleSpec(n_trials=n, realizations=max(rs) + 1, seed=seed)
    values = ensemble_estimate(spec, PAIR).per_realization
    for r in rs:
        phases = draw_phases(seed, r, n)
        assert np.array_equal(phases, head[r * n:(r + 1) * n] * (2.0 * math.pi))
        assert realization_estimate(phases, PAIR, spec.a, spec.b) == values[r]
