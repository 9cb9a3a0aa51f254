import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from solitonlab import DomainError, GridError, correlation
from solitonlab.correlation import (EntangledPair, build_singlet, chsh,
                                    chsh_local_strategies, chsh_optimize,
                                    epr_correlation, ladder_check_grid,
                                    pair_correlation_fn, pauli_dot, unit_vector)
from solitonlab.spingrid import GridSpec

ROOT2 = math.sqrt(2.0)


def _random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- construction ------------------------------------------------------------

def test_singlet_amplitudes_and_norm():
    pair = build_singlet(1.0)
    s = 1.0 / ROOT2
    assert pair.amplitudes == (0.0, pytest.approx(s), pytest.approx(-s), 0.0)
    assert pair.two_particle_norm == pytest.approx(1.0, abs=1e-10)


def test_singlet_norm_bilinear():
    assert build_singlet(2.0).two_particle_norm == pytest.approx(4.0, rel=1e-12)


def test_singlet_antisymmetric_under_exchange():
    pair = build_singlet(1.0)
    m = np.asarray(pair.amplitudes).reshape(2, 2)
    assert np.allclose(m.T, -m)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_singlet_rejects_bad_norm(bad):
    with pytest.raises(DomainError):
        build_singlet(bad)


_S = math.sqrt(0.5)


@pytest.mark.parametrize("amplitudes, norm", [
    pytest.param((0.0, _S, -_S, math.nan), 1.0, id="amplitude-nan"),
    pytest.param((0.0, complex(_S, math.nan), -_S, 0.0), 1.0, id="amplitude-imag-nan"),
    pytest.param((0.0, _S, -_S, math.inf), 1.0, id="amplitude-inf"),
    pytest.param((_S, -_S, 0.0), 1.0, id="three-amplitudes"),
    pytest.param((0.0, _S, -_S, 0.0, 0.0), 1.0, id="five-amplitudes"),
    pytest.param((0.0, _S, -_S, 0.0), math.nan, id="norm-nan"),
    pytest.param((0.0, _S, -_S, 0.0), math.inf, id="norm-inf"),
    pytest.param((0.0, _S, -_S, 0.0), 0.0, id="norm-0"),
    pytest.param((0.0, _S, -_S, 0.0), -1.0, id="norm-negative")])
def test_entangled_pair_rejects_non_finite_state(amplitudes, norm):
    # a hand-built pair gave epr_correlation nan (NaN amplitude or norm) or
    # -inf (infinite norm)
    with pytest.raises(DomainError):
        EntangledPair(amplitudes=amplitudes, radial_norm_per_particle=norm)


def test_two_particle_norm_overflows_to_inf():
    # both raised OverflowError from a square taken with **
    assert build_singlet(1e200).two_particle_norm == math.inf
    assert EntangledPair((1e200,) * 4, 1.0).two_particle_norm == math.inf


# --- analyzer validation ------------------------------------------------------

def test_unit_vector_normalizes_near_unit():
    v = unit_vector((0.0, 0.0, 1.0 + 1e-9))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


def test_unit_vector_rejects_non_unit():
    with pytest.raises(DomainError):
        unit_vector((0.0, 0.0, 1.1))
    with pytest.raises(DomainError):
        unit_vector((0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", ["abc", None, [0, 1], np.full((2, 3), _S)],
                         ids=["string", "None", "two-numbers", "2x3-array"])
def test_unit_vector_rejects_anything_but_three_numbers(bad):
    # each raised ValueError
    with pytest.raises(DomainError, match="three numbers"):
        unit_vector(bad)


@pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), (1e200, 0.0, 0.0)],
                         ids=["nan", "minus-inf", "1e200"])
def test_unit_vector_refuses_non_finite_lengths_without_a_warning(bad):
    # the length test alone refuses a coordinate that is not finite; the norm
    # of (1e200, 0, 0) overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            unit_vector(bad)


# --- doubled angular momentum --------------------------------------------------

def test_pauli_dot_z_eigenvectors():
    # 2(J3) keeps phi_up and negates phi_dn
    m = pauli_dot((0, 0, 1))
    assert (m @ np.array([1.0, 0.0])).tolist() == [1.0 + 0.0j, 0.0 + 0.0j]
    assert (m @ np.array([0.0, 1.0])).tolist() == [0.0 + 0.0j, -1.0 + 0.0j]


def test_pauli_dot_x_flips_spin():
    out = pauli_dot((1, 0, 0)) @ np.array([1.0, 0.0])
    assert out.tolist() == [0.0 + 0.0j, 1.0 + 0.0j]


def test_pauli_dot_squares_to_one():
    # (sigma.a)^2 = 1: applying 2(J.a) twice along a unit direction is the identity
    rng = np.random.default_rng(5)
    for a in _random_units(rng, 50):
        v = np.array([complex(*rng.normal(size=2)), complex(*rng.normal(size=2))])
        m = pauli_dot(a)
        assert np.abs(m @ (m @ v) - v).max() < 1e-12


# --- EPR correlation -----------------------------------------------------------

def test_correlation_parallel_analyzers():
    pair = build_singlet(1.0)
    assert epr_correlation(pair, (0, 0, 1), (0, 0, 1)).P_exact == pytest.approx(-1.0, abs=1e-12)


def test_correlation_orthogonal_analyzers():
    pair = build_singlet(1.0)
    assert epr_correlation(pair, (1, 0, 0), (0, 1, 0)).P_exact == pytest.approx(0.0, abs=1e-12)


def test_correlation_sixty_degrees():
    pair = build_singlet(1.0)
    b = (math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3))
    assert epr_correlation(pair, (0, 0, 1), b).P_exact == pytest.approx(-0.5, abs=1e-12)


def test_correlation_equals_minus_dot_product():
    pair = build_singlet(1.0)
    rng = np.random.default_rng(17)
    a = _random_units(rng, 10_000)
    b = _random_units(rng, 10_000)
    p = pair_correlation_fn(pair)(a, b)
    assert np.max(np.abs(p + np.sum(a * b, axis=1))) < 1e-12
    assert np.max(np.abs(p)) <= 1.0 + 1e-12


def test_correlation_rotation_invariance():
    pair = build_singlet(1.0)
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = _random_units(rng, 2)
        rot = _random_rotation(rng)
        p1 = epr_correlation(pair, a, b).P_exact
        p2 = epr_correlation(pair, rot @ a, rot @ b).P_exact
        assert abs(p1 - p2) < 1e-12


def test_correlation_symmetric():
    pair = build_singlet(1.0)
    rng = np.random.default_rng(29)
    for _ in range(50):
        a, b = _random_units(rng, 2)
        assert epr_correlation(pair, a, b).P_exact == pytest.approx(
            epr_correlation(pair, b, a).P_exact, abs=1e-14)


def test_correlation_operator_bilinearity():
    # sigma.(alpha a1 + beta a2) = alpha sigma.a1 + beta sigma.a2: expectation
    # through the raw operator respects the linear structure before any
    # normalization of the direction
    pair = build_singlet(1.0)
    amps = np.asarray(pair.amplitudes).reshape(2, 2)
    rng = np.random.default_rng(31)

    def raw_P(avec, bvec):
        op = pauli_dot(avec) @ amps @ pauli_dot(bvec).T
        return float(np.sum(amps.conj() * op).real)

    for _ in range(25):
        a1, a2, b = _random_units(rng, 3)
        alpha, beta = rng.normal(size=2)
        combo = alpha * a1 + beta * a2
        assert raw_P(combo, b) == pytest.approx(
            alpha * raw_P(a1, b) + beta * raw_P(a2, b), rel=1e-12, abs=1e-12)


def test_correlation_scales_with_radial_norm():
    # an uncalibrated radial norm r rescales the correlation by r^2
    pair = build_singlet(2.0)
    assert epr_correlation(pair, (0, 0, 1), (0, 0, 1)).P_exact == pytest.approx(-4.0, rel=1e-12)


# a unit direction from three coordinates, all but the zero vector
_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) >= 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
           lambda p: np.linalg.norm(p) >= 1e-3),
       r=st.floats(1e-100, 1e100), size=st.floats(1e-6, 1.0),
       a=_DIRECTIONS, b=_DIRECTIONS)
def test_both_entry_points_equal_the_sandwich(parts, r, size, a, b):
    # the contractions round relative to the state's size |psi|^2 r^2, so
    # each state here has size at most 1; the amplitudes are set from it,
    # and the radial norm r spans 200 decades
    k = math.sqrt(size) / (r * float(np.linalg.norm(parts)))
    pair = EntangledPair(tuple(complex(x, y) * k for x, y in zip(parts[:4], parts[4:])), r)
    want = oracles.sandwich_correlation(pair, a, b)
    for got in (epr_correlation(pair, a, b).P_exact, pair_correlation_fn(pair)(a, b)):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


def test_singlet_tensor_is_isotropic(singlet05):
    # at the calibrated norm T = -2 s^2 I with s = 1/sqrt(2) as a float,
    # -0.9999999999999998: P(a, a) reads 2 ulps above -1
    assert singlet05.radial_norm_per_particle == 1.0
    T = correlation._tensor(singlet05)
    s = 1.0 / math.sqrt(2.0)
    assert T[~np.eye(3, dtype=bool)].tolist() == [0.0] * 6
    assert np.diag(T).tolist() == [-2.0 * s * s] * 3 == [-0.9999999999999998] * 3
    fn = pair_correlation_fn(singlet05)
    axes = np.eye(3)
    for i, j in product(range(3), repeat=2):
        assert fn(axes[i], axes[j]) == T[i, j]


@pytest.mark.parametrize("pair", [
    pytest.param(build_singlet(1e200), id="norm-1e200"),
    # a unit dimensionful norm over hbar = 1e-200, as a solution built at
    # that hbar without calibration would carry
    pytest.param(build_singlet(1.0 / 1e-200), id="hbar-1e-200"),
    pytest.param(EntangledPair((1e200,) * 4, 1.0), id="amplitudes-1e200")])
@pytest.mark.parametrize("call", [
    lambda pair: epr_correlation(pair, (0, 0, 1), (0, 0, 1)),
    pair_correlation_fn],
    ids=["epr_correlation", "pair_correlation_fn"])
def test_overflowing_tensor_is_refused(call, pair):
    # a squared radial norm r = norm / hbar of 1e200 raised OverflowError,
    # and the amplitudes' products overflowed with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            call(pair)


def test_calibrated_singlet_from_solution(singlet05):
    # two-particle norm equals 1 and P(a,b) = -(a.b) for the real pipeline
    assert singlet05.two_particle_norm == pytest.approx(1.0, abs=1e-10)
    b = (math.sin(1.0), 0.0, math.cos(1.0))
    assert epr_correlation(singlet05, (0, 0, 1), b).P_exact == pytest.approx(
        -math.cos(1.0), abs=1e-12)


# --- CHSH ---------------------------------------------------------------------

def test_chsh_canonical_angles():
    pair = build_singlet(1.0)
    fn = pair_correlation_fn(pair)
    a, ap, b, bp = (oracles._xz(t) for t in
                    np.deg2rad([0.0, 90.0, 45.0, 135.0]))
    assert chsh(a, ap, b, bp, fn) == pytest.approx(2.0 * ROOT2, abs=1e-12)


def test_chsh_degenerate_settings():
    pair = build_singlet(1.0)
    fn = pair_correlation_fn(pair)
    a = oracles._xz(0.3)
    b = oracles._xz(1.1)
    s = chsh(a, a, b, b, fn)
    assert s == pytest.approx(2.0 * abs(fn(a, b)), abs=1e-12)
    assert s <= 2.0 + 1e-12


def test_local_strategies_bounded_by_two():
    values = chsh_local_strategies()
    assert len(values) == 16
    assert all(v <= 2.0 for v in values)
    assert max(values) == 2.0


def _assert_optimum(fn, expected):
    settings_, s_max = chsh_optimize(fn)
    assert abs(s_max - expected) <= 1e-12
    for v in settings_:
        assert v.shape == (3,) and np.all(np.isfinite(v))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(chsh(*settings_, fn) - s_max) <= 1e-12
    return s_max


def _product(a, b):
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    r = -(a[:, 2] * b[:, 2])
    return r if r.size > 1 else float(r[0])


def test_chsh_optimize_singlet():
    fn = pair_correlation_fn(build_singlet(1.0))
    s_max = _assert_optimum(fn, 2.0 * ROOT2)
    assert abs(s_max - oracles.chsh_grid_search(fn)) <= 1e-6


def test_chsh_optimize_damped():
    fn = pair_correlation_fn(build_singlet(1.0))
    damped = lambda a, b: 0.5 * np.asarray(fn(a, b))
    s_max = _assert_optimum(damped, ROOT2)
    assert abs(s_max - oracles.chsh_grid_search(damped)) <= 1e-6


def test_chsh_optimize_product_state():
    # rank-one T: b = b', and a is any unit vector
    _assert_optimum(_product, 2.0)


def test_chsh_optimize_zero_correlation():
    _assert_optimum(lambda a, b: 0.0, 0.0)


def test_chsh_optimize_out_of_plane():
    # T = -diag(1, 1, 0): the optimum lies in the x-y plane, where an x-z
    # search reaches only 2
    _assert_optimum(lambda a, b: -(a[0] * b[0] + a[1] * b[1]), 2.0 * ROOT2)


def test_chsh_optimize_rejects_non_bilinear():
    sign = lambda a, b: -float(np.sign(np.dot(a, b)))
    with pytest.raises(DomainError):
        chsh_optimize(sign)
    with pytest.raises(DomainError):
        chsh_optimize(lambda a, b: math.nan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chsh_optimize_is_maximal_for_any_correlation_matrix(entries, seed):
    T = np.reshape(entries, (3, 3))
    T = T / max(1.0, np.linalg.norm(T, 2))
    fn = lambda a, b: np.asarray(a) @ T @ np.asarray(b)
    settings_, s_max = chsh_optimize(fn)
    for v in settings_:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(chsh(*settings_, fn) - s_max) <= 1e-12
    a, ap, b, bp = (_random_units(np.random.default_rng(seed + k), 500) for k in range(4))
    P = lambda u, v: np.einsum("ni,ij,nj->n", u, T, v)
    s_random = np.abs(P(a, b) - P(a, bp)) + np.abs(P(ap, b) + P(ap, bp))
    assert s_random.max() <= s_max + 1e-12


# --- ladder grid check ----------------------------------------------------------

def test_ladder_check_grid_passes_default(sol05):
    report = ladder_check_grid(sol05)
    assert report.max_residual <= 0.02
    assert set(report.as_dict()) == {"jplus_up", "j3_up", "jminus_up",
                                     "jminus_dn", "j3_dn", "jplus_dn"}


def test_ladder_check_grid_convergence(sol05):
    r32 = ladder_check_grid(sol05, tol=0.2, grid=GridSpec(n=32, extent=10.0))
    r64 = ladder_check_grid(sol05, tol=0.2, grid=GridSpec(n=64, extent=10.0))
    for key, coarse in r32.as_dict().items():
        ratio = coarse / r64.as_dict()[key]
        assert 2.5 <= ratio <= 6.5


def test_ladder_check_grid_tolerance_enforced(sol05):
    with pytest.raises(GridError):
        ladder_check_grid(sol05, tol=1e-4)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_ladder_check_grid_refuses_bad_tol_before_grid_work(sol05, tol, monkeypatch):
    # nan, -1 and 0 built the 64^3 grid before failing it, and inf passed any grid
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(correlation, "ladder_residuals", no_grid)
    with pytest.raises(DomainError, match="tol"):
        ladder_check_grid(sol05, tol=tol)
