import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, simpson

import golden
import oracles
import solitonlab as sl
from solitonlab import DomainError, GridError, QuadratureError
from solitonlab.observables import (_simpson, compute_integrals, energy,
                                    identity_report, spin_z)
from solitonlab.radial import RadialProfile, SolitonSolution, TailFit
from solitonlab.spingrid import GridSpec, ladder_residuals, sz_grid_integral


def _synthetic(F_fn, G_fn, dF_fn, dG_fn, x_max=40.0, dx=0.01, A=0.0, nu=1.0):
    """Profile built from closed-form fields (not a solution of the system)."""
    n = int(math.ceil((x_max - 1e-4) / dx)) + 1
    x = 1e-4 + dx * np.arange(n)
    tail = TailFit(A=A, nu_fit=nu, x_glue=x[-1], fit_x_lo=x[-2])
    profile = RadialProfile(grid=x, F=F_fn(x), G=G_fn(x), dF=dF_fn(x),
                            dG=dG_fn(x), tail=tail)
    return SolitonSolution(Omega=0.5, profile=profile, shooting=None,
                           residuals=None, provenance={})


def test_zero_profile_all_integrals_vanish():
    z = lambda x: np.zeros_like(x)
    obs = compute_integrals(_synthetic(z, z, z, z))
    assert obs.Q == obs.Qs == obs.I4 == obs.J4 == obs.T == 0.0
    # identity numerators vanish identically
    assert obs.T - (0.5 * obs.Q - obs.Qs + obs.I4) == 0.0
    assert 0.5 * obs.Qs - obs.Q + obs.J4 == 0.0


def test_exponential_profile_gamma_integrals():
    # F = e^{-x}, G = 0: Q = 1/4, I4 = J4 = 1/32, T = 0 (Gamma integrals);
    # dx fine enough that Simpson error on e^{-4x} stays below 1e-9
    e = lambda x: np.exp(-x)
    z = lambda x: np.zeros_like(x)
    obs = compute_integrals(_synthetic(e, z, lambda x: -np.exp(-x), z, dx=0.004))
    assert obs.Q == pytest.approx(0.25, abs=1e-9)
    assert obs.Qs == pytest.approx(0.25, abs=1e-9)
    assert obs.I4 == pytest.approx(1.0 / 32.0, abs=1e-9)
    assert obs.J4 == pytest.approx(1.0 / 32.0, abs=1e-9)
    assert obs.T == 0.0


def test_quadrature_error_detection():
    # alternating contamination breaks the mesh-halving agreement
    e = lambda x: np.exp(-x)
    z = lambda x: np.zeros_like(x)
    noisy = lambda x: np.exp(-x) * (1.0 + 1e-3 * np.where(np.arange(x.size) % 2, 1, -1))
    with pytest.raises(QuadratureError):
        compute_integrals(_synthetic(noisy, z, lambda x: -e(x), z))


def test_norm_golden_value(obs05):
    assert obs05.Q == pytest.approx(golden.Q_NORM, rel=1e-9)
    assert obs05.Qs == pytest.approx(golden.QS_SCALAR, rel=1e-7)
    assert obs05.I4 == pytest.approx(golden.I4_QUARTIC, rel=1e-7)
    assert obs05.J4 == pytest.approx(golden.J4_MIXED, rel=1e-7)
    assert obs05.T == pytest.approx(golden.T_KINETIC, rel=1e-7)


def test_norm_against_independent_oracle(obs05):
    # RK4 flow + Richardson trapezoid + adaptive tail quadrature
    _f0, q_oracle = oracles.oracle_ground_norm(0.5, (1.3, 1.5), h=2e-3)
    assert q_oracle == pytest.approx(obs05.Q, rel=1e-8)


def test_calibrated_lambda_golden(obs05):
    lam = sl.calibrate_lambda(obs05.Q)
    assert lam == pytest.approx(golden.LAMBDA_CALIBRATED, rel=1e-9)


def test_tail_beyond_grid_below_rounding(sol05, obs05):
    # the matched tail's norm beyond x_max is far below one ulp of Q, which is
    # why compute_integrals adds no tail term
    nu, B, xm = golden.NU_EXACT, 1.0 + sol05.Omega, sol05.profile.x_max
    # the continuation's amplitudes, matched to F and G at x_glue
    xg, Fg, Gg = oracles.glue_state(sol05)
    A_F = Fg * xg * math.exp(nu * xg)
    A_G = Gg * B * xg / (nu + 1.0 / xg) * math.exp(nu * xg)

    def tail_norm(x):
        f = A_F * math.exp(-nu * x) / x
        g = A_G * math.exp(-nu * x) * (nu + 1.0 / x) / (B * x)
        return x * x * (f * f + g * g)

    q_tail, _err = quad(tail_norm, xm, np.inf)
    assert q_tail <= 1e-3 * math.ulp(obs05.Q)


def test_quadrature_convergence_order(sol05):
    # each integral's change shrinks at least 8x per mesh halving (order >= 4)
    p = sol05.profile
    integrands = {
        "Q": lambda x, F, G, dF, dG: x * x * (F * F + G * G),
        "Qs": lambda x, F, G, dF, dG: x * x * (F * F - G * G),
        "I4": lambda x, F, G, dF, dG: x * x * (F * F - G * G) ** 2,
        "J4": lambda x, F, G, dF, dG: x * x * (F ** 4 - G ** 4),
        "T": lambda x, F, G, dF, dG: x * x * (F * dG - G * dF) + 2 * x * F * G,
    }
    for name, fn in integrands.items():
        vals = []
        for stride in (8, 4, 2):
            sub = tuple(arr[::stride] for arr in (p.grid, p.F, p.G, p.dF, p.dG))
            vals.append(float(simpson(fn(*sub), x=sub[0])))
        ratio = abs(vals[1] - vals[0]) / abs(vals[2] - vals[1])
        assert ratio >= 8.0, (name, ratio)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spacings=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=60),
       start=st.floats(-100.0, 100.0), data=st.data())
@example(spacings=[1.0, 1.0], start=0.0, data=None)        # N = 3
@example(spacings=[1.0, 2.0, 0.5], start=0.0, data=None)   # N = 4
def test_simpson_equals_scipy(spacings, start, data):
    # bit for bit (==) the scipy rule the golden values were computed with,
    # odd N (pairs of intervals) and even N (Cartwright's last interval)
    x = start + np.cumsum([0.0] + spacings)
    n = len(x)
    if data is None:
        y = np.cos(x) * np.exp(-0.1 * x)
    else:
        y = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    assert _simpson(y, x) == float(simpson(y, x=x))


def test_mesh_integrals_equal_scipy(sol05):
    # all five integrands on the full and the half mesh of the golden solution
    p = sol05.profile
    for stride in (1, 2):
        x, F, G, dF, dG = (arr[::stride] for arr in (p.grid, p.F, p.G, p.dF, p.dG))
        x2 = x * x
        for y in (x2 * (F * F + G * G), x2 * (F * F - G * G), x2 * (F * F - G * G) ** 2,
                  x2 * (F ** 4 - G ** 4), x2 * (F * dG - G * dF) + 2.0 * x * F * G):
            assert _simpson(y, x) == float(simpson(y, x=x))


def test_direct_identities(ids05):
    assert ids05.d1_residual <= 1e-7
    assert ids05.d2_residual <= 1e-7


def test_identity_report_values(ids05):
    # virial residuals are reported, not asserted against zero; pin observed
    assert ids05.energy_ratio == pytest.approx(golden.ENERGY_RATIO, rel=1e-7)
    for r in (ids05.v13, ids05.v15, ids05.v16):
        assert math.isfinite(r) and r >= 0.0


def test_identity_report_rejects_zero_norm():
    z = lambda x: np.zeros_like(x)
    obs = compute_integrals(_synthetic(z, z, z, z))
    with pytest.raises(DomainError):
        identity_report(obs, 0.5)


@pytest.mark.parametrize("Omega", [math.nan, 0.0, -0.5, 1.0, 2.0, math.inf])
def test_identity_report_takes_omega_in_the_open_unit_interval(obs05, Omega):
    # NaN returned a report of NaNs, 0.0 a ZeroDivisionError from energy_ratio,
    # and -0.5, 2.0 and inf a report
    with pytest.raises(DomainError, match="Omega"):
        identity_report(obs05, Omega)


def test_energy_positive_and_consistent(obs05, params05, ids05):
    E, hw, ratio = energy(obs05, params05)
    assert E > 0
    assert hw == 0.5
    assert ratio == pytest.approx(ids05.energy_ratio, rel=1e-12)


def test_energy_requires_calibration(obs05):
    with pytest.raises(DomainError):
        energy(obs05, sl.PhysicalParams(omega=0.5))


# --- spin -------------------------------------------------------------------

def test_spin_algebraic_exactly_half(sol05, params05, obs05):
    rep = spin_z(sol05, params05, obs=obs05)
    assert rep.Sz_algebraic == 0.5
    assert abs(rep.Sz_grid - 0.5) <= 0.01


def test_spin_linearity_in_norm(sol05, params05, obs05):
    # coupling calibrated to half the norm doubles both spin values
    lam_half = sl.calibrate_lambda(obs05.Q / 2.0)
    params = sl.PhysicalParams(omega=0.5, lam=lam_half)
    rep = spin_z(sol05, params, obs=obs05)
    assert rep.Sz_algebraic == pytest.approx(1.0, rel=1e-12)
    assert rep.Sz_grid == pytest.approx(1.0, rel=2e-2)


def test_spin_grid_quadratic_convergence(sol05, params05, obs05):
    errs = []
    for n in (32, 64):
        raw = sz_grid_integral(sol05, GridSpec(n=n, extent=12.0))
        errs.append(abs(raw / obs05.Q - 0.5))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.5


def test_spin_requires_calibration(sol05):
    with pytest.raises(DomainError):
        spin_z(sol05, sl.PhysicalParams(omega=0.5))


def test_spin_grid_check_runs_once(sol05, params05, obs05, monkeypatch):
    # a 16^3 grid misses S_z by ~11 %; the check raises without a second grid
    calls = []

    def counted(solution, spec):
        calls.append(spec.n)
        return sz_grid_integral(solution, spec)

    monkeypatch.setattr(sl.observables, "sz_grid_integral", counted)
    with pytest.raises(GridError):
        spin_z(sol05, params05, obs=obs05, grid=GridSpec(n=16, extent=12.0))
    assert calls == [16]


def test_grid_extent_guard(sol05):
    with pytest.raises(GridError):
        ladder_residuals(sol05, GridSpec(n=64, extent=50.0))
