import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import golden
import oracles
from oracles import _make_check, integrate_free
from solitonlab import radial
from solitonlab import (BracketError, ConvergenceError, DomainError, IntegrationError,
                        Outcome, RadialState, SolitonLabError, SolverOptions, TailError,
                        compute_integrals, rhs, series_start, shoot, solve_ground)
from solitonlab.ivp import integrate_mesh
from solitonlab.radial import (_MAX_SCAN_POINTS, coarse_scan, replay_bisection,
                               solution_from_shooting, _Shooter, _march, _rhs)


# --- right-hand side -------------------------------------------------------

def test_rhs_trivial_fixed_point():
    assert rhs(RadialState(1.0, 0.0, 0.0), 0.5) == (0.0, 0.0)


def test_rhs_hand_substitution_g_zero():
    # F=1, G=0: dG = (Omega-1) + 1, dF carries no G terms
    dF, dG = rhs(RadialState(1.0, 1.0, 0.0), 0.5)
    assert dF == 0.0
    assert dG == pytest.approx(0.5, abs=1e-15)


def test_rhs_hand_substitution_f_zero():
    # F=0, G=1: dG = -2G/x; dF = (-(Omega+1) + (F^2-G^2))*G = -1.5 - 1
    dF, dG = rhs(RadialState(2.0, 0.0, 1.0), 0.5)
    assert dG == pytest.approx(-1.0, abs=1e-15)
    assert dF == pytest.approx(-2.5, abs=1e-15)


def test_rhs_against_symbolic_oracle():
    import sympy as sp
    x_, F_, G_, W_ = sp.symbols("x F G W")
    cub = F_ ** 2 - G_ ** 2
    dF_sym = (-(W_ + 1) + cub) * G_
    dG_sym = -2 * G_ / x_ + ((W_ - 1) + cub) * F_
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, F, G, Om = rng.uniform(0.1, 3.0, size=4)
        Om = float(Om) / 3.5  # keep in (0, 1)
        got = rhs(RadialState(float(x), float(F), float(G)), Om)
        subs = {x_: float(x), F_: float(F), G_: float(G), W_: Om}
        assert got[0] == pytest.approx(float(dF_sym.evalf(subs=subs)), rel=1e-12)
        assert got[1] == pytest.approx(float(dG_sym.evalf(subs=subs)), rel=1e-12)


def test_rhs_rejects_nonpositive_x():
    # a NaN x passed the x <= 0 guard and gave (-0.051, nan); a NaN or
    # infinite F, G or Omega gave a non-finite result
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            rhs(RadialState(x, 1.0, 0.1), 0.5)
    for state, Omega in ((RadialState(1.0, math.nan, 0.1), 0.5),
                         (RadialState(1.0, 1.0, math.inf), 0.5),
                         (RadialState(1.0, 1.0, 0.1), math.nan)):
        with pytest.raises(DomainError):
            rhs(state, Omega)


# --- series start ----------------------------------------------------------

def test_series_slope_matches_one_sixth():
    # c1 = ((Omega-1)F0 + F0^3)/3 at F0=1, Omega=0.5
    st = series_start(1.0, 0.5, 1e-8)
    assert st.G / 1e-8 == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_series_zero_branch():
    st = series_start(0.0, 0.7, 1e-4)
    assert (st.F, st.G) == (0.0, 0.0)


def test_series_slope_algebra_at_unit_omega():
    # pure algebra check outside the solvable interval
    st = series_start(1.0, 1.0, 1e-8)
    assert st.G / 1e-8 == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_series_rejects_bad_offset():
    # a NaN x0 passed the x0 <= 0 guard and gave an all-NaN state, as did a
    # NaN F0 or Omega; an F0 whose cube overflows raised OverflowError
    for x0 in (0.0, -1e-4, math.nan):
        with pytest.raises(DomainError):
            series_start(1.0, 0.5, x0)
    for F0, Omega in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan),
                      (1e103, 0.5), (-1e305, 0.5)):
        with pytest.raises(DomainError):
            series_start(F0, Omega)


# --- shooting trial ----------------------------------------------------------

# a trial's outcome for each halt; a blow-up has F >= 0 (F < 0 is tested first)
_OUTCOME_OF_HALT = {"decay": Outcome.DECAYED, "f_cross": Outcome.DIVERGED_DOWN,
                    "g_cross": Outcome.DIVERGED_UP, "blowup": Outcome.DIVERGED_UP}
_MODES = pytest.mark.parametrize("clamped", [False, True], ids=["free", "mesh"])


@_MODES
def test_trial_zero_start_decays(clamped):
    assert _Shooter(0.5, SolverOptions()).trial(0.0, 1e-8, clamped) == (Outcome.DECAYED,
                                                                          "decay")
    # the decay test applies to the start state: both amplitudes under the floor
    sh = _Shooter(0.5, SolverOptions(decay_floor=2.0))
    assert sh.trial(1.5, 1e-8, clamped) == (Outcome.DECAYED, "decay")


@_MODES
def test_trial_far_below_critical_is_up(clamped):
    sh = _Shooter(0.5, SolverOptions())
    assert sh.trial(0.5, 1e-8, clamped) == (Outcome.DIVERGED_UP, "series")
    assert sh.trial(0.8, 1e-8, clamped)[0] is Outcome.DIVERGED_UP


@_MODES
def test_trial_far_above_critical_is_down(clamped):
    sh = _Shooter(0.5, SolverOptions())
    assert sh.trial(1.5, 1e-8, clamped) == (Outcome.DIVERGED_DOWN, "f_cross")


# --- specialised DP5 march ---------------------------------------------------

def _generic_states(Omega, nodes, start, rtol, check):
    xs, Fs, Gs, reason = integrate_mesh(lambda x, F, G: _rhs(x, F, G, Omega), nodes,
                                        start.F, start.G, rtol=rtol, check=check)
    return list(zip(xs, Fs, Gs)), reason


def _marched_states(Omega, nodes, start, rtol, check, every_step=False):
    states = [(nodes[0], start.F, start.G)]
    reason = check(*states[0])
    if not reason:
        for state in _march(Omega, nodes, start.F, start.G, rtol, every_step):
            states.append(state)
            reason = check(*state)
            if reason:
                break
    return states, reason or "end"


def _generic_free_states(Omega, nodes, start, rtol, check):
    states = []
    *_, reason = integrate_free(lambda x, F, G: _rhs(x, F, G, Omega), nodes[0],
                                start.F, start.G, nodes[-1], rtol=rtol, check=check,
                                record=states)
    return states, reason


def _free_marched_states(Omega, nodes, start, rtol, check):
    return _marched_states(Omega, [nodes[0], nodes[-1]], start, rtol, check, True)


def _result_or_error(run, *args):
    try:
        return run(*args)
    except IntegrationError as err:
        return f"IntegrationError: {err}"


def _golden_examples(test):
    """Explicit cases at the golden amplitude: +-1 and +-7 ulp (both sides of
    the critical discrete flow), +-1e-9 and +-1e-3, at the bisection rtol."""
    f0, ulp = golden.F0_GROUND, math.ulp(golden.F0_GROUND)
    for d in (ulp, -ulp, 7 * ulp, -7 * ulp, 1e-9, -1e-9, 1e-3, -1e-3):
        test = example(Omega=golden.OMEGA, F0=f0 + d, rtol=1e-10)(test)
    return test


@settings(max_examples=50, deadline=None, derandomize=True)
@given(Omega=st.floats(0.05, 0.98), F0=st.floats(0.3, 2.0),
       rtol=st.sampled_from([1e-8, 1e-10]))
@_golden_examples
def test_march_matches_generic_stepper(Omega, F0, rtol):
    # every node value up to the trial's halt is bit-identical (==, not
    # approx) to the generic DP5 path on the default mesh, or both raise the
    # same step underflow; the trial then classifies as the generic path does
    opts = SolverOptions()
    sh = _Shooter(Omega, opts)
    start = series_start(F0, Omega, opts.x0)
    check = _make_check(opts.blowup_factor * max(abs(F0), 1e-12), opts.decay_floor)
    args = (Omega, sh.nodes, start, rtol, check)
    generic = _result_or_error(_generic_states, *args)
    assert _result_or_error(_marched_states, *args) == generic
    _assert_trial_classifies_as(sh, F0, rtol, True, start, generic)


def _assert_trial_classifies_as(sh, F0, rtol, clamped, start, generic):
    if isinstance(generic, str):
        expected = generic
    elif generic[1] != "end" and start.G > 0.0:
        expected = _OUTCOME_OF_HALT[generic[1]], generic[1]
    else:
        return  # an undershoot at the series start, or a trial that extends x_max
    assert _result_or_error(sh.trial, F0, rtol, clamped) == expected


@settings(max_examples=50, deadline=None, derandomize=True)
@given(Omega=st.floats(0.02, 0.985), F0=st.floats(0.01, 6.0),
       rtol=st.sampled_from([1e-8, 1e-10]))
@example(Omega=0.5, F0=1.3000000000000003, rtol=1e-8)  # the default scan's bracket
@example(Omega=0.5, F0=1.4000000000000001, rtol=1e-8)
@example(Omega=0.02, F0=1.0201171874999997, rtol=1e-8)
@example(Omega=0.02, F0=1.0201187133789058, rtol=1e-8)
def test_free_march_matches_generic_stepper(Omega, F0, rtol):
    # the scan's free-step mode: every accepted step's (x, F, G) up to the
    # halt is bit-identical (==, not approx) to the generic free-step path
    # over [x0, x_max], or both raise the same step underflow; the trial
    # then classifies as the generic path does
    opts = SolverOptions()
    sh = _Shooter(Omega, opts)
    start = series_start(F0, Omega, opts.x0)
    check = _make_check(opts.blowup_factor * max(abs(F0), 1e-12), opts.decay_floor)
    args = (Omega, sh.nodes, start, rtol, check)
    generic = _result_or_error(_generic_free_states, *args)
    assert _result_or_error(_free_marched_states, *args) == generic
    _assert_trial_classifies_as(sh, F0, rtol, False, start, generic)


def test_march_nan_start_raises_like_generic_stepper():
    # NaN passes every halt test; both paths shrink the step to underflow at x0
    nodes = _Shooter(0.5, SolverOptions()).nodes
    with pytest.raises(IntegrationError) as generic:
        integrate_mesh(lambda x, F, G: _rhs(x, F, G, 0.5), nodes, math.nan, 1e-5,
                       rtol=1e-10, check=_make_check(1e3, 1e-12))
    with pytest.raises(IntegrationError) as marched:
        next(_march(0.5, nodes, math.nan, 1e-5, 1e-10))
    assert str(marched.value) == str(generic.value)
    assert str(generic.value) == f"step size underflow at x = {nodes[0]}"


@pytest.mark.parametrize("kwargs", [
    dict(mesh_dx=0.0), dict(mesh_dx=-0.01), dict(mesh_dx=math.nan), dict(mesh_dx=math.inf),
    dict(scan_rtol=1e-5), dict(scan_rtol=math.nan), dict(final_rtol=0.0),
    dict(final_rtol=1e-15), dict(final_rtol=math.nan),
    dict(x0=0.0), dict(x0=-1e-4), dict(x0=math.nan),
    dict(x_max=1e-4), dict(x_max=-5.0), dict(x_max=math.nan), dict(x_max=math.inf),
    dict(scan_step=0.0), dict(scan_step=-0.1), dict(scan_max=math.nan),
    dict(scan_max=0.05), dict(shoot_tol=math.nan), dict(decay_floor=-1.0),
    dict(residual_tol=math.nan), dict(blowup_factor=1.0), dict(blowup_factor=math.nan),
    dict(glue_frac=0.0), dict(glue_frac=1.0), dict(max_iterations=0),
    dict(max_iterations=10.0), dict(max_x_extensions=-1), dict(max_x_extensions=True),
    dict(scan_step=1e-300), dict(scan_step=5e-324), dict(scan_step=1e-4),
    dict(scan_step=0.5, scan_max=5000.5),
    dict(x0=45), dict(x0=1.0), dict(x0=math.nextafter(1e-3, 1.0)),
    dict(x0=5e-324), dict(x0=math.nextafter(sys.float_info.min, 0.0))])
def test_solver_options_reject_invalid_values(kwargs):
    with pytest.raises(DomainError):
        SolverOptions(**kwargs)


def test_solver_options_scan_point_bound_is_inclusive():
    assert _MAX_SCAN_POINTS == 10_000
    SolverOptions(scan_step=0.5, scan_max=5000.0)


def test_solver_options_x0_bound_is_inclusive():
    # the bounds on the series-start offset admit 1e-3 and the smallest normal float
    assert radial._MAX_X0 == 1e-3 and radial._MIN_X0 == sys.float_info.min
    SolverOptions(x0=1e-3)
    SolverOptions(x0=sys.float_info.min)


def test_mesh_node_bound(monkeypatch):
    # the bound is inclusive, and the x_max extension ratchet meets it too
    assert radial._MAX_MESH_NODES == 10_000_000
    monkeypatch.setattr(radial, "_MAX_MESH_NODES", 5000)
    assert radial._mesh_nodes(0.0, 4999.0, 1.0) == 5000
    with pytest.raises(DomainError):
        radial._mesh_nodes(0.0, 4999.5, 1.0)
    sh = _Shooter(0.5, SolverOptions())  # 4,001 nodes
    with pytest.raises(DomainError):
        sh._extend()  # 6,001 nodes


_SPECIAL = st.sampled_from([0.0, -0.0, -1.0, 1.0, 0.5, math.inf, -math.inf, math.nan])
_VALUES = st.one_of(_SPECIAL, st.floats(), st.integers(-3, 300))
_FIELDS = ("x0", "x_max", "mesh_dx", "scan_step", "scan_max", "scan_rtol", "final_rtol",
           "shoot_tol", "max_iterations", "blowup_factor", "decay_floor", "glue_frac",
           "residual_tol", "max_x_extensions")


def _is_count(value, least):
    return type(value) is int and value >= least


def _in_documented_range(o):
    positive = (o.mesh_dx, o.scan_step, o.shoot_tol, o.decay_floor, o.residual_tol)
    return (0 < o.x0 <= 1e-3 and all(math.isfinite(v) and v > 0 for v in positive)
            and (o.x_max is None or (math.isfinite(o.x_max) and o.x_max > o.x0))
            and math.isfinite(o.scan_max) and o.scan_max >= o.scan_step
            and o.scan_max / o.scan_step <= _MAX_SCAN_POINTS
            and all(1e-14 <= v <= 1e-6 for v in (o.scan_rtol, o.final_rtol))
            and math.isfinite(o.blowup_factor) and o.blowup_factor > 1
            and 0 < o.glue_frac < 1
            and _is_count(o.max_iterations, 1) and _is_count(o.max_x_extensions, 0))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(kwargs=st.fixed_dictionaries({}, optional={name: _VALUES for name in _FIELDS}))
def test_solver_options_valid_or_domain_error(kwargs):
    # finite, +-0, negative, +-inf and NaN for every field: construction
    # raises DomainError or yields options inside every documented range
    assert _in_documented_range(SolverOptions())
    try:
        opts = SolverOptions(**kwargs)
    except DomainError:
        return
    assert _in_documented_range(opts), kwargs


# --- shooting --------------------------------------------------------------

def test_shoot_degenerate_bracket():
    with pytest.raises(BracketError):
        shoot(0.5, (1.0, 1.0))


def test_shoot_same_side_bracket():
    with pytest.raises(BracketError):
        shoot(0.5, (0.3, 0.5))


def test_shoot_width_guard_reads_options():
    # the bracket-width test uses opts.shoot_tol, not the keyword's default
    opts = SolverOptions(shoot_tol=1e-2, max_iterations=5)
    result = shoot(0.5, coarse_scan(0.5, opts), opts=opts)
    lo, hi = result.bracket
    assert 1e-12 < hi - lo <= 1e-2 * max(1.0, result.F0)


def test_scan_and_shoot_ground_state(sol05):
    sh = sol05.shooting
    lo, hi = sh.bracket
    assert hi - lo <= 1e-12 * max(1.0, sh.F0)
    assert sh.F0 == pytest.approx(golden.F0_GROUND, rel=1e-12)
    assert sh.n_iterations <= 200
    # classification flips exactly once: every undershoot below every overshoot
    ups = [f for f, c in sh.classification_history if c == "diverged_up"]
    downs = [f for f, c in sh.classification_history if c == "diverged_down"]
    assert ups and downs
    assert max(ups) < min(downs)


def test_scan_handles_narrow_window_low_omega():
    # at Omega = 0.2 the overshoot window is narrower than the 0.1 scan step
    opts = SolverOptions()
    lo, hi = coarse_scan(0.2, opts)
    sh = _Shooter(0.2, opts)
    assert sh.trial(lo, 1e-8)[0] is Outcome.DIVERGED_UP
    assert sh.trial(hi, 1e-8)[0] is Outcome.DIVERGED_DOWN


# coarse-scan brackets with default options, as the generic ivp path gave
# them; the bisection that follows, and so F0 and the stored profile, depend
# on them bit for bit
_PINNED_BRACKETS = {
    0.02: (1.0201171874999997, 1.0201187133789058), 0.05: (1.0509765625, 1.0510742187500002),
    0.1: (1.1031250000000001, 1.1046875000000003), 0.17: (1.1500000000000001, 1.1750000000000003),
    0.25: (1.2000000000000002, 1.2500000000000002), 0.3: (1.2000000000000002, 1.3000000000000003),
    0.33: (1.3000000000000003, 1.35), 0.42: (1.3000000000000003, 1.4000000000000001),
    0.5: (1.3000000000000003, 1.4000000000000001), 0.58: (1.3000000000000003, 1.4000000000000001),
    0.66: (1.3000000000000003, 1.4000000000000001), 0.7: (1.3000000000000003, 1.4000000000000001),
    0.75: (1.3000000000000003, 1.4000000000000001), 0.81: (1.2000000000000002, 1.3000000000000003),
    0.87: (1.1, 1.2000000000000002), 0.9: (1.0, 1.1), 0.93: (0.9, 1.0), 0.95: (0.8, 0.9),
    0.955: (0.8, 0.9), 0.96: (0.7000000000000001, 0.8), 0.97: (0.6, 0.7000000000000001),
    0.975: (0.6, 0.7000000000000001), 0.98: (0.5, 0.6)}


def test_coarse_scan_brackets_pinned():
    opts = SolverOptions()
    assert {w: coarse_scan(w, opts) for w in _PINNED_BRACKETS} == _PINNED_BRACKETS


def _shot(shoot_fn, Omega, opts, bracket=None):
    """(ShootingResult, x_max) of a scan (unless bracket is given) and a
    shoot on a fresh shooter, or the error's (type, message)."""
    sh = _Shooter(Omega, opts)
    try:
        bracket = bracket or coarse_scan(Omega, opts, shooter=sh)
        return shoot_fn(Omega, bracket, opts=opts, shooter=sh), sh.x_max
    except SolitonLabError as err:
        return type(err), str(err)


def _pinned_examples(test):
    for Omega in _PINNED_BRACKETS:
        test = example(Omega=Omega)(test)
    return test


@settings(max_examples=10, deadline=None, derandomize=True)
@given(Omega=st.floats(0.02, 0.99))
@_pinned_examples
def test_shoot_replays_bisection(Omega):
    # estimate-then-replay takes bisection's path: F0, bracket, n_iterations,
    # the whole history and the shooter's x_max are == to plain bisection's
    opts = SolverOptions()
    bracket = _PINNED_BRACKETS.get(Omega)
    assert _shot(shoot, Omega, opts, bracket) == _shot(oracles.shoot, Omega, opts, bracket)


class _Threshold:
    """Stands in for _Shooter: diverged_up below t, diverged_down above, and
    decayed at t itself if decays is set. It has no mesh to extend, and an
    overshoot crosses zero where 2*nu*x_cross + ln(F0 - t) = 0, the law
    shoot's estimate assumes, so the estimate finds a window."""
    nodes, nu, x_cross = None, 1.0, 0.0

    def __init__(self, t, decays=False):
        self.t, self.decays = t, decays

    def trial(self, F0, rtol, clamped=False):
        if F0 == self.t and self.decays:
            return Outcome.DECAYED, "decay"
        if F0 < self.t:
            return Outcome.DIVERGED_UP, ""
        self.x_cross = -0.5 * math.log(max(F0 - self.t, 1e-300))
        return Outcome.DIVERGED_DOWN, ""


# (bracket, threshold, decays, options, n_iterations as a function of the
# history's length): floats run out, a decayed trial, max_iterations
_BISECTIONS = {
    "floats-run-out": ((0.25, 0.5), 1.0 / 3.0, False, SolverOptions(), lambda n: n - 1),
    "undershoot-end-second": ((0.5, 0.25), 1.0 / 3.0, False, SolverOptions(), lambda n: n - 1),
    "decayed": ((0.25, 0.5), 0.3125, True, SolverOptions(), lambda n: n - 2),
    "max-iterations": ((0.25, 0.5), 1.0 / 3.0, False,
                       SolverOptions(max_iterations=5, shoot_tol=0.1), lambda n: n - 2),
}


@pytest.mark.parametrize("case", list(_BISECTIONS))
def test_replay_bisection_is_shoots_result(case):
    # the replay reads shoot's F0, bracket and n_iterations off the history
    # alone; plain bisection (the oracle) computes them as it goes, and
    # shoot's own walk stops where it does (all but the decayed case walk
    # through a window of the estimate)
    bracket, t, decays, opts, n_iterations = _BISECTIONS[case]
    result = oracles.shoot(0.5, bracket, opts=opts, shooter=_Threshold(t, decays))
    assert replay_bisection(result.classification_history, opts) == result
    assert shoot(0.5, bracket, opts=opts, shooter=_Threshold(t, decays)) == result
    assert result.n_iterations == n_iterations(len(result.classification_history))


def test_shoot_stalls_where_bisection_does():
    stalled = SolverOptions(max_iterations=5)
    for shoot_fn in (shoot, oracles.shoot):
        with pytest.raises(ConvergenceError):
            shoot_fn(0.5, (0.25, 0.5), opts=stalled, shooter=_Threshold(1.0 / 3.0))


def _edited(history, k, entry):
    return history[:k] + ((entry,) if entry else ()) + history[k + 1:]


def test_replay_bisection_refuses_a_history_off_the_path():
    opts = SolverOptions()
    h = oracles.shoot(0.5, (0.25, 0.5), opts=opts,
                      shooter=_Threshold(1.0 / 3.0)).classification_history
    for bad in [(), h[:1], h[:2][::-1] + h[2:] + ((0.4, "diverged_down"),),
                ((0.25, "diverged_up"), (0.5, "diverged_up")) + h[2:],
                _edited(h, 2, (0.375, "decayed")),  # path ends at a decay
                _edited(h, 3, (math.nextafter(h[3][0], 1.0), h[3][1])),
                _edited(h, 3, (h[3][0], "sideways")),
                _edited(h, 3, (h[3][0], "diverged_down" if h[3][1] == "diverged_up"
                               else "diverged_up")),
                h[:-1], h + (h[-1],), _edited(h, 4, None)]:
        with pytest.raises(ValueError):
            replay_bisection(bad, opts)


def test_replay_bisection_applies_the_stall_guard():
    loose = SolverOptions(max_iterations=5, shoot_tol=0.1)
    result = oracles.shoot(0.5, (0.25, 0.5), opts=loose, shooter=_Threshold(1.0 / 3.0))
    with pytest.raises(ConvergenceError):
        replay_bisection(result.classification_history, replace(loose, shoot_tol=1e-3))


def test_solution_from_shooting_follows_the_trials_ratchet():
    # x_max 3 is extended six times to 34.3301 although each trial may
    # extend it only once: the budget is per trial, so the rebuilt ratchet
    # runs to x_max_used however many extensions that takes
    opts = SolverOptions(x_max=3.0, max_x_extensions=1)
    s = solve_ground(0.5, opts)
    assert s.provenance["x_max_used"] == 34.3301
    again = solution_from_shooting(0.5, s.shooting, opts, 34.3301)
    for name in ("grid", "F", "G", "dF", "dG"):
        assert np.array_equal(getattr(again.profile, name), getattr(s.profile, name))
    assert (again.residuals, again.profile.tail, again.provenance) == (
        s.residuals, s.profile.tail, s.provenance)
    for x_max_used in (3.0, 34.33, 41.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            solution_from_shooting(0.5, s.shooting, opts, x_max_used)


@pytest.mark.parametrize("Omega, x_max, extended", [(0.5, 12.0, 27.0201),
                                                    (0.9, 20.0, 67.5401)])
def test_shoot_falls_back_after_estimate_extension(monkeypatch, Omega, x_max, extended):
    # a trial of the estimate phase lengthens x_max: shoot restores the mesh
    # and bisects plainly, so x_max grows only where bisection's does
    windows = []
    verified_window = radial._verified_window

    def spy(sh, *args):
        before = sh.x_max
        windows.append((verified_window(sh, *args), before, sh.x_max))
        return windows[-1][0]

    monkeypatch.setattr(radial, "_verified_window", spy)
    opts = SolverOptions(x_max=x_max)
    result = _shot(shoot, Omega, opts)
    (window, before, after), = windows
    assert window is None and after > before
    assert result == _shot(oracles.shoot, Omega, opts)
    assert result[1] == pytest.approx(extended)


@pytest.mark.parametrize("Omega, most", [(0.1, 20), (0.5, 18), (0.97, 18)],
                         ids=["0.1", "0.5", "0.97"])
def test_solve_ground_runs_half_the_trials(monkeypatch, Omega, most):
    # plain bisection runs 45, 50 and 52 clamped trials; shoot runs 18, 16
    # and 16
    calls = []
    trial = _Shooter.trial

    def counted(self, F0, rtol, clamped=False):
        calls.append(clamped)
        return trial(self, F0, rtol, clamped)

    monkeypatch.setattr(_Shooter, "trial", counted)
    solve_ground(Omega)
    assert sum(calls) <= most


# with default options no ground state is found at small Omega; at 0.005 the
# scan's free-step bracket classifies up at both ends on the bisection mesh
@pytest.mark.parametrize("Omega, error", [(0.005, BracketError), (0.01, TailError),
                                          (0.02, ConvergenceError)])
def test_low_omega_fails_with_documented_error(Omega, error):
    with pytest.raises(SolitonLabError) as caught:
        solve_ground(Omega)
    assert caught.type is error


@settings(max_examples=12, deadline=None, derandomize=True)
@given(Omega=st.floats(0.001, 0.06, exclude_min=True) | st.floats(0.97, 0.99))
def test_edge_omega_solves_or_raises_documented_error(Omega):
    # the band of every shooting fallback seen: a solution that passes its
    # own guards, or a SolitonLabError; never NaN or another exception
    opts = SolverOptions()
    try:
        s = solve_ground(Omega, opts)
    except SolitonLabError:
        return
    assert math.isfinite(s.shooting.F0)
    assert s.residuals.max_midpoint_residual <= opts.residual_tol
    assert s.residuals.nu_rel_dev <= 0.05
    assert s.profile.F.min() > 0.0


def test_amplitude_decreases_toward_weak_binding(sol05, ground):
    s09 = ground(0.9)
    assert s09.shooting.F0 < sol05.shooting.F0


def test_shoot_matches_independent_rk4_oracle(sol05):
    # fixed-step RK4 bisected to float exhaustion; flows differ at their
    # truncation level, far below this tolerance
    f0_oracle = oracles.bisect_rk4(0.5, 1.3, 1.5, h=2e-3)
    assert abs(f0_oracle - sol05.shooting.F0) < 5e-7


# --- solve_ground ----------------------------------------------------------

def test_solution_profile_invariants(sol05):
    p = sol05.profile
    nu = math.sqrt(1 - 0.5 ** 2)
    assert p.grid[0] > 0
    assert np.all(np.diff(p.grid) > 0)
    assert p.x_max >= 25.0 / nu
    assert p.F.min() > 0.0                      # nodeless ground state
    assert (p.G >= 0.0).all()                   # single-sign G
    assert sol05.residuals.max_midpoint_residual <= 1e-8
    # norm integral finite and positive
    assert np.isfinite(p.F).all() and np.isfinite(p.G).all()


def test_tail_exponent_and_ratio(sol05):
    nu = math.sqrt(0.75)
    tail = sol05.profile.tail
    assert abs(tail.nu_fit - nu) <= 0.01 * nu
    assert abs(oracles.decaying_mode_ratio(sol05) - 1.0) <= 0.02


def test_tail_fit_window_is_integrated_data(sol05):
    tail = sol05.profile.tail
    assert tail.x_glue in sol05.profile.grid
    assert tail.fit_x_lo < tail.x_glue
    # fitted decade lies inside the grid
    assert tail.fit_x_lo >= sol05.profile.grid[0]


@pytest.fixture(scope="module")
def high_omega():
    return {Omega: solve_ground(Omega) for Omega in (0.98, 0.99, 0.995)}


def test_high_omega_requires_long_domain(high_omega):
    s = high_omega[0.99]
    nu = math.sqrt(1 - 0.99 ** 2)
    assert s.profile.x_max >= 25.0 / nu
    assert abs(s.profile.tail.nu_fit - nu) <= 0.01 * nu


def test_high_omega_tends_to_the_nonrelativistic_limit(high_omega):
    # As Omega -> 1, with eps = sqrt(1 - Omega^2), F(x) -> eps R(eps x)/sqrt(2)
    # for the cubic Schroedinger ground state R (Ounaies 2000; Boussaid and
    # Comech 2017), so Q eps -> int r^2 R^2/2, F0/eps -> R(0)/sqrt(2) and
    # I4/eps -> int r^2 R^4/4. Each is extrapolated to eps = 0 as a quadratic
    # in eps^2 through the three solves. The remainder of that extrapolation
    # is c e1^2 e2^2 e3^2 (7.9e-6 here): over five triples of Omega in
    # [0.97, 0.9975] its relative error read c = 16.5-17.8, 16.5-24.3 and
    # 3.2-3.3 for the three (1.3e-4, -1.6e-4 and 2.6e-5 at these Omega), so
    # each bound takes twice the largest c.
    R0, m2, m4 = oracles.scalar_ground_state()
    assert m4 / m2 == pytest.approx(4.0, rel=1e-8)  # the scalar Pohozaev identity
    limits = (0.5 * m2, R0 / math.sqrt(2.0), 0.25 * m4)
    eps2, values = [], []
    for Omega, sol in high_omega.items():
        obs, eps = compute_integrals(sol), math.sqrt(1.0 - Omega * Omega)
        eps2.append(eps * eps)
        values.append((obs.Q * eps, sol.shooting.F0 / eps, obs.I4 / eps))
    extrapolated = np.linalg.solve(np.vander(eps2, 3), values)[-1]
    bounds = np.array([36.0, 49.0, 7.0]) * np.prod(eps2)
    errors = np.abs(extrapolated / limits - 1.0)
    assert np.all(errors <= bounds), (errors, bounds)


@pytest.mark.parametrize("Omega, bound", [(0.1, 4.4e-7), (0.5, 7e-10), (0.9, 1.8e-9)])
def test_quartic_integral_derivative_is_minus_twice_the_charge(ground, Omega, bound):
    # A solitary wave is a critical point of E - Omega Q, so dE/dOmega =
    # Omega dQ/dOmega (Vakhitov and Kolokolov 1973); with E = Omega Q + I4/2
    # (D1) that is dI4/dOmega = -2Q, which relates independent solves. The
    # central differences at h and 2h are Richardson-extrapolated; the
    # relative remainder read c h^4 with c = 2.2e5, 340 and 870 at these
    # Omega, the same to 1.5 % at h = 1e-3, 2e-3 and 4e-3, so each bound is
    # twice the remainder measured at h = 1e-3.
    h = 1e-3

    def slope(k):
        I4 = [compute_integrals(ground(Omega + s * k * h)).I4 for s in (1, -1)]
        return (I4[0] - I4[1]) / (2 * k * h)

    extrapolated = (4.0 * slope(1) - slope(2)) / 3.0
    Q = compute_integrals(ground(Omega)).Q
    assert abs(extrapolated / (-2.0 * Q) - 1.0) <= bound


def test_charge_is_least_near_omega_0_936(ground):
    # dQ/dOmega changes sign at the branch's Vakhitov-Kolokolov point: central
    # differences at h = 1e-3 read -2.05 at 0.93 and +1.66 at 0.94
    h = 1e-3

    def dQ(Omega):
        Q = [compute_integrals(ground(Omega + s * h)).Q for s in (1, -1)]
        return (Q[0] - Q[1]) / (2 * h)

    assert dQ(0.93) < 0.0 < dQ(0.94)


def test_solve_ground_determinism(sol05):
    s2 = solve_ground(0.5)
    assert s2.shooting == sol05.shooting
    for name in ("grid", "F", "G", "dF", "dG"):
        a = getattr(sol05.profile, name)
        b = getattr(s2.profile, name)
        assert np.array_equal(a, b)
    assert s2.profile.tail == sol05.profile.tail


def test_glue_below_rounding_is_rejected_not_nan():
    # the final pass crosses zero before F reaches 1e-13 * F0; that crossing
    # must not be taken as the glue point (it gave nu_fit = nan)
    with pytest.raises(SolitonLabError):
        solve_ground(0.5, SolverOptions(glue_frac=1e-13))


def test_tail_failure_raises_tail_error():
    with pytest.raises(TailError):
        solve_ground(0.5, SolverOptions(glue_frac=1e-9))


def test_solve_ground_provenance_has_no_retry_counter(sol05):
    assert set(sol05.provenance) == {"code_version", "options", "x_max_used"}


_SHOOTING = radial.ShootingResult(F0=1.0, bracket=(1.0, math.nextafter(1.0, 2.0)),
                                n_iterations=1, classification_history=())
_OMEGA_ENTRIES = {
    "coarse_scan": lambda Omega: coarse_scan(Omega, SolverOptions()),
    "ratchet_nodes": lambda Omega: radial.ratchet_nodes(Omega, SolverOptions(), 40.0),
    "ratchet_nodes-x_max": lambda Omega: radial.ratchet_nodes(
        Omega, SolverOptions(x_max=3.0), 3.0),
    "solution_from_shooting": lambda Omega: solution_from_shooting(
        Omega, _SHOOTING, SolverOptions(), 40.0),
    "shoot": lambda Omega: shoot(Omega, (1.0, 1.5)),
    "solve_ground": solve_ground,
}


@pytest.mark.parametrize("Omega", [0.0, -0.5, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("entry", sorted(_OMEGA_ENTRIES))
def test_solver_entry_points_refuse_omega_outside_unit_interval(entry, Omega):
    # these reached the solver's arithmetic: coarse_scan raised ZeroDivisionError
    # at 1, a math domain ValueError at 1.5, BracketError at -0.5 and a mesh
    # bound's DomainError at 0; ratchet_nodes a ValueError at 1.5;
    # solution_from_shooting ZeroDivisionError at 1 and IntegrationError at -0.5
    with pytest.raises(DomainError, match=r"Omega must lie in \(0, 1\)"):
        _OMEGA_ENTRIES[entry](Omega)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7])
def test_solve_ground_rejects_bad_omega(bad):
    with pytest.raises(DomainError):
        solve_ground(bad)


def test_midpoint_residual_invariant_other_omegas():
    for om in (0.35, 0.65):
        s = solve_ground(om)
        assert s.residuals.max_midpoint_residual <= 1e-8
        nu = math.sqrt(1 - om * om)
        assert abs(s.profile.tail.nu_fit - nu) <= 0.01 * nu


def test_final_pass_memory_per_node_bounded(sol05):
    # the final pass re-derives the stored profile bit for bit; walking the
    # mesh without a list copy of it, and the midpoint residual in place, took
    # its tracemalloc peak 182 -> 134 bytes a node on this 4,001-node mesh (the
    # profile keeps 40). The bound is that plus about 15 %
    mesh = sol05.profile.grid
    tracemalloc.start()
    try:
        profile, report = radial._final_profile(0.5, sol05.shooting.F0, mesh, SolverOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 155 * mesh.size, peak / mesh.size
    for name in ("F", "G", "dF", "dG"):
        assert np.array_equal(getattr(profile, name), getattr(sol05.profile, name)), name
    assert report == sol05.residuals
