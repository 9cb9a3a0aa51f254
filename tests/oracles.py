"""Independent numerical oracles used to cross-check the pipeline.

Everything here except the generic-stepper reference deliberately avoids the
package's integrator, quadrature, CHSH optimizer and streamed spin grid:
classic fixed-step RK4 with Richardson-extrapolated trapezoid sums, adaptive
quad for the analytic tail, a brute-force angle search for the CHSH maximum,
and the dense complex-valued 3-D spin grid. Tolerances of the cross-checks
reflect these methods' own accuracy, not the pipeline's.

The dense grid puts the radial profile on the cube with the package's Hermite
interpolant by default, so that comparing it with the streamed grid tests the
streaming alone; spline_interpolant, scipy's CubicSpline through the same
nodes, is the independent interpolant to check the Hermite one against.

integrate_free and _make_check, the generic free-step path on ivp.Stepper
with the trial's halt tests, are the bit-for-bit reference of
radial._march's free-step mode.

shoot is plain bisection, a trial at every midpoint: the bit-for-bit
reference of radial.shoot, which infers the midpoints' outcomes outside a
verified window around the critical amplitude.

glue_state and decaying_mode_ratio read the tail's continuity point and the
linearised equations' decaying mode off the stored profile alone.

sandwich_correlation contracts the pair's 2x2 amplitude matrix between
sigma.a and sigma.b for each analyzer pair: the reference for the package's
one formula, the bilinear form a^T T b of the pair's correlation tensor.

draw_phases and ensemble_estimate build a fresh Philox generator for every
realization, set through the constructor's counter to the realization's
first draw, and take its coherence alone: the bit-for-bit reference of
ensemble.ensemble_estimate, which reads one generator in order and takes a
block of realizations' coherence factors at once.
"""
import math
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from solitonlab.correlation import EntangledPair, epr_correlation, pauli_dot, unit_vector
from solitonlab.ensemble import EnsembleEstimate, EnsembleSpec
from solitonlab.errors import BracketError, ConvergenceError, DomainError, GridError
from solitonlab.ivp import Check, Rhs, Stepper
from solitonlab.radial import Outcome, ShootingResult, SolverOptions, _Shooter
from solitonlab.spingrid import GridSpec, LadderReport, _radial_interpolant


def integrate_free(f: Rhs, x0: float, F0: float, G0: float, x_end: float,
                   rtol: float, atol: float = 1e-300, max_step: float = 1.0,
                   check: Optional[Check] = None, record: Optional[list] = None):
    """Integrate with natural adaptive steps until x_end or a check fires.

    check(x, F, G) is evaluated on the initial state and after each accepted
    step; a non-None string halts the run and is returned as the reason.
    record, if given, receives (x, F, G) tuples at accepted steps.
    Returns (x, F, G, reason) with reason == "end" if x_end was reached.
    """
    if record is not None:
        record.append((x0, F0, G0))
    if check is not None:
        reason = check(x0, F0, G0)
        if reason:
            return x0, F0, G0, reason
    st = Stepper(f, x0, F0, G0, rtol, atol, max_step)
    while st.x < x_end:
        st.advance_to(x_end)
        if record is not None:
            record.append((st.x, st.F, st.G))
        if check is not None:
            reason = check(st.x, st.F, st.G)
            if reason:
                return st.x, st.F, st.G, reason
    return st.x, st.F, st.G, "end"


def _make_check(guard: float, floor: float):
    def check(x, F, G):
        if abs(F) < floor and abs(G) < floor:
            return "decay"
        if F < 0.0:
            return "f_cross"
        if G < 0.0:
            return "g_cross"
        if abs(F) > guard or abs(G) > guard:
            return "blowup"
        return None
    return check


def rhs_oracle(x, F, G, Om):
    # same radial system, independently arranged
    s = (F - G) * (F + G)
    dF = (s - (Om + 1.0)) * G
    dG = ((Om - 1.0) + s) * F - 2.0 * G / x
    return dF, dG


def rk4_until(Om, F0, h=1e-3, x_end=60.0, x0=1e-4, record=False,
              stop_frac=None):
    """Fixed-step RK4 from the regular series start until a sign crossing.

    Returns (label, xs, Fs, Gs) where label is 'up' (G crossed zero),
    'down' (F crossed zero), 'glue' (F fell below stop_frac*F0) or 'none'.
    """
    c1 = ((Om - 1.0) * F0 + F0 ** 3) / 3.0
    F = F0 - (Om + 1.0) * c1 * x0 * x0 / 2.0
    G = c1 * x0
    x = x0
    xs, Fs, Gs = [x], [F], [G]
    if G <= 0.0:
        return "up", xs, Fs, Gs
    thresh = stop_frac * F0 if stop_frac else -1.0
    n = int(round((x_end - x0) / h))
    for _ in range(n):
        k1F, k1G = rhs_oracle(x, F, G, Om)
        k2F, k2G = rhs_oracle(x + h / 2, F + h / 2 * k1F, G + h / 2 * k1G, Om)
        k3F, k3G = rhs_oracle(x + h / 2, F + h / 2 * k2F, G + h / 2 * k2G, Om)
        k4F, k4G = rhs_oracle(x + h, F + h * k3F, G + h * k3G, Om)
        F += h * (k1F + 2 * k2F + 2 * k3F + k4F) / 6.0
        G += h * (k1G + 2 * k2G + 2 * k3G + k4G) / 6.0
        x += h
        if record:
            xs.append(x)
            Fs.append(F)
            Gs.append(G)
        if F < 0.0:
            return "down", xs, Fs, Gs
        if G < 0.0:
            return "up", xs, Fs, Gs
        if stop_frac and F <= thresh:
            return "glue", xs, Fs, Gs
    return "none", xs, Fs, Gs


def bisect_rk4(Om, lo, hi, h=1e-3):
    """Bisect the RK4 flow to float exhaustion; returns the midpoint."""
    lab_lo = rk4_until(Om, lo, h)[0]
    lab_hi = rk4_until(Om, hi, h)[0]
    assert lab_lo == "up" and lab_hi == "down", (lab_lo, lab_hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        lab = rk4_until(Om, mid, h)[0]
        if lab == "up":
            lo = mid
        else:
            hi = mid


def oracle_ground_norm(Om, bracket, h=1e-3, glue_frac=1e-4):
    """Independent norm integral: RK4 profile + Richardson trapezoid + quad tail.

    Returns (F0, Q). The trapezoid sums at step h and 2h are Richardson
    extrapolated; the tail beyond the glue point is integrated adaptively
    from the matched exponential forms.
    """
    F0 = bisect_rk4(Om, bracket[0], bracket[1], h)
    label, xs, Fs, Gs = rk4_until(Om, F0, h, record=True, stop_frac=glue_frac)
    assert label == "glue", label
    x = np.asarray(xs)
    F = np.asarray(Fs)
    G = np.asarray(Gs)
    y = x * x * (F * F + G * G)
    t_h = np.trapezoid(y, x)
    t_2h = np.trapezoid(y[::2], x[::2])
    q_body = (4.0 * t_h - t_2h) / 3.0
    nu = math.sqrt(1.0 - Om * Om)
    B = 1.0 + Om
    xg = float(x[-1])
    A_f = float(F[-1]) * xg * math.exp(nu * xg)
    A_g = float(G[-1]) * B * xg / (nu + 1.0 / xg) * math.exp(nu * xg)

    def tail_integrand(t):
        ft = A_f * math.exp(-nu * t) / t
        gt = A_g * math.exp(-nu * t) * (nu + 1.0 / t) / (B * t)
        return t * t * (ft * ft + gt * gt)

    q_tail, _err = quad(tail_integrand, xg, np.inf, epsabs=1e-14, epsrel=1e-12)
    return F0, q_body + q_tail


def glue_state(solution):
    """(x, F, G) at the glue radius x_glue, the last integrated mesh node."""
    p = solution.profile
    k = int(np.searchsorted(p.grid, p.tail.x_glue))
    assert p.grid[k] == p.tail.x_glue
    return float(p.grid[k]), float(p.F[k]), float(p.G[k])


def decaying_mode_ratio(solution) -> float:
    """G(1 + Omega) / (F (nu + 1/x)) of the integrated data at x_glue: 1 on the
    decaying mode of the linearised equations, F ~ exp(-nu x)/x with
    G/F = (nu + 1/x)/(1 + Omega) (Soler, Phys. Rev. D 1, 2766 (1970))."""
    x, F, G = glue_state(solution)
    nu = math.sqrt(1.0 - solution.Omega ** 2)
    return G * (1.0 + solution.Omega) / (F * (nu + 1.0 / x))


def sandwich_correlation(pair: EntangledPair, a, b) -> float:
    """<2(J1.a) x 2(J2.b)> as sum(conj(m) * (sigma.a m sigma.b^T)) times
    r^2, r the radial norm, with the amplitudes as the 2x2 matrix m."""
    av = unit_vector(a)
    bv = unit_vector(b)
    amps = np.asarray(pair.amplitudes, dtype=complex).reshape(2, 2)
    op_amps = pauli_dot(av) @ amps @ pauli_dot(bv).T
    val = complex(np.sum(amps.conj() * op_amps))
    return val.real * pair.radial_norm_per_particle ** 2


def _xz(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


def chsh_grid_search(correlation_fn, restarts=4):
    """Maximal S over coplanar (x-z) analyzers by search; returns S_max.

    A 1-degree table over the two detector angles, with the best partner
    angles picked per (b, b') pair, seeds Nelder-Mead refinements from the
    top `restarts` grid points. correlation_fn must accept batched (n, 3)
    inputs. Settings out of the x-z plane are never tried.
    """
    theta = np.deg2rad(np.arange(0.0, 360.0))
    n = theta.size
    dirs = _xz(theta)
    table = np.empty((n, n))
    for i in range(n):
        table[i] = correlation_fn(np.broadcast_to(dirs[i], (n, 3)), dirs)
    # for each (b, b') pair, the best a maximizes |P(a,b) - P(a,b')| and the
    # best a' maximizes |P(a',b) + P(a',b')|
    m_diff = np.empty((n, n))
    m_sum = np.empty((n, n))
    i_diff = np.empty((n, n), dtype=int)
    i_sum = np.empty((n, n), dtype=int)
    for j in range(n):
        d = np.abs(table[:, j][:, None] - table)
        s = np.abs(table[:, j][:, None] + table)
        m_diff[j] = d.max(axis=0)
        i_diff[j] = d.argmax(axis=0)
        m_sum[j] = s.max(axis=0)
        i_sum[j] = s.argmax(axis=0)
    s_grid = m_diff + m_sum

    def s_of(angles):
        a, ap, b, bp = (_xz(t) for t in angles)
        return (abs(correlation_fn(a, b) - correlation_fn(a, bp))
                + abs(correlation_fn(ap, b) + correlation_fn(ap, bp)))

    s_max = -math.inf
    for k in np.argsort(s_grid.ravel())[::-1][:restarts]:
        j, jp = divmod(int(k), n)
        x0 = np.array([theta[i_diff[j, jp]], theta[i_sum[j, jp]], theta[j], theta[jp]])
        res = minimize(lambda ang: -s_of(ang), x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        s_max = max(s_max, -float(res.fun))
    return s_max


# --- dense spin grid ------------------------------------------------------------
# The whole n^3 cube in complex arithmetic: both 4-spinors, 12 complex gradients
# per spinor and every J application held at once (~1.6 GB at 128^3).

def spline_interpolant(solution):
    """r -> (F(r), G(r)) by cubic splines anchored at the origin (F flat, G linear)."""
    p = solution.profile
    x = np.concatenate([[0.0], p.grid])
    fs = CubicSpline(x, np.concatenate([[p.F[0]], p.F]))
    gs = CubicSpline(x, np.concatenate([[0.0], p.G]))
    return lambda r: (fs(r), gs(r))


def _axes_weights(spec: GridSpec):
    """The package's mirror-exact axis: nodes +-(k + 1/2) h, so that a node's
    mirror image is its exact negation, and the full-cube trapezoid weights."""
    if spec.n % 2:
        raise GridError("grid point count must be even to exclude the origin")
    h = spec.spacing
    pos = (np.arange(spec.n // 2) + 0.5) * h
    ax = np.concatenate((-pos[::-1], pos))
    w = np.full(spec.n, h)
    w[0] = w[-1] = 0.5 * h  # trapezoid end weights
    return ax, h, w


def _sample_fields(solution, spec: GridSpec, radial):
    fg = (radial or _radial_interpolant)(solution)
    ax, h, w1 = _axes_weights(spec)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    R = np.sqrt(X * X + Y * Y + Z * Z)
    if R.max() > solution.profile.x_max:
        # the interpolants cover only the stored grid
        raise GridError(
            f"grid corner radius {R.max():.1f} exceeds profile x_max "
            f"{solution.profile.x_max:.1f}")
    pre = 1.0 / math.sqrt(4.0 * math.pi)
    F, G = fg(R)
    f = pre * F
    g_over_r = pre * G / R
    up = (f.astype(complex),
          np.zeros_like(f, dtype=complex),
          1j * g_over_r * Z,
          1j * g_over_r * (X + 1j * Y))
    dn = (np.zeros_like(f, dtype=complex),
          f.astype(complex),
          1j * g_over_r * (X - 1j * Y),
          -1j * g_over_r * Z)
    weights = w1[:, None, None] * w1[None, :, None] * w1[None, None, :]
    return (X, Y, Z), h, weights, up, dn


def atoms_dense(solution, spec: GridSpec) -> np.ndarray:
    """All 16 real atoms of the streamed grid over the whole cube, as
    (16, n, n, n): the fields f, g x/r, g y/r and g z/r, then D1, D2 and D3
    of each, by one np.gradient call per field over all three axes. The
    bit-for-bit reference of spingrid._slabs, which builds only the atoms a
    check reads, slab by slab, and takes the same radius: a node is
    +-(2i + 1) h/2 on each axis, so R = (h/2) sqrt(s) with s the integer sum
    of its three odd squares."""
    fg = _radial_interpolant(solution)
    ax, h, _w = _axes_weights(spec)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    odd = np.abs(2 * np.arange(spec.n) - (spec.n - 1))
    sq = odd * odd
    R = 0.5 * h * np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
    pre = 1.0 / math.sqrt(4.0 * math.pi)
    F, G = fg(R)
    g_over_r = pre * G / R
    atoms = np.empty((4, 4) + X.shape)  # (atom kind, field, ...)
    for j, c in enumerate((pre * F, g_over_r * X, g_over_r * Y, g_over_r * Z)):
        dx, dy, dz = np.gradient(c, h, edge_order=2)
        atoms[:, j] = c, Y * dz - Z * dy, Z * dx - X * dz, X * dy - Y * dx
    return atoms.reshape((16,) + X.shape)


def _gradients(comps, h):
    """(d/dx, d/dy, d/dz) of each component, central differences."""
    return tuple(tuple(np.gradient(c, h, axis=ax, edge_order=2) for ax in range(3))
                 for c in comps)


def _orbital(grads_c, coords, which: str):
    """L_3, L_+ or L_- of one component from its cached gradients."""
    X, Y, Z = coords
    dx, dy, dz = grads_c
    if which == "3":
        return -1j * (X * dy - Y * dx)
    L1 = -1j * (Y * dz - Z * dy)
    L2 = -1j * (Z * dx - X * dz)
    return L1 + 1j * L2 if which == "+" else L1 - 1j * L2


def _apply_j(comps, grads, coords, which: str):
    """J = L + Sigma/2 applied componentwise; Sigma acts blockwise as sigma."""
    orb = [_orbital(g, coords, which) for g in grads]
    c0, c1, c2, c3 = comps
    zero = np.zeros_like(c0)
    if which == "3":
        spin = (0.5 * c0, -0.5 * c1, 0.5 * c2, -0.5 * c3)
    elif which == "+":
        spin = (c1, zero, c3, zero)
    else:
        spin = (zero, c0, zero, c2)
    return tuple(o + s for o, s in zip(orb, spin))


def _norm2(comps, weights) -> float:
    return sum(float(np.sum(weights * (c.real ** 2 + c.imag ** 2))) for c in comps)


def ladder_residuals_dense(solution, spec: GridSpec, radial=None) -> LadderReport:
    """Grid L2 residuals of all six ladder relations.

    radial(solution) builds the interpolant r -> (F(r), G(r)); by default the
    package's. Gradients are computed once per field and reused across the
    three J applications; the two fields are processed one after the other to
    bound peak memory on fine grids.
    """
    coords, h, w, up, dn = _sample_fields(solution, spec, radial)
    n_up = math.sqrt(_norm2(up, w))
    n_dn = math.sqrt(_norm2(dn, w))

    def dist(a, b, norm):
        return math.sqrt(_norm2(tuple(x - y for x, y in zip(a, b)), w)) / norm

    zero4 = tuple(np.zeros_like(up[0]) for _ in range(4))
    half_up = tuple(0.5 * c for c in up)
    half_dn = tuple(-0.5 * c for c in dn)

    grads = _gradients(up, h)
    jplus_up = dist(_apply_j(up, grads, coords, "+"), zero4, n_up)
    j3_up = dist(_apply_j(up, grads, coords, "3"), half_up, n_up)
    jminus_up = dist(_apply_j(up, grads, coords, "-"), dn, n_dn)
    grads = _gradients(dn, h)
    jminus_dn = dist(_apply_j(dn, grads, coords, "-"), zero4, n_dn)
    j3_dn = dist(_apply_j(dn, grads, coords, "3"), half_dn, n_dn)
    jplus_dn = dist(_apply_j(dn, grads, coords, "+"), up, n_up)
    return LadderReport(
        jplus_up=jplus_up, j3_up=j3_up, jminus_up=jminus_up,
        jminus_dn=jminus_dn, j3_dn=j3_dn, jplus_dn=jplus_dn,
        grid_spec=spec,
    )


def sz_grid_integral_dense(solution, spec: GridSpec, radial=None) -> float:
    """Dimensionless grid integral of phi_up^+ J_3 phi_up (converges to Q/2);
    radial as in ladder_residuals_dense."""
    coords, h, w, up, _dn = _sample_fields(solution, spec, radial)
    j3up = _apply_j(up, _gradients(up, h), coords, "3")
    total = 0.0
    for a, b in zip(up, j3up):
        total += float(np.sum(w * (a.conj() * b).real))
    return total


def shoot(Omega: float, bracket0: tuple, shoot_tol: float = 1e-12,
          opts: Optional[SolverOptions] = None,
          shooter: Optional[_Shooter] = None) -> ShootingResult:
    """Bisect the shooting amplitude between opposite classifications.

    Bisection continues to float exhaustion (adjacent representable values),
    which minimizes contamination of the far tail by the unstable mode; the
    shoot_tol contract (bracket width <= opts.shoot_tol * max(1, F0)) is
    then met with large margin. The shoot_tol keyword only builds the default
    options when opts is None.
    """
    if not 0.0 < Omega < 1.0:
        raise DomainError(f"Omega must lie in (0, 1), got {Omega}")
    opts = opts or SolverOptions(shoot_tol=shoot_tol)
    sh = shooter or _Shooter(Omega, opts)
    rtol = opts.final_rtol
    lo, hi = float(bracket0[0]), float(bracket0[1])
    history = []
    out_lo, halt_lo = sh.trial(lo, rtol, clamped=True)
    out_hi, halt_hi = sh.trial(hi, rtol, clamped=True)
    history.append((lo, out_lo.value))
    history.append((hi, out_hi.value))
    sides = {out_lo, out_hi}
    if sides != {Outcome.DIVERGED_UP, Outcome.DIVERGED_DOWN}:
        raise BracketError(
            f"bracket endpoints classify as {out_lo.value}/{out_hi.value}, "
            "need one diverged_up and one diverged_down")
    if out_lo is Outcome.DIVERGED_DOWN:
        lo, hi = hi, lo  # keep lo on the undershoot side
    n_iter = 0
    for n_iter in range(1, opts.max_iterations + 1):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        out, _halt = sh.trial(mid, rtol, clamped=True)
        history.append((mid, out.value))
        if out is Outcome.DECAYED:
            lo = hi = mid
            break
        if out is Outcome.DIVERGED_UP:
            lo = mid
        else:
            hi = mid
    F0 = 0.5 * (lo + hi)
    width = abs(hi - lo)
    if not width <= opts.shoot_tol * max(1.0, abs(F0)):
        raise ConvergenceError(
            f"bisection stalled with bracket width {width:.3e} at Omega = {Omega}")
    bracket = (min(lo, hi), max(lo, hi))
    return ShootingResult(F0=F0, bracket=bracket, n_iterations=n_iter,
                          classification_history=tuple(history))


# --- phase ensemble ---------------------------------------------------------------

def draw_phases(seed: int, realization_index: int, n: int) -> np.ndarray:
    """n uniform phases in [0, 2*pi): draws r*n ... r*n + n - 1 of the
    Philox stream keyed (seed, 0).

    The constructor's counter counts blocks of four draws, so the generator
    starts at block r*n // 4 and discards the r*n % 4 draws before the first.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 phases, got {n}")
    start = realization_index * n
    key = np.array([seed, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=start // 4))
    gen.random(start % 4)
    return gen.random(n) * (2.0 * math.pi)


def _coherence(phases: np.ndarray) -> float:
    """Coherence factor (1/N)|sum_j e^{i theta_j}|^2 of one realization."""
    z = np.exp(1j * phases).sum()
    return (z.real * z.real + z.imag * z.imag) / phases.size


def ensemble_estimate(spec: EnsembleSpec, pair: EntangledPair) -> EnsembleEstimate:
    """Phase average over R independent realizations, with standard error."""
    p_exact = epr_correlation(pair, spec.a, spec.b).P_exact
    values = np.empty(spec.realizations)
    for r in range(spec.realizations):
        values[r] = _coherence(draw_phases(spec.seed, r, spec.n_trials)) * p_exact
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(spec.realizations))
    # Var C = 1 - 1/N for N uniform phases
    stderr_exact = abs(p_exact) * math.sqrt((1.0 - 1.0 / spec.n_trials) / spec.realizations)
    return EnsembleEstimate(mean=mean, stderr=stderr, stderr_exact=stderr_exact,
                            per_realization=tuple(float(v) for v in values))
