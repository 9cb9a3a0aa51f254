"""Independent numerical oracles used to cross-check the pipeline.

Everything here deliberately avoids the package's integrator, quadrature,
CHSH optimizer and streamed spin grid: classic fixed-step RK4 with
Richardson-extrapolated trapezoid sums, adaptive quad for the analytic tail,
a brute-force angle search for the CHSH maximum, and the dense complex-valued
3-D spin grid. Tolerances of the cross-checks reflect these methods' own
accuracy, not the pipeline's.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from solitonlab.errors import GridError
from solitonlab.spingrid import GridSpec, LadderReport


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

def _radial_splines(solution):
    """Cubic splines of F and G anchored at the origin (F flat, G linear)."""
    p = solution.profile
    x = np.concatenate([[0.0], p.grid])
    F = np.concatenate([[p.F[0]], p.F])
    G = np.concatenate([[0.0], p.G])
    return CubicSpline(x, F), CubicSpline(x, G)


def _axes_weights(spec: GridSpec):
    ax = np.linspace(-spec.extent, spec.extent, spec.n)
    if spec.n % 2:
        raise GridError("grid point count must be even to exclude the origin")
    h = ax[1] - ax[0]
    w = np.full(spec.n, h)
    w[0] = w[-1] = 0.5 * h  # trapezoid end weights
    return ax, h, w


def _sample_fields(solution, spec: GridSpec):
    fs, gs = _radial_splines(solution)
    ax, h, w1 = _axes_weights(spec)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    R = np.sqrt(X * X + Y * Y + Z * Z)
    if R.max() > solution.profile.x_max:
        # spline extrapolation beyond the stored grid is not trustworthy
        raise GridError(
            f"grid corner radius {R.max():.1f} exceeds profile x_max "
            f"{solution.profile.x_max:.1f}")
    pre = 1.0 / math.sqrt(4.0 * math.pi)
    f = pre * fs(R)
    g_over_r = pre * gs(R) / R
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


def ladder_residuals_dense(solution, spec: GridSpec) -> LadderReport:
    """Grid L2 residuals of all six ladder relations.

    Gradients are computed once per field and reused across the three J
    applications; the two fields are processed one after the other to bound
    peak memory on fine grids.
    """
    coords, h, w, up, dn = _sample_fields(solution, spec)
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


def sz_grid_integral_dense(solution, spec: GridSpec) -> float:
    """Dimensionless grid integral of phi_up^+ J_3 phi_up (converges to Q/2)."""
    coords, h, w, up, _dn = _sample_fields(solution, spec)
    j3up = _apply_j(up, _gradients(up, h), coords, "3")
    total = 0.0
    for a, b in zip(up, j3up):
        total += float(np.sum(w * (a.conj() * b).real))
    return total
