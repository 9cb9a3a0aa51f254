"""Independent numerical oracles used to cross-check the pipeline.

Everything here deliberately avoids the package's integrator, quadrature and
CHSH optimizer: classic fixed-step RK4 with Richardson-extrapolated trapezoid
sums, adaptive quad for the analytic tail, and a brute-force angle search
for the CHSH maximum. Tolerances of the cross-checks reflect these methods'
own accuracy, not the pipeline's.
"""
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize


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
