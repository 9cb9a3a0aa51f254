"""Adaptive Dormand-Prince 5(4) integrator for the 2-component radial system.

Pure-Python scalar arithmetic: the radial state is just (F, G), and avoiding
array overhead makes a shooting trial run in milliseconds. The embedded
4th-order solution provides the local error estimate; a standard controller
with safety factor 0.9 and growth limits [0.2, 5] drives the step size.

A solve runs none of this code: radial._march performs Stepper's arithmetic
with the radial right-hand side inlined and takes only the tableau and the
controller constants from here. Stepper and integrate_mesh are the generic
reference that the tests check _march against and that the benchmark's L0
probes time.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import IntegrationError

# Dormand-Prince 5(4) tableau
C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                           49.0 / 176.0, -5103.0 / 18656.0)
B1, B3, B4, B5, B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# error coefficients: 5th-order minus embedded 4th-order weights
E1, E3, E4, E5, E6, E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
SAFETY = 0.9

Rhs = Callable[[float, float, float], tuple]
Check = Callable[[float, float, float], Optional[str]]


class Stepper:
    """Stateful DP5 stepper over (F, G) with FSAL reuse."""

    def __init__(self, f: Rhs, x: float, F: float, G: float,
                 rtol: float, atol: float = 1e-300, max_step: float = 1.0):
        self.f = f
        self.x = x
        self.F = F
        self.G = G
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.k1 = f(x, F, G)
        self.h = min(1e-3, max_step)

    def advance_to(self, x_target: float) -> None:
        """Take one accepted step, clamped so x never passes x_target."""
        f = self.f
        rtol, atol = self.rtol, self.atol
        x, F, G = self.x, self.F, self.G
        k1F, k1G = self.k1
        h = min(self.h, self.max_step, x_target - x)
        while True:
            if h < 1e-14 * max(1.0, abs(x)):
                raise IntegrationError(f"step size underflow at x = {x}")
            k2F, k2G = f(x + C2 * h, F + h * A21 * k1F, G + h * A21 * k1G)
            k3F, k3G = f(x + C3 * h,
                         F + h * (A31 * k1F + A32 * k2F),
                         G + h * (A31 * k1G + A32 * k2G))
            k4F, k4G = f(x + C4 * h,
                         F + h * (A41 * k1F + A42 * k2F + A43 * k3F),
                         G + h * (A41 * k1G + A42 * k2G + A43 * k3G))
            k5F, k5G = f(x + C5 * h,
                         F + h * (A51 * k1F + A52 * k2F + A53 * k3F + A54 * k4F),
                         G + h * (A51 * k1G + A52 * k2G + A53 * k3G + A54 * k4G))
            k6F, k6G = f(x + h,
                         F + h * (A61 * k1F + A62 * k2F + A63 * k3F + A64 * k4F + A65 * k5F),
                         G + h * (A61 * k1G + A62 * k2G + A63 * k3G + A64 * k4G + A65 * k5G))
            Fn = F + h * (B1 * k1F + B3 * k3F + B4 * k4F + B5 * k5F + B6 * k6F)
            Gn = G + h * (B1 * k1G + B3 * k3G + B4 * k4G + B5 * k5G + B6 * k6G)
            k7F, k7G = f(x + h, Fn, Gn)
            eF = h * (E1 * k1F + E3 * k3F + E4 * k4F + E5 * k5F + E6 * k6F + E7 * k7F)
            eG = h * (E1 * k1G + E3 * k3G + E4 * k4G + E5 * k5G + E6 * k6G + E7 * k7G)
            sF = atol + rtol * max(abs(F), abs(Fn))
            sG = atol + rtol * max(abs(G), abs(Gn))
            err = math.sqrt(0.5 * ((eF / sF) ** 2 + (eG / sG) ** 2))
            if err <= 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR,
                                                           max(MIN_FACTOR, SAFETY * err ** -0.2))
                self.x = x + h
                self.F, self.G = Fn, Gn
                self.k1 = (k7F, k7G)
                self.h = min(h * factor, self.max_step)
                return
            h *= max(MIN_FACTOR, SAFETY * err ** -0.2)


def integrate_mesh(f: Rhs, mesh, F0: float, G0: float,
                   rtol: float, atol: float = 1e-300, max_step: float = 1.0,
                   check: Optional[Check] = None):
    """Integrate landing exactly on every mesh node; record values there.

    Steps remain adaptive but are clamped to never overshoot the next node,
    so recorded values carry no interpolation error. Returns
    (xs, Fs, Gs, reason) where reason is "end" or the check value fired at a
    node; the lists end at that node.
    """
    xs = [float(mesh[0])]
    Fs = [F0]
    Gs = [G0]
    if check is not None:
        reason = check(mesh[0], F0, G0)
        if reason:
            return xs, Fs, Gs, reason
    st = Stepper(f, float(mesh[0]), F0, G0, rtol, atol, max_step)
    for x_node in mesh[1:]:
        x_node = float(x_node)
        while st.x < x_node:
            st.advance_to(x_node)
        xs.append(st.x)
        Fs.append(st.F)
        Gs.append(st.G)
        if check is not None:
            reason = check(st.x, st.F, st.G)
            if reason:
                return xs, Fs, Gs, reason
    return xs, Fs, Gs, "end"
