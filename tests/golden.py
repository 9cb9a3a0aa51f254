"""Frozen reference values for the Omega = 0.5 ground state.

Derived from the pipeline and verified against the independent RK4 +
Richardson-trapezoid oracle in tests/oracles.py (test_radial /
test_observables assert the live cross-checks each run). The shooting
amplitude also agrees with an adaptive RK45 implementation at rtol 1e-10
to 1e-11 absolute.
"""
import math

OMEGA = 0.5

# converged shooting amplitude F(0)
F0_GROUND = 1.3805659286962686

# radial integrals of the converged profile (Simpson on the stored mesh)
Q_NORM = 30.595593674675264
QS_SCALAR = 10.300202901593495
I4_QUARTIC = 9.995187871490767
J4_MIXED = 25.445492223878773
T_KINETIC = 14.992781807234904

# calibrated coupling 4*pi*Q_NORM (hbar = ell0 = 1)
LAMBDA_CALIBRATED = 384.4755692823126

# E/(hbar*omega); exceeds 1 by I4/(2*Omega*Q), the quartic contribution
ENERGY_RATIO = 1.3266871686743582

NU_EXACT = math.sqrt(1.0 - OMEGA * OMEGA)

# grid checks (spingrid), recorded with each node's radius summed from its
# coordinates; the radius table moves them by < 1e-14 relative. Ladder
# residuals (J+ phi_up, J3 phi_up, J- phi_up) at half-width 10; J- phi_dn,
# J3 phi_dn and J+ phi_dn equal them by symmetry
LADDER_64 = (0.013625946283155556, 0.010176277502668064, 0.015118203700631706)
LADDER_128 = (0.0034082338624366187, 0.0025426360606572605, 0.0037741137352707036)
# sz_grid_integral at 64^3, half-width 12
SZ_GRID_64 = 15.208856789193888
