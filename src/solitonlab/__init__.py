"""solitonlab: nonlinear spinor-field soliton laboratory.

Solves the stationary radial soliton as a shooting boundary-value problem,
verifies its integral identities (norm, spin, energy, scaling), and reproduces
the singlet EPR spin correlation -(a.b) and the CHSH violation both by exact
operator algebra and by Monte-Carlo averaging over random soliton phases.
"""

__version__ = "0.1.0"

from .errors import (SolitonLabError, DomainError, IntegrationError, BracketError,
                     ConvergenceError, TailError, QuadratureError, GridError)
from .params import PhysicalParams, calibrate_lambda, dimensionful_norm
from .radial import (Outcome, RadialState, RadialProfile, ShootingResult,
                     SolitonSolution, SolverOptions, rhs, series_start,
                     shoot, solve_ground)
from .observables import (ObservableSet, IdentityReport, SpinReport,
                          compute_integrals, identity_report, spin_z, energy)
from .correlation import (EntangledPair, CorrelationReport, build_singlet,
                          epr_correlation, pair_correlation_fn, chsh,
                          chsh_optimize, chsh_local_strategies, ladder_check_grid)
from .ensemble import (EnsembleSpec, EnsembleEstimate, draw_phases,
                       realization_estimate, ensemble_estimate)

_GRID_NAMES = ("GridSpec", "LadderReport")


def __getattr__(name):
    # the grid module loads on first use (PEP 562): no CLI command imports it
    if name in _GRID_NAMES:
        from . import spingrid
        return getattr(spingrid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_GRID_NAMES, "spingrid"])
