"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s or -rA to see
them). Criteria follow the build contract; tolerances are pinned here, not
calibrated at runtime.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
import solitonlab as sl
from solitonlab.correlation import (chsh_local_strategies, chsh_optimize,
                                    pair_correlation_fn)
from solitonlab.ensemble import (EnsembleSpec, draw_phases, ensemble_estimate,
                                 realization_estimate)
from solitonlab.params import dimensionful_norm
from solitonlab.spingrid import GridSpec, ladder_residuals, sz_grid_integral
from solitonlab import archive

SWEEP_OMEGAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


@pytest.fixture(scope="module")
def solutions(ground):
    return {om: ground(om) for om in SWEEP_OMEGAS}


@pytest.fixture(scope="module")
def observable_sets(solutions):
    return {om: sl.compute_integrals(s) for om, s in solutions.items()}


@pytest.fixture(scope="module")
def identity_reports(solutions, observable_sets):
    return {om: sl.identity_report(observable_sets[om], om) for om in solutions}


def test_criterion_1_solver_existence_and_asymptotics(solutions):
    with criterion(1, "solver existence & asymptotics at Omega in {0.2, 0.5, 0.8}"):
        for om in (0.2, 0.5, 0.8):
            t0 = time.perf_counter()
            s = solutions[om]
            nu = math.sqrt(1.0 - om * om)
            assert abs(s.profile.tail.nu_fit - nu) <= 0.01 * nu
            ratio = oracles.decaying_mode_ratio(s)
            assert abs(ratio - 1.0) <= 0.02
            elapsed = time.perf_counter() - t0
            print(f"  Omega={om}: nu_fit={s.profile.tail.nu_fit:.6f} "
                  f"(exact {nu:.6f}), tail ratio dev "
                  f"{abs(ratio - 1):.2e} [{elapsed:.2f}s cached]")


def test_criterion_2_direct_identities(solutions, observable_sets, identity_reports):
    with criterion(2, "identities d1, d2, Pohozaev <= 1e-6 and finite-difference "
                      "d1 <= 1e-9 for every converged solution"):
        worst_fd = 0.0
        for om, ids in sorted(identity_reports.items()):
            assert ids.d1_residual <= 1e-6, (om, ids.d1_residual)
            assert ids.d2_residual <= 1e-6, (om, ids.d2_residual)
            assert ids.pohozaev_residual <= 1e-6, (om, ids.pohozaev_residual)
            # d1 on a T whose derivatives are differences of the stored F and
            # G; measured 3.6e-13 (Omega = 0.1) to 1.1e-10 (0.8), the fourth-
            # order truncation at the default mesh_dx, so 1e-9 is ~10x the worst
            obs = observable_sets[om]
            fd = abs(oracles.kinetic_fd(solutions[om]) - (om * obs.Q - obs.Qs + obs.I4)) / obs.Q
            assert fd <= 1e-9, (om, fd)
            worst_fd = max(worst_fd, fd)
        worst = max(max(i.d1_residual, i.d2_residual, i.pohozaev_residual)
                    for i in identity_reports.values())
        print(f"  worst residual over {len(identity_reports)} solutions: {worst:.2e}, "
              f"finite-difference d1 {worst_fd:.2e}")


def test_criterion_3_normalization_and_spin(sol05, obs05, params05):
    with criterion(3, "norm calibration to 1e-10, Sz algebraic exact, grid within 2%"):
        norm = dimensionful_norm(params05, obs05.Q)
        assert abs(norm - params05.hbar) <= 1e-10 * params05.hbar
        rep = sl.spin_z(sol05, params05, obs=obs05)
        assert rep.Sz_algebraic == 0.5 * params05.hbar
        assert abs(rep.Sz_grid - rep.Sz_algebraic) <= 0.02 * rep.Sz_algebraic
        err32 = abs(sz_grid_integral(sol05, GridSpec(32, 12.0)) / obs05.Q - 0.5)
        err64 = abs(rep.Sz_grid - 0.5)
        ratio = err32 / err64
        assert 2.5 <= ratio <= 6.5
        print(f"  norm={norm!r}, Sz_grid={rep.Sz_grid:.6f}, "
              f"refinement ratio 32->64: {ratio:.2f}")


def test_criterion_4_energy_positivity(solutions, observable_sets, identity_reports):
    with criterion(4, "E > 0 across the sweep; energy_ratio and Pohozaev residual reported"):
        for om in SWEEP_OMEGAS:
            obs = observable_sets[om]
            ids = identity_reports[om]
            lam = sl.calibrate_lambda(obs.Q)
            params = sl.PhysicalParams(omega=om, lam=lam)
            E, hw, ratio = sl.energy(obs, params)
            assert E > 0.0
            print(f"  Omega={om}: E={E:.6f} E/hw={ratio:.6f} "
                  f"pohozaev_residual={ids.pohozaev_residual:.1e}")


def test_criterion_5_epr_correlation(singlet05):
    with criterion(5, "P(a,b) = -(a.b) to 1e-12 on 1e4 random pairs; pair norm = 1"):
        assert abs(singlet05.two_particle_norm - 1.0) <= 1e-10
        rng = np.random.default_rng(20240901)
        a = rng.normal(size=(10_000, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.normal(size=(10_000, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        p = pair_correlation_fn(singlet05)(a, b)
        worst = float(np.max(np.abs(p + np.sum(a * b, axis=1))))
        assert worst <= 1e-12
        print(f"  worst |P + a.b| over 1e4 pairs: {worst:.2e}")


def test_criterion_6_chsh(singlet05):
    with criterion(6, "CHSH: S_max = 2*sqrt(2) within 1e-6; local strategies <= 2"):
        fn = pair_correlation_fn(singlet05)
        t0 = time.perf_counter()
        _angles, s_max = chsh_optimize(fn)
        elapsed = time.perf_counter() - t0
        assert abs(s_max - 2.0 * math.sqrt(2.0)) <= 1e-6
        locals_ = chsh_local_strategies()
        assert len(locals_) == 16 and max(locals_) <= 2.0
        assert elapsed < 1.0
        print(f"  S_max={s_max:.9f}, local bound {max(locals_)}, {elapsed:.2f}s")


def test_criterion_7_monte_carlo(singlet05):
    with criterion(7, "M-averaging: mean within 4*stderr for 5 pairs; stderr slope -0.5"):
        t0 = time.perf_counter()
        s2 = math.sqrt(0.5)
        pairs = [((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),
                 ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
                 ((0.0, 0.0, 1.0), (s2, 0.0, s2)),
                 ((1.0, 0.0, 0.0), (-s2, s2, 0.0)),
                 ((0.6, 0.0, 0.8), (0.0, 0.8, -0.6))]
        for a, b in pairs:
            spec = EnsembleSpec(n_trials=64, realizations=4096, seed=42, a=a, b=b)
            est = ensemble_estimate(spec, singlet05)
            exact = -sum(x * y for x, y in zip(a, b))
            assert abs(est.mean - exact) <= 4.0 * est.stderr, (a, b, est.mean, exact)
            print(f"  a.b={-exact:+.4f}: mean={est.mean:+.5f} stderr={est.stderr:.5f}")
        sizes = [256, 1024, 4096, 16384]
        errs = []
        for r in sizes:
            spec = EnsembleSpec(n_trials=64, realizations=r, seed=42,
                                a=(0.0, 0.0, 1.0), b=(0.0, 0.0, 1.0))
            errs.append(ensemble_estimate(spec, singlet05).stderr)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.6 <= slope <= -0.4
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        print(f"  stderr slope vs R: {slope:.3f}, total {elapsed:.1f}s")


def test_criterion_8_ladder_grid(sol05):
    with criterion(8, "ladder relations <= 2% at 64^3, ~4x shrink on halved spacing"):
        r64 = ladder_residuals(sol05, GridSpec(n=64, extent=10.0))
        assert r64.max_residual <= 0.02, r64.as_dict()
        r128 = ladder_residuals(sol05, GridSpec(n=128, extent=10.0))
        for key, coarse in r64.as_dict().items():
            ratio = coarse / r128.as_dict()[key]
            assert 2.5 <= ratio <= 6.0, (key, ratio)
        print(f"  max residual 64^3: {r64.max_residual:.4f}, "
              f"128^3: {r128.max_residual:.4f}")


def test_criterion_9_reproducibility(sol05, obs05, ids05, params05, singlet05, tmp_path):
    with criterion(9, "bit-determinism of solves, archives and seeded ensembles"):
        s2 = sl.solve_ground(0.5)
        assert s2.shooting == sol05.shooting
        for name in ("grid", "F", "G", "dF", "dG"):
            assert np.array_equal(getattr(s2.profile, name),
                                  getattr(sol05.profile, name))
        doc = archive.archive_document(sol05, obs05, ids05, params05)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        archive.write_json_atomic(str(p1), doc)
        archive.write_json_atomic(str(p2), doc)
        assert p1.read_bytes() == p2.read_bytes()
        s_back, o_back, _i, _p = archive.solution_from_document(
            archive.read_json(str(p1)))
        assert np.array_equal(s_back.profile.F, sol05.profile.F)
        assert o_back.Q == obs05.Q
        spec = EnsembleSpec(n_trials=32, realizations=64, seed=7)
        e1 = ensemble_estimate(spec, singlet05)
        e2 = ensemble_estimate(spec, singlet05)
        assert e1 == e2
        # realization 0 is the first 32 draws of seed 7's stream
        assert e1.per_realization[0] == realization_estimate(
            draw_phases(7, 0, 32), singlet05, spec.a, spec.b)
        print("  solve/archive/ensemble all bit-reproducible")
