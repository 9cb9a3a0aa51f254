"""Command-line front end: solve, sweep, observables, correlate, chsh, ensemble.

Exit codes: 0 success, 2 solver non-convergence, 3 invalid input, 4 I/O
failure. All floats in emitted JSON/CSV use the shortest round-trip decimal
representation, so artifacts parse back bit-exactly. Solutions are cached by
(Omega, tolerance hash, code version) under --cache-dir, the SOLITONLAB_CACHE
environment variable, or ~/.cache/solitonlab.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

from . import __version__, archive
from .correlation import (build_singlet, chsh, chsh_optimize, epr_correlation,
                          pair_correlation_fn)
from .ensemble import EnsembleSpec, ensemble_estimate
from .errors import (BracketError, ConvergenceError, DomainError, GridError,
                     IntegrationError, QuadratureError, SolitonLabError, TailError)
from .observables import compute_integrals, identity_report
from .params import calibrate_lambda, make_params, to_dimensionless, with_lambda
from .radial import SolverOptions, solve_ground

SWEEP_COLUMNS = ["Omega", "F0", "Q", "Qs", "I4", "J4", "T", "nu_fit",
                 "d1_residual", "d2_residual", "v13", "v15", "v16",
                 "energy_ratio", "lambda_calibrated", "status"]

_SOLVER_FAILURES = (BracketError, ConvergenceError, TailError,
                    IntegrationError, QuadratureError, GridError)


@dataclass
class RunConfig:
    """Validated, merged configuration of one CLI invocation."""
    command: str
    omega: Optional[float] = None
    omega_min: Optional[float] = None
    omega_max: Optional[float] = None
    steps: Optional[int] = None
    hbar: float = 1.0
    c: float = 1.0
    ell0: float = 1.0
    solution: Optional[str] = None
    a: Optional[str] = None
    a_prime: Optional[str] = None
    b: Optional[str] = None
    b_prime: Optional[str] = None
    optimize: bool = False
    n_trials: int = 64
    realizations: int = 4096
    seed: int = 42
    out: Optional[str] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    jobs: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)


def _parse_vector(text: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as err:
        raise DomainError(f"cannot parse vector {text!r}: {err}")
    if len(parts) != 3:
        raise DomainError(f"analyzer vector needs 3 components, got {text!r}")
    return tuple(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Nonlinear spinor-field soliton laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cache=False):
        p.add_argument("--config", default=None, help="JSON file with option defaults")
        p.add_argument("--out", default=None, help="output artifact path")
        if cache:
            p.add_argument("--cache-dir", default=None)
            p.add_argument("--no-cache", action="store_true", default=None)

    def solver_opts(p):
        p.add_argument("--x-max", type=float, default=None, dest="x_max")
        p.add_argument("--mesh-dx", type=float, default=None, dest="mesh_dx")
        p.add_argument("--shoot-tol", type=float, default=None, dest="shoot_tol")
        p.add_argument("--scan-step", type=float, default=None, dest="scan_step")
        p.add_argument("--scan-max", type=float, default=None, dest="scan_max")
        p.add_argument("--scan-rtol", type=float, default=None, dest="scan_rtol")
        p.add_argument("--final-rtol", type=float, default=None, dest="final_rtol")

    p = sub.add_parser("solve", help="solve one ground state and archive it")
    p.add_argument("--omega", type=float, required=True, help="frequency (physical units)")
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--ell0", type=float, default=None)
    solver_opts(p)
    common(p, cache=True)

    p = sub.add_parser("sweep", help="solve a frequency sweep, emit CSV")
    p.add_argument("--omega-min", type=float, required=True, dest="omega_min")
    p.add_argument("--omega-max", type=float, required=True, dest="omega_max")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    solver_opts(p)
    common(p, cache=True)

    p = sub.add_parser("observables", help="recompute integrals from an archive")
    p.add_argument("--solution", required=True)
    common(p)

    p = sub.add_parser("correlate", help="exact EPR correlation for two analyzers")
    p.add_argument("--solution", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    common(p)

    p = sub.add_parser("chsh", help="CHSH statistic (four analyzers or --optimize)")
    p.add_argument("--solution", required=True)
    p.add_argument("--a", default=None)
    p.add_argument("--a-prime", default=None, dest="a_prime")
    p.add_argument("--b", default=None)
    p.add_argument("--b-prime", default=None, dest="b_prime")
    p.add_argument("--optimize", action="store_true", default=None)
    common(p)

    p = sub.add_parser("ensemble", help="Monte-Carlo phase-averaged correlation")
    p.add_argument("--solution", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n-trials", type=int, default=None, dest="n_trials")
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    return parser


def _read_config(path: str) -> dict:
    """Read a JSON config file of option defaults; each value must have the
    type its option is annotated with (an int is accepted for a float)."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DomainError(f"cannot parse config file {path}: {err}")
    if not isinstance(file_cfg, dict):
        raise DomainError("config file must hold a JSON object")
    hints = {**get_type_hints(RunConfig), **get_type_hints(SolverOptions)}
    for key, value in file_cfg.items():
        hint = hints.get(key.replace("-", "_"))
        if value is None or hint is None:
            continue  # unset, or an unknown key that the merge reports
        types = tuple(t for t in get_args(hint) if t is not type(None)) or (hint,)
        if float in types:
            types += (int,)
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise DomainError(f"config key {key!r} must be of type "
                              f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
    return file_cfg


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flags > config file > defaults."""
    file_cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig(command=args.command)
    solver_kwargs = {}
    solver_fields = {f.name for f in fields(SolverOptions)}
    names = list(vars(args)) + [k.replace("-", "_") for k in file_cfg]
    for name in dict.fromkeys(names):
        if name in ("command", "config"):
            continue
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name.replace("_", "-"), file_cfg.get(name))
        if value is None:
            continue
        if name in solver_fields:
            solver_kwargs[name] = value
        elif hasattr(cfg, name):
            setattr(cfg, name, value)
        else:
            raise DomainError(f"unknown configuration key {name!r}")
    if solver_kwargs:
        cfg.solver = replace(SolverOptions(), **solver_kwargs)
    return cfg


def _cache_dir(cfg: RunConfig) -> Optional[str]:
    if cfg.no_cache:
        return None
    if cfg.cache_dir:
        return cfg.cache_dir
    env = os.environ.get("SOLITONLAB_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "solitonlab")


def _emit(cfg: RunConfig, doc: dict, summary: str) -> None:
    print(summary)
    if cfg.out:
        archive.write_json_atomic(cfg.out, doc)
    else:
        print(archive.dumps(doc))


def _solve_document(omega: float, cfg: RunConfig) -> dict:
    """Solve (through the cache if enabled) and return the archive document."""
    params0 = make_params(hbar=cfg.hbar, c=cfg.c, ell0=cfg.ell0, omega=omega)
    dimless = to_dimensionless(params0)
    cache_dir = _cache_dir(cfg)
    path = None
    if cache_dir:
        path = archive.cache_path(cache_dir, dimless.Omega, cfg.solver, __version__,
                                  params0)
        try:
            doc = archive.read_json(path)
            archive.check_schema(doc)
            return doc
        except (FileNotFoundError, ValueError):
            pass  # absent, not JSON or another schema: a miss, overwritten below
    solution = solve_ground(dimless.Omega, cfg.solver)
    obs = compute_integrals(solution)
    ids = identity_report(obs, solution.Omega)
    lam = calibrate_lambda(obs.Q, ell0=params0.ell0, hbar=params0.hbar)
    params = with_lambda(params0, lam)
    doc = archive.archive_document(solution, obs, ids, params)
    if path:
        archive.write_json_atomic(path, doc)
    return doc


def _cmd_solve(cfg: RunConfig) -> int:
    doc = _solve_document(cfg.omega, cfg)
    t = doc["tail"]
    summary = (f"solve Omega={doc['Omega']:.6g}: F0={doc['shooting']['F0']:.12g} "
               f"Q={doc['observables']['Q']:.12g} nu_fit={t['nu_fit']:.6g} "
               f"lambda={doc['calibration']['lambda']:.12g}")
    _emit(cfg, doc, summary)
    return 0


def _sweep_row(omega: float, cfg: RunConfig) -> dict:
    row = {c: "" for c in SWEEP_COLUMNS}
    row["Omega"] = repr(float(omega))
    try:
        doc = _solve_document(omega, cfg)
    except _SOLVER_FAILURES as err:
        row["status"] = f"error:{type(err).__name__}"
        return row
    o, i = doc["observables"], doc["identities"]
    values = {
        "F0": doc["shooting"]["F0"], "Q": o["Q"], "Qs": o["Qs"], "I4": o["I4"],
        "J4": o["J4"], "T": o["T"], "nu_fit": doc["tail"]["nu_fit"],
        "d1_residual": i["d1_residual"], "d2_residual": i["d2_residual"],
        "v13": i["v13"], "v15": i["v15"], "v16": i["v16"],
        "energy_ratio": i["energy_ratio"],
        "lambda_calibrated": doc["calibration"]["lambda"],
    }
    row.update({k: repr(float(v)) for k, v in values.items()})
    row["status"] = "ok"
    return row


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.steps is None or cfg.steps < 2:
        raise DomainError(f"sweep needs steps >= 2, got {cfg.steps}")
    if not (0.0 < cfg.omega_min < cfg.omega_max < cfg.c / cfg.ell0):
        raise DomainError(
            f"sweep range ({cfg.omega_min}, {cfg.omega_max}) must satisfy "
            f"0 < min < max < c/ell0")
    omegas = [cfg.omega_min + k * (cfg.omega_max - cfg.omega_min) / (cfg.steps - 1)
              for k in range(cfg.steps)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_sweep_row, omegas, [cfg] * len(omegas)))
    else:
        rows = [_sweep_row(w, cfg) for w in omegas]
    lines = [",".join(SWEEP_COLUMNS)]
    lines += [",".join(row[c] for c in SWEEP_COLUMNS) for row in rows]
    text = "\n".join(lines) + "\n"
    if cfg.out:
        archive.write_text_atomic(cfg.out, text)
    else:
        sys.stdout.write(text)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep [{cfg.omega_min}, {cfg.omega_max}] x {cfg.steps}: {n_ok} ok, "
          f"{len(rows) - n_ok} failed")
    return 0 if n_ok else 2


def _load_solution(cfg: RunConfig):
    try:
        return archive.solution_from_document(archive.read_json(cfg.solution))
    except (ValueError, KeyError, TypeError) as err:
        # not JSON, another schema_version, or a missing or mistyped field
        raise DomainError(f"cannot load {cfg.solution}: {err!r}")


def _cmd_observables(cfg: RunConfig) -> int:
    solution, _obs, _ids, params = _load_solution(cfg)
    obs = compute_integrals(solution)
    ids = identity_report(obs, solution.Omega)
    doc = archive.archive_document(solution, obs, ids, params)
    summary = (f"observables Omega={solution.Omega:.6g}: Q={obs.Q:.12g} "
               f"T={obs.T:.12g} d1={ids.d1_residual:.3e} d2={ids.d2_residual:.3e} "
               f"E/hw={ids.energy_ratio:.9g}")
    _emit(cfg, doc, summary)
    return 0


def _singlet_from_archive(cfg: RunConfig):
    _solution, obs, _ids, params = _load_solution(cfg)
    from .params import dimensionful_norm
    norm = dimensionful_norm(params, obs.Q)
    return build_singlet(norm), params


def _cmd_correlate(cfg: RunConfig) -> int:
    pair, params = _singlet_from_archive(cfg)
    a = _parse_vector(cfg.a)
    b = _parse_vector(cfg.b)
    report = epr_correlation(pair, a, b, hbar=params.hbar)
    doc = {"a": list(report.a), "b": list(report.b), "P_exact": report.P_exact,
           "radial_norm_per_particle": pair.radial_norm_per_particle,
           "two_particle_norm": pair.two_particle_norm}
    _emit(cfg, doc, f"correlate: P(a,b) = {report.P_exact:.12g}")
    return 0


def _cmd_chsh(cfg: RunConfig) -> int:
    pair, params = _singlet_from_archive(cfg)
    if cfg.optimize:
        settings, s = chsh_optimize(pair_correlation_fn(pair, hbar=params.hbar))
        summary = f"chsh: S_max = {s:.9f} (2*sqrt(2) = {2 * math.sqrt(2):.9f})"
    else:
        vectors = [cfg.a, cfg.a_prime, cfg.b, cfg.b_prime]
        if any(v is None for v in vectors):
            raise DomainError("chsh needs --a --a-prime --b --b-prime, or --optimize")
        settings = [_parse_vector(v) for v in vectors]
        s = chsh(*settings, lambda u, v: epr_correlation(pair, u, v,
                                                         hbar=params.hbar).P_exact)
        summary = f"chsh: S = {s:.9f}"
    doc = {name: [float(x) for x in v]
           for name, v in zip(("a", "a_prime", "b", "b_prime"), settings)}
    doc.update(optimized=cfg.optimize, S=s)
    _emit(cfg, doc, summary)
    return 0


def _cmd_ensemble(cfg: RunConfig) -> int:
    pair, params = _singlet_from_archive(cfg)
    spec = EnsembleSpec(n_trials=cfg.n_trials, realizations=cfg.realizations,
                        seed=cfg.seed, a=_parse_vector(cfg.a), b=_parse_vector(cfg.b))
    est = ensemble_estimate(spec, pair, hbar=params.hbar)
    exact = epr_correlation(pair, spec.a, spec.b, hbar=params.hbar).P_exact
    doc = {"spec": {"n_trials": spec.n_trials, "realizations": spec.realizations,
                    "seed": spec.seed, "a": list(spec.a), "b": list(spec.b)},
           "mean": est.mean, "stderr": est.stderr, "exact": exact,
           "seed_used": est.seed_used}
    _emit(cfg, doc, f"ensemble: mean = {est.mean:.6f} +- {est.stderr:.6f} "
                    f"(exact {exact:.6f}, seed {est.seed_used})")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "observables": _cmd_observables,
    "correlate": _cmd_correlate,
    "chsh": _cmd_chsh,
    "ensemble": _cmd_ensemble,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated configuration to its command handler."""
    return _HANDLERS[config.command](config)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad input; report it as invalid input (3)
        return 3 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        return run(cfg)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except _SOLVER_FAILURES as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except SolitonLabError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
