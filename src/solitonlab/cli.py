"""Command-line front end: solve, sweep, observables, correlate, chsh, ensemble.

A flag is its option's RunConfig or SolverOptions field name with dashes,
typed by the field's annotation; a --config JSON file takes the same names
and checks its values against the same annotations. _COMMANDS lists each
command's handler and options.

Exit codes: 0 success, 2 solver non-convergence, 3 invalid input, 4 I/O
failure. All floats in emitted JSON/CSV use the shortest round-trip decimal
representation, so artifacts parse back bit-exactly. Solutions are cached by
(Omega, tolerance hash, code version) under --cache-dir, the SOLITONLAB_CACHE
environment variable, or ~/.cache/solitonlab.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, get_args, get_type_hints

from . import __version__, archive
from .correlation import (build_singlet, chsh, chsh_optimize, epr_correlation,
                          pair_correlation_fn)
from .ensemble import EnsembleSpec, ensemble_estimate
from .errors import DomainError, SolitonLabError
from .params import PhysicalParams, dimensionful_norm
from .radial import SolverOptions, solve_ground

SWEEP_COLUMNS = ["Omega", "F0", "Q", "Qs", "I4", "J4", "T", "nu_fit",
                 "d1_residual", "d2_residual", "pohozaev_residual", "energy_ratio",
                 "lambda_calibrated", "status", "message"]

_MAX_SWEEP_STEPS = 100_000
# the pool forks all its workers up front
_MAX_JOBS = 64

# what reading and archive.solution_from_document raise for a bad archive,
# including the final pass it re-runs (say, TailError for a forged glue_frac)
_UNLOADABLE = (ValueError, KeyError, TypeError, ArithmeticError, SolitonLabError)


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


def _option_types() -> dict:
    """Each option's type: its RunConfig or SolverOptions field's annotation
    without Optional, and str for --config, the file that is read."""
    hints = {**get_type_hints(RunConfig), **get_type_hints(SolverOptions), "config": str}
    return {name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
            for name, hint in hints.items()}


def _build_parser() -> argparse.ArgumentParser:
    """Each command's flags, from _COMMANDS and _option_types(); a bool option
    is a switch. No flag has a default, so _merge_config sees which were given."""
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="Nonlinear spinor-field soliton laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    types = _option_types()
    for command, (help_line, options, _handler) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for option in options.split():
            name = option.rstrip("!")
            kind = ({"action": "store_true"} if types[name] is bool
                    else {"type": types[name]})
            p.add_argument("--" + name.replace("_", "-"), default=None,
                           required=option.endswith("!"), help=_HELP.get(name), **kind)
    return parser


def _read_config(path: str) -> dict:
    """Read a JSON config file of option defaults; each value must have the
    type its option is annotated with. An int given for a float is converted
    with float(), as a flag's value is parsed, and refused if it overflows."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    # a ValueError too for an integer past the int-to-str digit limit
    except ValueError as err:
        raise DomainError(f"cannot parse config file {path}: {err}")
    if not isinstance(file_cfg, dict):
        raise DomainError("config file must hold a JSON object")
    option_types = _option_types()
    for key, value in file_cfg.items():
        kind = option_types.get(key.replace("-", "_"))
        if value is None or kind is None:
            continue  # unset, or an unknown key that the merge reports
        types = (float, int) if kind is float else (kind,)
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            raise DomainError(f"config key {key!r} must be of type "
                              f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        if kind is float and isinstance(value, int):
            try:
                file_cfg[key] = float(value)
            except OverflowError:
                raise DomainError(f"config key {key!r} is an integer too large for a float")
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
    if cfg.out:  # before the summary, which a command whose write fails must not print
        archive.write_json_atomic(cfg.out, doc)
    print(summary if cfg.out else f"{summary}\n{archive.dumps(doc)}")


def _solve_document(omega: float, cfg: RunConfig) -> dict:
    """Archive document of a solve at omega for the requested constants. A cache
    hit is an entry that loads as a solve of this Omega and these options."""
    params = PhysicalParams(hbar=cfg.hbar, c=cfg.c, ell0=cfg.ell0, omega=omega)
    cache_dir = _cache_dir(cfg)
    path = cached = None
    if cache_dir:
        path = archive.cache_path(cache_dir, params.Omega, cfg.solver, __version__)
        try:
            loaded = archive.solution_from_document(archive.read_json(path))[0]
            # an entry for other inputs, say copied over this key, is a miss too
            if (loaded.Omega == params.Omega
                    and loaded.provenance["options"] == asdict(cfg.solver)):
                cached = loaded
        except (FileNotFoundError,) + _UNLOADABLE:
            pass  # absent, unreadable or inconsistent: a miss, overwritten below
    solution = cached or solve_ground(params.Omega, cfg.solver)
    doc = archive.archive_document(solution, *archive.derive_report(solution, params))
    if path and not cached:
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
    # a library error, the solver's or a refusal of the row, ends the row, not the sweep
    try:
        doc = _solve_document(omega, cfg)
    except SolitonLabError as err:
        row["status"] = f"error:{type(err).__name__}"
        row["message"] = str(err)
        return row
    values = {**doc["observables"], **doc["identities"], "F0": doc["shooting"]["F0"],
              "nu_fit": doc["tail"]["nu_fit"], "lambda_calibrated": doc["calibration"]["lambda"]}
    # every column between Omega and status is a number of the document
    row.update({c: repr(float(values[c])) for c in SWEEP_COLUMNS[1:-2]})
    row["status"] = "ok"
    return row


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.steps is None or not 2 <= cfg.steps <= _MAX_SWEEP_STEPS:
        raise DomainError(f"sweep needs steps in [2, {_MAX_SWEEP_STEPS}], got {cfg.steps}")
    if not cfg.omega_min < cfg.omega_max:
        raise DomainError(f"sweep range ({cfg.omega_min}, {cfg.omega_max}) "
                          f"must satisfy min < max")
    for omega in (cfg.omega_min, cfg.omega_max):
        # raises DomainError unless the constants admit both ends of the range
        PhysicalParams(hbar=cfg.hbar, c=cfg.c, ell0=cfg.ell0, omega=omega)
    if not 1 <= cfg.jobs <= _MAX_JOBS:
        raise DomainError(f"sweep needs jobs in [1, {_MAX_JOBS}], got {cfg.jobs}")
    omegas = [cfg.omega_min + k * (cfg.omega_max - cfg.omega_min) / (cfg.steps - 1)
              for k in range(cfg.steps)]
    if cfg.jobs > 1:
        # imported here: the pool costs every other CLI process ~10 ms to import
        from concurrent.futures import ProcessPoolExecutor
        # no more workers than there are rows
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(omegas))) as pool:
            rows = list(pool.map(_sweep_row, omegas, [cfg] * len(omegas)))
    else:
        rows = [_sweep_row(w, cfg) for w in omegas]
    # csv quotes a message with a comma, such as the mesh bound's "[0.0001, ...]"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
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
    except _UNLOADABLE as err:
        raise DomainError(f"cannot load {cfg.solution}: {err!r}")


def _cmd_observables(cfg: RunConfig) -> int:
    solution, obs, ids, params = _load_solution(cfg)
    doc = archive.archive_document(solution, obs, ids, params)
    summary = (f"observables Omega={solution.Omega:.6g}: Q={obs.Q:.12g} "
               f"T={obs.T:.12g} d1={ids.d1_residual:.3e} d2={ids.d2_residual:.3e} "
               f"E/hw={ids.energy_ratio:.9g}")
    _emit(cfg, doc, summary)
    return 0


def _singlet_from_archive(cfg: RunConfig):
    _solution, obs, _ids, params = _load_solution(cfg)
    return build_singlet(dimensionful_norm(params, obs.Q) / params.hbar)


def _cmd_correlate(cfg: RunConfig) -> int:
    pair = _singlet_from_archive(cfg)
    a = _parse_vector(cfg.a)
    b = _parse_vector(cfg.b)
    report = epr_correlation(pair, a, b)
    doc = {"a": list(report.a), "b": list(report.b), "P_exact": report.P_exact,
           "radial_norm_per_particle": pair.radial_norm_per_particle,
           "two_particle_norm": pair.two_particle_norm}
    _emit(cfg, doc, f"correlate: P(a,b) = {report.P_exact:.12g}")
    return 0


def _cmd_chsh(cfg: RunConfig) -> int:
    vectors = [cfg.a, cfg.a_prime, cfg.b, cfg.b_prime]
    if cfg.optimize and any(v is not None for v in vectors):
        raise DomainError("chsh --optimize chooses the analyzers itself; "
                          "it takes no --a, --a-prime, --b or --b-prime")
    pair = _singlet_from_archive(cfg)
    if cfg.optimize:
        settings, s = chsh_optimize(pair_correlation_fn(pair))
        summary = f"chsh: S_max = {s:.9f} (2*sqrt(2) = {2 * math.sqrt(2):.9f})"
    else:
        if any(v is None for v in vectors):
            raise DomainError("chsh needs --a --a-prime --b --b-prime, or --optimize")
        settings = [_parse_vector(v) for v in vectors]
        s = chsh(*settings, lambda u, v: epr_correlation(pair, u, v).P_exact)
        summary = f"chsh: S = {s:.9f}"
    doc = {name: [float(x) for x in v]
           for name, v in zip(("a", "a_prime", "b", "b_prime"), settings)}
    doc.update(optimized=cfg.optimize, S=s)
    _emit(cfg, doc, summary)
    return 0


def _cmd_ensemble(cfg: RunConfig) -> int:
    pair = _singlet_from_archive(cfg)
    spec = EnsembleSpec(n_trials=cfg.n_trials, realizations=cfg.realizations,
                        seed=cfg.seed, a=_parse_vector(cfg.a), b=_parse_vector(cfg.b))
    est = ensemble_estimate(spec, pair)
    exact = epr_correlation(pair, spec.a, spec.b).P_exact
    doc = {"spec": {"n_trials": spec.n_trials, "realizations": spec.realizations,
                    "seed": spec.seed, "a": list(spec.a), "b": list(spec.b)},
           "mean": est.mean, "stderr": est.stderr, "stderr_exact": est.stderr_exact,
           "exact": exact}
    _emit(cfg, doc, f"ensemble: mean = {est.mean:.6f} +- {est.stderr:.6f} "
                    f"(exact {exact:.6f}, seed {spec.seed})")
    return 0


# the solver, config, output and cache options that solve and sweep share
_SOLVE_OPTIONS = ("x_max mesh_dx shoot_tol scan_step scan_max scan_rtol final_rtol "
                 "config out cache_dir no_cache")
# each command's help line, its options in --help order ("!" marks a
# required one) and its handler
_COMMANDS = {
    "solve": ("solve one ground state and archive it", f"omega! hbar c ell0 {_SOLVE_OPTIONS}",
              _cmd_solve),
    "sweep": ("solve a frequency sweep, emit CSV",
              f"omega_min! omega_max! steps! jobs {_SOLVE_OPTIONS}", _cmd_sweep),
    "observables": ("recompute integrals from an archive", "solution! config out",
                    _cmd_observables),
    "correlate": ("exact EPR correlation for two analyzers", "solution! a! b! config out",
                  _cmd_correlate),
    "chsh": ("CHSH statistic (four analyzers or --optimize)",
             "solution! a a_prime b b_prime optimize config out", _cmd_chsh),
    "ensemble": ("Monte-Carlo phase-averaged correlation",
                 "solution! a! b! n_trials realizations seed config out", _cmd_ensemble),
}
_HELP = {"omega": "frequency (physical units)", "config": "JSON file with option defaults",
         "out": "output artifact path"}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad input; report it as invalid input (3)
        return 3 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        return _COMMANDS[cfg.command][2](cfg)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except SolitonLabError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
