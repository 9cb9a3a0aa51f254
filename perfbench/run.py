"""Benchmark of solitonlab: three seeded workloads with correctness gates.

    python3 perfbench/run.py --workload ground-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each workload runs passes over its seeded inputs for ``--seconds``,
checks every output, prints a table of its metrics and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics, span self times and tracing overhead. A result file with machine
info, inputs, every timing's median/tail/sample count and (traced) all spans
goes to ``perfbench/out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import resource
import runpy
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LADDER128 = HERE / "ladder128.py"
CLI_MAIN = "import sys; from solitonlab.cli import main; sys.exit(main())"

# ground-sweep: the anchor plus one seeded Omega per stratum. Solve cost is
# flat up to Omega ~ 0.8 and then grows with the mesh (x_max = 25/nu reaches
# 125 at 0.98), so the strata narrow there to keep the pass cost from
# depending much on the seed.
ANCHOR = 0.5
STRATA = ((0.05, 0.3), (0.3, 0.55), (0.55, 0.8), (0.8, 0.9), (0.9, 0.95),
          (0.95, 0.965), (0.965, 0.98))
VERIFY_OMEGA = (0.2, 0.8)       # the 64^3 spin and ladder checks hold here
CLI_OMEGA_MIN = (0.1, 0.3)      # sweep range [lo, lo + CLI_WIDTH]
CLI_WIDTH = 0.5
CLI_STEPS = 9
ENSEMBLE = (64, 4096)           # n_trials x realizations
CLI_COMMANDS = ("solve", "observables", "correlate", "chsh", "ensemble")
SETUP_REPEATS = 3

TOL_IDENTITY = 1e-6
TOL_NU = 0.01
TOL_GRID = 0.02
TOL_CHSH = 1e-6
ENSEMBLE_SIGMAS = 4.0

# metric name -> unit, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def summary(values: list) -> dict:
    """Median plus the highest percentile with at least ten samples above it.

    The tail is left out below 20 samples, where that percentile would not
    lie above the median.
    """
    v = sorted(values)
    out = {"median": median(v), "min": v[0], "n": len(v)}
    if len(v) >= 20:
        out["tail"] = v[len(v) - 11]
        out["tail_pct"] = round(100.0 * (len(v) - 10) / len(v), 1)
    return out


def best_pass(per_op: list) -> float:
    """A pass with each of its operations at its fastest of the run.

    The machine's speed drifts by up to 1.7x over seconds to tens of seconds
    (other tenants on the same cores); per-operation minima over the run's
    repeats are what stays steady between runs.
    """
    return sum(min(v) for v in per_op)


@dataclass
class Child:
    wall: float
    rss_mb: float
    cpu_s: float
    returncode: int
    output: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("SOLITONLAB_CACHE", None)
    return env


def run_child(argv: list) -> Child:
    """Run one process to completion; its rusage covers it and its workers.

    os.wait4 returns the rusage of that child alone (including descendants it
    reaped, such as process-pool workers), so each measurement's peak RSS and
    CPU time are its own.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 returncode=proc.returncode, output=output)


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform()}
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu_model"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        info["llc"] = max(levels)[1] if levels else "unknown"
    except OSError:
        info["llc"] = "unknown"
    return info


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "solitonlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Op:
    name: str
    errors: list = field(default_factory=list)
    seconds: float = 0.0

    def gate(self, ok: bool, what: str) -> None:
        """Record a failed check; write ``ok`` so that NaN fails it."""
        if not ok:
            self.errors.append(what)


class Run:
    """State of one benchmark run: samples, counts, failures and spans."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{workload}:{seed}")
        self.tracer = Tracer()
        self.work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.count_errors: list = []
        self.samples: dict = {}
        self.counts: dict = {}
        self.layer: dict = {}
        self.inputs: dict = {}
        self.named: dict = {}
        self.metrics: dict = {}
        self.traced_passes = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: int) -> None:
        """Record a deterministic count; it must repeat exactly."""
        seen = self.counts.setdefault(name, value)
        if seen != value:
            self.count_errors.append(f"{name}: {value} != {seen}")

    @contextmanager
    def op(self, name: str, span: str | None = None):
        """One attempted operation: timed, traced, and failed on any error."""
        op = Op(name)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span or f"bench.{name}", new_op=True):
                yield op
        except Exception as err:  # a failing call counts as a failed operation
            op.errors.append(f"{type(err).__name__}: {err}")
        op.seconds = time.perf_counter() - t0
        self.sample(name, op.seconds)
        if op.errors:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(op.errors))

    def passes(self, between=None, min_passes: int = 1):
        """Yield pass indices while another pass fits in --seconds.

        A pass is started only if the longest one so far would still end
        within --seconds, so a run's length does not depend on how far its
        last pass overshoots. Traced runs alternate untraced and traced
        passes, starting untraced so that first-pass warm-up is not charged
        to tracing, and run at least three. ``between(i)`` runs after pass i,
        outside its timing.
        """
        start = time.perf_counter()
        longest = 0.0
        i = 0
        min_passes = max(min_passes, 3 if self.trace else 1)
        while i < min_passes or time.perf_counter() - start + longest <= self.seconds:
            traced = self.trace and i % 2 == 1
            self.tracer.enabled = traced
            self.traced_passes += traced
            t0 = time.perf_counter()
            with self.tracer.span("bench.pass", new_op=True):
                yield i
            self.sample("pass_traced" if traced else "pass", time.perf_counter() - t0)
            if between is not None:
                self.tracer.enabled = self.trace
                between(i)
            longest = max(longest, time.perf_counter() - t0)
            i += 1
        self.tracer.enabled = False

    def timed_setup(self, argv: list, check) -> None:
        """Repeat the workload's set-up in fresh processes; record each wall."""
        for _ in range(1 if self.trace else SETUP_REPEATS):
            child = run_child(argv)
            if child.returncode != 0:
                raise RuntimeError(f"set-up failed: {child.output.strip()}")
            check()
            self.sample("setup", child.wall)


def gate_solution(op: Op, omega: float, d1: float, d2: float, nu_fit: float) -> None:
    nu = math.sqrt(1.0 - omega * omega)
    op.gate(d1 <= TOL_IDENTITY and d2 <= TOL_IDENTITY,
            f"identity residuals d1={d1:.3e} d2={d2:.3e} at Omega={omega!r}")
    op.gate(abs(nu_fit - nu) <= TOL_NU * nu,
            f"nu_fit={nu_fit!r} vs sqrt(1-Omega^2)={nu!r} at Omega={omega!r}")


def unit_pair(rng: random.Random) -> tuple:
    out = []
    for _ in range(2):
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        out.append(tuple(c / n for c in v))
    return tuple(out)


def dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def import_program():
    sys.path.insert(0, str(SRC))
    import solitonlab
    return solitonlab


# --- ground-sweep -----------------------------------------------------------

def _anchor_rhs(x: float, F: float, G: float) -> tuple:
    """The radial right-hand side (README, "The model") at Omega = 0.5."""
    cub = F * F - G * G
    return ((-(ANCHOR + 1.0) + cub) * G, -2.0 * G / x + ((ANCHOR - 1.0) + cub) * F)


def _anchor_start(f0: float):
    """The solver's default options, Omega = 0.5 mesh and series start at f0."""
    from solitonlab import radial
    opts = radial.SolverOptions()
    nu = math.sqrt(1.0 - ANCHOR * ANCHOR)
    n = int(math.ceil((max(40.0, 25.0 / nu) - opts.x0) / opts.mesh_dx)) + 1
    mesh = [opts.x0 + opts.mesh_dx * k for k in range(n)]
    return opts, mesh, radial.series_start(f0, ANCHOR, opts.x0)


def _reference_trajectory(f0: float) -> tuple:
    """Drive Stepper.advance_to over the Omega = 0.5 mesh from the golden F0.

    Stops at the final pass's glue threshold (F <= glue_frac * F0). Returns
    (accepted steps, rhs calls, seconds); the call counter is in the timing.
    """
    from solitonlab import ivp
    opts, mesh, start = _anchor_start(f0)
    calls = [0]

    def rhs(x, F, G):
        calls[0] += 1
        return _anchor_rhs(x, F, G)

    thresh = opts.glue_frac * f0
    steps = 0
    t0 = time.perf_counter()
    st = ivp.Stepper(rhs, mesh[0], start.F, start.G, rtol=opts.final_rtol)
    for x_node in mesh[1:]:
        while st.x < x_node:
            st.advance_to(x_node)
            steps += 1
        if st.F <= thresh:
            break
    return steps, calls[0], time.perf_counter() - t0


def _full_trial(f0: float) -> float:
    """One clamped shooting trial over the whole anchor mesh, timed.

    Halts on the trial classification's conditions (decay, a sign crossing or
    the blow-up guard), as a bisection trial does.
    """
    from solitonlab import ivp
    opts, mesh, start = _anchor_start(f0)
    guard = opts.blowup_factor * f0

    def check(x, F, G):
        if abs(F) < opts.decay_floor and abs(G) < opts.decay_floor:
            return "decay"
        if F < 0.0 or G < 0.0 or abs(F) > guard or abs(G) > guard:
            return "halt"
        return None

    t0 = time.perf_counter()
    ivp.integrate_mesh(_anchor_rhs, mesh, start.F, start.G,
                       rtol=opts.final_rtol, check=check)
    return time.perf_counter() - t0


def ground_sweep(run: Run) -> None:
    omegas = [ANCHOR] + [run.rng.uniform(lo, hi) for lo, hi in STRATA]
    run.inputs["omegas"] = omegas
    run.timed_setup([sys.executable, "-c", "import solitonlab"], lambda: None)
    sl = import_program()
    golden_f0 = runpy.run_path(str(ROOT / "tests" / "golden.py"))["F0_GROUND"]
    tr = run.tracer

    for _ in run.passes():
        for om in omegas:
            with run.op("solve") as op:
                with tr.span("radial.solve_ground"):
                    sol = sl.solve_ground(om)
                with tr.span("observables.compute_integrals"):
                    obs = sl.compute_integrals(sol)
                with tr.span("observables.identity_report"):
                    ids = sl.identity_report(obs, om)
                with tr.span("params.calibrate_lambda"):
                    lam = sl.calibrate_lambda(obs.Q)
                gate_solution(op, om, ids.d1_residual, ids.d2_residual,
                              sol.profile.tail.nu_fit)
                op.gate(lam > 0.0 and math.isfinite(lam), f"lambda={lam!r}")
                if om == ANCHOR:
                    op.gate(sol.shooting.F0 == golden_f0,
                            f"F0={sol.shooting.F0!r} != golden {golden_f0!r}")
                run.count(f"radial.bisect_trials@{om!r}",
                          len(sol.shooting.classification_history))
            run.sample(f"solve@{om!r}", op.seconds)

    passes = run.samples["pass"]
    solves = summary(run.samples["solve"])
    run.named = {"sweep_s": summary(passes), "solve_s": solves,
                 "anchor_solve_s": summary(run.samples[f"solve@{ANCHOR!r}"])}
    if "tail" in solves:
        run.named["solve_tail_s"] = {"value": solves["tail"],
                                     "percentile": solves["tail_pct"], "n": solves["n"]}
    per_omega = [run.samples[f"solve@{om!r}"] for om in omegas]
    run.metrics = {
        "pass_s": best_pass(per_omega),
        "op_s": best_pass(per_omega) / len(per_omega),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not run.trace:
        return

    from solitonlab import radial
    opts = radial.SolverOptions()
    ref = [_reference_trajectory(golden_f0) for _ in range(5)]
    for steps, calls, _sec in ref:
        run.count("ivp.steps_accepted", steps)
        run.count("ivp.rhs_evals", calls)
    steps, calls = ref[0][0], ref[0][1]
    attempts, extra = divmod(calls - 1, 6)      # FSAL: 1 initial + 6 per attempt
    if extra:
        run.count_errors.append(f"rhs calls {calls} not 1 + 6 per attempt")
    run.layer["ivp.steps_accepted"] = steps
    run.layer["ivp.steps_rejected"] = attempts - steps
    run.layer["ivp.rhs_evals"] = calls
    run.layer["ivp.us_per_step"] = 1e6 * median([r[2] for r in ref]) / steps
    run.layer["radial.trial_s"] = median([_full_trial(golden_f0) for _ in range(3)])

    scans, bisects = [], []
    for _ in range(2):
        t0 = time.perf_counter()
        bracket = radial.coarse_scan(ANCHOR, opts)
        scans.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        shooting = radial.shoot(ANCHOR, bracket, shoot_tol=opts.shoot_tol, opts=opts)
        bisects.append(time.perf_counter() - t0)
        run.count("radial.bisect_trials", len(shooting.classification_history))
    run.layer["radial.scan_s"] = median(scans)
    run.layer["radial.bisect_s"] = median(bisects)
    run.layer["radial.bisect_trials"] = run.counts["radial.bisect_trials"]
    # derived: solve_ground minus its scan and bisection
    run.layer["radial.final_s"] = (median(run.samples[f"solve@{ANCHOR!r}"])
                                   - median(scans) - median(bisects))
    run.layer["observables.integrals_ms"] = 1e3 * median(
        tr.durations("observables.compute_integrals"))


# --- verify -----------------------------------------------------------------

def verify(run: Run) -> None:
    omega = run.rng.uniform(*VERIFY_OMEGA)
    a, b = unit_pair(run.rng)
    ens_seed = run.rng.randrange(2 ** 32)
    run.inputs.update(omega=omega, a=a, b=b, ensemble_seed=ens_seed)
    path = run.work / "solution.json"
    run.timed_setup([sys.executable, "-c", CLI_MAIN, "solve", "--omega", repr(omega),
                     "--no-cache", "--out", str(path)], lambda: path.is_file())

    sl = import_program()
    from solitonlab import archive
    from solitonlab.correlation import (chsh_optimize, ladder_check_grid,
                                        pair_correlation_fn)
    from solitonlab.params import dimensionful_norm
    tr = run.tracer
    tr.enabled = run.trace
    with run.op("load", "archive.read_solution") as op:
        sol, obs, ids, params = archive.solution_from_document(archive.read_json(str(path)))
        gate_solution(op, omega, ids.d1_residual, ids.d2_residual, sol.profile.tail.nu_fit)
    pair = sl.build_singlet(dimensionful_norm(params, obs.Q))
    p_exact = -dot(a, b)
    rss = []      # of the 128^3 children

    def ladder128(i: int) -> None:
        if i % 2 == 0:
            return
        with run.op("ladder128") as op:
            with tr.span("spingrid.ladder_residuals"):
                child = run_child([sys.executable, str(LADDER128), str(path)])
            op.gate(child.returncode == 0, f"ladder128 child: {child.output.strip()}")
            result = json.loads(child.output.strip().splitlines()[-1])
            op.gate(all(r <= TOL_GRID for r in result["residuals"].values()),
                    f"128^3 ladder residuals {result['residuals']}")
            run.sample("grid128", result["seconds"])
            rss.append(child.rss_mb)

    for _ in run.passes(between=ladder128, min_passes=2):
        with run.op("spin_z") as op:
            with tr.span("observables.spin_z"):
                spin = sl.spin_z(sol, params, obs=obs)
            op.gate(abs(spin.Sz_grid - spin.Sz_algebraic) <= TOL_GRID * abs(spin.Sz_algebraic),
                    f"Sz_grid={spin.Sz_grid!r} vs {spin.Sz_algebraic!r}")
        with run.op("ladder64") as op:
            with tr.span("correlation.ladder_check_grid"):
                ladder = ladder_check_grid(sol)
            op.gate(all(r <= TOL_GRID for r in ladder.as_dict().values()),
                    f"64^3 ladder residuals {ladder.as_dict()}")
        with run.op("chsh") as op:
            with tr.span("correlation.chsh_optimize"):
                _angles, s_max = chsh_optimize(pair_correlation_fn(pair))
            op.gate(abs(s_max - 2.0 * math.sqrt(2.0)) <= TOL_CHSH, f"S_max={s_max!r}")
        with run.op("ensemble") as op:
            spec = sl.EnsembleSpec(n_trials=ENSEMBLE[0], realizations=ENSEMBLE[1],
                                   seed=ens_seed, a=a, b=b)
            with tr.span("ensemble.ensemble_estimate"):
                est = sl.ensemble_estimate(spec, pair)
            op.gate(abs(est.mean - p_exact) <= ENSEMBLE_SIGMAS * est.stderr,
                    f"ensemble mean {est.mean!r} +- {est.stderr!r} vs {p_exact!r}")

    passes = run.samples["pass"]
    run.named = {"verify_s": summary(passes), "grid128_s": summary(run.samples["grid128"])}
    checks = [run.samples[name] for name in ("spin_z", "ladder64", "chsh", "ensemble")]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.metrics = {"pass_s": best_pass(checks), "op_s": min(run.samples["grid128"]),
                   "peak_rss_mb": max(rss + [self_rss])}
    if not run.trace:
        return

    from solitonlab import spingrid
    import numpy as np
    run.layer["observables.spin_z_s"] = median(tr.durations("observables.spin_z"))
    run.layer["spingrid.ladder64_s"] = median(tr.durations("correlation.ladder_check_grid"))
    run.layer["spingrid.ladder128_s"] = median(run.samples["grid128"])
    run.layer["spingrid.ladder128_rss_mb"] = max(rss)
    run.layer["correlation.chsh_optimize_s"] = median(tr.durations("correlation.chsh_optimize"))
    run.layer["ensemble.estimate_s"] = median(tr.durations("ensemble.ensemble_estimate"))
    sz = []
    for _ in range(3):
        t0 = time.perf_counter()
        spingrid.sz_grid_integral(sol, spingrid.GridSpec(n=64, extent=12.0))
        sz.append(time.perf_counter() - t0)
    run.layer["spingrid.sz64_s"] = median(sz)
    rng = np.random.default_rng(run.seed)
    dirs = rng.normal(size=(2, 10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    fn = pair_correlation_fn(pair)
    per_pair = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(dirs[0], dirs[1])
        per_pair.append((time.perf_counter() - t0) / 10_000)
    run.layer["correlation.pair_us"] = 1e6 * median(per_pair)


# --- cli-cache --------------------------------------------------------------

def _cli(args: list) -> Child:
    return run_child([sys.executable, "-c", CLI_MAIN, *args])


def _cache_files(cache: Path) -> list:
    return sorted(cache.glob("solve_*.json")) if cache.is_dir() else []


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cli_cache(run: Run) -> None:
    lo = run.rng.uniform(*CLI_OMEGA_MIN)
    hi = lo + CLI_WIDTH
    omegas = [lo + k * (hi - lo) / (CLI_STEPS - 1) for k in range(CLI_STEPS)]
    pick = omegas[run.rng.randrange(CLI_STEPS)]
    a, b = unit_pair(run.rng)
    ens_seed = run.rng.randrange(2 ** 32)
    vec = lambda v: ",".join(repr(c) for c in v)   # passed as --a=..., it may start with "-"
    run.inputs.update(omega_min=lo, omega_max=hi, solve_omega=pick, a=a, b=b,
                      ensemble_seed=ens_seed)
    run.timed_setup([sys.executable, "-c", "import solitonlab.cli"], lambda: None)
    tr = run.tracer
    p_exact = -dot(a, b)
    rss = []

    def command(name: str, args: list, op: Op) -> Child:
        with tr.span(f"cli.{name}"):
            child = _cli(args)
        op.gate(child.returncode == 0, f"exit {child.returncode}: {child.output.strip()}")
        rss.append(child.rss_mb)
        return child

    for i in run.passes():
        d = run.work / f"session{i}"
        cache = d / "cache"
        sweep = ["sweep", "--omega-min", repr(lo), "--omega-max", repr(hi),
                 "--steps", str(CLI_STEPS), "--cache-dir", str(cache)]
        # a step's new cache files are its misses; its other solves are hits
        hits = misses = 0
        with run.op("cold_sweep") as op:
            child = command("sweep_cold", sweep + ["--jobs", "2", "--out", str(d / "cold.csv")], op)
            new = len(_cache_files(cache))
            hits, misses = hits + CLI_STEPS - new, misses + new
            run.sample("pool_util", child.cpu_s / child.wall)
            with open(d / "cold.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            op.gate(len(rows) == CLI_STEPS, f"{len(rows)} sweep rows")
            for row in rows:
                op.gate(row["status"] == "ok", f"row {row['Omega']}: {row['status']}")
                if row["status"] == "ok":
                    gate_solution(op, float(row["Omega"]), float(row["d1_residual"]),
                                  float(row["d2_residual"]), float(row["nu_fit"]))
        with run.op("warm_sweep") as op:
            before = len(_cache_files(cache))
            command("sweep_warm", sweep + ["--jobs", "1", "--out", str(d / "warm.csv")], op)
            new = len(_cache_files(cache)) - before
            hits, misses = hits + CLI_STEPS - new, misses + new
            op.gate((d / "warm.csv").read_bytes() == (d / "cold.csv").read_bytes(),
                    "warm --jobs 1 CSV differs from cold --jobs 2 CSV")
        sol_path = d / "sol.json"
        with run.op("solve") as op:
            before = _cache_files(cache)
            command("solve", ["solve", "--omega", repr(pick), "--cache-dir", str(cache),
                              "--out", str(sol_path)], op)
            after = _cache_files(cache)
            new = len(after) - len(before)
            hits, misses = hits + 1 - new, misses + new
            entry = [p for p in after if p.read_bytes() == sol_path.read_bytes()]
            op.gate(new == 0 and len(entry) == 1,
                    "cached solve artifact is not byte-identical to a cold-sweep entry")
            run.count("archive.bytes", sol_path.stat().st_size)
        with run.op("observables") as op:
            command("observables", ["observables", "--solution", str(sol_path),
                                    "--out", str(d / "obs.json")], op)
            ids = _read_json(d / "obs.json")["identities"]
            op.gate(ids["d1_residual"] <= TOL_IDENTITY and ids["d2_residual"] <= TOL_IDENTITY,
                    f"observables identities {ids['d1_residual']!r} {ids['d2_residual']!r}")
        with run.op("correlate") as op:
            command("correlate", ["correlate", "--solution", str(sol_path),
                                  f"--a={vec(a)}", f"--b={vec(b)}",
                                  "--out", str(d / "corr.json")], op)
            p = _read_json(d / "corr.json")["P_exact"]
            op.gate(abs(p - p_exact) <= 1e-12, f"P={p!r} vs {p_exact!r}")
        with run.op("chsh") as op:
            command("chsh", ["chsh", "--solution", str(sol_path), "--optimize",
                             "--out", str(d / "chsh.json")], op)
            s_max = _read_json(d / "chsh.json")["S"]
            op.gate(abs(s_max - 2.0 * math.sqrt(2.0)) <= TOL_CHSH, f"S_max={s_max!r}")
        with run.op("ensemble") as op:
            command("ensemble", [
                "ensemble", "--solution", str(sol_path), f"--a={vec(a)}", f"--b={vec(b)}",
                "--n-trials", str(ENSEMBLE[0]), "--realizations", str(ENSEMBLE[1]),
                "--seed", str(ens_seed), "--out", str(d / "ens.json")], op)
            est = _read_json(d / "ens.json")
            op.gate(abs(est["mean"] - p_exact) <= ENSEMBLE_SIGMAS * est["stderr"],
                    f"ensemble mean {est['mean']!r} +- {est['stderr']!r} vs {p_exact!r}")
        run.count("archive.cache_hits", hits)
        run.count("archive.cache_misses", misses)
        if run.trace and i == 0:
            shutil.copyfile(sol_path, run.work / "probe.json")
        shutil.rmtree(d)

    commands = [run.samples[name] for name in CLI_COMMANDS]
    run.named = {"cold_sweep_s": summary(run.samples["cold_sweep"]),
                 "warm_sweep_s": summary(run.samples["warm_sweep"]),
                 "cli_command_s": summary([t for v in commands for t in v]),
                 "session_s": summary(run.samples["pass"])}
    run.metrics = {"pass_s": best_pass([run.samples["cold_sweep"],
                                        run.samples["warm_sweep"], *commands]),
                   "op_s": best_pass(commands) / len(commands),
                   "peak_rss_mb": max(rss)}
    if not run.trace:
        return

    import_program()
    from solitonlab import archive
    probe = run.work / "probe.json"
    dumps, writes, reads = [], [], []
    for _ in range(5):
        t0 = time.perf_counter()
        archive.solution_from_document(archive.read_json(str(probe)))
        reads.append(time.perf_counter() - t0)
        raw = archive.read_json(str(probe))
        t0 = time.perf_counter()
        archive.dumps(raw)
        dumps.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        archive.write_json_atomic(str(run.work / "rewrite.json"), raw)
        writes.append(time.perf_counter() - t0)
    run.layer["archive.read_ms"] = 1e3 * median(reads)
    run.layer["archive.dumps_ms"] = 1e3 * median(dumps)
    run.layer["archive.write_ms"] = 1e3 * median(writes)
    run.layer["archive.bytes"] = run.counts["archive.bytes"]
    run.layer["archive.cache_hits"] = run.counts["archive.cache_hits"]
    run.layer["archive.cache_misses"] = run.counts["archive.cache_misses"]
    run.layer["cli.import_s"] = median([run_child([sys.executable, "-c", "import solitonlab"]).wall
                                        for _ in range(3)])
    run.layer["cli.pool_util"] = median(run.samples["pool_util"])
    run.layer["cli.cold_sweep_s"] = median(run.samples["cold_sweep"])
    run.layer["cli.warm_sweep_s"] = median(run.samples["warm_sweep"])


WORKLOADS = {"ground-sweep": ground_sweep, "verify": verify, "cli-cache": cli_cache}


def check_counts(run: Run) -> None:
    """Counts must repeat exactly between runs of one seed on one program."""
    path = OUT / f"counts-{run.workload}-seed{run.seed}-{src_digest()}.json"
    if path.is_file():
        with open(path) as fh:
            previous = json.load(fh)
        for name, value in run.counts.items():
            if name in previous and previous[name] != value:
                run.count_errors.append(f"{name}: {value} != {previous[name]} (earlier run)")
        merged = {**previous, **run.counts}
    else:
        merged = dict(run.counts)
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)


def finish(run: Run) -> dict:
    if run.trace:
        # pass 0 is the untraced warm-up pass
        run.layer["trace.pass_ratio"] = (median(run.samples["pass_traced"])
                                         / median(run.samples["pass"][1:]))
        for layer, total in self_times(run.tracer.spans).items():
            if f"self.{layer}_s" in PER_LAYER:
                run.layer[f"self.{layer}_s"] = total / max(run.traced_passes, 1)
        metrics = {name: {"value": run.layer.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(run.metrics, setup_s=median(run.samples["setup"]))
        run.named["setup_s"] = summary(run.samples["setup"])
        run.named["peak_rss_mb"] = {"value": run.metrics["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    run.named["failed_ratio"] = {"value": run.failed / max(run.attempted, 1),
                                 "attempted": run.attempted, "failed": run.failed}
    check_counts(run)
    correct = run.failed == 0 and not run.count_errors
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "trace": run.trace, "machine": machine_info(), "inputs": run.inputs,
              "named": run.named, "samples": run.samples, "counts": run.counts,
              "failures": run.failures,
              "count_errors": run.count_errors, "result": result}
    if run.trace:
        record["spans"] = run.tracer.as_records()
    with open(OUT / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def print_table(run: Run, result: dict) -> None:
    print(f"# {run.workload} seed={run.seed} seconds={run.seconds} trace={int(run.trace)}")
    for name, s in run.named.items():
        if "median" in s:
            tail = (f"  p{s['tail_pct']:g}={s['tail']:.4f}" if "tail" in s else "")
            print(f"{name:24s} median={s['median']:.4f}  min={s['min']:.4f}{tail}  n={s['n']}")
        else:
            print(f"{name:24s} " + "  ".join(f"{k}={v}" for k, v in s.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    for line in run.failures + run.count_errors:
        print(f"FAILED {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (SRC / "solitonlab" / "__init__.py", ROOT / "tests" / "golden.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  "solitonlab source checkout", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    WORKLOADS[args.workload](run)
    shutil.rmtree(run.work, ignore_errors=True)
    result = finish(run)
    print_table(run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
