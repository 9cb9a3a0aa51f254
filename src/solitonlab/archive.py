"""Lossless JSON archives of solutions and the solve cache.

Floats are serialized with Python's shortest round-trip representation, so a
parsed archive reproduces every stored number bit-exactly. Writes go through
a temporary file plus atomic rename.

Everything an archive holds beyond the constants, the solver options, the
shooting history and x_max_used is a report for readers: the loader derives
it again through the solve's own final pass and accepts only the document
that archive_document writes for the derivation.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, replace

from .observables import (IdentityReport, ObservableSet, compute_integrals,
                          identity_report)
from .params import PhysicalParams, calibrate_lambda
from .radial import (SolitonSolution, SolverOptions, ratchet_nodes, replay_bisection,
                     solution_from_shooting)

SCHEMA_VERSION = 4


def derive_report(solution: SolitonSolution, params: PhysicalParams):
    """(ObservableSet, IdentityReport, PhysicalParams with the calibrated lam)
    of a solution: everything in its archive that the profile determines."""
    observables = compute_integrals(solution)
    identities = identity_report(observables, solution.Omega)
    lam = calibrate_lambda(observables.Q, ell0=params.ell0, hbar=params.hbar)
    return observables, identities, replace(params, lam=lam)


def archive_document(solution: SolitonSolution,
                     observables: ObservableSet,
                     identities: IdentityReport,
                     params: PhysicalParams) -> dict:
    """Assemble the archive dict for one calibrated solution."""
    p = solution.profile
    return {
        "schema_version": SCHEMA_VERSION,
        "Omega": solution.Omega,
        "grid": {
            "x": p.grid.tolist(),
            "F": p.F.tolist(),
            "G": p.G.tolist(),
        },
        "shooting": {
            "F0": solution.shooting.F0,
            "bracket": list(solution.shooting.bracket),
            "n_iterations": solution.shooting.n_iterations,
            "classification_history": [list(h) for h in
                                       solution.shooting.classification_history],
        },
        "tail": asdict(p.tail),
        "residuals": asdict(solution.residuals),
        "observables": asdict(observables),
        "identities": asdict(identities),
        "calibration": {
            "hbar": params.hbar,
            "c": params.c,
            "ell0": params.ell0,
            "omega": params.omega,
            "lambda": params.lam,
        },
        "provenance": solution.provenance,
    }


def solution_from_document(doc: dict):
    """Rebuild (SolitonSolution, ObservableSet, IdentityReport, PhysicalParams)
    from the archive's inputs: the constants, the solver options, the
    shooting history and x_max_used. The shooting result is the history's
    radial.replay_bisection, and the solution is radial.solution_from_shooting,
    the solve's own final pass and guards; the observables, identities and
    lambda are derived from it. ValueError unless doc is of this schema and
    exactly what archive_document writes for the derivation; KeyError,
    TypeError, ArithmeticError or a SolitonLabError for a missing, mistyped,
    inadmissible or unsolvable field."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, "
                         f"expected {SCHEMA_VERSION}")
    cal = doc["calibration"]
    params = PhysicalParams(hbar=cal["hbar"], c=cal["c"], ell0=cal["ell0"],
                            omega=cal["omega"])
    provenance = doc["provenance"]
    opts = SolverOptions(**provenance["options"])
    x_max_used, stored = provenance["x_max_used"], len(doc["grid"]["x"])
    # before any mesh is built, so that no mesh outgrows the stored grid
    if ratchet_nodes(params.Omega, opts, x_max_used) != stored:
        raise ValueError(f"the stored grid has {stored} nodes, not the node count "
                         f"of the mesh at x_max_used = {x_max_used!r}")
    shooting = replay_bisection(doc["shooting"]["classification_history"], opts)
    solution = solution_from_shooting(params.Omega, shooting, opts, x_max_used)
    observables, identities, params = derive_report(solution, params)
    derived = archive_document(solution, observables, identities, params)
    if derived != doc:
        stale = sorted(k for k in doc.keys() | derived.keys() if doc.get(k) != derived.get(k))
        raise ValueError(f"archive fields {stale} differ from their derivation")
    return solution, observables, identities, params


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def write_text_atomic(path: str, text: str) -> None:
    """Write to a temp file in the target directory, then rename; the temp
    file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, doc: dict) -> None:
    write_text_atomic(path, dumps(doc) + "\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cache_key(Omega: float, opts: SolverOptions, version: str) -> str:
    """Digest of what a solve reads: the frequency, every tolerance and the
    code version. The constants enter only the report derived from it."""
    payload = json.dumps({"Omega": repr(float(Omega)), "options": asdict(opts),
                          "version": version}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_path(cache_dir: str, Omega: float, opts: SolverOptions, version: str) -> str:
    return os.path.join(cache_dir, f"solve_{cache_key(Omega, opts, version)}.json")
