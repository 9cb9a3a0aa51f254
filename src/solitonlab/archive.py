"""Lossless JSON archives of solutions and the solve cache.

Floats are serialized with Python's shortest round-trip representation, so a
parsed archive reproduces every stored number bit-exactly. Writes go through
a temporary file plus atomic rename.
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
import numpy as np

from .observables import IdentityReport, ObservableSet
from .params import PhysicalParams
from .radial import (RadialProfile, ResidualReport, ShootingResult,
                     SolitonSolution, SolverOptions, TailFit)

SCHEMA_VERSION = 2


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
            "dF": p.dF.tolist(),
            "dG": p.dG.tolist(),
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
        "observables": {
            "Q": observables.Q,
            "Qs": observables.Qs,
            "I4": observables.I4,
            "J4": observables.J4,
            "T": observables.T,
            "quad_error": dict(observables.quad_error),
        },
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


def check_schema(doc) -> None:
    """Raise ValueError unless doc is an archive of the current schema."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, "
                         f"expected {SCHEMA_VERSION}")


def solution_from_document(doc: dict):
    """Rebuild (SolitonSolution, ObservableSet, IdentityReport, PhysicalParams)."""
    check_schema(doc)
    g = doc["grid"]
    profile = RadialProfile(
        grid=np.asarray(g["x"], dtype=float),
        F=np.asarray(g["F"], dtype=float),
        G=np.asarray(g["G"], dtype=float),
        dF=np.asarray(g["dF"], dtype=float),
        dG=np.asarray(g["dG"], dtype=float),
        tail=TailFit(**doc["tail"]),
    )
    sh = doc["shooting"]
    shooting = ShootingResult(
        F0=sh["F0"], bracket=tuple(sh["bracket"]),
        n_iterations=sh["n_iterations"],
        classification_history=tuple((f0, label) for f0, label in
                                     sh["classification_history"]),
    )
    solution = SolitonSolution(
        Omega=doc["Omega"], profile=profile, shooting=shooting,
        residuals=ResidualReport(**doc["residuals"]),
        provenance=doc["provenance"],
    )
    o = doc["observables"]
    observables = ObservableSet(
        Q=o["Q"], Qs=o["Qs"], I4=o["I4"], J4=o["J4"], T=o["T"],
        quad_error=dict(o["quad_error"]),
    )
    identities = IdentityReport(**doc["identities"])
    cal = doc["calibration"]
    params = PhysicalParams(hbar=cal["hbar"], c=cal["c"], ell0=cal["ell0"],
                            omega=cal["omega"], lam=cal["lambda"])
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


def cache_key(Omega: float, opts: SolverOptions, version: str, params: PhysicalParams) -> str:
    """Digest of the frequency, every tolerance, the code version and the
    calibration inputs (hbar, c, ell0) that the cached document depends on."""
    payload = json.dumps({"Omega": repr(float(Omega)), "options": asdict(opts),
                          "version": version, "hbar": params.hbar, "c": params.c,
                          "ell0": params.ell0}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_path(cache_dir: str, Omega: float, opts: SolverOptions, version: str,
               params: PhysicalParams) -> str:
    return os.path.join(cache_dir, f"solve_{cache_key(Omega, opts, version, params)}.json")
