"""Bit-identity of the program's artifacts: SHA-256 digests of what the CLI
writes and of the solver's trial sequence, against those in digests.py.

A change that moves bytes on purpose updates digests.py and says why; print
the current digests with

    PYTHONPATH=src python tests/test_digests.py
"""
import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

import digests
from solitonlab import radial
from solitonlab.cli import main

_SOLVE_OMEGAS = ("0.1", "0.5", "0.97")
_SWEEP = ["sweep", "--omega-min", "0.2", "--omega-max", "0.7", "--steps", "9"]
_AB = ["--a", "0.6,0,0.8", "--b", "0,0.6,0.8"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _host() -> str:
    return f"numpy {np.__version__} on {platform.machine()} {platform.system()}"


def recompute(work: Path, monkeypatch) -> dict:
    """{name: digest} of every artifact digests.DIGESTS names, made in work."""
    out = {}
    trials = []
    trial = radial._Shooter.trial

    def spy(self, F0, rtol, clamped=False):
        trials.append((F0, clamped))
        return trial(self, F0, rtol, clamped)

    monkeypatch.setattr(radial._Shooter, "trial", spy)
    for omega in _SOLVE_OMEGAS:
        trials.clear()
        path = work / f"solve_{omega}.json"
        assert main(["solve", "--omega", omega, "--no-cache", "--out", str(path)]) == 0
        out[f"solve {omega}"] = _sha(path.read_bytes())
        # solve_ground's trials are coarse_scan's, then shoot's
        out[f"trials {omega}"] = _sha(json.dumps([[repr(f), c] for f, c in trials]).encode())
    monkeypatch.setattr(radial._Shooter, "trial", trial)

    cache = work / "cache"
    for run in ("cold", "warm"):
        csv = work / f"{run}.csv"
        assert main(_SWEEP + ["--cache-dir", str(cache), "--out", str(csv)]) == 0
        out[f"sweep {run} csv"] = _sha(csv.read_bytes())
    entries = sorted(cache.iterdir())
    out["sweep cache names"] = _sha("\n".join(p.name for p in entries).encode())
    # the entries' bytes, in an order that does not depend on their names
    out["sweep cache bytes"] = _sha("\n".join(sorted(_sha(p.read_bytes())
                                                     for p in entries)).encode())

    sol = str(work / "solve_0.5.json")
    for name, args in (("observables", ["observables"]),
                       ("chsh --optimize", ["chsh", "--optimize"]),
                       ("ensemble", ["ensemble", "--n-trials", "8", "--realizations", "64",
                                     "--seed", "7"] + _AB)):
        path = work / "artifact.json"
        assert main(args + ["--solution", sol, "--out", str(path)]) == 0
        out[name] = _sha(path.read_bytes())
    return out


def test_artifacts_are_bit_identical(tmp_path, monkeypatch):
    got = recompute(tmp_path, monkeypatch)
    moved = sorted(k for k in got.keys() | digests.DIGESTS.keys()
                   if got.get(k) != digests.DIGESTS.get(k))
    assert not moved, (f"digests {moved} moved; they were recorded with {digests.HOST}, "
                       f"this run has {_host()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        with contextlib.redirect_stdout(io.StringIO()):  # the commands' summaries
            got = recompute(Path(work), mp)
    print(f"HOST = {_host()!r}")
    print("DIGESTS = {")
    for key, value in got.items():
        print(f"    {key!r}: {value!r},")
    print("}")
