import concurrent.futures
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import golden
import solitonlab
from solitonlab import archive, cli, radial
from solitonlab.cli import SWEEP_COLUMNS, main
from solitonlab.errors import DomainError, SolitonLabError, TailError
from solitonlab.observables import IdentityReport, ObservableSet
from solitonlab.params import PhysicalParams
from solitonlab.radial import SolverOptions, _rhs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    os.environ["SOLITONLAB_CACHE"] = str(d / "cache")
    yield d
    os.environ.pop("SOLITONLAB_CACHE", None)


@pytest.fixture(scope="module")
def sol_path(workdir):
    path = workdir / "sol.json"
    assert main(["solve", "--omega", "0.5", "--out", str(path)]) == 0
    return path


# --- archives ----------------------------------------------------------------

def test_archive_round_trip_bit_exact(sol05, obs05, ids05, params05, tmp_path):
    doc = archive.archive_document(sol05, obs05, ids05, params05)
    path = tmp_path / "a.json"
    archive.write_json_atomic(str(path), doc)
    loaded = archive.read_json(str(path))
    s2, o2, i2, p2 = archive.solution_from_document(loaded)
    for name in ("grid", "F", "G", "dF", "dG"):
        assert np.array_equal(getattr(sol05.profile, name), getattr(s2.profile, name))
    assert s2.profile.tail == sol05.profile.tail
    assert s2.shooting == sol05.shooting
    assert (o2.Q, o2.Qs, o2.I4, o2.J4, o2.T) == (obs05.Q, obs05.Qs, obs05.I4,
                                                 obs05.J4, obs05.T)
    assert i2 == ids05
    assert p2.lam == params05.lam


def test_archive_serialization_deterministic(sol05, obs05, ids05, params05, tmp_path):
    doc = archive.archive_document(sol05, obs05, ids05, params05)
    p1, p2 = tmp_path / "b1.json", tmp_path / "b2.json"
    archive.write_json_atomic(str(p1), doc)
    archive.write_json_atomic(str(p2), doc)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_key_depends_on_tolerances():
    k1 = archive.cache_key(0.5, SolverOptions(), "1.0")
    k2 = archive.cache_key(0.5, SolverOptions(mesh_dx=0.02), "1.0")
    k3 = archive.cache_key(0.6, SolverOptions(), "1.0")
    k4 = archive.cache_key(0.5, SolverOptions(), "1.1")
    assert len({k1, k2, k3, k4}) == 4
    # the key ignores the constants: a solve reads only Omega = omega*ell0/c
    for name in ("cache_key", "cache_path"):
        assert not {"hbar", "c", "ell0", "params"} & set(
            inspect.signature(getattr(archive, name)).parameters)
    other = PhysicalParams(hbar=2.0, c=4.0, ell0=2.0, omega=1.0)
    assert archive.cache_key(other.Omega, SolverOptions(), "1.0") == k1


# --- solve -------------------------------------------------------------------

def _list_lengths(node):
    if isinstance(node, dict):
        return [n for value in node.values() for n in _list_lengths(value)]
    if isinstance(node, list):
        return [len(node)] + [n for value in node for n in _list_lengths(value)]
    return []


def test_solve_archive_content(sol_path, workdir):
    doc = json.loads(sol_path.read_text())
    assert doc["schema_version"] == archive.SCHEMA_VERSION
    assert "tail_corrections" not in doc["observables"]
    assert not {"v13", "v14", "v15", "v16"} & set(doc["identities"])
    assert doc["tail"]["nu_fit"] == pytest.approx(math.sqrt(0.75), rel=1e-3)
    assert doc["calibration"]["lambda"] == pytest.approx(4 * math.pi * doc["observables"]["Q"], rel=1e-12)
    # the profile is derived on load, not stored: no list is mesh-sized, and
    # the archive of the longest default mesh stays small
    assert max(_list_lengths(doc)) == len(doc["shooting"]["classification_history"])
    path = workdir / "sol097.json"
    assert main(["solve", "--omega", "0.97", "--out", str(path)]) == 0
    assert path.stat().st_size < 8000


def test_readme_schema_table_matches_the_code():
    # the README's archive table names the version and each report field
    # that archive_document writes, so that it cannot drift from the code
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M))
    version = archive.SCHEMA_VERSION
    assert f"### Archive JSON schema (`schema_version: {version}`)" in readme
    assert rows["schema_version"] == f"integer, currently {version}"
    for key, cls in (("tail", radial.TailFit), ("residuals", radial.ResidualReport),
                     ("observables", ObservableSet), ("identities", IdentityReport)):
        assert re.findall(r"`(\w+)`", rows[key]) == [f.name for f in fields(cls)], key


def test_solve_cache_hit_byte_identical(sol_path, workdir):
    out2 = workdir / "sol_again.json"
    assert main(["solve", "--omega", "0.5", "--out", str(out2)]) == 0
    assert out2.read_bytes() == sol_path.read_bytes()


def test_solve_cache_separates_calibration_inputs(tmp_path):
    # same dimensionless Omega, different hbar: the second solve must not be
    # served the first one's calibration
    lams = []
    for hbar in ("2", "1"):
        out = tmp_path / f"hbar{hbar}.json"
        assert main(["solve", "--omega", "0.5", "--hbar", hbar,
                     "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
        lams.append(json.loads(out.read_text())["calibration"]["lambda"])
    assert lams[1] == pytest.approx(golden.LAMBDA_CALIBRATED, rel=1e-12)
    assert lams[0] == pytest.approx(golden.LAMBDA_CALIBRATED / 2.0, rel=1e-12)


def test_solve_treats_bad_cache_entry_as_miss(tmp_path):
    cache = tmp_path / "cache"
    args = ["solve", "--omega", "0.5", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "fresh.json")]) == 0
    (entry,) = cache.iterdir()
    fresh = entry.read_bytes()
    old_schema = json.loads(fresh)
    old_schema["schema_version"] = 1
    # a schema-2 entry: the same archive with the derivatives stored in the grid
    schema2 = json.loads(fresh)
    _as_schema5(schema2)
    schema2["schema_version"] = 2
    x, F, G = (np.asarray(schema2["grid"][k]) for k in ("x", "F", "G"))
    dF, dG = _rhs(x, F, G, schema2["Omega"])
    schema2["grid"].update(dF=dF.tolist(), dG=dG.tolist())
    schema3 = json.loads(fresh)
    _as_schema3(schema3)
    schema4 = json.loads(fresh)
    _as_schema4(schema4)
    schema5 = json.loads(fresh)
    _as_schema5(schema5)
    miscalibrated = json.loads(fresh)
    miscalibrated["calibration"]["lambda"] *= 2.0
    tampered = []
    for param in _TAMPERS:
        doc = json.loads(fresh)
        param.values[0](doc)
        tampered.append(json.dumps(doc))
    for bad in ["{not json", json.dumps(old_schema), archive.dumps(schema2),
                archive.dumps(schema3), archive.dumps(schema4), archive.dumps(schema5),
                json.dumps(miscalibrated)] + tampered:
        entry.write_text(bad)
        out = tmp_path / "again.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh
        assert entry.read_bytes() == fresh


@pytest.mark.parametrize("other", [["--omega", "0.3"], ["--omega", "0.5", "--hbar", "2"],
                                   ["--omega", "0.5", "--mesh-dx", "0.02"]],
                         ids=["Omega=0.3", "hbar=2", "mesh-dx=0.02"])
def test_solve_treats_entry_for_other_inputs_as_miss(tmp_path, other):
    # an entry that loads but was solved for other inputs, copied over the
    # key of solve --omega 0.5, was returned as the Omega = 0.5 artifact; an
    # entry calibrated for other constants is a solve of the same inputs, so
    # it is a hit and is kept, and the artifact is derived for the request's
    cache = tmp_path / "cache"
    solve = ["solve", "--cache-dir", str(cache)]
    fresh, wrong = tmp_path / "fresh.json", tmp_path / "other.json"
    assert main(solve + ["--omega", "0.5", "--out", str(fresh)]) == 0
    (entry,) = cache.iterdir()
    assert main(solve + other + ["--out", str(wrong)]) == 0
    entry.write_bytes(wrong.read_bytes())
    again = tmp_path / "again.json"
    assert main(solve + ["--omega", "0.5", "--out", str(again)]) == 0
    assert again.read_bytes() == fresh.read_bytes()
    kept = "--hbar" in other
    assert entry.read_bytes() == (wrong if kept else fresh).read_bytes()


def test_solve_cache_hit_for_other_constants(tmp_path, monkeypatch):
    # the radial solve reads only Omega and the options: a solve at hbar = 2
    # after one at hbar = 1 re-solved; it is now a hit that writes nothing and
    # derives the report for hbar = 2
    cache = tmp_path / "cache"
    solve = ["solve", "--omega", "0.5", "--hbar", "2"]
    assert main(["solve", "--omega", "0.5", "--cache-dir", str(cache),
                 "--out", str(tmp_path / "hbar1.json")]) == 0
    (entry,) = cache.iterdir()
    before = entry.read_bytes(), entry.stat().st_mtime_ns
    calls = []
    monkeypatch.setattr(cli, "solve_ground", lambda *args: calls.append(args))
    hit = tmp_path / "hit.json"
    assert main(solve + ["--cache-dir", str(cache), "--out", str(hit)]) == 0
    assert calls == [] and list(cache.iterdir()) == [entry]
    assert (entry.read_bytes(), entry.stat().st_mtime_ns) == before
    monkeypatch.undo()
    fresh = tmp_path / "fresh.json"
    assert main(solve + ["--no-cache", "--out", str(fresh)]) == 0
    assert hit.read_bytes() == fresh.read_bytes()


def test_extended_mesh_round_trips(monkeypatch, tmp_path):
    # x_max 3 is extended six times by the trials; the loader rebuilds the
    # same mesh from the options and x_max_used, and builds no other
    sol, obs = tmp_path / "sol.json", tmp_path / "obs.json"
    assert main(["solve", "--omega", "0.5", "--x-max", "3", "--no-cache",
                 "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    assert doc["provenance"]["x_max_used"] == 34.3301
    sizes = []
    build_mesh = radial._build_mesh

    def spy(*args):
        mesh = build_mesh(*args)
        sizes.append(mesh.size)
        return mesh

    monkeypatch.setattr(radial, "_build_mesh", spy)
    assert main(["observables", "--solution", str(sol), "--out", str(obs)]) == 0
    opts = SolverOptions(**doc["provenance"]["options"])
    assert sizes == [radial.ratchet_nodes(0.5, opts, 34.3301)]
    assert obs.read_bytes() == sol.read_bytes()


def test_one_final_pass_builds_every_solution(monkeypatch):
    # solve_ground and the archive loader build their solution by the same
    # call, radial.solution_from_shooting: one final pass each
    calls = []
    final_profile = radial._final_profile

    def spy(*args):
        calls.append(args[1])
        return final_profile(*args)

    monkeypatch.setattr(radial, "_final_profile", spy)
    solution = radial.solve_ground(0.5)
    assert calls == [solution.shooting.F0]
    doc = archive.archive_document(
        solution, *archive.derive_report(solution, PhysicalParams(omega=0.5)))
    loaded = archive.solution_from_document(json.loads(archive.dumps(doc)))[0]
    assert calls == [solution.shooting.F0] * 2
    assert loaded.provenance == solution.provenance


def _as_schema5(doc):
    # the archive as schema 5 wrote it: with the profile's grid, which the
    # loader re-derived and which schema 6 dropped; returns the profile
    profile = archive.solution_from_document(doc)[0].profile
    doc["grid"] = {"x": profile.grid.tolist(), "F": profile.F.tolist(),
                   "G": profile.G.tolist()}
    doc["schema_version"] = 5
    return profile


def _as_schema4(doc):
    # the archive as schema 4 wrote it: pohozaev_residual was v16, beside
    # v13 and v15, which restated it and which schema 5 dropped
    profile = _as_schema5(doc)
    obs, W, ids = doc["observables"], doc["Omega"], doc["identities"]
    Q, Qs, I4, T = obs["Q"], obs["Qs"], obs["I4"], obs["T"]
    ids.update(v13=abs(-(2.0 / 3.0) * T + W * Q - Qs + 0.5 * I4) / Q,
               v15=abs(T / 3.0 - 0.5 * I4) / Q, v16=ids.pop("pohozaev_residual"))
    doc["schema_version"] = 4
    return profile


def _as_schema3(doc):
    # the archive as schema 3 wrote it: with the tail and residual fields
    # that restated the grid (or could not fail), which schema 4 dropped
    profile = _as_schema4(doc)
    x, F, G = profile.grid, profile.F, profile.G
    W, tail = doc["Omega"], doc["tail"]
    k, nu = int(np.searchsorted(x, tail["x_glue"])), math.sqrt(1.0 - W * W)
    xg, grow = float(x[k]), math.exp(nu * x[k])
    tail.update(fit_x_hi=xg, A_glue_F=float(F[k] * xg * grow),
                A_glue_G=float(G[k] * (1.0 + W) * xg / (nu + 1.0 / xg) * grow))
    dF = _rhs(xg, F[k], G[k], W)[0]
    doc["residuals"].update(min_F=float(F.min()), g_sign_changes=0,
                            tail_ratio_end=float(-G[k] * (1.0 + W) / dF))
    doc["schema_version"] = 3


def _scale_q_and_lambda(doc):
    doc["observables"]["Q"] *= 2.0
    doc["calibration"]["lambda"] *= 2.0


def _history_at(F0):
    # a shooting block that replays: one bisection step between F0 and the
    # next float, so the final pass runs at F0
    def edit(doc):
        hi = math.nextafter(F0, math.inf)
        doc["shooting"].update(F0=0.5 * (F0 + hi), bracket=[F0, hi], n_iterations=1,
                               classification_history=[[F0, "diverged_up"],
                                                       [hi, "diverged_down"]])
    return edit


def _x_max_used_extended(extensions):
    # x_max_used at a later end of the trials' x_max ratchet: 12 extensions
    # of the Omega = 0.5 archive's mesh make 519,201 nodes
    def edit(doc):
        sh = radial._Shooter(doc["Omega"], SolverOptions(**doc["provenance"]["options"]))
        for _ in range(extensions):
            sh._extend()
        doc["provenance"].update(x_max_used=sh.x_max)
    return edit


def _coarse_mesh(doc):
    # mesh_dx = 5 at the first end of its ratchet (9 nodes) and a history
    # that replays: the final pass glues before the tail fit's 11 nodes
    doc["provenance"]["options"].update(mesh_dx=5.0)
    sh = radial._Shooter(doc["Omega"], SolverOptions(**doc["provenance"]["options"]))
    doc["provenance"].update(x_max_used=sh.x_max)
    _history_at(doc["shooting"]["F0"])(doc)


# edits of the shooting, tail, residuals and provenance blocks, each of
# which loaded (and observables exited 0) before the loader re-ran the final
# pass; F0 = 1e200 on a history that replays is refused by series_start (its
# cube overflows), and glue_frac = 1e-13 makes the final pass raise TailError
_TAMPERS = [
    pytest.param(lambda doc: doc["shooting"].update(F0=1.5 * doc["shooting"]["F0"]),
                 id="F0-1.5x"),
    pytest.param(lambda doc: doc["tail"].update(nu_fit=0.1), id="nu_fit=0.1"),
    pytest.param(lambda doc: doc["tail"].update(A=2.0 * doc["tail"]["A"]), id="A-2x"),
    pytest.param(lambda doc: doc["residuals"].update(max_midpoint_residual=1e-3),
                 id="residual=1e-3"),
    pytest.param(lambda doc: doc["shooting"].update(classification_history=[]),
                 id="history-empty"),
    pytest.param(lambda doc: doc["shooting"]["bracket"].reverse(), id="bracket-swapped"),
    pytest.param(lambda doc: doc["provenance"].update(x_max_used=-1), id="x_max_used=-1"),
    pytest.param(lambda doc: doc["provenance"]["options"].update(glue_frac=7),
                 id="glue_frac=7"),
    pytest.param(lambda doc: doc["provenance"].update(code_version=1),
                 id="code_version-not-str"),
    pytest.param(lambda doc: doc["provenance"].update(extra=1), id="provenance-extra-key"),
    pytest.param(lambda doc: doc["shooting"].update(F0=1e200), id="F0=1e200"),
    pytest.param(_history_at(1e200), id="F0=1e200-replayed"),
    pytest.param(lambda doc: doc["provenance"].update(x_max_used=41.0), id="x_max_used=41"),
    pytest.param(lambda doc: doc["provenance"]["options"].update(bogus=1),
                 id="options-unknown-key"),
    pytest.param(lambda doc: doc["provenance"]["options"].update(glue_frac=1e-13),
                 id="final-pass-raises"),
    pytest.param(_x_max_used_extended(12), id="x_max_used-12-extensions"),
    # exited 1: an IndexError from the tail fit's window in the final pass
    pytest.param(_coarse_mesh, id="mesh_dx=5"),
]


@pytest.mark.parametrize("edit, error, refusal, meshes", [
    (lambda doc: doc["provenance"]["options"].update(mesh_dx=1e-9),
     DomainError, "would exceed 10000000 nodes", []),
    (lambda doc: doc["provenance"]["options"].update(mesh_dx=doc["provenance"]["options"]
                                                     ["mesh_dx"] / 100.0),
     ValueError, "is not an end of the x_max ratchet", []),
    (_x_max_used_extended(12), ValueError, "differ from their derivation", [519_201]),
], ids=["mesh_dx=1e-9", "mesh_dx/100", "x_max_used-12-extensions"])
def test_a_load_costs_a_solve_of_its_options(monkeypatch, tmp_path, sol_path, edit, error,
                                            refusal, meshes):
    # an archive stores no mesh: a load builds the mesh that a solve with the
    # document's options and x_max_used builds, and radial.ratchet_nodes
    # refuses an x_max_used off the ratchet or a mesh over 10^7 nodes before
    # any mesh is built (12 extensions: one mesh of 519,201 nodes)
    doc = json.loads(sol_path.read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    archive.write_json_atomic(str(path), doc)
    assert path.stat().st_size < 8000
    sizes = []
    build_mesh = radial._build_mesh

    def spy(*args):
        mesh = build_mesh(*args)
        sizes.append(mesh.size)
        return mesh

    monkeypatch.setattr(radial, "_build_mesh", spy)
    with pytest.raises(error, match=refusal):
        archive.solution_from_document(archive.read_json(str(path)))
    assert sizes == meshes
    if meshes:
        opts = SolverOptions(**doc["provenance"]["options"])
        assert meshes == [radial.ratchet_nodes(0.5, opts, doc["provenance"]["x_max_used"])]
    sizes.clear()
    out = tmp_path / "out.json"
    assert main(["observables", "--solution", str(path), "--out", str(out)]) == 3
    assert sizes == meshes and not out.exists()


def test_ratchet_nodes_is_the_trials_mesh():
    # every end of the ratchet, with its node count, without building a mesh
    for Omega, opts in ((0.5, SolverOptions()), (0.5, SolverOptions(x_max=3.0)),
                        (0.9, SolverOptions(mesh_dx=0.03))):
        sh = radial._Shooter(Omega, opts)
        for _ in range(8):
            assert radial.ratchet_nodes(Omega, opts, sh.x_max) == len(sh.nodes)
            for off_end in (math.nextafter(sh.x_max, 0.0), math.nextafter(sh.x_max, math.inf)):
                with pytest.raises(ValueError):
                    radial.ratchet_nodes(Omega, opts, off_end)
            sh._extend()


@pytest.mark.parametrize("content", [
    "{not json", '{"schema_version": 1}', "[1, 2]", '{"schema_version": 2}',
    pytest.param(_as_schema3, id="schema-3"),
    pytest.param(_as_schema4, id="schema-4"),
    pytest.param(_as_schema5, id="schema-5"),
    # a valid archive with one inadmissible calibration constant
    pytest.param({"lambda": 0}, id="lambda=0"),
    pytest.param({"hbar": 0}, id="hbar=0"),
    pytest.param({"ell0": 0}, id="ell0=0"),
    pytest.param({"lambda": -3}, id="lambda=-3"),
    pytest.param({"omega": 1.0}, id="omega=c/ell0"),
    # admissible constants, but lambda is not the calibration of the archive's Q
    pytest.param(lambda doc: doc["calibration"].update(
        {"lambda": 2.0 * doc["calibration"]["lambda"]}), id="lambda=2x"),
    pytest.param({"lambda": None}, id="lambda=null"),
    # stored fields that contradict the profile they derive from
    pytest.param(lambda doc: doc.update(Omega=0.6), id="Omega-edited"),
    pytest.param(_scale_q_and_lambda, id="Q-and-lambda-2x"),
    pytest.param(lambda doc: doc["identities"].update(pohozaev_residual=0.5),
                 id="identity-edited"),
    *_TAMPERS,
])
def test_unreadable_solution_is_invalid_input(tmp_path, capsys, sol_path, content):
    # each tamper case exited 0 (Omega edited, Q and lambda 2x, identity
    # edited) before the loader derived the report from the profile, and
    # each of _TAMPERS exited 0 before it re-ran the final pass
    path = tmp_path / "bad.json"
    if not isinstance(content, str):
        doc = json.loads(sol_path.read_text())
        if callable(content):
            content(doc)
        else:
            doc["calibration"].update(content)
        content = json.dumps(doc)
    path.write_text(content)
    ab = ["--a", "0,0,1", "--b", "0,0,1"]
    out = tmp_path / "out.json"
    for command in (["observables"], ["correlate"] + ab, ["chsh", "--optimize"],
                    ["ensemble", "--n-trials", "4", "--realizations", "2"] + ab):
        code = main(command + ["--solution", str(path), "--out", str(out)])
        assert code == 3, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert not out.exists(), command


def test_solve_rejects_omega_outside_interval(workdir, capsys):
    code = main(["solve", "--omega", "1.5", "--out", str(workdir / "x.json")])
    assert code == 3
    assert "interval" in capsys.readouterr().err


def test_unknown_flag_is_invalid_input(capsys):
    assert main(["solve", "--omega", "0.5", "--bogus"]) == 3


def test_missing_solution_file_is_io_error(workdir):
    code = main(["correlate", "--solution", str(workdir / "nope.json"),
                 "--a", "0,0,1", "--b", "0,0,1"])
    assert code == 4


# a command printed its summary, then failed to write --out and exited 4
@pytest.mark.parametrize("args, out", [(["chsh", "--optimize"], "."),
                                       (["observables"], "sol.json/x")],
                         ids=["chsh-out-is-a-directory", "observables-out-under-a-file"])
def test_unwritable_out_prints_no_summary(sol_path, capsys, args, out):
    capsys.readouterr()
    code = main(args + ["--solution", str(sol_path), "--out", str(sol_path.parent / out)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("error: [Errno")


def test_config_file_with_flag_override(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"mesh-dx": 0.02, "omega": 0.4}))
    out = workdir / "cfg_sol.json"
    # flag --omega overrides the config value; mesh-dx comes from the file
    assert main(["solve", "--omega", "0.45", "--config", str(cfg),
                 "--out", str(out), "--no-cache"]) == 0
    doc = json.loads(out.read_text())
    assert doc["Omega"] == 0.45
    assert doc["provenance"]["options"]["mesh_dx"] == 0.02



# an integer of more than 4300 digits, past int's str-conversion limit,
# ended solve in a ValueError traceback
@pytest.mark.parametrize("content", [
    b"{bad", b"\xff\xfe{}",
    pytest.param(b'{"x_max": ' + b"1" * 5000 + b"}", id="5000-digit-int")])
def test_malformed_config_is_invalid_input(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["solve", "--omega", "0.5", "--config", str(cfg), "--no-cache"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# an integer too large for a float ended solve in an OverflowError traceback
@pytest.mark.parametrize("entry", [{"mesh-dx": "abc"}, {"hbar": True}, {"x_max": [40]},
                                   {"max-iterations": 2.0}, {"seed": False},
                                   {"no-cache": 1}, {"cache-dir": 7},
                                   *(pytest.param({key: 10 ** 400}, id=f"{key}=10^400")
                                     for key in ("x_max", "mesh_dx", "hbar"))])
def test_config_value_of_wrong_type_is_invalid_input(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert main(["solve", "--omega", "0.5", "--config", str(cfg), "--no-cache"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_accepts_int_for_float(sol_path, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hbar": 1, "n-trials": 8, "realizations": 16}))
    assert main(["ensemble", "--solution", str(sol_path), "--a", "0,0,1", "--b", "0,0,1",
                 "--config", str(cfg), "--out", str(tmp_path / "e.json")]) == 0


def test_config_int_for_float_solves_as_the_flag(tmp_path):
    # {"x_max": 40} stored x_max 40, not 40.0, in provenance.options, so it
    # wrote another archive and another cache entry than --x-max 40
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_max": 40}))
    cache = tmp_path / "cache"
    solve = ["solve", "--omega", "0.5", "--cache-dir", str(cache)]
    by_flag, by_config = tmp_path / "flag.json", tmp_path / "config.json"
    assert main(solve + ["--x-max", "40", "--out", str(by_flag)]) == 0
    assert main(solve + ["--config", str(cfg), "--out", str(by_config)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    assert len(list(cache.iterdir())) == 1


def _command_options(command):
    return cli._COMMANDS[command][1].split()


def _argv(name, value):
    flag = "--" + name.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


@pytest.mark.parametrize("command, name", [
    pytest.param(command, option, id=f"{command}-{option}")
    for command in cli._COMMANDS for option in _command_options(command)
    if not option.endswith("!")])
def test_flag_and_config_key_merge_alike(tmp_path, command, name):
    # a value of the option's annotated type that SolverOptions admits (the
    # rtols lie in [1e-14, 1e-6]); a str is a config file holding {}, so
    # that --config reads it too
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    values = {bool: True, int: 7, float: 0.25, str: str(empty)}
    types = cli._option_types()
    value = 1e-7 if name.endswith("_rtol") else values[types[name]]
    required = [arg for option in _command_options(command) if option.endswith("!")
                for arg in _argv(option[:-1], values[types[option[:-1]]])]
    parser = cli._build_parser()
    by_flag = cli._merge_config(parser.parse_args([command, *required, *_argv(name, value)]))
    if name != "config":
        solver = name in {f.name for f in fields(SolverOptions)}
        got = getattr(by_flag.solver if solver else by_flag, name)
        assert got == value and type(got) is type(value)
    for key in (name, name.replace("_", "-")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = parser.parse_args([command, *required, "--config", str(cfg)])
        assert cli._merge_config(args) == by_flag, key


def test_every_run_config_field_is_an_option():
    options = {option.rstrip("!") for command in cli._COMMANDS
               for option in _command_options(command)}
    solver = {f.name for f in fields(SolverOptions)}
    assert {f.name for f in fields(cli.RunConfig)} - {"command", "solver"} == (
        options - solver - {"config"})


@pytest.mark.parametrize("flags", [["--mesh-dx", "0"], ["--mesh-dx", "-0.01"],
                                   ["--mesh-dx", "nan"], ["--final-rtol", "0"],
                                   ["--final-rtol", "nan"], ["--scan-step", "0"],
                                   ["--scan-step", "-0.1"], ["--scan-max", "nan"],
                                   ["--shoot-tol", "nan"], ["--scan-step", "1e-300"],
                                   pytest.param(["--x-max", "1e300"], id="x-max-1e300"),
                                   pytest.param(["--mesh-dx", "1e-300"], id="mesh-dx-1e-300"),
                                   pytest.param(["--omega", "0.9999999999999999"],
                                                id="omega-1-ulp-below-1")])
def test_bad_solver_option_is_invalid_input(tmp_path, capsys, flags):
    # these ended in a traceback (exit 1; --scan-step 1e-300 in the scan's
    # allocation, --x-max 1e300, --mesh-dx 1e-300 and the Omega one ulp
    # below 1 in the radial mesh's), read as non-convergence (exit 2) or,
    # for --shoot-tol nan, exited 0 with the option in the archive; the mesh
    # cases are refused before the mesh is allocated
    out = tmp_path / "x.json"
    code = main(["solve", "--omega", "0.5", "--no-cache", "--out", str(out)] + flags)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# NaN is written as the bare token JSON readers accept; these exited 0 with
# the option in the archive (blowup_factor, decay_floor) or exit 2 (residual_tol);
# x0 = 45 exited 1 with an IndexError traceback, x0 = 1 exited 0 with
# another profile (Q -97.6%), and the subnormal x0 exited 2 (step size underflow)
@pytest.mark.parametrize("entry", ['{"blowup_factor": NaN}', '{"decay_floor": -1.0}',
                                   '{"residual_tol": NaN}', '{"x0": 45}', '{"x0": 1.0}',
                                   '{"x0": 5e-324}'])
def test_bad_solver_option_in_config_is_invalid_input(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(entry)
    out = tmp_path / "x.json"
    code = main(["solve", "--omega", "0.5", "--no-cache", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def _run_fresh(code: str) -> str:
    """Run code in a fresh interpreter with this package on the path; its stdout."""
    src = os.path.dirname(os.path.dirname(solitonlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_archive_commands_load_no_scipy(tmp_path):
    # a fresh interpreter: solve and observables must not import scipy
    sol, obs = tmp_path / "sol.json", tmp_path / "obs.json"
    out = _run_fresh(
        "import json, sys\n"
        "from solitonlab import cli\n"
        f"assert cli.main(['solve', '--omega', '0.5', '--no-cache', '--out', {str(sol)!r}]) == 0\n"
        f"assert cli.main(['observables', '--solution', {str(sol)!r}, '--out', {str(obs)!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy'\n"
        "      or m.startswith('scipy.'))))\n")
    assert json.loads(out.splitlines()[-1]) == []


def test_cli_import_leaves_out_the_process_pool():
    # only sweep --jobs > 1 needs it, and it costs every CLI process to import
    out = _run_fresh("import sys\n"
                     "import solitonlab.cli\n"
                     "print('concurrent.futures.process' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_cli_commands_leave_out_the_grid_module(tmp_path):
    # no command runs a grid check, and importing spingrid cost each CLI
    # process 6-11 ms of -X importtime self time, compiling it included
    sol = str(tmp_path / "sol.json")
    commands = [["solve", "--omega", "0.5", "--no-cache", "--out", sol],
                ["observables", "--solution", sol],
                ["correlate", "--solution", sol, "--a=0,0,1", "--b=1,0,0"],
                ["chsh", "--solution", sol, "--optimize"],
                ["ensemble", "--solution", sol, "--a=0,0,1", "--b=1,0,0",
                 "--n-trials", "8", "--realizations", "16", "--seed", "1"]]
    out = _run_fresh("import sys\n"
                     "from solitonlab import cli\n"
                     f"assert all(cli.main(argv) == 0 for argv in {commands!r})\n"
                     "print('solitonlab.spingrid' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_package_runs_without_scipy(tmp_path):
    # a fresh interpreter in which every scipy import fails: the solve, the
    # archive commands and both 3-D grid checks still run
    sol, obs = tmp_path / "sol.json", tmp_path / "obs.json"
    out = _run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import solitonlab as sl\n"
        "from solitonlab import archive, cli\n"
        f"assert cli.main(['solve', '--omega', '0.5', '--no-cache', '--out', {str(sol)!r}]) == 0\n"
        f"assert cli.main(['observables', '--solution', {str(sol)!r}, '--out', {str(obs)!r}]) == 0\n"
        f"s, obs, _, params = archive.solution_from_document(archive.read_json({str(sol)!r}))\n"
        "print(sl.spin_z(s, params, obs=obs).Sz_grid, sl.ladder_check_grid(s).max_residual)\n")
    sz, ladder = map(float, out.splitlines()[-1].split())
    assert sz == pytest.approx(0.5, rel=0.02) and 0.0 < ladder <= 0.02


# --- correlate / chsh / ensemble ----------------------------------------------

def test_correlate_parallel(sol_path, workdir, capsys):
    out = workdir / "corr.json"
    assert main(["correlate", "--solution", str(sol_path), "--a", "0,0,1",
                 "--b", "0,0,1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["P_exact"] == pytest.approx(-1.0, abs=1e-12)
    assert doc["two_particle_norm"] == pytest.approx(1.0, abs=1e-10)


def test_correlate_rejects_bad_vector(sol_path):
    assert main(["correlate", "--solution", str(sol_path), "--a", "0,0",
                 "--b", "0,0,1"]) == 3
    assert main(["correlate", "--solution", str(sol_path), "--a", "0,0,2",
                 "--b", "0,0,1"]) == 3


@pytest.mark.parametrize("hbar", ["1e-200", "1e200"])
def test_correlate_reports_a_unit_pair_norm_at_any_hbar(tmp_path, hbar):
    # the pair carries the dimensionless radial norm norm / hbar, 1 to
    # rounding: with the dimensionful norm, hbar = 1e-200 reported a
    # two-particle norm of 0.0 (its square underflowed), and hbar = 1e200
    # was refused as an infinite one (exit 3)
    sol = tmp_path / "x.json"
    assert main(["solve", "--omega", "0.5", "--hbar", hbar, "--no-cache",
                 "--out", str(sol)]) == 0
    ab = ["--a", "0,0,1", "--b", "0,0,1"]
    out = tmp_path / "out.json"
    assert main(["correlate", "--solution", str(sol), "--out", str(out)] + ab) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["two_particle_norm"] - 1.0) <= 1e-12
    assert abs(doc["P_exact"] + 1.0) <= 1e-12
    for args in (["chsh", "--optimize"], ["ensemble"] + ab, ["observables"]):
        assert main(args + ["--solution", str(sol), "--out", str(out)]) == 0


def test_chsh_explicit_settings(sol_path, workdir):
    out = workdir / "chsh.json"
    s2 = math.sqrt(0.5)
    args = ["chsh", "--solution", str(sol_path),
            "--a", "0,0,1", "--a-prime", "1,0,0",
            "--b", f"{s2},0,{s2}", f"--b-prime={s2},0,-{s2}",
            "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert doc["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_chsh_optimize(sol_path, workdir):
    out = workdir / "chsh_opt.json"
    assert main(["chsh", "--solution", str(sol_path), "--optimize",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["S"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert set(doc) == {"optimized", "a", "a_prime", "b", "b_prime", "S"}
    # the emitted settings reproduce S through the explicit-settings path
    again = workdir / "chsh_again.json"
    vec = lambda key: ",".join(repr(x) for x in doc[key])
    assert main(["chsh", "--solution", str(sol_path), f"--a={vec('a')}",
                 f"--a-prime={vec('a_prime')}", f"--b={vec('b')}",
                 f"--b-prime={vec('b_prime')}", "--out", str(again)]) == 0
    assert json.loads(again.read_text())["S"] == pytest.approx(doc["S"], abs=1e-12)


def test_chsh_requires_settings_or_optimize(sol_path):
    assert main(["chsh", "--solution", str(sol_path), "--a", "0,0,1"]) == 3


@pytest.mark.parametrize("settings", [
    pytest.param(["--a", "garbage", "--b", "9,9,9"], id="a-and-b-malformed"),
    pytest.param(["--a-prime", "1,0,0"], id="a-prime"),
    pytest.param(["--b-prime", "0,0,1"], id="b-prime"),
    pytest.param({"a": "0,0,1"}, id="config-a"), pytest.param({"b": "oops"}, id="config-b")])
def test_chsh_optimize_refuses_analyzer_settings(sol_path, tmp_path, capsys, settings):
    # --optimize exited 0 and silently dropped the settings, malformed or not
    if isinstance(settings, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        settings = ["--config", str(cfg)]
    out = tmp_path / "out.json"
    code = main(["chsh", "--solution", str(sol_path), "--optimize", "--out", str(out)]
                + settings)
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ensemble_reproducible_artifacts(sol_path, workdir):
    out1, out2 = workdir / "e1.json", workdir / "e2.json"
    args = ["ensemble", "--solution", str(sol_path), "--a", "0,0,1", "--b", "0,0,1",
            "--n-trials", "16", "--realizations", "128", "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["spec"]["seed"] == 99
    assert abs(doc["mean"] - doc["exact"]) <= 6.0 * doc["stderr"]
    assert doc["stderr_exact"] == abs(doc["exact"]) * math.sqrt((1 - 1 / 16) / 128)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 42])
def test_ensemble_seed_outside_64_bits_is_invalid_input(sol_path, capsys, seed):
    # these aliased 2^64 - 1, 0 and 42 modulo 2^64
    code = main(["ensemble", "--solution", str(sol_path), "--a", "0,0,1",
                 "--b", "0,0,1", "--n-trials", "4", "--realizations", "8",
                 f"--seed={seed}"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ensemble_single_realization_is_invalid_input(sol_path, capsys):
    # one realization has no standard error; it used to report stderr 0.0
    code = main(["ensemble", "--solution", str(sol_path), "--a", "0,0,1",
                 "--b", "0,0,1", "--realizations", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--n-trials", "--realizations"])
def test_ensemble_oversize_is_invalid_input(sol_path, capsys, flag):
    # this ended in a traceback (exit 1) in the phase or value allocation
    code = main(["ensemble", "--solution", str(sol_path), "--a", "0,0,1",
                 "--b", "0,0,1", flag, str(10 ** 20)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# --- observables command --------------------------------------------------------

def test_observables_recompute_matches_archive(sol_path, workdir):
    out = workdir / "obs.json"
    assert main(["observables", "--solution", str(sol_path), "--out", str(out)]) == 0
    assert out.read_bytes() == sol_path.read_bytes()


# --- sweep ---------------------------------------------------------------------

def test_sweep_rejects_single_step(workdir):
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7",
                 "--steps", "1", "--out", str(workdir / "s.csv")]) == 3


def test_sweep_rejects_oversize_steps(workdir, capsys):
    # this built the whole Omega list first (MemoryError under a 2 GB limit)
    out = workdir / "s_big.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7",
                 "--steps", str(10 ** 11), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_rejects_bad_range(workdir):
    assert main(["sweep", "--omega-min", "0.7", "--omega-max", "0.3",
                 "--steps", "3", "--out", str(workdir / "s.csv")]) == 3


@pytest.mark.parametrize("constants", [{"ell0": 0}, {"c": 0.5}])
def test_sweep_rejects_inadmissible_constants(tmp_path, capsys, constants):
    # c = 0.5 puts omega-max = 0.7 above c/ell0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(constants))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "3",
                 "--config", str(cfg), "--no-cache", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_csv_contract(workdir):
    out = workdir / "sweep.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7",
                 "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[0] == ("Omega,F0,Q,Qs,I4,J4,T,nu_fit,d1_residual,d2_residual,"
                        "pohozaev_residual,energy_ratio,lambda_calibrated,status,message")
    assert len(lines) == 4
    for line in lines[1:]:
        fields = dict(zip(SWEEP_COLUMNS, line.split(",")))
        assert fields["status"] == "ok" and fields["message"] == ""
        # an ok row is its fields joined by commas, then the empty message
        assert line == ",".join(fields[c] for c in SWEEP_COLUMNS[:-1]) + ","
        assert float(fields["d1_residual"]) <= 1e-6
        assert float(fields["d2_residual"]) <= 1e-6
        # round-trip: values parse to floats exactly representable
        assert repr(float(fields["Q"])) == fields["Q"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_pool_sized_by_rows(workdir, monkeypatch):
    # the CLI imports the pool from here, and only for --jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    base = ["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "3"]
    serial, pooled = workdir / "sweep_serial.csv", workdir / "sweep_pool.csv"
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "64", "--out", str(pooled)]) == 0
    assert _RecordingPool.sizes == [3]
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(workdir, monkeypatch, capsys, jobs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    out = workdir / "sweep_jobs.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "3",
                 "--jobs", jobs, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _RecordingPool.sizes == [] and not out.exists()


@pytest.mark.parametrize("jobs", [cli._MAX_JOBS + 1, 100_000])
def test_sweep_rejects_jobs_above_bound(workdir, monkeypatch, capsys, jobs):
    # the pool forks its workers up front; no pool may be built at all
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    out = workdir / "sweep_jobs.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "3",
                 "--jobs", str(jobs), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _RecordingPool.sizes == [] and not out.exists()


def test_sweep_row_domain_error_is_a_row(workdir):
    # the second row's mesh would exceed 10^7 nodes: that row fails, the
    # sweep goes on and keeps the solved row
    out = workdir / "sweep_domain.csv"
    assert main(["sweep", "--omega-min", "0.5", "--omega-max", "0.99999999999",
                 "--steps", "2", "--no-cache", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["Omega"], r["status"]) for r in rows] == [
        ("0.5", "ok"), ("0.99999999999", "error:DomainError")]
    assert all(rows[1][c] == "" for c in SWEEP_COLUMNS[1:-2])
    # the failed row carries its error's message, commas and all
    assert rows[0]["message"] == ""
    assert rows[1]["message"].startswith("the mesh [0.0001, ")
    assert "would exceed" in rows[1]["message"]


def test_overflowing_scan_amplitude_is_invalid_input(workdir, capsys):
    # the scan's first amplitude, 1e305, has a cube beyond float range: solve
    # exited 1 with an OverflowError traceback, and the sweep did too
    scan = ["--no-cache", "--scan-step", "1e305", "--scan-max", "1e308"]
    out = workdir / "overflow.json"
    assert main(["solve", "--omega", "0.5", "--out", str(out)] + scan) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
    out = workdir / "overflow.csv"
    assert main(["sweep", "--omega-min", "0.4", "--omega-max", "0.5", "--steps", "2",
                 "--out", str(out)] + scan) == 2
    with open(out, newline="") as fh:
        assert {r["status"] for r in csv.DictReader(fh)} == {"error:DomainError"}


def test_sweep_failure_message_round_trips(workdir, monkeypatch):
    message = 'bad, "quoted"\nand a second line'

    def fail(omega, cfg):
        raise TailError(message)

    monkeypatch.setattr(cli, "_solve_document", fail)
    out = workdir / "sweep_message.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "2",
                 "--no-cache", "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["message"]) for r in rows] == [("error:TailError", message)] * 2


def test_sweep_row_catches_every_library_error(workdir, monkeypatch):
    # an error class missing from the row's list of seven ended the sweep
    class NewError(SolitonLabError):
        pass

    def fail(omega, cfg):
        raise NewError("new")

    monkeypatch.setattr(cli, "_solve_document", fail)
    out = workdir / "sweep_new_error.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "2",
                 "--no-cache", "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["message"]) for r in rows] == [("error:NewError", "new")] * 2


def test_sweep_nine_steps_all_identities(workdir):
    out = workdir / "sweep9.csv"
    assert main(["sweep", "--omega-min", "0.1", "--omega-max", "0.9",
                 "--steps", "9", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 10
    for line in lines[1:]:
        fields = dict(zip(SWEEP_COLUMNS, line.split(",")))
        assert fields["status"] == "ok"
        assert float(fields["d1_residual"]) <= 1e-6
        assert float(fields["d2_residual"]) <= 1e-6


def test_sweep_parallel_matches_serial(workdir):
    serial = workdir / "sw_serial.csv"
    parallel = workdir / "sw_parallel.csv"
    base = ["sweep", "--omega-min", "0.35", "--omega-max", "0.55", "--steps", "2"]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_coarse_mesh_is_a_solver_failure(workdir, capsys):
    # the final pass glued before node 10, and the tail fit's window began at
    # a negative node: an IndexError traceback (exit 1) for the solve, and
    # the sweep died whole instead of writing its rows
    code = main(["solve", "--omega", "0.5", "--mesh-dx", "5", "--no-cache",
                 "--out", str(workdir / "coarse.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: TailError: ")
    out = workdir / "sweep_coarse.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7", "--steps", "2",
                 "--mesh-dx", "5", "--no-cache", "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error:TailError"] * 2


def test_solver_failure_exit_code(workdir):
    # scan ceiling below the critical amplitude: no bracket exists
    code = main(["solve", "--omega", "0.5", "--scan-max", "0.3", "--no-cache",
                 "--out", str(workdir / "fail.json")])
    assert code == 2
