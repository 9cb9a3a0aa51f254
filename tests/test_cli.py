import json
import math
import os

import numpy as np
import pytest

import golden
from solitonlab import archive
from solitonlab.cli import SWEEP_COLUMNS, main
from solitonlab.params import make_params
from solitonlab.radial import SolverOptions


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
    params = make_params(omega=0.5)
    k1 = archive.cache_key(0.5, SolverOptions(), "1.0", params)
    k2 = archive.cache_key(0.5, SolverOptions(mesh_dx=0.02), "1.0", params)
    k3 = archive.cache_key(0.6, SolverOptions(), "1.0", params)
    k4 = archive.cache_key(0.5, SolverOptions(), "1.0", make_params(hbar=2.0, omega=0.5))
    assert len({k1, k2, k3, k4}) == 4


# --- solve -------------------------------------------------------------------

def test_solve_archive_content(sol_path):
    doc = json.loads(sol_path.read_text())
    assert doc["schema_version"] == 2
    assert "tail_corrections" not in doc["observables"]
    assert "v14" not in doc["identities"]
    assert doc["tail"]["nu_fit"] == pytest.approx(math.sqrt(0.75), rel=1e-3)
    n = len(doc["grid"]["x"])
    assert all(len(doc["grid"][k]) == n for k in ("F", "G", "dF", "dG"))
    assert doc["calibration"]["lambda"] == pytest.approx(4 * math.pi * doc["observables"]["Q"], rel=1e-12)


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
    for bad in ("{not json", json.dumps(old_schema)):
        entry.write_text(bad)
        out = tmp_path / "again.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh
        assert entry.read_bytes() == fresh


@pytest.mark.parametrize("content", ["{not json", '{"schema_version": 1}', "[1, 2]",
                                     '{"schema_version": 2}'])
def test_unreadable_solution_is_invalid_input(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code = main(["correlate", "--solution", str(path), "--a", "0,0,1", "--b", "0,0,1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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



@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{}"])
def test_malformed_config_is_invalid_input(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["solve", "--omega", "0.5", "--config", str(cfg), "--no-cache"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", [{"mesh-dx": "abc"}, {"hbar": True}, {"x_max": [40]},
                                   {"max-iterations": 2.0}, {"seed": False},
                                   {"no-cache": 1}, {"cache-dir": 7}])
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


def test_ensemble_reproducible_artifacts(sol_path, workdir):
    out1, out2 = workdir / "e1.json", workdir / "e2.json"
    args = ["ensemble", "--solution", str(sol_path), "--a", "0,0,1", "--b", "0,0,1",
            "--n-trials", "16", "--realizations", "128", "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed_used"] == 99
    assert abs(doc["mean"] - doc["exact"]) <= 6.0 * doc["stderr"]


# --- observables command --------------------------------------------------------

def test_observables_recompute_matches_archive(sol_path, workdir):
    out = workdir / "obs.json"
    assert main(["observables", "--solution", str(sol_path), "--out", str(out)]) == 0
    assert out.read_bytes() == sol_path.read_bytes()


# --- sweep ---------------------------------------------------------------------

def test_sweep_rejects_single_step(workdir):
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7",
                 "--steps", "1", "--out", str(workdir / "s.csv")]) == 3


def test_sweep_rejects_bad_range(workdir):
    assert main(["sweep", "--omega-min", "0.7", "--omega-max", "0.3",
                 "--steps", "3", "--out", str(workdir / "s.csv")]) == 3


def test_sweep_csv_contract(workdir):
    out = workdir / "sweep.csv"
    assert main(["sweep", "--omega-min", "0.3", "--omega-max", "0.7",
                 "--steps", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[0] == ("Omega,F0,Q,Qs,I4,J4,T,nu_fit,d1_residual,d2_residual,"
                        "v13,v15,v16,energy_ratio,lambda_calibrated,status")
    assert len(lines) == 4
    for line in lines[1:]:
        fields = dict(zip(SWEEP_COLUMNS, line.split(",")))
        assert fields["status"] == "ok"
        assert float(fields["d1_residual"]) <= 1e-6
        assert float(fields["d2_residual"]) <= 1e-6
        # round-trip: values parse to floats exactly representable
        assert repr(float(fields["Q"])) == fields["Q"]


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


def test_solver_failure_exit_code(workdir):
    # scan ceiling below the critical amplitude: no bracket exists
    code = main(["solve", "--omega", "0.5", "--scan-max", "0.3", "--no-cache",
                 "--out", str(workdir / "fail.json")])
    assert code == 2
