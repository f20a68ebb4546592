import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatflow import BlockDim, HamiltonianSystem, PhasePoint, integrate, parse
from quatflow.cli import main

DEMO = {
    "n": 1,
    "structure": "F",
    "hamiltonian": "0.5*(x1^2+x2^2+x3^2+x4^2)",
    "initial": [1, 0, 0, 0],
    "dt": 0.01,
    "steps": 628,
    "method": "rk4",
    "output_prefix": None,  # filled per test
    "emit_plot": False,
}


def write_config(tmp_path, name="config.json", **overrides):
    payload = dict(DEMO, **overrides)
    if payload["output_prefix"] is None:
        payload["output_prefix"] = str(tmp_path / "out" / "run1")
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path, payload


# --- run -------------------------------------------------------------------

def test_run_canonical_demo(tmp_path):
    config_path, payload = write_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    prefix = payload["output_prefix"]

    csv_lines = open(f"{prefix}.trajectory.csv", encoding="utf-8").read().splitlines()
    assert csv_lines[0] == "t,x1,x2,x3,x4,energy"
    assert len(csv_lines) == 1 + 629  # header plus steps + 1 points

    document = json.loads(open(f"{prefix}.diagnostics.json", encoding="utf-8").read())
    assert document["passed"] is True
    assert document["algebra_residual_triple_product"] == 0
    assert len(document["energy_drift_series"]) == 629


def test_run_is_byte_deterministic(tmp_path):
    config_path, payload = write_config(tmp_path)
    prefix = payload["output_prefix"]
    assert main(["run", str(config_path)]) == 0
    first_csv = open(f"{prefix}.trajectory.csv", "rb").read()
    first_json = open(f"{prefix}.diagnostics.json", "rb").read()
    assert main(["run", str(config_path)]) == 0
    assert open(f"{prefix}.trajectory.csv", "rb").read() == first_csv
    assert open(f"{prefix}.diagnostics.json", "rb").read() == first_json


def test_csv_round_trips_every_double(tmp_path):
    config_path, payload = write_config(tmp_path, steps=50)
    assert main(["run", str(config_path)]) == 0
    rows = open(f"{payload['output_prefix']}.trajectory.csv", encoding="utf-8").read().splitlines()[1:]

    dim = BlockDim(1)
    system = HamiltonianSystem.build("F", parse(payload["hamiltonian"], dim))
    trajectory = integrate(system, PhasePoint(np.array([1.0, 0, 0, 0]), 0.0), 0.01, 50, "rk4")
    assert len(rows) == len(trajectory.points)
    for row, point in zip(rows, trajectory.points):
        cells = [float(cell) for cell in row.split(",")]
        assert cells[0] == point.time
        assert np.array_equal(np.array(cells[1:5]), point.coordinates)


def test_run_with_single_step_writes_two_rows(tmp_path):
    config_path, payload = write_config(tmp_path, steps=1)
    code = main(["run", str(config_path)])
    rows = open(f"{payload['output_prefix']}.trajectory.csv", encoding="utf-8").read().splitlines()
    assert len(rows) == 3  # header + 2 points
    document = json.loads(open(f"{payload['output_prefix']}.diagnostics.json", encoding="utf-8").read())
    assert "eom_residual_max" not in document  # no interior point to check
    assert code == 0


def test_run_emits_gnuplot_script_on_request(tmp_path):
    config_path, payload = write_config(tmp_path, emit_plot=True)
    assert main(["run", str(config_path)]) == 0
    script = open(f"{payload['output_prefix']}.phase.gnuplot", encoding="utf-8").read()
    assert 'plot "run1.trajectory.csv" using 2:3 with lines' in script


def test_run_coarse_step_fails_thresholds(tmp_path):
    config_path, payload = write_config(tmp_path, dt=0.5, steps=10)
    assert main(["run", str(config_path)]) == 2
    document = json.loads(open(f"{payload['output_prefix']}.diagnostics.json", encoding="utf-8").read())
    assert document["passed"] is False


def test_tolerance_scale_rescues_a_coarse_run(tmp_path):
    config_path, _ = write_config(tmp_path, dt=0.5, steps=10)
    assert main(["run", str(config_path), "--tolerance-scale", "1e9"]) == 0


def test_run_reports_invalid_config_as_operational_error(tmp_path, capsys):
    config_path, _ = write_config(tmp_path, structure="Q")
    assert main(["run", str(config_path)]) == 1
    assert "structure" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_unwritable_prefix_exits_one(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    config_path, _ = write_config(tmp_path, output_prefix=str(blocker / "run"))
    assert main(["run", str(config_path)]) == 1
    assert "error" in capsys.readouterr().err
    # nothing was produced: no data files, not even an error log here
    assert set(tmp_path.iterdir()) == {blocker, config_path}


def test_run_integration_abort_writes_partial(tmp_path, capsys):
    config_path, payload = write_config(
        tmp_path,
        hamiltonian="sqrt(x1) + x2",
        initial=[0.5, 0, 0, 0],
        steps=100,
    )
    assert main(["run", str(config_path)]) == 1
    prefix = payload["output_prefix"]
    partial = open(f"{prefix}.trajectory.csv.partial", encoding="utf-8").read().splitlines()
    assert partial[0] == "t,x1,x2,x3,x4,energy"
    assert len(partial) >= 3
    assert "integration aborted" in open(f"{prefix}.error.log", encoding="utf-8").read()
    assert "aborted" in capsys.readouterr().err


def test_run_derivative_error_mid_integration_writes_partial(tmp_path, capsys):
    # under F the field's x1 component is -dH/dx2 = -1 while x3 stays 2, so
    # x1 falls through 0, where H is defined but log(x1) in dH/dx3 is not
    config_path, payload = write_config(
        tmp_path,
        hamiltonian="x2 + x1^x3",
        initial=[1, 0, 2, 0],
        dt=0.1,
        steps=100,
    )
    assert main(["run", str(config_path)]) == 1
    prefix = payload["output_prefix"]
    partial = Path(f"{prefix}.trajectory.csv.partial").read_text(encoding="utf-8").splitlines()
    assert len(partial) >= 3
    log = Path(f"{prefix}.error.log").read_text(encoding="utf-8")
    assert "integration aborted" in log and "'x1^x3'" in log
    capsys.readouterr()


# --- batch -----------------------------------------------------------------

def test_batch_runs_every_config(tmp_path):
    batch_dir = tmp_path / "configs"
    batch_dir.mkdir()
    for idx, label in enumerate(("F", "G")):
        payload = dict(
            DEMO,
            structure=label,
            steps=100,
            output_prefix=str(tmp_path / "out" / f"run{idx}"),
        )
        (batch_dir / f"run{idx}.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["run", "--batch", str(batch_dir)]) == 0
    assert (tmp_path / "out" / "run0.trajectory.csv").exists()
    assert (tmp_path / "out" / "run1.trajectory.csv").exists()


def test_batch_propagates_operational_failures(tmp_path, capsys):
    batch_dir = tmp_path / "configs"
    batch_dir.mkdir()
    (batch_dir / "bad.json").write_text("{broken", encoding="utf-8")
    assert main(["run", "--batch", str(batch_dir)]) == 1
    capsys.readouterr()


def test_batch_refuses_configs_sharing_an_output_prefix(tmp_path, capsys):
    batch_dir = tmp_path / "configs"
    batch_dir.mkdir()
    out = tmp_path / "out"
    # the second spelling names the same files as the first
    for name, prefix in (("a.json", f"{out}/run"), ("b.json", f"{out}/./run"), ("c.json", f"{out}/other")):
        payload = dict(DEMO, steps=10, output_prefix=prefix)
        (batch_dir / name).write_text(json.dumps(payload), encoding="utf-8")
    assert main(["run", "--batch", str(batch_dir)]) == 1
    err = capsys.readouterr().err
    assert "a.json" in err and "b.json" in err and "c.json" not in err
    assert not out.exists()  # nothing ran, not even the config that did not clash


def test_batch_of_empty_directory_is_an_error(tmp_path, capsys):
    batch_dir = tmp_path / "empty"
    batch_dir.mkdir()
    assert main(["run", "--batch", str(batch_dir)]) == 1
    capsys.readouterr()


# --- verify ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 8])
def test_verify_prints_zero_residuals(n, capsys):
    assert main(["verify", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert "FGH + I" in out
    assert "2" not in [token for line in out.splitlines() for token in line.split()[1:]]


def test_verify_with_injected_corruption_fails(capsys):
    assert main(["verify", "--n", "1", "--inject-corrupt-h"]) == 2
    out = capsys.readouterr().out
    fgh_line = next(line for line in out.splitlines() if "FGH + I" in line)
    assert fgh_line.split()[-2:] == ["2", "0"]  # tangent corrupted, cotangent clean


def test_verify_rejects_bad_n(capsys):
    assert main(["verify", "--n", "0"]) == 1
    capsys.readouterr()


# --- dump ------------------------------------------------------------------

def test_dump_structure_f(capsys):
    assert main(["dump", "--what", "structure", "--label", "F", "--n", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0,-1,0,0", "1,0,0,0", "0,0,0,-1", "0,0,1,0"]


def test_dump_omega_g(capsys):
    assert main(["dump", "--what", "omega", "--label", "G", "--n", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0,0,-1,0", "0,0,0,1", "1,0,0,0", "0,-1,0,0"]


def test_dump_omega_is_skew(capsys):
    assert main(["dump", "--what", "omega", "--label", "F", "--n", "1"]) == 0
    rows = [
        [int(cell) for cell in line.split(",")]
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    matrix = np.array(rows)
    assert np.array_equal(matrix.T, -matrix)


def test_dump_cotangent_space(capsys):
    code = main(["dump", "--what", "structure", "--label", "H", "--n", "2", "--space", "cotangent"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8


# --- usage errors ----------------------------------------------------------

def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_run_requires_exactly_one_input_mode(tmp_path, capsys):
    config_path, _ = write_config(tmp_path)
    assert main(["run"]) == 1
    assert main(["run", str(config_path), "--batch", str(tmp_path)]) == 1
    capsys.readouterr()


def test_dump_rejects_unknown_label(capsys):
    assert main(["dump", "--what", "structure", "--label", "Q", "--n", "1"]) == 1
    capsys.readouterr()


def test_nonpositive_tolerance_scale_rejected(tmp_path, capsys):
    config_path, _ = write_config(tmp_path)
    assert main(["run", str(config_path), "--tolerance-scale", "-1"]) == 1
    capsys.readouterr()


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "quatflow", "verify", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "quaternion relations" in result.stdout
