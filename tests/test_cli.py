import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quatflow import BlockDim, HamiltonianSystem, NewtonDivergenceError, StructureTensor, integrate, parse
from quatflow import cli
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


# the steps succeed, but the symplecticity probe's perturbed rk4 steps
# overflow to a non-finite state
PROBE_OVERFLOW = dict(
    hamiltonian="2.9961438394239366e+307*x1*x2",
    initial=[1, 1, 0, 0],
    dt=1e-320,
    steps=3,
)


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
    trajectory = integrate(system, np.array([1.0, 0, 0, 0]), 0.01, 50, "rk4")
    assert len(rows) == len(trajectory.states)
    for row, time, state in zip(rows, trajectory.times, trajectory.states):
        cells = [float(cell) for cell in row.split(",")]
        assert cells[0] == time
        assert np.array_equal(np.array(cells[1:5]), state)


def test_csv_time_column_is_step_index_times_dt(tmp_path):
    config_path, payload = write_config(tmp_path)
    assert main(["run", str(config_path)]) == 0
    rows = Path(f"{payload['output_prefix']}.trajectory.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [format(k * 0.01, ".17g") for k in range(629)]
    # not 6.2799999999999105, which summing dt 628 times gives
    assert rows[-1].split(",")[0] == "6.2800000000000002"


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


def test_run_that_cannot_write_its_report_removes_what_it_wrote(tmp_path, capsys, monkeypatch):
    config_path, payload = write_config(tmp_path, steps=10)
    prefix = payload["output_prefix"]
    Path(f"{prefix}.diagnostics.json").mkdir(parents=True)
    unlinked = []
    unlink = Path.unlink

    def recorded_unlink(path, *args, **kwargs):
        unlinked.append(path)
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", recorded_unlink)
    assert main(["run", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write outputs for {prefix}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert Path(f"{prefix}.error.log").read_text(encoding="utf-8") == err.removeprefix("error: ")
    # the CSV goes first and is removed once the report fails
    assert unlinked == [Path(f"{prefix}.trajectory.csv")]
    assert {path.name for path in Path(prefix).parent.iterdir()} == {"run1.diagnostics.json", "run1.error.log"}


def test_run_rejects_an_output_prefix_with_a_nul_byte(tmp_path, capsys):
    config_path, _ = write_config(tmp_path, output_prefix=str(tmp_path / "out" / "a\0x"))
    assert main(["run", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config {config_path}: field 'output_prefix': must be a nonempty path string\n"
    )
    assert set(tmp_path.iterdir()) == {config_path}  # refused before anything ran


def test_run_with_integer_dt_reports_a_float(tmp_path):
    config_path, payload = write_config(tmp_path, dt=1, steps=2)
    assert main(["run", str(config_path)]) == 2  # a step of 1 fails the drift gate
    text = open(f"{payload['output_prefix']}.diagnostics.json", encoding="utf-8").read()
    assert '"dt": 1.0,' in text and json.loads(text)["dt"] == 1.0


REPORT_KEYS = [
    "algebra_residual_f_squared",
    "algebra_residual_g_squared",
    "algebra_residual_h_squared",
    "algebra_residual_triple_product",
    "dt",
    "energy_drift_max",
    "energy_drift_series",
    "eom_residual_max",
    "method",
    "n",
    "passed",
    "steps",
    "structure",
    "symplecticity_residual",
    "threshold_energy_drift_max",
    "threshold_eom_residual_max",
    "threshold_symplecticity_residual",
    "tolerance_scale",
]


@pytest.mark.parametrize("steps", [1, 2, 50])
def test_report_keys(tmp_path, steps):
    config_path, payload = write_config(tmp_path, steps=steps)
    assert main(["run", str(config_path)]) == 0
    text = open(f"{payload['output_prefix']}.diagnostics.json", encoding="utf-8").read()
    # steps = 1 leaves no interior point for the equation-of-motion residual
    expected = [key for key in REPORT_KEYS if steps >= 2 or key != "eom_residual_max"]
    assert list(json.loads(text)) == expected  # sort_keys keeps this order in the file


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_probe_step_failure_is_a_diagnostics_error(tmp_path, capsys):
    config_path, payload = write_config(tmp_path, **PROBE_OVERFLOW)
    assert main(["run", str(config_path)]) == 1
    log = Path(f"{payload['output_prefix']}.error.log").read_text(encoding="utf-8")
    assert log == "diagnostics failed: non-finite state after step\n"
    assert capsys.readouterr().err == "error: diagnostics failed: non-finite state after step\n"
    assert not Path(f"{payload['output_prefix']}.diagnostics.json").exists()


def test_run_midpoint_with_a_non_finite_field_names_the_state(tmp_path, capsys):
    config_path, payload = write_config(
        tmp_path,
        hamiltonian="1e300*x1*x2",
        initial=[1e10, 1e10, 0, 0],
        dt=0.1,
        steps=3,
        method="implicit_midpoint",
    )
    assert main(["run", str(config_path)]) == 1
    log = Path(f"{payload['output_prefix']}.error.log").read_text(encoding="utf-8")
    assert log == "integration aborted: step 0 failed: non-finite state after step\n"
    assert capsys.readouterr().err == f"error: {log}"


def test_run_probe_newton_divergence_is_a_diagnostics_error(tmp_path, capsys, monkeypatch):
    def diverging_probe(*args):
        raise NewtonDivergenceError(1.0, 50)

    monkeypatch.setattr(cli, "symplecticity_residual", diverging_probe)
    config_path, payload = write_config(tmp_path, method="implicit_midpoint", steps=5)
    assert main(["run", str(config_path)]) == 1
    log = Path(f"{payload['output_prefix']}.error.log").read_text(encoding="utf-8")
    assert log.startswith("diagnostics failed: implicit midpoint Newton iteration did not converge")
    capsys.readouterr()


# --- batch -----------------------------------------------------------------

def write_batch(tmp_path, configs):
    """One config file per (name, overrides) pair; prefixes out/<name>."""
    batch_dir = tmp_path / "configs"
    batch_dir.mkdir()
    for name, overrides in configs:
        payload = dict(DEMO, steps=100, output_prefix=str(tmp_path / "out" / name))
        payload.update(overrides)
        (batch_dir / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    return batch_dir


def test_batch_runs_every_config(tmp_path):
    batch_dir = write_batch(tmp_path, [("run0", dict(structure="F")), ("run1", dict(structure="G"))])
    assert main(["run", "--batch", str(batch_dir)]) == 0
    assert (tmp_path / "out" / "run0.trajectory.csv").exists()
    assert (tmp_path / "out" / "run1.trajectory.csv").exists()


def test_batch_propagates_operational_failures(tmp_path, capsys):
    # an operational failure outranks a threshold failure, which still writes
    batch_dir = write_batch(tmp_path, [("coarse", dict(dt=0.5, steps=10))])
    (batch_dir / "bad.json").write_text("{broken", encoding="utf-8")
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert (tmp_path / "out" / "coarse.diagnostics.json").exists()
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


def test_batch_returns_two_for_a_pass_and_a_threshold_failure(tmp_path):
    batch_dir = write_batch(tmp_path, [("coarse", dict(dt=0.5, steps=10)), ("healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 2
    for name in ("coarse", "healthy"):
        assert (tmp_path / "out" / f"{name}.trajectory.csv").exists()
        assert (tmp_path / "out" / f"{name}.diagnostics.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_survives_a_probe_step_failure(tmp_path, capsys):
    batch_dir = write_batch(tmp_path, [("a_overflow", PROBE_OVERFLOW), ("b_healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert (tmp_path / "out" / "a_overflow.error.log").exists()
    assert (tmp_path / "out" / "b_healthy.trajectory.csv").exists()
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()
    assert capsys.readouterr().err == "error: diagnostics failed: non-finite state after step\n"


def test_batch_runs_the_configs_after_an_oversized_integer(tmp_path, capsys):
    batch_dir = write_batch(tmp_path, [("b_healthy", {})])
    payload = dict(DEMO, output_prefix=str(tmp_path / "out" / "a_huge"))
    text = json.dumps(payload).replace('"initial": [1, 0, 0, 0]', '"initial": [1' + "0" * 400 + ", 0, 0, 0]")
    (batch_dir / "a_huge.json").write_text(text, encoding="utf-8")
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert "field 'initial'" in capsys.readouterr().err
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()
    assert not (tmp_path / "out" / "a_huge.trajectory.csv").exists()


def test_batch_runs_the_configs_after_a_steps_count_too_large_to_allocate(tmp_path, capsys):
    # the trajectory array of 10^400 + 1 rows fails numpy's dimension check
    # before any memory is asked for
    batch_dir = write_batch(tmp_path, [("a_huge", dict(steps=10**400)), ("b_healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert "error: integration aborted:" in capsys.readouterr().err
    assert (tmp_path / "out" / "a_huge.error.log").read_text(encoding="utf-8").startswith("integration aborted:")
    assert not (tmp_path / "out" / "a_huge.trajectory.csv").exists()
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",  # not UTF-8
        b'{"initial": [1' + b"0" * 5000 + b", 0, 0, 0]}",  # past Python's int digit limit
        b"[" * 100_000,  # past the JSON decoder's recursion limit
    ],
    ids=["undecodable", "long_integer", "deep_nesting"],
)
def test_batch_runs_the_configs_after_an_unparseable_file(tmp_path, capsys, content):
    batch_dir = write_batch(tmp_path, [("b_healthy", {})])
    (batch_dir / "a.json").write_bytes(content)
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert f"error: invalid config {batch_dir / 'a.json'}: " in capsys.readouterr().err
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


def test_batch_runs_the_configs_after_an_unreadable_config(tmp_path, capsys):
    batch_dir = write_batch(tmp_path, [("b_healthy", {})])
    (batch_dir / "a.json").mkdir()
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {batch_dir / 'a.json'}: ")
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


def test_batch_runs_the_configs_after_an_output_prefix_with_a_nul_byte(tmp_path, capsys):
    batch_dir = write_batch(tmp_path, [("a_nul", dict(output_prefix=str(tmp_path / "out" / "a\0x"))), ("b_healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config {batch_dir / 'a_nul.json'}: field 'output_prefix': must be a nonempty path string\n"
    )
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


def test_batch_runs_the_configs_after_an_output_prefix_in_a_symlink_loop(tmp_path, capsys):
    (tmp_path / "loop_a").symlink_to(tmp_path / "loop_b")
    (tmp_path / "loop_b").symlink_to(tmp_path / "loop_a")
    batch_dir = write_batch(tmp_path, [("a_loop", dict(output_prefix=str(tmp_path / "loop_a" / "run"))), ("b_healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory for {tmp_path / 'loop_a' / 'run'}: ")
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


# 3000 levels overflow the default recursion limit of 1000 at any stack depth
@pytest.mark.parametrize(
    "hamiltonian,message",
    [
        ("(" * 3000 + "x1" + ")" * 3000, "invalid config {config}: field 'hamiltonian': expression nested too deeply at offset 0"),
        ("-" * 3000 + "x1", "invalid config {config}: field 'hamiltonian': expression nested too deeply at offset 0"),
        ("+".join(["x1"] * 3000), "integration aborted: step 0 failed: expression nested too deeply to compile"),
    ],
    ids=["parentheses", "unary_minus", "flat_sum"],
)
def test_batch_runs_the_configs_after_a_hamiltonian_nested_too_deeply(tmp_path, capsys, hamiltonian, message):
    batch_dir = write_batch(tmp_path, [("a_deep", dict(hamiltonian=hamiltonian)), ("b_healthy", {})])
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert capsys.readouterr().err == "error: " + message.format(config=batch_dir / "a_deep.json") + "\n"
    assert not (tmp_path / "out" / "a_deep.trajectory.csv").exists()
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


def test_a_hamiltonian_too_deep_to_compile_is_compiled_once_per_run(tmp_path, capsys, monkeypatch):
    # step 0 fails to compile it; the one-state partial CSV then reuses the failure
    from quatflow import expressions

    constructions = []

    class CountedKernel(expressions._Kernel):
        def __init__(self, field):
            constructions.append(field)
            super().__init__(field)

    monkeypatch.setattr(expressions, "_Kernel", CountedKernel)
    config_path, payload = write_config(tmp_path, hamiltonian="+".join(["x1"] * 3000))
    assert main(["run", str(config_path)]) == 1
    assert len(constructions) == 1
    message = "integration aborted: step 0 failed: expression nested too deeply to compile"
    assert capsys.readouterr().err == f"error: {message}\n"
    prefix = payload["output_prefix"]
    assert Path(f"{prefix}.error.log").read_text(encoding="utf-8") == message + "\n"
    assert not Path(f"{prefix}.trajectory.csv.partial").exists()


def test_clash_check_skips_a_config_that_is_not_an_object(tmp_path, capsys):
    batch_dir = write_batch(tmp_path, [("b_healthy", {})])
    (batch_dir / "a.json").write_text(json.dumps([DEMO]), encoding="utf-8")
    assert cli._shared_output_prefixes(sorted(batch_dir.glob("*.json"))) == []
    assert main(["run", "--batch", str(batch_dir)]) == 1
    assert capsys.readouterr().err == f"error: invalid config {batch_dir / 'a.json'}: top level must be a JSON object\n"
    assert (tmp_path / "out" / "b_healthy.diagnostics.json").exists()


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


def test_verify_prints_the_residual_table(capsys):
    assert main(["verify", "--n", "2"]) == 0
    assert capsys.readouterr().out == (
        "quaternion relations, n = 2 (residual = max abs row sum)\n"
        "  relation       tangent   cotangent\n"
        "  F^2 + I              0           0\n"
        "  G^2 + I              0           0\n"
        "  H^2 + I              0           0\n"
        "  FGH + I              0           0\n"
        "metric compatibility (max |g(Tu,v) + g(u,Tv)| over basis pairs)\n"
        "  F tangent            0\n"
        "  G tangent            0\n"
        "  H tangent            0\n"
        "  F cotangent          0\n"
        "  G cotangent          0\n"
        "  H cotangent          0\n"
    )


def test_verify_with_injected_corruption_fails(monkeypatch, capsys):
    real_triple = cli.structure_triple

    def corrupted_triple(space, dim):
        f, g, h = real_triple(space, dim)
        if space == "tangent":
            h = StructureTensor(kind=h.kind, dim=dim, matrix=f.matrix)  # F relabelled as H
        return f, g, h

    monkeypatch.setattr(cli, "structure_triple", corrupted_triple)
    assert main(["verify", "--n", "1"]) == 2
    out = capsys.readouterr().out
    fgh_line = next(line for line in out.splitlines() if "FGH + I" in line)
    assert fgh_line.split()[-2:] == ["2", "0"]  # tangent corrupted, cotangent clean


def test_verify_rejects_bad_n(capsys):
    assert main(["verify", "--n", "0"]) == 1
    capsys.readouterr()


# n = 10^7 asks numpy for 11.4 PiB, which it refuses without allocating
@pytest.mark.parametrize(
    "argv",
    [["verify", "--n", "10000000"], ["dump", "--what", "omega", "--label", "F", "--n", "10000000"]],
    ids=["verify", "dump"],
)
def test_an_n_too_large_to_allocate_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: quatflow")


def test_run_requires_exactly_one_input_mode(tmp_path, capsys):
    config_path, _ = write_config(tmp_path)
    assert main(["run"]) == 1
    assert main(["run", str(config_path), "--batch", str(tmp_path)]) == 1
    capsys.readouterr()


def test_dump_rejects_unknown_label(capsys):
    assert main(["dump", "--what", "structure", "--label", "Q", "--n", "1"]) == 1
    capsys.readouterr()


def test_nonpositive_tolerance_scale_rejected(tmp_path, capsys):
    # nan and inf would disable every gate or write NaN into the JSON report
    config_path, payload = write_config(tmp_path)
    for scale in ("-1", "0", "nan", "inf", "-inf"):
        assert main(["run", str(config_path), f"--tolerance-scale={scale}"]) == 1
        assert capsys.readouterr().err == "usage error: --tolerance-scale must be a positive finite number\n"
    assert not Path(f"{payload['output_prefix']}.diagnostics.json").exists()


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "quatflow", "verify", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "quaternion relations" in result.stdout
