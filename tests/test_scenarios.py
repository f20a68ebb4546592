"""The committed scenario corpus: declared exit codes and repeatable bytes.

No digest is pinned: midpoint runs past 4n = 16 go through np.linalg.solve,
whose last bits may depend on the CPU.  `python tests/scenarios.py --against REV`
compares the bytes of two revisions on one machine.
"""

from pathlib import Path

import pytest

from scenarios import CORPUS, diff_cells, diff_results, load_manifest, run_scenario

SCENARIOS = load_manifest()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s["name"] for s in SCENARIOS])
def test_scenario_exits_as_declared_with_the_same_bytes_twice(scenario):
    first = run_scenario(scenario)
    assert first["exit"] == scenario["exit"], first["stderr"]
    assert run_scenario(scenario) == first
    # only a failed run speaks on stderr: no leaked warning, no stray line
    if first["exit"] != 1:
        assert first["stderr"] == ""


def test_every_corpus_config_belongs_to_a_scenario():
    named = {Path(arg).name for s in SCENARIOS for arg in s["argv"]}
    assert {path.name for path in (CORPUS / "configs").iterdir()} <= named
    assert len({s["name"] for s in SCENARIOS}) == len(SCENARIOS)


def test_cell_differ_names_the_moved_cells():
    old = "t,x1,energy\n0,1,0.5\n0.5,0.25,0.03125\n1,-0,0\n"
    new = "t,x1,energy\n0,1,0.5\n0.5,0.2500000001,0.03125\n1,0,0.001\n"
    assert diff_cells("run.trajectory.csv", old, new) == [
        "3 numbers moved; largest |delta| 0.001 at row 3 energy (0 -> 0.001)",
        "largest relative delta 1 at row 3 energy (0 -> 0.001)",
    ]


def test_cell_differ_reports_text_cells_rows_and_non_numeric_files():
    old = '{"passed": true, "series": [0.0, 1e-9]}\n'
    new = '{"passed": false, "series": [0.0, 2e-9, 3e-9]}\n'
    assert diff_cells("run.diagnostics.json", old, new) == [
        "cells only in REV: 0, only in change: 1",
        "passed: true -> false",
        "1 numbers moved; largest |delta| 1e-09 at series[1] (1e-09 -> 2e-09)",
        "largest relative delta 0.5 at series[1] (1e-09 -> 2e-09)",
    ]
    assert diff_cells("run.phase.gnuplot", "a\n", "b\n") == ["bytes differ"]


def test_result_differ_reports_exit_streams_and_artifacts():
    old = {"exit": 1, "stdout": "", "stderr": "error: x\n", "artifacts": {"a.error.log": b"x\n"}}
    new = {"exit": 2, "stdout": "", "stderr": "", "artifacts": {"a.trajectory.csv": b"t\n0\n"}}
    assert diff_results("s", old, new) == [
        "s: exit 1 -> 2",
        "s: stderr: 'error: x\\n' -> ''",
        "s: a.error.log: only in REV",
        "s: a.trajectory.csv: only in change",
    ]
    assert diff_results("s", old, old) == []
