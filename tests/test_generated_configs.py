"""The CLI contract on generated configs.

Each config draws an energy from the expression strategy of
test_expressions (every operator and function, literals up to inf),
written as text by format_expression, n in {1, 2}, a form, a method, 1-5
steps, whether to write the plot, and initial entries of +-0 or
+-10^u for u in [-300, 300].  Each runs in-process twice, in a fresh
directory each time, as a scenario runs: the exit code is 0, 1 or 2, an
exit 1 prints exactly one `error:` line, a run that does not fail with
exit 1 leaves stderr empty (so no warning escapes), and the two runs agree
in exit code, stdout, stderr and every artifact's bytes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from quatflow import BlockDim, ScalarField, format_expression
from scenarios import run_in
from test_expressions import _nodes

ENTRIES = st.builds(
    lambda sign, magnitude: sign * magnitude,
    st.sampled_from((1.0, -1.0)),
    st.just(0.0) | st.builds(lambda u: 10.0**u, st.floats(-300.0, 300.0)),
)


@st.composite
def _configs(draw) -> dict:
    n = draw(st.sampled_from((1, 2)))
    return {
        "n": n,
        "structure": draw(st.sampled_from("FGH")),
        "hamiltonian": format_expression(ScalarField(BlockDim(n), draw(_nodes()))),
        "initial": draw(st.lists(ENTRIES, min_size=4 * n, max_size=4 * n)),
        "dt": draw(st.sampled_from((0.001, 0.01, 0.1))),
        "steps": draw(st.integers(1, 5)),
        "method": draw(st.sampled_from(("rk4", "implicit_midpoint"))),
        "output_prefix": "out/run",
        "emit_plot": draw(st.booleans()),
    }


def _run(config: dict) -> dict:
    with tempfile.TemporaryDirectory() as temporary:
        work = Path(temporary)
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        return run_in(work, ["run", "config.json"])


@settings(max_examples=50, deadline=None)
@given(config=_configs())
def test_a_generated_config_keeps_the_cli_contract(config):
    first = _run(config)
    assert first["exit"] in (0, 1, 2)
    lines = first["stderr"].splitlines()
    if first["exit"] == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert lines == []
    assert _run(config) == first
