import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    drift, eom, symplectic, thresholds = capsys.readouterr().out.split(" ", 3)
    assert float(drift) <= 1e-10
    assert float(eom) <= 0.01 ** 2
    assert float(symplectic) <= 1e-6
    assert thresholds.startswith("{'energy_drift_max'")
