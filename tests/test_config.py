import json

import pytest

from quatflow.config import ConfigError, is_output_prefix, load_config, read_config

DEMO = {
    "n": 1,
    "structure": "F",
    "hamiltonian": "0.5*(x1^2+x2^2+x3^2+x4^2)",
    "initial": [1, 0, 0, 0],
    "dt": 0.01,
    "steps": 628,
    "method": "rk4",
    "output_prefix": "out/run1",
    "emit_plot": False,
}


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_canonical_demo_config_loads(tmp_path):
    config = load_config(write(tmp_path, DEMO))
    assert config.n == 1
    assert config.structure == "F"
    assert config.initial == (1.0, 0.0, 0.0, 0.0)
    assert config.steps == 628
    assert config.emit_plot is False


def test_initial_length_must_match_n(tmp_path):
    payload = dict(DEMO, initial=[1, 0, 0])
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert "'initial'" in str(excinfo.value)
    assert "length 4" in str(excinfo.value)


def test_structure_must_be_one_of_the_labels(tmp_path):
    payload = dict(DEMO, structure="Q")
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    message = str(excinfo.value)
    assert "'structure'" in message and "F" in message and "H" in message


def test_unknown_keys_are_rejected(tmp_path):
    payload = dict(DEMO, extra=1)
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert "unknown field 'extra'" in str(excinfo.value)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")


def test_malformed_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "not valid JSON" in str(excinfo.value)


def test_non_object_top_level_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_read_config_returns_the_decoded_object(tmp_path):
    assert read_config(write(tmp_path, DEMO)) == DEMO
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="^top level must be a JSON object$"):
        read_config(path)
    with pytest.raises(FileNotFoundError):
        read_config(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "value,valid",
    [("out/run", True), ("out/a\0x", False), ("", False), (None, False), (3, False), (["out"], False)],
)
def test_is_output_prefix(value, valid):
    assert is_output_prefix(value) is valid


def test_integer_dt_and_initial_load_as_floats(tmp_path):
    config = load_config(write(tmp_path, dict(DEMO, dt=1, initial=[1, 0, 0, 0])))
    assert type(config.dt) is float and config.dt == 1.0
    assert all(type(v) is float for v in config.initial)
    assert type(config.n) is int and type(config.steps) is int


def test_hamiltonian_parse_failure_names_the_field(tmp_path):
    payload = dict(DEMO, hamiltonian="x9 + 1")
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert "field 'hamiltonian'" in str(excinfo.value)
    assert "out of range" in str(excinfo.value)


def test_all_problems_reported_together(tmp_path):
    payload = dict(DEMO, structure="Z", dt=-1, steps=0)
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert len(excinfo.value.problems) == 3


def test_missing_fields_are_each_named(tmp_path):
    payload = {"n": 1}
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    missing = [p for p in excinfo.value.problems if p.startswith("missing")]
    assert len(missing) == len(DEMO) - 1


@pytest.mark.parametrize(
    "field,value",
    [
        ("n", 0),
        ("n", True),
        ("n", 1.5),
        ("dt", 0),
        ("dt", "0.1"),
        ("steps", -2),
        ("steps", 1.0),
        ("method", "euler"),
        ("initial", "nope"),
        ("initial", [1, 0, 0, "x"]),
        ("output_prefix", ""),
        ("output_prefix", "out/a\0x"),
        ("emit_plot", "yes"),
        ("hamiltonian", ""),
        ("n", 4097),
        ("n", 10**7),
    ],
)
def test_field_validation(tmp_path, field, value):
    payload = dict(DEMO, **{field: value})
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path, payload))
    assert f"'{field}'" in str(excinfo.value)


@pytest.mark.parametrize("field", ["initial", "dt"])
def test_integer_too_large_for_a_double_is_a_config_error(tmp_path, field):
    # json reads such a literal as an exact int, which math.isfinite cannot convert
    huge = "1" + "0" * 400
    text = json.dumps(DEMO)
    if field == "initial":
        text = text.replace('"initial": [1, 0, 0, 0]', f'"initial": [{huge}, 0, 0, 0]')
    else:
        text = text.replace('"dt": 0.01', f'"dt": {huge}')
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.problems == [
        "field 'initial': must be a list of finite numbers" if field == "initial" else "field 'dt': must be a positive number"
    ]
