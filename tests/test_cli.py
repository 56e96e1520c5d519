import copy
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import disspec
from disspec import artifacts
from disspec.cli import (_COMMAND_SCHEMAS, _TYPES, _walk, dispatch, main, render_report,
                         validate_config)
from disspec.errors import SchemaError
from oracles import (csv_text_per_element, read_csv, spectrum_rows_per_element,
                     state_rows_per_element)

PARAMS = {"a": 1.0, "k": 1.0, "l": 0.5, "gamma1": 1.0, "gamma2": 1.0}
G10_PARAMS = {"a": 1.0, "k": 1.0, "l": 0.5, "gamma1": 0.0, "gamma2": 1.0}


def run_cli(tmp_path, config, seed=0):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    return code, out


class TestSchema:
    def test_empty_config_rejected(self):
        with pytest.raises(SchemaError):
            validate_config({})

    def test_unknown_command(self):
        # a list or an object is no command name; neither may reach the
        # schema lookup, which hashes it
        for command in ("frobnicate", [], {}):
            with pytest.raises(SchemaError, match="unknown command"):
                validate_config({"command": command})

    def test_non_string_command_exit_2(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {"command": []})
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        payload = json.loads(captured.out.strip().splitlines()[-1])
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["error"] == "SchemaError"

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            validate_config({"command": "classify", "params": G10_PARAMS,
                             "extra_knob": 1})

    def test_greek_typo_rejected(self):
        bad = {"a": 1.0, "k": 1.0, "l": 0.5, "gamma_1": 1.0, "gamma2": 1.0}
        with pytest.raises(SchemaError):
            validate_config({"command": "classify", "params": bad})

    def test_empty_config_exit_code(self, tmp_path):
        code, _ = run_cli(tmp_path, {})
        assert code == 2

    @pytest.mark.parametrize("raw", [b'{"command": "classify"\xff}',
                                     b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf8", "nested-past-recursion-limit"])
    def test_undecodable_config_exit_2(self, tmp_path, raw):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        src = str(Path(disspec.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "disspec.cli", "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SchemaError"

    @pytest.mark.parametrize("cmd", sorted(_COMMAND_SCHEMAS))
    def test_command_schema_passes_meta_schema(self, cmd):
        import jsonschema

        schema = _COMMAND_SCHEMAS[cmd]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("config", [
        {"command": "classify", "params": G10_PARAMS, "extra_knob": 1},
        {"command": "classify", "params": {**G10_PARAMS, "a": "one"}},
        {"command": "evolve", "params": PARAMS, "profile": {"kind": "box"},
         "t": -1.0, "grid": {"n_geo": 0}},
        {"command": "gap", "params": PARAMS},
    ])
    def test_message_is_jsonschema_best_match(self, config):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(config, _COMMAND_SCHEMAS[config["command"]])
        with pytest.raises(SchemaError) as got:
            validate_config(config)
        path = ".".join(map(str, expected.value.absolute_path))
        where = f"{path}: " if path else ""
        assert str(got.value) == (f"config invalid for command {config['command']!r}: "
                                  f"{where}{expected.value.message}")


#: the JSON Schema keywords that the command schemas may use
KEYWORDS = {"type", "properties", "additionalProperties", "required", "minimum",
            "exclusiveMinimum", "const", "enum", "items", "minItems", "maxItems"}


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


@functools.cache
def jsonschema_validator(cmd):
    import jsonschema

    schema = _COMMAND_SCHEMAS[cmd]
    return jsonschema.validators.validator_for(schema)(schema)


def valid_values(schema):
    """Values that ``schema`` accepts."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props, required = schema["properties"], schema.get("required", [])
        return st.fixed_dictionaries(
            {name: valid_values(props[name]) for name in required},
            optional={name: valid_values(sub) for name, sub in props.items()
                      if name not in required})
    if kind == "array":
        return st.lists(valid_values(schema["items"]), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 4))
    if kind == "string":
        return st.text(max_size=3)
    low = schema.get("minimum", schema.get("exclusiveMinimum", -100))
    if kind == "integer":
        return st.integers(low + ("exclusiveMinimum" in schema), low + 100)
    return st.floats(low, low + 100, exclude_min="exclusiveMinimum" in schema)


def node_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for name, item in value.items():
            yield from node_paths(item, path + (name,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from node_paths(item, path + (i,))


_REPLACEMENTS = ["x", None, True, False, [], {}, [1.0] * 5, float("nan"), float("inf"),
                 float("-inf"), -1, 0, 2.5, -1e300]


@st.composite
def mutated_configs(draw):
    """A valid config of any command, then up to two single-key mutations:
    a wrong type, a bool, a non-finite or integral float, a bound crossed, a
    key missing or extra, a list empty or long."""
    cmd = draw(st.sampled_from(sorted(_COMMAND_SCHEMAS)))
    config = draw(valid_values(_COMMAND_SCHEMAS[cmd]))
    for _ in range(draw(st.integers(0, 2))):
        # the command picks the schema, so it stays
        path = draw(st.sampled_from([p for p in node_paths(config) if p[:1] != ("command",)]))
        node = functools.reduce(lambda v, part: v[part], path, config)
        action = draw(st.sampled_from(["replace", "integral", "delete", "extra"]))
        if action == "extra" and isinstance(node, dict):
            node[draw(st.sampled_from(["zz", "A", "seed_"]))] = 1
        elif action == "delete" and path and isinstance(path[-1], str):
            del functools.reduce(lambda v, part: v[part], path[:-1], config)[path[-1]]
        elif path:
            parent = functools.reduce(lambda v, part: v[part], path[:-1], config)
            new = copy.deepcopy(draw(st.sampled_from(_REPLACEMENTS)))
            if action == "integral" and isinstance(node, (int, float)) and math.isfinite(node):
                new = float(round(node))
            parent[path[-1]] = new
    return config


def integer_values(schema, value):
    """The values at the integer-typed keys of a valid ``value``."""
    if schema.get("type") == "integer":
        yield value
    elif isinstance(value, dict):
        for name, item in value.items():
            yield from integer_values(schema["properties"][name], item)
    elif isinstance(value, list):
        for item in value:
            yield from integer_values(schema["items"], item)


class TestValidator:
    """The stdlib validator gives jsonschema's verdicts and best-match message."""

    def test_schemas_use_only_the_implemented_keywords(self):
        for schema in _COMMAND_SCHEMAS.values():
            for sub in subschemas(schema):
                assert set(sub) <= KEYWORDS, set(sub) - KEYWORDS
                assert sub.get("type", "object") in _TYPES

    @pytest.mark.parametrize("schema, value", [
        ({"type": "string", "pattern": "^a"}, "b"),
        ({"type": "number", "maximum": 1}, 0.5),
        ({"type": "object", "additionalProperties": {"type": "number"}}, {}),
        ({"const": 1}, 1),
    ])
    def test_unimplemented_keyword_raises(self, schema, value):
        with pytest.raises(NotImplementedError):
            _walk(schema, value, (), [])

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(mutated_configs())
    @example({"command": "decay", "params": PARAMS, "profile": {"kind": "box"},
              "times": {"t_min": 1.0, "t_max": 10.0, "n": 3.0}, "j_orders": []})
    @example({"command": "decay", "params": PARAMS, "profile": {"kind": "box"},
              "times": {"t_min": 1.0, "t_max": 10.0, "n": 3}, "j_orders": [1.0, 2],
              "fit_window": [1.0, 2.0, 3.0]})
    @example({"command": "lyapunov-audit", "params": {**PARAMS, "a": True, "zz": 1, "A": 2},
              "frequencies": [1, "x"], "n_random": -1.5})
    def test_same_verdict_and_message_as_jsonschema(self, config):
        from jsonschema.exceptions import best_match

        cmd = config["command"]
        expected = best_match(jsonschema_validator(cmd).iter_errors(config))
        if expected is not None:
            with pytest.raises(SchemaError) as got:
                validate_config(config)
            path = ".".join(map(str, expected.absolute_path))
            where = f"{path}: " if path else ""
            assert str(got.value) == f"config invalid for command {cmd!r}: {where}{expected.message}"
            return
        try:
            checked = validate_config(config)
        except SchemaError as e:
            # the finiteness and order checks that follow the schema
            assert "must be finite" in str(e) or "must exceed" in str(e)
            return
        assert checked == config
        assert all(type(v) is int for v in integer_values(_COMMAND_SCHEMAS[cmd], checked))


class TestBounds:
    """Bounds the schema types alone let through end in exit 2 naming the key."""

    DECAY = {"command": "decay", "params": PARAMS,
             "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
             "times": {"t_min": 1.0, "t_max": 100.0, "n": 5}, "j_orders": [0],
             "grid": {"xi_max": 8.0, "n_geo": 16, "n_lin": 16}}
    SPECTRUM = {"command": "spectrum", "params": PARAMS,
                "xi_min": 0.0, "xi_max": 10.0, "n_points": 5}

    def refused(self, tmp_path, capsys, config):
        code, out = run_cli(tmp_path, config)
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["error"] == "SchemaError"
        assert not (out / "decay_fits.json").exists() and not (out / "spectrum.csv").exists()
        return payload["message"]

    # without the bound a negative width writes the fits of its absolute value
    @pytest.mark.parametrize("width", [-1.0, 0.0])
    @pytest.mark.parametrize("command", ["decay", "synthesize", "evolve"])
    def test_width_must_be_positive(self, tmp_path, capsys, command, width):
        config = {**self.DECAY, "profile": {"kind": "gaussian", "width": width}}
        if command == "synthesize":
            config = {**config, "command": command, "partition": {"nu": 0.05, "N": 5.0}}
            del config["j_orders"]
        elif command == "evolve":
            config = {"command": command, "params": PARAMS, "profile": config["profile"],
                      "t": 1.0}
        assert "profile.width: " in self.refused(tmp_path, capsys, config)

    @pytest.mark.parametrize("times, key", [
        ({"t_min": 10.0, "t_max": 10.0}, "times.t_max"),
        ({"t_min": 100.0, "t_max": 1.0}, "times.t_max"),
        ({"t_min": 1.0, "t_max": float("nan")}, "times.t_max"),
        ({"t_min": 1.0, "t_max": float("inf")}, "times.t_max"),
        ({"t_min": float("nan"), "t_max": 10.0}, "times.t_min"),
        ({"t_min": 0.0, "t_max": 10.0}, "times.t_min: "),
    ])
    @pytest.mark.parametrize("command", ["decay", "synthesize"])
    def test_times_bounds(self, tmp_path, capsys, command, times, key):
        config = {**self.DECAY, "times": {**self.DECAY["times"], **times}}
        if command == "synthesize":
            config = {**config, "command": command, "partition": {"nu": 0.05, "N": 5.0}}
            del config["j_orders"]
        assert key in self.refused(tmp_path, capsys, config)

    @pytest.mark.parametrize("bounds, key", [
        ({"xi_min": 10.0, "xi_max": 10.0}, "xi_max"),
        ({"xi_min": 10.0, "xi_max": -10.0}, "xi_max"),
        ({"xi_min": float("-inf"), "xi_max": 10.0}, "xi_min"),
        ({"xi_min": float("nan"), "xi_max": 10.0}, "xi_min"),
        ({"xi_min": 0.0, "xi_max": float("nan")}, "xi_max"),
    ])
    def test_spectrum_bounds(self, tmp_path, capsys, bounds, key):
        message = self.refused(tmp_path, capsys, {**self.SPECTRUM, **bounds})
        assert message.startswith(f"config invalid for command 'spectrum': {key} ")

    # without the check an infinite N reached np.linspace, which warned on
    # stderr and then refused a grid of NaNs without naming the key
    @pytest.mark.parametrize("band, key", [
        ({"N": float("inf")}, "N"),
        ({"N": float("nan")}, "N"),
        ({"nu": float("-inf")}, "nu"),
        ({"nu": 10.0, "N": 10.0}, "N"),
        ({"nu": 10.0, "N": 0.1}, "N"),
    ])
    @pytest.mark.parametrize("command", ["gap", "synthesize"])
    @pytest.mark.filterwarnings("error")
    def test_band_bounds(self, tmp_path, capsys, command, band, key):
        if command == "gap":
            config = {"command": "gap", "params": G10_PARAMS, "nu": 0.1, "N": 10.0, **band}
        else:
            config = {**self.DECAY, "command": command, "params": G10_PARAMS,
                      "partition": {"nu": 0.05, "N": 5.0, **band}}
            del config["j_orders"]
            key = f"partition.{key}"
        code, out = run_cli(tmp_path, config)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        payload = json.loads(captured.out.strip().splitlines()[-1])
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["error"] == "SchemaError"
        assert payload["message"].startswith(f"config invalid for command {command!r}: {key} ")
        assert not (out / "gap_certificate.json").exists()
        assert not (out / "synthesis.json").exists()


    # an infinite end used to run the whole job and fail writing it (exit 1);
    # the others refused with too few samples, naming no key
    @pytest.mark.parametrize("window, key", [
        ([100.0, float("inf")], "fit_window.1"),
        ([1e4, 1e2], "fit_window.1"),
        ([float("nan"), 1e4], "fit_window.0"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_fit_window_bounds(self, tmp_path, capsys, window, key):
        code, out = run_cli(tmp_path, {**self.DECAY, "fit_window": window})
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        payload = json.loads(captured.out.strip().splitlines()[-1])
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["message"].startswith(f"config invalid for command 'decay': {key} ")
        assert not (out / "decay_fits.json").exists() and not (out / "runs.jsonl").exists()


class TestCsvRows:
    """The row builders hand write_csv a float64 table; the bytes equal those
    of the per-element writer on numpy scalars."""

    SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1e-310, 1e308, -1e308, np.nan,
               np.inf, -np.inf, 1.0 / 3.0, -7.25e-17]

    def data(self, n_cols):
        rng = np.random.default_rng(4)
        special = np.array(self.SPECIAL)
        n = 3 * len(special)
        re = rng.normal(size=(n, n_cols)) * 10.0 ** rng.integers(-300, 300, size=(n, n_cols))
        im = rng.normal(size=(n, n_cols))
        for k, x in enumerate(special):
            re[k, k % n_cols] = x
            im[len(special) + k, k % n_cols] = x
        grid = np.concatenate([special, rng.normal(size=n - len(special))])
        values = re.astype(complex)
        values.imag = im
        return grid, values

    def check(self, tmp_path, header, rows, reference_rows):
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.shape == (len(reference_rows), len(header))
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, header, rows)
        assert path.read_bytes() == csv_text_per_element(header, reference_rows).encode()

    def test_spectrum_rows(self, tmp_path):
        grid, branches = self.data(6)
        header, rows = artifacts.spectrum_csv_rows(grid, branches)
        self.check(tmp_path, header, rows, spectrum_rows_per_element(grid, branches))

    def test_state_rows(self, tmp_path):
        grid, values = self.data(6)
        header, rows = artifacts.state_csv_rows(grid, values)
        self.check(tmp_path, header, rows, state_rows_per_element(grid, values))

    def test_magnitude_under_both_signs(self, tmp_path):
        # one formatted magnitude serves both signs, and -0.0 keeps its sign
        # beside 0.0
        rows = [[1.5, -1.5, 0.0], [-0.0, 0.0, -1.5], [-np.nan, np.nan, -np.inf]]
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == "a,b,c\n1.5,-1.5,0.0\n-0.0,0.0,-1.5\nnan,nan,-inf\n"
        assert path.read_bytes() == csv_text_per_element(["a", "b", "c"], rows).encode()

    def test_empty_table(self, tmp_path):
        path = tmp_path / "table.csv"
        artifacts.write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    @pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]], [[]]])
    def test_ragged_rows_write_nothing(self, tmp_path, rows):
        with pytest.raises(ValueError, match="do not fit 2 header columns"):
            artifacts.write_csv(tmp_path / "table.csv", ["a", "b"], rows)
        assert list(tmp_path.iterdir()) == []

    def test_ragged_state_rows_exit_1(self, tmp_path, monkeypatch, capsys):
        # a table narrower than the header is an internal error: exit 1 and
        # no state.csv
        def narrow(grid, values):
            header, rows = state_rows(grid, values)
            return header, rows[:, :-1]

        state_rows = artifacts.state_csv_rows
        monkeypatch.setattr(artifacts, "state_csv_rows", narrow)
        code, out = run_cli(tmp_path, {
            "command": "evolve", "params": PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "t": 2.0, "grid": {"xi_max": 8.0, "n_geo": 8, "n_lin": 8}})
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert "do not fit 13 header columns" in payload["message"]
        assert not (out / "state.csv").exists()


class TestCommands:
    def test_spectrum_csv_round_trip(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "spectrum", "params": PARAMS,
            "xi_min": -10.0, "xi_max": 10.0, "n_points": 41})
        assert code == 0
        path = out / "spectrum.csv"
        header, rows = read_csv(path)
        assert header[0] == "xi" and header[-1] == "max_re"
        assert len(header) == 14 and len(rows) == 41
        # byte-identical round trip
        first = path.read_bytes()
        artifacts.write_csv(path, header, rows)
        assert path.read_bytes() == first

    def test_spectrum_past_double_range_exit_1(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {
            "command": "spectrum", "params": PARAMS,
            "xi_min": 0.0, "xi_max": 1e300, "n_points": 5})
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "SolverError"
        assert not (out / "spectrum.csv").exists()

    def test_spectrum_past_scale_cap_exit_1(self, tmp_path, capsys):
        # finite but past the supported symbol scale: the solve's rounding
        # would report max Re = +64 at 1e18
        code, out = run_cli(tmp_path, {
            "command": "spectrum", "params": PARAMS,
            "xi_min": 0.0, "xi_max": 1e18, "n_points": 5})
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "SolverError"
        assert not (out / "spectrum.csv").exists()

    def test_unallocatable_grid_exit_1(self, tmp_path, capsys):
        # 2^50 initial points cannot be allocated: numpy's MemoryError ends
        # in the internal-error payload, not in a traceback
        code, out = run_cli(tmp_path, {
            "command": "gap", "params": G10_PARAMS, "nu": 0.05, "N": 50.0,
            "initial_points": 2 ** 50})
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"].endswith("MemoryError") and payload["message"]
        assert not (out / "gap_certificate.json").exists()

    def test_classify_verdict(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "classify",
            "params": {"a": 1.0, "k": 1.0, "l": 1.0, "gamma1": 0.0, "gamma2": 1.0}})
        assert code == 0
        payload = json.loads((out / "cardano.json").read_text())
        assert payload["verdict"] == "one_real_pair_conjugate"
        assert payload["D"] > 0

    def test_gap_certificate(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "gap", "params": G10_PARAMS, "nu": 0.1, "N": 10.0,
            "initial_points": 65})
        assert code == 0
        payload = json.loads((out / "gap_certificate.json").read_text())
        assert payload["gap"] > 0
        assert len(payload["grid"]) == len(payload["max_re"])

    def test_gap_refused_for_gamma2_zero(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "gap",
            "params": {"a": 1.0, "k": 1.0, "l": 1.0, "gamma1": 1.0, "gamma2": 0.0},
            "nu": 0.1, "N": 10.0})
        assert code == 2
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "CertificateRefused"
        assert 0.1 <= payload["witness_xi"] <= 10.0

    def test_degenerate_defect_exit_2(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "asymptotics",
            "params": {"a": 1.0, "k": float(np.sqrt(2.0)), "l": 1.0,
                       "gamma1": 0.0, "gamma2": 1.0}})
        assert code == 2
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "RegimeError"

    def test_asymptotics_tables(self, tmp_path):
        code, out = run_cli(tmp_path, {"command": "asymptotics", "params": PARAMS})
        assert code == 0
        payload = json.loads((out / "asymptotics.json").read_text())
        assert payload["low_freq"][0]["re_coefficient"] == pytest.approx(-0.2)
        assert {b["xi_power"] for b in payload["high_freq"]} == {0}

    def test_evolve_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "evolve", "params": PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "t": 2.0,
            "grid": {"xi_max": 8.0, "n_geo": 64, "n_lin": 64}})
        assert code == 0
        header, rows = read_csv(out / "state.csv")
        assert len(header) == 13
        hdr = json.loads((out / "state.json").read_text())
        assert hdr["t"] == 2.0

    def test_defective_evolve_imports_no_fallback(self, tmp_path):
        # the clustered xi = 0 row takes the double-precision bidiagonal
        # route, which needs neither an ODE solver nor 50-digit arithmetic,
        # and the branch matching of spectrum needs no assignment solver:
        # no command loads scipy or mpmath; nor numpy.ma, which np.unique
        # without a return_* option imports
        defective = {"command": "evolve",
                     "params": {"a": 1.0, "k": 1.0, "l": math.sqrt(8.0),
                                "gamma1": 0.0, "gamma2": math.sqrt(27.0)},
                     "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
                     "t": 200.0, "grid": {"xi_max": 8.0, "n_geo": 96, "n_lin": 96}}
        configs = [
            defective,
            {"command": "spectrum", "params": PARAMS,
             "xi_min": -10.0, "xi_max": 10.0, "n_points": 41},
            {"command": "asymptotics", "params": PARAMS},
            {"command": "gap", "params": G10_PARAMS, "nu": 0.1, "N": 10.0,
             "initial_points": 65},
            decay_config(),
            {"command": "synthesize", "params": G10_PARAMS,
             "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
             "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
             "partition": {"nu": 0.05, "N": 20.0}, "j": 0, "ell": 1,
             "grid": {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}},
            {"command": "classify", "params": G10_PARAMS},
            {"command": "lyapunov-audit", "params": PARAMS, "frequencies": [0.5, 2.0],
             "n_random": 10},
            {"command": "report", "run_log": str(tmp_path / "out" / "4" / "runs.jsonl")},
        ]
        script = ("import json, sys\n"
                  "from pathlib import Path\n"
                  "from disspec import cli\n"
                  "seen = []\n"
                  "for i, config in enumerate(json.loads(sys.argv[1])):\n"
                  "    cli.dispatch(config, Path(sys.argv[2]) / str(i))\n"
                  "    seen.append(sorted(m for m in sys.modules"
                  " if m.partition('.')[0] in ('scipy', 'mpmath')"
                  " or m.split('.')[:2] == ['numpy', 'ma']))\n"
                  "print(json.dumps(seen))\n")
        src = str(Path(disspec.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs),
                               str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [[]] * len(configs)
        assert (tmp_path / "out" / "0" / "state.csv").exists()

    @pytest.mark.parametrize("profile", [
        {"kind": "gaussian", "width": float("nan")},
        {"kind": "gaussian", "width": float("inf")},
        {"kind": "high_freq_packet", "center": float("nan"), "width": 1.0}])
    def test_evolve_non_finite_profile_exit_2(self, tmp_path, profile):
        # NaN and Infinity parse from JSON and pass "exclusiveMinimum": 0
        code, out = run_cli(tmp_path, {
            "command": "evolve", "params": PARAMS, "profile": profile,
            "t": 2.0, "grid": {"xi_max": 8.0, "n_geo": 16, "n_lin": 16}})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "PreconditionError"
        assert not (out / "state.csv").exists()

    def test_synthesize_nan_width_exit_2(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "synthesize", "params": G10_PARAMS,
            "profile": {"kind": "gaussian", "width": float("nan"), "component": "z"},
            "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "partition": {"nu": 0.05, "N": 20.0}, "j": 0, "ell": 1,
            "grid": {"xi_max": 40.0, "n_geo": 32, "n_lin": 32}})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "PreconditionError"
        assert not (out / "synthesis.json").exists()

    @pytest.mark.parametrize("N, n_lin", [(60.0, 32), (39.5, 39)])
    def test_synthesize_thin_high_region_exit_2(self, tmp_path, N, n_lin):
        # past xi_max = 40 the high region is empty; at N = 39.5 with unit
        # steps it holds |xi| = 40 alone, too few to fit the power p
        code, out = run_cli(tmp_path, {
            "command": "synthesize", "params": G10_PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "partition": {"nu": 0.05, "N": N}, "j": 0, "ell": 1,
            "grid": {"xi_max": 40.0, "n_geo": 32, "n_lin": n_lin}})
        assert code == 2
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "PreconditionError" and "'high'" in payload["message"]
        assert not (out / "synthesis.json").exists()

    def test_synthesize_narrow_grid_exit_2(self, tmp_path):
        # a width-0.1 Gaussian still holds 1e-7 of its peak at |xi| = 40: the
        # measured integrals pass the same tail check as decay's norms
        code, out = run_cli(tmp_path, {
            "command": "synthesize", "params": G10_PARAMS,
            "profile": {"kind": "gaussian", "width": 0.1, "component": "z"},
            "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "partition": {"nu": 0.05, "N": 20.0}, "j": 0, "ell": 1,
            "grid": {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}})
        assert code == 2
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "TailMassError"
        assert payload["edge_values"] == pytest.approx([1.125e-7, 1.125e-7], rel=1e-3)
        assert not (out / "synthesis.json").exists()

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    @pytest.mark.parametrize("params", [PARAMS, {"a": 1.0, "k": 1.0, "l": math.sqrt(8.0),
                                                 "gamma1": 0.0, "gamma2": math.sqrt(27.0)}])
    def test_evolve_non_finite_time_exit_2(self, tmp_path, params, t):
        # JSON parsing accepts NaN and Infinity, and both pass "minimum": 0
        code, out = run_cli(tmp_path, {
            "command": "evolve", "params": params,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "t": t, "grid": {"xi_max": 8.0, "n_geo": 16, "n_lin": 16}})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "PreconditionError"

    @pytest.mark.parametrize("grid", [{"n_geo": -5}, {"n_lin": 0},
                                      {"xi_max": 1.0}, {"n_geo": 2.5}])
    def test_evolve_bad_grid_exit_2(self, tmp_path, grid):
        code, out = run_cli(tmp_path, {
            "command": "evolve", "params": PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "t": 2.0, "grid": grid})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"

    def test_default_grid_rejects_bad_sizes(self):
        from disspec import PreconditionError, default_grid
        for kwargs in ({"n_geo": -5}, {"n_lin": 0}, {"n_geo": 2.5}):
            with pytest.raises(PreconditionError):
                default_grid(**kwargs)

    def test_lyapunov_audit_command(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "lyapunov-audit", "params": PARAMS,
            "frequencies": [0.1, 1.0, 10.0], "n_random": 20})
        assert code == 0
        payload = json.loads((out / "lyapunov_audit.json").read_text())
        assert payload["violation_count"] == 0
        assert payload["c0_feasible"] > 0
        # the sample the audit took: the default horizon, the 6 basis
        # vectors plus n_random states, and the slack of its dL/dt test
        assert (payload["horizon"], payload["n_states"], payload["slack"]) == (5.0, 26, 1e-10)

    @pytest.mark.parametrize("bad, error", [({"frequencies": []}, "SchemaError"),
                                            ({"n_random": -3}, "SchemaError"),
                                            ({"horizon": -1}, "PreconditionError"),
                                            ({"frequencies": [0.0]}, "PreconditionError"),
                                            ({"frequencies": [0.0, -0.0]},
                                             "PreconditionError")])
    def test_lyapunov_audit_bad_input_exit_2(self, tmp_path, bad, error):
        code, out = run_cli(tmp_path, {"command": "lyapunov-audit", "params": PARAMS,
                                       "frequencies": [1.0], "n_random": 4, **bad})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == error
        assert not (out / "lyapunov_audit.json").exists()

    def test_lyapunov_audit_with_zero_frequency(self, tmp_path):
        # xi = 0 bounds no c, but the other frequencies still do
        code, out = run_cli(tmp_path, {
            "command": "lyapunov-audit", "params": PARAMS,
            "frequencies": [0.0, 1.0], "n_random": 4})
        assert code == 0
        payload = json.loads((out / "lyapunov_audit.json").read_text())
        assert 0.0 < payload["c0_feasible"] < math.inf
        assert math.isfinite(payload["c_decay_rate"])

    def test_synthesize_command(self, tmp_path):
        code, out = run_cli(tmp_path, {
            "command": "synthesize", "params": G10_PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "partition": {"nu": 0.05, "N": 20.0},
            "j": 0, "ell": 1,
            "grid": {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}})
        assert code == 0
        payload = json.loads((out / "synthesis.json").read_text())
        assert payload["gap"] > 0
        assert payload["bound_dominates"] is True
        assert "p_fitted" in payload


class TestSolveCount:
    """Eigen solves per command: the closed forms (the xi = 0 cubic and the
    undamped eigenvector) make none of their own."""

    @pytest.fixture
    def solves(self, monkeypatch):
        from disspec import propagator, spectral
        calls = []
        solve = spectral.distinct_spectra

        def spy(params, xi):
            calls.append(np.size(xi))
            return solve(params, xi)

        monkeypatch.setattr(spectral, "distinct_spectra", spy)
        monkeypatch.setattr(propagator, "distinct_spectra", spy)
        return calls

    def test_asymptotics_solves_nothing(self, tmp_path, solves):
        for params in (PARAMS, G10_PARAMS):
            code, _ = run_cli(tmp_path, {"command": "asymptotics", "params": params})
            assert code == 0
        assert solves == []

    def test_conservative_evolve_solves_once(self, tmp_path, solves):
        grid = {"xi_max": 8.0, "n_geo": 64, "n_lin": 64}
        code, _ = run_cli(tmp_path, {
            "command": "evolve", "params": {**PARAMS, "gamma2": 0.0},
            "profile": {"kind": "conservative_mode", "center": 1.0, "width": 2.0},
            "t": 3.0, "grid": grid})
        assert code == 0
        assert solves == [len(disspec.default_grid(**grid))]

    def test_synthesize_solves_per_gap_level_and_once(self, tmp_path, solves):
        grid = {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}
        params = disspec.SystemParams.from_dict(G10_PARAMS)
        levels = disspec.gap_scan(params, 0.05, 20.0, initial_points=257).refinement_depth + 1
        solves.clear()
        code, _ = run_cli(tmp_path, {
            "command": "synthesize", "params": G10_PARAMS,
            "profile": {"kind": "gaussian", "width": 1.0},
            "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "partition": {"nu": 0.05, "N": 20.0}, "grid": grid})
        assert code == 0
        # the gap scan's levels, then the one propagator over the grid
        assert len(solves) == levels + 1
        assert len(disspec.default_grid(**grid)) in solves


class TestOverflowingInput:
    """Input whose arithmetic overflows is refused up front: exit 2 with
    error.json, and nothing on stderr even with warnings as errors."""

    GRID = {"xi_max": 40.0, "n_geo": 32, "n_lin": 32}
    PROFILE = {"kind": "gaussian", "width": 1.0, "component": "z"}

    def run(self, tmp_path, capsys, config):
        code, out = run_cli(tmp_path, config)
        captured = capsys.readouterr()
        payload = json.loads(captured.out.strip().splitlines()[-1])
        return code, captured.err, payload, out

    # |xi|^(2j) overflows at |xi| = 40 from j = 97 on; the decay fit used to
    # refuse an empty window and synthesize to write NaN (exit 1)
    @pytest.mark.parametrize("command", ["decay", "synthesize"])
    @pytest.mark.filterwarnings("error")
    def test_sobolev_weight_overflow_exit_2(self, tmp_path, capsys, command):
        config = {"command": command, "profile": self.PROFILE, "grid": self.GRID,
                  "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10}}
        if command == "decay":
            config.update(params=PARAMS, j_orders=[97])
        else:
            config.update(params=G10_PARAMS, j=97, partition={"nu": 0.05, "N": 20.0})
        code, err, payload, out = self.run(tmp_path, capsys, config)
        assert code == 2 and err == ""
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["error"] == "PreconditionError"
        assert "j = 97" in payload["message"] and "|xi| = 40" in payload["message"]
        assert not (out / "decay_fits.json").exists() and not (out / "synthesis.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_sobolev_order_runs(self, tmp_path, capsys):
        code, err, _, out = self.run(tmp_path, capsys, {
            "command": "decay", "params": PARAMS, "profile": self.PROFILE,
            "grid": self.GRID, "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
            "j_orders": [96]})
        assert code == 0 and err == ""
        assert (out / "decay_fits.json").exists()

    # the weight xi^2 E_hat underflows below the 1e-300 floor, and c0 = inf
    # used to reach the JSON writer (exit 1)
    @pytest.mark.parametrize("frequencies", [[1e-200], [1e-160], [0.0, 1e-200], [0.0]])
    @pytest.mark.filterwarnings("error")
    def test_audit_bounding_no_c_exit_2(self, tmp_path, capsys, frequencies):
        code, err, payload, out = self.run(tmp_path, capsys, {
            "command": "lyapunov-audit", "params": PARAMS,
            "frequencies": frequencies, "n_random": 4})
        assert code == 2 and err == ""
        assert payload == json.loads((out / "error.json").read_text())
        assert payload["error"] == "PreconditionError"
        assert not (out / "lyapunov_audit.json").exists()

    # sigma = 1 + xi^2 used to overflow, with a warning, before the scale
    # cap of the eigen solve refused the frequency
    @pytest.mark.filterwarnings("error")
    def test_audit_past_the_scale_cap_exit_1(self, tmp_path, capsys):
        code, err, payload, out = self.run(tmp_path, capsys, {
            "command": "lyapunov-audit", "params": PARAMS,
            "frequencies": [1e200], "n_random": 4})
        assert code == 1 and "RuntimeWarning" not in err
        assert payload["error"] == "SolverError"
        assert not (out / "lyapunov_audit.json").exists()

    # an infinite horizon used to reach np.linspace, which warned on stderr,
    # and the refusal then named the times, not the key
    @pytest.mark.filterwarnings("error")
    def test_infinite_audit_horizon_exit_2(self, tmp_path, capsys):
        code, err, payload, out = self.run(tmp_path, capsys, {
            "command": "lyapunov-audit", "params": PARAMS, "frequencies": [1.0],
            "n_random": 4, "horizon": float("inf")})
        assert code == 2 and err == ""
        assert payload["error"] == "PreconditionError" and "horizon" in payload["message"]
        assert not (out / "lyapunov_audit.json").exists()


def decay_config(j_orders=(0,)):
    return {
        "command": "decay", "params": PARAMS,
        "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
        "times": {"t_min": 1.0, "t_max": 1000.0, "n": 12},
        "j_orders": list(j_orders),
        "grid": {"xi_max": 8.0, "n_geo": 96, "n_lin": 96},
        "fit_window": [100.0, 1000.0],
    }


class TestDecayAndReport:
    def test_jsonl_determinism(self, tmp_path):
        cfg = decay_config()
        _, out1 = run_cli(tmp_path, cfg, seed=7)
        d2 = tmp_path / "again"
        d2.mkdir()
        cfg_path = d2 / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["--config", str(cfg_path), "--out", str(d2 / "out"), "--seed", "7"])
        assert code == 0
        rec1, _ = artifacts.read_jsonl(out1 / "runs.jsonl")
        rec2, _ = artifacts.read_jsonl(d2 / "out" / "runs.jsonl")
        rec1[0].pop("timing")
        rec2[0].pop("timing")
        assert artifacts.canonical_json(rec1[0]) == artifacts.canonical_json(rec2[0])

    def test_report_from_run_log(self, tmp_path):
        _, out = run_cli(tmp_path, decay_config())
        log = out / "runs.jsonl"
        # inject one malformed line: it must be skipped, not fatal
        with open(log, "a") as fh:
            fh.write("{not valid json\n")
        md = render_report(str(log))
        assert "PASS" in md
        assert "malformed" in md
        assert "Two dampings" in md

    def test_report_gamma2_zero_expects_no_decay(self, tmp_path):
        # without gamma2 nothing decays: the expected exponent is 0, and a
        # fit passes down to -0.02
        log = tmp_path / "runs.jsonl"
        log.write_text("".join(
            json.dumps({"command": "decay", "config_hash": name, "regime": "gamma2_zero",
                        "fits": {"0": {"exponent": exponent}}}) + "\n"
            for name, exponent in (("flat", -0.01), ("decaying", -0.05))))
        md = render_report(str(log))
        assert "## No decay (gamma2 = 0)" in md
        assert "| flat | 0 | +0.000 | -0.0100 | PASS |" in md
        assert "| decaying | 0 | +0.000 | -0.0500 | FAIL |" in md

    def test_report_exponent_tolerance(self, tmp_path):
        # two dampings: j = 0 expects -1/4, and a fit 20% off it fails
        log = tmp_path / "runs.jsonl"
        log.write_text("".join(
            json.dumps({"command": "decay", "config_hash": name, "regime": "both_damped",
                        "fits": {"0": {"exponent": exponent}}}) + "\n"
            for name, exponent in (("near", -0.24), ("slow", -0.2), ("fast", -0.3))))
        md = render_report(str(log))
        assert "| near | 0 | -0.250 | -0.2400 | PASS |" in md
        assert "| slow | 0 | -0.250 | -0.2000 | FAIL |" in md
        assert "| fast | 0 | -0.250 | -0.3000 | FAIL |" in md

    def test_report_skips_unreadable_records(self, tmp_path):
        # each of these parses as JSON; each used to end the report in exit 1
        _, out = run_cli(tmp_path, decay_config())
        log = out / "runs.jsonl"
        good = json.loads(log.read_text())
        fit = good["fits"]["0"]
        bad = [
            {**good, "fits": {"1.0": fit}},
            {**good, "fits": {"0": {k: v for k, v in fit.items() if k != "exponent"}}},
            {**good, "fits": []},
            {**good, "fits": {"0": {**fit, "exponent": "-0.25"}}},
            {k: v for k, v in good.items() if k != "config_hash"},
            [1, 2],
        ]
        with open(log, "a") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in bad)
        (tmp_path / "report").mkdir()
        code, rep = run_cli(tmp_path / "report", {"command": "report", "run_log": str(log)})
        assert code == 0
        md = (rep / "report.md").read_text()
        assert f"_{len(bad)} malformed record(s) skipped._" in md
        assert md.count(f"| {good['config_hash']} | 0 |") == 1

        # a line nested past the recursion limit is skipped like any line
        # that does not parse
        deep = tmp_path / "deep.jsonl"
        deep.write_text(json.dumps(good) + "\n" + "[" * 100000 + "]" * 100000 + "\n")
        (tmp_path / "deep").mkdir()
        code, rep = run_cli(tmp_path / "deep", {"command": "report", "run_log": str(deep)})
        assert code == 0
        md = (rep / "report.md").read_text()
        assert "_1 malformed record(s) skipped._" in md
        assert md.count(f"| {good['config_hash']} | 0 |") == 1

    def test_report_empty_log(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        md = render_report(str(log))
        assert "No decay records" in md
        cfg = {"command": "report", "run_log": str(log)}
        code, out = run_cli(tmp_path, cfg)
        assert code == 0
        assert (out / "report.md").exists()

    def test_report_missing_log_exit_2(self, tmp_path):
        code, _ = run_cli(tmp_path, {"command": "report",
                                     "run_log": str(tmp_path / "nope.jsonl")})
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_report_unreadable_log_exit_2(self, tmp_path, kind):
        log = tmp_path / "runs.jsonl"
        if kind == "directory":
            log.mkdir()
        else:
            log.write_bytes('{"regime": "caf\u00e9"}\n'.encode("latin-1"))
        code, out = run_cli(tmp_path, {"command": "report", "run_log": str(log)})
        assert code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "PreconditionError"
        assert not (out / "report.md").exists()


def test_dispatch_summary_payload(tmp_path):
    summary = dispatch({"command": "classify",
                        "params": {"a": 1.0, "k": 1.0, "l": 1.0,
                                   "gamma1": 0.0, "gamma2": 1.0}},
                       tmp_path)
    assert summary["verdict"] == "one_real_pair_conjugate"


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict parsers do."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictArtifacts:
    """Every command's JSON and JSONL artifacts parse with a strict parser."""

    CONFIGS = {
        "spectrum": {"command": "spectrum", "params": PARAMS,
                     "xi_min": -10.0, "xi_max": 10.0, "n_points": 41},
        # the (2, 1, 1, 0, 1) table leaves the degenerate wave pair's
        # constant NaN
        "asymptotics": {"command": "asymptotics",
                        "params": {"a": 2.0, "k": 1.0, "l": 1.0, "gamma1": 0.0, "gamma2": 1.0}},
        "classify": {"command": "classify", "params": G10_PARAMS},
        "gap": {"command": "gap", "params": G10_PARAMS, "nu": 0.1, "N": 10.0,
                "initial_points": 65},
        "evolve": {"command": "evolve", "params": PARAMS,
                   "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
                   "t": 2.0, "grid": {"xi_max": 8.0, "n_geo": 32, "n_lin": 32}},
        "lyapunov-audit": {"command": "lyapunov-audit", "params": PARAMS,
                           "frequencies": [0.1, 1.0, 10.0], "n_random": 20},
        "decay": decay_config(),
        "synthesize": {"command": "synthesize", "params": G10_PARAMS,
                       "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
                       "times": {"t_min": 1.0, "t_max": 1000.0, "n": 10},
                       "partition": {"nu": 0.05, "N": 20.0}, "j": 0, "ell": 1,
                       "grid": {"xi_max": 40.0, "n_geo": 96, "n_lin": 128}},
    }

    def test_every_command_is_covered(self):
        assert set(self.CONFIGS) | {"report"} == set(_COMMAND_SCHEMAS)

    @pytest.mark.parametrize("cmd", sorted(CONFIGS))
    def test_artifacts_parse_strictly(self, tmp_path, cmd):
        code, out = run_cli(tmp_path, self.CONFIGS[cmd])
        assert code == 0
        files = sorted(out.glob("*.json")) + sorted(out.glob("*.jsonl"))
        assert files or cmd == "spectrum"          # spectrum writes a CSV only
        for path in files:
            for line in path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]:
                strict_json(line)
        if cmd == "asymptotics":
            rows = strict_json((out / "asymptotics.json").read_text())["high_freq"]
            assert None in [row["re_coefficient"] for row in rows]

    def test_non_finite_artifact_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            artifacts.write_json(tmp_path / "x.json", {"x": float("nan")})
        with pytest.raises(ValueError):
            artifacts.append_jsonl(tmp_path / "x.jsonl", {"x": float("inf")})
        assert not (tmp_path / "x.json").exists()


    # jsonschema and scipy are test dependencies: a stub that fails on
    # import stands in for an install without them
    def test_no_command_imports_jsonschema(self, tmp_path):
        self.run_without(tmp_path, "jsonschema")

    def test_no_command_imports_scipy(self, tmp_path):
        self.run_without(tmp_path, "scipy")

    def run_without(self, tmp_path, module):
        """Run every command, and a refusal, in one interpreter in which
        importing ``module`` raises."""
        stub = tmp_path / "stub" / module
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text(f"raise ImportError('{module} is not installed')\n")
        configs = {**self.CONFIGS,
                   "report": {"command": "report",
                              "run_log": str(tmp_path / "decay" / "runs.jsonl")},
                   "refusal": {"command": "classify", "params": {**G10_PARAMS, "a": "one"}}}
        runs = []
        for name, config in configs.items():      # decay before report
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            runs.append([str(tmp_path / f"{name}.json"), str(tmp_path / name)])
        script = ("import json, sys\n"
                  "from disspec import cli\n"
                  "seen = []\n"
                  "for config, out in json.loads(sys.argv[1]):\n"
                  "    seen.append([cli.main(['--config', config, '--out', out]),"
                  f" {module!r} in sys.modules])\n"
                  "print(json.dumps(seen))\n")
        src = str(Path(disspec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(stub.parent), src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = dict(zip(configs, json.loads(proc.stdout.splitlines()[-1])))
        assert seen == {name: [2 if name == "refusal" else 0, False] for name in configs}


class TestIntegralFloats:
    """JSON Schema's integer admits 5.0: an integral float in an integer key
    runs as the int, with the same artifacts and config hash."""

    CASES = [
        ("spectrum", ("n_points",)),
        ("gap", ("initial_points",)),
        ("evolve", ("grid", "n_geo")),
        ("evolve", ("grid", "n_lin")),
        ("lyapunov-audit", ("n_random",)),
        ("decay", ("times", "n")),
        ("decay", ("j_orders", 1)),
        ("decay", ("grid", "n_geo")),
        ("decay", ("seed",)),
        ("synthesize", ("times", "n")),
        ("synthesize", ("j",)),
        ("synthesize", ("ell",)),
    ]

    @staticmethod
    def artifacts_of(out):
        files = {}
        for path in sorted(out.iterdir()):
            if path.suffix == ".jsonl":
                records, _ = artifacts.read_jsonl(path)
                for rec in records:
                    rec.pop("timing")
                files[path.name] = records
            else:
                files[path.name] = path.read_bytes()
        return files

    @pytest.mark.parametrize("cmd, key", CASES)
    def test_integral_float_runs_as_int(self, tmp_path, cmd, key):
        config = copy.deepcopy(TestStrictArtifacts.CONFIGS[cmd])
        if cmd == "decay":
            config.update(j_orders=[0, 1], seed=7)
        as_float = copy.deepcopy(config)
        parent = functools.reduce(lambda v, part: v[part], key[:-1], as_float)
        parent[key[-1]] = float(parent[key[-1]])
        codes, outs = [], []
        for name, cfg in (("int", config), ("float", as_float)):
            (tmp_path / name).mkdir()
            code, out = run_cli(tmp_path / name, cfg)
            codes.append(code)
            outs.append(self.artifacts_of(out))
        assert codes == [0, 0]
        assert outs[0] == outs[1]
        if cmd == "decay":
            # the fits are keyed by the int order, which report reads back
            log = tmp_path / "float" / "out" / "runs.jsonl"
            code, out = run_cli(tmp_path, {"command": "report", "run_log": str(log)})
            assert code == 0 and "| 1 |" in (out / "report.md").read_text()


class TestPhaseLoss:
    """eps |Im lambda| t past 1e-6 leaves no digit of the phase of
    e^{lambda t} that the rounding of lambda does not own: refused."""

    UNDAMPED = {"a": 1.0, "k": 1.0, "l": 1.0, "gamma1": 0.0, "gamma2": 0.0}

    # the grid's largest |Im lambda| is 8.55: eps |Im lambda| t is 1.9e-12
    # at t = 1e3, 1.9e-6 at t = 1e9 and 1.9 at t = 1e15
    @pytest.mark.parametrize("t, code", [(1e3, 0), (1e15, 2), (1e9, 2)])
    def test_evolve(self, tmp_path, t, code):
        got, out = run_cli(tmp_path, {
            "command": "evolve", "params": self.UNDAMPED,
            "profile": {"kind": "gaussian", "width": 1.0, "component": "z"},
            "t": t, "grid": {"xi_max": 8.0, "n_geo": 16, "n_lin": 16}})
        assert got == code
        if code == 2:
            payload = json.loads((out / "error.json").read_text())
            assert payload["error"] == "PreconditionError"
            assert "phase" in payload["message"]
            assert not (out / "state.csv").exists()

    def test_at_xi_3(self):
        from disspec import PreconditionError, SymbolPropagator, SystemParams

        prop = SymbolPropagator(SystemParams(**self.UNDAMPED), np.array([3.0]))
        values = np.ones((1, 6), dtype=complex)
        # unitary: the norm survives t = 1e3
        state = prop.apply(values, 1e3)
        assert np.linalg.norm(state) == pytest.approx(np.linalg.norm(values), rel=1e-9)
        with pytest.raises(PreconditionError, match="phase"):
            prop.apply(values, 1e15)
