"""Batch command-line front end.

Usage:  disspec --config run.json [--out DIR] [--seed N]

The JSON config carries the command and all command-specific options under a
strict schema (unknown keys are rejected).  Exit codes: 0 success, 2 for
precondition/regime violations or refused certificates (with a
machine-readable error JSON on stdout and in the output directory), 1 for
internal errors.  DISSPEC_LOG controls logging verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import numbers
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import artifacts
from .core_model import SystemParams
from .decay_lab import (Experiment, FrequencyPartition, Profile, build_initial_state,
                        run_decay, three_region_synthesis)
from .errors import CertificateRefused, PreconditionError, SchemaError
from .lyapunov import audit_inequality, sandwich_fit, search_constants
from .propagator import Rule, SymbolPropagator, default_grid
from .spectral import (branch_continuation, cardano_classify, gap_scan,
                       high_freq_expansion, low_freq_expansion)

logger = logging.getLogger("disspec")

_NUMBER = {"type": "number"}
_PARAM_NAMES = ("a", "k", "l", "gamma1", "gamma2")


def _object(properties: dict, required=()) -> dict:
    """The schema of an object with the keys ``properties`` and no other,
    of which those in ``required`` (if any) must be present."""
    return {"type": "object", "properties": properties,
            **({"required": list(required)} if required else {}),
            "additionalProperties": False}


def _command(name: str, required: dict, **optional) -> dict:
    """The schema of command ``name``: the ``command`` const, the keys of
    ``required``, those of ``optional`` and an integer ``seed``, in that
    order (the validator's best match reads it), with ``command`` and the
    keys of ``required`` required."""
    return _object({"command": {"const": name}, **required, **optional,
                    "seed": {"type": "integer"}},
                   ["command", *required])


_PARAMS_SCHEMA = _object(dict.fromkeys(_PARAM_NAMES, _NUMBER), _PARAM_NAMES)

_PROFILE_SCHEMA = _object({
    "kind": {"enum": ["gaussian", "box", "high_freq_packet", "conservative_mode"]},
    "width": {"type": "number", "exclusiveMinimum": 0},
    "center": _NUMBER,
    "component": {"type": "string"},
}, ["kind"])

_GRID_SCHEMA = _object({
    "xi_min_pos": _NUMBER,
    "xi_max": {"type": "number", "exclusiveMinimum": 1},
    "n_geo": {"type": "integer", "minimum": 1},
    "n_lin": {"type": "integer", "minimum": 1},
})

_TIMES_SCHEMA = _object({
    "t_min": {"type": "number", "exclusiveMinimum": 0},
    "t_max": _NUMBER,
    "n": {"type": "integer", "minimum": 2},
}, ["t_min", "t_max", "n"])

_COMMAND_SCHEMAS = {
    "spectrum": _command("spectrum", {
        "params": _PARAMS_SCHEMA,
        "xi_min": _NUMBER,
        "xi_max": _NUMBER,
        "n_points": {"type": "integer", "minimum": 2},
    }),
    "asymptotics": _command("asymptotics", {"params": _PARAMS_SCHEMA}),
    "classify": _command("classify", {"params": _PARAMS_SCHEMA}),
    "gap": _command("gap", {
        "params": _PARAMS_SCHEMA,
        "nu": _NUMBER,
        "N": _NUMBER,
    }, initial_points={"type": "integer", "minimum": 2}),
    "evolve": _command("evolve", {
        "params": _PARAMS_SCHEMA,
        "profile": _PROFILE_SCHEMA,
        "t": {"type": "number", "minimum": 0},
    }, grid=_GRID_SCHEMA),
    "lyapunov-audit": _command(
        "lyapunov-audit", {"params": _PARAMS_SCHEMA},
        frequencies={"type": "array", "minItems": 1, "items": _NUMBER},
        horizon=_NUMBER,
        n_random={"type": "integer", "minimum": 0},
    ),
    "decay": _command(
        "decay", {
            "params": _PARAMS_SCHEMA,
            "profile": _PROFILE_SCHEMA,
            "times": _TIMES_SCHEMA,
            "j_orders": {"type": "array", "minItems": 1,
                         "items": {"type": "integer", "minimum": 0}},
        },
        grid=_GRID_SCHEMA,
        fit_window={"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
    ),
    "synthesize": _command(
        "synthesize", {
            "params": _PARAMS_SCHEMA,
            "profile": _PROFILE_SCHEMA,
            "times": _TIMES_SCHEMA,
            "partition": _object({"nu": _NUMBER, "N": _NUMBER}, ["nu", "N"]),
        },
        j={"type": "integer", "minimum": 0},
        ell={"type": "integer", "minimum": 0},
        grid=_GRID_SCHEMA,
    ),
    "report": _command("report", {"run_log": {"type": "string"}}),
}

#: per command, (low, high) key paths that the schema cannot relate: both
#: must be finite and high must exceed low; an optional pair left out is
#: not checked
_ORDERED_KEYS = {
    "spectrum": [("xi_min", "xi_max")],
    "gap": [("nu", "N")],
    "decay": [("times.t_min", "times.t_max"), ("fit_window.0", "fit_window.1")],
    "synthesize": [("times.t_min", "times.t_max"), ("partition.nu", "partition.N")],
}

#: JSON Schema draft 2020-12 types: a bool is no number, and an integral
#: float is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _walk(schema: dict, value, path: tuple, errors: list):
    """Check ``value`` against ``schema`` over the keywords the command
    schemas use, as JSON Schema draft 2020-12 and jsonschema's wording have
    it.  Appends one ``(path, matches_type, message)`` per violation, in
    jsonschema's order, and returns ``value`` with every integral float in
    an integer slot made an int.  Any other keyword raises."""
    matches = "type" in schema and _TYPES[schema["type"]](value)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    out = value
    for keyword, arg in schema.items():
        message = None
        if keyword == "type":
            if not matches:
                message = f"{value!r} is not of type {arg!r}"
        elif keyword == "properties":
            if is_object:
                out = {**value, **{name: _walk(sub, value[name], path + (name,), errors)
                                   for name, sub in arg.items() if name in value}}
        elif keyword == "additionalProperties" and arg is False:
            extras = sorted((name for name in value if name not in schema.get("properties", {})),
                            key=str) if is_object else []
            if extras:
                message = (f"Additional properties are not allowed "
                           f"({', '.join(map(repr, extras))} "
                           f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword == "required":
            for name in arg if is_object else ():
                if name not in value:
                    errors.append((path, matches, f"{name!r} is a required property"))
        elif keyword == "minimum":
            if is_number and value < arg:
                message = f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if is_number and value <= arg:
                message = f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "const" and isinstance(arg, str):
            if not (isinstance(value, str) and value == arg):
                message = f"{arg!r} was expected"
        elif keyword == "enum" and all(isinstance(each, str) for each in arg):
            if not (isinstance(value, str) and value in arg):
                message = f"{value!r} is not one of {arg!r}"
        elif keyword == "items":
            if is_array:
                out = [_walk(arg, item, path + (i,), errors) for i, item in enumerate(value)]
        elif keyword == "minItems":
            if is_array and len(value) < arg:
                message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "maxItems":
            if is_array and len(value) > arg:
                message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        else:
            raise NotImplementedError(f"schema keyword {keyword!r}: {arg!r}")
        if message is not None:
            errors.append((path, matches, message))
    if matches and schema["type"] == "integer" and isinstance(value, float):
        return int(value)
    return out


def validate_config(config: dict) -> dict:
    """The config checked against its command's schema, with every integral
    float in an integer slot (the schema's ``integer`` admits ``5.0``) made
    an int."""
    if not isinstance(config, dict) or "command" not in config:
        raise SchemaError("config must be an object with a 'command' key")
    cmd = config["command"]
    if not isinstance(cmd, str) or cmd not in _COMMAND_SCHEMAS:
        raise SchemaError(f"unknown command {cmd!r}; known: {sorted(_COMMAND_SCHEMAS)}")
    errors = []
    config = _walk(_COMMAND_SCHEMAS[cmd], config, (), errors)
    if errors:
        # jsonschema's best_match: the shallowest error, then the greatest
        # path, then one whose value fails its schema's type; the first of equals
        path, _, message = max(errors, key=lambda e: (-len(e[0]), e[0], not e[1]))
        # the offending key's path, e.g. "profile.width", when below the top
        where = f"{'.'.join(map(str, path))}: " if path else ""
        raise SchemaError(f"config invalid for command {cmd!r}: {where}{message}")
    for lo_key, hi_key in _ORDERED_KEYS.get(cmd, ()):
        try:
            lo, hi = _lookup(config, lo_key), _lookup(config, hi_key)
        except KeyError:
            continue
        for key, value in ((lo_key, lo), (hi_key, hi)):
            # JSON parsing accepts NaN and Infinity, and NaN passes every bound
            if not math.isfinite(value):
                raise SchemaError(f"config invalid for command {cmd!r}: "
                                  f"{key} must be finite, got {value!r}")
        if not hi > lo:
            raise SchemaError(f"config invalid for command {cmd!r}: "
                              f"{hi_key} = {hi!r} must exceed {lo_key} = {lo!r}")
    return config


def _lookup(config: dict, key: str):
    """The value at a dotted key path such as ``times.t_max`` or
    ``fit_window.1``."""
    for part in key.split("."):
        config = config[int(part)] if isinstance(config, list) else config[part]
    return config


def _experiment(config: dict, params: SystemParams, j_orders: tuple) -> Experiment:
    """The experiment of a ``decay`` or ``synthesize`` config: its profile,
    its geometric times and the rule over its grid."""
    times = config["times"]
    return Experiment(params=params, profile=Profile(**config["profile"]),
                      times=np.geomspace(times["t_min"], times["t_max"], times["n"]),
                      j_orders=j_orders, rule=Rule(default_grid(**config.get("grid", {}))))


def _branch_table(branches) -> list[dict]:
    """Branch rows for JSON; a constant the table leaves NaN is null."""
    return [{"label": b.label,
             "re_coefficient": b.re_coefficient if math.isfinite(b.re_coefficient) else None,
             "xi_power": b.xi_power, "multiplicity": b.multiplicity}
            for b in branches]


def dispatch(config: dict, out_dir: Path, seed: int = 0) -> dict:
    """Run one validated config; returns a summary dict (also written to disk)."""
    config = validate_config(config)
    cmd = config["command"]
    seed = int(config.get("seed", seed))
    out_dir.mkdir(parents=True, exist_ok=True)

    if cmd == "report":
        md = render_report(config["run_log"])
        path = out_dir / "report.md"
        artifacts.atomic_write_text(path, md)
        return {"command": cmd, "artifacts": [str(path)]}

    params = SystemParams.from_dict(config["params"])

    if cmd == "spectrum":
        grid = np.linspace(config["xi_min"], config["xi_max"], config["n_points"])
        branches = branch_continuation(params, grid)
        header, rows = artifacts.spectrum_csv_rows(grid, branches)
        path = out_dir / "spectrum.csv"
        artifacts.write_csv(path, header, rows)
        return {"command": cmd, "artifacts": [str(path)]}

    if cmd == "asymptotics":
        low = low_freq_expansion(params)
        high = high_freq_expansion(params)
        payload = {
            "params": params.to_dict(),
            "regime": params.regime,
            "low_freq": _branch_table(low),
            "high_freq": _branch_table(high),
            "stability_defect": params.stability_defect,
        }
        path = out_dir / "asymptotics.json"
        artifacts.write_json(path, payload)
        return {"command": cmd, "artifacts": [str(path)]}

    if cmd == "classify":
        c = cardano_classify(params)
        payload = {"params": params.to_dict(), "Q": c.Q, "R": c.R, "D": c.D,
                   "gamma_hat_1": c.gamma_hat_1, "gamma_hat_2": c.gamma_hat_2,
                   "verdict": c.verdict}
        path = out_dir / "cardano.json"
        artifacts.write_json(path, payload)
        return {"command": cmd, "artifacts": [str(path)], "verdict": c.verdict}

    if cmd == "gap":
        cert = gap_scan(params, config["nu"], config["N"],
                        initial_points=config.get("initial_points", 129))
        payload = {"params": params.to_dict(), "nu": cert.nu, "N": cert.N,
                   "gap": cert.gap, "refinement_depth": cert.refinement_depth,
                   "grid": list(map(float, cert.grid)),
                   "max_re": list(map(float, cert.max_re))}
        path = out_dir / "gap_certificate.json"
        artifacts.write_json(path, payload)
        return {"command": cmd, "artifacts": [str(path)], "gap": cert.gap}

    if cmd == "evolve":
        grid = default_grid(**config.get("grid", {}))
        state0 = build_initial_state(params, Profile(**config["profile"]), grid)
        prop = SymbolPropagator(params, grid)
        values = prop.apply(state0, config["t"])
        header, rows = artifacts.state_csv_rows(grid, values)
        csv_path = out_dir / "state.csv"
        artifacts.write_csv(csv_path, header, rows)
        hdr_path = out_dir / "state.json"
        artifacts.write_json(hdr_path, {
            "t": config["t"], "params": params.to_dict(),
            "grid": {"n": len(grid), "xi_min": float(grid[0]), "xi_max": float(grid[-1])},
        })
        return {"command": cmd, "artifacts": [str(csv_path), str(hdr_path)]}

    if cmd == "lyapunov-audit":
        consts = search_constants(params)
        freqs = config.get("frequencies", list(np.geomspace(0.05, 20.0, 20)))
        rep = audit_inequality(params, consts, freqs,
                               horizon=config.get("horizon", 5.0),
                               n_random=config.get("n_random", 100),
                               seed=seed)
        c1, c2 = sandwich_fit(params, consts, freqs[:: max(1, len(freqs) // 5)],
                              n_states=2000, seed=seed)
        payload = {
            "params": params.to_dict(),
            "constants": dataclasses.asdict(consts),
            "weight_kind": rep.weight_kind,
            "frequencies": list(map(float, rep.frequencies)),
            "horizon": float(rep.horizon),
            "n_states": rep.n_states,
            "slack": rep.slack,
            "per_frequency_max_violation": list(map(float, rep.per_frequency_violation)),
            "max_violation": rep.max_violation,
            "violation_count": rep.violation_count,
            "c0_feasible": rep.c0_feasible,
            "c1_sandwich": c1,
            "c2_sandwich": c2,
            "c_decay_rate": max(rep.c0_feasible, 0.0) / c2,
        }
        path = out_dir / "lyapunov_audit.json"
        artifacts.write_json(path, payload)
        return {"command": cmd, "artifacts": [str(path)],
                "c0_feasible": rep.c0_feasible}

    if cmd == "decay":
        t0 = time.perf_counter()
        exp = _experiment(config, params, tuple(config["j_orders"]))
        window = tuple(config["fit_window"]) if "fit_window" in config else None
        fits = run_decay(exp, fit_window=window)
        fit_payload = {
            str(j): {"exponent": f.exponent, "amplitude": f.amplitude,
                     "fit_window": list(f.fit_window),
                     "max_residual": f.max_residual}
            for j, f in fits.items()
        }
        record = {
            "command": cmd, "config_hash": artifacts.config_hash({**config, "seed": seed}),
            "seed": seed, "params": params.to_dict(), "regime": params.regime,
            "profile": config["profile"],
            "fits": fit_payload,
            "residuals": {str(j): f.max_residual for j, f in fits.items()},
        }
        wall = time.perf_counter() - t0
        log_path = out_dir / "runs.jsonl"
        artifacts.append_jsonl(log_path, record, wall_time_s=wall)
        path = out_dir / "decay_fits.json"
        artifacts.write_json(path, record)
        return {"command": cmd, "artifacts": [str(path), str(log_path)],
                "fits": fit_payload}

    if cmd == "synthesize":
        exp = _experiment(config, params, (config.get("j", 0),))
        part = FrequencyPartition(**config["partition"])
        rep = three_region_synthesis(exp, part)
        payload = {k: (list(map(float, v)) if isinstance(v, np.ndarray) else v)
                   for k, v in rep.items()}
        payload["params"] = params.to_dict()
        payload["ell"] = config.get("ell", 1)
        path = out_dir / "synthesis.json"
        artifacts.write_json(path, payload)
        return {"command": cmd, "artifacts": [str(path)],
                "p_fitted": rep["p_fitted"], "gap": rep["gap"]}

    raise SchemaError(f"unhandled command {cmd!r}")


_EXPECTED_EXPONENT_TOL = 0.10
_REPORT_TITLES = {
    "gamma2_zero": "No decay (gamma2 = 0)",
    "both_damped": "Two dampings (gamma1, gamma2 > 0)",
    "gamma1_zero": "Single damping (gamma1 = 0)",
    "undamped": "Undamped",
    "unknown": "Unknown regime",
}


def _reportable(rec) -> bool:
    """Whether a run-log record can join the report: a decay record (an
    object) with a config_hash string, a known regime or none, and a dict of
    fits keyed by integer strings, each fit an object with a numeric
    exponent."""
    if not isinstance(rec, dict):
        return False
    regime, fits = rec.get("regime", "unknown"), rec.get("fits")
    return (rec.get("command") == "decay" and isinstance(rec.get("config_hash"), str)
            and isinstance(regime, str) and regime in _REPORT_TITLES
            and isinstance(fits, dict)
            and all(j.isascii() and j.isdigit() and isinstance(fit, dict)
                    and type(fit.get("exponent")) in (int, float)
                    for j, fit in fits.items()))


def render_report(run_log: str) -> str:
    """Markdown summary of a JSONL run log, grouped by damping regime.
    Lines that do not parse and records that are not :func:`_reportable`
    are counted as skipped."""
    try:
        records, skipped = artifacts.read_jsonl(run_log)
    except (OSError, UnicodeDecodeError) as e:
        # missing, a directory, unreadable or not UTF-8
        raise PreconditionError(f"run log unreadable: {run_log}: {e}") from e
    groups: dict[str, list[dict]] = {}
    for rec in records:
        if _reportable(rec):
            groups.setdefault(rec.get("regime", "unknown"), []).append(rec)
        else:
            skipped += 1

    lines = ["# Decay run summary", ""]
    if skipped:
        lines += [f"_{skipped} malformed record(s) skipped._", ""]
    total = 0
    for regime, title in _REPORT_TITLES.items():
        recs = groups.get(regime)
        if not recs:
            continue
        lines += [f"## {title}", "",
                  "| config | j | expected | fitted | verdict |",
                  "|---|---|---|---|---|"]
        for rec in recs:
            for j_str, fit in sorted(rec["fits"].items(), key=lambda kv: int(kv[0])):
                j = int(j_str)
                if regime == "gamma2_zero":
                    expected = 0.0
                    ok = fit["exponent"] >= -0.02
                else:
                    expected = -0.25 - 0.5 * j
                    ok = abs(fit["exponent"] - expected) <= abs(expected) * _EXPECTED_EXPONENT_TOL
                lines.append(
                    f"| {rec['config_hash']} | {j} | {expected:+.3f} | "
                    f"{fit['exponent']:+.4f} | {'PASS' if ok else 'FAIL'} |")
                total += 1
        lines.append("")
    if total == 0:
        lines += ["_No decay records._", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="disspec",
        description="Spectral decay laboratory for the damped curved-beam system")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    level = os.environ.get("DISSPEC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")

    out_dir = Path(args.out)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        # ValueError covers both a JSON and a UTF-8 decode error
        print(json.dumps({"error": "SchemaError", "message": str(e)}))
        return 2

    try:
        summary = dispatch(config, out_dir, seed=args.seed)
    except (PreconditionError, CertificateRefused) as e:
        payload = e.payload()
        print(json.dumps(payload))
        try:
            artifacts.write_json(out_dir / "error.json", payload)
        except (OSError, ValueError):   # unwritable, or a non-finite field
            pass
        return 2
    except Exception as e:
        # a SolverError or any fault outside the package's own errors (say,
        # a MemoryError) ends in the same internal-error payload
        logger.error("internal error: %s", e)
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return 1
    print(json.dumps(summary, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
