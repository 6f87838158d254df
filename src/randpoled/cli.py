"""Command-line front end: scenario dispatch with deterministic outputs.

Subcommands mirror the scenario ids one-to-one; `list` prints them.
Parameters come from an optional JSON config file plus flags (flags
win).  Each run writes one CSV per result table and a metadata.json
that re-parses into an equivalent run configuration.

Exit codes: 0 success, 2 configuration error, 3 numeric/domain error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import difflib
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .dispersion import DispersionError
from .io import atomic_write_files, json_text, table_to_csv
from .phasematch import PhasematchError
from .scenarios import SCENARIO_NOTES, SCENARIOS
from .spatial import SpatialError
from .spectra import SpectraError
from .structures import StructureError
from .temporal import TemporalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

OUT_DIR_ENV = "RANDPOLED_OUT_DIR"
# not scenario parameters; "version" and "extra" are read back from
# metadata.json and ignored
_RESERVED = ("scenario", "seed", "out_dir", "threads", "parameters",
             "version", "extra")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    scenario: str
    seed: int = 0
    out_dir: str = "."
    params: dict = field(default_factory=dict)


def scenario_defaults(scenario: str) -> dict:
    sig = inspect.signature(SCENARIOS[scenario])
    return {name: p.default for name, p in sig.parameters.items()
            if name != "seed" and p.default is not inspect.Parameter.empty}


def _coerce(value, default):
    """Coerce a config value or flag string to the type of the default."""
    if isinstance(default, (tuple, list)):
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v]
        # list elements take their type from the default's, whose elements
        # all share one type: int, float or str
        return tuple(_coerce(v, default[0]) for v in value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{value!r} is not a string")
        return value
    if isinstance(value, str):
        value = _parse_token(value)
    # JSON true is not a number, though Python's bool subclasses int
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if isinstance(default, float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        return value
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_token(token: str):
    token = token.strip()
    for caster in (int, float):
        try:
            return caster(token)
        except ValueError:
            pass
    return token


def _validate_params(scenario: str, raw: dict) -> dict:
    defaults = scenario_defaults(scenario)
    params = {}
    for key, value in raw.items():
        if key not in defaults:
            hint = difflib.get_close_matches(key, list(defaults) + list(_RESERVED),
                                             n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(
                f"unknown parameter {key!r} for scenario {scenario!r}{suffix}")
        try:
            params[key] = _coerce(value, defaults[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}") from exc
    return params


def parse_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge a JSON config file with flag overrides into a RunConfig."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    raw_params = dict(data.get("parameters", {}))
    for key, value in data.items():
        if key not in _RESERVED:
            raw_params[key] = value
    scenario = overrides.get("scenario") or data.get("scenario")
    if data.get("scenario") not in (None, scenario):
        raise ConfigError(f"config names scenario {data['scenario']!r}, "
                          f"but the command is {scenario!r}")
    if scenario is None:
        raise ConfigError("no scenario given (config key 'scenario' or subcommand)")
    if scenario not in SCENARIOS:
        hint = difflib.get_close_matches(scenario, SCENARIOS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown scenario {scenario!r}{suffix}")
    for key, value in overrides.get("params", {}).items():
        if value is not None:
            raw_params[key] = value
    params = _validate_params(scenario, raw_params)
    seed = overrides.get("seed")
    try:
        seed = _coerce(data.get("seed", 0) if seed is None else seed, 0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid seed: {exc}") from exc
    out_dir = overrides.get("out_dir") or data.get("out_dir") \
        or os.environ.get(OUT_DIR_ENV) or "."
    return RunConfig(scenario=scenario, seed=int(seed), out_dir=str(out_dir),
                     params=params)


def run(config: RunConfig) -> int:
    """Execute the scenario and write its output bundle."""
    func = SCENARIOS[config.scenario]
    resolved = scenario_defaults(config.scenario) | config.params
    print(f"randpoled: running {config.scenario} (seed {config.seed}) ...",
          file=sys.stderr)
    try:
        result = func(seed=config.seed, **config.params)
    except (StructureError, DispersionError, PhasematchError, SpectraError,
            TemporalError, SpatialError) as exc:
        _emit_error("numeric", str(exc))
        return EXIT_NUMERIC
    files = {f"{name}.csv": table_to_csv(table)
             for name, table in result.tables.items()}
    metadata = {
        "scenario": config.scenario,
        "seed": config.seed,
        "parameters": resolved,
        "version": __version__,
        "extra": result.metadata,
    }
    files["metadata.json"] = json_text(metadata)
    try:
        atomic_write_files(config.out_dir, files)
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_IO
    print(f"randpoled: wrote {len(files)} files to {config.out_dir}",
          file=sys.stderr)
    return EXIT_OK


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def build_parser(scenarios) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randpoled",
        description="Photon-pair simulator for randomly poled and chirped "
                    "quasi-phase-matched crystals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available scenarios")
    for scenario in scenarios:
        sp = sub.add_parser(scenario, help=SCENARIO_NOTES[scenario])
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="random seed (default 0)")
        sp.add_argument("--out-dir", help="output directory "
                        f"(default: ${OUT_DIR_ENV} or '.')")
        sp.add_argument("--threads", type=int,
                        help="accepted and ignored: the program starts no threads, "
                        "but NumPy's BLAS is multithreaded; OPENBLAS_NUM_THREADS=1 pins it")
        for name, default in scenario_defaults(scenario).items():
            sp.add_argument("--" + name.replace("_", "-"),
                            metavar="V1,V2,..." if isinstance(default, tuple) else None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a scenario's run builds its own subparser only; list, help and errors all
    named = argv[:1] if argv[:1] and argv[0] in SCENARIOS else SCENARIOS
    args = build_parser(named).parse_args(argv)
    if args.command == "list":
        for scenario in SCENARIOS:
            print(f"{scenario:20s} {SCENARIO_NOTES[scenario]}")
        return EXIT_OK
    arg_dict = vars(args)
    # parse_config checks and coerces flag values like config-file values
    params = {name: arg_dict.get(name) for name in scenario_defaults(args.command)}
    overrides = {
        "scenario": args.command,
        "seed": args.seed,
        "out_dir": args.out_dir,
        "params": params,
    }
    try:
        config = parse_config(args.config, overrides)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
