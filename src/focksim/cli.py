"""Command-line front end: config loading, experiment dispatch, CSV output.

Subcommands: ns-amplitude, transform, sweep-delay, sweep-phase, hom.
Angles on the command line are radians; delays and coherence times are
femtoseconds.  Values may come from a JSON config object (--config); flags
override its keys, and `validate` checks the merged keys once.  `_KEYS`
describes every config key once (flag, kind, range, default, help) and
`_EXPERIMENTS` holds, per subcommand, the keys it accepts and the runner
that computes its result; the parser, the flag merge, the validator and the
dispatch all read these two tables, so a subcommand offers only its own
flags.  `validate` sees only the input, so two rejections are left to the
runners: `hom`'s dip visibility is undefined when every fourfold value is
0, and `sweep-phase`'s phase shift when either fringe is flat.
Keys named after an `ExperimentConfig` field take their defaults from it.
Exit codes: 0 success, 2 for configuration or validation problems, 1 for
internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    DomainError,
    is_finite,
)
from .evolve import PHOTON_CAP, ns_amplitude_pol, ns_pipeline
from .experiments import (
    ExperimentConfig,
    SweepTable,
    dip_visibility,
    _phase_shift,
    fit_fringe,
    sweep_delay,
    sweep_hom_delay,
    sweep_phase,
)


class _Key(NamedTuple):
    flag: str  # a "range" key takes one flag per end: "--from/--to"
    kind: str  # "int", "float", "range" or "path"
    minimum: float | None
    maximum: float | None
    default: object
    help: str


_KEYS = {
    "n": _Key("--n", "int", 0, None, None, "H-polarized photon count"),
    "m": _Key("--m", "int", 0, None, 0, "V-polarized photon count (default 0)"),
    "r": _Key("--r", "float", 0.0, 1.0, None, "splitter reflectivity for both polarizations"),
    "r_v": _Key("--r-v", "float", 0.0, 1.0, None, "splitter reflectivity, V polarization"),
    "r_h": _Key("--r-h", "float", 0.0, 1.0, None, "splitter reflectivity, H polarization"),
    "theta": _Key("--theta", "float", None, None, None, "pair phase in radians"),
    "points": _Key("--points", "int", 1, 100_000, 61, "number of sweep points"),
    "eta": _Key("--eta", "float", 0.0, 1.0, 1.0, "ancilla overlap at zero delay, in [0, 1]"),
    "tau_coh_fs": _Key("--tau-coh", "float", 1e-12, None, None, "coherence time in fs"),
    "range_fs": _Key("--from/--to", "range", None, None, (-300.0, 300.0), "delay window in fs"),
    "background": _Key("--background", "float", 0.0, None, None, "additive fourfold accidental floor"),
    "out_path": _Key("--out", "path", None, None, None, "CSV output path"),
}

_PARSE = {"int": int, "float": float, "range": float, "path": str}


class _Experiment(NamedTuple):
    help: str
    keys: tuple[str, ...]
    required: tuple[str, ...]
    # config -> (table for --out or None, stdout pairs: a str as is, a number to 9 decimals)
    run: Callable[[RunConfig], tuple[SweepTable | None, list[tuple[str, str | float]]]]


def _param(config: RunConfig, key: str):
    return config.parameters.get(key, _KEYS[key].default)


def _experiment_settings(config: RunConfig) -> ExperimentConfig:
    names = {item.name for item in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in config.parameters.items() if k in names})


def _amplitude_args(config: RunConfig) -> tuple[int, int, float, float]:
    """(m, n, r_v, r_h) for the closed form and the pipeline; `r` fills an unset r_v / r_h."""
    r = config.parameters.get("r")
    r_v, r_h = config.parameters.get("r_v", r), config.parameters.get("r_h", r)
    return _param(config, "m"), config.parameters["n"], r_v, r_h


def _grid(config: RunConfig) -> list[float]:
    lo, hi = _param(config, "range_fs")
    return [float(v) for v in np.linspace(lo, hi, _param(config, "points"))]


def _fourfold_range(table: SweepTable) -> list[tuple[str, float]]:
    four = table.column("fourfold")
    return [("fourfold_min", min(four)), ("fourfold_max", max(four))]


def _run_ns_amplitude(config: RunConfig):
    return None, [("amplitude", ns_amplitude_pol(*_amplitude_args(config)))]


def _run_transform(config: RunConfig):
    result = ns_pipeline(*_amplitude_args(config))
    return None, [("amplitude", result.amplitude.real), ("probability", result.probability)]


def _run_sweep_delay(config: RunConfig):
    table = sweep_delay(config.parameters["theta"], _grid(config), _experiment_settings(config))
    return table, [("points", str(len(table))), *_fourfold_range(table)]


def _run_sweep_phase(config: RunConfig):
    thetas = [float(v) for v in np.linspace(0.0, 2.0 * math.pi, _param(config, "points"))]
    table = sweep_phase(thetas, _param(config, "eta"), _experiment_settings(config))
    two = fit_fringe(zip(table.x, table.column("twofold")))
    four = fit_fringe(zip(table.x, table.column("fourfold")))
    return table, [
        ("phase_shift", _phase_shift(two, four)),
        ("twofold_amplitude", two.amplitude),
        ("fourfold_amplitude", four.amplitude),
    ]


def _run_hom(config: RunConfig):
    table = sweep_hom_delay(_grid(config), _experiment_settings(config), _param(config, "eta"))
    dip = dip_visibility(table.column("fourfold"))
    return table, [("visibility", dip), *_fourfold_range(table)]


_AMPLITUDE_KEYS = ("n", "m", "r", "r_v", "r_h")
_DELAY_KEYS = ("range_fs", "points", "tau_coh_fs", "r_v", "r_h", "background", "out_path")
_PHASE_KEYS = ("points", "eta", "r_v", "r_h", "background", "out_path")

_EXPERIMENTS = {
    "ns-amplitude": _Experiment(
        "closed-form heralded amplitude", _AMPLITUDE_KEYS, ("n",), _run_ns_amplitude
    ),
    "transform": _Experiment(
        "same amplitude via the full pipeline", _AMPLITUDE_KEYS, ("n",), _run_transform
    ),
    "sweep-delay": _Experiment(
        "fourfold probability vs ancilla delay",
        ("theta", *_DELAY_KEYS),
        ("theta",),
        _run_sweep_delay,
    ),
    "sweep-phase": _Experiment(
        "two- and fourfold fringes vs phase", _PHASE_KEYS, ("points",), _run_sweep_phase
    ),
    "hom": _Experiment("coincidence-suppression dip vs delay", ("eta", *_DELAY_KEYS), (), _run_hom),
}


@dataclass
class RunConfig:
    """One validated experiment invocation."""

    experiment: str
    parameters: dict = field(default_factory=dict)


def _validate_number(key: str, value, minimum=None, maximum=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValidationError(key, f"key '{key}' must be a number, got {value!r}")
    if not is_finite(value):
        raise ConfigValidationError(key, f"key '{key}' must be finite")
    if integer and value != int(value):
        raise ConfigValidationError(key, f"key '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigValidationError(key, f"key '{key}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigValidationError(key, f"key '{key}' must be <= {maximum}, got {value}")
    return int(value) if integer else float(value)


def _check(experiment: str, key: str, value):
    spec = _KEYS[key]
    if spec.kind == "path":
        if not isinstance(value, str) or not value:
            raise ConfigValidationError(key, f"key '{key}' must be a non-empty string")
        if os.path.isdir(value):
            raise ConfigValidationError(key, f"key '{key}' names a directory: {value}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(value))):
            raise ConfigValidationError(key, f"key '{key}' lies in a missing directory: {value}")
        return value
    if spec.kind == "range":
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        ):
            raise ConfigValidationError(key, f"key '{key}' must be a two-element numeric list")
        lo, hi = (_validate_number(key, v) for v in value)
        if lo > hi:
            raise ConfigValidationError(key, f"key '{key}' must be ordered, got [{lo}, {hi}]")
        return [lo, hi]
    # fit_fringe needs four samples, so sweep-phase raises the floor on `points`
    minimum = 4 if (experiment, key) == ("sweep-phase", "points") else spec.minimum
    return _validate_number(key, value, minimum, spec.maximum, integer=spec.kind == "int")


def validate(config: RunConfig) -> RunConfig:
    """Check key presence, types, and ranges; returns a normalized copy."""
    experiment = config.experiment
    if experiment not in _EXPERIMENTS:
        raise ConfigValidationError(
            "experiment", f"unknown experiment {experiment!r}; choose from {tuple(_EXPERIMENTS)}"
        )
    accepted, required = _EXPERIMENTS[experiment].keys, _EXPERIMENTS[experiment].required
    params = config.parameters
    for key in params:
        if key not in accepted:
            raise ConfigValidationError(key, f"unknown key '{key}' for experiment '{experiment}'")
    for key in required:
        if key not in params:
            raise ConfigValidationError(key, f"experiment '{experiment}' requires key '{key}'")
    if "r" in accepted and "r" not in params and not ("r_v" in params and "r_h" in params):
        raise ConfigValidationError(
            "r", f"experiment '{experiment}' requires key 'r' (or both 'r_v' and 'r_h')"
        )
    checked = RunConfig(
        experiment, {key: _check(experiment, key, value) for key, value in params.items()}
    )
    if "range_fs" in accepted:  # the delay grid must pass the sweep table's axis rule
        lo, hi = _param(checked, "range_fs")
        try:  # an overflowing width stands in for the non-finite grid np.linspace would make
            SweepTable("delay_fs", _grid(checked) if is_finite(hi - lo) else [hi - lo], {})
        except DomainError:
            points = _param(checked, "points")
            message = f"key 'range_fs' must hold {points} distinct finite delays, got [{lo}, {hi}]"
            raise ConfigValidationError("range_fs", message) from None
    # the pipeline adds one ancilla photon; ns-amplitude is a closed form with no cap
    if experiment == "transform":
        photons = checked.parameters["n"] + _param(checked, "m") + 1
        if photons > PHOTON_CAP:
            message = f"key 'n': n + m + ancilla = {photons}, more than {PHOTON_CAP} photons"
            raise ConfigValidationError("n", message)
    return checked


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    return validate(_read_config(path))


def _read_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config {path} must hold a JSON object")
    if "experiment" not in raw:
        raise ConfigValidationError("experiment", "config is missing the 'experiment' key")
    experiment = raw["experiment"]
    if not isinstance(experiment, str):
        raise ConfigValidationError("experiment", "key 'experiment' must be a string")
    parameters = {key: value for key, value in raw.items() if key != "experiment"}
    return RunConfig(experiment, parameters)


def _format_sig(value: float) -> str:
    # 9 significant digits, trailing zeros kept; +0.0 folds away negative zero
    return format(float(value) + 0.0, "#.9g")


def _format_fixed(value: float) -> str:
    return f"{float(value) + 0.0:.9f}"


def write_csv(table: SweepTable, path: str) -> None:
    """Write a sweep table as UTF-8 CSV, atomically and byte-reproducibly.

    Header first, then one row per x value; every number is rendered with
    nine significant digits, lines end with LF, and the file is staged in a
    temporary sibling and renamed into place only when complete.
    """
    names = [table.x_name, *table.columns]
    lines = [",".join(names)]
    for i, x in enumerate(table.x):
        cells = [_format_sig(x)] + [_format_sig(col[i]) for col in table.columns.values()]
        lines.append(",".join(cells))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, staging = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(payload)
        os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.unlink(staging)
        raise


class _Parser(argparse.ArgumentParser):
    # argparse's negative-number pattern (private, the same in Python 3.10 to 3.13)
    # reads "-1e-3" as a flag; this one takes an exponent.  Subparsers are built
    # from type(parser), so they inherit it.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="focksim",
        description="Heralded sign-shift interferometer simulator (angles in radians, delays in femtoseconds)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in _EXPERIMENTS.items():
        command = sub.add_parser(name, help=experiment.help)
        command.add_argument("--config", help="JSON config file; flags override its keys")
        for key in experiment.keys:
            spec = _KEYS[key]
            for dest, flag in _flag_dests(key, spec):
                command.add_argument(flag, type=_PARSE[spec.kind], dest=dest, help=spec.help)
    return parser


def _flag_dests(key: str, spec: _Key) -> list[tuple[str, str]]:
    """(namespace attribute, flag) pairs; each end of a range is stored under its flag's name."""
    if spec.kind == "range":
        return [(flag.lstrip("-"), flag) for flag in spec.flag.split("/")]
    return [(key, spec.flag)]


def _merge(namespace: argparse.Namespace) -> RunConfig:
    experiment = namespace.experiment
    config = _read_config(namespace.config) if namespace.config else RunConfig(experiment)
    if config.experiment != experiment:
        message = f"key 'experiment' must be {experiment!r}, got {config.experiment!r}"
        raise ConfigValidationError("experiment", message)
    for key in _EXPERIMENTS[experiment].keys:
        spec = _KEYS[key]
        values = [getattr(namespace, dest) for dest, _ in _flag_dests(key, spec)]
        if all(v is None for v in values):  # no flag for this key
            continue
        base = config.parameters.get(key, spec.default)
        if spec.kind == "range" and isinstance(base, (list, tuple)) and len(base) == 2:
            values = [b if v is None else v for b, v in zip(base, values)]  # one end may be unset
        config.parameters[key] = values if spec.kind == "range" else values[0]
    return validate(config)


def _run(config: RunConfig) -> None:
    table, summary = _EXPERIMENTS[config.experiment].run(config)
    if "out_path" in config.parameters:
        write_csv(table, config.parameters["out_path"])
    print(" ".join(f"{k}={v if isinstance(v, str) else _format_fixed(v)}" for k, v in summary))


def execute(argv: Sequence[str]) -> int:
    """Run one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        namespace = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _run(_merge(namespace))
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure, including I/O
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
