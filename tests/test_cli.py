import argparse
import contextlib
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focksim.cli
from focksim import experiments
from focksim.cli import _KEYS, RunConfig, _experiment_settings, execute, load_config, validate, write_csv
from focksim.errors import ConfigParseError, ConfigValidationError, DomainError, EmptySweepError
from focksim.experiments import (
    ExperimentConfig,
    SweepTable,
    fourfold_probability,
    sweep_delay,
    sweep_hom_delay,
    sweep_phase,
)


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------- config

def test_load_config_valid(tmp_path):
    path = write_json(
        tmp_path,
        {"experiment": "sweep-phase", "points": 25, "eta": 1.0, "out_path": "p.csv"},
    )
    config = load_config(path)
    assert config.experiment == "sweep-phase"
    assert config.parameters == {"points": 25, "eta": 1.0, "out_path": "p.csv"}


def test_load_config_unknown_experiment(tmp_path):
    for payload in ({"experiment": "warp"}, {"experiment": 3}, {"points": 25}):
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, payload))
        assert err.value.key == "experiment"


def test_load_config_missing_required_key(tmp_path):
    path = write_json(tmp_path, {"experiment": "ns-amplitude", "n": 2})
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert err.value.key == "r"
    with pytest.raises(ConfigValidationError) as err:
        load_config(write_json(tmp_path, {"experiment": "sweep-delay", "points": 3}))
    assert err.value.key == "theta"


def test_load_config_unknown_key(tmp_path):
    path = write_json(tmp_path, {"experiment": "hom", "wavelength": 800})
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert err.value.key == "wavelength"


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(str(path))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(str(array))


def test_load_config_range_checks(tmp_path):
    with pytest.raises(ConfigValidationError) as err:
        load_config(write_json(tmp_path, {"experiment": "ns-amplitude", "n": 2, "r": 1.5}))
    assert err.value.key == "r"
    with pytest.raises(ConfigValidationError):
        load_config(write_json(tmp_path, {"experiment": "sweep-phase", "points": 3}))
    with pytest.raises(ConfigValidationError):
        load_config(
            write_json(tmp_path, {"experiment": "sweep-delay", "theta": 0.0, "range_fs": [10, -10]})
        )
    # non-finite integers, and ints too large for a float, are rejected
    # before the integer test can overflow
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, {"experiment": "hom", "points": bad}))
        assert err.value.key == "points"
    # wrong JSON types are rejected against the key that holds them
    wrong_types = [("points", v) for v in ("25", True, 2.5)]
    wrong_types += [("out_path", v) for v in ("", 5)]
    wrong_types += [("range_fs", v) for v in ([1], [True, 2])]
    for key, bad in wrong_types:
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, {"experiment": "hom", key: bad}))
        assert err.value.key == key
    # a degenerate delay window is rejected at load, not when the sweep runs
    window = {"experiment": "hom", "range_fs": [5, 5]}
    for extra in ({"points": 3}, {}):
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, {**window, **extra}))
        assert err.value.key == "range_fs"
    assert load_config(write_json(tmp_path, {**window, "points": 1})).parameters["points"] == 1
    # transform holds n + m photons plus the ancilla; the closed form has no cap
    for counts in ({"n": 9}, {"n": 4, "m": 4}, {"n": 8}):
        config = {"experiment": "transform", "r": 0.5, **counts}
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, config))
        assert err.value.key == "n"
    for experiment, n, m in (("transform", 4, 3), ("ns-amplitude", 50, 0)):
        config = {"experiment": experiment, "n": n, "m": m, "r": 0.5}
        assert load_config(write_json(tmp_path, config)).parameters["n"] == n
    # a sweep grid is capped before np.linspace can exhaust memory
    for experiment, extra in (("hom", {}), ("sweep-delay", {"theta": 0.0}), ("sweep-phase", {})):
        config = {"experiment": experiment, "points": 100_000, **extra}
        assert load_config(write_json(tmp_path, config)).parameters["points"] == 100_000
        with pytest.raises(ConfigValidationError) as err:
            load_config(write_json(tmp_path, {**config, "points": 100_001}))
        assert err.value.key == "points"


def test_experiment_settings_default_to_experiment_config():
    # keys left out take ExperimentConfig's own defaults, not a second copy
    assert _experiment_settings(validate(RunConfig("hom", {}))) == ExperimentConfig()
    given = {"r_v": 0.25, "r_h": 0.75, "tau_coh_fs": 80.0, "background": 0.001}
    assert _experiment_settings(validate(RunConfig("hom", given))) == ExperimentConfig(**given)


def test_config_round_trip(tmp_path):
    config = validate(
        RunConfig(
            "sweep-delay",
            {"theta": 3.1, "points": 11, "range_fs": [-50.0, 50.0], "tau_coh_fs": 90.0},
        )
    )
    path = write_json(
        tmp_path, {"experiment": config.experiment, **config.parameters}, name="round.json"
    )
    assert load_config(path) == config


#: One valid config per experiment holding every key it accepts, each with a
#: value the flags under test override.
FULL_CONFIGS = {
    "ns-amplitude": {"n": 2, "m": 0, "r": 0.5, "r_v": 0.5, "r_h": 0.5},
    "transform": {"n": 2, "m": 0, "r": 0.5, "r_v": 0.5, "r_h": 0.5},
    "sweep-delay": {
        "theta": 0.0,
        "points": 5,
        "tau_coh_fs": 100.0,
        "range_fs": [-50.0, 50.0],
        "r_v": 0.5,
        "r_h": 0.5,
        "background": 0.0,
        "out_path": "d.csv",
    },
    "sweep-phase": {
        "points": 25,
        "eta": 1.0,
        "r_v": 0.5,
        "r_h": 0.5,
        "background": 0.0,
        "out_path": "p.csv",
    },
    "hom": {
        "eta": 1.0,
        "points": 5,
        "tau_coh_fs": 100.0,
        "range_fs": [-50.0, 50.0],
        "r_v": 0.5,
        "r_h": 0.5,
        "background": 0.0,
        "out_path": "h.csv",
    },
}


@pytest.mark.parametrize(
    "flag,key,value,text",
    [
        ("--r-v", "r_v", 0.25, "0.25"),
        ("--r-h", "r_h", 0.75, "0.75"),
        ("--background", "background", 0.001, "0.001"),
        ("--eta", "eta", 0.5, "0.5"),
        ("--points", "points", 9, "9"),
        ("--n", "n", 3, "3"),
        ("--m", "m", 1, "1"),
        ("--r", "r", 0.75, "0.75"),
        ("--theta", "theta", 1.5, "1.5"),
        ("--tau-coh", "tau_coh_fs", 80.0, "80"),
        ("--from", "range_fs", [-10.0, 50.0], "-10"),
        ("--to", "range_fs", [-50.0, 20.0], "20"),
        ("--out", "out_path", "elsewhere.csv", "elsewhere.csv"),
    ],
)
def test_flags_override_config(tmp_path, monkeypatch, flag, key, value, text):
    captured = {}
    monkeypatch.setattr("focksim.cli._run", lambda config: captured.update(config.parameters))
    experiments = [name for name, config in FULL_CONFIGS.items() if key in config]
    assert experiments
    for experiment in experiments:
        captured.clear()
        path = write_json(tmp_path, {"experiment": experiment, **FULL_CONFIGS[experiment]})
        assert execute([experiment, "--config", path, flag, text]) == 0, experiment
        assert captured[key] == value, experiment


@pytest.mark.parametrize(
    "flags,key,value",
    [
        (["--theta", "1.5"], "theta", 1.5),
        (["--points", "7"], "points", 7),
        (["--tau-coh", "80"], "tau_coh_fs", 80.0),
        (["--from", "-10", "--to", "20"], "range_fs", [-10.0, 20.0]),
        (["--from", "-10"], "range_fs", [-10.0, 50.0]),
        (["--out", "elsewhere.csv"], "out_path", "elsewhere.csv"),
    ],
)
def test_sweep_delay_flags_override_config(tmp_path, monkeypatch, flags, key, value):
    captured = {}
    monkeypatch.setattr("focksim.cli._run", lambda config: captured.update(config.parameters))
    path = write_json(tmp_path, {"experiment": "sweep-delay", **FULL_CONFIGS["sweep-delay"]})
    assert execute(["sweep-delay", "--config", path, *flags]) == 0
    assert captured[key] == value


def test_ns_amplitude_flags_override_config(tmp_path, monkeypatch):
    captured = {}
    monkeypatch.setattr("focksim.cli._run", lambda config: captured.update(config.parameters))
    path = write_json(tmp_path, {"experiment": "ns-amplitude", "n": 2, "m": 0, "r": 0.5})
    assert execute(["ns-amplitude", "--config", path, "--n", "3", "--m", "1", "--r", "0.75"]) == 0
    assert captured["n"] == 3
    assert captured["m"] == 1
    assert captured["r"] == 0.75


# ---------------------------------------------------------------------- csv

def sample_table():
    return SweepTable("theta", [0.0], {"twofold": [0.0], "fourfold": [0.125]})


def test_write_csv_format(tmp_path):
    path = tmp_path / "row.csv"
    write_csv(sample_table(), str(path))
    assert path.read_bytes() == b"theta,twofold,fourfold\n0.00000000,0.00000000,0.125000000\n"


def test_write_csv_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(sample_table(), str(first))
    write_csv(sample_table(), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_write_csv_rejects_empty_table():
    with pytest.raises(EmptySweepError):
        SweepTable("theta", [], {"fourfold": []})


def test_write_csv_leaves_no_temp_file_on_success(tmp_path):
    path = tmp_path / "clean.csv"
    write_csv(sample_table(), str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.csv"]


# ------------------------------------------------------------------ execute

def test_execute_ns_amplitude_stdout(capsys):
    assert execute(["ns-amplitude", "--n", "2", "--r", "0.5"]) == 0
    assert capsys.readouterr().out == "amplitude=-0.353553391\n"


def test_execute_transform_matches_closed_form(capsys):
    assert execute(["transform", "--n", "2", "--r", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "amplitude=-0.353553391" in out
    assert "probability=0.125000000" in out


def test_execute_transform_with_split_reflectivities(capsys):
    code = execute(
        ["transform", "--n", "2", "--m", "0", "--r-v", "0.757359313", "--r-h", "0.226540920"]
    )
    assert code == 0
    assert "amplitude=-0.628450910" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,stdout",
    [
        ("--n 4 --r 0.5", "amplitude=-0.530330086 probability=0.281250000\n"),
        ("--n 6 --r 0.5", "amplitude=-0.441941738 probability=0.195312500\n"),
        ("--n 7 --r 0.8", "amplitude=-0.307200000 probability=0.094371840\n"),
        ("--n 4 --m 3 --r-v 0.3 --r-h 0.7", "amplitude=-0.048117045 probability=0.002315250\n"),
    ],
)
def test_execute_transform_beyond_the_closed_forms(capsys, flags, stdout):
    # with the ancilla these circuits hold 5 to 8 photons, past the n <= 4 closed forms
    assert execute(["transform", *flags.split()]) == 0
    assert capsys.readouterr().out == stdout


def test_execute_sweep_phase_writes_csv_and_phase(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = execute(["sweep-phase", "--points", "25", "--eta", "1.0", "--out", str(out)])
    assert code == 0
    assert "phase_shift=3.141592654" in capsys.readouterr().out
    header, first_row = out.read_text(encoding="utf-8").splitlines()[:2]
    assert header == "theta,twofold,fourfold"
    assert first_row == "0.00000000,0.00000000,0.125000000"


def test_sweep_phase_fits_each_fringe_once(monkeypatch, capsys):
    # the runner used to fit both columns, then fit them again for the phase shift
    calls = []
    original = experiments.fit_fringe

    def counting(samples):
        calls.append(1)
        return original(samples)

    monkeypatch.setattr(experiments, "fit_fringe", counting)
    monkeypatch.setattr(focksim.cli, "fit_fringe", counting)
    assert execute(["sweep-phase", "--points", "25"]) == 0
    assert capsys.readouterr().out == (
        "phase_shift=3.141592654 twofold_amplitude=0.250000000 fourfold_amplitude=0.125000000\n"
    )
    assert len(calls) == 2


def test_execute_builds_the_parser_once(monkeypatch, capsys):
    # every call rebuilt the whole argparse tree: five subparsers, about 45 flags
    assert execute(["ns-amplitude", "--n", "2", "--r", "0.5"]) == 0
    added = []
    original = argparse._ActionsContainer._add_action

    def counting(container, action):
        added.append(action)
        return original(container, action)

    monkeypatch.setattr(argparse._ActionsContainer, "_add_action", counting)
    assert execute(["ns-amplitude", "--n", "2", "--r", "0.5"]) == 0
    assert execute(["sweep-phase", "--points", "4"]) == 0
    assert added == []
    assert capsys.readouterr().out.startswith("amplitude=-0.353553391\n")


def test_execute_sweep_phase_byte_identical_runs(tmp_path):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert execute(["sweep-phase", "--points", "25", "--out", str(first)]) == 0
    assert execute(["sweep-phase", "--points", "25", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_execute_sweep_delay_minimum_at_zero(tmp_path):
    out = tmp_path / "d.csv"
    code = execute(
        [
            "sweep-delay",
            "--theta", "3.14159265",
            "--from", "-300", "--to", "300",
            "--points", "61",
            "--tau-coh", "100",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 61
    parsed = [tuple(float(cell) for cell in row.split(",")) for row in rows]
    minimum = min(parsed, key=lambda pair: pair[1])
    assert minimum[0] == 0.0
    assert minimum[1] < 1e-9


def test_execute_hom_visibility(capsys):
    code = execute(
        ["hom", "--eta", "0.943", "--from", "-1000", "--to", "1000", "--points", "41"]
    )
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.split("visibility=")[1].split()[0])
    assert value == pytest.approx(0.943**2, abs=1e-6)


@pytest.mark.parametrize(
    "argv,stdout,csv_sha256",
    [
        (
            "ns-amplitude --n 2 --r 0.5",
            "amplitude=-0.353553391\n",
            None,
        ),
        (
            "transform --n 2 --r 0.5",
            "amplitude=-0.353553391 probability=0.125000000\n",
            None,
        ),
        (
            "sweep-phase --points 25 --eta 1.0 --out {out}",
            "phase_shift=3.141592654 twofold_amplitude=0.250000000 fourfold_amplitude=0.125000000\n",
            "4a2040f4b3a4da2efcd581b759780d1adced67b426111ba150fc836cece92a16",
        ),
        (
            "sweep-delay --theta 3.14159265 --from -300 --to 300 --points 61 --tau-coh 100 --out {out}",
            "points=61 fourfold_min=0.000000000 fourfold_max=0.187476861\n",
            "ea6889d35bd1b0ed6205513a1c3f8b0624c1d2d30e153ce79769778cf5a2fd9c",
        ),
        (
            "hom --eta 0.943 --from -1000 --to 1000 --points 61 --tau-coh 100",
            "visibility=0.889249000 fourfold_min=0.027687750 fourfold_max=0.250000000\n",
            None,
        ),
    ],
    ids=["ns-amplitude", "transform", "sweep-phase", "sweep-delay", "hom"],
)
def test_readme_examples_byte_identical(tmp_path, capsys, argv, stdout, csv_sha256):
    """The README's example commands reproduce their recorded stdout and CSV bytes."""
    out = tmp_path / "out.csv"
    assert execute(argv.format(out=out).split()) == 0
    assert capsys.readouterr().out == stdout
    if csv_sha256 is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256


def test_execute_validation_failures_exit_two(tmp_path, capsys):
    assert execute(["ns-amplitude", "--n", "2"]) == 2
    assert "r" in capsys.readouterr().err
    assert execute(["ns-amplitude", "--n", "2", "--r", "1.5"]) == 2
    path = write_json(tmp_path, {"experiment": "warp"})
    assert execute(["hom", "--config", path]) == 2
    assert execute(["no-such-command"]) == 2
    # each subcommand offers only the flags its experiment accepts
    assert execute(["ns-amplitude", "--n", "2", "--r", "0.5", "--out", "x.csv"]) == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    # both ends of the delay window are finite-checked
    for flags in (["--from", "nan"], ["--to", "inf"]):
        assert execute(["sweep-delay", "--theta", "0", *flags]) == 2
        assert "key 'range_fs' must be finite" in capsys.readouterr().err
    # an unwritable --out is rejected before any computation
    missing_dir = tmp_path / "absent" / "out.csv"
    for target in (missing_dir, tmp_path):
        assert execute(["sweep-phase", "--points", "4", "--out", str(target)]) == 2
        assert "key 'out_path'" in capsys.readouterr().err
    assert not missing_dir.parent.exists()
    # the grid size is capped before np.linspace allocates it
    for argv in (["sweep-delay", "--theta", "0"], ["hom"]):
        assert execute([*argv, "--points", "10000000000000"]) == 2
        assert "key 'points' must be <= 100000" in capsys.readouterr().err
    # an int too large for a float used to exit 1 with OverflowError
    assert execute(["ns-amplitude", "--n", "1" + "0" * 400, "--r", "0.5"]) == 2
    assert "key 'n' must be finite" in capsys.readouterr().err
    # 8 photons plus the ancilla exceed the photon cap: exit 2, not exit 1,
    # reported against key 'n' rather than an occupation tuple
    for flags in (["--n", "8"], ["--n", "9"], ["--n", "4", "--m", "4"]):
        assert execute(["transform", *flags, "--r", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "key 'n'" in err and "more than 8 photons" in err
    # the closed form has no photon cap
    assert execute(["ns-amplitude", "--n", "50", "--r", "0.5"]) == 0
    capsys.readouterr()
    # a one-point window cannot hold several sweep points
    assert execute(["hom", "--from", "5", "--to", "5", "--points", "3"]) == 2
    assert "key 'range_fs' must hold 3 distinct finite delays, got [5.0, 5.0]" in capsys.readouterr().err


def test_execute_hom_with_overflowing_squares(capsys):
    # delay^2 and 2 tau^2 both overflow here; this used to exit 2 with a NaN overlap
    argv = ["hom", "--tau-coh", "1e200", "--from", "1e200", "--to", "1e200", "--points", "1"]
    assert execute(argv) == 0
    expected = "visibility=0.000000000 fourfold_min=0.158030140 fourfold_max=0.158030140\n"
    assert capsys.readouterr().out == expected


def test_execute_hom_with_undefined_dip_visibility(tmp_path, capsys):
    # validate sees only the input: an all-zero dip shows only after the sweep has run,
    # so this is the one rejection a runner makes, and it leaves no CSV behind
    for flags in (["--from", "0", "--to", "0"], ["--tau-coh", "1e300"]):
        out = tmp_path / "x.csv"
        assert execute(["hom", "--points", "1", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dip visibility undefined: all values are zero\n"
        assert list(tmp_path.iterdir()) == []


def test_execute_sweep_phase_with_flat_fringe(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for flags, fringe in (
        # with r_h = 0 the twofold fringe is flat and the fourfold one is 0: this used to
        # print phase_shift=2.001072052, the fitted phase of rounding noise, and exit 0
        (["--points", "12", "--eta", "0.77", "--r-v", "1.0", "--r-h", "0.0"], "twofold"),
        # the fit's squared residuals used to overflow, a RuntimeWarning under -W error
        (["--points", "4", "--background", "1e300"], "fourfold"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert execute(["sweep-phase", *flags, "--out", str(out)]) == 2
        expected = f"error: phase shift undefined: the {fringe} fringe is flat"
        assert capsys.readouterr() == ("", expected + " (visibility below 1e-09)\n")
        assert list(tmp_path.iterdir()) == []


def test_rejected_sweep_axis_runs_no_transform(monkeypatch, capsys):
    calls = []
    original = experiments.transform
    monkeypatch.setattr(experiments, "transform", lambda *args: calls.append(1) or original(*args))
    cfg = ExperimentConfig()
    sweeps = (
        lambda axis: sweep_delay(0.0, axis, cfg),
        lambda axis: sweep_hom_delay(axis, cfg),
        lambda axis: sweep_phase(axis, 1.0, cfg),
    )
    # 200 decreasing delays used to run every point before the table rejected them,
    # and 10**400 used to raise OverflowError
    for axis in ([float(x) for x in range(200, 0, -1)], [0.0, math.nan], [0.0, 10**400]):
        for sweep in sweeps:
            with pytest.raises(DomainError):
                sweep(axis)
    for sweep in sweeps:
        with pytest.raises(EmptySweepError):
            sweep([])
    # a bad overlap used to surface in extend_ancilla, after the pair transforms
    for eta in (1.5, math.nan):
        with pytest.raises(DomainError):
            sweep_phase([0.1 * i for i in range(25)], eta, cfg)
        with pytest.raises(DomainError):
            fourfold_probability(0.0, eta, cfg)
    windows = {
        "collapsed": ["--from", "5", "--to", "5", "--points", "3"],
        "degenerate": ["--from", "1e15", "--to", "1.0000000000000002e15", "--points", "1000"],
        "overflowing": ["--from", "-1e308", "--to", "1e308", "--points", "3"],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.linspace must never see an overflowing width
        for name, window in windows.items():
            for command in (["sweep-delay", "--theta", "1"], ["hom"]):
                assert execute([*command, *window]) == 2, name
                assert "key 'range_fs' must hold" in capsys.readouterr().err, name
    assert calls == []


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["--theta", "-1e-3"], ["--theta=-1e-3"]),
        (["--theta", "0.5", "--from", "-3E+2"], ["--theta", "0.5", "--from=-3E+2"]),
        (["--theta", "-.5"], ["--theta=-.5"]),
    ],
    ids=["exponent", "signed-exponent", "leading-dot"],
)
def test_negative_numbers_parse_as_values(tmp_path, spaced, joined):
    # argparse used to read "-1e-3" and "-3E+2" as flags: exit 2, "expected one argument"
    results = []
    for name, flags in (("spaced.csv", spaced), ("joined.csv", joined)):
        out = tmp_path / name
        code, stdout, stderr = _execute_captured(
            ["sweep-delay", *flags, "--points", "3", "--out", str(out)]
        )
        assert code == 0, stderr
        results.append((stdout, stderr, out.read_bytes()))
    assert results[0] == results[1]


def _execute_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = execute(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_execute_is_deterministic_over_random_sweeps(data):
    experiment = data.draw(st.sampled_from(["sweep-delay", "sweep-phase", "hom"]), label="cmd")
    delay = experiment != "sweep-phase"
    points = data.draw(st.integers(1 if delay else 4, 7), label="points")
    argv = [experiment, "--points", str(points)]
    # repr may use exponent notation, as in "-1e-05", which must parse as a number
    real = st.floats(0.0, 1.0).map(repr)
    optional = {"--r-v": real, "--r-h": real, "--background": real}
    if experiment == "sweep-delay":
        argv += ["--theta", repr(data.draw(st.floats(-10.0, 10.0), label="theta"))]
    else:
        optional["--eta"] = real
    if delay:
        window = st.lists(st.integers(-500, 500), min_size=2, max_size=2, unique=True)
        lo, hi = sorted(data.draw(window, label="window"))
        argv += ["--from", str(lo), "--to", str(hi)]
        optional["--tau-coh"] = st.integers(1, 500).map(str)
    for flag, values in optional.items():
        if data.draw(st.booleans(), label=flag):
            argv += [flag, data.draw(values, label=flag)]
    with tempfile.TemporaryDirectory() as directory:
        paths = [Path(directory, name) for name in ("first.csv", "second.csv")]
        first, second = (_execute_captured([*argv, "--out", str(path)]) for path in paths)
        assert first[0] != 1, first[2]
        assert first == second
        written = [path.read_bytes() if path.exists() else None for path in paths]
        assert written[0] == written[1]
        assert (written[0] is not None) == (first[0] == 0)


def _as_flags(key, value):
    if key == "range_fs":
        return ["--from", repr(value[0]), "--to", repr(value[1])]
    return [_KEYS[key].flag, repr(value)]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_config_and_flags_merge_like_flags_alone(data):
    experiment = data.draw(st.sampled_from(["sweep-delay", "sweep-phase", "hom"]), label="cmd")
    delay = experiment != "sweep-phase"
    keys = {"points": data.draw(st.integers(1 if delay else 4, 7), label="points")}
    optional = {"r_v": st.floats(0.0, 1.0), "r_h": st.floats(0.0, 1.0), "background": st.floats(0.0, 1.0)}
    if experiment == "sweep-delay":
        keys["theta"] = data.draw(st.floats(-10.0, 10.0), label="theta")
    else:
        optional["eta"] = st.floats(0.0, 1.0)
    if delay:
        window = st.lists(st.integers(-500, 500), min_size=2, max_size=2, unique=True)
        keys["range_fs"] = sorted(data.draw(window, label="window"))
        optional["tau_coh_fs"] = st.integers(1, 500)
    for key, values in optional.items():
        if data.draw(st.booleans(), label=f"has {key}"):
            keys[key] = data.draw(values, label=key)
    # each key goes to the config file or to the flags; a range may be split, its
    # config end standing beside a decoy that the other end's flag overrides
    config, flags = {"experiment": experiment}, []
    for key, value in keys.items():
        if key == "range_fs":
            ends = data.draw(st.lists(st.booleans(), min_size=2, max_size=2), label="range ends")
            decoy = data.draw(st.integers(-500, 500), label="decoy")
            if any(ends):
                config[key] = [v if in_config else decoy for v, in_config in zip(value, ends)]
            for flag, v, in_config in zip(("--from", "--to"), value, ends):
                if not in_config:
                    flags += [flag, repr(v)]
        elif data.draw(st.booleans(), label=f"{key} in config"):
            config[key] = value
        else:
            flags += _as_flags(key, value)
    with tempfile.TemporaryDirectory() as directory:
        merged_out, flag_out = Path(directory, "merged.csv"), Path(directory, "flags.csv")
        config["out_path"] = str(merged_out)
        path = Path(directory, "config.json")
        path.write_text(json.dumps(config), encoding="utf-8")
        merged = _execute_captured([experiment, "--config", str(path), *flags])
        all_flags = [flag for key, value in keys.items() for flag in _as_flags(key, value)]
        alone = _execute_captured([experiment, *all_flags, "--out", str(flag_out)])
        assert alone[0] != 1, alone[2]
        assert merged == alone
        written = [p.read_bytes() if p.exists() else None for p in (merged_out, flag_out)]
        assert written[0] == written[1]


def test_config_experiment_must_match_subcommand(tmp_path, capsys):
    # this config used to be checked against hom's rules and then run as sweep-delay
    hom = write_json(tmp_path, {"experiment": "hom", "points": 3}, name="hom.json")
    assert execute(["sweep-delay", "--config", hom, "--theta", "1"]) == 2
    assert "key 'experiment' must be 'sweep-delay', got 'hom'" in capsys.readouterr().err
    # a config that lacks theta runs once the flag supplies it
    window = {"points": 3, "range_fs": [-50, 50]}
    merged, alone = tmp_path / "c.csv", tmp_path / "f.csv"
    config = write_json(tmp_path, {"experiment": "sweep-delay", **window, "out_path": str(merged)})
    flags = ["--points", "3", "--from", "-50", "--to", "50", "--out", str(alone)]
    assert execute(["sweep-delay", "--config", config, "--theta", "1.0"]) == 0
    assert execute(["sweep-delay", "--theta", "1.0", *flags]) == 0
    assert merged.read_bytes() == alone.read_bytes()


def test_one_window_flag_needs_a_two_element_config_range(tmp_path, capsys):
    # the config is merged before it is validated, so a malformed range must not
    # raise TypeError (exit 1) or be cut to two elements and run
    for bad in (5, [1, 2, 3], "ab"):
        path = write_json(tmp_path, {"experiment": "hom", "range_fs": bad})
        assert execute(["hom", "--config", path, "--from", "0"]) == 2
        assert "key 'range_fs' must be a two-element numeric list" in capsys.readouterr().err


def test_execute_unreadable_config_exits_two(tmp_path, capsys):
    # each used to exit 1 as an internal error (FileNotFoundError, IsADirectoryError,
    # UnicodeDecodeError); a config the run cannot use is a configuration problem
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"experiment": "sweep-phase"}'.encode("utf-16-le"))
    for path in (tmp_path / "absent.json", tmp_path, utf16):
        assert execute(["sweep-phase", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read config {path}: ")


def test_execute_internal_errors_exit_one(tmp_path, monkeypatch, capsys):
    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("tempfile.mkstemp", disk_full)
    code = execute(["sweep-phase", "--points", "4", "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert "error: OSError" in capsys.readouterr().err


def test_execute_never_leaves_partial_csv(tmp_path, monkeypatch):
    target = tmp_path / "partial.csv"

    def interrupted(*args):
        raise OSError("rename interrupted")

    # fail after the staging file is written, just before it is renamed into place
    monkeypatch.setattr("os.replace", interrupted)
    code = execute(["sweep-phase", "--points", "4", "--out", str(target)])
    assert code == 1
    assert list(tmp_path.iterdir()) == []
