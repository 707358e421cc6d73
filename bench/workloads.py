"""Running and checking the benchmark's ops against focksim's public API.

Each workload turns a generated op into library objects (`prepare`, not
timed), runs it the way a user's script would (`run`, timed), and checks the
output against an independent route (`check`, not timed).  The checks never
call `transform`: sweeps are recomputed through `transform_oracle`, the
sign-shift gate against its closed form, dense circuits against
`transform_oracle`.

Functions are called through their module attribute (`focksim.herald`), so
that the spans `spans.tracing` installs see every call.  Importing this
module imports focksim from the `src/` directory of the checkout that holds
the benchmark, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src"
if not (SOURCE_DIR / "focksim" / "__init__.py").is_file():
    raise ImportError(f"focksim sources not found under {SOURCE_DIR}")
sys.path.insert(0, str(SOURCE_DIR))

import numpy as np  # noqa: E402

import focksim  # noqa: E402
import focksim.cli  # noqa: E402
from focksim import (  # noqa: E402
    H,
    V,
    ExperimentConfig,
    HeraldSpec,
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    PureState,
)

if Path(focksim.__file__).resolve().parent != SOURCE_DIR / "focksim":
    raise ImportError(f"imported focksim from {focksim.__file__}, not from {SOURCE_DIR}")

#: Ports of the tabletop, as documented in `focksim.experiments`: the pair
#: is bunched into spatial 3, the signal enters the sign-shift splitter on 7
#: and the ancilla on 8.  Spelled out here so the check does not share the
#: library's constants.
PAIR_IN = (1, 2)
MODE3 = 3
SIGNAL = 7
ANCILLA = 8

#: ns_gate amplitudes must match the closed form this closely.
NS_TOL = 1e-12
#: dense_circuits amplitudes must match the oracle this closely (criterion 6).
DENSE_TOL = 1e-9


class OpFailed(Exception):
    """An op returned an error status instead of raising."""


# --- sweeps: the tabletop through the CLI ----------------------------------


def _oracle_mode3(pair: PureState) -> PureState:
    """Bunch the pair into mode 3, as `apply_bs1` does, via the oracle."""
    kept_h, kept_v, lost_h, lost_v = (ModeLabel(s, p) for s in PAIR_IN for p in (H, V))
    splitter = focksim.embed_into(
        focksim.dual_pol_beam_splitter(0.5, 0.5), [kept_h, lost_h, kept_v, lost_v], pair.registry
    )
    evolved = focksim.transform_oracle(splitter, pair)
    result = focksim.herald(evolved, HeraldSpec([([lost_h, lost_v], focksim.ZERO)]))
    conditional, _ = focksim.normalize(result.conditional_state)
    return focksim.relabel(conditional, {kept_h: ModeLabel(MODE3, H), kept_v: ModeLabel(MODE3, V)})


def _oracle_signal(mode3: PureState, registry: ModeRegistry) -> PureState:
    moved = focksim.relabel(mode3, {ModeLabel(MODE3, p): ModeLabel(SIGNAL, p) for p in (H, V)})
    return focksim.expand_onto(moved, registry)


def oracle_fourfold(mode3: PureState, eta: float, cfg: ExperimentConfig) -> float:
    registry = focksim.analysis_registry(delayed=True)
    ancilla = focksim.extend_ancilla(registry, ModeLabel(ANCILLA, H), eta)
    state = focksim.tensor_product(_oracle_signal(mode3, registry), ancilla)
    evolved = focksim.transform_oracle(focksim.analysis_circuit(registry, cfg), state)
    return focksim.herald(evolved, focksim.fourfold_herald(registry)).probability


def oracle_twofold(mode3: PureState, cfg: ExperimentConfig) -> float:
    registry = focksim.analysis_registry(delayed=False)
    signal = _oracle_signal(mode3, registry)
    evolved = focksim.transform_oracle(focksim.analysis_circuit(registry, cfg), signal)
    return focksim.herald(evolved, focksim.twofold_herald(registry)).probability


def expected_table(kind: str, params: dict) -> tuple[str, list[list[float]]]:
    """Header and rows the CLI must write for one sweep command."""
    points = params["points"]
    if kind == "sweep-phase":
        cfg = ExperimentConfig(r_v=params["r-v"], r_h=params["r-h"])
        rows = []
        for theta in (float(t) for t in np.linspace(0.0, 2.0 * math.pi, points)):
            mode3 = _oracle_mode3(focksim.input_phi_theta(theta))
            four = oracle_fourfold(mode3, params["eta"], cfg)
            rows.append([theta, oracle_twofold(mode3, cfg), four])
        return "theta,twofold,fourfold", rows
    tau = params["tau-coh"]
    delays = [float(d) for d in np.linspace(params["from"], params["to"], points)]
    if kind == "sweep-delay":
        cfg = ExperimentConfig(r_v=params["r-v"], r_h=params["r-h"], tau_coh_fs=tau)
        mode3 = _oracle_mode3(focksim.input_phi_theta(params["theta"]))
        eta_max = 1.0
    else:
        cfg = ExperimentConfig(
            r_v=params["r-v"], r_h=params["r-h"], hwp_rotation=0.0, tau_coh_fs=tau
        )
        mode3 = _oracle_mode3(focksim.input_psi_plus())
        eta_max = params["eta"]
    rows = [
        [d, oracle_fourfold(mode3, eta_max * focksim.overlap_from_delay(d, tau), cfg)]
        for d in delays
    ]
    return "delay_fs,fourfold", rows


def agrees_at_nine_digits(cell: str, value: float) -> bool:
    """The CSV cell shows `value` to nine significant digits.

    A value within rounding of a digit boundary may print either way, so one
    unit in the ninth digit is allowed; probabilities below 1e-15 count as 0.
    """
    if cell == format(value + 0.0, "#.9g"):
        return True
    unit = 10.0 ** (math.floor(math.log10(abs(value))) - 8) if value else 0.0
    return abs(float(cell) - value) <= max(unit, 1e-15)


class Workload:
    """How the benchmark drives one workload's ops; subclasses fill in the rest.

    `prepare(op, workdir, label)` builds the inputs, `run(prepared)` is the
    timed op, `collect(output)` turns its result into what `check(op, ...)`
    and `same(a, b)` compare, and `kind(op)` names the op's stratum.
    """

    @staticmethod
    def points(op: dict) -> int:
        """Sweep points the op computes."""
        return 0

    @staticmethod
    def collect(output):
        return output

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class Sweeps(Workload):
    """One `focksim` command per op, run in-process through `cli.execute`."""

    @staticmethod
    def kind(op: dict) -> str:
        return op["kind"]

    @staticmethod
    def points(op: dict) -> int:
        return op["params"]["points"]

    @staticmethod
    def prepare(op: dict, workdir: str, label: str) -> list[str]:
        flags = [f"--{key}={value!r}" for key, value in op["params"].items()]
        return [op["kind"], *flags, f"--out={os.path.join(workdir, label + '.csv')}"]

    @staticmethod
    def run(argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = focksim.cli.execute(argv)
        if code != 0:
            raise OpFailed(f"focksim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return argv[-1].removeprefix("--out=")

    @staticmethod
    def collect(path: str) -> bytes:
        with open(path, "rb") as handle:
            payload = handle.read()
        os.unlink(path)
        return payload

    @staticmethod
    def check(op: dict, payload: bytes) -> bool:
        header, rows = expected_table(op["kind"], op["params"])
        lines = payload.decode("utf-8").split("\n")
        if lines[0] != header or lines[-1] != "" or len(lines) != len(rows) + 2:
            return False
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            if len(cells) != len(row):
                return False
            if not all(agrees_at_nine_digits(c, v) for c, v in zip(cells, row)):
                return False
        return True


class NsGate(Workload):
    """One `ns_pipeline(m, n, r_v, r_h)` call per op."""

    @staticmethod
    def kind(op: dict) -> str:
        return f"photons{op['m'] + op['n'] + 1}"

    @staticmethod
    def prepare(op: dict, workdir: str, label: str) -> tuple:
        return op["m"], op["n"], op["r_v"], op["r_h"]

    @staticmethod
    def run(args: tuple):
        return focksim.ns_pipeline(*args)

    @staticmethod
    def check(op: dict, result) -> bool:
        closed = focksim.ns_amplitude_pol(op["m"], op["n"], op["r_v"], op["r_h"])
        return (
            abs(result.amplitude - closed) <= NS_TOL
            and abs(result.probability - abs(result.amplitude) ** 2) <= NS_TOL
        )


def haar_unitary(op: dict) -> np.ndarray:
    """QR of the op's Ginibre matrix, phases fixed so the result is Haar."""
    modes = op["modes"]
    pairs = np.array(op["ginibre"], dtype=float).reshape(modes, modes, 2)
    q, r = np.linalg.qr(pairs[..., 0] + 1j * pairs[..., 1])
    diagonal = np.diagonal(r)
    return q * (diagonal / np.abs(diagonal))


class DenseCircuits(Workload):
    """One `transform` of a superposition through a Haar-random unitary per op."""

    @staticmethod
    def kind(op: dict) -> str:
        return f"n{op['photons']}"

    @staticmethod
    def prepare(op: dict, workdir: str, label: str) -> tuple:
        registry = ModeRegistry([ModeLabel(s, H) for s in range(op["modes"])])
        amplitudes = {
            tuple(occ): complex(re, im) for occ, (re, im) in zip(op["components"], op["weights"])
        }
        return haar_unitary(op), registry, amplitudes

    @staticmethod
    def run(prepared: tuple):
        matrix, registry, amplitudes = prepared
        unitary = ModeUnitary(matrix)
        state = PureState(registry, amplitudes)
        return unitary, state, focksim.transform(unitary, state)

    @staticmethod
    def check(op: dict, output) -> bool:
        unitary, state, result = output
        expected = focksim.transform_oracle(unitary, state)
        keys = {occ for occ, _ in result.items()} | {occ for occ, _ in expected.items()}
        return all(abs(result.amplitude(k) - expected.amplitude(k)) <= DENSE_TOL for k in keys)

    @staticmethod
    def same(a, b) -> bool:
        return dict(a[2].items()) == dict(b[2].items())


WORKLOADS = {"sweeps": Sweeps, "ns_gate": NsGate, "dense_circuits": DenseCircuits}


#: Each permanent size is timed at least 7 and at most 200 times, until this
#: many seconds of calls.
PERMANENT_BUDGET_S = 0.15


def permanent_timings(seed: int) -> dict[int, float]:
    """Median microseconds per `focksim.permanent` call on random n x n matrices."""
    rng = random.Random(seed)
    timings = {}
    for n in range(3, 13):
        matrices = [
            np.array([rng.gauss(0, 1) for _ in range(2 * n * n)]).view(complex).reshape(n, n)
            for _ in range(3)
        ]
        samples: list[float] = []
        spent = 0.0
        while len(samples) < 7 or (spent < PERMANENT_BUDGET_S and len(samples) < 200):
            start = time.perf_counter()
            focksim.permanent(matrices[len(samples) % 3])
            elapsed = time.perf_counter() - start
            samples.append(elapsed)
            spent += elapsed
        timings[n] = statistics.median(samples) * 1e6
    return timings
