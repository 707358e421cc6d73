"""The full interferometer: input preparation, sweeps, and fringe fitting.

Port layout (fixed): the photon pair enters on spatial modes 1 and 2 and is
bunched into mode 3 by a balanced splitter; mode 3 content then meets the
H-polarized ancilla at the sign-shift splitter, whose outputs are the
analyzer path (spatial 7) and the herald path (spatial 8).  A wave plate
rotates the analyzer polarization, after which a polarizing splitter sends
V to detector path A (spatial 9) and H to detector path B (spatial 10).
A fourfold event is one photon on the herald (H only), one on A, one on B.

All probabilities are conditional on the prepared mode-3 state: absolute
pair-generation and collection rates are outside the model, and the
accidental floor enters only as the additive `background` constant on
fourfold quantities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    H,
    V,
    ModeRegistry,
    PureState,
    canonical_phase,
    expand_onto,
    mode,
    normalize,
    relabel,
    tensor_product,
)
from .distinguish import DEFAULT_TAU_COH_FS, extend_ancilla, overlap_from_delay
from .elements import (
    ANALYZER_SPATIAL,
    DETECTOR_A_SPATIAL,
    DETECTOR_B_SPATIAL,
    HERALD_SPATIAL,
    ModeUnitary,
    compose,
    dual_pol_beam_splitter,
    embed_into,
    embed_per_bin,
    half_wave_plate,
    pbs_router,
    sign_shift_splitter,
)
from .errors import (
    DegenerateFitError,
    DomainError,
    EmptySweepError,
    ZeroStateError,
    check_unit_interval,
    is_finite,
)
from .evolve import ANY, Exactly, HeraldSpec, ZERO, herald, transform

PAIR_IN = (1, 2)
MODE3_SPATIAL = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of the analysis stage.

    Reflectivities refer to the sign-shift splitter, `hwp_rotation` is the
    polarization rotation of the analyzer wave plate in degrees, and
    `background` is an additive accidental floor on fourfold probabilities.
    """

    r_v: float = 0.5
    r_h: float = 0.5
    hwp_rotation: float = 45.0
    tau_coh_fs: float = DEFAULT_TAU_COH_FS
    background: float = 0.0

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if not is_finite(value):
                raise DomainError(f"{item.name} must be finite, got {value}")
        check_unit_interval("r_v", self.r_v)
        check_unit_interval("r_h", self.r_h)
        if self.tau_coh_fs <= 0.0:
            raise DomainError(f"tau_coh_fs must be positive, got {self.tau_coh_fs}")
        if self.background < 0.0:
            raise DomainError(f"background must be >= 0, got {self.background}")


class SweepTable:
    """Sampled curves: strictly increasing x values plus named columns."""

    def __init__(self, x_name: str, x: Sequence[float], columns: Mapping[str, Sequence[float]]):
        xs = tuple(x)
        if not xs:
            raise EmptySweepError("a sweep table needs at least one row")
        if not all(map(is_finite, xs)) or any(float(b) <= float(a) for a, b in zip(xs, xs[1:])):
            raise DomainError("sweep x values must be finite and strictly increasing")
        cols = {name: tuple(values) for name, values in columns.items()}
        for name, values in cols.items():
            if len(values) != len(xs):
                raise DomainError(f"column {name!r} has {len(values)} rows, expected {len(xs)}")
            if not all(map(is_finite, values)):
                raise DomainError(f"column {name!r} holds a non-finite value")
        self.x_name = x_name
        self.x = tuple(map(float, xs))
        self.columns = {name: tuple(map(float, values)) for name, values in cols.items()}

    def column(self, name: str) -> tuple[float, ...]:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FringeFit:
    """Least-squares parameters of y = offset + amplitude * sin^2((theta - phase)/2)."""

    amplitude: float
    offset: float
    phase: float
    rms_residual: float


def input_phi_theta(theta: float) -> PureState:
    """Pair state (|1V>|1V> + e^{i theta} |1H>|1H>) / sqrt(2) on modes 1 and 2."""
    if not is_finite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    registry = _pair_registry()
    inv = 1.0 / math.sqrt(2.0)
    return PureState(
        registry,
        {
            registry.occupation({mode(1, V): 1, mode(2, V): 1}): inv,
            registry.occupation({mode(1, H): 1, mode(2, H): 1}): inv * cmath.exp(1j * theta),
        },
    )


def input_psi_plus() -> PureState:
    """Pair state (|1V>|1H> + |1H>|1V>) / sqrt(2) on modes 1 and 2."""
    registry = _pair_registry()
    inv = 1.0 / math.sqrt(2.0)
    return PureState(
        registry,
        {
            registry.occupation({mode(1, V): 1, mode(2, H): 1}): inv,
            registry.occupation({mode(1, H): 1, mode(2, V): 1}): inv,
        },
    )


def _pair_registry() -> ModeRegistry:
    return ModeRegistry([mode(s, p) for s in PAIR_IN for p in (H, V)])


def apply_bs1(state: PureState) -> tuple[PureState, float]:
    """Bunch the two-photon pair into mode 3 with a balanced splitter.

    Applies a 50/50 splitter per polarization to modes (1, 2) and projects
    on both photons leaving through the mode-3 side.  Returns the
    normalized conditional state on mode 3 (global phase fixed so the first
    canonical amplitude is real positive) and the projection probability.
    """
    registry = state.registry
    for occ, _ in state.items():
        if sum(occ) != 2:
            raise DomainError("the pair input must hold exactly two photons")
    splitter = embed_into(
        dual_pol_beam_splitter(0.5, 0.5),
        [mode(1, H), mode(2, H), mode(1, V), mode(2, V)],
        registry,
    )
    evolved = transform(splitter, state)
    result = herald(evolved, HeraldSpec([([mode(2, H), mode(2, V)], ZERO)]))
    if result.probability == 0.0 or not result.branches:
        raise ZeroStateError("no component has both photons in mode 3")
    conditional, _ = normalize(result.conditional_state)
    mode3 = relabel(
        canonical_phase(conditional),
        {mode(1, H): mode(MODE3_SPATIAL, H), mode(1, V): mode(MODE3_SPATIAL, V)},
    )
    return mode3, result.probability


def analysis_registry(delayed: bool = True) -> ModeRegistry:
    """Modes of the sign-shift and analysis stage.

    With `delayed` the registry carries temporal bins 0 and 1 on every mode
    so a partially distinguishable ancilla can be represented.
    """
    temporals = (0, 1) if delayed else (0,)
    labels = []
    for t in temporals:
        for p in (H, V):
            labels.append(mode(ANALYZER_SPATIAL, p, t))
            labels.append(mode(HERALD_SPATIAL, p, t))
        labels.append(mode(DETECTOR_A_SPATIAL, V, t))
        labels.append(mode(DETECTOR_B_SPATIAL, H, t))
    return ModeRegistry(labels)


def analysis_circuit(registry: ModeRegistry, cfg: ExperimentConfig) -> ModeUnitary:
    """Sign-shift splitter, analyzer wave plate, then polarizing router.

    The signal sits on spatial 7 and the ancilla on spatial 8 before the
    splitter; each element acts identically on every temporal bin.
    """
    plate = embed_per_bin(
        half_wave_plate(cfg.hwp_rotation), [(ANALYZER_SPATIAL, H), (ANALYZER_SPATIAL, V)], registry
    )
    return compose([sign_shift_splitter(registry, cfg.r_v, cfg.r_h), plate, pbs_router(registry)])


def _temporal_group(registry: ModeRegistry, spatial: int, pol: str):
    return [label for label in registry.labels if label.spatial == spatial and label.pol == pol]


def fourfold_herald(registry: ModeRegistry) -> HeraldSpec:
    """Fourfold coincidence: herald H, detector A, detector B see one photon each.

    Photon counts are aggregated over temporal bins, herald-side V photons
    are absorbed without a click, and nothing may remain on the analyzer.
    """
    return HeraldSpec(
        [
            (_temporal_group(registry, HERALD_SPATIAL, H), Exactly(1)),
            (_temporal_group(registry, DETECTOR_A_SPATIAL, V), Exactly(1)),
            (_temporal_group(registry, DETECTOR_B_SPATIAL, H), Exactly(1)),
            (_temporal_group(registry, HERALD_SPATIAL, V), ANY),
            (
                _temporal_group(registry, ANALYZER_SPATIAL, H)
                + _temporal_group(registry, ANALYZER_SPATIAL, V),
                ZERO,
            ),
        ]
    )


def twofold_herald(registry: ModeRegistry) -> HeraldSpec:
    """Pair coincidence between detector paths A and B, everything else free."""
    return HeraldSpec(
        [
            (_temporal_group(registry, DETECTOR_A_SPATIAL, V), Exactly(1)),
            (_temporal_group(registry, DETECTOR_B_SPATIAL, H), Exactly(1)),
        ]
    )


def _place_signal(mode3_state: PureState, registry: ModeRegistry) -> PureState:
    moved = relabel(
        mode3_state,
        {
            mode(MODE3_SPATIAL, H): mode(ANALYZER_SPATIAL, H),
            mode(MODE3_SPATIAL, V): mode(ANALYZER_SPATIAL, V),
        },
    )
    return expand_onto(moved, registry)


def fourfold_from_mode3(mode3_state: PureState, eta: float, cfg: ExperimentConfig) -> float:
    """Fourfold coincidence probability for a given mode-3 state, no background."""
    registry = analysis_registry(delayed=True)
    signal = _place_signal(mode3_state, registry)
    ancilla = extend_ancilla(registry, mode(HERALD_SPATIAL, H), eta)
    evolved = transform(analysis_circuit(registry, cfg), tensor_product(signal, ancilla))
    return herald(evolved, fourfold_herald(registry)).probability


def fourfold_probability(theta: float, eta: float, cfg: ExperimentConfig) -> float:
    """Fourfold coincidence probability of the phase-controlled pair input.

    Prepares the number-entangled mode-3 state at relative phase theta,
    runs it with an ancilla of overlap eta through the analysis circuit and
    adds the accidental background.
    """
    mode3, _ = apply_bs1(input_phi_theta(theta))
    return fourfold_from_mode3(mode3, eta, cfg) + cfg.background


def _twofold_from_mode3(mode3_state: PureState, cfg: ExperimentConfig) -> float:
    registry = analysis_registry(delayed=False)
    signal = _place_signal(mode3_state, registry)
    evolved = transform(analysis_circuit(registry, cfg), signal)
    return herald(evolved, twofold_herald(registry)).probability


def twofold_probability(theta: float, cfg: ExperimentConfig) -> float:
    """A-B pair coincidence with the ancilla absent.

    Pair-only events dominate in practice, so this reflects the input
    correlations: the result is proportional to sin^2(theta/2).
    """
    mode3, _ = apply_bs1(input_phi_theta(theta))
    return _twofold_from_mode3(mode3, cfg)


def hom_probability(eta: float, cfg: ExperimentConfig) -> float:
    """Fourfold probability for the |1V;1H> input with the analyzer plate at 0.

    Fully overlapping photons (eta = 1) never produce the herald pattern;
    the coincidence rate grows as the photons become distinguishable.
    """
    return sweep_hom_delay([0.0], cfg, eta).column("fourfold")[0]


def _fourfold_vs_delay(
    pair: PureState, delays_fs: Sequence[float], cfg: ExperimentConfig, eta_max: float, name: str
) -> SweepTable:
    delays = [float(d) for d in delays_fs]
    if not delays:
        raise EmptySweepError(f"{name} needs at least one delay")
    mode3, _ = apply_bs1(pair)
    values = [
        fourfold_from_mode3(mode3, eta_max * overlap_from_delay(d, cfg.tau_coh_fs), cfg)
        + cfg.background
        for d in delays
    ]
    return SweepTable("delay_fs", delays, {"fourfold": values})


def sweep_delay(theta: float, delays_fs: Sequence[float], cfg: ExperimentConfig) -> SweepTable:
    """Fourfold probability versus ancilla delay at fixed phase theta."""
    return _fourfold_vs_delay(input_phi_theta(theta), delays_fs, cfg, 1.0, "sweep_delay")


def sweep_hom_delay(
    delays_fs: Sequence[float], cfg: ExperimentConfig, eta_max: float = 1.0
) -> SweepTable:
    """Coincidence-suppression dip versus delay for the |1V;1H> input.

    `eta_max` caps the overlap at zero delay, modeling photons that are
    imperfectly indistinguishable even when they arrive together.
    """
    check_unit_interval("eta_max", eta_max)
    cfg0 = replace(cfg, hwp_rotation=0.0)
    return _fourfold_vs_delay(input_psi_plus(), delays_fs, cfg0, eta_max, "sweep_hom_delay")


def sweep_phase(thetas: Sequence[float], eta: float, cfg: ExperimentConfig) -> SweepTable:
    """Twofold and fourfold coincidence probabilities over a phase grid."""
    grid = [float(t) for t in thetas]
    if not grid:
        raise EmptySweepError("sweep_phase needs at least one phase")
    mode3s = [apply_bs1(input_phi_theta(t))[0] for t in grid]
    twofold = [_twofold_from_mode3(m, cfg) for m in mode3s]
    fourfold = [fourfold_from_mode3(m, eta, cfg) + cfg.background for m in mode3s]
    return SweepTable("theta", grid, {"twofold": twofold, "fourfold": fourfold})


def fit_fringe(samples: Iterable[tuple[float, float]]) -> FringeFit:
    """Closed-form least squares of y = B + A sin^2((theta - phi)/2).

    The model is linear in the basis {1, cos theta, sin theta}; A >= 0 is
    enforced by the choice of phi and phi lies in (-pi, pi].
    """
    pairs = list(samples)
    if not all(is_finite(t) and is_finite(y) for t, y in pairs):
        raise DomainError("fringe samples must be finite")
    if len(pairs) < 4:
        raise DegenerateFitError(f"need at least 4 samples, got {len(pairs)}")
    thetas = np.array([float(t) for t, _ in pairs])
    ys = np.array([float(y) for _, y in pairs])
    distinct = np.unique(thetas)
    if distinct.size < 3:
        raise DegenerateFitError("need at least 3 distinct phases")
    if distinct.max() - distinct.min() <= math.pi:
        raise DegenerateFitError("phase samples must span more than pi")
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    singular = np.linalg.svd(design, compute_uv=False)
    if singular[-1] < 1e-10:
        raise DegenerateFitError("design matrix is rank deficient")
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    c, a, b = (float(v) for v in coeffs)
    amplitude = 2.0 * math.hypot(a, b)
    phase = math.atan2(-b, -a) if amplitude > 0.0 else 0.0
    if phase == -math.pi:
        phase = math.pi
    offset = c - amplitude / 2.0
    residual = math.sqrt(float(np.mean((design @ coeffs - ys) ** 2)))
    return FringeFit(amplitude, offset, phase, residual)


def visibility(fit: FringeFit) -> float:
    """Fringe contrast (max - min) / (max + min) of a fitted curve."""
    if not (is_finite(fit.amplitude) and is_finite(fit.offset)):
        raise DomainError("visibility undefined: amplitude and offset must be finite")
    denominator = fit.amplitude + 2.0 * fit.offset
    if not (is_finite(denominator) and denominator > 0.0):
        raise DomainError("visibility undefined: amplitude + 2*offset must be positive and finite")
    return fit.amplitude / denominator


def dip_visibility(values: Sequence[float]) -> float:
    """Suppression-dip contrast (baseline - minimum) / baseline of a sweep."""
    data = list(values)
    if not data:
        raise EmptySweepError("dip_visibility needs at least one value")
    if not all(map(is_finite, data)):
        raise DomainError("dip visibility undefined: values must be finite")
    data = [float(v) for v in data]
    top = max(data)
    if top <= 0.0:
        raise DomainError("dip visibility undefined: all values are zero")
    return (top - min(data)) / top


def fringe_phase_shift(table: SweepTable) -> float:
    """Absolute phase offset between the fourfold and twofold fringes, in [0, pi]."""
    two = fit_fringe(zip(table.x, table.column("twofold")))
    four = fit_fringe(zip(table.x, table.column("fourfold")))
    delta = math.remainder(four.phase - two.phase, 2.0 * math.pi)
    return abs(delta)
