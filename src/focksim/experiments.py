"""The full interferometer: input preparation, sweeps, and fringe fitting.

Port layout (fixed): the photon pair enters on spatial modes 1 and 2 and is
bunched into mode 3 by a balanced splitter; mode 3 content then meets the
H-polarized ancilla at the sign-shift splitter, whose outputs are the
analyzer path (spatial 7) and the herald path (spatial 8).  A wave plate
rotates the analyzer polarization, after which a polarizing splitter sends
V to detector A and H to detector B.  That splitter is a fixed
permutation, so the model detects on the analyzer's own ports: detector A
is (7, V) and detector B is (7, H).  A fourfold event is one photon on the
herald (H only), one on A, one on B.  No other module knows this layout:
each placement is built from a table of the ports its element acts on,
`analysis_registry` from the sign-shift splitter's four ports, which hold
the plate's (8 modes with the delayed bin, 4 without), and the temporal
bins are `focksim.distinguish`'s.

The registries, the first splitter, the bunching condition and the four
herald specs are module constants; the mode-3 state is fixed only up to a
global phase.  The analysis circuit is kept in one small bounded cache
inside `analysis_circuit`: every point of a sweep, and any caller that
recomputes a point, gets the same read-only unitary.

All probabilities are conditional on the prepared mode-3 state: absolute
pair-generation and collection rates are outside the model, and the
accidental floor enters only as the additive `background` constant on
fourfold quantities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    H,
    V,
    ModeRegistry,
    PureState,
    expand_onto,
    mode,
    normalize,
    relabel,
    tensor_product,
)
from .distinguish import (
    DEFAULT_TAU_COH_FS,
    _binned_labels,
    embed_per_bin,
    extend_ancilla,
    overlap_from_delay,
)
from .elements import ModeUnitary, compose, dual_pol_beam_splitter, embed_into, half_wave_plate
from .errors import (
    DegenerateFitError,
    DomainError,
    EmptySweepError,
    ZeroStateError,
    check_unit_interval,
    is_finite,
)
from .evolve import Exactly, HeraldSpec, ZERO, herald, transform

PAIR_IN = (1, 2)
_FIRST, _SECOND = PAIR_IN  # apply_bs1 bunches the pair on the first port's side
MODE3_SPATIAL = 3
ANALYZER_SPATIAL = 7  # detector A on its V port, detector B on its H port
HERALD_SPATIAL = 8

#: (spatial, pol) ports of each analysis element, in the order of its matrix's modes.
_SPLITTER_PORTS = (
    (ANALYZER_SPATIAL, H), (HERALD_SPATIAL, H), (ANALYZER_SPATIAL, V), (HERALD_SPATIAL, V)
)
_PLATE_PORTS = ((ANALYZER_SPATIAL, H), (ANALYZER_SPATIAL, V))


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


#: Modes 1 and 2 in both polarizations: the one registry of both pair states.
_PAIR_REGISTRY = ModeRegistry([mode(s, p) for s in PAIR_IN for p in (H, V)])


def _pair_state(terms: Sequence[tuple[str, str, complex]]) -> PureState:
    """Sum of amplitude |1 pol_1>|1 pol_2> / sqrt(2) over (pol_1, pol_2, amplitude) terms."""
    inv = 1.0 / math.sqrt(2.0)
    occupation = _PAIR_REGISTRY.occupation
    return PureState(
        _PAIR_REGISTRY,
        {
            occupation({mode(_FIRST, pol_1): 1, mode(_SECOND, pol_2): 1}): inv * amplitude
            for pol_1, pol_2, amplitude in terms
        },
    )


def input_phi_theta(theta: float) -> PureState:
    """Pair state (|1V>|1V> + e^{i theta} |1H>|1H>) / sqrt(2) on modes 1 and 2."""
    if not is_finite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    return _pair_state(((V, V, 1.0), (H, H, cmath.exp(1j * theta))))


def input_psi_plus() -> PureState:
    """Pair state (|1V>|1H> + |1H>|1V>) / sqrt(2) on modes 1 and 2."""
    return _pair_state(((V, H, 1.0), (H, V, 1.0)))


#: The balanced first splitter, one per polarization, on the pair modes.
_BS1 = embed_into(
    dual_pol_beam_splitter(0.5, 0.5),
    [mode(_FIRST, H), mode(_SECOND, H), mode(_FIRST, V), mode(_SECOND, V)],
    _PAIR_REGISTRY,
)
#: Bunched: no photon leaves the balanced splitter on the second pair port.
_BUNCHED = HeraldSpec([([mode(_SECOND, H), mode(_SECOND, V)], ZERO)])
#: Mode 3 in both polarizations: the registry of every bunched pair.
_MODE3_REGISTRY = ModeRegistry([mode(MODE3_SPATIAL, p) for p in (H, V)])


def _check_pair(state: PureState, registry: ModeRegistry, name: str, ports: str) -> None:
    """DomainError unless `state` lives on `registry` and holds two photons in every component."""
    if state.registry != registry:
        raise DomainError(f"the {name} must live on {ports} in both polarizations")
    if any(sum(occ) != 2 for occ, _ in state.items()):
        raise DomainError(f"the {name} must hold exactly two photons")


def apply_bs1(state: PureState) -> tuple[PureState, float]:
    """Bunch the two-photon pair into mode 3 with a balanced splitter.

    `state` must live on the pair registry (modes 1 and 2, both
    polarizations), as `input_phi_theta` and `input_psi_plus` build it.
    Applies a 50/50 splitter per polarization and projects on both photons
    leaving through the mode-3 side.  Returns the normalized conditional
    state on mode 3, up to a global phase, and the projection probability.
    """
    _check_pair(state, _PAIR_REGISTRY, "pair input", "modes 1 and 2")
    result = herald(transform(_BS1, state), _BUNCHED)
    if not result.branches:
        raise ZeroStateError("no component has both photons in mode 3")
    conditional, _ = normalize(result.conditional_state)
    mode3 = relabel(
        conditional,
        {mode(_FIRST, H): mode(MODE3_SPATIAL, H), mode(_FIRST, V): mode(MODE3_SPATIAL, V)},
    )
    return mode3, result.probability


#: The analysis stage's registries without and with the delayed bin, indexed by `delayed`;
#: the splitter's ports are every port of the stage, the plate's among them.
_ANALYSIS_REGISTRIES = tuple(
    ModeRegistry(_binned_labels(_SPLITTER_PORTS, d)) for d in (False, True)
)

#: Entries kept by the circuit cache below; a sweep reuses one setting per
#: point, so a few recent settings are enough.
_CACHE_SIZE = 16


def analysis_registry(delayed: bool = True) -> ModeRegistry:
    """Modes of the sign-shift and analysis stage: every port its elements act on.

    With `delayed` the registry carries temporal bins 0 and 1 on every mode
    so a partially distinguishable ancilla can be represented.  Both
    registries are built once and shared.
    """
    return _ANALYSIS_REGISTRIES[bool(delayed)]


def analysis_circuit(registry: ModeRegistry, cfg: ExperimentConfig) -> ModeUnitary:
    """Sign-shift splitter, then the analyzer wave plate.

    The splitter is `dual_pol_beam_splitter(r_v, r_h)` with the analyzer
    port (spatial 7, the signal) as its first input and the herald port
    (spatial 8, the ancilla) as its second; each element acts identically
    on every temporal bin.  The circuit depends only on the registry,
    `r_v`, `r_h` and `hwp_rotation`; the last few such settings are cached,
    so every point of a sweep gets the same (read-only) unitary.
    """
    return _analysis_circuit(registry, cfg.r_v, cfg.r_h, cfg.hwp_rotation)


@lru_cache(maxsize=_CACHE_SIZE)
def _analysis_circuit(
    registry: ModeRegistry, r_v: float, r_h: float, hwp_rotation: float
) -> ModeUnitary:
    splitter = embed_per_bin(dual_pol_beam_splitter(r_v, r_h), _SPLITTER_PORTS, registry)
    plate = embed_per_bin(half_wave_plate(hwp_rotation), _PLATE_PORTS, registry)
    return compose([splitter, plate])


#: Detectors A (analyzer V) and B (analyzer H); a fourfold adds the herald's H detector.
_PAIR_DETECTORS = ((ANALYZER_SPATIAL, V), (ANALYZER_SPATIAL, H))

#: Per analysis registry, indexed by `delayed`: its fourfold and twofold specs,
#: each detector counting exactly one photon over all its temporal bins.
_HERALDS = tuple(
    tuple(
        HeraldSpec([(_binned_labels([port], d), Exactly(1)) for port in ports])
        for ports in (((HERALD_SPATIAL, H), *_PAIR_DETECTORS), _PAIR_DETECTORS)
    )
    for d in (False, True)
)


def _heralds(registry: ModeRegistry) -> tuple[HeraldSpec, HeraldSpec]:
    """The fourfold and twofold specs of an analysis registry; DomainError for any other."""
    try:
        return _HERALDS[_ANALYSIS_REGISTRIES.index(registry)]
    except ValueError:
        raise DomainError(f"{registry!r} is not an analysis registry") from None


def fourfold_herald(registry: ModeRegistry) -> HeraldSpec:
    """Fourfold coincidence: herald H, detector A, detector B see one photon each.

    Photon counts are aggregated over temporal bins and herald-side V modes
    are unmonitored.  DomainError unless `registry` is an analysis registry.
    """
    return _heralds(registry)[0]


def twofold_herald(registry: ModeRegistry) -> HeraldSpec:
    """A-B pair coincidence, everything else free; DomainError off the analysis registries."""
    return _heralds(registry)[1]


def _place_signal(mode3_state: PureState, registry: ModeRegistry) -> PureState:
    """The mode-3 pair moved onto the analyzer ports of `registry`.

    DomainError unless the state is what `apply_bs1` returns: on mode 3 in
    both polarizations, two photons in every component, norm^2 1 to 1e-12.
    """
    _check_pair(mode3_state, _MODE3_REGISTRY, "mode-3 state", "mode 3")
    norm_squared = mode3_state.norm_squared()
    if not abs(norm_squared - 1.0) <= 1e-12:
        raise DomainError(f"the mode-3 state must be normalized, got norm^2 {norm_squared}")
    moves = {mode(MODE3_SPATIAL, p): mode(ANALYZER_SPATIAL, p) for p in (H, V)}
    return expand_onto(relabel(mode3_state, moves), registry)


def fourfold_from_mode3(mode3_state: PureState, eta: float, cfg: ExperimentConfig) -> float:
    """Fourfold coincidence probability for a given mode-3 state, no background.

    `mode3_state` must be a normalized two-photon state on mode 3, as
    `apply_bs1` returns it; DomainError otherwise.
    """
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
    check_unit_interval("eta", eta)
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
    check_unit_interval("eta", eta)
    return sweep_hom_delay([0.0], cfg, eta).column("fourfold")[0]


def _fourfold_vs_delay(
    pair: PureState, delays_fs: Sequence[float], cfg: ExperimentConfig, eta_max: float
) -> SweepTable:
    delays = SweepTable("delay_fs", delays_fs, {}).x  # the axis rule, before any point runs
    mode3, _ = apply_bs1(pair)
    values = [
        fourfold_from_mode3(mode3, eta_max * overlap_from_delay(d, cfg.tau_coh_fs), cfg)
        + cfg.background
        for d in delays
    ]
    return SweepTable("delay_fs", delays, {"fourfold": values})


def sweep_delay(theta: float, delays_fs: Sequence[float], cfg: ExperimentConfig) -> SweepTable:
    """Fourfold probability versus ancilla delay at fixed phase theta."""
    return _fourfold_vs_delay(input_phi_theta(theta), delays_fs, cfg, 1.0)


def sweep_hom_delay(
    delays_fs: Sequence[float], cfg: ExperimentConfig, eta_max: float = 1.0
) -> SweepTable:
    """Coincidence-suppression dip versus delay for the |1V;1H> input.

    `eta_max` caps the overlap at zero delay, modeling photons that are
    imperfectly indistinguishable even when they arrive together.
    """
    check_unit_interval("eta_max", eta_max)
    cfg0 = replace(cfg, hwp_rotation=0.0)
    return _fourfold_vs_delay(input_psi_plus(), delays_fs, cfg0, eta_max)


def sweep_phase(thetas: Sequence[float], eta: float, cfg: ExperimentConfig) -> SweepTable:
    """Twofold and fourfold coincidence probabilities over a phase grid."""
    check_unit_interval("eta", eta)
    grid = SweepTable("theta", thetas, {}).x
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
    coeffs, _, _, singular = np.linalg.lstsq(design, ys, rcond=None)
    if singular[-1] < 1e-10:
        raise DegenerateFitError("design matrix is rank deficient")
    c, a, b = (float(v) for v in coeffs)
    amplitude = 2.0 * math.hypot(a, b)
    phase = math.atan2(-b, -a) if amplitude > 0.0 else 0.0
    if phase == -math.pi:
        phase = math.pi
    offset = c - amplitude / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # a curve past the float range
        residuals = design @ coeffs - ys
    # hypot scales as it sums, so squares of large residuals cannot overflow
    residual = math.hypot(*residuals.tolist()) / math.sqrt(len(pairs))
    fit = FringeFit(amplitude, offset, phase, residual)
    if not all(map(math.isfinite, (amplitude, offset, phase, residual))):
        raise DomainError(f"fringe fit is not finite: {fit}")
    return fit


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
    if min(data) < 0.0:
        raise DomainError("dip visibility undefined: values must be non-negative")
    top = max(data)
    if top <= 0.0:
        raise DomainError("dip visibility undefined: all values are zero")
    return (top - min(data)) / top


#: A fringe with less visibility than this is flat: its fitted phase is noise.
_MIN_FRINGE_VISIBILITY = 1e-9


def fringe_phase_shift(table: SweepTable) -> float:
    """Absolute phase offset between the fourfold and twofold fringes, in [0, pi].

    DomainError if either fringe is flat (visibility below 1e-9), where no
    phase is defined.
    """
    two = fit_fringe(zip(table.x, table.column("twofold")))
    four = fit_fringe(zip(table.x, table.column("fourfold")))
    return _phase_shift(two, four)


def _phase_shift(two: FringeFit, four: FringeFit) -> float:
    """`fringe_phase_shift` from the two fits it makes, for callers that hold them."""
    for name, fit in (("twofold", two), ("fourfold", four)):
        try:
            flat = visibility(fit) < _MIN_FRINGE_VISIBILITY
        except DomainError:  # a fringe flat at zero has no visibility at all
            flat = True
        if flat:
            raise DomainError(
                f"phase shift undefined: the {name} fringe is flat "
                f"(visibility below {_MIN_FRINGE_VISIBILITY:g})"
            )
    return abs(math.remainder(four.phase - two.phase, 2.0 * math.pi))
