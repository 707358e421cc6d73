import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focksim import (
    ExperimentConfig,
    FringeFit,
    ModeRegistry,
    SweepTable,
    analysis_circuit,
    analysis_registry,
    apply_bs1,
    dip_visibility,
    fit_fringe,
    fourfold_herald,
    fourfold_probability,
    fringe_phase_shift,
    hom_probability,
    input_phi_theta,
    input_psi_plus,
    mode,
    sweep_delay,
    sweep_hom_delay,
    sweep_phase,
    twofold_herald,
    twofold_probability,
    visibility,
)
from focksim import experiments
from focksim.errors import DegenerateFitError, DomainError, EmptySweepError, ZeroStateError

INV_SQRT2 = 1.0 / math.sqrt(2.0)
CFG = ExperimentConfig()


def reference_fourfold(theta: float, eta: float) -> float:
    """Analytic law for the balanced-splitter, 45-degree-analyzer fourfold rate.

    The overlapping ancilla branch interferes (weight eta^2) while the
    delayed branch contributes the pair fringe plus the two accidental
    routes, each of probability 1/32.
    """
    coherent = 0.125 * math.cos(theta / 2.0) ** 2
    distinguishable = 0.125 * math.sin(theta / 2.0) ** 2 + 1.0 / 16.0
    return eta**2 * coherent + (1.0 - eta**2) * distinguishable


# ------------------------------------------------------------ input states

def test_input_phi_theta_components():
    state = input_phi_theta(0.0)
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
    vv = state.registry.occupation({mode(1, "V"): 1, mode(2, "V"): 1})
    hh = state.registry.occupation({mode(1, "H"): 1, mode(2, "H"): 1})
    assert state.amplitude(vv) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert state.amplitude(hh) == pytest.approx(INV_SQRT2, abs=1e-12)
    flipped = input_phi_theta(math.pi)
    assert flipped.amplitude(hh).real == pytest.approx(-INV_SQRT2, abs=1e-12)
    for theta in (0.3, 2.1, 5.5):
        assert input_phi_theta(theta).norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_input_psi_plus_components():
    state = input_psi_plus()
    assert len(state.support()) == 2
    for occ, amp in state.items():
        assert amp == pytest.approx(INV_SQRT2, abs=1e-12)
    assert not set(state.support()) & set(input_phi_theta(0.0).support())


def _bits(items):
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in items]


def test_pair_states_keep_their_amplitude_bits_and_share_one_registry():
    # the literal amplitudes, in their insertion order, of each state as first built
    half = 0.7071067811865475
    vv, hh, vh, hv = (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)
    expected = {
        0.0: [(vv, complex(half, 0.0)), (hh, complex(half, 0.0))],
        1.0: [(vv, complex(half, 0.0)), (hh, complex(0.38205142437008976, 0.5950098395293859))],
        math.pi: [(vv, complex(half, 0.0)), (hh, complex(-half, 8.659560562354932e-17))],
    }
    for theta, items in expected.items():
        assert _bits(input_phi_theta(theta).items()) == _bits(items)
    psi_plus = [(vh, complex(half, 0.0)), (hv, complex(half, 0.0))]
    assert _bits(input_psi_plus().items()) == _bits(psi_plus)
    registry = input_psi_plus().registry
    assert all(input_phi_theta(theta).registry is registry for theta in expected)


# ---------------------------------------------------------------- first splitter

def test_apply_bs1_number_entangles_phi_theta():
    # the mode-3 state is fixed up to one global phase
    theta = 0.8
    mode3, probability = apply_bs1(input_phi_theta(theta))
    assert probability == pytest.approx(0.5, abs=1e-12)
    reg = mode3.registry
    vv = mode3.amplitude(reg.occupation({mode(3, "V"): 2}))
    hh = mode3.amplitude(reg.occupation({mode(3, "H"): 2}))
    assert abs(vv) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert abs(hh) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert hh / vv == pytest.approx(np.exp(1j * theta), abs=1e-12)
    assert mode3.amplitude(reg.occupation({mode(3, "V"): 1, mode(3, "H"): 1})) == 0j


def test_apply_bs1_psi_plus_gives_one_one():
    mode3, probability = apply_bs1(input_psi_plus())
    assert probability == pytest.approx(0.5, abs=1e-12)
    target = mode3.registry.occupation({mode(3, "V"): 1, mode(3, "H"): 1})
    assert abs(mode3.amplitude(target)) == pytest.approx(1.0, abs=1e-12)


def test_apply_bs1_rejects_wrong_photon_number():
    from focksim import ModeRegistry, basis_state

    reg = ModeRegistry([mode(s, p) for s in (1, 2) for p in "HV"])
    with pytest.raises(DomainError):
        apply_bs1(basis_state(reg, {mode(1, "H"): 1}))


def test_apply_bs1_rejects_pair_that_never_bunches():
    from focksim import ModeRegistry, PureState

    # the two components' mode-3 amplitudes cancel after the balanced splitter
    reg = ModeRegistry([mode(s, p) for s in (1, 2) for p in "HV"])
    pair = PureState(reg, {(2, 0, 0, 0): math.sqrt(2 / 3), (1, 0, 1, 0): math.sqrt(1 / 3)})
    with pytest.raises(ZeroStateError):
        apply_bs1(pair)


def test_apply_bs1_rejects_a_pair_off_the_pair_registry():
    from focksim import ModeRegistry, basis_state

    pair_modes = [mode(s, p) for s in (1, 2) for p in "HV"]
    # the pair modes plus one more: the extra mode would ride along into mode 3
    wider = ModeRegistry(pair_modes + [mode(5, "H")])
    # a pair on other modes: the first splitter's ports are not registered
    elsewhere = ModeRegistry([mode(s, p) for s in (4, 5) for p in "HV"])
    pairs = [
        basis_state(wider, {mode(1, "H"): 1, mode(2, "H"): 1}),
        basis_state(elsewhere, {mode(4, "H"): 1, mode(5, "H"): 1}),
    ]
    for pair in pairs:
        with pytest.raises(DomainError, match="modes 1 and 2"):
            apply_bs1(pair)


#: Repr floats computed while `apply_bs1` still fixed the mode-3 state's global
#: phase: per config, {theta: (fourfold at eta 0.3, fourfold at eta 1, twofold)}
#: and {eta: hom_probability}.  Four fourfold values of the second config moved
#: by 2 ulp at most when the detectors became the analyzer's own ports, since
#: that reorders the rows of each 3x3 permanent; they were re-pinned then.
PROBABILITIES_WITH_THE_PHASE_FIXED = [
    (
        CFG,
        {
            0.0: (0.06812500000000002, 0.12500000000000003, 0.0),
            1.0: (0.09168450682425787, 0.09626889411675875, 0.05746221176648255),
            math.pi: (0.17062500000000003, 0.0, 0.2500000000000001),
            4.0: (0.1528742355692602, 0.02164727369602427, 0.2067054526079516),
        },
        {0.3: 0.22750000000000012, 0.943: 0.027687750000000018},
    ),
    (
        ExperimentConfig(r_v=0.3, r_h=0.7, hwp_rotation=30.0, background=0.01),
        {
            0.0: (0.05108125000000001, 0.015250000000000003, 0.029999999999999992),
            1.0: (0.07446722094472308, 0.018870119341288398, 0.06620119341288395),
            math.pi: (0.15282624999999994, 0.030999999999999965, 0.1874999999999999),
            4.0: (0.13520623510238408, 0.028272443514300923, 0.16022443514300935),
        },
        {0.3: 0.17265999999999998, 0.943: 0.071954626},
    ),
]


@pytest.mark.parametrize("cfg,phase_points,hom_points", PROBABILITIES_WITH_THE_PHASE_FIXED)
def test_the_mode3_global_phase_moves_no_probability_bit(cfg, phase_points, hom_points):
    calls = []
    for theta, (fourfold_partial, fourfold_full, twofold) in phase_points.items():
        calls.append((fourfold_probability, (theta, 0.3, cfg), fourfold_partial))
        calls.append((fourfold_probability, (theta, 1.0, cfg), fourfold_full))
        calls.append((twofold_probability, (theta, cfg), twofold))
    calls += [(hom_probability, (eta, cfg), value) for eta, value in hom_points.items()]
    # every moved bit at once, not only the first
    moved = [
        (function.__name__, args[:-1], pinned, got)
        for function, args, pinned in calls
        if (got := function(*args)) != pinned
    ]
    assert moved == []


# ------------------------------------------------------------- coincidences

def test_fourfold_overlapping_ancilla():
    assert fourfold_probability(0.0, 1.0, CFG) == pytest.approx(0.125, abs=1e-12)
    assert fourfold_probability(math.pi, 1.0, CFG) == pytest.approx(0.0, abs=1e-12)


def test_fourfold_distinguishable_ancilla():
    assert fourfold_probability(0.0, 0.0, CFG) == pytest.approx(0.0625, abs=1e-12)
    assert fourfold_probability(math.pi, 0.0, CFG) == pytest.approx(0.1875, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.4, 1.3, 2.2, math.pi])
@pytest.mark.parametrize("eta", [0.0, 0.35, 0.7, 1.0])
def test_fourfold_matches_reference_model(theta, eta):
    assert fourfold_probability(theta, eta, CFG) == pytest.approx(
        reference_fourfold(theta, eta), abs=1e-12
    )


def test_fourfold_background_is_additive():
    cfg = ExperimentConfig(background=0.01)
    assert fourfold_probability(0.0, 1.0, cfg) == pytest.approx(0.135, abs=1e-12)


def test_twofold_sine_squared_law():
    assert twofold_probability(0.0, CFG) == pytest.approx(0.0, abs=1e-12)
    assert twofold_probability(math.pi, CFG) == pytest.approx(0.25, abs=1e-12)
    assert twofold_probability(math.pi / 2.0, CFG) == pytest.approx(0.125, abs=1e-12)
    for theta in (0.3, 1.9, 4.4):
        expected = 0.25 * math.sin(theta / 2.0) ** 2
        assert twofold_probability(theta, CFG) == pytest.approx(expected, abs=1e-12)


def test_hom_suppression_curve():
    assert hom_probability(1.0, CFG) == pytest.approx(0.0, abs=1e-12)
    assert hom_probability(0.0, CFG) == pytest.approx(0.25, abs=1e-12)
    for eta in (0.2, 0.5, 0.9):
        assert hom_probability(eta, CFG) == pytest.approx(0.25 * (1 - eta**2), abs=1e-12)


# ------------------------------------------------------------------- sweeps

def test_hom_probability_names_its_own_parameter():
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(DomainError, match="eta must"):
            hom_probability(bad, CFG)


def test_sweep_delay_single_point_consistency():
    table = sweep_delay(math.pi, [0.0], CFG)
    assert table.x == (0.0,)
    assert table.column("fourfold")[0] == pytest.approx(
        fourfold_probability(math.pi, 1.0, CFG), abs=1e-15
    )


def test_sweep_delay_plateaus():
    table = sweep_delay(math.pi, [1000.0], CFG)
    assert table.column("fourfold")[0] == pytest.approx(0.1875, abs=1e-9)
    table = sweep_delay(0.0, [1000.0], CFG)
    assert table.column("fourfold")[0] == pytest.approx(0.0625, abs=1e-9)


def test_sweep_delay_symmetry():
    delays = [-240.0, -120.0, -60.0, 0.0, 60.0, 120.0, 240.0]
    table = sweep_delay(0.7, delays, CFG)
    values = table.column("fourfold")
    for left, right in zip(values, reversed(values)):
        assert left == pytest.approx(right, abs=1e-12)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sweep_delay_validation():
    with pytest.raises(EmptySweepError):
        sweep_delay(0.0, [], CFG)
    with pytest.raises(EmptySweepError):
        sweep_phase([], 1.0, CFG)
    with pytest.raises(DomainError):
        SweepTable("delay_fs", [0.0, 0.0], {"fourfold": [0.1, 0.1]})
    with pytest.raises(DomainError, match="has 1 rows, expected 2"):
        SweepTable("x", [0.0, 1.0], {"y": [1.0]})
    # NaN passed the strictly-increasing test, which is false for NaN
    bad_tables = (([0.0, math.nan, 2.0], [0.1] * 3), ([0.0, math.inf], [0.1] * 2), ([0.0], [math.nan]))
    for xs, ys in bad_tables:
        with pytest.raises(DomainError):
            SweepTable("delay_fs", xs, {"fourfold": ys})


def test_experiment_config_rejects_non_finite():
    for field in ("r_v", "r_h", "hwp_rotation", "tau_coh_fs", "background"):
        # an int too large for a float used to raise OverflowError
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(DomainError):
                ExperimentConfig(**{field: bad})


def test_sweep_hom_delay_dip():
    delays = [float(d) for d in np.linspace(-1000.0, 1000.0, 21)]
    table = sweep_hom_delay(delays, CFG, eta_max=0.8)
    values = table.column("fourfold")
    middle = values[len(values) // 2]
    assert middle == pytest.approx(0.25 * (1 - 0.8**2), abs=1e-9)
    assert dip_visibility(values) == pytest.approx(0.64, abs=1e-9)


def test_sweep_phase_columns(monkeypatch):
    thetas = [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0, 2.0 * math.pi]
    calls = []
    original = experiments.apply_bs1
    monkeypatch.setattr(experiments, "apply_bs1", lambda state: calls.append(1) or original(state))
    table = sweep_phase(thetas, 1.0, CFG)
    # both columns share one mode-3 preparation per phase
    assert len(calls) == len(thetas)
    monkeypatch.undo()
    assert table.column("twofold") == tuple(twofold_probability(t, CFG) for t in thetas)
    assert table.column("fourfold") == tuple(fourfold_probability(t, 1.0, CFG) for t in thetas)
    assert table.column("twofold")[0] == pytest.approx(0.0, abs=1e-12)
    assert table.column("fourfold")[0] == pytest.approx(0.125, abs=1e-12)
    assert table.column("twofold")[2] == pytest.approx(0.25, abs=1e-12)
    assert table.column("fourfold")[2] == pytest.approx(0.0, abs=1e-12)


def test_sweep_phase_fourfold_law_on_grid():
    thetas = [2.0 * math.pi * i / 24.0 for i in range(25)]
    table = sweep_phase(thetas, 1.0, CFG)
    for theta, value in zip(table.x, table.column("fourfold")):
        assert value == pytest.approx(0.125 * math.cos(theta / 2.0) ** 2, abs=1e-9)
    assert fringe_phase_shift(table) == pytest.approx(math.pi, abs=1e-9)


# ------------------------------------------------------------------ caches

def test_equal_settings_share_one_tabletop():
    registry = analysis_registry()
    assert registry is analysis_registry(delayed=True)
    assert analysis_registry(delayed=False) is analysis_registry(delayed=0)
    cfg = ExperimentConfig(r_v=0.3, r_h=0.6, hwp_rotation=22.5)
    circuit = analysis_circuit(registry, cfg)
    assert circuit is analysis_circuit(registry, ExperimentConfig(r_v=0.3, r_h=0.6, hwp_rotation=22.5))
    with pytest.raises(ValueError):
        circuit.matrix[0, 0] = 0.0  # shared, so it must stay read-only
    assert fourfold_herald(registry) is fourfold_herald(analysis_registry())
    assert twofold_herald(registry) is twofold_herald(registry)
    assert fourfold_herald(registry) is not twofold_herald(registry)


def test_only_the_circuit_fields_key_the_circuit():
    registry = analysis_registry()
    cfg = ExperimentConfig(r_v=0.4, r_h=0.45)
    circuit = analysis_circuit(registry, cfg)
    assert analysis_circuit(registry, replace(cfg, background=0.3, tau_coh_fs=42.0)) is circuit
    for field, value in (("r_v", 0.41), ("r_h", 0.46), ("hwp_rotation", 40.0)):
        assert analysis_circuit(registry, replace(cfg, **{field: value})) is not circuit
    assert analysis_circuit(analysis_registry(delayed=False), cfg).dim == registry.size // 2


def test_caches_stay_within_their_bound():
    registries = (analysis_registry(True), analysis_registry(False))
    for i in range(100):
        cfg = ExperimentConfig(r_v=i / 100.0, r_h=0.5, hwp_rotation=float(i))
        for registry in registries:
            analysis_circuit(registry, cfg)
            fourfold_herald(registry)
            twofold_herald(registry)
    assert experiments._analysis_circuit.cache_info().currsize <= experiments._CACHE_SIZE


def test_herald_specs_exist_only_for_the_analysis_registries():
    for delayed in (False, True):
        # an equal registry built apart names the same constant spec
        registry = ModeRegistry(analysis_registry(delayed).labels)
        assert fourfold_herald(registry) is fourfold_herald(analysis_registry(delayed))
        assert twofold_herald(registry) is twofold_herald(analysis_registry(delayed))
    ports = [(7, "H"), (7, "V"), (8, "H"), (8, "V")]
    three_bins = ModeRegistry([mode(s, p, t) for t in range(3) for s, p in ports])
    others = [three_bins, ModeRegistry([mode(s, p) for s in (1, 2) for p in "HV"]), None]
    for registry in others:
        for spec_of in (fourfold_herald, twofold_herald):
            with pytest.raises(DomainError, match="not an analysis registry"):
                spec_of(registry)


def test_signed_zero_rotations_share_a_circuit_that_either_would_build():
    # 0.0 == -0.0 with equal hashes, so both settings read one cache entry;
    # built afresh, each gives the same matrix and the same probabilities
    registry = analysis_registry()
    plus, minus = ExperimentConfig(hwp_rotation=0.0), ExperimentConfig(hwp_rotation=-0.0)
    assert analysis_circuit(registry, plus) is analysis_circuit(registry, minus)
    built = {}
    for cfg in (plus, minus):
        experiments._analysis_circuit.cache_clear()
        matrix = analysis_circuit(registry, cfg).matrix
        values = [fourfold_probability(t, eta, cfg) for t in (0.0, 1.0) for eta in (0.3, 1.0)]
        values += [twofold_probability(t, cfg) for t in (0.5, 2.0)]
        values += sweep_hom_delay([-80.0, 0.0, 30.0], cfg, 0.9).column("fourfold")
        built[math.copysign(1.0, cfg.hwp_rotation)] = (matrix, values)
    assert np.array_equal(built[1.0][0], built[-1.0][0])
    assert built[1.0][1] == built[-1.0][1]


# ------------------------------------------------------------------ fitting

def model_samples(amplitude, offset, phase, count=13):
    thetas = np.linspace(0.0, 2.0 * math.pi, count)
    return [(t, offset + amplitude * math.sin((t - phase) / 2.0) ** 2) for t in thetas]


def test_fit_fringe_recovers_model_members():
    fit = fit_fringe(model_samples(1.0, 0.0, 0.0))
    assert fit.amplitude == pytest.approx(1.0, abs=1e-12)
    assert fit.offset == pytest.approx(0.0, abs=1e-12)
    assert fit.phase == pytest.approx(0.0, abs=1e-12)
    assert fit.rms_residual < 1e-12

    shifted = fit_fringe([(t, math.cos(t / 2.0) ** 2) for t, _ in model_samples(1, 0, 0)])
    assert shifted.phase == pytest.approx(math.pi, abs=1e-12)

    scaled = fit_fringe([(t, 0.125 * math.cos(t / 2.0) ** 2) for t, _ in model_samples(1, 0, 0)])
    assert scaled.amplitude == pytest.approx(0.125, abs=1e-12)
    assert scaled.phase == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("amplitude", [0.1, 1.0])
@pytest.mark.parametrize("phase", [0.0, math.pi / 3.0, math.pi])
def test_fit_fringe_parameter_grid(amplitude, phase):
    fit = fit_fringe(model_samples(amplitude, 0.05, phase))
    assert fit.amplitude == pytest.approx(amplitude, abs=1e-9)
    assert fit.offset == pytest.approx(0.05, abs=1e-9)
    assert fit.phase == pytest.approx(phase, abs=1e-9)


def test_fit_fringe_rejects_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_fringe([(0.0, 1.0), (0.1, 1.0), (0.2, 1.0)])
    with pytest.raises(DegenerateFitError):
        fit_fringe([(0.0, 1.0), (0.0, 1.0), (4.0, 1.0), (4.0, 1.0)])
    with pytest.raises(DegenerateFitError):
        fit_fringe([(0.0, 1.0), (1.0, 0.5), (2.0, 0.2), (3.0, 0.1)])
    # four distinct phases that are one point on the circle
    with pytest.raises(DegenerateFitError, match="rank deficient"):
        fit_fringe([(2.0 * math.pi * k, 1.0) for k in range(4)])
    # one NaN sample used to turn the whole fit into NaN
    samples = model_samples(1.0, 0.0, 0.0)
    for bad in ((math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5)):
        with pytest.raises(DomainError):
            fit_fringe([*samples, bad])


EIGHT_PHASES = [2.0 * math.pi * k / 8.0 for k in range(8)]


@settings(max_examples=100, deadline=None)
@given(ys=st.lists(st.floats(-1e308, 1e308), min_size=8, max_size=8))
@example(ys=[1e200 * math.cos(t) ** 2 for t in EIGHT_PHASES])
def test_fit_fringe_stays_finite_at_any_magnitude(ys):
    # samples near 1e200 used to overflow the squared residuals: a RuntimeWarning and
    # rms_residual=inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit = fit_fringe(zip(EIGHT_PHASES, ys))
        except DomainError:
            # only a fit whose curve itself leaves the float range may be refused
            assert max(map(abs, ys)) > 1e300
            return
    assert all(map(math.isfinite, astuple(fit)))


def test_visibility_values():
    assert visibility(FringeFit(1.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert visibility(FringeFit(0.5, 0.25, 0.0, 0.0)) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        visibility(FringeFit(0.0, 0.0, 0.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            visibility(FringeFit(bad, 0.0, 0.0, 0.0))


def test_dip_visibility_calibrates_overlap():
    delays = [float(d) for d in np.linspace(-1200.0, 1200.0, 25)]
    eta_max = math.sqrt(0.89)
    table = sweep_hom_delay(delays, CFG, eta_max=eta_max)
    assert dip_visibility(table.column("fourfold")) == pytest.approx(0.89, abs=1e-9)
    # a NaN sample used to be skipped by max() and min()
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            dip_visibility([1.0, bad, 0.5])
    with pytest.raises(EmptySweepError):
        dip_visibility([])
    with pytest.raises(DomainError, match="all values are zero"):
        dip_visibility([0.0, 0.0])


# --------------------------------------------------------------- phase shift

def test_phase_shift_between_fringes_is_pi():
    thetas = [2.0 * math.pi * i / 24.0 for i in range(25)]
    table = sweep_phase(thetas, 1.0, CFG)
    two = fit_fringe(zip(table.x, table.column("twofold")))
    four = fit_fringe(zip(table.x, table.column("fourfold")))
    assert two.amplitude == pytest.approx(0.25, abs=1e-9)
    assert four.amplitude == pytest.approx(0.125, abs=1e-9)
    assert abs(math.remainder(four.phase - two.phase, 2 * math.pi)) == pytest.approx(
        math.pi, abs=1e-9
    )


def test_phase_shift_of_a_flat_fringe_is_undefined():
    thetas = [2.0 * math.pi * i / 11.0 for i in range(12)]
    fringe = [0.25 * math.sin(t / 2.0) ** 2 for t in thetas]
    noise = [0.25 + 1e-17 * math.cos(3.0 * t) for t in thetas]  # visibility ~1e-16
    for twofold, fourfold, flat in ((noise, fringe, "twofold"), (fringe, [0.0] * 12, "fourfold")):
        table = SweepTable("theta", thetas, {"twofold": twofold, "fourfold": fourfold})
        with pytest.raises(DomainError, match=f"the {flat} fringe is flat"):
            fringe_phase_shift(table)
    # a faint fringe well above the floor keeps its phase
    faint = [0.25 + 1e-6 * math.cos(t) for t in thetas]
    table = SweepTable("theta", thetas, {"twofold": fringe, "fourfold": faint})
    assert fringe_phase_shift(table) == pytest.approx(math.pi, abs=1e-9)


def test_sweep_phase_at_zero_h_reflectivity_has_no_phase_shift():
    thetas = [2.0 * math.pi * i / 11.0 for i in range(12)]
    table = sweep_phase(thetas, 0.77, ExperimentConfig(r_v=1.0, r_h=0.0))
    with pytest.raises(DomainError, match="phase shift undefined"):
        fringe_phase_shift(table)


def test_enhancement_and_suppression_ratios():
    enhanced = fourfold_probability(0.0, 1.0, CFG)
    plateau_zero = fourfold_probability(0.0, 0.0, CFG)
    suppressed = fourfold_probability(math.pi, 1.0, CFG)
    plateau_pi = fourfold_probability(math.pi, 0.0, CFG)
    assert enhanced >= 1.9 * plateau_zero
    assert suppressed <= 0.01 * plateau_pi
