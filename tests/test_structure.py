"""The tabletop's physics structure as properties over random configurations.

Write F(eta) for `fourfold_from_mode3` at ancilla overlap eta.  Because the
analysis circuit acts on each temporal bin alone and every detector sums
over bins, the bin-0 and bin-1 ancilla terms never interfere: F is exactly
linear in eta^2, and F(1) and F(0) both follow from the single-bin registry.
The phase fringes are exact sin^2 curves, their fitted shift is exactly 0
or pi, and the delay sweeps are even in the delay.  Every point and every
delay cell follows the closed form derived in `closed_form`.  Every check
holds to 1e-12, the fitted shift to 1e-9.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from focksim import (
    H,
    V,
    Exactly,
    ExperimentConfig,
    HeraldSpec,
    analysis_circuit,
    analysis_registry,
    apply_bs1,
    basis_state,
    expand_onto,
    fit_fringe,
    fourfold_from_mode3,
    fourfold_herald,
    fourfold_probability,
    fringe_phase_shift,
    herald,
    hom_probability,
    input_phi_theta,
    input_psi_plus,
    mode,
    relabel,
    sweep_delay,
    sweep_hom_delay,
    sweep_phase,
    tensor_product,
    transform,
    twofold_probability,
)
from focksim.experiments import (
    ANALYZER_SPATIAL,
    HERALD_SPATIAL,
    MODE3_SPATIAL,
)
from focksim.core import PRUNE_THRESHOLD

TOL = 1e-12

unit = st.floats(0.0, 1.0)
configs = st.builds(
    ExperimentConfig,
    r_v=unit,
    r_h=unit,
    hwp_rotation=st.floats(-180.0, 180.0),
    tau_coh_fs=st.floats(1.0, 1000.0),
    background=st.floats(0.0, 0.1),
)
phases = st.floats(-2.0 * math.pi, 2.0 * math.pi)
pairs = st.one_of(phases.map(input_phi_theta), st.just(input_psi_plus()))


@settings(max_examples=15, deadline=None)
@given(cfg=configs, pair=pairs, eta=unit)
def test_fourfold_is_linear_in_eta_squared(cfg, pair, eta):
    mode3, _ = apply_bs1(pair)
    mixed = eta**2 * fourfold_from_mode3(mode3, 1.0, cfg)
    mixed += (1.0 - eta**2) * fourfold_from_mode3(mode3, 0.0, cfg)
    assert abs(fourfold_from_mode3(mode3, eta, cfg) - mixed) <= TOL


@settings(max_examples=10, deadline=None)
@given(
    cfg=configs,
    eta=unit,
    start=st.floats(-math.pi, math.pi),
    span=st.floats(1.2 * math.pi, 2.0 * math.pi),
    points=st.integers(5, 9),
)
# a fringe of ~1e-24 whose amplitudes straddle PRUNE_THRESHOLD: exact to TOL,
# but its fitted phase (-0.056) is set by which of them were dropped
@example(
    cfg=ExperimentConfig(r_v=1.0, r_h=0.5, hwp_rotation=1e-10, tau_coh_fs=1.0, background=0.0),
    eta=0.0,
    start=0.0,
    span=4.0,
    points=5,
)
def test_phase_fringes_are_exact(cfg, eta, start, span, points):
    thetas = [float(t) for t in np.linspace(start, start + span, points)]
    table = sweep_phase(thetas, eta, cfg)
    two = fit_fringe(zip(table.x, table.column("twofold")))
    four = fit_fringe(zip(table.x, table.column("fourfold")))
    assert two.rms_residual <= TOL
    assert four.rms_residual <= TOL
    # the fitted phase of a fringe whose contrast sits near rounding noise is
    # that noise, and that of a fringe no taller than PRUNE_THRESHOLD is set by
    # which amplitudes were pruned, so the twofold phase is pinned only above both
    visible = two.amplitude >= 1e-2 * (two.amplitude + 2.0 * two.offset)
    if visible and two.amplitude > PRUNE_THRESHOLD:
        assert abs(two.phase) <= TOL


@settings(max_examples=10, deadline=None)
@given(
    cfg=configs,
    theta=phases,
    eta_max=unit,
    delay=st.floats(1e-3, 1e3),
)
def test_delay_sweeps_are_even_in_the_delay(cfg, theta, eta_max, delay):
    for table in (
        sweep_delay(theta, [-delay, delay], cfg),
        sweep_hom_delay([-delay, delay], cfg, eta_max),
    ):
        left, right = table.column("fourfold")
        assert abs(left - right) <= TOL


def single_bin_limits(mode3, cfg):
    """F(1) and F(0) on the 4-mode single-bin registry, without a delayed copy."""
    registry = analysis_registry(delayed=False)
    circuit = analysis_circuit(registry, cfg)
    moves = {mode(MODE3_SPATIAL, p): mode(ANALYZER_SPATIAL, p) for p in (H, V)}
    placed = expand_onto(relabel(mode3, moves), registry)
    ancilla = mode(HERALD_SPATIAL, H)
    coherent = tensor_product(placed, basis_state(registry, {ancilla: 1}))
    f1 = herald(transform(circuit, coherent), fourfold_herald(registry)).probability
    signal = transform(circuit, placed)
    # a distinguishable ancilla lands on one detector on its own, and the
    # pair must put one photon on each of the other two; detectors A and B
    # are the analyzer's V and H ports
    detectors = [ancilla, mode(ANALYZER_SPATIAL, V), mode(ANALYZER_SPATIAL, H)]
    column = circuit.matrix[:, registry.index(ancilla)]
    f0 = 0.0
    for hit in detectors:
        others = [([label], Exactly(1)) for label in detectors if label != hit]
        pair_probability = herald(signal, HeraldSpec(others)).probability
        f0 += abs(column[registry.index(hit)]) ** 2 * pair_probability
    return f1, f0


@settings(max_examples=15, deadline=None)
@given(cfg=configs, pair=pairs)
def test_single_bin_registry_gives_both_overlap_limits(cfg, pair):
    mode3, _ = apply_bs1(pair)
    f1, f0 = single_bin_limits(mode3, cfg)
    assert abs(fourfold_from_mode3(mode3, 1.0, cfg) - f1) <= TOL
    assert abs(fourfold_from_mode3(mode3, 0.0, cfg) - f0) <= TOL


@settings(max_examples=100, deadline=None)
@given(
    r_v=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    r_h=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    # at multiples of 90 degrees the plate mixes no H into V and the twofold
    # fringe is flat, so the angle keeps 1 degree off each of them
    rotation=st.builds(lambda a, k: a + 90.0 * k, st.floats(1.0, 89.0), st.integers(-2, 1)),
    eta=unit,
    background=st.floats(0.0, 0.1),
)
def test_phase_shift_is_pi_exactly_above_the_threshold_and_zero_below(
    r_v, r_h, rotation, eta, background
):
    threshold = r_h / (2.0 * (1.0 - r_h))
    # at eta^2 = threshold the fourfold fringe is flat and its phase undefined;
    # close to it the fringe is too shallow for its fitted phase to hold 1e-9
    assume(abs(eta**2 - threshold) >= 1e-3)
    cfg = ExperimentConfig(r_v=r_v, r_h=r_h, hwp_rotation=rotation, background=background)
    thetas = [2.0 * math.pi * i / 8.0 for i in range(8)]
    shift = fringe_phase_shift(sweep_phase(thetas, eta, cfg))
    expected = math.pi if eta**2 > threshold else 0.0
    assert abs(shift - expected) <= 1e-9


def closed_form(theta, eta, cfg):
    """(twofold, fourfold, hom) of the tabletop in closed form.

    With s = sin p and c = cos p for the plate's rotation p, the plate maps
    H -> cH + sV and V -> sH - cV, so |2V> and |2H> on the analyzer reach
    the A-B coincidence |1V;1H> with amplitudes -sqrt(2) sc and sqrt(2) sc.
    The bunched pair is (|2V> + e^{i theta}|2H>)/sqrt(2) on the analyzer
    port, and the splitter keeps a pair on that port with amplitude r_v
    (V) or r_h (H): twofold = s^2 c^2 |r_v - e^{i theta} r_h|^2.

    With the ancilla overlapping (eta = 1) the herald needs it back on the
    herald port with the pair on the analyzer: the V pair passes the H
    ancilla by (amplitude r_v sqrt(r_h)), the H pair meets it in the sign
    shift (ns2 = sqrt(r_h) (r_h - 2 (1 - r_h))), so
    F(1) = s^2 c^2 |r_v sqrt(r_h) - e^{i theta} ns2|^2.  A distinguishable
    ancilla (eta = 0) either returns to the herald (r_h) while the pair
    gives the twofold, or reaches the analyzer (1 - r_h) while one photon
    of the H pair goes to the herald (r_h (1 - r_h)) and the two analyzer
    photons, in different temporal bins, split over A and B (2 s^2 c^2):
    F(0) = s^2 c^2 (r_h |r_v - e^{i theta} r_h|^2 + 2 r_h (1 - r_h)^2).  The
    bins never interfere, so fourfold = eta^2 F(1) + (1 - eta^2) F(0).

    The HOM input bunches to |1V;1H> and the plate stands at 0: the V
    photon stays on A (r_v) and the H photon meets the ancilla, leaving one
    on each side with amplitude 2 r_h - 1 when they overlap and probability
    r_h^2 + (1 - r_h)^2 when they do not.  Background adds to both fourfolds.
    """
    p = math.radians(cfg.hwp_rotation)
    sc2 = (math.sin(p) * math.cos(p)) ** 2
    r_v, r_h, phase = cfg.r_v, cfg.r_h, complex(math.cos(theta), math.sin(theta))
    ns2 = math.sqrt(r_h) * (r_h - 2.0 * (1.0 - r_h))
    twofold = sc2 * abs(r_v - phase * r_h) ** 2
    f1 = sc2 * abs(r_v * math.sqrt(r_h) - phase * ns2) ** 2
    f0 = sc2 * (r_h * abs(r_v - phase * r_h) ** 2 + 2.0 * r_h * (1.0 - r_h) ** 2)
    fourfold = eta**2 * f1 + (1.0 - eta**2) * f0 + cfg.background
    overlapping, apart = (2.0 * r_h - 1.0) ** 2, r_h**2 + (1.0 - r_h) ** 2
    hom = r_v * (eta**2 * overlapping + (1.0 - eta**2) * apart) + cfg.background
    return twofold, fourfold, hom


@settings(max_examples=100, deadline=None)
@given(cfg=configs, theta=phases, eta=unit)
def test_every_point_follows_the_closed_form(cfg, theta, eta):
    twofold, fourfold, hom = closed_form(theta, eta, cfg)
    assert abs(twofold_probability(theta, cfg) - twofold) <= TOL
    assert abs(fourfold_probability(theta, eta, cfg) - fourfold) <= TOL
    assert abs(hom_probability(eta, cfg) - hom) <= TOL


@settings(max_examples=50, deadline=None)
@given(
    cfg=configs,
    theta=phases,
    eta_max=unit,
    delays=st.lists(st.floats(-3e3, 3e3), min_size=1, max_size=6, unique=True).map(sorted),
)
def test_every_delay_cell_follows_the_closed_form(cfg, theta, eta_max, delays):
    # the Gaussian overlap, written out here rather than read from the library
    overlaps = [math.exp(-0.5 * (d / cfg.tau_coh_fs) ** 2) for d in delays]
    cells = zip(overlaps, sweep_delay(theta, delays, cfg).column("fourfold"))
    for eta, fourfold in cells:
        assert abs(fourfold - closed_form(theta, eta, cfg)[1]) <= TOL
    cells = zip(overlaps, sweep_hom_delay(delays, cfg, eta_max).column("fourfold"))
    for eta, fourfold in cells:
        assert abs(fourfold - closed_form(theta, eta_max * eta, cfg)[2]) <= TOL
