"""Every public numeric entry point rejects a non-finite or out-of-range number.

The three shared rules live in `focksim.errors`: a finite real, a number in
[0, 1], and a photon count (a non-negative integer a float can hold).  A
bad value must raise `DomainError`: never return, never raise another type.
The same holds for a mode-3 state the tabletop cannot hold.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focksim as fs
from focksim.errors import DomainError
from focksim.experiments import _twofold_from_mode3

NON_FINITE = (math.nan, math.inf, -math.inf)

#: Values every entry point of a kind must reject, tried on every example.
SPECIAL = {
    "real": (*NON_FINITE, 10**400, -(10**400)),
    "unit": (*NON_FINITE, 10**400, -(10**400)),
    "count": (*NON_FINITE, 0.5, -1, 10**400),
    "positive": (*NON_FINITE, 10**400, -(10**400), 0.0, -1.0),
    "non_negative": (*NON_FINITE, 10**400, -(10**400), -0.1),
}

#: Generated bad values of each kind.
GENERATED = {
    "real": st.sampled_from(NON_FINITE),
    "unit": st.one_of(
        st.sampled_from(NON_FINITE),
        st.floats(allow_nan=False).filter(lambda v: not 0.0 <= v <= 1.0),
    ),
    "count": st.one_of(
        st.sampled_from(NON_FINITE),
        st.integers(max_value=-1),
        st.integers(min_value=2**1024),
        st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v < 0 or v % 1),
    ),
    "positive": st.one_of(st.sampled_from(NON_FINITE), st.floats(max_value=0.0)),
    # -math.ulp(0.0) is the largest negative float; a `v < 0.0` filter would
    # still let -0.0 through, which equals 0.0 and is a valid value.
    "non_negative": st.one_of(
        st.sampled_from(NON_FINITE), st.floats(allow_nan=False, max_value=-math.ulp(0.0))
    ),
}

REGISTRY = fs.ModeRegistry([fs.mode(3, "H"), fs.mode(3, "V")])
ANALYSIS = fs.analysis_registry(delayed=True)
CFG = fs.ExperimentConfig()
SAMPLES = [(t, 0.5 + 0.25 * math.cos(t)) for t in (2.0 * math.pi * i / 8.0 for i in range(8))]

#: name -> (kind of the argument under test, call with that argument set to v)
ENTRY_POINTS = {
    "beam_splitter": ("unit", lambda v: fs.beam_splitter(v)),
    "dual_pol_beam_splitter.r_v": ("unit", lambda v: fs.dual_pol_beam_splitter(v, 0.5)),
    "dual_pol_beam_splitter.r_h": ("unit", lambda v: fs.dual_pol_beam_splitter(0.5, v)),
    "half_wave_plate": ("real", lambda v: fs.half_wave_plate(v)),
    "ExperimentConfig.r_v": ("unit", lambda v: fs.ExperimentConfig(r_v=v)),
    "ExperimentConfig.r_h": ("unit", lambda v: fs.ExperimentConfig(r_h=v)),
    "ExperimentConfig.hwp_rotation": ("real", lambda v: fs.ExperimentConfig(hwp_rotation=v)),
    "ExperimentConfig.tau_coh_fs": ("positive", lambda v: fs.ExperimentConfig(tau_coh_fs=v)),
    "ExperimentConfig.background": ("non_negative", lambda v: fs.ExperimentConfig(background=v)),
    "mode.spatial": ("count", lambda v: fs.mode(v, "H")),
    "mode.temporal": ("count", lambda v: fs.mode(1, "H", v)),
    "ModeRegistry.occupation": ("count", lambda v: REGISTRY.occupation({fs.mode(3, "V"): v})),
    "PureState": ("count", lambda v: fs.PureState(REGISTRY, {(0, v): 1.0})),
    "ket_string.precision": ("count", lambda v: fs.ket_string(fs.basis_state(REGISTRY, {}), v)),
    "Exactly": ("count", lambda v: fs.HeraldSpec([([fs.mode(3, "H")], fs.Exactly(v))])),
    "ns_amplitude.n": ("count", lambda v: fs.ns_amplitude(v, 0.5)),
    "ns_amplitude.reflectivity": ("unit", lambda v: fs.ns_amplitude(1, v)),
    "ns_amplitude_pol.m": ("count", lambda v: fs.ns_amplitude_pol(v, 1, 0.5, 0.5)),
    "ns_amplitude_pol.n": ("count", lambda v: fs.ns_amplitude_pol(0, v, 0.5, 0.5)),
    "ns_amplitude_pol.r_v": ("unit", lambda v: fs.ns_amplitude_pol(0, 1, v, 0.5)),
    "ns_amplitude_pol.r_h": ("unit", lambda v: fs.ns_amplitude_pol(0, 1, 0.5, v)),
    "occupations.total": ("count", lambda v: fs.occupations(v, 2)),
    "occupations.modes": ("count", lambda v: fs.occupations(2, v)),
    "permanent": ("real", lambda v: fs.permanent([[1.0, v], [0.5, 0.5]])),
    "ns_pipeline.m": ("count", lambda v: fs.ns_pipeline(v, 1, 0.5, 0.5)),
    "ns_pipeline.r_h": ("unit", lambda v: fs.ns_pipeline(0, 1, 0.5, v)),
    "overlap_from_delay.delay": ("real", lambda v: fs.overlap_from_delay(v)),
    "overlap_from_delay.tau": ("positive", lambda v: fs.overlap_from_delay(0.0, v)),
    "extend_ancilla": ("unit", lambda v: fs.extend_ancilla(ANALYSIS, fs.mode(8, "H"), v)),
    "input_phi_theta": ("real", lambda v: fs.input_phi_theta(v)),
    "sweep_hom_delay.eta_max": ("unit", lambda v: fs.sweep_hom_delay([0.0], CFG, v)),
    "sweep_delay.delays_fs": ("real", lambda v: fs.sweep_delay(0.0, [0.0, v], CFG)),
    "sweep_hom_delay.delays_fs": ("real", lambda v: fs.sweep_hom_delay([0.0, v], CFG)),
    "sweep_phase.thetas": ("real", lambda v: fs.sweep_phase([0.0, v], 1.0, CFG)),
    "sweep_phase.eta": ("unit", lambda v: fs.sweep_phase([0.0, 1.0], v, CFG)),
    "fourfold_probability.eta": ("unit", lambda v: fs.fourfold_probability(0.0, v, CFG)),
    "SweepTable.x": ("real", lambda v: fs.SweepTable("x", [0.0, v], {"y": [0.0, 0.0]})),
    "SweepTable.column": ("real", lambda v: fs.SweepTable("x", [0.0, 1.0], {"y": [0.0, v]})),
    "fit_fringe.theta": ("real", lambda v: fs.fit_fringe([*SAMPLES, (v, 0.5)])),
    "fit_fringe.y": ("real", lambda v: fs.fit_fringe([*SAMPLES, (1.0, v)])),
    "visibility": ("real", lambda v: fs.visibility(fs.FringeFit(v, 0.0, 0.0, 0.0))),
    "dip_visibility": ("non_negative", lambda v: fs.dip_visibility([1.0, v, 0.5])),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_numeric_entry_points_reject_bad_numbers(name, data):
    kind, call = ENTRY_POINTS[name]
    for value in (*SPECIAL[kind], data.draw(GENERATED[kind], label="value")):
        with pytest.raises(DomainError):
            call(value)


MODE3 = fs.ModeRegistry([fs.mode(3, "H"), fs.mode(3, "V")])

#: Mode-3 states `apply_bs1` never returns: the pair must be two photons on
#: mode 3 alone, with norm^2 1.
BAD_MODE3_STATES = {
    "1H": fs.basis_state(MODE3, {fs.mode(3, "H"): 1}),
    "3H": fs.basis_state(MODE3, {fs.mode(3, "H"): 3}),
    "2H_1V": fs.basis_state(MODE3, {fs.mode(3, "H"): 2, fs.mode(3, "V"): 1}),
    "4V": fs.basis_state(MODE3, {fs.mode(3, "V"): 4}),
    "2H_amplitude_2": fs.PureState(MODE3, {(2, 0): 2.0}),
    "extra_mode": fs.basis_state(
        fs.ModeRegistry([*MODE3.labels, fs.mode(5, "H")]), {fs.mode(3, "H"): 2}
    ),
}

#: The two routes a mode-3 state takes into the analysis stage.
MODE3_ROUTES = {
    "fourfold_from_mode3": lambda state: fs.fourfold_from_mode3(state, 1.0, CFG),
    "_twofold_from_mode3": lambda state: _twofold_from_mode3(state, CFG),
}


@pytest.mark.parametrize("route", sorted(MODE3_ROUTES))
@pytest.mark.parametrize("name", sorted(BAD_MODE3_STATES))
def test_mode3_routes_reject_states_the_tabletop_cannot_hold(name, route):
    with pytest.raises(DomainError):
        MODE3_ROUTES[route](BAD_MODE3_STATES[name])


LINE = fs.ModeRegistry([fs.mode(0, "H"), fs.mode(1, "H")])
BOTH_MODES = fs.HeraldSpec([([fs.mode(0, "H"), fs.mode(1, "H")], fs.Exactly(1))])

#: States `PureState` accepts whose norm^2 is past the float range: one
#: amplitude whose square is, and two whose squares each fit but not their sum.
HUGE_NORM_STATES = {
    "one_1e160": {(1, 0): 1e160},
    "two_1e154": {(1, 0): 1e154, (0, 1): 1e154},
}

#: Every route to a norm^2; each used to escape as OverflowError.
NORM_ROUTES = {
    "norm_squared": lambda state: state.norm_squared(),
    "norm": lambda state: state.norm(),
    "normalize": lambda state: fs.normalize(state),
    "herald": lambda state: fs.herald(state, BOTH_MODES),
}


@pytest.mark.parametrize("route", sorted(NORM_ROUTES))
@pytest.mark.parametrize("name", sorted(HUGE_NORM_STATES))
def test_a_norm_past_the_float_range_is_a_domain_error(name, route):
    state = fs.PureState(LINE, HUGE_NORM_STATES[name])
    with pytest.raises(DomainError):
        NORM_ROUTES[route](state)
