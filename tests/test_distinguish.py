import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    ExperimentConfig,
    extend_ancilla,
    fourfold_from_mode3,
    herald,
    hom_probability,
    input_phi_theta,
    apply_bs1,
    mode,
    overlap_from_delay,
    sweep_delay,
    transform,
)
from focksim.errors import DomainError
from focksim.evolve import Exactly, HeraldSpec
from focksim.experiments import analysis_circuit, analysis_registry, fourfold_herald


def test_overlap_values():
    assert overlap_from_delay(0.0, 120.0) == 1.0
    assert overlap_from_delay(100.0, 100.0) == pytest.approx(0.606530660, abs=1e-9)
    assert overlap_from_delay(1000.0, 100.0) < 1e-21


def test_overlap_even_and_decreasing():
    tau = 80.0
    values = [overlap_from_delay(d, tau) for d in (0.0, 10.0, 40.0, 90.0, 200.0)]
    assert values == sorted(values, reverse=True)
    for d in (15.0, 77.0, 431.0):
        assert overlap_from_delay(d, tau) == overlap_from_delay(-d, tau)


def test_overlap_requires_positive_coherence_time():
    with pytest.raises(DomainError):
        overlap_from_delay(10.0, 0.0)
    # a NaN delay or coherence time used to give a NaN overlap
    for delay, tau in ((math.nan, 100.0), (0.0, math.nan), (math.inf, 100.0), (0.0, math.inf)):
        with pytest.raises(DomainError):
            overlap_from_delay(delay, tau)


def test_overlap_where_two_tau_squared_underflows():
    # 2 tau^2 underflows to 0 here: this raised ZeroDivisionError, then a
    # DomainError after ExperimentConfig had accepted the coherence time
    assert overlap_from_delay(0.0, 1e-200) == 1.0
    assert overlap_from_delay(1.0, 1e-200) == 0.0
    assert overlap_from_delay(1e-200, 1e-200) == math.exp(-0.5)
    cfg = ExperimentConfig(tau_coh_fs=1e-170)
    mode3, _ = apply_bs1(input_phi_theta(0.0))
    far, near = fourfold_from_mode3(mode3, 0.0, cfg), fourfold_from_mode3(mode3, 1.0, cfg)
    assert sweep_delay(0.0, [-1.0, 0.0, 1.0], cfg).column("fourfold") == (far, near, far)


# the reference squares delay and tau apart, so it is compared only where
# neither square leaves the normal float range; an exponent x with relative
# error e moves exp(-x) by about x * e relative, so the tolerance scales with x
delays = st.floats(allow_nan=False, allow_infinity=False)
taus = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _reference_overlap(delay, tau):
    return math.exp(-(delay * delay) / (2.0 * tau * tau))


@settings(max_examples=300, deadline=None)
@given(delay=delays, other=delays, tau=taus)
def test_overlap_is_an_even_non_increasing_gaussian(delay, other, tau):
    eta = overlap_from_delay(delay, tau)
    assert 0.0 <= eta <= 1.0
    assert overlap_from_delay(-delay, tau).hex() == eta.hex()
    assert overlap_from_delay(0.0, tau) == 1.0
    near, far = sorted((delay, other), key=abs)
    assert overlap_from_delay(near, tau) >= overlap_from_delay(far, tau)
    squares = (delay * delay, 2.0 * tau * tau)
    if all(math.isfinite(v) for v in squares) and squares[1] >= sys.float_info.min:
        if delay == 0.0 or squares[0] >= sys.float_info.min:
            exponent = squares[0] / squares[1]
            # below the normal range exp's own rounding is absolute, 2^-1074
            assert math.isclose(
                eta,
                _reference_overlap(delay, tau),
                rel_tol=1e-15 * max(1.0, exponent),
                abs_tol=2.0 * 2.0**-1074,
            )


def test_overlap_survives_overflowing_squares():
    # delay^2 and 2 tau^2 both overflow to inf here; this used to give NaN
    for delay, tau in ((1e200, 1e200), (1e155, 1e155), (-1e200, 1e200)):
        assert overlap_from_delay(delay, tau) == math.exp(-0.5)
    assert overlap_from_delay(1.7e308, 1e154) == 0.0
    # an int too large to square in floating point used to raise OverflowError
    assert overlap_from_delay(10**200, 1.0) == 0.0
    assert overlap_from_delay(10**200, 10**200) == math.exp(-0.5)


def test_extend_ancilla_limits():
    reg = analysis_registry(delayed=True)
    principal = reg.occupation({mode(8, "H", 0): 1})
    delayed = reg.occupation({mode(8, "H", 1): 1})

    pure = extend_ancilla(reg, mode(8, "H"), 1.0)
    assert pure.support() == (principal,)

    orthogonal = extend_ancilla(reg, mode(8, "H"), 0.0)
    assert orthogonal.support() == (delayed,)

    mixed = extend_ancilla(reg, mode(8, "H"), 0.5)
    assert mixed.amplitude(principal) == pytest.approx(0.5, abs=1e-12)
    assert mixed.amplitude(delayed) == pytest.approx(0.866025404, abs=1e-9)
    assert mixed.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_extend_ancilla_domain():
    reg = analysis_registry(delayed=True)
    with pytest.raises(DomainError):
        extend_ancilla(reg, mode(8, "H"), 1.2)
    with pytest.raises(DomainError):
        extend_ancilla(reg, mode(8, "H", 1), 0.5)


def test_temporal_extension_preserves_full_overlap_probability():
    # eta = 1 through the two-bin registry equals the single-bin computation
    cfg = ExperimentConfig()
    mode3, _ = apply_bs1(input_phi_theta(0.7))
    extended = fourfold_from_mode3(mode3, 1.0, cfg)

    from focksim.core import expand_onto, relabel, tensor_product, basis_state

    reg = analysis_registry(delayed=False)
    signal = expand_onto(
        relabel(mode3, {mode(3, "H"): mode(7, "H"), mode(3, "V"): mode(7, "V")}),
        reg,
    )
    ancilla = basis_state(reg, {mode(8, "H"): 1})
    evolved = transform(analysis_circuit(reg, cfg), tensor_product(signal, ancilla))
    plain = herald(evolved, fourfold_herald(reg)).probability
    assert extended == pytest.approx(plain, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 1.1, math.pi])
def test_heralded_probability_quadratic_in_overlap(theta):
    cfg = ExperimentConfig()
    mode3, _ = apply_bs1(input_phi_theta(theta))
    etas = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([fourfold_from_mode3(mode3, float(e), cfg) for e in etas])
    design = np.column_stack([np.ones_like(etas), etas**2])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = np.abs(design @ coeffs - values).max()
    assert residual < 1e-9


def test_hom_probability_quadratic_in_overlap():
    cfg = ExperimentConfig()
    etas = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    values = np.array([hom_probability(float(e), cfg) for e in etas])
    assert np.abs(values - 0.25 * (1.0 - etas**2)).max() < 1e-12


def test_detector_aggregation_matches_per_pattern_sum():
    # a grouped Exactly(1) equals the sum over explicit temporal placements
    cfg = ExperimentConfig()
    mode3, _ = apply_bs1(input_phi_theta(0.9))
    reg = analysis_registry(delayed=True)

    from focksim.core import expand_onto, relabel, tensor_product

    signal = expand_onto(
        relabel(mode3, {mode(3, "H"): mode(7, "H"), mode(3, "V"): mode(7, "V")}),
        reg,
    )
    ancilla = extend_ancilla(reg, mode(8, "H"), 0.6)
    evolved = transform(analysis_circuit(reg, cfg), tensor_product(signal, ancilla))

    grouped = herald(evolved, fourfold_herald(reg)).probability

    total = 0.0
    base = fourfold_herald(reg).groups
    # detector A is the analyzer's V port, detector B its H port
    for herald_t, a_t, b_t in np.ndindex(2, 2, 2):
        groups = [
            ([mode(8, "H", herald_t)], Exactly(1)),
            ([mode(8, "H", 1 - herald_t)], Exactly(0)),
            ([mode(7, "V", a_t)], Exactly(1)),
            ([mode(7, "V", 1 - a_t)], Exactly(0)),
            ([mode(7, "H", b_t)], Exactly(1)),
            ([mode(7, "H", 1 - b_t)], Exactly(0)),
        ]
        total += herald(evolved, HeraldSpec(groups)).probability
    assert total == pytest.approx(grouped, abs=1e-12)
    assert base  # sanity: the grouped spec is non-trivial
