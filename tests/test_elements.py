import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    ExperimentConfig,
    ModeRegistry,
    ModeUnitary,
    analysis_circuit,
    analysis_registry,
    beam_splitter,
    compose,
    dual_pol_beam_splitter,
    embed_into,
    embed_per_bin,
    half_wave_plate,
    mode,
)
from focksim.errors import (
    DimensionMismatchError,
    DomainError,
    DuplicateModeError,
    MissingModeError,
)

A = 1.0 / math.sqrt(2.0)


def unitarity_defect(u: ModeUnitary) -> float:
    m = u.matrix
    return float(np.abs(m.conj().T @ m - np.eye(u.dim)).max())


def test_beam_splitter_convention():
    u = beam_splitter(0.5).matrix
    # column 0: first port -> (sqrt R, sqrt 1-R); column 1 carries the minus
    assert np.allclose(u[:, 0], [A, A], atol=1e-12)
    assert np.allclose(u[:, 1], [-A, A], atol=1e-12)


def test_beam_splitter_limits():
    assert np.allclose(beam_splitter(1.0).matrix, np.eye(2), atol=0)
    assert np.allclose(beam_splitter(0.0).matrix, [[0, -1], [1, 0]], atol=0)


def test_beam_splitter_domain():
    with pytest.raises(DomainError):
        beam_splitter(-0.1)
    with pytest.raises(DomainError):
        beam_splitter(1.1)


def test_beam_splitter_entries_real_and_unitary():
    for r in np.linspace(0.0, 1.0, 11):
        u = beam_splitter(float(r))
        assert np.abs(u.matrix.imag).max() == 0.0
        assert unitarity_defect(u) < 1e-12


def test_dual_pol_blocks():
    r_v = 5.0 - 3.0 * math.sqrt(2.0)
    r_h = (3.0 - math.sqrt(2.0)) / 7.0
    assert r_v == pytest.approx(0.757359313, abs=1e-9)
    assert r_h == pytest.approx(0.226540920, abs=1e-9)
    u = dual_pol_beam_splitter(r_v, r_h).matrix
    np.testing.assert_array_equal(u[:2, :2], beam_splitter(r_h).matrix)
    np.testing.assert_array_equal(u[2:, 2:], beam_splitter(r_v).matrix)
    assert np.abs(u[:2, 2:]).max() == 0.0
    assert np.abs(u[2:, :2]).max() == 0.0


def test_dual_pol_equal_reflectivities_match_single():
    for r in (0.3, 0.5, 0.9):
        u = dual_pol_beam_splitter(r, r).matrix
        single = beam_splitter(r).matrix
        np.testing.assert_array_equal(u[:2, :2], single)
        np.testing.assert_array_equal(u[2:, 2:], single)


def test_dual_pol_identity():
    assert np.allclose(dual_pol_beam_splitter(1.0, 1.0).matrix, np.eye(4), atol=0)


def test_half_wave_plate_angles():
    u45 = half_wave_plate(45.0).matrix
    assert np.allclose(u45, [[A, A], [A, -A]], atol=1e-12)
    u0 = half_wave_plate(0.0).matrix
    assert np.allclose(u0, [[1, 0], [0, -1]], atol=1e-12)
    u90 = half_wave_plate(90.0).matrix
    assert np.allclose(u90, [[0, 1], [1, 0]], atol=1e-12)
    assert np.abs(u45.imag).max() == 0.0
    # an infinite angle used to raise a bare ValueError from math.cos
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            half_wave_plate(bad)


def test_embed_identity_anywhere():
    reg = ModeRegistry([mode(s, "H") for s in range(6)])
    u = embed_into(ModeUnitary(np.eye(2)), [mode(2, "H"), mode(4, "H")], reg)
    assert np.allclose(u.matrix, np.eye(6), atol=0)


def test_embed_preserves_unitarity():
    reg = ModeRegistry([mode(s, p) for s in (3, 5, 8) for p in "HV"])
    u = embed_into(beam_splitter(0.5), [mode(3, "H"), mode(5, "H")], reg)
    assert unitarity_defect(u) < 1e-12


def test_embed_then_inverse_is_identity():
    reg = ModeRegistry([mode(s, "H") for s in range(4)])
    b = beam_splitter(0.37)
    forward = embed_into(b, [mode(1, "H"), mode(3, "H")], reg)
    backward = embed_into(ModeUnitary(b.matrix.conj().T), [mode(1, "H"), mode(3, "H")], reg)
    assert np.allclose(compose([forward, backward]).matrix, np.eye(4), atol=1e-12)


def test_embed_errors():
    reg = ModeRegistry([mode(s, "H") for s in range(4)])
    with pytest.raises(DimensionMismatchError):
        embed_into(beam_splitter(0.5), [mode(0, "H")], reg)
    with pytest.raises(DuplicateModeError):
        embed_into(beam_splitter(0.5), [mode(0, "H"), mode(0, "H")], reg)
    with pytest.raises(MissingModeError):
        embed_into(beam_splitter(0.5), [mode(0, "H"), mode(9, "H")], reg)


def test_embed_per_bin_places_element_in_every_bin():
    reg = ModeRegistry([mode(s, p, t) for s in (3, 5) for p in "HV" for t in (0, 1)])
    b = beam_splitter(0.37)
    per_bin = embed_per_bin(b, [(3, "V"), (5, "H")], reg)
    by_bin = [embed_into(b, [mode(3, "V", t), mode(5, "H", t)], reg) for t in (0, 1)]
    assert np.array_equal(per_bin.matrix, compose(by_bin).matrix)
    with pytest.raises(DimensionMismatchError):
        embed_per_bin(b, [(3, "V")], reg)
    with pytest.raises(DuplicateModeError):
        embed_per_bin(b, [(3, "V"), (3, "V")], reg)
    with pytest.raises(MissingModeError):
        embed_per_bin(b, [(3, "V"), (4, "H")], reg)


def test_compose_single_and_inverse():
    b = beam_splitter(0.42)
    assert np.array_equal(compose([b]).matrix, b.matrix)
    inverse = ModeUnitary(b.matrix.conj().T)
    assert np.allclose(compose([b, inverse]).matrix, np.eye(2), atol=1e-12)


def test_compose_two_balanced_splitters_swap():
    # direct 2x2 product oracle
    b = beam_splitter(0.5).matrix
    expected = b @ b
    got = compose([beam_splitter(0.5), beam_splitter(0.5)]).matrix
    assert np.allclose(got, expected, atol=1e-15)
    assert abs(got[0, 0]) < 1e-15
    assert np.allclose(np.abs(got), [[0, 1], [1, 0]], atol=1e-12)


def test_compose_order_first_listed_acts_first():
    reg = ModeRegistry([mode(7, "H"), mode(7, "V"), mode(8, "H")])
    hwp = embed_into(half_wave_plate(90.0), [mode(7, "H"), mode(7, "V")], reg)
    splitter = embed_into(beam_splitter(0.0), [mode(7, "V"), mode(8, "H")], reg)
    # H flips to V at the plate, then the splitter sends all of 7V to 8H
    u = compose([hwp, splitter]).matrix
    assert u[reg.index(mode(8, "H")), reg.index(mode(7, "H"))] == pytest.approx(1.0)
    # the other order: the splitter leaves 7H alone, and the plate turns it to V
    reversed_u = compose([splitter, hwp]).matrix
    assert reversed_u[reg.index(mode(7, "V")), reg.index(mode(7, "H"))] == pytest.approx(1.0)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        compose([beam_splitter(0.5), dual_pol_beam_splitter(0.5, 0.5)])
    with pytest.raises(DimensionMismatchError):
        compose([])


def test_random_constructor_unitarity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = float(rng.uniform())
        assert unitarity_defect(beam_splitter(r)) < 1e-10
        assert unitarity_defect(dual_pol_beam_splitter(r, float(rng.uniform()))) < 1e-10
        assert unitarity_defect(half_wave_plate(float(rng.uniform(-360, 360)))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    r_v=st.floats(0.0, 1.0),
    r_h=st.floats(0.0, 1.0),
    rotation=st.floats(allow_nan=False, allow_infinity=False),
    delayed=st.booleans(),
)
def test_every_element_is_unitary_over_random_parameters(r_v, r_h, rotation, delayed):
    # ModeUnitary refuses a matrix more than UNITARITY_TOL from unitary, so
    # building each element is itself the check; the defect is asserted too
    registry = analysis_registry(delayed)
    cfg = ExperimentConfig(r_v=r_v, r_h=r_h, hwp_rotation=rotation)
    elements = [
        beam_splitter(r_v),
        dual_pol_beam_splitter(r_v, r_h),
        half_wave_plate(rotation),
        embed_per_bin(half_wave_plate(rotation), [(7, "H"), (7, "V")], registry),
        analysis_circuit(registry, cfg),
    ]
    for element in elements:
        assert unitarity_defect(element) < 1e-10


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(DomainError):
        ModeUnitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DomainError):
        ModeUnitary(np.full((2, 2), np.nan))
    with pytest.raises(DimensionMismatchError):
        ModeUnitary(np.ones((2, 3)))
