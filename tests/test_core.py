import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    ZERO,
    HeraldSpec,
    ModeRegistry,
    PureState,
    basis_state,
    expand_onto,
    herald,
    mode,
    normalize,
    relabel,
    tensor_product,
)
from focksim.core import PRUNE_THRESHOLD
from focksim.errors import (
    FLOAT_MAX,
    DimensionMismatchError,
    DomainError,
    DuplicateModeError,
    MissingModeError,
    OverlappingModesError,
    ZeroStateError,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pair_registry():
    return ModeRegistry([mode(3, "H"), mode(3, "V")])


#: Labels the property tests draw registries from: three paths, two bins.
LABELS = [mode(s, p, t) for s in (1, 3, 7) for p in "HV" for t in (0, 1)]


def random_state(data, registry):
    occupation = st.tuples(*[st.integers(0, 2)] * registry.size)
    amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    components = st.dictionaries(occupation, amplitude, min_size=1, max_size=6)
    return PureState(registry, data.draw(components, label="state"))


def test_registry_canonical_order():
    reg = ModeRegistry([mode(5, "H"), mode(3, "V"), mode(3, "H"), mode(3, "H", 1)])
    assert reg.labels == (mode(3, "H"), mode(3, "H", 1), mode(3, "V"), mode(5, "H"))
    assert reg.index(mode(3, "V")) == 2
    assert mode(5, "H") in reg
    assert mode(5, "V") not in reg


def test_registry_rejects_duplicates_and_bad_labels():
    with pytest.raises(DuplicateModeError):
        ModeRegistry([mode(1, "H"), mode(1, "H")])
    with pytest.raises(DomainError):
        mode(1, "X")
    with pytest.raises(DomainError):
        mode(1, "H", -1)
    # fractional or non-finite indices used to be truncated or escape as ValueError
    for spatial, temporal in ((1.5, 0), (1, 0.5), (math.nan, 0), (1, math.inf)):
        with pytest.raises(DomainError):
            mode(spatial, "H", temporal)
    with pytest.raises(MissingModeError):
        pair_registry().index(mode(9, "H"))


def test_registry_cap():
    labels = [mode(s, p, t) for s in range(5) for p in "HV" for t in (0, 1)]
    assert len(labels) == 20
    with pytest.raises(DomainError):
        ModeRegistry(labels)


def test_occupation_helper():
    reg = pair_registry()
    assert reg.occupation({mode(3, "V"): 2}) == (0, 2)
    assert reg.occupation({}) == (0, 0)
    with pytest.raises(DomainError):
        reg.occupation({mode(3, "V"): -1})
    # non-finite counts used to escape as ValueError or OverflowError
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            reg.occupation({mode(3, "V"): bad})


def test_pure_state_prunes_small_amplitudes():
    reg = pair_registry()
    state = PureState(reg, {(0, 2): 1.0, (2, 0): 1e-13})
    assert state.support() == ((0, 2),)
    assert state.amplitude((2, 0)) == 0j


def test_pure_state_validates_occupations():
    reg = pair_registry()
    with pytest.raises(DimensionMismatchError):
        PureState(reg, {(0, 1, 0): 1.0})
    with pytest.raises(DomainError):
        PureState(reg, {(0, -1): 1.0})
    for bad in (math.nan, math.inf, 0.5):
        with pytest.raises(DomainError):
            PureState(reg, {(0, bad): 1.0})
    # a non-finite amplitude must not be pruned away as if it were zero
    for bad in (math.nan, complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            PureState(reg, {(0, 2): bad})


class _Pairs:
    """A mapping seen only through items(), so keys may be lists or repeat."""

    def __init__(self, pairs):
        self._pairs = pairs

    def items(self):
        return iter(self._pairs)


def _reference_amplitudes(size, pairs):
    """What PureState kept before its fast path: every key checked count by count."""
    kept = {}
    for occ, amp in pairs:
        if len(occ) != size:
            raise DimensionMismatchError("length")
        if not all(0 <= c <= FLOAT_MAX and c % 1 == 0 for c in occ):
            raise DomainError("count")
        value = complex(amp)
        if not cmath.isfinite(value):
            raise DomainError("amplitude")
        if abs(value) >= PRUNE_THRESHOLD:
            kept[tuple(int(c) for c in occ)] = value
    return kept


_GOOD_COUNTS = st.one_of(
    st.integers(0, 3),
    st.integers(60, 70),  # the fast path takes counts up to 63
    st.booleans(),
    st.integers(0, 3).map(np.int64),
    st.integers(0, 3).map(np.uint8),
    st.integers(0, 3).map(float),
    st.integers(0, 3).map(np.float64),
    st.just(10**300),
)
_BAD_COUNTS = st.one_of(
    st.integers(-3, -1),
    st.just(np.int64(-1)),
    st.sampled_from([0.5, 2.25, -1.0, math.nan, math.inf, -math.inf, 10**400]),
)
_AMPLITUDES = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2e-12, allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.integers(-2, 2),
    st.sampled_from([math.nan, complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pure_state_fast_path_keeps_every_rule(data):
    size = data.draw(st.integers(0, 3), label="size")
    registry = ModeRegistry([mode(s, "H") for s in range(size)])
    counts = data.draw(st.sampled_from([_GOOD_COUNTS, _BAD_COUNTS]), label="counts")
    key = st.lists(st.one_of(_GOOD_COUNTS, counts), min_size=size, max_size=size)
    if data.draw(st.booleans(), label="wrong length"):
        key = st.lists(_GOOD_COUNTS, min_size=size + 1, max_size=size + 1)
    key = st.one_of(key.map(tuple), key)
    pairs = data.draw(st.lists(st.tuples(key, _AMPLITUDES), max_size=4), label="pairs")
    try:
        expected = _reference_amplitudes(size, pairs)
    except (DimensionMismatchError, DomainError) as exc:
        with pytest.raises(type(exc)):
            PureState(registry, _Pairs(pairs))
        return
    state = PureState(registry, _Pairs(pairs))
    kept = dict(state.items())
    assert kept == expected
    assert all(type(occ) is tuple and all(type(c) is int for c in occ) for occ in kept)
    assert all(type(a) is complex for a in kept.values())
    assert state.support() == tuple(sorted(expected))
    for occ, amp in expected.items():
        assert state.amplitude(occ) == amp
        assert state.amplitude(list(occ)) == amp


def test_pure_state_never_prunes_a_nan():
    reg = pair_registry()
    for occ in ((0, 2), (0, 2.0), (0, True), [0, 1]):
        for bad in (math.nan, complex(math.nan, 0.0), complex(1e-20, math.nan)):
            with pytest.raises(DomainError, match="must be finite"):
                PureState(reg, _Pairs([(occ, bad)]))


def test_normalize_scalar_factor():
    reg = pair_registry()
    state = PureState(reg, {reg.occupation({mode(3, "H"): 2}): 2.0})
    unit, norm = normalize(state)
    assert norm == pytest.approx(2.0, abs=1e-12)
    assert unit.amplitude((2, 0)) == pytest.approx(1.0, abs=1e-12)


def test_normalize_superposition():
    reg = pair_registry()
    state = PureState(reg, {(0, 2): 0.25, (2, 0): -0.25})
    unit, norm = normalize(state)
    assert norm == pytest.approx(0.353553391, abs=1e-9)
    assert unit.amplitude((0, 2)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert unit.amplitude((2, 0)) == pytest.approx(-INV_SQRT2, abs=1e-12)
    assert unit.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_normalize_empty_state_errors():
    reg = pair_registry()
    with pytest.raises(ZeroStateError):
        normalize(PureState(reg, {}))


def test_tensor_product_concatenates_disjoint_modes():
    reg = ModeRegistry([mode(3, "H"), mode(5, "H")])
    a = basis_state(reg, {mode(3, "H"): 1})
    b = basis_state(reg, {mode(5, "H"): 1})
    combined = tensor_product(a, b)
    assert combined.support() == ((1, 1),)
    assert combined.amplitude((1, 1)) == pytest.approx(1.0)


def test_tensor_product_distributes_and_multiplies_norms():
    reg = ModeRegistry([mode(3, "H"), mode(3, "V"), mode(5, "H")])
    a = PureState(
        reg,
        {
            reg.occupation({mode(3, "V"): 2}): INV_SQRT2,
            reg.occupation({mode(3, "H"): 2}): INV_SQRT2,
        },
    )
    b = basis_state(reg, {mode(5, "H"): 1})
    combined = tensor_product(a, b)
    assert len(combined.support()) == 2
    assert combined.norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


def test_tensor_product_vacuum_is_identity():
    reg = ModeRegistry([mode(3, "H"), mode(5, "H")])
    psi = PureState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    out = tensor_product(basis_state(reg, {}), psi)
    assert out.support() == psi.support()
    for occ, amp in psi.items():
        assert out.amplitude(occ) == pytest.approx(amp, abs=1e-15)


def test_tensor_product_rejects_overlap():
    reg = ModeRegistry([mode(3, "H"), mode(5, "H")])
    a = basis_state(reg, {mode(3, "H"): 1})
    with pytest.raises(OverlappingModesError):
        tensor_product(a, a)


def test_tensor_product_associative():
    reg = ModeRegistry([mode(3, "H"), mode(5, "H"), mode(8, "H")])
    a = PureState(reg, {reg.occupation({mode(3, "H"): 1}): 0.8, reg.occupation({}): 0.6})
    b = basis_state(reg, {mode(5, "H"): 2})
    c = PureState(reg, {reg.occupation({mode(8, "H"): 1}): 0.5j})
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert left.support() == right.support()
    for occ, amp in left.items():
        assert right.amplitude(occ) == pytest.approx(amp, abs=1e-15)
    assert abs(left.norm() - a.norm() * b.norm() * c.norm()) < 1e-12


def test_states_on_different_registries_do_not_mix():
    a = basis_state(pair_registry(), {mode(3, "H"): 1})
    b = basis_state(ModeRegistry([mode(5, "H"), mode(5, "V")]), {mode(5, "H"): 1})
    with pytest.raises(DimensionMismatchError):
        tensor_product(a, b)


def test_relabel_round_trip_preserves_norm():
    reg = ModeRegistry([mode(1, "H"), mode(1, "V")])
    state = PureState(reg, {(1, 0): 0.6, (0, 1): 0.8j})
    forward = {mode(1, "H"): mode(7, "H"), mode(1, "V"): mode(7, "V")}
    backward = {v: k for k, v in forward.items()}
    moved = relabel(state, forward)
    assert moved.registry.labels == (mode(7, "H"), mode(7, "V"))
    assert moved.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-15)
    back = relabel(moved, backward)
    assert back.support() == state.support()
    for occ, amp in state.items():
        assert back.amplitude(occ) == amp


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabel_round_trip_over_random_maps(data):
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6, unique=True))
    state = random_state(data, ModeRegistry(labels))
    # a random one-to-one renaming: a permutation of the labels or new ones
    targets = data.draw(
        st.lists(st.sampled_from(LABELS), min_size=len(labels), max_size=len(labels), unique=True)
    )
    forward = dict(zip(labels, targets))
    moved = relabel(state, forward)
    for occ, amp in state.items():
        assert moved.amplitude(dict(zip(map(forward.get, state.registry.labels), occ))) == amp
    back = relabel(moved, {new: old for old, new in forward.items()})
    assert back.registry == state.registry
    assert dict(back.items()) == dict(state.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_onto_then_vacuum_herald_round_trip(data):
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=8, unique=True))
    kept = data.draw(st.integers(1, len(labels) - 1), label="kept")
    small, big = ModeRegistry(labels[:kept]), ModeRegistry(labels)
    state = random_state(data, small)
    result = herald(expand_onto(state, big), HeraldSpec([(labels[kept:], ZERO)]))
    assert result.probability == state.norm_squared()
    assert result.conditional_state.registry == small
    assert dict(result.conditional_state.items()) == dict(state.items())


def test_expand_onto_keeps_amplitudes():
    small = ModeRegistry([mode(3, "H"), mode(3, "V")])
    big = ModeRegistry([mode(3, "H"), mode(3, "V"), mode(5, "H")])
    state = PureState(small, {(2, 0): 1.0})
    grown = expand_onto(state, big)
    assert grown.amplitude({mode(3, "H"): 2}) == pytest.approx(1.0)
    assert grown.registry is big
