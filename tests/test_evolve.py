import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focksim import (
    ANY,
    Exactly,
    HeraldSpec,
    ModeRegistry,
    ModeUnitary,
    PureState,
    THRESHOLD_CLICK,
    ZERO,
    basis_state,
    beam_splitter,
    compose,
    embed_into,
    embed_per_bin,
    herald,
    mode,
    ns_amplitude,
    ns_amplitude_pol,
    ns_pipeline,
    occupations,
    permanent,
    transform,
    transform_oracle,
    vacuum_state,
)
from focksim.errors import (
    DimensionMismatchError,
    DomainError,
    HeraldSpecError,
    NonSquareError,
    PhotonCapError,
    ZeroStateError,
)

INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


def permanent_by_permutations(matrix) -> complex:
    """Definition-level oracle: sum over permutations of row products."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    total = 0j
    for sigma in itertools.permutations(range(n)):
        product = 1 + 0j
        for i, j in enumerate(sigma):
            product *= a[i, j]
        total += product
    return total


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return ModeUnitary(q)


def line_registry(size):
    return ModeRegistry([mode(s, "H") for s in range(size)])


def max_amplitude_difference(a: PureState, b: PureState) -> float:
    keys = set(dict(a.items())) | set(dict(b.items()))
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


# ---------------------------------------------------------------- permanent

def test_permanent_small_closed_forms():
    assert permanent([[3.5]]) == 3.5
    assert permanent([[1, 2], [3, 4]]) == 1 * 4 + 2 * 3
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert permanent(np.zeros((0, 0))) == 1.0


def test_permanent_matches_permutation_sum():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        for _ in range(8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert permanent(a) == pytest.approx(permanent_by_permutations(a), abs=1e-9)


def test_permanent_rejects_non_square():
    with pytest.raises(NonSquareError):
        permanent(np.ones((2, 3)))


def test_occupations_enumeration():
    # an integral float count used to fail inside range()
    assert occupations(2.0, 2) == occupations(2, 2)
    occs = occupations(2, 3)
    assert occs[0] == (0, 0, 2)
    assert occs == tuple(sorted(occs))
    assert all(sum(o) == 2 for o in occs)
    assert len(occs) == 6
    assert occupations(0, 4) == ((0, 0, 0, 0),)


# ---------------------------------------------------------------- transform

def test_transform_identity_is_identity():
    reg = line_registry(3)
    state = PureState(reg, {(1, 0, 2): 0.6, (0, 3, 0): 0.8j})
    out = transform(ModeUnitary(np.eye(3)), state)
    assert max_amplitude_difference(out, state) == 0.0


def test_transform_single_photon_splitting():
    reg = line_registry(2)
    one = basis_state(reg, {mode(0, "H"): 1})
    for r in (0.2, 0.5, 0.9):
        out = transform(beam_splitter(r), one)
        assert out.amplitude((1, 0)) == pytest.approx(math.sqrt(r), abs=1e-12)
        assert out.amplitude((0, 1)) == pytest.approx(math.sqrt(1 - r), abs=1e-12)


def test_transform_balanced_splitter_cancels_coincidence():
    reg = line_registry(2)
    state = basis_state(reg, {mode(0, "H"): 1, mode(1, "H"): 1})
    out = transform(beam_splitter(0.5), state)
    # expansion oracle fixes the signs: (|0,2> - |2,0>)/sqrt(2)
    expected = transform_oracle(beam_splitter(0.5), state)
    assert max_amplitude_difference(out, expected) < 1e-12
    assert out.amplitude((1, 1)) == 0j
    assert out.amplitude((0, 2)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out.amplitude((2, 0)) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


def test_transform_oracle_three_photons_agree():
    rng = np.random.default_rng(23)
    reg = line_registry(3)
    state = basis_state(reg, {mode(0, "H"): 1, mode(1, "H"): 1, mode(2, "H"): 1})
    for _ in range(5):
        u = random_unitary(rng, 3)
        assert max_amplitude_difference(transform(u, state), transform_oracle(u, state)) < 1e-9


def test_transform_conserves_probability():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 5))
        reg = line_registry(dim)
        occs = occupations(int(rng.integers(0, 5)), dim)
        amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
        state = PureState(reg, dict(zip(occs, amps)))
        out = transform(random_unitary(rng, dim), state)
        assert out.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-9)


def test_transform_permutation_covariance():
    rng = np.random.default_rng(41)
    dim = 4
    reg = line_registry(dim)
    state = PureState(
        reg,
        {(1, 0, 2, 0): 0.5, (0, 1, 0, 1): 0.5j, (2, 0, 0, 0): -0.5, (0, 0, 1, 1): 0.5},
    )

    def permute_state(s, perm):
        moved = {}
        for occ, amp in s.items():
            new = [0] * dim
            for i, c in enumerate(occ):
                new[perm[i]] = c
            moved[tuple(new)] = amp
        return PureState(reg, moved)

    for _ in range(5):
        u = random_unitary(rng, dim)
        p_out = list(rng.permutation(dim))
        p_in = list(rng.permutation(dim))
        mat_out = np.zeros((dim, dim))
        mat_in = np.zeros((dim, dim))
        for j, k in enumerate(p_out):
            mat_out[k, j] = 1.0
        for j, k in enumerate(p_in):
            mat_in[k, j] = 1.0
        combined = ModeUnitary(mat_out @ u.matrix @ mat_in)
        lhs = transform(combined, state)
        rhs = permute_state(transform(u, permute_state(state, p_in)), p_out)
        assert max_amplitude_difference(lhs, rhs) < 1e-12


def test_transform_guards():
    reg = line_registry(2)
    with pytest.raises(DimensionMismatchError):
        transform(ModeUnitary(np.eye(3)), basis_state(reg, {mode(0, "H"): 1}))
    with pytest.raises(PhotonCapError):
        transform(beam_splitter(0.5), basis_state(reg, {mode(0, "H"): 9}))
    # an over-cap photon number is a domain problem, not an internal error
    assert issubclass(PhotonCapError, DomainError)


# ------------------------------------------------------------------- herald

def ns_registry():
    return ModeRegistry([mode(s, p) for s in (7, 8) for p in "HV"])


def test_herald_ns_success_branch():
    # |0V;2H> with an H ancilla through the balanced dual-pol splitter
    result = ns_pipeline(0, 2, 0.5, 0.5)
    assert result.probability == pytest.approx(0.125, abs=1e-12)
    assert result.amplitude.real == pytest.approx(-INV_2SQRT2, abs=1e-12)
    assert abs(result.amplitude.imag) < 1e-15


def test_herald_vacuum_all_zero():
    reg = ns_registry()
    result = herald(vacuum_state(reg), HeraldSpec([(reg.labels, ZERO)]))
    assert result.probability == pytest.approx(1.0)
    assert result.conditional_state.registry.size == 0


def test_herald_no_matching_component():
    reg = ns_registry()
    two = basis_state(reg, {mode(7, "H"): 2})
    result = herald(two, HeraldSpec([([mode(7, "H")], Exactly(1))]))
    assert result.probability == 0.0
    assert result.branches == ()
    with pytest.raises(ZeroStateError):
        result.conditional_state


def test_herald_threshold_click():
    reg = ns_registry()
    state = PureState(
        reg,
        {
            reg.occupation({mode(8, "H"): 2}): 0.6,
            reg.occupation({mode(7, "H"): 2}): 0.8,
        },
    )
    clicked = herald(
        state, HeraldSpec([([mode(8, "H"), mode(8, "V")], THRESHOLD_CLICK)])
    )
    assert clicked.probability == pytest.approx(0.36, abs=1e-12)


def test_herald_branches_split_by_measured_pattern():
    reg = ns_registry()
    state = PureState(
        reg,
        {
            reg.occupation({mode(8, "H"): 1, mode(7, "H"): 1}): 0.6,
            reg.occupation({mode(8, "H"): 2}): 0.8,
        },
    )
    result = herald(state, HeraldSpec([([mode(8, "H")], THRESHOLD_CLICK)]))
    assert len(result.branches) == 2
    assert result.probability == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(HeraldSpecError):
        result.conditional_state
    patterns = [pattern for pattern, _ in result.branches]
    assert patterns == sorted(patterns)


def test_herald_group_conditions_validate():
    reg = ns_registry()
    state = vacuum_state(reg)
    with pytest.raises(HeraldSpecError):
        herald(state, HeraldSpec([([mode(1, "H")], ZERO)]))
    with pytest.raises(HeraldSpecError):
        HeraldSpec([([mode(7, "H")], ZERO), ([mode(7, "H")], ANY)])
    with pytest.raises(DomainError):
        HeraldSpec([([mode(7, "H")], Exactly(-1))])
    # these used to herald with probability 0 instead of failing
    for bad in (math.nan, 0.5, math.inf):
        with pytest.raises(DomainError):
            HeraldSpec([([mode(7, "H")], Exactly(bad))])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_herald_outcomes_are_exhaustive(data):
    # every component meets exactly one Exactly(k) of a group, and exactly one
    # of THRESHOLD_CLICK and ZERO, so each set of outcomes sums to the norm
    reg = ModeRegistry([mode(s, p) for s in range(data.draw(st.integers(1, 2))) for p in "HV"])
    occupation = st.tuples(*[st.integers(0, 2)] * reg.size)
    amplitude = st.builds(complex, st.floats(0.1, 1.0), st.floats(-1.0, 1.0))
    components = st.dictionaries(occupation, amplitude, min_size=1, max_size=6)
    state = PureState(reg, data.draw(components, label="state"))
    group = data.draw(st.lists(st.sampled_from(reg.labels), min_size=1, unique=True), label="group")
    norm = state.norm_squared()
    most = max(sum(occ) for occ, _ in state.items())
    exact = [herald(state, HeraldSpec([(group, Exactly(k))])).probability for k in range(most + 1)]
    assert abs(math.fsum(exact) - norm) <= 1e-12
    click = [herald(state, HeraldSpec([(group, c)])).probability for c in (THRESHOLD_CLICK, ZERO)]
    assert abs(math.fsum(click) - norm) <= 1e-12


# ------------------------------------------------------------- closed forms

def test_ns_amplitude_examples():
    assert ns_amplitude(2, 0.5) == pytest.approx(-INV_2SQRT2, abs=1e-12)
    assert ns_amplitude(1, 0.5) == 0.0
    assert ns_amplitude(3, 0.75) == 0.0
    for r in (0.1, 0.5, 0.9):
        assert ns_amplitude(0, r) == pytest.approx(math.sqrt(r), abs=1e-15)


def test_ns_amplitude_r_zero_convention():
    assert ns_amplitude(0, 0.0) == 0.0
    assert ns_amplitude(2, 0.0) == 0.0


def test_ns_amplitude_domain():
    with pytest.raises(DomainError):
        ns_amplitude(-1, 0.5)
    with pytest.raises(DomainError):
        ns_amplitude(1, 1.5)
    # non-finite or float-overflowing photon numbers used to escape as
    # OverflowError or ValueError
    for bad in (math.inf, math.nan, 10**400):
        with pytest.raises(DomainError):
            ns_amplitude(bad, 0.5)
        with pytest.raises(DomainError):
            ns_amplitude_pol(bad, 1, 0.5, 0.5)
        with pytest.raises(DomainError):
            ns_amplitude_pol(0, bad, 0.5, 0.5)


def test_ns_amplitude_pol_examples():
    assert ns_amplitude_pol(2, 0, 0.5, 0.5) == pytest.approx(INV_2SQRT2, abs=1e-12)
    assert ns_amplitude_pol(1, 1, 0.5, 0.5) == 0.0
    r_v = 5.0 - 3.0 * math.sqrt(2.0)
    r_h = (3.0 - math.sqrt(2.0)) / 7.0
    # frozen from the transform+herald pipeline at the two-gate reflectivities
    expected = ns_pipeline(0, 2, r_v, r_h).amplitude.real
    assert expected == pytest.approx(-0.6284509, abs=1e-6)
    assert ns_amplitude_pol(0, 2, r_v, r_h) == pytest.approx(expected, abs=1e-12)


def test_closed_form_matches_pipeline_single_polarization():
    for n in range(5):
        for r in np.linspace(0.1, 0.9, 9):
            want = ns_amplitude(n, float(r))
            got = ns_pipeline(0, n, float(r), float(r))
            assert abs(got.amplitude - want) < 1e-12, (n, r)


def test_closed_form_matches_pipeline_two_polarizations():
    rng = np.random.default_rng(3)
    for m in range(4):
        for n in range(4 - m + 1):
            if m + n > 4:
                continue
            r_v, r_h = rng.uniform(0.1, 0.9, size=2)
            want = ns_amplitude_pol(m, n, float(r_v), float(r_h))
            got = ns_pipeline(m, n, float(r_v), float(r_h))
            assert abs(got.amplitude - want) < 1e-12, (m, n)


def test_critical_reflectivity_zeros():
    for n in range(1, 5):
        r = n / (n + 1)
        assert abs(ns_amplitude(n, r)) < 1e-12
        assert abs(ns_pipeline(0, n, r, r).amplitude) < 1e-12


# ---------------------------------------------------------- oracle property

def test_oracle_equivalence_random_unitaries():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        reg = line_registry(dim)
        photons = int(rng.integers(0, 5))
        occs = list(occupations(photons, dim))
        weights = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
        weights /= np.linalg.norm(weights)
        state = PureState(reg, dict(zip(occs, weights)))
        u = random_unitary(rng, dim)
        worst = max(
            worst, max_amplitude_difference(transform(u, state), transform_oracle(u, state))
        )
    assert worst < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_matches_oracle_on_sparse_circuits(data):
    # circuits built from small elements leave most rows out of reach of an
    # input, which is what lets `transform` skip them
    spatials = data.draw(st.integers(2, 3), label="spatial modes")
    bins = data.draw(st.integers(1, 2), label="temporal bins")
    reg = ModeRegistry([mode(s, p, t) for s in range(spatials) for p in "HV" for t in range(bins)])
    ports = sorted({(label.spatial, label.pol) for label in reg.labels})
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stages = []
    for kind in data.draw(st.lists(st.sampled_from(["mode", "bin", "perm"]), min_size=1, max_size=3)):
        if kind == "perm":
            stages.append(ModeUnitary(np.eye(reg.size)[rng.permutation(reg.size)]))
            continue
        dim = data.draw(st.sampled_from([2, 4]))
        pool = reg.labels if kind == "mode" else ports
        picked = data.draw(st.lists(st.sampled_from(pool), min_size=dim, max_size=dim, unique=True))
        place = embed_into if kind == "mode" else embed_per_bin
        stages.append(place(random_unitary(rng, dim), picked, reg))
    # each component is a multiset of occupied modes: empty is the vacuum,
    # repeats are bunched photons
    components = data.draw(
        st.lists(st.lists(st.integers(0, reg.size - 1), max_size=3), min_size=1, max_size=3)
    )
    amplitudes = {}
    for photons in components:
        occ = [0] * reg.size
        for k in photons:
            occ[k] += 1
        amplitudes[tuple(occ)] = complex(*rng.standard_normal(2))
    state = PureState(reg, amplitudes)
    u = compose(stages)
    assert max_amplitude_difference(transform(u, state), transform_oracle(u, state)) < 1e-9
