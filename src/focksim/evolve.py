"""Multi-photon evolution, heralded detection, and the sign-shift closed forms.

The transition amplitude between occupation m and n under a mode unitary U
is Per(U[m, n]) / sqrt(prod(m_i!) * prod(n_j!)), where U[m, n] repeats row k
m_k times and column j n_j times.  `transform` evaluates this with a Ryser
permanent, enumerating only the output rows an input component can reach
(rows with a non-zero entry in its input columns); `transform_oracle`
re-derives the same map by brute-force expansion of the creation-operator
polynomial and is kept free of permanents so the two routes stay
independent checks of each other.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import H, V, ModeLabel, ModeRegistry, PureState, basis_state, mode
from .elements import ANALYZER_SPATIAL, HERALD_SPATIAL, ModeUnitary, sign_shift_splitter
from .errors import (
    DimensionMismatchError,
    DomainError,
    HeraldSpecError,
    NonSquareError,
    PhotonCapError,
    ZeroStateError,
    check_count,
    check_unit_interval,
)

#: Largest total photon number `transform` accepts.
PHOTON_CAP = 8


def _permanent_rows(rows: list[list[complex]]) -> complex:
    """Permanent of a square matrix given as nested lists.

    Closed forms for n <= 2, Ryser's formula with Gray-code subset updates
    (O(2^n * n)) beyond that.
    """
    n = len(rows)
    if n == 0:
        return 1 + 0j
    if n == 1:
        return complex(rows[0][0])
    if n == 2:
        return rows[0][0] * rows[1][1] + rows[0][1] * rows[1][0]
    cols = list(zip(*rows))
    sums = [0j] * n
    total = 0j
    gray = 0
    popcount = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        col = cols[j]
        if new_gray & bit:
            for i in range(n):
                sums[i] += col[i]
            popcount += 1
        else:
            for i in range(n):
                sums[i] -= col[i]
            popcount -= 1
        prod = 1 + 0j
        for s in sums:
            prod *= s
        total += -prod if (popcount & 1) else prod
        gray = new_gray
    return -total if (n & 1) else total


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix (n = 0 gives 1)."""
    try:
        array = np.asarray(matrix, dtype=complex)
    except OverflowError as exc:  # an int too large for a float
        raise DomainError("permanent requires finite matrix entries") from exc
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise NonSquareError(f"permanent requires a square matrix, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise DomainError("permanent requires finite matrix entries")
    return _permanent_rows(array.tolist())


@lru_cache(maxsize=None)
def occupations(total: int, modes: int) -> tuple[tuple[int, ...], ...]:
    """All occupation tuples of `total` photons over `modes`, lexicographic."""
    total, modes = check_count("photon number", total), check_count("mode count", modes)
    if modes == 0:
        return ((),) if total == 0 else ()
    if modes == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in occupations(total - first, modes - 1):
            out.append((first,) + rest)
    return tuple(out)


def _fact_prod(occ: Sequence[int]) -> int:
    value = 1
    for c in occ:
        value *= math.factorial(c)
    return value


def _sqrt_fact_prod(occ: Sequence[int]) -> float:
    return math.sqrt(_fact_prod(occ))


def _check_transform_args(unitary: ModeUnitary, state: PureState) -> None:
    if unitary.dim != state.registry.size:
        raise DimensionMismatchError(
            f"unitary dim {unitary.dim} does not match registry size {state.registry.size}"
        )
    for occ, _ in state.items():
        if sum(occ) > PHOTON_CAP:
            raise PhotonCapError(f"component {occ} holds more than {PHOTON_CAP} photons")


def transform(unitary: ModeUnitary, state: PureState) -> PureState:
    """Evolve a state through a mode unitary via permanents.

    Photon number is conserved component-wise and the total probability is
    preserved up to pruning of sub-threshold amplitudes.
    """
    _check_transform_args(unitary, state)
    size = state.registry.size
    rows_list = unitary.matrix.tolist()
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.items():
        cols = [j for j, c in enumerate(occ) for _ in range(c)]
        in_fact = _fact_prod(occ)
        reach = {k: [row[j] for j in cols] for k, row in enumerate(rows_list)}
        live = [k for k, entries in reach.items() if any(entries)]
        # other rows only give zero permanents; reversed, the ascending row
        # picks yield targets in canonical occupation order, as before
        for picked in reversed(list(combinations_with_replacement(live, len(cols)))):
            target = tuple(picked.count(k) for k in range(size))
            per = _permanent_rows([reach[k] for k in picked])
            if per == 0:
                continue
            # dividing the permanent by one combined square root first keeps
            # the identity transform (and other integer ratios) exact
            contribution = amp * (per / math.sqrt(in_fact * _fact_prod(target)))
            out[target] = out.get(target, 0j) + contribution
    return PureState(state.registry, out)


def transform_oracle(unitary: ModeUnitary, state: PureState) -> PureState:
    """Same map as `transform`, by expanding the creation-operator polynomial.

    Substitutes a_in(j) -> sum_k U[k][j] a_out(k) one photon at a time and
    collects monomial coefficients; no permanents are evaluated.
    """
    _check_transform_args(unitary, state)
    size = state.registry.size
    matrix = unitary.matrix
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.items():
        poly: dict[tuple[int, ...], complex] = {(0,) * size: amp / _sqrt_fact_prod(occ)}
        for j, photons in enumerate(occ):
            column = [(k, matrix[k, j]) for k in range(size) if matrix[k, j] != 0]
            for _ in range(photons):
                grown: dict[tuple[int, ...], complex] = {}
                for monomial, coeff in poly.items():
                    for k, weight in column:
                        key = monomial[:k] + (monomial[k] + 1,) + monomial[k + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * weight
                poly = grown
        for monomial, coeff in poly.items():
            out[monomial] = out.get(monomial, 0j) + coeff * _sqrt_fact_prod(monomial)
    return PureState(state.registry, out)


class Exactly(NamedTuple):
    """Detector condition: the group holds exactly `count` photons."""

    count: int


class _Rule(Enum):
    THRESHOLD_CLICK = "threshold-click"
    ANY = "any"


#: Non-number-resolving detector: at least one photon in the group.
THRESHOLD_CLICK = _Rule.THRESHOLD_CLICK
#: Unmonitored modes: no constraint, content stays in the conditional state.
ANY = _Rule.ANY
#: No photons in the group.
ZERO = Exactly(0)

Condition = Exactly | _Rule


class HeraldSpec:
    """Detection pattern: disjoint mode groups, one condition per group.

    Registered modes not mentioned in any group are implicitly
    unconstrained (ANY).  Conditions count photons summed over the whole
    group, so grouping a detector's temporal copies models a detector that
    cannot resolve arrival time.
    """

    def __init__(self, groups: Iterable[tuple[Iterable[ModeLabel], Condition]]):
        normalized: list[tuple[frozenset[ModeLabel], Condition]] = []
        seen: set[ModeLabel] = set()
        for labels, condition in groups:
            group = frozenset(mode(*label) for label in labels)
            if not group:
                raise HeraldSpecError("herald groups must be non-empty")
            if group & seen:
                raise HeraldSpecError(f"herald groups overlap on {sorted(group & seen)}")
            if isinstance(condition, Exactly):
                check_count("Exactly(k)", condition.count)
            elif not isinstance(condition, _Rule):
                raise HeraldSpecError(f"unknown herald condition {condition!r}")
            seen |= group
            normalized.append((group, condition))
        self._groups = tuple(normalized)

    @property
    def groups(self) -> tuple[tuple[frozenset[ModeLabel], Condition], ...]:
        return self._groups

    def measured_labels(self) -> frozenset[ModeLabel]:
        out: set[ModeLabel] = set()
        for group, condition in self._groups:
            if condition is not ANY:
                out |= group
        return frozenset(out)


class HeraldResult:
    """Outcome of a heralded measurement.

    `branches` maps each surviving measured-mode occupation pattern to the
    sub-normalized state left on the unmeasured modes.  Patterns are
    mutually exclusive detector records, so their probabilities add and
    never interfere.  `conditional_state` is only defined when a single
    pattern survives.
    """

    def __init__(self, probability: float, branches: Sequence[tuple[tuple[int, ...], PureState]]):
        self.probability = probability
        self.branches = tuple(branches)

    @property
    def conditional_state(self) -> PureState:
        if not self.branches:
            raise ZeroStateError("no component satisfied the herald conditions")
        if len(self.branches) > 1:
            raise HeraldSpecError(
                f"{len(self.branches)} measured patterns survived; use .branches"
            )
        return self.branches[0][1]


def _group_satisfied(count: int, condition: Condition) -> bool:
    if isinstance(condition, Exactly):
        return count == condition.count
    if condition is THRESHOLD_CLICK:
        return count >= 1
    return True


def herald(state: PureState, spec: HeraldSpec) -> HeraldResult:
    """Project onto the detection pattern and split off the surviving state.

    Components with the same measured-mode pattern stay coherent; distinct
    patterns contribute probability additively.
    """
    registry = state.registry
    for group, _ in spec.groups:
        for label in group:
            if label not in registry:
                raise HeraldSpecError(f"herald references unregistered mode {label}")
    measured_reg = ModeRegistry(spec.measured_labels())
    unmeasured_reg = ModeRegistry(label for label in registry.labels if label not in measured_reg)
    group_indices = [
        ([registry.index(label) for label in group], condition)
        for group, condition in spec.groups
    ]
    measured_pos = [registry.index(label) for label in measured_reg.labels]
    unmeasured_pos = [registry.index(label) for label in unmeasured_reg.labels]

    collected: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ, amp in state.items():
        if all(
            _group_satisfied(sum(occ[i] for i in indices), condition)
            for indices, condition in group_indices
        ):
            pattern = tuple(occ[i] for i in measured_pos)
            remainder = tuple(occ[i] for i in unmeasured_pos)
            collected.setdefault(pattern, {})[remainder] = amp

    branches = [
        (pattern, PureState(unmeasured_reg, amps))
        for pattern, amps in sorted(collected.items())
    ]
    probability = math.fsum(sub.norm_squared() for _, sub in branches)
    return HeraldResult(probability, branches)


def ns_amplitude(n: int, reflectivity: float) -> float:
    """Heralded amplitude for n photons with a single-photon ancilla.

    Closed form (sqrt(R))^(n-1) * (R - n(1-R)); the amplitude flips sign
    once n exceeds R/(1-R) and vanishes at n = R/(1-R).  R = 0 returns 0
    by convention (the all-reflection path is impossible).
    """
    check_count("photon number", n)
    check_unit_interval("reflectivity", reflectivity)
    if reflectivity == 0.0:
        return 0.0
    if n == 0:
        return math.sqrt(reflectivity)
    return reflectivity ** ((n - 1) / 2.0) * (reflectivity - n * (1.0 - reflectivity))


def ns_amplitude_pol(m: int, n: int, r_v: float, r_h: float) -> float:
    """Two-polarization closed form: (sqrt(R_V))^m times the H amplitude.

    Vertical photons only contribute their reflection amplitude; the
    sign-shift bracket involves the horizontal count alone.
    """
    check_count("photon number", m)
    check_unit_interval("r_v", r_v)
    return r_v ** (m / 2.0) * ns_amplitude(n, r_h)


class NSPipelineResult(NamedTuple):
    amplitude: complex
    probability: float


def ns_pipeline(m: int, n: int, r_v: float, r_h: float) -> NSPipelineResult:
    """Sign-shift operation via the full transform + herald route.

    Sends |m_V; n_H> on the analyzer port plus an H-polarized single-photon
    ancilla on the herald port through the sign-shift splitter and
    post-selects on exactly one H photon and no V photons on the herald
    side.  Returns the surviving |m_V; n_H> amplitude and the herald
    probability; both must agree with the closed forms, which is the
    cross-check the two code paths exist for.
    """
    registry = ModeRegistry(
        [mode(s, p) for s in (ANALYZER_SPATIAL, HERALD_SPATIAL) for p in (H, V)]
    )
    state = basis_state(
        registry,
        {
            mode(ANALYZER_SPATIAL, V): m,
            mode(ANALYZER_SPATIAL, H): n,
            mode(HERALD_SPATIAL, H): 1,
        },
    )
    evolved = transform(sign_shift_splitter(registry, r_v, r_h), state)
    result = herald(
        evolved,
        HeraldSpec(
            [
                ([mode(HERALD_SPATIAL, H)], Exactly(1)),
                ([mode(HERALD_SPATIAL, V)], ZERO),
            ]
        ),
    )
    if not result.branches:
        return NSPipelineResult(0j, 0.0)
    conditional = result.conditional_state
    target = conditional.registry.occupation(
        {mode(ANALYZER_SPATIAL, V): m, mode(ANALYZER_SPATIAL, H): n}
    )
    return NSPipelineResult(conditional.amplitude(target), result.probability)
