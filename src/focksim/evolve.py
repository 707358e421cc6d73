"""Multi-photon evolution, heralded detection, and the sign-shift closed forms.

The transition amplitude between occupation m and n under a mode unitary U
is Per(U[m, n]) / sqrt(prod(m_i!) * prod(n_j!)), where U[m, n] repeats row k
m_k times and column j n_j times.  `transform` is the engine: it
enumerates only the output rows an input component can reach (rows with a
non-zero entry in its input columns), builds each target occupation and
its factorial product from the counts of the picked rows, and evaluates
the permanent in closed form for n <= 4 photons and beyond by Glynn's
formula, one numpy sum over blocks of sign vectors.  `transform_oracle` is
the check: it re-derives the same map by expanding the creation-operator
polynomial on numpy arrays, evaluates no permanent and shares no
evaluation code with `transform`, so the two routes stay independent
checks of each other.

The engine knows no tabletop: `ns_pipeline` places its splitter on two
ports of its own, and the analysis stage lives in `focksim.experiments`.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations_with_replacement
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import H, V, ModeLabel, ModeRegistry, PureState, _probability_sum, basis_state, mode
from .elements import ModeUnitary, dual_pol_beam_splitter, embed_into
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

#: `transform_oracle` keys a monomial by its mode counts as digits in this
#: base; (PHOTON_CAP + 1) ** MODE_CAP must fit in an int64.
_COUNT_BASE = PHOTON_CAP + 1
_FACTORIALS = np.array([math.factorial(c) for c in range(_COUNT_BASE)], dtype=float)
#: Terms `transform_oracle` lets a product hold before merging equal monomials.
_COLLECT_AT = 256


#: Sign vectors `_glynn` sums at once: memory stays near this many rows of n entries.
_GLYNN_BLOCK = 1 << 11


def _glynn(*rows) -> complex:
    """Permanent of n >= 1 rows by Glynn's formula, O(2^n * n^2).

    Sums prod(delta) * prod_i (sum_j delta_j a_ij) / 2^(n-1) over the sign
    vectors delta with delta_0 = +1, one block of sign vectors at a time.
    """
    matrix = np.array(rows, dtype=complex)
    n = len(rows)
    count = 1 << (n - 1)
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):  # permanent() rejects a non-finite result
        for start in range(0, count, _GLYNN_BLOCK):
            index = np.arange(start, min(start + _GLYNN_BLOCK, count))
            # bit j of 2 * index is delta_j's sign bit; bit 0 is clear, so delta_0 = +1
            signs = 1 - 2 * ((2 * index[:, None] >> np.arange(n)) & 1)
            total += (signs.prod(axis=1) * (signs @ matrix.T).prod(axis=1)).sum()
    return total / count


def _per0() -> complex:
    return 1 + 0j


def _per1(r0) -> complex:
    return complex(r0[0])


def _per2(r0, r1) -> complex:
    return r0[0] * r1[1] + r0[1] * r1[0]


def _per3(r0, r1, r2) -> complex:
    a, b, c = r0
    d, e, f = r1
    g, h, i = r2
    return a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)


def _per4(r0, r1, r2, r3) -> complex:
    a, b, c, d = r0
    e, f, g, h = r1
    i, j, k, l = r2  # noqa: E741
    m, n, o, p = r3
    # each column pair's permanent on rows 0-1 times the other pair's on rows 2-3
    return (
        (a * f + b * e) * (k * p + l * o)
        + (a * g + c * e) * (j * p + l * n)
        + (a * h + d * e) * (j * o + k * n)
        + (b * g + c * f) * (i * p + l * m)
        + (b * h + d * f) * (i * o + k * m)
        + (c * h + d * g) * (i * n + j * m)
    )


#: Closed-form permanents, indexed by n; each takes the n rows as arguments.
_CLOSED_FORMS = (_per0, _per1, _per2, _per3, _per4)


def _permanent_of(n: int) -> Callable[..., complex]:
    """Permanent of n rows passed as n arguments: a closed form, else Glynn."""
    return _CLOSED_FORMS[n] if n < len(_CLOSED_FORMS) else _glynn


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
    rows = array.tolist()
    result = _permanent_of(len(rows))(*rows)
    if not cmath.isfinite(result):
        raise DomainError(f"permanent is not finite ({result}): the entries are too large")
    return result


def occupations(total: int, modes: int) -> tuple[tuple[int, ...], ...]:
    """All occupation tuples of `total` photons over `modes`, lexicographic."""
    total, modes = check_count("photon number", total), check_count("mode count", modes)
    out = []
    # reversed, the ascending mode picks give occupations in lexicographic order
    for picked in reversed(list(combinations_with_replacement(range(modes), total))):
        counts = [0] * modes
        for k in picked:
            counts[k] += 1
        out.append(tuple(counts))
    return tuple(out)


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
        cols: list[int] = []
        in_fact = 1
        for j, c in enumerate(occ):
            cols += [j] * c
            in_fact *= math.factorial(c)
        per_of = _permanent_of(len(cols))
        reach = [[row[j] for j in cols] for row in rows_list]
        live = [k for k, entries in enumerate(reach) if any(entries)]
        # other rows only give zero permanents; reversed, the ascending row
        # picks yield targets in canonical occupation order
        for picked in reversed(list(combinations_with_replacement(live, len(cols)))):
            per = per_of(*map(reach.__getitem__, picked))
            if per == 0:
                continue
            # the target and its factorial product, from the counts of the picked rows
            counts = [0] * size
            out_fact = 1
            for k in picked:
                counts[k] += 1
                out_fact *= counts[k]
            target = tuple(counts)
            # dividing the permanent by one combined square root first keeps
            # the identity transform (and other integer ratios) exact
            contribution = amp * (per / math.sqrt(in_fact * out_fact))
            out[target] = out.get(target, 0j) + contribution
    return PureState(state.registry, out)


def transform_oracle(unitary: ModeUnitary, state: PureState) -> PureState:
    """Same map as `transform`, by expanding the creation-operator polynomial.

    Substitutes a_in(j) -> sum_k U[k][j] a_out(k) one photon at a time and
    collects monomial coefficients; no permanents are evaluated.  The
    expansion runs on numpy arrays: a monomial is the integer whose digits
    in base PHOTON_CAP + 1 are its mode counts, so adding a photon to mode k
    adds that digit's place value.
    """
    _check_transform_args(unitary, state)
    size = state.registry.size
    matrix = unitary.matrix
    place = _COUNT_BASE ** np.arange(size - 1, -1, -1, dtype=np.int64)
    monomials, coefficients = [], []
    for occ, amp in state.items():
        keys = np.zeros(1, dtype=np.int64)
        coeffs = np.array([amp / math.sqrt(math.prod(map(math.factorial, occ)))])
        for j, photons in enumerate(occ):
            if not photons:
                continue
            rows = np.flatnonzero(matrix[:, j])
            steps, weights = place[rows], matrix[rows, j]
            for _ in range(photons):
                if len(keys) > _COLLECT_AT:
                    keys, coeffs = _collect(keys, coeffs)
                keys = (keys[:, None] + steps).ravel()
                coeffs = (coeffs[:, None] * weights).ravel()
        monomials.append(keys)
        coefficients.append(coeffs)
    if not monomials:
        return PureState(state.registry, {})
    keys, coeffs = _collect(np.concatenate(monomials), np.concatenate(coefficients))
    counts = keys[:, None] // place % _COUNT_BASE
    amplitudes = coeffs * np.sqrt(_FACTORIALS[counts].prod(axis=1))
    return PureState(state.registry, dict(zip(map(tuple, counts.tolist()), amplitudes.tolist())))


def _collect(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct monomial keys, ascending, each with the sum of its coefficients."""
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(coeffs, starts)


class Exactly(NamedTuple):
    """Detector condition: the group holds exactly `count` photons."""

    count: int


#: No photons in the group.
ZERO = Exactly(0)


class HeraldSpec:
    """Detection pattern: disjoint mode groups, each holding `Exactly(k)` photons.

    Every grouped mode is measured.  Modes in no group are unmonitored (there
    is no "any" condition): their content stays in the conditional state.
    Counts are summed over the whole group, so grouping a detector's temporal
    copies models a detector that cannot resolve time.  A threshold click (at
    least one photon) has probability norm^2 minus that of the group at ZERO.
    """

    def __init__(self, groups: Iterable[tuple[Iterable[ModeLabel], Exactly]]):
        normalized: list[tuple[frozenset[ModeLabel], Exactly]] = []
        seen: set[ModeLabel] = set()
        for labels, condition in groups:
            group = frozenset(mode(*label) for label in labels)
            if not group:
                raise HeraldSpecError("herald groups must be non-empty")
            if group & seen:
                raise HeraldSpecError(f"herald groups overlap on {sorted(group & seen)}")
            if not isinstance(condition, Exactly):
                raise HeraldSpecError(f"unknown herald condition {condition!r}")
            check_count("Exactly(k)", condition.count)
            seen |= group
            normalized.append((group, condition))
        self._groups = tuple(normalized)

    @property
    def groups(self) -> tuple[tuple[frozenset[ModeLabel], Exactly], ...]:
        return self._groups


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


def herald(state: PureState, spec: HeraldSpec) -> HeraldResult:
    """Project onto the detection pattern and split off the surviving state.

    Components with the same measured-mode pattern stay coherent; distinct
    patterns contribute probability additively.
    """
    registry = state.registry
    missing = [label for group, _ in spec.groups for label in group if label not in registry]
    if missing:
        raise HeraldSpecError(f"herald references unregistered mode {missing[0]}")
    # per group: its mode indices and the photon count it needs
    tests = [
        ([registry.index(label) for label in group], condition.count)
        for group, condition in spec.groups
    ]
    # registry indices follow canonical label order, so patterns do too
    measured_pos = sorted(i for indices, _ in tests for i in indices)
    unmeasured_pos = [i for i in range(registry.size) if i not in measured_pos]
    unmeasured_reg = ModeRegistry(registry.labels[i] for i in unmeasured_pos)

    collected: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ, amp in state.items():
        for indices, count in tests:
            if sum(map(occ.__getitem__, indices)) != count:
                break
        else:
            pattern = tuple(map(occ.__getitem__, measured_pos))
            remainder = tuple(map(occ.__getitem__, unmeasured_pos))
            collected.setdefault(pattern, {})[remainder] = amp

    branches = [
        (pattern, PureState(unmeasured_reg, amps))
        for pattern, amps in sorted(collected.items())
    ]
    probability = _probability_sum(sub.norm_squared() for _, sub in branches)
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

    Sends |m_V; n_H> on the splitter's first port plus an H-polarized
    single-photon ancilla on its second port through
    `dual_pol_beam_splitter(r_v, r_h)` and post-selects on exactly one H
    photon and no V photons on the ancilla side.  Returns the surviving
    |m_V; n_H> amplitude and the herald probability; both must agree with
    the closed forms, which is the cross-check the two code paths exist for.
    """
    signal, ancilla = 0, 1  # the splitter's two spatial ports
    registry = ModeRegistry([mode(s, p) for s in (signal, ancilla) for p in (H, V)])
    state = basis_state(registry, {mode(signal, V): m, mode(signal, H): n, mode(ancilla, H): 1})
    splitter = embed_into(
        dual_pol_beam_splitter(r_v, r_h),
        [mode(signal, H), mode(ancilla, H), mode(signal, V), mode(ancilla, V)],
        registry,
    )
    evolved = transform(splitter, state)
    result = herald(
        evolved,
        HeraldSpec([([mode(ancilla, H)], Exactly(1)), ([mode(ancilla, V)], ZERO)]),
    )
    if not result.branches:
        return NSPipelineResult(0j, 0.0)
    conditional = result.conditional_state
    target = conditional.registry.occupation({mode(signal, V): m, mode(signal, H): n})
    return NSPipelineResult(conditional.amplitude(target), result.probability)
