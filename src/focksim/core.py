"""Mode bookkeeping, Fock occupations, and sparse complex state vectors.

A mode is labeled by (spatial index, polarization, temporal index) and a
registry assigns every label a dense index under a fixed canonical order.
Basis states are occupation tuples (one photon count per registered mode)
and a pure state is a sparse map from occupation tuples to complex
amplitudes.  States may be sub-normalized: the squared norm of a heralded
state is the probability of the heralding event.  Every state is built by
one constructor, which checks each key and amplitude; a key that is
already a tuple of small Python ints passes in a few C-level calls.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    FLOAT_MAX,
    DimensionMismatchError,
    DomainError,
    DuplicateModeError,
    MissingModeError,
    OverlappingModesError,
    ZeroStateError,
    check_count,
)

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: Amplitudes below this magnitude are dropped after every linear operation,
#: which keeps exact interference zeros exactly absent from storage.
PRUNE_THRESHOLD = 1e-12

#: Largest registry the simulator supports.
MODE_CAP = 16


class ModeLabel(NamedTuple):
    """One optical mode: spatial path, polarization, and temporal bin."""

    spatial: int
    pol: str
    temporal: int = 0


def mode(spatial: int, pol: str, temporal: int = 0) -> ModeLabel:
    """Validated :class:`ModeLabel` constructor."""
    if pol not in POLARIZATIONS:
        raise DomainError(f"polarization must be 'H' or 'V', got {pol!r}")
    spatial = check_count("spatial index", spatial)
    return ModeLabel(spatial, pol, check_count("temporal index", temporal))


class ModeRegistry:
    """Immutable set of mode labels with dense canonical indexing.

    Labels are ordered by (spatial, polarization with H before V, temporal)
    so that indexing, enumeration and serialized output are deterministic.
    """

    def __init__(self, labels: Iterable[ModeLabel]):
        validated = [mode(*label) for label in labels]
        ordered = tuple(sorted(validated))
        if len(set(ordered)) != len(ordered):
            raise DuplicateModeError("registry labels must be distinct")
        if len(ordered) > MODE_CAP:
            raise DomainError(f"registry size {len(ordered)} exceeds cap {MODE_CAP}")
        self._labels = ordered
        self._index = {label: i for i, label in enumerate(ordered)}

    @property
    def labels(self) -> tuple[ModeLabel, ...]:
        return self._labels

    @property
    def size(self) -> int:
        return len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: ModeLabel) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModeRegistry) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"ModeRegistry({list(self._labels)!r})"

    def index(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MissingModeError(f"mode {label} is not registered") from None

    def occupation(self, counts: Mapping[ModeLabel, int]) -> tuple[int, ...]:
        """Occupation tuple with the given per-label counts, zero elsewhere."""
        occ = [0] * self.size
        for label, count in counts.items():
            occ[self.index(label)] = check_count("photon count", count)
        return tuple(occ)


_INT_ONLY = frozenset({int})
#: Counts a key may hold and still take `PureState`'s fast path; a key with a
#: larger count is checked count by count, as any other key is.
_FAST_COUNTS = frozenset(range(64))


def _checked_occupation(occ, size: int) -> tuple[int, ...]:
    """`occ` as a tuple of ints; the rules `PureState` applies to any key."""
    if len(occ) != size:
        raise DimensionMismatchError(
            f"occupation length {len(occ)} does not match registry size {size}"
        )
    # check_count's test, inlined: this runs for every key off the fast path
    if not all(0 <= c <= FLOAT_MAX and c % 1 == 0 for c in occ):
        raise DomainError(f"occupation counts must be non-negative integers: {occ}")
    return tuple(int(c) for c in occ)


def _probability_sum(terms: Iterable[float]) -> float:
    """`math.fsum` of probability terms; DomainError if a term or the sum leaves the float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        raise DomainError("a probability sum leaves the float range") from None


class PureState:
    """Sparse pure state: occupation tuple -> complex amplitude.

    Amplitudes smaller than :data:`PRUNE_THRESHOLD` in magnitude are pruned
    on construction, and a non-finite amplitude is rejected.  The squared
    norm is not forced to 1; heralded states legitimately carry norms below 1.

    Keys that are already tuples of small non-negative Python ints are
    checked by a few C-level calls and kept as given; any other key (bools,
    numpy ints, integral floats, lists, large counts) is checked count by
    count and converted to a tuple of ints.
    """

    def __init__(self, registry: ModeRegistry, amplitudes: Mapping[tuple[int, ...], complex]):
        self._registry = registry
        size = registry.size
        kept: dict[tuple[int, ...], complex] = {}
        for occ, amp in amplitudes.items():
            # fast path, in C-level calls: a tuple of small Python ints is kept as is
            if not (
                type(occ) is tuple
                and len(occ) == size
                and _INT_ONLY.issuperset(map(type, occ))
                and _FAST_COUNTS.issuperset(occ)
            ):
                occ = _checked_occupation(occ, size)
            value = complex(amp)
            # not redundant with the pruning test: abs(nan) >= PRUNE_THRESHOLD is False
            if not cmath.isfinite(value):
                raise DomainError(f"amplitude of {occ} must be finite, got {value}")
            if abs(value) >= PRUNE_THRESHOLD:
                kept[occ] = value
        self._amplitudes = kept

    @property
    def registry(self) -> ModeRegistry:
        return self._registry

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self._amplitudes.items())

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self._amplitudes))

    def amplitude(self, occ: tuple[int, ...] | Mapping[ModeLabel, int]) -> complex:
        if type(occ) is not tuple:
            occ = self._registry.occupation(occ) if isinstance(occ, Mapping) else tuple(occ)
        return self._amplitudes.get(occ, 0j)

    def norm_squared(self) -> float:
        return _probability_sum(abs(a) ** 2 for a in self._amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def is_zero(self) -> bool:
        return not self._amplitudes

    def modes_used(self) -> frozenset[ModeLabel]:
        """Labels that carry at least one photon in some basis component."""
        labels = self._registry.labels
        used = set()
        for occ in self._amplitudes:
            for i, count in enumerate(occ):
                if count:
                    used.add(labels[i])
        return frozenset(used)

    def scaled(self, factor: complex) -> "PureState":
        return PureState(self._registry, {occ: factor * a for occ, a in self.items()})

    def __repr__(self) -> str:
        return f"PureState({dict(sorted(self._amplitudes.items()))!r})"


def basis_state(registry: ModeRegistry, counts: Mapping[ModeLabel, int]) -> PureState:
    """Single Fock basis state with unit amplitude."""
    return PureState(registry, {registry.occupation(counts): 1.0 + 0j})


def normalize(state: PureState) -> tuple[PureState, float]:
    """Scale to unit norm; returns (normalized state, original norm)."""
    norm = state.norm()
    if norm == 0.0:
        raise ZeroStateError("cannot normalize a state with empty support")
    return state.scaled(1.0 / norm), norm


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Combine states occupying disjoint mode subsets of one registry."""
    if a.registry != b.registry:
        raise DimensionMismatchError("tensor factors must share a registry")
    overlap = a.modes_used() & b.modes_used()
    if overlap:
        raise OverlappingModesError(f"tensor factors both occupy {sorted(overlap)}")
    combined: dict[tuple[int, ...], complex] = {}
    for occ_a, amp_a in a.items():
        for occ_b, amp_b in b.items():
            occ = tuple(x + y for x, y in zip(occ_a, occ_b))
            combined[occ] = combined.get(occ, 0j) + amp_a * amp_b
    return PureState(a.registry, combined)


def _remap(state: PureState, labels: Iterable[ModeLabel], registry: ModeRegistry) -> PureState:
    """Move mode i's count to the position of labels[i] in `registry`, vacuum elsewhere."""
    positions = [registry.index(label) for label in labels]
    moved: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.items():
        new_occ = [0] * registry.size
        for pos, count in zip(positions, occ):
            new_occ[pos] = count
        moved[tuple(new_occ)] = amp
    return PureState(registry, moved)


def relabel(state: PureState, mapping: Mapping[ModeLabel, ModeLabel]) -> PureState:
    """Rename modes; labels absent from the mapping are kept unchanged."""
    new_labels = [mapping.get(label, label) for label in state.registry.labels]
    return _remap(state, new_labels, ModeRegistry(new_labels))


def expand_onto(state: PureState, registry: ModeRegistry) -> PureState:
    """Re-express a state on a larger registry, vacuum on the new modes."""
    return _remap(state, state.registry.labels, registry)


def ket_string(state: PureState, precision: int = 6) -> str:
    """Human-readable rendering of a sparse state, canonical basis order."""
    precision = check_count("precision", precision)
    if state.is_zero():
        return "0"
    parts = []
    for occ in state.support():
        amp = state.amplitude(occ)
        if abs(amp.imag) < 1e-12:
            text = f"{amp.real:+.{precision}f}"
        else:
            text = f"+({amp.real:.{precision}f}{amp.imag:+.{precision}f}j)"
        parts.append(f"{text}|{','.join(str(c) for c in occ)}>")
    return " ".join(parts)
