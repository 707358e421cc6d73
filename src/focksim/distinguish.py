"""Partial distinguishability of the ancilla photon via temporal modes.

A delayed photon overlaps the principal temporal bin with amplitude eta and
is modeled coherently as eta |t=0> + sqrt(1 - eta^2) |t=1> in the same
spatial and polarization mode.  Circuits act identically on both temporal
copies; incoherence enters only at detection, where detector groups count
photons across temporal bins and distinct temporal detection patterns add
probabilities rather than amplitudes.

This module is that whole model, and no other names a temporal bin: the
bins a registry holds, the split ancilla, elements copied into every bin
and detector groups summed over bins.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ModeLabel, ModeRegistry, PureState, mode
from .elements import ModeUnitary, embed_into
from .errors import DomainError, check_unit_interval, is_finite

#: Default coherence time of the interfering photons, femtoseconds.
DEFAULT_TAU_COH_FS = 100.0

#: The principal temporal bin, and the bin a delayed ancilla spills into.
_PRINCIPAL, _DELAYED = 0, 1


def overlap_from_delay(delay_fs: float, tau_coh_fs: float = DEFAULT_TAU_COH_FS) -> float:
    """Gaussian temporal-mode overlap eta = exp(-delay^2 / (2 tau^2)).

    Even in the delay, 1 at zero delay, and strictly decreasing with
    |delay|; delays well beyond the coherence time give eta ~ 0.
    """
    if not is_finite(delay_fs):
        raise DomainError(f"delay must be finite, got {delay_fs}")
    if not (is_finite(tau_coh_fs) and tau_coh_fs > 0.0):
        raise DomainError(f"coherence time must be positive and finite, got {tau_coh_fs}")
    # squaring the ratio, not delay and tau apart, leaves no inf/inf or x/0; as
    # Python floats, a square past the float range is a quiet inf and exp gives 0
    ratio = float(delay_fs) / float(tau_coh_fs)
    return math.exp(-0.5 * ratio * ratio)


def _binned_labels(ports: Sequence[tuple[int, str]], delayed: bool) -> list[ModeLabel]:
    """Every (spatial, pol) port in the principal bin, and in the delayed bin too if `delayed`."""
    bins = (_PRINCIPAL, _DELAYED) if delayed else (_PRINCIPAL,)
    return [mode(spatial, pol, t) for t in bins for spatial, pol in ports]


def extend_ancilla(registry: ModeRegistry, ancilla_mode: ModeLabel, eta: float) -> PureState:
    """Single photon split coherently over temporal bins 0 and 1.

    eta = 1 leaves the photon entirely in the principal bin, eta = 0 makes
    it fully distinguishable from photons occupying bin 0.
    """
    if ancilla_mode.temporal != _PRINCIPAL:
        raise DomainError("the ancilla mode must be given in temporal bin 0")
    check_unit_interval("overlap", eta)
    delayed = ModeLabel(ancilla_mode.spatial, ancilla_mode.pol, _DELAYED)
    amplitudes = {
        registry.occupation({ancilla_mode: 1}): complex(eta),
        registry.occupation({delayed: 1}): complex(math.sqrt(1.0 - eta * eta)),
    }
    return PureState(registry, amplitudes)


def embed_per_bin(
    element: ModeUnitary, ports: Sequence[tuple[int, str]], registry: ModeRegistry
) -> ModeUnitary:
    """Place an element on the listed (spatial, pol) ports in every temporal bin.

    Every tabletop element acts identically on each temporal copy of its
    ports, so a registry with delayed modes gets one copy of the element
    per temporal bin it holds.
    """
    bins = sorted({label.temporal for label in registry.labels})
    return embed_into(
        ModeUnitary(np.kron(np.eye(len(bins)), element.matrix)),
        [mode(spatial, pol, t) for t in bins for spatial, pol in ports],
        registry,
    )

