"""Partial distinguishability of the ancilla photon via temporal modes.

A delayed photon overlaps the principal temporal bin with amplitude eta and
is modeled coherently as eta |t=0> + sqrt(1 - eta^2) |t=1> in the same
spatial and polarization mode.  Circuits act identically on both temporal
copies; incoherence enters only at detection, where detector groups count
photons across temporal bins and distinct temporal detection patterns add
probabilities rather than amplitudes.
"""

from __future__ import annotations

import math

from .core import ModeLabel, ModeRegistry, PureState
from .errors import DomainError, check_unit_interval, is_finite

#: Default coherence time of the interfering photons, femtoseconds.
DEFAULT_TAU_COH_FS = 100.0


def overlap_from_delay(delay_fs: float, tau_coh_fs: float = DEFAULT_TAU_COH_FS) -> float:
    """Gaussian temporal-mode overlap eta = exp(-delay^2 / (2 tau^2)).

    Even in the delay, 1 at zero delay, and strictly decreasing with
    |delay|; delays well beyond the coherence time give eta ~ 0.
    """
    if not is_finite(delay_fs):
        raise DomainError(f"delay must be finite, got {delay_fs}")
    if not (is_finite(tau_coh_fs) and tau_coh_fs > 0.0):
        raise DomainError(f"coherence time must be positive and finite, got {tau_coh_fs}")
    denominator = 2.0 * tau_coh_fs * tau_coh_fs
    if denominator == 0.0:
        raise DomainError(f"coherence time {tau_coh_fs} is so small that 2 tau^2 underflows to 0")
    return math.exp(-(delay_fs * delay_fs) / denominator)


def extend_ancilla(registry: ModeRegistry, ancilla_mode: ModeLabel, eta: float) -> PureState:
    """Single photon split coherently over temporal bins 0 and 1.

    eta = 1 leaves the photon entirely in the principal bin, eta = 0 makes
    it fully distinguishable from photons occupying bin 0.
    """
    if ancilla_mode.temporal != 0:
        raise DomainError("the ancilla mode must be given in temporal bin 0")
    check_unit_interval("overlap", eta)
    delayed = ModeLabel(ancilla_mode.spatial, ancilla_mode.pol, 1)
    amplitudes = {
        registry.occupation({ancilla_mode: 1}): complex(eta),
        registry.occupation({delayed: 1}): complex(math.sqrt(max(0.0, 1.0 - eta * eta))),
    }
    return PureState(registry, amplitudes)
