"""Mode unitaries for the optical elements and their composition.

Every element is represented by a complex matrix U acting on creation
operators as a_in(j) -> sum_k U[k][j] a_out(k), i.e. column j holds the
image of input mode j.  The beam-splitter sign convention is fixed: the
first port maps to (sqrt(R), sqrt(1-R)) and the second port to
(-sqrt(1-R), sqrt(R)), so the minus sign sits on the second port's
transmission.  All reported interference signs downstream depend on this
choice, which is therefore frozen here.

This module knows no tabletop: where each element sits is decided in
`focksim.experiments`, and the copy per temporal bin in
`focksim.distinguish`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import ModeLabel, ModeRegistry
from .errors import (
    DimensionMismatchError,
    DomainError,
    DuplicateModeError,
    check_unit_interval,
    is_finite,
)

#: Maximum allowed deviation of U†U from the identity.
UNITARITY_TOL = 1e-10


class ModeUnitary:
    """Unitary matrix over a set of modes, validated on construction."""

    def __init__(self, matrix: np.ndarray):
        array = np.asarray(matrix, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise DimensionMismatchError(f"mode unitary must be square, got {array.shape}")
        deviation = np.abs(array.conj().T @ array - np.eye(array.shape[0])).max() if array.size else 0.0
        if not deviation <= UNITARITY_TOL:  # a NaN deviation fails this test too
            raise DomainError(f"matrix is not unitary: max |U†U - I| = {deviation:.3e}")
        array.setflags(write=False)
        self._matrix = array

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"ModeUnitary(dim={self.dim})"


def beam_splitter(reflectivity: float) -> ModeUnitary:
    """Two-mode beam splitter with the frozen sign convention.

    Columns are (sqrt(R), sqrt(1-R)) and (-sqrt(1-R), sqrt(R)); R = 1 is the
    identity and R = 1/2 the balanced splitter.
    """
    r = check_unit_interval("reflectivity", reflectivity)
    t = math.sqrt(1.0 - r)
    s = math.sqrt(r)
    return ModeUnitary(np.array([[s, -t], [t, s]]))


def dual_pol_beam_splitter(r_v: float, r_h: float) -> ModeUnitary:
    """Polarization-preserving beam splitter on two spatial modes.

    Mode order is (in1 H, in2 H, in1 V, in2 V): block diagonal with the H
    block beam_splitter(r_h) and the V block beam_splitter(r_v).  There is
    no H<->V mixing.
    """
    check_unit_interval("r_v", r_v)
    check_unit_interval("r_h", r_h)
    block_h = beam_splitter(r_h).matrix
    block_v = beam_splitter(r_v).matrix
    full = np.zeros((4, 4), dtype=complex)
    full[:2, :2] = block_h
    full[2:, 2:] = block_v
    return ModeUnitary(full)


def half_wave_plate(rotation_degrees: float) -> ModeUnitary:
    """Wave plate rotating polarization by the given angle on (H, V).

    The matrix is [[cos p, sin p], [sin p, -cos p]]; at 45 degrees
    H -> (H+V)/sqrt(2) and V -> (H-V)/sqrt(2), at 0 degrees the
    polarizations are unchanged up to a sign on V.
    """
    if not is_finite(rotation_degrees):
        raise DomainError(f"rotation must be finite, got {rotation_degrees}")
    p = math.radians(rotation_degrees)
    c, s = math.cos(p), math.sin(p)
    return ModeUnitary(np.array([[c, s], [s, -c]]))


def embed_into(
    element: ModeUnitary, target_modes: Sequence[ModeLabel], registry: ModeRegistry
) -> ModeUnitary:
    """Place an element on the listed modes, identity everywhere else."""
    if len(target_modes) != element.dim:
        raise DimensionMismatchError(
            f"element has dim {element.dim} but {len(target_modes)} target modes given"
        )
    if len(set(target_modes)) != len(target_modes):
        raise DuplicateModeError("target modes must be distinct")
    indices = [registry.index(label) for label in target_modes]
    full = np.eye(registry.size, dtype=complex)
    full[np.ix_(indices, indices)] = element.matrix
    return ModeUnitary(full)


def compose(elements: Sequence[ModeUnitary]) -> ModeUnitary:
    """Product of elements applied in list order (first listed acts first)."""
    if not elements:
        raise DimensionMismatchError("compose requires at least one element")
    dim = elements[0].dim
    acc = np.eye(dim, dtype=complex)
    for element in elements:
        if element.dim != dim:
            raise DimensionMismatchError(
                f"cannot compose dims {dim} and {element.dim}"
            )
        acc = element.matrix @ acc
    return ModeUnitary(acc)
