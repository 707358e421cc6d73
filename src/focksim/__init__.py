"""Sparse Fock-state simulator for heralded linear-optics interferometry."""

from .core import (
    H,
    V,
    ModeLabel,
    ModeRegistry,
    PRUNE_THRESHOLD,
    PureState,
    basis_state,
    expand_onto,
    ket_string,
    mode,
    normalize,
    relabel,
    tensor_product,
)
from .distinguish import DEFAULT_TAU_COH_FS, embed_per_bin, extend_ancilla, overlap_from_delay
from .elements import (
    ModeUnitary,
    beam_splitter,
    compose,
    dual_pol_beam_splitter,
    embed_into,
    half_wave_plate,
)
from .evolve import (
    Exactly,
    HeraldResult,
    HeraldSpec,
    PHOTON_CAP,
    ZERO,
    herald,
    ns_amplitude,
    ns_amplitude_pol,
    ns_pipeline,
    occupations,
    permanent,
    transform,
    transform_oracle,
)
from .experiments import (
    ExperimentConfig,
    FringeFit,
    SweepTable,
    analysis_circuit,
    analysis_registry,
    apply_bs1,
    dip_visibility,
    fit_fringe,
    fourfold_from_mode3,
    fourfold_herald,
    fourfold_probability,
    fringe_phase_shift,
    hom_probability,
    input_phi_theta,
    input_psi_plus,
    sweep_delay,
    sweep_hom_delay,
    sweep_phase,
    twofold_herald,
    twofold_probability,
    visibility,
)

__version__ = "0.1.0"
